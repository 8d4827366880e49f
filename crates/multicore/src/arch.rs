//! Architecture models: No-DVFS, S-DVFS, C-DVFS (paper §V-A).
//!
//! The paper evaluates DES on three processor architectures with different
//! DVFS capability; [`ArchKind`] selects which degradation of the full
//! algorithm runs:
//!
//! * **No-DVFS** — cores run at one fixed speed (the speed funded by the
//!   static equal power share `H/m`) and cannot scale down, so they draw
//!   that power *continuously*, busy or idle. DES degrades to C-RR +
//!   Quality-OPT per core (steps 2–3 and the Energy-OPT step are skipped).
//! * **S-DVFS** — all cores share one clock: the speed may change at each
//!   invocation but is common to every core, busy or idle. The shared
//!   power is the *maximum* per-core request, clamped by the equal share.
//! * **C-DVFS** — per-core DVFS, the architecture DES is designed for:
//!   the full C-RR + WF + Online-QE pipeline.
//!
//! The first two skip the Energy-OPT step exactly as §V-A prescribes: DES
//! runs Online-QE on every core at the fixed (or shared) power in
//! [`OnlineMode::Eager`](qes_singlecore::OnlineMode::Eager), which packs
//! the myopic Quality-OPT volumes EDF at that speed.

/// Which DVFS capability the simulated processor offers (§V-A).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ArchKind {
    /// No speed scaling: fixed speed, constant power draw.
    NoDvfs,
    /// System-level DVFS: one shared, changeable speed for all cores.
    SDvfs,
    /// Core-level DVFS: each core scales independently.
    CDvfs,
}

impl ArchKind {
    /// Display name matching the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            ArchKind::NoDvfs => "No-DVFS",
            ArchKind::SDvfs => "S-DVFS",
            ArchKind::CDvfs => "C-DVFS",
        }
    }
}

impl std::fmt::Display for ArchKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arch_names() {
        assert_eq!(ArchKind::NoDvfs.name(), "No-DVFS");
        assert_eq!(ArchKind::SDvfs.to_string(), "S-DVFS");
        assert_eq!(ArchKind::CDvfs.name(), "C-DVFS");
    }
}
