//! The single-core algorithm family on one worked job set (paper §III):
//! Energy-OPT (YDS), Quality-OPT (Tians), the offline optimal QE-OPT, and
//! the myopic online algorithm Online-QE.
//!
//! ```text
//! cargo run --release --example singlecore_qe_opt
//! ```

use qes::prelude::*;
use qes::singlecore::online_qe::ReadyJob;
use qes_core::PowerModel;

fn main() {
    let ms = SimTime::from_millis;
    // Five overlapping requests; the middle of the horizon is overloaded.
    let jobs = JobSet::new(vec![
        Job::new(0, ms(0), ms(150), 180.0).unwrap(),
        Job::new(1, ms(30), ms(180), 260.0).unwrap(),
        Job::new(2, ms(60), ms(210), 90.0).unwrap(),
        Job::new(3, ms(70), ms(220), 310.0).unwrap(),
        Job::new(4, ms(140), ms(290), 120.0).unwrap(),
    ])
    .unwrap();
    let model = PolynomialPower::PAPER_SIM; // P = 5·s²
    let budget = 20.0; // one core's share: s* = 2 GHz
    let quality = ExpQuality::PAPER_DEFAULT;

    println!(
        "job set: {} jobs, {:.0} units total demand\n",
        jobs.len(),
        jobs.total_demand()
    );

    // Energy-OPT pretends there is no budget and completes everything.
    let yds = energy_opt::energy_opt(&jobs);
    println!("Energy-OPT (no budget):");
    println!(
        "  critical speeds: {:?}",
        yds.round_speeds
            .iter()
            .map(|s| (s * 100.0).round() / 100.0)
            .collect::<Vec<_>>()
    );
    println!(
        "  energy: {:.2} J (peak power {:.1} W)\n",
        yds.schedule.energy(&model),
        model.dynamic_power(yds.initial_speed())
    );

    // Quality-OPT at the budget speed: partial evaluation kicks in.
    let qo = quality_opt::quality_opt(&jobs, 2.0);
    println!("Quality-OPT at fixed 2 GHz:");
    for j in jobs.iter() {
        let v = qo.volume(j.id);
        let tag = if v + 1e-6 >= j.demand {
            "satisfied"
        } else {
            "deprived "
        };
        println!(
            "  {}: {:>6.1} / {:>6.1} units [{tag}]  quality {:.3}",
            j.id,
            v,
            j.demand,
            quality.job_quality(j, v)
        );
    }

    // QE-OPT: Quality-OPT volumes realized at Energy-OPT speeds.
    let qe = qe_opt::qe_opt(&jobs, &model, budget);
    let q_total: f64 = jobs
        .iter()
        .map(|j| quality.job_quality(j, qe.volume(j.id)))
        .sum();
    let q_max: f64 = jobs.iter().map(|j| quality.max_job_quality(j)).sum();
    println!("\nQE-OPT under a {budget:.0} W budget:");
    println!(
        "  quality: {:.4} of {:.4} max ({:.1}%)",
        q_total,
        q_max,
        100.0 * q_total / q_max
    );
    println!("  energy : {:.2} J", qe.schedule.energy(&model));
    println!("  slices :");
    for s in qe.schedule.slices() {
        println!(
            "    {} runs [{} → {}] at {:.3} GHz",
            s.job, s.start, s.end, s.speed
        );
    }

    // Online-QE mid-stream: at t = 100 ms, J0 has run 120 of 180 units.
    let ready: Vec<ReadyJob> = jobs
        .iter()
        .map(|&j| ReadyJob {
            job: j,
            processed: if j.id == JobId(0) { 120.0 } else { 0.0 },
        })
        .collect();
    let out = QeSolver::default().solve(ms(100), &ready, &model, budget, OnlineMode::Efficient);
    println!("\nOnline-QE invoked at t = 100 ms (J0 already 120/180 done):");
    for j in jobs.iter() {
        println!("  {}: planned total {:>6.1} units", j.id, out.planned(j.id));
    }
    println!(
        "  future slices start at or after t = 100 ms: {}",
        out.schedule.slices().iter().all(|s| s.start >= ms(100))
    );
}
