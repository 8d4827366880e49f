//! Exit codes of the `figures` binary.

use std::process::Command;

fn figures() -> Command {
    Command::new(env!("CARGO_BIN_EXE_figures"))
}

#[test]
fn failed_csv_write_exits_nonzero() {
    // `--out` names a regular file, so creating the output directory fails.
    let out = std::env::temp_dir().join(format!("qes-figures-out-{}", std::process::id()));
    std::fs::write(&out, b"not a directory").unwrap();
    let status = figures()
        .args(["fig01", "--out"])
        .arg(&out)
        .output()
        .unwrap()
        .status;
    std::fs::remove_file(&out).unwrap();
    assert_eq!(status.code(), Some(1), "{status}");
}

#[test]
fn successful_run_exits_zero() {
    let out = std::env::temp_dir().join(format!("qes-figures-dir-{}", std::process::id()));
    let status = figures()
        .args(["fig01", "--out"])
        .arg(&out)
        .output()
        .unwrap()
        .status;
    let wrote = out.join("fig01.csv").is_file();
    std::fs::remove_dir_all(&out).unwrap();
    assert!(status.success(), "{status}");
    assert!(wrote);
}

#[test]
fn unknown_figure_is_a_usage_error() {
    let status = figures().arg("fig99").output().unwrap().status;
    assert_eq!(status.code(), Some(2), "{status}");
}
