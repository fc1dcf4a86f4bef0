//! The `repro` binary's command-line contract, checked on the built binary.

use std::process::Command;

/// An unknown subcommand is an error: message on stderr, non-zero exit —
/// so a typo in a CI step fails the step instead of passing vacuously.
#[test]
fn unknown_experiment_exits_nonzero_with_a_message() {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg("nosuch")
        .output()
        .expect("run repro");
    assert!(!out.status.success(), "exit status {:?}", out.status);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("unknown experiment 'nosuch'"),
        "stderr: {stderr}"
    );
}
