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

/// A registry experiment takes no arguments: a trailing one is an error,
/// so a removed flag fails instead of passing vacuously.
#[test]
fn trailing_arguments_after_an_experiment_exit_nonzero() {
    for args in [
        &["formulas", "--gremlins"][..],
        &["recovery", "--seeds", "2"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(args)
            .output()
            .expect("run repro");
        assert!(
            !out.status.success(),
            "{args:?}: exit status {:?}",
            out.status
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("takes no arguments"), "{args:?}: {stderr}");
    }
}
