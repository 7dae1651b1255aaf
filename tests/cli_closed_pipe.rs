//! The `qof` binary ends quietly when its stdout reader goes away, as in
//! `qof stats … | head -5`: no panic message and no backtrace on stderr.
//!
//! Each case spawns the binary with piped stdout and stderr and drops the
//! stdout reader before the program prints, so every write it makes fails
//! with a broken pipe.

use std::io::Read;
use std::process::{Command, Stdio};

/// Runs `qof` with `args`, closes its stdout at once, and returns its exit
/// status and everything it wrote to stderr.
fn run_with_stdout_closed(args: &[&str]) -> (std::process::ExitStatus, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_qof"))
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .env("RUST_BACKTRACE", "1")
        .spawn()
        .unwrap();
    drop(child.stdout.take());
    let mut stderr = String::new();
    child.stderr.take().unwrap().read_to_string(&mut stderr).unwrap();
    (child.wait().unwrap(), stderr)
}

fn assert_quiet(args: &[&str]) {
    let (status, stderr) = run_with_stdout_closed(args);
    assert!(!stderr.contains("panicked"), "qof {args:?} panicked on a closed pipe:\n{stderr}");
    assert!(status.success(), "qof {args:?} exited with {status}:\n{stderr}");
}

#[test]
fn generate_into_a_closed_pipe_does_not_panic() {
    // Far more than a pipe buffer, in one write.
    assert_quiet(&["generate", "bibtex", "2000"]);
}

#[test]
fn stats_into_a_closed_pipe_does_not_panic() {
    let path = std::env::temp_dir().join(format!("qof-pipe-{}.bib", std::process::id()));
    std::fs::write(&path, qof::corpus::bibtex::generate(&Default::default()).0).unwrap();
    let query = "SELECT r.Key FROM References r WHERE r.Year = \"1982\"";
    assert_quiet(&["stats", "bibtex", path.to_str().unwrap(), query]);
    std::fs::remove_file(&path).ok();
}
