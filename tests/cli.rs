//! The `iqrudp` binary as one stage of a shell pipeline.

use std::process::{Command, Stdio};

/// A reader that goes away, as `head` does in `iqrudp tables | head -1`,
/// ends `iqrudp` quietly: status 0 and no panic on the broken pipe.
#[test]
fn a_closed_stdout_ends_the_cli_quietly() {
    let (reader, writer) = std::io::pipe().expect("a pipe");
    drop(reader);
    let run = Command::new(env!("CARGO_BIN_EXE_iqrudp"))
        .args(["--no-timing", "tables", "0.05", "t1"])
        .stdout(writer)
        .stderr(Stdio::piped())
        .spawn()
        .expect("iqrudp starts")
        .wait_with_output()
        .expect("iqrudp ends");
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(run.status.success(), "{:?}: {stderr}", run.status);
}

/// README's quickstart quotes `iqrudp demo`'s output; the quote is the
/// output, byte for byte.
#[test]
fn demo_prints_what_the_readme_quotes() {
    let run = Command::new(env!("CARGO_BIN_EXE_iqrudp"))
        .arg("demo")
        .output()
        .expect("iqrudp runs");
    assert!(run.status.success(), "{:?}", run.status);
    let stdout = String::from_utf8(run.stdout).expect("UTF-8 output");
    assert_eq!(stdout.lines().count(), 2, "{stdout}");
    let readme = include_str!("../README.md");
    assert!(
        readme.contains(&stdout),
        "README.md does not quote `iqrudp demo`:\n{stdout}"
    );
}
