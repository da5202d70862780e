//! Command-line misuse of `bench-replay`: the usage goes to stderr and
//! the process exits with status 2 — never a panic backtrace.

use std::process::Command;

#[test]
fn bench_replay_misuse_prints_usage_and_exits_2() {
    let cases: [&[&str]; 5] = [
        &["--help"],
        &["--bogus"],
        &["--scale"],
        &["--scale", "huge"],
        &["--json"],
    ];
    for args in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_bench-replay"))
            .args(args)
            .output()
            .expect("spawn bench-replay");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("usage: bench-replay"), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}
