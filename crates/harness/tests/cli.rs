//! Command-line misuse of the harness binaries (`bench-replay`,
//! `bench-serve`, and the figure drivers and `run-all` through
//! `harness::Args`): the usage goes to stderr and the process exits with
//! status 2 — never a panic backtrace.

use std::process::Command;

fn assert_misuse(bin: &str, name: &str, args: &[&str]) {
    let out = Command::new(bin)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("spawn {name}: {e}"));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(
        stderr.contains(&format!("usage: {name}")),
        "{args:?}: {stderr}"
    );
    assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{args:?}");
}

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
        assert_misuse(env!("CARGO_BIN_EXE_bench-replay"), "bench-replay", args);
    }
}

#[test]
fn bench_serve_misuse_prints_usage_and_exits_2() {
    let cases: [&[&str]; 9] = [
        &["--help"],
        &["--bogus"],
        &["--accesses"],
        &["--accesses", "many"],
        &["--accesses", "0"],
        &["--tenants"],
        &["--tenants", "-1"],
        &["--smoke", "--tenants", "two"],
        &["--json"],
    ];
    for args in cases {
        assert_misuse(env!("CARGO_BIN_EXE_bench-serve"), "bench-serve", args);
    }
}

/// Misuse of the flags every `harness::Args` binary shares.
const ARGS_MISUSE: [&[&str]; 7] = [
    &["--help"],
    &["--bogus"],
    &["--scale"],
    &["--scale", "huge"],
    &["--out"],
    &["--only"],
    &["--scale", "micro", "--wn2"],
];

#[test]
fn figure_binary_misuse_prints_usage_and_exits_2() {
    for args in ARGS_MISUSE {
        assert_misuse(
            env!("CARGO_BIN_EXE_fig10-mpki-gippr"),
            "fig10-mpki-gippr",
            args,
        );
    }
}

#[test]
fn run_all_misuse_prints_usage_and_exits_2() {
    for args in ARGS_MISUSE {
        assert_misuse(env!("CARGO_BIN_EXE_run-all"), "run-all", args);
    }
}
