//! `psh-serve`, `psh-server` and `psh-client` driven as binaries with
//! flags they must refuse: a misspelt flag and a malformed value each
//! exit 1 naming the flag (never a panic's 101, never a silent default),
//! before any graph is built or socket bound. The experiment binaries
//! refuse the same way, before any work.

use std::path::PathBuf;
use std::process::{Command, Output};

const BINS: [&str; 3] = [
    env!("CARGO_BIN_EXE_psh-serve"),
    env!("CARGO_BIN_EXE_psh-server"),
    env!("CARGO_BIN_EXE_psh-client"),
];

/// A scratch directory of this test process's own.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("psh-flags-test-{}-{name}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin).args(args).output().unwrap()
}

/// Assert a clean refusal: exit 1 with `needle` on stderr.
fn refused(out: &Output, needle: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains(needle), "{stderr}");
}

#[test]
fn unknown_flags_and_malformed_values_are_refused_by_name() {
    let dir = scratch("refusals");
    let snap = dir.join("F");
    let snap = snap.to_str().unwrap();
    for bin in BINS {
        let graph = ["--family", "grid", "--n", "64", "--snapshot", snap];
        refused(
            &run(bin, &[&graph[..], &["--load-mod", "read"]].concat()),
            "unknown flag '--load-mod'",
        );
        refused(
            &run(bin, &[&graph[..], &["--snapshot-version", "1"]].concat()),
            "unknown flag '--snapshot-version'",
        );
        refused(
            &run(bin, &[&graph[..], &["--weights", "6x4"]].concat()),
            "bad --weights '6x4'",
        );
        refused(&run(bin, &["--n", "64x"]), "bad --n '64x'");
        refused(&run(bin, &["--seed", "-1"]), "bad --seed '-1'");
        refused(&run(bin, &["--family"]), "--family needs a value");
        assert!(!dir.join("F").exists(), "a refused run builds nothing");
    }
    let [serve, server, client] = BINS;
    // psh-server's batch cap is a constant: it reads no --batch
    refused(&run(server, &["--batch", "64"]), "unknown flag '--batch'");
    for bin in [serve, client] {
        refused(&run(bin, &["--batch", "0"]), "bad --batch '0'");
    }
    refused(&run(serve, &["--queries", "1e3"]), "bad --queries '1e3'");
    refused(&run(client, &["--queries", "1e3"]), "bad --queries '1e3'");
    refused(&run(client, &["--clients", "two"]), "bad --clients 'two'");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn the_other_binaries_refuse_unknown_flags_before_any_work() {
    let dir = scratch("others");
    let json = dir.join("report.json");
    let json = json.to_str().unwrap();
    refused(
        &run(env!("CARGO_BIN_EXE_table1_spanners"), &["--jsno", json]),
        "unknown flag '--jsno'",
    );
    assert!(
        !dir.join("report.json").exists(),
        "a refused run writes nothing"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn every_psh_serve_flag_is_accepted() {
    let dir = scratch("accepted");
    let snap = dir.join("F");
    let json = dir.join("report.json");
    let args = [
        "--family",
        "grid",
        "--n=36",
        "--weights",
        "8",
        "--seed",
        "3",
        "--snapshot",
        snap.to_str().unwrap(),
        "--fresh-snapshot",
        "--load-mode=read",
        "--workload-dist",
        "zipf:0.9",
        "--queries",
        "12",
        "--batch",
        "5",
        "--threads",
        "2",
        "--max-seconds",
        "30",
        "--json",
        json.to_str().unwrap(),
        "--cleanup-snapshot",
    ];
    let out = run(BINS[0], &args);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(json.exists() && !snap.exists());
    std::fs::remove_dir_all(&dir).ok();
}
