//! `psh-snap` and `psh-serve` driven as binaries on snapshot files they
//! must refuse: every refusal exits 1 with a one-line message (never a
//! panic's 101) and leaves no journal behind.

use psh_core::api::{OracleBuilder, Seed};
use psh_core::snapshot::{journal_path, save_oracle_v2, OracleMeta};
use psh_core::HopsetParams;
use psh_graph::generators;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// A scratch directory of this test process's own.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("psh-snap-test-{}-{name}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin).args(args).output().unwrap()
}

fn psh_snap(args: &[&str]) -> Output {
    run(env!("CARGO_BIN_EXE_psh-snap"), args)
}

/// Assert a clean refusal: exit 1 with `needle` on stderr.
fn refused(out: &Output, needle: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains(needle), "{stderr}");
}

fn path_str(p: &Path) -> &str {
    p.to_str().unwrap()
}

#[test]
fn vertex_ids_beyond_u32_are_refused_not_truncated() {
    let dir = scratch("ids");
    let base = dir.join("base.snap");
    let g = generators::grid(16, 16);
    let params = HopsetParams::default();
    let built = OracleBuilder::new().seed(Seed(1)).build(&g).unwrap();
    save_oracle_v2(&base, &built.artifact, &OracleMeta::of_run(&built, params)).unwrap();

    // 2^32 used to be cast to vertex 0 and appended as edge (0, 5)
    let ops = dir.join("ops");
    std::fs::write(&ops, "# one insert\nadd 4294967296 5 1\n").unwrap();
    let out = psh_snap(&["journal", path_str(&base), "--apply", path_str(&ops)]);
    refused(&out, &format!("{}:2: bad vertex id", ops.display()));
    assert!(
        !journal_path(&base).exists(),
        "a refused op must append nothing"
    );

    // in range for u32 but not for the graph: the delta's own check
    std::fs::write(&ops, "del 0 256\n").unwrap();
    let out = psh_snap(&["journal", path_str(&base), "--apply", path_str(&ops)]);
    refused(&out, &format!("{}:1: invalid op", ops.display()));
    assert!(!journal_path(&base).exists());

    std::fs::write(&ops, "add 0 255 3\n").unwrap();
    let out = psh_snap(&["journal", path_str(&base), "--apply", path_str(&ops)]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(journal_path(&base).exists());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn version_1_files_are_refused_by_every_command() {
    let dir = scratch("v1");
    // a version-1 oracle header (magic, version 1, kind 4), then 64 bytes
    let v1 = dir.join("oracle.v1");
    let mut bytes = b"PSHS\x01\x00\x04\x00".to_vec();
    bytes.resize(72, 0);
    std::fs::write(&v1, &bytes).unwrap();
    let ops = dir.join("ops");
    std::fs::write(&ops, "add 0 1 1\n").unwrap();
    let v1s = path_str(&v1);

    refused(&psh_snap(&["inspect", v1s]), "version 1 unsupported");
    refused(
        &psh_snap(&["journal", v1s, "--apply", path_str(&ops)]),
        "version 1 unsupported",
    );
    assert!(!journal_path(&v1).exists());
    // compact opens the base before its journal
    std::fs::write(journal_path(&v1), b"").unwrap();
    refused(&psh_snap(&["compact", v1s]), "version 1 unsupported");
    std::fs::remove_file(journal_path(&v1)).unwrap();
    refused(
        &run(
            env!("CARGO_BIN_EXE_psh-serve"),
            &["--snapshot", v1s, "--max-seconds", "5"],
        ),
        "version 1 unsupported",
    );
    assert_eq!(
        std::fs::read(&v1).unwrap(),
        bytes,
        "the file is left as it was"
    );
    std::fs::remove_dir_all(&dir).ok();
}
