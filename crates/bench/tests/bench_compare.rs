//! `bench-compare` driven as a binary on two small report files.

use std::path::PathBuf;
use std::process::Command;

/// Write a one-table report with `rows` under a per-process name.
fn report(name: &str, table: &str, rows: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("bench-compare-{}-{name}", std::process::id()));
    let doc = format!(r#"{{"meta":{{"schema_version":1}},"tables":{{"{table}":[{rows}]}}}}"#);
    std::fs::write(&path, doc).unwrap();
    path
}

/// Run `bench-compare` on two reports, then delete them.
fn compare(base: PathBuf, fresh: PathBuf) -> std::process::Output {
    let out = Command::new(env!("CARGO_BIN_EXE_bench-compare"))
        .arg(&base)
        .arg(&fresh)
        .output()
        .unwrap();
    std::fs::remove_file(&base).unwrap();
    std::fs::remove_file(&fresh).unwrap();
    out
}

#[test]
fn rows_that_differ_only_in_what_the_build_produced_still_gate_its_time() {
    let base = report(
        "build-base.json",
        "build",
        r#"{"family":"rmat","weights":"weighted","n":"800","build (s)":"0.500","work":"901,122","hopset":"2,048","snapshot bytes":"935,440"}"#,
    );
    let fresh = report(
        "build-fresh.json",
        "build",
        r#"{"family":"rmat","weights":"weighted","n":"800","build (s)":"2.000","work":"450,561","hopset":"1,024","snapshot bytes":"586,256"}"#,
    );
    let out = compare(base, fresh);
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains("SEVERE build [family=rmat|weights=weighted|n=800|] build (s)"),
        "{stderr}"
    );
}

#[test]
fn a_metric_column_the_fresh_row_lacks_is_reported_not_gated() {
    let base = report(
        "base.json",
        "serve",
        r#"{"policy":"seq","qps":"900.5","p50 (ms)":"40.0"}"#,
    );
    let fresh = report(
        "fresh.json",
        "serve",
        r#"{"policy":"seq","p50 (ms)":"41.0"}"#,
    );
    let line = format!(
        "~ serve [policy=seq|] qps: absent from {}: not gated",
        fresh.display()
    );
    let out = compare(base, fresh);
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        out.status.success(),
        "non-fatal, like a missing row\n{stdout}"
    );
    assert!(stdout.contains(&line), "{stdout}");
    assert!(stdout.contains("compared 1 metric cell(s)"), "{stdout}");
    assert!(stdout.contains("; 1 absent column(s),"), "{stdout}");
}
