//! `bench-compare` driven as a binary on two small report files.

use std::path::PathBuf;
use std::process::Command;

/// Write a one-table report with `rows` under a per-process name.
fn report(name: &str, rows: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("bench-compare-{}-{name}", std::process::id()));
    let doc = format!(r#"{{"meta":{{"schema_version":1}},"tables":{{"serve":[{rows}]}}}}"#);
    std::fs::write(&path, doc).unwrap();
    path
}

#[test]
fn a_metric_column_the_fresh_row_lacks_is_reported_not_gated() {
    let base = report(
        "base.json",
        r#"{"policy":"seq","qps":"900.5","p50 (ms)":"40.0"}"#,
    );
    let fresh = report("fresh.json", r#"{"policy":"seq","p50 (ms)":"41.0"}"#);
    let out = Command::new(env!("CARGO_BIN_EXE_bench-compare"))
        .arg(&base)
        .arg(&fresh)
        .output()
        .unwrap();
    std::fs::remove_file(&base).unwrap();
    std::fs::remove_file(&fresh).unwrap();
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        out.status.success(),
        "non-fatal, like a missing row\n{stdout}"
    );
    let line = format!(
        "~ serve [policy=seq|] qps: absent from {}: not gated",
        fresh.display()
    );
    assert!(stdout.contains(&line), "{stdout}");
    assert!(stdout.contains("compared 1 metric cell(s)"), "{stdout}");
    assert!(stdout.contains("; 1 absent column(s),"), "{stdout}");
}
