//! Smoke test of the benchmark at toy sizes: every workload prints every
//! end-to-end metric of `BENCHMARK.json` with its unit, a traced run
//! prints every per-layer metric, and an injected wrong answer fails the
//! run.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use psh_bench::json::JsonValue;
use std::process::{Command, Output};

const WORKLOADS: [&str; 2] = ["build", "serve_uniform"];

fn benchmark_json() -> JsonValue {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
    JsonValue::parse(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every metric `BENCHMARK.json` lists under `key`.
fn declared(key: &str) -> Vec<(String, String)> {
    benchmark_json()
        .get(key)
        .and_then(JsonValue::as_array)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |f: &str| m.get(f).and_then(JsonValue::as_str).expect(f).to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn perfbench(workload: &str, trace: u8, extra: &[&str]) -> Output {
    let work = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("perfbench-smoke");
    Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "1"])
        .args(["--trace", &trace.to_string(), "--toy", "--work-dir"])
        .arg(&work)
        .args(extra)
        .output()
        .expect("run perfbench")
}

fn result_line(out: &Output) -> JsonValue {
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().expect("some output");
    JsonValue::parse(last).expect("last line is one JSON object")
}

fn check_metrics(workload: &str, trace: u8, key: &str) {
    let out = perfbench(workload, trace, &[]);
    assert!(
        out.status.success(),
        "{workload} trace {trace}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let result = result_line(&out);
    assert_eq!(result.get("correct"), Some(&JsonValue::Bool(true)));
    assert!(result.get("attempted").and_then(JsonValue::as_f64).unwrap() >= 1.0);
    assert_eq!(result.get("failed").and_then(JsonValue::as_f64), Some(0.0));
    let JsonValue::Object(metrics) = result.get("metrics").expect("metrics") else {
        panic!("metrics is not an object");
    };
    let got: Vec<(String, String)> = metrics
        .iter()
        .map(|(name, m)| {
            assert!(
                m.get("value").and_then(JsonValue::as_f64).is_some(),
                "{name}"
            );
            let unit = m.get("unit").and_then(JsonValue::as_str).expect("unit");
            (name.clone(), unit.to_string())
        })
        .collect();
    assert_eq!(got, declared(key), "{workload} trace {trace}");
}

#[test]
fn every_workload_emits_every_end_to_end_metric() {
    for w in WORKLOADS {
        check_metrics(w, 0, "end_to_end");
    }
}

#[test]
fn traced_runs_emit_every_per_layer_metric() {
    for w in WORKLOADS {
        check_metrics(w, 1, "per_layer");
    }
}

#[test]
fn a_wrong_answer_fails_the_run() {
    for w in WORKLOADS {
        let out = perfbench(w, 0, &["--inject-wrong-answer"]);
        assert_eq!(out.status.code(), Some(1), "{w} must exit 1");
        assert_eq!(
            result_line(&out).get("correct"),
            Some(&JsonValue::Bool(false)),
            "{w}"
        );
    }
}

#[test]
fn bad_arguments_are_refused() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .expect("run perfbench");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
}
