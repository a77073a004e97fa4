//! `perfbench` — the repository's end-to-end benchmark.
//!
//! ```text
//! perfbench --workload <build|serve_uniform>
//!           --seed <n> --seconds <s> --trace <0|1>
//!           [--toy] [--inject-wrong-answer] [--work-dir <dir>]
//! ```
//!
//! One run generates the workload's inputs from the seed, drives the real
//! library through its public API, checks every answer, and prints each
//! metric as a `metric <name> <value> <unit>` line, a `drift` line, and
//! last one JSON object: `{"correct", "attempted", "failed", "metrics"}`.
//! An untraced run (`--trace 0`) reports the end-to-end metrics; a traced
//! run (`--trace 1`) reports the per-layer ones. A wrong answer makes the
//! run incorrect and its exit code 1. See README.md for the workloads.

mod checks;
mod config;
mod drift;
mod inputs;
mod layers;
mod metrics;
mod phase;
mod run;
mod setup;
mod trace;

use config::Workload;
use psh_bench::json::JsonValue;
use std::path::PathBuf;
use std::process::ExitCode;

#[global_allocator]
static ALLOC: psh_bench::alloc::CountingAlloc = psh_bench::alloc::CountingAlloc;

const USAGE: &str = "usage: perfbench --workload <build|serve_uniform> --seed <n> \
--seconds <s> --trace <0|1> [--toy] [--inject-wrong-answer] [--work-dir <dir>]";

pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Tiny inputs (the smoke test).
    pub toy: bool,
    /// Corrupt one received answer before the checks: the gate must fail.
    pub inject_wrong_answer: bool,
    pub work_dir: PathBuf,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut toy = false;
    let mut inject_wrong_answer = false;
    let mut work_dir = PathBuf::from(".perfbench_work");
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{what} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value("--workload")?;
                workload = Some(Workload::parse(&v).ok_or(format!("unknown workload '{v}'"))?);
            }
            "--seed" => seed = Some(value("--seed")?.parse().map_err(|_| "bad --seed")?),
            "--seconds" => {
                let s: f64 = value("--seconds")?.parse().map_err(|_| "bad --seconds")?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--toy" => toy = true,
            "--inject-wrong-answer" => inject_wrong_answer = true,
            "--work-dir" => work_dir = PathBuf::from(value("--work-dir")?),
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        toy,
        inject_wrong_answer,
        work_dir,
    })
}

fn main() -> ExitCode {
    // Paths that read the environment (`rebuild_oracle`, the service's
    // default policy) must see the same two threads as the explicit
    // policies; set before any thread exists.
    std::env::set_var("PSH_THREADS", "2");
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let dir = args.work_dir.join(format!(
        "{}-{}-{}",
        args.workload.name(),
        args.seed,
        std::process::id()
    ));
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("perfbench: cannot create {}: {e}", dir.display());
        return ExitCode::from(1);
    }
    let result = run::run(&args, &dir);
    // snapshots and journals are scratch; only the span file outlives the run
    let _ = std::fs::remove_dir_all(&dir);
    let out = match result {
        Ok(out) => out,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload.name());
            return ExitCode::from(1);
        }
    };
    for (name, unit, value) in &out.e2e {
        println!("metric {name} {value} {unit}");
    }
    for (name, unit, value) in &out.notes {
        println!("note {name} {value} {unit}");
    }
    for (name, unit, value) in &out.layers {
        println!("layer {name} {value} {unit}");
    }
    println!(
        "drift calib_start_ms={} calib_end_ms={} steal_ticks={}",
        out.drift.0.calib_ms,
        out.drift.1.calib_ms,
        out.drift.1.steal.saturating_sub(out.drift.0.steal)
    );
    if let Some(why) = &out.incorrect {
        eprintln!("perfbench: INCORRECT: {why}");
    }
    let shown = if args.trace { &out.layers } else { &out.e2e };
    let metrics = shown
        .iter()
        .map(|(name, unit, value)| {
            (
                name.to_string(),
                JsonValue::Object(vec![
                    ("value".into(), JsonValue::F64(*value)),
                    ("unit".into(), JsonValue::Str(unit.to_string())),
                ]),
            )
        })
        .collect();
    let line = JsonValue::Object(vec![
        ("correct".into(), JsonValue::Bool(out.incorrect.is_none())),
        ("attempted".into(), JsonValue::U64(out.attempted)),
        ("failed".into(), JsonValue::U64(out.failed)),
        ("metrics".into(), JsonValue::Object(metrics)),
    ]);
    println!("{}", line.to_json());
    if out.incorrect.is_some() {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}
