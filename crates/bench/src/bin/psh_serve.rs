//! `psh-serve` — build-or-load an oracle snapshot and replay a query
//! workload on the psh-exec pool.
//!
//! The serving half of Theorem 1.2's bargain: pay the parallel
//! preprocessing once, then answer distance queries cheaply. On the first
//! run with `--snapshot PATH` the oracle is built from the input graph
//! and saved; later runs load the snapshot (skipping preprocessing
//! entirely, even in a fresh process) and serve the workload in batches
//! through `query_batch`, reporting queries/sec and p50/p99 per-batch
//! latency.
//!
//! Usage:
//! ```text
//! psh-serve [--family random|power-law|rmat|grid|grid2d|path|torus] [--n N]
//!           [--weights U]            # log-uniform weights of ratio U
//!           [--graph PATH]           # text edge list instead of --family
//!           [--snapshot PATH]        # load if present, else build + save
//!           [--load-mode M]          # open the snapshot via mmap (default)
//!                                    # or read (portable aligned-read fallback)
//!           [--fresh-snapshot]       # ignore an existing snapshot: rebuild
//!                                    # and overwrite it (atomic tmp+rename)
//!           [--cleanup-snapshot]     # delete the snapshot file on exit
//!           [--max-seconds S]        # stop replaying batches after S secs
//!           [--workload PATH]        # 'q s t' lines; default: generated pairs
//!           [--workload-dist D]      # uniform (default) or zipf:<theta>
//!           [--queries Q] [--batch B] [--threads K] [--seed S]
//!           [--json PATH]
//! ```
//!
//! `--fresh-snapshot`/`--cleanup-snapshot` make the CI smoke self-
//! contained: the first run rebuilds and overwrites any stale snapshot
//! (no manual `rm` needed — saves go through a temp file and an atomic
//! rename), the last run cleans the file up; `--max-seconds` bounds the
//! replay so a smoke can never hang a pipeline.
//!
//! Exits non-zero on unusable input (unreadable graph/workload/snapshot,
//! out-of-range query ids, an unknown flag or a value that does not
//! parse) — never panics on malformed files.

use psh_bench::json::{has_flag, parse_flag};
use psh_bench::serving::{
    check_args, parse_max_seconds, parse_policy, parse_seed, parse_value, OracleArgs, ORACLE_FLAGS,
    ORACLE_SWITCHES,
};
use psh_bench::stats::percentile;
use psh_bench::table::{fmt_f, fmt_u, Table};
use psh_bench::workloads::{read_pairs, WorkloadDist};
use psh_bench::Report;
use psh_pram::Cost;
use std::io::BufReader;
use std::path::PathBuf;
use std::time::Instant;

const PROG: &str = "psh-serve";

fn die(msg: impl std::fmt::Display) -> ! {
    psh_bench::serving::die(PROG, msg)
}

/// The flags psh-serve reads that take a value, besides [`ORACLE_FLAGS`].
const FLAGS: &[&str] = &[
    "--seed",
    "--json",
    "--max-seconds",
    "--workload",
    "--workload-dist",
    "--queries",
    "--batch",
    "--threads",
];

fn main() {
    check_args(
        PROG,
        &[ORACLE_FLAGS, FLAGS].concat(),
        &[ORACLE_SWITCHES, &["--cleanup-snapshot"]].concat(),
    );
    // validate every value before the (potentially long) preprocessing
    let seed = parse_seed(PROG);
    let mut report = Report::from_args("psh-serve");
    let source = OracleArgs::parse(PROG);
    // Runtime guard for smoke/CI use: stop issuing batches once the cap
    // is reached (the in-flight batch finishes; preprocessing itself is
    // not interruptible and counts separately).
    let max_seconds = parse_max_seconds(PROG);
    let dist = match parse_flag("--workload-dist") {
        None => WorkloadDist::Uniform,
        Some(s) => WorkloadDist::parse(&s).unwrap_or_else(|e| die(e)),
    };
    let queries: usize = parse_value(PROG, "--queries", "a query count", |_| true).unwrap_or(1000);
    let batch: usize = parse_value(PROG, "--batch", "a batch size ≥ 1", |&b| b > 0).unwrap_or(256);
    let policy = parse_policy(PROG);

    let (oracle, meta, loaded, prep_s) = source.obtain(PROG, seed);
    let n = oracle.graph().n();
    let m = oracle.graph().m();
    if n == 0 {
        die("the graph has no vertices to query");
    }

    let pairs: Vec<(u32, u32)> = match parse_flag("--workload") {
        Some(path) => {
            let file = std::fs::File::open(&path)
                .unwrap_or_else(|e| die(format_args!("cannot open {path}: {e}")));
            read_pairs(BufReader::new(file), n)
                .unwrap_or_else(|e| die(format_args!("bad workload {path}: {e}")))
        }
        None => dist.pairs(n, queries, seed ^ 0xC0FFEE),
    };

    // --- replay -----------------------------------------------------------
    let mut latencies_ms: Vec<f64> = Vec::with_capacity(pairs.len().div_ceil(batch));
    let mut answered = 0usize;
    let mut reachable = 0usize;
    let mut truncated = false;
    let mut total_cost = Cost::ZERO;
    let replay_start = Instant::now();
    for chunk in pairs.chunks(batch) {
        if max_seconds.is_some_and(|cap| replay_start.elapsed().as_secs_f64() >= cap) {
            truncated = true;
            break;
        }
        let start = Instant::now();
        let (answers, cost) = oracle.query_batch(chunk, policy);
        latencies_ms.push(start.elapsed().as_secs_f64() * 1e3);
        answered += answers.len();
        reachable += answers.iter().filter(|a| a.distance.is_finite()).count();
        total_cost = total_cost.then(cost);
    }
    let replay_s = replay_start.elapsed().as_secs_f64();
    if truncated {
        println!(
            "--max-seconds {} reached: served {answered}/{} queries before stopping",
            max_seconds.unwrap_or_default(),
            pairs.len()
        );
    }
    let qps = answered as f64 / replay_s.max(1e-12);
    let p50 = percentile(&latencies_ms, 50.0);
    let p99 = percentile(&latencies_ms, 99.0);

    println!("\n# psh-serve — n={n} m={m} | {answered} queries in batches of {batch} | {policy}\n");
    let mut t = Table::new([
        "queries",
        "batches",
        "policy",
        "qps",
        "p50 (ms)",
        "p99 (ms)",
        "reachable",
    ]);
    t.row([
        fmt_u(answered as u64),
        fmt_u(latencies_ms.len() as u64),
        policy.to_string(),
        fmt_f(qps),
        fmt_f(p50),
        fmt_f(p99),
        fmt_u(reachable as u64),
    ]);
    t.print();
    println!(
        "\nquery cost: {total_cost} | preprocessing: {} ({}) {:.3}s | {}",
        if loaded {
            "loaded from snapshot"
        } else {
            "built fresh"
        },
        meta.seed,
        prep_s,
        meta.build_cost,
    );

    report
        .meta("n", n)
        .meta("m", m)
        .meta("queries", answered)
        .meta("batch", batch)
        .meta("policy", policy.to_string())
        .meta("workload_dist", dist.name())
        .meta("loaded_snapshot", loaded)
        .meta("truncated", truncated)
        .meta("seed", meta.seed.0)
        .meta("preprocess_s", prep_s)
        .meta("qps", qps)
        .meta("p50_ms", p50)
        .meta("p99_ms", p99);
    report.push_table("serve", &t);
    report.finish();

    if has_flag("--cleanup-snapshot") {
        if let Some(path) = parse_flag("--snapshot").map(PathBuf::from) {
            match std::fs::remove_file(&path) {
                Ok(()) => println!("snapshot {} removed (--cleanup-snapshot)", path.display()),
                Err(e) => die(format_args!("cannot remove {}: {e}", path.display())),
            }
        }
    }
}
