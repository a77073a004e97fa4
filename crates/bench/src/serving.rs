//! Shared build-or-load plumbing for the serving binaries.
//!
//! `psh-serve` (in-process replay), `psh-server` (TCP tier), and
//! `psh-client --verify-local` all turn the same argv vocabulary
//! (`--graph`/`--family`/`--n`/`--weights`, `--snapshot`,
//! `--fresh-snapshot`) into an oracle. Keeping the logic here makes the
//! semantics identical across binaries — a snapshot written by one run
//! is served byte-for-byte by the next, whichever binary opens it.

use crate::json::{has_flag, parse_flag};
use crate::workloads::Family;
use psh_core::api::{OracleBuilder, Seed};
use psh_core::oracle::ApproxShortestPaths;
use psh_core::snapshot::{load_oracle_v2, save_oracle_v2, OracleMeta};
use psh_core::HopsetParams;
use psh_graph::{CsrGraph, LoadMode};
use std::io::BufReader;
use std::path::PathBuf;
use std::time::Instant;

/// Exit with a `prog: msg` line on stderr — the serving binaries' shared
/// failure path. Unusable input (unreadable graph/workload/snapshot,
/// malformed flags) must exit non-zero, never panic.
pub fn die(prog: &str, msg: impl std::fmt::Display) -> ! {
    eprintln!("{prog}: {msg}");
    std::process::exit(1);
}

/// The input graph from argv: `--graph PATH` (text edge list), or a
/// generated `--family` at `--n` vertices (default `grid` at 2500),
/// optionally `--weights U` log-uniform-weighted, seeded by `seed`.
pub fn load_graph(prog: &str, seed: u64) -> CsrGraph {
    if let Some(path) = parse_flag("--graph") {
        let file = std::fs::File::open(&path)
            .unwrap_or_else(|e| die(prog, format_args!("cannot open {path}: {e}")));
        return psh_graph::io::read_graph(BufReader::new(file))
            .unwrap_or_else(|e| die(prog, format_args!("bad graph file {path}: {e}")));
    }
    let n: usize = parse_flag("--n")
        .and_then(|s| s.parse().ok())
        .unwrap_or(2500);
    let family = parse_flag("--family").unwrap_or_else(|| "grid".into());
    let family = Family::ALL
        .into_iter()
        .find(|f| f.name() == family)
        .unwrap_or_else(|| die(prog, format_args!("unknown family '{family}'")));
    match parse_flag("--weights").and_then(|s| s.parse::<f64>().ok()) {
        Some(u) => family.instantiate_weighted(n, u, seed),
        None => family.instantiate(n, seed),
    }
}

/// Build or load the oracle; returns it with its meta, whether the
/// snapshot path was used for loading, and the preprocessing/load
/// seconds. The input graph is only parsed or generated when the oracle
/// must actually be built — serving from an existing snapshot touches
/// nothing but the snapshot file. `--fresh-snapshot` skips the load
/// path: the oracle is rebuilt and the save atomically overwrites
/// whatever file is already there.
pub fn obtain_oracle(prog: &str, seed: u64) -> (ApproxShortestPaths, OracleMeta, bool, f64) {
    let snapshot: Option<PathBuf> = parse_flag("--snapshot").map(PathBuf::from);
    let fresh_requested = has_flag("--fresh-snapshot");
    if let Some(path) = snapshot.as_ref().filter(|p| !fresh_requested && p.exists()) {
        let start = Instant::now();
        let (oracle, meta) = load_oracle_v2(path, parse_load_mode(prog))
            .unwrap_or_else(|e| die(prog, format_args!("cannot load {}: {e}", path.display())));
        let secs = start.elapsed().as_secs_f64();
        println!(
            "loaded snapshot {} ({} vertices, hopset size {}, served in place) in {:.3}s",
            path.display(),
            oracle.graph().n(),
            oracle.hopset_size(),
            secs
        );
        return (oracle, meta, true, secs);
    }
    let g = load_graph(prog, seed);
    let params = HopsetParams::default();
    let start = Instant::now();
    let run = OracleBuilder::new()
        .params(params)
        .seed(Seed(seed))
        .build(&g)
        .unwrap_or_else(|e| die(prog, format_args!("preprocessing failed: {e}")));
    let secs = start.elapsed().as_secs_f64();
    let meta = OracleMeta::of_run(&run, params);
    println!(
        "preprocessed n={} m={} (hopset size {}, {}) in {:.3}s",
        g.n(),
        g.m(),
        run.artifact.hopset_size(),
        run.cost,
        secs
    );
    if let Some(path) = snapshot {
        save_oracle_v2(&path, &run.artifact, &meta)
            .unwrap_or_else(|e| die(prog, format_args!("cannot save {}: {e}", path.display())));
        println!("snapshot saved to {} (v2)", path.display());
    }
    // Preprocessing is over: release the build-time split scratch this
    // thread's arena pool retained, so the long-lived serving process
    // doesn't carry O(n + m) recursion buffers into its steady state.
    psh_graph::view::drain_arena_pool();
    (run.artifact, meta, false, secs)
}

/// Parse `--load-mode {mmap,read}` — how a snapshot is opened. Default
/// `mmap`.
pub fn parse_load_mode(prog: &str) -> LoadMode {
    match parse_flag("--load-mode") {
        None => LoadMode::Mmap,
        Some(s) => match s.trim() {
            "mmap" => LoadMode::Mmap,
            "read" => LoadMode::Read,
            _ => die(
                prog,
                format_args!("bad --load-mode '{s}' (want mmap or read)"),
            ),
        },
    }
}

/// Parse `--threads K` into an execution policy, strictly: a typo must
/// not silently fall back to the env policy. Absent flag → env policy.
pub fn parse_policy(prog: &str) -> psh_exec::ExecutionPolicy {
    use psh_exec::ExecutionPolicy;
    match parse_flag("--threads") {
        None => ExecutionPolicy::from_env(),
        Some(s) => match s.trim().parse::<usize>() {
            Ok(0 | 1) => ExecutionPolicy::Sequential,
            Ok(k) => ExecutionPolicy::Parallel { threads: k },
            Err(_) => die(
                prog,
                format_args!("bad --threads '{s}' (want a single thread count, e.g. 4)"),
            ),
        },
    }
}

/// Parse `--max-seconds S` (a runtime guard for smoke/CI use), strictly
/// and fail-fast so a typo dies before any long preprocessing.
pub fn parse_max_seconds(prog: &str) -> Option<f64> {
    match parse_flag("--max-seconds") {
        None => None,
        Some(s) => match s.trim().parse::<f64>() {
            Ok(v) if v > 0.0 => Some(v),
            _ => die(
                prog,
                format_args!("bad --max-seconds '{s}' (want seconds > 0)"),
            ),
        },
    }
}
