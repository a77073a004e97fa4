//! Shared argv and build-or-load plumbing for the serving binaries.
//!
//! `psh-serve` (in-process replay), `psh-server` (TCP tier), and
//! `psh-client --verify-local` all turn the same argv vocabulary
//! (`--graph`/`--family`/`--n`/`--weights`, `--snapshot`,
//! `--load-mode`, `--fresh-snapshot`) into an oracle. Keeping the logic
//! here makes the semantics identical across binaries — a snapshot
//! written by one run is served byte-for-byte by the next, whichever
//! binary opens it.
//!
//! Each binary refuses what it does not read: [`check_args`] rejects an
//! unknown flag, and [`parse_value`] a value that does not parse, both
//! with exit 1 naming the flag, so a misspelt or malformed flag can never
//! fall back to a default. Every other binary of this crate refuses the
//! same way: `benchsuite`, `bench-compare` (through
//! [`check_args_with_paths`]) and the experiment binaries (through
//! [`crate::json::Report::from_json_flag`]).

use crate::json::{has_flag, parse_flag};
use crate::workloads::Family;
use psh_core::api::{OracleBuilder, Seed};
use psh_core::oracle::ApproxShortestPaths;
use psh_core::snapshot::{load_oracle_v2, save_oracle_v2, OracleMeta};
use psh_core::HopsetParams;
use psh_graph::{CsrGraph, LoadMode};
use std::io::BufReader;
use std::path::PathBuf;
use std::str::FromStr;
use std::time::Instant;

/// The flags [`OracleArgs::parse`] reads that take a value.
pub const ORACLE_FLAGS: &[&str] = &[
    "--graph",
    "--family",
    "--n",
    "--weights",
    "--snapshot",
    "--load-mode",
];

/// The bare flags [`OracleArgs::parse`] reads.
pub const ORACLE_SWITCHES: &[&str] = &["--fresh-snapshot"];

/// Exit with a `prog: msg` line on stderr — the serving binaries' shared
/// failure path. Unusable input (unreadable graph/workload/snapshot,
/// malformed or unknown flags) must exit non-zero, never panic.
pub fn die(prog: &str, msg: impl std::fmt::Display) -> ! {
    eprintln!("{prog}: {msg}");
    std::process::exit(1);
}

/// Refuse every process argument outside a binary's vocabulary: `valued`
/// flags take a value (`--name VALUE` or `--name=VALUE`), `bare` flags
/// stand alone. An unknown flag, a stray argument, a valued flag without
/// its value or a bare flag given one exits 1 naming it. Call it first
/// in `main`, before any work.
pub fn check_args(prog: &str, valued: &[&str], bare: &[&str]) {
    check_args_with_paths(prog, 0, valued, bare);
}

/// [`check_args`] for a binary that also takes up to `paths` positional
/// arguments, returned in order; one more is a stray argument.
pub fn check_args_with_paths(
    prog: &str,
    paths: usize,
    valued: &[&str],
    bare: &[&str],
) -> Vec<String> {
    positional_args(std::env::args().skip(1), paths, valued, bare)
        .unwrap_or_else(|msg| die(prog, msg))
}

/// The positional arguments [`check_args_with_paths`] accepts, or the
/// first argument it refuses, as its message.
fn positional_args(
    args: impl IntoIterator<Item = String>,
    paths: usize,
    valued: &[&str],
    bare: &[&str],
) -> Result<Vec<String>, String> {
    let mut positional = Vec::new();
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        let (name, inline_value) = match arg.split_once('=') {
            Some((name, _)) => (name, true),
            None => (arg.as_str(), false),
        };
        if valued.contains(&name) {
            if !inline_value && args.next().is_none() {
                return Err(format!("{name} needs a value"));
            }
        } else if bare.contains(&name) {
            if inline_value {
                return Err(format!("{name} takes no value"));
            }
        } else if name.starts_with("--") {
            return Err(format!("unknown flag '{name}'"));
        } else if positional.len() < paths {
            positional.push(arg);
        } else {
            return Err(format!("unexpected argument '{arg}'"));
        }
    }
    Ok(positional)
}

/// `--name VALUE` parsed as `T`, strictly: a value that does not parse,
/// or that `ok` rejects, exits 1 with `bad NAME 'VALUE' (want WANT)`.
/// `None` when the flag is absent.
pub fn parse_value<T: FromStr>(
    prog: &str,
    name: &str,
    want: &str,
    ok: impl Fn(&T) -> bool,
) -> Option<T> {
    let s = parse_flag(name)?;
    match s.trim().parse::<T>() {
        Ok(v) if ok(&v) => Some(v),
        _ => die(prog, format_args!("bad {name} '{s}' (want {want})")),
    }
}

/// Parse `--seed S`; default 20150625.
pub fn parse_seed(prog: &str) -> u64 {
    parse_value(prog, "--seed", "an unsigned integer", |_| true).unwrap_or(20150625)
}

/// The input graph argv names: `--graph PATH` (text edge list), or a
/// generated `--family` at `--n` vertices (default `grid` at 2500),
/// optionally `--weights U` log-uniform-weighted. Parsing checks every
/// value; nothing is read or generated until [`GraphArgs::load`].
#[derive(Debug)]
pub struct GraphArgs {
    path: Option<String>,
    family: Family,
    n: usize,
    weights: Option<f64>,
}

impl GraphArgs {
    /// Parse the graph flags strictly; a bad value exits 1 naming it.
    pub fn parse(prog: &str) -> GraphArgs {
        let family = parse_flag("--family").unwrap_or_else(|| "grid".into());
        GraphArgs {
            path: parse_flag("--graph"),
            family: Family::ALL
                .into_iter()
                .find(|f| f.name() == family)
                .unwrap_or_else(|| die(prog, format_args!("unknown family '{family}'"))),
            n: parse_value(prog, "--n", "a vertex count", |_| true).unwrap_or(2500),
            weights: parse_value(prog, "--weights", "a weight ratio ≥ 1", |u: &f64| {
                u.is_finite() && *u >= 1.0
            }),
        }
    }

    /// Read the `--graph` file, or generate the family graph from `seed`.
    pub fn load(&self, prog: &str, seed: u64) -> CsrGraph {
        if let Some(path) = &self.path {
            let file = std::fs::File::open(path)
                .unwrap_or_else(|e| die(prog, format_args!("cannot open {path}: {e}")));
            return psh_graph::io::read_graph(BufReader::new(file))
                .unwrap_or_else(|e| die(prog, format_args!("bad graph file {path}: {e}")));
        }
        match self.weights {
            Some(u) => self.family.instantiate_weighted(self.n, u, seed),
            None => self.family.instantiate(self.n, seed),
        }
    }
}

/// Where the served oracle comes from: the graph flags plus `--snapshot
/// PATH`, `--load-mode` and `--fresh-snapshot`, checked at parse time.
#[derive(Debug)]
pub struct OracleArgs {
    /// The graph to build from when no snapshot is loaded.
    pub graph: GraphArgs,
    snapshot: Option<PathBuf>,
    fresh: bool,
    load_mode: LoadMode,
}

impl OracleArgs {
    /// Parse the oracle flags strictly; a bad value exits 1 naming it.
    pub fn parse(prog: &str) -> OracleArgs {
        OracleArgs {
            graph: GraphArgs::parse(prog),
            snapshot: parse_flag("--snapshot").map(PathBuf::from),
            fresh: has_flag("--fresh-snapshot"),
            load_mode: parse_load_mode(prog),
        }
    }

    /// Build or load the oracle; returns it with its meta, whether the
    /// snapshot path was used for loading, and the preprocessing/load
    /// seconds. The input graph is only read or generated when the
    /// oracle must actually be built — serving from an existing snapshot
    /// touches nothing but the snapshot file. `--fresh-snapshot` skips
    /// the load path: the oracle is rebuilt and the save atomically
    /// overwrites whatever file is already there.
    pub fn obtain(&self, prog: &str, seed: u64) -> (ApproxShortestPaths, OracleMeta, bool, f64) {
        if let Some(path) = self.snapshot.as_ref().filter(|p| !self.fresh && p.exists()) {
            let start = Instant::now();
            let (oracle, meta) = load_oracle_v2(path, self.load_mode)
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
        let g = self.graph.load(prog, seed);
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
        if let Some(path) = &self.snapshot {
            save_oracle_v2(path, &run.artifact, &meta)
                .unwrap_or_else(|e| die(prog, format_args!("cannot save {}: {e}", path.display())));
            println!("snapshot saved to {} (v2)", path.display());
        }
        // Preprocessing is over: release the build-time split scratch
        // this thread's arena pool retained, so the long-lived serving
        // process doesn't carry O(n + m) recursion buffers into its
        // steady state.
        psh_graph::view::drain_arena_pool();
        (run.artifact, meta, false, secs)
    }
}

/// Parse `--load-mode {mmap,read}` — how a snapshot is opened. Default
/// `mmap`.
fn parse_load_mode(prog: &str) -> LoadMode {
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
    match parse_value(prog, "--threads", "a single thread count, e.g. 4", |_| true) {
        None => ExecutionPolicy::from_env(),
        Some(0 | 1) => ExecutionPolicy::Sequential,
        Some(k) => ExecutionPolicy::Parallel { threads: k },
    }
}

/// Parse `--max-seconds S` (a runtime guard for smoke/CI use), strictly
/// and fail-fast so a typo dies before any long preprocessing.
pub fn parse_max_seconds(prog: &str) -> Option<f64> {
    parse_value(prog, "--max-seconds", "seconds > 0", |&v: &f64| v > 0.0)
}

#[cfg(test)]
mod tests {
    use super::positional_args;

    fn check_paths(paths: usize, args: &[&str]) -> Result<Vec<String>, String> {
        positional_args(
            args.iter().map(|a| a.to_string()),
            paths,
            &["--n", "--load-mode"],
            &["--fresh-snapshot"],
        )
    }

    fn check(args: &[&str]) -> Result<(), String> {
        check_paths(0, args).map(|paths| assert!(paths.is_empty()))
    }

    #[test]
    fn the_vocabulary_is_accepted_in_both_value_spellings() {
        assert_eq!(check(&[]), Ok(()));
        assert_eq!(
            check(&["--n", "64", "--load-mode=read", "--fresh-snapshot"]),
            Ok(())
        );
        // a valued flag takes the next argument whatever it looks like
        assert_eq!(check(&["--n", "--fresh-snapshot"]), Ok(()));
    }

    #[test]
    fn positional_arguments_are_counted() {
        assert_eq!(
            check_paths(2, &["A", "--n", "64", "B=1"]),
            Ok(vec!["A".to_string(), "B=1".to_string()])
        );
        assert_eq!(check_paths(2, &["A"]), Ok(vec!["A".to_string()]));
        assert_eq!(
            check_paths(2, &["A", "B", "C"]),
            Err("unexpected argument 'C'".to_string())
        );
        // a misspelt valued flag is refused, never taken for a path
        assert_eq!(
            check_paths(2, &["A", "B", "--nosie", "0.9"]),
            Err("unknown flag '--nosie'".to_string())
        );
    }

    #[test]
    fn everything_else_is_refused_by_name() {
        let refused = |args: &[&str], msg: &str| assert_eq!(check(args), Err(msg.to_string()));
        refused(&["--load-mod", "read"], "unknown flag '--load-mod'");
        refused(
            &["--n", "64", "--snapshot-version=1"],
            "unknown flag '--snapshot-version'",
        );
        refused(&["--n"], "--n needs a value");
        refused(&["--fresh-snapshot=yes"], "--fresh-snapshot takes no value");
        refused(&["--n", "64", "64"], "unexpected argument '64'");
        refused(&["-n", "64"], "unexpected argument '-n'");
    }
}
