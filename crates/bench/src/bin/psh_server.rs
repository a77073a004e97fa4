//! `psh-server` — serve an oracle over TCP.
//!
//! The long-running half of the wire tier: build or load an oracle
//! snapshot (same `--family`/`--graph`/`--snapshot` vocabulary as
//! `psh-serve`), bind a listener, and answer `psh-client` (or any
//! `psh_net::NetClient`) until asked to stop. Sockets share the
//! `OracleService` admission queue like in-process threads do: up to
//! `--threads` of them (default `$PSH_THREADS`, else the host's cores)
//! are served side by side, and queries arriving on different sockets
//! coalesce into shared `query_batch` calls only when the callers
//! outnumber that cap.
//!
//! Usage:
//! ```text
//! psh-server [--family F] [--n N] [--weights U] [--graph PATH]
//!            [--snapshot PATH] [--fresh-snapshot]
//!            [--watch-journal]       # hot-swap on journal growth
//!                                    # (requires --snapshot; see below)
//!            [--addr HOST:PORT]      # default $PSH_ADDR, else 127.0.0.1:7471
//!                                    # (use :0 for an ephemeral port)
//!            [--port-file PATH]      # write the bound addr for scripts
//!            [--max-conns C] [--max-conn-requests Q] [--max-requests Q]
//!            [--timeout-secs S]      # per-socket read/write timeout
//!            [--threads K] [--seed S]
//!            [--cache SLOTS]         # bounded answer cache (off by default)
//!            [--max-seconds S]       # hard deadline, then shut down
//!            [--json PATH]
//! ```
//!
//! With `--watch-journal` the server watches `<snapshot>.journal` (see
//! `psh-snap journal`): the main loop polls it every 25 ms, and clients
//! may force an immediate poll with `psh-client --reload`. New records
//! are applied to the served graph, the oracle is rebuilt in the
//! background, and the service hot-swaps it at a batch boundary — the
//! old epoch keeps answering until the instant the new one takes over
//! (zero downtime, no torn batches). A corrupt or mismatched journal is
//! logged and the previous epoch keeps serving.
//!
//! The server stops when any of these fires, then drains and exits 0:
//! a client sends the shutdown op (`psh-client --shutdown`), stdin
//! reaches EOF (close the pipe that feeds it — the no-signal-crate
//! stand-in for SIGTERM), or `--max-seconds` elapses. On exit it prints
//! connection- and query-level statistics (the same `ServiceStats`
//! vocabulary as `psh-serve`).

use psh_bench::json::{has_flag, parse_flag};
use psh_bench::serving::{
    check_args, parse_max_seconds, parse_policy, parse_seed, parse_value, OracleArgs, ORACLE_FLAGS,
    ORACLE_SWITCHES,
};
use psh_bench::table::{fmt_f, fmt_u, Table};
use psh_bench::Report;
use psh_core::service::{CacheConfig, OracleService, ServiceConfig, MAX_BATCH};
use psh_core::snapshot::{owned_base_graph, JournalReloader};
use psh_net::server::env_addr;
use psh_net::{NetServer, ServerConfig};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

const PROG: &str = "psh-server";

fn die(msg: impl std::fmt::Display) -> ! {
    psh_bench::serving::die(PROG, msg)
}

/// The flags psh-server reads that take a value, besides [`ORACLE_FLAGS`].
const FLAGS: &[&str] = &[
    "--seed",
    "--json",
    "--addr",
    "--port-file",
    "--max-seconds",
    "--threads",
    "--cache",
    "--max-conns",
    "--max-conn-requests",
    "--max-requests",
    "--timeout-secs",
];

fn parse_u64_flag(name: &str, default: u64) -> u64 {
    parse_value(PROG, name, "a count", |_| true).unwrap_or(default)
}

fn main() {
    check_args(
        PROG,
        &[ORACLE_FLAGS, FLAGS].concat(),
        &[ORACLE_SWITCHES, &["--watch-journal"]].concat(),
    );
    let seed = parse_seed(PROG);
    let mut report = Report::from_args(PROG);

    // validate every knob before the (potentially long) preprocessing
    let source = OracleArgs::parse(PROG);
    let addr = parse_flag("--addr").unwrap_or_else(env_addr);
    let max_seconds = parse_max_seconds(PROG);
    let policy = parse_policy(PROG);
    let cache = parse_value(PROG, "--cache", "a positive slot count", |&c: &usize| c > 0)
        .map(|capacity| CacheConfig { capacity, seed });
    let config = ServerConfig {
        max_conns: parse_u64_flag("--max-conns", 64) as usize,
        max_conn_requests: parse_u64_flag("--max-conn-requests", u64::MAX),
        max_total_requests: parse_u64_flag("--max-requests", u64::MAX),
        read_timeout: Some(Duration::from_secs(parse_u64_flag("--timeout-secs", 30))),
        write_timeout: Some(Duration::from_secs(parse_u64_flag("--timeout-secs", 30))),
        seed,
    };

    let watch_journal = has_flag("--watch-journal");
    let snapshot_path = parse_flag("--snapshot");
    if watch_journal && snapshot_path.is_none() {
        die("--watch-journal needs --snapshot PATH (the journal lives at <snapshot>.journal)");
    }

    let (oracle, meta, loaded, prep_s) = source.obtain(PROG, seed);
    let n = oracle.graph().n();
    let m = oracle.graph().m();
    if n == 0 {
        die("the graph has no vertices to serve");
    }

    // The reloader wants an owned copy of the served graph (hot-swap
    // rebuilds mutate it); take it before the oracle moves into the
    // service.
    let reloader = watch_journal.then(|| {
        let base = snapshot_path.as_deref().expect("checked above");
        Arc::new(Mutex::new(JournalReloader::new(
            base,
            owned_base_graph(&oracle),
            meta,
        )))
    });

    let service = Arc::new(OracleService::new(oracle, ServiceConfig { policy, cache }));
    let mut server = NetServer::bind(&addr, Arc::clone(&service), config)
        .unwrap_or_else(|e| die(format_args!("cannot bind {addr}: {e}")));
    if let Some(rl) = &reloader {
        // wire `psh-client --reload`: the hook shares the one reloader
        // (and its cursor) with the 25 ms poll below
        let rl = Arc::clone(rl);
        let svc = Arc::clone(&service);
        server.set_reload_hook(Box::new(move || {
            lock_reloader(&rl).poll(&svc).map_err(|e| e.to_string())
        }));
    }
    let bound = server.local_addr();
    println!("serving n={n} m={m} on {bound} | {policy} | batches of ≤{MAX_BATCH}");

    if let Some(path) = parse_flag("--port-file") {
        std::fs::write(&path, format!("{bound}\n"))
            .unwrap_or_else(|e| die(format_args!("cannot write {path}: {e}")));
    }

    // Shutdown triggers. There is no signal crate in this workspace, so
    // SIGTERM cannot be caught directly; instead the watcher thread
    // treats stdin EOF as the stop request (supervisors close the pipe),
    // alongside the wire-side shutdown op and the --max-seconds cap.
    let stdin_closed = Arc::new(AtomicBool::new(false));
    {
        let stdin_closed = Arc::clone(&stdin_closed);
        std::thread::Builder::new()
            .name("psh-server-stdin".into())
            .spawn(move || {
                let _ = std::io::copy(&mut std::io::stdin().lock(), &mut std::io::sink());
                stdin_closed.store(true, Ordering::SeqCst);
            })
            .expect("spawn stdin watcher");
    }

    let start = Instant::now();
    let mut swaps: u64 = 0;
    // a refused journal record fails every poll until the journal
    // changes; log each refusal once
    let mut refused: Option<String> = None;
    let why = loop {
        if server.stopping() {
            break "wire shutdown request";
        }
        if stdin_closed.load(Ordering::SeqCst) {
            break "stdin closed";
        }
        if max_seconds.is_some_and(|cap| start.elapsed().as_secs_f64() >= cap) {
            break "--max-seconds elapsed";
        }
        if let Some(rl) = &reloader {
            match lock_reloader(rl).poll(&service) {
                Ok(Some(r)) => {
                    swaps += 1;
                    refused = None;
                    println!(
                        "hot-swap: epoch {} now serving (applied {} journal records, {} ops; n={} m={})",
                        r.epoch, r.records, r.ops, r.n, r.m
                    );
                }
                Ok(None) => refused = None,
                Err(e) => {
                    let e = e.to_string();
                    if refused.as_ref() != Some(&e) {
                        eprintln!(
                            "{PROG}: journal reload failed: {e} (still serving the previous epoch)"
                        );
                        refused = Some(e);
                    }
                }
            }
        }
        std::thread::sleep(Duration::from_millis(25));
    };
    println!("shutting down ({why})");
    let server_stats = server.shutdown();
    let stats = service.stats();

    println!("\n# psh-server — n={n} m={m} | served from {bound} | {policy}\n");
    let mut t = Table::new([
        "conns", "rejected", "queries", "batches", "largest", "qps", "p50 (ms)", "p99 (ms)",
    ]);
    t.row([
        fmt_u(server_stats.conns_accepted),
        fmt_u(server_stats.conns_rejected),
        fmt_u(stats.served),
        fmt_u(stats.batches),
        fmt_u(stats.largest_batch as u64),
        fmt_f(stats.qps),
        fmt_f(stats.p50_ms),
        fmt_f(stats.p99_ms),
    ]);
    t.print();
    println!(
        "\nframes in/out: {}/{} | query cost: {} | preprocessing: {} ({}) {:.3}s",
        server_stats.frames_in,
        server_stats.frames_out,
        stats.total_cost,
        if loaded {
            "loaded from snapshot"
        } else {
            "built fresh"
        },
        meta.seed,
        prep_s,
    );

    report
        .meta("n", n)
        .meta("m", m)
        .meta("addr", bound.to_string())
        .meta("stop_reason", why)
        .meta("policy", policy.to_string())
        .meta("loaded_snapshot", loaded)
        .meta("seed", meta.seed.0)
        .meta("preprocess_s", prep_s)
        .meta("conns_accepted", server_stats.conns_accepted)
        .meta("conns_rejected", server_stats.conns_rejected)
        .meta("conns_timed_out", server_stats.conns_timed_out)
        .meta("epoch", service.epoch())
        .meta("hot_swaps", swaps)
        .meta("queries_served", server_stats.queries_served)
        .meta("queries_rejected", server_stats.queries_rejected)
        .meta("frames_in", server_stats.frames_in)
        .meta("frames_out", server_stats.frames_out)
        .meta("qps", stats.qps)
        .meta("p50_ms", stats.p50_ms)
        .meta("p99_ms", stats.p99_ms);
    report.push_table("server", &t);
    report.finish();
}

/// The shared reloader, also after a poll panicked while holding it (the
/// wire server catches a panicking reload hook). `JournalReloader::poll`
/// changes its state only after a completed swap, so the state a panic
/// leaves behind is the last consistent one and the next poll retries.
fn lock_reloader(rl: &Mutex<JournalReloader>) -> std::sync::MutexGuard<'_, JournalReloader> {
    rl.lock().unwrap_or_else(PoisonError::into_inner)
}
