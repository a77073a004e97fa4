//! `psh-client` — query a `psh-server` over TCP.
//!
//! The command-line face of `psh_net::NetClient`. One binary covers the
//! whole client lifecycle: one-shot queries, workload replay (batch
//! round-trips or one streamed subscription), cross-checking the wire
//! against a locally built oracle, and asking the server for its stats
//! or a graceful shutdown.
//!
//! Usage (modes, first match wins):
//! ```text
//! psh-client --shutdown            # stop the server; print its final stats
//! psh-client --stats               # print the server's serving statistics
//! psh-client --info                # print the served graph's shape
//! psh-client --reload              # poll the server's journal; hot-swap
//!                                  # if it grew (needs --watch-journal
//!                                  # server-side)
//! psh-client --query S,T           # one s–t query
//! psh-client [replay flags]        # default: replay a workload
//! ```
//!
//! Replay flags:
//! ```text
//!   --workload PATH           # 'q s t' lines; default: generated pairs
//!   --queries Q               # generated workload size (default 1000)
//!   --workload-dist D         # uniform (default) or zipf:<theta>
//!   --batch B                 # pairs per round-trip / stream chunk (256)
//!   --clients K               # K concurrent sockets (default 1); the
//!                             # server serves up to its --threads of
//!                             # them side by side and coalesces the
//!                             # rest into shared batches
//!   --replay                  # stream one subscription instead of
//!                             # batch round-trips (single socket)
//!   --open-loop RATE          # issue single queries at a seeded
//!                             # Poisson arrival rate (queries/sec)
//!                             # instead of back-to-back batches;
//!                             # latency is measured from each query's
//!                             # *scheduled* arrival, so a stalled
//!                             # server inflates the tail instead of
//!                             # silently throttling the workload
//!                             # (no coordinated omission); takes
//!                             # precedence over --replay/--clients
//!   --max-seconds S           # stop issuing batches after S seconds
//!   --verify-local            # rebuild the same oracle in-process
//!                             # (--family/--n/--seed/--snapshot …)
//!                             # and require byte-identical answers
//!   --verify-stretch C        # recompute every answered pair exactly
//!                             # (Dijkstra on the locally derived graph)
//!                             # and require exact ≤ wire ≤ C·exact
//! ```
//!
//! Every mode honours `--addr HOST:PORT` (default `$PSH_ADDR`, else
//! `127.0.0.1:7471`), `--timeout-secs S`, `--seed S`, and `--json PATH`.
//! Replay reports qps and p50/p99 latency in the same `ServiceStats`
//! vocabulary the server uses, rebuilt client-side from per-round-trip
//! samples. Exits non-zero on any protocol or remote error — typed
//! `OP_ERROR` frames surface as messages, never panics — and, before
//! connecting, on an unknown flag or a value that does not parse.

use psh_bench::json::{has_flag, parse_flag};
use psh_bench::serving::{
    check_args, parse_max_seconds, parse_seed, parse_value, OracleArgs, ORACLE_FLAGS,
    ORACLE_SWITCHES,
};
use psh_bench::table::{fmt_f, fmt_u, Table};
use psh_bench::workloads::{read_pairs, WorkloadDist};
use psh_bench::Report;
use psh_core::oracle::QueryResult;
use psh_core::service::ServiceStats;
use psh_exec::ExecutionPolicy;
use psh_net::server::env_addr;
use psh_net::NetClient;
use psh_pram::Cost;
use std::io::BufReader;
use std::time::{Duration, Instant};

const PROG: &str = "psh-client";

fn die(msg: impl std::fmt::Display) -> ! {
    psh_bench::serving::die(PROG, msg)
}

/// The flags psh-client reads that take a value, besides [`ORACLE_FLAGS`].
const FLAGS: &[&str] = &[
    "--addr",
    "--timeout-secs",
    "--seed",
    "--json",
    "--query",
    "--workload",
    "--queries",
    "--workload-dist",
    "--batch",
    "--clients",
    "--open-loop",
    "--max-seconds",
    "--verify-stretch",
];

/// The bare flags psh-client reads, besides [`ORACLE_SWITCHES`].
const SWITCHES: &[&str] = &[
    "--shutdown",
    "--stats",
    "--info",
    "--reload",
    "--replay",
    "--verify-local",
];

fn connect(addr: &str, timeout: Duration) -> NetClient {
    let mut client = NetClient::connect(addr)
        .unwrap_or_else(|e| die(format_args!("cannot connect to {addr}: {e}")));
    client
        .set_timeouts(Some(timeout), Some(timeout))
        .unwrap_or_else(|e| die(e));
    client
}

fn print_wire_stats(label: &str, s: &psh_net::WireStats) {
    println!(
        "{label}: served {} in {} batches (largest {}) | {:.1} qps | p50 {:.3} ms | p99 {:.3} ms | work {} depth {}",
        s.served, s.batches, s.largest_batch, s.qps, s.p50_ms, s.p99_ms, s.work, s.depth
    );
}

fn main() {
    check_args(
        PROG,
        &[ORACLE_FLAGS, FLAGS].concat(),
        &[ORACLE_SWITCHES, SWITCHES].concat(),
    );
    let addr = parse_flag("--addr").unwrap_or_else(env_addr);
    let seed = parse_seed(PROG);
    let timeout = Duration::from_secs(
        parse_value(PROG, "--timeout-secs", "whole seconds", |_| true).unwrap_or(30),
    );
    let source = OracleArgs::parse(PROG);

    if has_flag("--shutdown") {
        let stats = connect(&addr, timeout)
            .shutdown_server()
            .unwrap_or_else(|e| die(format_args!("shutdown failed: {e}")));
        print_wire_stats("final server stats", &stats);
        return;
    }
    if has_flag("--stats") {
        let stats = connect(&addr, timeout)
            .server_stats()
            .unwrap_or_else(|e| die(format_args!("stats failed: {e}")));
        print_wire_stats("server stats", &stats);
        return;
    }
    if has_flag("--info") {
        let info = connect(&addr, timeout)
            .server_info()
            .unwrap_or_else(|e| die(format_args!("info failed: {e}")));
        println!(
            "serving n={} m={} | build seed {}",
            info.n, info.m, info.seed
        );
        return;
    }
    if has_flag("--reload") {
        let r = connect(&addr, timeout)
            .reload()
            .unwrap_or_else(|e| die(format_args!("reload failed: {e}")));
        if r.swapped {
            println!(
                "hot-swapped: epoch {} now serving (applied {} journal records, {} ops; n={} m={})",
                r.epoch, r.records, r.ops, r.n, r.m
            );
        } else {
            println!(
                "nothing to reload: epoch {} still serving (n={} m={})",
                r.epoch, r.n, r.m
            );
        }
        return;
    }
    if let Some(spec) = parse_flag("--query") {
        let (s, t) = spec
            .split_once(',')
            .and_then(|(a, b)| Some((a.trim().parse().ok()?, b.trim().parse().ok()?)))
            .unwrap_or_else(|| die(format_args!("bad --query '{spec}' (want S,T)")));
        let answer = connect(&addr, timeout)
            .query(s, t)
            .unwrap_or_else(|e| die(format_args!("query failed: {e}")));
        println!(
            "d({s}, {t}) ≈ {} ({})",
            answer.distance,
            if answer.upper_bound {
                "upper bound"
            } else {
                "estimate"
            }
        );
        return;
    }

    replay(&addr, seed, timeout, &source);
}

/// The default mode: replay a workload against the server and report
/// client-observed throughput/latency, optionally cross-checking every
/// answer against a locally built oracle.
fn replay(addr: &str, seed: u64, timeout: Duration, source: &OracleArgs) {
    let mut report = Report::from_args(PROG);
    let max_seconds = parse_max_seconds(PROG);
    let batch: usize = parse_value(PROG, "--batch", "a batch size ≥ 1", |&b| b > 0).unwrap_or(256);
    let clients: usize =
        parse_value(PROG, "--clients", "a client count ≥ 1", |&k| k > 0).unwrap_or(1);
    let queries: usize = parse_value(PROG, "--queries", "a query count", |_| true).unwrap_or(1000);
    let dist = match parse_flag("--workload-dist") {
        None => WorkloadDist::Uniform,
        Some(s) => WorkloadDist::parse(&s).unwrap_or_else(|e| die(e)),
    };
    let open_loop = parse_value(PROG, "--open-loop", "a rate > 0 in qps", |r: &f64| {
        r.is_finite() && *r > 0.0
    });
    let stretch = parse_value(PROG, "--verify-stretch", "a factor ≥ 1", |c: &f64| {
        c.is_finite() && *c >= 1.0
    });

    let mut probe = connect(addr, timeout);
    let info = probe
        .server_info()
        .unwrap_or_else(|e| die(format_args!("info failed: {e}")));
    let n = info.n as usize;
    if n == 0 {
        die("the server is serving an empty graph");
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

    // --- drive the wire ---------------------------------------------------
    let streaming = has_flag("--replay") && open_loop.is_none();
    let start = Instant::now();
    let mut answers: Vec<QueryResult> = Vec::with_capacity(pairs.len());
    let mut latencies_ms: Vec<f64> = Vec::new();
    let mut truncated = false;
    if let Some(rate) = open_loop {
        // Open-loop replay: arrivals follow a seeded Poisson process at
        // `rate` qps, independent of how fast the server answers. Each
        // latency sample runs from the query's scheduled arrival to its
        // answer — when the server falls behind, the queue time lands in
        // the tail instead of vanishing into a slower send rate.
        let mut client = probe;
        let mut x = (seed ^ 0x9E37_79B9_7F4A_7C15) | 1;
        let mut scheduled_s = 0.0f64;
        let mut behind = 0usize;
        for &(s, t) in &pairs {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let u = (x >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
            scheduled_s += -(1.0 - u).ln() / rate;
            if max_seconds.is_some_and(|cap| scheduled_s >= cap) {
                truncated = true;
                break;
            }
            let now_s = start.elapsed().as_secs_f64();
            if now_s < scheduled_s {
                std::thread::sleep(Duration::from_secs_f64(scheduled_s - now_s));
            } else {
                behind += 1;
            }
            let answer = client
                .query(s, t)
                .unwrap_or_else(|e| die(format_args!("open-loop query failed: {e}")));
            latencies_ms.push((start.elapsed().as_secs_f64() - scheduled_s) * 1e3);
            answers.push(answer);
        }
        println!(
            "open-loop: offered {rate} qps | {} arrivals, {behind} behind schedule",
            answers.len()
        );
    } else if streaming {
        // one subscription: the server batches and streams; latency
        // samples are client-observed chunk inter-arrival times
        let mut last = Instant::now();
        let (collected, summary) = probe
            .subscribe(&pairs, batch as u32, |_, part| {
                latencies_ms.push(last.elapsed().as_secs_f64() * 1e3);
                last = Instant::now();
                answers.extend_from_slice(part);
            })
            .map(|summary| (std::mem::take(&mut answers), summary))
            .unwrap_or_else(|e| die(format_args!("streaming replay failed: {e}")));
        answers = collected;
        println!(
            "streamed {} answers in {} server-side batches ({:.3}s server wall)",
            summary.served, summary.batches, summary.elapsed_s
        );
    } else if clients == 1 {
        let mut client = probe;
        for chunk in pairs.chunks(batch) {
            if max_seconds.is_some_and(|cap| start.elapsed().as_secs_f64() >= cap) {
                truncated = true;
                break;
            }
            let t0 = Instant::now();
            let part = client
                .query_batch(chunk)
                .unwrap_or_else(|e| die(format_args!("batch failed: {e}")));
            latencies_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            answers.extend(part);
        }
    } else {
        // K sockets replay contiguous shards concurrently; the server's
        // admission queue overlaps and coalesces across them. Results
        // rejoin in pair order so --verify-local still checks the whole
        // workload.
        drop(probe);
        let shard = pairs.len().div_ceil(clients);
        let results: Vec<(usize, Vec<QueryResult>, Vec<f64>, bool)> = std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for (w, slice) in pairs.chunks(shard.max(1)).enumerate() {
                let addr = &*addr;
                handles.push(scope.spawn(move || {
                    let mut client = connect(addr, timeout);
                    let mut got = Vec::with_capacity(slice.len());
                    let mut lats = Vec::new();
                    let mut cut = false;
                    for chunk in slice.chunks(batch) {
                        if max_seconds.is_some_and(|cap| start.elapsed().as_secs_f64() >= cap) {
                            cut = true;
                            break;
                        }
                        let t0 = Instant::now();
                        let part = client
                            .query_batch(chunk)
                            .unwrap_or_else(|e| die(format_args!("client {w}: batch failed: {e}")));
                        lats.push(t0.elapsed().as_secs_f64() * 1e3);
                        got.extend(part);
                    }
                    (w, got, lats, cut)
                }));
            }
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let mut ordered = results;
        ordered.sort_by_key(|(w, ..)| *w);
        for (_, got, lats, cut) in ordered {
            // a truncated shard ends the in-order prefix we can verify
            if cut {
                truncated = true;
            }
            if !truncated {
                answers.extend(got);
            }
            latencies_ms.extend(lats);
        }
    }
    let elapsed_s = start.elapsed().as_secs_f64();
    if truncated {
        println!(
            "--max-seconds {} reached: {}/{} answers collected before stopping",
            max_seconds.unwrap_or_default(),
            answers.len(),
            pairs.len()
        );
    }

    // --- report in the ServiceStats vocabulary ----------------------------
    let batches = latencies_ms.len() as u64;
    let eff_batch = if open_loop.is_some() { 1 } else { batch };
    let stats =
        ServiceStats::from_samples(&latencies_ms, elapsed_s, batches, eff_batch, Cost::ZERO);
    let reachable = answers.iter().filter(|a| a.distance.is_finite()).count();
    let qps = answers.len() as f64 / elapsed_s.max(1e-12);

    println!(
        "\n# psh-client — {} answers from {addr} | {} | batches of {eff_batch} × {clients} client(s)\n",
        answers.len(),
        if open_loop.is_some() {
            "open-loop"
        } else if streaming {
            "streamed"
        } else {
            "round-trips"
        },
    );
    let mut t = Table::new([
        "queries",
        "batches",
        "dist",
        "qps",
        "p50 (ms)",
        "p99 (ms)",
        "reachable",
    ]);
    t.row([
        fmt_u(answers.len() as u64),
        fmt_u(batches),
        dist.name(),
        fmt_f(qps),
        fmt_f(stats.p50_ms),
        fmt_f(stats.p99_ms),
        fmt_u(reachable as u64),
    ]);
    t.print();

    // --- the byte-identity contract, checkable from the CLI ---------------
    if has_flag("--verify-local") {
        let (oracle, ..) = source.obtain(PROG, seed);
        let local_n = oracle.graph().n();
        if local_n != n {
            die(format_args!(
                "local oracle has n={local_n} but the server serves n={n} — pass the same \
                 --family/--n/--seed/--snapshot flags the server got"
            ));
        }
        let (reference, _) =
            oracle.query_batch(&pairs[..answers.len()], ExecutionPolicy::Sequential);
        for (i, (wire, local)) in answers.iter().zip(&reference).enumerate() {
            if wire.distance.to_bits() != local.distance.to_bits()
                || wire.upper_bound != local.upper_bound
            {
                let (s, t) = pairs[i];
                die(format_args!(
                    "wire answer diverges from the local oracle at pair {i} ({s}, {t}): \
                     wire {} vs local {}",
                    wire.distance, local.distance
                ));
            }
        }
        println!(
            "verify-local: all {} answers byte-identical to the in-process oracle",
            answers.len()
        );
    }

    // --- the stretch bound, checked against exact distances ---------------
    if let Some(c) = stretch {
        let g = source.graph.load(PROG, seed);
        if g.n() != n {
            die(format_args!(
                "local graph has n={} but the server serves n={n} — pass the same \
                 --family/--n/--seed flags the server got",
                g.n()
            ));
        }
        for (i, wire) in answers.iter().enumerate() {
            let (s, t) = pairs[i];
            let exact = psh_graph::traversal::dijkstra::dijkstra_pair(&g, s, t);
            let ok = if exact == psh_graph::INF {
                !wire.distance.is_finite()
            } else {
                let exact = exact as f64;
                wire.distance >= exact - 1e-9 && wire.distance <= c * exact + 1e-9
            };
            if !ok {
                die(format_args!(
                    "wire answer violates the {c}× stretch bound at pair {i} ({s}, {t}): \
                     wire {} vs exact {exact}",
                    wire.distance
                ));
            }
        }
        println!(
            "verify-stretch: all {} answers within {c}× of the exact Dijkstra distance",
            answers.len()
        );
    }

    report
        .meta("addr", addr)
        .meta("queries", answers.len())
        .meta("batch", eff_batch)
        .meta("clients", clients)
        .meta("streamed", streaming)
        .meta("open_loop_rate", open_loop.unwrap_or(0.0))
        .meta("workload_dist", dist.name())
        .meta("truncated", truncated)
        .meta("verified_local", has_flag("--verify-local"))
        .meta("qps", qps)
        .meta("p50_ms", stats.p50_ms)
        .meta("p99_ms", stats.p99_ms);
    report.push_table("client", &t);
    report.finish();
}
