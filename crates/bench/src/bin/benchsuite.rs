//! `benchsuite` — the canonical serving-benchmark matrix, run after run.
//!
//! One binary that measures the whole Theorem 1.2 bargain — parallel
//! preprocessing cost, snapshot round trip, snapshot *load* latency,
//! concurrent query serving (cached and uncached), serving over the TCP
//! wire, and an exact-baseline head-to-head — over a fixed scenario
//! matrix, and emits a single schema-versioned JSON document
//! (`BENCH_9.json` by default) so the perf trajectory can accumulate
//! across commits:
//!
//! * **graph families** × **weighting**: {gnp, rmat, grid2d} ×
//!   {unweighted, weighted (log-uniform, ratio 64)} — six oracle builds,
//!   each measured for wall-clock, work/depth [`psh_pram::Cost`], **peak allocated
//!   bytes** (the shared counting allocator in [`psh_bench::alloc`]),
//!   hopset size, and snapshot size;
//! * **serving cells** per build: {fresh, snapshot-loaded oracle} ×
//!   {Sequential, Parallel{2,4,8}} × {1, 8, 32 client threads}, each
//!   cell driving the shared [`psh_core::service::OracleService`]
//!   admission queue from that many OS threads and reporting qps plus
//!   p50/p99/p999 per-request latency from
//!   [`psh_core::service::ServiceStats`];
//! * **wire cells** per build: {Sequential, Parallel{4}} × {1, 8 net
//!   clients}, each cell binding a loopback [`psh_net::NetServer`] and
//!   driving it through that many [`psh_net::NetClient`] sockets — the
//!   same workload measured *through the wire*, reporting
//!   client-observed qps/latency plus the largest batch the server
//!   coalesced across sockets;
//! * **load cells** per build, plus one deliberately large build
//!   (`--load-n`, default 120 000 vertices): open latency (file →
//!   oracle ready to serve, validation included) for both snapshot open
//!   modes — `mmap` and the portable aligned-read fallback — plus the
//!   first-query latency on the mapped path (which absorbs the page
//!   faults the lazy open deferred; the probe answer feeds the
//!   divergence gate on both paths);
//! * **cached serving cells** per build: the {Sequential, Parallel{4}}
//!   policies with the bounded answer cache enabled, replaying the
//!   workload twice through one service — the second pass measures the
//!   hit path, and both passes feed the divergence gate;
//! * **hot-swap cells** per build: the {Sequential, Parallel{4}}
//!   policies with 8 client threads hammering the service without pause
//!   while the main thread first idles (a 200 ms steady window), then
//!   rebuilds an oracle for a one-edge mutation of the graph and swaps
//!   it in via [`psh_core::service::OracleService::swap_oracle`] while
//!   the clients keep querying — the row records the steady-window qps,
//!   the rebuild wall-clock, the pause the swap call itself imposes, the
//!   resulting epoch, and whether the settled answers are
//!   byte-identical to the swapped-in oracle;
//! * **baseline head-to-head** per build: the oracle's `query_batch`
//!   against exact per-pair Dijkstra on the same pairs (both
//!   sequential), reporting both throughputs and the observed stretch
//!   (max and mean of approx/exact over reachable pairs);
//! * **open-loop sweep**: one loopback wire server driven at a grid of
//!   seeded Poisson offered-load rates (`psh-client --open-loop`
//!   semantics, latency measured from each query's *scheduled* arrival
//!   so queueing delay lands in the tail — no coordinated omission),
//!   recording the full latency-vs-offered-load curve.
//!
//! Every cell's answers — in-process and over-the-wire alike — are
//! compared against the sequential per-pair reference
//! (`oracle.query(s, t)` on the fresh build); the binary
//! **exits non-zero on any divergence** — this is the serving
//! determinism gate the CI `bench` job runs (with `--quick`, which
//! shrinks the policy axis to {Sequential, Parallel{4}} and the client
//! axis to {1, 32} at a smaller n).
//!
//! Usage: `cargo run --release -p psh-bench --bin benchsuite \
//!             [--quick] [--n N] [--queries Q] [--load-n N] [--seed S]
//!             [--json PATH]`
//! Any other argument, or a value that does not parse, exits 1 naming
//! the flag before anything runs.
//!
//! The JSON schema (`meta.schema_version = 1`): the standard
//! [`psh_bench::Report`] envelope (`bin`, `threads`, `policy`, `wall_clock_s`,
//! `meta`, `tables`) with a `build` table (one row per family ×
//! weighting), a `serve` table (one row per in-process scenario cell),
//! and a `serve_net` table (one row per wire cell). Rows are
//! stringly-typed table cells; `meta` carries the numeric knobs. The
//! `serve_net`, `load`, `serve_cached`, `swap`, `baselines` and
//! `open_loop` tables are additive — documents keep `schema_version` 1,
//! and `bench-compare` diffs two documents table-by-table (tables
//! present in only one side are reported as added/removed, so old
//! baselines stay comparable).

use psh_bench::alloc::{live_bytes, peak_above, reset_peak, CountingAlloc};
use psh_bench::json::{has_flag, parse_flag};
use psh_bench::serving::{check_args, parse_seed, parse_value};
use psh_bench::table::{fmt_f, fmt_u, Table};
use psh_bench::workloads::{random_pairs, Family};
use psh_bench::Report;
use psh_core::api::{HopsetBuilder, OracleBuilder, Seed};
use psh_core::oracle::{ApproxShortestPaths, QueryResult};
use psh_core::service::{CacheConfig, OracleService, ServiceConfig, ServiceStats};
use psh_core::snapshot::{
    load_oracle_v2, read_oracle_v2, write_oracle_v2_bytes, OracleMeta, Verify,
};
use psh_core::HopsetParams;
use psh_exec::ExecutionPolicy;
use psh_graph::traversal::dijkstra::dijkstra_pair;
use psh_graph::{CsrGraph, GraphDelta, LoadMode, SnapshotSource, INF};
use psh_net::{NetClient, NetServer, ServerConfig};
use psh_pram::Cost;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Bump on any change to the document layout (table names, columns, or
/// meta keys) so longitudinal consumers can dispatch on it.
const SCHEMA_VERSION: u64 = 1;

fn die(msg: impl std::fmt::Display) -> ! {
    eprintln!("benchsuite: {msg}");
    std::process::exit(1);
}

/// Drive `clients` OS threads of interleaved queries through one shared
/// service; returns the answers indexed like `pairs`.
fn run_clients(service: &OracleService, pairs: &[(u32, u32)], clients: usize) -> Vec<QueryResult> {
    let indexed: Vec<(usize, QueryResult)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|k| {
                scope.spawn(move || {
                    pairs
                        .iter()
                        .enumerate()
                        .skip(k)
                        .step_by(clients)
                        .map(|(i, &(s, t))| (i, service.query(s, t)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut answers: Vec<Option<QueryResult>> = vec![None; pairs.len()];
    for (i, a) in indexed {
        answers[i] = Some(a);
    }
    answers
        .into_iter()
        .map(|a| a.expect("every index covered"))
        .collect()
}

/// One worker's share: answers tagged with their `pairs` index, plus
/// one latency in milliseconds per answered query.
type ClientShare = (Vec<(usize, QueryResult)>, Vec<f64>);

/// Drive `clients` loopback sockets of strided `query_batch` round
/// trips (32 pairs each) through a bound server; returns the answers
/// indexed like `pairs` plus client-side stats. Each query's latency
/// sample is its round trip's latency, so `served` counts queries and
/// `qps` is queries per second, not trips per second.
fn run_net_clients(
    addr: SocketAddr,
    pairs: &[(u32, u32)],
    clients: usize,
) -> (Vec<QueryResult>, ServiceStats) {
    const TRIP: usize = 32;
    let start = Instant::now();
    let per_client: Vec<ClientShare> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|k| {
                scope.spawn(move || {
                    let mut client = NetClient::connect(addr).expect("loopback connect");
                    let mine: Vec<(usize, (u32, u32))> = pairs
                        .iter()
                        .copied()
                        .enumerate()
                        .skip(k)
                        .step_by(clients)
                        .collect();
                    let mut indexed = Vec::with_capacity(mine.len());
                    let mut lats = Vec::new();
                    for trip in mine.chunks(TRIP) {
                        let ask: Vec<(u32, u32)> = trip.iter().map(|&(_, p)| p).collect();
                        let t0 = Instant::now();
                        let got = client.query_batch(&ask).expect("loopback batch");
                        let trip_ms = t0.elapsed().as_secs_f64() * 1e3;
                        lats.extend(std::iter::repeat_n(trip_ms, trip.len()));
                        indexed.extend(trip.iter().map(|&(i, _)| i).zip(got));
                    }
                    (indexed, lats)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("net client thread panicked"))
            .collect()
    });
    let elapsed_s = start.elapsed().as_secs_f64();
    let trips = per_client
        .iter()
        .map(|(indexed, _)| indexed.len().div_ceil(TRIP) as u64)
        .sum();
    let mut answers: Vec<Option<QueryResult>> = vec![None; pairs.len()];
    let mut lats = Vec::new();
    for (indexed, l) in per_client {
        for (i, a) in indexed {
            answers[i] = Some(a);
        }
        lats.extend(l);
    }
    let stats = ServiceStats::from_samples(&lats, elapsed_s, trips, TRIP, Cost::ZERO);
    if stats.served != pairs.len() as u64 {
        die(format!(
            "wire cell counted {} served queries for {} pairs",
            stats.served,
            pairs.len()
        ));
    }
    let answers = answers
        .into_iter()
        .map(|a| a.expect("every index covered"))
        .collect();
    (answers, stats)
}

/// Load-path latencies need more resolution than the generic table
/// formatter gives (sub-10 ms cells would all print as `0.00`).
fn fmt_s(seconds: f64) -> String {
    format!("{seconds:.5}")
}

/// One load-path measurement: open a snapshot file (validation
/// included — that is what an operator waits for before the service can
/// accept queries), then answer one probe pair. The two spans are timed
/// separately: the open span is where the snapshot format matters; the
/// probe span is identical query work on every path — except that on
/// the `mmap` path it also absorbs the lazy page faults the open
/// deferred, which is why it is recorded too.
fn first_answer<F>(what: &str, load: F, probe: (u32, u32)) -> (f64, f64, QueryResult)
where
    F: FnOnce() -> Result<(ApproxShortestPaths, OracleMeta), psh_core::snapshot::SnapshotError>,
{
    let start = Instant::now();
    let (oracle, _) = load().unwrap_or_else(|e| die(format_args!("{what}: {e}")));
    let open_s = start.elapsed().as_secs_f64();
    let start = Instant::now();
    let answer = oracle.query(probe.0, probe.1).0;
    (open_s, start.elapsed().as_secs_f64(), answer)
}

/// The open measurements of one v2 snapshot — `mmap` and aligned-read
/// fallback — plus the first-query latency on the mapped path (page
/// faults included).
struct LoadCell {
    mmap_s: f64,
    read_s: f64,
    mmap_query_s: f64,
    answers: [QueryResult; 2],
}

fn measure_loads(tag: &str, v2_bytes: &[u8], probe: (u32, u32)) -> LoadCell {
    let path = std::env::temp_dir().join(format!("{tag}.{}.v2.snap", std::process::id()));
    std::fs::write(&path, v2_bytes)
        .unwrap_or_else(|e| die(format_args!("{tag}: cannot stage v2 snapshot: {e}")));
    let (mmap_s, mmap_query_s, a1) =
        first_answer("v2 mmap", || load_oracle_v2(&path, LoadMode::Mmap), probe);
    let (read_s, _, a2) = first_answer("v2 read", || load_oracle_v2(&path, LoadMode::Read), probe);
    let _ = std::fs::remove_file(&path);
    LoadCell {
        mmap_s,
        read_s,
        mmap_query_s,
        answers: [a1, a2],
    }
}

/// One hot-swap cell's measurements: client-observed throughput while
/// the service is steady, the wall-clock of a full oracle rebuild of the
/// mutated graph (clients keep querying throughout), the pause the
/// [`OracleService::swap_oracle`] call itself imposes, and whether the
/// settled post-swap answers are byte-identical to a direct query of the
/// swapped-in oracle.
struct SwapCell {
    qps_steady: f64,
    rebuild_s: f64,
    swap_ms: f64,
    epoch: u64,
    identical: bool,
}

/// Shortcut edges of the hopset the oracle served before it moved to an
/// exact search, built here only for the `hopset` column: Algorithm 4's
/// hopset on a unit graph, every §5 band at `η = 0.5` on a weighted one.
fn hopset_size(g: &CsrGraph, seed: u64) -> usize {
    let builder = if g.is_unit_weight() {
        HopsetBuilder::unweighted()
    } else {
        HopsetBuilder::weighted(0.5)
    };
    let run = builder.seed(Seed(seed)).build(g);
    run.unwrap_or_else(|e| die(format_args!("hopset build failed: {e}")))
        .artifact
        .size()
}

/// Hammer one shared service from `clients` threads without pause while
/// the main thread first idles (the steady window), then rebuilds an
/// oracle for the graph-plus-one-edge mutation and hot-swaps it in.
/// Queries count toward the steady window if they *complete* in it; the
/// swap pause is timed around the `swap_oracle` call alone.
fn measure_swap(
    g: &CsrGraph,
    base: &Arc<ApproxShortestPaths>,
    gseed: u64,
    pairs: &[(u32, u32)],
    policy: ExecutionPolicy,
    clients: usize,
) -> SwapCell {
    use std::sync::atomic::{AtomicU64, Ordering};
    // the mutation: one shortcut edge vertex 0 does not already have
    let target = (1..g.n() as u32)
        .rev()
        .find(|&v| !g.neighbors(0).any(|(x, _)| x == v))
        .unwrap_or_else(|| die("swap cell: vertex 0 is adjacent to everything"));
    let mut delta = GraphDelta::new(g.n());
    delta
        .insert(0, target, 1)
        .unwrap_or_else(|e| die(format_args!("swap cell: delta: {e}")));
    let g2 = g
        .apply_delta(&delta)
        .unwrap_or_else(|e| die(format_args!("swap cell: apply_delta: {e}")));

    let service = Arc::new(OracleService::from_arc(
        Arc::clone(base),
        ServiceConfig::with_policy(policy),
    ));
    // 0 = steady window, 1 = rebuild and swap, 2 = stop
    let phase = AtomicU64::new(0);
    let steady = AtomicU64::new(0);
    let (steady_s, rebuild_s, swap_ms, epoch, swapped) = std::thread::scope(|scope| {
        for k in 0..clients {
            let (service, phase, steady) = (&service, &phase, &steady);
            scope.spawn(move || {
                let mut i = k;
                loop {
                    let (s, t) = pairs[i % pairs.len()];
                    let _ = service.query(s, t);
                    let ph = phase.load(Ordering::Acquire);
                    if ph >= 2 {
                        break;
                    }
                    if ph == 0 {
                        steady.fetch_add(1, Ordering::Relaxed);
                    }
                    i += clients;
                }
            });
        }
        let t0 = Instant::now();
        std::thread::sleep(std::time::Duration::from_millis(200));
        let steady_s = t0.elapsed().as_secs_f64();
        phase.store(1, Ordering::Release);
        let t1 = Instant::now();
        let rebuilt = OracleBuilder::new()
            .seed(Seed(gseed))
            .build(&g2)
            .unwrap_or_else(|e| die(format_args!("swap cell: rebuild failed: {e}")));
        let rebuild_s = t1.elapsed().as_secs_f64();
        let swapped = Arc::new(rebuilt.artifact);
        let t2 = Instant::now();
        let epoch = service.swap_oracle(Arc::clone(&swapped));
        let swap_ms = t2.elapsed().as_secs_f64() * 1e3;
        phase.store(2, Ordering::Release);
        (steady_s, rebuild_s, swap_ms, epoch, swapped)
    });

    // settled: every answer must now come bitwise from the new oracle
    let settled = run_clients(&service, pairs, clients);
    let reference: Vec<QueryResult> = pairs.iter().map(|&(s, t)| swapped.query(s, t).0).collect();
    SwapCell {
        qps_steady: steady.load(Ordering::Relaxed) as f64 / steady_s.max(1e-12),
        rebuild_s,
        swap_ms,
        epoch,
        identical: settled == reference,
    }
}

/// Oracle `query_batch` vs exact per-pair Dijkstra on the same pairs,
/// both sequential. Returns (oracle qps, dijkstra qps, max stretch,
/// mean stretch over reachable s ≠ t pairs).
fn head_to_head(
    g: &CsrGraph,
    oracle: &ApproxShortestPaths,
    pairs: &[(u32, u32)],
    reference: &[QueryResult],
) -> (f64, f64, f64, f64) {
    let start = Instant::now();
    let (answers, _) = oracle.query_batch(pairs, ExecutionPolicy::Sequential);
    let oracle_s = start.elapsed().as_secs_f64();
    let start = Instant::now();
    let exact: Vec<u64> = pairs.iter().map(|&(s, t)| dijkstra_pair(g, s, t)).collect();
    let exact_s = start.elapsed().as_secs_f64();
    assert_eq!(
        answers, *reference,
        "head-to-head cell must match the reference"
    );

    let (mut max_stretch, mut sum, mut count) = (0.0f64, 0.0f64, 0usize);
    for (answer, &d) in answers.iter().zip(&exact) {
        if d == INF {
            assert!(
                !answer.distance.is_finite(),
                "oracle reports a distance on an unreachable pair"
            );
            continue;
        }
        if d == 0 {
            continue; // s == t
        }
        let stretch = answer.distance / d as f64;
        assert!(stretch >= 1.0 - 1e-9, "oracle beat the exact distance");
        max_stretch = max_stretch.max(stretch);
        sum += stretch;
        count += 1;
    }
    let q = pairs.len() as f64;
    (
        q / oracle_s.max(1e-12),
        q / exact_s.max(1e-12),
        max_stretch,
        if count > 0 { sum / count as f64 } else { 0.0 },
    )
}

fn main() {
    const PROG: &str = "benchsuite";
    check_args(
        PROG,
        &["--n", "--queries", "--seed", "--load-n", "--json"],
        &["--quick"],
    );
    let quick = has_flag("--quick");
    let (default_n, default_queries) = if quick { (256, 160) } else { (800, 512) };
    let n: usize = parse_value(PROG, "--n", "a vertex count", |_| true).unwrap_or(default_n);
    let queries: usize =
        parse_value(PROG, "--queries", "a query count", |_| true).unwrap_or(default_queries);
    let seed = parse_seed(PROG);
    let load_n: usize =
        parse_value(PROG, "--load-n", "a vertex count", |_| true).unwrap_or(120_000);
    let json_path = parse_flag("--json").unwrap_or_else(|| "BENCH_9.json".into());
    let mut report = Report::new("benchsuite", Some(PathBuf::from(&json_path)));

    // The scenario axes. "gnp" is the connected Erdős–Rényi-ish family
    // (`Family::Random` in the workload registry).
    let families = [
        (Family::Random, "gnp"),
        (Family::Rmat, "rmat"),
        (Family::Grid2d, "grid2d"),
    ];
    let weightings: [(&str, Option<f64>); 2] = [("unweighted", None), ("weighted", Some(64.0))];
    let policies: Vec<ExecutionPolicy> = if quick {
        vec![
            ExecutionPolicy::Sequential,
            ExecutionPolicy::Parallel { threads: 4 },
        ]
    } else {
        vec![
            ExecutionPolicy::Sequential,
            ExecutionPolicy::Parallel { threads: 2 },
            ExecutionPolicy::Parallel { threads: 4 },
            ExecutionPolicy::Parallel { threads: 8 },
        ]
    };
    let client_counts: Vec<usize> = if quick { vec![1, 32] } else { vec![1, 8, 32] };

    println!(
        "# benchsuite — {} × {} × {} policies × {{fresh, snapshot}} × {:?} clients | n≈{n}, {queries} queries{}\n",
        families.map(|(_, f)| f).join("/"),
        weightings.map(|(w, _)| w).join("/"),
        policies.len(),
        client_counts,
        if quick { " (--quick)" } else { "" },
    );

    let mut build_table = Table::new([
        "family",
        "weights",
        "n",
        "m",
        "build (s)",
        "work",
        "depth",
        "peak bytes",
        "hopset",
        "snapshot bytes",
    ]);
    let mut serve_table = Table::new([
        "family",
        "weights",
        "source",
        "policy",
        "clients",
        "qps",
        "p50 (ms)",
        "p99 (ms)",
        "p999 (ms)",
        "batches",
        "largest",
        "identical",
    ]);
    let mut serve_net_table = Table::new([
        "family",
        "weights",
        "policy",
        "clients",
        "qps",
        "p50 (ms)",
        "p99 (ms)",
        "trips",
        "coalesced",
        "identical",
    ]);
    let mut load_table = Table::new([
        "family",
        "weights",
        "n",
        "v2 bytes",
        "v2 mmap (s)",
        "v2 read (s)",
        "first query (s)",
    ]);
    let mut cached_table = Table::new([
        "family",
        "weights",
        "policy",
        "clients",
        "qps warm",
        "qps cached",
        "hits",
        "identical",
    ]);
    let mut swap_table = Table::new([
        "family",
        "weights",
        "policy",
        "clients",
        "qps steady",
        "rebuild (s)",
        "swap (ms)",
        "epoch",
        "identical",
    ]);
    let mut baselines_table = Table::new([
        "family",
        "weights",
        "oracle qps",
        "dijkstra qps",
        "speedup",
        "max stretch",
        "mean stretch",
    ]);
    let mut open_loop_table = Table::new([
        "offered qps",
        "arrivals",
        "behind",
        "achieved qps",
        "p50 (ms)",
        "p99 (ms)",
        "identical",
    ]);
    // the wire axis stays small — each cell pays real TCP round trips
    let net_policies = [
        ExecutionPolicy::Sequential,
        ExecutionPolicy::Parallel { threads: 4 },
    ];
    let net_clients = [1usize, 8];
    let mut mismatches = 0usize;
    let mut cells = 0usize;

    for (fi, (family, fname)) in families.into_iter().enumerate() {
        for (wname, ratio) in weightings {
            let gseed = seed
                .wrapping_add(fi as u64 * 1009)
                .wrapping_add(if ratio.is_some() { 499 } else { 0 });
            let g = match ratio {
                Some(u) => family.instantiate_weighted(n, u, gseed),
                None => family.instantiate(n, gseed),
            };
            // --- build, measured ------------------------------------------
            reset_peak();
            let base = live_bytes();
            let start = Instant::now();
            let run = OracleBuilder::new()
                .seed(Seed(gseed))
                .build(&g)
                .unwrap_or_else(|e| {
                    die(format_args!("{fname}/{wname}: preprocessing failed: {e}"))
                });
            let build_s = start.elapsed().as_secs_f64();
            let peak_bytes = peak_above(base);

            // --- snapshot round trip: the mapped oracle production serves -
            let meta = OracleMeta::of_run(&run, HopsetParams::default());
            let buf = write_oracle_v2_bytes(&run.artifact, &meta)
                .unwrap_or_else(|e| die(format_args!("{fname}/{wname}: snapshot write: {e}")));
            let (loaded, _) =
                read_oracle_v2(Arc::new(SnapshotSource::from_bytes(&buf)), Verify::Bounds)
                    .unwrap_or_else(|e| die(format_args!("{fname}/{wname}: snapshot reload: {e}")));

            build_table.row([
                fname.to_string(),
                wname.to_string(),
                fmt_u(g.n() as u64),
                fmt_u(g.m() as u64),
                fmt_f(build_s),
                fmt_u(run.cost.work),
                fmt_u(run.cost.depth),
                fmt_u(peak_bytes as u64),
                fmt_u(hopset_size(&g, gseed) as u64),
                fmt_u(buf.len() as u64),
            ]);

            // --- the sequential per-pair reference ------------------------
            let fresh = Arc::new(run.artifact);
            let loaded = Arc::new(loaded);
            let pairs = random_pairs(g.n(), queries, gseed ^ 0x5E2A11CE);
            let reference: Vec<QueryResult> =
                pairs.iter().map(|&(s, t)| fresh.query(s, t).0).collect();

            // --- serving cells --------------------------------------------
            for (sname, oracle) in [("fresh", &fresh), ("snapshot", &loaded)] {
                for &policy in &policies {
                    for &clients in &client_counts {
                        let service = OracleService::from_arc(
                            Arc::clone(oracle),
                            ServiceConfig::with_policy(policy),
                        );
                        let answers = run_clients(&service, &pairs, clients);
                        let identical = answers == reference;
                        mismatches += usize::from(!identical);
                        cells += 1;
                        let stats = service.stats();
                        serve_table.row([
                            fname.to_string(),
                            wname.to_string(),
                            sname.to_string(),
                            policy.to_string(),
                            fmt_u(clients as u64),
                            fmt_f(stats.qps),
                            fmt_f(stats.p50_ms),
                            fmt_f(stats.p99_ms),
                            fmt_f(stats.p999_ms),
                            fmt_u(stats.batches),
                            fmt_u(stats.largest_batch as u64),
                            if identical { "yes" } else { "NO" }.to_string(),
                        ]);
                    }
                }
            }

            // --- wire cells: the same workload through loopback TCP -------
            for &policy in &net_policies {
                for &clients in &net_clients {
                    let service = Arc::new(OracleService::from_arc(
                        Arc::clone(&fresh),
                        ServiceConfig::with_policy(policy),
                    ));
                    let mut server = NetServer::bind(
                        "127.0.0.1:0",
                        Arc::clone(&service),
                        ServerConfig::default(),
                    )
                    .unwrap_or_else(|e| die(format_args!("{fname}/{wname}: bind: {e}")));
                    let (answers, wire) = run_net_clients(server.local_addr(), &pairs, clients);
                    server.shutdown();
                    let identical = answers == reference;
                    mismatches += usize::from(!identical);
                    cells += 1;
                    let coalesced = service.stats().largest_batch;
                    serve_net_table.row([
                        fname.to_string(),
                        wname.to_string(),
                        policy.to_string(),
                        fmt_u(clients as u64),
                        fmt_f(wire.qps),
                        fmt_f(wire.p50_ms),
                        fmt_f(wire.p99_ms),
                        fmt_u(wire.batches),
                        fmt_u(coalesced as u64),
                        if identical { "yes" } else { "NO" }.to_string(),
                    ]);
                }
            }

            // --- load cells: v2 mmap vs v2 read ---------------------------
            let probe = pairs.first().copied().unwrap_or((0, 0));
            let expect_probe = fresh.query(probe.0, probe.1).0;
            let cell = measure_loads(&format!("psh_benchsuite_{fname}_{wname}"), &buf, probe);
            for answer in cell.answers {
                mismatches += usize::from(answer != expect_probe);
                cells += 1;
            }
            load_table.row([
                fname.to_string(),
                wname.to_string(),
                fmt_u(g.n() as u64),
                fmt_u(buf.len() as u64),
                fmt_s(cell.mmap_s),
                fmt_s(cell.read_s),
                fmt_s(cell.mmap_query_s),
            ]);

            // --- cached serving cells -------------------------------------
            for &policy in &net_policies {
                let service = OracleService::from_arc(
                    Arc::clone(&fresh),
                    ServiceConfig {
                        policy,
                        cache: Some(CacheConfig {
                            capacity: 1024,
                            seed: gseed,
                        }),
                    },
                );
                let warm = run_clients(&service, &pairs, 8);
                let warm_qps = service.stats().qps;
                service.reset_stats();
                let hot = run_clients(&service, &pairs, 8);
                let hot_stats = service.stats();
                let identical = warm == reference && hot == reference;
                mismatches += usize::from(!identical);
                cells += 1;
                cached_table.row([
                    fname.to_string(),
                    wname.to_string(),
                    policy.to_string(),
                    fmt_u(8),
                    fmt_f(warm_qps),
                    fmt_f(hot_stats.qps),
                    fmt_u(hot_stats.cache_hits),
                    if identical { "yes" } else { "NO" }.to_string(),
                ]);
            }

            // --- hot-swap cells: serve while a rebuild runs ----------------
            for &policy in &net_policies {
                let cell = measure_swap(&g, &fresh, gseed, &pairs, policy, 8);
                mismatches += usize::from(!cell.identical);
                cells += 1;
                swap_table.row([
                    fname.to_string(),
                    wname.to_string(),
                    policy.to_string(),
                    fmt_u(8),
                    fmt_f(cell.qps_steady),
                    fmt_s(cell.rebuild_s),
                    fmt_s(cell.swap_ms),
                    fmt_u(cell.epoch),
                    if cell.identical { "yes" } else { "NO" }.to_string(),
                ]);
            }

            // --- exact-baseline head-to-head ------------------------------
            let (oracle_qps, exact_qps, max_stretch, mean_stretch) =
                head_to_head(&g, &fresh, &pairs, &reference);
            baselines_table.row([
                fname.to_string(),
                wname.to_string(),
                fmt_f(oracle_qps),
                fmt_f(exact_qps),
                fmt_f(oracle_qps / exact_qps.max(1e-12)),
                fmt_f(max_stretch),
                fmt_f(mean_stretch),
            ]);
        }
    }

    // --- the big load row: open latency at a size where it shows ----------
    println!("building the n={load_n} load-latency oracle …");
    let big_seed = seed ^ 0xB16;
    let g_big = Family::Grid2d.instantiate(load_n, big_seed);
    let run_big = OracleBuilder::new()
        .seed(Seed(big_seed))
        .build(&g_big)
        .unwrap_or_else(|e| die(format_args!("load-n build failed: {e}")));
    let meta_big = OracleMeta::of_run(&run_big, HopsetParams::default());
    let buf_big = write_oracle_v2_bytes(&run_big.artifact, &meta_big)
        .unwrap_or_else(|e| die(format_args!("load-n snapshot write: {e}")));
    let probe_big = (0u32, (g_big.n() - 1) as u32);
    let expect_big = run_big.artifact.query(probe_big.0, probe_big.1).0;
    let cell = measure_loads("psh_benchsuite_big", &buf_big, probe_big);
    for answer in cell.answers {
        mismatches += usize::from(answer != expect_big);
        cells += 1;
    }
    load_table.row([
        "grid2d".to_string(),
        "unweighted".to_string(),
        fmt_u(g_big.n() as u64),
        fmt_u(buf_big.len() as u64),
        fmt_s(cell.mmap_s),
        fmt_s(cell.read_s),
        fmt_s(cell.mmap_query_s),
    ]);
    println!(
        "load latency at n={}: v2 mmap open {:.4}s, read {:.4}s (first mapped query {:.4}s)",
        g_big.n(),
        cell.mmap_s,
        cell.read_s,
        cell.mmap_query_s,
    );
    drop((run_big, g_big, buf_big));

    // --- open-loop sweep: latency vs offered load over loopback TCP -------
    // Arrivals follow a seeded Poisson process at each offered rate
    // (psh-client --open-loop semantics): latency runs from the query's
    // *scheduled* arrival, so queueing delay lands in the tail instead of
    // silently throttling the workload — the full latency-vs-offered-load
    // curve, one row per rate.
    println!("sweeping open-loop offered load over loopback TCP …");
    let ol_seed = seed ^ 0x09E2;
    let g_ol = Family::Random.instantiate(n, ol_seed);
    let run_ol = OracleBuilder::new()
        .seed(Seed(ol_seed))
        .build(&g_ol)
        .unwrap_or_else(|e| die(format_args!("open-loop build failed: {e}")));
    let ol_oracle = Arc::new(run_ol.artifact);
    let ol_pairs = random_pairs(g_ol.n(), queries.min(400), ol_seed ^ 0x0731);
    let ol_reference: Vec<QueryResult> = ol_pairs
        .iter()
        .map(|&(s, t)| ol_oracle.query(s, t).0)
        .collect();
    let rates: Vec<f64> = if quick {
        vec![500.0, 4000.0]
    } else {
        vec![250.0, 1000.0, 4000.0, 16000.0]
    };
    let ol_service = Arc::new(OracleService::from_arc(
        Arc::clone(&ol_oracle),
        ServiceConfig::with_policy(ExecutionPolicy::Sequential),
    ));
    let mut ol_server = NetServer::bind(
        "127.0.0.1:0",
        Arc::clone(&ol_service),
        ServerConfig::default(),
    )
    .unwrap_or_else(|e| die(format_args!("open-loop bind: {e}")));
    for &rate in &rates {
        let mut client =
            NetClient::connect(ol_server.local_addr()).expect("open-loop loopback connect");
        let start = Instant::now();
        let mut x = (ol_seed ^ 0x9E37_79B9_7F4A_7C15) | 1;
        let mut scheduled_s = 0.0f64;
        let mut behind = 0usize;
        let mut answers = Vec::with_capacity(ol_pairs.len());
        let mut lats_ms = Vec::with_capacity(ol_pairs.len());
        for &(s, t) in &ol_pairs {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let u = (x >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
            scheduled_s += -(1.0 - u).ln() / rate;
            let now_s = start.elapsed().as_secs_f64();
            if now_s < scheduled_s {
                std::thread::sleep(std::time::Duration::from_secs_f64(scheduled_s - now_s));
            } else {
                behind += 1;
            }
            let a = client.query(s, t).expect("open-loop query");
            lats_ms.push((start.elapsed().as_secs_f64() - scheduled_s) * 1e3);
            answers.push(a);
        }
        let elapsed_s = start.elapsed().as_secs_f64();
        let identical = answers == ol_reference;
        mismatches += usize::from(!identical);
        cells += 1;
        let p50 = psh_bench::stats::percentile(&lats_ms, 50.0);
        let p99 = psh_bench::stats::percentile(&lats_ms, 99.0);
        open_loop_table.row([
            fmt_f(rate),
            fmt_u(answers.len() as u64),
            fmt_u(behind as u64),
            fmt_f(answers.len() as f64 / elapsed_s.max(1e-12)),
            fmt_f(p50),
            fmt_f(p99),
            if identical { "yes" } else { "NO" }.to_string(),
        ]);
    }
    ol_server.shutdown();

    println!("\n## preprocessing\n");
    build_table.print();
    println!("\n## serving matrix\n");
    serve_table.print();
    println!("\n## wire serving matrix (loopback TCP)\n");
    serve_net_table.print();
    println!("\n## snapshot load latency (open, then first query)\n");
    load_table.print();
    println!("\n## cached serving matrix (answer cache on)\n");
    cached_table.print();
    println!("\n## hot-swap matrix (serve while rebuilding, then swap)\n");
    swap_table.print();
    println!("\n## exact-baseline head-to-head (sequential)\n");
    baselines_table.print();
    println!("\n## open-loop latency vs offered load (loopback TCP, sequential)\n");
    open_loop_table.print();

    report
        .meta("schema_version", SCHEMA_VERSION)
        .meta("quick", quick)
        .meta("n", n)
        .meta("queries", queries)
        .meta("load_n", load_n)
        .meta("seed", seed)
        .meta("cells", cells)
        .meta("mismatches", mismatches);
    report.push_table("build", &build_table);
    report.push_table("serve", &serve_table);
    report.push_table("serve_net", &serve_net_table);
    report.push_table("load", &load_table);
    report.push_table("serve_cached", &cached_table);
    report.push_table("swap", &swap_table);
    report.push_table("baselines", &baselines_table);
    report.push_table("open_loop", &open_loop_table);
    report.finish();

    if mismatches > 0 {
        eprintln!(
            "\nFAIL: {mismatches}/{cells} scenario cell(s) diverged from the sequential reference"
        );
        std::process::exit(1);
    }
    println!("\nall {cells} scenario cells byte-identical to the sequential reference ✓");
}
