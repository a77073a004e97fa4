//! One run: inputs, spanner, the rounds (set-up, warm-up, measured
//! traffic, updates), the checks, and the metrics.

use crate::checks::{self, Reference};
use crate::config::{sub_seed, Sizes, Workload, POLICY, SPANNER_K, UPDATES_PER_ROUND};
use crate::drift::{self, Probe};
use crate::inputs::{self, Traffic};
use crate::layers::{self, Ctx};
use crate::metrics::{median, pct, Table, END_TO_END, MIB, PER_LAYER};
use crate::phase::{self, same, CallerLog, Clock, Updater, FAILED};
use crate::setup::{self, Paths, Stage};
use crate::trace::Recorder;
use crate::Args;
use psh_bench::alloc;
use psh_core::oracle::QueryResult;
use psh_core::service::OracleService;
use psh_core::snapshot::OracleMeta;
use psh_core::{ApproxShortestPaths, Seed, SpannerBuilder};
use psh_graph::{CsrGraph, VertexId};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

type Row = (&'static str, &'static str, f64);

pub struct Outcome {
    pub e2e: Vec<Row>,
    /// Figures printed beside the metrics but not gated, because they do
    /// not repeat between runs on a shared host (see README): the spanner
    /// time, the p99 latency, and the live heap after the phase above the
    /// baseline.
    pub notes: Vec<Row>,
    /// Empty unless the run was traced.
    pub layers: Vec<Row>,
    pub attempted: u64,
    pub failed: u64,
    /// Why the correctness gate failed, if it did.
    pub incorrect: Option<String>,
    pub drift: (Probe, Probe),
}

/// One generated graph and what a round on it needs: its text edge list,
/// the request sequences drawn from its giant component, the pair its
/// set-up answers first, the seed of its oracle builds, and the reference
/// oracle (a fresh build with that seed) its answers are checked against.
struct Case {
    graph: CsrGraph,
    edges: PathBuf,
    traffic: Traffic,
    first: (VertexId, VertexId),
    oracle_seed: u64,
    reference: ApproxShortestPaths,
}

/// Generate the inputs of one graph of the run from `seed`, with the
/// update writer for its update edge. The oracle seed is drawn per graph
/// too: the oracle's random clustering moves its query speed as much as
/// the graph does.
fn case(w: Workload, sz: &Sizes, seed: u64, edges: PathBuf) -> Result<(Case, Updater), String> {
    let oracle_seed = sub_seed(seed, 10);
    let graph = inputs::graph(w, sz, seed);
    write_edge_list(&graph, &edges)?;
    let pool = inputs::endpoint_pool(&graph);
    let traffic = inputs::uniform(&pool, sz, seed);
    let pair = inputs::update_pair(&graph, &pool, seed);
    let updated = graph
        .apply_delta(&inputs::update_delta(graph.n(), pair, 0))
        .map_err(|e| format!("update edge: {e}"))?;
    let reference = self::reference(&graph, oracle_seed)?;
    let expect = [
        reference.query(pair.0, pair.1).0,
        self::reference(&updated, oracle_seed)?
            .query(pair.0, pair.1)
            .0,
    ];
    if same(&expect[0], &expect[1]) {
        return Err("the update edge does not change its probe answer".into());
    }
    let updater = Updater::new(pair, graph.n(), expect);
    let first = traffic.catalog[traffic.warmup[0][0] as usize];
    let case = Case {
        graph,
        edges,
        traffic,
        first,
        oracle_seed,
        reference,
    };
    Ok((case, updater))
}

/// Everything a run shares between its workload-specific part and the
/// common checks and metrics.
struct Shared<'a> {
    a: &'a Args,
    sz: &'a Sizes,
    paths: &'a Paths,
    cases: &'a [Case],
    check_pairs: &'a [(VertexId, VertexId)],
    rec: &'a Recorder,
}

impl Shared<'_> {
    /// The graph round `r` runs on. The rounds cycle through the graphs
    /// so that the last round runs on the first graph, whose final state
    /// the checks and the traced replays use.
    fn case_of(&self, r: usize) -> usize {
        (self.sz.rounds - 1 - r) % self.cases.len()
    }
}

/// What the workload-specific part hands back.
struct Phase {
    stages: Vec<Stage>,
    /// Per round: seconds of measured traffic, and whether it was traced.
    rounds: Vec<(f64, bool)>,
    /// Live heap when the callers of the last round had stopped.
    end_live: usize,
    /// The check pairs answered by the served state after the run.
    final_answers: Vec<QueryResult>,
    /// The check pairs answered by the epoch-0 snapshot, where the final
    /// state is a different oracle (`build`).
    snapshot_answers: Option<Vec<QueryResult>>,
    /// Operations outside the callers' logs and the updater: first
    /// answers, warm-up and check queries (attempted, failed).
    ops: (u64, u64),
}

fn write_edge_list(g: &CsrGraph, path: &Path) -> Result<(), String> {
    use std::io::Write;
    let file = std::fs::File::create(path).map_err(|e| format!("create edge list: {e}"))?;
    let mut out = std::io::BufWriter::new(file);
    psh_graph::io::write_graph(g, &mut out).map_err(|e| format!("write edge list: {e}"))?;
    out.flush().map_err(|e| format!("write edge list: {e}"))
}

fn reference(g: &CsrGraph, seed: u64) -> Result<ApproxShortestPaths, String> {
    setup::oracle_builder(seed)
        .build(g)
        .map(|run| run.artifact)
        .map_err(|e| format!("reference build: {e}"))
}

fn timed_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&samples)
}

pub fn run(a: &Args, dir: &Path) -> Result<Outcome, String> {
    let w = a.workload;
    let sz = if a.toy { Sizes::toy() } else { Sizes::full() };
    let start = drift::probe();
    let rec = Recorder::new();
    let paths = Paths::new(dir.to_path_buf());

    // ---- inputs (before the heap baseline: they are the benchmark's).
    // The first graph is drawn from the run seed itself, further ones
    // from seeds derived from it.
    let mut cases = Vec::new();
    let mut upds = Vec::new();
    for k in 0..sz.graphs {
        let seed = if k == 0 {
            a.seed
        } else {
            sub_seed(a.seed, 100 + k as u64)
        };
        let (case, upd) = case(w, &sz, seed, paths.edges(k))?;
        cases.push(case);
        upds.push(upd);
    }
    let g0 = &cases[0].graph;
    let check_pairs = inputs::check_pairs(&inputs::endpoint_pool(g0), sz.stretch_pairs, a.seed);

    // ---- spanner: the library user's build, outside set-up. The size
    // ratio is a mean over independent constructions (one derived seed
    // each); the time is the fast tail of repeated builds of the first,
    // since a build takes milliseconds and interference only adds time.
    let spanner_seed = |r: u64| Seed(sub_seed(sub_seed(a.seed, 11), r));
    let spanner_build = |r: u64| {
        SpannerBuilder::weighted(SPANNER_K)
            .execution(POLICY)
            .seed(spanner_seed(r))
            .build(g0)
            .map_err(|e| format!("spanner: {e}"))
    };
    let mut ratios = Vec::new();
    for r in 1..sz.spanner_seeds as u64 {
        ratios.push(spanner_build(r)?.artifact.size_ratio(SPANNER_K));
    }
    let mut spanner_s = Vec::new();
    let mut spanner = None;
    for _ in 0..sz.spanner_reps {
        let t = Instant::now();
        let run = spanner_build(0)?;
        spanner_s.push(t.elapsed().as_secs_f64());
        spanner = Some(run);
    }
    let spanner = spanner.ok_or("no spanner built")?;
    ratios.push(spanner.artifact.size_ratio(SPANNER_K));

    // ---- callers' buffers, preallocated so they do not count as growth:
    // two connections in `serve_uniform`, one thread in `build`
    let callers = if w.served() { 2 } else { 1 };
    let cap = (a.seconds * 20_000.0) as usize + 1024;
    let span_cap = if a.trace { cap / 2 + 4096 } else { 0 };
    let mut logs: Vec<CallerLog> = (0..callers)
        .map(|c| CallerLog::new(cap, rec.buffer(1 + c as u64, span_cap)))
        .collect();
    let mut lt = Table::default();
    let sh = Shared {
        a,
        sz: &sz,
        paths: &paths,
        cases: &cases,
        check_pairs: &check_pairs,
        rec: &rec,
    };

    let baseline = alloc::live_bytes();
    let ph = if w.served() {
        served(&sh, &mut logs, &mut upds, &mut lt)?
    } else {
        library(&sh, &mut logs, &mut upds, &mut lt)?
    };

    // ---- the correctness gate
    if a.inject_wrong_answer {
        if let Some(ans) = logs[0].answers.iter_mut().find(|r| !r.distance.is_nan()) {
            ans.distance = f64::from_bits(ans.distance.to_bits() ^ 1);
        }
    }
    let gate = || -> Result<(f64, f64, f64), String> {
        for (k, case) in cases.iter().enumerate() {
            let rounds: Vec<usize> = (0..ph.rounds.len())
                .filter(|&r| sh.case_of(r) == k)
                .collect();
            let mut reference = Reference::new(&case.reference, case.traffic.catalog.len());
            checks::answers(&case.traffic, &logs, &rounds, &mut reference)?;
        }
        let ref0 = &cases[0].reference;
        checks::sample(ref0, &check_pairs, &ph.final_answers, "final state")?;
        let served_answers = match &ph.snapshot_answers {
            Some(snap) => {
                checks::sample(ref0, &check_pairs, snap, "snapshot")?;
                snap
            }
            None => &ph.final_answers,
        };
        let (max, mean) = checks::stretch(g0, &check_pairs, served_answers)?;
        let sp = checks::spanner(
            g0,
            &spanner.artifact,
            sz.spanner_sample,
            sub_seed(a.seed, 13),
        )?;
        Ok((max, mean, sp))
    };
    let (stretch, incorrect) = match gate() {
        Ok((max, mean, sp)) => ((max, mean, sp), None),
        Err(e) => ((0.0, 0.0, 0.0), Some(e)),
    };

    // ---- end-to-end metrics
    let mut e = Table::default();
    let stage =
        |f: fn(&Stage) -> f64| -> f64 { median(&ph.stages.iter().map(f).collect::<Vec<_>>()) };
    let last = ph.stages.last().ok_or("no set-up ran")?;
    e.set("setup_s", stage(|s| s.total_s));
    e.set("build_peak_mb", stage(|s| s.peak_bytes as f64) / MIB);
    e.set("snapshot_mb", stage(|s| s.snapshot_bytes as f64) / MIB);
    e.set(
        "spanner_size_ratio",
        ratios.iter().sum::<f64>() / ratios.len() as f64,
    );
    // per round: pairs answered by every caller, and their median latency
    let per_round: Vec<(usize, f64)> = (0..ph.rounds.len())
        .map(|r| {
            let lat: Vec<f64> = logs
                .iter()
                .flat_map(|l| l.round(r).iter().copied())
                .collect();
            (lat.len(), median(&lat))
        })
        .collect();
    let round_qps: Vec<f64> = per_round
        .iter()
        .zip(&ph.rounds)
        .map(|(&(count, _), &(secs, _))| count as f64 / secs)
        .collect();
    let round_p50: Vec<f64> = per_round.iter().map(|&(_, p50)| p50).collect();
    e.set("qps", median(&round_qps));
    e.set("latency_p50_ms", median(&round_p50));
    let visible: Vec<f64> = upds
        .iter()
        .flat_map(|u| u.visible_ms.iter().copied())
        .collect();
    e.set("update_visible_ms", median(&visible));
    let attempted = ph.ops.0
        + logs.iter().map(|l| l.attempted).sum::<u64>()
        + upds.iter().map(|u| u.attempted).sum::<u64>();
    let failed = ph.ops.1
        + logs.iter().map(|l| l.failed).sum::<u64>()
        + upds.iter().map(|u| u.failed).sum::<u64>();
    e.set(
        "answered_share",
        1.0 - failed as f64 / attempted.max(1) as f64,
    );
    e.set("stretch_max", stretch.0);
    e.set("stretch_mean", stretch.1);
    let e2e = e.finish(&END_TO_END)?;
    let lat: Vec<f64> = logs.iter().flat_map(|l| l.lat_ms.iter().copied()).collect();
    let notes = vec![
        ("spanner_s", "s", pct(&spanner_s, 10.0)),
        ("latency_p99_ms", "ms", pct(&lat, 99.0)),
        (
            "heap_growth_mb",
            "MiB",
            (ph.end_live as f64 - baseline as f64) / MIB,
        ),
    ];

    // ---- per-layer metrics of a traced run
    let layers = if a.trace {
        lt.set("graph.read_s", stage(|s| s.read_s));
        lt.set("oracle.build_s", stage(|s| s.build_s));
        lt.set("oracle.build_work", last.build_work as f64);
        lt.set("snapshot.save_s", stage(|s| s.save_s));
        lt.set("snapshot.open_ms", stage(|s| s.open_ms));
        lt.set("snapshot.bytes", last.snapshot_bytes as f64);
        lt.set("spanner.edges", spanner.artifact.size() as f64);
        lt.set("spanner.work", spanner.cost.work as f64);
        lt.set("spanner.stretch_sampled", stretch.2);
        // traced against untraced rounds of the same run
        let rate = |traced: bool| {
            let (n, s) = per_round
                .iter()
                .zip(&ph.rounds)
                .filter(|(_, r)| r.1 == traced)
                .fold((0.0, 0.0), |(n, s), (&(count, _), r)| {
                    (n + count as f64, s + r.0)
                });
            n / s
        };
        let (traced, untraced) = (rate(true), rate(false));
        let overhead = if traced > 0.0 && untraced > 0.0 {
            1.0 - traced / untraced
        } else {
            0.0
        };
        lt.set("trace.overhead_share", overhead);
        for log in logs.iter_mut() {
            rec.absorb(std::mem::replace(&mut log.spans, rec.buffer(0, 0)));
        }
        let file = a
            .work_dir
            .join(format!("spans-{}-{}.tsv", w.name(), a.seed));
        rec.write_tsv(&file)
            .map_err(|e| format!("write {}: {e}", file.display()))?;
        lt.finish(&PER_LAYER)?
    } else {
        Vec::new()
    };

    Ok(Outcome {
        e2e,
        notes,
        layers,
        attempted,
        failed,
        incorrect,
        drift: (start, drift::probe()),
    })
}

/// The clock of round `r`: an equal share of `--seconds`; every other
/// round of a traced run records spans.
fn round_clock(sh: &Shared, r: usize) -> Clock {
    Clock::new(
        sh.a.seconds / sh.sz.rounds as f64,
        sh.a.trace && r.is_multiple_of(2),
    )
}

/// `serve_uniform`: every round sets up a served snapshot, warms up, runs
/// the traffic from both callers and makes its updates over the wire;
/// then (traced) the layers are replayed, and the check pairs are
/// answered from the final state.
fn served(
    sh: &Shared,
    logs: &mut [CallerLog],
    upds: &mut [Updater],
    lt: &mut Table,
) -> Result<Phase, String> {
    let (a, sz) = (sh.a, sh.sz);
    let journal = sh.paths.journal();
    let mut stages = Vec::new();
    let mut rounds = Vec::new();
    let mut ops = (0u64, 0u64);
    let mut end_live = 0;
    let mut kept = None;
    for r in 0..sz.rounds {
        drop(kept.take()); // the previous stack is torn down before the next set-up
        let c = sh.case_of(r);
        let case = &sh.cases[c];
        let (mut stack, st) = setup::served(sh.paths, &case.edges, case.oracle_seed, case.first)?;
        stages.push(st);
        ops.0 += 2;

        let mut warm = [(0u64, 0u64); 2];
        std::thread::scope(|s| {
            for ((client, list), counts) in stack
                .clients
                .iter_mut()
                .zip(&case.traffic.warmup)
                .zip(warm.iter_mut())
            {
                s.spawn(move || phase::wire_warmup(client, &case.traffic, list, counts));
            }
        });
        for (att, fail) in warm {
            ops.0 += att;
            ops.1 += fail;
        }

        let clock = round_clock(sh, r);
        std::thread::scope(|s| {
            for (caller, (client, log)) in stack.clients.iter_mut().zip(logs.iter_mut()).enumerate()
            {
                s.spawn(move || phase::wire_reader(client, &case.traffic, caller, &clock, log));
            }
        });
        let end = logs
            .iter()
            .filter_map(|l| l.finished)
            .max()
            .ok_or("no reader finished")?;
        rounds.push((end.duration_since(clock.start).as_secs_f64(), clock.traced));
        end_live = alloc::live_bytes();

        for _ in 0..UPDATES_PER_ROUND {
            let spans = a.trace.then_some(&mut logs[1].spans);
            upds[c].wire(&mut stack.clients[1], &journal, spans)?;
        }
        kept = Some(stack);
    }
    let mut stack = kept.ok_or("no round ran")?;

    if a.trace {
        let service = Arc::clone(&stack.service);
        lt.set("service.stats_ms", timed_ms(3, || drop(service.stats())));
        let ctx = layer_ctx(sh, logs, &stack.oracle, stack.meta, upds[0].pair);
        let addr = stack.server.local_addr();
        layers::replays(&ctx, &|| setup::connect(addr), lt)?;
        let client = &mut stack.clients[0];
        lt.set("net.stats_ms", timed_ms(3, || drop(client.server_stats())));
        layers::builds(&ctx, lt)?;
        layers::journal(&ctx, lt)?;
        let reload: Vec<f64> = upds
            .iter()
            .flat_map(|u| u.reload_ms.iter().copied())
            .collect();
        lt.set("net.reload_ms", median(&reload));
        let st = stack.server.stats();
        lt.set(
            "net.rejected",
            (st.queries_rejected + st.conns_rejected) as f64,
        );
    }

    let mut final_answers = Vec::with_capacity(sh.check_pairs.len());
    for &(s, t) in sh.check_pairs {
        ops.0 += 1;
        match stack.clients[0].query(s, t) {
            Ok(r) => final_answers.push(r),
            Err(_) => {
                ops.1 += 1;
                final_answers.push(FAILED);
            }
        }
    }
    Ok(Phase {
        stages,
        rounds,
        end_live,
        final_answers,
        snapshot_answers: None,
        ops,
    })
}

fn layer_ctx<'a>(
    sh: &'a Shared,
    logs: &[CallerLog],
    oracle: &'a Arc<ApproxShortestPaths>,
    meta: OracleMeta,
    update_pair: (VertexId, VertexId),
) -> Ctx<'a> {
    Ctx {
        sz: sh.sz,
        oracle_seed: sh.cases[0].oracle_seed,
        graph: &sh.cases[0].graph,
        traffic: &sh.cases[0].traffic,
        replay_len: logs
            .iter()
            .map(|l| l.answers.len().min(sh.sz.replay_len))
            .collect(),
        oracle,
        meta,
        paths: sh.paths,
        rec: sh.rec,
        update_pair,
    }
}

/// `build`: every round runs the offline pipeline, queries the opened
/// snapshot in process from one thread and applies its updates through
/// the library; then (traced) the layers are replayed.
fn library(
    sh: &Shared,
    logs: &mut [CallerLog],
    upds: &mut [Updater],
    lt: &mut Table,
) -> Result<Phase, String> {
    let (a, sz) = (sh.a, sh.sz);
    let journal = sh.paths.journal();
    let mut stages = Vec::new();
    let mut rounds = Vec::new();
    let mut ops = (0u64, 0u64);
    let mut end_live = 0;
    let mut kept = None;
    for r in 0..sz.rounds {
        drop(kept.take());
        let c = sh.case_of(r);
        let case = &sh.cases[c];
        let (mut state, st) = setup::library(sh.paths, &case.edges, case.oracle_seed, case.first)?;
        stages.push(st);
        let (snapshot, meta) = (Arc::clone(&state.oracle), state.meta);
        ops.0 += 1;

        for &i in &case.traffic.warmup[0] {
            let (u, v) = case.traffic.catalog[i as usize];
            std::hint::black_box(snapshot.query(u, v));
            ops.0 += 1;
        }

        let clock = round_clock(sh, r);
        phase::local_reader(&snapshot, &case.traffic, 0, &clock, &mut logs[0]);
        let end = logs[0].finished.ok_or("the reader did not finish")?;
        rounds.push((end.duration_since(clock.start).as_secs_f64(), clock.traced));
        end_live = alloc::live_bytes();

        let mut consumed = 0;
        for _ in 0..UPDATES_PER_ROUND {
            upds[c].library(&mut state, &mut consumed, &journal)?;
        }
        kept = Some((state, snapshot, meta));
    }
    let (state, snapshot, meta) = kept.ok_or("no round ran")?;

    if a.trace {
        // the wire layers need a server: one over the same snapshot, with
        // the journal reload hook, torn down after the replays
        let service = Arc::new(OracleService::from_arc(
            snapshot.clone(),
            setup::service_config(),
        ));
        let mut server = setup::bind(&service, sh.cases[0].oracle_seed)?;
        let base = sh.paths.dir.join("replay.snap");
        setup::watch_journal(&server, &service, &base, state.graph.clone(), meta);
        let addr = server.local_addr();
        let upd = &upds[0];
        let ctx = layer_ctx(sh, logs, &snapshot, meta, upd.pair);
        layers::replays(&ctx, &|| setup::connect(addr), lt)?;
        lt.set("service.stats_ms", timed_ms(3, || drop(service.stats())));
        let mut client = setup::connect(addr)?;
        lt.set("net.stats_ms", timed_ms(3, || drop(client.server_stats())));
        let mut wire = Updater::new(upd.pair, upd.n, upd.expect);
        for _ in 0..UPDATES_PER_ROUND {
            wire.wire(&mut client, &psh_core::snapshot::journal_path(&base), None)?;
        }
        lt.set("net.reload_ms", median(&wire.reload_ms));
        drop(client);
        let st = server.shutdown();
        lt.set(
            "net.rejected",
            (st.queries_rejected + st.conns_rejected) as f64,
        );
        layers::builds(&ctx, lt)?;
        layers::journal(&ctx, lt)?;
    }

    let answer = |o: &ApproxShortestPaths| -> Vec<QueryResult> {
        sh.check_pairs
            .iter()
            .map(|&(s, t)| o.query(s, t).0)
            .collect()
    };
    let snapshot_answers = answer(&snapshot);
    let final_answers = answer(&state.oracle);
    ops.0 += 2 * sh.check_pairs.len() as u64;
    Ok(Phase {
        stages,
        rounds,
        end_live,
        final_answers,
        snapshot_answers: Some(snapshot_answers),
        ops,
    })
}
