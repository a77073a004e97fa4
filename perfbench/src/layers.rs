//! Per-layer measurements of a traced run.
//!
//! The wire hides the server's layers, so the traced run replays a prefix
//! of the measured request sequence one layer further down each time: over
//! fresh connections (`NetClient::query`), then through a fresh
//! `OracleService` from the same number of threads
//! (`OracleService::query`), then on one thread straight into the epoch-0
//! oracle (`ApproxShortestPaths::query`). A layer's self
//! time is its median span minus the next layer's on the same inputs.
//! The builders and the journal are timed around their public calls on
//! the run's own graph. Every timing comes from the span recorder.

use crate::config::{Sizes, POLICY};
use crate::inputs::Traffic;
use crate::metrics::{median, pct, Table};
use crate::phase::{library_update, same};
use crate::setup::{oracle_builder, service_config, Offline, Paths};
use crate::trace::Recorder;
use psh_cluster::ClusterBuilder;
use psh_core::oracle::QueryResult;
use psh_core::service::OracleService;
use psh_core::snapshot::OracleMeta;
use psh_core::{ApproxShortestPaths, HopsetBuilder, HopsetParams, Seed};
use psh_exec::ExecutionPolicy;
use psh_graph::{CsrGraph, VertexId};
use psh_net::client::NetClient;
use std::sync::Arc;
use std::time::Instant;

pub struct Ctx<'a> {
    pub sz: &'a Sizes,
    pub oracle_seed: u64,
    pub graph: &'a CsrGraph,
    pub traffic: &'a Traffic,
    /// Requests to replay, per caller of the measured traffic.
    pub replay_len: Vec<usize>,
    pub oracle: &'a Arc<ApproxShortestPaths>,
    pub meta: OracleMeta,
    pub paths: &'a Paths,
    pub rec: &'a Recorder,
    pub update_pair: (VertexId, VertexId),
}

impl Ctx<'_> {
    fn req(c: usize, k: usize) -> u64 {
        ((c as u64) << 32) | k as u64
    }

    /// Replay both callers' prefixes, one thread per caller: each thread
    /// makes its own call handle with `make`, and every call gets a span
    /// called `name`.
    fn replay<M, C>(&self, name: &'static str, make: M) -> Result<Vec<Vec<QueryResult>>, String>
    where
        M: Fn() -> Result<C, String> + Sync,
        C: FnMut(VertexId, VertexId) -> Result<QueryResult, String>,
    {
        std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .replay_len
                .iter()
                .enumerate()
                .map(|(c, &len)| {
                    let make = &make;
                    scope.spawn(move || -> Result<Vec<QueryResult>, String> {
                        let mut call = make()?;
                        let mut spans = self.rec.buffer(100 + c as u64, len);
                        let mut out = Vec::with_capacity(len);
                        for k in 0..len {
                            let (s, t) = self.traffic.pair(c, k);
                            let t0 = Instant::now();
                            let ans = call(s, t)?;
                            spans.record(name, 0, Self::req(c, k), t0, Instant::now());
                            out.push(ans);
                        }
                        self.rec.absorb(spans);
                        Ok(out)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().map_err(|_| "replay thread panicked".to_string())?)
                .collect()
        })
    }
}

/// Replay the prefix at the wire, service and oracle layers; record
/// their latencies, self times and the service's batching and cache
/// behaviour (the cache is off, as in the measured phase). Replayed
/// answers must agree across the three layers.
pub fn replays(
    ctx: &Ctx,
    connect: &(dyn Fn() -> Result<NetClient, String> + Sync),
    t: &mut Table,
) -> Result<(), String> {
    let net = ctx.replay("net.query", || {
        let mut client = connect()?;
        Ok(move |s, t| client.query(s, t).map_err(|e| format!("net replay: {e}")))
    })?;

    let service = OracleService::from_arc(ctx.oracle.clone(), service_config());
    std::thread::scope(|scope| {
        for list in &ctx.traffic.warmup[..ctx.replay_len.len()] {
            let (service, traffic) = (&service, ctx.traffic);
            scope.spawn(move || {
                for &i in list {
                    let (s, t) = traffic.catalog[i as usize];
                    service.query(s, t);
                }
            });
        }
    });
    service.reset_stats();
    let service = &service;
    let svc = ctx.replay("service.query", || Ok(|s, t| Ok(service.query(s, t))))?;
    let stats = service.stats();
    let swaps: Vec<f64> = (0..ctx.sz.layer_reps)
        .map(|_| {
            let t0 = Instant::now();
            service.swap_oracle(ctx.oracle.clone());
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();

    let mut work = Vec::new();
    let mut depth = Vec::new();
    let mut spans = ctx.rec.buffer(99, 0);
    let mut direct = Vec::new();
    for (c, &len) in ctx.replay_len.iter().enumerate() {
        let mut out = Vec::with_capacity(len);
        for k in 0..len {
            let (s, t) = ctx.traffic.pair(c, k);
            let t0 = Instant::now();
            let (ans, cost) = ctx.oracle.query(s, t);
            spans.record("oracle.query", 0, Ctx::req(c, k), t0, Instant::now());
            work.push(cost.work as f64);
            depth.push(cost.depth as f64);
            out.push(ans);
        }
        direct.push(out);
    }
    ctx.rec.absorb(spans);

    for ((net, svc), direct) in net.iter().zip(&svc).zip(&direct) {
        for ((a, b), c) in net.iter().zip(svc).zip(direct) {
            if !(same(a, c) && same(b, c)) {
                return Err(format!(
                    "replayed layers disagree: wire {a:?}, service {b:?}, oracle {c:?}"
                ));
            }
        }
    }

    let lat = |name: &str| ctx.rec.durations_ms(name);
    let (net_ms, svc_ms, orc_ms) = (lat("net.query"), lat("service.query"), lat("oracle.query"));
    let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len().max(1) as f64;
    t.set("oracle.query_ms.p50", median(&orc_ms));
    t.set("oracle.query_ms.p99", pct(&orc_ms, 99.0));
    t.set("oracle.query_work", mean(&work));
    t.set("oracle.query_depth", mean(&depth));
    t.set("service.query_ms.p50", median(&svc_ms));
    t.set("service.query_ms.p99", pct(&svc_ms, 99.0));
    t.set("service.self_ms.p50", median(&svc_ms) - median(&orc_ms));
    let misses = stats.served - stats.cache_hits;
    t.set(
        "service.batch_mean",
        if stats.batches > 0 {
            misses as f64 / stats.batches as f64
        } else {
            0.0
        },
    );
    t.set(
        "service.hit_share",
        stats.cache_hits as f64 / stats.served.max(1) as f64,
    );
    t.set("service.swap_ms", median(&swaps));
    t.set("net.query_ms.p50", median(&net_ms));
    t.set("net.query_ms.p99", pct(&net_ms, 99.0));
    t.set("net.self_ms.p50", median(&net_ms) - median(&svc_ms));

    // the same batch under each policy: answers and cost must agree
    let batch: Vec<(VertexId, VertexId)> = (0..ctx.sz.batch_len.min(ctx.replay_len[0].max(1)))
        .map(|k| ctx.traffic.pair(0, k))
        .collect();
    let mut times = [Vec::new(), Vec::new()];
    let mut results = Vec::new();
    for _ in 0..ctx.sz.layer_reps {
        for (slot, policy) in [ExecutionPolicy::Sequential, POLICY]
            .into_iter()
            .enumerate()
        {
            let t0 = Instant::now();
            let r = ctx.oracle.query_batch(&batch, policy);
            times[slot].push(t0.elapsed().as_secs_f64());
            results.push(r);
        }
    }
    if results.windows(2).any(|w| w[0] != w[1]) {
        return Err("query_batch differs between Sequential and Parallel".into());
    }
    t.set("exec.batch_speedup", median(&times[0]) / median(&times[1]));
    Ok(())
}

/// Time the builders on the run's first graph: clustering and hopset at the
/// oracle's top-level parameters, and the oracle under both policies.
pub fn builds(ctx: &Ctx, t: &mut Table) -> Result<(), String> {
    let g = ctx.graph;
    let params = HopsetParams::default();
    let seed = Seed(ctx.oracle_seed);
    let reps = ctx.sz.layer_reps;
    let timed = |f: &mut dyn FnMut() -> Result<(), String>| -> Result<Vec<f64>, String> {
        (0..reps)
            .map(|_| {
                let t0 = Instant::now();
                f()?;
                Ok(t0.elapsed().as_secs_f64())
            })
            .collect()
    };

    let mut cluster_work = 0;
    let cluster = ClusterBuilder::new(params.beta0_weighted(g.n()))
        .execution(POLICY)
        .seed(seed);
    let times = timed(&mut || {
        let run = cluster.build(g).map_err(|e| format!("clustering: {e}"))?;
        cluster_work = run.cost.work;
        Ok(())
    })?;
    t.set("cluster.build_s", median(&times));
    t.set("cluster.work", cluster_work as f64);

    let mut hop = (0, 0, 0);
    let hopset = HopsetBuilder::weighted(0.5)
        .params(params)
        .execution(POLICY)
        .seed(seed);
    let times = timed(&mut || {
        let run = hopset.build(g).map_err(|e| format!("hopset: {e}"))?;
        hop = (run.artifact.size(), run.cost.work, run.cost.depth);
        Ok(())
    })?;
    t.set("hopset.build_s", median(&times));
    t.set("hopset.edges", hop.0 as f64);
    t.set("hopset.work", hop.1 as f64);
    t.set("hopset.depth", hop.2 as f64);

    let mut per_policy = [Vec::new(), Vec::new()];
    for _ in 0..reps {
        for (slot, policy) in [ExecutionPolicy::Sequential, POLICY]
            .into_iter()
            .enumerate()
        {
            let t0 = Instant::now();
            oracle_builder(ctx.oracle_seed)
                .execution(policy)
                .build(g)
                .map_err(|e| format!("oracle build: {e}"))?;
            per_policy[slot].push(t0.elapsed().as_secs_f64());
        }
    }
    t.set(
        "exec.build_speedup",
        median(&per_policy[0]) / median(&per_policy[1]),
    );
    Ok(())
}

/// Time the journal calls an update goes through ([`library_update`]) on
/// a scratch journal over the run's first graph: `append_journal`, then
/// `load_journal` + `apply_deltas` (the fold), then `rebuild_oracle` for
/// the folded graph.
pub fn journal(ctx: &Ctx, t: &mut Table) -> Result<(), String> {
    let path = ctx.paths.dir.join("replay.journal");
    let _ = std::fs::remove_file(&path);
    let mut state = Offline {
        graph: ctx.graph.clone(),
        oracle: ctx.oracle.clone(),
        meta: ctx.meta,
    };
    let mut consumed = 0;
    let (mut append, mut fold, mut rebuild) = (Vec::new(), Vec::new(), Vec::new());
    for k in 0..ctx.sz.layer_reps as u64 {
        let delta = crate::inputs::update_delta(ctx.graph.n(), ctx.update_pair, k);
        let steps = library_update(&mut state, &mut consumed, &path, &delta)?;
        append.push(steps.append_ms);
        fold.push(steps.fold_ms);
        rebuild.push(steps.rebuild_ms);
    }
    t.set("journal.append_ms", median(&append));
    t.set("journal.fold_ms", median(&fold));
    t.set("journal.rebuild_ms", median(&rebuild));
    Ok(())
}
