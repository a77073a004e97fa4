//! The correctness gate. Every answer a run received is compared, byte
//! for byte, with a sequential `ApproxShortestPaths::query` on a fresh
//! `OracleBuilder` build of the graph that answered it (same seed, same
//! parameters); sampled answers are held to `exact ≤ answer ≤ 3·exact`
//! against Dijkstra; the spanner must be a subgraph with bounded sampled
//! stretch. A mismatch makes the run incorrect and its exit code non-zero.

use crate::config::{ORACLE_STRETCH_BOUND, POLICY, SPANNER_STRETCH_BOUND};
use crate::inputs::Traffic;
use crate::phase::{same, CallerLog};
use psh_core::oracle::QueryResult;
use psh_core::spanner::verify::stretch_sampled;
use psh_core::{ApproxShortestPaths, Spanner};
use psh_graph::traversal::dijkstra::dijkstra_pair;
use psh_graph::{CsrGraph, VertexId, INF};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Reference answers for catalog entries, computed on demand.
pub struct Reference<'a> {
    oracle: &'a ApproxShortestPaths,
    memo: Vec<Option<QueryResult>>,
}

impl<'a> Reference<'a> {
    pub fn new(oracle: &'a ApproxShortestPaths, catalog_len: usize) -> Reference<'a> {
        Reference {
            oracle,
            memo: vec![None; catalog_len],
        }
    }

    /// Fill the memo for `indices` with sequential `query` calls spread
    /// over the policy's threads (each call is itself sequential).
    pub fn fill(&mut self, traffic: &Traffic, indices: &[usize]) {
        let todo: Vec<usize> = indices
            .iter()
            .copied()
            .filter(|&i| self.memo[i].is_none())
            .collect();
        let threads = POLICY.threads().max(1);
        let chunk = todo.len().div_ceil(threads).max(1);
        let oracle = self.oracle;
        let results: Vec<Vec<(usize, QueryResult)>> = std::thread::scope(|scope| {
            let handles: Vec<_> = todo
                .chunks(chunk)
                .map(|part| {
                    scope.spawn(move || {
                        part.iter()
                            .map(|&i| {
                                let (s, t) = traffic.catalog[i];
                                (i, oracle.query(s, t).0)
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("reference thread panicked"))
                .collect()
        });
        for (i, r) in results.into_iter().flatten() {
            self.memo[i] = Some(r);
        }
    }

    pub fn get(&mut self, traffic: &Traffic, i: usize) -> QueryResult {
        if self.memo[i].is_none() {
            let (s, t) = traffic.catalog[i];
            self.memo[i] = Some(self.oracle.query(s, t).0);
        }
        self.memo[i].expect("filled above")
    }
}

/// Check every answer the callers received in `rounds` (rounds on one
/// graph, whose requests came from `traffic`) against `reference`.
/// Returns the number of answers checked.
pub fn answers(
    traffic: &Traffic,
    logs: &[CallerLog],
    rounds: &[usize],
    reference: &mut Reference,
) -> Result<u64, String> {
    fn sent<'a>(log: &'a CallerLog, rounds: &'a [usize]) -> impl Iterator<Item = usize> + 'a {
        rounds.iter().flat_map(move |&r| log.answer_range(r))
    }
    let mut used: Vec<usize> = logs
        .iter()
        .enumerate()
        .flat_map(|(c, log)| sent(log, rounds).map(move |k| traffic.index(c, k)))
        .collect();
    used.sort_unstable();
    used.dedup();
    reference.fill(traffic, &used);
    let mut checked = 0u64;
    for (c, log) in logs.iter().enumerate() {
        for k in sent(log, rounds) {
            let ans = &log.answers[k];
            if ans.distance.is_nan() {
                continue; // a failed call, counted in `failed`
            }
            let i = traffic.index(c, k);
            if !same(ans, &reference.get(traffic, i)) {
                let (s, t) = traffic.catalog[i];
                return Err(format!(
                    "caller {c} request {k} ({s}, {t}): answer {:?} differs from the reference",
                    ans
                ));
            }
            checked += 1;
        }
    }
    Ok(checked)
}

/// Stretch of sampled answers against exact Dijkstra distances on `g`:
/// each must satisfy `exact ≤ answer ≤ 3·exact`. Returns (max, mean).
pub fn stretch(
    g: &CsrGraph,
    pairs: &[(VertexId, VertexId)],
    got: &[QueryResult],
) -> Result<(f64, f64), String> {
    let mut max = 0.0f64;
    let mut sum = 0.0f64;
    let mut counted = 0usize;
    for (&(s, t), ans) in pairs.iter().zip(got) {
        if ans.distance.is_nan() {
            continue; // a failed call, counted in `failed`
        }
        let exact = dijkstra_pair(g, s, t);
        if exact == INF || exact == 0 {
            return Err(format!("check pair ({s}, {t}) is not a reachable pair"));
        }
        let ratio = ans.distance / exact as f64;
        if !(ans.distance >= exact as f64 - 1e-9
            && ans.distance <= ORACLE_STRETCH_BOUND * exact as f64 + 1e-9)
        {
            return Err(format!(
                "({s}, {t}): answer {} outside [{exact}, {ORACLE_STRETCH_BOUND}·{exact}]",
                ans.distance
            ));
        }
        max = max.max(ratio);
        sum += ratio;
        counted += 1;
    }
    Ok((max, sum / counted.max(1) as f64))
}

/// Sampled answers must be byte-identical to the reference oracle's.
pub fn sample(
    reference: &ApproxShortestPaths,
    pairs: &[(VertexId, VertexId)],
    got: &[QueryResult],
    what: &str,
) -> Result<(), String> {
    for (&(s, t), ans) in pairs.iter().zip(got) {
        if !ans.distance.is_nan() && !same(ans, &reference.query(s, t).0) {
            return Err(format!(
                "{what}: ({s}, {t}) answered {ans:?}, reference differs"
            ));
        }
    }
    Ok(())
}

/// The spanner is a subgraph of `g` and its sampled stretch stays within
/// the `16k + 4` bound. Returns the sampled maximum stretch.
pub fn spanner(g: &CsrGraph, sp: &Spanner, sample: usize, seed: u64) -> Result<f64, String> {
    if !sp.is_subgraph_of(g) {
        return Err("spanner has an edge that is not in the graph".into());
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let (max, _) = stretch_sampled(g, sp, sample, &mut rng);
    if max.is_nan() || max > SPANNER_STRETCH_BOUND {
        return Err(format!(
            "spanner sampled stretch {max} exceeds {SPANNER_STRETCH_BOUND}"
        ));
    }
    Ok(max)
}
