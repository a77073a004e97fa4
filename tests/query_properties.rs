//! Property tests for the serving path: on random weighted and
//! unweighted graphs, every oracle `query` / `query_batch` answer equals
//! the exact Dijkstra distance (∞ for disconnected pairs), across
//! `Sequential` and `Parallel { 4 }` policies — and the snapshot round
//! trip preserves every answer and `Cost` bit for bit.
//!
//! The oracle answers with a bidirectional Dijkstra and the referee is
//! one-sided `dijkstra_pair`: two different searches, so these tests
//! compare two things. The two property tests keep their names from when
//! the served oracle was approximate; their stretch bound is now 1.

use proptest::prelude::*;
use psh::graph::traversal::dijkstra::dijkstra_pair;
use psh::graph::{SnapshotSource, Verify};
use psh::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Check one answer against the referee: exact, or ∞ when disconnected.
fn assert_exact(g: &CsrGraph, r: QueryResult, s: u32, t: u32) {
    let exact = dijkstra_pair(g, s, t);
    let exact = if exact == INF {
        f64::INFINITY
    } else {
        exact as f64
    };
    assert_eq!(r.distance, exact, "({s},{t})");
    assert!(r.upper_bound);
}

fn run_workload(g: &CsrGraph, seed: u64, pairs: &[(u32, u32)]) {
    let run = OracleBuilder::new().seed(Seed(seed)).build(g).unwrap();

    // single queries are exact…
    for &(s, t) in pairs {
        let (r, _) = run.artifact.query(s, t);
        assert_exact(g, r, s, t);
    }
    // …and query_batch returns the same answers under both policies
    let (seq, seq_cost) = run.artifact.query_batch(pairs, ExecutionPolicy::Sequential);
    let (par, par_cost) = run
        .artifact
        .query_batch(pairs, ExecutionPolicy::Parallel { threads: 4 });
    assert_eq!(seq, par);
    assert_eq!(seq_cost, par_cost);
    for (&(s, t), &r) in pairs.iter().zip(&seq) {
        assert_exact(g, r, s, t);
    }
    // the snapshot round trip changes nothing
    let meta = OracleMeta::of_run(&run, HopsetParams::default());
    let image = snapshot::write_oracle_v2_bytes(&run.artifact, &meta).unwrap();
    let source = Arc::new(SnapshotSource::from_bytes(&image));
    let (served, _) = snapshot::read_oracle_v2(source, Verify::Bounds).unwrap();
    let (loaded, loaded_cost) = served.query_batch(pairs, ExecutionPolicy::Parallel { threads: 4 });
    assert_eq!(loaded, seq);
    assert_eq!(loaded_cost, seq_cost);
}

fn pairs_strategy(n: usize) -> impl Strategy<Value = Vec<(u32, u32)>> {
    proptest::collection::vec((0..n as u32, 0..n as u32), 1..12)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Unit-weight soups: every answer exact (disconnected pairs answer
    /// ∞), Sequential and Parallel{4} agreeing bit for bit.
    #[test]
    fn prop_unweighted_oracle_stretch_sandwich(
        raw in proptest::collection::vec((0u32..40, 0u32..40), 0..140),
        pairs in pairs_strategy(40),
        seed in 0u64..500,
    ) {
        let g = CsrGraph::from_edges(40, raw.into_iter().map(|(u, v)| Edge::new(u, v, 1)));
        run_workload(&g, seed, &pairs);
    }

    /// Weighted soups: every answer exact, same policy agreement.
    #[test]
    fn prop_weighted_oracle_stretch_sandwich(
        raw in proptest::collection::vec((0u32..30, 0u32..30, 1u64..64), 0..100),
        pairs in pairs_strategy(30),
        seed in 0u64..500,
    ) {
        let g = CsrGraph::from_edges(30, raw.into_iter().map(|(u, v, w)| Edge::new(u, v, w)));
        run_workload(&g, seed, &pairs);
    }
}

/// Every answer of a default oracle equals `query_exact` (∞ for
/// disconnected pairs) on grids, king grids, an R-MAT, a connected random
/// graph, a weighted path and a disconnected graph. The owned oracle and
/// its v2 image mapped in place give identical answers and `Cost` under
/// `Sequential` and `Parallel { 2 }`.
#[test]
fn default_oracles_answer_exactly_owned_and_mapped() {
    let mut rng = StdRng::seed_from_u64(21);
    let weigh = |g: &CsrGraph, rng: &mut StdRng| generators::with_log_uniform_weights(g, 64.0, rng);
    let rmat = generators::rmat(256, 16 * 256, &mut rng);
    let random = generators::connected_random(300, 300, &mut rng);
    let sparse = generators::erdos_renyi(240, 180, &mut rng);
    let graphs = [
        ("grid", weigh(&generators::grid(20, 20), &mut rng)),
        ("king grid", weigh(&generators::grid2d(20, 20), &mut rng)),
        ("rmat", weigh(&rmat, &mut rng)),
        ("connected random", weigh(&random, &mut rng)),
        ("path", weigh(&generators::path(300), &mut rng)),
        ("disconnected", weigh(&sparse, &mut rng)),
    ];
    let policies = [
        ExecutionPolicy::Sequential,
        ExecutionPolicy::Parallel { threads: 2 },
    ];
    for (name, g) in &graphs {
        let n = g.n() as u32;
        let pairs: Vec<(u32, u32)> = (0..48)
            .map(|_| (rng.random_range(0..n), rng.random_range(0..n)))
            .collect();
        let run = OracleBuilder::new().seed(Seed(5)).build(g).unwrap();
        let meta = OracleMeta::of_run(&run, HopsetParams::default());
        let image = snapshot::write_oracle_v2_bytes(&run.artifact, &meta).unwrap();
        let source = Arc::new(SnapshotSource::from_bytes(&image));
        let (mapped, _) = snapshot::read_oracle_v2(source, Verify::Bounds).unwrap();
        assert!(mapped.is_mapped());
        let (answers, cost) = run
            .artifact
            .query_batch(&pairs, ExecutionPolicy::Sequential);
        for oracle in [&run.artifact, &mapped] {
            for policy in policies {
                assert_eq!(
                    oracle.query_batch(&pairs, policy),
                    (answers.clone(), cost),
                    "{name}, {policy}, mapped: {}",
                    oracle.is_mapped()
                );
            }
        }
        for (&(s, t), r) in pairs.iter().zip(&answers) {
            let exact = run.artifact.query_exact(s, t);
            let exact = if exact == INF {
                f64::INFINITY
            } else {
                exact as f64
            };
            assert_eq!(r.distance, exact, "{name}, ({s}, {t})");
        }
    }
}
