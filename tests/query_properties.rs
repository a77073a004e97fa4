//! Property tests for the serving path: on random weighted and
//! unweighted graphs, every oracle `query` / `query_batch` answer is
//! sandwiched between the exact Dijkstra distance and a stretch multiple
//! of it, across `Sequential` and `Parallel { 4 }` policies — and the
//! snapshot round trip preserves every answer bit for bit.
//!
//! At `OracleBuilder::new()` defaults every answer is exact, owned or
//! mapped from a v2 image, under either policy; the band loop stops at
//! its first exact band, so that is the one contract pinning the answers
//! the bounded sweep and the band cut must leave unchanged.
//!
//! Stretch calibration: with the test parameters (`ε = 0.5`, `δ = 1.5`,
//! `γ₁ = 0.25`, `γ₂ = 0.75`) the unweighted hop budget is generous at
//! these sizes, so unweighted answers stay within `2×` exact (the same
//! bound the targeted oracle tests assert on grids); the weighted path
//! adds the rounding distortion of Lemma 5.2, bounded well inside `3×`
//! (the bound the §5 tests use).

use proptest::prelude::*;
use psh::graph::traversal::dijkstra::dijkstra_pair;
use psh::graph::{SnapshotSource, Verify};
use psh::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

fn test_params() -> HopsetParams {
    HopsetParams {
        epsilon: 0.5,
        delta: 1.5,
        gamma1: 0.25,
        gamma2: 0.75,
        k_conf: 1.0,
    }
}

/// Check the stretch sandwich for one pair; `stretch` is the calibrated
/// upper factor for the construction under test.
fn assert_sandwich(g: &CsrGraph, r: QueryResult, s: u32, t: u32, stretch: f64) {
    let exact = dijkstra_pair(g, s, t);
    if exact == INF {
        assert!(
            r.distance.is_infinite(),
            "({s},{t}) disconnected but answered {}",
            r.distance
        );
    } else {
        assert!(
            r.distance >= exact as f64 - 1e-9,
            "({s},{t}): answer {} undershoots exact {exact}",
            r.distance
        );
        assert!(
            r.distance <= stretch * exact as f64 + 1e-9,
            "({s},{t}): answer {} exceeds {stretch}× exact {exact}",
            r.distance
        );
    }
}

fn run_workload(g: &CsrGraph, mode: OracleMode, seed: u64, pairs: &[(u32, u32)], stretch: f64) {
    let run = OracleBuilder::new()
        .params(test_params())
        .mode(mode)
        .seed(Seed(seed))
        .build(g)
        .unwrap();

    // single queries satisfy the sandwich…
    for &(s, t) in pairs {
        let (r, _) = run.artifact.query(s, t);
        assert_sandwich(g, r, s, t, stretch);
    }
    // …and query_batch returns the same answers under both policies
    let (seq, seq_cost) = run.artifact.query_batch(pairs, ExecutionPolicy::Sequential);
    let (par, par_cost) = run
        .artifact
        .query_batch(pairs, ExecutionPolicy::Parallel { threads: 4 });
    assert_eq!(seq, par);
    assert_eq!(seq_cost, par_cost);
    for (&(s, t), &r) in pairs.iter().zip(&seq) {
        assert_sandwich(g, r, s, t, stretch);
    }
    // the snapshot round trip changes nothing
    let meta = OracleMeta::of_run(&run, test_params());
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

    /// Unweighted oracle: `exact ≤ approx ≤ 2·exact` on arbitrary
    /// unit-weight soups (disconnected pairs answer ∞), Sequential and
    /// Parallel{4} agreeing bit for bit.
    #[test]
    fn prop_unweighted_oracle_stretch_sandwich(
        raw in proptest::collection::vec((0u32..40, 0u32..40), 0..140),
        pairs in pairs_strategy(40),
        seed in 0u64..500,
    ) {
        let g = CsrGraph::from_edges(40, raw.into_iter().map(|(u, v)| Edge::new(u, v, 1)));
        run_workload(&g, OracleMode::Unweighted, seed, &pairs, 2.0);
    }

    /// Weighted oracle (§5 bands): `exact ≤ approx ≤ 3·exact` on
    /// arbitrary weighted soups, same policy agreement.
    #[test]
    fn prop_weighted_oracle_stretch_sandwich(
        raw in proptest::collection::vec((0u32..30, 0u32..30, 1u64..64), 0..100),
        pairs in pairs_strategy(30),
        seed in 0u64..500,
    ) {
        let g = CsrGraph::from_edges(30, raw.into_iter().map(|(u, v, w)| Edge::new(u, v, w)));
        run_workload(&g, OracleMode::Weighted, seed, &pairs, 3.0);
    }
}

/// Every answer of a default oracle equals `query_exact` (∞ for
/// disconnected pairs) on grids, king grids, an R-MAT, a connected random
/// graph, a weighted path and a disconnected graph at η = 0.25, 0.5 and
/// 0.75. The owned oracle and its v2 image mapped in place give identical
/// answers and `Cost` under `Sequential` and `Parallel { 2 }`.
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
        for eta in [0.25, 0.5, 0.75] {
            let run = OracleBuilder::new()
                .eta(eta)
                .seed(Seed(5))
                .build(g)
                .unwrap();
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
                        "{name}, η = {eta}, {policy}, mapped: {}",
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
                assert_eq!(r.distance, exact, "{name}, η = {eta}, ({s}, {t})");
            }
        }
    }
}
