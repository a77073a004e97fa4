//! Integration tests: hopsets (Theorem 1.2) against the baselines, and
//! the served oracle's exact answers.

use psh::baselines::ks_hopset::sampled_clique_hopset;
use psh::graph::traversal::bellman_ford::{hop_limited_pair, PairQuery};
use psh::graph::traversal::dijkstra::dijkstra_pair;
use psh::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn params() -> HopsetParams {
    HopsetParams {
        epsilon: 0.5,
        delta: 1.5,
        gamma1: 0.25,
        gamma2: 0.75,
        k_conf: 1.0,
    }
}

#[test]
fn oracle_sound_and_accurate_on_many_random_pairs() {
    let g = generators::grid(30, 30);
    let oracle = OracleBuilder::new()
        .seed(Seed(1))
        .build(&g)
        .unwrap()
        .artifact;
    let mut qrng = StdRng::seed_from_u64(2);
    for _ in 0..40 {
        let s = qrng.random_range(0..g.n() as u32);
        let t = qrng.random_range(0..g.n() as u32);
        let (r, _) = oracle.query(s, t);
        assert_eq!(r.distance, oracle.query_exact(s, t) as f64, "({s},{t})");
    }
}

#[test]
fn hopset_query_depth_beats_plain_bfs_on_high_diameter() {
    // the whole point of Theorem 1.2: depth ≪ diameter
    let n = 3_000usize;
    let g = generators::path(n);
    let h = HopsetBuilder::unweighted()
        .params(params())
        .seed(Seed(3))
        .build(&g)
        .unwrap()
        .artifact
        .into_single();
    let extra = h.to_extra_edges();
    let (PairQuery { dist: d, hops, .. }, _) =
        hop_limited_pair(&g, Some(&extra), 0, (n - 1) as u32, n);
    assert!(d != INF);
    assert!(
        (hops as usize) < n / 4,
        "hops {hops} not far below the {n}-hop baseline"
    );
    // distortion within the Lemma 4.2 budget (generous constant)
    assert!((d as f64) <= 2.0 * (n - 1) as f64);
}

#[test]
fn ours_vs_sampled_clique_tradeoff() {
    // [KS97] is exact but pays ~m√n construction work; ours is near-linear
    // work at bounded distortion. Check both sides of the trade.
    let mut rng = StdRng::seed_from_u64(4);
    let g = generators::connected_random(1_200, 3_600, &mut rng);
    let ours_run = HopsetBuilder::unweighted()
        .params(params())
        .seed(Seed(5))
        .build(&g)
        .unwrap();
    let (ks, ks_cost) = sampled_clique_hopset(&g, &mut StdRng::seed_from_u64(5));
    assert!(
        ours_run.cost.work < ks_cost.work,
        "ours {} work should undercut sampled-clique {}",
        ours_run.cost.work,
        ks_cost.work
    );
    // and both hopsets are structurally valid
    ours_run
        .artifact
        .into_single()
        .validate_no_shortcuts_below_distance(&g)
        .unwrap();
    ks.validate_no_shortcuts_below_distance(&g).unwrap();
}

#[test]
fn weighted_oracle_end_to_end() {
    let mut rng = StdRng::seed_from_u64(6);
    let base = generators::grid(14, 14);
    let g = generators::with_uniform_weights(&base, 1, 100, &mut rng);
    let oracle = OracleBuilder::new()
        .seed(Seed(6))
        .build(&g)
        .unwrap()
        .artifact;
    let mut qrng = StdRng::seed_from_u64(7);
    for _ in 0..25 {
        let s = qrng.random_range(0..g.n() as u32);
        let t = qrng.random_range(0..g.n() as u32);
        let (r, _) = oracle.query(s, t);
        assert_eq!(r.distance, oracle.query_exact(s, t) as f64, "({s},{t})");
    }
}

#[test]
fn appendix_b_plus_dijkstra_handles_astronomical_weight_ratios() {
    // weights spanning 1e15 ≫ n³, so distances can pass 2⁵³: the oracle
    // builder refuses such inputs up front, and the Appendix B
    // decomposition routes queries to poly-bounded quotient graphs
    let mut rng = StdRng::seed_from_u64(8);
    let base = generators::connected_random(300, 700, &mut rng);
    let g = generators::with_log_uniform_weights(&base, 1e15, &mut rng);
    let err = OracleBuilder::new().build(&g).unwrap_err();
    assert!(
        matches!(err, PshError::DistancesExceedF64 { .. }),
        "expected the 2^53 distance cap to fire, got {err}"
    );
    let (dec, _) = WeightClassDecomposition::build(&g, 0.2);
    assert!(dec.max_query_weight_ratio() <= dec.base.powi(3));
    let mut qrng = StdRng::seed_from_u64(9);
    for _ in 0..30 {
        let s = qrng.random_range(0..g.n() as u32);
        let t = qrng.random_range(0..g.n() as u32);
        let approx = dec.query(s, t);
        let exact = dijkstra_pair(&g, s, t);
        if exact == INF {
            assert_eq!(approx, INF);
            continue;
        }
        assert!(approx <= exact);
        assert!(
            approx as f64 >= 0.8 * exact as f64 - 1.0,
            "({s},{t}): {approx} vs {exact}"
        );
    }
}

#[test]
fn definition_2_4_probability_clause() {
    // Definition 2.4(3): for any u, v, with probability ≥ 1/2 over the
    // construction's randomness, dist^h_{E∪E'}(u,v) ≤ (1+ε)·dist(u,v)
    // at the Lemma 4.2 hop bound h. We measure the success fraction over
    // independent constructions on the hop-adversarial path.
    let n = 1_024usize;
    let g = generators::path(n);
    let p = params();
    let (s, t) = (0u32, (n - 1) as u32);
    let exact = (n - 1) as u64;
    let eps_total = 1.0; // ε·log_ρ n budget with these test params
    let mut successes = 0;
    let trials = 10;
    let builder = HopsetBuilder::unweighted().params(p);
    for seed in 0..trials {
        let h = builder
            .clone()
            .seed(Seed(seed))
            .build(&g)
            .unwrap()
            .artifact
            .into_single();
        let extra = h.to_extra_edges();
        let budget = p.hop_bound(n, p.beta0(n), exact);
        let (PairQuery { dist: d, .. }, _) = hop_limited_pair(&g, Some(&extra), s, t, budget);
        if d != INF && (d as f64) <= (1.0 + eps_total) * exact as f64 {
            successes += 1;
        }
    }
    assert!(
        successes * 2 >= trials,
        "Definition 2.4 clause failed: {successes}/{trials} constructions succeeded"
    );
}

#[test]
fn hopset_plus_spanner_compose() {
    // run the hopset on a spanner: a downstream pattern (sparsify first,
    // then shortcut) — both guarantees must survive composition
    let mut rng = StdRng::seed_from_u64(10);
    let g = generators::erdos_renyi(800, 8_000, &mut rng);
    let s = SpannerBuilder::unweighted(2.0)
        .seed(Seed(11))
        .build(&g)
        .unwrap()
        .artifact;
    let h_graph = s.as_graph();
    let hopset = HopsetBuilder::unweighted()
        .params(params())
        .seed(Seed(12))
        .build(&h_graph)
        .unwrap()
        .artifact
        .into_single();
    hopset
        .validate_no_shortcuts_below_distance(&h_graph)
        .unwrap();
    let extra = hopset.to_extra_edges();
    let (PairQuery { dist: d, .. }, _) =
        hop_limited_pair(&h_graph, Some(&extra), 0, 799, h_graph.n());
    let exact_g = dijkstra_pair(&g, 0, 799);
    // spanner stretch (≤ 18) times hopset distortion (≤ 2)
    assert!(d as f64 <= 36.0 * exact_g.max(1) as f64);
}
