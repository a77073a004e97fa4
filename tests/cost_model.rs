//! Integration tests: the work/depth claims of the theorems, measured by
//! the cost model across scales — the quantitative backbone of Figures 1
//! and 2.

use psh::graph::traversal::dial::dial_sssp;
use psh::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn spanner_work_scales_linearly_in_m() {
    // Theorem 1.1: O(m) work. Measure work at two scales; the ratio must
    // track m, not m·k or m·log.
    let mk = |n: usize| {
        let mut rng = StdRng::seed_from_u64(1);
        generators::connected_random(n, 4 * n, &mut rng)
    };
    let g1 = mk(1_000);
    let g2 = mk(4_000);
    let builder = SpannerBuilder::unweighted(3.0).seed(Seed(2));
    let c1 = builder.build(&g1).unwrap().cost;
    let c2 = builder.build(&g2).unwrap().cost;
    let ratio = c2.work as f64 / c1.work as f64;
    let m_ratio = g2.m() as f64 / g1.m() as f64;
    assert!(
        ratio < 2.5 * m_ratio,
        "work ratio {ratio} vs m ratio {m_ratio} — superlinear?"
    );
}

#[test]
fn spanner_depth_scales_with_k_not_n() {
    // O(k log* n) depth: quadrupling n must not quadruple depth.
    let mk = |n: usize| {
        let mut rng = StdRng::seed_from_u64(3);
        generators::connected_random(n, 4 * n, &mut rng)
    };
    let g1 = mk(1_000);
    let g2 = mk(4_000);
    let builder = SpannerBuilder::unweighted(3.0).seed(Seed(4));
    let c1 = builder.build(&g1).unwrap().cost;
    let c2 = builder.build(&g2).unwrap().cost;
    assert!(
        (c2.depth as f64) < 2.0 * c1.depth as f64,
        "depth went {} -> {} on a 4x n increase",
        c1.depth,
        c2.depth
    );
}

#[test]
fn clustering_depth_tracks_inverse_beta() {
    let g = generators::path(2_000);
    let c_fine = ClusterBuilder::new(0.4)
        .seed(Seed(5))
        .build(&g)
        .unwrap()
        .cost;
    let c_coarse = ClusterBuilder::new(0.05)
        .seed(Seed(5))
        .build(&g)
        .unwrap()
        .cost;
    // β⁻¹ grew 8x; depth should grow severalfold but not explode past it
    let ratio = c_coarse.depth as f64 / c_fine.depth as f64;
    assert!(
        ratio > 2.0 && ratio < 32.0,
        "depth ratio {ratio} out of the β⁻¹ envelope"
    );
}

#[test]
fn bfs_depth_equals_eccentricity_plus_constant() {
    // on unit weights Dial's rounds are BFS levels
    let g = generators::grid(40, 40);
    let (r, cost) = dial_sssp(&g, 0);
    let ecc = r.max_finite_dist();
    assert!(cost.depth >= ecc);
    assert!(cost.depth <= ecc + 3);
}

fn hopset_params() -> HopsetParams {
    HopsetParams {
        epsilon: 0.5,
        delta: 1.5,
        gamma1: 0.25,
        gamma2: 0.75,
        k_conf: 1.0,
    }
}

#[test]
fn hopset_work_is_near_linear_in_m() {
    // Theorem 4.4: O(m log^{1+δ} n · ε^{-δ}) work — near-linear. Compare
    // two scales.
    let mk = |n: usize| {
        let mut rng = StdRng::seed_from_u64(6);
        generators::connected_random(n, 3 * n, &mut rng)
    };
    let g1 = mk(1_000);
    let g2 = mk(4_000);
    let builder = HopsetBuilder::unweighted()
        .params(hopset_params())
        .seed(Seed(7));
    let c1 = builder.build(&g1).unwrap().cost;
    let c2 = builder.build(&g2).unwrap().cost;
    let ratio = c2.work as f64 / c1.work as f64;
    let m_ratio = g2.m() as f64 / g1.m() as f64;
    assert!(
        ratio < 6.0 * m_ratio,
        "hopset work ratio {ratio} vs m ratio {m_ratio}"
    );
}

#[test]
fn hopset_construction_depth_grows_sublinearly() {
    // Theorem 4.4 depth is O(n^{γ2} log² n) — sublinear in n. The w.h.p.
    // machinery behind that bound (Lemma 2.1's k·β⁻¹·ln n cluster radius)
    // only bites once k·β₀⁻¹·ln n < n, i.e. far beyond test scales on a
    // *path* (whose pieces are as deep as they are big); on bounded-degree
    // random graphs the preconditions hold already at n ≈ 10³, so that is
    // where the scaling shape is measurable: quadrupling n must multiply
    // depth by clearly less than 4 (with γ2 = 0.75 the prediction is
    // ≈ 4^0.75 ≈ 2.8; observed ratios on this family are ≈ 1.1).
    let mk = |n: usize| {
        let mut rng = StdRng::seed_from_u64(8);
        generators::connected_random(n, 3 * n, &mut rng)
    };
    let g1 = mk(1_000);
    let g2 = mk(4_000);
    let builder = HopsetBuilder::unweighted()
        .params(hopset_params())
        .seed(Seed(8));
    let c1 = builder.build(&g1).unwrap().cost;
    let c2 = builder.build(&g2).unwrap().cost;
    let ratio = c2.depth as f64 / c1.depth as f64;
    assert!(
        ratio < 3.6,
        "depth ratio {ratio} for a 4x n increase — not sublinear (depths {} -> {})",
        c1.depth,
        c2.depth
    );
}
