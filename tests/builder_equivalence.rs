//! Builder provenance equivalence: `.seed(Seed(s)).build(g)` is exactly
//! sugar for driving the builder's RNG spine (`build_with_rng`) with
//! `StdRng::seed_from_u64(s)` — byte-identical artifacts and costs. This
//! is the guarantee that makes the recorded seed in every [`Run`] an
//! honest replay handle, and lets callers that thread one RNG through a
//! composite construction trust they get the same bytes a seeded build
//! would produce. Plus: invalid parameters come back as typed
//! [`PshError`]/[`ClusterError`] values instead of panics.

use psh::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn unit_graph() -> CsrGraph {
    let mut rng = StdRng::seed_from_u64(77);
    generators::connected_random(500, 1_500, &mut rng)
}

fn weighted_graph() -> CsrGraph {
    let mut rng = StdRng::seed_from_u64(78);
    let base = generators::connected_random(300, 900, &mut rng);
    generators::with_log_uniform_weights(&base, 1024.0, &mut rng)
}

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
fn cluster_build_matches_rng_spine() {
    let g = unit_graph();
    for seed in [0u64, 1, 42, 20150625] {
        let run = ClusterBuilder::new(0.3).seed(Seed(seed)).build(&g).unwrap();
        let (spine, spine_cost) = ClusterBuilder::new(0.3)
            .build_with_rng(&g, &mut StdRng::seed_from_u64(seed))
            .unwrap();
        assert_eq!(run.artifact, spine, "seed {seed}");
        assert_eq!(run.cost, spine_cost, "seed {seed}");
        assert_eq!(run.seed, Seed(seed));
    }
}

#[test]
fn unweighted_spanner_build_matches_rng_spine() {
    let g = unit_graph();
    for seed in [0u64, 7, 99] {
        let run = SpannerBuilder::unweighted(3.0)
            .seed(Seed(seed))
            .build(&g)
            .unwrap();
        let (spine, spine_cost) = SpannerBuilder::unweighted(3.0)
            .build_with_rng(&g, &mut StdRng::seed_from_u64(seed))
            .unwrap();
        assert_eq!(run.artifact, spine, "seed {seed}");
        assert_eq!(run.cost, spine_cost, "seed {seed}");
    }
}

#[test]
fn weighted_spanner_build_matches_rng_spine() {
    let g = weighted_graph();
    for seed in [0u64, 5, 123] {
        let run = SpannerBuilder::weighted(2.0)
            .seed(Seed(seed))
            .build(&g)
            .unwrap();
        let (spine, spine_cost) = SpannerBuilder::weighted(2.0)
            .build_with_rng(&g, &mut StdRng::seed_from_u64(seed))
            .unwrap();
        assert_eq!(run.artifact, spine, "seed {seed}");
        assert_eq!(run.cost, spine_cost, "seed {seed}");
    }
}

#[test]
fn hopset_build_matches_rng_spine() {
    let g = unit_graph();
    for seed in [0u64, 3, 888] {
        let run = HopsetBuilder::unweighted()
            .params(params())
            .seed(Seed(seed))
            .build(&g)
            .unwrap();
        let (spine, spine_cost) = HopsetBuilder::unweighted()
            .params(params())
            .build_with_rng(&g, &mut StdRng::seed_from_u64(seed))
            .unwrap();
        assert_eq!(
            run.artifact.into_single(),
            spine.into_single(),
            "seed {seed}"
        );
        assert_eq!(run.cost, spine_cost, "seed {seed}");
    }
}

#[test]
fn oracle_build_matches_rng_spine() {
    let g = generators::grid(12, 12);
    let mut wrng = StdRng::seed_from_u64(5);
    let wg = generators::with_uniform_weights(&g, 1, 30, &mut wrng);
    for (g, seed) in [(&g, 4), (&wg, 6)] {
        let run = OracleBuilder::new().seed(Seed(seed)).build(g).unwrap();
        let (spine, spine_cost) = OracleBuilder::new()
            .build_with_rng(g, &mut StdRng::seed_from_u64(seed))
            .unwrap();
        assert_eq!(run.seed, Seed(seed));
        assert_eq!(run.cost, spine_cost);
        assert_eq!(run.artifact.graph().edges(), spine.graph().edges());
        for (s, t) in [(0u32, 143u32), (10, 100), (31, 97), (7, 7)] {
            assert_eq!(run.artifact.query(s, t), spine.query(s, t));
        }
    }
}

#[test]
fn invalid_params_are_typed_errors() {
    let g = unit_graph();
    // stretch below 1
    assert!(matches!(
        SpannerBuilder::unweighted(0.0).build(&g),
        Err(PshError::InvalidStretch { .. })
    ));
    assert!(matches!(
        SpannerBuilder::weighted(0.9).build(&g),
        Err(PshError::InvalidStretch { .. })
    ));
    // epsilon outside (0, 1)
    assert!(matches!(
        HopsetBuilder::unweighted().epsilon(0.0).build(&g),
        Err(PshError::InvalidHopsetParams { .. })
    ));
    assert!(matches!(
        HopsetBuilder::unweighted().epsilon(1.5).build(&g),
        Err(PshError::InvalidHopsetParams { .. })
    ));
    // band / hop-target exponents outside (0, 1)
    assert!(matches!(
        HopsetBuilder::weighted(1.0).build(&g),
        Err(PshError::InvalidEta { eta }) if eta == 1.0
    ));
    assert!(matches!(
        HopsetBuilder::limited(0.0).build(&g),
        Err(PshError::InvalidAlpha { .. })
    ));
    // invalid clustering beta
    assert!(matches!(
        ClusterBuilder::new(f64::NAN).build(&g),
        Err(ClusterError::InvalidBeta { .. })
    ));
    // weighted input into the unit-weight algorithm
    let wg = weighted_graph();
    assert!(matches!(
        SpannerBuilder::unweighted(2.0).build(&wg),
        Err(PshError::RequiresUnitWeights { .. })
    ));
}

#[test]
fn run_seed_replays_artifact() {
    // the provenance contract: rebuilding from run.seed reproduces the run
    let g = unit_graph();
    let first = SpannerBuilder::unweighted(4.0)
        .seed(Seed(31337))
        .build(&g)
        .unwrap();
    let replay = SpannerBuilder::unweighted(4.0)
        .seed(first.seed)
        .build(&g)
        .unwrap();
    assert_eq!(first.artifact, replay.artifact);
    assert_eq!(first.cost, replay.cost);
}
