//! Integration tests: every public construction is bit-deterministic
//! given a [`Seed`] — the property the probabilistic experiments and the
//! `Run`-caching plans rely on.

use psh::baselines::baswana_sen::baswana_sen_spanner;
use psh::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn graph() -> CsrGraph {
    let mut rng = StdRng::seed_from_u64(99);
    generators::connected_random(600, 1_800, &mut rng)
}

fn weighted_graph() -> CsrGraph {
    let mut rng = StdRng::seed_from_u64(99);
    let base = generators::connected_random(400, 1_000, &mut rng);
    generators::with_log_uniform_weights(&base, 512.0, &mut rng)
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
fn clustering_deterministic() {
    let g = graph();
    let builder = ClusterBuilder::new(0.2).seed(Seed(5));
    let a = builder.build(&g).unwrap();
    let b = builder.build(&g).unwrap();
    assert_eq!(a.artifact, b.artifact);
    assert_eq!(a.cost, b.cost, "costs must be deterministic too");
    assert_eq!(a.seed, b.seed);
}

#[test]
fn spanners_deterministic() {
    let g = graph();
    let builder = SpannerBuilder::unweighted(3.0).seed(Seed(5));
    let a = builder.build(&g).unwrap();
    let b = builder.build(&g).unwrap();
    assert_eq!(a.artifact, b.artifact);
    let wg = weighted_graph();
    let wbuilder = SpannerBuilder::weighted(3.0).seed(Seed(5));
    let a = wbuilder.build(&wg).unwrap();
    let b = wbuilder.build(&wg).unwrap();
    assert_eq!(a.artifact, b.artifact);
}

#[test]
fn hopsets_deterministic() {
    let g = graph();
    let builder = HopsetBuilder::unweighted().params(params()).seed(Seed(5));
    let a = builder.build(&g).unwrap();
    let b = builder.build(&g).unwrap();
    assert_eq!(a.artifact.as_single(), b.artifact.as_single());
    assert_eq!(a.cost, b.cost);
}

#[test]
fn weighted_hopsets_deterministic() {
    let g = weighted_graph();
    let builder = HopsetBuilder::weighted(0.4).params(params()).seed(Seed(5));
    let a = builder.build(&g).unwrap().artifact;
    let b = builder.build(&g).unwrap().artifact;
    let (a, b) = (
        a.as_banded().unwrap().clone(),
        b.as_banded().unwrap().clone(),
    );
    assert_eq!(a.total_size(), b.total_size());
    for (x, y) in a.bands.iter().zip(&b.bands) {
        assert_eq!(x.hopset, y.hopset);
        assert_eq!(x.h, y.h);
    }
}

#[test]
fn limited_hopsets_deterministic() {
    let g = generators::path(300);
    let builder = HopsetBuilder::limited(0.6).epsilon(0.5).seed(Seed(5));
    let a = builder.build(&g).unwrap().artifact.into_single();
    let b = builder.build(&g).unwrap().artifact.into_single();
    assert_eq!(a, b);
}

#[test]
fn oracle_deterministic() {
    let g = graph();
    let builder = OracleBuilder::new().seed(Seed(5));
    let a = builder.build(&g).unwrap();
    let b = builder.build(&g).unwrap();
    assert_eq!(a.cost, b.cost);
    for (s, t) in [(0u32, 599u32), (7, 311)] {
        assert_eq!(a.artifact.query(s, t).0, b.artifact.query(s, t).0);
    }
}

#[test]
fn baselines_deterministic() {
    let g = graph();
    let (a, _) = baswana_sen_spanner(&g, 3, &mut StdRng::seed_from_u64(5));
    let (b, _) = baswana_sen_spanner(&g, 3, &mut StdRng::seed_from_u64(5));
    assert_eq!(a, b);
}

#[test]
fn different_seeds_differ() {
    // sanity: the seed actually matters (we are not accidentally
    // derandomized, which would invalidate the probabilistic analysis)
    let g = graph();
    let a = ClusterBuilder::new(0.2)
        .seed(Seed(1))
        .build(&g)
        .unwrap()
        .artifact;
    let b = ClusterBuilder::new(0.2)
        .seed(Seed(2))
        .build(&g)
        .unwrap()
        .artifact;
    assert_ne!(a.center, b.center);
}
