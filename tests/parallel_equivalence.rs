//! seq↔par equivalence: the determinism contract of the execution layer.
//!
//! Every builder must produce a **byte-identical artifact and cost** under
//! `ExecutionPolicy::Sequential` and `Parallel { threads: 2, 4, 8 }` for
//! the same seed — ties are resolved by the frontier engine's total claim
//! order, never by scheduling. These tests are the workspace-level
//! enforcement of that contract (unit-level variants live next to each
//! engine); CI additionally runs the whole suite under `PSH_THREADS=1`
//! and `PSH_THREADS=4`, so the default-policy paths are exercised both
//! ways on every push.

use proptest::prelude::*;
use psh::prelude::*;
use psh_exec::{ExecutionPolicy, Executor};
use psh_graph::traversal::dial::dial_sssp_with;
use rand::rngs::StdRng;
use rand::SeedableRng;

const POLICIES: [ExecutionPolicy; 3] = [
    ExecutionPolicy::Parallel { threads: 2 },
    ExecutionPolicy::Parallel { threads: 4 },
    ExecutionPolicy::Parallel { threads: 8 },
];

fn unit_instance(seed: u64, n: usize) -> CsrGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    generators::connected_random(n, 3 * n, &mut rng)
}

fn weighted_instance(seed: u64, n: usize, wmax: u64) -> CsrGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    let base = generators::connected_random(n, 3 * n, &mut rng);
    generators::with_uniform_weights(&base, 1, wmax, &mut rng)
}

#[test]
fn clustering_identical_across_policies() {
    let g = weighted_instance(1, 800, 9);
    let base = ClusterBuilder::new(0.25)
        .seed(Seed(7))
        .execution(ExecutionPolicy::Sequential)
        .build(&g)
        .unwrap();
    for policy in POLICIES {
        let run = ClusterBuilder::new(0.25)
            .seed(Seed(7))
            .execution(policy)
            .build(&g)
            .unwrap();
        assert_eq!(run.artifact, base.artifact, "{policy}");
        assert_eq!(
            run.cost, base.cost,
            "{policy}: cost must not depend on execution"
        );
    }
}

#[test]
fn unweighted_spanner_identical_across_policies() {
    let g = unit_instance(2, 700);
    let base = SpannerBuilder::unweighted(3.0)
        .seed(Seed(11))
        .execution(ExecutionPolicy::Sequential)
        .build(&g)
        .unwrap();
    for policy in POLICIES {
        let run = SpannerBuilder::unweighted(3.0)
            .seed(Seed(11))
            .execution(policy)
            .build(&g)
            .unwrap();
        assert_eq!(run.artifact, base.artifact, "{policy}");
        assert_eq!(run.cost, base.cost, "{policy}");
    }
}

#[test]
fn weighted_spanner_identical_across_policies() {
    let g = weighted_instance(3, 400, 1000);
    let base = SpannerBuilder::weighted(3.0)
        .seed(Seed(13))
        .execution(ExecutionPolicy::Sequential)
        .build(&g)
        .unwrap();
    for policy in POLICIES {
        let run = SpannerBuilder::weighted(3.0)
            .seed(Seed(13))
            .execution(policy)
            .build(&g)
            .unwrap();
        assert_eq!(run.artifact, base.artifact, "{policy}");
        assert_eq!(run.cost, base.cost, "{policy}");
    }
}

fn test_params() -> HopsetParams {
    HopsetParams {
        epsilon: 0.5,
        delta: 1.5,
        gamma1: 0.25,
        gamma2: 0.75,
        k_conf: 1.0,
    }
}

#[test]
fn hopset_identical_across_policies() {
    let g = unit_instance(4, 900);
    let base = HopsetBuilder::unweighted()
        .params(test_params())
        .seed(Seed(17))
        .execution(ExecutionPolicy::Sequential)
        .build(&g)
        .unwrap();
    for policy in POLICIES {
        let run = HopsetBuilder::unweighted()
            .params(test_params())
            .seed(Seed(17))
            .execution(policy)
            .build(&g)
            .unwrap();
        assert_eq!(
            run.artifact.as_single(),
            base.artifact.as_single(),
            "{policy}"
        );
        assert_eq!(run.cost, base.cost, "{policy}");
    }
}

#[test]
fn weighted_hopset_bands_identical_across_policies() {
    let g = weighted_instance(5, 300, 40);
    let base = HopsetBuilder::weighted(0.4)
        .params(test_params())
        .seed(Seed(19))
        .execution(ExecutionPolicy::Sequential)
        .build(&g)
        .unwrap();
    let base_bands = base.artifact.as_banded().unwrap();
    for policy in POLICIES {
        let run = HopsetBuilder::weighted(0.4)
            .params(test_params())
            .seed(Seed(19))
            .execution(policy)
            .build(&g)
            .unwrap();
        let bands = run.artifact.as_banded().unwrap();
        assert_eq!(bands.num_bands(), base_bands.num_bands(), "{policy}");
        for (a, b) in bands.bands.iter().zip(&base_bands.bands) {
            assert_eq!(a.hopset, b.hopset, "{policy}");
            assert_eq!(a.d, b.d, "{policy}");
        }
        assert_eq!(run.cost, base.cost, "{policy}");
    }
}

#[test]
fn oracle_answers_identical_across_policies() {
    let g = unit_instance(6, 600);
    let base = OracleBuilder::new()
        .params(test_params())
        .seed(Seed(23))
        .execution(ExecutionPolicy::Sequential)
        .build(&g)
        .unwrap();
    let pairs = [(0u32, 599u32), (5, 400), (17, 230)];
    for policy in POLICIES {
        let run = OracleBuilder::new()
            .params(test_params())
            .seed(Seed(23))
            .execution(policy)
            .build(&g)
            .unwrap();
        assert_eq!(run.cost, base.cost, "{policy}");
        for (s, t) in pairs {
            assert_eq!(
                run.artifact.query(s, t).0,
                base.artifact.query(s, t).0,
                "{policy}: query({s},{t})"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn prop_clustering_seq_equals_par(seed in 0u64..400, beta_milli in 80u64..900) {
        let beta = beta_milli as f64 / 1000.0;
        let g = weighted_instance(seed, 250, 7);
        let seq = ClusterBuilder::new(beta)
            .seed(Seed(seed))
            .execution(ExecutionPolicy::Sequential)
            .build(&g)
            .unwrap();
        let par = ClusterBuilder::new(beta)
            .seed(Seed(seed))
            .execution(ExecutionPolicy::Parallel { threads: 4 })
            .build(&g)
            .unwrap();
        prop_assert_eq!(seq.artifact, par.artifact);
        prop_assert_eq!(seq.cost, par.cost);
    }

    #[test]
    fn prop_traversals_seq_equals_par(seed in 0u64..400) {
        let g = weighted_instance(seed, 300, 15);
        let seq = Executor::sequential();
        let par = Executor::new(ExecutionPolicy::Parallel { threads: 4 });
        let (d1, e1) = dial_sssp_with(&seq, &g, 3);
        let (d2, e2) = dial_sssp_with(&par, &g, 3);
        prop_assert_eq!(d1, d2);
        prop_assert_eq!(e1, e2);
    }

    #[test]
    fn prop_spanner_seq_equals_par(seed in 0u64..400) {
        let g = unit_instance(seed, 200);
        let seq = SpannerBuilder::unweighted(2.0)
            .seed(Seed(seed))
            .execution(ExecutionPolicy::Sequential)
            .build(&g)
            .unwrap();
        let par = SpannerBuilder::unweighted(2.0)
            .seed(Seed(seed))
            .execution(ExecutionPolicy::Parallel { threads: 8 })
            .build(&g)
            .unwrap();
        prop_assert_eq!(seq.artifact, par.artifact);
        prop_assert_eq!(seq.cost, par.cost);
    }
}
