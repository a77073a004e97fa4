//! The contract of the GraphView refactor: algorithms driven by
//! arena-backed [`CsrView`]s produce **byte-identical artifacts and
//! Costs** to the same algorithms driven by materialized [`CsrGraph`]s,
//! across seeds and execution policies.
//!
//! Three layers are pinned down:
//!
//! 1. the substrate — an arena child and its materialized twin are
//!    indistinguishable through Dial's bucketed search and Dijkstra;
//! 2. the clustering race — `ClusterBuilder` on a view equals
//!    `ClusterBuilder` on the materialized child, artifact and cost;
//! 3. the hopset recursion, which runs on arena views at every level —
//!    `Parallel` policies build the same hopset and cost as the
//!    `Sequential` reference, and the default builder path equals it.

use proptest::prelude::*;
use psh::core::hopset::unweighted::build_hopset_with_beta0_on;
use psh::graph::subgraph::split_by_labels;
use psh::graph::traversal::dial::dial_sssp_with;
use psh::graph::traversal::dijkstra::dijkstra;
use psh::graph::view::SplitArena;
use psh::graph::GraphView;
use psh::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn policies() -> [ExecutionPolicy; 2] {
    [
        ExecutionPolicy::Sequential,
        ExecutionPolicy::Parallel { threads: 4 },
    ]
}

/// Random weighted graph + a dense labeling from an actual clustering
/// (the labelings the recursion feeds to the split).
fn clustered_instance(seed: u64) -> (CsrGraph, Vec<u32>, usize) {
    let mut rng = StdRng::seed_from_u64(seed);
    let base = generators::connected_random(120, 260, &mut rng);
    let g = generators::with_uniform_weights(&base, 1, 9, &mut rng);
    let c = ClusterBuilder::new(0.3)
        .seed(Seed(seed ^ 0xABCD))
        .build(&g)
        .unwrap()
        .artifact;
    let k = c.num_clusters;
    (g, c.cluster_id, k)
}

#[test]
fn traversals_agree_on_views_and_materialized_children() {
    for seed in 0..6u64 {
        let (g, labels, k) = clustered_instance(seed);
        let mut arena = SplitArena::new();
        arena.split(&g, &labels, k);
        let (subs, _) = split_by_labels(&g, &labels, k);
        for policy in policies() {
            let exec = Executor::new(policy);
            for (cid, sub) in subs.iter().enumerate() {
                if sub.n() == 0 {
                    continue;
                }
                let view = arena.view(cid);
                assert_eq!(
                    dial_sssp_with(&exec, &view, 0),
                    dial_sssp_with(&exec, &sub.graph, 0),
                    "dial seed {seed} cluster {cid} {policy}"
                );
                assert_eq!(
                    dijkstra(&view, 0),
                    dijkstra(&sub.graph, 0),
                    "dijkstra seed {seed} cluster {cid}"
                );
            }
        }
    }
}

#[test]
fn clustering_a_view_equals_clustering_the_materialized_child() {
    for seed in 0..6u64 {
        let (g, labels, k) = clustered_instance(seed);
        let mut arena = SplitArena::new();
        arena.split(&g, &labels, k);
        let (subs, _) = split_by_labels(&g, &labels, k);
        for policy in policies() {
            for (cid, sub) in subs.iter().enumerate() {
                let view = arena.view(cid);
                let on_view = ClusterBuilder::new(0.5)
                    .seed(Seed(seed))
                    .execution(policy)
                    .build(&view)
                    .unwrap();
                let on_graph = ClusterBuilder::new(0.5)
                    .seed(Seed(seed))
                    .execution(policy)
                    .build(&sub.graph)
                    .unwrap();
                assert_eq!(
                    on_view.artifact, on_graph.artifact,
                    "seed {seed} cluster {cid} {policy}"
                );
                assert_eq!(on_view.cost, on_graph.cost, "seed {seed} cluster {cid}");
                on_view.artifact.validate(&view).unwrap();
            }
        }
    }
}

/// Shared fixed-seed hopset instance for the policy matrix.
fn hopset_instance(seed: u64, n: usize) -> CsrGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    generators::connected_random(n, 2 * n, &mut rng)
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

/// The policies the hopset recursion must reproduce the `Sequential`
/// reference under.
fn parallel_policies() -> [ExecutionPolicy; 2] {
    [
        ExecutionPolicy::Parallel { threads: 2 },
        ExecutionPolicy::Parallel { threads: 4 },
    ]
}

#[test]
fn hopset_policy_matrix_is_byte_identical() {
    let params = hopset_params();
    for seed in [0u64, 9, 20150625] {
        let g = hopset_instance(seed, 600);
        let beta0 = params.beta0(g.n());
        let reference = build_hopset_with_beta0_on(
            &Executor::sequential(),
            &g,
            &params,
            beta0,
            &mut StdRng::seed_from_u64(seed),
        );
        for policy in parallel_policies() {
            let got = build_hopset_with_beta0_on(
                &Executor::new(policy),
                &g,
                &params,
                beta0,
                &mut StdRng::seed_from_u64(seed),
            );
            assert_eq!(got, reference, "seed {seed} {policy}");
        }
        // the public builder, on its default policy, must land on the
        // same bytes
        let (built, built_cost) = HopsetBuilder::unweighted()
            .params(params)
            .build_with_rng(&g, &mut StdRng::seed_from_u64(seed))
            .unwrap();
        assert_eq!(built.into_single(), reference.0, "builder seed {seed}");
        assert_eq!(built_cost, reference.1, "builder cost seed {seed}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Arbitrary-seed sweep of the policy matrix: the arena recursion
    /// builds the `Sequential` reference's bytes under every `Parallel`
    /// policy.
    #[test]
    fn prop_hopset_parallel_equals_sequential(seed in 0u64..5000) {
        let g = hopset_instance(seed, 300);
        let params = hopset_params();
        let beta0 = params.beta0(g.n());
        let reference = build_hopset_with_beta0_on(
            &Executor::sequential(),
            &g,
            &params,
            beta0,
            &mut StdRng::seed_from_u64(seed),
        );
        for policy in parallel_policies() {
            let got = build_hopset_with_beta0_on(
                &Executor::new(policy),
                &g,
                &params,
                beta0,
                &mut StdRng::seed_from_u64(seed),
            );
            prop_assert_eq!(&got, &reference, "{}", policy);
        }
    }

    /// Views carved from arbitrary labelings cluster identically to their
    /// materialized twins (weighted graphs, both policies).
    #[test]
    fn prop_view_clustering_equals_materialized(
        raw in proptest::collection::vec((0u32..50, 0u32..50, 1u64..12), 30..220),
        labels in proptest::collection::vec(0u32..4, 50),
        seed in 0u64..1000)
    {
        let g = CsrGraph::from_edges(50, raw.iter().map(|&(u, v, w)| Edge::new(u, v, w)));
        let mut arena = SplitArena::new();
        arena.split(&g, &labels, 4);
        let (subs, _) = split_by_labels(&g, &labels, 4);
        for policy in policies() {
            for (cid, sub) in subs.iter().enumerate() {
                let view = arena.view(cid);
                prop_assert_eq!(view.n(), sub.n());
                let a = ClusterBuilder::new(0.4)
                    .seed(Seed(seed))
                    .execution(policy)
                    .build(&view)
                    .unwrap();
                let b = ClusterBuilder::new(0.4)
                    .seed(Seed(seed))
                    .execution(policy)
                    .build(&sub.graph)
                    .unwrap();
                prop_assert_eq!(&a.artifact, &b.artifact, "cluster {} {}", cid, policy);
                prop_assert_eq!(a.cost, b.cost);
            }
        }
    }
}
