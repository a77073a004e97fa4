//! The contract of the delta-compressed adjacency: algorithms driven by
//! a [`CompressedCsr`] (or its borrowed [`CompressedView`]) produce
//! **byte-identical artifacts and Costs** to the same algorithms driven
//! by the plain [`CsrGraph`], across seeds and both execution policies.
//!
//! Two layers are pinned down:
//!
//! 1. the substrate — every traversal engine (BFS, Dial, Δ-stepping,
//!    Dijkstra, hop-limited Bellman–Ford) is indistinguishable between
//!    the plain and compressed representations of the same graph;
//! 2. the clustering layer — `ClusterBuilder` on a compressed view
//!    equals `ClusterBuilder` on the plain graph, artifact and cost.

use proptest::prelude::*;
use psh::graph::traversal::bellman_ford::hop_limited_sssp;
use psh::graph::traversal::bfs::parallel_bfs_with;
use psh::graph::traversal::delta_stepping::delta_stepping_with;
use psh::graph::traversal::dial::{dial_sssp_bounded_with, dial_sssp_with};
use psh::graph::traversal::dijkstra::dijkstra;
use psh::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn policies() -> [ExecutionPolicy; 2] {
    [
        ExecutionPolicy::Sequential,
        ExecutionPolicy::Parallel { threads: 4 },
    ]
}

fn weighted_instance(seed: u64, n: usize) -> CsrGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    let base = generators::connected_random(n, 2 * n + n / 4, &mut rng);
    generators::with_uniform_weights(&base, 1, 23, &mut rng)
}

#[test]
fn traversals_agree_between_plain_and_compressed() {
    for seed in 0..6u64 {
        let g = weighted_instance(seed, 150);
        let c = CompressedCsr::from_view(&g);
        let view = c.as_view();
        for policy in policies() {
            let exec = Executor::new(policy);
            assert_eq!(
                parallel_bfs_with(&exec, &g, 0),
                parallel_bfs_with(&exec, &view, 0),
                "bfs seed {seed} {policy}"
            );
            assert_eq!(
                dial_sssp_with(&exec, &g, 0),
                dial_sssp_with(&exec, &view, 0),
                "dial seed {seed} {policy}"
            );
            assert_eq!(
                dial_sssp_bounded_with(&exec, &g, &[(3, 2), (9, 0)], 40),
                dial_sssp_bounded_with(&exec, &view, &[(3, 2), (9, 0)], 40),
                "bounded dial seed {seed} {policy}"
            );
            assert_eq!(
                delta_stepping_with(&exec, &g, 0, 5),
                delta_stepping_with(&exec, &view, 0, 5),
                "delta seed {seed} {policy}"
            );
        }
        // the owned compressed form routes through the same decoder
        assert_eq!(dijkstra(&g, 0), dijkstra(&c, 0), "dijkstra seed {seed}");
        assert_eq!(
            hop_limited_sssp(&g, None, &[0, 7], 6),
            hop_limited_sssp(&view, None, &[0, 7], 6),
            "hop-limited seed {seed}"
        );
    }
}

#[test]
fn clustering_a_compressed_view_equals_clustering_the_plain_graph() {
    for seed in 0..4u64 {
        let g = weighted_instance(seed, 120);
        let c = CompressedCsr::from_view(&g);
        let view = c.as_view();
        for policy in policies() {
            let on_comp = ClusterBuilder::new(0.4)
                .seed(Seed(seed))
                .execution(policy)
                .build(&view)
                .unwrap();
            let on_plain = ClusterBuilder::new(0.4)
                .seed(Seed(seed))
                .execution(policy)
                .build(&g)
                .unwrap();
            assert_eq!(on_comp.artifact, on_plain.artifact, "seed {seed} {policy}");
            assert_eq!(on_comp.cost, on_plain.cost, "seed {seed} {policy}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Arbitrary-graph sweep: multigraph/self-loop inputs collapse to a
    /// canonical CSR, and its compressed twin traverses identically
    /// under both policies.
    #[test]
    fn prop_compressed_traversal_equals_plain(
        raw in proptest::collection::vec((0u32..60, 0u32..60, 1u64..30), 20..260),
        seed in 0u64..1000)
    {
        let g = CsrGraph::from_edges(60, raw.iter().map(|&(u, v, w)| Edge::new(u, v, w)));
        let c = CompressedCsr::from_view(&g);
        let view = c.as_view();
        let src = (seed % 60) as u32;
        for policy in policies() {
            let exec = Executor::new(policy);
            prop_assert_eq!(
                dial_sssp_with(&exec, &g, src),
                dial_sssp_with(&exec, &view, src),
                "dial {}", policy
            );
            prop_assert_eq!(
                delta_stepping_with(&exec, &g, src, 3),
                delta_stepping_with(&exec, &view, src, 3),
                "delta {}", policy
            );
        }
    }
}
