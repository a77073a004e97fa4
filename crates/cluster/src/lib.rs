//! # psh-cluster — Exponential Start Time Clustering
//!
//! Algorithm 1 of the paper (from Miller–Peng–Xu, SPAA 2013):
//!
//! > 1. For each vertex `u`, pick `δ_u` independently from `Exp(β)`.
//! > 2. Assign each `v ∈ V` to `argmin_u { dist(u, v) − δ_u }`; if `v = u`,
//! >    it is the center of its cluster.
//! > 3. Return the clusters along with a spanning tree on each cluster
//! >    rooted at its center.
//!
//! Equivalently (Appendix A): add a super-source `S` with an edge of length
//! `δ_max − δ_u` to every vertex `u` and build a shortest-path tree from
//! `S`; the subtrees hanging off `S` are the clusters. The race picture —
//! every vertex starts racing at time `δ_max − δ_u` and claims whatever it
//! reaches first — is what the implementation in [`engine`] runs, level by
//! level on integer distance parts with fractional-part tie-breaking,
//! exactly as Appendix A prescribes for integer-weight graphs.
//!
//! Guarantees reproduced empirically by the experiment suite:
//!
//! * **Lemma 2.1** — every cluster's spanning tree has radius
//!   `≤ k·log n/β` from its center with probability `≥ 1 − 1/n^{k−1}`.
//! * **Lemma 2.2** — a ball of radius `r` intersects `k` or more clusters
//!   with probability at most `(1 − exp(−2rβ))^{k−1}`.
//! * **Corollary 2.3** — an edge of weight `w` is cut with probability at
//!   most `1 − exp(−β·w) < β·w`.
//!
//! The clustering runs in `O(β⁻¹ log n)` rounds of parallel search with
//! high probability and linear work — measured by the returned
//! [`psh_pram::Cost`].

pub mod analysis;
pub mod api;
pub mod clustering;
pub mod engine;
pub mod error;
pub mod shifts;

pub use api::{ClusterBuilder, Run, Seed};
pub use clustering::Clustering;
pub use error::ClusterError;
pub use shifts::ExponentialShifts;

#[cfg(test)]
mod tests {
    use super::*;
    use psh_graph::generators;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn huge_beta_gives_singletons() {
        // β = 50: all δ_u ≈ 0, so every vertex wins itself at round 0.
        let g = generators::grid(8, 8);
        let c = ClusterBuilder::new(50.0)
            .seed(Seed(1))
            .build(&g)
            .unwrap()
            .artifact;
        assert_eq!(c.num_clusters, 64);
        for v in 0..64u32 {
            assert_eq!(c.center[v as usize], v);
        }
    }

    #[test]
    fn tiny_beta_gives_few_clusters() {
        // β = 0.01 on a 100-vertex path: shifts spread over ~hundreds of
        // units, so a handful of early starters swallow everything.
        let g = generators::path(100);
        let c = ClusterBuilder::new(0.01)
            .seed(Seed(2))
            .build(&g)
            .unwrap()
            .artifact;
        assert!(
            c.num_clusters <= 5,
            "expected few clusters, got {}",
            c.num_clusters
        );
    }

    #[test]
    fn clustering_is_deterministic_given_seed() {
        let g = generators::connected_random(200, 300, &mut StdRng::seed_from_u64(7));
        let builder = ClusterBuilder::new(0.3).seed(Seed(99));
        let a = builder.build(&g).unwrap().artifact;
        let b = builder.build(&g).unwrap().artifact;
        assert_eq!(a.center, b.center);
        assert_eq!(a.parent, b.parent);
        assert_eq!(a.dist_to_center, b.dist_to_center);
    }

    #[test]
    fn every_graph_vertex_is_assigned() {
        // even on a disconnected graph
        let g = psh_graph::CsrGraph::from_unit_edges(6, [(0, 1), (2, 3)]);
        let c = ClusterBuilder::new(0.5)
            .seed(Seed(3))
            .build(&g)
            .unwrap()
            .artifact;
        c.validate(&g).unwrap();
        assert!(c.num_clusters >= 2, "isolated pieces cannot share clusters");
    }

    #[test]
    fn depth_scales_inversely_with_beta() {
        let g = generators::path(400);
        let cost_fine = ClusterBuilder::new(1.0)
            .seed(Seed(4))
            .build(&g)
            .unwrap()
            .cost;
        let cost_coarse = ClusterBuilder::new(0.02)
            .seed(Seed(4))
            .build(&g)
            .unwrap()
            .cost;
        assert!(
            cost_coarse.depth > cost_fine.depth,
            "smaller β explores longer: {} vs {}",
            cost_coarse.depth,
            cost_fine.depth
        );
    }
}
