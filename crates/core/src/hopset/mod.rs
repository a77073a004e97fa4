//! Hopset constructions (§4, §5, Appendices B–C).
//!
//! A `(ε, h, m')`-hopset (Definition 2.4) is a set `E'` of at most `m'`
//! weighted edges, each realizing the length of an actual path in `G`,
//! such that for any `u, v`, with probability ≥ 1/2,
//! `dist^h_{E ∪ E'}(u, v) ≤ (1 + ε)·dist(u, v)`.
//!
//! * [`unweighted`] — Algorithm 4: recursive exponential start time
//!   clustering; large clusters get a **star** (center to every member)
//!   and the large-cluster centers get a **clique** (exact pairwise
//!   distances inside the piece); recursion continues on small clusters
//!   with β growing by `k·log n/ε` per level (Claim 4.1).
//! * [`weighted`] — §5: Klein–Subramanian rounding plus `O(1/η)` distance
//!   estimates `d = (n^η)^j`, one hopset per band.
//! * [`rounding`] — Lemma 5.2's rounding scheme.
//! * [`weight_classes`] — Appendix B: reduce arbitrary positive weights to
//!   polynomially bounded ones via a hierarchical weight decomposition.
//! * [`limited`] — Appendix C: limited hopsets that shorten `n^{2η}`-hop
//!   paths to `n^η` hops, iterated `1/η` times for `O(n^α)` query depth.

pub mod decomposition_tree;
pub mod limited;
pub mod params;
pub mod rounding;
pub mod unweighted;
pub mod weight_classes;
pub mod weighted;

pub use params::HopsetParams;
pub use weight_classes::WeightClassDecomposition;
pub use weighted::WeightedHopsets;

use psh_graph::traversal::bellman_ford::ExtraEdges;
use psh_graph::traversal::dijkstra::dijkstra;
use psh_graph::{CsrGraph, Edge};

/// A constructed hopset over the vertices of some graph.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Hopset {
    /// Number of vertices of the underlying graph.
    pub n: usize,
    /// Shortcut edges; each weight is the length of an actual path.
    pub edges: Vec<Edge>,
    /// How many of the edges are star edges (Lemma 4.3 bounds these by n).
    pub star_count: usize,
    /// How many are clique edges (bounded by `(n/n_final)·ρ²`).
    pub clique_count: usize,
    /// Deepest recursion level that produced edges.
    pub levels: usize,
}

impl Hopset {
    /// An empty hopset over `n` vertices.
    pub fn empty(n: usize) -> Self {
        Hopset {
            n,
            ..Default::default()
        }
    }

    /// Total number of shortcut edges.
    pub fn size(&self) -> usize {
        self.edges.len()
    }

    /// Compile into the adjacency form the query engine consumes.
    pub fn to_extra_edges(&self) -> ExtraEdges {
        ExtraEdges::from_edges(self.n, &self.edges)
    }

    /// Absorb another hopset over the same vertex set (Appendix C
    /// accumulates limited hopsets across iterations).
    pub fn merge(&mut self, other: Hopset) {
        assert_eq!(self.n, other.n);
        self.edges.extend(other.edges);
        self.star_count += other.star_count;
        self.clique_count += other.clique_count;
        self.levels = self.levels.max(other.levels);
    }

    /// Verify Definition 2.4 property 2 from below: no shortcut edge may be
    /// shorter than the true distance (each is supposed to be a real path).
    /// Exact (runs Dijkstra per distinct source) — test-sized graphs only.
    pub fn validate_no_shortcuts_below_distance(&self, g: &CsrGraph) -> Result<(), String> {
        let mut edges = self.edges.clone();
        edges.sort_unstable();
        let mut i = 0;
        while i < edges.len() {
            let u = edges[i].u;
            let dist = dijkstra(g, u);
            while i < edges.len() && edges[i].u == u {
                let e = edges[i];
                let d = dist.dist[e.v as usize];
                if e.w < d {
                    return Err(format!(
                        "hopset edge ({}, {}) weight {} undercuts dist {}",
                        e.u, e.v, e.w, d
                    ));
                }
                i += 1;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_accumulates() {
        let mut a = Hopset {
            n: 5,
            edges: vec![Edge::new(0, 1, 3)],
            star_count: 1,
            clique_count: 0,
            levels: 1,
        };
        let b = Hopset {
            n: 5,
            edges: vec![Edge::new(2, 3, 4)],
            star_count: 0,
            clique_count: 1,
            levels: 2,
        };
        a.merge(b);
        assert_eq!(a.size(), 2);
        assert_eq!(a.star_count, 1);
        assert_eq!(a.clique_count, 1);
        assert_eq!(a.levels, 2);
    }

    #[test]
    fn validation_catches_too_short_edges() {
        let g = psh_graph::generators::path(5);
        let ok = Hopset {
            n: 5,
            edges: vec![Edge::new(0, 4, 4)],
            ..Default::default()
        };
        assert!(ok.validate_no_shortcuts_below_distance(&g).is_ok());
        let bad = Hopset {
            n: 5,
            edges: vec![Edge::new(0, 4, 3)],
            ..Default::default()
        };
        assert!(bad.validate_no_shortcuts_below_distance(&g).is_err());
    }

    #[test]
    fn empty_hopset_compiles_to_empty_extra() {
        let h = Hopset::empty(7);
        assert_eq!(h.size(), 0);
        assert!(h.to_extra_edges().is_empty());
    }
}
