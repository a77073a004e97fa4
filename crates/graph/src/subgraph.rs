//! The materializing cluster split.
//!
//! Algorithm 4 (`HopSet`) recurses on each cluster of a decomposition "in
//! parallel". The natural substrate operation is: given a dense labeling of
//! the vertices, produce all `k` induced subgraphs `G[X_i]` at once, each
//! with a relabeled compact vertex set and a mapping back to the parent
//! graph. Edges with endpoints in different clusters are dropped (they are
//! exactly the *cut* edges the analysis of Lemma 4.2 charges separately).
//!
//! Two implementations exist:
//!
//! * [`crate::view::SplitArena::split`] — the hopset recursion's path:
//!   children come back as borrowed [`crate::view::CsrView`]s over one
//!   reused arena, with no per-child allocation.
//! * [`split_by_labels`] (here) — children are owned [`CsrGraph`]s that
//!   outlive the parent. It is the reference the `view` tests compare
//!   the arena path against.

use crate::csr::{CsrGraph, Edge, VertexId};
use crate::view::GraphView;
use psh_pram::Cost;
use rayon::prelude::*;

/// An induced subgraph with vertex provenance.
#[derive(Clone, Debug)]
pub struct SubGraph {
    /// The subgraph itself, over vertices `0..to_parent.len()`.
    pub graph: CsrGraph,
    /// `to_parent[local] = parent vertex id`.
    pub to_parent: Vec<VertexId>,
}

impl SubGraph {
    /// Map a local vertex back to the parent graph.
    #[inline]
    pub fn parent_of(&self, local: VertexId) -> VertexId {
        self.to_parent[local as usize]
    }

    /// Number of vertices in the subgraph.
    pub fn n(&self) -> usize {
        self.graph.n()
    }
}

/// Split `g` into the `k` induced subgraphs of a dense labeling
/// (`labels[v] in 0..k`), **materializing** each child as an owned
/// [`CsrGraph`]. Cut edges (different labels) are dropped.
///
/// Work is `O(n + m)` plus the CSR builds; depth is a constant number of
/// rounds (bucketing, relabeling, and per-cluster builds run in parallel).
/// Prefer [`crate::view::SplitArena::split`] on recursive hot paths — it
/// produces byte-identical children (as graphs) without the per-child
/// allocations, and reports the same [`Cost`].
pub fn split_by_labels<G: GraphView>(g: &G, labels: &[u32], k: usize) -> (Vec<SubGraph>, Cost) {
    assert_eq!(labels.len(), g.n());
    // Bucket vertices by label.
    let mut members: Vec<Vec<VertexId>> = vec![Vec::new(); k];
    for (v, &l) in labels.iter().enumerate() {
        members[l as usize].push(v as u32);
    }
    // Parent → local index within its cluster.
    let mut to_local = vec![0u32; g.n()];
    for verts in &members {
        for (i, &v) in verts.iter().enumerate() {
            to_local[v as usize] = i as u32;
        }
    }
    // Distribute intra-cluster edges.
    let mut cluster_edges: Vec<Vec<Edge>> = vec![Vec::new(); k];
    for e in g.edges() {
        let (lu, lv) = (labels[e.u as usize], labels[e.v as usize]);
        if lu == lv {
            cluster_edges[lu as usize].push(Edge::new(
                to_local[e.u as usize],
                to_local[e.v as usize],
                e.w,
            ));
        }
    }
    let subs: Vec<SubGraph> = members
        .into_par_iter()
        .zip(cluster_edges.into_par_iter())
        .map(|(verts, edges)| SubGraph {
            graph: CsrGraph::from_edges(verts.len(), edges),
            to_parent: verts,
        })
        .collect();
    let cost = Cost::new(g.n() as u64 + g.m() as u64, 3);
    (subs, cost)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample() -> CsrGraph {
        // two triangles joined by a bridge 2-3
        CsrGraph::from_unit_edges(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (2, 3)])
    }

    #[test]
    fn split_drops_cut_edges() {
        let g = sample();
        let labels = vec![0, 0, 0, 1, 1, 1];
        let (subs, _) = split_by_labels(&g, &labels, 2);
        assert_eq!(subs.len(), 2);
        assert_eq!(subs[0].n(), 3);
        assert_eq!(subs[1].n(), 3);
        // the bridge 2-3 is cut; each triangle keeps its 3 edges
        assert_eq!(subs[0].graph.m(), 3);
        assert_eq!(subs[1].graph.m(), 3);
    }

    #[test]
    fn split_preserves_parent_mapping() {
        let g = sample();
        let labels = vec![0, 1, 0, 1, 0, 1];
        let (subs, _) = split_by_labels(&g, &labels, 2);
        for (cluster, sub) in subs.iter().enumerate() {
            for local in 0..sub.n() as u32 {
                let parent = sub.parent_of(local);
                assert_eq!(labels[parent as usize] as usize, cluster);
            }
        }
        let total: usize = subs.iter().map(SubGraph::n).sum();
        assert_eq!(total, g.n());
    }

    #[test]
    fn singleton_clusters_are_edgeless() {
        let g = sample();
        let labels: Vec<u32> = (0..6).collect();
        let (subs, _) = split_by_labels(&g, &labels, 6);
        for sub in &subs {
            assert_eq!(sub.n(), 1);
            assert_eq!(sub.graph.m(), 0);
        }
    }

    proptest! {
        /// Splitting preserves exactly the intra-cluster edges, with weights.
        #[test]
        fn prop_split_edge_conservation(
            raw in proptest::collection::vec((0u32..30, 0u32..30, 1u64..10), 0..150),
            labels in proptest::collection::vec(0u32..4, 30)) {
            let g = CsrGraph::from_edges(30, raw.iter().map(|&(u, v, w)| Edge::new(u, v, w)));
            let (subs, _) = split_by_labels(&g, &labels, 4);
            let internal = g.edges().iter()
                .filter(|e| labels[e.u as usize] == labels[e.v as usize])
                .count();
            let split_total: usize = subs.iter().map(|s| s.graph.m()).sum();
            prop_assert_eq!(internal, split_total);
            // every subgraph edge maps back to a real parent edge
            for sub in &subs {
                for e in sub.graph.edges() {
                    let (pu, pv) = (sub.parent_of(e.u), sub.parent_of(e.v));
                    prop_assert!(g.neighbors(pu).any(|(t, w)| t == pv && w == e.w));
                }
            }
        }
    }
}
