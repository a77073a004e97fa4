//! Compressed-sparse-row undirected graphs with integer weights and edge
//! provenance.
//!
//! Design decisions:
//!
//! * **Vertices are `u32`**, weights and distances are `u64` with
//!   [`INF`] = `u64::MAX` as the unreachable sentinel. The paper assumes
//!   integer weights with minimum 1 (§2, Appendix A), which we adopt
//!   wholesale; unweighted graphs simply have all weights equal to 1.
//! * **Undirected edges are canonical** `(min(u,v), max(u,v), w)` triples
//!   stored once in [`CsrGraph::edges`]; the CSR adjacency stores each edge
//!   in both directions and records the canonical edge id per slot
//!   ([`CsrGraph::slot_edge_id`]). Spanner construction needs this: when a
//!   cluster boundary is crossed in a *quotient* graph we must add the
//!   *original* edge to the spanner.
//! * **Parallel edges are merged keeping the minimum weight** and
//!   self-loops are dropped — the paper's quotient-graph convention (§2).

use std::fmt;

/// Vertex identifier.
pub type VertexId = u32;
/// Edge weight / path distance. Minimum edge weight is 1 by convention.
pub type Weight = u64;
/// Unreachable-distance sentinel.
pub const INF: Weight = u64::MAX;

/// A canonical undirected edge: `u < v` always holds after construction.
/// `repr(C)` pins the field layout (`u32, u32, u64` — 16 bytes, align 8,
/// no padding) so snapshot slabs can reinterpret mapped bytes as edge
/// records without a per-element decode.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(C)]
pub struct Edge {
    pub u: VertexId,
    pub v: VertexId,
    pub w: Weight,
}

impl Edge {
    /// Construct an edge, canonicalizing the endpoint order.
    #[inline]
    pub fn new(u: VertexId, v: VertexId, w: Weight) -> Self {
        if u <= v {
            Edge { u, v, w }
        } else {
            Edge { u: v, v: u, w }
        }
    }

    /// The endpoint other than `x`; panics if `x` is not an endpoint.
    #[inline]
    pub fn other(&self, x: VertexId) -> VertexId {
        if x == self.u {
            self.v
        } else {
            debug_assert_eq!(x, self.v);
            self.u
        }
    }
}

/// An undirected graph in CSR form. See the module docs for conventions.
#[derive(Clone, PartialEq, Eq)]
pub struct CsrGraph {
    n: usize,
    /// `offsets[v]..offsets[v+1]` indexes `targets`/`weights`/`slot_eids`.
    offsets: Vec<usize>,
    targets: Vec<VertexId>,
    weights: Vec<Weight>,
    /// Canonical edge id for each directed adjacency slot.
    slot_eids: Vec<u32>,
    /// Canonical undirected edge list (deduplicated, self-loop free).
    edges: Vec<Edge>,
}

impl CsrGraph {
    /// Build from an edge iterator. Self-loops are dropped; parallel edges
    /// are merged keeping the lightest. Panics if any endpoint `>= n` or if
    /// any weight is 0 (the paper's normalization requires `w >= 1`).
    pub fn from_edges<I>(n: usize, edges: I) -> Self
    where
        I: IntoIterator<Item = Edge>,
    {
        let mut list: Vec<Edge> = edges
            .into_iter()
            .filter(|e| e.u != e.v)
            .map(|e| {
                assert!(e.w >= 1, "edge weights must be >= 1 (got 0)");
                assert!(
                    (e.u as usize) < n && (e.v as usize) < n,
                    "edge endpoint out of range: ({}, {}) with n = {n}",
                    e.u,
                    e.v
                );
                Edge::new(e.u, e.v, e.w)
            })
            .collect();
        // Sort so equal endpoints group together with the lightest first,
        // then keep the first of each group (minimum-weight parallel edge).
        list.sort_unstable();
        list.dedup_by_key(|e| (e.u, e.v));
        Self::from_canonical_edges(n, list)
    }

    /// Build from unit-weight vertex pairs.
    pub fn from_unit_edges<I>(n: usize, pairs: I) -> Self
    where
        I: IntoIterator<Item = (VertexId, VertexId)>,
    {
        Self::from_edges(n, pairs.into_iter().map(|(u, v)| Edge::new(u, v, 1)))
    }

    /// Internal: `list` must already be canonical, sorted, and deduplicated.
    pub(crate) fn from_canonical_edges(n: usize, list: Vec<Edge>) -> Self {
        let m = list.len();
        let mut degree = vec![0usize; n];
        for e in &list {
            degree[e.u as usize] += 1;
            degree[e.v as usize] += 1;
        }
        let mut offsets = Vec::with_capacity(n + 1);
        let mut acc = 0usize;
        offsets.push(0);
        for d in &degree {
            acc += d;
            offsets.push(acc);
        }
        let mut cursor = offsets.clone();
        let mut targets = vec![0 as VertexId; 2 * m];
        let mut weights = vec![0 as Weight; 2 * m];
        let mut slot_eids = vec![0u32; 2 * m];
        for (i, e) in list.iter().enumerate() {
            let cu = cursor[e.u as usize];
            targets[cu] = e.v;
            weights[cu] = e.w;
            slot_eids[cu] = i as u32;
            cursor[e.u as usize] += 1;
            let cv = cursor[e.v as usize];
            targets[cv] = e.u;
            weights[cv] = e.w;
            slot_eids[cv] = i as u32;
            cursor[e.v as usize] += 1;
        }
        CsrGraph {
            n,
            offsets,
            targets,
            weights,
            slot_eids,
            edges: list,
        }
    }

    /// Number of vertices.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of (undirected, deduplicated) edges.
    #[inline]
    pub fn m(&self) -> usize {
        self.edges.len()
    }

    /// Degree of `v`.
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        self.offsets[v as usize + 1] - self.offsets[v as usize]
    }

    /// Iterate `(neighbor, weight)` pairs of `v`.
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> impl Iterator<Item = (VertexId, Weight)> + '_ {
        let range = self.offsets[v as usize]..self.offsets[v as usize + 1];
        self.targets[range.clone()]
            .iter()
            .copied()
            .zip(self.weights[range].iter().copied())
    }

    /// Iterate `(neighbor, weight, canonical_edge_id)` triples of `v`.
    #[inline]
    pub fn neighbors_with_eid(
        &self,
        v: VertexId,
    ) -> impl Iterator<Item = (VertexId, Weight, u32)> + '_ {
        let range = self.offsets[v as usize]..self.offsets[v as usize + 1];
        self.targets[range.clone()]
            .iter()
            .copied()
            .zip(self.weights[range.clone()].iter().copied())
            .zip(self.slot_eids[range].iter().copied())
            .map(|((t, w), e)| (t, w, e))
    }

    /// The canonical undirected edge list.
    #[inline]
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// The canonical edge with id `eid`.
    #[inline]
    pub fn edge(&self, eid: u32) -> Edge {
        self.edges[eid as usize]
    }

    /// Canonical edge id of a given directed adjacency slot.
    #[inline]
    pub fn slot_edge_id(&self, slot: usize) -> u32 {
        self.slot_eids[slot]
    }

    /// Adjacency slot range of vertex `v` (for slot-indexed access).
    #[inline]
    pub fn slot_range(&self, v: VertexId) -> std::ops::Range<usize> {
        self.offsets[v as usize]..self.offsets[v as usize + 1]
    }

    /// True if every edge has weight 1.
    pub fn is_unit_weight(&self) -> bool {
        self.edges.iter().all(|e| e.w == 1)
    }

    /// Minimum edge weight, or `None` for an edgeless graph.
    pub fn min_weight(&self) -> Option<Weight> {
        self.edges.iter().map(|e| e.w).min()
    }

    /// Maximum edge weight, or `None` for an edgeless graph.
    pub fn max_weight(&self) -> Option<Weight> {
        self.edges.iter().map(|e| e.w).max()
    }

    /// The weight ratio `U = max_w / min_w` (1 for edgeless graphs).
    pub fn weight_ratio(&self) -> f64 {
        match (self.min_weight(), self.max_weight()) {
            (Some(lo), Some(hi)) => hi as f64 / lo as f64,
            _ => 1.0,
        }
    }
}

impl fmt::Debug for CsrGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CsrGraph")
            .field("n", &self.n)
            .field("m", &self.m())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn triangle() -> CsrGraph {
        CsrGraph::from_unit_edges(3, [(0, 1), (1, 2), (2, 0)])
    }

    #[test]
    fn edge_canonicalizes_order() {
        assert_eq!(Edge::new(5, 2, 7), Edge { u: 2, v: 5, w: 7 });
        assert_eq!(Edge::new(2, 5, 7), Edge { u: 2, v: 5, w: 7 });
    }

    #[test]
    fn edge_other_endpoint() {
        let e = Edge::new(1, 4, 2);
        assert_eq!(e.other(1), 4);
        assert_eq!(e.other(4), 1);
    }

    #[test]
    fn triangle_basic_counts() {
        let g = triangle();
        assert_eq!(g.n(), 3);
        assert_eq!(g.m(), 3);
        for v in 0..3 {
            assert_eq!(g.degree(v), 2);
        }
    }

    #[test]
    fn self_loops_are_dropped() {
        let g = CsrGraph::from_unit_edges(2, [(0, 0), (0, 1), (1, 1)]);
        assert_eq!(g.m(), 1);
        assert_eq!(g.edges()[0], Edge::new(0, 1, 1));
    }

    #[test]
    fn parallel_edges_keep_minimum_weight() {
        let g = CsrGraph::from_edges(
            2,
            [Edge::new(0, 1, 9), Edge::new(1, 0, 3), Edge::new(0, 1, 5)],
        );
        assert_eq!(g.m(), 1);
        assert_eq!(g.edges()[0].w, 3);
        // both adjacency slots see the merged weight
        assert_eq!(g.neighbors(0).next(), Some((1, 3)));
        assert_eq!(g.neighbors(1).next(), Some((0, 3)));
    }

    #[test]
    fn neighbors_are_symmetric() {
        let g = triangle();
        for v in 0..3u32 {
            for (u, w) in g.neighbors(v) {
                assert!(g.neighbors(u).any(|(x, xw)| x == v && xw == w));
            }
        }
    }

    #[test]
    fn slot_edge_ids_point_back_to_canonical_edges() {
        let g = CsrGraph::from_edges(
            4,
            [Edge::new(0, 1, 2), Edge::new(1, 2, 3), Edge::new(2, 3, 4)],
        );
        for v in 0..4u32 {
            for ((t, w, eid), slot) in g.neighbors_with_eid(v).zip(g.slot_range(v)) {
                let e = g.edge(eid);
                assert_eq!(g.slot_edge_id(slot), eid);
                assert_eq!(e.w, w);
                assert!((e.u == v && e.v == t) || (e.v == v && e.u == t));
            }
        }
    }

    #[test]
    fn empty_and_edgeless_graphs() {
        let g = CsrGraph::from_edges(0, std::iter::empty());
        assert_eq!(g.n(), 0);
        assert_eq!(g.m(), 0);
        let g = CsrGraph::from_edges(5, std::iter::empty());
        assert_eq!(g.n(), 5);
        assert_eq!(g.m(), 0);
        assert_eq!(g.degree(3), 0);
        assert!((g.weight_ratio() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn weight_statistics() {
        let g = CsrGraph::from_edges(3, [Edge::new(0, 1, 2), Edge::new(1, 2, 8)]);
        assert_eq!(g.min_weight(), Some(2));
        assert_eq!(g.max_weight(), Some(8));
        assert!((g.weight_ratio() - 4.0).abs() < 1e-12);
        assert!(!g.is_unit_weight());
        assert!(triangle().is_unit_weight());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range_endpoint() {
        let _ = CsrGraph::from_unit_edges(2, [(0, 2)]);
    }

    #[test]
    #[should_panic(expected = "weights must be >= 1")]
    fn rejects_zero_weight() {
        let _ = CsrGraph::from_edges(2, [Edge::new(0, 1, 0)]);
    }

    proptest! {
        /// CSR invariants hold for arbitrary edge soups.
        #[test]
        fn prop_csr_invariants(raw in proptest::collection::vec((0u32..50, 0u32..50, 1u64..100), 0..200)) {
            let g = CsrGraph::from_edges(50, raw.iter().map(|&(u, v, w)| Edge::new(u, v, w)));
            // degree sum is twice the edge count
            let degsum: usize = (0..50u32).map(|v| g.degree(v)).sum();
            prop_assert_eq!(degsum, 2 * g.m());
            // edges are canonical, strictly sorted, self-loop free
            for win in g.edges().windows(2) {
                prop_assert!((win[0].u, win[0].v) < (win[1].u, win[1].v));
            }
            for e in g.edges() {
                prop_assert!(e.u < e.v);
            }
            // adjacency is symmetric with matching weights
            for v in 0..50u32 {
                for (u, w) in g.neighbors(v) {
                    prop_assert!(g.neighbors(u).any(|(x, xw)| x == v && xw == w));
                }
            }
        }

        /// Merged parallel edges always keep the global minimum weight.
        #[test]
        fn prop_parallel_edge_merge_is_min(ws in proptest::collection::vec(1u64..1000, 1..20)) {
            let g = CsrGraph::from_edges(2, ws.iter().map(|&w| Edge::new(0, 1, w)));
            prop_assert_eq!(g.m(), 1);
            prop_assert_eq!(g.edges()[0].w, *ws.iter().min().unwrap());
        }
    }
}
