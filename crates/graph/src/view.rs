//! The graph-view abstraction: algorithms read graphs through
//! [`GraphView`], storage decides how the bytes are laid out.
//!
//! Algorithm 4 recurses on every cluster of every decomposition level "in
//! parallel". Before this module, each recursive call *materialized* its
//! cluster as a fresh [`CsrGraph`] — a depth-`d` hopset build copied the
//! adjacency structure `O(d)` times over, with a burst of per-child `Vec`
//! allocations (edge staging, sort, dedup, CSR build) at every level. The
//! view layer removes that cost:
//!
//! * [`GraphView`] is the read-only contract every traversal, the
//!   clustering race, the spanner selection, and the hopset recursion are
//!   generic over: vertex/edge counts, degrees, neighbor iteration (with
//!   weights and canonical edge ids), and canonical edge access. It is
//!   the seam storage backends plug into, such as the mmap-backed
//!   snapshot view [`crate::MmapView`].
//! * [`CsrView`] is a borrowed CSR graph — five slices into someone
//!   else's storage. It is `Copy`, costs nothing to hand to a recursive
//!   call, and iterates exactly like the [`CsrGraph`] it was carved from
//!   (same canonical edge order, same adjacency order), so artifacts
//!   built through a view are byte-identical to artifacts built on a
//!   materialized copy — the `view_equivalence` suite enforces this.
//! * [`SplitArena`] is the per-recursion-level scratch that backs the
//!   views: [`SplitArena::split`] is a one-pass rewrite of the old
//!   `split_by_labels` that emits *all* child views of a decomposition
//!   into one reused set of offsets/targets/weights/eids buffers, with no
//!   per-child allocation. Arenas recycle through a thread-local pool
//!   ([`SplitArena::lease`]), so a deep recursion reuses one arena per
//!   level per worker instead of re-allocating at every node.
//!
//! The contract that makes the equivalence hold: a child's canonical edge
//! list inherits the parent's sorted order (local ids are assigned in
//! increasing parent-id order, so the relabeling is monotone in both
//! endpoints), and adjacency slots are filled by the same
//! edges-in-canonical-order sweep [`CsrGraph`] construction uses.

use crate::csr::{CsrGraph, Edge, VertexId, Weight};
use psh_pram::Cost;
use std::cell::RefCell;
use std::ops::{Deref, DerefMut};

/// Read-only access to an undirected graph in the workspace's canonical
/// shape: `u32` vertices, `u64` weights ≥ 1, deduplicated canonical edges
/// `(u < v, w)` with per-adjacency-slot edge provenance.
///
/// Implemented by [`CsrGraph`] (owned storage), [`CsrView`] (borrowed
/// arena storage) and [`crate::MmapView`] (snapshot slabs). Algorithms
/// written against `impl GraphView` run on all three without caring
/// which one they were handed.
pub trait GraphView: Sync {
    /// Number of vertices.
    fn n(&self) -> usize;

    /// Number of (undirected, deduplicated) edges.
    fn m(&self) -> usize;

    /// Degree of `v`.
    fn degree(&self, v: VertexId) -> usize;

    /// Iterate `(neighbor, weight)` pairs of `v`, in canonical adjacency
    /// order (the order is part of the determinism contract: artifacts
    /// must not depend on which implementation backed the iteration).
    fn neighbors(&self, v: VertexId) -> impl Iterator<Item = (VertexId, Weight)> + '_;

    /// Iterate `(neighbor, weight, canonical_edge_id)` triples of `v`.
    fn neighbors_with_eid(&self, v: VertexId)
        -> impl Iterator<Item = (VertexId, Weight, u32)> + '_;

    /// The canonical edge list, sorted by `(u, v)`.
    fn edges(&self) -> &[Edge];

    /// The canonical edge with id `eid`.
    #[inline]
    fn edge(&self, eid: u32) -> Edge {
        self.edges()[eid as usize]
    }

    /// True if every edge has weight 1.
    fn is_unit_weight(&self) -> bool {
        self.edges().iter().all(|e| e.w == 1)
    }
}

impl GraphView for CsrGraph {
    #[inline]
    fn n(&self) -> usize {
        CsrGraph::n(self)
    }

    #[inline]
    fn m(&self) -> usize {
        CsrGraph::m(self)
    }

    #[inline]
    fn degree(&self, v: VertexId) -> usize {
        CsrGraph::degree(self, v)
    }

    #[inline]
    fn neighbors(&self, v: VertexId) -> impl Iterator<Item = (VertexId, Weight)> + '_ {
        CsrGraph::neighbors(self, v)
    }

    #[inline]
    fn neighbors_with_eid(
        &self,
        v: VertexId,
    ) -> impl Iterator<Item = (VertexId, Weight, u32)> + '_ {
        CsrGraph::neighbors_with_eid(self, v)
    }

    #[inline]
    fn edges(&self) -> &[Edge] {
        CsrGraph::edges(self)
    }
}

/// A borrowed CSR graph: five slices into a [`SplitArena`]. `Copy`, so
/// recursive calls pass it by value. Offsets are local to the view's own
/// slices.
#[derive(Clone, Copy, Debug)]
pub struct CsrView<'a> {
    /// `offsets[v]..offsets[v+1]` indexes the three adjacency slices.
    offsets: &'a [u32],
    targets: &'a [VertexId],
    weights: &'a [Weight],
    slot_eids: &'a [u32],
    edges: &'a [Edge],
}

impl<'a> CsrView<'a> {
    /// Copy this view into an owned [`CsrGraph`] (the materializing
    /// escape hatch; the whole point of views is to avoid calling this on
    /// hot paths).
    pub fn to_graph(&self) -> CsrGraph {
        CsrGraph::from_edges(self.n(), self.edges.iter().copied())
    }

    #[inline]
    fn slot_range(&self, v: VertexId) -> std::ops::Range<usize> {
        self.offsets[v as usize] as usize..self.offsets[v as usize + 1] as usize
    }
}

impl GraphView for CsrView<'_> {
    #[inline]
    fn n(&self) -> usize {
        self.offsets.len() - 1
    }

    #[inline]
    fn m(&self) -> usize {
        self.edges.len()
    }

    #[inline]
    fn degree(&self, v: VertexId) -> usize {
        (self.offsets[v as usize + 1] - self.offsets[v as usize]) as usize
    }

    #[inline]
    fn neighbors(&self, v: VertexId) -> impl Iterator<Item = (VertexId, Weight)> + '_ {
        let range = self.slot_range(v);
        self.targets[range.clone()]
            .iter()
            .copied()
            .zip(self.weights[range].iter().copied())
    }

    #[inline]
    fn neighbors_with_eid(
        &self,
        v: VertexId,
    ) -> impl Iterator<Item = (VertexId, Weight, u32)> + '_ {
        let range = self.slot_range(v);
        self.targets[range.clone()]
            .iter()
            .copied()
            .zip(self.weights[range.clone()].iter().copied())
            .zip(self.slot_eids[range].iter().copied())
            .map(|((t, w), e)| (t, w, e))
    }

    #[inline]
    fn edges(&self) -> &[Edge] {
        self.edges
    }
}

/// Reusable scratch storage for one level of a cluster decomposition:
/// every child subgraph of one [`SplitArena::split`] call lives in these
/// buffers, exposed as [`CsrView`]s.
///
/// A depth-`d` recursion leases one arena per level ([`SplitArena::lease`]
/// recycles them through a thread-local pool), so steady-state deep
/// recursion performs **zero** per-child allocations: the split writes
/// into buffers sized once and reused.
#[derive(Debug, Default)]
pub struct SplitArena {
    /// Child `c`'s vertices occupy `to_parent[vert_start[c]..vert_start[c+1]]`.
    vert_start: Vec<usize>,
    /// Child `c`'s canonical edges occupy `edges[edge_start[c]..edge_start[c+1]]`.
    edge_start: Vec<usize>,
    /// Parent vertex of each (child-grouped) local vertex.
    to_parent: Vec<VertexId>,
    /// Concatenated per-child offset blocks (`n_c + 1` entries each,
    /// child-relative values).
    offsets: Vec<u32>,
    targets: Vec<VertexId>,
    weights: Vec<Weight>,
    slot_eids: Vec<u32>,
    edges: Vec<Edge>,
    /// Scratch: parent vertex → local id within its child.
    to_local: Vec<u32>,
    /// Scratch: per-child or per-vertex fill cursors.
    cursor: Vec<usize>,
    children: usize,
}

thread_local! {
    static ARENA_POOL: RefCell<Vec<SplitArena>> = const { RefCell::new(Vec::new()) };
}

/// Arenas kept per worker thread; beyond this, returned arenas are
/// dropped. Recursion depth is capped well below this, so in practice
/// every level's arena is recycled.
const ARENA_POOL_CAP: usize = 64;

impl SplitArena {
    /// A fresh, empty arena. Prefer [`SplitArena::lease`] on recursive
    /// paths so buffers recycle.
    pub fn new() -> Self {
        SplitArena::default()
    }

    /// Lease an arena from the current thread's pool (or create one).
    /// Dropping the lease returns the arena — buffers intact — to the
    /// pool, so the next `lease` on this thread reuses its allocations.
    pub fn lease() -> ArenaLease {
        let arena = ARENA_POOL
            .with(|pool| pool.borrow_mut().pop())
            .unwrap_or_default();
        ArenaLease(Some(arena))
    }

    /// Split `g` into the induced subgraphs of a dense labeling
    /// (`labels[v] in 0..k`), overwriting this arena's previous contents.
    /// Cut edges (different labels) are dropped — they are exactly the
    /// edges Lemma 4.2 charges separately.
    ///
    /// One pass over the vertices plus two over the canonical edge list;
    /// no allocation beyond growing this arena's buffers (amortized to
    /// zero under reuse). The resulting children are read through
    /// [`SplitArena::view`] / [`SplitArena::to_parent`] and are
    /// byte-identical, as graphs, to what the materializing
    /// `split_by_labels` builds.
    ///
    /// The reported [`Cost`] matches `split_by_labels` exactly — the two
    /// paths are interchangeable mid-pipeline without perturbing any
    /// artifact's cost accounting.
    pub fn split<G: GraphView>(&mut self, g: &G, labels: &[u32], k: usize) -> Cost {
        let n = g.n();
        assert_eq!(labels.len(), n, "labels must cover every vertex");
        self.children = k;

        // Pass 1 — group vertices by label: child vertex ranges, the
        // grouped to_parent table, and the parent→local map.
        self.vert_start.clear();
        self.vert_start.resize(k + 1, 0);
        for &l in labels {
            self.vert_start[l as usize + 1] += 1;
        }
        for c in 0..k {
            self.vert_start[c + 1] += self.vert_start[c];
        }
        self.to_parent.resize(n, 0);
        self.to_local.resize(n, 0);
        self.cursor.clear();
        self.cursor.resize(k, 0);
        for (v, &l) in labels.iter().enumerate() {
            let local = self.cursor[l as usize];
            self.to_parent[self.vert_start[l as usize] + local] = v as u32;
            self.to_local[v] = local as u32;
            self.cursor[l as usize] += 1;
        }

        // Pass 2 — count intra-cluster edges per child and per-vertex
        // intra-cluster degrees (reusing to_local is not possible here, so
        // degrees go into a dedicated section of `cursor` after the first
        // k slots are consumed; we simply re-size it to n below).
        self.edge_start.clear();
        self.edge_start.resize(k + 1, 0);
        self.cursor.clear();
        self.cursor.resize(n, 0); // cursor[v] = intra-degree of parent vertex v
        for e in g.edges() {
            let (lu, lv) = (labels[e.u as usize], labels[e.v as usize]);
            if lu == lv {
                self.edge_start[lu as usize + 1] += 1;
                self.cursor[e.u as usize] += 1;
                self.cursor[e.v as usize] += 1;
            }
        }
        for c in 0..k {
            self.edge_start[c + 1] += self.edge_start[c];
        }
        let m_intra = self.edge_start[k];

        // Per-child offset blocks: block for child c starts at
        // vert_start[c] + c (each child contributes n_c + 1 entries).
        self.offsets.resize(n + k, 0);
        for c in 0..k {
            let base = self.vert_start[c] + c;
            self.offsets[base] = 0;
            for i in 0..(self.vert_start[c + 1] - self.vert_start[c]) {
                let parent = self.to_parent[self.vert_start[c] + i];
                self.offsets[base + i + 1] =
                    self.offsets[base + i] + self.cursor[parent as usize] as u32;
            }
        }

        // Pass 3 — fill canonical child edges in parent canonical order.
        // Local ids are monotone in parent ids within a child, so the
        // relabeled list stays sorted by (u, v): a valid canonical order.
        self.edges.resize(m_intra, Edge { u: 0, v: 0, w: 0 });
        self.cursor.clear();
        self.cursor.resize(k, 0);
        for e in g.edges() {
            let (lu, lv) = (labels[e.u as usize], labels[e.v as usize]);
            if lu == lv {
                let c = lu as usize;
                let (a, b) = (self.to_local[e.u as usize], self.to_local[e.v as usize]);
                debug_assert!(a < b, "monotone relabeling must preserve u < v");
                self.edges[self.edge_start[c] + self.cursor[c]] = Edge { u: a, v: b, w: e.w };
                self.cursor[c] += 1;
            }
        }

        // Pass 4 — fill adjacency slots with the same edges-in-order
        // sweep CsrGraph construction uses, so neighbor iteration order
        // matches a materialized child exactly.
        self.targets.resize(2 * m_intra, 0);
        self.weights.resize(2 * m_intra, 0);
        self.slot_eids.resize(2 * m_intra, 0);
        self.cursor.clear();
        self.cursor.resize(n, 0); // cursor over global slot positions, per parent vertex
        for c in 0..k {
            let off_base = self.vert_start[c] + c;
            let slot_base = 2 * self.edge_start[c];
            for i in 0..(self.vert_start[c + 1] - self.vert_start[c]) {
                let parent = self.to_parent[self.vert_start[c] + i];
                self.cursor[parent as usize] = slot_base + self.offsets[off_base + i] as usize;
            }
        }
        for c in 0..k {
            for local_eid in 0..(self.edge_start[c + 1] - self.edge_start[c]) {
                let e = self.edges[self.edge_start[c] + local_eid];
                let pu = self.to_parent[self.vert_start[c] + e.u as usize] as usize;
                let pv = self.to_parent[self.vert_start[c] + e.v as usize] as usize;
                let su = self.cursor[pu];
                self.targets[su] = e.v;
                self.weights[su] = e.w;
                self.slot_eids[su] = local_eid as u32;
                self.cursor[pu] += 1;
                let sv = self.cursor[pv];
                self.targets[sv] = e.u;
                self.weights[sv] = e.w;
                self.slot_eids[sv] = local_eid as u32;
                self.cursor[pv] += 1;
            }
        }

        // Same cost as the materializing split: the two paths must be
        // interchangeable without perturbing any artifact's accounting.
        Cost::new(n as u64 + g.m() as u64, 3)
    }

    /// Number of children produced by the last [`SplitArena::split`].
    pub fn children(&self) -> usize {
        self.children
    }

    /// Vertex count of child `c`.
    pub fn child_n(&self, c: usize) -> usize {
        self.vert_start[c + 1] - self.vert_start[c]
    }

    /// Edge count of child `c`.
    pub fn child_m(&self, c: usize) -> usize {
        self.edge_start[c + 1] - self.edge_start[c]
    }

    /// The view of child `c` — valid until the next `split`.
    pub fn view(&self, c: usize) -> CsrView<'_> {
        let off_base = self.vert_start[c] + c;
        let slots = 2 * self.edge_start[c]..2 * self.edge_start[c + 1];
        CsrView {
            offsets: &self.offsets[off_base..=off_base + self.child_n(c)],
            targets: &self.targets[slots.clone()],
            weights: &self.weights[slots.clone()],
            slot_eids: &self.slot_eids[slots],
            edges: &self.edges[self.edge_start[c]..self.edge_start[c + 1]],
        }
    }

    /// Parent vertex ids of child `c`'s local vertices
    /// (`to_parent(c)[local] = parent id`), ascending.
    pub fn to_parent(&self, c: usize) -> &[VertexId] {
        &self.to_parent[self.vert_start[c]..self.vert_start[c + 1]]
    }
}

/// A [`SplitArena`] borrowed from the thread-local pool; returns the
/// arena (buffers intact) on drop. Dereferences to the arena.
pub struct ArenaLease(Option<SplitArena>);

impl Deref for ArenaLease {
    type Target = SplitArena;

    fn deref(&self) -> &SplitArena {
        self.0.as_ref().expect("arena present until drop")
    }
}

impl DerefMut for ArenaLease {
    fn deref_mut(&mut self) -> &mut SplitArena {
        self.0.as_mut().expect("arena present until drop")
    }
}

impl Drop for ArenaLease {
    fn drop(&mut self) {
        if let Some(arena) = self.0.take() {
            ARENA_POOL.with(|pool| {
                let mut pool = pool.borrow_mut();
                if pool.len() < ARENA_POOL_CAP {
                    pool.push(arena);
                }
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// A view must look exactly like the graph it was carved from.
    fn assert_same_graph<A: GraphView, B: GraphView>(a: &A, b: &B) {
        assert_eq!(a.n(), b.n());
        assert_eq!(a.m(), b.m());
        assert_eq!(a.edges(), b.edges());
        for v in 0..a.n() as u32 {
            assert_eq!(a.degree(v), b.degree(v));
            assert_eq!(
                a.neighbors(v).collect::<Vec<_>>(),
                b.neighbors(v).collect::<Vec<_>>()
            );
            assert_eq!(
                a.neighbors_with_eid(v).collect::<Vec<_>>(),
                b.neighbors_with_eid(v).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn whole_graph_as_single_child_matches_original() {
        let mut rng = StdRng::seed_from_u64(1);
        let base = generators::connected_random(60, 120, &mut rng);
        let g = generators::with_uniform_weights(&base, 1, 9, &mut rng);
        let mut arena = SplitArena::new();
        arena.split(&g, &vec![0u32; g.n()], 1);
        assert_eq!(arena.children(), 1);
        assert_eq!(arena.to_parent(0), (0..60u32).collect::<Vec<_>>());
        assert_same_graph(&arena.view(0), &g);
    }

    #[test]
    fn split_matches_materialized_subgraphs() {
        let mut rng = StdRng::seed_from_u64(2);
        let base = generators::connected_random(80, 200, &mut rng);
        let g = generators::with_uniform_weights(&base, 1, 7, &mut rng);
        let labels: Vec<u32> = (0..g.n() as u32).map(|v| v % 5).collect();
        let mut arena = SplitArena::new();
        let arena_cost = arena.split(&g, &labels, 5);
        let (subs, legacy_cost) = crate::subgraph::split_by_labels(&g, &labels, 5);
        assert_eq!(arena_cost, legacy_cost, "paths must agree on cost");
        assert_eq!(arena.children(), subs.len());
        for (c, sub) in subs.iter().enumerate() {
            assert_eq!(arena.to_parent(c), &sub.to_parent[..]);
            assert_same_graph(&arena.view(c), &sub.graph);
        }
    }

    #[test]
    fn arena_reuse_overwrites_previous_contents() {
        let g1 = generators::grid(6, 6);
        let g2 = generators::path(10);
        let mut arena = SplitArena::new();
        arena.split(&g1, &[0u32; 36], 1);
        assert_eq!(arena.view(0).m(), g1.m());
        // smaller second split: stale tail bytes must not leak into views
        arena.split(&g2, &(0..10u32).map(|v| v % 2).collect::<Vec<_>>(), 2);
        assert_eq!(arena.children(), 2);
        assert_eq!(arena.view(0).n() + arena.view(1).n(), 10);
        let total_m: usize = (0..2).map(|c| arena.view(c).m()).sum();
        // path 0-1-…-9 with labels v%2 cuts every edge
        assert_eq!(total_m, 0);
    }

    #[test]
    fn empty_children_are_valid_empty_views() {
        let g = generators::path(4);
        let mut arena = SplitArena::new();
        // label 3 is never used: child 3 must be an empty, queryable view
        arena.split(&g, &[0, 0, 1, 1], 4);
        assert_eq!(arena.child_n(3), 0);
        assert_eq!(arena.view(3).n(), 0);
        assert_eq!(arena.view(3).m(), 0);
    }

    #[test]
    fn lease_recycles_buffers_per_thread() {
        let g = generators::grid(8, 8);
        let cap = {
            let mut lease = SplitArena::lease();
            lease.split(&g, &vec![0u32; 64], 1);
            lease.targets.capacity()
        };
        // the recycled arena comes back with its buffers intact
        let lease = SplitArena::lease();
        assert!(lease.targets.capacity() >= cap);
    }

    #[test]
    fn to_graph_round_trips() {
        let mut rng = StdRng::seed_from_u64(3);
        let g = generators::connected_random(30, 60, &mut rng);
        let mut arena = SplitArena::new();
        arena.split(&g, &[0u32; 30], 1);
        assert_eq!(arena.view(0).to_graph(), g);
    }

    proptest! {
        /// Arena children and materialized children are indistinguishable
        /// through the GraphView interface, for arbitrary edge soups and
        /// labelings.
        #[test]
        fn prop_arena_split_equals_materializing_split(
            raw in proptest::collection::vec((0u32..40, 0u32..40, 1u64..20), 0..200),
            labels in proptest::collection::vec(0u32..6, 40)) {
            let g = CsrGraph::from_edges(40, raw.iter().map(|&(u, v, w)| Edge::new(u, v, w)));
            let mut arena = SplitArena::new();
            arena.split(&g, &labels, 6);
            let (subs, _) = crate::subgraph::split_by_labels(&g, &labels, 6);
            prop_assert_eq!(arena.children(), subs.len());
            for (c, sub) in subs.iter().enumerate() {
                prop_assert_eq!(arena.to_parent(c), &sub.to_parent[..]);
                let view = arena.view(c);
                prop_assert_eq!(view.edges(), sub.graph.edges());
                for v in 0..sub.graph.n() as u32 {
                    prop_assert_eq!(
                        view.neighbors_with_eid(v).collect::<Vec<_>>(),
                        sub.graph.neighbors_with_eid(v).collect::<Vec<_>>()
                    );
                }
            }
        }
    }
}
