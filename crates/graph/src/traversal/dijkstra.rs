//! Sequential Dijkstra: the exact-distance referee, and the search every
//! oracle query runs.
//!
//! Every probabilistic guarantee in the reproduction (spanner stretch,
//! hopset distortion) is checked against the exact distances of
//! [`dijkstra`] and [`dijkstra_pair`] in tests and experiments. They are
//! not instrumented with the cost model: they are the *referee*, not a
//! contestant.
//!
//! [`bidirectional_pair`] is the search the served oracle answers with.
//! It runs Dijkstra forward from `s` and backward from `t` (the graph is
//! undirected), always expanding the side whose heap top is smaller. Every
//! edge it scans that reaches a vertex the other side has labelled closes
//! an `s`–`t` path, and `best` keeps the lightest. It stops once the two
//! heap tops sum to at least `best` (no unsettled path can be lighter) or
//! both heaps are empty; a stale heap top only lowers that sum, so the
//! test stays sound. It is a different algorithm from the referee, so
//! tests compare the two.
//!
//! Its [`Cost`] is the sequential search's: work is the adjacency slots
//! scanned plus the vertices settled, and depth equals work, because the
//! search is one sequential loop with no parallel rounds.
//!
//! The search runs on a per-thread scratch: both sides' distance labels
//! (side by side per vertex, so one cache line serves a scanned edge's
//! relaxation and its meeting test), the two heaps, and the list of
//! vertices the last search touched. Only capacity carries over. Each
//! search first resets the entries its predecessor touched, and records a
//! vertex before it writes the vertex's distance, so a search costs what
//! it explores rather than `n`, and a search that unwound mid-way (the
//! psh-exec pool catches panics and keeps its threads) leaves nothing a
//! later one reads. A popped heap entry
//! whose key exceeds its vertex's distance is stale, so no settled flags
//! are kept. Memory bound per thread that searched: 16 B per vertex of the
//! largest graph searched, plus the touched list (at most 4 B per vertex)
//! and the heaps (16 B per entry, at most one entry per improving
//! relaxation of the largest search), freed when the thread exits.

use crate::csr::{VertexId, Weight, INF};
use crate::traversal::SsspResult;
use crate::view::GraphView;
use psh_pram::Cost;
use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Exact single-source shortest paths.
pub fn dijkstra<G: GraphView>(g: &G, src: VertexId) -> SsspResult {
    dijkstra_bounded(g, src, INF)
}

/// Dijkstra that abandons vertices further than `limit` (their distance
/// stays [`INF`]). Useful for the greedy spanner's pruned searches.
pub fn dijkstra_bounded<G: GraphView>(g: &G, src: VertexId, limit: Weight) -> SsspResult {
    let n = g.n();
    let mut dist = vec![INF; n];
    let mut parent = vec![u32::MAX; n];
    let mut heap: BinaryHeap<Reverse<(Weight, VertexId)>> = BinaryHeap::new();
    dist[src as usize] = 0;
    parent[src as usize] = src;
    heap.push(Reverse((0, src)));
    while let Some(Reverse((d, u))) = heap.pop() {
        if d > dist[u as usize] {
            continue; // stale entry
        }
        for (v, w) in g.neighbors(u) {
            let nd = d.saturating_add(w);
            if nd < dist[v as usize] && nd <= limit {
                dist[v as usize] = nd;
                parent[v as usize] = u;
                heap.push(Reverse((nd, v)));
            }
        }
    }
    SsspResult { dist, parent }
}

/// Exact `s`–`t` distance with early exit once `t` is settled.
pub fn dijkstra_pair<G: GraphView>(g: &G, s: VertexId, t: VertexId) -> Weight {
    if s == t {
        return 0;
    }
    let n = g.n();
    let mut dist = vec![INF; n];
    let mut heap: BinaryHeap<Reverse<(Weight, VertexId)>> = BinaryHeap::new();
    dist[s as usize] = 0;
    heap.push(Reverse((0, s)));
    while let Some(Reverse((d, u))) = heap.pop() {
        if u == t {
            return d;
        }
        if d > dist[u as usize] {
            continue;
        }
        for (v, w) in g.neighbors(u) {
            let nd = d.saturating_add(w);
            if nd < dist[v as usize] {
                dist[v as usize] = nd;
                heap.push(Reverse((nd, v)));
            }
        }
    }
    INF
}

/// Exact `s`–`t` distance by a bidirectional Dijkstra on this thread's
/// scratch ([`INF`] if `t` is unreachable), with the search's [`Cost`]
/// (see the module docs). `s == t` costs nothing. Out-of-range ids panic
/// before the scratch is touched.
pub fn bidirectional_pair<G: GraphView>(g: &G, s: VertexId, t: VertexId) -> (Weight, Cost) {
    let n = g.n();
    assert!(
        (s as usize) < n && (t as usize) < n,
        "vertex pair ({s}, {t}) out of range for n = {n}"
    );
    if s == t {
        return (0, Cost::ZERO);
    }
    SCRATCH.with_borrow_mut(|scratch| scratch.search(g, s, t))
}

thread_local! {
    // borrowed for a whole search: nothing a search calls may search again
    static SCRATCH: RefCell<Scratch> = RefCell::default();
}

/// One thread's bidirectional search state, side 0 forward from `s` and
/// side 1 backward from `t`.
#[derive(Default)]
struct Scratch {
    /// Tentative distance per vertex and side, the two sides side by side
    /// so a scan reads both in one cache line; [`INF`] where the side has
    /// not reached the vertex.
    dist: Vec<[Weight; 2]>,
    heap: [BinaryHeap<Reverse<(Weight, VertexId)>>; 2],
    /// Every vertex whose distance a search has written on either side,
    /// recorded before the first write.
    touched: Vec<VertexId>,
}

impl Scratch {
    fn search<G: GraphView>(&mut self, g: &G, s: VertexId, t: VertexId) -> (Weight, Cost) {
        let Scratch {
            dist,
            heap,
            touched,
        } = self;
        for v in touched.drain(..) {
            dist[v as usize] = [INF; 2];
        }
        if dist.len() < g.n() {
            dist.resize(g.n(), [INF; 2]);
        }
        for (side, v) in [(0, s), (1, t)] {
            heap[side].clear();
            heap[side].push(Reverse((0, v)));
            touched.push(v);
            dist[v as usize][side] = 0;
        }
        let mut best = INF;
        let mut work = 0u64;
        loop {
            let top = |side: usize| heap[side].peek().map_or(INF, |&Reverse((d, _))| d);
            let (top_s, top_t) = (top(0), top(1));
            if top_s.saturating_add(top_t) >= best {
                break;
            }
            let side = usize::from(top_t < top_s);
            let Some(Reverse((d, u))) = heap[side].pop() else {
                unreachable!("a side with a finite top has an entry");
            };
            if d > dist[u as usize][side] {
                continue; // stale entry
            }
            work += 1 + g.degree(u) as u64;
            for (v, w) in g.neighbors(u) {
                let nd = d.saturating_add(w);
                let labels = &mut dist[v as usize];
                let there = labels[1 - side];
                best = best.min(nd.saturating_add(there));
                if nd < labels[side] {
                    if labels[side] == INF && there == INF {
                        touched.push(v);
                    }
                    labels[side] = nd;
                    heap[side].push(Reverse((nd, v)));
                }
            }
        }
        (best, Cost::new(work, work))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::CsrGraph;
    use crate::csr::Edge;
    use crate::generators;
    use crate::source::tests::mapped;
    use crate::traversal::bellman_ford::tests::{random_instance, PanicsOnCall};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::panic::{catch_unwind, AssertUnwindSafe};

    fn weighted_sample() -> CsrGraph {
        CsrGraph::from_edges(
            5,
            [
                Edge::new(0, 1, 10),
                Edge::new(0, 2, 3),
                Edge::new(2, 1, 4),
                Edge::new(1, 3, 2),
                Edge::new(2, 3, 8),
                Edge::new(3, 4, 1),
            ],
        )
    }

    #[test]
    fn exact_distances() {
        let r = dijkstra(&weighted_sample(), 0);
        assert_eq!(r.dist, vec![0, 7, 3, 9, 10]);
    }

    #[test]
    fn parent_tree_is_consistent() {
        let g = weighted_sample();
        let r = dijkstra(&g, 0);
        // following parents from 4: 4 -> 3 -> 1 -> 2 -> 0
        assert_eq!(r.path_to(4).unwrap(), vec![0, 2, 1, 3, 4]);
        // path distances telescope
        for v in 0..5u32 {
            if r.parent[v as usize] != u32::MAX && r.parent[v as usize] != v {
                let p = r.parent[v as usize];
                let w = g
                    .neighbors(p)
                    .find(|&(t, _)| t == v)
                    .map(|(_, w)| w)
                    .unwrap();
                assert_eq!(r.dist[p as usize] + w, r.dist[v as usize]);
            }
        }
    }

    #[test]
    fn bounded_dijkstra_prunes() {
        let r = dijkstra_bounded(&weighted_sample(), 0, 7);
        assert_eq!(r.dist, vec![0, 7, 3, INF, INF]);
    }

    #[test]
    fn pair_query_matches_full_run() {
        let g = weighted_sample();
        for s in 0..5u32 {
            let full = dijkstra(&g, s);
            for t in 0..5u32 {
                assert_eq!(dijkstra_pair(&g, s, t), full.dist[t as usize]);
            }
        }
    }

    #[test]
    fn unreachable_pair_is_inf() {
        let g = CsrGraph::from_unit_edges(3, [(0, 1)]);
        assert_eq!(dijkstra_pair(&g, 0, 2), INF);
        assert_eq!(bidirectional_pair(&g, 0, 2).0, INF);
    }

    /// On the sample, `s = 0` and `t = 1`: the search settles 0 from `s`
    /// (work 1 + 2), 1 and 3 from `t` (1 + 3 each) and 2 from `s`
    /// (1 + 3). By then `best` is 3 + 4 = 7 through edge 2–1, and the
    /// heap tops' sum 10 + 3 stops it.
    #[test]
    fn bidirectional_search_charges_settled_vertices_and_scanned_slots() {
        let g = weighted_sample();
        assert_eq!(bidirectional_pair(&g, 0, 1), (7, Cost::new(15, 15)));
        assert_eq!(bidirectional_pair(&g, 3, 3), (0, Cost::ZERO));
    }

    /// Searches on one thread — across graph sizes and after a search
    /// that unwound mid-way — answer exactly as on a fresh thread: the
    /// thread's scratch carries capacity between searches, never state.
    #[test]
    fn scratch_carries_no_state_across_graphs_or_unwinds() {
        let mut rng = StdRng::seed_from_u64(31);
        let small = generators::with_uniform_weights(&generators::grid(5, 10), 1, 9, &mut rng);
        let (big, _) = random_instance(500, false, &mut rng);
        let graphs = [&small, &big, &small];
        let run = |g: &CsrGraph| {
            let n = g.n() as VertexId;
            [(0, n - 1), (n - 1, 0), (2, n / 2), (7, 7)].map(|(s, t)| bidirectional_pair(g, s, t))
        };
        let fresh: Vec<_> = graphs
            .iter()
            .map(|&g| std::thread::scope(|s| s.spawn(|| run(g)).join().unwrap()))
            .collect();
        let before: Vec<_> = graphs.iter().map(|&g| run(g)).collect();
        assert_eq!(before, fresh, "searches across graph sizes");
        // the first two settles label 0's and 49's neighbours on both
        // sides; the third neighbors call panics with them still written
        let bomb = PanicsOnCall {
            g: &small,
            k: 3,
            calls: Default::default(),
        };
        let unwound = catch_unwind(AssertUnwindSafe(|| bidirectional_pair(&bomb, 0, 49)));
        assert!(unwound.is_err(), "the third neighbors call must panic");
        let unwound = catch_unwind(|| bidirectional_pair(&small, 0, 50));
        assert!(unwound.is_err(), "an out-of-range id must panic");
        let after: Vec<_> = graphs.iter().map(|&g| run(g)).collect();
        assert_eq!(after, fresh, "searches after an unwind");
    }

    proptest! {
        /// The bidirectional search returns `dijkstra_pair`'s distance
        /// for every pair of a random weighted graph (disconnected ones
        /// and `s == t` included), and answers with the same distance and
        /// `Cost` on the graph and on its mapped v2 copy.
        #[test]
        fn prop_bidirectional_search_matches_the_referee(
            seed in 0u64..1_000,
            n in 2usize..60,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let (g, _) = random_instance(n, false, &mut rng);
            let view = mapped(&g);
            let s = rng.random_range(0..n as VertexId);
            for t in 0..n as VertexId {
                let (d, cost) = bidirectional_pair(&g, s, t);
                prop_assert_eq!(d, dijkstra_pair(&g, s, t), "({}, {})", s, t);
                prop_assert_eq!(bidirectional_pair(&view, s, t), (d, cost));
                prop_assert_eq!(cost.work, cost.depth);
            }
        }

        /// Dijkstra distances satisfy the exact triangle inequality on edges,
        /// and are realized by some edge (tightness).
        #[test]
        fn prop_dijkstra_fixpoint(seed in 0u64..300) {
            let mut rng = StdRng::seed_from_u64(seed);
            let base = generators::connected_random(50, 80, &mut rng);
            let g = generators::with_uniform_weights(&base, 1, 20, &mut rng);
            let r = dijkstra(&g, 0);
            for e in g.edges() {
                let (du, dv) = (r.dist[e.u as usize], r.dist[e.v as usize]);
                prop_assert!(du <= dv.saturating_add(e.w));
                prop_assert!(dv <= du.saturating_add(e.w));
            }
            for v in 1..50u32 {
                // some in-edge is tight
                let dv = r.dist[v as usize];
                prop_assert!(g.neighbors(v).any(|(u, w)| r.dist[u as usize] + w == dv),
                    "no tight edge into {} at dist {}", v, dv);
            }
        }
    }
}
