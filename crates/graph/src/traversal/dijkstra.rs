//! Sequential Dijkstra: the exact-distance referee, and the search every
//! oracle query runs.
//!
//! Every probabilistic guarantee in the reproduction (spanner stretch,
//! hopset distortion) is checked against the exact distances of
//! [`dijkstra`] and [`dijkstra_pair`] in tests and experiments. They are
//! not instrumented with the cost model: they are the *referee*, not a
//! contestant, and they keep their binary heaps.
//!
//! [`bidirectional_pair`] is the search the served oracle answers with.
//! It runs Dijkstra forward from `s` and backward from `t` (the graph is
//! undirected), always expanding the side whose live top (below) is
//! smaller, the forward side on a tie. Every edge it scans that reaches a
//! vertex the other side has labelled closes an `s`–`t` path, and `best`
//! keeps the lightest. It stops once the two live tops sum to at least
//! `best` (no unsettled path can be lighter) or a side has run out of
//! entries. It is a different algorithm from the referee, so tests
//! compare the two.
//!
//! **The queue.** Each side queues its `(distance, vertex)` entries in a
//! monotone radix heap (Ahuja, Mehlhorn, Orlin and Tarjan, J. ACM 1990):
//! 65 buckets, each entry filed by the highest bit where its key differs
//! from the side's last minimum (bucket 0: no bit; bucket `i`: bit
//! `i − 1`). That is sound because a side's keys are monotone: it pushes
//! `d + w` only after popping `d`, and weights are at least 1 (the paper's
//! §2 normalization), so no key it pushes is below its last minimum.
//! Bucket 0 therefore holds the minimum whenever it is not empty. When it
//! is, the lowest nonempty bucket is refiled around its smallest key, and
//! each of its entries lands in a lower bucket. A push is O(1), and a pop
//! amortized O(log C) for C the largest key: an entry moves down at most
//! 64 times.
//!
//! **Live tops.** A queued entry whose key exceeds its vertex's label is
//! stale: the vertex was queued again, closer. A side pops its stale
//! entries before its top is read, so the stopping test and the choice of
//! side see live keys only, and no settled flags are kept. This is what
//! makes the search's [`Cost`] independent of the order in which equal
//! keys pop. Say side 0 pops its group of entries keyed `d` while side 1's
//! live top is `d'`, and the search did not stop, so `best > d + d'`. An
//! edge `(u, v, w)` scanned from the group offers `d + w + dist₁(v)`. If
//! `v` is unsettled on side 1, `dist₁(v) ≥ d'` and the offer exceeds
//! `d + d'`. If `v` is settled there, `best` already held at most
//! `d + dist₁(u) ≤ d + dist₁(v) + w` from whichever of `u`'s two labels
//! was written last. So `best` stays above `d + d'`, the tops do not move
//! until the group is spent, and a group is always expanded whole. The
//! vertices settled, and hence `Cost` and `best`, are then the same for
//! every order within a group. Without the rule a stale top on one side
//! could let the other side expand once more.
//!
//! Its [`Cost`] is the sequential search's: work is the adjacency slots
//! scanned plus the vertices settled, and depth equals work, because the
//! search is one sequential loop with no parallel rounds.
//!
//! The search runs on a per-thread scratch: both sides' distance
//! labels (side by side per vertex, so one cache line serves a scanned
//! edge's relaxation and its meeting test), the two queues, and the list
//! of vertices the last search touched. Only capacity carries over. Each
//! search first resets the entries its predecessor touched and empties
//! both queues, and records a vertex before it writes the vertex's
//! distance, so a search costs what it explores rather than `n`, and a
//! search that unwound mid-way (the psh-exec pool catches panics and keeps
//! its threads) leaves nothing a later one reads. Memory bound per thread
//! that searched, freed when the thread exits: 16 B per vertex of the
//! largest graph searched, plus the touched list (at most 4 B per vertex),
//! plus each side's 65 bucket `Vec`s. A bucket keeps its capacity, at
//! most twice the most entries it has held at once (16 B per entry), and
//! a search queues at most one entry per improving relaxation on a side,
//! so a side's buckets hold at most 130 times the largest queue one
//! search built there. Far fewer buckets fill in practice: after 256
//! searches on the king grid 300² the two sides' buckets held 1.46 MB at
//! log-uniform weights of ratio 64 (10 of 65 buckets in use per side,
//! beside 1.44 MB of labels) and 5.1 MB at ratio 10¹² (41 in use).

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
/// side 1 backward from `t`: the labels, each side's radix heap and the
/// touched list. A search resets what its predecessor touched before it
/// reads anything, so only capacity carries over (memory bound in the
/// module docs).
#[derive(Default)]
struct Scratch {
    /// Tentative distance per vertex and side, the two sides side by side
    /// so a scan reads both in one cache line; [`INF`] where the side has
    /// not reached the vertex.
    dist: Vec<[Weight; 2]>,
    queue: [RadixHeap; 2],
    /// Every vertex whose distance a search has written on either side,
    /// recorded before the first write.
    touched: Vec<VertexId>,
}

impl Scratch {
    fn search<G: GraphView>(&mut self, g: &G, s: VertexId, t: VertexId) -> (Weight, Cost) {
        let Scratch {
            dist,
            queue,
            touched,
        } = self;
        for v in touched.drain(..) {
            dist[v as usize] = [INF; 2];
        }
        if dist.len() < g.n() {
            dist.resize(g.n(), [INF; 2]);
        }
        for (side, v) in [(0, s), (1, t)] {
            queue[side].clear();
            queue[side].push(0, v);
            touched.push(v);
            dist[v as usize][side] = 0;
        }
        // each side's live top; only the side just expanded can move
        let mut top: [Weight; 2] = [0; 2];
        let mut best = INF;
        let mut work = 0u64;
        while top[0].saturating_add(top[1]) < best {
            let side = usize::from(top[1] < top[0]);
            let Some((d, u)) = queue[side].pop() else {
                unreachable!("a side with a finite top has an entry");
            };
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
                    queue[side].push(nd, v);
                }
            }
            top[side] = INF;
            while let Some((d, u)) = queue[side].top() {
                if d == dist[u as usize][side] {
                    top[side] = d;
                    break;
                }
                queue[side].pop(); // stale entry
            }
        }
        (best, Cost::new(work, work))
    }
}

/// A monotone radix heap of `(key, vertex)` entries: no key pushed may be
/// below the key [`RadixHeap::top`] last returned (see the module docs).
struct RadixHeap {
    /// `buckets[0]` holds the entries keyed `last`, and `buckets[i]` those
    /// whose key first differs from `last` at bit `i − 1`.
    buckets: [Vec<(Weight, VertexId)>; 65],
    /// The smallest key the heap has refiled around; no entry is below it.
    last: Weight,
}

impl Default for RadixHeap {
    fn default() -> Self {
        RadixHeap {
            buckets: std::array::from_fn(|_| Vec::new()),
            last: 0,
        }
    }
}

impl RadixHeap {
    /// Drops every entry and lowers the floor to 0, keeping each bucket's
    /// capacity.
    fn clear(&mut self) {
        self.buckets.iter_mut().for_each(Vec::clear);
        self.last = 0;
    }

    fn push(&mut self, key: Weight, v: VertexId) {
        debug_assert!(key >= self.last, "key {key} below the floor {}", self.last);
        self.buckets[bucket(key ^ self.last)].push((key, v));
    }

    /// An entry of least key, or `None` if the heap is empty. If bucket 0
    /// is empty, the lowest nonempty bucket is first refiled around its
    /// smallest key, which becomes the floor.
    fn top(&mut self) -> Option<(Weight, VertexId)> {
        if self.buckets[0].is_empty() {
            let i = self.buckets.iter().position(|b| !b.is_empty())?;
            let mut refile = std::mem::take(&mut self.buckets[i]);
            self.last = refile.iter().map(|&(key, _)| key).min()?;
            for (key, v) in refile.drain(..) {
                self.buckets[bucket(key ^ self.last)].push((key, v));
            }
            // every entry went lower; hand the bucket its capacity back
            self.buckets[i] = refile;
        }
        self.buckets[0].last().copied()
    }

    /// Removes and returns [`RadixHeap::top`].
    fn pop(&mut self) -> Option<(Weight, VertexId)> {
        self.top()?;
        self.buckets[0].pop()
    }
}

/// The bucket of a key that differs from the floor in the bits of `diff`:
/// 0 if it equals the floor, else one more than its highest differing
/// bit's index.
fn bucket(diff: Weight) -> usize {
    (Weight::BITS - diff.leading_zeros()) as usize
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
    /// live tops' sum 7 + 3 stops it.
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

    /// The search as it ran on binary heaps, allocated afresh per call,
    /// with the same live-top rule, read on both sides on every pass. The
    /// radix-heap search must match it exactly, `Cost` included.
    fn binary_heap_search<G: GraphView>(g: &G, s: VertexId, t: VertexId) -> (Weight, Cost) {
        if s == t {
            return (0, Cost::ZERO);
        }
        let mut dist = vec![[INF; 2]; g.n()];
        let mut heap: [BinaryHeap<Reverse<(Weight, VertexId)>>; 2] = Default::default();
        for (side, v) in [(0, s), (1, t)] {
            heap[side].push(Reverse((0, v)));
            dist[v as usize][side] = 0;
        }
        let (mut best, mut work) = (INF, 0u64);
        loop {
            let mut top = [INF; 2];
            for (side, top) in top.iter_mut().enumerate() {
                while let Some(&Reverse((d, u))) = heap[side].peek() {
                    if d == dist[u as usize][side] {
                        *top = d;
                        break;
                    }
                    heap[side].pop();
                }
            }
            if top[0].saturating_add(top[1]) >= best {
                return (best, Cost::new(work, work));
            }
            let side = usize::from(top[1] < top[0]);
            let Reverse((d, u)) = heap[side].pop().unwrap();
            work += 1 + g.degree(u) as u64;
            for (v, w) in g.neighbors(u) {
                let nd = d.saturating_add(w);
                let labels = &mut dist[v as usize];
                best = best.min(nd.saturating_add(labels[1 - side]));
                if nd < labels[side] {
                    labels[side] = nd;
                    heap[side].push(Reverse((nd, v)));
                }
            }
        }
    }

    /// A graph of `shape` on about `n` vertices: random graphs with
    /// weights up to 2⁴⁰, uniform (0) or log-uniform (1), where queued
    /// vertices are often reached again closer and stale tops occur; a
    /// unit grid (2) or path (3), where equal keys are everywhere; and
    /// [`random_instance`]'s graphs with weights 1 to 20, disconnected
    /// about half the time (4).
    fn shaped(shape: usize, n: usize, rng: &mut StdRng) -> CsrGraph {
        let heavy = 1u64 << 40;
        match shape {
            0 => generators::with_uniform_weights(
                &generators::connected_random(n, n, rng),
                1,
                heavy,
                rng,
            ),
            1 => generators::with_log_uniform_weights(
                &generators::connected_random(n, n, rng),
                heavy as f64,
                rng,
            ),
            2 => generators::grid(n / 6 + 1, 6),
            3 => generators::path(n),
            _ => random_instance(n, false, rng).0,
        }
    }

    /// The radix heap pops what a sorted `Vec` would: the extremes, then
    /// random monotone pushes at every scale (equal keys, small steps,
    /// random bit widths, `u64::MAX`) interleaved with pops, on one heap
    /// reused after `clear`.
    #[test]
    fn radix_heap_pops_in_key_order() {
        let mut heap = RadixHeap::default();
        for (key, v) in [(Weight::MAX, 0), (0, 1), (5, 2), (0, 3), (Weight::MAX, 4)] {
            heap.push(key, v);
        }
        assert_eq!(heap.pop().map(|(key, _)| key), Some(0));
        heap.push(0, 5); // equal to the floor
        heap.push(5, 6);
        let drained: Vec<_> = std::iter::from_fn(|| heap.pop().map(|(key, _)| key)).collect();
        assert_eq!(drained, [0, 0, 5, 5, Weight::MAX, Weight::MAX]);

        let mut rng = StdRng::seed_from_u64(29);
        for _ in 0..300 {
            heap.clear();
            let (mut model, mut floor) = (Vec::new(), 0);
            for v in 0..rng.random_range(1..300) {
                if model.is_empty() || rng.random_range(0..3) > 0 {
                    let room = Weight::MAX - floor;
                    let key = match rng.random_range(0..4) {
                        0 => floor,
                        1 => floor + rng.random_range(0..=room.min(4)),
                        2 => floor + (rng.random::<u64>() >> rng.random_range(0..64u32)).min(room),
                        _ => Weight::MAX,
                    };
                    heap.push(key, v);
                    model.push((key, v));
                } else {
                    let popped = heap.pop().expect("the heap holds the model's entries");
                    let least = model.iter().map(|&(key, _)| key).min();
                    assert_eq!(Some(popped.0), least);
                    let at = model.iter().position(|&e| e == popped);
                    model.swap_remove(at.expect("a popped entry was pushed"));
                    floor = popped.0;
                }
            }
            model.sort_unstable();
            let mut drained: Vec<_> = std::iter::from_fn(|| heap.pop()).collect();
            assert!(drained.is_sorted_by_key(|&(key, _)| key));
            drained.sort_unstable();
            assert_eq!(drained, model);
        }
    }

    /// At n ≥ 10⁵, where each refile moves thousands of entries, the
    /// search returns `dijkstra_pair`'s distance on 32 random pairs of
    /// non-isolated vertices per family. Release builds only: in a debug
    /// build the referee alone takes minutes here.
    #[cfg(not(debug_assertions))]
    #[test]
    fn bidirectional_search_matches_the_referee_at_scale() {
        let mut rng = StdRng::seed_from_u64(320);
        let king = generators::grid2d(320, 320);
        let rmat = generators::rmat(1 << 17, 16 << 17, &mut rng);
        let families = [
            (
                "king grid 320², w 64",
                generators::with_log_uniform_weights(&king, 64.0, &mut rng),
            ),
            (
                "king grid 320², w 2⁴⁰",
                generators::with_log_uniform_weights(&king, (1u64 << 40) as f64, &mut rng),
            ),
            ("unit grid 320²", generators::grid(320, 320)),
            (
                "R-MAT 2¹⁷, w 64",
                generators::with_log_uniform_weights(&rmat, 64.0, &mut rng),
            ),
        ];
        for (name, g) in &families {
            let mut pick = || loop {
                let v = rng.random_range(0..g.n() as VertexId);
                if g.degree(v) > 0 {
                    break v;
                }
            };
            for _ in 0..32 {
                let (s, t) = (pick(), pick());
                let d = bidirectional_pair(g, s, t).0;
                assert_eq!(d, dijkstra_pair(g, s, t), "{name}: ({s}, {t})");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        /// From a random source to every vertex (the source included) of
        /// each [`shaped`] family, the search returns exactly
        /// [`binary_heap_search`]'s distance and `Cost`, on the graph and
        /// on its mapped v2 copy, and the distance is `dijkstra_pair`'s.
        #[test]
        fn prop_bidirectional_search_matches_the_referee(
            seed in 0u64..1_000,
            shape in 0usize..5,
            n in 2usize..60,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let g = shaped(shape, n, &mut rng);
            let view = mapped(&g);
            let n = g.n() as VertexId;
            let s = rng.random_range(0..n);
            for t in 0..n {
                let reference = binary_heap_search(&g, s, t);
                prop_assert_eq!(bidirectional_pair(&g, s, t), reference, "({}, {})", s, t);
                prop_assert_eq!(bidirectional_pair(&view, s, t), reference);
                prop_assert_eq!(reference.0, dijkstra_pair(&g, s, t));
            }
        }
    }

    proptest! {
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
