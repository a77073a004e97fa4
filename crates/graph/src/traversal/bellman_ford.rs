//! Hop-limited Bellman–Ford over a graph plus an optional hopset.
//!
//! This computes `dist^h_{E ∪ E'}(s, ·)` — the *h-hop distance* of
//! Definition 2.4 — and is the query engine Klein–Subramanian \[KS97\] attach
//! to a hopset: once a `(ε, h, m')`-hopset exists, a `(1+ε)`-approximate
//! shortest path needs only `h` rounds of parallel edge relaxation, giving
//! the `O(m/ε)` work, `O(h)`-ish depth query of Theorem 1.2. The graph is
//! any [`GraphView`]; the hopset `E'` is an owned [`ExtraEdges`]
//! adjacency, the one form every entry takes.
//!
//! Frontier-based: only vertices whose distance improved in round `r-1`
//! relax their edges in round `r`, so work on easy instances is far below
//! the worst-case `h·m`. Each round is a Jacobi round: frontier vertices
//! relax against the distances the round started with, each target keeps
//! its best candidate in a per-vertex array, and the round ends by
//! committing the targets it touched. The improved set — and with it the
//! answers, the hop counts and the [`Cost`] — depends only on the
//! start-of-round state, never on the order the frontier is scanned in.
//!
//! The pair entry ([`hop_limited_pair`]) also bounds the sweep by the
//! target. At the start of each round it reads `b = dist[t]`, drops the
//! frontier vertices at `dist ≥ b` without charging them, and keeps only
//! candidates below `b`: no weight is negative, so no path through such
//! a vertex can improve `t`. `dist[t]` and its hop count come out equal to
//! the unbounded sweep's at every `h`, and `b` is read once per round, so
//! the improved set still depends only on the start-of-round state. A
//! round whose bounded frontier is empty is not run and not charged: the
//! sweep stops, and `t` is *settled* — its distance is final for every
//! larger `h` too. [`hop_limited_sssp`] has no target and sweeps
//! unbounded.
//!
//! [`hop_limited_pair_mapped`] reads every base-edge weight `w` as
//! `map(w)` while it relaxes the edge, and hopset edges as stored: a
//! weight band of §5 sweeps the base graph on its own grid that way,
//! without a rounded copy. It answers, `Cost` included, as the plain
//! sweep over a copy of the graph with mapped weights. The plain entries
//! are their own instantiation of the loop, with no mapping.
//!
//! Sweeps run on a per-thread scratch (distances, settle rounds,
//! candidates and the two frontier lists) that keeps its buffers from one
//! sweep to the next, so a steady stream of queries allocates nothing and
//! no round sorts. Every sweep refills the per-vertex arrays before
//! reading them: only capacity carries over, never state, so a sweep that
//! unwound mid-round (the psh-exec pool catches panics and keeps its
//! threads) leaves nothing a later sweep reads. Memory bound: one scratch
//! of about 28 B per vertex of the largest graph a thread has swept, per
//! such thread, freed when the thread exits. The served oracle does not
//! sweep (it answers with [`crate::traversal::dijkstra::bidirectional_pair`]),
//! so only the hopset experiments hold this scratch.

use crate::csr::{Edge, VertexId, Weight, INF};
use crate::view::GraphView;
use psh_pram::Cost;
use std::cell::RefCell;

/// A set of auxiliary (hopset) edges in CSR form over the same vertex ids
/// as the base graph. Undirected: both directions are stored. Offsets are
/// `u32`: 2m' adjacency slots fit the u32 edge-id space by the same bound
/// the canonical edge list obeys, which [`ExtraEdges::from_edges`] checks.
#[derive(Clone, Debug, Default)]
pub struct ExtraEdges {
    offsets: Vec<u32>,
    targets: Vec<VertexId>,
    weights: Vec<Weight>,
    m: usize,
}

impl ExtraEdges {
    /// Build from an undirected edge list over vertices `0..n`.
    pub fn from_edges(n: usize, edges: &[Edge]) -> Self {
        assert!(
            edges.len() as u64 * 2 <= u32::MAX as u64,
            "extra-edge slots exceed the u32 offset space"
        );
        let mut offsets = vec![0u32; n + 1];
        for e in edges {
            offsets[e.u as usize + 1] += 1;
            offsets[e.v as usize + 1] += 1;
        }
        for v in 0..n {
            offsets[v + 1] += offsets[v];
        }
        let acc = offsets[n] as usize;
        let mut cursor = offsets.clone();
        let mut targets = vec![0; acc];
        let mut weights = vec![0; acc];
        for e in edges {
            targets[cursor[e.u as usize] as usize] = e.v;
            weights[cursor[e.u as usize] as usize] = e.w;
            cursor[e.u as usize] += 1;
            targets[cursor[e.v as usize] as usize] = e.u;
            weights[cursor[e.v as usize] as usize] = e.w;
            cursor[e.v as usize] += 1;
        }
        ExtraEdges {
            offsets,
            targets,
            weights,
            m: edges.len(),
        }
    }

    /// Number of undirected extra edges.
    pub fn len(&self) -> usize {
        self.m
    }

    /// True if there are no extra edges.
    pub fn is_empty(&self) -> bool {
        self.m == 0
    }

    /// Iterate `(neighbor, weight)` of `v` among the extra edges.
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> impl Iterator<Item = (VertexId, Weight)> + '_ {
        let range = self.offsets[v as usize] as usize..self.offsets[v as usize + 1] as usize;
        self.targets[range.clone()]
            .iter()
            .copied()
            .zip(self.weights[range].iter().copied())
    }

    #[inline]
    fn degree(&self, v: VertexId) -> usize {
        (self.offsets[v as usize + 1] - self.offsets[v as usize]) as usize
    }
}

/// Result of a hop-limited query.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HopQuery {
    /// `dist[v] = dist^h_{E ∪ E'}(sources, v)`.
    pub dist: Vec<Weight>,
    /// Rounds actually executed (≤ the requested `h`; fewer if the
    /// relaxation reached a fixpoint early).
    pub rounds_run: usize,
    /// For each vertex, the round in which its final distance was set
    /// (0 for sources, `u32::MAX` if unreachable). `hops_settled[t]` is the
    /// number of hops a shortest ≤h-hop path to `t` uses.
    pub hops_settled: Vec<u32>,
}

/// Compute h-hop-limited distances from `sources` over `g` plus `extra`.
pub fn hop_limited_sssp<G: GraphView>(
    g: &G,
    extra: Option<&ExtraEdges>,
    sources: &[VertexId],
    h: usize,
) -> (HopQuery, Cost) {
    SCRATCH.with_borrow_mut(|scratch| {
        let (rounds_run, cost) = scratch.sweep(g, |w| w, extra, sources, None, h);
        (
            HopQuery {
                dist: scratch.dist.clone(),
                rounds_run,
                hops_settled: scratch.hops.clone(),
            },
            cost,
        )
    })
}

/// Result of a hop-limited `s`–`t` query.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PairQuery {
    /// `dist^h_{E ∪ E'}(s, t)`, or [`INF`].
    pub dist: Weight,
    /// The round in which `t`'s distance last improved: the number of
    /// hops a shortest ≤h-hop path to `t` uses (`u32::MAX` if unreached).
    pub hops: u32,
    /// The sweep stopped with no frontier vertex below `dist`, so `dist`
    /// is also the distance over `E ∪ E'` with no hop limit.
    pub settled: bool,
}

/// h-hop-limited `s`–`t` distance, swept only below the target's
/// distance (see the module docs). The [`Cost`] charges the bounded
/// sweep.
pub fn hop_limited_pair<G: GraphView>(
    g: &G,
    extra: Option<&ExtraEdges>,
    s: VertexId,
    t: VertexId,
    h: usize,
) -> (PairQuery, Cost) {
    hop_limited_pair_mapped(g, |w| w, extra, s, t, h)
}

/// [`hop_limited_pair`] with every base-edge weight `w` read as `map(w)`;
/// `extra`'s weights are read as stored. The answer and the [`Cost`] are
/// those of [`hop_limited_pair`] over a copy of `g` whose weights are
/// mapped (see the module docs).
pub fn hop_limited_pair_mapped<G: GraphView>(
    g: &G,
    map: impl Fn(Weight) -> Weight,
    extra: Option<&ExtraEdges>,
    s: VertexId,
    t: VertexId,
    h: usize,
) -> (PairQuery, Cost) {
    SCRATCH.with_borrow_mut(|scratch| {
        let (_, cost) = scratch.sweep(g, map, extra, &[s], Some(t), h);
        let q = PairQuery {
            dist: scratch.dist[t as usize],
            hops: scratch.hops[t as usize],
            settled: scratch.frontier.is_empty(),
        };
        (q, cost)
    })
}

thread_local! {
    // borrowed for a whole sweep: nothing a sweep calls may sweep again
    static SCRATCH: RefCell<Scratch> = RefCell::default();
}

/// One thread's sweep state. Only the buffers' capacity survives from one
/// sweep to the next — also past a sweep that unwound, which leaves the
/// scratch in place: [`Scratch::sweep`] refills every per-vertex array
/// before it reads it.
#[derive(Default)]
struct Scratch {
    /// Distances as of the start of the current round; final after the
    /// sweep.
    dist: Vec<Weight>,
    /// Round in which each vertex's distance was last set (`u32::MAX` if
    /// never).
    hops: Vec<u32>,
    /// The current round's best candidate per target; [`INF`] where the
    /// round has not touched the target.
    cand: Vec<Weight>,
    /// Vertices improved by the previous round, relaxed by this one; after
    /// the sweep, those a further round would relax.
    frontier: Vec<VertexId>,
    /// Targets the current round has touched, in first-touch order.
    next: Vec<VertexId>,
}

impl Scratch {
    /// Relax from `sources` for up to `h` rounds, reading each base-edge
    /// weight `w` as `map(w)`, leaving the answer in `dist` and `hops`.
    /// With a `target`, each round first drops the frontier vertices at
    /// or beyond the target's distance and keeps only candidates below
    /// it; the sweep ends early once no frontier vertex is left. Returns
    /// the rounds run and the sweep's cost: `n` for the start state, then
    /// per round one unit per adjacency slot scanned plus one per vertex
    /// improved.
    fn sweep<G: GraphView>(
        &mut self,
        g: &G,
        map: impl Fn(Weight) -> Weight,
        extra: Option<&ExtraEdges>,
        sources: &[VertexId],
        target: Option<VertexId>,
        h: usize,
    ) -> (usize, Cost) {
        let n = g.n();
        let Scratch {
            dist,
            hops,
            cand,
            frontier,
            next,
        } = self;
        dist.clear();
        dist.resize(n, INF);
        hops.clear();
        hops.resize(n, u32::MAX);
        cand.clear();
        cand.resize(n, INF);
        frontier.clear();
        next.clear();
        for &s in sources {
            // a repeated source enters the frontier once
            if dist[s as usize] != 0 {
                dist[s as usize] = 0;
                hops[s as usize] = 0;
                frontier.push(s);
            }
        }
        let mut cost = Cost::flat(n as u64);
        let mut rounds = 0usize;
        loop {
            // read once per round, so the improved set stays independent
            // of scan order
            let bound = target.map_or(INF, |t| dist[t as usize]);
            if bound != INF {
                frontier.retain(|&u| dist[u as usize] < bound);
            }
            if frontier.is_empty() || rounds == h {
                break;
            }
            rounds += 1;
            let mut scanned = 0u64;
            for &u in frontier.iter() {
                scanned += (g.degree(u) + extra.map_or(0, |e| e.degree(u))) as u64;
                let du = dist[u as usize];
                let mut relax = |v: VertexId, w: Weight| {
                    let nd = du.saturating_add(w);
                    let c = &mut cand[v as usize];
                    if nd < bound && nd < dist[v as usize] && nd < *c {
                        if *c == INF {
                            next.push(v);
                        }
                        *c = nd;
                    }
                };
                for (v, w) in g.neighbors(u) {
                    relax(v, map(w));
                }
                if let Some(e) = extra {
                    for (v, w) in e.neighbors(u) {
                        relax(v, w);
                    }
                }
            }
            for &v in next.iter() {
                dist[v as usize] = std::mem::replace(&mut cand[v as usize], INF);
                hops[v as usize] = rounds as u32;
            }
            cost = cost.then(Cost::flat(scanned + next.len() as u64));
            std::mem::swap(frontier, next);
            next.clear();
        }
        (rounds, cost)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::csr::CsrGraph;
    use crate::generators;
    use crate::traversal::dijkstra::dijkstra;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// A deliberately plain Jacobi sweep: copy `dist` every round, relax
    /// every frontier vertex's base and extra edges against the copy, and
    /// charge `n` plus, per round, the slots scanned and vertices improved.
    /// With a `target`, every round first reads `b = dist[target]`, keeps
    /// only the frontier vertices below `b` (uncharged) and only the
    /// candidates below `b`, and a round left with no frontier is not run.
    /// The flag reports an empty frontier at the end.
    fn reference(
        g: &CsrGraph,
        extra: Option<&ExtraEdges>,
        sources: &[VertexId],
        target: Option<VertexId>,
        h: usize,
    ) -> (HopQuery, Cost, bool) {
        let n = g.n();
        let mut dist = vec![INF; n];
        let mut hops = vec![u32::MAX; n];
        let mut frontier: Vec<usize> = sources.iter().map(|&s| s as usize).collect();
        frontier.sort_unstable();
        frontier.dedup();
        for &s in &frontier {
            dist[s] = 0;
            hops[s] = 0;
        }
        let mut work = n as u64;
        let mut rounds = 0;
        loop {
            let b = target.map_or(INF, |t| dist[t as usize]);
            frontier.retain(|&u| dist[u] < b);
            if frontier.is_empty() || rounds == h {
                break;
            }
            rounds += 1;
            let before = dist.clone();
            for &u in &frontier {
                let mut edges: Vec<(VertexId, Weight)> = g.neighbors(u as VertexId).collect();
                if let Some(e) = extra {
                    edges.extend(e.neighbors(u as VertexId));
                }
                work += edges.len() as u64;
                for (v, w) in edges {
                    let nd = before[u].saturating_add(w);
                    if nd < b {
                        dist[v as usize] = dist[v as usize].min(nd);
                    }
                }
            }
            frontier = (0..n).filter(|&v| dist[v] < before[v]).collect();
            for &v in &frontier {
                hops[v] = rounds as u32;
            }
            work += frontier.len() as u64;
        }
        let q = HopQuery {
            dist,
            rounds_run: rounds,
            hops_settled: hops,
        };
        (q, Cost::new(work, 1 + rounds as u64), frontier.is_empty())
    }

    /// A random weighted graph on `n` vertices (sometimes disconnected)
    /// and, if `with_extra`, random extra edges over it.
    pub(crate) fn random_instance(
        n: usize,
        with_extra: bool,
        rng: &mut StdRng,
    ) -> (CsrGraph, Option<ExtraEdges>) {
        let base = if rng.random_range(0..2) == 0 {
            generators::connected_random(n, n, rng)
        } else {
            generators::erdos_renyi(n, n - 1, rng)
        };
        let g = generators::with_uniform_weights(&base, 1, 20, rng);
        let extra = with_extra.then(|| {
            let edges: Vec<Edge> = (0..n / 2 + 1)
                .map(|_| {
                    let u = rng.random_range(0..n as VertexId);
                    let v = (u + rng.random_range(1..n as VertexId)) % n as VertexId;
                    Edge::new(u, v, rng.random_range(1..60))
                })
                .collect();
            ExtraEdges::from_edges(n, &edges)
        });
        (g, extra)
    }

    /// Delegates to `g`, but panics on the `k`-th call to `neighbors`.
    pub(crate) struct PanicsOnCall<'a> {
        pub(crate) g: &'a CsrGraph,
        pub(crate) k: usize,
        pub(crate) calls: AtomicUsize,
    }

    impl GraphView for PanicsOnCall<'_> {
        fn n(&self) -> usize {
            self.g.n()
        }

        fn m(&self) -> usize {
            self.g.m()
        }

        fn degree(&self, v: VertexId) -> usize {
            self.g.degree(v)
        }

        fn neighbors(&self, v: VertexId) -> impl Iterator<Item = (VertexId, Weight)> + '_ {
            let call = self.calls.fetch_add(1, Ordering::Relaxed) + 1;
            assert!(call != self.k, "neighbors call {call} panics");
            self.g.neighbors(v)
        }

        fn neighbors_with_eid(
            &self,
            v: VertexId,
        ) -> impl Iterator<Item = (VertexId, Weight, u32)> + '_ {
            self.g.neighbors_with_eid(v)
        }

        fn edges(&self) -> &[Edge] {
            self.g.edges()
        }
    }

    #[test]
    fn unlimited_hops_match_dijkstra() {
        let mut rng = StdRng::seed_from_u64(20);
        let base = generators::connected_random(80, 120, &mut rng);
        let g = generators::with_uniform_weights(&base, 1, 9, &mut rng);
        let (q, _) = hop_limited_sssp(&g, None, &[0], g.n());
        assert_eq!(q.dist, dijkstra(&g, 0).dist);
    }

    #[test]
    fn hop_limit_binds_on_a_path() {
        let g = generators::path(10);
        let (q, _) = hop_limited_sssp(&g, None, &[0], 4);
        assert_eq!(q.dist[4], 4);
        assert_eq!(q.dist[5], INF);
        assert_eq!(q.rounds_run, 4);
    }

    #[test]
    fn hopset_edge_cuts_hops() {
        // path 0..=9 plus a shortcut 0-9 of the exact path weight
        let g = generators::path(10);
        let extra = ExtraEdges::from_edges(10, &[Edge::new(0, 9, 9)]);
        let (no, _) = hop_limited_pair(&g, None, 0, 9, 10);
        assert_eq!((no.dist, no.hops), (9, 9));
        let (yes, _) = hop_limited_pair(&g, Some(&extra), 0, 9, 10);
        assert_eq!(yes.dist, 9, "shortcut must not change the distance");
        assert_eq!(yes.hops, 1, "shortcut should settle t in one hop");
    }

    #[test]
    fn early_fixpoint_stops_rounds() {
        let g = generators::star(50);
        let (q, _) = hop_limited_sssp(&g, None, &[0], 1000);
        assert_eq!(q.rounds_run, 2, "star reaches a fixpoint in two rounds");
        assert!(q.dist.iter().all(|&d| d <= 2));
    }

    #[test]
    fn hops_settled_is_monotone_in_distance_layers() {
        let g = generators::path(6);
        let (q, _) = hop_limited_sssp(&g, None, &[0], 10);
        assert_eq!(q.hops_settled, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn extra_edges_accessors() {
        let e = ExtraEdges::from_edges(4, &[Edge::new(0, 2, 5), Edge::new(1, 3, 7)]);
        assert_eq!(e.len(), 2);
        assert!(!e.is_empty());
        assert_eq!(e.neighbors(0).collect::<Vec<_>>(), vec![(2, 5)]);
        assert_eq!(e.neighbors(2).collect::<Vec<_>>(), vec![(0, 5)]);
        assert!(ExtraEdges::from_edges(3, &[]).is_empty());
    }

    /// Sweeps on one thread — across graph sizes and after a sweep that
    /// unwound mid-round — answer exactly as on a fresh thread: the
    /// thread's scratch carries capacity between sweeps, never state.
    #[test]
    fn scratch_carries_no_state_across_graphs_or_unwinds() {
        let mut rng = StdRng::seed_from_u64(31);
        let small = generators::with_uniform_weights(&generators::grid(5, 10), 1, 9, &mut rng);
        let (big, big_extra) = random_instance(500, true, &mut rng);
        let small_extra = ExtraEdges::from_edges(50, &[Edge::new(0, 49, 40), Edge::new(12, 37, 6)]);
        let sweeps = [
            (&small, &small_extra),
            (&big, big_extra.as_ref().unwrap()),
            (&small, &small_extra),
        ];
        let run = |(g, extra): (&CsrGraph, &ExtraEdges)| {
            let t = (g.n() - 1) as VertexId;
            (
                hop_limited_sssp(g, Some(extra), &[0, 3, 0], g.n()),
                hop_limited_pair(g, Some(extra), 0, t, g.n()),
                hop_limited_pair(g, None, 2, t, g.n() / 4),
            )
        };
        let fresh: Vec<_> = sweeps
            .iter()
            .map(|&sweep| std::thread::scope(|s| s.spawn(|| run(sweep)).join().unwrap()))
            .collect();
        let before: Vec<_> = sweeps.iter().map(|&sweep| run(sweep)).collect();
        assert_eq!(before, fresh, "sweeps across graph sizes");
        // round 1 relaxes vertex 0; round 2 first relaxes 1 (touching 2
        // and 11), then panics on 10 with those candidates uncommitted
        let bomb = PanicsOnCall {
            g: &small,
            k: 3,
            calls: AtomicUsize::new(0),
        };
        let unwound = catch_unwind(AssertUnwindSafe(|| {
            hop_limited_pair(&bomb, Some(&small_extra), 0, 49, 50)
        }));
        assert!(unwound.is_err(), "the third neighbors call must panic");
        let after: Vec<_> = sweeps.iter().map(|&sweep| run(sweep)).collect();
        assert_eq!(after, fresh, "sweeps after an unwind");
    }

    /// A path whose far end is reached early through a heavy direct edge:
    /// the bounded pair sweep stops before the hop limit and reports the
    /// target settled; one hop short of the last improvement, it is not.
    #[test]
    fn pair_sweep_stops_below_the_target() {
        let path = generators::path(8);
        let mut edges = path.edges().to_vec();
        edges.push(Edge::new(0, 7, 5));
        let g = CsrGraph::from_edges(8, edges);
        let (q, cost) = hop_limited_pair(&g, None, 0, 7, 8);
        assert_eq!((q.dist, q.hops, q.settled), (5, 1, true));
        let (full, full_cost) = hop_limited_sssp(&g, None, &[0], 8);
        assert_eq!(full.dist[7], 5);
        assert!(cost.work < full_cost.work && cost.depth < full_cost.depth);
        // after three rounds vertex 3, at 3 < 5, is still on the frontier
        let (q, _) = hop_limited_pair(&g, None, 0, 7, 3);
        assert_eq!((q.dist, q.settled), (5, false));
    }

    proptest! {
        /// The scratch-backed sweep matches the plain Jacobi reference
        /// exactly — distances, settle rounds, rounds run and `Cost` — with
        /// and without extra edges, from repeated sources, at every hop
        /// budget from 1 to n. The pair entry point matches the bounded
        /// reference's `Cost` and settled flag, and the unbounded one's
        /// distance and hop count; a settled distance is the one with no
        /// hop limit.
        #[test]
        fn prop_matches_plain_reference(
            seed in 0u64..1_000,
            n in 2usize..60,
            h_pick in 0usize..1_000,
            with_extra in 0u8..2,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let (g, extra) = random_instance(n, with_extra == 1, &mut rng);
            let h = 1 + h_pick % n;
            let pick = |rng: &mut StdRng| rng.random_range(0..n as VertexId);
            let (a, b) = (pick(&mut rng), pick(&mut rng));
            let sources = [a, b, a, pick(&mut rng), b];
            let (sssp, sssp_cost, _) = reference(&g, extra.as_ref(), &sources, None, h);
            prop_assert_eq!(
                hop_limited_sssp(&g, extra.as_ref(), &sources, h),
                (sssp, sssp_cost)
            );
            let (single, _, _) = reference(&g, extra.as_ref(), &[a], None, h);
            let (unlimited, _, _) = reference(&g, extra.as_ref(), &[a], None, n);
            for t in 0..n {
                let (q, cost) = hop_limited_pair(&g, extra.as_ref(), a, t as VertexId, h);
                let (_, bounded_cost, settled) =
                    reference(&g, extra.as_ref(), &[a], Some(t as VertexId), h);
                prop_assert_eq!((q.dist, q.hops), (single.dist[t], single.hops_settled[t]));
                prop_assert_eq!((cost, q.settled), (bounded_cost, settled));
                if q.settled {
                    prop_assert_eq!(q.dist, unlimited.dist[t]);
                }
            }
        }

        /// A sweep that maps base weights answers, hop counts, settled
        /// flag and `Cost` included, as the plain sweep over a copy whose
        /// weights are mapped; extra edges keep their stored weights.
        #[test]
        fn prop_mapped_sweep_matches_a_mapped_copy(
            seed in 0u64..1_000,
            n in 2usize..60,
            h_pick in 0usize..1_000,
            grid in 1u64..8,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let (g, extra) = random_instance(n, true, &mut rng);
            let h = 1 + h_pick % n;
            let map = |w: Weight| w.div_ceil(grid);
            let copy = CsrGraph::from_edges(
                n,
                g.edges().iter().map(|e| Edge::new(e.u, e.v, map(e.w))),
            );
            let s = rng.random_range(0..n as VertexId);
            for t in 0..n as VertexId {
                prop_assert_eq!(
                    hop_limited_pair_mapped(&g, map, extra.as_ref(), s, t, h),
                    hop_limited_pair(&copy, extra.as_ref(), s, t, h)
                );
            }
        }

        /// h-hop distances are monotone nonincreasing in h and never
        /// undershoot the true distance.
        #[test]
        fn prop_hop_distance_sandwich(seed in 0u64..150, h in 1usize..12) {
            let mut rng = StdRng::seed_from_u64(seed);
            let base = generators::connected_random(40, 70, &mut rng);
            let g = generators::with_uniform_weights(&base, 1, 5, &mut rng);
            let exact = dijkstra(&g, 0);
            let (qh, _) = hop_limited_sssp(&g, None, &[0], h);
            let (qh1, _) = hop_limited_sssp(&g, None, &[0], h + 1);
            for v in 0..g.n() {
                prop_assert!(qh.dist[v] >= qh1.dist[v], "more hops can only help");
                prop_assert!(qh.dist[v] >= exact.dist[v], "h-hop dist lower-bounded by true dist");
            }
        }

        /// With h >= n-1 the hop limit never binds.
        #[test]
        fn prop_full_hops_exact(seed in 0u64..100) {
            let mut rng = StdRng::seed_from_u64(seed);
            let base = generators::connected_random(30, 60, &mut rng);
            let g = generators::with_uniform_weights(&base, 1, 8, &mut rng);
            let (q, _) = hop_limited_sssp(&g, None, &[7], g.n());
            prop_assert_eq!(q.dist, dijkstra(&g, 7).dist);
        }
    }
}
