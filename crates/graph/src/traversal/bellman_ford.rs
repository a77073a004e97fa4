//! Hop-limited Bellman–Ford over a graph plus an optional hopset.
//!
//! This computes `dist^h_{E ∪ E'}(s, ·)` — the *h-hop distance* of
//! Definition 2.4 — and is the query engine Klein–Subramanian \[KS97\] attach
//! to a hopset: once a `(ε, h, m')`-hopset exists, a `(1+ε)`-approximate
//! shortest path needs only `h` rounds of parallel edge relaxation, giving
//! the `O(m/ε)` work, `O(h)`-ish depth query of Theorem 1.2.
//!
//! Frontier-based: only vertices whose distance improved in round `r-1`
//! relax their edges in round `r`, so work on easy instances is far below
//! the worst-case `h·m`. Relaxations are gathered in parallel and applied
//! as a deterministic per-target minimum.

use crate::csr::{Edge, VertexId, Weight, INF};
use crate::prefetch::{lookahead, prefetch_pays, prefetch_read};
use crate::view::GraphView;
use psh_pram::Cost;
use rayon::prelude::*;

/// A set of auxiliary (hopset) edges in CSR form over the same vertex ids
/// as the base graph. Undirected: both directions are stored. Offsets are
/// `u32` (2m' adjacency slots fit the u32 edge-id space by the same bound
/// the canonical edge list obeys), so the borrowed form ([`ExtraView`])
/// can alias a mapped snapshot slab directly.
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
        self.view().neighbors(v)
    }

    /// Borrow as the slice-backed form the query cores run on.
    #[inline]
    pub fn view(&self) -> ExtraView<'_> {
        ExtraView {
            offsets: &self.offsets,
            targets: &self.targets,
            weights: &self.weights,
        }
    }
}

/// Borrowed extra-edge adjacency: three slices in the layout
/// [`ExtraEdges::from_edges`] produces — owned storage and mapped v2
/// snapshot slabs both hand out this form, so the hop-limited cores
/// below run identically on either. `Copy`, like [`crate::CsrView`].
#[derive(Clone, Copy, Debug)]
pub struct ExtraView<'a> {
    offsets: &'a [u32],
    targets: &'a [VertexId],
    weights: &'a [Weight],
}

impl<'a> ExtraView<'a> {
    /// Assemble a view from raw parts (mapped snapshot slabs). `offsets`
    /// needs one entry per vertex plus a trailing total; the adjacency
    /// slices hold both directions of every extra edge.
    pub fn from_raw(offsets: &'a [u32], targets: &'a [VertexId], weights: &'a [Weight]) -> Self {
        assert!(!offsets.is_empty(), "offsets needs a trailing total");
        debug_assert_eq!(*offsets.last().unwrap() as usize, targets.len());
        debug_assert_eq!(targets.len(), weights.len());
        ExtraView {
            offsets,
            targets,
            weights,
        }
    }

    /// Iterate `(neighbor, weight)` of `v` among the extra edges.
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> impl Iterator<Item = (VertexId, Weight)> + 'a {
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
    hop_limited_sssp_on(g, extra.map(ExtraEdges::view), sources, h)
}

/// [`hop_limited_sssp`] on borrowed extra-edge slices — the core both
/// the owned and the mapped (v2 snapshot) oracle reprs run, so their
/// relaxation sequences — and therefore answers and costs — are
/// identical by construction.
pub fn hop_limited_sssp_on<G: GraphView>(
    g: &G,
    extra: Option<ExtraView<'_>>,
    sources: &[VertexId],
    h: usize,
) -> (HopQuery, Cost) {
    let n = g.n();
    let mut dist = vec![INF; n];
    let mut hops = vec![u32::MAX; n];
    let mut frontier: Vec<VertexId> = sources.to_vec();
    frontier.sort_unstable();
    frontier.dedup();
    for &s in &frontier {
        dist[s as usize] = 0;
        hops[s as usize] = 0;
    }
    let mut cost = Cost::flat(n as u64);
    let mut rounds = 0usize;
    while !frontier.is_empty() && rounds < h {
        rounds += 1;
        let scanned: u64 = frontier
            .par_iter()
            .map(|&v| (g.degree(v) + extra.map_or(0, |e| e.degree(v))) as u64)
            .sum();
        let dist_ref = &dist;
        // the dist[v] probe is the random read in this loop; once dist
        // outgrows L2 ([`prefetch_pays`]), hint it a few candidates
        // ahead of the filter. The two arms spell out the same loop body
        // rather than sharing it through a closure: routing the iterator
        // construction through a shared closure cost ~30% qps on
        // cache-resident graphs (n=800), so each arm must stay
        // independently inlinable.
        let mut relax: Vec<(VertexId, Weight)> = if prefetch_pays(n) {
            frontier
                .par_iter()
                .flat_map_iter(|&u| {
                    let du = dist_ref[u as usize];
                    let base = g.neighbors(u).map(move |(v, w)| (v, du.saturating_add(w)));
                    let ext = extra
                        .into_iter()
                        .flat_map(move |e| e.neighbors(u))
                        .map(move |(v, w)| (v, du.saturating_add(w)));
                    lookahead(base.chain(ext), |&(v, _)| {
                        prefetch_read(dist_ref, v as usize);
                    })
                    .filter(|&(v, nd)| nd < dist_ref[v as usize])
                })
                .collect()
        } else {
            frontier
                .par_iter()
                .flat_map_iter(|&u| {
                    let du = dist_ref[u as usize];
                    let base = g.neighbors(u).map(move |(v, w)| (v, du.saturating_add(w)));
                    let ext = extra
                        .into_iter()
                        .flat_map(move |e| e.neighbors(u))
                        .map(move |(v, w)| (v, du.saturating_add(w)));
                    base.chain(ext).filter(|&(v, nd)| nd < dist_ref[v as usize])
                })
                .collect()
        };
        relax.par_sort_unstable();
        let mut next = Vec::new();
        let mut last = u32::MAX;
        for (v, nd) in relax {
            if v == last {
                continue;
            }
            last = v;
            if nd < dist[v as usize] {
                dist[v as usize] = nd;
                hops[v as usize] = rounds as u32;
                next.push(v);
            }
        }
        cost = cost.then(Cost::flat(scanned + next.len() as u64));
        frontier = next;
    }
    (
        HopQuery {
            dist,
            rounds_run: rounds,
            hops_settled: hops,
        },
        cost,
    )
}

/// h-hop-limited `s`–`t` distance. Returns the distance (or [`INF`]) and
/// the number of hops after which `t`'s distance last improved.
pub fn hop_limited_pair<G: GraphView>(
    g: &G,
    extra: Option<&ExtraEdges>,
    s: VertexId,
    t: VertexId,
    h: usize,
) -> (Weight, u32, Cost) {
    hop_limited_pair_on(g, extra.map(ExtraEdges::view), s, t, h)
}

/// [`hop_limited_pair`] on borrowed extra-edge slices (see
/// [`hop_limited_sssp_on`]).
pub fn hop_limited_pair_on<G: GraphView>(
    g: &G,
    extra: Option<ExtraView<'_>>,
    s: VertexId,
    t: VertexId,
    h: usize,
) -> (Weight, u32, Cost) {
    let (q, cost) = hop_limited_sssp_on(g, extra, &[s], h);
    (q.dist[t as usize], q.hops_settled[t as usize], cost)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use crate::traversal::dijkstra::dijkstra;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

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
        let (d_no, hops_no, _) = hop_limited_pair(&g, None, 0, 9, 10);
        assert_eq!((d_no, hops_no), (9, 9));
        let (d_yes, hops_yes, _) = hop_limited_pair(&g, Some(&extra), 0, 9, 10);
        assert_eq!(d_yes, 9, "shortcut must not change the distance");
        assert_eq!(hops_yes, 1, "shortcut should settle t in one hop");
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

    proptest! {
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
