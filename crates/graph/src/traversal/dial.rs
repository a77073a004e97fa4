//! Bucketed integer-weight SSSP — the paper's "weighted parallel BFS" —
//! as a [`Frontier`] driven by the shared engine ([`crate::frontier`]).
//!
//! Klein–Subramanian \[KS97\] (and §5 of the paper) run shortest-path
//! searches on integer-weight graphs by processing distance values in
//! increasing order: all vertices settled at the same distance form one
//! parallel round, so the *depth* of a search is the number of distinct
//! distance levels — which the rounding scheme of Lemma 5.2 compresses to
//! `O(ck/ζ)`. This is Dial's algorithm with lazy deletion: a claim
//! `(target, parent)` at key `d` proposes to settle `target` at distance
//! `d`; the first bucket in which a vertex has a live claim is its exact
//! distance, later claims are stale. Contested settlements go to the
//! minimum parent id (engine tie-breaking), so the forest is
//! deterministic under any [`psh_exec::ExecutionPolicy`].
//!
//! Supports per-source start offsets, which is how a super-source with
//! weighted spokes (the ESTC implementation of Appendix A, Lemma 2.1) is
//! expressed without materializing the extra vertex.

use crate::csr::{VertexId, Weight, INF};
use crate::frontier::{drive, BucketQueue, Frontier};
use crate::traversal::SsspResult;
use crate::view::GraphView;
use psh_exec::Executor;
use psh_pram::Cost;

/// A pending settlement: reach `target` through `parent` at the bucket's
/// key. Ordered target-first (engine contract), then by parent id.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
struct DialClaim {
    target: VertexId,
    parent: VertexId,
}

struct Dial<'a, G> {
    g: &'a G,
    dist: Vec<Weight>,
    parent: Vec<VertexId>,
    settled: Vec<bool>,
    bound: Weight,
}

impl<G: GraphView> Frontier for Dial<'_, G> {
    type Claim = DialClaim;

    fn target(c: &DialClaim) -> VertexId {
        c.target
    }

    fn live(&self, c: &DialClaim) -> bool {
        !self.settled[c.target as usize]
    }

    fn commit(&mut self, c: &DialClaim, round: u64) {
        self.settled[c.target as usize] = true;
        self.dist[c.target as usize] = round;
        self.parent[c.target as usize] = c.parent;
    }

    fn expand(&self, c: &DialClaim, round: u64, out: &mut Vec<(u64, DialClaim)>) -> u64 {
        // one plain loop at every n: cache hints for the settled[w] probe
        // measured slower on grids and R-MATs up to n = 2^17
        for (w, wt) in self.g.neighbors(c.target) {
            let nd = round.saturating_add(wt);
            if nd < INF && nd <= self.bound && !self.settled[w as usize] {
                out.push((
                    nd,
                    DialClaim {
                        target: w,
                        parent: c.target,
                    },
                ));
            }
        }
        self.g.degree(c.target) as u64
    }
}

/// Single-source exact SSSP on integer weights.
pub fn dial_sssp<G: GraphView>(g: &G, src: VertexId) -> (SsspResult, Cost) {
    dial_sssp_bounded_with(&Executor::current(), g, &[(src, 0)], INF)
}

/// [`dial_sssp`] on an explicit executor.
pub fn dial_sssp_with<G: GraphView>(exec: &Executor, g: &G, src: VertexId) -> (SsspResult, Cost) {
    dial_sssp_bounded_with(exec, g, &[(src, 0)], INF)
}

/// Multi-source SSSP where source `s` starts at distance `offset`,
/// ignoring distances beyond `bound` (those vertices keep `dist == INF`;
/// pass [`INF`] for no bound). Bounded searches are what Algorithm 4 runs
/// inside its bounded-diameter recursive pieces.
pub fn dial_sssp_bounded<G: GraphView>(
    g: &G,
    sources: &[(VertexId, Weight)],
    bound: Weight,
) -> (SsspResult, Cost) {
    dial_sssp_bounded_with(&Executor::current(), g, sources, bound)
}

/// [`dial_sssp_bounded`] on an explicit executor.
pub fn dial_sssp_bounded_with<G: GraphView>(
    exec: &Executor,
    g: &G,
    sources: &[(VertexId, Weight)],
    bound: Weight,
) -> (SsspResult, Cost) {
    let n = g.n();
    let mut dial = Dial {
        g,
        dist: vec![INF; n],
        parent: vec![u32::MAX; n],
        settled: vec![false; n],
        bound,
    };
    let mut queue = BucketQueue::new();
    for &(s, off) in sources {
        if off < INF && off <= bound {
            queue.push(
                off,
                DialClaim {
                    target: s,
                    parent: s,
                },
            );
        }
    }
    let cost = Cost::flat(n as u64).then(drive(exec, &mut queue, &mut dial));
    (
        SsspResult {
            dist: dial.dist,
            parent: dial.parent,
        },
        cost,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::CsrGraph;
    use crate::csr::Edge;
    use crate::generators;
    use crate::traversal::dijkstra::dijkstra;
    use proptest::prelude::*;
    use psh_exec::ExecutionPolicy;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn matches_dijkstra_on_small_weighted_graph() {
        let g = CsrGraph::from_edges(
            5,
            [
                Edge::new(0, 1, 10),
                Edge::new(0, 2, 3),
                Edge::new(2, 1, 4),
                Edge::new(1, 3, 2),
                Edge::new(2, 3, 8),
                Edge::new(3, 4, 1),
            ],
        );
        let (r, _) = dial_sssp(&g, 0);
        assert_eq!(r.dist, dijkstra(&g, 0).dist);
    }

    #[test]
    fn offsets_shift_sources() {
        let g = generators::path(5); // 0-1-2-3-4 unit
                                     // source 0 at offset 3, source 4 at offset 0
        let (r, _) = dial_sssp_bounded(&g, &[(0, 3), (4, 0)], INF);
        assert_eq!(r.dist, vec![3, 3, 2, 1, 0]);
        // vertex 1: via 0 costs 4, via 4 costs 3
        assert_eq!(r.parent[1], 2);
    }

    #[test]
    fn parent_is_min_id_among_equally_good() {
        // diamond: 0-1, 0-2, 1-3, 2-3 — both 1 and 2 can parent 3
        let g = CsrGraph::from_unit_edges(4, [(0, 1), (0, 2), (1, 3), (2, 3)]);
        let (r, _) = dial_sssp(&g, 0);
        assert_eq!(r.parent[3], 1, "deterministic min-id parent expected");
    }

    #[test]
    fn bound_prunes_far_vertices() {
        let g = generators::path(10);
        let (r, _) = dial_sssp_bounded(&g, &[(0, 0)], 4);
        assert_eq!(r.dist[4], 4);
        assert_eq!(r.dist[5], INF);
    }

    #[test]
    fn depth_counts_distance_levels() {
        // path with weight-3 edges: levels are 0,3,6,9 → 4 nonempty rounds + init
        let g = CsrGraph::from_edges(4, (0..3).map(|i| Edge::new(i, i + 1, 3)));
        let (r, cost) = dial_sssp(&g, 0);
        assert_eq!(r.dist, vec![0, 3, 6, 9]);
        assert_eq!(cost.depth, 1 + 4);
    }

    #[test]
    fn duplicate_and_dominated_sources() {
        let g = generators::path(3);
        let (r, _) = dial_sssp_bounded(&g, &[(1, 5), (1, 2), (1, 9)], INF);
        assert_eq!(r.dist, vec![3, 2, 3]);
    }

    #[test]
    fn identical_results_across_executors() {
        let mut rng = StdRng::seed_from_u64(13);
        let base = generators::connected_random(300, 700, &mut rng);
        let g = generators::with_uniform_weights(&base, 1, 12, &mut rng);
        let (seq, seq_cost) = dial_sssp_with(&Executor::sequential(), &g, 9);
        for threads in [2, 4, 8] {
            let exec = Executor::new(ExecutionPolicy::Parallel { threads });
            let (par, par_cost) = dial_sssp_with(&exec, &g, 9);
            assert_eq!(seq, par, "threads={threads}");
            assert_eq!(seq_cost, par_cost, "cost model is execution-independent");
        }
    }

    proptest! {
        #[test]
        fn prop_dial_equals_dijkstra(seed in 0u64..200) {
            let mut rng = StdRng::seed_from_u64(seed);
            let base = generators::connected_random(60, 100, &mut rng);
            let g = generators::with_uniform_weights(&base, 1, 30, &mut rng);
            let (r, _) = dial_sssp(&g, 5);
            prop_assert_eq!(r.dist, dijkstra(&g, 5).dist);
        }

        #[test]
        fn prop_multi_source_is_min_over_sources(seed in 0u64..100) {
            let mut rng = StdRng::seed_from_u64(seed);
            let base = generators::connected_random(40, 60, &mut rng);
            let g = generators::with_uniform_weights(&base, 1, 10, &mut rng);
            let sources = [(3u32, 2u64), (17, 0), (25, 7)];
            let (r, _) = dial_sssp_bounded(&g, &sources, INF);
            for v in 0..40u32 {
                let expect = sources
                    .iter()
                    .map(|&(s, off)| dijkstra(&g, s).dist[v as usize].saturating_add(off))
                    .min()
                    .unwrap();
                prop_assert_eq!(r.dist[v as usize], expect);
            }
        }
    }
}
