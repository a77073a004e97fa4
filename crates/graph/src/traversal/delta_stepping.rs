//! Δ-stepping — the practical parallel SSSP engine (Meyer–Sanders) — as a
//! [`Frontier`] driven by the shared engine ([`crate::frontier`]).
//!
//! The paper's searches are expressed as bucketed "weighted parallel BFS"
//! ([`crate::traversal::dial`], one bucket per distance value); Δ-stepping
//! generalizes the bucket key to `dist / Δ`, so a claim carries its
//! tentative distance explicitly: `(target, dist, parent)`. Relaxations
//! that stay inside the current width-Δ bucket re-open it (the engine
//! processes the re-filled key as an extra sub-round — the classic
//! light-edge iteration); relaxations that leave it land in later
//! buckets. A vertex can be committed several times as its tentative
//! distance improves; the `live` check (`claim.dist < dist[target]`)
//! drops everything stale. With `Δ = 1` the key degenerates to Dial; with
//! `Δ = ∞` to Bellman–Ford. It is the engine a production deployment
//! would use for the hopset clique searches when edge weights are spread
//! out, so the library ships it with the same instrumentation and
//! determinism guarantees as the other engines.
//!
//! Depth accounting (engine-measured): one round per (bucket, sub-round)
//! in which some tentative distance improved.

use crate::csr::{VertexId, Weight, INF};
use crate::frontier::{drive, BucketQueue, Frontier};
use crate::traversal::SsspResult;
use crate::view::GraphView;
use psh_exec::Executor;
use psh_pram::Cost;

/// A pending relaxation: reach `target` at tentative distance `dist`
/// through `parent`. Ordered target-first (engine contract), then by
/// (dist, parent): the smallest tentative distance wins, ties to the
/// minimum parent id.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
struct DeltaClaim {
    target: VertexId,
    dist: Weight,
    parent: VertexId,
}

struct DeltaStepping<'a, G> {
    g: &'a G,
    dist: Vec<Weight>,
    parent: Vec<VertexId>,
    delta: Weight,
}

impl<G: GraphView> Frontier for DeltaStepping<'_, G> {
    type Claim = DeltaClaim;

    fn target(c: &DeltaClaim) -> VertexId {
        c.target
    }

    fn live(&self, c: &DeltaClaim) -> bool {
        c.dist < self.dist[c.target as usize]
    }

    fn commit(&mut self, c: &DeltaClaim, _round: u64) {
        self.dist[c.target as usize] = c.dist;
        self.parent[c.target as usize] = c.parent;
    }

    fn expand(&self, c: &DeltaClaim, _round: u64, out: &mut Vec<(u64, DeltaClaim)>) -> u64 {
        // one plain loop at every n: cache hints for the dist[w] probe
        // measured slower on grids and R-MATs up to n = 2^17
        for (w, wt) in self.g.neighbors(c.target) {
            let nd = c.dist.saturating_add(wt);
            if nd < self.dist[w as usize] {
                out.push((
                    nd / self.delta,
                    DeltaClaim {
                        target: w,
                        dist: nd,
                        parent: c.target,
                    },
                ));
            }
        }
        self.g.degree(c.target) as u64
    }
}

/// Δ-stepping SSSP from `src` with bucket width `delta >= 1`.
pub fn delta_stepping<G: GraphView>(g: &G, src: VertexId, delta: Weight) -> (SsspResult, Cost) {
    delta_stepping_with(&Executor::current(), g, src, delta)
}

/// [`delta_stepping`] on an explicit executor.
pub fn delta_stepping_with<G: GraphView>(
    exec: &Executor,
    g: &G,
    src: VertexId,
    delta: Weight,
) -> (SsspResult, Cost) {
    assert!(delta >= 1, "bucket width must be at least 1");
    let n = g.n();
    let mut state = DeltaStepping {
        g,
        dist: vec![INF; n],
        parent: vec![u32::MAX; n],
        delta,
    };
    let mut queue = BucketQueue::new();
    queue.push(
        0,
        DeltaClaim {
            target: src,
            dist: 0,
            parent: src,
        },
    );
    let cost = Cost::flat(n as u64).then(drive(exec, &mut queue, &mut state));
    (
        SsspResult {
            dist: state.dist,
            parent: state.parent,
        },
        cost,
    )
}

/// A reasonable default bucket width: the mean edge weight (≥ 1), the
/// standard heuristic balancing light-phase re-relaxations against the
/// number of buckets.
pub fn default_delta<G: GraphView>(g: &G) -> Weight {
    if g.m() == 0 {
        return 1;
    }
    (g.total_weight() / g.m() as u64).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::CsrGraph;
    use crate::generators;
    use crate::traversal::dijkstra::dijkstra;
    use proptest::prelude::*;
    use psh_exec::ExecutionPolicy;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn matches_dijkstra_across_delta_values() {
        let mut rng = StdRng::seed_from_u64(1);
        let base = generators::connected_random(150, 400, &mut rng);
        let g = generators::with_uniform_weights(&base, 1, 50, &mut rng);
        let exact = dijkstra(&g, 0);
        for delta in [1u64, 5, 25, 1000] {
            let (r, _) = delta_stepping(&g, 0, delta);
            assert_eq!(r.dist, exact.dist, "delta = {delta}");
        }
    }

    #[test]
    fn delta_one_behaves_like_dial() {
        let g = generators::path(50);
        let (r, _) = delta_stepping(&g, 0, 1);
        assert_eq!(r.dist[49], 49);
        assert_eq!(r.path_to(49).unwrap().len(), 50);
    }

    #[test]
    fn wider_buckets_fewer_rounds() {
        let mut rng = StdRng::seed_from_u64(2);
        let base = generators::grid(20, 20);
        let g = generators::with_uniform_weights(&base, 1, 20, &mut rng);
        let (_, narrow) = delta_stepping(&g, 0, 1);
        let (_, wide) = delta_stepping(&g, 0, 100);
        assert!(
            wide.depth < narrow.depth,
            "wide {} vs narrow {}",
            wide.depth,
            narrow.depth
        );
    }

    #[test]
    fn default_delta_is_mean_weight() {
        let mut rng = StdRng::seed_from_u64(3);
        let g = generators::with_uniform_weights(&generators::cycle(30), 10, 10, &mut rng);
        assert_eq!(default_delta(&g), 10);
        assert_eq!(
            default_delta(&CsrGraph::from_edges(3, std::iter::empty())),
            1
        );
    }

    #[test]
    fn unreachable_stays_inf() {
        let g = CsrGraph::from_unit_edges(4, [(0, 1)]);
        let (r, _) = delta_stepping(&g, 0, 3);
        assert_eq!(r.dist, vec![0, 1, INF, INF]);
    }

    #[test]
    fn identical_results_across_executors() {
        let mut rng = StdRng::seed_from_u64(14);
        let base = generators::connected_random(250, 600, &mut rng);
        let g = generators::with_uniform_weights(&base, 1, 17, &mut rng);
        let (seq, seq_cost) = delta_stepping_with(&Executor::sequential(), &g, 3, 8);
        for threads in [2, 4, 8] {
            let exec = Executor::new(ExecutionPolicy::Parallel { threads });
            let (par, par_cost) = delta_stepping_with(&exec, &g, 3, 8);
            assert_eq!(seq, par, "threads={threads}");
            assert_eq!(seq_cost, par_cost, "cost model is execution-independent");
        }
    }

    proptest! {
        #[test]
        fn prop_delta_stepping_exact(seed in 0u64..120, delta in 1u64..40) {
            let mut rng = StdRng::seed_from_u64(seed);
            let base = generators::connected_random(50, 90, &mut rng);
            let g = generators::with_uniform_weights(&base, 1, 20, &mut rng);
            let (r, _) = delta_stepping(&g, 7, delta);
            prop_assert_eq!(r.dist, dijkstra(&g, 7).dist);
        }
    }
}
