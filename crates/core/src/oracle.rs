//! The served shortest-path oracle: a graph and an exact search.
//!
//! **Preprocess** ([`crate::api::OracleBuilder`]): check that every
//! distance fits `f64` exactly (at most 2⁵³) and copy the graph. No
//! hopset is built.
//!
//! **Query**: a target-bounded bidirectional Dijkstra
//! ([`bidirectional_pair`]) on a per-thread scratch. Every answer is the
//! exact distance. Batches of pairs are served through
//! [`ApproxShortestPaths::query_batch`], which fans the pairs across the
//! psh-exec pool; an oracle can be saved and reloaded through
//! [`crate::snapshot`], so preprocessing and serving can run as separate
//! processes.
//!
//! ## Why the served oracle holds no hopset
//!
//! Theorem 1.2's oracle (an Algorithm 4 hopset per §5 distance band,
//! queried by an h-hop-limited Bellman–Ford) exists to cut the *depth* of
//! a parallel `(1+ε)`-approximate search. At the default parameters every
//! hopset it kept was one star per band, and every answer already equalled
//! the exact distance: it was an exact hop-limited Bellman–Ford that
//! trailed sequential Dijkstra, and the bidirectional search answers the
//! same pairs 4–5× faster per query on both benchmark shapes (README,
//! "Which search serves"). So the approximate oracle left the serving
//! path. The constructions stay for the experiment binaries:
//! [`crate::api::HopsetBuilder`], [`crate::hopset::WeightedHopsets::query`]
//! and the hop-limited sweeps of `psh_graph::traversal::bellman_ford`.
//! The type keeps its name, because the serving tier and the benchmark
//! name it.
//!
//! ## Storage representations
//!
//! An oracle is **owned** (a heap [`CsrGraph`], what a fresh build
//! produces) or **mapped** (a [`MmapView`] whose slabs are borrowed
//! straight out of a snapshot region opened through
//! [`psh_graph::SnapshotSource`], what [`crate::snapshot::load_oracle_v2`]
//! produces). The two answer every query byte-identically, **costs
//! included**, under every [`ExecutionPolicy`]: both run the same generic
//! search, and the mapped slabs are validated at load time to iterate
//! exactly like the owned graph they mirror.

use psh_exec::ExecutionPolicy;
use psh_graph::traversal::dijkstra::{bidirectional_pair, dijkstra_pair};
use psh_graph::{CsrGraph, Edge, GraphView, MmapView, VertexId, Weight, INF};
use psh_pram::Cost;

/// A preprocessed graph that answers shortest-path distance queries.
pub struct ApproxShortestPaths {
    repr: Repr,
}

impl std::fmt::Debug for ApproxShortestPaths {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ApproxShortestPaths")
            .field("n", &self.graph().n())
            .field("m", &self.graph().m())
            .field("mapped", &self.is_mapped())
            .finish()
    }
}

/// Storage representation: an owned graph or borrowed snapshot slabs.
enum Repr {
    Owned(CsrGraph),
    Mapped(MmapView),
}

/// Borrowed view of an oracle's graph, independent of how the oracle is
/// stored. All representations expose the same vertex/edge counts and the
/// same canonical sorted edge list.
#[derive(Clone, Copy)]
pub enum OracleGraph<'a> {
    /// Heap-owned (a fresh build).
    Owned(&'a CsrGraph),
    /// Borrowed from a mapped v2 snapshot.
    Mapped(&'a MmapView),
}

impl OracleGraph<'_> {
    /// Number of vertices.
    pub fn n(&self) -> usize {
        match self {
            OracleGraph::Owned(g) => g.n(),
            OracleGraph::Mapped(g) => g.n(),
        }
    }

    /// Number of (undirected, canonical) edges.
    pub fn m(&self) -> usize {
        match self {
            OracleGraph::Owned(g) => g.m(),
            OracleGraph::Mapped(g) => g.m(),
        }
    }

    /// The canonical sorted edge list.
    pub fn edges(&self) -> &[Edge] {
        match self {
            OracleGraph::Owned(g) => g.edges(),
            OracleGraph::Mapped(g) => g.edges(),
        }
    }
}

impl std::fmt::Debug for OracleGraph<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OracleGraph")
            .field("n", &self.n())
            .field("m", &self.m())
            .field("mapped", &matches!(self, OracleGraph::Mapped(_)))
            .finish()
    }
}

/// A query answer with diagnostics.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct QueryResult {
    /// The exact `s`–`t` distance (`f64::INFINITY` if disconnected).
    pub distance: f64,
    /// Exact distance is never larger than this answer (always `true`).
    pub upper_bound: bool,
}

impl ApproxShortestPaths {
    /// An oracle owning `g`; [`crate::api::OracleBuilder`] has validated
    /// it.
    pub(crate) fn owned(g: CsrGraph) -> Self {
        ApproxShortestPaths {
            repr: Repr::Owned(g),
        }
    }

    /// An oracle serving a validated snapshot view.
    pub(crate) fn mapped(g: MmapView) -> Self {
        ApproxShortestPaths {
            repr: Repr::Mapped(g),
        }
    }

    /// Exact `s`–`t` distance by the bidirectional search, with its
    /// [`Cost`]: work = adjacency slots scanned plus vertices settled,
    /// depth = work (the search is sequential). `s == t` costs nothing.
    /// Out-of-range vertex ids panic.
    pub fn query(&self, s: VertexId, t: VertexId) -> (QueryResult, Cost) {
        let (d, cost) = match &self.repr {
            Repr::Owned(g) => bidirectional_pair(g, s, t),
            Repr::Mapped(g) => bidirectional_pair(g, s, t),
        };
        let distance = if d == INF { f64::INFINITY } else { d as f64 };
        (
            QueryResult {
                distance,
                upper_bound: true,
            },
            cost,
        )
    }

    /// Answer a batch of `s`–`t` queries, fanned across the psh-exec pool.
    ///
    /// The serving entry point: pairs are independent, so they map onto
    /// [`psh_exec::Executor::par_map`] with one pair per work unit.
    /// Answers come back **in input order** and are byte-identical for
    /// every [`ExecutionPolicy`] (the pool's determinism contract); the
    /// returned [`Cost`] composes the per-pair costs in parallel — work is
    /// the *sum* over all pairs, depth the maximum — and is likewise
    /// identical for every policy. An oracle never changes after
    /// construction; serving replaces it only as a whole `Arc` (see
    /// [`crate::service::OracleService::swap_oracle`]). Out-of-range vertex
    /// ids panic, exactly as [`ApproxShortestPaths::query`] does; validate
    /// untrusted workloads against [`OracleGraph::n`] first.
    pub fn query_batch(
        &self,
        pairs: &[(VertexId, VertexId)],
        policy: ExecutionPolicy,
    ) -> (Vec<QueryResult>, Cost) {
        let exec = policy.executor();
        let answered = exec.par_map(pairs, 1, |&(s, t)| self.query(s, t));
        let cost = Cost::par_all(answered.iter().map(|(_, c)| *c));
        (answered.into_iter().map(|(r, _)| r).collect(), cost)
    }

    /// Exact reference distance (one-sided Dijkstra), the referee the
    /// tests hold [`ApproxShortestPaths::query`] to.
    pub fn query_exact(&self, s: VertexId, t: VertexId) -> Weight {
        match &self.repr {
            Repr::Owned(g) => dijkstra_pair(g, s, t),
            Repr::Mapped(g) => dijkstra_pair(g, s, t),
        }
    }

    /// The underlying graph, as a representation-independent view.
    pub fn graph(&self) -> OracleGraph<'_> {
        match &self.repr {
            Repr::Owned(g) => OracleGraph::Owned(g),
            Repr::Mapped(g) => OracleGraph::Mapped(g),
        }
    }

    /// Whether this oracle serves straight off a mapped/loaded snapshot
    /// region (v2) rather than owned heap buffers.
    pub fn is_mapped(&self) -> bool {
        matches!(self.repr, Repr::Mapped(_))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{OracleBuilder, Seed};
    use psh_graph::generators;

    fn build(g: &CsrGraph, seed: u64) -> ApproxShortestPaths {
        OracleBuilder::new()
            .seed(Seed(seed))
            .build(g)
            .unwrap()
            .artifact
    }

    #[test]
    fn answers_are_exact_on_unit_and_weighted_graphs() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(2);
        let unit = generators::grid(16, 16);
        let weighted = generators::with_uniform_weights(&generators::grid(10, 10), 1, 20, &mut rng);
        for g in [&unit, &weighted] {
            let oracle = build(g, 1);
            assert!(!oracle.is_mapped(), "fresh builds are owned");
            let n = g.n() as VertexId;
            for (s, t) in [(0, n - 1), (0, 15), (17, n / 2), (n / 3, n / 3 + 1)] {
                let (r, _) = oracle.query(s, t);
                assert_eq!(r.distance, oracle.query_exact(s, t) as f64, "({s},{t})");
                assert!(r.upper_bound);
            }
        }
    }

    #[test]
    fn self_and_disconnected_queries() {
        let g = CsrGraph::from_unit_edges(4, [(0, 1)]);
        let oracle = build(&g, 3);
        assert_eq!(oracle.query(2, 2), oracle.query(0, 0));
        assert_eq!(oracle.query(2, 2).1, Cost::ZERO);
        assert_eq!(oracle.query(2, 2).0.distance, 0.0);
        assert!(oracle.query(0, 3).0.distance.is_infinite());
    }

    #[test]
    fn query_batch_matches_single_queries_for_every_policy() {
        let g = generators::grid(12, 12);
        let oracle = build(&g, 5);
        let pairs: Vec<(u32, u32)> = (0..48).map(|i| (i, 143 - i)).collect();
        let singles: Vec<(QueryResult, Cost)> =
            pairs.iter().map(|&(s, t)| oracle.query(s, t)).collect();
        let expect_cost = Cost::par_all(singles.iter().map(|(_, c)| *c));
        let expect: Vec<QueryResult> = singles.into_iter().map(|(r, _)| r).collect();
        for policy in [
            ExecutionPolicy::Sequential,
            ExecutionPolicy::Parallel { threads: 2 },
            ExecutionPolicy::Parallel { threads: 4 },
        ] {
            let (answers, cost) = oracle.query_batch(&pairs, policy);
            assert_eq!(answers, expect, "{policy}");
            assert_eq!(cost, expect_cost, "{policy}");
        }
        // empty batches are fine
        let (none, zero) = oracle.query_batch(&[], ExecutionPolicy::Sequential);
        assert!(none.is_empty());
        assert_eq!(zero, Cost::ZERO);
    }
}
