//! The end-to-end `(1+ε)`-approximate shortest-path oracle of Theorem 1.2.
//!
//! **Preprocess** (`O(m·poly log n)` work): build a hopset. Unweighted
//! graphs need a single Algorithm 4 hopset; weighted graphs get one per
//! distance band (§5). Graphs whose weight ratio exceeds `n³` should be
//! routed through Appendix B's [`super::hopset::WeightClassDecomposition`]
//! first (exposed separately; the oracle asserts the poly-bounded case).
//!
//! **Query** (`O(m/ε)` work, `O(h)`-round depth): h-hop-limited parallel
//! Bellman–Ford over `E ∪ E'` — \[KS97\]'s procedure. Each sweep relaxes
//! only below the target's current distance and stops once no frontier
//! vertex is below it ([`hop_limited_pair_on`]). A weighted oracle sweeps
//! its bands in increasing `d` and stops after the first `ŵ = 1` band
//! whose value is exact; it keeps no band after the first one that is
//! exact for every pair (see [`crate::hopset::weighted`]). Batches of
//! pairs are served through [`ApproxShortestPaths::query_batch`], which
//! fans the pairs across the psh-exec pool; a preprocessed oracle can be
//! saved and reloaded through [`crate::snapshot`], so preprocessing and
//! serving can run as separate processes.
//!
//! ## Storage representations
//!
//! An oracle is **owned** (heap `CsrGraph`/`Hopset`/`ExtraEdges` buffers —
//! what a fresh build produces) or **mapped** (every slab borrowed
//! straight out of a snapshot region opened through
//! [`psh_graph::SnapshotSource`] — what
//! [`crate::snapshot::load_oracle_v2`] produces). Either way the oracle
//! holds one graph, its base graph. A weighted band holds none: it is its
//! `d`, grid `ŵ`, hop budget and hopset, and it sweeps the base graph on
//! its grid (see [`crate::hopset::weighted`]). The two representations
//! answer every query byte-identically, **costs included**, under every
//! [`ExecutionPolicy`]: both route through the same generic hop-limited
//! relaxation, and the mapped slabs are validated at load time to
//! iterate exactly like the owned structures they mirror.

use crate::hopset::rounding::Rounding;
use crate::hopset::unweighted::build_hopset_with_beta0_on;
use crate::hopset::weighted::{build_weighted_hopsets_impl, query_bands, Bands, WeightedHopsets};
use crate::hopset::{Hopset, HopsetParams};
use psh_exec::{ExecutionPolicy, Executor};
use psh_graph::traversal::bellman_ford::{hop_limited_pair, hop_limited_pair_on, PairQuery};
use psh_graph::traversal::dijkstra::dijkstra_pair;
use psh_graph::{CsrGraph, Edge, ExtraSlabsView, GraphView, MmapView, VertexId, Weight, INF};
use psh_pram::Cost;
use rand::Rng;

/// A preprocessed graph that answers approximate distance queries.
pub struct ApproxShortestPaths {
    pub(crate) repr: Repr,
}

impl std::fmt::Debug for ApproxShortestPaths {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ApproxShortestPaths")
            .field("n", &self.graph().n())
            .field("m", &self.graph().m())
            .field("mapped", &matches!(self.repr, Repr::Mapped(_)))
            .field("hopset_size", &self.hopset_size())
            .field("hop_budget", &self.hop_budget())
            .finish()
    }
}

/// Storage representation: owned heap buffers or borrowed snapshot slabs.
pub(crate) enum Repr {
    Owned(Mode),
    Mapped(MappedOracle),
}

pub(crate) enum Mode {
    Unweighted {
        graph: CsrGraph,
        hopset: Hopset,
        extra: psh_graph::traversal::bellman_ford::ExtraEdges,
        /// Hop budget for the worst case `d = n` (queries stop early at
        /// the Bellman–Ford fixpoint anyway).
        h_max: usize,
    },
    /// The band family holds the base graph ([`WeightedHopsets::graph`]).
    Weighted { hopsets: WeightedHopsets },
}

impl Mode {
    fn graph(&self) -> &CsrGraph {
        match self {
            Mode::Unweighted { graph, .. } => graph,
            Mode::Weighted { hopsets } => hopsets.graph(),
        }
    }
}

/// An oracle whose every slab lives inside one shared
/// [`psh_graph::SnapshotSource`] — the query-time face of a v2 snapshot.
/// Constructed only by the v2 loader, which validates all slabs.
pub(crate) struct MappedOracle {
    pub(crate) graph: MmapView,
    pub(crate) mode: MappedMode,
}

/// Hopset bookkeeping a mapped oracle carries verbatim (the counts the
/// snapshot's meta and band records store; needed to re-save the oracle
/// and to answer size queries).
pub(crate) struct MappedHopset {
    pub(crate) star_count: usize,
    pub(crate) clique_count: usize,
    pub(crate) levels: usize,
    /// Shortcut edges in construction order, inside the source region.
    pub(crate) edges: MappedEdges,
    /// Compiled adjacency over the same edges.
    pub(crate) extra: ExtraSlabsView,
}

/// A `&[Edge]` living inside the snapshot region, kept alive by the
/// views that share its `Arc` (every `MappedHopset` also holds an
/// `ExtraSlabsView` over the same source).
pub(crate) struct MappedEdges {
    ptr: *const Edge,
    len: usize,
}

// SAFETY: points into the immutable SnapshotSource kept alive by the
// sibling ExtraSlabsView/MmapView Arcs in the same MappedOracle.
unsafe impl Send for MappedEdges {}
unsafe impl Sync for MappedEdges {}

impl MappedEdges {
    pub(crate) fn of(edges: &[Edge]) -> MappedEdges {
        MappedEdges {
            ptr: edges.as_ptr(),
            len: edges.len(),
        }
    }

    #[inline]
    pub(crate) fn get(&self) -> &[Edge] {
        unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
    }
}

pub(crate) enum MappedMode {
    Unweighted {
        hopset: MappedHopset,
        h_max: usize,
    },
    Weighted {
        eta: f64,
        epsilon: f64,
        bands: Vec<MappedBand>,
    },
}

/// One distance band of a mapped weighted oracle: a grid over
/// [`MappedOracle::graph`] and its hopset.
pub(crate) struct MappedBand {
    pub(crate) d: u64,
    pub(crate) rounding: Rounding,
    pub(crate) h: usize,
    pub(crate) hopset: MappedHopset,
}

/// Borrowed view of an oracle's base graph, independent of how the
/// oracle is stored. All representations expose the same vertex/edge
/// counts and the same canonical sorted edge list.
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

// ---------------------------------------------------------------------------
// Uniform "parts" access — the snapshot writer consumes the oracle
// through these borrowed views, so an owned and a mapped oracle re-save
// to the same bytes.
// ---------------------------------------------------------------------------

/// Borrowed fields of one hopset, whatever its storage.
pub(crate) struct HopsetParts<'a> {
    pub(crate) star_count: usize,
    pub(crate) clique_count: usize,
    pub(crate) levels: usize,
    pub(crate) edges: &'a [Edge],
}

/// Borrowed fields of one weighted band, whatever its storage.
pub(crate) struct BandParts<'a> {
    pub(crate) d: u64,
    pub(crate) what: f64,
    pub(crate) h: usize,
    pub(crate) hopset: HopsetParts<'a>,
}

/// Borrowed mode-specific fields, whatever the storage.
pub(crate) enum ModeParts<'a> {
    Unweighted {
        h_max: usize,
        hopset: HopsetParts<'a>,
    },
    Weighted {
        eta: f64,
        epsilon: f64,
        bands: Vec<BandParts<'a>>,
    },
}

impl MappedHopset {
    fn parts(&self) -> HopsetParts<'_> {
        HopsetParts {
            star_count: self.star_count,
            clique_count: self.clique_count,
            levels: self.levels,
            edges: self.edges.get(),
        }
    }
}

fn owned_hopset_parts(h: &Hopset) -> HopsetParts<'_> {
    HopsetParts {
        star_count: h.star_count,
        clique_count: h.clique_count,
        levels: h.levels,
        edges: &h.edges,
    }
}

/// A query answer with diagnostics.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct QueryResult {
    /// The `(1+ε)`-approximate distance (`f64::INFINITY` if disconnected).
    pub distance: f64,
    /// Exact distance is never larger than this answer.
    pub upper_bound: bool,
}

impl ApproxShortestPaths {
    /// Corollary 4.5's preprocessing body — preconditions are validated by
    /// [`OracleBuilder`] before this runs.
    pub(crate) fn build_unweighted_impl<R: Rng>(
        exec: &Executor,
        g: &CsrGraph,
        params: &HopsetParams,
        rng: &mut R,
    ) -> (Self, Cost) {
        let beta0 = params.beta0(g.n());
        let (hopset, cost) = build_hopset_with_beta0_on(exec, g, params, beta0, rng);
        let extra = hopset.to_extra_edges();
        let h_max = params.hop_bound(g.n(), beta0, g.n() as u64);
        (
            ApproxShortestPaths {
                repr: Repr::Owned(Mode::Unweighted {
                    graph: g.clone(),
                    hopset,
                    extra,
                    h_max,
                }),
            },
            cost,
        )
    }

    /// Corollary 5.4's preprocessing body — preconditions are validated by
    /// [`OracleBuilder`] before this runs.
    pub(crate) fn build_weighted_impl<R: Rng>(
        exec: &Executor,
        g: &CsrGraph,
        params: &HopsetParams,
        eta: f64,
        rng: &mut R,
    ) -> (Self, Cost) {
        let beta0 = params.beta0_weighted(g.n());
        let (hopsets, cost) =
            build_weighted_hopsets_impl(exec, g, params, eta, beta0, Bands::ThroughFirstExact, rng);
        (
            ApproxShortestPaths {
                repr: Repr::Owned(Mode::Weighted { hopsets }),
            },
            cost,
        )
    }

    /// Approximate `s`–`t` distance.
    pub fn query(&self, s: VertexId, t: VertexId) -> (QueryResult, Cost) {
        if s == t {
            return (
                QueryResult {
                    distance: 0.0,
                    upper_bound: true,
                },
                Cost::ZERO,
            );
        }
        let (distance, cost) = match &self.repr {
            Repr::Owned(mode) => match mode {
                Mode::Unweighted {
                    graph,
                    extra,
                    h_max,
                    ..
                } => {
                    let (PairQuery { dist: d, .. }, cost) =
                        hop_limited_pair(graph, Some(extra), s, t, *h_max);
                    (if d == INF { f64::INFINITY } else { d as f64 }, cost)
                }
                Mode::Weighted { hopsets } => hopsets.query(s, t),
            },
            Repr::Mapped(m) => match &m.mode {
                MappedMode::Unweighted { hopset, h_max } => {
                    let (PairQuery { dist: d, .. }, cost) =
                        hop_limited_pair_on(&m.graph, Some(hopset.extra.view()), s, t, *h_max);
                    (if d == INF { f64::INFINITY } else { d as f64 }, cost)
                }
                MappedMode::Weighted { bands, .. } => {
                    let bands = bands
                        .iter()
                        .map(|b| (&b.rounding, b.h, b.hopset.extra.view()));
                    query_bands(&m.graph, bands, s, t)
                }
            },
        };
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
    /// [`Executor::par_map`] with one pair per work unit. Answers come
    /// back **in input order** and are byte-identical for every
    /// [`ExecutionPolicy`] (the pool's determinism contract); the returned
    /// [`Cost`] composes the per-pair costs in parallel — work is the
    /// *sum* over all pairs, depth the maximum — and is likewise identical
    /// for every policy. Every answer is a sound upper bound on the exact
    /// `s`–`t` distance (`upper_bound` is always `true`). An oracle never
    /// changes after construction; serving replaces it only as a whole
    /// `Arc` (see [`crate::service::OracleService::swap_oracle`]).
    /// Out-of-range vertex ids panic, exactly as
    /// [`ApproxShortestPaths::query`] does; validate untrusted workloads
    /// against [`CsrGraph::n`] first.
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

    /// Exact reference distance (Dijkstra) — the verification oracle.
    pub fn query_exact(&self, s: VertexId, t: VertexId) -> Weight {
        match &self.repr {
            Repr::Owned(mode) => dijkstra_pair(mode.graph(), s, t),
            Repr::Mapped(m) => dijkstra_pair(&m.graph, s, t),
        }
    }

    /// Number of hopset edges backing this oracle.
    pub fn hopset_size(&self) -> usize {
        match &self.repr {
            Repr::Owned(mode) => match mode {
                Mode::Unweighted { hopset, .. } => hopset.size(),
                Mode::Weighted { hopsets } => hopsets.total_size(),
            },
            Repr::Mapped(m) => match &m.mode {
                MappedMode::Unweighted { hopset, .. } => hopset.edges.get().len(),
                MappedMode::Weighted { bands, .. } => {
                    bands.iter().map(|b| b.hopset.edges.get().len()).sum()
                }
            },
        }
    }

    /// The underlying graph, as a representation-independent view.
    pub fn graph(&self) -> OracleGraph<'_> {
        match &self.repr {
            Repr::Owned(mode) => OracleGraph::Owned(mode.graph()),
            Repr::Mapped(m) => OracleGraph::Mapped(&m.graph),
        }
    }

    /// Whether this oracle serves straight off a mapped/loaded snapshot
    /// region (v2) rather than owned heap buffers.
    pub fn is_mapped(&self) -> bool {
        matches!(self.repr, Repr::Mapped(_))
    }

    /// The query-time hop budget (unweighted mode).
    pub fn hop_budget(&self) -> Option<usize> {
        match &self.repr {
            Repr::Owned(mode) => match mode {
                Mode::Unweighted { h_max, .. } => Some(*h_max),
                Mode::Weighted { .. } => None,
            },
            Repr::Mapped(m) => match &m.mode {
                MappedMode::Unweighted { h_max, .. } => Some(*h_max),
                MappedMode::Weighted { .. } => None,
            },
        }
    }

    /// Mode-specific fields as borrowed parts (snapshot writers' view).
    pub(crate) fn mode_parts(&self) -> ModeParts<'_> {
        match &self.repr {
            Repr::Owned(mode) => match mode {
                Mode::Unweighted { hopset, h_max, .. } => ModeParts::Unweighted {
                    h_max: *h_max,
                    hopset: owned_hopset_parts(hopset),
                },
                Mode::Weighted { hopsets } => ModeParts::Weighted {
                    eta: hopsets.eta,
                    epsilon: hopsets.epsilon,
                    bands: hopsets
                        .bands
                        .iter()
                        .map(|b| BandParts {
                            d: b.d,
                            what: b.rounding.what,
                            h: b.h,
                            hopset: owned_hopset_parts(&b.hopset),
                        })
                        .collect(),
                },
            },
            Repr::Mapped(m) => match &m.mode {
                MappedMode::Unweighted { hopset, h_max } => ModeParts::Unweighted {
                    h_max: *h_max,
                    hopset: hopset.parts(),
                },
                MappedMode::Weighted {
                    eta,
                    epsilon,
                    bands,
                } => ModeParts::Weighted {
                    eta: *eta,
                    epsilon: *epsilon,
                    bands: bands
                        .iter()
                        .map(|b| BandParts {
                            d: b.d,
                            what: b.rounding.what,
                            h: b.h,
                            hopset: b.hopset.parts(),
                        })
                        .collect(),
                },
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{HopsetBuilder, OracleBuilder, OracleMode, Seed};
    use psh_graph::generators;

    fn build_unweighted(g: &CsrGraph, params: &HopsetParams, seed: u64) -> ApproxShortestPaths {
        OracleBuilder::new()
            .params(*params)
            .mode(OracleMode::Unweighted)
            .seed(Seed(seed))
            .build(g)
            .unwrap()
            .artifact
    }

    fn test_params() -> HopsetParams {
        HopsetParams {
            epsilon: 0.5,
            delta: 1.5,
            gamma1: 0.25,
            gamma2: 0.75,
            k_conf: 1.0,
        }
    }

    #[test]
    fn unweighted_oracle_is_sound_and_accurate() {
        let g = generators::grid(16, 16);
        let oracle = build_unweighted(&g, &test_params(), 1);
        for (s, t) in [(0u32, 255u32), (0, 15), (17, 200), (100, 101)] {
            let (r, _) = oracle.query(s, t);
            let exact = oracle.query_exact(s, t) as f64;
            assert!(r.distance >= exact, "undershoot at ({s},{t})");
            assert!(
                r.distance <= 2.0 * exact,
                "({s},{t}): {} vs exact {exact}",
                r.distance
            );
        }
    }

    #[test]
    fn weighted_oracle_is_sound() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(2);
        let base = generators::grid(10, 10);
        let g = generators::with_uniform_weights(&base, 1, 20, &mut rng);
        let oracle = OracleBuilder::new()
            .params(test_params())
            .eta(0.4)
            .mode(OracleMode::Weighted)
            .seed(Seed(2))
            .build(&g)
            .unwrap()
            .artifact;
        for (s, t) in [(0u32, 99u32), (5, 60), (42, 43)] {
            let (r, _) = oracle.query(s, t);
            let exact = oracle.query_exact(s, t) as f64;
            assert!(r.distance >= exact - 1e-9);
            assert!(r.distance <= 3.0 * exact, "({s},{t}): {}", r.distance);
        }
    }

    #[test]
    fn self_and_disconnected_queries() {
        let g = CsrGraph::from_unit_edges(4, [(0, 1)]);
        let oracle = build_unweighted(&g, &test_params(), 3);
        assert_eq!(oracle.query(2, 2).0.distance, 0.0);
        assert!(oracle.query(0, 3).0.distance.is_infinite());
    }

    #[test]
    fn query_batch_matches_single_queries_for_every_policy() {
        let g = generators::grid(12, 12);
        let oracle = build_unweighted(&g, &test_params(), 5);
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

    /// A king-move grid with log-uniform weights of ratio 64 (perfbench's
    /// `serve_uniform` shape at `side = 50`).
    fn weighted_king_grid(side: usize, seed: u64) -> CsrGraph {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(seed);
        generators::with_log_uniform_weights(&generators::grid2d(side, side), 64.0, &mut rng)
    }

    /// The full §5 family `HopsetBuilder::weighted` builds for the seed.
    fn full_family(g: &CsrGraph, eta: f64, seed: u64) -> WeightedHopsets {
        let run = HopsetBuilder::weighted(eta)
            .seed(Seed(seed))
            .build(g)
            .unwrap();
        run.artifact.as_banded().unwrap().clone()
    }

    /// At the default parameters the oracle keeps exactly the prefix of
    /// the full family through its first band with `ŵ = 1` and
    /// `h ≥ n − 1`: the same `d`, `ŵ`, `h` and hopset edges.
    #[test]
    fn oracle_keeps_the_band_prefix_through_the_first_exact_band() {
        let g = weighted_king_grid(50, 1);
        let n = g.n();
        for (eta, kept) in [(0.5, 2), (0.25, 4)] {
            let family = full_family(&g, eta, 3);
            let first_exact = family
                .bands
                .iter()
                .position(|b| b.rounding.what == 1.0 && b.h + 1 >= n)
                .unwrap();
            assert_eq!(first_exact + 1, kept, "η = {eta}");
            assert!(family.num_bands() > kept, "η = {eta}");
            let oracle = OracleBuilder::new()
                .eta(eta)
                .seed(Seed(3))
                .build(&g)
                .unwrap()
                .artifact;
            let ModeParts::Weighted { bands, .. } = oracle.mode_parts() else {
                panic!("a weighted graph takes the banded path");
            };
            assert_eq!(bands.len(), kept, "η = {eta}");
            for (cut, full) in bands.iter().zip(&family.bands) {
                assert_eq!(
                    (cut.d, cut.what, cut.h),
                    (full.d, full.rounding.what, full.h)
                );
                assert_eq!(cut.hopset.edges, full.hopset.edges.as_slice());
            }
        }
    }

    /// A file holding every band, as builds kept them before the cut,
    /// answers every pair with the same distance and `Cost` as the cut
    /// oracle, owned and mapped: the band loop stops at or before the
    /// first exact band.
    #[test]
    fn a_full_band_family_answers_like_the_cut_oracle() {
        use crate::snapshot::{read_oracle_v2, write_oracle_v2_bytes, OracleMeta};
        use psh_graph::{SnapshotSource, Verify};
        use std::sync::Arc;
        let g = weighted_king_grid(7, 2);
        let n = g.n() as VertexId;
        for eta in [0.25, 0.5] {
            let run = OracleBuilder::new()
                .eta(eta)
                .seed(Seed(4))
                .build(&g)
                .unwrap();
            let full = ApproxShortestPaths {
                repr: Repr::Owned(Mode::Weighted {
                    hopsets: full_family(&g, eta, 4),
                }),
            };
            assert!(full.hopset_size() > run.artifact.hopset_size());
            let meta = OracleMeta::of_run(&run, HopsetParams::default());
            let bytes = write_oracle_v2_bytes(&full, &meta).unwrap();
            let source = Arc::new(SnapshotSource::from_bytes(&bytes));
            let (mapped, _) = read_oracle_v2(source, Verify::Deep).unwrap();
            for s in 0..n {
                for t in 0..n {
                    let cut = run.artifact.query(s, t);
                    assert_eq!(full.query(s, t), cut, "({s}, {t}), η = {eta}");
                    assert_eq!(mapped.query(s, t), cut, "({s}, {t}), η = {eta}");
                }
            }
        }
    }

    /// Every band of a full `HopsetBuilder::weighted` family, `ŵ > 1`
    /// bands included, swept on its own (not through the band loop, which
    /// stops early) answers as `hop_limited_pair` over the band's explicit
    /// `round_graph` copy — dist, hops, settled flag and `Cost` — and so
    /// does each band of the family loaded from v2 under both levels.
    #[test]
    fn every_band_sweeps_the_base_graph_like_its_explicit_rounded_copy() {
        use crate::hopset::weighted::sweep_band;
        use crate::snapshot::{read_oracle_v2, write_oracle_v2_bytes, OracleMeta};
        use psh_graph::{SnapshotSource, Verify};
        use std::sync::Arc;
        let g = weighted_king_grid(7, 2);
        for eta in [0.25, 0.5] {
            let family = full_family(&g, eta, 4);
            let wide = family.bands.iter().filter(|b| b.rounding.what > 1.0);
            assert!(wide.count() >= 1, "η = {eta}: no ŵ > 1 band");
            let owned = ApproxShortestPaths {
                repr: Repr::Owned(Mode::Weighted {
                    hopsets: family.clone(),
                }),
            };
            let meta = OracleMeta {
                params: HopsetParams::default(),
                seed: Seed(4),
                build_cost: Cost::ZERO,
            };
            let bytes = write_oracle_v2_bytes(&owned, &meta).unwrap();
            let loads = [Verify::Bounds, Verify::Deep].map(|verify| {
                let src = Arc::new(SnapshotSource::from_bytes(&bytes));
                match read_oracle_v2(src, verify).unwrap().0.repr {
                    Repr::Mapped(MappedOracle {
                        graph,
                        mode: MappedMode::Weighted { bands, .. },
                    }) => (graph, bands),
                    _ => panic!("a banded file loads as a mapped banded oracle"),
                }
            });
            let n = g.n() as VertexId;
            for (i, band) in family.bands.iter().enumerate() {
                let copy = band.rounding.round_graph(&g);
                for s in 0..n {
                    for t in 0..n {
                        let explicit = hop_limited_pair(&copy, Some(&band.extra), s, t, band.h);
                        let swept = sweep_band(&g, &band.rounding, band.h, band.extra.view(), s, t);
                        assert_eq!(swept, explicit, "owned band {i}, ({s}, {t})");
                        for (graph, bands) in &loads {
                            let b = &bands[i];
                            let swept =
                                sweep_band(graph, &b.rounding, b.h, b.hopset.extra.view(), s, t);
                            assert_eq!(swept, explicit, "mapped band {i}, ({s}, {t})");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn hop_budget_exposed_for_unweighted() {
        let g = generators::path(64);
        let oracle = build_unweighted(&g, &test_params(), 4);
        assert!(oracle.hop_budget().is_some());
        assert!(!oracle.is_mapped(), "fresh builds are owned");
    }
}
