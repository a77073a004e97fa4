//! §5 — hopsets in weighted graphs.
//!
//! For each distance estimate `d` running over powers of `n^η` (so
//! `O(1/η)` estimates per factor-`n` of weight range, `O(3/η)` total for
//! polynomially bounded weights), round the graph to the grid of
//! Lemma 5.2 and build an Algorithm 4 hopset on the rounded graph with
//! `β₀ = (n/ε)^{−γ₂}` and `n_final = n^{γ₁}` (Theorem 5.3).
//!
//! A query `(s, t)` runs the h-hop Bellman–Ford band by band in
//! increasing `d` and takes the minimum of the unrounded values.
//! Soundness: rounding only inflates weights and hop limits only inflate
//! distances, so every band's value is ≥ `dist(s, t)`; for the band with
//! `d ≤ dist(s,t) ≤ n^η·d`, the value is ≤ `(1+ζ)(1+O(ε log n))·dist(s,t)`
//! with probability ≥ 1/2 (Lemma 4.2 + Lemma 5.2) — so the minimum is a
//! `(1+ε')`-approximation.
//!
//! A band with `ŵ = 1` sweeps the input weights, so its value is the exact
//! distance whenever its sweep settled `t` or its budget is `h ≥ n − 1`
//! (every shortest path has at most `n − 1` hops). No later band can
//! undercut it, so the query stops after that band. The paper's schedule
//! runs the bands in parallel; this one runs them in order, so their
//! costs compose with `then`.
//!
//! A band with `ŵ = 1` and `h ≥ n − 1` is exact for every pair; at the
//! default parameters that is the second band for every `n` below about
//! 10¹³, so [`WeightedHopsets::query`] answers every pair exactly there.
//! The served oracle answers with a bidirectional Dijkstra instead (see
//! [`crate::oracle`]); only the experiment binaries run this query, on
//! families [`crate::api::HopsetBuilder::weighted`] builds with every
//! band.
//!
//! A band is a grid over the input graph, not a graph of its own: its
//! `d`, `ŵ`, `h` and hopset, whose adjacency it owns. The family owns one
//! graph, its input ([`WeightedHopsets::graph`]), and
//! [`WeightedHopsets::query`] sweeps it once per band it runs. A `ŵ > 1`
//! band reads every weight `w` as `⌈w/ŵ⌉` as the sweep relaxes it
//! (hopset edges are in grid units already); its hopset is built on a
//! [`Rounding::round_graph`] copy that is dropped once the hopset exists.
//! A `ŵ = 1` band sweeps the input weights with the plain sweep, which is
//! exact because [`crate::api::HopsetBuilder::weighted`] refuses a graph
//! whose distances can exceed 2⁵³
//! ([`crate::PshError::DistancesExceedF64`]), so `⌈w/1⌉ = w` for every
//! weight it accepts. The hopsets, answers and `Cost`s are those of
//! sweeps over explicit rounded copies, and §5's cost model still charges
//! every band its `O(m)` rounding pass.

use super::rounding::Rounding;
use super::unweighted::build_hopset_with_beta0_on;
use super::{Hopset, HopsetParams};
use psh_exec::Executor;
use psh_graph::traversal::bellman_ford::{
    hop_limited_pair, hop_limited_pair_mapped, ExtraEdges, PairQuery,
};
use psh_graph::{CsrGraph, VertexId, INF};
use psh_pram::Cost;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One distance band: a grid over the family's input graph and the
/// hopset built on the input graph rounded to that grid.
#[derive(Clone, Debug)]
pub struct EstimateBand {
    /// Lower end of the distance band covered by this estimate.
    pub d: u64,
    /// The rounding applied (`ŵ = ζd/k`): the band sweeps the input
    /// graph, [`WeightedHopsets::graph`], with every weight `w` read as
    /// `⌈w/ŵ⌉`.
    pub rounding: Rounding,
    /// The hopset built on the rounded graph, in grid units.
    pub hopset: Hopset,
    /// Compiled adjacency of the hopset.
    pub extra: ExtraEdges,
    /// Hop budget for queries in this band (Lemma 4.2's `h`).
    pub h: usize,
}

impl EstimateBand {
    /// This band's `s`–`t` sweep over the family's input graph `graph`:
    /// the hop-limited pair sweep with budget `h`, every input weight `w`
    /// read as `⌈w/ŵ⌉` and the hopset edges, in grid units already, as
    /// stored. A `ŵ = 1` grid leaves every weight the builder accepts as
    /// it is, so that band takes the plain sweep, with no per-edge float
    /// work.
    fn sweep(&self, graph: &CsrGraph, s: VertexId, t: VertexId) -> (PairQuery, Cost) {
        if self.rounding.what == 1.0 {
            hop_limited_pair(graph, Some(&self.extra), s, t, self.h)
        } else {
            let grid = |w| self.rounding.round_weight(w);
            hop_limited_pair_mapped(graph, grid, Some(&self.extra), s, t, self.h)
        }
    }
}

/// The full §5 construction: one hopset per distance band.
#[derive(Clone, Debug)]
pub struct WeightedHopsets {
    /// Bands in increasing `d`.
    pub bands: Vec<EstimateBand>,
    /// Band-width exponent: each band covers `[d, d·n^η]`.
    pub eta: f64,
    /// Distortion parameter used at construction.
    pub epsilon: f64,
    graph: CsrGraph,
}

impl WeightedHopsets {
    /// The input graph, which every band sweeps on its own grid.
    pub fn graph(&self) -> &CsrGraph {
        &self.graph
    }

    /// Total hopset edges across all bands.
    pub fn total_size(&self) -> usize {
        self.bands.iter().map(|b| b.hopset.size()).sum()
    }

    /// Number of estimate bands.
    pub fn num_bands(&self) -> usize {
        self.bands.len()
    }

    /// Approximate `s`–`t` distance: minimum over bands of the unrounded
    /// h-hop distance, with the costs of the bands that ran composed with
    /// `then`. Returns `f64::INFINITY` when no band connects them. The
    /// loop stops after a band with `ŵ = 1` whose sweep settled `t` or
    /// whose budget is `h ≥ n − 1`: that value is the exact distance, and
    /// every later band's is at least that (see the module docs).
    pub fn query(&self, s: VertexId, t: VertexId) -> (f64, Cost) {
        if s == t {
            return (0.0, Cost::ZERO);
        }
        let n = self.graph.n();
        let mut best = f64::INFINITY;
        let mut cost = Cost::ZERO;
        for band in &self.bands {
            let (q, c) = band.sweep(&self.graph, s, t);
            cost = cost.then(c);
            if q.dist != INF {
                best = best.min(band.rounding.unround(q.dist));
            }
            if band.rounding.what == 1.0 && (q.settled || band.h + 1 >= n) {
                break;
            }
        }
        (best, cost)
    }
}

/// §5's construction body with band exponent `eta ∈ (0, 1)` and an
/// explicit `β₀` — [`crate::api::HopsetBuilder::weighted`] validates the
/// parameters before this runs.
///
/// The bands really are built in parallel on `exec` (the paper's
/// schedule), every band up to `d = n·w_max`. Every band's `d`,
/// rounding, hop budget and seed are fixed in band order before the
/// fan-out, so the family is byte-identical for any policy. A `ŵ > 1`
/// band builds its hopset
/// on a rounded copy of `g` and drops the copy once the hopset exists;
/// the caller has checked that `g`'s distances stay within 2⁵³, so a
/// `ŵ = 1` band builds on `g` itself.
pub(crate) fn build_weighted_hopsets_impl<R: Rng>(
    exec: &Executor,
    g: &CsrGraph,
    params: &HopsetParams,
    eta: f64,
    beta0: f64,
    rng: &mut R,
) -> (WeightedHopsets, Cost) {
    let n = g.n();
    let zeta = params.epsilon / 2.0;
    // band multiplier c = n^η, floored at 2 so the loop advances
    let c = (n.max(2) as f64).powf(eta).max(2.0);
    let d_max: u64 = (n as u64).saturating_mul(g.max_weight().unwrap_or(1));

    // (band start d, rounding, hop budget, seed)
    let mut tasks: Vec<(u64, Rounding, usize, u64)> = Vec::new();
    let mut d: u64 = 1;
    while d <= d_max {
        // paths in this band have ≤ n hops and weight ≤ c·d
        let rounding = Rounding::for_band(d, n.max(2) as u64, zeta);
        // hop budget from Lemma 4.2 at the band's top distance, in rounded
        // units (the search runs on the rounded graph)
        let d_rounded_top = ((c * d as f64) / rounding.what).ceil() as u64;
        let h = params.hop_bound(n, beta0, d_rounded_top.max(1));
        tasks.push((d, rounding, h, rng.random()));
        // next band: d ← d · n^η
        let next = (d as f64 * c).ceil() as u64;
        d = next.max(d + 1);
    }
    let bands: Vec<(EstimateBand, Cost)> = exec.par_map(&tasks, 1, |(d, rounding, h, seed)| {
        // at ŵ = 1 the copy would equal `g`; a ŵ > 1 copy lives only as
        // long as its hopset's construction
        let copy = (rounding.what != 1.0).then(|| rounding.round_graph(g));
        let (hopset, hcost) = build_hopset_with_beta0_on(
            exec,
            copy.as_ref().unwrap_or(g),
            params,
            beta0,
            &mut StdRng::seed_from_u64(*seed),
        );
        drop(copy);
        let extra = hopset.to_extra_edges();
        (
            EstimateBand {
                d: *d,
                rounding: rounding.clone(),
                hopset,
                extra,
                h: *h,
            },
            // §5's rounding pass, charged whether or not it copies
            hcost.then(Cost::flat(g.m() as u64)),
        )
    });
    // bands are built in parallel in the paper: par-compose their costs
    let cost = Cost::par_all(bands.iter().map(|(_, c)| *c));
    let bands: Vec<EstimateBand> = bands.into_iter().map(|(b, _)| b).collect();
    (
        WeightedHopsets {
            bands,
            eta,
            epsilon: params.epsilon,
            graph: g.clone(),
        },
        cost,
    )
}

/// Convenience: number of vertices the construction covers.
impl WeightedHopsets {
    pub fn n(&self) -> usize {
        self.graph.n()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psh_graph::traversal::dijkstra::dijkstra;
    use psh_graph::{generators, Edge};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn test_params() -> HopsetParams {
        HopsetParams {
            epsilon: 0.5,
            delta: 1.5,
            gamma1: 0.25,
            gamma2: 0.75,
            k_conf: 1.0,
        }
    }

    fn build<R: Rng>(g: &CsrGraph, eta: f64, rng: &mut R) -> WeightedHopsets {
        let params = test_params();
        let beta0 = params.beta0_weighted(g.n());
        let exec = Executor::sequential();
        build_weighted_hopsets_impl(&exec, g, &params, eta, beta0, rng).0
    }

    fn weighted_instance(seed: u64) -> CsrGraph {
        let mut rng = StdRng::seed_from_u64(seed);
        let base = generators::grid(12, 12);
        generators::with_uniform_weights(&base, 1, 50, &mut rng)
    }

    #[test]
    fn bands_cover_the_weight_range() {
        let g = weighted_instance(1);
        let mut rng = StdRng::seed_from_u64(2);
        let wh = build(&g, 0.4, &mut rng);
        assert!(wh.num_bands() >= 2, "expected multiple bands");
        // bands increase geometrically
        for pair in wh.bands.windows(2) {
            assert!(pair[1].d > pair[0].d);
        }
        let d_max = (g.n() as u64) * g.max_weight().unwrap();
        assert!(
            wh.bands.last().unwrap().d <= d_max,
            "last band beyond the distance range"
        );
    }

    #[test]
    fn query_never_undershoots_and_approximates() {
        let g = weighted_instance(3);
        let mut rng = StdRng::seed_from_u64(4);
        let wh = build(&g, 0.4, &mut rng);
        let exact = dijkstra(&g, 0);
        let mut checked = 0;
        for t in [10u32, 50, 100, 143] {
            let (approx, _) = wh.query(0, t);
            let ex = exact.dist[t as usize] as f64;
            assert!(
                approx >= ex - 1e-9,
                "t={t}: approx {approx} undershoots exact {ex}"
            );
            // generous factor: (1+ζ)(1 + ε·levels) with test params
            assert!(
                approx <= 3.0 * ex,
                "t={t}: approx {approx} too far above exact {ex}"
            );
            checked += 1;
        }
        assert_eq!(checked, 4);
    }

    #[test]
    fn self_query_is_zero() {
        let g = weighted_instance(5);
        let mut rng = StdRng::seed_from_u64(6);
        let wh = build(&g, 0.5, &mut rng);
        let (d, _) = wh.query(7, 7);
        assert_eq!(d, 0.0);
    }

    #[test]
    fn disconnected_pairs_report_infinity() {
        let g = CsrGraph::from_unit_edges(4, [(0, 1), (2, 3)]);
        let mut rng = StdRng::seed_from_u64(7);
        let wh = build(&g, 0.5, &mut rng);
        let (d, _) = wh.query(0, 3);
        assert!(d.is_infinite());
    }

    /// The band exponents the king-grid tests run at.
    const KING_ETAS: [f64; 2] = [0.25, 0.5];

    /// A 7² king grid with log-uniform weights of ratio 64, the full
    /// `HopsetBuilder::weighted(eta)` family over it (`ŵ > 1` bands
    /// included) and its exact distances, `exact[s][t]`.
    fn king_grid_family(eta: f64) -> (CsrGraph, WeightedHopsets, Vec<Vec<u64>>) {
        let mut rng = StdRng::seed_from_u64(2);
        let g = generators::with_log_uniform_weights(&generators::grid2d(7, 7), 64.0, &mut rng);
        family_of(g, eta)
    }

    /// [`king_grid_family`] over a 40-vertex path with weights uniform in
    /// `[50, 100]`. Its distances reach 2,821, past the first
    /// `ŵ > 1` band's `d` (337 at η = 0.25, 1,803 at η = 0.5), so the
    /// band covering a far pair has `ŵ > 1`.
    fn heavy_path_family(eta: f64) -> (CsrGraph, WeightedHopsets, Vec<Vec<u64>>) {
        let mut rng = StdRng::seed_from_u64(3);
        let g = generators::with_uniform_weights(&generators::path(40), 50, 100, &mut rng);
        family_of(g, eta)
    }

    /// [`king_grid_family`] over a 40-vertex path of weight-1 edges but
    /// one, `(19, 20)`, of weight 16,000. A pair across it has a distance
    /// `D` of 16,000 to 16,038, covered by the band of `d` 13,493
    /// (η = 0.25) or 11,404 (η = 0.5), and its rounded value adds nearly
    /// that band's `ŵ` per light edge to the heavy edge. That stays
    /// within `(1+ζ)·D` at the paper's `ŵ = ζd/n` (at most 0.98 of it)
    /// and exceeds it at twice that (up to 1.07), so this fixture, unlike
    /// the others, can tell the grid's coarseness.
    fn light_path_family(eta: f64) -> (CsrGraph, WeightedHopsets, Vec<Vec<u64>>) {
        let edges = (0..39).map(|u| Edge::new(u, u + 1, if u == 19 { 16_000 } else { 1 }));
        family_of(CsrGraph::from_edges(40, edges), eta)
    }

    fn family_of(g: CsrGraph, eta: f64) -> (CsrGraph, WeightedHopsets, Vec<Vec<u64>>) {
        use crate::api::{HopsetBuilder, Seed};
        let run = HopsetBuilder::weighted(eta)
            .seed(Seed(4))
            .build(&g)
            .unwrap();
        let family = run.artifact.as_banded().unwrap().clone();
        let wide = family.bands.iter().filter(|b| b.rounding.what > 1.0);
        assert!(wide.count() >= 1, "η = {eta}: no ŵ > 1 band");
        let exact = (0..g.n() as VertexId)
            .map(|s| dijkstra(&g, s).dist)
            .collect();
        (g, family, exact)
    }

    /// Every band of the family, swept on its own (not through the band
    /// loop, which stops early), answers as `hop_limited_pair` over the
    /// band's explicit `round_graph` copy — dist, hops, settled flag and
    /// `Cost`.
    #[test]
    fn every_band_sweeps_the_base_graph_like_its_explicit_rounded_copy() {
        for eta in KING_ETAS {
            let (g, family, _) = king_grid_family(eta);
            let n = g.n() as VertexId;
            for (i, band) in family.bands.iter().enumerate() {
                let copy = band.rounding.round_graph(&g);
                for s in 0..n {
                    for t in 0..n {
                        let explicit = hop_limited_pair(&copy, Some(&band.extra), s, t, band.h);
                        assert_eq!(band.sweep(&g, s, t), explicit, "band {i}, ({s}, {t})");
                    }
                }
            }
        }
    }

    /// Soundness (§5): rounding up and hop limits only inflate, so no
    /// band's unrounded value undershoots the exact distance.
    #[test]
    fn no_band_undershoots_the_exact_distance() {
        for eta in KING_ETAS {
            let (g, family, exact) = king_grid_family(eta);
            let n = g.n() as VertexId;
            for (i, band) in family.bands.iter().enumerate() {
                for s in 0..n {
                    for t in (0..n).filter(|&t| t != s) {
                        let (q, _) = band.sweep(&g, s, t);
                        let d = exact[s as usize][t as usize] as f64;
                        if q.dist != INF {
                            let value = band.rounding.unround(q.dist);
                            assert!(value >= d, "η = {eta}, band {i}, ({s}, {t}): {value} < {d}");
                        }
                    }
                }
            }
        }
    }

    /// Accuracy (Lemma 5.2): a band whose sweep settled `t` read the
    /// rounded distance, which a shortest path of at most `n − 1` edges
    /// exceeds by at most `ŵ` per edge, so the value is at most
    /// `D + (n − 1)·ŵ`. For the band whose range covers `D` (the last
    /// with `d ≤ D`) that is at most `(1+ζ)·D`: either `ŵ = ζd/n`, or
    /// `ŵ = 1` and the settled value is `D` itself. On the king grid
    /// every covering band has `ŵ = 1`: no distance reaches the first
    /// `ŵ > 1` band's `d`. On the heavy and light paths the far pairs'
    /// covering bands have `ŵ > 1`, and on the light path the bound is
    /// close to tight.
    #[test]
    fn a_settled_band_reads_within_its_rounding_error() {
        for eta in KING_ETAS {
            let fixtures = [
                ("king grid", king_grid_family(eta), false),
                ("heavy path", heavy_path_family(eta), true),
                ("light path", light_path_family(eta), true),
            ];
            for (name, (g, family, exact), wide_covering) in fixtures {
                let n = g.n() as VertexId;
                let zeta = family.epsilon / 2.0;
                // settled values and settled covering bands checked, each
                // at ŵ = 1 and at ŵ > 1
                let (mut checked, mut covering_checked) = ([0usize; 2], [0usize; 2]);
                for s in 0..n {
                    for t in (0..n).filter(|&t| t != s) {
                        let d = exact[s as usize][t as usize];
                        let covering = family.bands.iter().rposition(|b| b.d <= d);
                        for (i, band) in family.bands.iter().enumerate() {
                            let (q, _) = band.sweep(&g, s, t);
                            if !q.settled || q.dist == INF {
                                continue;
                            }
                            let value = band.rounding.unround(q.dist);
                            let slack = (g.n() - 1) as f64 * band.rounding.what;
                            let at = format!("{name}, η = {eta}, band {i}, ({s}, {t}), D = {d}");
                            assert!(value <= d as f64 + slack, "{at}: {value} > D + {slack}");
                            let wide = usize::from(band.rounding.what > 1.0);
                            checked[wide] += 1;
                            if covering == Some(i) {
                                assert!(value <= (1.0 + zeta) * d as f64, "{at}: {value}");
                                covering_checked[wide] += 1;
                            }
                        }
                    }
                }
                assert!(
                    checked.iter().all(|&c| c > 0)
                        && covering_checked[0] > 0
                        && (covering_checked[1] > 0) == wide_covering,
                    "{name}, η = {eta}: settled (ŵ = 1, ŵ > 1) {checked:?}, \
                     covering {covering_checked:?}"
                );
            }
        }
    }

    /// The band loop: `query` is the minimum of the unrounded values of
    /// the bands up to and including the first `ŵ = 1` band that settled
    /// `t` or has `h ≥ n − 1`, and its `Cost` is the `then` of exactly
    /// those bands' sweeps.
    #[test]
    fn query_is_the_minimum_over_the_bands_it_runs() {
        // pairs whose first ŵ = 1 band neither settled `t` nor had
        // h ≥ n − 1, so the loop ran on past it
        let mut ran_past_the_first_unit_grid = 0;
        for eta in KING_ETAS {
            let (g, family, _) = king_grid_family(eta);
            let n = g.n() as VertexId;
            for s in 0..n {
                for t in (0..n).filter(|&t| t != s) {
                    let mut best = f64::INFINITY;
                    let mut cost = Cost::ZERO;
                    let mut unit_grids = 0;
                    for band in &family.bands {
                        let (q, c) = band.sweep(&g, s, t);
                        cost = cost.then(c);
                        if q.dist != INF {
                            best = best.min(band.rounding.unround(q.dist));
                        }
                        if band.rounding.what == 1.0 {
                            unit_grids += 1;
                            if q.settled || band.h + 1 >= g.n() {
                                break;
                            }
                        }
                    }
                    if unit_grids > 1 {
                        ran_past_the_first_unit_grid += 1;
                    }
                    let (value, query_cost) = family.query(s, t);
                    assert_eq!(
                        (value.to_bits(), query_cost),
                        (best.to_bits(), cost),
                        "η = {eta}, ({s}, {t})"
                    );
                }
            }
        }
        assert!(ran_past_the_first_unit_grid > 0);
    }

    #[test]
    fn deterministic_given_seed() {
        let g = weighted_instance(8);
        let a = build(&g, 0.4, &mut StdRng::seed_from_u64(9));
        let b = build(&g, 0.4, &mut StdRng::seed_from_u64(9));
        assert_eq!(a.total_size(), b.total_size());
        for (x, y) in a.bands.iter().zip(&b.bands) {
            assert_eq!(x.hopset, y.hopset);
        }
    }
}
