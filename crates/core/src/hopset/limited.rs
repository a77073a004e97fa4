//! Appendix C — obtaining lower depth with *limited hopsets*.
//!
//! Lemma C.1: for hidden disjoint paths of at most `k = n^{2η}` hops and
//! weight in `[d, d·n^η]`, a single rounded Algorithm 4 run with
//! `δ = 2/η`, `β₀ = (n^{3η}/ε)^{−1}`, `n_final = n^{η/2}` produces
//! shortcut edges under which each path has an `n^η`-hop equivalent with
//! `(1+ε)` total distortion.
//!
//! Theorem C.2 iterates: run the Lemma C.1 routine for every band
//! `d = (n^η)^j`, **add the shortcut edges to the working graph**, and
//! repeat `1/η` times. Each iteration divides the hop count of any path by
//! `n^η`, so after `1/η` rounds every pair has an `n^{2η} = n^α`-hop
//! `(1+O(ε/η))`-approximate path — the `O(n^α)`-depth regime.

use super::rounding::Rounding;
use super::unweighted::build_hopset_with_beta0_on;
use super::{Hopset, HopsetParams};
use psh_exec::Executor;
use psh_graph::{CsrGraph, Edge};
use psh_pram::Cost;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Lemma C.1: shortcut edges for the band `[d, d·n^η]`, returned in the
/// **original** weight scale (weights rounded up, so they still dominate
/// true distances).
pub fn limited_hopset<R: Rng>(
    g: &CsrGraph,
    d: u64,
    eta: f64,
    epsilon: f64,
    rng: &mut R,
) -> (Vec<Edge>, Cost) {
    limited_hopset_with(&Executor::current(), g, d, eta, epsilon, rng)
}

/// [`limited_hopset`] on an explicit executor.
pub fn limited_hopset_with<R: Rng>(
    exec: &Executor,
    g: &CsrGraph,
    d: u64,
    eta: f64,
    epsilon: f64,
    rng: &mut R,
) -> (Vec<Edge>, Cost) {
    assert!(eta > 0.0 && eta < 0.5, "need 0 < η < 1/2");
    let n = g.n().max(2) as f64;
    let k_hops = n.powf(2.0 * eta).ceil().max(2.0) as u64;
    let zeta = epsilon / 2.0;
    let rounding = Rounding::for_band(d, k_hops, zeta);
    let rounded = rounding.round_graph(g);
    // Lemma C.1 parameters: δ = 2/η, n_final = n^{η/2}, β₀ = ε/n^{3η}.
    let params = HopsetParams {
        epsilon,
        delta: (2.0 / eta).max(1.01),
        gamma1: (eta / 2.0).clamp(0.05, 0.45),
        gamma2: (3.0 * eta).clamp(0.1, 0.96).max((eta / 2.0) + 0.05),
        k_conf: 1.0,
    };
    let beta0 = (epsilon / n.powf(3.0 * eta)).min(1.0);
    let (hopset, cost) = build_hopset_with_beta0_on(exec, &rounded, &params, beta0, rng);
    // convert shortcut weights back to the original scale (ceil: never
    // undershoots the true path weight the edge represents)
    let edges: Vec<Edge> = hopset
        .edges
        .into_iter()
        .map(|e| Edge::new(e.u, e.v, rounding.unround(e.w).ceil() as u64))
        .collect();
    (edges, cost)
}

/// Theorem C.2: iterate limited hopsets to reach `O(n^α)`-hop paths.
///
/// Returns the accumulated hopset (all shortcut edges, original scale).
pub fn low_depth_hopset<R: Rng>(
    g: &CsrGraph,
    alpha: f64,
    epsilon: f64,
    rng: &mut R,
) -> (Hopset, Cost) {
    assert!(alpha > 0.0 && alpha < 1.0, "need 0 < α < 1");
    low_depth_hopset_impl(&Executor::current(), g, alpha, epsilon, rng)
}

/// Theorem C.2's body — `alpha` validation happens in the builder
/// ([`crate::api::HopsetBuilder::limited`]) or the wrapper above. The
/// bands of one iteration fan out on `exec` with seeds pre-drawn in band
/// order; iterations stay sequential (each feeds the next its shortcuts).
pub(crate) fn low_depth_hopset_impl<R: Rng>(
    exec: &Executor,
    g: &CsrGraph,
    alpha: f64,
    epsilon: f64,
    rng: &mut R,
) -> (Hopset, Cost) {
    let eta = (alpha / 2.0).clamp(1e-3, 0.49);
    let iterations = (1.0 / eta).ceil() as usize;
    let n = g.n().max(2) as f64;
    let band = n.powf(eta).max(2.0);
    let d_max = (g.n() as u64).saturating_mul(g.max_weight().unwrap_or(1));

    let mut working = g.clone();
    let mut acc = Hopset::empty(g.n());
    let mut total_cost = Cost::ZERO;
    for _ in 0..iterations {
        // all bands of one iteration run in parallel (par-composed costs)
        let mut tasks: Vec<(u64, u64)> = Vec::new(); // (band start d, seed)
        let mut d: u64 = 1;
        while d <= d_max {
            tasks.push((d, rng.random()));
            let next = (d as f64 * band).ceil() as u64;
            d = next.max(d + 1);
        }
        let band_results: Vec<(Vec<Edge>, Cost)> = exec.par_map(&tasks, 1, |&(d, seed)| {
            limited_hopset_with(
                exec,
                &working,
                d,
                eta,
                epsilon,
                &mut StdRng::seed_from_u64(seed),
            )
        });
        let iter_cost = Cost::par_all(band_results.iter().map(|(_, c)| *c));
        let new_edges: Vec<Edge> = band_results.into_iter().flat_map(|(e, _)| e).collect();
        total_cost = total_cost.then(iter_cost);
        if new_edges.is_empty() {
            break;
        }
        // shortcuts become real edges for the next iteration
        let merged: Vec<Edge> = working
            .edges()
            .iter()
            .copied()
            .chain(new_edges.iter().copied())
            .collect();
        working = CsrGraph::from_edges(g.n(), merged);
        total_cost = total_cost.then(Cost::flat(working.m() as u64));
        acc.merge(Hopset {
            n: g.n(),
            edges: new_edges,
            ..Default::default()
        });
    }
    acc.levels = iterations;
    (acc, total_cost)
}

#[cfg(test)]
mod tests {
    use super::*;
    use psh_graph::generators;
    use psh_graph::traversal::bellman_ford::{hop_limited_pair, ExtraEdges, PairQuery};
    use psh_graph::traversal::dijkstra::dijkstra_pair;
    use psh_graph::INF;

    #[test]
    fn limited_hopset_edges_dominate_distances() {
        let g = generators::path(256);
        let mut rng = StdRng::seed_from_u64(1);
        let (edges, _) = limited_hopset(&g, 16, 0.3, 0.5, &mut rng);
        let h = Hopset {
            n: g.n(),
            edges,
            ..Default::default()
        };
        h.validate_no_shortcuts_below_distance(&g).unwrap();
    }

    #[test]
    fn low_depth_hopset_shortens_paths() {
        let n = 400;
        let g = generators::path(n);
        let mut rng = StdRng::seed_from_u64(2);
        let (h, _) = low_depth_hopset(&g, 0.6, 0.5, &mut rng);
        assert!(h.size() > 0, "expected shortcut edges");
        let extra = ExtraEdges::from_edges(n, &h.edges);
        let exact = dijkstra_pair(&g, 0, (n - 1) as u32);
        // far fewer hops than the n-1 trivial path
        let budget = n / 4;
        let (PairQuery { dist: d, hops, .. }, _) =
            hop_limited_pair(&g, Some(&extra), 0, (n - 1) as u32, budget);
        assert!(d != INF, "not reachable within {budget} hops");
        assert!((hops as usize) < n - 1);
        assert!(
            (d as f64) <= 2.5 * exact as f64,
            "distortion too large: {d} vs {exact}"
        );
    }

    #[test]
    fn accumulated_edges_still_dominate_true_distances() {
        let g = generators::grid(12, 12);
        let mut rng = StdRng::seed_from_u64(3);
        let (h, _) = low_depth_hopset(&g, 0.5, 0.5, &mut rng);
        h.validate_no_shortcuts_below_distance(&g).unwrap();
    }

    #[test]
    fn deterministic_given_seed() {
        let g = generators::path(128);
        let (a, _) = low_depth_hopset(&g, 0.5, 0.5, &mut StdRng::seed_from_u64(4));
        let (b, _) = low_depth_hopset(&g, 0.5, 0.5, &mut StdRng::seed_from_u64(4));
        assert_eq!(a, b);
    }
}
