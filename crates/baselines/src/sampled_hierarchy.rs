//! A multi-level sampled hopset — the stand-in for Cohen's \[Coh00\]
//! pairwise-cover construction in Figure 2. The substitution: Cohen's
//! full pairwise covers are replaced by per-level hop-radius-bounded
//! sampling with the same size/accuracy shape, because the cover
//! machinery is orthogonal to the comparison the figure makes.
//!
//! Level `ℓ` samples each vertex with probability `p^ℓ` and connects every
//! sampled vertex to all level-`ℓ` samples within a hop radius that
//! doubles per level (distances computed exactly by bounded searches).
//! Like Cohen's construction this yields a *hierarchy* of progressively
//! sparser, longer shortcuts and polylog-ish hop counts at
//! `O(n^{1+o(1)})` size — enough to reproduce the qualitative row of
//! Figure 2 (polylog hops, more-than-linear size, more-than-linear work)
//! without reimplementing the full pairwise-cover machinery.

use psh_core::hopset::Hopset;
use psh_graph::traversal::dial::dial_sssp_bounded;
use psh_graph::{CsrGraph, Edge, VertexId, INF};
use psh_pram::Cost;
use rand::Rng;
use rayon::prelude::*;

/// Configuration for the sampled hierarchy.
#[derive(Clone, Copy, Debug)]
pub struct HierarchyConfig {
    /// Per-level survival probability (e.g. 0.5).
    pub thinning: f64,
    /// Hop/distance radius of level 0 searches.
    pub base_radius: u64,
    /// Number of levels.
    pub levels: usize,
}

impl Default for HierarchyConfig {
    fn default() -> Self {
        HierarchyConfig {
            thinning: 0.4,
            base_radius: 4,
            levels: 6,
        }
    }
}

/// Build the sampled-hierarchy hopset.
pub fn sampled_hierarchy_hopset<R: Rng>(
    g: &CsrGraph,
    cfg: &HierarchyConfig,
    rng: &mut R,
) -> (Hopset, Cost) {
    assert!(cfg.thinning > 0.0 && cfg.thinning < 1.0);
    let n = g.n();
    let mut active: Vec<VertexId> = (0..n as u32).collect();
    let mut edges: Vec<Edge> = Vec::new();
    let mut cost = Cost::ZERO;
    let mut radius = cfg.base_radius;

    for _level in 0..cfg.levels {
        // thin the sample
        active.retain(|_| rng.random::<f64>() < cfg.thinning);
        if active.len() < 2 {
            break;
        }
        let in_sample: Vec<bool> = {
            let mut m = vec![false; n];
            for &v in &active {
                m[v as usize] = true;
            }
            m
        };
        // bounded exact search from each sample; connect to reached samples
        let results: Vec<(Vec<Edge>, Cost)> = active
            .par_iter()
            .map(|&v| {
                let (sssp, c) = dial_sssp_bounded(g, &[(v, 0)], radius);
                let mut out = Vec::new();
                for (u, &d) in sssp.dist.iter().enumerate() {
                    if d != INF && d > 0 && in_sample[u] && (u as u32) > v {
                        out.push(Edge::new(v, u as u32, d));
                    }
                }
                (out, c)
            })
            .collect();
        cost = cost.then(Cost::par_all(results.iter().map(|(_, c)| *c)));
        for (es, _) in results {
            edges.extend(es);
        }
        radius = radius.saturating_mul(2);
    }

    let clique_count = edges.len();
    (
        Hopset {
            n,
            edges,
            star_count: 0,
            clique_count,
            levels: cfg.levels,
        },
        cost,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use psh_graph::generators;
    use psh_graph::traversal::bellman_ford::{hop_limited_pair, ExtraEdges, PairQuery};
    use psh_graph::traversal::dijkstra::dijkstra_pair;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn edges_are_exact_distances() {
        let g = generators::grid(10, 10);
        let mut rng = StdRng::seed_from_u64(1);
        let (h, _) = sampled_hierarchy_hopset(&g, &HierarchyConfig::default(), &mut rng);
        for e in h.edges.iter().take(50) {
            assert_eq!(e.w, dijkstra_pair(&g, e.u, e.v));
        }
    }

    #[test]
    fn reduces_hops_on_paths() {
        let n = 300;
        let g = generators::path(n);
        let mut rng = StdRng::seed_from_u64(2);
        let cfg = HierarchyConfig {
            thinning: 0.5,
            base_radius: 8,
            levels: 8,
        };
        let (h, _) = sampled_hierarchy_hopset(&g, &cfg, &mut rng);
        let extra = ExtraEdges::from_edges(n, &h.edges);
        let (PairQuery { dist: d, hops, .. }, _) =
            hop_limited_pair(&g, Some(&extra), 0, (n - 1) as u32, n);
        assert_eq!(d, (n - 1) as u64, "hierarchy edges are exact");
        assert!(
            (hops as usize) < (n - 1) / 2,
            "expected substantial hop reduction, got {hops}"
        );
    }

    #[test]
    fn empty_when_thinning_kills_everything() {
        let g = generators::path(10);
        let mut rng = StdRng::seed_from_u64(3);
        let cfg = HierarchyConfig {
            thinning: 0.01,
            base_radius: 2,
            levels: 3,
        };
        let (h, _) = sampled_hierarchy_hopset(&g, &cfg, &mut rng);
        // overwhelmingly likely no two samples survive level 1
        assert!(h.size() <= 2);
    }
}
