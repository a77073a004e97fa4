//! The sampled-clique exact hopset — Figure 2's `[KS97, SS99]` row.
//!
//! Sample `s = Θ(√(n·log n))` vertices uniformly; run an exact SSSP from
//! each; connect every sampled pair by an edge carrying the exact
//! distance. Any shortest path with `≥ c·(n/s)·log n` hops touches a
//! sampled vertex in every window of that length w.h.p., so the path has
//! an equivalent using `O(n/s · log n + 2)` graph hops plus one clique
//! hop — the `O(√n)`-hop, zero-distortion trade-off of Klein–Subramanian
//! and Shi–Spencer, at `O(m·s)` construction work (the `O(m√n)` column).

use psh_core::hopset::Hopset;
use psh_graph::traversal::dial::dial_sssp;
use psh_graph::{CsrGraph, Edge, VertexId, INF};
use psh_pram::Cost;
use rand::seq::SliceRandom;
use rand::Rng;
use rayon::prelude::*;

/// Build the sampled-clique hopset with an explicit sample size.
pub fn sampled_clique_hopset_with_size<R: Rng>(
    g: &CsrGraph,
    sample_size: usize,
    rng: &mut R,
) -> (Hopset, Cost) {
    let n = g.n();
    let mut verts: Vec<VertexId> = (0..n as u32).collect();
    verts.shuffle(rng);
    verts.truncate(sample_size.min(n));
    verts.sort_unstable();

    // one exact SSSP per sample, all in parallel
    let searches: Vec<(Vec<u64>, Cost)> = verts
        .par_iter()
        .map(|&v| {
            let (sssp, c) = dial_sssp(g, v);
            (sssp.dist, c)
        })
        .collect();
    let mut edges = Vec::new();
    for (i, &u) in verts.iter().enumerate() {
        for &v in verts.iter().skip(i + 1) {
            let d = searches[i].0[v as usize];
            if d != INF && d > 0 {
                edges.push(Edge::new(u, v, d));
            }
        }
    }
    let cost = Cost::par_all(searches.iter().map(|(_, c)| *c))
        .then(Cost::flat((verts.len() * verts.len()) as u64));
    let clique_count = edges.len();
    (
        Hopset {
            n,
            edges,
            star_count: 0,
            clique_count,
            levels: 1,
        },
        cost,
    )
}

/// Build with the standard sample size `√(n·ln n)` (at least 2).
pub fn sampled_clique_hopset<R: Rng>(g: &CsrGraph, rng: &mut R) -> (Hopset, Cost) {
    let n = g.n().max(2) as f64;
    let s = ((n * n.ln()).sqrt().ceil() as usize).clamp(2, g.n());
    sampled_clique_hopset_with_size(g, s, rng)
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
    fn clique_edges_carry_exact_distances() {
        let mut rng = StdRng::seed_from_u64(1);
        let base = generators::grid(8, 8);
        let g = generators::with_uniform_weights(&base, 1, 5, &mut rng);
        let (h, _) = sampled_clique_hopset_with_size(&g, 10, &mut rng);
        for e in &h.edges {
            assert_eq!(e.w, dijkstra_pair(&g, e.u, e.v), "edge ({}, {})", e.u, e.v);
        }
    }

    #[test]
    fn hopset_gives_exact_distance_in_few_hops() {
        // long path: sampled vertices break it into short windows
        let n = 400;
        let g = generators::path(n);
        let mut rng = StdRng::seed_from_u64(2);
        let (h, _) = sampled_clique_hopset(&g, &mut rng);
        let extra = ExtraEdges::from_edges(n, &h.edges);
        let (PairQuery { dist: d, hops, .. }, _) =
            hop_limited_pair(&g, Some(&extra), 0, (n - 1) as u32, n / 3);
        assert_eq!(d, (n - 1) as u64, "sampled-clique hopsets are exact");
        assert!((hops as usize) < n - 1);
    }

    #[test]
    fn size_is_at_most_sample_squared() {
        let mut rng = StdRng::seed_from_u64(3);
        let g = generators::erdos_renyi(300, 900, &mut rng);
        let (h, _) = sampled_clique_hopset_with_size(&g, 20, &mut rng);
        assert!(h.size() <= 20 * 19 / 2);
        assert_eq!(h.star_count, 0);
    }

    #[test]
    fn sample_size_clamps_to_n() {
        let g = generators::path(5);
        let mut rng = StdRng::seed_from_u64(4);
        let (h, _) = sampled_clique_hopset_with_size(&g, 100, &mut rng);
        assert_eq!(h.size(), 5 * 4 / 2);
    }
}
