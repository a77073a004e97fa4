//! Algorithm 4 — hopset construction by recursive clustering.
//!
//! ```text
//! HopSet(V, E, β):
//!   1. if |V| ≤ n_final: exit
//!   2. X ← ESTCluster(G, β)
//!   3. if this is the first call:
//!   4.   for each cluster X (in parallel): HopSet(X, E(X), growth·β)
//!   5. else:
//!   6.   X_b ← clusters with ≥ |V|/ρ vertices (large)
//!   7.   X_s ← the rest (small)
//!   8.   for each large X with center c, v ∈ X: add star edge (v, c)
//!        with weight dist(v, c)
//!   9.   for all pairs of large clusters: add clique edge (c1, c2)
//!        with weight dist(c1, c2)
//!  10.   for each X ∈ X_s (in parallel): HopSet(X, E(X), growth·β)
//! ```
//!
//! Star weights are the cluster-tree distances (actual paths in `G`);
//! clique weights are exact distances inside the current recursive piece,
//! computed by one bucketed parallel search ([`dial_sssp_with`]) per large
//! center — the searches run in parallel on the [`Executor`]'s pool, as
//! Theorem 4.4's accounting assumes, and the piece's diameter is
//! `O(β⁻¹ log n)` w.h.p. so each search is shallow. The recursive calls
//! (lines 4 and 10) also fan out on the pool, with child seeds drawn in
//! deterministic cluster order *before* the parallel region, so the
//! artifact is byte-identical for any [`psh_exec::ExecutionPolicy`].
//!
//! **Recursion substrate.** The whole recursion is generic over
//! [`GraphView`]: the root call works on whatever the caller hands in
//! (usually an owned [`psh_graph::CsrGraph`]), and each level splits its
//! piece into per-cluster children by filling a leased, reusable
//! [`SplitArena`] and recursing on borrowed [`psh_graph::CsrView`]s — no
//! per-child graph materialization, so a depth-`d` build never copies the
//! adjacency structure `O(d)` times.
//!
//! The same code serves the weighted construction of §5: the clustering
//! engine and the bucketed searches already handle integer weights, and §5
//! supplies rounded integer weights (Lemma 5.2) before calling in here.

use super::{Hopset, HopsetParams};
use psh_cluster::ClusterBuilder;
use psh_exec::Executor;
use psh_graph::traversal::dial::dial_sssp_with;
use psh_graph::view::SplitArena;
use psh_graph::{Edge, GraphView, VertexId, INF};
use psh_pram::Cost;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Build a hopset with an explicit top-level β₀ (§5 and Appendix C call
/// this with their own β₀ choices) on `exec` — recursion, clusterings,
/// and clique searches all share its pool.
pub fn build_hopset_with_beta0_on<G: GraphView, R: Rng>(
    exec: &Executor,
    g: &G,
    params: &HopsetParams,
    beta0: f64,
    rng: &mut R,
) -> (Hopset, Cost) {
    params.validate().expect("invalid hopset parameters");
    let n = g.n();
    let ctx = Ctx {
        growth: params.growth(n),
        rho: params.rho(n),
        n_final: params.n_final(n),
        exec: exec.clone(),
    };
    let ident: Vec<VertexId> = (0..n as u32).collect();
    let out = recurse(g, &ident, beta0, 0, true, &ctx, rng.random());
    let hopset = Hopset {
        n,
        edges: out.edges,
        star_count: out.stars,
        clique_count: out.cliques,
        levels: out.max_level,
    };
    (hopset, out.cost)
}

struct Ctx {
    growth: f64,
    rho: f64,
    n_final: usize,
    exec: Executor,
}

#[derive(Default)]
struct Outcome {
    edges: Vec<Edge>,
    stars: usize,
    cliques: usize,
    max_level: usize,
    cost: Cost,
}

/// Guard against pathological parameterizations: β can only grow so far
/// before every cluster is a singleton anyway.
const BETA_CAP: f64 = 1e12;
const MAX_DEPTH: usize = 64;

fn recurse<G: GraphView>(
    sub: &G,
    to_global: &[VertexId],
    beta: f64,
    depth: usize,
    first: bool,
    ctx: &Ctx,
    seed: u64,
) -> Outcome {
    if sub.n() <= ctx.n_final || depth >= MAX_DEPTH {
        return Outcome::default();
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let beta = beta.min(BETA_CAP);
    let (clustering, cluster_cost) = ClusterBuilder::new(beta)
        .build_with_rng_on(&ctx.exec, sub, &mut rng)
        .expect("recursion betas are positive and finite");
    let mut cost = cluster_cost;

    let mut edges: Vec<Edge> = Vec::new();
    let (mut stars, mut cliques) = (0usize, 0usize);
    let threshold = (sub.n() as f64 / ctx.rho).ceil() as usize;
    let next_beta = beta * ctx.growth;

    // Which clusters recurse: all of them on the first call, only the
    // small ones afterwards (lines 3–10). Sizes come straight from the
    // clustering — no split needed to classify.
    let sizes = clustering.sizes();
    let mut recurse_on: Vec<usize> = Vec::new();
    let mut large: Vec<usize> = Vec::new();
    for (cid, &size) in sizes.iter().enumerate() {
        if first {
            recurse_on.push(cid);
        } else if size >= threshold {
            large.push(cid);
        } else {
            recurse_on.push(cid);
        }
    }

    if !first && !large.is_empty() {
        // Star edges (line 8): center to every member, tree distances.
        for &cid in &large {
            let center_local = clustering.centers[cid];
            let center_global = to_global[center_local as usize];
            for (v, &vc) in clustering.cluster_id.iter().enumerate() {
                if vc as usize == cid && v as u32 != center_local {
                    edges.push(Edge::new(
                        to_global[v],
                        center_global,
                        clustering.dist_to_center[v].max(1),
                    ));
                    stars += 1;
                }
            }
        }
        cost = cost.then(Cost::flat(sub.n() as u64));

        // Clique edges (line 9): exact pairwise distances between large
        // centers, one parallel bucketed search per center, all in parallel.
        let centers: Vec<VertexId> = large.iter().map(|&cid| clustering.centers[cid]).collect();
        let searches: Vec<(Vec<u64>, Cost)> = ctx.exec.par_map(&centers, 1, |&c| {
            let (sssp, sc) = dial_sssp_with(&ctx.exec, sub, c);
            (sssp.dist, sc)
        });
        cost = cost.then(Cost::par_all(searches.iter().map(|(_, c)| *c)));
        for (i, &ci) in centers.iter().enumerate() {
            for (j, &cj) in centers.iter().enumerate().skip(i + 1) {
                let d = searches[i].0[cj as usize];
                if d != INF && d > 0 {
                    edges.push(Edge::new(to_global[ci as usize], to_global[cj as usize], d));
                    cliques += 1;
                }
                let _ = j;
            }
        }
        cost = cost.then(Cost::flat((centers.len() * centers.len()) as u64));
    }

    // Recursive calls run in parallel (lines 4 and 10); seeds are drawn in
    // deterministic cluster order before the parallel region.
    let tasks: Vec<(usize, u64)> = recurse_on.iter().map(|&cid| (cid, rng.random())).collect();
    let mut arena = SplitArena::lease();
    cost = cost.then(arena.split(sub, &clustering.cluster_id, clustering.num_clusters));
    let arena = &*arena;
    let children: Vec<Outcome> = ctx.exec.par_map(&tasks, 1, |&(cid, child_seed)| {
        let child_global: Vec<VertexId> = arena
            .to_parent(cid)
            .iter()
            .map(|&p| to_global[p as usize])
            .collect();
        recurse(
            &arena.view(cid),
            &child_global,
            next_beta,
            depth + 1,
            false,
            ctx,
            child_seed,
        )
    });

    let mut max_level = if (!first && !large.is_empty()) || !edges.is_empty() {
        depth
    } else {
        0
    };
    let child_cost = Cost::par_all(children.iter().map(|c| c.cost));
    cost = cost.then(child_cost);
    for ch in children {
        edges.extend(ch.edges);
        stars += ch.stars;
        cliques += ch.cliques;
        max_level = max_level.max(ch.max_level);
    }

    Outcome {
        edges,
        stars,
        cliques,
        max_level,
        cost,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::HopsetBuilder;
    use psh_graph::generators;
    use psh_graph::traversal::bellman_ford::{hop_limited_pair, ExtraEdges, PairQuery};
    use psh_graph::traversal::dijkstra::dijkstra_pair;
    use psh_graph::CsrGraph;

    fn test_params() -> HopsetParams {
        // Small-n friendly parameters: coarser top level, small base case.
        HopsetParams {
            epsilon: 0.5,
            delta: 1.5,
            gamma1: 0.25,
            gamma2: 0.75,
            k_conf: 1.0,
        }
    }

    fn build<R: Rng>(g: &CsrGraph, rng: &mut R) -> (Hopset, Cost) {
        let (artifact, cost) = HopsetBuilder::unweighted()
            .params(test_params())
            .build_with_rng(g, rng)
            .unwrap();
        (artifact.into_single(), cost)
    }

    #[test]
    fn hopset_edges_never_undershoot_distance() {
        let mut rng = StdRng::seed_from_u64(1);
        let g = generators::grid(16, 16);
        let (h, _) = build(&g, &mut rng);
        h.validate_no_shortcuts_below_distance(&g).unwrap();
    }

    #[test]
    fn lemma_4_3_star_edges_at_most_n() {
        for seed in 0..4u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let g = generators::connected_random(500, 1200, &mut rng);
            let (h, _) = build(&g, &mut rng);
            assert!(
                h.star_count <= g.n(),
                "seed {seed}: {} star edges on n={}",
                h.star_count,
                g.n()
            );
        }
    }

    #[test]
    fn lemma_4_3_clique_edges_bounded() {
        let mut rng = StdRng::seed_from_u64(5);
        let g = generators::connected_random(600, 1500, &mut rng);
        let p = test_params();
        let (h, _) = build(&g, &mut rng);
        // bound: (n / n_final) · ρ²
        let bound = (g.n() as f64 / p.n_final(g.n()) as f64) * p.rho(g.n()).powi(2);
        assert!(
            (h.clique_count as f64) <= bound,
            "{} clique edges vs bound {bound}",
            h.clique_count
        );
    }

    #[test]
    fn hopset_reduces_hops_on_long_paths() {
        // A path is the adversarial case for hop counts: without the
        // hopset, s-t needs n-1 hops.
        let n = 512;
        let g = generators::path(n);
        let mut rng = StdRng::seed_from_u64(6);
        let (h, _) = build(&g, &mut rng);
        let extra = ExtraEdges::from_edges(n, &h.edges);
        let s = 0u32;
        let t = (n - 1) as u32;
        let exact = dijkstra_pair(&g, s, t);
        // run with half the hops of the trivial path: the hopset must make
        // the endpoints reachable with modest distortion
        let (PairQuery { dist: d, hops, .. }, _) = hop_limited_pair(&g, Some(&extra), s, t, n / 2);
        assert!(d != INF, "hopset failed to shorten the path");
        assert!(
            (hops as usize) < n - 1,
            "hopset should beat the trivial {}-hop path, used {hops}",
            n - 1
        );
        assert!(
            (d as f64) <= 2.0 * exact as f64,
            "distortion too large: {d} vs exact {exact}"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let g = generators::grid(12, 12);
        let (a, _) = build(&g, &mut StdRng::seed_from_u64(42));
        let (b, _) = build(&g, &mut StdRng::seed_from_u64(42));
        assert_eq!(a, b);
    }

    #[test]
    fn small_graphs_get_empty_hopsets() {
        let g = generators::path(4);
        let mut rng = StdRng::seed_from_u64(7);
        let (h, _) = build(&g, &mut rng);
        assert_eq!(h.size(), 0, "below n_final nothing should be built");
    }

    #[test]
    fn size_stays_linearish() {
        let mut rng = StdRng::seed_from_u64(8);
        let g = generators::erdos_renyi(800, 3000, &mut rng);
        let p = test_params();
        let (h, _) = build(&g, &mut rng);
        let bound = g.n() as f64 + (g.n() as f64 / p.n_final(g.n()) as f64) * p.rho(g.n()).powi(2);
        assert!(
            (h.size() as f64) <= bound,
            "hopset size {} exceeds Lemma 4.3 bound {bound}",
            h.size()
        );
    }

    #[test]
    fn works_on_weighted_graphs_directly() {
        // §5 feeds rounded integer weights straight into Algorithm 4.
        let mut rng = StdRng::seed_from_u64(9);
        let base = generators::grid(14, 14);
        let g = generators::with_uniform_weights(&base, 1, 6, &mut rng);
        let (h, _) = build(&g, &mut rng);
        h.validate_no_shortcuts_below_distance(&g).unwrap();
    }
}
