//! Seeded inputs: the graphs, the request sequences and the update edge.
//! The program under test only ever sees what this module generates.

use crate::config::{sub_seed, Sizes, Workload, WEIGHT_RATIO};
use psh_graph::connectivity::components_union_find;
use psh_graph::traversal::dijkstra::dijkstra;
use psh_graph::{generators, CsrGraph, GraphDelta, VertexId, INF};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The workload's graph: a weighted R-MAT for `build` (dense and skewed,
/// where a spanner actually sparsifies), a weighted king-move grid (road
/// like, high diameter) for `serve_uniform`.
pub fn graph(w: Workload, sz: &Sizes, seed: u64) -> CsrGraph {
    let mut rng = StdRng::seed_from_u64(sub_seed(seed, 1));
    let base = match w {
        Workload::Build => generators::rmat(sz.rmat_n, sz.rmat_draws * sz.rmat_n, &mut rng),
        Workload::ServeUniform => generators::grid2d(sz.grid_side, sz.grid_side),
    };
    generators::with_log_uniform_weights(&base, WEIGHT_RATIO, &mut rng)
}

/// The vertices of the largest connected component: every query pair is
/// drawn from here, so every answer is a finite distance.
pub fn endpoint_pool(g: &CsrGraph) -> Vec<VertexId> {
    let (comps, _) = components_union_find(g);
    let sizes = comps.sizes();
    let giant = (0..sizes.len()).max_by_key(|&c| sizes[c]).unwrap_or(0) as u32;
    (0..g.n() as u32)
        .filter(|&v| comps.labels[v as usize] == giant)
        .collect()
}

fn distinct_pair(pool: &[VertexId], rng: &mut StdRng) -> (VertexId, VertexId) {
    loop {
        let s = pool[rng.random_range(0..pool.len())];
        let t = pool[rng.random_range(0..pool.len())];
        if s != t {
            return (s, t);
        }
    }
}

/// Request sequences for two callers: indices into a catalog of pairs.
/// Each caller sends its warm-up list at the start of every round, and
/// cycles through its sequence across the rounds.
pub struct Traffic {
    pub catalog: Vec<(VertexId, VertexId)>,
    pub warmup: [Vec<u32>; 2],
    pub seqs: [Vec<u32>; 2],
}

impl Traffic {
    /// The pair caller `c` sends as its `k`-th measured request.
    pub fn pair(&self, c: usize, k: usize) -> (VertexId, VertexId) {
        let seq = &self.seqs[c];
        self.catalog[seq[k % seq.len()] as usize]
    }

    /// Catalog index of caller `c`'s `k`-th measured request.
    pub fn index(&self, c: usize, k: usize) -> usize {
        let seq = &self.seqs[c];
        seq[k % seq.len()] as usize
    }
}

/// Independent uniform pairs, each its own catalog entry. With the answer
/// cache off, a pair sent again when a sequence wraps costs a full sweep
/// again.
pub fn uniform(pool: &[VertexId], sz: &Sizes, seed: u64) -> Traffic {
    let mut rng = StdRng::seed_from_u64(sub_seed(seed, 2));
    let mut catalog = Vec::with_capacity(2 * (sz.uniform_warmup + sz.uniform_len));
    let mut lists = |len: usize, catalog: &mut Vec<(VertexId, VertexId)>| -> Vec<u32> {
        (0..len)
            .map(|_| {
                catalog.push(distinct_pair(pool, &mut rng));
                (catalog.len() - 1) as u32
            })
            .collect()
    };
    let warmup = [
        lists(sz.uniform_warmup, &mut catalog),
        lists(sz.uniform_warmup, &mut catalog),
    ];
    let seqs = [
        lists(sz.uniform_len, &mut catalog),
        lists(sz.uniform_len, &mut catalog),
    ];
    Traffic {
        catalog,
        warmup,
        seqs,
    }
}

/// The edge graph updates toggle: from a random pool vertex to one of the
/// farthest tenth of the pool (by weighted distance) it is not adjacent
/// to. A weight-1 edge there changes many distances, so an update that
/// has not landed is visible in answers.
pub fn update_pair(g: &CsrGraph, pool: &[VertexId], seed: u64) -> (VertexId, VertexId) {
    let mut rng = StdRng::seed_from_u64(sub_seed(seed, 4));
    let u = pool[rng.random_range(0..pool.len())];
    let dist = dijkstra(g, u).dist;
    let mut far: Vec<VertexId> = pool
        .iter()
        .copied()
        .filter(|&v| v != u && dist[v as usize] != INF && !g.neighbors(u).any(|(x, _)| x == v))
        .collect();
    far.sort_by_key(|&v| std::cmp::Reverse((dist[v as usize], v)));
    far.truncate((far.len() / 10).max(1));
    (u, far[rng.random_range(0..far.len())])
}

/// The delta of update number `k`: even updates insert the weight-1 edge,
/// odd ones delete it again, so the graph alternates between two states
/// and never drifts.
pub fn update_delta(n: usize, pair: (VertexId, VertexId), k: u64) -> GraphDelta {
    let mut d = GraphDelta::new(n);
    let op = if k.is_multiple_of(2) {
        d.insert(pair.0, pair.1, 1)
    } else {
        d.delete(pair.0, pair.1)
    };
    op.expect("update pair is a valid non-loop pair of the graph");
    d
}

/// Seeded pairs for the post-phase stretch and final-state checks.
pub fn check_pairs(pool: &[VertexId], count: usize, seed: u64) -> Vec<(VertexId, VertexId)> {
    let mut rng = StdRng::seed_from_u64(sub_seed(seed, 5));
    (0..count).map(|_| distinct_pair(pool, &mut rng)).collect()
}
