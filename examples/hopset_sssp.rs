//! Approximate shortest paths with hopsets vs exact engines
//! (Theorem 1.2 / Corollary 4.5 in action).
//!
//! Hopsets pay off when shortest paths have many hops, so this example
//! uses a long, skinny grid (diameter ≈ n/4): plain parallel BFS needs a
//! round per level, while the hopset-backed search settles distances in a
//! fraction of the rounds at a small accuracy cost.
//!
//! Run with: `cargo run --release --example hopset_sssp`

use psh::graph::traversal::bellman_ford::hop_limited_pair;
use psh::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() {
    let (rows, cols) = (4usize, 1_250usize);
    let g = generators::grid(rows, cols); // diameter rows+cols-2 ≈ 1252
    let n = g.n();
    println!(
        "grid {rows}×{cols}: n = {n}, m = {}, diameter = {}",
        g.m(),
        rows + cols - 2
    );

    let run = HopsetBuilder::unweighted()
        .params(HopsetParams {
            epsilon: 0.5,
            delta: 1.5,
            gamma1: 0.25,
            gamma2: 0.75,
            k_conf: 1.0,
        })
        .seed(Seed(20150625))
        .build(&g)
        .expect("valid parameters");
    let (artifact, pre) = (run.artifact, run.cost);
    let hopset = artifact.into_single();
    let extra = hopset.to_extra_edges();
    let mut rng = StdRng::seed_from_u64(20150625);
    println!(
        "hopset: {} edges ({} star, {} clique, {} levels), preprocessing {pre}",
        hopset.size(),
        hopset.star_count,
        hopset.clique_count,
        hopset.levels
    );

    println!(
        "\n{:>6} {:>6} {:>8} {:>10} {:>10} {:>8}",
        "s", "t", "exact", "approx", "err", "rounds"
    );
    let mut worst = 1.0f64;
    for _ in 0..8 {
        let s = rng.random_range(0..n as u32);
        let t = rng.random_range(0..n as u32);
        let exact = psh::graph::traversal::dijkstra::dijkstra_pair(&g, s, t);
        let (q, _) = hop_limited_pair(&g, Some(&extra), s, t, n);
        let (with_h, rounds) = (q.dist, q.hops);
        let err = with_h as f64 / exact.max(1) as f64;
        worst = worst.max(err);
        println!("{s:>6} {t:>6} {exact:>8} {with_h:>10} {err:>10.3} {rounds:>8}");
    }
    println!("\nworst observed factor: {worst:.3} (Lemma 4.2 budget: 1 + ε·log_ρ n)");
}
