//! E6 — **Corollary 2.3 / Lemma 2.2**: edge-cut probability and
//! ball–cluster intersection tails.
//!
//! Corollary 2.3: an edge of weight `w` is cut with probability at most
//! `1 − exp(−β·w) < β·w`. We estimate the empirical cut probability per
//! weight bucket over many independent clusterings and print it against
//! the bound.
//!
//! Lemma 2.2: `P(ball of radius r meets ≥ j clusters) ≤ γ^{j−1}` with
//! `γ = 1 − exp(−2rβ)`. We sample balls and print the tail against the
//! bound.
//!
//! Usage: `cargo run --release -p psh-bench --bin lemma_cut_probability [--json PATH]`

use psh_bench::table::{fmt_f, Table};
use psh_bench::workloads::Family;
use psh_bench::Report;
use psh_cluster::analysis::{ball_cluster_count, cut_by_weight};
use psh_cluster::{ClusterBuilder, Seed};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

fn main() {
    let seed = 20150625u64;
    let trials = 60;
    let mut report = Report::from_json_flag("lemma_cut_probability");
    report.meta("seed", seed).meta("trials", trials);

    println!("# Corollary 2.3 — P(edge cut) vs β·w\n");
    let base = Family::Grid.instantiate(1_600, seed);
    let g =
        psh_graph::generators::with_uniform_weights(&base, 1, 8, &mut StdRng::seed_from_u64(seed));
    let beta = 0.08f64;
    let mut cut_per_w: BTreeMap<u64, (usize, usize)> = BTreeMap::new();
    for t in 0..trials {
        let (c, _) = ClusterBuilder::new(beta)
            .seed(Seed(seed + t))
            .build(&g)
            .unwrap()
            .into_parts();
        for (w, cut) in cut_by_weight(&g, &c) {
            let e = cut_per_w.entry(w).or_insert((0, 0));
            e.1 += 1;
            if cut {
                e.0 += 1;
            }
        }
    }
    let mut t1 = Table::new(["w", "empirical P(cut)", "bound 1-exp(-βw)", "bound βw"]);
    for (w, (cut, total)) in &cut_per_w {
        let emp = *cut as f64 / *total as f64;
        let tight = 1.0 - (-beta * *w as f64).exp();
        t1.row([
            w.to_string(),
            fmt_f(emp),
            fmt_f(tight),
            fmt_f(beta * *w as f64),
        ]);
    }
    t1.print();
    report.push_table("edge_cut_probability", &t1);

    println!("\n# Lemma 2.2 — P(ball hits ≥ j clusters) vs γ^(j-1)\n");
    let g = Family::Torus.instantiate(1_600, seed);
    let r = 2u64;
    let beta = 0.15f64;
    let gamma = 1.0 - (-2.0 * r as f64 * beta).exp();
    let mut counts: Vec<usize> = Vec::new();
    for t in 0..trials {
        let (c, _) = ClusterBuilder::new(beta)
            .seed(Seed(seed + 1000 + t))
            .build(&g)
            .unwrap()
            .into_parts();
        let mut rng = StdRng::seed_from_u64(t);
        for _ in 0..20 {
            let v = rng.random_range(0..g.n() as u32);
            counts.push(ball_cluster_count(&g, &c, v, r));
        }
    }
    let total = counts.len() as f64;
    let mut t2 = Table::new(["j", "empirical P(≥j)", "bound γ^(j-1)"]);
    for j in 1..=8usize {
        let emp = counts.iter().filter(|&&c| c >= j).count() as f64 / total;
        t2.row([j.to_string(), fmt_f(emp), fmt_f(gamma.powi(j as i32 - 1))]);
    }
    t2.print();
    report.push_table("ball_tail", &t2);
    report.finish();
    println!("\nγ = {} (r = {r}, β = {beta})", fmt_f(gamma));
}
