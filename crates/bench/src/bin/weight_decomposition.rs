//! E13 — **Lemma 5.1 / Appendix B**: hierarchical weight decomposition.
//!
//! On graphs whose weight ratio far exceeds `n³`, the decomposition must
//! (a) produce query graphs with polynomially bounded weights, (b) keep
//! the total collection near-linear in m, and (c) answer queries within
//! `[(1−ε)·dist, dist]`.
//!
//! Usage: `cargo run --release -p psh-bench --bin weight_decomposition [--json PATH]`

use psh_bench::stats::Summary;
use psh_bench::table::{fmt_f, fmt_u, Table};
use psh_bench::workloads::Family;
use psh_bench::Report;
use psh_core::hopset::weight_classes::WeightClassDecomposition;
use psh_graph::traversal::dijkstra::dijkstra;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() {
    let seed = 20150625u64;
    let eps = 0.2;
    let mut report = Report::from_json_flag("weight_decomposition");
    report.meta("seed", seed).meta("eps", eps);
    println!("# Appendix B — weight-class decomposition (ε = {eps})\n");
    let mut t = Table::new([
        "family",
        "U",
        "levels",
        "Σ query-graph edges / m",
        "max query ratio / base³",
        "mean rel err",
        "worst rel err",
        "overshoots",
    ]);
    for family in [Family::Random, Family::Grid] {
        for log10_u in [6u32, 12, 18] {
            let u = 10f64.powi(log10_u as i32);
            let g = family.instantiate_weighted(600, u, seed);
            let (dec, _) = WeightClassDecomposition::build(&g, eps);
            let (_, e_total) = dec.collection_size();
            let mut rng = StdRng::seed_from_u64(seed);
            let mut errs = Vec::new();
            let mut overshoots = 0usize;
            for _ in 0..4 {
                let s = rng.random_range(0..g.n() as u32);
                let exact = dijkstra(&g, s);
                for _ in 0..25 {
                    let tt = rng.random_range(0..g.n() as u32);
                    let ex = exact.dist[tt as usize];
                    if ex == 0 || ex == psh_graph::INF {
                        continue;
                    }
                    let approx = dec.query(s, tt);
                    if approx > ex {
                        overshoots += 1;
                    }
                    errs.push(1.0 - approx as f64 / ex as f64);
                }
            }
            let s = Summary::of(&errs);
            t.row([
                family.name().to_string(),
                format!("1e{log10_u}"),
                dec.levels.len().to_string(),
                fmt_f(e_total as f64 / g.m() as f64),
                fmt_f(dec.max_query_weight_ratio() / dec.base.powi(3)),
                fmt_f(s.mean),
                fmt_f(s.max),
                fmt_u(overshoots as u64),
            ]);
        }
    }
    t.print();
    report.push_table("decomposition", &t);
    report.finish();
    println!("\nexpect: edges/m ≤ 3, ratio fraction ≤ 1, worst err ≤ ε, zero overshoots.");
}
