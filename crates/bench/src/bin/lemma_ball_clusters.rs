//! E7 — **Corollary 3.1**: with `β = ln n / 2k`, the unit ball around any
//! vertex meets `O(n^{1/k})` clusters in expectation.
//!
//! This is the quantity that controls the spanner size (each boundary
//! vertex contributes one edge per adjacent cluster). We estimate
//! `E[#clusters meeting B(v, 1)]` by sampling vertices over independent
//! clusterings, sweeping k.
//!
//! Usage: `cargo run --release -p psh-bench --bin lemma_ball_clusters [--json PATH]`

use psh_bench::stats::Summary;
use psh_bench::table::{fmt_f, Table};
use psh_bench::workloads::Family;
use psh_bench::Report;
use psh_cluster::analysis::ball_cluster_counts;
use psh_cluster::{ClusterBuilder, Seed};
use psh_core::spanner::unweighted::beta_for;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() {
    let seed = 20150625u64;
    let n = 3_000usize;
    let trials = 12u64;
    let samples_per_trial = 60;
    let mut report = Report::from_json_flag("lemma_ball_clusters");
    report
        .meta("n", n)
        .meta("seed", seed)
        .meta("trials", trials);
    println!("# Corollary 3.1 — E[#clusters meeting B(v,1)] ≤ n^(1/k)\n");
    let mut t = Table::new([
        "family",
        "k",
        "β=ln n/2k",
        "mean #clusters in B(v,1)",
        "max",
        "bound n^(1/k)",
    ]);
    for family in [Family::Random, Family::PowerLaw] {
        let g = family.instantiate(n, seed);
        for k in [2.0f64, 3.0, 4.0, 8.0] {
            let beta = beta_for(g.n(), k);
            let mut all: Vec<f64> = Vec::new();
            for tr in 0..trials {
                let (c, _) = ClusterBuilder::new(beta)
                    .seed(Seed(seed + tr))
                    .build(&g)
                    .unwrap()
                    .into_parts();
                let mut rng = StdRng::seed_from_u64(tr);
                let centers: Vec<u32> = (0..samples_per_trial)
                    .map(|_| rng.random_range(0..g.n() as u32))
                    .collect();
                all.extend(
                    ball_cluster_counts(&g, &c, &centers, 1)
                        .into_iter()
                        .map(|x| x as f64),
                );
            }
            let s = Summary::of(&all);
            t.row([
                family.name().to_string(),
                fmt_f(k),
                fmt_f(beta),
                fmt_f(s.mean),
                fmt_f(s.max),
                fmt_f((g.n() as f64).powf(1.0 / k)),
            ]);
        }
    }
    t.print();
    report.push_table("ball_clusters", &t);
    report.finish();
    println!("\nexpect: the mean column under the bound column in every row.");
}
