//! E5 — **Lemma 2.1**: cluster radius vs `k·log n / β`.
//!
//! The clustering certifies each cluster by a spanning tree; Lemma 2.1
//! bounds the tree radius by `k·log n/β` with probability `1 − 1/n^{k−1}`.
//! We sweep β over several graph families and report the max and mean
//! observed radius against the k = 1 and k = 2 bounds.
//!
//! Usage: `cargo run --release -p psh-bench --bin lemma_cluster_diameter [--json PATH]`

use psh_bench::stats::Summary;
use psh_bench::table::{fmt_f, Table};
use psh_bench::workloads::Family;
use psh_bench::Report;
use psh_cluster::analysis::radius_summary;
use psh_cluster::{ClusterBuilder, Seed};

fn main() {
    let seed = 20150625u64;
    let n = 4_000usize;
    let trials = 15u64;
    let mut report = Report::from_json_flag("lemma_cluster_diameter");
    report
        .meta("n", n)
        .meta("seed", seed)
        .meta("trials", trials);
    println!("# Lemma 2.1 — cluster radius ≤ k·ln n/β w.h.p.\n");
    let mut t = Table::new([
        "family",
        "β",
        "max radius (over trials)",
        "mean radius",
        "bound k=1 (ln n/β)",
        "bound k=2",
        "depth (rounds, mean)",
    ]);
    for family in [Family::Random, Family::Grid, Family::PathGraph] {
        let g = family.instantiate(n, seed);
        let ln_n = (g.n() as f64).ln();
        for beta in [0.05f64, 0.1, 0.3, 0.8] {
            let mut maxes = Vec::new();
            let mut means = Vec::new();
            let mut depths = Vec::new();
            for tr in 0..trials {
                let (c, cost) = ClusterBuilder::new(beta)
                    .seed(Seed(seed + tr))
                    .build(&g)
                    .unwrap()
                    .into_parts();
                let (mx, mean) = radius_summary(&c);
                maxes.push(mx as f64);
                means.push(mean);
                depths.push(cost.depth as f64);
            }
            t.row([
                family.name().to_string(),
                fmt_f(beta),
                fmt_f(Summary::of(&maxes).max),
                fmt_f(Summary::of(&means).mean),
                fmt_f(ln_n / beta),
                fmt_f(2.0 * ln_n / beta),
                fmt_f(Summary::of(&depths).mean),
            ]);
        }
    }
    t.print();
    report.push_table("cluster_radius", &t);
    report.finish();
    println!("\nexpect: max radius under the k=2 bound in every row; depth tracks ln n/β.");
}
