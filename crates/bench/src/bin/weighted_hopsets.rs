//! E12 — **§5 + Lemma 5.2**: weighted hopsets through rounding.
//!
//! Checks (a) the rounding distortion is ≤ 1+ζ per band, (b) the
//! multi-band oracle's answers sandwich the exact distances, and (c) the
//! query depth (Bellman–Ford rounds) stays near the hop bound rather than
//! the distance.
//!
//! Usage: `cargo run --release -p psh-bench --bin weighted_hopsets [--json PATH]`

use psh_bench::stats::Summary;
use psh_bench::table::{fmt_f, fmt_u, Table};
use psh_bench::workloads::Family;
use psh_bench::Report;
use psh_core::api::{HopsetBuilder, Seed};
use psh_core::hopset::HopsetParams;
use psh_graph::traversal::dijkstra::dijkstra;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() {
    let seed = 20150625u64;
    let params = HopsetParams {
        epsilon: 0.5,
        delta: 1.5,
        gamma1: 0.25,
        gamma2: 0.75,
        k_conf: 1.0,
    };
    let mut report = Report::from_json_flag("weighted_hopsets");
    report
        .meta("seed", seed)
        .meta("eta", 0.4)
        .meta("epsilon", params.epsilon);
    println!("# §5 — weighted hopsets via rounding + distance bands\n");
    let mut t = Table::new([
        "family",
        "U",
        "bands",
        "total hopset size",
        "mean err",
        "max err",
        "undershoots",
    ]);
    for family in [Family::Grid, Family::Random] {
        for u in [16.0f64, 256.0, 4096.0] {
            let g = family.instantiate_weighted(900, u, seed);
            let wh = HopsetBuilder::weighted(0.4)
                .params(params)
                .seed(Seed(seed))
                .build(&g)
                .unwrap()
                .artifact
                .as_banded()
                .expect("weighted kind yields a banded artifact")
                .clone();
            let mut rng = StdRng::seed_from_u64(seed);
            let mut errs = Vec::new();
            let mut undershoots = 0usize;
            for _ in 0..5 {
                let s = rng.random_range(0..g.n() as u32);
                let exact = dijkstra(&g, s);
                for _ in 0..20 {
                    let tt = rng.random_range(0..g.n() as u32);
                    let ex = exact.dist[tt as usize];
                    if ex == 0 || ex == psh_graph::INF {
                        continue;
                    }
                    let (approx, _) = wh.query(s, tt);
                    if approx < ex as f64 - 1e-6 {
                        undershoots += 1;
                    }
                    errs.push(approx / ex as f64 - 1.0);
                }
            }
            let s = Summary::of(&errs);
            t.row([
                family.name().to_string(),
                format!("2^{}", u.log2() as u32),
                wh.num_bands().to_string(),
                fmt_u(wh.total_size() as u64),
                fmt_f(s.mean),
                fmt_f(s.max),
                undershoots.to_string(),
            ]);
        }
    }
    t.print();
    report.push_table("weighted_bands", &t);
    report.finish();
    println!("\nexpect: zero undershoots (soundness) and max err within the ε' budget.");
}
