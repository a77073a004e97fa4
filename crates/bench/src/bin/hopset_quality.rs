//! E9 — **Lemma 4.2**: hop count and distortion of the shortcut paths.
//!
//! For a distance-d pair, Lemma 4.2 predicts an equivalent path with
//! `h = n^{1/δ}·n_final^{1−1/δ}·β₀·d` hops and additive distortion
//! `O(ε·log_ρ n·d)`. Paths are the adversarial case (hop count = distance)
//! so we measure on long paths and grids, sweeping the parameters that the
//! bound says matter (δ via ρ, γ₂ via β₀).
//!
//! Usage: `cargo run --release -p psh-bench --bin hopset_quality [--json PATH]`

use psh_bench::table::{fmt_f, fmt_u, Table};
use psh_bench::workloads::Family;
use psh_bench::Report;
use psh_core::api::{HopsetBuilder, Seed};
use psh_core::hopset::HopsetParams;
use psh_graph::traversal::bellman_ford::{hop_limited_pair, PairQuery};
use psh_graph::traversal::dijkstra::dijkstra_pair;
use psh_graph::INF;

fn main() {
    let seed = 20150625u64;
    let n = 4_096usize;
    let mut report = Report::from_json_flag("hopset_quality");
    report.meta("n", n).meta("seed", seed);
    println!("# Lemma 4.2 — hops and distortion vs predicted\n");
    let mut t = Table::new([
        "family",
        "δ",
        "γ2",
        "hopset size",
        "s-t dist",
        "(1+err)",
        "hops used",
        "predicted h",
        "no-hopset hops",
    ]);
    for family in [Family::PathGraph, Family::Grid] {
        let g = family.instantiate(n, seed);
        let nn = g.n();
        let (s, tt) = (0u32, (nn - 1) as u32);
        let exact = dijkstra_pair(&g, s, tt);
        for (delta, gamma2) in [(1.25f64, 0.6f64), (1.5, 0.75), (2.0, 0.9)] {
            let params = HopsetParams {
                epsilon: 0.5,
                delta,
                gamma1: 0.25,
                gamma2,
                k_conf: 1.0,
            };
            let h = HopsetBuilder::unweighted()
                .params(params)
                .seed(Seed(seed))
                .build(&g)
                .unwrap()
                .artifact
                .into_single();
            let extra = h.to_extra_edges();
            let (PairQuery { dist: d, hops, .. }, _) =
                hop_limited_pair(&g, Some(&extra), s, tt, nn);
            let predicted = params.hop_bound(nn, params.beta0(nn), exact);
            t.row([
                family.name().to_string(),
                fmt_f(delta),
                fmt_f(gamma2),
                fmt_u(h.size() as u64),
                fmt_u(exact),
                if d == INF {
                    "∞".into()
                } else {
                    fmt_f(d as f64 / exact as f64)
                },
                fmt_u(hops as u64),
                fmt_u(predicted as u64),
                fmt_u(exact), // unit graphs: hop count = distance
            ]);
        }
    }
    t.print();
    report.push_table("hops_and_distortion", &t);
    report.finish();
    println!("\nexpect: hops used ≪ no-hopset hops; distortion within the ε·log_ρ n budget.");
}
