//! E3 — regenerate **Figure 2**: hopset construction comparison.
//!
//! Rows: no hopset (baseline), sampled-clique [KS97/SS99], sampled
//! hierarchy (Cohen proxy — substitution documented in
//! `psh_baselines::sampled_hierarchy`), and
//! Algorithm 4 (new). Columns: hopset size, construction work and depth
//! (cost model), and — the object of the exercise — the number of
//! Bellman–Ford rounds needed for random s–t pairs to come within the
//! target accuracy of their true distance.
//!
//! Expected shape: sampled-clique ≈ √n-ish hops & exact; hierarchy —
//! polylog-ish hops at superlinear size; Algorithm 4 — few hops, O(n)
//! size, near-linear work; "none" — hops equal to the path hop length.
//!
//! Usage: `cargo run --release -p psh-bench --bin table2_hopsets [--json PATH]`

use psh_baselines::ks_hopset::sampled_clique_hopset;
use psh_baselines::sampled_hierarchy::{sampled_hierarchy_hopset, HierarchyConfig};
use psh_bench::table::{fmt_f, fmt_u, Table};
use psh_bench::workloads::Family;
use psh_bench::Report;
use psh_core::api::{HopsetBuilder, Seed};
use psh_core::hopset::{Hopset, HopsetParams};
use psh_graph::traversal::bellman_ford::{hop_limited_sssp, ExtraEdges};
use psh_graph::traversal::dijkstra::dijkstra;
use psh_graph::CsrGraph;
use psh_pram::Cost;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The empirical `h` of Definition 2.4: the smallest hop budget (up to a
/// factor 2, via doubling) at which `dist^h(s, t) ≤ (1+eps)·dist(s, t)`,
/// maximized over reachable targets and a few sources. Also returns the
/// worst relative error remaining at the full budget `h = n`.
fn hops_to_accuracy(g: &CsrGraph, extra: Option<&ExtraEdges>, eps: f64, seed: u64) -> (f64, f64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = g.n();
    let mut worst_h: u64 = 0;
    let mut worst_err: f64 = 0.0;
    for _ in 0..4 {
        let s = rng.random_range(0..n as u32);
        let exact = dijkstra(g, s);
        // dist^h for h = 1, 2, 4, … n; per target take the first accurate h
        let mut budgets: Vec<usize> = Vec::new();
        let mut h = 1usize;
        while h < n {
            budgets.push(h);
            h *= 2;
        }
        budgets.push(n);
        let runs: Vec<_> = budgets
            .iter()
            .map(|&h| hop_limited_sssp(g, extra, &[s], h).0)
            .collect();
        for t in 0..n {
            let ex = exact.dist[t];
            if ex == 0 || ex == psh_graph::INF {
                continue;
            }
            let final_err = runs.last().unwrap().dist[t] as f64 / ex as f64 - 1.0;
            worst_err = worst_err.max(final_err);
            for (&h, q) in budgets.iter().zip(&runs) {
                if (q.dist[t] as f64) <= (1.0 + eps) * ex as f64 {
                    worst_h = worst_h.max(h as u64);
                    break;
                }
            }
        }
    }
    (worst_h as f64, worst_err)
}

fn row_for(
    t: &mut Table,
    family: &str,
    alg: &str,
    g: &CsrGraph,
    hopset: &Hopset,
    cost: Cost,
    eps: f64,
) {
    let extra = hopset.to_extra_edges();
    let use_extra = (!extra.is_empty()).then_some(&extra);
    let (hops, err) = hops_to_accuracy(g, use_extra, eps, 99);
    t.row([
        family.to_string(),
        alg.into(),
        fmt_u(hopset.size() as u64),
        fmt_u(cost.work),
        fmt_u(cost.depth),
        fmt_f(hops),
        fmt_f(err),
    ]);
}

fn main() {
    let n = 2_000usize;
    let seed: u64 = 20150625;
    let eps = 0.25;
    let mut report = Report::from_json_flag("table2_hopsets");
    report.meta("n", n).meta("seed", seed).meta("eps", eps);
    let params = HopsetParams {
        epsilon: 0.5,
        delta: 1.5,
        gamma1: 0.25,
        gamma2: 0.75,
        k_conf: 1.0,
    };
    println!("# Figure 2 reproduction — hopset constructions\n");
    println!("paper rows: [KS97,SS99] O(n^0.5) hops / O(n) size / O(m n^0.5) work, exact");
    println!("            [Coh00]     polylog hops / n^(1+α) polylog size / Õ(m n^α) work");
    println!(
        "            new         O(n^((4+α)/(4+2α))) hops / O(n) size / O(m log^(3+α) n) work\n"
    );
    println!("measured: hops = smallest (doubled) budget h with dist^h ≤ (1+{eps})·dist, worst over pairs\n");

    let mut t = Table::new([
        "family",
        "algorithm",
        "size",
        "work",
        "depth",
        "hops",
        "worst err",
    ]);
    for family in [Family::PathGraph, Family::Grid, Family::Random] {
        let g = family.instantiate(n, seed);
        row_for(
            &mut t,
            family.name(),
            "none",
            &g,
            &Hopset::empty(g.n()),
            Cost::ZERO,
            eps,
        );
        let (ks, c) = sampled_clique_hopset(&g, &mut StdRng::seed_from_u64(seed));
        row_for(
            &mut t,
            family.name(),
            "sampled-clique [KS97]",
            &g,
            &ks,
            c,
            eps,
        );
        let (sh, c) = sampled_hierarchy_hopset(
            &g,
            &HierarchyConfig::default(),
            &mut StdRng::seed_from_u64(seed),
        );
        row_for(
            &mut t,
            family.name(),
            "sampled-hier [Coh00*]",
            &g,
            &sh,
            c,
            eps,
        );
        let (ours, c) = {
            let run = HopsetBuilder::unweighted()
                .params(params)
                .seed(Seed(seed))
                .build(&g)
                .unwrap();
            let cost = run.cost;
            (run.artifact.into_single(), cost)
        };
        row_for(
            &mut t,
            family.name(),
            "estc recursive (new)",
            &g,
            &ours,
            c,
            eps,
        );
    }
    t.print();
    report.push_table("hopset_comparison", &t);
    report.finish();
    println!("\n[Coh00*]: sampled-hierarchy proxy, see psh_baselines::sampled_hierarchy.");
}
