//! E4 — **Theorem 1.2 / Corollaries 4.5 & 5.4**: end-to-end approximate
//! shortest paths.
//!
//! Preprocess once (a hopset from `HopsetBuilder`), then answer s–t
//! queries with the h-hop Bellman–Ford over it: Corollary 4.5's budget on
//! unit graphs, §5's band loop (`WeightedHopsets::query`) on weighted
//! ones. We compare query work and depth against exact engines (Dial's
//! bucketed search, whose rounds on unit weights are BFS levels, and
//! Dijkstra) and report the observed approximation factor.
//!
//! Usage: `cargo run --release -p psh-bench --bin sssp_endtoend [--json PATH]`

use psh_bench::stats::Summary;
use psh_bench::table::{fmt_f, fmt_u, Table};
use psh_bench::workloads::Family;
use psh_bench::Report;
use psh_core::api::{HopsetBuilder, Seed};
use psh_core::hopset::HopsetParams;
use psh_graph::traversal::bellman_ford::hop_limited_pair;
use psh_graph::traversal::dial::dial_sssp;
use psh_graph::traversal::dijkstra::dijkstra_pair;
use psh_graph::INF;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() {
    let seed = 20150625u64;
    let n = 4_000usize;
    let params = HopsetParams {
        epsilon: 0.5,
        delta: 1.5,
        gamma1: 0.25,
        gamma2: 0.75,
        k_conf: 1.0,
    };
    let queries = 30;
    let mut report = Report::from_json_flag("sssp_endtoend");
    report
        .meta("n", n)
        .meta("seed", seed)
        .meta("queries", queries as u64)
        .meta("epsilon", params.epsilon);

    println!("# Theorem 1.2 — end-to-end approximate SSSP\n");
    println!("## Unweighted (Corollary 4.5)\n");
    let mut t = Table::new([
        "family",
        "preproc work",
        "preproc depth",
        "hopset size",
        "query work (mean)",
        "query depth (mean)",
        "exact BFS depth",
        "max approx factor",
    ]);
    for family in [Family::PathGraph, Family::Grid, Family::Random] {
        let g = family.instantiate(n, seed);
        let (hopset, pre) = HopsetBuilder::unweighted()
            .params(params)
            .seed(Seed(seed))
            .build(&g)
            .unwrap()
            .into_parts();
        let hopset = hopset.into_single();
        let extra = hopset.to_extra_edges();
        // Corollary 4.5's budget for the worst case d = n
        let h = params.hop_bound(g.n(), params.beta0(g.n()), g.n() as u64);
        let (_, bfs_cost) = dial_sssp(&g, 0);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut qwork = Vec::new();
        let mut qdepth = Vec::new();
        let mut factor: f64 = 1.0;
        for _ in 0..queries {
            let s = rng.random_range(0..g.n() as u32);
            let tt = rng.random_range(0..g.n() as u32);
            let (q, qc) = hop_limited_pair(&g, Some(&extra), s, tt, h);
            qwork.push(qc.work as f64);
            qdepth.push(qc.depth as f64);
            let exact = dijkstra_pair(&g, s, tt);
            if exact > 0 && exact != INF {
                factor = factor.max(q.dist as f64 / exact as f64);
            }
        }
        t.row([
            family.name().to_string(),
            fmt_u(pre.work),
            fmt_u(pre.depth),
            fmt_u(hopset.size() as u64),
            fmt_f(Summary::of(&qwork).mean),
            fmt_f(Summary::of(&qdepth).mean),
            fmt_u(bfs_cost.depth),
            fmt_f(factor),
        ]);
    }
    t.print();
    report.push_table("unweighted", &t);

    println!("\n## Weighted (Corollary 5.4)\n");
    let mut t = Table::new([
        "family",
        "U",
        "preproc work",
        "bands",
        "hopset size",
        "query depth (mean)",
        "max approx factor",
    ]);
    for family in [Family::Grid, Family::Random] {
        let g = family.instantiate_weighted(1_000, 256.0, seed);
        let (hopsets, pre) = HopsetBuilder::weighted(0.4)
            .params(params)
            .seed(Seed(seed))
            .build(&g)
            .unwrap()
            .into_parts();
        let bands = hopsets.as_banded().expect("a weighted build is banded");
        let mut rng = StdRng::seed_from_u64(seed);
        let mut qdepth = Vec::new();
        let mut factor: f64 = 1.0;
        for _ in 0..queries {
            let s = rng.random_range(0..g.n() as u32);
            let tt = rng.random_range(0..g.n() as u32);
            let (d, qc) = bands.query(s, tt);
            qdepth.push(qc.depth as f64);
            let exact = dijkstra_pair(&g, s, tt);
            if exact > 0 && exact != INF {
                factor = factor.max(d / exact as f64);
            }
        }
        t.row([
            family.name().to_string(),
            "2^8".into(),
            fmt_u(pre.work),
            fmt_u(bands.num_bands() as u64),
            fmt_u(bands.total_size() as u64),
            fmt_f(Summary::of(&qdepth).mean),
            fmt_f(factor),
        ]);
    }
    t.print();
    report.push_table("weighted", &t);
    report.finish();
    println!("\nexpect: query depth ≪ exact BFS depth on high-diameter families; factor ≤ 1+ε'.");
}
