//! E4 — **Theorem 1.2 / Corollaries 4.5 & 5.4**: end-to-end approximate
//! shortest paths.
//!
//! Preprocess once (hopset), then answer s–t queries with the h-hop
//! Bellman–Ford. We compare query work and depth against exact engines
//! (Dial's bucketed search, whose rounds on unit weights are BFS levels,
//! and Dijkstra) and report the observed approximation factor.
//!
//! Usage: `cargo run --release -p psh-bench --bin sssp_endtoend [--json PATH]`

use psh_bench::stats::Summary;
use psh_bench::table::{fmt_f, fmt_u, Table};
use psh_bench::workloads::Family;
use psh_bench::Report;
use psh_core::api::{OracleBuilder, OracleMode, Seed};
use psh_core::hopset::HopsetParams;
use psh_graph::traversal::dial::dial_sssp;
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
        let (oracle, pre) = OracleBuilder::new()
            .params(params)
            .mode(OracleMode::Unweighted)
            .seed(Seed(seed))
            .build(&g)
            .unwrap()
            .into_parts();
        let (_, bfs_cost) = dial_sssp(&g, 0);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut qwork = Vec::new();
        let mut qdepth = Vec::new();
        let mut factor: f64 = 1.0;
        for _ in 0..queries {
            let s = rng.random_range(0..g.n() as u32);
            let tt = rng.random_range(0..g.n() as u32);
            let (r, qc) = oracle.query(s, tt);
            qwork.push(qc.work as f64);
            qdepth.push(qc.depth as f64);
            let exact = oracle.query_exact(s, tt);
            if exact > 0 && exact != psh_graph::INF {
                factor = factor.max(r.distance / exact as f64);
            }
        }
        t.row([
            family.name().to_string(),
            fmt_u(pre.work),
            fmt_u(pre.depth),
            fmt_u(oracle.hopset_size() as u64),
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
        let (oracle, pre) = OracleBuilder::new()
            .params(params)
            .eta(0.4)
            .mode(OracleMode::Weighted)
            .allow_large_weights(true)
            .seed(Seed(seed))
            .build(&g)
            .unwrap()
            .into_parts();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut qdepth = Vec::new();
        let mut factor: f64 = 1.0;
        for _ in 0..queries {
            let s = rng.random_range(0..g.n() as u32);
            let tt = rng.random_range(0..g.n() as u32);
            let (r, qc) = oracle.query(s, tt);
            qdepth.push(qc.depth as f64);
            let exact = oracle.query_exact(s, tt);
            if exact > 0 && exact != psh_graph::INF {
                factor = factor.max(r.distance / exact as f64);
            }
        }
        t.row([
            family.name().to_string(),
            "2^8".into(),
            fmt_u(pre.work),
            "-".into(),
            fmt_u(oracle.hopset_size() as u64),
            fmt_f(Summary::of(&qdepth).mean),
            fmt_f(factor),
        ]);
    }
    t.print();
    report.push_table("weighted", &t);
    report.finish();
    println!("\nexpect: query depth ≪ exact BFS depth on high-diameter families; factor ≤ 1+ε'.");
}
