//! E14 — **Appendix C / Theorem C.2**: limited hopsets and the low-depth
//! iteration.
//!
//! Each iteration of the Theorem C.2 loop should divide the hop count of
//! long paths by roughly `n^η`. We run the loop on long paths, measuring
//! after each iteration the hops needed for the end-to-end pair.
//!
//! Usage: `cargo run --release -p psh-bench --bin limited_hopsets [--json PATH]`

use psh_bench::table::{fmt_f, fmt_u, Table};
use psh_bench::Report;
use psh_core::hopset::limited::{limited_hopset, low_depth_hopset};
use psh_graph::traversal::bellman_ford::{hop_limited_pair, ExtraEdges, PairQuery};
use psh_graph::traversal::dijkstra::dijkstra_pair;
use psh_graph::{generators, CsrGraph, Edge, INF};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn hops_for_pair(g: &CsrGraph, edges: &[Edge], s: u32, t: u32) -> (u64, f64) {
    let extra = ExtraEdges::from_edges(g.n(), edges);
    let use_extra = (!edges.is_empty()).then_some(&extra);
    let (PairQuery { dist: d, hops, .. }, _) = hop_limited_pair(g, use_extra, s, t, g.n());
    let exact = dijkstra_pair(g, s, t);
    if d == INF {
        (u64::MAX, f64::INFINITY)
    } else {
        (hops as u64, d as f64 / exact as f64)
    }
}

fn main() {
    let seed = 20150625u64;
    let n = 2_048usize;
    let mut report = Report::from_json_flag("limited_hopsets");
    report.meta("n", n).meta("seed", seed);
    let g = generators::path(n);
    let (s, t) = (0u32, (n - 1) as u32);

    println!("# Appendix C — iterated limited hopsets on a {n}-vertex path\n");
    println!("## Per-iteration hop reduction (Theorem C.2 loop, α = 0.6)\n");
    let mut t1 = Table::new(["iteration", "accumulated edges", "s-t hops", "distortion"]);
    {
        // replicate the loop manually to observe per-iteration state
        let eta: f64 = 0.3;
        let iterations = (1.0 / eta).ceil() as usize;
        let band = (n as f64).powf(eta).max(2.0);
        let d_max = n as u64;
        let mut working = g.clone();
        let mut acc: Vec<Edge> = Vec::new();
        let (h0, dist0) = hops_for_pair(&g, &acc, s, t);
        t1.row(["0".into(), "0".into(), fmt_u(h0), fmt_f(dist0)]);
        let mut rng = StdRng::seed_from_u64(seed);
        for it in 1..=iterations {
            let mut new_edges = Vec::new();
            let mut d = 1u64;
            while d <= d_max {
                use rand::Rng;
                let child: u64 = rng.random();
                let (es, _) =
                    limited_hopset(&working, d, eta, 0.5, &mut StdRng::seed_from_u64(child));
                new_edges.extend(es);
                d = ((d as f64 * band).ceil() as u64).max(d + 1);
            }
            acc.extend(new_edges.iter().copied());
            let merged: Vec<Edge> = working.edges().iter().copied().chain(new_edges).collect();
            working = CsrGraph::from_edges(n, merged);
            let (h, dist) = hops_for_pair(&g, &acc, s, t);
            t1.row([
                it.to_string(),
                fmt_u(acc.len() as u64),
                fmt_u(h),
                fmt_f(dist),
            ]);
        }
    }
    t1.print();
    report.push_table("per_iteration", &t1);

    println!("\n## One-shot driver (low_depth_hopset, α sweep)\n");
    let mut t2 = Table::new(["α", "hopset size", "s-t hops", "distortion"]);
    for alpha in [0.4f64, 0.6, 0.8] {
        let (h, _) = low_depth_hopset(&g, alpha, 0.5, &mut StdRng::seed_from_u64(seed));
        let (hops, dist) = hops_for_pair(&g, &h.edges, s, t);
        t2.row([
            fmt_f(alpha),
            fmt_u(h.size() as u64),
            fmt_u(hops),
            fmt_f(dist),
        ]);
    }
    t2.print();
    report.push_table("alpha_sweep", &t2);
    report.finish();
    println!("\nexpect: hops drop sharply in early iterations; distortion stays bounded.");
}
