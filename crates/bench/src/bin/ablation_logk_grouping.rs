//! E11 — ablation: Theorem 3.3's `O(log k)` well-separated grouping vs
//! the naive per-bucket construction.
//!
//! Bucketing by powers of two and spanner-ing each bucket independently
//! (no contraction, no grouping) costs a `log U` size factor; the paper's
//! grouping + hierarchical contraction brings it down to `log k`. We
//! measure both on the same graphs while sweeping `U`.
//!
//! Usage: `cargo run --release -p psh-bench --bin ablation_logk_grouping [--json PATH]`

use psh_bench::table::{fmt_f, fmt_u, Table};
use psh_bench::Report;
use psh_core::api::{Seed, SpannerBuilder};
use psh_core::spanner::buckets::bucket_edges;
use psh_core::spanner::verify::max_stretch_exact;
use psh_core::spanner::well_separated::well_separated_spanner;
use psh_core::spanner::Spanner;
use psh_graph::CsrGraph;
use psh_pram::Cost;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The naive baseline: one independent unweighted spanner per bucket —
/// i.e. Algorithm 3 with a single level per call and no shared
/// contraction. Size pays the full O(log U) factor.
fn naive_per_bucket(g: &CsrGraph, k: f64, seed: u64) -> (Spanner, Cost) {
    let mut edges = Vec::new();
    let mut cost = Cost::ZERO;
    for (i, (_, eids)) in bucket_edges(g).into_iter().enumerate() {
        let mut rng = StdRng::seed_from_u64(seed + i as u64);
        let (sel, c) = well_separated_spanner(g, &[eids], k, &mut rng);
        edges.extend(sel);
        cost = cost.par(c);
    }
    (Spanner::new(g.n(), edges), cost)
}

fn main() {
    let seed = 20150625u64;
    let n = 2_000usize;
    let k = 4.0f64;
    let mut report = Report::from_json_flag("ablation_logk_grouping");
    report.meta("n", n).meta("seed", seed).meta("k", k);
    println!("# Ablation — log k grouping vs naive per-bucket spanners (k = {k})\n");
    println!("(dense random instances, m = 13n, so the size bound binds)\n");
    let mut t = Table::new([
        "U",
        "grouped size",
        "naive size",
        "naive/grouped",
        "grouped stretch",
        "naive stretch",
    ]);
    for log_u in [4u32, 8, 12, 16] {
        let u = (1u64 << log_u) as f64;
        let base =
            psh_graph::generators::connected_random(n, 12 * n, &mut StdRng::seed_from_u64(seed));
        let g = psh_graph::generators::with_log_uniform_weights(
            &base,
            u,
            &mut StdRng::seed_from_u64(seed + 1),
        );
        let (ours, _) = SpannerBuilder::weighted(k)
            .seed(Seed(seed))
            .build(&g)
            .unwrap()
            .into_parts();
        let (naive, _) = naive_per_bucket(&g, k, seed);
        t.row([
            format!("2^{log_u}"),
            fmt_u(ours.size() as u64),
            fmt_u(naive.size() as u64),
            fmt_f(naive.size() as f64 / ours.size() as f64),
            fmt_f(max_stretch_exact(&g, &ours)),
            fmt_f(max_stretch_exact(&g, &naive)),
        ]);
    }
    t.print();
    report.push_table("grouping_vs_naive", &t);
    report.finish();
    println!("\nexpect: the naive/grouped ratio grows with log U while stretch stays comparable.");
}
