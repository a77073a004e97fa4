//! E8 — **Lemma 3.2 / Theorem 3.3**: spanner size scaling.
//!
//! Sweeping n at fixed k, the paper predicts size `Θ(n^{1+1/k})`
//! (unweighted) — a log-log slope of `1 + 1/k` — and an extra `log k`
//! factor (weighted). We fit the slope and print the per-n constants, for
//! both our construction and Baswana–Sen (whose constant should be ≈ k
//! times larger).
//!
//! Usage: `cargo run --release -p psh-bench --bin spanner_size_scaling [--json PATH]`

use psh_baselines::baswana_sen::baswana_sen_spanner;
use psh_bench::stats::loglog_slope;
use psh_bench::table::{fmt_f, fmt_u, Table};
use psh_bench::workloads::Family;
use psh_bench::Report;
use psh_core::api::{Seed, SpannerBuilder};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let seed = 20150625u64;
    let sizes = [500usize, 1_000, 2_000, 4_000, 8_000];
    let mut report = Report::from_json_flag("spanner_size_scaling");
    report.meta("seed", seed);
    println!("# Lemma 3.2 — spanner size vs n^(1+1/k)\n");
    for k in [2usize, 4] {
        println!("## k = {k} (dense random graphs, m = 4n)\n");
        let mut t = Table::new([
            "n",
            "m",
            "ours size",
            "ours/n^(1+1/k)",
            "BS size",
            "BS/n^(1+1/k)",
        ]);
        let mut pts_ours = Vec::new();
        let mut pts_bs = Vec::new();
        for &n in &sizes {
            let mut rng = StdRng::seed_from_u64(seed);
            let g = psh_graph::generators::connected_random(n, 4 * n, &mut rng);
            let (ours, _) = SpannerBuilder::unweighted(k as f64)
                .seed(Seed(seed))
                .build(&g)
                .unwrap()
                .into_parts();
            let (bs, _) = baswana_sen_spanner(&g, k, &mut StdRng::seed_from_u64(seed));
            pts_ours.push((n as f64, ours.size() as f64));
            pts_bs.push((n as f64, bs.size() as f64));
            t.row([
                fmt_u(n as u64),
                fmt_u(g.m() as u64),
                fmt_u(ours.size() as u64),
                fmt_f(ours.size_ratio(k as f64)),
                fmt_u(bs.size() as u64),
                fmt_f(bs.size_ratio(k as f64)),
            ]);
        }
        t.print();
        report.push_table(&format!("unweighted_k{k}"), &t);
        println!(
            "\nlog-log slope: ours {} | baswana-sen {} | predicted ≤ {}\n",
            fmt_f(loglog_slope(&pts_ours)),
            fmt_f(loglog_slope(&pts_bs)),
            fmt_f(1.0 + 1.0 / k as f64),
        );
    }

    println!("# Theorem 3.3 — weighted size carries only a log k factor\n");
    let k = 3usize;
    let mut t = Table::new(["n", "U", "weighted size", "size/(n^(1+1/k)·log2 k)"]);
    for &n in &sizes[..4] {
        let g = Family::Random.instantiate_weighted(n, 4096.0, seed);
        let (s, _) = SpannerBuilder::weighted(k as f64)
            .seed(Seed(seed))
            .build(&g)
            .unwrap()
            .into_parts();
        let denom = (n as f64).powf(1.0 + 1.0 / k as f64) * (k as f64).log2().max(1.0);
        t.row([
            fmt_u(n as u64),
            "2^12".into(),
            fmt_u(s.size() as u64),
            fmt_f(s.size() as f64 / denom),
        ]);
    }
    t.print();
    report.push_table("weighted_logk", &t);
    report.finish();
    println!("\nexpect: constant final column (no U-dependence in size).");
}
