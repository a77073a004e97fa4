//! E1/E2 — regenerate **Figure 1**: spanner quality comparison.
//!
//! For each algorithm the paper tabulates, we measure on the same
//! workloads: spanner size (and its ratio to `n^{1+1/k}`), exact maximum
//! stretch, work, and depth (cost model). The paper's asymptotic rows are
//! printed alongside for comparison. Expected shape (who wins):
//!
//! * size: greedy < ours < Baswana–Sen, with the ours/BS gap growing ≈ k;
//! * stretch: greedy ≤ 2k−1 exactly, BS ≤ 2k−1, ours O(k) with a larger
//!   constant;
//! * work: ours and BS linear-ish; greedy quadratic (only run small).
//!
//! Usage: `cargo run --release -p psh-bench --bin table1_spanners [--json PATH]`

use psh_baselines::baswana_sen::baswana_sen_spanner;
use psh_baselines::greedy_spanner::greedy_spanner;
use psh_bench::table::{fmt_f, fmt_u, Table};
use psh_bench::workloads::Family;
use psh_bench::Report;
use psh_core::api::{Seed, SpannerBuilder};
use psh_core::spanner::verify::max_stretch_exact;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let n = 2_000usize;
    let seed: u64 = 20150625; // the paper's revision date, for luck
    let mut report = Report::from_json_flag("table1_spanners");
    report.meta("n", n).meta("seed", seed);
    println!("# Figure 1 reproduction — spanner constructions\n");
    println!("workloads: random/power-law/grid at n≈{n}; greedy runs at n=300 (quadratic)\n");

    println!("## Unweighted block\n");
    println!("paper rows: [BKMP10] 2k−1 stretch, O(k n^{{1+1/k}}) size, O(km) work");
    println!("            new     O(k) stretch,  O(n^{{1+1/k}}) size,  O(m) work\n");
    for k in [2usize, 3, 4, 6, 8] {
        let mut t = Table::new([
            "k",
            "family",
            "algorithm",
            "size",
            "size/n^(1+1/k)",
            "max stretch",
            "work",
            "depth",
        ]);
        for family in [Family::Random, Family::PowerLaw, Family::Grid] {
            let g = family.instantiate(n, seed);
            let small = family.instantiate(300, seed);

            let (ours, c1) = SpannerBuilder::unweighted(k as f64)
                .seed(Seed(seed))
                .build(&g)
                .unwrap()
                .into_parts();
            t.row([
                k.to_string(),
                family.name().into(),
                "estc (new)".into(),
                fmt_u(ours.size() as u64),
                fmt_f(ours.size_ratio(k as f64)),
                fmt_f(max_stretch_exact(&g, &ours)),
                fmt_u(c1.work),
                fmt_u(c1.depth),
            ]);

            let (bs, c2) = baswana_sen_spanner(&g, k, &mut StdRng::seed_from_u64(seed));
            t.row([
                k.to_string(),
                family.name().into(),
                "baswana-sen".into(),
                fmt_u(bs.size() as u64),
                fmt_f(bs.size_ratio(k as f64)),
                fmt_f(max_stretch_exact(&g, &bs)),
                fmt_u(c2.work),
                fmt_u(c2.depth),
            ]);

            let (gr, c3) = greedy_spanner(&small, (2 * k - 1) as f64);
            t.row([
                k.to_string(),
                format!("{} (n=300)", family.name()),
                "greedy [ADD+93]".into(),
                fmt_u(gr.size() as u64),
                fmt_f(gr.size_ratio(k as f64)),
                fmt_f(max_stretch_exact(&small, &gr)),
                fmt_u(c3.work),
                "seq".into(),
            ]);
        }
        t.print();
        report.push_table(&format!("unweighted_k{k}"), &t);
        println!();
    }

    println!("## Weighted block\n");
    println!(
        "paper rows: [BS07] 2k−1 stretch, O(k n^{{1+1/k}}) size, O(km) work, O(k log* n) depth"
    );
    println!("            new    O(k) stretch,  O(n^{{1+1/k}} log k),  O(m) work, O(k log* n log U) depth\n");
    println!("(dense random instances, m = 13n, so the size bound n^{{1+1/k}} binds)\n");
    let k = 4usize;
    let mut t = Table::new([
        "U",
        "family",
        "algorithm",
        "size",
        "size/n^(1+1/k)",
        "max stretch",
        "work",
        "depth",
    ]);
    for u in [16.0f64, 256.0, 4096.0, 65536.0] {
        {
            let family = "random-dense";
            let base = psh_graph::generators::connected_random(
                n,
                12 * n,
                &mut StdRng::seed_from_u64(seed),
            );
            let g = psh_graph::generators::with_log_uniform_weights(
                &base,
                u,
                &mut StdRng::seed_from_u64(seed + 1),
            );
            let (ours, c1) = SpannerBuilder::weighted(k as f64)
                .seed(Seed(seed))
                .build(&g)
                .unwrap()
                .into_parts();
            t.row([
                format!("2^{}", (u.log2()) as u32),
                family.into(),
                "estc (new)".into(),
                fmt_u(ours.size() as u64),
                fmt_f(ours.size_ratio(k as f64)),
                fmt_f(max_stretch_exact(&g, &ours)),
                fmt_u(c1.work),
                fmt_u(c1.depth),
            ]);
            let (bs, c2) = baswana_sen_spanner(&g, k, &mut StdRng::seed_from_u64(seed));
            t.row([
                format!("2^{}", (u.log2()) as u32),
                family.into(),
                "baswana-sen".into(),
                fmt_u(bs.size() as u64),
                fmt_f(bs.size_ratio(k as f64)),
                fmt_f(max_stretch_exact(&g, &bs)),
                fmt_u(c2.work),
                fmt_u(c2.depth),
            ]);
        }
    }
    t.print();
    report.push_table("weighted_k4", &t);
    report.finish();
    println!("\ndone.");
}
