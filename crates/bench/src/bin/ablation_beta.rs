//! E16 — ablation: Algorithm 2's β choice.
//!
//! The paper sets `β = ln n / 2k`. Larger β cuts more edges (bigger
//! spanner via more inter-cluster picks is *not* immediate — more clusters
//! also means smaller balls), smaller β inflates cluster diameters (worse
//! stretch). We sweep multipliers around the prescribed value and print
//! size and stretch.
//!
//! Usage: `cargo run --release -p psh-bench --bin ablation_beta [--json PATH]`

use psh_bench::table::{fmt_f, fmt_u, Table};
use psh_bench::workloads::Family;
use psh_bench::Report;
use psh_cluster::{ClusterBuilder, Seed};
use psh_core::spanner::unweighted::{beta_for, spanner_from_clustering};
use psh_core::spanner::verify::max_stretch_exact;

fn main() {
    let seed = 20150625u64;
    let n = 2_000usize;
    let k = 3.0;
    let mut report = Report::from_json_flag("ablation_beta");
    report.meta("n", n).meta("seed", seed).meta("k", k);
    println!("# Ablation — β around the prescribed ln n/2k (k = {k})\n");
    let g = Family::Random.instantiate(n, seed);
    let beta_star = beta_for(g.n(), k);
    let mut t = Table::new([
        "β multiplier",
        "β",
        "#clusters",
        "max radius",
        "spanner size",
        "max stretch",
    ]);
    for mult in [0.25f64, 0.5, 1.0, 2.0, 4.0] {
        let beta = beta_star * mult;
        let (c, _) = ClusterBuilder::new(beta)
            .seed(Seed(seed))
            .build(&g)
            .unwrap()
            .into_parts();
        let (s, _) = spanner_from_clustering(&g, &c);
        t.row([
            fmt_f(mult),
            fmt_f(beta),
            fmt_u(c.num_clusters as u64),
            fmt_u(c.max_radius()),
            fmt_u(s.size() as u64),
            fmt_f(max_stretch_exact(&g, &s)),
        ]);
    }
    t.print();
    report.push_table("beta_sweep", &t);
    report.finish();
    println!("\nexpect: stretch degrades as β shrinks (bigger clusters), size grows as β grows.");
}
