//! E10 — **Lemma 4.3**: hopset size accounting.
//!
//! At most `n` star edges (each vertex is in a large cluster at most
//! once) and at most `(n/n_final)·ρ²` clique edges. We sweep n and report
//! both counts against their bounds.
//!
//! Usage: `cargo run --release -p psh-bench --bin hopset_size [--json PATH]`

use psh_bench::table::{fmt_f, fmt_u, Table};
use psh_bench::workloads::Family;
use psh_bench::Report;
use psh_core::api::{HopsetBuilder, Seed};
use psh_core::hopset::HopsetParams;

fn main() {
    let seed = 20150625u64;
    let params = HopsetParams {
        epsilon: 0.5,
        delta: 1.5,
        gamma1: 0.25,
        gamma2: 0.75,
        k_conf: 1.0,
    };
    let mut report = Report::from_json_flag("hopset_size");
    report
        .meta("seed", seed)
        .meta("epsilon", params.epsilon)
        .meta("delta", params.delta)
        .meta("gamma1", params.gamma1)
        .meta("gamma2", params.gamma2);
    println!("# Lemma 4.3 — hopset size bounds\n");
    println!(
        "params: ε={} δ={} γ1={} γ2={}\n",
        params.epsilon, params.delta, params.gamma1, params.gamma2
    );
    let mut t = Table::new([
        "family",
        "n",
        "star edges",
        "bound n",
        "clique edges",
        "bound (n/n_f)·ρ²",
        "total",
        "levels",
    ]);
    for family in [Family::Random, Family::Grid, Family::PathGraph] {
        for n in [1_000usize, 2_000, 4_000, 8_000] {
            let g = family.instantiate(n, seed);
            let h = HopsetBuilder::unweighted()
                .params(params)
                .seed(Seed(seed))
                .build(&g)
                .unwrap()
                .artifact
                .into_single();
            let clique_bound =
                (g.n() as f64 / params.n_final(g.n()) as f64) * params.rho(g.n()).powi(2);
            t.row([
                family.name().to_string(),
                fmt_u(g.n() as u64),
                fmt_u(h.star_count as u64),
                fmt_u(g.n() as u64),
                fmt_u(h.clique_count as u64),
                fmt_f(clique_bound),
                fmt_u(h.size() as u64),
                h.levels.to_string(),
            ]);
        }
    }
    t.print();
    report.push_table("size_bounds", &t);
    report.finish();
    println!("\nexpect: stars ≤ n and cliques far below the worst-case bound.");
}
