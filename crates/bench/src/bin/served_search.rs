//! E13 — **which search serves queries**: the hopset query path the
//! oracle served until it moved to an exact search, against the exact
//! searches, on families from n = 512 to n = 90,000.
//!
//! For each family it builds the hopsets at the default parameters
//! (`HopsetBuilder::weighted(0.5)` on weighted graphs, `unweighted()` on
//! unit ones) and once more with `β₀ = 1/D`, where `D` is the eccentricity
//! one Dijkstra sweep finds in the giant component. It prints each band's
//! star, clique and level counts, its hop budget `h` and the build time.
//! It then times, per query (best of 5 passes over 256 random pairs in
//! the giant component, 32 at n ≥ 10⁵):
//!
//! * `hopset`: the path the oracle served — §5's band loop
//!   (`WeightedHopsets::query`, which stops at the first exact band, as
//!   the oracle did) or, on unit graphs, the h-hop sweep over Algorithm 4's
//!   hopset at Corollary 4.5's budget for `d = n`;
//! * `β₀=1/D`: the same over the hopsets built with `β₀ = 1/D`;
//! * `sweep`: `hop_limited_pair` with no hopset and `h = n`;
//! * `dijkstra`: the one-sided `dijkstra_pair` referee;
//! * `served`: `bidirectional_pair`, the search the oracle now serves.
//!
//! The three exact searches must agree on every pair (the binary panics
//! otherwise); the two hopset columns print their largest stretch. It
//! runs for minutes, so CI compiles it but never runs it.
//!
//! Usage: `cargo run --release -p psh-bench --bin served_search [--json PATH]`

use psh_bench::table::{fmt_f, fmt_u, Table};
use psh_bench::Report;
use psh_core::api::{HopsetArtifact, HopsetBuilder, Seed};
use psh_core::hopset::{HopsetParams, WeightedHopsets};
use psh_graph::connectivity::components_union_find;
use psh_graph::traversal::bellman_ford::{hop_limited_pair, ExtraEdges};
use psh_graph::traversal::dijkstra::{bidirectional_pair, dijkstra, dijkstra_pair};
use psh_graph::{generators, CsrGraph, VertexId, Weight, INF};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::time::Instant;

const SEED: u64 = 20150625;

/// The hopsets one build produced, queried as the oracle queried them.
enum Hopsets {
    /// Algorithm 4's hopset: `(star, clique, levels)`, its adjacency and
    /// Corollary 4.5's budget for `d = n`.
    Unit {
        counts: (usize, usize, usize),
        extra: ExtraEdges,
        h: usize,
    },
    /// §5's full band family.
    Banded(WeightedHopsets),
}

impl Hopsets {
    /// Build at the defaults, or with `β₀` overridden; returns the
    /// hopsets and the build's seconds.
    fn build(g: &CsrGraph, beta0: Option<f64>) -> (Hopsets, f64) {
        let mut builder = if g.is_unit_weight() {
            HopsetBuilder::unweighted()
        } else {
            HopsetBuilder::weighted(0.5)
        };
        if let Some(beta0) = beta0 {
            builder = builder.beta0_override(beta0);
        }
        let start = Instant::now();
        let run = builder.seed(Seed(SEED)).build(g).expect("hopset build");
        let secs = start.elapsed().as_secs_f64();
        let hopsets = match run.artifact {
            HopsetArtifact::Single(hopset) => {
                let (n, params) = (g.n(), HopsetParams::default());
                let beta0 = beta0.unwrap_or_else(|| params.beta0(n));
                Hopsets::Unit {
                    counts: (hopset.star_count, hopset.clique_count, hopset.levels),
                    extra: hopset.to_extra_edges(),
                    h: params.hop_bound(n, beta0, n as u64),
                }
            }
            HopsetArtifact::Banded(family) => Hopsets::Banded(family),
        };
        (hopsets, secs)
    }

    /// `(ŵ, star, clique, levels, h)` per band; a unit graph's hopset is
    /// one band at `ŵ = 1`.
    fn bands(&self) -> Vec<(f64, usize, usize, usize, usize)> {
        match self {
            Hopsets::Unit {
                counts: (star, clique, levels),
                h,
                ..
            } => vec![(1.0, *star, *clique, *levels, *h)],
            Hopsets::Banded(family) => family
                .bands
                .iter()
                .map(|b| {
                    let hs = &b.hopset;
                    let counts = (hs.star_count, hs.clique_count, hs.levels);
                    (b.rounding.what, counts.0, counts.1, counts.2, b.h)
                })
                .collect(),
        }
    }

    fn query(&self, g: &CsrGraph, s: VertexId, t: VertexId) -> f64 {
        match self {
            Hopsets::Unit { extra, h, .. } => {
                distance(hop_limited_pair(g, Some(extra), s, t, *h).0.dist)
            }
            Hopsets::Banded(family) => family.query(s, t).0,
        }
    }
}

fn distance(d: Weight) -> f64 {
    if d == INF {
        f64::INFINITY
    } else {
        d as f64
    }
}

/// Milliseconds per query of the fastest of five passes over `pairs`,
/// and the last pass's answers.
fn best_of_5(
    pairs: &[(VertexId, VertexId)],
    f: impl Fn(VertexId, VertexId) -> f64,
) -> (f64, Vec<f64>) {
    let mut best = f64::INFINITY;
    let mut answers = Vec::new();
    for _ in 0..5 {
        let start = Instant::now();
        answers = pairs.iter().map(|&(s, t)| black_box(f(s, t))).collect();
        best = best.min(start.elapsed().as_secs_f64());
    }
    (best * 1e3 / pairs.len() as f64, answers)
}

/// Random pairs of distinct vertices of `g`'s largest component, and that
/// component's eccentricity from its first vertex.
fn giant_pairs(g: &CsrGraph, count: usize) -> (Vec<(VertexId, VertexId)>, Weight) {
    let (components, _) = components_union_find(g);
    let mut sizes = vec![0usize; components.count];
    for &c in &components.labels {
        sizes[c as usize] += 1;
    }
    let giant = (0..sizes.len())
        .max_by_key(|&c| sizes[c])
        .expect("a vertex") as u32;
    let members: Vec<VertexId> = (0..g.n() as VertexId)
        .filter(|&v| components.labels[v as usize] == giant)
        .collect();
    let ecc = dijkstra(g, members[0])
        .dist
        .into_iter()
        .filter(|&d| d != INF)
        .max()
        .unwrap_or(1);
    let mut rng = StdRng::seed_from_u64(SEED ^ g.n() as u64);
    let mut pick = || members[rng.random_range(0..members.len())];
    let pairs = (0..count)
        .map(|_| loop {
            let (s, t) = (pick(), pick());
            if s != t {
                break (s, t);
            }
        })
        .collect();
    (pairs, ecc.max(1))
}

fn stretch(answers: &[f64], exact: &[f64]) -> f64 {
    answers
        .iter()
        .zip(exact)
        .map(|(a, e)| a / e)
        .fold(1.0, f64::max)
}

fn main() {
    let mut report = Report::from_json_flag("served_search");
    report.meta("seed", SEED);
    let mut rng = StdRng::seed_from_u64(SEED);
    let mut weigh = |g: &CsrGraph| generators::with_log_uniform_weights(g, 64.0, &mut rng);
    let mut draws = StdRng::seed_from_u64(SEED + 1);
    let families: Vec<(&str, CsrGraph)> = vec![
        ("king grid 50², w 64", weigh(&generators::grid2d(50, 50))),
        ("king grid 300², w 64", weigh(&generators::grid2d(300, 300))),
        (
            "R-MAT 2⁹, w 64",
            weigh(&generators::rmat(512, 16 * 512, &mut draws)),
        ),
        (
            "R-MAT 2¹⁶, w 64",
            weigh(&generators::rmat(1 << 16, 16 << 16, &mut draws)),
        ),
        ("unit grid 300²", generators::grid(300, 300)),
        ("path 20,000", generators::path(20_000)),
        (
            "geometric 50,000",
            generators::random_geometric(50_000, 0.009, &mut draws),
        ),
    ];

    let mut bands_table = Table::new([
        "family",
        "n",
        "m",
        "β₀",
        "build (s)",
        "band",
        "ŵ",
        "stars",
        "cliques",
        "levels",
        "h",
    ]);
    let mut query_table = Table::new([
        "family",
        "n",
        "pairs",
        "hopset (ms)",
        "hopset stretch",
        "β₀=1/D (ms)",
        "β₀=1/D stretch",
        "sweep (ms)",
        "dijkstra (ms)",
        "served (ms)",
        "hopset / served",
    ]);
    for (name, g) in &families {
        let n = g.n();
        let (pairs, ecc) = giant_pairs(g, if n >= 100_000 { 32 } else { 256 });
        println!("{name}: n = {n}, m = {}, D = {ecc}", g.m());
        let built = [None, Some(1.0 / ecc as f64)].map(|beta0| {
            let (hopsets, secs) = Hopsets::build(g, beta0);
            let label = beta0.map_or("default".to_string(), |_| format!("1/{ecc}"));
            for (i, (what, star, clique, levels, h)) in hopsets.bands().into_iter().enumerate() {
                bands_table.row([
                    name.to_string(),
                    fmt_u(n as u64),
                    fmt_u(g.m() as u64),
                    label.clone(),
                    fmt_f(secs),
                    fmt_u(i as u64),
                    fmt_f(what),
                    fmt_u(star as u64),
                    fmt_u(clique as u64),
                    fmt_u(levels as u64),
                    fmt_u(h as u64),
                ]);
            }
            hopsets
        });
        let (hopset_ms, hopset) = best_of_5(&pairs, |s, t| built[0].query(g, s, t));
        let (sized_ms, sized) = best_of_5(&pairs, |s, t| built[1].query(g, s, t));
        let (sweep_ms, sweep) = best_of_5(&pairs, |s, t| {
            distance(hop_limited_pair(g, None, s, t, n).0.dist)
        });
        let (dijkstra_ms, exact) = best_of_5(&pairs, |s, t| distance(dijkstra_pair(g, s, t)));
        let (served_ms, served) = best_of_5(&pairs, |s, t| distance(bidirectional_pair(g, s, t).0));
        assert_eq!(sweep, exact, "{name}: the sweep without a hopset disagrees");
        assert_eq!(served, exact, "{name}: the served search disagrees");
        query_table.row([
            name.to_string(),
            fmt_u(n as u64),
            fmt_u(pairs.len() as u64),
            fmt_f(hopset_ms),
            fmt_f(stretch(&hopset, &exact)),
            fmt_f(sized_ms),
            fmt_f(stretch(&sized, &exact)),
            fmt_f(sweep_ms),
            fmt_f(dijkstra_ms),
            fmt_f(served_ms),
            fmt_f(hopset_ms / served_ms),
        ]);
    }
    println!("\n# Hopsets per band\n");
    bands_table.print();
    println!("\n# Time per query\n");
    query_table.print();
    report.push_table("bands", &bands_table);
    report.push_table("per_query", &query_table);
    report.finish();
    println!(
        "\nthe hopset stays on the served path only if some family's hopset column beats served."
    );
}
