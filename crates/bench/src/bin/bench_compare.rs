//! `bench-compare` — the perf-diff gate: fail when a fresh benchsuite
//! run regresses against a committed baseline beyond the noise band.
//!
//! Usage:
//! ```text
//! bench-compare BASELINE.json FRESH.json
//!               [--noise F]       # noise band, default 0.25
//!               [--severe F]      # per-cell hard limit, default 0.60
//!               [--systemic F]    # per-table violation rate, default 0.20
//!               [--materiality F] # time-cell absolute floor (s), default 0.025
//! ```
//!
//! Both files are [`psh_bench::Report`] envelopes (e.g. `BENCH_8.json`
//! from `benchsuite`). For every table present in **both** documents,
//! rows are joined on their key cells (every column that isn't a
//! recognized metric) and each metric is compared:
//!
//! * columns named `qps`/`*speedup*` are **higher-is-better** — a drop
//!   below `baseline × (1 − noise)` is beyond the band — except
//!   `offered qps`, the open-loop input rate, which is a key;
//! * columns ending in `(s)` or `(ms)` are **lower-is-better** — a rise
//!   above `baseline × (1 + noise)` is beyond the band;
//! * the observed columns — `peak bytes`, `batches`, `largest`,
//!   `coalesced`, `hits` and `behind` — record what a run saw, and the
//!   output columns — `work`, `depth`, `hopset`, every `… bytes` size
//!   (`snapshot bytes`, `v2 bytes`), `max stretch` and `mean stretch` —
//!   what it produced, not what it was asked to run. They move between
//!   runs of one binary or when a change shrinks an artifact by design;
//!   each has a direction (`OBSERVED`; byte counts are lower-is-better)
//!   and is compared as a metric. A byte column a newer run no longer
//!   writes (`v1 bytes` in older baselines) is still a metric, so its
//!   rows join and it prints as an absent column;
//! * every other column is part of the join key.
//!
//! ## What actually fails the gate
//!
//! A single benchmark run has heavy-tailed noise: on a busy machine the
//! p999 of a one-query batch swings 10× between back-to-back runs of the
//! *same binary*, and a ratio of two sub-millisecond timings is noise
//! squared. Gating "any cell beyond ±25%" would make the gate red on
//! every run. So cells are split into two classes:
//!
//! * **informational** — tail percentiles (`p99`, `p999`), ratio
//!   columns (`*speedup*`), and the observed columns. Reported when
//!   beyond the band, never fatal.
//! * **gated** — everything else (`qps`, `p50`, absolute timings).
//!   Beyond the band they count as violations; the gate fails when a
//!   violation is **severe** (a single cell worse than the `--severe`
//!   limit — a broken code path, not jitter) or **systemic** (more than
//!   `--systemic` of a table's gated cells regress, and at least 3 — a
//!   real slowdown shifts a whole table, noise flips isolated cells).
//!
//! Tables or rows present on only one side are reported but not fatal
//! (the matrix is allowed to grow): the table-set difference is printed
//! up front as explicit `added`/`removed` lists, so a table that
//! silently fell out of the fresh run is visible rather than
//! indistinguishable from a passing one. A metric column a baseline row
//! has and its fresh row lacks (dropped or renamed) gets a line of its
//! own and a count in the summary, on the same non-fatal terms. A `meta`
//! workload mismatch (`n`, `queries`, `seed`, or `schema_version`
//! differing) **is** fatal, since numbers from different workloads
//! cannot be meaningfully compared.
//! Tiny absolute values (both sides < 1 ms / < 1 qps) are skipped — at
//! that scale the timer, not the code, dominates. Gated **time** cells
//! additionally pass through a materiality floor: a relative band on a
//! one-shot millisecond timing turns scheduler jitter into false alarms
//! (a swap pause wobbling 0.5 ms → 2 ms is "+300%" of nothing), so a
//! time cell only counts as a violation when its absolute delta exceeds
//! `--materiality` seconds (default 25 ms); below that it is reported
//! as a note. A genuinely broken path (10 ms → 500 ms) clears the floor.
//!
//! Exit status: 0 when the gate passes, 1 on severe/systemic regression
//! or workload mismatch, 2 on unusable input. An unknown flag, a third
//! path or a `--noise`/`--severe`/`--systemic`/`--materiality` value
//! that is not a fraction > 0 exits 1 naming it before any file is read,
//! as every binary of this crate refuses a flag.

use psh_bench::json::JsonValue;
use psh_bench::serving::{check_args_with_paths, parse_value};

const PROG: &str = "bench-compare";

fn die(msg: impl std::fmt::Display) -> ! {
    eprintln!("{PROG}: {msg}");
    std::process::exit(2);
}

/// Which way a column must move to count as an improvement.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Direction {
    HigherIsBetter,
    LowerIsBetter,
}

/// Columns that record what a run observed or produced rather than what
/// it was asked to run, with the direction a note reports against. They
/// differ between runs of one binary, or between two builds when one
/// shrinks an artifact on purpose, so as join keys they would leave rows
/// unjoined and their timings ungated; they are informational metrics
/// instead.
const OBSERVED: [(&str, Direction); 10] = [
    ("batches", Direction::LowerIsBetter),
    ("largest", Direction::HigherIsBetter),
    ("coalesced", Direction::HigherIsBetter),
    ("hits", Direction::HigherIsBetter),
    ("behind", Direction::LowerIsBetter),
    ("work", Direction::LowerIsBetter),
    ("depth", Direction::LowerIsBetter),
    ("hopset", Direction::LowerIsBetter),
    ("max stretch", Direction::LowerIsBetter),
    ("mean stretch", Direction::LowerIsBetter),
];

fn observed(column: &str) -> Option<Direction> {
    if column.ends_with(" bytes") {
        // peak, snapshot and per-format sizes: what a run measured
        return Some(Direction::LowerIsBetter);
    }
    OBSERVED
        .iter()
        .find(|(name, _)| *name == column)
        .map(|&(_, dir)| dir)
}

/// Classify a column header: a metric with a direction, or a join key.
fn direction(column: &str) -> Option<Direction> {
    let c = column.to_ascii_lowercase();
    if let Some(dir) = observed(&c) {
        Some(dir)
    } else if c == "offered qps" {
        None
    } else if c.contains("qps") || c.contains("speedup") {
        Some(Direction::HigherIsBetter)
    } else if c.ends_with("(s)") || c.ends_with("(ms)") {
        Some(Direction::LowerIsBetter)
    } else {
        None
    }
}

/// True when a metric participates in the pass/fail decision. Tail
/// percentiles, measurement ratios and observed columns are reported but
/// never gate: their single-run variance is larger than any band worth
/// alerting on.
fn gates(column: &str) -> bool {
    let c = column.to_ascii_lowercase();
    !(c.contains("p99") || c.contains("speedup") || observed(&c).is_some())
}

/// Parse a table cell as a number (the writer's `fmt_u` inserts
/// thousands separators; strip them).
fn cell_number(cell: &JsonValue) -> Option<f64> {
    let s = cell.as_str()?;
    s.replace(',', "").trim().parse::<f64>().ok()
}

/// A table row decomposed into its join key and its metric values.
struct Row<'a> {
    key: String,
    metrics: Vec<(&'a str, Direction, f64)>,
}

fn decompose(row: &JsonValue) -> Option<Row<'_>> {
    let JsonValue::Object(fields) = row else {
        return None;
    };
    let mut key = String::new();
    let mut metrics = Vec::new();
    for (column, cell) in fields {
        match (direction(column), cell_number(cell)) {
            (Some(dir), Some(v)) => metrics.push((column.as_str(), dir, v)),
            _ => {
                // a key cell: its column name disambiguates rows even if
                // two key columns hold the same text
                key.push_str(column);
                key.push('=');
                key.push_str(cell.as_str().unwrap_or("?"));
                key.push('|');
            }
        }
    }
    Some(Row { key, metrics })
}

/// Load one report document and return its (meta, tables) objects.
fn load(path: &str) -> (JsonValue, Vec<(String, JsonValue)>) {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| die(format_args!("cannot read {path}: {e}")));
    let doc = JsonValue::parse(&text)
        .unwrap_or_else(|e| die(format_args!("{path} is not valid JSON: {e}")));
    let meta = doc
        .get("meta")
        .cloned()
        .unwrap_or(JsonValue::Object(Vec::new()));
    let tables = match doc.get("tables") {
        Some(JsonValue::Object(tables)) => tables.clone(),
        _ => die(format_args!("{path} has no tables object")),
    };
    (meta, tables)
}

fn parse_fraction(flag: &str, default: f64) -> f64 {
    parse_value(PROG, flag, "a fraction > 0", |&v: &f64| v > 0.0).unwrap_or(default)
}

fn main() {
    let args = check_args_with_paths(
        PROG,
        2,
        &["--noise", "--severe", "--systemic", "--materiality"],
        &[],
    );
    let [baseline_path, fresh_path] = args.as_slice() else {
        die(
            "usage: bench-compare BASELINE.json FRESH.json [--noise F] [--severe F] [--systemic F] \
             [--materiality F]",
        );
    };
    let noise = parse_fraction("--noise", 0.25);
    let severe = parse_fraction("--severe", 0.60);
    let systemic = parse_fraction("--systemic", 0.20);
    let materiality = parse_fraction("--materiality", 0.025);
    if severe < noise {
        die(format_args!(
            "--severe ({severe}) must be at least --noise ({noise})"
        ));
    }

    let (base_meta, base_tables) = load(baseline_path);
    let (fresh_meta, fresh_tables) = load(fresh_path);

    // Workload compatibility: same n/queries/seed/schema, or the
    // comparison is meaningless. Keys absent on either side are skipped
    // so older baselines without newer meta keys stay comparable.
    let mut failures = 0usize;
    for knob in ["schema_version", "n", "queries", "seed", "quick"] {
        if let (Some(b), Some(f)) = (base_meta.get(knob), fresh_meta.get(knob)) {
            if b != f {
                eprintln!(
                    "workload mismatch: meta.{knob} is {} in {baseline_path} but {} in {fresh_path}",
                    b.to_json(),
                    f.to_json()
                );
                failures += 1;
            }
        }
    }

    // The table sets are allowed to disagree (the matrix grows over
    // time, and a quick run may drop tables), but the disagreement must
    // be explicit in the output — a silently ungated table looks
    // exactly like a gated-and-passing one.
    let added: Vec<&str> = fresh_tables
        .iter()
        .filter(|(n, _)| !base_tables.iter().any(|(b, _)| b == n))
        .map(|(n, _)| n.as_str())
        .collect();
    let removed: Vec<&str> = base_tables
        .iter()
        .filter(|(n, _)| !fresh_tables.iter().any(|(f, _)| f == n))
        .map(|(n, _)| n.as_str())
        .collect();
    if !added.is_empty() {
        println!(
            "~ {} table(s) only in {fresh_path} (added, not gated): {}",
            added.len(),
            added.join(", ")
        );
    }
    if !removed.is_empty() {
        println!(
            "~ {} table(s) only in {baseline_path} (removed, not gated): {}",
            removed.len(),
            removed.join(", ")
        );
    }

    let mut compared = 0usize;
    let mut absent = 0usize;
    let mut skipped_tiny = 0usize;
    let mut notes = 0usize;
    let mut soft = 0usize;
    for (name, base_rows) in &base_tables {
        let Some(fresh_rows) = fresh_tables
            .iter()
            .find(|(n, _)| n == name)
            .and_then(|(_, v)| v.as_array())
        else {
            continue;
        };
        let Some(base_rows) = base_rows.as_array() else {
            continue;
        };
        let fresh_by_key: Vec<Row<'_>> = fresh_rows.iter().filter_map(decompose).collect();
        let mut gated_cells = 0usize;
        let mut violations = 0usize;
        for base_row in base_rows.iter().filter_map(decompose) {
            let Some(fresh_row) = fresh_by_key.iter().find(|r| r.key == base_row.key) else {
                println!(
                    "~ {name}: row [{}] absent from {fresh_path}: skipped",
                    base_row.key
                );
                continue;
            };
            for &(column, dir, base) in &base_row.metrics {
                let Some(&(_, _, fresh)) = fresh_row
                    .metrics
                    .iter()
                    .find(|(c, d, _)| *c == column && *d == dir)
                else {
                    absent += 1;
                    println!(
                        "~ {name} [{}] {column}: absent from {fresh_path}: not gated",
                        base_row.key
                    );
                    continue;
                };
                // below the timer floor both numbers are noise
                let floor = if column.ends_with("(s)") { 0.001 } else { 1.0 };
                if base.abs() < floor && fresh.abs() < floor {
                    skipped_tiny += 1;
                    continue;
                }
                compared += 1;
                let beyond = |band: f64| match dir {
                    Direction::HigherIsBetter => fresh < base * (1.0 - band),
                    Direction::LowerIsBetter => fresh > base * (1.0 + band),
                };
                if !gates(column) {
                    if beyond(noise) {
                        notes += 1;
                        println!(
                            "~ note {name} [{}] {column}: {base:.4} -> {fresh:.4} ({:+.1}%; informational, not gated)",
                            base_row.key,
                            (fresh / base - 1.0) * 100.0,
                        );
                    }
                    continue;
                }
                gated_cells += 1;
                // Materiality floor for time cells: a relative band on a
                // one-shot millisecond timing amplifies scheduler jitter
                // into false alarms (a swap pause wobbling 0.5ms -> 2ms is
                // +300% of nothing). A time cell only regresses when the
                // absolute delta is large enough to matter; a genuinely
                // broken path (10ms -> 500ms) clears any sane floor.
                let seconds = if column.ends_with("(ms)") {
                    Some((fresh - base) / 1000.0)
                } else if column.ends_with("(s)") {
                    Some(fresh - base)
                } else {
                    None
                };
                if let Some(delta) = seconds {
                    if delta.abs() < materiality {
                        if beyond(noise) {
                            notes += 1;
                            println!(
                                "~ note {name} [{}] {column}: {base:.4} -> {fresh:.4} ({:+.1}%; below the {:.0}ms materiality floor, not gated)",
                                base_row.key,
                                (fresh / base - 1.0) * 100.0,
                                materiality * 1000.0,
                            );
                        }
                        continue;
                    }
                }
                if beyond(severe) {
                    failures += 1;
                    eprintln!(
                        "SEVERE {name} [{}] {column}: {base:.4} -> {fresh:.4} ({:+.1}%, hard limit ±{:.0}%)",
                        base_row.key,
                        (fresh / base - 1.0) * 100.0,
                        severe * 100.0,
                    );
                } else if beyond(noise) {
                    violations += 1;
                    eprintln!(
                        "REGRESSION {name} [{}] {column}: {base:.4} -> {fresh:.4} ({:+.1}%, noise band ±{:.0}%)",
                        base_row.key,
                        (fresh / base - 1.0) * 100.0,
                        noise * 100.0,
                    );
                }
            }
        }
        // a real slowdown shifts a whole table; isolated flips are noise
        if violations >= 3 && (violations as f64) > systemic * gated_cells as f64 {
            failures += 1;
            eprintln!(
                "SYSTEMIC {name}: {violations}/{gated_cells} gated cell(s) beyond the ±{:.0}% band (limit {:.0}%)",
                noise * 100.0,
                systemic * 100.0,
            );
        } else {
            soft += violations;
        }
    }

    println!(
        "compared {compared} metric cell(s) across {} shared table(s) (noise ±{:.0}%, severe ±{:.0}%, systemic {:.0}%; {} added, {} removed; {absent} absent column(s), {skipped_tiny} below the timer floor, {notes} informational note(s), {soft} isolated outlier(s))",
        base_tables.len() - removed.len(),
        noise * 100.0,
        severe * 100.0,
        systemic * 100.0,
        added.len(),
        removed.len(),
    );
    if failures > 0 {
        eprintln!("FAIL: {failures} severe/systemic regression(s) or mismatch(es)");
        std::process::exit(1);
    }
    println!("OK: no severe or systemic regression");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(json: &str) -> JsonValue {
        JsonValue::parse(json).unwrap()
    }

    #[test]
    fn decompose_keys_rows_on_what_a_run_was_asked_to_run() {
        // two runs of one binary: same scenario, different observations
        let a = row(
            r#"{"family":"gnp","weights":"weighted","build (s)":"0.41","work":"1,234","peak bytes":"288,188"}"#,
        );
        let b = row(
            r#"{"family":"gnp","weights":"weighted","build (s)":"0.39","work":"1,234","peak bytes":"297,228"}"#,
        );
        let (a, b) = (decompose(&a).unwrap(), decompose(&b).unwrap());
        assert_eq!(a.key, b.key);
        assert_eq!(a.key, "family=gnp|weights=weighted|");
        assert_eq!(
            a.metrics,
            [
                ("build (s)", Direction::LowerIsBetter, 0.41),
                ("work", Direction::LowerIsBetter, 1234.0),
                ("peak bytes", Direction::LowerIsBetter, 288188.0),
            ]
        );

        // a change that shrinks the artifact on purpose: the rows still
        // join, so their build time is still compared
        let before = row(
            r#"{"family":"rmat","weights":"weighted","n":"800","build (s)":"0.012","work":"901,122","depth":"310","hopset":"2,048","snapshot bytes":"935,440"}"#,
        );
        let after = row(
            r#"{"family":"rmat","weights":"weighted","n":"800","build (s)":"0.007","work":"450,561","depth":"310","hopset":"1,024","snapshot bytes":"586,256"}"#,
        );
        let (before, after) = (decompose(&before).unwrap(), decompose(&after).unwrap());
        assert_eq!(before.key, after.key);
        assert_eq!(before.key, "family=rmat|weights=weighted|n=800|");
        for row in [&before, &after] {
            let gated: Vec<&str> = row
                .metrics
                .iter()
                .map(|&(c, _, _)| c)
                .filter(|c| gates(c))
                .collect();
            assert_eq!(gated, ["build (s)"]);
        }
        let sizes = ["peak bytes", "snapshot bytes", "v2 bytes", "v1 bytes"];
        for column in OBSERVED.iter().map(|&(c, _)| c).chain(sizes) {
            assert!(direction(column).is_some(), "{column}");
            assert!(!gates(column), "{column}");
        }
        assert!(gates("build (s)") && gates("qps") && gates("p50 (ms)"));

        let serve = row(
            r#"{"policy":"seq","clients":"8","qps":"900.5","batches":"70","largest":"8","identical":"yes"}"#,
        );
        let serve = decompose(&serve).unwrap();
        assert_eq!(serve.key, "policy=seq|clients=8|identical=yes|");
        assert_eq!(
            serve.metrics,
            [
                ("qps", Direction::HigherIsBetter, 900.5),
                ("batches", Direction::LowerIsBetter, 70.0),
                ("largest", Direction::HigherIsBetter, 8.0),
            ]
        );

        // the open-loop input rate is a key, the achieved rate a metric
        let r = row(
            r#"{"offered qps":"4,000.00","arrivals":"400","behind":"3","achieved qps":"3,950.10"}"#,
        );
        let r = decompose(&r).unwrap();
        assert_eq!(r.key, "offered qps=4,000.00|arrivals=400|");
        assert_eq!(
            r.metrics,
            [
                ("behind", Direction::LowerIsBetter, 3.0),
                ("achieved qps", Direction::HigherIsBetter, 3950.1),
            ]
        );
        assert!(!gates("behind"));
        assert!(gates("achieved qps"));
    }
}
