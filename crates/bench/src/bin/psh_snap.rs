//! `psh-snap` — snapshot maintenance: inspect, migrate, and mutate
//! oracle files.
//!
//! Usage:
//! ```text
//! psh-snap inspect PATH            # version, kind, scalars, section map
//! psh-snap migrate SRC DST         # re-encode any oracle snapshot as v2
//! psh-snap journal PATH            # inspect PATH.journal (records, ops)
//! psh-snap journal PATH --apply F  # append one record of edge updates
//! psh-snap compact PATH            # fold PATH.journal into the base
//! ```
//!
//! `journal --apply` reads edge updates from file `F` (one op per line:
//! `add U V W` or `del U V`; blank lines and `#` comments ignored),
//! validates them against the base snapshot's vertex count, and appends
//! them as one atomic journal record to `PATH.journal`. A server watching
//! that journal (`psh-server --watch-journal`) picks the record up on its
//! next poll — or immediately via `psh-client --reload` — and hot-swaps.
//! `compact` folds the journal into the base snapshot (same format
//! version, atomic overwrite) and removes the journal.
//!
//! `inspect` prints a v1 file's header summary, or a v2 file's full
//! section directory (tag, name, offset, length — every offset 64-byte
//! aligned by construction) and then deep-verifies the content (the
//! exact fill-sweep replays the serving fast path skips), so tampering
//! that `Verify::Bounds` would serve is caught here. `migrate` upgrades a v1 file to the
//! zero-copy v2 layout (or normalizes an existing v2 file); the logical
//! content is preserved exactly — re-saving the migrated oracle as v1
//! reproduces the original bytes, and `psh-serve`/`psh-server` answer
//! byte-identically from either version.
//!
//! Exits non-zero with a one-line error on unusable input; never panics
//! on malformed files.

use psh_core::snapshot::{
    append_journal, compact_oracle, inspect_v2, journal_path, load_journal, load_oracle,
    migrate_oracle_file, snapshot_version, verify_oracle_v2, OracleSections,
};
use psh_graph::{DeltaOp, GraphDelta, LoadMode};

const PROG: &str = "psh-snap";

fn die(msg: impl std::fmt::Display) -> ! {
    eprintln!("{PROG}: {msg}");
    std::process::exit(1);
}

fn usage() -> ! {
    eprintln!(
        "usage: {PROG} inspect PATH | {PROG} migrate SRC DST | \
         {PROG} journal PATH [--apply OPSFILE] | {PROG} compact PATH"
    );
    std::process::exit(2);
}

fn human(len: u64) -> String {
    if len >= 1 << 20 {
        format!("{:.1} MiB", len as f64 / (1 << 20) as f64)
    } else if len >= 1 << 10 {
        format!("{:.1} KiB", len as f64 / (1 << 10) as f64)
    } else {
        format!("{len} B")
    }
}

fn inspect(path: &str) {
    let version =
        snapshot_version(path).unwrap_or_else(|e| die(format_args!("cannot read {path}: {e}")));
    match version {
        1 => {
            // v1 is a stream: summarize it by decoding (which also
            // verifies it end to end)
            let (oracle, meta) =
                load_oracle(path).unwrap_or_else(|e| die(format_args!("cannot load {path}: {e}")));
            println!("{path}: v1 oracle snapshot (stream-decoded)");
            println!(
                "  n={} m={} | hopset size {} | hop budget {} | seed {}",
                oracle.graph().n(),
                oracle.graph().m(),
                oracle.hopset_size(),
                oracle
                    .hop_budget()
                    .map_or("per-band".to_string(), |h| h.to_string()),
                meta.seed
            );
            println!("  build cost: {}", meta.build_cost);
            println!("  (run `{PROG} migrate` to upgrade to the zero-copy v2 layout)");
        }
        2 => {
            let bytes = std::fs::read(path)
                .unwrap_or_else(|e| die(format_args!("cannot read {path}: {e}")));
            let OracleSections {
                kind,
                n,
                m,
                mode,
                bands,
                sections,
            } = inspect_v2(&bytes).unwrap_or_else(|e| die(format_args!("bad v2 file {path}: {e}")));
            println!(
                "{path}: v2 oracle snapshot (kind {kind}, {}, mmap-able)",
                human(bytes.len() as u64)
            );
            println!(
                "  n={n} m={m} | mode {} | {bands} band(s)",
                if mode == 0 { "unweighted" } else { "weighted" }
            );
            println!(
                "  {:>6}  {:<26} {:>12} {:>12}",
                "tag", "section", "offset", "bytes"
            );
            for (tag, name, offset, len) in &sections {
                println!("  {tag:>6}  {name:<26} {offset:>12} {len:>12}");
            }
            // the full content replay serving skips — inspect is where
            // an operator wants tampering caught
            match verify_oracle_v2(path, LoadMode::Read) {
                Ok(_) => println!("  deep verification: ok (content replays byte-identically)"),
                Err(e) => die(format_args!("{path} fails deep verification: {e}")),
            }
        }
        v => die(format_args!("{path}: unsupported snapshot version {v}")),
    }
}

/// The base snapshot's vertex count — the bound journal ops are
/// validated against before anything is appended.
fn base_n(path: &str) -> usize {
    let version =
        snapshot_version(path).unwrap_or_else(|e| die(format_args!("cannot read {path}: {e}")));
    match version {
        1 => {
            let (oracle, _) =
                load_oracle(path).unwrap_or_else(|e| die(format_args!("cannot load {path}: {e}")));
            oracle.graph().n()
        }
        2 => {
            let bytes = std::fs::read(path)
                .unwrap_or_else(|e| die(format_args!("cannot read {path}: {e}")));
            let sections =
                inspect_v2(&bytes).unwrap_or_else(|e| die(format_args!("bad v2 file {path}: {e}")));
            sections.n as usize
        }
        v => die(format_args!("{path}: unsupported snapshot version {v}")),
    }
}

/// Parse an ops file (`add U V W` / `del U V` lines) into one validated
/// delta against a graph with `n` vertices.
fn parse_ops_file(path: &str, n: usize) -> GraphDelta {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| die(format_args!("cannot read ops file {path}: {e}")));
    let mut delta = GraphDelta::new(n);
    for (idx, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let lineno = idx + 1;
        let bad = |what: &str| -> ! {
            die(format_args!(
                "{path}:{lineno}: {what} (want `add U V W` or `del U V`): {raw}"
            ))
        };
        let fields: Vec<&str> = line.split_whitespace().collect();
        let num = |s: &str| s.parse::<u64>().unwrap_or_else(|_| bad("bad number"));
        let result = match fields.as_slice() {
            ["add", u, v, w] => delta.insert(num(u) as u32, num(v) as u32, num(w)),
            ["del", u, v] => delta.delete(num(u) as u32, num(v) as u32),
            _ => bad("unrecognized op"),
        };
        result.unwrap_or_else(|e| die(format_args!("{path}:{lineno}: invalid op: {e}")));
    }
    if delta.is_empty() {
        die(format_args!("{path}: no ops to apply"));
    }
    delta
}

fn journal_cmd(base: &str, apply: Option<&str>) {
    let jpath = journal_path(base);
    if let Some(ops_file) = apply {
        let delta = parse_ops_file(ops_file, base_n(base));
        append_journal(&jpath, &delta)
            .unwrap_or_else(|e| die(format_args!("cannot append to {}: {e}", jpath.display())));
        println!(
            "appended 1 record ({} ops) to {}",
            delta.len(),
            jpath.display()
        );
        return;
    }
    let (n, deltas) = load_journal(&jpath)
        .unwrap_or_else(|e| die(format_args!("cannot read {}: {e}", jpath.display())));
    let (mut adds, mut dels) = (0usize, 0usize);
    for delta in &deltas {
        for op in delta.ops() {
            match op {
                DeltaOp::Insert { .. } => adds += 1,
                DeltaOp::Delete { .. } => dels += 1,
            }
        }
    }
    println!(
        "{}: journal for a graph with n={n} | {} record(s) | {} op(s) ({adds} insert, {dels} delete)",
        jpath.display(),
        deltas.len(),
        adds + dels
    );
    for (i, delta) in deltas.iter().enumerate() {
        println!("  record {i}: {} op(s)", delta.len());
    }
}

fn compact(path: &str) {
    let report =
        compact_oracle(path).unwrap_or_else(|e| die(format_args!("cannot compact {path}: {e}")));
    println!(
        "folded {} record(s) ({} ops) into {path} (v{}) | m {} -> {} | journal removed",
        report.records, report.ops, report.version, report.m_before, report.m_after
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("inspect") => match args.get(1) {
            Some(path) if args.len() == 2 => inspect(path),
            _ => usage(),
        },
        Some("journal") => match args.get(1) {
            Some(path) if args.len() == 2 => journal_cmd(path, None),
            Some(path) if args.len() == 4 && args[2] == "--apply" => {
                journal_cmd(path, Some(&args[3]))
            }
            _ => usage(),
        },
        Some("compact") => match args.get(1) {
            Some(path) if args.len() == 2 => compact(path),
            _ => usage(),
        },
        Some("migrate") => match (args.get(1), args.get(2)) {
            (Some(src), Some(dst)) if args.len() == 3 => {
                let (from, meta) = migrate_oracle_file(src, dst)
                    .unwrap_or_else(|e| die(format_args!("cannot migrate {src}: {e}")));
                let src_len = std::fs::metadata(src).map(|m| m.len()).unwrap_or(0);
                let dst_len = std::fs::metadata(dst).map(|m| m.len()).unwrap_or(0);
                println!(
                    "{src} (v{from}, {}) -> {dst} (v2, {}) | seed {} | build cost {}",
                    human(src_len),
                    human(dst_len),
                    meta.seed,
                    meta.build_cost
                );
            }
            _ => usage(),
        },
        _ => usage(),
    }
}
