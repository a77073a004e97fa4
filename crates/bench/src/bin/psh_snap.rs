//! `psh-snap` — snapshot maintenance: inspect and mutate oracle files.
//!
//! Usage:
//! ```text
//! psh-snap inspect PATH            # kind, scalars, section map, deep check
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
//! `compact` folds the journal into the base snapshot (atomic overwrite)
//! and removes the journal.
//!
//! `inspect` prints the file's full section directory (tag, name, offset,
//! length — every offset 64-byte aligned by construction) and then
//! deep-verifies the content (the exact fill-sweep replays the serving
//! fast path skips), so tampering that `Verify::Bounds` would serve is
//! caught here.
//!
//! Exits 1 with a one-line error on unusable input — a file of the
//! retired version-1 format included ("snapshot version 1 unsupported";
//! rebuild it from its seed) — and never panics on malformed files.

use psh_core::snapshot::v2::META_EXACT;
use psh_core::snapshot::{
    append_journal, compact_oracle, inspect_v2, journal_path, load_journal, verify_oracle_v2,
    OracleSections,
};
use psh_graph::{DeltaOp, GraphDelta, LoadMode, VertexId};

const PROG: &str = "psh-snap";

fn die(msg: impl std::fmt::Display) -> ! {
    eprintln!("{PROG}: {msg}");
    std::process::exit(1);
}

fn usage() -> ! {
    eprintln!(
        "usage: {PROG} inspect PATH | {PROG} journal PATH [--apply OPSFILE] | \
         {PROG} compact PATH"
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

/// The section directory and meta scalars of the snapshot at `path`.
fn sections(path: &str) -> (OracleSections, u64) {
    let bytes =
        std::fs::read(path).unwrap_or_else(|e| die(format_args!("cannot read {path}: {e}")));
    let sections =
        inspect_v2(&bytes).unwrap_or_else(|e| die(format_args!("cannot load {path}: {e}")));
    (sections, bytes.len() as u64)
}

fn inspect(path: &str) {
    let (
        OracleSections {
            kind,
            n,
            m,
            mode,
            sections,
        },
        len,
    ) = sections(path);
    println!(
        "{path}: v2 oracle snapshot (kind {kind}, {}, mmap-able)",
        human(len)
    );
    let layout = match mode {
        META_EXACT => "graph only",
        0 => "unweighted hopset, retired",
        _ => "weighted bands, retired",
    };
    println!("  n={n} m={m} | layout {mode} ({layout})");
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
        let id = |s: &str| {
            s.parse::<VertexId>()
                .unwrap_or_else(|_| bad("bad vertex id"))
        };
        let result = match fields.as_slice() {
            ["add", u, v, w] => delta.insert(id(u), id(v), num(w)),
            ["del", u, v] => delta.delete(id(u), id(v)),
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
        let delta = parse_ops_file(ops_file, sections(base).0.n as usize);
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
        "folded {} record(s) ({} ops) into {path} | m {} -> {} | journal removed",
        report.records, report.ops, report.m_before, report.m_after
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
        _ => usage(),
    }
}
