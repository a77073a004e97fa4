//! Delta journals: append-only edge-mutation logs layered on oracle
//! snapshots, and `compact` to fold a journal back into its base.
//!
//! A snapshot is immutable once renamed into place — that is what makes
//! the mmap path and the atomic-overwrite story sound. Mutating the
//! served graph therefore never edits the base file; mutations accumulate
//! in a **sidecar journal** (`<base>.journal`) of validated
//! [`GraphDelta`] batches, and the serving tier folds base + journal into
//! a fresh oracle at reload time. `compact` makes the fold durable: it
//! rebuilds the oracle for the mutated graph, installs it over the base
//! via the same unique-temp + fsync + atomic-rename path every save uses,
//! and removes the journal.
//!
//! ## On-disk layout
//!
//! Little-endian throughout, one more magic in the family (`b"PSHS"`
//! snapshots, `b"PSHN"` wire frames):
//!
//! ```text
//!  0        4        6        8                16
//!  ┌────────┬────────┬────────┬────────────────┐
//!  │ "PSHJ" │ ver=1  │ rsvd=0 │    n (u64)     │   file header
//!  └────────┴────────┴────────┴────────────────┘
//!  followed by zero or more records, one per appended delta:
//!  ┌───────────────┬──────────────────────────────┬──────────────┐
//!  │ op count u64  │ ops: tag u8, u u32, v u32    │ fnv1a64 u64  │
//!  │               │   tag 1 = insert (+ w u64)   │ over count   │
//!  │               │   tag 2 = delete             │ and op bytes │
//!  └───────────────┴──────────────────────────────┴──────────────┘
//! ```
//!
//! The per-record checksum exists because journals are *appended to*, not
//! atomically replaced: a crash mid-append leaves a torn tail, and the
//! checksum turns that tail into a typed [`SnapshotError`] instead of a
//! silently-shorter delta. Decoding re-runs the full [`GraphDelta`]
//! structural validation, so a journal in hand is as trustworthy as a
//! freshly built delta. Appends assume a single writer (the process that
//! owns the snapshot); readers tolerate concurrent appends because they
//! stop at the last complete record boundary they can prove.
//!
//! Malformed input — truncation, bad magic, checksum mismatch, invalid
//! ops — is always a typed [`SnapshotError`], never a panic (proptest
//! campaigns below).

use std::io::{BufReader, BufWriter, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use psh_graph::{CsrGraph, DeltaOp, GraphDelta, LoadMode};

use super::{corrupt, load_oracle_v2, save_oracle_v2, OracleMeta, SnapshotError};
use crate::api::OracleBuilder;
use crate::oracle::{ApproxShortestPaths, OracleGraph};

/// Journal file magic.
pub const JOURNAL_MAGIC: [u8; 4] = *b"PSHJ";
/// Journal format version.
pub const JOURNAL_VERSION: u16 = 1;

const TAG_INSERT: u8 = 1;
const TAG_DELETE: u8 = 2;

/// The journal sidecar path for a base snapshot: `<base>.journal`.
pub fn journal_path(base: impl AsRef<Path>) -> PathBuf {
    let mut p = base.as_ref().as_os_str().to_owned();
    p.push(".journal");
    PathBuf::from(p)
}

/// FNV-1a 64 — the record checksum. Not cryptographic; it only needs to
/// catch torn appends and bit rot, and it keeps the journal dependency-free.
pub(crate) struct Fnv(pub(crate) u64);

impl Fnv {
    pub(crate) fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub(crate) fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

fn encode_record(delta: &GraphDelta) -> Vec<u8> {
    let mut body = Vec::with_capacity(8 + delta.len() * 17);
    body.extend_from_slice(&(delta.len() as u64).to_le_bytes());
    for op in delta.ops() {
        match *op {
            DeltaOp::Insert { u, v, w } => {
                body.push(TAG_INSERT);
                body.extend_from_slice(&u.to_le_bytes());
                body.extend_from_slice(&v.to_le_bytes());
                body.extend_from_slice(&w.to_le_bytes());
            }
            DeltaOp::Delete { u, v } => {
                body.push(TAG_DELETE);
                body.extend_from_slice(&u.to_le_bytes());
                body.extend_from_slice(&v.to_le_bytes());
            }
        }
    }
    let mut fnv = Fnv::new();
    fnv.update(&body);
    body.extend_from_slice(&fnv.0.to_le_bytes());
    body
}

/// Append one delta as a new journal record, creating the journal (with
/// its header) on first use. The file is fsynced before returning, so an
/// acknowledged append survives a crash. Errors if an existing journal
/// targets a different vertex count than `delta`.
pub fn append_journal(path: impl AsRef<Path>, delta: &GraphDelta) -> Result<(), SnapshotError> {
    let path = path.as_ref();
    let existing_n = match load_journal(path) {
        Ok((n, _)) => Some(n),
        Err(SnapshotError::Io(e)) if e.kind() == std::io::ErrorKind::NotFound => None,
        Err(e) => return Err(e),
    };
    if let Some(n) = existing_n {
        if n != delta.n() {
            return Err(corrupt(
                "journal vertex count",
                format!("journal targets n = {n}, delta targets n = {}", delta.n()),
            ));
        }
    }
    let file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    let mut w = BufWriter::new(file);
    if existing_n.is_none() {
        w.write_all(&JOURNAL_MAGIC)?;
        w.write_all(&JOURNAL_VERSION.to_le_bytes())?;
        w.write_all(&0u16.to_le_bytes())?;
        w.write_all(&(delta.n() as u64).to_le_bytes())?;
    }
    w.write_all(&encode_record(delta))?;
    w.flush()?;
    w.get_ref().sync_all()?;
    Ok(())
}

fn read_exact_or(
    r: &mut impl Read,
    buf: &mut [u8],
    what: &'static str,
) -> Result<(), SnapshotError> {
    r.read_exact(buf).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            SnapshotError::Truncated { what }
        } else {
            SnapshotError::Io(e)
        }
    })
}

/// Decode a journal stream: the target vertex count plus the recorded
/// deltas in append order (they must be applied sequentially — a later
/// delta may touch a pair an earlier one created).
pub fn read_journal(mut inp: impl Read) -> Result<(usize, Vec<GraphDelta>), SnapshotError> {
    let mut head = [0u8; 16];
    read_exact_or(&mut inp, &mut head, "journal header")?;
    if head[0..4] != JOURNAL_MAGIC {
        return Err(SnapshotError::BadMagic {
            found: head[0..4].try_into().unwrap(),
        });
    }
    let version = u16::from_le_bytes([head[4], head[5]]);
    if version != JOURNAL_VERSION {
        return Err(SnapshotError::UnsupportedVersion {
            found: version,
            supported: JOURNAL_VERSION,
        });
    }
    if head[6..8] != [0, 0] {
        return Err(corrupt(
            "journal header",
            "reserved bytes must be zero".to_string(),
        ));
    }
    let n = u64::from_le_bytes(head[8..16].try_into().unwrap());
    let n = usize::try_from(n)
        .ok()
        .filter(|&n| n as u64 <= u32::MAX as u64 + 1)
        .ok_or_else(|| {
            corrupt(
                "journal vertex count",
                format!("{n} exceeds the u32 vertex-id space"),
            )
        })?;

    let mut deltas = Vec::new();
    loop {
        // Record boundary: clean EOF here means the journal ends.
        let mut count_bytes = [0u8; 8];
        match inp.read(&mut count_bytes)? {
            0 => break,
            got => read_exact_or(&mut inp, &mut count_bytes[got..], "journal record")?,
        }
        let mut fnv = Fnv::new();
        fnv.update(&count_bytes);
        let count = u64::from_le_bytes(count_bytes);
        let mut ops = Vec::new();
        for _ in 0..count {
            let mut tag = [0u8; 1];
            read_exact_or(&mut inp, &mut tag, "journal op")?;
            fnv.update(&tag);
            let mut pair = [0u8; 8];
            read_exact_or(&mut inp, &mut pair, "journal op")?;
            fnv.update(&pair);
            let u = u32::from_le_bytes(pair[0..4].try_into().unwrap());
            let v = u32::from_le_bytes(pair[4..8].try_into().unwrap());
            match tag[0] {
                TAG_INSERT => {
                    let mut wb = [0u8; 8];
                    read_exact_or(&mut inp, &mut wb, "journal op")?;
                    fnv.update(&wb);
                    let w = u64::from_le_bytes(wb);
                    ops.push(DeltaOp::Insert { u, v, w });
                }
                TAG_DELETE => ops.push(DeltaOp::Delete { u, v }),
                other => {
                    return Err(corrupt(
                        "journal op tag",
                        format!("expected 1 (insert) or 2 (delete), got {other}"),
                    ))
                }
            }
        }
        let mut sum = [0u8; 8];
        read_exact_or(&mut inp, &mut sum, "journal checksum")?;
        if u64::from_le_bytes(sum) != fnv.0 {
            return Err(corrupt(
                "journal checksum",
                format!("record {} fails its checksum (torn append?)", deltas.len()),
            ));
        }
        let delta =
            GraphDelta::from_ops(n, ops).map_err(|e| corrupt("journal ops", e.to_string()))?;
        deltas.push(delta);
    }
    Ok((n, deltas))
}

/// [`read_journal`] from a file path (buffered).
pub fn load_journal(path: impl AsRef<Path>) -> Result<(usize, Vec<GraphDelta>), SnapshotError> {
    let file = std::fs::File::open(path)?;
    read_journal(BufReader::new(file))
}

/// Apply journal deltas to a base graph in order, surfacing any
/// base/journal mismatch as a typed error.
pub fn apply_deltas(base: &CsrGraph, deltas: &[GraphDelta]) -> Result<CsrGraph, SnapshotError> {
    let mut g = base.clone();
    for (i, d) in deltas.iter().enumerate() {
        g = g
            .apply_delta(d)
            .map_err(|e| corrupt("journal apply", format!("record {i}: {e}")))?;
    }
    Ok(g)
}

/// An owned copy of the graph an oracle serves — cloned from an owned
/// repr, materialized from a mapped one. This is the base the journal's
/// deltas apply to.
pub fn owned_base_graph(oracle: &ApproxShortestPaths) -> CsrGraph {
    match oracle.graph() {
        OracleGraph::Owned(g) => g.clone(),
        mapped => CsrGraph::from_edges(mapped.n(), mapped.edges().iter().copied()),
    }
}

/// Rebuild an oracle for a (mutated) graph from the provenance of its
/// predecessor: the builder validates and copies `g`, and the new meta
/// keeps the predecessor's parameters and seed, so the result is
/// byte-identical to a fresh `OracleBuilder` run on that graph. A graph
/// the builder refuses is a [`SnapshotError::Corrupt`] naming
/// `oracle rebuild`.
pub fn rebuild_oracle(
    g: &CsrGraph,
    meta: &OracleMeta,
) -> Result<(ApproxShortestPaths, OracleMeta), SnapshotError> {
    let run = oracle_builder(meta)
        .build(g)
        .map_err(|e| corrupt("oracle rebuild", e.to_string()))?;
    let meta = OracleMeta {
        params: meta.params,
        seed: run.seed,
        build_cost: run.cost,
    };
    Ok((run.artifact, meta))
}

fn oracle_builder(meta: &OracleMeta) -> OracleBuilder {
    OracleBuilder::new().seed(meta.seed)
}

/// What [`compact_oracle`] folded.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CompactReport {
    /// Journal records folded in.
    pub records: usize,
    /// Total ops across those records.
    pub ops: usize,
    /// Edge count before / after the fold.
    pub m_before: usize,
    /// Edge count after the fold.
    pub m_after: usize,
}

/// Fold `<path>.journal` into the base snapshot at `path`: load the base,
/// apply every journal delta, rebuild the oracle for the mutated graph,
/// save it over the base (unique-temp + fsync + atomic rename — a crash
/// leaves either the old complete base or the new one, never a torn
/// file), then remove the journal.
///
/// The journal is removed only after the new base is durably installed.
/// A crash between the rename and the removal leaves a stale journal
/// whose deltas no longer match the base; the next apply reports a typed
/// `journal apply` error rather than silently double-applying.
pub fn compact_oracle(path: impl AsRef<Path>) -> Result<CompactReport, SnapshotError> {
    let path = path.as_ref();
    let (oracle, meta) = load_oracle_v2(path, LoadMode::Read)?;
    let base = owned_base_graph(&oracle);
    let jpath = journal_path(path);
    let (jn, deltas) = load_journal(&jpath)?;
    if jn != base.n() {
        return Err(corrupt(
            "journal vertex count",
            format!(
                "journal targets n = {jn}, base snapshot has n = {}",
                base.n()
            ),
        ));
    }
    let m_before = base.m();
    let ops = deltas.iter().map(|d| d.len()).sum();
    let mutated = apply_deltas(&base, &deltas)?;
    let (rebuilt, new_meta) = rebuild_oracle(&mutated, &meta)?;
    save_oracle_v2(path, &rebuilt, &new_meta)?;
    std::fs::remove_file(&jpath)?;
    Ok(CompactReport {
        records: deltas.len(),
        ops,
        m_before,
        m_after: mutated.m(),
    })
}

/// What one successful reload did (also the body of the wire-level
/// `Reload` reply).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReloadReport {
    /// The epoch the service entered.
    pub epoch: u64,
    /// Journal records applied by this reload.
    pub records: usize,
    /// Total ops across those records.
    pub ops: usize,
    /// Vertex / edge counts of the graph now served.
    pub n: u64,
    /// Edge count of the graph now served.
    pub m: u64,
}

/// Drives journal-based hot swaps for one
/// [`OracleService`](crate::service::OracleService): tracks the
/// graph the service currently answers for and how much of the journal
/// has been folded in, and on [`poll`](JournalReloader::poll) applies any
/// new records, rebuilds the oracle (on the psh-exec pool, while the old
/// epoch keeps serving — the service lock is never held across the
/// rebuild), and swaps at a batch boundary.
///
/// One reloader per served snapshot; keep it on the thread that watches
/// the journal (`psh-server --watch-journal`) or handles `Reload`
/// requests. If the journal shrinks or disappears, a `compact` folded it
/// into the base — the reloader's graph already equals that fold, so it
/// resets its record cursor and keeps serving without a reload.
///
/// A record that does not apply to the served graph, or whose result
/// the builder refuses, is **refused**: the records before it are served,
/// it and every later record are not, and the reloader remembers the
/// refusal with the journal's length. Until that length changes, each
/// poll returns the remembered error without reading the journal.
pub struct JournalReloader {
    journal: PathBuf,
    served: Served,
    meta: OracleMeta,
    consumed: usize,
    refused: Option<Refusal>,
}

/// A refused record's error, and the journal length it was refused at.
struct Refusal {
    len: u64,
    what: &'static str,
    detail: String,
}

impl Refusal {
    fn error(&self) -> SnapshotError {
        corrupt(self.what, self.detail.clone())
    }
}

/// The graph the service answers for: the one handed to
/// [`JournalReloader::new`] until the first rebuild, then the graph
/// inside the oracle that rebuild swapped in, shared with the service
/// rather than copied.
enum Served {
    Given(CsrGraph),
    Rebuilt(Arc<ApproxShortestPaths>),
}

impl Served {
    fn graph(&self) -> &CsrGraph {
        match self {
            Served::Given(g) => g,
            Served::Rebuilt(oracle) => match oracle.graph() {
                OracleGraph::Owned(g) => g,
                OracleGraph::Mapped(_) => unreachable!("a rebuilt oracle is owned"),
            },
        }
    }
}

impl JournalReloader {
    /// Track `service`'s snapshot at `base_path` (the journal sidecar is
    /// derived via [`journal_path`]). `graph` and `meta` must describe
    /// the oracle the service currently serves — use
    /// [`owned_base_graph`] on it and the meta its snapshot loaded with.
    /// The reloader keeps `graph` only until its first rebuild; from then
    /// on it applies new records to the graph of the oracle it swapped
    /// in, so it and the service hold one copy between them.
    pub fn new(base_path: impl AsRef<Path>, graph: CsrGraph, meta: OracleMeta) -> JournalReloader {
        JournalReloader {
            journal: journal_path(base_path),
            served: Served::Given(graph),
            meta,
            consumed: 0,
            refused: None,
        }
    }

    /// The journal file being watched.
    pub fn journal(&self) -> &Path {
        &self.journal
    }

    /// Check the journal for records newer than the last fold; if any
    /// exist, rebuild and hot-swap. Returns `Ok(None)` when there is
    /// nothing new (including a missing journal), `Ok(Some(report))`
    /// after a completed swap. Errors are typed and leave the service
    /// serving its current epoch untouched. A refused record (see the
    /// type docs) returns its error once the records before it are
    /// served: with this call if there are none, else with the next.
    pub fn poll(
        &mut self,
        service: &crate::service::OracleService,
    ) -> Result<Option<ReloadReport>, SnapshotError> {
        let len = match std::fs::metadata(&self.journal) {
            Ok(m) => m.len(),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                // compacted away (or never written): the base now equals
                // our graph, so new journals start from record 0
                self.consumed = 0;
                self.refused = None;
                return Ok(None);
            }
            Err(e) => return Err(e.into()),
        };
        if let Some(refusal) = self.refused.as_ref().filter(|r| r.len == len) {
            return Err(refusal.error());
        }
        self.refused = None;
        let (jn, deltas) = load_journal(&self.journal)?;
        let graph = self.served.graph();
        if jn != graph.n() {
            return Err(corrupt(
                "journal vertex count",
                format!(
                    "journal targets n = {jn}, served graph has n = {}",
                    graph.n()
                ),
            ));
        }
        if deltas.len() < self.consumed {
            // compact + fresh appends raced between two polls: the new
            // journal's records target the compacted base, which is the
            // graph we already serve
            self.consumed = 0;
        }
        // Apply the new records one at a time, so the first refused one
        // leaves the records before it servable.
        let fresh = &deltas[self.consumed..];
        let mut mutated: Option<CsrGraph> = None;
        let mut applied = 0;
        for (i, delta) in fresh.iter().enumerate() {
            let record = self.consumed + i;
            let next = mutated
                .as_ref()
                .unwrap_or(graph)
                .apply_delta(delta)
                .map_err(|e| ("journal apply", format!("record {record}: {e}")))
                .and_then(|g| match oracle_builder(&self.meta).validate(&g) {
                    Ok(()) => Ok(g),
                    Err(e) => Err(("oracle rebuild", format!("record {record}: {e}"))),
                });
            match next {
                Ok(g) => {
                    mutated = Some(g);
                    applied += 1;
                }
                Err((what, detail)) => {
                    self.refused = Some(Refusal { len, what, detail });
                    break;
                }
            }
        }
        let Some(mutated) = mutated else {
            return match &self.refused {
                Some(refusal) => Err(refusal.error()),
                None => Ok(None),
            };
        };
        // The rebuild runs here while the service keeps answering from
        // the old epoch; only the swap itself takes the service lock.
        let (rebuilt, new_meta) = rebuild_oracle(&mutated, &self.meta)?;
        let rebuilt = Arc::new(rebuilt);
        let epoch = service.swap_oracle(Arc::clone(&rebuilt));
        let served = &fresh[..applied];
        let report = ReloadReport {
            epoch,
            records: applied,
            ops: served.iter().map(|d| d.len()).sum(),
            n: mutated.n() as u64,
            m: mutated.m() as u64,
        };
        self.served = Served::Rebuilt(rebuilt);
        self.meta = new_meta;
        self.consumed += applied;
        Ok(Some(report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{OracleBuilder, Seed};
    use crate::hopset::HopsetParams;
    use proptest::prelude::*;
    use psh_graph::generators;

    fn temp_path(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("psh_journal_{name}_{}", std::process::id()))
    }

    fn sample_delta(n: usize) -> GraphDelta {
        let mut d = GraphDelta::new(n);
        d.insert(0, (n - 1) as u32, 5).unwrap();
        d.delete(0, 1).unwrap();
        d
    }

    #[test]
    fn journal_appends_and_reads_back_in_order() {
        let path = temp_path("roundtrip");
        std::fs::remove_file(&path).ok();
        let mut d1 = GraphDelta::new(16);
        d1.insert(2, 9, 7).unwrap();
        let mut d2 = GraphDelta::new(16);
        d2.delete(2, 9).unwrap();
        d2.insert(3, 4, 1).unwrap();
        append_journal(&path, &d1).unwrap();
        append_journal(&path, &d2).unwrap();
        let (n, deltas) = load_journal(&path).unwrap();
        assert_eq!(n, 16);
        assert_eq!(deltas, vec![d1, d2]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn journal_rejects_vertex_count_mismatch_on_append() {
        let path = temp_path("nmismatch");
        std::fs::remove_file(&path).ok();
        append_journal(&path, &sample_delta(8)).unwrap();
        let err = append_journal(&path, &sample_delta(9)).unwrap_err();
        assert!(matches!(
            err,
            SnapshotError::Corrupt {
                what: "journal vertex count",
                ..
            }
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_journal_is_a_typed_io_error() {
        let err = load_journal(temp_path("never_written")).unwrap_err();
        assert!(matches!(err, SnapshotError::Io(_)));
    }

    #[test]
    fn torn_tail_and_bit_flips_are_typed_errors() {
        let path = temp_path("torn");
        std::fs::remove_file(&path).ok();
        append_journal(&path, &sample_delta(8)).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::remove_file(&path).ok();
        // every truncation is Truncated/clean, never a panic
        for cut in 0..bytes.len() {
            if let Ok((_, deltas)) = read_journal(&bytes[..cut]) {
                assert!(deltas.is_empty(), "cut {cut} produced records");
            }
        }
        // flipping any payload byte after the header fails the checksum
        // (or an earlier structural check) — never silently succeeds
        for i in 16..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0xFF;
            assert!(
                read_journal(bad.as_slice()).is_err(),
                "flip at {i} accepted"
            );
        }
    }

    #[test]
    fn apply_deltas_surfaces_mismatches() {
        let g = generators::path(4);
        let mut d = GraphDelta::new(4);
        d.delete(0, 3).unwrap(); // not an edge of the path
        let err = apply_deltas(&g, &[d]).unwrap_err();
        assert!(matches!(
            err,
            SnapshotError::Corrupt {
                what: "journal apply",
                ..
            }
        ));
    }

    #[test]
    fn compact_folds_journal_into_base_and_matches_fresh_build() {
        let g = generators::grid(8, 8);
        let run = OracleBuilder::new().seed(Seed(21)).build(&g).unwrap();
        let meta = OracleMeta::of_run(&run, HopsetParams::default());
        let path = temp_path("compact");
        std::fs::remove_file(&path).ok();
        save_oracle_v2(&path, &run.artifact, &meta).unwrap();
        let mut d = GraphDelta::new(64);
        d.insert(0, 63, 3).unwrap();
        d.delete(0, 1).unwrap();
        append_journal(journal_path(&path), &d).unwrap();

        let report = compact_oracle(&path).unwrap();
        assert_eq!(report.records, 1);
        assert_eq!(report.ops, 2);
        assert_eq!(report.m_after, report.m_before); // one insert, one delete
        assert!(!journal_path(&path).exists(), "journal must be removed");

        // the compacted base answers byte-identically to a fresh build
        // of the mutated graph
        let mutated = g.apply_delta(&d).unwrap();
        let fresh = OracleBuilder::new().seed(Seed(21)).build(&mutated).unwrap();
        let (served, served_meta) = load_oracle_v2(&path, LoadMode::Read).unwrap();
        assert_eq!(served_meta.seed, Seed(21));
        for (s, t) in [(0u32, 63u32), (0, 1), (5, 58), (7, 7)] {
            assert_eq!(served.query(s, t), fresh.artifact.query(s, t));
        }
        std::fs::remove_file(&path).ok();
    }

    /// A base in the retired version-1 format is refused by version before
    /// its journal is read, and both files are left as they were.
    #[test]
    fn compact_refuses_a_version_1_base() {
        let path = temp_path("compact_v1");
        let mut v1 = b"PSHS\x01\x00\x04\x00".to_vec();
        v1.resize(72, 0);
        std::fs::write(&path, &v1).unwrap();
        append_journal(journal_path(&path), &sample_delta(8)).unwrap();
        let journal = std::fs::read(journal_path(&path)).unwrap();
        assert!(matches!(
            compact_oracle(&path).unwrap_err(),
            SnapshotError::UnsupportedVersion { found: 1, .. }
        ));
        assert_eq!(std::fs::read(&path).unwrap(), v1);
        assert_eq!(std::fs::read(journal_path(&path)).unwrap(), journal);
        std::fs::remove_file(journal_path(&path)).ok();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn journal_reloader_swaps_only_on_new_records() {
        use crate::service::{OracleService, ServiceConfig};
        let g = generators::grid(8, 8);
        let run = OracleBuilder::new().seed(Seed(33)).build(&g).unwrap();
        let meta = OracleMeta::of_run(&run, HopsetParams::default());
        let base = temp_path("reloader_base");
        std::fs::remove_file(&base).ok();
        std::fs::remove_file(journal_path(&base)).ok();
        let service = OracleService::new(run.artifact, ServiceConfig::default());
        let mut reloader = JournalReloader::new(&base, g.clone(), meta);

        // no journal yet: nothing to do
        assert_eq!(reloader.poll(&service).unwrap(), None);
        assert_eq!(service.epoch(), 0);

        // first record → epoch 1
        let mut d = GraphDelta::new(64);
        d.insert(0, 63, 2).unwrap();
        append_journal(journal_path(&base), &d).unwrap();
        let report = reloader.poll(&service).unwrap().unwrap();
        assert_eq!((report.epoch, report.records, report.ops), (1, 1, 1));
        assert_eq!(report.m, g.m() as u64 + 1);
        // idempotent until a new record lands
        assert_eq!(reloader.poll(&service).unwrap(), None);
        assert_eq!(service.epoch(), 1);

        // the swapped-in oracle answers like a fresh build of the
        // mutated graph
        let mutated = g.apply_delta(&d).unwrap();
        let fresh = OracleBuilder::new().seed(Seed(33)).build(&mutated).unwrap();
        for (s, t) in [(0u32, 63u32), (5, 58)] {
            assert_eq!(service.query(s, t), fresh.artifact.query(s, t).0);
        }

        // second record → epoch 2, applied on top of the first
        let mut d2 = GraphDelta::new(64);
        d2.delete(0, 63).unwrap();
        append_journal(journal_path(&base), &d2).unwrap();
        let report = reloader.poll(&service).unwrap().unwrap();
        assert_eq!((report.epoch, report.records), (2, 1));
        assert_eq!(report.m, g.m() as u64);

        // journal removed (compacted): cursor resets, no spurious swap
        std::fs::remove_file(journal_path(&base)).ok();
        assert_eq!(reloader.poll(&service).unwrap(), None);
        assert_eq!(service.epoch(), 2);
        std::fs::remove_file(&base).ok();
    }

    /// A good record then a refused one (its insert puts distances above
    /// 2⁵³) serves the good one at epoch 1. The refusal is remembered with
    /// the journal's length: 100 polls of a same-length file, even one
    /// rewritten to garbage, return it without reading the file (a read
    /// would report bad magic). A longer journal is read again and the
    /// refused record, still there, keeps every later record unserved.
    #[test]
    fn a_refused_record_is_remembered_and_the_records_before_it_serve() {
        use crate::service::{OracleService, ServiceConfig};
        let g = generators::grid(8, 8);
        let run = OracleBuilder::new().seed(Seed(35)).build(&g).unwrap();
        let meta = OracleMeta::of_run(&run, HopsetParams::default());
        let base = temp_path("reloader_refused");
        let jpath = journal_path(&base);
        std::fs::remove_file(&jpath).ok();
        let service = OracleService::new(run.artifact, ServiceConfig::default());
        let mut reloader = JournalReloader::new(&base, g.clone(), meta);
        let record = |u, v, w| {
            let mut d = GraphDelta::new(64);
            d.insert(u, v, w).unwrap();
            d
        };
        let good = record(0, 63, 2);
        append_journal(&jpath, &good).unwrap();
        // 63·2⁴⁸ > 2⁵³: the builder refuses the graph this record makes
        append_journal(&jpath, &record(1, 62, 1 << 48)).unwrap();
        let report = reloader.poll(&service).unwrap().unwrap();
        assert_eq!((report.epoch, report.records, report.ops), (1, 1, 1));
        let mutated = g.apply_delta(&good).unwrap();
        assert_eq!(report.m, mutated.m() as u64);
        assert_eq!(service.query(0, 63).distance, 2.0);
        let refused = reloader.poll(&service).unwrap_err().to_string();
        assert!(refused.contains("record 1") && refused.contains("exceed 2^53"));
        assert!(refused.contains("oracle rebuild"), "{refused}");

        let journal = std::fs::read(&jpath).unwrap();
        std::fs::write(&jpath, vec![0xAB; journal.len()]).unwrap();
        for _ in 0..100 {
            assert_eq!(reloader.poll(&service).unwrap_err().to_string(), refused);
        }
        assert_eq!(service.epoch(), 1);

        std::fs::write(&jpath, journal).unwrap();
        append_journal(&jpath, &record(2, 61, 1)).unwrap();
        assert_eq!(reloader.poll(&service).unwrap_err().to_string(), refused);
        assert_eq!(service.epoch(), 1);
        let served = psh_graph::traversal::dijkstra::dijkstra_pair(&mutated, 2, 61);
        assert_eq!(
            service.query(2, 61).distance,
            served as f64,
            "no later record serves"
        );

        std::fs::remove_file(&jpath).unwrap();
        assert_eq!(reloader.poll(&service).unwrap(), None);
        std::fs::remove_file(&base).ok();
    }

    /// The atomic-save contract under failure: when a save or a compact
    /// cannot complete, the target's directory must hold no leaked `.tmp`
    /// sibling afterwards, and a failed compact must leave the base
    /// byte-identical to what it was.
    #[test]
    fn failing_saves_leave_no_tmp_siblings() {
        // a dedicated directory so leftover counting is exact
        let dir = std::env::temp_dir().join(format!("psh_tmpaudit_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let g = generators::grid(4, 4);
        let run = OracleBuilder::new().seed(Seed(3)).build(&g).unwrap();
        let meta = OracleMeta::of_run(&run, HopsetParams::default());

        // the rename target is a directory, so the save fails *after*
        // its temp file exists — cleanup must remove it
        let occupied = dir.join("occupied");
        std::fs::create_dir(&occupied).unwrap();
        assert!(save_oracle_v2(&occupied, &run.artifact, &meta).is_err());

        // a compact over a corrupt journal fails before touching the base
        let base = dir.join("base");
        save_oracle_v2(&base, &run.artifact, &meta).unwrap();
        let pristine = std::fs::read(&base).unwrap();
        std::fs::write(journal_path(&base), b"PSHJgarbage").unwrap();
        assert!(compact_oracle(&base).is_err());
        assert_eq!(
            std::fs::read(&base).unwrap(),
            pristine,
            "a failed compact must not touch the base"
        );

        let leaked: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .filter(|name| name.ends_with(".tmp"))
            .collect();
        assert!(leaked.is_empty(), "leaked temp files: {leaked:?}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn compact_without_journal_is_a_typed_error() {
        let g = generators::grid(4, 4);
        let run = OracleBuilder::new().seed(Seed(2)).build(&g).unwrap();
        let meta = OracleMeta::of_run(&run, HopsetParams::default());
        let path = temp_path("compact_nojournal");
        save_oracle_v2(&path, &run.artifact, &meta).unwrap();
        assert!(matches!(
            compact_oracle(&path).unwrap_err(),
            SnapshotError::Io(_)
        ));
        std::fs::remove_file(&path).ok();
    }

    proptest! {
        /// Arbitrary bytes never panic the journal reader.
        #[test]
        fn prop_arbitrary_bytes_never_panic(raw in proptest::collection::vec(0u16..256, 0..200)) {
            let bytes: Vec<u8> = raw.iter().map(|&b| b as u8).collect();
            let _ = read_journal(bytes.as_slice());
        }

        /// Arbitrary corruption of a real journal is a typed error or a
        /// (valid) reinterpretation — never a panic, and never an out-of-
        /// range delta.
        #[test]
        fn prop_corrupted_real_journal_never_panics(
            flips in proptest::collection::vec((0usize..4096, 0u16..256), 1..8),
        ) {
            let path = temp_path("prop_corrupt");
            std::fs::remove_file(&path).ok();
            let mut d = GraphDelta::new(32);
            d.insert(1, 2, 3).unwrap();
            d.delete(4, 5).unwrap();
            append_journal(&path, &d).unwrap();
            append_journal(&path, &sample_delta(32)).unwrap();
            let mut bytes = std::fs::read(&path).unwrap();
            std::fs::remove_file(&path).ok();
            for &(at, val) in &flips {
                let idx = at % bytes.len();
                bytes[idx] = val as u8;
            }
            if let Ok((n, deltas)) = read_journal(bytes.as_slice()) {
                // survived the checksum: everything decoded must still be
                // structurally valid
                for delta in &deltas {
                    prop_assert_eq!(delta.n(), n);
                    for op in delta.ops() {
                        let (u, v) = op.pair();
                        prop_assert!(u < v && (v as usize) < n);
                    }
                }
            }
        }
    }
}
