//! `SNAPSHOT_VERSION = 2` oracle snapshots — the one on-disk format.
//!
//! A v2 snapshot is a *region*: all query-time state is stored as
//! page-aligned little-endian slabs indexed by a section directory
//! (framework in [`psh_graph::source`]), so loading is one `mmap` (or one
//! bulk read into an aligned buffer) plus validation, and queries run
//! straight off the mapped bytes through [`psh_graph::MmapView`].
//!
//! ## Oracle section map
//!
//! A file this build writes holds six sections: `SEC_META` (tag 1) and
//! the graph sections `SEC_GRAPH_OFFSETS` … `SEC_GRAPH_EDGES` (tags 2–6).
//! The oracle is its graph, so there is nothing else to store.
//!
//! `SEC_META` is a fixed-offset block of 8-byte little-endian scalars:
//!
//! | offset | field |
//! |--------|-------|
//! | 0–39   | hopset parameters `ε, δ, γ₁, γ₂, k_conf` (f64 bits), recorded for [`OracleMeta`]; nothing rebuilds from them |
//! | 40     | seed |
//! | 48, 56 | build cost: work, depth |
//! | 64     | layout tag: [`META_EXACT`] (2) |
//! | 72, 80 | `n`, `m` |
//!
//! That is the whole 88-byte block: a new file stores nothing past this
//! common prefix. Builds that served a hopset wrote layout tag 0
//! (unweighted, 128 bytes: five more scalars) or 1 (weighted, 112 bytes:
//! three more), and the hopset and band sections: tags 7–11 and the band
//! space `0x100 + 16·b + s`. Those tags are **retired**. Both read levels
//! accept the two older META lengths, read only the common prefix, and
//! never look at a retired section, so an older file opens, answers with
//! the distances it always did (every answer it served at the default
//! parameters was exact), and re-saves to the bytes a fresh build writes.
//! `psh-snap inspect` lists retired sections as such. A retired tag is
//! never reused: a reused tag would misread older files.
//!
//! A build that still serves hopsets refuses a new file: it requires a
//! META of at least 112 bytes, so it reports [`SnapshotError::Corrupt`]
//! naming `oracle meta` before reading anything else, and never serves it.
//!
//! ## Trust model
//!
//! A v2 file is untrusted input, validated at one of two
//! [`psh_graph::Verify`] levels.
//!
//! The serving open path ([`load_oracle_v2`]) runs at
//! [`Verify::Bounds`]: scalar rules, slab shape agreement, monotone
//! covering offsets, and index max-scans. That is enough to guarantee no
//! query can panic or read out of bounds, and it touches only the index
//! slabs — the weight and edge-record slabs stay cold, which is what
//! makes an `mmap` open lazy and fast.
//!
//! [`Verify::Deep`] ([`verify_oracle_v2`]; used by `psh-snap` and the
//! corruption suites) additionally pins every *derived* value to exactly
//! what a fresh build computes: the CSR slabs must replay the canonical
//! fill sweep, and the base weights must keep every distance within 2⁵³
//! (the builder's cap, [`crate::PshError::DistancesExceedF64`]). A
//! snapshot that deep-validates therefore answers every query — costs
//! included — byte-identically to the owned oracle it was saved from,
//! under every `ExecutionPolicy`; since the writer is canonical, every
//! snapshot this crate produces deep-validates, so the byte-identity
//! guarantee holds for the `Bounds` serving path on any untampered file.
//! Malformed input is a typed [`SnapshotError`] at either level, never a
//! panic or out-of-bounds access — in-bounds tampering below `Deep`'s
//! radar can change answers, never memory safety. Every graph section is
//! required: a file without one (such as an older build's file that
//! stored the base adjacency under the retired tags 12 and 13) is a
//! [`SnapshotError::Corrupt`] naming the missing section. A file of any
//! other version (the retired version-1 stream format included) is
//! [`SnapshotError::UnsupportedVersion`] on every open path.

use crate::api::check_distance_cap;
use crate::hopset::HopsetParams;
use crate::oracle::ApproxShortestPaths;
use crate::snapshot::OracleMeta;
use crate::Seed;
use psh_graph::io::{SnapshotError, KIND_ORACLE};
use psh_graph::source::{
    cast_edges, cast_u32s, cast_u64s, encode_csr_slabs, SectionTable, SectionWriter,
    SEC_GRAPH_EDGES, SEC_GRAPH_EIDS, SEC_GRAPH_OFFSETS, SEC_GRAPH_TARGETS, SEC_GRAPH_WEIGHTS,
    SEC_META,
};
use psh_graph::{LoadMode, MmapView, SnapshotSource, Verify};
use psh_pram::Cost;
use std::path::Path;
use std::sync::Arc;

/// META layout tag of a file this build writes: the oracle is its graph.
pub const META_EXACT: u64 = 2;

/// META length of a file this build writes: the common prefix only.
const META_LEN: usize = 88;

fn corrupt(what: &'static str, detail: impl std::fmt::Display) -> SnapshotError {
    SnapshotError::Corrupt {
        what,
        detail: detail.to_string(),
    }
}

// ---------------------------------------------------------------------------
// META block
// ---------------------------------------------------------------------------

struct Meta {
    params: HopsetParams,
    seed: Seed,
    build_cost: Cost,
    mode: u64,
    n: usize,
    m: usize,
}

fn write_meta(oracle: &ApproxShortestPaths, meta: &OracleMeta) -> Vec<u8> {
    let g = oracle.graph();
    let p = &meta.params;
    let scalars = [
        p.epsilon.to_bits(),
        p.delta.to_bits(),
        p.gamma1.to_bits(),
        p.gamma2.to_bits(),
        p.k_conf.to_bits(),
        meta.seed.0,
        meta.build_cost.work,
        meta.build_cost.depth,
        META_EXACT,
        g.n() as u64,
        g.m() as u64,
    ];
    scalars.iter().flat_map(|v| v.to_le_bytes()).collect()
}

fn meta_u64(meta: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(meta[at..at + 8].try_into().expect("length checked"))
}

fn parse_meta(bytes: &[u8]) -> Result<Meta, SnapshotError> {
    if bytes.len() < META_LEN {
        return Err(corrupt(
            "oracle meta",
            format_args!("meta section of {} bytes is too short", bytes.len()),
        ));
    }
    let params = HopsetParams {
        epsilon: f64::from_bits(meta_u64(bytes, 0)),
        delta: f64::from_bits(meta_u64(bytes, 8)),
        gamma1: f64::from_bits(meta_u64(bytes, 16)),
        gamma2: f64::from_bits(meta_u64(bytes, 24)),
        k_conf: f64::from_bits(meta_u64(bytes, 32)),
    };
    params
        .validate()
        .map_err(|reason| corrupt("hopset parameters", reason))?;
    let seed = Seed(meta_u64(bytes, 40));
    let build_cost = Cost::new(meta_u64(bytes, 48), meta_u64(bytes, 56));
    let mode = meta_u64(bytes, 64);
    let expected_len = match mode {
        META_EXACT => META_LEN,
        // the retired layouts (see the module docs): their tails are
        // never read
        0 => 128,
        1 => 112,
        _ => {
            return Err(corrupt(
                "mode tag",
                format_args!("expected {META_EXACT}, or 0 or 1 from an older build, got {mode}"),
            ))
        }
    };
    if bytes.len() != expected_len {
        return Err(corrupt(
            "oracle meta",
            format_args!(
                "mode {mode} meta must be {expected_len} bytes, got {}",
                bytes.len()
            ),
        ));
    }
    let n = meta_u64(bytes, 72);
    if n > u32::MAX as u64 + 1 {
        return Err(corrupt(
            "vertex count",
            format_args!("{n} exceeds the u32 vertex-id space"),
        ));
    }
    let m = meta_u64(bytes, 80);
    let count = |v: u64, what: &'static str| -> Result<usize, SnapshotError> {
        usize::try_from(v).map_err(|_| corrupt(what, format_args!("{v} does not fit in usize")))
    };
    Ok(Meta {
        params,
        seed,
        build_cost,
        mode,
        n: count(n, "vertex count")?,
        m: count(m, "edge count")?,
    })
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

/// Encode an oracle (any representation) as a complete v2 snapshot file.
///
/// The encoding is a pure function of the oracle's graph and `meta`:
/// saving a fresh build or a mapped load of its snapshot produces
/// identical bytes.
pub fn write_oracle_v2_bytes(
    oracle: &ApproxShortestPaths,
    meta: &OracleMeta,
) -> Result<Vec<u8>, SnapshotError> {
    let g = oracle.graph();
    let csr = encode_csr_slabs(g.n(), g.edges());
    let mut w = SectionWriter::new(KIND_ORACLE);
    w.section(SEC_META, write_meta(oracle, meta));
    w.section(SEC_GRAPH_OFFSETS, csr.offsets);
    w.section(SEC_GRAPH_TARGETS, csr.targets);
    w.section(SEC_GRAPH_WEIGHTS, csr.weights);
    w.section(SEC_GRAPH_EIDS, csr.slot_eids);
    w.section(SEC_GRAPH_EDGES, csr.edges);
    Ok(w.finish())
}

/// Save an oracle as a v2 snapshot at `path` (overwrite-safe).
///
/// The bytes are written to a `.tmp` sibling in the same directory,
/// forced to disk, and atomically renamed over `path`, so a concurrent
/// or crashed save can never leave a truncated snapshot behind: readers
/// see either the old complete file or the new complete file.
/// Overwriting an existing snapshot needs no prior `rm`. The temp name is
/// unique per process and per call, so concurrent saves to one path
/// never share a temp file; the last rename wins with a complete file.
pub fn save_oracle_v2(
    path: impl AsRef<Path>,
    oracle: &ApproxShortestPaths,
    meta: &OracleMeta,
) -> Result<(), SnapshotError> {
    let bytes = write_oracle_v2_bytes(oracle, meta)?;
    static SAVE_SERIAL: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let serial = SAVE_SERIAL.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let path = path.as_ref();
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(format!(".{}.{serial}.tmp", std::process::id()));
    let tmp = std::path::PathBuf::from(tmp);
    let result = (|| {
        use std::io::Write;
        let mut file = std::fs::File::create(&tmp)?;
        file.write_all(&bytes)?;
        file.sync_all()?;
        std::fs::rename(&tmp, path)?;
        Ok(())
    })();
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    result
}

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

/// Parse and validate a v2 oracle snapshot held in `src` at the given
/// [`Verify`] level, returning an oracle that serves straight off the
/// region.
///
/// After `Ok`, no query can panic or read out of bounds, and on any
/// file this crate wrote the oracle's answers (and their [`Cost`]s) are
/// byte-identical to the owned oracle that was saved, under every
/// execution policy. At [`Verify::Deep`] that identity is *checked*
/// rather than assumed — any derived slab deviating from what a fresh
/// build computes is a load-time [`SnapshotError`] (see the module
/// docs' trust model).
pub fn read_oracle_v2(
    src: Arc<SnapshotSource>,
    verify: Verify,
) -> Result<(ApproxShortestPaths, OracleMeta), SnapshotError> {
    let bytes = src.bytes();
    let table = SectionTable::parse(bytes)?;
    if table.kind() != KIND_ORACLE {
        return Err(SnapshotError::WrongArtifact {
            found: table.kind(),
            expected: KIND_ORACLE,
        });
    }
    let meta = parse_meta(table.require(bytes, SEC_META, "oracle meta")?)?;
    let (n, m) = (meta.n, meta.m);

    let offsets = cast_u32s(
        table.require(bytes, SEC_GRAPH_OFFSETS, "graph offsets")?,
        "graph offsets",
    )?;
    let targets = cast_u32s(
        table.require(bytes, SEC_GRAPH_TARGETS, "graph targets")?,
        "graph targets",
    )?;
    let weights = cast_u64s(
        table.require(bytes, SEC_GRAPH_WEIGHTS, "graph weights")?,
        "graph weights",
    )?;
    let slot_eids = cast_u32s(
        table.require(bytes, SEC_GRAPH_EIDS, "graph edge ids")?,
        "graph edge ids",
    )?;
    let edges = cast_edges(
        table.require(bytes, SEC_GRAPH_EDGES, "graph edges")?,
        "graph edges",
    )?;
    if offsets.len() != n + 1 || edges.len() != m {
        return Err(corrupt(
            "graph shape",
            format_args!(
                "meta claims n = {n}, m = {m}; slabs hold {} offsets and {} edges",
                offsets.len(),
                edges.len()
            ),
        ));
    }
    let graph = MmapView::from_parts(
        Arc::clone(&src),
        offsets,
        targets,
        weights,
        slot_eids,
        edges,
        verify,
    )?;
    if verify == Verify::Deep {
        // the builder refuses such weights: answers are f64, exact only
        // up to 2⁵³
        let max_weight = edges.iter().map(|e| e.w).max().unwrap_or(0);
        check_distance_cap(n, max_weight).map_err(|e| corrupt("graph weights", e))?;
    }

    Ok((
        ApproxShortestPaths::mapped(graph),
        OracleMeta {
            params: meta.params,
            seed: meta.seed,
            build_cost: meta.build_cost,
        },
    ))
}

/// Open a v2 oracle snapshot at `path` for serving (the
/// [`Verify::Bounds`] fast path).
///
/// `mode` picks the source strategy: [`LoadMode::Mmap`] maps the file
/// (zero-copy; linux), [`LoadMode::Read`] bulk-reads it into one aligned
/// buffer (portable fallback). Both produce the same oracle.
pub fn load_oracle_v2(
    path: impl AsRef<Path>,
    mode: LoadMode,
) -> Result<(ApproxShortestPaths, OracleMeta), SnapshotError> {
    let src = SnapshotSource::open(path.as_ref(), mode)?;
    read_oracle_v2(Arc::new(src), Verify::Bounds)
}

/// Open a v2 oracle snapshot at `path` with the full [`Verify::Deep`]
/// content validation — every derived slab is checked against what a
/// fresh build computes, so a tampered file that would serve wrong
/// answers under the fast path is a typed error here. `psh-snap
/// inspect` and the corruption suites use this.
pub fn verify_oracle_v2(
    path: impl AsRef<Path>,
    mode: LoadMode,
) -> Result<(ApproxShortestPaths, OracleMeta), SnapshotError> {
    let src = SnapshotSource::open(path.as_ref(), mode)?;
    read_oracle_v2(Arc::new(src), Verify::Deep)
}

// ---------------------------------------------------------------------------
// Inspection (psh-snap)
// ---------------------------------------------------------------------------

// ---------------------------------------------------------------------------
// Inspection (psh-snap)
// ---------------------------------------------------------------------------

/// A human-oriented summary of a v2 oracle snapshot: header scalars plus
/// the full section directory. Produced by [`inspect_v2`] without
/// running the (slower) slab validation.
#[derive(Clone, Debug)]
pub struct OracleSections {
    /// Artifact kind tag (always [`KIND_ORACLE`] for oracle files).
    pub kind: u16,
    /// Vertex count.
    pub n: u64,
    /// Edge count.
    pub m: u64,
    /// META layout tag: [`META_EXACT`], or 0 (unweighted hopset) or 1
    /// (weighted bands) in an older build's file.
    pub mode: u64,
    /// `(tag, name, offset, len)` per section, in file order.
    pub sections: Vec<(u32, String, u64, u64)>,
}

/// Name a section tag for display. The hopset and band tags of older
/// builds are named with a `(retired)` suffix: no reader looks at them.
pub fn section_name(tag: u32) -> String {
    let retired = |name: &str| format!("{name} (retired)");
    match tag {
        SEC_META => "meta".into(),
        SEC_GRAPH_OFFSETS => "graph.offsets".into(),
        SEC_GRAPH_TARGETS => "graph.targets".into(),
        SEC_GRAPH_WEIGHTS => "graph.weights".into(),
        SEC_GRAPH_EIDS => "graph.eids".into(),
        SEC_GRAPH_EDGES => "graph.edges".into(),
        7 => retired("hopset.edges"),
        8 => retired("hopset.extra.offsets"),
        9 => retired("hopset.extra.targets"),
        10 => retired("hopset.extra.weights"),
        11 => retired("bands"),
        t if t >= 0x100 => retired(&format!("band[{}].{}", (t - 0x100) / 16, (t - 0x100) % 16)),
        t => format!("unknown[{t:#x}]"),
    }
}

/// Parse a v2 snapshot's header, directory, and meta scalars for
/// inspection. Structural directory errors are reported; slabs are not
/// validated (use [`verify_oracle_v2`] for a full check).
pub fn inspect_v2(bytes: &[u8]) -> Result<OracleSections, SnapshotError> {
    let table = SectionTable::parse(bytes)?;
    let meta = parse_meta(table.require(bytes, SEC_META, "oracle meta")?)?;
    Ok(OracleSections {
        kind: table.kind(),
        n: meta.n as u64,
        m: meta.m as u64,
        mode: meta.mode,
        sections: table
            .entries()
            .iter()
            .map(|e| (e.tag, section_name(e.tag), e.offset as u64, e.len as u64))
            .collect(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{HopsetBuilder, OracleBuilder};
    use crate::hopset::Hopset;
    use crate::PshError;
    use proptest::prelude::*;
    use psh_exec::ExecutionPolicy;
    use psh_graph::source::{le_edges, le_u32s, le_u64s};
    use psh_graph::traversal::dijkstra::dijkstra_pair;
    use psh_graph::{generators, CsrGraph, Edge, VertexId, INF};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn test_params() -> HopsetParams {
        HopsetParams {
            epsilon: 0.5,
            delta: 1.5,
            gamma1: 0.25,
            gamma2: 0.75,
            k_conf: 1.0,
        }
    }

    /// A 9×9 grid, unit or with uniform weights 1–30, and its oracle.
    fn fixture(weighted: bool) -> (CsrGraph, ApproxShortestPaths, OracleMeta) {
        let mut g = generators::grid(9, 9);
        if weighted {
            let mut rng = StdRng::seed_from_u64(11);
            g = generators::with_uniform_weights(&g, 1, 30, &mut rng);
        }
        let run = OracleBuilder::new().seed(Seed(21)).build(&g).unwrap();
        let meta = OracleMeta::of_run(&run, test_params());
        (g, run.artifact, meta)
    }

    fn oracle_pair(weighted: bool) -> (ApproxShortestPaths, OracleMeta) {
        let (_, oracle, meta) = fixture(weighted);
        (oracle, meta)
    }

    /// Re-encode `bytes` section by section: `edit` returns the sections
    /// to write in place of each one, in order.
    fn rewrite(bytes: &[u8], mut edit: impl FnMut(u32, &[u8]) -> Vec<(u32, Vec<u8>)>) -> Vec<u8> {
        let table = SectionTable::parse(bytes).unwrap();
        let mut w = SectionWriter::new(KIND_ORACLE);
        for e in table.entries() {
            for (tag, payload) in edit(e.tag, table.slice(bytes, e.tag).unwrap()) {
                w.section(tag, payload);
            }
        }
        w.finish()
    }

    /// A hopset's four sections as the builds that served hopsets wrote
    /// them under `tags`: its edges in construction order, then its
    /// adjacency offsets, targets and weights.
    fn hopset_sections(n: usize, hopset: &Hopset, tags: [u32; 4]) -> Vec<(u32, Vec<u8>)> {
        let extra = hopset.to_extra_edges();
        let (mut offsets, mut targets, mut weights) = (vec![0u32], Vec::new(), Vec::new());
        for v in 0..n as VertexId {
            for (t, w) in extra.neighbors(v) {
                targets.push(t);
                weights.push(w);
            }
            offsets.push(targets.len() as u32);
        }
        let slabs = [
            le_edges(&hopset.edges),
            le_u32s(&offsets),
            le_u32s(&targets),
            le_u64s(&weights),
        ];
        tags.into_iter().zip(slabs).collect()
    }

    /// `bytes`, a fresh build's file of `g`, in the layout of the builds
    /// that served hopsets, holding what they stored at the default
    /// parameters for the seed: META layout tag 0 and the Algorithm 4
    /// hopset with its hop budget for a unit graph, or tag 1 and §5's
    /// bands through the first exact one (as those builds cut them) for a
    /// weighted graph. The common META prefix is the fresh file's.
    fn older_layout(bytes: &[u8], g: &CsrGraph, seed: Seed) -> Vec<u8> {
        let (n, params) = (g.n(), HopsetParams::default());
        let (mode, tail, mut extra) = if g.is_unit_weight() {
            let run = HopsetBuilder::unweighted().seed(seed).build(g).unwrap();
            let hopset = run.artifact.into_single();
            let h_max = params.hop_bound(n, params.beta0(n), n as u64);
            let tail = [h_max, hopset.star_count, hopset.clique_count, hopset.levels]
                .map(|v| v as u64)
                .to_vec();
            let tail = [tail, vec![hopset.size() as u64]].concat();
            (0, tail, hopset_sections(n, &hopset, [7, 8, 9, 10]))
        } else {
            let run = HopsetBuilder::weighted(0.5).seed(seed).build(g).unwrap();
            let bands = &run.artifact.as_banded().unwrap().bands;
            let first_exact = bands
                .iter()
                .position(|b| b.rounding.what == 1.0 && b.h + 1 >= n);
            let bands = &bands[..=first_exact.unwrap()];
            let tail = vec![
                0.5f64.to_bits(),
                params.epsilon.to_bits(),
                bands.len() as u64,
            ];
            let (mut records, mut sections) = (Vec::new(), Vec::new());
            for (i, b) in bands.iter().enumerate() {
                let hs = &b.hopset;
                let record = [b.d, b.rounding.what.to_bits(), b.h as u64]
                    .into_iter()
                    .chain(
                        [hs.star_count, hs.clique_count, hs.levels, hs.size()].map(|v| v as u64),
                    );
                records.extend(record.flat_map(u64::to_le_bytes));
                let tag = |sub: u32| 0x100 + 16 * i as u32 + sub;
                sections.extend(hopset_sections(n, hs, [tag(2), tag(3), tag(4), tag(5)]));
            }
            sections.insert(0, (11, records));
            (1, tail, sections)
        };
        rewrite(bytes, |tag, payload| match tag {
            SEC_META => {
                let mut meta = payload.to_vec();
                meta[64..72].copy_from_slice(&(mode as u64).to_le_bytes());
                meta.extend(tail.iter().flat_map(|v| v.to_le_bytes()));
                vec![(tag, meta)]
            }
            SEC_GRAPH_EDGES => [vec![(tag, payload.to_vec())], std::mem::take(&mut extra)].concat(),
            _ => vec![(tag, payload.to_vec())],
        })
    }

    /// Every ordered pair of `n` vertices whose source is a multiple of
    /// `stride`.
    fn pairs(n: usize, stride: usize) -> Vec<(VertexId, VertexId)> {
        let n = n as VertexId;
        (0..n)
            .step_by(stride)
            .flat_map(|s| (0..n).map(move |t| (s, t)))
            .collect()
    }

    /// Load through the serving fast path ([`Verify::Bounds`]) — the
    /// byte-identity assertions below are about what production serves.
    fn mapped(bytes: &[u8]) -> (ApproxShortestPaths, OracleMeta) {
        read_oracle_v2(Arc::new(SnapshotSource::from_bytes(bytes)), Verify::Bounds).unwrap()
    }

    #[test]
    fn v2_round_trips_with_byte_identical_answers_and_costs() {
        for weighted in [false, true] {
            let (fresh, meta) = oracle_pair(weighted);
            let bytes = write_oracle_v2_bytes(&fresh, &meta).unwrap();
            let (served, meta2) = mapped(&bytes);
            assert!(served.is_mapped());
            assert_eq!(meta, meta2, "weighted={weighted}");
            assert_eq!(served.graph().n(), fresh.graph().n());
            assert_eq!(served.graph().m(), fresh.graph().m());
            for (s, t) in [(0u32, 80u32), (3, 77), (40, 41), (7, 7)] {
                assert_eq!(
                    served.query(s, t),
                    fresh.query(s, t),
                    "weighted={weighted} pair ({s},{t}) answers+costs must match"
                );
            }
            // batch answers under every policy, against the owned oracle
            let pairs: Vec<(u32, u32)> = (0..40u32).map(|i| (i, 80 - i)).collect();
            for policy in [
                ExecutionPolicy::Sequential,
                ExecutionPolicy::Parallel { threads: 4 },
            ] {
                assert_eq!(
                    served.query_batch(&pairs, policy),
                    fresh.query_batch(&pairs, policy),
                    "weighted={weighted} {policy}"
                );
            }
            // re-encoding the mapped oracle reproduces identical bytes
            let bytes2 = write_oracle_v2_bytes(&served, &meta2).unwrap();
            assert_eq!(bytes, bytes2);
        }
    }

    /// A scratch directory of this test process's own, so leftover
    /// counts are exact and parallel test binaries never collide.
    fn scratch_dir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("psh_v2_{name}_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    type Opened = Result<(ApproxShortestPaths, OracleMeta), SnapshotError>;

    /// Every file-open path: the serving load under both [`LoadMode`]s
    /// and the deep verification `psh-snap inspect` runs.
    fn open_every_way(path: &Path) -> [(&'static str, Opened); 3] {
        [
            ("load mmap", load_oracle_v2(path, LoadMode::Mmap)),
            ("load read", load_oracle_v2(path, LoadMode::Read)),
            ("verify", verify_oracle_v2(path, LoadMode::Read)),
        ]
    }

    #[test]
    fn saves_overwrite_atomically_and_missing_files_are_io_errors() {
        let (fresh, meta) = oracle_pair(false);
        let dir = scratch_dir("save");
        let path = dir.join("oracle.snap");
        save_oracle_v2(&path, &fresh, &meta).unwrap();
        // overwrite-safe: saving over an existing snapshot needs no rm,
        // and the unique temp siblings used for the atomic rename are gone
        save_oracle_v2(&path, &fresh, &meta).unwrap();
        let names: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(names, ["oracle.snap"], "temp siblings must be renamed away");
        for (how, opened) in open_every_way(&path) {
            let (served, meta2) = opened.unwrap();
            assert_eq!(meta, meta2, "{how}");
            assert_eq!(served.query(0, 80), fresh.query(0, 80), "{how}");
        }
        std::fs::remove_file(&path).unwrap();
        for (how, opened) in open_every_way(&path) {
            assert!(matches!(opened, Err(SnapshotError::Io(_))), "{how}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn retired_formats_are_typed_errors_on_every_open_path() {
        let (fresh, meta) = oracle_pair(true);
        let dir = scratch_dir("retired");
        let v2 = write_oracle_v2_bytes(&fresh, &meta).unwrap();

        // the header of a version-1 oracle stream (magic, version 1,
        // kind 4) followed by body bytes: refused by version, unread
        let v1_path = dir.join("oracle.v1");
        let mut v1 = b"PSHS\x01\x00\x04\x00".to_vec();
        v1.resize(72, 0);
        std::fs::write(&v1_path, &v1).unwrap();
        for (how, opened) in open_every_way(&v1_path) {
            let err = opened.unwrap_err();
            assert!(
                matches!(
                    err,
                    SnapshotError::UnsupportedVersion {
                        found: 1,
                        supported: 2
                    }
                ),
                "{how}: {err}"
            );
            assert!(err.to_string().contains("version 1 unsupported"), "{err}");
        }

        // a `PSHM` sharded manifest left behind by older builds
        let pshm_path = dir.join("oracle.pshm");
        let pshm = b"PSHM\x01\x00\x00\x00\x04\x00\x00\x00";
        std::fs::write(&pshm_path, pshm).unwrap();
        for (how, opened) in open_every_way(&pshm_path) {
            assert!(
                matches!(opened, Err(SnapshotError::BadMagic { found }) if found == *b"PSHM"),
                "{how}"
            );
        }

        // a v2 file from an older build that stored the base adjacency
        // under the retired tags 12 and 13 instead of
        // `graph.targets`/`graph.eids` is a typed error naming the missing
        // section (the payloads are never read)
        let retired = rewrite(&v2, |tag, payload| {
            let tag = match tag {
                SEC_GRAPH_TARGETS => 12,
                SEC_GRAPH_EIDS => 13,
                t => t,
            };
            vec![(tag, payload.to_vec())]
        });
        let retired_path = dir.join("oracle.retired");
        std::fs::write(&retired_path, retired).unwrap();
        for (how, opened) in open_every_way(&retired_path) {
            assert!(
                matches!(
                    opened,
                    Err(SnapshotError::Corrupt {
                        what: "graph targets",
                        ..
                    })
                ),
                "{how}"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A new file lists its META and the five graph sections, and
    /// nothing else.
    #[test]
    fn inspect_reports_the_section_directory() {
        let (fresh, meta) = oracle_pair(true);
        let bytes = write_oracle_v2_bytes(&fresh, &meta).unwrap();
        let info = inspect_v2(&bytes).unwrap();
        assert_eq!(info.kind, KIND_ORACLE);
        assert_eq!(info.n, fresh.graph().n() as u64);
        assert_eq!(info.m, fresh.graph().m() as u64);
        assert_eq!(info.mode, META_EXACT);
        let names: Vec<&str> = info.sections.iter().map(|s| s.1.as_str()).collect();
        assert_eq!(
            names,
            [
                "meta",
                "graph.offsets",
                "graph.targets",
                "graph.weights",
                "graph.eids",
                "graph.edges"
            ]
        );
        // every section is 64-byte aligned
        for (_, name, offset, _) in &info.sections {
            assert_eq!(offset % 64, 0, "{name} at {offset}");
        }
    }

    #[test]
    fn corrupt_scalars_are_typed_errors() {
        let (fresh, meta) = oracle_pair(false);
        let bytes = write_oracle_v2_bytes(&fresh, &meta).unwrap();
        let info = inspect_v2(&bytes).unwrap();
        let meta_off = info.sections.iter().find(|s| s.1 == "meta").unwrap().2 as usize;
        let put = |at: usize, v: u64| {
            let mut bad = bytes.clone();
            bad[meta_off + at..meta_off + at + 8].copy_from_slice(&v.to_le_bytes());
            bad
        };
        let cases = [
            ("hopset parameters", put(0, 7.0f64.to_bits())),
            ("mode tag", put(64, 9)),
            // an older layout tag needs that layout's longer META
            ("oracle meta", put(64, 0)),
            ("oracle meta", put(64, 1)),
            // n + 1: the slabs disagree with the meta
            ("graph shape", put(72, fresh.graph().n() as u64 + 1)),
        ];
        for (field, bad) in &cases {
            for verify in [Verify::Bounds, Verify::Deep] {
                let err =
                    read_oracle_v2(Arc::new(SnapshotSource::from_bytes(bad)), verify).unwrap_err();
                assert!(
                    matches!(err, SnapshotError::Corrupt { what, .. } if what == *field),
                    "{field} ({verify:?}): got {err}"
                );
            }
        }

        // a wrong artifact kind is refused up front
        let mut bad = bytes.clone();
        bad[6..8].copy_from_slice(&psh_graph::io::KIND_GRAPH.to_le_bytes());
        assert!(matches!(
            read_oracle_v2(Arc::new(SnapshotSource::from_bytes(&bad)), Verify::Bounds).unwrap_err(),
            SnapshotError::WrongArtifact { .. }
        ));
    }

    /// Files in the layouts of the builds that served hopsets — META
    /// layout tag 0 with an unweighted hopset, and tag 1 with weighted
    /// bands — open under both levels, answer every pair with the exact
    /// distance those builds served at the default parameters and with
    /// the fresh build's `Cost`, under every policy, and re-save to the
    /// fresh build's bytes: no reader looks at a retired section.
    #[test]
    fn files_in_the_hopset_layouts_serve_and_resave_like_a_fresh_build() {
        for weighted in [false, true] {
            let (g, fresh, meta) = fixture(weighted);
            let bytes = write_oracle_v2_bytes(&fresh, &meta).unwrap();
            let older = older_layout(&bytes, &g, meta.seed);
            let info = inspect_v2(&older).unwrap();
            assert_eq!(info.mode, u64::from(weighted));
            let retired = info.sections.iter().filter(|s| s.1.ends_with("(retired)"));
            assert!(retired.count() >= if weighted { 9 } else { 4 });
            let pairs = pairs(g.n(), 1);
            for verify in [Verify::Bounds, Verify::Deep] {
                let src = Arc::new(SnapshotSource::from_bytes(&older));
                let (served, meta2) = read_oracle_v2(src, verify).unwrap();
                assert_eq!(meta2, meta);
                for policy in [
                    ExecutionPolicy::Sequential,
                    ExecutionPolicy::Parallel { threads: 4 },
                ] {
                    assert_eq!(
                        served.query_batch(&pairs, policy),
                        fresh.query_batch(&pairs, policy),
                        "weighted={weighted} {verify:?} {policy}"
                    );
                }
                for &(s, t) in &pairs {
                    let d = dijkstra_pair(&g, s, t);
                    assert_ne!(d, INF);
                    assert_eq!(served.query(s, t).0.distance, d as f64, "({s}, {t})");
                }
                assert_eq!(write_oracle_v2_bytes(&served, &meta2).unwrap(), bytes);
            }
        }
    }

    /// A 4×4 king grid with odd weights just above 2⁵³, where `f64`
    /// distances stop being exact, is a typed build error; a file carrying
    /// those weights (a valid file with its weight slabs rewritten) fails
    /// `Deep` and opens and answers without a panic under `Bounds`.
    #[test]
    fn weights_above_2_pow_53_are_a_typed_error_at_build_and_under_deep() {
        let mut rng = StdRng::seed_from_u64(5);
        let light = generators::with_log_uniform_weights(&generators::grid2d(4, 4), 64.0, &mut rng);
        let odd = |(i, e): (usize, &Edge)| Edge::new(e.u, e.v, (1 << 53) + 2 * i as u64 + 1);
        let heavy = CsrGraph::from_edges(16, light.edges().iter().enumerate().map(odd));
        let build = |g: &CsrGraph| OracleBuilder::new().seed(Seed(5)).build(g);
        let err = build(&heavy).unwrap_err();
        assert!(
            matches!(err, PshError::DistancesExceedF64 { n: 16, .. }),
            "{err}"
        );
        let run = build(&light).unwrap();
        let meta = OracleMeta::of_run(&run, HopsetParams::default());
        let bytes = write_oracle_v2_bytes(&run.artifact, &meta).unwrap();
        let slabs = encode_csr_slabs(16, heavy.edges());
        let file = rewrite(&bytes, |tag, payload| match tag {
            SEC_GRAPH_WEIGHTS => vec![(tag, slabs.weights.clone())],
            SEC_GRAPH_EDGES => vec![(tag, slabs.edges.clone())],
            _ => vec![(tag, payload.to_vec())],
        });
        let src = Arc::new(SnapshotSource::from_bytes(&file));
        let err = read_oracle_v2(Arc::clone(&src), Verify::Deep).unwrap_err();
        assert!(err.to_string().contains("exceed 2^53"), "{err}");
        assert!(matches!(
            err,
            SnapshotError::Corrupt {
                what: "graph weights",
                ..
            }
        ));
        let (served, _) = read_oracle_v2(src, Verify::Bounds).unwrap();
        assert_eq!(served.graph().edges(), heavy.edges());
        for (s, t) in pairs(16, 1) {
            assert!(served.query(s, t).0.distance >= 0.0, "({s}, {t})");
        }
    }

    #[test]
    fn truncations_and_byte_flips_never_panic() {
        let (fresh, meta) = oracle_pair(true);
        let bytes = write_oracle_v2_bytes(&fresh, &meta).unwrap();
        for cut in (0..bytes.len().min(8192))
            .step_by(97)
            .chain([bytes.len() - 1, bytes.len() / 2])
        {
            for verify in [Verify::Bounds, Verify::Deep] {
                assert!(
                    read_oracle_v2(Arc::new(SnapshotSource::from_bytes(&bytes[..cut])), verify)
                        .is_err(),
                    "prefix of {cut} bytes parsed as a full oracle ({verify:?})"
                );
            }
        }
    }

    proptest! {
        /// Arbitrary single-byte corruption anywhere in a v2 file:
        /// under [`Verify::Deep`] it either fails with a typed error or
        /// is benign (answers cannot change); under [`Verify::Bounds`]
        /// a survivor may answer differently but querying it can never
        /// panic or read out of bounds.
        #[test]
        fn prop_byte_flips_are_contained(at in 0usize..1 << 14, flip in 1u64..256) {
            let (fresh, meta) = oracle_pair(false);
            let mut bytes = write_oracle_v2_bytes(&fresh, &meta).unwrap();
            let at = at % bytes.len();
            bytes[at] ^= flip as u8;
            let src = Arc::new(SnapshotSource::from_bytes(&bytes));
            if let Ok((served, _)) = read_oracle_v2(Arc::clone(&src), Verify::Deep) {
                // corruption that survives the full content replay must
                // be benign (e.g. a padding byte): answers cannot change
                for (s, t) in [(0u32, 80u32), (13, 66)] {
                    prop_assert_eq!(served.query(s, t), fresh.query(s, t));
                }
            }
            if let Ok((served, _)) = read_oracle_v2(src, Verify::Bounds) {
                // the fast path guarantees safety, not identity: the
                // queries must complete (no panic, no OOB) and stay
                // well-formed
                for (s, t) in [(0u32, 80u32), (13, 66)] {
                    let (r, _) = served.query(s, t);
                    prop_assert!(r.distance >= 0.0);
                }
            }
        }

        /// Arbitrary truncation points never panic at either level.
        #[test]
        fn prop_truncations_are_contained(ppm in 0u64..1_000_000) {
            let (fresh, meta) = oracle_pair(false);
            let bytes = write_oracle_v2_bytes(&fresh, &meta).unwrap();
            let cut = (bytes.len() as u64 * ppm / 1_000_000) as usize;
            let src = Arc::new(SnapshotSource::from_bytes(&bytes[..cut]));
            prop_assert!(read_oracle_v2(Arc::clone(&src), Verify::Bounds).is_err());
            prop_assert!(read_oracle_v2(src, Verify::Deep).is_err());
        }

    }
}
