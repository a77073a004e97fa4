//! `SNAPSHOT_VERSION = 2` oracle snapshots — the one on-disk format.
//!
//! A v2 snapshot is a *region*: all query-time state — including the
//! derived state a fresh build computes (every hopset's query adjacency)
//! — is stored as page-aligned little-endian slabs indexed by a section
//! directory (framework in
//! [`psh_graph::source`]), so loading is one `mmap` (or one bulk read
//! into an aligned buffer) plus validation, and queries run straight off
//! the mapped bytes through [`psh_graph::MmapView`] /
//! [`psh_graph::ExtraSlabsView`].
//!
//! ## Oracle section map
//!
//! On top of the graph sections (`SEC_META` … `SEC_GRAPH_EDGES`, tags
//! 1–6) the oracle kind adds:
//!
//! | tag | payload |
//! |-----|---------|
//! | `7` (`SEC_HOPSET_EDGES`)  | unweighted hopset shortcut edges, construction order, 16 B each |
//! | `8`–`10` (`SEC_EXTRA_*`)  | unweighted hopset adjacency: offsets `(n+1)×u32`, targets `2m'×u32`, weights `2m'×u64` |
//! | `11` (`SEC_BANDS`)        | weighted mode: one 56-byte record per band (`d`, `ŵ`, `h`, star/clique/level/edge counts) |
//! | `0x100 + 16·b + s`        | weighted band `b`, sub-slab `s ∈ 2..=5`: its hopset (see [`band_tag`]) |
//!
//! `SEC_META` is a fixed-offset scalar block: build params (5×f64), seed,
//! build cost (2×u64), mode, `n`, `m`, then mode-specific scalars.
//!
//! A band stores no graph: it is a grid over the base graph, which every
//! band sweeps with each weight `w` read as `⌈w/ŵ⌉`. Sub-slabs 0 and 1
//! (tags `0x100 + 16·b + {0, 1}`), where older builds stored a band's
//! rounded slot weights and edge records, are retired: no reader looks
//! at them at either level, so an older file that stores them serves,
//! and re-saving a load of it writes the bytes a fresh build does. A
//! build that still reads them refuses a file with a `ŵ > 1` band as
//! [`SnapshotError::Corrupt`] naming `band weights`.
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
//! fill sweep, the base weights must keep every distance within 2⁵³
//! (the builders' cap, [`crate::PshError::DistancesExceedF64`]), each
//! band's `ŵ` must equal [`Rounding::for_band`] of its `d`, `n` and `ε`
//! (else `Corrupt` naming `band grid`), and each hopset adjacency must
//! replay the `ExtraEdges` fill order. A snapshot that deep-validates
//! therefore answers every query — costs included — byte-identically to
//! the owned oracle it was saved from, under every `ExecutionPolicy`;
//! since the writer is canonical, every snapshot this crate produces
//! deep-validates, so the byte-identity guarantee holds for the `Bounds`
//! serving path on any untampered file. Malformed input is a typed
//! [`SnapshotError`] at either level, never a panic or out-of-bounds
//! access — in-bounds tampering below `Deep`'s radar can change answers,
//! never memory safety. Every graph, hopset and band section above is
//! required: a file without one (such as an older build's file that
//! stored the base adjacency under the retired tags 12 and 13) is a
//! [`SnapshotError::Corrupt`] naming the missing section. A file of any
//! other version (the retired version-1 stream format included) is
//! [`SnapshotError::UnsupportedVersion`] on every open path.

use crate::api::check_distance_cap;
use crate::hopset::rounding::Rounding;
use crate::hopset::HopsetParams;
use crate::oracle::{
    ApproxShortestPaths, HopsetParts, MappedBand, MappedEdges, MappedHopset, MappedMode,
    MappedOracle, ModeParts, Repr,
};
use crate::snapshot::OracleMeta;
use crate::Seed;
use psh_graph::io::{SnapshotError, KIND_ORACLE};
use psh_graph::source::{
    cast_edges, cast_u32s, cast_u64s, encode_csr_slabs, encode_extra_slabs, le_edges,
    validate_edges_any_order, SectionTable, SectionWriter, SEC_GRAPH_EDGES, SEC_GRAPH_EIDS,
    SEC_GRAPH_OFFSETS, SEC_GRAPH_TARGETS, SEC_GRAPH_WEIGHTS, SEC_META,
};
use psh_graph::{ExtraSlabsView, LoadMode, MmapView, SnapshotSource, Verify};
use psh_pram::Cost;
use std::path::Path;
use std::sync::Arc;

/// Unweighted-mode shortcut edge list (construction order).
pub const SEC_HOPSET_EDGES: u32 = 7;
/// Unweighted-mode hopset adjacency offsets, `(n+1) × u32`.
pub const SEC_EXTRA_OFFSETS: u32 = 8;
/// Unweighted-mode hopset adjacency targets, `2m' × u32`.
pub const SEC_EXTRA_TARGETS: u32 = 9;
/// Unweighted-mode hopset adjacency weights, `2m' × u64`.
pub const SEC_EXTRA_WEIGHTS: u32 = 10;
/// Weighted-mode band directory: one [`BAND_RECORD_BYTES`]-byte record
/// per band.
pub const SEC_BANDS: u32 = 11;

/// Bytes per [`SEC_BANDS`] record: `d`, `ŵ` (f64 bits), `h`,
/// `star_count`, `clique_count`, `levels`, `hopset_edge_count`.
pub const BAND_RECORD_BYTES: usize = 56;

/// First tag of the per-band slab space.
pub const SEC_BAND_BASE: u32 = 0x100;

/// Per-band sub-slab: hopset shortcut edges, construction order.
/// (Sub-slabs 0 and 1 are retired; see the module docs.)
pub const BAND_SUB_HOPSET_EDGES: u32 = 2;
/// Per-band sub-slab: hopset adjacency offsets.
pub const BAND_SUB_EXTRA_OFFSETS: u32 = 3;
/// Per-band sub-slab: hopset adjacency targets.
pub const BAND_SUB_EXTRA_TARGETS: u32 = 4;
/// Per-band sub-slab: hopset adjacency weights.
pub const BAND_SUB_EXTRA_WEIGHTS: u32 = 5;

/// Widest META block: mode-0 files store five scalars past the common
/// prefix (see [`write_meta`]); mode-1 files store three.
const META_LEN_UNWEIGHTED: usize = 128;
const META_LEN_WEIGHTED: usize = 112;

/// Keep the per-band tag space (16 tags per band above
/// [`SEC_BAND_BASE`]) comfortably inside `u32` and reject absurd band
/// counts before allocating anything proportional to them.
const MAX_BANDS: usize = 1 << 16;

/// The section tag of band `band`'s sub-slab `sub`.
pub fn band_tag(band: usize, sub: u32) -> u32 {
    SEC_BAND_BASE + (band as u32) * 16 + sub
}

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
    /// mode 0: `[h_max, star, clique, levels, hopset_edges]`
    /// mode 1: `[eta bits, epsilon bits, band_count]`
    tail: [u64; 5],
}

fn write_meta(oracle: &ApproxShortestPaths, meta: &OracleMeta, parts: &ModeParts<'_>) -> Vec<u8> {
    let g = oracle.graph();
    let (mode, len) = match parts {
        ModeParts::Unweighted { .. } => (0u64, META_LEN_UNWEIGHTED),
        ModeParts::Weighted { .. } => (1u64, META_LEN_WEIGHTED),
    };
    let mut out = vec![0u8; len];
    let mut put = |at: usize, v: u64| out[at..at + 8].copy_from_slice(&v.to_le_bytes());
    put(0, meta.params.epsilon.to_bits());
    put(8, meta.params.delta.to_bits());
    put(16, meta.params.gamma1.to_bits());
    put(24, meta.params.gamma2.to_bits());
    put(32, meta.params.k_conf.to_bits());
    put(40, meta.seed.0);
    put(48, meta.build_cost.work);
    put(56, meta.build_cost.depth);
    put(64, mode);
    put(72, g.n() as u64);
    put(80, g.m() as u64);
    match parts {
        ModeParts::Unweighted { h_max, hopset } => {
            put(88, *h_max as u64);
            put(96, hopset.star_count as u64);
            put(104, hopset.clique_count as u64);
            put(112, hopset.levels as u64);
            put(120, hopset.edges.len() as u64);
        }
        ModeParts::Weighted {
            eta,
            epsilon,
            bands,
        } => {
            put(88, eta.to_bits());
            put(96, epsilon.to_bits());
            put(104, bands.len() as u64);
        }
    }
    out
}

fn meta_u64(meta: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(meta[at..at + 8].try_into().expect("length checked"))
}

fn parse_meta(bytes: &[u8]) -> Result<Meta, SnapshotError> {
    if bytes.len() < META_LEN_WEIGHTED {
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
        0 => META_LEN_UNWEIGHTED,
        1 => META_LEN_WEIGHTED,
        other => {
            return Err(corrupt(
                "mode tag",
                format_args!("expected 0 (unweighted) or 1 (weighted), got {other}"),
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
    let mut tail = [0u64; 5];
    for (i, slot) in tail.iter_mut().enumerate() {
        let at = 88 + i * 8;
        if at + 8 <= bytes.len() {
            *slot = meta_u64(bytes, at);
        }
    }
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
        tail,
    })
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

fn hopset_sections(
    w: &mut SectionWriter,
    n: usize,
    hopset: &HopsetParts<'_>,
    tags: [u32; 4], // [edges, extra offsets, extra targets, extra weights]
) {
    let extra = encode_extra_slabs(n, hopset.edges);
    w.section(tags[0], le_edges(hopset.edges));
    w.section(tags[1], extra.offsets);
    w.section(tags[2], extra.targets);
    w.section(tags[3], extra.weights);
}

/// Encode an oracle (any representation) as a complete v2 snapshot file.
///
/// The encoding is a pure function of the oracle's logical content:
/// saving a fresh build or a mapped load of its snapshot produces
/// identical bytes.
pub fn write_oracle_v2_bytes(
    oracle: &ApproxShortestPaths,
    meta: &OracleMeta,
) -> Result<Vec<u8>, SnapshotError> {
    let parts = oracle.mode_parts();
    if let ModeParts::Weighted { bands, .. } = &parts {
        if bands.len() > MAX_BANDS {
            return Err(corrupt(
                "band count",
                format_args!("{} bands exceed the format limit {MAX_BANDS}", bands.len()),
            ));
        }
    }
    let g = oracle.graph();
    let (n, edges) = (g.n(), g.edges());
    let csr = encode_csr_slabs(n, edges);

    let mut w = SectionWriter::new(KIND_ORACLE);
    w.section(SEC_META, write_meta(oracle, meta, &parts));
    w.section(SEC_GRAPH_OFFSETS, csr.offsets);
    w.section(SEC_GRAPH_TARGETS, csr.targets);
    w.section(SEC_GRAPH_WEIGHTS, csr.weights);
    w.section(SEC_GRAPH_EIDS, csr.slot_eids);
    w.section(SEC_GRAPH_EDGES, csr.edges);
    match &parts {
        ModeParts::Unweighted { hopset, .. } => {
            hopset_sections(
                &mut w,
                n,
                hopset,
                [
                    SEC_HOPSET_EDGES,
                    SEC_EXTRA_OFFSETS,
                    SEC_EXTRA_TARGETS,
                    SEC_EXTRA_WEIGHTS,
                ],
            );
        }
        ModeParts::Weighted { bands, .. } => {
            let mut records = vec![0u8; bands.len() * BAND_RECORD_BYTES];
            for (i, band) in bands.iter().enumerate() {
                let at = i * BAND_RECORD_BYTES;
                let mut put = |off: usize, v: u64| {
                    records[at + off..at + off + 8].copy_from_slice(&v.to_le_bytes())
                };
                put(0, band.d);
                put(8, band.what.to_bits());
                put(16, band.h as u64);
                put(24, band.hopset.star_count as u64);
                put(32, band.hopset.clique_count as u64);
                put(40, band.hopset.levels as u64);
                put(48, band.hopset.edges.len() as u64);
            }
            w.section(SEC_BANDS, records);
            for (i, band) in bands.iter().enumerate() {
                hopset_sections(
                    &mut w,
                    n,
                    &band.hopset,
                    [
                        band_tag(i, BAND_SUB_HOPSET_EDGES),
                        band_tag(i, BAND_SUB_EXTRA_OFFSETS),
                        band_tag(i, BAND_SUB_EXTRA_TARGETS),
                        band_tag(i, BAND_SUB_EXTRA_WEIGHTS),
                    ],
                );
            }
        }
    }
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

/// Slice and cast one band's or the unweighted mode's hopset slabs, then
/// assemble the validated mapped hopset.
fn load_hopset(
    src: &Arc<SnapshotSource>,
    table: &SectionTable,
    n: usize,
    counts: [usize; 4], // [star, clique, levels, edge_count]
    tags: [u32; 4],     // [edges, extra offsets, extra targets, extra weights]
    verify: Verify,
) -> Result<MappedHopset, SnapshotError> {
    let bytes = src.bytes();
    let edges = cast_edges(
        table.require(bytes, tags[0], "hopset edges")?,
        "hopset edges",
    )?;
    if edges.len() != counts[3] {
        return Err(corrupt(
            "hopset edges",
            format_args!("{} stored, meta claims {}", edges.len(), counts[3]),
        ));
    }
    if verify == Verify::Deep {
        // queries never index through the shortcut list itself (they
        // traverse the adjacency slabs), so its content rules are an
        // identity concern, not a safety one
        validate_edges_any_order(n, edges)?;
    }
    let offsets = cast_u32s(
        table.require(bytes, tags[1], "hopset adjacency offsets")?,
        "hopset adjacency offsets",
    )?;
    let targets = cast_u32s(
        table.require(bytes, tags[2], "hopset adjacency targets")?,
        "hopset adjacency targets",
    )?;
    let weights = cast_u64s(
        table.require(bytes, tags[3], "hopset adjacency weights")?,
        "hopset adjacency weights",
    )?;
    let extra =
        ExtraSlabsView::from_parts(Arc::clone(src), offsets, targets, weights, n, edges, verify)?;
    Ok(MappedHopset {
        star_count: counts[0],
        clique_count: counts[1],
        levels: counts[2],
        edges: MappedEdges::of(edges),
        extra,
    })
}

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
        // every builder refuses such weights, and §5's grid is exact
        // only below them
        let max_weight = edges.iter().map(|e| e.w).max().unwrap_or(0);
        check_distance_cap(n, max_weight).map_err(|e| corrupt("graph weights", e))?;
    }

    let mode = match meta.mode {
        0 => {
            let h_max = meta.tail[0] as usize;
            if h_max == 0 {
                // the builder clamps h_max to ≥ 4; a zero budget would
                // silently answer ∞ for every s ≠ t
                return Err(corrupt(
                    "hop budget",
                    "hop budget of 0 cannot answer queries",
                ));
            }
            let hopset = load_hopset(
                &src,
                &table,
                n,
                [
                    meta.tail[1] as usize,
                    meta.tail[2] as usize,
                    meta.tail[3] as usize,
                    meta.tail[4] as usize,
                ],
                [
                    SEC_HOPSET_EDGES,
                    SEC_EXTRA_OFFSETS,
                    SEC_EXTRA_TARGETS,
                    SEC_EXTRA_WEIGHTS,
                ],
                verify,
            )?;
            MappedMode::Unweighted { hopset, h_max }
        }
        1 => {
            let eta = f64::from_bits(meta.tail[0]);
            if !(eta > 0.0 && eta < 1.0) {
                return Err(corrupt("eta", format_args!("must be in (0,1), got {eta}")));
            }
            let epsilon = f64::from_bits(meta.tail[1]);
            if !(epsilon > 0.0 && epsilon < 1.0) {
                return Err(corrupt(
                    "epsilon",
                    format_args!("must be in (0,1), got {epsilon}"),
                ));
            }
            let band_count = meta.tail[2] as usize;
            if band_count == 0 && n > 0 {
                return Err(corrupt(
                    "band count",
                    format_args!("0 bands cannot serve a {n}-vertex graph"),
                ));
            }
            if band_count > MAX_BANDS {
                return Err(corrupt(
                    "band count",
                    format_args!("{band_count} bands exceed the format limit {MAX_BANDS}"),
                ));
            }
            let records = table.require(bytes, SEC_BANDS, "band records")?;
            if records.len() != band_count * BAND_RECORD_BYTES {
                return Err(corrupt(
                    "band records",
                    format_args!(
                        "{} bytes for {band_count} bands of {BAND_RECORD_BYTES}",
                        records.len()
                    ),
                ));
            }
            let mut bands = Vec::with_capacity(band_count);
            let mut prev_d = 0u64;
            for i in 0..band_count {
                let rec = &records[i * BAND_RECORD_BYTES..(i + 1) * BAND_RECORD_BYTES];
                let d = meta_u64(rec, 0);
                if d <= prev_d {
                    return Err(corrupt(
                        "band distance",
                        format_args!("band {i} at d = {d} does not exceed the previous band"),
                    ));
                }
                prev_d = d;
                let what = f64::from_bits(meta_u64(rec, 8));
                if !(what.is_finite() && what >= 1.0) {
                    return Err(corrupt(
                        "band grid",
                        format_args!("grid ŵ must be finite and ≥ 1, got {what}"),
                    ));
                }
                if verify == Verify::Deep {
                    // the grid is a function of d, n and ε, as the build
                    // derives it
                    let derived = Rounding::for_band(d, n.max(2) as u64, epsilon / 2.0).what;
                    if what != derived {
                        return Err(corrupt(
                            "band grid",
                            format_args!(
                                "band {i} at d = {d} stores ŵ = {what}, the build derives {derived}"
                            ),
                        ));
                    }
                }
                let h = meta_u64(rec, 16) as usize;
                if h == 0 {
                    return Err(corrupt(
                        "band hop budget",
                        format_args!("band {i} has a hop budget of 0"),
                    ));
                }
                let hopset = load_hopset(
                    &src,
                    &table,
                    n,
                    [
                        meta_u64(rec, 24) as usize,
                        meta_u64(rec, 32) as usize,
                        meta_u64(rec, 40) as usize,
                        meta_u64(rec, 48) as usize,
                    ],
                    [
                        band_tag(i, BAND_SUB_HOPSET_EDGES),
                        band_tag(i, BAND_SUB_EXTRA_OFFSETS),
                        band_tag(i, BAND_SUB_EXTRA_TARGETS),
                        band_tag(i, BAND_SUB_EXTRA_WEIGHTS),
                    ],
                    verify,
                )?;
                bands.push(MappedBand {
                    d,
                    rounding: Rounding { what },
                    h,
                    hopset,
                });
            }
            MappedMode::Weighted {
                eta,
                epsilon,
                bands,
            }
        }
        _ => unreachable!("parse_meta rejects other modes"),
    };

    Ok((
        ApproxShortestPaths {
            repr: Repr::Mapped(MappedOracle { graph, mode }),
        },
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
    /// 0 = unweighted, 1 = weighted.
    pub mode: u64,
    /// Estimate bands (weighted mode; 0 otherwise).
    pub bands: u64,
    /// `(tag, name, offset, len)` per section, in file order.
    pub sections: Vec<(u32, String, u64, u64)>,
}

/// Name a section tag for display.
pub fn section_name(tag: u32) -> String {
    match tag {
        SEC_META => "meta".into(),
        SEC_GRAPH_OFFSETS => "graph.offsets".into(),
        SEC_GRAPH_TARGETS => "graph.targets".into(),
        SEC_GRAPH_WEIGHTS => "graph.weights".into(),
        SEC_GRAPH_EIDS => "graph.eids".into(),
        SEC_GRAPH_EDGES => "graph.edges".into(),
        SEC_HOPSET_EDGES => "hopset.edges".into(),
        SEC_EXTRA_OFFSETS => "hopset.extra.offsets".into(),
        SEC_EXTRA_TARGETS => "hopset.extra.targets".into(),
        SEC_EXTRA_WEIGHTS => "hopset.extra.weights".into(),
        SEC_BANDS => "bands".into(),
        t if t >= SEC_BAND_BASE => {
            let band = (t - SEC_BAND_BASE) / 16;
            let sub = match (t - SEC_BAND_BASE) % 16 {
                0 => "slot_weights (retired)",
                1 => "edges (retired)",
                BAND_SUB_HOPSET_EDGES => "hopset.edges",
                BAND_SUB_EXTRA_OFFSETS => "hopset.extra.offsets",
                BAND_SUB_EXTRA_TARGETS => "hopset.extra.targets",
                BAND_SUB_EXTRA_WEIGHTS => "hopset.extra.weights",
                _ => "unknown",
            };
            format!("band[{band}].{sub}")
        }
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
        bands: if meta.mode == 1 { meta.tail[2] } else { 0 },
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
    use crate::api::{OracleBuilder, OracleMode};
    use crate::oracle::OracleGraph;
    use crate::PshError;
    use proptest::prelude::*;
    use psh_exec::ExecutionPolicy;
    use psh_graph::{generators, CsrGraph, Edge, VertexId};
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

    fn oracle_pair(weighted: bool) -> (ApproxShortestPaths, OracleMeta) {
        let base = generators::grid(9, 9);
        let (g, mode) = if weighted {
            let mut rng = StdRng::seed_from_u64(11);
            (
                generators::with_uniform_weights(&base, 1, 30, &mut rng),
                OracleMode::Weighted,
            )
        } else {
            (base, OracleMode::Unweighted)
        };
        let run = OracleBuilder::new()
            .params(test_params())
            .mode(mode)
            .seed(Seed(21))
            .build(&g)
            .unwrap();
        let meta = OracleMeta::of_run(&run, test_params());
        (run.artifact, meta)
    }

    /// A weighted oracle at the default parameters, where every band it
    /// keeps has `ŵ = 1` and sweeps the base graph.
    fn default_weighted() -> (CsrGraph, ApproxShortestPaths, OracleMeta) {
        let mut rng = StdRng::seed_from_u64(11);
        let g = generators::with_uniform_weights(&generators::grid(9, 9), 1, 30, &mut rng);
        let run = OracleBuilder::new().seed(Seed(21)).build(&g).unwrap();
        let meta = OracleMeta::of_run(&run, HopsetParams::default());
        (g, run.artifact, meta)
    }

    /// Non-default parameters under which the oracle keeps a band with
    /// `ŵ > 1` (the last of five, `ŵ ≈ 1.09`): a king grid of side 12
    /// with log-uniform weights of ratio 64, perfbench's `serve_uniform`
    /// shape.
    fn coarse_weighted() -> (CsrGraph, ApproxShortestPaths, OracleMeta) {
        let params = HopsetParams {
            epsilon: 0.1,
            delta: 10.0,
            gamma1: 0.05,
            gamma2: 0.99,
            k_conf: 1.0,
        };
        let mut rng = StdRng::seed_from_u64(1);
        let g = generators::with_log_uniform_weights(&generators::grid2d(12, 12), 64.0, &mut rng);
        let run = OracleBuilder::new()
            .params(params)
            .eta(0.4)
            .seed(Seed(3))
            .build(&g)
            .unwrap();
        let meta = OracleMeta::of_run(&run, params);
        (g, run.artifact, meta)
    }

    /// The retired per-band sub-slabs older builds wrote: a band's
    /// rounded slot weights and its rounded edge records.
    const RETIRED_SLOT_WEIGHTS: u32 = 0;
    const RETIRED_EDGES: u32 = 1;

    fn band_parts(oracle: &ApproxShortestPaths) -> Vec<crate::oracle::BandParts<'_>> {
        match oracle.mode_parts() {
            ModeParts::Weighted { bands, .. } => bands,
            ModeParts::Unweighted { .. } => panic!("a weighted graph takes the banded path"),
        }
    }

    /// The retired per-band weight and edge-record sections `bytes` holds.
    fn band_weight_sections(bytes: &[u8]) -> Vec<String> {
        let info = inspect_v2(bytes).unwrap();
        info.sections
            .into_iter()
            .map(|(_, name, _, _)| name)
            .filter(|name| name.ends_with("(retired)"))
            .collect()
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

    /// `bytes` with band `i`'s retired slot-weight and edge-record
    /// sub-slabs, rounded from `g` by the band's `ŵ`, added where `add(i)`
    /// says — just before its hopset sections, where older builds wrote
    /// them. With both for every band this is the layout of builds before
    /// the base slabs were shared; with both for each `ŵ > 1` band only,
    /// that of the build after.
    fn with_band_slabs(
        bytes: &[u8],
        g: OracleGraph<'_>,
        add: impl Fn(usize) -> [bool; 2],
    ) -> Vec<u8> {
        let mut records = Vec::new();
        rewrite(bytes, |tag, payload| {
            let mut out = Vec::new();
            if tag == SEC_BANDS {
                records = payload.to_vec();
            }
            if tag >= SEC_BAND_BASE && (tag - SEC_BAND_BASE) % 16 == BAND_SUB_HOPSET_EDGES {
                let i = ((tag - SEC_BAND_BASE) / 16) as usize;
                let rounding = Rounding {
                    what: f64::from_bits(meta_u64(&records[i * BAND_RECORD_BYTES..], 8)),
                };
                let rounded: Vec<Edge> = g
                    .edges()
                    .iter()
                    .map(|e| Edge::new(e.u, e.v, rounding.round_weight(e.w)))
                    .collect();
                let csr = encode_csr_slabs(g.n(), &rounded);
                let [weights, edges] = add(i);
                if weights {
                    out.push((band_tag(i, RETIRED_SLOT_WEIGHTS), csr.weights));
                }
                if edges {
                    out.push((band_tag(i, RETIRED_EDGES), csr.edges));
                }
            }
            out.push((tag, payload.to_vec()));
            out
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
            assert_eq!(served.hopset_size(), fresh.hopset_size());
            assert_eq!(served.hop_budget(), fresh.hop_budget());
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
        let mut w = SectionWriter::new(KIND_ORACLE);
        let table = SectionTable::parse(&v2).unwrap();
        for e in table.entries() {
            let tag = match e.tag {
                SEC_GRAPH_TARGETS => 12,
                SEC_GRAPH_EIDS => 13,
                t => t,
            };
            w.section(tag, table.slice(&v2, e.tag).unwrap().to_vec());
        }
        let retired_path = dir.join("oracle.retired");
        std::fs::write(&retired_path, w.finish()).unwrap();
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

    /// Every band rule the reader enforces is a typed `Corrupt` naming
    /// its field, at both [`Verify`] levels.
    #[test]
    fn corrupt_band_fields_are_typed_errors_at_both_levels() {
        let (fresh, meta) = oracle_pair(true);
        let bytes = write_oracle_v2_bytes(&fresh, &meta).unwrap();
        let info = inspect_v2(&bytes).unwrap();
        let offset = |name: &str| info.sections.iter().find(|s| s.1 == name).unwrap().2 as usize;
        let (meta_off, bands_off) = (offset("meta"), offset("bands"));
        let put = |at: usize, v: u64| {
            let mut bad = bytes.clone();
            bad[at..at + 8].copy_from_slice(&v.to_le_bytes());
            bad
        };
        assert!(info.bands >= 2, "the fixture needs two bands");
        let d0 = u64::from_le_bytes(bytes[bands_off..bands_off + 8].try_into().unwrap());
        let cases = [
            ("band count", put(meta_off + 104, 0)),
            ("band count", put(meta_off + 104, MAX_BANDS as u64 + 1)),
            // band 0's d must exceed 0, each later band's the previous d
            ("band distance", put(bands_off, 0)),
            ("band distance", put(bands_off + BAND_RECORD_BYTES, d0)),
            ("band grid", put(bands_off + 8, 0.5f64.to_bits())),
            ("band grid", put(bands_off + 8, f64::NAN.to_bits())),
            ("band hop budget", put(bands_off + 16, 0)),
            ("eta", put(meta_off + 88, 0f64.to_bits())),
            ("eta", put(meta_off + 88, 1f64.to_bits())),
            ("eta", put(meta_off + 88, f64::NAN.to_bits())),
            ("epsilon", put(meta_off + 96, 0f64.to_bits())),
            ("epsilon", put(meta_off + 96, 1f64.to_bits())),
            ("epsilon", put(meta_off + 96, f64::NAN.to_bits())),
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
    }

    /// The file lists every section by name, and no band stores a
    /// weight or edge-record section.
    #[test]
    fn inspect_reports_the_section_directory() {
        let (_, fresh, meta) = default_weighted();
        let bytes = write_oracle_v2_bytes(&fresh, &meta).unwrap();
        let info = inspect_v2(&bytes).unwrap();
        assert_eq!(info.kind, KIND_ORACLE);
        assert_eq!(info.n, fresh.graph().n() as u64);
        assert_eq!(info.m, fresh.graph().m() as u64);
        assert_eq!(info.mode, 1);
        assert!(info.bands >= 1);
        let names: Vec<&str> = info
            .sections
            .iter()
            .map(|(_, n, _, _)| n.as_str())
            .collect();
        assert!(names.contains(&"meta"));
        assert!(names.contains(&"graph.offsets"));
        assert!(names.contains(&"bands"));
        for band in 0..info.bands {
            assert!(names.contains(&format!("band[{band}].hopset.edges").as_str()));
        }
        assert_eq!(band_weight_sections(&bytes), Vec::<String>::new());
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

        // ε := 7 → invalid params
        let mut bad = bytes.clone();
        bad[meta_off..meta_off + 8].copy_from_slice(&7.0f64.to_bits().to_le_bytes());
        assert!(matches!(
            read_oracle_v2(Arc::new(SnapshotSource::from_bytes(&bad)), Verify::Bounds).unwrap_err(),
            SnapshotError::Corrupt {
                what: "hopset parameters",
                ..
            }
        ));

        // h_max := 0
        let mut bad = bytes.clone();
        bad[meta_off + 88..meta_off + 96].fill(0);
        assert!(matches!(
            read_oracle_v2(Arc::new(SnapshotSource::from_bytes(&bad)), Verify::Bounds).unwrap_err(),
            SnapshotError::Corrupt {
                what: "hop budget",
                ..
            }
        ));

        // mode := 9
        let mut bad = bytes.clone();
        bad[meta_off + 64] = 9;
        assert!(matches!(
            read_oracle_v2(Arc::new(SnapshotSource::from_bytes(&bad)), Verify::Bounds).unwrap_err(),
            SnapshotError::Corrupt {
                what: "mode tag",
                ..
            }
        ));

        // n := n + 1 → slab shape mismatch
        let mut bad = bytes.clone();
        let n = fresh.graph().n() as u64 + 1;
        bad[meta_off + 72..meta_off + 80].copy_from_slice(&n.to_le_bytes());
        assert!(
            read_oracle_v2(Arc::new(SnapshotSource::from_bytes(&bad)), Verify::Bounds).is_err()
        );

        // a wrong artifact kind is refused up front
        let mut bad = bytes.clone();
        bad[6..8].copy_from_slice(&psh_graph::io::KIND_GRAPH.to_le_bytes());
        assert!(matches!(
            read_oracle_v2(Arc::new(SnapshotSource::from_bytes(&bad)), Verify::Bounds).unwrap_err(),
            SnapshotError::WrongArtifact { .. }
        ));
    }

    /// A band's grid is re-derived from its `d`, `n` and `ε` under
    /// `Deep`, so a record claiming another `ŵ` is `band grid` there;
    /// `Bounds` reads the grid as stored and serves the file (with other
    /// answers, never a panic). Tried on a `ŵ = 1` band and on the `ŵ > 1`
    /// band of [`coarse_weighted`].
    #[test]
    fn a_band_grid_the_build_would_not_derive_fails_deep() {
        let (g, fresh, meta) = coarse_weighted();
        let bytes = write_oracle_v2_bytes(&fresh, &meta).unwrap();
        let info = inspect_v2(&bytes).unwrap();
        let bands_off = info.sections.iter().find(|s| s.1 == "bands").unwrap().2 as usize;
        let parts = band_parts(&fresh);
        let last = parts.len() - 1;
        assert_eq!(parts[0].what, 1.0);
        assert!(
            parts[last].what > 1.0,
            "the fixture needs a band with ŵ > 1"
        );
        for (band, what) in [(0, 2.0), (last, 1.0), (last, parts[last].what * 2.0)] {
            let at = bands_off + band * BAND_RECORD_BYTES + 8;
            let mut bad = bytes.clone();
            bad[at..at + 8].copy_from_slice(&f64::to_bits(what).to_le_bytes());
            let src = Arc::new(SnapshotSource::from_bytes(&bad));
            let err = read_oracle_v2(Arc::clone(&src), Verify::Deep).unwrap_err();
            assert!(
                matches!(
                    err,
                    SnapshotError::Corrupt {
                        what: "band grid",
                        ..
                    }
                ),
                "band {band} at ŵ = {what}: got {err}"
            );
            let (served, _) = read_oracle_v2(src, Verify::Bounds).unwrap();
            for (s, t) in pairs(g.n(), 5) {
                let (r, _) = served.query(s, t);
                assert!(r.distance >= 0.0, "({s}, {t})");
            }
        }
    }

    /// Files in the layouts older builds wrote — the retired weight
    /// sub-slabs for every band of [`default_weighted`], or for the `ŵ > 1`
    /// band of [`coarse_weighted`] only, or just one of the two for one
    /// band — open under both levels, answer every pair with the fresh
    /// build's distance and `Cost` under every policy, and re-save to the
    /// fresh build's bytes, which store no band weights even for a
    /// `ŵ > 1` band: no reader looks at a retired tag.
    #[test]
    fn files_with_slabs_for_every_band_serve_and_resave_like_a_fresh_build() {
        let (g, fresh, meta) = default_weighted();
        let bytes = write_oracle_v2_bytes(&fresh, &meta).unwrap();
        let bands = inspect_v2(&bytes).unwrap().bands as usize;
        assert!(bands >= 2, "the fixture needs two bands");
        let every = with_band_slabs(&bytes, fresh.graph(), |_| [true, true]);
        assert_eq!(band_weight_sections(&every).len(), 2 * bands);
        let half = with_band_slabs(&bytes, fresh.graph(), |i| [i == 0, i == 1]);
        assert_eq!(band_weight_sections(&half).len(), 2);

        let (coarse_g, coarse, coarse_meta) = coarse_weighted();
        let coarse_bytes = write_oracle_v2_bytes(&coarse, &coarse_meta).unwrap();
        assert_eq!(band_weight_sections(&coarse_bytes), Vec::<String>::new());
        let parts = band_parts(&coarse);
        let wide: Vec<bool> = parts.iter().map(|b| b.what > 1.0).collect();
        assert_eq!(wide.iter().filter(|&&w| w).count(), 1, "one ŵ > 1 band");
        let coarse_older = with_band_slabs(&coarse_bytes, coarse.graph(), |i| [wide[i], wide[i]]);
        assert_eq!(band_weight_sections(&coarse_older).len(), 2);

        for (older, g, fresh, bytes, stride) in [
            (&every, &g, &fresh, &bytes, 1),
            (&half, &g, &fresh, &bytes, 3),
            (&coarse_older, &coarse_g, &coarse, &coarse_bytes, 5),
        ] {
            let pairs = pairs(g.n(), stride);
            for verify in [Verify::Bounds, Verify::Deep] {
                let src = Arc::new(SnapshotSource::from_bytes(older));
                let (served, meta2) = read_oracle_v2(src, verify).unwrap();
                for policy in [
                    ExecutionPolicy::Sequential,
                    ExecutionPolicy::Parallel { threads: 4 },
                ] {
                    assert_eq!(
                        served.query_batch(&pairs, policy),
                        fresh.query_batch(&pairs, policy),
                        "{verify:?} {policy}"
                    );
                }
                for &(s, t) in &pairs {
                    assert_eq!(
                        served.query(s, t),
                        fresh.query(s, t),
                        "({s}, {t}) {verify:?}"
                    );
                }
                assert_eq!(&write_oracle_v2_bytes(&served, &meta2).unwrap(), bytes);
            }
        }
    }

    /// A 4×4 king grid with odd weights just above 2⁵³, where `f64`
    /// distances and `⌈w/1⌉` stop being exact, is a typed build error; a
    /// file carrying those weights (a valid file with its weight slabs
    /// rewritten) fails `Deep` and opens and answers without a panic
    /// under `Bounds`.
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
