//! `SNAPSHOT_VERSION = 2` oracle snapshots — the one on-disk format.
//!
//! A v2 snapshot is a *region*: all query-time state — including the
//! derived state a fresh build computes (the rounded weights of a band
//! whose rounding moves a base weight, every hopset's query adjacency) —
//! is stored as page-aligned little-endian slabs indexed by a section
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
//! | `0x100 + 16·b + s`        | weighted band `b`, sub-slab `s` (see [`band_tag`]) |
//!
//! `SEC_META` is a fixed-offset scalar block: build params (5×f64), seed,
//! build cost (2×u64), mode, `n`, `m`, then mode-specific scalars.
//!
//! Sub-slabs 2–5 (the band's hopset) are always present. Sub-slabs 0 and
//! 1 ([`BAND_SUB_SLOT_WEIGHTS`], [`BAND_SUB_EDGES`]: the rounded weights,
//! `2m × u64`, and edge records, `m × 16` bytes) are written only for a
//! band whose rounding moves a base weight, where
//! [`Rounding::is_identity_on`] fails: one with `ŵ > 1`, or with `ŵ = 1`
//! over a weight above 2⁵³. Any other band sweeps the base graph's slabs,
//! so at the default parameters, where every kept band has `ŵ = 1`, no
//! band stores either. The rule, not how the oracle holds a
//! band, decides, so re-saving a load of an older file, which stores both
//! for every band, writes the bytes a fresh build does. An older build
//! refuses a file without them as [`SnapshotError::Corrupt`] naming
//! `band weights`.
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
//! A band's sub-slabs 0 and 1 come as a pair: both absent marks a band
//! that sweeps the base graph, and its record must say `ŵ = 1`; only one
//! present is [`SnapshotError::Corrupt`] naming the missing one. Both
//! checks are structural, so `Bounds` makes them too.
//!
//! [`Verify::Deep`] ([`verify_oracle_v2`]; used by `psh-snap` and the
//! corruption suites) additionally pins every *derived* slab to exactly
//! what a fresh build computes: the CSR slabs must replay the canonical
//! fill sweep, each stored band weight must equal `⌈w/ŵ⌉` of its base
//! weight, every base weight a band without stored weights sweeps must
//! round to itself, and each hopset adjacency must replay the
//! `ExtraEdges` fill order. A snapshot that deep-validates therefore
//! answers every query — costs included — byte-identically to the owned
//! oracle it was saved from, under every `ExecutionPolicy`; since the
//! writer is canonical, every snapshot this crate produces
//! deep-validates, so the byte-identity guarantee holds for the `Bounds`
//! serving path on any untampered file. Malformed input is a typed
//! [`SnapshotError`] at either level, never a panic or out-of-bounds
//! access — in-bounds tampering below `Deep`'s radar can change answers,
//! never memory safety. Every graph, hopset and band section above is
//! required, bar the band sub-slab pair: a file without one (such as an
//! older build's file that stored the base adjacency under the retired
//! tags 12 and 13) is a [`SnapshotError::Corrupt`] naming the missing
//! section. A file of any other version (the retired version-1 stream
//! format included) is [`SnapshotError::UnsupportedVersion`] on every
//! open path.

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
use psh_graph::{ExtraSlabsView, GraphView, LoadMode, MmapView, SnapshotSource, Verify};
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

/// Per-band sub-slab: rounded adjacency slot weights, `2m × u64` (only
/// for a band whose rounding moves a base weight; see the module docs).
pub const BAND_SUB_SLOT_WEIGHTS: u32 = 0;
/// Per-band sub-slab: rounded edge records, `m × 16` bytes (present
/// exactly when [`BAND_SUB_SLOT_WEIGHTS`] is).
pub const BAND_SUB_EDGES: u32 = 1;
/// Per-band sub-slab: hopset shortcut edges, construction order.
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
                // a band whose rounding moves a base weight stores its
                // slot weights and edge records (it shares offsets,
                // targets and eids with the base graph); any other band
                // sweeps the base graph and stores neither. The rule
                // decides, not how the band is held, so a load of an
                // older file re-saves to a fresh build's bytes
                let rounding = Rounding { what: band.what };
                if !rounding.is_identity_on(edges) {
                    let own = band.band_edges.ok_or_else(|| {
                        corrupt(
                            "band weights",
                            format_args!(
                                "band {i} sweeps the base graph, but ⌈w/ŵ⌉ moves a base weight"
                            ),
                        )
                    })?;
                    debug_assert_eq!(own.len(), edges.len());
                    let band_csr = encode_csr_slabs(n, own);
                    w.section(band_tag(i, BAND_SUB_SLOT_WEIGHTS), band_csr.weights);
                    w.section(band_tag(i, BAND_SUB_EDGES), band_csr.edges);
                }
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

/// Band `i`'s own rounded graph, or `None` when the band sweeps the base
/// graph `base`. The two sub-slabs come together: both absent marks a
/// band with `ŵ = 1` whose rounding leaves every base weight as it is,
/// which [`Verify::Deep`] checks; both present is a band's own rounded
/// graph (every band of an older file, or one with `ŵ > 1`), whose
/// weights `Deep` re-derives from the base weights.
fn load_band_graph(
    src: &Arc<SnapshotSource>,
    table: &SectionTable,
    base: &MmapView,
    [offsets, targets, slot_eids]: [&[u32]; 3],
    i: usize,
    rounding: &Rounding,
    verify: Verify,
) -> Result<Option<MmapView>, SnapshotError> {
    let bytes = src.bytes();
    let base_edges = base.edges();
    let (band_weights, band_edges) = match (
        table.slice(bytes, band_tag(i, BAND_SUB_SLOT_WEIGHTS)),
        table.slice(bytes, band_tag(i, BAND_SUB_EDGES)),
    ) {
        (None, None) => {
            if rounding.what != 1.0 {
                return Err(corrupt(
                    "band weights",
                    format_args!(
                        "band {i} stores no weights, so it must sweep the base graph, \
                         but its grid is ŵ = {}, not 1",
                        rounding.what
                    ),
                ));
            }
            // the base graph is the band's rounded graph only if ⌈w/ŵ⌉
            // leaves every base weight as it is
            if verify == Verify::Deep && !rounding.is_identity_on(base_edges) {
                return Err(corrupt(
                    "band weight",
                    format_args!("band {i} sweeps the base graph, but ⌈w/ŵ⌉ moves a base weight"),
                ));
            }
            return Ok(None);
        }
        (Some(weights), Some(edges)) => (
            cast_u64s(weights, "band weights")?,
            cast_edges(edges, "band edges")?,
        ),
        (None, Some(_)) => {
            return Err(corrupt(
                "band weights",
                format_args!("band {i} stores edge records but no slot weights"),
            ))
        }
        (Some(_), None) => {
            return Err(corrupt(
                "band edges",
                format_args!("band {i} stores slot weights but no edge records"),
            ))
        }
    };
    if band_edges.len() != base_edges.len() {
        return Err(corrupt(
            "band edges",
            format_args!(
                "band {i} stores {} edges, graph has {}",
                band_edges.len(),
                base_edges.len()
            ),
        ));
    }
    let graph = match verify {
        // the band shares the base graph's adjacency structure — reuse
        // its validated slabs instead of re-scanning them once per band
        Verify::Bounds => base.reweighted(band_weights, band_edges)?,
        Verify::Deep => {
            // the stored rounded weights must be exactly what a fresh
            // build rounds from the base graph — that equality is what
            // makes the mapped oracle answer-identical to the owned one
            for (j, (be, ge)) in band_edges.iter().zip(base_edges).enumerate() {
                if be.w != rounding.round_weight(ge.w) {
                    return Err(corrupt(
                        "band weight",
                        format_args!(
                            "band {i} edge {j} stores weight {}, rounding ⌈{}/ŵ⌉ gives {}",
                            be.w,
                            ge.w,
                            rounding.round_weight(ge.w)
                        ),
                    ));
                }
            }
            // the fill-sweep replay inside from_parts also pins the band
            // edges to the base (u, v) pairs in order
            MmapView::from_parts(
                Arc::clone(src),
                offsets,
                targets,
                band_weights,
                slot_eids,
                band_edges,
                Verify::Deep,
            )?
        }
    };
    Ok(Some(graph))
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
                let h = meta_u64(rec, 16) as usize;
                if h == 0 {
                    return Err(corrupt(
                        "band hop budget",
                        format_args!("band {i} has a hop budget of 0"),
                    ));
                }
                let rounding = Rounding { what };
                let band_graph = load_band_graph(
                    &src,
                    &table,
                    &graph,
                    [offsets, targets, slot_eids],
                    i,
                    &rounding,
                    verify,
                )?;
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
                    rounding,
                    h,
                    graph: band_graph,
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
                BAND_SUB_SLOT_WEIGHTS => "slot_weights",
                BAND_SUB_EDGES => "edges",
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
    use crate::hopset::weighted::query_bands;
    use crate::oracle::{Mode, OracleGraph, QueryResult};
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

    /// Odd weights just above 2⁵³, which `⌈w/1⌉` in f64 moves: even the
    /// `ŵ = 1` bands fail the sharing rule.
    fn above_2_pow_53() -> (CsrGraph, ApproxShortestPaths, OracleMeta) {
        let base = generators::grid2d(4, 4);
        let g = CsrGraph::from_edges(
            base.n(),
            base.edges()
                .iter()
                .enumerate()
                .map(|(i, e)| Edge::new(e.u, e.v, (1 << 53) + 2 * i as u64 + 1)),
        );
        let run = OracleBuilder::new().seed(Seed(5)).build(&g).unwrap();
        let meta = OracleMeta::of_run(&run, HopsetParams::default());
        (g, run.artifact, meta)
    }

    fn band_parts(oracle: &ApproxShortestPaths) -> Vec<crate::oracle::BandParts<'_>> {
        match oracle.mode_parts() {
            ModeParts::Weighted { bands, .. } => bands,
            ModeParts::Unweighted { .. } => panic!("a weighted graph takes the banded path"),
        }
    }

    /// The per-band weight and edge-record sections `bytes` holds.
    fn band_weight_sections(bytes: &[u8]) -> Vec<String> {
        let info = inspect_v2(bytes).unwrap();
        info.sections
            .into_iter()
            .map(|(_, name, _, _)| name)
            .filter(|name| name.ends_with(".slot_weights") || name.ends_with("].edges"))
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

    /// `bytes` with band `i`'s slot-weight and edge-record sub-slabs,
    /// rounded from `g` by the band's `ŵ`, added where `add(i)` says —
    /// just before its hopset sections, where older builds wrote them.
    /// With both for every band this is the layout of those builds.
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
                    out.push((band_tag(i, BAND_SUB_SLOT_WEIGHTS), csr.weights));
                }
                if edges {
                    out.push((band_tag(i, BAND_SUB_EDGES), csr.edges));
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
            // band 0 (ŵ = 1) stores no weights: its record may not claim
            // ŵ = 2, and it may not store just one of its two sub-slabs
            ("band weights", put(bands_off + 8, 2.0f64.to_bits())),
            (
                "band edges",
                with_band_slabs(&bytes, fresh.graph(), |i| [i == 0, false]),
            ),
            (
                "band weights",
                with_band_slabs(&bytes, fresh.graph(), |i| [false, i == 0]),
            ),
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

    /// At the default parameters every kept band sweeps the base graph:
    /// the owned bands hold no graph, and the file holds no per-band
    /// weight or edge-record section.
    #[test]
    fn inspect_reports_the_section_directory() {
        let (_, fresh, meta) = default_weighted();
        for band in band_parts(&fresh) {
            assert_eq!(band.what, 1.0);
            assert!(band.band_edges.is_none(), "band at d = {}", band.d);
        }
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

    /// Stored band weights are re-derived under `Deep`: the test tampers
    /// the one band that stores them, the `ŵ > 1` band of
    /// [`coarse_weighted`].
    #[test]
    fn tampered_band_weights_fail_the_derivation_check() {
        let (_, fresh, meta) = coarse_weighted();
        let bytes = write_oracle_v2_bytes(&fresh, &meta).unwrap();
        let info = inspect_v2(&bytes).unwrap();
        let last = info.bands - 1;
        // bump one stored band edge weight (bytes 8..16 of the first
        // record) so it no longer equals ⌈w/ŵ⌉ — both the edge slab and
        // the slot-weight slab are cross-checked against the base graph
        let edges_name = format!("band[{last}].edges");
        let edges_off = info.sections.iter().find(|s| s.1 == edges_name).unwrap().2 as usize;
        let mut bad = bytes.clone();
        let w = u64::from_le_bytes(bad[edges_off + 8..edges_off + 16].try_into().unwrap());
        bad[edges_off + 8..edges_off + 16].copy_from_slice(&(w + 1).to_le_bytes());
        let err =
            read_oracle_v2(Arc::new(SnapshotSource::from_bytes(&bad)), Verify::Deep).unwrap_err();
        assert!(
            matches!(
                err,
                SnapshotError::Corrupt {
                    what: "band weight" | "csr adjacency" | "csr edges",
                    ..
                }
            ),
            "got {err}"
        );
        // the fast path serves the tamper (in bounds, content unchecked)
        // — safely: the slot-weight slab queries read is untouched here
        let (served, _) =
            read_oracle_v2(Arc::new(SnapshotSource::from_bytes(&bad)), Verify::Bounds).unwrap();
        assert_eq!(served.query(0, 143), fresh.query(0, 143));
    }

    /// A file in the layout older builds wrote, with both weight
    /// sub-slabs for every band, opens under both levels, answers every
    /// pair with the fresh build's distance and `Cost` under every
    /// policy, and re-saves to the fresh build's bytes.
    #[test]
    fn files_with_slabs_for_every_band_serve_and_resave_like_a_fresh_build() {
        let (g, fresh, meta) = default_weighted();
        let bytes = write_oracle_v2_bytes(&fresh, &meta).unwrap();
        let older = with_band_slabs(&bytes, fresh.graph(), |_| [true, true]);
        let bands = inspect_v2(&bytes).unwrap().bands as usize;
        assert!(bands >= 2, "the fixture needs two bands");
        assert_eq!(band_weight_sections(&older).len(), 2 * bands);
        let pairs = pairs(g.n(), 1);
        for verify in [Verify::Bounds, Verify::Deep] {
            let src = Arc::new(SnapshotSource::from_bytes(&older));
            let (served, meta2) = read_oracle_v2(src, verify).unwrap();
            assert_eq!(meta2, meta);
            assert!(band_parts(&served).iter().all(|b| b.band_edges.is_some()));
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
            assert_eq!(write_oracle_v2_bytes(&served, &meta2).unwrap(), bytes);
        }
    }

    /// Under parameters that keep a band with `ŵ > 1`, that band alone
    /// holds a rounded graph and stores its weight sub-slabs; owned and
    /// mapped oracles answer alike, and the mapped one re-saves to the
    /// same bytes.
    #[test]
    fn a_band_with_a_coarser_grid_keeps_its_rounded_graph_and_slabs() {
        let (g, fresh, meta) = coarse_weighted();
        let bands = band_parts(&fresh);
        let last = bands.len() - 1;
        assert!(
            bands[last].what > 1.0,
            "the fixture needs a band with ŵ > 1"
        );
        for (i, band) in bands.iter().enumerate() {
            assert_eq!(band.band_edges.is_some(), i == last, "band {i}");
        }
        let rounded = Rounding {
            what: bands[last].what,
        }
        .round_graph(&g);
        assert_ne!(rounded.edges(), g.edges());
        assert_eq!(bands[last].band_edges, Some(rounded.edges()));
        let bytes = write_oracle_v2_bytes(&fresh, &meta).unwrap();
        assert_eq!(
            band_weight_sections(&bytes),
            [
                format!("band[{last}].slot_weights"),
                format!("band[{last}].edges")
            ]
        );
        for verify in [Verify::Bounds, Verify::Deep] {
            let src = Arc::new(SnapshotSource::from_bytes(&bytes));
            let (served, meta2) = read_oracle_v2(src, verify).unwrap();
            for (s, t) in pairs(g.n(), 7) {
                assert_eq!(
                    served.query(s, t),
                    fresh.query(s, t),
                    "({s}, {t}) {verify:?}"
                );
            }
            assert_eq!(write_oracle_v2_bytes(&served, &meta2).unwrap(), bytes);
        }
    }

    /// Above 2⁵³ every band holds a `round_graph` copy and stores its
    /// slabs, and owned and mapped oracles answer exactly as a sweep
    /// over explicit copies does.
    #[test]
    fn weights_above_2_pow_53_keep_a_rounded_copy_in_every_band() {
        let (g, fresh, meta) = above_2_pow_53();
        let Repr::Owned(Mode::Weighted { hopsets }) = &fresh.repr else {
            panic!("a fresh weighted build is owned and banded");
        };
        assert_eq!(hopsets.bands[0].rounding.what, 1.0);
        let copies: Vec<CsrGraph> = hopsets
            .bands
            .iter()
            .map(|b| b.rounding.round_graph(&g))
            .collect();
        for (band, copy) in hopsets.bands.iter().zip(&copies) {
            assert_ne!(copy.edges(), g.edges(), "⌈w/ŵ⌉ moves an odd weight");
            assert_eq!(band.graph.as_ref(), Some(copy));
        }
        let bytes = write_oracle_v2_bytes(&fresh, &meta).unwrap();
        assert_eq!(band_weight_sections(&bytes).len(), 2 * copies.len());
        let mapped: Vec<ApproxShortestPaths> = [Verify::Bounds, Verify::Deep]
            .into_iter()
            .map(|verify| {
                let src = Arc::new(SnapshotSource::from_bytes(&bytes));
                read_oracle_v2(src, verify).unwrap().0
            })
            .collect();
        for (s, t) in pairs(g.n(), 1) {
            if s == t {
                continue;
            }
            let bands = hopsets
                .bands
                .iter()
                .zip(&copies)
                .map(|(b, copy)| (&b.rounding, b.h, copy, b.extra.view()));
            let (distance, cost) = query_bands(bands, s, t);
            let explicit = (
                QueryResult {
                    distance,
                    upper_bound: true,
                },
                cost,
            );
            assert_eq!(fresh.query(s, t), explicit, "({s}, {t})");
            for served in &mapped {
                assert_eq!(served.query(s, t), explicit, "({s}, {t})");
            }
        }
    }

    /// A band that stores no weights must round every base weight to
    /// itself: band 0 of the 2⁵³ fixture with its sub-slabs dropped (ŵ = 1,
    /// but ⌈w/1⌉ moves a base weight) opens under `Bounds`, which reads no
    /// weights, and saving it again is a typed error; `Deep` refuses it.
    #[test]
    fn a_shared_band_over_a_weight_its_rounding_moves_fails_deep() {
        let (_, big, big_meta) = above_2_pow_53();
        let big_bytes = write_oracle_v2_bytes(&big, &big_meta).unwrap();
        let dropped = [
            band_tag(0, BAND_SUB_SLOT_WEIGHTS),
            band_tag(0, BAND_SUB_EDGES),
        ];
        let shared = rewrite(&big_bytes, |tag, payload| {
            if dropped.contains(&tag) {
                Vec::new()
            } else {
                vec![(tag, payload.to_vec())]
            }
        });
        let (served, served_meta) = read_oracle_v2(
            Arc::new(SnapshotSource::from_bytes(&shared)),
            Verify::Bounds,
        )
        .unwrap();
        assert!(matches!(
            write_oracle_v2_bytes(&served, &served_meta),
            Err(SnapshotError::Corrupt {
                what: "band weights",
                ..
            })
        ));
        let err = read_oracle_v2(Arc::new(SnapshotSource::from_bytes(&shared)), Verify::Deep)
            .unwrap_err();
        assert!(
            matches!(
                err,
                SnapshotError::Corrupt {
                    what: "band weight",
                    ..
                }
            ),
            "got {err}"
        );
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
