//! Versioned artifact snapshots: save a preprocessed hopset, spanner, or
//! full oracle once, serve it from any later process.
//!
//! Built on the binary framework of [`psh_graph::io`] (magic + version +
//! kind header, little-endian integers, `f64` as exact bit patterns —
//! see that module for the header layout and versioning policy). This
//! module defines the three core-artifact bodies:
//!
//! **Hopset** (`KIND_HOPSET`): `n`, `star_count`, `clique_count`,
//! `levels` (u64 each), then the shortcut edge list in construction
//! order (duplicates between star and clique sets are preserved, so the
//! reload is byte-identical to the build).
//!
//! **Spanner** (`KIND_SPANNER`): `n`, then the canonical sorted edge
//! list.
//!
//! **Oracle** (`KIND_ORACLE`) — the serving snapshot, everything a
//! process needs to answer queries without rebuilding:
//!
//! ```text
//! params   5 × f64   (ε, δ, γ₁, γ₂, k_conf — the build parameters)
//! seed     u64       (the Seed the oracle was built with)
//! cost     2 × u64   (preprocessing work, depth)
//! graph    graph body (n + canonical sorted edges)
//! mode     u8        (0 = unweighted, 1 = weighted)
//! mode 0:  h_max u64, hopset body
//! mode 1:  η f64, ε f64, band count u64,
//!          per band: d u64, grid ŵ f64, h u64, hopset body
//! ```
//!
//! Derived state is *recomputed*, not stored: each band's rounded graph
//! comes back from `Rounding { ŵ }.round_graph(graph)` and every hopset's
//! query adjacency from [`Hopset::to_extra_edges`] — both deterministic
//! functions of the stored data, so a reloaded oracle's `query` /
//! `query_batch` answers **and costs** are byte-identical to the fresh
//! build's (enforced by the `serving` integration tests and the
//! `benchsuite` divergence gate).
//!
//! Malformed input — truncation, wrong version or artifact kind,
//! out-of-range vertex ids, self-loops, duplicate edges, invalid
//! parameters — is reported as a descriptive
//! [`SnapshotError`], never a panic.
//!
//! ```
//! use psh_core::api::{OracleBuilder, Seed};
//! use psh_core::snapshot::{read_oracle, write_oracle, OracleMeta};
//! use psh_graph::generators;
//!
//! let g = generators::grid(8, 8);
//! let run = OracleBuilder::new().seed(Seed(7)).build(&g).unwrap();
//! let meta = OracleMeta::of_run(&run, Default::default());
//!
//! let mut buf = Vec::new();
//! write_oracle(&mut buf, &run.artifact, &meta).unwrap();
//! let (served, meta2) = read_oracle(buf.as_slice()).unwrap();
//! assert_eq!(meta2.seed, Seed(7));
//! assert_eq!(served.query(0, 63), run.artifact.query(0, 63));
//! ```

use crate::api::Run;
use crate::hopset::rounding::Rounding;
use crate::hopset::weighted::{EstimateBand, WeightedHopsets};
use crate::hopset::{Hopset, HopsetParams};
use crate::oracle::{
    owned_hopset_parts, ApproxShortestPaths, HopsetParts, Mode, ModeParts, OracleGraph, Repr,
};
use crate::Seed;
use psh_graph::io::{
    EdgeRules, SnapshotReader, SnapshotWriter, KIND_HOPSET, KIND_ORACLE, KIND_SPANNER,
};
use psh_pram::Cost;
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::Path;

pub mod journal;
pub mod v2;

pub use journal::{
    append_journal, apply_deltas, compact_oracle, journal_path, load_journal, owned_base_graph,
    read_journal, rebuild_oracle, CompactReport, JournalReloader, ReloadReport, JOURNAL_MAGIC,
    JOURNAL_VERSION,
};
pub use psh_graph::io::SnapshotError;
pub use psh_graph::Verify;
pub use v2::{
    inspect_v2, load_oracle_auto, load_oracle_v2, migrate_oracle_file, read_oracle_v2,
    save_oracle_v2, section_name, snapshot_version, verify_oracle_v2, write_oracle_v2_bytes,
    OracleSections,
};

/// Provenance stored alongside an oracle: the parameters and seed that
/// built it (enough to rebuild it from scratch and get the identical
/// artifact) and the preprocessing cost in the paper's currency.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct OracleMeta {
    /// The hopset parameters the oracle was built with.
    pub params: HopsetParams,
    /// The seed that produced it.
    pub seed: Seed,
    /// Work/depth spent preprocessing.
    pub build_cost: Cost,
}

impl OracleMeta {
    /// Meta for a completed [`Run`], with the parameters supplied by the
    /// caller (the oracle itself does not retain them).
    pub fn of_run(run: &Run<ApproxShortestPaths>, params: HopsetParams) -> OracleMeta {
        OracleMeta {
            params,
            seed: run.seed,
            build_cost: run.cost,
        }
    }
}

pub(crate) fn corrupt(what: &'static str, detail: impl Into<String>) -> SnapshotError {
    SnapshotError::Corrupt {
        what,
        detail: detail.into(),
    }
}

fn read_count(
    r: &mut SnapshotReader<impl Read>,
    what: &'static str,
) -> Result<usize, SnapshotError> {
    let v = r.u64(what)?;
    usize::try_from(v).map_err(|_| corrupt(what, format!("{v} does not fit in usize")))
}

/// A vertex count must also fit the `u32` id space.
fn read_vertex_count(
    r: &mut SnapshotReader<impl Read>,
    what: &'static str,
) -> Result<usize, SnapshotError> {
    let n = read_count(r, what)?;
    if n as u64 > u32::MAX as u64 + 1 {
        return Err(corrupt(
            what,
            format!("{n} exceeds the u32 vertex-id space"),
        ));
    }
    Ok(n)
}

// ---------------------------------------------------------------------------
// Hopset
// ---------------------------------------------------------------------------

fn write_hopset_parts<W: Write>(
    w: &mut SnapshotWriter<W>,
    h: &HopsetParts<'_>,
) -> Result<(), SnapshotError> {
    w.u64(h.n as u64)?;
    w.u64(h.star_count as u64)?;
    w.u64(h.clique_count as u64)?;
    w.u64(h.levels as u64)?;
    w.edges(h.edges)
}

fn write_hopset_body<W: Write>(w: &mut SnapshotWriter<W>, h: &Hopset) -> Result<(), SnapshotError> {
    write_hopset_parts(w, &owned_hopset_parts(h))
}

fn read_hopset_body<R: Read>(r: &mut SnapshotReader<R>) -> Result<Hopset, SnapshotError> {
    let n = read_vertex_count(r, "hopset vertex count")?;
    let star_count = read_count(r, "hopset star count")?;
    let clique_count = read_count(r, "hopset clique count")?;
    let levels = read_count(r, "hopset level count")?;
    let edges = r.edges(n, EdgeRules::CanonicalAnyOrder)?;
    Ok(Hopset {
        n,
        edges,
        star_count,
        clique_count,
        levels,
    })
}

/// Snapshot a hopset (kind `KIND_HOPSET`).
pub fn write_hopset<W: Write>(out: W, h: &Hopset) -> Result<(), SnapshotError> {
    let mut w = SnapshotWriter::new(out, KIND_HOPSET)?;
    write_hopset_body(&mut w, h)?;
    w.finish()?;
    Ok(())
}

/// Load a hopset snapshot, validating every shortcut edge.
pub fn read_hopset<R: Read>(inp: R) -> Result<Hopset, SnapshotError> {
    let mut r = SnapshotReader::new(inp, KIND_HOPSET)?;
    let h = read_hopset_body(&mut r)?;
    r.expect_eof()?;
    Ok(h)
}

// ---------------------------------------------------------------------------
// Spanner
// ---------------------------------------------------------------------------

/// Snapshot a spanner (kind `KIND_SPANNER`).
pub fn write_spanner<W: Write>(out: W, s: &crate::Spanner) -> Result<(), SnapshotError> {
    let mut w = SnapshotWriter::new(out, KIND_SPANNER)?;
    w.u64(s.n as u64)?;
    w.edges(&s.edges)?;
    w.finish()?;
    Ok(())
}

/// Load a spanner snapshot (edges must be canonical and sorted, as the
/// writer emits them).
pub fn read_spanner<R: Read>(inp: R) -> Result<crate::Spanner, SnapshotError> {
    let mut r = SnapshotReader::new(inp, KIND_SPANNER)?;
    let n = read_vertex_count(&mut r, "spanner vertex count")?;
    let edges = r.edges(n, EdgeRules::CanonicalSorted)?;
    r.expect_eof()?;
    Ok(crate::Spanner { n, edges })
}

// ---------------------------------------------------------------------------
// Oracle
// ---------------------------------------------------------------------------

/// Snapshot a preprocessed oracle with its provenance (kind
/// `KIND_ORACLE`). See the module docs for the body layout.
pub fn write_oracle<W: Write>(
    out: W,
    oracle: &ApproxShortestPaths,
    meta: &OracleMeta,
) -> Result<(), SnapshotError> {
    let mut w = SnapshotWriter::new(out, KIND_ORACLE)?;
    w.f64(meta.params.epsilon)?;
    w.f64(meta.params.delta)?;
    w.f64(meta.params.gamma1)?;
    w.f64(meta.params.gamma2)?;
    w.f64(meta.params.k_conf)?;
    w.u64(meta.seed.0)?;
    w.u64(meta.build_cost.work)?;
    w.u64(meta.build_cost.depth)?;
    // parts access makes this writer representation-independent: an
    // oracle serving off a mapped v2 region re-saves as v1 byte-for-byte
    // the same way an owned one does (the migration round-trip test
    // pins this down)
    match oracle.graph() {
        OracleGraph::Owned(g) => w.graph(g)?,
        OracleGraph::Mapped(g) => w.graph(g)?,
    }
    match oracle.mode_parts() {
        ModeParts::Unweighted { h_max, hopset } => {
            w.u8(0)?;
            w.u64(h_max as u64)?;
            write_hopset_parts(&mut w, &hopset)?;
        }
        ModeParts::Weighted {
            eta,
            epsilon,
            bands,
        } => {
            w.u8(1)?;
            w.f64(eta)?;
            w.f64(epsilon)?;
            w.u64(bands.len() as u64)?;
            for band in &bands {
                w.u64(band.d)?;
                w.f64(band.what)?;
                w.u64(band.h as u64)?;
                write_hopset_parts(&mut w, &band.hopset)?;
            }
        }
    }
    w.finish()?;
    Ok(())
}

/// Load an oracle snapshot. Derived state (per-band rounded graphs, the
/// hopsets' query adjacency) is recomputed deterministically, so the
/// result answers queries byte-identically to the oracle that was saved.
pub fn read_oracle<R: Read>(inp: R) -> Result<(ApproxShortestPaths, OracleMeta), SnapshotError> {
    let mut r = SnapshotReader::new(inp, KIND_ORACLE)?;
    let params = HopsetParams {
        epsilon: r.f64("params.epsilon")?,
        delta: r.f64("params.delta")?,
        gamma1: r.f64("params.gamma1")?,
        gamma2: r.f64("params.gamma2")?,
        k_conf: r.f64("params.k_conf")?,
    };
    params
        .validate()
        .map_err(|reason| corrupt("hopset parameters", reason))?;
    let seed = Seed(r.u64("seed")?);
    let build_cost = Cost::new(r.u64("cost.work")?, r.u64("cost.depth")?);
    let graph = r.graph()?;
    let n = graph.n();

    let check_hopset_n = |h: &Hopset| -> Result<(), SnapshotError> {
        if h.n != n {
            return Err(corrupt(
                "hopset vertex count",
                format!("hopset covers {} vertices, graph has {n}", h.n),
            ));
        }
        Ok(())
    };

    let mode = match r.u8("mode tag")? {
        0 => {
            let h_max = read_count(&mut r, "hop budget")?;
            if h_max == 0 {
                // the builder clamps h_max to ≥ 4; a zero budget would
                // silently answer ∞ for every s ≠ t
                return Err(corrupt(
                    "hop budget",
                    "hop budget of 0 cannot answer queries",
                ));
            }
            let hopset = read_hopset_body(&mut r)?;
            check_hopset_n(&hopset)?;
            let extra = hopset.to_extra_edges();
            Mode::Unweighted {
                hopset,
                extra,
                h_max,
            }
        }
        1 => {
            let eta = r.f64("eta")?;
            if !(eta > 0.0 && eta < 1.0) {
                return Err(corrupt("eta", format!("must be in (0,1), got {eta}")));
            }
            let epsilon = r.f64("band epsilon")?;
            let band_count = read_count(&mut r, "band count")?;
            if band_count == 0 && n > 0 {
                // §5 always emits at least the d = 1 band on a non-empty
                // vertex set; zero bands would silently answer ∞ everywhere
                return Err(corrupt(
                    "band count",
                    format!("0 bands cannot serve a {n}-vertex graph"),
                ));
            }
            let mut bands = Vec::with_capacity(band_count.min(1 << 16));
            let mut prev_d = 0u64;
            for i in 0..band_count {
                let d = r.u64("band distance")?;
                if d <= prev_d {
                    return Err(corrupt(
                        "band distance",
                        format!("band {i} at d = {d} does not exceed the previous band"),
                    ));
                }
                prev_d = d;
                let what = r.f64("band grid")?;
                if !(what.is_finite() && what >= 1.0) {
                    return Err(corrupt(
                        "band grid",
                        format!("grid ŵ must be finite and ≥ 1, got {what}"),
                    ));
                }
                let h = read_count(&mut r, "band hop budget")?;
                if h == 0 {
                    // same guard as the unweighted h_max: a zero budget
                    // would make this band silently answer ∞
                    return Err(corrupt(
                        "band hop budget",
                        format!("band {i} has a hop budget of 0"),
                    ));
                }
                let hopset = read_hopset_body(&mut r)?;
                check_hopset_n(&hopset)?;
                let rounding = Rounding { what };
                let band_graph = rounding.round_graph(&graph);
                let extra = hopset.to_extra_edges();
                bands.push(EstimateBand {
                    d,
                    rounding,
                    graph: band_graph,
                    hopset,
                    extra,
                    h,
                });
            }
            Mode::Weighted {
                hopsets: WeightedHopsets::from_parts(bands, eta, epsilon, n),
            }
        }
        other => {
            return Err(corrupt(
                "mode tag",
                format!("expected 0 (unweighted) or 1 (weighted), got {other}"),
            ))
        }
    };
    r.expect_eof()?;
    Ok((
        ApproxShortestPaths {
            repr: Repr::Owned { graph, mode },
        },
        OracleMeta {
            params,
            seed,
            build_cost,
        },
    ))
}

/// Save an oracle snapshot to `path` (buffered, overwrite-safe).
///
/// The bytes are written to a `.tmp` sibling in the same directory and
/// atomically renamed over `path`, so a concurrent or crashed save can
/// never leave a truncated snapshot behind: readers see either the old
/// complete file or the new complete file. Overwriting an existing
/// snapshot needs no prior `rm`.
pub fn save_oracle(
    path: impl AsRef<Path>,
    oracle: &ApproxShortestPaths,
    meta: &OracleMeta,
) -> Result<(), SnapshotError> {
    // The temp sibling's name is unique per process and per call, so
    // concurrent saves to the same path cannot interleave writes into
    // one temp file — each writes its own and the last rename wins with
    // a complete snapshot either way.
    static SAVE_SERIAL: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let serial = SAVE_SERIAL.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let path = path.as_ref();
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(format!(".{}.{serial}.tmp", std::process::id()));
    let tmp = std::path::PathBuf::from(tmp);
    let result = (|| {
        let file = std::fs::File::create(&tmp)?;
        let mut writer = BufWriter::new(file);
        write_oracle(&mut writer, oracle, meta)?;
        writer.flush()?;
        // Force the bytes to disk before the rename: some filesystems
        // journal the rename ahead of the data, and a power loss in that
        // window would otherwise install an empty/truncated snapshot.
        writer.get_ref().sync_all()?;
        std::fs::rename(&tmp, path)?;
        Ok(())
    })();
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    result
}

/// Load an oracle snapshot from `path` (buffered).
pub fn load_oracle(
    path: impl AsRef<Path>,
) -> Result<(ApproxShortestPaths, OracleMeta), SnapshotError> {
    let file = std::fs::File::open(path)?;
    read_oracle(BufReader::new(file))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{HopsetBuilder, OracleBuilder, OracleMode, SpannerBuilder};
    use psh_graph::generators;
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

    #[test]
    fn hopset_round_trips_byte_identically() {
        let g = generators::grid(10, 10);
        let h = HopsetBuilder::unweighted()
            .params(test_params())
            .seed(Seed(3))
            .build(&g)
            .unwrap()
            .artifact
            .into_single();
        let mut buf = Vec::new();
        write_hopset(&mut buf, &h).unwrap();
        let back = read_hopset(buf.as_slice()).unwrap();
        assert_eq!(h, back);
        let mut buf2 = Vec::new();
        write_hopset(&mut buf2, &back).unwrap();
        assert_eq!(buf, buf2);
    }

    #[test]
    fn spanner_round_trips_byte_identically() {
        let mut rng = StdRng::seed_from_u64(4);
        let g = generators::connected_random(60, 160, &mut rng);
        let s = SpannerBuilder::unweighted(3.0)
            .seed(Seed(5))
            .build(&g)
            .unwrap()
            .artifact;
        let mut buf = Vec::new();
        write_spanner(&mut buf, &s).unwrap();
        let back = read_spanner(buf.as_slice()).unwrap();
        assert_eq!(s, back);
    }

    #[test]
    fn artifact_kinds_do_not_cross_load() {
        let g = generators::path(6);
        let s = SpannerBuilder::unweighted(2.0)
            .seed(Seed(1))
            .build(&g)
            .unwrap()
            .artifact;
        let mut buf = Vec::new();
        write_spanner(&mut buf, &s).unwrap();
        assert!(matches!(
            read_hopset(buf.as_slice()).unwrap_err(),
            SnapshotError::WrongArtifact { .. }
        ));
        assert!(matches!(
            read_oracle(buf.as_slice()).unwrap_err(),
            SnapshotError::WrongArtifact { .. }
        ));
    }

    fn oracle_bytes(weighted: bool) -> (Vec<u8>, ApproxShortestPaths, OracleMeta) {
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
        let mut buf = Vec::new();
        write_oracle(&mut buf, &run.artifact, &meta).unwrap();
        (buf, run.artifact, meta)
    }

    #[test]
    fn oracle_round_trips_with_identical_answers_and_meta() {
        for weighted in [false, true] {
            let (buf, fresh, meta) = oracle_bytes(weighted);
            let (served, meta2) = read_oracle(buf.as_slice()).unwrap();
            assert_eq!(meta, meta2);
            assert_eq!(served.hopset_size(), fresh.hopset_size());
            assert_eq!(served.hop_budget(), fresh.hop_budget());
            for (s, t) in [(0u32, 80u32), (3, 77), (40, 41), (7, 7)] {
                assert_eq!(served.query(s, t), fresh.query(s, t), "weighted={weighted}");
            }
            // re-saving the served oracle reproduces the identical bytes
            let mut buf2 = Vec::new();
            write_oracle(&mut buf2, &served, &meta2).unwrap();
            assert_eq!(buf, buf2);
        }
    }

    #[test]
    fn oracle_truncations_never_panic() {
        let (buf, _, _) = oracle_bytes(true);
        // probe a spread of prefixes (every byte would be slow on a large
        // snapshot; step keeps it thorough but quick)
        for cut in (0..buf.len()).step_by(7) {
            match read_oracle(&buf[..cut]) {
                Err(_) => {}
                Ok(_) => panic!("prefix of {cut} bytes parsed as a full oracle"),
            }
        }
    }

    #[test]
    fn corrupt_oracle_fields_are_descriptive_errors() {
        let (buf, _, _) = oracle_bytes(false);
        // mode byte lives right after params+seed+cost+graph; flipping the
        // last byte of the body (an edge weight byte) corrupts *something*
        // but must never panic. Target the mode tag precisely instead:
        // params(40) + seed(8) + cost(16) after the 8-byte header, then
        // the graph body — easier to corrupt the tail:
        let mut bad = buf.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0xFF;
        let _ = read_oracle(bad.as_slice()); // any Err is fine; no panic
                                             // invalid params are rejected up front
        let mut bad_params = buf.clone();
        bad_params[8..16].copy_from_slice(&f64::to_bits(7.0).to_le_bytes()); // ε = 7
        assert!(matches!(
            read_oracle(bad_params.as_slice()).unwrap_err(),
            SnapshotError::Corrupt {
                what: "hopset parameters",
                ..
            }
        ));
        // trailing garbage is rejected
        let mut trailing = buf.clone();
        trailing.push(0);
        assert!(matches!(
            read_oracle(trailing.as_slice()).unwrap_err(),
            SnapshotError::Corrupt {
                what: "trailer",
                ..
            }
        ));
    }

    #[test]
    fn zeroed_hop_budget_and_band_count_are_rejected() {
        // body offset of the mode byte: header(8) + params(40) + seed(8)
        // + cost(16) + graph body (n u64 + m u64 + 16 bytes per edge)
        let mode_at = |m: usize| 72 + 16 + 16 * m;

        let (buf, fresh, _) = oracle_bytes(false);
        let at = mode_at(fresh.graph().m());
        assert_eq!(buf[at], 0, "mode byte should be unweighted");
        let mut bad = buf.clone();
        bad[at + 1..at + 9].fill(0); // h_max := 0
        assert!(matches!(
            read_oracle(bad.as_slice()).unwrap_err(),
            SnapshotError::Corrupt {
                what: "hop budget",
                ..
            }
        ));

        let (buf, fresh, _) = oracle_bytes(true);
        let at = mode_at(fresh.graph().m());
        assert_eq!(buf[at], 1, "mode byte should be weighted");
        let mut bad = buf[..at + 1 + 16 + 8].to_vec(); // keep eta + epsilon
        bad[at + 17..at + 25].fill(0); // band count := 0, body ends there
        assert!(matches!(
            read_oracle(bad.as_slice()).unwrap_err(),
            SnapshotError::Corrupt {
                what: "band count",
                ..
            }
        ));
    }

    #[test]
    fn save_and_load_via_files() {
        let (_, fresh, meta) = oracle_bytes(false);
        let path = std::env::temp_dir().join("psh_snapshot_unit_test.snap");
        save_oracle(&path, &fresh, &meta).unwrap();
        // overwrite-safe: saving over an existing snapshot needs no rm,
        // and the unique temp siblings used for the atomic rename are gone
        save_oracle(&path, &fresh, &meta).unwrap();
        let leftovers = std::fs::read_dir(std::env::temp_dir())
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| {
                e.file_name()
                    .to_string_lossy()
                    .starts_with("psh_snapshot_unit_test.snap.")
            })
            .count();
        assert_eq!(leftovers, 0, "temp siblings must be renamed away");
        let (served, meta2) = load_oracle(&path).unwrap();
        assert_eq!(meta, meta2);
        assert_eq!(served.query(0, 80), fresh.query(0, 80));
        std::fs::remove_file(&path).ok();
        assert!(matches!(
            load_oracle(&path).unwrap_err(),
            SnapshotError::Io(_)
        ));
    }
}
