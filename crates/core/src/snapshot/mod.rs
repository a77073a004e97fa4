//! Oracle snapshots: save a preprocessed oracle once, serve it from any
//! later process.
//!
//! There is one on-disk format, the zero-copy v2 layout of [`v2`]: the
//! oracle's query-time state as page-aligned slabs that a later process
//! maps and serves in place ([`load_oracle_v2`]) or bulk-reads into one
//! aligned buffer. The header (magic, version, kind) and the error type
//! come from [`psh_graph::io`]; [`v2`] alone defines the oracle's
//! sections: its META block and the five graph slabs. Files of any other version, such as the retired version-1
//! stream format, are refused with [`SnapshotError::UnsupportedVersion`]
//! and are rebuilt from the seed they recorded. [`journal`] layers
//! append-only edge-update logs over a base snapshot.
//!
//! A served oracle answers `query` / `query_batch` **and reports the same
//! costs** byte-identically to the fresh build it was saved from
//! (enforced by the `serving`, `service_stress` and `net_loopback`
//! integration tests, which serve mapped images too). Malformed input is
//! a descriptive [`SnapshotError`], never a panic.
//!
//! ```
//! use std::sync::Arc;
//! use psh_core::api::{OracleBuilder, Seed};
//! use psh_core::snapshot::{read_oracle_v2, write_oracle_v2_bytes, OracleMeta, Verify};
//! use psh_graph::{generators, SnapshotSource};
//!
//! let g = generators::grid(8, 8);
//! let run = OracleBuilder::new().seed(Seed(7)).build(&g).unwrap();
//! let meta = OracleMeta::of_run(&run, Default::default());
//!
//! let bytes = write_oracle_v2_bytes(&run.artifact, &meta).unwrap();
//! let source = Arc::new(SnapshotSource::from_bytes(&bytes));
//! let (served, meta2) = read_oracle_v2(source, Verify::Bounds).unwrap();
//! assert_eq!(meta2.seed, Seed(7));
//! assert_eq!(served.query(0, 63), run.artifact.query(0, 63));
//! ```

use crate::api::Run;
use crate::hopset::HopsetParams;
use crate::oracle::ApproxShortestPaths;
use crate::Seed;
use psh_pram::Cost;

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
    inspect_v2, load_oracle_v2, read_oracle_v2, save_oracle_v2, section_name, verify_oracle_v2,
    write_oracle_v2_bytes, OracleSections,
};

/// Provenance stored alongside an oracle: the hopset parameters its
/// caller recorded, the seed, and the preprocessing cost in the paper's
/// currency. The oracle is its graph, so nothing rebuilds from `params`
/// any more; they are stored and round-trip so a file keeps the record
/// of how its graph was meant to be preprocessed.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct OracleMeta {
    /// The hopset parameters recorded with the oracle (validated on load;
    /// never read to build anything).
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
