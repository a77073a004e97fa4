//! # psh-core — Improved Parallel Algorithms for Spanners and Hopsets
//!
//! The primary contribution of Miller, Peng, Vladu & Xu (SPAA 2015),
//! reproduced in full:
//!
//! * [`spanner`] — **Theorem 1.1**: `O(k)`-stretch spanners of expected
//!   size `O(n^{1+1/k})` on unweighted graphs (Algorithm 2) and
//!   `O(n^{1+1/k} log k)` on weighted graphs (Algorithm 3 + the `O(log k)`
//!   well-separated grouping), in `O(m)` work.
//! * [`hopset`] — **Theorem 1.2**: `(ε·log n, h, O(n))`-hopsets built by
//!   recursive exponential start time clustering with star and clique
//!   shortcuts on large clusters (Algorithm 4), the weighted extension via
//!   Klein–Subramanian rounding (§5), the polynomially-bounded-weight
//!   preprocessing (Appendix B), and the low-depth limited hopsets
//!   (Appendix C).
//! * [`oracle`] — the served shortest-path oracle: a graph and an exact
//!   bidirectional Dijkstra, answering `s`–`t` queries (or whole batches,
//!   fanned across the psh-exec pool). Theorem 1.2's `(1+ε)`-approximate
//!   oracle left the serving path: at the default parameters its hopsets
//!   were one star per band, its answers were already exact, and it
//!   answered slower (see the module docs).
//! * [`snapshot`] — zero-copy oracle snapshots and delta journals, so
//!   preprocessing and serving run as separate processes.
//! * [`service`] — the concurrent serving front: an [`Arc`]-shared
//!   oracle behind an admission queue that serves up to the policy's
//!   thread count of `query_batch` calls at once and coalesces the
//!   queries arriving meanwhile into the next ones, with per-request
//!   latency capture and [`service::ServiceStats`].
//!
//! [`Arc`]: std::sync::Arc
//!
//! Everything is instrumented with the [`psh_pram::Cost`] work/depth model
//! and is deterministic given an RNG seed.

pub mod api;
pub mod error;
pub mod hopset;
pub mod oracle;
pub mod service;
pub mod snapshot;
pub mod spanner;

pub use api::{
    HopsetArtifact, HopsetBuilder, HopsetKind, OracleBuilder, Run, Seed, SpannerBuilder,
    SpannerKind,
};
pub use error::PshError;
pub use hopset::{Hopset, HopsetParams};
pub use oracle::ApproxShortestPaths;
pub use service::{CacheConfig, OracleService, ServiceConfig, ServiceStats};
pub use spanner::Spanner;
