//! # The pipeline layer — one coherent way to build everything
//!
//! Every construction in the reproduction is driven through a typed
//! builder that consumes a [`CsrGraph`](psh_graph::CsrGraph) plus a
//! [`Seed`] and returns `Result<Run<A>, _>`:
//!
//! | builder | artifact | paper result |
//! |---|---|---|
//! | [`ClusterBuilder`] | [`Clustering`](psh_cluster::Clustering) | Algorithm 1 (Lemmas 2.1–2.3) |
//! | [`SpannerBuilder`] | [`Spanner`](psh_core::Spanner) | Theorem 1.1 (Algorithms 2–3) |
//! | [`HopsetBuilder`] | [`HopsetArtifact`] | Theorem 1.2 (§4, §5, Appendix C) |
//! | [`OracleBuilder`] | [`ApproxShortestPaths`](psh_core::ApproxShortestPaths) | Theorem 1.2 end-to-end |
//!
//! The [`Run`] wrapper is the pipeline's unit of account: it carries the
//! artifact, the [`Cost`](psh_pram::Cost) in the paper's work/depth
//! currency, and the [`Seed`] that produced it — so any run can be
//! replayed, compared, or cached by `(input, parameters, seed)`.
//! Errors are [`PshError`] values ([`ClusterError`] at the clustering
//! layer), never panics.
//!
//! ```
//! use psh::pipeline::{HopsetBuilder, OracleBuilder, Seed, SpannerBuilder};
//! use psh::prelude::*;
//!
//! let g = generators::grid(16, 16);
//!
//! // a 3-stretch-class spanner, reproducible by its seed
//! let spanner = SpannerBuilder::unweighted(3.0).seed(Seed(7)).build(&g)?;
//! assert!(spanner.artifact.is_subgraph_of(&g));
//!
//! // the same seed rebuilds the identical artifact
//! let again = SpannerBuilder::unweighted(3.0).seed(spanner.seed).build(&g)?;
//! assert_eq!(again.artifact, spanner.artifact);
//!
//! // a hopset and the end-to-end distance oracle
//! let hopset = HopsetBuilder::unweighted().epsilon(0.5).seed(Seed(8)).build(&g)?;
//! assert!(hopset.artifact.size() > 0);
//! let oracle = OracleBuilder::new().seed(Seed(9)).build(&g)?;
//! let (answer, _) = oracle.artifact.query(0, 255);
//! assert!(answer.distance >= oracle.artifact.query_exact(0, 255) as f64);
//!
//! // invalid parameters are typed errors, not panics
//! assert!(SpannerBuilder::unweighted(0.0).build(&g).is_err());
//! # Ok::<(), psh::pipeline::PshError>(())
//! ```
//!
//! A finished [`Run`] is also the unit of **serving**: snapshot an oracle
//! run with [`psh_core::snapshot`] (`save_oracle_v2` /
//! `OracleMeta::of_run`), and any later process maps it back in
//! (`load_oracle_v2`) and answers query batches through
//! [`ApproxShortestPaths::query_batch`](psh_core::ApproxShortestPaths::query_batch)
//! without re-running the preprocessing — byte-identical to the fresh
//! build for every [`ExecutionPolicy`](psh_exec::ExecutionPolicy).
//!
//! The pre-builder free functions (`est_cluster`, `unweighted_spanner`,
//! `weighted_spanner`, `build_hopset`, the `ApproxShortestPaths`
//! constructors) are gone: the builders are the single construction
//! surface. Callers that thread their own RNG use each builder's
//! `build_with_rng` spine, which the `builder_equivalence` suite proves
//! byte-identical to seeded `build` calls.

pub use psh_cluster::api::{ClusterBuilder, Run, Seed};
pub use psh_cluster::error::ClusterError;
pub use psh_core::api::{
    HopsetArtifact, HopsetBuilder, HopsetKind, OracleBuilder, SpannerBuilder, SpannerKind,
};
pub use psh_core::error::PshError;
