//! # psh — Parallel Spanners and Hopsets
//!
//! A full reproduction of *"Improved Parallel Algorithms for Spanners and
//! Hopsets"* (Miller, Peng, Vladu, Xu — SPAA 2015) as a Rust workspace:
//!
//! | crate | contents |
//! |---|---|
//! | [`psh_exec`] | the real parallel execution layer: thread pool, deterministic combinators, [`ExecutionPolicy`](psh_exec::ExecutionPolicy) |
//! | [`psh_graph`] | CSR graphs and the `GraphView` abstraction (arena-backed `CsrView`s), generators, the shared frontier engine, bucketed SSSP (Dial) / hop-limited Bellman–Ford / Dijkstra, connectivity, quotient graphs |
//! | [`psh_pram`] | the work/depth (PRAM) cost model every algorithm reports in |
//! | [`psh_cluster`] | exponential start time clustering (Algorithm 1) |
//! | [`psh_core`] | spanners (Theorem 1.1), hopsets (Theorem 1.2), the approximate-distance oracle, Appendices B–C |
//! | [`psh_baselines`] | greedy spanner, Baswana–Sen, sampled-clique and sampled-hierarchy hopsets |
//! | [`psh_net`] | the TCP serving tier: length-prefixed wire protocol, multi-threaded [`NetServer`](psh_net::NetServer) feeding the shared `OracleService`, blocking [`NetClient`](psh_net::NetClient) |
//!
//! ## The pipeline API
//!
//! Constructions are driven through the typed builders of [`pipeline`]:
//! each consumes a [`CsrGraph`](psh_graph::CsrGraph) plus a
//! [`pipeline::Seed`] and returns a [`pipeline::Run`] — artifact, cost,
//! and the seed that produced it — or a typed
//! [`pipeline::PshError`] instead of panicking:
//!
//! ```
//! use psh::prelude::*;
//!
//! let g = generators::grid(10, 10);
//! let run = SpannerBuilder::unweighted(2.0).seed(Seed(42)).build(&g).unwrap();
//! println!("spanner: {} edges, {}", run.artifact.size(), run.cost);
//! assert!(run.artifact.is_subgraph_of(&g));
//! ```
//!
//! This facade re-exports everything; `use psh::prelude::*` pulls in the
//! common working set. See the `examples/` directory for runnable tours
//! and the README for a quickstart; the experiment binaries live in
//! `crates/bench/src/bin/`.

pub use psh_baselines as baselines;
pub use psh_cluster as cluster;
pub use psh_core as core;
pub use psh_exec as exec;
pub use psh_graph as graph;
pub use psh_net as net;
pub use psh_pram as pram;

pub mod pipeline;

/// The common working set: graph types and generators, the pipeline
/// builders with their `Seed`/`Run`/error vocabulary, the execution
/// policy that selects sequential vs pooled execution, the artifact
/// types the builders produce, the snapshot serving layer, the
/// concurrent [`OracleService`](psh_core::service::OracleService)
/// front, the TCP tier's client/server pair, and the cost model.
pub mod prelude {
    pub use crate::pipeline::{
        ClusterBuilder, ClusterError, HopsetArtifact, HopsetBuilder, HopsetKind, OracleBuilder,
        OracleMode, PshError, Run, Seed, SpannerBuilder, SpannerKind,
    };
    pub use psh_cluster::{Clustering, ExponentialShifts};
    pub use psh_core::hopset::{Hopset, HopsetParams, WeightClassDecomposition};
    pub use psh_core::oracle::{ApproxShortestPaths, QueryResult};
    pub use psh_core::service::{OracleService, ServiceConfig, ServiceStats};
    pub use psh_core::snapshot::{self, OracleMeta, SnapshotError};
    pub use psh_core::spanner::Spanner;
    pub use psh_exec::{ExecutionPolicy, Executor};
    pub use psh_graph::{
        generators, CsrGraph, CsrView, DeltaError, DeltaOp, Edge, GraphDelta, GraphView,
        SplitArena, VertexId, Weight, INF,
    };
    pub use psh_net::{
        NetClient, NetServer, ProtocolError, ReloadSummary, ServerConfig, ServerStats, WireStats,
    };
    pub use psh_pram::Cost;
}

#[cfg(test)]
mod tests {
    #[test]
    fn prelude_compiles_and_reexports() {
        use crate::prelude::*;
        let g = generators::path(4);
        assert_eq!(g.n(), 4);
        let c = Cost::new(1, 1);
        assert_eq!(c.work, 1);
        let run = SpannerBuilder::unweighted(2.0)
            .seed(Seed(1))
            .build(&g)
            .unwrap();
        assert_eq!(run.artifact.size(), 3, "a path is its own spanner");
    }
}
