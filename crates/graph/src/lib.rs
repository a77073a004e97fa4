//! # psh-graph — the graph substrate
//!
//! Everything in the paper runs on undirected graphs with positive integer
//! edge weights (§2 normalizes the minimum weight to 1; Appendix A buckets
//! searches by integer distance parts). This crate provides that substrate:
//!
//! * [`CsrGraph`] — compressed-sparse-row undirected graphs with `u64`
//!   weights and *edge provenance*: every adjacency slot knows which
//!   canonical undirected edge it came from, so higher layers (spanners,
//!   quotient graphs) can always map work back to original edges.
//! * [`generators`] — synthetic workloads: Erdős–Rényi, preferential
//!   attachment, grids/tori, paths, trees, geometric graphs, and weight
//!   assigners (uniform, log-uniform over a ratio `U`).
//! * [`frontier`] — the shared level-synchronous frontier engine: the
//!   two-phase claim/commit round loop (bucket → filter → resolve →
//!   commit → expand) that the clustering race and Dial drive, executing
//!   on a [`psh_exec::Executor`] with engine-measured work/depth.
//! * [`traversal`] — the search engines the paper builds on: bucketed
//!   integer-weight SSSP ("weighted parallel BFS", Dial's algorithm as
//!   used by \[KS97\]) as a [`frontier::Frontier`], hop-limited
//!   Bellman–Ford (the hopset query engine), and exact Dijkstra: the
//!   verification referee, and the bidirectional search the served
//!   oracle answers with.
//! * [`delta`] — incremental edge updates: the [`GraphDelta`] journal of
//!   validated insert/delete ops and [`CsrGraph::apply_delta`], the sorted
//!   merge producing a fresh CSR byte-identical to a full rebuild — the
//!   substrate of the serving tier's zero-downtime oracle hot-swap.
//! * [`connectivity`] / [`union_find`] — connected components (parallel
//!   label propagation and union-find), used by Appendix B's hierarchical
//!   weight decomposition.
//! * [`quotient`] — contraction `G/H` keeping the lightest parallel edge,
//!   exactly the quotient operation of §2, with provenance to original
//!   edges.
//! * [`view`] — the [`GraphView`] trait every algorithm layer is generic
//!   over, plus [`CsrView`] / [`SplitArena`]: borrowed per-cluster
//!   subgraph views backed by reusable per-recursion-level scratch
//!   arenas, so Algorithm 4's recursion never materializes a `CsrGraph`
//!   per cluster per level.
//! * [`subgraph`] — the materializing split (per-cluster owned
//!   subgraphs): the reference the arena split is tested against.
//! * [`source`] — the zero-copy v2 snapshot backing: one `mmap` or
//!   aligned read ([`SnapshotSource`]) and [`MmapView`], the
//!   [`GraphView`] that serves CSR slabs straight off those bytes.
//!
//! All traversals are instrumented with the [`psh_pram::Cost`] work/depth
//! model: work counts edge scans / relaxations, depth counts synchronous
//! rounds.

pub mod connectivity;
pub mod csr;
pub mod delta;
pub mod frontier;
pub mod generators;
pub mod io;
pub mod quotient;
pub mod source;
pub mod subgraph;
pub mod traversal;
pub mod union_find;
pub mod view;

pub use csr::{CsrGraph, Edge, VertexId, Weight, INF};
pub use delta::{DeltaError, DeltaOp, GraphDelta};
pub use frontier::{drive, BucketQueue, Frontier};
pub use quotient::QuotientGraph;
pub use source::{LoadMode, MmapView, SnapshotSource, Verify};
pub use subgraph::SubGraph;
pub use view::{CsrView, GraphView, SplitArena};
