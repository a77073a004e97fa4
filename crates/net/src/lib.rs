//! # psh-net — the TCP serving tier
//!
//! Everything below this crate serves queries inside one address space;
//! `psh-net` puts the preprocess-once/serve-forever oracle behind a
//! wire. Three layers:
//!
//! * [`protocol`] — the length-prefixed binary frame format (`b"PSHN"`
//!   magic + version + op, mirroring the `psh_graph::io` snapshot
//!   framing), typed [`ProtocolError`]s for
//!   every malformed input, and the [`Request`](protocol::Request)/
//!   [`Response`](protocol::Response) message vocabulary;
//! * [`server`] — [`NetServer`]: an accept loop plus
//!   per-connection reader threads feeding one shared
//!   [`OracleService`](psh_core::service::OracleService), so queries
//!   from different sockets are served side by side up to the service
//!   policy's thread count and coalesce into shared batches beyond it;
//!   graceful
//!   shutdown, connection/request caps, read/write timeouts;
//! * [`client`] — [`NetClient`]: blocking `query` /
//!   `query_batch` / streaming `subscribe` replay, plus stats/info/
//!   shutdown admin calls.
//!
//! The correctness contract of the whole tier: **answers over the wire
//! are byte-identical to in-process queries** — distances travel as
//! IEEE-754 bit patterns, the service coalesces without reordering
//! answers, and the loopback equivalence suite (`tests/net_loopback.rs`)
//! pins this for every `ExecutionPolicy`.
//!
//! The `psh-server` / `psh-client` binaries in `psh-bench` wrap these
//! types into a deployable pair; endpoints default to the `PSH_ADDR`
//! environment variable (see [`server::env_addr`]).

pub mod client;
pub mod protocol;
pub mod server;

pub use client::NetClient;
pub use protocol::{ProtocolError, ReloadSummary, ReplaySummary, ServerInfo, WireStats};
pub use server::{NetServer, ReloadHook, ServerConfig, ServerStats};
