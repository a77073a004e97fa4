//! Set-up: from a text edge list to an answering snapshot.
//!
//! Every workload runs the same offline pipeline — parse the edge list,
//! `OracleBuilder::build`, `save_oracle_v2`, mmap-open the snapshot — and
//! then reaches its first answer: in process for `build`; for
//! `serve_uniform` through an `OracleService` behind a `NetServer` on loopback, with the
//! journal reload hook `psh-server --watch-journal` installs, and one
//! answer over each caller's connection.

use crate::config::POLICY;
use psh_bench::alloc;
use psh_core::service::{OracleService, ServiceConfig};
use psh_core::snapshot::{load_oracle_v2, save_oracle_v2, JournalReloader, OracleMeta};
use psh_core::{ApproxShortestPaths, HopsetParams, OracleBuilder, Seed};
use psh_graph::io::read_graph;
use psh_graph::{CsrGraph, LoadMode, VertexId};
use psh_net::client::NetClient;
use psh_net::server::{NetServer, ServerConfig};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Client socket deadline: a stalled call fails (and counts in
/// `failed`) instead of hanging the run.
pub const CALL_TIMEOUT: Duration = Duration::from_secs(20);

/// Files of one run, all inside the run's work directory.
pub struct Paths {
    pub dir: PathBuf,
    pub snapshot: PathBuf,
}

impl Paths {
    pub fn new(dir: PathBuf) -> Paths {
        Paths {
            snapshot: dir.join("oracle.snap"),
            dir,
        }
    }

    /// The text edge list of the run's `k`-th graph.
    pub fn edges(&self, k: usize) -> PathBuf {
        self.dir.join(format!("graph-{k}.txt"))
    }

    pub fn journal(&self) -> PathBuf {
        psh_core::snapshot::journal_path(&self.snapshot)
    }
}

/// Timings and sizes of one set-up.
#[derive(Clone, Copy, Debug, Default)]
pub struct Stage {
    pub read_s: f64,
    pub build_s: f64,
    pub save_s: f64,
    pub open_ms: f64,
    pub total_s: f64,
    pub peak_bytes: usize,
    pub snapshot_bytes: u64,
    pub build_work: u64,
}

/// What the offline pipeline leaves: the parsed graph (the base later
/// updates apply to), the mmap-opened oracle and its provenance.
pub struct Offline {
    pub graph: CsrGraph,
    pub oracle: Arc<ApproxShortestPaths>,
    pub meta: OracleMeta,
}

fn err(what: &str) -> impl Fn(&dyn std::fmt::Display) -> String + '_ {
    move |e| format!("{what}: {e}")
}

/// The oracle builder every build in the run uses: default parameters,
/// the run's oracle seed, the pinned policy.
pub fn oracle_builder(seed: u64) -> OracleBuilder {
    OracleBuilder::new().execution(POLICY).seed(Seed(seed))
}

fn offline(paths: &Paths, edges: &Path, seed: u64, st: &mut Stage) -> Result<Offline, String> {
    let t = Instant::now();
    let file = std::fs::File::open(edges).map_err(|e| err("open edge list")(&e))?;
    let graph =
        read_graph(std::io::BufReader::new(file)).map_err(|e| err("parse edge list")(&e))?;
    st.read_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let run = oracle_builder(seed)
        .build(&graph)
        .map_err(|e| err("oracle build")(&e))?;
    st.build_s = t.elapsed().as_secs_f64();
    st.build_work = run.cost.work;

    let t = Instant::now();
    let meta = OracleMeta::of_run(&run, HopsetParams::default());
    save_oracle_v2(&paths.snapshot, &run.artifact, &meta).map_err(|e| err("save snapshot")(&e))?;
    st.save_s = t.elapsed().as_secs_f64();
    drop(run);
    st.snapshot_bytes = std::fs::metadata(&paths.snapshot)
        .map_err(|e| err("stat snapshot")(&e))?
        .len();

    let t = Instant::now();
    let (oracle, meta) =
        load_oracle_v2(&paths.snapshot, LoadMode::Mmap).map_err(|e| err("open snapshot")(&e))?;
    st.open_ms = t.elapsed().as_secs_f64() * 1e3;
    Ok(Offline {
        graph,
        oracle: Arc::new(oracle),
        meta,
    })
}

/// `build`'s set-up: the offline pipeline from the edge list `edges` and
/// one in-process answer.
pub fn library(
    paths: &Paths,
    edges: &Path,
    seed: u64,
    probe: (VertexId, VertexId),
) -> Result<(Offline, Stage), String> {
    // every set-up starts from the bare snapshot, with no journal
    let _ = std::fs::remove_file(paths.journal());
    let mut st = Stage::default();
    let base = alloc::live_bytes();
    alloc::reset_peak();
    let t = Instant::now();
    let off = offline(paths, edges, seed, &mut st)?;
    std::hint::black_box(off.oracle.query(probe.0, probe.1));
    st.total_s = t.elapsed().as_secs_f64();
    st.peak_bytes = alloc::peak_above(base);
    Ok((off, st))
}

/// A served snapshot: the server, its service, two connected callers,
/// and the epoch-0 oracle they are served from.
pub struct Stack {
    pub server: NetServer,
    pub service: Arc<OracleService>,
    pub clients: Vec<NetClient>,
    pub oracle: Arc<ApproxShortestPaths>,
    pub meta: OracleMeta,
}

/// A caller connection with the run's socket deadlines.
pub fn connect(addr: SocketAddr) -> Result<NetClient, String> {
    let mut c = NetClient::connect(addr).map_err(|e| err("connect")(&e))?;
    c.set_timeouts(Some(CALL_TIMEOUT), Some(CALL_TIMEOUT))
        .map_err(|e| err("client timeouts")(&e))?;
    Ok(c)
}

/// The service configuration: the pinned policy, the answer cache off
/// (uniform pairs never repeat).
pub fn service_config() -> ServiceConfig {
    ServiceConfig::with_policy(POLICY)
}

/// A `NetServer` on an ephemeral loopback port in front of `service`.
pub fn bind(service: &Arc<OracleService>, seed: u64) -> Result<NetServer, String> {
    let config = ServerConfig {
        seed,
        ..ServerConfig::default()
    };
    NetServer::bind("127.0.0.1:0", Arc::clone(service), config).map_err(|e| err("bind server")(&e))
}

/// Install the reload hook `psh-server --watch-journal` wires in: on a
/// wire `Reload`, fold the new records of `base`'s journal into `graph`
/// and hot-swap the service's oracle.
pub fn watch_journal(
    server: &NetServer,
    service: &Arc<OracleService>,
    base: &Path,
    graph: CsrGraph,
    meta: OracleMeta,
) {
    let reloader = Mutex::new(JournalReloader::new(base, graph, meta));
    let svc = Arc::clone(service);
    server.set_reload_hook(Box::new(move || {
        reloader
            .lock()
            .map_err(|_| "reloader poisoned".to_string())?
            .poll(&svc)
            .map_err(|e| e.to_string())
    }));
}

/// `serve_uniform`'s set-up: the offline pipeline from the edge list
/// `edges`, then the service, the server with its reload hook, and one
/// answer per caller connection.
pub fn served(
    paths: &Paths,
    edges: &Path,
    seed: u64,
    probe: (VertexId, VertexId),
) -> Result<(Stack, Stage), String> {
    // a journal left by an earlier set-up would be folded by the new
    // reloader; every set-up starts from the bare snapshot
    let _ = std::fs::remove_file(paths.journal());
    let mut st = Stage::default();
    let base = alloc::live_bytes();
    alloc::reset_peak();
    let t = Instant::now();
    let off = offline(paths, edges, seed, &mut st)?;
    let service = Arc::new(OracleService::from_arc(
        off.oracle.clone(),
        service_config(),
    ));
    let server = bind(&service, seed)?;
    watch_journal(&server, &service, &paths.snapshot, off.graph, off.meta);
    let mut stack = Stack {
        server,
        service,
        clients: Vec::new(),
        oracle: off.oracle,
        meta: off.meta,
    };
    for _ in 0..2 {
        let mut c = connect(stack.server.local_addr())?;
        c.query(probe.0, probe.1)
            .map_err(|e| err("first answer")(&e))?;
        stack.clients.push(c);
    }
    st.total_s = t.elapsed().as_secs_f64();
    st.peak_bytes = alloc::peak_above(base);
    Ok((stack, st))
}
