//! The multi-threaded TCP server: an accept loop feeding per-connection
//! reader threads into one shared [`OracleService`].
//!
//! The serving architecture is deliberately thin: each connection gets a
//! blocking reader thread that decodes [`Request`]s and calls straight
//! into the service. [`OracleService`]'s leader–follower admission queue
//! never asks where a caller came from, so sockets share it exactly like
//! same-process threads do: up to the service policy's
//! [`threads`](psh_exec::ExecutionPolicy::threads) connections are
//! served side by side, each by its own sweep, and queries arriving on
//! **different sockets** merge into shared `query_batch` calls only when
//! the callers outnumber that cap. The wire tier inherits the
//! in-process scheduling for free. Answers stay byte-identical to
//! in-process queries for the same reason: the service maps every pair
//! independently through the oracle, and the wire codec ships `f64` bit
//! patterns verbatim.
//!
//! ## Lifecycle
//!
//! [`NetServer::bind`] spawns the accept loop and returns immediately;
//! [`NetServer::shutdown`] (also run on drop) stops accepting, closes
//! every live socket, and joins all threads — in-flight batches finish,
//! half-read frames do not. A client can also request shutdown over the
//! wire (`OP_SHUTDOWN`, e.g. `psh-client --shutdown`), which the serving
//! bin observes via [`NetServer::wait`] returning.
//!
//! ## Admission control
//!
//! [`ServerConfig`] bounds the blast radius of misbehaving clients:
//! `max_conns` concurrent sockets (excess connections get a typed
//! [`ERR_BUSY`] frame and are closed),
//! `max_conn_requests` queries per connection and `max_total_requests`
//! per server ([`ERR_CONN_CAP`] /
//! [`ERR_GLOBAL_CAP`], connection
//! closed), and read/write timeouts so an idle or stalled peer cannot
//! pin its thread forever.
//!
//! ## Hot reload
//!
//! A server started with a [`ReloadHook`] (see
//! [`NetServer::set_reload_hook`]; `psh-server --watch-journal` wires a
//! [`JournalReloader`](psh_core::snapshot::JournalReloader) in) answers
//! `OP_RELOAD` by applying any new journal records and hot-swapping the
//! service's oracle at a batch boundary — queries on other connections
//! keep flowing on the old epoch until the swap lands, then see the new
//! one. Reloads serialize behind one mutex; queries never wait on it.

use crate::protocol::{
    op_name, read_frame, write_response, ReloadSummary, ReplaySummary, Request, Response,
    ServerInfo, ERR_BAD_REQUEST, ERR_BUSY, ERR_CONN_CAP, ERR_GLOBAL_CAP, ERR_NO_RELOAD,
    ERR_OUT_OF_RANGE, ERR_RELOAD_FAILED, ERR_SHUTTING_DOWN,
};
use psh_core::service::OracleService;
use psh_core::snapshot::ReloadReport;
use std::any::Any;
use std::io::{BufReader, BufWriter};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The environment variable both tiers read for their default endpoint
/// (PVXS-style env-configured addressing): the server binds it, the
/// client connects to it. Falls back to [`DEFAULT_ADDR`].
pub const ADDR_ENV: &str = "PSH_ADDR";
/// Default endpoint when [`ADDR_ENV`] is unset.
pub const DEFAULT_ADDR: &str = "127.0.0.1:7471";

/// The endpoint from the environment: `$PSH_ADDR`, or [`DEFAULT_ADDR`].
pub fn env_addr() -> String {
    std::env::var(ADDR_ENV).unwrap_or_else(|_| DEFAULT_ADDR.to_string())
}

/// Admission-control knobs for a [`NetServer`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ServerConfig {
    /// Concurrent connections served at once (default 64). Connection
    /// number `max_conns + 1` receives `ERR_BUSY` and is closed.
    pub max_conns: usize,
    /// Queries one connection may issue over its lifetime (default
    /// unlimited). A batch of `k` pairs counts `k`. Exceeding it gets
    /// `ERR_CONN_CAP` and the connection is dropped.
    pub max_conn_requests: u64,
    /// Queries the server answers over its lifetime, across all
    /// connections (default unlimited). Exceeding it gets
    /// `ERR_GLOBAL_CAP` and the connection is dropped.
    pub max_total_requests: u64,
    /// Per-socket read timeout (default 30 s). A connection idle longer
    /// than this is closed — blocking reader threads must not be
    /// pinnable forever by a silent peer.
    pub read_timeout: Option<Duration>,
    /// Per-socket write timeout (default 30 s): a peer that stops
    /// draining its answers is dropped rather than stalling its thread.
    pub write_timeout: Option<Duration>,
    /// The oracle's build seed, advertised in `OP_INFO_REPLY` so clients
    /// can reproduce the served oracle (0 when unknown, e.g. embedders
    /// that built the oracle themselves).
    pub seed: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            max_conns: 64,
            max_conn_requests: u64::MAX,
            max_total_requests: u64::MAX,
            read_timeout: Some(Duration::from_secs(30)),
            write_timeout: Some(Duration::from_secs(30)),
            seed: 0,
        }
    }
}

/// A point-in-time snapshot of a server's connection-level counters
/// (the query-level numbers live in the shared service's
/// [`ServiceStats`](psh_core::service::ServiceStats)).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Connections accepted and served.
    pub conns_accepted: u64,
    /// Connections turned away at the `max_conns` cap.
    pub conns_rejected: u64,
    /// Connections closed because their socket deadline elapsed (both
    /// `WouldBlock` and `TimedOut` land here — the platform decides
    /// which kind a timed-out socket read reports, so the server folds
    /// them into one counter instead of leaking the distinction).
    pub conns_timed_out: u64,
    /// Connections currently live.
    pub active_conns: usize,
    /// Queries answered over the wire (batch of `k` counts `k`).
    pub queries_served: u64,
    /// Queries rejected (out-of-range ids, caps, malformed frames).
    pub queries_rejected: u64,
    /// Request frames decoded.
    pub frames_in: u64,
    /// Response frames written (stream chunks included).
    pub frames_out: u64,
}

struct Counters {
    conns_accepted: AtomicU64,
    conns_rejected: AtomicU64,
    conns_timed_out: AtomicU64,
    queries_served: AtomicU64,
    queries_rejected: AtomicU64,
    frames_in: AtomicU64,
    frames_out: AtomicU64,
}

/// A server-side reload source: polled on every wire `OP_RELOAD`, it
/// applies any new journal records to the service (hot-swapping the
/// oracle) and reports what it did — `Ok(None)` when nothing was new.
/// The hook runs under a server-wide mutex, so concurrent reload
/// requests serialize: at most one rebuild is in flight at a time, and
/// queries keep flowing on the current epoch throughout. Typically a
/// [`psh_core::snapshot::JournalReloader`] wrapped in a closure.
///
/// A hook that returns `Err` or panics answers that request with
/// [`ERR_RELOAD_FAILED`] (a panic's message included); the connection
/// stays open and the same hook is called again on the next reload.
/// `JournalReloader::poll` changes its state only after a completed
/// swap, so retrying it is safe.
pub type ReloadHook = Box<dyn FnMut() -> Result<Option<ReloadReport>, String> + Send>;

struct Shared {
    service: Arc<OracleService>,
    config: ServerConfig,
    stop: AtomicBool,
    active_conns: AtomicUsize,
    /// Global admission counter (`max_total_requests` is enforced with a
    /// compare-exchange-free fetch_add + rollback, so concurrent
    /// connections cannot double-spend the budget).
    total_admitted: AtomicU64,
    counters: Counters,
    /// Live sockets (keyed by connection id), force-closed on shutdown
    /// so blocked reader threads unblock immediately instead of waiting
    /// out their read timeout. Entries are removed when their connection
    /// ends — a lingering clone here would hold the peer's socket open
    /// past the server-side close (and leak fds on a long-lived server).
    conns: Mutex<Vec<(u64, TcpStream)>>,
    next_conn_id: AtomicU64,
    /// The wire-triggered reload source (`None` until
    /// [`NetServer::set_reload_hook`]); the mutex serializes reloads.
    reload: Mutex<Option<ReloadHook>>,
}

impl Shared {
    /// Try to admit `k` more queries under both caps; on rejection
    /// returns the violated cap's error code.
    fn admit(&self, conn_served: u64, k: u64) -> Result<(), u16> {
        if conn_served.saturating_add(k) > self.config.max_conn_requests {
            return Err(ERR_CONN_CAP);
        }
        let before = self.total_admitted.fetch_add(k, Ordering::Relaxed);
        if before.saturating_add(k) > self.config.max_total_requests {
            self.total_admitted.fetch_sub(k, Ordering::Relaxed);
            return Err(ERR_GLOBAL_CAP);
        }
        Ok(())
    }

    /// Forget connection `id`'s registered socket clone (its serving
    /// thread is done; the clone must not keep the peer's socket alive).
    fn deregister(&self, id: u64) {
        self.conns
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .retain(|(cid, _)| *cid != id);
    }
}

/// Ends one connection when its serving thread exits, whether
/// `serve_connection` returned or unwound: a panic there must not leave
/// the socket open or the slot counted against `max_conns`.
struct ConnCleanup<'a> {
    stream: &'a TcpStream,
    shared: &'a Shared,
    id: u64,
}

impl Drop for ConnCleanup<'_> {
    fn drop(&mut self) {
        // close the underlying socket, not just this handle: the
        // registered clone would otherwise hold the connection open and
        // the peer would never observe the drop
        let _ = self.stream.shutdown(Shutdown::Both);
        self.shared.deregister(self.id);
        self.shared.active_conns.fetch_sub(1, Ordering::Relaxed);
    }
}

/// A running TCP serving tier over one shared [`OracleService`]. See the
/// module docs for the architecture; construct with [`NetServer::bind`].
pub struct NetServer {
    shared: Arc<Shared>,
    addr: SocketAddr,
    accept_thread: Option<JoinHandle<()>>,
    conn_threads: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl std::fmt::Debug for NetServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NetServer")
            .field("addr", &self.addr)
            .field("config", &self.shared.config)
            .finish_non_exhaustive()
    }
}

impl NetServer {
    /// Bind `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and start
    /// accepting connections into `service`. Returns as soon as the
    /// listener is live; [`NetServer::local_addr`] has the bound port.
    pub fn bind(
        addr: impl ToSocketAddrs,
        service: Arc<OracleService>,
        config: ServerConfig,
    ) -> std::io::Result<NetServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            service,
            config,
            stop: AtomicBool::new(false),
            active_conns: AtomicUsize::new(0),
            total_admitted: AtomicU64::new(0),
            counters: Counters {
                conns_accepted: AtomicU64::new(0),
                conns_rejected: AtomicU64::new(0),
                conns_timed_out: AtomicU64::new(0),
                queries_served: AtomicU64::new(0),
                queries_rejected: AtomicU64::new(0),
                frames_in: AtomicU64::new(0),
                frames_out: AtomicU64::new(0),
            },
            conns: Mutex::new(Vec::new()),
            next_conn_id: AtomicU64::new(0),
            reload: Mutex::new(None),
        });
        let conn_threads = Arc::new(Mutex::new(Vec::new()));
        let accept_shared = Arc::clone(&shared);
        let accept_threads = Arc::clone(&conn_threads);
        let accept_thread = std::thread::Builder::new()
            .name("psh-net-accept".into())
            .spawn(move || accept_loop(listener, accept_shared, accept_threads))
            .expect("spawn accept thread");
        Ok(NetServer {
            shared,
            addr,
            accept_thread: Some(accept_thread),
            conn_threads,
        })
    }

    /// The bound endpoint (resolves `:0` to the ephemeral port chosen).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The service this server feeds (its
    /// [`stats`](OracleService::stats) are the query-level numbers).
    pub fn service(&self) -> &Arc<OracleService> {
        &self.shared.service
    }

    /// Install the reload source answering wire `OP_RELOAD` requests
    /// (replacing any previous hook). Until one is installed, reload
    /// requests get a typed [`ERR_NO_RELOAD`] error. See [`ReloadHook`]
    /// for the serialization contract.
    pub fn set_reload_hook(&self, hook: ReloadHook) {
        *self.shared.reload.lock().unwrap() = Some(hook);
    }

    /// Connection-level counters.
    pub fn stats(&self) -> ServerStats {
        let c = &self.shared.counters;
        ServerStats {
            conns_accepted: c.conns_accepted.load(Ordering::Relaxed),
            conns_rejected: c.conns_rejected.load(Ordering::Relaxed),
            conns_timed_out: c.conns_timed_out.load(Ordering::Relaxed),
            active_conns: self.shared.active_conns.load(Ordering::Relaxed),
            queries_served: c.queries_served.load(Ordering::Relaxed),
            queries_rejected: c.queries_rejected.load(Ordering::Relaxed),
            frames_in: c.frames_in.load(Ordering::Relaxed),
            frames_out: c.frames_out.load(Ordering::Relaxed),
        }
    }

    /// True once shutdown has been initiated — by [`NetServer::shutdown`]
    /// or by a client's `OP_SHUTDOWN`.
    pub fn stopping(&self) -> bool {
        self.shared.stop.load(Ordering::SeqCst)
    }

    /// Block until the server stops: either a wire-side `OP_SHUTDOWN`
    /// arrives or `deadline` elapses (then shutdown is initiated here).
    /// Returns the final connection-level stats. Used by the `psh-server`
    /// bin's main loop; programmatic embedders usually call
    /// [`NetServer::shutdown`] directly instead.
    pub fn wait(&mut self, deadline: Option<Duration>) -> ServerStats {
        let start = Instant::now();
        while !self.stopping() {
            if deadline.is_some_and(|d| start.elapsed() >= d) {
                break;
            }
            std::thread::sleep(Duration::from_millis(25));
        }
        self.shutdown()
    }

    /// Stop accepting, close every live connection, and join all serving
    /// threads. Idempotent; also runs on drop. Returns the final stats.
    pub fn shutdown(&mut self) -> ServerStats {
        self.shared.stop.store(true, Ordering::SeqCst);
        // Unblock the accept loop: it re-checks `stop` after every
        // accept, so one throwaway connection to ourselves wakes it.
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_secs(1));
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
        // Force-close live sockets so reader threads blocked mid-read
        // fail fast instead of waiting out their read timeout.
        for (_, conn) in self.shared.conns.lock().unwrap().drain(..) {
            let _ = conn.shutdown(Shutdown::Both);
        }
        let handles: Vec<JoinHandle<()>> = self.conn_threads.lock().unwrap().drain(..).collect();
        for handle in handles {
            let _ = handle.join();
        }
        self.stats()
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(
    listener: TcpListener,
    shared: Arc<Shared>,
    conn_threads: Arc<Mutex<Vec<JoinHandle<()>>>>,
) {
    for stream in listener.incoming() {
        if shared.stop.load(Ordering::SeqCst) {
            break;
        }
        let stream = match stream {
            Ok(s) => s,
            Err(_) => continue,
        };
        if shared.active_conns.load(Ordering::Relaxed) >= shared.config.max_conns {
            shared
                .counters
                .conns_rejected
                .fetch_add(1, Ordering::Relaxed);
            // best-effort courtesy frame; the close is what matters
            let mut w = BufWriter::new(&stream);
            let _ = write_response(
                &mut w,
                &Response::Error {
                    code: ERR_BUSY,
                    message: format!(
                        "server at its {}-connection cap, try again later",
                        shared.config.max_conns
                    ),
                },
            );
            continue;
        }
        shared.active_conns.fetch_add(1, Ordering::Relaxed);
        shared
            .counters
            .conns_accepted
            .fetch_add(1, Ordering::Relaxed);
        let conn_id = shared.next_conn_id.fetch_add(1, Ordering::Relaxed);
        if let Ok(clone) = stream.try_clone() {
            shared.conns.lock().unwrap().push((conn_id, clone));
        }
        let conn_shared = Arc::clone(&shared);
        let handle = std::thread::Builder::new()
            .name("psh-net-conn".into())
            .spawn(move || {
                let _cleanup = ConnCleanup {
                    stream: &stream,
                    shared: &conn_shared,
                    id: conn_id,
                };
                serve_connection(&stream, &conn_shared);
            })
            .expect("spawn connection thread");
        // reap finished serving threads so a long-lived server doesn't
        // accumulate one parked JoinHandle per connection ever served
        let mut threads = conn_threads.lock().unwrap();
        threads.retain(|h: &JoinHandle<()>| !h.is_finished());
        threads.push(handle);
    }
}

/// Serve one connection until the peer closes, a cap fires, framing
/// breaks, or the server stops. Never panics on malformed input: every
/// failure is either a typed `OP_ERROR` frame or a silent close.
fn serve_connection(stream: &TcpStream, shared: &Shared) {
    // A connection whose timeouts failed to arm could pin its reader
    // thread forever on a silent peer — the one failure mode the
    // timeouts exist to prevent — so a setter error closes the
    // connection rather than serving it unguarded.
    if let Err(e) = stream
        .set_read_timeout(shared.config.read_timeout)
        .and_then(|()| stream.set_write_timeout(shared.config.write_timeout))
    {
        let peer = stream
            .peer_addr()
            .map_or_else(|_| "<unknown>".to_string(), |a| a.to_string());
        eprintln!("psh-net: closing {peer}: could not arm socket timeouts: {e}");
        return;
    }
    let mut reader = BufReader::new(stream);
    let mut writer = BufWriter::new(stream);
    let mut conn_served: u64 = 0;

    let send = |writer: &mut BufWriter<&TcpStream>, resp: &Response| -> bool {
        let ok = write_response(writer, resp).is_ok();
        if ok {
            shared.counters.frames_out.fetch_add(1, Ordering::Relaxed);
        }
        ok
    };

    loop {
        if shared.stop.load(Ordering::SeqCst) {
            let _ = send(
                &mut writer,
                &Response::Error {
                    code: ERR_SHUTTING_DOWN,
                    message: "server is shutting down".into(),
                },
            );
            return;
        }
        let frame = match read_frame(&mut reader) {
            Ok(f) => f,
            // An elapsed read deadline is `WouldBlock` on unix and
            // `TimedOut` on windows; `is_timeout` folds both into the
            // one idle-timeout counter so the close is observable.
            Err(e) if e.is_timeout() => {
                shared
                    .counters
                    .conns_timed_out
                    .fetch_add(1, Ordering::Relaxed);
                return;
            }
            // clean close, forced close, or garbage: nothing more can
            // be framed on this socket either way
            Err(_) => return,
        };
        shared.counters.frames_in.fetch_add(1, Ordering::Relaxed);
        let request = match Request::decode(&frame) {
            Ok(r) => r,
            Err(e) => {
                shared
                    .counters
                    .queries_rejected
                    .fetch_add(1, Ordering::Relaxed);
                let _ = send(
                    &mut writer,
                    &Response::Error {
                        code: ERR_BAD_REQUEST,
                        message: format!("bad {} request: {e}", op_name(frame.op)),
                    },
                );
                // framing is intact (the frame itself decoded) but the
                // peer's encoder is broken; stop trusting it
                return;
            }
        };

        match request {
            Request::Info => {
                let oracle = shared.service.oracle();
                let info = ServerInfo {
                    n: oracle.graph().n() as u64,
                    m: oracle.graph().m() as u64,
                    hopset: 0,
                    seed: shared.config.seed,
                };
                if !send(&mut writer, &Response::Info(info)) {
                    return;
                }
            }
            Request::Reload => {
                if !serve_reload(shared, &mut writer, send) {
                    return;
                }
            }
            Request::Stats => {
                let stats = shared.service.stats();
                if !send(&mut writer, &Response::Stats((&stats).into())) {
                    return;
                }
            }
            Request::Shutdown => {
                let stats = shared.service.stats();
                let _ = send(&mut writer, &Response::Stats((&stats).into()));
                shared.stop.store(true, Ordering::SeqCst);
                return;
            }
            Request::Query { s, t } => {
                if !serve_pairs(shared, &mut writer, &mut conn_served, &[(s, t)], None, send) {
                    return;
                }
            }
            Request::QueryBatch(pairs) => {
                if !serve_pairs(shared, &mut writer, &mut conn_served, &pairs, None, send) {
                    return;
                }
            }
            Request::Subscribe { chunk, pairs } => {
                if !serve_pairs(
                    shared,
                    &mut writer,
                    &mut conn_served,
                    &pairs,
                    Some(chunk as usize),
                    send,
                ) {
                    return;
                }
            }
        }
    }
}

/// Answer one `OP_RELOAD`: run the installed [`ReloadHook`] (serialized
/// by its mutex — concurrent reload requests queue, queries do not) and
/// report the outcome. A missing hook or a failed reload is a typed
/// error frame and the connection stays open; only a dead socket closes
/// it (returns false). A panicking hook is caught while the mutex is
/// held, so the mutex is not poisoned and later reloads still run.
fn serve_reload(
    shared: &Shared,
    writer: &mut BufWriter<&TcpStream>,
    send: impl Fn(&mut BufWriter<&TcpStream>, &Response) -> bool,
) -> bool {
    let outcome = {
        let mut hook = shared.reload.lock().unwrap();
        match hook.as_mut() {
            None => Err((
                ERR_NO_RELOAD,
                "server has no reload source (start it with --watch-journal)".to_string(),
            )),
            Some(h) => match catch_unwind(AssertUnwindSafe(h)) {
                Ok(result) => result.map_err(|msg| (ERR_RELOAD_FAILED, msg)),
                Err(panic) => Err((
                    ERR_RELOAD_FAILED,
                    format!("reload hook panicked: {}", panic_message(&*panic)),
                )),
            },
        }
    };
    let resp = match outcome {
        Ok(Some(r)) => Response::Reloaded(ReloadSummary {
            swapped: true,
            epoch: r.epoch,
            records: r.records as u64,
            ops: r.ops as u64,
            n: r.n,
            m: r.m,
        }),
        Ok(None) => {
            // nothing new: report the epoch and shape still being served
            let oracle = shared.service.oracle();
            Response::Reloaded(ReloadSummary {
                swapped: false,
                epoch: shared.service.epoch(),
                records: 0,
                ops: 0,
                n: oracle.graph().n() as u64,
                m: oracle.graph().m() as u64,
            })
        }
        Err((code, message)) => Response::Error { code, message },
    };
    send(writer, &resp)
}

/// The text of a caught panic payload (`panic!` with a literal or a
/// formatted message); other payloads get a placeholder.
fn panic_message(payload: &(dyn Any + Send)) -> &str {
    if let Some(s) = payload.downcast_ref::<&str>() {
        s
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s
    } else {
        "non-string panic payload"
    }
}

/// Validate, admit, and answer one request's pairs. `stream_chunk:
/// Some(c)` selects the subscription path (one `OP_STREAM` per `c`
/// pairs + `OP_STREAM_END`), `None` the single `OP_ANSWER` reply.
/// Returns false when the connection must close.
fn serve_pairs(
    shared: &Shared,
    writer: &mut BufWriter<&TcpStream>,
    conn_served: &mut u64,
    pairs: &[(u32, u32)],
    stream_chunk: Option<usize>,
    send: impl Fn(&mut BufWriter<&TcpStream>, &Response) -> bool,
) -> bool {
    let reject = |writer: &mut BufWriter<&TcpStream>, code: u16, message: String| {
        shared
            .counters
            .queries_rejected
            .fetch_add(pairs.len().max(1) as u64, Ordering::Relaxed);
        let _ = send(writer, &Response::Error { code, message });
    };

    // out-of-range ids would panic inside the service's coalesced batch
    // (poisoning innocent co-batched requests), so they are rejected at
    // the door with a typed error — the connection stays usable.
    let n = shared.service.oracle().graph().n() as u64;
    if let Some(&(s, t)) = pairs
        .iter()
        .find(|&&(s, t)| u64::from(s) >= n || u64::from(t) >= n)
    {
        reject(
            writer,
            ERR_OUT_OF_RANGE,
            format!("pair ({s}, {t}) out of range for n = {n}"),
        );
        return true;
    }
    if let Err(code) = shared.admit(*conn_served, pairs.len() as u64) {
        let cap = if code == ERR_CONN_CAP {
            ("per-connection", shared.config.max_conn_requests)
        } else {
            ("global", shared.config.max_total_requests)
        };
        reject(
            writer,
            code,
            format!("{} request cap of {} queries exhausted", cap.0, cap.1),
        );
        return false; // cap violations drop the connection
    }
    *conn_served += pairs.len() as u64;
    shared
        .counters
        .queries_served
        .fetch_add(pairs.len() as u64, Ordering::Relaxed);

    match stream_chunk {
        None => {
            let answers = shared.service.query_batch(pairs);
            send(writer, &Response::Answer(answers))
        }
        Some(chunk) => {
            let start = Instant::now();
            let mut batches = 0u64;
            let mut offset = 0usize;
            for part in pairs.chunks(chunk) {
                if shared.stop.load(Ordering::SeqCst) {
                    let _ = send(
                        writer,
                        &Response::Error {
                            code: ERR_SHUTTING_DOWN,
                            message: "server is shutting down mid-replay".into(),
                        },
                    );
                    return false;
                }
                let answers = shared.service.query_batch(part);
                batches += 1;
                let ok = send(
                    writer,
                    &Response::Stream {
                        offset: offset as u32,
                        answers,
                    },
                );
                if !ok {
                    return false;
                }
                offset += part.len();
            }
            send(
                writer,
                &Response::StreamEnd(ReplaySummary {
                    served: pairs.len() as u64,
                    batches,
                    elapsed_s: start.elapsed().as_secs_f64(),
                }),
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psh_core::api::{OracleBuilder, Seed};
    use psh_core::service::ServiceConfig;
    use psh_graph::generators;

    fn test_service() -> Arc<OracleService> {
        let g = generators::grid(8, 8);
        let run = OracleBuilder::new().seed(Seed(11)).build(&g).unwrap();
        Arc::new(OracleService::new(run.artifact, ServiceConfig::default()))
    }

    #[test]
    fn bind_reports_ephemeral_port_and_shuts_down_cleanly() {
        let mut server = NetServer::bind("127.0.0.1:0", test_service(), ServerConfig::default())
            .expect("bind ephemeral");
        assert_ne!(server.local_addr().port(), 0);
        let stats = server.shutdown();
        assert_eq!(stats.conns_accepted, 0);
        // idempotent
        let again = server.shutdown();
        assert_eq!(again, stats);
    }

    #[test]
    fn env_addr_falls_back_to_default() {
        // (cannot mutate the environment safely in a threaded test
        // binary; just pin the fallback constant)
        assert_eq!(DEFAULT_ADDR, "127.0.0.1:7471");
        assert!(env_addr().contains(':'));
    }

    #[test]
    fn admit_enforces_both_caps() {
        let shared = Shared {
            service: test_service(),
            config: ServerConfig {
                max_conn_requests: 10,
                max_total_requests: 15,
                ..ServerConfig::default()
            },
            stop: AtomicBool::new(false),
            active_conns: AtomicUsize::new(0),
            total_admitted: AtomicU64::new(0),
            counters: Counters {
                conns_accepted: AtomicU64::new(0),
                conns_rejected: AtomicU64::new(0),
                conns_timed_out: AtomicU64::new(0),
                queries_served: AtomicU64::new(0),
                queries_rejected: AtomicU64::new(0),
                frames_in: AtomicU64::new(0),
                frames_out: AtomicU64::new(0),
            },
            conns: Mutex::new(Vec::new()),
            next_conn_id: AtomicU64::new(0),
            reload: Mutex::new(None),
        };
        assert!(shared.admit(0, 10).is_ok());
        assert_eq!(shared.admit(10, 1), Err(ERR_CONN_CAP));
        // global budget: 10 spent, 5 left
        assert_eq!(shared.admit(0, 6), Err(ERR_GLOBAL_CAP));
        assert!(shared.admit(0, 5).is_ok());
        // the rejected admission rolled its reservation back
        assert_eq!(shared.total_admitted.load(Ordering::Relaxed), 15);
    }
}
