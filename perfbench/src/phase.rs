//! The callers: closed-loop readers over the wire or in process, and the
//! graph-update writer. Every caller waits for its reply before sending
//! its next request.

use crate::inputs::{update_delta, Traffic};
use crate::setup::Offline;
use crate::trace::Spans;
use psh_core::oracle::QueryResult;
use psh_core::snapshot::{append_journal, apply_deltas, load_journal, rebuild_oracle};
use psh_core::ApproxShortestPaths;
use psh_graph::{CsrGraph, GraphDelta, VertexId};
use psh_net::client::NetClient;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Stored in place of an answer whose call failed; verification skips it
/// (the failure is already counted).
pub const FAILED: QueryResult = QueryResult {
    distance: f64::NAN,
    upper_bound: false,
};

/// Byte identity of two answers.
pub fn same(a: &QueryResult, b: &QueryResult) -> bool {
    a.distance.to_bits() == b.distance.to_bits() && a.upper_bound == b.upper_bound
}

/// The clock of one round's measured traffic. In a traced run every other
/// round records spans, so the run can measure its own tracing overhead
/// on the same traffic.
#[derive(Clone, Copy)]
pub struct Clock {
    pub start: Instant,
    pub deadline: Instant,
    pub traced: bool,
}

impl Clock {
    pub fn new(seconds: f64, traced: bool) -> Clock {
        let start = Instant::now();
        Clock {
            start,
            deadline: start + Duration::from_secs_f64(seconds),
            traced,
        }
    }

    pub fn running(&self) -> bool {
        Instant::now() < self.deadline
    }
}

/// What one caller saw over all rounds: a latency per answered pair,
/// every answer in request order, operation counts, and its spans.
pub struct CallerLog {
    pub lat_ms: Vec<f64>,
    pub answers: Vec<QueryResult>,
    /// `lat_ms.len()` and `answers.len()` at the end of each round.
    pub round_ends: Vec<usize>,
    pub answer_ends: Vec<usize>,
    pub attempted: u64,
    pub failed: u64,
    pub finished: Option<Instant>,
    pub spans: Spans,
}

impl CallerLog {
    pub fn new(capacity: usize, spans: Spans) -> CallerLog {
        CallerLog {
            lat_ms: Vec::with_capacity(capacity),
            answers: Vec::with_capacity(capacity),
            round_ends: Vec::with_capacity(64),
            answer_ends: Vec::with_capacity(64),
            attempted: 0,
            failed: 0,
            finished: None,
            spans,
        }
    }

    /// Latencies of round `r`.
    pub fn round(&self, r: usize) -> &[f64] {
        let from = if r == 0 { 0 } else { self.round_ends[r - 1] };
        &self.lat_ms[from..self.round_ends[r]]
    }

    /// Indices into `answers` (and the caller's sequence) of round `r`.
    pub fn answer_range(&self, r: usize) -> std::ops::Range<usize> {
        let from = if r == 0 { 0 } else { self.answer_ends[r - 1] };
        from..self.answer_ends[r]
    }

    /// Close a round: note where its latencies and answers end and when
    /// it finished.
    fn end_round(&mut self) {
        self.round_ends.push(self.lat_ms.len());
        self.answer_ends.push(self.answers.len());
        self.finished = Some(Instant::now());
    }
}

/// Send `list` (catalog indices) untimed over `client`.
pub fn wire_warmup(
    client: &mut NetClient,
    traffic: &Traffic,
    list: &[u32],
    counts: &mut (u64, u64),
) {
    for &i in list {
        let (s, t) = traffic.catalog[i as usize];
        counts.0 += 1;
        if client.query(s, t).is_err() {
            counts.1 += 1;
        }
    }
}

/// A closed-loop reader over the wire until the round's deadline,
/// continuing the caller's sequence where its last round stopped.
pub fn wire_reader(
    client: &mut NetClient,
    traffic: &Traffic,
    caller: usize,
    clock: &Clock,
    log: &mut CallerLog,
) {
    while clock.running() {
        let k = log.answers.len();
        let (s, t) = traffic.pair(caller, k);
        log.attempted += 1;
        let t0 = Instant::now();
        let r = client.query(s, t);
        let t1 = Instant::now();
        match r {
            Ok(ans) => {
                log.lat_ms.push((t1 - t0).as_secs_f64() * 1e3);
                log.answers.push(ans);
                if clock.traced {
                    let req = ((caller as u64) << 32) | k as u64;
                    log.spans.record("phase.net.query", 0, req, t0, t1);
                }
            }
            Err(_) => {
                log.failed += 1;
                log.answers.push(FAILED);
            }
        }
    }
    log.end_round();
}

/// The in-process reader of `build`: `ApproxShortestPaths::query` on the
/// opened snapshot, closed loop, until the round's deadline.
pub fn local_reader(
    oracle: &ApproxShortestPaths,
    traffic: &Traffic,
    caller: usize,
    clock: &Clock,
    log: &mut CallerLog,
) {
    while clock.running() {
        let k = log.answers.len();
        let (s, t) = traffic.pair(caller, k);
        log.attempted += 1;
        let t0 = Instant::now();
        let (ans, _) = oracle.query(s, t);
        let t1 = Instant::now();
        log.lat_ms.push((t1 - t0).as_secs_f64() * 1e3);
        log.answers.push(ans);
        if clock.traced {
            let req = ((caller as u64) << 32) | k as u64;
            log.spans.record("phase.oracle.query", 0, req, t0, t1);
        }
    }
    log.end_round();
}

/// Step times (ms) of one update through the library.
pub struct Steps {
    pub append_ms: f64,
    pub fold_ms: f64,
    pub rebuild_ms: f64,
}

/// Apply `delta` as a program embedding the oracle would: append it to
/// `journal`, load the journal and fold the records past `consumed` into
/// `state`'s graph, and rebuild the oracle from the old provenance.
pub fn library_update(
    state: &mut Offline,
    consumed: &mut usize,
    journal: &Path,
    delta: &GraphDelta,
) -> Result<Steps, String> {
    let t0 = Instant::now();
    append_journal(journal, delta).map_err(|e| format!("journal append: {e}"))?;
    let t1 = Instant::now();
    let (_, deltas) = load_journal(journal).map_err(|e| format!("journal load: {e}"))?;
    let graph: CsrGraph = apply_deltas(&state.graph, &deltas[*consumed..])
        .map_err(|e| format!("journal fold: {e}"))?;
    let t2 = Instant::now();
    let (oracle, meta) =
        rebuild_oracle(&graph, &state.meta).map_err(|e| format!("rebuild: {e}"))?;
    let t3 = Instant::now();
    *consumed = deltas.len();
    *state = Offline {
        graph,
        oracle: Arc::new(oracle),
        meta,
    };
    let ms = |a: Instant, b: Instant| (b - a).as_secs_f64() * 1e3;
    Ok(Steps {
        append_ms: ms(t0, t1),
        fold_ms: ms(t1, t2),
        rebuild_ms: ms(t2, t3),
    })
}

/// State of the graph-update writer: the toggled edge, the answer its
/// probe pair must show in each of the two graph states (from fresh
/// builds of those graphs), and how many updates have landed.
pub struct Updater {
    pub pair: (VertexId, VertexId),
    pub n: usize,
    /// `[answer on the base graph, answer with the edge inserted]`.
    pub expect: [QueryResult; 2],
    pub applied: u64,
    pub visible_ms: Vec<f64>,
    pub reload_ms: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
}

/// How long an update may take to show before it counts as failed.
const PROBE_LIMIT: Duration = Duration::from_secs(10);

impl Updater {
    pub fn new(pair: (VertexId, VertexId), n: usize, expect: [QueryResult; 2]) -> Updater {
        Updater {
            pair,
            n,
            expect,
            applied: 0,
            visible_ms: Vec::new(),
            reload_ms: Vec::new(),
            attempted: 0,
            failed: 0,
        }
    }

    /// True when the served graph is the base graph.
    fn at_base(&self) -> bool {
        self.applied.is_multiple_of(2)
    }

    /// One update over the wire: append a one-edge delta to the journal,
    /// send `Reload`, then query the probe pair until the answer of the
    /// new graph state arrives, recording the time from the start of the
    /// append to that answer. An error leaves the graph state unknown, so
    /// the caller stops updating.
    pub fn wire(
        &mut self,
        client: &mut NetClient,
        journal: &Path,
        spans: Option<&mut Spans>,
    ) -> Result<(), String> {
        let delta = update_delta(self.n, self.pair, self.applied);
        let want = self.expect[usize::from(self.at_base())];
        self.attempted += 2;
        let t0 = Instant::now();
        let appended = append_journal(journal, &delta);
        let t1 = Instant::now();
        if let Err(e) = appended {
            return Err(self.fail(format!("journal append: {e}")));
        }
        let reloaded = client.reload();
        let t2 = Instant::now();
        match reloaded {
            Ok(r) if r.swapped => {}
            Ok(_) => return Err(self.fail("reload swapped nothing".into())),
            Err(e) => return Err(self.fail(format!("reload: {e}"))),
        }
        let mut probes = Vec::new();
        loop {
            self.attempted += 1;
            let p0 = Instant::now();
            let got = client.query(self.pair.0, self.pair.1);
            let p1 = Instant::now();
            probes.push((p0, p1));
            match got {
                Ok(ans) if same(&ans, &want) => break,
                Ok(_) if t0.elapsed() < PROBE_LIMIT => continue,
                Ok(_) => return Err(self.fail("update never became visible".into())),
                Err(e) => return Err(self.fail(format!("probe: {e}"))),
            }
        }
        let t3 = Instant::now();
        self.applied += 1;
        let ms = |a: Instant, b: Instant| (b - a).as_secs_f64() * 1e3;
        self.reload_ms.push(ms(t1, t2));
        self.visible_ms.push(ms(t0, t3));
        if let Some(sp) = spans {
            let req = u64::MAX - self.applied;
            let root = sp.record("update", 0, req, t0, t3);
            sp.record("journal.append", root, req, t0, t1);
            sp.record("net.reload", root, req, t1, t2);
            for (a, b) in probes {
                sp.record("probe.net.query", root, req, a, b);
            }
        }
        Ok(())
    }

    /// One update through the library ([`library_update`]), then the
    /// probe pair answered by the rebuilt oracle, recording the time from
    /// the start of the append to that answer.
    pub fn library(
        &mut self,
        state: &mut Offline,
        consumed: &mut usize,
        journal: &Path,
    ) -> Result<(), String> {
        let delta = update_delta(self.n, self.pair, self.applied);
        let want = self.expect[usize::from(self.at_base())];
        self.attempted += 2;
        let t0 = Instant::now();
        library_update(state, consumed, journal, &delta).map_err(|e| self.fail(e))?;
        let (ans, _) = state.oracle.query(self.pair.0, self.pair.1);
        if !same(&ans, &want) {
            return Err(self.fail("rebuilt oracle does not show the update".into()));
        }
        self.visible_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        self.applied += 1;
        Ok(())
    }

    fn fail(&mut self, msg: String) -> String {
        self.failed += 1;
        msg
    }
}
