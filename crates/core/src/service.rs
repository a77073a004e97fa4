//! Concurrent query serving: many clients, one shared oracle.
//!
//! An [`ApproxShortestPaths`] is immutable after preprocessing, so any
//! number of threads may query it simultaneously; but a thread-per-query
//! free-for-all wastes the batch fan-out that
//! [`ApproxShortestPaths::query_batch`] already provides.
//! [`OracleService`] closes that gap with an **admission queue**:
//! concurrently-arriving queries are coalesced into batches and served
//! together through `query_batch` on the psh-exec pool. The service holds
//! its oracle as an `Arc<ApproxShortestPaths>`; the `psh-net` wire tier
//! and the bins serve through it.
//!
//! The service relies on three properties of the oracle it holds:
//!
//! * **Soundness** — every answer is an upper bound on the exact `s`–`t`
//!   distance of the served graph (`QueryResult::upper_bound` is always
//!   `true`).
//! * **Determinism** — answers *and costs* are byte-identical for every
//!   [`ExecutionPolicy`] and thread count, and `query_batch` returns
//!   exactly the per-pair `query` answers in input order.
//! * **Immutability** — an oracle never changes after construction; a hot
//!   swap replaces the whole `Arc` ([`OracleService::swap_oracle`]), which
//!   is what makes a batch's answers attributable to one epoch.
//!
//! ## The leader–follower protocol
//!
//! Every call to [`OracleService::query`] enqueues its pair and then either
//!
//! * becomes a **leader** (fewer than [`ServiceConfig::policy`]`.threads()`
//!   batches are in flight): it drains up to [`MAX_BATCH`]
//!   queued requests — its own plus everything that accumulated while the
//!   other leaders were serving — runs one `query_batch`, publishes the
//!   answers, and wakes all waiters; or
//! * **follows**: every leader slot is taken, so the caller blocks until
//!   woken, then either finds its answer published or takes a free slot
//!   for the requests that queued up in the meantime.
//!
//! The policy that fans each batch out therefore also caps the batches
//! in flight: `Sequential` serves one batch at a time, `Parallel {
//! threads: k }` lets up to `k` leaders search side by side. A search
//! only reads the shared oracle and its own per-thread scratch, so
//! concurrent batches share no mutable state. Callers coalesce into shared batches
//! only when they outnumber the cap: with `k` slots free, `k` callers
//! each serve their own request at once instead of waiting for one
//! another's searches.
//!
//! Batch boundaries therefore depend on arrival timing — but **answers do
//! not**: `query_batch` maps every pair independently through
//! [`ApproxShortestPaths::query`], so each answer is byte-identical to a
//! single-threaded `query(s, t)` no matter how requests were coalesced,
//! which thread served them, how many batches overlapped, or which
//! [`ExecutionPolicy`] fanned the batch out (the `service_stress`
//! integration suite pins this at 32 client threads). For the same
//! batches, [`ServiceStats::total_cost`] does not depend on the order in
//! which concurrent leaders publish either: [`Cost::then`] is commutative.
//!
//! ## The answer cache
//!
//! [`ServiceConfig::cache`] (off by default) adds a bounded, seeded
//! direct-mapped answer cache in front of the admission queue: each
//! `(s, t)` pair hashes — keyed by [`CacheConfig::seed`] — to one of
//! [`CacheConfig::capacity`] slots, and a colliding insert simply evicts
//! the slot's previous occupant. The eviction choice is thus a pure
//! function of the seed, never of arrival order, so a cache-enabled
//! service stays deterministic: hits return the exact [`QueryResult`]
//! the oracle published earlier (answers are immutable, so a hit is
//! byte-identical to a recomputation), misses take the normal
//! leader–follower path, and [`ServiceStats::cache_hits`] counts the
//! short-circuits. Cache hits record a 0 ms latency sample — they never
//! touch the queue.
//!
//! ## Epochs and zero-downtime hot swap
//!
//! A service is born at **epoch 0** serving the oracle it was built with.
//! [`OracleService::swap_oracle`] installs a replacement oracle — e.g. one
//! rebuilt for a mutated graph — and bumps the epoch, *without stopping
//! the service*: clients keep querying throughout. The swap is atomic at
//! a **batch boundary**: each leader captures the current `(oracle,
//! epoch)` under the admission lock at the moment it drains its batch, so
//! every batch — and therefore every request — is answered wholly by one
//! epoch's oracle; no request ever sees a torn epoch. A batch already in
//! flight when the swap lands completes on the epoch it captured; batches
//! drained afterwards serve the new one. Two batches in flight may hold
//! different epochs; each attributes its answers to its own.
//!
//! **The answer cache is flushed on swap.** Cached answers are only
//! immutable *within* an epoch — after a swap the same `(s, t)` pair may
//! have a different distance — so [`OracleService::swap_oracle`] clears
//! every slot, and a batch that captured the pre-swap oracle skips cache
//! publication if the epoch changed while it was in flight (its answers
//! are still delivered to their waiters, who were admitted against that
//! epoch). This rule is load-bearing: without it a stale cached answer
//! could survive an epoch change indefinitely, since seeded eviction is
//! keyed per pair, not per oracle.
//!
//! [`OracleService::query_attributed`] returns the epoch alongside the
//! answer, which is what the swap-storm stress tests use to byte-check
//! every answer against its epoch's reference oracle.
//!
//! ## Thread-safety audit
//!
//! Sharing one oracle across OS threads is sound because an oracle is one
//! graph. Owned, it is a `CsrGraph`: `Vec`s of POD values with no
//! interior mutability, so `ApproxShortestPaths` is auto-`Send + Sync`.
//! Mapped (a v2 snapshot served in place), it is a `MmapView` holding raw
//! slices into a shared, immutable, never-remapped [`SnapshotSource`]
//! region; the view carries a manual `unsafe impl Send/Sync` whose
//! soundness argument lives next to the impls in `psh-graph`. The
//! search's scratch is thread-local, so concurrent queries share no
//! mutable state. The compile-time assertions at the bottom of this
//! module turn all of that into a build failure if a future refactor
//! introduces an `Rc`/`RefCell`/unshareable field anywhere in the oracle
//! or snapshot types.
//!
//! ```
//! use psh_core::api::{OracleBuilder, Seed};
//! use psh_core::service::{OracleService, ServiceConfig};
//! use std::sync::Arc;
//!
//! let g = psh_graph::generators::grid(8, 8);
//! let run = OracleBuilder::new().seed(Seed(7)).build(&g).unwrap();
//! let service = Arc::new(OracleService::new(run.artifact, ServiceConfig::default()));
//!
//! let svc = Arc::clone(&service);
//! let worker = std::thread::spawn(move || svc.query(0, 63));
//! let here = service.query(63, 0);
//! assert_eq!(worker.join().unwrap(), here, "symmetric pair, same distance");
//! let stats = service.stats();
//! assert_eq!(stats.served, 2);
//! ```

use crate::hopset::HopsetParams;
use crate::oracle::{ApproxShortestPaths, QueryResult};
use crate::snapshot::OracleMeta;
use psh_exec::ExecutionPolicy;
use psh_graph::{CsrGraph, MmapView, SnapshotSource, VertexId};
use psh_pram::Cost;
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

/// Nearest-rank percentile (`p ∈ [0, 100]`) of a sample — the serving
/// layer reports p50/p99/p999 request latency with this. Empty samples
/// give 0. (Hosted here so both [`ServiceStats`] and the experiment
/// harness share one implementation; `psh_bench::stats::percentile`
/// re-exports it.)
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Request latencies as a fixed-size log-linear histogram: 32 buckets per
/// octave from 2⁻²⁰ ms (about a nanosecond, the timer's resolution) up to
/// 2⁴⁴ ms, one bucket below that, and longer latencies clamped into the
/// top bucket. Recording is O(1) and the memory is 16 KiB however many
/// requests arrive. A percentile reads the bucket holding the
/// nearest-rank sample and reports the largest value that bucket holds:
/// never below the sample, and above it by less than 1/32 of it (a
/// sample under 2⁻²⁰ ms reads as 0).
struct LatencyHistogram {
    /// Samples per bucket, [`LatencyHistogram::BUCKETS`] long.
    counts: Box<[u64]>,
    total: u64,
}

impl LatencyHistogram {
    /// Mantissa bits a bucket key keeps: 2⁵ = 32 buckets per octave.
    const SUB_BITS: u32 = 5;
    /// Shift from an `f64`'s bits to its exponent and top mantissa bits.
    const KEY_SHIFT: u32 = 52 - Self::SUB_BITS;
    /// The smallest latency with a bucket of its own, 2⁻²⁰ ms.
    const MIN_MS: f64 = 1.0 / (1u64 << 20) as f64;
    /// The bottom bucket plus 64 octaves of 32 buckets.
    const BUCKETS: usize = 1 + (64 << Self::SUB_BITS);

    fn new() -> LatencyHistogram {
        LatencyHistogram {
            counts: vec![0; Self::BUCKETS].into_boxed_slice(),
            total: 0,
        }
    }

    fn from_samples(latencies_ms: &[f64]) -> LatencyHistogram {
        let mut h = LatencyHistogram::new();
        for &ms in latencies_ms {
            h.record(ms);
        }
        h
    }

    /// The bucket a latency falls in. Positive `f64`s order like their
    /// bits, so a bucket is a run of `f64`s sharing exponent and top
    /// mantissa bits.
    fn bucket(ms: f64) -> usize {
        if ms.is_nan() || ms < Self::MIN_MS {
            // zero, below the timer's resolution, or NaN
            return 0;
        }
        let key = (ms.to_bits() >> Self::KEY_SHIFT) - (Self::MIN_MS.to_bits() >> Self::KEY_SHIFT);
        (1 + key as usize).min(Self::BUCKETS - 1)
    }

    /// The largest latency bucket `i` holds (0 for the bottom bucket).
    fn bucket_max(i: usize) -> f64 {
        if i == 0 {
            return 0.0;
        }
        let key = (i - 1) as u64 + (Self::MIN_MS.to_bits() >> Self::KEY_SHIFT);
        f64::from_bits(((key + 1) << Self::KEY_SHIFT) - 1)
    }

    fn record(&mut self, ms: f64) {
        self.counts[Self::bucket(ms)] += 1;
        self.total += 1;
    }

    fn clear(&mut self) {
        self.counts.fill(0);
        self.total = 0;
    }

    /// Nearest-rank percentile (`p ∈ [0, 100]`), ranked as [`percentile`]
    /// ranks; 0 with no samples.
    fn percentile(&self, p: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = (((p / 100.0) * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0;
        for (i, &count) in self.counts.iter().enumerate() {
            seen += count;
            if seen >= rank {
                return Self::bucket_max(i);
            }
        }
        unreachable!("the counts sum to total")
    }
}

/// The bounded answer cache (see the module docs): a direct-mapped slot
/// array keyed by a seeded hash of the query pair, with
/// overwrite-on-collision ("seeded eviction") replacement.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CacheConfig {
    /// Number of slots. Memory is `capacity` × one pair + one
    /// [`QueryResult`] (~32 bytes). Must be at least 1.
    pub capacity: usize,
    /// Seed of the slot hash — fixes which of two colliding pairs
    /// evicts the other, independent of arrival order.
    pub seed: u64,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            capacity: 4096,
            seed: 0x9E37_79B9_7F4A_7C15,
        }
    }
}

/// Largest batch one leader drains at a time. Requests beyond the cap
/// stay queued for the next leader, bounding per-batch latency under
/// bursts.
pub const MAX_BATCH: usize = 256;

/// How an [`OracleService`] serves its batches.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ServiceConfig {
    /// Execution policy for each coalesced `query_batch` call (default:
    /// [`ExecutionPolicy::from_env`]). It also caps the batches in
    /// flight: up to [`ExecutionPolicy::threads`] leaders serve at once,
    /// so `Sequential` serves one batch at a time. Answers are
    /// byte-identical for every policy; only wall-clock changes.
    pub policy: ExecutionPolicy,
    /// Optional answer cache (default `None` — off). Turning it on
    /// changes wall-clock only, never answers: hits replay a published
    /// [`QueryResult`] verbatim.
    pub cache: Option<CacheConfig>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            policy: ExecutionPolicy::from_env(),
            cache: None,
        }
    }
}

impl ServiceConfig {
    /// Config with an explicit execution policy and no answer cache.
    pub fn with_policy(policy: ExecutionPolicy) -> Self {
        ServiceConfig {
            policy,
            ..Default::default()
        }
    }
}

/// The slot a pair occupies in a cache of `cfg.capacity` slots — a
/// splitmix64-style finalizer over the packed pair, keyed by the seed.
fn cache_slot(cfg: &CacheConfig, pair: (VertexId, VertexId)) -> usize {
    let mut x = cfg.seed ^ (((pair.0 as u64) << 32) | pair.1 as u64);
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    (x % cfg.capacity as u64) as usize
}

/// A point-in-time snapshot of a service's serving statistics.
///
/// Latency is measured per request, from admission (the moment
/// [`OracleService::query`] enqueued the pair) to answer publication —
/// so it includes queueing delay, which is the number a client actually
/// experiences under contention. The service keeps latencies in a
/// fixed-size log-linear histogram, not per request: a percentile is the
/// top of the bucket holding the nearest-rank sample, at most 1/32 above
/// it. `qps` divides served requests by the span from the first
/// admission to the last publication.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ServiceStats {
    /// Requests answered so far.
    pub served: u64,
    /// `query_batch` calls issued (≥ 1 request each).
    pub batches: u64,
    /// Largest coalesced batch observed.
    pub largest_batch: usize,
    /// First-admission → last-publication span, in seconds.
    pub elapsed_s: f64,
    /// Requests per second over `elapsed_s` (0 until something is served).
    pub qps: f64,
    /// Median request latency, milliseconds.
    pub p50_ms: f64,
    /// 99th-percentile request latency, milliseconds.
    pub p99_ms: f64,
    /// 99.9th-percentile request latency, milliseconds.
    pub p999_ms: f64,
    /// Work/depth spent answering, composed batch-after-batch.
    pub total_cost: Cost,
    /// Requests short-circuited by the answer cache (a subset of
    /// `served`; always 0 when [`ServiceConfig::cache`] is `None`).
    pub cache_hits: u64,
}

impl ServiceStats {
    /// Build a stats snapshot from raw per-request latency samples — the
    /// hook for **connection-level** collectors that observe latencies
    /// without owning an `OracleService` (the `psh-client` load driver
    /// reports ServiceStats-compatible numbers through this), so
    /// wire-side and in-process measurements stay comparable column for
    /// column.
    ///
    /// `served` is `latencies_ms.len()`; `qps` divides it by
    /// `elapsed_s` (0 when the span is empty); percentiles come from the
    /// same log-linear histogram [`OracleService::stats`] reads.
    pub fn from_samples(
        latencies_ms: &[f64],
        elapsed_s: f64,
        batches: u64,
        largest_batch: usize,
        total_cost: Cost,
    ) -> ServiceStats {
        let served = latencies_ms.len() as u64;
        let latencies = LatencyHistogram::from_samples(latencies_ms);
        ServiceStats {
            served,
            batches,
            largest_batch,
            elapsed_s,
            qps: if elapsed_s > 0.0 {
                served as f64 / elapsed_s
            } else {
                0.0
            },
            p50_ms: latencies.percentile(50.0),
            p99_ms: latencies.percentile(99.0),
            p999_ms: latencies.percentile(99.9),
            total_cost,
            // wire-side collectors see only latencies; cache state is a
            // service-internal detail they cannot observe
            cache_hits: 0,
        }
    }
}

/// One queued request: its pair, admission time, and ticket id.
struct Pending {
    id: u64,
    pair: (VertexId, VertexId),
    admitted: Instant,
}

/// Everything behind the service mutex: the admission queue, the
/// published answers, the leader count, and the latency log. A single
/// mutex keeps the check-then-wait transitions race-free (no lost
/// wakeups between "is my answer published?" and the condvar wait).
struct Shared {
    /// The oracle answering the current epoch's batches. Swapped whole
    /// by [`OracleService::swap_oracle`]; leaders clone the `Arc` (and
    /// record the epoch) at drain time, so a swap never tears a batch.
    oracle: Arc<ApproxShortestPaths>,
    /// Bumped by every swap. Answers are attributed to the epoch whose
    /// oracle computed them.
    epoch: u64,
    next_id: u64,
    queue: VecDeque<Pending>,
    /// Published answers, tagged with the epoch that computed them.
    answers: HashMap<u64, (QueryResult, u64)>,
    /// Tickets whose serving leader panicked (e.g. an out-of-range
    /// vertex id in the coalesced batch): their waiters re-raise the
    /// failure instead of blocking forever.
    abandoned: HashSet<u64>,
    /// Tickets whose waiter unwound while the ticket was in a leader's
    /// in-flight batch: the publisher drops their answers instead of
    /// storing them for a collector that will never come.
    dead: HashSet<u64>,
    /// Leaders serving a drained batch right now, at most
    /// `config.policy.threads()`.
    leaders: usize,
    /// The answer cache's slot array (empty when the cache is off).
    /// Living under the same mutex as the queue keeps lookup-then-admit
    /// atomic; answers are immutable so stale reads cannot exist.
    cache: Vec<Option<((VertexId, VertexId), QueryResult)>>,
    // --- stats ---
    served: u64,
    batches: u64,
    largest_batch: usize,
    first_admission: Option<Instant>,
    last_publication: Option<Instant>,
    total_cost: Cost,
    cache_hits: u64,
    latencies: LatencyHistogram,
}

impl Shared {
    fn new(oracle: Arc<ApproxShortestPaths>, cache_slots: usize) -> Shared {
        Shared {
            oracle,
            epoch: 0,
            next_id: 0,
            queue: VecDeque::new(),
            answers: HashMap::new(),
            abandoned: HashSet::new(),
            dead: HashSet::new(),
            leaders: 0,
            cache: vec![None; cache_slots],
            served: 0,
            batches: 0,
            largest_batch: 0,
            first_admission: None,
            last_publication: None,
            total_cost: Cost::ZERO,
            cache_hits: 0,
            latencies: LatencyHistogram::new(),
        }
    }

    fn admit(&mut self, pair: (VertexId, VertexId)) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        let now = Instant::now();
        self.first_admission.get_or_insert(now);
        self.queue.push_back(Pending {
            id,
            pair,
            admitted: now,
        });
        id
    }
}

/// A thread-safe serving front for one shared, immutable oracle.
///
/// Clone-free sharing: wrap the service in an [`Arc`] and hand it to as
/// many client threads as you like — see the module docs for the
/// coalescing protocol and the determinism contract.
pub struct OracleService {
    config: ServiceConfig,
    shared: Mutex<Shared>,
    wakeup: Condvar,
}

impl std::fmt::Debug for OracleService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OracleService")
            .field("oracle", &self.oracle())
            .field("epoch", &self.epoch())
            .field("config", &self.config)
            .finish_non_exhaustive()
    }
}

impl OracleService {
    /// Wrap a preprocessed oracle for concurrent serving.
    pub fn new(oracle: ApproxShortestPaths, config: ServiceConfig) -> OracleService {
        OracleService::from_arc(Arc::new(oracle), config)
    }

    /// Wrap an oracle that is already shared (e.g. also referenced by a
    /// snapshot writer or a second service with a different policy).
    pub fn from_arc(oracle: Arc<ApproxShortestPaths>, config: ServiceConfig) -> OracleService {
        if let Some(cache) = &config.cache {
            assert!(cache.capacity >= 1, "cache capacity must be at least 1");
        }
        let cache_slots = config.cache.map_or(0, |c| c.capacity);
        OracleService {
            config,
            shared: Mutex::new(Shared::new(oracle, cache_slots)),
            wakeup: Condvar::new(),
        }
    }

    /// The oracle answering the current epoch. The returned handle stays
    /// valid (and keeps answering consistently) even if the service swaps
    /// to a newer oracle afterwards — it just stops being "current".
    pub fn oracle(&self) -> Arc<ApproxShortestPaths> {
        Arc::clone(&self.shared.lock().unwrap().oracle)
    }

    /// The current epoch: 0 at construction, +1 per
    /// [`OracleService::swap_oracle`].
    pub fn epoch(&self) -> u64 {
        self.shared.lock().unwrap().epoch
    }

    /// Install a replacement oracle and enter the next epoch, without
    /// stopping the service — the zero-downtime half of a hot swap (the
    /// rebuild half runs wherever the caller likes, typically a
    /// background thread, while the old epoch keeps serving).
    ///
    /// The swap takes effect at a **batch boundary**: batches drained
    /// after this call serve the new oracle; a batch in flight completes
    /// on the oracle it captured and skips cache publication. The answer
    /// cache is flushed here — see the module docs for why that rule is
    /// mandatory. Returns the new epoch.
    pub fn swap_oracle(&self, oracle: Arc<ApproxShortestPaths>) -> u64 {
        let mut sh = self.shared.lock().unwrap();
        sh.oracle = oracle;
        sh.epoch += 1;
        for slot in sh.cache.iter_mut() {
            *slot = None;
        }
        sh.epoch
    }

    /// The configuration this service was built with.
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    /// Answer one `s`–`t` query, blocking until served.
    ///
    /// The answer is byte-identical to
    /// [`ApproxShortestPaths::query`]`(s, t)` regardless of how the
    /// request was coalesced. Out-of-range vertex ids panic as `query`
    /// does — and because requests coalesce, that panic also re-raises
    /// in any client whose request shared the poisoned batch (the
    /// service itself stays live for everything else); validate
    /// untrusted input against [`CsrGraph::n`] first.
    pub fn query(&self, s: VertexId, t: VertexId) -> QueryResult {
        self.query_attributed(s, t).0
    }

    /// [`query`](OracleService::query), plus the epoch whose oracle
    /// computed the answer. Swap-storm verification uses this to check
    /// every answer byte-for-byte against its epoch's reference oracle;
    /// plain serving can ignore the attribution.
    pub fn query_attributed(&self, s: VertexId, t: VertexId) -> (QueryResult, u64) {
        let mut sh = self.shared.lock().unwrap();
        if let Some(hit) = self.cache_lookup(&mut sh, (s, t)) {
            return hit;
        }
        let id = sh.admit((s, t));
        self.wait_for(sh, &[id])
            .pop()
            .expect("one ticket, one answer")
    }

    /// Probe the answer cache for `pair` under the admission lock. A hit
    /// counts as a served request with zero queueing latency, attributed
    /// to the current epoch (the flush-on-swap rule guarantees every
    /// cached answer was computed by it).
    fn cache_lookup(
        &self,
        sh: &mut Shared,
        pair: (VertexId, VertexId),
    ) -> Option<(QueryResult, u64)> {
        let cfg = self.config.cache?;
        match sh.cache[cache_slot(&cfg, pair)] {
            Some((cached_pair, answer)) if cached_pair == pair => {
                let now = Instant::now();
                sh.first_admission.get_or_insert(now);
                sh.last_publication = Some(now);
                sh.served += 1;
                sh.cache_hits += 1;
                sh.latencies.record(0.0);
                Some((answer, sh.epoch))
            }
            _ => None,
        }
    }

    /// Publish `pair`'s answer into the cache (overwriting whatever pair
    /// currently hashes to the same slot — the seeded eviction).
    fn cache_insert(&self, sh: &mut Shared, pair: (VertexId, VertexId), answer: QueryResult) {
        if let Some(cfg) = self.config.cache {
            sh.cache[cache_slot(&cfg, pair)] = Some((pair, answer));
        }
    }

    /// Answer a batch of queries submitted as one unit, blocking until
    /// every pair is served. Answers come back **in input order**; under
    /// concurrency the unit may be coalesced with other clients' requests
    /// (or split across [`MAX_BATCH`] boundaries) without changing any
    /// answer.
    pub fn query_batch(&self, pairs: &[(VertexId, VertexId)]) -> Vec<QueryResult> {
        if pairs.is_empty() {
            return Vec::new();
        }
        let mut sh = self.shared.lock().unwrap();
        // Split hits from misses under one lock hold so the admission
        // order matches the input order of the missing pairs.
        let mut out: Vec<Option<QueryResult>> = Vec::with_capacity(pairs.len());
        let mut miss_pos = Vec::new();
        let mut miss_ids = Vec::new();
        for (i, &pair) in pairs.iter().enumerate() {
            match self.cache_lookup(&mut sh, pair) {
                Some((hit, _epoch)) => out.push(Some(hit)),
                None => {
                    out.push(None);
                    miss_pos.push(i);
                    miss_ids.push(sh.admit(pair));
                }
            }
        }
        if !miss_ids.is_empty() {
            let answers = self.wait_for(sh, &miss_ids);
            for (pos, (answer, _epoch)) in miss_pos.into_iter().zip(answers) {
                out[pos] = Some(answer);
            }
        }
        out.into_iter()
            .map(|slot| slot.expect("every position is a hit or an answered miss"))
            .collect()
    }

    /// Block until every ticket in `ids` has a published answer, taking
    /// leadership of queued batches whenever a leader slot is free. Returns
    /// the answers in ticket order.
    fn wait_for<'a>(
        &'a self,
        mut sh: std::sync::MutexGuard<'a, Shared>,
        ids: &[u64],
    ) -> Vec<(QueryResult, u64)> {
        // Whole-ticket-lifetime unwind guard: if this waiter panics (its
        // batch was poisoned, or its own leader serve panicked), every
        // one of its tickets is reclaimed — removed from the queue,
        // `answers`, and `abandoned`, or marked `dead` if a leader has
        // it in flight — so a long-lived service cannot leak per-panic
        // state. Forgotten on the success path.
        let cleanup = TicketCleanup {
            service: self,
            ids: ids.to_vec(),
        };
        loop {
            if ids.iter().any(|id| sh.abandoned.contains(id)) {
                drop(sh);
                // `cleanup` reclaims all of this waiter's tickets
                panic!(
                    "OracleService: the leader serving this request's batch panicked \
                     (was an out-of-range vertex id coalesced into it?)"
                );
            }
            if ids.iter().all(|id| sh.answers.contains_key(id)) {
                let out = ids
                    .iter()
                    .map(|id| sh.answers.remove(id).expect("checked above"))
                    .collect();
                std::mem::forget(cleanup);
                return out;
            }
            if sh.leaders < self.config.policy.threads() && !sh.queue.is_empty() {
                // Become a leader: drain one batch, then serve it with
                // the admission lock *released* — arrivals while every
                // slot is taken queue up and form the next batch (that
                // concurrency is the coalescing window).
                sh.leaders += 1;
                let take = sh.queue.len().min(MAX_BATCH);
                let batch: Vec<Pending> = sh.queue.drain(..take).collect();
                // Capture the batch's epoch while the lock pins it: the
                // whole batch is served by this one oracle even if a
                // swap lands while the serve is in flight — that is the
                // "swap at a batch boundary, never a torn epoch" rule.
                let oracle = Arc::clone(&sh.oracle);
                let batch_epoch = sh.epoch;
                drop(sh);

                let pairs: Vec<(VertexId, VertexId)> = batch.iter().map(|p| p.pair).collect();
                // If query_batch panics (out-of-range ids), this guard
                // releases leadership, marks the drained tickets
                // abandoned (their waiters re-raise instead of blocking
                // forever), and wakes everyone, so requests outside the
                // poisoned batch still make progress.
                let reset = LeaderReset {
                    service: self,
                    batch_ids: batch.iter().map(|p| p.id).collect(),
                };
                let (answers, cost) = oracle.query_batch(&pairs, self.config.policy);
                std::mem::forget(reset);

                sh = self.shared.lock().unwrap();
                let published = Instant::now();
                let mut live = 0u64;
                // The flush-on-swap rule's second half: if the epoch
                // moved while this batch was in flight, its answers are
                // stale for *future* requests and must not repopulate
                // the freshly flushed cache (waiters still get them —
                // they were admitted against the captured epoch).
                let cacheable = sh.epoch == batch_epoch;
                for (pending, answer) in batch.iter().zip(&answers) {
                    if cacheable {
                        // answers are immutable within an epoch, so even
                        // a dead ticket's answer is safe to cache
                        self.cache_insert(&mut sh, pending.pair, *answer);
                    }
                    if sh.dead.remove(&pending.id) {
                        // the waiter unwound mid-flight; nobody will
                        // ever collect this answer
                        continue;
                    }
                    live += 1;
                    sh.answers.insert(pending.id, (*answer, batch_epoch));
                    sh.latencies
                        .record(published.duration_since(pending.admitted).as_secs_f64() * 1e3);
                }
                sh.served += live;
                sh.batches += 1;
                sh.largest_batch = sh.largest_batch.max(batch.len());
                sh.last_publication = Some(published);
                sh.total_cost = sh.total_cost.then(cost);
                sh.leaders -= 1;
                self.wakeup.notify_all();
                // Loop: our tickets may have been in the batch we just
                // served — or still be queued behind the MAX_BATCH cap.
                continue;
            }
            sh = self.wakeup.wait(sh).unwrap();
        }
    }

    /// Snapshot the serving statistics accumulated since construction (or
    /// the last [`OracleService::reset_stats`]).
    pub fn stats(&self) -> ServiceStats {
        let sh = self.shared.lock().unwrap();
        let elapsed_s = match (sh.first_admission, sh.last_publication) {
            (Some(a), Some(b)) => b.duration_since(a).as_secs_f64(),
            _ => 0.0,
        };
        ServiceStats {
            served: sh.served,
            batches: sh.batches,
            largest_batch: sh.largest_batch,
            elapsed_s,
            qps: if elapsed_s > 0.0 {
                sh.served as f64 / elapsed_s
            } else {
                0.0
            },
            p50_ms: sh.latencies.percentile(50.0),
            p99_ms: sh.latencies.percentile(99.0),
            p999_ms: sh.latencies.percentile(99.9),
            total_cost: sh.total_cost,
            cache_hits: sh.cache_hits,
        }
    }

    /// Clear the statistics (e.g. between benchmark scenario cells).
    /// In-flight requests are unaffected; their latencies land in the
    /// fresh window. Cached answers are kept — they are immutable within
    /// an epoch, so carrying them across stats windows cannot change any
    /// future answer (only `cache_hits` counts from zero again). The
    /// epoch and oracle are untouched: invalidation is tied to
    /// [`OracleService::swap_oracle`], never to stats housekeeping.
    pub fn reset_stats(&self) {
        let mut sh = self.shared.lock().unwrap();
        sh.served = 0;
        sh.batches = 0;
        sh.largest_batch = 0;
        sh.first_admission = None;
        sh.last_publication = None;
        sh.total_cost = Cost::ZERO;
        sh.cache_hits = 0;
        sh.latencies.clear();
    }
}

/// Unwind guard: if a leader panics mid-service, release its slot,
/// mark every ticket of the drained batch abandoned (its waiters
/// re-raise the failure — the batch's answers are unrecoverable and
/// must not deadlock), and wake everyone so requests outside the
/// poisoned batch keep flowing. `mem::forget` on the success path makes
/// this a no-op normally.
struct LeaderReset<'a> {
    service: &'a OracleService,
    batch_ids: Vec<u64>,
}

impl Drop for LeaderReset<'_> {
    fn drop(&mut self) {
        if let Ok(mut sh) = self.service.shared.lock() {
            for id in &self.batch_ids {
                // a ticket whose waiter already unwound needs no
                // abandonment marker — nobody is left to observe it
                if !sh.dead.remove(id) {
                    sh.abandoned.insert(*id);
                }
            }
            sh.leaders -= 1;
        }
        self.service.wakeup.notify_all();
    }
}

/// Unwind guard for a *waiter*: reclaims every ticket the unwinding
/// client submitted, wherever it currently is — still queued (removed
/// before any leader drains it), already answered or abandoned (entries
/// dropped), or in a leader's in-flight batch (marked dead so the
/// publisher discards the answer). `mem::forget` on the success path.
struct TicketCleanup<'a> {
    service: &'a OracleService,
    ids: Vec<u64>,
}

impl Drop for TicketCleanup<'_> {
    fn drop(&mut self) {
        if let Ok(mut sh) = self.service.shared.lock() {
            for id in &self.ids {
                if let Some(pos) = sh.queue.iter().position(|p| p.id == *id) {
                    sh.queue.remove(pos);
                } else if sh.answers.remove(id).is_none() && !sh.abandoned.remove(id) {
                    sh.dead.insert(*id);
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The Send/Sync audit (see the module docs). These are compile-time
// proofs: if any field of the serving stack loses auto-Send/Sync (an
// `Rc`, a `RefCell`, a raw pointer), the workspace stops building here
// with a named type instead of failing obscurely at a spawn site.
// ---------------------------------------------------------------------------

const fn assert_send_sync<T: Send + Sync>() {}
const _: () = {
    // the shared oracle and everything inside it
    assert_send_sync::<ApproxShortestPaths>();
    assert_send_sync::<CsrGraph>();
    // the mapped (zero-copy) representation: raw slices into a shared
    // immutable snapshot region, shareable by the manual unsafe impls
    assert_send_sync::<SnapshotSource>();
    assert_send_sync::<MmapView>();
    // snapshot provenance travels between build and serve threads
    assert_send_sync::<OracleMeta>();
    assert_send_sync::<HopsetParams>();
    assert_send_sync::<QueryResult>();
    assert_send_sync::<Cost>();
    // and the service itself is shared by reference across clients
    assert_send_sync::<OracleService>();
    assert_send_sync::<ServiceConfig>();
    assert_send_sync::<CacheConfig>();
    assert_send_sync::<ServiceStats>();
    // the hot-swap path hands graphs, deltas, and replacement oracles
    // between the rebuild thread and the serving threads
    assert_send_sync::<psh_graph::GraphDelta>();
    assert_send_sync::<Arc<ApproxShortestPaths>>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{OracleBuilder, Seed};
    use psh_graph::generators;
    use std::sync::mpsc;
    use std::time::Duration;

    fn test_oracle(seed: u64) -> ApproxShortestPaths {
        let g = generators::grid(10, 10);
        OracleBuilder::new()
            .seed(Seed(seed))
            .build(&g)
            .unwrap()
            .artifact
    }

    #[test]
    fn single_threaded_service_matches_direct_queries() {
        let oracle = test_oracle(1);
        let service = OracleService::new(oracle, ServiceConfig::default());
        for (s, t) in [(0u32, 99u32), (5, 50), (42, 42), (99, 0)] {
            let expect = service.oracle().query(s, t).0;
            assert_eq!(service.query(s, t), expect, "({s},{t})");
        }
        let stats = service.stats();
        assert_eq!(stats.served, 4);
        assert_eq!(stats.batches, 4, "uncontended queries serve one-by-one");
        assert!(stats.qps > 0.0);
        assert!(stats.p50_ms <= stats.p99_ms && stats.p99_ms <= stats.p999_ms);
    }

    #[test]
    fn batch_submission_preserves_input_order() {
        let oracle = test_oracle(2);
        let pairs: Vec<(u32, u32)> = (0..40u32).map(|i| (i, 99 - i)).collect();
        let expect: Vec<QueryResult> = pairs.iter().map(|&(s, t)| oracle.query(s, t).0).collect();
        let service = OracleService::new(oracle, ServiceConfig::default());
        assert_eq!(service.query_batch(&pairs), expect);
        assert!(service.query_batch(&[]).is_empty());
        let stats = service.stats();
        assert_eq!(stats.served, 40);
        assert_eq!(stats.batches, 1, "one submission, one coalesced batch");
        assert_eq!(stats.largest_batch, 40);
    }

    #[test]
    fn max_batch_splits_oversized_submissions() {
        let oracle = test_oracle(3);
        let total = 2 * MAX_BATCH + 10;
        let pairs: Vec<(u32, u32)> = (0..total as u32)
            .map(|i| (i % 100, (i * 7 + 3) % 100))
            .collect();
        let expect: Vec<QueryResult> = pairs.iter().map(|&(s, t)| oracle.query(s, t).0).collect();
        let service = OracleService::new(
            oracle,
            ServiceConfig::with_policy(ExecutionPolicy::Sequential),
        );
        assert_eq!(service.query_batch(&pairs), expect);
        let stats = service.stats();
        assert_eq!(stats.served, total as u64);
        assert_eq!(
            stats.batches, 3,
            "{total} requests under a cap of {MAX_BATCH}"
        );
        assert_eq!(stats.largest_batch, MAX_BATCH);
    }

    #[test]
    fn concurrent_clients_coalesce_and_stay_byte_identical() {
        let oracle = test_oracle(4);
        let pairs: Vec<(u32, u32)> = (0..64u32).map(|i| (i % 100, (i * 7) % 100)).collect();
        let expect: Vec<QueryResult> = pairs.iter().map(|&(s, t)| oracle.query(s, t).0).collect();
        let service = OracleService::new(
            oracle,
            ServiceConfig::with_policy(ExecutionPolicy::Parallel { threads: 2 }),
        );
        let answers: Vec<(usize, QueryResult)> = std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for worker in 0..8usize {
                let service = &service;
                let pairs = &pairs;
                handles.push(scope.spawn(move || {
                    let mut got = Vec::new();
                    for (i, &(s, t)) in pairs.iter().enumerate().skip(worker).step_by(8) {
                        got.push((i, service.query(s, t)));
                    }
                    got
                }));
            }
            handles
                .into_iter()
                .flat_map(|h| h.join().unwrap())
                .collect()
        });
        for (i, answer) in answers {
            assert_eq!(answer, expect[i], "query #{i}");
        }
        let stats = service.stats();
        assert_eq!(stats.served, 64);
        assert!(stats.batches <= 64);
        service.reset_stats();
        assert_eq!(service.stats(), ServiceStats::default());
    }

    #[test]
    fn from_samples_matches_a_live_service_column_for_column() {
        let oracle = test_oracle(7);
        let service = OracleService::new(oracle, ServiceConfig::default());
        for (s, t) in [(0u32, 99u32), (5, 50), (42, 42)] {
            service.query(s, t);
        }
        // the service's own samples are timings; swap in known ones
        let samples = [0.5, 0.0, 12.25];
        {
            let mut sh = service.shared.lock().unwrap();
            sh.latencies = LatencyHistogram::from_samples(&samples);
        }
        let live = service.stats();
        let rebuilt = ServiceStats::from_samples(
            &samples,
            live.elapsed_s,
            live.batches,
            live.largest_batch,
            live.total_cost,
        );
        assert_eq!(rebuilt, live, "the hook reproduces the live snapshot");
        assert_eq!(
            live.p50_ms,
            LatencyHistogram::bucket_max(LatencyHistogram::bucket(0.5))
        );
        let empty = ServiceStats::from_samples(&[], 0.0, 0, 0, Cost::ZERO);
        assert_eq!(empty, ServiceStats::default());
    }

    #[test]
    fn histogram_buckets_are_at_most_a_32nd_wide() {
        type H = LatencyHistogram;
        assert_eq!(
            (H::bucket(0.0), H::bucket(f64::NAN), H::bucket(1e-7)),
            (0, 0, 0)
        );
        assert_eq!(H::bucket(H::MIN_MS), 1);
        assert_eq!(H::bucket(f64::INFINITY), H::BUCKETS - 1);
        for i in 1..H::BUCKETS - 1 {
            let (lo, hi) = (H::bucket_max(i - 1), H::bucket_max(i));
            assert!(lo < hi, "bucket {i}");
            assert_eq!(H::bucket(hi), i, "bucket {i} holds its own maximum");
            assert_eq!(H::bucket(f64::from_bits(hi.to_bits() + 1)), i + 1);
            if i > 1 {
                assert!(hi - lo <= lo / 32.0, "bucket {i}: ({lo}, {hi}]");
            }
        }
    }

    proptest::proptest! {
        /// Histogram percentiles never read below the nearest-rank
        /// percentile of the same samples, and land in its bucket.
        #[test]
        fn prop_histogram_percentiles_bound_nearest_rank(
            raw in proptest::collection::vec((0u32..6, 0u32..1_000_000), 1..400),
            p_pick in 0u32..1_001,
        ) {
            // zeros (cache hits) and log-uniform timings from 1 µs to 10 s
            let samples: Vec<f64> = raw
                .iter()
                .map(|&(kind, u)| if kind == 0 { 0.0 } else { 1e-3 * 1e7f64.powf(u as f64 / 1e6) })
                .collect();
            let h = LatencyHistogram::from_samples(&samples);
            for p in [p_pick as f64 / 10.0, 50.0, 99.0, 99.9, 100.0] {
                let exact = percentile(&samples, p);
                let read = h.percentile(p);
                proptest::prop_assert!(read >= exact, "p{p}: {read} < {exact}");
                proptest::prop_assert_eq!(
                    LatencyHistogram::bucket(read),
                    LatencyHistogram::bucket(exact)
                );
                proptest::prop_assert!(read - exact <= exact / 32.0);
            }
        }
    }

    #[test]
    fn stats_percentiles_use_nearest_rank() {
        let xs: Vec<f64> = (1..=1000).map(|i| i as f64).collect();
        assert_eq!(percentile(&xs, 50.0), 500.0);
        assert_eq!(percentile(&xs, 99.0), 990.0);
        // 99.9/100 * 1000 lands just above 999 in binary floating point,
        // so nearest-rank rounds up to the maximum — fine for a tail
        // percentile (it can only over-report, never under-report).
        assert_eq!(percentile(&xs, 99.9), 1000.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn leader_panic_abandons_its_batch_but_the_service_stays_live() {
        for policy in [
            ExecutionPolicy::Sequential,
            ExecutionPolicy::Parallel { threads: 2 },
        ] {
            let service = OracleService::new(test_oracle(6), ServiceConfig::with_policy(policy));
            // An out-of-range id panics inside the leader's query_batch;
            // the unwind guards must release its leader slot so later
            // requests are served (not deadlocked), and reclaim every
            // ticket the panicking client submitted — including the two
            // still queued beyond the MAX_BATCH cap.
            let mut pairs = vec![(0, 1), (0, 10_000)];
            pairs.extend((0..MAX_BATCH as u32).map(|i| (i % 100, (i + 1) % 100)));
            let poisoned = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                service.query_batch(&pairs)
            }));
            assert!(poisoned.is_err(), "out-of-range id must panic ({policy:?})");
            {
                let sh = service.shared.lock().unwrap();
                assert_eq!(sh.leaders, 0, "leader slot released ({policy:?})");
                assert!(sh.queue.is_empty(), "queued tickets reclaimed");
                assert!(sh.answers.is_empty(), "no orphaned answers");
                assert!(sh.abandoned.is_empty(), "no lingering abandonment markers");
                assert!(sh.dead.is_empty(), "no lingering dead markers");
            }
            let expect = service.oracle().query(3, 42).0;
            assert_eq!(service.query(3, 42), expect, "service is still live");
            assert_eq!(service.stats().served, 1, "only the live query counts");
        }
    }

    /// A service under `policy` with one leader slot taken by a batch
    /// that never publishes, as if its sweep were still running.
    fn service_with_a_leader_in_flight(policy: ExecutionPolicy) -> OracleService {
        let service = OracleService::new(test_oracle(13), ServiceConfig::with_policy(policy));
        service.shared.lock().unwrap().leaders += 1;
        service
    }

    /// Give the slot taken above back and wake the waiters, as that
    /// leader's publication would.
    fn release_leader_slot(service: &OracleService) {
        service.shared.lock().unwrap().leaders -= 1;
        service.wakeup.notify_all();
    }

    #[test]
    fn a_second_leader_serves_while_a_batch_is_in_flight() {
        let service = service_with_a_leader_in_flight(ExecutionPolicy::Parallel { threads: 2 });
        let expect = service.oracle().query(0, 99).0;
        let (tx, rx) = mpsc::channel();
        std::thread::scope(|scope| {
            let svc = &service;
            scope.spawn(move || {
                let _ = tx.send(svc.query(0, 99));
            });
            let got = rx.recv_timeout(Duration::from_secs(5));
            // release before asserting, so the caller exits either way
            release_leader_slot(&service);
            assert_eq!(
                got,
                Ok(expect),
                "Parallel {{ threads: 2 }} has a free leader slot"
            );
        });
        assert_eq!(service.shared.lock().unwrap().leaders, 0);
    }

    #[test]
    fn sequential_serves_one_batch_at_a_time() {
        let service = service_with_a_leader_in_flight(ExecutionPolicy::Sequential);
        let expect = service.oracle().query(0, 99).0;
        let (tx, rx) = mpsc::channel();
        std::thread::scope(|scope| {
            let svc = &service;
            scope.spawn(move || {
                let _ = tx.send(svc.query(0, 99));
            });
            // wait until the request is queued behind the taken slot,
            // then wake it: a wake-up alone must not let it lead
            let deadline = Instant::now() + Duration::from_secs(5);
            while service.shared.lock().unwrap().queue.is_empty() && Instant::now() < deadline {
                std::thread::yield_now();
            }
            service.wakeup.notify_all();
            let early = rx.recv_timeout(Duration::from_millis(200));
            let queued = service.shared.lock().unwrap().queue.len();
            // release before asserting, so the caller exits either way
            release_leader_slot(&service);
            assert_eq!(
                early,
                Err(mpsc::RecvTimeoutError::Timeout),
                "served while the only leader slot was taken"
            );
            assert_eq!(queued, 1, "the request waits in the queue");
            assert_eq!(rx.recv_timeout(Duration::from_secs(5)), Ok(expect));
        });
        assert_eq!(service.shared.lock().unwrap().leaders, 0);
    }

    #[test]
    fn answer_cache_hits_are_byte_identical_under_every_policy() {
        // one pair list with heavy repetition, served by a cached and an
        // uncached service under Seq and Par{4}: all four answer streams
        // must be identical, and the cached services must actually hit
        let pairs: Vec<(u32, u32)> = (0..96u32).map(|i| (i % 7, (i * 3) % 11 + 60)).collect();
        let mut streams = Vec::new();
        for policy in [
            ExecutionPolicy::Sequential,
            ExecutionPolicy::Parallel { threads: 4 },
        ] {
            for cache in [None, Some(CacheConfig::default())] {
                let service = OracleService::new(test_oracle(8), ServiceConfig { policy, cache });
                // mix the entry points: singles first (warming the
                // cache), then the whole list as one batch submission
                let mut got: Vec<QueryResult> =
                    pairs.iter().map(|&(s, t)| service.query(s, t)).collect();
                got.extend(service.query_batch(&pairs));
                let stats = service.stats();
                assert_eq!(stats.served, 2 * pairs.len() as u64);
                if cache.is_some() {
                    // 7 × 11 = 77 possible pairs, 192 requests: most repeat
                    assert!(
                        stats.cache_hits > 100,
                        "expected heavy hitting, got {}",
                        stats.cache_hits
                    );
                } else {
                    assert_eq!(stats.cache_hits, 0);
                }
                streams.push(got);
            }
        }
        for s in &streams[1..] {
            assert_eq!(s, &streams[0], "cache and policy must not change answers");
        }
    }

    #[test]
    fn answer_cache_eviction_is_bounded_and_seeded() {
        // capacity 1: every insert evicts the previous occupant, so two
        // alternating pairs never both hit — but answers stay correct
        let service = OracleService::new(
            test_oracle(9),
            ServiceConfig {
                policy: ExecutionPolicy::Sequential,
                cache: Some(CacheConfig {
                    capacity: 1,
                    seed: 42,
                }),
            },
        );
        let expect_a = service.oracle().query(0, 99).0;
        let expect_b = service.oracle().query(1, 98).0;
        for _ in 0..4 {
            assert_eq!(service.query(0, 99), expect_a);
            assert_eq!(service.query(1, 98), expect_b);
        }
        let stats = service.stats();
        assert_eq!(stats.served, 8);
        assert_eq!(stats.cache_hits, 0, "alternation defeats a 1-slot cache");
        // repeating one pair back-to-back does hit
        assert_eq!(service.query(0, 99), expect_a);
        assert_eq!(service.query(0, 99), expect_a);
        assert_eq!(service.stats().cache_hits, 1);
        // reset_stats zeroes the counter but keeps the cached answer
        service.reset_stats();
        assert_eq!(service.query(0, 99), expect_a);
        let stats = service.stats();
        assert_eq!((stats.cache_hits, stats.served), (1, 1));
    }

    #[test]
    fn hot_swap_matches_fresh_build_of_the_mutated_graph_under_every_policy() {
        use psh_graph::GraphDelta;
        let g = generators::grid(10, 10);
        let build = |g: &psh_graph::CsrGraph| {
            OracleBuilder::new()
                .seed(Seed(11))
                .build(g)
                .unwrap()
                .artifact
        };
        let mut delta = GraphDelta::new(100);
        delta.insert(0, 99, 1).unwrap(); // a shortcut that changes distances
        delta.delete(0, 1).unwrap();
        let mutated = g.apply_delta(&delta).unwrap();
        let fresh = build(&mutated); // the reference: a from-scratch build

        for policy in [
            ExecutionPolicy::Sequential,
            ExecutionPolicy::Parallel { threads: 2 },
            ExecutionPolicy::Parallel { threads: 4 },
            ExecutionPolicy::Parallel { threads: 8 },
        ] {
            let service = OracleService::new(
                build(&g),
                ServiceConfig {
                    policy,
                    cache: Some(CacheConfig::default()),
                },
            );
            assert_eq!(service.epoch(), 0);
            let pairs: Vec<(u32, u32)> = (0..32u32).map(|i| (i, 99 - i)).collect();
            let before = service.query_batch(&pairs);
            assert_eq!(service.swap_oracle(Arc::new(build(&mutated))), 1);
            assert_eq!(service.epoch(), 1);
            let after = service.query_batch(&pairs);
            let expect: Vec<QueryResult> =
                pairs.iter().map(|&(s, t)| fresh.query(s, t).0).collect();
            assert_eq!(after, expect, "post-swap ≡ fresh build, policy {policy:?}");
            assert_ne!(before, after, "the delta must actually change answers");
            // attribution: post-swap answers carry the new epoch
            assert_eq!(service.query_attributed(0, 99), (fresh.query(0, 99).0, 1));
        }
    }

    #[test]
    fn swap_flushes_the_answer_cache() {
        use psh_graph::GraphDelta;
        let old = test_oracle(12);
        let service = OracleService::new(
            old,
            ServiceConfig {
                policy: ExecutionPolicy::Sequential,
                cache: Some(CacheConfig::default()),
            },
        );
        // populate the cache and prove it hits
        let stale = service.query(0, 99);
        assert_eq!(service.query(0, 99), stale);
        assert_eq!(service.stats().cache_hits, 1);

        // swap to an oracle whose (0, 99) answer differs
        let g = generators::grid(10, 10);
        let mut delta = GraphDelta::new(100);
        delta.insert(0, 99, 1).unwrap();
        let mutated = g.apply_delta(&delta).unwrap();
        let fresh = OracleBuilder::new()
            .seed(Seed(12))
            .build(&mutated)
            .unwrap()
            .artifact;
        let expect = fresh.query(0, 99).0;
        assert_ne!(expect, stale, "the shortcut must change this answer");
        service.swap_oracle(Arc::new(fresh));

        // a stale hit here would return `stale`; the flush forces a miss
        // and the new epoch's bytes
        let hits_before = service.stats().cache_hits;
        assert_eq!(service.query(0, 99), expect);
        assert_eq!(
            service.stats().cache_hits,
            hits_before,
            "post-swap first touch must miss the flushed cache"
        );
        // and the fresh answer is cached for the new epoch
        assert_eq!(service.query(0, 99), expect);
        assert_eq!(service.stats().cache_hits, hits_before + 1);
    }

    #[test]
    #[should_panic(expected = "cache capacity")]
    fn zero_cache_capacity_is_rejected() {
        let _ = OracleService::new(
            test_oracle(5),
            ServiceConfig {
                policy: ExecutionPolicy::Sequential,
                cache: Some(CacheConfig {
                    capacity: 0,
                    seed: 0,
                }),
            },
        );
    }
}
