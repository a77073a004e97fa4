//! The shared level-synchronous frontier engine.
//!
//! Both bucketed searches in this workspace — the clustering race
//! (Algorithm 1 / Appendix A) and Dial's bucketed SSSP \[KS97\], which
//! Algorithm 4's clique searches run on — have the same skeleton: a
//! priority queue of integer-keyed buckets of *claims*, processed in key
//! order, where each round
//!
//! 1. **filters** the popped bucket down to claims that are still live,
//! 2. **resolves** contention by sorting and keeping, per target vertex,
//!    the minimum claim under a total tie-breaking order,
//! 3. **commits** the winners to the algorithm's state, and
//! 4. **expands** each winner into future claims pushed at later keys.
//!
//! Each implements [`Frontier`] and lets [`drive`] run the rounds. The engine
//! owns both the parallelism and the accounting:
//!
//! * phases 1, 2, and 4 execute on a [`psh_exec::Executor`] via the
//!   deterministic chunked combinators, so artifacts are byte-identical
//!   for any [`psh_exec::ExecutionPolicy`] — ties are fixed by the claim
//!   type's `Ord`, never by scheduling;
//! * *work* is accumulated in a [`psh_pram::OpCounter`] (claims examined,
//!   edges scanned, winners committed — the same currency the paper
//!   charges), and *depth* is the number of rounds the engine actually
//!   ran, so the reported [`Cost`] is measured from the execution itself
//!   rather than estimated alongside it.
//!
//! Two-phase claim/commit is what makes determinism cheap: state is only
//! read during filtering/expansion and only written between them, so no
//! parallel phase ever races on the arrays the algorithms update.

use crate::csr::VertexId;
use psh_exec::Executor;
use psh_pram::{Cost, OpCounter};
use std::collections::BTreeMap;

/// Claims per chunk when filtering a popped bucket (claims are small
/// PODs; below this a pool round-trip costs more than the scan).
const FILTER_GRAIN: usize = 4096;

/// Winners per chunk when expanding (each expansion scans an adjacency
/// list, so chunks are heavier than filter chunks).
const EXPAND_GRAIN: usize = 256;

/// Ring slots in the calendar queue's dense window (power of two so the
/// slot index is a mask). Keys outside `[base, base + CALENDAR_SLOTS)`
/// spill to the sparse overflow tree and are promoted into the ring as
/// the window advances.
const CALENDAR_SLOTS: usize = 1024;

/// Recycled bucket `Vec`s kept around for reuse; beyond this they are
/// dropped so a burst of wide rounds cannot pin memory forever.
const FREE_POOL_CAP: usize = 256;

/// A calendar (circular multi-list) bucket queue: the near future is a
/// flat ring of `CALENDAR_SLOTS` lazily-allocated `Vec` buckets indexed
/// by `key % CALENDAR_SLOTS`, the far future is a sparse `BTreeMap`
/// overflow, and spent bucket `Vec`s recycle through a free-list — in
/// steady state a round of push/pop traffic allocates nothing and never
/// chases `BTreeMap` node pointers.
///
/// Invariants that keep pop order exact (and therefore every artifact
/// byte-identical to the old `BTreeMap` implementation):
///
/// * the window base only advances (to each popped key), so within a
///   window every ring slot corresponds to exactly one key;
/// * a key's bucket lives *either* in the ring (keys inside
///   `[base, base + CALENDAR_SLOTS)`) *or* in the overflow tree (keys
///   beyond the window, or below `base` from out-of-order pushes) —
///   never both, so buckets are popped whole;
/// * whenever the base advances, overflow keys that fell inside the new
///   window are promoted into their ring slots, restoring the first
///   invariant before the next push.
///
/// `pop_min` finds the ring minimum through a per-slot occupancy bitmap
/// (one `trailing_zeros` per 64 slots) and compares it against the first
/// overflow key, so sparse key ranges cost a handful of word scans
/// instead of a tree descent.
#[derive(Clone, Debug, Default)]
pub struct BucketQueue<T> {
    /// `CALENDAR_SLOTS` buckets once the first push arrives; empty until
    /// then so an unused queue costs nothing.
    ring: Vec<Vec<T>>,
    /// One bit per ring slot: does the slot hold any items?
    occupied: Vec<u64>,
    /// Start of the dense window. Never decreases.
    base: u64,
    /// Far-future (or below-base) buckets, sparse.
    overflow: BTreeMap<u64, Vec<T>>,
    /// Spent bucket `Vec`s awaiting reuse (all empty, capacity kept).
    free: Vec<Vec<T>>,
    /// Total queued items across ring and overflow.
    len: usize,
}

impl<T> BucketQueue<T> {
    /// An empty queue.
    pub fn new() -> Self {
        BucketQueue {
            ring: Vec::new(),
            occupied: Vec::new(),
            base: 0,
            overflow: BTreeMap::new(),
            free: Vec::new(),
            len: 0,
        }
    }

    #[inline]
    fn slot_of(key: u64) -> usize {
        (key & (CALENDAR_SLOTS as u64 - 1)) as usize
    }

    #[inline]
    fn in_window(&self, key: u64) -> bool {
        key >= self.base && key - self.base < CALENDAR_SLOTS as u64
    }

    fn ensure_ring(&mut self) {
        if self.ring.is_empty() {
            self.ring.resize_with(CALENDAR_SLOTS, Vec::new);
            self.occupied = vec![0u64; CALENDAR_SLOTS / 64];
        }
    }

    /// Install `bucket` (non-empty) into the ring slot for `key`. The
    /// slot must currently be unoccupied; its resident empty `Vec` moves
    /// to the free-list if it carries capacity.
    fn install(&mut self, key: u64, bucket: Vec<T>) {
        let slot = Self::slot_of(key);
        debug_assert_eq!(self.occupied[slot / 64] & (1 << (slot % 64)), 0);
        self.occupied[slot / 64] |= 1 << (slot % 64);
        let old = std::mem::replace(&mut self.ring[slot], bucket);
        debug_assert!(old.is_empty());
        if old.capacity() > 0 && self.free.len() < FREE_POOL_CAP {
            self.free.push(old);
        }
    }

    /// Append `item` to the bucket at `key`.
    pub fn push(&mut self, key: u64, item: T) {
        self.len += 1;
        if self.in_window(key) {
            self.ensure_ring();
            let slot = Self::slot_of(key);
            if self.occupied[slot / 64] & (1 << (slot % 64)) == 0 {
                self.occupied[slot / 64] |= 1 << (slot % 64);
                if self.ring[slot].capacity() == 0 {
                    if let Some(spare) = self.free.pop() {
                        self.ring[slot] = spare;
                    }
                }
            }
            self.ring[slot].push(item);
        } else {
            let free = &mut self.free;
            self.overflow
                .entry(key)
                .or_insert_with(|| free.pop().unwrap_or_default())
                .push(item);
        }
    }

    /// Smallest key with an occupied ring slot, scanning the occupancy
    /// bitmap forward from `base` (with wrap-around).
    fn ring_min_key(&self) -> Option<u64> {
        if self.ring.is_empty() {
            return None;
        }
        let base_slot = Self::slot_of(self.base);
        let (base_word, base_bit) = (base_slot / 64, base_slot % 64);
        let words = self.occupied.len();
        let key_at = |slot: usize| {
            let dist = (slot + CALENDAR_SLOTS - base_slot) % CALENDAR_SLOTS;
            self.base + dist as u64
        };
        // Unwrapped region: slots base_slot..CALENDAR_SLOTS.
        let head = self.occupied[base_word] & (!0u64 << base_bit);
        if head != 0 {
            return Some(key_at(base_word * 64 + head.trailing_zeros() as usize));
        }
        for w in base_word + 1..words {
            if self.occupied[w] != 0 {
                return Some(key_at(w * 64 + self.occupied[w].trailing_zeros() as usize));
            }
        }
        // Wrapped region: slots 0..base_slot (later keys in the window).
        for w in 0..base_word {
            if self.occupied[w] != 0 {
                return Some(key_at(w * 64 + self.occupied[w].trailing_zeros() as usize));
            }
        }
        let tail = self.occupied[base_word] & !(!0u64 << base_bit);
        if tail != 0 {
            return Some(key_at(base_word * 64 + tail.trailing_zeros() as usize));
        }
        None
    }

    /// Remove and return the non-empty bucket with the smallest key,
    /// advancing the window to it and promoting overflow buckets that
    /// the new window now covers.
    pub fn pop_min(&mut self) -> Option<(u64, Vec<T>)> {
        if self.len == 0 {
            return None;
        }
        let ring_key = self.ring_min_key();
        let over_key = self.overflow.keys().next().copied();
        let from_overflow = match (ring_key, over_key) {
            (Some(rk), Some(ok)) => ok < rk,
            (None, _) => true,
            (Some(_), None) => false,
        };
        let (key, bucket) = if from_overflow {
            self.overflow.pop_first().expect("len > 0 and ring empty")
        } else {
            let key = ring_key.expect("ring side selected");
            let slot = Self::slot_of(key);
            self.occupied[slot / 64] &= !(1 << (slot % 64));
            (key, std::mem::take(&mut self.ring[slot]))
        };
        self.len -= bucket.len();
        if key > self.base {
            self.base = key;
            // The window moved: any overflow bucket now inside it must
            // return to the ring before the next push, or that key could
            // end up split across both stores.
            let horizon = self.base + CALENDAR_SLOTS as u64;
            let promote: Vec<u64> = self
                .overflow
                .range(self.base..horizon)
                .map(|(&k, _)| k)
                .collect();
            if !promote.is_empty() {
                self.ensure_ring();
                for k in promote {
                    let v = self.overflow.remove(&k).expect("key just listed");
                    self.install(k, v);
                }
            }
        }
        Some((key, bucket))
    }

    /// True when no items are queued.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Hand a spent bucket back so its allocation feeds future pushes.
    pub fn recycle(&mut self, mut bucket: Vec<T>) {
        bucket.clear();
        if bucket.capacity() > 0 && self.free.len() < FREE_POOL_CAP {
            self.free.push(bucket);
        }
    }
}

/// One algorithm's view of the race: what a claim is, when it is still
/// live, how winners update state, and what they spawn next.
///
/// # Contract
///
/// * `Claim`'s `Ord` **must order by target first** (the engine groups
///   winners by runs of equal targets in sorted order), and the remaining
///   fields must totally order claims so the per-target minimum is the
///   unique deterministic winner.
/// * [`Frontier::live`] and [`Frontier::expand`] take `&self` and run in
///   parallel — they must not mutate state (interior-mutable counters
///   aside). [`Frontier::commit`] runs sequentially, in sorted winner
///   order, between them.
/// * `expand` returns the work units (edge scans) it performed, which the
///   engine adds to the run's [`Cost::work`].
pub trait Frontier: Sync {
    /// A pending assignment attempt on some target vertex.
    type Claim: Copy + Ord + Send + Sync;

    /// The vertex this claim tries to acquire.
    fn target(claim: &Self::Claim) -> VertexId;

    /// Is this claim still meaningful, given current state? Runs in the
    /// parallel filter phase; stale claims are dropped (their examination
    /// is still charged as work).
    fn live(&self, claim: &Self::Claim) -> bool;

    /// Apply a winning claim. Runs sequentially; `round` is the bucket
    /// key being processed.
    fn commit(&mut self, claim: &Self::Claim, round: u64);

    /// Emit the follow-up claims of a committed winner as
    /// `(key, claim)` pairs with `key >= round`; returns the number of
    /// work units (e.g. edges scanned) performed. Runs in the parallel
    /// expansion phase, after every commit of this round.
    fn expand(&self, claim: &Self::Claim, round: u64, out: &mut Vec<(u64, Self::Claim)>) -> u64;
}

/// Run the level-synchronous rounds to exhaustion.
///
/// Returns the engine-measured cost: `work` = claims examined + work
/// units reported by `expand` + winners committed (from the internal
/// [`OpCounter`]); `depth` = number of rounds in which at least one claim
/// won (rounds whose bucket was entirely stale cost work but no depth,
/// matching the PRAM schedule where such a round does not exist).
pub fn drive<F: Frontier>(
    exec: &Executor,
    queue: &mut BucketQueue<F::Claim>,
    frontier: &mut F,
) -> Cost {
    let counter = OpCounter::new();
    let mut rounds: u64 = 0;
    let mut winners: Vec<F::Claim> = Vec::new();
    while let Some((round, claims)) = queue.pop_min() {
        counter.add(claims.len() as u64);
        // Phase 1: parallel filter of stale claims.
        let shared: &F = frontier;
        let mut live = exec.par_filter(&claims, FILTER_GRAIN, |c| shared.live(c));
        if live.is_empty() {
            queue.recycle(claims);
            continue;
        }
        // Phase 2: deterministic contention resolution — sort puts each
        // target's minimum claim first; keep the first of each run.
        exec.par_sort_unstable(&mut live);
        winners.clear();
        let mut last: Option<VertexId> = None;
        for claim in live {
            let t = F::target(&claim);
            if last != Some(t) {
                winners.push(claim);
                last = Some(t);
            }
        }
        // Phase 3: sequential commit in sorted winner order.
        for claim in &winners {
            frontier.commit(claim, round);
        }
        // Phase 4: parallel expansion; emitted claims land in later (or
        // re-opened current) buckets, concatenated in winner order.
        let shared: &F = frontier;
        let expansion = exec.par_flat_map(&winners, EXPAND_GRAIN, |claim, out| {
            let before = out.len();
            let scanned = shared.expand(claim, round, out);
            debug_assert!(out[before..].iter().all(|&(k, _)| k >= round));
            counter.add(scanned);
        });
        for (key, claim) in expansion {
            queue.push(key, claim);
        }
        counter.add(winners.len() as u64);
        rounds += 1;
        queue.recycle(claims);
    }
    Cost::new(counter.get(), rounds)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_queue_pops_in_key_order() {
        let mut q = BucketQueue::new();
        q.push(5, 'b');
        q.push(2, 'a');
        q.push(5, 'c');
        assert!(!q.is_empty());
        assert_eq!(q.pop_min(), Some((2, vec!['a'])));
        assert_eq!(q.pop_min(), Some((5, vec!['b', 'c'])));
        assert!(q.is_empty());
        assert_eq!(q.pop_min(), None);
    }

    #[test]
    fn reinserting_at_the_popped_key_reopens_the_bucket() {
        // a claim pushed at the key just popped comes back out as a
        // bucket of its own: the engine runs it as an extra sub-round
        let mut q = BucketQueue::new();
        q.push(3, 1u32);
        let (k, _) = q.pop_min().unwrap();
        q.push(k, 2u32);
        assert_eq!(q.pop_min(), Some((3, vec![2])));
    }

    #[test]
    fn far_future_keys_overflow_and_promote_as_the_window_advances() {
        // CALENDAR_SLOTS = 1024: keys ≥ 1024 start in the overflow tree.
        // Popping 1500 moves the window to [1500, 2524), which must pull
        // 2500 into the ring (same residue class as 1500 + 1000) before
        // any push could split its bucket.
        let mut q = BucketQueue::new();
        q.push(0, 'a');
        q.push(1500, 'b');
        q.push(2500, 'c');
        assert_eq!(q.pop_min(), Some((0, vec!['a'])));
        assert_eq!(q.pop_min(), Some((1500, vec!['b'])));
        // 2500 is now a ring key; pushing to it must append to the same
        // bucket, not open a second one in overflow.
        q.push(2500, 'd');
        assert_eq!(q.pop_min(), Some((2500, vec!['c', 'd'])));
        assert!(q.is_empty());
    }

    #[test]
    fn keys_below_the_window_base_still_pop_first() {
        // The engine never pushes below the current round, but the queue
        // is a public type: late keys route through overflow and still
        // win the min comparison.
        let mut q = BucketQueue::new();
        q.push(10, 'a');
        assert_eq!(q.pop_min(), Some((10, vec!['a'])));
        q.push(2, 'b');
        q.push(11, 'c');
        assert_eq!(q.pop_min(), Some((2, vec!['b'])));
        assert_eq!(q.pop_min(), Some((11, vec!['c'])));
        assert!(q.is_empty());
    }

    #[test]
    fn calendar_queue_matches_the_btree_baseline_on_random_traffic() {
        // Deterministic xorshift traffic: interleaved pushes (some far
        // beyond the window, forcing overflow + promotion) and pops must
        // produce the exact (key, bucket) sequence of a plain sorted-map
        // model.
        let mut cal: BucketQueue<u64> = BucketQueue::new();
        let mut btree: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
        let mut floor = 0u64; // emulate drive(): never push below the last pop
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut rand = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for step in 0..4000 {
            if step % 3 == 2 {
                let got = cal.pop_min();
                let want = btree.pop_first();
                assert_eq!(got, want, "pop diverged at step {step}");
                if let Some((k, bucket)) = got {
                    floor = k;
                    cal.recycle(bucket);
                }
            } else {
                let r = rand();
                // Mostly near keys, occasionally far past the window.
                let key = floor
                    + if r % 11 == 0 {
                        5000 + r % 3000
                    } else {
                        r % 700
                    };
                cal.push(key, r);
                btree.entry(key).or_default().push(r);
            }
        }
        loop {
            let got = cal.pop_min();
            let want = btree.pop_first();
            assert_eq!(got, want, "drain diverged");
            if got.is_none() {
                break;
            }
        }
        assert!(cal.is_empty() && btree.is_empty());
    }

    /// Toy frontier: propagate the smallest source id along a path, one
    /// vertex per round — a miniature BFS exercising all four phases.
    struct Label {
        adj: Vec<Vec<VertexId>>,
        owner: Vec<u32>,
    }

    impl Frontier for Label {
        type Claim = (VertexId, u32); // (target, proposed owner)

        fn target(c: &Self::Claim) -> VertexId {
            c.0
        }

        fn live(&self, c: &Self::Claim) -> bool {
            self.owner[c.0 as usize] == u32::MAX
        }

        fn commit(&mut self, c: &Self::Claim, _round: u64) {
            self.owner[c.0 as usize] = c.1;
        }

        fn expand(&self, c: &Self::Claim, round: u64, out: &mut Vec<(u64, Self::Claim)>) -> u64 {
            for &w in &self.adj[c.0 as usize] {
                if self.owner[w as usize] == u32::MAX {
                    out.push((round + 1, (w, c.1)));
                }
            }
            self.adj[c.0 as usize].len() as u64
        }
    }

    #[test]
    fn drive_resolves_ties_deterministically_and_counts_rounds() {
        // path 0-1-2-3-4 with sources 0 (owner 7) and 4 (owner 3): vertex
        // 2 is contested at round 2 and the smaller claim (owner 3) wins.
        let adj = vec![vec![1], vec![0, 2], vec![1, 3], vec![2, 4], vec![3]];
        for exec in [
            Executor::sequential(),
            Executor::new(psh_exec::ExecutionPolicy::Parallel { threads: 3 }),
        ] {
            let mut f = Label {
                adj: adj.clone(),
                owner: vec![u32::MAX; 5],
            };
            let mut q = BucketQueue::new();
            q.push(0, (0, 7u32));
            q.push(0, (4, 3u32));
            let cost = drive(&exec, &mut q, &mut f);
            assert_eq!(f.owner, vec![7, 7, 3, 3, 3]);
            assert_eq!(cost.depth, 3, "rounds 0, 1, 2");
            assert!(cost.work > 0);
        }
    }
}
