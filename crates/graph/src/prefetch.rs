//! Software prefetch for the Dial and Δ-stepping hot loops.
//!
//! The inner loops of Dial and Δ-stepping follow the same pattern: walk a
//! contiguous adjacency slice and, per neighbor `w`, probe a big
//! per-vertex array (`settled[w]`, `dist[w]`) at an essentially random
//! index. The adjacency walk is hardware-prefetch friendly; the probes
//! are not — each one is a dependent random read that stalls the loop on
//! a cache miss.
//!
//! [`prefetch_read`] issues a non-binding cache hint for one element,
//! and [`lookahead`] wraps an iterator so every item is *hinted* a fixed
//! number of positions (`LOOKAHEAD`) before it is *yielded*: by the time
//! the loop body probes `dist[w]`, the line has had a few dozen
//! iterations of adjacency streaming to arrive. The adapter buffers
//! items in a fixed ring — no allocation, no reordering, no effect on
//! the yielded sequence — so determinism and cost accounting are
//! untouched; on targets without a prefetch intrinsic the hint is a
//! no-op and the adapter degrades to a plain pass-through.

/// How far ahead [`lookahead`] hints: items are prefetch-touched this
/// many positions before they are yielded. Sized to cover a handful of
/// in-flight cache misses without holding lines so long they are
/// evicted again.
pub const LOOKAHEAD: usize = 8;

/// Vertex count below which Dial and Δ-stepping skip the hint adapter.
/// Their probe targets are per-vertex arrays (8 B/entry or less): under
/// ~64k vertices they are L2-resident, the probes all but never miss,
/// and the ring buffer costs more than the stalls it hides. Above the
/// threshold the arrays outgrow L2 and the hinted arm runs.
pub const PREFETCH_MIN_VERTICES: usize = 1 << 16;

/// True when per-vertex state of `n` entries is big enough that hinted
/// probes ([`lookahead`] + [`prefetch_read`]) beat plain ones.
#[inline(always)]
pub fn prefetch_pays(n: usize) -> bool {
    n >= PREFETCH_MIN_VERTICES
}

/// Hint that `data[idx]` will be read soon. Out-of-range indices are
/// ignored (the hint must never fault); on targets without a stable
/// prefetch intrinsic this is a no-op.
#[inline(always)]
pub fn prefetch_read<T>(data: &[T], idx: usize) {
    #[cfg(target_arch = "x86_64")]
    if idx < data.len() {
        // SAFETY: idx is in bounds; _mm_prefetch has no memory effects
        // beyond the cache hint and accepts any address.
        unsafe {
            core::arch::x86_64::_mm_prefetch::<{ core::arch::x86_64::_MM_HINT_T0 }>(
                data.as_ptr().add(idx) as *const i8,
            );
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = (data, idx);
    }
}

/// Wrap `inner` so `touch` runs on every item [`LOOKAHEAD`] positions
/// before that item is yielded (and immediately, for the first few).
/// Yields exactly `inner`'s items in exactly `inner`'s order.
pub fn lookahead<I, F>(inner: I, touch: F) -> Lookahead<I, F>
where
    I: Iterator,
    F: FnMut(&I::Item),
{
    Lookahead {
        inner,
        buf: std::array::from_fn(|_| None),
        head: 0,
        count: 0,
        done: false,
        touch,
    }
}

/// Iterator adapter built by [`lookahead`]: a fixed [`LOOKAHEAD`]-slot
/// ring buffer between the source and the consumer, with the `touch`
/// hook running at fill time.
pub struct Lookahead<I: Iterator, F> {
    inner: I,
    buf: [Option<I::Item>; LOOKAHEAD],
    /// Ring index of the oldest buffered item.
    head: usize,
    count: usize,
    done: bool,
    touch: F,
}

impl<I, F> Iterator for Lookahead<I, F>
where
    I: Iterator,
    F: FnMut(&I::Item),
{
    type Item = I::Item;

    #[inline]
    fn next(&mut self) -> Option<I::Item> {
        while !self.done && self.count < LOOKAHEAD {
            match self.inner.next() {
                Some(item) => {
                    (self.touch)(&item);
                    self.buf[(self.head + self.count) % LOOKAHEAD] = Some(item);
                    self.count += 1;
                }
                None => self.done = true,
            }
        }
        if self.count == 0 {
            return None;
        }
        let item = self.buf[self.head].take();
        self.head = (self.head + 1) % LOOKAHEAD;
        self.count -= 1;
        item
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let (lo, hi) = self.inner.size_hint();
        (
            lo.saturating_add(self.count),
            hi.and_then(|h| h.checked_add(self.count)),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn yields_every_item_in_order() {
        for len in [0usize, 1, 7, 8, 9, 100] {
            let items: Vec<usize> = (0..len).collect();
            let out: Vec<usize> = lookahead(items.iter().copied(), |_| {}).collect();
            assert_eq!(out, items, "len = {len}");
        }
    }

    #[test]
    fn touch_runs_lookahead_positions_early() {
        let touched = std::cell::RefCell::new(Vec::new());
        let mut it = lookahead(0..100u32, |&x| touched.borrow_mut().push(x));
        // pulling one item must have touched the first LOOKAHEAD items
        assert_eq!(it.next(), Some(0));
        assert_eq!(*touched.borrow(), (0..LOOKAHEAD as u32).collect::<Vec<_>>());
        assert_eq!(it.next(), Some(1));
        assert_eq!(touched.borrow().len(), LOOKAHEAD + 1);
        // every item is touched exactly once overall
        let mut all = Vec::new();
        lookahead(0..100u32, |&x| all.push(x)).for_each(drop);
        assert_eq!(all, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn prefetch_hint_tolerates_any_index() {
        let data = [1u64, 2, 3];
        prefetch_read(&data, 0);
        prefetch_read(&data, 2);
        prefetch_read(&data, 999); // out of range: ignored, never faults
        prefetch_read::<u64>(&[], 0);
    }

    #[test]
    fn size_hint_accounts_for_buffered_items() {
        let mut it = lookahead(0..20u32, |_| {});
        it.next();
        let (lo, hi) = it.size_hint();
        assert_eq!(lo, 19);
        assert_eq!(hi, Some(19));
    }
}
