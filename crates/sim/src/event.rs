//! A deterministic future-event list.
//!
//! Events are delivered in non-decreasing timestamp order. Events with equal
//! timestamps are delivered in insertion (FIFO) order — ties are broken by a
//! monotonically increasing sequence number, never by payload comparison, so
//! the queue imposes no trait bounds on the event type and two runs with the
//! same schedule of `push` calls always pop identically.
//!
//! # Structure
//!
//! [`EventQueue`] is a two-tier calendar queue:
//!
//! * a **bucket ring** of `NUM_BUCKETS` buckets, each covering
//!   `BUCKET_WIDTH_NS` nanoseconds of near-future time, holding plain
//!   `(time, seq, slot)` index entries;
//! * an **overflow heap** (a plain binary heap over the same index entries)
//!   for events scheduled at or beyond the ring's horizon.
//!
//! Payloads live in a [`Slab`] arena keyed by the `slot` index, so pushes
//! and pops move 24-byte plain-data entries and, after warm-up, allocate
//! nothing.
//!
//! # Invariants
//!
//! 1. `seq` increases by one per push and is never reused; `(time, seq)` is
//!    therefore a total order over all events ever pushed.
//! 2. Every ring entry's time lies in `[ring_start, ring_start + SPAN_NS)`,
//!    and within that window each time maps to exactly one bucket — so the
//!    first non-empty bucket at or after the cursor holds the ring minimum.
//! 3. The overflow heap may hold events that have *become* near-future as
//!    the window advanced (the window only moves forward), so [`EventQueue::pop`]
//!    always compares the ring candidate against the overflow head by
//!    `(time, seq)` and takes the smaller. This comparison is what makes
//!    the pop order provably identical to a single `(time, seq)`-ordered
//!    heap: whichever tier holds the global minimum, it is selected.
//! 4. The cursor (`ring_start`) only advances over empty buckets or jumps
//!    when the ring is empty; entries already in the ring always remain
//!    inside the advanced window (they are `>=` the popped minimum).
//!
//! The previous single-tier binary-heap implementation is retained verbatim
//! as [`reference::HeapQueue`] to serve as a differential oracle.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::slab::Slab;
use crate::time::SimTime;

/// Log2 of the bucket width: each bucket covers 4096 ns. Engine event
/// delays are dominated by sub-microsecond lock/directory costs and
/// microsecond-scale compute/network latencies, so the common case lands
/// within a few buckets of the cursor.
const BUCKET_WIDTH_SHIFT: u32 = 12;
/// Width of one calendar bucket in nanoseconds.
const BUCKET_WIDTH_NS: u64 = 1 << BUCKET_WIDTH_SHIFT;
/// Number of buckets in the ring (power of two, so the home bucket is a
/// shift-and-mask). 256 buckets x 4096 ns ≈ a 1 ms near-future horizon.
const NUM_BUCKETS: usize = 256;
/// Nanoseconds covered by the whole ring.
const SPAN_NS: u64 = (NUM_BUCKETS as u64) << BUCKET_WIDTH_SHIFT;

/// A queue index entry: everything pop ordering needs, payload elsewhere.
#[derive(Debug, Clone, Copy)]
struct Pending {
    time: u64,
    seq: u64,
    slot: u32,
}

impl Pending {
    #[inline]
    fn key(&self) -> (u64, u64) {
        (self.time, self.seq)
    }
}

impl PartialEq for Pending {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}

impl Eq for Pending {}

impl PartialOrd for Pending {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Pending {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert to get earliest-(time, seq)-first.
        other.key().cmp(&self.key())
    }
}

/// Two-tier calendar queue of timestamped events with deterministic FIFO
/// tie-breaking, slab-backed payload storage, and a far-future overflow
/// heap. Pop order is identical to a `(time, seq)`-ordered binary heap
/// (see [`reference::HeapQueue`], the retained differential oracle).
#[derive(Debug, Clone)]
pub struct EventQueue<E> {
    /// Near-future calendar ring; `buckets[i]` holds in-window entries
    /// whose home index is `i`. Bucket vectors keep their capacity across
    /// pops, so steady-state operation does not allocate.
    buckets: Vec<Vec<Pending>>,
    /// Far-future entries, beyond `ring_start + SPAN_NS` at push time.
    overflow: BinaryHeap<Pending>,
    /// Payload arena; `Pending::slot` keys into it.
    payloads: Slab<E>,
    /// Start of the ring window, always bucket-aligned.
    ring_start: u64,
    /// Number of entries currently in the ring (not counting overflow).
    ring_len: usize,
    /// Next insertion sequence number (monotonic, never reused).
    seq: u64,
}

#[inline]
fn bucket_of(time_ns: u64) -> usize {
    ((time_ns >> BUCKET_WIDTH_SHIFT) as usize) & (NUM_BUCKETS - 1)
}

#[inline]
fn bucket_align(time_ns: u64) -> u64 {
    time_ns & !(BUCKET_WIDTH_NS - 1)
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self {
            buckets: (0..NUM_BUCKETS).map(|_| Vec::new()).collect(),
            overflow: BinaryHeap::new(),
            payloads: Slab::new(),
            ring_start: 0,
            ring_len: 0,
            seq: 0,
        }
    }

    /// Enqueues `event` at `time`.
    pub fn push(&mut self, time: SimTime, event: E) {
        let seq = self.seq;
        self.seq += 1;
        let slot = self.payloads.insert(event);
        let time = time.as_nanos();
        let entry = Pending { time, seq, slot };
        if time >= self.ring_start.saturating_add(SPAN_NS) {
            if self.ring_len == 0 {
                // Nothing pins the window: jump it so this entry (and the
                // pushes that follow it) stay on the cheap ring path.
                self.ring_start = bucket_align(time);
            } else {
                self.overflow.push(entry);
                return;
            }
        }
        // Past-window times (only reachable by direct queue use; the
        // simulator never schedules into the past) clamp into the cursor
        // bucket, where the argmin scan still orders them correctly.
        let idx = if time < self.ring_start {
            bucket_of(self.ring_start)
        } else {
            bucket_of(time)
        };
        self.buckets[idx].push(entry);
        self.ring_len += 1;
    }

    /// Advances the cursor to the first non-empty bucket and returns the
    /// position of that bucket's `(time, seq)`-minimum entry, if the ring
    /// holds any entry at all.
    #[inline]
    fn ring_candidate(&mut self) -> Option<(usize, usize)> {
        if self.ring_len == 0 {
            return None;
        }
        let mut idx = bucket_of(self.ring_start);
        while self.buckets[idx].is_empty() {
            // Bounded: some bucket is non-empty and every ring entry is
            // inside the window, at most NUM_BUCKETS - 1 steps away.
            self.ring_start += BUCKET_WIDTH_NS;
            idx = bucket_of(self.ring_start);
        }
        let bucket = &self.buckets[idx];
        let mut best = 0;
        for (pos, entry) in bucket.iter().enumerate().skip(1) {
            if entry.key() < bucket[best].key() {
                best = pos;
            }
        }
        Some((idx, best))
    }

    /// Removes and returns the earliest event, if any.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let ring = self.ring_candidate();
        let from_overflow = match (&ring, self.overflow.peek()) {
            (None, None) => return None,
            (None, Some(_)) => true,
            (Some(_), None) => false,
            // The window's advance can leave the global minimum in the
            // overflow heap, so the tiers are always compared head-to-head.
            (&Some((idx, pos)), Some(over)) => over.key() < self.buckets[idx][pos].key(),
        };
        let entry = if from_overflow {
            self.overflow.pop().expect("peeked entry")
        } else {
            let (idx, pos) = ring.expect("ring candidate");
            self.ring_len -= 1;
            self.buckets[idx].swap_remove(pos)
        };
        let event = self.payloads.remove(entry.slot);
        Some((SimTime::from_nanos(entry.time), event))
    }

    /// Timestamp of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        let mut best: Option<(u64, u64)> = self.overflow.peek().map(Pending::key);
        if self.ring_len > 0 {
            let start = bucket_of(self.ring_start);
            for step in 0..NUM_BUCKETS {
                let bucket = &self.buckets[(start + step) & (NUM_BUCKETS - 1)];
                if bucket.is_empty() {
                    continue;
                }
                let ring_min = bucket.iter().map(Pending::key).min().expect("non-empty");
                if best.is_none_or(|b| ring_min < b) {
                    best = Some(ring_min);
                }
                break;
            }
        }
        best.map(|(time, _)| SimTime::from_nanos(time))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.ring_len + self.overflow.len()
    }

    /// True when the queue has no pending events.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every pending event. Capacity (and the sequence counter) is
    /// retained.
    pub fn clear(&mut self) {
        for bucket in &mut self.buckets {
            bucket.clear();
        }
        self.overflow.clear();
        self.payloads.clear();
        self.ring_len = 0;
    }
}

pub mod reference {
    //! The original single-tier binary-heap future-event list, retained
    //! verbatim as a differential oracle for the calendar queue (see
    //! `tests/prop_event_queue.rs`): both must produce the exact same pop
    //! sequence, tie-breaks included, for any push stream.

    use std::cmp::Ordering;
    use std::collections::BinaryHeap;

    use crate::time::SimTime;

    /// Min-heap of timestamped events with deterministic FIFO tie-breaking.
    #[derive(Debug, Clone)]
    pub struct HeapQueue<E> {
        heap: BinaryHeap<Entry<E>>,
        seq: u64,
    }

    #[derive(Debug, Clone)]
    struct Entry<E> {
        time: SimTime,
        seq: u64,
        event: E,
    }

    impl<E> PartialEq for Entry<E> {
        fn eq(&self, other: &Self) -> bool {
            self.time == other.time && self.seq == other.seq
        }
    }

    impl<E> Eq for Entry<E> {}

    impl<E> PartialOrd for Entry<E> {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }

    impl<E> Ord for Entry<E> {
        fn cmp(&self, other: &Self) -> Ordering {
            // BinaryHeap is a max-heap; invert to get earliest-first, and
            // invert the sequence number so equal-time events pop FIFO.
            other
                .time
                .cmp(&self.time)
                .then_with(|| other.seq.cmp(&self.seq))
        }
    }

    impl<E> Default for HeapQueue<E> {
        fn default() -> Self {
            Self::new()
        }
    }

    impl<E> HeapQueue<E> {
        /// Creates an empty queue.
        pub fn new() -> Self {
            Self {
                heap: BinaryHeap::new(),
                seq: 0,
            }
        }

        /// Enqueues `event` at `time`.
        pub fn push(&mut self, time: SimTime, event: E) {
            let seq = self.seq;
            self.seq += 1;
            self.heap.push(Entry { time, seq, event });
        }

        /// Removes and returns the earliest event, if any.
        pub fn pop(&mut self) -> Option<(SimTime, E)> {
            self.heap.pop().map(|e| (e.time, e.event))
        }

        /// Timestamp of the earliest pending event, if any.
        pub fn peek_time(&self) -> Option<SimTime> {
            self.heap.peek().map(|e| e.time)
        }

        /// Number of pending events.
        pub fn len(&self) -> usize {
            self.heap.len()
        }

        /// True when the queue has no pending events.
        pub fn is_empty(&self) -> bool {
            self.heap.is_empty()
        }

        /// Drops every pending event.
        pub fn clear(&mut self) {
            self.heap.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(n: u64) -> SimTime {
        SimTime::from_nanos(n)
    }

    #[test]
    fn empty_queue_behaviour() {
        let mut q: EventQueue<u8> = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.len(), 0);
        assert_eq!(q.pop(), None);
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn pops_earliest_first() {
        let mut q = EventQueue::new();
        q.push(t(50), 'b');
        q.push(t(10), 'a');
        q.push(t(90), 'c');
        assert_eq!(q.peek_time(), Some(t(10)));
        assert_eq!(q.pop(), Some((t(10), 'a')));
        assert_eq!(q.pop(), Some((t(50), 'b')));
        assert_eq!(q.pop(), Some((t(90), 'c')));
    }

    #[test]
    fn equal_times_pop_fifo_even_interleaved() {
        let mut q = EventQueue::new();
        q.push(t(10), 1);
        q.push(t(10), 2);
        q.pop();
        q.push(t(10), 3);
        q.push(t(10), 4);
        assert_eq!(q.pop(), Some((t(10), 2)));
        assert_eq!(q.pop(), Some((t(10), 3)));
        assert_eq!(q.pop(), Some((t(10), 4)));
    }

    #[test]
    fn clear_empties_queue() {
        let mut q = EventQueue::new();
        q.push(t(1), ());
        q.push(t(2), ());
        q.clear();
        assert!(q.is_empty());
    }

    #[test]
    fn no_trait_bounds_on_payload() {
        // A payload type with no Ord/Eq still works.
        struct Opaque(#[allow(dead_code)] fn());
        let mut q = EventQueue::new();
        q.push(t(1), Opaque(|| {}));
        assert!(q.pop().is_some());
    }

    #[test]
    fn far_future_overflow_pops_in_order() {
        let mut q = EventQueue::new();
        // Pin the window at zero, then push far beyond the horizon.
        q.push(t(1), 0u32);
        q.push(t(3 * SPAN_NS), 3);
        q.push(t(2 * SPAN_NS), 2);
        q.push(t(SPAN_NS + 7), 1);
        assert_eq!(q.pop(), Some((t(1), 0)));
        assert_eq!(q.pop(), Some((t(SPAN_NS + 7), 1)));
        assert_eq!(q.pop(), Some((t(2 * SPAN_NS), 2)));
        assert_eq!(q.pop(), Some((t(3 * SPAN_NS), 3)));
        assert!(q.is_empty());
    }

    #[test]
    fn overflow_beats_ring_after_window_advance() {
        let mut q = EventQueue::new();
        // `b` is beyond the initial window, so it lands in overflow while
        // `a` pins the ring at zero.
        q.push(t(0), 'a');
        q.push(t(SPAN_NS + 10), 'b');
        assert_eq!(q.pop(), Some((t(0), 'a')));
        // The ring is now empty; a push past `b` jumps the window so the
        // overflow entry `b` is *behind* the ring entry `c` — pop must
        // still take `b` first.
        q.push(t(SPAN_NS + 500_000), 'c');
        assert_eq!(q.peek_time(), Some(t(SPAN_NS + 10)));
        assert_eq!(q.pop(), Some((t(SPAN_NS + 10), 'b')));
        assert_eq!(q.pop(), Some((t(SPAN_NS + 500_000), 'c')));
    }

    #[test]
    fn wraparound_keeps_order_across_many_windows() {
        // March the clock through several full ring wraps, interleaving
        // pushes at mixed offsets; pops must stay globally sorted with
        // FIFO tie-breaks.
        let mut q = EventQueue::new();
        let mut expect = Vec::new();
        let mut now = 0u64;
        let mut tag = 0u32;
        for round in 0..40 {
            for offset in [0, 1, BUCKET_WIDTH_NS, SPAN_NS / 2, SPAN_NS + 3] {
                q.push(t(now + offset), tag);
                expect.push((now + offset, tag));
                tag += 1;
            }
            // Drain two events per round so the window advances.
            for _ in 0..2 {
                expect.sort_by_key(|&(time, tag)| (time, tag));
                let (etime, etag) = expect.remove(0);
                assert_eq!(q.pop(), Some((t(etime), etag)), "round {round}");
                now = now.max(etime);
            }
        }
        expect.sort_by_key(|&(time, tag)| (time, tag));
        for (etime, etag) in expect {
            assert_eq!(q.pop(), Some((t(etime), etag)));
        }
        assert!(q.is_empty());
    }

    #[test]
    fn matches_reference_heap_on_mixed_stream() {
        let mut q = EventQueue::new();
        let mut r = reference::HeapQueue::new();
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let mut now = 0u64;
        for i in 0..2_000u32 {
            // xorshift-mixed pseudo-random interleave of pushes and pops.
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            if !x.is_multiple_of(3) || q.is_empty() {
                // Mixed near/far offsets, frequent exact ties.
                let offset = match x % 5 {
                    0 => 0,
                    1 => x % 64,
                    2 => x % BUCKET_WIDTH_NS,
                    3 => x % SPAN_NS,
                    _ => SPAN_NS + x % SPAN_NS,
                };
                q.push(t(now + offset), i);
                r.push(t(now + offset), i);
            } else {
                let got = q.pop();
                let want = r.pop();
                assert_eq!(got, want);
                if let Some((time, _)) = got {
                    now = time.as_nanos();
                }
            }
            assert_eq!(q.peek_time(), r.peek_time());
            assert_eq!(q.len(), r.len());
        }
        while let Some(want) = r.pop() {
            assert_eq!(q.pop(), Some(want));
        }
        assert!(q.is_empty());
    }
}
