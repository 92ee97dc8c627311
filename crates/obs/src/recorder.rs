//! Always-on bounded flight recorder: a fixed-capacity ring of compact
//! fixed-width event records.
//!
//! The [`RecordingSink`](crate::RecordingSink) keeps every event and
//! grows without bound — fine for a one-off trace export, wrong for an
//! always-on black box. [`FlightRecorder`] instead encodes each
//! [`ObsEvent`] into a fixed-width [`CompactRecord`] slot of a
//! preallocated ring: when the ring is full the oldest record is
//! overwritten, so memory is bounded by the slot count forever and the
//! ring always holds the *most recent* history — exactly what a
//! post-mortem wants.
//!
//! The record path is allocation-free and copies nothing twice. The
//! recorder takes the probe site's borrowed event and walks its fields
//! through the same schema walk JSONL export uses
//! ([`ObsEventKind::write_fields`]), with a cursor over the ring slot
//! itself as the sink: scalars land in the slot's fixed arrays, and
//! variable-length payloads are truncated to the record's inline
//! capacity, with the original length preserved so a dump can report the
//! truncation. No temporary record is built and no record is copied. The
//! caller picks the capacity (`SystemConfig::flight_recorder.slots` by
//! convention) and lends the ring to the engine as its sink
//! (`Engine::with_probe(.., &mut recorder)`).
//!
//! Decoding ([`FlightRecorder::snapshot`]) reverses the encoding into
//! ordinary owned [`ObsEvent`]s (oldest first) for the forensics pipeline —
//! trace export, the critical-path walker, and the triage report all
//! consume the snapshot unchanged.

use std::convert::Infallible;

use crate::event::{Borrowed, FieldSink, FieldSource, Lists, ObsEvent, ObsEventKind, WireEnum};
use crate::sink::EventSink;
use lotec_sim::SimTime;

/// Scalar slots per record — enough for the widest fixed-field event
/// (`GatherBatch`, `Retransmit`, `StateSample`: six scalars each).
const SCALARS: usize = 6;

/// Inline slots shared by a record's variable-length segments. Sized for
/// the payloads forensics actually chains through (deadlock cycles,
/// blocker lists, page batches); longer payloads are truncated with the
/// original length kept in [`CompactRecord::seg_total`].
const ARGS: usize = 12;

/// Variable-length segments per record (`LockBlocked` and `GrantPlan`
/// carry three lists each).
const SEGS: usize = 3;

/// One fixed-width encoded event. 176 bytes, `Copy`, no heap pointers —
/// the ring is a flat `Vec<CompactRecord>` written in place.
///
/// A reused slot keeps whatever scalars and list entries of its previous
/// record the new one does not overwrite. Nothing reads them: the kind's
/// schema says how many scalars are live and the segment lengths how many
/// list entries, so compare records by what they [`decode`](Self::decode)
/// to, not field by field.
#[derive(Debug, Clone, Copy, Default)]
pub struct CompactRecord {
    /// Simulated time, nanoseconds.
    at_ns: u64,
    /// Site the event occurred at.
    node: u32,
    /// The kind's [`ObsEventKind::tag`] (enum declaration order).
    tag: u8,
    /// Captured entries per variable segment.
    seg_len: [u8; SEGS],
    /// Original (pre-truncation) entries per variable segment.
    seg_total: [u32; SEGS],
    /// Fixed scalar fields, in field-declaration order. Enums and
    /// `Option` discriminants ride as small integers.
    scalars: [u64; SCALARS],
    /// The variable segments, concatenated in declaration order.
    args: [u64; ARGS],
}

/// Ring slots must stay compact — the whole point of the recorder is a
/// small, always-resident arena (4096 slots ≈ 704 KiB).
const _: () = assert!(std::mem::size_of::<CompactRecord>() <= 176);

impl CompactRecord {
    /// Encodes an event into a fresh record. Allocation-free; list
    /// payloads are truncated to the record's inline capacity (original
    /// lengths preserved).
    pub fn encode<L: Lists>(event: &ObsEvent<L>) -> CompactRecord {
        let mut record = CompactRecord::default();
        record.overwrite(event);
        record
    }

    /// Encodes `event` over this record in place: one schema walk writes
    /// each field straight into its slot. Only the segment bookkeeping is
    /// reset first, so [`truncated`](Self::truncated) sees no stale list.
    #[inline(always)]
    fn overwrite<L: Lists>(&mut self, event: &ObsEvent<L>) {
        self.at_ns = event.at.as_nanos();
        self.node = event.node;
        self.tag = event.kind.tag();
        self.seg_len = [0; SEGS];
        self.seg_total = [0; SEGS];
        event.kind.write_fields(&mut Slots::new(self));
    }

    /// Decodes back into an [`ObsEvent`]. Lists that were truncated at
    /// encode time come back truncated (check [`CompactRecord::truncated`]).
    pub fn decode(&self) -> ObsEvent {
        let Ok(kind) = ObsEventKind::read_fields(self.tag, &mut Slots::new(self));
        ObsEvent {
            at: SimTime::from_nanos(self.at_ns),
            node: self.node,
            kind,
        }
    }

    /// True when any variable-length payload was truncated at encode
    /// time (the decoded event's lists are then incomplete).
    pub fn truncated(&self) -> bool {
        (0..SEGS).any(|i| u32::from(self.seg_len[i]) < self.seg_total[i])
    }
}

/// The slot side of the wire schema: a cursor walking one record in field
/// order. An integer, bool or enum index takes the next scalar slot, an
/// option takes two (present, value); each list takes the next segment,
/// filling the shared inline args greedily. A kind with more than
/// [`SCALARS`] scalars or [`SEGS`] lists panics on its first encode.
struct Slots<R> {
    record: R,
    scalar: usize,
    seg: usize,
    arg: usize,
}

impl<R> Slots<R> {
    fn new(record: R) -> Self {
        Slots {
            record,
            scalar: 0,
            seg: 0,
            arg: 0,
        }
    }
}

impl Slots<&mut CompactRecord> {
    #[inline]
    fn push(&mut self, value: u64) {
        self.record.scalars[self.scalar] = value;
        self.scalar += 1;
    }

    /// Fills the next segment from `values`, truncating to the remaining
    /// inline capacity.
    #[inline]
    fn push_list(&mut self, values: impl ExactSizeIterator<Item = u64>) {
        let total = values.len();
        let take = total.min(ARGS - self.arg);
        for (slot, value) in self.record.args[self.arg..self.arg + take]
            .iter_mut()
            .zip(values)
        {
            *slot = value;
        }
        self.record.seg_len[self.seg] = take as u8;
        self.record.seg_total[self.seg] = total as u32;
        self.arg += take;
        self.seg += 1;
    }
}

impl FieldSink for Slots<&mut CompactRecord> {
    #[inline]
    fn uint(&mut self, _: &'static str, value: u64) {
        self.push(value);
    }

    #[inline]
    fn flag(&mut self, _: &'static str, value: bool) {
        self.push(value.into());
    }

    #[inline]
    fn wire<T: WireEnum>(&mut self, _: &'static str, value: T) {
        self.push(value.index() as u64);
    }

    #[inline]
    fn opt(&mut self, _: &'static str, value: Option<u64>) {
        self.push(value.is_some().into());
        self.push(value.unwrap_or(0));
    }

    #[inline]
    fn u64s(&mut self, _: &'static str, values: &[u64]) {
        self.push_list(values.iter().copied());
    }

    #[inline]
    fn pages(&mut self, _: &'static str, values: &[u16]) {
        self.push_list(values.iter().map(|&page| u64::from(page)));
    }
}

impl<'r> Slots<&'r CompactRecord> {
    fn pop(&mut self) -> u64 {
        let value = self.record.scalars[self.scalar];
        self.scalar += 1;
        value
    }

    fn pop_list(&mut self) -> &'r [u64] {
        let len = usize::from(self.record.seg_len[self.seg]);
        let list = &self.record.args[self.arg..self.arg + len];
        self.arg += len;
        self.seg += 1;
        list
    }
}

/// Reading never fails: a record only ever holds what `encode` wrote.
impl FieldSource for Slots<&CompactRecord> {
    type Error = Infallible;

    fn uint(&mut self, _: &'static str, _: u32) -> Result<u64, Infallible> {
        Ok(self.pop())
    }

    fn flag(&mut self, _: &'static str) -> Result<bool, Infallible> {
        Ok(self.pop() != 0)
    }

    fn wire<T: WireEnum>(&mut self, _: &'static str) -> Result<T, Infallible> {
        Ok(T::ALL[self.pop() as usize])
    }

    fn opt(&mut self, _: &'static str) -> Result<Option<u64>, Infallible> {
        let present = self.pop() != 0;
        let value = self.pop();
        Ok(present.then_some(value))
    }

    fn u64s(&mut self, _: &'static str) -> Result<Vec<u64>, Infallible> {
        Ok(self.pop_list().to_vec())
    }

    fn pages(&mut self, _: &'static str) -> Result<Vec<u16>, Infallible> {
        Ok(self.pop_list().iter().map(|&page| page as u16).collect())
    }
}

/// The bounded black box: a preallocated ring of [`CompactRecord`]s that
/// always holds the most recent history. See the [module docs](self).
#[derive(Debug, Clone)]
pub struct FlightRecorder {
    ring: Vec<CompactRecord>,
    /// Next slot to overwrite.
    head: usize,
    /// Total events ever emitted into the recorder.
    recorded: u64,
}

impl FlightRecorder {
    /// A recorder with `slots` ring slots, preallocated up front.
    ///
    /// # Panics
    ///
    /// Panics when `slots` is zero — a zero-capacity black box records
    /// nothing and a dump from it would be silently empty.
    pub fn new(slots: usize) -> Self {
        assert!(slots > 0, "flight recorder needs at least one slot");
        FlightRecorder {
            ring: vec![CompactRecord::default(); slots],
            head: 0,
            recorded: 0,
        }
    }

    /// Ring capacity in slots.
    pub fn capacity(&self) -> usize {
        self.ring.len()
    }

    /// Records currently resident in the ring.
    pub fn len(&self) -> usize {
        self.recorded.min(self.ring.len() as u64) as usize
    }

    /// True before the first event is recorded.
    pub fn is_empty(&self) -> bool {
        self.recorded == 0
    }

    /// Total events ever emitted into the recorder.
    pub fn recorded(&self) -> u64 {
        self.recorded
    }

    /// Events evicted by ring wraparound (no longer reconstructable).
    pub fn dropped(&self) -> u64 {
        self.recorded.saturating_sub(self.ring.len() as u64)
    }

    /// Empties the ring and zeroes the counters without releasing the
    /// allocation — for reusing one preallocated recorder across runs
    /// (e.g. repeat-timed benchmark cells).
    pub fn clear(&mut self) {
        self.head = 0;
        self.recorded = 0;
    }

    /// Decodes the resident records, oldest first.
    pub fn snapshot(&self) -> Vec<ObsEvent> {
        let len = self.len();
        let cap = self.ring.len();
        let start = if self.recorded as usize > cap {
            self.head
        } else {
            0
        };
        (0..len)
            .map(|i| self.ring[(start + i) % cap].decode())
            .collect()
    }
}

impl EventSink for FlightRecorder {
    fn enabled(&self) -> bool {
        true
    }

    /// Encodes into the ring slot in place — no allocation and no record
    /// copy on this path. The wrap is a branch, not a modulo: this runs
    /// once per observed event.
    #[inline]
    fn emit(&mut self, event: &ObsEvent<Borrowed<'_>>) {
        self.ring[self.head].overwrite(event);
        self.head += 1;
        if self.head == self.ring.len() {
            self.head = 0;
        }
        self.recorded += 1;
    }

    fn recorder(&self) -> Option<&FlightRecorder> {
        Some(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::tests::every_kind;

    #[test]
    fn every_kind_round_trips() {
        for event in every_kind() {
            let record = CompactRecord::encode(&event);
            assert!(
                !record.truncated(),
                "{}: unexpectedly truncated",
                event.kind.name()
            );
            assert_eq!(record.decode(), event, "{}", event.kind.name());
        }
    }

    #[test]
    fn oversized_lists_truncate_and_report_it() {
        let event: ObsEvent = ObsEvent {
            at: SimTime::from_nanos(1),
            node: 0,
            kind: ObsEventKind::LockBlocked {
                object: 1,
                txn: 2,
                holders: (0..10).collect(),
                retainers: (10..20).collect(),
                queued_behind: (20..30).collect(),
            },
        };
        let record = CompactRecord::encode(&event);
        assert!(record.truncated());
        let ObsEventKind::LockBlocked {
            holders,
            retainers,
            queued_behind,
            ..
        } = record.decode().kind
        else {
            panic!("wrong kind decoded");
        };
        // Earlier segments fill first; capacity is 12 slots total.
        assert_eq!(holders, (0..10).collect::<Vec<u64>>());
        assert_eq!(retainers, vec![10, 11]);
        assert!(queued_behind.is_empty());
    }

    /// A `LockBlocked` whose lists overflow the inline args.
    fn oversized_blockers() -> ObsEvent {
        ObsEvent {
            at: SimTime::from_nanos(7),
            node: 1,
            kind: ObsEventKind::LockBlocked {
                object: 4,
                txn: 5,
                holders: (100..105).collect(),
                retainers: (200..210).collect(),
                queued_behind: vec![300],
            },
        }
    }

    #[test]
    fn in_place_encode_decodes_like_encode_over_any_previous_record() {
        let mut fixtures = every_kind();
        fixtures.push(oversized_blockers());
        // Each primer fills what the fixture may not overwrite: six
        // scalars and all twelve args, or three truncated segments.
        let primers = [
            ObsEvent {
                at: SimTime::from_nanos(1),
                node: 9,
                kind: ObsEventKind::StateSample {
                    queue_depth: u64::MAX,
                    locks_held: u32::MAX,
                    locks_retained: u32::MAX,
                    locks_waiting: u32::MAX,
                    inflight_messages: u32::MAX,
                    blocked_families: u32::MAX,
                    cache_bytes: vec![u64::MAX; 20],
                },
            },
            oversized_blockers(),
        ];
        for fixture in &fixtures {
            let expect = CompactRecord::encode(fixture);
            for primer in &primers {
                // One slot: the fixture's record lands on the primer's.
                let mut rec = FlightRecorder::new(1);
                rec.emit(&primer.borrowed());
                rec.emit(&fixture.borrowed());
                let name = fixture.kind.name();
                assert_eq!(rec.snapshot(), [expect.decode()], "{name}");
                assert_eq!(rec.ring[0].truncated(), expect.truncated(), "{name}");
            }
        }
        assert!(CompactRecord::encode(&oversized_blockers()).truncated());
    }

    #[test]
    fn ring_keeps_the_newest_events_at_tiny_capacities() {
        for cap in [1usize, 2, 3, 5] {
            let mut rec = FlightRecorder::new(cap);
            let events = every_kind();
            for e in &events {
                rec.emit(&e.borrowed());
            }
            assert_eq!(rec.recorded(), events.len() as u64);
            assert_eq!(rec.len(), cap.min(events.len()));
            assert_eq!(rec.dropped(), (events.len() - cap.min(events.len())) as u64);
            let snap = rec.snapshot();
            let expect: Vec<ObsEvent> = events[events.len() - rec.len()..].to_vec();
            assert_eq!(snap, expect, "capacity {cap}");
        }
    }

    #[test]
    fn snapshot_before_wraparound_is_in_emit_order() {
        let mut rec = FlightRecorder::new(100);
        let events = every_kind();
        for e in &events {
            rec.emit(&e.borrowed());
        }
        assert_eq!(rec.dropped(), 0);
        assert_eq!(rec.snapshot(), events);
    }

    #[test]
    #[should_panic(expected = "at least one slot")]
    fn zero_slots_is_rejected() {
        FlightRecorder::new(0);
    }
}
