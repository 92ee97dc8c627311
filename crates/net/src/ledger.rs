//! Per-object traffic accounting.
//!
//! Figures 2–5 of the paper plot *bytes transferred to maintain the
//! consistency of each shared object*; Figures 6–8 plot the *total message
//! time* for an object under different network parameters. The
//! [`TrafficLedger`] accumulates exactly those quantities, per object and
//! per message kind.

use lotec_mem::ObjectId;
use lotec_sim::SimDuration;

use crate::config::NetworkConfig;
use crate::message::{Message, MessageKind};

/// Accumulated traffic attributable to one object (or to a whole run).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ObjectTraffic {
    /// Number of consistency messages.
    pub messages: u64,
    /// Total bytes across those messages.
    pub bytes: u64,
}

impl ObjectTraffic {
    /// Total message time under `net`: each message pays the software cost
    /// and the bytes are serialized at link bandwidth.
    ///
    /// Because the cost model is linear, the per-object total only needs
    /// the message count and byte sum; the only approximation is that
    /// per-message wire times are rounded once over the byte total instead
    /// of once per message (≤ 1 ns per message).
    pub fn message_time(&self, net: NetworkConfig) -> SimDuration {
        net.software_cost().duration() * self.messages + net.bandwidth().wire_time(self.bytes)
    }

    /// Adds another accumulation into this one.
    pub fn merge(&mut self, other: ObjectTraffic) {
        self.messages += other.messages;
        self.bytes += other.bytes;
    }
}

/// Ledger of every consistency message sent during a run.
///
/// ```
/// use lotec_net::{Message, MessageKind, TrafficLedger, NetworkConfig};
/// use lotec_sim::NodeId;
/// use lotec_mem::ObjectId;
///
/// let mut ledger = TrafficLedger::new();
/// ledger.record(&Message::new(
///     MessageKind::PageTransfer,
///     NodeId::new(0),
///     NodeId::new(1),
///     ObjectId::new(7),
///     4_144,
/// ));
/// assert_eq!(ledger.object(ObjectId::new(7)).bytes, 4_144);
/// // Evaluate the same traffic against any network configuration.
/// let t = ledger.total().message_time(NetworkConfig::default_cluster());
/// assert!(t.as_nanos() > 0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct TrafficLedger {
    /// Per object id: 0 while the object has no traffic, else 1 + its row
    /// in `rows`. Grown on demand with zeros, so an object never charged
    /// costs four bytes of index and no row.
    slot: Vec<u32>,
    /// One row per charged object, in first-charge order; each row splits
    /// the object's traffic by message kind. Only `slot` knows which
    /// object a row belongs to, so every walk goes through the index and
    /// stays in ascending object order.
    rows: Vec<[ObjectTraffic; NUM_KINDS]>,
    per_kind: [ObjectTraffic; NUM_KINDS],
    total: ObjectTraffic,
}

/// Number of [`MessageKind`] variants (rows are fixed-size arrays).
const NUM_KINDS: usize = MessageKind::ALL.len();

/// Index of `kind` within [`MessageKind::ALL`] (declaration order).
const fn kind_index(kind: MessageKind) -> usize {
    kind as usize
}

/// Sum of one row's per-kind traffic.
fn row_total(row: &[ObjectTraffic; NUM_KINDS]) -> ObjectTraffic {
    let mut sum = ObjectTraffic::default();
    for t in row {
        sum.merge(*t);
    }
    sum
}

impl TrafficLedger {
    /// Creates an empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// The row of `object`, if it has any traffic.
    fn row(&self, object: ObjectId) -> Option<&[ObjectTraffic; NUM_KINDS]> {
        match self.slot.get(object.index() as usize) {
            Some(&s) if s != 0 => Some(&self.rows[s as usize - 1]),
            _ => None,
        }
    }

    /// The row of `object`, created empty on its first charge.
    fn row_mut(&mut self, object: ObjectId) -> &mut [ObjectTraffic; NUM_KINDS] {
        let id = object.index() as usize;
        if id >= self.slot.len() {
            self.slot.resize(id + 1, 0);
        }
        let slot = &mut self.slot[id];
        if *slot == 0 {
            self.rows.push([ObjectTraffic::default(); NUM_KINDS]);
            *slot = u32::try_from(self.rows.len()).expect("ledger row count fits u32");
        }
        &mut self.rows[*slot as usize - 1]
    }

    /// Records one message.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if the message is node-local — local
    /// operations never reach the network and must not be accounted.
    pub fn record(&mut self, msg: &Message) {
        debug_assert!(
            !msg.is_local(),
            "local message reached the network ledger: {msg}"
        );
        let delta = ObjectTraffic {
            messages: 1,
            bytes: msg.bytes(),
        };
        let kind = kind_index(msg.kind());
        self.row_mut(msg.object())[kind].merge(delta);
        self.per_kind[kind].merge(delta);
        self.total.merge(delta);
    }

    /// Traffic charged to `object` under one message kind.
    pub fn object_kind(&self, object: ObjectId, kind: MessageKind) -> ObjectTraffic {
        self.row(object)
            .map(|row| row[kind_index(kind)])
            .unwrap_or_default()
    }

    /// Total message time for `object` under `net`, respecting the
    /// active-message split when enabled (each kind pays its own startup).
    pub fn object_time(&self, object: ObjectId, net: NetworkConfig) -> SimDuration {
        MessageKind::ALL
            .iter()
            .map(|&kind| {
                let t = self.object_kind(object, kind);
                net.startup_for(kind).duration() * t.messages + net.bandwidth().wire_time(t.bytes)
            })
            .sum()
    }

    /// Whole-run message time under `net`, respecting the active-message
    /// split when enabled.
    pub fn total_time(&self, net: NetworkConfig) -> SimDuration {
        MessageKind::ALL
            .iter()
            .map(|&kind| {
                let t = self.kind(kind);
                net.startup_for(kind).duration() * t.messages + net.bandwidth().wire_time(t.bytes)
            })
            .sum()
    }

    /// Traffic charged to `object` (zero if it never appeared).
    pub fn object(&self, object: ObjectId) -> ObjectTraffic {
        self.row(object).map(row_total).unwrap_or_default()
    }

    /// Traffic of one message kind.
    pub fn kind(&self, kind: MessageKind) -> ObjectTraffic {
        self.per_kind[kind_index(kind)]
    }

    /// Whole-run totals.
    pub fn total(&self) -> ObjectTraffic {
        self.total
    }

    /// Iterator over `(object, traffic)` in ascending object order,
    /// skipping objects that never appeared.
    pub fn objects(&self) -> impl Iterator<Item = (ObjectId, ObjectTraffic)> + '_ {
        self.slot
            .iter()
            .enumerate()
            .filter(|&(_, &s)| s != 0)
            .map(|(object, &s)| {
                let row = &self.rows[s as usize - 1];
                (ObjectId::new(object as u32), row_total(row))
            })
    }

    /// Merges another ledger into this one.
    pub fn merge(&mut self, other: &TrafficLedger) {
        for (object, &s) in other.slot.iter().enumerate() {
            if s == 0 {
                continue;
            }
            let theirs = &other.rows[s as usize - 1];
            let object = ObjectId::new(object as u32);
            for (a, b) in self.row_mut(object).iter_mut().zip(theirs) {
                a.merge(*b);
            }
        }
        for (a, b) in self.per_kind.iter_mut().zip(&other.per_kind) {
            a.merge(*b);
        }
        self.total.merge(other.total);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Bandwidth, SoftwareCost};
    use lotec_sim::NodeId;

    fn msg(kind: MessageKind, obj: u32, bytes: u64) -> Message {
        Message::new(
            kind,
            NodeId::new(0),
            NodeId::new(1),
            ObjectId::new(obj),
            bytes,
        )
    }

    #[test]
    fn empty_ledger_reports_zero() {
        let l = TrafficLedger::new();
        assert_eq!(l.total(), ObjectTraffic::default());
        assert_eq!(l.object(ObjectId::new(9)), ObjectTraffic::default());
        assert_eq!(l.objects().count(), 0);
    }

    #[test]
    fn record_accumulates_per_object_and_kind() {
        let mut l = TrafficLedger::new();
        l.record(&msg(MessageKind::LockRequest, 0, 44));
        l.record(&msg(MessageKind::PageTransfer, 0, 4144));
        l.record(&msg(MessageKind::LockRequest, 1, 44));
        assert_eq!(
            l.object(ObjectId::new(0)),
            ObjectTraffic {
                messages: 2,
                bytes: 4188
            }
        );
        assert_eq!(
            l.object(ObjectId::new(1)),
            ObjectTraffic {
                messages: 1,
                bytes: 44
            }
        );
        assert_eq!(
            l.kind(MessageKind::LockRequest),
            ObjectTraffic {
                messages: 2,
                bytes: 88
            }
        );
        assert_eq!(
            l.total(),
            ObjectTraffic {
                messages: 3,
                bytes: 4232
            }
        );
    }

    #[test]
    fn message_time_is_linear_model() {
        let t = ObjectTraffic {
            messages: 10,
            bytes: 1_000,
        };
        let net = NetworkConfig::new(Bandwidth::ethernet10(), SoftwareCost::MICROS_100);
        // 10 * 100us + 8000 bits / 10 Mbps (= 800us) = 1800us.
        assert_eq!(t.message_time(net), SimDuration::from_micros(1_800));
    }

    #[test]
    fn more_messages_cost_more_time_at_high_software_cost() {
        // LOTEC's trade-off: fewer bytes but more messages can lose on
        // slow stacks. 5 msgs/2000B vs 2 msgs/4000B at 100us software cost:
        let many_small = ObjectTraffic {
            messages: 5,
            bytes: 2_000,
        };
        let few_large = ObjectTraffic {
            messages: 2,
            bytes: 4_000,
        };
        let slow_stack = NetworkConfig::new(Bandwidth::gigabit(), SoftwareCost::MICROS_100);
        assert!(many_small.message_time(slow_stack) > few_large.message_time(slow_stack));
        // ...but win once the stack is fast and bandwidth is the bottleneck.
        let fast_stack = NetworkConfig::new(Bandwidth::ethernet10(), SoftwareCost::NANOS_500);
        assert!(many_small.message_time(fast_stack) < few_large.message_time(fast_stack));
    }

    #[test]
    fn merge_combines_ledgers() {
        let mut a = TrafficLedger::new();
        let mut b = TrafficLedger::new();
        a.record(&msg(MessageKind::LockGrant, 0, 100));
        b.record(&msg(MessageKind::LockGrant, 0, 50));
        b.record(&msg(MessageKind::UpdatePush, 2, 500));
        a.merge(&b);
        assert_eq!(a.object(ObjectId::new(0)).bytes, 150);
        assert_eq!(
            a.total(),
            ObjectTraffic {
                messages: 3,
                bytes: 650
            }
        );
    }

    /// The slot index and row arena against an ordered-map reference.
    /// Each of 40 seeded streams runs 200 operations: most record one
    /// message (all nine kinds; sparse, far-apart and repeated object
    /// ids), the rest merge in a ledger built independently. Every query
    /// is compared after every operation, under a network whose control
    /// messages have their own startup cost; `objects()` must come out in
    /// ascending object order, never in first-charge order.
    #[test]
    fn ledger_matches_ordered_map_reference() {
        use lotec_sim::SimRng;
        use std::collections::BTreeMap;

        type Reference = BTreeMap<(ObjectId, MessageKind), ObjectTraffic>;

        fn random_msg(rng: &mut SimRng, used: &[u32]) -> Message {
            let obj = match rng.next_below(3) {
                0 if !used.is_empty() => *rng.pick(used),
                0 | 1 => rng.next_below(8) as u32,
                _ => rng.next_below(1 << 9) as u32 * 16 + 7,
            };
            let kind = *rng.pick(&MessageKind::ALL);
            msg(kind, obj, rng.range_inclusive(1, 5_000))
        }

        fn charge(ledger: &mut TrafficLedger, reference: &mut Reference, m: &Message) {
            ledger.record(m);
            reference
                .entry((m.object(), m.kind()))
                .or_default()
                .merge(ObjectTraffic {
                    messages: 1,
                    bytes: m.bytes(),
                });
        }

        fn time(net: NetworkConfig, kind: MessageKind, t: ObjectTraffic) -> SimDuration {
            net.startup_for(kind).duration() * t.messages + net.bandwidth().wire_time(t.bytes)
        }

        /// Compares every query against `reference`: per-object ones for
        /// every charged object and for `absent`, ids never charged.
        fn check(
            ledger: &TrafficLedger,
            reference: &Reference,
            absent: &[u32],
            net: NetworkConfig,
        ) {
            // The reference sorts by object, then kind: one pass groups it.
            let mut rows: Vec<(ObjectId, [ObjectTraffic; NUM_KINDS])> = Vec::new();
            let mut per_kind = [ObjectTraffic::default(); NUM_KINDS];
            for (&(object, kind), &t) in reference {
                if rows.last().is_none_or(|&(last, _)| last != object) {
                    rows.push((object, [ObjectTraffic::default(); NUM_KINDS]));
                }
                rows.last_mut().expect("just pushed").1[kind as usize] = t;
                per_kind[kind as usize].merge(t);
            }
            let objects: Vec<(ObjectId, ObjectTraffic)> = rows
                .iter()
                .map(|(object, row)| (*object, row_total(row)))
                .collect();
            assert_eq!(ledger.objects().collect::<Vec<_>>(), objects);
            let mut total = ObjectTraffic::default();
            let mut total_time = SimDuration::ZERO;
            for (&kind, &want) in MessageKind::ALL.iter().zip(&per_kind) {
                assert_eq!(ledger.kind(kind), want, "kind {kind:?}");
                total.merge(want);
                total_time += time(net, kind, want);
            }
            assert_eq!(ledger.total(), total);
            assert_eq!(ledger.total_time(net), total_time);
            let never = [ObjectTraffic::default(); NUM_KINDS];
            let absent = absent.iter().map(|&raw| (ObjectId::new(raw), never));
            for (object, row) in rows.into_iter().chain(absent) {
                let mut object_time = SimDuration::ZERO;
                for (&kind, &want) in MessageKind::ALL.iter().zip(&row) {
                    assert_eq!(ledger.object_kind(object, kind), want, "{object} {kind:?}");
                    object_time += time(net, kind, want);
                }
                assert_eq!(ledger.object(object), row_total(&row), "{object}");
                assert_eq!(ledger.object_time(object, net), object_time, "{object}");
            }
        }

        let net = NetworkConfig::new(Bandwidth::ethernet10(), SoftwareCost::MICROS_100)
            .with_active_messages(SoftwareCost::MICROS_5);
        for seed in 0..40 {
            let mut rng = SimRng::seed_from_u64(seed);
            let mut ledger = TrafficLedger::new();
            let mut reference = Reference::new();
            // Ids no stream charges: two off the far ids' 16-id stride and
            // one past their end.
            let absent = [8, 1_001, (1 << 13) + 8];
            let mut used: Vec<u32> = Vec::new();
            for _ in 0..200 {
                if rng.chance(0.1) {
                    let mut other = TrafficLedger::new();
                    let mut other_reference = Reference::new();
                    for _ in 0..rng.next_below(20) {
                        let m = random_msg(&mut rng, &used);
                        charge(&mut other, &mut other_reference, &m);
                    }
                    check(&other, &other_reference, &absent, net);
                    ledger.merge(&other);
                    for (key, t) in other_reference {
                        reference.entry(key).or_default().merge(t);
                    }
                } else {
                    let m = random_msg(&mut rng, &used);
                    charge(&mut ledger, &mut reference, &m);
                    used.push(m.object().index());
                }
                check(&ledger, &reference, &absent, net);
            }
        }
    }

    #[test]
    #[should_panic(expected = "local message")]
    #[cfg_attr(
        not(debug_assertions),
        ignore = "debug_assert only fires in debug builds"
    )]
    fn local_messages_rejected_in_debug() {
        let mut l = TrafficLedger::new();
        let local = Message::new(
            MessageKind::PageRequest,
            NodeId::new(2),
            NodeId::new(2),
            ObjectId::new(0),
            10,
        );
        l.record(&local);
    }
}
