//! Run metrics: what the paper's figures plot.

use lotec_mem::ObjectId;
use lotec_net::{NetworkConfig, ObjectTraffic, TrafficLedger};
use lotec_obs::{PhaseTimes, QuantileSketch};
use lotec_sim::stats::Histogram;
use lotec_sim::SimDuration;

/// One family's phase-attributed time, as folded into
/// [`PhaseBreakdown::per_family`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FamilyPhases {
    /// Index into the workload's family list.
    pub family_index: usize,
    /// Cumulative time per coarse phase, across all attempts.
    pub times: PhaseTimes,
    /// Whether the family ultimately committed.
    pub committed: bool,
}

/// Where each family's wall-clock went: lock wait vs. page transfer vs.
/// compute vs. restart backoff. Filled by the engine for every run — the
/// accounting is pure bookkeeping on phase transitions, so it costs the
/// same whether or not an event sink is attached and is byte-identical
/// between probed and unprobed runs.
#[derive(Debug, Clone, Default)]
pub struct PhaseBreakdown {
    /// Totals over all families (committed and failed).
    pub aggregate: PhaseTimes,
    /// Per-family breakdown, in workload order.
    pub per_family: Vec<FamilyPhases>,
}

impl PhaseBreakdown {
    /// Fraction of all attributed time spent in each phase, in
    /// `(lock_wait, transfer_wait, running, backoff)` order; `None` when
    /// no time was attributed at all.
    pub fn fractions(&self) -> Option<[f64; 4]> {
        let total = self.aggregate.total().as_nanos();
        (total > 0).then(|| {
            [
                self.aggregate.lock_wait,
                self.aggregate.transfer_wait,
                self.aggregate.running,
                self.aggregate.backoff,
            ]
            .map(|d| d.as_nanos() as f64 / total as f64)
        })
    }

    /// Fraction of attributed time spent waiting on locks — the headline
    /// contention indicator. `None` when nothing was attributed.
    pub fn lock_wait_fraction(&self) -> Option<f64> {
        self.fractions().map(|f| f[0])
    }
}

/// Aggregated statistics of one engine run.
#[derive(Debug, Clone, Default)]
pub struct RunStats {
    /// Families that committed.
    pub committed_families: u64,
    /// Family-level aborts (deadlock victims, root faults).
    pub aborted_families: u64,
    /// Sub-transaction aborts (fault injection).
    pub subtxn_aborts: u64,
    /// Deadlocks detected and broken.
    pub deadlocks: u64,
    /// Family restarts performed.
    pub restarts: u64,
    /// Demand fetches (LOTEC misprediction path).
    pub demand_fetches: u64,
    /// Adaptive prediction: pages added to a profile on misprediction
    /// feedback (under-prediction repairs).
    pub profile_expansions: u64,
    /// Adaptive prediction: pages dropped from a profile after going
    /// untouched for a full confidence window (over-prediction trims).
    pub profile_shrinks: u64,
    /// Adaptive prediction: whole-predictor resets (profiles invalidated
    /// by a node crash and regenerated from the static baseline).
    pub profile_resets: u64,
    /// Lock grants served from locally cached GDO state (a retaining
    /// ancestor at the same site — no messages; §5.1's cheap case).
    pub local_lock_grants: u64,
    /// Lock grants requiring a GDO round trip (immediately granted).
    pub global_lock_grants: u64,
    /// Lock requests that queued behind conflicting holders before being
    /// granted by a later release.
    pub queued_lock_requests: u64,
    /// Global lock acquisitions whose grant latency was (partially)
    /// hidden by optimistic lock prefetching.
    pub prefetch_hits: u64,
    /// Total grant latency absorbed by prefetching.
    pub prefetch_saved: SimDuration,
    /// Fault injection: message transmission attempts beyond the first
    /// (lost copies that had to be resent after an RTO).
    pub retransmits: u64,
    /// Fault injection: duplicate copies delivered by the lossy link.
    pub duplicates: u64,
    /// Fault injection: node crashes that occurred during the run.
    pub crashes: u64,
    /// Fault injection: in-flight families crash-aborted because their
    /// executing node died.
    pub crash_aborts: u64,
    /// Fault injection: queued lock requests that timed out and were
    /// requeued.
    pub lock_timeouts: u64,
    /// Fault injection: total sender idle time spent waiting out RTOs on
    /// latency-critical messages (attributed to the backoff phase).
    pub retransmit_wait: SimDuration,
    /// Total simulated wall-clock until the last commit.
    pub makespan: SimDuration,
    /// Sum of per-family latencies (start → commit).
    pub total_latency: SimDuration,
    /// Distribution of per-family commit latencies, in nanoseconds.
    ///
    /// Kept alongside [`RunStats::latency_sketch`] because the golden
    /// differential fingerprints fold its bucket-resolution quantiles;
    /// new consumers should prefer the sketch.
    pub latency_histogram: Histogram,
    /// Streaming quantile sketch of the same per-family commit latencies
    /// (≤ 1.57% relative error, memory-flat, deterministically mergeable
    /// across sweep workers). See [`QuantileSketch`].
    pub latency_sketch: QuantileSketch,
    /// Phase-attributed latency breakdown (lock wait / transfer / compute
    /// / backoff), aggregate and per family.
    pub phases: PhaseBreakdown,
    /// Simulator events processed during the run — the engine's unit of
    /// real (host) work, used by the perf baseline to report events/sec.
    pub sim_events: u64,
}

impl RunStats {
    /// Mean family latency, if any family committed.
    pub fn mean_latency(&self) -> Option<SimDuration> {
        (self.committed_families > 0).then(|| self.total_latency / self.committed_families)
    }

    /// Approximate latency quantile (bucket resolution), e.g. `0.5` for the
    /// median or `0.99` for the tail that dominates a user-facing
    /// workload's worst-case response time.
    ///
    /// Returns `None` when no family committed, or when `q` falls outside
    /// `[0, 1]` (including NaN) — an out-of-range quantile is a caller
    /// bug, but a plotting script deserves a `None`, not a panic.
    pub fn latency_quantile(&self, q: f64) -> Option<SimDuration> {
        if !(0.0..=1.0).contains(&q) {
            return None;
        }
        self.latency_histogram
            .quantile(q)
            .map(SimDuration::from_nanos)
    }

    /// Latency quantile from the streaming sketch — ≤ 1.57% relative
    /// error at any stream length, versus the log₂ bucket resolution of
    /// [`RunStats::latency_quantile`]. Same `None` contract: empty run or
    /// out-of-range `q`.
    pub fn latency_quantile_precise(&self, q: f64) -> Option<SimDuration> {
        if !(0.0..=1.0).contains(&q) || self.latency_sketch.count() == 0 {
            return None;
        }
        Some(SimDuration::from_nanos(self.latency_sketch.quantile(q)))
    }

    /// Fraction of family outcomes that ended in a permanent abort:
    /// `aborted / (committed + aborted)`, or `0.0` when nothing finished.
    /// Restarted-then-committed families count as commits — this is the
    /// user-visible failure rate the scenario success criteria bound, not
    /// the retry churn (see `restarts` for that).
    pub fn abort_rate(&self) -> f64 {
        let finished = self.committed_families + self.aborted_families;
        if finished == 0 {
            0.0
        } else {
            self.aborted_families as f64 / finished as f64
        }
    }

    /// Total lock acquisition operations (local + global + queued).
    pub fn total_lock_ops(&self) -> u64 {
        self.local_lock_grants + self.global_lock_grants + self.queued_lock_requests
    }

    /// Fraction of lock operations served locally (§5.1: "Keeping the
    /// overhead of lock operations small is an important implementation
    /// issue"). `None` when no lock ops happened.
    pub fn local_lock_fraction(&self) -> Option<f64> {
        let total = self.total_lock_ops();
        (total > 0).then(|| self.local_lock_grants as f64 / total as f64)
    }

    /// Committed families per simulated second (the throughput metric the
    /// paper's §2 motivates).
    pub fn throughput_per_sec(&self) -> f64 {
        let secs = self.makespan.as_secs_f64();
        if secs == 0.0 {
            0.0
        } else {
            self.committed_families as f64 / secs
        }
    }
}

/// One protocol's traffic ledger evaluated against a network
/// configuration.
#[derive(Debug, Clone)]
pub struct ProtocolTraffic {
    ledger: TrafficLedger,
}

impl ProtocolTraffic {
    /// Wraps a ledger.
    pub fn new(ledger: TrafficLedger) -> Self {
        ProtocolTraffic { ledger }
    }

    /// The underlying ledger.
    pub fn ledger(&self) -> &TrafficLedger {
        &self.ledger
    }

    /// Bytes + messages charged to `object` (a bar of Figures 2–5).
    pub fn object(&self, object: ObjectId) -> ObjectTraffic {
        self.ledger.object(object)
    }

    /// Whole-run totals.
    pub fn total(&self) -> ObjectTraffic {
        self.ledger.total()
    }

    /// Total message time for `object` under `net` (a bar of Figures 6–8).
    /// Respects the active-message split when `net` enables it.
    pub fn object_time(&self, object: ObjectId, net: NetworkConfig) -> SimDuration {
        self.ledger.object_time(object, net)
    }

    /// Total *page payload* bytes moved — transfer bytes with per-message
    /// and per-page framing stripped.
    ///
    /// Whole-message byte totals can rank LOTEC marginally above OTEC when
    /// LOTEC gathers the same pages from more sources (more small
    /// messages, hence more headers — exactly the trade-off the paper
    /// discusses). Payload bytes are the header-free quantity for which
    /// `LOTEC ≤ OTEC ≤ COTEC` holds strictly; the workspace property tests
    /// assert on it.
    pub fn page_payload_bytes(&self, sizes: &lotec_net::MessageSizes, page_size: u32) -> u64 {
        use lotec_net::MessageKind;
        let mut payload = 0;
        for kind in [
            MessageKind::PageTransfer,
            MessageKind::DemandPageTransfer,
            MessageKind::UpdatePush,
        ] {
            let t = self.ledger.kind(kind);
            // Each message: header + n*(page_header + page_size); recover
            // the page payload by stripping framing.
            let framed = t.bytes - sizes.header * t.messages;
            let per_page = sizes.page_header + u64::from(page_size);
            debug_assert_eq!(
                framed % per_page,
                0,
                "page transfer sizes must be page-framed"
            );
            payload += (framed / per_page) * u64::from(page_size);
        }
        payload
    }

    /// Whole-run message time under `net`. Respects the active-message
    /// split when `net` enables it.
    pub fn total_time(&self, net: NetworkConfig) -> SimDuration {
        self.ledger.total_time(net)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lotec_net::{Bandwidth, Message, MessageKind, SoftwareCost};
    use lotec_sim::NodeId;

    #[test]
    fn run_stats_derived_metrics() {
        let stats = RunStats {
            committed_families: 10,
            makespan: SimDuration::from_millis(2),
            total_latency: SimDuration::from_millis(5),
            ..RunStats::default()
        };
        assert_eq!(stats.mean_latency(), Some(SimDuration::from_micros(500)));
        assert_eq!(stats.throughput_per_sec(), 5000.0);
    }

    #[test]
    fn abort_rate_counts_finished_families_only() {
        let stats = RunStats {
            committed_families: 95,
            aborted_families: 5,
            restarts: 40, // retry churn must not count as failure
            ..RunStats::default()
        };
        assert!((stats.abort_rate() - 0.05).abs() < 1e-12);
        assert_eq!(RunStats::default().abort_rate(), 0.0);
    }

    #[test]
    fn empty_stats_are_safe() {
        let stats = RunStats::default();
        assert_eq!(stats.mean_latency(), None);
        assert_eq!(stats.throughput_per_sec(), 0.0);
        assert_eq!(stats.phases.fractions(), None);
        assert_eq!(stats.phases.lock_wait_fraction(), None);
    }

    #[test]
    fn out_of_range_quantiles_are_none_not_panics() {
        let mut stats = RunStats::default();
        stats.latency_histogram.record(100);
        assert!(stats.latency_quantile(0.5).is_some());
        assert_eq!(stats.latency_quantile(-0.1), None);
        assert_eq!(stats.latency_quantile(1.5), None);
        assert_eq!(stats.latency_quantile(f64::NAN), None);
        stats.latency_sketch.record(100);
        assert_eq!(
            stats.latency_quantile_precise(0.5),
            Some(SimDuration::from_nanos(100))
        );
        assert_eq!(stats.latency_quantile_precise(1.5), None);
        assert_eq!(stats.latency_quantile_precise(f64::NAN), None);
        assert_eq!(RunStats::default().latency_quantile_precise(0.5), None);
    }

    #[test]
    fn phase_fractions_sum_to_one() {
        let mut b = PhaseBreakdown::default();
        b.aggregate.lock_wait = SimDuration::from_micros(1);
        b.aggregate.transfer_wait = SimDuration::from_micros(2);
        b.aggregate.running = SimDuration::from_micros(5);
        b.aggregate.backoff = SimDuration::from_micros(2);
        let f = b.fractions().unwrap();
        assert!((f.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert_eq!(b.lock_wait_fraction(), Some(0.1));
    }

    #[test]
    fn page_payload_strips_framing() {
        let sizes = lotec_net::MessageSizes::default();
        let page_size = 4096u32;
        let mut ledger = TrafficLedger::new();
        // One transfer of 3 pages and one demand transfer of 1 page.
        ledger.record(&Message::new(
            MessageKind::PageTransfer,
            NodeId::new(0),
            NodeId::new(1),
            ObjectId::new(0),
            sizes.page_transfer(3, page_size as u64),
        ));
        ledger.record(&Message::new(
            MessageKind::DemandPageTransfer,
            NodeId::new(2),
            NodeId::new(1),
            ObjectId::new(0),
            sizes.page_transfer(1, page_size as u64),
        ));
        // Requests and lock traffic must not count as payload.
        ledger.record(&Message::new(
            MessageKind::PageRequest,
            NodeId::new(1),
            NodeId::new(0),
            ObjectId::new(0),
            sizes.page_request(3),
        ));
        let t = ProtocolTraffic::new(ledger);
        assert_eq!(
            t.page_payload_bytes(&sizes, page_size),
            4 * u64::from(page_size)
        );
    }

    #[test]
    fn protocol_traffic_wraps_ledger() {
        let mut ledger = TrafficLedger::new();
        ledger.record(&Message::new(
            MessageKind::PageTransfer,
            NodeId::new(0),
            NodeId::new(1),
            ObjectId::new(3),
            1000,
        ));
        let t = ProtocolTraffic::new(ledger);
        assert_eq!(t.object(ObjectId::new(3)).bytes, 1000);
        assert_eq!(t.total().messages, 1);
        let net = NetworkConfig::new(Bandwidth::ethernet10(), SoftwareCost::MICROS_100);
        // 100us + 800us wire.
        assert_eq!(
            t.object_time(ObjectId::new(3), net),
            SimDuration::from_micros(900)
        );
        assert_eq!(t.total_time(net), SimDuration::from_micros(900));
    }
}
