//! Summarizes a recorded event stream: event census, phase-attributed
//! time, lock traffic, and prediction quality. This backs the
//! `obs_report` bench binary and is usable as a library.

use std::collections::BTreeMap;

use lotec_sim::{SimDuration, SimTime};

use crate::event::{ObsEvent, ObsEventKind, ObsPhase};

/// Time a family spent in each coarse phase.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseTimes {
    /// Waiting for lock grants.
    pub lock_wait: SimDuration,
    /// Waiting for page transfers.
    pub transfer_wait: SimDuration,
    /// Executing method bodies.
    pub running: SimDuration,
    /// Backing off before restarts.
    pub backoff: SimDuration,
}

impl PhaseTimes {
    /// Sum over all phases.
    pub fn total(&self) -> SimDuration {
        self.lock_wait + self.transfer_wait + self.running + self.backoff
    }

    /// Adds `dur` to the bucket of `phase` (terminal phases hold no time).
    pub fn add(&mut self, phase: ObsPhase, dur: SimDuration) {
        match phase {
            ObsPhase::LockWait => self.lock_wait += dur,
            ObsPhase::TransferWait => self.transfer_wait += dur,
            ObsPhase::Running => self.running += dur,
            ObsPhase::Backoff => self.backoff += dur,
            ObsPhase::Committed | ObsPhase::Failed => {}
        }
    }

    /// Accumulates another family's times into this one.
    pub fn merge(&mut self, other: &PhaseTimes) {
        self.lock_wait += other.lock_wait;
        self.transfer_wait += other.transfer_wait;
        self.running += other.running;
        self.backoff += other.backoff;
    }
}

/// One family's retransmission stalls, booked the way the engine books
/// them: as backoff, not as the lock or transfer wait they interrupted.
/// A stall accrued *at* an instant has not elapsed yet (its delayed
/// delivery fires later), so it carries over once the clock passes that
/// instant. At each segment close the carried stall is carved from the
/// tail of the closing segment, any remainder carried forward; a restart
/// drops it, as the engine resets an aborted attempt's stalls.
#[derive(Debug, Default)]
pub(crate) struct RetransmitStalls {
    /// Stalls not yet elapsed: `(accrued at, wait in ns)`.
    fresh: Vec<(SimTime, u64)>,
    /// Elapsed stall time not yet carved from a segment, in ns.
    carry_ns: u64,
}

impl RetransmitStalls {
    /// Records a stall of `wait_ns` accrued at `at`.
    pub(crate) fn accrue(&mut self, at: SimTime, wait_ns: u64) {
        self.fresh.push((at, wait_ns));
    }

    /// Closes the segment `phase` held from `since` to `now`: books it into
    /// `times` with the elapsed stalls carved from its tail as backoff,
    /// and returns the carved stall.
    pub(crate) fn close(
        &mut self,
        times: &mut PhaseTimes,
        phase: ObsPhase,
        since: SimTime,
        now: SimTime,
    ) -> SimDuration {
        let carry = &mut self.carry_ns;
        self.fresh.retain(|&(at, wait_ns)| {
            if at < now {
                *carry += wait_ns;
                false
            } else {
                true
            }
        });
        let seg = now.saturating_duration_since(since);
        let stall = SimDuration::from_nanos(self.carry_ns.min(seg.as_nanos()));
        self.carry_ns -= stall.as_nanos();
        times.add(phase, seg - stall);
        times.add(ObsPhase::Backoff, stall);
        stall
    }

    /// Drops every stall (the family restarted).
    pub(crate) fn clear(&mut self) {
        self.fresh.clear();
        self.carry_ns = 0;
    }
}

/// Aggregated prediction quality of the compile-time page analysis.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PredictionTotals {
    /// Grants with plan information.
    pub grants: u64,
    /// Total predicted pages.
    pub predicted: u64,
    /// Total actually-touched pages (reads ∪ writes).
    pub actual: u64,
    /// Predicted pages that were actually touched.
    pub true_positives: u64,
}

impl PredictionTotals {
    /// Fraction of predicted pages that were needed (`None` if nothing was
    /// predicted).
    pub fn precision(&self) -> Option<f64> {
        (self.predicted > 0).then(|| self.true_positives as f64 / self.predicted as f64)
    }

    /// Fraction of needed pages that were predicted (`None` if nothing was
    /// touched).
    pub fn recall(&self) -> Option<f64> {
        (self.actual > 0).then(|| self.true_positives as f64 / self.actual as f64)
    }
}

/// Full summary of a recorded trace.
#[derive(Debug, Clone, Default)]
pub struct TraceSummary {
    /// Count of events per kind name.
    pub kind_counts: BTreeMap<&'static str, u64>,
    /// Count of events per node.
    pub node_counts: BTreeMap<u32, u64>,
    /// Phase times per family.
    pub family_phases: BTreeMap<u64, PhaseTimes>,
    /// Terminal phase per family, when one was observed.
    pub family_outcome: BTreeMap<u64, ObsPhase>,
    /// Aggregate phase times over all families.
    pub aggregate: PhaseTimes,
    /// Deadlock victims, in detection order.
    pub deadlock_victims: Vec<u64>,
    /// Demand fetches per object.
    pub demand_fetches: BTreeMap<u32, u64>,
    /// Prediction quality totals.
    pub prediction: PredictionTotals,
    /// Largest gather fan-out seen in a single grant.
    pub max_fanout: u32,
    /// Total gather source count (for computing the mean fan-out).
    pub total_sources: u64,
    /// Timestamp of the last event.
    pub end: SimTime,
}

impl TraceSummary {
    /// Builds a summary from an event stream.
    pub fn of(events: &[ObsEvent]) -> Self {
        let mut s = TraceSummary::default();
        // family -> (phase, entered-at).
        let mut open: BTreeMap<u64, (ObsPhase, SimTime)> = BTreeMap::new();
        let mut stalls: BTreeMap<u64, RetransmitStalls> = BTreeMap::new();
        for event in events {
            *s.kind_counts.entry(event.kind.name()).or_default() += 1;
            *s.node_counts.entry(event.node).or_default() += 1;
            s.end = s.end.max(event.at);
            match &event.kind {
                ObsEventKind::PhaseEnter { family, phase } => {
                    if let Some((prev, since)) = open.remove(family) {
                        stalls.entry(*family).or_default().close(
                            s.family_phases.entry(*family).or_default(),
                            prev,
                            since,
                            event.at,
                        );
                    }
                    if phase.is_terminal() {
                        s.family_outcome.insert(*family, *phase);
                    } else {
                        open.insert(*family, (*phase, event.at));
                    }
                }
                ObsEventKind::Retransmit {
                    wait_ns,
                    family: Some(family),
                    ..
                } => stalls
                    .entry(*family)
                    .or_default()
                    .accrue(event.at, *wait_ns),
                ObsEventKind::Restart { family, .. } => {
                    stalls.remove(family);
                }
                ObsEventKind::Deadlock { victim, .. } => s.deadlock_victims.push(*victim),
                ObsEventKind::DemandFetch { object, .. } => {
                    *s.demand_fetches.entry(*object).or_default() += 1;
                }
                ObsEventKind::GrantPlan {
                    predicted,
                    actual_reads,
                    actual_writes,
                    sources,
                    ..
                } => {
                    let mut actual: Vec<u16> = actual_reads
                        .iter()
                        .chain(actual_writes.iter())
                        .copied()
                        .collect();
                    actual.sort_unstable();
                    actual.dedup();
                    let tp = predicted.iter().filter(|p| actual.contains(p)).count() as u64;
                    s.prediction.grants += 1;
                    s.prediction.predicted += predicted.len() as u64;
                    s.prediction.actual += actual.len() as u64;
                    s.prediction.true_positives += tp;
                    s.max_fanout = s.max_fanout.max(*sources);
                    s.total_sources += *sources as u64;
                }
                _ => {}
            }
        }
        // Attribute still-open phases up to the end of the recording.
        for (family, (phase, since)) in open {
            stalls.entry(family).or_default().close(
                s.family_phases.entry(family).or_default(),
                phase,
                since,
                s.end,
            );
        }
        let mut aggregate = PhaseTimes::default();
        for times in s.family_phases.values() {
            aggregate.merge(times);
        }
        s.aggregate = aggregate;
        s
    }

    /// Renders the summary as human-readable text.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let total_events: u64 = self.kind_counts.values().sum();
        let _ = writeln!(
            out,
            "events: {total_events} over {} nodes",
            self.node_counts.len()
        );
        for (kind, count) in &self.kind_counts {
            let _ = writeln!(out, "  {kind:<14} {count}");
        }
        let _ = writeln!(out, "phase time (all families):");
        let agg = &self.aggregate;
        let total = agg.total().as_nanos().max(1) as f64;
        for (name, dur) in [
            ("lock_wait", agg.lock_wait),
            ("transfer_wait", agg.transfer_wait),
            ("running", agg.running),
            ("backoff", agg.backoff),
        ] {
            let _ = writeln!(
                out,
                "  {name:<14} {:>12} ns  ({:>5.1}%)",
                dur.as_nanos(),
                100.0 * dur.as_nanos() as f64 / total
            );
        }
        let committed = self
            .family_outcome
            .values()
            .filter(|&&p| p == ObsPhase::Committed)
            .count();
        let _ = writeln!(
            out,
            "families: {} tracked, {committed} committed, {} deadlock victims",
            self.family_phases.len(),
            self.deadlock_victims.len()
        );
        if self.prediction.grants > 0 {
            let _ = writeln!(
                out,
                "prediction: {} grants, precision {}, recall {}",
                self.prediction.grants,
                self.prediction
                    .precision()
                    .map_or("n/a".to_string(), |p| format!("{p:.3}")),
                self.prediction
                    .recall()
                    .map_or("n/a".to_string(), |r| format!("{r:.3}")),
            );
            let _ = writeln!(
                out,
                "gather fan-out: mean {:.2}, max {}",
                self.total_sources as f64 / self.prediction.grants as f64,
                self.max_fanout
            );
        }
        let demand_total: u64 = self.demand_fetches.values().sum();
        let _ = writeln!(
            out,
            "demand fetches: {demand_total} over {} objects",
            self.demand_fetches.len()
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::ObsLockMode;

    fn ev(at: u64, node: u32, kind: ObsEventKind) -> ObsEvent {
        ObsEvent {
            at: SimTime::from_nanos(at),
            node,
            kind,
        }
    }

    #[test]
    fn phase_times_attributed_per_family() {
        let events = vec![
            ev(
                0,
                0,
                ObsEventKind::PhaseEnter {
                    family: 1,
                    phase: ObsPhase::LockWait,
                },
            ),
            ev(
                100,
                0,
                ObsEventKind::PhaseEnter {
                    family: 1,
                    phase: ObsPhase::TransferWait,
                },
            ),
            ev(
                150,
                0,
                ObsEventKind::PhaseEnter {
                    family: 1,
                    phase: ObsPhase::Running,
                },
            ),
            ev(
                400,
                0,
                ObsEventKind::PhaseEnter {
                    family: 1,
                    phase: ObsPhase::Committed,
                },
            ),
            ev(
                500,
                1,
                ObsEventKind::PhaseEnter {
                    family: 2,
                    phase: ObsPhase::Running,
                },
            ),
        ];
        let s = TraceSummary::of(&events);
        let f1 = s.family_phases[&1];
        assert_eq!(f1.lock_wait.as_nanos(), 100);
        assert_eq!(f1.transfer_wait.as_nanos(), 50);
        assert_eq!(f1.running.as_nanos(), 250);
        assert_eq!(s.family_outcome[&1], ObsPhase::Committed);
        // Family 2 never finished: open phase attributed up to trace end.
        assert_eq!(s.family_phases[&2].running.as_nanos(), 0);
        assert_eq!(s.aggregate.lock_wait.as_nanos(), 100);
    }

    #[test]
    fn prediction_precision_recall() {
        let events = vec![ev(
            10,
            0,
            ObsEventKind::GrantPlan {
                family: 0,
                object: 1,
                predicted: vec![0, 1, 2, 3],
                actual_reads: vec![0, 1],
                actual_writes: vec![1, 7],
                planned_pages: 4,
                sources: 3,
            },
        )];
        let s = TraceSummary::of(&events);
        // actual = {0,1,7}; tp = |{0,1}| = 2.
        assert_eq!(s.prediction.predicted, 4);
        assert_eq!(s.prediction.actual, 3);
        assert_eq!(s.prediction.true_positives, 2);
        assert_eq!(s.prediction.precision(), Some(0.5));
        assert_eq!(s.prediction.recall(), Some(2.0 / 3.0));
        assert_eq!(s.max_fanout, 3);
    }

    #[test]
    fn census_and_render() {
        let events = vec![
            ev(
                1,
                0,
                ObsEventKind::LockQueued {
                    object: 0,
                    txn: 1,
                    mode: ObsLockMode::Read,
                    waiters: 1,
                },
            ),
            ev(
                2,
                1,
                ObsEventKind::Deadlock {
                    cycle: vec![1, 2],
                    victim: 2,
                },
            ),
            ev(
                3,
                1,
                ObsEventKind::DemandFetch {
                    family: 0,
                    object: 4,
                    page: 2,
                    source: 0,
                    bytes: 4096,
                },
            ),
        ];
        let s = TraceSummary::of(&events);
        assert_eq!(s.kind_counts["lock_queued"], 1);
        assert_eq!(s.node_counts[&1], 2);
        assert_eq!(s.deadlock_victims, vec![2]);
        assert_eq!(s.demand_fetches[&4], 1);
        let text = s.render();
        assert!(text.contains("deadlock"));
        assert!(text.contains("demand fetches: 1"));
    }
}
