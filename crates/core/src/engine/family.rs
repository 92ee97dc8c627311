//! Per-family execution state for the discrete-event engine.

use lotec_mem::{ObjectId, PageIndex};
use lotec_obs::PhaseTimes;
use lotec_sim::{SimDuration, SimTime};
use lotec_txn::TxnId;

use crate::spec::InvocationSpec;

/// One frame of a family's invocation stack (the chain of currently active
/// nested invocations).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Frame<'a> {
    /// The invocation, borrowed from the workload: receiver object,
    /// method, control path, children and programmed fault.
    pub spec: &'a InvocationSpec,
    /// The transaction executing it.
    pub txn: TxnId,
    /// Index of the next child invocation to start.
    pub next_child: usize,
    /// Lock prefetching: when this invocation began computing, which is
    /// when its children's lock requests were issued early.
    pub children_prefetched_at: Option<SimTime>,
}

/// What the family is currently doing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Phase {
    /// Not yet started (before its arrival event).
    NotStarted,
    /// Parked: its current lock request is queued at the GDO.
    WaitingGrant,
    /// Lock in flight: a grant message is travelling to the family's node.
    GrantInFlight {
        /// Whether the grant involved GDO communication.
        global: bool,
        /// Holder-list size carried by the grant message.
        holders: usize,
    },
    /// Gathering pages (page-transfer batches in flight).
    Fetching,
    /// Executing method code (compute delay in flight).
    Computing,
    /// Waiting out a restart backoff.
    Restarting,
    /// Root committed.
    Done,
    /// Aborted permanently (root fault injection or restart budget
    /// exhausted).
    Failed,
}

/// One data operation performed by a family, in chronological order.
///
/// The serializability oracle replays these per committed family, so reads
/// and writes must stay interleaved exactly as they executed (a child's
/// read can follow its parent's write to the same page).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FamilyOp {
    /// A page read observing a content chain.
    Read {
        /// Source object.
        object: ObjectId,
        /// Source page.
        page: PageIndex,
        /// Content-chain value observed.
        chain: u64,
    },
    /// A stamp folded into a page's content chain.
    Write {
        /// Target object.
        object: ObjectId,
        /// Target page.
        page: PageIndex,
        /// The stamp applied.
        stamp: u64,
    },
}

/// A [`FamilyOp`] tagged with the transaction that performed it, so an
/// aborted subtree's operations can be discarded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct AttemptOp {
    pub txn: TxnId,
    pub op: FamilyOp,
}

/// Live execution state of one family.
#[derive(Debug, Clone)]
pub(crate) struct FamilyRuntime<'a> {
    /// Index into the workload's family list.
    pub index: usize,
    /// Root transaction of the current attempt.
    pub root_txn: Option<TxnId>,
    /// The invocation stack (root at position 0).
    pub frames: Vec<Frame<'a>>,
    /// Current phase.
    pub phase: Phase,
    /// Restarts performed so far.
    pub restarts: u32,
    /// Attempt generation, bumped on every reset. Timed events carry the
    /// generation they were scheduled under; a crash-abort invalidates the
    /// attempt's in-flight events by bumping this, so stale deliveries
    /// are recognized and dropped instead of corrupting the new attempt.
    pub generation: u32,
    /// Arrival time (first attempt) — end-to-end latency baseline.
    pub arrival: SimTime,
    /// Data operations of the current attempt, in execution order.
    pub ops: Vec<AttemptOp>,
    /// Extra compute-phase delay accumulated by demand fetches for the
    /// invocation currently being served.
    pub fetch_extra: SimDuration,
    /// When the current phase was entered (phase-latency attribution).
    pub phase_entered: SimTime,
    /// Fault injection: retransmit wait baked into delays of events that
    /// have since fired — elapsed sender-idle time to be re-attributed
    /// from the enclosing phase to the backoff bucket at the next phase
    /// transition.
    pub ready_retransmit_wait: SimDuration,
    /// Fault injection: retransmit wait accrued *at the current instant*
    /// (the delayed event has not fired yet). Promoted into
    /// [`FamilyRuntime::ready_retransmit_wait`] once the clock moves past
    /// [`FamilyRuntime::fresh_wait_at`].
    pub fresh_retransmit_wait: SimDuration,
    /// Instant at which `fresh_retransmit_wait` was accrued.
    pub fresh_wait_at: SimTime,
    /// Cumulative time per coarse phase, across *all* attempts (restart
    /// backoff and redone work both count — the breakdown explains
    /// end-to-end latency, not just the winning attempt).
    pub phase_times: PhaseTimes,
    /// End-to-end commit latency, recorded at root commit. `None` until
    /// the family commits (and forever for failed families).
    pub commit_latency: Option<SimDuration>,
}

impl<'a> FamilyRuntime<'a> {
    /// Fresh runtime for family `index` arriving at `arrival`.
    pub fn new(index: usize, arrival: SimTime) -> Self {
        FamilyRuntime {
            index,
            root_txn: None,
            frames: Vec::new(),
            phase: Phase::NotStarted,
            restarts: 0,
            generation: 0,
            arrival,
            ops: Vec::new(),
            fetch_extra: SimDuration::ZERO,
            phase_entered: arrival,
            ready_retransmit_wait: SimDuration::ZERO,
            fresh_retransmit_wait: SimDuration::ZERO,
            fresh_wait_at: arrival,
            phase_times: PhaseTimes::default(),
            commit_latency: None,
        }
    }

    /// Folds `fresh_retransmit_wait` into `ready_retransmit_wait` once the
    /// clock has moved past the instant it was accrued at (by then the
    /// delayed event has fired and the wait has genuinely elapsed).
    pub fn promote_retransmit_wait(&mut self, now: SimTime) {
        if now > self.fresh_wait_at && self.fresh_retransmit_wait > SimDuration::ZERO {
            self.ready_retransmit_wait += self.fresh_retransmit_wait;
            self.fresh_retransmit_wait = SimDuration::ZERO;
        }
        self.fresh_wait_at = now;
    }

    /// The current (innermost) frame.
    ///
    /// # Panics
    ///
    /// Panics if the stack is empty.
    pub fn top(&self) -> &Frame<'a> {
        self.frames.last().expect("family has no active frame")
    }

    /// Mutable access to the current frame.
    ///
    /// # Panics
    ///
    /// Panics if the stack is empty.
    pub fn top_mut(&mut self) -> &mut Frame<'a> {
        self.frames.last_mut().expect("family has no active frame")
    }

    /// Clears all per-attempt state for a restart. The caller transitions
    /// `phase` itself (via the engine's `set_phase`, so the aborted
    /// attempt's elapsed time is attributed before the state is wiped);
    /// cumulative phase times survive.
    pub fn reset_for_restart(&mut self) {
        self.root_txn = None;
        self.frames.clear();
        self.ops.clear();
        self.fetch_extra = SimDuration::ZERO;
        // Invalidate the attempt's in-flight events and drop wait accrued
        // for deliveries that will now never be consumed.
        self.generation += 1;
        self.ready_retransmit_wait = SimDuration::ZERO;
        self.fresh_retransmit_wait = SimDuration::ZERO;
    }

    /// Drops the operations of an aborted subtree (identified by its member
    /// transactions).
    pub fn discard_subtree_effects(&mut self, subtree: &[TxnId]) {
        self.ops.retain(|o| !subtree.contains(&o.txn));
    }

    /// Dirty info for a root commit: per object, the distinct pages written
    /// by surviving transactions, objects and pages ascending. `written`
    /// is scratch space; the result is exactly sized.
    pub fn surviving_dirty(
        &self,
        written: &mut Vec<(ObjectId, PageIndex)>,
    ) -> Vec<(ObjectId, Vec<PageIndex>)> {
        written.clear();
        written.extend(self.ops.iter().filter_map(|o| match o.op {
            FamilyOp::Write { object, page, .. } => Some((object, page)),
            FamilyOp::Read { .. } => None,
        }));
        written.sort_unstable();
        written.dedup();
        let runs = written.chunk_by(|a, b| a.0 == b.0);
        let mut dirty = Vec::with_capacity(runs.clone().count());
        dirty.extend(runs.map(|run| (run[0].0, run.iter().map(|&(_, page)| page).collect())));
        dirty
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lotec_sim::NodeId;
    use lotec_txn::TxnTree;

    fn mk_txn(n: u64) -> TxnId {
        let mut tree = TxnTree::new();
        let mut last = tree.begin_root(NodeId::new(0));
        for _ in 0..n {
            last = tree.begin_root(NodeId::new(0));
        }
        last
    }

    fn write(txn: TxnId, o: u32, p: u16) -> AttemptOp {
        AttemptOp {
            txn,
            op: FamilyOp::Write {
                object: ObjectId::new(o),
                page: PageIndex::new(p),
                stamp: 1,
            },
        }
    }

    #[test]
    fn surviving_dirty_groups_and_dedups() {
        let mut fam = FamilyRuntime::new(0, SimTime::ZERO);
        let t = mk_txn(0);
        for (o, p) in [(1u32, 0u16), (0, 3), (1, 0), (1, 1)] {
            fam.ops.push(write(t, o, p));
        }
        // Reads never contribute to dirty info.
        fam.ops.push(AttemptOp {
            txn: t,
            op: FamilyOp::Read {
                object: ObjectId::new(2),
                page: PageIndex::new(0),
                chain: 0,
            },
        });
        let mut written = Vec::new();
        let dirty = fam.surviving_dirty(&mut written);
        assert_eq!(dirty.len(), 2);
        assert_eq!(dirty.capacity(), 2, "exactly sized");
        assert_eq!(dirty[0].0, ObjectId::new(0));
        assert_eq!(dirty[1].1, vec![PageIndex::new(0), PageIndex::new(1)]);
    }

    #[test]
    fn discard_subtree_effects_filters_by_txn() {
        let mut fam = FamilyRuntime::new(0, SimTime::ZERO);
        let (a, b) = (mk_txn(0), mk_txn(1));
        fam.ops.push(write(a, 0, 0));
        fam.ops.push(write(b, 0, 1));
        fam.discard_subtree_effects(&[b]);
        assert_eq!(fam.ops.len(), 1);
        assert_eq!(fam.ops[0].txn, a);
    }

    #[test]
    fn retransmit_wait_promotes_only_after_clock_moves() {
        let mut fam = FamilyRuntime::new(0, SimTime::ZERO);
        fam.promote_retransmit_wait(SimTime::from_micros(1));
        fam.fresh_retransmit_wait = SimDuration::from_micros(4);
        // Same instant: the delayed event has not fired yet.
        fam.promote_retransmit_wait(SimTime::from_micros(1));
        assert_eq!(fam.ready_retransmit_wait, SimDuration::ZERO);
        // Clock moved past the accrual instant: the wait has elapsed.
        fam.promote_retransmit_wait(SimTime::from_micros(2));
        assert_eq!(fam.ready_retransmit_wait, SimDuration::from_micros(4));
        assert_eq!(fam.fresh_retransmit_wait, SimDuration::ZERO);
    }

    #[test]
    fn reset_for_restart_clears_attempt_state() {
        let mut fam = FamilyRuntime::new(3, SimTime::from_micros(5));
        fam.restarts = 2;
        fam.phase_times
            .add(lotec_obs::ObsPhase::Running, SimDuration::from_micros(7));
        fam.ops.push(write(mk_txn(0), 0, 0));
        fam.ready_retransmit_wait = SimDuration::from_micros(3);
        fam.reset_for_restart();
        assert!(fam.ops.is_empty());
        assert!(fam.frames.is_empty());
        assert_eq!(fam.generation, 1, "generation bumps to invalidate events");
        assert_eq!(
            fam.ready_retransmit_wait,
            SimDuration::ZERO,
            "stale retransmit wait dropped"
        );
        assert_eq!(fam.restarts, 2, "restart count survives");
        assert_eq!(fam.arrival, SimTime::from_micros(5), "arrival survives");
        assert_eq!(
            fam.phase_times.running,
            SimDuration::from_micros(7),
            "cumulative phase times survive"
        );
    }
}
