//! Host-plane observability: wall-clock self-profiling of the simulator.
//!
//! Everything else in this crate measures *sim time* — the virtual clock of
//! the modeled LOTEC protocol. This module measures the *host*: where the
//! real CPU's time goes while running the simulation. The two planes answer
//! different questions ("is the protocol slow?" vs "is the simulator
//! slow?") and deliberately never mix units.
//!
//! The design mirrors [`crate::sink::EventSink`]: the engine is generic
//! over [`HostProfiler`], defaulting to [`NoopHostProfiler`] whose
//! `enter`/`exit` are empty `#[inline(always)]` bodies — the disabled
//! configuration monomorphizes to zero instructions, so golden fingerprints
//! and benchmark output are byte-identical whether or not the profiler type
//! exists in the binary.
//!
//! [`WallProfiler`] is the real implementation: a scope stack plus a fixed
//! array of per-region accumulators ([`RegionStat`], each with a
//! [`QuantileSketch`] of self times). Each profiler instance is
//! thread-local by construction — one per engine run — so accumulation is
//! lock-free; cross-thread aggregation happens after the runner joins, via
//! the deterministic, index-ordered [`HostProfile::merge`].
//!
//! Self-time accounting: when a scope exits, the elapsed wall time minus
//! the time spent in *nested* scopes is attributed to the scope's region as
//! `self_ns`, and the full elapsed time is added to the parent's child
//! accumulator. Self times of all regions therefore partition the covered
//! wall time without double counting, which is what lets the perf harness
//! assert that the profiled regions explain ≥90% of a run's wall clock.

use std::time::Instant;

use crate::event::{Borrowed, ObsEvent};
use crate::json::Json;
use crate::recorder::FlightRecorder;
use crate::sink::EventSink;
use crate::sketch::QuantileSketch;

/// A profiled wall-clock region of the engine.
///
/// Regions are coarse on purpose: each one is a hot *phase* of the event
/// loop, not a function. The discriminant doubles as the index into the
/// fixed accumulator array (and into the allocation-accounting tables in
/// [`crate::alloc`]), so the order here is part of the on-disk schema.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum HostRegion {
    /// Engine construction: registry indexing, store allocation, initial
    /// event scheduling.
    Setup = 0,
    /// Popping the next event from the future-event list.
    EventPop = 1,
    /// Pushing a follow-up event onto the future-event list.
    EventPush = 2,
    /// Event dispatch: everything inside `Engine::handle` not attributed
    /// to a nested region.
    Dispatch = 3,
    /// Lock-table acquire: grant/retain/enqueue decisions.
    LockAcquire = 4,
    /// Lock-table release paths: commit, abort, retain-regrant.
    LockRelease = 5,
    /// The deadlock gate: reachability pre-check plus cycle search.
    DeadlockGate = 6,
    /// Page-transfer planning and send-side work.
    PageTransfer = 7,
    /// Installing received pages into a node's cache.
    PageInstall = 8,
    /// Page writes on the compute path: UNDO pre-image capture and stamp
    /// folding. Reports name it `cow_write`, from when a write after a
    /// pre-image copied the page's payload.
    CowWrite = 9,
    /// Sim-state gauge sampling (the sampler's own cost).
    StateSample = 10,
    /// Recording observability events (the sink's own cost).
    ObsRecord = 11,
    /// End-of-run reporting: phase stats, final chain collection.
    Report = 12,
    /// Dropping the engine state the report does not take (page stores,
    /// lock table, transaction tree, family runtimes) as `run` returns.
    Teardown = 13,
}

/// Number of distinct [`HostRegion`] values.
pub const HOST_REGION_COUNT: usize = 14;

impl HostRegion {
    /// All regions, in index order.
    pub const ALL: [HostRegion; HOST_REGION_COUNT] = [
        HostRegion::Setup,
        HostRegion::EventPop,
        HostRegion::EventPush,
        HostRegion::Dispatch,
        HostRegion::LockAcquire,
        HostRegion::LockRelease,
        HostRegion::DeadlockGate,
        HostRegion::PageTransfer,
        HostRegion::PageInstall,
        HostRegion::CowWrite,
        HostRegion::StateSample,
        HostRegion::ObsRecord,
        HostRegion::Report,
        HostRegion::Teardown,
    ];

    /// Stable wire name, used in JSON output and reports.
    pub const fn name(self) -> &'static str {
        match self {
            HostRegion::Setup => "setup",
            HostRegion::EventPop => "event_pop",
            HostRegion::EventPush => "event_push",
            HostRegion::Dispatch => "dispatch",
            HostRegion::LockAcquire => "lock_acquire",
            HostRegion::LockRelease => "lock_release",
            HostRegion::DeadlockGate => "deadlock_gate",
            HostRegion::PageTransfer => "page_transfer",
            HostRegion::PageInstall => "page_install",
            HostRegion::CowWrite => "cow_write",
            HostRegion::StateSample => "state_sample",
            HostRegion::ObsRecord => "obs_record",
            HostRegion::Report => "report",
            HostRegion::Teardown => "teardown",
        }
    }

    /// Index into the accumulator array.
    pub const fn index(self) -> usize {
        self as usize
    }
}

/// Receives scope enter/exit notifications from the instrumented engine.
///
/// Mirrors [`EventSink`]: the default implementation is a no-op whose calls
/// monomorphize away, so an uninstrumented engine pays nothing. Unlike
/// `EventSink` there is no payload to construct, so call sites need no
/// `enabled()` guard — `enter`/`exit` on [`NoopHostProfiler`] *are* the
/// guard.
pub trait HostProfiler {
    /// True when this profiler records anything. Implementations should
    /// make this a constant so disabled probe sites fold away.
    fn enabled(&self) -> bool;

    /// Opens a scope for `region`. Scopes nest; each `enter` must be
    /// matched by an `exit` of the same region in LIFO order.
    fn enter(&mut self, region: HostRegion);

    /// Closes the innermost scope, which must be `region`.
    fn exit(&mut self, region: HostRegion);
}

/// The default profiler: records nothing, compiles to nothing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoopHostProfiler;

impl HostProfiler for NoopHostProfiler {
    #[inline(always)]
    fn enabled(&self) -> bool {
        false
    }

    #[inline(always)]
    fn enter(&mut self, _region: HostRegion) {}

    #[inline(always)]
    fn exit(&mut self, _region: HostRegion) {}
}

/// Forwarding impl so callers can lend a profiler to the engine
/// (`&mut prof`) and keep the accumulated profile after the run consumes
/// the engine by value.
impl<T: HostProfiler + ?Sized> HostProfiler for &mut T {
    #[inline(always)]
    fn enabled(&self) -> bool {
        (**self).enabled()
    }

    #[inline(always)]
    fn enter(&mut self, region: HostRegion) {
        (**self).enter(region);
    }

    #[inline(always)]
    fn exit(&mut self, region: HostRegion) {
        (**self).exit(region);
    }
}

/// Accumulated wall-clock statistics for one region.
#[derive(Debug, Clone, Default)]
pub struct RegionStat {
    /// Number of completed scopes.
    pub count: u64,
    /// Total wall nanoseconds inside the scope, including nested regions.
    pub total_ns: u64,
    /// Wall nanoseconds exclusive of nested regions. Summing `self_ns`
    /// across regions partitions the covered wall time.
    pub self_ns: u64,
    /// Distribution of per-scope self time.
    pub hist: QuantileSketch,
}

impl RegionStat {
    fn record(&mut self, total_ns: u64, self_ns: u64) {
        self.count += 1;
        self.total_ns += total_ns;
        self.self_ns += self_ns;
        self.hist.record(self_ns);
    }

    /// Merges another region's statistics into this one.
    pub fn merge(&mut self, other: &RegionStat) {
        self.count += other.count;
        self.total_ns += other.total_ns;
        self.self_ns += other.self_ns;
        self.hist.merge(&other.hist);
    }

    /// JSON rendering: counts, totals, and self-time shape markers (all
    /// 0 for a region that never fired).
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("count", Json::U64(self.count)),
            ("total_ns", Json::U64(self.total_ns)),
            ("self_ns", Json::U64(self.self_ns)),
            ("min_self_ns", Json::U64(self.hist.min())),
            ("max_self_ns", Json::U64(self.hist.max())),
            ("p99_self_ns", Json::U64(self.hist.quantile(0.99))),
        ])
    }
}

/// A merged, thread-independent summary of profiled runs.
///
/// Durations are wall clock and therefore vary run to run; the *structure*
/// (which regions fired and how many times) is a deterministic function of
/// the simulated workload, which the facade tests pin across thread counts.
#[derive(Debug, Clone, Default)]
pub struct HostProfile {
    regions: Vec<RegionStat>,
    /// Number of per-run profiles merged into this one.
    pub runs: u64,
}

impl HostProfile {
    /// An empty profile with every region present and zeroed.
    pub fn new() -> Self {
        HostProfile {
            regions: (0..HOST_REGION_COUNT)
                .map(|_| RegionStat::default())
                .collect(),
            runs: 0,
        }
    }

    /// The accumulated statistics for `region`.
    pub fn region(&self, region: HostRegion) -> &RegionStat {
        &self.regions[region.index()]
    }

    /// Iterates `(region, stat)` pairs in index order, including zero rows.
    pub fn iter(&self) -> impl Iterator<Item = (HostRegion, &RegionStat)> {
        HostRegion::ALL
            .iter()
            .map(move |&r| (r, &self.regions[r.index()]))
    }

    /// Deterministic merge: region-index order, no floating-point, so the
    /// result is independent of which thread produced which summand.
    pub fn merge(&mut self, other: &HostProfile) {
        for (mine, theirs) in self.regions.iter_mut().zip(other.regions.iter()) {
            mine.merge(theirs);
        }
        self.runs += other.runs;
    }

    /// Sum of exclusive (self) nanoseconds across all regions: the portion
    /// of wall time the profiled regions explain.
    pub fn total_self_ns(&self) -> u64 {
        self.regions.iter().map(|r| r.self_ns).sum()
    }

    /// Total scope count across all regions.
    pub fn total_count(&self) -> u64 {
        self.regions.iter().map(|r| r.count).sum()
    }

    /// Fraction of the explained self-time spent in `region` (0.0 when
    /// nothing was profiled). The perf gate uses this to pin hot-region
    /// wall shares — e.g. that the deadlock gate stays collapsed after
    /// the incremental waits-for graph removed its O(entries) rebuild.
    pub fn self_share(&self, region: HostRegion) -> f64 {
        self.region(region).self_ns as f64 / self.total_self_ns().max(1) as f64
    }

    /// The thread-independent shape of the profile: `(region name, scope
    /// count)` for every region that fired. Wall-clock durations are
    /// excluded on purpose — this is what the determinism tests compare.
    pub fn structure(&self) -> Vec<(&'static str, u64)> {
        self.iter()
            .filter(|(_, s)| s.count > 0)
            .map(|(r, s)| (r.name(), s.count))
            .collect()
    }

    /// JSON rendering: one object per region that fired, in index order,
    /// plus totals.
    pub fn to_json(&self) -> Json {
        let regions: Vec<(&str, Json)> = self
            .iter()
            .filter(|(_, s)| s.count > 0)
            .map(|(r, s)| (r.name(), s.to_json()))
            .collect();
        Json::obj(vec![
            ("runs", Json::U64(self.runs)),
            ("total_self_ns", Json::U64(self.total_self_ns())),
            ("regions", Json::obj(regions)),
        ])
    }
}

/// One open scope on the profiler stack.
#[derive(Debug, Clone, Copy)]
struct Frame {
    region: HostRegion,
    start_ns: u64,
    /// Wall time consumed by already-closed nested scopes.
    child_ns: u64,
    /// The thread's allocation-attribution slot when the scope opened,
    /// restored when it closes. A second profiler's scope (a
    /// [`ProfiledSink`]'s, inside an engine region) then hands the slot
    /// back to the region it interrupted instead of to "unattributed".
    outer_slot: usize,
}

/// A recording [`HostProfiler`]: scope stack plus per-region accumulators.
///
/// One instance profiles one engine run on one thread; nothing here is
/// shared, so recording is a few arithmetic ops with no synchronization.
/// Use [`WallProfiler::into_profile`] (or [`WallProfiler::profile`]) after
/// the run, and [`HostProfile::merge`] to aggregate across runs/threads.
#[derive(Debug)]
pub struct WallProfiler {
    epoch: Instant,
    stats: [RegionStat; HOST_REGION_COUNT],
    stack: Vec<Frame>,
}

impl Default for WallProfiler {
    fn default() -> Self {
        Self::new()
    }
}

impl WallProfiler {
    /// A fresh profiler with all accumulators zeroed.
    pub fn new() -> Self {
        WallProfiler {
            epoch: Instant::now(),
            stats: Default::default(),
            stack: Vec::with_capacity(8),
        }
    }

    fn now_ns(&self) -> u64 {
        // Instant is monotonic; one epoch per profiler keeps the u64 small.
        self.epoch.elapsed().as_nanos() as u64
    }

    /// True when every `enter` has been matched by an `exit`.
    pub fn is_balanced(&self) -> bool {
        self.stack.is_empty()
    }

    /// Snapshot of the accumulated profile (scopes still open are not
    /// included). The profiler can keep recording afterwards.
    pub fn profile(&self) -> HostProfile {
        let mut p = HostProfile::new();
        for (i, s) in self.stats.iter().enumerate() {
            p.regions[i] = s.clone();
        }
        p.runs = 1;
        p
    }

    /// Consumes the profiler, returning its profile.
    ///
    /// # Panics
    ///
    /// Panics if any scope is still open — an unbalanced profile would
    /// silently under-attribute self time.
    pub fn into_profile(self) -> HostProfile {
        assert!(
            self.stack.is_empty(),
            "WallProfiler dropped with {} open scope(s)",
            self.stack.len()
        );
        self.profile()
    }
}

impl HostProfiler for WallProfiler {
    #[inline]
    fn enabled(&self) -> bool {
        true
    }

    #[inline]
    fn enter(&mut self, region: HostRegion) {
        let start_ns = self.now_ns();
        self.stack.push(Frame {
            region,
            start_ns,
            child_ns: 0,
            outer_slot: crate::alloc::current_region(),
        });
        crate::alloc::set_current_region(region.index() + 1);
    }

    #[inline]
    fn exit(&mut self, region: HostRegion) {
        let end_ns = self.now_ns();
        let frame = self
            .stack
            .pop()
            .expect("HostProfiler::exit with no open scope");
        debug_assert_eq!(frame.region, region, "HostProfiler scopes must close LIFO");
        let elapsed = end_ns.saturating_sub(frame.start_ns);
        let self_ns = elapsed.saturating_sub(frame.child_ns);
        self.stats[frame.region.index()].record(elapsed, self_ns);
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += elapsed;
        }
        crate::alloc::set_current_region(frame.outer_slot);
    }
}

/// An [`EventSink`] adapter that times every `emit` of the inner sink,
/// attributing the cost to [`HostRegion::ObsRecord`] on the wrapped
/// profiler reference. Lets a profiled run measure the price of its own
/// observability. It forwards [`EventSink::recorder`], so an engine still
/// takes forensics dumps from a flight recorder it times.
#[derive(Debug)]
pub struct ProfiledSink<'p, S> {
    inner: S,
    prof: &'p mut WallProfiler,
}

impl<'p, S: EventSink> ProfiledSink<'p, S> {
    /// Wraps `inner`, charging emit time to `prof`.
    pub fn new(inner: S, prof: &'p mut WallProfiler) -> Self {
        ProfiledSink { inner, prof }
    }

    /// Unwraps the inner sink.
    pub fn into_inner(self) -> S {
        self.inner
    }
}

impl<S: EventSink> EventSink for ProfiledSink<'_, S> {
    #[inline]
    fn enabled(&self) -> bool {
        self.inner.enabled()
    }

    fn emit(&mut self, event: &ObsEvent<Borrowed<'_>>) {
        self.prof.enter(HostRegion::ObsRecord);
        self.inner.emit(event);
        self.prof.exit(HostRegion::ObsRecord);
    }

    #[inline]
    fn recorder(&self) -> Option<&FlightRecorder> {
        self.inner.recorder()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{ObsEvent, ObsEventKind, ObsPhase};
    use crate::sink::RecordingSink;
    use lotec_sim::SimTime;

    #[test]
    fn noop_profiler_is_disabled() {
        let mut p = NoopHostProfiler;
        assert!(!p.enabled());
        p.enter(HostRegion::Dispatch);
        p.exit(HostRegion::Dispatch);
    }

    #[test]
    fn region_names_are_unique_and_indexed() {
        let mut names = std::collections::BTreeSet::new();
        for (i, r) in HostRegion::ALL.iter().enumerate() {
            assert_eq!(r.index(), i);
            assert!(names.insert(r.name()), "duplicate name {}", r.name());
        }
        assert_eq!(names.len(), HOST_REGION_COUNT);
    }

    #[test]
    fn self_time_excludes_children() {
        let mut p = WallProfiler::new();
        p.enter(HostRegion::Dispatch);
        p.enter(HostRegion::LockAcquire);
        std::thread::sleep(std::time::Duration::from_millis(2));
        p.exit(HostRegion::LockAcquire);
        p.exit(HostRegion::Dispatch);
        assert!(p.is_balanced());
        let prof = p.into_profile();
        let dispatch = prof.region(HostRegion::Dispatch);
        let lock = prof.region(HostRegion::LockAcquire);
        assert_eq!(dispatch.count, 1);
        assert_eq!(lock.count, 1);
        // The child slept ≥2ms; the parent's self time must exclude it.
        assert!(lock.self_ns >= 2_000_000, "lock self {}", lock.self_ns);
        assert!(dispatch.total_ns >= lock.total_ns);
        assert!(
            dispatch.self_ns <= dispatch.total_ns - lock.total_ns,
            "dispatch self {} should exclude child total {}",
            dispatch.self_ns,
            lock.total_ns
        );
        // Self times partition the covered wall time.
        assert!(prof.total_self_ns() <= dispatch.total_ns);
    }

    #[test]
    fn profile_merge_is_additive() {
        let mut a = WallProfiler::new();
        a.enter(HostRegion::EventPop);
        a.exit(HostRegion::EventPop);
        let mut b = WallProfiler::new();
        b.enter(HostRegion::EventPop);
        b.exit(HostRegion::EventPop);
        b.enter(HostRegion::Report);
        b.exit(HostRegion::Report);
        let mut merged = a.into_profile();
        merged.merge(&b.into_profile());
        assert_eq!(merged.runs, 2);
        assert_eq!(merged.region(HostRegion::EventPop).count, 2);
        assert_eq!(merged.region(HostRegion::Report).count, 1);
        assert_eq!(merged.structure(), vec![("event_pop", 2), ("report", 1)]);
    }

    #[test]
    #[should_panic(expected = "open scope")]
    fn unbalanced_profile_panics() {
        let mut p = WallProfiler::new();
        p.enter(HostRegion::Setup);
        let _ = p.into_profile();
    }

    #[test]
    fn profiled_sink_counts_emits() {
        let mut prof = WallProfiler::new();
        {
            let mut sink = ProfiledSink::new(RecordingSink::new(), &mut prof);
            assert!(sink.enabled());
            for at in 0..5 {
                sink.emit(&ObsEvent {
                    at: SimTime::from_nanos(at),
                    node: 0,
                    kind: ObsEventKind::PhaseEnter {
                        family: 1,
                        phase: ObsPhase::Running,
                    },
                });
            }
            assert_eq!(sink.into_inner().len(), 5);
        }
        let profile = prof.into_profile();
        assert_eq!(profile.region(HostRegion::ObsRecord).count, 5);
    }

    #[test]
    fn profiled_sink_forwards_the_recorder() {
        let mut prof = WallProfiler::new();
        let mut recorder = FlightRecorder::new(8);
        {
            let mut sink = ProfiledSink::new(&mut recorder, &mut prof);
            sink.emit(&ObsEvent {
                at: SimTime::from_nanos(3),
                node: 0,
                kind: ObsEventKind::PhaseEnter {
                    family: 1,
                    phase: ObsPhase::Running,
                },
            });
            let seen = sink.recorder().expect("the wrapped recorder is visible");
            assert_eq!(seen.recorded(), 1);
        }
        assert!(ProfiledSink::new(RecordingSink::new(), &mut prof)
            .recorder()
            .is_none());
        assert_eq!(prof.into_profile().region(HostRegion::ObsRecord).count, 1);
    }

    #[test]
    fn json_rendering_includes_totals() {
        let mut p = WallProfiler::new();
        p.enter(HostRegion::EventPop);
        p.exit(HostRegion::EventPop);
        let json = p.into_profile().to_json();
        assert_eq!(json.get("runs").and_then(Json::as_u64), Some(1));
        let regions = json.get("regions").expect("regions");
        assert!(regions.get("event_pop").is_some());
        assert!(regions.get("report").is_none(), "zero rows omitted");
    }
}
