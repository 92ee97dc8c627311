//! The discrete-event execution engine.
//!
//! The engine runs a workload of nested-object transaction families on a
//! simulated cluster under one consistency protocol:
//!
//! * families execute sequentially at their site, walking their invocation
//!   tree depth-first (each invocation = one [sub-]transaction, §3.3);
//! * lock operations follow nested O2PL against the hash-partitioned GDO,
//!   with local operations free and global ones paying request/grant
//!   messages (Algorithms 4.1–4.4);
//! * granted acquisitions gather pages per the protocol's transfer policy
//!   (Algorithm 4.5), paying one request/transfer pair per source site;
//! * page *content* is modelled for real: every page carries a content
//!   chain, writes fold stamps into it, UNDO restores pre-images, and the
//!   [`oracle`](crate::oracle) later re-executes everything serially to
//!   prove the run serializable;
//! * cross-family deadlocks are detected at queue time and broken by
//!   aborting and restarting the youngest family;
//! * sub-transaction faults (workload-injected) roll back and the parent
//!   continues — the closed-nesting recovery story of §3.1.
//!
//! The engine records every grant/commit/abort into a
//! [`ScheduleTrace`] for the replay-based
//! protocol comparison. Every message it sends is built by the crate's
//! charging module, by the same rules replay charges; the engine adds the
//! timing, lossy delivery, probes and page content.

mod chains;
mod family;

pub use chains::{FinalChains, Iter as FinalChainsIter, PageKey};
pub use family::FamilyOp;

use std::cell::RefCell;

use lotec_mem::{ObjectId, PageId, PageIndex, Recovery, ShadowPages, UndoLog};
use lotec_mem::{PageStore, Version};
use lotec_net::{plan_delivery, Message, TrafficLedger};
use lotec_object::{AdaptivePredictor, ObjectRegistry};
use lotec_obs::{
    Anomaly, Borrowed, EventSink, FamilySnapshot, ForensicsDump, HostProfiler, HostRegion,
    NoopHostProfiler, NoopSink, ObsEvent, ObsEventKind, ObsLockMode, ObsPhase, OccupancySnapshot,
    ReleaseCause, SpanOutcome,
};
use lotec_sim::{NodeId, SimDuration, SimRng, SimTime, Simulator};
use lotec_txn::{
    AbortRelease, Acquire, CommitRelease, Grant, LockMode, LockTable, PreCommitRelease, TxnId,
    TxnTree,
};

use crate::charge;
use crate::config::{RecoveryKind, SystemConfig};
use crate::error::CoreError;
use crate::metrics::{ProtocolTraffic, RunStats};
use crate::protocol::{
    demand_set, plan_transfer, prefetch_set, PlacementView, ProtocolKind, TransferPlan,
};
use crate::spec::{validate_family, FamilySpec, InvocationSpec};
use crate::trace::{ScheduleTrace, TraceEvent};

use family::{AttemptOp, FamilyRuntime, Frame, Phase};

/// The operations of one *committed* family, in commit order — the input
/// to the serializability oracle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommittedFamily {
    /// Root transaction id (raw).
    pub family: u64,
    /// Workload index of the family.
    pub index: usize,
    /// Data operations in execution order.
    pub ops: Vec<FamilyOp>,
}

/// Everything one engine run produces.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// The protocol the engine ran.
    pub protocol: ProtocolKind,
    /// Aggregate statistics.
    pub stats: RunStats,
    /// The recorded lock schedule.
    pub trace: ScheduleTrace,
    /// Consistency traffic charged during the run.
    pub traffic: ProtocolTraffic,
    /// Committed families in commit order (oracle input).
    pub committed: Vec<CommittedFamily>,
    /// Final content chain of every page of every object the run touched
    /// (every object a lock request reached), read from the page's owner
    /// node (oracle cross-check). A page it does not list was never
    /// written and reads as chain 0.
    pub final_chains: FinalChains,
    /// Forensics dumps captured at anomalies (deadlock-victim selection,
    /// lock timeouts, crash repair). Empty unless the run's sink carries a
    /// [`FlightRecorder`](lotec_obs::FlightRecorder) — without a black box
    /// there is nothing to dump — and capped at [`MAX_FORENSICS_DUMPS`]
    /// per run.
    pub forensics: Vec<ForensicsDump>,
}

/// Per-run cap on captured forensics dumps: a pathological run (hundreds
/// of deadlocks) should not balloon its report. Anomalies past the cap
/// still count in [`RunStats`]; they just go uncaptured.
pub const MAX_FORENSICS_DUMPS: usize = 8;

/// Engine events. Family-bound timed events carry the attempt generation
/// they were scheduled under; a crash-abort bumps the family's generation
/// so deliveries belonging to the killed attempt are recognized as stale
/// and dropped.
///
/// Every variant is two `u32` indices at most, so the whole enum is 12
/// bytes (down from 24 with `usize` payloads): the event queue's slab
/// slots, dispatch's match, and every copy along the scheduling path move
/// a register-and-a-half, not three words. Family and crash-window counts
/// are bounded far below `u32::MAX` by the workload/fault-plan formats.
#[derive(Debug, Clone, Copy)]
enum Event {
    /// Family arrival.
    Start(u32),
    /// A lock grant reached the family's node.
    GrantArrived(u32, u32),
    /// All page-transfer batches of the current acquisition arrived.
    FetchArrived(u32, u32),
    /// The compute delay of the current invocation elapsed.
    ComputeDone(u32, u32),
    /// Continue the parent after a child pre-committed or aborted.
    Continue(u32, u32),
    /// Restart an aborted family after its backoff.
    Restart(u32, u32),
    /// Fault injection: a scheduled crash window (index into
    /// `faults.plan.crashes`) begins.
    NodeCrash(u32),
    /// Fault injection: a scheduled crash window ends.
    NodeRecover(u32),
    /// Fault injection: a queued lock request's timeout elapsed.
    LockTimeout(u32, u32),
}

/// Dispatch copies events by value; pin the hot enum's size so a future
/// fat variant can't silently widen every queue slot and dispatch copy.
const _: () = assert!(std::mem::size_of::<Event>() <= 12);

/// The discrete-event engine. See the [module docs](self).
///
/// One way to run it: build with [`Engine::new`], [`Engine::with_probe`]
/// or [`Engine::with_instruments`], optionally arm the diagnostics
/// switches [`Engine::validate_lock_graph`] and
/// [`Engine::sample_state_every`], then call [`Engine::run`]. A recorded
/// run lends a [`FlightRecorder`](lotec_obs::FlightRecorder) as its sink
/// and reads the ring after `run` returns.
///
/// Generic over an [`EventSink`] probe; the default [`NoopSink`] reports
/// `enabled() == false` from a constant, so every probe site (and the
/// event construction behind it) monomorphizes away — observability is
/// free unless a recording sink is supplied via [`Engine::with_probe`].
///
/// Also generic over a [`HostProfiler`] (wall-clock self-profiling of the
/// engine's own hot regions — the *host* plane, as opposed to the sink's
/// *sim-time* plane). The default [`NoopHostProfiler`] likewise
/// monomorphizes to nothing; pass a [`lotec_obs::WallProfiler`] via
/// [`Engine::with_instruments`] to attribute real CPU time to event
/// pop/push, lock operations, the deadlock gate, page transfer/install
/// and the COW write path.
pub struct Engine<'a, S: EventSink = NoopSink, P: HostProfiler = NoopHostProfiler> {
    config: &'a SystemConfig,
    registry: &'a ObjectRegistry,
    workload: &'a [FamilySpec],
    sim: Simulator<Event>,
    tree: TxnTree,
    table: LockTable,
    stores: Vec<PageStore<'a>>,
    recovery: Box<dyn Recovery>,
    families: Vec<FamilyRuntime<'a>>,
    scratch: Scratch<'a>,
    /// Family index per root transaction, dense by raw txn id (the tree
    /// mints ids sequentially; non-root slots stay at the sentinel).
    /// Written once per family attempt, read on every deferred grant.
    root_to_family: Vec<u32>,
    /// Last lock holder per object, indexed by dense object id: 0 until
    /// the object's first grant arrives (its home implied), else 1 + the
    /// holder's node index. Zero-initialised, so an untouched stretch
    /// costs no written memory.
    last_holder: Vec<u32>,
    /// Per node, the pages of untouched objects homed there, which its
    /// store does not hold yet; the state sampler adds them to the node's
    /// cache bytes. Empty unless state sampling is on.
    implied_home_pages: Vec<u64>,
    /// Sim-time period of the state sampler; [`SimDuration::ZERO`] (the
    /// default) leaves it off. Set by [`Engine::sample_state_every`].
    sample_interval: SimDuration,
    ledger: TrafficLedger,
    trace: ScheduleTrace,
    stats: RunStats,
    committed: Vec<CommittedFamily>,
    miss_rng: SimRng,
    jitter_rng: SimRng,
    fault_rng: SimRng,
    /// Adaptive access predictor (`Some` iff `config.adaptive.enabled`).
    /// With it absent the engine takes the exact static-prediction code
    /// path, so adaptive-off runs stay byte-identical to older builds.
    predictor: Option<AdaptivePredictor>,
    sink: S,
    prof: P,
    /// Forensics dumps captured so far (see [`RunReport::forensics`]).
    /// Stays empty — and costs nothing — when the sink has no recorder.
    forensics: Vec<ForensicsDump>,
    /// Next sim-time boundary the state sampler fires at. Only consulted
    /// when the sink is enabled *and* `sample_interval` is non-zero;
    /// samples are emitted inline by the run loop (never as scheduled sim
    /// events), so sampling cannot perturb the simulation.
    next_sample: SimTime,
}

/// Storage the engine reuses from event to event instead of allocating
/// afresh: finished families' invocation stacks and op logs (the next
/// family to start takes a pair), release results, the transfer plan, the
/// pages a grant installs, the dirty set a root commit sorts and the
/// lists of probe events.
#[derive(Default)]
struct Scratch<'a> {
    spare: Vec<(Vec<Frame<'a>>, Vec<AttemptOp>)>,
    pre_commit: PreCommitRelease,
    abort: AbortRelease,
    commit: CommitRelease,
    plan: TransferPlan,
    installs: Vec<(PageId, Version, u64)>,
    written: Vec<(ObjectId, PageIndex)>,
    probe: RefCell<ProbeLists>,
}

/// The buffers a probe event's lists are borrowed from (see
/// [`Engine::probe`]): transaction ids and byte counts, and page indices,
/// up to three lists of each per event.
#[derive(Default)]
struct ProbeLists {
    ids: [Vec<u64>; 3],
    pages: [Vec<u16>; 3],
}

/// Refills `buf` from `items` and lends it out as an event list.
fn fill<T>(buf: &mut Vec<T>, items: impl IntoIterator<Item = T>) -> &[T] {
    buf.clear();
    buf.extend(items);
    buf
}

impl<S: EventSink, P: HostProfiler> std::fmt::Debug for Engine<'_, S, P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("protocol", &self.config.protocol)
            .field("families", &self.families.len())
            .field("now", &self.sim.now())
            .finish_non_exhaustive()
    }
}

/// Read-only placement view over the engine's live state. An object no
/// lock request has reached has no GDO entry yet; the view answers for it
/// from the registry (whole at its home, version 0).
struct EngineView<'b> {
    table: &'b LockTable,
    stores: &'b [PageStore<'b>],
    registry: &'b ObjectRegistry,
    last_holder: &'b [u32],
}

impl PlacementView for EngineView<'_> {
    fn local_version(&self, node: NodeId, object: ObjectId, page: PageIndex) -> Option<Version> {
        self.stores[node.index() as usize].version_of(PageId::new(object, page.get()))
    }

    fn global_version(&self, object: ObjectId, page: PageIndex) -> Version {
        self.table
            .page_map(object)
            .map_or(Version::INITIAL, |m| m.location(page).version)
    }

    fn page_owner(&self, object: ObjectId, page: PageIndex) -> NodeId {
        match self.table.page_map(object) {
            Ok(m) => m.location(page).node,
            Err(_) => self.registry.object(object).home,
        }
    }

    fn last_holder(&self, object: ObjectId) -> NodeId {
        match self.last_holder[object.index() as usize] {
            0 => self.registry.object(object).home,
            n => NodeId::new(n - 1),
        }
    }

    fn num_pages(&self, object: ObjectId) -> u16 {
        self.registry.num_pages(object)
    }
}

/// Coarse observability phase of an engine [`Phase`]: the bucket its time
/// is attributed to. `None` for `NotStarted` (nothing to attribute yet).
fn obs_phase(phase: &Phase) -> Option<ObsPhase> {
    match phase {
        Phase::NotStarted => None,
        Phase::WaitingGrant | Phase::GrantInFlight { .. } => Some(ObsPhase::LockWait),
        Phase::Fetching => Some(ObsPhase::TransferWait),
        Phase::Computing => Some(ObsPhase::Running),
        Phase::Restarting => Some(ObsPhase::Backoff),
        Phase::Done => Some(ObsPhase::Committed),
        Phase::Failed => Some(ObsPhase::Failed),
    }
}

/// Projects a [`LockMode`] into the probe layer's mirror enum.
fn obs_mode(mode: LockMode) -> ObsLockMode {
    match mode {
        LockMode::Read => ObsLockMode::Read,
        LockMode::Write => ObsLockMode::Write,
    }
}

impl<'a> Engine<'a> {
    /// Builds an engine for `workload` on `registry` under `config`, with
    /// observability disabled (the zero-cost [`NoopSink`]).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidSpec`] if any family fails validation.
    pub fn new(
        config: &'a SystemConfig,
        registry: &'a ObjectRegistry,
        workload: &'a [FamilySpec],
    ) -> Result<Self, CoreError> {
        Engine::with_probe(config, registry, workload, NoopSink)
    }
}

impl<'a, S: EventSink> Engine<'a, S> {
    /// Builds an engine whose probe sites report to `sink`. Lend a
    /// [`lotec_obs::RecordingSink`] (`&mut sink`) to keep the recorded
    /// events after [`Engine::run`] consumes the engine:
    ///
    /// ```
    /// use lotec_core::engine::Engine;
    /// use lotec_core::spec::demo_workload;
    /// use lotec_core::SystemConfig;
    /// use lotec_obs::RecordingSink;
    ///
    /// let config = SystemConfig::default();
    /// let (registry, families) = demo_workload(&config, 7);
    /// let mut sink = RecordingSink::new();
    /// let report = Engine::with_probe(&config, &registry, &families, &mut sink)?.run()?;
    /// assert_eq!(report.stats.committed_families as usize, families.len());
    /// assert!(!sink.is_empty(), "a run emits events");
    /// # Ok::<(), lotec_core::CoreError>(())
    /// ```
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidSpec`] if any family fails validation.
    pub fn with_probe(
        config: &'a SystemConfig,
        registry: &'a ObjectRegistry,
        workload: &'a [FamilySpec],
        sink: S,
    ) -> Result<Self, CoreError> {
        Engine::with_instruments(config, registry, workload, sink, NoopHostProfiler)
    }
}

impl<'a, S: EventSink, P: HostProfiler> Engine<'a, S, P> {
    /// Builds an engine with both instrumentation planes supplied: `sink`
    /// for sim-time probe events and `prof` for host-plane wall-clock
    /// self-profiling (lend a [`lotec_obs::WallProfiler`] via `&mut` to
    /// keep the profile after [`Engine::run`] consumes the engine).
    /// Construction itself is attributed to [`HostRegion::Setup`].
    ///
    /// ```
    /// use lotec_core::engine::Engine;
    /// use lotec_core::spec::demo_workload;
    /// use lotec_core::SystemConfig;
    /// use lotec_obs::{NoopSink, WallProfiler};
    ///
    /// let config = SystemConfig::default();
    /// let (registry, families) = demo_workload(&config, 7);
    /// let mut prof = WallProfiler::new();
    /// let report =
    ///     Engine::with_instruments(&config, &registry, &families, NoopSink, &mut prof)?.run()?;
    /// assert_eq!(report.stats.committed_families as usize, families.len());
    /// assert!(prof.into_profile().total_count() > 0, "a run records host regions");
    /// # Ok::<(), lotec_core::CoreError>(())
    /// ```
    ///
    /// To additionally time the sink's own recording cost
    /// ([`HostRegion`]`::ObsRecord`), wrap the sink in a
    /// [`lotec_obs::ProfiledSink`] backed by a *second* `WallProfiler` and
    /// [`merge`](lotec_obs::HostProfile::merge) the two profiles afterwards
    /// (the engine and the sink wrapper each need exclusive access to theirs).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidSpec`] if any family fails validation.
    pub fn with_instruments(
        config: &'a SystemConfig,
        registry: &'a ObjectRegistry,
        workload: &'a [FamilySpec],
        sink: S,
        mut prof: P,
    ) -> Result<Self, CoreError> {
        prof.enter(HostRegion::Setup);
        config.validate();
        for family in workload {
            if let Err(e) = validate_family(family, registry, config) {
                // Keep the profiler balanced on the error path.
                prof.exit(HostRegion::Setup);
                return Err(e);
            }
        }
        // No per-object state is built here: until the first lock request
        // reaches an object (`Engine::touch`), it is whole at its home,
        // version 0, zero-filled and unlocked, and has no GDO entry.
        let stores: Vec<PageStore> = (0..config.num_nodes)
            .map(|_| PageStore::new(config.page_size as usize, registry.page_counts()))
            .collect();
        let recovery: Box<dyn Recovery> = match config.recovery {
            RecoveryKind::UndoLog => Box::new(UndoLog::new()),
            RecoveryKind::ShadowPages => Box::new(ShadowPages::new()),
        };
        let mut sim = Simulator::new();
        let families: Vec<FamilyRuntime> = workload
            .iter()
            .enumerate()
            .map(|(i, f)| FamilyRuntime::new(i, f.start))
            .collect();
        for (i, f) in workload.iter().enumerate() {
            sim.schedule_at(f.start, Event::Start(i as u32));
        }
        // Scheduled node outages enter the event queue up front; both ends
        // of every window are fixed by the fault plan, so the whole fault
        // schedule is part of the deterministic initial state.
        for (i, w) in config.faults.plan.crashes.iter().enumerate() {
            sim.schedule_at(w.at, Event::NodeCrash(i as u32));
            sim.schedule_at(w.until, Event::NodeRecover(i as u32));
        }
        let root_rng = SimRng::seed_from_u64(config.seed ^ 0x5EED_0F0F_4E97_1A1Du64);
        prof.exit(HostRegion::Setup);
        Ok(Engine {
            config,
            registry,
            workload,
            sim,
            tree: TxnTree::new(),
            table: LockTable::new(),
            stores,
            recovery,
            families,
            scratch: Scratch::default(),
            root_to_family: Vec::new(),
            last_holder: vec![0; registry.num_objects()],
            implied_home_pages: Vec::new(),
            sample_interval: SimDuration::ZERO,
            ledger: TrafficLedger::new(),
            trace: ScheduleTrace::new(),
            stats: RunStats::default(),
            committed: Vec::with_capacity(workload.len()), // one per family at most
            miss_rng: root_rng.fork(0xA11CE),
            jitter_rng: root_rng.fork(0xB0B),
            fault_rng: root_rng.fork(0xFA_17),
            predictor: config
                .adaptive
                .enabled
                .then(|| AdaptivePredictor::new(registry, config.adaptive.window)),
            sink,
            prof,
            forensics: Vec::new(),
            next_sample: SimTime::ZERO,
        })
    }

    /// Arms the lock table's oracle mode: after every lock-table mutation
    /// the incremental waits-for graph is compared against a from-scratch
    /// rebuild, and every deadlock-detector call cross-checks its verdict,
    /// found cycle and victim against the reference implementation in
    /// [`lotec_txn::deadlock`]. Purely diagnostic: any divergence panics,
    /// and with none the simulation output is identical. Each check is
    /// O(whole table), so only the differential suites and
    /// `LOTEC_LOCK_GRAPH_VALIDATION=1 perf` arm it.
    ///
    /// ```
    /// use lotec_core::engine::Engine;
    /// use lotec_core::spec::demo_workload;
    /// use lotec_core::SystemConfig;
    ///
    /// let config = SystemConfig::default();
    /// let (registry, families) = demo_workload(&config, 7);
    /// let report = Engine::new(&config, &registry, &families)?
    ///     .validate_lock_graph()
    ///     .run()?;
    /// assert_eq!(report.stats.committed_families as usize, families.len());
    /// # Ok::<(), lotec_core::CoreError>(())
    /// ```
    #[must_use]
    pub fn validate_lock_graph(mut self) -> Self {
        self.table.enable_graph_validation();
        self
    }

    /// Emits [`ObsEventKind::StateSample`] gauges every `interval` of sim
    /// time: queue depth, lock-table occupancy, in-flight work and
    /// per-node cache bytes. The run loop emits them inline at period
    /// boundaries, never as scheduled events, so sampling cannot perturb
    /// the simulation. A zero `interval` leaves sampling off, and so does
    /// a disabled sink: the switch then walks nothing.
    #[must_use]
    pub fn sample_state_every(mut self, interval: SimDuration) -> Self {
        if !self.sink.enabled() || interval == SimDuration::ZERO {
            return self;
        }
        self.prof.enter(HostRegion::Setup);
        // Count the pages each home holds implicitly; `touch` subtracts
        // an object's pages once its home store holds them.
        let mut implied = vec![0; self.config.num_nodes as usize];
        for inst in self.registry.objects() {
            implied[inst.home.index() as usize] += u64::from(self.registry.num_pages(inst.id));
        }
        self.implied_home_pages = implied;
        self.sample_interval = interval;
        self.prof.exit(HostRegion::Setup);
        self
    }

    /// Runs the simulation to completion and returns the report.
    ///
    /// # Errors
    ///
    /// Returns an error if the lock manager rejects an operation the
    /// workload should never produce (a workload/engine bug) or a family
    /// exhausts its restart budget.
    pub fn run(mut self) -> Result<RunReport, CoreError> {
        let sampling = self.sink.enabled() && self.sample_interval > SimDuration::ZERO;
        loop {
            self.prof.enter(HostRegion::EventPop);
            let next = self.sim.next_event();
            self.prof.exit(HostRegion::EventPop);
            let Some((now, event)) = next else { break };
            if sampling {
                self.emit_state_samples(now);
            }
            self.prof.enter(HostRegion::Dispatch);
            let res = self.handle(now, event);
            self.prof.exit(HostRegion::Dispatch);
            res?;
        }
        // Every family must have reached a terminal phase.
        debug_assert!(self
            .families
            .iter()
            .all(|f| matches!(f.phase, Phase::Done | Phase::Failed)));
        self.prof.enter(HostRegion::Report);
        self.finish_phase_stats();
        self.stats.sim_events = self.sim.delivered();
        let final_chains = self.collect_final_chains();
        self.prof.exit(HostRegion::Report);
        let report = RunReport {
            protocol: self.config.protocol,
            stats: std::mem::take(&mut self.stats),
            trace: std::mem::take(&mut self.trace),
            traffic: ProtocolTraffic::new(std::mem::take(&mut self.ledger)),
            committed: std::mem::take(&mut self.committed),
            final_chains,
            forensics: std::mem::take(&mut self.forensics),
        };
        self.prof.enter(HostRegion::Teardown);
        self.into_profiler().exit(HostRegion::Teardown);
        Ok(report)
    }

    /// Drops all of the engine's state but the profiler, which it returns
    /// so the caller can close the teardown region around the drop.
    fn into_profiler(self) -> P {
        self.prof
    }

    fn handle(&mut self, now: SimTime, event: Event) -> Result<(), CoreError> {
        match event {
            Event::Start(fam) => self.start_family(now, fam as usize),
            Event::NodeCrash(window) => self.on_node_crash(now, window as usize),
            Event::NodeRecover(window) => {
                self.on_node_recover(now, window as usize);
                Ok(())
            }
            Event::LockTimeout(fam, gen) => self.on_lock_timeout(now, fam as usize, gen),
            // Events of an attempt that has since been aborted are dropped.
            Event::Restart(fam, gen)
            | Event::GrantArrived(fam, gen)
            | Event::FetchArrived(fam, gen)
            | Event::ComputeDone(fam, gen)
            | Event::Continue(fam, gen)
                if self.is_stale(fam as usize, gen) =>
            {
                Ok(())
            }
            Event::Restart(fam, _) => self.start_family(now, fam as usize),
            Event::GrantArrived(fam, _) => self.on_grant_arrived(now, fam as usize),
            Event::FetchArrived(fam, _) => {
                self.begin_compute(now, fam as usize);
                Ok(())
            }
            Event::ComputeDone(fam, _) | Event::Continue(fam, _) => self.advance(now, fam as usize),
        }
    }

    /// The engine's one probe point: every event reaches the sink through
    /// here. `kind` builds the payload and runs only when the sink is
    /// recording, so with a [`NoopSink`] the whole call compiles away. It
    /// reads engine state through its first argument, since it cannot
    /// borrow `self` while the gate holds it mutably. A kind with lists
    /// writes them into the reused buffers of its second argument and
    /// borrows them from there, so emitting allocates nothing once the
    /// buffers have grown. The buffers sit in a `RefCell`, so the gate
    /// lends them mutably beside that shared borrow without moving them.
    #[inline(always)]
    fn probe(
        &mut self,
        at: SimTime,
        node: u32,
        kind: impl for<'l> FnOnce(&Self, &'l mut ProbeLists) -> ObsEventKind<Borrowed<'l>>,
    ) {
        if self.sink.enabled() {
            let mut lists = self.scratch.probe.borrow_mut();
            let kind = kind(self, &mut lists);
            self.sink.emit(&ObsEvent { at, node, kind });
        }
    }

    /// Probes one `LockGranted` event per request of each deferred grant.
    fn probe_grants(&mut self, at: SimTime, grants: &[Grant]) {
        for grant in grants {
            for req in &grant.requests {
                self.probe(at, req.node.index(), |_, _| ObsEventKind::LockGranted {
                    object: grant.object.index(),
                    txn: req.txn.get(),
                    mode: obs_mode(req.mode),
                    global: true,
                    holders: grant.holders as u32,
                });
            }
        }
    }

    /// Probes one `LockReleased` event per object `txn` released globally
    /// at `node`.
    fn probe_released(
        &mut self,
        at: SimTime,
        node: NodeId,
        txn: TxnId,
        cause: ReleaseCause,
        released: &[ObjectId],
    ) {
        for object in released {
            self.probe(at, node.index(), |_, _| ObsEventKind::LockReleased {
                object: object.index(),
                txn: txn.get(),
                cause,
            });
        }
    }

    /// Schedules an engine event, attributed to
    /// [`HostRegion::EventPush`]. Every in-run scheduling site goes
    /// through here; only constructor-time seeding (family arrivals,
    /// fault windows) calls the simulator directly, under `Setup`.
    fn schedule(&mut self, at: SimTime, event: Event) {
        self.prof.enter(HostRegion::EventPush);
        self.sim.schedule_at(at, event);
        self.prof.exit(HostRegion::EventPush);
    }

    /// Schedules `event` for `fam`, stamped with the family's current
    /// attempt generation so an abort in between makes it stale.
    fn schedule_family(&mut self, at: SimTime, fam: usize, event: fn(u32, u32) -> Event) {
        let gen = self.families[fam].generation;
        self.schedule(at, event(fam as u32, gen));
    }

    /// Emits any [`ObsEventKind::StateSample`] gauges whose sample times
    /// fall at or before `now` (the timestamp of the event about to be
    /// handled). Samples are pure probe output: they read engine state and
    /// write to the sink, never touching the event queue, so determinism
    /// of the simulation proper is untouched.
    fn emit_state_samples(&mut self, now: SimTime) {
        let interval = self.sample_interval;
        while self.next_sample <= now {
            self.prof.enter(HostRegion::StateSample);
            let at = self.next_sample;
            let occ = self.table.occupancy();
            let mut inflight = 0u32;
            let mut blocked = 0u32;
            for f in &self.families {
                match f.phase {
                    Phase::WaitingGrant => blocked += 1,
                    Phase::GrantInFlight { .. } | Phase::Fetching => inflight += 1,
                    _ => {}
                }
            }
            self.probe(at, 0, |e, l| ObsEventKind::StateSample {
                queue_depth: e.sim.pending() as u64,
                locks_held: occ.held,
                locks_retained: occ.retained,
                locks_waiting: occ.waiting,
                inflight_messages: inflight,
                blocked_families: blocked,
                cache_bytes: fill(
                    &mut l.ids[0],
                    e.stores.iter().enumerate().map(|(n, store)| {
                        let implied = e.implied_home_pages[n] * u64::from(e.config.page_size);
                        store.cached_bytes() + implied
                    }),
                ),
            });
            self.next_sample = at + interval;
            self.prof.exit(HostRegion::StateSample);
        }
    }

    /// True when a family-bound event belongs to an attempt that has since
    /// been aborted (its generation is older than the family's current
    /// one). Stale events are dropped without side effects.
    fn is_stale(&self, fam: usize, gen: u32) -> bool {
        self.families[fam].generation != gen
    }

    // ---- message helpers -------------------------------------------------

    /// Charges `msg` (built by the charging module) and returns its
    /// transfer time; a local message is free.
    fn send(&mut self, msg: Message) -> SimDuration {
        if !charge::record(&mut self.ledger, &msg) {
            return SimDuration::ZERO;
        }
        self.config
            .network
            .transfer_time_for(msg.kind(), msg.bytes())
    }

    /// Like [`Engine::send`], but over the lossy link model when fault
    /// injection is enabled: the sender retransmits on a fixed RTO until an
    /// attempt survives the drop distribution and lands outside any
    /// receiver outage. Retransmissions and spurious duplicates cross the
    /// wire for real — each is charged to the ledger — and the returned
    /// delay includes the full retransmission stall. `fam` attributes that
    /// stall to a family so phase accounting can book it as backoff rather
    /// than inflating the protocol phases. With faults disabled this is
    /// exactly [`Engine::send`]: no RNG draws, no extra records.
    fn send_lossy(&mut self, msg: Message, fam: Option<usize>) -> SimDuration {
        let base = self.send(msg);
        if msg.is_local() || !self.config.faults.plan.enabled() {
            return base;
        }
        let (src, dst) = (msg.src(), msg.dst());
        let now = self.sim.now();
        let report = plan_delivery(
            &self.config.faults.plan,
            &mut self.fault_rng,
            dst,
            now,
            base,
        );
        for _ in 0..report.wasted_copies() {
            self.ledger.record(&msg);
        }
        self.stats.retransmits += u64::from(report.attempts - 1);
        self.stats.duplicates += u64::from(report.duplicates);
        if report.retransmit_wait > SimDuration::ZERO {
            self.stats.retransmit_wait += report.retransmit_wait;
            if let Some(f) = fam {
                let runtime = &mut self.families[f];
                runtime.promote_retransmit_wait(now);
                runtime.fresh_retransmit_wait += report.retransmit_wait;
            }
        }
        if report.attempts > 1 || report.duplicates > 0 {
            self.probe(now, src.index(), |_, _| ObsEventKind::Retransmit {
                dst: dst.index(),
                attempts: report.attempts,
                duplicates: report.duplicates,
                wait_ns: report.retransmit_wait.as_nanos(),
                family: fam.map(|f| f as u64),
            });
        }
        base + report.latency_penalty()
    }

    /// Propagates the directory mutation `mutation` caused to the GDO
    /// partition's backup replicas (write-behind, so no latency is added
    /// to the mutating operation's critical path).
    fn replicate_gdo(&mut self, mutation: &Message) {
        for msg in charge::gdo_replication(self.config, mutation) {
            self.send(msg);
        }
    }

    // ---- phase accounting ------------------------------------------------

    /// Transitions `fam` into `phase`, attributing the time spent since
    /// the previous transition to the phase being left. Emits a
    /// `PhaseEnter` probe event whenever the *coarse* observability phase
    /// changes (`WaitingGrant → GrantInFlight` stays inside `lock_wait`
    /// and emits nothing).
    fn set_phase(&mut self, now: SimTime, fam: usize, phase: Phase) {
        let node = self.workload[fam].node.index();
        let runtime = &mut self.families[fam];
        let old = obs_phase(&runtime.phase);
        if let Some(prev) = old {
            let mut elapsed = now.saturating_duration_since(runtime.phase_entered);
            // Retransmission stalls accrued by lossy sends elapse inside
            // the window being closed; book them as backoff so link faults
            // do not masquerade as protocol lock/transfer wait. Zero (and
            // branch-free past the promote call) when faults are off, so
            // fault-free attribution is untouched.
            runtime.promote_retransmit_wait(now);
            let stall = elapsed.min(runtime.ready_retransmit_wait);
            if stall > SimDuration::ZERO {
                runtime.ready_retransmit_wait -= stall;
                elapsed -= stall;
                runtime.phase_times.add(ObsPhase::Backoff, stall);
            }
            runtime.phase_times.add(prev, elapsed);
        }
        let new = obs_phase(&phase);
        runtime.phase = phase;
        runtime.phase_entered = now;
        if new != old {
            if let Some(entered) = new {
                self.probe(now, node, |_, _| ObsEventKind::PhaseEnter {
                    family: fam as u64,
                    phase: entered,
                });
            }
        }
    }

    /// Folds the per-family phase accumulators into
    /// [`RunStats::phases`](crate::metrics::RunStats) at end of run. Pure
    /// bookkeeping — runs identically with every sink.
    fn finish_phase_stats(&mut self) {
        let stats = &mut self.stats;
        for f in &self.families {
            let committed = matches!(f.phase, Phase::Done);
            // Phase attribution must tile the commit window exactly: every
            // nanosecond between arrival and commit belongs to exactly one
            // coarse phase. Drift here means an emission site forgot to
            // book (or double-booked) a wait, so fail loudly in debug runs
            // naming the family where it happened.
            if let Some(latency) = f.commit_latency {
                debug_assert_eq!(
                    f.phase_times.total(),
                    latency,
                    "family {}: phase self-times ({:?}) sum to {:?} but the \
                     measured commit latency is {:?} — a phase transition \
                     mis-attributed elapsed time",
                    f.index,
                    f.phase_times,
                    f.phase_times.total(),
                    latency,
                );
            }
            stats.phases.aggregate.merge(&f.phase_times);
            if self.config.per_family_phases {
                stats.phases.per_family.push(crate::metrics::FamilyPhases {
                    family_index: f.index,
                    times: f.phase_times,
                    committed,
                });
            }
        }
    }

    // ---- family lifecycle ------------------------------------------------

    fn start_family(&mut self, now: SimTime, fam: usize) -> Result<(), CoreError> {
        let spec = &self.workload[fam];
        // A family cannot start (or restart) while its node is down; defer
        // the whole attempt to the end of the outage.
        if self.config.faults.plan.enabled() && self.config.faults.plan.is_down(spec.node, now) {
            let up = self.config.faults.plan.up_at(spec.node, now);
            // The deferral gap is real wall time between arrival and
            // commit; book it as backoff so the phase sums still equal the
            // measured latency. Restart deferrals are already covered (the
            // family sits in `Restarting`, whose elapsed time `set_phase`
            // attributes on the next transition).
            if matches!(self.families[fam].phase, Phase::NotStarted) {
                self.families[fam]
                    .phase_times
                    .add(ObsPhase::Backoff, up.saturating_duration_since(now));
            }
            self.schedule(up, Event::Start(fam as u32));
            return Ok(());
        }
        let root = self.tree.begin_root(spec.node);
        let slot = root.get() as usize;
        if slot >= self.root_to_family.len() {
            self.root_to_family.resize(slot + 1, u32::MAX);
        }
        self.root_to_family[slot] = fam as u32;
        let runtime = &mut self.families[fam];
        runtime.root_txn = Some(root);
        if runtime.frames.capacity() == 0 {
            (runtime.frames, runtime.ops) = self.scratch.spare.pop().unwrap_or_default();
        }
        let workload = self.workload;
        self.start_invocation(now, fam, &workload[fam].root, None)
    }

    /// Hands a finished family's invocation stack and op log to the next
    /// family to start.
    fn recycle_buffers(&mut self, fam: usize) {
        let runtime = &mut self.families[fam];
        runtime.frames.clear();
        runtime.ops.clear();
        let buffers = (
            std::mem::take(&mut runtime.frames),
            std::mem::take(&mut runtime.ops),
        );
        self.scratch.spare.push(buffers);
    }

    fn start_invocation(
        &mut self,
        now: SimTime,
        fam: usize,
        spec: &'a InvocationSpec,
        parent: Option<TxnId>,
    ) -> Result<(), CoreError> {
        let txn = match parent {
            None => self.families[fam].root_txn.expect("root txn minted"),
            Some(parent) => self.tree.begin_child(parent),
        };
        self.families[fam].frames.push(Frame {
            spec,
            txn,
            next_child: 0,
            children_prefetched_at: None,
        });
        self.probe(now, self.workload[fam].node.index(), |_, _| {
            ObsEventKind::SpanOpen {
                family: fam as u64,
                txn: txn.get(),
                parent: parent.map(|p| p.get()),
                object: spec.object.index(),
            }
        });
        self.request_lock(now, fam)
    }

    fn request_lock(&mut self, now: SimTime, fam: usize) -> Result<(), CoreError> {
        let Frame { txn, spec, .. } = *self.families[fam].top();
        let (object, method) = (spec.object, spec.method);
        let node = self.workload[fam].node;
        let mode = if self.registry.class_of(object).is_read_only(method) {
            LockMode::Read
        } else {
            LockMode::Write
        };
        self.prof.enter(HostRegion::LockAcquire);
        self.touch(object);
        let outcome = self.table.acquire(object, txn, mode, &self.tree);
        match &outcome {
            Ok(Acquire::Queued) => {
                self.probe(now, node.index(), |e, _| ObsEventKind::LockQueued {
                    object: object.index(),
                    txn: txn.get(),
                    mode: obs_mode(mode),
                    waiters: e.table.entry(object).expect("just queued").num_waiting() as u32,
                });
                self.probe(now, node.index(), |e, l| {
                    e.table.blockers(object, txn, mode, &e.tree, &mut l.ids);
                    let [holders, retainers, queued_behind] = &l.ids;
                    ObsEventKind::LockBlocked {
                        object: object.index(),
                        txn: txn.get(),
                        holders,
                        retainers,
                        queued_behind,
                    }
                });
            }
            Ok(grant) => {
                self.probe(now, node.index(), |e, _| ObsEventKind::LockGranted {
                    object: object.index(),
                    txn: txn.get(),
                    mode: obs_mode(mode),
                    global: matches!(grant, Acquire::GlobalGrant { .. }),
                    holders: match grant {
                        Acquire::GlobalGrant { holders } => *holders as u32,
                        _ => e.table.entry(object).expect("just granted").holders().len() as u32,
                    },
                });
            }
            Err(_) => {}
        }
        self.prof.exit(HostRegion::LockAcquire);
        match outcome? {
            Acquire::LocalGrant => {
                self.stats.local_lock_grants += 1;
                self.set_phase(
                    now,
                    fam,
                    Phase::GrantInFlight {
                        global: false,
                        holders: 0,
                    },
                );
                let delay = self.config.costs.local_lock_op;
                self.schedule_family(now + delay, fam, Event::GrantArrived);
            }
            Acquire::GlobalGrant { holders } => {
                self.stats.global_lock_grants += 1;
                let request = charge::lock_request(self.config, node, object);
                let grant = charge::lock_grant(self.config, self.registry, node, object, holders);
                let mut delay = self.send_lossy(request, Some(fam))
                    + self.config.costs.gdo_processing
                    + self.send_lossy(grant, Some(fam));
                // A prefetched request has already been in flight since the
                // parent started computing; the elapsed time is absorbed. (A
                // frame is granted globally at most once per attempt.)
                if self.config.lock_prefetch {
                    let frames = &self.families[fam].frames;
                    let parent = frames.len().checked_sub(2).map(|i| frames[i]);
                    if let Some(issued) = parent.and_then(|p| p.children_prefetched_at) {
                        let elapsed = now.saturating_duration_since(issued);
                        let absorbed = delay.saturating_sub(delay.saturating_sub(elapsed));
                        if absorbed > SimDuration::ZERO {
                            self.stats.prefetch_hits += 1;
                            self.stats.prefetch_saved += absorbed.min(delay);
                        }
                        delay = delay.saturating_sub(elapsed);
                    }
                }
                self.set_phase(
                    now,
                    fam,
                    Phase::GrantInFlight {
                        global: true,
                        holders,
                    },
                );
                self.schedule_family(now + delay, fam, Event::GrantArrived);
                self.replicate_gdo(&request);
            }
            Acquire::Queued => {
                self.stats.queued_lock_requests += 1;
                let request = charge::lock_request(self.config, node, object);
                self.send_lossy(request, None);
                self.set_phase(now, fam, Phase::WaitingGrant);
                // Fault injection: a queued request carries an RPC timeout;
                // if no grant arrives in time the waiter gives up and
                // re-issues (see `on_lock_timeout`).
                if self.config.faults.lock_timeout > SimDuration::ZERO {
                    self.schedule_family(
                        now + self.config.faults.lock_timeout,
                        fam,
                        Event::LockTimeout,
                    );
                }
                let root = self.families[fam]
                    .root_txn
                    .expect("queued family has a root");
                self.prof.enter(HostRegion::DeadlockGate);
                let gate = self.break_deadlocks(now, request.dst(), root);
                self.prof.exit(HostRegion::DeadlockGate);
                gate?;
            }
        }
        Ok(())
    }

    /// Gives `object` its state on the first lock request that reaches it:
    /// a GDO entry, and the initial (version 0, zero-filled) image at its
    /// home so first transfers have a source. Until then the object is
    /// implied: whole at its home, version 0, zero-filled and unlocked.
    fn touch(&mut self, object: ObjectId) {
        if self.table.entry(object).is_ok() {
            return;
        }
        let home = self.registry.object(object).home;
        let num_pages = self.registry.num_pages(object);
        self.table.register_object(object, num_pages, home);
        let home_store = &mut self.stores[home.index() as usize];
        for p in 0..num_pages {
            home_store.ensure(PageId::new(object, p));
        }
        if let Some(implied) = self.implied_home_pages.get_mut(home.index() as usize) {
            *implied -= u64::from(num_pages);
        }
    }

    /// Delivers a deferred grant (produced by some release) to its family.
    fn deliver_grant(&mut self, now: SimTime, grant: &Grant) {
        debug_assert_eq!(
            grant.requests.len(),
            1,
            "one outstanding request per family"
        );
        let req = grant.requests[0];
        let family_root = self.tree.root_of(req.txn);
        let fam = self.root_to_family[family_root.get() as usize] as usize;
        debug_assert_ne!(fam, u32::MAX as usize, "granted family is known");
        debug_assert_eq!(self.families[fam].phase, Phase::WaitingGrant);
        let msg = charge::lock_grant(
            self.config,
            self.registry,
            req.node,
            grant.object,
            grant.holders,
        );
        let delay = self.config.costs.gdo_processing + self.send_lossy(msg, Some(fam));
        self.set_phase(
            now,
            fam,
            Phase::GrantInFlight {
                global: true,
                holders: grant.holders,
            },
        );
        self.schedule_family(now + delay, fam, Event::GrantArrived);
        self.replicate_gdo(&charge::lock_request(self.config, req.node, grant.object));
    }

    fn on_grant_arrived(&mut self, now: SimTime, fam: usize) -> Result<(), CoreError> {
        let Phase::GrantInFlight { global, holders } = self.families[fam].phase else {
            panic!("grant arrived for family {fam} in wrong phase");
        };
        let InvocationSpec {
            object,
            method,
            path,
            ..
        } = *self.families[fam].top().spec;
        let node = self.workload[fam].node;
        let (config, registry) = (self.config, self.registry);
        let compiled = registry.class_of(object);
        let actual = compiled.path_access(method, path);
        // Borrow the access sets out of the compiled class; the only owned
        // copies made below are the ones the trace event keeps.
        let (actual_reads, actual_writes) = (actual.reads(), actual.writes());
        let class = registry.object(object).class;
        let kind = config.protocol_for(class);
        // The adaptive predictor (when enabled) replaces the static
        // compile-time prediction for LOTEC-family grants; the profile is
        // floored at the statically-proven must-access set, so soundness
        // does not depend on learning.
        let predicted = match &self.predictor {
            Some(p) if kind.uses_prediction() => p.predicted(class, method).clone(),
            _ => compiled.prediction(method).touched(),
        };

        self.trace.push(TraceEvent::Grant {
            at: now,
            family: self.tree.root_of(self.families[fam].top().txn).get(),
            node,
            object,
            mode: if compiled.is_read_only(method) {
                LockMode::Read
            } else {
                LockMode::Write
            },
            global,
            holders,
            predicted: predicted.clone(),
            actual_reads: actual_reads.clone(),
            actual_writes: actual_writes.clone(),
        });

        // Plan against the *pre-grant* placement (last_holder still points
        // at the previous holder), then update placement bookkeeping. The
        // per-class extension can put each class under its own protocol.
        let pages = registry.num_pages(object);
        let prefetch = prefetch_set(config, kind, pages, &predicted, &mut self.miss_rng);
        let mut plan = std::mem::take(&mut self.scratch.plan);
        plan_transfer(kind, &self.view(), node, object, &prefetch, &mut plan);
        self.probe(now, node.index(), |_, l| {
            let [p, r, w] = &mut l.pages;
            ObsEventKind::GrantPlan {
                family: fam as u64,
                object: object.index(),
                predicted: fill(p, predicted.iter().map(PageIndex::get)),
                actual_reads: fill(r, actual_reads.iter().map(PageIndex::get)),
                actual_writes: fill(w, actual_writes.iter().map(PageIndex::get)),
                planned_pages: plan.num_pages() as u32,
                sources: plan.num_sources() as u32,
            }
        });
        if kind.uses_prediction() {
            self.probe(now, node.index(), |_, _| {
                let actual_set = actual_reads.union(actual_writes);
                ObsEventKind::PredictionSample {
                    class: class.index(),
                    method: method.index(),
                    predicted: predicted.len() as u32,
                    actual: actual_set.len() as u32,
                    true_positives: predicted.iter().filter(|&p| actual_set.contains(p)).count()
                        as u32,
                }
            });
        }
        self.last_holder[object.index() as usize] = node.index() + 1;
        self.table
            .page_map_mut(object)
            .expect("registered object")
            .record_cached(node);

        // Perform the gather (Alg. 4.5): one fetch per source; batches
        // travel in parallel, so the phase ends at the slowest batch.
        let mut max_delay = SimDuration::ZERO;
        let mut installs = std::mem::take(&mut self.scratch.installs);
        installs.clear();
        self.prof.enter(HostRegion::PageTransfer);
        for (source, pages) in plan.sources() {
            let [request, transfer] =
                charge::fetch(config, registry, node, source, object, pages, false);
            let d = self.send_lossy(request, Some(fam)) + self.send_lossy(transfer, Some(fam));
            max_delay = max_delay.max(d);
            self.probe(now, node.index(), |_, _| ObsEventKind::GatherBatch {
                family: fam as u64,
                object: object.index(),
                source: source.index(),
                pages: pages.len() as u32,
                bytes: transfer.bytes(),
                delay_ns: d.as_nanos(),
            });
            for &page in pages {
                installs.push(self.current_page_copy(object, page));
            }
        }
        self.scratch.plan = plan;
        self.prof.exit(HostRegion::PageTransfer);
        self.prof.enter(HostRegion::PageInstall);
        for (pid, version, chain) in installs.drain(..) {
            self.stores[node.index() as usize].install(pid, version, chain);
        }
        self.prof.exit(HostRegion::PageInstall);

        // Demand fetches: touched pages still stale after the gather (see
        // `demand_set`). They happen serially during compute, so their
        // latency stretches the compute phase: batched fetches travel in
        // parallel and cost the slowest, per-page fetches add up.
        let mut demand_delay = SimDuration::ZERO;
        let batched = config.adaptive.enabled;
        self.prof.enter(HostRegion::PageTransfer);
        let stale = demand_set(
            config,
            kind,
            &self.view(),
            node,
            object,
            actual_reads,
            actual_writes,
        );
        for (source, pages) in charge::demand_batches(config, &stale) {
            let [request, transfer] =
                charge::fetch(config, registry, node, source, object, &pages, true);
            if !batched {
                self.probe(now, node.index(), |_, _| ObsEventKind::DemandFetch {
                    family: fam as u64,
                    object: object.index(),
                    page: pages[0].get(),
                    source: source.index(),
                    bytes: transfer.bytes(),
                });
            }
            let d = self.send_lossy(request, Some(fam)) + self.send_lossy(transfer, Some(fam));
            if batched {
                demand_delay = demand_delay.max(d);
                self.probe(now, node.index(), |_, l| ObsEventKind::DemandBatch {
                    family: fam as u64,
                    object: object.index(),
                    source: source.index(),
                    pages: fill(&mut l.pages[0], pages.iter().map(|p| p.get())),
                    bytes: transfer.bytes(),
                    delay_ns: d.as_nanos(),
                });
            } else {
                demand_delay += d;
            }
            for &page in &pages {
                installs.push(self.current_page_copy(object, page));
                self.stats.demand_fetches += 1;
            }
        }
        self.prof.exit(HostRegion::PageTransfer);
        self.prof.enter(HostRegion::PageInstall);
        for (pid, version, chain) in installs.drain(..) {
            self.stores[node.index() as usize].install(pid, version, chain);
        }
        self.prof.exit(HostRegion::PageInstall);
        self.scratch.installs = installs;
        self.families[fam].fetch_extra = demand_delay;

        if max_delay == SimDuration::ZERO {
            self.begin_compute(now, fam);
        } else {
            self.set_phase(now, fam, Phase::Fetching);
            self.schedule_family(now + max_delay, fam, Event::FetchArrived);
        }
        Ok(())
    }

    /// The live placement, as the transfer policies read it.
    fn view(&self) -> EngineView<'_> {
        EngineView {
            table: &self.table,
            stores: &self.stores,
            registry: self.registry,
            last_holder: &self.last_holder,
        }
    }

    /// The newest committed version of a page and its content chain,
    /// copied by value from its owner's store (the initial version and
    /// chain 0 if it was never written anywhere).
    fn current_page_copy(&self, object: ObjectId, page: PageIndex) -> (PageId, Version, u64) {
        let loc = self
            .table
            .page_map(object)
            .expect("registered object")
            .location(page);
        let pid = PageId::new(object, page.get());
        match self.stores[loc.node.index() as usize].get(pid) {
            Some(p) => {
                debug_assert_eq!(
                    p.version(),
                    loc.version,
                    "owner copy of {pid} out of sync with the page map"
                );
                (pid, p.version(), p.chain())
            }
            None => {
                debug_assert_eq!(
                    loc.version,
                    Version::INITIAL,
                    "missing non-initial page {pid}"
                );
                (pid, Version::INITIAL, 0)
            }
        }
    }

    fn begin_compute(&mut self, now: SimTime, fam: usize) {
        let Frame { txn, spec, .. } = *self.families[fam].top();
        let InvocationSpec {
            object,
            method,
            path,
            ..
        } = *spec;
        let node = self.workload[fam].node;
        let compiled = self.registry.class_of(object);
        let access = compiled.path_access(method, path);
        let (reads, writes) = (access.reads(), access.writes());
        let store = &mut self.stores[node.index() as usize];

        for page in reads.iter() {
            let chain = store.chain(PageId::new(object, page.get()));
            self.families[fam].ops.push(family::AttemptOp {
                txn,
                op: FamilyOp::Read {
                    object,
                    page,
                    chain,
                },
            });
        }
        self.prof.enter(HostRegion::CowWrite);
        for page in writes.iter() {
            let pid = PageId::new(object, page.get());
            self.recovery.before_write(txn.get(), store, pid);
            let stamp = txn.get();
            store.apply_stamp(pid, stamp);
            self.families[fam].ops.push(family::AttemptOp {
                txn,
                op: FamilyOp::Write {
                    object,
                    page,
                    stamp,
                },
            });
        }
        self.prof.exit(HostRegion::CowWrite);

        // Optimistic lock prefetching (§6): issue the pending children's
        // lock requests now, overlapping their GDO round trips with this
        // invocation's compute phase.
        if self.config.lock_prefetch {
            self.families[fam].top_mut().children_prefetched_at = Some(now);
        }

        let touched = reads.union(writes).len() as u64;
        let duration = self.config.costs.invocation_base
            + self.config.costs.per_page_access * touched
            + self.families[fam].fetch_extra;
        self.families[fam].fetch_extra = SimDuration::ZERO;
        self.set_phase(now, fam, Phase::Computing);
        self.schedule_family(now + duration, fam, Event::ComputeDone);
    }

    /// After compute or after a child finished: start the next child or
    /// finish the current invocation.
    fn advance(&mut self, now: SimTime, fam: usize) -> Result<(), CoreError> {
        let Frame {
            spec,
            next_child,
            txn,
            ..
        } = *self.families[fam].top();
        if let Some(child) = spec.children.get(next_child) {
            self.families[fam].top_mut().next_child += 1;
            return self.start_invocation(now, fam, child, Some(txn));
        }
        self.finish_invocation(now, fam)
    }

    fn finish_invocation(&mut self, now: SimTime, fam: usize) -> Result<(), CoreError> {
        let Frame { txn, spec, .. } = *self.families[fam].top();
        let is_root = self.families[fam].frames.len() == 1;
        let node = self.workload[fam].node;

        if spec.abort {
            if is_root {
                // Programmed root fault: the family aborts permanently.
                self.abort_family_attempt(now, fam, false, true)?;
                return Ok(());
            }
            // Sub-transaction fault (Alg. 4.3 abort cases): undo, release to
            // retaining ancestors or globally, and let the parent continue.
            let subtree = self.tree.subtree_post_order(txn);
            let restored = self
                .recovery
                .rollback(txn.get(), &mut self.stores[node.index() as usize]);
            let undo_delay = self.config.costs.undo_per_page * restored as u64;
            self.prof.enter(HostRegion::LockRelease);
            let mut rel = std::mem::take(&mut self.scratch.abort);
            self.table.release_abort(txn, &self.tree, &mut rel);
            self.probe_released(now, node, txn, ReleaseCause::Abort, &rel.released);
            self.probe_grants(now, &rel.grants);
            self.prof.exit(HostRegion::LockRelease);
            self.tree.abort(txn);
            self.families[fam].discard_subtree_effects(&subtree);
            self.stats.subtxn_aborts += 1;
            self.probe(now, node.index(), |_, _| ObsEventKind::SubAbort {
                family: fam as u64,
                txn: txn.get(),
                released: rel.released.len() as u32,
            });
            self.probe(now, node.index(), |_, _| ObsEventKind::SpanClose {
                family: fam as u64,
                txn: txn.get(),
                outcome: SpanOutcome::Abort,
            });
            // Globally released locks (no retaining ancestor) forward to
            // GlobalLockRelease with no dirty info (Alg. 4.3).
            if !rel.released.is_empty() {
                self.trace.push(TraceEvent::SubAbortRelease {
                    at: now,
                    family: self.tree.root_of(txn).get(),
                    node,
                    released: rel.released.clone(),
                });
                for &object in &rel.released {
                    let release = charge::lock_release(self.config, node, object, 0);
                    self.send_lossy(release, None);
                    self.replicate_gdo(&release);
                }
            }
            for grant in &rel.grants {
                self.deliver_grant(now, grant);
            }
            self.scratch.abort = rel;
            self.families[fam].frames.pop();
            self.schedule_family(
                now + undo_delay + self.config.costs.local_lock_op,
                fam,
                Event::Continue,
            );
            return Ok(());
        }

        self.feedback_profile(now, fam);

        if is_root {
            return self.commit_root(now, fam);
        }

        // Sub-transaction pre-commit: parent inherits and retains (rule 3);
        // purely local.
        let parent = self.tree.parent(txn).expect("non-root has a parent");
        self.prof.enter(HostRegion::LockRelease);
        let mut pre = std::mem::take(&mut self.scratch.pre_commit);
        self.table.release_pre_commit(txn, &self.tree, &mut pre);
        for object in &pre.inherited {
            self.probe(now, node.index(), |_, _| ObsEventKind::LockRetained {
                object: object.index(),
                txn: txn.get(),
                parent: parent.get(),
            });
        }
        self.scratch.pre_commit = pre;
        self.prof.exit(HostRegion::LockRelease);
        self.probe(now, node.index(), |_, _| ObsEventKind::SpanClose {
            family: fam as u64,
            txn: txn.get(),
            outcome: SpanOutcome::PreCommit,
        });
        self.recovery.inherit(txn.get(), parent.get());
        self.tree.pre_commit(txn);
        self.families[fam].frames.pop();
        self.schedule_family(now + self.config.costs.local_lock_op, fam, Event::Continue);
        Ok(())
    }

    /// Feeds the invocation's observed access set back into the adaptive
    /// predictor at (pre-)commit. Under-predicted pages expand the profile
    /// immediately; pages untouched for a full confidence window shrink it
    /// (never below the static must-access floor). Aborted invocations do
    /// not feed back — their access sets may be partial.
    fn feedback_profile(&mut self, now: SimTime, fam: usize) {
        if self.predictor.is_none() {
            return;
        }
        let InvocationSpec {
            object,
            method,
            path,
            ..
        } = *self.families[fam].top().spec;
        let class = self.registry.object(object).class;
        if !self.config.protocol_for(class).uses_prediction() {
            return;
        }
        let actual = self
            .registry
            .class_of(object)
            .path_access(method, path)
            .touched();
        let delta = self
            .predictor
            .as_mut()
            .expect("checked above")
            .observe(class, method, &actual);
        self.stats.profile_expansions += delta.expanded.len() as u64;
        self.stats.profile_shrinks += delta.shrunk.len() as u64;
        if !delta.is_empty() {
            self.probe(now, self.workload[fam].node.index(), |e, l| {
                let profile = e
                    .predictor
                    .as_ref()
                    .expect("checked above")
                    .profile(class, method);
                let [expanded, shrunk, _] = &mut l.pages;
                ObsEventKind::ProfileUpdate {
                    class: class.index(),
                    method: method.index(),
                    expanded: fill(expanded, delta.expanded.iter().map(PageIndex::get)),
                    shrunk: fill(shrunk, delta.shrunk.iter().map(PageIndex::get)),
                    predicted: profile.predicted().len() as u32,
                    observations: profile.observations(),
                }
            });
        }
    }

    fn commit_root(&mut self, now: SimTime, fam: usize) -> Result<(), CoreError> {
        let root = self.families[fam].root_txn.expect("root txn exists");
        let node = self.workload[fam].node;
        let dirty = self.families[fam].surviving_dirty(&mut self.scratch.written);

        self.prof.enter(HostRegion::LockRelease);
        let mut rel = std::mem::take(&mut self.scratch.commit);
        self.table
            .release_root_commit(root, &self.tree, &dirty, node, &mut rel);
        self.probe_released(now, node, root, ReleaseCause::RootCommit, &rel.released);
        self.probe_grants(now, &rel.grants);
        self.prof.exit(HostRegion::LockRelease);

        // Publish local pages at their new per-page versions.
        for (object, pages) in &dirty {
            for &page in pages {
                let v = self
                    .table
                    .page_map(*object)
                    .expect("registered")
                    .location(page)
                    .version;
                self.stores[node.index() as usize]
                    .publish_page(PageId::new(*object, page.get()), v);
            }
        }

        // Release messages: dirty info piggybacked per object (Alg. 4.4).
        for &object in &rel.released {
            let n_dirty = dirty
                .binary_search_by_key(&object, |&(o, _)| o)
                .map_or(0, |i| dirty[i].1.len());
            let release = charge::lock_release(self.config, node, object, n_dirty);
            self.send_lossy(release, None);
            self.replicate_gdo(&release);
        }

        // RC extension: eagerly push updates to every other caching site
        // (per-class: only for objects whose class runs RC).
        let (config, registry) = (self.config, self.registry);
        for &(object, ref pages) in &dirty {
            if !config
                .protocol_for(registry.object(object).class)
                .pushes_on_commit()
            {
                continue;
            }
            let sites: Vec<NodeId> = self
                .table
                .page_map(object)
                .expect("registered")
                .caching_sites()
                .filter(|&s| s != node)
                .collect();
            let copies: Vec<(PageId, Version, u64)> = pages
                .iter()
                .map(|&p| self.current_page_copy(object, p))
                .collect();
            for msg in charge::update_pushes(config, registry, node, object, pages, &sites) {
                self.send_lossy(msg, None);
            }
            self.prof.enter(HostRegion::PageInstall);
            for site in sites {
                for &(pid, version, chain) in &copies {
                    self.stores[site.index() as usize].install(pid, version, chain);
                }
            }
            self.prof.exit(HostRegion::PageInstall);
        }

        self.recovery.forget(root.get());
        self.tree.commit_root(root);
        self.trace.push(TraceEvent::RootCommit {
            at: now,
            family: root.get(),
            node,
            dirty,
            released: std::mem::take(&mut rel.released),
        });
        for grant in &rel.grants {
            self.deliver_grant(now, grant);
        }
        self.scratch.commit = rel;

        self.probe(now, node.index(), |_, _| ObsEventKind::SpanClose {
            family: fam as u64,
            txn: root.get(),
            outcome: SpanOutcome::Commit,
        });
        self.set_phase(now, fam, Phase::Done);
        let runtime = &mut self.families[fam];
        self.stats.committed_families += 1;
        let latency = now.duration_since(runtime.arrival);
        runtime.commit_latency = Some(latency);
        self.stats.total_latency += latency;
        self.stats.latency_sketch.record(latency.as_nanos());
        self.stats.makespan = self.stats.makespan.max(now.duration_since(SimTime::ZERO));
        self.committed.push(CommittedFamily {
            family: root.get(),
            index: runtime.index,
            ops: runtime.ops.iter().map(|o| o.op.clone()).collect(),
        });
        self.recycle_buffers(fam);
        Ok(())
    }

    // ---- forensics ---------------------------------------------------

    /// Snapshots the black box at an anomaly: the flight-recorder ring,
    /// live lock-table occupancy, the waits-for edges of the incremental
    /// graph, and per-family span state. Under
    /// [`Engine::validate_lock_graph`] the lock table checks that graph
    /// against a from-scratch rebuild after every mutation, so a dump's
    /// edges are cross-checked whenever validation is armed.
    ///
    /// A no-op when the sink carries no
    /// [`FlightRecorder`](lotec_obs::FlightRecorder) or the run already
    /// captured [`MAX_FORENSICS_DUMPS`] dumps. Read-only over the
    /// simulation state, so capture can never perturb the run.
    fn capture_forensics(&mut self, now: SimTime, anomaly: Anomaly) {
        let Some(recorder) = self.sink.recorder() else {
            return;
        };
        if self.forensics.len() >= MAX_FORENSICS_DUMPS {
            return;
        }
        let events = recorder.snapshot();
        let recorded = recorder.recorded();
        let dropped = recorder.dropped();
        let waits_for: Vec<(u64, Vec<u64>)> = self
            .table
            .waits_for()
            .to_reference()
            .iter()
            .map(|(waiter, blockers)| (waiter.get(), blockers.iter().map(|b| b.get()).collect()))
            .collect();
        let mut roots: Vec<u64> = waits_for
            .iter()
            .flat_map(|(w, bs)| std::iter::once(*w).chain(bs.iter().copied()))
            .collect();
        roots.sort_unstable();
        roots.dedup();
        let root_families: Vec<(u64, u64)> = roots
            .into_iter()
            .filter_map(|root| {
                self.root_to_family
                    .get(root as usize)
                    .filter(|&&f| f != u32::MAX)
                    .map(|&f| (root, u64::from(f)))
            })
            .collect();
        let occ = self.table.occupancy();
        let families = self
            .families
            .iter()
            .enumerate()
            .map(|(i, f)| FamilySnapshot {
                family: i as u64,
                phase: obs_phase(&f.phase),
                restarts: f.restarts,
            })
            .collect();
        self.forensics.push(ForensicsDump {
            seq: self.forensics.len() as u64,
            at_ns: now.as_nanos(),
            anomaly,
            recorded,
            dropped,
            occupancy: OccupancySnapshot {
                held: occ.held,
                retained: occ.retained,
                waiting: occ.waiting,
            },
            waits_for,
            root_families,
            families,
            events,
        });
    }

    // ---- deadlock handling -------------------------------------------

    /// `detector` is the GDO partition whose queueing triggered the check
    /// (named as the site of the probe's `Deadlock` events); `enqueued` is
    /// the family whose request was just queued.
    ///
    /// Cycles are broken at every enqueue and wait edges only disappear in
    /// between, so the graph is acyclic on entry and any new cycle runs
    /// through `enqueued` — when [`lotec_txn::may_deadlock_through`] (an
    /// O(1) in-edge lookup in the incremental graph) rules that out, the
    /// detector is skipped entirely; otherwise every pass asks whether
    /// `enqueued` reaches itself and, only if it does, searches every
    /// blocked family ([`lotec_txn::find_deadlock_cycle_through`]).
    ///
    /// That stays exact after a victim: its abort and the regrants that
    /// follow only remove wait edges. The victim's holds, retentions and
    /// queued request disappear. A regrant admits only families at the
    /// head of a queue, and every waiter left behind such a family
    /// already had a FIFO edge to it, which the grant keeps or drops. So
    /// every remaining cycle still passes through `enqueued`, and a pass
    /// that finds nothing costs one small forward walk.
    fn break_deadlocks(
        &mut self,
        now: SimTime,
        detector: NodeId,
        enqueued: TxnId,
    ) -> Result<(), CoreError> {
        if !lotec_txn::may_deadlock_through(&self.table, &self.tree, enqueued) {
            return Ok(());
        }
        loop {
            let Some(cycle) =
                lotec_txn::find_deadlock_cycle_through(&self.table, &self.tree, enqueued)
            else {
                return Ok(());
            };
            let victim_root = lotec_txn::pick_victim(&cycle);
            self.probe(now, detector.index(), |_, l| ObsEventKind::Deadlock {
                cycle: fill(&mut l.ids[0], cycle.iter().map(|t| t.get())),
                victim: victim_root.get(),
            });
            self.stats.deadlocks += 1;
            let fam = self.root_to_family[victim_root.get() as usize] as usize;
            debug_assert_ne!(fam, u32::MAX as usize, "victim family known");
            // Capture before the abort tears the cycle's edges down — the
            // dump must show the waits-for graph that convicted the victim.
            if self.sink.recorder().is_some() {
                let anomaly = Anomaly::DeadlockVictim {
                    cycle: cycle.iter().map(|t| t.get()).collect(),
                    cycle_families: cycle
                        .iter()
                        .map(|t| u64::from(self.root_to_family[t.get() as usize]))
                        .collect(),
                    victim: victim_root.get(),
                    family: fam as u64,
                };
                self.capture_forensics(now, anomaly);
            }
            self.abort_family_attempt(now, fam, true, true)?;
        }
    }

    /// Aborts a family's entire current attempt. With `restart` the family
    /// retries after an exponential backoff; without it the family fails
    /// permanently (programmed root fault). `node_alive` is false when the
    /// abort is a crash-abort: the dead node cannot send release messages,
    /// so lock reclamation is directory-initiated and message-free (the
    /// GDO still replicates its own mutation to its backups).
    fn abort_family_attempt(
        &mut self,
        now: SimTime,
        fam: usize,
        restart: bool,
        node_alive: bool,
    ) -> Result<(), CoreError> {
        let root = self.families[fam].root_txn.expect("attempt has a root");
        let node = self.workload[fam].node;
        let mut released = Vec::new();
        let mut grants = Vec::new();
        let mut rel = std::mem::take(&mut self.scratch.abort);
        for txn in self.tree.active_subtree_post_order(root) {
            self.recovery
                .rollback(txn.get(), &mut self.stores[node.index() as usize]);
            self.prof.enter(HostRegion::LockRelease);
            self.table.release_abort(txn, &self.tree, &mut rel);
            self.probe_released(now, node, txn, ReleaseCause::Abort, &rel.released);
            self.probe_grants(now, &rel.grants);
            self.prof.exit(HostRegion::LockRelease);
            released.extend_from_slice(&rel.released);
            grants.append(&mut rel.grants);
            self.tree.abort(txn);
            self.probe(now, node.index(), |_, _| ObsEventKind::SpanClose {
                family: fam as u64,
                txn: txn.get(),
                outcome: if node_alive {
                    SpanOutcome::Abort
                } else {
                    SpanOutcome::CrashAbort
                },
            });
        }
        self.scratch.abort = rel;
        self.prof.enter(HostRegion::LockRelease);
        let touched = self.table.cancel_family_waiters(root, &self.tree);
        debug_assert!(touched.len() <= 1, "a family has one outstanding request");
        let regranted = self.table.regrant(&touched, &self.tree);
        self.probe_grants(now, &regranted);
        grants.extend(regranted);
        self.prof.exit(HostRegion::LockRelease);
        // Each globally released lock costs an (empty) release message to
        // its GDO partition — unless the node is dead, in which case the
        // directory reclaims the locks without hearing from it.
        for &object in &released {
            let release = charge::lock_release(self.config, node, object, 0);
            if node_alive {
                self.send_lossy(release, None);
            }
            self.replicate_gdo(&release);
        }
        self.trace.push(TraceEvent::FamilyAbort {
            at: now,
            family: root.get(),
            node,
            released,
            cancelled_request: touched.first().copied(),
        });
        self.set_phase(
            now,
            fam,
            if restart {
                Phase::Restarting
            } else {
                Phase::Failed
            },
        );
        self.families[fam].reset_for_restart();

        if restart {
            self.families[fam].restarts += 1;
            self.stats.restarts += 1;
            let restarts = self.families[fam].restarts;
            if restarts > self.config.max_restarts {
                return Err(CoreError::RestartBudgetExhausted {
                    family_index: fam,
                    restarts,
                });
            }
            let base = self.config.costs.retry_backoff_base;
            let backoff = base * (1u64 << (restarts - 1).min(10))
                + SimDuration::from_nanos(self.jitter_rng.next_below(base.as_nanos().max(1)));
            self.probe(now, node.index(), |_, _| ObsEventKind::Restart {
                family: fam as u64,
                attempt: restarts,
                backoff_ns: backoff.as_nanos(),
            });
            // Scheduled after `reset_for_restart`, so the event carries the
            // *new* generation and survives the staleness check.
            self.schedule_family(now + backoff, fam, Event::Restart);
        } else {
            self.stats.aborted_families += 1;
            self.recycle_buffers(fam);
        }
        for grant in &grants {
            self.deliver_grant(now, grant);
        }
        Ok(())
    }

    // ---- fault handling -----------------------------------------------

    /// A queued lock request outlived its RPC timeout: the waiter gives
    /// up, the directory drops its queue entry (unblocking anyone FIFO'd
    /// behind it), and the request is re-issued — re-entering the queue at
    /// the tail, or granted outright if the conflict has cleared.
    fn on_lock_timeout(&mut self, now: SimTime, fam: usize, gen: u32) -> Result<(), CoreError> {
        if self.is_stale(fam, gen) || self.families[fam].phase != Phase::WaitingGrant {
            // The wait already ended (grant, abort, or crash) — nothing to
            // time out.
            return Ok(());
        }
        let root = self.families[fam]
            .root_txn
            .expect("waiting family has a root");
        let Frame { txn, spec, .. } = *self.families[fam].top();
        let object = spec.object;
        let waited = now.saturating_duration_since(self.families[fam].phase_entered);
        self.prof.enter(HostRegion::LockRelease);
        let touched = self.table.cancel_family_waiters(root, &self.tree);
        debug_assert_eq!(touched, vec![object], "family waits on its top object");
        let grants = self.table.regrant(&touched, &self.tree);
        self.probe_grants(now, &grants);
        self.prof.exit(HostRegion::LockRelease);
        self.stats.lock_timeouts += 1;
        self.probe(now, self.workload[fam].node.index(), |_, _| {
            ObsEventKind::LockTimeout {
                object: object.index(),
                txn: txn.get(),
                waited_ns: waited.as_nanos(),
            }
        });
        if self.sink.recorder().is_some() {
            self.capture_forensics(
                now,
                Anomaly::LockTimeout {
                    object: object.index(),
                    txn: txn.get(),
                    family: fam as u64,
                    waited_ns: waited.as_nanos(),
                },
            );
        }
        for grant in &grants {
            self.deliver_grant(now, grant);
        }
        self.request_lock(now, fam)
    }

    /// A scheduled crash window opens. Families running at the dead node
    /// lose their in-flight attempt (crash-abort with directory-initiated
    /// lock reclamation — retained locks of the whole subtree included),
    /// the node's page caches go cold, and every page it owned is
    /// repointed at a surviving same-version copy where one exists. A page
    /// with no surviving copy keeps its owner: the node's stable storage
    /// preserves committed versions across the outage, and requests for it
    /// simply wait out the blackout (see [`plan_delivery`]).
    fn on_node_crash(&mut self, now: SimTime, window: usize) -> Result<(), CoreError> {
        let w = self.config.faults.plan.crashes[window];
        let node = w.node;
        self.stats.crashes += 1;

        // Adaptive profiles learned against the pre-crash placement are
        // invalidated wholesale: the crash cold-starts caches and repoints
        // page owners, so stale confidence is dangerous. Every profile
        // restarts from the static baseline and re-learns over a fresh
        // window.
        if let Some(predictor) = self.predictor.as_mut() {
            predictor.reset_all();
            self.stats.profile_resets += 1;
        }

        // Crash-abort in-flight attempts. Families merely backing off (or
        // not yet arrived) keep their state; their Start/Restart defers
        // until the node is back up.
        let victims: Vec<usize> = self
            .families
            .iter()
            .enumerate()
            .filter(|&(i, f)| {
                self.workload[i].node == node
                    && matches!(
                        f.phase,
                        Phase::WaitingGrant
                            | Phase::GrantInFlight { .. }
                            | Phase::Fetching
                            | Phase::Computing
                    )
            })
            .map(|(i, _)| i)
            .collect();
        for &fam in &victims {
            self.abort_family_attempt(now, fam, true, false)?;
        }
        self.stats.crash_aborts += victims.len() as u64;

        // Directory repair: repoint owned pages at surviving same-version
        // copies. Read-only scan first, then apply, to keep the borrows
        // disjoint. Only objects with a GDO entry take part: an untouched
        // object's only copy is at its home, which keeps it, so it has
        // nothing to repoint and nothing to evict.
        let config = self.config;
        let mut repairs: Vec<(ObjectId, PageIndex, NodeId)> = Vec::new();
        for (object, map) in self.table.page_maps() {
            for (page, loc) in map.entries() {
                if loc.node != node {
                    continue;
                }
                let pid = PageId::new(object, page.get());
                let survivor = (0..config.num_nodes).map(NodeId::new).find(|&s| {
                    s != node
                        && !config.faults.plan.is_down(s, now)
                        && self.stores[s.index() as usize].version_of(pid) == Some(loc.version)
                });
                if let Some(s) = survivor {
                    repairs.push((object, page, s));
                }
            }
        }
        for &(object, page, survivor) in &repairs {
            self.table
                .page_map_mut(object)
                .expect("registered")
                .reassign_owner(page, survivor);
            self.probe(now, node.index(), |_, _| ObsEventKind::PageMapRepaired {
                object: object.index(),
                page: page.get(),
                from: node.index(),
                to: survivor.index(),
            });
        }

        // Cold caches: evict every page the node no longer owns and fix
        // the caching-site sets.
        let touched: Vec<ObjectId> = self.table.page_maps().map(|(object, _)| object).collect();
        for object in touched {
            let mut map = self.table.page_map_mut(object).expect("registered");
            let mut still_owner = false;
            for (page, loc) in map.view().entries() {
                if loc.node == node {
                    still_owner = true;
                } else {
                    self.stores[node.index() as usize].evict(PageId::new(object, page.get()));
                }
            }
            map.forget_caching_site(node);
            if still_owner {
                // Stable storage still holds pages the directory could not
                // repoint; the node stays a (consistent) caching site.
                map.record_cached(node);
            }
        }

        self.probe(now, node.index(), |_, _| ObsEventKind::NodeCrashed {
            aborted_families: victims.len() as u32,
        });
        if self.sink.recorder().is_some() {
            self.capture_forensics(
                now,
                Anomaly::CrashRepair {
                    node: node.index(),
                    aborted_families: victims.len() as u32,
                    repairs: repairs.len() as u32,
                },
            );
        }
        Ok(())
    }

    /// A crash window closes: the node is reachable again (pending
    /// retransmissions land, deferred starts fire). Pure observability —
    /// the blackout arithmetic itself lives in the fault plan.
    fn on_node_recover(&mut self, _now: SimTime, window: usize) {
        let w = self.config.faults.plan.crashes[window];
        self.probe(w.until, w.node.index(), |_, _| {
            ObsEventKind::NodeRecovered {
                outage_ns: w.until.duration_since(w.at).as_nanos(),
            }
        });
    }

    // ---- reporting ----------------------------------------------------

    /// The final chain of every page of every object the run touched,
    /// read from the page's owner. Only an object a lock request reached
    /// has a GDO entry, and only such an object can have been written, so
    /// the list leaves out pages that read as chain 0 anyway (see
    /// [`FinalChains`]).
    fn collect_final_chains(&self) -> FinalChains {
        let total = self
            .table
            .page_maps()
            .map(|(_, map)| usize::from(map.num_pages()))
            .sum();
        // Objects ascend and pages ascend within each, so the pairs arrive
        // in key order and the list keeps this exactly-sized buffer.
        let mut entries = Vec::with_capacity(total);
        for (object, map) in self.table.page_maps() {
            entries.extend(map.entries().map(|(page, loc)| {
                let chain =
                    self.stores[loc.node.index() as usize].chain(PageId::new(object, page.get()));
                ((object, page), chain)
            }));
        }
        FinalChains::from_iter(entries)
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use super::*;
    use crate::oracle;
    use crate::spec::demo_workload;
    use lotec_net::MessageKind;

    fn run_demo(protocol: ProtocolKind, seed: u64) -> RunReport {
        let config = SystemConfig {
            protocol,
            seed,
            ..SystemConfig::default()
        };
        let (registry, families) = demo_workload(&config, seed);
        Engine::new(&config, &registry, &families)
            .and_then(Engine::run)
            .expect("demo runs")
    }

    #[test]
    fn demo_workload_commits_every_family() {
        let report = run_demo(ProtocolKind::Lotec, 1);
        assert_eq!(report.stats.committed_families, 8);
        assert_eq!(report.stats.aborted_families, 0);
        assert_eq!(report.trace.num_commits(), 8);
        assert!(report.trace.num_grants() >= 8);
        assert!(report.traffic.total().messages > 0);
    }

    #[test]
    fn final_chains_list_exactly_the_touched_objects_pages_in_key_order() {
        let config = SystemConfig::default();
        let (registry, families) = demo_workload(&config, 3);
        let report = Engine::new(&config, &registry, &families)
            .and_then(Engine::run)
            .expect("demo runs");
        // Every family commits, so the objects some lock request reached
        // (those with a GDO entry) are exactly the objects granted.
        assert_eq!(report.stats.committed_families as usize, families.len());
        let granted: BTreeSet<ObjectId> = report
            .trace
            .events()
            .iter()
            .filter_map(|event| match event {
                TraceEvent::Grant { object, .. } => Some(*object),
                _ => None,
            })
            .collect();
        assert!(
            granted.len() < registry.num_objects(),
            "some object stays untouched"
        );
        let touched_pages: Vec<PageKey> = granted
            .iter()
            .flat_map(|&object| {
                (0..registry.num_pages(object)).map(move |p| (object, PageIndex::new(p)))
            })
            .collect();
        let listed: Vec<PageKey> = report.final_chains.iter().map(|(&k, _)| k).collect();
        assert_eq!(listed, touched_pages);
        assert!(listed.windows(2).all(|w| w[0] < w[1]), "strictly ascending");
        // Every page a committed operation wrote is listed, with its chain.
        for op in report.committed.iter().flat_map(|family| &family.ops) {
            if let FamilyOp::Write { object, page, .. } = *op {
                let chain = report.final_chains.get(&(object, page));
                assert!(chain.is_some_and(|&c| c != 0), "{object}/{page} listed");
            }
        }
        // An unlisted page reads as chain 0.
        let untouched = registry
            .objects()
            .map(|inst| inst.id)
            .find(|object| !granted.contains(object))
            .expect("an untouched object");
        let key = (untouched, PageIndex::new(0));
        assert_eq!(report.final_chains.get(&key), None);
        assert_eq!(report.final_chains[&key], 0);
    }

    #[test]
    fn all_protocols_run_and_are_serializable() {
        for protocol in ProtocolKind::ALL {
            let report = run_demo(protocol, 2);
            assert_eq!(report.stats.committed_families, 8, "{protocol}");
            oracle::verify(&report).unwrap_or_else(|e| panic!("{protocol}: {e}"));
        }
    }

    #[test]
    fn engine_is_deterministic() {
        let a = run_demo(ProtocolKind::Lotec, 5);
        let b = run_demo(ProtocolKind::Lotec, 5);
        assert_eq!(a.trace, b.trace);
        assert_eq!(a.traffic.total(), b.traffic.total());
        assert_eq!(a.final_chains, b.final_chains);
        assert_eq!(a.stats.makespan, b.stats.makespan);
    }

    #[test]
    fn engine_ledger_matches_replay_of_own_trace() {
        for protocol in ProtocolKind::ALL {
            let config = SystemConfig {
                protocol,
                ..SystemConfig::default()
            };
            let (registry, families) = demo_workload(&config, 3);
            let report = Engine::new(&config, &registry, &families)
                .and_then(Engine::run)
                .unwrap();
            let replayed = crate::replay::replay_trace(protocol, &report.trace, &registry, &config);
            assert_eq!(
                report.traffic.total(),
                replayed.total(),
                "{protocol}: engine and replay accounting diverged"
            );
            for inst in registry.objects() {
                assert_eq!(
                    report.traffic.object(inst.id),
                    replayed.object(inst.id),
                    "{protocol}/{}: per-object accounting diverged",
                    inst.id
                );
            }
        }
    }

    #[test]
    fn mixed_per_class_protocols_run_and_match_replay() {
        use lotec_object::ClassId;
        // Demo workload has class 0 = Container, class 1 = Item. Put the
        // small hot Items under RC and the big Containers under LOTEC.
        let config = SystemConfig::default()
            .with_class_protocol(ClassId::new(1), ProtocolKind::ReleaseConsistency);
        assert!(config.is_mixed_protocol());
        let (registry, families) = crate::spec::demo_workload(&config, 6);
        let report = Engine::new(&config, &registry, &families)
            .and_then(Engine::run)
            .unwrap();
        crate::oracle::verify(&report).expect("mixed protocols stay serializable");

        // Engine accounting must equal the assignment-aware replay.
        let replayed = crate::replay::replay_run(&report.trace, &registry, &config);
        assert_eq!(report.traffic.total(), replayed.total());

        // Eager pushes exist (the RC class commits updates) ...
        let pushes = report.traffic.ledger().kind(MessageKind::UpdatePush);
        assert!(pushes.messages > 0, "the RC class must push");
        // ... but only Item (class 1) objects ever receive them.
        for inst in registry.objects() {
            if inst.class == ClassId::new(0) {
                // Containers run LOTEC: a pure-LOTEC uniform replay of the
                // same trace charges them identically.
                let uniform = crate::replay::replay_trace(
                    ProtocolKind::Lotec,
                    &report.trace,
                    &registry,
                    &config,
                );
                assert_eq!(
                    report.traffic.object(inst.id),
                    uniform.object(inst.id),
                    "{}: LOTEC-class object accounting must match uniform LOTEC",
                    inst.id
                );
            }
        }
    }

    #[test]
    fn adaptive_run_is_serializable_and_matches_replay() {
        let config = SystemConfig {
            adaptive: crate::config::AdaptiveConfig {
                enabled: true,
                window: 2,
            },
            ..SystemConfig::default()
        };
        let (registry, families) = demo_workload(&config, 11);
        let report = Engine::new(&config, &registry, &families)
            .and_then(Engine::run)
            .unwrap();
        assert_eq!(report.stats.committed_families, 8);
        oracle::verify(&report).expect("adaptive runs stay serializable");
        let replayed = crate::replay::replay_run(&report.trace, &registry, &config);
        assert_eq!(
            report.traffic.total(),
            replayed.total(),
            "adaptive engine and replay accounting diverged"
        );
        for inst in registry.objects() {
            assert_eq!(
                report.traffic.object(inst.id),
                replayed.object(inst.id),
                "{}: adaptive per-object accounting diverged",
                inst.id
            );
        }
    }

    #[test]
    fn adaptive_profiles_learn_on_demo_workload() {
        // Window 1 trims a page after a single untouched observation, so
        // any `rebuild` invocation that takes the index-only path trims
        // the bulk pages out of the profile.
        let config = SystemConfig {
            adaptive: crate::config::AdaptiveConfig {
                enabled: true,
                window: 1,
            },
            ..SystemConfig::default()
        };
        let (registry, families) = demo_workload(&config, 11);
        let report = Engine::new(&config, &registry, &families)
            .and_then(Engine::run)
            .unwrap();
        // The static predictions are conservative supersets of every
        // path's access set, so on a path-varying workload learning must
        // trim something; no crashes means no resets.
        assert!(
            report.stats.profile_shrinks > 0,
            "over-predicted pages must be trimmed"
        );
        assert_eq!(report.stats.profile_resets, 0);
        oracle::verify(&report).expect("trimmed profiles stay sound");
    }

    #[test]
    fn adaptive_off_takes_the_static_path() {
        // Belt and braces on top of the golden fingerprints: a run with
        // the adaptive block left at its default must be bit-identical to
        // one that never mentions it.
        let explicit = SystemConfig {
            adaptive: crate::config::AdaptiveConfig::default(),
            ..SystemConfig::default()
        };
        let implicit = SystemConfig::default();
        let (registry, families) = demo_workload(&implicit, 9);
        let a = Engine::new(&explicit, &registry, &families)
            .and_then(Engine::run)
            .unwrap();
        let b = Engine::new(&implicit, &registry, &families)
            .and_then(Engine::run)
            .unwrap();
        assert_eq!(a.trace, b.trace);
        assert_eq!(a.traffic.total(), b.traffic.total());
        assert_eq!(a.stats.makespan, b.stats.makespan);
        assert_eq!(a.stats.profile_shrinks + a.stats.profile_expansions, 0);
    }

    #[test]
    fn per_class_override_falls_back_to_default() {
        use lotec_object::ClassId;
        let config =
            SystemConfig::default().with_class_protocol(ClassId::new(1), ProtocolKind::Cotec);
        assert_eq!(config.protocol_for(ClassId::new(1)), ProtocolKind::Cotec);
        assert_eq!(config.protocol_for(ClassId::new(0)), ProtocolKind::Lotec);
        let uniform = SystemConfig::default();
        assert!(!uniform.is_mixed_protocol());
    }

    #[test]
    fn lock_prefetch_hides_latency_without_changing_traffic() {
        let base = SystemConfig {
            seed: 9,
            ..SystemConfig::default()
        };
        let (registry, families) = crate::spec::demo_workload(&base, 9);
        let plain = Engine::new(&base, &registry, &families)
            .and_then(Engine::run)
            .unwrap();
        let pre_cfg = SystemConfig {
            lock_prefetch: true,
            ..base
        };
        let prefetched = Engine::new(&pre_cfg, &registry, &families)
            .and_then(Engine::run)
            .unwrap();

        crate::oracle::verify(&prefetched).expect("prefetching preserves correctness");
        assert!(
            prefetched.stats.prefetch_hits > 0,
            "nested demo must prefetch"
        );
        assert!(
            prefetched.stats.prefetch_saved > lotec_sim::SimDuration::ZERO,
            "some latency must be absorbed"
        );
        // Same messages and bytes: prefetching only moves them earlier.
        assert_eq!(plain.traffic.total(), prefetched.traffic.total());
        // Latency must not get worse.
        assert!(
            prefetched.stats.total_latency <= plain.stats.total_latency,
            "prefetch {} > plain {}",
            prefetched.stats.total_latency,
            plain.stats.total_latency
        );
    }

    #[test]
    fn multicast_collapses_rc_pushes_and_matches_replay() {
        let unicast = SystemConfig {
            protocol: ProtocolKind::ReleaseConsistency,
            ..SystemConfig::default()
        };
        let (registry, families) = crate::spec::demo_workload(&unicast, 12);
        let uni = Engine::new(&unicast, &registry, &families)
            .and_then(Engine::run)
            .unwrap();
        let multicast_cfg = SystemConfig {
            multicast: true,
            ..unicast.clone()
        };
        let multi = Engine::new(&multicast_cfg, &registry, &families)
            .and_then(Engine::run)
            .unwrap();
        crate::oracle::verify(&multi).expect("multicast preserves correctness");

        let uni_push = uni.traffic.ledger().kind(MessageKind::UpdatePush);
        let multi_push = multi.traffic.ledger().kind(MessageKind::UpdatePush);
        assert!(uni_push.messages > 0);
        assert!(
            multi_push.messages < uni_push.messages,
            "multicast must collapse pushes: {} vs {}",
            multi_push.messages,
            uni_push.messages
        );
        // Replay under the same multicast flag matches the engine.
        let replayed = crate::replay::replay_run(&multi.trace, &registry, &multicast_cfg);
        assert_eq!(multi.traffic.total(), replayed.total());
    }

    #[test]
    fn dsd_transfers_shrink_bytes_and_match_replay() {
        let page_cfg = SystemConfig {
            seed: 21,
            ..SystemConfig::default()
        };
        let (registry, families) = crate::spec::demo_workload(&page_cfg, 21);
        let page_run = Engine::new(&page_cfg, &registry, &families)
            .and_then(Engine::run)
            .unwrap();
        let dsd_cfg = SystemConfig {
            dsd_transfers: true,
            ..page_cfg
        };
        let dsd_run = Engine::new(&dsd_cfg, &registry, &families)
            .and_then(Engine::run)
            .unwrap();
        crate::oracle::verify(&dsd_run).expect("dsd mode stays serializable");

        assert!(
            dsd_run.traffic.total().bytes < page_run.traffic.total().bytes,
            "dsd must shave partial-page fragmentation: {} vs {}",
            dsd_run.traffic.total().bytes,
            page_run.traffic.total().bytes
        );
        assert_eq!(
            dsd_run.traffic.total().messages,
            page_run.traffic.total().messages,
            "dsd changes sizes, not message structure"
        );
        let replayed = crate::replay::replay_run(&dsd_run.trace, &registry, &dsd_cfg);
        assert_eq!(dsd_run.traffic.total(), replayed.total());
    }

    #[test]
    fn central_gdo_matches_replay_and_costs_more_lock_traffic() {
        use crate::config::GdoPlacement;
        let part_cfg = SystemConfig {
            seed: 31,
            ..SystemConfig::default()
        };
        let (registry, families) = crate::spec::demo_workload(&part_cfg, 31);
        let part = Engine::new(&part_cfg, &registry, &families)
            .and_then(Engine::run)
            .unwrap();
        let central_cfg = SystemConfig {
            gdo_placement: GdoPlacement::Central(NodeId::new(0)),
            ..part_cfg
        };
        let central = Engine::new(&central_cfg, &registry, &families)
            .and_then(Engine::run)
            .unwrap();
        crate::oracle::verify(&central).expect("central GDO stays serializable");
        let replayed = crate::replay::replay_run(&central.trace, &registry, &central_cfg);
        assert_eq!(central.traffic.total(), replayed.total());
        // Every lock op from a non-directory node pays messages under the
        // central design; partitioning gives each node a local share.
        let lock_msgs = |r: &RunReport| {
            r.traffic.ledger().kind(MessageKind::LockRequest).messages
                + r.traffic.ledger().kind(MessageKind::LockGrant).messages
        };
        assert!(
            lock_msgs(&central) >= lock_msgs(&part),
            "central {} < partitioned {}",
            lock_msgs(&central),
            lock_msgs(&part)
        );
    }

    #[test]
    #[should_panic(expected = "central GDO node out of range")]
    fn central_gdo_node_validated() {
        use crate::config::GdoPlacement;
        let cfg = SystemConfig {
            gdo_placement: GdoPlacement::Central(NodeId::new(99)),
            ..SystemConfig::default()
        };
        cfg.validate();
    }

    #[test]
    fn gdo_replication_adds_small_messages_and_matches_replay() {
        let plain = SystemConfig {
            seed: 41,
            ..SystemConfig::default()
        };
        let (registry, families) = crate::spec::demo_workload(&plain, 41);
        let unreplicated = Engine::new(&plain, &registry, &families)
            .and_then(Engine::run)
            .unwrap();
        let repl_cfg = SystemConfig {
            gdo_replication: 3,
            ..plain
        };
        let replicated = Engine::new(&repl_cfg, &registry, &families)
            .and_then(Engine::run)
            .unwrap();
        crate::oracle::verify(&replicated).expect("replication is pure accounting");

        let repl = replicated.traffic.ledger().kind(MessageKind::GdoReplicate);
        assert!(repl.messages > 0, "factor 3 must replicate");
        assert_eq!(
            unreplicated
                .traffic
                .ledger()
                .kind(MessageKind::GdoReplicate)
                .messages,
            0,
            "factor 1 must not"
        );
        // Write-behind: the schedule itself is unchanged.
        assert_eq!(unreplicated.trace, replicated.trace);
        // Replay parity.
        let replayed = crate::replay::replay_run(&replicated.trace, &registry, &repl_cfg);
        assert_eq!(replicated.traffic.total(), replayed.total());
    }

    #[test]
    fn probed_run_matches_plain_run_and_accounts_phases() {
        let config = SystemConfig {
            seed: 7,
            ..SystemConfig::default()
        };
        let (registry, families) = demo_workload(&config, 7);
        let plain = Engine::new(&config, &registry, &families)
            .and_then(Engine::run)
            .unwrap();
        let mut sink = lotec_obs::RecordingSink::new();
        let probed = Engine::with_probe(&config, &registry, &families, &mut sink)
            .and_then(Engine::run)
            .unwrap();

        // Attaching a recording sink must not perturb the simulation.
        assert_eq!(plain.trace, probed.trace);
        assert_eq!(plain.traffic.total(), probed.traffic.total());
        assert_eq!(plain.final_chains, probed.final_chains);
        assert_eq!(plain.stats.makespan, probed.stats.makespan);
        assert_eq!(plain.stats.phases.aggregate, probed.stats.phases.aggregate);

        // The event stream is non-empty, time-ordered, and its replayed
        // phase attribution equals the engine's own accounting.
        let events = sink.events();
        assert!(!events.is_empty());
        for w in events.windows(2) {
            assert!(w[0].at <= w[1].at, "events must be time-ordered");
        }
        let summary = lotec_obs::TraceSummary::of(events);
        assert_eq!(summary.aggregate, probed.stats.phases.aggregate);
        // The demo workload's predictions are conservative supersets of
        // what each grant touches, so recall is perfect.
        assert_eq!(summary.prediction.recall(), Some(1.0));
        assert_eq!(summary.family_phases.len(), families.len());
        assert_eq!(
            summary
                .family_outcome
                .values()
                .filter(|&&p| p == lotec_obs::ObsPhase::Committed)
                .count() as u64,
            probed.stats.committed_families
        );

        // Phase accounting fills even the unprobed report: compute time is
        // nonzero and every family has a per-family entry.
        assert!(plain.stats.phases.aggregate.running > SimDuration::ZERO);
        assert_eq!(plain.stats.phases.per_family.len(), families.len());
        assert!(plain.stats.phases.per_family.iter().all(|f| f.committed));
    }

    #[test]
    fn validate_lock_graph_arms_the_table_and_a_plain_build_does_not() {
        let config = SystemConfig::default();
        let (registry, families) = demo_workload(&config, 7);
        let plain = Engine::new(&config, &registry, &families).unwrap();
        assert!(!plain.table.graph_validation());
        let armed = plain.validate_lock_graph();
        assert!(armed.table.graph_validation());
        // Validation only checks; the armed run simulates the same schedule.
        let validated = armed.run().unwrap();
        let plain = Engine::new(&config, &registry, &families).and_then(Engine::run);
        assert_eq!(validated.trace, plain.unwrap().trace);
    }

    #[test]
    fn sample_state_every_is_off_behind_a_noop_sink_or_a_zero_interval() {
        let config = SystemConfig::default();
        let (registry, families) = demo_workload(&config, 7);
        let interval = SimDuration::from_micros(20);
        let is_sample = |e: &ObsEvent| matches!(e.kind, ObsEventKind::StateSample { .. });

        let quiet = Engine::with_probe(&config, &registry, &families, NoopSink)
            .unwrap()
            .sample_state_every(interval);
        assert!(quiet.implied_home_pages.is_empty(), "no registry walk");
        assert_eq!(quiet.sample_interval, SimDuration::ZERO, "no sampler");

        let mut sink = lotec_obs::RecordingSink::new();
        Engine::with_probe(&config, &registry, &families, &mut sink)
            .unwrap()
            .sample_state_every(SimDuration::ZERO)
            .run()
            .unwrap();
        assert!(!sink.is_empty());
        assert!(!sink.events().iter().any(is_sample));

        let mut sink = lotec_obs::RecordingSink::new();
        let sampled = Engine::with_probe(&config, &registry, &families, &mut sink)
            .unwrap()
            .sample_state_every(interval);
        let pages: u64 = registry
            .objects()
            .map(|inst| u64::from(registry.num_pages(inst.id)))
            .sum();
        assert_eq!(sampled.implied_home_pages.len(), config.num_nodes as usize);
        assert_eq!(sampled.implied_home_pages.iter().sum::<u64>(), pages);
        sampled.run().unwrap();
        assert!(sink.events().iter().any(is_sample));
    }

    #[test]
    fn per_family_phases_off_drops_rows_and_nothing_else() {
        let base = SystemConfig {
            seed: 7,
            ..SystemConfig::default()
        };
        let (registry, families) = demo_workload(&base, 7);
        let with_rows = Engine::new(&base, &registry, &families)
            .and_then(Engine::run)
            .unwrap();
        let flat_cfg = SystemConfig {
            per_family_phases: false,
            ..base
        };
        let flat = Engine::new(&flat_cfg, &registry, &families)
            .and_then(Engine::run)
            .unwrap();

        // The flag is end-of-run bookkeeping: the simulation itself — the
        // schedule, the traffic, every aggregate stat — is untouched.
        assert_eq!(with_rows.trace, flat.trace);
        assert_eq!(with_rows.traffic.total(), flat.traffic.total());
        assert_eq!(with_rows.final_chains, flat.final_chains);
        assert_eq!(with_rows.stats.makespan, flat.stats.makespan);
        assert_eq!(
            with_rows.stats.phases.aggregate,
            flat.stats.phases.aggregate
        );
        assert_eq!(
            with_rows.stats.latency_sketch.count(),
            flat.stats.latency_sketch.count()
        );
        // Only the per-family rows differ: present on, absent off.
        assert_eq!(with_rows.stats.phases.per_family.len(), families.len());
        assert!(flat.stats.phases.per_family.is_empty());
    }

    fn lossy_plan() -> lotec_sim::FaultPlan {
        lotec_sim::FaultPlan {
            drop_prob: 0.15,
            duplicate_prob: 0.05,
            delay_prob: 0.10,
            max_extra_delay: SimDuration::from_micros(20),
            rto: SimDuration::from_micros(50),
            crashes: Vec::new(),
        }
    }

    #[test]
    fn lossy_links_commit_everything_and_stay_serializable() {
        for protocol in ProtocolKind::ALL {
            let config = SystemConfig {
                protocol,
                seed: 11,
                faults: crate::config::FaultConfig {
                    plan: lossy_plan(),
                    ..Default::default()
                },
                ..SystemConfig::default()
            };
            let (registry, families) = demo_workload(&config, 11);
            let report = Engine::new(&config, &registry, &families)
                .and_then(Engine::run)
                .unwrap();
            assert_eq!(report.stats.committed_families, 8, "{protocol}");
            oracle::verify(&report).unwrap_or_else(|e| panic!("{protocol}: {e}"));
            assert!(report.stats.retransmits > 0, "{protocol}: drops must bite");
        }
    }

    #[test]
    fn lossy_runs_are_deterministic() {
        let run = || {
            let config = SystemConfig {
                seed: 13,
                faults: crate::config::FaultConfig {
                    plan: lossy_plan(),
                    ..Default::default()
                },
                ..SystemConfig::default()
            };
            let (registry, families) = demo_workload(&config, 13);
            Engine::new(&config, &registry, &families)
                .and_then(Engine::run)
                .unwrap()
        };
        let (a, b) = (run(), run());
        assert_eq!(a.trace, b.trace);
        assert_eq!(a.traffic.total(), b.traffic.total());
        assert_eq!(a.final_chains, b.final_chains);
        assert_eq!(a.stats.retransmits, b.stats.retransmits);
        assert_eq!(a.stats.makespan, b.stats.makespan);
    }

    #[test]
    fn retransmit_waits_book_as_backoff_and_phase_sums_hold() {
        let config = SystemConfig {
            seed: 17,
            faults: crate::config::FaultConfig {
                plan: lossy_plan(),
                ..Default::default()
            },
            ..SystemConfig::default()
        };
        let (registry, families) = demo_workload(&config, 17);
        let report = Engine::new(&config, &registry, &families)
            .and_then(Engine::run)
            .unwrap();
        assert_eq!(report.stats.committed_families, 8);
        assert!(report.stats.retransmit_wait > SimDuration::ZERO);
        // The stall a family spends waiting on retransmissions is booked
        // as backoff, not smeared into lock/transfer wait...
        assert!(
            report.stats.phases.aggregate.backoff > SimDuration::ZERO,
            "retransmission stalls must surface in the backoff bucket"
        );
        // ...and the reattribution moves time between buckets without
        // creating or destroying any: per committed family, the phase sum
        // still equals the family's latency, so the aggregate equals the
        // total latency.
        assert_eq!(report.stats.phases.aggregate.total(), {
            let failed: SimDuration = report
                .stats
                .phases
                .per_family
                .iter()
                .filter(|f| !f.committed)
                .map(|f| f.times.total())
                .sum();
            report.stats.total_latency + failed
        });
    }

    #[test]
    fn node_crash_aborts_inflight_work_and_recovers() {
        // Calibrate the outage against the fault-free makespan so the
        // window is guaranteed to overlap live traffic.
        let base = SystemConfig {
            seed: 19,
            ..SystemConfig::default()
        };
        let (registry, families) = demo_workload(&base, 19);
        let plain = Engine::new(&base, &registry, &families)
            .and_then(Engine::run)
            .unwrap();
        let makespan = plain.stats.makespan;
        let at = SimTime::ZERO + makespan / 8;
        let until = SimTime::ZERO + makespan / 2;
        let mut total_crash_aborts = 0;
        for node in 0..base.num_nodes {
            let config = SystemConfig {
                faults: crate::config::FaultConfig {
                    plan: lotec_sim::FaultPlan {
                        rto: SimDuration::from_micros(50),
                        crashes: vec![lotec_sim::CrashWindow {
                            node: NodeId::new(node),
                            at,
                            until,
                        }],
                        ..lotec_sim::FaultPlan::default()
                    },
                    ..Default::default()
                },
                ..base.clone()
            };
            let report = Engine::new(&config, &registry, &families)
                .and_then(Engine::run)
                .unwrap();
            assert_eq!(report.stats.crashes, 1, "node {node}");
            assert_eq!(
                report.stats.committed_families, 8,
                "node {node}: every family must recover and commit"
            );
            oracle::verify(&report)
                .unwrap_or_else(|e| panic!("node {node}: crash recovery not serializable: {e}"));
            total_crash_aborts += report.stats.crash_aborts;
        }
        assert!(
            total_crash_aborts > 0,
            "a mid-run outage must catch in-flight families on some node"
        );
    }

    #[test]
    fn lock_timeouts_requeue_waiters_without_losing_commits() {
        let config = SystemConfig {
            seed: 23,
            faults: crate::config::FaultConfig {
                lock_timeout: SimDuration::from_micros(40),
                ..Default::default()
            },
            ..SystemConfig::default()
        };
        let (registry, families) = demo_workload(&config, 23);
        let report = Engine::new(&config, &registry, &families)
            .and_then(Engine::run)
            .unwrap();
        assert!(
            report.stats.lock_timeouts > 0,
            "a tight timeout must fire on contended queues"
        );
        assert_eq!(report.stats.committed_families, 8);
        oracle::verify(&report).expect("timeouts preserve serializability");
    }

    #[test]
    fn disabled_faults_are_byte_identical_to_no_fault_config() {
        // `FaultConfig::default()` is structurally the no-fault config, so
        // this holds trivially at the config level; the stronger claim is
        // that a run with the fault machinery compiled in but disabled
        // matches the seed's historical accounting exactly (no stray RNG
        // draws, no extra ledger records, no phase reattribution).
        let report = run_demo(ProtocolKind::Lotec, 1);
        assert_eq!(report.stats.retransmits, 0);
        assert_eq!(report.stats.duplicates, 0);
        assert_eq!(report.stats.crashes, 0);
        assert_eq!(report.stats.lock_timeouts, 0);
        assert_eq!(report.stats.retransmit_wait, SimDuration::ZERO);
    }

    #[test]
    fn rc_sends_pushes_lotec_does_not() {
        let rc = run_demo(ProtocolKind::ReleaseConsistency, 4);
        let lotec = run_demo(ProtocolKind::Lotec, 4);
        assert!(rc.traffic.ledger().kind(MessageKind::UpdatePush).messages > 0);
        assert_eq!(
            lotec
                .traffic
                .ledger()
                .kind(MessageKind::UpdatePush)
                .messages,
            0
        );
    }
}
