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
//! protocol comparison.

mod family;

pub use family::FamilyOp;

use std::collections::BTreeMap;

use lotec_mem::{ObjectId, PageData, PageId, PageIndex, Recovery, ShadowPages, UndoLog};
use lotec_mem::{PageStore, Version};
use lotec_net::{plan_delivery, Message, MessageKind, TrafficLedger};
use lotec_object::{AdaptivePredictor, ObjectRegistry, PageSet};
use lotec_obs::{
    Anomaly, EventSink, FamilySnapshot, FlightRecorder, ForensicsDump, HostProfiler, HostRegion,
    NoopHostProfiler, NoopSink, ObsEvent, ObsEventKind, ObsLockMode, ObsPhase, OccupancySnapshot,
    ReleaseCause, SpanOutcome,
};
use lotec_sim::{NodeId, SimDuration, SimRng, SimTime, Simulator};
use lotec_txn::{Acquire, Grant, LockMode, LockTable, TxnId, TxnTree};

use crate::analysis::adjacent_run_count;
use crate::config::{RecoveryKind, SystemConfig};
use crate::error::CoreError;
use crate::granularity::transfer_message_bytes;
use crate::metrics::{ProtocolTraffic, RunStats};
use crate::protocol::{plan_transfer, PlacementView, ProtocolKind};
use crate::spec::{validate_family, FamilySpec};
use crate::trace::{ScheduleTrace, TraceEvent};

use family::{spec_at, FamilyRuntime, Frame, Phase};

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
    /// Final content chain of every page, read from the page's owner node
    /// (oracle cross-check).
    pub final_chains: BTreeMap<(ObjectId, PageIndex), u64>,
    /// Forensics dumps captured at anomalies (deadlock-victim selection,
    /// lock timeouts, crash repair). Empty unless the run's sink carries a
    /// [`FlightRecorder`] — without a black box there is nothing to dump —
    /// and capped at [`MAX_FORENSICS_DUMPS`] per run.
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
    stores: Vec<PageStore>,
    /// Shared zero-filled payload handed out for never-written pages —
    /// cloning it is a refcount bump, not a fresh allocation.
    zero_page: PageData,
    recovery: Box<dyn Recovery>,
    families: Vec<FamilyRuntime>,
    /// Family index per root transaction, dense by raw txn id (the tree
    /// mints ids sequentially; non-root slots stay at the sentinel).
    /// Written once per family attempt, read on every deferred grant.
    root_to_family: Vec<u32>,
    /// Last lock holder per object, indexed by dense object id.
    last_holder: Vec<NodeId>,
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
    /// when the sink is enabled *and* `config.state_sample_interval` is
    /// non-zero; samples are emitted inline by the run loop (never as
    /// scheduled sim events), so sampling cannot perturb the simulation.
    next_sample: SimTime,
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

/// Read-only placement view over the engine's live state.
struct EngineView<'b> {
    table: &'b LockTable,
    stores: &'b [PageStore],
    registry: &'b ObjectRegistry,
    last_holder: &'b [NodeId],
}

impl PlacementView for EngineView<'_> {
    fn local_version(&self, node: NodeId, object: ObjectId, page: PageIndex) -> Option<Version> {
        self.stores[node.index() as usize].version_of(PageId::new(object, page.get()))
    }

    fn global_version(&self, object: ObjectId, page: PageIndex) -> Version {
        self.table
            .entry(object)
            .expect("registered object")
            .page_map()
            .location(page)
            .version
    }

    fn page_owner(&self, object: ObjectId, page: PageIndex) -> NodeId {
        self.table
            .entry(object)
            .expect("registered object")
            .page_map()
            .location(page)
            .node
    }

    fn last_holder(&self, object: ObjectId) -> NodeId {
        self.last_holder[object.index() as usize]
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
        let mut table = LockTable::new();
        if config.lock_graph_validation {
            table.enable_graph_validation();
        }
        // One dense page numbering over the fixed object layout, shared by
        // every node's store: each store indexes it into an arena of the
        // pages that node caches.
        let atlas = std::sync::Arc::new(registry.page_atlas());
        let mut stores: Vec<PageStore> = (0..config.num_nodes)
            .map(|_| {
                PageStore::with_atlas(config.page_size as usize, std::sync::Arc::clone(&atlas))
            })
            .collect();
        let mut last_holder = Vec::with_capacity(registry.num_objects());
        for inst in registry.objects() {
            let num_pages = registry.num_pages(inst.id);
            table.register_object(inst.id, num_pages, inst.home);
            debug_assert_eq!(last_holder.len(), inst.id.index() as usize);
            last_holder.push(inst.home);
            // Materialize the initial (version 0, zero-filled) image at the
            // object's home so first transfers have a source.
            let home_store = &mut stores[inst.home.index() as usize];
            for p in 0..num_pages {
                home_store.ensure(PageId::new(inst.id, p));
            }
        }
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
            table,
            stores,
            zero_page: PageData::zeroed(config.page_size as usize),
            recovery,
            families,
            root_to_family: Vec::new(),
            last_holder,
            ledger: TrafficLedger::new(),
            trace: ScheduleTrace::new(),
            stats: RunStats::default(),
            committed: Vec::new(),
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

    /// Runs the simulation to completion and returns the report.
    ///
    /// # Errors
    ///
    /// Returns an error if the lock manager rejects an operation the
    /// workload should never produce (a workload/engine bug) or a family
    /// exhausts its restart budget.
    pub fn run(mut self) -> Result<RunReport, CoreError> {
        let sampling = self.sink.enabled() && self.config.state_sample_interval > SimDuration::ZERO;
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
        Ok(RunReport {
            protocol: self.config.protocol,
            stats: self.stats,
            trace: self.trace,
            traffic: ProtocolTraffic::new(self.ledger),
            committed: self.committed,
            final_chains,
            forensics: self.forensics,
        })
    }

    fn handle(&mut self, now: SimTime, event: Event) -> Result<(), CoreError> {
        match event {
            Event::Start(fam) => self.start_family(now, fam as usize),
            Event::Restart(fam, gen) => {
                let fam = fam as usize;
                if self.is_stale(fam, gen) {
                    return Ok(());
                }
                self.start_family(now, fam)
            }
            Event::GrantArrived(fam, gen) => {
                let fam = fam as usize;
                if self.is_stale(fam, gen) {
                    return Ok(());
                }
                self.on_grant_arrived(now, fam)
            }
            Event::FetchArrived(fam, gen) => {
                let fam = fam as usize;
                if !self.is_stale(fam, gen) {
                    self.begin_compute(now, fam);
                }
                Ok(())
            }
            Event::ComputeDone(fam, gen) | Event::Continue(fam, gen) => {
                let fam = fam as usize;
                if self.is_stale(fam, gen) {
                    return Ok(());
                }
                self.advance(now, fam)
            }
            Event::NodeCrash(window) => self.on_node_crash(now, window as usize),
            Event::NodeRecover(window) => {
                self.on_node_recover(now, window as usize);
                Ok(())
            }
            Event::LockTimeout(fam, gen) => self.on_lock_timeout(now, fam as usize, gen),
        }
    }

    /// The engine's one probe point: every event reaches the sink through
    /// here. `kind` builds the payload and runs only when the sink is
    /// recording, so with a [`NoopSink`] the whole call compiles away. It
    /// reads engine state through its argument, since it cannot borrow
    /// `self` while the gate holds it mutably.
    #[inline(always)]
    fn probe(&mut self, at: SimTime, node: u32, kind: impl FnOnce(&Self) -> ObsEventKind) {
        if self.sink.enabled() {
            let kind = kind(self);
            self.sink.emit(ObsEvent { at, node, kind });
        }
    }

    /// Probes one `LockGranted` event per request of each deferred grant.
    fn probe_grants(&mut self, at: SimTime, grants: &[Grant]) {
        for grant in grants {
            for req in &grant.requests {
                self.probe(at, req.node.index(), |_| ObsEventKind::LockGranted {
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
            self.probe(at, node.index(), |_| ObsEventKind::LockReleased {
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

    /// Emits any [`ObsEventKind::StateSample`] gauges whose sample times
    /// fall at or before `now` (the timestamp of the event about to be
    /// handled). Samples are pure probe output: they read engine state and
    /// write to the sink, never touching the event queue, so determinism
    /// of the simulation proper is untouched.
    fn emit_state_samples(&mut self, now: SimTime) {
        let interval = self.config.state_sample_interval;
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
            self.probe(at, 0, |e| ObsEventKind::StateSample {
                queue_depth: e.sim.pending() as u64,
                locks_held: occ.held,
                locks_retained: occ.retained,
                locks_waiting: occ.waiting,
                inflight_messages: inflight,
                blocked_families: blocked,
                cache_bytes: e.stores.iter().map(PageStore::cached_bytes).collect(),
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

    /// The current attempt generation of `fam`, stamped onto its timed
    /// events at scheduling time.
    fn generation(&self, fam: usize) -> u32 {
        self.families[fam].generation
    }

    // ---- message helpers -------------------------------------------------

    /// Charges a message and returns its transfer time; node-local
    /// "messages" are free and unrecorded.
    fn send(
        &mut self,
        kind: MessageKind,
        src: NodeId,
        dst: NodeId,
        object: ObjectId,
        bytes: u64,
    ) -> SimDuration {
        if src == dst {
            return SimDuration::ZERO;
        }
        self.ledger
            .record(&Message::new(kind, src, dst, object, bytes));
        self.config.network.transfer_time_for(kind, bytes)
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
    fn send_lossy(
        &mut self,
        kind: MessageKind,
        src: NodeId,
        dst: NodeId,
        object: ObjectId,
        bytes: u64,
        fam: Option<usize>,
    ) -> SimDuration {
        if src == dst {
            return SimDuration::ZERO;
        }
        let base = self.send(kind, src, dst, object, bytes);
        if !self.config.faults.plan.enabled() {
            return base;
        }
        let now = self.sim.now();
        let report = plan_delivery(
            &self.config.faults.plan,
            &mut self.fault_rng,
            dst,
            now,
            base,
        );
        for _ in 0..report.wasted_copies() {
            self.ledger
                .record(&Message::new(kind, src, dst, object, bytes));
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
            self.probe(now, src.index(), |_| ObsEventKind::Retransmit {
                dst: dst.index(),
                attempts: report.attempts,
                duplicates: report.duplicates,
                wait_ns: report.retransmit_wait.as_nanos(),
                family: fam.map(|f| f as u64),
            });
        }
        base + report.latency_penalty()
    }

    /// Propagates a directory-state mutation for `object` to its backup
    /// replicas (write-behind, so no latency is added to the mutating
    /// operation's critical path).
    fn replicate_gdo(&mut self, object: ObjectId, bytes: u64) {
        if self.config.gdo_replication <= 1 {
            return;
        }
        let home = self.config.gdo_home(object);
        for replica in self.config.gdo_replicas(object) {
            self.send(MessageKind::GdoReplicate, home, replica, object, bytes);
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
                self.probe(now, node, |_| ObsEventKind::PhaseEnter {
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
        self.families[fam].root_txn = Some(root);
        self.start_invocation(now, fam, Vec::new(), None)
    }

    fn start_invocation(
        &mut self,
        now: SimTime,
        fam: usize,
        ptr: Vec<usize>,
        parent: Option<TxnId>,
    ) -> Result<(), CoreError> {
        let spec = spec_at(&self.workload[fam], &ptr);
        let txn = match parent {
            None => self.families[fam].root_txn.expect("root txn minted"),
            Some(parent) => self.tree.begin_child(parent),
        };
        let frame = Frame {
            ptr,
            txn,
            object: spec.object,
            method: spec.method,
            path: spec.path,
            next_child: 0,
            num_children: spec.children.len(),
            abort: spec.abort,
        };
        self.probe(now, self.workload[fam].node.index(), |_| {
            ObsEventKind::SpanOpen {
                family: fam as u64,
                txn: txn.get(),
                parent: parent.map(|p| p.get()),
                object: frame.object.index(),
            }
        });
        self.families[fam].frames.push(frame);
        self.request_lock(now, fam)
    }

    fn request_lock(&mut self, now: SimTime, fam: usize) -> Result<(), CoreError> {
        let (txn, object, method) = {
            let top = self.families[fam].top();
            (top.txn, top.object, top.method)
        };
        let node = self.workload[fam].node;
        let mode = if self.registry.class_of(object).is_read_only(method) {
            LockMode::Read
        } else {
            LockMode::Write
        };
        self.prof.enter(HostRegion::LockAcquire);
        let outcome = self.table.acquire(object, txn, mode, &self.tree);
        match &outcome {
            Ok(Acquire::Queued) => {
                self.probe(now, node.index(), |e| ObsEventKind::LockQueued {
                    object: object.index(),
                    txn: txn.get(),
                    mode: obs_mode(mode),
                    waiters: e.table.entry(object).expect("just queued").num_waiting() as u32,
                });
                self.probe(now, node.index(), |e| {
                    let (holders, retainers, queued_behind) =
                        e.table.blockers(object, txn, mode, &e.tree);
                    ObsEventKind::LockBlocked {
                        object: object.index(),
                        txn: txn.get(),
                        holders: holders.into_iter().map(TxnId::get).collect(),
                        retainers: retainers.into_iter().map(TxnId::get).collect(),
                        queued_behind: queued_behind.into_iter().map(TxnId::get).collect(),
                    }
                });
            }
            Ok(grant) => {
                self.probe(now, node.index(), |e| ObsEventKind::LockGranted {
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
                let gen = self.generation(fam);
                self.schedule(now + delay, Event::GrantArrived(fam as u32, gen));
            }
            Acquire::GlobalGrant { holders } => {
                self.stats.global_lock_grants += 1;
                let home = self.config.gdo_home(object);
                let req_bytes = self.config.sizes.lock_request();
                let grant_bytes = self
                    .config
                    .sizes
                    .lock_grant(holders, self.registry.num_pages(object));
                let mut delay = self.send_lossy(
                    MessageKind::LockRequest,
                    node,
                    home,
                    object,
                    req_bytes,
                    Some(fam),
                ) + self.config.costs.gdo_processing
                    + self.send_lossy(
                        MessageKind::LockGrant,
                        home,
                        node,
                        object,
                        grant_bytes,
                        Some(fam),
                    );
                // A prefetched request has already been in flight since the
                // parent started computing; the elapsed time is absorbed.
                if self.config.lock_prefetch {
                    let ptr = self.families[fam].top().ptr.clone();
                    if let Some(issued) = self.families[fam].prefetch_at.remove(&ptr) {
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
                let gen = self.generation(fam);
                self.schedule(now + delay, Event::GrantArrived(fam as u32, gen));
                self.replicate_gdo(object, self.config.sizes.lock_request());
            }
            Acquire::Queued => {
                self.stats.queued_lock_requests += 1;
                let home = self.config.gdo_home(object);
                let req_bytes = self.config.sizes.lock_request();
                self.send_lossy(
                    MessageKind::LockRequest,
                    node,
                    home,
                    object,
                    req_bytes,
                    None,
                );
                self.set_phase(now, fam, Phase::WaitingGrant);
                // Fault injection: a queued request carries an RPC timeout;
                // if no grant arrives in time the waiter gives up and
                // re-issues (see `on_lock_timeout`).
                if self.config.faults.lock_timeout > SimDuration::ZERO {
                    let gen = self.generation(fam);
                    self.schedule(
                        now + self.config.faults.lock_timeout,
                        Event::LockTimeout(fam as u32, gen),
                    );
                }
                let root = self.families[fam]
                    .root_txn
                    .expect("queued family has a root");
                self.prof.enter(HostRegion::DeadlockGate);
                let gate = self.break_deadlocks(now, home, root);
                self.prof.exit(HostRegion::DeadlockGate);
                gate?;
            }
        }
        Ok(())
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
        let home = self.config.gdo_home(grant.object);
        let grant_bytes = self
            .config
            .sizes
            .lock_grant(grant.holders, self.registry.num_pages(grant.object));
        let delay = self.config.costs.gdo_processing
            + self.send_lossy(
                MessageKind::LockGrant,
                home,
                req.node,
                grant.object,
                grant_bytes,
                Some(fam),
            );
        self.set_phase(
            now,
            fam,
            Phase::GrantInFlight {
                global: true,
                holders: grant.holders,
            },
        );
        let gen = self.generation(fam);
        self.schedule(now + delay, Event::GrantArrived(fam as u32, gen));
        self.replicate_gdo(grant.object, self.config.sizes.lock_request());
    }

    fn on_grant_arrived(&mut self, now: SimTime, fam: usize) -> Result<(), CoreError> {
        let Phase::GrantInFlight { global, holders } = self.families[fam].phase else {
            panic!("grant arrived for family {fam} in wrong phase");
        };
        let (object, method, path) = {
            let top = self.families[fam].top();
            (top.object, top.method, top.path)
        };
        let node = self.workload[fam].node;
        let compiled = self.registry.class_of(object);
        let actual = compiled.path_access(method, path);
        // Borrow the access sets out of the compiled class; the only owned
        // copies made below are the ones the trace event keeps.
        let (actual_reads, actual_writes) = (actual.reads(), actual.writes());
        let class = self.registry.object(object).class;
        let kind = self.config.protocol_for(class);
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

        // Prefetch set per protocol (LOTEC consults the prediction; the
        // miss-rate ablation randomly degrades it). The per-class
        // extension can put each class under its own protocol.
        let prefetch: PageSet = if kind.uses_prediction() {
            if self.config.prediction_miss_rate > 0.0 {
                let rate = self.config.prediction_miss_rate;
                predicted
                    .iter()
                    .filter(|_| !self.miss_rng.chance(rate))
                    .collect()
            } else {
                predicted.clone()
            }
        } else {
            (0..self.registry.num_pages(object))
                .map(PageIndex::new)
                .collect()
        };

        // Plan against the *pre-grant* placement (last_holder still points
        // at the previous holder), then update placement bookkeeping.
        let plan = {
            let view = EngineView {
                table: &self.table,
                stores: &self.stores,
                registry: self.registry,
                last_holder: &self.last_holder,
            };
            plan_transfer(kind, &view, node, object, &prefetch)
        };
        self.probe(now, node.index(), |_| ObsEventKind::GrantPlan {
            family: fam as u64,
            object: object.index(),
            predicted: predicted.iter().map(|p| p.get()).collect(),
            actual_reads: actual_reads.iter().map(|p| p.get()).collect(),
            actual_writes: actual_writes.iter().map(|p| p.get()).collect(),
            planned_pages: plan.num_pages() as u32,
            sources: plan.num_sources() as u32,
        });
        if kind.uses_prediction() {
            self.probe(now, node.index(), |_| {
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
        self.last_holder[object.index() as usize] = node;
        self.table
            .entry_mut(object)
            .expect("registered object")
            .page_map_mut()
            .record_cached(node);

        // Charge and perform the gather (Alg. 4.5): one request/transfer
        // pair per source; batches travel in parallel, so the phase ends at
        // the slowest batch.
        let mut max_delay = SimDuration::ZERO;
        let mut to_install: Vec<(PageId, Version, PageData)> = Vec::new();
        self.prof.enter(HostRegion::PageTransfer);
        for (source, pages) in plan.sources() {
            // Adaptive mode coalesces runs of adjacent pages into ranged
            // request entries; request sizing only — transfers keep their
            // page framing, so `page_payload_bytes` stays exact.
            let req = if self.config.adaptive.enabled {
                self.config
                    .sizes
                    .coalesced_page_request(pages.len(), adjacent_run_count(pages))
            } else {
                self.config.sizes.page_request(pages.len())
            };
            let xfer = transfer_message_bytes(self.config, self.registry, object, pages);
            let d = self.send_lossy(
                MessageKind::PageRequest,
                node,
                source,
                object,
                req,
                Some(fam),
            ) + self.send_lossy(
                MessageKind::PageTransfer,
                source,
                node,
                object,
                xfer,
                Some(fam),
            );
            max_delay = max_delay.max(d);
            self.probe(now, node.index(), |_| ObsEventKind::GatherBatch {
                family: fam as u64,
                object: object.index(),
                source: source.index(),
                pages: pages.len() as u32,
                bytes: xfer,
                delay_ns: d.as_nanos(),
            });
            for &page in pages {
                to_install.push(self.current_page_copy(object, page));
            }
        }
        self.prof.exit(HostRegion::PageTransfer);
        self.prof.enter(HostRegion::PageInstall);
        for (pid, version, data) in to_install {
            self.stores[node.index() as usize].install(pid, version, data);
        }
        self.prof.exit(HostRegion::PageInstall);

        // Demand fetches: actually-touched pages still stale after the
        // gather. Without faults this is only possible when prediction was
        // degraded (LOTEC-family protocols); with fault injection on, a
        // crash can cold-start any node's cache and break the "last holder
        // still caches the object" shortcut the non-predictive protocols
        // plan around, so the safety net covers every protocol there.
        // Demand fetches happen serially during compute; account their
        // latency into the compute phase.
        let mut demand_delay = SimDuration::ZERO;
        if kind.uses_prediction() || self.config.faults.plan.enabled() {
            self.prof.enter(HostRegion::PageTransfer);
            let touched = actual_reads.union(actual_writes);
            let mut stale_fetches: Vec<(PageIndex, NodeId)> = Vec::new();
            for page in touched.iter() {
                let (stale, source) = {
                    let view = EngineView {
                        table: &self.table,
                        stores: &self.stores,
                        registry: self.registry,
                        last_holder: &self.last_holder,
                    };
                    let global = view.global_version(object, page);
                    let local = view
                        .local_version(node, object, page)
                        .unwrap_or(Version::INITIAL);
                    (global.is_newer_than(local), view.page_owner(object, page))
                };
                if stale {
                    debug_assert_ne!(source, node, "owner cannot be stale at itself");
                    stale_fetches.push((page, source));
                }
            }
            let mut demand_installs = Vec::new();
            if self.config.adaptive.enabled {
                // Batched repair: every misprediction discovered in this
                // compute phase is fetched with one coalesced round trip
                // per source; the batches travel in parallel, so the
                // compute phase stretches by the slowest source, not the
                // sum of serial per-page fetches.
                let mut by_source: Vec<(NodeId, Vec<PageIndex>)> = Vec::new();
                for &(page, source) in &stale_fetches {
                    match by_source.iter_mut().find(|(s, _)| *s == source) {
                        Some((_, pages)) => pages.push(page),
                        None => by_source.push((source, vec![page])),
                    }
                }
                for (source, pages) in by_source {
                    let req = self
                        .config
                        .sizes
                        .coalesced_page_request(pages.len(), adjacent_run_count(&pages));
                    let xfer = transfer_message_bytes(self.config, self.registry, object, &pages);
                    let d = self.send_lossy(
                        MessageKind::DemandPageRequest,
                        node,
                        source,
                        object,
                        req,
                        Some(fam),
                    ) + self.send_lossy(
                        MessageKind::DemandPageTransfer,
                        source,
                        node,
                        object,
                        xfer,
                        Some(fam),
                    );
                    demand_delay = demand_delay.max(d);
                    self.probe(now, node.index(), |_| ObsEventKind::DemandBatch {
                        family: fam as u64,
                        object: object.index(),
                        source: source.index(),
                        pages: pages.iter().map(|p| p.get()).collect(),
                        bytes: xfer,
                        delay_ns: d.as_nanos(),
                    });
                    for &page in &pages {
                        demand_installs.push(self.current_page_copy(object, page));
                        self.stats.demand_fetches += 1;
                    }
                }
            } else {
                // Serial per-page repair (the legacy path; byte-identical
                // message sequence to pre-adaptive builds).
                for &(page, source) in &stale_fetches {
                    let req = self.config.sizes.page_request(1);
                    let xfer = transfer_message_bytes(self.config, self.registry, object, &[page]);
                    self.probe(now, node.index(), |_| ObsEventKind::DemandFetch {
                        family: fam as u64,
                        object: object.index(),
                        page: page.get(),
                        source: source.index(),
                        bytes: xfer,
                    });
                    demand_delay = demand_delay
                        + self.send_lossy(
                            MessageKind::DemandPageRequest,
                            node,
                            source,
                            object,
                            req,
                            Some(fam),
                        )
                        + self.send_lossy(
                            MessageKind::DemandPageTransfer,
                            source,
                            node,
                            object,
                            xfer,
                            Some(fam),
                        );
                    demand_installs.push(self.current_page_copy(object, page));
                    self.stats.demand_fetches += 1;
                }
            }
            self.prof.exit(HostRegion::PageTransfer);
            self.prof.enter(HostRegion::PageInstall);
            for (pid, version, data) in demand_installs {
                self.stores[node.index() as usize].install(pid, version, data);
            }
            self.prof.exit(HostRegion::PageInstall);
        }
        self.families[fam].fetch_extra = demand_delay;

        if max_delay == SimDuration::ZERO {
            self.begin_compute(now, fam);
        } else {
            self.set_phase(now, fam, Phase::Fetching);
            let gen = self.generation(fam);
            self.schedule(now + max_delay, Event::FetchArrived(fam as u32, gen));
        }
        Ok(())
    }

    /// Copy-on-write handle to the newest committed version of a page,
    /// taken from its owner's store (the shared zero page if it was never
    /// written anywhere). A refcount bump, not a byte copy.
    fn current_page_copy(&self, object: ObjectId, page: PageIndex) -> (PageId, Version, PageData) {
        let loc = self
            .table
            .entry(object)
            .expect("registered object")
            .page_map()
            .location(page);
        let pid = PageId::new(object, page.get());
        match self.stores[loc.node.index() as usize].get(pid) {
            Some(p) => {
                debug_assert_eq!(
                    p.version(),
                    loc.version,
                    "owner copy of {pid} out of sync with the page map"
                );
                (pid, p.version(), p.payload())
            }
            None => {
                debug_assert_eq!(
                    loc.version,
                    Version::INITIAL,
                    "missing non-initial page {pid}"
                );
                (pid, Version::INITIAL, self.zero_page.clone())
            }
        }
    }

    fn begin_compute(&mut self, now: SimTime, fam: usize) {
        let (txn, object, method, path) = {
            let top = self.families[fam].top();
            (top.txn, top.object, top.method, top.path)
        };
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
            let (ptr, num_children) = {
                let top = self.families[fam].top();
                (top.ptr.clone(), top.num_children)
            };
            for idx in 0..num_children {
                let mut child_ptr = ptr.clone();
                child_ptr.push(idx);
                self.families[fam]
                    .prefetch_at
                    .entry(child_ptr)
                    .or_insert(now);
            }
        }

        let touched = reads.union(writes).len() as u64;
        let duration = self.config.costs.invocation_base
            + self.config.costs.per_page_access * touched
            + self.families[fam].fetch_extra;
        self.families[fam].fetch_extra = SimDuration::ZERO;
        self.set_phase(now, fam, Phase::Computing);
        let gen = self.generation(fam);
        self.schedule(now + duration, Event::ComputeDone(fam as u32, gen));
    }

    /// After compute or after a child finished: start the next child or
    /// finish the current invocation.
    fn advance(&mut self, now: SimTime, fam: usize) -> Result<(), CoreError> {
        let (next_child, num_children, txn) = {
            let top = self.families[fam].top();
            (top.next_child, top.num_children, top.txn)
        };
        if next_child < num_children {
            let top = self.families[fam].top_mut();
            top.next_child += 1;
            let mut child_ptr = top.ptr.clone();
            child_ptr.push(next_child);
            return self.start_invocation(now, fam, child_ptr, Some(txn));
        }
        self.finish_invocation(now, fam)
    }

    fn finish_invocation(&mut self, now: SimTime, fam: usize) -> Result<(), CoreError> {
        let (txn, abort) = {
            let top = self.families[fam].top();
            (top.txn, top.abort)
        };
        let is_root = self.families[fam].frames.len() == 1;
        let node = self.workload[fam].node;

        if abort {
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
            let undo_delay = self.config.costs.undo_per_page * restored.len() as u64;
            self.prof.enter(HostRegion::LockRelease);
            let rel = self.table.release_abort(txn, &self.tree);
            self.probe_released(now, node, txn, ReleaseCause::Abort, &rel.released);
            self.probe_grants(now, &rel.grants);
            self.prof.exit(HostRegion::LockRelease);
            self.tree.abort(txn);
            self.families[fam].discard_subtree_effects(&subtree);
            self.stats.subtxn_aborts += 1;
            self.probe(now, node.index(), |_| ObsEventKind::SubAbort {
                family: fam as u64,
                txn: txn.get(),
                released: rel.released.len() as u32,
            });
            self.probe(now, node.index(), |_| ObsEventKind::SpanClose {
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
                for object in &rel.released {
                    let home = self.config.gdo_home(*object);
                    let bytes = self.config.sizes.lock_release(0);
                    self.send_lossy(MessageKind::LockRelease, node, home, *object, bytes, None);
                    self.replicate_gdo(*object, bytes);
                }
            }
            for grant in &rel.grants {
                self.deliver_grant(now, grant);
            }
            self.families[fam].frames.pop();
            let gen = self.generation(fam);
            self.schedule(
                now + undo_delay + self.config.costs.local_lock_op,
                Event::Continue(fam as u32, gen),
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
        let pre = self.table.release_pre_commit(txn, &self.tree);
        for object in &pre.inherited {
            self.probe(now, node.index(), |_| ObsEventKind::LockRetained {
                object: object.index(),
                txn: txn.get(),
                parent: parent.get(),
            });
        }
        self.prof.exit(HostRegion::LockRelease);
        self.probe(now, node.index(), |_| ObsEventKind::SpanClose {
            family: fam as u64,
            txn: txn.get(),
            outcome: SpanOutcome::PreCommit,
        });
        self.recovery.inherit(txn.get(), parent.get());
        self.tree.pre_commit(txn);
        self.families[fam].frames.pop();
        let gen = self.generation(fam);
        self.schedule(
            now + self.config.costs.local_lock_op,
            Event::Continue(fam as u32, gen),
        );
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
        let (object, method, path) = {
            let top = self.families[fam].top();
            (top.object, top.method, top.path)
        };
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
            self.probe(now, self.workload[fam].node.index(), |e| {
                let profile = e
                    .predictor
                    .as_ref()
                    .expect("checked above")
                    .profile(class, method);
                ObsEventKind::ProfileUpdate {
                    class: class.index(),
                    method: method.index(),
                    expanded: delta.expanded.iter().map(|p| p.get()).collect(),
                    shrunk: delta.shrunk.iter().map(|p| p.get()).collect(),
                    predicted: profile.predicted().len() as u32,
                    observations: profile.observations(),
                }
            });
        }
    }

    fn commit_root(&mut self, now: SimTime, fam: usize) -> Result<(), CoreError> {
        let root = self.families[fam].root_txn.expect("root txn exists");
        let node = self.workload[fam].node;
        let dirty = self.families[fam].surviving_dirty();

        self.prof.enter(HostRegion::LockRelease);
        let rel = self
            .table
            .release_root_commit(root, &self.tree, &dirty, node);
        self.probe_released(now, node, root, ReleaseCause::RootCommit, &rel.released);
        self.probe_grants(now, &rel.grants);
        self.prof.exit(HostRegion::LockRelease);

        // Publish local pages at their new per-page versions.
        for (object, pages) in &dirty {
            for &page in pages {
                let v = self
                    .table
                    .entry(*object)
                    .expect("registered")
                    .page_map()
                    .location(page)
                    .version;
                self.stores[node.index() as usize]
                    .publish_page(PageId::new(*object, page.get()), v);
            }
        }

        // Release messages: dirty info piggybacked per object (Alg. 4.4).
        for object in &rel.released {
            let home = self.config.gdo_home(*object);
            let n_dirty = dirty
                .iter()
                .find(|(o, _)| o == object)
                .map_or(0, |(_, p)| p.len());
            let bytes = self.config.sizes.lock_release(n_dirty);
            self.send_lossy(MessageKind::LockRelease, node, home, *object, bytes, None);
            self.replicate_gdo(*object, bytes);
        }

        // RC extension: eagerly push updates to every other caching site
        // (per-class: only for objects whose class runs RC).
        {
            for (object, pages) in &dirty {
                if !self
                    .config
                    .protocol_for(self.registry.object(*object).class)
                    .pushes_on_commit()
                {
                    continue;
                }
                let sites: Vec<NodeId> = self
                    .table
                    .entry(*object)
                    .expect("registered")
                    .page_map()
                    .caching_sites()
                    .filter(|&s| s != node)
                    .collect();
                let copies: Vec<(PageId, Version, PageData)> = pages
                    .iter()
                    .map(|&p| self.current_page_copy(*object, p))
                    .collect();
                let bytes = transfer_message_bytes(self.config, self.registry, *object, pages);
                // On a multicast network one transmission reaches every
                // caching site; otherwise each site costs a unicast push.
                if self.config.multicast {
                    if let Some(&first) = sites.first() {
                        self.send_lossy(MessageKind::UpdatePush, node, first, *object, bytes, None);
                    }
                } else {
                    for &site in &sites {
                        self.send_lossy(MessageKind::UpdatePush, node, site, *object, bytes, None);
                    }
                }
                self.prof.enter(HostRegion::PageInstall);
                for site in sites {
                    for (pid, version, data) in &copies {
                        self.stores[site.index() as usize].install(*pid, *version, data.clone());
                    }
                }
                self.prof.exit(HostRegion::PageInstall);
            }
        }

        self.recovery.forget(root.get());
        self.tree.commit_root(root);
        self.trace.push(TraceEvent::RootCommit {
            at: now,
            family: root.get(),
            node,
            dirty,
            released: rel.released.clone(),
        });
        for grant in &rel.grants {
            self.deliver_grant(now, grant);
        }

        self.probe(now, node.index(), |_| ObsEventKind::SpanClose {
            family: fam as u64,
            txn: root.get(),
            outcome: SpanOutcome::Commit,
        });
        self.set_phase(now, fam, Phase::Done);
        let runtime = &mut self.families[fam];
        runtime.frames.clear();
        self.stats.committed_families += 1;
        let latency = now.duration_since(runtime.arrival);
        runtime.commit_latency = Some(latency);
        self.stats.total_latency += latency;
        self.stats.latency_histogram.record(latency.as_nanos());
        self.stats.latency_sketch.record(latency.as_nanos());
        self.stats.makespan = self.stats.makespan.max(now.duration_since(SimTime::ZERO));
        let ops = std::mem::take(&mut runtime.ops);
        let index = runtime.index;
        self.committed.push(CommittedFamily {
            family: root.get(),
            index,
            ops: ops.into_iter().map(|o| o.op).collect(),
        });
        Ok(())
    }

    // ---- forensics ---------------------------------------------------

    /// Snapshots the black box at an anomaly: the flight-recorder ring,
    /// live lock-table occupancy, the waits-for edges (the incremental
    /// graph, cross-checked here against a from-scratch
    /// [`lotec_txn::deadlock::reference`] rebuild — a forensics dump must
    /// be evidence, not a hypothesis), and per-family span state.
    ///
    /// A no-op when the sink carries no [`FlightRecorder`] or the run
    /// already captured [`MAX_FORENSICS_DUMPS`] dumps. Read-only over the
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
        let incremental = self.table.waits_for().to_reference();
        let reference = lotec_txn::deadlock::reference::waits_for(&self.table, &self.tree);
        assert_eq!(
            incremental, reference,
            "incremental waits-for graph diverged from the reference rebuild at forensics capture"
        );
        let waits_for: Vec<(u64, Vec<u64>)> = reference
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
    /// detector is skipped entirely; otherwise the first search walks
    /// only the nodes that can reach `enqueued`
    /// ([`lotec_txn::find_deadlock_cycle_through`]). Once a victim
    /// has been aborted the regrants invalidate that reasoning, so
    /// subsequent loop iterations run the full detector.
    fn break_deadlocks(
        &mut self,
        now: SimTime,
        detector: NodeId,
        enqueued: TxnId,
    ) -> Result<(), CoreError> {
        if !lotec_txn::may_deadlock_through(&self.table, &self.tree, enqueued) {
            return Ok(());
        }
        let mut scoped = true;
        loop {
            let found = if scoped {
                lotec_txn::find_deadlock_cycle_through(&self.table, &self.tree, enqueued)
            } else {
                lotec_txn::find_deadlock_cycle(&self.table, &self.tree)
            };
            scoped = false;
            let Some(cycle) = found else {
                return Ok(());
            };
            let victim_root = lotec_txn::pick_victim(&cycle);
            self.probe(now, detector.index(), |_| ObsEventKind::Deadlock {
                cycle: cycle.iter().map(|t| t.get()).collect(),
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
        for txn in self.tree.active_subtree_post_order(root) {
            self.recovery
                .rollback(txn.get(), &mut self.stores[node.index() as usize]);
            self.prof.enter(HostRegion::LockRelease);
            let rel = self.table.release_abort(txn, &self.tree);
            self.probe_released(now, node, txn, ReleaseCause::Abort, &rel.released);
            self.probe_grants(now, &rel.grants);
            self.prof.exit(HostRegion::LockRelease);
            released.extend(rel.released);
            grants.extend(rel.grants);
            self.tree.abort(txn);
            self.probe(now, node.index(), |_| ObsEventKind::SpanClose {
                family: fam as u64,
                txn: txn.get(),
                outcome: if node_alive {
                    SpanOutcome::Abort
                } else {
                    SpanOutcome::CrashAbort
                },
            });
        }
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
        for object in &released {
            let home = self.config.gdo_home(*object);
            let bytes = self.config.sizes.lock_release(0);
            if node_alive {
                self.send_lossy(MessageKind::LockRelease, node, home, *object, bytes, None);
            }
            self.replicate_gdo(*object, bytes);
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
            self.probe(now, node.index(), |_| ObsEventKind::Restart {
                family: fam as u64,
                attempt: restarts,
                backoff_ns: backoff.as_nanos(),
            });
            // Scheduled after `reset_for_restart`, so the event carries the
            // *new* generation and survives the staleness check.
            let gen = self.generation(fam);
            self.schedule(now + backoff, Event::Restart(fam as u32, gen));
        } else {
            self.stats.aborted_families += 1;
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
        let (txn, object) = {
            let top = self.families[fam].top();
            (top.txn, top.object)
        };
        let waited = now.saturating_duration_since(self.families[fam].phase_entered);
        self.prof.enter(HostRegion::LockRelease);
        let touched = self.table.cancel_family_waiters(root, &self.tree);
        debug_assert_eq!(touched, vec![object], "family waits on its top object");
        let grants = self.table.regrant(&touched, &self.tree);
        self.probe_grants(now, &grants);
        self.prof.exit(HostRegion::LockRelease);
        self.stats.lock_timeouts += 1;
        self.probe(now, self.workload[fam].node.index(), |_| {
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
        // disjoint.
        let registry = self.registry;
        let config = self.config;
        let mut repairs: Vec<(ObjectId, PageIndex, NodeId)> = Vec::new();
        for inst in registry.objects() {
            let entry = self.table.entry(inst.id).expect("registered");
            for (page, loc) in entry.page_map().entries() {
                if loc.node != node {
                    continue;
                }
                let pid = PageId::new(inst.id, page.get());
                let survivor = (0..config.num_nodes).map(NodeId::new).find(|&s| {
                    s != node
                        && !config.faults.plan.is_down(s, now)
                        && self.stores[s.index() as usize].version_of(pid) == Some(loc.version)
                });
                if let Some(s) = survivor {
                    repairs.push((inst.id, page, s));
                }
            }
        }
        for &(object, page, survivor) in &repairs {
            self.table
                .entry_mut(object)
                .expect("registered")
                .page_map_mut()
                .reassign_owner(page, survivor);
            self.probe(now, node.index(), |_| ObsEventKind::PageMapRepaired {
                object: object.index(),
                page: page.get(),
                from: node.index(),
                to: survivor.index(),
            });
        }

        // Cold caches: evict every page the node no longer owns and fix
        // the caching-site sets.
        for inst in registry.objects() {
            let mut still_owner = false;
            for p in 0..registry.num_pages(inst.id) {
                let owner = self
                    .table
                    .entry(inst.id)
                    .expect("registered")
                    .page_map()
                    .location(PageIndex::new(p))
                    .node;
                if owner == node {
                    still_owner = true;
                } else {
                    self.stores[node.index() as usize].evict(PageId::new(inst.id, p));
                }
            }
            let map = self
                .table
                .entry_mut(inst.id)
                .expect("registered")
                .page_map_mut();
            map.forget_caching_site(node);
            if still_owner {
                // Stable storage still holds pages the directory could not
                // repoint; the node stays a (consistent) caching site.
                map.record_cached(node);
            }
        }

        self.probe(now, node.index(), |_| ObsEventKind::NodeCrashed {
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
        self.probe(w.until, w.node.index(), |_| ObsEventKind::NodeRecovered {
            outage_ns: w.until.duration_since(w.at).as_nanos(),
        });
    }

    // ---- reporting ----------------------------------------------------

    fn collect_final_chains(&self) -> BTreeMap<(ObjectId, PageIndex), u64> {
        // Objects ascend and pages ascend within each, so the pairs arrive
        // in key order and `collect` bulk-builds the map in one pass.
        self.registry
            .objects()
            .flat_map(|inst| {
                let entry = self.table.entry(inst.id).expect("registered");
                entry.page_map().entries().map(move |(page, loc)| {
                    let store = &self.stores[loc.node.index() as usize];
                    (
                        (inst.id, page),
                        store.chain(PageId::new(inst.id, page.get())),
                    )
                })
            })
            .collect()
    }
}

/// Convenience wrapper: build and run an engine in one call.
///
/// ```
/// use lotec_core::engine::run_engine;
/// use lotec_core::spec::demo_workload;
/// use lotec_core::{oracle, SystemConfig};
///
/// let config = SystemConfig::default();
/// let (registry, families) = demo_workload(&config, 7);
/// let report = run_engine(&config, &registry, &families)?;
/// oracle::verify(&report)?;
/// assert_eq!(report.stats.committed_families as usize, families.len());
/// # Ok::<(), lotec_core::CoreError>(())
/// ```
///
/// # Errors
///
/// See [`Engine::new`] and [`Engine::run`].
pub fn run_engine(
    config: &SystemConfig,
    registry: &ObjectRegistry,
    workload: &[FamilySpec],
) -> Result<RunReport, CoreError> {
    Engine::new(config, registry, workload)?.run()
}

/// Like [`run_engine`], but with an always-on black box: the run records
/// into a [`FlightRecorder`] ring sized by
/// [`SystemConfig::flight_recorder`], and any anomaly (deadlock-victim
/// selection, lock timeout, crash repair) snapshots it into
/// [`RunReport::forensics`]. Returns the recorder alongside the report so
/// callers can also dump post-run anomalies (e.g. an oracle violation)
/// from the same ring.
///
/// ```
/// use lotec_core::engine::run_engine_recorded;
/// use lotec_core::spec::demo_workload;
/// use lotec_core::SystemConfig;
///
/// let config = SystemConfig::default().with_flight_recorder(512);
/// let (registry, families) = demo_workload(&config, 7);
/// let (report, recorder) = run_engine_recorded(&config, &registry, &families)?;
/// assert_eq!(report.stats.committed_families as usize, families.len());
/// assert!(recorder.recorded() > 0, "a run emits events");
/// # Ok::<(), lotec_core::CoreError>(())
/// ```
///
/// # Errors
///
/// See [`Engine::new`] and [`Engine::run`].
pub fn run_engine_recorded(
    config: &SystemConfig,
    registry: &ObjectRegistry,
    workload: &[FamilySpec],
) -> Result<(RunReport, FlightRecorder), CoreError> {
    let mut recorder = FlightRecorder::new(config.flight_recorder.slots as usize);
    let report = Engine::with_probe(config, registry, workload, &mut recorder)?.run()?;
    Ok((report, recorder))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle;
    use crate::spec::demo_workload;

    fn run_demo(protocol: ProtocolKind, seed: u64) -> RunReport {
        let config = SystemConfig {
            protocol,
            seed,
            ..SystemConfig::default()
        };
        let (registry, families) = demo_workload(&config, seed);
        run_engine(&config, &registry, &families).expect("demo runs")
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
            let report = run_engine(&config, &registry, &families).unwrap();
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
        let report = run_engine(&config, &registry, &families).unwrap();
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
        let report = run_engine(&config, &registry, &families).unwrap();
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
        let report = run_engine(&config, &registry, &families).unwrap();
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
        let a = run_engine(&explicit, &registry, &families).unwrap();
        let b = run_engine(&implicit, &registry, &families).unwrap();
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
        let plain = run_engine(&base, &registry, &families).unwrap();
        let pre_cfg = SystemConfig {
            lock_prefetch: true,
            ..base
        };
        let prefetched = run_engine(&pre_cfg, &registry, &families).unwrap();

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
        let uni = run_engine(&unicast, &registry, &families).unwrap();
        let multicast_cfg = SystemConfig {
            multicast: true,
            ..unicast.clone()
        };
        let multi = run_engine(&multicast_cfg, &registry, &families).unwrap();
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
        let page_run = run_engine(&page_cfg, &registry, &families).unwrap();
        let dsd_cfg = SystemConfig {
            dsd_transfers: true,
            ..page_cfg
        };
        let dsd_run = run_engine(&dsd_cfg, &registry, &families).unwrap();
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
        let part = run_engine(&part_cfg, &registry, &families).unwrap();
        let central_cfg = SystemConfig {
            gdo_placement: GdoPlacement::Central(NodeId::new(0)),
            ..part_cfg
        };
        let central = run_engine(&central_cfg, &registry, &families).unwrap();
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
        let unreplicated = run_engine(&plain, &registry, &families).unwrap();
        let repl_cfg = SystemConfig {
            gdo_replication: 3,
            ..plain
        };
        let replicated = run_engine(&repl_cfg, &registry, &families).unwrap();
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
        let plain = run_engine(&config, &registry, &families).unwrap();
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
    fn per_family_phases_off_drops_rows_and_nothing_else() {
        let base = SystemConfig {
            seed: 7,
            ..SystemConfig::default()
        };
        let (registry, families) = demo_workload(&base, 7);
        let with_rows = run_engine(&base, &registry, &families).unwrap();
        let flat_cfg = SystemConfig {
            per_family_phases: false,
            ..base
        };
        let flat = run_engine(&flat_cfg, &registry, &families).unwrap();

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
            let report = run_engine(&config, &registry, &families).unwrap();
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
            run_engine(&config, &registry, &families).unwrap()
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
        let report = run_engine(&config, &registry, &families).unwrap();
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
        let plain = run_engine(&base, &registry, &families).unwrap();
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
            let report = run_engine(&config, &registry, &families).unwrap();
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
        let report = run_engine(&config, &registry, &families).unwrap();
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
