//! Structured, sim-time-stamped observability events, and their one wire
//! schema.
//!
//! Events deliberately carry *primitive* identifiers (`u64` transaction
//! ids, `u32` node/object indices, `u16` page indices) rather than the
//! newtypes from the `txn`/`mem` crates: the probe layer sits *below*
//! `txn` and `core` in the dependency graph, so it cannot name their
//! types without a cycle. The engine emits every event — lock and
//! deadlock events included, built from the outcomes the lock table
//! returns — and unwraps its ids (`TxnId::get()`, `ObjectId::index()`, …)
//! as it does: a one-way, lossless projection.
//!
//! Each kind's wire schema — field names, order and types — is written
//! once, as the walk pair [`ObsEventKind::write_fields`] /
//! [`ObsEventKind::read_fields`] over a [`FieldSink`] / [`FieldSource`].
//! JSONL export and the flight recorder's fixed-width slots are each one
//! sink/source pair over these walks.
//!
//! An event holds its list fields in one of two [`Lists`] forms. A probe
//! site lends [`Borrowed`] slices of buffers it owns to
//! [`EventSink::emit`](crate::EventSink::emit), so emitting allocates
//! nothing; decoding, JSONL import and buffering sinks keep [`Owned`]
//! vectors, the default form `ObsEvent` and `ObsEventKind` name.

use std::fmt;
use std::marker::PhantomData;

use lotec_sim::SimTime;

/// A field-less enum on the probe wire. JSONL carries its
/// [`name`](WireEnum::name); a flight-recorder slot carries its
/// [`index`](WireEnum::index) in [`ALL`](WireEnum::ALL).
pub trait WireEnum: Copy + PartialEq + 'static {
    /// Every variant, in declaration order.
    const ALL: &'static [Self];

    /// Stable wire name.
    fn name(self) -> &'static str;

    /// The variant's position in [`ALL`](WireEnum::ALL): its declaration
    /// index.
    fn index(self) -> usize;
}

/// Lock mode as seen by the probe layer (mirrors `lotec_txn::LockMode`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ObsLockMode {
    /// Shared read lock.
    Read,
    /// Exclusive write lock.
    Write,
}

impl WireEnum for ObsLockMode {
    const ALL: &'static [Self] = &[ObsLockMode::Read, ObsLockMode::Write];

    fn name(self) -> &'static str {
        match self {
            ObsLockMode::Read => "read",
            ObsLockMode::Write => "write",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// Why a lock left a holder's possession.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReleaseCause {
    /// Root commit: the family finished and the lock is free for others.
    RootCommit,
    /// Abort: the holder (sub)transaction rolled back.
    Abort,
}

impl WireEnum for ReleaseCause {
    const ALL: &'static [Self] = &[ReleaseCause::RootCommit, ReleaseCause::Abort];

    fn name(self) -> &'static str {
        match self {
            ReleaseCause::RootCommit => "root_commit",
            ReleaseCause::Abort => "abort",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// How a [sub-]transaction span ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanOutcome {
    /// Sub-transaction pre-committed; its parent inherited its locks
    /// (Algorithm 4.3, rule 3).
    PreCommit,
    /// Root commit: the family finished.
    Commit,
    /// The transaction aborted (sub-transaction fault, deadlock victim,
    /// programmed root fault, …).
    Abort,
    /// The transaction was aborted because its executing node crashed.
    CrashAbort,
}

impl WireEnum for SpanOutcome {
    const ALL: &'static [Self] = &[
        SpanOutcome::PreCommit,
        SpanOutcome::Commit,
        SpanOutcome::Abort,
        SpanOutcome::CrashAbort,
    ];

    fn name(self) -> &'static str {
        match self {
            SpanOutcome::PreCommit => "pre_commit",
            SpanOutcome::Commit => "commit",
            SpanOutcome::Abort => "abort",
            SpanOutcome::CrashAbort => "crash_abort",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// Coarse family phase, the unit of the latency breakdown and of the
/// Perfetto slices (one slice per contiguous stay in a phase).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ObsPhase {
    /// Waiting for a lock grant (queued at the GDO or grant in flight).
    LockWait,
    /// Waiting for page transfers (planned gather or demand fetches).
    TransferWait,
    /// Executing method bodies (compute).
    Running,
    /// Backing off before a restart after a family abort.
    Backoff,
    /// Root committed (terminal).
    Committed,
    /// Permanently failed after exhausting restarts (terminal).
    Failed,
}

impl WireEnum for ObsPhase {
    const ALL: &'static [Self] = &[
        ObsPhase::LockWait,
        ObsPhase::TransferWait,
        ObsPhase::Running,
        ObsPhase::Backoff,
        ObsPhase::Committed,
        ObsPhase::Failed,
    ];

    /// Stable wire name (also the Perfetto slice name).
    fn name(self) -> &'static str {
        match self {
            ObsPhase::LockWait => "lock_wait",
            ObsPhase::TransferWait => "transfer_wait",
            ObsPhase::Running => "running",
            ObsPhase::Backoff => "backoff",
            ObsPhase::Committed => "committed",
            ObsPhase::Failed => "failed",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

impl ObsPhase {
    /// True for phases a family never leaves.
    pub const fn is_terminal(self) -> bool {
        matches!(self, ObsPhase::Committed | ObsPhase::Failed)
    }
}

/// Receives an event kind's fields from [`ObsEventKind::write_fields`],
/// in declaration order. Keys are the JSONL field names.
pub trait FieldSink {
    /// An integer field (`u16`, `u32` or `u64`).
    fn uint(&mut self, key: &'static str, value: u64);
    /// A bool field.
    fn flag(&mut self, key: &'static str, value: bool);
    /// A wire-enum field.
    fn wire<T: WireEnum>(&mut self, key: &'static str, value: T);
    /// An optional `u64` field.
    fn opt(&mut self, key: &'static str, value: Option<u64>);
    /// A list of `u64` values (transaction ids, byte counts).
    fn u64s(&mut self, key: &'static str, values: &[u64]);
    /// A list of `u16` page indices.
    fn pages(&mut self, key: &'static str, values: &[u16]);
}

/// Supplies an event kind's fields to [`ObsEventKind::read_fields`], in
/// the order [`FieldSink`] received them.
pub trait FieldSource {
    /// Why a field could not be read.
    type Error;

    /// An integer field `bits` wide (16, 32 or 64). The value returned
    /// fits in `bits`; a source that cannot guarantee it errors, naming
    /// the key.
    fn uint(&mut self, key: &'static str, bits: u32) -> Result<u64, Self::Error>;
    /// A bool field.
    fn flag(&mut self, key: &'static str) -> Result<bool, Self::Error>;
    /// A wire-enum field.
    fn wire<T: WireEnum>(&mut self, key: &'static str) -> Result<T, Self::Error>;
    /// An optional `u64` field.
    fn opt(&mut self, key: &'static str) -> Result<Option<u64>, Self::Error>;
    /// A list of `u64` values.
    fn u64s(&mut self, key: &'static str) -> Result<Vec<u64>, Self::Error>;
    /// A list of `u16` page indices.
    fn pages(&mut self, key: &'static str) -> Result<Vec<u16>, Self::Error>;

    /// A `u64` field.
    fn u64(&mut self, key: &'static str) -> Result<u64, Self::Error> {
        self.uint(key, 64)
    }

    /// A `u32` field.
    fn u32(&mut self, key: &'static str) -> Result<u32, Self::Error> {
        self.uint(key, 32).map(|v| v as u32)
    }

    /// A `u16` field.
    fn u16(&mut self, key: &'static str) -> Result<u16, Self::Error> {
        self.uint(key, 16).map(|v| v as u16)
    }
}

/// How an event holds its list fields: see the [module docs](self).
pub trait Lists {
    /// A list of `u64` values (transaction ids, byte counts).
    type U64s: AsRef<[u64]> + fmt::Debug + Clone + PartialEq;
    /// A list of `u16` page indices.
    type Pages: AsRef<[u16]> + fmt::Debug + Clone + PartialEq;
}

/// Lists in vectors: the form decoding and buffering produce, and the
/// default one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Owned {}

impl Lists for Owned {
    type U64s = Vec<u64>;
    type Pages = Vec<u16>;
}

/// Lists borrowed from the emitter's buffers: the form a sink receives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Borrowed<'a>(PhantomData<&'a ()>);

impl<'a> Lists for Borrowed<'a> {
    type U64s = &'a [u64];
    type Pages = &'a [u16];
}

/// What happened. See module docs for the id conventions and the list
/// forms. Each kind's [`tag`](ObsEventKind::tag) is its declaration index.
#[derive(Debug, Clone, PartialEq)]
pub enum ObsEventKind<L: Lists = Owned> {
    /// A lock request had to queue behind conflicting holders at the GDO.
    LockQueued {
        /// Object index.
        object: u32,
        /// Requesting (sub)transaction id.
        txn: u64,
        /// Requested mode.
        mode: ObsLockMode,
        /// Queue depth *including* this request.
        waiters: u32,
    },
    /// A lock was granted (immediately or after queuing).
    LockGranted {
        /// Object index.
        object: u32,
        /// Grantee (sub)transaction id.
        txn: u64,
        /// Granted mode.
        mode: ObsLockMode,
        /// False when the grant was served locally from a retainer
        /// (Algorithm 4.2), true when the GDO had to be consulted.
        global: bool,
        /// Number of page-holding sites named in the grant.
        holders: u32,
    },
    /// A pre-committing subtransaction's lock was inherited by its parent
    /// (lock retention, Algorithm 4.3).
    LockRetained {
        /// Object index.
        object: u32,
        /// The pre-committed child that held the lock.
        txn: u64,
        /// The parent that now retains it.
        parent: u64,
    },
    /// Waits-for provenance for a queued request: who exactly blocked it.
    /// The engine emits it right after `LockQueued`, from
    /// `LockTable::blockers` — the lock table's holder, retainer and queue
    /// state at queue time.
    LockBlocked {
        /// Object index.
        object: u32,
        /// The blocked (sub)transaction id.
        txn: u64,
        /// Transactions holding the lock in a conflicting mode.
        holders: L::U64s,
        /// Foreign retainers blocking the request (retained locks of
        /// non-ancestors, Algorithm 4.1 rule 1).
        retainers: L::U64s,
        /// Root transactions of families queued ahead (FIFO fairness).
        queued_behind: L::U64s,
    },
    /// A lock left the table for good.
    LockReleased {
        /// Object index.
        object: u32,
        /// The releasing (sub)transaction id.
        txn: u64,
        /// Why it was released.
        cause: ReleaseCause,
    },
    /// The GDO detected a waits-for cycle and chose a victim.
    Deadlock {
        /// Root transaction ids forming the cycle, in detection order.
        cycle: L::U64s,
        /// The victim root (youngest in the cycle).
        victim: u64,
    },
    /// A [sub-]transaction started: a span opened. Parent links mirror the
    /// O2PL transaction tree, so replaying `SpanOpen`/`SpanClose` events
    /// reconstructs the nesting structure exactly.
    SpanOpen {
        /// Family index (workload order).
        family: u64,
        /// The transaction executing this invocation.
        txn: u64,
        /// Parent transaction; `None` for the family root.
        parent: Option<u64>,
        /// Receiver object of the invocation.
        object: u32,
    },
    /// A [sub-]transaction ended: its span closed.
    SpanClose {
        /// Family index.
        family: u64,
        /// The transaction whose span closes.
        txn: u64,
        /// How it ended.
        outcome: SpanOutcome,
    },
    /// A family entered a new phase.
    PhaseEnter {
        /// Family index (workload order).
        family: u64,
        /// The phase being entered.
        phase: ObsPhase,
    },
    /// A subtransaction aborted without killing its family.
    SubAbort {
        /// Family index.
        family: u64,
        /// The aborting subtransaction.
        txn: u64,
        /// Locks it freed at the GDO.
        released: u32,
    },
    /// A family-level abort scheduled a restart.
    Restart {
        /// Family index.
        family: u64,
        /// Restart attempt number (1 = first retry).
        attempt: u32,
        /// Backoff delay before the retry, in sim nanoseconds.
        backoff_ns: u64,
    },
    /// The transfer planner resolved one grant: what the compile-time
    /// analysis predicted vs. what the method body actually touched.
    GrantPlan {
        /// Family index.
        family: u64,
        /// Object index.
        object: u32,
        /// Predicted page indices (compile-time estimate).
        predicted: L::Pages,
        /// Pages the method actually read.
        actual_reads: L::Pages,
        /// Pages the method actually wrote.
        actual_writes: L::Pages,
        /// Pages the planner decided to move now.
        planned_pages: u32,
        /// Distinct source sites in the gather (fan-out).
        sources: u32,
    },
    /// One source's batch of the gather a grant triggered (Algorithm 4.5):
    /// the page-request/page-transfer round trip to a single site. The
    /// slowest batch of a grant determines the transfer-wait phase.
    GatherBatch {
        /// Family index.
        family: u64,
        /// Object index.
        object: u32,
        /// Site the batch travels from.
        source: u32,
        /// Pages in the batch.
        pages: u32,
        /// Transfer-message bytes of the batch.
        bytes: u64,
        /// Round-trip delay of the batch (request + transfer), in sim
        /// nanoseconds.
        delay_ns: u64,
    },
    /// Adaptive prediction: one grant's prediction quality sample,
    /// attributed to the (class, method) whose profile produced it.
    /// Emitted alongside `GrantPlan` for prediction-based protocols; the
    /// per-method precision/recall time series aggregate these.
    PredictionSample {
        /// Class index.
        class: u32,
        /// Method index within the class.
        method: u32,
        /// Predicted page count.
        predicted: u32,
        /// Actually touched page count.
        actual: u32,
        /// Pages both predicted and touched.
        true_positives: u32,
    },
    /// Adaptive prediction: a pre-commit observation changed a
    /// (class, method) profile — pages were added (under-prediction
    /// repair) and/or dropped (confidence window elapsed).
    ProfileUpdate {
        /// Class index.
        class: u32,
        /// Method index within the class.
        method: u32,
        /// Pages added to the prediction.
        expanded: L::Pages,
        /// Pages dropped from the prediction.
        shrunk: L::Pages,
        /// Size of the prediction after the update.
        predicted: u32,
        /// Observations fed to this profile so far.
        observations: u64,
    },
    /// Adaptive prediction: same-phase demand fetches to one source were
    /// coalesced into a single request/transfer round trip.
    DemandBatch {
        /// Family index.
        family: u64,
        /// Object index.
        object: u32,
        /// Site the pages are fetched from.
        source: u32,
        /// The missed pages, in page order.
        pages: L::Pages,
        /// Transfer-message bytes of the batch.
        bytes: u64,
        /// Round-trip delay of the batch, in sim nanoseconds.
        delay_ns: u64,
    },
    /// A page miss during compute forced a synchronous demand fetch.
    DemandFetch {
        /// Family index.
        family: u64,
        /// Object index.
        object: u32,
        /// The missed page.
        page: u16,
        /// Site the page is fetched from.
        source: u32,
        /// Transfer-message bytes of the fetched page.
        bytes: u64,
    },
    /// Fault injection: a message needed retransmissions (or duplicate
    /// copies arrived). Emitted by the sending site.
    Retransmit {
        /// Destination site.
        dst: u32,
        /// Total transmission attempts, including the successful one.
        attempts: u32,
        /// Duplicate copies delivered alongside the surviving attempt.
        duplicates: u32,
        /// Sender idle time spent waiting out RTOs, in sim nanoseconds.
        wait_ns: u64,
        /// Family whose critical path the stall lands on, when the message
        /// was latency-critical for one.
        family: Option<u64>,
    },
    /// Fault injection: a node crashed (the event's `node` is the
    /// casualty).
    NodeCrashed {
        /// In-flight families that were crash-aborted with it.
        aborted_families: u32,
    },
    /// Fault injection: a crashed node came back up with cold caches.
    NodeRecovered {
        /// Length of the outage, in sim nanoseconds.
        outage_ns: u64,
    },
    /// Fault injection: a queued lock request waited past the timeout and
    /// was cancelled and requeued at the tail.
    LockTimeout {
        /// Object index.
        object: u32,
        /// The waiting (sub)transaction id.
        txn: u64,
        /// How long it had been queued, in sim nanoseconds.
        waited_ns: u64,
    },
    /// Periodic sim-state gauge sample from the engine's state sampler
    /// (armed by `Engine::sample_state_every`). Samples are emitted
    /// inline by the run loop at fixed sim-time boundaries — never as
    /// scheduled sim events — so enabling them cannot perturb the
    /// simulation. The event's `node` is always 0; per-node data rides in
    /// `cache_bytes`.
    StateSample {
        /// Events pending in the future-event list.
        queue_depth: u64,
        /// Lock-table occupancy: holder records across all entries.
        locks_held: u32,
        /// Lock-table occupancy: retained-lock records across all entries.
        locks_retained: u32,
        /// Lock-table occupancy: queued (waiting) requests.
        locks_waiting: u32,
        /// Modeled messages in flight: grant/fetch round trips a family is
        /// currently waiting on.
        inflight_messages: u32,
        /// Families blocked waiting for a lock grant.
        blocked_families: u32,
        /// Cached bytes per node, indexed by node id.
        cache_bytes: L::U64s,
    },
    /// Fault injection recovery: a page whose owner crashed was repointed
    /// in the GDO page map to a surviving same-version copy.
    PageMapRepaired {
        /// Object index.
        object: u32,
        /// The repaired page.
        page: u16,
        /// The crashed former owner.
        from: u32,
        /// The surviving copy now serving the page.
        to: u32,
    },
}

/// Wire names of the event kinds, indexed by [`ObsEventKind::tag`].
pub const KIND_NAMES: [&str; 23] = [
    "lock_queued",
    "lock_granted",
    "lock_retained",
    "lock_blocked",
    "lock_released",
    "deadlock",
    "span_open",
    "span_close",
    "phase_enter",
    "sub_abort",
    "restart",
    "grant_plan",
    "gather_batch",
    "prediction_sample",
    "profile_update",
    "demand_batch",
    "demand_fetch",
    "retransmit",
    "node_crashed",
    "node_recovered",
    "lock_timeout",
    "state_sample",
    "page_map_repaired",
];

impl<L: Lists> ObsEventKind<L> {
    /// The kind's tag: its declaration index, which indexes
    /// [`KIND_NAMES`] and is what a flight-recorder slot stores.
    pub const fn tag(&self) -> u8 {
        match self {
            ObsEventKind::LockQueued { .. } => 0,
            ObsEventKind::LockGranted { .. } => 1,
            ObsEventKind::LockRetained { .. } => 2,
            ObsEventKind::LockBlocked { .. } => 3,
            ObsEventKind::LockReleased { .. } => 4,
            ObsEventKind::Deadlock { .. } => 5,
            ObsEventKind::SpanOpen { .. } => 6,
            ObsEventKind::SpanClose { .. } => 7,
            ObsEventKind::PhaseEnter { .. } => 8,
            ObsEventKind::SubAbort { .. } => 9,
            ObsEventKind::Restart { .. } => 10,
            ObsEventKind::GrantPlan { .. } => 11,
            ObsEventKind::GatherBatch { .. } => 12,
            ObsEventKind::PredictionSample { .. } => 13,
            ObsEventKind::ProfileUpdate { .. } => 14,
            ObsEventKind::DemandBatch { .. } => 15,
            ObsEventKind::DemandFetch { .. } => 16,
            ObsEventKind::Retransmit { .. } => 17,
            ObsEventKind::NodeCrashed { .. } => 18,
            ObsEventKind::NodeRecovered { .. } => 19,
            ObsEventKind::LockTimeout { .. } => 20,
            ObsEventKind::StateSample { .. } => 21,
            ObsEventKind::PageMapRepaired { .. } => 22,
        }
    }

    /// Stable wire name for the event kind.
    pub const fn name(&self) -> &'static str {
        KIND_NAMES[self.tag() as usize]
    }

    /// Writes the kind's fields to `out` in declaration order. With
    /// [`read_fields`](Self::read_fields), this is the one definition of
    /// each kind's wire schema.
    #[inline(always)]
    pub fn write_fields(&self, out: &mut impl FieldSink) {
        match self {
            ObsEventKind::LockQueued {
                object,
                txn,
                mode,
                waiters,
            } => {
                out.uint("object", (*object).into());
                out.uint("txn", *txn);
                out.wire("mode", *mode);
                out.uint("waiters", (*waiters).into());
            }
            ObsEventKind::LockGranted {
                object,
                txn,
                mode,
                global,
                holders,
            } => {
                out.uint("object", (*object).into());
                out.uint("txn", *txn);
                out.wire("mode", *mode);
                out.flag("global", *global);
                out.uint("holders", (*holders).into());
            }
            ObsEventKind::LockRetained {
                object,
                txn,
                parent,
            } => {
                out.uint("object", (*object).into());
                out.uint("txn", *txn);
                out.uint("parent", *parent);
            }
            ObsEventKind::LockBlocked {
                object,
                txn,
                holders,
                retainers,
                queued_behind,
            } => {
                out.uint("object", (*object).into());
                out.uint("txn", *txn);
                out.u64s("holders", holders.as_ref());
                out.u64s("retainers", retainers.as_ref());
                out.u64s("queued_behind", queued_behind.as_ref());
            }
            ObsEventKind::LockReleased { object, txn, cause } => {
                out.uint("object", (*object).into());
                out.uint("txn", *txn);
                out.wire("cause", *cause);
            }
            ObsEventKind::Deadlock { cycle, victim } => {
                out.u64s("cycle", cycle.as_ref());
                out.uint("victim", *victim);
            }
            ObsEventKind::SpanOpen {
                family,
                txn,
                parent,
                object,
            } => {
                out.uint("family", *family);
                out.uint("txn", *txn);
                out.opt("parent", *parent);
                out.uint("object", (*object).into());
            }
            ObsEventKind::SpanClose {
                family,
                txn,
                outcome,
            } => {
                out.uint("family", *family);
                out.uint("txn", *txn);
                out.wire("outcome", *outcome);
            }
            ObsEventKind::PhaseEnter { family, phase } => {
                out.uint("family", *family);
                out.wire("phase", *phase);
            }
            ObsEventKind::SubAbort {
                family,
                txn,
                released,
            } => {
                out.uint("family", *family);
                out.uint("txn", *txn);
                out.uint("released", (*released).into());
            }
            ObsEventKind::Restart {
                family,
                attempt,
                backoff_ns,
            } => {
                out.uint("family", *family);
                out.uint("attempt", (*attempt).into());
                out.uint("backoff_ns", *backoff_ns);
            }
            ObsEventKind::GrantPlan {
                family,
                object,
                predicted,
                actual_reads,
                actual_writes,
                planned_pages,
                sources,
            } => {
                out.uint("family", *family);
                out.uint("object", (*object).into());
                out.pages("predicted", predicted.as_ref());
                out.pages("actual_reads", actual_reads.as_ref());
                out.pages("actual_writes", actual_writes.as_ref());
                out.uint("planned_pages", (*planned_pages).into());
                out.uint("sources", (*sources).into());
            }
            ObsEventKind::GatherBatch {
                family,
                object,
                source,
                pages,
                bytes,
                delay_ns,
            } => {
                out.uint("family", *family);
                out.uint("object", (*object).into());
                out.uint("source", (*source).into());
                out.uint("pages", (*pages).into());
                out.uint("bytes", *bytes);
                out.uint("delay_ns", *delay_ns);
            }
            ObsEventKind::PredictionSample {
                class,
                method,
                predicted,
                actual,
                true_positives,
            } => {
                out.uint("class", (*class).into());
                out.uint("method", (*method).into());
                out.uint("predicted", (*predicted).into());
                out.uint("actual", (*actual).into());
                out.uint("true_positives", (*true_positives).into());
            }
            ObsEventKind::ProfileUpdate {
                class,
                method,
                expanded,
                shrunk,
                predicted,
                observations,
            } => {
                out.uint("class", (*class).into());
                out.uint("method", (*method).into());
                out.pages("expanded", expanded.as_ref());
                out.pages("shrunk", shrunk.as_ref());
                out.uint("predicted", (*predicted).into());
                out.uint("observations", *observations);
            }
            ObsEventKind::DemandBatch {
                family,
                object,
                source,
                pages,
                bytes,
                delay_ns,
            } => {
                out.uint("family", *family);
                out.uint("object", (*object).into());
                out.uint("source", (*source).into());
                out.pages("pages", pages.as_ref());
                out.uint("bytes", *bytes);
                out.uint("delay_ns", *delay_ns);
            }
            ObsEventKind::DemandFetch {
                family,
                object,
                page,
                source,
                bytes,
            } => {
                out.uint("family", *family);
                out.uint("object", (*object).into());
                out.uint("page", (*page).into());
                out.uint("source", (*source).into());
                out.uint("bytes", *bytes);
            }
            ObsEventKind::Retransmit {
                dst,
                attempts,
                duplicates,
                wait_ns,
                family,
            } => {
                out.uint("dst", (*dst).into());
                out.uint("attempts", (*attempts).into());
                out.uint("duplicates", (*duplicates).into());
                out.uint("wait_ns", *wait_ns);
                out.opt("family", *family);
            }
            ObsEventKind::NodeCrashed { aborted_families } => {
                out.uint("aborted_families", (*aborted_families).into());
            }
            ObsEventKind::NodeRecovered { outage_ns } => out.uint("outage_ns", *outage_ns),
            ObsEventKind::LockTimeout {
                object,
                txn,
                waited_ns,
            } => {
                out.uint("object", (*object).into());
                out.uint("txn", *txn);
                out.uint("waited_ns", *waited_ns);
            }
            ObsEventKind::StateSample {
                queue_depth,
                locks_held,
                locks_retained,
                locks_waiting,
                inflight_messages,
                blocked_families,
                cache_bytes,
            } => {
                out.uint("queue_depth", *queue_depth);
                out.uint("locks_held", (*locks_held).into());
                out.uint("locks_retained", (*locks_retained).into());
                out.uint("locks_waiting", (*locks_waiting).into());
                out.uint("inflight_messages", (*inflight_messages).into());
                out.uint("blocked_families", (*blocked_families).into());
                out.u64s("cache_bytes", cache_bytes.as_ref());
            }
            ObsEventKind::PageMapRepaired {
                object,
                page,
                from,
                to,
            } => {
                out.uint("object", (*object).into());
                out.uint("page", (*page).into());
                out.uint("from", (*from).into());
                out.uint("to", (*to).into());
            }
        }
    }

    /// The same kind with every list converted by `u64s` or `pages`; the
    /// one place that lists each kind's fields outside the schema walks.
    #[rustfmt::skip]
    fn map_lists<'s, M: Lists>(
        &'s self,
        u64s: impl Fn(&'s [u64]) -> M::U64s,
        pages: impl Fn(&'s [u16]) -> M::Pages,
    ) -> ObsEventKind<M> {
        use ObsEventKind as K;
        match self {
            &K::LockQueued { object, txn, mode, waiters } =>
                K::LockQueued { object, txn, mode, waiters },
            &K::LockGranted { object, txn, mode, global, holders } =>
                K::LockGranted { object, txn, mode, global, holders },
            &K::LockRetained { object, txn, parent } => K::LockRetained { object, txn, parent },
            K::LockBlocked { object, txn, holders, retainers, queued_behind } => K::LockBlocked {
                object: *object,
                txn: *txn,
                holders: u64s(holders.as_ref()),
                retainers: u64s(retainers.as_ref()),
                queued_behind: u64s(queued_behind.as_ref()),
            },
            &K::LockReleased { object, txn, cause } => K::LockReleased { object, txn, cause },
            K::Deadlock { cycle, victim } =>
                K::Deadlock { cycle: u64s(cycle.as_ref()), victim: *victim },
            &K::SpanOpen { family, txn, parent, object } =>
                K::SpanOpen { family, txn, parent, object },
            &K::SpanClose { family, txn, outcome } => K::SpanClose { family, txn, outcome },
            &K::PhaseEnter { family, phase } => K::PhaseEnter { family, phase },
            &K::SubAbort { family, txn, released } => K::SubAbort { family, txn, released },
            &K::Restart { family, attempt, backoff_ns } =>
                K::Restart { family, attempt, backoff_ns },
            K::GrantPlan {
                family, object, predicted, actual_reads, actual_writes, planned_pages, sources,
            } =>
                K::GrantPlan {
                    family: *family,
                    object: *object,
                    predicted: pages(predicted.as_ref()),
                    actual_reads: pages(actual_reads.as_ref()),
                    actual_writes: pages(actual_writes.as_ref()),
                    planned_pages: *planned_pages,
                    sources: *sources,
                },
            &K::GatherBatch { family, object, source, pages, bytes, delay_ns } =>
                K::GatherBatch { family, object, source, pages, bytes, delay_ns },
            &K::PredictionSample { class, method, predicted, actual, true_positives } =>
                K::PredictionSample { class, method, predicted, actual, true_positives },
            K::ProfileUpdate { class, method, expanded, shrunk, predicted, observations } =>
                K::ProfileUpdate {
                    class: *class,
                    method: *method,
                    expanded: pages(expanded.as_ref()),
                    shrunk: pages(shrunk.as_ref()),
                    predicted: *predicted,
                    observations: *observations,
                },
            K::DemandBatch { family, object, source, pages: list, bytes, delay_ns } =>
                K::DemandBatch {
                    family: *family,
                    object: *object,
                    source: *source,
                    pages: pages(list.as_ref()),
                    bytes: *bytes,
                    delay_ns: *delay_ns,
                },
            &K::DemandFetch { family, object, page, source, bytes } =>
                K::DemandFetch { family, object, page, source, bytes },
            &K::Retransmit { dst, attempts, duplicates, wait_ns, family } =>
                K::Retransmit { dst, attempts, duplicates, wait_ns, family },
            &K::NodeCrashed { aborted_families } => K::NodeCrashed { aborted_families },
            &K::NodeRecovered { outage_ns } => K::NodeRecovered { outage_ns },
            &K::LockTimeout { object, txn, waited_ns } => K::LockTimeout { object, txn, waited_ns },
            K::StateSample {
                queue_depth, locks_held, locks_retained, locks_waiting,
                inflight_messages, blocked_families, cache_bytes,
            } => K::StateSample {
                queue_depth: *queue_depth,
                locks_held: *locks_held,
                locks_retained: *locks_retained,
                locks_waiting: *locks_waiting,
                inflight_messages: *inflight_messages,
                blocked_families: *blocked_families,
                cache_bytes: u64s(cache_bytes.as_ref()),
            },
            &K::PageMapRepaired { object, page, from, to } =>
                K::PageMapRepaired { object, page, from, to },
        }
    }
}

impl ObsEventKind {
    /// Rebuilds the kind tagged `tag` from `src`. Each arm reads its
    /// fields in the order [`write_fields`](Self::write_fields) writes
    /// them (struct-literal fields evaluate in source order), so a
    /// positional source sees them in declaration order too.
    ///
    /// # Panics
    ///
    /// Panics when `tag` is not an index of [`KIND_NAMES`].
    pub fn read_fields<S: FieldSource>(tag: u8, src: &mut S) -> Result<Self, S::Error> {
        Ok(match tag {
            0 => ObsEventKind::LockQueued {
                object: src.u32("object")?,
                txn: src.u64("txn")?,
                mode: src.wire("mode")?,
                waiters: src.u32("waiters")?,
            },
            1 => ObsEventKind::LockGranted {
                object: src.u32("object")?,
                txn: src.u64("txn")?,
                mode: src.wire("mode")?,
                global: src.flag("global")?,
                holders: src.u32("holders")?,
            },
            2 => ObsEventKind::LockRetained {
                object: src.u32("object")?,
                txn: src.u64("txn")?,
                parent: src.u64("parent")?,
            },
            3 => ObsEventKind::LockBlocked {
                object: src.u32("object")?,
                txn: src.u64("txn")?,
                holders: src.u64s("holders")?,
                retainers: src.u64s("retainers")?,
                queued_behind: src.u64s("queued_behind")?,
            },
            4 => ObsEventKind::LockReleased {
                object: src.u32("object")?,
                txn: src.u64("txn")?,
                cause: src.wire("cause")?,
            },
            5 => ObsEventKind::Deadlock {
                cycle: src.u64s("cycle")?,
                victim: src.u64("victim")?,
            },
            6 => ObsEventKind::SpanOpen {
                family: src.u64("family")?,
                txn: src.u64("txn")?,
                parent: src.opt("parent")?,
                object: src.u32("object")?,
            },
            7 => ObsEventKind::SpanClose {
                family: src.u64("family")?,
                txn: src.u64("txn")?,
                outcome: src.wire("outcome")?,
            },
            8 => ObsEventKind::PhaseEnter {
                family: src.u64("family")?,
                phase: src.wire("phase")?,
            },
            9 => ObsEventKind::SubAbort {
                family: src.u64("family")?,
                txn: src.u64("txn")?,
                released: src.u32("released")?,
            },
            10 => ObsEventKind::Restart {
                family: src.u64("family")?,
                attempt: src.u32("attempt")?,
                backoff_ns: src.u64("backoff_ns")?,
            },
            11 => ObsEventKind::GrantPlan {
                family: src.u64("family")?,
                object: src.u32("object")?,
                predicted: src.pages("predicted")?,
                actual_reads: src.pages("actual_reads")?,
                actual_writes: src.pages("actual_writes")?,
                planned_pages: src.u32("planned_pages")?,
                sources: src.u32("sources")?,
            },
            12 => ObsEventKind::GatherBatch {
                family: src.u64("family")?,
                object: src.u32("object")?,
                source: src.u32("source")?,
                pages: src.u32("pages")?,
                bytes: src.u64("bytes")?,
                delay_ns: src.u64("delay_ns")?,
            },
            13 => ObsEventKind::PredictionSample {
                class: src.u32("class")?,
                method: src.u32("method")?,
                predicted: src.u32("predicted")?,
                actual: src.u32("actual")?,
                true_positives: src.u32("true_positives")?,
            },
            14 => ObsEventKind::ProfileUpdate {
                class: src.u32("class")?,
                method: src.u32("method")?,
                expanded: src.pages("expanded")?,
                shrunk: src.pages("shrunk")?,
                predicted: src.u32("predicted")?,
                observations: src.u64("observations")?,
            },
            15 => ObsEventKind::DemandBatch {
                family: src.u64("family")?,
                object: src.u32("object")?,
                source: src.u32("source")?,
                pages: src.pages("pages")?,
                bytes: src.u64("bytes")?,
                delay_ns: src.u64("delay_ns")?,
            },
            16 => ObsEventKind::DemandFetch {
                family: src.u64("family")?,
                object: src.u32("object")?,
                page: src.u16("page")?,
                source: src.u32("source")?,
                bytes: src.u64("bytes")?,
            },
            17 => ObsEventKind::Retransmit {
                dst: src.u32("dst")?,
                attempts: src.u32("attempts")?,
                duplicates: src.u32("duplicates")?,
                wait_ns: src.u64("wait_ns")?,
                family: src.opt("family")?,
            },
            18 => ObsEventKind::NodeCrashed {
                aborted_families: src.u32("aborted_families")?,
            },
            19 => ObsEventKind::NodeRecovered {
                outage_ns: src.u64("outage_ns")?,
            },
            20 => ObsEventKind::LockTimeout {
                object: src.u32("object")?,
                txn: src.u64("txn")?,
                waited_ns: src.u64("waited_ns")?,
            },
            21 => ObsEventKind::StateSample {
                queue_depth: src.u64("queue_depth")?,
                locks_held: src.u32("locks_held")?,
                locks_retained: src.u32("locks_retained")?,
                locks_waiting: src.u32("locks_waiting")?,
                inflight_messages: src.u32("inflight_messages")?,
                blocked_families: src.u32("blocked_families")?,
                cache_bytes: src.u64s("cache_bytes")?,
            },
            22 => ObsEventKind::PageMapRepaired {
                object: src.u32("object")?,
                page: src.u16("page")?,
                from: src.u32("from")?,
                to: src.u32("to")?,
            },
            other => panic!("no event kind has tag {other}"),
        })
    }
}

/// One observability event: where and when, plus what happened, with its
/// lists in form `L` (see the [module docs](self)).
#[derive(Debug, Clone, PartialEq)]
pub struct ObsEvent<L: Lists = Owned> {
    /// Simulated time of the event.
    pub at: SimTime,
    /// Site the event occurred at.
    pub node: u32,
    /// The event payload.
    pub kind: ObsEventKind<L>,
}

impl<L: Lists> ObsEvent<L> {
    /// A copy that owns its lists: what a sink that keeps events stores.
    pub fn owned(&self) -> ObsEvent {
        ObsEvent {
            at: self.at,
            node: self.node,
            kind: self.kind.map_lists(<[u64]>::to_vec, <[u16]>::to_vec),
        }
    }

    /// A view that borrows this event's lists, as
    /// [`EventSink::emit`](crate::EventSink::emit) takes it.
    pub fn borrowed(&self) -> ObsEvent<Borrowed<'_>> {
        ObsEvent {
            at: self.at,
            node: self.node,
            kind: self.kind.map_lists(|ids| ids, |pages| pages),
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// One event of every kind, in tag order: the fixture both codecs
    /// round-trip. `SpanOpen` carries its option and `Retransmit` leaves
    /// its out, so each codec sees both option states.
    pub(crate) fn every_kind() -> Vec<ObsEvent> {
        let ev = |at: u64, node: u32, kind: ObsEventKind| ObsEvent {
            at: SimTime::from_nanos(at),
            node,
            kind,
        };
        vec![
            ev(
                10,
                0,
                ObsEventKind::LockQueued {
                    object: 3,
                    txn: 7,
                    mode: ObsLockMode::Write,
                    waiters: 2,
                },
            ),
            ev(
                20,
                1,
                ObsEventKind::LockGranted {
                    object: 3,
                    txn: 7,
                    mode: ObsLockMode::Read,
                    global: true,
                    holders: 4,
                },
            ),
            ev(
                25,
                1,
                ObsEventKind::LockRetained {
                    object: 3,
                    txn: 7,
                    parent: 5,
                },
            ),
            ev(
                30,
                2,
                ObsEventKind::LockBlocked {
                    object: 9,
                    txn: 11,
                    holders: vec![1, 2],
                    retainers: vec![3],
                    queued_behind: vec![4, 5, 6],
                },
            ),
            ev(
                35,
                0,
                ObsEventKind::LockReleased {
                    object: 9,
                    txn: 11,
                    cause: ReleaseCause::Abort,
                },
            ),
            ev(
                40,
                0,
                ObsEventKind::Deadlock {
                    cycle: vec![12, 15, 12],
                    victim: 15,
                },
            ),
            ev(
                45,
                1,
                ObsEventKind::SpanOpen {
                    family: 2,
                    txn: 17,
                    parent: Some(16),
                    object: 4,
                },
            ),
            ev(
                50,
                1,
                ObsEventKind::SpanClose {
                    family: 2,
                    txn: 17,
                    outcome: SpanOutcome::PreCommit,
                },
            ),
            ev(
                55,
                1,
                ObsEventKind::PhaseEnter {
                    family: 2,
                    phase: ObsPhase::TransferWait,
                },
            ),
            ev(
                60,
                2,
                ObsEventKind::SubAbort {
                    family: 2,
                    txn: 17,
                    released: 3,
                },
            ),
            ev(
                65,
                2,
                ObsEventKind::Restart {
                    family: 2,
                    attempt: 1,
                    backoff_ns: 500,
                },
            ),
            ev(
                70,
                0,
                ObsEventKind::GrantPlan {
                    family: 2,
                    object: 4,
                    predicted: vec![0, 1, 2],
                    actual_reads: vec![0, 1],
                    actual_writes: vec![2],
                    planned_pages: 3,
                    sources: 1,
                },
            ),
            ev(
                75,
                0,
                ObsEventKind::GatherBatch {
                    family: 2,
                    object: 4,
                    source: 1,
                    pages: 3,
                    bytes: 12288,
                    delay_ns: 9000,
                },
            ),
            ev(
                80,
                0,
                ObsEventKind::PredictionSample {
                    class: 1,
                    method: 2,
                    predicted: 3,
                    actual: 2,
                    true_positives: 2,
                },
            ),
            ev(
                85,
                0,
                ObsEventKind::ProfileUpdate {
                    class: 1,
                    method: 2,
                    expanded: vec![7],
                    shrunk: vec![8, 9],
                    predicted: 4,
                    observations: 11,
                },
            ),
            ev(
                90,
                0,
                ObsEventKind::DemandBatch {
                    family: 2,
                    object: 4,
                    source: 3,
                    pages: vec![5, 6],
                    bytes: 8192,
                    delay_ns: 700,
                },
            ),
            ev(
                95,
                0,
                ObsEventKind::DemandFetch {
                    family: 2,
                    object: 4,
                    page: 6,
                    source: 3,
                    bytes: 4096,
                },
            ),
            ev(
                100,
                1,
                ObsEventKind::Retransmit {
                    dst: 2,
                    attempts: 3,
                    duplicates: 1,
                    wait_ns: 1500,
                    family: None,
                },
            ),
            ev(
                101,
                1,
                ObsEventKind::NodeCrashed {
                    aborted_families: 2,
                },
            ),
            ev(102, 1, ObsEventKind::NodeRecovered { outage_ns: 999 }),
            ev(
                103,
                2,
                ObsEventKind::LockTimeout {
                    object: 9,
                    txn: 11,
                    waited_ns: 150_000,
                },
            ),
            ev(
                104,
                0,
                ObsEventKind::StateSample {
                    queue_depth: 17,
                    locks_held: 4,
                    locks_retained: 2,
                    locks_waiting: 1,
                    inflight_messages: 3,
                    blocked_families: 1,
                    cache_bytes: vec![4096, 0, 8192],
                },
            ),
            ev(
                105,
                2,
                ObsEventKind::PageMapRepaired {
                    object: 4,
                    page: 1,
                    from: 2,
                    to: 0,
                },
            ),
        ]
    }

    #[test]
    fn every_kind_lists_each_kind_once_in_tag_order() {
        // The slot codec's capacity (six scalars, three lists) is checked
        // only when a kind is encoded, so this list must reach every kind.
        let names: Vec<&str> = every_kind().iter().map(|e| e.kind.name()).collect();
        assert_eq!(names, KIND_NAMES);
    }

    #[test]
    fn wire_enums_list_variants_in_declaration_order() {
        fn indices<T: WireEnum>() -> Vec<usize> {
            T::ALL.iter().map(|&v| v.index()).collect()
        }
        assert_eq!(indices::<ObsLockMode>(), [0, 1]);
        assert_eq!(indices::<ReleaseCause>(), [0, 1]);
        assert_eq!(indices::<SpanOutcome>(), [0, 1, 2, 3]);
        assert_eq!(indices::<ObsPhase>(), [0, 1, 2, 3, 4, 5]);
    }
}
