//! Wall-clock performance baseline for the deterministic engine.
//!
//! Unlike the figure binaries (which report *simulated* quantities), this
//! binary measures real host time: how fast the engine chews through
//! simulator events, per protocol, fault-free and under chaos-style
//! faults, plus how much a multi-seed fig3 sweep gains from the parallel
//! sweep runner. Results go to `BENCH_perf.json`; refresh it with
//! `cargo run --release --bin perf` after engine changes.
//!
//! Four host-plane sections ride along (schema 4):
//!
//! * `host_profile` — the LOTEC cell re-run under a
//!   [`WallProfiler`]: per-region self-time breakdown (event pop/push,
//!   dispatch, lock grant/release, deadlock gate, page transfer/install,
//!   COW write, report), asserted to cover ≥ 90 % of the cell's wall
//!   time, with identical simulated outputs. When `LOTEC_PROFILE_ALLOC=1`
//!   the cell also reports allocator traffic attributed per region (this
//!   binary installs [`CountingAlloc`]; one relaxed atomic load per
//!   allocation when the variable is unset).
//! * `queue` — a microbench of the calendar [`EventQueue`] against the
//!   retained [`reference::HeapQueue`](HeapQueue) on an identical mixed-horizon
//!   schedule/pop stream (near-future, timestamp ties, ring-span, and
//!   overflow pushes), asserting identical pop checksums.
//! * `lock_paths` — microbenches of the lock table's attacked paths: the
//!   uncontended acquire→commit-release fast path and a contended cell
//!   whose every release grants a full read batch in one fused pass.
//! * `gate` — a fixed quick-preset LOTEC cell measured in *every* mode,
//!   so a CI `--quick` run can compare events/sec like-for-like against
//!   the committed full-mode baseline, plus the cell's allocs-per-event
//!   (measured in one extra run with accounting forced on), its
//!   sketch-backed simulated latency quantiles (`latency_p50_ns` /
//!   `latency_p99_ns`, exact-matched by the gate — they are pure
//!   simulation), and a `recorder` subsection timing the same cell with
//!   the always-on flight recorder attached. `--gate` re-measures the
//!   gate cell (recorder off and on) *and* the `queue`/`lock_paths`
//!   micro cells, compares each throughput against the committed
//!   `BENCH_perf.json` within `LOTEC_PERF_GATE_TOL` (default 0.20, i.e.
//!   ±20 %), exits nonzero on regression, and never writes the baseline.
//!   Allocs-per-event is a *soft* gate (a warning, not a failure —
//!   allocator traffic is build-dependent), and the gate cell runs once
//!   more under the profiler to print per-region self-time shares
//!   against the committed `host_profile`, so a regression names the
//!   region that slipped instead of just the aggregate number.
//!
//! Flags:
//!
//! * `--quick` — fewer repeats and sweep seeds (CI-sized run);
//! * `--gate` — regression-gate mode (see above);
//! * `--fingerprint-out <path>` — additionally write the *simulated*
//!   outputs (chain hashes, committed counts, traffic totals) of every
//!   measured cell. Timings never enter the fingerprint, so two runs of
//!   the same build must produce byte-identical fingerprint files — the
//!   CI `perf-smoke` job diffs exactly that.
//!
//! Timing protocol: each cell runs `repeats` times; the JSON reports the
//! minimum (least-noise estimate) and the mean, and `events_per_sec` is
//! always derived from the minimum. Every repeat is asserted to simulate
//! the identical event count — a wall-clock bench on top of a
//! nondeterministic engine would be measuring two things at once.

use std::time::Instant;

use lotec_bench::runner;
use lotec_core::config::FaultConfig;
use lotec_core::engine::{Engine, RunReport};
use lotec_core::oracle;
use lotec_core::protocol::ProtocolKind;
use lotec_core::{AdaptiveConfig, CoreError, FamilySpec, SystemConfig};
use lotec_mem::{mix, ObjectId, PageIndex};
use lotec_object::ObjectRegistry;
use lotec_obs::{
    alloc, CountingAlloc, EventSink, FlightRecorder, HostProfiler, Json, NoopHostProfiler,
    NoopSink, RecordingSink, WallProfiler,
};
use lotec_sim::event::reference::HeapQueue;
use lotec_sim::{EventQueue, FaultPlan, NodeId, SimDuration, SimRng, SimTime};
use lotec_txn::{Acquire, LockMode, LockTable, TxnId, TxnTree};
use lotec_workload::{presets, Scenario};

/// Allocation accounting for the `host_profile` section. Costs one
/// relaxed atomic load per allocation unless `LOTEC_PROFILE_ALLOC=1`.
#[global_allocator]
static COUNTING_ALLOC: CountingAlloc = CountingAlloc;

/// Schema version of `BENCH_perf.json`. Bump when sections are added,
/// removed or change meaning; the `--gate` reader refuses mismatches.
const SCHEMA: u64 = 4;

/// Repeats for the `gate` cell — fixed across modes so full-mode
/// baselines and `--quick`/`--gate` runs measure the same protocol.
/// The cell is ~1 ms, so a generous repeat count keeps the min-of-repeats
/// estimate stable against bursty host noise at negligible cost.
const GATE_REPEATS: usize = 25;

/// Environment variable overriding the gate tolerance (a fraction;
/// default 0.20 = ±20 %).
const GATE_TOL_ENV: &str = "LOTEC_PERF_GATE_TOL";

/// Environment variable (`=1`) arming `Engine::validate_lock_graph` on
/// every engine perf builds: each lock-table mutation is then
/// cross-checked against the from-scratch reference detector. CI's
/// perf-gate job runs the quick preset this way, replaying the fused
/// release/grant fast paths under the oracle on every push. Timings
/// measured with validation on are not comparable to the committed
/// baseline — don't regenerate `BENCH_perf.json` with this set (simulated
/// outputs are unaffected; validation is assert-only).
const LOCK_VALIDATION_ENV: &str = "LOTEC_LOCK_GRAPH_VALIDATION";

/// Builds and runs one engine. Every engine perf runs is built here, so
/// [`LOCK_VALIDATION_ENV`] arms validation on all of them.
fn simulate<S: EventSink, P: HostProfiler>(
    config: &SystemConfig,
    registry: &ObjectRegistry,
    families: &[FamilySpec],
    sink: S,
    prof: P,
) -> Result<RunReport, CoreError> {
    let engine = Engine::with_instruments(config, registry, families, sink, prof)?;
    if std::env::var_os(LOCK_VALIDATION_ENV).is_some_and(|v| v == "1") {
        engine.validate_lock_graph().run()
    } else {
        engine.run()
    }
}

/// Folds the final chain of every page of `registry`'s layout, in key
/// order, into one order-sensitive hash. A page the report does not list
/// (its object was never touched) reads as chain 0.
fn chain_hash(report: &RunReport, registry: &ObjectRegistry) -> u64 {
    let mut h = 0u64;
    for inst in registry.objects() {
        for page in (0..registry.num_pages(inst.id)).map(PageIndex::new) {
            h = mix(h, u64::from(inst.id.index()));
            h = mix(h, u64::from(page.get()));
            h = mix(h, report.final_chains[&(inst.id, page)]);
        }
    }
    h
}

/// The simulated-output fingerprint of one cell (no timings).
fn cell_fingerprint(report: &RunReport, registry: &ObjectRegistry) -> Json {
    Json::obj(vec![
        ("committed", Json::U64(report.stats.committed_families)),
        ("makespan_ns", Json::U64(report.stats.makespan.as_nanos())),
        ("total_messages", Json::U64(report.traffic.total().messages)),
        ("total_bytes", Json::U64(report.traffic.total().bytes)),
        ("chain_hash", Json::U64(chain_hash(report, registry))),
    ])
}

struct Timed {
    report: RunReport,
    min_ns: u128,
    mean_ns: u128,
}

/// Runs `f` `repeats` times, asserting deterministic event counts, and
/// keeps the last report plus min/mean wall-clock.
fn time_cell(repeats: usize, f: impl Fn() -> RunReport) -> Timed {
    assert!(repeats > 0);
    let mut min_ns = u128::MAX;
    let mut total_ns = 0u128;
    let mut last: Option<RunReport> = None;
    for _ in 0..repeats {
        let start = Instant::now();
        let report = f();
        let elapsed = start.elapsed().as_nanos();
        min_ns = min_ns.min(elapsed);
        total_ns += elapsed;
        if let Some(prev) = &last {
            assert_eq!(
                prev.stats.sim_events, report.stats.sim_events,
                "engine must be deterministic across repeats"
            );
        }
        last = Some(report);
    }
    Timed {
        report: last.expect("at least one repeat"),
        min_ns,
        mean_ns: total_ns / repeats as u128,
    }
}

fn events_per_sec(events: u64, ns: u128) -> u64 {
    if ns == 0 {
        return 0;
    }
    ((events as u128 * 1_000_000_000) / ns) as u64
}

fn fig3_config(scenario: &Scenario, protocol: ProtocolKind) -> SystemConfig {
    SystemConfig {
        protocol,
        seed: 0xF163,
        num_nodes: scenario.config.num_nodes,
        page_size: scenario.config.schema.page_size,
        ..SystemConfig::default()
    }
}

fn chaos_faults() -> FaultConfig {
    FaultConfig {
        plan: FaultPlan {
            drop_prob: 0.10,
            duplicate_prob: 0.05,
            delay_prob: 0.10,
            max_extra_delay: SimDuration::from_micros(25),
            rto: SimDuration::from_micros(50),
            crashes: Vec::new(),
        },
        ..FaultConfig::default()
    }
}

/// One engine-cell JSON row. Every cell derives `events_per_sec` from
/// `min_ns` — the least-noise estimate, and the quantity the gate
/// compares.
fn cell_json(timed: &Timed) -> Vec<(&'static str, Json)> {
    let events = timed.report.stats.sim_events;
    vec![
        ("min_ns", Json::U64(timed.min_ns as u64)),
        ("mean_ns", Json::U64(timed.mean_ns as u64)),
        ("sim_events", Json::U64(events)),
        (
            "events_per_sec",
            Json::U64(events_per_sec(events, timed.min_ns)),
        ),
    ]
}

/// Measures the fixed gate cell: the quick fig3 preset under LOTEC,
/// [`GATE_REPEATS`] repeats. Identical in every mode.
fn measure_gate_cell() -> Timed {
    let scenario = presets::quick(presets::fig3());
    let (registry, families) = scenario.generate().expect("gate workload generates");
    let config = fig3_config(&scenario, ProtocolKind::Lotec);
    let timed = time_cell(GATE_REPEATS, || {
        simulate(&config, &registry, &families, NoopSink, NoopHostProfiler).expect("gate cell runs")
    });
    oracle::verify(&timed.report).expect("gate cell serializable");
    timed
}

/// The gate cell once more with the always-on flight recorder riding
/// along — the cost of bounded capture on the hot path. The simulated
/// outputs must match the recorder-off cell exactly. Part of the ratio
/// is the probe plane itself (building the borrowed `ObsEvent`s, the
/// same cost any enabled sink pays); the rest is the in-place ring
/// encode and the forensics dumps. `--gate` regression-checks the
/// recorded cell's events/s against its committed baseline like every
/// other cell, and soft-warns when the overhead *ratio* grows beyond
/// the committed one by more than the tolerance.
fn measure_gate_cell_recorded() -> Timed {
    let scenario = presets::quick(presets::fig3());
    let (registry, families) = scenario.generate().expect("gate workload generates");
    let config = fig3_config(&scenario, ProtocolKind::Lotec);
    // Allocate the ring once outside the timed region — always-on means
    // the recorder lives for the process, so per-repeat construction
    // (allocating and zeroing slots × 176 bytes) would charge the cell
    // for a startup cost the record path never pays.
    let recorder =
        std::cell::RefCell::new(FlightRecorder::new(config.flight_recorder.slots as usize));
    let timed = time_cell(GATE_REPEATS, || {
        let mut ring = recorder.borrow_mut();
        ring.clear();
        simulate(&config, &registry, &families, &mut *ring, NoopHostProfiler)
            .expect("recorded gate cell runs")
    });
    oracle::verify(&timed.report).expect("recorded gate cell serializable");
    timed
}

/// Repeats for the `queue`/`lock_paths` micro cells. Each repeat is a few
/// hundred microseconds, so a generous count keeps min-of-repeats stable.
const MICRO_REPEATS: usize = 15;

/// One timed micro cell: min-of-repeats wall time plus a fold of the
/// cell's observable outputs, asserted identical across repeats (a
/// microbench over nondeterministic work would be measuring two things).
struct Micro {
    min_ns: u128,
    checksum: u64,
}

fn time_micro(repeats: usize, f: impl Fn() -> u64) -> Micro {
    assert!(repeats > 0);
    let mut min_ns = u128::MAX;
    let mut checksum: Option<u64> = None;
    for _ in 0..repeats {
        let start = Instant::now();
        let c = std::hint::black_box(f());
        let elapsed = start.elapsed().as_nanos();
        min_ns = min_ns.min(elapsed);
        if let Some(prev) = checksum {
            assert_eq!(prev, c, "micro cell must be deterministic across repeats");
        }
        checksum = Some(c);
    }
    Micro {
        min_ns,
        checksum: checksum.expect("at least one repeat"),
    }
}

/// Pop→push ops in the queue micro cell's steady state.
const QUEUE_OPS: usize = 200_000;
/// Events resident in the queue throughout the steady state.
const QUEUE_FILL: usize = 256;

/// The deterministic delta stream both queue implementations replay:
/// mostly near-future pushes (a few calendar buckets out), a thick slice
/// of exact timestamp ties (FIFO tie-break territory), the rest spread
/// across the ring span and into the far-future overflow tier. The ring
/// geometry constants (4096 ns buckets × 256) live in `lotec-sim`; the
/// boundaries here only need to straddle them, not match them exactly.
fn queue_deltas() -> Vec<u64> {
    let mut rng = SimRng::seed_from_u64(0xCA1E_DA12);
    (0..QUEUE_OPS)
        .map(|_| match rng.next_below(100) {
            0..=64 => rng.next_below(16 << 12),
            65..=84 => 0,
            85..=94 => rng.next_below(1 << 20),
            _ => (1 << 20) + rng.next_below(8 << 20),
        })
        .collect()
}

/// Drives one queue implementation through the shared stream: fill to
/// [`QUEUE_FILL`], then [`QUEUE_OPS`] pop→push-at-`popped+delta` rounds,
/// then drain. Folds every popped `(time, payload)` into a checksum — the
/// two implementations must produce the same one (pop-order equality).
macro_rules! drive_queue {
    ($queue:expr, $deltas:expr) => {{
        let mut q = $queue;
        let deltas: &[u64] = $deltas;
        let mut checksum = 0u64;
        for i in 0..QUEUE_FILL {
            q.push(SimTime::from_nanos((i as u64) << 8), i as u64);
        }
        for (i, &delta) in deltas.iter().enumerate() {
            let (t, v) = q.pop().expect("steady-state queue is never empty");
            checksum = mix(mix(checksum, t.as_nanos()), v);
            q.push(SimTime::from_nanos(t.as_nanos() + delta), i as u64);
        }
        while let Some((t, v)) = q.pop() {
            checksum = mix(mix(checksum, t.as_nanos()), v);
        }
        checksum
    }};
}

struct QueueBench {
    /// Total push + pop operations per run.
    ops: u64,
    calendar: Micro,
    heap: Micro,
}

fn measure_queue_cell() -> QueueBench {
    let deltas = queue_deltas();
    let calendar = time_micro(MICRO_REPEATS, || drive_queue!(EventQueue::new(), &deltas));
    let heap = time_micro(MICRO_REPEATS, || drive_queue!(HeapQueue::new(), &deltas));
    assert_eq!(
        calendar.checksum, heap.checksum,
        "calendar queue pop order diverged from the reference heap"
    );
    QueueBench {
        ops: 2 * (QUEUE_FILL + QUEUE_OPS) as u64,
        calendar,
        heap,
    }
}

fn queue_json(q: &QueueBench) -> Json {
    Json::obj(vec![
        ("ops", Json::U64(q.ops)),
        ("calendar_min_ns", Json::U64(q.calendar.min_ns as u64)),
        (
            "calendar_ops_per_sec",
            Json::U64(events_per_sec(q.ops, q.calendar.min_ns)),
        ),
        ("heap_min_ns", Json::U64(q.heap.min_ns as u64)),
        (
            "heap_ops_per_sec",
            Json::U64(events_per_sec(q.ops, q.heap.min_ns)),
        ),
        (
            "speedup_vs_heap",
            Json::F64(q.heap.min_ns as f64 / q.calendar.min_ns.max(1) as f64),
        ),
    ])
}

/// Roots per uncontended run; each acquires and releases
/// [`UNCONTENDED_OBJS_PER_ROUND`] free objects (the no-waiter fast path).
const UNCONTENDED_ROUNDS: usize = 400;
const UNCONTENDED_OBJS_PER_ROUND: usize = 16;
const UNCONTENDED_OBJECTS: u32 = 64;
/// Rounds and queued reader families per contended run; every writer
/// release grants all [`CONTENDED_READERS`] families in one fused batch.
const CONTENDED_ROUNDS: usize = 400;
const CONTENDED_READERS: usize = 8;

struct LockPathsBench {
    /// Uncontended acquire + release lock operations per run.
    uncontended_ops: u64,
    uncontended: Micro,
    /// Grants delivered across all contended rounds per run.
    contended_grants: u64,
    contended: Micro,
}

fn measure_lock_paths_cell() -> LockPathsBench {
    let node = NodeId::new(0);
    let uncontended = time_micro(MICRO_REPEATS, || {
        let mut tree = TxnTree::new();
        let mut table = LockTable::new();
        for i in 0..UNCONTENDED_OBJECTS {
            table.register_object(ObjectId::new(i), 1, node);
        }
        let mut checksum = 0u64;
        for round in 0..UNCONTENDED_ROUNDS {
            let root = tree.begin_root(node);
            for k in 0..UNCONTENDED_OBJS_PER_ROUND {
                let slot = (round * UNCONTENDED_OBJS_PER_ROUND + k) % UNCONTENDED_OBJECTS as usize;
                let got = table
                    .acquire(ObjectId::new(slot as u32), root, LockMode::Write, &tree)
                    .expect("object registered");
                assert!(got.is_granted(), "free object must grant immediately");
            }
            tree.commit_root(root);
            let mut rel = lotec_txn::CommitRelease::default();
            table.release_root_commit(root, &tree, &[], node, &mut rel);
            assert!(
                rel.grants.is_empty(),
                "nobody waits in the uncontended cell"
            );
            checksum = mix(checksum, rel.released.len() as u64);
        }
        checksum
    });
    let contended = time_micro(MICRO_REPEATS, || {
        let mut tree = TxnTree::new();
        let mut table = LockTable::new();
        let object = ObjectId::new(0);
        table.register_object(object, 1, node);
        let mut checksum = 0u64;
        for _ in 0..CONTENDED_ROUNDS {
            let writer = tree.begin_root(node);
            let got = table
                .acquire(object, writer, LockMode::Write, &tree)
                .expect("object registered");
            assert!(got.is_granted());
            let readers: Vec<TxnId> = (0..CONTENDED_READERS)
                .map(|_| tree.begin_root(node))
                .collect();
            for &reader in &readers {
                let queued = table
                    .acquire(object, reader, LockMode::Read, &tree)
                    .expect("object registered");
                assert_eq!(queued, Acquire::Queued, "readers queue behind the writer");
            }
            tree.commit_root(writer);
            let mut rel = lotec_txn::CommitRelease::default();
            table.release_root_commit(writer, &tree, &[], node, &mut rel);
            assert_eq!(
                rel.grants.len(),
                CONTENDED_READERS,
                "one release pass grants the whole read batch"
            );
            checksum = mix(checksum, rel.grants.len() as u64);
            for &reader in &readers {
                tree.commit_root(reader);
                let mut rr = lotec_txn::CommitRelease::default();
                table.release_root_commit(reader, &tree, &[], node, &mut rr);
                checksum = mix(checksum, rr.released.len() as u64);
            }
        }
        checksum
    });
    LockPathsBench {
        uncontended_ops: (UNCONTENDED_ROUNDS * 2 * UNCONTENDED_OBJS_PER_ROUND) as u64,
        uncontended,
        contended_grants: (CONTENDED_ROUNDS * CONTENDED_READERS) as u64,
        contended,
    }
}

fn lock_paths_json(l: &LockPathsBench) -> Json {
    Json::obj(vec![
        (
            "uncontended",
            Json::obj(vec![
                ("ops", Json::U64(l.uncontended_ops)),
                ("min_ns", Json::U64(l.uncontended.min_ns as u64)),
                (
                    "ops_per_sec",
                    Json::U64(events_per_sec(l.uncontended_ops, l.uncontended.min_ns)),
                ),
            ]),
        ),
        (
            "contended",
            Json::obj(vec![
                ("rounds", Json::U64(CONTENDED_ROUNDS as u64)),
                ("grants", Json::U64(l.contended_grants)),
                (
                    "mean_grant_batch",
                    Json::F64(l.contended_grants as f64 / CONTENDED_ROUNDS as f64),
                ),
                ("min_ns", Json::U64(l.contended.min_ns as u64)),
                (
                    "grants_per_sec",
                    Json::U64(events_per_sec(l.contended_grants, l.contended.min_ns)),
                ),
            ]),
        ),
    ])
}

/// One extra, untimed gate-cell run with allocation accounting forced on:
/// total allocator traffic and allocs-per-simulated-event. Restores the
/// environment-probed accounting state afterwards so the timed cells keep
/// their one-relaxed-load-per-alloc behavior.
fn measure_gate_alloc() -> (u64, u64, f64) {
    let scenario = presets::quick(presets::fig3());
    let (registry, families) = scenario.generate().expect("gate workload generates");
    let config = fig3_config(&scenario, ProtocolKind::Lotec);
    alloc::force_profiling(Some(true));
    let before = alloc::snapshot();
    let report = simulate(&config, &registry, &families, NoopSink, NoopHostProfiler)
        .expect("gate cell runs");
    let delta = alloc::snapshot().delta_since(&before);
    alloc::force_profiling(None);
    let events = report.stats.sim_events;
    (
        delta.total_allocs(),
        delta.total_bytes(),
        delta.total_allocs() as f64 / events.max(1) as f64,
    )
}

/// Reads a `u64` at a dotted path in the committed baseline, with a
/// regenerate-the-baseline panic message on any missing hop.
fn baseline_u64(root: &Json, path: &[&str]) -> u64 {
    let mut cur = root;
    for key in path {
        cur = cur.get(key).unwrap_or_else(|| {
            panic!(
                "baseline has no {} field; regenerate BENCH_perf.json",
                path.join(".")
            )
        });
    }
    cur.as_u64()
        .unwrap_or_else(|| panic!("baseline {} is not a u64", path.join(".")))
}

fn gate_tolerance() -> f64 {
    match std::env::var(GATE_TOL_ENV) {
        Ok(v) => match v.trim().parse::<f64>() {
            Ok(t) if t > 0.0 && t < 1.0 => t,
            _ => panic!("{GATE_TOL_ENV} must be a fraction in (0, 1), got {v:?}"),
        },
        Err(_) => 0.20,
    }
}

/// `--gate` mode: measure the gate cell and the `queue`/`lock_paths`
/// micro cells, compare each throughput against the committed
/// `BENCH_perf.json`, print allocs-per-event (soft) and per-region
/// host-profile shares vs the committed baseline, exit nonzero on any
/// hard regression. Never writes.
fn run_gate() -> ! {
    let tol = gate_tolerance();
    let baseline_raw =
        std::fs::read_to_string("BENCH_perf.json").expect("read committed BENCH_perf.json");
    let baseline = Json::parse(&baseline_raw).expect("BENCH_perf.json parses");
    let schema = baseline
        .get("schema")
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("baseline has no schema field; regenerate BENCH_perf.json"));
    assert_eq!(
        schema, SCHEMA,
        "baseline schema {schema} != binary schema {SCHEMA}; regenerate BENCH_perf.json"
    );
    let base_events = baseline_u64(&baseline, &["gate", "sim_events"]);

    let timed = measure_gate_cell();
    let events = timed.report.stats.sim_events;
    assert_eq!(
        events, base_events,
        "gate cell simulates {events} events but baseline recorded {base_events}: \
         the workload or engine semantics changed — regenerate BENCH_perf.json"
    );
    let queue = measure_queue_cell();
    let lock_paths = measure_lock_paths_cell();

    let mut failed = false;
    let mut check = |name: &str, current: u64, base: u64| {
        let floor = (base as f64 * (1.0 - tol)) as u64;
        println!(
            "perf gate: {name} {current} vs baseline {base} (floor {floor} at -{:.0}%)",
            tol * 100.0
        );
        if current < floor {
            eprintln!(
                "perf gate FAILED: {name} {current} is below {floor} \
                 ({base} - {:.0}%); investigate or regenerate the baseline",
                tol * 100.0
            );
            failed = true;
        }
    };
    check(
        "events/s",
        events_per_sec(events, timed.min_ns),
        baseline_u64(&baseline, &["gate", "events_per_sec"]),
    );

    // Sketch-backed simulated latency quantiles are deterministic, so
    // they must match the baseline exactly — a drift here means engine
    // semantics changed, not that the host got slower.
    let p50 = timed
        .report
        .stats
        .latency_quantile(0.5)
        .map_or(0, |d| d.as_nanos());
    let p99 = timed
        .report
        .stats
        .latency_quantile(0.99)
        .map_or(0, |d| d.as_nanos());
    let base_p50 = baseline_u64(&baseline, &["gate", "latency_p50_ns"]);
    let base_p99 = baseline_u64(&baseline, &["gate", "latency_p99_ns"]);
    println!("perf gate: sim latency p50 {p50} ns, p99 {p99} ns (sketch)");
    assert_eq!(
        (p50, p99),
        (base_p50, base_p99),
        "gate cell simulated latency quantiles drifted from the baseline: \
         engine semantics changed — regenerate BENCH_perf.json"
    );

    // Flight-recorder ride-along: same cell with the bounded ring armed.
    // Identical simulated outputs are a hard invariant; throughput is
    // gated against the committed recorder-on baseline like every other
    // cell, and the overhead ratio (which divides two noisy wall-clock
    // numbers) is a soft budget relative to the committed ratio.
    let recorded = measure_gate_cell_recorded();
    assert_eq!(
        recorded.report.final_chains, timed.report.final_chains,
        "flight recorder perturbed the gate cell's simulated outputs"
    );
    let recorder_ratio = recorded.min_ns as f64 / timed.min_ns.max(1) as f64;
    check(
        "recorder-on events/s",
        events_per_sec(recorded.report.stats.sim_events, recorded.min_ns),
        baseline_u64(&baseline, &["gate", "recorder", "events_per_sec"]),
    );
    let base_ratio = baseline
        .get("gate")
        .and_then(|g| g.get("recorder"))
        .and_then(|r| r.get("overhead_vs_off"))
        .and_then(Json::as_f64)
        .unwrap_or_else(|| {
            panic!("baseline has no gate.recorder.overhead_vs_off; regenerate BENCH_perf.json")
        });
    println!(
        "perf gate: flight-recorder overhead {recorder_ratio:.3}x vs baseline {base_ratio:.3}x"
    );
    if recorder_ratio > base_ratio * (1.0 + tol) {
        eprintln!(
            "perf gate WARNING (soft): flight-recorder overhead grew \
             {base_ratio:.3}x -> {recorder_ratio:.3}x (> +{:.0}%); the record path regressed",
            tol * 100.0
        );
    }

    check(
        "queue calendar ops/s",
        events_per_sec(queue.ops, queue.calendar.min_ns),
        baseline_u64(&baseline, &["queue", "calendar_ops_per_sec"]),
    );
    check(
        "uncontended lock ops/s",
        events_per_sec(lock_paths.uncontended_ops, lock_paths.uncontended.min_ns),
        baseline_u64(&baseline, &["lock_paths", "uncontended", "ops_per_sec"]),
    );
    check(
        "contended grants/s",
        events_per_sec(lock_paths.contended_grants, lock_paths.contended.min_ns),
        baseline_u64(&baseline, &["lock_paths", "contended", "grants_per_sec"]),
    );
    // Soft allocation gate: warn (never fail) when allocs-per-event grew
    // beyond tolerance — allocator traffic shifts with rustc versions,
    // but a step regression here means a hot path started allocating.
    let (allocs, alloc_bytes, allocs_per_event) = measure_gate_alloc();
    let base_ape = baseline
        .get("gate")
        .and_then(|g| g.get("allocs_per_event"))
        .and_then(Json::as_f64)
        .unwrap_or_else(|| {
            panic!("baseline has no gate.allocs_per_event; regenerate BENCH_perf.json")
        });
    println!(
        "perf gate: {allocs_per_event:.3} allocs/event vs baseline {base_ape:.3} \
         ({allocs} allocs, {alloc_bytes} bytes)"
    );
    if allocs_per_event > base_ape * (1.0 + tol) {
        eprintln!(
            "perf gate WARNING (soft): allocs/event regressed {base_ape:.3} -> \
             {allocs_per_event:.3} (> +{:.0}%); a hot path started allocating",
            tol * 100.0
        );
    }

    // Per-region shares: the gate cell once more under the profiler,
    // against the committed full-fig3 host profile. Shares, not absolute
    // times — the baseline cell is larger — so a regression names the
    // region that slipped.
    let scenario = presets::quick(presets::fig3());
    let (registry, families) = scenario.generate().expect("gate workload generates");
    let config = fig3_config(&scenario, ProtocolKind::Lotec);
    let mut prof = WallProfiler::new();
    simulate(&config, &registry, &families, NoopSink, &mut prof).expect("profiled gate cell runs");
    let profile = prof.into_profile();
    let total = profile.total_self_ns().max(1) as f64;
    let base_total =
        baseline_u64(&baseline, &["host_profile", "profile", "total_self_ns"]).max(1) as f64;
    let base_regions = baseline
        .get("host_profile")
        .and_then(|h| h.get("profile"))
        .and_then(|p| p.get("regions"));
    println!("perf gate: region self-time shares (gate cell vs committed full-fig3 profile):");
    for (region, stat) in profile.iter().filter(|(_, s)| s.count > 0) {
        let share = 100.0 * stat.self_ns as f64 / total;
        let base_share = base_regions
            .and_then(|r| r.get(region.name()))
            .and_then(|r| r.get("self_ns"))
            .and_then(Json::as_u64)
            .map_or(0.0, |ns| 100.0 * ns as f64 / base_total);
        println!(
            "  {:<14} baseline {base_share:>5.1}%  now {share:>5.1}%  ({:+.1} pp)",
            region.name(),
            share - base_share
        );
    }

    if failed {
        std::process::exit(1);
    }
    println!("perf gate passed");
    std::process::exit(0);
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.iter().any(|a| a == "--gate") {
        run_gate();
    }
    let quick = args.iter().any(|a| a == "--quick");
    let fingerprint_out = args
        .iter()
        .position(|a| a == "--fingerprint-out")
        .map(|idx| match args.get(idx + 1) {
            Some(p) if !p.starts_with("--") => std::path::PathBuf::from(p),
            _ => std::path::PathBuf::from("BENCH_perf_fingerprint.json"),
        });
    let repeats = if quick { 2 } else { 5 };
    let sweep_seeds: u64 = if quick { 4 } else { 8 };

    let scenario = if quick {
        presets::quick(presets::fig3())
    } else {
        presets::fig3()
    };
    let (registry, families) = scenario.generate().expect("workload generates");

    println!(
        "perf baseline: fig3 {} families, {repeats} repeats/cell, {} sweep threads",
        families.len(),
        runner::threads()
    );

    // Engine cells: the paper trio fault-free, plus LOTEC under the chaos
    // suite's lossy-link faults. Single-threaded, min-of-repeats timing.
    let mut engine_section = Vec::new();
    let mut fingerprint_cells = Vec::new();
    let mut lotec_plain: Option<(u128, u64)> = None;
    let mut lotec_static_report: Option<RunReport> = None;
    for protocol in ProtocolKind::PAPER_TRIO {
        let config = fig3_config(&scenario, protocol);
        let timed = time_cell(repeats, || {
            simulate(&config, &registry, &families, NoopSink, NoopHostProfiler)
                .expect("engine runs")
        });
        oracle::verify(&timed.report).expect("serializable");
        if protocol == ProtocolKind::Lotec {
            lotec_plain = Some((timed.min_ns, chain_hash(&timed.report, &registry)));
            lotec_static_report = Some(timed.report.clone());
        }
        let events = timed.report.stats.sim_events;
        println!(
            "  fig3/{protocol:<6} min {:>12} ns  mean {:>12} ns  {:>8} events  {:>10} events/s",
            timed.min_ns,
            timed.mean_ns,
            events,
            events_per_sec(events, timed.min_ns)
        );
        let label = format!("fig3/{protocol}");
        engine_section.push((label.clone(), Json::obj(cell_json(&timed))));
        fingerprint_cells.push((label, cell_fingerprint(&timed.report, &registry)));
    }
    {
        let config = SystemConfig {
            faults: chaos_faults(),
            ..fig3_config(&scenario, ProtocolKind::Lotec)
        };
        let timed = time_cell(repeats, || {
            simulate(&config, &registry, &families, NoopSink, NoopHostProfiler)
                .expect("chaos cell runs")
        });
        oracle::verify(&timed.report).expect("serializable under faults");
        let events = timed.report.stats.sim_events;
        println!(
            "  chaos/LOTEC  min {:>12} ns  mean {:>12} ns  {:>8} events  {:>10} events/s",
            timed.min_ns,
            timed.mean_ns,
            events,
            events_per_sec(events, timed.min_ns)
        );
        let label = "chaos/LOTEC/drop=0.10".to_string();
        engine_section.push((label.clone(), Json::obj(cell_json(&timed))));
        fingerprint_cells.push((label, cell_fingerprint(&timed.report, &registry)));
    }

    // Adaptive-prediction sweep: static vs adaptive LOTEC on the
    // zipf-skewed fig3 scenario. The static side reuses the fig3/LOTEC
    // cell above (identical config); the adaptive side learns profiles,
    // coalesces gather requests, and batches demand fetches — the sweep
    // records the bytes/messages deltas and enforces the headline claim:
    // fewer bytes on the wire, zero oracle violations.
    let adaptive_sweep = {
        let static_report = lotec_static_report.expect("LOTEC static cell ran");
        let config = SystemConfig {
            adaptive: AdaptiveConfig::on(),
            ..fig3_config(&scenario, ProtocolKind::Lotec)
        };
        let timed = time_cell(repeats, || {
            simulate(&config, &registry, &families, NoopSink, NoopHostProfiler)
                .expect("adaptive cell runs")
        });
        oracle::verify(&timed.report).expect("adaptive run stays serializable");
        let events = timed.report.stats.sim_events;
        println!(
            "  fig3/LOTEC+adaptive min {:>12} ns  mean {:>12} ns  {:>8} events  {:>10} events/s",
            timed.min_ns,
            timed.mean_ns,
            events,
            events_per_sec(events, timed.min_ns)
        );
        let label = "fig3/LOTEC+adaptive".to_string();
        engine_section.push((label.clone(), Json::obj(cell_json(&timed))));
        fingerprint_cells.push((label, cell_fingerprint(&timed.report, &registry)));

        let side = |report: &RunReport, cfg: &SystemConfig| {
            Json::obj(vec![
                ("total_bytes", Json::U64(report.traffic.total().bytes)),
                ("total_messages", Json::U64(report.traffic.total().messages)),
                (
                    "page_payload_bytes",
                    Json::U64(report.traffic.page_payload_bytes(&cfg.sizes, cfg.page_size)),
                ),
                ("demand_fetches", Json::U64(report.stats.demand_fetches)),
                (
                    "profile_expansions",
                    Json::U64(report.stats.profile_expansions),
                ),
                ("profile_shrinks", Json::U64(report.stats.profile_shrinks)),
                ("makespan_ns", Json::U64(report.stats.makespan.as_nanos())),
            ])
        };
        let static_config = fig3_config(&scenario, ProtocolKind::Lotec);
        let static_bytes = static_report.traffic.total().bytes;
        let adaptive_bytes = timed.report.traffic.total().bytes;
        assert!(
            adaptive_bytes < static_bytes,
            "adaptive prediction must reduce bytes on the skewed preset \
             (static {static_bytes}, adaptive {adaptive_bytes})"
        );
        println!(
            "  adaptive sweep: bytes {static_bytes} -> {adaptive_bytes} \
             ({:.1}% saved), demand fetches {} -> {}",
            100.0 * (static_bytes - adaptive_bytes) as f64 / static_bytes as f64,
            static_report.stats.demand_fetches,
            timed.report.stats.demand_fetches,
        );
        Json::obj(vec![
            ("scenario", Json::str(&scenario.name)),
            ("window", Json::U64(u64::from(config.adaptive.window))),
            ("static", side(&static_report, &static_config)),
            ("adaptive", side(&timed.report, &config)),
            ("bytes_saved", Json::U64(static_bytes - adaptive_bytes)),
            (
                "bytes_saved_frac",
                Json::F64((static_bytes - adaptive_bytes) as f64 / static_bytes as f64),
            ),
        ])
    };

    // Probe-overhead cell: the same LOTEC fig3 run with a recording sink
    // riding along. The simulated outputs must be identical to the
    // NoopSink cell (asserted via the chain hash); the timing ratio is
    // the cost of recording, tracked in EXPERIMENTS.md.
    {
        let config = fig3_config(&scenario, ProtocolKind::Lotec);
        let timed = time_cell(repeats, || {
            let mut sink = RecordingSink::new();
            simulate(&config, &registry, &families, &mut sink, NoopHostProfiler)
                .expect("probed run")
        });
        let (plain_min_ns, plain_hash) = lotec_plain.expect("LOTEC plain cell ran");
        assert_eq!(
            chain_hash(&timed.report, &registry),
            plain_hash,
            "recording perturbed the simulation"
        );
        let events = timed.report.stats.sim_events;
        let overhead = timed.min_ns as f64 / plain_min_ns.max(1) as f64;
        println!(
            "  obs/LOTEC    min {:>12} ns  mean {:>12} ns  {:>8} events  {overhead:>9.2}x vs NoopSink",
            timed.min_ns, timed.mean_ns, events,
        );
        let label = "fig3/LOTEC+recording".to_string();
        let mut fields = cell_json(&timed);
        fields.push(("overhead_vs_noop", Json::F64(overhead)));
        engine_section.push((label.clone(), Json::obj(fields)));
        fingerprint_cells.push((label, cell_fingerprint(&timed.report, &registry)));
    }

    // Host-profile cell: the LOTEC fig3 run once more, this time under a
    // WallProfiler (NoopSink, so the sim-time plane stays off). The
    // region self-times must cover ≥ 90 % of the cell's wall time —
    // otherwise the profiler has a blind spot — and the simulated
    // outputs must again be untouched.
    let host_profile = {
        let config = fig3_config(&scenario, ProtocolKind::Lotec);
        let (_, plain_hash) = lotec_plain.expect("LOTEC plain cell ran");
        // Min-of-repeats, like every timed cell: keep the profile of the
        // least-disturbed run so region shares reflect the engine, not a
        // noise burst that landed inside one region's scope.
        let mut best: Option<(u64, lotec_obs::HostProfile, alloc::AllocSnapshot)> = None;
        for _ in 0..repeats {
            let mut prof = WallProfiler::new();
            let alloc_before = alloc::snapshot();
            let wall_start = Instant::now();
            let report =
                simulate(&config, &registry, &families, NoopSink, &mut prof).expect("profiled run");
            let wall_ns = wall_start.elapsed().as_nanos() as u64;
            let alloc_delta = alloc::snapshot().delta_since(&alloc_before);
            assert_eq!(
                chain_hash(&report, &registry),
                plain_hash,
                "host profiling perturbed the simulation"
            );
            if best.as_ref().is_none_or(|(w, _, _)| wall_ns < *w) {
                best = Some((wall_ns, prof.into_profile(), alloc_delta));
            }
        }
        let (wall_ns, profile, alloc_delta) = best.expect("at least one profiled run");
        let coverage = profile.total_self_ns() as f64 / wall_ns.max(1) as f64;
        println!(
            "  host profile: {wall_ns} ns wall, {:.1}% covered",
            coverage * 100.0
        );
        let mut rows: Vec<_> = profile.iter().filter(|(_, s)| s.count > 0).collect();
        rows.sort_by_key(|r| std::cmp::Reverse(r.1.self_ns));
        for (region, stat) in &rows {
            println!(
                "    {:<14} {:>12} ns self  {:>9} calls  {:>5.1}%",
                region.name(),
                stat.self_ns,
                stat.count,
                100.0 * stat.self_ns as f64 / profile.total_self_ns().max(1) as f64
            );
        }
        assert!(
            coverage >= 0.90,
            "host-profile regions cover only {:.1}% of wall time; \
             a hot region is missing its scope",
            coverage * 100.0
        );
        // The deadlock gate used to rebuild the waits-for graph from an
        // O(entries) scan on every enqueue — ~86% of the full-fig3 wall.
        // With the graph maintained incrementally in the lock table the
        // gate is an O(1) in-edge lookup plus a forward walk before any
        // search; its share must stay collapsed. (The cap is a *share*,
        // so it creeps up whenever other regions get faster — the hot-
        // loop flattening shrank the denominator by ~20% with the gate's
        // absolute time unchanged, hence 40% rather than 30%.)
        let deadlock_share = profile.self_share(lotec_obs::HostRegion::DeadlockGate);
        println!(
            "    deadlock_gate share: {:.1}% of explained self-time",
            deadlock_share * 100.0
        );
        assert!(
            deadlock_share < 0.40,
            "deadlock gate consumes {:.1}% of profiled self-time; the \
             incremental waits-for graph should keep it well under 40%",
            deadlock_share * 100.0
        );
        let alloc_json = if alloc::profiling_enabled() {
            println!(
                "    allocator: {} allocs, {} bytes (LOTEC_PROFILE_ALLOC=1)",
                alloc_delta.total_allocs(),
                alloc_delta.total_bytes()
            );
            alloc_delta.to_json()
        } else {
            Json::Null
        };
        Json::obj(vec![
            ("wall_ns", Json::U64(wall_ns)),
            ("coverage", Json::F64(coverage)),
            ("profile", profile.to_json()),
            ("alloc", alloc_json),
        ])
    };

    // Sweep cell: independent seeded LOTEC runs of the (quick) fig3
    // workload, serial vs. the parallel sweep runner. Both orders must
    // produce identical simulated outputs — parallelism buys wall-clock
    // only. The parallel side runs under the profiled runner, whose
    // per-worker busy/idle split and cell counts explain any speedup
    // shortfall (see EXPERIMENTS.md).
    let sweep_scenario = presets::quick(presets::fig3());
    let run_seed = |seed: u64| {
        let mut s = sweep_scenario.clone();
        s.config.seed = seed;
        let (reg, fams) = s.generate().expect("sweep workload generates");
        let config = SystemConfig {
            protocol: ProtocolKind::Lotec,
            seed,
            num_nodes: s.config.num_nodes,
            page_size: s.config.schema.page_size,
            ..SystemConfig::default()
        };
        let report = simulate(&config, &reg, &fams, NoopSink, NoopHostProfiler).expect("sweep run");
        chain_hash(&report, &reg)
    };
    let serial_start = Instant::now();
    let serial_hashes = runner::run_indexed_on(1, sweep_seeds as usize, |i| run_seed(i as u64));
    let serial_ns = serial_start.elapsed().as_nanos();
    let parallel_start = Instant::now();
    let (parallel_hashes, telemetry) =
        runner::run_indexed_profiled(sweep_seeds as usize, |i| run_seed(i as u64));
    let parallel_ns = parallel_start.elapsed().as_nanos();
    assert_eq!(
        serial_hashes, parallel_hashes,
        "parallel sweep changed simulated outputs"
    );
    let runs_per_sec = |ns: u128| {
        if ns == 0 {
            0.0
        } else {
            sweep_seeds as f64 * 1e9 / ns as f64
        }
    };
    let speedup = serial_ns as f64 / parallel_ns.max(1) as f64;
    println!(
        "  sweep: {} runs  serial {:.3} s ({:.2} runs/s)  parallel {:.3} s ({:.2} runs/s)  {speedup:.2}x on {} threads",
        sweep_seeds,
        serial_ns as f64 / 1e9,
        runs_per_sec(serial_ns),
        parallel_ns as f64 / 1e9,
        runs_per_sec(parallel_ns),
        runner::threads()
    );
    println!(
        "  sweep workers: {:.1}% mean utilization",
        telemetry.utilization() * 100.0
    );
    for (i, t) in telemetry.threads.iter().enumerate() {
        println!(
            "    worker {i}: {:>2} cells  busy {:>12} ns / wall {:>12} ns  ({:>5.1}%)",
            t.cells,
            t.busy_ns,
            t.wall_ns,
            100.0 * t.busy_ns as f64 / t.wall_ns.max(1) as f64
        );
    }
    let telemetry_json = Json::obj(vec![
        ("utilization", Json::F64(telemetry.utilization())),
        ("total_busy_ns", Json::U64(telemetry.total_busy_ns())),
        ("wall_ns", Json::U64(telemetry.wall_ns)),
        (
            "workers",
            Json::Arr(
                telemetry
                    .threads
                    .iter()
                    .map(|t| {
                        Json::obj(vec![
                            ("cells", Json::U64(t.cells)),
                            ("busy_ns", Json::U64(t.busy_ns)),
                            ("wall_ns", Json::U64(t.wall_ns)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);

    // Micro cells: the calendar queue against the reference heap, and the
    // lock table's uncontended/contended paths — the individually gated
    // counterparts of the dispatch/lock_acquire/lock_release regions.
    let queue_bench = measure_queue_cell();
    println!(
        "  queue micro: calendar {:>10} ops/s  heap {:>10} ops/s  ({:.2}x)",
        events_per_sec(queue_bench.ops, queue_bench.calendar.min_ns),
        events_per_sec(queue_bench.ops, queue_bench.heap.min_ns),
        queue_bench.heap.min_ns as f64 / queue_bench.calendar.min_ns.max(1) as f64
    );
    let lock_paths_bench = measure_lock_paths_cell();
    println!(
        "  lock micro:  uncontended {:>10} ops/s  contended {:>10} grants/s  (batch {})",
        events_per_sec(
            lock_paths_bench.uncontended_ops,
            lock_paths_bench.uncontended.min_ns
        ),
        events_per_sec(
            lock_paths_bench.contended_grants,
            lock_paths_bench.contended.min_ns
        ),
        CONTENDED_READERS
    );

    // Gate cell: fixed-size, measured identically in quick and full mode
    // so the CI gate compares like-for-like against this baseline. The
    // allocs-per-event ride-along (one extra run, accounting forced on)
    // is the soft gate's baseline.
    let gate_section = {
        let timed = measure_gate_cell();
        let events = timed.report.stats.sim_events;
        let (allocs, alloc_bytes, allocs_per_event) = measure_gate_alloc();
        println!(
            "  gate cell:   min {:>12} ns  {:>8} events  {:>10} events/s  {allocs_per_event:.3} allocs/event",
            timed.min_ns,
            events,
            events_per_sec(events, timed.min_ns)
        );
        // The same cell with the flight recorder armed: simulated outputs
        // must be untouched, and the committed overhead ratio documents
        // what "always-on" costs (budget 1.05x, enforced softly in
        // --gate).
        let recorded = measure_gate_cell_recorded();
        assert_eq!(
            recorded.report.final_chains, timed.report.final_chains,
            "flight recorder perturbed the gate cell's simulated outputs"
        );
        let recorder_ratio = recorded.min_ns as f64 / timed.min_ns.max(1) as f64;
        println!(
            "  gate cell+recorder: min {:>12} ns  {:>10} events/s  {recorder_ratio:>6.3}x vs recorder-off",
            recorded.min_ns,
            events_per_sec(recorded.report.stats.sim_events, recorded.min_ns),
        );
        let p50 = timed
            .report
            .stats
            .latency_quantile(0.5)
            .map_or(0, |d| d.as_nanos());
        let p99 = timed
            .report
            .stats
            .latency_quantile(0.99)
            .map_or(0, |d| d.as_nanos());
        let mut fields = vec![
            ("scenario", Json::str("fig3-quick/LOTEC")),
            ("repeats", Json::U64(GATE_REPEATS as u64)),
        ];
        fields.extend(cell_json(&timed));
        fields.extend([
            ("latency_p50_ns", Json::U64(p50)),
            ("latency_p99_ns", Json::U64(p99)),
            ("allocs", Json::U64(allocs)),
            ("alloc_bytes", Json::U64(alloc_bytes)),
            ("allocs_per_event", Json::F64(allocs_per_event)),
            (
                "recorder",
                Json::obj(vec![
                    ("min_ns", Json::U64(recorded.min_ns as u64)),
                    (
                        "events_per_sec",
                        Json::U64(events_per_sec(
                            recorded.report.stats.sim_events,
                            recorded.min_ns,
                        )),
                    ),
                    ("overhead_vs_off", Json::F64(recorder_ratio)),
                ]),
            ),
        ]);
        Json::obj(fields)
    };

    let json = Json::obj(vec![
        ("schema", Json::U64(SCHEMA)),
        ("quick", Json::Bool(quick)),
        ("repeats", Json::U64(repeats as u64)),
        ("threads", Json::U64(runner::threads() as u64)),
        ("engine", Json::Obj(engine_section)),
        ("adaptive_sweep", adaptive_sweep),
        ("host_profile", host_profile),
        (
            "sweep",
            Json::obj(vec![
                ("runs", Json::U64(sweep_seeds)),
                ("serial_ns", Json::U64(serial_ns as u64)),
                ("parallel_ns", Json::U64(parallel_ns as u64)),
                ("serial_runs_per_sec", Json::F64(runs_per_sec(serial_ns))),
                (
                    "parallel_runs_per_sec",
                    Json::F64(runs_per_sec(parallel_ns)),
                ),
                ("speedup", Json::F64(speedup)),
                ("telemetry", telemetry_json),
            ]),
        ),
        ("queue", queue_json(&queue_bench)),
        ("lock_paths", lock_paths_json(&lock_paths_bench)),
        ("gate", gate_section),
    ]);
    std::fs::write("BENCH_perf.json", json.render_pretty()).expect("write BENCH_perf.json");
    println!("wrote BENCH_perf.json");

    if let Some(path) = fingerprint_out {
        let mut cells = fingerprint_cells;
        cells.push((
            "sweep/chain_hashes".to_string(),
            Json::Arr(serial_hashes.into_iter().map(Json::U64).collect()),
        ));
        std::fs::write(&path, Json::Obj(cells).render_pretty())
            .unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
        println!("wrote fingerprint to {}", path.display());
    }
}
