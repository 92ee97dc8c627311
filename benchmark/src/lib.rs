//! End-to-end and per-layer benchmark of the LOTEC simulator.
//!
//! Four workloads, each a zoo scenario run under LOTEC as a closed loop
//! with one client: a *cell* — generate → `Engine::new` → `Engine::run` →
//! `oracle::verify` (→ replay) → teardown — starts when the previous one
//! has finished. Inside a cell the simulated load is open-loop, at the
//! scenario's own arrival model. Every cell draws its inputs from a seed
//! mixed from the scenario seed, the run's `--seed` and the cell index;
//! the engine sees only the generated registry and families.
//!
//! A run does one untimed warm-up cell, then timed cells. The first
//! [`Workload::cells`] timed cells are the *sim cells*: the simulated
//! (`sim_*`) metrics and the per-layer counts come from exactly those, so
//! they repeat bit for bit for a fixed seed. Host-time metrics take the
//! median over every timed cell; timing continues past the sim cells
//! until the requested number of seconds has passed.
//!
//! An untraced run reports the end-to-end metrics. A traced run pairs
//! every cell with a second, instrumented run of the same inputs —
//! `WallProfiler` inside `Engine::run`, `ProfiledSink` around the flight
//! recorder, allocation counting on — checks the pair simulated the same
//! thing, and reports the per-layer metrics.

pub mod compare;
pub mod spans;
mod stats;

use std::fmt;
use std::time::Instant;

use lotec_core::replay::replay_trace;
use lotec_core::{oracle, CoreError, Engine, FamilySpec, ProtocolKind, RunReport, SystemConfig};
use lotec_mem::mix;
use lotec_object::ObjectRegistry;
use lotec_obs::{
    alloc, EventSink, FlightRecorder, HostProfile, HostProfiler, HostRegion, NoopHostProfiler,
    NoopSink, ProfiledSink, WallProfiler,
};
use lotec_workload::zoo::{self, Tier, ZooScenario};

use spans::SpanLog;

/// One benchmark workload: a zoo scenario plus how each cell runs it.
#[derive(Debug)]
pub struct Workload {
    /// Workload name, as passed to `--workload`.
    pub name: &'static str,
    scenario: &'static str,
    tier: Tier,
    /// Divides the tier's objects, families and tenants.
    shrink: u32,
    adaptive: bool,
    recorder: bool,
    replay: bool,
    /// Timed cells the simulated metrics come from.
    pub cells: usize,
}

// Every cell draws a fresh class schema, and schemas differ a lot in
// pages touched per commit, so a run must pool many cells for its
// simulated metrics to agree across seeds; `cells` is sized for that
// (each workload's sim cells take 8-17 s). It is also why `tenant_scale`
// runs a sixteenth of the zoo's full tier: at 1M objects a cell took
// ~4 s, and with ~4 schemas per run the spread of its simulated metrics
// across seeds reached 22 %.

/// The workloads, in run order.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "tenant_scale",
        scenario: "multi_tenant",
        tier: Tier::Full,
        shrink: 16,
        adaptive: false,
        recorder: false,
        replay: true,
        cells: 100,
    },
    Workload {
        name: "deadlock_storm",
        scenario: "wide_trees",
        tier: Tier::Quick,
        shrink: 1,
        adaptive: false,
        recorder: false,
        replay: false,
        cells: 300,
    },
    Workload {
        name: "scaleout_steady",
        scenario: "scaleout",
        tier: Tier::Full,
        shrink: 1,
        adaptive: false,
        recorder: false,
        replay: false,
        cells: 60,
    },
    Workload {
        name: "hotspot_recorded",
        scenario: "hotspot_migration",
        tier: Tier::Full,
        shrink: 1,
        adaptive: true,
        recorder: true,
        replay: false,
        cells: 36,
    },
];

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    /// The zoo scenario this workload runs, at its base seed.
    fn scenario(&self) -> ZooScenario {
        let mut s = zoo::by_name(self.scenario, self.tier).expect("workload names a zoo scenario");
        s.config.num_objects /= self.shrink;
        s.config.num_families /= self.shrink;
        s.traffic.tenants /= self.shrink;
        s.traffic.hot_write_tenants /= self.shrink;
        s
    }
}

/// A metric's definition. `BENCHMARK.json` lists the same names and
/// units, with each metric's direction and the bound chosen by
/// calibration.
#[derive(Debug, Clone, Copy)]
pub(crate) struct MetricDef {
    /// Metric name.
    pub name: &'static str,
    /// Unit the value is printed in.
    pub unit: &'static str,
    /// Smallest bound calibration may propose (end-to-end metrics only).
    pub default_bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        default_bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        default_bound: None,
    }
}

/// End-to-end metrics, measured by the untraced run.
pub(crate) const END_TO_END: [MetricDef; 9] = [
    e2e("families_per_s", "1/s", 0.10),
    e2e("events_per_s", "1/s", 0.10),
    e2e("setup_s", "s", 0.10),
    e2e("peak_rss_mb", "MiB", 0.05),
    e2e("sim_commit_mean_ms", "ms", 0.0),
    e2e("sim_commit_p99_ms", "ms", 0.0),
    e2e("sim_bytes_per_commit", "bytes/commit", 0.0),
    e2e("sim_msgs_per_commit", "msgs/commit", 0.0),
    e2e("sim_attempts_per_commit", "attempts/commit", 0.0),
];

/// Per-layer metrics, measured by the traced run.
pub(crate) const PER_LAYER: [MetricDef; 31] = [
    layer("workload.generate_s", "s"),
    layer("core.engine_new_s", "s"),
    layer("core.engine_run_s", "s"),
    layer("core.oracle_s", "s"),
    layer("core.replay_s", "s"),
    layer("core.teardown_s", "s"),
    layer("sim.event_pop_s", "s"),
    layer("sim.event_push_s", "s"),
    layer("core.dispatch_s", "s"),
    layer("core.report_s", "s"),
    layer("txn.lock_acquire_s", "s"),
    layer("txn.lock_release_s", "s"),
    layer("txn.deadlock_gate_s", "s"),
    layer("net.page_transfer_s", "s"),
    layer("mem.page_install_s", "s"),
    layer("mem.cow_write_s", "s"),
    layer("obs.record_s", "s"),
    layer("sim.events", "count"),
    layer("txn.lock_ops", "count"),
    layer("txn.deadlock_gate_calls", "count"),
    layer("mem.page_installs", "count"),
    layer("obs.records", "count"),
    layer("core.commit_ratio", "ratio"),
    layer("object.demand_fetches_per_commit", "1/commit"),
    layer("object.profile_updates_per_commit", "1/commit"),
    layer("alloc.allocs_per_event", "1/event"),
    layer("txn.lock_wait_ms", "ms/commit"),
    layer("net.transfer_wait_ms", "ms/commit"),
    layer("core.backoff_ms", "ms/commit"),
    layer("trace.coverage", "ratio"),
    layer("trace.overhead", "ratio"),
];

/// Profiler regions reported as per-layer self time, by metric name.
const REGION_METRICS: [(&str, HostRegion); 10] = [
    ("sim.event_pop_s", HostRegion::EventPop),
    ("sim.event_push_s", HostRegion::EventPush),
    ("core.dispatch_s", HostRegion::Dispatch),
    ("core.report_s", HostRegion::Report),
    ("txn.lock_acquire_s", HostRegion::LockAcquire),
    ("txn.lock_release_s", HostRegion::LockRelease),
    ("txn.deadlock_gate_s", HostRegion::DeadlockGate),
    ("net.page_transfer_s", HostRegion::PageTransfer),
    ("mem.page_install_s", HostRegion::PageInstall),
    ("mem.cow_write_s", HostRegion::CowWrite),
];

/// Spans reported as per-layer seconds, by metric name.
const SPAN_METRICS: [(&str, &str); 6] = [
    ("workload.generate_s", "workload.generate"),
    ("core.engine_new_s", "core.engine_new"),
    ("core.engine_run_s", "core.engine_run"),
    ("core.oracle_s", "core.oracle"),
    ("core.replay_s", "core.replay"),
    ("core.teardown_s", "core.teardown"),
];

/// Protocols a replaying workload replays, with their span labels.
const REPLAYED: [(ProtocolKind, &str); 4] = [
    (ProtocolKind::Cotec, "COTEC"),
    (ProtocolKind::Otec, "OTEC"),
    (ProtocolKind::Lotec, "LOTEC"),
    (ProtocolKind::ReleaseConsistency, "RC"),
];

/// How to run a workload.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// The run's seed; with the scenario seed and cell index it fixes
    /// every cell's inputs.
    pub seed: u64,
    /// Keep timing cells, after the sim cells, until this many seconds
    /// of timed cells have passed.
    pub seconds: f64,
    /// Pair every cell with an instrumented run and report per-layer
    /// metrics.
    pub trace: bool,
    /// One timed cell and no warm-up.
    pub smoke: bool,
}

/// Everything a cell simulated. A pure function of the workload and the
/// cell's seed: two runs of one cell, traced or not, must agree on all of
/// it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimOutcome {
    /// Families the generator produced.
    pub generated: u64,
    /// Families that committed.
    pub committed: u64,
    /// Deadlock-victim restarts.
    pub restarts: u64,
    /// Simulator events delivered.
    pub events: u64,
    /// Bytes on the engine's traffic ledger.
    pub bytes: u64,
    /// Messages on the engine's traffic ledger.
    pub messages: u64,
    /// Lock acquisitions (local, global and queued).
    pub lock_ops: u64,
    /// LOTEC demand fetches (prediction misses).
    pub demand_fetches: u64,
    /// Adaptive profile expansions plus shrinks.
    pub profile_updates: u64,
    /// Flight-recorder records (0 without a recorder).
    pub records: u64,
    /// Sim-time lock wait over all families, ns.
    pub lock_wait_ns: u64,
    /// Sim-time page-transfer wait over all families, ns.
    pub transfer_wait_ns: u64,
    /// Sim-time restart backoff over all families, ns.
    pub backoff_ns: u64,
    /// Commit latency of every committed family, ns, in workload order.
    pub latencies_ns: Vec<u64>,
    /// Fold of the schedule shape and every final page chain.
    pub fingerprint: u64,
}

/// Host-plane measurements only an instrumented cell has.
struct Instruments {
    /// Engine self-profile.
    profile: HostProfile,
    /// Time spent recording into the flight recorder, ns.
    record_ns: u64,
    /// Allocations made inside `Engine::run`.
    allocs: u64,
}

/// One finished cell.
struct Cell {
    /// The cell id its spans carry.
    id: u32,
    sim: SimOutcome,
    /// Profiler data, for instrumented cells.
    instruments: Option<Instruments>,
}

/// A named metric value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as `BENCHMARK.json` lists it.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// A failed cell: the benchmark stops at the first one.
#[derive(Debug)]
pub enum BenchError {
    /// The zoo generator rejected the scenario.
    Generate(String),
    /// The engine returned an error.
    Engine(CoreError),
    /// The serializability oracle found a violation.
    Oracle(CoreError),
    /// A cross-check on the cell's outputs failed.
    Check(String),
}

impl fmt::Display for BenchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BenchError::Generate(e) => write!(f, "generation failed: {e}"),
            BenchError::Engine(e) => write!(f, "engine error: {e}"),
            BenchError::Oracle(e) => write!(f, "oracle violation: {e}"),
            BenchError::Check(e) => write!(f, "output check failed: {e}"),
        }
    }
}

impl std::error::Error for BenchError {}

/// The result of running one workload.
#[derive(Debug)]
pub struct RunResult {
    /// Families generated across the timed cells.
    pub attempted: u64,
    /// Of those, families that did not commit.
    pub failed: u64,
    /// End-to-end metrics (from the uninstrumented cells).
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics (traced runs only).
    pub per_layer: Option<Vec<Metric>>,
    /// Simulated outcomes of the sim cells (the instrumented ones in a
    /// traced run).
    pub sim: Vec<SimOutcome>,
    /// Every span the run recorded.
    pub spans: SpanLog,
}

/// Seed of cell `index` of a run: mixes the scenario's own seed, the
/// run's seed and the index, so runs with different seeds share no cell.
fn cell_seed(scenario_seed: u64, seed: u64, index: u64) -> u64 {
    mix(mix(mix(0, scenario_seed), seed), index)
}

struct Runner {
    workload: &'static Workload,
    scenario: ZooScenario,
    seed: u64,
    recorder: Option<FlightRecorder>,
    spans: SpanLog,
    next_id: u32,
}

impl Runner {
    fn new(workload: &'static Workload, seed: u64) -> Self {
        let scenario = workload.scenario();
        // Always-on capture: the ring lives for the process, so allocating
        // it is not a per-cell cost.
        let recorder = workload
            .recorder
            .then(|| FlightRecorder::new(scenario.system_config().flight_recorder.slots as usize));
        Runner {
            workload,
            scenario,
            seed,
            recorder,
            spans: SpanLog::new(),
            next_id: 0,
        }
    }

    fn cell(&mut self, index: u64, traced: bool) -> Result<Cell, BenchError> {
        let id = self.next_id;
        self.next_id += 1;
        let mut scenario = self.scenario.clone();
        scenario.config.seed = cell_seed(self.scenario.config.seed, self.seed, index);
        // Per-family phase rows give exact latency quantiles; the flag
        // only changes end-of-run bookkeeping, never the simulation.
        let config = SystemConfig {
            per_family_phases: true,
            ..scenario.cell_config(ProtocolKind::Lotec, self.workload.adaptive)
        };
        let spans = &mut self.spans;
        spans.enter("cell", id, None);
        let (registry, families) = spans
            .time("workload.generate", id, || scenario.generate())
            .map_err(|e| BenchError::Generate(e.to_string()))?;

        let mut prof = WallProfiler::new();
        let mut record_prof = WallProfiler::new();
        let (report, allocs) = match (traced, self.recorder.as_mut()) {
            (false, None) => drive(
                spans,
                id,
                &config,
                &registry,
                &families,
                NoopSink,
                NoopHostProfiler,
            ),
            (true, None) => drive(
                spans, id, &config, &registry, &families, NoopSink, &mut prof,
            ),
            (false, Some(rec)) => {
                rec.clear();
                drive(
                    spans,
                    id,
                    &config,
                    &registry,
                    &families,
                    rec,
                    NoopHostProfiler,
                )
            }
            (true, Some(rec)) => {
                rec.clear();
                let sink = ProfiledSink::new(rec, &mut record_prof);
                drive(spans, id, &config, &registry, &families, sink, &mut prof)
            }
        }?;
        spans
            .time("core.oracle", id, || oracle::verify(&report))
            .map_err(BenchError::Oracle)?;
        let mut replays = Vec::new();
        if self.workload.replay {
            for (kind, label) in REPLAYED {
                replays.push(spans.time_arg("core.replay", id, Some(label), || {
                    replay_trace(kind, &report.trace, &registry, &config)
                }));
            }
            // The engine ran LOTEC, so replaying its schedule under LOTEC
            // must charge exactly the engine's own traffic.
            let lotec = replays[2].total();
            if lotec != report.traffic.total() {
                return Err(BenchError::Check(format!(
                    "LOTEC replay charged {lotec:?}, the engine {:?}",
                    report.traffic.total()
                )));
            }
        }
        let records = self.recorder.as_ref().map_or(0, FlightRecorder::recorded);
        let sim = sim_outcome(&report, families.len(), records)?;
        spans.time("core.teardown", id, move || {
            drop((report, replays, families, registry));
        });
        spans.exit();
        let instruments = traced.then(|| Instruments {
            profile: prof.into_profile(),
            record_ns: record_prof
                .into_profile()
                .region(HostRegion::ObsRecord)
                .self_ns,
            allocs,
        });
        Ok(Cell {
            id,
            sim,
            instruments,
        })
    }
}

/// Builds and runs the engine inside `core.engine_new` / `core.engine_run`
/// spans. With a recording profiler, allocations inside `Engine::run` are
/// counted (the count stays 0 unless `CountingAlloc` is the global
/// allocator).
fn drive<S: EventSink, P: HostProfiler>(
    spans: &mut SpanLog,
    id: u32,
    config: &SystemConfig,
    registry: &ObjectRegistry,
    families: &[FamilySpec],
    sink: S,
    prof: P,
) -> Result<(RunReport, u64), BenchError> {
    let counting = prof.enabled();
    let engine = spans
        .time("core.engine_new", id, || {
            Engine::with_instruments(config, registry, families, sink, prof)
        })
        .map_err(BenchError::Engine)?;
    let (report, allocs) = spans.time("core.engine_run", id, || {
        alloc::force_profiling(Some(counting));
        let before = alloc::snapshot();
        let report = engine.run();
        let allocs = alloc::snapshot().delta_since(&before).total_allocs();
        alloc::force_profiling(Some(false));
        (report, allocs)
    });
    Ok((report.map_err(BenchError::Engine)?, allocs))
}

fn sim_outcome(
    report: &RunReport,
    generated: usize,
    records: u64,
) -> Result<SimOutcome, BenchError> {
    let s = &report.stats;
    let latencies_ns: Vec<u64> = s
        .phases
        .per_family
        .iter()
        .filter(|f| f.committed)
        .map(|f| f.times.total().as_nanos())
        .collect();
    // The phase rows tile each family's arrival-to-commit window, so they
    // must reproduce the engine's own latency sketch exactly.
    let sum: u128 = latencies_ns.iter().map(|&v| u128::from(v)).sum();
    if latencies_ns.len() as u64 != s.latency_sketch.count() || sum != s.latency_sketch.sum() {
        return Err(BenchError::Check(format!(
            "{} phase-row latencies summing to {sum} ns disagree with the sketch's {} summing to {}",
            latencies_ns.len(),
            s.latency_sketch.count(),
            s.latency_sketch.sum()
        )));
    }
    if s.committed_families != s.latency_sketch.count() {
        return Err(BenchError::Check(format!(
            "{} commits but {} latency samples",
            s.committed_families,
            s.latency_sketch.count()
        )));
    }
    let mut fingerprint = [
        s.makespan.as_nanos(),
        s.total_latency.as_nanos(),
        s.deadlocks,
        report.trace.num_grants() as u64,
        report.trace.num_commits() as u64,
    ]
    .into_iter()
    .fold(0, mix);
    for (&(object, page), &chain) in &report.final_chains {
        fingerprint = mix(
            mix(
                mix(fingerprint, u64::from(object.index())),
                u64::from(page.get()),
            ),
            chain,
        );
    }
    let traffic = report.traffic.total();
    let phases = &s.phases.aggregate;
    Ok(SimOutcome {
        generated: generated as u64,
        committed: s.committed_families,
        restarts: s.restarts,
        events: s.sim_events,
        bytes: traffic.bytes,
        messages: traffic.messages,
        lock_ops: s.total_lock_ops(),
        demand_fetches: s.demand_fetches,
        profile_updates: s.profile_expansions + s.profile_shrinks,
        records,
        lock_wait_ns: phases.lock_wait.as_nanos(),
        transfer_wait_ns: phases.transfer_wait.as_nanos(),
        backoff_ns: phases.backoff.as_nanos(),
        latencies_ns,
        fingerprint,
    })
}

/// Runs `workload` and reduces its cells to metrics.
///
/// # Errors
///
/// Returns the first cell's [`BenchError`]: an engine error, an oracle
/// violation, a failed output cross-check, or — in a traced run — an
/// instrumented cell that simulated something different from its
/// uninstrumented twin.
pub fn run_workload(workload: &'static Workload, opts: &Options) -> Result<RunResult, BenchError> {
    let mut runner = Runner::new(workload, opts.seed);
    if !opts.smoke {
        runner.cell(0, false)?;
    }
    let sim_cells = if opts.smoke { 1 } else { workload.cells };
    let start = Instant::now();
    let mut plain: Vec<Cell> = Vec::new();
    let mut traced: Vec<Cell> = Vec::new();
    let mut index = 1;
    while plain.len() < sim_cells || start.elapsed().as_secs_f64() < opts.seconds {
        let cell = runner.cell(index, false)?;
        if opts.trace {
            let twin = runner.cell(index, true)?;
            if twin.sim != cell.sim {
                return Err(BenchError::Check(format!(
                    "cell {index}: the instrumented run simulated something else"
                )));
            }
            traced.push(twin);
        }
        plain.push(cell);
        index += 1;
    }
    let measured = if opts.trace { &traced } else { &plain };
    let sim: Vec<SimOutcome> = measured[..sim_cells]
        .iter()
        .map(|c| c.sim.clone())
        .collect();
    let spans = runner.spans;
    let attempted = plain.iter().map(|c| c.sim.generated).sum();
    let failed = plain
        .iter()
        .map(|c| c.sim.generated - c.sim.committed)
        .sum();
    let end_to_end = end_to_end_metrics(&plain, &sim, &spans)?;
    let per_layer = opts
        .trace
        .then(|| per_layer_metrics(&plain, &traced, &sim, &spans));
    Ok(RunResult {
        attempted,
        failed,
        end_to_end,
        per_layer,
        sim,
        spans,
    })
}

fn metric(defs: &[MetricDef], name: &'static str, value: f64) -> Metric {
    let def = defs
        .iter()
        .find(|d| d.name == name)
        .expect("metric is defined");
    Metric {
        name,
        value,
        unit: def.unit,
    }
}

fn median_of(cells: &[Cell], f: impl Fn(&Cell) -> f64) -> f64 {
    stats::median(&cells.iter().map(f).collect::<Vec<_>>())
}

fn sum_of(sim: &[SimOutcome], f: impl Fn(&SimOutcome) -> u64) -> f64 {
    sim.iter().map(f).sum::<u64>() as f64
}

fn events_per_s(cell: &Cell, spans: &SpanLog) -> f64 {
    cell.sim.events as f64 / spans.seconds(cell.id, "core.engine_run")
}

fn end_to_end_metrics(
    cells: &[Cell],
    sim: &[SimOutcome],
    spans: &SpanLog,
) -> Result<Vec<Metric>, BenchError> {
    let m = |name, value| metric(&END_TO_END, name, value);
    let mut latencies: Vec<u64> = sim
        .iter()
        .flat_map(|s| s.latencies_ns.iter().copied())
        .collect();
    latencies.sort_unstable();
    let p99_ms = stats::rank_quantile(&latencies, 0.99).map_or(f64::NAN, |ns| ns as f64 / 1e6);
    // A few cells in a hundred queue up far more than the rest, so the
    // per-commit ratios take the median over cells rather than pooling.
    let median_per_commit = |f: &dyn Fn(&SimOutcome) -> f64| {
        stats::median(
            &sim.iter()
                .map(|s| f(s) / s.committed as f64)
                .collect::<Vec<_>>(),
        )
    };
    let seconds = |c: &Cell, name| spans.seconds(c.id, name);
    Ok(vec![
        m(
            "families_per_s",
            median_of(cells, |c| c.sim.generated as f64 / seconds(c, "cell")),
        ),
        m("events_per_s", median_of(cells, |c| events_per_s(c, spans))),
        m(
            "setup_s",
            median_of(cells, |c| {
                seconds(c, "workload.generate") + seconds(c, "core.engine_new")
            }),
        ),
        m("peak_rss_mb", peak_rss_mib()?),
        // Sim-time latencies cluster on a few exact values (fixed message
        // costs), so the median jumps between clusters from seed to seed;
        // the mean does not.
        m(
            "sim_commit_mean_ms",
            median_per_commit(&|s| s.latencies_ns.iter().sum::<u64>() as f64 / 1e6),
        ),
        m("sim_commit_p99_ms", p99_ms),
        m(
            "sim_bytes_per_commit",
            median_per_commit(&|s| s.bytes as f64),
        ),
        m(
            "sim_msgs_per_commit",
            median_per_commit(&|s| s.messages as f64),
        ),
        m(
            "sim_attempts_per_commit",
            median_per_commit(&|s| (s.committed + s.restarts) as f64),
        ),
    ])
}

fn per_layer_metrics(
    plain: &[Cell],
    traced: &[Cell],
    sim: &[SimOutcome],
    spans: &SpanLog,
) -> Vec<Metric> {
    let m = |name, value| metric(&PER_LAYER, name, value);
    fn inst(c: &Cell) -> &Instruments {
        c.instruments
            .as_ref()
            .expect("traced cells carry instruments")
    }
    let sim_cells = &traced[..sim.len()];
    let mut out: Vec<Metric> = SPAN_METRICS
        .iter()
        .map(|&(name, span)| m(name, median_of(traced, |c| spans.seconds(c.id, span))))
        .collect();
    for (name, region) in REGION_METRICS {
        out.push(m(
            name,
            median_of(traced, |c| {
                inst(c).profile.region(region).self_ns as f64 / 1e9
            }),
        ));
    }
    out.push(m(
        "obs.record_s",
        median_of(traced, |c| inst(c).record_ns as f64 / 1e9),
    ));
    out.push(m(
        "sim.events",
        median_of(sim_cells, |c| c.sim.events as f64),
    ));
    out.push(m(
        "txn.lock_ops",
        median_of(sim_cells, |c| c.sim.lock_ops as f64),
    ));
    out.push(m(
        "txn.deadlock_gate_calls",
        median_of(sim_cells, |c| {
            inst(c).profile.region(HostRegion::DeadlockGate).count as f64
        }),
    ));
    out.push(m(
        "mem.page_installs",
        median_of(sim_cells, |c| {
            inst(c).profile.region(HostRegion::PageInstall).count as f64
        }),
    ));
    out.push(m(
        "obs.records",
        median_of(sim_cells, |c| c.sim.records as f64),
    ));
    let committed = sum_of(sim, |s| s.committed);
    let restarts = sum_of(sim, |s| s.restarts);
    out.push(m("core.commit_ratio", committed / (committed + restarts)));
    out.push(m(
        "object.demand_fetches_per_commit",
        sum_of(sim, |s| s.demand_fetches) / committed,
    ));
    out.push(m(
        "object.profile_updates_per_commit",
        sum_of(sim, |s| s.profile_updates) / committed,
    ));
    let allocs: u64 = sim_cells.iter().map(|c| inst(c).allocs).sum();
    out.push(m(
        "alloc.allocs_per_event",
        allocs as f64 / sum_of(sim, |s| s.events),
    ));
    let per_commit_ms = |ns: f64| ns / 1e6 / committed;
    out.push(m(
        "txn.lock_wait_ms",
        per_commit_ms(sum_of(sim, |s| s.lock_wait_ns)),
    ));
    out.push(m(
        "net.transfer_wait_ms",
        per_commit_ms(sum_of(sim, |s| s.transfer_wait_ns)),
    ));
    out.push(m(
        "core.backoff_ms",
        per_commit_ms(sum_of(sim, |s| s.backoff_ns)),
    ));
    out.push(m(
        "trace.coverage",
        median_of(traced, |c| {
            let p = &inst(c).profile;
            let covered = p.total_self_ns() - p.region(HostRegion::Setup).self_ns;
            covered as f64 / 1e9 / spans.seconds(c.id, "core.engine_run")
        }),
    ));
    out.push(m(
        "trace.overhead",
        median_of(traced, |c| events_per_s(c, spans))
            / median_of(plain, |c| events_per_s(c, spans)),
    ));
    out
}

/// Peak resident set of this process (`VmHWM`), MiB.
fn peak_rss_mib() -> Result<f64, BenchError> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| BenchError::Check(format!("cannot read /proc/self/status: {e}")))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| BenchError::Check("no VmHWM line in /proc/self/status".into()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use lotec_obs::Json;

    fn names(defs: &[MetricDef]) -> Vec<&str> {
        defs.iter().map(|d| d.name).collect()
    }

    /// `BENCHMARK.json` at the repository root must describe exactly the
    /// workloads and metrics this crate reports.
    #[test]
    fn benchmark_json_matches_the_metric_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let spec = Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json exists"))
            .expect("BENCHMARK.json parses");
        let listed = |key: &str| -> Vec<Json> {
            spec.get(key)
                .and_then(Json::as_array)
                .expect("list")
                .to_vec()
        };
        let text = |j: &Json, k: &str| j.get(k).and_then(Json::as_str).expect("string").to_string();
        let workloads: Vec<String> = listed("workloads")
            .iter()
            .map(|w| text(w, "name"))
            .collect();
        assert_eq!(workloads, WORKLOADS.map(|w| w.name.to_string()));
        for (key, defs) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let rows = listed(key);
            assert_eq!(
                rows.iter().map(|r| text(r, "name")).collect::<Vec<_>>(),
                names(defs)
            );
            for (row, def) in rows.iter().zip(defs) {
                assert_eq!(text(row, "unit"), def.unit, "{}", def.name);
                if let Some(default) = def.default_bound {
                    let bound = row.get("bound").and_then(Json::as_f64).expect("bound");
                    assert!(bound >= default && bound <= 0.25, "{}: {bound}", def.name);
                }
            }
        }
    }

    #[test]
    fn cell_seeds_differ_by_run_seed_and_index() {
        let a = cell_seed(7, 1, 1);
        assert_ne!(a, cell_seed(7, 2, 1));
        assert_ne!(a, cell_seed(7, 1, 2));
        assert_ne!(a, cell_seed(8, 1, 1));
        assert_eq!(a, cell_seed(7, 1, 1));
    }
}
