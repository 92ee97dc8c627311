//! The workload-zoo matrix: every scenario family × protocol ×
//! prediction mode, oracle-checked, with per-scenario success criteria.
//!
//! Each cell runs one zoo scenario under one `(protocol, static|adaptive)`
//! pair through the engine, verifies the serializability oracle, and is
//! immediately reduced to a [`CellSummary`] — a few dozen integers pulled
//! from the streaming stats (commit counts, sketch quantiles, traffic
//! totals). The full [`RunReport`](lotec_core::RunReport), including the
//! oracle's replay trace, is dropped before the next cell starts, so the
//! matrix's retained memory is flat in the number of transactions: one
//! cell's working set at a time, summaries forever. Per-family phase rows
//! are disabled via
//! [`ZooScenario::cell_config`](lotec_workload::ZooScenario::cell_config)
//! for the same reason.
//!
//! Cells fan out across the sweep runner's workers; JSON assembly happens
//! after the index-ordered merge, so `BENCH_scenarios.json` is
//! byte-identical at any `LOTEC_BENCH_THREADS`.

use lotec_core::engine::Engine;
use lotec_core::oracle;
use lotec_core::protocol::ProtocolKind;
use lotec_obs::Json;
use lotec_workload::zoo::{self, Tier, ZooScenario};

use crate::runner;

/// The two prediction modes of the matrix, in column order.
pub const MODES: [(&str, bool); 2] = [("static", false), ("adaptive", true)];

/// The streaming summary one matrix cell leaves behind.
#[derive(Debug, Clone)]
pub struct CellSummary {
    /// Protocol the cell ran.
    pub protocol: ProtocolKind,
    /// Whether adaptive prediction was on.
    pub adaptive: bool,
    /// Families the generator produced (the commit-fraction denominator).
    pub generated: usize,
    /// Families that committed.
    pub committed: u64,
    /// Families that permanently aborted.
    pub aborted: u64,
    /// Deadlocks broken.
    pub deadlocks: u64,
    /// Family restarts.
    pub restarts: u64,
    /// Demand fetches (prediction misses).
    pub demand_fetches: u64,
    /// End-to-end makespan, ns.
    pub makespan_ns: u64,
    /// Mean commit latency, ns.
    pub mean_latency_ns: u64,
    /// Median commit latency from the streaming sketch, ns.
    pub p50_ns: u64,
    /// p99 commit latency from the streaming sketch, ns.
    pub p99_ns: u64,
    /// Total messages sent.
    pub messages: u64,
    /// Total bytes moved.
    pub bytes: u64,
    /// Success-criteria violations (empty = cell passed).
    pub failures: Vec<String>,
}

impl CellSummary {
    /// `PROTOCOL/mode`, the cell's key in the artifact.
    pub fn key(&self) -> String {
        let mode = if self.adaptive { "adaptive" } else { "static" };
        format!("{}/{mode}", self.protocol)
    }

    fn to_json(&self) -> Json {
        let criteria = if self.failures.is_empty() {
            Json::str("pass")
        } else {
            Json::Arr(self.failures.iter().map(Json::str).collect())
        };
        let abort_rate = {
            let finished = self.committed + self.aborted;
            if finished == 0 {
                0.0
            } else {
                self.aborted as f64 / finished as f64
            }
        };
        Json::obj(vec![
            ("committed", Json::U64(self.committed)),
            ("aborted", Json::U64(self.aborted)),
            ("abort_rate", Json::F64(abort_rate)),
            ("deadlocks", Json::U64(self.deadlocks)),
            ("restarts", Json::U64(self.restarts)),
            ("demand_fetches", Json::U64(self.demand_fetches)),
            ("makespan_ns", Json::U64(self.makespan_ns)),
            ("mean_latency_ns", Json::U64(self.mean_latency_ns)),
            ("p50_ns", Json::U64(self.p50_ns)),
            ("p99_ns", Json::U64(self.p99_ns)),
            ("messages", Json::U64(self.messages)),
            ("bytes", Json::U64(self.bytes)),
            ("oracle", Json::str("ok")),
            ("criteria", criteria),
        ])
    }
}

/// Runs one cell: engine + oracle + criteria, reduced to a summary. The
/// report (trace, per-txn structures) is dropped on return.
///
/// # Panics
///
/// Panics on engine failure or an oracle violation — a matrix cell that
/// is not serializable is a bug, not a data point.
pub fn run_cell(
    scenario: &ZooScenario,
    registry: &lotec_object::ObjectRegistry,
    families: &[lotec_core::FamilySpec],
    protocol: ProtocolKind,
    adaptive: bool,
) -> CellSummary {
    let name = scenario.name();
    let config = scenario.cell_config(protocol, adaptive);
    let report = Engine::new(&config, registry, families)
        .and_then(Engine::run)
        .unwrap_or_else(|e| panic!("{name} {protocol} adaptive={adaptive}: {e}"));
    oracle::verify(&report)
        .unwrap_or_else(|e| panic!("{name} {protocol} adaptive={adaptive}: oracle: {e}"));
    let stats = &report.stats;
    let failures = scenario.criteria.evaluate(families.len(), stats);
    CellSummary {
        protocol,
        adaptive,
        generated: families.len(),
        committed: stats.committed_families,
        aborted: stats.aborted_families,
        deadlocks: stats.deadlocks,
        restarts: stats.restarts,
        demand_fetches: stats.demand_fetches,
        makespan_ns: stats.makespan.as_nanos(),
        mean_latency_ns: stats.mean_latency().map_or(0, |d| d.as_nanos()),
        p50_ns: stats.latency_quantile(0.5).map_or(0, |d| d.as_nanos()),
        p99_ns: stats.latency_quantile(0.99).map_or(0, |d| d.as_nanos()),
        messages: report.traffic.total().messages,
        bytes: report.traffic.total().bytes,
        failures,
    }
}

/// Ranks protocols ascending by `key` within one mode's cells.
fn ranking(cells: &[&CellSummary], key: impl Fn(&CellSummary) -> u64) -> Json {
    let mut order: Vec<&CellSummary> = cells.to_vec();
    order.sort_by_key(|c| (key(c), c.protocol.to_string()));
    Json::Arr(
        order
            .into_iter()
            .map(|c| Json::str(c.protocol.to_string()))
            .collect(),
    )
}

fn scenario_json(
    scenario: &ZooScenario,
    generated: usize,
    cells: &[CellSummary],
) -> (String, Json) {
    let cell_entries: Vec<(String, Json)> = cells.iter().map(|c| (c.key(), c.to_json())).collect();
    let mut rankings = Vec::new();
    for (mode, adaptive) in MODES {
        let mode_cells: Vec<&CellSummary> =
            cells.iter().filter(|c| c.adaptive == adaptive).collect();
        rankings.push((
            mode.to_string(),
            Json::obj(vec![
                ("by_bytes", ranking(&mode_cells, |c| c.bytes)),
                ("by_p99", ranking(&mode_cells, |c| c.p99_ns)),
                ("by_makespan", ranking(&mode_cells, |c| c.makespan_ns)),
            ]),
        ));
    }
    let t = &scenario.traffic;
    let json = Json::obj(vec![
        ("description", Json::str(scenario.description)),
        (
            "params",
            Json::obj(vec![
                ("objects", Json::U64(scenario.config.num_objects as u64)),
                ("families", Json::U64(scenario.config.num_families as u64)),
                ("generated_families", Json::U64(generated as u64)),
                ("nodes", Json::U64(scenario.config.num_nodes as u64)),
                (
                    "classes",
                    Json::U64(scenario.config.schema.num_classes as u64),
                ),
                ("zipf_theta", Json::F64(scenario.config.zipf_theta)),
                ("tenants", Json::U64(t.tenants as u64)),
                ("hot_write_tenants", Json::U64(t.hot_write_tenants as u64)),
                ("migration_phases", Json::U64(t.migration_phases as u64)),
                ("seed", Json::U64(scenario.config.seed)),
            ]),
        ),
        (
            "criteria",
            Json::obj(vec![
                (
                    "min_commit_fraction",
                    Json::F64(scenario.criteria.min_commit_fraction),
                ),
                (
                    "max_abort_rate",
                    Json::F64(scenario.criteria.max_abort_rate),
                ),
                (
                    "max_p99_ns",
                    Json::U64(scenario.criteria.max_p99.as_nanos()),
                ),
            ]),
        ),
        ("cells", Json::Obj(cell_entries)),
        ("rankings", Json::Obj(rankings)),
    ]);
    (scenario.family.to_string(), json)
}

/// Builds the whole matrix at `tier` on an explicit worker count:
/// generates each scenario once, fans every `scenario × protocol × mode`
/// cell across the sweep runner, and assembles the artifact after the
/// index-ordered merge. Returns the JSON document and the total number of
/// success-criteria violations across cells.
///
/// # Panics
///
/// Panics on generation failure, engine failure, or an oracle violation.
pub fn build_matrix_on(workers: usize, tier: Tier) -> (Json, usize) {
    let scenarios = zoo::all(tier);
    let workloads: Vec<_> = scenarios
        .iter()
        .map(|s| {
            s.generate()
                .unwrap_or_else(|e| panic!("{}: generation failed: {e}", s.name()))
        })
        .collect();

    let cell_specs: Vec<(usize, ProtocolKind, bool)> = (0..scenarios.len())
        .flat_map(|si| {
            ProtocolKind::ALL
                .into_iter()
                .flat_map(move |p| MODES.map(move |(_, adaptive)| (si, p, adaptive)))
        })
        .collect();
    let summaries = runner::run_indexed_on(workers, cell_specs.len(), |i| {
        let (si, protocol, adaptive) = cell_specs[i];
        let (registry, families) = &workloads[si];
        run_cell(&scenarios[si], registry, families, protocol, adaptive)
    });

    let per_scenario = ProtocolKind::ALL.len() * MODES.len();
    let mut sections = Vec::new();
    let mut total_failures = 0usize;
    for (si, chunk) in summaries.chunks(per_scenario).enumerate() {
        total_failures += chunk.iter().map(|c| c.failures.len()).sum::<usize>();
        sections.push(scenario_json(&scenarios[si], workloads[si].1.len(), chunk));
    }

    let json = Json::obj(vec![
        ("schema_version", Json::U64(1)),
        ("tier", Json::str(tier.label())),
        (
            "protocols",
            Json::Arr(
                ProtocolKind::ALL
                    .into_iter()
                    .map(|p| Json::str(p.to_string()))
                    .collect(),
            ),
        ),
        ("scenarios", Json::Obj(sections)),
        ("criteria_failures", Json::U64(total_failures as u64)),
    ]);
    (json, total_failures)
}

/// [`build_matrix_on`] with the worker count from [`runner::threads`].
///
/// # Panics
///
/// See [`build_matrix_on`].
pub fn build_matrix(tier: Tier) -> (Json, usize) {
    build_matrix_on(runner::threads(), tier)
}
