//! The `obs_report` binary's machinery: strict CLI parsing and the
//! observability demo sweep behind `BENCH_obs.json`.
//!
//! The demo runs the quick fig3 scenario across all four protocols, each
//! fault-free and under lossy links, with a recording probe attached. The
//! showcase cell — LOTEC under loss — exercises every critical-path edge
//! kind at once: contended lock waits, planned page gathers, demand
//! fetches inside compute, and retransmission stalls. Cells fan out over
//! the sweep runner but all text and JSON assembly happens after the
//! index-ordered merge, so the outputs are byte-identical at any worker
//! count.

use lotec_core::config::FaultConfig;
use lotec_core::engine::{Engine, RunReport};
use lotec_core::protocol::ProtocolKind;
use lotec_core::{AdaptiveConfig, SystemConfig};
use lotec_obs::{
    critical_paths, critical_paths_json, Json, MetricsRegistry, ObsEvent, RecordingSink, SpanTree,
};
use lotec_sim::{FaultPlan, SimDuration};
use lotec_workload::presets;

use crate::runner;

/// Seed of the demo sweep (printed, so any cell can be reproduced).
pub const DEMO_SEED: u64 = 0x0B5EED;

/// Message-drop probability of the demo's lossy cells.
pub const DEMO_DROP: f64 = 0.10;

/// Default `--top` table depth.
pub const DEFAULT_TOP_K: usize = 5;

/// The `obs_report` usage string (printed on any argument error).
pub const USAGE: &str = "\
usage: obs_report <trace.jsonl> [--top K] [--json-out PATH]
       obs_report --demo [--top K] [--json-out PATH]
       obs_report --host [BENCH_perf.json]
       obs_report --forensics <dump.jsonl>

  <trace.jsonl>    summarize a saved JSONL trace (written by --trace-out)
  --demo           run the seeded fig3 observability sweep and write
                   BENCH_obs.json (or PATH with --json-out)
  --host           render the host-plane sections (wall-clock region
                   profile, worker utilization, perf gate) of a
                   BENCH_perf.json (default path: BENCH_perf.json)
  --forensics P    round-trip-check a forensics dump written at an
                   anomaly and print the causal triage report
  --top K          depth of the contention/transfer tables (default 5)
  --json-out PATH  where to write the machine-readable report";

/// What `obs_report` was asked to do.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ObsReportMode {
    /// Summarize a saved JSONL trace.
    File(String),
    /// Run the seeded demo sweep.
    Demo,
    /// Render the host-plane sections of a `BENCH_perf.json`.
    Host(String),
    /// Round-trip-check a forensics dump and print its triage report.
    Forensics(String),
}

/// Parsed `obs_report` command line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObsReportArgs {
    /// Trace-file or demo mode.
    pub mode: ObsReportMode,
    /// Table depth for the top-K tables.
    pub top: usize,
    /// Optional machine-readable output path.
    pub json_out: Option<String>,
}

/// Parses `obs_report`'s arguments (everything after the program name).
///
/// # Errors
///
/// Returns a one-line diagnostic for unknown flags, missing or malformed
/// flag values, conflicting modes, or a missing trace path — the binary
/// prints it with [`USAGE`] and exits nonzero.
pub fn parse_obs_report_args(args: &[String]) -> Result<ObsReportArgs, String> {
    let mut demo = false;
    let mut host = false;
    let mut forensics: Option<String> = None;
    let mut path: Option<String> = None;
    let mut top = DEFAULT_TOP_K;
    let mut json_out = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--demo" => demo = true,
            "--host" => host = true,
            "--forensics" => {
                let value = it.next().ok_or("--forensics requires a dump path")?;
                forensics = Some(value.clone());
            }
            "--top" => {
                let value = it.next().ok_or("--top requires a value")?;
                top = value
                    .parse::<usize>()
                    .ok()
                    .filter(|&k| k >= 1)
                    .ok_or_else(|| format!("--top must be a positive integer, got {value:?}"))?;
            }
            "--json-out" => {
                let value = it.next().ok_or("--json-out requires a path")?;
                json_out = Some(value.clone());
            }
            flag if flag.starts_with('-') => {
                return Err(format!("unknown option {flag:?}"));
            }
            positional => {
                if path.replace(positional.to_string()).is_some() {
                    return Err(format!("unexpected extra argument {positional:?}"));
                }
            }
        }
    }
    if (demo as u8) + (host as u8) + (forensics.is_some() as u8) > 1 {
        return Err("--demo, --host, and --forensics are mutually exclusive".to_string());
    }
    let mode = match (demo, host, forensics, path) {
        (true, false, None, Some(p)) => {
            return Err(format!("--demo does not take a trace path (got {p:?})"));
        }
        (true, false, None, None) => ObsReportMode::Demo,
        (false, true, None, p) => {
            ObsReportMode::Host(p.unwrap_or_else(|| "BENCH_perf.json".to_string()))
        }
        (false, false, Some(_), Some(p)) => {
            return Err(format!(
                "--forensics does not take a trace path (got {p:?})"
            ));
        }
        (false, false, Some(dump), None) => ObsReportMode::Forensics(dump),
        (false, false, None, Some(p)) => ObsReportMode::File(p),
        (false, false, None, None) => {
            return Err("a trace path, --demo, --host, or --forensics is required".to_string())
        }
        (_, _, _, _) => unreachable!("mutual exclusion checked above"),
    };
    Ok(ObsReportArgs {
        mode,
        top,
        json_out,
    })
}

/// One demo sweep output: the printed report and the `BENCH_obs.json`
/// contents.
#[derive(Debug, Clone, PartialEq)]
pub struct ObsDemo {
    /// Human-readable report text.
    pub report: String,
    /// Machine-readable report (the `BENCH_obs.json` value).
    pub json: Json,
}

fn lossy_faults() -> FaultConfig {
    FaultConfig {
        plan: FaultPlan {
            drop_prob: DEMO_DROP,
            duplicate_prob: DEMO_DROP / 2.0,
            delay_prob: DEMO_DROP,
            max_extra_delay: SimDuration::from_micros(25),
            rto: SimDuration::from_micros(50),
            crashes: Vec::new(),
        },
        ..FaultConfig::default()
    }
}

struct DemoCell {
    protocol: ProtocolKind,
    lossy: bool,
    adaptive: bool,
    report: RunReport,
    events: Vec<ObsEvent>,
}

/// Per-method prediction quality of one cell, rendered from the metric
/// registry's stable `[class=..,method=..]` label keys so the JSON is
/// identical at any worker count.
fn prediction_by_method_json(metrics: &MetricsRegistry) -> Json {
    Json::Arr(
        metrics
            .sampled_methods()
            .into_iter()
            .map(|(class, method)| {
                let (precision, recall) = metrics
                    .method_precision_recall(class, method)
                    .expect("sampled method has a ratio");
                Json::obj(vec![
                    ("class", Json::U64(u64::from(class))),
                    ("method", Json::U64(u64::from(method))),
                    ("precision", Json::F64(precision)),
                    ("recall", Json::F64(recall)),
                ])
            })
            .collect(),
    )
}

/// Runs the demo sweep on `workers` threads with `top`-deep tables.
///
/// Deterministic: the same seed, cell order, and post-merge assembly at
/// any worker count, so `report` and `json` are byte-identical whether
/// the sweep ran serially or in parallel.
///
/// # Panics
///
/// Panics with a diagnostic if workload generation or any cell's engine
/// run fails — like the figure binaries, the demo wants loud failure.
pub fn run_obs_demo(workers: usize, top: usize) -> ObsDemo {
    let scenario = presets::quick(presets::fig3());
    let (registry, families) = scenario.generate().expect("workload generates");
    let mut grid: Vec<(ProtocolKind, bool, bool)> = ProtocolKind::ALL
        .into_iter()
        .flat_map(|p| [(p, false, false), (p, true, false)])
        .collect();
    // Two extra cells: LOTEC with the adaptive predictor, fault-free and
    // lossy, so the report shows static-vs-adaptive prediction quality.
    grid.push((ProtocolKind::Lotec, false, true));
    grid.push((ProtocolKind::Lotec, true, true));
    let cells = runner::run_indexed_on(workers, grid.len(), |i| {
        let (protocol, lossy, adaptive) = grid[i];
        let config = SystemConfig {
            protocol,
            seed: DEMO_SEED,
            num_nodes: scenario.config.num_nodes,
            page_size: scenario.config.schema.page_size,
            faults: if lossy {
                lossy_faults()
            } else {
                FaultConfig::default()
            },
            adaptive: if adaptive {
                AdaptiveConfig::on()
            } else {
                AdaptiveConfig::default()
            },
            ..SystemConfig::default()
        };
        let mut sink = RecordingSink::new();
        let report = Engine::with_probe(&config, &registry, &families, &mut sink)
            .and_then(Engine::run)
            .unwrap_or_else(|e| panic!("{protocol} lossy={lossy} adaptive={adaptive}: {e}"));
        DemoCell {
            protocol,
            lossy,
            adaptive,
            report,
            events: sink.into_events(),
        }
    });

    let mut text = String::new();
    use std::fmt::Write as _;
    let _ = writeln!(
        text,
        "observability demo: {} — seed {DEMO_SEED:#x}, {} cells \
         ({} protocols × fault-free/lossy drop={DEMO_DROP:.2}, \
         + adaptive LOTEC × both)",
        scenario.name,
        cells.len(),
        ProtocolKind::ALL.len(),
    );
    let mut cell_jsons = Vec::new();
    for cell in &cells {
        let mut metrics = MetricsRegistry::new();
        metrics.feed(&cell.events);
        let spans = SpanTree::build(&cell.events);
        let faults = if cell.lossy { "lossy" } else { "none" };
        let prediction = if cell.adaptive { "adaptive" } else { "static" };
        let _ = writeln!(
            text,
            "  {:>6} faults={faults:<5} prediction={prediction:<8}: events={:<6} \
             spans={:<5} committed={:<4} retransmits={}",
            cell.protocol.to_string(),
            cell.events.len(),
            spans.len(),
            cell.report.stats.committed_families,
            cell.report.stats.retransmits,
        );
        let mut pairs = vec![
            ("protocol", Json::str(cell.protocol.to_string())),
            ("faults", Json::str(faults)),
            ("prediction", Json::str(prediction)),
            ("committed", Json::U64(cell.report.stats.committed_families)),
            ("events", Json::U64(cell.events.len() as u64)),
            ("spans", Json::U64(spans.len() as u64)),
            (
                "top_object_contention",
                Json::Arr(
                    metrics
                        .top_object_contention(top)
                        .iter()
                        .map(|row| {
                            Json::obj(vec![
                                ("object", Json::U64(row.object as u64)),
                                ("waits", Json::U64(row.waits)),
                                ("total_wait_ns", Json::U64(row.total_wait_ns)),
                                ("max_wait_ns", Json::U64(row.max_wait_ns)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "top_node_transfer_bytes",
                Json::Arr(
                    metrics
                        .top_node_transfer_bytes(top)
                        .iter()
                        .map(|&(node, bytes)| {
                            Json::obj(vec![
                                ("node", Json::U64(node as u64)),
                                ("bytes", Json::U64(bytes)),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("metrics", metrics.to_json()),
        ];
        if cell.protocol.uses_prediction() {
            pairs.push(("prediction_by_method", prediction_by_method_json(&metrics)));
            pairs.push((
                "profile_updates",
                Json::obj(vec![
                    (
                        "expansions",
                        Json::U64(cell.report.stats.profile_expansions),
                    ),
                    ("shrinks", Json::U64(cell.report.stats.profile_shrinks)),
                    ("resets", Json::U64(cell.report.stats.profile_resets)),
                    (
                        "demand_fetches",
                        Json::U64(cell.report.stats.demand_fetches),
                    ),
                ]),
            ));
        }
        if cell.protocol == ProtocolKind::Lotec && cell.lossy && !cell.adaptive {
            pairs.push(("critical_paths", critical_paths_json(&cell.events)));
        }
        cell_jsons.push(Json::obj(pairs));
    }

    // Showcase: LOTEC under loss hits every edge kind at once.
    let showcase = cells
        .iter()
        .find(|c| c.protocol == ProtocolKind::Lotec && c.lossy && !c.adaptive)
        .expect("the grid contains the LOTEC lossy cell");
    let mut metrics = MetricsRegistry::new();
    metrics.feed(&showcase.events);
    let mut paths = critical_paths(&showcase.events);
    paths.sort_by(|a, b| b.latency().cmp(&a.latency()).then(a.family.cmp(&b.family)));
    let mut kinds: Vec<&str> = paths
        .iter()
        .flat_map(|p| p.edges.iter().map(|e| e.kind.name()))
        .collect();
    kinds.sort_unstable();
    kinds.dedup();
    let _ = writeln!(text);
    let _ = writeln!(
        text,
        "showcase: LOTEC under lossy links (drop {DEMO_DROP:.2}) — \
         {} committed critical paths, edge kinds: {}",
        paths.len(),
        kinds.join(", "),
    );
    let _ = writeln!(text, "slowest {} critical paths:", top.min(paths.len()));
    for path in paths.iter().take(top) {
        let _ = write!(text, "{}", path.render());
    }
    let _ = write!(text, "{}", metrics.render_top_tables(top));

    // Static vs adaptive prediction quality, per method, on the
    // fault-free LOTEC cells (no retransmission noise).
    let _ = writeln!(text);
    let _ = writeln!(text, "prediction by method (fault-free LOTEC):");
    for cell in cells
        .iter()
        .filter(|c| c.protocol == ProtocolKind::Lotec && !c.lossy)
    {
        let mut m = MetricsRegistry::new();
        m.feed(&cell.events);
        let mode = if cell.adaptive { "adaptive" } else { "static" };
        for (class, method) in m.sampled_methods() {
            let (p, r) = m
                .method_precision_recall(class, method)
                .expect("sampled method has a ratio");
            let _ = writeln!(
                text,
                "  {mode:<8} class={class} method={method}: \
                 precision={p:.3} recall={r:.3}",
            );
        }
    }

    let json = Json::obj(vec![
        ("scenario", Json::str(&scenario.name)),
        ("seed", Json::U64(DEMO_SEED)),
        ("drop_prob", Json::F64(DEMO_DROP)),
        ("top_k", Json::U64(top as u64)),
        (
            "edge_kinds",
            Json::Arr(kinds.iter().map(|&k| Json::str(k)).collect()),
        ),
        ("cells", Json::Arr(cell_jsons)),
    ]);
    ObsDemo { report: text, json }
}

/// Loads a forensics dump, proves it round-trips byte-identically
/// (`parse ∘ render` is the identity — the dump is evidence, so any
/// corruption must be loud), and renders the human triage report: the
/// anomaly headline, the waits-for cycle reconstructed from the dumped
/// edges, contributing grants, and the anchor family's causal chain
/// walked backwards from the anomaly.
///
/// # Errors
///
/// Returns a one-line diagnostic when the text is not a parseable dump or
/// fails the round-trip check.
pub fn render_forensics_report(text: &str) -> Result<String, String> {
    let dump = lotec_obs::ForensicsDump::parse(text)
        .map_err(|e| format!("not a parseable forensics dump: {e}"))?;
    if dump.to_jsonl() != text {
        return Err(
            "forensics dump does not round-trip byte-identically (corrupt or hand-edited?)"
                .to_string(),
        );
    }
    Ok(dump.render_triage())
}

/// Renders the host-plane sections of a parsed `BENCH_perf.json`
/// (schema 2): the wall-clock region profile, the sweep workers'
/// utilization table, and the perf-gate baseline. Pure formatting — all
/// measurement lives in the `perf` binary.
///
/// # Errors
///
/// Returns a one-line diagnostic when the value is missing the schema
/// field or the `host_profile` section (older baselines: regenerate with
/// `cargo run --release -p lotec-bench --bin perf`).
pub fn render_host_view(perf: &Json) -> Result<String, String> {
    use std::fmt::Write as _;

    let schema = perf
        .get("schema")
        .and_then(Json::as_u64)
        .ok_or("no schema field — regenerate BENCH_perf.json")?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "host plane (schema {schema}, quick={}, {} sweep threads)",
        perf.get("quick").and_then(Json::as_bool).unwrap_or(false),
        perf.get("threads").and_then(Json::as_u64).unwrap_or(0),
    );

    let hp = perf
        .get("host_profile")
        .ok_or("no host_profile section — regenerate BENCH_perf.json")?;
    let wall_ns = hp.get("wall_ns").and_then(Json::as_u64).unwrap_or(0);
    let coverage = hp.get("coverage").and_then(Json::as_f64).unwrap_or(0.0);
    let profile = hp.get("profile").ok_or("host_profile has no profile")?;
    let total_self = profile
        .get("total_self_ns")
        .and_then(Json::as_u64)
        .unwrap_or(0);
    let _ = writeln!(
        out,
        "region profile: {wall_ns} ns wall, {total_self} ns in regions ({:.1}% coverage)",
        coverage * 100.0
    );
    let mut rows: Vec<(&str, u64, u64, u64)> = Vec::new();
    if let Some(regions) = profile.get("regions") {
        if let Ok(fields) = regions.fields() {
            for (name, stat) in fields {
                rows.push((
                    name,
                    stat.get("self_ns").and_then(Json::as_u64).unwrap_or(0),
                    stat.get("count").and_then(Json::as_u64).unwrap_or(0),
                    stat.get("p99_self_ns").and_then(Json::as_u64).unwrap_or(0),
                ));
            }
        }
    }
    rows.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
    let _ = writeln!(
        out,
        "  {:<14} {:>14} {:>10} {:>7} {:>12}",
        "region", "self_ns", "calls", "share", "p99_ns"
    );
    for (name, self_ns, count, p99) in &rows {
        let _ = writeln!(
            out,
            "  {:<14} {:>14} {:>10} {:>6.1}% {:>12}",
            name,
            self_ns,
            count,
            100.0 * *self_ns as f64 / total_self.max(1) as f64,
            p99
        );
    }
    match hp.get("alloc") {
        Some(Json::Null) | None => {
            let _ = writeln!(out, "allocator: not profiled (set LOTEC_PROFILE_ALLOC=1)");
        }
        Some(alloc) => {
            let _ = writeln!(
                out,
                "allocator: {} allocs, {} bytes",
                alloc
                    .get("total_allocs")
                    .and_then(Json::as_u64)
                    .unwrap_or(0),
                alloc.get("total_bytes").and_then(Json::as_u64).unwrap_or(0),
            );
            if let Some(by_region) = alloc.get("by_region").and_then(|b| b.fields().ok()) {
                for (name, row) in by_region {
                    let _ = writeln!(
                        out,
                        "  {:<14} {:>10} allocs {:>14} bytes",
                        name,
                        row.get("allocs").and_then(Json::as_u64).unwrap_or(0),
                        row.get("bytes").and_then(Json::as_u64).unwrap_or(0),
                    );
                }
            }
        }
    }

    if let Some(tel) = perf.get("sweep").and_then(|s| s.get("telemetry")) {
        let _ = writeln!(
            out,
            "sweep workers: {:.1}% mean utilization",
            tel.get("utilization").and_then(Json::as_f64).unwrap_or(0.0) * 100.0
        );
        if let Some(workers) = tel.get("workers").and_then(Json::as_array) {
            for (i, w) in workers.iter().enumerate() {
                let busy = w.get("busy_ns").and_then(Json::as_u64).unwrap_or(0);
                let wall = w.get("wall_ns").and_then(Json::as_u64).unwrap_or(0);
                let _ = writeln!(
                    out,
                    "  worker {i}: {:>3} cells  busy {:>12} / wall {:>12} ns ({:>5.1}%)",
                    w.get("cells").and_then(Json::as_u64).unwrap_or(0),
                    busy,
                    wall,
                    100.0 * busy as f64 / wall.max(1) as f64,
                );
            }
        }
    }

    if let Some(gate) = perf.get("gate") {
        let _ = writeln!(
            out,
            "gate baseline: {} events/s over {} events ({})",
            gate.get("events_per_sec")
                .and_then(Json::as_u64)
                .unwrap_or(0),
            gate.get("sim_events").and_then(Json::as_u64).unwrap_or(0),
            gate.get("scenario").and_then(Json::as_str).unwrap_or("?"),
        );
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<ObsReportArgs, String> {
        let owned: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        parse_obs_report_args(&owned)
    }

    #[test]
    fn args_parse_both_modes_with_options() {
        let file = parse(&["trace.jsonl", "--top", "3"]).unwrap();
        assert_eq!(file.mode, ObsReportMode::File("trace.jsonl".into()));
        assert_eq!(file.top, 3);
        assert_eq!(file.json_out, None);
        let demo = parse(&["--demo", "--json-out", "out.json"]).unwrap();
        assert_eq!(demo.mode, ObsReportMode::Demo);
        assert_eq!(demo.top, DEFAULT_TOP_K);
        assert_eq!(demo.json_out, Some("out.json".into()));
    }

    #[test]
    fn host_mode_parses_with_default_and_explicit_path() {
        let default = parse(&["--host"]).unwrap();
        assert_eq!(default.mode, ObsReportMode::Host("BENCH_perf.json".into()));
        let explicit = parse(&["--host", "other.json"]).unwrap();
        assert_eq!(explicit.mode, ObsReportMode::Host("other.json".into()));
        assert!(parse(&["--demo", "--host"])
            .unwrap_err()
            .contains("mutually exclusive"));
    }

    #[test]
    fn host_view_renders_regions_sorted_and_flags_old_schemas() {
        let perf = Json::obj(vec![
            ("schema", Json::U64(2)),
            ("quick", Json::Bool(true)),
            ("threads", Json::U64(4)),
            (
                "host_profile",
                Json::obj(vec![
                    ("wall_ns", Json::U64(1_000)),
                    ("coverage", Json::F64(0.95)),
                    (
                        "profile",
                        Json::obj(vec![
                            ("runs", Json::U64(1)),
                            ("total_self_ns", Json::U64(950)),
                            (
                                "regions",
                                Json::obj(vec![
                                    (
                                        "event_pop",
                                        Json::obj(vec![
                                            ("count", Json::U64(10)),
                                            ("self_ns", Json::U64(200)),
                                            ("p99_self_ns", Json::U64(30)),
                                        ]),
                                    ),
                                    (
                                        "dispatch",
                                        Json::obj(vec![
                                            ("count", Json::U64(9)),
                                            ("self_ns", Json::U64(750)),
                                            ("p99_self_ns", Json::U64(120)),
                                        ]),
                                    ),
                                ]),
                            ),
                        ]),
                    ),
                    ("alloc", Json::Null),
                ]),
            ),
            (
                "gate",
                Json::obj(vec![
                    ("scenario", Json::str("fig3-quick/LOTEC")),
                    ("events_per_sec", Json::U64(240_000)),
                    ("sim_events", Json::U64(390)),
                ]),
            ),
        ]);
        let view = render_host_view(&perf).unwrap();
        assert!(view.contains("95.0% coverage"));
        // dispatch (750 ns) must print before event_pop (200 ns).
        let d = view.find("dispatch").unwrap();
        let e = view.find("event_pop").unwrap();
        assert!(d < e, "regions must sort by self time:\n{view}");
        assert!(view.contains("LOTEC_PROFILE_ALLOC=1"));
        assert!(view.contains("240000 events/s"));

        let old = Json::obj(vec![("quick", Json::Bool(false))]);
        assert!(render_host_view(&old).unwrap_err().contains("schema"));
    }

    #[test]
    fn forensics_mode_parses_and_conflicts() {
        let f = parse(&["--forensics", "dump.jsonl"]).unwrap();
        assert_eq!(f.mode, ObsReportMode::Forensics("dump.jsonl".into()));
        assert!(parse(&["--forensics"])
            .unwrap_err()
            .contains("requires a dump path"));
        assert!(parse(&["--forensics", "d.jsonl", "trace.jsonl"])
            .unwrap_err()
            .contains("does not take"));
        assert!(parse(&["--forensics", "d.jsonl", "--demo"])
            .unwrap_err()
            .contains("mutually exclusive"));
        assert!(parse(&["--forensics", "d.jsonl", "--host"])
            .unwrap_err()
            .contains("mutually exclusive"));
    }

    #[test]
    fn forensics_render_checks_round_trip() {
        assert!(render_forensics_report("not json")
            .unwrap_err()
            .contains("not a parseable"));
        // A valid dump with trailing garbage whitespace-only lines still
        // parses but no longer round-trips byte-identically.
        let dump = lotec_obs::ForensicsDump {
            seq: 0,
            at_ns: 10,
            anomaly: lotec_obs::Anomaly::OracleViolation {
                detail: "chain mismatch".into(),
            },
            recorded: 0,
            dropped: 0,
            occupancy: lotec_obs::OccupancySnapshot::default(),
            waits_for: Vec::new(),
            root_families: Vec::new(),
            families: Vec::new(),
            events: Vec::new(),
        };
        let text = dump.to_jsonl();
        let triage = render_forensics_report(&text).unwrap();
        assert!(triage.contains("oracle violation"), "{triage}");
        assert!(triage.contains("chain mismatch"), "{triage}");
        let padded = format!("\n{text}");
        assert!(render_forensics_report(&padded)
            .unwrap_err()
            .contains("round-trip"));
    }

    #[test]
    fn unknown_and_malformed_args_are_rejected() {
        assert!(parse(&["--bogus"]).unwrap_err().contains("--bogus"));
        assert!(parse(&["trace.jsonl", "--verbose"])
            .unwrap_err()
            .contains("unknown option"));
        assert!(parse(&[]).unwrap_err().contains("required"));
        assert!(parse(&["--top"]).unwrap_err().contains("requires a value"));
        assert!(parse(&["a.jsonl", "--top", "zero"])
            .unwrap_err()
            .contains("positive integer"));
        assert!(parse(&["a.jsonl", "--top", "0"])
            .unwrap_err()
            .contains("positive integer"));
        assert!(parse(&["--demo", "a.jsonl"])
            .unwrap_err()
            .contains("does not take"));
        assert!(parse(&["a.jsonl", "b.jsonl"])
            .unwrap_err()
            .contains("extra argument"));
    }

    #[test]
    fn demo_is_byte_identical_across_worker_counts() {
        let serial = run_obs_demo(1, DEFAULT_TOP_K);
        let parallel = run_obs_demo(4, DEFAULT_TOP_K);
        assert_eq!(serial.report, parallel.report);
        assert_eq!(
            serial.json.render_pretty(),
            parallel.json.render_pretty(),
            "BENCH_obs.json must not depend on the worker count"
        );
    }

    #[test]
    fn prediction_section_is_thread_invariant_and_present() {
        let serial = run_obs_demo(1, DEFAULT_TOP_K);
        let parallel = run_obs_demo(4, DEFAULT_TOP_K);
        let sections = |demo: &ObsDemo| -> Vec<String> {
            let parsed = Json::parse(&demo.json.render_pretty()).expect("valid JSON");
            parsed
                .get("cells")
                .expect("cells")
                .as_array()
                .expect("array")
                .iter()
                .filter_map(|c| c.get("prediction_by_method"))
                .map(Json::render_pretty)
                .collect()
        };
        let a = sections(&serial);
        let b = sections(&parallel);
        assert_eq!(a, b, "prediction_by_method must not depend on workers");
        // Every LOTEC cell (2 static, 2 adaptive, × fault-free/lossy in
        // the static case) carries the section, and the fault-free cells
        // have perfect recall (demand fetches repair every miss).
        assert_eq!(a.len(), 4, "four LOTEC cells carry the section");
        assert!(
            a.iter().all(|s| s.contains("precision")),
            "sections carry per-method rows: {a:?}"
        );
        assert!(serial.report.contains("prediction by method"));
        assert!(serial.report.contains("adaptive"));
    }

    #[test]
    fn showcase_covers_the_headline_edge_kinds() {
        let demo = run_obs_demo(2, DEFAULT_TOP_K);
        for kind in ["lock-wait", "page-gather", "compute", "retransmit-wait"] {
            assert!(
                demo.report.contains(kind),
                "showcase report must exercise the {kind} edge kind"
            );
        }
        assert!(demo.report.contains("objects by lock contention"));
        assert!(demo.report.contains("nodes by transfer bytes served"));
        // The machine-readable form round-trips and lists the same kinds.
        let parsed = Json::parse(&demo.json.render_pretty()).expect("valid JSON");
        let kinds = parsed
            .get("edge_kinds")
            .expect("edge_kinds")
            .as_array()
            .expect("array");
        assert!(kinds.len() >= 3, "at least three edge kinds, got {kinds:?}");
    }
}
