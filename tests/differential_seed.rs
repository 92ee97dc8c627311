//! Differential guard: the optimized engine must reproduce the seed
//! build's behaviour bit for bit.
//!
//! The hot-path overhaul (copy-on-write pages, dense page-indexed state,
//! deadlock-check gating) is an *optimization* — not one simulated result
//! may change. This suite pins golden fingerprints captured from the
//! pre-overhaul build: the final content chains, the scalar `RunStats`
//! counters, and the per-protocol transfer totals, across all four
//! protocols fault-free and under a sample of the chaos-suite seeds.
//!
//! A second table, `EVENT_STREAMS`, pins the probe layer's output: each
//! row is one cell's recorded event count and a fold of its JSONL bytes,
//! so moving an emission site cannot reorder, drop or reshape an event
//! unnoticed.
//!
//! A third table, `REPLAY_TRAFFIC`, pins trace replay: each row is one
//! engine schedule replayed through the placement models, with every
//! protocol's per-kind traffic and per-object totals.
//!
//! To regenerate the tables after an *intentional* behaviour change (a new
//! protocol rule, a workload change — never a perf PR), run
//! `LOTEC_PRINT_GOLDEN=1 cargo test --test differential_seed -- --nocapture`
//! and paste the printed rows over `GOLDEN`, `EVENT_STREAMS` and
//! `REPLAY_TRAFFIC`.

use std::collections::BTreeSet;
use std::fmt::Debug;

use lotec::obs::jsonl_encode;
use lotec::prelude::*;
use lotec::sim::{CrashWindow, FaultPlan};
use lotec_core::config::FaultConfig;
use lotec_core::engine::RunReport;
use lotec_core::metrics::ProtocolTraffic;
use lotec_core::replay::{replay_run, replay_trace};
use lotec_core::spec::demo_workload;
use lotec_core::trace::TraceEvent;
use lotec_core::AdaptiveConfig;
use lotec_mem::mix;
use lotec_net::MessageKind;
use lotec_workload::presets;

/// Chaos seeds sampled from the chaos suite's default stream
/// (`101 + 37 * i`).
const CHAOS_SAMPLE: [u64; 3] = [101, 138, 175];

/// One cell's behaviour fingerprint. All fields are exact — any change in
/// any simulated quantity moves at least one of them.
#[derive(Debug, PartialEq, Eq)]
struct Fingerprint {
    committed: u64,
    makespan_ns: u64,
    total_messages: u64,
    total_bytes: u64,
    /// Every page's final content chain folded in deterministic order.
    chain_hash: u64,
    /// Every scalar `RunStats` counter (and the latency quantiles) folded
    /// in a fixed order.
    stats_hash: u64,
}

fn fingerprint(report: &RunReport) -> Fingerprint {
    let mut chain_hash = 0u64;
    for (&(object, page), &chain) in &report.final_chains {
        chain_hash = mix(chain_hash, u64::from(object.index()));
        chain_hash = mix(chain_hash, u64::from(page.get()));
        chain_hash = mix(chain_hash, chain);
    }
    let s = &report.stats;
    let mut stats_hash = 0u64;
    for v in [
        s.committed_families,
        s.aborted_families,
        s.subtxn_aborts,
        s.deadlocks,
        s.restarts,
        s.demand_fetches,
        s.local_lock_grants,
        s.global_lock_grants,
        s.queued_lock_requests,
        s.prefetch_hits,
        s.prefetch_saved.as_nanos(),
        s.retransmits,
        s.duplicates,
        s.crashes,
        s.crash_aborts,
        s.lock_timeouts,
        s.retransmit_wait.as_nanos(),
        s.makespan.as_nanos(),
        s.total_latency.as_nanos(),
        s.latency_quantile(0.5).map_or(0, |d| d.as_nanos()),
        s.latency_quantile(0.99).map_or(0, |d| d.as_nanos()),
        report
            .traffic
            .page_payload_bytes(&SystemConfig::default().sizes, 4096),
    ] {
        stats_hash = mix(stats_hash, v);
    }
    Fingerprint {
        committed: s.committed_families,
        makespan_ns: s.makespan.as_nanos(),
        total_messages: report.traffic.total().messages,
        total_bytes: report.traffic.total().bytes,
        chain_hash,
        stats_hash,
    }
}

/// The fault-free cells: all four protocols on the quick fig3 workload.
/// `adaptive = false` must reproduce the pre-adaptive build bit for bit;
/// `adaptive = true` pins the adaptive predictor's behaviour under its own
/// golden rows.
fn fig3_cell(protocol: ProtocolKind, adaptive: bool) -> Fingerprint {
    let scenario = presets::quick(presets::fig3());
    let (registry, families) = scenario.generate().expect("workload generates");
    let config = SystemConfig {
        protocol,
        seed: 0xF163,
        num_nodes: scenario.config.num_nodes,
        page_size: scenario.config.schema.page_size,
        adaptive: if adaptive {
            AdaptiveConfig::on()
        } else {
            AdaptiveConfig::default()
        },
        ..SystemConfig::default()
    };
    let report = run_engine(&config, &registry, &families).expect("fig3 run");
    oracle::verify(&report).expect("serializable");
    fingerprint(&report)
}

/// The chaos cells: lossy-link fault plan from the chaos suite over the
/// demo workload.
fn chaos_cell(protocol: ProtocolKind, seed: u64, adaptive: bool) -> Fingerprint {
    let faults = FaultConfig {
        plan: FaultPlan {
            drop_prob: 0.10 + 0.02 * (seed % 5) as f64,
            duplicate_prob: 0.05,
            delay_prob: 0.10,
            max_extra_delay: SimDuration::from_micros(25),
            rto: SimDuration::from_micros(50),
            crashes: Vec::new(),
        },
        ..FaultConfig::default()
    };
    let config = SystemConfig {
        protocol,
        seed,
        faults,
        adaptive: if adaptive {
            AdaptiveConfig::on()
        } else {
            AdaptiveConfig::default()
        },
        ..SystemConfig::default()
    };
    let (registry, families) = demo_workload(&config, seed);
    let report = run_engine(&config, &registry, &families).expect("chaos run");
    oracle::verify(&report).expect("serializable");
    fingerprint(&report)
}

/// The workload-zoo cells: one tiny-tier cell per scenario family, LOTEC
/// static. Pins the zoo *generator* (schema, traffic shaping, arrivals)
/// and the engine's behaviour on its output in one fingerprint.
fn zoo_cell(scenario: &lotec_workload::ZooScenario) -> Fingerprint {
    let (registry, families) = scenario.generate().expect("zoo workload generates");
    let config = scenario.cell_config(ProtocolKind::Lotec, false);
    let report = run_engine(&config, &registry, &families).expect("zoo run");
    oracle::verify(&report).expect("serializable");
    fingerprint(&report)
}

fn print_golden(label: &str, fp: &Fingerprint) {
    println!(
        "    (\"{label}\", Fingerprint {{ committed: {}, makespan_ns: {}, \
         total_messages: {}, total_bytes: {}, chain_hash: {:#018x}, \
         stats_hash: {:#018x} }}),",
        fp.committed,
        fp.makespan_ns,
        fp.total_messages,
        fp.total_bytes,
        fp.chain_hash,
        fp.stats_hash
    );
}

fn check(label: String, fp: Fingerprint) {
    check_row(label, fp, GOLDEN, print_golden);
}

fn check_row<T: PartialEq + Debug>(
    label: String,
    got: T,
    table: &[(&str, T)],
    print: fn(&str, &T),
) {
    if std::env::var("LOTEC_PRINT_GOLDEN").is_ok() {
        print(&label, &got);
        return;
    }
    let expected = table
        .iter()
        .find(|(l, _)| *l == label)
        .unwrap_or_else(|| panic!("no golden row for {label}"));
    assert_eq!(
        got, expected.1,
        "{label}: behaviour diverged from the seed build"
    );
}

#[test]
fn fig3_matches_seed_for_all_protocols() {
    for protocol in ProtocolKind::ALL {
        check(format!("fig3/{protocol}"), fig3_cell(protocol, false));
    }
}

#[test]
fn chaos_sample_matches_seed_for_all_protocols() {
    for protocol in ProtocolKind::ALL {
        for seed in CHAOS_SAMPLE {
            check(
                format!("chaos/{protocol}/{seed}"),
                chaos_cell(protocol, seed, false),
            );
        }
    }
}

/// Adaptive-prediction cells: LOTEC with the predictor enabled, pinned
/// under their own golden rows. Each cell is oracle-verified inside its
/// builder, so a golden match certifies both determinism and
/// serializability of the adaptive schedule.
#[test]
fn adaptive_cells_match_their_own_goldens() {
    check(
        "fig3/LOTEC+adaptive".to_string(),
        fig3_cell(ProtocolKind::Lotec, true),
    );
    for seed in CHAOS_SAMPLE {
        check(
            format!("chaos/LOTEC+adaptive/{seed}"),
            chaos_cell(ProtocolKind::Lotec, seed, true),
        );
    }
}

/// Workload-zoo cells: every scenario family's tiny tier under
/// LOTEC/static, pinned under its own golden row. A diverging row here
/// with the 20 rows above intact means the *zoo generator* changed, not
/// the engine.
#[test]
fn zoo_tiny_cells_match_their_goldens() {
    for scenario in lotec_workload::zoo::all(lotec_workload::Tier::Tiny) {
        check(format!("zoo/{}", scenario.family), zoo_cell(&scenario));
    }
}

/// One cell's probe output: how many events a recording sink saw, and
/// every byte of their JSONL encoding folded in order.
#[derive(Debug, PartialEq, Eq)]
struct EventStream {
    events: u64,
    jsonl_hash: u64,
}

fn print_stream(label: &str, stream: &EventStream) {
    println!(
        "    (\"{label}\", EventStream {{ events: {}, jsonl_hash: {:#018x} }}),",
        stream.events, stream.jsonl_hash
    );
}

/// Every `ObsEventKind` wire name. The event-stream cells must emit all of
/// them between them, so each emission site is pinned by some row.
const ALL_KINDS: [&str; 23] = [
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
    "state_sample",
    "lock_timeout",
    "page_map_repaired",
];

/// Runs one cell with a recording sink and folds its event stream; adds
/// the kinds it emitted to `kinds`.
fn stream_cell(
    config: &SystemConfig,
    registry: &ObjectRegistry,
    families: &[FamilySpec],
    kinds: &mut BTreeSet<&'static str>,
) -> EventStream {
    let mut sink = RecordingSink::new();
    let report = Engine::with_probe(config, registry, families, &mut sink)
        .and_then(Engine::run)
        .expect("recorded run");
    oracle::verify(&report).expect("serializable");
    kinds.extend(sink.events().iter().map(|e| e.kind.name()));
    let jsonl_hash = jsonl_encode(sink.events())
        .bytes()
        .fold(0u64, |h, b| mix(h, u64::from(b)));
    EventStream {
        events: sink.len() as u64,
        jsonl_hash,
    }
}

/// The chaos suite's combined mode on the demo workload: lossy links, two
/// crash windows placed inside the fault-free makespan, lock-request
/// timeouts, and the state sampler on.
fn combined_chaos_config(seed: u64) -> SystemConfig {
    let base = SystemConfig {
        seed,
        ..SystemConfig::default()
    };
    let (registry, families) = demo_workload(&base, seed);
    let makespan = run_engine(&base, &registry, &families)
        .expect("calibration run")
        .stats
        .makespan;
    let nodes = u64::from(base.num_nodes);
    let plan = FaultPlan {
        drop_prob: 0.08,
        duplicate_prob: 0.04,
        delay_prob: 0.08,
        max_extra_delay: SimDuration::from_micros(20),
        rto: SimDuration::from_micros(50),
        crashes: vec![
            CrashWindow {
                node: NodeId::new((seed % nodes) as u32),
                at: SimTime::ZERO + makespan / 8,
                until: SimTime::ZERO + makespan / 3,
            },
            CrashWindow {
                node: NodeId::new(((seed + 1) % nodes) as u32),
                at: SimTime::ZERO + makespan / 2,
                until: SimTime::ZERO + makespan * 3 / 4,
            },
        ],
    };
    SystemConfig {
        faults: FaultConfig {
            plan,
            lock_timeout: SimDuration::from_micros(150),
        },
        state_sample_interval: SimDuration::from_micros(100),
        ..base
    }
}

/// Probe event streams of four cells that between them emit every event
/// kind: combined chaos (crash, repair, retransmit, timeout, sampler),
/// fig3-quick with degraded prediction under the adaptive predictor
/// (batched demand repair, profile updates) and under static prediction
/// (serial demand fetches), and the fig3-quick sub-transaction fault
/// ablation (sub-aborts).
#[test]
fn probe_event_streams_match_their_goldens() {
    let mut kinds = BTreeSet::new();

    let seed = 138;
    let config = combined_chaos_config(seed);
    let (registry, families) = demo_workload(&config, seed);
    let stream = stream_cell(&config, &registry, &families, &mut kinds);
    check_row(
        format!("chaos-combined/LOTEC/{seed}"),
        stream,
        EVENT_STREAMS,
        print_stream,
    );

    let scenario = presets::quick(presets::fig3());
    let (registry, families) = scenario.generate().expect("fig3 generates");
    for adaptive in [true, false] {
        let config = SystemConfig {
            prediction_miss_rate: 0.25,
            adaptive: if adaptive {
                AdaptiveConfig::on()
            } else {
                AdaptiveConfig::default()
            },
            faults: FaultConfig {
                lock_timeout: SimDuration::from_millis(2),
                ..FaultConfig::default()
            },
            ..scenario.system_config()
        };
        let stream = stream_cell(&config, &registry, &families, &mut kinds);
        let label = if adaptive { "adaptive" } else { "static" };
        check_row(
            format!("fig3-quick/LOTEC+{label}/miss25"),
            stream,
            EVENT_STREAMS,
            print_stream,
        );
    }

    let scenario = presets::quick(presets::ablation_faults());
    let (registry, families) = scenario.generate().expect("ablation generates");
    let stream = stream_cell(&scenario.system_config(), &registry, &families, &mut kinds);
    check_row(
        "ablation_faults-quick/LOTEC".to_string(),
        stream,
        EVENT_STREAMS,
        print_stream,
    );

    let missing: Vec<&str> = ALL_KINDS
        .iter()
        .copied()
        .filter(|k| !kinds.contains(k))
        .collect();
    assert!(missing.is_empty(), "no cell emits {missing:?}");
    assert_eq!(kinds.len(), ALL_KINDS.len(), "unlisted kinds: {kinds:?}");
}

/// One replayed protocol's traffic: `(messages, bytes)` for every
/// message kind in `MessageKind::ALL` order, and the ledger's per-object
/// totals folded in object order.
#[derive(Debug, PartialEq, Eq)]
struct ReplayTraffic {
    per_kind: [(u64, u64); 9],
    objects_hash: u64,
}

fn replay_traffic(traffic: &ProtocolTraffic) -> ReplayTraffic {
    let ledger = traffic.ledger();
    let per_kind = MessageKind::ALL.map(|kind| {
        let t = ledger.kind(kind);
        (t.messages, t.bytes)
    });
    let objects_hash = ledger.objects().fold(0u64, |h, (object, t)| {
        mix(mix(mix(h, u64::from(object.index())), t.messages), t.bytes)
    });
    ReplayTraffic {
        per_kind,
        objects_hash,
    }
}

fn print_replay(label: &str, row: &&[ReplayTraffic]) {
    println!("    (\"{label}\", &[");
    for t in row.iter() {
        println!(
            "        ReplayTraffic {{ per_kind: {:?}, objects_hash: {:#018x} }},",
            t.per_kind, t.objects_hash
        );
    }
    println!("    ]),");
}

/// Runs one engine cell, then replays its schedule under every protocol
/// (`replay_trace`) or, with `own_assignment`, under the config's own
/// per-class assignment (`replay_run`). Adds the trace event variants the
/// schedule holds to `variants`.
fn replay_cell(
    label: &str,
    config: &SystemConfig,
    registry: &ObjectRegistry,
    families: &[FamilySpec],
    own_assignment: bool,
    variants: &mut BTreeSet<&'static str>,
) {
    let report = run_engine(config, registry, families).expect("schedule run");
    oracle::verify(&report).expect("serializable");
    variants.extend(report.trace.events().iter().map(|e| match e {
        TraceEvent::Grant { .. } => "grant",
        TraceEvent::RootCommit { .. } => "root_commit",
        TraceEvent::SubAbortRelease { .. } => "sub_abort_release",
        TraceEvent::FamilyAbort { .. } => "family_abort",
    }));
    let rows: Vec<ReplayTraffic> = if own_assignment {
        vec![replay_traffic(&replay_run(&report.trace, registry, config))]
    } else {
        ProtocolKind::ALL
            .iter()
            .map(|&kind| replay_traffic(&replay_trace(kind, &report.trace, registry, config)))
            .collect()
    };
    check_row(label.to_string(), &rows[..], REPLAY_TRAFFIC, print_replay);
}

/// Replay traffic of cells that between them drive every trace event
/// variant and all three demand-fetch paths of the replay model: static
/// serial fetches, adaptive batched repair, and the miss-rate ablation's
/// degraded prefetch set.
#[test]
fn replay_traffic_matches_its_goldens() {
    let mut variants = BTreeSet::new();

    let scenario = presets::quick(presets::fig3());
    let (registry, families) = scenario.generate().expect("fig3 generates");
    for (label, adaptive, miss) in [
        ("fig3-quick/static", false, 0.0),
        ("fig3-quick/adaptive", true, 0.0),
        ("fig3-quick/static/miss25", false, 0.25),
        ("fig3-quick/adaptive/miss25", true, 0.25),
    ] {
        let config = SystemConfig {
            prediction_miss_rate: miss,
            adaptive: if adaptive {
                AdaptiveConfig::on()
            } else {
                AdaptiveConfig::default()
            },
            ..scenario.system_config()
        };
        replay_cell(label, &config, &registry, &families, false, &mut variants);
    }
    // Per-class protocols through `replay_run`: the last class under RC,
    // the one before it under OTEC, the rest LOTEC, with multicast pushes.
    let classes = scenario.config.schema.num_classes;
    let config = SystemConfig {
        multicast: true,
        ..scenario.system_config()
    }
    .with_class_protocol(ClassId::new(classes - 1), ProtocolKind::ReleaseConsistency)
    .with_class_protocol(ClassId::new(classes - 2), ProtocolKind::Otec);
    replay_cell(
        "fig3-quick/per-class",
        &config,
        &registry,
        &families,
        true,
        &mut variants,
    );

    let seed = 138;
    let config = combined_chaos_config(seed);
    let (registry, families) = demo_workload(&config, seed);
    replay_cell(
        &format!("chaos-combined/{seed}"),
        &config,
        &registry,
        &families,
        false,
        &mut variants,
    );

    let scenario = presets::quick(presets::ablation_faults());
    let (registry, families) = scenario.generate().expect("ablation generates");
    replay_cell(
        "ablation_faults-quick",
        &scenario.system_config(),
        &registry,
        &families,
        false,
        &mut variants,
    );

    let zoo = lotec_workload::zoo::by_name("multi_tenant", lotec_workload::Tier::Tiny)
        .expect("multi_tenant is a zoo family");
    let (registry, families) = zoo.generate().expect("zoo generates");
    replay_cell(
        "zoo/multi_tenant",
        &zoo.cell_config(ProtocolKind::Lotec, false),
        &registry,
        &families,
        false,
        &mut variants,
    );

    assert_eq!(
        variants.into_iter().collect::<Vec<_>>(),
        ["family_abort", "grant", "root_commit", "sub_abort_release"],
        "the replay cells must drive every trace event variant"
    );
}

/// Replay traffic captured before replay placement became lazy. One entry
/// per protocol in `ProtocolKind::ALL` order; the per-class row holds the
/// one `replay_run` result.
#[rustfmt::skip]
const REPLAY_TRAFFIC: &[(&str, &[ReplayTraffic])] = &[
    ("fig3-quick/static", &[
        ReplayTraffic { per_kind: [(93, 4092), (92, 14418), (92, 7096), (84, 8304), (84, 3851520), (0, 0), (0, 0), (0, 0), (0, 0)], objects_hash: 0x74771acb8e275c40 },
        ReplayTraffic { per_kind: [(93, 4092), (92, 14418), (92, 7096), (70, 6176), (70, 2699712), (0, 0), (0, 0), (0, 0), (0, 0)], objects_hash: 0x04ffe85ee75d0d6d },
        ReplayTraffic { per_kind: [(93, 4092), (92, 14418), (92, 7096), (112, 7400), (112, 2618816), (0, 0), (0, 0), (0, 0), (0, 0)], objects_hash: 0x1065a27a649b9168 },
        ReplayTraffic { per_kind: [(93, 4092), (92, 14418), (92, 7096), (41, 3736), (41, 1662560), (0, 0), (0, 0), (289, 8973408), (0, 0)], objects_hash: 0x2038179d75835917 },
    ]),
    ("fig3-quick/adaptive", &[
        ReplayTraffic { per_kind: [(93, 4092), (92, 14418), (92, 7096), (84, 3360), (84, 3851520), (0, 0), (0, 0), (0, 0), (0, 0)], objects_hash: 0x28e1414b035b3371 },
        ReplayTraffic { per_kind: [(93, 4092), (92, 14418), (92, 7096), (70, 3184), (70, 2699712), (0, 0), (0, 0), (0, 0), (0, 0)], objects_hash: 0xf9c713c59e086b7d },
        ReplayTraffic { per_kind: [(93, 4092), (92, 14418), (92, 7096), (112, 5368), (112, 2614704), (1, 38), (1, 4144), (0, 0), (0, 0)], objects_hash: 0xe4486fb198119fa0 },
        ReplayTraffic { per_kind: [(93, 4092), (92, 14418), (92, 7096), (41, 1864), (41, 1662560), (0, 0), (0, 0), (289, 8973408), (0, 0)], objects_hash: 0xe198db02a7d87e92 },
    ]),
    ("fig3-quick/static/miss25", &[
        ReplayTraffic { per_kind: [(93, 4092), (92, 14418), (92, 7096), (84, 8304), (84, 3851520), (0, 0), (0, 0), (0, 0), (0, 0)], objects_hash: 0x74771acb8e275c40 },
        ReplayTraffic { per_kind: [(93, 4092), (92, 14418), (92, 7096), (70, 6176), (70, 2699712), (0, 0), (0, 0), (0, 0), (0, 0)], objects_hash: 0x04ffe85ee75d0d6d },
        ReplayTraffic { per_kind: [(93, 4092), (92, 14418), (92, 7096), (108, 6396), (108, 2018336), (117, 4446), (117, 484848), (0, 0), (0, 0)], objects_hash: 0xa614655dc5f4be61 },
        ReplayTraffic { per_kind: [(93, 4092), (92, 14418), (92, 7096), (41, 3736), (41, 1662560), (0, 0), (0, 0), (289, 8973408), (0, 0)], objects_hash: 0x2038179d75835917 },
    ]),
    ("fig3-quick/adaptive/miss25", &[
        ReplayTraffic { per_kind: [(93, 4092), (92, 14418), (92, 7096), (84, 3360), (84, 3851520), (0, 0), (0, 0), (0, 0), (0, 0)], objects_hash: 0x28e1414b035b3371 },
        ReplayTraffic { per_kind: [(93, 4092), (92, 14418), (92, 7096), (70, 3184), (70, 2699712), (0, 0), (0, 0), (0, 0), (0, 0)], objects_hash: 0xf9c713c59e086b7d },
        ReplayTraffic { per_kind: [(93, 4092), (92, 14418), (92, 7096), (112, 5476), (112, 1997904), (71, 2944), (71, 503936), (0, 0), (0, 0)], objects_hash: 0x843e5e61fe2ca3d2 },
        ReplayTraffic { per_kind: [(93, 4092), (92, 14418), (92, 7096), (41, 1864), (41, 1662560), (0, 0), (0, 0), (289, 8973408), (0, 0)], objects_hash: 0xe198db02a7d87e92 },
    ]),
    ("fig3-quick/per-class", &[
        ReplayTraffic { per_kind: [(96, 4224), (94, 14776), (94, 7160), (60, 4896), (60, 2041472), (0, 0), (0, 0), (51, 1428496), (0, 0)], objects_hash: 0x25f974bccd68e3d6 },
    ]),
    ("chaos-combined/138", &[
        ReplayTraffic { per_kind: [(8, 352), (8, 632), (8, 358), (8, 400), (8, 98944), (0, 0), (0, 0), (0, 0), (0, 0)], objects_hash: 0xb464ffee1411ab81 },
        ReplayTraffic { per_kind: [(8, 352), (8, 632), (8, 358), (5, 220), (5, 41280), (0, 0), (0, 0), (0, 0), (0, 0)], objects_hash: 0x42e633f88178f811 },
        ReplayTraffic { per_kind: [(8, 352), (8, 632), (8, 358), (5, 196), (5, 24832), (0, 0), (0, 0), (0, 0), (0, 0)], objects_hash: 0xad282d2c650b8947 },
        ReplayTraffic { per_kind: [(8, 352), (8, 632), (8, 358), (5, 220), (5, 41280), (0, 0), (0, 0), (9, 57856), (0, 0)], objects_hash: 0x6cff28515090694e },
    ]),
    ("ablation_faults-quick", &[
        ReplayTraffic { per_kind: [(95, 4180), (90, 19856), (90, 7788), (84, 11538), (84, 6067888), (0, 0), (0, 0), (0, 0), (0, 0)], objects_hash: 0x8cb4fc3674cacb86 },
        ReplayTraffic { per_kind: [(95, 4180), (90, 19856), (90, 7788), (65, 7816), (65, 3933152), (0, 0), (0, 0), (0, 0), (0, 0)], objects_hash: 0xb727bf5284653444 },
        ReplayTraffic { per_kind: [(95, 4180), (90, 19856), (90, 7788), (106, 8888), (106, 3769984), (0, 0), (0, 0), (0, 0), (0, 0)], objects_hash: 0x79905d8136fbf883 },
        ReplayTraffic { per_kind: [(95, 4180), (90, 19856), (90, 7788), (37, 4400), (37, 2205216), (0, 0), (0, 0), (213, 11092768), (0, 0)], objects_hash: 0x01c11235a590b695 },
    ]),
    ("zoo/multi_tenant", &[
        ReplayTraffic { per_kind: [(93, 4092), (93, 5786), (93, 3408), (94, 4034), (94, 706160), (0, 0), (0, 0), (0, 0), (0, 0)], objects_hash: 0x7b01c43bfff995d7 },
        ReplayTraffic { per_kind: [(93, 4092), (93, 5786), (93, 3408), (30, 1248), (30, 198336), (0, 0), (0, 0), (0, 0), (0, 0)], objects_hash: 0x1dac9fd58427f3ed },
        ReplayTraffic { per_kind: [(93, 4092), (93, 5786), (93, 3408), (33, 1344), (33, 198432), (0, 0), (0, 0), (0, 0), (0, 0)], objects_hash: 0x2008a57f953e6526 },
        ReplayTraffic { per_kind: [(93, 4092), (93, 5786), (93, 3408), (19, 782), (19, 119856), (0, 0), (0, 0), (102, 599504), (0, 0)], objects_hash: 0x82d774a2535c6250 },
    ]),
];

/// Probe event streams, captured before the lock and deadlock events moved
/// from the lock table into the engine.
#[rustfmt::skip]
const EVENT_STREAMS: &[(&str, EventStream)] = &[
    ("chaos-combined/LOTEC/138", EventStream { events: 144, jsonl_hash: 0x923ea9e130039641 }),
    ("fig3-quick/LOTEC+adaptive/miss25", EventStream { events: 3215, jsonl_hash: 0xd2dc134b0769f9ef }),
    ("fig3-quick/LOTEC+static/miss25", EventStream { events: 3477, jsonl_hash: 0x4bb9a71467bdd936 }),
    ("ablation_faults-quick/LOTEC", EventStream { events: 1318, jsonl_hash: 0xf0bda48c68cea9c0 }),
];

/// Golden fingerprints captured from the pre-overhaul build.
#[rustfmt::skip]
const GOLDEN: &[(&str, Fingerprint)] = &[
    ("fig3/COTEC", Fingerprint { committed: 50, makespan_ns: 133668233, total_messages: 448, total_bytes: 4013000, chain_hash: 0xdb311cc69ef168bc, stats_hash: 0x46fa6409d501946d }),
    ("fig3/OTEC", Fingerprint { committed: 50, makespan_ns: 108651853, total_messages: 432, total_bytes: 2880552, chain_hash: 0xe3bd966d49e1a5d1, stats_hash: 0x65c665201cee7bad }),
    ("fig3/LOTEC", Fingerprint { committed: 50, makespan_ns: 88727313, total_messages: 501, total_bytes: 2651822, chain_hash: 0xc517c0f9cee501d8, stats_hash: 0x5149120633fe0116 }),
    ("fig3/RC", Fingerprint { committed: 50, makespan_ns: 61954713, total_messages: 658, total_bytes: 10719290, chain_hash: 0xdf6021209afa1cd1, stats_hash: 0xa09de8c99d0715a9 }),
    ("chaos/COTEC/101", Fingerprint { committed: 8, makespan_ns: 2846882, total_messages: 63, total_bytes: 163336, chain_hash: 0x9f5451439e5af275, stats_hash: 0x4460177283c61fd0 }),
    ("chaos/COTEC/138", Fingerprint { committed: 8, makespan_ns: 2551964, total_messages: 47, total_bytes: 101104, chain_hash: 0x3eebb50f137e013a, stats_hash: 0x0ac8eb44f8878659 }),
    ("chaos/COTEC/175", Fingerprint { committed: 8, makespan_ns: 2231753, total_messages: 40, total_bytes: 117136, chain_hash: 0xca80a0b0a80f2a3b, stats_hash: 0xa7b3915a4357755c }),
    ("chaos/OTEC/101", Fingerprint { committed: 8, makespan_ns: 1084725, total_messages: 52, total_bytes: 47660, chain_hash: 0x408f04c97c9de0d2, stats_hash: 0xa025322559a7b731 }),
    ("chaos/OTEC/138", Fingerprint { committed: 8, makespan_ns: 1857184, total_messages: 41, total_bytes: 51510, chain_hash: 0x336bca1d0a24d4c0, stats_hash: 0x07e92cfbd2c29229 }),
    ("chaos/OTEC/175", Fingerprint { committed: 8, makespan_ns: 1785980, total_messages: 34, total_bytes: 42836, chain_hash: 0xca80a0b0a80f2a3b, stats_hash: 0x4be8c780c3e5290f }),
    ("chaos/LOTEC/101", Fingerprint { committed: 8, makespan_ns: 989720, total_messages: 47, total_bytes: 18748, chain_hash: 0x6e4209f23eba80c2, stats_hash: 0x21f924b377cf06cc }),
    ("chaos/LOTEC/138", Fingerprint { committed: 8, makespan_ns: 979492, total_messages: 41, total_bytes: 39144, chain_hash: 0x3eebb50f137e013a, stats_hash: 0xfe71ef0884a8458d }),
    ("chaos/LOTEC/175", Fingerprint { committed: 8, makespan_ns: 1785980, total_messages: 32, total_bytes: 34526, chain_hash: 0xca80a0b0a80f2a3b, stats_hash: 0xcad4a99c2b0006dd }),
    ("chaos/RC/101", Fingerprint { committed: 8, makespan_ns: 1028128, total_messages: 70, total_bytes: 109950, chain_hash: 0x408f04c97c9de0d2, stats_hash: 0x566c9322345aafa4 }),
    ("chaos/RC/138", Fingerprint { committed: 8, makespan_ns: 1857184, total_messages: 50, total_bytes: 101074, chain_hash: 0x336bca1d0a24d4c0, stats_hash: 0x67640f72f6235dba }),
    ("chaos/RC/175", Fingerprint { committed: 8, makespan_ns: 1771480, total_messages: 41, total_bytes: 112912, chain_hash: 0xca80a0b0a80f2a3b, stats_hash: 0x93ef769d58ad9a4d }),
    // Adaptive-prediction cells (LOTEC + AdaptiveConfig::on()). The fig3
    // chain hash matches the static cell — same committed state, fewer
    // bytes moved.
    ("fig3/LOTEC+adaptive", Fingerprint { committed: 50, makespan_ns: 88697873, total_messages: 503, total_bytes: 2649860, chain_hash: 0xc517c0f9cee501d8, stats_hash: 0x18fe3323a3ab7645 }),
    ("chaos/LOTEC+adaptive/101", Fingerprint { committed: 8, makespan_ns: 989720, total_messages: 47, total_bytes: 18748, chain_hash: 0x6e4209f23eba80c2, stats_hash: 0x21f924b377cf06cc }),
    ("chaos/LOTEC+adaptive/138", Fingerprint { committed: 8, makespan_ns: 979492, total_messages: 41, total_bytes: 39140, chain_hash: 0x3eebb50f137e013a, stats_hash: 0x93dbb90348e7baf5 }),
    ("chaos/LOTEC+adaptive/175", Fingerprint { committed: 8, makespan_ns: 1784220, total_messages: 32, total_bytes: 34504, chain_hash: 0xca80a0b0a80f2a3b, stats_hash: 0xd623128a1cee7e8d }),
    // Workload-zoo tiny-tier cells, LOTEC static: pins the zoo generator
    // (tenancy, migration rotation, diurnal arrivals, tree shaping).
    ("zoo/multi_tenant", Fingerprint { committed: 60, makespan_ns: 9867217, total_messages: 345, total_bytes: 213062, chain_hash: 0x7fca76e70f8e6f0f, stats_hash: 0xbdb64dcf20bdf29d }),
    ("zoo/hotspot_migration", Fingerprint { committed: 48, makespan_ns: 4937062, total_messages: 321, total_bytes: 274366, chain_hash: 0xded1ccfae7488702, stats_hash: 0xfb79a7f0cee5a69c }),
    ("zoo/diurnal_burst", Fingerprint { committed: 40, makespan_ns: 5833876, total_messages: 224, total_bytes: 122044, chain_hash: 0xa229a22f9678c36a, stats_hash: 0x0fb52f2b68a872b1 }),
    ("zoo/deep_trees", Fingerprint { committed: 40, makespan_ns: 8591112, total_messages: 374, total_bytes: 328994, chain_hash: 0xbca735e1815906e6, stats_hash: 0x59c4543c6dec6360 }),
    ("zoo/wide_trees", Fingerprint { committed: 40, makespan_ns: 51958317, total_messages: 1319, total_bytes: 1101986, chain_hash: 0xb1d66e3d77441b0e, stats_hash: 0x5e2039a6e4a56f0b }),
    ("zoo/scaleout", Fingerprint { committed: 48, makespan_ns: 6143715, total_messages: 376, total_bytes: 214450, chain_hash: 0xe19f08fa3d0159d9, stats_hash: 0x36ac30b12ac4e9fc }),
];
