//! End-to-end observability tests at the facade level: recording a trace
//! from a real engine run must not perturb the simulation, and the two
//! export formats must be faithful (JSONL losslessly, Chrome trace as
//! valid, monotonic JSON).

use lotec::obs::{chrome_trace, jsonl_decode, jsonl_encode, Json, ObsEventKind};
use lotec::prelude::*;
use lotec::sim::FaultPlan;
use lotec_core::config::FaultConfig;
use lotec_core::spec::demo_workload;

fn quickstart() -> (SystemConfig, ObjectRegistry, Vec<FamilySpec>) {
    let scenario = lotec::workload::presets::quick(lotec::workload::presets::fig2());
    let (registry, families) = scenario.generate().expect("generates");
    let config = scenario.system_config();
    (config, registry, families)
}

/// Recording a trace changes nothing observable about the run: every
/// `RunStats` counter and the traffic ledger totals are identical to the
/// no-op-sink run, on a quickstart-sized workload.
#[test]
fn recording_sink_does_not_perturb_the_simulation() {
    let (config, registry, families) = quickstart();
    let plain = run_engine(&config, &registry, &families).expect("plain run");
    let mut sink = RecordingSink::new();
    let probed = Engine::with_probe(&config, &registry, &families, &mut sink)
        .and_then(Engine::run)
        .expect("probed run");
    assert!(!sink.is_empty(), "a real run must record events");

    // Counters, one by one (RunStats holds histograms, so no blanket Eq).
    let a = &plain.stats;
    let b = &probed.stats;
    assert_eq!(a.committed_families, b.committed_families);
    assert_eq!(a.aborted_families, b.aborted_families);
    assert_eq!(a.subtxn_aborts, b.subtxn_aborts);
    assert_eq!(a.deadlocks, b.deadlocks);
    assert_eq!(a.restarts, b.restarts);
    assert_eq!(a.demand_fetches, b.demand_fetches);
    assert_eq!(a.local_lock_grants, b.local_lock_grants);
    assert_eq!(a.global_lock_grants, b.global_lock_grants);
    assert_eq!(a.queued_lock_requests, b.queued_lock_requests);
    assert_eq!(a.prefetch_hits, b.prefetch_hits);
    assert_eq!(a.prefetch_saved, b.prefetch_saved);
    assert_eq!(a.makespan, b.makespan);
    assert_eq!(a.total_latency, b.total_latency);
    assert_eq!(a.phases.aggregate, b.phases.aggregate);
    assert_eq!(a.phases.per_family, b.phases.per_family);

    // The full schedule, final memory state and traffic ledger agree.
    assert_eq!(plain.trace, probed.trace);
    assert_eq!(plain.final_chains, probed.final_chains);
    assert_eq!(plain.traffic.total(), probed.traffic.total());
    assert_eq!(
        plain.traffic.ledger().total_time(NetworkConfig::default()),
        probed.traffic.ledger().total_time(NetworkConfig::default())
    );
}

/// JSONL encode/decode round-trips a real engine trace exactly.
#[test]
fn jsonl_round_trips_an_engine_trace() {
    let (config, registry, families) = quickstart();
    let mut sink = RecordingSink::new();
    Engine::with_probe(&config, &registry, &families, &mut sink)
        .and_then(Engine::run)
        .expect("runs");
    let events = sink.into_events();
    assert!(
        events.len() > families.len(),
        "at least one event per family"
    );
    let text = jsonl_encode(&events);
    assert_eq!(text.lines().count(), events.len());
    let back = jsonl_decode(&text).expect("decodes");
    assert_eq!(events, back);
}

/// The Chrome trace built from a real run is valid JSON, has monotonically
/// non-decreasing `ts`, and contains at least one phase slice per
/// committed family — the shape Perfetto needs to load it.
#[test]
fn chrome_trace_is_valid_and_monotonic() {
    let (config, registry, families) = quickstart();
    let mut sink = RecordingSink::new();
    let report = Engine::with_probe(&config, &registry, &families, &mut sink)
        .and_then(Engine::run)
        .expect("runs");
    let events = sink.into_events();
    let trace = chrome_trace(&events);

    // Survives a full render → re-parse cycle.
    let rendered = trace.render_pretty();
    assert_eq!(Json::parse(&rendered).expect("valid JSON"), trace);

    let items = trace
        .get("traceEvents")
        .expect("traceEvents")
        .as_array()
        .expect("array");
    let mut last_ts = f64::NEG_INFINITY;
    let mut slices = 0u64;
    let mut span_slices = 0u64;
    let mut families_with_slices = std::collections::BTreeSet::new();
    for item in items {
        let ts = item.get("ts").expect("ts").as_f64().expect("numeric ts");
        assert!(ts >= last_ts, "ts must be monotonic: {ts} < {last_ts}");
        last_ts = ts;
        if item.get("ph").and_then(|p| p.as_str()) == Some("X") {
            slices += 1;
            assert!(item.get("dur").expect("dur").as_f64().expect("numeric dur") >= 0.0);
            // Phase slices ride `tid = family`; span slices ride offset
            // sibling rows, so only the former count toward coverage.
            match item.get("cat").and_then(|c| c.as_str()) {
                Some("phase") => {
                    families_with_slices.extend(item.get("tid").and_then(lotec::obs::Json::as_u64));
                }
                Some("span") => span_slices += 1,
                other => panic!("unexpected slice category {other:?}"),
            }
        }
    }
    assert!(slices > 0, "a real run produces phase slices");
    assert!(span_slices > 0, "a real run produces span slices");
    assert_eq!(
        families_with_slices.len() as u64,
        report.stats.committed_families + report.stats.aborted_families,
        "every family gets at least one slice"
    );
}

/// The span tree built from a real run mirrors the transaction tree:
/// one root span per family attempt that reached execution, children
/// properly nested inside parents, and committed roots closed with a
/// commit outcome.
#[test]
fn span_tree_mirrors_transaction_families() {
    let (config, registry, families) = quickstart();
    let mut sink = RecordingSink::new();
    let report = Engine::with_probe(&config, &registry, &families, &mut sink)
        .and_then(Engine::run)
        .expect("runs");
    let tree = lotec::obs::SpanTree::build(sink.events());
    assert!(!tree.is_empty(), "a real run opens spans");

    // Every committed family contributes at least one root span that
    // closed with outcome `commit`.
    let committed_roots = tree
        .roots()
        .iter()
        .filter(|&&id| {
            tree.get(id)
                .is_some_and(|s| s.outcome == Some(lotec::obs::SpanOutcome::Commit))
        })
        .count() as u64;
    assert_eq!(committed_roots, report.stats.committed_families);

    // Structural sanity: children nest inside their parents in time and
    // agree on the family.
    for span in tree.spans() {
        if let Some(parent) = span.parent.and_then(|p| tree.get(p)) {
            assert_eq!(parent.family, span.family);
            assert!(span.open >= parent.open);
            if let (Some(c), Some(p)) = (span.close, parent.close) {
                assert!(c <= p, "child must close before its parent");
            }
        }
    }
}

/// Critical paths extracted from a real run tile each committed family's
/// commit window exactly and agree with the engine's latency accounting.
#[test]
fn critical_paths_tile_commit_windows() {
    let (config, registry, families) = quickstart();
    let mut sink = RecordingSink::new();
    let report = Engine::with_probe(&config, &registry, &families, &mut sink)
        .and_then(Engine::run)
        .expect("runs");
    let paths = lotec::obs::critical_paths(sink.events());
    assert_eq!(paths.len() as u64, report.stats.committed_families);

    let mut total = SimDuration::ZERO;
    for path in &paths {
        assert!(!path.edges.is_empty());
        // Edges tile the window: consecutive, gap-free, summing to the
        // end-to-end latency.
        let mut cursor = path.start;
        for edge in &path.edges {
            assert_eq!(edge.start, cursor, "edges must be contiguous");
            cursor = edge.end;
        }
        assert_eq!(cursor, path.end);
        assert_eq!(path.self_time.total(), path.latency());
        total += path.latency();
    }
    // Summed per-path latency is the engine's total latency.
    assert_eq!(total, report.stats.total_latency);
}

/// The trace's phase events replay to exactly the engine's own
/// phase-attributed accounting — on lossy links too, where both book
/// retransmission stalls as backoff rather than as the wait they
/// interrupted.
#[test]
fn trace_summary_agrees_with_engine_accounting() {
    let (config, registry, families) = quickstart();
    let mut sink = RecordingSink::new();
    let report = Engine::with_probe(&config, &registry, &families, &mut sink)
        .and_then(Engine::run)
        .expect("runs");
    let summary = TraceSummary::of(sink.events());
    assert_eq!(summary.aggregate, report.stats.phases.aggregate);
    // Every recorded event kind census entry is non-zero by construction.
    assert!(summary.kind_counts.values().all(|&c| c > 0));
    let grants = sink
        .events()
        .iter()
        .filter(|e| matches!(e.kind, ObsEventKind::LockGranted { .. }))
        .count() as u64;
    // Immediate grants all emit; queued requests emit when (and only
    // when) a release eventually grants them, so cancelled waiters —
    // deadlock victims — account for any shortfall.
    let immediate = report.stats.local_lock_grants + report.stats.global_lock_grants;
    assert!(grants >= immediate);
    assert!(grants <= immediate + report.stats.queued_lock_requests);

    // The chaos goldens' drop plan over the demo workload.
    let mut backoff = SimDuration::ZERO;
    for protocol in ProtocolKind::ALL {
        for seed in [101, 138, 175] {
            let plan = FaultPlan {
                drop_prob: 0.10 + 0.02 * (seed % 5) as f64,
                duplicate_prob: 0.05,
                delay_prob: 0.10,
                max_extra_delay: SimDuration::from_micros(25),
                rto: SimDuration::from_micros(50),
                crashes: Vec::new(),
            };
            let config = SystemConfig {
                protocol,
                seed,
                faults: FaultConfig {
                    plan,
                    ..FaultConfig::default()
                },
                ..SystemConfig::default()
            };
            let (registry, families) = demo_workload(&config, seed);
            let mut sink = RecordingSink::new();
            let report = Engine::with_probe(&config, &registry, &families, &mut sink)
                .and_then(Engine::run)
                .expect("lossy run");
            let engine = report.stats.phases.aggregate;
            assert_eq!(
                TraceSummary::of(sink.events()).aggregate,
                engine,
                "{protocol}/{seed}"
            );
            backoff += engine.backoff;
        }
    }
    assert!(
        backoff > SimDuration::ZERO,
        "no retransmit stall was booked"
    );
}
