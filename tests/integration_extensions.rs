//! The extension features (paper §6 future work) working together: per-
//! class protocols, DSD transfer granularity, multicast pushes, optimistic
//! lock prefetching and fault injection, all in one run.

use lotec::prelude::*;
use lotec_core::SystemConfig as Cfg;

fn everything_enabled(scenario: &lotec::workload::Scenario) -> Cfg {
    Cfg {
        dsd_transfers: true,
        multicast: true,
        lock_prefetch: true,
        ..scenario.system_config()
    }
    // Put the last class under RC so multicast has pushes to collapse.
    .with_class_protocol(
        ClassId::new(scenario.config.schema.num_classes - 1),
        ProtocolKind::ReleaseConsistency,
    )
}

#[test]
fn all_extensions_compose_serializably() {
    let scenario = lotec::workload::presets::quick(lotec::workload::presets::ablation_faults());
    let (registry, families) = scenario.generate().expect("generates");
    let config = everything_enabled(&scenario);
    let report = Engine::new(&config, &registry, &families)
        .and_then(Engine::run)
        .expect("kitchen-sink run");
    oracle::verify(&report).expect("all extensions together stay serializable");
    assert!(report.stats.committed_families > 0);
    assert!(report.stats.subtxn_aborts > 0, "faults must fire");
}

#[test]
fn all_extensions_stay_deterministic() {
    let scenario = lotec::workload::presets::quick(lotec::workload::presets::fig3());
    let (registry, families) = scenario.generate().expect("generates");
    let config = everything_enabled(&scenario);
    let a = Engine::new(&config, &registry, &families)
        .and_then(Engine::run)
        .expect("run a");
    let b = Engine::new(&config, &registry, &families)
        .and_then(Engine::run)
        .expect("run b");
    assert_eq!(a.trace, b.trace);
    assert_eq!(a.traffic.total(), b.traffic.total());
    assert_eq!(a.final_chains, b.final_chains);
}

#[test]
fn all_extensions_match_replay_accounting() {
    let scenario = lotec::workload::presets::quick(lotec::workload::presets::fig2());
    let (registry, families) = scenario.generate().expect("generates");
    let config = everything_enabled(&scenario);
    let report = Engine::new(&config, &registry, &families)
        .and_then(Engine::run)
        .expect("runs");
    let replayed = lotec_core::replay::replay_run(&report.trace, &registry, &config);
    assert_eq!(report.traffic.total(), replayed.total());
}

#[test]
fn persisted_scenario_reproduces_full_pipeline_results() {
    use lotec::workload::persist;
    let scenario = lotec::workload::presets::quick(lotec::workload::presets::fig4());
    let json = persist::to_json(&scenario).expect("serializes");
    let reloaded = persist::from_json(&json).expect("deserializes");

    let run = |s: &lotec::workload::Scenario| {
        let (registry, families) = s.generate().expect("generates");
        let cmp = compare_protocols(&s.system_config(), &registry, &families).expect("runs");
        (
            cmp.total(ProtocolKind::Lotec),
            cmp.total(ProtocolKind::Otec),
            cmp.total(ProtocolKind::Cotec),
        )
    };
    assert_eq!(
        run(&scenario),
        run(&reloaded),
        "JSON roundtrip preserves every result"
    );
}

#[test]
fn dsd_never_increases_any_objects_bytes_on_the_same_schedule() {
    // Smaller DSD messages travel faster, so a *live* DSD engine run can
    // reach a different (equally valid) schedule. For an apples-to-apples
    // granularity claim, replay one fixed schedule under both sizings.
    let scenario = lotec::workload::presets::quick(lotec::workload::presets::fig2());
    let (registry, families) = scenario.generate().expect("generates");
    let base = scenario.system_config();
    let report = Engine::new(&base, &registry, &families)
        .and_then(Engine::run)
        .expect("schedule run");
    let page = lotec_core::replay::replay_run(&report.trace, &registry, &base);
    let dsd_cfg = Cfg {
        dsd_transfers: true,
        ..base
    };
    let dsd = lotec_core::replay::replay_run(&report.trace, &registry, &dsd_cfg);
    assert!(
        dsd.total().bytes < page.total().bytes,
        "dsd must shave fragmentation"
    );
    assert_eq!(dsd.total().messages, page.total().messages);
    for inst in registry.objects() {
        let p = page.object(inst.id).bytes;
        let d = dsd.object(inst.id).bytes;
        assert!(d <= p, "{}: dsd {d} > page {p}", inst.id);
    }
}
