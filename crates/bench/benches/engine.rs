//! Self-timed benches of the discrete-event engine itself: full runs per
//! protocol (how the protocol choice affects simulation cost) and the
//! undo/shadow recovery ablation under fault injection.

use lotec_bench::harness::{bench, opaque};
use lotec_core::config::RecoveryKind;
use lotec_core::engine::Engine;
use lotec_core::protocol::ProtocolKind;
use lotec_core::SystemConfig;
use lotec_workload::presets;

fn bench_engine_per_protocol() {
    let scenario = presets::quick(presets::fig3());
    let (registry, families) = scenario.generate().expect("generates");
    for protocol in ProtocolKind::ALL {
        let config = SystemConfig {
            protocol,
            num_nodes: scenario.config.num_nodes,
            page_size: scenario.config.schema.page_size,
            ..SystemConfig::default()
        };
        bench(&format!("engine_run/{protocol}"), || {
            let report = Engine::new(opaque(&config), &registry, &families)
                .and_then(Engine::run)
                .expect("runs");
            report.stats.committed_families
        });
    }
}

fn bench_recovery_ablation() {
    let scenario = presets::quick(presets::ablation_faults());
    let (registry, families) = scenario.generate().expect("generates");
    for (label, recovery) in [
        ("undo_log", RecoveryKind::UndoLog),
        ("shadow_pages", RecoveryKind::ShadowPages),
    ] {
        let config = SystemConfig {
            recovery,
            num_nodes: scenario.config.num_nodes,
            page_size: scenario.config.schema.page_size,
            ..SystemConfig::default()
        };
        bench(&format!("recovery/{label}"), || {
            let report = Engine::new(opaque(&config), &registry, &families)
                .and_then(Engine::run)
                .expect("runs");
            report.stats.subtxn_aborts
        });
    }
}

fn main() {
    bench_engine_per_protocol();
    bench_recovery_ablation();
}
