//! Chaos suite: seeded fault-injection scenarios over the whole engine.
//!
//! Every scenario runs a demo workload under an enabled fault plan —
//! lossy links, scheduled node outages, or both plus lock-request
//! timeouts — and must (a) reproduce itself exactly from its seed,
//! (b) commit a nonzero number of families, and (c) pass the
//! serializability oracle. Faults may slow the system down arbitrarily;
//! they may never make it wrong.
//!
//! The suite enumerates `4 protocols x 3 fault modes x CHAOS_SEEDS
//! seeds` scenarios (60 at the default of 5 seeds). CI sets
//! `CHAOS_SEEDS` lower to bound wall time.

use lotec::prelude::*;
use lotec::sim::{CrashWindow, FaultPlan};
use lotec_core::config::FaultConfig;
use lotec_core::spec::demo_workload;
use lotec_core::AdaptiveConfig;

/// Seeds for the sweep; override the count with `CHAOS_SEEDS=n`.
fn seeds() -> Vec<u64> {
    let n: u64 = std::env::var("CHAOS_SEEDS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(5);
    (0..n).map(|i| 101 + 37 * i).collect()
}

fn config_for(protocol: ProtocolKind, seed: u64, faults: FaultConfig) -> SystemConfig {
    SystemConfig {
        protocol,
        seed,
        faults,
        ..SystemConfig::default()
    }
}

/// Fault-free makespan of the scenario, used to place crash windows where
/// they are guaranteed to overlap live traffic.
fn calibrate_makespan(protocol: ProtocolKind, seed: u64) -> SimDuration {
    let config = config_for(protocol, seed, FaultConfig::default());
    let (registry, families) = demo_workload(&config, seed);
    Engine::new(&config, &registry, &families)
        .and_then(Engine::run)
        .expect("fault-free calibration run")
        .stats
        .makespan
}

/// Runs one chaos scenario twice and checks determinism, liveness, and
/// serializability.
fn check_scenario(protocol: ProtocolKind, seed: u64, faults: FaultConfig, label: &str) {
    let config = config_for(protocol, seed, faults);
    check_config(&config, seed, label);
}

/// Like [`check_scenario`] but takes a prebuilt config (for adaptive
/// variants) and hands the report back for extra assertions.
///
/// The second run carries the flight recorder, so the determinism
/// assertions double as a recorder-does-not-perturb check on every chaos
/// scenario, and an oracle violation leaves a forensics dump behind: the
/// panic message names the dump path so the failing seed can be triaged
/// offline with `obs_report --forensics`.
fn check_config(config: &SystemConfig, seed: u64, label: &str) -> RunReport {
    let protocol = config.protocol;
    let (registry, families) = demo_workload(config, seed);
    let a = Engine::new(config, &registry, &families)
        .and_then(Engine::run)
        .unwrap_or_else(|e| panic!("{label}/{protocol}/seed {seed}: run failed: {e}"));
    let mut recorder = lotec_obs::FlightRecorder::new(config.flight_recorder.slots as usize);
    let b = Engine::with_probe(config, &registry, &families, &mut recorder)
        .and_then(Engine::run)
        .expect("second run");

    // (a) Deterministic from the seed: both runs are byte-identical.
    assert_eq!(a.trace, b.trace, "{label}/{protocol}/seed {seed}");
    assert_eq!(a.final_chains, b.final_chains, "{label}/{protocol}/{seed}");
    assert_eq!(
        a.traffic.total(),
        b.traffic.total(),
        "{label}/{protocol}/{seed}"
    );
    assert_eq!(
        a.stats.makespan, b.stats.makespan,
        "{label}/{protocol}/{seed}"
    );

    // (b) Liveness: faults delay commits, they do not eat them. The demo
    // workload has no programmed root faults, so every family commits.
    assert!(
        a.stats.committed_families > 0,
        "{label}/{protocol}/seed {seed}: nothing committed"
    );
    assert_eq!(
        a.stats.committed_families as usize,
        families.len(),
        "{label}/{protocol}/seed {seed}: families lost"
    );

    // (c) Safety: the chaos run is still serializable. On violation,
    // dump the recorder ring before panicking so the anomaly can be
    // triaged without re-running the scenario.
    if let Err(e) = oracle::verify(&a) {
        let stem =
            std::env::temp_dir().join(format!("lotec_forensics_{label}_{protocol}_seed{seed}"));
        let dump = lotec_obs::ForensicsDump::oracle_violation(e.to_string(), &recorder);
        let written = dump
            .write_pair(&stem)
            .map(|(jsonl, _)| jsonl.display().to_string())
            .unwrap_or_else(|w| format!("<dump write failed: {w}>"));
        panic!(
            "{label}/{protocol}/seed {seed}: not serializable: {e}\n\
             forensics dump: {written} (inspect with `obs_report --forensics`)"
        );
    }
    a
}

fn drop_plan(seed: u64) -> FaultPlan {
    FaultPlan {
        drop_prob: 0.10 + 0.02 * (seed % 5) as f64,
        duplicate_prob: 0.05,
        delay_prob: 0.10,
        max_extra_delay: SimDuration::from_micros(25),
        rto: SimDuration::from_micros(50),
        crashes: Vec::new(),
    }
}

fn crash_plan(protocol: ProtocolKind, seed: u64) -> FaultPlan {
    let makespan = calibrate_makespan(protocol, seed);
    let num_nodes = SystemConfig::default().num_nodes;
    let first = NodeId::new((seed % u64::from(num_nodes)) as u32);
    let second = NodeId::new(((seed + 1) % u64::from(num_nodes)) as u32);
    FaultPlan {
        rto: SimDuration::from_micros(50),
        crashes: vec![
            CrashWindow {
                node: first,
                at: SimTime::ZERO + makespan / 8,
                until: SimTime::ZERO + makespan / 3,
            },
            CrashWindow {
                node: second,
                at: SimTime::ZERO + makespan / 2,
                until: SimTime::ZERO + makespan * 3 / 4,
            },
        ],
        ..FaultPlan::default()
    }
}

#[test]
fn chaos_drop_only() {
    for protocol in ProtocolKind::ALL {
        for seed in seeds() {
            let faults = FaultConfig {
                plan: drop_plan(seed),
                ..FaultConfig::default()
            };
            check_scenario(protocol, seed, faults, "drop");
        }
    }
}

#[test]
fn chaos_crash_only() {
    for protocol in ProtocolKind::ALL {
        for seed in seeds() {
            let faults = FaultConfig {
                plan: crash_plan(protocol, seed),
                ..FaultConfig::default()
            };
            check_scenario(protocol, seed, faults, "crash");
        }
    }
}

#[test]
fn chaos_combined() {
    for protocol in ProtocolKind::ALL {
        for seed in seeds() {
            let mut plan = crash_plan(protocol, seed);
            // Milder drops than the drop-only mode: combined scenarios
            // stack three fault kinds on the same run.
            plan.drop_prob = 0.08;
            plan.duplicate_prob = 0.04;
            plan.delay_prob = 0.08;
            plan.max_extra_delay = SimDuration::from_micros(20);
            let faults = FaultConfig {
                plan,
                lock_timeout: SimDuration::from_micros(150),
            };
            check_scenario(protocol, seed, faults, "combined");
        }
    }
}

/// Adaptive LOTEC under every fault mode: the learned profiles must not
/// weaken any chaos guarantee, and a node crash mid-window must
/// invalidate the profile state — the engine drops every learned
/// refinement back to the static baseline and re-learns, rather than
/// trusting pre-crash observations.
#[test]
fn chaos_adaptive_lotec() {
    let protocol = ProtocolKind::Lotec;
    for seed in seeds() {
        let adaptive = AdaptiveConfig {
            enabled: true,
            window: 2,
        };

        let drop_faults = FaultConfig {
            plan: drop_plan(seed),
            ..FaultConfig::default()
        };
        let config = SystemConfig {
            adaptive,
            ..config_for(protocol, seed, drop_faults)
        };
        check_config(&config, seed, "adaptive-drop");

        let crash_faults = FaultConfig {
            plan: crash_plan(protocol, seed),
            ..FaultConfig::default()
        };
        let config = SystemConfig {
            adaptive,
            ..config_for(protocol, seed, crash_faults)
        };
        let report = check_config(&config, seed, "adaptive-crash");
        assert!(
            report.stats.crashes > 0,
            "adaptive-crash/seed {seed}: crash windows missed the run"
        );
        assert!(
            report.stats.profile_resets >= 1,
            "adaptive-crash/seed {seed}: node crash must invalidate \
             learned profiles"
        );

        let mut plan = crash_plan(protocol, seed);
        plan.drop_prob = 0.08;
        plan.duplicate_prob = 0.04;
        plan.delay_prob = 0.08;
        plan.max_extra_delay = SimDuration::from_micros(20);
        let combined_faults = FaultConfig {
            plan,
            lock_timeout: SimDuration::from_micros(150),
        };
        let config = SystemConfig {
            adaptive,
            ..config_for(protocol, seed, combined_faults)
        };
        let report = check_config(&config, seed, "adaptive-combined");
        assert!(
            report.stats.profile_resets >= 1,
            "adaptive-combined/seed {seed}: crash must reset profiles"
        );
    }
}

/// Differential guard on the zero-cost-off property: with the fault
/// machinery compiled in but disabled, the live engine and the
/// figure-replay path still produce identical per-protocol transfer
/// totals — byte for byte, object for object.
#[test]
fn fault_free_engine_matches_figure_replay_per_protocol() {
    for protocol in ProtocolKind::ALL {
        for seed in [3u64, 14] {
            let config = config_for(protocol, seed, FaultConfig::default());
            let (registry, families) = demo_workload(&config, seed);
            let report = Engine::new(&config, &registry, &families)
                .and_then(Engine::run)
                .expect("fault-free run");
            let replayed =
                lotec_core::replay::replay_trace(protocol, &report.trace, &registry, &config);
            assert_eq!(
                report.traffic.total(),
                replayed.total(),
                "{protocol}/seed {seed}: live engine diverged from figure replay"
            );
            for inst in registry.objects() {
                assert_eq!(
                    report.traffic.object(inst.id),
                    replayed.object(inst.id),
                    "{protocol}/seed {seed}/{}: per-object totals diverged",
                    inst.id
                );
            }
        }
    }
}

/// Pins what replay does not model, next to the fault-free parity above:
/// over the demo workload, every protocol, static and adaptive, the
/// engine's ledger departs from a replay of its own trace only by the
/// charges the fault mechanism adds. Lossy links add every retransmission
/// and duplicate; lock timeouts add one lock request per re-issued
/// request. Crash windows stay out of scope (see the `replay` module
/// docs).
#[test]
fn replay_misses_only_retransmissions_and_reissued_requests() {
    use lotec::net::MessageKind;

    for seed in [101u64, 138, 175, 212] {
        for protocol in ProtocolKind::ALL {
            for enabled in [false, true] {
                let run = |faults: FaultConfig| {
                    let config = SystemConfig {
                        adaptive: AdaptiveConfig {
                            enabled,
                            ..AdaptiveConfig::default()
                        },
                        ..config_for(protocol, seed, faults)
                    };
                    let (registry, families) = demo_workload(&config, seed);
                    let report = Engine::new(&config, &registry, &families)
                        .and_then(Engine::run)
                        .expect("chaos run");
                    let replayed = lotec_core::replay::replay_trace(
                        protocol,
                        &report.trace,
                        &registry,
                        &config,
                    );
                    (report, replayed)
                };
                let cell = format!("{protocol}/seed {seed}/adaptive {enabled}");

                let (report, replayed) = run(FaultConfig {
                    plan: drop_plan(seed),
                    ..FaultConfig::default()
                });
                let wasted = report.stats.retransmits + report.stats.duplicates;
                assert!(wasted > 0, "{cell}: no link fault fired");
                assert_eq!(
                    report.traffic.total().messages,
                    replayed.total().messages + wasted,
                    "{cell}: lossy links"
                );

                let (report, replayed) = run(FaultConfig {
                    lock_timeout: SimDuration::from_micros(20),
                    ..FaultConfig::default()
                });
                let timeouts = report.stats.lock_timeouts;
                assert!(timeouts > 0, "{cell}: no lock timeout fired");
                for kind in MessageKind::ALL {
                    let (engine, replay) = (
                        report.traffic.ledger().kind(kind).messages,
                        replayed.ledger().kind(kind).messages,
                    );
                    let reissued = if kind == MessageKind::LockRequest {
                        timeouts
                    } else {
                        0
                    };
                    assert_eq!(engine, replay + reissued, "{cell}: {kind} under timeouts");
                }
            }
        }
    }
}
