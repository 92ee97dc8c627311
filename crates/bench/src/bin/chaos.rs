//! Fault-injection sweep: the protocol trio under lossy links and node
//! outages.
//!
//! Sweeps message-drop rates (with proportionate duplicate/delay noise)
//! and one calibrated two-outage crash scenario across the paper trio,
//! verifying the serializability oracle on every cell, and writes
//! `BENCH_chaos.json` (`drop_sweep` and `crash` sections keyed by
//! protocol). The interesting output is the *cost* of faults — extra
//! messages retransmitted, latency lost to retransmission stalls and
//! restarts — because the correctness outcome is always the same: every
//! cell must commit its full workload and pass the oracle.
//!
//! Reproduce any cell from its printed seed: the fault plan is pure data
//! and every draw comes from the engine's seeded fault RNG stream.
//!
//! `chaos --inject-violation [--forensics-out STEM]` runs the forensics
//! drill instead of the sweep: one flight-recorded lossy LOTEC cell whose
//! final content chains are deliberately corrupted after the (passing)
//! run, so the oracle fails and the recorder ring is dumped as a
//! `<STEM>.jsonl` + `<STEM>.chrome.json` pair. `BENCH_chaos.json` is not
//! touched in this mode; CI's forensics gate feeds the dump back through
//! `obs_report --forensics`.

use lotec_bench::runner;
use lotec_core::config::FaultConfig;
use lotec_core::engine::{Engine, RunReport};
use lotec_core::oracle;
use lotec_core::protocol::ProtocolKind;
use lotec_core::SystemConfig;
use lotec_obs::{FlightRecorder, ForensicsDump, Json, QuantileSketch};
use lotec_sim::{CrashWindow, FaultPlan, SimDuration, SimTime};
use lotec_workload::presets;

const SEED: u64 = 0xC4A05;
const DROP_RATES: [f64; 4] = [0.0, 0.05, 0.10, 0.20];

fn fault_config(drop: f64) -> FaultConfig {
    if drop == 0.0 {
        return FaultConfig::default();
    }
    FaultConfig {
        plan: FaultPlan {
            drop_prob: drop,
            duplicate_prob: drop / 2.0,
            delay_prob: drop,
            max_extra_delay: SimDuration::from_micros(25),
            rto: SimDuration::from_micros(50),
            crashes: Vec::new(),
        },
        ..FaultConfig::default()
    }
}

fn cell_json(report: &RunReport) -> Json {
    let stats = &report.stats;
    Json::obj(vec![
        ("committed", Json::U64(stats.committed_families)),
        ("retransmits", Json::U64(stats.retransmits)),
        ("duplicates", Json::U64(stats.duplicates)),
        ("crashes", Json::U64(stats.crashes)),
        ("crash_aborts", Json::U64(stats.crash_aborts)),
        ("restarts", Json::U64(stats.restarts)),
        (
            "retransmit_wait_ns",
            Json::U64(stats.retransmit_wait.as_nanos()),
        ),
        (
            "mean_latency_ns",
            Json::U64(stats.mean_latency().map_or(0, |d| d.as_nanos())),
        ),
        ("makespan_ns", Json::U64(stats.makespan.as_nanos())),
        ("total_messages", Json::U64(report.traffic.total().messages)),
        ("total_bytes", Json::U64(report.traffic.total().bytes)),
        ("oracle", Json::str("ok")),
    ])
}

/// Forensics drill: a flight-recorded lossy LOTEC run whose final chains
/// are corrupted post-run so the oracle fails against a known-good
/// execution, exercising the dump path without shipping a real bug.
fn inject_violation(stem: &str) {
    let scenario = presets::quick(presets::fig3());
    let (registry, families) = scenario.generate().expect("workload generates");
    let config = SystemConfig {
        protocol: ProtocolKind::Lotec,
        seed: SEED,
        num_nodes: scenario.config.num_nodes,
        page_size: scenario.config.schema.page_size,
        faults: fault_config(0.10),
        ..SystemConfig::default()
    };
    let mut recorder = FlightRecorder::new(config.flight_recorder.slots as usize);
    let mut report = Engine::with_probe(&config, &registry, &families, &mut recorder)
        .and_then(Engine::run)
        .expect("engine runs");
    oracle::verify(&report).expect("uncorrupted run must pass the oracle");

    let key = *report
        .final_chains
        .iter()
        .next()
        .expect("run touched at least one page")
        .0;
    *report.final_chains.get_mut(&key).expect("key is listed") ^= 0xDEAD_BEEF;
    println!(
        "corrupted final chain of object {}/page {} (xor 0xdeadbeef)",
        key.0, key.1
    );
    let err = oracle::verify(&report).expect_err("corrupted chains must fail the oracle");

    let dump = ForensicsDump::oracle_violation(err.to_string(), &recorder);
    let (jsonl, chrome) = dump
        .write_pair(std::path::Path::new(stem))
        .unwrap_or_else(|e| panic!("cannot write forensics dump {stem}: {e}"));
    println!("wrote {}", jsonl.display());
    println!("wrote {}", chrome.display());
    print!("{}", dump.render_triage());
}

fn main() {
    let mut args = std::env::args().skip(1);
    let mut inject = false;
    let mut stem = String::from("results/forensics_injected");
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--inject-violation" => inject = true,
            "--forensics-out" => {
                stem = args.next().unwrap_or_else(|| {
                    eprintln!("chaos: --forensics-out requires a path stem");
                    std::process::exit(2);
                });
            }
            other => {
                eprintln!("chaos: unknown argument {other:?}");
                eprintln!("usage: chaos [--inject-violation [--forensics-out STEM]]");
                std::process::exit(2);
            }
        }
    }
    if inject {
        inject_violation(&stem);
        return;
    }

    let scenario = presets::quick(presets::fig3());
    let (registry, families) = scenario.generate().expect("workload generates");
    let base = |protocol| SystemConfig {
        protocol,
        seed: SEED,
        num_nodes: scenario.config.num_nodes,
        page_size: scenario.config.schema.page_size,
        ..SystemConfig::default()
    };

    println!(
        "chaos sweep: {} families, seed {SEED:#x}, drop rates {DROP_RATES:?}",
        families.len()
    );

    // Drop-rate sweep across the trio. Every cell is oracle-verified; the
    // run aborts loudly if a fault configuration ever costs correctness.
    // Cells are independent seeded runs, so they fan out across the sweep
    // runner's workers; printing and JSON assembly happen after the merge,
    // in the same protocol-major order a serial loop produced.
    let drop_cells: Vec<(ProtocolKind, f64)> = ProtocolKind::PAPER_TRIO
        .into_iter()
        .flat_map(|p| DROP_RATES.map(|d| (p, d)))
        .collect();
    let drop_reports = runner::run_indexed(drop_cells.len(), |i| {
        let (protocol, drop) = drop_cells[i];
        let config = SystemConfig {
            faults: fault_config(drop),
            ..base(protocol)
        };
        let report = Engine::new(&config, &registry, &families)
            .and_then(Engine::run)
            .unwrap_or_else(|e| panic!("{protocol} drop={drop}: {e}"));
        oracle::verify(&report).unwrap_or_else(|e| panic!("{protocol} drop={drop}: oracle: {e}"));
        assert_eq!(
            report.stats.committed_families as usize,
            families.len(),
            "{protocol} drop={drop}: lost families"
        );
        report
    });
    let mut drop_section = Vec::new();
    for (protocol, chunk) in ProtocolKind::PAPER_TRIO
        .into_iter()
        .zip(drop_reports.chunks(DROP_RATES.len()))
    {
        let mut cells = Vec::new();
        for (drop, report) in DROP_RATES.into_iter().zip(chunk) {
            println!(
                "  {protocol:>6} drop={drop:.2}: retransmits={:<5} dup={:<4} \
                 stall={:>9}ns makespan={}ns",
                report.stats.retransmits,
                report.stats.duplicates,
                report.stats.retransmit_wait.as_nanos(),
                report.stats.makespan.as_nanos(),
            );
            cells.push((format!("{drop:.2}"), cell_json(report)));
        }
        drop_section.push((protocol.to_string(), Json::Obj(cells)));
    }

    // Stdout-only tail view: each protocol's commit latencies across the
    // whole drop sweep, merged from the per-cell quantile sketches. The
    // merge is deterministic, so this line is stable across reruns and
    // worker counts even though it never lands in BENCH_chaos.json.
    println!("latency across drop sweep (sketch quantiles, all cells merged):");
    for (protocol, chunk) in ProtocolKind::PAPER_TRIO
        .into_iter()
        .zip(drop_reports.chunks(DROP_RATES.len()))
    {
        let mut merged = QuantileSketch::new();
        for report in chunk {
            merged.merge(&report.stats.latency_sketch);
        }
        println!(
            "  {protocol:>6}: n={:<5} p50={:>8}ns p90={:>8}ns p99={:>8}ns max={:>8}ns",
            merged.count(),
            merged.quantile(0.5),
            merged.quantile(0.9),
            merged.quantile(0.99),
            merged.max(),
        );
    }

    // Crash scenario: two staggered outages placed against each
    // protocol's own fault-free makespan so they overlap live traffic.
    // Calibration and crash run stay paired inside one cell.
    let crash_reports = runner::run_indexed(ProtocolKind::PAPER_TRIO.len(), |i| {
        let protocol = ProtocolKind::PAPER_TRIO[i];
        let plain = Engine::new(&base(protocol), &registry, &families)
            .and_then(Engine::run)
            .expect("calibration");
        let makespan = plain.stats.makespan;
        let nodes = scenario.config.num_nodes;
        let config = SystemConfig {
            faults: FaultConfig {
                plan: FaultPlan {
                    rto: SimDuration::from_micros(50),
                    crashes: vec![
                        CrashWindow {
                            node: lotec_sim::NodeId::new((SEED % u64::from(nodes)) as u32),
                            at: SimTime::ZERO + makespan / 8,
                            until: SimTime::ZERO + makespan / 3,
                        },
                        CrashWindow {
                            node: lotec_sim::NodeId::new(((SEED + 1) % u64::from(nodes)) as u32),
                            at: SimTime::ZERO + makespan / 2,
                            until: SimTime::ZERO + makespan * 3 / 4,
                        },
                    ],
                    ..FaultPlan::default()
                },
                ..FaultConfig::default()
            },
            ..base(protocol)
        };
        let report = Engine::new(&config, &registry, &families)
            .and_then(Engine::run)
            .unwrap_or_else(|e| panic!("{protocol} crash: {e}"));
        oracle::verify(&report).unwrap_or_else(|e| panic!("{protocol} crash: oracle: {e}"));
        assert_eq!(
            report.stats.crashes, 2,
            "{protocol}: both windows must open"
        );
        (makespan, report)
    });
    let mut crash_section = Vec::new();
    for (protocol, (makespan, report)) in ProtocolKind::PAPER_TRIO.into_iter().zip(&crash_reports) {
        println!(
            "  {protocol:>6} crash: aborts={} restarts={} makespan={}ns (+{}%)",
            report.stats.crash_aborts,
            report.stats.restarts,
            report.stats.makespan.as_nanos(),
            (report.stats.makespan.as_nanos() * 100) / makespan.as_nanos().max(1) - 100,
        );
        crash_section.push((protocol.to_string(), cell_json(report)));
    }

    let json = Json::obj(vec![
        ("seed", Json::U64(SEED)),
        ("drop_sweep", Json::Obj(drop_section)),
        ("crash", Json::Obj(crash_section)),
    ]);
    std::fs::write("BENCH_chaos.json", json.render_pretty()).expect("write BENCH_chaos.json");
    println!("wrote BENCH_chaos.json");
}
