//! Negative testing of the serializability oracle: a checker that cannot
//! fail cannot certify anything. These tests take genuinely correct runs,
//! corrupt them in targeted ways, and assert the oracle rejects every
//! corruption.

use lotec::prelude::*;
use lotec::sim::SimRng;
use lotec_core::engine::{FamilyOp, RunReport};
use lotec_mem::{ObjectId, PageIndex};

fn healthy_report(seed: u64) -> RunReport {
    let scenario = lotec::workload::presets::quick(lotec::workload::presets::fig2());
    let (registry, families) = scenario.generate().expect("generates");
    let mut config = scenario.system_config();
    config.seed = seed;
    let report = Engine::new(&config, &registry, &families)
        .and_then(Engine::run)
        .expect("runs");
    oracle::verify(&report).expect("healthy run verifies");
    report
}

/// Indices of committed families that performed at least one write.
fn writer_indices(report: &RunReport) -> Vec<usize> {
    report
        .committed
        .iter()
        .enumerate()
        .filter(|(_, f)| f.ops.iter().any(|op| matches!(op, FamilyOp::Write { .. })))
        .map(|(i, _)| i)
        .collect()
}

#[test]
fn oracle_rejects_flipped_final_chain() {
    let mut report = healthy_report(1);
    let key = *report
        .final_chains
        .iter()
        .find(|(_, &c)| c != 0)
        .expect("some page was written")
        .0;
    *report.final_chains.get_mut(&key).expect("key exists") ^= 0xDEAD_BEEF;
    assert!(
        oracle::verify(&report).is_err(),
        "corrupted final state must be caught"
    );
}

#[test]
fn oracle_rejects_swapped_commit_order_of_conflicting_writers() {
    let mut report = healthy_report(2);
    // Find two committed writer families touching the same page and swap
    // their commit order: the chains become inconsistent with the serial
    // order the oracle replays.
    let writers = writer_indices(&report);
    let mut found = None;
    'outer: for (a_pos, &a) in writers.iter().enumerate() {
        for &b in &writers[a_pos + 1..] {
            let pages = |i: usize| -> Vec<(ObjectId, PageIndex)> {
                report.committed[i]
                    .ops
                    .iter()
                    .filter_map(|op| match op {
                        FamilyOp::Write { object, page, .. } => Some((*object, *page)),
                        _ => None,
                    })
                    .collect()
            };
            let pa = pages(a);
            if pages(b).iter().any(|p| pa.contains(p)) {
                found = Some((a, b));
                break 'outer;
            }
        }
    }
    let Some((a, b)) = found else {
        // High-contention fig2 always conflicts, but guard anyway.
        panic!("expected conflicting writers in a high-contention workload");
    };
    report.committed.swap(a, b);
    assert!(
        oracle::verify(&report).is_err(),
        "reordered conflicting commits must be caught"
    );
}

#[test]
fn oracle_rejects_dropped_write() {
    let mut report = healthy_report(3);
    let idx = *writer_indices(&report).first().expect("writers exist");
    let pos = report.committed[idx]
        .ops
        .iter()
        .position(|op| matches!(op, FamilyOp::Write { .. }))
        .expect("writer has a write");
    report.committed[idx].ops.remove(pos);
    assert!(
        oracle::verify(&report).is_err(),
        "a lost write must be caught"
    );
}

/// Any single stamp mutation in any committed write is detected. Twelve
/// deterministic cases drawn from a seeded [`SimRng`] stream.
#[test]
fn oracle_rejects_any_stamp_mutation() {
    let mut rng = SimRng::seed_from_u64(0x0AC1_E57A);
    for _ in 0..12 {
        let mut report = healthy_report(rng.next_below(4));
        let writers = writer_indices(&report);
        assert!(!writers.is_empty(), "fig2 always has writers");
        let fam = writers[rng.next_below(writers.len() as u64) as usize];
        let write_positions: Vec<usize> = report.committed[fam]
            .ops
            .iter()
            .enumerate()
            .filter(|(_, op)| matches!(op, FamilyOp::Write { .. }))
            .map(|(i, _)| i)
            .collect();
        let pos = write_positions[rng.next_below(write_positions.len() as u64) as usize];
        let bit = rng.next_below(64) as u32;
        if let FamilyOp::Write { stamp, .. } = &mut report.committed[fam].ops[pos] {
            *stamp ^= 1u64 << bit;
        }
        assert!(
            oracle::verify(&report).is_err(),
            "mutated stamp must be caught"
        );
    }
}

/// Any read-chain mutation is detected. Twelve deterministic cases drawn
/// from a seeded [`SimRng`] stream.
#[test]
fn oracle_rejects_any_read_mutation() {
    let mut rng = SimRng::seed_from_u64(0x0AC1_E57B);
    for _ in 0..12 {
        let mut report = healthy_report(rng.next_below(4));
        let readers: Vec<(usize, usize)> = report
            .committed
            .iter()
            .enumerate()
            .flat_map(|(fi, f)| {
                f.ops
                    .iter()
                    .enumerate()
                    .filter(|(_, op)| matches!(op, FamilyOp::Read { .. }))
                    .map(move |(oi, _)| (fi, oi))
            })
            .collect();
        assert!(!readers.is_empty(), "fig2 always has readers");
        let (fi, oi) = readers[rng.next_below(readers.len() as u64) as usize];
        if let FamilyOp::Read { chain, .. } = &mut report.committed[fi].ops[oi] {
            *chain = chain.wrapping_add(1);
        }
        assert!(
            oracle::verify(&report).is_err(),
            "mutated read must be caught"
        );
    }
}
