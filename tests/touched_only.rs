//! Construction cost does not grow with objects a run never touches.
//!
//! The engine builds an object's GDO entry and home image on the first
//! lock request that reaches it. Before that the object is implied state:
//! whole at its home, version 0, zero-filled and unlocked. So appending
//! objects that no family references must not add a single allocation to
//! `Engine::new`, must grow the ones it makes by no more than the per-object
//! indexes (four bytes per object in each node's page store and in the
//! last-holder table), and must not change what the run simulates. The
//! report's final chains list touched objects' pages only, so the
//! appended objects add no entry either.
//!
//! This binary installs `CountingAlloc` as its global allocator and holds
//! exactly one test, so no other test thread allocates while it counts.

use lotec::prelude::*;
use lotec_core::engine::Engine;
use lotec_core::spec::demo_workload;
use lotec_core::SystemConfig;
use lotec_object::ClassDef;
use lotec_obs::{alloc, AllocSnapshot, CountingAlloc};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Objects appended that no family references.
const UNTOUCHED: u32 = 100_000;

/// Allocations made by `Engine::new` over `registry`.
fn construction_allocs(
    config: &SystemConfig,
    registry: &ObjectRegistry,
    families: &[FamilySpec],
) -> AllocSnapshot {
    alloc::force_profiling(Some(true));
    let before = alloc::snapshot();
    let engine = Engine::new(config, registry, families).expect("engine builds");
    let allocs = alloc::snapshot().delta_since(&before);
    alloc::force_profiling(Some(false));
    drop(engine);
    allocs
}

fn total_pages(registry: &ObjectRegistry) -> usize {
    registry
        .objects()
        .map(|inst| usize::from(registry.num_pages(inst.id)))
        .sum()
}

#[test]
fn untouched_objects_cost_no_construction_and_change_nothing() {
    let config = SystemConfig::default();
    let (small, families) = demo_workload(&config, 7);

    // The same classes and objects, then `UNTOUCHED` more.
    let classes: Vec<ClassDef> = (0..small.num_classes())
        .map(|c| small.class(ClassId::new(c as u32)).class().clone())
        .collect();
    let mut objects: Vec<(ClassId, NodeId)> = small
        .objects()
        .map(|inst| (inst.class, inst.home))
        .collect();
    let first_appended = objects.len() as u32;
    for i in 0..UNTOUCHED {
        let class = ClassId::new(i % small.num_classes() as u32);
        objects.push((class, NodeId::new(i % config.num_nodes)));
    }
    let large = ObjectRegistry::build(&classes, &objects, config.page_size).expect("registry");

    // The first construction in a process also makes one-time
    // allocations; build once before counting.
    construction_allocs(&config, &small, &families);
    let small_cost = construction_allocs(&config, &small, &families);
    let large_cost = construction_allocs(&config, &large, &families);
    assert_eq!(
        small_cost.total_allocs(),
        large_cost.total_allocs(),
        "Engine::new allocates per registered object"
    );
    // Each node's store index and the last-holder table: four bytes per
    // object apiece.
    let per_object = 4 * (u64::from(config.num_nodes) + 1);
    let extra = large_cost
        .total_bytes()
        .saturating_sub(small_cost.total_bytes());
    assert!(
        extra <= per_object * u64::from(UNTOUCHED),
        "Engine::new allocates {extra} more bytes for {UNTOUCHED} untouched objects, \
         more than {per_object} per object"
    );

    let small_run = Engine::new(&config, &small, &families)
        .and_then(Engine::run)
        .expect("small run");
    let large_run = Engine::new(&config, &large, &families)
        .and_then(Engine::run)
        .expect("large run");
    let committed =
        |report: &RunReport| -> Vec<usize> { report.committed.iter().map(|f| f.index).collect() };
    assert_eq!(committed(&small_run), committed(&large_run));
    assert_eq!(committed(&small_run).len(), families.len());
    assert_eq!(small_run.traffic.total(), large_run.traffic.total());

    for report in [&small_run, &large_run] {
        oracle::verify(report).expect("serializable");
    }
    // The report lists only the pages of objects a lock request reached,
    // so the appended objects add no entry, and each of their pages reads
    // as chain 0.
    assert_eq!(small_run.final_chains, large_run.final_chains);
    assert!(small_run.final_chains.len() <= total_pages(&small));
    let first = ObjectId::new(first_appended);
    assert!(large_run
        .final_chains
        .iter()
        .all(|(&(object, _), _)| object < first));
    for page in 0..large.num_pages(first) {
        assert_eq!(large_run.final_chains[&(first, PageIndex::new(page))], 0);
    }
}
