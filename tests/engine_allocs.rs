//! A run allocates at most once per event.
//!
//! GDO entries, page maps, node page stores, transaction trees, UNDO logs
//! and family runtimes keep their state in run-wide arenas, inline-first
//! sets and recycled buffers, and per-event temporaries reuse buffers the
//! engine owns. What `Engine::run` still allocates is mostly the report's
//! own vectors (committed operations, the schedule trace's dirty sets and
//! released objects) plus the growth of run-wide arenas, so on whole quick
//! zoo cells it allocates no more often than it handles an event.
//!
//! This binary installs `CountingAlloc` as its global allocator and holds
//! exactly one test, so no other test thread allocates while it counts.

use lotec_core::{Engine, ProtocolKind};
use lotec_obs::{alloc, CountingAlloc};
use lotec_workload::zoo::{self, Tier};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

#[test]
fn engine_run_allocates_at_most_once_per_event() {
    for name in ["scaleout", "multi_tenant"] {
        let scenario = zoo::by_name(name, Tier::Quick).expect("zoo scenario");
        let config = scenario.cell_config(ProtocolKind::Lotec, false);
        let (registry, families) = scenario.generate().expect("workload generates");
        let engine = Engine::new(&config, &registry, &families).expect("valid workload");

        alloc::force_profiling(Some(true));
        let before = alloc::snapshot();
        let report = engine.run();
        let allocs = alloc::snapshot().delta_since(&before).total_allocs();
        alloc::force_profiling(Some(false));

        let report = report.expect("run completes");
        let events = report.stats.sim_events;
        assert_eq!(report.stats.committed_families as usize, families.len());
        assert!(
            allocs <= events,
            "{name}: Engine::run made {allocs} allocations for {events} events ({:.2} per event)",
            allocs as f64 / events as f64
        );
    }
}
