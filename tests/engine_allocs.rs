//! A run allocates at most once per event, and the flight recorder adds
//! no allocation of its own.
//!
//! GDO entries, page maps, node page stores, transaction trees, UNDO logs
//! and family runtimes keep their state in run-wide arenas, inline-first
//! sets and recycled buffers, and per-event temporaries reuse buffers the
//! engine owns. What `Engine::run` still allocates is mostly the report's
//! own vectors (committed operations, the schedule trace's dirty sets and
//! released objects) plus the growth of run-wide arenas, so on whole quick
//! zoo cells it allocates no more often than it handles an event.
//!
//! Probe events borrow their lists from engine-owned buffers and the
//! recorder encodes each one straight into its ring slot, so recording a
//! run costs no allocation beyond those buffers' first growth.
//!
//! This binary installs `CountingAlloc` as its global allocator and holds
//! exactly one test, so no other test thread allocates while it counts.

use lotec_core::{Engine, FamilySpec, ProtocolKind, SystemConfig};
use lotec_object::ObjectRegistry;
use lotec_obs::{alloc, Borrowed, CountingAlloc, EventSink, FlightRecorder, NoopSink, ObsEvent};
use lotec_workload::zoo::{self, Tier};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Allocations the recorder run may make beyond the `NoopSink` run: the
/// engine's six probe-list buffers (three of transaction ids, three of
/// pages) growing by doubling on first use, four times each at most.
const PROBE_BUFFER_GROWTH: u64 = 24;

/// Forwards every event to a flight recorder but hides it from the
/// engine, so the run captures no forensics dump (a dump decodes the ring
/// into owned events, which allocates by design).
struct HiddenRecorder<'r>(&'r mut FlightRecorder);

impl EventSink for HiddenRecorder<'_> {
    fn enabled(&self) -> bool {
        true
    }

    fn emit(&mut self, event: &ObsEvent<Borrowed<'_>>) {
        self.0.emit(event);
    }
}

/// Runs one engine with `sink`, returning the allocations `Engine::run`
/// made and the events it handled.
fn run_allocs<S: EventSink>(
    config: &SystemConfig,
    registry: &ObjectRegistry,
    families: &[FamilySpec],
    sink: S,
) -> (u64, u64) {
    let engine = Engine::with_probe(config, registry, families, sink).expect("valid workload");
    alloc::force_profiling(Some(true));
    let before = alloc::snapshot();
    let report = engine.run();
    let allocs = alloc::snapshot().delta_since(&before).total_allocs();
    alloc::force_profiling(Some(false));
    let report = report.expect("run completes");
    assert_eq!(report.stats.committed_families as usize, families.len());
    (allocs, report.stats.sim_events)
}

#[test]
fn engine_run_allocates_at_most_once_per_event() {
    for name in ["scaleout", "multi_tenant"] {
        let scenario = zoo::by_name(name, Tier::Quick).expect("zoo scenario");
        let config = scenario.cell_config(ProtocolKind::Lotec, false);
        let (registry, families) = scenario.generate().expect("workload generates");
        let (allocs, events) = run_allocs(&config, &registry, &families, NoopSink);
        assert!(
            allocs <= events,
            "{name}: Engine::run made {allocs} allocations for {events} events ({:.2} per event)",
            allocs as f64 / events as f64
        );
    }

    // The recorder-on workload: adaptive profiles and every probe kind
    // that carries lists. Recording must not add allocations per event.
    let scenario = zoo::by_name("hotspot_migration", Tier::Quick).expect("zoo scenario");
    let config = scenario.cell_config(ProtocolKind::Lotec, true);
    let (registry, families) = scenario.generate().expect("workload generates");
    let (quiet, events) = run_allocs(&config, &registry, &families, NoopSink);
    let mut recorder = FlightRecorder::new(config.flight_recorder.slots as usize);
    let (recorded, recorded_events) =
        run_allocs(&config, &registry, &families, HiddenRecorder(&mut recorder));
    assert_eq!(recorded_events, events, "recording changed the run");
    assert!(
        recorder.recorded() > events,
        "every event recorded something"
    );
    assert!(
        recorded <= quiet + PROBE_BUFFER_GROWTH,
        "hotspot_migration: Engine::run made {recorded} allocations with the recorder on, \
         {quiet} with it off, over {events} events"
    );
}
