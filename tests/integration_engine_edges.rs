//! Engine edge cases: degenerate clusters, empty workloads, fault limits
//! and boundary behaviours the figure scenarios never hit.

use lotec::prelude::*;
use lotec_core::SystemConfig as Cfg;

fn two_object_registry(num_nodes: u32, page_size: u32) -> ObjectRegistry {
    let class = ClassBuilder::new("Thing")
        .attribute("x", page_size * 2)
        .method("bump", |m| m.path(|p| p.reads(&["x"]).writes(&["x"])))
        .method("peek", |m| m.path(|p| p.reads(&["x"])))
        .build();
    ObjectRegistry::build(
        &[class],
        &[
            (ClassId::new(0), NodeId::new(0)),
            (ClassId::new(0), NodeId::new(1 % num_nodes)),
        ],
        page_size,
    )
    .expect("registry builds")
}

fn family(node: u32, start_us: u64, object: u32, method: u32) -> FamilySpec {
    FamilySpec {
        node: NodeId::new(node),
        start: SimTime::from_micros(start_us),
        root: InvocationSpec::leaf(ObjectId::new(object), MethodId::new(method), PathId::new(0)),
    }
}

#[test]
fn empty_workload_is_a_clean_noop() {
    let config = Cfg::default();
    let registry = two_object_registry(config.num_nodes, config.page_size);
    let report = Engine::new(&config, &registry, &[])
        .and_then(Engine::run)
        .expect("empty run");
    assert_eq!(report.stats.committed_families, 0);
    assert_eq!(report.traffic.total().messages, 0);
    assert!(report.trace.is_empty());
    oracle::verify(&report).expect("vacuously serializable");
    // No lock request touched an object, so no page is listed, and every
    // page of both two-page objects reads as chain 0.
    assert!(report.final_chains.is_empty());
    for object in 0..2 {
        for page in 0..2 {
            let key = (ObjectId::new(object), PageIndex::new(page));
            assert_eq!(report.final_chains[&key], 0);
        }
    }
}

#[test]
fn single_node_cluster_sends_no_messages() {
    let config = Cfg {
        num_nodes: 1,
        ..Cfg::default()
    };
    let registry = two_object_registry(1, config.page_size);
    let families: Vec<FamilySpec> = (0..10)
        .map(|i| family(0, i * 10, (i % 2) as u32, 0))
        .collect();
    let report = Engine::new(&config, &registry, &families)
        .and_then(Engine::run)
        .expect("runs");
    assert_eq!(report.stats.committed_families, 10);
    assert_eq!(
        report.traffic.total().messages,
        0,
        "one node: every GDO partition and page is local"
    );
    oracle::verify(&report).expect("serializable");
}

#[test]
fn restart_budget_exhaustion_is_reported_not_hung() {
    // A guaranteed deadly embrace with a zero restart budget: the first
    // victim must surface as an error instead of silently failing.
    let config = Cfg {
        num_nodes: 2,
        max_restarts: 0,
        ..Cfg::default()
    };
    let class = ClassBuilder::new("Hot")
        .attribute("x", 64)
        .method("grab_both", |m| {
            m.path(|p| {
                p.reads(&["x"])
                    .writes(&["x"])
                    .invokes(ClassId::new(0), MethodId::new(1))
            })
        })
        .method("grab", |m| m.path(|p| p.reads(&["x"]).writes(&["x"])))
        .build();
    let registry = ObjectRegistry::build(
        &[class],
        &[
            (ClassId::new(0), NodeId::new(0)),
            (ClassId::new(0), NodeId::new(1)),
        ],
        config.page_size,
    )
    .unwrap();
    let cross = |node: u32, first: u32, second: u32| FamilySpec {
        node: NodeId::new(node),
        start: SimTime::ZERO,
        root: InvocationSpec {
            object: ObjectId::new(first),
            method: MethodId::new(0),
            path: PathId::new(0),
            children: vec![InvocationSpec::leaf(
                ObjectId::new(second),
                MethodId::new(1),
                PathId::new(0),
            )],
            abort: false,
        },
    };
    let families = vec![cross(0, 0, 1), cross(1, 1, 0)];
    match Engine::new(&config, &registry, &families).and_then(Engine::run) {
        Err(lotec_core::CoreError::RestartBudgetExhausted { restarts, .. }) => {
            assert_eq!(restarts, 1);
        }
        other => panic!("expected restart budget error, got {other:?}"),
    }
}

#[test]
fn root_fault_aborts_family_permanently_and_cleanly() {
    let config = Cfg::default();
    let registry = two_object_registry(config.num_nodes, config.page_size);
    let mut doomed = family(0, 0, 0, 0);
    doomed.root.abort = true;
    let families = vec![doomed, family(1, 50, 0, 0), family(2, 100, 1, 0)];
    let report = Engine::new(&config, &registry, &families)
        .and_then(Engine::run)
        .expect("runs");
    assert_eq!(report.stats.aborted_families, 1);
    assert_eq!(report.stats.committed_families, 2);
    oracle::verify(&report).expect("aborted family left no trace in the data");
    // The aborted family's writes are absent from the committed record.
    assert_eq!(report.committed.len(), 2);
}

#[test]
fn read_only_workload_shares_locks_and_moves_nothing_after_warmup() {
    let config = Cfg::default();
    let registry = two_object_registry(config.num_nodes, config.page_size);
    // Everyone peeks (method 1 is read-only); nothing is ever written, so
    // every page stays version 0 and demand-zeroable: no page transfers.
    let families: Vec<FamilySpec> = (0..12)
        .map(|i| family(i % 4, i as u64 * 20, i % 2, 1))
        .collect();
    let report = Engine::new(&config, &registry, &families)
        .and_then(Engine::run)
        .expect("runs");
    assert_eq!(report.stats.committed_families, 12);
    let ledger = report.traffic.ledger();
    assert_eq!(
        ledger.kind(lotec_net::MessageKind::PageTransfer).messages,
        0,
        "version-0 pages are demand-zeroed, never transferred"
    );
    assert!(ledger.kind(lotec_net::MessageKind::LockRequest).messages > 0);
    oracle::verify(&report).expect("serializable");
}

#[test]
fn simultaneous_arrivals_are_deterministic() {
    let config = Cfg::default();
    let registry = two_object_registry(config.num_nodes, config.page_size);
    let families: Vec<FamilySpec> = (0..8).map(|i| family(i % 4, 0, i % 2, 0)).collect();
    let a = Engine::new(&config, &registry, &families)
        .and_then(Engine::run)
        .expect("run a");
    let b = Engine::new(&config, &registry, &families)
        .and_then(Engine::run)
        .expect("run b");
    assert_eq!(a.trace, b.trace);
    assert_eq!(a.final_chains, b.final_chains);
}

#[test]
fn tiny_pages_and_many_nodes_work() {
    let config = Cfg {
        num_nodes: 32,
        page_size: 64,
        ..Cfg::default()
    };
    let registry = two_object_registry(32, 64);
    let families: Vec<FamilySpec> = (0..20)
        .map(|i| family(i % 32, i as u64 * 7, i % 2, 0))
        .collect();
    let report = Engine::new(&config, &registry, &families)
        .and_then(Engine::run)
        .expect("runs");
    assert_eq!(report.stats.committed_families, 20);
    oracle::verify(&report).expect("serializable");
}

#[test]
fn zero_arrival_gap_burst_still_commits_everything() {
    let mut scenario = lotec::workload::presets::quick(lotec::workload::presets::fig2());
    scenario.config.mean_arrival_gap = SimDuration::from_nanos(1);
    let (registry, families) = scenario.generate().expect("generates");
    let config = scenario.system_config();
    let report = Engine::new(&config, &registry, &families)
        .and_then(Engine::run)
        .expect("runs");
    assert_eq!(report.stats.committed_families as usize, families.len());
    oracle::verify(&report).expect("serializable under burst arrival");
}
