//! System-level tests of the nested-O2PL semantics of §3: closed nesting,
//! lock inheritance and retention, observed through real engine runs with
//! hand-built transaction families.

use lotec::prelude::*;
use lotec_core::trace::TraceEvent;
use lotec_core::SystemConfig as Cfg;
use lotec_mem::mix;

const PAGE: u32 = 256;

/// One class, `n` single-page-ish objects. Method 0 writes, method 1 reads,
/// method 2 writes and then invokes method 0 on another object, method 3
/// writes and invokes method 0 twice (two children).
fn registry(n: u32, num_nodes: u32) -> ObjectRegistry {
    let class = ClassBuilder::new("Cell")
        .attribute("v", 64)
        .method("write", |m| m.path(|p| p.reads(&["v"]).writes(&["v"])))
        .method("read", |m| m.path(|p| p.reads(&["v"])))
        .method("write_then_one", |m| {
            m.path(|p| {
                p.reads(&["v"])
                    .writes(&["v"])
                    .invokes(ClassId::new(0), MethodId::new(0))
            })
        })
        .method("write_then_two", |m| {
            m.path(|p| {
                p.reads(&["v"])
                    .writes(&["v"])
                    .invokes(ClassId::new(0), MethodId::new(0))
                    .invokes(ClassId::new(0), MethodId::new(0))
            })
        })
        .build();
    let instances: Vec<(ClassId, NodeId)> = (0..n)
        .map(|i| (ClassId::new(0), NodeId::new(i % num_nodes)))
        .collect();
    ObjectRegistry::build(&[class], &instances, PAGE).expect("registry builds")
}

fn leaf(object: u32, method: u32) -> InvocationSpec {
    InvocationSpec::leaf(ObjectId::new(object), MethodId::new(method), PathId::new(0))
}

#[test]
fn closedness_foreign_reader_waits_for_root_commit() {
    // Family A: root writes O0, then runs a slow child on O1. Family B
    // asks to read O0 *while A's root still runs* — under closed nesting B
    // must not be granted until A's root commits, even though A's work on
    // O0 finished long before.
    let config = Cfg {
        num_nodes: 2,
        ..Cfg::default()
    };
    let registry = registry(2, 2);
    let family_a = FamilySpec {
        node: NodeId::new(0),
        start: SimTime::ZERO,
        root: InvocationSpec {
            object: ObjectId::new(0),
            method: MethodId::new(2), // write O0, then child on O1
            path: PathId::new(0),
            children: vec![leaf(1, 0)],
            abort: false,
        },
    };
    let family_b = FamilySpec {
        node: NodeId::new(1),
        // Arrives after A's root grant but well before A finishes.
        start: SimTime::from_micros(100),
        root: leaf(0, 1),
    };
    let report = Engine::new(&config, &registry, &[family_a, family_b])
        .and_then(Engine::run)
        .expect("runs");
    oracle::verify(&report).expect("serializable");

    let mut a_commit = None;
    let mut b_grant = None;
    for event in report.trace.events() {
        match event {
            TraceEvent::RootCommit { at, family: 0, .. } => a_commit = Some(*at),
            TraceEvent::Grant {
                at, family, object, ..
            } if *object == ObjectId::new(0) && *family != 0 => {
                b_grant = Some(*at);
            }
            _ => {}
        }
    }
    let (a_commit, b_grant) = (a_commit.expect("A commits"), b_grant.expect("B granted"));
    assert!(
        b_grant > a_commit,
        "closed nesting violated: B granted at {b_grant} before A committed at {a_commit}"
    );
    // And B read A's committed value: the final chain of O0/p0 reflects
    // exactly A's single write (stamp = A's root txn id 0).
    let chain = report.final_chains[&(ObjectId::new(0), PageIndex::new(0))];
    assert_eq!(chain, mix(0, 0), "B must observe A's committed write");
}

#[test]
fn sibling_reuses_retained_lock_locally() {
    // One family: the root writes O0 and invokes two children that both
    // write O1. The second child's acquisition must be served locally from
    // the root's retained lock (no GDO messages).
    let config = Cfg {
        num_nodes: 2,
        ..Cfg::default()
    };
    let registry = registry(2, 2);
    let family = FamilySpec {
        node: NodeId::new(0),
        start: SimTime::ZERO,
        root: InvocationSpec {
            object: ObjectId::new(0),
            method: MethodId::new(3), // two invocation sites
            path: PathId::new(0),
            children: vec![leaf(1, 0), leaf(1, 0)],
            abort: false,
        },
    };
    let report = Engine::new(&config, &registry, &[family])
        .and_then(Engine::run)
        .expect("runs");
    oracle::verify(&report).expect("serializable");
    assert_eq!(
        report.stats.local_lock_grants, 1,
        "second sibling is a local grant"
    );
    // Both writes survive: O1's chain is two stamps deep.
    let chain = report.final_chains[&(ObjectId::new(1), PageIndex::new(0))];
    assert_eq!(
        chain,
        mix(mix(0, 1), 2),
        "both sibling writes committed (txns T1, T2)"
    );
}

#[test]
fn aborted_child_work_is_invisible_but_siblings_survive() {
    // Root writes O0; child 1 writes O1 and is fault-injected to abort;
    // child 2 writes O2 and succeeds. After commit: O0 and O2 carry the
    // writes, O1 is untouched.
    let config = Cfg {
        num_nodes: 2,
        ..Cfg::default()
    };
    let registry = registry(3, 2);
    let mut doomed = leaf(1, 0);
    doomed.abort = true;
    let family = FamilySpec {
        node: NodeId::new(0),
        start: SimTime::ZERO,
        root: InvocationSpec {
            object: ObjectId::new(0),
            method: MethodId::new(3),
            path: PathId::new(0),
            children: vec![doomed, leaf(2, 0)],
            abort: false,
        },
    };
    let report = Engine::new(&config, &registry, &[family])
        .and_then(Engine::run)
        .expect("runs");
    oracle::verify(&report).expect("serializable");
    assert_eq!(report.stats.subtxn_aborts, 1);
    assert_eq!(report.stats.committed_families, 1);
    assert_eq!(
        report.final_chains[&(ObjectId::new(1), PageIndex::new(0))],
        0,
        "aborted child's write must be rolled back"
    );
    assert_ne!(
        report.final_chains[&(ObjectId::new(2), PageIndex::new(0))],
        0,
        "surviving sibling's write must commit"
    );
    assert_ne!(
        report.final_chains[&(ObjectId::new(0), PageIndex::new(0))],
        0
    );
}

#[test]
fn two_phase_rule_no_lock_released_before_root_commit() {
    // Structural check over the trace: for every family, every grant it
    // receives happens before its root commit — and no foreign family is
    // granted any of its objects in between (strictness).
    let scenario = lotec::workload::presets::quick(lotec::workload::presets::fig2());
    let (registry, families) = scenario.generate().expect("generates");
    let config = scenario.system_config();
    let report = Engine::new(&config, &registry, &families)
        .and_then(Engine::run)
        .expect("runs");
    oracle::verify(&report).expect("serializable");

    use std::collections::BTreeMap;
    // family -> commit time.
    let mut commit_at = BTreeMap::new();
    for event in report.trace.events() {
        if let TraceEvent::RootCommit { at, family, .. } = event {
            commit_at.insert(*family, *at);
        }
    }
    // For every WRITE grant to family F on object O, no other family may
    // be granted O before F's commit.
    let events = report.trace.events();
    for (i, event) in events.iter().enumerate() {
        let TraceEvent::Grant {
            family,
            object,
            mode,
            ..
        } = event
        else {
            continue;
        };
        if *mode != lotec::txn::LockMode::Write {
            continue;
        }
        let Some(&commit) = commit_at.get(family) else {
            continue; // aborted family: strictness until its abort instead
        };
        for later in &events[i + 1..] {
            if later.at() >= commit {
                break;
            }
            if let TraceEvent::Grant {
                family: f2,
                object: o2,
                ..
            } = later
            {
                assert!(
                    !(o2 == object && f2 != family),
                    "strict 2PL violated: {f2} granted {o2} before {family} committed"
                );
            }
        }
    }
}

#[test]
fn read_only_family_never_appears_in_dirty_info() {
    let config = Cfg {
        num_nodes: 2,
        ..Cfg::default()
    };
    let registry = registry(1, 2);
    let writer = FamilySpec {
        node: NodeId::new(0),
        start: SimTime::ZERO,
        root: leaf(0, 0),
    };
    let reader = FamilySpec {
        node: NodeId::new(1),
        start: SimTime::from_micros(1),
        root: leaf(0, 1),
    };
    let report = Engine::new(&config, &registry, &[writer, reader])
        .and_then(Engine::run)
        .expect("runs");
    oracle::verify(&report).expect("serializable");
    let mut commits = 0;
    for event in report.trace.events() {
        if let TraceEvent::RootCommit {
            family,
            dirty,
            released,
            ..
        } = event
        {
            commits += 1;
            if *family == 1 {
                assert!(dirty.is_empty(), "reader must piggyback no dirty info");
                assert_eq!(released.len(), 1, "reader still releases its read lock");
            }
        }
    }
    assert_eq!(commits, 2);
}
