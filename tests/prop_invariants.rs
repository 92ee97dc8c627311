//! Randomized-property tests over workload configurations: the core
//! invariants of DESIGN.md §5 must hold for *any* generated workload, not
//! just the figure presets. Cases are drawn from a seeded [`SimRng`]
//! stream, so every run checks the same deterministic sample.

use lotec::prelude::*;
use lotec::sim::SimRng;
use lotec::workload::schema::SchemaConfig;
use lotec::workload::WorkloadConfig;
use lotec_core::SystemConfig as Cfg;

const CASES: u64 = 24;

/// One random small-but-diverse workload configuration.
fn random_workload(rng: &mut SimRng) -> WorkloadConfig {
    let pages_min = rng.range_inclusive(1, 3) as u16;
    let pages_extra = rng.range_inclusive(0, 8) as u16;
    let attrs_min = rng.range_inclusive(3, 10) as u16;
    WorkloadConfig {
        schema: SchemaConfig {
            num_classes: rng.range_inclusive(2, 4) as u32,
            pages_min,
            pages_max: pages_min + pages_extra,
            page_size: 512, // small pages keep runs fast
            attrs_min,
            attrs_max: attrs_min + 5,
            methods_per_class: 3,
            paths_per_method: rng.range_inclusive(1, 3) as u32,
            attr_touch_prob: 0.15 + rng.f64() * 0.55,
            write_prob: 0.8,
            read_only_method_prob: 0.2,
            invoke_prob: 0.4,
            max_sites_per_path: 2,
        },
        num_objects: 8,
        num_families: rng.range_inclusive(4, 24) as u32,
        num_nodes: rng.range_inclusive(2, 6) as u32,
        zipf_theta: rng.f64() * 1.2,
        mean_arrival_gap: SimDuration::from_micros(30),
        abort_prob: rng.f64() * 0.2,
        seed: rng.next_u64(),
    }
}

fn system_for(w: &WorkloadConfig, protocol: ProtocolKind) -> Cfg {
    Cfg {
        num_nodes: w.num_nodes,
        page_size: w.schema.page_size,
        protocol,
        seed: w.seed,
        ..Cfg::default()
    }
}

/// Runs `body` for each sampled workload that generates non-degenerately.
fn for_each_workload(stream: u64, mut body: impl FnMut(&WorkloadConfig, &mut SimRng)) {
    let mut rng = SimRng::seed_from_u64(0x1237_AB5E ^ stream);
    for _ in 0..CASES {
        let w = random_workload(&mut rng);
        body(&w, &mut rng);
    }
}

/// Invariant 1 (DESIGN.md): page-payload ordering
/// LOTEC <= OTEC <= COTEC for any workload on an identical schedule.
#[test]
fn payload_ordering_universal() {
    for_each_workload(1, |w, _| {
        let Ok((registry, families)) = lotec::workload::gen::generate(w) else {
            return; // degenerate config; nothing to check
        };
        if families.is_empty() {
            return;
        }
        let config = system_for(w, ProtocolKind::Lotec);
        let cmp = compare_protocols(&config, &registry, &families).expect("runs");
        let payload = |k: ProtocolKind| {
            cmp.traffic(k)
                .page_payload_bytes(&config.sizes, config.page_size)
        };
        let (l, o, c) = (
            payload(ProtocolKind::Lotec),
            payload(ProtocolKind::Otec),
            payload(ProtocolKind::Cotec),
        );
        assert!(l <= o, "LOTEC {l} > OTEC {o} for {w:?}");
        assert!(o <= c, "OTEC {o} > COTEC {c} for {w:?}");
    });
}

/// Invariant 2: serializability under every protocol, with faults and
/// contention drawn at random.
#[test]
fn serializability_universal() {
    for_each_workload(2, |w, rng| {
        let Ok((registry, families)) = lotec::workload::gen::generate(w) else {
            return;
        };
        if families.is_empty() {
            return;
        }
        let protocol = ProtocolKind::ALL[rng.next_below(4) as usize];
        let config = system_for(w, protocol);
        let report = Engine::new(&config, &registry, &families)
            .and_then(Engine::run)
            .expect("engine runs");
        assert!(
            oracle::verify(&report).is_ok(),
            "oracle rejected {protocol} for {w:?}"
        );
        // Every family must terminate: committed or (fault-aborted) failed.
        assert_eq!(
            report.stats.committed_families + report.stats.aborted_families,
            families.len() as u64
        );
    });
}

/// Invariant 8: bit-for-bit determinism from the seed.
#[test]
fn determinism_universal() {
    for_each_workload(3, |w, _| {
        let Ok((registry, families)) = lotec::workload::gen::generate(w) else {
            return;
        };
        if families.is_empty() {
            return;
        }
        let config = system_for(w, ProtocolKind::Lotec);
        let a = Engine::new(&config, &registry, &families)
            .and_then(Engine::run)
            .expect("run a");
        let b = Engine::new(&config, &registry, &families)
            .and_then(Engine::run)
            .expect("run b");
        assert_eq!(a.trace, b.trace);
        assert_eq!(a.final_chains, b.final_chains);
        assert_eq!(a.traffic.total(), b.traffic.total());
    });
}

/// Invariant 6: conservative prediction — every path's actual access set
/// is a subset of its method's prediction, for any generated schema.
#[test]
fn conservative_prediction_universal() {
    for_each_workload(4, |w, _| {
        let Ok((registry, _)) = lotec::workload::gen::generate(w) else {
            return;
        };
        for class_idx in 0..registry.num_classes() {
            let compiled = registry.class(ClassId::new(class_idx as u32));
            assert_eq!(compiled.verify(), Ok(()));
        }
    });
}

/// JSON persistence round-trips any workload configuration exactly: the
/// reloaded scenario regenerates an identical workload.
#[test]
fn persistence_roundtrip_universal() {
    for_each_workload(5, |w, _| {
        let scenario = lotec::workload::Scenario::new("prop", w.clone());
        let json = lotec::workload::persist::to_json(&scenario).expect("serializes");
        let back = lotec::workload::persist::from_json(&json).expect("deserializes");
        assert_eq!(&back, &scenario);
        let a = lotec::workload::gen::generate(&scenario.config);
        let b = lotec::workload::gen::generate(&back.config);
        match (a, b) {
            (Ok((_, fa)), Ok((_, fb))) => assert_eq!(fa, fb),
            (Err(_), Err(_)) => {}
            _ => panic!("generate outcome diverged after roundtrip"),
        }
    });
}

/// Engine accounting must equal replaying its own trace under the same
/// configuration: the two drivers charge through one set of rules, so
/// they agree per message kind and per object for any combination of the
/// extensions that change what is charged. Each case draws a random
/// subset of them and either a uniform protocol or a per-class mix (last
/// class RC, the one before it OTEC).
#[test]
fn engine_matches_replay_universal() {
    use lotec::net::MessageKind;
    use lotec_core::config::{GdoPlacement, RecoveryKind};

    for_each_workload(6, |w, rng| {
        let Ok((registry, families)) = lotec::workload::gen::generate(w) else {
            return;
        };
        if families.is_empty() {
            return;
        }
        let mut config = system_for(w, ProtocolKind::ALL[rng.next_below(4) as usize]);
        let features = rng.next_below(1 << 7);
        let on = |bit: u32| features & (1 << bit) != 0;
        config.adaptive.enabled = on(0);
        config.multicast = on(1);
        config.dsd_transfers = on(2);
        if on(3) {
            let directory = NodeId::new(rng.next_below(u64::from(w.num_nodes)) as u32);
            config.gdo_placement = GdoPlacement::Central(directory);
        }
        if on(4) {
            config.gdo_replication = w.num_nodes.min(3);
        }
        config.lock_prefetch = on(5);
        if on(6) {
            config.recovery = RecoveryKind::ShadowPages;
        }
        if rng.chance(0.5) {
            let last = registry.num_classes() as u32 - 1;
            config = config
                .with_class_protocol(ClassId::new(last), ProtocolKind::ReleaseConsistency)
                .with_class_protocol(ClassId::new(last - 1), ProtocolKind::Otec);
        }
        let report = Engine::new(&config, &registry, &families)
            .and_then(Engine::run)
            .expect("engine runs");
        let replayed = lotec_core::replay::replay_run(&report.trace, &registry, &config);
        let case = format!(
            "{} with {:?}, features {features:07b}",
            config.protocol, config.per_class_protocol
        );
        for kind in MessageKind::ALL {
            assert_eq!(
                report.traffic.ledger().kind(kind),
                replayed.ledger().kind(kind),
                "{kind} diverged: {case}"
            );
        }
        for inst in registry.objects() {
            assert_eq!(
                report.traffic.object(inst.id),
                replayed.object(inst.id),
                "{} diverged: {case}",
                inst.id
            );
        }
    });
}

/// Invariant 7: deadlock detection is sound and complete on the family
/// waits-for graph. For random lock-table states built through real
/// acquire/pre-commit operations, [`find_deadlock_cycle`] reports a cycle
/// iff an independently reconstructed waits-for graph has one; the
/// reported cycle's edges all exist in that graph; and the chosen victim
/// lies on the cycle.
#[test]
fn deadlock_detector_victim_iff_cycle() {
    use std::collections::{BTreeMap, BTreeSet};

    use lotec::txn::{
        find_deadlock_cycle, pick_victim, Acquire, LockMode, LockTable, TxnId, TxnTree,
    };

    /// Independent reconstruction of the family-level waits-for graph from
    /// the table's public entry state: a waiting family is blocked by every
    /// conflicting holder or retainer of another family, and by every
    /// family queued ahead of it (FIFO ordering).
    fn rebuild_graph(table: &LockTable, tree: &TxnTree) -> BTreeMap<TxnId, BTreeSet<TxnId>> {
        let mut graph: BTreeMap<TxnId, BTreeSet<TxnId>> = BTreeMap::new();
        for entry in table.entries() {
            let waiting: Vec<_> = entry.waiting().collect();
            for (i, fw) in waiting.iter().enumerate() {
                let mut blockers = BTreeSet::new();
                for req in &fw.requests {
                    for h in entry.holders() {
                        let holder_family = tree.root_of(h.txn);
                        if holder_family != fw.family && h.mode.conflicts_with(req.mode) {
                            blockers.insert(holder_family);
                        }
                    }
                    for (r, m) in entry.retainers() {
                        let retainer_family = tree.root_of(r);
                        if retainer_family != fw.family && m.conflicts_with(req.mode) {
                            blockers.insert(retainer_family);
                        }
                    }
                }
                for earlier in &waiting[..i] {
                    blockers.insert(earlier.family);
                }
                if !blockers.is_empty() {
                    graph.entry(fw.family).or_default().extend(blockers);
                }
            }
        }
        graph
    }

    /// Cycle existence via Kahn's algorithm (a deliberately different
    /// algorithm from the detector's DFS): the graph is acyclic iff every
    /// node can be peeled in topological order.
    fn has_cycle(graph: &BTreeMap<TxnId, BTreeSet<TxnId>>) -> bool {
        let mut nodes: BTreeSet<TxnId> = graph.keys().copied().collect();
        for succs in graph.values() {
            nodes.extend(succs.iter().copied());
        }
        let mut indegree: BTreeMap<TxnId, usize> = nodes.iter().map(|&n| (n, 0)).collect();
        for succs in graph.values() {
            for &s in succs {
                *indegree.get_mut(&s).expect("known node") += 1;
            }
        }
        let mut queue: Vec<TxnId> = indegree
            .iter()
            .filter(|(_, &d)| d == 0)
            .map(|(&n, _)| n)
            .collect();
        let mut peeled = 0usize;
        while let Some(n) = queue.pop() {
            peeled += 1;
            for &s in graph.get(&n).map(|s| s.iter()).into_iter().flatten() {
                let d = indegree.get_mut(&s).expect("known node");
                *d -= 1;
                if *d == 0 {
                    queue.push(s);
                }
            }
        }
        peeled < nodes.len()
    }

    let mut rng = SimRng::seed_from_u64(0x0D_EAD_10C);
    let mut cyclic_cases = 0u32;
    let mut acyclic_cases = 0u32;
    for _ in 0..250 {
        let num_nodes = 4u32;
        let num_objects = rng.range_inclusive(2, 6) as u32;
        let num_families = rng.range_inclusive(2, 8) as usize;
        let mut table = LockTable::new();
        for o in 0..num_objects {
            table.register_object(ObjectId::new(o), 1, NodeId::new(o % num_nodes));
        }
        let mut tree = TxnTree::new();
        let roots: Vec<TxnId> = (0..num_families)
            .map(|i| tree.begin_root(NodeId::new(i as u32 % num_nodes)))
            .collect();
        // A family with a queued request is blocked and issues nothing
        // further (one outstanding request, as in the engine).
        let mut blocked = vec![false; num_families];
        for _ in 0..rng.range_inclusive(4, 20) {
            let f = rng.next_below(num_families as u64) as usize;
            if blocked[f] {
                continue;
            }
            let object = ObjectId::new(rng.next_below(u64::from(num_objects)) as u32);
            let mode = if rng.chance(0.6) {
                LockMode::Write
            } else {
                LockMode::Read
            };
            if rng.chance(0.35) {
                // Acquire through a child and pre-commit it on success, so
                // the lock surfaces as a *retained* lock of the family.
                let child = tree.begin_child(roots[f]);
                match table.acquire(object, child, mode, &tree) {
                    Ok(Acquire::Queued) => blocked[f] = true,
                    Ok(_) => {
                        table.release_pre_commit(
                            child,
                            &tree,
                            &mut lotec::txn::PreCommitRelease::default(),
                        );
                        tree.pre_commit(child);
                    }
                    Err(_) => tree.abort(child),
                }
            } else if let Ok(Acquire::Queued) = table.acquire(object, roots[f], mode, &tree) {
                blocked[f] = true;
            }
        }

        let graph = rebuild_graph(&table, &tree);
        let cycle = find_deadlock_cycle(&table, &tree);
        assert_eq!(
            cycle.is_some(),
            has_cycle(&graph),
            "detector and independent cycle check disagree"
        );
        match cycle {
            None => acyclic_cases += 1,
            Some(cycle) => {
                cyclic_cases += 1;
                assert!(!cycle.is_empty());
                // Every consecutive hop (wrapping) is a real waits-for edge.
                for (i, &from) in cycle.iter().enumerate() {
                    let to = cycle[(i + 1) % cycle.len()];
                    assert!(
                        graph.get(&from).is_some_and(|s| s.contains(&to)),
                        "reported cycle edge {from:?} -> {to:?} not in the waits-for graph"
                    );
                }
                // The victim is on the cycle (and is its youngest member).
                let victim = pick_victim(&cycle);
                assert!(cycle.contains(&victim), "victim must lie on the cycle");
                assert_eq!(Some(victim), cycle.iter().copied().max());
            }
        }
    }
    // The sampled state space must actually exercise both outcomes.
    assert!(cyclic_cases > 10, "too few cyclic samples: {cyclic_cases}");
    assert!(
        acyclic_cases > 10,
        "too few acyclic samples: {acyclic_cases}"
    );
}
