//! Differential detector oracle: the incremental waits-for graph must
//! agree with the from-scratch reference at every step.
//!
//! Two layers of checking:
//!
//! 1. **Engine replays.** The fault-free fig3 cells, a sample of chaos
//!    cells and a deadlock-storm zoo cell run twice — once normally, once
//!    armed with `Engine::validate_lock_graph`. In validation mode the
//!    lock table cross-checks the incremental graph against a from-scratch
//!    rebuild after *every* entry mutation, and every detector call is
//!    compared against [`lotec_txn::deadlock::reference`] (panicking on
//!    the first divergence). The two runs must also produce identical
//!    behaviour fingerprints: validation is observation, never mutation.
//!
//! 2. **Scripted lock-table scenarios.** Hand-built `LockTable`/`TxnTree`
//!    sequences drive every mutation site the engine exercises —
//!    enqueueing, granting, pre-commit inheritance, abort return/release,
//!    root-commit release, timeout requeue (`cancel_family_waiters` +
//!    `regrant`) and crash eviction — and after each step assert that the
//!    incremental graph, the `may_deadlock_through` verdict, the found
//!    cycle, and the chosen victim all equal the reference.

use lotec::prelude::*;
use lotec::sim::FaultPlan;
use lotec_core::config::FaultConfig;
use lotec_core::engine::RunReport;
use lotec_core::spec::demo_workload;
use lotec_mem::{mix, PageIndex};
use lotec_obs::ObsEventKind;
use lotec_txn::deadlock::{self, reference};
use lotec_txn::{Acquire, LockMode, LockTable, TxnId, TxnTree};
use lotec_workload::{presets, zoo, Tier};

/// Chaos seeds sampled from the chaos suite's default stream
/// (`101 + 37 * i`) — the same sample `differential_seed` pins.
const CHAOS_SAMPLE: [u64; 3] = [101, 138, 175];

// ---------------------------------------------------------------------------
// Layer 1: engine replays under per-mutation validation.
// ---------------------------------------------------------------------------

/// Behaviour fingerprint (same construction as `differential_seed`): any
/// change in any simulated quantity moves at least one field.
#[derive(Debug, PartialEq, Eq)]
struct Fingerprint {
    committed: u64,
    makespan_ns: u64,
    total_messages: u64,
    total_bytes: u64,
    chain_hash: u64,
}

fn fingerprint(report: &RunReport, registry: &ObjectRegistry) -> Fingerprint {
    // Every page of the layout in key order; an unlisted page (of an
    // object the run never touched) reads as chain 0.
    let mut chain_hash = 0u64;
    for inst in registry.objects() {
        for page in (0..registry.num_pages(inst.id)).map(PageIndex::new) {
            chain_hash = mix(chain_hash, u64::from(inst.id.index()));
            chain_hash = mix(chain_hash, u64::from(page.get()));
            chain_hash = mix(chain_hash, report.final_chains[&(inst.id, page)]);
        }
    }
    let s = &report.stats;
    Fingerprint {
        committed: s.committed_families,
        makespan_ns: s.makespan.as_nanos(),
        total_messages: report.traffic.total().messages,
        total_bytes: report.traffic.total().bytes,
        chain_hash,
    }
}

/// Runs one engine with no probe, arming validation when `validate`.
fn run(
    config: &SystemConfig,
    registry: &ObjectRegistry,
    families: &[FamilySpec],
    validate: bool,
) -> RunReport {
    let engine = Engine::new(config, registry, families).expect("workload validates");
    let engine = if validate {
        engine.validate_lock_graph()
    } else {
        engine
    };
    engine.run().expect("engine runs")
}

fn fig3_cell(protocol: ProtocolKind, validate: bool) -> Fingerprint {
    let scenario = presets::quick(presets::fig3());
    let (registry, families) = scenario.generate().expect("workload generates");
    let config = SystemConfig {
        protocol,
        seed: 0xF163,
        num_nodes: scenario.config.num_nodes,
        page_size: scenario.config.schema.page_size,
        ..SystemConfig::default()
    };
    let report = run(&config, &registry, &families, validate);
    oracle::verify(&report).expect("serializable");
    fingerprint(&report, &registry)
}

fn chaos_cell(protocol: ProtocolKind, seed: u64, validate: bool) -> Fingerprint {
    let faults = FaultConfig {
        plan: FaultPlan {
            drop_prob: 0.10 + 0.02 * (seed % 5) as f64,
            duplicate_prob: 0.05,
            delay_prob: 0.10,
            max_extra_delay: SimDuration::from_micros(25),
            rto: SimDuration::from_micros(50),
            crashes: Vec::new(),
        },
        ..FaultConfig::default()
    };
    let config = SystemConfig {
        protocol,
        seed,
        faults,
        ..SystemConfig::default()
    };
    let (registry, families) = demo_workload(&config, seed);
    let report = run(&config, &registry, &families, validate);
    oracle::verify(&report).expect("serializable");
    fingerprint(&report, &registry)
}

/// Fault-free fig3 under per-mutation validation, all four protocols.
/// The validation-mode run panics on the first incremental/reference
/// divergence; the fingerprint equality shows validation observed an
/// identical execution.
#[test]
fn fig3_validated_replay_matches_plain_run() {
    for protocol in ProtocolKind::ALL {
        assert_eq!(
            fig3_cell(protocol, true),
            fig3_cell(protocol, false),
            "fig3/{protocol}: graph validation changed behaviour"
        );
    }
}

/// Chaos cells (timeouts, retransmits, duplicate grants) under
/// per-mutation validation. These runs exercise the timeout-requeue and
/// abort edge-teardown paths the fault-free cells never reach.
#[test]
fn chaos_validated_replay_matches_plain_run() {
    for protocol in ProtocolKind::ALL {
        for seed in CHAOS_SAMPLE {
            assert_eq!(
                chaos_cell(protocol, seed, true),
                chaos_cell(protocol, seed, false),
                "chaos/{protocol}/{seed}: graph validation changed behaviour"
            );
        }
    }
}

/// `deadlock_storm`'s shape — the `wide_trees` quick zoo cell, LOTEC with
/// static prediction — under per-mutation validation. Its victims'
/// aborts sometimes leave a second cycle through the enqueued family,
/// so this is the engine run that cross-checks the re-check after a
/// victim against the from-scratch reference. The validated run must
/// simulate exactly what the plain run does, and at least one enqueue
/// must have broken two cycles: two `Deadlock` events at one instant
/// whose cycles share a family (the enqueued one, which every cycle the
/// enqueue closed passes through).
#[test]
fn storm_validated_replay_rechecks_after_victims() {
    let scenario = zoo::by_name("wide_trees", Tier::Quick).expect("wide_trees is a zoo family");
    let (registry, families) = scenario.generate().expect("zoo workload generates");
    let config = scenario.cell_config(ProtocolKind::Lotec, false);
    let mut sink = RecordingSink::new();
    let report = Engine::with_probe(&config, &registry, &families, &mut sink)
        .map(Engine::validate_lock_graph)
        .and_then(Engine::run)
        .expect("validated storm run");
    oracle::verify(&report).expect("serializable");
    let plain_report = run(&config, &registry, &families, false);
    assert_eq!(
        fingerprint(&report, &registry),
        fingerprint(&plain_report, &registry),
        "storm: graph validation changed behaviour"
    );

    let deadlocks: Vec<(SimTime, &[u64])> = sink
        .events()
        .iter()
        .filter_map(|e| match &e.kind {
            ObsEventKind::Deadlock { cycle, .. } => Some((e.at, cycle.as_slice())),
            _ => None,
        })
        .collect();
    assert_eq!(deadlocks.len() as u64, report.stats.deadlocks);
    let second_cycles = deadlocks
        .windows(2)
        .filter(|w| w[0].0 == w[1].0 && w[0].1.iter().any(|f| w[1].1.contains(f)))
        .count();
    assert!(
        second_cycles >= 1,
        "no enqueue broke two cycles in {} deadlocks — the re-check after a \
         victim went unexercised",
        deadlocks.len()
    );
}

// ---------------------------------------------------------------------------
// Layer 2: scripted lock-table scenarios with an explicit oracle.
// ---------------------------------------------------------------------------

fn obj(i: u32) -> ObjectId {
    ObjectId::new(i)
}

fn node(i: u32) -> NodeId {
    NodeId::new(i)
}

/// Builds a table with `n` registered 4-page objects, homed on node 0,
/// with internal per-mutation validation armed.
fn table_with_objects(n: u32) -> LockTable {
    let mut table = LockTable::new();
    for i in 0..n {
        table.register_object(obj(i), 4, node(0));
    }
    table.enable_graph_validation();
    table
}

/// The external oracle: after every mutation the incremental graph, the
/// detector verdicts, the found cycle, and the victim must all equal the
/// from-scratch reference, and the table invariants must hold.
fn check_against_reference(table: &LockTable, tree: &TxnTree, families: &[TxnId]) {
    if let Err(msg) = table.check_invariants(tree) {
        panic!("lock-table invariant violated: {msg}");
    }
    assert_eq!(
        table.waits_for().to_reference(),
        reference::waits_for(table, tree),
        "incremental waits-for graph diverged from reference"
    );
    let cycle = deadlock::find_deadlock_cycle(table, tree);
    assert_eq!(
        cycle,
        reference::find_deadlock_cycle(table, tree),
        "cycle search diverged from reference"
    );
    if let Some(cycle) = &cycle {
        assert_eq!(
            deadlock::pick_victim(cycle),
            *cycle.iter().max().expect("cycle is non-empty"),
            "victim must be the youngest cycle member"
        );
    }
    for &family in families {
        assert_eq!(
            deadlock::may_deadlock_through(table, tree, family),
            reference::may_deadlock_through(table, tree, family),
            "O(1) guard diverged from reference for {family}"
        );
        // The gated search's contract assumes the graph was acyclic
        // before `family` enqueued, so every cycle passes through it —
        // exercise it exactly where that contract holds.
        let on_cycle = cycle.as_ref().is_some_and(|c| c.contains(&family));
        if cycle.is_none() || on_cycle {
            assert_eq!(
                deadlock::find_deadlock_cycle_through(table, tree, family),
                cycle.clone().filter(|_| on_cycle),
                "gated cycle search diverged from reference for {family}"
            );
        }
    }
}

/// Aborts `root`'s whole family the way the engine does on deadlock or
/// crash: post-order abort-release of every active member, then waiter
/// cancellation and a regrant pass over the vacated objects.
fn abort_family(table: &mut LockTable, tree: &mut TxnTree, root: TxnId) -> Vec<ObjectId> {
    let mut vacated = Vec::new();
    for txn in tree.active_subtree_post_order(root) {
        let mut release = lotec_txn::AbortRelease::default();
        table.release_abort(txn, tree, &mut release);
        vacated.extend(release.released);
        tree.abort(txn);
    }
    vacated.extend(table.cancel_family_waiters(root, tree));
    table.regrant(&vacated, tree);
    vacated
}

/// Two families forming the classic two-object write-write deadlock:
/// A holds 0 and queues on 1; B holds 1 and queues on 0. The guard,
/// cycle, and victim must match the reference at every step, and
/// aborting the (youngest) victim must clean the graph and unblock the
/// survivor.
#[test]
fn two_family_cycle_detected_and_broken_like_reference() {
    let mut tree = TxnTree::new();
    let mut table = table_with_objects(2);
    let a = tree.begin_root(node(1));
    let b = tree.begin_root(node(2));
    let fams = [a, b];

    assert!(matches!(
        table.acquire(obj(0), a, LockMode::Write, &tree),
        Ok(Acquire::GlobalGrant { .. })
    ));
    check_against_reference(&table, &tree, &fams);
    assert!(matches!(
        table.acquire(obj(1), b, LockMode::Write, &tree),
        Ok(Acquire::GlobalGrant { .. })
    ));
    check_against_reference(&table, &tree, &fams);

    // A queues behind B on object 1: one edge, no cycle yet.
    assert!(matches!(
        table.acquire(obj(1), a, LockMode::Write, &tree),
        Ok(Acquire::Queued)
    ));
    check_against_reference(&table, &tree, &fams);
    assert!(!deadlock::may_deadlock_through(&table, &tree, a));
    assert!(deadlock::find_deadlock_cycle(&table, &tree).is_none());

    // B queues behind A on object 0: the cycle closes.
    assert!(matches!(
        table.acquire(obj(0), b, LockMode::Write, &tree),
        Ok(Acquire::Queued)
    ));
    check_against_reference(&table, &tree, &fams);
    assert!(deadlock::may_deadlock_through(&table, &tree, b));
    let cycle = deadlock::find_deadlock_cycle(&table, &tree).expect("cycle exists");
    let victim = deadlock::pick_victim(&cycle);
    assert_eq!(victim, b, "youngest family is the victim");

    // Break it the engine's way; the survivor must be granted object 1.
    let vacated = abort_family(&mut table, &mut tree, victim);
    check_against_reference(&table, &tree, &fams);
    assert!(deadlock::find_deadlock_cycle(&table, &tree).is_none());
    assert!(table.waits_for().is_empty(), "graph clean after break");
    assert!(vacated.contains(&obj(1)), "victim vacated object 1");
    assert!(
        table.held_objects(a).any(|o| o == obj(1)),
        "survivor inherited the vacated lock via regrant"
    );
}

/// Pre-commit retention keeps the family-level edges stable: a child's
/// locks move to the parent (same family), so a foreign waiter's edge
/// must survive the pre-commit unchanged, and only the root commit
/// releases it.
#[test]
fn pre_commit_retention_and_root_commit_release_track_reference() {
    let mut tree = TxnTree::new();
    let mut table = table_with_objects(2);
    let a = tree.begin_root(node(1));
    let child = tree.begin_child(a);
    let b = tree.begin_root(node(2));
    let fams = [a, b];

    assert!(table
        .acquire(obj(0), child, LockMode::Write, &tree)
        .expect("child acquires")
        .is_granted());
    assert!(matches!(
        table.acquire(obj(0), b, LockMode::Write, &tree),
        Ok(Acquire::Queued)
    ));
    check_against_reference(&table, &tree, &fams);
    assert!(table.waits_for().is_blocked(b), "B waits on A's family");

    // Child pre-commits: the parent inherits; B's edge must persist.
    let mut release = lotec_txn::PreCommitRelease::default();
    table.release_pre_commit(child, &tree, &mut release);
    tree.pre_commit(child);
    assert_eq!(release.inherited, vec![obj(0)]);
    check_against_reference(&table, &tree, &fams);
    assert!(table.waits_for().is_blocked(b), "edge survives pre-commit");

    // Root commit finally releases; B is granted and the graph empties.
    let mut release = lotec_txn::CommitRelease::default();
    table.release_root_commit(a, &tree, &[], node(1), &mut release);
    tree.commit_root(a);
    assert_eq!(release.released, vec![obj(0)]);
    assert_eq!(release.grants.len(), 1, "B granted on release");
    check_against_reference(&table, &tree, &fams);
    assert!(table.waits_for().is_empty());
    assert!(table.held_objects(b).any(|o| o == obj(0)));
}

/// Sub-transaction abort returns a lock to a retaining ancestor — a
/// family-internal move that must not disturb foreign edges — and then a
/// plain abort without a retainer releases globally and drops the edge.
#[test]
fn abort_return_to_ancestor_keeps_foreign_edges() {
    let mut tree = TxnTree::new();
    let mut table = table_with_objects(1);
    let a = tree.begin_root(node(1));
    let child1 = tree.begin_child(a);
    let b = tree.begin_root(node(2));
    let fams = [a, b];

    // child1 acquires, pre-commits: A retains object 0.
    assert!(table
        .acquire(obj(0), child1, LockMode::Write, &tree)
        .expect("acquire")
        .is_granted());
    table.release_pre_commit(child1, &tree, &mut lotec_txn::PreCommitRelease::default());
    tree.pre_commit(child1);

    // child2 re-acquires from the retaining ancestor (local grant), then
    // B queues behind the family.
    let child2 = tree.begin_child(a);
    assert!(matches!(
        table.acquire(obj(0), child2, LockMode::Write, &tree),
        Ok(Acquire::LocalGrant)
    ));
    assert!(matches!(
        table.acquire(obj(0), b, LockMode::Write, &tree),
        Ok(Acquire::Queued)
    ));
    check_against_reference(&table, &tree, &fams);

    // child2 aborts: the lock returns to the retaining root; B still
    // waits on the same family — the graph must be unchanged.
    let before = table.waits_for().to_reference();
    let mut release = lotec_txn::AbortRelease::default();
    table.release_abort(child2, &tree, &mut release);
    tree.abort(child2);
    assert_eq!(release.returned_to_ancestor, vec![obj(0)]);
    assert!(release.released.is_empty());
    check_against_reference(&table, &tree, &fams);
    assert_eq!(
        table.waits_for().to_reference(),
        before,
        "family-internal return must not move edges"
    );

    // Aborting the whole family releases globally; B gets the lock.
    abort_family(&mut table, &mut tree, a);
    check_against_reference(&table, &tree, &fams);
    assert!(table.waits_for().is_empty());
    assert!(table.held_objects(b).any(|o| o == obj(0)));
}

/// Timeout requeue: cancelling a family's waiters tears down its edges
/// (including FIFO queue-order edges to earlier-queued families), the
/// regrant pass rebuilds state for the survivors, and a re-request
/// restores the edges — all in lock-step with the reference.
#[test]
fn timeout_requeue_tears_down_and_rebuilds_edges() {
    let mut tree = TxnTree::new();
    let mut table = table_with_objects(1);
    let a = tree.begin_root(node(1));
    let b = tree.begin_root(node(2));
    let c = tree.begin_root(node(3));
    let fams = [a, b, c];

    assert!(table
        .acquire(obj(0), a, LockMode::Write, &tree)
        .expect("acquire")
        .is_granted());
    // B then C queue: C also carries a FIFO edge to the earlier B.
    assert!(matches!(
        table.acquire(obj(0), b, LockMode::Write, &tree),
        Ok(Acquire::Queued)
    ));
    check_against_reference(&table, &tree, &fams);
    assert!(matches!(
        table.acquire(obj(0), c, LockMode::Write, &tree),
        Ok(Acquire::Queued)
    ));
    check_against_reference(&table, &tree, &fams);
    assert!(
        table.waits_for().blockers_of(c).any(|f| f == b),
        "FIFO edge from C to the earlier-queued B"
    );

    // B times out: its request is cancelled and C's FIFO edge to B must
    // vanish while C's edge to the holder A remains.
    let vacated = table.cancel_family_waiters(b, &tree);
    let grants = table.regrant(&vacated, &tree);
    assert!(grants.is_empty(), "A still holds; nothing to grant");
    check_against_reference(&table, &tree, &fams);
    assert!(!table.waits_for().is_blocked(b));
    assert!(table.waits_for().blockers_of(c).all(|f| f != b));
    assert!(table.waits_for().blockers_of(c).any(|f| f == a));

    // B re-requests: now *it* queues behind both A and the earlier C.
    assert!(matches!(
        table.acquire(obj(0), b, LockMode::Write, &tree),
        Ok(Acquire::Queued)
    ));
    check_against_reference(&table, &tree, &fams);
    assert!(table.waits_for().blockers_of(b).any(|f| f == c));
}

/// Crash eviction: a whole family with a deep in-flight tree is evicted
/// mid-run (post-order abort of every active member, waiter cancel,
/// regrant). The graph must track the reference through every member's
/// release, not just at the end.
#[test]
fn crash_eviction_tracks_reference_at_every_member_release() {
    let mut tree = TxnTree::new();
    let mut table = table_with_objects(3);
    let a = tree.begin_root(node(1));
    let a_child = tree.begin_child(a);
    let a_grand = tree.begin_child(a_child);
    let b = tree.begin_root(node(2));
    let fams = [a, b];

    assert!(table
        .acquire(obj(0), a, LockMode::Write, &tree)
        .expect("acquire")
        .is_granted());
    assert!(table
        .acquire(obj(1), a_child, LockMode::Write, &tree)
        .expect("acquire")
        .is_granted());
    assert!(table
        .acquire(obj(2), a_grand, LockMode::Read, &tree)
        .expect("acquire")
        .is_granted());
    assert!(matches!(
        table.acquire(obj(1), b, LockMode::Write, &tree),
        Ok(Acquire::Queued)
    ));
    // A also queues somewhere to give the evicted family out-edges too.
    assert!(table
        .acquire(obj(2), b, LockMode::Read, &tree)
        .expect("read lock is shared")
        .is_granted());
    check_against_reference(&table, &tree, &fams);

    // Evict A step by step, checking after every member's release.
    let mut vacated = Vec::new();
    for txn in tree.active_subtree_post_order(a) {
        let mut release = lotec_txn::AbortRelease::default();
        table.release_abort(txn, &tree, &mut release);
        vacated.extend(release.released);
        tree.abort(txn);
        check_against_reference(&table, &tree, &fams);
    }
    vacated.extend(table.cancel_family_waiters(a, &tree));
    check_against_reference(&table, &tree, &fams);
    table.regrant(&vacated, &tree);
    check_against_reference(&table, &tree, &fams);
    assert!(
        table.waits_for().is_empty(),
        "no waiters left after eviction"
    );
    assert!(
        table.held_objects(b).any(|o| o == obj(1)),
        "B granted the vacated write lock"
    );
}

/// Three families in a chain (C→B→A) with a read-write mix: no cycle, so
/// the guard must stay false for every family while edges exist — the
/// incremental graph must agree with the reference that a chain is not a
/// cycle.
#[test]
fn waiting_chain_is_not_reported_as_deadlock() {
    let mut tree = TxnTree::new();
    let mut table = table_with_objects(2);
    let a = tree.begin_root(node(1));
    let b = tree.begin_root(node(2));
    let c = tree.begin_root(node(3));
    let fams = [a, b, c];

    assert!(table
        .acquire(obj(0), a, LockMode::Read, &tree)
        .expect("acquire")
        .is_granted());
    assert!(matches!(
        table.acquire(obj(0), b, LockMode::Write, &tree),
        Ok(Acquire::Queued)
    ));
    assert!(table
        .acquire(obj(1), b, LockMode::Write, &tree)
        .expect("acquire")
        .is_granted());
    assert!(matches!(
        table.acquire(obj(1), c, LockMode::Write, &tree),
        Ok(Acquire::Queued)
    ));
    check_against_reference(&table, &tree, &fams);
    assert!(!table.waits_for().is_empty());
    // The guard is conservative: A and B have in-edges (someone waits on
    // them) so it fires, but C — the newest waiter, the only family a
    // fresh enqueue could have come from — has none, and the exact search
    // agrees there is no cycle anywhere.
    assert!(deadlock::may_deadlock_through(&table, &tree, a));
    assert!(deadlock::may_deadlock_through(&table, &tree, b));
    assert!(!deadlock::may_deadlock_through(&table, &tree, c));
    assert!(deadlock::find_deadlock_cycle(&table, &tree).is_none());

    // Drain the chain front to back; the graph must empty out.
    table.release_root_commit(
        a,
        &tree,
        &[],
        node(1),
        &mut lotec_txn::CommitRelease::default(),
    );
    tree.commit_root(a);
    check_against_reference(&table, &tree, &fams);
    table.release_root_commit(
        b,
        &tree,
        &[],
        node(2),
        &mut lotec_txn::CommitRelease::default(),
    );
    tree.commit_root(b);
    check_against_reference(&table, &tree, &fams);
    table.release_root_commit(
        c,
        &tree,
        &[],
        node(3),
        &mut lotec_txn::CommitRelease::default(),
    );
    tree.commit_root(c);
    check_against_reference(&table, &tree, &fams);
    assert!(table.waits_for().is_empty());
}
