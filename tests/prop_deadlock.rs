//! Property test: random lock-table op streams against the from-scratch
//! deadlock oracle.
//!
//! A seeded [`SimRng`] drives long random streams of every lock-table
//! operation the engine performs — child begins, acquisitions (granted
//! and queued), pre-commits, sub-transaction aborts, root commits,
//! waiter timeouts, and whole-family evictions — while the table runs
//! with internal graph validation armed. After every mutation the test
//! asserts, externally:
//!
//! * the incremental waits-for graph equals a from-scratch rebuild
//!   ([`reference::waits_for`]);
//! * a `false` from the O(1) enqueue gate implies the reference search
//!   finds no cycle at all (soundness of skipping detection);
//! * on every pass of the victim loop — the first search and each
//!   re-check after a victim — the gated search through the newly
//!   enqueued family returns the reference search's cycle, rotation
//!   included, and that cycle contains the enqueued family;
//! * the chosen victim is the youngest (largest-id) cycle member.
//!
//! The stream mirrors the engine's discipline: every cycle is broken the
//! moment it forms (youngest victim aborted, waiters cancelled, vacated
//! objects regranted, then the gated search again through the same
//! enqueued family), which is exactly the acyclic-before-enqueue
//! invariant the O(1) gate and the forward existence check rely on. A
//! victim's abort and regrants only remove wait edges, so the invariant
//! survives each victim; the contended streams are dense enough that a
//! re-check sometimes finds a second cycle.

use lotec::sim::SimRng;
use lotec_mem::ObjectId;
use lotec_sim::NodeId;
use lotec_txn::deadlock::{self, reference};
use lotec_txn::{Acquire, Grant, LockMode, LockTable, TxnId, TxnTree};

const NUM_OBJECTS: u32 = 5;
const NUM_FAMILIES: usize = 4;
const STEPS: usize = 250;
/// The contended streams: twice the families on the same objects, long
/// enough that some victim's abort leaves a second cycle behind.
const CONTENDED_FAMILIES: usize = 8;
const CONTENDED_STEPS: usize = 1_000;
const MAX_DEPTH: usize = 4;
const SEEDS: [u64; 8] = [
    0xD15C_0001,
    0xD15C_0002,
    0xD15C_0003,
    0xD15C_0004,
    0xD15C_0005,
    0xD15C_0006,
    0xD15C_0007,
    0xD15C_0008,
];

/// One live family: its root, the stack of active transactions along the
/// current invocation path (ops act on the top), and whether its top has
/// a queued lock request outstanding (a blocked family runs nothing
/// until granted, timed out, or aborted — same as in the engine).
struct Family {
    root: TxnId,
    stack: Vec<TxnId>,
    waiting: bool,
}

struct Harness {
    tree: TxnTree,
    table: LockTable,
    families: Vec<Family>,
    next_node: u32,
    /// Number of deadlock cycles broken so far (victims aborted).
    deadlocks_broken: u32,
    /// Re-checks after a victim that found another cycle.
    second_cycles: u32,
}

impl Harness {
    fn new(num_families: usize) -> Self {
        let mut table = LockTable::new();
        for i in 0..NUM_OBJECTS {
            table.register_object(ObjectId::new(i), 4, NodeId::new(0));
        }
        table.enable_graph_validation();
        let mut h = Harness {
            tree: TxnTree::new(),
            table,
            families: Vec::new(),
            next_node: 1,
            deadlocks_broken: 0,
            second_cycles: 0,
        };
        for _ in 0..num_families {
            h.spawn_family();
        }
        h
    }

    fn spawn_family(&mut self) {
        let root = self.tree.begin_root(NodeId::new(self.next_node));
        self.next_node += 1;
        self.families.push(Family {
            root,
            stack: vec![root],
            waiting: false,
        });
    }

    /// The oracle, run after every mutation.
    fn check(&self) {
        if let Err(msg) = self.table.check_invariants(&self.tree) {
            panic!("lock-table invariant violated: {msg}");
        }
        assert_eq!(
            self.table.waits_for().to_reference(),
            reference::waits_for(&self.table, &self.tree),
            "incremental waits-for graph diverged from from-scratch rebuild"
        );
    }

    /// Clears the waiting flag of every family that appears in `grants`.
    fn apply_grants(&mut self, grants: &[Grant]) {
        for grant in grants {
            for req in &grant.requests {
                let fam = self.tree.root_of(req.txn);
                if let Some(f) = self.families.iter_mut().find(|f| f.root == fam) {
                    f.waiting = false;
                }
            }
        }
    }

    /// Aborts a whole family the way the engine evicts one (deadlock
    /// victim or crash): post-order abort-release of every active
    /// member, waiter cancellation, then a regrant pass. Checks the
    /// oracle after every member's release.
    fn abort_family(&mut self, root: TxnId) {
        for txn in self.tree.active_subtree_post_order(root) {
            let mut release = lotec_txn::AbortRelease::default();
            self.table.release_abort(txn, &self.tree, &mut release);
            self.tree.abort(txn);
            self.apply_grants(&release.grants);
            self.check();
        }
        let vacated = self.table.cancel_family_waiters(root, &self.tree);
        self.check();
        let grants = self.table.regrant(&vacated, &self.tree);
        self.apply_grants(&grants);
        self.check();
        self.families.retain(|f| f.root != root);
        self.spawn_family();
    }

    /// The engine's post-enqueue discipline: consult the O(1) gate, and
    /// if it fires abort youngest victims until the gated search through
    /// `enqueued` finds no cycle. Asserts gate soundness, and on every
    /// pass that the gated search agrees with the reference, that its
    /// cycle contains `enqueued`, and that the victim is the youngest.
    fn break_deadlocks_after_enqueue(&mut self, enqueued: TxnId) {
        if !deadlock::may_deadlock_through(&self.table, &self.tree, enqueued) {
            assert_eq!(
                reference::find_deadlock_cycle(&self.table, &self.tree),
                None,
                "gate said skip, but the reference finds a cycle"
            );
            return;
        }
        for pass in 0.. {
            let cycle = deadlock::find_deadlock_cycle_through(&self.table, &self.tree, enqueued);
            assert_eq!(
                cycle,
                reference::find_deadlock_cycle(&self.table, &self.tree),
                "gated cycle differs from reference on pass {pass} (rotation included)"
            );
            let Some(cycle) = cycle else { break };
            assert!(
                cycle.contains(&enqueued),
                "cycle {cycle:?} on pass {pass} misses the enqueued family {enqueued}"
            );
            if pass > 0 {
                self.second_cycles += 1;
            }
            let victim = deadlock::pick_victim(&cycle);
            assert_eq!(
                victim,
                *cycle.iter().max().expect("cycle is non-empty"),
                "victim must be the youngest cycle member"
            );
            self.deadlocks_broken += 1;
            self.abort_family(victim);
        }
    }

    /// Evicts every family and checks the graph ends empty.
    fn drain(&mut self, seed: u64) {
        while let Some(f) = self.families.first() {
            let root = f.root;
            self.abort_family(root);
            if self.tree.len() > 10_000 {
                panic!("family population failed to drain");
            }
            // `abort_family` respawns; pop the respawned one directly.
            let spawned = self.families.pop().expect("respawned family");
            assert_ne!(spawned.root, root);
        }
        assert!(
            self.table.waits_for().is_empty(),
            "graph must be empty once every family is gone (seed {seed:#x})"
        );
    }

    fn step(&mut self, rng: &mut SimRng) {
        let idx = rng.usize_range(0, self.families.len() - 1);
        let (root, top, waiting, depth) = {
            let f = &self.families[idx];
            (
                f.root,
                *f.stack.last().expect("stack non-empty"),
                f.waiting,
                f.stack.len(),
            )
        };

        if waiting {
            // A blocked family can only time out (or sit tight).
            if rng.chance(0.5) {
                let vacated = self.table.cancel_family_waiters(root, &self.tree);
                self.check();
                let grants = self.table.regrant(&vacated, &self.tree);
                self.apply_grants(&grants);
                self.check();
                self.families[idx].waiting = false;
            }
            return;
        }

        match rng.usize_range(0, 9) {
            // Begin a child invocation.
            0 | 1 if depth < MAX_DEPTH => {
                let child = self.tree.begin_child(top);
                self.families[idx].stack.push(child);
                self.check();
            }
            // Acquire a random object in a random mode.
            0..=4 => {
                let object = ObjectId::new(rng.next_below(u64::from(NUM_OBJECTS)) as u32);
                let mode = if rng.chance(0.6) {
                    LockMode::Write
                } else {
                    LockMode::Read
                };
                match self.table.acquire(object, top, mode, &self.tree) {
                    Ok(Acquire::Queued) => {
                        self.check();
                        self.families[idx].waiting = true;
                        self.break_deadlocks_after_enqueue(root);
                    }
                    Ok(_) => self.check(),
                    // Ancestor-held or already-held requests are the
                    // engine's problem to avoid; here they are no-ops.
                    Err(_) => {}
                }
            }
            // Pre-commit the top sub-transaction.
            5 | 6 if depth > 1 => {
                self.table.release_pre_commit(
                    top,
                    &self.tree,
                    &mut lotec_txn::PreCommitRelease::default(),
                );
                self.tree.pre_commit(top);
                self.families[idx].stack.pop();
                self.check();
            }
            // Abort the top sub-transaction.
            7 if depth > 1 => {
                let mut release = lotec_txn::AbortRelease::default();
                self.table.release_abort(top, &self.tree, &mut release);
                self.tree.abort(top);
                self.families[idx].stack.pop();
                self.apply_grants(&release.grants);
                self.check();
            }
            // Root commit: the family's work is done.
            5..=7 => {
                let mut release = lotec_txn::CommitRelease::default();
                self.table
                    .release_root_commit(root, &self.tree, &[], NodeId::new(0), &mut release);
                self.tree.commit_root(root);
                self.apply_grants(&release.grants);
                self.check();
                self.families.retain(|f| f.root != root);
                self.spawn_family();
            }
            // Evict the whole family (crash).
            8 => self.abort_family(root),
            // Idle tick.
            _ => {}
        }
    }
}

/// Runs `steps` random ops over `families` live families from `seed`.
fn run_stream(seed: u64, families: usize, steps: usize) -> Harness {
    let mut rng = SimRng::seed_from_u64(seed);
    let mut h = Harness::new(families);
    for _ in 0..steps {
        h.step(&mut rng);
    }
    h
}

#[test]
fn random_op_streams_agree_with_reference_detector() {
    for seed in SEEDS {
        run_stream(seed, NUM_FAMILIES, STEPS).drain(seed);
    }
}

/// Deadlocks must actually occur in the streams — otherwise the victim
/// and cycle assertions above never run and the suite silently proves
/// nothing. Count them across all seeds.
#[test]
fn streams_exercise_real_deadlocks() {
    let mut cycles_broken = 0u32;
    for seed in SEEDS {
        let h = run_stream(seed, NUM_FAMILIES, STEPS);
        // Every txn beyond the initial roots exists because something
        // committed or aborted; sanity-floor the activity level.
        assert!(
            h.tree.len() > NUM_FAMILIES,
            "stream did nothing (seed {seed:#x})"
        );
        cycles_broken += h.deadlocks_broken;
    }
    assert!(
        cycles_broken >= 5,
        "streams broke only {cycles_broken} deadlocks across all seeds — \
         the cycle/victim properties are under-exercised"
    );
}

/// The re-check after a victim must run where it can find something.
/// The sparse streams above never do; on the contended streams some
/// victim's abort leaves a second cycle through the enqueued family,
/// and the gated re-check must return it exactly as the reference
/// search does.
#[test]
fn contended_streams_recheck_finds_second_cycles() {
    let mut second_cycles = 0u32;
    for seed in SEEDS {
        let mut h = run_stream(seed, CONTENDED_FAMILIES, CONTENDED_STEPS);
        second_cycles += h.second_cycles;
        h.drain(seed);
    }
    assert!(
        second_cycles >= 1,
        "no re-check after a victim found a cycle — the re-check path is \
         under-exercised"
    );
}
