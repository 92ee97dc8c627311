//! Bounded exhaustive exploration of the deadlock detector.
//!
//! Where `prop_deadlock` samples long random op streams, this suite
//! enumerates *every* lock-table op sequence up to [`MAX_OPS`] operations
//! over a small configuration: [`FAMILIES`] families, [`OBJECTS`]
//! objects, transaction trees at most [`MAX_DEPTH`] levels below the
//! root. The operations are the ones the engine performs:
//!
//! * acquire a read or write lock with the family's innermost
//!   transaction (a queued request blocks the family);
//! * begin a child of the innermost transaction;
//! * pre-commit the innermost child;
//! * commit the root once every child has pre-committed;
//! * abort the whole family (deadlock victim or crash eviction);
//! * cancel a blocked family's queued request, as a lock timeout does.
//!
//! A committed or aborted family starts over with a fresh root, so the
//! age order of the families (which picks the victim) rotates as well.
//! States are deduplicated by a canonical key: per object its holders,
//! retainers and queue order, each transaction named by its family's
//! slot and its depth, plus each family's age rank, depth and blocked
//! flag. The table runs *without* graph validation, so the production
//! refresh paths are the ones checked.
//!
//! After every operation the suite checks the lock table's invariants,
//! that the incremental waits-for graph equals [`reference::waits_for`],
//! and — outside the victim loop — that the graph is acyclic, the
//! precondition of the engine's detector. After every enqueue it runs
//! the engine's discipline (gate, then victims until the search through
//! the enqueued family finds nothing) and checks:
//!
//! * gate soundness: a "skip" from [`deadlock::may_deadlock_through`]
//!   means [`reference::find_deadlock_cycle`] finds no cycle;
//! * on every pass of the victim loop,
//!   [`deadlock::find_deadlock_cycle_through`] returns the reference
//!   search's cycle, rotation included;
//! * that cycle contains the enqueued family;
//! * the victim is its largest id.
//!
//! The distinct-state and broken-cycle counts are pinned, so a change
//! that narrows the explored space (or the detector's verdicts) shows.

use std::collections::HashSet;

use lotec_mem::ObjectId;
use lotec_sim::NodeId;
use lotec_txn::deadlock::{self, reference};
use lotec_txn::{Acquire, Grant, LockMode, LockTable, TxnId, TxnTree};

const FAMILIES: usize = 3;
const OBJECTS: u32 = 2;
/// Deepest transaction below a root: children and grandchildren.
const MAX_DEPTH: usize = 2;
/// Longest op sequence explored from the empty table. Six ops reach
/// 89,955 states and take about 17 s in a debug build on a 2-vCPU VM;
/// five stay under 4 s there.
const MAX_OPS: usize = 5;

/// Distinct canonical states reachable within [`MAX_OPS`] operations.
const PINNED_STATES: usize = 25_556;
/// Victims aborted across every explored transition.
const PINNED_CYCLES: u64 = 2_228;

/// One family slot: its current root, the active invocation path (ops
/// act on the innermost), and whether that transaction is blocked on a
/// queued request.
#[derive(Clone)]
struct Family {
    root: TxnId,
    stack: Vec<TxnId>,
    waiting: bool,
}

#[derive(Clone)]
struct State {
    tree: TxnTree,
    table: LockTable,
    families: Vec<Family>,
}

#[derive(Clone, Copy, Debug)]
enum Op {
    Acquire(u32, LockMode),
    BeginChild,
    PreCommit,
    CommitRoot,
    AbortFamily,
    CancelWait,
}

const OPS: [Op; 9] = [
    Op::Acquire(0, LockMode::Read),
    Op::Acquire(0, LockMode::Write),
    Op::Acquire(1, LockMode::Read),
    Op::Acquire(1, LockMode::Write),
    Op::BeginChild,
    Op::PreCommit,
    Op::CommitRoot,
    Op::AbortFamily,
    Op::CancelWait,
];

/// What the exploration saw, summed over every explored transition.
#[derive(Default)]
struct Tally {
    enqueues: u64,
    cycles: u64,
    second_cycles: u64,
    retained_cycles: u64,
}

impl State {
    fn new() -> Self {
        let mut table = LockTable::new();
        for i in 0..OBJECTS {
            table.register_object(ObjectId::new(i), 1, NodeId::new(0));
        }
        let mut tree = TxnTree::new();
        let families = (0..FAMILIES)
            .map(|slot| {
                let root = tree.begin_root(NodeId::new(slot as u32 + 1));
                Family {
                    root,
                    stack: vec![root],
                    waiting: false,
                }
            })
            .collect();
        State {
            tree,
            table,
            families,
        }
    }

    fn slot_of(&self, txn: TxnId) -> usize {
        let root = self.tree.root_of(txn);
        self.families
            .iter()
            .position(|f| f.root == root)
            .expect("every live transaction belongs to a slot")
    }

    /// A family's age rank: how many live families are older.
    fn rank_of(&self, txn: TxnId) -> u8 {
        let root = self.tree.root_of(txn);
        self.families.iter().filter(|f| f.root < root).count() as u8
    }

    /// The canonical key: what the table holds, with transactions named
    /// by (family age rank, depth) — a family's active transactions form
    /// one path, so that pair names at most one of them. Slots play no
    /// part in any decision (only the families' age order picks victims
    /// and orders the search), so naming families by rank merges states
    /// that differ only by which slot holds which family.
    fn key(&self) -> Vec<u8> {
        let name = |txn: TxnId| [self.rank_of(txn), self.tree.depth(txn) as u8];
        let mode = |m: LockMode| u8::from(m.is_write());
        let mut by_age: Vec<&Family> = self.families.iter().collect();
        by_age.sort_by_key(|f| f.root);
        let mut key = Vec::new();
        for f in by_age {
            key.extend([f.stack.len() as u8, u8::from(f.waiting)]);
        }
        for entry in self.table.entries() {
            key.push(b'h');
            for h in entry.holders() {
                key.extend(name(h.txn));
                key.push(mode(h.mode));
            }
            key.push(b'r');
            for (r, m) in entry.retainers() {
                key.extend(name(r));
                key.push(mode(m));
            }
            key.push(b'q');
            for fw in entry.waiting() {
                key.push(self.rank_of(fw.family));
                for req in &fw.requests {
                    key.extend(name(req.txn));
                    key.push(mode(req.mode));
                }
                key.push(b'/');
            }
        }
        key
    }

    /// Invariants, graph == rebuild and, between enqueues, acyclicity.
    fn check(&self, acyclic: bool) {
        if let Err(msg) = self.table.check_invariants(&self.tree) {
            panic!("lock-table invariant violated: {msg}");
        }
        assert_eq!(
            self.table.waits_for().to_reference(),
            reference::waits_for(&self.table, &self.tree),
            "incremental waits-for graph diverged from from-scratch rebuild"
        );
        if acyclic {
            assert_eq!(
                reference::find_deadlock_cycle(&self.table, &self.tree),
                None,
                "a cycle survived outside the victim loop"
            );
        }
    }

    fn apply_grants(&mut self, grants: &[Grant]) {
        for grant in grants {
            for req in &grant.requests {
                let slot = self.slot_of(req.txn);
                self.families[slot].waiting = false;
            }
        }
    }

    /// Replaces slot `slot`'s finished family with a fresh root.
    fn restart(&mut self, slot: usize) {
        let root = self.tree.begin_root(NodeId::new(slot as u32 + 1));
        self.families[slot] = Family {
            root,
            stack: vec![root],
            waiting: false,
        };
    }

    /// Evicts `slot`'s whole family the way the engine does: post-order
    /// abort-release of every active member, waiter cancellation, a
    /// regrant pass, then a fresh root. Cycles may still stand while a
    /// victim is torn down, so acyclicity is not checked here.
    fn abort_family(&mut self, slot: usize) {
        let root = self.families[slot].root;
        for txn in self.tree.active_subtree_post_order(root) {
            let mut release = lotec_txn::AbortRelease::default();
            self.table.release_abort(txn, &self.tree, &mut release);
            self.tree.abort(txn);
            self.apply_grants(&release.grants);
            self.check(false);
        }
        self.cancel_wait(slot);
        self.restart(slot);
    }

    /// Drops `slot`'s queued request and regrants what it vacated.
    fn cancel_wait(&mut self, slot: usize) {
        let root = self.families[slot].root;
        let vacated = self.table.cancel_family_waiters(root, &self.tree);
        self.check(false);
        let grants = self.table.regrant(&vacated, &self.tree);
        self.apply_grants(&grants);
        self.families[slot].waiting = false;
        self.check(false);
    }

    /// Applies `op` to `slot`; `false` when the op is not enabled there.
    fn apply(&mut self, slot: usize, op: Op, tally: &mut Tally) -> bool {
        let f = &self.families[slot];
        let (root, top, depth, waiting) = (
            f.root,
            *f.stack.last().expect("stack non-empty"),
            f.stack.len() - 1,
            f.waiting,
        );
        match op {
            // A blocked family runs nothing until granted, timed out or
            // evicted.
            Op::CancelWait if waiting => self.cancel_wait(slot),
            Op::AbortFamily => self.abort_family(slot),
            _ if waiting => return false,
            Op::Acquire(object, mode) => {
                match self
                    .table
                    .acquire(ObjectId::new(object), top, mode, &self.tree)
                {
                    Ok(Acquire::Queued) => {
                        self.families[slot].waiting = true;
                        self.check(false);
                        self.break_deadlocks(root, tally);
                    }
                    Ok(_) => {}
                    // Re-requests and ancestor-held locks are refused
                    // without touching the table: no transition.
                    Err(_) => return false,
                }
            }
            Op::BeginChild if depth < MAX_DEPTH => {
                let child = self.tree.begin_child(top);
                self.families[slot].stack.push(child);
            }
            Op::PreCommit if depth > 0 => {
                self.table.release_pre_commit(
                    top,
                    &self.tree,
                    &mut lotec_txn::PreCommitRelease::default(),
                );
                self.tree.pre_commit(top);
                self.families[slot].stack.pop();
            }
            Op::CommitRoot if depth == 0 => {
                let mut release = lotec_txn::CommitRelease::default();
                self.table
                    .release_root_commit(root, &self.tree, &[], NodeId::new(0), &mut release);
                self.tree.commit_root(root);
                self.apply_grants(&release.grants);
                self.restart(slot);
            }
            Op::BeginChild | Op::PreCommit | Op::CommitRoot | Op::CancelWait => return false,
        }
        self.check(true);
        true
    }

    /// The engine's post-enqueue discipline, checked on every pass.
    fn break_deadlocks(&mut self, enqueued: TxnId, tally: &mut Tally) {
        tally.enqueues += 1;
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
            let victim = deadlock::pick_victim(&cycle);
            assert_eq!(
                victim,
                *cycle.iter().max().expect("cycle is non-empty"),
                "victim must be the youngest cycle member"
            );
            tally.cycles += 1;
            tally.second_cycles += u64::from(pass > 0);
            tally.retained_cycles += u64::from(self.through_retention(&cycle));
            let slot = self.slot_of(victim);
            self.abort_family(slot);
        }
    }

    /// True when some edge of `cycle` is induced by a retained lock: the
    /// waiter queues on an object its blocker's family retains in a
    /// conflicting mode.
    fn through_retention(&self, cycle: &[TxnId]) -> bool {
        (0..cycle.len()).any(|i| {
            let (waiter, blocker) = (cycle[i], cycle[(i + 1) % cycle.len()]);
            self.table.entries().any(|entry| {
                entry
                    .waiting()
                    .filter(|fw| fw.family == waiter)
                    .flat_map(|fw| fw.requests.iter())
                    .any(|req| {
                        entry.retainers().any(|(r, m)| {
                            self.tree.root_of(r) == blocker && m.conflicts_with(req.mode)
                        })
                    })
            })
        })
    }
}

#[test]
fn every_bounded_op_sequence_keeps_the_detector_exact() {
    let start = State::new();
    start.check(true);
    let mut seen: HashSet<Vec<u8>> = HashSet::from([start.key()]);
    let mut frontier = vec![start];
    let mut tally = Tally::default();
    for _ in 0..MAX_OPS {
        let mut next = Vec::new();
        for state in &frontier {
            for slot in 0..FAMILIES {
                for op in OPS {
                    let mut succ = state.clone();
                    if succ.apply(slot, op, &mut tally) && seen.insert(succ.key()) {
                        next.push(succ);
                    }
                }
            }
        }
        frontier = next;
    }
    println!(
        "{} states, {} enqueues, {} cycles broken ({} second cycles, {} through a retained lock)",
        seen.len(),
        tally.enqueues,
        tally.cycles,
        tally.second_cycles,
        tally.retained_cycles
    );
    assert!(
        tally.retained_cycles >= 1,
        "no cycle ran through a retained lock"
    );
    assert!(
        tally.second_cycles >= 1,
        "no re-check after a victim found another cycle"
    );
    assert_eq!(seen.len(), PINNED_STATES, "distinct states explored");
    assert_eq!(tally.cycles, PINNED_CYCLES, "deadlock cycles broken");
}
