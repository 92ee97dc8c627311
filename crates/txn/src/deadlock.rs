//! Cross-family deadlock detection.
//!
//! Nested O2PL inherits classic 2PL's vulnerability to cross-family
//! deadlock (family A holds `O1` and waits for `O2`; family B holds `O2`
//! and waits for `O1`). The paper does not discuss this — its simulation
//! presumably side-stepped it — but a randomized workload generator will
//! produce such cycles, so the reproduction needs detection for liveness.
//!
//! Detection searches the family-level waits-for graph (a family blocks
//! as a unit because it executes sequentially at one site) for a cycle;
//! the victim is the *youngest* family in the cycle (largest root id),
//! which — ids being allocated monotonically — is the family that has
//! done the least work.
//!
//! The graph itself is maintained **incrementally** by the lock table
//! (see [`crate::waits_for::WaitsFor`]): every entry mutation refreshes
//! only that object's edge contribution, so the functions here read a
//! materialized graph instead of rebuilding it from an O(entries) scan.
//! [`may_deadlock_through`] is a single reverse-index lookup, and
//! [`find_deadlock_cycle_through`] runs the full search only after a
//! forward walk from the newly enqueued family has proven that a cycle
//! exists. The original from-scratch implementation survives in
//! [`reference`](mod@reference) as the oracle the differential and
//! property suites (and [`crate::table::LockTable`]'s validation mode)
//! replay against.

use std::collections::{BTreeMap, BTreeSet};

use crate::table::LockTable;
use crate::tree::{TxnId, TxnTree};

/// The from-scratch detector the incremental implementation is checked
/// against: every function rebuilds the waits-for graph by scanning the
/// whole lock table. Semantics are the specification; performance is
/// irrelevant here.
pub mod reference {
    use super::*;

    /// Builds the waits-for graph: for each waiting family, the set of
    /// families it waits on — conflicting holders and retainers of other
    /// families, plus every family queued *earlier* on the same object
    /// (FIFO edges: a waiter cannot be granted before the families ahead
    /// of it in line, so queue order is a real wait dependency).
    pub fn waits_for(table: &LockTable, tree: &TxnTree) -> BTreeMap<TxnId, BTreeSet<TxnId>> {
        let mut graph: BTreeMap<TxnId, BTreeSet<TxnId>> = BTreeMap::new();
        for entry in table.entries() {
            for fw in entry.waiting() {
                let waiter = fw.family;
                let mut blockers = BTreeSet::new();
                for req in &fw.requests {
                    for h in entry.holders() {
                        let holder_family = tree.root_of(h.txn);
                        if holder_family != waiter && h.mode.conflicts_with(req.mode) {
                            blockers.insert(holder_family);
                        }
                    }
                    for (r, m) in entry.retainers() {
                        let retainer_family = tree.root_of(r);
                        if retainer_family != waiter && m.conflicts_with(req.mode) {
                            blockers.insert(retainer_family);
                        }
                    }
                }
                // A waiter can also be blocked purely by FIFO ordering
                // behind an earlier-queued family; model that edge too,
                // else a cycle hidden behind queue order goes undetected.
                for earlier in entry.waiting() {
                    if earlier.family == waiter {
                        break;
                    }
                    blockers.insert(earlier.family);
                }
                if !blockers.is_empty() {
                    graph.entry(waiter).or_default().extend(blockers);
                }
            }
        }
        graph
    }

    /// From-scratch equivalent of [`super::may_deadlock_through`]: does
    /// the rebuilt graph contain an in-edge to `family`?
    pub fn may_deadlock_through(table: &LockTable, tree: &TxnTree, family: TxnId) -> bool {
        waits_for(table, tree)
            .values()
            .any(|blockers| blockers.contains(&family))
    }

    /// From-scratch equivalent of [`super::find_deadlock_cycle`]:
    /// rebuilds the graph, then runs the identical deterministic DFS.
    pub fn find_deadlock_cycle(table: &LockTable, tree: &TxnTree) -> Option<Vec<TxnId>> {
        let graph = waits_for(table, tree);
        super::cycle_search(
            graph.keys().copied(),
            |node| {
                graph
                    .get(&node)
                    .map(|s| s.iter().copied().collect())
                    .unwrap_or_default()
            },
            |node| graph.contains_key(&node),
        )
    }
}

/// Deterministic cycle search shared by the incremental and reference
/// detectors: an iterative DFS that visits `starts` in the given order
/// (callers pass ascending family ids), expands each node's successors
/// in ascending order, and returns the first cycle found as the slice of
/// the current path from the back-edge target onward. Identical inputs
/// produce an identical cycle vector — including rotation — which is
/// what pins the probe layer's `Deadlock` event bytes.
fn cycle_search(
    starts: impl Iterator<Item = TxnId>,
    successors: impl Fn(TxnId) -> Vec<TxnId>,
    expandable: impl Fn(TxnId) -> bool,
) -> Option<Vec<TxnId>> {
    let mut visited: BTreeSet<TxnId> = BTreeSet::new();
    for start in starts {
        if visited.contains(&start) {
            continue;
        }
        // Iterative DFS tracking the current path. Each frame carries the
        // node's successor list, fetched once at push time — the graph
        // does not change mid-search, and re-fetching on every edge step
        // made dense (FIFO-heavy) entries quadratic in queue length.
        let mut path: Vec<TxnId> = Vec::new();
        let mut on_path: BTreeSet<TxnId> = BTreeSet::new();
        let mut stack: Vec<(TxnId, Vec<TxnId>, usize)> = vec![(start, successors(start), 0)];
        while !stack.is_empty() {
            let (node, next) = {
                let (node, succ, edge_idx) = stack.last_mut().expect("stack nonempty");
                let node = *node;
                if *edge_idx == 0 {
                    path.push(node);
                    on_path.insert(node);
                    visited.insert(node);
                }
                if *edge_idx < succ.len() {
                    let n = succ[*edge_idx];
                    *edge_idx += 1;
                    (node, Some(n))
                } else {
                    (node, None)
                }
            };
            match next {
                Some(next) => {
                    if on_path.contains(&next) {
                        // Found a cycle: slice the path from `next` onwards.
                        let pos = path.iter().position(|&t| t == next).expect("on path");
                        return Some(path[pos..].to_vec());
                    }
                    if !visited.contains(&next) && expandable(next) {
                        stack.push((next, successors(next), 0));
                    }
                }
                None => {
                    stack.pop();
                    path.pop();
                    on_path.remove(&node);
                }
            }
        }
    }
    None
}

/// Guard that lets callers skip cycle detection after enqueueing a
/// request for `family`: a single O(1) lookup in the incremental graph's
/// reverse-edge index.
///
/// Precondition: call it right after `family`'s request was enqueued,
/// with the waits-for graph acyclic just before that enqueue. The engine
/// keeps the graph so by breaking every cycle as soon as it forms;
/// between enqueues, grants, releases, aborts, lock timeouts and crash
/// evictions only remove wait edges. The enqueue adds only `family`'s
/// out-edges, so any new cycle passes through `family`, which requires
/// an *in-edge*: some other family waiting on `family`. FIFO in-edges to
/// `family` are impossible at enqueue time — its request sits at the
/// queue tail and a family has one outstanding request — so the in-edge,
/// if any, comes from a conflicting wait on an object `family` holds or
/// retains.
///
/// Returns `false` only when no in-edge exists, i.e. no cycle through
/// `family` is possible and detection may be skipped. A `true` return
/// decides nothing: the caller must run [`find_deadlock_cycle_through`],
/// which proves or rules out the cycle.
pub fn may_deadlock_through(table: &LockTable, tree: &TxnTree, family: TxnId) -> bool {
    let verdict = table.waits_for().has_in_edges(family);
    if table.graph_validation() {
        let want = reference::may_deadlock_through(table, tree, family);
        assert_eq!(
            verdict, want,
            "incremental deadlock gate for {family} disagrees with from-scratch rebuild"
        );
    }
    verdict
}

/// Finds one deadlock cycle among waiting families, if any exists.
///
/// Returns the families on the cycle, in cycle order. Detection is a DFS
/// over the incrementally maintained waits-for graph; deterministic
/// because nodes and successors iterate in id order — the same order the
/// from-scratch rebuild used, so the found cycle (and its rotation) is
/// byte-identical to [`reference::find_deadlock_cycle`]'s.
pub fn find_deadlock_cycle(table: &LockTable, tree: &TxnTree) -> Option<Vec<TxnId>> {
    let graph = table.waits_for();
    let cycle = cycle_search(
        graph.blocked_families(),
        |node| graph.blockers_of(node).collect(),
        |node| graph.is_blocked(node),
    );
    if table.graph_validation() {
        let want = reference::find_deadlock_cycle(table, tree);
        assert_eq!(
            cycle, want,
            "incremental cycle search disagrees with from-scratch rebuild"
        );
    }
    cycle
}

/// [`find_deadlock_cycle`] for the caller that has just enqueued a
/// request for `family`: the full search runs only after a forward
/// existence check ([`crate::waits_for::WaitsFor::on_cycle`]) has proven
/// a cycle through `family` is there to find, so the common
/// no-deadlock call returns after one small walk.
///
/// Precondition: every cycle in the graph passes through `family`. That
/// holds when the graph was acyclic before `family`'s request was
/// enqueued and wait edges have only been removed since — as they are
/// by a deadlock victim's abort and the regrants it triggers, so the
/// call stays exact on every pass of a victim loop, not only the first.
/// The precondition makes the skip exact: when `family` does not reach
/// itself there is no cycle at all. Past the check this *is* the full
/// search, so the returned cycle is byte-identical to the full (and
/// reference) search's, rotation included.
///
/// # Panics
///
/// When the returned cycle misses `family`, i.e. the precondition was
/// broken: always with the lock table's graph validation armed, and in
/// debug builds otherwise.
pub fn find_deadlock_cycle_through(
    table: &LockTable,
    tree: &TxnTree,
    family: TxnId,
) -> Option<Vec<TxnId>> {
    // Existence before exactness: the forward closure `on_cycle` walks
    // is much smaller than the set of blocked families (waiters fan *in*
    // towards a blocker: one family blocks many, but is itself blocked
    // by few), and in the common no-deadlock case it is all we pay.
    if !table.waits_for().on_cycle(family) {
        if table.graph_validation() {
            assert_eq!(
                None,
                reference::find_deadlock_cycle(table, tree),
                "existence pre-check through {family} ruled out a cycle the \
                 from-scratch rebuild finds (was the graph acyclic before the enqueue?)"
            );
        }
        return None;
    }
    let cycle = find_deadlock_cycle(table, tree);
    if table.graph_validation() || cfg!(debug_assertions) {
        assert!(
            cycle.as_ref().is_some_and(|c| c.contains(&family)),
            "deadlock cycle {cycle:?} misses the enqueued family {family} \
             (was the graph acyclic before the enqueue?)"
        );
    }
    cycle
}

/// Chooses the victim of a deadlock cycle: the youngest family (largest
/// root transaction id — least work lost on restart).
///
/// # Panics
///
/// Panics if `cycle` is empty.
pub fn pick_victim(cycle: &[TxnId]) -> TxnId {
    *cycle.iter().max().expect("empty deadlock cycle")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lock::LockMode;
    use crate::table::{Acquire, LockTable};
    use lotec_mem::ObjectId;
    use lotec_sim::NodeId;

    fn obj(i: u32) -> ObjectId {
        ObjectId::new(i)
    }

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    /// Every unit table here runs with validation on, so each detector
    /// call double-checks the incremental graph against the reference.
    fn table_with_validation(num_objects: u32) -> LockTable {
        let mut table = LockTable::new();
        table.enable_graph_validation();
        for i in 0..num_objects {
            table.register_object(obj(i), 1, n(0));
        }
        table
    }

    #[test]
    fn no_deadlock_on_simple_contention() {
        let mut tree = TxnTree::new();
        let mut table = table_with_validation(1);
        let a = tree.begin_root(n(1));
        let b = tree.begin_root(n(2));
        table.acquire(obj(0), a, LockMode::Write, &tree).unwrap();
        table.acquire(obj(0), b, LockMode::Write, &tree).unwrap();
        assert_eq!(find_deadlock_cycle(&table, &tree), None);
        assert_eq!(find_deadlock_cycle_through(&table, &tree, b), None);
    }

    #[test]
    fn classic_two_family_cycle_detected() {
        let mut tree = TxnTree::new();
        let mut table = table_with_validation(2);
        let a = tree.begin_root(n(1));
        let b = tree.begin_root(n(2));
        table.acquire(obj(0), a, LockMode::Write, &tree).unwrap();
        table.acquire(obj(1), b, LockMode::Write, &tree).unwrap();
        table.acquire(obj(1), a, LockMode::Write, &tree).unwrap(); // a waits on b
        table.acquire(obj(0), b, LockMode::Write, &tree).unwrap(); // b waits on a
        let cycle = find_deadlock_cycle(&table, &tree).expect("deadlock exists");
        let mut sorted = cycle.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![a, b]);
        assert_eq!(pick_victim(&cycle), b, "youngest family is the victim");
        // The gated search through the enqueued family finds the very
        // same cycle vector.
        assert_eq!(find_deadlock_cycle_through(&table, &tree, b), Some(cycle));
    }

    #[test]
    fn three_family_cycle_detected() {
        let mut tree = TxnTree::new();
        let mut table = table_with_validation(3);
        let fams: Vec<TxnId> = (0..3).map(|i| tree.begin_root(n(i))).collect();
        for (i, &f) in fams.iter().enumerate() {
            table
                .acquire(obj(i as u32), f, LockMode::Write, &tree)
                .unwrap();
        }
        for (i, &f) in fams.iter().enumerate() {
            // Each waits on the next object, forming a 3-cycle.
            table
                .acquire(obj(((i + 1) % 3) as u32), f, LockMode::Write, &tree)
                .unwrap();
        }
        let cycle = find_deadlock_cycle(&table, &tree).expect("3-cycle exists");
        assert_eq!(cycle.len(), 3);
        assert_eq!(pick_victim(&cycle), fams[2]);
        assert_eq!(
            find_deadlock_cycle_through(&table, &tree, fams[2]),
            Some(cycle)
        );
    }

    #[test]
    fn waiting_chain_without_cycle_is_clean() {
        // A genuine wait chain c -> b -> a: a holds O0 with b queued
        // behind it, b holds O1 with c queued behind it. No cycle — and
        // no search through any of the three may claim one.
        let mut tree = TxnTree::new();
        let mut table = table_with_validation(2);
        let a = tree.begin_root(n(1));
        let b = tree.begin_root(n(2));
        let c = tree.begin_root(n(3));
        table.acquire(obj(0), a, LockMode::Write, &tree).unwrap(); // a holds O0
        table.acquire(obj(1), b, LockMode::Write, &tree).unwrap(); // b holds O1
        assert_eq!(
            table.acquire(obj(0), b, LockMode::Write, &tree).unwrap(),
            Acquire::Queued,
            "b -> a"
        );
        assert_eq!(
            table.acquire(obj(1), c, LockMode::Write, &tree).unwrap(),
            Acquire::Queued,
            "c -> b"
        );
        assert_eq!(
            table.waits_for().to_reference(),
            [(b, [a].into()), (c, [b].into())].into(),
            "exactly the two chain edges"
        );
        assert_eq!(find_deadlock_cycle(&table, &tree), None);
        for f in [a, b, c] {
            assert_eq!(find_deadlock_cycle_through(&table, &tree, f), None);
        }
        // The chain's in-edges: a and b each have a waiter, c has none.
        assert!(may_deadlock_through(&table, &tree, a));
        assert!(may_deadlock_through(&table, &tree, b));
        assert!(!may_deadlock_through(&table, &tree, c));
    }

    #[test]
    fn deadlock_through_retained_lock_detected() {
        let mut tree = TxnTree::new();
        let mut table = table_with_validation(2);
        // Family a's child writes O0 and pre-commits: a *retains* O0.
        let a = tree.begin_root(n(1));
        let ac = tree.begin_child(a);
        table.acquire(obj(0), ac, LockMode::Write, &tree).unwrap();
        tree.pre_commit(ac);
        table.release_pre_commit(ac, &tree, &mut crate::PreCommitRelease::default());
        // Family b holds O1 and waits on retained O0.
        let b = tree.begin_root(n(2));
        table.acquire(obj(1), b, LockMode::Write, &tree).unwrap();
        table.acquire(obj(0), b, LockMode::Write, &tree).unwrap();
        // Family a (new child) waits on O1 -> cycle through retention.
        let ac2 = tree.begin_child(a);
        table.acquire(obj(1), ac2, LockMode::Write, &tree).unwrap();
        let cycle = find_deadlock_cycle(&table, &tree).expect("cycle via retainer");
        assert_eq!(
            find_deadlock_cycle_through(&table, &tree, a),
            Some(cycle.clone())
        );
        let mut sorted = cycle;
        sorted.sort_unstable();
        assert_eq!(sorted, vec![a, b]);
    }

    #[test]
    fn fifo_order_edges_close_hidden_cycles() {
        // b waits *behind c* in O0's queue while c waits on O1 which b
        // holds: the b->c dependency exists only through queue order, so
        // without FIFO edges this livelock-by-ordering would go undetected.
        let mut tree = TxnTree::new();
        let mut table = table_with_validation(2);
        let a = tree.begin_root(n(1));
        let b = tree.begin_root(n(2));
        let c = tree.begin_root(n(3));
        table.acquire(obj(0), a, LockMode::Write, &tree).unwrap(); // a holds O0
        table.acquire(obj(1), b, LockMode::Write, &tree).unwrap(); // b holds O1
        table.acquire(obj(0), c, LockMode::Write, &tree).unwrap(); // c queued on O0
        table.acquire(obj(0), b, LockMode::Write, &tree).unwrap(); // b queued behind c
                                                                   // No cycle yet: c -> a, b -> {a, c}.
        assert_eq!(find_deadlock_cycle(&table, &tree), None);
        // c additionally waits on O1 (held by b): cycle b <-> c closes,
        // visible only because of the FIFO edge b -> c.
        table.acquire(obj(1), c, LockMode::Write, &tree).unwrap();
        let cycle = find_deadlock_cycle(&table, &tree).expect("cycle through queue order");
        assert_eq!(
            find_deadlock_cycle_through(&table, &tree, c),
            Some(cycle.clone())
        );
        let mut sorted = cycle;
        sorted.sort_unstable();
        assert_eq!(sorted, vec![b, c]);
    }

    #[test]
    fn guard_false_when_enqueued_family_has_no_dependents() {
        // a holds O0, b enqueues behind it. Nobody waits on anything b
        // holds, so b's enqueue cannot have closed a cycle.
        let mut tree = TxnTree::new();
        let mut table = table_with_validation(1);
        let a = tree.begin_root(n(1));
        let b = tree.begin_root(n(2));
        table.acquire(obj(0), a, LockMode::Write, &tree).unwrap();
        table.acquire(obj(0), b, LockMode::Write, &tree).unwrap();
        assert!(!may_deadlock_through(&table, &tree, b));
    }

    #[test]
    fn guard_true_when_enqueued_family_holds_a_contested_object() {
        // Classic two-family cycle: at b's enqueue on O0, family a is
        // already waiting on O1 which b holds — in-edge to b exists.
        let mut tree = TxnTree::new();
        let mut table = table_with_validation(2);
        let a = tree.begin_root(n(1));
        let b = tree.begin_root(n(2));
        table.acquire(obj(0), a, LockMode::Write, &tree).unwrap();
        table.acquire(obj(1), b, LockMode::Write, &tree).unwrap();
        table.acquire(obj(1), a, LockMode::Write, &tree).unwrap(); // a waits on b
        table.acquire(obj(0), b, LockMode::Write, &tree).unwrap(); // b waits on a
        assert!(may_deadlock_through(&table, &tree, b));
        assert!(find_deadlock_cycle(&table, &tree).is_some());
    }

    #[test]
    fn guard_true_when_enqueued_family_retains_a_contested_object() {
        // Same shape as deadlock_through_retained_lock_detected: family a
        // only *retains* O0 (via a pre-committed child) while b waits on
        // it, so when a's new child enqueues on O1 the guard must fire.
        let mut tree = TxnTree::new();
        let mut table = table_with_validation(2);
        let a = tree.begin_root(n(1));
        let ac = tree.begin_child(a);
        table.acquire(obj(0), ac, LockMode::Write, &tree).unwrap();
        tree.pre_commit(ac);
        table.release_pre_commit(ac, &tree, &mut crate::PreCommitRelease::default());
        let b = tree.begin_root(n(2));
        table.acquire(obj(1), b, LockMode::Write, &tree).unwrap();
        table.acquire(obj(0), b, LockMode::Write, &tree).unwrap();
        let ac2 = tree.begin_child(a);
        table.acquire(obj(1), ac2, LockMode::Write, &tree).unwrap();
        assert!(may_deadlock_through(&table, &tree, a));
    }

    #[test]
    fn guard_ignores_compatible_mode_waiters() {
        // A read waiter queued behind a read holder (FIFO'd behind a
        // writer elsewhere in line) induces no edge to the holder — the
        // modes are compatible. The precise in-edge gate knows that; the
        // pre-incremental holds-anything scan would have fired here.
        let mut tree = TxnTree::new();
        let mut table = table_with_validation(1);
        let a = tree.begin_root(n(1));
        let w = tree.begin_root(n(2));
        let r = tree.begin_root(n(3));
        table.acquire(obj(0), a, LockMode::Read, &tree).unwrap();
        assert_eq!(
            table.acquire(obj(0), w, LockMode::Write, &tree).unwrap(),
            Acquire::Queued
        );
        assert_eq!(
            table.acquire(obj(0), r, LockMode::Read, &tree).unwrap(),
            Acquire::Queued,
            "FIFO: the late reader must not barge past the queued writer"
        );
        // w conflicts with holder a; r waits only by queue order on w.
        assert!(may_deadlock_through(&table, &tree, a));
        assert!(may_deadlock_through(&table, &tree, w));
        assert!(!may_deadlock_through(&table, &tree, r));
        assert_eq!(find_deadlock_cycle(&table, &tree), None);
    }

    #[test]
    #[should_panic(expected = "misses the enqueued family")]
    fn search_through_a_family_off_the_found_cycle_panics() {
        // Two disjoint cycles, a <-> b and c <-> d, break the precondition
        // for d: the search finds the lower-id cycle, which misses d.
        let mut tree = TxnTree::new();
        let mut table = table_with_validation(4);
        let fams: Vec<TxnId> = (0..4).map(|i| tree.begin_root(n(i))).collect();
        for (i, &f) in fams.iter().enumerate() {
            table
                .acquire(obj(i as u32), f, LockMode::Write, &tree)
                .unwrap();
        }
        for (i, &f) in fams.iter().enumerate() {
            // Each family waits on its partner's object: 0 <-> 1, 2 <-> 3.
            table
                .acquire(obj((i ^ 1) as u32), f, LockMode::Write, &tree)
                .unwrap();
        }
        assert!(table.waits_for().on_cycle(fams[3]));
        find_deadlock_cycle_through(&table, &tree, fams[3]);
    }

    #[test]
    #[should_panic(expected = "empty deadlock cycle")]
    fn empty_cycle_panics() {
        pick_victim(&[]);
    }
}
