//! Incrementally maintained family-level waits-for graph.
//!
//! PR 6's host profiler showed the from-scratch waits-for rebuild in
//! [`crate::deadlock`] at ~86% of full-fig3 wall time: every enqueue
//! re-scanned every GDO entry. This module keeps the graph *materialized*
//! inside the lock table instead. Each lock-table mutation (enqueue,
//! grant, release, pre-commit retention, timeout requeue, abort, crash
//! eviction) refreshes only the mutated object's *edge contribution* —
//! the set of `(waiter, blocker)` pairs that object induces — and diffs
//! it against the cached contribution, adjusting edge reference counts.
//! The cost of a mutation is O(edges on that object), not O(all
//! entries).
//!
//! Edges are reference-counted because the same family pair can be in
//! conflict on several objects at once; an edge disappears only when its
//! last contributing object stops inducing it. A reverse adjacency index
//! is kept in lockstep so "does anyone wait on family F?" — the
//! enqueue-time deadlock gate — is a single map lookup.
//!
//! The per-object contribution is exactly what the from-scratch builder
//! would have derived from that entry (conflicting foreign holders,
//! conflicting foreign retainers, FIFO queue-order edges), so the union
//! over all objects is identical to the rebuilt graph — an equivalence
//! the differential oracle and property suites assert after every
//! mutation.

use std::collections::{BTreeMap, BTreeSet};

use crate::gdo::GdoEntry;
use crate::tree::{TxnId, TxnTree};

/// The family-level waits-for graph, maintained incrementally by
/// [`crate::table::LockTable`]. Edges run waiter → blocker.
#[derive(Debug, Clone, Default)]
pub struct WaitsFor {
    /// Forward adjacency: waiter → blocker → number of objects currently
    /// inducing that edge.
    out: BTreeMap<TxnId, BTreeMap<TxnId, u32>>,
    /// Reverse adjacency: blocker → waiter → same reference count. It
    /// serves only the O(1) deadlock gate ([`WaitsFor::has_in_edges`]).
    rev: BTreeMap<TxnId, BTreeMap<TxnId, u32>>,
    /// Per-entry edge contribution as of the last refresh, sorted and
    /// deduplicated, indexed by the entry's position in the lock table's
    /// arena (so it grows with registered objects, not object ids).
    contrib: Vec<Vec<(TxnId, TxnId)>>,
    /// Recycled buffer for the next contribution, to keep refreshes
    /// allocation-free at steady state.
    scratch: Vec<(TxnId, TxnId)>,
}

impl WaitsFor {
    /// Makes sure the contribution cache covers entry position `slot`.
    pub(crate) fn ensure_slot(&mut self, slot: usize) {
        if slot >= self.contrib.len() {
            self.contrib.resize_with(slot + 1, Vec::new);
        }
    }

    /// Recomputes the edge contribution of `entry`, at position `slot` in
    /// the lock table's arena, from its current state and folds the
    /// difference into the graph.
    ///
    /// This is the single maintenance primitive: the lock table calls it
    /// after every mutation of an entry's holders, retainers, or waiter
    /// queue.
    pub(crate) fn refresh(&mut self, slot: usize, entry: &GdoEntry, tree: &TxnTree) {
        self.ensure_slot(slot);
        // Fast path for the overwhelmingly common case: the object has no
        // waiters now and contributed nothing before. Every edge is
        // induced by some waiter, so both contributions are empty.
        if self.contrib[slot].is_empty() && entry.num_waiting() == 0 {
            return;
        }
        let mut fresh = std::mem::take(&mut self.scratch);
        fresh.clear();
        entry_edges(entry, tree, &mut fresh);
        let old = std::mem::take(&mut self.contrib[slot]);
        // Merge-diff the two sorted, deduplicated pair lists.
        let (mut i, mut j) = (0, 0);
        while i < old.len() || j < fresh.len() {
            match (old.get(i), fresh.get(j)) {
                (Some(&o), Some(&f)) if o == f => {
                    i += 1;
                    j += 1;
                }
                (Some(&o), Some(&f)) if o < f => {
                    self.remove_edge(o.0, o.1);
                    i += 1;
                }
                (Some(_), Some(&f)) => {
                    self.add_edge(f.0, f.1);
                    j += 1;
                }
                (Some(&o), None) => {
                    self.remove_edge(o.0, o.1);
                    i += 1;
                }
                (None, Some(&f)) => {
                    self.add_edge(f.0, f.1);
                    j += 1;
                }
                (None, None) => unreachable!("loop condition"),
            }
        }
        self.contrib[slot] = fresh;
        self.scratch = old;
    }

    fn add_edge(&mut self, waiter: TxnId, blocker: TxnId) {
        *self
            .out
            .entry(waiter)
            .or_default()
            .entry(blocker)
            .or_insert(0) += 1;
        *self
            .rev
            .entry(blocker)
            .or_default()
            .entry(waiter)
            .or_insert(0) += 1;
    }

    fn remove_edge(&mut self, waiter: TxnId, blocker: TxnId) {
        let mut drop_waiter = false;
        let forward = self.out.get_mut(&waiter).expect("edge to remove exists");
        {
            let count = forward.get_mut(&blocker).expect("edge to remove exists");
            *count -= 1;
            if *count == 0 {
                forward.remove(&blocker);
                drop_waiter = forward.is_empty();
            }
        }
        if drop_waiter {
            self.out.remove(&waiter);
        }
        let mut drop_blocker = false;
        let backward = self.rev.get_mut(&blocker).expect("reverse edge exists");
        {
            let count = backward.get_mut(&waiter).expect("reverse edge exists");
            *count -= 1;
            if *count == 0 {
                backward.remove(&waiter);
                drop_blocker = backward.is_empty();
            }
        }
        if drop_blocker {
            self.rev.remove(&blocker);
        }
    }

    /// True when some family waits (directly) on `family` — the O(1)
    /// enqueue-time deadlock gate.
    #[must_use]
    pub fn has_in_edges(&self, family: TxnId) -> bool {
        self.rev.contains_key(&family)
    }

    /// Families with at least one outgoing wait edge, in ascending id
    /// order (the deterministic DFS start order).
    pub fn blocked_families(&self) -> impl Iterator<Item = TxnId> + '_ {
        self.out.keys().copied()
    }

    /// True when `family` has at least one outgoing wait edge.
    #[must_use]
    pub fn is_blocked(&self, family: TxnId) -> bool {
        self.out.contains_key(&family)
    }

    /// The families `family` currently waits on, ascending.
    pub fn blockers_of(&self, family: TxnId) -> impl Iterator<Item = TxnId> + '_ {
        self.out
            .get(&family)
            .into_iter()
            .flat_map(|m| m.keys().copied())
    }

    /// True when some cycle passes through `family`, i.e. `family`
    /// reaches itself along wait edges: a forward DFS over out-edges
    /// that early-exits on the first edge back to `family`.
    ///
    /// This is the cheap *existence* half of gated detection. The
    /// forward closure it walks is typically far smaller than the set of
    /// blocked families — waiters fan *in* towards a blocker (one family
    /// blocks many, but is itself blocked by few) — so callers can rule
    /// out a deadlock without paying for the exact, rotation-preserving
    /// cycle search over every blocked family.
    #[must_use]
    pub fn on_cycle(&self, family: TxnId) -> bool {
        let mut seen = BTreeSet::new();
        let mut frontier = vec![family];
        while let Some(node) = frontier.pop() {
            if let Some(succs) = self.out.get(&node) {
                for &succ in succs.keys() {
                    if succ == family {
                        return true;
                    }
                    if seen.insert(succ) {
                        frontier.push(succ);
                    }
                }
            }
        }
        false
    }

    /// Number of distinct edges currently in the graph.
    #[must_use]
    pub fn edge_count(&self) -> usize {
        self.out.values().map(BTreeMap::len).sum()
    }

    /// True when the graph has no edges at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.out.is_empty()
    }

    /// The graph in the from-scratch builder's shape, for oracle
    /// comparison against [`crate::deadlock::reference::waits_for`].
    #[must_use]
    pub fn to_reference(&self) -> BTreeMap<TxnId, BTreeSet<TxnId>> {
        self.out
            .iter()
            .map(|(&waiter, blockers)| (waiter, blockers.keys().copied().collect()))
            .collect()
    }
}

/// The edge contribution of one GDO entry: for each waiting family, the
/// conflicting foreign holders, the conflicting foreign retainers, and
/// the FIFO edges to every family queued earlier. This mirrors the
/// from-scratch builder's per-entry logic exactly — the incremental
/// graph is the refcounted union of these per-object sets.
fn entry_edges(entry: &GdoEntry, tree: &TxnTree, out: &mut Vec<(TxnId, TxnId)>) {
    for fw in entry.waiting() {
        let waiter = fw.family;
        for req in &fw.requests {
            for h in entry.holders() {
                let holder_family = tree.root_of(h.txn);
                if holder_family != waiter && h.mode.conflicts_with(req.mode) {
                    out.push((waiter, holder_family));
                }
            }
            for (r, m) in entry.retainers() {
                let retainer_family = tree.root_of(r);
                if retainer_family != waiter && m.conflicts_with(req.mode) {
                    out.push((waiter, retainer_family));
                }
            }
        }
        for earlier in entry.waiting() {
            if earlier.family == waiter {
                break;
            }
            out.push((waiter, earlier.family));
        }
    }
    out.sort_unstable();
    out.dedup();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lock::LockMode;
    use crate::table::LockTable;
    use lotec_mem::ObjectId;
    use lotec_sim::NodeId;

    fn obj(i: u32) -> ObjectId {
        ObjectId::new(i)
    }

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    #[test]
    fn edges_are_refcounted_across_objects() {
        // b waits on a for two different objects: one edge, refcount 2.
        let mut tree = TxnTree::new();
        let mut table = LockTable::new();
        table.register_object(obj(0), 1, n(0));
        table.register_object(obj(1), 1, n(0));
        let a = tree.begin_root(n(1));
        let ac = tree.begin_child(a);
        table.acquire(obj(0), ac, LockMode::Write, &tree).unwrap();
        tree.pre_commit(ac);
        table.release_pre_commit(ac, &tree, &mut crate::PreCommitRelease::default());
        table.acquire(obj(1), a, LockMode::Write, &tree).unwrap();
        let b = tree.begin_root(n(2));
        table.acquire(obj(0), b, LockMode::Write, &tree).unwrap();
        tree.abort(b);
        let touched = table.cancel_family_waiters(b, &tree);
        assert_eq!(touched, vec![obj(0)]);
        table.regrant(&touched, &tree);
        let c = tree.begin_root(n(3));
        table.acquire(obj(0), c, LockMode::Write, &tree).unwrap();
        table.acquire(obj(1), c, LockMode::Write, &tree).unwrap();
        // c waits on a's family via both the retained O0 and the held O1.
        let g = table.waits_for();
        assert_eq!(g.edge_count(), 1);
        assert!(g.has_in_edges(a));
        assert_eq!(g.blockers_of(c).collect::<Vec<_>>(), vec![a]);
        // Releasing one contribution keeps the edge alive.
        tree.commit_root(a);
        table.release_root_commit(a, &tree, &[], n(1), &mut crate::CommitRelease::default());
        // Root commit drops both contributions and grants c; graph empty.
        assert!(table.waits_for().is_empty());
    }

    #[test]
    fn on_cycle_detects_existence_without_the_exact_search() {
        // a holds O0 and queues on O1; b holds O1 and queues on O0:
        // the classic two-object cycle. c queues behind b on O0 and is
        // chained to the cycle without being on it.
        let mut tree = TxnTree::new();
        let mut table = LockTable::new();
        table.register_object(obj(0), 1, n(0));
        table.register_object(obj(1), 1, n(0));
        let a = tree.begin_root(n(1));
        let b = tree.begin_root(n(2));
        let c = tree.begin_root(n(3));
        table.acquire(obj(0), a, LockMode::Write, &tree).unwrap();
        table.acquire(obj(1), b, LockMode::Write, &tree).unwrap();
        table.acquire(obj(1), a, LockMode::Write, &tree).unwrap(); // a -> b
        assert!(!table.waits_for().on_cycle(a), "chain is not a cycle yet");
        table.acquire(obj(0), b, LockMode::Write, &tree).unwrap(); // b -> a
        table.acquire(obj(0), c, LockMode::Write, &tree).unwrap(); // c -> {a, b}
        let g = table.waits_for();
        assert!(g.on_cycle(a));
        assert!(g.on_cycle(b));
        assert!(!g.on_cycle(c), "c waits into the cycle but is not on it");
        // The in-edge gate: a and b each have a waiter, c has none.
        assert!(g.has_in_edges(a));
        assert!(g.has_in_edges(b));
        assert!(!g.has_in_edges(c));
    }
}
