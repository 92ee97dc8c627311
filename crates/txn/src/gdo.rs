//! Per-object GDO entries (lock + consistency state).
//!
//! Each entry mirrors Figure 1 of the paper: a `LockState` flag, a
//! `ReadCount`, the holder list (`HolderPtr` — `<TID, NID>` pairs of the
//! transactions currently holding the lock) and the per-family non-holder
//! waiter lists (`NonHoldersPtr` — a list of lists, one per waiting
//! family). The object's page map lives beside the entry, in the lock
//! table's [`lotec_mem::PageMaps`].
//!
//! Every list keeps its first element inline ([`SmallList`]), so an entry
//! with one holder, one retainer and one waiting family owns no heap
//! memory.

use std::fmt;

use lotec_mem::ObjectId;
use lotec_sim::NodeId;

use crate::lock::LockMode;
use crate::small_list::SmallList;
use crate::tree::TxnId;

/// The status flag of a GDO lock entry (paper Figure 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockState {
    /// No holder, no retainer.
    Free,
    /// Held for reading (possibly by several transactions).
    Read,
    /// Held for update by a single transaction.
    Write,
    /// No holder, but one or more transactions retain the lock.
    Retained,
}

impl fmt::Display for LockState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            LockState::Free => "free",
            LockState::Read => "held-read",
            LockState::Write => "held-write",
            LockState::Retained => "retained",
        };
        f.write_str(s)
    }
}

/// One current holder of the lock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Holder {
    /// Holding transaction.
    pub txn: TxnId,
    /// Its family's execution site.
    pub node: NodeId,
    /// Mode held.
    pub mode: LockMode,
}

/// One queued request in a family's non-holder list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueuedRequest {
    /// Requesting transaction.
    pub txn: TxnId,
    /// Its family's execution site.
    pub node: NodeId,
    /// Requested mode.
    pub mode: LockMode,
}

/// The waiter list of one family (one inner list of `NonHoldersPtr`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FamilyWaiters {
    /// The family's root transaction id.
    pub family: TxnId,
    /// Queued requests from that family, FIFO. A family almost always has
    /// exactly one outstanding request, which the queue stores inline.
    pub requests: SmallList<QueuedRequest>,
}

/// A per-object GDO entry.
#[derive(Debug, Clone)]
pub struct GdoEntry {
    object: ObjectId,
    holders: SmallList<Holder>,
    // retainer -> strongest mode retained, sorted ascending by id so the
    // iteration order matches the previous ordered-map layout. Retainers
    // are always ancestors of (former) holders within the owning
    // family/families, so the list stays short — a linear scan of a
    // sorted list beats a tree both on lookup and on per-pre-commit
    // insertion.
    retainers: SmallList<(TxnId, LockMode)>,
    waiting: SmallList<FamilyWaiters>,
}

impl GdoEntry {
    /// Creates the (free) entry for `object`.
    pub fn new(object: ObjectId) -> Self {
        GdoEntry {
            object,
            holders: SmallList::new(),
            retainers: SmallList::new(),
            waiting: SmallList::new(),
        }
    }

    /// The object this entry describes.
    pub fn object(&self) -> ObjectId {
        self.object
    }

    /// The `LockState` flag, derived from holders/retainers.
    pub fn lock_state(&self) -> LockState {
        if self.holders.iter().any(|h| h.mode.is_write()) {
            LockState::Write
        } else if !self.holders.is_empty() {
            LockState::Read
        } else if !self.retainers.is_empty() {
            LockState::Retained
        } else {
            LockState::Free
        }
    }

    /// The `ReadCount` field: number of current read holders.
    pub fn read_count(&self) -> usize {
        self.holders.iter().filter(|h| !h.mode.is_write()).count()
    }

    /// Current holders (the `HolderPtr` list), in grant order.
    pub fn holders(&self) -> &SmallList<Holder> {
        &self.holders
    }

    /// Current retainers with their strongest retained mode, ascending by
    /// transaction id.
    pub fn retainers(&self) -> impl Iterator<Item = (TxnId, LockMode)> + '_ {
        self.retainers.iter().copied()
    }

    /// True if `txn` currently holds the lock (in any mode).
    pub fn is_held_by(&self, txn: TxnId) -> bool {
        self.holders.iter().any(|h| h.txn == txn)
    }

    /// The mode `txn` holds, if it holds.
    pub fn held_mode(&self, txn: TxnId) -> Option<LockMode> {
        self.holders.iter().find(|h| h.txn == txn).map(|h| h.mode)
    }

    /// True if `txn` retains the lock.
    pub fn is_retained_by(&self, txn: TxnId) -> bool {
        self.retained_mode(txn).is_some()
    }

    /// The mode `txn` retains, if it retains.
    pub fn retained_mode(&self, txn: TxnId) -> Option<LockMode> {
        self.retainers
            .iter()
            .find(|&&(t, _)| t == txn)
            .map(|&(_, mode)| mode)
    }

    /// Where `txn` sits in the ascending retainer list: `Ok` with its
    /// position, or `Err` with the position it would take.
    fn retainer_position(&self, txn: TxnId) -> Result<usize, usize> {
        for (i, &(t, _)) in self.retainers.iter().enumerate() {
            if t >= txn {
                return if t == txn { Ok(i) } else { Err(i) };
            }
        }
        Err(self.retainers.len())
    }

    /// The queued family waiter lists (the `NonHoldersPtr` structure).
    pub fn waiting(&self) -> impl Iterator<Item = &FamilyWaiters> {
        self.waiting.iter()
    }

    /// Total queued requests across families.
    pub fn num_waiting(&self) -> usize {
        self.waiting.iter().map(|f| f.requests.len()).sum()
    }

    // ---- mutation primitives used by the lock table ----

    pub(crate) fn add_holder(&mut self, holder: Holder) {
        debug_assert!(
            !self.is_held_by(holder.txn),
            "{} already holds {}",
            holder.txn,
            self.object
        );
        self.holders.push_back(holder);
    }

    /// Removes `txn` from the holder list, returning its holder record.
    pub(crate) fn remove_holder(&mut self, txn: TxnId) -> Option<Holder> {
        let pos = self.holders.iter().position(|h| h.txn == txn)?;
        Some(self.holders.remove(pos))
    }

    /// Upgrades `txn`'s held mode to write.
    pub(crate) fn upgrade_holder(&mut self, txn: TxnId) {
        let h = self
            .holders
            .iter_mut()
            .find(|h| h.txn == txn)
            .expect("upgrade of non-holder");
        h.mode = LockMode::Write;
    }

    /// Adds (or strengthens) a retainer.
    pub(crate) fn add_retainer(&mut self, txn: TxnId, mode: LockMode) {
        match self.retainer_position(txn) {
            Ok(i) => {
                let (_, m) = &mut self.retainers[i];
                *m = (*m).max(mode);
            }
            Err(i) => self.retainers.insert(i, (txn, mode)),
        }
    }

    /// Removes a retainer, returning its mode.
    pub(crate) fn remove_retainer(&mut self, txn: TxnId) -> Option<LockMode> {
        self.retainer_position(txn)
            .ok()
            .map(|i| self.retainers.remove(i).1)
    }

    /// Queues `request` onto its family's waiter list, creating the list
    /// if this is the family's first waiter (Alg. 4.2 queuing branch).
    pub(crate) fn enqueue(&mut self, family: TxnId, request: QueuedRequest) {
        if let Some(fw) = self.waiting.iter_mut().find(|f| f.family == family) {
            fw.requests.push_back(request);
        } else {
            self.waiting.push_back(FamilyWaiters {
                family,
                requests: SmallList::one(request),
            });
        }
    }

    /// Unlinks and returns the next waiting family list (Alg. 4.4).
    pub(crate) fn dequeue_next_family(&mut self) -> Option<FamilyWaiters> {
        self.waiting.pop_front()
    }

    /// Peeks at the next waiting family without unlinking it.
    pub(crate) fn peek_next_family(&self) -> Option<&FamilyWaiters> {
        self.waiting.front()
    }

    /// Removes every queued request of `family` (used when a deadlock
    /// victim family is aborted while waiting). Returns how many requests
    /// it removed.
    pub(crate) fn remove_family_waiters(&mut self, family: TxnId) -> usize {
        let mut removed = 0;
        self.waiting.retain_mut(|fw| {
            if fw.family == family {
                removed += fw.requests.len();
                false
            } else {
                true
            }
        });
        removed
    }
}

/// The node hosting the GDO partition for `object`.
///
/// "To ensure efficiency and reliability, the GDO design is partitioned and
/// replicated" (paper §4.1, citing \[MGB96\]); we model the partitioning as a
/// uniform hash of the object id over the nodes.
///
/// # Panics
///
/// Panics if `num_nodes` is zero.
pub fn gdo_home(object: ObjectId, num_nodes: u32) -> NodeId {
    assert!(num_nodes > 0, "need at least one node");
    // Fibonacci hashing spreads consecutive object ids across nodes.
    let h = (object.index() as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    NodeId::new((h >> 32) as u32 % num_nodes)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry() -> GdoEntry {
        GdoEntry::new(ObjectId::new(5))
    }

    fn tid(n: u64) -> TxnId {
        // TxnId construction is private; mint through a tree.
        let mut tree = crate::tree::TxnTree::new();
        let mut last = tree.begin_root(NodeId::new(0));
        for _ in 0..n {
            last = tree.begin_root(NodeId::new(0));
        }
        last
    }

    #[test]
    fn fresh_entry_is_free() {
        let e = entry();
        assert_eq!(e.lock_state(), LockState::Free);
        assert_eq!(e.read_count(), 0);
        assert_eq!(e.num_waiting(), 0);
    }

    #[test]
    fn state_flag_tracks_holders_and_retainers() {
        let mut e = entry();
        let t = tid(0);
        e.add_holder(Holder {
            txn: t,
            node: NodeId::new(1),
            mode: LockMode::Read,
        });
        assert_eq!(e.lock_state(), LockState::Read);
        assert_eq!(e.read_count(), 1);
        e.upgrade_holder(t);
        assert_eq!(e.lock_state(), LockState::Write);
        assert_eq!(e.read_count(), 0);
        let h = e.remove_holder(t).unwrap();
        assert_eq!(h.mode, LockMode::Write);
        e.add_retainer(t, LockMode::Write);
        assert_eq!(e.lock_state(), LockState::Retained);
        e.remove_retainer(t);
        assert_eq!(e.lock_state(), LockState::Free);
    }

    #[test]
    fn retainer_mode_strengthens_never_weakens() {
        let mut e = entry();
        let t = tid(0);
        e.add_retainer(t, LockMode::Write);
        e.add_retainer(t, LockMode::Read);
        assert_eq!(e.retained_mode(t), Some(LockMode::Write));
    }

    #[test]
    fn family_waiter_lists_group_by_family() {
        let mut e = entry();
        let (f1, f2) = (tid(0), tid(1));
        let req = |t: TxnId| QueuedRequest {
            txn: t,
            node: NodeId::new(0),
            mode: LockMode::Read,
        };
        e.enqueue(f1, req(f1));
        e.enqueue(f2, req(f2));
        e.enqueue(f1, req(f1));
        assert_eq!(e.num_waiting(), 3);
        assert_eq!(e.waiting().count(), 2, "two family lists");
        let first = e.dequeue_next_family().unwrap();
        assert_eq!(first.family, f1);
        assert_eq!(first.requests.len(), 2);
        assert_eq!(e.peek_next_family().unwrap().family, f2);
    }

    #[test]
    fn remove_family_waiters_only_hits_target() {
        let mut e = entry();
        let (f1, f2) = (tid(0), tid(1));
        let req = |t: TxnId| QueuedRequest {
            txn: t,
            node: NodeId::new(0),
            mode: LockMode::Write,
        };
        e.enqueue(f1, req(f1));
        e.enqueue(f2, req(f2));
        let removed = e.remove_family_waiters(f1);
        assert_eq!(removed, 1);
        assert_eq!(e.num_waiting(), 1);
        assert_eq!(e.peek_next_family().unwrap().family, f2);
    }

    #[test]
    fn gdo_home_is_deterministic_and_in_range() {
        for num_nodes in [1u32, 2, 7, 64] {
            for obj in 0..200 {
                let home = gdo_home(ObjectId::new(obj), num_nodes);
                assert!(home.index() < num_nodes);
                assert_eq!(home, gdo_home(ObjectId::new(obj), num_nodes));
            }
        }
    }

    #[test]
    fn gdo_home_spreads_objects() {
        let mut counts = [0u32; 4];
        for obj in 0..400 {
            counts[gdo_home(ObjectId::new(obj), 4).index() as usize] += 1;
        }
        for &c in &counts {
            assert!(
                (50..=150).contains(&c),
                "imbalanced partitioning: {counts:?}"
            );
        }
    }
}
