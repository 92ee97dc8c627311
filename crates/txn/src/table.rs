//! The nested O2PL lock table (Algorithms 4.1–4.4 of the paper).
//!
//! The table is the logical union of all GDO partitions. Whether an
//! operation is *local* (served from the locally cached portion of the GDO
//! entry, no messages) or *global* (a round trip to the object's GDO
//! partition) is reported in the returned [`Acquire`] value; the execution
//! engine turns global operations into simulated messages.
//!
//! ## Lock rules implemented (paper §4.1)
//!
//! 1. A transaction T may acquire a lock if no transaction of another
//!    family holds a conflicting lock and every *blocking* retainer is an
//!    ancestor of T. Retained locks conflict mode-wise: a retained read
//!    lock blocks foreign writers but not foreign readers (this is what
//!    makes rule 1 consistent with Algorithm 4.2's concurrent-reader
//!    grant).
//! 2. Once acquired, a lock is held until T commits or aborts (2PL — no
//!    early release).
//! 3. On pre-commit, T's parent inherits and retains all of T's locks,
//!    held and retained.
//! 4. On abort, T's locks are released except those also retained by an
//!    ancestor, which stay with the ancestor.
//! 5. Only root commit releases locks to other families.
//!
//! A request for a lock *held* (not merely retained) by an ancestor is the
//! run-time signature of a mutually recursive inter-object invocation; per
//! §3.4 these are precluded and the table reports
//! [`LockError::RecursionPrecluded`].

use std::fmt;

use lotec_mem::{ObjectId, PageIndex, PageMap, PageMapMut, PageMaps};
use lotec_sim::{KeyedLists, NodeId};

use crate::gdo::{GdoEntry, Holder, QueuedRequest};
use crate::lock::LockMode;
use crate::small_list::SmallList;
use crate::tree::{TxnId, TxnTree};
use crate::waits_for::WaitsFor;

/// Outcome of a successful (non-erroring) acquisition attempt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Acquire {
    /// Granted from the locally cached GDO portion: the requester's family
    /// already owned the lock (a retaining ancestor). No messages.
    LocalGrant,
    /// Granted by the GDO after a global round trip. The engine charges a
    /// lock-request and a lock-grant message sized with `holders` holder
    /// entries and the object's page map.
    GlobalGrant {
        /// Holder-list length sent back with the grant.
        holders: usize,
    },
    /// Queued at the GDO behind conflicting holders/retainers. The engine
    /// charges the lock-request message; the grant arrives later via a
    /// [`Grant`] produced by a release operation.
    Queued,
}

impl Acquire {
    /// True for either grant variant.
    pub fn is_granted(&self) -> bool {
        !matches!(self, Acquire::Queued)
    }
}

/// Errors from lock operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LockError {
    /// The requested object was never registered.
    UnknownObject(ObjectId),
    /// The request targets a lock held by an ancestor — a mutually
    /// recursive inter-object invocation, precluded per §3.4.
    RecursionPrecluded {
        /// The requesting transaction.
        txn: TxnId,
        /// The holding ancestor.
        ancestor: TxnId,
        /// The contested object.
        object: ObjectId,
    },
    /// The transaction already holds this lock in a sufficient mode; the
    /// caller's bookkeeping is confused.
    AlreadyHeld {
        /// The requesting transaction.
        txn: TxnId,
        /// The contested object.
        object: ObjectId,
    },
}

impl fmt::Display for LockError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LockError::UnknownObject(o) => write!(f, "unknown object {o}"),
            LockError::RecursionPrecluded { txn, ancestor, object } => write!(
                f,
                "mutually recursive invocation: {txn} requested {object} held by ancestor {ancestor}"
            ),
            LockError::AlreadyHeld { txn, object } => {
                write!(f, "{txn} already holds the lock on {object}")
            }
        }
    }
}

impl std::error::Error for LockError {}

/// A deferred grant produced when a release unblocks a waiting family
/// (Alg. 4.3/4.4: "grant the lock to that sub-transaction" / "link onto
/// HolderPtr \[and\] send … to the new holder's site").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Grant {
    /// The object whose lock was granted.
    pub object: ObjectId,
    /// The granted requests (all from one family): the family's queued
    /// list itself, moved out of the entry.
    pub requests: SmallList<QueuedRequest>,
    /// Holder-list length at grant time (sizes the grant message).
    pub holders: usize,
}

/// Result of a pre-commit release (Alg. 4.3, first case). Purely local.
///
/// Like the other release results, the caller owns it and lends it to
/// each release, which clears and refills it: a caller that keeps one
/// buffer per kind releases without allocating at steady state.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PreCommitRelease {
    /// Objects whose locks the parent inherited, ascending.
    pub inherited: Vec<ObjectId>,
}

/// Result of an abort release (Alg. 4.3, abort cases).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AbortRelease {
    /// Objects returned to a retaining ancestor (local, no messages).
    pub returned_to_ancestor: Vec<ObjectId>,
    /// Objects released globally (each costs a release message).
    pub released: Vec<ObjectId>,
    /// Grants to other families unblocked by the release.
    pub grants: Vec<Grant>,
}

impl AbortRelease {
    fn clear(&mut self) {
        self.returned_to_ancestor.clear();
        self.released.clear();
        self.grants.clear();
    }
}

/// Result of a root-commit release (Alg. 4.4).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CommitRelease {
    /// Objects released (one global release message covers the batch; the
    /// engine sizes it with the piggybacked dirty info).
    pub released: Vec<ObjectId>,
    /// Grants to other families unblocked by the release.
    pub grants: Vec<Grant>,
}

/// Point-in-time occupancy of the lock table (see
/// [`LockTable::occupancy`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LockOccupancy {
    /// Total holder-list entries across all objects.
    pub held: u32,
    /// Total retainer-map entries across all objects.
    pub retained: u32,
    /// Total queued (waiting) requests across all objects.
    pub waiting: u32,
}

/// The lock table: every registered object's GDO entry and page map plus
/// reverse indexes.
///
/// Entries live in a compact arena in registration order, reached through
/// a per-object slot index: the per-acquisition entry lookup on the
/// simulation hot path is two array indexes, and an object no lock
/// request has reached costs four bytes of index and no entry. Every walk
/// goes through the index, so iteration visits objects in ascending id
/// order whatever order they were registered in. Neither an entry nor its
/// page map owns heap memory of its own in the common case (see
/// [`GdoEntry`] and [`PageMaps`]), so registering an object allocates
/// nothing per object.
#[derive(Debug, Clone, Default)]
pub struct LockTable {
    /// Per object id: 0 while unregistered, else 1 + its entry's position
    /// in `arena`. Grown on demand with zeros.
    slot: Vec<u32>,
    /// GDO entries in registration order. The waits-for graph keys each
    /// object's edge contribution by the same position.
    arena: Vec<GdoEntry>,
    /// Every entry's page map, at the entry's arena position.
    page_maps: PageMaps,
    held_by: TxnObjects,
    retained_by: TxnObjects,
    /// Recycled buffer for the objects a release walks.
    scratch: Vec<ObjectId>,
    /// Family-level waits-for graph, refreshed at every entry mutation
    /// (see [`WaitsFor`]); the deadlock detector reads it instead of
    /// rebuilding from an O(entries) scan.
    graph: WaitsFor,
    /// When set, every graph refresh cross-checks the incremental graph
    /// against a from-scratch rebuild and every detector call compares
    /// its result with the reference implementation. Enabled by the
    /// differential oracle and property suites.
    validate_graph: bool,
}

/// Reverse index from transactions to the objects they hold (or retain),
/// keyed densely: [`crate::TxnTree`] mints ids sequentially from zero, so
/// the raw transaction id is the list's key. Per-transaction lists are in
/// insertion order; the release paths sort-and-dedup on drain to
/// reproduce the ascending-object-id order of the ordered-set layout this
/// replaces, so the hot path itself only ever appends. Every list links
/// through one recycled node arena, so at steady state the index
/// allocates nothing.
#[derive(Debug, Clone, Default)]
struct TxnObjects {
    lists: KeyedLists<ObjectId>,
}

impl TxnObjects {
    /// Records `txn` → `object`, which the index must not list yet (a
    /// transaction acquires an object once).
    fn insert(&mut self, txn: TxnId, object: ObjectId) {
        debug_assert!(!self.get(txn).any(|o| o == object), "{txn} already listed");
        self.lists.push(txn.get() as usize, object);
    }

    /// Records `txn` → `object` unless already listed: a parent re-inherits
    /// an object from each pre-committing child that touched it.
    fn insert_once(&mut self, txn: TxnId, object: ObjectId) {
        if !self.get(txn).any(|o| o == object) {
            self.insert(txn, object);
        }
    }

    /// Appends `txn`'s objects to `out`, in insertion order, and empties
    /// its list.
    fn drain_into(&mut self, txn: TxnId, out: &mut Vec<ObjectId>) {
        let mut list = self.lists.detach(txn.get() as usize);
        while let Some(object) = self.lists.pop(&mut list) {
            out.push(object);
        }
    }

    /// `txn`'s objects, in insertion order.
    fn get(&self, txn: TxnId) -> impl Iterator<Item = ObjectId> + '_ {
        self.lists.iter(txn.get() as usize)
    }

    /// All non-empty `(txn, objects)` pairs, ascending by id.
    fn iter(&self) -> impl Iterator<Item = (TxnId, impl Iterator<Item = ObjectId> + '_)> {
        (0..self.lists.keys())
            .filter(|&key| !self.lists.is_empty(key))
            .map(|key| (TxnId::from_raw(key as u64), self.lists.iter(key)))
    }
}

impl LockTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers an object of `num_pages` pages homed at `home`. Objects
    /// may register in any id order (the engine registers each on the
    /// first lock request that reaches it).
    ///
    /// # Panics
    ///
    /// Panics if the object is already registered or `num_pages` is zero.
    pub fn register_object(&mut self, object: ObjectId, num_pages: u16, home: NodeId) {
        let id = object.index() as usize;
        if id >= self.slot.len() {
            self.slot.resize(id + 1, 0);
        }
        assert!(self.slot[id] == 0, "object {object} registered twice");
        let pos = self.arena.len();
        self.arena.push(GdoEntry::new(object));
        let map = self.page_maps.push(num_pages, home);
        debug_assert_eq!(map, pos, "page maps follow the entry arena");
        self.slot[id] = u32::try_from(pos + 1).expect("lock table size fits u32");
        self.graph.ensure_slot(pos);
    }

    /// Arena position of `object`'s entry, if registered.
    fn position(&self, object: ObjectId) -> Option<usize> {
        match self.slot.get(object.index() as usize) {
            Some(&s) if s != 0 => Some(s as usize - 1),
            _ => None,
        }
    }

    /// Arena positions of every registered entry, in ascending object id
    /// order.
    fn positions(&self) -> impl Iterator<Item = usize> + '_ {
        self.slot
            .iter()
            .filter(|&&s| s != 0)
            .map(|&s| s as usize - 1)
    }

    /// The entry of an object the caller knows is registered (it came
    /// from the holder or retainer index, or was just acquired).
    fn registered_mut(&mut self, object: ObjectId) -> &mut GdoEntry {
        let pos = self.position(object).expect("object registered");
        &mut self.arena[pos]
    }

    /// The incrementally maintained family-level waits-for graph.
    pub fn waits_for(&self) -> &WaitsFor {
        &self.graph
    }

    /// Turns on oracle mode: after every entry mutation the incremental
    /// graph is compared against a from-scratch rebuild, and the deadlock
    /// detector functions compare their results against the
    /// [`crate::deadlock::reference`] implementation. Test-only by
    /// intent — each check is O(whole table).
    pub fn enable_graph_validation(&mut self) {
        self.validate_graph = true;
    }

    /// True when [`LockTable::enable_graph_validation`] was called.
    pub fn graph_validation(&self) -> bool {
        self.validate_graph
    }

    /// Refreshes the mutated `object`'s edge contribution in the
    /// waits-for graph. Every mutation of an entry's holders, retainers,
    /// or waiter queue funnels through here.
    fn refresh_graph(&mut self, object: ObjectId, tree: &TxnTree) {
        let pos = self.position(object).expect("refreshed object registered");
        self.graph.refresh(pos, &self.arena[pos], tree);
        if self.validate_graph {
            let want = crate::deadlock::reference::waits_for(self, tree);
            let got = self.graph.to_reference();
            assert_eq!(
                got, want,
                "incremental waits-for graph diverged from from-scratch rebuild \
                 after mutating {object}"
            );
        }
    }

    /// The GDO entry for `object`.
    ///
    /// # Errors
    ///
    /// Returns [`LockError::UnknownObject`] if unregistered.
    pub fn entry(&self, object: ObjectId) -> Result<&GdoEntry, LockError> {
        self.position(object)
            .map(|pos| &self.arena[pos])
            .ok_or(LockError::UnknownObject(object))
    }

    /// The page map of `object` (grants read it).
    ///
    /// # Errors
    ///
    /// Returns [`LockError::UnknownObject`] if unregistered.
    pub fn page_map(&self, object: ObjectId) -> Result<PageMap<'_>, LockError> {
        self.position(object)
            .map(|pos| self.page_maps.get(pos))
            .ok_or(LockError::UnknownObject(object))
    }

    /// Every registered object's page map, in ascending object id order.
    pub fn page_maps(&self) -> impl Iterator<Item = (ObjectId, PageMap<'_>)> {
        self.positions()
            .map(|pos| (self.arena[pos].object(), self.page_maps.get(pos)))
    }

    /// The page map of `object`, for updates (transfers record caching
    /// sites, crash repair repoints owners).
    ///
    /// # Errors
    ///
    /// Returns [`LockError::UnknownObject`] if unregistered.
    pub fn page_map_mut(&mut self, object: ObjectId) -> Result<PageMapMut<'_>, LockError> {
        self.position(object)
            .map(|pos| self.page_maps.get_mut(pos))
            .ok_or(LockError::UnknownObject(object))
    }

    /// Objects currently held by `txn`, ascending by id.
    pub fn held_objects(&self, txn: TxnId) -> impl Iterator<Item = ObjectId> + '_ {
        let mut objects: Vec<ObjectId> = self.held_by.get(txn).collect();
        objects.sort_unstable();
        objects.into_iter()
    }

    /// Objects currently retained by `txn`, ascending by id.
    pub fn retained_objects(&self, txn: TxnId) -> impl Iterator<Item = ObjectId> + '_ {
        let mut objects: Vec<ObjectId> = self.retained_by.get(txn).collect();
        objects.sort_unstable();
        objects.into_iter()
    }

    /// Iterator over all registered entries in ascending object-id order
    /// (deadlock detection scans these).
    pub fn entries(&self) -> impl Iterator<Item = &GdoEntry> {
        self.positions().map(|pos| &self.arena[pos])
    }

    /// Aggregate occupancy across every GDO entry: live holder links,
    /// retainer links, and queued requests. One walk of the slot index
    /// and the registered entries — feeds periodic state sampling and
    /// forensics, not the per-acquisition hot path.
    #[must_use]
    pub fn occupancy(&self) -> LockOccupancy {
        let mut occ = LockOccupancy::default();
        for entry in self.entries() {
            occ.held += entry.holders().len() as u32;
            occ.retained += entry.retainers().count() as u32;
            occ.waiting += entry.num_waiting() as u32;
        }
        occ
    }

    // ---------------------------------------------------------------
    // Acquisition (Algorithms 4.1 + 4.2)
    // ---------------------------------------------------------------

    /// Attempts to acquire `object`'s lock for `txn` in `mode`.
    ///
    /// Implements `LocalLockAcquisition` falling through to
    /// `GlobalLockAcquisition`. A [`Acquire::Queued`] result parks the
    /// request in the object's per-family waiter lists; it will surface
    /// later in a [`Grant`] from some release call.
    ///
    /// # Errors
    ///
    /// * [`LockError::UnknownObject`] — unregistered object.
    /// * [`LockError::RecursionPrecluded`] — the lock is held by an
    ///   ancestor of `txn` (mutually recursive invocation, §3.4).
    /// * [`LockError::AlreadyHeld`] — `txn` itself already holds the lock
    ///   in a sufficient mode.
    pub fn acquire(
        &mut self,
        object: ObjectId,
        txn: TxnId,
        mode: LockMode,
        tree: &TxnTree,
    ) -> Result<Acquire, LockError> {
        let node = tree.node_of(txn);
        let family = tree.root_of(txn);
        let pos = self
            .position(object)
            .ok_or(LockError::UnknownObject(object))?;
        let entry = &mut self.arena[pos];

        // Uncontended fast path: nobody holds, retains, or waits. Every
        // check below is vacuous and the outcome is a fresh sole-holder
        // global grant. With no waiters the object contributes no
        // waits-for edges before or after the grant, so the graph
        // refresh is a no-op too — skip it (validation mode recomputes
        // to prove exactly that).
        if entry.holders().is_empty()
            && entry.retainers().next().is_none()
            && entry.peek_next_family().is_none()
        {
            entry.add_holder(Holder { txn, node, mode });
            self.held_by.insert(txn, object);
            if self.validate_graph {
                self.refresh_graph(object, tree);
            }
            return Ok(Acquire::GlobalGrant { holders: 1 });
        }

        // Re-request / upgrade by the same transaction.
        if let Some(held) = entry.held_mode(txn) {
            if held.is_write() || mode == held {
                return Err(LockError::AlreadyHeld { txn, object });
            }
            // Read -> Write upgrade: legal only if txn is the sole holder
            // and no foreign retainer blocks a write.
            let sole_holder = entry.holders().len() == 1;
            let retainers_ok = entry.retainers().all(|(r, _)| tree.is_ancestor(r, txn));
            if sole_holder && retainers_ok {
                entry.upgrade_holder(txn);
                // Upgrades consult the GDO (the read lock may be shared
                // elsewhere); treat as a global operation.
                let holders = entry.holders().len();
                self.refresh_graph(object, tree);
                return Ok(Acquire::GlobalGrant { holders });
            }
            entry.enqueue(family, QueuedRequest { txn, node, mode });
            self.refresh_graph(object, tree);
            return Ok(Acquire::Queued);
        }

        // Mutual recursion check: lock *held* by an ancestor (§3.4).
        if let Some(h) = entry
            .holders()
            .iter()
            .find(|h| tree.is_ancestor(h.txn, txn))
        {
            return Err(LockError::RecursionPrecluded {
                txn,
                ancestor: h.txn,
                object,
            });
        }

        // Conflicts with current holders (necessarily non-ancestors now).
        let holder_conflict = entry.holders().iter().any(|h| h.mode.conflicts_with(mode));

        // Blocking retainers: a retainer blocks unless it is an ancestor of
        // the requester (rule 1) or its retained mode is compatible.
        let retainer_blocks = entry
            .retainers()
            .any(|(r, m)| m.conflicts_with(mode) && !tree.is_ancestor(r, txn));

        // An ancestor retaining the lock in a covering mode entitles the
        // requester to it immediately (Alg. 4.1's fast path) — foreign
        // waiters cannot take a retained lock before the family's root
        // commits, so making the descendant queue behind them would
        // manufacture a guaranteed deadlock. An ancestor retaining only
        // Read does not cover a Write request — that upgrade must consult
        // the GDO for foreign read holders.
        let ancestor_covering = entry
            .retainers()
            .any(|(r, m)| tree.is_ancestor(r, txn) && (m.is_write() || !mode.is_write()));

        // FIFO fairness: if other families are already queued, a newcomer
        // from a different family must queue behind them even if the lock
        // is momentarily compatible — unless a retaining ancestor entitles
        // it to bypass.
        let must_queue_behind = entry
            .peek_next_family()
            .is_some_and(|fw| fw.family != family)
            && !ancestor_covering;

        if holder_conflict || retainer_blocks || must_queue_behind {
            entry.enqueue(family, QueuedRequest { txn, node, mode });
            self.refresh_graph(object, tree);
            return Ok(Acquire::Queued);
        }

        // Grant. Local iff the retained fast path applied.
        let local = ancestor_covering;
        let holders_after = entry.holders().len() + 1;
        entry.add_holder(Holder { txn, node, mode });
        self.held_by.insert(txn, object);
        self.refresh_graph(object, tree);
        if local {
            Ok(Acquire::LocalGrant)
        } else {
            Ok(Acquire::GlobalGrant {
                holders: holders_after,
            })
        }
    }

    /// Who stands between `txn`'s `mode` request on `object` and its
    /// grant, written into caller-owned buffers (cleared first, so a
    /// caller reusing them allocates only when one grows): the holders
    /// whose mode conflicts with `mode`, the retainers that block it, and
    /// every other family queued on `object`, in queue order. The ids
    /// land as `T`, so a probe can fill its raw `u64` lists directly.
    ///
    /// # Panics
    ///
    /// Panics if `object` is not registered.
    pub fn blockers<T: From<TxnId>>(
        &self,
        object: ObjectId,
        txn: TxnId,
        mode: LockMode,
        tree: &TxnTree,
        [holders, retainers, queued_behind]: &mut [Vec<T>; 3],
    ) {
        let entry = self
            .entry(object)
            .expect("blockers of an unregistered object");
        // Waits-for provenance: who actually stands between this request
        // and the grant. Holders/retainers filter to the conflicting modes
        // (an ancestor's retained lock never blocks — rule 2 lets
        // descendants re-acquire it), and `queued_behind` lists the
        // families already in line.
        let family = tree.root_of(txn);
        holders.clear();
        holders.extend(
            entry
                .holders()
                .iter()
                .filter(|h| h.mode.conflicts_with(mode))
                .map(|h| h.txn.into()),
        );
        retainers.clear();
        retainers.extend(
            entry
                .retainers()
                .filter(|&(r, m)| m.conflicts_with(mode) && !tree.is_ancestor(r, txn))
                .map(|(r, _)| r.into()),
        );
        queued_behind.clear();
        queued_behind.extend(
            entry
                .waiting()
                .filter(|fw| fw.family != family)
                .map(|fw| fw.family.into()),
        );
    }

    // ---------------------------------------------------------------
    // Release (Algorithms 4.3 + 4.4)
    // ---------------------------------------------------------------

    /// Pre-commit of sub-transaction `txn`: its parent inherits and retains
    /// every lock `txn` holds or retains (rule 3). Purely local. `out` is
    /// cleared and receives the inherited objects.
    ///
    /// # Panics
    ///
    /// Panics if `txn` is a root (roots use
    /// [`LockTable::release_root_commit`]).
    pub fn release_pre_commit(&mut self, txn: TxnId, tree: &TxnTree, out: &mut PreCommitRelease) {
        let parent = tree.parent(txn).expect("pre-commit of a root transaction");
        let mut objects = std::mem::take(&mut self.scratch);
        objects.clear();
        self.held_by.drain_into(txn, &mut objects);
        let held = objects.len();
        self.retained_by.drain_into(txn, &mut objects);
        for (i, &object) in objects.iter().enumerate() {
            let entry = self.registered_mut(object);
            let mode = if i < held {
                entry.remove_holder(txn).expect("index said txn holds").mode
            } else {
                entry.remove_retainer(txn).expect("index said txn retains")
            };
            entry.add_retainer(parent, mode);
            self.retained_by.insert_once(parent, object);
            // Inheritance moves the lock within the family at the same
            // (or merged, hence stronger-or-equal) mode. Edges are pairs
            // of *families*, and `conflicts_with(a.max(b))` equals
            // `conflicts_with(a) || conflicts_with(b)` under the
            // read/write lattice, so the object's contribution is
            // provably unchanged — skip the refresh in production and
            // let validation mode recompute to prove exactly that.
            if self.validate_graph {
                self.refresh_graph(object, tree);
            }
        }
        out.inherited.clear();
        out.inherited.extend_from_slice(&objects);
        out.inherited.sort_unstable();
        out.inherited.dedup();
        self.scratch = objects;
    }

    /// Abort of [sub-]transaction `txn` (rule 4): locks return to a
    /// retaining ancestor when one exists, otherwise they are released —
    /// possibly unblocking waiting families. `out` is cleared and receives
    /// the outcome.
    pub fn release_abort(&mut self, txn: TxnId, tree: &TxnTree, out: &mut AbortRelease) {
        out.clear();
        // The index lists are in insertion order; restore the ascending
        // dedup'd order the ordered-set layout produced — released order
        // is observable downstream (messages, traces).
        let mut objects = std::mem::take(&mut self.scratch);
        objects.clear();
        self.held_by.drain_into(txn, &mut objects);
        self.retained_by.drain_into(txn, &mut objects);
        objects.sort_unstable();
        objects.dedup();
        for &object in &objects {
            let entry = self.registered_mut(object);
            entry.remove_holder(txn);
            entry.remove_retainer(txn);
            let ancestor_retains = entry
                .retainers()
                .any(|(r, _)| r != txn && tree.is_ancestor(r, txn));
            if ancestor_retains {
                // No grant pass will touch this object: refresh here.
                self.refresh_graph(object, tree);
                out.returned_to_ancestor.push(object);
            } else {
                // `try_grant_next` below refreshes on every exit path —
                // one recompute covers the release and any grants. In
                // validation mode refresh eagerly anyway: the oracle
                // compares the *whole* graph after every mutation, so a
                // deferred refresh would flag sibling objects in the
                // batch as stale.
                if self.validate_graph {
                    self.refresh_graph(object, tree);
                }
                out.released.push(object);
            }
        }
        self.scratch = objects;
        // Collect grants after all of txn's presence is gone.
        for &object in &out.released {
            self.try_grant_next(object, tree, &mut out.grants);
        }
    }

    /// Root commit of `root` (rule 5 / Alg. 4.4): every lock held or
    /// retained by the root is released and waiting families are granted.
    /// `out` is cleared and receives the outcome.
    ///
    /// `dirty` carries the piggybacked dirty-page information: for each
    /// object, the pages the family updated. The GDO page map records the
    /// committing node as the holder of the new versions.
    ///
    /// # Panics
    ///
    /// Panics if `root` is not a root transaction.
    pub fn release_root_commit(
        &mut self,
        root: TxnId,
        tree: &TxnTree,
        dirty: &[(ObjectId, Vec<PageIndex>)],
        node: NodeId,
        out: &mut CommitRelease,
    ) {
        assert!(tree.parent(root).is_none(), "{root} is not a root");
        // Record dirty info in the page maps first (Alg. 4.4's first loop).
        for (object, pages) in dirty {
            let mut map = self.page_map_mut(*object).expect("object registered");
            for &page in pages {
                map.record_update(page, node);
            }
        }

        out.released.clear();
        out.grants.clear();
        // Ascending dedup'd order, as in `release_abort`.
        self.held_by.drain_into(root, &mut out.released);
        self.retained_by.drain_into(root, &mut out.released);
        out.released.sort_unstable();
        out.released.dedup();
        for &object in &out.released {
            let entry = self.registered_mut(object);
            entry.remove_holder(root);
            entry.remove_retainer(root);
            debug_assert!(
                entry.retainers().all(|(r, _)| !tree.is_ancestor(root, r)),
                "family members still retain {object} after root commit"
            );
            // `try_grant_next` below refreshes on every exit path — one
            // recompute covers the release and any grants. In validation
            // mode refresh eagerly anyway (see `release_abort`).
            if self.validate_graph {
                self.refresh_graph(object, tree);
            }
        }
        for &object in &out.released {
            self.try_grant_next(object, tree, &mut out.grants);
        }
    }

    /// After a release, grants the next waiting family's requests if they
    /// are now admissible (Alg. 4.4's second loop). Read batches across
    /// consecutive read-only families are granted together.
    fn try_grant_next(&mut self, object: ObjectId, tree: &TxnTree, grants: &mut Vec<Grant>) {
        // The whole grant batch works on one entry borrow; `held_by` is a
        // disjoint field, so the reverse index updates in-loop without
        // re-fetching the entry per granted family.
        let pos = self.position(object).expect("object registered");
        let Self { arena, held_by, .. } = self;
        let entry = &mut arena[pos];
        while let Some(next) = entry.peek_next_family() {
            // Admissibility: every queued request of the family must be
            // compatible with current holders and blocking retainers.
            let family = next.family;
            let admissible = next.requests.iter().all(|req| {
                let no_holder_conflict = entry
                    .holders()
                    .iter()
                    .all(|h| !h.mode.conflicts_with(req.mode) || tree.same_family(h.txn, req.txn));
                let no_retainer_block = entry
                    .retainers()
                    .all(|(r, m)| !m.conflicts_with(req.mode) || tree.is_ancestor(r, req.txn));
                no_holder_conflict && no_retainer_block
            });
            if !admissible {
                break;
            }
            let fw = entry.dequeue_next_family().expect("peeked family vanished");
            debug_assert_eq!(fw.family, family);
            let mut wrote = false;
            for &req in &fw.requests {
                wrote |= req.mode.is_write();
                if entry.is_held_by(req.txn) {
                    // A queued read→write upgrade (`acquire` queues a
                    // holder only for that): strengthen the existing
                    // holder record, which the index already lists.
                    debug_assert!(req.mode.is_write(), "only upgrades re-queue a holder");
                    entry.upgrade_holder(req.txn);
                } else {
                    entry.add_holder(Holder {
                        txn: req.txn,
                        node: req.node,
                        mode: req.mode,
                    });
                    held_by.insert(req.txn, object);
                }
            }
            let holders = entry.holders().len();
            grants.push(Grant {
                object,
                requests: fw.requests,
                holders,
            });
            // Read batching: if the grant was read-only, the following
            // family may also be read-compatible — loop and try again.
            if wrote {
                break;
            }
        }
        // One refresh on every exit path: it covers the release (or
        // cancellation) that exposed the queue head — callers rely on
        // this and skip their own per-object refresh — plus however many
        // grants the loop handed out.
        self.refresh_graph(object, tree);
    }

    /// Drops every queued request of `family` across all objects: the
    /// family is a deadlock victim or was crash-aborted while waiting, or
    /// its queued request timed out. Returns the objects whose queues
    /// were touched.
    ///
    /// Removing a queue entry can expose a now-admissible waiter behind
    /// it; callers must follow up with [`LockTable::regrant`] on the
    /// returned objects or risk a lost wakeup.
    ///
    /// The returned objects ascend by id (the walk goes through the slot
    /// index), which fixes the order [`LockTable::regrant`] grants in.
    pub fn cancel_family_waiters(&mut self, family: TxnId, tree: &TxnTree) -> Vec<ObjectId> {
        let mut touched = Vec::new();
        for id in 0..self.slot.len() {
            let Some(pos) = self.slot[id].checked_sub(1) else {
                continue;
            };
            let entry = &mut self.arena[pos as usize];
            if entry.remove_family_waiters(family) > 0 {
                let object = entry.object();
                // Dropping a queue entry removes the family's outgoing
                // edges on that object and any FIFO edges other waiters
                // had toward it — refresh before touching the next entry
                // so the graph never goes stale mid-batch.
                self.refresh_graph(object, tree);
                touched.push(object);
            }
        }
        touched
    }

    /// Re-examines `objects`' waiter queues and grants whatever became
    /// admissible (after queue entries were removed by
    /// [`LockTable::cancel_family_waiters`]).
    pub fn regrant(&mut self, objects: &[ObjectId], tree: &TxnTree) -> Vec<Grant> {
        let mut grants = Vec::new();
        for &object in objects {
            self.try_grant_next(object, tree, &mut grants);
        }
        grants
    }

    /// Internal consistency check used by tests and debug assertions:
    /// indexes match entries; at most one write holder per object; write
    /// holder excludes other holders from different families.
    pub fn check_invariants(&self, tree: &TxnTree) -> Result<(), String> {
        for entry in self.entries() {
            let object = entry.object();
            let writers: Vec<_> = entry
                .holders()
                .iter()
                .filter(|h| h.mode.is_write())
                .collect();
            if writers.len() > 1 {
                return Err(format!("{object}: multiple write holders"));
            }
            if let Some(w) = writers.first() {
                for h in entry.holders() {
                    if h.txn != w.txn && !tree.same_family(h.txn, w.txn) {
                        return Err(format!(
                            "{object}: write holder {} coexists with foreign holder {}",
                            w.txn, h.txn
                        ));
                    }
                }
            }
            for h in entry.holders() {
                if !self.held_by.get(h.txn).any(|o| o == object) {
                    return Err(format!("{object}: holder {} missing from index", h.txn));
                }
            }
            for (r, _) in entry.retainers() {
                if !self.retained_by.get(r).any(|o| o == object) {
                    return Err(format!("{object}: retainer {r} missing from index"));
                }
            }
        }
        for (txn, objects) in self.held_by.iter() {
            for object in objects {
                let entry = self.entry(object).map_err(|_| "indexed object missing")?;
                if !entry.is_held_by(txn) {
                    return Err(format!("index says {txn} holds {object}, entry disagrees"));
                }
            }
        }
        // The incrementally maintained waits-for graph must equal what a
        // from-scratch rebuild derives from the current entries.
        let rebuilt = crate::deadlock::reference::waits_for(self, tree);
        let incremental = self.graph.to_reference();
        if incremental != rebuilt {
            return Err(format!(
                "incremental waits-for graph {incremental:?} != rebuilt {rebuilt:?}"
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    fn obj(i: u32) -> ObjectId {
        ObjectId::new(i)
    }

    fn setup(num_objects: u32) -> (TxnTree, LockTable) {
        let mut table = LockTable::new();
        for i in 0..num_objects {
            table.register_object(obj(i), 4, n(0));
        }
        (TxnTree::new(), table)
    }

    /// Objects register in first-touch order, not id order; every walk
    /// of the table must still ascend by object id.
    #[test]
    fn walks_ascend_by_object_id_whatever_the_registration_order() {
        let mut table = LockTable::new();
        for i in [9, 2, 5, 0] {
            table.register_object(obj(i), 4, n(0));
        }
        let mut tree = TxnTree::new();
        let holder = tree.begin_root(n(1));
        let waiter = tree.begin_root(n(2));
        for i in [9, 5, 2] {
            table
                .acquire(obj(i), holder, LockMode::Write, &tree)
                .unwrap();
        }
        // One family queues a child on each of the held objects.
        for i in [9, 5, 2] {
            let child = tree.begin_child(waiter);
            let got = table
                .acquire(obj(i), child, LockMode::Write, &tree)
                .unwrap();
            assert_eq!(got, Acquire::Queued);
        }
        let ids = |objects: &mut dyn Iterator<Item = ObjectId>| -> Vec<u32> {
            objects.map(|o| o.index()).collect()
        };
        assert_eq!(
            ids(&mut table.entries().map(GdoEntry::object)),
            [0, 2, 5, 9]
        );
        assert_eq!(
            table.occupancy(),
            LockOccupancy {
                held: 3,
                retained: 0,
                waiting: 3
            }
        );
        table.check_invariants(&tree).unwrap();
        for never in [1, 7, 10, 1_000] {
            assert_eq!(
                table.entry(obj(never)).unwrap_err(),
                LockError::UnknownObject(obj(never))
            );
        }

        // With two objects broken, the check names the lower id first.
        let mut broken = table.clone();
        let stray = tree.begin_root(n(3));
        for i in [9, 5] {
            broken.registered_mut(obj(i)).add_holder(Holder {
                txn: stray,
                node: n(3),
                mode: LockMode::Read,
            });
        }
        let err = broken.check_invariants(&tree).unwrap_err();
        assert!(err.starts_with("O5:"), "{err}");

        let cancelled = table.cancel_family_waiters(waiter, &tree);
        assert_eq!(ids(&mut cancelled.into_iter()), [2, 5, 9]);
        assert_eq!(table.occupancy().waiting, 0);
        table.check_invariants(&tree).unwrap();
    }

    #[test]
    fn first_acquire_is_global_grant() {
        let (mut tree, mut table) = setup(1);
        let r = tree.begin_root(n(1));
        let got = table.acquire(obj(0), r, LockMode::Write, &tree).unwrap();
        assert_eq!(got, Acquire::GlobalGrant { holders: 1 });
        assert!(table.entry(obj(0)).unwrap().is_held_by(r));
        table.check_invariants(&tree).unwrap();
    }

    #[test]
    fn concurrent_readers_from_different_families() {
        let (mut tree, mut table) = setup(1);
        let a = tree.begin_root(n(1));
        let b = tree.begin_root(n(2));
        assert!(table
            .acquire(obj(0), a, LockMode::Read, &tree)
            .unwrap()
            .is_granted());
        assert!(table
            .acquire(obj(0), b, LockMode::Read, &tree)
            .unwrap()
            .is_granted());
        assert_eq!(table.entry(obj(0)).unwrap().read_count(), 2);
        table.check_invariants(&tree).unwrap();
    }

    #[test]
    fn writer_blocks_foreign_family() {
        let (mut tree, mut table) = setup(1);
        let a = tree.begin_root(n(1));
        let b = tree.begin_root(n(2));
        table.acquire(obj(0), a, LockMode::Write, &tree).unwrap();
        assert_eq!(
            table.acquire(obj(0), b, LockMode::Read, &tree).unwrap(),
            Acquire::Queued
        );
        assert_eq!(table.entry(obj(0)).unwrap().num_waiting(), 1);
    }

    #[test]
    fn reader_blocks_foreign_writer() {
        let (mut tree, mut table) = setup(1);
        let a = tree.begin_root(n(1));
        let b = tree.begin_root(n(2));
        table.acquire(obj(0), a, LockMode::Read, &tree).unwrap();
        assert_eq!(
            table.acquire(obj(0), b, LockMode::Write, &tree).unwrap(),
            Acquire::Queued
        );
    }

    #[test]
    fn recursion_precluded_when_ancestor_holds() {
        let (mut tree, mut table) = setup(1);
        let r = tree.begin_root(n(1));
        table.acquire(obj(0), r, LockMode::Write, &tree).unwrap();
        let c = tree.begin_child(r);
        let err = table.acquire(obj(0), c, LockMode::Read, &tree).unwrap_err();
        assert_eq!(
            err,
            LockError::RecursionPrecluded {
                txn: c,
                ancestor: r,
                object: obj(0)
            }
        );
    }

    #[test]
    fn child_acquires_lock_retained_by_parent_locally() {
        let (mut tree, mut table) = setup(1);
        let r = tree.begin_root(n(1));
        let c1 = tree.begin_child(r);
        table.acquire(obj(0), c1, LockMode::Write, &tree).unwrap();
        tree.pre_commit(c1);
        table.release_pre_commit(c1, &tree, &mut PreCommitRelease::default());
        // Parent now retains; a second child acquires locally.
        let c2 = tree.begin_child(r);
        let got = table.acquire(obj(0), c2, LockMode::Write, &tree).unwrap();
        assert_eq!(got, Acquire::LocalGrant);
        table.check_invariants(&tree).unwrap();
    }

    #[test]
    fn retained_write_blocks_other_families() {
        let (mut tree, mut table) = setup(1);
        let r = tree.begin_root(n(1));
        let c = tree.begin_child(r);
        table.acquire(obj(0), c, LockMode::Write, &tree).unwrap();
        tree.pre_commit(c);
        table.release_pre_commit(c, &tree, &mut PreCommitRelease::default());
        let foreign = tree.begin_root(n(2));
        assert_eq!(
            table
                .acquire(obj(0), foreign, LockMode::Read, &tree)
                .unwrap(),
            Acquire::Queued,
            "retained write lock blocks foreign readers"
        );
    }

    #[test]
    fn retained_read_admits_foreign_readers_blocks_writers() {
        let (mut tree, mut table) = setup(1);
        let r = tree.begin_root(n(1));
        let c = tree.begin_child(r);
        table.acquire(obj(0), c, LockMode::Read, &tree).unwrap();
        tree.pre_commit(c);
        table.release_pre_commit(c, &tree, &mut PreCommitRelease::default());
        let reader = tree.begin_root(n(2));
        assert!(table
            .acquire(obj(0), reader, LockMode::Read, &tree)
            .unwrap()
            .is_granted());
        let writer = tree.begin_root(n(3));
        assert_eq!(
            table
                .acquire(obj(0), writer, LockMode::Write, &tree)
                .unwrap(),
            Acquire::Queued
        );
    }

    #[test]
    fn root_commit_releases_to_next_family() {
        let (mut tree, mut table) = setup(1);
        let a = tree.begin_root(n(1));
        let b = tree.begin_root(n(2));
        table.acquire(obj(0), a, LockMode::Write, &tree).unwrap();
        assert_eq!(
            table.acquire(obj(0), b, LockMode::Write, &tree).unwrap(),
            Acquire::Queued
        );
        tree.commit_root(a);
        let mut rel = CommitRelease::default();
        table.release_root_commit(a, &tree, &[], n(1), &mut rel);
        assert_eq!(rel.released, vec![obj(0)]);
        assert_eq!(rel.grants.len(), 1);
        let grant = &rel.grants[0];
        assert_eq!(grant.object, obj(0));
        assert_eq!(grant.requests.len(), 1);
        assert_eq!(grant.requests[0].txn, b);
        assert!(table.entry(obj(0)).unwrap().is_held_by(b));
        table.check_invariants(&tree).unwrap();
    }

    #[test]
    fn nested_inheritance_chain_reaches_root() {
        let (mut tree, mut table) = setup(1);
        let r = tree.begin_root(n(1));
        let c = tree.begin_child(r);
        let g = tree.begin_child(c);
        table.acquire(obj(0), g, LockMode::Write, &tree).unwrap();
        tree.pre_commit(g);
        table.release_pre_commit(g, &tree, &mut PreCommitRelease::default());
        assert!(table.entry(obj(0)).unwrap().is_retained_by(c));
        tree.pre_commit(c);
        table.release_pre_commit(c, &tree, &mut PreCommitRelease::default());
        assert!(table.entry(obj(0)).unwrap().is_retained_by(r));
        assert!(!table.entry(obj(0)).unwrap().is_retained_by(c));
        // Only root commit frees it for others.
        let foreign = tree.begin_root(n(2));
        assert_eq!(
            table
                .acquire(obj(0), foreign, LockMode::Write, &tree)
                .unwrap(),
            Acquire::Queued
        );
        tree.commit_root(r);
        let mut rel = CommitRelease::default();
        table.release_root_commit(r, &tree, &[], n(1), &mut rel);
        assert_eq!(rel.grants.len(), 1);
        assert_eq!(rel.grants[0].requests[0].txn, foreign);
    }

    #[test]
    fn abort_returns_lock_to_retaining_ancestor() {
        let (mut tree, mut table) = setup(1);
        let r = tree.begin_root(n(1));
        let c1 = tree.begin_child(r);
        table.acquire(obj(0), c1, LockMode::Write, &tree).unwrap();
        tree.pre_commit(c1);
        table.release_pre_commit(c1, &tree, &mut PreCommitRelease::default());
        // c2 acquires from r's retention, then aborts.
        let c2 = tree.begin_child(r);
        table.acquire(obj(0), c2, LockMode::Write, &tree).unwrap();
        tree.abort(c2);
        let mut rel = AbortRelease::default();
        table.release_abort(c2, &tree, &mut rel);
        assert_eq!(rel.returned_to_ancestor, vec![obj(0)]);
        assert!(rel.released.is_empty());
        assert!(
            table.entry(obj(0)).unwrap().is_retained_by(r),
            "r retains again"
        );
        table.check_invariants(&tree).unwrap();
    }

    #[test]
    fn abort_without_retaining_ancestor_releases() {
        let (mut tree, mut table) = setup(1);
        let r = tree.begin_root(n(1));
        let c = tree.begin_child(r);
        table.acquire(obj(0), c, LockMode::Write, &tree).unwrap();
        let foreign = tree.begin_root(n(2));
        assert_eq!(
            table
                .acquire(obj(0), foreign, LockMode::Read, &tree)
                .unwrap(),
            Acquire::Queued
        );
        tree.abort(c);
        let mut rel = AbortRelease::default();
        table.release_abort(c, &tree, &mut rel);
        assert_eq!(rel.released, vec![obj(0)]);
        assert_eq!(rel.grants.len(), 1, "foreign family granted after abort");
        assert_eq!(rel.grants[0].requests[0].txn, foreign);
    }

    #[test]
    fn read_batching_grants_consecutive_reader_families() {
        let (mut tree, mut table) = setup(1);
        let w = tree.begin_root(n(1));
        table.acquire(obj(0), w, LockMode::Write, &tree).unwrap();
        let r1 = tree.begin_root(n(2));
        let r2 = tree.begin_root(n(3));
        let w2 = tree.begin_root(n(4));
        table.acquire(obj(0), r1, LockMode::Read, &tree).unwrap();
        table.acquire(obj(0), r2, LockMode::Read, &tree).unwrap();
        table.acquire(obj(0), w2, LockMode::Write, &tree).unwrap();
        tree.commit_root(w);
        let mut rel = CommitRelease::default();
        table.release_root_commit(w, &tree, &[], n(1), &mut rel);
        // Both reader families granted together; writer still waits.
        assert_eq!(rel.grants.len(), 2);
        assert_eq!(table.entry(obj(0)).unwrap().read_count(), 2);
        assert_eq!(table.entry(obj(0)).unwrap().num_waiting(), 1);
    }

    #[test]
    fn fifo_prevents_barging_past_queued_family() {
        let (mut tree, mut table) = setup(1);
        let a = tree.begin_root(n(1));
        table.acquire(obj(0), a, LockMode::Read, &tree).unwrap();
        let w = tree.begin_root(n(2));
        assert_eq!(
            table.acquire(obj(0), w, LockMode::Write, &tree).unwrap(),
            Acquire::Queued
        );
        // A new foreign reader would be compatible with the held read lock,
        // but must not barge past the queued writer.
        let late = tree.begin_root(n(3));
        assert_eq!(
            table.acquire(obj(0), late, LockMode::Read, &tree).unwrap(),
            Acquire::Queued
        );
    }

    #[test]
    fn descendant_bypasses_foreign_queue_for_retained_lock() {
        // Regression: a foreign family queued on a retained lock must not
        // make the retainer's own descendants queue behind it — they are
        // entitled to the lock (Alg. 4.1) and queueing would manufacture a
        // guaranteed deadlock.
        let (mut tree, mut table) = setup(1);
        let r = tree.begin_root(n(1));
        let c1 = tree.begin_child(r);
        table.acquire(obj(0), c1, LockMode::Write, &tree).unwrap();
        tree.pre_commit(c1);
        table.release_pre_commit(c1, &tree, &mut PreCommitRelease::default());
        // Foreign family queues on the retained lock.
        let foreign = tree.begin_root(n(2));
        assert_eq!(
            table
                .acquire(obj(0), foreign, LockMode::Write, &tree)
                .unwrap(),
            Acquire::Queued
        );
        // A second child of r must still get the lock locally.
        let c2 = tree.begin_child(r);
        assert_eq!(
            table.acquire(obj(0), c2, LockMode::Write, &tree).unwrap(),
            Acquire::LocalGrant
        );
        table.check_invariants(&tree).unwrap();
    }

    #[test]
    fn regrant_after_cancel_wakes_blocked_waiters() {
        // Regression: removing a cancelled family's queue entry must allow
        // the family behind it to be granted, or it waits forever.
        let (mut tree, mut table) = setup(1);
        let holder = tree.begin_root(n(1));
        table
            .acquire(obj(0), holder, LockMode::Read, &tree)
            .unwrap();
        let victim = tree.begin_root(n(2));
        assert_eq!(
            table
                .acquire(obj(0), victim, LockMode::Write, &tree)
                .unwrap(),
            Acquire::Queued
        );
        let reader = tree.begin_root(n(3));
        assert_eq!(
            table
                .acquire(obj(0), reader, LockMode::Read, &tree)
                .unwrap(),
            Acquire::Queued
        );
        // The victim family is aborted while waiting; its entry vanishes.
        tree.abort(victim);
        let touched = table.cancel_family_waiters(victim, &tree);
        assert_eq!(touched, vec![obj(0)]);
        // The reader behind it is now compatible with the held read lock.
        let grants = table.regrant(&touched, &tree);
        assert_eq!(grants.len(), 1);
        assert_eq!(grants[0].requests[0].txn, reader);
        assert!(table.entry(obj(0)).unwrap().is_held_by(reader));
        table.check_invariants(&tree).unwrap();
    }

    #[test]
    fn read_to_write_upgrade_when_sole_holder() {
        let (mut tree, mut table) = setup(1);
        let r = tree.begin_root(n(1));
        table.acquire(obj(0), r, LockMode::Read, &tree).unwrap();
        let got = table.acquire(obj(0), r, LockMode::Write, &tree).unwrap();
        assert!(got.is_granted());
        assert_eq!(
            table.entry(obj(0)).unwrap().held_mode(r),
            Some(LockMode::Write)
        );
    }

    #[test]
    fn upgrade_blocked_by_other_reader_queues() {
        let (mut tree, mut table) = setup(1);
        let a = tree.begin_root(n(1));
        let b = tree.begin_root(n(2));
        table.acquire(obj(0), a, LockMode::Read, &tree).unwrap();
        table.acquire(obj(0), b, LockMode::Read, &tree).unwrap();
        assert_eq!(
            table.acquire(obj(0), a, LockMode::Write, &tree).unwrap(),
            Acquire::Queued
        );
    }

    #[test]
    fn queued_upgrade_is_granted_in_place() {
        let (mut tree, mut table) = setup(1);
        table.enable_graph_validation();
        let a = tree.begin_root(n(1));
        let b = tree.begin_root(n(2));
        let c = tree.begin_root(n(3));
        table.acquire(obj(0), a, LockMode::Read, &tree).unwrap();
        table.acquire(obj(0), b, LockMode::Read, &tree).unwrap();
        assert_eq!(
            table.acquire(obj(0), a, LockMode::Write, &tree).unwrap(),
            Acquire::Queued
        );

        // B's commit admits A's upgrade: A's read holder becomes a write
        // holder, and the grant counts one holder, not two records of A.
        let mut release = CommitRelease::default();
        table.release_root_commit(b, &tree, &[], n(2), &mut release);
        tree.commit_root(b);
        assert_eq!(release.grants.len(), 1);
        assert_eq!(release.grants[0].requests[0].txn, a);
        assert_eq!(release.grants[0].holders, 1);
        assert_eq!(
            table.entry(obj(0)).unwrap().holders(),
            &SmallList::one(Holder {
                txn: a,
                node: n(1),
                mode: LockMode::Write
            })
        );
        table.check_invariants(&tree).unwrap();

        // A's root commit leaves nothing behind, so the next writer is
        // granted at once.
        let mut release = CommitRelease::default();
        table.release_root_commit(a, &tree, &[], n(1), &mut release);
        tree.commit_root(a);
        assert_eq!(release.released, vec![obj(0)]);
        assert!(table.entry(obj(0)).unwrap().holders().is_empty());
        table.check_invariants(&tree).unwrap();
        assert_eq!(
            table.acquire(obj(0), c, LockMode::Write, &tree).unwrap(),
            Acquire::GlobalGrant { holders: 1 }
        );
        table.check_invariants(&tree).unwrap();
    }

    #[test]
    fn duplicate_acquire_rejected() {
        let (mut tree, mut table) = setup(1);
        let r = tree.begin_root(n(1));
        table.acquire(obj(0), r, LockMode::Write, &tree).unwrap();
        let err = table
            .acquire(obj(0), r, LockMode::Write, &tree)
            .unwrap_err();
        assert_eq!(
            err,
            LockError::AlreadyHeld {
                txn: r,
                object: obj(0)
            }
        );
    }

    #[test]
    fn unknown_object_rejected() {
        let (mut tree, mut table) = setup(1);
        let r = tree.begin_root(n(0));
        let err = table.acquire(obj(9), r, LockMode::Read, &tree).unwrap_err();
        assert_eq!(err, LockError::UnknownObject(obj(9)));
    }

    #[test]
    fn commit_updates_page_map_from_dirty_info() {
        let (mut tree, mut table) = setup(1);
        let r = tree.begin_root(n(3));
        table.acquire(obj(0), r, LockMode::Write, &tree).unwrap();
        tree.commit_root(r);
        let dirty = vec![(obj(0), vec![PageIndex::new(1), PageIndex::new(2)])];
        table.release_root_commit(r, &tree, &dirty, n(3), &mut CommitRelease::default());
        let map = table.page_map(obj(0)).unwrap();
        assert_eq!(map.location(PageIndex::new(1)).node, n(3));
        assert_eq!(map.location(PageIndex::new(1)).version.get(), 1);
        assert_eq!(
            map.location(PageIndex::new(0)).version.get(),
            0,
            "untouched page"
        );
    }

    #[test]
    fn cancel_family_waiters_clears_queues() {
        let (mut tree, mut table) = setup(2);
        let a = tree.begin_root(n(1));
        let b = tree.begin_root(n(2));
        table.acquire(obj(0), a, LockMode::Write, &tree).unwrap();
        table.acquire(obj(1), a, LockMode::Write, &tree).unwrap();
        table.acquire(obj(0), b, LockMode::Write, &tree).unwrap();
        table.acquire(obj(1), b, LockMode::Write, &tree).unwrap();
        let touched = table.cancel_family_waiters(b, &tree);
        assert_eq!(touched, vec![obj(0), obj(1)]);
        assert_eq!(table.entry(obj(0)).unwrap().num_waiting(), 0);
    }

    #[test]
    fn blockers_name_exactly_who_stands_between_request_and_grant() {
        let (mut tree, mut table) = setup(2);
        // O0: `w` holds Write; `x` then `y` queue for Read behind it.
        let w = tree.begin_root(n(1));
        let x = tree.begin_root(n(2));
        let y = tree.begin_root(n(3));
        table.acquire(obj(0), w, LockMode::Write, &tree).unwrap();
        for reader in [x, y] {
            assert_eq!(
                table
                    .acquire(obj(0), reader, LockMode::Read, &tree)
                    .unwrap(),
                Acquire::Queued
            );
        }
        // The conflicting holder is named, and so is the other queued
        // family — but not the requester's own.
        let mut out: [Vec<TxnId>; 3] = Default::default();
        table.blockers(obj(0), x, LockMode::Read, &tree, &mut out);
        assert_eq!(out, [vec![w], vec![], vec![y]]);

        // O1: root `r` retains Read through a pre-committed child, and a
        // foreign reader `f` holds Read.
        let r = tree.begin_root(n(4));
        let c1 = tree.begin_child(r);
        table.acquire(obj(1), c1, LockMode::Read, &tree).unwrap();
        tree.pre_commit(c1);
        table.release_pre_commit(c1, &tree, &mut PreCommitRelease::default());
        let f = tree.begin_root(n(5));
        assert!(table
            .acquire(obj(1), f, LockMode::Read, &tree)
            .unwrap()
            .is_granted());
        // r's next child wants Write: f's read blocks it, while the
        // ancestor r's conflicting read retention does not.
        let c2 = tree.begin_child(r);
        assert_eq!(
            table.acquire(obj(1), c2, LockMode::Write, &tree).unwrap(),
            Acquire::Queued
        );
        table.blockers(obj(1), c2, LockMode::Write, &tree, &mut out);
        assert_eq!(out, [vec![f], vec![], vec![]]);
        // A foreign reader queues by FIFO alone: the compatible read
        // holder and read retainer are not named, r's queued family is.
        let g = tree.begin_root(n(6));
        assert_eq!(
            table.acquire(obj(1), g, LockMode::Read, &tree).unwrap(),
            Acquire::Queued
        );
        table.blockers(obj(1), g, LockMode::Read, &tree, &mut out);
        assert_eq!(out, [vec![], vec![], vec![r]]);
        // A foreign writer is blocked by both, and by r's retention too.
        let h = tree.begin_root(n(7));
        assert_eq!(
            table.acquire(obj(1), h, LockMode::Write, &tree).unwrap(),
            Acquire::Queued
        );
        table.blockers(obj(1), h, LockMode::Write, &tree, &mut out);
        assert_eq!(out, [vec![f], vec![r], vec![r, g]]);
    }

    #[test]
    fn whole_family_lifecycle_keeps_invariants() {
        let (mut tree, mut table) = setup(3);
        let r = tree.begin_root(n(0));
        table.acquire(obj(0), r, LockMode::Read, &tree).unwrap();
        let c1 = tree.begin_child(r);
        table.acquire(obj(1), c1, LockMode::Write, &tree).unwrap();
        let g = tree.begin_child(c1);
        table.acquire(obj(2), g, LockMode::Write, &tree).unwrap();
        tree.pre_commit(g);
        table.release_pre_commit(g, &tree, &mut PreCommitRelease::default());
        table.check_invariants(&tree).unwrap();
        tree.pre_commit(c1);
        table.release_pre_commit(c1, &tree, &mut PreCommitRelease::default());
        table.check_invariants(&tree).unwrap();
        tree.commit_root(r);
        let mut rel = CommitRelease::default();
        table.release_root_commit(r, &tree, &[], n(0), &mut rel);
        assert_eq!(rel.released.len(), 3);
        table.check_invariants(&tree).unwrap();
        for i in 0..3 {
            assert_eq!(
                table.entry(obj(i)).unwrap().lock_state(),
                crate::gdo::LockState::Free
            );
        }
    }
}
