//! Nested object transactions and the nested O2PL lock manager.
//!
//! This crate implements Section 3 and the lock-management half of Section
//! 4 of the paper:
//!
//! * [`TxnTree`] — transaction families. Every method invocation is a
//!   [sub-]transaction; a user invocation starts a *root* transaction and
//!   nested invocations hang a tree below it. Unlike Moss' model, data may
//!   be accessed at any level of the tree.
//! * [`LockTable`] — the lock half of the Global Directory of Objects
//!   (GDO). Each per-object entry mirrors Figure 1 of the paper:
//!   `LockState`, `ReadCount`, the holder list (`HolderPtr`), the
//!   per-family waiter lists (`NonHoldersPtr`) and the page map.
//! * Nested object two-phase locking (**O2PL**), rules 1–5 of §4.1:
//!   acquisition respects holders and retainers; pre-commit makes the
//!   parent inherit and retain the child's locks; abort returns locks to
//!   retaining ancestors or releases them; only root commit releases locks
//!   to other families.
//! * Mutually recursive inter-object invocations are *precluded and
//!   detected at run time* (§3.4): a request for a lock held — not merely
//!   retained — by an ancestor fails with
//!   [`LockError::RecursionPrecluded`].
//! * [`deadlock`] — waits-for-graph cycle detection across families with
//!   youngest-victim selection. The paper does not discuss cross-family
//!   deadlock (classic 2PL can deadlock); detection is required for
//!   liveness of randomized workloads and exercises the abort paths. The
//!   graph is maintained *incrementally* by the lock table
//!   ([`waits_for::WaitsFor`]): each entry mutation refreshes only that
//!   object's edge contribution, the enqueue-time gate is an O(1)
//!   reverse-index lookup, and the detector walks only the nodes that
//!   can reach the newly enqueued family. The original from-scratch
//!   implementation survives in [`deadlock::reference`] as the oracle
//!   for differential and property testing.
//!
//! # Example
//!
//! ```
//! use lotec_txn::{LockMode, LockTable, TxnTree};
//! use lotec_mem::ObjectId;
//! use lotec_sim::NodeId;
//!
//! let mut tree = TxnTree::new();
//! let mut table = LockTable::new();
//! table.register_object(ObjectId::new(0), 4, NodeId::new(0));
//!
//! let root = tree.begin_root(NodeId::new(1));
//! let got = table.acquire(ObjectId::new(0), root, LockMode::Write, &tree)?;
//! assert!(got.is_granted());
//! # Ok::<(), lotec_txn::LockError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod deadlock;
pub mod gdo;
pub mod lock;
pub mod smallq;
pub mod table;
pub mod tree;
pub mod waits_for;

pub use deadlock::{
    find_deadlock_cycle, find_deadlock_cycle_through, may_deadlock_through, pick_victim,
};
pub use gdo::{gdo_home, GdoEntry, LockState, QueuedRequest};
pub use lock::LockMode;
pub use smallq::SmallQueue;
pub use table::{
    AbortRelease, Acquire, CommitRelease, Grant, LockError, LockOccupancy, LockTable,
    PreCommitRelease,
};
pub use tree::{TxnId, TxnState, TxnTree};
pub use waits_for::WaitsFor;
