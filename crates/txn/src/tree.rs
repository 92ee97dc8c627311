//! Transaction identities, states and family trees.

use std::fmt;

use lotec_sim::NodeId;

/// Identifies a [sub-]transaction. Ids are allocated monotonically by the
/// [`TxnTree`], so a smaller id always means an older transaction — the
/// property the deadlock victim selector relies on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TxnId(u64);

impl TxnId {
    /// The raw id value.
    pub const fn get(self) -> u64 {
        self.0
    }

    /// Rebuilds an id from its raw value. Crate-internal: dense reverse
    /// indexes use the raw id as a vector slot and need to map slots back.
    pub(crate) const fn from_raw(raw: u64) -> Self {
        TxnId(raw)
    }
}

impl From<TxnId> for u64 {
    fn from(txn: TxnId) -> u64 {
        txn.get()
    }
}

impl fmt::Display for TxnId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T{}", self.0)
    }
}

/// Lifecycle state of a [sub-]transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxnState {
    /// Executing (or waiting for a lock).
    Active,
    /// A sub-transaction that committed; its fate now rests with its
    /// ancestors (closed nesting).
    PreCommitted,
    /// Aborted; its effects have been undone.
    Aborted,
    /// A root transaction that committed; its family's updates are durable
    /// and visible to other families.
    Committed,
}

/// Raw id marking an absent link.
const NO_TXN: u64 = u64::MAX;

fn link(raw: u64) -> Option<TxnId> {
    (raw != NO_TXN).then_some(TxnId(raw))
}

/// One transaction. Children hang off first-child / next-sibling links
/// (plus a last-child link for O(1) appends), so a record owns no heap
/// memory and a family's tree lives entirely in the tree's one vector.
#[derive(Debug, Clone)]
struct TxnRecord {
    parent: Option<TxnId>,
    root: TxnId,
    node: NodeId,
    state: TxnState,
    depth: u32,
    first_child: u64,
    last_child: u64,
    next_sibling: u64,
}

impl TxnRecord {
    fn new(parent: Option<TxnId>, root: TxnId, node: NodeId, depth: u32) -> Self {
        TxnRecord {
            parent,
            root,
            node,
            state: TxnState::Active,
            depth,
            first_child: NO_TXN,
            last_child: NO_TXN,
            next_sibling: NO_TXN,
        }
    }
}

/// All transaction families known to the system.
///
/// The tree answers the structural questions O2PL depends on — parenthood,
/// ancestry, family membership — and enforces the state machine
/// `Active → {PreCommitted | Aborted | Committed}`.
#[derive(Debug, Clone, Default)]
pub struct TxnTree {
    /// Indexed by raw transaction id — ids are minted sequentially, so
    /// every structural lookup (`root_of`, `state`, each `is_ancestor`
    /// hop) is an array index. These queries sit on the lock table's
    /// per-acquisition hot path and inside the waits-for refresh.
    records: Vec<TxnRecord>,
}

impl TxnTree {
    /// Creates an empty tree.
    pub fn new() -> Self {
        Self::default()
    }

    /// Starts a new root transaction (a user-level method invocation)
    /// executing at `node`. The whole family will execute at that site.
    pub fn begin_root(&mut self, node: NodeId) -> TxnId {
        let id = TxnId(self.records.len() as u64);
        self.records.push(TxnRecord::new(None, id, node, 0));
        id
    }

    /// Starts a sub-transaction of `parent` (a nested method invocation).
    ///
    /// # Panics
    ///
    /// Panics if `parent` is unknown or not [`TxnState::Active`].
    pub fn begin_child(&mut self, parent: TxnId) -> TxnId {
        let (root, node, depth) = {
            let p = self.record(parent);
            assert_eq!(p.state, TxnState::Active, "parent {parent} is not active");
            (p.root, p.node, p.depth + 1)
        };
        let id = TxnId(self.records.len() as u64);
        self.records
            .push(TxnRecord::new(Some(parent), root, node, depth));
        let last = std::mem::replace(&mut self.records[parent.0 as usize].last_child, id.0);
        match last {
            NO_TXN => self.records[parent.0 as usize].first_child = id.0,
            prev => self.records[prev as usize].next_sibling = id.0,
        }
        id
    }

    fn record(&self, txn: TxnId) -> &TxnRecord {
        self.records
            .get(txn.0 as usize)
            .unwrap_or_else(|| panic!("unknown transaction {txn}"))
    }

    /// The transaction's current state.
    ///
    /// # Panics
    ///
    /// Panics if `txn` is unknown.
    pub fn state(&self, txn: TxnId) -> TxnState {
        self.record(txn).state
    }

    /// The transaction's parent, or `None` for roots.
    ///
    /// # Panics
    ///
    /// Panics if `txn` is unknown.
    pub fn parent(&self, txn: TxnId) -> Option<TxnId> {
        self.record(txn).parent
    }

    /// The root of the transaction's family.
    ///
    /// Inlined: the incremental waits-for refresh resolves the family of
    /// every holder and retainer of a mutated entry through this lookup.
    ///
    /// # Panics
    ///
    /// Panics if `txn` is unknown.
    #[inline]
    pub fn root_of(&self, txn: TxnId) -> TxnId {
        self.record(txn).root
    }

    /// The node the transaction's family executes at.
    ///
    /// # Panics
    ///
    /// Panics if `txn` is unknown.
    pub fn node_of(&self, txn: TxnId) -> NodeId {
        self.record(txn).node
    }

    /// Nesting depth (0 for roots).
    ///
    /// # Panics
    ///
    /// Panics if `txn` is unknown.
    pub fn depth(&self, txn: TxnId) -> u32 {
        self.record(txn).depth
    }

    /// Direct children, in creation order.
    ///
    /// # Panics
    ///
    /// Panics if `txn` is unknown.
    pub fn children(&self, txn: TxnId) -> impl Iterator<Item = TxnId> + '_ {
        let mut next = self.record(txn).first_child;
        std::iter::from_fn(move || {
            let child = link(next)?;
            next = self.records[child.0 as usize].next_sibling;
            Some(child)
        })
    }

    /// True if `a` and `b` belong to the same family.
    ///
    /// # Panics
    ///
    /// Panics if either id is unknown.
    pub fn same_family(&self, a: TxnId, b: TxnId) -> bool {
        self.root_of(a) == self.root_of(b)
    }

    /// True if `ancestor` is a *proper or improper* ancestor of `txn`
    /// (every transaction is its own ancestor, matching Moss' usage in the
    /// lock rules: a transaction may reacquire what it retains).
    ///
    /// # Panics
    ///
    /// Panics if either id is unknown.
    pub fn is_ancestor(&self, ancestor: TxnId, txn: TxnId) -> bool {
        let mut cur = Some(txn);
        while let Some(t) = cur {
            if t == ancestor {
                return true;
            }
            cur = self.record(t).parent;
        }
        false
    }

    /// Marks `txn` pre-committed.
    ///
    /// # Panics
    ///
    /// Panics if `txn` is not active, is a root (roots *commit*), or still
    /// has active children — rule 3 of §4.1: a transaction cannot
    /// pre-commit until all its sub-transactions have finished.
    pub fn pre_commit(&mut self, txn: TxnId) {
        assert!(
            self.record(txn).parent.is_some(),
            "{txn} is a root; use commit_root"
        );
        self.transition(txn, TxnState::PreCommitted);
    }

    /// Marks a root transaction committed.
    ///
    /// # Panics
    ///
    /// Panics if `txn` is not an active root or has active children.
    pub fn commit_root(&mut self, txn: TxnId) {
        assert!(self.record(txn).parent.is_none(), "{txn} is not a root");
        self.transition(txn, TxnState::Committed);
    }

    /// Marks `txn` aborted.
    ///
    /// # Panics
    ///
    /// Panics if `txn` is not active or has active children (abort the
    /// subtree bottom-up; see [`TxnTree::subtree_post_order`]).
    pub fn abort(&mut self, txn: TxnId) {
        self.transition(txn, TxnState::Aborted);
    }

    fn transition(&mut self, txn: TxnId, to: TxnState) {
        let active_children = self
            .children(txn)
            .filter(|&c| self.record(c).state == TxnState::Active)
            .count();
        assert_eq!(
            active_children, 0,
            "{txn} still has {active_children} active children"
        );
        let rec = &mut self.records[txn.0 as usize];
        assert_eq!(rec.state, TxnState::Active, "{txn} is not active");
        rec.state = to;
    }

    /// The subtree rooted at `txn` in post order (children before parents)
    /// — the order in which a cascading abort must proceed.
    ///
    /// # Panics
    ///
    /// Panics if `txn` is unknown.
    pub fn subtree_post_order(&self, txn: TxnId) -> Vec<TxnId> {
        let mut out = Vec::new();
        self.post_order_into(txn, &mut out);
        out
    }

    fn post_order_into(&self, txn: TxnId, out: &mut Vec<TxnId>) {
        for child in self.children(txn) {
            self.post_order_into(child, out);
        }
        out.push(txn);
    }

    /// Members of the subtree rooted at `txn` that are not yet terminal
    /// (active), post order.
    pub fn active_subtree_post_order(&self, txn: TxnId) -> Vec<TxnId> {
        let mut members = self.subtree_post_order(txn);
        members.retain(|&t| self.record(t).state == TxnState::Active);
        members
    }

    /// Total number of transactions ever begun.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True if no transaction has ever begun.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    #[test]
    fn root_creation() {
        let mut tree = TxnTree::new();
        let r = tree.begin_root(n(3));
        assert_eq!(tree.state(r), TxnState::Active);
        assert_eq!(tree.parent(r), None);
        assert_eq!(tree.root_of(r), r);
        assert_eq!(tree.node_of(r), n(3));
        assert_eq!(tree.depth(r), 0);
        assert_eq!(tree.len(), 1);
    }

    #[test]
    fn ids_are_monotonic() {
        let mut tree = TxnTree::new();
        let a = tree.begin_root(n(0));
        let b = tree.begin_root(n(0));
        let c = tree.begin_child(a);
        assert!(a < b && b < c);
    }

    #[test]
    fn family_structure() {
        let mut tree = TxnTree::new();
        let r = tree.begin_root(n(0));
        let c1 = tree.begin_child(r);
        let c2 = tree.begin_child(r);
        let g = tree.begin_child(c1);
        assert_eq!(tree.root_of(g), r);
        assert_eq!(tree.depth(g), 2);
        assert_eq!(tree.children(r).collect::<Vec<_>>(), [c1, c2]);
        assert_eq!(tree.children(c1).collect::<Vec<_>>(), [g]);
        assert_eq!(tree.children(g).count(), 0);
        assert!(tree.same_family(g, c2));
        let other = tree.begin_root(n(1));
        assert!(!tree.same_family(g, other));
        // Children inherit the family's node.
        assert_eq!(tree.node_of(g), n(0));
    }

    #[test]
    fn ancestry_is_reflexive_and_transitive() {
        let mut tree = TxnTree::new();
        let r = tree.begin_root(n(0));
        let c = tree.begin_child(r);
        let g = tree.begin_child(c);
        assert!(tree.is_ancestor(r, g));
        assert!(tree.is_ancestor(c, g));
        assert!(tree.is_ancestor(g, g), "ancestry includes self");
        assert!(!tree.is_ancestor(g, r));
        let sibling = tree.begin_child(r);
        assert!(!tree.is_ancestor(c, sibling));
    }

    #[test]
    fn lifecycle_transitions() {
        let mut tree = TxnTree::new();
        let r = tree.begin_root(n(0));
        let c = tree.begin_child(r);
        tree.pre_commit(c);
        assert_eq!(tree.state(c), TxnState::PreCommitted);
        tree.commit_root(r);
        assert_eq!(tree.state(r), TxnState::Committed);
    }

    #[test]
    #[should_panic(expected = "active children")]
    fn cannot_precommit_with_active_children() {
        let mut tree = TxnTree::new();
        let r = tree.begin_root(n(0));
        let c = tree.begin_child(r);
        let _g = tree.begin_child(c);
        tree.pre_commit(c);
    }

    #[test]
    #[should_panic(expected = "is a root")]
    fn roots_do_not_precommit() {
        let mut tree = TxnTree::new();
        let r = tree.begin_root(n(0));
        tree.pre_commit(r);
    }

    #[test]
    #[should_panic(expected = "is not a root")]
    fn children_do_not_root_commit() {
        let mut tree = TxnTree::new();
        let r = tree.begin_root(n(0));
        let c = tree.begin_child(r);
        tree.commit_root(c);
    }

    #[test]
    #[should_panic(expected = "is not active")]
    fn no_double_commit() {
        let mut tree = TxnTree::new();
        let r = tree.begin_root(n(0));
        tree.commit_root(r);
        tree.commit_root(r);
    }

    #[test]
    #[should_panic(expected = "is not active")]
    fn cannot_spawn_under_precommitted_parent() {
        let mut tree = TxnTree::new();
        let r = tree.begin_root(n(0));
        let c = tree.begin_child(r);
        tree.pre_commit(c);
        tree.begin_child(c);
    }

    #[test]
    fn post_order_visits_children_first() {
        let mut tree = TxnTree::new();
        let r = tree.begin_root(n(0));
        let c1 = tree.begin_child(r);
        let g = tree.begin_child(c1);
        let c2 = tree.begin_child(r);
        assert_eq!(tree.subtree_post_order(r), vec![g, c1, c2, r]);
    }

    #[test]
    fn active_subtree_skips_terminal() {
        let mut tree = TxnTree::new();
        let r = tree.begin_root(n(0));
        let c1 = tree.begin_child(r);
        let c2 = tree.begin_child(r);
        tree.pre_commit(c1);
        assert_eq!(tree.active_subtree_post_order(r), vec![c2, r]);
    }

    #[test]
    fn abort_allowed_after_children_terminal() {
        let mut tree = TxnTree::new();
        let r = tree.begin_root(n(0));
        let c = tree.begin_child(r);
        tree.abort(c);
        assert_eq!(tree.state(c), TxnState::Aborted);
        tree.abort(r);
        assert_eq!(tree.state(r), TxnState::Aborted);
    }
}
