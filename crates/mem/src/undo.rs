//! Sub-transaction UNDO: undo logging and shadow paging.
//!
//! The paper (§4.1, Algorithm 4.3) notes that "the UNDO operations required
//! by the `LocalLockRelease` routine may be done using either local UNDO
//! logs or shadow pages. In either case, no network communication is
//! required." Both strategies are implemented behind the [`Recovery`]
//! trait so the execution engine (and the recovery ablation bench) can
//! switch between them.

use std::collections::BTreeMap;

use lotec_sim::KeyedLists;

use crate::ids::{ObjectId, PageId};
use crate::page::Page;
use crate::store::PageStore;

/// A recovery strategy: capture page pre-images when a transaction first
/// touches a page, and either discard them (commit) or reapply them
/// (abort).
///
/// `token` identifies the [sub-]transaction whose writes are being guarded;
/// the engine uses raw transaction ids. Implementations are purely local —
/// rollback never generates network traffic.
pub trait Recovery {
    /// Records the pre-image of `page` for transaction `token` if this is
    /// the transaction's first write to that page.
    fn before_write(&mut self, token: u64, store: &PageStore<'_>, page: PageId);

    /// Discards transaction `token`'s pre-images (it pre-committed; its
    /// parent — or the root commit — now owns the fate of the data).
    fn forget(&mut self, token: u64);

    /// Restores every page `token` touched to its pre-image and returns how
    /// many pages it restored.
    fn rollback(&mut self, token: u64, store: &mut PageStore<'_>) -> usize;

    /// Moves `token`'s pre-images to `parent` *underneath* any pre-image the
    /// parent already holds (the parent's pre-image is older and wins).
    ///
    /// Used at sub-transaction pre-commit under closed nesting: if an
    /// ancestor later aborts, the child's committed writes must roll back
    /// with it.
    fn inherit(&mut self, token: u64, parent: u64);
}

/// Pre-image kept for one page: the page's version and chain, copied by
/// value, or `None` when the page did not exist locally before the write.
type PreImage = Option<Page>;

fn capture(store: &PageStore<'_>, page: PageId) -> PreImage {
    store.get(page).copied()
}

fn apply(store: &mut PageStore<'_>, page: PageId, pre: PreImage) {
    match pre {
        None => store.evict(page),
        Some(p) if store.contains(page) => store.restore(page, p.version(), p.chain()),
        Some(p) => store.install(page, p.version(), p.chain()),
    }
}

/// Undo-log recovery: pre-images are captured into a per-transaction log on
/// first write; rollback replays the log.
///
/// ```
/// use lotec_mem::{ObjectId, PageId, PageStore, Recovery, UndoLog};
///
/// let mut store = PageStore::new(64, &[1]);
/// let mut undo = UndoLog::new();
/// let page = PageId::new(ObjectId::new(0), 0);
/// store.ensure(page);
/// let before = store.chain(page);
///
/// undo.before_write(1, &store, page); // transaction 1 is about to write
/// store.apply_stamp(page, 42);
/// assert_ne!(store.chain(page), before);
///
/// undo.rollback(1, &mut store);       // transaction 1 aborts
/// assert_eq!(store.chain(page), before);
/// ```
#[derive(Debug, Clone, Default)]
pub struct UndoLog {
    // Per token: (page, pre-image) pairs in first-write order (first write
    // wins). A transaction touches a handful of pages, so a linear scan of
    // its list beats a tree walk on the per-write hot path. Tokens are raw
    // transaction ids, minted densely from zero, so a token is its list's
    // key, and every list links through one recycled node arena.
    logs: KeyedLists<(PageId, PreImage)>,
}

impl UndoLog {
    /// Creates an empty undo log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of transactions with live log entries.
    pub fn active_transactions(&self) -> usize {
        self.logs.non_empty()
    }

    /// Number of pre-images held for `token`.
    pub fn entries_for(&self, token: u64) -> usize {
        self.logs.iter(token as usize).count()
    }
}

impl Recovery for UndoLog {
    fn before_write(&mut self, token: u64, store: &PageStore<'_>, page: PageId) {
        let key = token as usize;
        if !self.logs.iter(key).any(|(p, _)| p == page) {
            self.logs.push(key, (page, capture(store, page)));
        }
    }

    fn forget(&mut self, token: u64) {
        let mut log = self.logs.detach(token as usize);
        while self.logs.pop(&mut log).is_some() {}
    }

    fn rollback(&mut self, token: u64, store: &mut PageStore<'_>) -> usize {
        let mut log = self.logs.detach(token as usize);
        let mut restored = 0;
        while let Some((page, pre)) = self.logs.pop(&mut log) {
            apply(store, page, pre);
            restored += 1;
        }
        restored
    }

    fn inherit(&mut self, token: u64, parent: u64) {
        let mut child = self.logs.detach(token as usize);
        let parent = parent as usize;
        while let Some((page, pre)) = self.logs.pop(&mut child) {
            // The parent's existing pre-image (if any) is older: keep it.
            if !self.logs.iter(parent).any(|(p, _)| p == page) {
                self.logs.push(parent, (page, pre));
            }
        }
    }
}

/// Shadow-page recovery: a full shadow copy of each touched page is kept;
/// rollback swaps the shadows back in.
///
/// Functionally equivalent to [`UndoLog`] in this simulator (both capture
/// whole-page pre-images); kept as a distinct type because the paper names
/// both. The recovery ablation (`repro ablation_recovery`) runs the same
/// workload under each and prints identical commits, aborts, bytes and
/// messages for the two.
#[derive(Debug, Clone, Default)]
pub struct ShadowPages {
    shadows: BTreeMap<(u64, PageId), PreImage>,
}

impl ShadowPages {
    /// Creates an empty shadow table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Removes and returns `token`'s shadow of its lowest page, if any:
    /// one seek into the token's key range, so draining a token costs its
    /// own shadows only.
    fn pop(&mut self, token: u64) -> Option<(PageId, PreImage)> {
        let first = (token, PageId::new(ObjectId::new(0), 0));
        let (&key, _) = self.shadows.range(first..).next()?;
        if key.0 != token {
            return None;
        }
        self.shadows.remove(&key).map(|pre| (key.1, pre))
    }

    /// Number of shadow pages currently held.
    pub fn len(&self) -> usize {
        self.shadows.len()
    }

    /// True when no shadows are held.
    pub fn is_empty(&self) -> bool {
        self.shadows.is_empty()
    }
}

impl Recovery for ShadowPages {
    fn before_write(&mut self, token: u64, store: &PageStore<'_>, page: PageId) {
        self.shadows
            .entry((token, page))
            .or_insert_with(|| capture(store, page));
    }

    fn forget(&mut self, token: u64) {
        while self.pop(token).is_some() {}
    }

    fn rollback(&mut self, token: u64, store: &mut PageStore<'_>) -> usize {
        let mut restored = 0;
        while let Some((page, pre)) = self.pop(token) {
            apply(store, page, pre);
            restored += 1;
        }
        restored
    }

    fn inherit(&mut self, token: u64, parent: u64) {
        while let Some((page, pre)) = self.pop(token) {
            self.shadows.entry((parent, page)).or_insert(pre);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::Version;

    fn pid(o: u32, i: u16) -> PageId {
        PageId::new(ObjectId::new(o), i)
    }

    fn check_roundtrip<R: Recovery>(mut rec: R) {
        let mut store = PageStore::new(8, &[2]);
        store.install(pid(0, 0), Version::new(2), 7);
        let before = store.chain(pid(0, 0));

        rec.before_write(1, &store, pid(0, 0));
        store.apply_stamp(pid(0, 0), 99);
        rec.before_write(1, &store, pid(0, 1)); // page absent before
        store.apply_stamp(pid(0, 1), 99);

        assert_ne!(store.chain(pid(0, 0)), before);
        assert_eq!(rec.rollback(1, &mut store), 2);
        assert_eq!(store.chain(pid(0, 0)), before);
        assert_eq!(store.version_of(pid(0, 0)), Some(Version::new(2)));
        assert!(
            !store.contains(pid(0, 1)),
            "absent page evicted on rollback"
        );
    }

    #[test]
    fn undo_log_roundtrip() {
        check_roundtrip(UndoLog::new());
    }

    #[test]
    fn shadow_pages_roundtrip() {
        check_roundtrip(ShadowPages::new());
    }

    fn check_first_write_wins<R: Recovery>(mut rec: R) {
        let mut store = PageStore::new(8, &[2]);
        store.install(pid(0, 0), Version::new(1), 5);
        let original = store.chain(pid(0, 0));
        rec.before_write(1, &store, pid(0, 0));
        store.apply_stamp(pid(0, 0), 1);
        // A second before_write must NOT re-capture the modified page.
        rec.before_write(1, &store, pid(0, 0));
        store.apply_stamp(pid(0, 0), 2);
        rec.rollback(1, &mut store);
        assert_eq!(store.chain(pid(0, 0)), original);
    }

    #[test]
    fn undo_log_first_write_wins() {
        check_first_write_wins(UndoLog::new());
    }

    #[test]
    fn shadow_first_write_wins() {
        check_first_write_wins(ShadowPages::new());
    }

    fn check_inherit_then_parent_abort<R: Recovery>(mut rec: R) {
        let mut store = PageStore::new(8, &[2]);
        store.install(pid(0, 0), Version::new(1), 3);
        let original = store.chain(pid(0, 0));

        // Child (token 2) writes, pre-commits; parent (token 1) inherits.
        rec.before_write(2, &store, pid(0, 0));
        store.apply_stamp(pid(0, 0), 20);
        rec.inherit(2, 1);

        // Parent writes the same page afterwards: its pre-image must not
        // overwrite the inherited (older) one.
        rec.before_write(1, &store, pid(0, 0));
        store.apply_stamp(pid(0, 0), 10);

        // Parent aborts: the *original* content returns.
        rec.rollback(1, &mut store);
        assert_eq!(store.chain(pid(0, 0)), original);
    }

    #[test]
    fn undo_log_inherit_then_parent_abort() {
        check_inherit_then_parent_abort(UndoLog::new());
    }

    #[test]
    fn shadow_inherit_then_parent_abort() {
        check_inherit_then_parent_abort(ShadowPages::new());
    }

    #[test]
    fn forget_discards_preimages() {
        let mut rec = UndoLog::new();
        let mut store = PageStore::new(8, &[2]);
        rec.before_write(1, &store, pid(0, 0));
        store.apply_stamp(pid(0, 0), 1);
        let after = store.chain(pid(0, 0));
        rec.forget(1);
        assert_eq!(rec.rollback(1, &mut store), 0);
        assert_eq!(
            store.chain(pid(0, 0)),
            after,
            "forgotten txn can't roll back"
        );
    }

    /// Logs of several tokens interleave in one arena; draining one (by
    /// rollback, inheritance or forgetting) leaves the others intact.
    #[test]
    fn undo_logs_of_interleaved_tokens_stay_apart() {
        let mut rec = UndoLog::new();
        let mut store = PageStore::new(8, &[2]);
        rec.before_write(1, &store, pid(0, 0));
        rec.before_write(3, &store, pid(0, 0));
        rec.before_write(1, &store, pid(0, 1));
        assert_eq!(rec.active_transactions(), 2);
        assert_eq!(rec.rollback(1, &mut store), 2);
        assert_eq!(rec.active_transactions(), 1);
        rec.before_write(4, &store, pid(0, 1));
        rec.before_write(4, &store, pid(0, 0));
        rec.inherit(4, 3);
        assert_eq!(rec.entries_for(3), 2, "page 0 kept its older pre-image");
        assert_eq!(rec.entries_for(4), 0);
        rec.forget(3);
        assert_eq!(rec.active_transactions(), 0);
    }

    #[test]
    fn shadow_forget_drops_only_its_own_token() {
        let mut rec = ShadowPages::new();
        let mut store = PageStore::new(8, &[2]);
        for token in 1..=3 {
            for p in 0..2 {
                rec.before_write(token, &store, pid(0, p));
            }
        }
        rec.forget(2);
        assert_eq!(rec.len(), 4);
        assert_eq!(rec.rollback(2, &mut store), 0);
        assert_eq!(rec.rollback(1, &mut store), 2);
        assert_eq!(rec.rollback(3, &mut store), 2);
        assert!(rec.is_empty());
    }

    #[test]
    fn rollback_of_unknown_token_is_noop() {
        let mut rec = ShadowPages::new();
        let mut store = PageStore::new(8, &[2]);
        assert_eq!(rec.rollback(42, &mut store), 0);
    }

    #[test]
    fn shadow_rollback_only_touches_own_token() {
        let mut rec = ShadowPages::new();
        let mut store = PageStore::new(8, &[2]);
        store.install(pid(0, 0), Version::new(1), 1);
        store.install(pid(0, 1), Version::new(1), 2);
        rec.before_write(1, &store, pid(0, 0));
        rec.before_write(2, &store, pid(0, 1));
        store.apply_stamp(pid(0, 0), 1);
        store.apply_stamp(pid(0, 1), 2);
        let t2_chain = store.chain(pid(0, 1));
        rec.rollback(1, &mut store);
        assert_eq!(
            store.chain(pid(0, 1)),
            t2_chain,
            "token 2's pages untouched"
        );
        assert_eq!(rec.len(), 1);
    }
}
