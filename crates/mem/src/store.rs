//! One node's local page cache.

use crate::ids::{PageId, Version};
use crate::page::Page;

/// The local page cache of a single node.
///
/// A zero-initialised `u32` index by object id says where each object's
/// pages live: 0 when nothing of the object is cached here, else 1 + its
/// row. A row is created the first time the node caches a page of that
/// object, holds one slot per page index up to the highest page cached,
/// and is never dropped: evicting a page empties its slot, and recreating
/// the page reuses it. Every lookup on the simulation hot path is two
/// array indexes. A node pays four bytes per registered object, and the
/// allocator hands the index out as untouched zero pages, so a stretch of
/// objects the node never caches costs no resident memory.
///
/// Which cached pages a transaction dirtied is not tracked here: the
/// engine takes the dirty set a global lock release piggybacks (paper
/// §4.1, Alg. 4.4) from the family's write log.
#[derive(Debug, Clone)]
pub struct PageStore {
    page_size: usize,
    /// Per object id: 0 when no row exists, else 1 + the row's position.
    index: Vec<u32>,
    /// One row per object this node has cached a page of, in first-cache
    /// order; slot `p` of a row holds page `p` while it is cached.
    rows: Vec<Vec<Option<Page>>>,
    /// Number of cached pages.
    len: usize,
}

/// The slot of `page`, creating the object's row and growing it to cover
/// the page if needed.
fn slot_mut<'a>(
    index: &mut [u32],
    rows: &'a mut Vec<Vec<Option<Page>>>,
    page: PageId,
) -> &'a mut Option<Page> {
    let entry = &mut index[page.object().index() as usize];
    if *entry == 0 {
        rows.push(Vec::new());
        *entry = u32::try_from(rows.len()).expect("one row per object id");
    }
    let row = &mut rows[*entry as usize - 1];
    let p = usize::from(page.index().get());
    if row.len() <= p {
        row.resize_with(p + 1, || None);
    }
    &mut row[p]
}

impl PageStore {
    /// Creates an empty store of `page_size`-byte pages for objects
    /// `O0..O(num_objects - 1)`.
    ///
    /// # Panics
    ///
    /// Panics if `page_size < 8`: every page must be able to hold its
    /// eight-byte content chain. Every other method panics on an object id
    /// outside the store's range.
    pub fn new(page_size: usize, num_objects: usize) -> Self {
        assert!(page_size >= 8, "page size must be at least 8 bytes");
        PageStore {
            page_size,
            index: vec![0; num_objects],
            rows: Vec::new(),
            len: 0,
        }
    }

    /// The configured page size in bytes.
    pub fn page_size(&self) -> usize {
        self.page_size
    }

    /// Number of cached pages.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Bytes of page data cached locally (pages × page size). Cheap: the
    /// state sampler reads this per node at every sample tick.
    #[must_use]
    pub fn cached_bytes(&self) -> u64 {
        self.len as u64 * self.page_size as u64
    }

    /// True if `page` is cached locally (at any version).
    pub fn contains(&self, page: PageId) -> bool {
        self.get(page).is_some()
    }

    /// The cached version of `page`, if cached.
    pub fn version_of(&self, page: PageId) -> Option<Version> {
        self.get(page).map(Page::version)
    }

    /// Read-only access to a cached page.
    pub fn get(&self, page: PageId) -> Option<&Page> {
        let row = self.index[page.object().index() as usize].checked_sub(1)?;
        self.rows[row as usize]
            .get(usize::from(page.index().get()))?
            .as_ref()
    }

    /// The slot of `page` if its object has a row and the row covers it.
    fn existing_slot(&mut self, page: PageId) -> Option<&mut Option<Page>> {
        let row = self.index[page.object().index() as usize].checked_sub(1)?;
        self.rows[row as usize].get_mut(usize::from(page.index().get()))
    }

    /// The cached copy of `page`, creating a zeroed
    /// [`Version::INITIAL`] page if absent.
    fn cached_or_zeroed(&mut self, page: PageId) -> &mut Page {
        let slot = slot_mut(&mut self.index, &mut self.rows, page);
        if slot.is_none() {
            self.len += 1;
        }
        slot.get_or_insert_with(Page::default)
    }

    /// Installs (or replaces) a page received from another node: its
    /// version and content chain, copied by value.
    pub fn install(&mut self, page: PageId, version: Version, chain: u64) {
        let slot = slot_mut(&mut self.index, &mut self.rows, page);
        if slot.replace(Page::new(version, chain)).is_none() {
            self.len += 1;
        }
    }

    /// Ensures `page` exists locally, creating a zeroed
    /// [`Version::INITIAL`] page if absent. Returns its current version.
    pub fn ensure(&mut self, page: PageId) -> Version {
        self.cached_or_zeroed(page).version()
    }

    /// Folds a write `stamp` into `page`'s content chain, creating the page
    /// (zeroed) if absent. Returns the new chain.
    pub fn apply_stamp(&mut self, page: PageId, stamp: u64) -> u64 {
        self.cached_or_zeroed(page).apply_stamp(stamp)
    }

    /// The content chain of `page` (zero if the page is absent).
    pub fn chain(&self, page: PageId) -> u64 {
        self.get(page).map_or(0, Page::chain)
    }

    /// Publishes a page at `version` (its family's root has committed).
    /// Pages of one object may carry different version counters, so each
    /// page is published on its own.
    ///
    /// # Panics
    ///
    /// Panics if the page is not cached.
    pub fn publish_page(&mut self, page: PageId, version: Version) {
        self.existing_slot(page)
            .and_then(Option::as_mut)
            .expect("publish of uncached page")
            .set_version(version);
    }

    /// Replaces the full contents of `page` (used by UNDO/shadow restore).
    ///
    /// # Panics
    ///
    /// Panics if the page is not cached.
    pub fn restore(&mut self, page: PageId, version: Version, chain: u64) {
        *self
            .existing_slot(page)
            .and_then(Option::as_mut)
            .expect("restore of uncached page") = Page::new(version, chain);
    }

    /// Drops `page` from the cache entirely (used by UNDO when the page did
    /// not exist before the aborted transaction touched it). The slot stays
    /// in its row, so recreating the page reuses it.
    pub fn evict(&mut self, page: PageId) {
        if self.existing_slot(page).and_then(Option::take).is_some() {
            self.len -= 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use std::collections::{BTreeMap, BTreeSet};

    use super::*;
    use crate::ids::ObjectId;

    fn pid(o: u32, i: u16) -> PageId {
        PageId::new(ObjectId::new(o), i)
    }

    #[test]
    fn empty_store() {
        let s = PageStore::new(64, 1);
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
        assert!(!s.contains(pid(0, 0)));
        assert_eq!(s.version_of(pid(0, 0)), None);
        assert_eq!(s.chain(pid(0, 0)), 0);
    }

    #[test]
    fn install_and_read_back() {
        let mut s = PageStore::new(16, 2);
        s.install(pid(1, 0), Version::new(3), 7);
        assert!(s.contains(pid(1, 0)));
        assert_eq!(s.version_of(pid(1, 0)), Some(Version::new(3)));
        assert_eq!(s.chain(pid(1, 0)), 7);
    }

    #[test]
    fn publish_page_sets_individual_versions() {
        let mut s = PageStore::new(8, 1);
        s.apply_stamp(pid(0, 0), 1);
        s.apply_stamp(pid(0, 1), 1);
        s.publish_page(pid(0, 0), Version::new(4));
        s.publish_page(pid(0, 1), Version::new(2));
        assert_eq!(s.version_of(pid(0, 0)), Some(Version::new(4)));
        assert_eq!(s.version_of(pid(0, 1)), Some(Version::new(2)));
    }

    #[test]
    fn restore_and_evict() {
        let mut s = PageStore::new(8, 1);
        s.apply_stamp(pid(0, 0), 9);
        s.restore(pid(0, 0), Version::INITIAL, 0);
        assert_eq!(s.chain(pid(0, 0)), 0);
        s.evict(pid(0, 0));
        assert!(!s.contains(pid(0, 0)));
    }

    #[test]
    #[should_panic(expected = "at least 8 bytes")]
    fn tiny_pages_rejected() {
        PageStore::new(4, 1);
    }

    #[test]
    #[should_panic]
    fn rejects_objects_outside_the_index() {
        PageStore::new(8, 2).ensure(pid(2, 0));
    }

    /// Seeded random streams over every mutator, checked against an
    /// ordered map of pages: after each operation every observable agrees
    /// for every page a stream can reach. Object ids are spread across the
    /// index, and evictions are frequent, so pages are dropped and
    /// recreated over and over.
    #[test]
    fn store_matches_ordered_map_reference() {
        const PAGE: usize = 16;
        const SPREAD: u32 = 997;
        let objects: Vec<u32> = (0..6).map(|o| o * SPREAD).collect();
        let pages: Vec<PageId> = objects
            .iter()
            .flat_map(|&o| (0..5).map(move |p| pid(o, p)))
            .collect();
        let num_objects = *objects.last().unwrap() as usize + 1;
        let mut recreated = 0;
        for seed in 0..40 {
            let mut rng = lotec_sim::SimRng::seed_from_u64(seed);
            let mut store = PageStore::new(PAGE, num_objects);
            let mut reference: BTreeMap<PageId, Page> = BTreeMap::new();
            let mut evicted = BTreeSet::new();
            for step in 0..300 {
                let page = pages[rng.next_below(pages.len() as u64) as usize];
                let version = Version::new(rng.next_below(6));
                let at = format!("seed {seed} step {step}");
                let was_cached = reference.contains_key(&page);
                match rng.next_below(7) {
                    0 => {
                        let chain = rng.next_u64();
                        store.install(page, version, chain);
                        reference.insert(page, Page::new(version, chain));
                    }
                    1 => {
                        let expected = reference.entry(page).or_default().version();
                        assert_eq!(store.ensure(page), expected, "{at}");
                    }
                    2 => {
                        let stamp = rng.next_u64();
                        let expected = reference.entry(page).or_default().apply_stamp(stamp);
                        assert_eq!(store.apply_stamp(page, stamp), expected, "{at}");
                    }
                    3 if was_cached => {
                        store.publish_page(page, version);
                        reference.get_mut(&page).unwrap().set_version(version);
                    }
                    4 if was_cached => {
                        let chain = rng.next_u64();
                        store.restore(page, version, chain);
                        reference.insert(page, Page::new(version, chain));
                    }
                    5 | 6 => {
                        if was_cached {
                            evicted.insert(page);
                        }
                        store.evict(page);
                        reference.remove(&page);
                    }
                    // Publish or restore of an uncached page panics by
                    // contract; create the page instead.
                    _ => {
                        reference.entry(page).or_default();
                        store.ensure(page);
                    }
                }
                if !was_cached && reference.contains_key(&page) && evicted.remove(&page) {
                    recreated += 1;
                }
                for &p in &pages {
                    let expected = reference.get(&p);
                    assert_eq!(store.get(p), expected, "{at}: get({p})");
                    assert_eq!(store.contains(p), expected.is_some(), "{at}: {p}");
                    assert_eq!(store.version_of(p), expected.map(Page::version), "{at}");
                    assert_eq!(store.chain(p), expected.map_or(0, Page::chain), "{at}");
                }
                assert_eq!(store.len(), reference.len(), "{at}: len");
                assert_eq!(
                    store.cached_bytes(),
                    (reference.len() * PAGE) as u64,
                    "{at}: cached_bytes"
                );
            }
        }
        assert!(recreated > 500, "only {recreated} evicted pages came back");
    }
}
