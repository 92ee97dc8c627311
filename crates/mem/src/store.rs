//! One node's local page cache.

use crate::ids::{PageId, Version};
use crate::page::Page;

/// Slots the arena reserves with the first row, so a store caching a few
/// dozen pages grows its arena once or twice rather than at every
/// doubling from four.
const MIN_SLOTS: usize = 64;

/// The local page cache of a single node.
///
/// A zero-initialised `u32` index by object id says where each object's
/// pages live: 0 when nothing of the object is cached here, else 1 + the
/// first slot of its row. A row is created the first time the node caches
/// a page of that object and holds exactly one slot per page of the
/// object, as the layout the store was built with gives it. Rows lie back
/// to back in one flat slot arena and are never dropped: evicting a page
/// empties its slot, and recreating the page reuses it. So caching a new
/// object's page allocates nothing of the object's own, and every lookup
/// on the simulation hot path is two array indexes. A node pays four
/// bytes per registered object, and the allocator hands the index out as
/// untouched zero pages, so a stretch of objects the node never caches
/// costs no resident memory.
///
/// Which cached pages a transaction dirtied is not tracked here: the
/// engine takes the dirty set a global lock release piggybacks (paper
/// §4.1, Alg. 4.4) from the family's write log.
#[derive(Debug, Clone)]
pub struct PageStore<'a> {
    page_size: usize,
    /// Page count of every object id, which sizes its row.
    pages_per_object: &'a [u16],
    /// Per object id: 0 when no row exists, else 1 + the row's first slot.
    index: Vec<u32>,
    /// Every row, back to back in first-cache order; slot `p` of a row
    /// holds page `p` while it is cached.
    slots: Vec<Option<Page>>,
    /// Number of cached pages.
    len: usize,
}

impl<'a> PageStore<'a> {
    /// Creates an empty store of `page_size`-byte pages for objects
    /// `O0..O(n - 1)`, where object `o` spans `pages_per_object[o]` pages.
    ///
    /// # Panics
    ///
    /// Panics if `page_size < 8`: every page must be able to hold its
    /// eight-byte content chain. Every other method panics on an object id
    /// outside the store's range or a page index outside its object.
    pub fn new(page_size: usize, pages_per_object: &'a [u16]) -> Self {
        assert!(page_size >= 8, "page size must be at least 8 bytes");
        PageStore {
            page_size,
            pages_per_object,
            index: vec![0; pages_per_object.len()],
            slots: Vec::new(),
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

    /// Position of `page` in its object's row.
    fn offset(&self, page: PageId) -> usize {
        let p = page.index().get();
        let object = page.object().index() as usize;
        assert!(
            p < self.pages_per_object[object],
            "{page} is outside its object's {} pages",
            self.pages_per_object[object]
        );
        usize::from(p)
    }

    /// The slot of `page` if its object has a row here.
    fn existing(&self, page: PageId) -> Option<usize> {
        let start = self.index[page.object().index() as usize].checked_sub(1)?;
        Some(start as usize + self.offset(page))
    }

    /// The slot of `page`, creating its object's row if needed.
    fn slot(&mut self, page: PageId) -> usize {
        let offset = self.offset(page);
        let object = page.object().index() as usize;
        if self.index[object] == 0 {
            let start = self.slots.len();
            if self.slots.capacity() == 0 {
                self.slots.reserve(MIN_SLOTS);
            }
            self.slots
                .resize(start + usize::from(self.pages_per_object[object]), None);
            self.index[object] = u32::try_from(start + 1).expect("slot arena fits u32");
        }
        self.index[object] as usize - 1 + offset
    }

    /// Read-only access to a cached page.
    pub fn get(&self, page: PageId) -> Option<&Page> {
        self.slots[self.existing(page)?].as_ref()
    }

    /// The cached copy of `page`, creating a zeroed
    /// [`Version::INITIAL`] page if absent.
    fn cached_or_zeroed(&mut self, page: PageId) -> &mut Page {
        let slot = self.slot(page);
        let slot = &mut self.slots[slot];
        if slot.is_none() {
            self.len += 1;
        }
        slot.get_or_insert_with(Page::default)
    }

    /// Installs (or replaces) a page received from another node: its
    /// version and content chain, copied by value.
    pub fn install(&mut self, page: PageId, version: Version, chain: u64) {
        let slot = self.slot(page);
        if self.slots[slot]
            .replace(Page::new(version, chain))
            .is_none()
        {
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

    /// The cached page, for an update.
    ///
    /// # Panics
    ///
    /// Panics if the page is not cached, naming `what` was attempted.
    fn cached_mut(&mut self, page: PageId, what: &str) -> &mut Page {
        self.existing(page)
            .and_then(|slot| self.slots[slot].as_mut())
            .unwrap_or_else(|| panic!("{what} of uncached page"))
    }

    /// Publishes a page at `version` (its family's root has committed).
    /// Pages of one object may carry different version counters, so each
    /// page is published on its own.
    ///
    /// # Panics
    ///
    /// Panics if the page is not cached.
    pub fn publish_page(&mut self, page: PageId, version: Version) {
        self.cached_mut(page, "publish").set_version(version);
    }

    /// Replaces the full contents of `page` (used by UNDO/shadow restore).
    ///
    /// # Panics
    ///
    /// Panics if the page is not cached.
    pub fn restore(&mut self, page: PageId, version: Version, chain: u64) {
        *self.cached_mut(page, "restore") = Page::new(version, chain);
    }

    /// Drops `page` from the cache entirely (used by UNDO when the page did
    /// not exist before the aborted transaction touched it). The slot stays
    /// in its row, so recreating the page reuses it.
    pub fn evict(&mut self, page: PageId) {
        if let Some(slot) = self.existing(page) {
            if self.slots[slot].take().is_some() {
                self.len -= 1;
            }
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
        let s = PageStore::new(64, &[1]);
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
        assert!(!s.contains(pid(0, 0)));
        assert_eq!(s.version_of(pid(0, 0)), None);
        assert_eq!(s.chain(pid(0, 0)), 0);
    }

    #[test]
    fn install_and_read_back() {
        let mut s = PageStore::new(16, &[1, 1]);
        s.install(pid(1, 0), Version::new(3), 7);
        assert!(s.contains(pid(1, 0)));
        assert_eq!(s.version_of(pid(1, 0)), Some(Version::new(3)));
        assert_eq!(s.chain(pid(1, 0)), 7);
    }

    #[test]
    fn publish_page_sets_individual_versions() {
        let mut s = PageStore::new(8, &[2]);
        s.apply_stamp(pid(0, 0), 1);
        s.apply_stamp(pid(0, 1), 1);
        s.publish_page(pid(0, 0), Version::new(4));
        s.publish_page(pid(0, 1), Version::new(2));
        assert_eq!(s.version_of(pid(0, 0)), Some(Version::new(4)));
        assert_eq!(s.version_of(pid(0, 1)), Some(Version::new(2)));
    }

    #[test]
    fn restore_and_evict() {
        let mut s = PageStore::new(8, &[1]);
        s.apply_stamp(pid(0, 0), 9);
        s.restore(pid(0, 0), Version::INITIAL, 0);
        assert_eq!(s.chain(pid(0, 0)), 0);
        s.evict(pid(0, 0));
        assert!(!s.contains(pid(0, 0)));
    }

    #[test]
    #[should_panic(expected = "at least 8 bytes")]
    fn tiny_pages_rejected() {
        PageStore::new(4, &[1]);
    }

    #[test]
    #[should_panic]
    fn rejects_objects_outside_the_index() {
        PageStore::new(8, &[1, 1]).ensure(pid(2, 0));
    }

    #[test]
    #[should_panic(expected = "outside its object's 2 pages")]
    fn rejects_pages_outside_their_object() {
        PageStore::new(8, &[2, 3]).ensure(pid(0, 2));
    }

    /// A row is created on an object's first cached page and holds
    /// exactly that object's pages, right after the rows created before
    /// it; caching further pages of an object with a row adds no slot.
    #[test]
    fn rows_are_exactly_sized_and_back_to_back() {
        let layout = [3u16, 1, 8, 2];
        let mut s = PageStore::new(8, &layout);
        let mut expected = 0;
        for (object, pages) in [(2u32, 8u16), (0, 3), (3, 2)] {
            s.ensure(pid(object, pages - 1));
            expected += usize::from(pages);
            assert_eq!(s.slots.len(), expected);
            for p in 0..pages {
                s.apply_stamp(pid(object, p), u64::from(p) + 1);
            }
            assert_eq!(s.slots.len(), expected, "a row never grows");
        }
        assert_eq!(s.index, [9, 0, 1, 12]);
        // Neighbouring rows never see each other's pages.
        assert_eq!(s.chain(pid(2, 7)), crate::page::mix(0, 8));
        assert_eq!(s.chain(pid(0, 0)), crate::page::mix(0, 1));
        assert!(!s.contains(pid(1, 0)));
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
        // Rows of 1 to 5 pages: an off-by-one between neighbouring rows
        // would show as a page of one object changing another's.
        let layout: Vec<u16> = (0..=objects[5]).map(|o| 1 + (o % 5) as u16).collect();
        let pages: Vec<PageId> = objects
            .iter()
            .flat_map(|&o| (0..layout[o as usize]).map(move |p| pid(o, p)))
            .collect();
        let mut recreated = 0;
        for seed in 0..40 {
            let mut rng = lotec_sim::SimRng::seed_from_u64(seed);
            let mut store = PageStore::new(PAGE, &layout);
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
