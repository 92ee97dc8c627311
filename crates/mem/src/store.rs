//! One node's local page cache.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use crate::atlas::PageAtlas;
use crate::ids::{ObjectId, PageId, Version};
use crate::page::{Page, PageData};

/// The local page cache of a single node.
///
/// Each site "keeps track of which locally cached pages have been made
/// dirty by transaction executions" (paper §4.1); that dirty information is
/// piggybacked on global lock releases to update the GDO page map.
///
/// Two storage layouts sit behind one API. A store built with
/// [`PageStore::new`] keeps ordered maps (any [`PageId`] goes). A store
/// built with [`PageStore::with_atlas`] — what the engine uses — keeps a
/// flat slot index over the atlas's dense global page numbering into a
/// compact arena of the pages actually cached, so every lookup on the
/// simulation hot path is two array indexes instead of a tree walk, and a
/// node pays four bytes per page of the layout plus one arena entry per
/// page it caches. Slot order equals `PageId` order, so iteration — and
/// therefore the simulation — is deterministic in both layouts.
#[derive(Debug, Clone)]
pub struct PageStore {
    page_size: usize,
    slots: Slots,
}

#[derive(Debug, Clone)]
enum Slots {
    /// Ordered-map layout: accepts arbitrary page ids.
    Sparse {
        pages: BTreeMap<PageId, Page>,
        dirty: BTreeSet<PageId>,
    },
    /// Slot index over a fixed object layout.
    Dense {
        atlas: Arc<PageAtlas>,
        /// Per atlas slot: 0 when the page is not cached, else 1 + its
        /// entry in `arena`. Zero-initialised, so the allocator can hand
        /// out untouched zero pages and a stretch of the layout this node
        /// never caches costs no resident memory.
        index: Vec<u32>,
        /// The cached pages, in no particular order.
        arena: Vec<Cached>,
        /// Arena entries freed by [`PageStore::evict`], reused first.
        free: Vec<u32>,
    },
}

/// One arena entry of the dense layout.
#[derive(Debug, Clone)]
struct Cached {
    page: Page,
    dirty: bool,
}

/// Iterator over a store's dirty pages, in `PageId` order.
#[derive(Debug)]
pub struct DirtyPages<'a> {
    inner: DirtyInner<'a>,
}

#[derive(Debug)]
enum DirtyInner<'a> {
    Sparse(std::collections::btree_set::Iter<'a, PageId>),
    Dense {
        atlas: &'a PageAtlas,
        arena: &'a [Cached],
        index: std::iter::Enumerate<std::slice::Iter<'a, u32>>,
    },
}

impl Iterator for DirtyPages<'_> {
    type Item = PageId;

    fn next(&mut self) -> Option<PageId> {
        match &mut self.inner {
            DirtyInner::Sparse(it) => it.next().copied(),
            DirtyInner::Dense {
                atlas,
                arena,
                index,
            } => index
                .find(|&(_, &entry)| entry != 0 && arena[entry as usize - 1].dirty)
                .map(|(slot, _)| atlas.page_id(slot)),
        }
    }
}

/// The arena entry cached at atlas `slot`, if any.
fn cached(index: &[u32], slot: usize) -> Option<usize> {
    index[slot].checked_sub(1).map(|entry| entry as usize)
}

/// The arena entry for atlas `slot`, placing `page()` in a free entry (or a
/// new one) if the slot holds nothing.
fn cached_or_insert(
    index: &mut [u32],
    arena: &mut Vec<Cached>,
    free: &mut Vec<u32>,
    slot: usize,
    page: impl FnOnce() -> Page,
) -> usize {
    if let Some(entry) = cached(index, slot) {
        return entry;
    }
    let fresh = Cached {
        page: page(),
        dirty: false,
    };
    let entry = match free.pop() {
        Some(entry) => {
            arena[entry as usize] = fresh;
            entry as usize
        }
        None => {
            arena.push(fresh);
            arena.len() - 1
        }
    };
    index[slot] = entry as u32 + 1;
    entry
}

impl PageStore {
    /// Creates an empty map-backed store whose pages are all `page_size`
    /// bytes.
    ///
    /// # Panics
    ///
    /// Panics if `page_size < 8` (see [`Page::zeroed`]).
    pub fn new(page_size: usize) -> Self {
        assert!(page_size >= 8, "page size must be at least 8 bytes");
        PageStore {
            page_size,
            slots: Slots::Sparse {
                pages: BTreeMap::new(),
                dirty: BTreeSet::new(),
            },
        }
    }

    /// Creates an empty store laid out densely over `atlas` — every page
    /// operation is an array index. Only pages inside the atlas's layout
    /// may be touched.
    ///
    /// # Panics
    ///
    /// Panics if `page_size < 8`, or if the atlas has `u32::MAX` pages or
    /// more.
    pub fn with_atlas(page_size: usize, atlas: Arc<PageAtlas>) -> Self {
        assert!(page_size >= 8, "page size must be at least 8 bytes");
        let total = atlas.total_pages();
        assert!(
            total < u32::MAX as usize,
            "atlas too large for a slot index"
        );
        PageStore {
            page_size,
            slots: Slots::Dense {
                atlas,
                index: vec![0; total],
                arena: Vec::new(),
                free: Vec::new(),
            },
        }
    }

    /// The configured page size in bytes.
    pub fn page_size(&self) -> usize {
        self.page_size
    }

    /// Number of cached pages.
    pub fn len(&self) -> usize {
        match &self.slots {
            Slots::Sparse { pages, .. } => pages.len(),
            Slots::Dense { arena, free, .. } => arena.len() - free.len(),
        }
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes of page data cached locally (pages × page size). Cheap: the
    /// state sampler reads this per node at every sample tick.
    #[must_use]
    pub fn cached_bytes(&self) -> u64 {
        self.len() as u64 * self.page_size as u64
    }

    /// True if `page` is cached locally (at any version).
    pub fn contains(&self, page: PageId) -> bool {
        match &self.slots {
            Slots::Sparse { pages, .. } => pages.contains_key(&page),
            Slots::Dense { atlas, index, .. } => index[atlas.slot(page)] != 0,
        }
    }

    /// The cached version of `page`, if cached.
    pub fn version_of(&self, page: PageId) -> Option<Version> {
        self.get(page).map(Page::version)
    }

    /// Read-only access to a cached page.
    pub fn get(&self, page: PageId) -> Option<&Page> {
        match &self.slots {
            Slots::Sparse { pages, .. } => pages.get(&page),
            Slots::Dense {
                atlas,
                index,
                arena,
                ..
            } => cached(index, atlas.slot(page)).map(|entry| &arena[entry].page),
        }
    }

    /// Installs (or replaces) a page received from another node. Accepts
    /// either owned bytes or a shared [`PageData`] handle — passing the
    /// handle makes the install a refcount bump.
    ///
    /// # Panics
    ///
    /// Panics if `data` is not exactly `page_size` bytes.
    pub fn install(&mut self, page: PageId, version: Version, data: impl Into<PageData>) {
        let data = data.into();
        assert_eq!(data.len(), self.page_size, "installed page has wrong size");
        let installed = Page::from_parts(version, data);
        match &mut self.slots {
            Slots::Sparse { pages, dirty } => {
                pages.insert(page, installed);
                dirty.remove(&page);
            }
            Slots::Dense {
                atlas,
                index,
                arena,
                free,
            } => {
                let slot = atlas.slot(page);
                match cached(index, slot) {
                    Some(entry) => {
                        arena[entry] = Cached {
                            page: installed,
                            dirty: false,
                        }
                    }
                    None => {
                        cached_or_insert(index, arena, free, slot, || installed);
                    }
                }
            }
        }
    }

    /// Ensures `page` exists locally, creating a zeroed
    /// [`Version::INITIAL`] page if absent. Returns its current version.
    pub fn ensure(&mut self, page: PageId) -> Version {
        let page_size = self.page_size;
        match &mut self.slots {
            Slots::Sparse { pages, .. } => pages
                .entry(page)
                .or_insert_with(|| Page::zeroed(page_size))
                .version(),
            Slots::Dense {
                atlas,
                index,
                arena,
                free,
            } => {
                let entry = cached_or_insert(index, arena, free, atlas.slot(page), || {
                    Page::zeroed(page_size)
                });
                arena[entry].page.version()
            }
        }
    }

    /// Folds a write `stamp` into `page`'s content chain and marks it
    /// dirty. Creates the page (zeroed) if absent. Returns the new chain.
    pub fn apply_stamp(&mut self, page: PageId, stamp: u64) -> u64 {
        let page_size = self.page_size;
        match &mut self.slots {
            Slots::Sparse { pages, dirty } => {
                dirty.insert(page);
                pages
                    .entry(page)
                    .or_insert_with(|| Page::zeroed(page_size))
                    .apply_stamp(stamp)
            }
            Slots::Dense {
                atlas,
                index,
                arena,
                free,
            } => {
                // One slot resolution covers the ensure and the stamp.
                let entry = cached_or_insert(index, arena, free, atlas.slot(page), || {
                    Page::zeroed(page_size)
                });
                let cached = &mut arena[entry];
                cached.dirty = true;
                cached.page.apply_stamp(stamp)
            }
        }
    }

    /// Overwrites the payload prefix of `page` and marks it dirty.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is longer than the page size.
    pub fn write(&mut self, page: PageId, bytes: &[u8]) {
        self.ensure(page);
        match &mut self.slots {
            Slots::Sparse { pages, dirty } => {
                dirty.insert(page);
                pages.get_mut(&page).expect("just ensured").write(bytes);
            }
            Slots::Dense {
                atlas,
                index,
                arena,
                ..
            } => {
                let cached = &mut arena[cached(index, atlas.slot(page)).expect("just ensured")];
                cached.dirty = true;
                cached.page.write(bytes);
            }
        }
    }

    /// The content chain of `page` (zero if the page is absent).
    pub fn chain(&self, page: PageId) -> u64 {
        self.get(page).map_or(0, Page::chain)
    }

    /// True if `page` has uncommitted local modifications.
    pub fn is_dirty(&self, page: PageId) -> bool {
        match &self.slots {
            Slots::Sparse { dirty, .. } => dirty.contains(&page),
            Slots::Dense {
                atlas,
                index,
                arena,
                ..
            } => cached(index, atlas.slot(page)).is_some_and(|entry| arena[entry].dirty),
        }
    }

    /// All dirty pages, in deterministic (`PageId`) order.
    pub fn dirty_pages(&self) -> DirtyPages<'_> {
        DirtyPages {
            inner: match &self.slots {
                Slots::Sparse { dirty, .. } => DirtyInner::Sparse(dirty.iter()),
                Slots::Dense {
                    atlas,
                    index,
                    arena,
                    ..
                } => DirtyInner::Dense {
                    atlas,
                    arena,
                    index: index.iter().enumerate(),
                },
            },
        }
    }

    /// Dirty pages belonging to `object`, in page-index order.
    pub fn dirty_pages_of(&self, object: ObjectId) -> Vec<PageId> {
        match &self.slots {
            Slots::Sparse { dirty, .. } => dirty
                .iter()
                .copied()
                .filter(|p| p.object() == object)
                .collect(),
            Slots::Dense {
                atlas,
                index,
                arena,
                ..
            } => atlas
                .object_slots(object)
                .filter(|&s| cached(index, s).is_some_and(|entry| arena[entry].dirty))
                .map(|s| atlas.page_id(s))
                .collect(),
        }
    }

    /// Publishes the dirty pages of `object` at `new_version` (the family's
    /// root has committed): stamps each with the version and clears its
    /// dirty bit. Returns the published pages.
    pub fn publish_object(&mut self, object: ObjectId, new_version: Version) -> Vec<PageId> {
        let published = self.dirty_pages_of(object);
        for &page in &published {
            self.publish_page(page, new_version);
        }
        published
    }

    /// Publishes a single dirty page at `version` (pages of one object may
    /// carry different version counters, so batch publication via
    /// [`PageStore::publish_object`] is not always applicable).
    ///
    /// # Panics
    ///
    /// Panics if the page is not cached.
    pub fn publish_page(&mut self, page: PageId, version: Version) {
        match &mut self.slots {
            Slots::Sparse { pages, dirty } => {
                pages
                    .get_mut(&page)
                    .expect("publish of uncached page")
                    .set_version(version);
                dirty.remove(&page);
            }
            Slots::Dense {
                atlas,
                index,
                arena,
                ..
            } => {
                let entry = cached(index, atlas.slot(page)).expect("publish of uncached page");
                arena[entry].page.set_version(version);
                arena[entry].dirty = false;
            }
        }
    }

    /// Clears the dirty bit of `page` without publishing (used by UNDO).
    pub fn mark_clean(&mut self, page: PageId) {
        match &mut self.slots {
            Slots::Sparse { dirty, .. } => {
                dirty.remove(&page);
            }
            Slots::Dense {
                atlas,
                index,
                arena,
                ..
            } => {
                if let Some(entry) = cached(index, atlas.slot(page)) {
                    arena[entry].dirty = false;
                }
            }
        }
    }

    /// Replaces the full contents of `page` (used by UNDO/shadow restore);
    /// version and dirty state are restored by the caller.
    ///
    /// # Panics
    ///
    /// Panics if the page is not cached or `data` has the wrong size.
    pub fn restore(&mut self, page: PageId, version: Version, data: impl Into<PageData>) {
        let data = data.into();
        assert_eq!(data.len(), self.page_size, "restored page has wrong size");
        let restored = Page::from_parts(version, data);
        match &mut self.slots {
            Slots::Sparse { pages, .. } => {
                let p = pages.get_mut(&page).expect("restore of uncached page");
                *p = restored;
            }
            Slots::Dense {
                atlas,
                index,
                arena,
                ..
            } => {
                let entry = cached(index, atlas.slot(page)).expect("restore of uncached page");
                arena[entry].page = restored;
            }
        }
    }

    /// Drops `page` from the cache entirely (used by UNDO when the page did
    /// not exist before the aborted transaction touched it). In the dense
    /// layout the page's arena entry goes on the free list.
    pub fn evict(&mut self, page: PageId) {
        let page_size = self.page_size;
        match &mut self.slots {
            Slots::Sparse { pages, dirty } => {
                pages.remove(&page);
                dirty.remove(&page);
            }
            Slots::Dense {
                atlas,
                index,
                arena,
                free,
            } => {
                let slot = atlas.slot(page);
                if let Some(entry) = cached(index, slot) {
                    index[slot] = 0;
                    // Release the payload now; the entry waits for reuse.
                    arena[entry] = Cached {
                        page: Page::zeroed(page_size),
                        dirty: false,
                    };
                    free.push(entry as u32);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pid(o: u32, i: u16) -> PageId {
        PageId::new(ObjectId::new(o), i)
    }

    #[test]
    fn empty_store() {
        let s = PageStore::new(64);
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
        assert!(!s.contains(pid(0, 0)));
        assert_eq!(s.version_of(pid(0, 0)), None);
        assert_eq!(s.chain(pid(0, 0)), 0);
    }

    #[test]
    fn install_and_read_back() {
        let mut s = PageStore::new(16);
        s.install(pid(1, 0), Version::new(3), vec![7; 16]);
        assert!(s.contains(pid(1, 0)));
        assert_eq!(s.version_of(pid(1, 0)), Some(Version::new(3)));
        assert_eq!(s.get(pid(1, 0)).unwrap().data()[0], 7);
        assert!(!s.is_dirty(pid(1, 0)), "installed pages are clean");
    }

    #[test]
    fn stamp_marks_dirty_and_chains() {
        let mut s = PageStore::new(8);
        let c1 = s.apply_stamp(pid(0, 1), 42);
        assert!(s.is_dirty(pid(0, 1)));
        assert_eq!(s.chain(pid(0, 1)), c1);
        let c2 = s.apply_stamp(pid(0, 1), 43);
        assert_ne!(c1, c2);
    }

    #[test]
    fn publish_versions_and_cleans() {
        let mut s = PageStore::new(8);
        s.apply_stamp(pid(2, 0), 1);
        s.apply_stamp(pid(2, 1), 1);
        s.apply_stamp(pid(3, 0), 1); // different object, untouched by publish
        let published = s.publish_object(ObjectId::new(2), Version::new(5));
        assert_eq!(published, vec![pid(2, 0), pid(2, 1)]);
        assert_eq!(s.version_of(pid(2, 0)), Some(Version::new(5)));
        assert!(!s.is_dirty(pid(2, 0)));
        assert!(s.is_dirty(pid(3, 0)));
    }

    #[test]
    fn dirty_iteration_is_ordered() {
        let mut s = PageStore::new(8);
        s.apply_stamp(pid(1, 2), 1);
        s.apply_stamp(pid(0, 5), 1);
        s.apply_stamp(pid(1, 0), 1);
        let dirty: Vec<PageId> = s.dirty_pages().collect();
        assert_eq!(dirty, vec![pid(0, 5), pid(1, 0), pid(1, 2)]);
    }

    #[test]
    fn publish_page_sets_individual_versions() {
        let mut s = PageStore::new(8);
        s.apply_stamp(pid(0, 0), 1);
        s.apply_stamp(pid(0, 1), 1);
        s.publish_page(pid(0, 0), Version::new(4));
        s.publish_page(pid(0, 1), Version::new(2));
        assert_eq!(s.version_of(pid(0, 0)), Some(Version::new(4)));
        assert_eq!(s.version_of(pid(0, 1)), Some(Version::new(2)));
        assert!(!s.is_dirty(pid(0, 0)) && !s.is_dirty(pid(0, 1)));
    }

    #[test]
    fn restore_and_evict() {
        let mut s = PageStore::new(8);
        s.apply_stamp(pid(0, 0), 9);
        s.restore(pid(0, 0), Version::INITIAL, vec![0; 8]);
        assert_eq!(s.chain(pid(0, 0)), 0);
        s.evict(pid(0, 0));
        assert!(!s.contains(pid(0, 0)));
    }

    #[test]
    fn install_clears_dirty_bit() {
        let mut s = PageStore::new(8);
        s.apply_stamp(pid(0, 0), 1);
        assert!(s.is_dirty(pid(0, 0)));
        s.install(pid(0, 0), Version::new(2), vec![0; 8]);
        assert!(!s.is_dirty(pid(0, 0)));
    }

    #[test]
    #[should_panic(expected = "wrong size")]
    fn install_checks_size() {
        PageStore::new(16).install(pid(0, 0), Version::INITIAL, vec![0; 8]);
    }

    /// Every observable of the two layouts agrees, page by page.
    fn assert_same(sparse: &PageStore, dense: &PageStore, atlas: &PageAtlas, at: &str) {
        for slot in 0..atlas.total_pages() {
            let page = atlas.page_id(slot);
            assert_eq!(sparse.get(page), dense.get(page), "{at}: get({page})");
            assert_eq!(sparse.version_of(page), dense.version_of(page), "{at}");
            assert_eq!(sparse.chain(page), dense.chain(page), "{at}");
            assert_eq!(sparse.contains(page), dense.contains(page), "{at}");
            assert_eq!(sparse.is_dirty(page), dense.is_dirty(page), "{at}");
        }
        assert_eq!(
            sparse.dirty_pages().collect::<Vec<_>>(),
            dense.dirty_pages().collect::<Vec<_>>(),
            "{at}: dirty_pages"
        );
        for o in 0..atlas.num_objects() {
            let object = ObjectId::new(o);
            assert_eq!(
                sparse.dirty_pages_of(object),
                dense.dirty_pages_of(object),
                "{at}: dirty_pages_of({object})"
            );
        }
        assert_eq!(sparse.len(), dense.len(), "{at}: len");
        assert_eq!(sparse.cached_bytes(), dense.cached_bytes(), "{at}");
    }

    /// Seeded random streams over every mutator, run against both layouts:
    /// after each operation every observable must agree. Evictions are
    /// frequent, so pages are dropped and recreated over and over and the
    /// dense arena's freed entries are reused.
    #[test]
    fn dense_layout_matches_sparse_layout() {
        const PAGE: usize = 16;
        let atlas = Arc::new(PageAtlas::new(&[3, 1, 4, 2, 5]));
        let mut recreated = 0;
        for seed in 0..40 {
            let mut rng = lotec_sim::SimRng::seed_from_u64(seed);
            let mut sparse = PageStore::new(PAGE);
            let mut dense = PageStore::with_atlas(PAGE, Arc::clone(&atlas));
            let mut evicted = BTreeSet::new();
            for step in 0..300 {
                let page = atlas.page_id(rng.next_below(atlas.total_pages() as u64) as usize);
                let version = Version::new(rng.next_below(6));
                let at = format!("seed {seed} step {step}");
                let was_cached = sparse.contains(page);
                match rng.next_below(9) {
                    0 => {
                        let fill = rng.next_below(256) as u8;
                        let len = rng.next_below(PAGE as u64 + 1) as usize;
                        let mut data = vec![0; PAGE];
                        data[..len].fill(fill);
                        let shared = PageData::from(data);
                        sparse.install(page, version, shared.clone());
                        dense.install(page, version, shared);
                    }
                    1 => assert_eq!(sparse.ensure(page), dense.ensure(page), "{at}"),
                    2 => {
                        let stamp = rng.next_u64();
                        assert_eq!(
                            sparse.apply_stamp(page, stamp),
                            dense.apply_stamp(page, stamp),
                            "{at}"
                        );
                    }
                    3 => {
                        let len = rng.next_below(PAGE as u64 + 1) as usize;
                        let bytes: Vec<u8> = (0..len).map(|_| rng.next_below(256) as u8).collect();
                        sparse.write(page, &bytes);
                        dense.write(page, &bytes);
                    }
                    4 => assert_eq!(
                        sparse.publish_object(page.object(), version),
                        dense.publish_object(page.object(), version),
                        "{at}"
                    ),
                    5 if sparse.contains(page) => {
                        sparse.publish_page(page, version);
                        dense.publish_page(page, version);
                    }
                    6 => {
                        sparse.mark_clean(page);
                        dense.mark_clean(page);
                    }
                    7 if sparse.contains(page) => {
                        let data = vec![rng.next_below(256) as u8; PAGE];
                        sparse.restore(page, version, data.clone());
                        dense.restore(page, version, data);
                    }
                    8 => {
                        if was_cached {
                            evicted.insert(page);
                        }
                        sparse.evict(page);
                        dense.evict(page);
                    }
                    // Publish or restore of an uncached page panics by
                    // contract; create the page instead.
                    _ => assert_eq!(sparse.ensure(page), dense.ensure(page), "{at}"),
                }
                if !was_cached && sparse.contains(page) && evicted.remove(&page) {
                    recreated += 1;
                }
                assert_same(&sparse, &dense, &atlas, &at);
            }
            let Slots::Dense { arena, free, .. } = &dense.slots else {
                unreachable!("built with an atlas");
            };
            assert!(
                arena.len() <= atlas.total_pages(),
                "seed {seed}: freed entries were not reused ({} > {})",
                arena.len(),
                atlas.total_pages()
            );
            assert_eq!(arena.len() - free.len(), dense.len());
        }
        assert!(recreated > 500, "only {recreated} evicted pages came back");
    }

    #[test]
    fn dense_install_restore_roundtrip() {
        let atlas = Arc::new(PageAtlas::uniform(2, 3));
        let mut s = PageStore::with_atlas(16, atlas);
        s.install(pid(1, 2), Version::new(3), vec![9; 16]);
        assert_eq!(s.len(), 1);
        s.apply_stamp(pid(1, 2), 5);
        s.restore(pid(1, 2), Version::new(3), vec![9; 16]);
        s.mark_clean(pid(1, 2));
        assert_eq!(s.get(pid(1, 2)).unwrap().data()[8], 9);
        assert!(!s.is_dirty(pid(1, 2)));
    }

    #[test]
    #[should_panic]
    fn dense_rejects_pages_outside_layout() {
        let atlas = Arc::new(PageAtlas::uniform(1, 2));
        let mut s = PageStore::with_atlas(8, atlas);
        s.ensure(pid(4, 0));
    }
}
