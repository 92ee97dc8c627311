//! The GDO-side page maps: which node holds the newest version of each page
//! of an object.
//!
//! Under LOTEC "there may not be a single site at which a complete,
//! up-to-date copy of a given object exists. Instead, the up-to-date parts
//! of an object may be scattered throughout the distributed system on
//! multiple nodes. The locations of the up-to-date pages of each object are
//! tracked in the GDO using the page map" (paper §4.1, Figure 1). Dirty-page
//! information is piggybacked on global lock releases; the map is sent to
//! the acquiring site with each global lock grant.
//!
//! [`PageMaps`] holds the map of every object the directory knows, and owns
//! no heap memory per object: each map's page locations are an exactly
//! sized range of one append-only arena, and its caching sites a
//! [`NodeSet`] that keeps clusters of up to 128 nodes inline.
//! [`PageMap`] and [`PageMapMut`] are views of one object's map.

use lotec_sim::NodeId;

use crate::ids::{PageIndex, Version};

/// Where the newest copy of one page lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageLocation {
    /// Node holding the newest version.
    pub node: NodeId,
    /// That newest version.
    pub version: Version,
}

/// Nodes stored inline by a [`NodeSet`]: two 64-bit words.
const INLINE_WORDS: usize = 2;

/// An ordered set of nodes: a bitset whose first 128 nodes live inline, so
/// a set over a cluster of up to 128 nodes never allocates. Larger node
/// ids spill into a vector of further words. Iteration ascends by node id.
#[derive(Debug, Clone, Default)]
pub struct NodeSet {
    inline: [u64; INLINE_WORDS],
    spill: Vec<u64>,
}

impl NodeSet {
    /// An empty set.
    pub const fn new() -> Self {
        NodeSet {
            inline: [0; INLINE_WORDS],
            spill: Vec::new(),
        }
    }

    fn word_mut(&mut self, word: usize) -> &mut u64 {
        if word < INLINE_WORDS {
            return &mut self.inline[word];
        }
        let i = word - INLINE_WORDS;
        if i >= self.spill.len() {
            self.spill.resize(i + 1, 0);
        }
        &mut self.spill[i]
    }

    /// Adds `node`.
    pub fn insert(&mut self, node: NodeId) {
        let n = node.index() as usize;
        *self.word_mut(n / 64) |= 1 << (n % 64);
    }

    /// Removes `node` (a no-op if absent).
    pub fn remove(&mut self, node: NodeId) {
        let n = node.index() as usize;
        if n / 64 < INLINE_WORDS + self.spill.len() {
            *self.word_mut(n / 64) &= !(1 << (n % 64));
        }
    }

    /// The members, ascending by node id.
    pub fn iter(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.inline
            .iter()
            .chain(&self.spill)
            .enumerate()
            .flat_map(|(w, &word)| {
                let mut bits = word;
                std::iter::from_fn(move || {
                    (bits != 0).then(|| {
                        let bit = bits.trailing_zeros();
                        bits &= bits - 1;
                        NodeId::new(w as u32 * 64 + bit)
                    })
                })
            })
    }
}

/// One object's map header: where its locations start in the arena, how
/// many pages it has, and the sites caching it.
#[derive(Debug, Clone)]
struct MapRow {
    start: u32,
    num_pages: u16,
    caching_sites: NodeSet,
}

/// The page maps of every object the directory has registered, in
/// registration order.
///
/// Maps are only ever appended, so every map's page locations are one
/// exactly sized range of a shared arena: registering an object, recording
/// an update or caching a copy allocates nothing of the object's own.
#[derive(Debug, Clone, Default)]
pub struct PageMaps {
    locations: Vec<PageLocation>,
    maps: Vec<MapRow>,
}

impl PageMaps {
    /// No maps yet.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends the map of an object of `num_pages` pages whose initial
    /// (version-0) copy lives at `home`, and returns its index (the number
    /// of maps pushed before it).
    ///
    /// # Panics
    ///
    /// Panics if `num_pages` is zero — every object occupies at least one
    /// page.
    pub fn push(&mut self, num_pages: u16, home: NodeId) -> usize {
        assert!(num_pages > 0, "object must span at least one page");
        let start = u32::try_from(self.locations.len()).expect("page map arena fits u32");
        let initial = PageLocation {
            node: home,
            version: Version::INITIAL,
        };
        self.locations
            .extend(std::iter::repeat_n(initial, usize::from(num_pages)));
        let mut caching_sites = NodeSet::new();
        caching_sites.insert(home);
        self.maps.push(MapRow {
            start,
            num_pages,
            caching_sites,
        });
        self.maps.len() - 1
    }

    fn range(row: &MapRow) -> std::ops::Range<usize> {
        let start = row.start as usize;
        start..start + usize::from(row.num_pages)
    }

    /// Map `map`.
    ///
    /// # Panics
    ///
    /// Panics if `map` is out of range.
    pub fn get(&self, map: usize) -> PageMap<'_> {
        let row = &self.maps[map];
        PageMap {
            locations: &self.locations[Self::range(row)],
            caching_sites: &row.caching_sites,
        }
    }

    /// Map `map`, for updates.
    ///
    /// # Panics
    ///
    /// Panics if `map` is out of range.
    pub fn get_mut(&mut self, map: usize) -> PageMapMut<'_> {
        let row = &mut self.maps[map];
        PageMapMut {
            locations: &mut self.locations[Self::range(row)],
            caching_sites: &mut row.caching_sites,
        }
    }
}

/// One object's page map: page index → newest location, plus the set of
/// sites holding (possibly stale) cached copies of the object.
#[derive(Debug, Clone, Copy)]
pub struct PageMap<'a> {
    locations: &'a [PageLocation],
    caching_sites: &'a NodeSet,
}

impl<'a> PageMap<'a> {
    /// Number of pages the object spans.
    pub fn num_pages(&self) -> u16 {
        self.locations.len() as u16
    }

    /// The newest location of page `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range for this object.
    pub fn location(&self, index: PageIndex) -> PageLocation {
        self.locations[index.get() as usize]
    }

    /// Sites holding cached copies of the object (current or stale),
    /// ascending. Used by the release-consistency extension, which must
    /// eagerly push updates to all of them.
    pub fn caching_sites(&self) -> impl Iterator<Item = NodeId> + 'a {
        self.caching_sites.iter()
    }

    /// Iterator over `(page index, newest location)` for all pages.
    pub fn entries(&self) -> impl Iterator<Item = (PageIndex, PageLocation)> + 'a {
        self.locations
            .iter()
            .enumerate()
            .map(|(i, &loc)| (PageIndex::new(i as u16), loc))
    }
}

/// One object's page map, for updates (see [`PageMap`]).
#[derive(Debug)]
pub struct PageMapMut<'a> {
    locations: &'a mut [PageLocation],
    caching_sites: &'a mut NodeSet,
}

impl PageMapMut<'_> {
    /// The map, read-only.
    pub fn view(&self) -> PageMap<'_> {
        PageMap {
            locations: self.locations,
            caching_sites: self.caching_sites,
        }
    }

    /// Records that `node` committed an update to page `index`, advancing
    /// the page's version. Returns the new version.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn record_update(&mut self, index: PageIndex, node: NodeId) -> Version {
        let slot = &mut self.locations[index.get() as usize];
        slot.node = node;
        slot.version = slot.version.next();
        self.caching_sites.insert(node);
        slot.version
    }

    /// Records that `node` now caches (a current copy of) page `index` —
    /// page transfers make the receiving site a caching site.
    pub fn record_cached(&mut self, node: NodeId) {
        self.caching_sites.insert(node);
    }

    /// Crash repair: repoints page `index` at `survivor` *without*
    /// advancing the version — the survivor holds a byte-identical copy of
    /// the same committed version, so this is a directory fix-up, not a
    /// new write. Used when the recorded owner's node crashes.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn reassign_owner(&mut self, index: PageIndex, survivor: NodeId) {
        self.locations[index.get() as usize].node = survivor;
        self.caching_sites.insert(survivor);
    }

    /// Crash repair: drops `node` from the caching-site set (its caches
    /// are cold after a crash). The owner locations are untouched — use
    /// [`PageMapMut::reassign_owner`] for pages the crashed node owned.
    pub fn forget_caching_site(&mut self, node: NodeId) {
        self.caching_sites.remove(node);
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    fn one(num_pages: u16, home: NodeId) -> PageMaps {
        let mut maps = PageMaps::new();
        assert_eq!(maps.push(num_pages, home), 0);
        maps
    }

    #[test]
    fn new_map_points_home_at_initial_version() {
        let maps = one(3, n(2));
        let m = maps.get(0);
        assert_eq!(m.num_pages(), 3);
        for (_, loc) in m.entries() {
            assert_eq!(
                loc,
                PageLocation {
                    node: n(2),
                    version: Version::INITIAL
                }
            );
        }
        assert_eq!(m.caching_sites().collect::<Vec<_>>(), vec![n(2)]);
    }

    #[test]
    fn record_update_moves_and_versions() {
        let mut maps = one(2, n(0));
        let v = maps.get_mut(0).record_update(PageIndex::new(1), n(3));
        assert_eq!(v, Version::new(1));
        let m = maps.get(0);
        assert_eq!(
            m.location(PageIndex::new(1)),
            PageLocation {
                node: n(3),
                version: Version::new(1)
            }
        );
        // Page 0 untouched.
        assert_eq!(m.location(PageIndex::new(0)).version, Version::INITIAL);
        // Updating site became a caching site.
        assert_eq!(m.caching_sites().count(), 2);
    }

    #[test]
    fn versions_increase_monotonically() {
        let mut maps = one(1, n(0));
        let mut m = maps.get_mut(0);
        let v1 = m.record_update(PageIndex::new(0), n(1));
        let v2 = m.record_update(PageIndex::new(0), n(0));
        assert!(v2.is_newer_than(v1));
    }

    #[test]
    fn reassign_owner_keeps_version() {
        let mut maps = one(2, n(0));
        let mut m = maps.get_mut(0);
        m.record_update(PageIndex::new(0), n(3)); // v1 at node 3
        m.reassign_owner(PageIndex::new(0), n(1));
        assert_eq!(
            m.view().location(PageIndex::new(0)),
            PageLocation {
                node: n(1),
                version: Version::new(1)
            },
            "owner moves, version does not advance"
        );
        assert!(m.view().caching_sites().any(|s| s == n(1)));
    }

    #[test]
    fn forget_caching_site_drops_cold_caches() {
        let mut maps = one(1, n(0));
        let mut m = maps.get_mut(0);
        m.record_cached(n(2));
        assert_eq!(m.view().caching_sites().count(), 2);
        m.forget_caching_site(n(2));
        assert_eq!(m.view().caching_sites().collect::<Vec<_>>(), vec![n(0)]);
    }

    /// Maps pushed one after another own disjoint, exactly sized ranges:
    /// updating one never shows through another.
    #[test]
    fn maps_are_disjoint_ranges_of_one_arena() {
        let mut maps = PageMaps::new();
        let sizes = [3u16, 1, 4];
        for (i, &pages) in sizes.iter().enumerate() {
            assert_eq!(maps.push(pages, n(i as u32)), i);
        }
        maps.get_mut(1).record_update(PageIndex::new(0), n(7));
        for (i, &pages) in sizes.iter().enumerate() {
            let m = maps.get(i);
            assert_eq!(m.num_pages(), pages);
            for (page, loc) in m.entries() {
                let updated = i == 1 && page.get() == 0;
                assert_eq!(loc.version, Version::new(u64::from(updated)));
                assert_eq!(loc.node, if updated { n(7) } else { n(i as u32) });
            }
        }
    }

    /// Seeded streams of inserts and removals over node ids on both sides
    /// of the inline words, checked against an ordered set after every
    /// operation.
    #[test]
    fn node_set_matches_an_ordered_set() {
        for seed in 0..20 {
            let mut rng = lotec_sim::SimRng::seed_from_u64(seed);
            let mut set = NodeSet::new();
            let mut reference = BTreeSet::new();
            for _ in 0..200 {
                let node = n(rng.next_below(300) as u32);
                if rng.chance(0.6) {
                    set.insert(node);
                    reference.insert(node);
                } else {
                    set.remove(node);
                    reference.remove(&node);
                }
                assert_eq!(
                    set.iter().collect::<Vec<_>>(),
                    reference.iter().copied().collect::<Vec<_>>()
                );
            }
        }
    }

    #[test]
    fn node_set_stays_inline_up_to_128_nodes() {
        let mut set = NodeSet::new();
        for i in 0..128 {
            set.insert(n(i));
        }
        set.remove(n(500));
        assert!(set.spill.is_empty(), "no spill word below node 128");
        assert_eq!(set.iter().count(), 128);
    }

    #[test]
    #[should_panic]
    fn location_bounds_checked() {
        one(1, n(0)).get(0).location(PageIndex::new(5));
    }

    #[test]
    #[should_panic(expected = "at least one page")]
    fn zero_page_object_rejected() {
        PageMaps::new().push(0, n(0));
    }
}
