//! The final content chain of every page a run touched.

use std::ops::Index;

use lotec_mem::{ObjectId, PageIndex};

/// An object and one of its pages: the key of a [`FinalChains`] entry.
pub type PageKey = (ObjectId, PageIndex);

/// Final content chains in ascending `(object, page)` order: what the
/// serializability oracle checks against its serial replay.
///
/// The engine lists every page of every object the run touched, which
/// covers every page a write can reach. A page it does not list was never
/// written: indexing reads it as chain 0, the chain of a zero-filled page
/// no write has folded into.
///
/// One flat vector of `(key, chain)` pairs, looked up by binary search. It
/// reads like an ordered map from key to chain whose absent keys index as
/// 0:
///
/// ```
/// use lotec_core::engine::FinalChains;
/// use lotec_mem::{ObjectId, PageIndex};
///
/// let key = |o, p| (ObjectId::new(o), PageIndex::new(p));
/// let mut chains: FinalChains = [(key(1, 0), 7), (key(0, 2), 5)].into_iter().collect();
/// *chains.get_mut(&key(1, 0)).unwrap() ^= 1;
/// assert_eq!(chains[&key(1, 0)], 6);
/// assert_eq!(chains.get(&key(2, 0)), None);
/// assert_eq!(chains[&key(2, 0)], 0, "unlisted: never written");
/// let order: Vec<_> = chains.iter().map(|(&k, &c)| (k, c)).collect();
/// assert_eq!(order, [(key(0, 2), 5), (key(1, 0), 6)]);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FinalChains {
    /// Strictly ascending by key.
    entries: Vec<(PageKey, u64)>,
}

impl FinalChains {
    /// Number of pages listed.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no page is listed.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    fn position(&self, key: &PageKey) -> Option<usize> {
        self.entries.binary_search_by_key(key, |&(k, _)| k).ok()
    }

    /// The final chain of `key`'s page, if listed.
    pub fn get(&self, key: &PageKey) -> Option<&u64> {
        self.position(key).map(|i| &self.entries[i].1)
    }

    /// Mutable access to the final chain of `key`'s page, if listed.
    pub fn get_mut(&mut self, key: &PageKey) -> Option<&mut u64> {
        self.position(key).map(|i| &mut self.entries[i].1)
    }

    /// The pages and their chains, in ascending key order.
    pub fn iter(&self) -> Iter<'_> {
        Iter(self.entries.iter())
    }
}

impl FromIterator<(PageKey, u64)> for FinalChains {
    /// Lists the pairs in key order. A key given twice keeps its last
    /// chain, as collecting into an ordered map would. Pairs that already
    /// ascend strictly, as the engine hands them over, are kept in place.
    fn from_iter<I: IntoIterator<Item = (PageKey, u64)>>(pairs: I) -> Self {
        let mut entries: Vec<(PageKey, u64)> = pairs.into_iter().collect();
        if !entries.is_sorted_by(|a, b| a.0 < b.0) {
            entries.sort_by_key(|&(key, _)| key);
            entries.dedup_by(|later, kept| {
                let same = later.0 == kept.0;
                if same {
                    kept.1 = later.1;
                }
                same
            });
        }
        FinalChains { entries }
    }
}

impl Index<&PageKey> for FinalChains {
    type Output = u64;

    /// The page's final chain; 0 when the page is not listed, since an
    /// unlisted page was never written.
    fn index(&self, key: &PageKey) -> &u64 {
        self.get(key).unwrap_or(&0)
    }
}

/// Iterator over a [`FinalChains`], in ascending key order.
#[derive(Debug, Clone)]
pub struct Iter<'a>(std::slice::Iter<'a, (PageKey, u64)>);

impl<'a> Iterator for Iter<'a> {
    type Item = (&'a PageKey, &'a u64);

    fn next(&mut self) -> Option<Self::Item> {
        self.0.next().map(|(key, chain)| (key, chain))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.0.size_hint()
    }
}

impl<'a> IntoIterator for &'a FinalChains {
    type Item = (&'a PageKey, &'a u64);
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use super::*;

    /// Seeded pair lists — shuffled, with repeated keys — collected both
    /// ways: the flat list must read exactly like the ordered map.
    #[test]
    fn agrees_with_an_ordered_map_of_the_same_pairs() {
        for seed in 0..20 {
            let mut rng = lotec_sim::SimRng::seed_from_u64(seed);
            let pairs: Vec<(PageKey, u64)> = (0..rng.range_inclusive(0, 60))
                .map(|_| {
                    let key = (
                        ObjectId::new(rng.next_below(12) as u32),
                        PageIndex::new(rng.next_below(4) as u16),
                    );
                    (key, rng.next_u64())
                })
                .collect();
            let chains: FinalChains = pairs.iter().copied().collect();
            let map: BTreeMap<PageKey, u64> = pairs.iter().copied().collect();
            assert_eq!(chains.len(), map.len(), "seed {seed}");
            assert_eq!(chains.is_empty(), map.is_empty(), "seed {seed}");
            assert!(chains.iter().eq(map.iter()), "seed {seed}: order");
            assert!((&chains).into_iter().eq(&map), "seed {seed}: for loop");
            for o in 0..13 {
                for p in 0..5 {
                    let key = (ObjectId::new(o), PageIndex::new(p));
                    assert_eq!(chains.get(&key), map.get(&key), "seed {seed}: {key:?}");
                }
            }
            // Equality agrees with the maps' equality, whatever order the
            // pairs came in.
            let reversed: FinalChains = pairs.iter().rev().copied().collect();
            let reversed_map: BTreeMap<PageKey, u64> = pairs.iter().rev().copied().collect();
            assert_eq!(chains == reversed, map == reversed_map, "seed {seed}");
            let sorted: FinalChains = map.iter().map(|(&k, &c)| (k, c)).collect();
            assert_eq!(sorted, chains, "seed {seed}");
        }
    }

    #[test]
    fn lookups_read_and_write_one_page() {
        let key = |o, p| (ObjectId::new(o), PageIndex::new(p));
        let mut chains: FinalChains = (0..4)
            .flat_map(|o| (0..3).map(move |p| (key(o, p), u64::from(o * 10) + u64::from(p))))
            .collect();
        assert_eq!(chains.len(), 12);
        assert_eq!(chains[&key(2, 1)], 21);
        *chains.get_mut(&key(2, 1)).expect("listed") ^= 0xFF;
        assert_eq!(chains[&key(2, 1)], 21 ^ 0xFF);
        assert_eq!(chains[&key(2, 0)], 20, "neighbours untouched");
        assert_eq!(chains.get(&key(4, 0)), None);
        assert_eq!(chains[&key(4, 0)], 0, "unlisted reads as chain 0");
        assert!(chains.get_mut(&key(0, 3)).is_none());
    }
}
