//! Small index sets: [`AttrSet`] over attribute indices and [`PageSet`]
//! over page indices within one object.
//!
//! Both are thin wrappers over a growable bitset. Objects in the paper's
//! experiments span at most ~20 pages and a few dozen attributes, so the
//! first 64-bit word lives inline — creating, cloning, and combining sets
//! of up to 64 indices never touches the heap (the trace and the grant
//! path clone these sets on every lock grant); the set still grows
//! transparently for larger classes via a spill vector.

use std::fmt;

use lotec_mem::PageIndex;

use crate::class::AttrIndex;

/// Growable bitset over `u16` indices: bits 0..64 inline in `head`, the
/// rest in `rest` (word `i` of `rest` covers bits `64*(i+1)..`).
///
/// Invariant: `rest` never ends in a zero word, so structural equality
/// (and `Hash`) match set equality.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
struct BitSet {
    head: u64,
    rest: Vec<u64>,
}

impl BitSet {
    /// Drops trailing zero spill words, restoring the canonical form.
    fn trim(mut self) -> BitSet {
        while self.rest.last() == Some(&0) {
            self.rest.pop();
        }
        self
    }

    /// The word covering bits `64*word ..`, zero when past the end.
    fn word(&self, word: usize) -> u64 {
        match word.checked_sub(1) {
            None => self.head,
            Some(i) => self.rest.get(i).copied().unwrap_or(0),
        }
    }

    fn num_words(&self) -> usize {
        1 + self.rest.len()
    }

    fn insert(&mut self, idx: u16) {
        let word = idx as usize / 64;
        let bit = 1 << (idx % 64);
        if word == 0 {
            self.head |= bit;
            return;
        }
        if word > self.rest.len() {
            self.rest.resize(word, 0);
        }
        self.rest[word - 1] |= bit;
    }

    fn contains(&self, idx: u16) -> bool {
        self.word(idx as usize / 64) & (1 << (idx % 64)) != 0
    }

    fn len(&self) -> usize {
        self.head.count_ones() as usize
            + self
                .rest
                .iter()
                .map(|w| w.count_ones() as usize)
                .sum::<usize>()
    }

    fn is_empty(&self) -> bool {
        self.head == 0 && self.rest.is_empty()
    }

    fn union_with(&mut self, other: &BitSet) {
        self.head |= other.head;
        if other.rest.len() > self.rest.len() {
            self.rest.resize(other.rest.len(), 0);
        }
        for (a, b) in self.rest.iter_mut().zip(other.rest.iter()) {
            *a |= b;
        }
    }

    fn intersection(&self, other: &BitSet) -> BitSet {
        let rest = self
            .rest
            .iter()
            .zip(other.rest.iter())
            .map(|(a, b)| a & b)
            .collect();
        BitSet {
            head: self.head & other.head,
            rest,
        }
        .trim()
    }

    fn difference(&self, other: &BitSet) -> BitSet {
        let rest = self
            .rest
            .iter()
            .enumerate()
            .map(|(i, a)| a & !other.rest.get(i).copied().unwrap_or(0))
            .collect();
        BitSet {
            head: self.head & !other.head,
            rest,
        }
        .trim()
    }

    fn is_subset(&self, other: &BitSet) -> bool {
        self.head & !other.head == 0
            && self
                .rest
                .iter()
                .enumerate()
                .all(|(i, a)| a & !other.rest.get(i).copied().unwrap_or(0) == 0)
    }

    /// Members in increasing order, one step per member: each word's
    /// lowest set bit is taken and cleared until the word is empty.
    fn iter(&self) -> impl Iterator<Item = u16> + '_ {
        (0..self.num_words()).flat_map(move |wi| {
            let mut w = self.word(wi);
            std::iter::from_fn(move || {
                let bit = w.trailing_zeros();
                w &= w.wrapping_sub(1);
                (bit < 64).then_some((wi * 64) as u16 + bit as u16)
            })
        })
    }
}

macro_rules! index_set {
    ($(#[$doc:meta])* $name:ident, $idx:ty, $get:expr, $make:expr, $prefix:literal) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
        pub struct $name {
            bits: BitSet,
        }

        impl $name {
            /// Creates an empty set.
            pub fn new() -> Self {
                Self::default()
            }

            /// Inserts an index.
            pub fn insert(&mut self, idx: $idx) {
                self.bits.insert($get(idx));
            }

            /// Membership test.
            pub fn contains(&self, idx: $idx) -> bool {
                self.bits.contains($get(idx))
            }

            /// Number of members.
            pub fn len(&self) -> usize {
                self.bits.len()
            }

            /// True when empty.
            pub fn is_empty(&self) -> bool {
                self.bits.is_empty()
            }

            /// In-place union.
            pub fn union_with(&mut self, other: &Self) {
                self.bits.union_with(&other.bits);
            }

            /// New set: union of the two.
            pub fn union(&self, other: &Self) -> Self {
                let mut out = self.clone();
                out.union_with(other);
                out
            }

            /// New set: members of both.
            pub fn intersection(&self, other: &Self) -> Self {
                Self { bits: self.bits.intersection(&other.bits) }
            }

            /// New set: members of `self` not in `other`.
            pub fn difference(&self, other: &Self) -> Self {
                Self { bits: self.bits.difference(&other.bits) }
            }

            /// True if every member of `self` is in `other`.
            pub fn is_subset(&self, other: &Self) -> bool {
                self.bits.is_subset(&other.bits)
            }

            /// Iterator over members in increasing index order.
            pub fn iter(&self) -> impl Iterator<Item = $idx> + '_ {
                self.bits.iter().map($make)
            }
        }

        impl FromIterator<$idx> for $name {
            fn from_iter<I: IntoIterator<Item = $idx>>(iter: I) -> Self {
                let mut s = Self::new();
                for i in iter {
                    s.insert(i);
                }
                s
            }
        }

        impl Extend<$idx> for $name {
            fn extend<I: IntoIterator<Item = $idx>>(&mut self, iter: I) {
                for i in iter {
                    self.insert(i);
                }
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{{")?;
                for (n, i) in self.bits.iter().enumerate() {
                    if n > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, concat!($prefix, "{}"), i)?;
                }
                write!(f, "}}")
            }
        }
    };
}

index_set!(
    /// A set of attribute indices within one class.
    AttrSet,
    AttrIndex,
    |a: AttrIndex| a.get(),
    AttrIndex::new,
    "a"
);

index_set!(
    /// A set of page indices within one object.
    PageSet,
    PageIndex,
    |p: PageIndex| p.get(),
    PageIndex::new,
    "p"
);

#[cfg(test)]
mod tests {
    use super::*;

    fn ps(indices: &[u16]) -> PageSet {
        indices.iter().map(|&i| PageIndex::new(i)).collect()
    }

    #[test]
    fn empty_set() {
        let s = PageSet::new();
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
        assert!(!s.contains(PageIndex::new(0)));
        assert_eq!(s.to_string(), "{}");
    }

    #[test]
    fn insert_and_query() {
        let s = ps(&[1, 3, 200]); // spans multiple words
        assert_eq!(s.len(), 3);
        assert!(s.contains(PageIndex::new(200)));
        assert!(!s.contains(PageIndex::new(2)));
        assert_eq!(s.to_string(), "{p1,p3,p200}");
    }

    #[test]
    fn set_algebra() {
        let a = ps(&[0, 1, 2, 70]);
        let b = ps(&[2, 3, 70]);
        assert_eq!(a.union(&b), ps(&[0, 1, 2, 3, 70]));
        assert_eq!(a.intersection(&b), ps(&[2, 70]));
        assert_eq!(a.difference(&b), ps(&[0, 1]));
        assert_eq!(b.difference(&a), ps(&[3]));
    }

    #[test]
    fn subset_relations() {
        let small = ps(&[1, 2]);
        let big = ps(&[0, 1, 2, 3]);
        assert!(small.is_subset(&big));
        assert!(!big.is_subset(&small));
        assert!(PageSet::new().is_subset(&small));
        assert!(small.is_subset(&small));
        // Subset check across different word counts.
        assert!(!ps(&[100]).is_subset(&small));
        assert!(small.is_subset(&ps(&[1, 2, 100])));
    }

    #[test]
    fn iter_is_sorted() {
        let s = ps(&[9, 0, 64, 5]);
        let order: Vec<u16> = s.iter().map(|p| p.get()).collect();
        assert_eq!(order, vec![0, 5, 9, 64]);
    }

    #[test]
    fn duplicate_inserts_idempotent() {
        let mut s = PageSet::new();
        s.insert(PageIndex::new(7));
        s.insert(PageIndex::new(7));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn attr_set_shares_behaviour() {
        let mut s = AttrSet::new();
        s.extend([AttrIndex::new(2), AttrIndex::new(0)]);
        assert_eq!(s.len(), 2);
        assert_eq!(s.to_string(), "{a0,a2}");
    }

    #[test]
    fn intersection_of_disjoint_is_empty() {
        assert!(ps(&[1, 2]).intersection(&ps(&[3, 4])).is_empty());
    }
}
