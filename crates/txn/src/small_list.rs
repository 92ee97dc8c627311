//! A sequence with one inline slot.
//!
//! The lock table's per-entry lists are overwhelmingly short: an object
//! almost always has one holder, at most one retainer and at most one
//! waiting family, and a family almost always has exactly one outstanding
//! request. [`SmallList`] keeps the first element inline — the
//! single-element case costs no heap allocation at all — and spills the
//! (rare) tail into a `Vec`.
//!
//! Invariant: the spill vector is non-empty only while the inline slot is
//! occupied, so the inline slot is always element 0 and the element
//! sequence `head, rest[0], rest[1], …` is canonical (derived equality
//! compares sequences, not storage accidents).

/// A sequence whose first element is stored inline; elements beyond the
/// first spill to a heap vector. Serves as a FIFO queue (`push_back`,
/// `pop_front`) and as a short positional list (`insert`, `remove`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SmallList<T> {
    head: Option<T>,
    rest: Vec<T>,
}

impl<T> Default for SmallList<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> SmallList<T> {
    /// Creates an empty list.
    pub const fn new() -> Self {
        Self {
            head: None,
            rest: Vec::new(),
        }
    }

    /// Creates a list holding a single element — entirely inline, no
    /// allocation.
    pub const fn one(value: T) -> Self {
        Self {
            head: Some(value),
            rest: Vec::new(),
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        usize::from(self.head.is_some()) + self.rest.len()
    }

    /// True when the list is empty.
    pub fn is_empty(&self) -> bool {
        self.head.is_none()
    }

    /// Appends `value` at the back.
    pub fn push_back(&mut self, value: T) {
        if self.head.is_none() {
            debug_assert!(self.rest.is_empty(), "spill without inline head");
            self.head = Some(value);
        } else {
            self.rest.push(value);
        }
    }

    /// Removes and returns the front element, if any.
    pub fn pop_front(&mut self) -> Option<T> {
        self.head.as_ref()?;
        Some(self.remove(0))
    }

    /// The front element, if any.
    pub fn front(&self) -> Option<&T> {
        self.head.as_ref()
    }

    /// Inserts `value` at position `index`, shifting later elements back.
    ///
    /// # Panics
    ///
    /// Panics if `index > len`.
    pub fn insert(&mut self, index: usize, value: T) {
        match index.checked_sub(1) {
            None => {
                if let Some(old) = self.head.replace(value) {
                    self.rest.insert(0, old);
                }
            }
            Some(i) => {
                assert!(self.head.is_some(), "insert past the end of an empty list");
                self.rest.insert(i, value);
            }
        }
    }

    /// Removes and returns the element at `index`, shifting later elements
    /// forward.
    ///
    /// # Panics
    ///
    /// Panics if `index >= len`.
    pub fn remove(&mut self, index: usize) -> T {
        match index.checked_sub(1) {
            None => {
                let front = self.head.take().expect("remove from an empty list");
                if !self.rest.is_empty() {
                    self.head = Some(self.rest.remove(0));
                }
                front
            }
            Some(i) => self.rest.remove(i),
        }
    }

    /// Iterates front to back. The concrete return type carries no
    /// destructor, so callers can drop the borrow early (an opaque
    /// `impl Iterator` would pin it to end of scope).
    pub fn iter(&self) -> std::iter::Chain<std::option::Iter<'_, T>, std::slice::Iter<'_, T>> {
        self.head.iter().chain(self.rest.iter())
    }

    /// Iterates front to back, mutably (concrete type — see [`Self::iter`]).
    pub fn iter_mut(
        &mut self,
    ) -> std::iter::Chain<std::option::IterMut<'_, T>, std::slice::IterMut<'_, T>> {
        self.head.iter_mut().chain(self.rest.iter_mut())
    }

    /// Keeps only the elements for which `keep` returns true, preserving
    /// order (like `Vec::retain_mut`).
    pub fn retain_mut<F: FnMut(&mut T) -> bool>(&mut self, mut keep: F) {
        if let Some(h) = self.head.as_mut() {
            if !keep(h) {
                self.head = None;
            }
        }
        self.rest.retain_mut(keep);
        if self.head.is_none() && !self.rest.is_empty() {
            self.head = Some(self.rest.remove(0));
        }
    }
}

impl<T> std::ops::Index<usize> for SmallList<T> {
    type Output = T;

    fn index(&self, index: usize) -> &T {
        match index.checked_sub(1) {
            None => self.head.as_ref().expect("index 0 of an empty list"),
            Some(i) => &self.rest[i],
        }
    }
}

impl<T> std::ops::IndexMut<usize> for SmallList<T> {
    fn index_mut(&mut self, index: usize) -> &mut T {
        match index.checked_sub(1) {
            None => self.head.as_mut().expect("index 0 of an empty list"),
            Some(i) => &mut self.rest[i],
        }
    }
}

impl<T> IntoIterator for SmallList<T> {
    type Item = T;
    type IntoIter = std::iter::Chain<std::option::IntoIter<T>, std::vec::IntoIter<T>>;

    fn into_iter(self) -> Self::IntoIter {
        self.head.into_iter().chain(self.rest)
    }
}

impl<'a, T> IntoIterator for &'a SmallList<T> {
    type Item = &'a T;
    type IntoIter = std::iter::Chain<std::option::Iter<'a, T>, std::slice::Iter<'a, T>>;

    fn into_iter(self) -> Self::IntoIter {
        self.head.iter().chain(self.rest.iter())
    }
}

impl<T> FromIterator<T> for SmallList<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut q = Self::new();
        for value in iter {
            q.push_back(value);
        }
        q
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order_across_inline_and_spill() {
        let mut q = SmallList::new();
        assert!(q.is_empty());
        q.push_back(1);
        q.push_back(2);
        q.push_back(3);
        assert_eq!(q.len(), 3);
        assert_eq!(q.front(), Some(&1));
        assert_eq!(q.iter().copied().collect::<Vec<_>>(), vec![1, 2, 3]);
        assert_eq!(q.pop_front(), Some(1));
        assert_eq!(q.pop_front(), Some(2));
        q.push_back(4);
        assert_eq!(q.pop_front(), Some(3));
        assert_eq!(q.pop_front(), Some(4));
        assert_eq!(q.pop_front(), None);
    }

    #[test]
    fn retain_promotes_new_front() {
        let mut q: SmallList<i32> = (1..=5).collect();
        q.retain_mut(|v| *v % 2 == 0);
        assert_eq!(q.iter().copied().collect::<Vec<_>>(), vec![2, 4]);
        assert_eq!(q.front(), Some(&2));
        q.retain_mut(|_| false);
        assert!(q.is_empty());
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn equality_is_by_sequence() {
        // Same sequence via different operation histories.
        let mut a: SmallList<i32> = (0..4).collect();
        a.pop_front();
        let b: SmallList<i32> = (1..4).collect();
        assert_eq!(a, b);
        let mut c: SmallList<i32> = [1, 3].into_iter().collect();
        c.insert(1, 2);
        assert_eq!(a, c);
    }

    #[test]
    fn single_element_stays_inline() {
        let q = SmallList::one(7u8);
        assert_eq!(q.len(), 1);
        assert_eq!(q.rest.capacity(), 0, "no spill allocation");
        assert_eq!(q.into_iter().collect::<Vec<_>>(), vec![7]);
    }

    /// Seeded positional inserts and removals agree with a `Vec` doing
    /// the same, and the canonical form holds throughout.
    #[test]
    fn positional_edits_match_a_vec() {
        for seed in 0..20 {
            let mut rng = lotec_sim::SimRng::seed_from_u64(seed);
            let mut list = SmallList::new();
            let mut reference = Vec::new();
            for step in 0..100u32 {
                if reference.is_empty() || rng.chance(0.55) {
                    let at = rng.next_below(reference.len() as u64 + 1) as usize;
                    list.insert(at, step);
                    reference.insert(at, step);
                } else {
                    let at = rng.next_below(reference.len() as u64) as usize;
                    assert_eq!(list.remove(at), reference.remove(at));
                }
                assert_eq!(list.iter().copied().collect::<Vec<_>>(), reference);
                assert_eq!(list.len(), reference.len());
                for (i, &v) in reference.iter().enumerate() {
                    assert_eq!(list[i], v);
                }
                assert!(list.head.is_some() || list.rest.is_empty());
            }
        }
    }
}
