//! Many short FIFO lists, one per dense key, sharing one node arena.
//!
//! Per-transaction bookkeeping (the objects a transaction holds, the
//! pre-images it logged) is a handful of entries per transaction over
//! tens of thousands of transactions. Giving each its own vector costs an
//! allocation per transaction; [`KeyedLists`] links every list through
//! one arena instead and recycles freed nodes, so once the arena has grown
//! to the peak number of live entries, pushing allocates nothing.

/// FIFO lists keyed by a dense `usize`, linked through one node arena.
/// A key's list keeps insertion order.
#[derive(Debug, Clone)]
pub struct KeyedLists<T> {
    /// Per key: first and last node, each + 1 (0 while the list is empty).
    ends: Vec<(u32, u32)>,
    /// Value and next node + 1 (0 ends a list). Freed nodes are chained
    /// from `free` through the same link.
    nodes: Vec<(T, u32)>,
    /// First free node + 1 (0 when none is free).
    free: u32,
    /// Keys whose list is not empty.
    non_empty: usize,
}

/// A list detached from its key by [`KeyedLists::detach`]: its remaining
/// nodes, consumed front to back by [`KeyedLists::pop`].
#[derive(Debug)]
#[must_use = "a detached list's nodes return to the arena only when popped"]
pub struct Detached(u32);

impl<T: Copy> Default for KeyedLists<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Copy> KeyedLists<T> {
    /// No lists yet.
    pub const fn new() -> Self {
        KeyedLists {
            ends: Vec::new(),
            nodes: Vec::new(),
            free: 0,
            non_empty: 0,
        }
    }

    /// Number of keys whose list is not empty.
    pub fn non_empty(&self) -> usize {
        self.non_empty
    }

    /// One past the highest key ever pushed to.
    pub fn keys(&self) -> usize {
        self.ends.len()
    }

    /// Appends `value` to `key`'s list.
    pub fn push(&mut self, key: usize, value: T) {
        let node = match self.free {
            0 => {
                self.nodes.push((value, 0));
                u32::try_from(self.nodes.len()).expect("list arena fits u32")
            }
            free => {
                let slot = &mut self.nodes[free as usize - 1];
                self.free = slot.1;
                *slot = (value, 0);
                free
            }
        };
        if key >= self.ends.len() {
            self.ends.resize(key + 1, (0, 0));
        }
        let (first, last) = &mut self.ends[key];
        match *last {
            0 => {
                *first = node;
                self.non_empty += 1;
            }
            tail => self.nodes[tail as usize - 1].1 = node,
        }
        *last = node;
    }

    /// `key`'s values, front to back.
    pub fn iter(&self, key: usize) -> impl Iterator<Item = T> + '_ {
        let mut next = self.ends.get(key).map_or(0, |&(first, _)| first);
        std::iter::from_fn(move || {
            let (value, link) = self.nodes[next.checked_sub(1)? as usize];
            next = link;
            Some(value)
        })
    }

    /// True when `key`'s list is empty.
    pub fn is_empty(&self, key: usize) -> bool {
        self.ends.get(key).is_none_or(|&(first, _)| first == 0)
    }

    /// Empties `key`'s list, returning its nodes for [`KeyedLists::pop`].
    pub fn detach(&mut self, key: usize) -> Detached {
        match self.ends.get_mut(key) {
            Some(ends) if ends.0 != 0 => {
                self.non_empty -= 1;
                Detached(std::mem::take(ends).0)
            }
            _ => Detached(0),
        }
    }

    /// Takes the front value of a detached list and recycles its node.
    pub fn pop(&mut self, list: &mut Detached) -> Option<T> {
        let node = list.0.checked_sub(1)? as usize;
        let (value, next) = self.nodes[node];
        self.nodes[node].1 = self.free;
        self.free = list.0;
        list.0 = next;
        Some(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimRng;

    /// Seeded streams of pushes, detaches and moves between keys agree
    /// with a vector of vectors after every operation, and the arena
    /// never holds more nodes than the peak number of live values.
    #[test]
    fn lists_match_a_vector_of_vectors() {
        for seed in 0..20 {
            let mut rng = SimRng::seed_from_u64(seed);
            let mut lists = KeyedLists::new();
            let mut reference: Vec<Vec<u32>> = vec![Vec::new(); 12];
            let mut peak = 0;
            for step in 0..400u32 {
                let key = rng.next_below(12) as usize;
                match rng.next_below(4) {
                    0 | 1 => {
                        lists.push(key, step);
                        reference[key].push(step);
                    }
                    2 => {
                        let mut list = lists.detach(key);
                        let mut drained = Vec::new();
                        while let Some(v) = lists.pop(&mut list) {
                            drained.push(v);
                        }
                        assert_eq!(drained, std::mem::take(&mut reference[key]));
                    }
                    _ => {
                        // Move `key`'s values onto another list, as a
                        // parent inherits a child's entries.
                        let to = rng.next_below(12) as usize;
                        let mut list = lists.detach(key);
                        while let Some(v) = lists.pop(&mut list) {
                            lists.push(to, v);
                        }
                        let moved = std::mem::take(&mut reference[key]);
                        reference[to].extend(moved);
                    }
                }
                let live: usize = reference.iter().map(Vec::len).sum();
                peak = peak.max(live);
                assert!(lists.nodes.len() <= peak, "seed {seed} step {step}");
                for (k, want) in reference.iter().enumerate() {
                    assert_eq!(lists.iter(k).collect::<Vec<_>>(), *want);
                    assert_eq!(lists.is_empty(k), want.is_empty());
                }
                let non_empty = reference.iter().filter(|l| !l.is_empty()).count();
                assert_eq!(lists.non_empty(), non_empty);
            }
        }
    }

    #[test]
    fn untouched_keys_read_as_empty() {
        let mut lists = KeyedLists::new();
        lists.push(3, 'a');
        assert!(lists.is_empty(0) && lists.is_empty(99));
        assert_eq!(lists.iter(99).count(), 0);
        assert_eq!(lists.keys(), 4);
        let mut none = lists.detach(99);
        assert_eq!(lists.pop(&mut none), None);
    }
}
