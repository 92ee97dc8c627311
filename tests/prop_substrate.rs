//! Randomized-property tests of the substrate crates' data structures:
//! set algebra, layout arithmetic, recovery round-trips, the lock table's
//! structural invariants, and page-map coherence. Inputs are drawn from a
//! seeded [`SimRng`] stream, so every run checks the same deterministic
//! sample.

use lotec::mem::{
    ObjectId, PageId, PageIndex, PageMaps, PageStore, Recovery, ShadowPages, UndoLog, Version,
};
use lotec::object::{ClassBuilder, PageSet};
use lotec::sim::{EventQueue, NodeId, SimRng, SimTime};
use lotec::txn::{LockMode, LockTable, TxnTree};

const CASES: u64 = 64;

fn cases(stream: u64) -> impl Iterator<Item = SimRng> {
    let root = SimRng::seed_from_u64(0x5B57_4A7E ^ stream);
    (0..CASES).map(move |i| root.fork(i))
}

fn random_pageset(rng: &mut SimRng, max: u16) -> PageSet {
    let len = rng.next_below(12);
    (0..len)
        .map(|_| PageIndex::new(rng.next_below(max as u64) as u16))
        .collect()
}

#[test]
fn pageset_algebra_laws() {
    for mut rng in cases(1) {
        let a = random_pageset(&mut rng, 64);
        let b = random_pageset(&mut rng, 64);
        let c = random_pageset(&mut rng, 64);
        // Commutativity and associativity of union.
        assert_eq!(a.union(&b), b.union(&a));
        assert_eq!(a.union(&b).union(&c), a.union(&b.union(&c)));
        // Intersection distributes over union.
        assert_eq!(
            a.intersection(&b.union(&c)),
            a.intersection(&b).union(&a.intersection(&c))
        );
        // Difference + intersection partition the set.
        let diff = a.difference(&b);
        let inter = a.intersection(&b);
        assert_eq!(diff.union(&inter), a.clone());
        assert!(diff.intersection(&inter).is_empty());
        // Subset relations.
        assert!(inter.is_subset(&a) && inter.is_subset(&b));
        assert!(a.is_subset(&a.union(&b)));
    }
}

#[test]
fn pageset_iteration_sorted_and_consistent() {
    for mut rng in cases(2) {
        let a = random_pageset(&mut rng, 300);
        let items: Vec<u16> = a.iter().map(|p| p.get()).collect();
        let mut sorted = items.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(&items, &sorted);
        assert_eq!(items.len(), a.len());
        for p in &items {
            assert!(a.contains(PageIndex::new(*p)));
        }
    }
}

#[test]
fn layout_covers_every_attribute_exactly() {
    for mut rng in cases(3) {
        let sizes: Vec<u32> = (0..rng.range_inclusive(1, 9))
            .map(|_| rng.range_inclusive(1, 4999) as u32)
            .collect();
        let page_size = rng.range_inclusive(64, 1023) as u32;
        let mut builder = ClassBuilder::new("T");
        for (i, &s) in sizes.iter().enumerate() {
            builder = builder.attribute(format!("a{i}"), s);
        }
        let class = builder
            .method("noop", |m| m.path(|p| p.reads(&["a0"])))
            .build();
        let layout = lotec::object::Layout::of(&class, page_size);
        // Total bytes = sum of attribute sizes; page count covers them.
        let total: u64 = sizes.iter().map(|&s| u64::from(s)).sum();
        assert_eq!(layout.total_bytes(), total);
        assert!(u64::from(layout.num_pages()) * u64::from(page_size) >= total);
        // The union of all attributes' pages is exactly all pages.
        let mut union = PageSet::new();
        for i in 0..sizes.len() {
            union.union_with(&layout.pages_of_attr(lotec::object::AttrIndex::new(i as u16)));
        }
        assert_eq!(union, layout.all_pages());
    }
}

#[test]
fn recovery_rollback_is_exact_inverse() {
    for mut rng in cases(4) {
        let ops: Vec<(u16, u64)> = (0..rng.range_inclusive(1, 39))
            .map(|_| (rng.next_below(8) as u16, rng.range_inclusive(1, 999)))
            .collect();
        let use_shadow = rng.chance(0.5);
        let object = ObjectId::new(0);
        let mut store = PageStore::new(64, &[8]);
        // Pre-populate with distinct content.
        for p in 0..8u16 {
            store.install(PageId::new(object, p), Version::new(1), p as u64 + 100);
        }
        let before: Vec<u64> = (0..8u16)
            .map(|p| store.chain(PageId::new(object, p)))
            .collect();
        let mut rec: Box<dyn Recovery> = if use_shadow {
            Box::new(ShadowPages::new())
        } else {
            Box::new(UndoLog::new())
        };
        for &(page, stamp) in &ops {
            let pid = PageId::new(object, page);
            rec.before_write(7, &store, pid);
            store.apply_stamp(pid, stamp);
        }
        rec.rollback(7, &mut store);
        let after: Vec<u64> = (0..8u16)
            .map(|p| store.chain(PageId::new(object, p)))
            .collect();
        assert_eq!(before, after);
        for p in 0..8u16 {
            assert_eq!(
                store.version_of(PageId::new(object, p)),
                Some(Version::new(1))
            );
        }
    }
}

#[test]
fn event_queue_is_a_stable_priority_queue() {
    for mut rng in cases(5) {
        let times: Vec<u64> = (0..rng.range_inclusive(1, 99))
            .map(|_| rng.next_below(1000))
            .collect();
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(SimTime::from_nanos(t), i);
        }
        let mut popped: Vec<(u64, usize)> = Vec::new();
        while let Some((t, i)) = q.pop() {
            popped.push((t.as_nanos(), i));
        }
        assert_eq!(popped.len(), times.len());
        for w in popped.windows(2) {
            assert!(w[0].0 <= w[1].0, "time order violated");
            if w[0].0 == w[1].0 {
                assert!(w[0].1 < w[1].1, "FIFO tie-break violated");
            }
        }
    }
}

#[test]
fn rng_range_inclusive_uniform_bounds() {
    for mut rng in cases(6) {
        let seed = rng.next_u64();
        let lo = rng.next_below(100);
        let span = rng.next_below(100);
        let mut inner = SimRng::seed_from_u64(seed);
        let hi = lo + span;
        for _ in 0..50 {
            let v = inner.range_inclusive(lo, hi);
            assert!((lo..=hi).contains(&v));
        }
    }
}

#[test]
fn page_map_versions_monotone_and_owned() {
    for mut rng in cases(7) {
        let updates: Vec<(u16, u32)> = (0..rng.next_below(60))
            .map(|_| (rng.next_below(6) as u16, rng.next_below(4) as u32))
            .collect();
        let mut maps = PageMaps::new();
        let map = maps.push(6, NodeId::new(0));
        let mut expect = [0u64; 6];
        for &(page, node) in &updates {
            let v = maps
                .get_mut(map)
                .record_update(PageIndex::new(page), NodeId::new(node));
            expect[page as usize] += 1;
            assert_eq!(v.get(), expect[page as usize]);
        }
        for p in 0..6u16 {
            let loc = maps.get(map).location(PageIndex::new(p));
            assert_eq!(loc.version.get(), expect[p as usize]);
            if expect[p as usize] == 0 {
                assert_eq!(loc.node, NodeId::new(0), "untouched pages stay at home");
            }
        }
    }
}

/// The lock table's structural invariants survive arbitrary legal
/// operation sequences: acquire from random roots, pre-commit chains,
/// aborts and root commits.
#[test]
fn lock_table_invariants_under_random_ops() {
    for mut rng in cases(8) {
        let script: Vec<(u32, u8, bool)> = (0..rng.range_inclusive(1, 59))
            .map(|_| {
                (
                    rng.next_below(6) as u32,
                    rng.next_below(4) as u8,
                    rng.chance(0.5),
                )
            })
            .collect();
        let mut tree = TxnTree::new();
        let mut table = LockTable::new();
        for i in 0..6 {
            table.register_object(ObjectId::new(i), 2, NodeId::new(0));
        }
        let mut live_roots: Vec<lotec::txn::TxnId> = Vec::new();
        for (obj, action, flag) in script {
            match action {
                // Start a root and try one acquisition.
                0 => {
                    let root = tree.begin_root(NodeId::new(obj % 4));
                    let mode = if flag {
                        LockMode::Write
                    } else {
                        LockMode::Read
                    };
                    let _ = table.acquire(ObjectId::new(obj), root, mode, &tree);
                    live_roots.push(root);
                }
                // Grow a child under a random live root and acquire. A
                // real family has one outstanding request at a time, so a
                // queued (or recursion-rejected) child aborts instead of
                // pre-committing with a dangling request.
                1 => {
                    if let Some(&root) = live_roots.last() {
                        if tree.state(root) == lotec::txn::TxnState::Active {
                            let child = tree.begin_child(root);
                            match table.acquire(ObjectId::new(obj), child, LockMode::Write, &tree) {
                                Ok(acq) if acq.is_granted() => {
                                    tree.pre_commit(child);
                                    table.release_pre_commit(
                                        child,
                                        &tree,
                                        &mut lotec::txn::PreCommitRelease::default(),
                                    );
                                }
                                _ => {
                                    table.release_abort(
                                        child,
                                        &tree,
                                        &mut lotec::txn::AbortRelease::default(),
                                    );
                                    table.cancel_family_waiters(tree.root_of(child), &tree);
                                    tree.abort(child);
                                }
                            }
                        }
                    }
                }
                // Commit the oldest live root.
                2 => {
                    if !live_roots.is_empty() {
                        let root = live_roots.remove(0);
                        if tree.state(root) == lotec::txn::TxnState::Active {
                            // Abort instead when it still waits somewhere.
                            for t in tree.active_subtree_post_order(root) {
                                table.release_abort(
                                    t,
                                    &tree,
                                    &mut lotec::txn::AbortRelease::default(),
                                );
                                tree.abort(t);
                            }
                            table.cancel_family_waiters(root, &tree);
                        }
                    }
                }
                // Abort the newest live root.
                _ => {
                    if let Some(root) = live_roots.pop() {
                        if tree.state(root) == lotec::txn::TxnState::Active {
                            for t in tree.active_subtree_post_order(root) {
                                table.release_abort(
                                    t,
                                    &tree,
                                    &mut lotec::txn::AbortRelease::default(),
                                );
                                tree.abort(t);
                            }
                            table.cancel_family_waiters(root, &tree);
                        }
                    }
                }
            }
            assert!(
                table.check_invariants(&tree).is_ok(),
                "{:?}",
                table.check_invariants(&tree)
            );
        }
    }
}
