//! Moving a page allocates nothing.
//!
//! A page is its version and its content chain, copied by value. Once a
//! store holds a row for the object, copying a page into it from another
//! store, capturing an UNDO pre-image, stamping the page, rolling the
//! stamp back and restoring the page from a shadow must not call the
//! allocator at all.
//!
//! This binary installs `CountingAlloc` as its global allocator and holds
//! exactly one test, so no other test thread allocates while it counts.

use lotec_mem::{ObjectId, PageId, PageStore, Recovery, ShadowPages, UndoLog, Version};
use lotec_obs::{alloc, CountingAlloc};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Allocations made while `step` runs.
fn allocs_in<T>(step: impl FnOnce() -> T) -> (u64, T) {
    alloc::force_profiling(Some(true));
    let before = alloc::snapshot();
    let out = step();
    let allocs = alloc::snapshot().delta_since(&before).total_allocs();
    alloc::force_profiling(Some(false));
    (allocs, out)
}

#[test]
fn page_moves_allocate_nothing_once_rows_exist() {
    let object = ObjectId::new(1);
    let page = PageId::new(object, 1);
    let neighbour = PageId::new(object, 0);
    let mut owner = PageStore::new(4096, &[1, 2]);
    let mut cache = PageStore::new(4096, &[1, 2]);
    owner.apply_stamp(page, 7);
    owner.publish_page(page, Version::new(1));
    // Both stores already hold a row covering `page`.
    cache.ensure(page);
    // Each recovery table already holds an older capture, so its
    // containers exist and have room for one more.
    let mut undo = UndoLog::new();
    undo.before_write(1, &cache, neighbour);
    let mut shadows = ShadowPages::new();
    shadows.before_write(9, &cache, neighbour);

    let copy = *owner.get(page).expect("owner copy");
    let (n, ()) = allocs_in(|| cache.install(page, copy.version(), copy.chain()));
    assert_eq!(n, 0, "install");
    assert_eq!(cache.get(page), Some(&copy));

    let (n, ()) = allocs_in(|| undo.before_write(1, &cache, page));
    assert_eq!(n, 0, "UNDO pre-image capture");
    let (n, _) = allocs_in(|| cache.apply_stamp(page, 11));
    assert_eq!(n, 0, "stamp after a capture");
    assert_ne!(cache.chain(page), copy.chain());
    let (n, restored) = allocs_in(|| undo.rollback(1, &mut cache));
    assert_eq!(n, 0, "UNDO rollback");
    assert_eq!(restored, 2);
    assert_eq!(cache.get(page), Some(&copy));

    let (n, ()) = allocs_in(|| shadows.before_write(2, &cache, page));
    assert_eq!(n, 0, "shadow capture");
    cache.apply_stamp(page, 12);
    let (n, restored) = allocs_in(|| shadows.rollback(2, &mut cache));
    assert_eq!(n, 0, "restore from a shadow");
    assert_eq!(restored, 1);
    assert_eq!(cache.get(page), Some(&copy));
}
