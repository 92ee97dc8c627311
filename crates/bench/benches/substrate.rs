//! Self-timed microbenches of the substrate crates: the event queue, the
//! deterministic RNG, page-set algebra, page-store write/publish cycles
//! and undo-log capture/rollback — the hot inner loops of every
//! simulation.

use lotec_bench::harness::{bench, opaque};
use lotec_mem::{ObjectId, PageId, PageStore, Recovery, UndoLog, Version};
use lotec_object::PageSet;
use lotec_sim::{EventQueue, SimRng, SimTime};

fn bench_event_queue() {
    let mut rng = SimRng::seed_from_u64(1);
    let times: Vec<u64> = (0..1000).map(|_| rng.next_below(1_000_000)).collect();
    bench("event_queue_push_pop_1k", || {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(SimTime::from_nanos(t), i);
        }
        let mut acc = 0usize;
        while let Some((_, i)) = q.pop() {
            acc ^= i;
        }
        acc
    });
}

fn bench_rng() {
    let mut rng = SimRng::seed_from_u64(2);
    bench("rng_range_inclusive", move || rng.range_inclusive(0, 999));
}

fn bench_pageset() {
    let a: PageSet = (0..20u16)
        .step_by(2)
        .map(lotec_mem::PageIndex::new)
        .collect();
    let bset: PageSet = (5..20u16).map(lotec_mem::PageIndex::new).collect();
    bench("pageset_union_intersect_20p", || {
        let u = a.union(opaque(&bset));
        let i = a.intersection(&bset);
        u.len() + i.len()
    });
}

fn bench_page_store() {
    let mut store = PageStore::new(4096, &[20]);
    let object = ObjectId::new(0);
    for p in 0..20u16 {
        store.ensure(PageId::new(object, p));
    }
    let mut v = 1u64;
    bench("page_store_stamp_publish_cycle", move || {
        for p in 0..20u16 {
            store.apply_stamp(PageId::new(object, p), v);
        }
        for p in 0..20u16 {
            store.publish_page(PageId::new(object, p), Version::new(v));
        }
        v += 1;
        v
    });
}

fn bench_page_transfer() {
    // The engine's gather loop: read the owner's copy of each page and
    // install its version and chain into another node's store.
    let mut owner = PageStore::new(4096, &[20]);
    let object = ObjectId::new(0);
    for p in 0..20u16 {
        let pid = PageId::new(object, p);
        owner.ensure(pid);
        owner.apply_stamp(pid, u64::from(p) + 1);
        owner.publish_page(pid, Version::new(1));
    }
    let mut cache = PageStore::new(4096, &[20]);
    bench("page_transfer_install_20p", move || {
        for p in 0..20u16 {
            let pid = PageId::new(object, p);
            let page = owner.get(pid).expect("owner copy");
            cache.install(pid, page.version(), page.chain());
        }
        cache.len()
    });
}

fn bench_undo_log() {
    let mut store = PageStore::new(4096, &[20]);
    let object = ObjectId::new(0);
    for p in 0..20u16 {
        store.ensure(PageId::new(object, p));
    }
    bench("undo_capture_rollback_20p", move || {
        let mut undo = UndoLog::new();
        for p in 0..20u16 {
            let pid = PageId::new(object, p);
            undo.before_write(1, &store, pid);
            store.apply_stamp(pid, 42);
        }
        undo.rollback(1, &mut store)
    });
}

fn main() {
    bench_event_queue();
    bench_rng();
    bench_pageset();
    bench_page_store();
    bench_page_transfer();
    bench_undo_log();
}
