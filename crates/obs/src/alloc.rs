//! Optional allocation accounting for the host-plane profiler.
//!
//! [`CountingAlloc`] is a drop-in global allocator that forwards every
//! request to the system allocator and — only when `LOTEC_PROFILE_ALLOC=1`
//! is set in the environment — attributes allocation counts and bytes to
//! the [`HostRegion`] currently open on the
//! thread's [`WallProfiler`](crate::host::WallProfiler) scope stack
//! (slot 0 collects allocations made outside any profiled scope).
//!
//! The accounting is wired so the *off* path costs one relaxed atomic load
//! per allocation and touches nothing else: no thread-local access, no
//! counter traffic, no behavioral change. The environment variable is read
//! once; while it is being probed the state is parked at "off" so the
//! allocations made by the probe itself cannot recurse into the counter.
//!
//! Only binaries that opt in install the allocator (the `perf` bench bin
//! does, via `#[global_allocator]`); libraries and tests that never install
//! it are untouched, which keeps `BENCH_smoke.json` and the golden
//! fingerprints trivially byte-identical.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};

use crate::host::{HostRegion, HOST_REGION_COUNT};
use crate::json::Json;

/// Number of attribution slots: one per region plus slot 0 for
/// allocations outside any profiled scope.
pub const ALLOC_SLOTS: usize = HOST_REGION_COUNT + 1;

/// 0 = not probed yet, 1 = counting, 2 = off.
static STATE: AtomicU8 = AtomicU8::new(0);

#[allow(clippy::declare_interior_mutable_const)]
const ZERO: AtomicU64 = AtomicU64::new(0);
static ALLOC_COUNTS: [AtomicU64; ALLOC_SLOTS] = [ZERO; ALLOC_SLOTS];
static ALLOC_BYTES: [AtomicU64; ALLOC_SLOTS] = [ZERO; ALLOC_SLOTS];

thread_local! {
    /// Slot the current thread's allocations are attributed to
    /// (region index + 1; 0 = unattributed). Const-initialized so reading
    /// it never allocates — the allocator itself consults it.
    static CURRENT_SLOT: Cell<usize> = const { Cell::new(0) };
}

/// Sets the attribution slot for the current thread. Called by
/// [`WallProfiler`](crate::host::WallProfiler) on scope enter/exit;
/// `slot` is a region index + 1, or 0 for "outside any scope".
#[inline]
pub fn set_current_region(slot: usize) {
    debug_assert!(slot < ALLOC_SLOTS);
    // try_with: thread teardown may allocate after TLS destruction.
    let _ = CURRENT_SLOT.try_with(|c| c.set(slot));
}

/// True when `LOTEC_PROFILE_ALLOC=1` was set at first use.
pub fn profiling_enabled() -> bool {
    match STATE.load(Ordering::Relaxed) {
        1 => true,
        2 => false,
        _ => {
            // Reading the environment allocates; park the state at "off"
            // first so those allocations bypass the counting path instead
            // of re-entering this probe.
            STATE.store(2, Ordering::Relaxed);
            let on = std::env::var_os("LOTEC_PROFILE_ALLOC").is_some_and(|v| v == "1");
            STATE.store(if on { 1 } else { 2 }, Ordering::Relaxed);
            on
        }
    }
}

/// Test/bench hook: force accounting on or off regardless of the
/// environment. Pass `None` to re-probe the environment on next use.
pub fn force_profiling(on: Option<bool>) {
    let state = match on {
        Some(true) => 1,
        Some(false) => 2,
        None => 0,
    };
    STATE.store(state, Ordering::Relaxed);
}

#[inline]
fn record(bytes: usize) {
    if !profiling_enabled() {
        return;
    }
    let slot = CURRENT_SLOT.try_with(Cell::get).unwrap_or(0);
    ALLOC_COUNTS[slot].fetch_add(1, Ordering::Relaxed);
    ALLOC_BYTES[slot].fetch_add(bytes as u64, Ordering::Relaxed);
}

/// A counting wrapper around the system allocator.
///
/// Install with `#[global_allocator] static A: CountingAlloc =
/// CountingAlloc;` in a binary that wants allocation attribution.
/// `realloc` is counted as one allocation of the new size; `dealloc` is
/// never counted (the report is about allocation pressure, not live bytes).
#[derive(Debug, Clone, Copy, Default)]
pub struct CountingAlloc;

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// A point-in-time copy of the global allocation counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocSnapshot {
    /// Allocation events per slot (slot 0 = unattributed).
    pub allocs: [u64; ALLOC_SLOTS],
    /// Requested bytes per slot.
    pub bytes: [u64; ALLOC_SLOTS],
}

/// Reads the current counters. All zeros unless accounting is enabled and
/// a [`CountingAlloc`] is installed as the global allocator.
pub fn snapshot() -> AllocSnapshot {
    let mut s = AllocSnapshot::default();
    for i in 0..ALLOC_SLOTS {
        s.allocs[i] = ALLOC_COUNTS[i].load(Ordering::Relaxed);
        s.bytes[i] = ALLOC_BYTES[i].load(Ordering::Relaxed);
    }
    s
}

impl AllocSnapshot {
    /// Counter increase since `earlier` (saturating, per slot).
    pub fn delta_since(&self, earlier: &AllocSnapshot) -> AllocSnapshot {
        let mut d = AllocSnapshot::default();
        for i in 0..ALLOC_SLOTS {
            d.allocs[i] = self.allocs[i].saturating_sub(earlier.allocs[i]);
            d.bytes[i] = self.bytes[i].saturating_sub(earlier.bytes[i]);
        }
        d
    }

    /// Stable name for attribution slot `slot`.
    pub fn slot_name(slot: usize) -> &'static str {
        if slot == 0 {
            "unattributed"
        } else {
            HostRegion::ALL[slot - 1].name()
        }
    }

    /// Total allocation events across all slots.
    pub fn total_allocs(&self) -> u64 {
        self.allocs.iter().sum()
    }

    /// Total requested bytes across all slots.
    pub fn total_bytes(&self) -> u64 {
        self.bytes.iter().sum()
    }

    /// JSON rendering: `{slot: {allocs, bytes}}` for non-zero slots, plus
    /// totals.
    pub fn to_json(&self) -> Json {
        let slots: Vec<(&str, Json)> = (0..ALLOC_SLOTS)
            .filter(|&i| self.allocs[i] > 0 || self.bytes[i] > 0)
            .map(|i| {
                (
                    Self::slot_name(i),
                    Json::obj(vec![
                        ("allocs", Json::U64(self.allocs[i])),
                        ("bytes", Json::U64(self.bytes[i])),
                    ]),
                )
            })
            .collect();
        Json::obj(vec![
            ("total_allocs", Json::U64(self.total_allocs())),
            ("total_bytes", Json::U64(self.total_bytes())),
            ("by_region", Json::obj(slots)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // These tests exercise the GlobalAlloc methods directly (the test
    // binary does not install CountingAlloc globally) and force the state
    // machine rather than depending on the test runner's environment.

    // The forced state is process-global; serialize the tests that flip it
    // so a concurrently running test cannot observe the wrong mode.
    static TEST_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn with_forced<R>(on: bool, f: impl FnOnce() -> R) -> R {
        let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        force_profiling(Some(on));
        let r = f();
        force_profiling(Some(false));
        r
    }

    #[test]
    fn disabled_counts_nothing() {
        with_forced(false, || {
            let before = snapshot();
            let a = CountingAlloc;
            let layout = Layout::from_size_align(64, 8).unwrap();
            unsafe {
                let p = a.alloc(layout);
                assert!(!p.is_null());
                a.dealloc(p, layout);
            }
            let delta = snapshot().delta_since(&before);
            assert_eq!(delta.total_allocs(), 0);
            assert_eq!(delta.total_bytes(), 0);
        });
    }

    #[test]
    fn enabled_attributes_to_current_region() {
        with_forced(true, || {
            let region = HostRegion::CowWrite;
            set_current_region(region.index() + 1);
            let before = snapshot();
            let a = CountingAlloc;
            let layout = Layout::from_size_align(128, 8).unwrap();
            unsafe {
                let p = a.alloc(layout);
                assert!(!p.is_null());
                a.dealloc(p, layout);
            }
            set_current_region(0);
            let delta = snapshot().delta_since(&before);
            let slot = region.index() + 1;
            assert!(delta.allocs[slot] >= 1, "allocs {:?}", delta.allocs);
            assert!(delta.bytes[slot] >= 128, "bytes {:?}", delta.bytes);
            assert_eq!(AllocSnapshot::slot_name(slot), "cow_write");
        });
    }

    #[test]
    fn realloc_counts_new_size() {
        with_forced(true, || {
            set_current_region(0);
            let before = snapshot();
            let a = CountingAlloc;
            let layout = Layout::from_size_align(16, 8).unwrap();
            unsafe {
                let p = a.alloc(layout);
                let p2 = a.realloc(p, layout, 256);
                assert!(!p2.is_null());
                a.dealloc(p2, Layout::from_size_align(256, 8).unwrap());
            }
            let delta = snapshot().delta_since(&before);
            assert!(delta.allocs[0] >= 2);
            assert!(delta.bytes[0] >= 16 + 256);
        });
    }

    #[test]
    fn snapshot_json_lists_nonzero_slots() {
        let mut s = AllocSnapshot::default();
        s.allocs[0] = 3;
        s.bytes[0] = 300;
        let json = s.to_json();
        assert_eq!(json.get("total_allocs").and_then(Json::as_u64), Some(3));
        assert!(json
            .get("by_region")
            .and_then(|b| b.get("unattributed"))
            .is_some());
    }
}
