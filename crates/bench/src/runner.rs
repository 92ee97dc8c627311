//! Bounded parallel sweep runner for the experiments and the chaos binary.
//!
//! Sweep cells are independent seeded simulations, so wall-clock scales
//! with cores — but every binary's *output* must stay byte-identical to a
//! serial run. The contract here makes that easy: [`run_indexed`] computes
//! cells concurrently yet returns results in index order, so callers do
//! all printing and JSON assembly *after* the merge, in the same order a
//! serial loop would have.
//!
//! The worker count comes from `LOTEC_BENCH_THREADS` when set (use `1` to
//! force a serial run), else from [`std::thread::available_parallelism`].
//! The workspace stays dependency-free: this is `std::thread::scope` plus
//! an atomic work counter, not a thread-pool crate.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Environment variable overriding the worker-thread count.
pub const THREADS_ENV: &str = "LOTEC_BENCH_THREADS";

/// The sweep worker count: `LOTEC_BENCH_THREADS` if set, else the host's
/// available parallelism, else 1.
///
/// # Panics
///
/// Panics if `LOTEC_BENCH_THREADS` is set to anything but a positive
/// integer — a typo'd override should fail loudly, not silently serialize.
pub fn threads() -> usize {
    parse_threads(std::env::var(THREADS_ENV).ok().as_deref())
}

fn parse_threads(var: Option<&str>) -> usize {
    match var {
        Some(v) => match v.trim().parse::<usize>() {
            Ok(n) if n >= 1 => n,
            _ => panic!("{THREADS_ENV} must be a positive integer, got {v:?}"),
        },
        None => std::thread::available_parallelism().map_or(1, |n| n.get()),
    }
}

/// Runs `f(0), f(1), …, f(n-1)` across [`threads`] workers and returns the
/// results in index order.
///
/// # Panics
///
/// Propagates the first panic from any worker.
pub fn run_indexed<T, F>(n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    run_indexed_on(threads(), n, f)
}

/// [`run_indexed`] with an explicit worker count (1 runs inline on the
/// calling thread).
///
/// # Panics
///
/// Propagates the first panic from any worker.
pub fn run_indexed_on<T, F>(workers: usize, n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    run_indexed_profiled_on(workers, n, f).0
}

/// What one sweep worker did: how many cells it claimed and how its wall
/// time split into busy (inside cell closures) and idle (work-stealing
/// overhead plus starvation at the tail of the sweep).
#[derive(Debug, Clone, Copy, Default)]
pub struct ThreadTelemetry {
    /// Cells this worker computed.
    pub cells: u64,
    /// Wall time spent inside cell closures, in nanoseconds.
    pub busy_ns: u64,
    /// Total wall time of the worker, spawn to exit, in nanoseconds.
    pub wall_ns: u64,
}

/// Telemetry for one whole sweep: per-worker rows plus the sweep's own
/// wall time. Explains parallel-speedup shortfalls: low
/// [`utilization`](SweepTelemetry::utilization) with balanced `cells`
/// means memory-bandwidth contention; skewed `cells`/`busy_ns` means one
/// long-pole cell serialized the tail.
#[derive(Debug, Clone, Default)]
pub struct SweepTelemetry {
    /// One row per worker, in worker-spawn order.
    pub threads: Vec<ThreadTelemetry>,
    /// Wall time of the whole sweep (spawn of the first worker to join of
    /// the last), in nanoseconds.
    pub wall_ns: u64,
}

impl SweepTelemetry {
    /// Total busy time across workers, in nanoseconds.
    #[must_use]
    pub fn total_busy_ns(&self) -> u64 {
        self.threads.iter().map(|t| t.busy_ns).sum()
    }

    /// Total cells computed across workers.
    #[must_use]
    pub fn total_cells(&self) -> u64 {
        self.threads.iter().map(|t| t.cells).sum()
    }

    /// Mean worker utilization: busy time over `workers × sweep wall
    /// time`, in `[0, 1]`. 1.0 means every worker computed cells for the
    /// whole sweep.
    #[must_use]
    pub fn utilization(&self) -> f64 {
        let denom = self.threads.len() as f64 * self.wall_ns as f64;
        if denom == 0.0 {
            return 0.0;
        }
        self.total_busy_ns() as f64 / denom
    }
}

/// [`run_indexed_on`] plus per-worker telemetry: the same index-ordered
/// results, and one [`ThreadTelemetry`] row per worker saying how many
/// cells it claimed and how much of its wall time was spent computing
/// them. This is the one work-stealing loop; [`run_indexed_on`] drops the
/// telemetry.
///
/// # Panics
///
/// Propagates the first panic from any worker.
pub fn run_indexed_profiled_on<T, F>(workers: usize, n: usize, f: F) -> (Vec<T>, SweepTelemetry)
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let sweep_start = Instant::now();
    if workers <= 1 || n <= 1 {
        let start = Instant::now();
        let out: Vec<T> = (0..n).map(&f).collect();
        let busy = start.elapsed().as_nanos() as u64;
        let telemetry = SweepTelemetry {
            threads: vec![ThreadTelemetry {
                cells: n as u64,
                busy_ns: busy,
                wall_ns: busy,
            }],
            wall_ns: sweep_start.elapsed().as_nanos() as u64,
        };
        return (out, telemetry);
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let spawned = workers.min(n);
    let telemetry_slots: Vec<Mutex<ThreadTelemetry>> = (0..spawned)
        .map(|_| Mutex::new(ThreadTelemetry::default()))
        .collect();
    std::thread::scope(|scope| {
        for telemetry_slot in telemetry_slots.iter().take(spawned) {
            let slots = &slots;
            let next = &next;
            let f = &f;
            scope.spawn(move || {
                let worker_start = Instant::now();
                let mut tel = ThreadTelemetry::default();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let cell_start = Instant::now();
                    let value = f(i);
                    tel.busy_ns += cell_start.elapsed().as_nanos() as u64;
                    tel.cells += 1;
                    *slots[i].lock().expect("result slot poisoned") = Some(value);
                }
                tel.wall_ns = worker_start.elapsed().as_nanos() as u64;
                *telemetry_slot.lock().expect("telemetry slot poisoned") = tel;
            });
        }
    });
    let out = slots
        .into_iter()
        .map(|s| {
            s.into_inner()
                .expect("result slot poisoned")
                .expect("worker filled every slot")
        })
        .collect();
    let telemetry = SweepTelemetry {
        threads: telemetry_slots
            .into_iter()
            .map(|s| s.into_inner().expect("telemetry slot poisoned"))
            .collect(),
        wall_ns: sweep_start.elapsed().as_nanos() as u64,
    };
    (out, telemetry)
}

/// [`run_indexed`] plus telemetry, with the worker count from
/// [`threads`].
///
/// # Panics
///
/// Propagates the first panic from any worker.
pub fn run_indexed_profiled<T, F>(n: usize, f: F) -> (Vec<T>, SweepTelemetry)
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    run_indexed_profiled_on(threads(), n, f)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_index_order() {
        for workers in [1, 2, 7] {
            let out = run_indexed_on(workers, 20, |i| i * i);
            assert_eq!(out, (0..20).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn more_workers_than_items_is_fine() {
        assert_eq!(run_indexed_on(8, 2, |i| i), vec![0, 1]);
        assert_eq!(run_indexed_on(8, 0, |i| i), Vec::<usize>::new());
    }

    #[test]
    fn merge_handles_more_cells_than_threads_and_zero_cells() {
        // Many more cells than workers: every slot must still be filled
        // exactly once and merged in index order.
        let out = run_indexed_on(3, 100, |i| i + 1);
        assert_eq!(out, (1..=100).collect::<Vec<_>>());
        // Zero cells: no workers spawn, the merge is the empty vec.
        assert_eq!(run_indexed_on(3, 0, |i| i), Vec::<usize>::new());
    }

    #[test]
    fn parallel_matches_serial_on_stateful_work() {
        // Each cell hashes its own index stream; any cross-cell
        // interference or misordered merge would break equality.
        let cell = |i: usize| (0..100u64).fold(i as u64, |acc, x| acc.wrapping_mul(31) ^ x);
        assert_eq!(run_indexed_on(4, 33, cell), run_indexed_on(1, 33, cell));
    }

    #[test]
    fn env_override_parses() {
        assert_eq!(parse_threads(Some("3")), 3);
        assert_eq!(parse_threads(Some(" 12 ")), 12);
        assert!(parse_threads(None) >= 1);
    }

    #[test]
    fn profiled_results_match_unprofiled_and_account_cells() {
        for workers in [1, 3, 8] {
            let (out, tel) = run_indexed_profiled_on(workers, 20, |i| i * 7);
            assert_eq!(out, (0..20).map(|i| i * 7).collect::<Vec<_>>());
            assert_eq!(tel.total_cells(), 20);
            assert_eq!(tel.threads.len(), workers.clamp(1, 20));
            for t in &tel.threads {
                assert!(t.busy_ns <= t.wall_ns.max(1));
            }
        }
    }

    #[test]
    fn profiled_zero_cells_is_empty_but_well_formed() {
        let (out, tel) = run_indexed_profiled_on(4, 0, |i| i);
        assert_eq!(out, Vec::<usize>::new());
        assert_eq!(tel.total_cells(), 0);
        assert!(tel.utilization() >= 0.0);
    }

    #[test]
    #[should_panic(expected = "positive integer")]
    fn zero_threads_rejected() {
        parse_threads(Some("0"));
    }

    #[test]
    #[should_panic(expected = "positive integer")]
    fn garbage_threads_rejected() {
        parse_threads(Some("many"));
    }
}
