//! A minimal self-timed micro-benchmark runner.
//!
//! The workspace builds offline, so the benches under `benches/` use this
//! instead of an external harness: each is a plain `fn main()` (the
//! manifest sets `harness = false`) that calls [`bench()`] per case. The
//! runner warms up, picks a batch size so one measurement batch takes a
//! few milliseconds (amortizing timer overhead), then reports the mean
//! and the per-batch minimum over a fixed measurement budget — the min is
//! the least-noise estimate, the mean shows how noisy the box was.
//! Numbers are indicative, not publication-grade — they exist to catch
//! order-of-magnitude regressions in the hot paths.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Keeps a value from being optimized away. Re-exported so benches don't
/// need their own `std::hint` import.
pub fn opaque<T>(value: T) -> T {
    black_box(value)
}

const WARMUP: Duration = Duration::from_millis(50);
const MEASURE: Duration = Duration::from_millis(200);
const TARGET_BATCH: Duration = Duration::from_millis(2);

/// Picks the measurement batch size from one calibration call: enough
/// iterations that a batch lasts [`TARGET_BATCH`], clamped to `[1, 2^20]`
/// so a pathological case can neither spin one iteration per timer read
/// nor overflow the measurement budget with a single huge batch.
fn calibrate_batch(once: Duration) -> u64 {
    if once.is_zero() {
        1024
    } else {
        (TARGET_BATCH.as_nanos() / once.as_nanos().max(1)).clamp(1, 1 << 20) as u64
    }
}

/// Times `f` and prints `name` with the min and mean ns/iteration.
///
/// `f` should produce a value derived from its work and return it (the
/// harness passes the result through [`opaque`]) so the optimizer cannot
/// delete the body.
pub fn bench<T>(name: &str, mut f: impl FnMut() -> T) {
    // Calibrate: how long does one call take?
    let once = time_batch(&mut f, 1);
    let batch = calibrate_batch(once);

    let warm_start = Instant::now();
    while warm_start.elapsed() < WARMUP {
        time_batch(&mut f, batch);
    }

    let mut total = Duration::ZERO;
    let mut min_batch = Duration::MAX;
    let mut iters = 0u64;
    let measure_start = Instant::now();
    while measure_start.elapsed() < MEASURE || iters == 0 {
        let t = time_batch(&mut f, batch);
        total += t;
        min_batch = min_batch.min(t);
        iters += batch;
    }

    let mean = total.as_nanos() as f64 / iters as f64;
    let min = min_batch.as_nanos() as f64 / batch as f64;
    println!("{name:<44} min {min:>12.1}  mean {mean:>12.1} ns/iter  ({iters} iters)");
}

fn time_batch<T>(f: &mut impl FnMut() -> T, iters: u64) -> Duration {
    let start = Instant::now();
    for _ in 0..iters {
        black_box(f());
    }
    start.elapsed()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_runs_and_terminates() {
        // Smoke: a trivial case completes and doesn't divide by zero.
        bench("noop", || 1u64 + opaque(2));
    }

    #[test]
    fn calibration_clamps_both_ends() {
        // Unmeasurably fast call: fixed fallback batch.
        assert_eq!(calibrate_batch(Duration::ZERO), 1024);
        // Sub-nanosecond-resolution fast call: capped at 2^20 per batch.
        assert_eq!(calibrate_batch(Duration::from_nanos(1)), 1 << 20);
        // Slow call (longer than the target batch): floor of one iteration.
        assert_eq!(calibrate_batch(Duration::from_millis(50)), 1);
        // Mid-range: one batch approximates TARGET_BATCH.
        assert_eq!(
            calibrate_batch(Duration::from_nanos(2_000)),
            TARGET_BATCH.as_nanos() as u64 / 2_000
        );
    }
}
