//! Mergeable streaming quantile sketch (DDSketch-style, integer-only).
//!
//! The workspace's one distribution type: run commit latencies, the
//! metrics registry's histograms and the host profiler's per-region self
//! times all record into it. A log₂ histogram resolves quantiles only to
//! the enclosing power of two — a p99 of 1.3 ms and one of 2.5 ms land in
//! the same bucket. [`QuantileSketch`] keeps that memory-flat streaming
//! shape but divides every octave into [`SUBBUCKETS`] linear subbuckets,
//! bounding the relative quantile error by `1/SUBBUCKETS` (≈ 1.56 %) at
//! any stream length.
//!
//! Design constraints, in order:
//!
//! * **Deterministic.** Pure integer arithmetic — bucket indices come
//!   from `leading_zeros` and shifts, never floating-point logs — so two
//!   runs (or two sweep workers) recording the same values produce
//!   byte-identical sketches on any host.
//! * **Exactly mergeable.** [`QuantileSketch::merge`] adds bucket counts
//!   elementwise, so merging is associative and commutative *exactly*,
//!   not just approximately: any split of a value stream across sweep
//!   workers, merged in any order, yields the identical sketch. This is
//!   what lets the parallel runner aggregate per-cell latency sketches
//!   with thread-count-invariant output.
//! * **Memory-flat.** Bucket storage is bounded by [`MAX_BUCKETS`]
//!   (≈ 30 KiB fully populated) regardless of how many values are
//!   recorded; typical metrics span a few octaves and stay far smaller
//!   because the bucket vector only grows to the highest index seen.
//!
//! Values of `0` and everything below [`SUBBUCKETS`] are exact (bucket
//! width 1). Count, sum, min and max are always exact.

/// Linear subbuckets per octave. A power of two so the subbucket index
/// is a shift/mask, never a division.
pub const SUBBUCKETS: u64 = 64;

/// log₂ of [`SUBBUCKETS`].
const SUB_BITS: u32 = SUBBUCKETS.trailing_zeros();

/// Upper bound on the bucket index space: values `0..SUBBUCKETS` map to
/// one bucket each, and each of the remaining `64 - SUB_BITS` octaves
/// contributes [`SUBBUCKETS`] buckets.
pub const MAX_BUCKETS: usize = (SUBBUCKETS as usize) * (64 - SUB_BITS as usize + 1);

/// Bucket index of `value`. Exact (width-1 buckets) below [`SUBBUCKETS`];
/// above, the octave of the leading bit is split into [`SUBBUCKETS`]
/// linear subbuckets.
#[inline]
fn bucket_of(value: u64) -> usize {
    if value < SUBBUCKETS {
        return value as usize;
    }
    let exp = 63 - value.leading_zeros(); // >= SUB_BITS
    let sub = ((value >> (exp - SUB_BITS)) & (SUBBUCKETS - 1)) as usize;
    ((exp - SUB_BITS + 1) as usize) * SUBBUCKETS as usize + sub
}

/// Inclusive upper bound of bucket `index` — the deterministic
/// representative [`QuantileSketch::quantile`] reports (clamped to the
/// observed min/max).
#[inline]
fn bucket_upper(index: usize) -> u64 {
    if index < SUBBUCKETS as usize {
        return index as u64;
    }
    let exp = (index / SUBBUCKETS as usize) as u32 + SUB_BITS - 1;
    let sub = (index % SUBBUCKETS as usize) as u64;
    let width = 1u64 << (exp - SUB_BITS);
    (SUBBUCKETS + sub) * width + (width - 1)
}

/// A mergeable log-linear quantile sketch over `u64` values. See the
/// [module docs](self) for guarantees.
#[derive(Debug, Clone, Default)]
pub struct QuantileSketch {
    /// Bucket counts, indexed by [`bucket_of`]; grown on demand up to
    /// [`MAX_BUCKETS`]. Trailing zeros are not significant (see the
    /// manual [`PartialEq`]).
    counts: Vec<u64>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl PartialEq for QuantileSketch {
    fn eq(&self, other: &Self) -> bool {
        if (self.count, self.sum) != (other.count, other.sum) {
            return false;
        }
        if self.count > 0 && (self.min, self.max) != (other.min, other.max) {
            return false;
        }
        // Bucket vectors may differ in trailing-zero padding.
        let (short, long) = if self.counts.len() <= other.counts.len() {
            (&self.counts, &other.counts)
        } else {
            (&other.counts, &self.counts)
        };
        short.iter().zip(long.iter()).all(|(a, b)| a == b)
            && long[short.len()..].iter().all(|&c| c == 0)
    }
}

impl Eq for QuantileSketch {}

impl QuantileSketch {
    /// An empty sketch. Allocates nothing until the first record.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one value.
    pub fn record(&mut self, value: u64) {
        let idx = bucket_of(value);
        if idx >= self.counts.len() {
            self.counts.resize(idx + 1, 0);
        }
        self.counts[idx] += 1;
        if self.count == 0 {
            self.min = value;
            self.max = value;
        } else {
            self.min = self.min.min(value);
            self.max = self.max.max(value);
        }
        self.count += 1;
        self.sum += u128::from(value);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact sum of recorded values.
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Smallest recorded value (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded value (0 when empty).
    pub fn max(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.max
        }
    }

    /// Exact mean of recorded values (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The value at quantile `q` (`0.0 ..= 1.0`): the upper bound of the
    /// bucket containing the rank-`⌈q·count⌉` value, clamped to the
    /// observed `[min, max]`. Relative error vs. the exact rank value is
    /// at most `1/SUBBUCKETS`. Returns 0 on an empty sketch.
    ///
    /// # Panics
    ///
    /// Panics when `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> u64 {
        assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0, 1]");
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_upper(idx).min(self.max).max(self.min);
            }
        }
        self.max
    }

    /// Merges `other` into `self` by elementwise bucket addition —
    /// exactly associative and commutative, so worker splits merge to
    /// the identical sketch in any order.
    pub fn merge(&mut self, other: &Self) {
        if other.count == 0 {
            return;
        }
        if other.counts.len() > self.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (dst, &src) in self.counts.iter_mut().zip(other.counts.iter()) {
            *dst += src;
        }
        if self.count == 0 {
            self.min = other.min;
            self.max = other.max;
        } else {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
        self.count += other.count;
        self.sum += other.sum;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lotec_sim::SimRng;

    /// Exact reference quantile matching the sketch's rank convention.
    fn exact_quantile(sorted: &[u64], q: f64) -> u64 {
        let rank = ((q * sorted.len() as f64).ceil() as usize).max(1);
        sorted[rank - 1]
    }

    fn seeded_stream(seed: u64, len: usize, spread_bits: u32) -> Vec<u64> {
        let mut rng = SimRng::seed_from_u64(seed);
        (0..len)
            .map(|_| {
                // Log-uniform-ish: pick an octave, then a value inside it,
                // so the stream exercises many bucket scales.
                let bits = rng.next_below(u64::from(spread_bits)) as u32;
                let base = 1u64 << bits;
                base + rng.next_below(base.max(1))
            })
            .collect()
    }

    #[test]
    fn buckets_are_monotone_and_within_error() {
        let mut prev_upper = 0;
        for idx in 0..MAX_BUCKETS {
            let upper = bucket_upper(idx);
            if idx > 0 {
                assert!(upper > prev_upper, "bucket {idx} not monotone");
            }
            prev_upper = upper;
        }
        // Every value's bucket upper bound is within 1/SUBBUCKETS above.
        let mut rng = SimRng::seed_from_u64(7);
        for _ in 0..20_000 {
            let v = rng.next_below(u64::MAX / 2).max(1);
            let upper = bucket_upper(bucket_of(v));
            assert!(upper >= v, "upper bound below value");
            assert!(
                (upper - v) as f64 <= v as f64 / SUBBUCKETS as f64,
                "bucket error above 1/{SUBBUCKETS} for {v}: upper {upper}"
            );
        }
    }

    #[test]
    fn small_values_are_exact() {
        let mut s = QuantileSketch::new();
        for v in 0..SUBBUCKETS {
            s.record(v);
        }
        for q in [0.0, 0.1, 0.5, 0.9, 1.0] {
            let exact = ((q * SUBBUCKETS as f64).ceil() as u64).max(1) - 1;
            assert_eq!(s.quantile(q), exact);
        }
        assert_eq!(s.min(), 0);
        assert_eq!(s.max(), SUBBUCKETS - 1);
    }

    #[test]
    fn quantile_error_bounded_on_seeded_streams() {
        for (seed, len, bits) in [(1u64, 5000, 40), (0xBEEF, 2000, 20), (42, 10_000, 56)] {
            let values = seeded_stream(seed, len, bits);
            let mut sketch = QuantileSketch::new();
            for &v in &values {
                sketch.record(v);
            }
            let mut sorted = values.clone();
            sorted.sort_unstable();
            assert_eq!(sketch.count(), len as u64);
            assert_eq!(sketch.min(), sorted[0]);
            assert_eq!(sketch.max(), *sorted.last().unwrap());
            for q in [0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1.0] {
                let exact = exact_quantile(&sorted, q);
                let approx = sketch.quantile(q);
                // The sketch reports the enclosing bucket's upper bound,
                // clamped; relative error is bounded by the bucket width.
                let tolerance = (exact as f64 / SUBBUCKETS as f64).max(1.0);
                assert!(
                    (approx as f64 - exact as f64).abs() <= tolerance,
                    "seed {seed} q={q}: sketch {approx} vs exact {exact} \
                     (tolerance {tolerance})"
                );
            }
        }
    }

    #[test]
    fn merge_is_associative_and_commutative() {
        let values = seeded_stream(0xA11CE, 3000, 36);
        // Whole-stream sketch: the ground truth every split must equal.
        let mut whole = QuantileSketch::new();
        for &v in &values {
            whole.record(v);
        }
        // Split into three worker shards.
        let shard = |range: std::ops::Range<usize>| {
            let mut s = QuantileSketch::new();
            for &v in &values[range] {
                s.record(v);
            }
            s
        };
        let (a, b, c) = (shard(0..1000), shard(1000..2200), shard(2200..3000));
        // (a ⊔ b) ⊔ c
        let mut ab_c = a.clone();
        ab_c.merge(&b);
        ab_c.merge(&c);
        // a ⊔ (b ⊔ c)
        let mut bc = b.clone();
        bc.merge(&c);
        let mut a_bc = a.clone();
        a_bc.merge(&bc);
        // c ⊔ b ⊔ a (reordered)
        let mut cba = c.clone();
        cba.merge(&b);
        cba.merge(&a);
        assert_eq!(ab_c, a_bc, "merge not associative");
        assert_eq!(ab_c, cba, "merge not commutative");
        assert_eq!(ab_c, whole, "merged shards diverge from whole-stream");
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut s = QuantileSketch::new();
        s.record(17);
        s.record(90_000);
        let before = s.clone();
        s.merge(&QuantileSketch::new());
        assert_eq!(s, before);
        let mut empty = QuantileSketch::new();
        empty.merge(&before);
        assert_eq!(empty, before);
    }

    #[test]
    fn memory_stays_flat() {
        let mut s = QuantileSketch::new();
        let mut rng = SimRng::seed_from_u64(3);
        for _ in 0..100_000 {
            s.record(rng.next_below(u64::MAX / 4));
        }
        assert!(s.counts.len() <= MAX_BUCKETS);
        assert_eq!(s.count(), 100_000);
    }

    #[test]
    #[should_panic(expected = "outside [0, 1]")]
    fn quantile_rejects_out_of_range() {
        QuantileSketch::new().quantile(1.5);
    }
}
