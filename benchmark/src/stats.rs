//! Order statistics shared by the run, compare and calibrate paths.

/// Median of `values` (mean of the two middle values for an even count);
/// `NaN` when empty.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartiles by the "exclusive" method — the definition
/// of Python's `statistics.quantiles(values, n=4)`, so spreads computed
/// here match ones computed from the printed results by that function.
/// `None` with fewer than two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(values);
    let ld = v.len();
    if ld < 2 {
        return None;
    }
    // Signed: with few values the clamped cut point can overshoot `i·m`.
    let (n, m, top) = (4i64, ld as i64 + 1, ld as i64 - 1);
    let cut = |i: i64| {
        let j = (i * m / n).clamp(1, top);
        let delta = (i * m - j * n) as f64;
        (v[j as usize - 1] * (n as f64 - delta) + v[j as usize] * delta) / n as f64
    };
    Some((cut(1), cut(3)))
}

/// Interquartile range as a share of the median: the run-to-run spread
/// a bound is compared against. `None` with fewer than two values or a
/// zero median.
pub fn spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let med = median(values);
    (med != 0.0).then(|| (q3 - q1) / med.abs())
}

/// Nearest-rank quantile of an ascending slice: the value at rank
/// `ceil(q·n)`, the same rank rule as `QuantileSketch::quantile`.
pub fn rank_quantile(ascending: &[u64], q: f64) -> Option<u64> {
    let n = ascending.len();
    if n == 0 {
        return None;
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    Some(ascending[rank - 1])
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), Some((1.5, 4.5)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(spread(&v), Some((8.25 - 2.75) / 5.5));
        assert_eq!(spread(&[0.0, 0.0]), None);
    }

    #[test]
    fn rank_quantile_uses_ceiling_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(rank_quantile(&v, 0.5), Some(50));
        assert_eq!(rank_quantile(&v, 0.99), Some(99));
        assert_eq!(rank_quantile(&v, 0.0), Some(1));
        assert_eq!(rank_quantile(&[], 0.5), None);
    }
}
