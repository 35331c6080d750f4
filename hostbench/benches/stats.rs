//! Order statistics for timing samples.
//!
//! Every helper sorts a copy with `total_cmp`, so NaN never panics a
//! sort, and every helper returns `None` for an empty sample set instead
//! of inventing a value.

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median: the middle sample, or the mean of the middle two.
pub fn median(xs: &[f64]) -> Option<f64> {
    let v = sorted(xs);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// The nearest-rank `q`-quantile (`q` in `[0, 1]`), the convention
/// `lr_eval::LatencyStats::percentile` uses.
pub fn quantile(xs: &[f64], q: f64) -> Option<f64> {
    let v = sorted(xs);
    if v.is_empty() {
        return None;
    }
    let rank = ((q.clamp(0.0, 1.0) * v.len() as f64).ceil() as usize).clamp(1, v.len());
    Some(v[rank - 1])
}

/// The quantile a tail metric may honestly report: `q`, lowered until
/// at least `beyond` samples lie strictly above its nearest rank.
/// `None` when there are not more than `beyond` samples.
pub fn tail_q(n: usize, q: f64, beyond: usize) -> Option<f64> {
    if n <= beyond {
        return None;
    }
    Some(q.min((n - beyond) as f64 / n as f64))
}

/// A tail percentile with at least `beyond` samples beyond it:
/// `(value, quantile actually reported)`.
pub fn tail(xs: &[f64], q: f64, beyond: usize) -> Option<(f64, f64)> {
    let q = tail_q(xs.len(), q, beyond)?;
    Some((quantile(xs, q)?, q))
}

/// Quartiles `[q1, q2, q3]` exactly as Python's
/// `statistics.quantiles(values, n=4)` computes them (the default
/// "exclusive" method). `None` for fewer than two samples.
pub fn quartiles(xs: &[f64]) -> Option<[f64; 3]> {
    let v = sorted(xs);
    let ld = v.len();
    if ld < 2 {
        return None;
    }
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (i, slot) in (1..4).zip(out.iter_mut()) {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(out)
}

/// Position-wise median over repeats of the same sequence of work:
/// element `j` is the median of the repeats' `j`-th samples. Only
/// positions every repeat reached are kept.
pub fn median_of_repeats(repeats: &[Vec<f64>]) -> Vec<f64> {
    let n = repeats.iter().map(Vec::len).min().unwrap_or(0);
    (0..n)
        .filter_map(|j| median(&repeats.iter().map(|r| r[j]).collect::<Vec<_>>()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn median_ignores_input_order_and_survives_nan() {
        let a = median(&[9.0, 2.0, 7.0, 4.0, 5.0]);
        let b = median(&[2.0, 4.0, 5.0, 7.0, 9.0]);
        assert_eq!(a, b);
        // NaN sorts last under total_cmp: the median is still defined.
        assert_eq!(median(&[1.0, f64::NAN, 2.0]), Some(2.0));
    }

    #[test]
    fn nearest_rank_quantile() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&xs, 0.5), Some(50.0));
        assert_eq!(quantile(&xs, 0.99), Some(99.0));
        assert_eq!(quantile(&xs, 1.0), Some(100.0));
        assert_eq!(quantile(&xs, 0.0), Some(1.0));
        assert_eq!(quantile(&[], 0.5), None);
    }

    #[test]
    fn tail_keeps_at_least_ten_samples_beyond() {
        // 1000 samples: p99 itself has exactly 10 beyond it.
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        let (v, q) = tail(&xs, 0.99, 10).unwrap();
        assert_eq!(q, 0.99);
        assert_eq!(v, 990.0);
        assert_eq!(xs.iter().filter(|&&x| x > v).count(), 10);

        // 300 samples: p99 would leave 3 beyond, so the tail drops to the
        // highest quantile that leaves 10.
        let xs: Vec<f64> = (1..=300).map(f64::from).collect();
        let (v, q) = tail(&xs, 0.99, 10).unwrap();
        assert!((q - 290.0 / 300.0).abs() < 1e-12);
        assert_eq!(v, 290.0);
        assert_eq!(xs.iter().filter(|&&x| x > v).count(), 10);

        // Too few samples for any honest tail.
        assert_eq!(tail(&[1.0; 10], 0.99, 10), None);
        assert_eq!(tail_q(11, 0.99, 10), Some(1.0 / 11.0));
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // Reference values printed by Python 3.11's
        // `statistics.quantiles(values, n=4)` for the same inputs.
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some([2.75, 5.5, 8.25]));
        assert_eq!(quartiles(&[2.5, 1.0, 4.0, 10.0]), Some([1.375, 3.25, 8.5]));
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some([1.0, 2.0, 3.0]));
        // Two samples: Python extrapolates past both ends.
        assert_eq!(quartiles(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn median_of_repeats_is_positionwise() {
        let laps = vec![
            vec![3.0, 1.0, 5.0],
            vec![2.0, 4.0, 6.0, 9.0],
            vec![4.0, 2.0, 0.5],
        ];
        assert_eq!(median_of_repeats(&laps), vec![3.0, 2.0, 5.0]);
        assert_eq!(median_of_repeats(&laps[..2]), vec![2.5, 2.5, 5.5]);
        assert!(median_of_repeats(&[]).is_empty());
    }
}
