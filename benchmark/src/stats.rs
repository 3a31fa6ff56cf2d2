//! Order statistics shared by the run harness and `compare`.

/// Sorts a copy of `values` ascending (NaN-free by construction: every
/// sample is a measured duration or a count).
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// Median with the two middle samples averaged on even counts.
///
/// # Panics
/// Panics on an empty slice — every caller measures at least once.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    assert!(!v.is_empty(), "median of no samples");
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartile by the exclusive method — the same numbers
/// Python's `statistics.quantiles(values, n=4)` returns, which is what
/// the acceptance driver computes spreads from. Needs two samples.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    assert!(v.len() >= 2, "quartiles need two samples");
    let at = |q: f64| {
        let pos = q * (v.len() as f64 + 1.0);
        let lo = (pos.floor() as usize).clamp(1, v.len() - 1);
        let frac = pos - lo as f64;
        v[lo - 1] + frac * (v[lo] - v[lo - 1])
    };
    (at(0.25), at(0.75))
}

/// Nearest-rank percentile (`p` in 1..=100) of `values`.
pub fn percentile(values: &[f64], p: u32) -> f64 {
    let v = sorted(values);
    assert!(!v.is_empty(), "percentile of no samples");
    let rank = ((p as f64 / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The tail percentile a sample of `n` supports: p99 from 1,000
/// samples up, otherwise the highest whole percentile that still has
/// at least ten samples beyond it (never below the median).
pub fn tail_percentile(n: usize) -> u32 {
    if n >= 1000 {
        return 99;
    }
    let beyond = 10.0_f64.min(n as f64);
    let p = (100.0 * (1.0 - beyond / n.max(1) as f64)).floor();
    (p as u32).clamp(50, 99)
}

/// `(percentile used, its value)` for the tail of `values`.
pub fn tail(values: &[f64]) -> (u32, f64) {
    let p = tail_percentile(values.len());
    (p, percentile(values, p))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        let (q1, q3) = quartiles(&[1.0, 2.0, 4.0, 8.0, 16.0]);
        assert!((q1 - 1.5).abs() < 1e-12 && (q3 - 12.0).abs() < 1e-12);
    }

    #[test]
    fn tail_rule_caps_at_p99_and_keeps_ten_beyond() {
        assert_eq!(tail_percentile(250_000), 99);
        assert_eq!(tail_percentile(1000), 99);
        assert_eq!(tail_percentile(999), 98);
        assert_eq!(tail_percentile(300), 96);
        assert_eq!(tail_percentile(120), 91);
        assert_eq!(tail_percentile(20), 50);
        assert_eq!(tail_percentile(5), 50);
    }

    #[test]
    fn tail_value_has_ten_samples_beyond_it() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        let (p, value) = tail(&v);
        assert_eq!(p, 95);
        assert_eq!(value, 190.0);
        assert_eq!(v.iter().filter(|&&x| x > value).count(), 10);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v = [10.0, 20.0, 30.0, 40.0];
        assert_eq!(percentile(&v, 50), 20.0);
        assert_eq!(percentile(&v, 75), 30.0);
        assert_eq!(percentile(&v, 100), 40.0);
        assert_eq!(percentile(&v, 1), 10.0);
    }
}
