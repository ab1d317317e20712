//! Order statistics shared by every workload.

/// Median of `v` (0 for an empty slice).
pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Smallest value (0 for an empty slice).
pub fn min(v: &[f64]) -> f64 {
    v.iter().copied().reduce(f64::min).unwrap_or(0.0)
}

/// Arithmetic mean (0 for an empty slice).
pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// Linear-interpolated quantile `q` in `[0, 1]` (0 for an empty slice).
/// Infinite samples (failed requests) stay infinite instead of turning
/// the interpolation into NaN.
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if s[lo] == s[hi] {
        return s[lo];
    }
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// The tail estimate: the highest order statistic with at least ten
/// samples beyond it.
#[derive(Debug, Clone, Copy)]
pub struct Tail {
    pub value: f64,
    /// Percentile the value stands at, `100 * (n - 10) / n`.
    pub percentile: f64,
    /// Samples the estimate was taken over.
    pub samples: usize,
}

/// [`Tail`] of `v`; with fewer than eleven samples it falls back to the
/// maximum and says so through `percentile = 100`.
pub fn tail(v: &[f64]) -> Tail {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n == 0 {
        return Tail {
            value: 0.0,
            percentile: 0.0,
            samples: 0,
        };
    }
    if n < 11 {
        return Tail {
            value: s[n - 1],
            percentile: 100.0,
            samples: n,
        };
    }
    Tail {
        value: s[n - 11],
        percentile: 100.0 * (n - 10) as f64 / n as f64,
        samples: n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&v);
        assert_eq!(t.value, 90.0);
        assert_eq!(v.iter().filter(|&&x| x > t.value).count(), 10);
        assert_eq!(t.percentile, 90.0);
    }

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.5);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn quantiles_of_infinite_samples_are_not_nan() {
        let inf = f64::INFINITY;
        assert_eq!(quantile(&[1.0, inf, inf, inf], 0.9), inf);
        assert_eq!(quantile(&[1.0, 2.0, inf], 0.5), 2.0);
        assert_eq!(quantile(&[1.0, 2.0, inf], 0.75), inf);
    }
}
