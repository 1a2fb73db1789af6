//! Descriptive statistics and the error metrics used in the paper's
//! evaluation (normalized MSE, directional symmetry inputs, boxplot
//! summaries).

use crate::NumericError;

/// Arithmetic mean; `0.0` for an empty slice.
pub fn mean(data: &[f64]) -> f64 {
    if data.is_empty() {
        return 0.0;
    }
    data.iter().sum::<f64>() / data.len() as f64
}

/// Population variance; `0.0` for slices shorter than two elements.
pub fn variance(data: &[f64]) -> f64 {
    if data.len() < 2 {
        return 0.0;
    }
    let m = mean(data);
    data.iter().map(|v| (v - m) * (v - m)).sum::<f64>() / data.len() as f64
}

/// Linear-interpolation quantile (type 7, the R/NumPy default).
///
/// `q` is clamped to `[0, 1]`.
///
/// # Errors
///
/// Returns [`NumericError::Empty`] for an empty slice.
pub fn quantile(data: &[f64], q: f64) -> Result<f64, NumericError> {
    if data.is_empty() {
        return Err(NumericError::Empty);
    }
    let mut sorted = data.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    Ok(quantile_sorted(&sorted, q))
}

/// Quantile of an already-sorted slice (ascending). See [`quantile`].
///
/// # Panics
///
/// Panics if `data` is empty.
pub fn quantile_sorted(data: &[f64], q: f64) -> f64 {
    assert!(!data.is_empty(), "quantile of empty data");
    let q = q.clamp(0.0, 1.0);
    let pos = q * (data.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        data[lo]
    } else {
        let frac = pos - lo as f64;
        data[lo] * (1.0 - frac) + data[hi] * frac
    }
}

/// Median shorthand for [`quantile`] at `q = 0.5`.
///
/// # Errors
///
/// Returns [`NumericError::Empty`] for an empty slice.
pub fn median(data: &[f64]) -> Result<f64, NumericError> {
    quantile(data, 0.5)
}

/// Five-number summary plus outliers, matching the boxplot convention the
/// paper uses for Figure 8: hinges at the quartiles, whiskers at the most
/// extreme data point within `1.5 * IQR` of the hinge, everything beyond
/// marked as an outlier.
#[derive(Debug, Clone, PartialEq)]
pub struct BoxplotSummary {
    /// Lower whisker end.
    pub whisker_low: f64,
    /// First quartile (lower hinge).
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile (upper hinge).
    pub q3: f64,
    /// Upper whisker end.
    pub whisker_high: f64,
    /// Arithmetic mean (the diamond-marker series in Figure 8).
    pub mean: f64,
    /// Points beyond the whiskers.
    pub outliers: Vec<f64>,
}

impl BoxplotSummary {
    /// Computes the summary of `data`.
    ///
    /// # Errors
    ///
    /// Returns [`NumericError::Empty`] for an empty slice.
    pub fn from_data(data: &[f64]) -> Result<Self, NumericError> {
        if data.is_empty() {
            return Err(NumericError::Empty);
        }
        let mut sorted = data.to_vec();
        sorted.sort_by(|a, b| a.total_cmp(b));
        let q1 = quantile_sorted(&sorted, 0.25);
        let med = quantile_sorted(&sorted, 0.5);
        let q3 = quantile_sorted(&sorted, 0.75);
        let iqr = q3 - q1;
        let lo_fence = q1 - 1.5 * iqr;
        let hi_fence = q3 + 1.5 * iqr;
        let whisker_low = sorted
            .iter()
            .copied()
            .find(|&v| v >= lo_fence)
            .unwrap_or(sorted[0]);
        let whisker_high = sorted
            .iter()
            .rev()
            .copied()
            .find(|&v| v <= hi_fence)
            .unwrap_or(sorted[sorted.len() - 1]);
        let outliers = sorted
            .iter()
            .copied()
            .filter(|&v| v < lo_fence || v > hi_fence)
            .collect();
        Ok(BoxplotSummary {
            whisker_low,
            q1,
            median: med,
            q3,
            whisker_high,
            mean: mean(data),
            outliers,
        })
    }

    /// Interquartile range `q3 - q1`.
    pub fn iqr(&self) -> f64 {
        self.q3 - self.q1
    }
}

/// Plain mean-square error `mean((a - b)^2)`.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn mse(actual: &[f64], predicted: &[f64]) -> f64 {
    assert_eq!(actual.len(), predicted.len(), "mse length mismatch");
    if actual.is_empty() {
        return 0.0;
    }
    actual
        .iter()
        .zip(predicted)
        .map(|(a, p)| (a - p) * (a - p))
        .sum::<f64>()
        / actual.len() as f64
}

/// Normalized mean-square error in percent:
/// `100 * mean((a-p)^2) / mean(a^2)`.
///
/// This is the "MSE (%)" scale the paper reports (single-digit medians,
/// ~30 % worst cases). Returns `0.0` when the actual signal is identically
/// zero and the prediction matches, `100.0` when the actual signal is zero
/// but the prediction is not.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn nmse_percent(actual: &[f64], predicted: &[f64]) -> f64 {
    assert_eq!(actual.len(), predicted.len(), "nmse length mismatch");
    if actual.is_empty() {
        return 0.0;
    }
    let err = mse(actual, predicted);
    let power = actual.iter().map(|a| a * a).sum::<f64>() / actual.len() as f64;
    if power <= f64::EPSILON {
        if err <= f64::EPSILON {
            0.0
        } else {
            100.0
        }
    } else {
        100.0 * err / power
    }
}

/// Numerically stable streaming mean/variance accumulator (Welford's
/// algorithm). Useful for per-interval statistics where storing every
/// sample is wasteful.
///
/// # Examples
///
/// ```
/// use dynawave_numeric::stats::Welford;
/// let mut w = Welford::new();
/// for v in [1.0, 2.0, 3.0, 4.0] {
///     w.push(v);
/// }
/// assert_eq!(w.mean(), 2.5);
/// assert!((w.variance() - 1.25).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Welford {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Welford {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Welford {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one observation.
    pub fn push(&mut self, v: f64) {
        self.count += 1;
        let delta = v - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (v - self.mean);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Running mean; `0.0` when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance; `0.0` with fewer than two observations.
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Smallest observation; `None` when empty.
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest observation; `None` when empty.
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Merges another accumulator into this one (parallel reduction).
    pub fn merge(&mut self, other: &Welford) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let total = self.count + other.count;
        let delta = other.mean - self.mean;
        self.mean += delta * other.count as f64 / total as f64;
        self.m2 += other.m2 + delta * delta * self.count as f64 * other.count as f64 / total as f64;
        self.count = total;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

impl Extend<f64> for Welford {
    fn extend<T: IntoIterator<Item = f64>>(&mut self, iter: T) {
        for v in iter {
            self.push(v);
        }
    }
}

/// Minimum and maximum of a slice.
///
/// # Errors
///
/// Returns [`NumericError::Empty`] for an empty slice.
pub fn min_max(data: &[f64]) -> Result<(f64, f64), NumericError> {
    if data.is_empty() {
        return Err(NumericError::Empty);
    }
    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;
    for &v in data {
        lo = lo.min(v);
        hi = hi.max(v);
    }
    Ok((lo, hi))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_variance_basics() {
        let d = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(mean(&d), 2.5);
        assert!((variance(&d) - 1.25).abs() < 1e-12);
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(variance(&[5.0]), 0.0);
    }

    #[test]
    fn quantile_interpolates() {
        let d = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&d, 0.0).unwrap(), 1.0);
        assert_eq!(quantile(&d, 1.0).unwrap(), 4.0);
        assert_eq!(quantile(&d, 0.5).unwrap(), 2.5);
        assert!((quantile(&d, 0.25).unwrap() - 1.75).abs() < 1e-12);
    }

    #[test]
    fn quantile_empty_is_error() {
        assert!(matches!(quantile(&[], 0.5), Err(NumericError::Empty)));
    }

    #[test]
    fn boxplot_marks_outliers() {
        let mut data = vec![10.0; 20];
        data.extend_from_slice(&[10.5, 9.5, 50.0]); // 50.0 is far outside
        let s = BoxplotSummary::from_data(&data).unwrap();
        // IQR is zero here, so everything off 10.0 is fenced out.
        assert_eq!(s.outliers, vec![9.5, 10.5, 50.0]);
        assert_eq!(s.whisker_high, 10.0);
        assert_eq!(s.median, 10.0);
    }

    #[test]
    fn boxplot_single_point() {
        let s = BoxplotSummary::from_data(&[3.0]).unwrap();
        assert_eq!(s.median, 3.0);
        assert_eq!(s.q1, 3.0);
        assert_eq!(s.q3, 3.0);
        assert!(s.outliers.is_empty());
    }

    #[test]
    fn mse_and_nmse() {
        let a = [2.0, 2.0];
        let p = [1.0, 3.0];
        assert_eq!(mse(&a, &p), 1.0);
        assert!((nmse_percent(&a, &p) - 25.0).abs() < 1e-12);
    }

    #[test]
    fn nmse_zero_signal() {
        assert_eq!(nmse_percent(&[0.0, 0.0], &[0.0, 0.0]), 0.0);
        assert_eq!(nmse_percent(&[0.0, 0.0], &[1.0, 1.0]), 100.0);
    }

    #[test]
    fn perfect_prediction_zero_error() {
        let a = [0.4, 0.8, 1.2];
        assert_eq!(mse(&a, &a), 0.0);
        assert_eq!(nmse_percent(&a, &a), 0.0);
    }

    #[test]
    fn welford_matches_batch_stats() {
        let data = [3.1, -2.0, 5.5, 0.0, 8.25, -1.5];
        let mut w = Welford::new();
        w.extend(data.iter().copied());
        assert!((w.mean() - mean(&data)).abs() < 1e-12);
        assert!((w.variance() - variance(&data)).abs() < 1e-12);
        assert_eq!(w.min(), Some(-2.0));
        assert_eq!(w.max(), Some(8.25));
        assert_eq!(w.count(), 6);
    }

    #[test]
    fn welford_merge_equals_concat() {
        let a = [1.0, 2.0, 3.0];
        let b = [10.0, 20.0];
        let mut wa = Welford::new();
        wa.extend(a.iter().copied());
        let mut wb = Welford::new();
        wb.extend(b.iter().copied());
        wa.merge(&wb);
        let all = [1.0, 2.0, 3.0, 10.0, 20.0];
        assert!((wa.mean() - mean(&all)).abs() < 1e-12);
        assert!((wa.variance() - variance(&all)).abs() < 1e-12);
        // Merging into empty copies the other side.
        let mut we = Welford::new();
        we.merge(&wa);
        assert_eq!(we.count(), 5);
    }

    #[test]
    fn welford_empty_defaults() {
        let w = Welford::new();
        assert_eq!(w.mean(), 0.0);
        assert_eq!(w.variance(), 0.0);
        assert_eq!(w.min(), None);
    }

    #[test]
    fn min_max_works() {
        assert_eq!(min_max(&[3.0, -1.0, 2.0]).unwrap(), (-1.0, 3.0));
        assert!(min_max(&[]).is_err());
    }
}
