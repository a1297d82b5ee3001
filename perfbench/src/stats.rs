//! Sample summaries: every timing is kept as raw samples and reduced to
//! order statistics at the end of a run.

use std::time::Duration;

/// A growable set of samples in one unit (the caller picks ms, µs or ns).
#[derive(Clone, Debug, Default)]
pub struct Samples(Vec<f64>);

impl Samples {
    pub fn push(&mut self, v: f64) {
        self.0.push(v);
    }

    pub fn push_ms(&mut self, d: Duration) {
        self.0.push(d.as_secs_f64() * 1e3);
    }

    pub fn push_us(&mut self, d: Duration) {
        self.0.push(d.as_secs_f64() * 1e6);
    }

    pub fn values(&self) -> &[f64] {
        &self.0
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    pub fn sum(&self) -> f64 {
        self.0.iter().sum()
    }

    pub fn mean(&self) -> f64 {
        if self.0.is_empty() {
            0.0
        } else {
            self.sum() / self.0.len() as f64
        }
    }

    /// The `q`-quantile (0 ≤ q ≤ 1) by linear interpolation between the
    /// closest ranks; 0 for an empty set.
    pub fn quantile(&self, q: f64) -> f64 {
        quantile(&self.0, q)
    }

    pub fn p50(&self) -> f64 {
        self.quantile(0.50)
    }

    pub fn p99(&self) -> f64 {
        self.quantile(0.99)
    }
}

/// The `q`-quantile of unsorted `values` (see [`Samples::quantile`]).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Interquartile mean: the mean of the middle half of `values`. Used for
/// throughput, where a plain mean would follow the stalls a shared
/// machine adds to a few operations. 0 for an empty set.
pub fn iqm(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let q = sorted.len() / 4;
    let mid = &sorted[q..sorted.len() - q];
    mid.iter().sum::<f64>() / mid.len() as f64
}

/// `part / whole`, or 0 when nothing was attempted.
pub fn ratio(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        part / whole
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let s = Samples(vec![4.0, 1.0, 3.0, 2.0]);
        assert_eq!(s.quantile(0.0), 1.0);
        assert_eq!(s.quantile(1.0), 4.0);
        assert_eq!(s.p50(), 2.5);
        assert_eq!(Samples::default().p99(), 0.0);
        assert_eq!(iqm(&[100.0, 2.0, 3.0, 1.0, 4.0, 2.5, 3.5, 0.0]), 2.75);
    }
}
