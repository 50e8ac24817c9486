//! Time-series recording, used to regenerate the paper's figures.

/// A `(time_ns, value)` series with summary helpers.
#[derive(Debug, Clone, Default)]
pub struct TimeSeries {
    /// Samples in recording order.
    pub points: Vec<(u64, f64)>,
}

impl TimeSeries {
    /// An empty series.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a sample.
    pub fn record(&mut self, t_ns: u64, value: f64) {
        self.points.push((t_ns, value));
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the series has no samples.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Values only, discarding timestamps.
    pub fn values(&self) -> impl Iterator<Item = f64> + '_ {
        self.points.iter().map(|&(_, v)| v)
    }

    /// Mean of the values; 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.points.is_empty() {
            return 0.0;
        }
        self.values().sum::<f64>() / self.points.len() as f64
    }

    /// Downsamples to at most `n` evenly spaced points (for plotting).
    pub fn downsample(&self, n: usize) -> TimeSeries {
        if n == 0 || self.points.len() <= n {
            return self.clone();
        }
        let step = self.points.len() as f64 / n as f64;
        let points = (0..n)
            .map(|i| self.points[(i as f64 * step) as usize])
            .collect();
        TimeSeries { points }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_means() {
        let mut s = TimeSeries::new();
        s.record(0, 1.0);
        s.record(10, 3.0);
        assert_eq!(s.len(), 2);
        assert_eq!(s.mean(), 2.0);
    }

    #[test]
    fn downsample_keeps_bounds() {
        let mut s = TimeSeries::new();
        for i in 0..100 {
            s.record(i, i as f64);
        }
        let d = s.downsample(10);
        assert_eq!(d.len(), 10);
        assert_eq!(d.points[0], (0, 0.0));
        // Downsampling something already small is identity.
        assert_eq!(d.downsample(50).len(), 10);
    }
}
