//! Online scalar statistics (Welford's algorithm).


/// Numerically stable online mean/variance accumulator.
#[derive(Debug, Clone, Copy, Default)]
pub struct Welford {
    count: u64,
    mean: f64,
    m2: f64,
}

impl Welford {
    /// An empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sample mean; 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance; 0 with fewer than two observations.
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Population standard deviation.
    pub fn stddev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Merges another accumulator into this one (parallel Welford).
    pub fn merge(&mut self, other: &Welford) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
    }
}

/// Exponentially weighted moving average, as used by RTT estimators.
#[derive(Debug, Clone, Copy)]
pub struct Ewma {
    alpha: f64,
    value: Option<f64>,
}

impl Ewma {
    /// Creates an EWMA with smoothing factor `alpha` in `(0, 1]`; larger
    /// alpha weights recent samples more.
    pub fn new(alpha: f64) -> Self {
        Self {
            alpha: alpha.clamp(1e-6, 1.0),
            value: None,
        }
    }

    /// Feeds one sample and returns the updated average.
    pub fn push(&mut self, x: f64) -> f64 {
        let v = match self.value {
            None => x,
            Some(v) => v + self.alpha * (x - v),
        };
        self.value = Some(v);
        v
    }

    /// Current average, if any sample has been seen.
    pub fn get(&self) -> Option<f64> {
        self.value
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn welford_matches_direct_formulas() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let mut w = Welford::new();
        for &x in &xs {
            w.push(x);
        }
        assert_eq!(w.count(), 8);
        assert!((w.mean() - 5.0).abs() < 1e-12);
        assert!((w.variance() - 4.0).abs() < 1e-12);
        assert!((w.stddev() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn empty_welford_is_zeroes() {
        let w = Welford::new();
        assert_eq!(w.mean(), 0.0);
        assert_eq!(w.variance(), 0.0);
        assert_eq!(w.count(), 0);
    }

    #[test]
    fn merge_equals_sequential() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let mut all = Welford::new();
        for &x in &xs {
            all.push(x);
        }
        let mut a = Welford::new();
        let mut b = Welford::new();
        for &x in &xs[..37] {
            a.push(x);
        }
        for &x in &xs[37..] {
            b.push(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), all.count());
        assert!((a.mean() - all.mean()).abs() < 1e-9);
        assert!((a.variance() - all.variance()).abs() < 1e-9);
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = Welford::new();
        a.push(1.0);
        a.push(3.0);
        let before = a;
        a.merge(&Welford::new());
        assert_eq!(a.count(), before.count());
        assert_eq!(a.mean(), before.mean());

        let mut e = Welford::new();
        e.merge(&a);
        assert_eq!(e.count(), 2);
        assert!((e.mean() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn ewma_converges_toward_constant_input() {
        let mut e = Ewma::new(0.5);
        assert_eq!(e.get(), None);
        e.push(0.0);
        for _ in 0..30 {
            e.push(10.0);
        }
        assert!((e.get().unwrap() - 10.0).abs() < 1e-3);
    }

    #[test]
    fn ewma_first_sample_initializes() {
        let mut e = Ewma::new(0.1);
        assert_eq!(e.push(42.0), 42.0);
        assert_eq!(e.get(), Some(42.0));
    }
}
