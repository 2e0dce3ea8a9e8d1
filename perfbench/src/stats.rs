//! Order statistics over measured samples, and a fixed-size uniform sample
//! of an unbounded stream.

/// Linearly interpolated quantile (`q` in `0..=1`) of `values`; 0 when
/// there are none.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median of `values`; 0 when there are none.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The mean of `values`; 0 when there are none.
pub fn mean(values: &[f64]) -> f64 {
    ratio(values.iter().sum(), values.len() as f64)
}

/// The largest of `values` (all non-negative here); 0 when there are none.
pub fn max(values: &[f64]) -> f64 {
    values.iter().copied().fold(0.0, f64::max)
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// A uniform random sample of at most `capacity` of the values pushed
/// (Vitter's algorithm R). Read latencies go through one, so their memory
/// does not grow with read speed and a faster read path cannot show up as a
/// larger `peak_rss_mb`.
pub struct Reservoir {
    kept: Vec<f64>,
    capacity: usize,
    seen: u64,
    state: u64,
}

impl Reservoir {
    /// An empty reservoir; `seed` makes the replacement choices repeatable.
    pub fn new(capacity: usize, seed: u64) -> Self {
        Reservoir {
            kept: Vec::with_capacity(capacity),
            capacity,
            seen: 0,
            state: seed | 1,
        }
    }

    /// Offer one value.
    pub fn push(&mut self, value: f64) {
        self.seen += 1;
        if self.kept.len() < self.capacity {
            self.kept.push(value);
            return;
        }
        // xorshift64*: a few cycles, and seeded.
        self.state ^= self.state >> 12;
        self.state ^= self.state << 25;
        self.state ^= self.state >> 27;
        let slot = self.state.wrapping_mul(0x2545_F491_4F6C_DD1D) % self.seen;
        if let Some(kept) = self.kept.get_mut(slot as usize) {
            *kept = value;
        }
    }

    /// Values offered so far.
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// The sample.
    pub fn kept(&self) -> &[f64] {
        &self.kept
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn reservoir_keeps_a_bounded_uniform_sample() {
        let mut r = Reservoir::new(1000, 7);
        for i in 0..100_000 {
            r.push(i as f64);
        }
        assert_eq!(r.seen(), 100_000);
        assert_eq!(r.kept().len(), 1000);
        let m = median(r.kept());
        assert!((40_000.0..60_000.0).contains(&m), "median {m}");
    }
}
