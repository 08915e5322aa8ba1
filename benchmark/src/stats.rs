//! Order statistics over the samples of one metric.

/// Median, quartiles, minimum and count of one metric's samples.
#[derive(Clone, Copy, Debug)]
pub struct Stat {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub min: f64,
    pub n: usize,
}

impl Stat {
    /// `None` for an empty sample set. Quartiles follow Python's
    /// `statistics.quantiles(values, n=4)` (exclusive method), the rule the
    /// builder's driver applies to its own runs; a single sample is its own
    /// quartiles.
    pub fn of(values: &[f64]) -> Option<Stat> {
        let mut v: Vec<f64> = values.to_vec();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        if n == 0 {
            return None;
        }
        let quartile = |i: usize| {
            if n == 1 {
                return v[0];
            }
            let m = n + 1;
            let j = (i * m / 4).clamp(1, n - 1);
            let delta = (i * m) as f64 - (j * 4) as f64;
            (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
        };
        Some(Stat { median: quartile(2), q1: quartile(1), q3: quartile(3), min: v[0], n })
    }

    /// Interquartile range as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

pub fn median(values: &[f64]) -> f64 {
    Stat::of(values).map_or(0.0, |s| s.median)
}
