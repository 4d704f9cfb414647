//! Exact order statistics over raw nanosecond samples.
//!
//! No bucketing and no truncation: every sample is kept as measured, and
//! a percentile is the nearest-rank order statistic of the sorted
//! samples, so it is always one of the values actually observed.

/// Raw durations in nanoseconds, one per timed operation.
#[derive(Debug, Default, Clone)]
pub struct Samples {
    ns: Vec<u64>,
}

impl Samples {
    pub fn from_ns(ns: Vec<u64>) -> Samples {
        Samples { ns }
    }

    pub fn push(&mut self, ns: u64) {
        self.ns.push(ns);
    }

    pub fn len(&self) -> usize {
        self.ns.len()
    }

    pub fn is_empty(&self) -> bool {
        self.ns.is_empty()
    }

    pub fn total_ns(&self) -> u64 {
        self.ns.iter().sum()
    }

    /// The nearest-rank `q`-quantile (`0 < q <= 1`), in nanoseconds.
    pub fn quantile_ns(&self, q: f64) -> f64 {
        quantiles_ns(&self.ns, &[q])[0]
    }

    pub fn median_ns(&self) -> f64 {
        self.quantile_ns(0.5)
    }

    /// How many samples lie strictly above the `q`-quantile.
    pub fn beyond(&self, q: f64) -> usize {
        let cut = self.quantile_ns(q);
        self.ns.iter().filter(|&&v| v as f64 > cut).count()
    }
}

/// Nearest-rank quantiles of `ns` for each `q` (NaN when `ns` is empty).
pub fn quantiles_ns(ns: &[u64], qs: &[f64]) -> Vec<f64> {
    let mut sorted = ns.to_vec();
    sorted.sort_unstable();
    qs.iter()
        .map(|&q| {
            if sorted.is_empty() {
                return f64::NAN;
            }
            let rank = (q * sorted.len() as f64).ceil() as usize;
            sorted[rank.clamp(1, sorted.len()) - 1] as f64
        })
        .collect()
}

/// Per-program samples of one operation kind; the suite figure is the
/// sum over programs of each program's median, so a slow spell that hits
/// a few repetitions of one program moves its median little, and heavy
/// programs cannot hide light ones the way a pooled median would.
#[derive(Debug, Clone)]
pub struct PerProgram {
    pub programs: Vec<Samples>,
}

impl PerProgram {
    pub fn new(programs: usize) -> Self {
        PerProgram {
            programs: vec![Samples::default(); programs],
        }
    }

    pub fn push(&mut self, program: usize, ns: u64) {
        self.programs[program].push(ns);
    }

    /// Sum over programs of the per-program median, in nanoseconds.
    pub fn suite_median_ns(&self) -> f64 {
        self.programs.iter().map(Samples::median_ns).sum()
    }

    /// Every sample of every program, pooled.
    pub fn pooled(&self) -> Samples {
        let mut all = Samples::default();
        for s in &self.programs {
            for &v in &s.ns {
                all.push(v);
            }
        }
        all
    }

    /// True when every program has at least one sample.
    pub fn covers_all(&self) -> bool {
        self.programs.iter().all(|s| !s.is_empty())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_is_an_observed_value() {
        let ns: Vec<u64> = (1..=100).collect();
        let q = quantiles_ns(&ns, &[0.5, 0.99, 0.999, 1.0]);
        assert_eq!(q, vec![50.0, 99.0, 100.0, 100.0]);
        let odd = quantiles_ns(&[3, 1, 2], &[0.5]);
        assert_eq!(odd, vec![2.0]);
    }

    #[test]
    fn suite_sums_program_medians() {
        let mut p = PerProgram::new(2);
        for v in [10, 30, 20] {
            p.push(0, v);
        }
        for v in [5, 7] {
            p.push(1, v);
        }
        assert_eq!(p.suite_median_ns(), 25.0);
        assert_eq!(p.pooled().len(), 5);
        let s = p.pooled();
        assert_eq!(s.beyond(0.6), 2);
    }
}
