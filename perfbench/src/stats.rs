//! Order statistics and the small deterministic RNG the workloads draw
//! their arrival schedules from.

use std::time::Instant;

/// Nearest-rank percentile of an ascending slice; `p` in `[0, 100]`.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sort a copy of `v` ascending.
pub fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

pub fn median(v: &[f64]) -> f64 {
    percentile(&sorted(v), 50.0)
}

/// Samples strictly above the `p`-th percentile: the evidence behind a
/// tail figure. A tail is reported only where this is at least ten.
pub fn beyond(n: usize, p: f64) -> usize {
    n - ((p / 100.0) * n as f64).ceil() as usize
}

pub fn geomean(v: &[f64]) -> f64 {
    (v.iter().map(|x| x.ln()).sum::<f64>() / v.len() as f64).exp()
}

/// Log-bucketed histogram of positive samples in constant memory, so a
/// long closed loop does not grow the process it measures. Buckets are 1%
/// wide and keep their count and sum: a percentile reads as the mean of
/// the samples in the bucket holding its rank.
pub struct Hist {
    counts: Vec<u64>,
    sums: Vec<f64>,
    n: u64,
}

const HIST_FLOOR: f64 = 1e-3;
const HIST_GROWTH: f64 = 1.01;
/// Covers `HIST_FLOOR` to `HIST_FLOOR * 1e12`.
const HIST_BUCKETS: usize = 2800;

impl Hist {
    pub fn new() -> Self {
        Hist {
            counts: vec![0; HIST_BUCKETS],
            sums: vec![0.0; HIST_BUCKETS],
            n: 0,
        }
    }

    pub fn record(&mut self, x: f64) {
        let b = if x <= HIST_FLOOR {
            0
        } else {
            ((x / HIST_FLOOR).ln() / HIST_GROWTH.ln()) as usize
        };
        let b = b.min(HIST_BUCKETS - 1);
        self.counts[b] += 1;
        self.sums[b] += x;
        self.n += 1;
    }

    pub fn len(&self) -> u64 {
        self.n
    }

    pub fn percentile(&self, p: f64) -> f64 {
        assert!(self.n > 0, "percentile of no samples");
        let rank = (((p / 100.0) * self.n as f64).ceil() as u64).clamp(1, self.n);
        let mut seen = 0;
        for (c, s) in self.counts.iter().zip(&self.sums) {
            seen += c;
            if seen >= rank {
                return s / *c as f64;
            }
        }
        unreachable!("rank is at most the sample count")
    }
}

/// Completions of a loop counted per one-second window of wall time.
/// The rate is the median over the windows that ran to their end, so a
/// burst of host noise moves it less than a total count would.
pub struct Windows {
    start: Instant,
    counts: Vec<u64>,
}

impl Windows {
    pub fn new(start: Instant) -> Self {
        Windows {
            start,
            counts: Vec::new(),
        }
    }

    pub fn tick(&mut self, at: Instant) {
        let w = at.saturating_duration_since(self.start).as_secs() as usize;
        if self.counts.len() <= w {
            self.counts.resize(w + 1, 0);
        }
        self.counts[w] += 1;
    }

    /// Median completions per second over the full windows before `end`.
    pub fn per_s(&self, end: Instant) -> f64 {
        let full = (end.saturating_duration_since(self.start).as_secs() as usize).max(1);
        let mut counts = self.counts.clone();
        counts.resize(full, 0);
        median(&counts[..full].iter().map(|&c| c as f64).collect::<Vec<_>>())
    }
}

/// SplitMix64: a seeded, dependency-free source for arrival gaps.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `(0, 1]`.
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }

    /// Exponential gap of a Poisson process at `rate` per second.
    pub fn exp_gap_s(&mut self, rate: f64) -> f64 {
        -self.unit().ln() / rate
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(beyond(1000, 99.0), 10);
        assert_eq!(beyond(100, 50.0), 50);
    }

    #[test]
    fn histogram_percentiles_are_within_a_bucket() {
        let mut h = Hist::new();
        for i in 1..=1000 {
            h.record(f64::from(i));
        }
        assert_eq!(h.len(), 1000);
        for p in [50.0, 99.0] {
            let want = p * 10.0;
            assert!((h.percentile(p) - want).abs() / want < 0.01, "P{p}");
        }
    }

    #[test]
    fn rng_is_seeded() {
        let a: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(7);
                move |_| r.next_u64()
            })
            .collect();
        let mut r = Rng::new(7);
        assert!(a.iter().all(|&x| x == r.next_u64()));
        assert!((0..1000).all(|_| (0.0..=1.0).contains(&r.unit()) && r.unit() > 0.0));
    }
}
