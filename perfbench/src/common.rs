//! Shared pieces: seeded randomness, percentiles, and the result types every
//! workload returns.

use std::time::Duration;

/// The SplitMix64 output function: a bijective mix used to derive
/// independent seeds from the workload seed.
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A small deterministic generator for the benchmark's own choices (request
/// mix, replay picks, rates). The program never sees it: it only receives
/// the request bodies and master seeds derived from it.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(mix(seed))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// Nearest-rank quantile of unsorted samples (`NaN` when empty).
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// One measured metric with its unit and the number of samples behind it.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub samples: usize,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str, samples: usize) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
            samples,
        }
    }
}

/// Latency samples of one request class, in milliseconds.
#[derive(Debug, Clone, Default)]
pub struct Samples(pub Vec<f64>);

impl Samples {
    pub fn push(&mut self, latency_ms: f64) {
        self.0.push(latency_ms);
    }

    pub fn extend(&mut self, other: &Samples) {
        self.0.extend_from_slice(&other.0);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// `name` at quantile `q` over every sample, with the sample count.
    pub fn metric(&self, name: &str, q: f64) -> Metric {
        Metric::new(name, quantile(&self.0, q), "ms", self.len())
    }

    /// The tail of `class`: the highest of p99, p90 and p80 that has at
    /// least ten samples beyond it, named `<class>_p<q>_ms` (`None` when
    /// even p80 has fewer).
    pub fn tail(&self, class: &str) -> Option<Metric> {
        [(0.99, "p99"), (0.9, "p90"), (0.8, "p80")]
            .into_iter()
            .find(|&(q, _)| {
                let cut = quantile(&self.0, q);
                self.0.iter().filter(|&&v| v > cut).count() >= 10
            })
            .map(|(q, label)| self.metric(&format!("{class}_{label}_ms"), q))
    }
}

/// What one measured phase of a workload produced.
#[derive(Debug, Default)]
pub struct Phase {
    /// Operations attempted in the timed loop (and checked).
    pub attempted: u64,
    /// Operations that failed: a non-2xx reply, a transport error or a
    /// failed correctness check.
    pub failed: u64,
    /// Human-readable notes on failed checks.
    pub problems: Vec<String>,
    /// Set-up time samples, seconds.
    pub setup_s: Vec<f64>,
    /// Every end-to-end metric, under the names of the benchmark's docs.
    pub report: Vec<Metric>,
    /// The contract metrics (`BENCHMARK.json` `end_to_end`).
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics (traced phases only).
    pub layers: Vec<Metric>,
}

impl Phase {
    pub fn fail(&mut self, problem: impl Into<String>) {
        self.failed += 1;
        let problem = problem.into();
        if self.problems.len() < 20 {
            self.problems.push(problem);
        }
    }

    pub fn check(&mut self, ok: bool, problem: impl FnOnce() -> String) {
        if !ok {
            self.fail(problem());
        }
    }
}

/// `k` successes in `n` trials are consistent with probability `p` when the
/// estimate lies within `z` binomial standard deviations plus `slack`.
pub fn binomial_ok(k: u64, n: u64, p: f64, z: f64, slack: f64) -> bool {
    if n == 0 {
        return false;
    }
    let estimate = k as f64 / n as f64;
    let sd = (p * (1.0 - p) / n as f64).sqrt();
    (estimate - p).abs() <= z * sd + slack
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_is_nearest_rank() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&samples, 0.5), 50.0);
        assert_eq!(quantile(&samples, 0.9), 90.0);
        assert_eq!(quantile(&samples, 0.99), 99.0);
        let tail = Samples(samples)
            .tail("hit")
            .expect("100 samples have a tail");
        assert_eq!(tail.name, "hit_p90_ms");
        assert_eq!(tail.value, 90.0);
    }

    #[test]
    fn rng_is_deterministic_per_seed() {
        let mut a = Rng::new(7);
        let mut b = Rng::new(7);
        assert_eq!(a.next_u64(), b.next_u64());
        assert_ne!(Rng::new(8).next_u64(), Rng::new(7).next_u64());
    }
}
