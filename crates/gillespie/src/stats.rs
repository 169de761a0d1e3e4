//! Per-species statistics over repeated trajectories.

use crn::{Crn, SpeciesId};
use serde::{Deserialize, Serialize};

use crate::simulator::SimulationResult;

/// Running mean/variance accumulator for the final count of one species.
///
/// Uses Welford's online algorithm so that ensembles of any size can be
/// accumulated without storing every sample.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct SpeciesStatistics {
    samples: u64,
    mean: f64,
    m2: f64,
    min: u64,
    max: u64,
}

impl SpeciesStatistics {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        SpeciesStatistics {
            samples: 0,
            mean: 0.0,
            m2: 0.0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Adds one observed final count.
    pub fn push(&mut self, count: u64) {
        self.samples += 1;
        let x = count as f64;
        let delta = x - self.mean;
        self.mean += delta / self.samples as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(count);
        self.max = self.max.max(count);
    }

    /// Number of samples accumulated.
    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// Sample mean of the final count.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Unbiased sample variance of the final count.
    pub fn variance(&self) -> f64 {
        if self.samples < 2 {
            0.0
        } else {
            self.m2 / (self.samples - 1) as f64
        }
    }

    /// Sample standard deviation of the final count.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest observed count (0 if no samples).
    pub fn min(&self) -> u64 {
        if self.samples == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest observed count.
    pub fn max(&self) -> u64 {
        self.max
    }
}

/// Statistics of the final state of a set of trajectories, one accumulator
/// per species, plus event/time summaries.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrajectorySummary {
    species: Vec<SpeciesStatistics>,
    events: SpeciesStatistics,
    total_time: f64,
    trajectories: u64,
}

impl TrajectorySummary {
    /// Creates a summary for a network with `species_len` species.
    pub fn new(species_len: usize) -> Self {
        TrajectorySummary {
            species: vec![SpeciesStatistics::new(); species_len],
            events: SpeciesStatistics::new(),
            total_time: 0.0,
            trajectories: 0,
        }
    }

    /// Creates a summary sized for `crn`.
    pub fn for_crn(crn: &Crn) -> Self {
        TrajectorySummary::new(crn.species_len())
    }

    /// Accumulates one finished trajectory.
    pub fn push(&mut self, result: &SimulationResult) {
        self.trajectories += 1;
        self.total_time += result.final_time;
        self.events.push(result.events);
        for (idx, stats) in self.species.iter_mut().enumerate() {
            stats.push(result.final_state.counts().get(idx).copied().unwrap_or(0));
        }
    }

    /// Returns the per-species accumulator.
    ///
    /// # Panics
    ///
    /// Panics if the species index is out of range.
    pub fn species(&self, species: SpeciesId) -> &SpeciesStatistics {
        &self.species[species.index()]
    }

    /// Statistics of the number of reaction events per trajectory.
    pub fn events(&self) -> &SpeciesStatistics {
        &self.events
    }

    /// Mean simulated end time per trajectory.
    pub fn mean_final_time(&self) -> f64 {
        if self.trajectories == 0 {
            0.0
        } else {
            self.total_time / self.trajectories as f64
        }
    }

    /// Number of trajectories accumulated.
    pub fn trajectories(&self) -> u64 {
        self.trajectories
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulator::StopReason;
    use crate::trajectory::Trajectory;
    use crn::State;

    #[test]
    fn welford_matches_direct_computation() {
        let samples = [3u64, 7, 7, 1, 12, 0, 5];
        let mut stats = SpeciesStatistics::new();
        for &s in &samples {
            stats.push(s);
        }
        let n = samples.len() as f64;
        let mean = samples.iter().map(|&s| s as f64).sum::<f64>() / n;
        let var = samples
            .iter()
            .map(|&s| (s as f64 - mean).powi(2))
            .sum::<f64>()
            / (n - 1.0);
        assert!((stats.mean() - mean).abs() < 1e-12);
        assert!((stats.variance() - var).abs() < 1e-9);
        assert_eq!(stats.min(), 0);
        assert_eq!(stats.max(), 12);
        assert_eq!(stats.samples(), 7);
    }

    #[test]
    fn empty_statistics_are_well_defined() {
        let stats = SpeciesStatistics::new();
        assert_eq!(stats.mean(), 0.0);
        assert_eq!(stats.variance(), 0.0);
        assert_eq!(stats.std_dev(), 0.0);
        assert_eq!(stats.min(), 0);
        assert_eq!(stats.max(), 0);
    }

    #[test]
    fn summary_accumulates_trajectories() {
        let mut summary = TrajectorySummary::new(2);
        for (counts, time, events) in [(vec![1u64, 4], 1.0, 5u64), (vec![3, 2], 3.0, 7)] {
            summary.push(&SimulationResult {
                final_state: State::from_counts(counts),
                final_time: time,
                events,
                stop_reason: StopReason::ConditionMet,
                trajectory: Trajectory::new(),
            });
        }
        assert_eq!(summary.trajectories(), 2);
        assert_eq!(summary.species(SpeciesId::from_index(0)).mean(), 2.0);
        assert_eq!(summary.species(SpeciesId::from_index(1)).mean(), 3.0);
        assert_eq!(summary.events().mean(), 6.0);
        assert_eq!(summary.mean_final_time(), 2.0);
    }

    #[test]
    fn summary_sized_for_crn() {
        let crn: crn::Crn = "a -> b @ 1".parse().unwrap();
        let summary = TrajectorySummary::for_crn(&crn);
        assert_eq!(summary.trajectories(), 0);
        assert_eq!(summary.mean_final_time(), 0.0);
    }
}
