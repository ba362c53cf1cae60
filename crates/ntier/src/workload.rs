//! RUBBoS closed-loop workload generation.
//!
//! RUBBoS emulates a Slashdot-style bulletin board: a fixed population of
//! users (the "workload" number in the paper) who each loop forever —
//! think, issue one of the 24 interactions, wait for the reply, think again.

use crate::config::WorkloadConfig;
use crate::types::{Interaction, SessionId, INTERACTIONS};
use mscope_sim::{LogNormal, SimDuration, SimRng, SimTime, WeightedIndex};

/// A service-demand distribution prepared for repeated draws: log-normal
/// with a given mean and CV, or the constant zero for a zero mean. The
/// engine builds one per (tier, interaction) and per tier's second phase
/// instead of re-deriving the log-normal's parameters on every burst.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Demand(Option<LogNormal>);

impl Demand {
    /// Prepares the demand distribution with the given mean and CV.
    ///
    /// # Panics
    ///
    /// Panics if `cv` is negative.
    pub fn new(mean: SimDuration, cv: f64) -> Demand {
        Demand((!mean.is_zero()).then(|| LogNormal::from_mean_cv(mean.as_micros() as f64, cv)))
    }
}

/// Stateful workload generator; one per run.
#[derive(Debug, Clone)]
pub struct Workload {
    cfg: WorkloadConfig,
    rng: SimRng,
    mix: WeightedIndex<Vec<f64>>,
}

impl Workload {
    /// Creates the generator with its own RNG stream; weights reflect the
    /// configured [`WorkloadMix`](crate::config::WorkloadMix).
    ///
    /// # Panics
    ///
    /// Panics if the mix leaves no interaction with a positive weight.
    pub fn new(cfg: WorkloadConfig, rng: SimRng) -> Self {
        let weights = INTERACTIONS
            .iter()
            .map(|s| s.weight * cfg.mix.weight_factor(s.rw))
            .collect();
        Workload {
            cfg,
            rng,
            mix: WeightedIndex::new(weights),
        }
    }

    /// The workload configuration.
    pub fn config(&self) -> &WorkloadConfig {
        &self.cfg
    }

    /// First-request instants for every session, staggered uniformly over
    /// the ramp-up window so the run does not start with a thundering herd.
    pub fn initial_arrivals(&mut self) -> Vec<(SimTime, SessionId)> {
        let ramp_us = self.cfg.ramp_up.as_micros().max(1);
        (0..self.cfg.users)
            .map(|i| {
                let at = SimTime::from_micros(self.rng.uniform_u64(0, ramp_us - 1));
                (at, SessionId(i))
            })
            .collect()
    }

    /// Draws the next interaction for a session from the RUBBoS mix.
    pub fn next_interaction(&mut self) -> Interaction {
        Interaction {
            idx: self.mix.sample(&mut self.rng),
        }
    }

    /// Draws an exponential interarrival gap for an open-loop process at
    /// `rate_rps`.
    ///
    /// # Panics
    ///
    /// Panics if `rate_rps` is not positive.
    pub fn interarrival(&mut self, rate_rps: f64) -> SimDuration {
        assert!(rate_rps > 0.0, "open-loop rate must be positive");
        SimDuration::from_secs_f64(self.rng.exponential(1.0 / rate_rps))
    }

    /// Draws an exponential think time.
    pub fn think_time(&mut self) -> SimDuration {
        SimDuration::from_secs_f64(self.rng.exponential(self.cfg.think_time.as_secs_f64()))
    }

    /// Draws a log-normal service demand with the given mean and CV,
    /// clamped below at 1 µs so bursts always take time.
    pub fn demand(&mut self, mean: SimDuration, cv: f64) -> SimDuration {
        self.draw(&Demand::new(mean, cv))
    }

    /// Draws from a prepared [`Demand`]: what [`demand`](Workload::demand)
    /// draws for the same mean and CV.
    pub fn draw(&mut self, demand: &Demand) -> SimDuration {
        let Some(dist) = &demand.0 else {
            return SimDuration::ZERO;
        };
        let sample = dist.sample(&mut self.rng);
        SimDuration::from_micros((sample.round() as u64).max(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::RwKind;

    fn workload(users: u32) -> Workload {
        Workload::new(WorkloadConfig::rubbos(users), SimRng::seed_from(11))
    }

    #[test]
    fn initial_arrivals_cover_ramp() {
        let mut w = workload(1000);
        let arrivals = w.initial_arrivals();
        assert_eq!(arrivals.len(), 1000);
        let ramp = w.config().ramp_up;
        assert!(arrivals.iter().all(|(t, _)| *t < SimTime::ZERO + ramp));
        // Sessions are all distinct.
        let mut ids: Vec<u32> = arrivals.iter().map(|(_, s)| s.0).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 1000);
    }

    #[test]
    fn interaction_mix_matches_weights() {
        let mut w = workload(1);
        let n = 50_000;
        let mut writes = 0usize;
        for _ in 0..n {
            if w.next_interaction().rw() == RwKind::Write {
                writes += 1;
            }
        }
        let frac = writes as f64 / n as f64;
        assert!((0.07..0.17).contains(&frac), "write fraction {frac}");
    }

    #[test]
    fn think_time_mean_close_to_config() {
        let mut w = workload(1);
        let n = 20_000;
        let total: f64 = (0..n).map(|_| w.think_time().as_secs_f64()).sum();
        let mean = total / n as f64;
        assert!((mean - 7.0).abs() < 0.3, "mean think {mean}");
    }

    #[test]
    fn demand_positive_and_near_mean() {
        let mut w = workload(1);
        let mean = SimDuration::from_micros(800);
        let n = 20_000;
        let mut total = 0u64;
        for _ in 0..n {
            let d = w.demand(mean, 0.5);
            assert!(d.as_micros() >= 1);
            total += d.as_micros();
        }
        let observed = total as f64 / n as f64;
        assert!((observed - 800.0).abs() / 800.0 < 0.05, "mean {observed}");
        assert_eq!(w.demand(SimDuration::ZERO, 0.5), SimDuration::ZERO);
    }

    #[test]
    fn deterministic_given_seed() {
        let mut a = workload(10);
        let mut b = workload(10);
        for _ in 0..100 {
            assert_eq!(a.next_interaction(), b.next_interaction());
            assert_eq!(a.think_time(), b.think_time());
        }
    }
}

#[cfg(test)]
mod mix_tests {
    use super::*;
    use crate::config::WorkloadMix;
    use crate::types::RwKind;

    #[test]
    fn browse_only_mix_never_writes() {
        let mut cfg = WorkloadConfig::rubbos_browse_only(10);
        cfg.mix = WorkloadMix::BrowseOnly;
        let mut w = Workload::new(cfg, SimRng::seed_from(3));
        for _ in 0..5_000 {
            assert_eq!(w.next_interaction().rw(), RwKind::Read);
        }
    }

    #[test]
    fn write_heavy_mix_triples_write_share() {
        let base = {
            let w0 = Workload::new(WorkloadConfig::rubbos(10), SimRng::seed_from(4));
            let mut w0 = w0;
            let n = 30_000;
            (0..n)
                .filter(|_| w0.next_interaction().rw() == RwKind::Write)
                .count() as f64
                / n as f64
        };
        let heavy = {
            let mut cfg = WorkloadConfig::rubbos(10);
            cfg.mix = WorkloadMix::WriteHeavy;
            let mut w = Workload::new(cfg, SimRng::seed_from(4));
            let n = 30_000;
            (0..n)
                .filter(|_| w.next_interaction().rw() == RwKind::Write)
                .count() as f64
                / n as f64
        };
        assert!(heavy > 2.0 * base, "heavy {heavy:.3} vs base {base:.3}");
    }
}
