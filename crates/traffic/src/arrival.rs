//! Open-loop arrival processes.
//!
//! The paper's applications are *closed-loop*: a processor starts its
//! next transaction the moment the previous one commits, so offered
//! load automatically throttles to whatever the system sustains.
//! Production traffic is *open-loop*: users issue requests on their own
//! schedule, and when the system falls behind, latency — not offered
//! load — absorbs the difference. An [`ArrivalProcess`] turns a seeded
//! RNG into the timestamp stream that models this: each call to
//! [`ArrivalProcess::next_at`] returns the next arrival's tick,
//! monotonically non-decreasing.

use tcc_types::rng::SmallRng;

use crate::config::ArrivalConfig;

/// Stateful generator of arrival timestamps (ticks).
#[derive(Debug, Clone)]
pub struct ArrivalProcess {
    cfg: ArrivalConfig,
    /// Exact accumulated time, kept in f64 so rounding to integer
    /// ticks never drifts the long-run rate.
    now: f64,
    /// Bursty-state machine: `true` while in the burst state.
    bursting: bool,
    /// Tick at which the current bursty dwell ends.
    dwell_until: f64,
}

/// Exponential sample with the given mean (inverse-CDF transform).
fn exp_sample(rng: &mut SmallRng, mean: f64) -> f64 {
    // 1 - u in (0, 1]: ln never sees zero.
    -(1.0 - rng.gen_range(0.0f64..1.0)).ln() * mean
}

impl ArrivalProcess {
    /// A process over a *validated* arrival config (see
    /// [`crate::TrafficConfig::validate`]).
    #[must_use]
    pub fn new(cfg: ArrivalConfig) -> ArrivalProcess {
        ArrivalProcess {
            cfg,
            now: 0.0,
            bursting: false,
            dwell_until: 0.0,
        }
    }

    /// Advances to the next arrival and returns its tick.
    pub fn next_at(&mut self, rng: &mut SmallRng) -> u64 {
        let dt = match self.cfg {
            ArrivalConfig::Poisson {
                mean_interarrival_ticks,
            } => exp_sample(rng, mean_interarrival_ticks),
            ArrivalConfig::Bursty {
                calm_interarrival_ticks,
                burst_interarrival_ticks,
                mean_dwell_ticks,
            } => {
                if self.now >= self.dwell_until {
                    self.bursting = !self.bursting;
                    self.dwell_until = self.now + exp_sample(rng, mean_dwell_ticks);
                }
                let mean = if self.bursting {
                    burst_interarrival_ticks
                } else {
                    calm_interarrival_ticks
                };
                exp_sample(rng, mean)
            }
            ArrivalConfig::Diurnal {
                mean_interarrival_ticks,
                period_ticks,
                amplitude,
            } => {
                // Instantaneous rate = base * (1 + A sin(2π t / P));
                // stretch the next exponential gap by the reciprocal
                // envelope at the current phase. A < 1, so the envelope
                // never reaches zero and the gap stays finite.
                let phase = (self.now / period_ticks as f64) * std::f64::consts::TAU;
                let envelope = 1.0 + amplitude * phase.sin();
                exp_sample(rng, mean_interarrival_ticks) / envelope
            }
        };
        self.now += dt;
        self.now as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcc_workloads::sampling::stream_rng;

    fn mean_gap(cfg: ArrivalConfig, n: usize, seed: u64) -> f64 {
        let mut p = ArrivalProcess::new(cfg);
        let mut rng = stream_rng(seed, 0);
        let mut last = 0u64;
        for _ in 0..n {
            last = p.next_at(&mut rng);
        }
        last as f64 / n as f64
    }

    #[test]
    fn poisson_long_run_rate_matches_configuration() {
        let m = mean_gap(
            ArrivalConfig::Poisson {
                mean_interarrival_ticks: 50.0,
            },
            200_000,
            42,
        );
        assert!((m - 50.0).abs() < 1.0, "empirical mean gap {m} vs 50");
    }

    #[test]
    fn timestamps_are_monotone() {
        let mut p = ArrivalProcess::new(ArrivalConfig::Bursty {
            calm_interarrival_ticks: 80.0,
            burst_interarrival_ticks: 5.0,
            mean_dwell_ticks: 1000.0,
        });
        let mut rng = stream_rng(7, 0);
        let mut last = 0;
        for _ in 0..10_000 {
            let t = p.next_at(&mut rng);
            assert!(t >= last);
            last = t;
        }
    }

    #[test]
    fn bursty_actually_alternates_rates() {
        // Windowed arrival counts should show both calm and burst
        // regimes: max window ≫ min window.
        let mut p = ArrivalProcess::new(ArrivalConfig::Bursty {
            calm_interarrival_ticks: 100.0,
            burst_interarrival_ticks: 5.0,
            mean_dwell_ticks: 20_000.0,
        });
        let mut rng = stream_rng(3, 0);
        let mut counts = std::collections::BTreeMap::new();
        for _ in 0..50_000 {
            let t = p.next_at(&mut rng);
            *counts.entry(t / 10_000).or_insert(0u64) += 1;
        }
        let max = counts.values().copied().max().unwrap();
        let min = counts.values().copied().min().unwrap();
        assert!(
            max > min.saturating_mul(4),
            "no burstiness visible: windows {min}..{max}"
        );
    }

    #[test]
    fn diurnal_rate_swings_with_the_envelope() {
        let period = 100_000u64;
        let mut p = ArrivalProcess::new(ArrivalConfig::Diurnal {
            mean_interarrival_ticks: 20.0,
            period_ticks: period,
            amplitude: 0.8,
        });
        let mut rng = stream_rng(9, 0);
        // Count arrivals in the peak quarter vs the trough quarter of
        // each period.
        let (mut peak, mut trough) = (0u64, 0u64);
        for _ in 0..200_000 {
            let t = p.next_at(&mut rng);
            match (t % period) * 4 / period {
                0 => peak += 1,   // phase [0, π/2): sin rising, high rate
                2 => trough += 1, // phase [π, 3π/2): sin negative
                _ => {}
            }
        }
        assert!(
            peak > trough * 2,
            "no diurnal swing: peak {peak} vs trough {trough}"
        );
    }

    #[test]
    fn same_seed_reproduces_the_stream() {
        let cfg = ArrivalConfig::Diurnal {
            mean_interarrival_ticks: 30.0,
            period_ticks: 10_000,
            amplitude: 0.5,
        };
        let run = |seed| {
            let mut p = ArrivalProcess::new(cfg.clone());
            let mut rng = stream_rng(seed, 0);
            (0..1000).map(|_| p.next_at(&mut rng)).collect::<Vec<_>>()
        };
        assert_eq!(run(1), run(1));
        assert_ne!(run(1), run(2));
    }
}
