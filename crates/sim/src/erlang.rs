//! Erlang-B analytics for the online regime.
//!
//! The dynamic simulator ([`crate::dynamic`]) is an M/G/c/c-style
//! loss system: tasks arrive Poisson, hold an integer number of RRBs for a
//! geometric time, and blocked tasks are cleared to the cloud. Classic
//! teletraffic theory predicts the blocking probability of such a system
//! with the **Erlang-B formula**; this module implements it and derives
//! the effective server count of a DMRA deployment, giving an independent
//! analytic cross-check of the simulator (tested in
//! `blocking_prediction_matches_simulation`).
//!
//! The approximation pools all BSs into one trunk (each UE sees several
//! BSs at the default 300 m coverage radius, and DMRA's ρ term actively
//! balances load), so it is closest at high overlap and slightly
//! optimistic at low overlap.

use crate::config::ScenarioConfig;
use dmra_types::{Result, UeId};

/// The Erlang-B blocking probability for `servers` servers offered
/// `offered_erlangs` of traffic.
///
/// Uses the numerically stable recursion
/// `B(0) = 1`, `B(c) = a·B(c−1) / (c + a·B(c−1))`.
///
/// # Examples
///
/// ```
/// # use dmra_sim::erlang::erlang_b;
/// // Classic table value: 10 servers at 5 erlang ≈ 1.84% blocking.
/// let b = erlang_b(10, 5.0);
/// assert!((b - 0.0184).abs() < 5e-4);
/// // No servers: everything blocks.
/// assert_eq!(erlang_b(0, 3.0), 1.0);
/// ```
#[must_use]
pub fn erlang_b(servers: u32, offered_erlangs: f64) -> f64 {
    if offered_erlangs <= 0.0 {
        return 0.0;
    }
    let a = offered_erlangs;
    let mut b = 1.0;
    for c in 1..=servers {
        b = a * b / (f64::from(c) + a * b);
    }
    b
}

/// Inverse problem: the smallest server count keeping blocking at or
/// below `target` for the given offered load.
///
/// # Panics
///
/// Panics if `target` is not in `(0, 1]`.
#[must_use]
pub fn servers_for_blocking(offered_erlangs: f64, target: f64) -> u32 {
    assert!(
        target > 0.0 && target <= 1.0,
        "target blocking must be in (0, 1]"
    );
    let mut c = 0u32;
    let mut b = 1.0;
    let a = offered_erlangs.max(0.0);
    if a == 0.0 {
        return 0;
    }
    while b > target {
        c += 1;
        b = a * b / (f64::from(c) + a * b);
        if c > 10_000_000 {
            break;
        }
    }
    c
}

/// Analytic description of a deployment as an Erlang loss system.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrunkModel {
    /// Effective pooled server count: total RRBs across BSs divided by the
    /// mean per-task RRB demand at the best candidate.
    pub servers: u32,
    /// Mean RRBs one task consumes (sampled over the UE distribution).
    pub mean_rrbs_per_task: f64,
}

impl TrunkModel {
    /// Estimates the trunk model of a scenario by sampling `samples`
    /// synthetic UEs and averaging their cheapest-RRB candidate demand.
    ///
    /// # Errors
    ///
    /// Propagates scenario build errors.
    pub fn estimate(scenario: &ScenarioConfig, samples: usize, seed: u64) -> Result<Self> {
        let instance = scenario.clone().with_ues(samples).with_seed(seed).build()?;
        let mut total_n = 0.0;
        let mut counted = 0usize;
        for u in 0..instance.n_ues() {
            let best = instance
                .candidates(UeId::new(u as u32))
                .iter()
                .map(|l| l.n_rrbs.get())
                .min();
            if let Some(n) = best {
                total_n += f64::from(n);
                counted += 1;
            }
        }
        let mean = if counted == 0 {
            1.0
        } else {
            total_n / counted as f64
        };
        let total_rrbs = instance.budgets().rrb_total() as f64;
        Ok(Self {
            servers: (total_rrbs / mean).floor() as u32,
            mean_rrbs_per_task: mean,
        })
    }

    /// Predicted blocking for Poisson arrivals at `rate` per epoch and a
    /// mean holding time of `mean_holding` epochs.
    ///
    /// Clamps the holding mean to the simulator's validated `≥ 1 epoch`
    /// contract ([`crate::dynamic::DynamicConfig::validate`]): every
    /// admitted task occupies its resources for at least one full epoch,
    /// so offered load can never fall below `rate` erlangs. (The old
    /// `max(0.0)` clamp let the prediction drop below what any simulation
    /// could realize at the `mean_holding ≤ 1` boundary.)
    #[must_use]
    pub fn predicted_blocking(&self, rate: f64, mean_holding: f64) -> f64 {
        erlang_b(self.servers, rate * mean_holding.max(1.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dynamic::{DynamicConfig, DynamicSimulator, HoldingDistribution};

    #[test]
    fn erlang_b_matches_table_values() {
        // Values from standard Erlang-B tables.
        assert!((erlang_b(1, 1.0) - 0.5).abs() < 1e-12);
        assert!((erlang_b(2, 1.0) - 0.2).abs() < 1e-12);
        assert!((erlang_b(10, 5.0) - 0.018385).abs() < 1e-4);
        assert!((erlang_b(100, 90.0) - 0.026957).abs() < 1e-5);
    }

    #[test]
    fn erlang_b_edge_cases() {
        assert_eq!(erlang_b(5, 0.0), 0.0);
        assert_eq!(erlang_b(0, 2.0), 1.0);
        // Monotone: more load blocks more, more servers block less.
        assert!(erlang_b(10, 8.0) > erlang_b(10, 4.0));
        assert!(erlang_b(20, 8.0) < erlang_b(10, 8.0));
    }

    #[test]
    fn inverse_dimensioning_is_consistent() {
        for &(a, target) in &[(5.0, 0.02), (50.0, 0.01), (200.0, 0.05)] {
            let c = servers_for_blocking(a, target);
            assert!(erlang_b(c, a) <= target);
            if c > 0 {
                assert!(erlang_b(c - 1, a) > target);
            }
        }
        assert_eq!(servers_for_blocking(0.0, 0.01), 0);
    }

    #[test]
    fn trunk_model_matches_first_principles() {
        let model = TrunkModel::estimate(&ScenarioConfig::paper_defaults(), 400, 3).unwrap();
        // 25 BSs × 55 RRBs = 1375 RRBs; tasks need 1–2 RRBs at their best
        // candidate ⇒ roughly 700–1300 effective servers.
        assert!(
            (700..=1375).contains(&model.servers),
            "servers = {}",
            model.servers
        );
        assert!(model.mean_rrbs_per_task >= 1.0 && model.mean_rrbs_per_task <= 2.0);
    }

    #[test]
    fn blocking_prediction_matches_simulation() {
        // Offered load near and above capacity; compare analytic blocking
        // with the simulated cloud-forward ratio.
        let scenario = ScenarioConfig::paper_defaults();
        let model = TrunkModel::estimate(&scenario, 400, 3).unwrap();
        for rate in [150.0, 250.0, 350.0] {
            let predicted = model.predicted_blocking(rate, 5.0);
            let sim = DynamicSimulator::new(DynamicConfig {
                scenario: scenario.clone(),
                arrival_rate: rate,
                mean_holding: 5.0,
                holding: HoldingDistribution::Geometric,
                epochs: 120,
                seed: 11,
            })
            .run()
            .unwrap();
            let simulated = 1.0 - sim.admission_ratio();
            assert!(
                (predicted - simulated).abs() < 0.10,
                "rate {rate}: predicted {predicted:.3} vs simulated {simulated:.3}"
            );
        }
    }

    #[test]
    fn holding_boundary_matches_the_simulator_contract() {
        // Regression for the `mean_holding ≤ 1` boundary: the simulator
        // validates holding means to ≥ 1 epoch and the prediction clamps
        // the same way, so sub-epoch inputs predict exactly the 1-epoch
        // load instead of an unreachable lighter one.
        let model = TrunkModel {
            servers: 100,
            mean_rrbs_per_task: 1.0,
        };
        let rate = 120.0;
        assert_eq!(
            model.predicted_blocking(rate, 0.5),
            model.predicted_blocking(rate, 1.0)
        );
        assert_eq!(
            model.predicted_blocking(rate, 0.0),
            model.predicted_blocking(rate, 1.0)
        );
        // The old `max(0.0)` clamp predicted materially less blocking at
        // 0.5 epochs — a load no simulation run can produce.
        assert!(erlang_b(model.servers, rate * 0.5) < model.predicted_blocking(rate, 0.5));
    }

    #[test]
    fn blocking_prediction_matches_simulation_at_the_one_epoch_boundary() {
        // mean_holding = 1.0 is the smallest validated value: every task
        // holds exactly one epoch under geometric holding (p = 1 ⇒ no
        // extra epochs), so offered load is exactly `rate` erlangs.
        let scenario = ScenarioConfig::paper_defaults();
        let model = TrunkModel::estimate(&scenario, 400, 3).unwrap();
        for rate in [900.0, 1400.0] {
            let predicted = model.predicted_blocking(rate, 1.0);
            let sim = DynamicSimulator::new(DynamicConfig {
                scenario: scenario.clone(),
                arrival_rate: rate,
                mean_holding: 1.0,
                holding: HoldingDistribution::Geometric,
                epochs: 60,
                seed: 13,
            })
            .run()
            .unwrap();
            let simulated = 1.0 - sim.admission_ratio();
            assert!(
                (predicted - simulated).abs() < 0.10,
                "rate {rate}: predicted {predicted:.3} vs simulated {simulated:.3}"
            );
        }
    }

    #[test]
    fn blocking_prediction_holds_under_exponential_holding() {
        // Erlang-B is insensitive to the service distribution given its
        // mean — but the *discrete* occupancy of a continuous Exp(mean)
        // holding time is ceil(h), whose mean is 1/(1 − e^(−1/mean))
        // (≈ mean + ½). Compare the simulation against the prediction at
        // that effective mean (DESIGN.md §9 derives the correction).
        let scenario = ScenarioConfig::paper_defaults();
        let model = TrunkModel::estimate(&scenario, 400, 3).unwrap();
        let mean = 5.0f64;
        let effective = 1.0 / (1.0 - (-1.0 / mean).exp());
        for rate in [250.0, 350.0] {
            let predicted = model.predicted_blocking(rate, effective);
            let sim = DynamicSimulator::new(DynamicConfig {
                scenario: scenario.clone(),
                arrival_rate: rate,
                mean_holding: mean,
                holding: HoldingDistribution::Exponential,
                epochs: 120,
                seed: 17,
            })
            .run()
            .unwrap();
            let simulated = 1.0 - sim.admission_ratio();
            assert!(
                (predicted - simulated).abs() < 0.10,
                "rate {rate}: predicted {predicted:.3} vs simulated {simulated:.3}"
            );
        }
    }
}
