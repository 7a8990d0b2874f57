//! Per-link evaluation: from geometry and powers to SINR, per-RRB rate and
//! RRB demand.
//!
//! Two evaluation shapes share the same physics:
//!
//! * the scalar chain ([`LinkEvaluator::evaluate_at_distance`]), one link
//!   at a time — the executable specification;
//! * the batched kernel ([`LinkEvaluator::evaluate_batch`]), which takes
//!   one UE's whole pruned candidate slice and computes path loss, SINR
//!   and per-RRB rate in structure-of-arrays passes. Every lane performs
//!   the scalar chain's operations in the scalar chain's order, so the
//!   outputs are **bit-identical** to `evaluate_at_distance` — pinned by
//!   property tests.

use crate::config::RadioConfig;
use dmra_types::{BitsPerSec, Db, Dbm, Meters, Point, RrbCount};

/// Everything the allocation layer needs to know about one UE–BS link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkMetrics {
    /// Euclidean distance `d_{i,u}` between the endpoints.
    pub distance: Meters,
    /// Attenuation (path loss plus shadowing) on the link.
    pub attenuation: Db,
    /// Received power at the BS.
    pub rx_power: Dbm,
    /// `λ_{u,i}`: linear signal-to-interference-plus-noise ratio.
    pub sinr_linear: f64,
    /// `e_{u,i}`: Shannon rate of one RRB on this link (Eq. (2)).
    pub per_rrb_rate: BitsPerSec,
}

impl LinkMetrics {
    /// The SINR in decibels.
    #[must_use]
    pub fn sinr_db(&self) -> Db {
        Db::from_linear(self.sinr_linear)
    }
}

/// Reusable structure-of-arrays scratch for [`LinkEvaluator::evaluate_batch`].
///
/// The caller clears it, pushes one lane per candidate BS (carrying the
/// exact distance a pruning query measured), runs the batch kernel, and
/// reads the results back per lane. All buffers are retained across
/// `clear` calls, so a hot loop allocates only until its high-water batch
/// size.
#[derive(Debug, Clone, Default)]
pub struct LinkBatch {
    /// Caller-owned lane tag (the BS index, for the candidate scan).
    tag: Vec<u32>,
    /// Candidate BS positions (shadowing is a function of the endpoints).
    bs_pos: Vec<Point>,
    /// Exact UE–BS distances, in meters.
    dist: Vec<f64>,
    /// Per-lane aggregate received power at the BS (interference input;
    /// zero when the interference factor is zero).
    total_rx_mw: Vec<f64>,
    /// Attenuation (path loss + shadowing), dB.
    att: Vec<f64>,
    /// Received power, dBm.
    rx_dbm: Vec<f64>,
    /// Received power, linear milliwatts.
    rx_mw: Vec<f64>,
    /// Linear SINR.
    sinr: Vec<f64>,
    /// Per-RRB Shannon rate, bit/s.
    rate: Vec<f64>,
}

impl LinkBatch {
    /// Creates an empty batch.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Empties the batch, retaining capacity.
    pub fn clear(&mut self) {
        self.tag.clear();
        self.bs_pos.clear();
        self.dist.clear();
        self.total_rx_mw.clear();
    }

    /// Adds one candidate lane. `distance` must be the exact UE–BS
    /// distance (same contract as
    /// [`LinkEvaluator::evaluate_at_distance`]); `total_rx_mw` is the
    /// aggregate received power at this BS, or `0.0` under noise-only.
    pub fn push(&mut self, tag: u32, bs: Point, distance: Meters, total_rx_mw: f64) {
        self.tag.push(tag);
        self.bs_pos.push(bs);
        self.dist.push(distance.get());
        self.total_rx_mw.push(total_rx_mw);
    }

    /// Number of lanes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.tag.len()
    }

    /// Whether the batch has no lanes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.tag.is_empty()
    }

    /// The caller-supplied tag of lane `j`.
    #[must_use]
    pub fn tag(&self, j: usize) -> u32 {
        self.tag[j]
    }

    /// The full metrics of lane `j` (valid after
    /// [`LinkEvaluator::evaluate_batch`]), bit-identical to the scalar
    /// [`LinkEvaluator::evaluate_at_distance`] result for the lane.
    #[must_use]
    pub fn metrics(&self, j: usize) -> LinkMetrics {
        LinkMetrics {
            distance: Meters::new(self.dist[j]),
            attenuation: Db::new(self.att[j]),
            rx_power: Dbm::new(self.rx_dbm[j]),
            sinr_linear: self.sinr[j],
            per_rrb_rate: BitsPerSec::new(self.rate[j]),
        }
    }
}

/// Evaluates links under a fixed [`RadioConfig`].
///
/// The evaluator is cheap to clone and stateless; all randomness
/// (shadowing) is a deterministic function of the link endpoints.
#[derive(Debug, Clone)]
pub struct LinkEvaluator {
    config: RadioConfig,
    noise_mw: f64,
}

impl LinkEvaluator {
    /// Creates an evaluator, precomputing the per-RRB noise floor.
    #[must_use]
    pub fn new(config: RadioConfig) -> Self {
        let noise_mw = config.noise_power_per_rrb_mw();
        Self { config, noise_mw }
    }

    /// The configuration this evaluator was built with.
    #[must_use]
    pub fn config(&self) -> &RadioConfig {
        &self.config
    }

    /// Evaluates the link assuming no cross-UE interference (SINR = SNR).
    #[must_use]
    pub fn evaluate(&self, tx_power: Dbm, ue: Point, bs: Point) -> LinkMetrics {
        self.evaluate_with_interference(tx_power, ue, bs, 0.0)
    }

    /// Evaluates the link with an explicit aggregate interference power (in
    /// linear milliwatts) added to the noise floor.
    ///
    /// The aggregate is supplied by the caller because it depends on *all*
    /// UEs in the network, which the evaluator deliberately does not know
    /// about (see [`InterferenceModel::LoadProportional`]).
    ///
    /// [`InterferenceModel::LoadProportional`]:
    /// crate::InterferenceModel::LoadProportional
    #[must_use]
    pub fn evaluate_with_interference(
        &self,
        tx_power: Dbm,
        ue: Point,
        bs: Point,
        interference_mw: f64,
    ) -> LinkMetrics {
        self.evaluate_at_distance(tx_power, ue, bs, ue.distance(bs), interference_mw)
    }

    /// [`LinkEvaluator::evaluate_with_interference`] with the UE–BS
    /// distance supplied by the caller, for hot loops that already hold it
    /// (a spatial index computes it while filtering candidates).
    ///
    /// `distance` must equal `ue.distance(bs)` — the result is then
    /// bit-identical to [`LinkEvaluator::evaluate_with_interference`].
    #[must_use]
    pub fn evaluate_at_distance(
        &self,
        tx_power: Dbm,
        ue: Point,
        bs: Point,
        distance: Meters,
        interference_mw: f64,
    ) -> LinkMetrics {
        debug_assert!(
            interference_mw >= 0.0,
            "interference power cannot be negative"
        );
        debug_assert!(
            distance == ue.distance(bs),
            "supplied distance must be the exact UE–BS distance"
        );
        let attenuation =
            self.config.path_loss.loss(distance) + self.config.shadowing.sample(ue, bs);
        let rx_power = tx_power.attenuate(attenuation);
        let sinr_linear = rx_power.to_milliwatts() / (self.noise_mw + interference_mw);
        let per_rrb_rate =
            BitsPerSec::new(self.config.rrb_bandwidth.get() * (1.0 + sinr_linear).log2());
        LinkMetrics {
            distance,
            attenuation,
            rx_power,
            sinr_linear,
            per_rrb_rate,
        }
    }

    /// Evaluates one UE's whole candidate slice in structure-of-arrays
    /// passes over the lanes pushed into `batch`.
    ///
    /// Lane `j` computes, bit for bit, what
    /// [`LinkEvaluator::evaluate_at_distance`] computes for
    /// `(tx_power, ue, batch.bs_pos[j], batch.dist[j])` with interference
    /// `interference_factor × (total_rx_mw[j] − own_rx)⁺` — the
    /// load-proportional term of the candidate scan. Results are read
    /// back with [`LinkBatch::metrics`].
    pub fn evaluate_batch(
        &self,
        tx_power: Dbm,
        ue: Point,
        interference_factor: f64,
        batch: &mut LinkBatch,
    ) {
        let n = batch.dist.len();
        batch.att.clear();
        batch.att.resize(n, 0.0);
        batch.rx_dbm.clear();
        batch.rx_dbm.resize(n, 0.0);
        batch.rx_mw.clear();
        batch.rx_mw.resize(n, 0.0);
        batch.sinr.clear();
        batch.sinr.resize(n, 0.0);
        batch.rate.clear();
        batch.rate.resize(n, 0.0);

        // Pass 1: attenuation = path loss + shadowing. The scalar chain
        // computes `loss(d) + sample(ue, bs)` as one f64 addition; doing
        // the loss and the shadowing in two passes performs the identical
        // addition per lane.
        for j in 0..n {
            batch.att[j] = self.config.path_loss.loss(Meters::new(batch.dist[j])).get();
        }
        for j in 0..n {
            batch.att[j] += self.config.shadowing.sample(ue, batch.bs_pos[j]).get();
        }

        // Pass 2: received power in dBm (`Dbm::attenuate` is subtraction).
        let tx = tx_power.get();
        for j in 0..n {
            batch.rx_dbm[j] = tx - batch.att[j];
        }

        // Pass 3: dBm → linear milliwatts (`Dbm::to_milliwatts`).
        for j in 0..n {
            batch.rx_mw[j] = 10f64.powf(batch.rx_dbm[j] / 10.0);
        }

        // Pass 4: SINR. The own-received-power term of the interference
        // model equals this lane's rx_mw bit for bit (same inputs, same
        // chain), so the scalar path's separate `rx_power_mw` call
        // disappears. With a zero factor the scalar chain divides by
        // `noise + 0.0`, which is `noise` for the positive floor.
        if interference_factor > 0.0 {
            for j in 0..n {
                let interference =
                    interference_factor * (batch.total_rx_mw[j] - batch.rx_mw[j]).max(0.0);
                batch.sinr[j] = batch.rx_mw[j] / (self.noise_mw + interference);
            }
        } else {
            for j in 0..n {
                batch.sinr[j] = batch.rx_mw[j] / self.noise_mw;
            }
        }

        // Pass 5: per-RRB Shannon rate (Eq. (2)).
        let bw = self.config.rrb_bandwidth.get();
        for j in 0..n {
            batch.rate[j] = bw * (1.0 + batch.sinr[j]).log2();
        }
    }

    /// Received power of a transmitter at a BS, in linear milliwatts — the
    /// building block for aggregate interference terms.
    #[must_use]
    pub fn rx_power_mw(&self, tx_power: Dbm, ue: Point, bs: Point) -> f64 {
        let attenuation =
            self.config.path_loss.loss(ue.distance(bs)) + self.config.shadowing.sample(ue, bs);
        tx_power.attenuate(attenuation).to_milliwatts()
    }

    /// `n_{u,i} = ⌈w_u / e_{u,i}⌉` (Eq. (3)).
    ///
    /// Returns `None` when the link cannot carry data at all (`e ≤ 0`, which
    /// only happens for a degenerate zero-SINR link) or when the demand
    /// would need more RRBs than can be counted.
    #[must_use]
    pub fn rrbs_required(&self, demand: BitsPerSec, per_rrb_rate: BitsPerSec) -> Option<RrbCount> {
        if per_rrb_rate.get() <= 0.0 || !per_rrb_rate.is_finite() {
            return None;
        }
        if demand.get() <= 0.0 {
            return Some(RrbCount::ZERO);
        }
        let n = (demand.get() / per_rrb_rate.get()).ceil();
        if n > f64::from(u32::MAX) {
            return None;
        }
        Some(RrbCount::new(n as u32))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn eval() -> LinkEvaluator {
        LinkEvaluator::new(RadioConfig::paper_defaults())
    }

    const BS: Point = Point::new(0.0, 0.0);

    #[test]
    fn link_budget_at_300m_matches_hand_calc() {
        // PL(300 m) ≈ 121.51 dB; rx = 10 − 121.51 = −111.51 dBm;
        // noise = −170 dBm (paper literal) ⇒ SNR ≈ 58.49 dB;
        // e = 180 kHz · log2(1 + 10^5.849) ≈ 3.497 Mbit/s.
        let m = eval().evaluate(Dbm::new(10.0), Point::new(300.0, 0.0), BS);
        assert!((m.rx_power.get() - (-111.51)).abs() < 0.05, "{m:?}");
        assert!((m.sinr_db().get() - 58.49).abs() < 0.1, "{m:?}");
        assert!(
            (m.per_rrb_rate.get() - 3_497_000.0).abs() < 10_000.0,
            "{m:?}"
        );
    }

    #[test]
    fn psd_noise_reading_gives_much_lower_rates() {
        // The ablation reading: −170 dBm/Hz PSD ⇒ −117.45 dBm per RRB,
        // SNR ≈ 5.94 dB at 300 m, e ≈ 412 kbit/s.
        let mut cfg = RadioConfig::paper_defaults();
        cfg.noise = crate::NoiseModel::PsdDbmPerHz(-170.0);
        let m = LinkEvaluator::new(cfg).evaluate(Dbm::new(10.0), Point::new(300.0, 0.0), BS);
        assert!((m.sinr_db().get() - 5.94).abs() < 0.1, "{m:?}");
        assert!((m.per_rrb_rate.get() - 412_000.0).abs() < 5_000.0, "{m:?}");
    }

    #[test]
    fn farther_ue_needs_more_rrbs() {
        let e = eval();
        let demand = BitsPerSec::from_mbps(4.0);
        let mut prev = RrbCount::ZERO;
        for d in [100.0, 200.0, 400.0, 800.0, 1600.0] {
            let m = e.evaluate(Dbm::new(10.0), Point::new(d, 0.0), BS);
            let n = e.rrbs_required(demand, m.per_rrb_rate).unwrap();
            assert!(n >= prev, "RRB demand must not shrink with distance");
            prev = n;
        }
        assert!(prev.get() > 1);
    }

    #[test]
    fn paper_scale_rrb_demands_are_plausible() {
        // Sanity for the figures: at paper distances a 2–6 Mbit/s demand
        // costs 1–3 RRBs, so a 55-RRB BS serves a few dozen UEs and the
        // network saturates within the paper's 400–900 UE sweep.
        let e = eval();
        let m = e.evaluate(Dbm::new(10.0), Point::new(212.0, 212.0), BS); // 300 m
        let n_lo = e
            .rrbs_required(BitsPerSec::from_mbps(2.0), m.per_rrb_rate)
            .unwrap();
        let n_hi = e
            .rrbs_required(BitsPerSec::from_mbps(6.0), m.per_rrb_rate)
            .unwrap();
        assert_eq!(n_lo.get(), 1, "n_lo = {n_lo}");
        assert_eq!(n_hi.get(), 2, "n_hi = {n_hi}");
    }

    #[test]
    fn interference_reduces_rate() {
        let e = eval();
        let clean = e.evaluate(Dbm::new(10.0), Point::new(300.0, 0.0), BS);
        let noisy = e.evaluate_with_interference(
            Dbm::new(10.0),
            Point::new(300.0, 0.0),
            BS,
            e.config().noise_power_per_rrb_mw() * 3.0,
        );
        assert!(noisy.per_rrb_rate < clean.per_rrb_rate);
        assert!((clean.sinr_linear / noisy.sinr_linear - 4.0).abs() < 1e-9);
    }

    #[test]
    fn rrbs_required_edge_cases() {
        let e = eval();
        // Zero demand costs zero RRBs.
        assert_eq!(
            e.rrbs_required(BitsPerSec::new(0.0), BitsPerSec::new(1000.0)),
            Some(RrbCount::ZERO)
        );
        // Dead link carries nothing.
        assert_eq!(
            e.rrbs_required(BitsPerSec::from_mbps(1.0), BitsPerSec::new(0.0)),
            None
        );
        // Exact division does not over-allocate.
        assert_eq!(
            e.rrbs_required(BitsPerSec::new(1000.0), BitsPerSec::new(500.0)),
            Some(RrbCount::new(2))
        );
        // Any remainder rounds up.
        assert_eq!(
            e.rrbs_required(BitsPerSec::new(1001.0), BitsPerSec::new(500.0)),
            Some(RrbCount::new(3))
        );
    }

    #[test]
    fn rx_power_mw_consistent_with_evaluate() {
        let e = eval();
        let ue = Point::new(250.0, 100.0);
        let m = e.evaluate(Dbm::new(10.0), ue, BS);
        let mw = e.rx_power_mw(Dbm::new(10.0), ue, BS);
        assert!((m.rx_power.to_milliwatts() - mw).abs() < 1e-18);
    }

    proptest! {
        #[test]
        fn prop_rate_positive_and_monotone_in_distance(
            d1 in 1.0f64..3000.0,
            d2 in 1.0f64..3000.0,
        ) {
            let e = eval();
            let m1 = e.evaluate(Dbm::new(10.0), Point::new(d1, 0.0), BS);
            let m2 = e.evaluate(Dbm::new(10.0), Point::new(d2, 0.0), BS);
            prop_assert!(m1.per_rrb_rate.get() > 0.0);
            if d1 < d2 {
                prop_assert!(m1.per_rrb_rate >= m2.per_rrb_rate);
            }
        }

        #[test]
        fn prop_rrbs_cover_demand(
            demand_mbps in 0.1f64..20.0,
            rate_kbps in 10.0f64..2000.0,
        ) {
            let e = eval();
            let demand = BitsPerSec::from_mbps(demand_mbps);
            let rate = BitsPerSec::new(rate_kbps * 1e3);
            let n = e.rrbs_required(demand, rate).unwrap();
            // n RRBs must carry the demand; n−1 must not.
            prop_assert!(n.as_f64() * rate.get() >= demand.get() - 1e-6);
            if n.get() > 0 {
                prop_assert!((n.as_f64() - 1.0) * rate.get() < demand.get());
            }
        }
    }

    // ---- batched kernel ------------------------------------------------

    /// Builds the evaluator variant `model_sel`/`shadowed` selects, so the
    /// property tests sweep every path-loss model with and without
    /// shadowing.
    fn eval_variant(model_sel: u8, shadowed: bool) -> LinkEvaluator {
        let mut cfg = RadioConfig::paper_defaults();
        cfg.path_loss = match model_sel % 3 {
            0 => crate::PathLossModel::Icdcs2019,
            1 => crate::PathLossModel::LogDistance {
                ref_loss: Db::new(60.0),
                ref_distance: Meters::new(10.0),
                exponent: 3.2,
            },
            _ => crate::PathLossModel::FreeSpace {
                frequency: dmra_types::Hertz::from_mhz(2000.0),
            },
        };
        if shadowed {
            cfg.shadowing = crate::Shadowing::LogNormal {
                std_dev: Db::new(8.0),
                seed: 7,
            };
        }
        LinkEvaluator::new(cfg)
    }

    /// Pushes the candidate lanes and returns, per lane, the interference
    /// power the *scalar* chain would hand `evaluate_at_distance` — the
    /// load-proportional model of the candidate scan.
    fn fill_batch(
        e: &LinkEvaluator,
        tx: Dbm,
        ue: Point,
        candidates: &[(Point, f64)],
        factor: f64,
        batch: &mut LinkBatch,
    ) -> Vec<f64> {
        batch.clear();
        let mut scalar_interference = Vec::with_capacity(candidates.len());
        for (j, &(bs, total_mult)) in candidates.iter().enumerate() {
            let own_rx = e.rx_power_mw(tx, ue, bs);
            let total_rx = own_rx * total_mult;
            batch.push(j as u32, bs, ue.distance(bs), total_rx);
            scalar_interference.push(if factor > 0.0 {
                factor * (total_rx - own_rx).max(0.0)
            } else {
                0.0
            });
        }
        scalar_interference
    }

    #[test]
    fn batch_on_empty_slice_is_a_noop() {
        let e = eval();
        let mut batch = LinkBatch::new();
        e.evaluate_batch(Dbm::new(10.0), Point::new(5.0, 5.0), 0.0, &mut batch);
        assert!(batch.is_empty());
        assert_eq!(batch.len(), 0);
    }

    #[test]
    fn batch_exact_matches_scalar_below_min_distance_clamp() {
        // The d→0 clamp: lanes closer than MIN_DISTANCE_M evaluate at the
        // 1 m floor in both chains, bit for bit.
        let ue = Point::new(100.0, 100.0);
        let tx = Dbm::new(10.0);
        for shadowed in [false, true] {
            for model in 0..3u8 {
                let e = eval_variant(model, shadowed);
                let candidates: Vec<(Point, f64)> = [0.0, 0.1, 0.5, 0.999, 1.0, 1.5]
                    .iter()
                    .map(|&dx| (Point::new(100.0 + dx, 100.0), 1.0))
                    .collect();
                let mut batch = LinkBatch::new();
                let interference = fill_batch(&e, tx, ue, &candidates, 0.0, &mut batch);
                e.evaluate_batch(tx, ue, 0.0, &mut batch);
                for (j, &(bs, _)) in candidates.iter().enumerate() {
                    let scalar =
                        e.evaluate_at_distance(tx, ue, bs, ue.distance(bs), interference[j]);
                    assert_eq!(batch.metrics(j), scalar, "lane {j}");
                }
            }
        }
    }

    proptest! {
        /// Every lane of the batched kernel is **bit-identical** to the scalar
        /// `evaluate_at_distance` chain — across path-loss models,
        /// shadowing on/off, and zero/positive interference factors.
        #[test]
        fn prop_batch_exact_is_bit_identical_to_scalar(
            offsets in prop::collection::vec((-1500.0f64..1500.0, -1500.0f64..1500.0), 1..40),
            ue_x in 0.0f64..3000.0,
            ue_y in 0.0f64..3000.0,
            model_sel in 0u8..3,
            shadowed in prop::bool::ANY,
            with_interference in prop::bool::ANY,
            factor in 0.01f64..1.0,
            total_mult in 1.0f64..50.0,
        ) {
            let e = eval_variant(model_sel, shadowed);
            let tx = Dbm::new(10.0);
            let ue = Point::new(ue_x, ue_y);
            let factor = if with_interference { factor } else { 0.0 };
            let candidates: Vec<(Point, f64)> = offsets
                .iter()
                .map(|&(dx, dy)| (Point::new(ue_x + dx, ue_y + dy), total_mult))
                .collect();
            let mut batch = LinkBatch::new();
            let interference = fill_batch(&e, tx, ue, &candidates, factor, &mut batch);
            e.evaluate_batch(tx, ue, factor, &mut batch);
            prop_assert_eq!(batch.len(), candidates.len());
            for (j, &(bs, _)) in candidates.iter().enumerate() {
                let scalar = e.evaluate_at_distance(tx, ue, bs, ue.distance(bs), interference[j]);
                let batched = batch.metrics(j);
                // Bitwise, not approximate: `LinkMetrics` equality is f64
                // equality in every field, and the fields must match to
                // the last bit for the cached/batched paths to be
                // indistinguishable from the scalar build.
                prop_assert_eq!(batched, scalar, "lane {}", j);
                prop_assert_eq!(batch.tag(j), j as u32);
            }
        }
    }
}
