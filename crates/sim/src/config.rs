//! The scenario described in Section VI-A, as a configurable builder.

use dmra_core::{CoverageModel, ProblemInstance};
use dmra_econ::PricingConfig;
use dmra_geo::rng::component_rng;
use dmra_geo::{placement, SpAssignment};
use dmra_radio::RadioConfig;
use dmra_types::{
    BitsPerSec, BsId, BsSpec, Cru, Dbm, Error, Hertz, Meters, Money, Point, Rect, Result,
    ServiceCatalog, ServiceId, SpId, SpSpec, UeId, UeSpec,
};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// How the BS sites are laid out — the paper's two placement methods.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum BsPlacement {
    /// `rows × cols` grid with the given inter-site distance, centered in
    /// the region (paper: 5 × 5, 300 m).
    RegularGrid {
        /// Grid rows.
        rows: u32,
        /// Grid columns.
        cols: u32,
        /// Inter-site distance.
        isd: Meters,
    },
    /// Uniformly random sites inside the region (paper: 1200 m × 1200 m).
    UniformRandom,
    /// `rows × cols` hexagonal lattice — the classical cellular layout,
    /// an extension beyond the paper's two placements.
    HexGrid {
        /// Lattice rows.
        rows: u32,
        /// Lattice columns.
        cols: u32,
        /// Inter-site distance.
        isd: Meters,
    },
}

impl Default for BsPlacement {
    fn default() -> Self {
        BsPlacement::RegularGrid {
            rows: 5,
            cols: 5,
            isd: Meters::new(300.0),
        }
    }
}

/// Overrides the generated (uniform) spec of one SP — used to model
/// asymmetric markets (premium vs budget operators).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SpOverride {
    /// Index of the SP to override (must be `< n_sps`).
    pub sp: u32,
    /// Replacement `m_k`.
    pub cru_price: Money,
    /// Replacement `m_k^o`.
    pub other_cost: Money,
}

/// How UEs pick their requested service.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub enum ServicePopularity {
    /// Every service equally likely (the paper's setting).
    #[default]
    Uniform,
    /// Zipf-distributed popularity with the given exponent: service 0 is
    /// the most requested. Models the skewed demand ("diversity of
    /// services requested by UE") the paper's contribution list calls out.
    Zipf {
        /// Zipf exponent `s` (0 = uniform, 1 = classic web-like skew).
        exponent: f64,
    },
}

impl ServicePopularity {
    /// Builds the reusable sampler for this distribution: the Zipf weight
    /// table depends only on `(n_services, exponent)`, so it is computed
    /// once per scenario build instead of once per UE draw. Each
    /// [`ServiceSampler::draw`] consumes exactly one RNG value, matching
    /// the naive per-draw implementation stream-for-stream.
    fn sampler(self, n_services: u32) -> ServiceSampler {
        match self {
            ServicePopularity::Uniform => ServiceSampler::Uniform { n: n_services },
            ServicePopularity::Zipf { exponent } => {
                let weights: Vec<f64> = (1..=n_services)
                    .map(|r| 1.0 / f64::from(r).powf(exponent))
                    .collect();
                let total: f64 = weights.iter().sum();
                ServiceSampler::Weighted { weights, total }
            }
        }
    }
}

/// Precomputed service-popularity sampler (see
/// [`ServicePopularity::sampler`]).
#[derive(Debug, Clone)]
enum ServiceSampler {
    Uniform { n: u32 },
    Weighted { weights: Vec<f64>, total: f64 },
}

impl ServiceSampler {
    /// Draws a service index from `0..n_services`.
    fn draw<R: Rng>(&self, rng: &mut R) -> u32 {
        match self {
            ServiceSampler::Uniform { n } => rng.random_range(0..*n),
            ServiceSampler::Weighted { weights, total } => {
                // Inverse-CDF over the (small) finite support.
                let mut draw = rng.random_range(0.0..*total);
                for (idx, w) in weights.iter().enumerate() {
                    if draw < *w {
                        return idx as u32;
                    }
                    draw -= w;
                }
                weights.len() as u32 - 1
            }
        }
    }
}

/// How UEs are scattered.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub enum UePlacement {
    /// Uniformly random in the region (the paper's setting).
    #[default]
    Uniform,
    /// A hotspot mixture: `fraction` of UEs cluster (std-dev `spread`)
    /// around `n_hotspots` random centers — the "popular areas" of the
    /// introduction.
    Hotspots {
        /// Number of hotspot centers.
        n_hotspots: u32,
        /// Gaussian spread around each center.
        spread: Meters,
        /// Fraction of UEs drawn from hotspots rather than uniformly.
        fraction: f64,
    },
}

/// Full description of one simulated scenario.
///
/// Start from [`ScenarioConfig::paper_defaults`] and override with the
/// `with_*` methods; [`build`](ScenarioConfig::build) draws the concrete
/// entities deterministically from [`seed`](ScenarioConfig::seed).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioConfig {
    /// Number of SPs (paper: 5).
    pub n_sps: u32,
    /// BSs deployed per SP (paper: 5).
    pub bss_per_sp: u32,
    /// Size of the service catalog (paper: 6).
    pub n_services: u32,
    /// How many services each BS hosts (`|S_i|`): `None` hosts the full
    /// catalog (the paper's evaluation setting); `Some(k)` draws a random
    /// `k`-subset per BS, exercising the `z_{i,j}` hosting constraint
    /// (13) the system model defines.
    pub services_per_bs: Option<u32>,
    /// Number of UEs with offloading tasks (paper: 400–1000).
    pub n_ues: usize,
    /// The deployment region (paper: 1200 m × 1200 m).
    pub region: Rect,
    /// BS site layout.
    pub bs_placement: BsPlacement,
    /// How sites are divided among SPs.
    pub sp_assignment: SpAssignment,
    /// UE scattering.
    pub ue_placement: UePlacement,
    /// Service request popularity (paper: uniform).
    pub service_popularity: ServicePopularity,
    /// Per-service CRU budget range `c_{i,j}` (paper: 100–150).
    pub cru_budget_range: (u32, u32),
    /// Per-task CRU demand range `c_j^u` (paper: 3–5).
    pub cru_demand_range: (u32, u32),
    /// Required data-rate range `w_u` in Mbit/s (paper: 2–6).
    pub rate_demand_mbps: (f64, f64),
    /// Uplink bandwidth per BS `W_i` (paper: 10 MHz).
    pub uplink_bandwidth: Hertz,
    /// UE transmit power (paper: 10 dBm).
    pub ue_tx_power: Dbm,
    /// `m_k`: per-CRU price every SP charges subscribers (see DESIGN.md §2
    /// — the paper leaves it symbolic).
    pub sp_cru_price: Money,
    /// `m_k^o`: per-CRU overhead cost of every SP.
    pub sp_other_cost: Money,
    /// Per-SP deviations from the uniform `m_k`/`m_k^o` (asymmetric
    /// markets). Every override must still satisfy constraint (16); the
    /// instance builder rejects it otherwise.
    pub sp_overrides: Vec<SpOverride>,
    /// BS pricing rule (Eqs. (9)–(10); `ι` lives here).
    pub pricing: PricingConfig,
    /// Radio model (Eq. (18), noise, RRB bandwidth).
    pub radio: RadioConfig,
    /// Coverage predicate.
    pub coverage: CoverageModel,
    /// Master seed; every random component derives an independent stream.
    pub seed: u64,
}

impl ScenarioConfig {
    /// The paper's Section VI-A configuration.
    #[must_use]
    pub fn paper_defaults() -> Self {
        Self {
            n_sps: 5,
            bss_per_sp: 5,
            n_services: 6,
            services_per_bs: None,
            n_ues: 500,
            region: Rect::default(),
            bs_placement: BsPlacement::default(),
            sp_assignment: SpAssignment::RoundRobin,
            ue_placement: UePlacement::Uniform,
            service_popularity: ServicePopularity::Uniform,
            cru_budget_range: (100, 150),
            cru_demand_range: (3, 5),
            rate_demand_mbps: (2.0, 6.0),
            uplink_bandwidth: Hertz::from_mhz(10.0),
            ue_tx_power: Dbm::new(10.0),
            sp_cru_price: Money::new(9.0),
            sp_other_cost: Money::new(1.0),
            sp_overrides: Vec::new(),
            pricing: PricingConfig::paper_defaults(),
            radio: RadioConfig::paper_defaults(),
            coverage: CoverageModel::default(),
            seed: 0,
        }
    }

    /// Sets the number of UEs.
    #[must_use]
    pub fn with_ues(mut self, n_ues: usize) -> Self {
        self.n_ues = n_ues;
        self
    }

    /// Sets the master seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the cross-SP price markup `ι` (the knob Figs. 2–5 vary).
    #[must_use]
    pub fn with_iota(mut self, iota: f64) -> Self {
        self.pricing.cross_sp_markup = iota;
        self
    }

    /// Switches to random BS placement (Figs. 3 and 5).
    #[must_use]
    pub fn with_random_placement(mut self) -> Self {
        self.bs_placement = BsPlacement::UniformRandom;
        self
    }

    /// Sets the BS placement explicitly.
    #[must_use]
    pub fn with_bs_placement(mut self, placement: BsPlacement) -> Self {
        self.bs_placement = placement;
        self
    }

    /// Sets the UE placement model.
    #[must_use]
    pub fn with_ue_placement(mut self, placement: UePlacement) -> Self {
        self.ue_placement = placement;
        self
    }

    /// Adds a per-SP pricing override.
    #[must_use]
    pub fn with_sp_override(mut self, sp_override: SpOverride) -> Self {
        self.sp_overrides.push(sp_override);
        self
    }

    /// Sets the service-popularity distribution.
    #[must_use]
    pub fn with_service_popularity(mut self, popularity: ServicePopularity) -> Self {
        self.service_popularity = popularity;
        self
    }

    /// Restricts each BS to hosting a random `k`-subset of the catalog
    /// (`S_i ⊆ S` in the paper's system model).
    #[must_use]
    pub fn with_services_per_bs(mut self, k: u32) -> Self {
        self.services_per_bs = Some(k);
        self
    }

    /// Total number of BSs (`n_sps × bss_per_sp`).
    #[must_use]
    pub fn n_bss(&self) -> u32 {
        self.n_sps * self.bss_per_sp
    }

    /// Checks the structural validity of the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] naming the offending field.
    pub fn validate(&self) -> Result<()> {
        if self.n_sps == 0 {
            return Err(Error::InvalidConfig("n_sps must be positive".into()));
        }
        if self.bss_per_sp == 0 {
            return Err(Error::InvalidConfig("bss_per_sp must be positive".into()));
        }
        if self.n_services == 0 {
            return Err(Error::InvalidConfig("n_services must be positive".into()));
        }
        if let BsPlacement::RegularGrid { rows, cols, .. }
        | BsPlacement::HexGrid { rows, cols, .. } = self.bs_placement
        {
            if rows * cols != self.n_bss() {
                return Err(Error::InvalidConfig(format!(
                    "grid {rows}×{cols} has {} sites but n_sps×bss_per_sp = {}",
                    rows * cols,
                    self.n_bss()
                )));
            }
        }
        if let Some(k) = self.services_per_bs {
            if k == 0 || k > self.n_services {
                return Err(Error::InvalidConfig(format!(
                    "services_per_bs ({k}) must be in 1..={}",
                    self.n_services
                )));
            }
        }
        let (lo, hi) = self.cru_budget_range;
        if lo > hi || lo == 0 {
            return Err(Error::InvalidConfig(format!(
                "cru_budget_range ({lo}, {hi}) must be a non-empty positive range"
            )));
        }
        let (lo, hi) = self.cru_demand_range;
        if lo > hi || lo == 0 {
            return Err(Error::InvalidConfig(format!(
                "cru_demand_range ({lo}, {hi}) must be a non-empty positive range"
            )));
        }
        let (lo, hi) = self.rate_demand_mbps;
        if !(0.0 < lo && lo <= hi) {
            return Err(Error::InvalidConfig(format!(
                "rate_demand_mbps ({lo}, {hi}) must be a non-empty positive range"
            )));
        }
        if let UePlacement::Hotspots {
            n_hotspots,
            spread,
            fraction,
        } = self.ue_placement
        {
            if n_hotspots == 0 {
                return Err(Error::InvalidConfig(
                    "hotspot placement needs at least one hotspot".into(),
                ));
            }
            if !spread.get().is_finite() || spread.get() < 0.0 {
                return Err(Error::InvalidConfig(format!(
                    "hotspot spread ({spread}) must be finite and non-negative"
                )));
            }
            if !fraction.is_finite() || !(0.0..=1.0).contains(&fraction) {
                return Err(Error::InvalidConfig(format!(
                    "hotspot fraction ({fraction}) must be within [0, 1]"
                )));
            }
        }
        if let ServicePopularity::Zipf { exponent } = self.service_popularity {
            if !exponent.is_finite() || exponent < 0.0 {
                return Err(Error::InvalidConfig(format!(
                    "zipf exponent ({exponent}) must be finite and non-negative"
                )));
            }
        }
        self.pricing.validate()?;
        Ok(())
    }

    /// Draws the concrete scenario and builds the validated instance.
    ///
    /// Deterministic in [`seed`](ScenarioConfig::seed): placement, budgets
    /// and workloads use independent derived streams, so e.g. changing
    /// `n_ues` does not reshuffle the BS layout.
    ///
    /// # Errors
    ///
    /// Propagates [`Self::validate`] and
    /// [`dmra_core::ProblemInstance::build`] errors.
    pub fn build(&self) -> Result<ProblemInstance> {
        self.validate()?;
        let (sps, bss) = self.draw_deployment()?;
        ProblemInstance::build(
            sps,
            bss,
            self.draw_ues(),
            ServiceCatalog::new(self.n_services),
            self.pricing,
            self.radio,
            self.coverage,
        )
    }

    /// Draws the SPs (with their overrides) and the BSs: sites from the
    /// `bs-placement` stream, owners from `sp-assignment`, hosted services
    /// and budgets from `bs-budgets`.
    fn draw_deployment(&self) -> Result<(Vec<SpSpec>, Vec<BsSpec>)> {
        let mut sps: Vec<SpSpec> = (0..self.n_sps)
            .map(|k| SpSpec::new(SpId::new(k), self.sp_cru_price, self.sp_other_cost))
            .collect();
        for o in &self.sp_overrides {
            let Some(spec) = sps.get_mut(o.sp as usize) else {
                return Err(Error::UnknownSp(SpId::new(o.sp)));
            };
            spec.cru_price = o.cru_price;
            spec.other_cost = o.other_cost;
        }

        // BS sites and ownership.
        let n_bss = self.n_bss() as usize;
        let mut placement_rng = component_rng(self.seed, "bs-placement");
        let sites: Vec<Point> = match self.bs_placement {
            BsPlacement::RegularGrid { rows, cols, isd } => {
                placement::regular_grid(rows, cols, isd, self.region)
            }
            BsPlacement::UniformRandom => {
                placement::uniform_random(n_bss, self.region, &mut placement_rng)
            }
            BsPlacement::HexGrid { rows, cols, isd } => {
                placement::hex_grid(rows, cols, isd, self.region)
            }
        };
        let mut assign_rng = component_rng(self.seed, "sp-assignment");
        let owners = self
            .sp_assignment
            .assign(n_bss, self.n_sps, &mut assign_rng);

        let mut budget_rng = component_rng(self.seed, "bs-budgets");
        let (blo, bhi) = self.cru_budget_range;
        let rrb_budget = self.radio.max_rrbs(self.uplink_bandwidth);
        let bss: Vec<BsSpec> = sites
            .iter()
            .zip(&owners)
            .enumerate()
            .map(|(i, (&pos, &sp))| {
                // z_{i,j}: hosted services get a budget draw, others zero.
                let hosted: Vec<bool> = match self.services_per_bs {
                    None => vec![true; self.n_services as usize],
                    Some(k) => {
                        let mut mask = vec![false; self.n_services as usize];
                        // Partial Fisher–Yates over service indices.
                        let mut idx: Vec<usize> = (0..self.n_services as usize).collect();
                        for slot in 0..k as usize {
                            let j = budget_rng.random_range(slot..idx.len());
                            idx.swap(slot, j);
                            mask[idx[slot]] = true;
                        }
                        mask
                    }
                };
                let budgets: Vec<Cru> = hosted
                    .iter()
                    .map(|&h| {
                        if h {
                            Cru::new(budget_rng.random_range(blo..=bhi))
                        } else {
                            Cru::ZERO
                        }
                    })
                    .collect();
                BsSpec::new(
                    BsId::new(i as u32),
                    sp,
                    pos,
                    budgets,
                    self.uplink_bandwidth,
                    rrb_budget,
                )
            })
            .collect();
        Ok((sps, bss))
    }

    /// Draws the `n_ues` UEs: positions from the `ue-placement` stream,
    /// SP, service and demands from `ue-workload`. Both streams are
    /// independent of the deployment's, so a simulator can build its
    /// deployment with zero UEs and take the population from here.
    /// Assumes a configuration that passed [`Self::validate`].
    pub(crate) fn draw_ues(&self) -> Vec<UeSpec> {
        let mut ue_pos_rng = component_rng(self.seed, "ue-placement");
        let positions: Vec<Point> = match self.ue_placement {
            UePlacement::Uniform => {
                placement::uniform_random(self.n_ues, self.region, &mut ue_pos_rng)
            }
            UePlacement::Hotspots {
                n_hotspots,
                spread,
                fraction,
            } => {
                let centers =
                    placement::uniform_random(n_hotspots as usize, self.region, &mut ue_pos_rng);
                placement::hotspot_mixture(
                    self.n_ues,
                    self.region,
                    &centers,
                    spread,
                    fraction,
                    &mut ue_pos_rng,
                )
            }
        };
        let mut workload_rng = component_rng(self.seed, "ue-workload");
        let (dlo, dhi) = self.cru_demand_range;
        let (rlo, rhi) = self.rate_demand_mbps;
        let service_sampler = self.service_popularity.sampler(self.n_services);
        positions
            .into_iter()
            .enumerate()
            .map(|(u, pos)| {
                UeSpec::new(
                    UeId::new(u as u32),
                    SpId::new(workload_rng.random_range(0..self.n_sps)),
                    pos,
                    ServiceId::new(service_sampler.draw(&mut workload_rng)),
                    Cru::new(workload_rng.random_range(dlo..=dhi)),
                    BitsPerSec::from_mbps(workload_rng.random_range(rlo..=rhi)),
                    self.ue_tx_power,
                )
            })
            .collect()
    }
}

impl Default for ScenarioConfig {
    fn default() -> Self {
        Self::paper_defaults()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults_build() {
        let inst = ScenarioConfig::paper_defaults()
            .with_ues(100)
            .build()
            .unwrap();
        assert_eq!(inst.n_sps(), 5);
        assert_eq!(inst.n_bss(), 25);
        assert_eq!(inst.n_ues(), 100);
        assert_eq!(inst.catalog().len(), 6);
        // 10 MHz / 180 kHz = 55 RRBs.
        assert_eq!(inst.bss()[0].rrb_budget.get(), 55);
    }

    #[test]
    fn build_is_deterministic_in_seed() {
        let cfg = ScenarioConfig::paper_defaults().with_ues(50).with_seed(9);
        let a = cfg.build().unwrap();
        let b = cfg.build().unwrap();
        assert_eq!(a.ues(), b.ues());
        assert_eq!(a.bss(), b.bss());
    }

    #[test]
    fn zero_ue_build_plus_drawn_ues_is_the_full_build() {
        // The simulators build their deployment without UEs and take the
        // population from `draw_ues`; together they must be exactly the
        // scenario `build` draws, whatever the placements.
        let hotspots = UePlacement::Hotspots {
            n_hotspots: 3,
            spread: Meters::new(80.0),
            fraction: 0.7,
        };
        let cases = [
            ScenarioConfig::paper_defaults().with_ues(120).with_seed(4),
            ScenarioConfig::paper_defaults()
                .with_ues(90)
                .with_seed(5)
                .with_ue_placement(hotspots),
            ScenarioConfig::paper_defaults()
                .with_ues(80)
                .with_seed(6)
                .with_random_placement()
                .with_services_per_bs(3),
        ];
        for cfg in cases {
            let full = cfg.build().unwrap();
            let deployment = cfg.clone().with_ues(0).build().unwrap();
            assert_eq!(deployment.n_ues(), 0);
            assert_eq!(deployment.sps(), full.sps(), "{cfg:?}");
            assert_eq!(deployment.bss(), full.bss(), "{cfg:?}");
            assert_eq!(cfg.draw_ues(), full.ues(), "{cfg:?}");
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = ScenarioConfig::paper_defaults()
            .with_ues(50)
            .with_seed(1)
            .build()
            .unwrap();
        let b = ScenarioConfig::paper_defaults()
            .with_ues(50)
            .with_seed(2)
            .build()
            .unwrap();
        assert_ne!(a.ues(), b.ues());
    }

    #[test]
    fn changing_ue_count_keeps_bs_layout() {
        let a = ScenarioConfig::paper_defaults()
            .with_ues(10)
            .with_seed(3)
            .build()
            .unwrap();
        let b = ScenarioConfig::paper_defaults()
            .with_ues(200)
            .with_seed(3)
            .build()
            .unwrap();
        assert_eq!(a.bss(), b.bss());
    }

    #[test]
    fn random_placement_stays_in_region() {
        let inst = ScenarioConfig::paper_defaults()
            .with_random_placement()
            .with_ues(20)
            .build()
            .unwrap();
        for bs in inst.bss() {
            assert!(!inst.ues().is_empty());
            assert!(Rect::default().contains(bs.position), "{:?}", bs.position);
        }
    }

    #[test]
    fn grid_mismatch_is_rejected() {
        let cfg = ScenarioConfig {
            bss_per_sp: 4, // 20 BSs ≠ 5×5 grid
            ..ScenarioConfig::paper_defaults()
        };
        assert!(matches!(cfg.build(), Err(Error::InvalidConfig(_))));
    }

    #[test]
    fn degenerate_ranges_are_rejected() {
        let mut cfg = ScenarioConfig::paper_defaults();
        cfg.cru_demand_range = (5, 3);
        assert!(cfg.validate().is_err());
        let mut cfg = ScenarioConfig::paper_defaults();
        cfg.rate_demand_mbps = (0.0, 6.0);
        assert!(cfg.validate().is_err());
        let mut cfg = ScenarioConfig::paper_defaults();
        cfg.n_services = 0;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn invalid_hotspot_parameters_are_rejected() {
        let base = ScenarioConfig::paper_defaults().with_ues(10);
        let cases = [
            (
                UePlacement::Hotspots {
                    n_hotspots: 0,
                    spread: Meters::new(80.0),
                    fraction: 0.5,
                },
                "hotspot",
            ),
            (
                UePlacement::Hotspots {
                    n_hotspots: 3,
                    spread: Meters::new(-1.0),
                    fraction: 0.5,
                },
                "spread",
            ),
            (
                UePlacement::Hotspots {
                    n_hotspots: 3,
                    spread: Meters::new(f64::NAN),
                    fraction: 0.5,
                },
                "spread",
            ),
            (
                UePlacement::Hotspots {
                    n_hotspots: 3,
                    spread: Meters::new(80.0),
                    fraction: 1.5,
                },
                "fraction",
            ),
            (
                UePlacement::Hotspots {
                    n_hotspots: 3,
                    spread: Meters::new(80.0),
                    fraction: f64::NAN,
                },
                "fraction",
            ),
        ];
        for (placement, needle) in cases {
            let err = base
                .clone()
                .with_ue_placement(placement)
                .build()
                .unwrap_err();
            assert!(
                err.to_string().contains(needle),
                "{placement:?}: error {err} does not mention {needle}"
            );
        }
        // Boundary values are legal: fraction 0 and 1, zero spread.
        for fraction in [0.0, 1.0] {
            base.clone()
                .with_ue_placement(UePlacement::Hotspots {
                    n_hotspots: 2,
                    spread: Meters::new(0.0),
                    fraction,
                })
                .build()
                .unwrap();
        }
    }

    #[test]
    fn invalid_zipf_exponent_is_rejected() {
        let base = ScenarioConfig::paper_defaults().with_ues(10);
        for exponent in [f64::NAN, f64::INFINITY, -0.5] {
            let err = base
                .clone()
                .with_service_popularity(ServicePopularity::Zipf { exponent })
                .build()
                .unwrap_err();
            assert!(
                err.to_string().contains("zipf"),
                "exponent {exponent}: error {err} does not mention zipf"
            );
        }
    }

    #[test]
    fn hotspot_placement_builds() {
        let inst = ScenarioConfig::paper_defaults()
            .with_ues(100)
            .with_ue_placement(UePlacement::Hotspots {
                n_hotspots: 3,
                spread: Meters::new(80.0),
                fraction: 0.8,
            })
            .build()
            .unwrap();
        assert_eq!(inst.n_ues(), 100);
    }

    #[test]
    fn partial_service_hosting_zeroes_budgets() {
        let inst = ScenarioConfig::paper_defaults()
            .with_ues(10)
            .with_services_per_bs(2)
            .build()
            .unwrap();
        for bs in inst.bss() {
            let hosted = bs.hosted_services().count();
            assert_eq!(hosted, 2, "{} hosts {hosted} services", bs.id);
        }
        // UEs of an unhosted service must not see that BS as a candidate.
        for ue in inst.ues() {
            for link in inst.candidates(ue.id) {
                assert!(inst.bss()[link.bs.as_usize()].hosts(ue.service));
            }
        }
    }

    #[test]
    fn services_per_bs_zero_or_excess_is_rejected() {
        let cfg = ScenarioConfig::paper_defaults().with_services_per_bs(0);
        assert!(cfg.validate().is_err());
        let cfg = ScenarioConfig::paper_defaults().with_services_per_bs(7);
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn serde_roundtrip_of_scenario_config() {
        // ScenarioConfig is the persistence surface for experiment
        // definitions; assert the serde derives stay intact.
        let cfg = ScenarioConfig::paper_defaults()
            .with_ues(123)
            .with_iota(1.1)
            .with_services_per_bs(3)
            .with_random_placement();
        // No JSON crate in the dependency set, so round-trip through the
        // self-describing `serde_test`-style token check is unavailable;
        // instead assert Clone/PartialEq coherence (the derives the sweep
        // machinery relies on).
        let copy = cfg.clone();
        assert_eq!(cfg, copy);
    }

    #[test]
    fn hex_placement_builds_and_validates_grid_size() {
        let mut cfg = ScenarioConfig::paper_defaults().with_ues(50);
        cfg.bs_placement = BsPlacement::HexGrid {
            rows: 5,
            cols: 5,
            isd: Meters::new(300.0),
        };
        let inst = cfg.build().unwrap();
        assert_eq!(inst.n_bss(), 25);
        let mut bad = ScenarioConfig::paper_defaults();
        bad.bs_placement = BsPlacement::HexGrid {
            rows: 4,
            cols: 5,
            isd: Meters::new(300.0),
        };
        assert!(bad.validate().is_err());
    }

    #[test]
    fn zipf_popularity_skews_requests() {
        let inst = ScenarioConfig::paper_defaults()
            .with_ues(3000)
            .with_service_popularity(ServicePopularity::Zipf { exponent: 1.2 })
            .build()
            .unwrap();
        let mut counts = [0usize; 6];
        for ue in inst.ues() {
            counts[ue.service.as_usize()] += 1;
        }
        // Service 0 clearly dominates service 5 under s = 1.2.
        assert!(counts[0] > 3 * counts[5], "counts not skewed: {counts:?}");
        // Zipf weights are monotone; allow sampling noise on neighbours
        // but require the broad ordering head > mid > tail.
        assert!(counts[0] > counts[2] && counts[2] > counts[5]);
    }

    #[test]
    fn zipf_exponent_zero_is_distributionally_uniform() {
        // Exponent 0 gives equal weights; the draw path differs from the
        // Uniform variant (different RNG calls), so compare frequencies,
        // not streams.
        let inst = ScenarioConfig::paper_defaults()
            .with_ues(6000)
            .with_service_popularity(ServicePopularity::Zipf { exponent: 0.0 })
            .build()
            .unwrap();
        let mut counts = [0usize; 6];
        for ue in inst.ues() {
            counts[ue.service.as_usize()] += 1;
        }
        // Expected 1000 per service; 4 sigma is about 115.
        for (svc, &c) in counts.iter().enumerate() {
            assert!(
                (880..=1120).contains(&c),
                "service {svc} drawn {c} times, expected about 1000"
            );
        }
    }

    #[test]
    fn hoisted_service_sampler_preserves_the_draw_stream() {
        // The precomputed sampler must consume exactly one RNG value per
        // draw and return the same service as the naive implementation
        // that rebuilds the Zipf weight table on every call — otherwise
        // hoisting it out of the UE loop would silently reseed every
        // workload downstream of a scenario build.
        use dmra_geo::rng::component_rng;
        use rand::rngs::StdRng;
        let naive_draw = |n_services: u32, exponent: f64, rng: &mut StdRng| -> u32 {
            let weights: Vec<f64> = (1..=n_services)
                .map(|r| 1.0 / f64::from(r).powf(exponent))
                .collect();
            let total: f64 = weights.iter().sum();
            let mut draw = rng.random_range(0.0..total);
            for (idx, w) in weights.iter().enumerate() {
                if draw < *w {
                    return idx as u32;
                }
                draw -= w;
            }
            n_services - 1
        };
        for popularity in [
            ServicePopularity::Uniform,
            ServicePopularity::Zipf { exponent: 0.0 },
            ServicePopularity::Zipf { exponent: 0.9 },
            ServicePopularity::Zipf { exponent: 2.5 },
        ] {
            let sampler = popularity.sampler(6);
            let mut rng_a = component_rng(11, "ue-workload");
            let mut rng_b = component_rng(11, "ue-workload");
            for i in 0..500 {
                let fast = sampler.draw(&mut rng_a);
                let slow = match popularity {
                    ServicePopularity::Uniform => rng_b.random_range(0..6),
                    ServicePopularity::Zipf { exponent } => naive_draw(6, exponent, &mut rng_b),
                };
                assert_eq!(fast, slow, "draw {i} diverged under {popularity:?}");
            }
        }
    }

    #[test]
    fn sp_overrides_apply_and_validate() {
        let inst = ScenarioConfig::paper_defaults()
            .with_ues(20)
            .with_sp_override(SpOverride {
                sp: 2,
                cru_price: Money::new(9.5),
                other_cost: Money::new(0.5),
            })
            .build()
            .unwrap();
        assert!((inst.sps()[2].cru_price.get() - 9.5).abs() < 1e-12);
        assert!((inst.sps()[0].cru_price.get() - 9.0).abs() < 1e-12);
        // Dangling SP index is rejected.
        let err = ScenarioConfig::paper_defaults()
            .with_sp_override(SpOverride {
                sp: 99,
                cru_price: Money::new(9.0),
                other_cost: Money::new(1.0),
            })
            .build()
            .unwrap_err();
        assert!(matches!(err, Error::UnknownSp(_)));
        // An override violating constraint (16) is rejected by the
        // instance builder.
        let err = ScenarioConfig::paper_defaults()
            .with_ues(20)
            .with_sp_override(SpOverride {
                sp: 0,
                cru_price: Money::new(4.0),
                other_cost: Money::new(1.0),
            })
            .build()
            .unwrap_err();
        assert!(matches!(err, Error::UnprofitablePricing { .. }));
    }

    #[test]
    fn each_sp_owns_equal_bss() {
        let inst = ScenarioConfig::paper_defaults()
            .with_ues(10)
            .build()
            .unwrap();
        for k in 0..5u32 {
            let owned = inst.bss().iter().filter(|b| b.sp.index() == k).count();
            assert_eq!(owned, 5);
        }
    }

    #[test]
    fn with_iota_updates_pricing() {
        let cfg = ScenarioConfig::paper_defaults().with_iota(1.1);
        assert!((cfg.pricing.cross_sp_markup - 1.1).abs() < 1e-12);
    }
}
