//! Traced-run layer replay: each instance the engine solved is rebuilt
//! through the public layer calls — `DeploymentContext::epoch_instance`
//! (online), `GridIndex::query_within_dist_into` (geo),
//! `LinkEvaluator::evaluate_batch` (radio) and `decompose` (components)
//! — timing each, and checking that the rebuild reproduces the engine's
//! candidate rows exactly.

use dmra_core::{decompose, CoverageModel, DeploymentContext, ProblemInstance};
use dmra_geo::GridIndex;
use dmra_radio::{InterferenceModel, LinkBatch, LinkEvaluator};
use dmra_types::{Cru, Meters, RrbCount, UeId, UeSpec};
use std::time::Instant;

/// The replay context and its running tallies. Call
/// [`Replayer::begin_instance`] before each engine instance's repetition.
pub struct Replayer {
    row_cache: bool,
    layers: Option<Layers>,
    prev_ues: Vec<UeSpec>,
    prev_cru: Vec<Vec<Cru>>,
    prev_rrb: Vec<RrbCount>,
    query: Vec<(usize, Meters)>,
    hits: Vec<(usize, Meters)>,
    hit_starts: Vec<usize>,
    batch: LinkBatch,
    /// Totals over the replayed epochs.
    pub tally: ReplayTally,
}

/// The bench-side copies of the layers, built from the first instance.
struct Layers {
    ctx: DeploymentContext,
    prune: GridIndex,
    radius: Meters,
    evaluator: LinkEvaluator,
}

/// Sums over every replayed epoch.
#[derive(Debug, Default)]
pub struct ReplayTally {
    /// Epochs replayed.
    pub epochs: u64,
    /// Epochs whose rebuild diverged from the engine's instance.
    pub failed: u64,
    /// The first divergence.
    pub first_error: Option<String>,
    /// UEs over all instances.
    pub ues: u64,
    /// Candidate links over all instances.
    pub links: u64,
    /// Rows the build evaluated afresh (cache misses, or every row
    /// without a cache).
    pub rows_rebuilt: u64,
    /// Row-cache hits of the replay context (0 without a cache).
    pub cache_hits: u64,
    /// Row-cache misses of the replay context (0 without a cache).
    pub cache_misses: u64,
    /// `epoch_instance` wall time.
    pub build_ns: u64,
    /// Prune-index queries (one per rebuilt row) and their hits.
    pub geo_queries: u64,
    /// BSs the queries returned.
    pub geo_hits: u64,
    /// Wall time of the queries.
    pub geo_ns: u64,
    /// Links the radio kernel evaluated.
    pub radio_links: u64,
    /// Wall time of batch assembly plus `evaluate_batch`.
    pub radio_ns: u64,
    /// Wall time of `decompose`.
    pub decompose_ns: u64,
    /// Components over all instances.
    pub components: u64,
    /// Sum over epochs of largest component's UEs ÷ instance UEs.
    pub largest_frac_sum: f64,
}

fn ns_since(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).expect("replay step shorter than 584 years")
}

/// Whether two UEs key the same candidate row (the inputs the row cache
/// keys on, compared bit for bit).
fn same_row_inputs(a: &UeSpec, b: &UeSpec) -> bool {
    a.position.x.to_bits() == b.position.x.to_bits()
        && a.position.y.to_bits() == b.position.y.to_bits()
        && a.sp == b.sp
        && a.service == b.service
        && a.cru_demand == b.cru_demand
        && a.rate_demand.get().to_bits() == b.rate_demand.get().to_bits()
        && a.tx_power.get().to_bits() == b.tx_power.get().to_bits()
}

impl Replayer {
    /// A replayer whose context keeps the row cache iff the engine's does.
    #[must_use]
    pub fn new(row_cache: bool) -> Self {
        Self {
            row_cache,
            layers: None,
            prev_ues: Vec::new(),
            prev_cru: Vec::new(),
            prev_rrb: Vec::new(),
            query: Vec::new(),
            hits: Vec::new(),
            hit_starts: Vec::new(),
            batch: LinkBatch::new(),
            tally: ReplayTally::default(),
        }
    }

    /// Starts a new engine instance (another deployment): forgets the
    /// previous one's layers and row history, keeps the tallies.
    pub fn begin_instance(&mut self) {
        self.layers = None;
        self.prev_ues.clear();
        self.prev_cru.clear();
        self.prev_rrb.clear();
    }

    /// Replays one solved instance, counting a divergence as a failed
    /// epoch.
    pub fn replay(&mut self, captured: &ProblemInstance) {
        self.tally.epochs += 1;
        if let Err(e) = self.replay_epoch(captured) {
            self.tally.failed += 1;
            let epoch = self.tally.epochs - 1;
            self.tally
                .first_error
                .get_or_insert_with(|| format!("epoch {epoch}: {e}"));
        }
    }

    fn replay_epoch(&mut self, captured: &ProblemInstance) -> Result<(), String> {
        if self.layers.is_none() {
            self.layers = Some(Layers::new(captured, self.row_cache)?);
        }
        let layers = self.layers.as_mut().expect("built above");
        let cru: Vec<Vec<Cru>> = captured
            .bss()
            .iter()
            .map(|b| b.cru_budget.clone())
            .collect();
        let rrb: Vec<RrbCount> = captured.bss().iter().map(|b| b.rrb_budget).collect();
        let ues = captured.ues();

        // Rows the build must evaluate: all of them without a cache or
        // after any budget change (which is when these workloads stamp
        // BSs), else those whose row inputs moved.
        let budgets_same = self.prev_cru == cru && self.prev_rrb == rrb;
        let rebuilt: Vec<usize> = (0..ues.len())
            .filter(|&u| {
                !self.row_cache
                    || !budgets_same
                    || self
                        .prev_ues
                        .get(u)
                        .is_none_or(|p| !same_row_inputs(p, &ues[u]))
            })
            .collect();

        // online: the epoch build, checked row by row.
        let cache_before = layers.ctx.row_cache_stats();
        let batch = ues.to_vec();
        let t = Instant::now();
        let built = layers
            .ctx
            .epoch_instance(&cru, &rrb, batch)
            .map_err(|e| format!("replay build failed: {e}"))?;
        self.tally.build_ns += ns_since(t);
        if built.n_ues() != captured.n_ues() {
            return Err(format!(
                "replay built {} UEs, engine solved {}",
                built.n_ues(),
                captured.n_ues()
            ));
        }
        for u in 0..captured.n_ues() {
            let id = UeId::new(u32::try_from(u).expect("UE count fits u32"));
            if built.candidates(id) != captured.candidates(id) {
                return Err(format!("candidate row of UE {u} differs from the engine's"));
            }
            self.tally.links += captured.candidates(id).len() as u64;
        }
        self.tally.ues += captured.n_ues() as u64;
        self.tally.rows_rebuilt += rebuilt.len() as u64;
        if let (Some((h0, m0)), Some((h1, m1))) = (cache_before, layers.ctx.row_cache_stats()) {
            let (hits, misses) = (h1 - h0, m1 - m0);
            if misses != rebuilt.len() as u64 || hits + misses != ues.len() as u64 {
                return Err(format!(
                    "row cache missed {misses} rows, the replay predicted {}",
                    rebuilt.len()
                ));
            }
            self.tally.cache_hits += hits;
            self.tally.cache_misses += misses;
        }

        // components
        let t = Instant::now();
        let decomp = decompose(captured);
        self.tally.decompose_ns += ns_since(t);
        self.tally.components += decomp.components.len() as u64;
        if !ues.is_empty() {
            self.tally.largest_frac_sum += decomp.max_component_ues() as f64 / ues.len() as f64;
        }

        // geo: one prune query per rebuilt row.
        self.hits.clear();
        self.hit_starts.clear();
        self.hit_starts.push(0);
        let t = Instant::now();
        for &u in &rebuilt {
            layers
                .prune
                .query_within_dist_into(ues[u].position, layers.radius, &mut self.query);
            self.hits.extend_from_slice(&self.query);
            self.hit_starts.push(self.hits.len());
        }
        self.tally.geo_ns += ns_since(t);
        self.tally.geo_queries += rebuilt.len() as u64;
        self.tally.geo_hits += self.hits.len() as u64;

        // radio: the batched link kernel over each rebuilt row's hits at
        // BSs hosting the UE's service, as the candidate scan assembles it.
        let bss = captured.bss();
        let t = Instant::now();
        for (k, &u) in rebuilt.iter().enumerate() {
            let ue = &ues[u];
            self.batch.clear();
            for &(b, distance) in &self.hits[self.hit_starts[k]..self.hit_starts[k + 1]] {
                if bss[b].hosts(ue.service) {
                    self.batch.push(b as u32, bss[b].position, distance, 0.0);
                }
            }
            layers
                .evaluator
                .evaluate_batch(ue.tx_power, ue.position, 0.0, &mut self.batch);
            // Nothing reads the link metrics; keep the kernel from being
            // optimised away.
            std::hint::black_box(&self.batch);
            self.tally.radio_links += self.batch.len() as u64;
        }
        self.tally.radio_ns += ns_since(t);

        self.prev_ues.clear();
        self.prev_ues.extend_from_slice(ues);
        self.prev_cru = cru;
        self.prev_rrb = rrb;
        Ok(())
    }
}

impl Layers {
    fn new(deployment: &ProblemInstance, row_cache: bool) -> Result<Self, String> {
        let CoverageModel::FixedRadius(radius) = deployment.coverage() else {
            return Err("layer replay needs a fixed-radius coverage model".into());
        };
        if deployment.radio().interference != InterferenceModel::NoiseOnly {
            return Err("layer replay needs the noise-only interference model".into());
        }
        let ctx = DeploymentContext::new(deployment);
        let sites: Vec<_> = deployment.bss().iter().map(|b| b.position).collect();
        Ok(Self {
            ctx: if row_cache { ctx.with_row_cache() } else { ctx },
            prune: GridIndex::build(&sites, radius),
            radius,
            evaluator: LinkEvaluator::new(*deployment.radio()),
        })
    }
}
