//! Pins the twelve `figures` experiments against recorded constants.
//!
//! `figures --quick all ablations` runs Figs. 2–7 and the six ablations
//! at [`ExperimentOptions::quick`] and writes one CSV per experiment.
//! This test folds each experiment's `Table::to_csv()` into one `u64` and
//! compares it with the value recorded when the test was written, so a
//! change that moves any cell of any of those CSVs fails tier-1 instead
//! of waiting for a by-hand `cmp` of two `results/` directories.
//!
//! A deliberate outcome change updates the constants in the same change,
//! and says why.

use dmra_sim::experiments::{self, ExperimentOptions};
use dmra_sim::Table;
use dmra_types::Result;

/// FNV-1a over the bytes of one CSV.
fn fold(csv: &str) -> u64 {
    csv.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

type Experiment = fn(&ExperimentOptions) -> Result<Table>;

/// Every experiment of `figures all ablations`, under its job name.
const EXPERIMENTS: [(&str, Experiment); 12] = [
    ("fig2", experiments::fig2),
    ("fig3", experiments::fig3),
    ("fig4", experiments::fig4),
    ("fig5", experiments::fig5),
    ("fig6", experiments::fig6),
    ("fig7", experiments::fig7),
    ("ablation_same_sp", experiments::ablation_same_sp_preference),
    ("ablation_interference", experiments::ablation_interference),
    ("decentralized_cost", experiments::decentralized_cost),
    ("iota_sweep", experiments::iota_sweep),
    ("online_comparison", experiments::online_comparison),
    ("proto_degradation", experiments::proto_degradation),
];

const CSV_PINS: [(&str, u64); 12] = [
    ("fig2", 0xd273_91b6_1695_2bf4),
    ("fig3", 0xe128_fa52_6f95_363f),
    ("fig4", 0xc1c2_d30e_43b2_4850),
    ("fig5", 0x1086_46fa_6438_9829),
    ("fig6", 0x34e1_d436_3166_6581),
    ("fig7", 0x758b_b654_9401_63b5),
    ("ablation_same_sp", 0xa2cc_f613_5ca0_0a7e),
    ("ablation_interference", 0xff8e_bc33_b86c_f524),
    ("decentralized_cost", 0x1a99_b3ed_d890_010e),
    ("iota_sweep", 0x71d7_a09c_fecc_3a11),
    ("online_comparison", 0xad50_c078_501f_e969),
    ("proto_degradation", 0x5b9d_d5e9_40dc_5bc6),
];

#[test]
fn quick_experiment_csvs_are_pinned() {
    let opts = ExperimentOptions::quick();
    let folds: Vec<(&str, u64)> = EXPERIMENTS
        .iter()
        .map(|&(job, run)| {
            let table = run(&opts).unwrap_or_else(|e| panic!("{job}: {e}"));
            (job, fold(&table.to_csv()))
        })
        .collect();
    let wrong: Vec<String> = CSV_PINS
        .iter()
        .zip(&folds)
        .filter(|((_, pin), (_, got))| pin != got)
        .map(|((job, pin), (_, got))| format!("{job}: pinned {pin:#018x}, got {got:#018x}"))
        .collect();
    let all: Vec<String> = folds
        .iter()
        .map(|(job, got)| format!("(\"{job}\", {got:#018x}),"))
        .collect();
    assert!(
        wrong.is_empty(),
        "experiment CSVs moved:\n{}\nfolds now:\n{}",
        wrong.join("\n"),
        all.join("\n")
    );
}
