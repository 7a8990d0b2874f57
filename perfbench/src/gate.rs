//! The correctness gate run before any timing: every epoch's allocation
//! must be feasible on its instance and equal a stateless one-shot solve,
//! and the repetition's det fold must match the golden table.

use dmra_core::{Allocation, Allocator, Dmra, ProblemInstance};

/// Per-epoch tally of the gate checks.
#[derive(Debug, Default)]
pub struct Gate {
    /// Epochs checked.
    pub epochs: u64,
    /// Epochs that failed a check.
    pub failed: u64,
    /// The first failure, for the report.
    pub first_error: Option<String>,
}

impl Gate {
    /// Checks one epoch's allocation against its instance.
    pub fn check(&mut self, instance: &ProblemInstance, allocation: &Allocation) {
        self.epochs += 1;
        let error = if let Err(e) = allocation.validate(instance) {
            Some(format!(
                "epoch {}: infeasible allocation: {e}",
                self.epochs - 1
            ))
        } else if *allocation != Dmra::default().allocate(instance) {
            Some(format!(
                "epoch {}: session allocation differs from a one-shot solve",
                self.epochs - 1
            ))
        } else {
            None
        };
        if let Some(e) = error {
            self.failed += 1;
            self.first_error.get_or_insert(e);
        }
    }
}

/// Folds the per-instance det folds, in instance order, into the value
/// the golden table keeps for a workload seed.
#[must_use]
pub fn combine(folds: &[u64]) -> u64 {
    folds.iter().fold(0xcbf2_9ce4_8422_2325, |h, &f| {
        let h = (h ^ f).wrapping_mul(0x0000_0100_0000_01b3);
        h ^ (h >> 29)
    })
}

/// Golden det folds, one `workload seed fold` line each (`#` comments).
const GOLDEN: &str = include_str!("../golden.tsv");

/// The golden fold of `workload` at `seed`, if the table holds one.
#[must_use]
pub fn golden(workload: &str, seed: u64) -> Option<u64> {
    GOLDEN.lines().find_map(|line| {
        let mut it = line.split_whitespace();
        let (w, s, fold) = (it.next()?, it.next()?, it.next()?);
        (w == workload && s.parse() == Ok(seed))
            .then(|| u64::from_str_radix(fold, 16).expect("golden folds are hex"))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn golden_table_is_well_formed() {
        for line in GOLDEN.lines().filter(|l| !l.starts_with('#')) {
            let fields: Vec<&str> = line.split_whitespace().collect();
            assert_eq!(fields.len(), 3, "bad golden line {line:?}");
            assert!(crate::workload::NAMES.contains(&fields[0]), "{line:?}");
            fields[1].parse::<u64>().expect("seed");
            u64::from_str_radix(fields[2], 16).expect("hex fold");
        }
    }
}
