//! Pure arithmetic over recorded timestamps: percentiles and the
//! per-epoch split of the chained timeline into pre-solve, solve and
//! post-solve slices.

/// One timestamp on a repetition's timeline, in nanoseconds since the
/// probe's base instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mark {
    /// The engine opened its allocator session: the end of set-up.
    Session(u64),
    /// An `AllocatorSession::allocate` call was entered.
    Entry(u64),
    /// The same call returned.
    Exit(u64),
    /// The engine handed its end-of-epoch record to the observer.
    Record(u64),
}

/// How one epoch's interval divides. `pre + solve + post` is the time
/// from the previous record (or the session mark, for the first epoch)
/// to this epoch's record.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EpochSplit {
    /// Previous record → `allocate` entry (the whole interval for an
    /// epoch that solved nothing).
    pub pre: u64,
    /// `allocate` entry → exit.
    pub solve: u64,
    /// `allocate` exit → record.
    pub post: u64,
}

impl EpochSplit {
    /// The epoch interval the three slices cover.
    #[must_use]
    pub fn interval(&self) -> u64 {
        self.pre + self.solve + self.post
    }
}

/// A repetition's timeline reduced to its set-up end and epoch splits.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Timeline {
    /// The session mark.
    pub session: u64,
    /// The last record mark (`session` when no epoch ran).
    pub last_record: u64,
    /// One split per epoch, in order.
    pub epochs: Vec<EpochSplit>,
}

/// Splits a repetition's marks into epochs. The marks must read
/// `Session, ((Entry, Exit)?, Record)*` with timestamps that never go
/// backwards; each epoch's slices are then consecutive gaps of one chain,
/// so they sum exactly to the gap between its record and the previous
/// one (the closure).
///
/// # Errors
///
/// Names the first mark that breaks the grammar or the ordering.
pub fn split_epochs(marks: &[Mark]) -> Result<Timeline, String> {
    let Some(&Mark::Session(session)) = marks.first() else {
        return Err(format!(
            "timeline must open with a session mark, got {marks:?}"
        ));
    };
    let mut epochs = Vec::new();
    let mut prev = session;
    let mut i = 1;
    while i < marks.len() {
        let (split, rec) = match marks[i..] {
            [Mark::Record(rec), ..] => {
                i += 1;
                let pre = since(prev, rec, i)?;
                (
                    EpochSplit {
                        pre,
                        solve: 0,
                        post: 0,
                    },
                    rec,
                )
            }
            [Mark::Entry(entry), Mark::Exit(exit), Mark::Record(rec), ..] => {
                i += 3;
                let split = EpochSplit {
                    pre: since(prev, entry, i)?,
                    solve: since(entry, exit, i)?,
                    post: since(exit, rec, i)?,
                };
                (split, rec)
            }
            _ => return Err(format!("unexpected mark {:?} at position {i}", marks[i])),
        };
        epochs.push(split);
        prev = rec;
    }
    Ok(Timeline {
        session,
        last_record: prev,
        epochs,
    })
}

fn since(from: u64, to: u64, at: usize) -> Result<u64, String> {
    to.checked_sub(from)
        .ok_or_else(|| format!("timestamp goes backwards before position {at}"))
}

/// Nearest-rank percentile (`q` in `[0, 1]`) of an ascending slice:
/// the smallest sample with at least `q` of the samples at or below it.
/// `None` for an empty slice.
#[must_use]
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.saturating_sub(1)])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), Some(5.0));
        assert_eq!(percentile(&v, 0.9), Some(9.0));
        assert_eq!(percentile(&v, 0.91), Some(10.0));
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&v, 1.0), Some(10.0));
        assert_eq!(percentile(&[7.0], 0.9), Some(7.0));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn closure_holds_on_a_synthetic_chain() {
        let marks = [
            Mark::Session(100),
            Mark::Entry(130),
            Mark::Exit(190),
            Mark::Record(200),
            // An epoch with no arrivals solves nothing.
            Mark::Record(260),
            Mark::Entry(261),
            Mark::Exit(300),
            Mark::Record(310),
        ];
        let t = split_epochs(&marks).expect("well-formed chain");
        assert_eq!(t.session, 100);
        assert_eq!(t.last_record, 310);
        assert_eq!(
            t.epochs,
            vec![
                EpochSplit {
                    pre: 30,
                    solve: 60,
                    post: 10
                },
                EpochSplit {
                    pre: 60,
                    solve: 0,
                    post: 0
                },
                EpochSplit {
                    pre: 1,
                    solve: 39,
                    post: 10
                },
            ]
        );
        let total: u64 = t.epochs.iter().map(EpochSplit::interval).sum();
        assert_eq!(total, t.last_record - t.session);
    }

    #[test]
    fn broken_chains_are_refused() {
        assert!(split_epochs(&[]).is_err());
        assert!(split_epochs(&[Mark::Record(1)]).is_err());
        // A solve with no record after it.
        assert!(split_epochs(&[Mark::Session(0), Mark::Entry(1), Mark::Exit(2)]).is_err());
        // Two solves in one epoch.
        assert!(split_epochs(&[
            Mark::Session(0),
            Mark::Entry(1),
            Mark::Exit(2),
            Mark::Entry(3),
            Mark::Exit(4),
            Mark::Record(5),
        ])
        .is_err());
        // A clock that runs backwards.
        assert!(split_epochs(&[Mark::Session(10), Mark::Record(5)]).is_err());
    }

    #[test]
    fn an_empty_run_has_no_epochs() {
        let t = split_epochs(&[Mark::Session(42)]).expect("session only");
        assert!(t.epochs.is_empty());
        assert_eq!(t.last_record, 42);
    }
}
