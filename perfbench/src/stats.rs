//! Pure statistics and accounting: percentiles with their sample-count
//! rule, and the attempted/failed tally behind `failed_frac`.

/// Minimum number of samples that must lie beyond a reported tail
/// percentile: a p95 needs at least 200 samples, a p90 at least 100.
pub const MIN_SAMPLES_BEYOND: usize = 10;

/// Nearest-rank percentile (`q` in `[0, 1]`) of `samples`, or `None`
/// when there are no samples.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Median of `samples` (the nearest-rank p50).
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 0.5)
}

/// Whether `n` samples are enough to report percentile `q`: at least
/// [`MIN_SAMPLES_BEYOND`] of them must lie beyond it. The median is
/// always reportable.
pub fn tail_is_reportable(n: usize, q: f64) -> bool {
    q <= 0.5 || (n as f64) * (1.0 - q) >= MIN_SAMPLES_BEYOND as f64 - 1e-9
}

/// Percentile `q` of `samples` if the sample count supports it.
pub fn tail(samples: &[f64], q: f64) -> Option<f64> {
    if tail_is_reportable(samples.len(), q) {
        percentile(samples, q)
    } else {
        None
    }
}

/// Operations attempted and how each ended.
///
/// An operation *fails* when it reaches no correct terminal state: a
/// revert, a decode error, an ingest reject, a wrong verdict, or a
/// broken lifecycle invariant. A correct reject (a wiped provider's
/// round failing its audit) is a success of the auditing system and is
/// counted in `correct_rejects`, not in `failed`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    /// Operations started.
    pub attempted: u64,
    /// Operations that reached no correct terminal state.
    pub failed: u64,
    /// Operations that correctly ended in a reject.
    pub correct_rejects: u64,
    /// Accepts of data that should have been rejected, plus rejects of
    /// data that should have been accepted.
    pub false_verdicts: u64,
    /// The first few failure descriptions, for the run's log.
    pub notes: Vec<String>,
}

/// The verdict an audit produced, set against the one it should have.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// The operation completed and its verdict (if any) was right.
    Ok,
    /// The audit rejected data that was in fact damaged.
    CorrectReject,
    /// The audit gave the wrong verdict.
    FalseVerdict,
    /// The operation errored before reaching a verdict or terminal state.
    Error,
}

impl Outcome {
    /// Classifies an audit verdict against the ground truth.
    pub fn of_verdict(accepted: bool, data_intact: bool) -> Self {
        match (accepted, data_intact) {
            (true, true) => Outcome::Ok,
            (false, false) => Outcome::CorrectReject,
            _ => Outcome::FalseVerdict,
        }
    }
}

impl Tally {
    const MAX_NOTES: usize = 8;

    /// Records one attempted operation with its outcome.
    pub fn record(&mut self, outcome: Outcome, note: impl FnOnce() -> String) {
        self.attempted += 1;
        match outcome {
            Outcome::Ok => {}
            Outcome::CorrectReject => self.correct_rejects += 1,
            Outcome::FalseVerdict => {
                self.false_verdicts += 1;
                self.fail(note());
            }
            Outcome::Error => self.fail(note()),
        }
    }

    /// Records a batch of `n` operations that all ended correctly,
    /// `correct_rejects` of them in a reject.
    pub fn record_batch(&mut self, n: u64, correct_rejects: u64) {
        self.attempted += n;
        self.correct_rejects += correct_rejects.min(n);
    }

    /// Counts `n` operations of an already-recorded batch as failed
    /// (at most as many as were attempted).
    pub fn fail_many(&mut self, n: u64, false_verdicts: u64, note: String) {
        let n = n.min(self.attempted - self.failed);
        self.failed += n;
        self.false_verdicts += false_verdicts;
        if n > 0 || false_verdicts > 0 {
            self.push_note(note);
        }
    }

    fn fail(&mut self, note: String) {
        self.failed += 1;
        self.push_note(note);
    }

    fn push_note(&mut self, note: String) {
        if self.notes.len() < Self::MAX_NOTES {
            self.notes.push(note);
        }
    }

    /// Failed operations over attempted ones (0 when nothing ran).
    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    /// Whether every check of the run held.
    pub fn all_correct(&self) -> bool {
        self.attempted > 0 && self.failed == 0 && self.false_verdicts == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.5), Some(50.0));
        assert_eq!(percentile(&xs, 0.95), Some(95.0));
        assert_eq!(percentile(&xs, 1.0), Some(100.0));
        assert_eq!(percentile(&xs, 0.0), Some(1.0));
        assert_eq!(percentile(&[], 0.5), None);
        // order of the input does not matter
        let rev: Vec<f64> = xs.iter().rev().copied().collect();
        assert_eq!(percentile(&rev, 0.95), Some(95.0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert!(tail_is_reportable(200, 0.95));
        assert!(!tail_is_reportable(199, 0.95));
        assert!(tail_is_reportable(100, 0.90));
        assert!(!tail_is_reportable(99, 0.90));
        // the median is always reportable, even from one sample
        assert!(tail_is_reportable(1, 0.5));
        let xs: Vec<f64> = (1..=199).map(f64::from).collect();
        assert_eq!(tail(&xs, 0.95), None);
        assert_eq!(tail(&xs, 0.5), Some(100.0));
        let ys: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(tail(&ys, 0.95), Some(190.0));
    }

    #[test]
    fn correct_rejects_are_not_failures() {
        let mut t = Tally::default();
        t.record(Outcome::of_verdict(true, true), String::new);
        t.record(Outcome::of_verdict(false, false), String::new);
        t.record(Outcome::of_verdict(false, false), String::new);
        assert_eq!(t.attempted, 3);
        assert_eq!(t.failed, 0);
        assert_eq!(t.correct_rejects, 2);
        assert_eq!(t.failed_frac(), 0.0);
        assert!(t.all_correct());
    }

    #[test]
    fn false_verdicts_and_errors_count_against_attempted() {
        let mut t = Tally::default();
        t.record_batch(6, 0);
        t.record(Outcome::of_verdict(true, false), || "false accept".into());
        t.record(Outcome::of_verdict(false, true), || "false reject".into());
        t.record(Outcome::Error, || "revert".into());
        assert_eq!(t.attempted, 9);
        assert_eq!(t.failed, 3);
        assert_eq!(t.false_verdicts, 2);
        assert!((t.failed_frac() - 3.0 / 9.0).abs() < 1e-12);
        assert!(!t.all_correct());
        assert_eq!(t.notes, ["false accept", "false reject", "revert"]);
    }

    #[test]
    fn batch_failures_are_capped_at_attempted() {
        let mut t = Tally::default();
        t.record_batch(4, 9);
        t.fail_many(10, 1, "sim reported a false accept".into());
        assert_eq!(t.failed, 4);
        assert_eq!(t.failed_frac(), 1.0);
        assert_eq!(t.false_verdicts, 1);
        assert_eq!(t.correct_rejects, 4);
        // an empty run is never correct
        assert!(!Tally::default().all_correct());
        assert_eq!(Tally::default().failed_frac(), 0.0);
    }
}
