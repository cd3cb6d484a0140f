//! Order statistics and the pass/fail tally behind `attempted`/`failed`.

/// Median of `xs` (mean of the middle two for an even count); `None` when
/// empty.
pub fn median(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// Samples needed before the p99 may be reported: at least ten of them must
/// lie beyond it, so a single stall cannot define the tail.
pub const P99_MIN_SAMPLES: usize = 1000;

/// The 99th percentile (nearest rank) of `xs`, or `None` when fewer than
/// ten samples lie beyond it.
pub fn p99(xs: &[f64]) -> Option<f64> {
    if xs.len() < P99_MIN_SAMPLES {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (0.99 * v.len() as f64).ceil() as usize;
    Some(v[rank.max(1) - 1])
}

/// The median, over consecutive windows of [`P99_MIN_SAMPLES`] samples
/// taken in time order, of each window's p99 (a trailing partial window is
/// left out); `None` without one full window. One burst of stalls moves
/// one window, not the result.
pub fn p99_windowed(xs: &[f64]) -> Option<f64> {
    let per_window: Vec<f64> = xs.chunks_exact(P99_MIN_SAMPLES).filter_map(p99).collect();
    median(&per_window)
}

/// Counts operations (simulated points, served requests, rendered tables)
/// and those whose correctness check failed. Every failure is reported on
/// stderr with its reason.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    /// Operations whose outcome was checked.
    pub attempted: u64,
    /// Operations that failed or failed a check.
    pub failed: u64,
}

impl Tally {
    /// Records one checked operation.
    pub fn record(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = outcome {
            self.failed += 1;
            eprintln!("perfbench: check failed: {why}");
        }
    }

    /// `failed / attempted` (0 when nothing was attempted).
    pub fn fail_ratio(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        let short: Vec<f64> = (0..P99_MIN_SAMPLES - 1).map(|i| i as f64).collect();
        assert_eq!(p99(&short), None, "999 samples leave fewer than 10 beyond");
        let enough: Vec<f64> = (1..=P99_MIN_SAMPLES).map(|i| i as f64).collect();
        let p = p99(&enough).expect("1000 samples support a p99");
        assert_eq!(p, 990.0);
        assert_eq!(enough.iter().filter(|&&x| x > p).count(), 10);
    }

    #[test]
    fn windowed_p99_ignores_one_bad_window() {
        let calm: Vec<f64> = (1..=P99_MIN_SAMPLES).map(|i| i as f64).collect();
        let stalled: Vec<f64> = calm.iter().map(|x| x * 10.0).collect();
        let mut xs = [calm.clone(), stalled, calm].concat();
        assert_eq!(p99_windowed(&xs), Some(990.0));
        xs.truncate(P99_MIN_SAMPLES - 1);
        assert_eq!(p99_windowed(&xs), None);
    }

    #[test]
    fn a_failed_check_raises_the_fail_ratio() {
        let mut t = Tally::default();
        t.record(Ok(()));
        assert_eq!(t.fail_ratio(), 0.0);
        t.record(Err("seeded failure".into()));
        assert_eq!((t.attempted, t.failed), (2, 1));
        assert_eq!(t.fail_ratio(), 0.5);
    }
}
