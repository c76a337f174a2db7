//! Percentiles, the tail rule, and failure accounting.

/// Nearest-rank percentile of an ascending sample (`0 < p <= 100`).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    sorted[rank(sorted.len(), p) - 1]
}

/// 1-based nearest rank of percentile `p` in `n` samples.
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// Sorts a copy of `samples` ascending.
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (nearest-rank p50); NaN for an empty sample.
pub fn median(samples: &[f64]) -> f64 {
    percentile(&sorted(samples), 50.0)
}

/// A tail latency: which percentile was taken and how many samples lie
/// beyond it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    pub pct: u32,
    pub value: f64,
    pub beyond: usize,
    pub samples: usize,
}

/// Samples a tail percentile must leave beyond itself.
pub const TAIL_BEYOND: usize = 10;

/// The highest of p99, p95 and p90 that leaves at least [`TAIL_BEYOND`]
/// samples beyond it; `None` when even p90 leaves fewer.
pub fn tail(samples: &[f64]) -> Option<Tail> {
    let s = sorted(samples);
    [99u32, 95, 90].into_iter().find_map(|pct| {
        if s.is_empty() {
            return None;
        }
        let r = rank(s.len(), pct as f64);
        let beyond = s.len() - r;
        (beyond >= TAIL_BEYOND).then(|| Tail {
            pct,
            value: s[r - 1],
            beyond,
            samples: s.len(),
        })
    })
}

/// Counts attempted and failed operations. Correctness checks count as
/// operations too: a check that fails is a failed operation.
#[derive(Default, Debug)]
pub struct Ledger {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failure messages, for the report.
    pub errors: Vec<String>,
}

impl Ledger {
    /// Records one operation's outcome, passing its value through.
    pub fn op<T, E: std::fmt::Display>(&mut self, what: &str, r: Result<T, E>) -> Option<T> {
        self.attempted += 1;
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                self.fail(format!("{what}: {e}"));
                None
            }
        }
    }

    /// Records one correctness check.
    pub fn check(&mut self, what: &str, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.fail(format!("check failed: {what}"));
        }
    }

    fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(msg);
        }
    }

    pub fn ratio(&self) -> f64 {
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

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn tail_takes_the_highest_percentile_with_ten_beyond() {
        // 1000 samples: p99 is rank 990, leaving exactly 10 beyond.
        let t = tail(&ramp(1000)).unwrap();
        assert_eq!((t.pct, t.value, t.beyond, t.samples), (99, 990.0, 10, 1000));
        // 999 samples: p99 leaves 9, so p95 (rank 950) is taken.
        let t = tail(&ramp(999)).unwrap();
        assert_eq!((t.pct, t.value, t.beyond), (95, 950.0, 49));
        // 100 samples: only p90 leaves 10 beyond.
        let t = tail(&ramp(100)).unwrap();
        assert_eq!((t.pct, t.value, t.beyond), (90, 90.0, 10));
        // 99 samples: no percentile qualifies.
        assert_eq!(tail(&ramp(99)), None);
        assert_eq!(tail(&[]), None);
    }

    #[test]
    fn tail_ignores_input_order() {
        let mut v = ramp(200);
        v.reverse();
        assert_eq!(tail(&v).unwrap().value, 190.0); // p95 of 200, 10 beyond
    }

    #[test]
    fn median_is_nearest_rank() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn ledger_counts_failed_operations_and_checks() {
        let mut l = Ledger::default();
        assert_eq!(l.op::<_, String>("a", Ok(1)), Some(1));
        assert_eq!(l.op::<i32, _>("b", Err("boom")), None);
        l.check("c", true);
        l.check("d", false);
        assert_eq!((l.attempted, l.failed), (4, 2));
        assert_eq!(l.ratio(), 0.5);
        assert!(l.errors[0].contains("boom"));
    }
}
