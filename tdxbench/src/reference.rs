//! A fixed reference kernel, timed between operations.
//!
//! The machines this benchmark runs on are shared, and their speed drifts
//! by tens of percent over seconds to minutes; every operation of a run
//! slows down or speeds up together. The kernel does a fixed amount of
//! allocation-free work (fill and sort a buffer), so its time tracks the
//! machine's speed and nothing else. The gated latency metrics are the
//! operations' times in units of the kernel's median time in the same run;
//! the raw times are in the report.

use std::time::Instant;

/// Elements the kernel sorts (2 MiB of `u64`).
const LEN: usize = 1 << 18;

pub struct Reference {
    buf: Vec<u64>,
    runs: u64,
    /// Kernel times in ms.
    pub samples: Vec<f64>,
}

impl Default for Reference {
    fn default() -> Self {
        Reference {
            buf: vec![0; LEN],
            runs: 0,
            samples: Vec::new(),
        }
    }
}

impl Reference {
    /// Runs and times the kernel once.
    pub fn sample(&mut self) {
        self.runs += 1;
        let start = Instant::now();
        let mut x = self.runs | 1;
        for v in self.buf.iter_mut() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            *v = x;
        }
        self.buf.sort_unstable();
        std::hint::black_box(self.buf[LEN / 2]);
        self.samples.push(start.elapsed().as_secs_f64() * 1e3);
    }

    /// Median kernel time in ms.
    pub fn median_ms(&self) -> f64 {
        crate::stats::median(&self.samples)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_kernel_is_timed_every_time() {
        let mut r = Reference::default();
        r.sample();
        r.sample();
        assert_eq!(r.samples.len(), 2);
        assert!(r.median_ms() > 0.0);
        // Each run sorts fresh data.
        assert!(r.buf.windows(2).all(|w| w[0] <= w[1]));
    }
}
