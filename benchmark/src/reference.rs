//! The host-speed reference: a fixed loop of the benchmark's own code,
//! timed next to every measured episode and set-up batch.
//!
//! The host shares its caches and memory with other tenants. Their load
//! slows memory-bound code by up to a half for minutes at a time, longer
//! than a run, so no statistic over one run's rounds can remove it. The
//! reference loop does the kind of work the simulator does (ordered-map
//! inserts and removals, scattered reads and writes in a table larger
//! than the core's caches) and never changes with the program, so its
//! time moves with the host alone. A run reports host time scaled to
//! the host speed at which the loop takes [`NOMINAL_NS`]: a unit timed
//! between two samples is multiplied by `NOMINAL_NS` over their mean.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// The loop's time on the quiet baseline host (see README.md): the
/// speed every scaled host time refers to.
pub const NOMINAL_NS: f64 = 30e6;
/// Entries of the scattered-access table (16 MiB of `u64`).
const TABLE_LEN: usize = 1 << 21;
/// Distinct keys of the ordered map.
const KEYS: u64 = 100_000;
/// Steps of one sample.
const STEPS: usize = 150_000;

/// The reference loop and its samples, in the order they were taken.
pub struct Reference {
    table: Vec<u64>,
    samples: Vec<u64>,
}

impl Reference {
    pub fn new() -> Self {
        Self {
            table: vec![1; TABLE_LEN],
            samples: Vec::new(),
        }
    }

    /// Time one pass of the loop; returns the sample's index.
    pub fn sample(&mut self) -> usize {
        let mut map = BTreeMap::new();
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut acc: u64 = 0;
        // wall time is the measurement; the loop's work is fixed
        #[allow(clippy::disallowed_methods)]
        let started = Instant::now();
        for _ in 0..STEPS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            map.insert(x % KEYS, acc);
            if x & 3 == 0 {
                map.remove(&((x >> 5) % KEYS));
            }
            let i = (x >> 11) as usize % TABLE_LEN;
            acc = acc.wrapping_add(self.table[i]);
            self.table[(i * 7 + 1) % TABLE_LEN] = acc;
        }
        black_box((acc, map.len()));
        self.samples.push(started.elapsed().as_nanos() as u64);
        self.samples.len() - 1
    }

    /// Scale for a unit timed right after sample `at`: `NOMINAL_NS` over
    /// the mean of that sample and the next one (the one taken right
    /// after the unit, when there is one).
    pub fn scale(&self, at: usize) -> f64 {
        let before = self.samples[at] as f64;
        let after = self.samples.get(at + 1).map_or(before, |&ns| ns as f64);
        NOMINAL_NS / ((before + after) / 2.0)
    }

    /// Raw sample times, ns.
    pub fn samples(&self) -> &[u64] {
        &self.samples
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_unit_is_scaled_by_its_neighbouring_samples() {
        let mut r = Reference::new();
        r.samples = vec![20_000_000, 40_000_000, 60_000_000];
        assert_eq!(r.scale(0), 1.0);
        assert_eq!(r.scale(1), 0.6);
        // the last sample has no right neighbour
        assert_eq!(r.scale(2), 0.5);
    }

    #[test]
    fn sampling_records_a_positive_time() {
        let mut r = Reference::new();
        assert_eq!(r.sample(), 0);
        assert!(r.samples()[0] > 0);
    }
}
