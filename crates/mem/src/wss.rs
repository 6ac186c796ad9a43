//! Idle working-set sizes.
//!
//! The cluster simulation samples each partial VM's memory consumption
//! "from the distribution collected from \[Jettison\]", whose mean idle
//! working set for 4 GiB desktop VMs was 165.63 ± 91.38 MiB — under 4 % of
//! the allocation (§5.1). This module provides that sampler plus a tracker
//! that measures a live VM's working set from its accessed pages.

use oasis_sim::SimRng;

use crate::addr::{size_of_pages, PageNum};
use crate::bitmap::Bitmap;
use crate::size::ByteSize;

/// The Jettison idle working-set distribution.
#[derive(Clone, Copy, Debug)]
pub struct IdleWssDistribution {
    /// Mean working set in MiB (165.63).
    pub mean_mib: f64,
    /// Standard deviation in MiB (91.38).
    pub std_mib: f64,
    /// Lower truncation bound in MiB; even a freshly idle VM keeps kernel
    /// timers and daemon pages resident.
    pub min_mib: f64,
}

impl Default for IdleWssDistribution {
    fn default() -> Self {
        IdleWssDistribution { mean_mib: 165.63, std_mib: 91.38, min_mib: 8.0 }
    }
}

impl IdleWssDistribution {
    /// The paper's parameters.
    pub fn jettison() -> Self {
        Self::default()
    }

    /// Samples a working-set size for a VM with the given allocation.
    ///
    /// The draw is truncated to `[min_mib, allocation]`.
    pub fn sample(&self, rng: &mut SimRng, allocation: ByteSize) -> ByteSize {
        let hi = allocation.as_mib_f64();
        let mib = rng.truncated_normal(self.mean_mib, self.std_mib, self.min_mib, hi);
        ByteSize::from_mib_f64(mib)
    }
}

/// Measures the working set of a live VM as the set of unique pages
/// accessed since the tracker was (re)started.
#[derive(Clone, Debug)]
pub struct WorkingSetTracker {
    touched: Bitmap,
}

impl WorkingSetTracker {
    /// Creates a tracker for a VM of `num_pages` pages.
    pub fn new(num_pages: u64) -> Self {
        WorkingSetTracker { touched: Bitmap::new(num_pages as usize) }
    }

    /// Records an access; returns `true` if the page is new to the set.
    pub fn touch(&mut self, page: PageNum) -> bool {
        let i = page.0 as usize;
        i < self.touched.len() && self.touched.set(i)
    }

    /// Number of unique pages touched.
    pub fn unique_pages(&self) -> u64 {
        self.touched.count_ones() as u64
    }

    /// Size of the working set in bytes.
    pub fn size(&self) -> ByteSize {
        size_of_pages(self.unique_pages())
    }

    /// Restarts measurement (new idle epoch).
    pub fn reset(&mut self) {
        self.touched.clear_all();
    }

    /// The touched pages, ascending.
    pub fn pages(&self) -> Vec<PageNum> {
        self.touched.iter_ones().map(|i| PageNum(i as u64)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sample_statistics_match_jettison() {
        let dist = IdleWssDistribution::jettison();
        let mut rng = SimRng::new(1);
        let alloc = ByteSize::gib(4);
        let n = 20_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let s = dist.sample(&mut rng, alloc);
            assert!(s >= ByteSize::mib(8));
            assert!(s <= alloc);
            sum += s.as_mib_f64();
        }
        let mean = sum / n as f64;
        // Truncation at 8 MiB nudges the mean up slightly; stay close.
        assert!((mean - 165.63).abs() < 12.0, "mean {mean}");
    }

    #[test]
    fn sample_is_under_4_percent_of_allocation_on_average() {
        // The paper's §5.1 headline: mean idle WSS < 4 % of 4 GiB.
        let dist = IdleWssDistribution::jettison();
        let mut rng = SimRng::new(2);
        let alloc = ByteSize::gib(4);
        let mean_frac: f64 = (0..5_000)
            .map(|_| dist.sample(&mut rng, alloc).as_bytes() as f64 / alloc.as_bytes() as f64)
            .sum::<f64>()
            / 5_000.0;
        assert!(mean_frac < 0.045, "mean fraction {mean_frac}");
    }

    #[test]
    fn small_allocation_truncates() {
        let dist = IdleWssDistribution::jettison();
        let mut rng = SimRng::new(3);
        let alloc = ByteSize::mib(64);
        for _ in 0..1_000 {
            assert!(dist.sample(&mut rng, alloc) <= alloc);
        }
    }

    #[test]
    fn tracker_counts_unique_pages() {
        let mut t = WorkingSetTracker::new(1_000);
        assert!(t.touch(PageNum(1)));
        assert!(!t.touch(PageNum(1)));
        assert!(t.touch(PageNum(2)));
        assert_eq!(t.unique_pages(), 2);
        assert_eq!(t.size(), ByteSize::bytes(8_192));
        assert_eq!(t.pages(), vec![PageNum(1), PageNum(2)]);
        t.reset();
        assert_eq!(t.unique_pages(), 0);
        assert!(!t.touch(PageNum(5_000)), "out of range ignored");
    }
}
