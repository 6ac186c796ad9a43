//! Minimal deterministic property-testing harness.
//!
//! A self-contained, dependency-free replacement for the external
//! `proptest` crate so the whole workspace builds and tests with no
//! registry access. Each property runs a fixed number of cases; the
//! case's generator is seeded deterministically, so failures reproduce
//! exactly and the reported case index pinpoints the seed.
//!
//! ```
//! use oasis_sim::check::{run, Gen};
//!
//! run(64, |g: &mut Gen| {
//!     let a = g.u64_in(0, 1_000);
//!     let b = g.u64_in(0, 1_000);
//!     assert!(a + b >= a.max(b));
//! });
//! ```

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

use crate::rng::SimRng;

/// Base seed mixed into every case so property streams differ from
/// simulation streams built on small literal seeds.
const SEED_BASE: u64 = 0x0A51_5C4E_C75E_ED00;

/// Per-case value generator.
pub struct Gen {
    rng: SimRng,
    case: u64,
}

impl Gen {
    /// Generator for one case index.
    pub fn new(case: u64) -> Self {
        Gen { rng: SimRng::new(SEED_BASE ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15)), case }
    }

    /// The case index (useful in assertion messages).
    pub fn case(&self) -> u64 {
        self.case
    }

    /// An arbitrary `u64`.
    pub fn u64(&mut self) -> u64 {
        self.rng.next_u64()
    }

    /// A `u64` in `[lo, hi)`; `hi` must exceed `lo`.
    pub fn u64_in(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(hi > lo, "empty range {lo}..{hi}");
        lo + self.rng.below(hi - lo)
    }

    /// A `usize` in `[lo, hi)`.
    pub fn usize_in(&mut self, lo: usize, hi: usize) -> usize {
        self.u64_in(lo as u64, hi as u64) as usize
    }

    /// A `u32` in `[lo, hi)`.
    pub fn u32_in(&mut self, lo: u32, hi: u32) -> u32 {
        self.u64_in(u64::from(lo), u64::from(hi)) as u32
    }

    /// An arbitrary byte.
    pub fn byte(&mut self) -> u8 {
        self.rng.next_u64() as u8
    }

    /// An `f64` uniform in `[lo, hi)`.
    pub fn f64_in(&mut self, lo: f64, hi: f64) -> f64 {
        lo + self.rng.next_f64() * (hi - lo)
    }

    /// A fair coin flip.
    pub fn bool(&mut self) -> bool {
        self.rng.next_u64() & 1 == 1
    }

    /// A byte vector with length drawn from `[0, max_len)`.
    pub fn bytes(&mut self, max_len: usize) -> Vec<u8> {
        let len = self.usize_in(0, max_len.max(1));
        (0..len).map(|_| self.byte()).collect()
    }

    /// A vector with length drawn from `[lo, hi)` whose elements come
    /// from `f`.
    pub fn vec<T>(&mut self, lo: usize, hi: usize, mut f: impl FnMut(&mut Gen) -> T) -> Vec<T> {
        let len = self.usize_in(lo, hi);
        (0..len).map(|_| f(self)).collect()
    }

    /// An element of a non-empty slice.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.usize_in(0, items.len())]
    }
}

/// Runs `property` for `cases` deterministic cases.
///
/// Panics inside the property are annotated with the failing case index
/// and re-raised, so `cargo test` reports both the assertion and the
/// reproduction seed.
pub fn run(cases: u64, property: impl Fn(&mut Gen)) {
    for case in 0..cases {
        let mut g = Gen::new(case);
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| property(&mut g))) {
            // oasis-lint: allow(print-hygiene, "property-harness failure diagnostic for cargo test output; the panic payload is re-raised below")
            eprintln!("property failed at case {case} (of {cases}); re-run is deterministic");
            resume_unwind(payload);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_are_deterministic() {
        let mut a = Gen::new(3);
        let mut b = Gen::new(3);
        for _ in 0..32 {
            assert_eq!(a.u64(), b.u64());
        }
        assert_ne!(Gen::new(1).u64(), Gen::new(2).u64());
    }

    #[test]
    fn ranges_are_respected() {
        run(128, |g| {
            let x = g.u64_in(10, 20);
            assert!((10..20).contains(&x));
            let f = g.f64_in(-1.0, 1.0);
            assert!((-1.0..1.0).contains(&f));
            let v = g.vec(2, 5, |g| g.byte());
            assert!((2..5).contains(&v.len()));
        });
    }

    #[test]
    #[should_panic]
    fn failures_propagate() {
        run(4, |g| assert!(g.u64_in(0, 10) < 5, "eventually draws >= 5"));
    }
}
