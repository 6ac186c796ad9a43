//! A compact fixed-size bitset.
//!
//! Page tables track one present/accessed/dirty bit per page; a 4 GiB VM
//! has over a million pages, so metadata must be dense. This bitmap packs
//! 64 bits per word and supports fast population counts and iteration over
//! set bits — the operations dirty-page scans and working-set accounting
//! rely on.

/// A fixed-size bitset over indices `0..len`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Bitmap {
    words: Vec<u64>,
    len: usize,
    ones: usize,
}

impl Bitmap {
    /// Creates a bitmap of `len` zero bits.
    pub fn new(len: usize) -> Self {
        Bitmap { words: vec![0; len.div_ceil(64)], len, ones: 0 }
    }

    /// Number of bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if the bitmap has zero bits.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of set bits (O(1); maintained incrementally).
    pub fn count_ones(&self) -> usize {
        self.ones
    }

    /// Reads bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "bit index {i} out of range {}", self.len);
        self.words[i / 64] & (1 << (i % 64)) != 0
    }

    /// Sets bit `i`; returns `true` if the bit changed.
    pub fn set(&mut self, i: usize) -> bool {
        assert!(i < self.len, "bit index {i} out of range {}", self.len);
        let (w, m) = (i / 64, 1u64 << (i % 64));
        if self.words[w] & m == 0 {
            self.words[w] |= m;
            self.ones += 1;
            true
        } else {
            false
        }
    }

    /// Clears bit `i`; returns `true` if the bit changed.
    pub fn clear(&mut self, i: usize) -> bool {
        assert!(i < self.len, "bit index {i} out of range {}", self.len);
        let (w, m) = (i / 64, 1u64 << (i % 64));
        if self.words[w] & m != 0 {
            self.words[w] &= !m;
            self.ones -= 1;
            true
        } else {
            false
        }
    }

    /// Clears every bit.
    pub fn clear_all(&mut self) {
        self.words.fill(0);
        self.ones = 0;
    }

    /// Sets every bit.
    pub fn set_all(&mut self) {
        self.words.fill(!0);
        // Mask off the bits beyond `len` in the last word.
        let tail = self.len % 64;
        if tail != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << tail) - 1;
            }
        }
        self.ones = self.len;
    }

    /// Iterates over the indices of set bits, in ascending order.
    pub fn iter_ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(move |(wi, &w)| {
            let mut w = w;
            core::iter::from_fn(move || {
                if w == 0 {
                    None
                } else {
                    let bit = w.trailing_zeros() as usize;
                    w &= w - 1;
                    Some(wi * 64 + bit)
                }
            })
        })
    }

    /// Takes the set bits: returns their indices and clears the bitmap.
    pub fn drain_ones(&mut self) -> Vec<usize> {
        let ones: Vec<usize> = self.iter_ones().collect();
        self.clear_all();
        ones
    }

    /// Bitwise OR with another bitmap of the same length.
    ///
    /// # Panics
    ///
    /// Panics if lengths differ.
    pub fn union_with(&mut self, other: &Bitmap) {
        assert_eq!(self.len, other.len, "bitmap length mismatch");
        let mut ones = 0;
        for (a, &b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
            ones += a.count_ones() as usize;
        }
        self.ones = ones;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_clear() {
        let mut b = Bitmap::new(130);
        assert!(!b.get(0));
        assert!(b.set(0));
        assert!(!b.set(0), "setting twice reports no change");
        assert!(b.set(64));
        assert!(b.set(129));
        assert_eq!(b.count_ones(), 3);
        assert!(b.get(129));
        assert!(b.clear(64));
        assert!(!b.clear(64));
        assert_eq!(b.count_ones(), 2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_panics() {
        let b = Bitmap::new(10);
        b.get(10);
    }

    #[test]
    fn iter_ones_ascending() {
        let mut b = Bitmap::new(200);
        for i in [3usize, 64, 65, 127, 128, 199] {
            b.set(i);
        }
        let ones: Vec<usize> = b.iter_ones().collect();
        assert_eq!(ones, vec![3, 64, 65, 127, 128, 199]);
    }

    #[test]
    fn drain_ones_clears() {
        let mut b = Bitmap::new(100);
        b.set(5);
        b.set(50);
        assert_eq!(b.drain_ones(), vec![5, 50]);
        assert_eq!(b.count_ones(), 0);
        assert!(!b.get(5));
    }

    #[test]
    fn set_all_respects_length() {
        let mut b = Bitmap::new(70);
        b.set_all();
        assert_eq!(b.count_ones(), 70);
        assert_eq!(b.iter_ones().count(), 70);
        b.clear_all();
        assert_eq!(b.count_ones(), 0);
    }

    #[test]
    fn set_all_on_word_boundary() {
        let mut b = Bitmap::new(128);
        b.set_all();
        assert_eq!(b.count_ones(), 128);
    }

    #[test]
    fn union() {
        let mut a = Bitmap::new(100);
        let mut b = Bitmap::new(100);
        a.set(1);
        b.set(2);
        b.set(1);
        a.union_with(&b);
        assert_eq!(a.iter_ones().collect::<Vec<_>>(), vec![1, 2]);
        assert_eq!(a.count_ones(), 2);
    }

    #[test]
    fn empty_bitmap() {
        let b = Bitmap::new(0);
        assert!(b.is_empty());
        assert_eq!(b.iter_ones().count(), 0);
    }
}
