//! Fixed-length bitmaps over transaction ids.
//!
//! A [`Bitmap`] is the storage unit of the vertical index ([`crate::index`]): one bit per
//! transaction, packed into `u64` words. All counting kernels reduce to word-wise
//! `AND`/`popcount` loops, which is why the vertical layout beats row scans — a single
//! machine word tests an item against 64 transactions at once.

/// A fixed-length bit vector indexed by transaction id.
///
/// The length is fixed at construction; bits past `len` inside the last word are always
/// zero (every operation preserves this invariant, which lets `count_ones` and friends
/// skip tail masking).
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct Bitmap {
    words: Vec<u64>,
    len: usize,
}

impl Bitmap {
    /// An all-zero bitmap over `len` bits.
    pub fn zero(len: usize) -> Self {
        Bitmap {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// A bitmap over `len` bits from pre-packed words.
    ///
    /// # Panics
    /// Panics if `words` is not exactly `len.div_ceil(64)` long or a bit past `len` is set.
    pub fn from_words(words: Vec<u64>, len: usize) -> Self {
        assert_eq!(
            words.len(),
            len.div_ceil(64),
            "word count must match the bit length"
        );
        if !len.is_multiple_of(64) {
            if let Some(&last) = words.last() {
                assert_eq!(last >> (len % 64), 0, "bits past the length must be zero");
            }
        }
        Bitmap { words, len }
    }

    /// Number of bits (transactions) the bitmap spans.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the bitmap spans zero bits.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The packed words, least-significant bit = lowest transaction id.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// The number of words the bitmap's allocation holds.
    #[cfg(test)]
    pub(crate) fn capacity_words(&self) -> usize {
        self.words.capacity()
    }

    /// Sets bit `i`.
    ///
    /// # Panics
    /// Panics if `i >= len`.
    pub fn set(&mut self, i: usize) {
        assert!(
            i < self.len,
            "bit {i} out of range for bitmap of {} bits",
            self.len
        );
        self.words[i / 64] |= 1u64 << (i % 64);
    }

    /// Tests bit `i` (false when out of range).
    pub fn get(&self, i: usize) -> bool {
        i < self.len && self.words[i / 64] >> (i % 64) & 1 == 1
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// `popcount(self AND other)` without materialising the intersection.
    ///
    /// Bitmaps of different lengths are compared over the shorter prefix (missing words
    /// are zero).
    pub fn and_popcount(&self, other: &Bitmap) -> usize {
        self.words
            .iter()
            .zip(&other.words)
            .map(|(a, b)| (a & b).count_ones() as usize)
            .sum()
    }

    /// The intersection `self AND other` (length of `self`).
    pub fn and(&self, other: &Bitmap) -> Bitmap {
        let words = self
            .words
            .iter()
            .zip(other.words.iter().chain(std::iter::repeat(&0)))
            .map(|(a, b)| a & b)
            .collect();
        Bitmap {
            words,
            len: self.len,
        }
    }

    /// In-place intersection `self &= other`.
    pub fn and_assign(&mut self, other: &Bitmap) {
        for (i, w) in self.words.iter_mut().enumerate() {
            *w &= other.words.get(i).copied().unwrap_or(0);
        }
    }

    /// Iterates over the indices of set bits in ascending order.
    pub fn ones(&self) -> Ones<'_> {
        Ones {
            words: &self.words,
            word_idx: 0,
            current: self.words.first().copied().unwrap_or(0),
        }
    }
}

/// Iterator over set-bit indices (see [`Bitmap::ones`]).
pub struct Ones<'a> {
    words: &'a [u64],
    word_idx: usize,
    current: u64,
}

impl Iterator for Ones<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        while self.current == 0 {
            self.word_idx += 1;
            if self.word_idx >= self.words.len() {
                return None;
            }
            self.current = self.words[self.word_idx];
        }
        let bit = self.current.trailing_zeros() as usize;
        self.current &= self.current - 1;
        Some(self.word_idx * 64 + bit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_set_get() {
        let mut b = Bitmap::zero(130);
        assert_eq!(b.len(), 130);
        assert!(!b.is_empty());
        assert!(!b.get(0));
        b.set(0);
        b.set(63);
        b.set(64);
        b.set(129);
        assert!(b.get(0) && b.get(63) && b.get(64) && b.get(129));
        assert!(!b.get(1) && !b.get(128));
        assert!(!b.get(1000)); // out of range is just false
        assert_eq!(b.count_ones(), 4);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn set_out_of_range_panics() {
        Bitmap::zero(10).set(10);
    }

    #[test]
    fn and_popcount_matches_materialised_and() {
        let mut a = Bitmap::zero(200);
        let mut b = Bitmap::zero(200);
        for i in (0..200).step_by(3) {
            a.set(i);
        }
        for i in (0..200).step_by(5) {
            b.set(i);
        }
        let both = a.and(&b);
        assert_eq!(a.and_popcount(&b), both.count_ones());
        // Multiples of 15 in [0, 200): 0,15,...,195 -> 14 values.
        assert_eq!(both.count_ones(), 14);
        let mut c = a.clone();
        c.and_assign(&b);
        assert_eq!(c, both);
    }

    #[test]
    fn ones_iterates_in_order() {
        let mut b = Bitmap::zero(150);
        let expected = vec![0usize, 1, 63, 64, 100, 149];
        for &i in &expected {
            b.set(i);
        }
        let got: Vec<usize> = b.ones().collect();
        assert_eq!(got, expected);
        assert_eq!(Bitmap::zero(0).ones().count(), 0);
        assert_eq!(Bitmap::zero(64).ones().count(), 0);
    }

    #[test]
    fn empty_bitmap_edge_cases() {
        let e = Bitmap::zero(0);
        assert!(e.is_empty());
        assert_eq!(e.count_ones(), 0);
        assert_eq!(e.and_popcount(&Bitmap::zero(100)), 0);
    }
}
