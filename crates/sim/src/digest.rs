//! Order-sensitive 64-bit stream digests (FNV-1a over u64 words).
//!
//! The sharded simulator and its CI gates need to prove two event streams
//! identical without necessarily retaining either: each side folds every
//! record, field by field, into an [`Fnv64`] and compares the final words.
//! FNV-1a is not cryptographic — it is a cheap, dependency-free fingerprint
//! with good avalanche behaviour, exactly enough to catch a nondeterminism
//! regression (a reordered event, a perturbed RNG draw, a dropped record).

/// Incremental FNV-1a hasher over a stream of 64-bit words.
///
/// The digest is sensitive to both value and order: folding `a` then `b`
/// differs from `b` then `a`. Two digests are comparable only if both
/// sides folded the same fields in the same agreed order.
///
/// # Examples
///
/// ```
/// use mscope_sim::Fnv64;
///
/// let mut a = Fnv64::new();
/// a.fold_u64(1);
/// a.fold_u64(2);
/// let mut b = Fnv64::new();
/// b.fold_u64(2);
/// b.fold_u64(1);
/// assert_ne!(a.value(), b.value()); // order matters
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv64(u64);

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
/// `FNV_PRIME^k` (wrapping) for `k` in `0..=8`.
const PRIME_POW: [u64; 9] = {
    let mut pow = [1u64; 9];
    let mut k = 1;
    while k < pow.len() {
        pow[k] = pow[k - 1].wrapping_mul(FNV_PRIME);
        k += 1;
    }
    pow
};

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64::new()
    }
}

impl Fnv64 {
    /// A fresh digest at the FNV-1a offset basis.
    pub fn new() -> Fnv64 {
        Fnv64(FNV_OFFSET)
    }

    /// Folds one word into the digest (little-endian byte order).
    ///
    /// This is FNV-1a over the word's eight bytes, computed without the
    /// word's run of high zero bytes: folding a zero byte is `h ^ 0` then
    /// `h * PRIME`, so `k` of them in a row are one multiply by `PRIME^k`.
    /// Most folded words (enum tags, status codes, microsecond timestamps)
    /// have one to four significant bytes, and the multiplies form a serial
    /// dependency chain, so this halves the chain on average.
    #[inline]
    pub fn fold_u64(&mut self, word: u64) {
        let significant = 8 - word.leading_zeros() / 8;
        let mut h = self.0;
        let mut rest = word;
        for _ in 0..significant {
            h = (h ^ (rest & 0xff)).wrapping_mul(FNV_PRIME);
            rest >>= 8;
        }
        self.0 = h.wrapping_mul(PRIME_POW[(8 - significant) as usize]);
    }

    /// Folds an optional word, distinguishing `None` from `Some(0)` by a
    /// presence tag.
    #[inline]
    pub fn fold_opt(&mut self, word: Option<u64>) {
        match word {
            Some(w) => {
                self.fold_u64(1);
                self.fold_u64(w);
            }
            None => self.fold_u64(0),
        }
    }

    /// Folds an `f64` by its IEEE-754 bit pattern (bit-exact, so two runs
    /// agree only when the arithmetic was bit-for-bit identical).
    #[inline]
    pub fn fold_f64(&mut self, x: f64) {
        self.fold_u64(x.to_bits());
    }

    /// The digest of everything folded so far.
    pub fn value(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// FNV-1a byte by byte, the definition `fold_u64` must equal.
    fn fold_bytewise(h: u64, word: u64) -> u64 {
        word.to_le_bytes()
            .iter()
            .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(FNV_PRIME))
    }

    #[test]
    fn fold_is_bytewise_fnv1a() {
        let edges = [0, 1, 0xff, 0x100, 0xffff_ffff, 1 << 56, u64::MAX];
        for word in edges {
            let mut d = Fnv64::new();
            d.fold_u64(word);
            assert_eq!(d.value(), fold_bytewise(FNV_OFFSET, word), "{word:#x}");
        }
        crate::prop::forall("fold_u64 == bytewise FNV-1a", 256, |g| {
            let mut d = Fnv64::new();
            let mut want = FNV_OFFSET;
            for _ in 0..g.usize(1..=32) {
                // Every count of significant bytes, zero bytes inside too.
                let word = g.u64(0..=u64::MAX) >> (8 * g.u64(0..=8)).min(63);
                let word = word & !(0xff << (8 * g.u64(0..=7)));
                d.fold_u64(word);
                want = fold_bytewise(want, word);
                crate::prop_ensure!(d.value() == want, "diverged at {word:#x}");
            }
            Ok(())
        });
    }

    #[test]
    fn empty_digest_is_the_offset_basis() {
        assert_eq!(Fnv64::new().value(), FNV_OFFSET);
    }

    #[test]
    fn same_stream_same_value() {
        let mut a = Fnv64::new();
        let mut b = Fnv64::new();
        for w in [0u64, 7, u64::MAX, 42] {
            a.fold_u64(w);
            b.fold_u64(w);
        }
        assert_eq!(a, b);
    }

    #[test]
    fn none_differs_from_some_zero() {
        let mut a = Fnv64::new();
        a.fold_opt(None);
        let mut b = Fnv64::new();
        b.fold_opt(Some(0));
        assert_ne!(a.value(), b.value());
    }

    #[test]
    fn single_bit_flip_changes_value() {
        let mut a = Fnv64::new();
        a.fold_u64(1 << 63);
        let mut b = Fnv64::new();
        b.fold_u64(0);
        assert_ne!(a.value(), b.value());
    }

    #[test]
    fn f64_fold_is_bit_exact() {
        let mut a = Fnv64::new();
        a.fold_f64(0.1 + 0.2);
        let mut b = Fnv64::new();
        b.fold_f64(0.3);
        assert_ne!(a.value(), b.value(), "0.1+0.2 != 0.3 bitwise");
    }
}
