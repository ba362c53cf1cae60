//! A small in-tree property-testing harness, replacing `proptest` for this
//! offline workspace.
//!
//! The model is deliberately simple: a test is a closure over a [`Gen`]
//! (a seeded case generator) that returns `Err(reason)` when the property
//! fails. [`forall`] runs the closure over many deterministic seeds; on a
//! failure it *shrinks by halving* — it re-runs the same seed with the
//! generator's size budget cut in half, repeatedly, and reports the
//! smallest budget that still fails. Because every generated quantity
//! (collection lengths, numeric magnitudes) is scaled by the budget, a
//! halved budget is a strictly simpler counterexample of the same shape.
//!
//! Reproducing a failure is mechanical: the panic message names the case
//! seed and shrink level, and [`forall_seeded`] re-runs exactly that case.
//!
//! # Examples
//!
//! ```
//! use mscope_sim::prop::{forall, Gen};
//!
//! forall("sorted vec is idempodent", 64, |g: &mut Gen| {
//!     let mut v = g.vec(0..=20, |g| g.i64(-100..=100));
//!     v.sort();
//!     let again = {
//!         let mut w = v.clone();
//!         w.sort();
//!         w
//!     };
//!     if again == v { Ok(()) } else { Err("sort not idempotent".into()) }
//! });
//! ```

use crate::rng::SimRng;
use std::ops::RangeInclusive;

/// How many halvings to attempt when shrinking a failing case.
const MAX_SHRINK: u32 = 16;

/// A deterministic generator of test inputs, parameterized by a shrink
/// level that scales every generated size and magnitude down by `2^level`.
#[derive(Debug)]
pub struct Gen {
    rng: SimRng,
    shrink: u32,
}

impl Gen {
    #[expect(
        clippy::disallowed_methods,
        reason = "the property harness seeds each case (DT004)"
    )]
    fn new(seed: u64, shrink: u32) -> Gen {
        Gen {
            rng: SimRng::seed_from(seed),
            shrink,
        }
    }

    /// Scales an inclusive-range width down by the current shrink level,
    /// keeping at least the range start.
    fn scaled_width(&self, width: u64) -> u64 {
        width >> self.shrink.min(63)
    }

    /// A uniform `u64` in `range`, shrunk toward the range start.
    pub fn u64(&mut self, range: RangeInclusive<u64>) -> u64 {
        let (lo, hi) = (*range.start(), *range.end());
        let width = self.scaled_width(hi - lo);
        self.rng.uniform_u64(lo, lo + width)
    }

    /// A uniform `i64` in `range`, shrunk toward the range start (or toward
    /// zero when the range spans it).
    pub fn i64(&mut self, range: RangeInclusive<i64>) -> i64 {
        let (lo, hi) = (*range.start(), *range.end());
        if lo <= 0 && hi >= 0 && self.shrink > 0 {
            // Shrink magnitudes toward zero rather than toward `lo`.
            let neg = (lo.unsigned_abs()) >> self.shrink.min(63);
            let pos = (hi.unsigned_abs()) >> self.shrink.min(63);
            let v = self.rng.uniform_u64(0, neg + pos);
            return if v <= neg {
                -(v as i64)
            } else {
                (v - neg) as i64
            };
        }
        let width = self.scaled_width(lo.abs_diff(hi));
        lo.wrapping_add(self.rng.uniform_u64(0, width) as i64)
    }

    /// A uniform `usize` in `range`, shrunk toward the range start.
    pub fn usize(&mut self, range: RangeInclusive<usize>) -> usize {
        self.u64(*range.start() as u64..=*range.end() as u64) as usize
    }

    /// A uniform `f64` in `[lo, hi)`, shrunk toward `lo` (toward zero when
    /// the range spans zero).
    pub fn f64(&mut self, range: std::ops::Range<f64>) -> f64 {
        let (lo, hi) = (range.start, range.end);
        let scale = 1.0 / (1u64 << self.shrink.min(63)) as f64;
        if lo < 0.0 && hi > 0.0 {
            return self.rng.uniform(lo * scale, hi * scale);
        }
        lo + (self.rng.uniform(lo, hi) - lo) * scale
    }

    /// A fair (unshrunk) coin flip.
    pub fn bool(&mut self) -> bool {
        self.rng.chance(0.5)
    }

    /// One element of `options`, uniformly.
    ///
    /// # Panics
    ///
    /// Panics if `options` is empty.
    pub fn choose<T: Clone>(&mut self, options: &[T]) -> T {
        assert!(!options.is_empty(), "choose needs at least one option");
        options[self.rng.uniform_u64(0, options.len() as u64 - 1) as usize].clone()
    }

    /// A vector whose length is drawn from `len` (shrunk) and whose
    /// elements come from `item`.
    pub fn vec<T>(
        &mut self,
        len: RangeInclusive<usize>,
        mut item: impl FnMut(&mut Gen) -> T,
    ) -> Vec<T> {
        let n = self.usize(len);
        (0..n).map(|_| item(self)).collect()
    }

    /// A string of `len` printable characters: ASCII plus the separators
    /// and quotes that exercise escaping (`,`, `"`, `'`, `\`) and a few
    /// non-ASCII code points. Never contains newlines or control chars.
    pub fn string(&mut self, len: RangeInclusive<usize>) -> String {
        const EXOTIC: &[char] = &['é', 'ß', '中', '🦀', '"', '\\', ',', '\'', ';', '<', '&'];
        let n = self.usize(len);
        (0..n)
            .map(|_| {
                if self.rng.chance(0.2) {
                    EXOTIC[self.rng.uniform_u64(0, EXOTIC.len() as u64 - 1) as usize]
                } else {
                    // Printable ASCII, space through '~'.
                    (self.rng.uniform_u64(0x20, 0x7E) as u8) as char
                }
            })
            .collect()
    }

    /// An identifier: `[a-z][a-z0-9_]{0,max_tail}`.
    pub fn ident(&mut self, max_tail: usize) -> String {
        let mut s = String::with_capacity(1 + max_tail);
        s.push((self.rng.uniform_u64(b'a' as u64, b'z' as u64) as u8) as char);
        let tail = self.usize(0..=max_tail);
        const TAIL: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789_";
        for _ in 0..tail {
            s.push(TAIL[self.rng.uniform_u64(0, TAIL.len() as u64 - 1) as usize] as char);
        }
        s
    }
}

/// Runs `prop` over `cases` deterministic seeds; panics with the seed,
/// shrink level, and reason of the smallest failure found.
///
/// # Panics
///
/// Panics when the property fails for any generated case.
pub fn forall<F>(name: &str, cases: u64, prop: F)
where
    F: Fn(&mut Gen) -> Result<(), String>,
{
    // A fixed base keeps the suite reproducible run-to-run; derive per-case
    // seeds through the RNG so they do not collide across properties.
    #[expect(
        clippy::disallowed_methods,
        reason = "the property harness derives per-case seeds (DT004)"
    )]
    let mut seeder = SimRng::seed_from(0x6D73_636F_7065 ^ hash_name(name));
    for case in 0..cases {
        let seed = seeder.next_u64();
        if let Err(first) = prop(&mut Gen::new(seed, 0)) {
            // Shrink by halving the size budget while the failure persists.
            let mut best = (0u32, first);
            for level in 1..=MAX_SHRINK {
                match prop(&mut Gen::new(seed, level)) {
                    Err(reason) => best = (level, reason),
                    Ok(()) => break,
                }
            }
            panic!(
                "property `{name}` failed (case {case}, seed {seed:#x}, \
                 shrink level {}): {}",
                best.0, best.1
            );
        }
    }
}

/// Re-runs a single case of a property, for reproducing a reported failure
/// from its seed and shrink level.
///
/// # Errors
///
/// Returns the property's failure reason, if it still fails.
pub fn forall_seeded<F>(seed: u64, shrink: u32, prop: F) -> Result<(), String>
where
    F: Fn(&mut Gen) -> Result<(), String>,
{
    prop(&mut Gen::new(seed, shrink))
}

fn hash_name(name: &str) -> u64 {
    // FNV-1a, enough to decorrelate property names.
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in name.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// Asserts a condition inside a property body, returning `Err` with the
/// formatted message instead of panicking — the harness's counterpart of
/// `proptest`'s `prop_assert!`.
#[macro_export]
macro_rules! prop_ensure {
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return Err(format!($($fmt)+));
        }
    };
    ($cond:expr) => {
        if !($cond) {
            return Err(format!("condition failed: {}", stringify!($cond)));
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passes_trivial_property() {
        forall("tautology", 50, |g| {
            let x = g.u64(0..=100);
            prop_ensure!(x <= 100, "x = {x}");
            Ok(())
        });
    }

    #[test]
    fn generation_is_deterministic() {
        let draw = |seed| {
            let mut g = Gen::new(seed, 0);
            (
                g.u64(0..=1000),
                g.string(0..=10),
                g.vec(0..=5, |g| g.i64(-5..=5)),
            )
        };
        assert_eq!(draw(42), draw(42));
        assert_ne!(draw(42), draw(43));
    }

    #[test]
    fn shrinking_reduces_sizes() {
        let len_at = |shrink| Gen::new(7, shrink).vec(0..=1000, |g| g.u64(0..=10)).len();
        assert!(len_at(4) <= 1000 >> 4);
        // At the deepest shrink level the width collapses to (nearly) zero.
        assert!(Gen::new(7, 63).u64(0..=u64::MAX) <= 1);
        assert_eq!(Gen::new(7, MAX_SHRINK).usize(0..=1000), 0);
    }

    #[test]
    fn failure_reports_seed_and_shrinks() {
        let result = std::panic::catch_unwind(|| {
            forall("always fails on big vecs", 10, |g| {
                let v = g.vec(0..=100, |g| g.u64(0..=9));
                prop_ensure!(v.len() < 2, "len {}", v.len());
                Ok(())
            });
        });
        let msg = *result.unwrap_err().downcast::<String>().unwrap();
        assert!(msg.contains("seed"), "{msg}");
        assert!(msg.contains("shrink level"), "{msg}");
    }

    #[test]
    fn ranges_respected() {
        forall("range bounds", 200, |g| {
            let u = g.u64(5..=9);
            prop_ensure!((5..=9).contains(&u), "u = {u}");
            let i = g.i64(-4..=-2);
            prop_ensure!((-4..=-2).contains(&i), "i = {i}");
            let f = g.f64(1.0..2.0);
            prop_ensure!((1.0..2.0).contains(&f), "f = {f}");
            let s = g.ident(8);
            prop_ensure!(
                s.len() <= 9 && s.chars().next().unwrap().is_ascii_lowercase(),
                "{s}"
            );
            Ok(())
        });
    }
}
