//! Simulated time.
//!
//! milliScope's whole point is *millisecond-granularity* observation, so the
//! simulation kernel keeps time at microsecond resolution: fine enough that
//! rounding to milliseconds for reporting loses nothing causally, coarse
//! enough that a `u64` lasts ~584,000 years of simulated time.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A point in simulated time, measured in microseconds since the start of the
/// experiment.
///
/// `SimTime` is totally ordered and starts at [`SimTime::ZERO`]. Arithmetic
/// with [`SimDuration`] is saturating on subtraction (time never goes
/// negative) and panics on overflow in debug builds like ordinary integer
/// arithmetic.
///
/// # Examples
///
/// ```
/// use mscope_sim::{SimTime, SimDuration};
///
/// let t = SimTime::ZERO + SimDuration::from_millis(5);
/// assert_eq!(t.as_micros(), 5_000);
/// assert_eq!(t.as_millis(), 5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);
mscope_serdes::json_newtype!(SimTime);

/// A span of simulated time, measured in microseconds.
///
/// # Examples
///
/// ```
/// use mscope_sim::SimDuration;
///
/// let d = SimDuration::from_millis(2) + SimDuration::from_micros(500);
/// assert_eq!(d.as_micros(), 2_500);
/// assert_eq!(d.as_millis_f64(), 2.5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);
mscope_serdes::json_newtype!(SimDuration);

impl SimTime {
    /// The start of simulated time.
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant; useful as an "infinitely far"
    /// sentinel for deadlines.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates an instant from microseconds since experiment start.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us)
    }

    /// Creates an instant from milliseconds since experiment start.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000)
    }

    /// Creates an instant from seconds since experiment start.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000)
    }

    /// Microseconds since experiment start.
    #[inline]
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Whole milliseconds since experiment start (truncating).
    #[inline]
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000
    }

    /// Seconds since experiment start as a float.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// Milliseconds since experiment start as a float.
    #[inline]
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// The duration elapsed since `earlier`, or [`SimDuration::ZERO`] if
    /// `earlier` is in the future (saturating).
    ///
    /// # Examples
    ///
    /// ```
    /// use mscope_sim::SimTime;
    /// let a = SimTime::from_millis(3);
    /// let b = SimTime::from_millis(10);
    /// assert_eq!(b.since(a).as_millis(), 7);
    /// assert_eq!(a.since(b).as_micros(), 0);
    /// ```
    #[inline]
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Rounds this instant *down* to a multiple of `window`.
    ///
    /// Used to bucket samples into fixed observation windows (e.g. the 50 ms
    /// Point-in-Time windows of the paper's Figure 2).
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    #[inline]
    pub fn align_down(self, window: SimDuration) -> SimTime {
        assert!(window.0 > 0, "window must be non-zero");
        SimTime(self.0 - self.0 % window.0)
    }
}

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);
    /// The longest representable duration.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Creates a duration from microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us)
    }

    /// Creates a duration from milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000)
    }

    /// Creates a duration from seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000)
    }

    /// Creates a duration from fractional seconds, rounding to the nearest
    /// microsecond. Negative inputs clamp to zero.
    #[inline]
    pub fn from_secs_f64(s: f64) -> Self {
        SimDuration((s.max(0.0) * 1_000_000.0).round() as u64)
    }

    /// Creates a duration from fractional milliseconds, rounding to the
    /// nearest microsecond. Negative inputs clamp to zero.
    #[inline]
    pub fn from_millis_f64(ms: f64) -> Self {
        SimDuration((ms.max(0.0) * 1_000.0).round() as u64)
    }

    /// This duration in microseconds.
    #[inline]
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// This duration in whole milliseconds (truncating).
    #[inline]
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000
    }

    /// This duration in fractional milliseconds.
    #[inline]
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// This duration in fractional seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// `true` if this duration is zero.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction.
    #[inline]
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }

    /// Multiplies the duration by a non-negative float, rounding to the
    /// nearest microsecond.
    #[inline]
    pub fn mul_f64(self, factor: f64) -> SimDuration {
        debug_assert!(factor >= 0.0, "duration factor must be non-negative");
        SimDuration((self.0 as f64 * factor).round() as u64)
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    /// Saturating: never goes below [`SimTime::ZERO`].
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    /// Saturating: returns [`SimDuration::ZERO`] if `rhs` is later.
    #[inline]
    fn sub(self, rhs: SimTime) -> SimDuration {
        self.since(rhs)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    /// Saturating subtraction.
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl SubAssign for SimDuration {
    #[inline]
    fn sub_assign(&mut self, rhs: SimDuration) {
        self.0 = self.0.saturating_sub(rhs.0);
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 * rhs)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    /// # Panics
    /// Panics if `rhs` is zero.
    #[inline]
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl Div<SimDuration> for SimDuration {
    type Output = f64;
    /// Ratio of two durations.
    #[inline]
    fn div(self, rhs: SimDuration) -> f64 {
        self.0 as f64 / rhs.0 as f64
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}ms", self.as_millis_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}ms", self.as_millis_f64())
    }
}

/// Appends a `SimTime` as a wall-clock timestamp (`HH:MM:SS.mmmuuu`) to
/// `out` — the one formatter behind every emulated monitor log format,
/// which mimic real tools. Allocates nothing once `out` has room.
///
/// The experiment is assumed to start at 00:00:00. Hours wrap at 24 like a
/// real clock would across midnight.
///
/// # Examples
///
/// ```
/// use mscope_sim::{push_wallclock, SimTime};
/// let mut line = String::from("t=");
/// push_wallclock(&mut line, SimTime::from_millis(61_234));
/// assert_eq!(line, "t=00:01:01.234000");
/// ```
pub fn push_wallclock(out: &mut String, t: SimTime) {
    let us = t.as_micros();
    let total_secs = us / 1_000_000;
    let fields = [
        ((total_secs / 3600) % 24, 2),
        ((total_secs / 60) % 60, 2),
        (total_secs % 60, 2),
        (us % 1_000_000, 6),
    ];
    let mut text = [b':'; 15];
    text[8] = b'.';
    let mut at = 0;
    for (value, width) in fields {
        let mut rest = value;
        for slot in text[at..at + width].iter_mut().rev() {
            *slot = b'0' + (rest % 10) as u8;
            rest /= 10;
        }
        at += width + 1;
    }
    out.extend(text.iter().map(|&b| char::from(b)));
}

/// [`push_wallclock`] into a fresh `String`.
///
/// # Examples
///
/// ```
/// use mscope_sim::{SimTime, wallclock};
/// assert_eq!(wallclock(SimTime::from_millis(61_234)), "00:01:01.234000");
/// ```
pub fn wallclock(t: SimTime) -> String {
    let mut out = String::with_capacity(15);
    push_wallclock(&mut out, t);
    out
}

/// Parses a `HH:MM:SS.ffffff` timestamp produced by [`wallclock`] back into a
/// [`SimTime`]. Fractional digits beyond microseconds are truncated; missing
/// fractional part is treated as zero.
///
/// Returns `None` on malformed input.
///
/// # Examples
///
/// ```
/// use mscope_sim::{SimTime, wallclock, parse_wallclock};
/// let t = SimTime::from_micros(3_725_000_123);
/// assert_eq!(parse_wallclock(&wallclock(t)), Some(t));
/// ```
pub fn parse_wallclock(s: &str) -> Option<SimTime> {
    let (hms, frac) = match s.split_once('.') {
        Some((a, b)) => (a, b),
        None => (s, ""),
    };
    let mut parts = hms.split(':');
    let h: u64 = parts.next()?.parse().ok()?;
    let m: u64 = parts.next()?.parse().ok()?;
    let sec: u64 = parts.next()?.parse().ok()?;
    if parts.next().is_some() || m >= 60 || sec >= 60 {
        return None;
    }
    // The first six fractional places are the microseconds; whatever
    // follows them is truncated unread. A non-ASCII character there has
    // no digit among its bytes, so scanning bytes rejects what scanning
    // characters would.
    let mut us = 0u64;
    let mut scale = 1_000_000u64;
    for b in frac.bytes().take(6) {
        if !b.is_ascii_digit() {
            return None;
        }
        us = us * 10 + u64::from(b - b'0');
        scale /= 10;
    }
    us *= scale;
    Some(SimTime::from_micros(
        (h * 3600 + m * 60 + sec) * 1_000_000 + us,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_arithmetic_roundtrips() {
        let t = SimTime::from_millis(100);
        let d = SimDuration::from_micros(250);
        assert_eq!((t + d).as_micros(), 100_250);
        assert_eq!((t + d) - d, t);
        assert_eq!((t + d) - t, d);
    }

    #[test]
    fn subtraction_saturates() {
        let a = SimTime::from_millis(1);
        let b = SimTime::from_millis(2);
        assert_eq!(a - b, SimDuration::ZERO);
        assert_eq!(a - SimDuration::from_secs(10), SimTime::ZERO);
        assert_eq!(
            SimDuration::from_millis(1).saturating_sub(SimDuration::from_millis(5)),
            SimDuration::ZERO
        );
    }

    #[test]
    fn align_down_buckets() {
        let w = SimDuration::from_millis(50);
        assert_eq!(
            SimTime::from_millis(0).align_down(w),
            SimTime::from_millis(0)
        );
        assert_eq!(
            SimTime::from_millis(49).align_down(w),
            SimTime::from_millis(0)
        );
        assert_eq!(
            SimTime::from_millis(50).align_down(w),
            SimTime::from_millis(50)
        );
        assert_eq!(
            SimTime::from_millis(149).align_down(w),
            SimTime::from_millis(100)
        );
    }

    #[test]
    #[should_panic(expected = "window must be non-zero")]
    fn align_down_zero_window_panics() {
        SimTime::from_millis(1).align_down(SimDuration::ZERO);
    }

    #[test]
    fn float_conversions() {
        let d = SimDuration::from_millis_f64(1.5);
        assert_eq!(d.as_micros(), 1_500);
        assert_eq!(d.as_millis_f64(), 1.5);
        assert_eq!(SimDuration::from_secs_f64(-1.0), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(0.25).as_micros(), 250_000);
    }

    #[test]
    fn duration_scaling() {
        let d = SimDuration::from_millis(10);
        assert_eq!((d * 3).as_millis(), 30);
        assert_eq!((d / 4).as_micros(), 2_500);
        assert!((d.mul_f64(1.5).as_millis_f64() - 15.0).abs() < 1e-9);
        assert_eq!(d / SimDuration::from_millis(4), 2.5);
    }

    #[test]
    fn wallclock_formatting() {
        assert_eq!(wallclock(SimTime::ZERO), "00:00:00.000000");
        assert_eq!(wallclock(SimTime::from_micros(1)), "00:00:00.000001");
        assert_eq!(
            wallclock(SimTime::from_secs(3661) + SimDuration::from_micros(42)),
            "01:01:01.000042"
        );
    }

    #[test]
    fn push_wallclock_matches_the_format_rule() {
        crate::prop::forall("push_wallclock format rule", 1024, |g| {
            // Within a day, across many days, and near the top of `u64`.
            let us = match g.usize(0..=2) {
                0 => g.u64(0..=86_399_999_999),
                1 => g.u64(0..=1_000 * 86_400_000_000),
                _ => u64::MAX - g.u64(0..=u64::MAX / 2),
            };
            let (secs, sub_us) = (us / 1_000_000, us % 1_000_000);
            let (h, m, s) = ((secs / 3600) % 24, (secs / 60) % 60, secs % 60);
            let want = format!("{h:02}:{m:02}:{s:02}.{sub_us:06}");
            let mut got = String::from("x");
            push_wallclock(&mut got, SimTime::from_micros(us));
            crate::prop_ensure!(got[1..] == want, "us={us}: {got:?} vs {want:?}");
            crate::prop_ensure!(wallclock(SimTime::from_micros(us)) == want, "us={us}");
            Ok(())
        });
    }

    #[test]
    fn wallclock_parse_roundtrip() {
        for us in [0u64, 1, 999, 1_000_000, 86_399_999_999] {
            let t = SimTime::from_micros(us);
            assert_eq!(parse_wallclock(&wallclock(t)), Some(t), "us={us}");
        }
    }

    #[test]
    fn wallclock_parse_rejects_garbage() {
        assert_eq!(parse_wallclock(""), None);
        assert_eq!(parse_wallclock("12:00"), None);
        assert_eq!(parse_wallclock("aa:bb:cc"), None);
        assert_eq!(parse_wallclock("00:61:00"), None);
        assert_eq!(parse_wallclock("00:00:00.x"), None);
        assert_eq!(parse_wallclock("00:00:00:00"), None);
    }

    #[test]
    fn wallclock_parse_partial_fraction() {
        assert_eq!(
            parse_wallclock("00:00:01.5"),
            Some(SimTime::from_micros(1_500_000))
        );
        assert_eq!(parse_wallclock("00:00:01"), Some(SimTime::from_secs(1)));
    }

    #[test]
    fn wallclock_parse_truncates_past_microseconds() {
        let t = Some(SimTime::from_micros(1_123_456));
        assert_eq!(parse_wallclock("00:00:01.123456"), t);
        assert_eq!(parse_wallclock("00:00:01.123456789"), t);
        // Past the sixth place nothing is read, digit or not.
        assert_eq!(parse_wallclock("00:00:01.123456xyz"), t);
        assert_eq!(parse_wallclock("00:00:01.123456é"), t);
        assert_eq!(parse_wallclock("00:00:01.123456.7"), t);
    }

    #[test]
    fn wallclock_parse_rejects_non_digits_in_the_first_six_places() {
        for s in [
            "00:00:01.12x456",
            "00:00:01.12345x",
            "00:00:01.1 ",
            "00:00:01.-1",
            "00:00:01.+1",
            "00:00:01.1.2",
            "00:00:01.12é",
            "00:00:01.12345é",
            "00:00:01.１２３",
        ] {
            assert_eq!(parse_wallclock(s), None, "{s:?}");
        }
    }

    #[test]
    fn wallclock_parse_non_ascii_and_no_fraction_forms() {
        assert_eq!(parse_wallclock("é"), None);
        assert_eq!(parse_wallclock("00:00:é"), None);
        assert_eq!(parse_wallclock("００:００:０１"), None);
        assert_eq!(parse_wallclock("中:00:01.5"), None);
        // No fraction, with or without the dot.
        assert_eq!(
            parse_wallclock("12:59:59"),
            Some(SimTime::from_secs(46_799))
        );
        assert_eq!(parse_wallclock("00:00:01."), Some(SimTime::from_secs(1)));
        assert_eq!(parse_wallclock("1:2:3"), Some(SimTime::from_secs(3_723)));
        assert_eq!(parse_wallclock("00:00:60"), None);
    }

    /// The fraction rule as it was first written — collect six characters,
    /// then parse them — kept as the oracle for the allocation-free scan.
    fn fraction_by_collecting(frac: &str) -> Option<u64> {
        if frac.is_empty() {
            return Some(0);
        }
        let digits: String = frac.chars().take(6).collect();
        if digits.chars().any(|c| !c.is_ascii_digit()) {
            return None;
        }
        let val: u64 = digits.parse().ok()?;
        Some(val * 10u64.pow(6 - digits.len() as u32))
    }

    #[test]
    fn wallclock_fraction_scan_matches_the_collecting_rule() {
        crate::prop::forall("wallclock fraction scan", 512, |g| {
            const ALPHABET: &[char] = &['0', '1', '5', '9', '9', '0', '.', 'x', ' ', 'é', '７'];
            let frac: String = g.vec(0..=9, |g| g.choose(ALPHABET)).into_iter().collect();
            let got = parse_wallclock(&format!("00:00:07.{frac}"));
            let want = fraction_by_collecting(&frac).map(|us| SimTime::from_micros(7_000_000 + us));
            crate::prop_ensure!(got == want, "{frac:?}: {got:?} vs {want:?}");
            Ok(())
        });
    }

    #[test]
    fn display_is_millis() {
        assert_eq!(SimTime::from_micros(1500).to_string(), "1.500ms");
        assert_eq!(SimDuration::from_micros(250).to_string(), "0.250ms");
    }
}
