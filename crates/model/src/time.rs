//! Integer time used throughout the workspace.
//!
//! All analyses and the discrete-event simulator operate on an integer
//! timeline so results are exactly reproducible across runs and platforms.
//! One [`Time`] tick corresponds to **one microsecond**; the evaluation
//! workloads of the paper (periods log-uniform in `[10, 100]` ms) map to
//! `[10_000, 100_000]` ticks.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Rem, Sub, SubAssign};

/// A point in time or a duration, in integer ticks (1 tick = 1 µs).
///
/// `Time` is deliberately a single type for both instants and durations, as
/// is conventional in response-time analysis where both live on the same
/// one-dimensional timeline. Arithmetic panics on overflow in debug builds
/// (standard `i64` semantics); the magnitudes used by the analyses
/// (≤ hours in µs) are far below `i64::MAX`.
///
/// # Example
///
/// ```
/// use pmcs_model::Time;
///
/// let period = Time::from_millis(10);
/// assert_eq!(period.as_ticks(), 10_000);
/// assert_eq!(period + Time::from_micros(500), Time::from_micros(10_500));
/// assert_eq!(period.div_ceil(Time::from_millis(3)), 4);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Time(i64);

impl Time {
    /// The zero instant / empty duration.
    pub const ZERO: Time = Time(0);
    /// Largest representable time; used as "infinity" sentinel by analyses.
    pub const MAX: Time = Time(i64::MAX);
    /// One tick (1 µs).
    pub const TICK: Time = Time(1);

    /// Creates a time from raw ticks.
    ///
    /// ```
    /// # use pmcs_model::Time;
    /// assert_eq!(Time::from_ticks(42).as_ticks(), 42);
    /// ```
    #[inline]
    pub const fn from_ticks(ticks: i64) -> Self {
        Time(ticks)
    }

    /// Creates a time from microseconds (1 µs = 1 tick).
    #[inline]
    pub const fn from_micros(us: i64) -> Self {
        Time(us)
    }

    /// Creates a time from milliseconds.
    #[inline]
    pub const fn from_millis(ms: i64) -> Self {
        Time(ms * 1_000)
    }

    /// Creates a time from seconds.
    #[inline]
    pub const fn from_secs(s: i64) -> Self {
        Time(s * 1_000_000)
    }

    /// Raw tick count.
    #[inline]
    pub const fn as_ticks(self) -> i64 {
        self.0
    }

    /// This time expressed in (possibly fractional) milliseconds.
    #[inline]
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// This time as a float tick count (for LP coefficients).
    #[inline]
    pub fn as_f64(self) -> f64 {
        self.0 as f64
    }

    /// Builds a time from a float tick count, rounding to the nearest tick.
    ///
    /// Used when converting utilization-derived execution times back to the
    /// integer timeline; callers that need a *safe* (pessimistic) conversion
    /// should use [`Time::from_f64_ceil`].
    #[inline]
    pub fn from_f64_round(value: f64) -> Self {
        Time(value.round() as i64)
    }

    /// Builds a time from a float tick count, rounding up (pessimistic).
    #[inline]
    pub fn from_f64_ceil(value: f64) -> Self {
        Time(value.ceil() as i64)
    }

    /// `true` iff this is the zero time.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// `true` iff this time is non-negative (valid duration).
    #[inline]
    pub const fn is_duration(self) -> bool {
        self.0 >= 0
    }

    /// Saturating subtraction clamped at zero: `max(self - rhs, 0)`.
    ///
    /// ```
    /// # use pmcs_model::Time;
    /// assert_eq!(Time::from_ticks(3).saturating_sub(Time::from_ticks(5)), Time::ZERO);
    /// ```
    #[inline]
    pub fn saturating_sub(self, rhs: Time) -> Time {
        Time((self.0 - rhs.0).max(0))
    }

    /// Checked addition: `None` when the sum leaves the tick range.
    ///
    /// ```
    /// # use pmcs_model::Time;
    /// assert_eq!(Time::from_ticks(2).checked_add(Time::from_ticks(3)), Some(Time::from_ticks(5)));
    /// assert_eq!(Time::MAX.checked_add(Time::TICK), None);
    /// ```
    #[inline]
    pub fn checked_add(self, rhs: Time) -> Option<Time> {
        self.0.checked_add(rhs.0).map(Time)
    }

    /// Checked addition that saturates at [`Time::MAX`] (infinity sentinel
    /// stays infinite).
    #[inline]
    pub fn saturating_add(self, rhs: Time) -> Time {
        Time(self.0.saturating_add(rhs.0))
    }

    /// Integer ceiling division of two times: `ceil(self / divisor)`.
    ///
    /// This is the `⌈δ/T⌉` used by sporadic arrival curves.
    ///
    /// # Panics
    ///
    /// Panics if `divisor` is zero or negative, or if `self` is negative.
    #[inline]
    pub fn div_ceil(self, divisor: Time) -> u64 {
        assert!(divisor.0 > 0, "div_ceil: divisor must be positive");
        assert!(self.0 >= 0, "div_ceil: dividend must be non-negative");
        (self.0 as u64).div_ceil(divisor.0 as u64)
    }

    /// Integer floor division of two times: `floor(self / divisor)`.
    ///
    /// # Panics
    ///
    /// Panics if `divisor` is zero or negative, or if `self` is negative.
    #[inline]
    pub fn div_floor(self, divisor: Time) -> u64 {
        assert!(divisor.0 > 0, "div_floor: divisor must be positive");
        assert!(self.0 >= 0, "div_floor: dividend must be non-negative");
        self.0 as u64 / divisor.0 as u64
    }

    /// The larger of two times.
    #[inline]
    pub fn max(self, other: Time) -> Time {
        Time(self.0.max(other.0))
    }

    /// The smaller of two times.
    #[inline]
    pub fn min(self, other: Time) -> Time {
        Time(self.0.min(other.0))
    }
}

impl fmt::Debug for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Time({})", self.0)
    }
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 == i64::MAX {
            return write!(f, "∞");
        }
        if self.0.abs() >= 1_000 && self.0 % 1_000 == 0 {
            write!(f, "{}ms", self.0 / 1_000)
        } else {
            write!(f, "{}µs", self.0)
        }
    }
}

impl Add for Time {
    type Output = Time;
    #[inline]
    fn add(self, rhs: Time) -> Time {
        Time(self.0 + rhs.0)
    }
}

impl AddAssign for Time {
    #[inline]
    fn add_assign(&mut self, rhs: Time) {
        self.0 += rhs.0;
    }
}

impl Sub for Time {
    type Output = Time;
    #[inline]
    fn sub(self, rhs: Time) -> Time {
        Time(self.0 - rhs.0)
    }
}

impl SubAssign for Time {
    #[inline]
    fn sub_assign(&mut self, rhs: Time) {
        self.0 -= rhs.0;
    }
}

impl Neg for Time {
    type Output = Time;
    #[inline]
    fn neg(self) -> Time {
        Time(-self.0)
    }
}

impl Mul<i64> for Time {
    type Output = Time;
    #[inline]
    fn mul(self, rhs: i64) -> Time {
        Time(self.0 * rhs)
    }
}

impl Mul<Time> for i64 {
    type Output = Time;
    #[inline]
    fn mul(self, rhs: Time) -> Time {
        Time(self * rhs.0)
    }
}

impl Div<i64> for Time {
    type Output = Time;
    #[inline]
    fn div(self, rhs: i64) -> Time {
        Time(self.0 / rhs)
    }
}

impl Rem<Time> for Time {
    type Output = Time;
    #[inline]
    fn rem(self, rhs: Time) -> Time {
        Time(self.0 % rhs.0)
    }
}

impl Sum for Time {
    fn sum<I: Iterator<Item = Time>>(iter: I) -> Time {
        iter.fold(Time::ZERO, |acc, t| acc + t)
    }
}

impl<'a> Sum<&'a Time> for Time {
    fn sum<I: Iterator<Item = &'a Time>>(iter: I) -> Time {
        iter.fold(Time::ZERO, |acc, t| acc + *t)
    }
}

impl From<i64> for Time {
    fn from(ticks: i64) -> Self {
        Time(ticks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_scale_correctly() {
        assert_eq!(Time::from_micros(1), Time::from_ticks(1));
        assert_eq!(Time::from_millis(1), Time::from_ticks(1_000));
        assert_eq!(Time::from_secs(1), Time::from_ticks(1_000_000));
        assert_eq!(Time::default(), Time::ZERO);
    }

    #[test]
    fn arithmetic_behaves_like_integers() {
        let a = Time::from_ticks(7);
        let b = Time::from_ticks(3);
        assert_eq!(a + b, Time::from_ticks(10));
        assert_eq!(a - b, Time::from_ticks(4));
        assert_eq!(a * 2, Time::from_ticks(14));
        assert_eq!(2 * a, Time::from_ticks(14));
        assert_eq!(a / 2, Time::from_ticks(3));
        assert_eq!(a % b, Time::from_ticks(1));
        assert_eq!(-a, Time::from_ticks(-7));
    }

    #[test]
    fn saturating_sub_clamps_at_zero() {
        assert_eq!(
            Time::from_ticks(3).saturating_sub(Time::from_ticks(10)),
            Time::ZERO
        );
        assert_eq!(
            Time::from_ticks(10).saturating_sub(Time::from_ticks(3)),
            Time::from_ticks(7)
        );
    }

    #[test]
    fn saturating_add_preserves_infinity() {
        assert_eq!(Time::MAX.saturating_add(Time::from_ticks(5)), Time::MAX);
    }

    #[test]
    fn div_ceil_and_floor() {
        let t = Time::from_ticks(10);
        assert_eq!(Time::from_ticks(25).div_ceil(t), 3);
        assert_eq!(Time::from_ticks(30).div_ceil(t), 3);
        assert_eq!(Time::from_ticks(25).div_floor(t), 2);
        assert_eq!(Time::from_ticks(30).div_floor(t), 3);
        assert_eq!(Time::ZERO.div_ceil(t), 0);
    }

    #[test]
    #[should_panic(expected = "divisor must be positive")]
    fn div_ceil_rejects_zero_divisor() {
        let _ = Time::from_ticks(5).div_ceil(Time::ZERO);
    }

    #[test]
    fn min_max() {
        let a = Time::from_ticks(4);
        let b = Time::from_ticks(9);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
    }

    #[test]
    fn sum_of_times() {
        let v = [
            Time::from_ticks(1),
            Time::from_ticks(2),
            Time::from_ticks(3),
        ];
        let s: Time = v.iter().sum();
        assert_eq!(s, Time::from_ticks(6));
        let s2: Time = v.into_iter().sum();
        assert_eq!(s2, Time::from_ticks(6));
    }

    #[test]
    fn display_is_human_readable() {
        assert_eq!(Time::from_millis(10).to_string(), "10ms");
        assert_eq!(Time::from_ticks(1_500).to_string(), "1500µs");
        assert_eq!(Time::MAX.to_string(), "∞");
    }

    #[test]
    fn float_conversions() {
        assert_eq!(Time::from_f64_round(2.4), Time::from_ticks(2));
        assert_eq!(Time::from_f64_round(2.6), Time::from_ticks(3));
        assert_eq!(Time::from_f64_ceil(2.1), Time::from_ticks(3));
        assert_eq!(Time::from_ticks(5).as_f64(), 5.0);
    }
}
