//! Simulation time in integer picoseconds.
//!
//! Picosecond resolution lets us represent serialization times exactly at
//! every Ethernet speed we model: one byte at 100 Gb/s is 80 ps, at 400 Gb/s
//! it is 20 ps. A `u64` of picoseconds covers ~213 days of simulated time,
//! far beyond any packet-level experiment in this repository (the year-long
//! fabric study in `lg-fabric` uses its own coarse second-level clock).

use core::fmt;
use core::ops::{Add, AddAssign, Sub, SubAssign};
use serde::{Deserialize, Serialize};

/// An absolute instant on the simulation clock, in picoseconds since start.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Time(pub u64);

/// A span of simulation time, in picoseconds.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Duration(pub u64);

impl Time {
    /// The beginning of simulated time.
    pub const ZERO: Time = Time(0);
    /// The largest representable instant; used as an "infinitely far" sentinel.
    pub const MAX: Time = Time(u64::MAX);

    /// Construct from whole picoseconds.
    pub const fn from_ps(ps: u64) -> Time {
        Time(ps)
    }
    /// Construct from whole nanoseconds.
    pub const fn from_ns(ns: u64) -> Time {
        Time(ns * 1_000)
    }
    /// Construct from whole microseconds.
    pub const fn from_us(us: u64) -> Time {
        Time(us * 1_000_000)
    }
    /// Construct from whole milliseconds.
    pub const fn from_ms(ms: u64) -> Time {
        Time(ms * 1_000_000_000)
    }
    /// Construct from whole seconds.
    pub const fn from_secs(s: u64) -> Time {
        Time(s * 1_000_000_000_000)
    }

    /// This instant expressed in picoseconds.
    pub const fn as_ps(self) -> u64 {
        self.0
    }
    /// This instant expressed in (truncated) nanoseconds.
    pub const fn as_ns(self) -> u64 {
        self.0 / 1_000
    }
    /// This instant expressed in fractional microseconds.
    pub fn as_us_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }
    /// This instant expressed in fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e12
    }

    /// Time elapsed since `earlier`, saturating to zero if `earlier` is later.
    pub fn saturating_since(self, earlier: Time) -> Duration {
        Duration(self.0.saturating_sub(earlier.0))
    }
}

impl Duration {
    /// The empty span.
    pub const ZERO: Duration = Duration(0);
    /// The largest representable span; used as an "infinite" sentinel.
    pub const MAX: Duration = Duration(u64::MAX);

    /// Construct from whole picoseconds.
    pub const fn from_ps(ps: u64) -> Duration {
        Duration(ps)
    }
    /// Construct from whole nanoseconds.
    pub const fn from_ns(ns: u64) -> Duration {
        Duration(ns * 1_000)
    }
    /// Construct from whole microseconds.
    pub const fn from_us(us: u64) -> Duration {
        Duration(us * 1_000_000)
    }
    /// Construct from whole milliseconds.
    pub const fn from_ms(ms: u64) -> Duration {
        Duration(ms * 1_000_000_000)
    }
    /// Construct from whole seconds.
    pub const fn from_secs(s: u64) -> Duration {
        Duration(s * 1_000_000_000_000)
    }
    /// Construct from fractional seconds (rounded to the nearest ps).
    pub fn from_secs_f64(s: f64) -> Duration {
        Duration((s * 1e12).round() as u64)
    }

    /// This span expressed in picoseconds.
    pub const fn as_ps(self) -> u64 {
        self.0
    }
    /// This span expressed in (truncated) nanoseconds.
    pub const fn as_ns(self) -> u64 {
        self.0 / 1_000
    }
    /// This span expressed in fractional microseconds.
    pub fn as_us_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }
    /// This span expressed in fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e12
    }

    /// Multiply the span by an integer factor, saturating on overflow.
    pub const fn saturating_mul(self, n: u64) -> Duration {
        Duration(self.0.saturating_mul(n))
    }
    /// Integer-divide the span.
    pub const fn div(self, n: u64) -> Duration {
        Duration(self.0 / n)
    }
}

impl Add<Duration> for Time {
    type Output = Time;
    fn add(self, rhs: Duration) -> Time {
        Time(self.0.saturating_add(rhs.0))
    }
}
impl AddAssign<Duration> for Time {
    fn add_assign(&mut self, rhs: Duration) {
        *self = *self + rhs;
    }
}
impl Sub<Duration> for Time {
    type Output = Time;
    fn sub(self, rhs: Duration) -> Time {
        Time(self.0.saturating_sub(rhs.0))
    }
}
impl Sub<Time> for Time {
    type Output = Duration;
    fn sub(self, rhs: Time) -> Duration {
        debug_assert!(self >= rhs, "time went backwards: {self:?} - {rhs:?}");
        Duration(self.0.saturating_sub(rhs.0))
    }
}
impl Add<Duration> for Duration {
    type Output = Duration;
    fn add(self, rhs: Duration) -> Duration {
        Duration(self.0.saturating_add(rhs.0))
    }
}
impl AddAssign<Duration> for Duration {
    fn add_assign(&mut self, rhs: Duration) {
        *self = *self + rhs;
    }
}
impl Sub<Duration> for Duration {
    type Output = Duration;
    fn sub(self, rhs: Duration) -> Duration {
        Duration(self.0.saturating_sub(rhs.0))
    }
}
impl SubAssign<Duration> for Duration {
    fn sub_assign(&mut self, rhs: Duration) {
        *self = *self - rhs;
    }
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}us", self.as_us_f64())
    }
}
impl fmt::Display for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}us", self.as_us_f64())
    }
}

/// A data rate in bits per second.
///
/// Rates convert byte counts to [`Duration`]s (serialization delay) and
/// back. The arithmetic is exact for every standard Ethernet speed because
/// picoseconds-per-byte divides evenly (e.g. 80 ps/B at 100 Gb/s).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Rate {
    bits_per_sec: u64,
}

impl Rate {
    /// Construct from bits per second.
    pub const fn from_bps(bits_per_sec: u64) -> Rate {
        Rate { bits_per_sec }
    }
    /// Construct from gigabits per second.
    pub const fn from_gbps(gbps: u64) -> Rate {
        Rate {
            bits_per_sec: gbps * 1_000_000_000,
        }
    }
    /// The rate in bits per second.
    pub const fn bps(self) -> u64 {
        self.bits_per_sec
    }
    /// The rate in fractional gigabits per second.
    pub fn gbps_f64(self) -> f64 {
        self.bits_per_sec as f64 / 1e9
    }

    /// Time to serialize `bytes` bytes at this rate.
    ///
    /// Computed as `bytes * 8e12 / bps` using 128-bit intermediate math so it
    /// is exact for all realistic byte counts.
    pub fn serialize(self, bytes: u64) -> Duration {
        debug_assert!(self.bits_per_sec > 0);
        let ps = (bytes as u128 * 8_000_000_000_000u128) / self.bits_per_sec as u128;
        Duration(ps as u64)
    }

    /// Number of whole bytes transmitted in `d` at this rate.
    pub fn bytes_in(self, d: Duration) -> u64 {
        ((d.0 as u128 * self.bits_per_sec as u128) / 8_000_000_000_000u128) as u64
    }
}

impl fmt::Display for Rate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}G", self.gbps_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_conversions_round_trip() {
        assert_eq!(Time::from_ns(5).as_ps(), 5_000);
        assert_eq!(Time::from_us(3).as_ns(), 3_000);
        assert_eq!(Time::from_ms(2).as_ps(), 2_000_000_000);
        assert_eq!(Time::from_secs(1).as_secs_f64(), 1.0);
        assert_eq!(Duration::from_us(7).as_us_f64(), 7.0);
    }

    #[test]
    fn time_arithmetic() {
        let t = Time::from_us(10);
        let d = Duration::from_us(4);
        assert_eq!(t + d, Time::from_us(14));
        assert_eq!(t - d, Time::from_us(6));
        assert_eq!(Time::from_us(14) - t, d);
        assert_eq!(t.saturating_since(Time::from_us(20)), Duration::ZERO);
    }

    #[test]
    fn serialization_is_exact_at_100g() {
        // 1538 bytes on wire at 100G = 123.04 ns = 123,040 ps.
        let r = Rate::from_gbps(100);
        assert_eq!(r.serialize(1538), Duration::from_ps(123_040));
        // 1 byte at 100G is 80 ps.
        assert_eq!(r.serialize(1), Duration::from_ps(80));
    }

    #[test]
    fn serialization_at_other_speeds() {
        assert_eq!(Rate::from_gbps(10).serialize(1538).as_ns(), 1_230);
        assert_eq!(Rate::from_gbps(25).serialize(1538).as_ps(), 492_160);
        assert_eq!(Rate::from_gbps(400).serialize(1), Duration::from_ps(20));
    }

    #[test]
    fn bytes_in_inverts_serialize() {
        let r = Rate::from_gbps(25);
        for bytes in [64u64, 100, 1538, 9216] {
            assert_eq!(r.bytes_in(r.serialize(bytes)), bytes);
        }
    }

    #[test]
    fn duration_saturating_ops() {
        assert_eq!(Duration::MAX + Duration::from_ps(1), Duration::MAX);
        assert_eq!(Duration::from_ps(5) - Duration::from_ps(10), Duration::ZERO);
        assert_eq!(
            Duration::from_us(3).saturating_mul(4),
            Duration::from_us(12)
        );
        assert_eq!(Duration::from_us(12).div(4), Duration::from_us(3));
    }
}
