//! The runtime seam: one trait between the event loops and time.
//!
//! Everything in this crate that timestamps or computes a deadline does
//! it through [`WireClock`] — in the style of `tor-rtcompat`'s runtime
//! abstraction, shrunk to what a datagram loop actually needs. The
//! engines ([`crate::server::ServerEngine`], [`crate::load::LoadEngine`])
//! never touch the trait at all: they take `SimTime` arguments, so the
//! caller decides whether "now" came from a wall clock or a test
//! script. The socket loops take a `&impl WireClock` and block only in
//! their socket, so the trait is a clock and nothing else.
//!
//! [`WallClock`] is the production implementation (monotonic
//! `Instant`); [`ManualClock`] is the test one (time moves only when
//! the test says so).

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use netsim::{SimDuration, SimTime};

/// A source of monotonic time for the live event loops.
pub trait WireClock {
    /// Time elapsed since the clock's epoch (process start for the
    /// wall clock). The sim's `SimTime` is reused so fleet timers and
    /// listener deadlines need no conversion.
    fn now(&self) -> SimTime;
}

/// Monotonic wall-clock time since construction.
pub struct WallClock {
    epoch: Instant,
}

impl WallClock {
    /// A clock whose epoch is "now".
    pub fn new() -> Self {
        WallClock {
            epoch: Instant::now(),
        }
    }
}

impl Default for WallClock {
    fn default() -> Self {
        WallClock::new()
    }
}

impl WireClock for WallClock {
    fn now(&self) -> SimTime {
        let elapsed = self.epoch.elapsed();
        SimTime::from_nanos(elapsed.as_nanos().min(u64::MAX as u128) as u64)
    }
}

/// Scripted time for tests: `now` is a counter the test advances.
/// Atomic so a clock can be shared across the loop under test and the
/// asserting thread.
#[derive(Default)]
pub struct ManualClock {
    nanos: AtomicU64,
}

impl ManualClock {
    /// A clock at t = 0.
    pub fn new() -> Self {
        ManualClock::default()
    }

    /// Moves time forward by `d`.
    pub fn advance(&self, d: SimDuration) {
        self.nanos.fetch_add(d.as_nanos(), Ordering::Relaxed);
    }
}

impl WireClock for ManualClock {
    fn now(&self) -> SimTime {
        SimTime::from_nanos(self.nanos.load(Ordering::Relaxed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manual_clock_is_scripted() {
        let c = ManualClock::new();
        assert_eq!(c.now(), SimTime::ZERO);
        c.advance(SimDuration::from_millis(5));
        assert_eq!(c.now(), SimTime::from_millis(5));
        c.advance(SimDuration::from_millis(5));
        assert_eq!(c.now(), SimTime::from_millis(10));
    }

    #[test]
    fn wall_clock_is_monotone() {
        let c = WallClock::new();
        let a = c.now();
        let b = c.now();
        assert!(b >= a);
    }
}
