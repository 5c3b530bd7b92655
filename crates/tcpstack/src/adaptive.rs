//! Adaptive difficulty control — the paper's §7 future-work sketch:
//! "adapt the difficulty of the sent puzzles based on the behavior of the
//! observed traffic at the server, thus forming a closed control loop."
//!
//! [`AdaptiveDifficulty`] is a pure controller: feed it one observation
//! per control period (how many puzzle-verified connections were admitted
//! and how much queue pressure the listener saw) and it proposes the next
//! difficulty. The policy is deliberately simple and monotone:
//!
//! * **escalate** `m` by one bit while puzzle-verified admissions exceed
//!   the configured target (the attack is buying service faster than the
//!   operator wants to sell it);
//! * **relax** `m` by one bit after `cooldown` consecutive calm periods
//!   (no queue pressure), back down to the floor.
//!
//! `k` stays fixed (the verification-cost/guessing trade-off of §4.3 is a
//! design-time choice); `m` moves within `[floor, ceiling]`. One-bit
//! steps halve/double the price per period, so the controller converges
//! to the price band in `O(log)` periods, and the hysteresis (`cooldown`)
//! prevents flapping at the band edge — the same concern the
//! opportunistic controller's hold addresses at the trigger level.

use puzzle_core::Difficulty;

/// One control period's observations, as counters over the period.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct AdaptiveObservation {
    /// Connections admitted through puzzle verification this period.
    pub puzzle_established: u64,
    /// Whether the listener saw queue pressure (overflow / challenges
    /// engaged) at any point this period.
    pub under_pressure: bool,
}

/// Closed-loop difficulty controller.
///
/// # Example
///
/// ```
/// use puzzle_core::Difficulty;
/// use tcpstack::adaptive::{AdaptiveDifficulty, AdaptiveObservation};
///
/// let mut ctl = AdaptiveDifficulty::new(
///     Difficulty::new(2, 12)?, // floor
///     Difficulty::new(2, 20)?, // ceiling
///     10.0,                    // target puzzle admissions per period
///     3,                       // calm periods before relaxing
/// )?;
/// // A flood of solving bots pushes admissions over target: escalate.
/// let d = ctl.observe(AdaptiveObservation { puzzle_established: 50, under_pressure: true });
/// assert_eq!(d.m(), 13);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Clone, Debug)]
pub struct AdaptiveDifficulty {
    floor: Difficulty,
    ceiling: Difficulty,
    current: Difficulty,
    target_per_period: f64,
    cooldown: u32,
    calm_periods: u32,
}

/// Error constructing an [`AdaptiveDifficulty`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AdaptiveConfigError {
    /// Floor and ceiling must share `k` (the controller only moves `m`).
    MismatchedK,
    /// The floor's `m` must not exceed the ceiling's.
    InvertedRange,
    /// The admission target must be positive and finite.
    BadTarget,
}

impl std::fmt::Display for AdaptiveConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdaptiveConfigError::MismatchedK => write!(f, "floor and ceiling must share k"),
            AdaptiveConfigError::InvertedRange => write!(f, "floor m exceeds ceiling m"),
            AdaptiveConfigError::BadTarget => write!(f, "admission target must be positive"),
        }
    }
}

impl std::error::Error for AdaptiveConfigError {}

impl AdaptiveDifficulty {
    /// Creates a controller starting at the floor.
    ///
    /// # Errors
    ///
    /// See [`AdaptiveConfigError`].
    pub fn new(
        floor: Difficulty,
        ceiling: Difficulty,
        target_per_period: f64,
        cooldown: u32,
    ) -> Result<Self, AdaptiveConfigError> {
        if floor.k() != ceiling.k() {
            return Err(AdaptiveConfigError::MismatchedK);
        }
        if floor.m() > ceiling.m() {
            return Err(AdaptiveConfigError::InvertedRange);
        }
        if !(target_per_period.is_finite() && target_per_period > 0.0) {
            return Err(AdaptiveConfigError::BadTarget);
        }
        Ok(AdaptiveDifficulty {
            floor,
            ceiling,
            current: floor,
            target_per_period,
            cooldown,
            calm_periods: 0,
        })
    }

    /// The difficulty currently in force.
    pub fn current(&self) -> Difficulty {
        self.current
    }

    /// The hardest difficulty the controller can reach; it shares `k` with
    /// every step below it.
    pub(crate) fn ceiling(&self) -> Difficulty {
        self.ceiling
    }

    /// Feeds one period's observations; returns the difficulty to apply
    /// for the next period.
    pub fn observe(&mut self, obs: AdaptiveObservation) -> Difficulty {
        if obs.puzzle_established as f64 > self.target_per_period {
            // Solvers are buying service above target: double the price.
            self.calm_periods = 0;
            if self.current.m() < self.ceiling.m() {
                self.current = Difficulty::new(self.current.k(), self.current.m() + 1)
                    .expect("within validated ceiling");
            }
        } else if obs.under_pressure {
            // Pressure without over-target admissions: hold the price
            // (the non-solving component is already being shed).
            self.calm_periods = 0;
        } else {
            // Calm period: relax toward the floor after the cooldown.
            self.calm_periods += 1;
            if self.calm_periods >= self.cooldown && self.current.m() > self.floor.m() {
                self.calm_periods = 0;
                self.current = Difficulty::new(self.current.k(), self.current.m() - 1)
                    .expect("within validated floor");
            }
        }
        self.current
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn controller(floor_m: u8, ceil_m: u8, target: f64, cooldown: u32) -> AdaptiveDifficulty {
        AdaptiveDifficulty::new(
            Difficulty::new(2, floor_m).unwrap(),
            Difficulty::new(2, ceil_m).unwrap(),
            target,
            cooldown,
        )
        .unwrap()
    }

    fn hot(established: u64) -> AdaptiveObservation {
        AdaptiveObservation {
            puzzle_established: established,
            under_pressure: true,
        }
    }

    const CALM: AdaptiveObservation = AdaptiveObservation {
        puzzle_established: 0,
        under_pressure: false,
    };

    #[test]
    fn validation() {
        assert_eq!(
            AdaptiveDifficulty::new(
                Difficulty::new(1, 10).unwrap(),
                Difficulty::new(2, 20).unwrap(),
                10.0,
                1
            )
            .unwrap_err(),
            AdaptiveConfigError::MismatchedK
        );
        assert_eq!(
            AdaptiveDifficulty::new(
                Difficulty::new(2, 20).unwrap(),
                Difficulty::new(2, 10).unwrap(),
                10.0,
                1
            )
            .unwrap_err(),
            AdaptiveConfigError::InvertedRange
        );
        assert_eq!(
            controller(10, 20, 10.0, 1).current().m(),
            10,
            "starts at the floor"
        );
        assert!(AdaptiveDifficulty::new(
            Difficulty::new(2, 10).unwrap(),
            Difficulty::new(2, 20).unwrap(),
            0.0,
            1
        )
        .is_err());
    }

    #[test]
    fn escalates_one_bit_per_hot_period_up_to_ceiling() {
        let mut c = controller(12, 15, 10.0, 2);
        assert_eq!(c.observe(hot(100)).m(), 13);
        assert_eq!(c.observe(hot(100)).m(), 14);
        assert_eq!(c.observe(hot(100)).m(), 15);
        assert_eq!(c.observe(hot(100)).m(), 15, "clamped at ceiling");
    }

    #[test]
    fn holds_under_pressure_without_over_target_admissions() {
        let mut c = controller(12, 20, 10.0, 2);
        c.observe(hot(100)); // 13
        assert_eq!(c.observe(hot(5)).m(), 13, "pressure but under target: hold");
        assert_eq!(c.observe(hot(5)).m(), 13);
    }

    #[test]
    fn relaxes_after_cooldown_calm_periods() {
        let mut c = controller(12, 20, 10.0, 3);
        c.observe(hot(100)); // 13
        c.observe(hot(100)); // 14
        assert_eq!(c.observe(CALM).m(), 14);
        assert_eq!(c.observe(CALM).m(), 14);
        assert_eq!(c.observe(CALM).m(), 13, "third calm period relaxes");
        assert_eq!(c.observe(CALM).m(), 13);
        assert_eq!(c.observe(CALM).m(), 13);
        assert_eq!(c.observe(CALM).m(), 12, "back to the floor");
        assert_eq!(c.observe(CALM).m(), 12, "clamped at floor");
    }

    #[test]
    fn pressure_resets_the_cooldown() {
        let mut c = controller(12, 20, 10.0, 2);
        c.observe(hot(100)); // 13
        c.observe(CALM);
        c.observe(hot(5)); // pressure resets calm count
        assert_eq!(c.observe(CALM).m(), 13, "cooldown restarted");
        assert_eq!(c.observe(CALM).m(), 12);
    }

    #[test]
    fn converges_to_price_band_for_fixed_attacker_budget() {
        // An attacker solving at a fixed hash budget H/s completes
        // H / (k·2^(m−1)) cps; the controller should settle at the first
        // m where that falls under target.
        let budget = 400_000.0; // H/s
        let target = 5.0;
        let mut c = controller(10, 24, target, 3);
        let mut m = c.current().m();
        for _ in 0..30 {
            let cps = budget / Difficulty::new(2, m).unwrap().expected_client_hashes();
            let obs = AdaptiveObservation {
                puzzle_established: cps as u64,
                under_pressure: true,
            };
            m = c.observe(obs).m();
        }
        let settled = Difficulty::new(2, m).unwrap();
        let cps = budget / settled.expected_client_hashes();
        assert!(cps <= target, "settled m={m} leaves {cps:.1} cps");
        // And one bit lower would exceed the target (minimality).
        let lower = Difficulty::new(2, m - 1).unwrap();
        assert!(budget / lower.expected_client_hashes() > target);
    }
}
