//! Server power-state machine.
//!
//! A simulated server is `Active`, `Booting` (commanded on, not yet
//! serving), `ShuttingDown` (commanded off, already out of the placement,
//! still drawing power) or `Off`. Machine-hour accounting counts every
//! state except `Off` — a booting or draining server burns power without
//! contributing proportional throughput, which is exactly the elasticity
//! tax the paper measures.

/// Power state with transition timers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PowerSimState {
    /// Serving I/O and placement-eligible.
    Active,
    /// Powering on; becomes `Active` when the timer expires.
    Booting {
        /// Seconds until active.
        remaining: f64,
    },
    /// Powering off; placement-ineligible; becomes `Off` on expiry.
    ShuttingDown {
        /// Seconds until dark.
        remaining: f64,
    },
    /// Dark: draws no power, data intact on disk.
    Off,
}

impl PowerSimState {
    /// Does this server draw power?
    pub fn draws_power(self) -> bool {
        !matches!(self, PowerSimState::Off)
    }

    /// Is this server serving I/O (bandwidth-contributing)?
    pub fn is_active(self) -> bool {
        matches!(self, PowerSimState::Active)
    }

    /// Advance the timer by `dt`, returning the possibly-transitioned
    /// state and whether a transition to Active/Off completed.
    pub fn tick(self, dt: f64) -> (PowerSimState, bool) {
        match self {
            PowerSimState::Booting { remaining } => {
                let left = remaining - dt;
                if left <= 0.0 {
                    (PowerSimState::Active, true)
                } else {
                    (PowerSimState::Booting { remaining: left }, false)
                }
            }
            PowerSimState::ShuttingDown { remaining } => {
                let left = remaining - dt;
                if left <= 0.0 {
                    (PowerSimState::Off, true)
                } else {
                    (PowerSimState::ShuttingDown { remaining: left }, false)
                }
            }
            s => (s, false),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn boot_completes_after_delay() {
        let mut s = PowerSimState::Booting { remaining: 1.0 };
        let (next, done) = s.tick(0.5);
        assert!(!done);
        s = next;
        let (next, done) = s.tick(0.6);
        assert!(done);
        assert_eq!(next, PowerSimState::Active);
    }

    #[test]
    fn shutdown_completes() {
        let s = PowerSimState::ShuttingDown { remaining: 0.4 };
        let (next, done) = s.tick(0.5);
        assert!(done);
        assert_eq!(next, PowerSimState::Off);
    }

    #[test]
    fn steady_states_do_not_transition() {
        assert_eq!(
            PowerSimState::Active.tick(10.0),
            (PowerSimState::Active, false)
        );
        assert_eq!(PowerSimState::Off.tick(10.0), (PowerSimState::Off, false));
    }

    #[test]
    fn power_draw_accounting() {
        assert!(PowerSimState::Active.draws_power());
        assert!(PowerSimState::Booting { remaining: 1.0 }.draws_power());
        assert!(PowerSimState::ShuttingDown { remaining: 1.0 }.draws_power());
        assert!(!PowerSimState::Off.draws_power());
        assert!(PowerSimState::Active.is_active());
        assert!(!PowerSimState::Booting { remaining: 1.0 }.is_active());
    }
}
