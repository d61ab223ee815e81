//! Migration rate limiting.
//!
//! §II-C observes that un-throttled re-integration "substantially reduces
//! the improvement of system's performance that sizing-up a cluster should
//! deliver"; the selective policy therefore limits the migration rate
//! (§III-E). A deterministic token bucket fits both the live cluster and
//! the simulator: the caller advances time explicitly, so behaviour is
//! reproducible.

/// Deterministic token bucket (bytes, bytes/second).
#[derive(Debug, Clone)]
pub struct TokenBucket {
    /// Refill rate in bytes per second.
    rate: f64,
    /// Maximum accumulated tokens (burst) in bytes.
    burst: f64,
    /// Currently available tokens in bytes.
    tokens: f64,
}

impl TokenBucket {
    /// Bucket refilling at `rate` bytes/s with `burst` bytes of headroom,
    /// starting full.
    ///
    /// # Panics
    /// Panics on non-finite or negative parameters, or zero burst.
    pub fn new(rate: f64, burst: f64) -> Self {
        assert!(rate.is_finite() && rate >= 0.0, "rate must be >= 0");
        assert!(burst.is_finite() && burst > 0.0, "burst must be > 0");
        TokenBucket {
            rate,
            burst,
            tokens: burst,
        }
    }

    /// Advance time by `dt` seconds, accruing tokens up to the burst cap.
    pub fn refill(&mut self, dt: f64) {
        assert!(dt >= 0.0, "time cannot go backwards");
        self.tokens = (self.tokens + self.rate * dt).min(self.burst);
    }

    /// Spend up to `bytes`, returning how much was actually granted.
    /// Lets a migrator move a partial object-batch each tick.
    pub fn consume_up_to(&mut self, bytes: f64) -> f64 {
        let granted = bytes.min(self.tokens).max(0.0);
        self.tokens -= granted;
        granted
    }

    /// Tokens currently available (bytes).
    #[inline]
    pub fn available(&self) -> f64 {
        self.tokens
    }

    /// Configured refill rate (bytes/s).
    #[inline]
    pub fn rate(&self) -> f64 {
        self.rate
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_full_and_consumes() {
        let mut b = TokenBucket::new(100.0, 50.0);
        assert_eq!(b.consume_up_to(50.0), 50.0);
        assert_eq!(b.consume_up_to(1.0), 0.0);
    }

    #[test]
    fn refill_is_capped_at_burst() {
        let mut b = TokenBucket::new(100.0, 50.0);
        assert_eq!(b.consume_up_to(50.0), 50.0);
        b.refill(10.0); // would be 1000 tokens uncapped
        assert!((b.available() - 50.0).abs() < 1e-9);
    }

    #[test]
    fn steady_state_rate_is_respected() {
        // Drain-as-you-go for 10 simulated seconds at rate 40 MB/s must
        // grant ~400 MB total.
        let mb = 1_000_000.0;
        let mut b = TokenBucket::new(40.0 * mb, 4.0 * mb);
        let _ = b.consume_up_to(f64::MAX); // empty it
        let mut granted = 0.0;
        for _ in 0..100 {
            b.refill(0.1);
            granted += b.consume_up_to(f64::MAX);
        }
        assert!((granted - 400.0 * mb).abs() < mb, "granted {granted}");
    }

    #[test]
    fn consume_up_to_partial_grant() {
        let mut b = TokenBucket::new(10.0, 100.0);
        let got = b.consume_up_to(250.0);
        assert!((got - 100.0).abs() < 1e-9);
        assert!(b.available() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "time cannot go backwards")]
    fn negative_dt_panics() {
        TokenBucket::new(1.0, 1.0).refill(-0.1);
    }
}
