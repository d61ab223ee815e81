//! Offered-load time series.
//!
//! The trace-analysis experiments (§V-B) drive the elasticity policies
//! with an I/O load profile over time: "the ideal number of servers for
//! each time period is proportional to the data size processed". A
//! [`LoadSeries`] is that profile — bytes/second per fixed-width time bin
//! — plus generators for the shapes we need (diurnal, bursty
//! MapReduce-style) and simple calibration utilities.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// An offered-load profile: bytes/second sampled at fixed intervals.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LoadSeries {
    /// Width of one bin in seconds.
    pub bin_seconds: f64,
    /// Offered load per bin, bytes/second.
    pub load: Vec<f64>,
}

impl LoadSeries {
    /// A series from raw samples.
    pub fn new(bin_seconds: f64, load: Vec<f64>) -> Self {
        assert!(bin_seconds > 0.0, "bin width must be positive");
        assert!(
            load.iter().all(|l| l.is_finite() && *l >= 0.0),
            "loads must be finite and non-negative"
        );
        LoadSeries { bin_seconds, load }
    }

    /// Number of bins.
    pub fn len(&self) -> usize {
        self.load.len()
    }

    /// True when the series has no bins.
    pub fn is_empty(&self) -> bool {
        self.load.is_empty()
    }

    /// Total duration in seconds.
    pub fn duration_seconds(&self) -> f64 {
        self.bin_seconds * self.load.len() as f64
    }

    /// Total bytes processed over the whole series.
    pub fn total_bytes(&self) -> f64 {
        self.load.iter().sum::<f64>() * self.bin_seconds
    }

    /// Peak offered load (bytes/second).
    pub fn peak(&self) -> f64 {
        self.load.iter().copied().fold(0.0, f64::max)
    }

    /// Mean offered load (bytes/second); 0 for an empty series.
    pub fn mean(&self) -> f64 {
        if self.load.is_empty() {
            0.0
        } else {
            self.load.iter().sum::<f64>() / self.load.len() as f64
        }
    }

    /// Scale every bin by `factor` (calibrating total bytes to a target).
    pub fn scaled(&self, factor: f64) -> LoadSeries {
        assert!(factor.is_finite() && factor >= 0.0);
        LoadSeries {
            bin_seconds: self.bin_seconds,
            load: self.load.iter().map(|l| l * factor).collect(),
        }
    }

    /// Scale so the series processes exactly `target_bytes` in total.
    pub fn calibrated_to_bytes(&self, target_bytes: f64) -> LoadSeries {
        let cur = self.total_bytes();
        assert!(cur > 0.0, "cannot calibrate an all-zero series");
        self.scaled(target_bytes / cur)
    }

    /// How many resize events an ideal power controller following this
    /// series would make, given `per_server_rate` (bytes/s a server
    /// serves) and cluster bounds. A *resize event* is any bin-to-bin
    /// change in the ideal server count — §V-B attributes CC-a's larger
    /// savings to its "significantly higher resizing frequency".
    pub fn resize_frequency(&self, per_server_rate: f64, min: usize, max: usize) -> usize {
        let ideal: Vec<usize> = self
            .load
            .iter()
            .map(|&l| ideal_servers(l, per_server_rate, min, max))
            .collect();
        ideal.windows(2).filter(|w| w[0] != w[1]).count()
    }
}

/// Servers needed to serve `load` bytes/s at `per_server_rate` each,
/// clamped to `[min, max]` — the "Ideal" policy of Figures 8 and 9.
pub fn ideal_servers(load: f64, per_server_rate: f64, min: usize, max: usize) -> usize {
    assert!(per_server_rate > 0.0);
    let need = (load / per_server_rate).ceil() as usize;
    need.clamp(min, max)
}

/// Generators for synthetic load shapes.
pub mod generate {
    use super::*;

    /// Diurnal sinusoid: `base + amplitude * (1 + sin) / 2` with the given
    /// period. Models the day/night cycle of enterprise clusters.
    pub fn diurnal(
        bins: usize,
        bin_seconds: f64,
        base: f64,
        amplitude: f64,
        period_seconds: f64,
    ) -> LoadSeries {
        assert!(period_seconds > 0.0);
        let load = (0..bins)
            .map(|i| {
                let t = i as f64 * bin_seconds;
                let phase = 2.0 * std::f64::consts::PI * t / period_seconds;
                base + amplitude * (1.0 + phase.sin()) / 2.0
            })
            .collect();
        LoadSeries::new(bin_seconds, load)
    }

    /// Bursty MapReduce-style load: a lognormal-ish baseline random walk
    /// with Poisson-arriving job bursts that decay exponentially. This is
    /// the shape of the Cloudera customer workloads characterised in the
    /// paper's reference \[16\]: long quiet stretches punctuated by intense
    /// multi-bin bursts.
    ///
    /// * `burst_prob` — per-bin probability that a new burst starts;
    ///   higher values give the CC-a-like high resize frequency.
    /// * `burst_scale` — mean peak of a burst relative to `base`.
    /// * `decay` — per-bin multiplicative decay of an active burst.
    /// * `walk_step` — volatility of the baseline random walk (fractional
    ///   per-bin step, e.g. 0.08 for a jittery baseline, 0.02 for smooth).
    #[allow(clippy::too_many_arguments)] // a flat parameter list reads
                                         // better here than a one-use builder; every knob is documented above.
    pub fn bursty(
        bins: usize,
        bin_seconds: f64,
        base: f64,
        burst_prob: f64,
        burst_scale: f64,
        decay: f64,
        walk_step: f64,
        seed: u64,
    ) -> LoadSeries {
        assert!((0.0..=1.0).contains(&burst_prob));
        assert!((0.0..=1.0).contains(&decay));
        assert!((0.0..1.0).contains(&walk_step));
        let mut rng = StdRng::seed_from_u64(seed);
        let mut burst_level = 0.0f64;
        let mut walk = 1.0f64;
        let load = (0..bins)
            .map(|_| {
                // Baseline multiplicative random walk, clamped.
                let step: f64 = if walk_step > 0.0 {
                    rng.random_range(-walk_step..walk_step)
                } else {
                    0.0
                };
                walk = (walk * (1.0 + step)).clamp(0.4, 2.5);
                // Burst arrivals.
                if rng.random::<f64>() < burst_prob {
                    let peak: f64 = rng.random_range(0.5..1.5) * burst_scale * base;
                    burst_level += peak;
                }
                burst_level *= decay;
                base * walk + burst_level
            })
            .collect();
        LoadSeries::new(bin_seconds, load)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_accessors() {
        let s = LoadSeries::new(60.0, vec![10.0, 20.0, 30.0]);
        assert_eq!(s.len(), 3);
        assert!((s.duration_seconds() - 180.0).abs() < 1e-12);
        assert!((s.total_bytes() - 3600.0).abs() < 1e-9);
        assert!((s.peak() - 30.0).abs() < 1e-12);
        assert!((s.mean() - 20.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn negative_load_rejected() {
        LoadSeries::new(60.0, vec![-1.0]);
    }

    #[test]
    fn calibration_hits_target_bytes() {
        let s = generate::diurnal(1000, 60.0, 100.0, 400.0, 86_400.0);
        let c = s.calibrated_to_bytes(69e12); // 69 TB like CC-a
        assert!((c.total_bytes() - 69e12).abs() / 69e12 < 1e-9);
    }

    #[test]
    fn ideal_servers_clamps() {
        assert_eq!(ideal_servers(0.0, 100.0, 2, 10), 2);
        assert_eq!(ideal_servers(450.0, 100.0, 2, 10), 5);
        assert_eq!(ideal_servers(5000.0, 100.0, 2, 10), 10);
    }

    #[test]
    fn diurnal_oscillates_with_period() {
        let s = generate::diurnal(1440, 60.0, 10.0, 100.0, 86_400.0);
        // min near base, max near base + amplitude.
        let min = s.load.iter().copied().fold(f64::MAX, f64::min);
        assert!((10.0 - 1e-9..15.0).contains(&min));
        assert!(s.peak() > 100.0 && s.peak() <= 110.0 + 1e-9);
    }

    #[test]
    fn bursty_is_deterministic_per_seed() {
        let a = generate::bursty(500, 60.0, 50.0, 0.05, 8.0, 0.7, 0.08, 42);
        let b = generate::bursty(500, 60.0, 50.0, 0.05, 8.0, 0.7, 0.08, 42);
        assert_eq!(a, b);
        let c = generate::bursty(500, 60.0, 50.0, 0.05, 8.0, 0.7, 0.08, 43);
        assert_ne!(a, c);
    }

    #[test]
    fn burstier_series_resizes_more() {
        let calm = generate::bursty(2000, 60.0, 50.0, 0.01, 4.0, 0.8, 0.02, 7);
        let wild = generate::bursty(2000, 60.0, 50.0, 0.15, 8.0, 0.6, 0.10, 7);
        let f_calm = calm.resize_frequency(100.0, 2, 50);
        let f_wild = wild.resize_frequency(100.0, 2, 50);
        assert!(f_wild > f_calm, "wild {f_wild} should exceed calm {f_calm}");
    }
}
