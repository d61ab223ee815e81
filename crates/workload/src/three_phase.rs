//! The Filebench-style 3-phase benchmark (§V-A).
//!
//! Phase 1: sequentially write 2 GB to each of 7 files (14 GB total),
//! unthrottled. Phase 2: rate-limited to 20 MB/s with 4.2 GB read and
//! 8.4 GB written. Phase 3: like phase 1 but with a 20 % write ratio.
//! The workload resembles SpringFS's 3-phase benchmark: an I/O-intensive
//! burst, a long light-load valley (during which the elastic cluster sizes
//! down), and a second burst that exposes re-integration interference.

/// One megabyte in bytes (decimal, matching the paper's MB/s axes).
pub const MB: u64 = 1_000_000;
/// One gigabyte in bytes.
pub const GB: u64 = 1_000 * MB;

/// One benchmark phase: a pool of read and write bytes, optionally
/// throttled to an offered rate. A phase finishes when its byte pools are
/// drained; the consumer (simulator or live cluster driver) decides how
/// fast that happens given cluster capacity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhaseSpec {
    /// Bytes to read in this phase.
    pub read_bytes: u64,
    /// Bytes to write in this phase.
    pub write_bytes: u64,
    /// Offered-load ceiling in bytes/second (`None` = as fast as the
    /// cluster allows — Filebench with no `rate` attribute).
    pub offered_rate: Option<f64>,
}

impl PhaseSpec {
    /// Total bytes of I/O in this phase.
    pub fn total_bytes(&self) -> u64 {
        self.read_bytes + self.write_bytes
    }
}

/// A multi-phase workload specification.
#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    /// Phases executed in order.
    pub phases: Vec<PhaseSpec>,
    /// Human-readable label for harness output.
    pub name: String,
}

impl Workload {
    /// The paper's 3-phase benchmark exactly as §V-A specifies it:
    /// 14 GB write / 20 MB/s mixed (4.2 GB read + 8.4 GB write) / 14 GB at
    /// 20 % writes.
    pub fn three_phase_paper() -> Self {
        Workload {
            name: "3-phase (paper §V-A)".to_owned(),
            phases: vec![
                PhaseSpec {
                    read_bytes: 0,
                    write_bytes: 14 * GB,
                    offered_rate: None,
                },
                PhaseSpec {
                    read_bytes: 4_200 * MB,
                    write_bytes: 8_400 * MB,
                    offered_rate: Some(20.0 * MB as f64),
                },
                PhaseSpec {
                    // 14 GB total at a 20 % write ratio, unthrottled like
                    // phase 1.
                    read_bytes: 14 * GB * 8 / 10,
                    write_bytes: 14 * GB * 2 / 10,
                    offered_rate: None,
                },
            ],
        }
    }

    /// A variant scaled so the middle phase lasts `phase2_seconds` at
    /// 20 MB/s — Figures 3 and 7 plot a ~600 s run where phase 2 spans
    /// roughly 280 s, which implies a smaller middle-phase byte pool than
    /// the §V-A text (12.6 GB at 20 MB/s would run 630 s on its own).
    /// This constructor reproduces the *figure's* timeline; byte ratios
    /// (1 read : 2 write) are preserved.
    pub fn three_phase_figure(phase2_seconds: f64) -> Self {
        let mut w = Self::three_phase_paper();
        let total2 = (20.0 * MB as f64 * phase2_seconds) as u64;
        w.phases[1].read_bytes = total2 / 3;
        w.phases[1].write_bytes = total2 - total2 / 3;
        w.name = format!("3-phase (figure timeline, {phase2_seconds:.0}s valley)");
        w
    }

    /// Total bytes across all phases.
    pub fn total_bytes(&self) -> u64 {
        self.phases.iter().map(PhaseSpec::total_bytes).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_phases_match_section_v_a() {
        let w = Workload::three_phase_paper();
        assert_eq!(w.phases.len(), 3);
        let p1 = &w.phases[0];
        assert_eq!(p1.write_bytes, 14 * GB);
        assert_eq!(p1.read_bytes, 0);
        assert!(p1.offered_rate.is_none());

        let p2 = &w.phases[1];
        assert_eq!(p2.read_bytes, 4_200 * MB);
        assert_eq!(p2.write_bytes, 8_400 * MB);
        assert_eq!(p2.offered_rate, Some(20.0 * MB as f64));
        assert_eq!(p2.write_bytes * 3, p2.total_bytes() * 2);

        let p3 = &w.phases[2];
        assert_eq!(p3.write_bytes * 5, p3.total_bytes());
        assert_eq!(p3.total_bytes(), 14 * GB);
    }

    #[test]
    fn figure_variant_scales_phase2_only() {
        let w = Workload::three_phase_figure(280.0);
        let expect = (20.0 * MB as f64 * 280.0) as u64;
        assert_eq!(w.phases[1].total_bytes(), expect);
        // 1:2 read:write ratio preserved.
        let write_ratio = w.phases[1].write_bytes as f64 / expect as f64;
        assert!((write_ratio - 2.0 / 3.0).abs() < 0.01);
        // Outer phases untouched.
        assert_eq!(w.phases[0].write_bytes, 14 * GB);
        assert_eq!(w.phases[2].total_bytes(), 14 * GB);
    }
}
