//! Pre-packaged experiment drivers for the paper's testbed figures.
//!
//! * [`resize_agility`] — Figure 2: how fast the cluster tracks an
//!   aggressive resize schedule (10 → 2 by twos, then back up).
//! * [`three_phase`] — Figures 3 and 7: client throughput over the
//!   3-phase workload while the cluster resizes between phases.
//!
//! The drivers return plain sample vectors so harness binaries, tests and
//! notebooks can all consume them.

use crate::cluster_sim::{ClusterSim, Sample};
use crate::config::{ElasticityMode, SimConfig};
use ech_workload::three_phase::Workload;

/// A step schedule: at each `(time, target)` the controller retargets.
pub type Schedule = Vec<(f64, usize)>;

/// The paper's Figure 2 schedule: start at 10, remove 2 every 30 s for
/// two minutes, then from minute 3 add 2 back every 30 s.
pub fn fig2_schedule() -> Schedule {
    vec![
        (0.0, 10),
        (30.0, 8),
        (60.0, 6),
        (90.0, 4),
        (120.0, 2),
        (180.0, 4),
        (210.0, 6),
        (240.0, 8),
        (270.0, 10),
    ]
}

/// Result of a resize-agility run.
#[derive(Debug, Clone)]
pub struct ResizeAgility {
    /// Mode under test.
    pub mode_label: String,
    /// Sample times, seconds.
    pub times: Vec<f64>,
    /// The schedule's desired server count at each sample ("Ideal").
    pub ideal: Vec<usize>,
    /// Powered servers the simulated system actually had.
    pub actual: Vec<usize>,
}

impl ResizeAgility {
    /// Mean absolute gap between ideal and actual server counts, in
    /// servers — the lag visible in Figure 2.
    pub fn mean_gap(&self) -> f64 {
        if self.times.is_empty() {
            return 0.0;
        }
        self.ideal
            .iter()
            .zip(&self.actual)
            .map(|(&i, &a)| (i as f64 - a as f64).abs())
            .sum::<f64>()
            / self.times.len() as f64
    }

    /// Excess machine-seconds versus ideal (only counts actual > ideal,
    /// the power wasted by lagging behind a size-down).
    pub fn excess_machine_seconds(&self, dt: f64) -> f64 {
        self.ideal
            .iter()
            .zip(&self.actual)
            .map(|(&i, &a)| (a as f64 - i as f64).max(0.0) * dt)
            .sum()
    }
}

/// Desired target at time `t` under `schedule`.
fn schedule_target(schedule: &Schedule, t: f64) -> usize {
    let mut target = schedule.first().map(|&(_, k)| k).unwrap_or(0);
    for &(at, k) in schedule {
        if t + 1e-9 >= at {
            target = k;
        }
    }
    target
}

/// Run the Figure 2 resize-agility experiment.
///
/// `preload_objects` models the data resident before the test (the
/// paper's testbed held the prior benchmark's ~14 GB). For original CH
/// this data is what re-replication must clean up before each departure.
pub fn resize_agility(
    mode: ElasticityMode,
    schedule: &Schedule,
    duration: f64,
    preload_objects: usize,
) -> ResizeAgility {
    let cfg = SimConfig::paper_testbed(mode);
    let dt = cfg.dt;
    let mut sim = ClusterSim::new(cfg);
    sim.preload_objects(preload_objects);

    let mut times = Vec::new();
    let mut ideal = Vec::new();
    let mut actual = Vec::new();
    let steps = (duration / dt).ceil() as usize;
    for _ in 0..steps {
        let t = sim.time();
        sim.set_target(schedule_target(schedule, t));
        sim.step();
        times.push(t);
        ideal.push(
            schedule_target(schedule, t)
                .max(sim.config().min_active())
                .min(sim.config().servers),
        );
        actual.push(sim.powered_count());
    }
    ResizeAgility {
        mode_label: mode.label().to_owned(),
        times,
        ideal,
        actual,
    }
}

/// Result of a 3-phase throughput run.
#[derive(Debug, Clone)]
pub struct ThreePhaseRun {
    /// Mode under test (figure legend label).
    pub mode_label: String,
    /// Per-tick samples.
    pub samples: Vec<Sample>,
    /// When each phase ended (seconds).
    pub phase_ends: Vec<f64>,
    /// Machine-seconds consumed over the run.
    pub machine_seconds: f64,
    /// Energy consumed over the run (kWh, per-state power model).
    pub energy_kwh: f64,
    /// Total background payload bytes migrated.
    pub migrated_bytes: f64,
}

impl ThreePhaseRun {
    /// Time (seconds since phase 2 ended) until client throughput
    /// *stably* reaches `fraction` of the run's peak: the timestamp of the
    /// last phase-3 sample still below the threshold — §V-A's "delayed IO
    /// throughput". Un-throttled migration after the servers boot causes
    /// a late dip, so first-crossing would under-report the delay.
    /// `None` when phase 2 never ended within the run.
    pub fn recovery_delay(&self, fraction: f64) -> Option<f64> {
        let phase2_end = *self.phase_ends.get(1)?;
        let peak = self
            .samples
            .iter()
            .map(|s| s.client_throughput)
            .fold(0.0, f64::max);
        let threshold = peak * fraction;
        Some(
            self.samples
                .iter()
                .filter(|s| s.phase == 3 && s.time > phase2_end)
                .filter(|s| s.client_throughput < threshold)
                .map(|s| s.time - phase2_end)
                .fold(0.0, f64::max),
        )
    }

    /// Mean client throughput over the window `[from, to)` seconds.
    pub fn mean_throughput(&self, from: f64, to: f64) -> f64 {
        let pts: Vec<f64> = self
            .samples
            .iter()
            .filter(|s| s.time >= from && s.time < to)
            .map(|s| s.client_throughput)
            .collect();
        if pts.is_empty() {
            0.0
        } else {
            pts.iter().sum::<f64>() / pts.len() as f64
        }
    }
}

/// Run the §V-A 3-phase experiment: all servers on in phase 1; 4 servers
/// powered down for phase 2; all back on for phase 3 (except in
/// `NoResizing` mode, which keeps 10 on throughout).
///
/// `phase2_seconds` sets the valley length of the figure-calibrated
/// workload (the figures show ~280 s).
pub fn three_phase(mode: ElasticityMode, phase2_seconds: f64, max_seconds: f64) -> ThreePhaseRun {
    let cfg = SimConfig::paper_testbed(mode);
    let n = cfg.servers;
    let down_to = n - 4;
    let mut sim = ClusterSim::new(cfg);
    sim.start_workload(&Workload::three_phase_figure(phase2_seconds));

    let mut samples = Vec::new();
    let mut phase_ends = Vec::new();
    let mut done_at: Option<f64> = None;
    while sim.time() < max_seconds {
        let ev = sim.step();
        samples.push(sim.sample());
        if let Some(p) = ev.phase_ended {
            phase_ends.push(sim.time());
            if mode != ElasticityMode::NoResizing {
                match p {
                    0 => sim.set_target(down_to),
                    1 => sim.set_target(n),
                    _ => {}
                }
            }
        }
        if ev.workload_done && done_at.is_none() {
            done_at = Some(sim.time());
        }
        // Run a short cooldown after the workload finishes so the tail of
        // the curves is visible, then stop.
        if let Some(d) = done_at {
            if sim.time() > d + 30.0 {
                break;
            }
        }
    }
    ThreePhaseRun {
        mode_label: mode.label().to_owned(),
        samples,
        phase_ends,
        machine_seconds: sim.machine_seconds(),
        energy_kwh: sim.energy_kwh(),
        migrated_bytes: sim.migrated_bytes(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_lookup() {
        let s = fig2_schedule();
        assert_eq!(schedule_target(&s, 0.0), 10);
        assert_eq!(schedule_target(&s, 29.9), 10);
        assert_eq!(schedule_target(&s, 30.0), 8);
        assert_eq!(schedule_target(&s, 150.0), 2);
        assert_eq!(schedule_target(&s, 280.0), 10);
    }

    #[test]
    fn original_ch_lags_the_ideal_on_size_down() {
        let r = resize_agility(ElasticityMode::OriginalCh, &fig2_schedule(), 330.0, 3500);
        // The Figure 2 phenomenon: consistent hashing cannot keep up with
        // removing 2 servers every 30 s.
        assert!(
            r.mean_gap() > 0.5,
            "original CH should lag, mean gap {}",
            r.mean_gap()
        );
        // At t = 125 s the ideal is 2 but CH is still draining.
        let idx = r.times.iter().position(|&t| t >= 125.0).unwrap();
        assert!(r.actual[idx] > r.ideal[idx]);
    }

    #[test]
    fn elastic_tracks_the_ideal_closely() {
        let e = resize_agility(
            ElasticityMode::PrimarySelective,
            &fig2_schedule(),
            330.0,
            3500,
        );
        let o = resize_agility(ElasticityMode::OriginalCh, &fig2_schedule(), 330.0, 3500);
        assert!(
            e.mean_gap() < o.mean_gap() * 0.6,
            "elastic gap {} should be far below original {}",
            e.mean_gap(),
            o.mean_gap()
        );
    }

    #[test]
    fn resizing_saves_energy_not_just_machine_hours() {
        let none = three_phase(ElasticityMode::NoResizing, 120.0, 1500.0);
        let sel = three_phase(ElasticityMode::PrimarySelective, 120.0, 1500.0);
        assert!(
            sel.energy_kwh < 0.95 * none.energy_kwh,
            "selective {} kWh vs no-resizing {} kWh",
            sel.energy_kwh,
            none.energy_kwh
        );
        // With the off-state trickle, energy savings are smaller than
        // machine-hour savings.
        let mh_ratio = sel.machine_seconds / none.machine_seconds;
        let kwh_ratio = sel.energy_kwh / none.energy_kwh;
        assert!(kwh_ratio > mh_ratio, "trickle power must show up");
    }

    #[test]
    fn three_phase_no_resizing_has_three_phases() {
        let r = three_phase(ElasticityMode::NoResizing, 60.0, 1000.0);
        assert_eq!(r.phase_ends.len(), 3);
        // Peak at ~300 MB/s.
        let peak = r
            .samples
            .iter()
            .map(|s| s.client_throughput)
            .fold(0.0, f64::max);
        assert!((peak - 300e6).abs() < 15e6, "peak {peak}");
    }

    #[test]
    fn selective_recovers_faster_than_original() {
        let orig = three_phase(ElasticityMode::OriginalCh, 120.0, 1500.0);
        let sel = three_phase(ElasticityMode::PrimarySelective, 120.0, 1500.0);
        let d_orig = orig
            .recovery_delay(0.8)
            .expect("original should eventually recover");
        let d_sel = sel.recovery_delay(0.8).expect("selective should recover");
        assert!(
            d_sel < d_orig,
            "selective delay {d_sel}s should beat original {d_orig}s"
        );
    }
}
