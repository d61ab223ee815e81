//! Resize-policy controllers: deciding *when* and *how far* to resize.
//!
//! The paper deliberately scopes this out ("does not discuss the problem
//! of how to make resizing decision based on workload demands") and names
//! it as future work, pointing at AutoScale/AGILE-style controllers. This
//! module supplies that layer so the elastic mechanisms have something to
//! drive them:
//!
//! * [`ReactiveController`] — size to the last observed load with
//!   headroom, hysteresis and a resize cooldown (AutoScale-flavoured);
//! * [`MovingAverageController`] — the same, over a smoothed load;
//! * [`TrendController`] — linear-trend extrapolation over a window,
//!   sizing for the load expected `lookahead` bins ahead (AGILE-style:
//!   "predicts medium-term resource demand to add servers ahead of time
//!   in order to avoid the latency of resizing").
//!
//! [`evaluate`] scores a controller against an offered-load series under
//! a boot delay: machine-hours spent vs. demand bins violated (capacity
//! below offered load), the classic power/SLO trade.

use ech_workload::series::LoadSeries;
use std::collections::VecDeque;

/// A sizing policy: sees the most recent offered load, returns the target
/// server count.
pub trait ResizeController {
    /// Decide the next target given the load observed over the last bin.
    fn target(&mut self, observed_load: f64) -> usize;

    /// Display name for harness output.
    fn name(&self) -> String;
}

/// Shared sizing parameters.
#[derive(Debug, Clone, Copy)]
pub struct SizerConfig {
    /// Bytes/s one active server serves.
    pub per_server_rate: f64,
    /// Smallest allowed cluster (e.g. the primary count `p`).
    pub min: usize,
    /// Largest allowed cluster (`n`).
    pub max: usize,
    /// Capacity headroom when sizing up (0.2 = keep 20 % spare).
    pub headroom: f64,
}

impl SizerConfig {
    fn size_for(&self, load: f64) -> usize {
        let need = (load * (1.0 + self.headroom) / self.per_server_rate).ceil() as usize;
        need.clamp(self.min, self.max)
    }
}

/// React to the last observation, with down-scaling hysteresis: shrink
/// only after `down_delay` consecutive bins agreed, and never resize more
/// often than every `cooldown` bins.
#[derive(Debug, Clone)]
pub struct ReactiveController {
    cfg: SizerConfig,
    down_delay: usize,
    cooldown: usize,
    below_count: usize,
    since_resize: usize,
    current: usize,
}

impl ReactiveController {
    /// New controller starting at `max` servers.
    pub fn new(cfg: SizerConfig, down_delay: usize, cooldown: usize) -> Self {
        ReactiveController {
            current: cfg.max,
            cfg,
            down_delay,
            cooldown,
            below_count: 0,
            since_resize: 0,
        }
    }
}

impl ResizeController for ReactiveController {
    fn target(&mut self, observed_load: f64) -> usize {
        let want = self.cfg.size_for(observed_load);
        self.since_resize += 1;
        if want > self.current {
            // Scale up immediately: under-provisioning hurts now.
            self.current = want;
            self.since_resize = 0;
            self.below_count = 0;
        } else if want < self.current {
            self.below_count += 1;
            if self.below_count >= self.down_delay && self.since_resize >= self.cooldown {
                self.current = want;
                self.since_resize = 0;
                self.below_count = 0;
            }
        } else {
            self.below_count = 0;
        }
        self.current
    }

    fn name(&self) -> String {
        format!("reactive(d{},c{})", self.down_delay, self.cooldown)
    }
}

/// Reactive sizing over a moving-average of the load.
#[derive(Debug, Clone)]
pub struct MovingAverageController {
    inner: ReactiveController,
    window: usize,
    buf: VecDeque<f64>,
}

impl MovingAverageController {
    /// Average over `window` bins, then apply reactive sizing.
    pub fn new(cfg: SizerConfig, window: usize, down_delay: usize, cooldown: usize) -> Self {
        assert!(window >= 1);
        MovingAverageController {
            inner: ReactiveController::new(cfg, down_delay, cooldown),
            window,
            buf: VecDeque::new(),
        }
    }
}

impl ResizeController for MovingAverageController {
    fn target(&mut self, observed_load: f64) -> usize {
        self.buf.push_back(observed_load);
        if self.buf.len() > self.window {
            self.buf.pop_front();
        }
        let mean = self.buf.iter().sum::<f64>() / self.buf.len() as f64;
        // Size for the larger of smoothed and instantaneous load so the
        // smoother never hides a spike that is happening right now.
        self.inner.target(mean.max(observed_load))
    }

    fn name(&self) -> String {
        format!("moving_avg(w{})", self.window)
    }
}

/// Linear-trend predictor: fit load over the last `window` bins, size for
/// the prediction `lookahead` bins out (covering the boot delay), never
/// below the instantaneous need.
#[derive(Debug, Clone)]
pub struct TrendController {
    cfg: SizerConfig,
    window: usize,
    lookahead: f64,
    buf: VecDeque<f64>,
    current: usize,
}

impl TrendController {
    /// New predictor starting at `max` servers.
    pub fn new(cfg: SizerConfig, window: usize, lookahead: usize) -> Self {
        assert!(window >= 2);
        TrendController {
            current: cfg.max,
            cfg,
            window,
            lookahead: lookahead as f64,
            buf: VecDeque::new(),
        }
    }

    /// Least-squares slope and mean of the buffered loads.
    fn fit(&self) -> (f64, f64) {
        let n = self.buf.len() as f64;
        let mean_x = (n - 1.0) / 2.0;
        let mean_y = self.buf.iter().sum::<f64>() / n;
        let mut num = 0.0;
        let mut den = 0.0;
        for (i, &y) in self.buf.iter().enumerate() {
            let dx = i as f64 - mean_x;
            num += dx * (y - mean_y);
            den += dx * dx;
        }
        let slope = if den > 0.0 { num / den } else { 0.0 };
        (slope, mean_y)
    }
}

impl ResizeController for TrendController {
    fn target(&mut self, observed_load: f64) -> usize {
        self.buf.push_back(observed_load);
        if self.buf.len() > self.window {
            self.buf.pop_front();
        }
        let predicted = if self.buf.len() >= 2 {
            let (slope, _) = self.fit();
            // Extrapolate from the newest sample.
            (observed_load + slope * self.lookahead).max(0.0)
        } else {
            observed_load
        };
        let want = self.cfg.size_for(predicted.max(observed_load));
        // Up immediately; down only when both prediction and observation
        // agree (the prediction already smooths).
        if want >= self.current || self.cfg.size_for(observed_load) < self.current {
            self.current = want.max(self.cfg.size_for(observed_load));
        }
        self.current
    }

    fn name(&self) -> String {
        format!("trend(w{},la{})", self.window, self.lookahead)
    }
}

/// Outcome of evaluating a controller on a load series.
#[derive(Debug, Clone)]
pub struct ControllerEval {
    /// Controller name.
    pub name: String,
    /// Total machine-hours consumed (powered servers, including booting).
    pub machine_hours: f64,
    /// Fraction of bins where *serving* capacity fell below offered load.
    pub violation_fraction: f64,
    /// Number of resize events issued.
    pub resizes: usize,
    /// Machine-hours of a clairvoyant ideal sizer on the same series.
    pub ideal_machine_hours: f64,
}

impl ControllerEval {
    /// Machine-hours relative to the clairvoyant ideal.
    pub fn relative_machine_hours(&self) -> f64 {
        self.machine_hours / self.ideal_machine_hours
    }
}

/// Evaluate a controller against `series`. Newly added servers draw power
/// immediately but serve only after `boot_bins` bins — the asymmetry that
/// makes prediction worthwhile.
pub fn evaluate(
    controller: &mut dyn ResizeController,
    series: &LoadSeries,
    cfg: SizerConfig,
    boot_bins: usize,
) -> ControllerEval {
    let dt_hours = series.bin_seconds / 3600.0;
    let mut powered = cfg.max;
    // Ages (in bins) of servers still booting.
    let mut booting: VecDeque<usize> = VecDeque::new();
    let mut machine_hours = 0.0;
    let mut ideal_hours = 0.0;
    let mut violations = 0usize;
    let mut resizes = 0usize;
    let mut prev_load = series.load.first().copied().unwrap_or(0.0);

    for &load in &series.load {
        // Controller sees last bin's load (it cannot see the future).
        let target = controller.target(prev_load).clamp(cfg.min, cfg.max);
        prev_load = load;

        if target != powered {
            resizes += 1;
            if target > powered {
                for _ in powered..target {
                    booting.push_back(0);
                }
            } else {
                // Shut down newest (booting) servers first.
                let mut to_drop = powered - target;
                while to_drop > 0 && booting.pop_back().is_some() {
                    to_drop -= 1;
                }
            }
            powered = target;
        }

        // Advance boots.
        for age in booting.iter_mut() {
            *age += 1;
        }
        while booting.front().is_some_and(|&a| a >= boot_bins) {
            booting.pop_front();
        }
        let serving = powered - booting.len();

        let capacity = serving as f64 * cfg.per_server_rate;
        if capacity + 1e-9 < load {
            violations += 1;
        }
        machine_hours += powered as f64 * dt_hours;
        let ideal = ((load / cfg.per_server_rate).ceil() as usize).clamp(cfg.min, cfg.max);
        ideal_hours += ideal as f64 * dt_hours;
    }

    ControllerEval {
        name: controller.name(),
        machine_hours,
        violation_fraction: violations as f64 / series.len().max(1) as f64,
        resizes,
        ideal_machine_hours: ideal_hours,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ech_workload::series::generate;

    fn cfg() -> SizerConfig {
        SizerConfig {
            per_server_rate: 10.0e6,
            min: 2,
            max: 50,
            headroom: 0.2,
        }
    }

    fn bursty() -> LoadSeries {
        generate::bursty(2_000, 60.0, 50.0e6, 0.03, 6.0, 0.7, 0.05, 11)
    }

    #[test]
    fn reactive_sizes_up_immediately() {
        let mut c = ReactiveController::new(cfg(), 5, 5);
        assert_eq!(c.target(1.0e6), 50); // starts at max, low load...
        for _ in 0..20 {
            c.target(1.0e6);
        }
        let small = c.target(1.0e6);
        assert!(small <= 2 + 1, "should have scaled down, at {small}");
        // A spike scales up in one step.
        let big = c.target(400.0e6);
        assert!(big >= 48, "spike should scale up immediately, got {big}");
    }

    #[test]
    fn reactive_hysteresis_delays_down() {
        let mut c = ReactiveController::new(cfg(), 5, 1);
        // Alternating load never satisfies 5 consecutive below-bins.
        for _ in 0..50 {
            c.target(400.0e6);
            let t = c.target(1.0e6);
            assert!(t >= 48, "flapping load must not scale down, got {t}");
        }
    }

    #[test]
    fn moving_average_smooths_spikes() {
        let mut ma = MovingAverageController::new(cfg(), 10, 3, 3);
        let mut re = ReactiveController::new(cfg(), 3, 3);
        // One-bin dip: the reactive controller counts it toward
        // hysteresis; the averaged controller barely notices.
        let mut ma_targets = Vec::new();
        let mut re_targets = Vec::new();
        for i in 0..40 {
            let load = if i % 7 == 0 { 10.0e6 } else { 300.0e6 };
            ma_targets.push(ma.target(load));
            re_targets.push(re.target(load));
        }
        let min_ma = ma_targets[10..].iter().min().unwrap();
        assert!(*min_ma >= 30, "smoothed controller held steady, {min_ma}");
    }

    #[test]
    fn trend_predicts_ramps() {
        let mut trend = TrendController::new(cfg(), 5, 3);
        // Steady ramp: prediction should exceed the instantaneous need.
        let mut last_pred = 0;
        let mut last_inst = 0;
        for i in 0..30 {
            let load = 10.0e6 * (i as f64 + 1.0);
            last_pred = trend.target(load);
            last_inst = cfg().size_for(load);
        }
        assert!(
            last_pred >= last_inst,
            "trend {last_pred} should be at or ahead of instantaneous {last_inst}"
        );
    }

    #[test]
    fn evaluate_counts_boot_violations() {
        // A step load with a slow reactive controller: during boot the
        // capacity lags and violations accrue; with zero boot delay they
        // mostly vanish.
        let mut loads = vec![20.0e6; 100];
        loads.extend(vec![400.0e6; 100]);
        let series = LoadSeries::new(60.0, loads);
        let mut slow = ReactiveController::new(cfg(), 3, 1);
        let with_boot = evaluate(&mut slow, &series, cfg(), 5);
        let mut slow2 = ReactiveController::new(cfg(), 3, 1);
        let no_boot = evaluate(&mut slow2, &series, cfg(), 0);
        assert!(with_boot.violation_fraction > no_boot.violation_fraction);
    }

    #[test]
    fn prediction_reduces_violations_on_ramps() {
        // Steep periodic ramps (~1 extra server needed per bin) with a
        // 5-bin boot delay and thin headroom: the trend controller boots
        // servers before the load arrives, violating fewer bins than pure
        // reaction at comparable machine-hours.
        let series = generate::diurnal(1_440, 60.0, 20.0e6, 400.0e6, 7_200.0);
        let thin = SizerConfig {
            headroom: 0.02,
            ..cfg()
        };
        let boot = 5;
        let mut reactive = ReactiveController::new(thin, 5, 3);
        let r = evaluate(&mut reactive, &series, thin, boot);
        let mut trend = TrendController::new(thin, 10, boot + 2);
        let t = evaluate(&mut trend, &series, thin, boot);
        assert!(
            t.violation_fraction < r.violation_fraction,
            "trend {:.4} should violate less than reactive {:.4}",
            t.violation_fraction,
            r.violation_fraction
        );
        assert!(
            t.machine_hours < r.machine_hours * 1.3,
            "prediction must not cost wildly more power: {} vs {}",
            t.machine_hours,
            r.machine_hours
        );
    }

    #[test]
    fn evaluation_is_deterministic() {
        let series = bursty();
        let mut a = ReactiveController::new(cfg(), 5, 3);
        let mut b = ReactiveController::new(cfg(), 5, 3);
        let ea = evaluate(&mut a, &series, cfg(), 5);
        let eb = evaluate(&mut b, &series, cfg(), 5);
        assert_eq!(ea.machine_hours, eb.machine_hours);
        assert_eq!(ea.resizes, eb.resizes);
    }

    #[test]
    fn controllers_respect_bounds() {
        let series = bursty();
        let c = cfg();
        let mut ctls: Vec<Box<dyn ResizeController>> = vec![
            Box::new(ReactiveController::new(c, 3, 2)),
            Box::new(MovingAverageController::new(c, 8, 3, 2)),
            Box::new(TrendController::new(c, 8, 4)),
        ];
        for ctl in ctls.iter_mut() {
            for &load in &series.load {
                let t = ctl.target(load);
                assert!((c.min..=c.max).contains(&t), "{} out of bounds", ctl.name());
            }
        }
    }
}
