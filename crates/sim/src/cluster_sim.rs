//! The fluid cluster simulator.
//!
//! A time-stepped model of the paper's testbed: per-server disk bandwidth,
//! power-state latencies, a client whose offered load comes from a
//! [`Workload`], and background traffic from re-replication (original CH
//! power-down clean-up) and data re-integration (power-up migration).
//! Foreground and background flows share the aggregate disk bandwidth, so
//! un-throttled migration visibly depresses client throughput — the effect
//! Figures 3 and 7 measure.
//!
//! The simulator drives the *real* `ech-core` machinery end to end: every
//! simulated object write runs Algorithm 1 (or original CH), dirty entries
//! flow through a real [`InMemoryDirtyTable`], and power-up migration in
//! selective mode is planned by the real [`Reintegrator`] under a real
//! [`TokenBucket`]. Only time and bytes are simulated.

use crate::config::{ElasticityMode, SimConfig};
use crate::energy::{EnergyMeter, PowerModel};
use crate::power::PowerSimState;
use ech_core::dirty::{DirtyEntry, DirtyTable, HeaderMap, InMemoryDirtyTable};
use ech_core::ids::{ObjectId, ServerId};
use ech_core::layout::Layout;
use ech_core::placement::Strategy;
use ech_core::ratelimit::TokenBucket;
use ech_core::reintegration::{MigrationTask, Reintegrator};
use ech_core::view::ClusterView;
use ech_workload::objects::ObjectAllocator;
use ech_workload::three_phase::{PhaseSpec, Workload};
use std::collections::{BTreeMap, VecDeque};

/// One queued replica movement (full migration or re-replication).
#[derive(Debug, Clone, Copy)]
struct PlannedMove {
    oid: ObjectId,
}

/// Progress of the in-flight workload.
#[derive(Debug, Clone)]
struct WorkloadRun {
    phases: Vec<PhaseSpec>,
    idx: usize,
    read_left: f64,
    write_left: f64,
}

impl WorkloadRun {
    fn new(w: &Workload) -> Self {
        let mut run = WorkloadRun {
            phases: w.phases.clone(),
            idx: 0,
            read_left: 0.0,
            write_left: 0.0,
        };
        run.load_phase();
        run
    }

    fn load_phase(&mut self) {
        if let Some(p) = self.phases.get(self.idx) {
            self.read_left = p.read_bytes as f64;
            self.write_left = p.write_bytes as f64;
        }
    }

    fn done(&self) -> bool {
        self.idx >= self.phases.len()
    }

    fn offered_rate(&self) -> f64 {
        self.phases
            .get(self.idx)
            .and_then(|p| p.offered_rate)
            .unwrap_or(f64::INFINITY)
    }

    /// Fraction of the remaining bytes that are writes.
    fn write_fraction(&self) -> f64 {
        let total = self.read_left + self.write_left;
        if total <= 0.0 {
            0.0
        } else {
            self.write_left / total
        }
    }
}

/// What happened during one [`ClusterSim::step`].
#[derive(Debug, Clone, Copy, Default)]
pub struct StepEvents {
    /// A workload phase (0-based index) finished during this tick.
    pub phase_ended: Option<usize>,
    /// The membership version changed (servers joined or left placement).
    pub version_changed: bool,
    /// The whole workload is complete.
    pub workload_done: bool,
}

/// An instantaneous sample of the simulated cluster.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Simulation time, seconds.
    pub time: f64,
    /// Client throughput achieved over the last tick, bytes/s.
    pub client_throughput: f64,
    /// Servers drawing power (active + booting + shutting down).
    pub powered: usize,
    /// Servers serving I/O.
    pub active: usize,
    /// Current workload phase (1-based; 0 = no workload / finished).
    pub phase: usize,
}

/// The simulator.
pub struct ClusterSim {
    cfg: SimConfig,
    view: ClusterView,
    power: Vec<PowerSimState>,
    target: usize,
    time: f64,

    /// Physical replica locations per object. A `BTreeMap` keeps
    /// iteration order deterministic (analyzer rule D1) — replanning
    /// scans walk it in key order with no post-hoc sorting.
    locations: BTreeMap<ObjectId, Vec<ServerId>>,
    dirty: InMemoryDirtyTable,
    headers: HeaderMap,
    reintegrator: Reintegrator,
    bucket: TokenBucket,

    /// Assume-empty migration queue (original CH / primary+full size-up).
    full_queue: VecDeque<PlannedMove>,
    full_head_progress: f64,
    /// Re-replication queue (original CH size-down clean-up).
    recovery_queue: VecDeque<PlannedMove>,
    recovery_head_progress: f64,
    /// In-flight selective task: (task, bytes already moved).
    selective_current: Option<(MigrationTask, f64)>,

    allocator: ObjectAllocator,
    write_accum: f64,
    workload: Option<WorkloadRun>,

    // Telemetry.
    last_client_throughput: f64,
    machine_seconds: f64,
    migrated_bytes: f64,
    power_model: PowerModel,
    energy: EnergyMeter,
}

impl ClusterSim {
    /// Build a simulator at full power with no data.
    ///
    /// # Panics
    /// Panics if the configuration fails [`SimConfig::validate`].
    pub fn new(cfg: SimConfig) -> Self {
        if let Err(e) = cfg.validate() {
            panic!("invalid sim config: {e}");
        }
        let strategy = match cfg.mode {
            ElasticityMode::NoResizing | ElasticityMode::OriginalCh => Strategy::Original,
            ElasticityMode::PrimaryFull | ElasticityMode::PrimarySelective => Strategy::Primary,
        };
        let layout = Layout::for_strategy(strategy, cfg.servers, cfg.layout_base);
        let view = ClusterView::new(layout, strategy, cfg.replicas);
        let bucket = TokenBucket::new(cfg.selective_rate, cfg.selective_rate.max(1.0));
        ClusterSim {
            power: vec![PowerSimState::Active; cfg.servers],
            target: cfg.servers,
            time: 0.0,
            locations: BTreeMap::new(),
            dirty: InMemoryDirtyTable::new(),
            headers: HeaderMap::new(),
            reintegrator: Reintegrator::new(),
            bucket,
            full_queue: VecDeque::new(),
            full_head_progress: 0.0,
            recovery_queue: VecDeque::new(),
            recovery_head_progress: 0.0,
            selective_current: None,
            allocator: ObjectAllocator::new(0),
            write_accum: 0.0,
            workload: None,
            last_client_throughput: 0.0,
            machine_seconds: 0.0,
            migrated_bytes: 0.0,
            power_model: PowerModel::typical_storage_server(),
            energy: EnergyMeter::new(),
            view,
            cfg,
        }
    }

    /// The configuration in effect.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// Current simulation time in seconds.
    pub fn time(&self) -> f64 {
        self.time
    }

    /// The core cluster view (placement + membership history).
    pub fn view(&self) -> &ClusterView {
        &self.view
    }

    /// Number of objects currently stored.
    pub fn object_count(&self) -> usize {
        self.locations.len()
    }

    /// Machine-seconds consumed so far (power-proportionality metric).
    pub fn machine_seconds(&self) -> f64 {
        self.machine_seconds
    }

    /// Energy consumed so far in kWh under the configured power model
    /// (per-state draw, including the off-state BMC trickle).
    pub fn energy_kwh(&self) -> f64 {
        self.energy.kwh()
    }

    /// Total payload bytes moved by background work so far.
    pub fn migrated_bytes(&self) -> f64 {
        self.migrated_bytes
    }

    /// Dirty-table length (selective mode only grows it).
    pub fn dirty_len(&self) -> usize {
        self.dirty.len()
    }

    /// Attach a workload; it starts consuming from the next step.
    pub fn start_workload(&mut self, w: &Workload) {
        self.workload = Some(WorkloadRun::new(w));
    }

    /// Desired powered-server count. Clamped to the mode's minimum and the
    /// cluster size.
    pub fn set_target(&mut self, target: usize) {
        self.target = target.clamp(self.cfg.min_active(), self.cfg.servers);
    }

    /// The current resize target.
    pub fn target(&self) -> usize {
        self.target
    }

    /// Servers drawing power.
    pub fn powered_count(&self) -> usize {
        self.power.iter().filter(|s| s.draws_power()).count()
    }

    /// Servers serving I/O.
    pub fn active_count(&self) -> usize {
        self.power.iter().filter(|s| s.is_active()).count()
    }

    /// Write `count` objects instantly at the current version (test/
    /// experiment preload — models data present before the measurement
    /// window).
    pub fn preload_objects(&mut self, count: usize) {
        for _ in 0..count {
            let oid = self.allocator.alloc();
            self.write_object(oid);
        }
    }

    /// Instantaneous sample of the cluster state.
    pub fn sample(&self) -> Sample {
        Sample {
            time: self.time,
            client_throughput: self.last_client_throughput,
            powered: self.powered_count(),
            active: self.active_count(),
            phase: self
                .workload
                .as_ref()
                .map(|w| if w.done() { 0 } else { w.idx + 1 })
                .unwrap_or(0),
        }
    }

    // ----- internal: placement & writes ---------------------------------

    /// Place and record one object write at the current version.
    fn write_object(&mut self, oid: ObjectId) {
        let ver = self.view.current_version();
        match self.view.place_current(oid) {
            Ok(p) => {
                self.locations.insert(oid, p.servers().to_vec());
                if self.cfg.mode == ElasticityMode::PrimarySelective {
                    let is_dirty = self.view.write_is_dirty();
                    self.headers.record_write(oid, ver, is_dirty);
                    if is_dirty {
                        self.dirty.push_back(DirtyEntry::new(oid, ver));
                    }
                }
            }
            Err(_) => {
                // Not enough active servers for full replication — store
                // what we can on the active set (degraded write). The
                // controller keeps active >= max(r, min_active), so this
                // only happens in deliberately degenerate tests.
                self.locations.insert(oid, Vec::new());
            }
        }
    }

    // ----- internal: power control ---------------------------------------

    /// Count of servers that are committed on (active or booting).
    fn committed_on(&self) -> usize {
        self.power
            .iter()
            .filter(|s| matches!(s, PowerSimState::Active | PowerSimState::Booting { .. }))
            .count()
    }

    /// Initiate power transitions toward the target.
    fn run_controller(&mut self) {
        let committed = self.committed_on();
        if committed > self.target {
            let mut to_remove = committed - self.target;
            // Power off from the top of the expansion chain: booting
            // servers first (they serve nothing yet), then active ones.
            // Original CH must wait for the previous departure's
            // re-replication to finish before removing another server.
            while to_remove > 0 {
                // Highest-ranked committed server.
                let idx = self
                    .power
                    .iter()
                    .rposition(|s| {
                        matches!(s, PowerSimState::Active | PowerSimState::Booting { .. })
                    })
                    .expect("committed > 0");
                let was_active = self.power[idx].is_active();
                if self.cfg.mode == ElasticityMode::OriginalCh
                    && was_active
                    && !self.recovery_queue.is_empty()
                {
                    // Clean-up from the previous departure still running:
                    // "before the re-replication finishes, the storage is
                    // not able to tolerate another server's departure".
                    break;
                }
                self.power[idx] = PowerSimState::ShuttingDown {
                    remaining: self.cfg.shutdown_delay,
                };
                to_remove -= 1;
                if was_active {
                    self.sync_membership();
                    if self.cfg.mode == ElasticityMode::OriginalCh {
                        self.plan_recovery(ServerId(idx as u32));
                        // One at a time.
                        break;
                    }
                }
            }
        } else if committed < self.target {
            let mut to_add = self.target - committed;
            while to_add > 0 {
                // Lowest-ranked dark server.
                let Some(idx) = self.power.iter().position(|s| {
                    matches!(s, PowerSimState::Off | PowerSimState::ShuttingDown { .. })
                }) else {
                    break;
                };
                self.power[idx] = PowerSimState::Booting {
                    remaining: self.cfg.boot_delay,
                };
                to_add -= 1;
            }
        }
    }

    /// Record a membership version matching the current Active prefix.
    /// Returns true when the version changed.
    fn sync_membership(&mut self) -> bool {
        let active = self.active_count().max(1);
        if active != self.view.current_membership().active_count() {
            self.view.resize(active);
            true
        } else {
            false
        }
    }

    /// Queue re-replication of every replica lost with `server` (original
    /// CH departure clean-up).
    fn plan_recovery(&mut self, server: ServerId) {
        let mut oids: Vec<ObjectId> = self
            .locations
            .iter()
            .filter(|(_, locs)| locs.contains(&server))
            .map(|(&oid, _)| oid)
            .collect();
        oids.sort_unstable(); // determinism
        for oid in oids {
            self.recovery_queue.push_back(PlannedMove { oid });
        }
    }

    /// Queue assume-empty migration toward `newly_active` servers: every
    /// object whose *current* placement includes one of them is copied
    /// there, whether or not its data survived on disk (§II-C: consistent
    /// hashing "assumes that the added servers are empty").
    fn plan_full_migration(&mut self, newly_active: &[ServerId]) {
        if newly_active.is_empty() {
            return;
        }
        let mut oids: Vec<ObjectId> = Vec::new();
        for (&oid, _) in self.locations.iter() {
            if let Ok(p) = self.view.place_current(oid) {
                if p.servers().iter().any(|s| newly_active.contains(s)) {
                    oids.push(oid);
                }
            }
        }
        oids.sort_unstable();
        for oid in oids {
            self.full_queue.push_back(PlannedMove { oid });
        }
    }

    // ----- internal: background work -------------------------------------

    /// Advance a FIFO byte queue by `budget` payload bytes; each completed
    /// head move re-resolves the object to its current placement.
    /// Returns payload bytes actually consumed.
    fn drain_queue(queue_kind: QueueKind, sim: &mut ClusterSim, mut budget: f64) -> f64 {
        let object_size = sim.cfg.object_size as f64;
        let mut used = 0.0;
        loop {
            let (queue, progress) = match queue_kind {
                QueueKind::Full => (&mut sim.full_queue, &mut sim.full_head_progress),
                QueueKind::Recovery => (&mut sim.recovery_queue, &mut sim.recovery_head_progress),
            };
            let Some(head) = queue.front().copied() else {
                break;
            };
            let need = object_size - *progress;
            if budget + 1e-9 < need {
                *progress += budget;
                used += budget;
                break;
            }
            budget -= need;
            used += need;
            *progress = 0.0;
            queue.pop_front();
            // The object now sits exactly where the current version says.
            if let Ok(p) = sim.view.place_current(head.oid) {
                sim.locations.insert(head.oid, p.servers().to_vec());
            }
        }
        used
    }

    /// Advance selective re-integration under the token bucket. Returns
    /// payload bytes moved.
    fn drain_selective(&mut self, dt: f64) -> f64 {
        if self.cfg.mode != ElasticityMode::PrimarySelective {
            return 0.0;
        }
        self.bucket.refill(dt);
        let object_size = self.cfg.object_size as f64;
        let mut moved = 0.0;
        loop {
            if self.selective_current.is_none() {
                match self
                    .reintegrator
                    .next_task(&self.view, &mut self.dirty, &self.headers)
                {
                    Ok(task) => self.selective_current = Some((task, 0.0)),
                    Err(_) => break,
                }
            }
            let (task, progress) = self.selective_current.as_mut().expect("just set");
            let total = task.moves.len() as f64 * object_size;
            let need = total - *progress;
            let granted = self.bucket.consume_up_to(need);
            *progress += granted;
            moved += granted;
            if *progress + 1e-9 >= total {
                // Task complete: replicas land on their target placement.
                let oid = task.oid;
                let to = task.to.servers().to_vec();
                let target_version = task.target_version;
                self.locations.insert(oid, to);
                // Header follows the data (Figure 6): dirty clears only
                // at full power.
                if self.view.current_membership().is_full_power() {
                    self.headers.mark_clean(oid, target_version);
                } else {
                    self.headers.record_write(oid, target_version, true);
                }
                self.selective_current = None;
            } else {
                // Bucket exhausted for this tick.
                break;
            }
            if self.bucket.available() <= 1e-9 {
                break;
            }
        }
        moved
    }

    // ----- the step function ----------------------------------------------

    /// Advance the simulation by one tick of `dt` seconds.
    pub fn step(&mut self) -> StepEvents {
        let dt = self.cfg.dt;
        let mut events = StepEvents::default();

        // 1. Power-state timers; collect servers that finished booting.
        let mut finished_boot: Vec<ServerId> = Vec::new();
        for (i, state) in self.power.iter_mut().enumerate() {
            let was_booting = matches!(state, PowerSimState::Booting { .. });
            let (next, transitioned) = state.tick(dt);
            *state = next;
            if transitioned && was_booting {
                finished_boot.push(ServerId(i as u32));
            }
        }
        if !finished_boot.is_empty() {
            let prev_active = self.view.current_membership().active_count();
            if self.sync_membership() {
                events.version_changed = true;
                // Newly placement-eligible servers: the ranks beyond the
                // previous active prefix.
                let now_active = self.view.current_membership().active_count();
                let newly: Vec<ServerId> = (prev_active..now_active)
                    .map(|i| ServerId(i as u32))
                    .collect();
                match self.cfg.mode {
                    ElasticityMode::OriginalCh | ElasticityMode::PrimaryFull => {
                        self.plan_full_migration(&newly);
                    }
                    _ => {}
                }
            }
        }

        // 2. Resize controller.
        let ver_before = self.view.current_version();
        self.run_controller();
        if self.view.current_version() != ver_before {
            events.version_changed = true;
        }

        // 3. Background traffic.
        let total_bw: f64 = self
            .power
            .iter()
            .filter(|s| s.is_active())
            .map(|_| self.cfg.disk_bw)
            .sum();
        // Payload budgets for this tick (each payload byte costs ~2x disk
        // bandwidth: one read at the source, one write at the target).
        let recovery_budget = if self.recovery_queue.is_empty() {
            0.0
        } else {
            self.cfg.recovery_share * total_bw * dt / 2.0
        };
        let full_budget = if self.full_queue.is_empty() {
            0.0
        } else {
            self.cfg.migration_share * total_bw * dt / 2.0
        };
        let recovered = Self::drain_queue(QueueKind::Recovery, self, recovery_budget);
        let migrated = Self::drain_queue(QueueKind::Full, self, full_budget);
        let selective = self.drain_selective(dt);
        let background_payload = recovered + migrated + selective;
        self.migrated_bytes += background_payload;

        // 4. Client I/O.
        let background_bw = 2.0 * background_payload / dt;
        let client_bw = (total_bw - background_bw).max(0.0);
        let mut client_tp = 0.0;
        if let Some(run) = self.workload.as_mut() {
            if !run.done() {
                let wf = run.write_fraction();
                // Each client write byte lands on r servers; each read
                // byte is served once.
                let cost = wf * self.cfg.replicas as f64 + (1.0 - wf);
                let capacity = if cost > 0.0 { client_bw / cost } else { 0.0 };
                client_tp = run.offered_rate().min(self.cfg.client_cap).min(capacity);
                let mut bytes = client_tp * dt;
                let remaining = run.read_left + run.write_left;
                if bytes + 1e-6 >= remaining {
                    bytes = remaining;
                    // Recompute effective throughput for the partial tick.
                    client_tp = bytes / dt;
                }
                let write_bytes = bytes * wf;
                run.read_left = (run.read_left - (bytes - write_bytes)).max(0.0);
                run.write_left = (run.write_left - write_bytes).max(0.0);
                self.write_accum += write_bytes;
                if run.read_left + run.write_left <= 1e-6 {
                    events.phase_ended = Some(run.idx);
                    run.idx += 1;
                    run.load_phase();
                    if run.done() {
                        events.workload_done = true;
                    }
                }
            } else {
                events.workload_done = true;
            }
        }
        self.last_client_throughput = client_tp;

        // 5. Materialise accumulated writes as object writes.
        let object_size = self.cfg.object_size as f64;
        while self.write_accum >= object_size {
            self.write_accum -= object_size;
            let oid = self.allocator.alloc();
            self.write_object(oid);
        }

        // 6. Accounting.
        self.machine_seconds += self.powered_count() as f64 * dt;
        self.energy
            .accumulate(self.power_model.cluster_draw(&self.power), dt);
        self.time += dt;
        events
    }
}

#[derive(Debug, Clone, Copy)]
enum QueueKind {
    Full,
    Recovery,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sim(mode: ElasticityMode) -> ClusterSim {
        ClusterSim::new(SimConfig::paper_testbed(mode))
    }

    #[test]
    fn starts_full_power_idle() {
        let s = sim(ElasticityMode::PrimarySelective);
        assert_eq!(s.powered_count(), 10);
        assert_eq!(s.active_count(), 10);
        assert_eq!(s.object_count(), 0);
        assert_eq!(s.sample().phase, 0);
    }

    #[test]
    fn elastic_power_down_is_immediate() {
        let mut s = sim(ElasticityMode::PrimarySelective);
        s.preload_objects(1000);
        s.set_target(6);
        s.step();
        // Membership shrinks within one tick; the 4 servers drain power
        // for shutdown_delay but serve nothing.
        assert_eq!(s.view().current_membership().active_count(), 6);
        assert_eq!(s.active_count(), 6);
        // After the shutdown delay they stop drawing power.
        for _ in 0..((10.0 / 0.5) as usize + 2) {
            s.step();
        }
        assert_eq!(s.powered_count(), 6);
    }

    #[test]
    fn original_ch_power_down_is_gated_by_recovery() {
        let mut s = sim(ElasticityMode::OriginalCh);
        s.preload_objects(2000); // 8 GB of replicas to clean up per server
        s.set_target(6);
        s.step();
        // Only ONE server may leave until its re-replication finishes.
        assert_eq!(s.view().current_membership().active_count(), 9);
        assert!(!s.recovery_queue.is_empty());
        // Run until recovery drains; more departures follow one by one.
        let mut steps = 0;
        while s.view().current_membership().active_count() > 6 && steps < 10_000 {
            s.step();
            steps += 1;
        }
        assert_eq!(s.view().current_membership().active_count(), 6);
        assert!(
            steps > 20,
            "original CH must take many ticks to size down, took {steps}"
        );
    }

    #[test]
    fn target_clamps_to_mode_minimum() {
        let mut s = sim(ElasticityMode::PrimarySelective);
        s.set_target(0);
        assert_eq!(s.target(), 2); // p = 2 for n = 10
        let mut s = sim(ElasticityMode::NoResizing);
        s.set_target(3);
        assert_eq!(s.target(), 10);
    }

    #[test]
    fn power_up_takes_boot_delay() {
        let mut s = sim(ElasticityMode::PrimarySelective);
        s.set_target(6);
        for _ in 0..40 {
            s.step();
        }
        assert_eq!(s.powered_count(), 6);
        s.set_target(10);
        s.step();
        assert_eq!(s.powered_count(), 10, "booting servers draw power");
        assert_eq!(s.active_count(), 6, "but serve nothing yet");
        // After boot_delay they serve.
        for _ in 0..((30.0 / 0.5) as usize + 2) {
            s.step();
        }
        assert_eq!(s.active_count(), 10);
        assert!(s.view().current_membership().is_full_power());
    }

    #[test]
    fn dirty_entries_accumulate_only_when_scaled_down() {
        let mut s = sim(ElasticityMode::PrimarySelective);
        s.preload_objects(100);
        assert_eq!(s.dirty_len(), 0, "full-power preload is clean");
        s.set_target(6);
        s.step();
        s.preload_objects(100);
        assert_eq!(s.dirty_len(), 100);
    }

    #[test]
    fn selective_reintegration_clears_dirty_table_after_size_up() {
        let mut s = sim(ElasticityMode::PrimarySelective);
        s.preload_objects(500);
        s.set_target(6);
        s.step();
        s.preload_objects(500);
        let dirty_before = s.dirty_len();
        assert_eq!(dirty_before, 500);
        s.set_target(10);
        // Boot (30 s) + migrate at 40 MB/s; give it plenty of time.
        let mut t = 0;
        while (s.dirty_len() > 0 || s.selective_current.is_some()) && t < 20_000 {
            s.step();
            t += 1;
        }
        assert_eq!(s.dirty_len(), 0, "dirty table should drain");
        // Every object's location matches the full-power placement.
        for (&oid, locs) in s.locations.iter() {
            let want = s.view.place_current(oid).unwrap();
            let mut got = locs.clone();
            got.sort();
            let mut w = want.servers().to_vec();
            w.sort();
            assert_eq!(got, w, "object {oid} not re-integrated");
        }
    }

    #[test]
    fn full_modes_queue_assume_empty_migration() {
        let mut s = sim(ElasticityMode::PrimaryFull);
        s.preload_objects(500);
        s.set_target(6);
        for _ in 0..40 {
            s.step();
        }
        s.set_target(10);
        // Run through boot; once servers join, the queue fills.
        let mut queued_max = 0usize;
        for _ in 0..200 {
            s.step();
            queued_max = queued_max.max(s.full_queue.len());
        }
        assert!(
            queued_max > 100,
            "assume-empty migration should queue many objects, saw {queued_max}"
        );
    }

    #[test]
    fn machine_seconds_accumulate() {
        let mut s = sim(ElasticityMode::PrimarySelective);
        for _ in 0..10 {
            s.step();
        }
        // 10 ticks x 0.5 s x 10 powered servers.
        assert!((s.machine_seconds() - 50.0).abs() < 1e-6);
    }

    #[test]
    fn workload_phases_advance_and_finish() {
        let mut s = sim(ElasticityMode::NoResizing);
        let w = Workload::three_phase_figure(30.0);
        s.start_workload(&w);
        let mut ended = Vec::new();
        let mut guard = 0;
        loop {
            let ev = s.step();
            if let Some(p) = ev.phase_ended {
                ended.push(p);
            }
            if ev.workload_done || guard > 1_000_000 {
                break;
            }
            guard += 1;
        }
        assert_eq!(ended, vec![0, 1, 2]);
        // Phase 1 at ~300 MB/s effective: 14 GB in ~47 s.
        assert!(s.time() > 40.0);
    }

    #[test]
    fn throughput_respects_client_cap_and_replication() {
        let mut s = sim(ElasticityMode::NoResizing);
        let w = Workload::three_phase_paper();
        s.start_workload(&w);
        s.step();
        // Phase 1 pure writes, r = 2: aggregate 600 MB/s disk supports
        // 300 MB/s of client writes — exactly the client cap too.
        let tp = s.sample().client_throughput;
        assert!(
            (tp - 300.0e6).abs() < 1.0e6,
            "phase-1 throughput {tp} != ~300 MB/s"
        );
    }

    #[test]
    fn throughput_drops_when_servers_leave() {
        let mut s = sim(ElasticityMode::PrimarySelective);
        let w = Workload::three_phase_paper();
        s.start_workload(&w);
        s.step();
        let full = s.sample().client_throughput;
        s.set_target(4);
        for _ in 0..10 {
            s.step();
        }
        let small = s.sample().client_throughput;
        assert!(
            small < full * 0.5,
            "4 of 10 servers should cut write throughput: {small} vs {full}"
        );
    }
}
