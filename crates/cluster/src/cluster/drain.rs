//! Selective re-integration (Algorithm 2), its throttle, the
//! background worker, and healing of degraded writes.

use super::*;

/// Statistics from a re-integration pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReintegrationStats {
    /// Tasks (objects) migrated.
    pub tasks: usize,
    /// Individual replica moves executed.
    pub moves: usize,
    /// Payload bytes copied.
    pub bytes: u64,
    /// Replica moves whose copy did not land: a message-level fault after
    /// retries, or a destination a racing resize turned off or that is
    /// full (the task's entry is re-logged so a later drain re-plans it).
    pub failed_moves: usize,
}

impl ReintegrationStats {
    /// Accumulate another pass's counters into this one.
    pub fn absorb(&mut self, other: ReintegrationStats) {
        self.tasks += other.tasks;
        self.moves += other.moves;
        self.bytes += other.bytes;
        self.failed_moves += other.failed_moves;
    }
}

/// The dirty table as one Algorithm 2 scan sees it, counting the entries
/// the scan pops.
struct CountingScan {
    table: KvDirtyTable,
    popped: usize,
}

impl DirtyTable for CountingScan {
    fn push_back(&mut self, entry: DirtyEntry) {
        self.table.push_back(entry);
    }

    fn get(&self, index: usize) -> Option<DirtyEntry> {
        self.table.get(index)
    }

    fn pop_front(&mut self) -> Option<DirtyEntry> {
        let entry = self.table.pop_front();
        self.popped += usize::from(entry.is_some());
        entry
    }

    fn len(&self) -> usize {
        self.table.len()
    }
}

impl Cluster {
    /// Plan one migration task against the current snapshot. The engine
    /// lock serialises Algorithm 2's scan (and with it the dirty-table
    /// pops the scan performs).
    ///
    /// With a task comes the number of entries its scan popped, the
    /// task's own among them: the caller retires them only once
    /// [`Cluster::execute_task`] has copied and stamped or re-logged, so
    /// no clean read skips the header while the task's copies are in
    /// flight. A scan that plans nothing retires its pops here.
    pub(crate) fn plan_task(&self) -> Result<(MigrationTask, usize), Idle> {
        let view = self.view.peek();
        let mut engine = self.engine.lock();
        let mut scan = CountingScan {
            table: self.dirty.clone(),
            popped: 0,
        };
        match engine.next_task(view, &mut scan, &self.headers) {
            Ok(task) if !self.mutation.mutated(Mutation::RetireAtPop) => Ok((task, scan.popped)),
            planned => {
                // Retiring a task's entry at its pop opens a clean read
                // on the copy the offloaded write superseded.
                self.retire(scan.popped);
                planned.map(|task| (task, 0))
            }
        }
    }

    /// Drain up to `max_tasks` (at least one) re-integration tasks on
    /// the calling thread, planning and executing them task by task.
    /// Returns the idle reason only when not even the first task could
    /// be planned.
    ///
    /// Interleaving is what makes duplicate dirty entries cheap: once
    /// the first task for an object has restamped its header, the
    /// object's later entries no longer qualify and pop without planning
    /// work.
    pub fn reintegrate_batch(&self, max_tasks: usize) -> Result<ReintegrationStats, Idle> {
        let span = self.recorder.inv_reintegrate(&*self.clock);
        let result = self.reintegrate_batch_body(max_tasks);
        self.recorder.ret_ok(span, &*self.clock);
        result
    }

    fn reintegrate_batch_body(&self, max_tasks: usize) -> Result<ReintegrationStats, Idle> {
        let mut total = ReintegrationStats::default();
        for planned in 0..max_tasks.max(1) {
            match self.plan_task() {
                Ok((task, popped)) => {
                    total.absorb(self.execute_task(&task));
                    self.retire(popped);
                }
                Err(idle) if planned == 0 => return Err(idle),
                Err(_) => break,
            }
        }
        Ok(total)
    }

    /// Execute the byte movement and header restamp of one planned
    /// task. Two orders carry the safety argument: each move copies
    /// before it removes (a racing failure loses only the *copy*, never
    /// the source replica), and the header is stamped only after every
    /// copy landed (a reader never meets a header no replica satisfies).
    pub(crate) fn execute_task(&self, task: &MigrationTask) -> ReintegrationStats {
        let remove_before_copy = self.mutation.mutated(Mutation::RemoveBeforeCopy);
        let mut stats = ReintegrationStats {
            tasks: 1,
            ..Default::default()
        };
        if self.mutation.mutated(Mutation::StampBeforeCopy) {
            // The stamp belongs after the copies (below); running it
            // first opens the stale-header window.
            self.headers
                .record_write(task.oid, task.target_version, true);
        }
        // One budget for the whole task: every per-move retry loop
        // consults the same expiry (rule D8), so a task against a dark
        // fabric gives up instead of spending a fresh budget per move.
        let deadline = self.op_deadline();
        for m in &task.moves {
            let (Ok(src), Ok(dst)) = (self.node(m.from), self.node(m.to)) else {
                // A move naming a server outside the cluster is a planner
                // bug; skip it and let the entry be re-planned.
                continue;
            };
            let src_token = task.oid.raw() ^ ((m.from.index() as u64) << 48);
            let (got, _) = self.call(m.from, src, deadline, src_token, |n| n.get(task.oid));
            match got {
                Ok(obj) => {
                    let bytes = obj.data.len() as u64;
                    self.throttle_migration(bytes as f64);
                    if remove_before_copy {
                        // The source goes away before the copy exists,
                        // so a put failure below loses the replica.
                        // ech-allow(D7): replica removes are reconciliation messages the coordinator repeats at will; they ride the reliable queue and bypass the fabric (DESIGN §8)
                        src.remove(task.oid);
                    }
                    // The destination is active at the target version by
                    // construction; a put failure here (after transient
                    // retries) means a racing resize, a full disk or a
                    // message-level fault, and the entry is re-planned.
                    // The copy never replaces one stamped at or past the
                    // target: a full-power rewrite racing the move put it
                    // there, and it is newer than the moved data.
                    let overwrite = self.mutation.mutated(Mutation::MoveOverwritesNewer);
                    let dst_token = task.oid.raw() ^ ((m.to.index() as u64) << 48);
                    let (put, _) = self.call(m.to, dst, deadline, dst_token, |n| {
                        let data = obj.data.clone();
                        let (at, dirty) = (task.target_version, obj.header.dirty);
                        if overwrite {
                            n.put(task.oid, data, at, dirty)
                        } else {
                            n.put_moved(task.oid, data, at, dirty)
                        }
                    });
                    match put {
                        Ok(()) => {
                            if !remove_before_copy {
                                // ech-allow(D7): replica removes are reconciliation messages the coordinator repeats at will; they ride the reliable queue and bypass the fabric (DESIGN §8)
                                src.remove(task.oid);
                            }
                            stats.moves += 1;
                            stats.bytes += bytes;
                        }
                        Err(_) => stats.failed_moves += 1,
                    }
                }
                Err(e) if e.is_link_failure() => {
                    // The source may well hold the replica — the fabric
                    // just would not let us read it.
                    stats.failed_moves += 1;
                }
                Err(_) => {
                    // Replica already moved or source raced off: skip.
                }
            }
        }
        if stats.failed_moves > 0 {
            // The migration is incomplete through no fault of the plan:
            // a fault or a racing resize kept at least one copy from
            // landing. Advancing the header now could strand the object
            // (no copy would satisfy the new stamp), and the stamp would
            // pass the destination's old copy off as current, so leave
            // the header alone and put the entry back — a drain after
            // the faults clear re-plans exactly this work.
            let version = self
                .headers
                .header(task.oid)
                .map(|h| h.version)
                .unwrap_or(task.target_version);
            self.log_dirty(DirtyEntry::new(task.oid, version));
            self.migrated_bytes
                .fetch_add(stats.bytes, Ordering::Relaxed);
            return stats;
        }
        // Advance the object header to the re-integration target (see
        // Figure 6: the header version moves with every migration); the
        // dirty bit clears only at full power. Every replica of the
        // object is restamped, not just the moved ones — otherwise the
        // untouched siblings would look stale next to the new header.
        // A concurrent rewrite may have advanced the header beyond the
        // task's target; never downgrade it.
        let full_power = self.view.peek().current_membership().is_full_power();
        let superseded = self
            .headers
            .header(task.oid)
            .is_some_and(|h| h.version > task.target_version);
        if !superseded {
            self.stamp(
                task.oid,
                task.target_version,
                !full_power,
                task.to.servers(),
            );
        }
        self.migrated_bytes
            .fetch_add(stats.bytes, Ordering::Relaxed);
        stats
    }

    /// Block (on the cluster clock) until the migration limiter grants
    /// `bytes` of payload budget. No-op when unthrottled. Requests
    /// larger than the burst drain the bucket in instalments, so any
    /// object size makes progress.
    fn throttle_migration(&self, bytes: f64) {
        let Some(limiter) = &self.migration_limiter else {
            return;
        };
        let mut remaining = bytes;
        while remaining > 0.0 {
            let wait = {
                let mut t = limiter.lock();
                let now = self.clock.now();
                let dt = now.saturating_sub(t.last_refill);
                t.bucket.refill(dt.as_secs_f64());
                t.last_refill = now;
                remaining -= t.bucket.consume_up_to(remaining);
                if remaining <= 0.0 {
                    return;
                }
                Duration::from_secs_f64(remaining / t.bucket.rate())
            };
            // Guard dropped before sleeping: the background worker and
            // `reintegrate_all` share the bucket, and neither may hold it
            // while the other refills and drains.
            self.clock
                .sleep(wait.clamp(Duration::from_micros(100), Duration::from_millis(50)));
        }
    }

    /// Run re-integration until nothing more qualifies at the current
    /// version. Returns the accumulated stats.
    ///
    /// Healing runs first: quorum writes may have acked with replicas
    /// missing, and at full power Algorithm 2 pops such entries without
    /// moving anything (nothing "qualifies" when the entry's version has
    /// the same active count as the current one) — the missed replicas
    /// must be re-created before the table drains.
    pub fn reintegrate_all(&self) -> ReintegrationStats {
        let span = self.recorder.inv_reintegrate(&*self.clock);
        let stats = self.reintegrate_all_body();
        self.recorder.ret_ok(span, &*self.clock);
        stats
    }

    fn reintegrate_all_body(&self) -> ReintegrationStats {
        self.heal_dirty();
        let batch = self.cfg.reintegration_batch.max(1);
        let mut total = ReintegrationStats::default();
        loop {
            match self.reintegrate_batch(batch) {
                Ok(s) => {
                    let stalled = s.moves == 0 && s.failed_moves > 0;
                    total.absorb(s);
                    if stalled {
                        // Every move in the batch failed (e.g. on an
                        // unhealed partition): the
                        // entries are re-logged, but draining harder now
                        // would just loop against the same dead links.
                        // Come back after the network heals.
                        return total;
                    }
                }
                Err(_) => return total,
            }
        }
    }

    /// Spawn a background re-integration worker that repeatedly calls
    /// [`Cluster::reintegrate_batch`], sleeping `idle_wait` when idle.
    /// Stop it with [`Cluster::stop_background_worker`]; join the handle
    /// afterwards.
    pub fn start_background_worker(
        self: &Arc<Self>,
        idle_wait: std::time::Duration,
    ) -> std::thread::JoinHandle<()> {
        let me = Arc::clone(self);
        me.stop_worker.store(false, Ordering::Release);
        std::thread::spawn(move || {
            let batch = me.cfg.reintegration_batch.max(1);
            while !me.stop_worker.load(Ordering::Acquire) {
                match me.reintegrate_batch(batch) {
                    Ok(_) => {}
                    Err(_) => std::thread::sleep(idle_wait),
                }
            }
        })
    }

    /// Signal the background worker to exit.
    pub fn stop_background_worker(&self) {
        let order = if self.mutation.mutated(Mutation::RelaxedStopFlag) {
            // ech-allow(D5): deliberate seeded bug — the weak-memory
            // models need a real Relaxed publication for the checker to
            // catch.
            Ordering::Relaxed
        } else {
            Ordering::Release
        };
        self.stop_worker.store(true, order);
    }

    /// Has [`Cluster::stop_background_worker`] been called since the
    /// worker was (last) started? This is the worker loop's own exit
    /// test, exposed so tests and model-checking scenarios can observe
    /// the flag without joining the thread.
    pub fn stop_requested(&self) -> bool {
        self.stop_worker.load(Ordering::Acquire)
    }

    /// Heal replicas missed by degraded (quorum) writes: for every dirty
    /// object, re-create the replicas its *header-version* placement
    /// names but no node physically holds, copying the fresh replica a
    /// `sweep` of the nodes finds — the routine [`Cluster::repair`] runs
    /// too. Entries logged purely for power offloading are no-ops here
    /// (all their replicas exist, so no node is read) and are left to
    /// the re-integration engine, which owns the actual migrations.
    ///
    /// Healing targets the header-version placement — where the write
    /// intended its replicas — rather than the current one, so it never
    /// duplicates the engine's migration work. At full power, objects
    /// that end up fully placed get their dirty bit cleared.
    pub fn heal_dirty(&self) -> RepairStats {
        let span = self.recorder.inv_heal(&*self.clock);
        let stats = self.heal_dirty_body();
        self.recorder.ret_ok(span, &*self.clock);
        stats
    }

    fn heal_dirty_body(&self) -> RepairStats {
        // One batched LRANGE instead of a per-index LINDEX each: the
        // kv-backed table locks a shard per call, so reading the scan's
        // worth of entries in one op is what keeps a large backlog from
        // turning the heal pass into a lock convoy.
        let entries: Vec<DirtyEntry> = self.dirty.get_range(0, self.dirty.len());
        // One pinned view for the whole scan: entries healed against a
        // placement snapshot, not a per-entry reload (a resize racing
        // the scan is caught by the next heal pass either way).
        let view = self.view.peek();
        let full_power = view.current_membership().is_full_power();
        let mut seen = std::collections::HashSet::new();
        let mut stats = RepairStats::default();
        for entry in entries {
            let oid = entry.oid;
            if !seen.insert(oid) {
                continue;
            }
            stats.scanned += 1;
            let Some(h) = self.headers.header(oid) else {
                continue;
            };
            let Ok(placement) = view.place_at(oid, h.version) else {
                continue;
            };
            // Most dirty entries are power-dirty, not degraded: every
            // placement target already holds the object. Checking local
            // presence first keeps the common case off the (retried,
            // fault-injected) node sweep — this is what keeps the
            // reintegration drain rate intact, since `reintegrate_all`
            // leads with a full heal scan.
            if !self.holds_all(oid, &placement) {
                // One budget per healed object, shared by the sweep and
                // every target copy (rule D8): a dark fabric costs one
                // deadline per entry, not one per replica.
                let deadline = self.op_deadline();
                if let (Some(obj), _) = self.sweep(oid, h.version, deadline) {
                    self.copy_to_missing(oid, &obj, &placement, deadline, &mut stats);
                }
            }
            let placed_now = full_power
                && view
                    .place_current(oid)
                    .is_ok_and(|p| self.holds_all(oid, &p));
            if placed_now {
                self.stamp(oid, h.version, false, placement.servers());
            }
            if self.mutation.mutated(Mutation::RestampDownOnHeal) {
                // The oldest surviving stamp is where a *superseded*
                // copy lives, not where the object's latest write
                // landed — "reconciling" the header down to it
                // un-publishes every newer write to the object.
                let oldest = self
                    .nodes
                    .iter()
                    .filter_map(|n| n.get(oid).ok())
                    .map(|o| o.header.version)
                    .min();
                if let Some(v) = oldest.filter(|&v| v < h.version) {
                    self.headers.record_write(oid, v, h.dirty && !placed_now);
                }
            }
        }
        stats
    }
}
