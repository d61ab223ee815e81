//! `Cluster::put`: Algorithm 1 placement, quorum writes, dirty logging.

use super::*;

impl Cluster {
    /// Write an object: place at the current version, store on the
    /// replica nodes, record the header, and log a dirty entry when the
    /// cluster is not at full power.
    ///
    /// The write is acknowledged once the configured
    /// [`WriteQuorum`](super::WriteQuorum) is met. The primary replica is
    /// mandatory; transiently-failing nodes are retried under the
    /// configured [`RetryPolicy`](crate::retry::RetryPolicy). Secondaries
    /// still missing after retries are recorded in the dirty table —
    /// exactly like power-offloaded writes — so [`Cluster::heal_dirty`]
    /// and [`Cluster::repair`] converge the object back to full
    /// replication. Of the secondaries that cost the quorum, one that
    /// refused the write itself (not [`NodeError::is_link_failure`]) is
    /// the error reported.
    pub fn put(&self, oid: ObjectId, data: Bytes) -> Result<Placement, ClusterError> {
        let span = self.recorder.inv_put(oid, &data, &*self.clock);
        if self.mutation.mutated(Mutation::AckBeforeWrite) {
            // The ack belongs after the write body: recording it first
            // is the caller-visible analogue of replying to the client
            // before the log write is durable.
            self.recorder.ret_put(span, &Ok(()), &*self.clock);
            return self.put_epochs(oid, data);
        }
        let result = self.put_epochs(oid, data);
        self.recorder.ret_put(span, &result, &*self.clock);
        result
    }

    /// [`Cluster::put`]'s body, bracketed by the lincheck facade above
    /// so recorded histories see the ack exactly when the caller does.
    fn put_epochs(&self, oid: ObjectId, data: Bytes) -> Result<Placement, ClusterError> {
        // A resize can race this write between the placement snapshot and
        // the node I/O, powering a targeted node off mid-flight. That
        // failure is an artifact of the stale snapshot, not of cluster
        // health: re-place at the new membership version and try again
        // (bounded — each extra pass requires the version to have moved).
        let mut epochs = 0;
        // One budget for the whole put, epoch re-placements included.
        let deadline = self.op_deadline();
        loop {
            let (placement, version, power_dirty) = {
                let view = self.view.peek();
                let p = view.place_current(oid)?;
                (p, view.current_version(), view.write_is_dirty())
            };
            match self.put_at(oid, &data, placement, version, power_dirty, deadline) {
                Err(ClusterError::Node(NodeError::PoweredOff))
                    if epochs < 4 && self.current_version() != version =>
                {
                    epochs += 1;
                }
                other => return other,
            }
        }
    }

    /// One write attempt against a fixed placement snapshot.
    fn put_at(
        &self,
        oid: ObjectId,
        data: &Bytes,
        placement: Placement,
        version: VersionId,
        power_dirty: bool,
        deadline: Deadline,
    ) -> Result<Placement, ClusterError> {
        let servers = placement.servers();
        let primary = placement.primary_slot();
        let required = self.cfg.write_quorum.required(servers.len());
        let mut written = 0usize;
        let mut missed = 0usize;
        let mut permanent: Option<NodeError> = None;
        for (rank, &server) in servers.iter().enumerate() {
            let node = self.node(server)?;
            if rank != primary && deadline.expired(&*self.clock) {
                // Budget gone: don't even send to the remaining
                // secondaries — count them missed and let the quorum
                // accounting below decide whether the write can still
                // degrade into an ack.
                missed += 1;
                continue;
            }
            let token = oid.raw() ^ ((server.index() as u64) << 48) ^ version.raw();
            let (result, retries) = self.call(server, node, deadline, token, |n| {
                let payload = if self.mutation.mutated(Mutation::AppendOnStore) {
                    // A non-idempotent store: a retransmitted request
                    // appends a second time.
                    let held = n.get(oid).map(|o| o.data).unwrap_or_default();
                    Bytes::from(held.iter().chain(data.iter()).copied().collect::<Vec<u8>>())
                } else {
                    data.clone()
                };
                n.put(oid, payload, version, power_dirty)
            });
            if retries > 0 {
                self.counters
                    .retries
                    .fetch_add(retries.into(), Ordering::Relaxed);
            }
            match result {
                Ok(()) => written += 1,
                Err(e) if rank == primary => {
                    // The primary anchors the header-version placement
                    // that degraded reads and healing rely on; a write
                    // that misses it is not acknowledged.
                    if deadline.expired(&*self.clock)
                        && matches!(e, NodeError::Timeout | NodeError::Partitioned)
                    {
                        self.counters
                            .deadline_exceeded
                            .fetch_add(1, Ordering::Relaxed);
                        return Err(ClusterError::DeadlineExceeded);
                    }
                    return Err(match e {
                        NodeError::Io => ClusterError::Unavailable,
                        other => ClusterError::Node(other),
                    });
                }
                Err(e) => {
                    // A link failure (an open breaker included) is not
                    // a node verdict: the replica is skipped and healed
                    // later, never allowed to veto the quorum as
                    // "permanent".
                    if !e.is_link_failure() && permanent.is_none() {
                        permanent = Some(e);
                    }
                    missed += 1;
                }
            }
        }
        if written < required {
            // A permanent secondary failure (e.g. DiskFull) that cost the
            // quorum is more actionable than a generic shortfall — no
            // amount of retrying will reach the quorum.
            if let Some(e) = permanent {
                return Err(ClusterError::Node(e));
            }
            if deadline.expired(&*self.clock) {
                // The budget, not the cluster, decided the shortfall:
                // fail cleanly within (just past) the deadline instead
                // of inviting a retry that would start expired.
                self.counters
                    .deadline_exceeded
                    .fetch_add(1, Ordering::Relaxed);
                return Err(ClusterError::DeadlineExceeded);
            }
            return Err(ClusterError::QuorumNotReached { written, required });
        }
        let is_dirty = power_dirty || missed > 0;
        self.headers.record_write(oid, version, is_dirty);
        // The ack and the dirty entry go together: the entry is what
        // makes a degraded or offloaded write self-healing (§III-E).
        if is_dirty && !self.mutation.mutated(Mutation::SkipDirtyLog) {
            self.log_dirty(DirtyEntry::new(oid, version));
        }
        if missed > 0 {
            self.counters.quorum_acks.fetch_add(1, Ordering::Relaxed);
            self.counters
                .replicas_missed
                .fetch_add(missed as u64, Ordering::Relaxed);
        }
        Ok(placement)
    }
}
