//! Membership changes: `Cluster::resize` and silent-crash detection.

use super::*;

impl Cluster {
    /// Resize to `active` servers (an expansion-chain prefix): records a
    /// new membership version and flips node power states. Elastic
    /// placement needs no clean-up before power-down — that is the point.
    ///
    /// # Panics
    /// Panics if `active` is outside `1..=n`.
    pub fn resize(&self, active: usize) -> VersionId {
        let span = self.recorder.inv_resize(active, &*self.clock);
        let version = self.resize_views(active);
        self.recorder.ret_ok(span, &*self.clock);
        version
    }

    fn resize_views(&self, active: usize) -> VersionId {
        let _writer = self.view_write.lock();
        let mut next = ClusterView::clone(self.view.peek());
        let version = next.resize(active);
        // Power ordering around the snapshot swap: servers joining the
        // membership power on *before* the new view is published (a
        // reader of the new epoch must find them accepting I/O), and
        // servers leaving power off *after* (readers still pinning the
        // old epoch hit the PoweredOff epoch-retry path, same as before).
        for (i, node) in self.nodes.iter().enumerate() {
            if i < active {
                node.set_powered(true);
            }
        }
        match () {
            // The publication must be `Release` (rule D6's dynamic
            // analogue); `Relaxed` lets it linger in a store buffer.
            #[cfg(feature = "modelcheck")]
            () if self.mutation.mutated(Mutation::RelaxedPublish) => {
                self.view.store_relaxed(Arc::new(next));
            }
            () => self.view.store(Arc::new(next)),
        }
        for (i, node) in self.nodes.iter().enumerate() {
            if i >= active {
                node.set_powered(false);
            }
        }
        version
    }

    /// Scan for nodes that crashed *silently* (an injected crash powers
    /// the node off without telling the coordinator) and record a
    /// membership version excluding them, so placement stops targeting
    /// dead disks and repair can re-replicate. Returns the newly-marked
    /// servers.
    pub fn detect_and_mark_crashed(&self) -> Vec<ServerId> {
        let _writer = self.view_write.lock();
        let view = self.view.peek();
        let dark: Vec<ServerId> = (0..self.cfg.servers as u32)
            .map(ServerId)
            .filter(|&s| {
                view.current_membership().is_active(s)
                    && self.nodes.get(s.index()).is_some_and(|n| !n.is_powered())
            })
            .collect();
        if let Some((&head, tail)) = dark.split_first() {
            let mut next = ClusterView::clone(view);
            let mut table = next
                .current_membership()
                .with_state(head, ech_core::membership::PowerState::Off);
            for &s in tail {
                table = table.with_state(s, ech_core::membership::PowerState::Off);
            }
            next.record_membership(table);
            self.view.store(Arc::new(next));
        }
        dark
    }
}
