//! Simulator configuration.
//!
//! Defaults model the paper's testbed (§V-A): 10 storage servers behind
//! 10 GbE with one 500 GB HDD each, 2-way replication, 4 MB objects, and a
//! KVM client whose virtual-disk path tops out around the ~300 MB/s peak
//! visible in Figures 3 and 7.

/// Which elasticity design the simulated cluster runs.
///
/// These are exactly the evaluation cases of §V: the no-resizing control,
/// the original consistent hashing baseline, and the elastic design with
/// full or selective re-integration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ElasticityMode {
    /// All servers stay on; nothing migrates ("no resizing").
    NoResizing,
    /// Uniform layout + original CH placement. Powering a server down
    /// requires re-replicating its data first (one departure at a time);
    /// powering up triggers a full, assume-empty data migration.
    OriginalCh,
    /// Equal-work layout + primary placement. Power-down is instant (no
    /// cleanup); power-up still migrates everything whose placement says
    /// it belongs on the returned servers ("primary+full").
    PrimaryFull,
    /// Equal-work layout + primary placement + dirty-table tracking:
    /// power-up migrates only offloaded data, rate-limited
    /// ("primary+selective").
    PrimarySelective,
}

impl ElasticityMode {
    /// Harness label matching the paper's figure legends.
    pub fn label(self) -> &'static str {
        match self {
            ElasticityMode::NoResizing => "No resizing",
            ElasticityMode::OriginalCh => "Original CH",
            ElasticityMode::PrimaryFull => "Primary+full",
            ElasticityMode::PrimarySelective => "Primary+selective",
        }
    }
}

/// Full simulator parameter set.
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// Cluster size `n`.
    pub servers: usize,
    /// Replication factor `r`.
    pub replicas: usize,
    /// Elasticity design under test.
    pub mode: ElasticityMode,
    /// Virtual-node fairness base `B` for the layouts.
    pub layout_base: u32,
    /// Per-server disk bandwidth, bytes/s.
    pub disk_bw: f64,
    /// Client-path ceiling (VM virtual disk / NIC), bytes/s.
    pub client_cap: f64,
    /// Seconds from power-on command to serving I/O.
    pub boot_delay: f64,
    /// Seconds from power-off command to actually dark (still draws
    /// power, already out of the placement).
    pub shutdown_delay: f64,
    /// Simulation time step, seconds.
    pub dt: f64,
    /// Data object size, bytes (Sheepdog uses 4 MB).
    pub object_size: u64,
    /// Fraction of aggregate active disk bandwidth an un-throttled full
    /// migration may consume (original CH recovery is aggressive).
    pub migration_share: f64,
    /// Rate limit for selective re-integration, bytes/s of payload.
    pub selective_rate: f64,
    /// Fraction of aggregate bandwidth re-replication (power-down
    /// clean-up in original CH) may consume.
    pub recovery_share: f64,
}

impl SimConfig {
    /// The paper's 10-node testbed under the given mode.
    pub fn paper_testbed(mode: ElasticityMode) -> Self {
        let mb = 1_000_000.0;
        SimConfig {
            servers: 10,
            replicas: 2,
            mode,
            layout_base: 10_000,
            disk_bw: 60.0 * mb,
            client_cap: 300.0 * mb,
            boot_delay: 30.0,
            shutdown_delay: 10.0,
            dt: 0.5,
            object_size: 4 * 1024 * 1024,
            migration_share: 0.7,
            selective_rate: 40.0 * mb,
            recovery_share: 0.5,
        }
    }

    /// Validate internal consistency (call before building a sim): every
    /// `f64` field must be finite and obey its sign or `0..=1` rule.
    pub fn validate(&self) -> Result<(), String> {
        if self.servers == 0 {
            return Err("servers must be >= 1".into());
        }
        if self.replicas == 0 || self.replicas > self.servers {
            return Err(format!(
                "replicas {} out of range 1..={}",
                self.replicas, self.servers
            ));
        }
        for (name, v) in [
            ("disk_bw", self.disk_bw),
            ("client_cap", self.client_cap),
            ("boot_delay", self.boot_delay),
            ("shutdown_delay", self.shutdown_delay),
            ("dt", self.dt),
            ("selective_rate", self.selective_rate),
        ] {
            if !v.is_finite() {
                return Err(format!("{name} must be finite, got {v}"));
            }
        }
        if self.dt <= 0.0 {
            return Err("dt must be positive".into());
        }
        if self.disk_bw <= 0.0 || self.client_cap <= 0.0 {
            return Err("bandwidths must be positive".into());
        }
        if self.object_size == 0 {
            return Err("object size must be positive".into());
        }
        for (name, v) in [
            ("migration_share", self.migration_share),
            ("recovery_share", self.recovery_share),
        ] {
            if !(0.0..=1.0).contains(&v) {
                return Err(format!("{name} must be within 0..=1, got {v}"));
            }
        }
        if self.selective_rate < 0.0 {
            return Err("selective_rate must be >= 0".into());
        }
        if self.boot_delay < 0.0 || self.shutdown_delay < 0.0 {
            return Err("delays must be >= 0".into());
        }
        Ok(())
    }

    /// Minimum active server count this mode can reach: the equal-work
    /// minimum `p` for elastic modes, `r` for the baselines (below `r`
    /// replication is impossible).
    pub fn min_active(&self) -> usize {
        let p = ech_core::layout::primary_count(self.servers);
        match self.mode {
            ElasticityMode::NoResizing => self.servers,
            ElasticityMode::OriginalCh => self.replicas.max(1),
            ElasticityMode::PrimaryFull | ElasticityMode::PrimarySelective => {
                p.max(self.replicas.min(self.servers))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_testbed_is_valid() {
        for mode in [
            ElasticityMode::NoResizing,
            ElasticityMode::OriginalCh,
            ElasticityMode::PrimaryFull,
            ElasticityMode::PrimarySelective,
        ] {
            SimConfig::paper_testbed(mode).validate().unwrap();
        }
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let mut c = SimConfig::paper_testbed(ElasticityMode::OriginalCh);
        c.replicas = 11;
        assert!(c.validate().is_err());
        let mut c = SimConfig::paper_testbed(ElasticityMode::OriginalCh);
        c.dt = 0.0;
        assert!(c.validate().is_err());
        let mut c = SimConfig::paper_testbed(ElasticityMode::OriginalCh);
        c.migration_share = 1.5;
        assert!(c.validate().is_err());
    }

    #[test]
    fn non_finite_values_are_rejected() {
        type Set = fn(&mut SimConfig, f64);
        let fields: [(&str, Set); 8] = [
            ("disk_bw", |c, v| c.disk_bw = v),
            ("client_cap", |c, v| c.client_cap = v),
            ("boot_delay", |c, v| c.boot_delay = v),
            ("shutdown_delay", |c, v| c.shutdown_delay = v),
            ("dt", |c, v| c.dt = v),
            ("migration_share", |c, v| c.migration_share = v),
            ("selective_rate", |c, v| c.selective_rate = v),
            ("recovery_share", |c, v| c.recovery_share = v),
        ];
        for (name, set) in fields {
            for v in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
                let mut c = SimConfig::paper_testbed(ElasticityMode::PrimarySelective);
                set(&mut c, v);
                let err = c.validate().expect_err(name);
                assert!(err.starts_with(name), "{name} = {v}: {err}");
            }
        }
    }

    #[test]
    fn min_active_per_mode() {
        let n = 10;
        let c = |m| SimConfig::paper_testbed(m);
        assert_eq!(c(ElasticityMode::NoResizing).min_active(), n);
        assert_eq!(c(ElasticityMode::OriginalCh).min_active(), 2);
        // equal-work minimum: p = 2 for n = 10.
        assert_eq!(c(ElasticityMode::PrimaryFull).min_active(), 2);
        assert_eq!(c(ElasticityMode::PrimarySelective).min_active(), 2);
    }

    #[test]
    fn labels_match_figures() {
        assert_eq!(ElasticityMode::OriginalCh.label(), "Original CH");
        assert_eq!(
            ElasticityMode::PrimarySelective.label(),
            "Primary+selective"
        );
    }
}
