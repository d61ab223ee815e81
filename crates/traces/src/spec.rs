//! Trace specifications and Table I statistics.
//!
//! The paper analyses two Cloudera enterprise-customer Hadoop traces
//! (Table I): CC-a (< 100 machines, 1 month, 69 TB processed) and CC-b
//! (300 machines, 9 days, 473 TB). The real traces are proprietary; this
//! crate generates synthetic load series calibrated to the same envelope
//! (duration, machine count, bytes processed) and to §V-B's qualitative
//! observation that CC-a resizes far more frequently.

use ech_workload::series::LoadSeries;

/// Envelope of one trace, as reported in Table I.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceSpec {
    /// Trace name ("CC-a", "CC-b").
    pub name: String,
    /// Storage cluster size the analysis may scale up to.
    pub machines: usize,
    /// Trace length in seconds.
    pub duration_seconds: f64,
    /// Total bytes processed over the trace.
    pub bytes_processed: f64,
    /// Human-readable length ("1 month", "9 days") for Table I output.
    pub length_label: String,
}

impl TraceSpec {
    /// Table I row for CC-a.
    pub fn cc_a() -> Self {
        TraceSpec {
            name: "CC-a".into(),
            machines: 50,
            duration_seconds: 30.0 * 24.0 * 3600.0,
            bytes_processed: 69e12,
            length_label: "1 month".into(),
        }
    }

    /// Table I row for CC-b.
    pub fn cc_b() -> Self {
        TraceSpec {
            name: "CC-b".into(),
            machines: 180,
            duration_seconds: 9.0 * 24.0 * 3600.0,
            bytes_processed: 473e12,
            length_label: "9 days".into(),
        }
    }

    /// Mean offered load over the whole trace, bytes/second.
    pub fn mean_load(&self) -> f64 {
        self.bytes_processed / self.duration_seconds
    }
}

/// A trace: its envelope plus the offered-load series realising it.
#[derive(Debug, Clone)]
pub struct Trace {
    /// The envelope.
    pub spec: TraceSpec,
    /// Offered load per bin.
    pub load: LoadSeries,
}

impl Trace {
    /// Consistency check: the series must honour the spec's envelope.
    pub fn validate(&self) -> Result<(), String> {
        let dur = self.load.duration_seconds();
        if (dur - self.spec.duration_seconds).abs() / self.spec.duration_seconds > 0.01 {
            return Err(format!(
                "duration {dur} differs from spec {}",
                self.spec.duration_seconds
            ));
        }
        let bytes = self.load.total_bytes();
        if (bytes - self.spec.bytes_processed).abs() / self.spec.bytes_processed > 0.01 {
            return Err(format!(
                "bytes {bytes} differ from spec {}",
                self.spec.bytes_processed
            ));
        }
        Ok(())
    }

    /// Table I summary row: (name, machines, length, bytes processed).
    pub fn table1_row(&self) -> (String, String, String, String) {
        (
            self.spec.name.clone(),
            match self.spec.name.as_str() {
                "CC-a" => "<100".to_owned(),
                _ => self.spec.machines.to_string(),
            },
            self.spec.length_label.clone(),
            format!("{:.0}TB", self.spec.bytes_processed / 1e12),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_envelopes() {
        let a = TraceSpec::cc_a();
        assert_eq!(a.machines, 50);
        assert!((a.duration_seconds - 2_592_000.0).abs() < 1.0);
        assert!((a.bytes_processed - 69e12).abs() < 1.0);
        let b = TraceSpec::cc_b();
        assert!((b.duration_seconds - 777_600.0).abs() < 1.0);
        assert!((b.bytes_processed - 473e12).abs() < 1.0);
    }

    #[test]
    fn mean_loads_match_table1() {
        // CC-a: 69 TB / month = ~26.6 MB/s; CC-b: 473 TB / 9 days = ~608 MB/s.
        assert!((TraceSpec::cc_a().mean_load() / 1e6 - 26.6).abs() < 0.5);
        assert!((TraceSpec::cc_b().mean_load() / 1e6 - 608.0).abs() < 5.0);
    }

    #[test]
    fn validate_rejects_mismatched_series() {
        let spec = TraceSpec::cc_a();
        let bad = Trace {
            spec: spec.clone(),
            load: LoadSeries::new(60.0, vec![1.0; 10]),
        };
        assert!(bad.validate().is_err());
    }
}
