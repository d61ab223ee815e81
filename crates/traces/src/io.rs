//! Trace file I/O: JSON export/import so synthetic traces (or real ones,
//! if you have them) can be shared between runs and plotted externally.
//!
//! The format is the serde representation of [`Trace`]: the Table I
//! envelope plus the raw load series. `from_json` re-validates the
//! envelope, so a hand-edited file that no longer matches its own spec is
//! rejected instead of silently skewing an analysis.

use crate::spec::Trace;

/// Serialize a trace to a JSON string.
pub fn to_json(trace: &Trace) -> String {
    serde_json::to_string(trace).expect("traces always serialize")
}

/// Parse and validate a trace from JSON.
fn from_json(json: &str) -> Result<Trace, String> {
    let trace: Trace = serde_json::from_str(json).map_err(|e| format!("parse error: {e}"))?;
    trace.validate()?;
    Ok(trace)
}

/// Write a trace to `path` as JSON.
pub fn save(trace: &Trace, path: &std::path::Path) -> std::io::Result<()> {
    std::fs::write(path, to_json(trace))
}

/// Read and validate a trace from `path`.
pub fn load(path: &std::path::Path) -> Result<Trace, String> {
    let json = std::fs::read_to_string(path).map_err(|e| format!("read error: {e}"))?;
    from_json(&json)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth;

    #[test]
    fn json_round_trip_preserves_the_series() {
        let t = synth::cc_d(); // smallest of the family
        let back = from_json(&to_json(&t)).unwrap();
        assert_eq!(back.spec, t.spec);
        assert_eq!(back.load, t.load);
    }

    #[test]
    fn corrupted_envelope_is_rejected() {
        // Double the claimed bytes_processed: the series no longer
        // matches its own envelope and must be rejected on load.
        let mut t = synth::cc_d();
        t.spec.bytes_processed *= 2.0;
        assert!(
            from_json(&to_json(&t)).is_err(),
            "mismatched envelope must be rejected"
        );
    }

    #[test]
    fn file_round_trip() {
        let t = synth::cc_d();
        let path = std::env::temp_dir().join(format!("ech-trace-test-{}.json", std::process::id()));
        save(&t, &path).unwrap();
        let back = load(&path).unwrap();
        assert_eq!(back.spec.name, "CC-d");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn malformed_json_errors_cleanly() {
        assert!(from_json("{not json").is_err());
        assert!(load(std::path::Path::new("/nonexistent/trace.json")).is_err());
    }
}
