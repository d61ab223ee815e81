//! Histories: timestamped invocation/response event streams.
//!
//! A history is the raw material of linearizability checking: every
//! operation a client issued against the `Cluster` public API appears
//! as an *invocation* event followed (on the same logical thread) by a
//! *response* event. Events carry recorder-assigned dense thread ids
//! (`t0, t1, …` in first-record order) and VirtualClock timestamps;
//! only the event *order* matters to the checker, but the timestamps
//! make recorded histories auditable against the cluster's clock.
//!
//! The witness schema (`l1:<model>:<events…>`) serialises an event
//! stream compactly and reversibly: [`render_witness`] and
//! [`parse_witness`] round-trip byte-identically, which is what makes a
//! non-linearizable witness a standalone replayable artifact — the
//! checker re-runs on the parsed events and must reach the same
//! verdict.

/// Interned payload value id. The recorder maps each distinct payload
/// byte string to a small dense id in first-seen order, so witnesses
/// print `v0`/`v1` rather than raw bytes.
pub type Val = u32;

/// One operation against the sequential specification.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Op {
    /// Write `val` under `key` (quorum write; degraded acks included).
    Put {
        /// Object id the write targets.
        key: u64,
        /// Interned payload id written.
        val: Val,
    },
    /// Read `key`.
    Get {
        /// Object id the read targets.
        key: u64,
    },
    /// Delete `key`. The cluster has no public remove yet; the op is
    /// part of the spec (and the witness schema) so unit histories and
    /// the async-core refactor can use it without a schema bump.
    Remove {
        /// Object id the delete targets.
        key: u64,
    },
    /// Resize the membership to `active` servers — an atomic view
    /// transition with no key-value effect.
    Resize {
        /// Active server count after the transition.
        active: u32,
    },
    /// A dirty-table heal pass — a spec-level no-op.
    Heal,
    /// A re-integration pass (step, batch or full drain) — a spec-level
    /// no-op.
    Reintegrate,
}

impl Op {
    /// The key this op reads or writes, when it has one. Keyless ops
    /// (resize/heal/reintegrate) are spec-level no-ops and drop out of
    /// the per-key partitions.
    pub fn key(&self) -> Option<u64> {
        match self {
            Op::Put { key, .. } | Op::Get { key } | Op::Remove { key } => Some(*key),
            Op::Resize { .. } | Op::Heal | Op::Reintegrate => None,
        }
    }
}

/// One operation response.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Ret {
    /// Acknowledged (full-strength write, delete, resize, heal …).
    Ok,
    /// Acknowledged degraded: the quorum was met but replicas were
    /// missed and a dirty entry logged. Spec-equivalent to [`Ret::Ok`]
    /// — degraded writes are visible-after-ack.
    Deg,
    /// A read returned the payload with this interned id.
    Val(Val),
    /// An authoritative miss: no replica holds the object and no
    /// transient failure could explain the gap. Legal only when the
    /// register is empty at the linearization point.
    NotFound,
    /// A transient failure: the object may well be there. Information-
    /// free — a read returning this is legal in any state and the op is
    /// dropped from the history.
    Unavailable,
    /// The operation failed with an error that leaves its effect
    /// uncertain (lost ack, quorum shortfall, deadline burn). The op
    /// *may* have taken effect; the checker branches both ways.
    Err,
}

/// Invocation or response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// An operation began.
    Invoke(Op),
    /// The most recent open operation on the same thread completed.
    Return(Ret),
}

/// One history event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Recorder-assigned dense thread id (first-record order).
    pub tid: u32,
    /// Invocation or response.
    pub kind: EventKind,
    /// VirtualClock timestamp, nanoseconds. Not part of the witness
    /// schema — ordering is what linearizability consumes.
    pub at_ns: u64,
}

/// Render an event stream in the `l1` witness body format:
/// events joined by `/`, invocations as `i<tid>.<op>`, responses as
/// `r<tid>.<ret>`.
fn render_events(events: &[Event]) -> String {
    let mut out = String::new();
    for (n, e) in events.iter().enumerate() {
        if n > 0 {
            out.push('/');
        }
        match e.kind {
            EventKind::Invoke(op) => {
                out.push('i');
                out.push_str(&e.tid.to_string());
                out.push('.');
                match op {
                    Op::Put { key, val } => out.push_str(&format!("p{key}=v{val}")),
                    Op::Get { key } => out.push_str(&format!("g{key}")),
                    Op::Remove { key } => out.push_str(&format!("d{key}")),
                    Op::Resize { active } => out.push_str(&format!("z{active}")),
                    Op::Heal => out.push('h'),
                    Op::Reintegrate => out.push('b'),
                }
            }
            EventKind::Return(ret) => {
                out.push('r');
                out.push_str(&e.tid.to_string());
                out.push('.');
                match ret {
                    Ret::Ok => out.push_str("ok"),
                    Ret::Deg => out.push_str("dg"),
                    Ret::Val(v) => out.push_str(&format!("v{v}")),
                    Ret::NotFound => out.push_str("nf"),
                    Ret::Unavailable => out.push_str("un"),
                    Ret::Err => out.push('e'),
                }
            }
        }
    }
    out
}

/// Render a full `l1:<model>:<events…>` witness line.
pub fn render_witness(model: &str, events: &[Event]) -> String {
    format!("l1:{model}:{}", render_events(events))
}

/// Parse a `l1:<model>:<events…>` witness line back into its model
/// name and event stream. Timestamps are not part of the schema and
/// come back as zero. Errors carry a human-readable reason.
pub fn parse_witness(s: &str) -> Result<(String, Vec<Event>), String> {
    let rest = s
        .strip_prefix("l1:")
        .ok_or_else(|| format!("witness must start with `l1:`, got `{s}`"))?;
    let (model, body) = rest
        .split_once(':')
        .ok_or_else(|| "witness missing `:<events>` after the model name".to_string())?;
    if model.is_empty() {
        return Err("witness has an empty model name".into());
    }
    let mut events = Vec::new();
    if body.is_empty() {
        return Ok((model.to_string(), events));
    }
    for tok in body.split('/') {
        events.push(parse_event(tok)?);
    }
    Ok((model.to_string(), events))
}

fn parse_event(tok: &str) -> Result<Event, String> {
    let bad = |why: &str| format!("bad witness event `{tok}`: {why}");
    let lead = match tok.as_bytes().first() {
        Some(b'i') => 'i',
        Some(b'r') => 'r',
        Some(_) => return Err(bad("must start with `i` or `r`")),
        None => return Err(bad("empty")),
    };
    let rest: &str = &tok[1..];
    let (tid_str, payload) = rest
        .split_once('.')
        .ok_or_else(|| bad("missing `.` after thread id"))?;
    let tid: u32 = tid_str
        .parse()
        .map_err(|_| bad("thread id is not a number"))?;
    let kind = match lead {
        'i' => EventKind::Invoke(parse_op(payload).map_err(|w| bad(&w))?),
        _ => EventKind::Return(parse_ret(payload).map_err(|w| bad(&w))?),
    };
    Ok(Event {
        tid,
        kind,
        at_ns: 0,
    })
}

fn parse_op(s: &str) -> Result<Op, String> {
    match s.as_bytes().first() {
        Some(b'p') => {
            let rest = &s[1..];
            let (key, val) = rest
                .split_once("=v")
                .ok_or_else(|| "put missing `=v<val>`".to_string())?;
            Ok(Op::Put {
                key: key.parse().map_err(|_| "bad put key".to_string())?,
                val: val.parse().map_err(|_| "bad put value id".to_string())?,
            })
        }
        Some(b'g') => Ok(Op::Get {
            key: s[1..].parse().map_err(|_| "bad get key".to_string())?,
        }),
        Some(b'd') => Ok(Op::Remove {
            key: s[1..].parse().map_err(|_| "bad remove key".to_string())?,
        }),
        Some(b'z') => Ok(Op::Resize {
            active: s[1..]
                .parse()
                .map_err(|_| "bad resize active count".to_string())?,
        }),
        Some(b'h') if s.len() == 1 => Ok(Op::Heal),
        Some(b'b') if s.len() == 1 => Ok(Op::Reintegrate),
        _ => Err(format!("unknown op `{s}`")),
    }
}

fn parse_ret(s: &str) -> Result<Ret, String> {
    match s {
        "ok" => Ok(Ret::Ok),
        "dg" => Ok(Ret::Deg),
        "nf" => Ok(Ret::NotFound),
        "un" => Ok(Ret::Unavailable),
        "e" => Ok(Ret::Err),
        _ => {
            let v = s
                .strip_prefix('v')
                .ok_or_else(|| format!("unknown return `{s}`"))?;
            Ok(Ret::Val(v.parse().map_err(|_| "bad value id".to_string())?))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn witness_roundtrip_is_byte_identical() {
        let events = vec![
            Event {
                tid: 0,
                kind: EventKind::Invoke(Op::Put { key: 101, val: 1 }),
                at_ns: 5,
            },
            Event {
                tid: 0,
                kind: EventKind::Return(Ret::Ok),
                at_ns: 6,
            },
            Event {
                tid: 1,
                kind: EventKind::Invoke(Op::Get { key: 101 }),
                at_ns: 7,
            },
            Event {
                tid: 1,
                kind: EventKind::Return(Ret::Val(0)),
                at_ns: 8,
            },
            Event {
                tid: 2,
                kind: EventKind::Invoke(Op::Resize { active: 3 }),
                at_ns: 9,
            },
            Event {
                tid: 2,
                kind: EventKind::Return(Ret::Ok),
                at_ns: 10,
            },
            Event {
                tid: 3,
                kind: EventKind::Invoke(Op::Remove { key: 7 }),
                at_ns: 11,
            },
            Event {
                tid: 3,
                kind: EventKind::Return(Ret::NotFound),
                at_ns: 12,
            },
            Event {
                tid: 4,
                kind: EventKind::Invoke(Op::Heal),
                at_ns: 13,
            },
            Event {
                tid: 4,
                kind: EventKind::Return(Ret::Deg),
                at_ns: 14,
            },
            Event {
                tid: 5,
                kind: EventKind::Invoke(Op::Reintegrate),
                at_ns: 15,
            },
            Event {
                tid: 5,
                kind: EventKind::Return(Ret::Unavailable),
                at_ns: 16,
            },
            Event {
                tid: 6,
                kind: EventKind::Invoke(Op::Put { key: 1, val: 9 }),
                at_ns: 17,
            },
            Event {
                tid: 6,
                kind: EventKind::Return(Ret::Err),
                at_ns: 18,
            },
        ];
        let w = render_witness("some-model", &events);
        let (model, parsed) = parse_witness(&w).unwrap();
        assert_eq!(model, "some-model");
        assert_eq!(render_witness(&model, &parsed), w);
        // Parsed kinds match (timestamps are schema-external).
        for (a, b) in events.iter().zip(parsed.iter()) {
            assert_eq!(a.tid, b.tid);
            assert_eq!(a.kind, b.kind);
        }
    }

    #[test]
    fn parse_rejects_malformed_witnesses() {
        assert!(parse_witness("v3:sc:b2:m0:x:t0").is_err());
        assert!(parse_witness("l1::i0.g1").is_err());
        assert!(parse_witness("l1:m:x0.g1").is_err());
        assert!(parse_witness("l1:m:i0g1").is_err());
        assert!(parse_witness("l1:m:iX.g1").is_err());
        assert!(parse_witness("l1:m:i0.p5").is_err());
        assert!(parse_witness("l1:m:r0.zz").is_err());
        assert!(parse_witness("l1:m:i0.hh").is_err());
    }
}
