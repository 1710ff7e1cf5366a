//! JSONL trace export, parsing and human summary.
//!
//! Every line is one event as a flat JSON object with integer-only
//! fields, so the text form is deterministic byte for byte (no float
//! formatting in the schema):
//!
//! ```json
//! {"cycle":3,"time_ms":3000,"seq":17,"kind":"exchange_begun","a":12,"b":209}
//! ```
//!
//! `a`/`b` carry the kind's payload (initiator/peer, node, or epoch) and
//! are omitted when absent. The writer and parser are hand-rolled — the
//! protocol crates build offline with no serde_json.

use std::fmt::Write as _;

use crate::event::{Event, EventKind};

/// Serializes one event as its canonical JSONL line (no trailing newline).
pub fn to_json_line(event: &Event) -> String {
    let mut line = String::with_capacity(96);
    write_json_line(&mut line, event);
    line
}

/// Appends `event`'s canonical JSONL line (no trailing newline) to `out`.
fn write_json_line(out: &mut String, event: &Event) {
    let _ = write!(
        out,
        "{{\"cycle\":{},\"time_ms\":{},\"seq\":{},\"kind\":\"{}\"",
        event.cycle,
        event.time_ms,
        event.seq,
        event.kind.name()
    );
    match event.kind {
        EventKind::NodeJoined { node }
        | EventKind::NodeDeparted { node }
        | EventKind::ValueCorrupted { node }
        | EventKind::ExchangeRejected { node }
        | EventKind::LeaderElected { node } => {
            let _ = write!(out, ",\"a\":{node}");
        }
        EventKind::ExchangeVetoed { initiator, peer }
        | EventKind::ExchangeBegun { initiator, peer } => {
            let _ = write!(out, ",\"a\":{initiator},\"b\":{peer}");
        }
        EventKind::EpochRestarted { epoch } => {
            let _ = write!(out, ",\"a\":{epoch}");
        }
        EventKind::MessageLost | EventKind::MessageDelivered | EventKind::ExchangeCompleted => {}
    }
    out.push('}');
}

/// Serializes a merged event stream as a JSONL document (one line per
/// event, each newline-terminated), written straight into one `String`.
pub fn to_jsonl(events: &[Event]) -> String {
    let mut out = String::with_capacity(events.len() * 80);
    for event in events {
        write_json_line(&mut out, event);
        out.push('\n');
    }
    out
}

/// Why a trace line failed to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceParseError {
    /// A required integer field was missing or malformed.
    MissingField {
        /// 1-based line number.
        line: usize,
        /// The field that was absent or unreadable.
        field: &'static str,
    },
    /// The `kind` tag was not one of the known event names.
    UnknownKind {
        /// 1-based line number.
        line: usize,
        /// The unrecognized tag.
        kind: String,
    },
}

impl std::fmt::Display for TraceParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceParseError::MissingField { line, field } => {
                write!(f, "line {line}: missing or malformed field `{field}`")
            }
            TraceParseError::UnknownKind { line, kind } => {
                write!(f, "line {line}: unknown event kind `{kind}`")
            }
        }
    }
}

impl std::error::Error for TraceParseError {}

/// Extracts an integer field `"name":123` from a flat JSON object line.
fn int_field(line: &str, name: &str) -> Option<u64> {
    let needle = format!("\"{name}\":");
    let start = line.find(&needle)? + needle.len();
    let rest = &line[start..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Extracts a string field `"name":"value"` from a flat JSON object line.
fn str_field<'a>(line: &'a str, name: &str) -> Option<&'a str> {
    let needle = format!("\"{name}\":\"");
    let start = line.find(&needle)? + needle.len();
    let rest = &line[start..];
    let end = rest.find('"')?;
    Some(&rest[..end])
}

/// Parses a JSONL trace document back into events. Blank lines are
/// skipped; any malformed line is a typed error.
pub fn from_jsonl(text: &str) -> Result<Vec<Event>, TraceParseError> {
    let mut events = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let lineno = idx + 1;
        let line = raw.trim();
        if line.is_empty() {
            continue;
        }
        let cycle = int_field(line, "cycle").ok_or(TraceParseError::MissingField {
            line: lineno,
            field: "cycle",
        })?;
        let time_ms = int_field(line, "time_ms").ok_or(TraceParseError::MissingField {
            line: lineno,
            field: "time_ms",
        })?;
        let seq = int_field(line, "seq").ok_or(TraceParseError::MissingField {
            line: lineno,
            field: "seq",
        })?;
        let kind_tag = str_field(line, "kind").ok_or(TraceParseError::MissingField {
            line: lineno,
            field: "kind",
        })?;
        let a = int_field(line, "a");
        let b = int_field(line, "b");
        let need_a = |field| {
            a.ok_or(TraceParseError::MissingField {
                line: lineno,
                field,
            })
        };
        let kind = match kind_tag {
            "node_joined" => EventKind::NodeJoined { node: need_a("a")? },
            "node_departed" => EventKind::NodeDeparted { node: need_a("a")? },
            "value_corrupted" => EventKind::ValueCorrupted { node: need_a("a")? },
            "exchange_vetoed" => EventKind::ExchangeVetoed {
                initiator: need_a("a")?,
                peer: b.ok_or(TraceParseError::MissingField {
                    line: lineno,
                    field: "b",
                })?,
            },
            "exchange_begun" => EventKind::ExchangeBegun {
                initiator: need_a("a")?,
                peer: b.ok_or(TraceParseError::MissingField {
                    line: lineno,
                    field: "b",
                })?,
            },
            "message_lost" => EventKind::MessageLost,
            "message_delivered" => EventKind::MessageDelivered,
            "exchange_completed" => EventKind::ExchangeCompleted,
            "exchange_rejected" => EventKind::ExchangeRejected { node: need_a("a")? },
            "epoch_restarted" => EventKind::EpochRestarted {
                epoch: need_a("a")?,
            },
            "leader_elected" => EventKind::LeaderElected { node: need_a("a")? },
            other => {
                return Err(TraceParseError::UnknownKind {
                    line: lineno,
                    kind: other.to_string(),
                });
            }
        };
        events.push(Event {
            cycle,
            time_ms,
            seq,
            kind,
        });
    }
    Ok(events)
}

/// Renders a human-readable summary of a trace: per-kind totals, cycle
/// span, and the per-cycle exchange/loss profile.
pub fn summarize(events: &[Event]) -> String {
    if events.is_empty() {
        return "empty trace\n".to_string();
    }
    let mut first_cycle = u64::MAX;
    let mut last_cycle = 0u64;
    // (name, count) pairs in a fixed schema order.
    const KINDS: [&str; 11] = [
        "node_joined",
        "node_departed",
        "value_corrupted",
        "exchange_vetoed",
        "exchange_begun",
        "message_lost",
        "message_delivered",
        "exchange_completed",
        "exchange_rejected",
        "epoch_restarted",
        "leader_elected",
    ];
    let mut counts = [0u64; KINDS.len()];
    for event in events {
        first_cycle = first_cycle.min(event.cycle);
        last_cycle = last_cycle.max(event.cycle);
        if let Some(idx) = KINDS.iter().position(|k| *k == event.kind.name()) {
            counts[idx] += 1;
        }
    }
    let begun = counts[4];
    let lost = counts[5];
    let completed = counts[7];
    let mut out = String::new();
    let _ = writeln!(
        out,
        "trace: {} events over cycles {first_cycle}..={last_cycle}",
        events.len()
    );
    for (kind, count) in KINDS.iter().zip(counts.iter()) {
        if *count > 0 {
            let _ = writeln!(out, "  {kind:<20} {count}");
        }
    }
    if begun > 0 {
        let loss_pct = 100.0 * lost as f64 / begun as f64;
        let complete_pct = 100.0 * completed as f64 / begun as f64;
        let _ = writeln!(
            out,
            "exchanges: {begun} begun, {completed} loss-free ({complete_pct:.1}%), {lost} messages lost ({loss_pct:.1}% of exchanges)"
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<Event> {
        vec![
            Event {
                cycle: 0,
                time_ms: 0,
                seq: 0,
                kind: EventKind::NodeDeparted { node: 4 },
            },
            Event {
                cycle: 0,
                time_ms: 0,
                seq: 0,
                kind: EventKind::ExchangeBegun {
                    initiator: 1,
                    peer: 2,
                },
            },
            Event {
                cycle: 0,
                time_ms: 0,
                seq: 0,
                kind: EventKind::MessageLost,
            },
            Event {
                cycle: 1,
                time_ms: 1000,
                seq: 0,
                kind: EventKind::EpochRestarted { epoch: 0 },
            },
        ]
    }

    #[test]
    fn jsonl_round_trips() {
        let events = sample_events();
        let text = to_jsonl(&events);
        let parsed = from_jsonl(&text).unwrap();
        assert_eq!(parsed, events);
    }

    #[test]
    fn line_shape_is_stable() {
        let line = to_json_line(&Event {
            cycle: 3,
            time_ms: 3000,
            seq: 17,
            kind: EventKind::ExchangeBegun {
                initiator: 12,
                peer: 209,
            },
        });
        assert_eq!(
            line,
            "{\"cycle\":3,\"time_ms\":3000,\"seq\":17,\"kind\":\"exchange_begun\",\"a\":12,\"b\":209}"
        );
    }

    #[test]
    fn parse_errors_are_typed() {
        let err = from_jsonl("{\"cycle\":1}\n").unwrap_err();
        assert_eq!(
            err,
            TraceParseError::MissingField {
                line: 1,
                field: "time_ms"
            }
        );
        let err =
            from_jsonl("{\"cycle\":1,\"time_ms\":2,\"seq\":3,\"kind\":\"warp\"}\n").unwrap_err();
        assert_eq!(
            err,
            TraceParseError::UnknownKind {
                line: 1,
                kind: "warp".to_string()
            }
        );
    }

    #[test]
    fn summary_counts_kinds() {
        let text = summarize(&sample_events());
        assert!(text.contains("4 events over cycles 0..=1"), "{text}");
        assert!(text.contains("exchange_begun"), "{text}");
        assert!(text.contains("1 begun"), "{text}");
    }
}
