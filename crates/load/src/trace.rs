//! The plain-text trace format: one event per line,
//! `timestamp_ms tenant op spec budget`, space-separated. Traces are
//! the unit of reproducibility for load tests — a generated trace is
//! saved, checked in as a fixture, and replayed byte-identically, so
//! `to_string` ∘ [`Trace::parse`] must be the identity on well-formed
//! traces (proved in the tests below; the root `tests/load.rs` pins
//! the checked-in smoke fixture to its generator).
//!
//! Field vocabulary (validated on construction and parse):
//!
//! * `timestamp_ms` — event offset from trace start, non-decreasing.
//! * `tenant` — the `x-tenant` the request is issued under.
//! * `op` — `recommend`, `sweep`, `sweepstream` (the same sweep
//!   issued with `?stream=1` and consumed point-by-point), or `clean`.
//! * `spec` — objective token for solve ops (`bias`, `dup`, `frag`,
//!   or `measure@maxprτ` e.g. `bias@maxpr5`; an optional `~strategy`
//!   suffix pins the solver, e.g. `dup~slow`); `-` for `clean`.
//! * `budget` — budget token: `f<frac>` (fraction of total cleaning
//!   cost) or `a<n>` (absolute), comma-separated for `sweep`
//!   (`f0.05,f0.1`); for `clean`, `k<n>` objects to clean.

use std::fmt;

/// The request kind a trace event drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Op {
    /// `POST /v1/recommend` — one plan at one budget.
    Recommend,
    /// `POST /v1/sweep` — one plan per budget point.
    Sweep,
    /// `POST /v1/sweep?stream=1` — the same sweep consumed as a
    /// chunked stream, one point at a time (records time to first
    /// point alongside total latency).
    SweepStream,
    /// `POST /v1/streams/{id}/clean` — reveal objects, invalidating
    /// affected cache entries.
    Clean,
}

impl Op {
    /// The wire token (also the per-op metrics key).
    pub fn token(self) -> &'static str {
        match self {
            Op::Recommend => "recommend",
            Op::Sweep => "sweep",
            Op::SweepStream => "sweepstream",
            Op::Clean => "clean",
        }
    }

    fn parse(token: &str) -> Option<Self> {
        match token {
            "recommend" => Some(Op::Recommend),
            "sweep" => Some(Op::Sweep),
            "sweepstream" => Some(Op::SweepStream),
            "clean" => Some(Op::Clean),
            _ => None,
        }
    }
}

impl fmt::Display for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.token())
    }
}

/// One trace line: a request to issue at `timestamp_ms`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Offset from trace start, in milliseconds.
    pub timestamp_ms: u64,
    /// Tenant the request is issued under.
    pub tenant: String,
    /// Request kind.
    pub op: Op,
    /// Objective token (`-` for clean ops).
    pub spec: String,
    /// Budget token (see the module docs).
    pub budget: String,
}

/// A parse failure, with the offending line number (1-based).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceError {
    /// 1-based line number.
    pub line: usize,
    /// What was wrong.
    pub reason: String,
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "trace line {}: {}", self.line, self.reason)
    }
}

impl std::error::Error for TraceError {}

/// An ordered sequence of [`TraceEvent`]s.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Trace {
    events: Vec<TraceEvent>,
}

impl Trace {
    /// A trace over already-ordered events. Returns `Err` (with the
    /// offending position as the line number) if timestamps decrease
    /// or a field would not survive the line format (embedded
    /// whitespace, empty fields).
    pub fn new(events: Vec<TraceEvent>) -> Result<Self, TraceError> {
        let mut last = 0u64;
        for (i, event) in events.iter().enumerate() {
            let line = i + 1;
            if event.timestamp_ms < last {
                return Err(TraceError {
                    line,
                    reason: format!(
                        "timestamp {} decreases (previous {})",
                        event.timestamp_ms, last
                    ),
                });
            }
            last = event.timestamp_ms;
            for (what, field) in [
                ("tenant", &event.tenant),
                ("spec", &event.spec),
                ("budget", &event.budget),
            ] {
                if field.is_empty() || field.contains(char::is_whitespace) {
                    return Err(TraceError {
                        line,
                        reason: format!("{what} {field:?} is empty or contains whitespace"),
                    });
                }
            }
        }
        Ok(Self { events })
    }

    /// The events, in timestamp order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Event count.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the trace has no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Parses the line format. Blank lines and `#` comment lines are
    /// skipped (so fixtures may carry a header), but [`to_string`]
    /// never emits them — round-tripping normalizes them away.
    ///
    /// [`to_string`]: std::string::ToString
    pub fn parse(text: &str) -> Result<Self, TraceError> {
        let mut events = Vec::new();
        for (index, raw) in text.lines().enumerate() {
            let line = index + 1;
            let trimmed = raw.trim();
            if trimmed.is_empty() || trimmed.starts_with('#') {
                continue;
            }
            let fields: Vec<&str> = trimmed.split(' ').collect();
            let [ts, tenant, op, spec, budget] = fields.as_slice() else {
                return Err(TraceError {
                    line,
                    reason: format!("expected 5 space-separated fields, got {}", fields.len()),
                });
            };
            let timestamp_ms: u64 = ts.parse().map_err(|_| TraceError {
                line,
                reason: format!("bad timestamp {ts:?}"),
            })?;
            let op = Op::parse(op).ok_or_else(|| TraceError {
                line,
                reason: format!(
                    "unknown op {op:?} (expected recommend, sweep, sweepstream, or clean)"
                ),
            })?;
            events.push(TraceEvent {
                timestamp_ms,
                tenant: tenant.to_string(),
                op,
                spec: spec.to_string(),
                budget: budget.to_string(),
            });
        }
        // Re-validate ordering/fields so parse and new agree on what a
        // well-formed trace is.
        Self::new(events)
    }
}

impl fmt::Display for Trace {
    /// The canonical byte encoding: one line per event, `\n`
    /// terminated. `Trace::parse(&trace.to_string())` reproduces the
    /// trace exactly, and equal traces encode to equal bytes.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for e in &self.events {
            writeln!(
                f,
                "{} {} {} {} {}",
                e.timestamp_ms, e.tenant, e.op, e.spec, e.budget
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(ts: u64, tenant: &str, op: Op, spec: &str, budget: &str) -> TraceEvent {
        TraceEvent {
            timestamp_ms: ts,
            tenant: tenant.to_string(),
            op,
            spec: spec.to_string(),
            budget: budget.to_string(),
        }
    }

    #[test]
    fn round_trip_is_byte_identical() {
        let trace = Trace::new(vec![
            event(0, "newsroom", Op::Recommend, "dup", "f0.2"),
            event(3, "api", Op::Sweep, "bias@maxpr5", "f0.05,f0.1,f0.15"),
            event(3, "api", Op::SweepStream, "dup", "f0.05,f0.1"),
            event(3, "batch", Op::Clean, "-", "k3"),
            event(17, "newsroom", Op::Recommend, "frag", "a2"),
        ])
        .unwrap();
        let text = trace.to_string();
        let reparsed = Trace::parse(&text).unwrap();
        assert_eq!(reparsed, trace);
        assert_eq!(reparsed.to_string(), text, "encoding must be canonical");
    }

    #[test]
    fn comments_and_blanks_are_skipped_but_not_reemitted() {
        let text = "# a header\n\n0 t recommend dup f0.1\n# tail\n";
        let trace = Trace::parse(text).unwrap();
        assert_eq!(trace.len(), 1);
        assert_eq!(trace.to_string(), "0 t recommend dup f0.1\n");
    }

    #[test]
    fn malformed_lines_are_rejected_with_line_numbers() {
        for (text, needle) in [
            ("0 t recommend dup", "5 space-separated"),
            ("x t recommend dup f0.1", "bad timestamp"),
            ("0 t explode dup f0.1", "unknown op"),
        ] {
            let err = Trace::parse(text).unwrap_err();
            assert_eq!(err.line, 1, "{text}");
            assert!(err.reason.contains(needle), "{text}: {}", err.reason);
        }
        let err = Trace::parse("5 t recommend dup f0.1\n2 t recommend dup f0.1").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.reason.contains("decreases"));
    }

    #[test]
    fn whitespace_fields_are_rejected_at_construction() {
        let err =
            Trace::new(vec![event(0, "two words", Op::Recommend, "dup", "f0.1")]).unwrap_err();
        assert!(err.reason.contains("whitespace"));
    }
}
