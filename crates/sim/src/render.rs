//! ASCII rendering of traces: one-line operation summaries
//! ([`describe_op`]) and timelines — the paper's run diagrams (Figs. 1–3)
//! regenerated from actual executions.
//!
//! One lane per process; operations are drawn as `[label...]` intervals,
//! crashes as `✗`, recoveries as `↻`. Pending operations (cut off by a
//! crash or the end of the run) trail off with `…`.
//!
//! ```text
//! t[µs]    0 ........ 10000 ........ 20000 ........ 30000
//! p0  ──[W(1)]────[W(2)…✗───↻────[W(3)]──────────
//! p1  ───────[R→1]──────────────[R→2]────────────
//! ```

use rmem_types::{OpKind, ProcessId};

use crate::trace::{OpRecord, Trace};

/// Renders one operation record as a compact human-readable line (what
/// the runnable examples print per operation).
pub fn describe_op(record: &OpRecord) -> String {
    let outcome = match (&record.result, record.kind) {
        (Some(r), OpKind::Read) => match r.read_value() {
            Some(v) => format!("→ {v}"),
            None => "rejected".to_string(),
        },
        (Some(_), OpKind::Write) => "→ OK".to_string(),
        (None, _) => "… lost to a crash".to_string(),
    };
    let latency = record
        .latency()
        .map(|l| format!(" [{l}]"))
        .unwrap_or_default();
    let reg = record.operation.register();
    let target = if reg == rmem_types::RegisterId::ZERO {
        String::new()
    } else {
        format!("{reg}, ")
    };
    format!(
        "t={:>6}µs  {}  {}({}{}) {}{}",
        record.invoked_at.as_micros(),
        record.op.pid,
        record.kind,
        target,
        record
            .operation
            .write_value()
            .map(|v| v.to_string())
            .unwrap_or_default(),
        outcome,
        latency,
    )
}

/// Renders the trace as one timeline lane per process, `width` characters
/// wide (excluding the lane prefix).
pub fn render_timeline(trace: &Trace, n: usize, width: usize) -> String {
    let width = width.max(40);
    let end_time = trace
        .operations()
        .iter()
        .flat_map(|o| {
            [
                Some(o.invoked_at.as_micros()),
                o.completed_at.map(|t| t.as_micros()),
            ]
        })
        .flatten()
        .chain(trace.lifecycle_marks().iter().map(|(t, _, _)| *t))
        .max()
        .unwrap_or(1)
        .max(1);

    let col = |t: u64| -> usize { ((t as u128 * (width as u128 - 1)) / end_time as u128) as usize };

    let mut lanes: Vec<Vec<char>> = (0..n).map(|_| vec!['─'; width]).collect();

    // Operations.
    for op in trace.operations() {
        let lane = &mut lanes[op.op.pid.index()];
        let start = col(op.invoked_at.as_micros());
        let label = match (&op.result, op.kind) {
            (Some(r), OpKind::Read) => match r.read_value() {
                Some(v) => format!("R→{v}"),
                None => "R!".to_string(),
            },
            (Some(_), OpKind::Write) => format!(
                "W({})",
                op.operation
                    .write_value()
                    .map(|v| v.to_string())
                    .unwrap_or_default()
            ),
            (None, OpKind::Write) => format!(
                "W({})…",
                op.operation
                    .write_value()
                    .map(|v| v.to_string())
                    .unwrap_or_default()
            ),
            (None, OpKind::Read) => "R…".to_string(),
        };
        lane[start.min(width - 1)] = '[';
        let mut cursor = start + 1;
        for ch in label.chars() {
            if cursor >= width {
                break;
            }
            lane[cursor] = ch;
            cursor += 1;
        }
        if let Some(done) = op.completed_at {
            let end = col(done.as_micros()).max(cursor);
            if end < width {
                lane[end] = ']';
            }
        }
    }

    // Crashes and recoveries (drawn after ops so they stay visible).
    for (t, pid, is_crash) in trace.lifecycle_marks() {
        let lane = &mut lanes[pid.index()];
        let c = col(t).min(width - 1);
        lane[c] = if is_crash { '✗' } else { '↻' };
    }

    let mut out = String::new();
    out.push_str(&format!(
        "t[µs]  0 {} {}\n",
        ".".repeat(width.saturating_sub(20)),
        end_time
    ));
    for (i, lane) in lanes.iter().enumerate() {
        out.push_str(&format!("{:<4} ", ProcessId(i as u16).to_string()));
        out.extend(lane.iter());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::VirtualTime;
    use rmem_types::{Op, OpId, OpResult, Value};

    #[test]
    fn renders_ops_crashes_and_recoveries() {
        let mut trace = Trace::new();
        let w1 = OpId::new(ProcessId(0), 0);
        trace.record_invoke(VirtualTime(1_000), w1, Op::Write(Value::from_u32(1)));
        trace.record_complete(VirtualTime(2_000), w1, OpResult::Written);
        let w2 = OpId::new(ProcessId(0), 1);
        trace.record_invoke(VirtualTime(10_000), w2, Op::Write(Value::from_u32(2)));
        trace.record_crash(VirtualTime(11_000), ProcessId(0));
        trace.record_recover(VirtualTime(15_000), ProcessId(0));
        let r = OpId::new(ProcessId(1), 0);
        trace.record_invoke(VirtualTime(20_000), r, Op::Read);
        trace.record_complete(
            VirtualTime(21_000),
            r,
            OpResult::ReadValue(Value::from_u32(1)),
        );

        let art = render_timeline(&trace, 2, 80);
        assert!(art.contains("p0"), "{art}");
        assert!(art.contains("p1"));
        assert!(art.contains("W(1)"));
        // The crash mark may overwrite part of the pending label (marks
        // draw last), but the trailing ellipsis must survive.
        assert!(art.contains("W(2"), "{art}");
        assert!(art.contains('…'), "pending write must trail off: {art}");
        assert!(art.contains('✗'));
        assert!(art.contains('↻'));
        assert!(art.contains("R→1"));
        // Three lines: axis + two lanes.
        assert_eq!(art.lines().count(), 3);
    }

    #[test]
    fn describe_op_formats_reads_and_writes() {
        use crate::{ClusterConfig, PlannedEvent, Schedule, Simulation};
        let mut sim = Simulation::new(ClusterConfig::new(3), rmem_core::Persistent::factory(), 1)
            .with_schedule(
                Schedule::new()
                    .at(
                        1_000,
                        PlannedEvent::Invoke(ProcessId(0), Op::Write(Value::from_u32(1))),
                    )
                    .at(10_000, PlannedEvent::Invoke(ProcessId(1), Op::Read)),
            );
        let report = sim.run();
        let lines: Vec<String> = report.trace.operations().iter().map(describe_op).collect();
        assert!(lines[0].contains("W(1) → OK"), "{}", lines[0]);
        assert!(lines[1].contains("R() → 1"), "{}", lines[1]);
    }

    #[test]
    fn empty_trace_renders_axis_only_lanes() {
        let trace = Trace::new();
        let art = render_timeline(&trace, 3, 50);
        assert_eq!(art.lines().count(), 4);
        assert!(art.lines().nth(1).unwrap().starts_with("p0"));
    }
}
