//! The driver's own span recorder: in-memory spans around set-up phases,
//! every client call and every ladder probe, written out when the run
//! ends. Spans are recorded from the benchmark's files only — around the
//! calls *into* each layer; nothing is added to the program.
//!
//! Off by default: end-to-end metrics are measured with the recorder
//! off, and the traced/untraced throughput gap is itself reported
//! (`bench.trace_overhead_share`).

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::json::Json;

/// At most this many individual spans are written to the dump; the
/// self-time table always covers all of them.
const MAX_DUMPED_SPANS: usize = 50_000;

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// The span that caused this one; 0 for a root.
    pub parent: u32,
    /// Spans of one client call share its sequence number; 0 for set-up
    /// phases and probes.
    pub op: u64,
}

/// A span that has started and not yet ended.
#[must_use = "an opened span must be closed to be recorded"]
pub struct OpenSpan {
    id: u32,
    name: &'static str,
    start_ns: u64,
    parent: u32,
    op: u64,
}

impl OpenSpan {
    /// The id children name as their parent (0 when recording is off).
    pub fn id(&self) -> u32 {
        self.id
    }
}

pub struct Spans {
    t0: Instant,
    on: bool,
    next_id: AtomicU32,
    done: Mutex<Vec<Span>>,
}

impl Spans {
    pub fn new(on: bool) -> Self {
        Spans {
            t0: Instant::now(),
            on,
            next_id: AtomicU32::new(1),
            done: Mutex::new(Vec::new()),
        }
    }

    /// A thread's private span buffer: hot loops record without touching
    /// a shared lock, and the buffer joins the log when dropped.
    pub fn buf(&self) -> SpanBuf<'_> {
        SpanBuf {
            log: Some(self),
            local: Vec::new(),
        }
    }

    /// Runs `f` inside a span (for set-up phases and probes, where one
    /// lock per span costs nothing).
    pub fn within<T>(&self, name: &'static str, parent: u32, f: impl FnOnce(u32) -> T) -> T {
        let mut buf = self.buf();
        let open = buf.open(name, parent, 0);
        let out = f(open.id());
        buf.close(open);
        out
    }

    pub fn snapshot(&self) -> Vec<Span> {
        self.done.lock().expect("span log lock").clone()
    }

    /// Writes every recorded span plus the per-name self-time table to
    /// `path` as one JSON document.
    pub fn dump(&self, path: &Path, workload: &str) -> std::io::Result<()> {
        let spans = self.snapshot();
        let table = self_time_table(&spans);
        let us = |ns: u64| Json::Num(ns as f64 / 1_000.0);
        let doc = Json::obj(vec![
            ("workload", Json::str(workload)),
            ("spans_total", Json::Num(spans.len() as f64)),
            (
                "self_time",
                Json::Arr(
                    table
                        .iter()
                        .map(|(name, row)| {
                            Json::obj(vec![
                                ("name", Json::str(*name)),
                                ("count", Json::Num(row.count as f64)),
                                ("total_us", us(row.total_ns)),
                                ("self_us", us(row.self_ns)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "spans",
                Json::Arr(
                    spans
                        .iter()
                        .take(MAX_DUMPED_SPANS)
                        .map(|s| {
                            Json::obj(vec![
                                ("id", Json::Num(f64::from(s.id))),
                                ("name", Json::str(s.name)),
                                ("start_us", us(s.start_ns)),
                                ("end_us", us(s.end_ns)),
                                ("parent", Json::Num(f64::from(s.parent))),
                                ("op", Json::Num(s.op as f64)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ]);
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, doc.render())
    }
}

pub struct SpanBuf<'a> {
    /// `None`: records nothing (callers that have no log to record into).
    log: Option<&'a Spans>,
    local: Vec<Span>,
}

impl SpanBuf<'_> {
    /// A buffer that records nothing.
    pub fn off() -> SpanBuf<'static> {
        SpanBuf {
            log: None,
            local: Vec::new(),
        }
    }

    fn recording(&self) -> Option<&Spans> {
        self.log.filter(|log| log.on)
    }

    pub fn open(&mut self, name: &'static str, parent: u32, op: u64) -> OpenSpan {
        let (id, start_ns) = match self.recording() {
            // Relaxed: the id only has to be unique, it publishes nothing.
            Some(log) => (
                log.next_id.fetch_add(1, Ordering::Relaxed),
                log.t0.elapsed().as_nanos() as u64,
            ),
            None => (0, 0),
        };
        OpenSpan {
            id,
            name,
            start_ns,
            parent,
            op,
        }
    }

    pub fn close(&mut self, open: OpenSpan) {
        let Some(log) = self.recording() else {
            return;
        };
        let end_ns = log.t0.elapsed().as_nanos() as u64;
        self.local.push(Span {
            id: open.id,
            name: open.name,
            start_ns: open.start_ns,
            end_ns,
            parent: open.parent,
            op: open.op,
        });
    }
}

impl Drop for SpanBuf<'_> {
    fn drop(&mut self) {
        if let (Some(log), false) = (self.log, self.local.is_empty()) {
            // Never panic in drop: a poisoned log just loses this buffer.
            if let Ok(mut done) = log.done.lock() {
                done.append(&mut self.local);
            }
        }
    }
}

#[derive(Debug, Default, Clone, PartialEq)]
pub struct SelfTimeRow {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Per span name: how many, their summed duration, and their summed
/// *self* time — a span's duration minus the part of that interval its
/// child spans cover (overlapping children, e.g. two client threads under
/// one window, are unioned, not double-counted).
pub fn self_time_table(spans: &[Span]) -> BTreeMap<&'static str, SelfTimeRow> {
    let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    let mut table: BTreeMap<&'static str, SelfTimeRow> = BTreeMap::new();
    for s in spans {
        let covered = children.get_mut(&s.id).map_or(0, |kids| {
            kids.sort_unstable();
            let (mut covered, mut reach) = (0u64, s.start_ns);
            for &(start, end) in kids.iter() {
                let (start, end) = (start.max(reach), end.min(s.end_ns));
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            covered
        });
        let row = table.entry(s.name).or_default();
        let total = s.end_ns.saturating_sub(s.start_ns);
        row.count += 1;
        row.total_ns += total;
        row.self_ns += total.saturating_sub(covered);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, name: &'static str, start: u64, end: u64, parent: u32) -> Span {
        Span {
            id,
            name,
            start_ns: start,
            end_ns: end,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(1, "window", 0, 100, 0),
            // Two overlapping children (two threads) and one disjoint.
            span(2, "get", 10, 40, 1),
            span(3, "get", 30, 50, 1),
            span(4, "put", 70, 80, 1),
        ];
        let table = self_time_table(&spans);
        // Children cover [10,50) ∪ [70,80) = 50 of the window's 100.
        assert_eq!(table["window"].self_ns, 50);
        assert_eq!(table["window"].total_ns, 100);
        assert_eq!(table["get"].count, 2);
        assert_eq!(table["get"].self_ns, 50);
        assert_eq!(table["put"].self_ns, 10);
    }

    #[test]
    fn a_disabled_log_records_nothing() {
        let log = Spans::new(false);
        let seen = log.within("setup", 0, |id| id);
        assert_eq!(seen, 0);
        assert!(log.snapshot().is_empty());
    }

    #[test]
    fn an_enabled_log_nests_and_dumps() {
        let log = Spans::new(true);
        log.within("setup", 0, |setup| {
            let mut buf = log.buf();
            let call = buf.open("get", setup, 7);
            buf.close(call);
        });
        let spans = log.snapshot();
        assert_eq!(spans.len(), 2);
        let get = spans.iter().find(|s| s.name == "get").unwrap();
        let setup = spans.iter().find(|s| s.name == "setup").unwrap();
        assert_eq!(get.parent, setup.id);
        assert_eq!(get.op, 7);
        assert!(setup.start_ns <= get.start_ns && get.end_ns <= setup.end_ns);

        let dir = crate::out_dir().join(format!("tmp-span-test-{}", std::process::id()));
        let path = dir.join("trace-test.json");
        log.dump(&path, "test").unwrap();
        let doc = Json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(doc.get("spans_total").unwrap().as_f64(), Some(2.0));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
