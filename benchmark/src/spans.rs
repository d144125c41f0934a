//! Benchmark-side spans: one record per wrapped call into a runtime layer
//! (device creation, region build, run, `enter_data`, `buffer_data`,
//! shutdown, each probe), with its own id and the id of the span that
//! caused it. Spans stay in memory while the benchmark runs and are written
//! out once, when it ends.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Spans kept in memory; later ones are counted but not stored, so the
/// log's memory is bounded whatever a workload's call rate.
const CAPACITY: usize = 1 << 15;

/// Id of a recorded span; `SpanId::ROOT` means "no parent".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(u64);

impl SpanId {
    /// The parent of top-level spans.
    pub const ROOT: SpanId = SpanId(0);
}

#[derive(Debug, Clone, Copy)]
struct Record {
    id: u64,
    parent: u64,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
}

/// A span that has started and not yet ended.
#[derive(Debug)]
pub struct Open {
    id: SpanId,
    parent: SpanId,
    name: &'static str,
    start: Instant,
}

impl Open {
    /// This span's id, the parent of the calls it causes.
    pub fn id(&self) -> SpanId {
        self.id
    }
}

/// The in-memory span log shared by every benchmark thread.
#[derive(Debug)]
pub struct SpanLog {
    origin: Instant,
    next_id: AtomicU64,
    dropped: AtomicU64,
    records: Mutex<Vec<Record>>,
}

impl SpanLog {
    pub fn new() -> Self {
        SpanLog {
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            dropped: AtomicU64::new(0),
            records: Mutex::new(Vec::with_capacity(CAPACITY)),
        }
    }

    /// Start a span named `name` caused by `parent`.
    pub fn open(&self, name: &'static str, parent: SpanId) -> Open {
        let id = SpanId(self.next_id.fetch_add(1, Ordering::Relaxed));
        Open { id, parent, name, start: Instant::now() }
    }

    /// End `span`, record it and return its duration.
    pub fn close(&self, span: Open) -> Duration {
        let end = Instant::now();
        let elapsed = end - span.start;
        let ns = |t: Instant| (t - self.origin).as_nanos() as u64;
        let record = Record {
            id: span.id.0,
            parent: span.parent.0,
            name: span.name,
            start_ns: ns(span.start),
            end_ns: ns(end),
        };
        let mut records = self.records.lock().expect("span log poisoned by a panicking client");
        if records.len() < CAPACITY {
            records.push(record);
        } else {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        elapsed
    }

    /// Run `f` inside a span named `name`; returns its result and duration.
    pub fn time<T>(
        &self,
        name: &'static str,
        parent: SpanId,
        f: impl FnOnce() -> T,
    ) -> (T, Duration) {
        let span = self.open(name, parent);
        let out = f();
        (out, self.close(span))
    }

    /// Render every kept span as JSON (start/end in µs since the log was
    /// created), with the count of spans that did not fit.
    pub fn to_json(&self, header: &str) -> String {
        let records = self.records.lock().expect("span log poisoned by a panicking client");
        let mut out = String::with_capacity(64 + records.len() * 80);
        let _ = write!(
            out,
            "{{{header},\"dropped\":{},\"spans\":[",
            self.dropped.load(Ordering::Relaxed)
        );
        for (i, r) in records.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                out,
                "{sep}\n{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_us\":{:.3},\"end_us\":{:.3}}}",
                r.id,
                r.parent,
                r.name,
                r.start_ns as f64 / 1e3,
                r.end_ns as f64 / 1e3
            );
        }
        out.push_str("\n]}\n");
        out
    }
}
