//! The in-memory span recorder of the traced run.
//!
//! Spans are recorded from the benchmark's own files, around calls into the
//! library's public functions; nothing inside the library is instrumented
//! (in-program tracing is a later change).  They live in a preallocated
//! `Vec` and are written once, at exit, as Chrome trace-event JSON.

use crate::json::quote;
use std::io::Write;
use std::time::{Instant, SystemTime, UNIX_EPOCH};

const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, or `u32::MAX` at top level.
    pub parent: u32,
    /// Epoch / step / request id the span belongs to.
    pub id: u64,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    /// Wall-clock nanoseconds of `origin`, so spans of different processes
    /// (the rank processes of `dist_train`) line up in one timeline.
    pub origin_unix_ns: u64,
    pub spans: Vec<Span>,
    open: Vec<u32>,
}

impl Recorder {
    /// This recorder's spans as the timeline of process `pid`.
    pub fn lane(&self, pid: usize) -> Lane<'_> {
        Lane { pid, origin_unix_ns: self.origin_unix_ns, spans: &self.spans }
    }

    pub fn with_capacity(capacity: usize) -> Recorder {
        let origin_unix_ns =
            SystemTime::now().duration_since(UNIX_EPOCH).map(|d| d.as_nanos() as u64).unwrap_or(0);
        Recorder {
            origin: Instant::now(),
            origin_unix_ns,
            spans: Vec::with_capacity(capacity),
            open: Vec::with_capacity(16),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str, id: u64) -> u32 {
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        let index = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, id });
        self.open.push(index);
        index
    }

    /// Closes `handle`, which must be the innermost open span.
    pub fn exit(&mut self, handle: u32) {
        let end_ns = self.now_ns();
        let top = self.open.pop();
        debug_assert_eq!(top, Some(handle), "spans close innermost first");
        self.spans[handle as usize].end_ns = end_ns;
    }

    /// Runs `f` inside a leaf span.
    pub fn span<T>(&mut self, name: &'static str, id: u64, f: impl FnOnce() -> T) -> T {
        let handle = self.enter(name, id);
        let value = f();
        self.exit(handle);
        value
    }

    pub fn total(&self, name: &str) -> (f64, usize) {
        total(&self.spans, name)
    }

    pub fn closure_err(&self, root: &str) -> f64 {
        closure_err(&self.spans, root)
    }
}

/// Total seconds and count of the spans called `name`.
pub fn total(spans: &[Span], name: &str) -> (f64, usize) {
    spans
        .iter()
        .filter(|s| s.name == name)
        .fold((0.0, 0), |(secs, n), s| (secs + s.seconds(), n + 1))
}

/// Self time of span `index`: its duration minus the part its child spans
/// cover.
pub fn self_seconds(spans: &[Span], index: usize) -> f64 {
    let children: f64 =
        spans.iter().filter(|s| s.parent as usize == index).map(Span::seconds).sum();
    spans[index].seconds() - children
}

/// The share of the spans called `root` that no child span accounts for:
/// |Σ child durations − traced wall| ÷ traced wall.
pub fn closure_err(spans: &[Span], root: &str) -> f64 {
    let mut wall = 0.0;
    let mut unattributed = 0.0;
    for (i, s) in spans.iter().enumerate() {
        if s.name == root {
            wall += s.seconds();
            unattributed += self_seconds(spans, i);
        }
    }
    if wall > 0.0 {
        unattributed.abs() / wall
    } else {
        0.0
    }
}

/// One process's spans in the merged timeline.
pub struct Lane<'a> {
    pub pid: usize,
    pub origin_unix_ns: u64,
    pub spans: &'a [Span],
}

/// Writes `lanes` to `benchmark/out/trace-<workload>.json`.
pub fn write_trace(workload: &str, lanes: &[Lane<'_>]) -> Result<(), String> {
    let path = crate::common::out_dir()?.join(format!("trace-{workload}.json"));
    write_chrome(&path, lanes).map_err(|e| e.to_string())?;
    let spans: usize = lanes.iter().map(|l| l.spans.len()).sum();
    println!("trace: {spans} spans in {} lane(s) -> {}", lanes.len(), path.display());
    Ok(())
}

/// Writes `lanes` as Chrome trace-event JSON (complete `"X"` events,
/// microseconds), the format a later in-program tracer can merge into.
fn write_chrome(path: &std::path::Path, lanes: &[Lane<'_>]) -> std::io::Result<()> {
    let base = lanes.iter().map(|l| l.origin_unix_ns).min().unwrap_or(0);
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    out.write_all(b"{\"traceEvents\":[\n")?;
    let mut first = true;
    for lane in lanes {
        let offset = lane.origin_unix_ns - base;
        for (i, s) in lane.spans.iter().enumerate() {
            if !first {
                out.write_all(b",\n")?;
            }
            first = false;
            let parent = if s.parent == NO_PARENT { -1 } else { i64::from(s.parent) };
            write!(
                out,
                "{{\"name\":{},\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":{},\"tid\":1,\
                 \"args\":{{\"span\":{i},\"parent\":{parent},\"id\":{}}}}}",
                quote(s.name),
                (s.start_ns + offset) as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                lane.pid,
                s.id
            )?;
        }
    }
    out.write_all(b"\n]}\n")?;
    out.flush()
}
