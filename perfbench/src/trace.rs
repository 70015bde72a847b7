//! Spans recorded by the benchmark around its calls into each layer.
//!
//! The program under test carries no tracing of its own: every span here
//! wraps one call the benchmark makes into a layer's public functions. A
//! disabled [`Tracer`] reads no clock and records nothing, so the untraced
//! runs that produce the end-to-end metrics pay nothing for it.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded call into a layer.
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    unit: u64,
}

/// Handle of an open span; pass it back to [`Tracer::close`].
#[must_use]
pub struct Open(Option<usize>);

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Turns recording on or off; used to interleave traced and untraced
    /// rounds in one run so the tracing overhead can be measured.
    pub fn set_enabled(&mut self, enabled: bool) {
        assert!(self.stack.is_empty(), "toggled with a span open");
        self.enabled = enabled;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn open(&mut self, name: &'static str, unit: u64) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.stack.last().copied(),
            unit,
        });
        self.stack.push(id);
        Open(Some(id))
    }

    pub fn close(&mut self, open: Open) {
        if let Some(id) = open.0 {
            let top = self.stack.pop();
            assert_eq!(top, Some(id), "spans must close in LIFO order");
            self.spans[id].end_ns = self.now_ns();
        }
    }

    /// Runs `f` inside a span with no children.
    pub fn leaf<T>(&mut self, name: &'static str, unit: u64, f: impl FnOnce() -> T) -> T {
        let open = self.open(name, unit);
        let out = f();
        self.close(open);
        out
    }

    /// Number of spans recorded so far; spans recorded after a mark can
    /// be summarized on their own with [`Tracer::self_ms_since`].
    pub fn mark(&self) -> usize {
        self.spans.len()
    }

    /// Self time per span name, in milliseconds, over the spans recorded
    /// since `mark`: each span's duration minus the part of it its direct
    /// children cover.
    pub fn self_ms_since(&self, mark: usize) -> BTreeMap<&'static str, f64> {
        let spans = &self.spans[mark..];
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans {
            if let Some(p) = s.parent.filter(|&p| p >= mark) {
                child_ns[p - mark] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in spans.iter().zip(&child_ns) {
            *out.entry(s.name).or_insert(0.0) += (s.end_ns - s.start_ns - c) as f64 / 1e6;
        }
        out
    }

    /// Durations in milliseconds of every span named `name` since `mark`,
    /// with the unit id each belongs to.
    pub fn durations_since(&self, mark: usize, name: &str) -> Vec<(u64, f64)> {
        self.spans[mark..]
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.unit, (s.end_ns - s.start_ns) as f64 / 1e6))
            .collect()
    }

    /// All spans as Chrome trace-event JSON (viewable in Perfetto or
    /// `chrome://tracing`).
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(-1, |p| p as i64);
            let _ = write!(
                out,
                "{}{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{i},\"parent\":{parent},\"unit\":{}}}}}",
                if i == 0 { "" } else { ",\n" },
                s.name,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.unit,
            );
        }
        out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
        out
    }
}
