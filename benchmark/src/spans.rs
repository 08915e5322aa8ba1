//! Benchmark-owned host spans: one around every call the benchmark makes
//! into a layer. A span is also the stopwatch — the seconds a timing metric
//! reports are the span's own duration — so the trace and the numbers can
//! never disagree. Spans stay in memory until the process ends; the parent
//! merges every child's spans into one Chrome trace.

use std::fmt::Write as _;
use std::time::{Instant, SystemTime, UNIX_EPOCH};

#[derive(Clone, Debug)]
pub struct Span {
    /// Sample this span belongs to (one id per child process; 0 = parent).
    pub sample: u64,
    pub name: String,
    /// Index of the enclosing span within the same sample's list.
    pub parent: Option<usize>,
    /// Microseconds since the UNIX epoch, so spans of different processes
    /// share one timeline.
    pub start_us: u64,
    pub end_us: u64,
}

pub struct Spans {
    sample: u64,
    t0: Instant,
    epoch_us: u64,
    open: Vec<usize>,
    pub list: Vec<Span>,
}

impl Spans {
    pub fn new(sample: u64) -> Spans {
        let epoch_us =
            SystemTime::now().duration_since(UNIX_EPOCH).map_or(0, |d| d.as_micros() as u64);
        Spans { sample, t0: Instant::now(), epoch_us, open: Vec::new(), list: Vec::new() }
    }

    fn now_us(&self) -> u64 {
        self.epoch_us + self.t0.elapsed().as_micros() as u64
    }

    /// Run `f` inside a span named `name`; returns its result and the span's
    /// duration in seconds (full `Instant` resolution, not the µs stamps).
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Spans) -> T) -> (T, f64) {
        let idx = self.list.len();
        let start_us = self.now_us();
        self.list.push(Span {
            sample: self.sample,
            name: name.to_string(),
            parent: self.open.last().copied(),
            start_us,
            end_us: start_us,
        });
        self.open.push(idx);
        let t = Instant::now();
        let out = f(self);
        let secs = t.elapsed().as_secs_f64();
        self.open.pop();
        self.list[idx].end_us = self.now_us();
        (out, secs)
    }
}

/// Chrome `trace_event` JSON ("X" complete events; `pid` = sample id).
pub fn chrome_trace_json(spans: &[Span]) -> String {
    let base = spans.iter().map(|s| s.start_us).min().unwrap_or(0);
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = write!(
            out,
            "{}{{\"name\":\"{}\",\"cat\":\"bench\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\
             \"pid\":{},\"tid\":0,\"args\":{{\"sample\":{},\"parent\":{}}}}}",
            if i == 0 { "" } else { ",\n" },
            s.name,
            s.start_us - base,
            s.end_us - s.start_us,
            s.sample,
            s.sample,
            parent,
        );
    }
    out.push_str("\n]}\n");
    out
}
