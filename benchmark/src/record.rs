//! What one child process (a sample, a reference run or the probes) reports
//! to the parent: a line-oriented text record on its standard output.

use crate::spans::Span;
use std::fmt::Write as _;

#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    pub value: f64,
    /// Counts and virtual times repeat exactly for a fixed configuration:
    /// two samples of one workload must agree on them bit for bit.
    pub exact: bool,
}

#[derive(Clone, Debug, Default)]
pub struct Record {
    pub metrics: Vec<Metric>,
    pub spans: Vec<Span>,
    /// Operations = timesteps of timed runs.
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Record {
    pub fn timed(&mut self, name: &str, unit: &str, value: f64) {
        self.push(name, unit, value, false);
    }

    pub fn exact(&mut self, name: &str, unit: &str, value: f64) {
        self.push(name, unit, value, true);
    }

    fn push(&mut self, name: &str, unit: &str, value: f64, exact: bool) {
        self.metrics.push(Metric { name: name.into(), unit: unit.into(), value, exact });
    }

    /// The first value reported under `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.all(name).next()
    }

    /// Every value reported under `name` (`step_ms`: one per timed run).
    pub fn all<'a>(&'a self, name: &'a str) -> impl Iterator<Item = f64> + 'a {
        self.metrics.iter().filter(move |m| m.name == name).map(|m| m.value)
    }

    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for m in &self.metrics {
            // `{:?}` prints the shortest decimal that parses back to the
            // same bits, so exact values survive the pipe.
            let _ = writeln!(out, "m {} {} {} {:?}", u8::from(m.exact), m.name, m.unit, m.value);
        }
        for s in &self.spans {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            let _ = writeln!(out, "s {} {} {} {}", s.name, parent, s.start_us, s.end_us);
        }
        let _ = writeln!(out, "o {} {}", self.attempted, self.failed);
        for f in &self.failures {
            let _ = writeln!(out, "f {}", f.replace('\n', " "));
        }
        out
    }

    /// Parse a child's output; `sample` labels its spans. Lines that are not
    /// part of the record (anything a layer printed) are skipped.
    pub fn parse(text: &str, sample: u64) -> Option<Record> {
        let mut rec = Record::default();
        let mut complete = false;
        for line in text.lines() {
            let f: Vec<&str> = line.split(' ').collect();
            match f.as_slice() {
                ["m", exact, name, unit, value] => rec.metrics.push(Metric {
                    name: name.to_string(),
                    unit: unit.to_string(),
                    value: value.parse().ok()?,
                    exact: *exact == "1",
                }),
                ["s", name, parent, start, end] => rec.spans.push(Span {
                    sample,
                    name: name.to_string(),
                    parent: parent.parse().ok(),
                    start_us: start.parse().ok()?,
                    end_us: end.parse().ok()?,
                }),
                ["o", attempted, failed] => {
                    rec.attempted = attempted.parse().ok()?;
                    rec.failed = failed.parse().ok()?;
                    complete = true;
                }
                ["f", ..] => rec.failures.push(line[2..].to_string()),
                _ => {}
            }
        }
        complete.then_some(rec)
    }
}
