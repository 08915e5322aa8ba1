//! Streaming telemetry sink: bounded-memory, on-disk span recording.
//!
//! The in-memory tracer holds every span until the run ends — fine for the
//! paper's table sizes, fatal for full-length table5/6 histories or
//! 1024–4096-rank sweeps. A stream directory on [`crate::TraceConfig`]
//! instead routes telemetry to a per-rank binary span file *as spans
//! close*, so span memory is O(open spans + one chunk) regardless of run
//! length. Step records go to disk too, one per step boundary, and also
//! stay in the flight recorder (one small record per step). The format is
//! compact and versioned, built on the [`crate::Wire`] encoding (see
//! docs/OBSERVABILITY.md, *Streaming sinks*). Step records are flushed
//! at every step boundary, so even a rank killed mid-run leaves a
//! truncated-but-parseable stream; [`read_span_dir`] recovers the prefix and
//! reports the gap.
//!
//! ## Binary span file layout (schema v5)
//!
//! All integers little-endian, payloads encoded per the `Wire` rules:
//!
//! ```text
//! header:  magic "OSPN" | u32 version (=5) | u32 rank
//! chunks:  u32 len | body (len bytes) — body = u8 kind + payload
//!   kind 1: payload = Vec<TraceEvent>   (events, recording order)
//!   kind 2: payload = StepRecord        (one per step boundary: phase
//!           times, every counter's delta, per-phase allocation deltas)
//!   kind 0: payload = (u64 total_events, u64 total_steps)
//!           — the footer; must be the last chunk
//! ```
//!
//! A file whose last chunk is incomplete (killed writer) is readable up to
//! the last complete chunk; the missing footer marks the truncation — and
//! because a step's allocation deltas are part of its record, a dead rank
//! still yields a partial per-step host allocation profile.

use crate::flight::StepRecord;
use crate::trace::{RankTrace, TraceEvent};
use crate::wire::Wire;
use std::fs::{self, File};
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// Version of the binary span file layout. Bump on any change to the
/// header, chunk framing, or chunk payload shapes; the golden byte test in
/// `tests/sink_stream.rs` pins the current version.
///
/// v2: added per-step allocation-record chunks (kind 3) and a fourth footer
/// field counting them. v3: the step chunk is the whole-vocabulary
/// [`StepRecord`] with the allocation deltas inside; kind 3 and its footer
/// field are gone. v4: the footer is `(total_events, total_steps)` — the
/// flight recorder keeps every step, so there is no eviction count. v5: the
/// step record's counter array gains the five `flops.*` rows.
pub const SPAN_SCHEMA_VERSION: u32 = 5;

/// Magic prefix of a binary span file.
pub const SPAN_MAGIC: [u8; 4] = *b"OSPN";

const CHUNK_FOOTER: u8 = 0;
const CHUNK_EVENTS: u8 = 1;
const CHUNK_STEP: u8 = 2;

/// Events buffered per rank before an event chunk is flushed (spans also
/// flush at every step boundary). Bounds sink memory at O(chunk).
const EVENT_CHUNK_LEN: usize = 1024;

/// Streaming telemetry is on the failure path of nothing — an unwritable
/// sink aborts the rank like any other rank panic, with a message naming
/// the file.
fn io_fail(path: &Path, what: &str, e: std::io::Error) -> ! {
    panic!("telemetry stream: {what} {} failed: {e}", path.display());
}

/// One rank's open binary span writer, held by the tracer (layout in the
/// module docs).
#[derive(Debug)]
pub(crate) struct SpanSink {
    file: File,
    path: PathBuf,
    events: Vec<TraceEvent>,
    total_events: u64,
    total_steps: u64,
}

impl SpanSink {
    /// Open rank `rank`'s stream in `dir` (created if absent).
    pub(crate) fn create(dir: &Path, rank: usize) -> SpanSink {
        if let Err(e) = fs::create_dir_all(dir) {
            io_fail(dir, "creating directory", e);
        }
        let path = dir.join(format!("rank-{rank:05}.spans"));
        let file = match File::create(&path) {
            Ok(f) => f,
            Err(e) => io_fail(&path, "creating", e),
        };
        let mut s = SpanSink { file, path, events: Vec::new(), total_events: 0, total_steps: 0 };
        let mut header = Vec::with_capacity(12);
        header.extend_from_slice(&SPAN_MAGIC);
        header.extend_from_slice(&SPAN_SCHEMA_VERSION.to_le_bytes());
        header.extend_from_slice(&(rank as u32).to_le_bytes());
        s.write_all(&header);
        s
    }

    fn write_all(&mut self, bytes: &[u8]) {
        if let Err(e) = self.file.write_all(bytes) {
            io_fail(&self.path, "writing", e);
        }
    }

    fn write_chunk(&mut self, kind: u8, payload: &[u8]) {
        let mut out = Vec::with_capacity(5 + payload.len());
        out.extend_from_slice(&((payload.len() + 1) as u32).to_le_bytes());
        out.push(kind);
        out.extend_from_slice(payload);
        self.write_all(&out);
    }

    pub(crate) fn push_event(&mut self, e: TraceEvent) {
        self.events.push(e);
        if self.events.len() >= EVENT_CHUNK_LEN {
            self.flush_events();
        }
    }

    fn flush_events(&mut self) {
        if self.events.is_empty() {
            return;
        }
        let payload = self.events.to_wire_bytes();
        self.total_events += self.events.len() as u64;
        self.events.clear();
        self.write_chunk(CHUNK_EVENTS, &payload);
    }

    /// Persist one closed step immediately, so a killed rank leaves every
    /// closed step on disk.
    pub(crate) fn push_step(&mut self, rec: &StepRecord) {
        // Flush buffered spans first so the file reads as "everything up to
        // and including step k" at every step boundary.
        self.flush_events();
        self.total_steps += 1;
        let payload = rec.to_wire_bytes();
        self.write_chunk(CHUNK_STEP, &payload);
    }

    pub(crate) fn write_footer(&mut self) {
        self.flush_events();
        let payload = (self.total_events, self.total_steps).to_wire_bytes();
        self.write_chunk(CHUNK_FOOTER, &payload);
        if let Err(e) = self.file.flush() {
            io_fail(&self.path, "flushing", e);
        }
    }
}

// ---------------------------------------------------------------------------
// Readers
// ---------------------------------------------------------------------------

/// One rank's stream read back from disk. `truncation` is `None` for a
/// complete stream (footer present, counts consistent) and names the gap
/// otherwise — the recovered prefix stays usable either way.
#[derive(Clone, Debug)]
pub struct RankStream {
    pub rank: usize,
    pub events: Vec<TraceEvent>,
    pub steps: Vec<StepRecord>,
    pub truncation: Option<String>,
}

/// Magic + schema version + rank.
const SPAN_HEADER_BYTES: u64 = 12;

/// Parse one binary span file, tolerating truncation after any complete
/// chunk. Hard errors (bad magic, unsupported version, header cut short)
/// mean the file is not a readable span stream at all.
pub fn read_span_file(path: &Path) -> Result<RankStream, String> {
    let bytes =
        fs::read(path).map_err(|e| format!("cannot read span file {}: {e}", path.display()))?;
    if (bytes.len() as u64) < SPAN_HEADER_BYTES {
        return Err(format!(
            "{}: too short for a span-file header ({} bytes, need {SPAN_HEADER_BYTES})",
            path.display(),
            bytes.len()
        ));
    }
    if bytes[..4] != SPAN_MAGIC {
        return Err(format!("{}: not a span file (bad magic)", path.display()));
    }
    let version = u32::from_le_bytes(bytes[4..8].try_into().unwrap());
    if version != SPAN_SCHEMA_VERSION {
        return Err(format!(
            "{}: span schema version {version} unsupported (this build reads v{SPAN_SCHEMA_VERSION})",
            path.display()
        ));
    }
    let rank = u32::from_le_bytes(bytes[8..12].try_into().unwrap()) as usize;
    let mut out = RankStream { rank, events: Vec::new(), steps: Vec::new(), truncation: None };
    let mut pos = 12usize;
    let mut footer: Option<(u64, u64)> = None;
    while pos < bytes.len() {
        let remaining = bytes.len() - pos;
        if remaining < 4 {
            out.truncation = Some(format!(
                "stream ends inside a chunk header ({remaining} trailing bytes discarded)"
            ));
            return Ok(out);
        }
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
        if len == 0 {
            out.truncation = Some(format!("empty chunk at byte {pos}"));
            return Ok(out);
        }
        if remaining < 4 + len {
            out.truncation = Some(format!(
                "stream ends inside a chunk body at byte {pos} \
                 ({} of {len} body bytes present)",
                remaining - 4
            ));
            return Ok(out);
        }
        let body = &bytes[pos + 4..pos + 4 + len];
        pos += 4 + len;
        let (kind, payload) = (body[0], &body[1..]);
        match kind {
            CHUNK_EVENTS => match Vec::<TraceEvent>::from_wire_bytes(payload) {
                Ok(mut evs) => out.events.append(&mut evs),
                Err(e) => {
                    out.truncation = Some(format!("corrupt event chunk: {e:?}"));
                    return Ok(out);
                }
            },
            CHUNK_STEP => match StepRecord::from_wire_bytes(payload) {
                Ok(rec) => out.steps.push(rec),
                Err(e) => {
                    out.truncation = Some(format!("corrupt step chunk: {e:?}"));
                    return Ok(out);
                }
            },
            CHUNK_FOOTER => match <(u64, u64)>::from_wire_bytes(payload) {
                Ok(f) => {
                    footer = Some(f);
                    if pos != bytes.len() {
                        out.truncation =
                            Some(format!("{} bytes of data after the footer", bytes.len() - pos));
                    }
                    break;
                }
                Err(e) => {
                    out.truncation = Some(format!("corrupt footer chunk: {e:?}"));
                    return Ok(out);
                }
            },
            k => {
                out.truncation = Some(format!("unknown chunk kind {k} at byte {pos}"));
                return Ok(out);
            }
        }
    }
    match footer {
        Some((ev, st)) if ev != out.events.len() as u64 || st != out.steps.len() as u64 => {
            out.truncation = Some(format!(
                "footer counts disagree with stream contents \
                 (footer: {ev} events / {st} steps; read: {} / {})",
                out.events.len(),
                out.steps.len()
            ));
        }
        Some(_) => {}
        None if out.truncation.is_none() => {
            out.truncation = Some(format!(
                "stream ends without a footer (writer died?); recovered {} events and {} steps",
                out.events.len(),
                out.steps.len()
            ));
        }
        None => {}
    }
    Ok(out)
}

/// All ranks' streams from a sink directory, sorted by rank. `gaps` carries
/// one message per incomplete stream; an empty `gaps` certifies every rank
/// closed its file with a consistent footer.
#[derive(Clone, Debug)]
pub struct SpanDir {
    pub ranks: Vec<RankStream>,
    pub gaps: Vec<String>,
}

impl SpanDir {
    /// Adapt to the in-memory trace shape the exporter and analyzer take.
    pub fn rank_traces(&self) -> Vec<RankTrace> {
        self.ranks.iter().map(|r| RankTrace { rank: r.rank, events: r.events.clone() }).collect()
    }

    /// Per-rank step records, rank-major (the `AnalysisInput::steps` shape).
    pub fn step_records(&self) -> Vec<Vec<StepRecord>> {
        self.ranks.iter().map(|r| r.steps.clone()).collect()
    }
}

/// Read every `rank-*.spans` file in `dir` (binary format). A file whose
/// writer died before its header reached disk (a rank group aborted right
/// after creating it) is a named gap, not an unreadable directory.
pub fn read_span_dir(dir: &Path) -> Result<SpanDir, String> {
    let entries =
        fs::read_dir(dir).map_err(|e| format!("cannot read sink dir {}: {e}", dir.display()))?;
    let mut files: Vec<PathBuf> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().and_then(|x| x.to_str()) == Some("spans"))
        .collect();
    files.sort();
    if files.is_empty() {
        return Err(format!("no .spans files in {}", dir.display()));
    }
    let mut out = SpanDir { ranks: Vec::new(), gaps: Vec::new() };
    for path in files {
        let file = path.file_name().and_then(|f| f.to_str()).unwrap_or("<file>").to_string();
        let len = fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
        if len < SPAN_HEADER_BYTES {
            out.gaps.push(format!("{file}: stream ends inside the file header ({len} bytes)"));
            continue;
        }
        let stream = read_span_file(&path)?;
        if let Some(t) = &stream.truncation {
            out.gaps.push(format!("rank {} ({file}): {t}", stream.rank));
        }
        out.ranks.push(stream);
    }
    out.ranks.sort_by_key(|r| r.rank);
    Ok(out)
}
