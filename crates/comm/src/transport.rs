//! Transport backends: one communication protocol, two ways to move the
//! bytes.
//!
//! The runtime in [`crate::runtime`] speaks a single rank-to-rank protocol
//! (tagged sends, deterministic virtual-time collectives, abort/finish
//! notifications). A [`TransportConfig`] decides where the ranks live:
//!
//! * [`TransportConfig::InProcess`] — every rank is a thread (or M:N
//!   coroutine) in this process, messages hop across in-memory mailboxes.
//! * [`TransportConfig::Process`] — ranks are split into groups, each group
//!   runs in a **forked OS process** (a re-execution of the current
//!   executable), and all inter-group traffic travels over Unix sockets in
//!   the versioned wire format of [`crate::wire`]. The parent process runs
//!   no ranks; it is a star-topology router and collective aggregator.
//!
//! Virtual time is bit-identical across backends: message arrival stamps
//! are computed on the sending rank and travel in the frame, and collective
//! round clocks are an order-independent `f64::max` fold, so the bytes that
//! reach a rank's clock do not depend on which backend carried them.
//!
//! ### Child process lifecycle
//!
//! A process transport's `establish` re-executes `current_exe()` once per
//! rank group, passing the group's socket as **stdin** and an
//! `OVERSET_PROC_CHILD=<call>:<group>:<groups>:<ranks>` environment
//! variable. The child runs the same program; a global counter of
//! process-transport `establish` calls identifies *which* universe the child
//! was spawned for (`<call>`). When the counter matches, the child adopts
//! the Child role for that universe, runs its rank group, ships results
//! back as wire frames and exits — so code after the universe never runs
//! in children. Earlier process-backed universes in the same program are
//! replayed with the child acting as parent (spawning its own bounded set
//! of grandchildren), which is why tests should keep one process-backed
//! universe per function and run it before any in-process comparison runs.
//!
//! See docs/TRANSPORT.md for the frame grammar and failure semantics.

use crate::error::OversetError;
use crate::wire::{Wire, WireError, WireReader, WIRE_SCHEMA_VERSION};
use std::any::Any;
use std::collections::{BTreeMap, HashMap};
use std::env;
use std::fmt;
use std::io::{self, Read, Write};
use std::os::fd::{BorrowedFd, OwnedFd};
use std::os::unix::net::UnixStream;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// Environment variable carrying a child's identity:
/// `<call_index>:<group>:<ngroups>:<nranks>`.
pub(crate) const ENV_CHILD: &str = "OVERSET_PROC_CHILD";

// ---------------------------------------------------------------------------
// Configuration
// ---------------------------------------------------------------------------

/// Which transport a universe runs on. Carried by value in
/// [`crate::runtime::UniverseBuilder`] and `CaseConfig`-style drivers so
/// configuration stays `Clone + Debug + PartialEq`.
#[derive(Clone, Debug, Default, PartialEq)]
pub enum TransportConfig {
    /// Ranks as threads/coroutines in this process (the default).
    #[default]
    InProcess,
    /// Ranks split across `processes` forked OS processes.
    Process {
        /// Number of rank-group processes to fork (clamped to the rank
        /// count at establish time; at least 1).
        processes: usize,
        /// Arguments passed to the re-executed binary. `None` replays this
        /// process's own CLI arguments — correct for standalone binaries.
        /// Tests **must** target themselves, e.g.
        /// `vec!["--exact".into(), "module::test_fn".into()]`, so the child
        /// replays only the spawning test.
        spawn_args: Option<Vec<String>>,
    },
}

impl TransportConfig {
    /// Multi-process transport with default spawn arguments.
    pub fn process(processes: usize) -> Self {
        TransportConfig::Process { processes, spawn_args: None }
    }

    /// Multi-process transport for use inside a `cargo test` binary:
    /// `test_path` must be the full path of the *calling* test function
    /// (e.g. `"transport_conformance::send_recv_proc"`).
    pub fn process_for_test(processes: usize, test_path: &str) -> Self {
        TransportConfig::Process {
            processes,
            spawn_args: Some(vec!["--exact".into(), test_path.into()]),
        }
    }

    /// Parse a CLI spelling: `inproc`, `proc` (two processes) or `proc:N`.
    pub fn parse(s: &str) -> Result<Self, OversetError> {
        match s {
            "inproc" => Ok(TransportConfig::InProcess),
            "proc" => Ok(TransportConfig::process(2)),
            other => {
                let n = other
                    .strip_prefix("proc:")
                    .and_then(|n| n.parse::<usize>().ok())
                    .filter(|&n| n > 0)
                    .ok_or_else(|| {
                        OversetError::Config(format!(
                            "unknown transport '{other}' (expected inproc, proc or proc:N)"
                        ))
                    })?;
                Ok(TransportConfig::process(n))
            }
        }
    }

    /// Connect an `nranks`-rank universe: decide which role this *process*
    /// plays in it (run every rank locally, run a rank subrange as a child,
    /// or route frames as the parent). Called once per `try_run`; the
    /// process transport may fork and blocks on the children's handshakes.
    pub(crate) fn establish(&self, nranks: usize) -> Result<Fabric, OversetError> {
        let TransportConfig::Process { processes, spawn_args } = self else {
            return Ok(Fabric::Local);
        };
        if nranks == 0 {
            return Err(OversetError::Setup("cannot establish a 0-rank fabric".into()));
        }
        let my_index = ESTABLISH_CALLS.fetch_add(1, Ordering::SeqCst);
        if let Ok(spec) = env::var(ENV_CHILD) {
            let spec = ChildSpec::parse(&spec)?;
            if spec.call_index == my_index {
                if spec.nranks != nranks {
                    return Err(OversetError::Setup(format!(
                        "child spawned for a {}-rank universe reached a {}-rank establish \
                         (non-deterministic replay?)",
                        spec.nranks, nranks
                    )));
                }
                return Ok(Fabric::Child(ChildFabric::connect(&spec)?));
            }
            // Not our universe: the program must still execute it so control
            // flow reaches the establish call we were actually spawned for,
            // but its *results* are all we need — and those are bit-identical
            // in-process (the determinism contract). Running it locally
            // instead of as a parent keeps an n-universe program's replay
            // cost quadratic rather than forking grandchildren exponentially.
            return Ok(Fabric::Local);
        }
        spawn_children(*processes, spawn_args.as_deref(), nranks).map(Fabric::Parent)
    }
}

impl fmt::Display for TransportConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransportConfig::InProcess => write!(f, "inproc"),
            TransportConfig::Process { processes, .. } => write!(f, "proc:{processes}"),
        }
    }
}

// ---------------------------------------------------------------------------
// Establishing a universe
// ---------------------------------------------------------------------------

/// What [`TransportConfig::establish`] decided this process is.
pub(crate) enum Fabric {
    /// Run every rank in this process (the in-process backend).
    Local,
    /// This process is a forked child owning ranks `lo..hi`.
    Child(ChildFabric),
    /// This process is the parent router; it runs no ranks.
    Parent(ParentFabric),
}

/// Ranks `[g*n/k, (g+1)*n/k)` for group `g` of `k`: contiguous, within one
/// point of even, exhaustive.
pub(crate) fn group_range(g: usize, ngroups: usize, nranks: usize) -> (usize, usize) {
    (g * nranks / ngroups, (g + 1) * nranks / ngroups)
}

/// Global count of process-transport `establish` calls in this process. A child
/// identifies "its" universe by this counter matching the `<call_index>`
/// in [`ENV_CHILD`]; the parent uses per-spawn-key counters instead (see
/// [`next_call_index`]) because its own global count includes universes the
/// child will never replay.
static ESTABLISH_CALLS: AtomicUsize = AtomicUsize::new(0);

/// Per-spawn-key spawn counter. Children re-execute exactly the command in
/// `spawn_args`, so the n-th spawn under one key corresponds to the n-th
/// establish call the child performs.
fn next_call_index(key: &str) -> usize {
    static COUNTERS: OnceLock<Mutex<HashMap<String, usize>>> = OnceLock::new();
    let mut map = COUNTERS.get_or_init(Default::default).lock().unwrap();
    let c = map.entry(key.to_string()).or_insert(0);
    let i = *c;
    *c += 1;
    i
}

struct ChildSpec {
    call_index: usize,
    group: usize,
    ngroups: usize,
    nranks: usize,
}

impl ChildSpec {
    fn parse(s: &str) -> Result<ChildSpec, OversetError> {
        let parts: Vec<usize> = s
            .split(':')
            .map(|p| p.parse().ok())
            .collect::<Option<_>>()
            .ok_or_else(|| OversetError::Config(format!("malformed {ENV_CHILD}={s}")))?;
        if parts.len() != 4 {
            return Err(OversetError::Config(format!("malformed {ENV_CHILD}={s}")));
        }
        Ok(ChildSpec { call_index: parts[0], group: parts[1], ngroups: parts[2], nranks: parts[3] })
    }
}

/// Fork `processes` rank groups (re-executions of the current binary with
/// `spawn_args`, this process's own arguments when `None`) and wait for
/// every child's handshake.
fn spawn_children(
    processes: usize,
    spawn_args: Option<&[String]>,
    nranks: usize,
) -> Result<ParentFabric, OversetError> {
    let ngroups = processes.max(1).min(nranks);
    let spawn_args: Vec<String> = match spawn_args {
        Some(a) => a.to_vec(),
        None => env::args().skip(1).collect(),
    };
    let key = spawn_args.join("\u{1f}");
    let call_index = next_call_index(&key);
    let exe = env::current_exe()
        .map_err(|e| OversetError::Io(format!("cannot locate current executable: {e}")))?;

    let mut children: Vec<Child> = Vec::with_capacity(ngroups);
    let mut sockets: Vec<UnixStream> = Vec::with_capacity(ngroups);
    let result = (|| {
        for g in 0..ngroups {
            let (parent_sock, child_sock) =
                UnixStream::pair().map_err(|e| OversetError::Io(format!("socketpair: {e}")))?;
            let child_fd: OwnedFd = child_sock.into();
            let spec = format!("{call_index}:{g}:{ngroups}:{nranks}");
            let child = Command::new(&exe)
                .args(&spawn_args)
                .stdin(Stdio::from(child_fd))
                .stdout(Stdio::null())
                .env(ENV_CHILD, &spec)
                .spawn()
                .map_err(|e| OversetError::Io(format!("spawn rank-group process: {e}")))?;
            children.push(child);
            sockets.push(parent_sock);
        }
        // Handshake: every child announces itself before any rank runs,
        // so a child that dies during startup is caught here.
        for (g, sock) in sockets.iter().enumerate() {
            let (lo, hi) = group_range(g, ngroups, nranks);
            match read_frame(sock) {
                Ok(Some(Frame::Hello { version, group, lo: clo, hi: chi, nranks: cn })) => {
                    if version != WIRE_SCHEMA_VERSION
                        || group != g
                        || clo != lo
                        || chi != hi
                        || cn != nranks
                    {
                        return Err(OversetError::Setup(format!(
                            "rank-group {g} handshake mismatch \
                             (got v{version} group {group} ranks {clo}..{chi}/{cn}, \
                             expected v{WIRE_SCHEMA_VERSION} group {g} ranks {lo}..{hi}/{nranks})"
                        )));
                    }
                }
                Ok(other) => {
                    return Err(OversetError::Setup(format!(
                        "rank-group {g} {} before handshake",
                        if other.is_none() { "exited" } else { "sent a non-hello frame" }
                    )));
                }
                Err(e) => {
                    return Err(OversetError::Io(format!("rank-group {g} handshake: {e}")));
                }
            }
        }
        Ok(())
    })();
    if let Err(e) = result {
        for child in &mut children {
            let _ = child.kill();
            let _ = child.wait();
        }
        return Err(e);
    }
    Ok(ParentFabric { children, sockets, nranks, ngroups })
}

// ---------------------------------------------------------------------------
// Frame protocol
// ---------------------------------------------------------------------------

/// One unit on a parent<->child socket: `[u32 len][u8 kind][body]`, body
/// fields in [`Wire`] encoding. Everything after the handshake is
/// symmetric — children emit `Data`/`Coll`/`Finish`/`Abort`/`Done`/`Bye`,
/// the parent emits `Data` (forwarded), `CollResult`, `Finish` and `Abort`.
#[derive(Clone, Debug, PartialEq)]
pub(crate) enum Frame {
    /// Child -> parent, once, immediately after connecting.
    Hello { version: u32, group: usize, lo: usize, hi: usize, nranks: usize },
    /// A tagged point-to-point message for rank `dst`. `arrival` is the
    /// virtual arrival stamp computed by the *sender*; `bytes` is the
    /// logical message size charged to the machine model.
    Data {
        dst: usize,
        src: usize,
        tag: u64,
        arrival: f64,
        bytes: usize,
        type_hash: u64,
        payload: Vec<u8>,
    },
    /// One rank's contribution to collective round `round`.
    Coll { round: u64, rank: usize, clock: f64, type_hash: u64, payload: Vec<u8> },
    /// Parent -> every child once all `nranks` contributions arrived.
    /// `round_clock` is the max over contributed clocks; `poison` flags a
    /// cross-rank type mismatch; `blobs[r]` is rank r's payload.
    CollResult { round: u64, round_clock: f64, poison: bool, blobs: Vec<Vec<u8>> },
    /// Rank `rank` returned from its body (peers may stop waiting on it).
    Finish { rank: usize },
    /// Rank `rank` panicked or failed; the universe is shutting down.
    Abort { rank: usize, phase: String, message: String },
    /// Rank `rank`'s encoded `RankOutput` (child -> parent).
    Done { rank: usize, payload: Vec<u8> },
    /// Clean goodbye: the child is about to exit deliberately. EOF without
    /// a preceding `Bye` means the process died and is treated as a panic.
    Bye,
}

impl Frame {
    fn encode_body(&self, buf: &mut Vec<u8>) {
        match self {
            Frame::Hello { version, group, lo, hi, nranks } => {
                buf.push(0);
                version.encode(buf);
                group.encode(buf);
                lo.encode(buf);
                hi.encode(buf);
                nranks.encode(buf);
            }
            Frame::Data { dst, src, tag, arrival, bytes, type_hash, payload } => {
                buf.push(1);
                dst.encode(buf);
                src.encode(buf);
                tag.encode(buf);
                arrival.encode(buf);
                bytes.encode(buf);
                type_hash.encode(buf);
                payload.encode(buf);
            }
            Frame::Coll { round, rank, clock, type_hash, payload } => {
                buf.push(2);
                round.encode(buf);
                rank.encode(buf);
                clock.encode(buf);
                type_hash.encode(buf);
                payload.encode(buf);
            }
            Frame::CollResult { round, round_clock, poison, blobs } => {
                buf.push(3);
                round.encode(buf);
                round_clock.encode(buf);
                poison.encode(buf);
                blobs.encode(buf);
            }
            Frame::Finish { rank } => {
                buf.push(4);
                rank.encode(buf);
            }
            Frame::Abort { rank, phase, message } => {
                buf.push(5);
                rank.encode(buf);
                phase.encode(buf);
                message.encode(buf);
            }
            Frame::Done { rank, payload } => {
                buf.push(6);
                rank.encode(buf);
                payload.encode(buf);
            }
            Frame::Bye => buf.push(7),
        }
    }

    fn decode_body(bytes: &[u8]) -> Result<Frame, WireError> {
        let r = &mut WireReader::new(bytes);
        let frame = match r.u8()? {
            0 => Frame::Hello {
                version: u32::decode(r)?,
                group: usize::decode(r)?,
                lo: usize::decode(r)?,
                hi: usize::decode(r)?,
                nranks: usize::decode(r)?,
            },
            1 => Frame::Data {
                dst: usize::decode(r)?,
                src: usize::decode(r)?,
                tag: u64::decode(r)?,
                arrival: f64::decode(r)?,
                bytes: usize::decode(r)?,
                type_hash: u64::decode(r)?,
                payload: Vec::decode(r)?,
            },
            2 => Frame::Coll {
                round: u64::decode(r)?,
                rank: usize::decode(r)?,
                clock: f64::decode(r)?,
                type_hash: u64::decode(r)?,
                payload: Vec::decode(r)?,
            },
            3 => Frame::CollResult {
                round: u64::decode(r)?,
                round_clock: f64::decode(r)?,
                poison: bool::decode(r)?,
                blobs: Vec::decode(r)?,
            },
            4 => Frame::Finish { rank: usize::decode(r)? },
            5 => Frame::Abort {
                rank: usize::decode(r)?,
                phase: String::decode(r)?,
                message: String::decode(r)?,
            },
            6 => Frame::Done { rank: usize::decode(r)?, payload: Vec::decode(r)? },
            7 => Frame::Bye,
            _ => return Err(WireError::Invalid("frame kind")),
        };
        if r.remaining() != 0 {
            return Err(WireError::Trailing { remaining: r.remaining() });
        }
        Ok(frame)
    }
}

/// Write one frame. Callers serialise writers per socket (a `Mutex` around
/// the stream handle); `write_all` on the borrowed stream keeps the frame
/// contiguous.
pub(crate) fn write_frame(sock: &UnixStream, frame: &Frame) -> io::Result<()> {
    let mut body = Vec::with_capacity(64);
    frame.encode_body(&mut body);
    let mut msg = Vec::with_capacity(4 + body.len());
    msg.extend_from_slice(&(body.len() as u32).to_le_bytes());
    msg.extend_from_slice(&body);
    let mut w: &UnixStream = sock;
    w.write_all(&msg)
}

/// Read one frame. `Ok(None)` is a clean EOF **at a frame boundary**; EOF
/// mid-frame is an error (the peer died while writing).
pub(crate) fn read_frame(sock: &UnixStream) -> io::Result<Option<Frame>> {
    let mut r: &UnixStream = sock;
    let mut len = [0u8; 4];
    match r.read(&mut len[..1]) {
        Ok(0) => return Ok(None),
        Ok(_) => {}
        Err(e) if e.kind() == io::ErrorKind::Interrupted => return read_frame(sock),
        Err(e) => return Err(e),
    }
    r.read_exact(&mut len[1..])?;
    let n = u32::from_le_bytes(len) as usize;
    let mut body = vec![0u8; n];
    r.read_exact(&mut body)?;
    Frame::decode_body(&body)
        .map(Some)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("bad frame: {e}")))
}

// ---------------------------------------------------------------------------
// Child side
// ---------------------------------------------------------------------------

/// The child role: this process owns ranks `lo..hi` of `nranks`.
pub(crate) struct ChildFabric {
    sock: UnixStream,
    pub(crate) lo: usize,
    pub(crate) hi: usize,
    pub(crate) nranks: usize,
}

impl ChildFabric {
    fn connect(spec: &ChildSpec) -> Result<ChildFabric, OversetError> {
        // The parent passed our socket as stdin (fd 0).
        let fd = unsafe { BorrowedFd::borrow_raw(0) }
            .try_clone_to_owned()
            .map_err(|e| OversetError::Io(format!("dup child socket: {e}")))?;
        let sock = UnixStream::from(fd);
        let (lo, hi) = group_range(spec.group, spec.ngroups, spec.nranks);
        write_frame(
            &sock,
            &Frame::Hello {
                version: WIRE_SCHEMA_VERSION,
                group: spec.group,
                lo,
                hi,
                nranks: spec.nranks,
            },
        )
        .map_err(|e| OversetError::Io(format!("handshake: {e}")))?;
        Ok(ChildFabric { sock, lo, hi, nranks: spec.nranks })
    }

    /// Split into the shared write-side handle ranks use and the read-side
    /// stream the runtime's router thread drains.
    pub(crate) fn split(self) -> Result<(Arc<ProcLink>, UnixStream), OversetError> {
        let reader = self
            .sock
            .try_clone()
            .map_err(|e| OversetError::Io(format!("dup child socket: {e}")))?;
        let link = Arc::new(ProcLink {
            writer: Mutex::new(self.sock),
            lo: self.lo,
            hi: self.hi,
            coll: Mutex::new(ProcCollInner { rounds: BTreeMap::new(), waiters: Vec::new() }),
            collcv: Condvar::new(),
            parent_gone: AtomicBool::new(false),
        });
        Ok((link, reader))
    }
}

/// Child-side handle to the parent router, shared by every local rank and
/// the runtime's socket-reader thread.
///
/// Write errors are deliberately swallowed: if the parent is gone the
/// reader thread observes EOF and aborts the universe through the normal
/// failure path, which beats every rank individually racing to report a
/// broken pipe.
pub(crate) struct ProcLink {
    writer: Mutex<UnixStream>,
    /// First local rank (inclusive).
    pub(crate) lo: usize,
    /// Last local rank (exclusive).
    pub(crate) hi: usize,
    /// Collective rounds resolved by the parent, keyed by round number.
    pub(crate) coll: Mutex<ProcCollInner>,
    pub(crate) collcv: Condvar,
    pub(crate) parent_gone: AtomicBool,
}

pub(crate) struct ProcCollInner {
    pub(crate) rounds: BTreeMap<u64, ProcRound>,
    /// Ranks blocked on a round; the reader thread drains and wakes these
    /// when a result lands.
    pub(crate) waiters: Vec<usize>,
}

/// A resolved collective round, read once by each local rank.
pub(crate) struct ProcRound {
    pub(crate) round_clock: f64,
    pub(crate) poison: bool,
    /// Every rank's wire blob, until the first local reader decodes them.
    pub(crate) blobs: Vec<Vec<u8>>,
    /// The decoded `Arc<Vec<T>>` every local reader shares.
    pub(crate) decoded: Option<Arc<dyn Any + Send + Sync>>,
    pub(crate) readers_left: usize,
}

impl ProcLink {
    fn write(&self, frame: &Frame) {
        let sock = self.writer.lock().unwrap();
        if write_frame(&sock, frame).is_err() {
            self.parent_gone.store(true, Ordering::SeqCst);
        }
    }

    #[allow(clippy::too_many_arguments)]
    pub(crate) fn send_data(
        &self,
        dst: usize,
        src: usize,
        tag: u64,
        arrival: f64,
        bytes: usize,
        type_hash: u64,
        payload: Vec<u8>,
    ) {
        self.write(&Frame::Data { dst, src, tag, arrival, bytes, type_hash, payload });
    }

    pub(crate) fn send_coll(
        &self,
        round: u64,
        rank: usize,
        clock: f64,
        type_hash: u64,
        payload: Vec<u8>,
    ) {
        self.write(&Frame::Coll { round, rank, clock, type_hash, payload });
    }

    pub(crate) fn send_finish(&self, rank: usize) {
        self.write(&Frame::Finish { rank });
    }

    pub(crate) fn send_abort(&self, rank: usize, phase: &str, message: &str) {
        self.write(&Frame::Abort { rank, phase: phase.to_string(), message: message.to_string() });
    }

    pub(crate) fn send_done(&self, rank: usize, payload: Vec<u8>) {
        self.write(&Frame::Done { rank, payload });
    }

    pub(crate) fn send_bye(&self) {
        self.write(&Frame::Bye);
    }
}

// ---------------------------------------------------------------------------
// Parent side
// ---------------------------------------------------------------------------

/// The parent role: a router over `ngroups` child processes. Runs no ranks.
pub(crate) struct ParentFabric {
    children: Vec<Child>,
    sockets: Vec<UnixStream>,
    pub(crate) nranks: usize,
    ngroups: usize,
}

struct CollAcc {
    arrived: usize,
    max_clock: f64,
    hash: Option<u64>,
    poison: bool,
    blobs: Vec<Option<Vec<u8>>>,
}

struct RouterState {
    /// Write handles, one per child, rank-group index order.
    writers: Vec<Mutex<UnixStream>>,
    /// `owner[rank]` = index of the child that runs `rank`.
    owner: Vec<usize>,
    nranks: usize,
    ngroups: usize,
    colls: Mutex<BTreeMap<u64, CollAcc>>,
    /// First failure wins: `(rank, phase, message)`.
    failure: Mutex<Option<(usize, String, String)>>,
    done: Mutex<Vec<Option<Vec<u8>>>>,
    /// Whether child g said goodbye before its socket closed.
    bye: Vec<AtomicBool>,
}

impl RouterState {
    fn broadcast_except(&self, skip: Option<usize>, frame: &Frame) {
        for (g, w) in self.writers.iter().enumerate() {
            if Some(g) != skip {
                let sock = w.lock().unwrap();
                // A dead child's pipe errors here; its own reader thread
                // reports the death, so the forward failure is ignorable.
                let _ = write_frame(&sock, frame);
            }
        }
    }

    fn child_died(&self, g: usize) {
        let (lo, _) = group_range(g, self.ngroups, self.nranks);
        let mut fail = self.failure.lock().unwrap();
        if fail.is_none() {
            *fail = Some((lo, "other".into(), "rank-group process exited unexpectedly".into()));
        }
        drop(fail);
        self.broadcast_except(
            Some(g),
            &Frame::Abort {
                rank: lo,
                phase: "other".into(),
                message: "rank-group process exited unexpectedly".into(),
            },
        );
    }

    /// Drain one child's socket until `Bye`/EOF, forwarding and
    /// aggregating. Runs on its own thread per child.
    fn route(&self, g: usize, sock: &UnixStream) {
        loop {
            let frame = match read_frame(sock) {
                Ok(Some(f)) => f,
                Ok(None) | Err(_) => {
                    if !self.bye[g].load(Ordering::SeqCst) {
                        self.child_died(g);
                    }
                    return;
                }
            };
            match frame {
                Frame::Data { dst, .. } => {
                    if dst < self.nranks {
                        let w = self.writers[self.owner[dst]].lock().unwrap();
                        let _ = write_frame(&w, &frame);
                    }
                }
                Frame::Coll { round, rank, clock, type_hash, payload } => {
                    let mut colls = self.colls.lock().unwrap();
                    let acc = colls.entry(round).or_insert_with(|| CollAcc {
                        arrived: 0,
                        max_clock: f64::NEG_INFINITY,
                        hash: None,
                        poison: false,
                        blobs: vec![None; self.nranks],
                    });
                    acc.arrived += 1;
                    acc.max_clock = acc.max_clock.max(clock);
                    match acc.hash {
                        None => acc.hash = Some(type_hash),
                        Some(h) if h != type_hash => acc.poison = true,
                        Some(_) => {}
                    }
                    if rank < self.nranks {
                        acc.blobs[rank] = Some(payload);
                    }
                    if acc.arrived == self.nranks {
                        let acc = colls.remove(&round).unwrap();
                        drop(colls);
                        let blobs = acc.blobs.into_iter().map(Option::unwrap_or_default).collect();
                        self.broadcast_except(
                            None,
                            &Frame::CollResult {
                                round,
                                round_clock: acc.max_clock,
                                poison: acc.poison,
                                blobs,
                            },
                        );
                    }
                }
                Frame::Finish { rank } => {
                    self.broadcast_except(Some(g), &Frame::Finish { rank });
                }
                Frame::Abort { rank, phase, message } => {
                    {
                        let mut fail = self.failure.lock().unwrap();
                        if fail.is_none() {
                            *fail = Some((rank, phase.clone(), message.clone()));
                        }
                    }
                    self.broadcast_except(Some(g), &Frame::Abort { rank, phase, message });
                }
                Frame::Done { rank, payload } => {
                    if rank < self.nranks {
                        self.done.lock().unwrap()[rank] = Some(payload);
                    }
                }
                Frame::Bye => {
                    self.bye[g].store(true, Ordering::SeqCst);
                    return;
                }
                // Handshake is over and CollResult only flows parent→child;
                // ignore strays rather than killing the run.
                Frame::Hello { .. } | Frame::CollResult { .. } => {}
            }
        }
    }
}

impl ParentFabric {
    /// Route until every child is done (or dead), reap the processes, and
    /// either surface the first failure or decode every rank's output.
    pub(crate) fn run<R: Wire>(self) -> Result<Vec<crate::runtime::RankOutput<R>>, OversetError> {
        let ParentFabric { mut children, sockets, nranks, ngroups } = self;
        let mut owner = vec![0usize; nranks];
        for g in 0..ngroups {
            let (lo, hi) = group_range(g, ngroups, nranks);
            for o in &mut owner[lo..hi] {
                *o = g;
            }
        }
        let mut writers = Vec::with_capacity(ngroups);
        for s in &sockets {
            writers.push(Mutex::new(
                s.try_clone().map_err(|e| OversetError::Io(format!("dup router socket: {e}")))?,
            ));
        }
        let state = RouterState {
            writers,
            owner,
            nranks,
            ngroups,
            colls: Mutex::new(BTreeMap::new()),
            failure: Mutex::new(None),
            done: Mutex::new(vec![None; nranks]),
            bye: (0..ngroups).map(|_| AtomicBool::new(false)).collect(),
        };
        std::thread::scope(|scope| {
            for (g, sock) in sockets.iter().enumerate() {
                let state = &state;
                scope.spawn(move || state.route(g, sock));
            }
        });
        for child in &mut children {
            let _ = child.wait();
        }
        if let Some((rank, phase, message)) = state.failure.into_inner().unwrap() {
            return Err(OversetError::RankPanicked {
                rank,
                phase: crate::wire::intern(&phase),
                message,
            });
        }
        let done = state.done.into_inner().unwrap();
        let mut outputs = Vec::with_capacity(nranks);
        for (rank, slot) in done.into_iter().enumerate() {
            let bytes = slot.ok_or_else(|| {
                OversetError::Setup(format!("rank {rank} finished without reporting output"))
            })?;
            outputs.push(crate::runtime::RankOutput::<R>::from_wire_bytes(&bytes).map_err(
                |e| OversetError::WireDecode {
                    rank,
                    src: rank,
                    tag: 0,
                    detail: format!("rank output: {e}"),
                },
            )?);
        }
        Ok(outputs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_spellings() {
        assert_eq!(TransportConfig::parse("inproc").unwrap(), TransportConfig::InProcess);
        assert_eq!(TransportConfig::parse("proc").unwrap(), TransportConfig::process(2));
        assert_eq!(TransportConfig::parse("proc:7").unwrap(), TransportConfig::process(7));
        assert!(TransportConfig::parse("proc:0").is_err());
        assert!(TransportConfig::parse("tcp").is_err());
        assert!(TransportConfig::parse("proc:x").is_err());
    }

    #[test]
    fn display_round_trips_through_parse() {
        for cfg in [TransportConfig::InProcess, TransportConfig::process(3)] {
            assert_eq!(TransportConfig::parse(&cfg.to_string()).unwrap(), cfg);
        }
    }

    #[test]
    fn group_ranges_partition_ranks() {
        for nranks in 1..12 {
            for ngroups in 1..=nranks {
                let mut covered = Vec::new();
                for g in 0..ngroups {
                    let (lo, hi) = group_range(g, ngroups, nranks);
                    assert!(lo <= hi && hi <= nranks);
                    assert!(hi - lo >= nranks / ngroups);
                    assert!(hi - lo <= nranks / ngroups + 1);
                    covered.extend(lo..hi);
                }
                assert_eq!(covered, (0..nranks).collect::<Vec<_>>());
            }
        }
    }

    #[test]
    fn frames_roundtrip() {
        let frames = vec![
            Frame::Hello { version: 1, group: 2, lo: 4, hi: 8, nranks: 16 },
            Frame::Data {
                dst: 3,
                src: 1,
                tag: 42,
                arrival: 1.5,
                bytes: 4096,
                type_hash: 0xdead_beef,
                payload: vec![1, 2, 3],
            },
            Frame::Coll { round: 9, rank: 0, clock: -0.0, type_hash: 7, payload: vec![] },
            Frame::CollResult {
                round: 9,
                round_clock: 2.25,
                poison: false,
                blobs: vec![vec![1], vec![], vec![2, 3]],
            },
            Frame::Finish { rank: 5 },
            Frame::Abort { rank: 1, phase: "flow".into(), message: "boom".into() },
            Frame::Done { rank: 0, payload: vec![9; 32] },
            Frame::Bye,
        ];
        for f in frames {
            let mut body = Vec::new();
            f.encode_body(&mut body);
            assert_eq!(Frame::decode_body(&body).unwrap(), f);
        }
    }

    #[test]
    fn frames_cross_a_socket() {
        let (a, b) = UnixStream::pair().unwrap();
        let sent = Frame::Data {
            dst: 0,
            src: 1,
            tag: 7,
            arrival: 3.5,
            bytes: 100,
            type_hash: 11,
            payload: vec![0xab; 17],
        };
        write_frame(&a, &sent).unwrap();
        write_frame(&a, &Frame::Bye).unwrap();
        assert_eq!(read_frame(&b).unwrap(), Some(sent));
        assert_eq!(read_frame(&b).unwrap(), Some(Frame::Bye));
        drop(a);
        assert_eq!(read_frame(&b).unwrap(), None); // clean EOF at boundary
    }

    #[test]
    fn truncated_frame_is_an_error_not_eof() {
        let (a, b) = UnixStream::pair().unwrap();
        {
            let mut w: &UnixStream = &a;
            // Length promises 100 bytes; deliver 2 and hang up.
            w.write_all(&100u32.to_le_bytes()).unwrap();
            w.write_all(&[1, 2]).unwrap();
        }
        drop(a);
        assert!(read_frame(&b).is_err());
    }

    #[test]
    fn establish_inproc_is_local() {
        let fabric = TransportConfig::InProcess.establish(4).unwrap();
        assert!(matches!(fabric, Fabric::Local));
    }
}
