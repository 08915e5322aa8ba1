//! Workspace-wide error type (hand-rolled thiserror-style, no deps).
//!
//! Protocol-level failures that used to panic inside the runtime —
//! mistyped receives, mixed-type collectives, disconnected channels — and
//! case-setup validation failures all surface as [`OversetError`]. Panics
//! remain only for internal invariant violations (e.g. a rank index that
//! was validated before the run).

use std::fmt;

/// Errors surfaced by the runtime, the case setup and the benchmark tools.
#[derive(Clone, Debug, PartialEq)]
pub enum OversetError {
    /// `recv` matched a message whose payload is not the requested type.
    TypeMismatch { rank: usize, src: usize, tag: u64, expected: &'static str },
    /// A receive could never complete: every sender hung up.
    Disconnected { rank: usize, src: usize, tag: u64 },
    /// Ranks contributed different types to one collective round.
    CollectiveMismatch { rank: usize, expected: &'static str },
    /// A rank's body panicked during the run; peers were unblocked and the
    /// universe shut down. `phase` names the statistics phase the rank was
    /// in when it panicked.
    RankPanicked { rank: usize, phase: &'static str, message: String },
    /// This rank was blocked in a communication call when `failed_rank`
    /// panicked; the wait was abandoned so the universe could shut down.
    AbortedByPeer { rank: usize, failed_rank: usize },
    /// Case/topology validation failed before the run started.
    Setup(String),
    /// Invalid run configuration (rank counts, thresholds, CLI arguments).
    Config(String),
    /// Filesystem failure (trace export and friends).
    Io(String),
}

impl fmt::Display for OversetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OversetError::TypeMismatch { rank, src, tag, expected } => write!(
                f,
                "rank {rank}: type mismatch receiving tag {tag} from rank {src} (expected {expected})"
            ),
            OversetError::Disconnected { rank, src, tag } => write!(
                f,
                "rank {rank}: all senders disconnected while waiting for tag {tag} from rank {src}"
            ),
            OversetError::CollectiveMismatch { rank, expected } => write!(
                f,
                "rank {rank}: mixed payload types in collective (expected {expected})"
            ),
            OversetError::RankPanicked { rank, phase, message } => {
                write!(f, "rank {rank} panicked in phase {phase}: {message}")
            }
            OversetError::AbortedByPeer { rank, failed_rank } => write!(
                f,
                "rank {rank}: communication aborted because rank {failed_rank} panicked"
            ),
            OversetError::Setup(msg) => write!(f, "setup error: {msg}"),
            OversetError::Config(msg) => write!(f, "config error: {msg}"),
            OversetError::Io(msg) => write!(f, "io error: {msg}"),
        }
    }
}

impl std::error::Error for OversetError {}

impl From<std::io::Error> for OversetError {
    fn from(e: std::io::Error) -> Self {
        OversetError::Io(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = OversetError::TypeMismatch { rank: 3, src: 1, tag: 42, expected: "f64" };
        let s = e.to_string();
        assert!(s.contains("rank 3") && s.contains("tag 42") && s.contains("f64"));
        let e = OversetError::Setup("no grids".into());
        assert!(e.to_string().contains("no grids"));
    }

    #[test]
    fn io_conversion() {
        let io = std::io::Error::new(std::io::ErrorKind::NotFound, "gone");
        let e: OversetError = io.into();
        assert!(matches!(e, OversetError::Io(_)));
    }
}
