//! The serving layer's error type: everything the core policies can report,
//! plus the failure modes only a durable, replicated engine has — corrupt
//! log data, manifest violations, transport failures, and poisoned locks.
//!
//! Before this type existed, the WAL map panicked on a poisoned lock
//! (taking every tenant in the process down with the one thread that
//! panicked) and corruption surfaced as whatever [`CoreError`] the garbled
//! bytes happened to parse into. [`ServeError`] makes both recoverable and
//! precise: a poisoned lock is an error the caller can retry (the lock is
//! healed behind it), and a checksum mismatch names the file, the line, and
//! both checksums.

use banditware_core::CoreError;
use std::fmt;

/// Errors produced by the serving engine ([`crate::Engine`], including the
/// log of an [`crate::Engine::open`]-ed one) and the replication subsystem
/// ([`crate::replicate`]).
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// A policy/validation/IO failure from the core layer.
    Core(CoreError),
    /// A lock was poisoned by a panicking thread. The lock itself is healed
    /// (cleared) before this error is returned, so the *next* call on the
    /// same engine proceeds normally — one panicking writer cannot take
    /// down every tenant sharing the map.
    LockPoisoned {
        /// Which lock ("wal map", "wal appender", ...).
        what: &'static str,
    },
    /// On-disk log data failed validation: a checksum mismatch or a format
    /// violation at a known location.
    Corrupt {
        /// The offending file.
        path: String,
        /// 1-based line number inside the file (0 when the damage is not
        /// line-addressable, e.g. a whole-file checksum mismatch).
        line: usize,
        /// What exactly failed, including both checksums on a CRC error.
        detail: String,
    },
    /// A replication manifest was missing, torn, or inconsistent with the
    /// files it describes.
    Manifest {
        /// The manifest (or the directory it should govern).
        path: String,
        /// The violation.
        detail: String,
    },
    /// A [`crate::replicate::SegmentTransport`] operation failed.
    Transport {
        /// The transport operation ("install", "list", "remove").
        op: &'static str,
        /// The underlying failure.
        detail: String,
    },
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Core(e) => write!(f, "{e}"),
            ServeError::LockPoisoned { what } => {
                write!(f, "{what} lock poisoned by a panicking thread (healed; retry the call)")
            }
            ServeError::Corrupt { path, line, detail } => {
                if *line == 0 {
                    write!(f, "{path}: corrupt: {detail}")
                } else {
                    write!(f, "{path}: line {line}: corrupt: {detail}")
                }
            }
            ServeError::Manifest { path, detail } => {
                write!(f, "{path}: manifest violation: {detail}")
            }
            ServeError::Transport { op, detail } => {
                write!(f, "transport {op} failed: {detail}")
            }
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Core(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CoreError> for ServeError {
    fn from(e: CoreError) -> Self {
        ServeError::Core(e)
    }
}

impl ServeError {
    /// Whether this is the core "ticket not in flight" rejection — the one
    /// callers routinely match on to resubmit work after a failover.
    pub fn is_unknown_ticket(&self) -> bool {
        matches!(self, ServeError::Core(CoreError::UnknownTicket { .. }))
    }
}

/// Result alias for the durable serving / replication layer.
pub type ServeResult<T> = std::result::Result<T, ServeError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_specific() {
        let e = ServeError::LockPoisoned { what: "wal map" };
        assert!(e.to_string().contains("wal map") && e.to_string().contains("retry"), "{e}");
        let e = ServeError::Corrupt {
            path: "kw/wal-3.log".into(),
            line: 7,
            detail: "checksum mismatch: stored deadbeef, computed 0badf00d".into(),
        };
        let msg = e.to_string();
        assert!(msg.contains("wal-3.log") && msg.contains("line 7"), "{msg}");
        assert!(msg.contains("deadbeef") && msg.contains("0badf00d"), "{msg}");
        let e = ServeError::Corrupt { path: "p".into(), line: 0, detail: "d".into() };
        assert!(!e.to_string().contains("line"), "{e}");
        let e = ServeError::Manifest { path: "kw/MANIFEST".into(), detail: "torn".into() };
        assert!(e.to_string().contains("MANIFEST"), "{e}");
        let e = ServeError::Transport { op: "install", detail: "disk full".into() };
        assert!(e.to_string().contains("install") && e.to_string().contains("disk full"), "{e}");
    }

    #[test]
    fn core_conversion_preserves_source_and_ticket_check() {
        use std::error::Error;
        let e: ServeError = CoreError::UnknownTicket { ticket: 9 }.into();
        assert!(e.is_unknown_ticket());
        assert!(e.source().is_some());
        assert!(e.to_string().contains('9'));
        assert!(!ServeError::LockPoisoned { what: "x" }.is_unknown_ticket());
        assert!(ServeError::LockPoisoned { what: "x" }.source().is_none());
    }
}
