//! Error type for bandit policies.

use banditware_linalg::LinalgError;
use std::fmt;

/// Errors produced by policy construction and the select/observe loop.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreError {
    /// An arm index outside `0..n_arms`.
    ArmOutOfRange {
        /// Requested arm.
        arm: usize,
        /// Arms available.
        n_arms: usize,
    },
    /// A context with the wrong number of features.
    FeatureDimMismatch {
        /// Features provided.
        got: usize,
        /// Features expected.
        expected: usize,
    },
    /// A policy cannot be built without arms.
    NoArms,
    /// A configuration parameter is out of its valid range.
    InvalidParameter {
        /// Parameter name.
        name: &'static str,
        /// Human-readable constraint violation.
        detail: String,
    },
    /// An observed runtime was not a positive finite number.
    InvalidRuntime(f64),
    /// A context feature was `inf` or `NaN`. Rejected where contexts enter
    /// the recommender: absorbed into an arm's statistics, one non-finite
    /// feature poisons every later prediction of that arm.
    NonFiniteFeature {
        /// Index of the offending feature.
        feature: usize,
        /// Its value.
        value: f64,
    },
    /// A finite context feature larger in magnitude than
    /// [`crate::bandit::MAX_FEATURE_MAGNITUDE`]. Its square would overflow
    /// an arm's Gram entry to `inf`, which poisons that arm like a
    /// non-finite feature does; refused at the same ingress.
    FeatureTooLarge {
        /// Index of the offending feature.
        feature: usize,
        /// Its value.
        value: f64,
    },
    /// Numerical failure bubbling up from the linear-algebra layer.
    Linalg(LinalgError),
    /// An IO failure while saving or loading persistent state. Carries the
    /// `std::io::ErrorKind` plus the formatted message (the raw
    /// `std::io::Error` is neither `Clone` nor `PartialEq`).
    Io {
        /// What the persistence layer was doing ("save", "load", ...).
        op: &'static str,
        /// The underlying IO error kind.
        kind: std::io::ErrorKind,
        /// The underlying IO error message.
        message: String,
    },
    /// A ticket that is not (or no longer) in the in-flight table: never
    /// issued, already recorded, or explicitly dropped.
    UnknownTicket {
        /// The offending ticket id.
        ticket: u64,
    },
    /// The legacy single-slot `recommend()` was called while a previous
    /// recommendation is still unrecorded. Use the ticketed API
    /// (`recommend_ticketed`) for overlapping rounds.
    RecommendationPending {
        /// Ticket id of the round still awaiting its runtime.
        ticket: u64,
    },
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::ArmOutOfRange { arm, n_arms } => {
                write!(f, "arm {arm} out of range (have {n_arms} arms)")
            }
            CoreError::FeatureDimMismatch { got, expected } => {
                write!(f, "context has {got} features, policy expects {expected}")
            }
            CoreError::NoArms => write!(f, "policy requires at least one arm"),
            CoreError::InvalidParameter { name, detail } => {
                write!(f, "invalid parameter {name}: {detail}")
            }
            CoreError::InvalidRuntime(v) => {
                write!(f, "observed runtime must be positive and finite, got {v}")
            }
            CoreError::NonFiniteFeature { feature, value } => {
                write!(f, "context feature {feature} is {value}; features must be finite")
            }
            CoreError::FeatureTooLarge { feature, value } => write!(
                f,
                "context feature {feature} is {value:e}; features must not exceed {:e} in magnitude",
                crate::bandit::MAX_FEATURE_MAGNITUDE
            ),
            CoreError::Linalg(e) => write!(f, "linear algebra failure: {e}"),
            CoreError::Io { op, kind, message } => {
                write!(f, "IO failure during {op} ({kind:?}): {message}")
            }
            CoreError::UnknownTicket { ticket } => {
                write!(f, "ticket {ticket} is not in flight (never issued, recorded, or dropped)")
            }
            CoreError::RecommendationPending { ticket } => {
                write!(
                    f,
                    "recommendation (ticket {ticket}) still pending; record it first or use \
                     recommend_ticketed() for overlapping rounds"
                )
            }
        }
    }
}

impl From<std::io::Error> for CoreError {
    fn from(e: std::io::Error) -> Self {
        CoreError::Io { op: "io", kind: e.kind(), message: e.to_string() }
    }
}

impl std::error::Error for CoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoreError::Linalg(e) => Some(e),
            _ => None,
        }
    }
}

impl From<LinalgError> for CoreError {
    fn from(e: LinalgError) -> Self {
        CoreError::Linalg(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_specific() {
        let e = CoreError::ArmOutOfRange { arm: 5, n_arms: 3 };
        assert!(e.to_string().contains('5') && e.to_string().contains('3'));
        let e = CoreError::FeatureDimMismatch { got: 2, expected: 7 };
        assert!(e.to_string().contains('7'));
        assert!(CoreError::NoArms.to_string().contains("at least one"));
        let e = CoreError::InvalidRuntime(-1.0);
        assert!(e.to_string().contains("-1"));
        let e = CoreError::NonFiniteFeature { feature: 3, value: f64::INFINITY };
        assert!(e.to_string().contains('3') && e.to_string().contains("inf"));
        let e = CoreError::FeatureTooLarge { feature: 2, value: 1e200 };
        assert!(e.to_string().contains('2') && e.to_string().contains("1e200"));
        let e = CoreError::Io {
            op: "save",
            kind: std::io::ErrorKind::WriteZero,
            message: "disk full".into(),
        };
        assert!(e.to_string().contains("save") && e.to_string().contains("disk full"));
        let e = CoreError::UnknownTicket { ticket: 17 };
        assert!(e.to_string().contains("17"));
        let e = CoreError::RecommendationPending { ticket: 4 };
        assert!(e.to_string().contains("4") && e.to_string().contains("pending"));
    }

    #[test]
    fn io_conversion_keeps_kind_and_message() {
        let ioe = std::io::Error::new(std::io::ErrorKind::UnexpectedEof, "truncated");
        let ce: CoreError = ioe.into();
        match ce {
            CoreError::Io { kind, ref message, .. } => {
                assert_eq!(kind, std::io::ErrorKind::UnexpectedEof);
                assert!(message.contains("truncated"));
            }
            other => panic!("expected Io, got {other:?}"),
        }
    }

    #[test]
    fn linalg_conversion_preserves_source() {
        use std::error::Error;
        let le = LinalgError::InsufficientData { have: 0, need: 1 };
        let ce: CoreError = le.clone().into();
        assert_eq!(ce, CoreError::Linalg(le));
        assert!(ce.source().is_some());
        assert!(CoreError::NoArms.source().is_none());
    }
}
