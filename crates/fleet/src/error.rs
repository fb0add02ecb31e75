//! The fleet crate's error type.

use sint_core::checkpoint::CheckpointError;
use sint_runtime::json::JsonParseError;
use std::fmt;

/// Everything that can go wrong while describing, checkpointing or
/// replaying a fleet run.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum FleetError {
    /// The floor specification is unusable (zero boards, no clients,
    /// a degenerate bus…).
    BadSpec {
        /// Human-readable reason.
        reason: String,
    },
    /// A checkpoint or record artifact is not valid JSON.
    Json(JsonParseError),
    /// The JSON is well-formed but not the expected document (wrong
    /// version, missing field, wrong type).
    Schema {
        /// Human-readable reason.
        reason: String,
    },
    /// An embedded checkpoint trial entry failed to decode.
    Entry(CheckpointError),
    /// A [`crate::record::RecordSink`] write failed. Typed so the
    /// supervisor can spool the record and keep the board running —
    /// a result-path hiccup must never abort a healthy floor.
    Sink {
        /// The underlying I/O (or injected) failure, rendered as text.
        reason: String,
    },
    /// Durable storage failed outside the record path — reading or
    /// writing a checkpoint generation slot.
    Io {
        /// The underlying I/O failure, rendered as text.
        reason: String,
    },
}

impl FleetError {
    /// A [`FleetError::BadSpec`] with the given reason.
    #[must_use]
    pub fn spec(reason: impl Into<String>) -> FleetError {
        FleetError::BadSpec { reason: reason.into() }
    }

    /// A [`FleetError::Schema`] with the given reason.
    #[must_use]
    pub fn schema(reason: impl Into<String>) -> FleetError {
        FleetError::Schema { reason: reason.into() }
    }

    /// A [`FleetError::Sink`] with the given reason.
    #[must_use]
    pub fn sink(reason: impl Into<String>) -> FleetError {
        FleetError::Sink { reason: reason.into() }
    }
}

impl fmt::Display for FleetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FleetError::BadSpec { reason } => write!(f, "bad floor spec: {reason}"),
            FleetError::Json(e) => write!(f, "fleet artifact is not valid JSON: {e}"),
            FleetError::Schema { reason } => {
                write!(f, "fleet artifact schema violation: {reason}")
            }
            FleetError::Entry(e) => write!(f, "embedded trial record is invalid: {e}"),
            FleetError::Sink { reason } => write!(f, "record sink write failed: {reason}"),
            FleetError::Io { reason } => write!(f, "durable storage failed: {reason}"),
        }
    }
}

impl std::error::Error for FleetError {}

impl From<JsonParseError> for FleetError {
    fn from(e: JsonParseError) -> Self {
        FleetError::Json(e)
    }
}

/// A checkpoint envelope's errors are the fleet artifact's own; an
/// embedded trial entry's are wrapped as [`FleetError::Entry`] where it
/// is decoded.
impl From<CheckpointError> for FleetError {
    fn from(e: CheckpointError) -> Self {
        match e {
            CheckpointError::Json(e) => FleetError::Json(e),
            CheckpointError::Schema { reason } => FleetError::Schema { reason },
            CheckpointError::Io { reason } => FleetError::Io { reason },
            other => FleetError::Entry(other),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_failure() {
        let e = FleetError::spec("zero boards");
        assert!(e.to_string().contains("zero boards"));
        let e = FleetError::schema("missing version");
        assert!(e.to_string().contains("missing version"));
        let e = FleetError::sink("disk full");
        assert!(e.to_string().contains("disk full"));
    }
}
