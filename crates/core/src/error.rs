//! Error type for the mediator.

use crate::fault::SourceError;
use std::fmt;

/// Errors raised by mediator operations.
#[derive(Debug)]
pub enum MediatorError {
    /// From the GCM layer.
    Gcm(kind_gcm::GcmError),
    /// From the domain-map layer.
    Dm(kind_dm::DmError),
    /// From the deductive engine.
    Datalog(kind_datalog::DatalogError),
    /// A source failed at the wrapper boundary (after retries, or
    /// because its circuit breaker was open).
    Source {
        /// The failing source.
        name: String,
        /// The underlying typed failure.
        error: SourceError,
    },
    /// A source name was registered twice.
    DuplicateSource {
        /// The offending name.
        name: String,
    },
    /// A source name contains `.`, the separator of the object ids
    /// `source.id`: `A.B`'s row `c` and `A`'s row `B.c` would be one
    /// object.
    DottedSourceName {
        /// The offending name.
        name: String,
    },
    /// No source with that id/name.
    UnknownSource {
        /// The requested source.
        name: String,
    },
    /// A query referenced a class no registered source exports.
    UnknownClass {
        /// The class name.
        class: String,
    },
    /// A query referenced a concept absent from the domain map.
    UnknownConcept {
        /// The concept name.
        name: String,
    },
}

impl fmt::Display for MediatorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MediatorError::Gcm(e) => write!(f, "gcm: {e}"),
            MediatorError::Dm(e) => write!(f, "domain map: {e}"),
            MediatorError::Datalog(e) => write!(f, "datalog: {e}"),
            MediatorError::Source { name, error } => {
                write!(f, "source `{name}`: {error}")
            }
            MediatorError::DuplicateSource { name } => {
                write!(f, "source `{name}` already registered")
            }
            MediatorError::DottedSourceName { name } => write!(
                f,
                "source name `{name}` contains `.`, which separates a source from its object ids"
            ),
            MediatorError::UnknownSource { name } => write!(f, "unknown source `{name}`"),
            MediatorError::UnknownClass { class } => write!(f, "no source exports class `{class}`"),
            MediatorError::UnknownConcept { name } => {
                write!(f, "concept `{name}` is not in the domain map")
            }
        }
    }
}

impl std::error::Error for MediatorError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            MediatorError::Gcm(e) => Some(e),
            MediatorError::Dm(e) => Some(e),
            MediatorError::Datalog(e) => Some(e),
            MediatorError::Source { error, .. } => Some(error),
            // Leaf variants: the message carries everything there is.
            MediatorError::DuplicateSource { .. }
            | MediatorError::DottedSourceName { .. }
            | MediatorError::UnknownSource { .. }
            | MediatorError::UnknownClass { .. }
            | MediatorError::UnknownConcept { .. } => None,
        }
    }
}

impl From<kind_gcm::GcmError> for MediatorError {
    fn from(e: kind_gcm::GcmError) -> Self {
        MediatorError::Gcm(e)
    }
}

impl From<kind_dm::DmError> for MediatorError {
    fn from(e: kind_dm::DmError) -> Self {
        MediatorError::Dm(e)
    }
}

impl From<kind_datalog::DatalogError> for MediatorError {
    fn from(e: kind_datalog::DatalogError) -> Self {
        MediatorError::Datalog(e)
    }
}

/// Convenience alias.
pub type Result<T> = std::result::Result<T, MediatorError>;
