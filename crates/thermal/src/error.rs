//! Error type for thermal modelling.

use std::fmt;

/// Errors returned by thermal-model construction and analysis.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ThermalError {
    /// The underlying platform thermal spec was invalid.
    InvalidSpec {
        /// Description from the spec validator.
        reason: String,
    },
    /// A power vector had the wrong length for the network.
    PowerLengthMismatch {
        /// Expected node count.
        expected: usize,
        /// Provided vector length.
        actual: usize,
    },
    /// The steady-state linear system was singular (an isolated node).
    SingularNetwork,
    /// A lumped-model parameter was invalid.
    InvalidParameter {
        /// Which parameter.
        name: &'static str,
        /// The offending value.
        value: f64,
    },
    /// A node name was not found in the network.
    UnknownNode {
        /// The requested name.
        name: String,
    },
    /// A node index was out of range for the network.
    NodeOutOfRange {
        /// The requested index.
        index: usize,
        /// The network's node count.
        len: usize,
    },
}

impl fmt::Display for ThermalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::InvalidSpec { reason } => write!(f, "invalid thermal spec: {reason}"),
            Self::PowerLengthMismatch { expected, actual } => {
                write!(
                    f,
                    "power vector has {actual} entries, network has {expected} nodes"
                )
            }
            Self::SingularNetwork => write!(f, "thermal network is singular"),
            Self::InvalidParameter { name, value } => {
                write!(f, "lumped parameter {name} has invalid value {value}")
            }
            Self::UnknownNode { name } => write!(f, "unknown thermal node {name:?}"),
            Self::NodeOutOfRange { index, len } => {
                write!(f, "thermal node index {index} out of range for {len} nodes")
            }
        }
    }
}

impl std::error::Error for ThermalError {}

impl From<mpt_soc::SocError> for ThermalError {
    fn from(err: mpt_soc::SocError) -> Self {
        ThermalError::InvalidSpec {
            reason: err.to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ThermalError>();
    }

    #[test]
    fn displays_are_informative() {
        let e = ThermalError::PowerLengthMismatch {
            expected: 5,
            actual: 3,
        };
        assert!(e.to_string().contains('5'));
        assert!(e.to_string().contains('3'));
    }
}
