//! Error type for the aggregation protocol.

use std::error::Error;
use std::fmt;

/// Errors reported by the anti-entropy aggregation protocol.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum AggregationError {
    /// A configuration parameter was invalid (zero cycle length, empty value
    /// vector, probability outside `[0, 1]`, …).
    InvalidConfig {
        /// Human readable explanation.
        reason: String,
    },
    /// The value vector handed to a whole-network algorithm was empty.
    EmptyNetwork,
    /// A numeric argument was not finite (NaN or infinite).
    NonFiniteValue {
        /// The offending value.
        value: f64,
        /// Name of the argument.
        what: &'static str,
    },
}

impl AggregationError {
    /// Convenience constructor for [`AggregationError::InvalidConfig`].
    pub fn invalid_config(reason: impl Into<String>) -> Self {
        AggregationError::InvalidConfig {
            reason: reason.into(),
        }
    }
}

impl fmt::Display for AggregationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AggregationError::InvalidConfig { reason } => {
                write!(f, "invalid configuration: {reason}")
            }
            AggregationError::EmptyNetwork => write!(f, "the network contains no nodes"),
            AggregationError::NonFiniteValue { value, what } => {
                write!(f, "{what} must be finite, got {value}")
            }
        }
    }
}

impl Error for AggregationError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        assert!(AggregationError::invalid_config("cycle length is zero")
            .to_string()
            .contains("cycle length is zero"));
        assert!(AggregationError::EmptyNetwork
            .to_string()
            .contains("no nodes"));
        assert!(AggregationError::NonFiniteValue {
            value: f64::NAN,
            what: "estimate"
        }
        .to_string()
        .contains("estimate"));
    }

    #[test]
    fn error_satisfies_std_bounds() {
        fn assert_bounds<T: std::error::Error + Send + Sync + 'static>() {}
        assert_bounds::<AggregationError>();
    }

    #[test]
    fn invalid_config_constructor() {
        let err = AggregationError::invalid_config(String::from("bad"));
        assert_eq!(
            err,
            AggregationError::InvalidConfig {
                reason: "bad".to_string()
            }
        );
    }
}
