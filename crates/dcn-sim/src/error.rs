//! Typed construction errors for the Sheriff stack.
//!
//! Construction paths (cluster population, config validation, channel
//! fault models, k-median instances) historically `panic!`ed on bad
//! inputs. The `try_*` constructors return [`SheriffError`] instead, so
//! embedding code — builders, CLIs, fuzzers — can surface the problem;
//! the panicking constructors remain as thin wrappers for tests and
//! examples with known-good inputs.

use std::error::Error;
use std::fmt;

/// Everything that can go wrong while assembling a Sheriff deployment.
#[derive(Debug, Clone, PartialEq)]
pub enum SheriffError {
    /// The topology has no hosts (or no racks) to populate.
    EmptyTopology,
    /// A [`ClusterConfig`](crate::engine::ClusterConfig) field is out of
    /// range.
    InvalidClusterConfig {
        /// Offending field name.
        field: &'static str,
        /// Human-readable constraint that was violated.
        reason: String,
    },
    /// A [`SimConfig`](crate::config::SimConfig) field is out of range.
    InvalidSimConfig {
        /// Offending field name.
        field: &'static str,
        /// Human-readable constraint that was violated.
        reason: String,
    },
    /// A probability parameter is outside `[0, 1]` or not finite.
    InvalidProbability {
        /// Offending field name.
        field: &'static str,
        /// The rejected value.
        value: f64,
    },
    /// A delay window has `delay_max < delay_min`, or a `delay_max`
    /// above `u32::MAX` ticks.
    InvalidDelayWindow {
        /// Lower bound of the window.
        min: u64,
        /// Upper bound of the window.
        max: u64,
    },
    /// A k-median instance is structurally invalid (empty, ragged
    /// distance matrix, or `k` out of `1..=points`).
    InvalidKMedian {
        /// Human-readable description of the defect.
        reason: String,
    },
    /// A set of migration candidates was empty where the algorithm
    /// requires at least one.
    NoCandidates,
    /// Any other construction-time defect.
    Invalid {
        /// Human-readable description of the defect.
        reason: String,
    },
}

impl fmt::Display for SheriffError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SheriffError::EmptyTopology => write!(f, "topology has no hosts to populate"),
            SheriffError::InvalidClusterConfig { field, reason } => {
                write!(f, "invalid ClusterConfig.{field}: {reason}")
            }
            SheriffError::InvalidSimConfig { field, reason } => {
                write!(f, "invalid SimConfig.{field}: {reason}")
            }
            SheriffError::InvalidProbability { field, value } => {
                write!(f, "probability {field} = {value} outside [0, 1]")
            }
            SheriffError::InvalidDelayWindow { min, max } if max < min => {
                write!(f, "delay window [{min}, {max}] has max < min")
            }
            SheriffError::InvalidDelayWindow { min, max } => {
                write!(f, "delay window [{min}, {max}] has max > {}", u32::MAX)
            }
            SheriffError::InvalidKMedian { reason } => {
                write!(f, "invalid k-median instance: {reason}")
            }
            SheriffError::NoCandidates => write!(f, "no migration candidates supplied"),
            SheriffError::Invalid { reason } => write!(f, "{reason}"),
        }
    }
}

impl Error for SheriffError {}

/// Check a probability-like field, used by every channel/config
/// validator.
pub(crate) fn check_probability(field: &'static str, value: f64) -> Result<(), SheriffError> {
    if value.is_finite() && (0.0..=1.0).contains(&value) {
        Ok(())
    } else {
        Err(SheriffError::InvalidProbability { field, value })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = SheriffError::InvalidProbability {
            field: "drop",
            value: 1.5,
        };
        assert!(e.to_string().contains("drop"));
        assert!(e.to_string().contains("1.5"));
        let e = SheriffError::InvalidClusterConfig {
            field: "vms_per_host",
            reason: "must be finite and >= 0".into(),
        };
        assert!(e.to_string().contains("vms_per_host"));
    }

    #[test]
    fn probability_bounds() {
        assert!(check_probability("p", 0.0).is_ok());
        assert!(check_probability("p", 1.0).is_ok());
        assert!(check_probability("p", -0.1).is_err());
        assert!(check_probability("p", f64::NAN).is_err());
    }
}
