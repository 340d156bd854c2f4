//! Error types of the prediction models.

use dnnperf_linreg::FitError;
use std::error::Error;
use std::fmt;

/// Errors produced while training a performance model.
#[derive(Debug, Clone, PartialEq)]
pub enum TrainError {
    /// The dataset holds no rows for the requested GPU.
    NoDataForGpu {
        /// The GPU that was requested.
        gpu: String,
    },
    /// Too few usable samples to fit the model.
    NotEnoughSamples {
        /// What was being fitted.
        what: String,
        /// Samples available.
        got: usize,
    },
    /// A training row holds a time that is not a finite, non-negative
    /// number of seconds (the regressions would carry it into every
    /// prediction).
    InvalidSeconds {
        /// What was being fitted.
        what: String,
        /// The first offending time.
        seconds: f64,
    },
    /// An underlying regression failed irrecoverably.
    Fit {
        /// What was being fitted.
        what: String,
        /// The regression error.
        source: FitError,
    },
}

impl fmt::Display for TrainError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrainError::NoDataForGpu { gpu } => {
                write!(f, "dataset holds no measurements for GPU {gpu:?}")
            }
            TrainError::NotEnoughSamples { what, got } => {
                write!(f, "not enough samples to fit {what}: got {got}")
            }
            TrainError::InvalidSeconds { what, seconds } => {
                write!(f, "cannot fit {what} on a measured time of {seconds} s")
            }
            TrainError::Fit { what, source } => write!(f, "fitting {what} failed: {source}"),
        }
    }
}

/// Checks that every training time is a finite, non-negative number of
/// seconds, naming the model being fitted (`what`) on failure.
///
/// # Errors
///
/// Returns [`TrainError::InvalidSeconds`] with the first bad time.
pub(crate) fn check_seconds(
    what: impl FnOnce() -> String,
    seconds: impl IntoIterator<Item = f64>,
) -> Result<(), TrainError> {
    match seconds.into_iter().find(|s| !(s.is_finite() && *s >= 0.0)) {
        Some(seconds) => Err(TrainError::InvalidSeconds {
            what: what(),
            seconds,
        }),
        None => Ok(()),
    }
}

impl Error for TrainError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            TrainError::Fit { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// Errors produced while predicting with a trained model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PredictError {
    /// The model has no information for a layer of this type and no fallback
    /// is available.
    UnknownLayerType {
        /// The layer type tag.
        tag: String,
    },
    /// The kernel mapping table has no entry (exact or nearest) for a layer.
    NoKernelMapping {
        /// The layer type tag.
        tag: String,
    },
    /// A batch size of zero was requested.
    ZeroBatch,
    /// No trained model suite (and no inter-GPU fallback) covers the
    /// requested GPU.
    NoModelForGpu {
        /// The GPU that was requested.
        gpu: String,
    },
    /// A prediction was requested for a network with no layers.
    EmptyNetwork {
        /// The network's name.
        network: String,
    },
}

/// Validates a prediction request at the model boundary: batch must be
/// positive and the network must have at least one layer.
///
/// # Errors
///
/// Returns [`PredictError::ZeroBatch`] or [`PredictError::EmptyNetwork`].
pub(crate) fn validate_request(
    net: &dnnperf_dnn::Network,
    batch: usize,
) -> Result<(), PredictError> {
    if batch == 0 {
        return Err(PredictError::ZeroBatch);
    }
    if net.layers().is_empty() {
        return Err(PredictError::EmptyNetwork {
            network: net.name().to_string(),
        });
    }
    Ok(())
}

impl fmt::Display for PredictError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PredictError::UnknownLayerType { tag } => {
                write!(f, "no trained model covers layer type {tag:?}")
            }
            PredictError::NoKernelMapping { tag } => {
                write!(
                    f,
                    "kernel mapping table has no entry for layer type {tag:?}"
                )
            }
            PredictError::ZeroBatch => write!(f, "batch size must be positive"),
            PredictError::NoModelForGpu { gpu } => {
                write!(
                    f,
                    "no trained suite or inter-GPU fallback covers GPU {gpu:?}"
                )
            }
            PredictError::EmptyNetwork { network } => {
                write!(f, "network {network:?} has no layers to predict")
            }
        }
    }
}

impl Error for PredictError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_informative() {
        let e = TrainError::NoDataForGpu { gpu: "H100".into() };
        assert!(e.to_string().contains("H100"));
        let e = TrainError::Fit {
            what: "e2e".into(),
            source: FitError::DegenerateX,
        };
        assert!(e.to_string().contains("identical"));
        assert!(Error::source(&e).is_some());
        let e = TrainError::InvalidSeconds {
            what: "LW model for A100".into(),
            seconds: f64::NAN,
        };
        assert!(e.to_string().contains("NaN"));
        let e = PredictError::NoKernelMapping { tag: "conv".into() };
        assert!(e.to_string().contains("conv"));
        let e = PredictError::EmptyNetwork {
            network: "Ghost".into(),
        };
        assert!(e.to_string().contains("Ghost"));
    }
}
