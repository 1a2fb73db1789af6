use dynawave_numeric::NumericError;
use std::error::Error;
use std::fmt;

/// Errors produced while fitting or evaluating predictive models.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ModelError {
    /// The training set was empty or had zero feature dimensions.
    EmptyTrainingSet,
    /// Feature matrix and target vector have different sample counts.
    SampleCountMismatch {
        /// Rows in the feature matrix.
        features: usize,
        /// Targets supplied.
        targets: usize,
    },
    /// A prediction input has the wrong dimensionality.
    DimensionMismatch {
        /// Dimensionality the model was trained with.
        expected: usize,
        /// Dimensionality supplied.
        got: usize,
    },
    /// An underlying linear-algebra routine failed.
    Numeric(NumericError),
    /// A fit met or produced non-finite (NaN/inf) values.
    ///
    /// Raised instead of silently keeping a poisoned model: a single
    /// non-finite weight would turn every downstream prediction into
    /// NaN. Recovery policies treat this exactly like a solve failure.
    /// With context `"design matrix"` the fit's input held a NaN or an
    /// infinity, and no model was fitted.
    NonFinite {
        /// Which fit produced the non-finite parameters, or
        /// `"design matrix"` for a non-finite input.
        context: &'static str,
    },
    /// An internal invariant was violated.
    ///
    /// Reaching this is a bug in the library, not a caller error; it
    /// exists so library code can propagate broken invariants instead of
    /// panicking (workspace rule D001/D002).
    Internal(&'static str),
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelError::EmptyTrainingSet => write!(f, "training set is empty"),
            ModelError::SampleCountMismatch { features, targets } => write!(
                f,
                "sample count mismatch: {features} feature rows vs {targets} targets"
            ),
            ModelError::DimensionMismatch { expected, got } => {
                write!(
                    f,
                    "input dimension mismatch: expected {expected}, got {got}"
                )
            }
            ModelError::Numeric(e) => write!(f, "numeric failure: {e}"),
            ModelError::NonFinite { context } => {
                write!(f, "fit produced non-finite parameters: {context}")
            }
            ModelError::Internal(what) => write!(f, "internal invariant violated: {what}"),
        }
    }
}

impl Error for ModelError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ModelError::Numeric(e) => Some(e),
            _ => None,
        }
    }
}

impl From<NumericError> for ModelError {
    fn from(e: NumericError) -> Self {
        ModelError::Numeric(e)
    }
}
