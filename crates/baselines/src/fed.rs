//! FED-FP's unit tests and its Fig. 1 doc example.
//!
//! Test-only: the module is compiled for unit tests and doc tests, and
//! the item below exists only while rustdoc collects doc tests, so the
//! library keeps [`crate::Baseline`] as its one protocol type.

/// [`Baseline::FedFp`](crate::Baseline::FedFp) (`FED-FP`) accepts the
/// paper's Fig. 1 system on four processors through Algorithm 1.
///
/// ```
/// use dpcp_baselines::Baseline;
/// use dpcp_core::{AnalysisConfig, AnalysisSession, ResourceHeuristic};
/// use dpcp_model::{fig1, Platform};
///
/// let tasks = fig1::task_set()?;
/// let platform = Platform::new(4)?;
/// let mut session = AnalysisSession::new(AnalysisConfig::ep());
/// let outcome = session.partition_with(
///     &tasks,
///     &platform,
///     ResourceHeuristic::WorstFitDecreasing,
///     &Baseline::FedFp,
/// );
/// assert!(outcome.is_schedulable());
/// # Ok::<(), dpcp_model::ModelError>(())
/// ```
#[cfg(doctest)]
pub struct FedFp;

#[cfg(test)]
mod tests;
