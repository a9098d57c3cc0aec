//! DPCP-p: the distributed priority ceiling protocol for parallel
//! real-time tasks — protocol rules, schedulability analysis and
//! partitioning heuristics.
//!
//! This crate is the paper's primary contribution
//! (*DPCP-p: A Distributed Locking Protocol for Parallel Real-Time Tasks*,
//! Yang et al., DAC 2020), organised as:
//!
//! - [`protocol`] — priority ceilings, processor ceilings and the locking
//!   rules of Sec. III, as the simulator drives them;
//! - [`analysis`] — the worst-case response-time analysis of Sec. IV
//!   (Lemmas 2–6, Theorem 1), in both the path-enumerating (`DPCP-p-EP`)
//!   and request-count-enumerating (`DPCP-p-EN`) variants;
//! - [`partition`] — the task/resource partitioning of Sec. V
//!   (Algorithms 1 and 2) plus ablation heuristics;
//! - [`session`] — the unified entry point: an [`AnalysisSession`] owns
//!   the configuration, signature cache and evaluation scratch behind
//!   every analysis and partitioning call;
//! - [`registry`] — locking protocols as named, interchangeable
//!   strategies ([`ProtocolAnalysis`] / [`ProtocolRegistry`]), so
//!   evaluation methods are resolved by name instead of hand-wired
//!   enum arms.
//!
//! # Examples
//!
//! End-to-end schedulability test of the paper's Fig. 1 system:
//!
//! ```
//! use dpcp_core::partition::ResourceHeuristic;
//! use dpcp_core::{AnalysisConfig, AnalysisSession};
//! use dpcp_model::{fig1, Platform};
//!
//! let tasks = fig1::task_set()?;
//! let platform = Platform::new(4)?;
//! let mut session = AnalysisSession::new(AnalysisConfig::ep());
//! let outcome = session.partition_and_analyze(
//!     &tasks,
//!     &platform,
//!     ResourceHeuristic::WorstFitDecreasing,
//! );
//! assert!(outcome.is_schedulable());
//! # Ok::<(), dpcp_model::ModelError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod analysis;
pub mod dto;
pub mod partition;
pub mod protocol;
pub mod registry;
pub mod session;

pub use analysis::{
    AnalysisConfig, AnalysisVariant, DelayBreakdown, SchedulabilityReport, TaskBound,
};
pub use dto::{
    structural_key, AnalysisRequest, AnalysisVerdict, KNOB_CEILINGS, SUPPORTED_SCHEMA_VERSIONS,
};
pub use partition::{
    PartitionOutcome, Placement, PlacementSearch, ResourceHeuristic, SchedAnalyzer, SearchConfig,
    SearchMove, SearchOutcome, UnschedulableReason,
};
pub use protocol::{CeilingTable, ProcessorCeiling};
pub use registry::{
    dpcp_protocols, DpcpProtocol, ProtocolAnalysis, ProtocolRegistry, RegistryError, SearchVariant,
};
pub use session::AnalysisSession;
