//! **dpcp-p** — a reproduction of *DPCP-p: A Distributed Locking Protocol
//! for Parallel Real-Time Tasks* (Yang, Chen, Jiang, Guan, Lei — DAC 2020)
//! as a Rust workspace.
//!
//! This facade crate re-exports the workspace members:
//!
//! - [`model`] — DAG tasks, shared resources, platforms, partitions
//!   (Sec. II),
//! - [`core`] — the DPCP-p protocol, its WCRT analysis and the
//!   partitioning heuristics (Sec. III–V),
//! - [`gen`] — the synthetic workload generator and the 216-scenario
//!   experimental grid (Sec. VII-A),
//! - [`baselines`] — SPIN-SON, LPP and FED-FP (Sec. VII-B) plus the
//!   reader-writer baselines MPCP-SA, MPCP-SO and DGA,
//! - [`sim`] — a discrete-event simulator of the protocol with online
//!   Lemma 1 checking (Sec. III), the differential oracle of the
//!   analysis.
//!
//! # Quickstart
//!
//! Partition, analyse and simulate the paper's Fig. 1 example:
//!
//! ```
//! use dpcp_p::core::partition::{PartitionOutcome, ResourceHeuristic};
//! use dpcp_p::core::{AnalysisConfig, AnalysisSession};
//! use dpcp_p::model::{fig1, Platform};
//! use dpcp_p::sim::{simulate, SimConfig};
//!
//! let tasks = fig1::task_set()?;
//! let platform = Platform::new(4)?;
//! let outcome = AnalysisSession::new(AnalysisConfig::ep()).partition_and_analyze(
//!     &tasks,
//!     &platform,
//!     ResourceHeuristic::WorstFitDecreasing,
//! );
//! let PartitionOutcome::Schedulable { partition, report, .. } = outcome else {
//!     unreachable!("Fig. 1 is schedulable");
//! };
//!
//! // The simulator respects the analysis: observed response times stay
//! // below the proven bounds, and Lemma 1 holds.
//! let result = simulate(&tasks, &partition, &SimConfig::default());
//! assert_eq!(result.lemma1_violations, 0);
//! for (bound, stats) in report.task_bounds.iter().zip(&result.per_task) {
//!     assert!(stats.max_response <= bound.wcrt.unwrap());
//! }
//! # Ok::<(), dpcp_p::model::ModelError>(())
//! ```

#![warn(missing_docs)]

pub use dpcp_baselines as baselines;
pub use dpcp_core as core;
pub use dpcp_gen as gen;
pub use dpcp_model as model;
pub use dpcp_sim as sim;
