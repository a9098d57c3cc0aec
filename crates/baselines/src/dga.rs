//! DGA: a dependency-graph-style serialization bound, reader-writer aware.
//!
//! Dependency-graph approaches (Chen et al.) treat each resource's
//! critical sections as a single serialized sub-schedule: every job's
//! requests are ordered against the *full* critical-section supply of the
//! resource within its window, rather than against a per-request FIFO
//! queue. This surrogate keeps that shape analytically: per resource the
//! blocking is the whole windowed remote demand plus the job's own queued
//! sections — the windowed *cap* of the FIFO analyses, taken without the
//! per-request `min`. It is therefore never smaller than the LPP/MPCP-SA
//! blocking term (coarser, but sound wherever they are), and it prices
//! reads and writes at their own lengths.

use dpcp_core::analysis::request::fixed_point;
use dpcp_core::analysis::{DelayBreakdown, EvalScratch, SchedulabilityReport, TaskBound};
use dpcp_core::partition::PartitionOutcome;
use dpcp_core::{AnalysisSession, Placement, ProtocolAnalysis, ResourceHeuristic, SchedAnalyzer};
use dpcp_model::{Partition, Platform, TaskId, TaskSet, Time};

use crate::common::{max_mode_len, windowed_remote_demand, ResponseBounds};

/// Configuration for the DGA analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DgaConfig {
    /// Iteration budget for the response-time recurrence.
    pub max_fixpoint_iterations: usize,
}

impl Default for DgaConfig {
    fn default() -> Self {
        DgaConfig {
            max_fixpoint_iterations: 512,
        }
    }
}

/// The DGA analyzer (implements [`SchedAnalyzer`]).
///
/// # Examples
///
/// ```
/// use dpcp_baselines::Dga;
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
///     &Dga::new(),
/// );
/// assert!(outcome.is_schedulable());
/// # Ok::<(), dpcp_model::ModelError>(())
/// ```
#[derive(Debug, Default, Clone, Copy)]
pub struct Dga {
    cfg: DgaConfig,
}

impl Dga {
    /// Creates the analyzer with default configuration.
    pub fn new() -> Self {
        Dga::default()
    }

    /// Creates the analyzer with an explicit configuration.
    pub fn with_config(cfg: DgaConfig) -> Self {
        Dga { cfg }
    }
}

/// The serialized per-resource blocking at window `r`:
/// `Σ_q windowed_remote_q(r) + (N_{i,q} − 1) · L^max_{i,q}`.
fn serialized_blocking(tasks: &TaskSet, resp: &ResponseBounds, i: TaskId, r: Time) -> Time {
    let me = tasks.task(i);
    let mut total = Time::ZERO;
    for q in me.resources() {
        let n = u64::from(me.total_requests(q));
        if n == 0 {
            continue;
        }
        let remote = windowed_remote_demand(tasks, resp, i, q, r);
        let own = max_mode_len(me, q).saturating_mul(n - 1);
        total = total.saturating_add(remote).saturating_add(own);
    }
    total
}

impl SchedAnalyzer for Dga {
    fn placement(&self) -> Placement {
        Placement::LocalExecution
    }

    fn analyze(
        &self,
        tasks: &TaskSet,
        partition: &Partition,
        _: &mut EvalScratch,
    ) -> SchedulabilityReport {
        let mut resp = ResponseBounds::new(tasks);
        let mut bounds: Vec<Option<TaskBound>> = vec![None; tasks.len()];
        let mut all_ok = true;
        for i in tasks.by_decreasing_priority() {
            let me = tasks.task(i);
            let lstar = me.longest_path_len();
            let off_path = me.wcet().saturating_sub(lstar);
            let m_i = (partition.cluster_size(i) as u64).max(1);
            let wcrt = fixed_point(
                lstar,
                me.deadline(),
                self.cfg.max_fixpoint_iterations,
                |r| {
                    lstar
                        .saturating_add(serialized_blocking(tasks, &resp, i, r))
                        .saturating_add(off_path.div_ceil(m_i))
                },
            );
            let ok = wcrt.is_some_and(|w| w <= me.deadline());
            if let Some(w) = wcrt {
                resp.set(i, w, me.deadline());
            }
            all_ok &= ok;
            bounds[i.index()] = Some(TaskBound {
                task: i,
                wcrt,
                schedulable: ok,
                breakdown: wcrt.map(|_| DelayBreakdown {
                    path_len: lstar,
                    intra_task_interference: off_path,
                    ..DelayBreakdown::default()
                }),
                signatures_evaluated: 1,
                truncated: false,
            });
        }
        SchedulabilityReport {
            task_bounds: bounds.into_iter().map(Option::unwrap).collect(),
            schedulable: all_ok,
            truncated: false,
        }
    }
}

/// DGA as a registry protocol: the generic Algorithm 1 loop with the
/// session's scratch (which this analysis ignores — it keeps no per-task
/// evaluation state).
impl ProtocolAnalysis for Dga {
    fn name(&self) -> &str {
        "DGA"
    }

    fn tag(&self) -> char {
        'G'
    }

    fn description(&self) -> &str {
        "dependency-graph-style serialized demand bound (reader-writer aware)"
    }

    fn supports_rw(&self) -> bool {
        true
    }

    fn evaluate(
        &self,
        session: &mut AnalysisSession,
        tasks: &TaskSet,
        platform: &Platform,
        heuristic: ResourceHeuristic,
    ) -> PartitionOutcome {
        session.partition_with(tasks, platform, heuristic, self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mpcp::rw_fixture;
    use crate::Mpcp;
    use dpcp_model::fig1;

    #[test]
    fn hand_computed_rw_bound() {
        // τ0 in the shared fixture: serialized blocking is the full
        // windowed supply η_1 · 280 µs with η_1 = 2, i.e. 560 µs — the
        // FIFO cap without the per-request min — so r = 2 ms + 560 µs.
        let (partition, tasks) = rw_fixture();
        let report = Dga::new().analyze(&tasks, &partition, &mut EvalScratch::new());
        assert_eq!(report.task_bounds[0].wcrt, Some(Time::from_us(2_560)));
    }

    #[test]
    fn dominates_suspension_aware_mpcp() {
        for (partition, tasks) in [rw_fixture(), {
            let (_, p, t) = fig1::platform_and_partition().unwrap();
            (p, t)
        }] {
            let dga = Dga::new().analyze(&tasks, &partition, &mut EvalScratch::new());
            let sa = Mpcp::suspension_aware().analyze(&tasks, &partition, &mut EvalScratch::new());
            for (d, m) in dga.task_bounds.iter().zip(&sa.task_bounds) {
                assert!(d.wcrt.unwrap() >= m.wcrt.unwrap());
            }
        }
    }

    #[test]
    fn name_tag_and_rw_support() {
        let d = Dga::new();
        assert_eq!(ProtocolAnalysis::name(&d), "DGA");
        assert_eq!(ProtocolAnalysis::tag(&d), 'G');
        assert!(ProtocolAnalysis::supports_rw(&d));
        assert_eq!(d.placement(), Placement::LocalExecution);
    }
}
