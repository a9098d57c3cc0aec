//! A placement-free lower bound on Theorem 1: per task, the narrowest
//! cluster any schedulable placement can give it, which lets the placement
//! search ([`PlacementSearch`](crate::partition::PlacementSearch)) skip its
//! probe loop on sets no placement can save.
//!
//! # The bound
//!
//! For each task `τ_i` and cluster width `w`, the screen evaluates
//! Theorem 1 on the longest path `λ*` (`L(λ*) = L*_i`) with every
//! placement-dependent term except the width replaced by a lower bound
//! that holds for every placement of the federated move space: clusters of
//! `m_i ≥ 1` processors with `Σ m_i ≤ m`, every global resource homed on
//! some processor. Write `R^lb_j = L*_j` for `π_j ≥ π_i` and `R^lb_j = D_j`
//! for `π_j < π_i`, and `η^lb_j(t) = ⌈(t + R^lb_j)/T_j⌉`. For each global
//! `ℓ_q` with `n_q = N^{λ*}_{i,q} > 0`:
//!
//! - **request bound:** `W^lb_q` is the least fixed point of Lemma 2 with
//!   `Φ^℘(ℓ_q) = {ℓ_q}`:
//!   `W = L_{i,q} + (N_{i,q} − n_q)·L_{i,q} + β^lb_q + γ^lb_q(W)`, where
//!   `β^lb_q` is the longest critical section of a lower-priority user of
//!   `ℓ_q` and `γ^lb_q(t) = Σ_{π_h > π_i} η^lb_h(t)·N_{h,q}·L_{h,q}`;
//! - **blocking budget:** `ε^lb_q = (β^lb_q + γ^lb_q(W^lb_q))·n_q`;
//! - **competing demand:** `ζ^lb_q(r) = Σ_{j ≠ i} η^lb_j(r)·N_{j,q}·L_{j,q}`.
//!
//! The lower recurrence at width `w` is then
//!
//! `r = L*_i + Σ_q min(ε^lb_q, ζ^lb_q(r)) + b^lb + ⌈I^intra / w⌉`,
//!
//! with `b^lb = Σ_{q ∈ Φ_i : n_q > 0} (N_{i,q} − n_q)·L_{i,q}` (Eq. 6 and
//! the off-path term Eq. 7 charges for `λ*`'s own resources) and
//! `I^intra` Lemma 5's value for `λ*`, which depends on the task alone.
//! Only the last term depends on `w`. [`cluster_width_floors`] returns,
//! per task, its **width floor** `w_i`: the narrowest
//! `w ∈ [1, m − n + 1]` at which neither a `W^lb_q` orbit nor this orbit
//! exceeds `D_i`. It names instead the first task (in identifier order)
//! that exceeds even at `m − n + 1`, the widest cluster any task can get
//! while every other task keeps one processor.
//!
//! # Monotonicity and bisection
//!
//! For `w' < w`, `⌈I^intra/w'⌉ ≥ ⌈I^intra/w⌉`, so the right-hand side at
//! `w'` dominates the one at `w` pointwise, and both orbits start at
//! `L*_i`. By the orbit comparison below, an orbit that exceeds `D_i` at
//! `w` exceeds it at `w'` within the same iteration budget. The widths at
//! which the orbit exceeds therefore form a prefix `1, …, w_i − 1` of
//! `[1, m − n + 1]`, and bisection finds its end in `O(log m)` orbits. An
//! orbit that runs out of iterations counts as not exceeding; a `W^lb_q`
//! orbit that does gives `w_i = 1`. Both only weaken the screen.
//!
//! # Soundness
//!
//! **Floor lemma.** Let `P` be a placement of the move space that gives
//! `τ_i` a cluster of `m_i` processors. If the screen names `τ_i`, or
//! returns `m_i < w_i`, then `AnalysisSession::analyze` reports `τ_i`
//! unschedulable under `P` — under `DPCP-p-EP` (at any caps) and under
//! `DPCP-p-EN`, at any iteration budget — provided every task has
//! `L*_j ≤ D_j`. Every set the search screens does (it returns the seed
//! outcome first when `initial_processors` finds a task with
//! `L*_j ≥ D_j`), and a set that breaks it fails under every placement
//! anyway: that task's recurrence starts above its deadline.
//!
//! **Joint claim.** A placement that passes every task therefore has
//! `m_i ≥ w_i` for each task, so `Σ w_i ≤ Σ m_i ≤ m`. When the screen
//! names a task, or `Σ w_i > m`, no placement of the move space passes
//! every task.
//!
//! **Orbit comparison.** Let `f ≤ g` pointwise with `f` non-decreasing,
//! and iterate both from the same start. By induction `x_k ≤ y_k`:
//! `x_{k+1} = f(x_k) ≤ f(y_k) ≤ g(y_k) = y_{k+1}`. If `g`'s orbit reaches
//! a fixed point `y* ≤ D`, it stays there, so every `x_k ≤ y* ≤ D`. Hence
//! when `f`'s orbit exceeds `D` at step `k`, `g` has no fixed point at or
//! below `D`, whatever `g`'s budget, and `g`'s own orbit exceeds `D` by
//! step `k`. An `f` orbit that merely exhausts its budget gives no such
//! inequality, so it screens nothing.
//!
//! **Proof of the floor lemma.** Fix `P` and look at the moment `τ_i` is
//! analysed (decreasing priority order).
//!
//! 1. *Response bounds.* A task analysed earlier either converged to
//!    `R_j = w_j`, where `w_j ≥ L*_j` because every orbit starts at its
//!    path length and the task bound covers `λ*_j` (step 4), or kept
//!    `R_j = D_j ≥ L*_j`. A task analysed later holds `R_j = D_j`, and
//!    that includes every `π_j < π_i`. So `R_j ≥ R^lb_j` for all `j`, and
//!    `η_j ≥ η^lb_j`, since `η` grows with `R`.
//! 2. *Terms.* For `λ*` under `P`, each term dominates its lower bound:
//!    - Lemma 2's base adds the off-path requests to every resource
//!      co-located with `ℓ_q`, not just to `ℓ_q`. `β` maximises over those
//!      resources' lower-priority users whose ceiling reaches `π_i`, and
//!      `ℓ_q`'s ceiling does, since `τ_i` uses it. `γ` charges each
//!      higher-priority task `η_h·cs_demand_on(h, home(ℓ_q)) ≥
//!      η^lb_h·N_{h,q}·L_{h,q}`. By orbit comparison, if `W^lb_q` exceeds
//!      `D_i` then so does `W_{i,q}`, and the analysis fails `τ_i`.
//!      Otherwise `W_{i,q} ≥ W^lb_q`, so `β + γ(W) ≥ β^lb_q + γ^lb_q(W^lb_q)`.
//!    - Eq. 4–5 on `ℓ_q`'s home `℘_k` sum over the requested resources
//!      hosted there: `ε^k ≥ Σ_q ε^lb_q` and `ζ^k(r) ≥ Σ_q ζ^lb_q(r)`.
//!      Because `min(Σ a_q, Σ b_q) ≥ Σ min(a_q, b_q)` (min is superadditive
//!      over the resources one processor hosts), `B_i(r) ≥ Σ_q min(ε^lb_q,
//!      ζ^lb_q(r))`.
//!    - Eq. 6 does not depend on `P`. In Eq. 7, `σ_{i,k} = 1` on the home
//!      of every global `λ*` requests, and that processor's sum includes
//!      the resource's own off-path term. So `b_i ≥ b^lb`.
//!    - `I^intra_i` is placement-free and `I^A_i ≥ 0`, so the analysis's
//!      `⌈(I^intra_i + I^A_i)/m_i⌉` (`analysis::wcrt`) dominates
//!      `⌈I^intra_i/m_i⌉`, the lower term at width `m_i`.
//! 3. *Recurrence.* Theorem 1's right-hand side for `λ*` under `P`
//!    dominates the lower one at width `m_i` pointwise, and both start at
//!    `L*_i`. The lower orbit at `m_i` exceeds `D_i`: for a named task
//!    because it exceeds at `m − n + 1 ≥ m_i` (every other task keeps at
//!    least one processor) and by monotonicity, and for `m_i < w_i`
//!    because every width below `w_i` exceeds. By orbit comparison,
//!    `λ*`'s recurrence has no fixed point at or below `D_i`.
//! 4. *The analysed bound covers `λ*`.*
//!    - **EP.** Without truncation, `λ*`'s signature is among those the
//!      kernel solves. Dominance pruning compares only signatures with the
//!      identical request vector, and within one vector it keeps the
//!      longest. No path is longer than `λ*`, and within a vector the
//!      critical content is fixed, so `λ*`'s signature survives. The kernel
//!      fails the task as soon as any one signature's orbit fails, and the
//!      reference sweep's `?` does the same.
//!    - **EN, and EP's truncated fallback.** The virtual path has length
//!      `L*_i`. It charges `N_{i,q} ≥ n_q` requests with
//!      Lemma 2 counts `N^λ_{i,q} = 1 ≤ n_q` (so off-path terms no
//!      smaller), `b^EN ≥ b_i(λ)`, `I^EN ≥ I^intra_i(λ)` and
//!      `I^A_EN ≥ I^A(λ)`. It therefore dominates every signature
//!      pointwise (`en_dominates_every_single_signature`), `λ*`'s
//!      included, and by orbit comparison it fails too.
//!
//! So `τ_i` fails under `P`. ∎
//!
//! The bound covers only the model the proof speaks about: heavy tasks
//! under federated clusters (light tasks share Sec. VI pools), and
//! write-only requests. Any other set gets every floor 1, which every
//! placement meets, and no task is named.

use dpcp_model::{eta_jobs, DagTask, PathSignature, ResourceId, TaskId, TaskSet, Time};

use super::request::{orbit, Unsolved};

/// Each task's width floor on `processors` processors, in identifier
/// order: the narrowest cluster width `w_i ∈ [1, m − n + 1]` at which its
/// placement-free lower bound on Theorem 1 does not exceed its deadline.
/// `Err` names the first task (in identifier order) that exceeds even at
/// `m − n + 1`. The module docs define the bound and prove that under
/// any placement with clusters of `m_i ≥ 1` processors summing to at most
/// `processors`, a named task fails, and so does every task with
/// `m_i < w_i`; a set that is named or has `Σ w_i > processors` therefore
/// has no schedulable placement.
///
/// `max_iters` bounds every lower orbit; an orbit that runs out of
/// iterations proves nothing, so it never raises a floor or names a task.
/// Sets containing a light task or a read request get every floor 1.
pub fn cluster_width_floors(
    tasks: &TaskSet,
    processors: usize,
    max_iters: usize,
) -> Result<Vec<usize>, TaskId> {
    if tasks.has_reads() || tasks.iter().any(|t| !t.is_heavy()) {
        return Ok(vec![1; tasks.len()]);
    }
    let widest = processors.saturating_sub(tasks.len()).saturating_add(1);
    // Every task is checked on the widest cluster before any floor is
    // bisected, so a named set costs what the per-task check costs.
    let lowers = tasks
        .iter()
        .map(|task| {
            let i = task.id();
            match LowerOrbit::new(tasks, i, max_iters) {
                Ok(lower) if lower.exceeds(widest) => Err(i),
                Ok(lower) => Ok(Some(lower)),
                Err(Unsolved::Exceeded) => Err(i),
                Err(Unsolved::Exhausted) => Ok(None),
            }
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(lowers
        .iter()
        .map(|lower| lower.as_ref().map_or(1, |lower| lower.floor(widest)))
        .collect())
}

/// The width-independent part of `τ_i`'s lower recurrence on `λ*`.
struct LowerOrbit<'a> {
    tasks: &'a TaskSet,
    task: &'a DagTask,
    max_iters: usize,
    /// `L*_i`.
    len: Time,
    /// `b^lb`.
    b_lb: Time,
    /// `I^intra` for `λ*`.
    intra: Time,
    /// `ε^lb_q` per global resource on `λ*`.
    eps: Vec<(ResourceId, Time)>,
}

impl<'a> LowerOrbit<'a> {
    /// Solves every `W^lb_q` orbit of `τ_i`, or reports the first that
    /// finds no fixed point at or below `D_i`.
    fn new(tasks: &'a TaskSet, i: TaskId, max_iters: usize) -> Result<Self, Unsolved> {
        let task = tasks.task(i);
        let path = PathSignature::from_path(task, task.longest_path());

        // Eq. 6, Eq. 7 on λ*'s own resources, and Lemma 5's local term.
        let mut b_lb = Time::ZERO;
        let mut local_off_path = Time::ZERO;
        for q in task.resources() {
            let n = task.total_requests(q);
            let on_path = path.request_count(q).min(n);
            let off_path = task
                .cs_length(q)
                .unwrap_or(Time::ZERO)
                .saturating_mul(u64::from(n - on_path));
            if on_path > 0 {
                b_lb = b_lb.saturating_add(off_path);
            }
            if !tasks.is_global(q) {
                local_off_path = local_off_path.saturating_add(off_path);
            }
        }
        let intra = task
            .noncritical_wcet()
            .saturating_sub(path.noncritical_len())
            .saturating_add(local_off_path);

        let mut lower = LowerOrbit {
            tasks,
            task,
            max_iters,
            len: path.len(),
            b_lb,
            intra,
            eps: Vec::new(),
        };
        for &(q, on_path) in path.requests() {
            if on_path == 0 || !tasks.is_global(q) {
                continue;
            }
            let own = task.cs_length(q).unwrap_or(Time::ZERO);
            let beta = tasks
                .users_of(q)
                .iter()
                .map(|&j| tasks.task(j))
                .filter(|other| other.priority() < task.priority())
                .filter_map(|other| other.cs_length(q))
                .max()
                .unwrap_or(Time::ZERO);
            let base = own
                .saturating_mul(u64::from(task.total_requests(q).saturating_sub(on_path)) + 1)
                .saturating_add(beta);
            let w = orbit(base, task.deadline(), max_iters, |w| {
                base.saturating_add(lower.demand(q, w, true))
            })?;
            let per_request = beta.saturating_add(lower.demand(q, w, true));
            lower
                .eps
                .push((q, per_request.saturating_mul(u64::from(on_path))));
        }
        Ok(lower)
    }

    /// `Σ_j η^lb_j(t)·N_{j,q}·L_{j,q}` over the other users of `ℓ_q`, or
    /// over the higher-priority ones only.
    fn demand(&self, q: ResourceId, t: Time, higher_only: bool) -> Time {
        let pi = self.task.priority();
        self.tasks
            .users_of(q)
            .iter()
            .map(|&j| self.tasks.task(j))
            .filter(|other| other.id() != self.task.id() && (!higher_only || other.priority() > pi))
            .map(|other| {
                let resp = if other.priority() >= pi {
                    other.longest_path_len()
                } else {
                    other.deadline()
                };
                let jobs = eta_jobs(t, resp, other.period());
                other.cs_demand(q).saturating_mul(jobs)
            })
            .sum()
    }

    /// The narrowest width in `[1, widest]` at which the lower orbit does
    /// not exceed `D_i`, given that it does not at `widest`. The exceeding
    /// widths are a prefix of `1..widest` (module docs): `hi` never
    /// exceeds, and every width below `lo` does.
    fn floor(&self, widest: usize) -> usize {
        let (mut lo, mut hi) = (1, widest);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if self.exceeds(mid) {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        hi
    }

    /// Whether the lower Theorem 1 orbit exceeds `D_i` at cluster width
    /// `width`.
    fn exceeds(&self, width: usize) -> bool {
        let interference = self.intra.div_ceil(width as u64);
        let rhs = |r: Time| {
            let blocking: Time = self
                .eps
                .iter()
                .map(|&(q, e)| e.min(self.demand(q, r, false)))
                .sum();
            self.len
                .saturating_add(blocking)
                .saturating_add(self.b_lb)
                .saturating_add(interference)
        };
        orbit(self.len, self.task.deadline(), self.max_iters, rhs) == Err(Unsolved::Exceeded)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::AnalysisConfig;
    use crate::partition::{PlacementSearch, ResourceHeuristic, SearchConfig};
    use crate::registry::DpcpProtocol;
    use crate::session::AnalysisSession;
    use dpcp_model::{
        fig1, initial_processors, Dag, Partition, Platform, ProcessorId, RequestSpec, VertexSpec,
    };

    /// Two heavy tasks hammering one global resource: `count` requests of
    /// `cs` each per job, all on the 12 ms vertex that is the longest
    /// path, beside three parallel 10 ms vertices; `D = T = 20 ms`, so
    /// each task starts at `⌈30/8⌉ = 4` processors.
    fn contended(count: u32, cs: Time) -> TaskSet {
        let rid = ResourceId::new(0);
        let mk = |id: usize| {
            DagTask::builder(TaskId::new(id), Time::from_ms(20))
                .dag(Dag::new(4, []).unwrap())
                .vertex(VertexSpec::with_requests(
                    Time::from_ms(12),
                    [RequestSpec::new(rid, count)],
                ))
                .vertex(VertexSpec::new(Time::from_ms(10)))
                .vertex(VertexSpec::new(Time::from_ms(10)))
                .vertex(VertexSpec::new(Time::from_ms(10)))
                .critical_section(rid, cs)
                .build()
                .unwrap()
        };
        TaskSet::new(vec![mk(0), mk(1)], 1).unwrap()
    }

    /// Every placement of `tasks` on 8 processors with clusters of
    /// `(a, b)` processors and the resource homed on each processor.
    fn placements(tasks: &TaskSet, sizes: (usize, usize)) -> Vec<Partition> {
        let platform = Platform::new(8).unwrap();
        let p = ProcessorId::new;
        let (a, b) = sizes;
        (0..a + b)
            .map(|home| {
                let clusters = vec![(0..a).map(p).collect(), (a..a + b).map(p).collect()];
                let homes = [(ResourceId::new(0), p(home))].into_iter().collect();
                Partition::new(tasks, &platform, clusters, homes).unwrap()
            })
            .collect()
    }

    #[test]
    fn light_contention_names_no_task() {
        // 0.2 and 0.4 ms of blocking: ⌈30/4⌉ = 7.5 ms fits, ⌈30/3⌉ does not.
        let tasks = contended(2, Time::from_us(100));
        assert_eq!(cluster_width_floors(&tasks, 8, 512), Ok(vec![4, 4]));
    }

    #[test]
    fn saturated_resource_names_a_task_that_every_placement_fails() {
        // 80 requests of 100 µs: 8 ms of critical sections per job, which
        // the other task's jobs must wait out on a 20 ms deadline.
        let tasks = contended(80, Time::from_us(100));
        let named = cluster_width_floors(&tasks, 8, 512).expect_err("screened");
        for (split, home) in [(1, 0), (4, 0), (4, 5), (7, 7)] {
            let partition = &placements(&tasks, (split, 8 - split))[home];
            for cfg in [AnalysisConfig::ep(), AnalysisConfig::en()] {
                let report = AnalysisSession::new(cfg).analyze(&tasks, partition);
                assert!(!report.bound(named).schedulable, "split {split}");
            }
        }
    }

    #[test]
    fn floors_that_cannot_fit_together_skip_the_probe_loop() {
        // 12 requests of 100 µs per job. Each task's initial size is 4, so
        // the pair fills 8 processors exactly, and each alone passes the
        // lower bound on the widest cluster (7). But the higher-priority
        // task is blocked 1.2 ms and needs ⌈30/w⌉ ≤ 6.8 ms (w ≥ 5), and
        // the lower-priority one is blocked 2.4 ms and needs w ≥ 6.
        let tasks = contended(12, Time::from_us(100));
        let sizes: Vec<usize> = tasks
            .iter()
            .map(|t| initial_processors(t).unwrap())
            .collect();
        assert_eq!(sizes, [4, 4]);
        let floors = cluster_width_floors(&tasks, 8, 512).expect("no task named alone");
        assert_eq!(floors, [5, 6]);

        let platform = Platform::new(8).unwrap();
        let outcome = PlacementSearch::new(SearchConfig::default()).run(
            &mut AnalysisSession::new(AnalysisConfig::ep()),
            &DpcpProtocol::ep(),
            &tasks,
            &platform,
            ResourceHeuristic::WorstFitDecreasing,
        );
        assert!(!outcome.outcome.is_schedulable());
        assert_eq!(outcome.probes, 0, "the search probed a screened set");

        // Every split of the 8 processors, wherever the resource lives,
        // leaves a task narrower than its floor, and that task fails.
        for a in 1..8 {
            for b in 1..=8 - a {
                let narrow: Vec<TaskId> = [a, b]
                    .iter()
                    .zip(&floors)
                    .enumerate()
                    .filter(|(_, (size, floor))| size < floor)
                    .map(|(k, _)| TaskId::new(k))
                    .collect();
                assert!(!narrow.is_empty(), "split ({a}, {b}) meets both floors");
                for partition in placements(&tasks, (a, b)) {
                    for cfg in [AnalysisConfig::ep(), AnalysisConfig::en()] {
                        let report = AnalysisSession::new(cfg).analyze(&tasks, &partition);
                        for &i in &narrow {
                            assert!(
                                !report.bound(i).schedulable,
                                "split ({a}, {b}): {i:?} passes below its floor"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn exhausted_orbits_name_no_task() {
        let tasks = contended(80, Time::from_us(100));
        assert_eq!(cluster_width_floors(&tasks, 8, 0), Ok(vec![1, 1]));
    }

    #[test]
    fn light_containing_sets_are_never_named() {
        let tasks = fig1::task_set().unwrap();
        assert!(tasks.iter().any(|t| !t.is_heavy()));
        assert_eq!(
            cluster_width_floors(&tasks, 2, 512),
            Ok(vec![1; tasks.len()])
        );
    }
}
