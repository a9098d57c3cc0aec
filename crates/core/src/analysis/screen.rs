//! A placement-free lower bound on Theorem 1: a necessary condition for
//! *any* placement to be schedulable, which lets the placement search
//! ([`PlacementSearch`](crate::partition::PlacementSearch)) skip its probe
//! loop on sets no placement can save.
//!
//! # The bound
//!
//! For each task `τ_i`, [`infeasible_under_every_placement`] evaluates
//! Theorem 1 on the longest path `λ*` (`L(λ*) = L*_i`) with every
//! placement-dependent term replaced by a lower bound that holds for every
//! placement of the federated move space: clusters of `m_i ≥ 1`
//! processors with `Σ m_i ≤ m`, every global resource homed on some
//! processor. Write `R^lb_j = L*_j` for `π_j ≥ π_i` and `R^lb_j = D_j` for
//! `π_j < π_i`, and `η^lb_j(t) = ⌈(t + R^lb_j)/T_j⌉`. For each global
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
//! The lower recurrence is then
//!
//! `r = L*_i + Σ_q min(ε^lb_q, ζ^lb_q(r)) + b^lb + ⌈I^intra / (m − n + 1)⌉`,
//!
//! with `b^lb = Σ_{q ∈ Φ_i : n_q > 0} (N_{i,q} − n_q)·L_{i,q}` (Eq. 6 and
//! the off-path term Eq. 7 charges for `λ*`'s own resources) and
//! `I^intra` Lemma 5's value for `λ*`, which depends on the task alone.
//! If this orbit — or a `W^lb_q` orbit — exceeds `D_i`, the function
//! names `τ_i`.
//!
//! # Soundness
//!
//! **Claim.** If the function names `τ_i` for `m` processors, then under
//! every placement `P` of the move space `AnalysisSession::analyze`
//! reports `τ_i` unschedulable — under `DPCP-p-EP` (at any caps) and
//! under `DPCP-p-EN`, at any iteration budget — provided every task has
//! `L*_j ≤ D_j`. Every set the search screens does (it returns
//! the seed outcome first when `initial_processors` finds a task with
//! `L*_j ≥ D_j`), and a set that breaks it fails under every placement
//! anyway: that task's recurrence starts above its deadline.
//!
//! **Orbit comparison.** Let `f ≤ g` pointwise with `f` non-decreasing,
//! and iterate both from the same start. By induction `x_k ≤ y_k`:
//! `x_{k+1} = f(x_k) ≤ f(y_k) ≤ g(y_k) = y_{k+1}`. If `g`'s orbit reaches
//! a fixed point `y* ≤ D`, it stays there, so every `x_k ≤ y* ≤ D`. Hence
//! when `f`'s orbit exceeds `D`, `g` has no fixed point at or below `D`,
//! whatever `g`'s budget. An `f` orbit that merely exhausts its budget
//! gives no such inequality, so it screens nothing.
//!
//! **Proof.** Fix `P` and look at the moment `τ_i` is analysed
//! (decreasing priority order).
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
//!    - `I^intra_i` is placement-free, `I^A_i ≥ 0`, and `m_i ≤ m − n + 1`
//!      because every other task keeps at least one processor.
//! 3. *Recurrence.* Theorem 1's right-hand side for `λ*` under `P`
//!    dominates the lower one pointwise, and both start at `L*_i`. By
//!    orbit comparison, `λ*`'s recurrence has no fixed point at or below
//!    `D_i`.
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
//! write-only requests. Any other set is never named.

use dpcp_model::{eta_jobs, DagTask, PathSignature, ResourceId, TaskId, TaskSet, Time};

use super::request::{orbit, Unsolved};

/// The first task (in identifier order) whose placement-free lower bound
/// on Theorem 1 exceeds its deadline on `processors` processors, or
/// `None` when no task can be proven infeasible this way. The module docs
/// define the bound and prove that a named task fails under every
/// placement with clusters of `m_i ≥ 1` processors summing to at most
/// `processors`.
///
/// `max_iters` bounds every lower orbit; an orbit that runs out of
/// iterations proves nothing, so it never names a task. Sets containing a
/// light task or a read request are never named.
pub fn infeasible_under_every_placement(
    tasks: &TaskSet,
    processors: usize,
    max_iters: usize,
) -> Option<TaskId> {
    if tasks.has_reads() || tasks.iter().any(|t| !t.is_heavy()) {
        return None;
    }
    let widest = processors.saturating_sub(tasks.len()).saturating_add(1) as u64;
    tasks
        .iter()
        .map(DagTask::id)
        .find(|&i| lower_orbit_exceeds(tasks, i, widest, max_iters))
}

/// Whether a `W^lb` orbit or the lower Theorem 1 orbit of `τ_i`'s longest
/// path exceeds `D_i` when no cluster is wider than `widest`.
fn lower_orbit_exceeds(tasks: &TaskSet, i: TaskId, widest: u64, max_iters: usize) -> bool {
    let task = tasks.task(i);
    let deadline = task.deadline();
    let pi = task.priority();
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
    let interference = intra.div_ceil(widest);

    // `Σ_j η^lb_j(t)·N_{j,q}·L_{j,q}` over the other users of `ℓ_q`, or
    // over the higher-priority ones only.
    let demand = |q: ResourceId, t: Time, higher_only: bool| -> Time {
        tasks
            .users_of(q)
            .iter()
            .map(|&j| tasks.task(j))
            .filter(|other| other.id() != i && (!higher_only || other.priority() > pi))
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
    };

    // ε^lb_q per global resource on λ*.
    let mut eps: Vec<(ResourceId, Time)> = Vec::new();
    for &(q, on_path) in path.requests() {
        if on_path == 0 || !tasks.is_global(q) {
            continue;
        }
        let own = task.cs_length(q).unwrap_or(Time::ZERO);
        let beta = tasks
            .users_of(q)
            .iter()
            .map(|&j| tasks.task(j))
            .filter(|other| other.priority() < pi)
            .filter_map(|other| other.cs_length(q))
            .max()
            .unwrap_or(Time::ZERO);
        let base = own
            .saturating_mul(u64::from(task.total_requests(q).saturating_sub(on_path)) + 1)
            .saturating_add(beta);
        let w = match orbit(base, deadline, max_iters, |w| {
            base.saturating_add(demand(q, w, true))
        }) {
            Ok(w) => w,
            Err(Unsolved::Exceeded) => return true,
            Err(Unsolved::Exhausted) => return false,
        };
        let per_request = beta.saturating_add(demand(q, w, true));
        eps.push((q, per_request.saturating_mul(u64::from(on_path))));
    }

    let len = path.len();
    let rhs = |r: Time| {
        let blocking: Time = eps.iter().map(|&(q, e)| e.min(demand(q, r, false))).sum();
        len.saturating_add(blocking)
            .saturating_add(b_lb)
            .saturating_add(interference)
    };
    orbit(len, deadline, max_iters, rhs) == Err(Unsolved::Exceeded)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::AnalysisConfig;
    use crate::session::AnalysisSession;
    use dpcp_model::{fig1, Dag, Partition, Platform, ProcessorId, RequestSpec, VertexSpec};

    /// Two heavy tasks hammering one global resource: `count` requests of
    /// `cs` each per job, all on the 12 ms vertex that is the longest
    /// path, beside three parallel 10 ms vertices; `D = T = 20 ms`.
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

    #[test]
    fn light_contention_names_no_task() {
        let tasks = contended(2, Time::from_us(100));
        assert_eq!(infeasible_under_every_placement(&tasks, 8, 512), None);
    }

    #[test]
    fn saturated_resource_names_a_task_that_every_placement_fails() {
        // 80 requests of 100 µs: 8 ms of critical sections per job, which
        // the other task's jobs must wait out on a 20 ms deadline.
        let tasks = contended(80, Time::from_us(100));
        let named = infeasible_under_every_placement(&tasks, 8, 512).expect("screened");
        let platform = Platform::new(8).unwrap();
        let p = ProcessorId::new;
        for (split, home) in [(1, 0), (4, 0), (4, 5), (7, 7)] {
            let clusters = vec![(0..split).map(p).collect(), (split..8).map(p).collect()];
            let homes = [(ResourceId::new(0), p(home))].into_iter().collect();
            let partition = Partition::new(&tasks, &platform, clusters, homes).unwrap();
            for cfg in [AnalysisConfig::ep(), AnalysisConfig::en()] {
                let report = AnalysisSession::new(cfg).analyze(&tasks, &partition);
                assert!(!report.bound(named).schedulable, "split {split}");
            }
        }
    }

    #[test]
    fn exhausted_orbits_name_no_task() {
        let tasks = contended(80, Time::from_us(100));
        assert_eq!(infeasible_under_every_placement(&tasks, 8, 0), None);
    }

    #[test]
    fn light_containing_sets_are_never_named() {
        let tasks = fig1::task_set().unwrap();
        assert!(tasks.iter().any(|t| !t.is_heavy()));
        assert_eq!(infeasible_under_every_placement(&tasks, 2, 512), None);
    }
}
