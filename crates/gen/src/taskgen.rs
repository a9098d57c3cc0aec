//! The synthetic task-set pipeline of Sec. VII-A.
//!
//! One task set is generated as follows (this generator's reading of
//! Sec. VII-A; the plausibility guards are step 6 and
//! [`TaskGenParams::cs_budget_fraction`]):
//!
//! 1. the number of tasks follows from the chosen `U^avg` and the target
//!    total utilization; per-task utilizations come from
//!    [RandFixedSum](crate::fixed_sum) over `(1, 2·U^avg]`;
//! 2. periods are log-uniform over `[10 ms, 1000 ms]`, `C_i = U_i · T_i`,
//!    implicit deadlines;
//! 3. the DAG is ordered Erdős–Rényi with `|V_i| ∈ [10, 100]`, `p = 0.1`;
//! 4. each resource is used with probability `p_r`; if used,
//!    `N_{i,q} ∈ [1, N^max]` and `L_{i,q}` uniform in the configured range;
//! 5. requests are scattered uniformly over vertices and vertex WCETs are
//!    a random composition of `C_i` that contains each vertex's critical
//!    sections (`C_{i,x} ≥ Σ_q N_{i,x,q} · L_{i,q}`);
//! 6. the plausibility constraint `L*_i < D_i / 2` is enforced by moving
//!    weight off the critical path (re-sampling the whole task when the
//!    structure makes that impossible).

use dpcp_model::{
    AccessMode, Dag, DagTask, ModelError, RequestSpec, ResourceId, TaskId, TaskSet, Time, VertexId,
    VertexSpec,
};
use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::fixed_sum::{rand_fixed_sum, FixedSumError};

/// The DAG-structure axis: which generator shapes a task's graph.
///
/// The paper only evaluates ordered Erdős–Rényi structures; the other
/// shapes open scenario diversity along the parallelism-profile axis
/// (deterministic wiring, so they consume no RNG draws — selecting
/// [`GraphShape::ErdosRenyi`] reproduces the paper's stream bit-for-bit).
#[derive(Debug, Default, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum GraphShape {
    /// Ordered Erdős–Rényi with the configured edge probability (the
    /// paper's generator, the default).
    #[default]
    ErdosRenyi,
    /// Evenly split ranks with full inter-rank wiring (synchronous
    /// stages; merge-friendly for the signature DP).
    Layered {
        /// Number of ranks the sampled vertex count is split into.
        layers: usize,
    },
    /// One fork vertex, parallel middles, one join vertex.
    ForkJoin,
    /// A maximal-depth sequential chain (every vertex on the critical
    /// path — the degenerate shape the fuzz sweeps use to stress
    /// deep-recursion and cap handling). Note a chain task has
    /// `L* = C`, so heavy chains cannot satisfy the generator's
    /// `L* < D/2` constraint; pair this shape with `light_fraction = 1`
    /// or small per-task utilizations.
    Chain,
}

impl GraphShape {
    /// Builds the task DAG for `vertices` vertices.
    pub fn build<R: Rng + ?Sized>(self, vertices: usize, edge_prob: f64, rng: &mut R) -> Dag {
        match self {
            GraphShape::ErdosRenyi => crate::graph_gen::erdos_renyi_dag(vertices, edge_prob, rng),
            GraphShape::Layered { layers } => crate::graph_gen::layered_dag(vertices, layers),
            GraphShape::ForkJoin => crate::graph_gen::fork_join_dag(vertices),
            GraphShape::Chain => crate::graph_gen::chain_dag(vertices),
        }
    }

    /// A short, filesystem-safe tag (scenario labels).
    pub fn tag(self) -> String {
        match self {
            GraphShape::ErdosRenyi => "er".to_string(),
            GraphShape::Layered { layers } => format!("lay{layers}"),
            GraphShape::ForkJoin => "fj".to_string(),
            GraphShape::Chain => "ch".to_string(),
        }
    }
}

/// Parameters of the Sec. VII-A generator.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskGenParams {
    /// Average task utilization `U^avg` (1.5 or 2 in the paper); task
    /// utilizations range over `(1, 2·U^avg]`.
    pub u_avg: f64,
    /// Vertex-count range `|V_i|` (paper: `[10, 100]`).
    pub vertex_range: (usize, usize),
    /// Erdős–Rényi edge probability (paper: 0.1).
    pub edge_prob: f64,
    /// Period range, sampled log-uniformly (paper: `[10 ms, 1000 ms]`).
    pub period_range: (Time, Time),
    /// Probability `p_r` that a task uses each resource.
    pub access_prob: f64,
    /// Maximum request count: `N_{i,q} ∈ [1, max_requests]`.
    pub max_requests: u32,
    /// Critical-section length range for `L_{i,q}`.
    pub cs_range: (Time, Time),
    /// Fraction of `C_i` that critical sections may occupy; request counts
    /// are clamped down to fit (a plausibility guard of this generator).
    pub cs_budget_fraction: f64,
    /// Probability that an individual request is a *read* instead of a
    /// write (reader-writer extension; the paper's model is write-only).
    /// At `0.0` the generator draws no extra randomness, reproducing the
    /// paper's RNG stream bit-for-bit. Resources that draw at least one
    /// read get a read critical-section length of half the write length
    /// (deterministic — no extra draws).
    pub rw_share: f64,
    /// Attempts at generating one task before giving up.
    pub max_task_attempts: usize,
    /// DAG structure generator (paper: ordered Erdős–Rényi).
    pub graph_shape: GraphShape,
}

impl Default for TaskGenParams {
    fn default() -> Self {
        TaskGenParams {
            u_avg: 1.5,
            vertex_range: (10, 100),
            edge_prob: 0.1,
            period_range: (Time::from_ms(10), Time::from_ms(1000)),
            access_prob: 0.5,
            max_requests: 50,
            cs_range: (Time::from_us(50), Time::from_us(100)),
            cs_budget_fraction: 0.5,
            rw_share: 0.0,
            max_task_attempts: 64,
            graph_shape: GraphShape::ErdosRenyi,
        }
    }
}

/// Errors raised by the generator.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum GenError {
    /// Utilization sampling failed.
    FixedSum(FixedSumError),
    /// No valid task emerged after the configured number of attempts
    /// (typically: `L*_i < D_i/2` unattainable for this utilization).
    TaskGenerationFailed {
        /// The task's target utilization.
        utilization: f64,
        /// Attempts made.
        attempts: usize,
    },
    /// Model construction rejected a generated task (indicates a generator
    /// bug; surfaced rather than panicking).
    Model(ModelError),
}

impl core::fmt::Display for GenError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            GenError::FixedSum(e) => write!(f, "utilization sampling failed: {e}"),
            GenError::TaskGenerationFailed {
                utilization,
                attempts,
            } => write!(
                f,
                "no plausible task with utilization {utilization:.3} after {attempts} attempts"
            ),
            GenError::Model(e) => write!(f, "generated task rejected by the model: {e}"),
        }
    }
}

impl std::error::Error for GenError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            GenError::FixedSum(e) => Some(e),
            GenError::Model(e) => Some(e),
            GenError::TaskGenerationFailed { .. } => None,
        }
    }
}

impl From<FixedSumError> for GenError {
    fn from(e: FixedSumError) -> Self {
        GenError::FixedSum(e)
    }
}

impl From<ModelError> for GenError {
    fn from(e: ModelError) -> Self {
        GenError::Model(e)
    }
}

/// Splits a total utilization into per-task utilizations per Sec. VII-A:
/// `n` follows from `U^avg`, each task lands in `(1, 2·U^avg]`.
///
/// # Errors
///
/// Propagates [`FixedSumError`] for degenerate inputs.
pub fn split_utilizations<R: Rng + ?Sized>(
    total: f64,
    u_avg: f64,
    rng: &mut R,
) -> Result<Vec<f64>, GenError> {
    if total <= 1.0 {
        // Degenerate leftmost sweep point: a single (light) task.
        return Ok(vec![total.max(0.05)]);
    }
    let b = 2.0 * u_avg;
    // n from U^avg, then clamped into the feasible band n·1 < total ≤ n·b.
    let mut n = (total / u_avg).round() as usize;
    n = n.max((total / b).ceil() as usize).max(1);
    n = n.min(total.floor() as usize).max(1);
    let xs = rand_fixed_sum(n, total, 1.0, b, rng)?;
    Ok(xs)
}

/// Log-uniform period in `range` (inclusive), rounded to microseconds so
/// generated task sets stay human-readable.
pub fn log_uniform_period<R: Rng + ?Sized>(range: (Time, Time), rng: &mut R) -> Time {
    let (lo, hi) = (range.0.as_ns() as f64, range.1.as_ns() as f64);
    assert!(lo > 0.0 && hi >= lo, "period range must be positive");
    let ln = rng.gen_range(lo.ln()..=hi.ln());
    let ns = ln.exp().round() as u64;
    Time::from_us((ns / 1_000).max(1))
}

/// One task's sampled resource usage: `(ℓ_q, N_{i,q}, L_{i,q})`.
type ResourceUsage = Vec<(ResourceId, u32, Time)>;

fn sample_resource_usage<R: Rng + ?Sized>(
    params: &TaskGenParams,
    resource_count: usize,
    wcet: Time,
    rng: &mut R,
) -> ResourceUsage {
    let mut usage: ResourceUsage = Vec::new();
    for q in 0..resource_count {
        if rng.gen::<f64>() < params.access_prob {
            let n = rng.gen_range(1..=params.max_requests.max(1));
            let len =
                Time::from_ns(rng.gen_range(params.cs_range.0.as_ns()..=params.cs_range.1.as_ns()));
            usage.push((ResourceId::new(q), n, len));
        }
    }
    // Plausibility: total critical-section demand must leave room for
    // structure. Clamp request counts (largest first) until it fits.
    let budget = Time::from_ns((wcet.as_ns() as f64 * params.cs_budget_fraction) as u64);
    let demand = |u: &ResourceUsage| -> Time {
        u.iter()
            .map(|&(_, n, l)| l.saturating_mul(u64::from(n)))
            .sum()
    };
    while demand(&usage) > budget {
        // Find the heaviest contributor that can still shrink.
        if let Some(idx) = usage
            .iter()
            .enumerate()
            .filter(|(_, &(_, n, _))| n > 1)
            .max_by_key(|(_, &(_, n, l))| l.saturating_mul(u64::from(n)))
            .map(|(i, _)| i)
        {
            usage[idx].1 = (usage[idx].1 / 2).max(1);
        } else if !usage.is_empty() {
            // All counts are 1: drop whole resources until it fits.
            usage.pop();
        } else {
            break;
        }
    }
    usage
}

/// Draws the access mode of one request instance. Guarded so that
/// `rw_share = 0.0` consumes no randomness at all — the paper's write-only
/// RNG stream is reproduced bit-for-bit.
fn draw_mode<R: Rng + ?Sized>(rw_share: f64, rng: &mut R) -> AccessMode {
    if rw_share > 0.0 && rng.gen::<f64>() < rw_share {
        AccessMode::Read
    } else {
        AccessMode::Write
    }
}

/// Distributes each resource's `N_{i,q}` requests uniformly over vertices,
/// flipping each instance to a read with probability `rw_share`.
fn scatter_requests<R: Rng + ?Sized>(
    usage: &ResourceUsage,
    vertices: usize,
    rw_share: f64,
    rng: &mut R,
) -> Vec<Vec<RequestSpec>> {
    let mut per_vertex: Vec<Vec<(ResourceId, AccessMode, u32)>> = vec![Vec::new(); vertices];
    for &(q, n, _) in usage {
        for _ in 0..n {
            let x = rng.gen_range(0..vertices);
            let mode = draw_mode(rw_share, rng);
            match per_vertex[x]
                .iter_mut()
                .find(|(r, m, _)| *r == q && *m == mode)
            {
                Some((_, _, c)) => *c += 1,
                None => per_vertex[x].push((q, mode, 1)),
            }
        }
    }
    per_vertex
        .into_iter()
        .map(|rs| {
            rs.into_iter()
                .map(|(q, mode, c)| match mode {
                    AccessMode::Write => RequestSpec::write(q, c),
                    AccessMode::Read => RequestSpec::read(q, c),
                })
                .collect()
        })
        .collect()
}

/// The deterministic read critical-section length: half the write length,
/// rounded up (no extra RNG draws).
fn read_len_of(write_len: Time) -> Time {
    Time::from_ns(write_len.as_ns().div_ceil(2).max(1))
}

/// Random composition of `total` into `n` non-negative integer parts with
/// uniform-spacing shares.
fn random_composition<R: Rng + ?Sized>(total: u64, n: usize, rng: &mut R) -> Vec<u64> {
    if n == 1 {
        return vec![total];
    }
    let mut shares: Vec<f64> = (0..n).map(|_| rng.gen::<f64>()).collect();
    let sum: f64 = shares.iter().sum::<f64>().max(f64::MIN_POSITIVE);
    for s in shares.iter_mut() {
        *s /= sum;
    }
    let mut parts: Vec<u64> = shares.iter().map(|&s| (s * total as f64) as u64).collect();
    let assigned: u64 = parts.iter().sum();
    // Hand the rounding remainder to the largest part.
    let rem = total - assigned.min(total);
    if let Some(p) = parts.iter_mut().max() {
        *p += rem;
    }
    parts
}

/// Moves weight off the critical path until `L* < limit`, preserving both
/// the total and each vertex's critical-section floor. Returns `false`
/// when the structure cannot satisfy the limit.
fn flatten_longest_path(dag: &Dag, weights: &mut [Time], floors: &[Time], limit: Time) -> bool {
    const MAX_ITERS: usize = 4_000;
    for _ in 0..MAX_ITERS {
        let (lstar, path) = dag.longest_path(weights);
        if lstar < limit {
            return true;
        }
        let excess = lstar - limit + Time::from_ns(1);
        // Heaviest reducible vertex on the critical path.
        let Some(&victim) = path
            .iter()
            .max_by_key(|&&v| weights[v.index()].saturating_sub(floors[v.index()]))
        else {
            return false;
        };
        let reducible = weights[victim.index()].saturating_sub(floors[victim.index()]);
        if reducible.is_zero() {
            return false;
        }
        let on_path = |x: VertexId| path.contains(&x);
        let receivers: Vec<VertexId> = dag.vertices().filter(|&x| !on_path(x)).collect();
        if receivers.is_empty() {
            return false;
        }
        let amount = reducible.min(excess);
        weights[victim.index()] -= amount;
        let share = amount / receivers.len() as u64;
        let mut rem = amount - share * receivers.len() as u64;
        for &x in &receivers {
            let extra = if rem.is_zero() {
                Time::ZERO
            } else {
                rem -= Time::from_ns(1);
                Time::from_ns(1)
            };
            weights[x.index()] += share + extra;
        }
    }
    false
}

/// Generates one task with the given identifier and utilization.
///
/// # Errors
///
/// Returns [`GenError::TaskGenerationFailed`] when no plausible task
/// (DAG structure with `L*_i < D_i/2` and contained critical sections)
/// emerges within `params.max_task_attempts`.
pub fn generate_task<R: Rng + ?Sized>(
    params: &TaskGenParams,
    id: TaskId,
    utilization: f64,
    resource_count: usize,
    rng: &mut R,
) -> Result<DagTask, GenError> {
    for attempt in 0..params.max_task_attempts.max(1) {
        let period = log_uniform_period(params.period_range, rng);
        let wcet = Time::from_ns((utilization * period.as_ns() as f64).round() as u64);
        if wcet.is_zero() {
            continue;
        }
        let deadline = period;
        let usage = sample_resource_usage(params, resource_count, wcet, rng);

        // Bias |V| upward on retries: flat structures need more width.
        let (vmin, vmax) = params.vertex_range;
        let lo = if attempt > 1 { (vmin + vmax) / 2 } else { vmin };
        let vertices = rng.gen_range(lo.max(1)..=vmax.max(lo.max(1)));
        let dag = params.graph_shape.build(vertices, params.edge_prob, rng);

        let requests = scatter_requests(&usage, vertices, params.rw_share, rng);
        let read_resources: Vec<ResourceId> = usage
            .iter()
            .map(|&(q, _, _)| q)
            .filter(|&q| {
                requests
                    .iter()
                    .flatten()
                    .any(|r| r.resource == q && r.mode.is_read())
            })
            .collect();
        let floors: Vec<Time> = requests
            .iter()
            .map(|rs| {
                rs.iter()
                    .map(|r| {
                        let len = usage
                            .iter()
                            .find(|&&(q, _, _)| q == r.resource)
                            .map(|&(_, _, l)| l)
                            .unwrap_or(Time::ZERO);
                        len.saturating_mul(u64::from(r.count))
                    })
                    .sum()
            })
            .collect();
        let cs_total: Time = floors.iter().sum();
        if cs_total > wcet {
            continue;
        }

        // Weights = critical-section floors + random split of the rest.
        let noncrit = random_composition(wcet.as_ns() - cs_total.as_ns(), vertices, rng);
        let mut weights: Vec<Time> = floors
            .iter()
            .zip(&noncrit)
            .map(|(&f, &w)| f + Time::from_ns(w))
            .collect();

        let limit = Time::from_ns(deadline.as_ns() / 2);
        if !flatten_longest_path(&dag, &mut weights, &floors, limit) {
            continue;
        }

        let mut builder = DagTask::builder(id, period).deadline(deadline).dag(dag);
        for (w, rs) in weights.into_iter().zip(requests) {
            builder = builder.vertex(VertexSpec::with_requests(w, rs));
        }
        for &(q, _, len) in &usage {
            builder = builder.critical_section(q, len);
            if read_resources.contains(&q) {
                builder = builder.read_critical_section(q, read_len_of(len));
            }
        }
        return builder.build().map_err(GenError::from);
    }
    Err(GenError::TaskGenerationFailed {
        utilization,
        attempts: params.max_task_attempts,
    })
}

/// Generates one *light* (sequential, `U ≤ 1`) task: a single vertex
/// carrying the task's whole WCET and every sampled request — the
/// sequential task model of the paper's Sec. VI mixed extension.
///
/// # Errors
///
/// Returns [`GenError::TaskGenerationFailed`] when no plausible light
/// task emerges (degenerate zero-WCET draws).
pub fn generate_light_task<R: Rng + ?Sized>(
    params: &TaskGenParams,
    id: TaskId,
    utilization: f64,
    resource_count: usize,
    rng: &mut R,
) -> Result<DagTask, GenError> {
    for _ in 0..params.max_task_attempts.max(1) {
        let period = log_uniform_period(params.period_range, rng);
        let wcet = Time::from_ns((utilization * period.as_ns() as f64).round() as u64);
        if wcet.is_zero() || wcet > period {
            continue;
        }
        let usage = sample_resource_usage(params, resource_count, wcet, rng);
        let mut requests: Vec<RequestSpec> = Vec::with_capacity(usage.len());
        let mut read_resources: Vec<ResourceId> = Vec::new();
        for &(q, n, _) in &usage {
            let reads = (0..n)
                .filter(|_| draw_mode(params.rw_share, rng).is_read())
                .count() as u32;
            if n > reads {
                requests.push(RequestSpec::write(q, n - reads));
            }
            if reads > 0 {
                requests.push(RequestSpec::read(q, reads));
                read_resources.push(q);
            }
        }
        let mut builder = DagTask::builder(id, period)
            .deadline(period)
            .vertex(VertexSpec::with_requests(wcet, requests));
        for &(q, _, len) in &usage {
            builder = builder.critical_section(q, len);
            if read_resources.contains(&q) {
                builder = builder.read_critical_section(q, read_len_of(len));
            }
        }
        return builder.build().map_err(GenError::from);
    }
    Err(GenError::TaskGenerationFailed {
        utilization,
        attempts: params.max_task_attempts,
    })
}

/// Splits a light-task utilization budget into per-task utilizations in
/// `(0.05, 0.95]`.
fn split_light_utilizations<R: Rng + ?Sized>(
    total: f64,
    rng: &mut R,
) -> Result<Vec<f64>, GenError> {
    const LO: f64 = 0.05;
    const HI: f64 = 0.95;
    if total <= HI {
        // A single light task carrying the whole (possibly tiny) budget:
        // never inflate it, or the set would overshoot the requested
        // total utilization.
        return Ok(vec![total]);
    }
    // Aim for ~0.45 average, clamped into the feasible band n·LO < total ≤ n·HI.
    let mut n = (total / 0.45).round() as usize;
    n = n.max((total / HI).ceil() as usize).max(1);
    n = n.min((total / LO).floor() as usize).max(1);
    Ok(rand_fixed_sum(n, total, LO, HI, rng)?)
}

/// Generates a complete task set with target total utilization and
/// `resource_count` shared resources (Rate-Monotonic priorities).
///
/// # Errors
///
/// Propagates task-level generation failures and utilization-sampling
/// errors.
pub fn generate_task_set<R: Rng + ?Sized>(
    params: &TaskGenParams,
    total_utilization: f64,
    resource_count: usize,
    rng: &mut R,
) -> Result<TaskSet, GenError> {
    let utils = split_utilizations(total_utilization, params.u_avg, rng)?;
    let mut tasks = Vec::with_capacity(utils.len());
    for (i, &u) in utils.iter().enumerate() {
        tasks.push(generate_task(
            params,
            TaskId::new(i),
            u,
            resource_count,
            rng,
        )?);
    }
    TaskSet::new(tasks, resource_count).map_err(GenError::from)
}

/// Generates a mixed heavy/light task set: `light_fraction` of the total
/// utilization goes to sequential light tasks, the rest to parallel DAG
/// tasks (the heavy/light-mix scenario axis).
///
/// `light_fraction = 0` reproduces [`generate_task_set`]'s RNG stream
/// bit-for-bit; `light_fraction = 1` produces a purely sequential set.
/// Heavy tasks come first in the identifier (and hence priority
/// tie-break) order.
///
/// # Errors
///
/// Propagates task-level generation failures and utilization-sampling
/// errors.
pub fn generate_mixed_task_set<R: Rng + ?Sized>(
    params: &TaskGenParams,
    total_utilization: f64,
    light_fraction: f64,
    resource_count: usize,
    rng: &mut R,
) -> Result<TaskSet, GenError> {
    let frac = light_fraction.clamp(0.0, 1.0);
    if frac <= 0.0 {
        return generate_task_set(params, total_utilization, resource_count, rng);
    }
    let light_total = total_utilization * frac;
    let heavy_total = total_utilization - light_total;
    let heavy_utils = if heavy_total > f64::EPSILON {
        split_utilizations(heavy_total, params.u_avg, rng)?
    } else {
        Vec::new()
    };
    let light_utils = if light_total > f64::EPSILON {
        split_light_utilizations(light_total, rng)?
    } else {
        Vec::new()
    };
    let mut tasks = Vec::with_capacity(heavy_utils.len() + light_utils.len());
    for &u in &heavy_utils {
        let id = TaskId::new(tasks.len());
        tasks.push(generate_task(params, id, u, resource_count, rng)?);
    }
    for &u in &light_utils {
        let id = TaskId::new(tasks.len());
        tasks.push(generate_light_task(params, id, u, resource_count, rng)?);
    }
    TaskSet::new(tasks, resource_count).map_err(GenError::from)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    fn small_params() -> TaskGenParams {
        TaskGenParams {
            vertex_range: (10, 40),
            ..TaskGenParams::default()
        }
    }

    #[test]
    fn split_respects_bounds_and_total() {
        let mut r = rng(0);
        for total in [3.0, 7.5, 12.0] {
            let us = split_utilizations(total, 1.5, &mut r).unwrap();
            assert!((us.iter().sum::<f64>() - total).abs() < 1e-6);
            for &u in &us {
                assert!(u > 1.0 - 1e-9 && u <= 3.0 + 1e-9, "{u}");
            }
        }
    }

    #[test]
    fn split_degenerate_low_total() {
        let mut r = rng(1);
        let us = split_utilizations(0.8, 2.0, &mut r).unwrap();
        assert_eq!(us.len(), 1);
        assert!((us[0] - 0.8).abs() < 1e-9);
    }

    #[test]
    fn period_is_log_uniform_within_range() {
        let mut r = rng(2);
        let range = (Time::from_ms(10), Time::from_ms(1000));
        let mut below_100 = 0;
        let n = 2000;
        for _ in 0..n {
            let t = log_uniform_period(range, &mut r);
            assert!(t >= range.0 && t <= range.1);
            if t < Time::from_ms(100) {
                below_100 += 1;
            }
        }
        // Log-uniform: half the mass below the geometric midpoint (100ms).
        let frac = below_100 as f64 / n as f64;
        assert!((frac - 0.5).abs() < 0.05, "fraction below 100ms: {frac}");
    }

    #[test]
    fn generated_task_meets_all_constraints() {
        let params = small_params();
        let mut r = rng(3);
        for seed_shift in 0..8 {
            let u = 1.2 + 0.3 * seed_shift as f64 / 4.0;
            let t = generate_task(&params, TaskId::new(0), u, 6, &mut r).unwrap();
            // Utilization within 1% of target (integer rounding).
            assert!((t.utilization() - u).abs() / u < 0.01);
            // The paper's plausibility constraints.
            assert!(t.longest_path_len() < Time::from_ns(t.deadline().as_ns() / 2 + 1));
            for v in t.dag().vertices() {
                let spec = t.vertex(v);
                let cs: Time = spec
                    .requests()
                    .iter()
                    .map(|req| t.cs_length(req.resource).unwrap() * u64::from(req.count))
                    .sum();
                assert!(spec.wcet() >= cs);
            }
            // Period in range.
            assert!(t.period() >= Time::from_ms(10) && t.period() <= Time::from_ms(1000));
        }
    }

    #[test]
    fn high_utilization_tasks_still_generate() {
        // U = 4 (the U^avg = 2 maximum) needs aggressive flattening.
        let params = TaskGenParams {
            u_avg: 2.0,
            ..TaskGenParams::default()
        };
        let mut r = rng(4);
        let t = generate_task(&params, TaskId::new(0), 4.0, 8, &mut r).unwrap();
        assert!(t.longest_path_len().as_ns() < t.deadline().as_ns() / 2 + 1);
        assert!(t.is_heavy());
    }

    #[test]
    fn taskset_matches_target_utilization() {
        let params = small_params();
        let mut r = rng(5);
        let ts = generate_task_set(&params, 6.0, 4, &mut r).unwrap();
        assert!((ts.total_utilization() - 6.0).abs() < 0.01);
        assert_eq!(ts.resource_count(), 4);
        // All tasks heavy (U > 1).
        for t in ts.iter() {
            assert!(t.utilization() > 1.0);
        }
        // Priorities unique.
        let mut prios: Vec<u32> = ts.iter().map(|t| t.priority().level()).collect();
        prios.sort_unstable();
        prios.dedup();
        assert_eq!(prios.len(), ts.len());
    }

    #[test]
    fn request_totals_respect_configured_max() {
        let params = TaskGenParams {
            access_prob: 1.0,
            max_requests: 25,
            ..small_params()
        };
        let mut r = rng(6);
        let ts = generate_task_set(&params, 4.0, 3, &mut r).unwrap();
        for t in ts.iter() {
            for q in t.resources() {
                assert!(t.total_requests(q) <= 25);
                let l = t.cs_length(q).unwrap();
                assert!(l >= params.cs_range.0 && l <= params.cs_range.1);
            }
        }
    }

    #[test]
    fn zero_access_prob_means_no_resources() {
        let params = TaskGenParams {
            access_prob: 0.0,
            ..small_params()
        };
        let mut r = rng(7);
        let ts = generate_task_set(&params, 5.0, 8, &mut r).unwrap();
        for t in ts.iter() {
            assert_eq!(t.resources().count(), 0);
        }
    }

    #[test]
    fn deterministic_under_fixed_seed() {
        let params = small_params();
        let a = generate_task_set(&params, 5.0, 4, &mut rng(11)).unwrap();
        let b = generate_task_set(&params, 5.0, 4, &mut rng(11)).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn graph_shapes_generate_plausible_tasks() {
        for shape in [GraphShape::Layered { layers: 4 }, GraphShape::ForkJoin] {
            let params = TaskGenParams {
                graph_shape: shape,
                ..small_params()
            };
            let mut r = rng(21);
            let t = generate_task(&params, TaskId::new(0), 1.5, 4, &mut r).unwrap();
            assert!((t.utilization() - 1.5).abs() / 1.5 < 0.01, "{shape:?}");
            assert!(
                t.longest_path_len() < Time::from_ns(t.deadline().as_ns() / 2 + 1),
                "{shape:?}"
            );
        }
    }

    #[test]
    fn deterministic_shapes_share_the_rng_stream() {
        // The deterministic shapes draw nothing for wiring, so two shapes
        // consume identical RNG prefixes: the sampled periods must match.
        let mk = |shape| {
            let params = TaskGenParams {
                graph_shape: shape,
                ..small_params()
            };
            generate_task(&params, TaskId::new(0), 1.3, 2, &mut rng(5))
                .unwrap()
                .period()
        };
        assert_eq!(
            mk(GraphShape::Layered { layers: 3 }),
            mk(GraphShape::ForkJoin)
        );
    }

    #[test]
    fn light_tasks_are_sequential_and_light() {
        let params = small_params();
        let mut r = rng(31);
        for i in 0..6 {
            let u = 0.1 + 0.14 * i as f64;
            let t = generate_light_task(&params, TaskId::new(0), u, 4, &mut r).unwrap();
            assert!(!t.is_heavy());
            assert_eq!(t.dag().vertex_count(), 1);
            assert!((t.utilization() - u).abs() / u < 0.02);
        }
    }

    #[test]
    fn mixed_set_respects_fraction_and_total() {
        let params = small_params();
        let mut r = rng(32);
        let ts = generate_mixed_task_set(&params, 6.0, 0.5, 4, &mut r).unwrap();
        assert!((ts.total_utilization() - 6.0).abs() < 0.01);
        let light_util: f64 = ts
            .iter()
            .filter(|t| !t.is_heavy())
            .map(|t| t.utilization())
            .sum();
        assert!((light_util - 3.0).abs() < 0.05, "light share {light_util}");
        assert!(ts.iter().any(|t| t.is_heavy()));
        assert!(ts.iter().any(|t| !t.is_heavy()));
    }

    #[test]
    fn zero_light_fraction_matches_plain_generation_bitwise() {
        let params = small_params();
        let plain = generate_task_set(&params, 5.0, 3, &mut rng(33)).unwrap();
        let mixed = generate_mixed_task_set(&params, 5.0, 0.0, 3, &mut rng(33)).unwrap();
        assert_eq!(plain, mixed);
    }

    #[test]
    fn full_light_fraction_is_purely_sequential() {
        let params = small_params();
        let ts = generate_mixed_task_set(&params, 3.0, 1.0, 3, &mut rng(34)).unwrap();
        assert!(ts.iter().all(|t| !t.is_heavy()));
        assert!(ts.iter().all(|t| t.dag().vertex_count() == 1));
        assert!((ts.total_utilization() - 3.0).abs() < 0.01);
    }

    #[test]
    fn zero_rw_share_draws_no_extra_randomness() {
        // The mode draw is guarded by `rw_share > 0.0`, so 0.0 must leave
        // the RNG stream — and hence the generated set — byte-identical.
        let base = small_params();
        let zeroed = TaskGenParams {
            rw_share: 0.0,
            ..small_params()
        };
        let a = generate_task_set(&base, 5.0, 3, &mut rng(35)).unwrap();
        let b = generate_task_set(&zeroed, 5.0, 3, &mut rng(35)).unwrap();
        assert_eq!(a, b);
        assert!(!a.has_reads());
    }

    #[test]
    fn positive_rw_share_mixes_modes_with_halved_read_lengths() {
        let params = TaskGenParams {
            rw_share: 0.5,
            ..small_params()
        };
        let ts = generate_mixed_task_set(&params, 6.0, 0.25, 4, &mut rng(36)).unwrap();
        assert!(ts.has_reads(), "rw_share=0.5 produced a write-only set");
        assert!(
            ts.iter()
                .any(|t| t.resources().any(|q| t.total_writes(q) > 0)),
            "rw_share=0.5 produced a read-only set"
        );
        for t in ts.iter() {
            for q in t.resources() {
                if t.total_reads(q) > 0 {
                    let write = t.cs_length(q).unwrap();
                    let read = t.read_cs_length(q).unwrap();
                    assert_eq!(read, read_len_of(write), "resource {q} of {}", t.id());
                    assert!(read <= write);
                }
            }
        }
    }

    #[test]
    fn composition_sums_exactly() {
        let mut r = rng(8);
        for total in [0u64, 1, 17, 1_000_003] {
            for n in [1usize, 2, 7, 33] {
                let parts = random_composition(total, n, &mut r);
                assert_eq!(parts.len(), n);
                assert_eq!(parts.iter().sum::<u64>(), total);
            }
        }
    }
}
