//! The stable wire API: [`AnalysisRequest`] in, [`AnalysisVerdict`] out.
//!
//! Every consumer that ships an analysis across a boundary — the
//! `dpcp-serve` HTTP server and the fuzz repro bundles — speaks this one
//! DTO pair instead of an ad-hoc shape per subsystem. In-process sweeps
//! (the experiment harness, the fuzz oracle) dispatch the same registry
//! protocols on an `AnalysisSession` directly.
//! A request names a registry protocol and carries the full analysis
//! input (task set, platform, config, partitioning heuristic); a
//! verdict carries the outcome plus provenance: the canonical
//! [`structural_key`] of the request, which is also what the serve
//! crate's cross-request verdict cache is keyed by.
//!
//! # The canonical structural key
//!
//! Two requests get the same key exactly when they describe the same
//! analysis problem: the key is invariant under task reordering and
//! DAG vertex relabelling, and sensitive to everything the analysis
//! reads (periods, deadlines, priority levels, vertex WCETs, request
//! vectors, DAG shape, critical-section lengths, processor count,
//! resource count, the full [`AnalysisConfig`] and the protocol name).
//! Vertex-relabelling invariance comes from Weisfeiler–Lehman colour
//! refinement over the DAG; task-order invariance from hashing the
//! sorted multiset of per-task keys. Keys are 64-bit FNV-1a digests —
//! collisions are possible in principle but astronomically unlikely at
//! cache scale, the same trade the campaign engine's grid fingerprint
//! already makes.
//!
//! Refinement stops on a stable colour partition. Each round hashes a
//! vertex's colour together with the sorted colours of its predecessors
//! and successors, so a round can only split colour classes; the first
//! round that does not increase the number of classes therefore leaves
//! the partition unchanged for good, and refinement ends there. A
//! discrete partition (every vertex its own class, the common case for
//! generated DAGs, whose vertex WCETs differ) is stable before any round.
//! Refinement never runs more than 24 rounds, a backstop for long,
//! highly symmetric DAGs.
//!
//! # Key format
//!
//! Every key folds in a key-format version word, currently **2**, which
//! moves whenever the construction changes key values. v1 ran every DAG
//! of 24 or more vertices through all 24 rounds; v2 stops on a stable
//! partition as above. Keys live only in process memory (the verdict
//! cache) and in each verdict's `cache_key`; nothing persisted is keyed
//! by them, so a version change moves the `cache_key` bytes and nothing
//! else.

use dpcp_model::{DagTask, Platform, TaskSet, VertexId};
use serde::{Deserialize, Serialize};

use crate::analysis::{AnalysisConfig, AnalysisVariant, TaskBound};
use crate::partition::{PartitionOutcome, ResourceHeuristic, UnschedulableReason};

/// One complete analysis problem, ready to cross a wire.
///
/// `protocol` names a [`ProtocolRegistry`](crate::ProtocolRegistry)
/// entry; the remaining fields are everything that entry's
/// [`evaluate`](crate::ProtocolAnalysis::evaluate) reads. The pair
/// `(request, verdict)` is self-describing: replaying a request through
/// the same registry reproduces its verdict bit for bit.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AnalysisRequest {
    /// Wire-schema version. Absent means v1 (the original write-only
    /// request shape); v2 additionally understands reader-writer access
    /// modes. Not folded into the structural key — the verdict depends
    /// on the problem, not on how the request declared itself.
    pub schema: Option<u32>,
    /// Registry name of the method to run (e.g. `"DPCP-p-EP"`).
    pub protocol: String,
    /// The task system under test.
    pub tasks: TaskSet,
    /// The platform to partition onto.
    pub platform: Platform,
    /// Analysis tuning knobs (variant, path caps, fixed-point budget,
    /// search probe budget).
    pub config: AnalysisConfig,
    /// Resource-partitioning heuristic.
    pub heuristic: ResourceHeuristic,
}

/// The wire-schema versions this build understands: v1 (write-only
/// requests, no `schema` member) and v2 (reader-writer access modes).
pub const SUPPORTED_SCHEMA_VERSIONS: [u32; 2] = [1, 2];

/// The ceiling `dpcp-serve` puts on each analysis knob of a request, by
/// its `config` member. Each knob scales the work of one request, and
/// without a ceiling one body could pin a worker for days (the probe
/// loop runs up to 2 × `search_probe_budget` steps). The probe budget
/// multiplies the cost the other three allow per probe, so its ceiling
/// is the lowest: with every knob at its ceiling, SEARCH answered each of
/// 32 fig2 panel-A/B bodies in at most 3.3 s on one core.
pub const KNOB_CEILINGS: [(&str, u64); 4] = [
    ("search_probe_budget", 1_024),
    ("max_fixpoint_iterations", 4_096),
    ("path_signature_cap", 65_536),
    ("path_visit_cap", 20_000_000),
];

impl AnalysisRequest {
    /// The declared wire-schema version (absent ⇒ 1).
    pub fn schema_version(&self) -> u32 {
        self.schema.unwrap_or(1)
    }

    /// Validates the declared schema version.
    ///
    /// # Errors
    ///
    /// Returns a message listing the supported versions when the request
    /// declares one this build does not speak (`dpcp-serve` surfaces it
    /// as a 422).
    pub fn check_schema(&self) -> Result<u32, String> {
        let v = self.schema_version();
        if SUPPORTED_SCHEMA_VERSIONS.contains(&v) {
            Ok(v)
        } else {
            let supported: Vec<String> = SUPPORTED_SCHEMA_VERSIONS
                .iter()
                .map(u32::to_string)
                .collect();
            Err(format!(
                "unsupported schema version {v}; supported versions: {}",
                supported.join(", ")
            ))
        }
    }

    /// Checks the analysis knobs against [`KNOB_CEILINGS`]. Only the
    /// server holds requests to them; library callers and manifests are
    /// free to go beyond.
    ///
    /// # Errors
    ///
    /// Names the first knob above its ceiling, and the ceiling
    /// (`dpcp-serve` surfaces it as a 422).
    pub fn check_limits(&self) -> Result<(), String> {
        let c = &self.config;
        let values = [
            c.search_probe_budget.map_or(0, |b| b as u64),
            c.max_fixpoint_iterations as u64,
            c.path_signature_cap as u64,
            c.path_visit_cap,
        ];
        for ((knob, ceiling), value) in KNOB_CEILINGS.into_iter().zip(values) {
            if value > ceiling {
                return Err(format!(
                    "config.{knob} {value} exceeds its ceiling of {ceiling}"
                ));
            }
        }
        Ok(())
    }

    /// The canonical structural key of this request.
    ///
    /// See [`structural_key`]; this is the cache key `dpcp-serve` uses
    /// and the provenance stamped into the verdict.
    pub fn structural_key(&self) -> u64 {
        structural_key(
            &self.tasks,
            &self.platform,
            &self.config,
            self.heuristic,
            &self.protocol,
        )
    }
}

/// The outcome of one [`AnalysisRequest`], ready to cross a wire.
///
/// Deliberately partition-free: the verdict answers the admission
/// question (schedulable, per-task bounds, truncation) without
/// committing the consumer to a placement representation. Consumers
/// that need the witness partition (the fuzz oracle) keep it next to
/// the verdict.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AnalysisVerdict {
    /// The protocol that produced this verdict.
    pub protocol: String,
    /// Whether the task system was admitted.
    pub schedulable: bool,
    /// Per-task WCRT bounds, in task order (empty when rejected before
    /// analysis, e.g. infeasible resource allocation).
    pub task_bounds: Vec<TaskBound>,
    /// Whether any task's path enumeration hit a cap (bounds mix in the
    /// EN fallback; still sound, coarser).
    pub truncated: bool,
    /// Partitioning rounds used (Algorithm 1's outer loop).
    pub rounds: usize,
    /// Why the set was rejected, when it was.
    pub reason: Option<UnschedulableReason>,
    /// Cache provenance: the request's canonical [`structural_key`],
    /// as 16 lowercase hex digits. Identical requests carry identical
    /// keys, so a cached verdict is byte-identical to a cold one —
    /// hit/miss status travels out of band (the server's
    /// `X-Verdict-Cache` header), never in the body.
    pub cache_key: String,
}

impl AnalysisVerdict {
    /// Builds a verdict from a [`PartitionOutcome`] and the request's
    /// structural key.
    pub fn from_outcome(protocol: &str, key: u64, outcome: &PartitionOutcome) -> Self {
        match outcome {
            PartitionOutcome::Schedulable { report, rounds, .. } => AnalysisVerdict {
                protocol: protocol.to_string(),
                schedulable: report.schedulable,
                task_bounds: report.task_bounds.clone(),
                truncated: report.truncated,
                rounds: *rounds,
                reason: None,
                cache_key: key_hex(key),
            },
            PartitionOutcome::Unschedulable { reason, rounds } => AnalysisVerdict {
                protocol: protocol.to_string(),
                schedulable: false,
                task_bounds: Vec::new(),
                truncated: false,
                rounds: *rounds,
                reason: Some(reason.clone()),
                cache_key: key_hex(key),
            },
        }
    }
}

/// Formats a structural key the way verdicts carry it: 16 lowercase
/// hex digits.
pub fn key_hex(key: u64) -> String {
    format!("{key:016x}")
}

/// 64-bit FNV-1a, the same digest the campaign engine fingerprints
/// grids with (kept private to each crate on purpose: the *constants*
/// are a spec, the helper is trivial).
#[derive(Clone, Copy)]
struct Fnv1a(u64);

impl Fnv1a {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    fn new() -> Self {
        Fnv1a(Self::OFFSET)
    }

    fn write_u64(&mut self, value: u64) {
        for byte in value.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
    }

    fn write_usize(&mut self, value: usize) {
        self.write_u64(value as u64);
    }

    fn write_bytes(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
    }

    fn finish(self) -> u64 {
        self.0
    }
}

/// Domain-separation tags so structurally different inputs can't
/// collide by concatenation (e.g. a predecessor list ending where a
/// successor list begins).
const TAG_VERTEX: u64 = 0x01;
const TAG_PREDS: u64 = 0x02;
const TAG_SUCCS: u64 = 0x03;
const TAG_TASK: u64 = 0x04;
const TAG_EDGES: u64 = 0x05;
const TAG_SET: u64 = 0x06;
const TAG_CONFIG: u64 = 0x07;
/// Folded in only when a request/task actually reads, so every
/// write-only (v1) problem keeps its pre-RW key bit for bit.
const TAG_READ: u64 = 0x08;
/// Folded in only when a search-probe budget is set, so every request to
/// a non-search protocol keeps its pre-search key bit for bit.
const TAG_SEARCH: u64 = 0x09;

/// The version of the key construction, folded into every key. Bumped
/// whenever a construction change moves key values, so a key computed by
/// one build can never be mistaken for another build's key of the same
/// problem. v2: WL refinement stops on a stable colour partition.
const KEY_FORMAT: u64 = 2;

/// Backstop on WL refinement rounds. Refinement stops as soon as the
/// colour partition is stable, and every round before that adds a class,
/// so the cap only bounds the cost of a long, highly symmetric DAG.
const WL_ROUNDS_CAP: usize = 24;

/// Canonical key of one task, invariant under vertex relabelling.
fn task_key(task: &DagTask) -> u64 {
    task_key_and_rounds(task).0
}

/// The number of distinct colours (colour classes) in `colors`, counted
/// in `scratch` so refinement allocates nothing per round.
fn count_classes(colors: &[u64], scratch: &mut Vec<u64>) -> usize {
    scratch.clear();
    scratch.extend_from_slice(colors);
    scratch.sort_unstable();
    scratch.dedup();
    scratch.len()
}

/// [`task_key`] plus the WL refinement rounds it ran.
fn task_key_and_rounds(task: &DagTask) -> (u64, usize) {
    let dag = task.dag();
    let n = dag.vertex_count();

    // Initial colour: what the analysis reads per vertex in isolation.
    let mut colors: Vec<u64> = (0..n)
        .map(|x| {
            let spec = task.vertex(VertexId::new(x));
            let mut h = Fnv1a::new();
            h.write_u64(TAG_VERTEX);
            h.write_u64(spec.wcet().as_ns());
            for req in spec.requests() {
                h.write_usize(req.resource.index());
                h.write_u64(u64::from(req.count));
                if req.mode.is_read() {
                    h.write_u64(TAG_READ);
                }
            }
            h.finish()
        })
        .collect();

    // Weisfeiler–Lehman refinement: fold in the sorted colours of each
    // vertex's predecessors and successors. A round only splits colour
    // classes (a new colour hashes in the old one), so a round that leaves
    // the class count unchanged has reached a stable partition and the
    // refinement stops there; a discrete partition is stable from the
    // start.
    let mut next = vec![0u64; n];
    let mut buf: Vec<u64> = Vec::new();
    let mut scratch: Vec<u64> = Vec::with_capacity(n);
    let mut classes = count_classes(&colors, &mut scratch);
    let mut rounds = 0;
    while classes < n && rounds < WL_ROUNDS_CAP {
        rounds += 1;
        for x in 0..n {
            let v = VertexId::new(x);
            let mut h = Fnv1a::new();
            h.write_u64(colors[x]);
            for (tag, neighbours) in [
                (TAG_PREDS, dag.predecessors(v)),
                (TAG_SUCCS, dag.successors(v)),
            ] {
                buf.clear();
                buf.extend(neighbours.iter().map(|p| colors[p.index()]));
                buf.sort_unstable();
                h.write_u64(tag);
                h.write_usize(buf.len());
                for &c in &buf {
                    h.write_u64(c);
                }
            }
            next[x] = h.finish();
        }
        std::mem::swap(&mut colors, &mut next);
        let refined = count_classes(&colors, &mut scratch);
        if refined == classes {
            break;
        }
        classes = refined;
    }

    let mut h = Fnv1a::new();
    h.write_u64(TAG_TASK);
    h.write_u64(task.period().as_ns());
    h.write_u64(task.deadline().as_ns());
    h.write_u64(u64::from(task.priority().level()));

    // Critical-section lengths, in resource order (already canonical).
    let mut cs: Vec<(usize, u64)> = task
        .resources()
        .filter_map(|q| task.cs_length(q).map(|len| (q.index(), len.as_ns())))
        .collect();
    cs.sort_unstable();
    h.write_usize(cs.len());
    for (q, len) in cs {
        h.write_usize(q);
        h.write_u64(len);
    }

    // Read-side lengths, folded in only for tasks that actually read —
    // write-only tasks keep their pre-RW key bit for bit.
    if task.has_reads() {
        h.write_u64(TAG_READ);
        let mut rcs: Vec<(usize, u64)> = task
            .resources()
            .filter(|&q| task.total_reads(q) > 0)
            .filter_map(|q| task.read_cs_length(q).map(|len| (q.index(), len.as_ns())))
            .collect();
        rcs.sort_unstable();
        h.write_usize(rcs.len());
        for (q, len) in rcs {
            h.write_usize(q);
            h.write_u64(len);
        }
    }

    // Vertex colour multiset.
    scratch.clear();
    scratch.extend_from_slice(&colors);
    scratch.sort_unstable();
    h.write_usize(n);
    for &c in &scratch {
        h.write_u64(c);
    }

    // Directed edge multiset over final colours.
    let mut edges: Vec<(u64, u64)> = Vec::new();
    for x in 0..n {
        let v = VertexId::new(x);
        for s in dag.successors(v) {
            edges.push((colors[x], colors[s.index()]));
        }
    }
    edges.sort_unstable();
    h.write_u64(TAG_EDGES);
    h.write_usize(edges.len());
    for (from, to) in edges {
        h.write_u64(from);
        h.write_u64(to);
    }

    (h.finish(), rounds)
}

/// The canonical structural hash of one analysis problem.
///
/// Invariant under task reordering and DAG vertex relabelling;
/// sensitive to every input the analysis reads. See the module docs
/// for the construction and the collision trade-off.
pub fn structural_key(
    tasks: &TaskSet,
    platform: &Platform,
    config: &AnalysisConfig,
    heuristic: ResourceHeuristic,
    protocol: &str,
) -> u64 {
    let mut keys: Vec<u64> = tasks.iter().map(task_key).collect();
    keys.sort_unstable();

    let mut h = Fnv1a::new();
    h.write_u64(TAG_SET);
    h.write_u64(KEY_FORMAT);
    h.write_usize(platform.processor_count());
    h.write_usize(tasks.resource_count());
    h.write_usize(keys.len());
    for k in keys {
        h.write_u64(k);
    }

    h.write_u64(TAG_CONFIG);
    h.write_u64(match config.variant {
        AnalysisVariant::EnumeratePaths => 0,
        AnalysisVariant::EnumerateRequestCounts => 1,
    });
    h.write_usize(config.path_signature_cap);
    h.write_u64(config.path_visit_cap);
    h.write_usize(config.max_fixpoint_iterations);
    // The retired pruning switch's word, fixed at its default (on) so keys keep their values.
    h.write_u64(1);
    if let Some(budget) = config.search_probe_budget {
        h.write_u64(TAG_SEARCH);
        h.write_usize(budget);
    }
    h.write_bytes(format!("{heuristic}").as_bytes());
    h.write_usize(protocol.len());
    h.write_bytes(protocol.as_bytes());
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpcp_gen::graph_gen::erdos_renyi_dag;
    use dpcp_gen::scenario::{Fig2Panel, Scenario};
    use dpcp_model::{Dag, DagTask, ModelError, RequestSpec, ResourceId, TaskId, Time, VertexSpec};
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::SeedableRng;

    /// A diamond task 0 → {1, 2} → 3 with distinguishable middle
    /// vertices, built under an arbitrary relabelling `perm` (perm[x]
    /// is the new index of logical vertex x).
    fn diamond(id: usize, period_ms: u64, perm: [usize; 4]) -> Result<DagTask, ModelError> {
        let logical_specs = [
            VertexSpec::new(Time::from_us(100)),
            VertexSpec::with_requests(
                Time::from_us(200),
                [RequestSpec::new(ResourceId::new(0), 2)],
            ),
            VertexSpec::with_requests(
                Time::from_us(300),
                [RequestSpec::new(ResourceId::new(1), 1)],
            ),
            VertexSpec::new(Time::from_us(150)),
        ];
        let logical_edges = [(0, 1), (0, 2), (1, 3), (2, 3)];

        let mut specs: Vec<Option<VertexSpec>> = vec![None; 4];
        for (logical, spec) in logical_specs.into_iter().enumerate() {
            specs[perm[logical]] = Some(spec);
        }
        let edges: Vec<(usize, usize)> = logical_edges
            .iter()
            .map(|&(a, b)| (perm[a], perm[b]))
            .collect();
        let dag = Dag::new(4, edges)?;
        DagTask::builder(TaskId::new(id), Time::from_ms(period_ms))
            .dag(dag)
            .vertex_specs(specs.into_iter().map(|s| s.expect("perm is a bijection")))
            .critical_section(ResourceId::new(0), Time::from_us(10))
            .critical_section(ResourceId::new(1), Time::from_us(20))
            .build()
    }

    fn request(tasks: TaskSet) -> AnalysisRequest {
        AnalysisRequest {
            schema: None,
            protocol: "DPCP-p-EP".to_string(),
            tasks,
            platform: Platform::new(4).expect("m >= 2"),
            config: AnalysisConfig::ep(),
            heuristic: ResourceHeuristic::WorstFitDecreasing,
        }
    }

    fn set(tasks: Vec<DagTask>) -> TaskSet {
        TaskSet::new(tasks, 2).expect("valid set")
    }

    #[test]
    fn task_order_permutation_keeps_the_key() {
        let identity = [0, 1, 2, 3];
        let a = set(vec![
            diamond(0, 10, identity).unwrap(),
            diamond(1, 20, identity).unwrap(),
        ]);
        // Same two tasks submitted in the opposite order with fresh ids:
        // TaskSet::new reassigns RM priorities by (period, id), so the
        // two sets are semantically identical.
        let b = set(vec![
            diamond(0, 20, identity).unwrap(),
            diamond(1, 10, identity).unwrap(),
        ]);
        assert_eq!(
            request(a).structural_key(),
            request(b).structural_key(),
            "task order must not matter"
        );
    }

    /// `task` with its vertices renumbered: `perm[x]` is the new index of
    /// vertex `x`.
    fn relabelled(task: &DagTask, perm: &[usize]) -> DagTask {
        let dag = task.dag();
        let n = dag.vertex_count();
        let edges = (0..n).flat_map(|x| {
            dag.successors(VertexId::new(x))
                .iter()
                .map(move |s| (perm[x], perm[s.index()]))
        });
        let mut specs = vec![None; n];
        for (x, &to) in perm.iter().enumerate() {
            specs[to] = Some(task.vertex(VertexId::new(x)).clone());
        }
        let mut builder = DagTask::builder(task.id(), task.period())
            .deadline(task.deadline())
            .priority(task.priority())
            .dag(Dag::new(n, edges).unwrap())
            .vertex_specs(specs.into_iter().map(|s| s.expect("perm is a bijection")));
        for q in task.resources() {
            builder = builder.critical_section(q, task.cs_length(q).unwrap());
        }
        builder.build().unwrap()
    }

    /// A task over `dag` whose vertices all take 1 ms except `marked`,
    /// which also issues one request: only the DAG's shape tells the
    /// vertices apart, so WL must refine for several rounds.
    fn uniform(dag: Dag, marked: usize) -> DagTask {
        let n = dag.vertex_count();
        DagTask::builder(TaskId::new(0), Time::from_ms(1000))
            .dag(dag)
            .vertex_specs((0..n).map(|x| {
                let requests = (x == marked).then(|| RequestSpec::new(ResourceId::new(0), 1));
                VertexSpec::with_requests(Time::from_ms(1), requests)
            }))
            .critical_section(ResourceId::new(0), Time::from_us(10))
            .build()
            .unwrap()
    }

    fn shuffled(n: usize, rng: &mut StdRng) -> Vec<usize> {
        let mut perm: Vec<usize> = (0..n).collect();
        perm.shuffle(rng);
        perm
    }

    #[test]
    fn vertex_relabelling_keeps_the_key() {
        let a = set(vec![diamond(0, 10, [0, 1, 2, 3]).unwrap()]);
        // Swap the two distinguishable middle vertices and move the
        // head to the end: same DAG up to isomorphism.
        let b = set(vec![diamond(0, 10, [3, 2, 1, 0]).unwrap()]);
        assert_eq!(
            request(a).structural_key(),
            request(b).structural_key(),
            "vertex relabelling must not matter"
        );

        // Seeded generator DAGs of 40–90 vertices: a whole fig2 panel-A
        // set (distinct vertex WCETs) and Erdős–Rényi shapes whose
        // vertices only their edges tell apart, each renumbered at random.
        let mut rng = StdRng::seed_from_u64(0x3e1a_be11);
        let scenario = Scenario {
            vertex_range: Some((40, 90)),
            ..Scenario::fig2(Fig2Panel::A)
        };
        let fig2 = scenario
            .sample_task_set(8.0, &mut rng)
            .expect("seed generates");
        let renumbered: Vec<DagTask> = fig2
            .iter()
            .map(|t| {
                let n = t.dag().vertex_count();
                assert!((40..=90).contains(&n), "{n} vertices");
                relabelled(t, &shuffled(n, &mut rng))
            })
            .collect();
        let renumbered = TaskSet::new(renumbered, fig2.resource_count()).unwrap();
        assert_ne!(
            serde_json::to_string(&renumbered).unwrap(),
            serde_json::to_string(&fig2).unwrap()
        );
        let mut req = request(fig2);
        req.platform = Platform::new(16).unwrap();
        let key = req.structural_key();
        req.tasks = renumbered;
        assert_eq!(req.structural_key(), key, "fig2 set relabelled");

        for n in [40, 65, 90] {
            let task = uniform(erdos_renyi_dag(n, 0.1, &mut rng), n / 3);
            let (key, rounds) = task_key_and_rounds(&task);
            assert!(rounds > 1, "{n} vertices: {rounds} rounds");
            let moved = relabelled(&task, &shuffled(n, &mut rng));
            assert_eq!(task_key_and_rounds(&moved), (key, rounds), "{n} vertices");
        }
    }

    #[test]
    fn shapes_separated_only_after_several_rounds_keep_distinct_keys() {
        // Two 30-vertex chains whose one request vertex sits at depth 5 or
        // 25: the first round sees the same colour classes and edge
        // multiset in both, so refinement must run on to tell them apart.
        let near = uniform(Dag::chain(30).unwrap(), 5);
        let far = uniform(Dag::chain(30).unwrap(), 25);
        let (near_key, near_rounds) = task_key_and_rounds(&near);
        let (far_key, far_rounds) = task_key_and_rounds(&far);
        assert!(
            near_rounds > 2 && far_rounds > 2,
            "{near_rounds}, {far_rounds}"
        );
        assert_ne!(near_key, far_key);
        // The mirror image of `far` (depth 4 from the head, reversed
        // edges) is a different DAG too.
        let mirrored = Dag::new(30, (1..30).map(|x| (x, x - 1))).unwrap();
        assert_ne!(task_key_and_rounds(&uniform(mirrored, 25)).0, near_key);
    }

    #[test]
    fn refinement_stops_on_a_stable_partition() {
        // Generated fig2 DAGs: far fewer rounds than the backstop.
        let mut rng = StdRng::seed_from_u64(7);
        let tasks = Scenario::fig2(Fig2Panel::A)
            .sample_task_set(8.0, &mut rng)
            .expect("seed generates");
        for task in tasks.iter() {
            let (_, rounds) = task_key_and_rounds(task);
            assert!(rounds <= 2, "{} took {rounds} rounds", task.id());
        }
        // A chain with one marked vertex refines one class per round and
        // ends on the round that adds none — before the backstop.
        let (_, rounds) = task_key_and_rounds(&uniform(Dag::chain(20).unwrap(), 0));
        assert!(rounds > 2 && rounds < WL_ROUNDS_CAP, "{rounds} rounds");
        // A fully symmetric shape (no edges, no vertex marked) is stable
        // after one round.
        let edgeless = uniform(Dag::new(30, []).unwrap(), usize::MAX);
        assert_eq!(task_key_and_rounds(&edgeless).1, 1);
    }

    #[test]
    fn semantic_differences_change_the_key() {
        let identity = [0, 1, 2, 3];
        let base = || set(vec![diamond(0, 10, identity).unwrap()]);
        let base_key = request(base()).structural_key();

        // A different period.
        let slower = set(vec![diamond(0, 12, identity).unwrap()]);
        assert_ne!(base_key, request(slower).structural_key());

        // A different platform.
        let mut req = request(base());
        req.platform = Platform::new(8).expect("m >= 2");
        assert_ne!(base_key, req.structural_key());

        // A different analysis config.
        let mut req = request(base());
        req.config.path_signature_cap = 7;
        assert_ne!(base_key, req.structural_key());

        // A different protocol.
        let mut req = request(base());
        req.protocol = "DPCP-p-EN".to_string();
        assert_ne!(base_key, req.structural_key());

        // A different heuristic.
        let mut req = request(base());
        req.heuristic = ResourceHeuristic::FirstFitDecreasing;
        assert_ne!(base_key, req.structural_key());

        // A search-probe budget is semantic (it changes the wrapper's
        // verdict), so setting one must change the key — and distinct
        // budgets must not collide.
        let mut req = request(base());
        req.config.search_probe_budget = Some(100);
        let b100 = req.structural_key();
        assert_ne!(base_key, b100);
        req.config.search_probe_budget = Some(200);
        assert_ne!(b100, req.structural_key());
    }

    #[test]
    fn key_hex_is_sixteen_lowercase_digits() {
        assert_eq!(key_hex(0xdead_beef), "00000000deadbeef");
        assert_eq!(key_hex(u64::MAX), "ffffffffffffffff");
    }

    #[test]
    fn verdict_round_trips_through_json() {
        let tasks = set(vec![diamond(0, 10, [0, 1, 2, 3]).unwrap()]);
        let req = request(tasks);
        let json = serde_json::to_string(&req).expect("serialize");
        let back: AnalysisRequest = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(req, back);
        assert_eq!(req.structural_key(), back.structural_key());
    }

    #[test]
    fn absent_defaulted_members_parse_and_unknown_members_are_ignored() {
        let req = request(set(vec![diamond(0, 10, [0, 1, 2, 3]).unwrap()]));
        let json = serde_json::to_string(&req).expect("serialize");
        // Serialization always emits the defaulted member…
        let member = "\"search_probe_budget\":null";
        assert!(json.contains(member), "{json}");
        // …but a body without it parses: `#[serde(default)]` fills in
        // `None`.
        let absent = json.replacen(&format!(",{member}"), "", 1);
        assert_ne!(absent, json, "the member must be present to strip");
        let absent: AnalysisRequest = serde_json::from_str(&absent).expect("absent member parses");
        assert_eq!(absent, req);
        // Members this build no longer knows (the retired solver and
        // pruning switches, whatever their value) are accepted and
        // ignored: same request, same key.
        for retired in [
            "\"batched_fixpoint\":false,",
            "\"prune_dominated\":true,",
            "\"prune_dominated\":false,",
            "\"prune_dominated\":null,",
        ] {
            let legacy = json.replacen(member, &format!("{retired}{member}"), 1);
            assert_ne!(legacy, json, "the body must carry {retired}");
            let legacy: AnalysisRequest =
                serde_json::from_str(&legacy).expect("legacy body parses");
            assert_eq!(legacy, req, "{retired}");
            assert_eq!(legacy.structural_key(), req.structural_key(), "{retired}");
        }
    }

    #[test]
    fn schema_version_defaults_and_validates() {
        let tasks = set(vec![diamond(0, 10, [0, 1, 2, 3]).unwrap()]);
        let mut req = request(tasks);
        assert_eq!(req.schema_version(), 1);
        assert_eq!(req.check_schema(), Ok(1));
        // A v1 JSON body (no "schema" member) parses to schema: None.
        let json = serde_json::to_string(&req).expect("serialize");
        let stripped = json.replacen("\"schema\":null,", "", 1);
        assert_ne!(json, stripped, "schema member must be present to strip");
        let v1: AnalysisRequest = serde_json::from_str(&stripped).expect("v1 body parses");
        assert_eq!(v1.schema, None);
        // Declaring a supported version is accepted; an unknown one is
        // rejected with the supported list, and never changes the key.
        let base_key = req.structural_key();
        req.schema = Some(2);
        assert_eq!(req.check_schema(), Ok(2));
        assert_eq!(req.structural_key(), base_key);
        req.schema = Some(7);
        let err = req.check_schema().unwrap_err();
        assert!(err.contains("unsupported schema version 7"), "{err}");
        assert!(err.contains("1, 2"), "{err}");
        assert_eq!(req.structural_key(), base_key);
    }

    #[test]
    fn knobs_above_their_ceilings_are_named() {
        let mut req = request(set(vec![diamond(0, 10, [0, 1, 2, 3]).unwrap()]));
        assert_eq!(req.check_limits(), Ok(()));
        req.config = AnalysisConfig {
            search_probe_budget: Some(1_024),
            max_fixpoint_iterations: 4_096,
            path_signature_cap: 65_536,
            path_visit_cap: 20_000_000,
            ..AnalysisConfig::ep()
        };
        assert_eq!(req.check_limits(), Ok(()), "the ceilings themselves pass");
        let over = |f: fn(&mut AnalysisConfig)| {
            let mut r = req.clone();
            f(&mut r.config);
            r.check_limits().unwrap_err()
        };
        let err = over(|c| c.search_probe_budget = Some(1_000_000_000));
        assert_eq!(
            err,
            "config.search_probe_budget 1000000000 exceeds its ceiling of 1024"
        );
        assert!(over(|c| c.max_fixpoint_iterations = 4_097).contains("max_fixpoint_iterations"));
        assert!(over(|c| c.path_signature_cap = 65_537).contains("path_signature_cap"));
        assert!(over(|c| c.path_visit_cap = 20_000_001).contains("path_visit_cap"));
    }

    #[test]
    fn read_requests_change_the_key() {
        // Same counts and lengths, one request flipped to read: the key
        // must differ (the verdict can differ under RW-aware protocols).
        let write_only = set(vec![diamond(0, 10, [0, 1, 2, 3]).unwrap()]);
        let with_read = {
            let dag = Dag::new(4, [(0, 1), (0, 2), (1, 3), (2, 3)]).unwrap();
            let t = DagTask::builder(TaskId::new(0), Time::from_ms(10))
                .dag(dag)
                .vertex(VertexSpec::new(Time::from_us(100)))
                .vertex(VertexSpec::with_requests(
                    Time::from_us(200),
                    [RequestSpec::read(ResourceId::new(0), 2)],
                ))
                .vertex(VertexSpec::with_requests(
                    Time::from_us(300),
                    [RequestSpec::new(ResourceId::new(1), 1)],
                ))
                .vertex(VertexSpec::new(Time::from_us(150)))
                .critical_section(ResourceId::new(0), Time::from_us(10))
                .critical_section(ResourceId::new(1), Time::from_us(20))
                .build()
                .unwrap();
            set(vec![t])
        };
        let base = request(write_only).structural_key();
        let rw = request(with_read.clone()).structural_key();
        assert_ne!(base, rw, "access mode must be folded in for readers");

        // And the declared read length is part of the key too.
        let shorter_reads = {
            let dag = Dag::new(4, [(0, 1), (0, 2), (1, 3), (2, 3)]).unwrap();
            let t = DagTask::builder(TaskId::new(0), Time::from_ms(10))
                .dag(dag)
                .vertex(VertexSpec::new(Time::from_us(100)))
                .vertex(VertexSpec::with_requests(
                    Time::from_us(200),
                    [RequestSpec::read(ResourceId::new(0), 2)],
                ))
                .vertex(VertexSpec::with_requests(
                    Time::from_us(300),
                    [RequestSpec::new(ResourceId::new(1), 1)],
                ))
                .vertex(VertexSpec::new(Time::from_us(150)))
                .critical_section(ResourceId::new(0), Time::from_us(10))
                .read_critical_section(ResourceId::new(0), Time::from_us(5))
                .critical_section(ResourceId::new(1), Time::from_us(20))
                .build()
                .unwrap();
            set(vec![t])
        };
        assert_ne!(rw, request(shorter_reads).structural_key());
    }
}
