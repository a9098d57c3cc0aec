//! Search-in-the-loop placement (ROADMAP item 3): a deterministic,
//! budgeted local-search optimizer over the joint space of resource-home
//! assignments and task-to-processor partitions.
//!
//! Algorithm 1 explores exactly one trajectory through that space: the
//! greedy top-up chain under a fixed bin-packing heuristic. DPCP's whole
//! premise is that resource *placement* drives schedulability, so
//! [`PlacementSearch`] widens the exploration: starting from the
//! heuristic solution it proposes typed local moves ([`SearchMove`] —
//! relocate a resource home, migrate a processor between clusters, swap
//! a pair of homes), scores every candidate with the resident
//! [`AnalysisSession`] (the `SignatureCache`/`EvalScratch` memoization
//! makes a probe cheap — signatures depend only on the task set, never
//! on the candidate placement), and keeps the best placement seen.
//!
//! Four contracts make the search admissible under the repo's
//! determinism discipline and keep it cheap:
//!
//! - **Pure acceptance schedule.** Move proposal and the uphill
//!   acceptance coin for step `s` are drawn from a splitmix64 stream
//!   seeded with `mix(seed, s)` — a pure function of `(seed, step)`,
//!   independent of wall clock, thread count, or shard split.
//! - **Hard probe budget.** At most [`SearchConfig::probe_budget`]
//!   analysis probes run per task set; the proposal loop is bounded even
//!   when every proposal is invalid.
//! - **Never worse than the best heuristic seed.** The WFD/FFD/BFD
//!   solutions are the initial population: if any heuristic seed is
//!   schedulable its outcome is returned verbatim (bit-identical,
//!   zero probes); search only runs when every seed fails, and only
//!   replaces the seed outcome on strict improvement (a schedulable
//!   candidate).
//! - **No probes when the bound proves every placement fails.** Before
//!   the probe loop, [`cluster_width_floors`] evaluates a placement-free
//!   lower bound of Theorem 1 on every task's longest path and returns
//!   each task's width floor `w_i`: the narrowest cluster on which the
//!   task can pass. If it names a task that fails even on the widest
//!   cluster (`m − n + 1`), or the floors cannot fit on the platform
//!   together (`Σ w_i > m`), no candidate of the move space (clusters of
//!   size ≥ 1 summing to ≤ m, homes anywhere) can be schedulable, so the
//!   seed outcome is returned with zero probes — the same verdict the
//!   loop would have reached. The proof is in
//!   [`analysis::screen`](crate::analysis::screen).

use std::collections::BTreeMap;

use dpcp_model::{Partition, Platform, ProcessorId, ResourceId, TaskSet};

use crate::analysis::{cluster_width_floors, SchedulabilityReport};
use crate::partition::{
    assign_resources, initial_sizes, layout_clusters, PartitionOutcome, ResourceHeuristic,
};
use crate::registry::ProtocolAnalysis;
use crate::session::AnalysisSession;

/// Tuning knobs for [`PlacementSearch`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SearchConfig {
    /// Seed of the move-proposal / acceptance stream. Every random draw
    /// of step `s` is a pure function of `(seed, s)`.
    pub seed: u64,
    /// Maximum number of analysis probes per task set (the hard budget
    /// of the issue statement). Each proposal step costs at most one
    /// probe; the step loop itself is bounded at `2 × probe_budget` so
    /// degenerate instances with no valid moves still terminate.
    pub probe_budget: usize,
}

impl Default for SearchConfig {
    fn default() -> Self {
        SearchConfig {
            seed: 2020,
            probe_budget: 400,
        }
    }
}

/// A typed local move over the joint placement space. Resource indices
/// point into the ascending [`TaskSet::global_resources`] list; bins are
/// task indices (cluster `i` belongs to task `i`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SearchMove {
    /// Re-home one global resource onto `(bin, slot)`; the concrete
    /// processor is `clusters[bin][slot % len]`, so the home stays valid
    /// when a later migration resizes the cluster.
    RelocateHome {
        /// Index into the ascending global-resource list.
        resource: usize,
        /// Destination cluster (task index).
        bin: usize,
        /// Slot within the destination cluster (taken modulo its size).
        slot: usize,
    },
    /// Move one processor from task `from`'s cluster to task `to`'s
    /// (donor keeps at least one processor), or grow `to` from the
    /// platform's unassigned pool when `from == to` and spare capacity
    /// exists.
    MigrateProcessor {
        /// Donor task index.
        from: usize,
        /// Receiving task index.
        to: usize,
    },
    /// Exchange the `(bin, slot)` homes of two global resources.
    SwapHomes {
        /// First resource index.
        a: usize,
        /// Second resource index.
        b: usize,
    },
}

/// What one [`PlacementSearch::run`] did.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchOutcome {
    /// The final verdict: either a heuristic seed's outcome verbatim or
    /// a strictly improving placement found by search.
    pub outcome: PartitionOutcome,
    /// Analysis probes spent by the search loop: 0 when a heuristic seed
    /// was already schedulable, and 0 when the placement-free screen
    /// proves that no placement of the move space can be.
    pub probes: usize,
    /// `true` when the returned outcome strictly improves on every
    /// heuristic seed (i.e. search found a schedulable placement where
    /// all of WFD/FFD/BFD failed).
    pub improved: bool,
}

/// Candidate score, compared lexicographically: fewer failing tasks
/// first, then less total lateness. `failing == 0` is schedulable.
///
/// Lateness is `Σ D_i` over the failing tasks. The solvers return a bound
/// only at or below `D_i`, so a failing task never carries a finite
/// overshoot: a diverged recurrence is all a failure can be.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Score {
    failing: usize,
    lateness_ns: u128,
}

impl Score {
    fn of(tasks: &TaskSet, report: &SchedulabilityReport) -> Score {
        let mut score = Score {
            failing: 0,
            lateness_ns: 0,
        };
        for bound in report.task_bounds.iter().filter(|b| !b.schedulable) {
            score.failing += 1;
            score.lateness_ns += u128::from(tasks.task(bound.task).deadline().as_ns());
        }
        score
    }

    fn schedulable(self) -> bool {
        self.failing == 0
    }
}

/// splitmix64 finaliser — the same mixer behind the harness's per-sample
/// seeds, so search streams inherit the established seed discipline.
fn mix(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// The per-step draw stream: seeded purely from `(seed, step)`.
struct StepRng(u64);

impl StepRng {
    fn for_step(seed: u64, step: u64) -> StepRng {
        StepRng(mix(seed
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(step)))
    }

    fn next(&mut self) -> u64 {
        self.0 = mix(self.0.wrapping_add(0x9e37_79b9_7f4a_7c15));
        self.0
    }
}

/// One point of the joint placement space. Homes are stored as
/// `(bin, slot)` coordinates rather than concrete processors so a
/// cluster resize never invalidates them.
#[derive(Clone)]
struct Candidate {
    sizes: Vec<usize>,
    homes: Vec<(usize, usize)>,
}

impl Candidate {
    /// Materializes the candidate into a concrete [`Partition`].
    /// `None` only when the sizes exceed the platform (the move set
    /// never produces that).
    fn materialize(
        &self,
        tasks: &TaskSet,
        platform: &Platform,
        globals: &[ResourceId],
    ) -> Option<Partition> {
        let layout = layout_clusters(&self.sizes, platform.processor_count())?;
        let mut homes: BTreeMap<ResourceId, ProcessorId> = BTreeMap::new();
        for (i, &q) in globals.iter().enumerate() {
            let (bin, slot) = self.homes[i];
            let cluster = &layout[bin];
            homes.insert(q, cluster[slot % cluster.len()]);
        }
        Partition::new(tasks, platform, layout, homes).ok()
    }

    fn apply(&mut self, mv: SearchMove) {
        match mv {
            SearchMove::RelocateHome {
                resource,
                bin,
                slot,
            } => self.homes[resource] = (bin, slot),
            SearchMove::MigrateProcessor { from, to } => {
                if from != to {
                    self.sizes[from] -= 1;
                }
                self.sizes[to] += 1;
            }
            SearchMove::SwapHomes { a, b } => self.homes.swap(a, b),
        }
    }
}

/// The search engine. See the module docs for the determinism and
/// never-worse contracts.
#[derive(Debug, Clone, Default)]
pub struct PlacementSearch {
    cfg: SearchConfig,
}

impl PlacementSearch {
    /// Builds an engine with the given knobs.
    pub fn new(cfg: SearchConfig) -> Self {
        PlacementSearch { cfg }
    }

    /// The configured knobs.
    pub fn config(&self) -> &SearchConfig {
        &self.cfg
    }

    /// Proposes the move of step `step`, or `None` when the draw lands
    /// on a move that is invalid for this instance (the step is simply
    /// skipped; no probe is spent).
    fn propose(
        &self,
        rng: &mut StepRng,
        cand: &Candidate,
        n_tasks: usize,
        n_globals: usize,
        spare: usize,
    ) -> Option<SearchMove> {
        match rng.next() % 3 {
            0 if n_globals > 0 => Some(SearchMove::RelocateHome {
                resource: (rng.next() as usize) % n_globals,
                bin: (rng.next() as usize) % n_tasks,
                slot: (rng.next() as usize) % 16,
            }),
            1 => {
                let from = (rng.next() as usize) % n_tasks;
                let to = (rng.next() as usize) % n_tasks;
                if from == to || rng.next().is_multiple_of(4) {
                    // Grow from the unassigned pool when capacity remains.
                    (spare > 0).then_some(SearchMove::MigrateProcessor { from: to, to })
                } else {
                    (cand.sizes[from] > 1).then_some(SearchMove::MigrateProcessor { from, to })
                }
            }
            2 if n_globals > 1 => {
                let a = (rng.next() as usize) % n_globals;
                let b = (rng.next() as usize) % n_globals;
                (a != b).then_some(SearchMove::SwapHomes { a, b })
            }
            _ => None,
        }
    }

    /// Runs the search for one task set: heuristic seeds first, then —
    /// only if every seed fails — the budgeted annealing loop.
    ///
    /// Light-containing task sets take the seed path only (the move set
    /// covers the federated heavy layout; Sec. VI shared light pools are
    /// out of its space), so the never-worse contract holds trivially
    /// there.
    pub fn run(
        &self,
        session: &mut AnalysisSession,
        inner: &dyn ProtocolAnalysis,
        tasks: &TaskSet,
        platform: &Platform,
        heuristic: ResourceHeuristic,
    ) -> SearchOutcome {
        // Seed population: the requested heuristic first, then the rest
        // in canonical order. The first schedulable seed is returned
        // verbatim — bit-identical to the wrapped protocol under that
        // heuristic.
        let mut order = vec![heuristic];
        for h in [
            ResourceHeuristic::WorstFitDecreasing,
            ResourceHeuristic::FirstFitDecreasing,
            ResourceHeuristic::BestFitDecreasing,
        ] {
            if h != heuristic {
                order.push(h);
            }
        }
        let mut fallback = None;
        for h in order {
            let outcome = inner.evaluate(session, tasks, platform, h);
            if outcome.is_schedulable() {
                return SearchOutcome {
                    outcome,
                    probes: 0,
                    improved: false,
                };
            }
            fallback.get_or_insert(outcome);
        }
        let fallback = fallback.expect("at least one heuristic seed ran");
        let seeded = SearchOutcome {
            outcome: fallback,
            probes: 0,
            improved: false,
        };

        if tasks.iter().any(|t| !t.is_heavy()) {
            return seeded;
        }
        let m = platform.processor_count();
        let Ok(sizes) = initial_sizes(tasks) else {
            // A task with `L*_i ≥ D_i` fits no cluster of the move space.
            return seeded;
        };
        if sizes.iter().sum::<usize>() > m || self.cfg.probe_budget == 0 {
            // Not even the initial federated assignment fits (no local
            // move can repair an over-demanded platform), or search is
            // disabled outright.
            return seeded;
        }
        let max_iters = session.config().max_fixpoint_iterations;
        let floors_fit = cluster_width_floors(tasks, m, max_iters)
            .is_ok_and(|floors| floors.iter().sum::<usize>() <= m);
        if !floors_fit {
            // Some task fails under every placement of the move space, so
            // no probe can improve on the seeds.
            return seeded;
        }
        let globals: Vec<ResourceId> = tasks.global_resources().collect();
        let n = tasks.len();

        // Initial candidate: the heuristic's own round-1 placement,
        // re-expressed in resize-stable (bin, slot) coordinates.
        let layout = layout_clusters(&sizes, m).expect("sum checked above");
        let mut by_processor: BTreeMap<ProcessorId, (usize, usize)> = BTreeMap::new();
        for (bin, cluster) in layout.iter().enumerate() {
            for (slot, &p) in cluster.iter().enumerate() {
                by_processor.insert(p, (bin, slot));
            }
        }
        let seed_homes = assign_resources(tasks, &layout, heuristic);
        let homes: Vec<(usize, usize)> = globals
            .iter()
            .enumerate()
            .map(|(i, q)| match &seed_homes {
                Some(map) => by_processor[&map[q]],
                // Capacity-infeasible seed: deal homes round-robin.
                None => (i % n, 0),
            })
            .collect();
        let mut cur = Candidate { sizes, homes };

        let budget = self.cfg.probe_budget;
        let mut probes = 0usize;
        // `best` holds the first schedulable placement found; any such
        // candidate is a strict improvement (every seed failed) and ends
        // the search.
        let mut best: Option<(Partition, SchedulabilityReport)> = None;
        let mut cur_score = match cur.materialize(tasks, platform, &globals) {
            Some(partition) => {
                let report = session.analyze(tasks, &partition);
                probes += 1;
                let score = Score::of(tasks, &report);
                if score.schedulable() {
                    best = Some((partition, report));
                }
                score
            }
            None => return seeded,
        };

        // The step loop is bounded at 2 × budget so instances where most
        // proposals are invalid (e.g. a single task and one resource)
        // still terminate with probes to spare.
        let mut step = 0u64;
        while best.is_none() && probes < budget && step < 2 * budget as u64 {
            let mut rng = StepRng::for_step(self.cfg.seed, step);
            step += 1;
            let spare = m - cur.sizes.iter().sum::<usize>();
            let Some(mv) = self.propose(&mut rng, &cur, n, globals.len(), spare) else {
                continue;
            };
            let mut cand = cur.clone();
            cand.apply(mv);
            let Some(partition) = cand.materialize(tasks, platform, &globals) else {
                continue;
            };
            let report = session.analyze(tasks, &partition);
            probes += 1;
            let score = Score::of(tasks, &report);
            if score.schedulable() {
                best = Some((partition, report));
                break;
            }
            // Downhill/plateau moves are always taken; uphill moves pass
            // a linearly cooling coin — acceptance probability decays
            // from 1/4 to 0 as the probe budget drains, drawn from the
            // step's pure `(seed, step)` stream.
            let accept = score <= cur_score
                || u128::from(rng.next() % 1024) * (budget as u128)
                    < 256 * (budget.saturating_sub(probes) as u128);
            if accept {
                cur = cand;
                cur_score = score;
            }
        }

        match best {
            Some((partition, report)) => SearchOutcome {
                outcome: PartitionOutcome::Schedulable {
                    partition,
                    report,
                    rounds: probes,
                },
                probes,
                improved: true,
            },
            None => SearchOutcome { probes, ..seeded },
        }
    }
}
