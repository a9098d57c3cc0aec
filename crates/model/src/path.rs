//! Complete paths `λ_i` and their analysis signatures.
//!
//! The per-path WCRT bound of Sec. IV depends on a path only through its
//! length `L(λ_i)`, its non-critical length, and its per-resource request
//! counts `N^λ_{i,q}`. [`PathSignature`] captures exactly that triple, so
//! paths that agree on it are interchangeable for the analysis and can be
//! deduplicated — which is what makes enumerating the (combinatorially
//! many) complete paths of dense DAGs tractable.
//!
//! # The enumerator and its reference
//!
//! - [`enumerate_signatures_dp_capped`] is the one the analysis runs. It
//!   works in the *signature domain*: vertices are processed in
//!   topological order, each vertex holds the longest partial signature
//!   of its head-to-here prefixes per request profile, and identical or
//!   dominated partials are collapsed **at every merge point** before they
//!   fan out again. Work is bounded by `Σ_v |frontier(v)| · out-degree(v)`
//!   — the number of *distinct* partial request profiles, not the number
//!   of paths — which turns the `2^k` paths of a `k`-diamond chain into
//!   `O(k)` extensions when the branches agree.
//! - [`enumerate_signatures_capped`] walks every complete path
//!   depth-first and dedups at the sink, without pruning. It is the test
//!   reference, but exponential in path count on dense DAGs (hence its
//!   visit cap).
//!
//! Whenever neither hits a cap, the DP's list is exactly the reference's
//! after [`prune_dominated_signatures`], in the shared output order; the
//! seeded sweep in `tests/signature_dp.rs` asserts this and that both
//! lists give the same analysis.
//!
//! # Dominance pruning (always on) — monotonicity note
//!
//! [`prune_dominated_signatures`] drops a signature `A` when another
//! signature `B` with the **identical request vector** has `L(A) ≤ L(B)`
//! and critical content `L(A) − noncrit(A) ≤ L(B) − noncrit(B)`. With
//! equal `N^λ` vectors every request-dependent term of Theorem 1 (the
//! per-request bounds `W_{i,q}`, the ε table of Eq. 4, Lemma 4's `b_i`,
//! the off-path request terms of Lemma 5 and Eq. 9) coincides for `A` and
//! `B`; the remaining dependence is `L(λ)` (the recurrence's additive
//! start, weight 1) and the off-path non-critical work `C'_i − noncrit(λ)`
//! inside Lemma 5, which enters **divided by `m_i` under a ceiling**. For
//! every window `r`:
//!
//! `rhs_B(r) − rhs_A(r) ≥ (L(B) − L(A)) − (noncrit(B) − noncrit(A))`
//!
//! because `⌈(S + t)/m⌉ ≤ ⌈S/m⌉ + t` for integer `t ≥ 0, m ≥ 1`. The
//! right-hand side equals `(L(B) − noncrit(B)) − (L(A) − noncrit(A)) ≥ 0`
//! under the rule above, so `rhs_A(r) ≤ rhs_B(r)` everywhere, the least
//! fixed point satisfies `r_A ≤ r_B`, and `A` can never be the binding
//! (maximal) EP path — dropping it leaves the task bound unchanged. For
//! signatures of actual task paths the critical content is a *function of
//! the request vector* (`L − noncrit = Σ_q N^λ_q · L_{i,q}`), so within a
//! profile group the rule degenerates to `L(A) ≤ L(B)`: only the longest
//! path per distinct request vector survives.
//!
//! The relation deliberately does **not** compare across different request
//! vectors: the bound is *not* monotone in `N^λ_{i,q}` alone. An extra
//! on-path request raises ε/Lemma-2 terms but *lowers* the off-path terms
//! `(N_{i,q} − N^λ_{i,q}) · L_{i,q}` of Lemmas 4/5 and Eq. 9, so a
//! component-wise `≤` on request counts can flip either way (that mixed
//! monotonicity is exactly why the EN variant maximises each term
//! separately). Pruning with mismatched request vectors would be unsound.
//!
//! One subtlety: pruning cannot turn a divergent task schedulable. With
//! equal request vectors `A` and `B` share their `W_{i,q}` recurrences, and
//! `rhs_A ≤ rhs_B` pointwise means `B`'s fixed point (or divergence beyond
//! the deadline) dominates `A`'s. The only caveat is the iteration budget:
//! a pruned `A` could in principle need more iterates than `B` under an
//! artificially tiny `max_fixpoint_iterations`; the default budget (512)
//! together with the demand-table early exit decides far earlier.

use core::ops::ControlFlow;
use std::collections::{HashMap, HashSet};

use serde::{Deserialize, Serialize};

use crate::ids::{ResourceId, VertexId};
use crate::task::DagTask;
use crate::time::Time;

/// The analysis-relevant abstraction of one complete path.
///
/// # Examples
///
/// ```
/// use dpcp_model::fig1;
/// use dpcp_model::path::PathSignature;
///
/// let (ti, _tj) = fig1::tasks()?;
/// // The longest path of the Fig. 1 task G_i has length 10 (time units).
/// let sig = PathSignature::from_path(&ti, ti.longest_path());
/// assert_eq!(sig.len(), fig1::unit() * 10);
/// # Ok::<(), dpcp_model::ModelError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct PathSignature {
    len: Time,
    noncritical: Time,
    /// `N^λ_{i,q}` per requested resource; sorted, zero counts omitted.
    requests: Vec<(ResourceId, u32)>,
}

impl PathSignature {
    /// Computes the signature of `path` (a vertex sequence of `task`).
    ///
    /// # Panics
    ///
    /// Panics if a vertex index is out of range for the task.
    pub fn from_path(task: &DagTask, path: &[VertexId]) -> Self {
        let mut len = Time::ZERO;
        let mut noncritical = Time::ZERO;
        let mut counts: Vec<(ResourceId, u32)> = Vec::new();
        for &v in path {
            let spec = task.vertex(v);
            len = len.saturating_add(spec.wcet());
            noncritical = noncritical.saturating_add(task.vertex_noncritical_wcet(v));
            for r in spec.requests() {
                match counts.binary_search_by_key(&r.resource, |&(q, _)| q) {
                    Ok(i) => counts[i].1 += r.count,
                    Err(i) => counts.insert(i, (r.resource, r.count)),
                }
            }
        }
        PathSignature {
            len,
            noncritical,
            requests: counts,
        }
    }

    /// The path length `L(λ)` (sum of vertex WCETs on the path).
    #[inline]
    pub fn len(&self) -> Time {
        self.len
    }

    /// `true` when the path has zero length (degenerate, only possible with
    /// zero-WCET vertices).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len.is_zero()
    }

    /// The non-critical portion of the path length,
    /// `Σ_{v ∈ λ} C'_{i,x}`.
    #[inline]
    pub fn noncritical_len(&self) -> Time {
        self.noncritical
    }

    /// The per-resource path request counts `N^λ_{i,q}` (sorted, non-zero).
    #[inline]
    pub fn requests(&self) -> &[(ResourceId, u32)] {
        &self.requests
    }

    /// The path request count `N^λ_{i,q}` for one resource.
    pub fn request_count(&self, resource: ResourceId) -> u32 {
        self.requests
            .binary_search_by_key(&resource, |&(q, _)| q)
            .map(|i| self.requests[i].1)
            .unwrap_or(0)
    }

    /// Returns `true` if the path requests `resource` at least once.
    pub fn requests_resource(&self, resource: ResourceId) -> bool {
        self.request_count(resource) > 0
    }
}

/// The deterministic output order shared by both enumerators: length
/// descending, then request vector ascending, then non-critical length
/// ascending. The order is analysis-friendly: under dominance pruning a
/// dominator always sorts *before* the signatures it dominates (longer
/// first; on equal length and requests, smaller non-critical first), so the
/// binding-path tie-break (`>` keeps the earliest maximum) is unaffected by
/// pruning.
fn sort_signatures(signatures: &mut [PathSignature]) {
    signatures.sort_by(|a, b| {
        b.len
            .cmp(&a.len)
            .then_with(|| a.requests.cmp(&b.requests))
            .then_with(|| a.noncritical.cmp(&b.noncritical))
    });
}

/// The outcome of enumerating a task's complete paths with deduplication.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PathSignatures {
    /// Distinct signatures found (at most the requested cap).
    pub signatures: Vec<PathSignature>,
    /// `true` when enumeration stopped at a cap; callers must then treat
    /// the list as incomplete and combine it with a bound that dominates
    /// every path (e.g. the EN bound). The analysis surfaces this through
    /// `TaskBound::truncated` and the report-level aggregate.
    pub truncated: bool,
    /// Enumeration work performed (diagnostic): complete paths walked by
    /// the DFS enumerator, partial-signature extensions performed by the
    /// DP enumerator. Not part of the equivalence contract between the two.
    pub paths_visited: u64,
}

/// Enumerates the distinct path signatures of `task`, visiting complete
/// paths depth-first and stopping after `cap` *distinct* signatures have
/// been collected (a further distinct signature marks the result
/// truncated).
///
/// The longest path's signature is always included, even under truncation,
/// so downstream analyses never miss the critical path.
///
/// # Examples
///
/// ```
/// use dpcp_model::fig1;
/// use dpcp_model::path::enumerate_signatures;
///
/// let (ti, _) = fig1::tasks()?;
/// let sigs = enumerate_signatures(&ti, 100);
/// assert!(!sigs.truncated);
/// // G_i of Fig. 1 has 4 complete paths; two of them (through v3 and v4)
/// // agree on (length, requests) and collapse into one signature.
/// assert_eq!(sigs.paths_visited, 4);
/// assert_eq!(sigs.signatures.len(), 3);
/// # Ok::<(), dpcp_model::ModelError>(())
/// ```
pub fn enumerate_signatures(task: &DagTask, cap: usize) -> PathSignatures {
    enumerate_signatures_capped(task, cap, u64::MAX)
}

/// Like [`enumerate_signatures`], additionally stopping after `visit_cap`
/// complete paths have been walked (dense DAGs can have combinatorially
/// many paths even when few signatures are distinct; the visit cap bounds
/// enumeration time itself). Hitting either cap marks the result truncated.
pub fn enumerate_signatures_capped(task: &DagTask, cap: usize, visit_cap: u64) -> PathSignatures {
    let cap = cap.max(1);
    let visit_cap = visit_cap.max(1);
    let mut seen: HashSet<PathSignature> = HashSet::new();
    let mut paths_visited = 0u64;
    let mut truncated = false;
    task.dag().for_each_path(|path| {
        paths_visited += 1;
        let sig = PathSignature::from_path(task, path);
        if seen.len() >= cap && !seen.contains(&sig) {
            truncated = true;
            return ControlFlow::Break(());
        }
        seen.insert(sig);
        if paths_visited >= visit_cap {
            truncated = true;
            return ControlFlow::Break(());
        }
        ControlFlow::Continue(())
    });

    let mut signatures: Vec<PathSignature> = seen.into_iter().collect();
    let longest = PathSignature::from_path(task, task.longest_path());
    if !signatures.contains(&longest) {
        signatures.push(longest);
    }
    // Deterministic order for reproducible analysis output.
    sort_signatures(&mut signatures);
    PathSignatures {
        signatures,
        truncated,
        paths_visited,
    }
}

/// Enumerates the dominance-pruned path signatures of `task` with the
/// signature-domain dynamic program (see the module docs), stopping after
/// `cap` distinct signatures. Without truncation its set is
/// [`prune_dominated_signatures`] of [`enumerate_signatures`]'s, but the
/// work is polynomial in the number of *distinct* partial signatures
/// instead of exponential in the number of paths.
///
/// # Examples
///
/// ```
/// use dpcp_model::fig1;
/// use dpcp_model::path::{enumerate_signatures, enumerate_signatures_dp, prune_dominated_signatures};
///
/// let (ti, _) = fig1::tasks()?;
/// let mut reference = enumerate_signatures(&ti, 100).signatures;
/// prune_dominated_signatures(&mut reference);
/// let dp = enumerate_signatures_dp(&ti, 100);
/// assert!(!dp.truncated);
/// // The same set; the pruned reference's order is unspecified.
/// assert_eq!(dp.signatures.len(), reference.len());
/// assert!(dp.signatures.iter().all(|s| reference.contains(s)));
/// # Ok::<(), dpcp_model::ModelError>(())
/// ```
pub fn enumerate_signatures_dp(task: &DagTask, cap: usize) -> PathSignatures {
    enumerate_signatures_dp_capped(task, cap, u64::MAX)
}

/// The signature-domain dynamic program behind the EP analysis.
///
/// Vertices are processed in topological order; `reach[v]` holds, per
/// request profile, the longest partial signature of all head-to-`v`
/// prefixes (with `v` included). This is dominance pruning at every merge
/// point, and it is exact: a suffix adds the same length and requests to
/// every prefix it extends, so a shorter same-profile prefix only ever
/// completes to a dominated path. Tail frontiers are the complete-path
/// signatures. Frontiers are freed as soon as every successor has
/// consumed them, so memory follows the live topological cut.
///
/// A frontier is a `Vec<(profile, absolute length)>`, and per-vertex
/// work is linear in the incoming pairs via two stamped dense arrays
/// indexed by interned profile id:
///
/// - `trans_*` memoizes the `profile · vertex → profile` transition for
///   the vertex being processed (each `(profile, vertex)` pair occurs at
///   exactly one vertex visit, so a global memo buys nothing more),
/// - `seen_*` dedups the outgoing profiles, folding same-profile arrivals
///   with a running max — the dominance rule applied on the fly.
///
/// Cap semantics mirror [`enumerate_signatures_capped`] in *meaning* —
/// `cap` bounds distinct signatures, `visit_cap` bounds enumeration work
/// (counted in partial-signature extensions, the DP's analogue of a path
/// visit), hitting either marks the result truncated — with one deliberate
/// refinement: on hitting a cap the DP **bails to thin mode** (every later
/// frontier keeps only its single longest partial, so enumeration finishes
/// in `O(|V| · max-degree)`) instead of carrying a `cap`-wide frontier to
/// the sinks the way the DFS carries its first-`cap` subset. A truncated
/// result therefore holds few signatures (the surviving thin spine plus the
/// ensured longest), not `cap` of them. This is outcome-preserving: a
/// truncated enumeration makes the analysis report the EN fallback, whose
/// bound dominates *every* per-path bound term-wise, so the capped subset
/// the DFS returns costs Theorem 1 evaluations without ever changing the
/// task verdict. `cap` counts the pruned set, so the DP truncates on it
/// only where the DFS, which counts every distinct signature, does too;
/// the visit caps count different work, so either side may exhaust its
/// own first (a deep chain costs the DP one extension per vertex, a dense
/// DAG costs the DFS one visit per path). Both remain sound.
///
/// The longest path's signature is always included, even under
/// truncation, so downstream analyses never miss the critical path.
/// Pruning never drops it: a same-profile signature at least as long is
/// the longest path's own.
pub fn enumerate_signatures_dp_capped(
    task: &DagTask,
    cap: usize,
    visit_cap: u64,
) -> PathSignatures {
    let cap = cap.max(1);
    let visit_cap = visit_cap.max(1);
    let dag = task.dag();
    let n = dag.vertex_count();
    let mut interner = ProfileInterner::new(task);
    let weights: Vec<u64> = (0..n)
        .map(|x| task.vertex(VertexId::new(x)).wcet().as_ns())
        .collect();

    let mut reach: Vec<Vec<(u32, u64)>> = vec![Vec::new(); n];
    // How many successors still need each frontier; 0 ⇒ recycled.
    let mut pending: Vec<usize> = (0..n).map(|x| dag.out_degree(VertexId::new(x))).collect();
    let mut pool: Vec<Vec<(u32, u64)>> = Vec::new();
    // Complete-path `(profile, absolute length)` pairs collected at tails.
    let mut complete: Vec<(u32, u64)> = Vec::new();
    let mut extensions = 0u64;
    let mut truncated = false;
    let mut exhausted = false;

    // Stamped scratch, one slot per interned profile; a slot is live for
    // the current vertex iff its stamp equals the vertex epoch.
    let mut trans_stamp: Vec<u32> = vec![0];
    let mut trans_val: Vec<u32> = vec![0];
    let mut seen_stamp: Vec<u32> = vec![0];
    let mut seen_slot: Vec<u32> = vec![0];

    for (epoch0, &v) in dag.topological_order().iter().enumerate() {
        let epoch = u32::try_from(epoch0 + 1).expect("vertex count fits u32");
        let x = v.index();
        let w_v = weights[x];
        let issues_requests = !task.vertex(v).requests().is_empty();
        let mut next = pool.pop().unwrap_or_default();
        next.clear();

        if dag.is_head(v) {
            extensions = extensions.saturating_add(1);
            let p = if issues_requests {
                transition_stamped(
                    &mut interner,
                    &mut trans_stamp,
                    &mut trans_val,
                    &mut seen_stamp,
                    &mut seen_slot,
                    0,
                    v,
                    epoch,
                )
            } else {
                0
            };
            next.push((p, w_v));
        } else {
            for &pr in dag.predecessors(v) {
                for &(p, len_in) in &reach[pr.index()] {
                    extensions = extensions.saturating_add(1);
                    let p2 = if issues_requests {
                        transition_stamped(
                            &mut interner,
                            &mut trans_stamp,
                            &mut trans_val,
                            &mut seen_stamp,
                            &mut seen_slot,
                            p,
                            v,
                            epoch,
                        )
                    } else {
                        p
                    };
                    let abs = len_in.saturating_add(w_v);
                    let slot = &mut seen_stamp[p2 as usize];
                    if *slot != epoch {
                        *slot = epoch;
                        seen_slot[p2 as usize] =
                            u32::try_from(next.len()).expect("frontier fits u32");
                        next.push((p2, abs));
                    } else {
                        let s = seen_slot[p2 as usize] as usize;
                        if abs > next[s].1 {
                            next[s].1 = abs;
                        }
                    }
                }
            }
        }

        for &pr in dag.predecessors(v) {
            pending[pr.index()] -= 1;
            if pending[pr.index()] == 0 {
                pool.push(core::mem::take(&mut reach[pr.index()]));
            }
        }

        // Either cap trips the thin-mode bail-out: the result is truncated,
        // so the analysis will lean on the EN fallback anyway — carrying a
        // wide frontier (or a `cap`-sized subset, as the DFS does) to the
        // sinks would be pure waste. A frontier beyond `cap` makes
        // truncation *inevitable* (any fixed suffix to a tail maps its
        // distinct profiles injectively onto more than `cap` distinct
        // complete profiles), so the bail-out is exact, never premature.
        if next.len() > cap || extensions >= visit_cap {
            truncated = true;
            exhausted = true;
        }
        if exhausted && next.len() > 1 {
            let best = next
                .iter()
                .copied()
                .min_by(|&a, &b| interner.output_cmp(a, b))
                .expect("non-empty frontier");
            next.clear();
            next.push(best);
        }

        if dag.is_tail(v) {
            complete.extend(next.iter().copied());
            pool.push(next);
        } else {
            reach[x] = next;
        }
    }

    // Cross-tail dominance: descending `(profile, length)` puts each
    // profile's longest first, and `dedup_by_key` keeps it. The result
    // depends only on the set of `(request vector, length)` pairs behind
    // the interned ids, never on the order ids were assigned.
    complete.sort_unstable_by(|a, b| b.cmp(a));
    complete.dedup_by_key(|&mut (p, _)| p);
    if complete.len() > cap {
        truncated = true;
        complete.sort_by(|&a, &b| interner.output_cmp(a, b));
        complete.truncate(cap);
    }
    let mut signatures: Vec<PathSignature> = complete
        .into_iter()
        .map(|(p, len)| interner.materialize(p, len))
        .collect();
    let longest = PathSignature::from_path(task, task.longest_path());
    if !signatures.contains(&longest) {
        signatures.push(longest);
    }
    sort_signatures(&mut signatures);
    PathSignatures {
        signatures,
        truncated,
        paths_visited: extensions,
    }
}

/// The DP's per-vertex transition memo: `trans_val[p]` holds
/// `transition(p, vertex)` for the vertex whose epoch matches
/// `trans_stamp[p]`. Grows every stamped array in lockstep when the
/// transition interns a new profile.
#[expect(clippy::too_many_arguments)]
#[inline]
fn transition_stamped(
    interner: &mut ProfileInterner<'_>,
    trans_stamp: &mut Vec<u32>,
    trans_val: &mut Vec<u32>,
    seen_stamp: &mut Vec<u32>,
    seen_slot: &mut Vec<u32>,
    p: u32,
    v: VertexId,
    epoch: u32,
) -> u32 {
    if trans_stamp[p as usize] == epoch {
        return trans_val[p as usize];
    }
    let p2 = interner.transition(p, v);
    let profiles = interner.profiles.len();
    if trans_stamp.len() < profiles {
        trans_stamp.resize(profiles, 0);
        trans_val.resize(profiles, 0);
        seen_stamp.resize(profiles, 0);
        seen_slot.resize(profiles, 0);
    }
    trans_stamp[p as usize] = epoch;
    trans_val[p as usize] = p2;
    p2
}

/// A small multiply-rotate hasher (the FxHash construction) for maps
/// keyed by a few machine words, where the default SipHash costs more
/// than the lookup it guards: the DP's profile interner (probed on every
/// transition the per-vertex memo misses) and the analysis crate's
/// request-bound memo.
#[derive(Debug, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(26) ^ word).wrapping_mul(Self::SEED);
    }
}

impl core::hash::Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add(u64::from_le_bytes(c.try_into().expect("exact chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = 0u64;
            for (i, &b) in rest.iter().enumerate() {
                word |= u64::from(b) << (8 * i);
            }
            self.add(word);
        }
    }

    #[inline]
    fn write_u64(&mut self, word: u64) {
        self.add(word);
    }
}

type FxHashMap<K, V> = HashMap<K, V, core::hash::BuildHasherDefault<FxHasher>>;

/// The DP's request-profile interner: every distinct per-resource request
/// vector reachable along some prefix gets a dense id, together with its
/// critical content `Σ_q N^λ_q · L_{i,q}`. Partial signatures then travel
/// as `(profile id, length)` pairs — the non-critical length is recovered
/// as `len − crit` when materializing, which is bit-identical to
/// [`PathSignature::from_path`]'s per-vertex sum because every vertex WCET
/// contains its critical sections (validated at task construction).
struct ProfileInterner<'a> {
    task: &'a DagTask,
    /// `profiles[id]` — sorted `(resource, count)` vector; id 0 is empty.
    profiles: Vec<Vec<(ResourceId, u32)>>,
    /// The critical content of each profile.
    crit: Vec<Time>,
    lookup: FxHashMap<Vec<(ResourceId, u32)>, u32>,
    /// Candidate-profile build buffer, reused across transitions.
    scratch: Vec<(ResourceId, u32)>,
}

impl<'a> ProfileInterner<'a> {
    fn new(task: &'a DagTask) -> Self {
        let mut lookup = FxHashMap::default();
        lookup.insert(Vec::new(), 0);
        ProfileInterner {
            task,
            profiles: vec![Vec::new()],
            crit: vec![Time::ZERO],
            lookup,
            scratch: Vec::new(),
        }
    }

    /// The profile reached by extending `p` with vertex `v`'s requests:
    /// builds the candidate request vector in the reusable scratch buffer
    /// (no allocation on the intern-hit path) and interns it.
    fn transition(&mut self, p: u32, v: VertexId) -> u32 {
        self.scratch.clear();
        self.scratch.extend_from_slice(&self.profiles[p as usize]);
        for r in self.task.vertex(v).requests() {
            match self.scratch.binary_search_by_key(&r.resource, |&(q, _)| q) {
                Ok(i) => self.scratch[i].1 += r.count,
                Err(i) => self.scratch.insert(i, (r.resource, r.count)),
            }
        }
        match self.lookup.get(&self.scratch) {
            Some(&id) => id,
            None => {
                let id = u32::try_from(self.profiles.len()).expect("profile ids fit u32");
                let crit = self
                    .scratch
                    .iter()
                    .map(|&(q, cnt)| {
                        self.task
                            .cs_length(q)
                            .unwrap_or(Time::ZERO)
                            .saturating_mul(u64::from(cnt))
                    })
                    .sum();
                self.profiles.push(self.scratch.clone());
                self.crit.push(crit);
                self.lookup.insert(self.scratch.clone(), id);
                id
            }
        }
    }

    /// The output ordering of [`sort_signatures`] on interned
    /// `(profile, absolute length in ns)` pairs: length descending, then
    /// request vector ascending. (The third key, non-critical ascending,
    /// never fires here: equal lengths and equal profiles imply equal
    /// non-critical lengths by the coupling.)
    fn output_cmp(&self, a: (u32, u64), b: (u32, u64)) -> core::cmp::Ordering {
        b.1.cmp(&a.1)
            .then_with(|| self.profiles[a.0 as usize].cmp(&self.profiles[b.0 as usize]))
    }

    /// Reconstructs the full signature of an interned partial.
    fn materialize(&self, p: u32, len_ns: u64) -> PathSignature {
        let len = Time::from_ns(len_ns);
        PathSignature {
            len,
            noncritical: len.saturating_sub(self.crit[p as usize]),
            requests: self.profiles[p as usize].clone(),
        }
    }
}

/// Removes every signature that is *dominated* by another one in the sense
/// of the module-level monotonicity note: `A` is dropped when some distinct
/// `B` has the identical request vector, `B.len() ≥ A.len()` and critical
/// content `B.len() − B.noncritical_len() ≥ A.len() − A.noncritical_len()`.
/// A dominated signature's Theorem 1 recurrence is bounded pointwise by its
/// dominator's, so it can never be the binding EP path; the kept set is the
/// per-request-profile Pareto frontier over `(length, critical content)` —
/// for signatures of actual task paths (where the critical content is
/// determined by the request vector) exactly the longest signature of each
/// distinct request profile.
///
/// The surviving signatures are left in an unspecified order; callers sort
/// afterwards.
pub fn prune_dominated_signatures(signatures: &mut Vec<PathSignature>) {
    if signatures.len() < 2 {
        return;
    }
    let crit = |s: &PathSignature| s.len.saturating_sub(s.noncritical);
    // Group by request vector; within a group, length descending (then
    // critical content descending): a signature is dominated exactly when
    // an earlier group member also has critical content ≥ its own.
    signatures.sort_by(|a, b| {
        a.requests
            .cmp(&b.requests)
            .then_with(|| b.len.cmp(&a.len))
            .then_with(|| crit(b).cmp(&crit(a)))
    });
    let mut keep = vec![false; signatures.len()];
    let mut i = 0;
    while i < signatures.len() {
        let mut max_crit: Option<Time> = None;
        let mut j = i;
        while j < signatures.len() && signatures[j].requests == signatures[i].requests {
            let c = crit(&signatures[j]);
            if max_crit.is_none_or(|m| c > m) {
                keep[j] = true;
                max_crit = Some(c);
            }
            j += 1;
        }
        i = j;
    }
    let mut idx = 0;
    signatures.retain(|_| {
        let k = keep[idx];
        idx += 1;
        k
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Dag;
    use crate::ids::TaskId;
    use crate::task::{RequestSpec, VertexSpec};

    fn rid(i: usize) -> ResourceId {
        ResourceId::new(i)
    }

    /// Diamond where both branches have the same WCET but different
    /// requests.
    fn task_with_branches() -> DagTask {
        let dag = Dag::new(4, [(0, 1), (0, 2), (1, 3), (2, 3)]).unwrap();
        DagTask::builder(TaskId::new(0), Time::from_ms(10))
            .dag(dag)
            .vertex(VertexSpec::new(Time::from_us(100)))
            .vertex(VertexSpec::with_requests(
                Time::from_us(200),
                [RequestSpec::new(rid(0), 2)],
            ))
            .vertex(VertexSpec::with_requests(
                Time::from_us(200),
                [RequestSpec::new(rid(1), 1)],
            ))
            .vertex(VertexSpec::new(Time::from_us(100)))
            .critical_section(rid(0), Time::from_us(10))
            .critical_section(rid(1), Time::from_us(30))
            .build()
            .unwrap()
    }

    #[test]
    fn signature_accumulates_along_path() {
        let t = task_with_branches();
        let v = VertexId::new;
        let sig = PathSignature::from_path(&t, &[v(0), v(1), v(3)]);
        assert_eq!(sig.len(), Time::from_us(400));
        assert_eq!(sig.request_count(rid(0)), 2);
        assert_eq!(sig.request_count(rid(1)), 0);
        assert!(sig.requests_resource(rid(0)));
        assert!(!sig.requests_resource(rid(1)));
        // Non-critical = 400µs − 2·10µs.
        assert_eq!(sig.noncritical_len(), Time::from_us(380));
    }

    #[test]
    fn enumeration_finds_all_distinct_signatures() {
        let t = task_with_branches();
        let sigs = enumerate_signatures(&t, 64);
        assert!(!sigs.truncated);
        assert_eq!(sigs.paths_visited, 2);
        // Equal lengths but different request vectors ⇒ 2 signatures.
        assert_eq!(sigs.signatures.len(), 2);
    }

    #[test]
    fn identical_branches_dedup_to_one_signature() {
        let dag = Dag::new(4, [(0, 1), (0, 2), (1, 3), (2, 3)]).unwrap();
        let t = DagTask::builder(TaskId::new(0), Time::from_ms(10))
            .dag(dag)
            .vertex(VertexSpec::new(Time::from_us(100)))
            .vertex(VertexSpec::new(Time::from_us(200)))
            .vertex(VertexSpec::new(Time::from_us(200)))
            .vertex(VertexSpec::new(Time::from_us(100)))
            .build()
            .unwrap();
        let sigs = enumerate_signatures(&t, 64);
        assert_eq!(sigs.signatures.len(), 1);
        assert_eq!(sigs.paths_visited, 2);
    }

    /// Wide fan: head → {8 middles} → tail, middle `i` taking `10·i` µs
    /// and issuing `i` requests, so every path has its own profile and
    /// pruning keeps all eight.
    fn wide_fan() -> DagTask {
        let edges: Vec<(usize, usize)> = (1..=8).flat_map(|x| [(0, x), (x, 9)]).collect();
        let dag = Dag::new(10, edges).unwrap();
        let mut b = DagTask::builder(TaskId::new(0), Time::from_ms(10))
            .dag(dag)
            .vertex(VertexSpec::new(Time::from_us(10)));
        for i in 1..=8u32 {
            b = b.vertex(VertexSpec::with_requests(
                Time::from_us(10 * u64::from(i)),
                [RequestSpec::new(rid(0), i)],
            ));
        }
        b.vertex(VertexSpec::new(Time::from_us(10)))
            .critical_section(rid(0), Time::from_us(1))
            .build()
            .unwrap()
    }

    /// The depth-first reference after dominance pruning, in output order.
    fn pruned_dfs(t: &DagTask, cap: usize) -> Vec<PathSignature> {
        let mut sigs = enumerate_signatures(t, cap).signatures;
        prune_dominated_signatures(&mut sigs);
        sort_signatures(&mut sigs);
        sigs
    }

    #[test]
    fn truncation_keeps_longest_path() {
        // Cap at 2 on the eight-path fan.
        let sigs = enumerate_signatures(&wide_fan(), 2);
        assert!(sigs.truncated);
        // The longest path (10 + 80 + 10) must survive truncation.
        let max_len = sigs
            .signatures
            .iter()
            .map(PathSignature::len)
            .max()
            .unwrap();
        assert_eq!(max_len, Time::from_us(100));
    }

    #[test]
    fn signatures_sorted_longest_first() {
        let t = task_with_branches();
        let sigs = enumerate_signatures(&t, 64).signatures;
        for w in sigs.windows(2) {
            assert!(w[0].len() >= w[1].len());
        }
    }

    #[test]
    fn cap_zero_is_clamped_to_one() {
        let t = task_with_branches();
        let sigs = enumerate_signatures(&t, 0);
        assert!(!sigs.signatures.is_empty());
        let sigs = enumerate_signatures_dp(&t, 0);
        assert!(!sigs.signatures.is_empty());
    }

    // ---- signature-domain DP ----

    /// A chain of `k` diamonds whose upper branch takes 20 µs and issues
    /// one request, and whose lower branch is `lower`: 2^k complete paths,
    /// but partial signatures collapse where branches agree.
    fn diamond_chain(k: usize, lower: &VertexSpec) -> DagTask {
        let n = 1 + 3 * k; // head + k * (two branches + join)
        let mut edges = Vec::new();
        let mut prev_join = 0usize;
        for d in 0..k {
            let a = 1 + 3 * d;
            let b = a + 1;
            let join = a + 2;
            edges.extend([(prev_join, a), (prev_join, b), (a, join), (b, join)]);
            prev_join = join;
        }
        let dag = Dag::new(n, edges).unwrap();
        let mut builder = DagTask::builder(TaskId::new(0), Time::from_ms(100))
            .dag(dag)
            .vertex(VertexSpec::new(Time::from_us(10)));
        for _ in 0..k {
            builder = builder
                .vertex(VertexSpec::with_requests(
                    Time::from_us(20),
                    [RequestSpec::new(rid(0), 1)],
                ))
                .vertex(lower.clone())
                .vertex(VertexSpec::new(Time::from_us(10)));
        }
        builder
            .critical_section(rid(0), Time::from_us(5))
            .build()
            .unwrap()
    }

    /// A request-free lower branch longer than the upper one: one length
    /// per request count, so pruning keeps every signature.
    fn longer_plain() -> VertexSpec {
        VertexSpec::new(Time::from_us(30))
    }

    /// A request-free lower branch as long as the upper one.
    fn equal_plain() -> VertexSpec {
        VertexSpec::new(Time::from_us(20))
    }

    /// A lower branch issuing the upper one's request at a longer WCET:
    /// every path has the same profile, so pruning keeps only the longest.
    fn longer_requesting() -> VertexSpec {
        VertexSpec::with_requests(Time::from_us(30), [RequestSpec::new(rid(0), 1)])
    }

    #[test]
    fn dp_matches_dfs_on_fixtures() {
        let fixtures = [
            task_with_branches(),
            diamond_chain(4, &longer_plain()),
            diamond_chain(4, &equal_plain()),
            diamond_chain(4, &longer_requesting()),
        ];
        for t in &fixtures {
            assert!(!enumerate_signatures(t, 4096).truncated);
            let dp = enumerate_signatures_dp(t, 4096);
            assert!(!dp.truncated);
            assert_eq!(pruned_dfs(t, 4096), dp.signatures);
        }
    }

    #[test]
    fn dp_completes_where_dfs_visit_cap_truncates() {
        // 12 diamonds: 4096 complete paths, but only 13 distinct
        // signatures (0..=12 requests along otherwise-equal-length paths).
        let t = diamond_chain(12, &equal_plain());
        let dfs_capped = enumerate_signatures_capped(&t, 4096, 100);
        assert!(dfs_capped.truncated, "DFS must drown in path count");
        let dp = enumerate_signatures_dp_capped(&t, 4096, 100_000);
        assert!(!dp.truncated, "DP collapses the diamonds at each join");
        assert_eq!(dp.signatures.len(), 13);
        // The DP's work stays linear-ish: far below the path count.
        assert!(dp.paths_visited < 4096, "got {}", dp.paths_visited);
        // And the full (uncapped) DFS agrees on the set: every profile
        // has one length, so pruning drops nothing.
        let dfs_full = enumerate_signatures(&t, 1 << 14);
        assert_eq!(dfs_full.signatures, dp.signatures);
    }

    #[test]
    fn dp_single_vertex_dag() {
        let t = DagTask::builder(TaskId::new(0), Time::from_ms(1))
            .vertex(VertexSpec::with_requests(
                Time::from_us(100),
                [RequestSpec::new(rid(2), 3)],
            ))
            .critical_section(rid(2), Time::from_us(10))
            .build()
            .unwrap();
        for sigs in [enumerate_signatures(&t, 8), enumerate_signatures_dp(&t, 8)] {
            assert!(!sigs.truncated);
            assert_eq!(sigs.signatures.len(), 1);
            assert_eq!(sigs.signatures[0].len(), Time::from_us(100));
            assert_eq!(sigs.signatures[0].request_count(rid(2)), 3);
        }
    }

    #[test]
    fn dp_zero_wcet_vertices_yield_degenerate_signatures() {
        // All-zero WCETs: every path signature is empty-length.
        let dag = Dag::new(4, [(0, 1), (0, 2), (1, 3), (2, 3)]).unwrap();
        let t = DagTask::builder(TaskId::new(0), Time::from_ms(1))
            .dag(dag)
            .vertex(VertexSpec::new(Time::ZERO))
            .vertex(VertexSpec::new(Time::ZERO))
            .vertex(VertexSpec::new(Time::ZERO))
            .vertex(VertexSpec::new(Time::ZERO))
            .build()
            .unwrap();
        let dp = enumerate_signatures_dp(&t, 8);
        assert_eq!(pruned_dfs(&t, 8), dp.signatures);
        assert_eq!(dp.signatures.len(), 1);
        assert!(dp.signatures[0].is_empty());
    }

    #[test]
    fn dp_cap_truncation_keeps_longest_path() {
        // Cap 2 on the eight-profile fan (mirrors the DFS test).
        let sigs = enumerate_signatures_dp_capped(&wide_fan(), 2, u64::MAX);
        assert!(sigs.truncated);
        assert!(sigs.signatures.len() <= 3); // cap + the ensured longest
        let max_len = sigs
            .signatures
            .iter()
            .map(PathSignature::len)
            .max()
            .unwrap();
        assert_eq!(max_len, Time::from_us(100));
    }

    #[test]
    fn dp_visit_cap_exhaustion_is_truncated_and_keeps_longest() {
        let t = diamond_chain(6, &longer_plain());
        let sigs = enumerate_signatures_dp_capped(&t, 4096, 3);
        assert!(sigs.truncated);
        let longest = PathSignature::from_path(&t, t.longest_path());
        assert!(sigs.signatures.contains(&longest));
        // DFS under the same tiny budget also truncates.
        assert!(enumerate_signatures_capped(&t, 4096, 3).truncated);
    }

    #[test]
    fn prune_drops_same_profile_dominated_only() {
        let t = task_with_branches();
        let v = VertexId::new;
        // Same empty request profile, different lengths: the shorter one is
        // dominated. Different profiles must survive regardless of length.
        let long_plain = PathSignature::from_path(&t, &[v(0), v(2), v(3)]); // ℓ1 branch
        let with_req = PathSignature::from_path(&t, &[v(0), v(1), v(3)]); // ℓ0 branch
        let short_plain = PathSignature::from_path(&t, &[v(0), v(3)]);
        let mut sigs = vec![short_plain.clone(), with_req.clone(), long_plain.clone()];
        prune_dominated_signatures(&mut sigs);
        sort_signatures(&mut sigs);
        // `short_plain` has no requests... but so does no other signature:
        // long_plain requests ℓ1, with_req requests ℓ0 ⇒ nothing dominates
        // it and all three survive.
        assert_eq!(sigs.len(), 3);

        // Two signatures with the identical request vector but different
        // lengths (the longer repeats the request-free head vertex): the
        // shorter one is dominated and must be dropped.
        let base = PathSignature::from_path(&t, &[v(0), v(1), v(3)]);
        let longer_same_profile = PathSignature::from_path(&t, &[v(0), v(0), v(1), v(3)]);
        assert_eq!(base.requests(), longer_same_profile.requests());
        assert!(longer_same_profile.len() > base.len());
        let mut sigs = vec![base.clone(), longer_same_profile.clone()];
        prune_dominated_signatures(&mut sigs);
        assert_eq!(sigs, vec![longer_same_profile]);
    }

    #[test]
    fn dp_pruned_is_subset_with_longest_retained() {
        let t = diamond_chain(5, &longer_requesting());
        let full = enumerate_signatures(&t, 4096);
        let pruned = enumerate_signatures_dp(&t, 4096);
        assert!(!pruned.truncated);
        assert!(
            pruned.signatures.len() < full.signatures.len(),
            "the fixture must prune"
        );
        for sig in &pruned.signatures {
            assert!(
                full.signatures.contains(sig),
                "pruning must not invent signatures"
            );
        }
        let longest = PathSignature::from_path(&t, t.longest_path());
        assert!(pruned.signatures.contains(&longest));
        // Every pruned-away signature is dominated by a survivor.
        for sig in &full.signatures {
            if pruned.signatures.contains(sig) {
                continue;
            }
            assert!(
                pruned.signatures.iter().any(|b| {
                    b.requests() == sig.requests()
                        && b.len() >= sig.len()
                        && (b.len() - b.noncritical_len()) >= (sig.len() - sig.noncritical_len())
                }),
                "dropped signature lacks a dominator"
            );
        }
    }
}
