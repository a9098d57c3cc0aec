//! Directed acyclic graphs `G_i = ⟨V_i, E_i⟩` describing task structure.
//!
//! A [`Dag`] stores the precedence relation between the vertices of one
//! parallel task. Construction validates well-formedness (index bounds, no
//! self-loops, no duplicate edges, acyclicity), after which queries such as
//! topological order, source/sink vertices, weighted longest paths and
//! complete-path enumeration are available.

use core::fmt;
use core::ops::ControlFlow;

use serde::{Deserialize, Serialize};

use crate::error::ModelError;
use crate::ids::VertexId;
use crate::time::Time;

/// The precedence DAG of one parallel task.
///
/// # Examples
///
/// ```
/// use dpcp_model::{Dag, VertexId};
///
/// // A diamond: v0 → {v1, v2} → v3.
/// let dag = Dag::new(4, [(0, 1), (0, 2), (1, 3), (2, 3)])?;
/// assert_eq!(dag.vertex_count(), 4);
/// assert_eq!(dag.heads(), &[VertexId::new(0)]);
/// assert_eq!(dag.tails(), &[VertexId::new(3)]);
/// assert_eq!(dag.path_count(), 2.0);
/// # Ok::<(), dpcp_model::ModelError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct Dag {
    vertex_count: usize,
    /// `succs[x]` lists the direct successors of vertex `x`, sorted.
    succs: Vec<Vec<VertexId>>,
    /// `preds[x]` lists the direct predecessors of vertex `x`, sorted.
    preds: Vec<Vec<VertexId>>,
    /// One fixed topological order (ascending positions).
    topo: Vec<VertexId>,
    /// Vertices with no predecessors, sorted.
    heads: Vec<VertexId>,
    /// Vertices with no successors, sorted.
    tails: Vec<VertexId>,
}

// Reads `vertex_count` and `succs` only and builds through `Dag::new`:
// the derived members are serialized but skipped unread on input (their
// syntax is still checked), and the edges are validated exactly as for a
// DAG built in code. `vertex_count` sizes `Dag::new`'s tables, so it is
// checked against the successor lists read before anything is allocated.
impl Deserialize for Dag {
    fn read(r: &mut serde::Reader<'_>) -> Result<Self, serde::Error> {
        let (mut vertex_count, mut succs) = (None, None);
        r.object(|r, key| match key {
            "vertex_count" => r.member(&mut vertex_count),
            "succs" => r.member(&mut succs),
            _ => r.skip(),
        })?;
        let vertex_count: usize = serde::or_null(vertex_count)?;
        let Successors { lists, edges } = serde::or_null(succs)?;
        if lists != vertex_count {
            return Err(serde::Error::custom(format!(
                "a DAG with {vertex_count} vertices lists successors of {lists}"
            )));
        }
        Ok(Dag::new(vertex_count, edges)?)
    }
}

/// `succs` as sent (an array of `VertexId` arrays), flattened to its
/// `(from, to)` edges while it is read.
struct Successors {
    lists: usize,
    edges: Vec<(usize, usize)>,
}

impl Deserialize for Successors {
    fn read(r: &mut serde::Reader<'_>) -> Result<Self, serde::Error> {
        let mut lists = r.array()?;
        let (mut from, mut edges) = (0, Vec::new());
        while lists
            .next_with(|r| {
                let mut targets = r.array()?;
                while let Some(to) = targets.next::<VertexId>()? {
                    edges.push((from, to.index()));
                }
                Ok(())
            })?
            .is_some()
        {
            from += 1;
        }
        Ok(Successors { lists: from, edges })
    }
}

impl Dag {
    /// Builds a DAG over `vertex_count` vertices from an edge list of
    /// `(from, to)` raw indices.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::EmptyDag`] when `vertex_count == 0`,
    /// [`ModelError::VertexOutOfRange`] for out-of-bounds endpoints,
    /// [`ModelError::SelfLoop`] / [`ModelError::DuplicateEdge`] for malformed
    /// edges, and [`ModelError::CyclicGraph`] when the edges contain a cycle.
    pub fn new<I>(vertex_count: usize, edges: I) -> Result<Self, ModelError>
    where
        I: IntoIterator<Item = (usize, usize)>,
    {
        if vertex_count == 0 {
            return Err(ModelError::EmptyDag);
        }
        let mut succs = vec![Vec::new(); vertex_count];
        let mut preds = vec![Vec::new(); vertex_count];
        for (from, to) in edges {
            if from >= vertex_count || to >= vertex_count {
                return Err(ModelError::VertexOutOfRange {
                    vertex: from.max(to),
                    count: vertex_count,
                });
            }
            if from == to {
                return Err(ModelError::SelfLoop { vertex: from });
            }
            let to_id = VertexId::new(to);
            if succs[from].contains(&to_id) {
                return Err(ModelError::DuplicateEdge { from, to });
            }
            succs[from].push(to_id);
            preds[to].push(VertexId::new(from));
        }
        for list in succs.iter_mut().chain(preds.iter_mut()) {
            list.sort_unstable();
        }

        let topo =
            topological_order(vertex_count, &succs, &preds).ok_or(ModelError::CyclicGraph)?;

        let heads = (0..vertex_count)
            .filter(|&x| preds[x].is_empty())
            .map(VertexId::new)
            .collect();
        let tails = (0..vertex_count)
            .filter(|&x| succs[x].is_empty())
            .map(VertexId::new)
            .collect();

        Ok(Dag {
            vertex_count,
            succs,
            preds,
            topo,
            heads,
            tails,
        })
    }

    /// Builds the trivial DAG of a sequential task: a single chain
    /// `v_0 → v_1 → … → v_{n-1}`.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::EmptyDag`] when `vertex_count == 0`.
    pub fn chain(vertex_count: usize) -> Result<Self, ModelError> {
        Dag::new(vertex_count, (1..vertex_count).map(|x| (x - 1, x)))
    }

    /// Number of vertices `|V_i|`.
    #[inline]
    pub fn vertex_count(&self) -> usize {
        self.vertex_count
    }

    /// Total number of directed edges `|E_i|`.
    pub fn edge_count(&self) -> usize {
        self.succs.iter().map(Vec::len).sum()
    }

    /// Iterates over all vertices in index order.
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> + '_ {
        (0..self.vertex_count).map(VertexId::new)
    }

    /// Direct successors of `v`, sorted by index.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[inline]
    pub fn successors(&self, v: VertexId) -> &[VertexId] {
        &self.succs[v.index()]
    }

    /// Direct predecessors of `v`, sorted by index.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[inline]
    pub fn predecessors(&self, v: VertexId) -> &[VertexId] {
        &self.preds[v.index()]
    }

    /// Returns `true` if the edge `from → to` exists.
    pub fn has_edge(&self, from: VertexId, to: VertexId) -> bool {
        self.succs[from.index()].binary_search(&to).is_ok()
    }

    /// The head vertices (no predecessors), sorted.
    #[inline]
    pub fn heads(&self) -> &[VertexId] {
        &self.heads
    }

    /// Returns `true` when `v` has no predecessors (every complete path
    /// through `v` starts at `v`).
    #[inline]
    pub fn is_head(&self, v: VertexId) -> bool {
        self.preds[v.index()].is_empty()
    }

    /// Returns `true` when `v` has no successors (every complete path
    /// through `v` ends at `v`).
    #[inline]
    pub fn is_tail(&self, v: VertexId) -> bool {
        self.succs[v.index()].is_empty()
    }

    /// The tail vertices (no successors), sorted.
    #[inline]
    pub fn tails(&self) -> &[VertexId] {
        &self.tails
    }

    /// A fixed topological order of all vertices.
    #[inline]
    pub fn topological_order(&self) -> &[VertexId] {
        &self.topo
    }

    /// In-degree of `v`.
    #[inline]
    pub fn in_degree(&self, v: VertexId) -> usize {
        self.preds[v.index()].len()
    }

    /// Out-degree of `v`.
    #[inline]
    pub fn out_degree(&self, v: VertexId) -> usize {
        self.succs[v.index()].len()
    }

    /// Computes the longest (critical) path under per-vertex `weights`,
    /// returning the total weight `L*` and one witness path.
    ///
    /// Every complete path starts at a head and ends at a tail, so the
    /// returned path is complete in the paper's sense.
    ///
    /// # Panics
    ///
    /// Panics if `weights.len() != vertex_count()`.
    pub fn longest_path(&self, weights: &[Time]) -> (Time, Vec<VertexId>) {
        assert_eq!(
            weights.len(),
            self.vertex_count,
            "one weight per vertex required"
        );
        // dist[x] = weight of the heaviest path ending at x (inclusive).
        let mut dist = vec![Time::ZERO; self.vertex_count];
        let mut best_pred: Vec<Option<VertexId>> = vec![None; self.vertex_count];
        for &v in &self.topo {
            let x = v.index();
            let mut incoming = Time::ZERO;
            for &p in &self.preds[x] {
                if dist[p.index()] >= incoming {
                    // `>=` keeps a deterministic witness (max index pred wins
                    // only when strictly heavier paths tie).
                    if dist[p.index()] > incoming || best_pred[x].is_none() {
                        best_pred[x] = Some(p);
                    }
                    incoming = dist[p.index()];
                }
            }
            dist[x] = incoming.saturating_add(weights[x]);
        }
        let end = self
            .tails
            .iter()
            .copied()
            .max_by_key(|t| dist[t.index()])
            .expect("a DAG always has at least one tail");
        let mut path = vec![end];
        let mut cur = end;
        while let Some(p) = best_pred[cur.index()] {
            path.push(p);
            cur = p;
        }
        path.reverse();
        (dist[end.index()], path)
    }

    /// Counts complete head-to-tail paths (as `f64`, since counts explode
    /// combinatorially for dense DAGs).
    pub fn path_count(&self) -> f64 {
        let mut count = vec![0.0f64; self.vertex_count];
        for &v in self.topo.iter().rev() {
            let x = v.index();
            count[x] = if self.succs[x].is_empty() {
                1.0
            } else {
                self.succs[x].iter().map(|s| count[s.index()]).sum()
            };
        }
        self.heads.iter().map(|h| count[h.index()]).sum()
    }

    /// Enumerates complete paths depth-first, invoking `visit` with each
    /// head-to-tail vertex sequence. Returning [`ControlFlow::Break`] stops
    /// the enumeration early (used to cap analysis cost).
    ///
    /// # Examples
    ///
    /// ```
    /// use core::ops::ControlFlow;
    /// use dpcp_model::Dag;
    ///
    /// let dag = Dag::new(4, [(0, 1), (0, 2), (1, 3), (2, 3)])?;
    /// let mut n = 0usize;
    /// dag.for_each_path(|path| {
    ///     n += 1;
    ///     assert_eq!(path.len(), 3);
    ///     ControlFlow::<()>::Continue(())
    /// });
    /// assert_eq!(n, 2);
    /// # Ok::<(), dpcp_model::ModelError>(())
    /// ```
    pub fn for_each_path<B>(
        &self,
        mut visit: impl FnMut(&[VertexId]) -> ControlFlow<B>,
    ) -> Option<B> {
        let mut stack: Vec<VertexId> = Vec::with_capacity(self.vertex_count);
        for &h in &self.heads {
            if let ControlFlow::Break(b) = self.dfs_paths(h, &mut stack, &mut visit) {
                return Some(b);
            }
        }
        None
    }

    fn dfs_paths<B>(
        &self,
        v: VertexId,
        stack: &mut Vec<VertexId>,
        visit: &mut impl FnMut(&[VertexId]) -> ControlFlow<B>,
    ) -> ControlFlow<B> {
        stack.push(v);
        let result = if self.succs[v.index()].is_empty() {
            visit(stack)
        } else {
            let mut flow = ControlFlow::Continue(());
            for &s in &self.succs[v.index()] {
                flow = self.dfs_paths(s, stack, visit);
                if flow.is_break() {
                    break;
                }
            }
            flow
        };
        stack.pop();
        result
    }

    /// Collects every complete path. Intended for small DAGs (tests,
    /// examples); analysis code uses [`Dag::for_each_path`] with a cap.
    pub fn all_paths(&self) -> Vec<Vec<VertexId>> {
        let mut out = Vec::new();
        self.for_each_path(|p| {
            out.push(p.to_vec());
            ControlFlow::<()>::Continue(())
        });
        out
    }

    /// Returns `true` when `path` is a complete path of this DAG: starts at
    /// a head, ends at a tail, and each consecutive pair is an edge.
    pub fn is_complete_path(&self, path: &[VertexId]) -> bool {
        let (Some(&first), Some(&last)) = (path.first(), path.last()) else {
            return false;
        };
        if !self.heads.contains(&first) || !self.tails.contains(&last) {
            return false;
        }
        path.windows(2).all(|w| self.has_edge(w[0], w[1]))
    }
}

impl fmt::Display for Dag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Dag({} vertices, {} edges)",
            self.vertex_count,
            self.edge_count()
        )
    }
}

/// Kahn's algorithm; `None` when a cycle prevents a full ordering.
fn topological_order(
    n: usize,
    succs: &[Vec<VertexId>],
    preds: &[Vec<VertexId>],
) -> Option<Vec<VertexId>> {
    let mut in_deg: Vec<usize> = preds.iter().map(Vec::len).collect();
    let mut queue: Vec<usize> = (0..n).filter(|&x| in_deg[x] == 0).collect();
    let mut order = Vec::with_capacity(n);
    let mut next = 0;
    while next < queue.len() {
        let x = queue[next];
        next += 1;
        order.push(VertexId::new(x));
        for &s in &succs[x] {
            in_deg[s.index()] -= 1;
            if in_deg[s.index()] == 0 {
                queue.push(s.index());
            }
        }
    }
    (order.len() == n).then_some(order)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> Dag {
        Dag::new(4, [(0, 1), (0, 2), (1, 3), (2, 3)]).unwrap()
    }

    #[test]
    fn construction_validates() {
        assert!(matches!(Dag::new(0, []), Err(ModelError::EmptyDag)));
        assert!(matches!(
            Dag::new(2, [(0, 5)]),
            Err(ModelError::VertexOutOfRange { .. })
        ));
        assert!(matches!(
            Dag::new(2, [(1, 1)]),
            Err(ModelError::SelfLoop { vertex: 1 })
        ));
        assert!(matches!(
            Dag::new(2, [(0, 1), (0, 1)]),
            Err(ModelError::DuplicateEdge { from: 0, to: 1 })
        ));
        assert!(matches!(
            Dag::new(3, [(0, 1), (1, 2), (2, 0)]),
            Err(ModelError::CyclicGraph)
        ));
    }

    #[test]
    fn single_vertex_is_head_and_tail() {
        let dag = Dag::new(1, []).unwrap();
        assert_eq!(dag.heads(), &[VertexId::new(0)]);
        assert_eq!(dag.tails(), &[VertexId::new(0)]);
        assert_eq!(dag.path_count(), 1.0);
        assert_eq!(dag.all_paths(), vec![vec![VertexId::new(0)]]);
    }

    #[test]
    fn chain_shape() {
        let dag = Dag::chain(4).unwrap();
        assert_eq!(dag.edge_count(), 3);
        assert_eq!(dag.heads(), &[VertexId::new(0)]);
        assert_eq!(dag.tails(), &[VertexId::new(3)]);
        assert_eq!(dag.path_count(), 1.0);
    }

    #[test]
    fn degrees_and_edges() {
        let dag = diamond();
        assert_eq!(dag.out_degree(VertexId::new(0)), 2);
        assert_eq!(dag.in_degree(VertexId::new(3)), 2);
        assert!(dag.is_head(VertexId::new(0)));
        assert!(!dag.is_head(VertexId::new(1)));
        assert!(dag.is_tail(VertexId::new(3)));
        assert!(!dag.is_tail(VertexId::new(2)));
        assert!(dag.has_edge(VertexId::new(0), VertexId::new(1)));
        assert!(!dag.has_edge(VertexId::new(1), VertexId::new(2)));
    }

    #[test]
    fn topological_order_respects_edges() {
        let dag = diamond();
        let topo = dag.topological_order();
        let pos = |v: VertexId| topo.iter().position(|&x| x == v).unwrap();
        for v in dag.vertices() {
            for &s in dag.successors(v) {
                assert!(pos(v) < pos(s));
            }
        }
    }

    #[test]
    fn longest_path_picks_heavier_branch() {
        let dag = diamond();
        let w = |ns: [u64; 4]| ns.map(Time::from_ns).to_vec();
        let (len, path) = dag.longest_path(&w([1, 10, 2, 1]));
        assert_eq!(len, Time::from_ns(12));
        assert_eq!(
            path,
            vec![VertexId::new(0), VertexId::new(1), VertexId::new(3)]
        );
        let (len2, path2) = dag.longest_path(&w([1, 2, 10, 1]));
        assert_eq!(len2, Time::from_ns(12));
        assert_eq!(
            path2,
            vec![VertexId::new(0), VertexId::new(2), VertexId::new(3)]
        );
    }

    #[test]
    fn longest_path_matches_brute_force_on_diamond() {
        let dag = diamond();
        let weights: Vec<Time> = [5u64, 3, 4, 2].map(Time::from_ns).to_vec();
        let best = dag
            .all_paths()
            .into_iter()
            .map(|p| p.iter().map(|v| weights[v.index()]).sum::<Time>())
            .max()
            .unwrap();
        assert_eq!(dag.longest_path(&weights).0, best);
    }

    #[test]
    fn path_enumeration_is_complete_and_valid() {
        let dag = Dag::new(6, [(0, 2), (1, 2), (2, 3), (2, 4), (3, 5), (4, 5)]).unwrap();
        let paths = dag.all_paths();
        assert_eq!(paths.len() as f64, dag.path_count());
        for p in &paths {
            assert!(dag.is_complete_path(p));
        }
        // 2 heads × 2 middle branches = 4 complete paths.
        assert_eq!(paths.len(), 4);
    }

    #[test]
    fn for_each_path_early_stop() {
        let dag = diamond();
        let mut seen = 0;
        let out = dag.for_each_path(|_| {
            seen += 1;
            ControlFlow::Break("stop")
        });
        assert_eq!(seen, 1);
        assert_eq!(out, Some("stop"));
    }

    #[test]
    fn is_complete_path_rejects_fragments() {
        let dag = diamond();
        let v = VertexId::new;
        assert!(dag.is_complete_path(&[v(0), v(1), v(3)]));
        assert!(!dag.is_complete_path(&[v(1), v(3)])); // starts mid-graph
        assert!(!dag.is_complete_path(&[v(0), v(1)])); // ends mid-graph
        assert!(!dag.is_complete_path(&[v(0), v(3)])); // not an edge
        assert!(!dag.is_complete_path(&[]));
    }

    #[test]
    fn path_count_on_dense_layers() {
        // 3 layers of 2 fully connected: 2·2·2 = 8 paths... but heads are the
        // first layer (2), so count = 2·2·2 = 8.
        let edges = [
            (0, 2),
            (0, 3),
            (1, 2),
            (1, 3),
            (2, 4),
            (2, 5),
            (3, 4),
            (3, 5),
        ];
        let dag = Dag::new(6, edges).unwrap();
        assert_eq!(dag.path_count(), 8.0);
        assert_eq!(dag.all_paths().len(), 8);
    }

    #[test]
    fn display_mentions_size() {
        assert_eq!(diamond().to_string(), "Dag(4 vertices, 4 edges)");
    }
}
