//! The core undirected weighted graph type.

use crate::geo::GeoPoint;
use crate::TopoError;
use std::collections::HashSet;
use std::fmt;

/// Identifier of a node inside a [`Graph`].
///
/// Node ids are dense indices: the `k`-th added node has id `NodeId(k)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub usize);

/// Identifier of an undirected edge inside a [`Graph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EdgeId(pub usize);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

impl From<usize> for NodeId {
    fn from(value: usize) -> Self {
        NodeId(value)
    }
}

impl NodeId {
    /// Returns the underlying dense index.
    pub fn index(self) -> usize {
        self.0
    }
}

impl EdgeId {
    /// Returns the underlying dense index.
    pub fn index(self) -> usize {
        self.0
    }
}

/// Per-node metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeMeta {
    /// Human-readable label (city name in backbone topologies).
    pub name: String,
    /// Geographic position, if known.
    pub position: Option<GeoPoint>,
}

/// An undirected weighted edge.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Edge {
    /// One endpoint.
    pub a: NodeId,
    /// The other endpoint.
    pub b: NodeId,
    /// Non-negative finite weight. The SD-WAN layers use propagation delay
    /// in milliseconds, but the graph itself is unit-agnostic.
    pub weight: f64,
}

impl Edge {
    /// Given one endpoint of the edge, returns the other one.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not an endpoint of this edge.
    pub fn other(&self, n: NodeId) -> NodeId {
        if n == self.a {
            self.b
        } else if n == self.b {
            self.a
        } else {
            panic!(
                "node {n} is not an endpoint of edge ({}, {})",
                self.a, self.b
            )
        }
    }
}

/// A compact undirected weighted graph with geographic node metadata.
///
/// The graph disallows self-loops and parallel edges, which matches
/// backbone topologies (Topology Zoo datasets are simple graphs once
/// duplicate links are collapsed).
///
/// # Example
///
/// ```
/// use pm_topo::{Graph, NodeId};
///
/// # fn main() -> Result<(), pm_topo::TopoError> {
/// let mut g = Graph::new();
/// let a = g.add_node("a", None);
/// let b = g.add_node("b", None);
/// g.add_edge(a, b, 1.5)?;
/// assert_eq!(g.neighbors(a).next(), Some(b));
/// # Ok(())
/// # }
/// ```
/// Adjacency is stored in compressed-sparse-row (CSR) form: one flat
/// `(neighbor, edge id)` array plus per-node offsets, so traversals iterate
/// a contiguous slice per node instead of chasing a `Vec` per node. The CSR
/// arrays are kept up to date on every mutation; reads never rebuild.
#[derive(Debug, Clone, PartialEq)]
pub struct Graph {
    nodes: Vec<NodeMeta>,
    edges: Vec<Edge>,
    /// CSR row starts: node `v`'s arcs live at `arcs[offsets[v]..offsets[v+1]]`.
    /// Always has `nodes.len() + 1` entries; the last one is `arcs.len()`.
    offsets: Vec<usize>,
    /// CSR payload: `(neighbor, edge id)` pairs, per-node in edge insertion
    /// order.
    arcs: Vec<(NodeId, EdgeId)>,
}

impl Default for Graph {
    fn default() -> Self {
        Graph {
            nodes: Vec::new(),
            edges: Vec::new(),
            offsets: vec![0],
            arcs: Vec::new(),
        }
    }
}

impl Graph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty graph with capacity reserved for `nodes` nodes.
    pub fn with_capacity(nodes: usize) -> Self {
        let mut offsets = Vec::with_capacity(nodes + 1);
        offsets.push(0);
        Graph {
            nodes: Vec::with_capacity(nodes),
            edges: Vec::new(),
            offsets,
            arcs: Vec::new(),
        }
    }

    /// Builds a graph from an explicit edge list over `node_count` anonymous
    /// nodes.
    ///
    /// # Errors
    ///
    /// Returns an error if any endpoint is out of range, any edge is a
    /// self-loop or duplicate, or any weight is invalid.
    pub fn from_edges(
        node_count: usize,
        edges: impl IntoIterator<Item = (usize, usize, f64)>,
    ) -> Result<Self, TopoError> {
        let mut g = Graph::with_capacity(node_count);
        for i in 0..node_count {
            g.add_node(format!("n{i}"), None);
        }
        g.add_edges(edges.into_iter().map(|(a, b, w)| (NodeId(a), NodeId(b), w)))?;
        Ok(g)
    }

    /// Adds a node and returns its id.
    pub fn add_node(&mut self, name: impl Into<String>, position: Option<GeoPoint>) -> NodeId {
        let id = NodeId(self.nodes.len());
        self.nodes.push(NodeMeta {
            name: name.into(),
            position,
        });
        self.offsets.push(self.arcs.len());
        id
    }

    /// Adds an undirected edge between `a` and `b` with the given weight:
    /// [`Graph::add_edges`] with a batch of one, `O(V + E)`.
    ///
    /// # Errors
    ///
    /// Returns an error if an endpoint is out of range, `a == b`, the edge
    /// already exists, or the weight is negative/not finite.
    pub fn add_edge(&mut self, a: NodeId, b: NodeId, weight: f64) -> Result<EdgeId, TopoError> {
        self.add_edges([(a, b, weight)])?;
        Ok(EdgeId(self.edges.len() - 1))
    }

    /// Adds a batch of undirected edges, assigning ids consecutively from
    /// [`Graph::edge_count`] in batch order and appending each edge to both
    /// endpoints' CSR rows in that order — the graph that adding them one
    /// at a time gives. The CSR arrays are rebuilt once, in one counting
    /// pass: `O(V + E)` for the whole batch. Graph construction is a
    /// once-per-network cost, traded for contiguous hot-path traversal.
    ///
    /// # Errors
    ///
    /// Checks each edge in order — endpoints in range, no self-loop, a
    /// finite non-negative weight, no edge between the two endpoints
    /// already in the graph or earlier in the batch — and returns the first
    /// failure; the graph is then left unchanged.
    pub fn add_edges(
        &mut self,
        edges: impl IntoIterator<Item = (NodeId, NodeId, f64)>,
    ) -> Result<(), TopoError> {
        let first = self.edges.len();
        let mut batch = HashSet::new();
        for (a, b, weight) in edges {
            if let Err(e) = self.check_new_edge(a, b, weight, &mut batch) {
                self.edges.truncate(first);
                return Err(e);
            }
            self.edges.push(Edge { a, b, weight });
        }
        let mut degree: Vec<usize> = self.offsets.windows(2).map(|w| w[1] - w[0]).collect();
        for e in &self.edges[first..] {
            degree[e.a.0] += 1;
            degree[e.b.0] += 1;
        }
        let mut offsets = Vec::with_capacity(self.nodes.len() + 1);
        let mut arcs = vec![(NodeId(0), EdgeId(0)); 2 * self.edges.len()];
        // `cursor[v]`: where node v's next new arc goes, after its old row.
        let mut cursor = Vec::with_capacity(self.nodes.len());
        let mut start = 0;
        for (v, &deg) in degree.iter().enumerate() {
            let old = self.adjacency(NodeId(v));
            arcs[start..start + old.len()].copy_from_slice(old);
            offsets.push(start);
            cursor.push(start + old.len());
            start += deg;
        }
        offsets.push(start);
        for (id, e) in self.edges.iter().enumerate().skip(first) {
            for (from, to) in [(e.a, e.b), (e.b, e.a)] {
                arcs[cursor[from.0]] = (to, EdgeId(id));
                cursor[from.0] += 1;
            }
        }
        self.offsets = offsets;
        self.arcs = arcs;
        Ok(())
    }

    /// The checks of [`Graph::add_edges`] for one edge, in order; `batch`
    /// holds the endpoint pairs accepted earlier in the same batch.
    fn check_new_edge(
        &self,
        a: NodeId,
        b: NodeId,
        weight: f64,
        batch: &mut HashSet<(NodeId, NodeId)>,
    ) -> Result<(), TopoError> {
        self.check_node(a)?;
        self.check_node(b)?;
        if a == b {
            return Err(TopoError::InvalidEdge {
                a: a.0,
                b: b.0,
                reason: "self-loop",
            });
        }
        if !weight.is_finite() || weight < 0.0 {
            return Err(TopoError::InvalidWeight { weight });
        }
        if self.find_edge(a, b).is_some() || !batch.insert((a.min(b), a.max(b))) {
            return Err(TopoError::InvalidEdge {
                a: a.0,
                b: b.0,
                reason: "duplicate edge",
            });
        }
        Ok(())
    }

    /// Adds an undirected edge whose weight is the propagation delay (in
    /// milliseconds) between the two endpoints' geographic positions.
    ///
    /// # Errors
    ///
    /// Returns an error under the same conditions as [`Graph::add_edge`], or
    /// if either endpoint has no position.
    pub fn add_geo_edge(&mut self, a: NodeId, b: NodeId) -> Result<EdgeId, TopoError> {
        self.check_node(a)?;
        self.check_node(b)?;
        let pa = self.nodes[a.0].position.ok_or(TopoError::InvalidEdge {
            a: a.0,
            b: b.0,
            reason: "endpoint has no geographic position",
        })?;
        let pb = self.nodes[b.0].position.ok_or(TopoError::InvalidEdge {
            a: a.0,
            b: b.0,
            reason: "endpoint has no geographic position",
        })?;
        self.add_edge(a, b, pa.propagation_delay_ms(&pb))
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of undirected edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Number of directed links (twice the undirected edge count). Topology
    /// datasets such as the paper's "25 nodes and 112 links" ATT topology
    /// count each direction separately.
    pub fn directed_edge_count(&self) -> usize {
        self.edges.len() * 2
    }

    /// Iterator over all node ids.
    pub fn nodes(&self) -> impl ExactSizeIterator<Item = NodeId> + '_ {
        (0..self.nodes.len()).map(NodeId)
    }

    /// Iterator over all edges.
    pub fn edges(&self) -> impl ExactSizeIterator<Item = &Edge> + '_ {
        self.edges.iter()
    }

    /// Metadata of node `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is out of range.
    pub fn node(&self, n: NodeId) -> &NodeMeta {
        &self.nodes[n.0]
    }

    /// The edge with id `e`.
    ///
    /// # Panics
    ///
    /// Panics if `e` is out of range.
    pub fn edge(&self, e: EdgeId) -> &Edge {
        &self.edges[e.0]
    }

    /// The CSR adjacency row of `n`: `(neighbor, edge id)` pairs in edge
    /// insertion order, as one contiguous slice. This is the hot-path
    /// traversal primitive; [`Graph::neighbors`] and [`Graph::incident`] are
    /// iterator views over the same row.
    ///
    /// # Panics
    ///
    /// Panics if `n` is out of range.
    pub fn adjacency(&self, n: NodeId) -> &[(NodeId, EdgeId)] {
        &self.arcs[self.offsets[n.0]..self.offsets[n.0 + 1]]
    }

    /// Iterator over the neighbors of `n`, in edge insertion order.
    ///
    /// # Panics
    ///
    /// Panics if `n` is out of range.
    pub fn neighbors(&self, n: NodeId) -> impl ExactSizeIterator<Item = NodeId> + '_ {
        self.adjacency(n).iter().map(|&(v, _)| v)
    }

    /// Iterator over `(neighbor, edge id)` pairs incident to `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is out of range.
    pub fn incident(&self, n: NodeId) -> impl ExactSizeIterator<Item = (NodeId, EdgeId)> + '_ {
        self.adjacency(n).iter().copied()
    }

    /// Degree of node `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is out of range.
    pub fn degree(&self, n: NodeId) -> usize {
        self.offsets[n.0 + 1] - self.offsets[n.0]
    }

    /// Looks up the edge between `a` and `b`, if any.
    pub fn find_edge(&self, a: NodeId, b: NodeId) -> Option<EdgeId> {
        if a.0 >= self.nodes.len() || b.0 >= self.nodes.len() {
            return None;
        }
        // Search from the lower-degree endpoint.
        let (from, to) = if self.degree(a) <= self.degree(b) {
            (a, b)
        } else {
            (b, a)
        };
        self.adjacency(from)
            .iter()
            .find(|&&(v, _)| v == to)
            .map(|&(_, e)| e)
    }

    /// Weight of the edge between `a` and `b`, if any.
    pub fn edge_weight(&self, a: NodeId, b: NodeId) -> Option<f64> {
        self.find_edge(a, b).map(|e| self.edges[e.0].weight)
    }

    /// Overwrites the weight of edge `e`.
    ///
    /// # Errors
    ///
    /// Returns an error if the weight is negative or not finite.
    ///
    /// # Panics
    ///
    /// Panics if `e` is out of range.
    pub fn set_edge_weight(&mut self, e: EdgeId, weight: f64) -> Result<(), TopoError> {
        if !weight.is_finite() || weight < 0.0 {
            return Err(TopoError::InvalidWeight { weight });
        }
        self.edges[e.0].weight = weight;
        Ok(())
    }

    /// Returns `true` if every node is reachable from node 0 (or the graph is
    /// empty).
    pub fn is_connected(&self) -> bool {
        if self.nodes.is_empty() {
            return true;
        }
        let mut seen = vec![false; self.nodes.len()];
        let mut stack = vec![NodeId(0)];
        seen[0] = true;
        let mut count = 1;
        while let Some(v) = stack.pop() {
            for &(u, _) in self.adjacency(v) {
                if !seen[u.0] {
                    seen[u.0] = true;
                    count += 1;
                    stack.push(u);
                }
            }
        }
        count == self.nodes.len()
    }

    /// Validates that `n` is a node of this graph.
    ///
    /// # Errors
    ///
    /// Returns [`TopoError::NodeOutOfRange`] otherwise.
    pub fn check_node(&self, n: NodeId) -> Result<(), TopoError> {
        if n.0 < self.nodes.len() {
            Ok(())
        } else {
            Err(TopoError::NodeOutOfRange {
                node: n.0,
                node_count: self.nodes.len(),
            })
        }
    }

    /// Total weight of all undirected edges.
    pub fn total_weight(&self) -> f64 {
        self.edges.iter().map(|e| e.weight).sum()
    }

    /// A copy of the graph with the edge between `a` and `b` removed
    /// (either endpoint order), or `None` if no such edge exists. Node ids
    /// are preserved; edge ids are re-assigned densely.
    pub fn without_edge(&self, a: NodeId, b: NodeId) -> Option<Graph> {
        let victim = self.find_edge(a, b)?;
        let mut g = Graph::with_capacity(self.node_count());
        for v in self.nodes() {
            let meta = self.node(v);
            g.add_node(meta.name.clone(), meta.position);
        }
        g.add_edges(
            (self.edges.iter().enumerate())
                .filter(|&(i, _)| EdgeId(i) != victim)
                .map(|(_, e)| (e.a, e.b, e.weight)),
        )
        .expect("copying a valid graph");
        Some(g)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> Graph {
        Graph::from_edges(3, [(0, 1, 1.0), (1, 2, 2.0), (0, 2, 4.0)]).unwrap()
    }

    #[test]
    fn counts() {
        let g = triangle();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 3);
        assert_eq!(g.directed_edge_count(), 6);
    }

    #[test]
    fn neighbors_in_insertion_order() {
        let g = triangle();
        let n: Vec<_> = g.neighbors(NodeId(0)).collect();
        assert_eq!(n, vec![NodeId(1), NodeId(2)]);
    }

    #[test]
    fn rejects_self_loop() {
        let mut g = Graph::new();
        let a = g.add_node("a", None);
        assert!(matches!(
            g.add_edge(a, a, 1.0),
            Err(TopoError::InvalidEdge {
                reason: "self-loop",
                ..
            })
        ));
    }

    #[test]
    fn rejects_duplicate_edge() {
        let mut g = triangle();
        assert!(matches!(
            g.add_edge(NodeId(0), NodeId(1), 9.0),
            Err(TopoError::InvalidEdge {
                reason: "duplicate edge",
                ..
            })
        ));
        // Also in reverse direction.
        assert!(g.add_edge(NodeId(1), NodeId(0), 9.0).is_err());
    }

    #[test]
    fn rejects_bad_weight() {
        let mut g = Graph::new();
        let a = g.add_node("a", None);
        let b = g.add_node("b", None);
        assert!(matches!(
            g.add_edge(a, b, -1.0),
            Err(TopoError::InvalidWeight { .. })
        ));
        assert!(matches!(
            g.add_edge(a, b, f64::NAN),
            Err(TopoError::InvalidWeight { .. })
        ));
        assert!(matches!(
            g.add_edge(a, b, f64::INFINITY),
            Err(TopoError::InvalidWeight { .. })
        ));
    }

    #[test]
    fn rejects_out_of_range() {
        let mut g = triangle();
        assert!(matches!(
            g.add_edge(NodeId(0), NodeId(7), 1.0),
            Err(TopoError::NodeOutOfRange {
                node: 7,
                node_count: 3
            })
        ));
    }

    #[test]
    fn edge_lookup_both_directions() {
        let g = triangle();
        assert_eq!(g.edge_weight(NodeId(0), NodeId(2)), Some(4.0));
        assert_eq!(g.edge_weight(NodeId(2), NodeId(0)), Some(4.0));
        assert_eq!(g.edge_weight(NodeId(1), NodeId(1)), None);
    }

    #[test]
    fn connectivity() {
        let g = triangle();
        assert!(g.is_connected());
        let mut g2 = triangle();
        g2.add_node("lonely", None);
        assert!(!g2.is_connected());
        assert!(Graph::new().is_connected());
    }

    #[test]
    fn edge_other_endpoint() {
        let g = triangle();
        let e = g.edge(EdgeId(0));
        assert_eq!(e.other(NodeId(0)), NodeId(1));
        assert_eq!(e.other(NodeId(1)), NodeId(0));
    }

    #[test]
    #[should_panic(expected = "not an endpoint")]
    fn edge_other_panics_for_non_endpoint() {
        let g = triangle();
        let _ = g.edge(EdgeId(0)).other(NodeId(2));
    }

    #[test]
    fn set_edge_weight_validates() {
        let mut g = triangle();
        assert!(g.set_edge_weight(EdgeId(0), 10.0).is_ok());
        assert_eq!(g.edge(EdgeId(0)).weight, 10.0);
        assert!(g.set_edge_weight(EdgeId(0), f64::NAN).is_err());
    }

    #[test]
    fn total_weight_sums_edges() {
        assert_eq!(triangle().total_weight(), 7.0);
    }

    /// Checks the CSR invariants: monotone offsets bracketing `arcs`, row
    /// lengths matching degrees, and every arc mirroring a real edge.
    fn assert_csr_consistent(g: &Graph) {
        assert_eq!(g.offsets.len(), g.node_count() + 1);
        assert_eq!(g.offsets[0], 0);
        assert_eq!(*g.offsets.last().unwrap(), g.arcs.len());
        assert!(g.offsets.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(g.arcs.len(), 2 * g.edge_count());
        for v in g.nodes() {
            for &(u, e) in g.adjacency(v) {
                let edge = g.edge(e);
                assert_eq!(edge.other(v), u);
            }
        }
        for (i, e) in g.edges().enumerate() {
            let id = EdgeId(i);
            assert!(g.adjacency(e.a).contains(&(e.b, id)));
            assert!(g.adjacency(e.b).contains(&(e.a, id)));
        }
    }

    #[test]
    fn csr_invariants_hold_during_construction() {
        let mut g = Graph::new();
        assert_csr_consistent(&g);
        for i in 0..6 {
            g.add_node(format!("n{i}"), None);
            assert_csr_consistent(&g);
        }
        // Interleave edges touching early and late nodes so arcs must be
        // inserted mid-array, not just appended.
        for (a, b) in [(0, 5), (2, 3), (0, 1), (4, 1), (5, 2), (3, 0)] {
            g.add_edge(NodeId(a), NodeId(b), (a + b) as f64).unwrap();
            assert_csr_consistent(&g);
        }
        // Rows keep edge insertion order.
        let row0: Vec<NodeId> = g.neighbors(NodeId(0)).collect();
        assert_eq!(row0, vec![NodeId(5), NodeId(1), NodeId(3)]);
    }

    #[test]
    fn add_edges_matches_sequential_add_edge() {
        let base = || {
            let mut g = Graph::from_edges(7, [(0, 5, 1.0), (3, 2, 2.0)]).unwrap();
            g.add_node("late", None);
            g
        };
        let add_each = |g: &mut Graph, edges: &[(usize, usize, f64)]| {
            edges
                .iter()
                .find_map(|&(a, b, w)| g.add_edge(NodeId(a), NodeId(b), w).err())
        };
        let add_all = |g: &mut Graph, edges: &[(usize, usize, f64)]| {
            g.add_edges(edges.iter().map(|&(a, b, w)| (NodeId(a), NodeId(b), w)))
        };
        // Rows grow at both ends of the arc array, the new node included.
        let batch = [
            (6, 0, 0.5),
            (1, 4, 1.5),
            (0, 1, 0.0),
            (5, 2, 3.0),
            (7, 6, 2.5),
            (2, 0, 1.0),
        ];
        let (mut seq, mut bulk) = (base(), base());
        assert_eq!(add_each(&mut seq, &batch), None);
        add_all(&mut bulk, &batch).unwrap();
        assert_eq!(bulk, seq, "same edges, offsets and arc order");
        assert_csr_consistent(&bulk);
        add_all(&mut bulk, &[]).unwrap();
        assert_eq!(bulk, seq);

        // Every kind of invalid input: the sequential path's first error,
        // and nothing of the batch applied.
        let invalid: [&[(usize, usize, f64)]; 8] = [
            &[(0, 1, 1.0), (0, 9, 1.0)],
            &[(9, 0, 1.0)],
            &[(1, 2, 1.0), (3, 3, 1.0)],
            &[(1, 2, -1.0)],
            &[(1, 2, f64::NAN)],
            &[(1, 2, 1.0), (4, 6, f64::INFINITY)],
            &[(1, 2, 1.0), (5, 0, 1.0)],
            &[(1, 2, 1.0), (4, 6, 1.0), (2, 1, 1.0)],
        ];
        for edges in invalid {
            let want = add_each(&mut base(), edges).expect("the batch is invalid");
            let mut bulk = base();
            let got = add_all(&mut bulk, edges).unwrap_err();
            // Debug, not ==: a NaN weight never equals itself.
            assert_eq!(format!("{got:?}"), format!("{want:?}"), "{edges:?}");
            assert_eq!(bulk, base(), "{edges:?} left a partial batch");
        }
    }

    #[test]
    fn adjacency_slice_matches_incident_iterator() {
        let g = triangle();
        for v in g.nodes() {
            let slice: Vec<_> = g.adjacency(v).to_vec();
            let iter: Vec<_> = g.incident(v).collect();
            assert_eq!(slice, iter);
            assert_eq!(g.degree(v), slice.len());
        }
    }

    #[test]
    fn without_edge_removes_one_edge() {
        let g = triangle();
        let cut = g.without_edge(NodeId(1), NodeId(0)).expect("edge exists");
        assert_eq!(cut.node_count(), 3);
        assert_eq!(cut.edge_count(), 2);
        assert_eq!(cut.find_edge(NodeId(0), NodeId(1)), None);
        assert!(cut.find_edge(NodeId(1), NodeId(2)).is_some());
        assert!(cut.is_connected());
        // Absent edges give None; the original is untouched.
        assert!(cut.without_edge(NodeId(0), NodeId(1)).is_none());
        assert_eq!(g.edge_count(), 3);
    }
}
