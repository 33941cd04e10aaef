//! The core directed, edge-labeled graph type.

use std::collections::HashMap;
use std::fmt;

/// A vertex index into a [`Graph`].
pub type VertexId = usize;

/// An edge index into a [`Graph`].
pub type EdgeId = usize;

/// An edge label (σ is a finite non-empty label set; we represent its
/// elements by small integers).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Label(pub u32);

impl Label {
    /// The single label of the unlabeled setting (|σ| = 1).
    pub const UNLABELED: Label = Label(0);

    /// A short display name: `R`, `S`, `T`, `U`, then `L4`, `L5`, ….
    pub fn name(self) -> String {
        match self.0 {
            0 => "R".into(),
            1 => "S".into(),
            2 => "T".into(),
            3 => "U".into(),
            n => format!("L{n}"),
        }
    }
}

impl fmt::Debug for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name())
    }
}

/// Direction of an edge relative to a traversal (used for two-way paths and
/// polytree structures).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Dir {
    /// The edge follows the traversal (`a → b` while walking `a, b`).
    Forward,
    /// The edge opposes the traversal (`a ← b` while walking `a, b`).
    Backward,
}

impl Dir {
    /// The opposite direction.
    pub fn flip(self) -> Dir {
        match self {
            Dir::Forward => Dir::Backward,
            Dir::Backward => Dir::Forward,
        }
    }
}

/// An edge `src --label--> dst`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Edge {
    pub src: VertexId,
    pub dst: VertexId,
    pub label: Label,
}

/// A finite directed graph with labeled edges and no multi-edges.
///
/// Adjacency is stored compactly in one vector, `index`: its first
/// `2n + 1` entries are slot boundaries, and the rest lists every
/// vertex's out-edge ids (vertex by vertex, in insertion order) and then
/// every vertex's in-edge ids. Slot `s` (`v` for `v`'s out-edges, `n + v`
/// for its in-edges) is `index[index[s]..index[s + 1]]` — the boundaries
/// are absolute positions in `index`. Two allocations per graph (edges
/// and index) instead of one per vertex and a hash index keep small
/// graphs small: servers and clients hold one per distinct query.
#[derive(Clone, PartialEq, Eq)]
pub struct Graph {
    n: usize,
    edges: Vec<Edge>,
    index: Vec<usize>,
}

impl Graph {
    /// Number of vertices.
    #[inline]
    pub fn n_vertices(&self) -> usize {
        self.n
    }

    /// Number of edges.
    pub fn n_edges(&self) -> usize {
        self.edges.len()
    }

    /// The edge with the given id.
    #[inline]
    pub fn edge(&self, e: EdgeId) -> Edge {
        self.edges[e]
    }

    /// All edges, in insertion order.
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Ids of edges leaving `v`, in insertion order.
    #[inline]
    pub fn out_edges(&self, v: VertexId) -> &[EdgeId] {
        self.slot(v)
    }

    /// Ids of edges entering `v`, in insertion order.
    #[inline]
    pub fn in_edges(&self, v: VertexId) -> &[EdgeId] {
        self.slot(self.n + v)
    }

    /// Adjacency slot `s` of `index` (see the type's docs).
    #[inline]
    fn slot(&self, s: usize) -> &[EdgeId] {
        &self.index[self.index[s]..self.index[s + 1]]
    }

    /// The edge from `src` to `dst`, if present: a scan of the shorter of
    /// `src`'s out-edges and `dst`'s in-edges.
    #[inline]
    pub fn edge_between(&self, src: VertexId, dst: VertexId) -> Option<EdgeId> {
        if src >= self.n || dst >= self.n {
            return None;
        }
        let (out, inc) = (self.out_edges(src), self.in_edges(dst));
        if out.len() <= inc.len() {
            out.iter().copied().find(|&e| self.edges[e].dst == dst)
        } else {
            inc.iter().copied().find(|&e| self.edges[e].src == src)
        }
    }

    /// Out-degree of `v`.
    pub fn out_degree(&self, v: VertexId) -> usize {
        self.out_edges(v).len()
    }

    /// In-degree of `v`.
    pub fn in_degree(&self, v: VertexId) -> usize {
        self.in_edges(v).len()
    }

    /// Undirected degree (in + out; a 2-cycle `a⇄b` counts twice).
    pub fn und_degree(&self, v: VertexId) -> usize {
        self.out_degree(v) + self.in_degree(v)
    }

    /// Iterates over `(neighbor, edge id, direction)` of all edges incident
    /// to `v` in the underlying undirected multigraph.
    pub fn und_neighbors(&self, v: VertexId) -> impl Iterator<Item = (VertexId, EdgeId, Dir)> + '_ {
        let fwd = self
            .out_edges(v)
            .iter()
            .map(move |&e| (self.edges[e].dst, e, Dir::Forward));
        let bwd = self
            .in_edges(v)
            .iter()
            .map(move |&e| (self.edges[e].src, e, Dir::Backward));
        fwd.chain(bwd)
    }

    /// The set of distinct labels used, sorted.
    pub fn labels_used(&self) -> Vec<Label> {
        let mut ls: Vec<Label> = self.edges.iter().map(|e| e.label).collect();
        ls.sort_unstable();
        ls.dedup();
        ls
    }

    /// True iff at most one distinct label is used (the graph fits the
    /// unlabeled setting).
    pub fn is_effectively_unlabeled(&self) -> bool {
        self.labels_used().len() <= 1
    }

    /// Restriction to the edges with `keep[e] == true` (same vertex set, as
    /// in the paper's subgraph convention).
    pub fn edge_subgraph(&self, keep: &[bool]) -> Graph {
        assert_eq!(keep.len(), self.edges.len());
        let mut b = GraphBuilder::with_vertices(self.n);
        for (e, edge) in self.edges.iter().enumerate() {
            if keep[e] {
                b.edge(edge.src, edge.dst, edge.label);
            }
        }
        b.build()
    }

    /// Builds the one-way path `0 --l0--> 1 --l1--> 2 …`.
    pub fn one_way_path(labels: &[Label]) -> Graph {
        let mut b = GraphBuilder::with_vertices(labels.len() + 1);
        for (i, &l) in labels.iter().enumerate() {
            b.edge(i, i + 1, l);
        }
        b.build()
    }

    /// Builds the unlabeled one-way path with `m` edges (`→^m`).
    pub fn directed_path(m: usize) -> Graph {
        Graph::one_way_path(&vec![Label::UNLABELED; m])
    }

    /// Builds the two-way path `0 − 1 − 2 …` where step `i` has the given
    /// direction and label.
    pub fn two_way_path(steps: &[(Dir, Label)]) -> Graph {
        let mut b = GraphBuilder::with_vertices(steps.len() + 1);
        for (i, &(d, l)) in steps.iter().enumerate() {
            match d {
                Dir::Forward => b.edge(i, i + 1, l),
                Dir::Backward => b.edge(i + 1, i, l),
            };
        }
        b.build()
    }

    /// Builds a downward tree from a parent table: `parent[v]` is
    /// `Some((parent, label))` for non-roots.
    pub fn downward_tree(parent: &[Option<(VertexId, Label)>]) -> Graph {
        let mut b = GraphBuilder::with_vertices(parent.len());
        for (v, p) in parent.iter().enumerate() {
            if let Some((u, l)) = p {
                b.edge(*u, v, *l);
            }
        }
        b.build()
    }

    /// The disjoint union of graphs (vertex ids are shifted).
    pub fn disjoint_union(parts: &[&Graph]) -> Graph {
        let total: usize = parts.iter().map(|g| g.n_vertices()).sum();
        let mut b = GraphBuilder::with_vertices(total.max(1));
        let mut base = 0;
        for g in parts {
            for e in g.edges() {
                b.edge(base + e.src, base + e.dst, e.label);
            }
            base += g.n_vertices();
        }
        b.build()
    }

    /// A compact one-line rendering, for diagnostics and the figures binary.
    pub fn render(&self) -> String {
        let mut s = format!("Graph(n={}, m={}; ", self.n, self.edges.len());
        for (i, e) in self.edges.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            s.push_str(&format!("{}-{}->{}", e.src, e.label.name(), e.dst));
        }
        s.push(')');
        s
    }

    /// GraphViz DOT output.
    pub fn to_dot(&self, name: &str) -> String {
        let mut s = format!("digraph {name} {{\n");
        for v in 0..self.n {
            s.push_str(&format!("  v{v};\n"));
        }
        for e in &self.edges {
            s.push_str(&format!(
                "  v{} -> v{} [label=\"{}\"];\n",
                e.src,
                e.dst,
                e.label.name()
            ));
        }
        s.push('}');
        s
    }
}

impl fmt::Debug for Graph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.render())
    }
}

/// Incremental [`Graph`] construction.
///
/// Duplicate ordered pairs are rejected with a panic in debug code paths
/// (the paper's graphs have no multi-edges); use [`GraphBuilder::try_edge`]
/// for a fallible version.
pub struct GraphBuilder {
    n: usize,
    edges: Vec<Edge>,
    by_pair: HashMap<(VertexId, VertexId), EdgeId>,
}

impl GraphBuilder {
    /// Starts a graph with `n ≥ 1` vertices (vertex sets are non-empty).
    pub fn with_vertices(n: usize) -> Self {
        assert!(n >= 1, "graphs have a non-empty vertex set");
        GraphBuilder {
            n,
            edges: Vec::new(),
            by_pair: HashMap::new(),
        }
    }

    /// Ensures vertex `v` exists, growing the vertex set as needed.
    pub fn touch(&mut self, v: VertexId) -> &mut Self {
        self.n = self.n.max(v + 1);
        self
    }

    /// Adds a fresh vertex and returns its id.
    pub fn add_vertex(&mut self) -> VertexId {
        self.n += 1;
        self.n - 1
    }

    /// Adds an edge; panics on a duplicate ordered pair.
    pub fn edge(&mut self, src: VertexId, dst: VertexId, label: Label) -> EdgeId {
        self.try_edge(src, dst, label)
            .unwrap_or_else(|| panic!("duplicate edge ({src}, {dst})"))
    }

    /// Adds an edge unless the ordered pair is already present.
    pub fn try_edge(&mut self, src: VertexId, dst: VertexId, label: Label) -> Option<EdgeId> {
        self.touch(src).touch(dst);
        if self.by_pair.contains_key(&(src, dst)) {
            return None;
        }
        let id = self.edges.len();
        self.edges.push(Edge { src, dst, label });
        self.by_pair.insert((src, dst), id);
        Some(id)
    }

    /// True iff the ordered pair already carries an edge.
    pub fn has_edge(&self, src: VertexId, dst: VertexId) -> bool {
        self.by_pair.contains_key(&(src, dst))
    }

    /// Finalizes the graph.
    pub fn build(mut self) -> Graph {
        // Graphs outlive their builders (instances, cached and recorded
        // queries): drop the edge list's growth slack, up to half its
        // allocation, before it is kept.
        self.edges.shrink_to_fit();
        let n = self.n;
        // Counting sort of edge ids into the out- and in-slots (stable, so
        // each slot keeps insertion order), behind the 2n + 1 boundaries.
        let bounds = 2 * n + 1;
        let mut index = vec![0usize; bounds + 2 * self.edges.len()];
        index[0] = bounds;
        for e in &self.edges {
            index[e.src + 1] += 1;
            index[n + e.dst + 1] += 1;
        }
        for s in 1..bounds {
            index[s] += index[s - 1];
        }
        let mut next = index[..bounds].to_vec();
        for (i, e) in self.edges.iter().enumerate() {
            for slot in [e.src, n + e.dst] {
                index[next[slot]] = i;
                next[slot] += 1;
            }
        }
        Graph {
            n,
            edges: self.edges,
            index,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_basics() {
        let mut b = GraphBuilder::with_vertices(3);
        let e0 = b.edge(0, 1, Label(0));
        let e1 = b.edge(1, 2, Label(1));
        assert!(b.try_edge(0, 1, Label(1)).is_none());
        let g = b.build();
        assert_eq!(g.n_vertices(), 3);
        assert_eq!(g.n_edges(), 2);
        assert_eq!(g.edge(e0).label, Label(0));
        assert_eq!(g.edge(e1).dst, 2);
        assert_eq!(g.edge_between(0, 1), Some(e0));
        assert_eq!(g.edge_between(1, 0), None);
        assert_eq!(g.out_degree(1), 1);
        assert_eq!(g.in_degree(1), 1);
        assert_eq!(g.und_degree(1), 2);
    }

    #[test]
    fn two_cycle_is_allowed() {
        // a → b and b → a are distinct ordered pairs, hence both allowed.
        let mut b = GraphBuilder::with_vertices(2);
        b.edge(0, 1, Label(0));
        b.edge(1, 0, Label(0));
        let g = b.build();
        assert_eq!(g.n_edges(), 2);
        assert_eq!(g.und_degree(0), 2);
    }

    #[test]
    fn path_constructors() {
        let p = Graph::one_way_path(&[Label(0), Label(1)]);
        assert_eq!(p.n_vertices(), 3);
        assert_eq!(p.n_edges(), 2);
        let q = Graph::two_way_path(&[(Dir::Forward, Label(0)), (Dir::Backward, Label(1))]);
        assert_eq!(q.edge(1).src, 2);
        assert_eq!(q.edge(1).dst, 1);
        let single = Graph::directed_path(0);
        assert_eq!(single.n_vertices(), 1);
        assert_eq!(single.n_edges(), 0);
    }

    #[test]
    fn downward_tree_constructor() {
        let g = Graph::downward_tree(&[
            None,
            Some((0, Label(0))),
            Some((0, Label(1))),
            Some((1, Label(0))),
        ]);
        assert_eq!(g.n_edges(), 3);
        assert_eq!(g.in_degree(0), 0);
        assert_eq!(g.out_degree(0), 2);
    }

    #[test]
    fn disjoint_union_shifts_ids() {
        let a = Graph::directed_path(1);
        let b = Graph::directed_path(2);
        let u = Graph::disjoint_union(&[&a, &b]);
        assert_eq!(u.n_vertices(), 5);
        assert_eq!(u.n_edges(), 3);
        assert_eq!(u.edge(1).src, 2);
    }

    #[test]
    fn subgraph_keeps_vertices() {
        let g = Graph::directed_path(3);
        let sub = g.edge_subgraph(&[true, false, true]);
        assert_eq!(sub.n_vertices(), 4);
        assert_eq!(sub.n_edges(), 2);
    }

    #[test]
    fn labels_used_and_unlabeled() {
        let g = Graph::one_way_path(&[Label(2), Label(0), Label(2)]);
        assert_eq!(g.labels_used(), vec![Label(0), Label(2)]);
        assert!(!g.is_effectively_unlabeled());
        assert!(Graph::directed_path(4).is_effectively_unlabeled());
    }
}
