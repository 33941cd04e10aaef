//! Homomorphism testing between directed labeled graphs.
//!
//! `G ⇝ H` holds when there is a map `h : V(G) → V(H)` such that every edge
//! `u --R--> v` of `G` has an image edge `h(u) --R--> h(v)` in `H`.
//!
//! The general problem is NP-hard (it is CSP). [`HomPlan`] is the crate's
//! one backtracking search. It is planned once per (query, instance) pair
//! — the assignment order, and for each depth the anchor edge that draws
//! the candidates and the checks against earlier vertices — and then run
//! on any number of possible worlds of the instance, reusing its buffers.
//! The world loops of `phom-core` hold one plan per request: the
//! Monte-Carlo estimators (one plan per UCQ disjunct) and the brute-force
//! solvers for CQs and UCQs. [`find_hom`], [`exists_hom`] and
//! [`exists_hom_into_world`] are one-shot wrappers over a fresh plan, for
//! single checks such as the query [`core_of`]. The polynomial-time
//! special cases used by the paper's algorithms live in [`crate::xprop`]
//! (X-property instances) and in the collapse arguments of `phom-core`.

use crate::digraph::{Dir, Graph, Label, VertexId};
use std::ops::Range;

/// Decides whether `G ⇝ H`.
pub fn exists_hom(g: &Graph, h: &Graph) -> bool {
    find_hom(g, h).is_some()
}

/// Finds a homomorphism from `g` to `h` if one exists.
pub fn find_hom(g: &Graph, h: &Graph) -> Option<Vec<VertexId>> {
    HomPlan::new(g, h).find()
}

/// Decides whether `G` maps into the world of `H` selected by the edge mask
/// (the subgraph keeps all vertices, per the paper's convention). A loop
/// over many worlds should build one [`HomPlan`] and run it per world.
pub fn exists_hom_into_world(g: &Graph, h: &Graph, present: &[bool]) -> bool {
    HomPlan::new(g, h).maps_into_world(present)
}

/// A query edge between the vertex assigned at some depth and a vertex
/// assigned earlier.
#[derive(Clone, Copy)]
struct Constraint {
    /// The earlier vertex.
    other: VertexId,
    label: Label,
    /// `Forward` for `u --label--> other`, `Backward` for
    /// `other --label--> u`.
    dir: Dir,
}

/// One depth of the search.
struct Step {
    /// The query vertex assigned at this depth.
    vertex: VertexId,
    /// The edge to an earlier vertex whose image draws the candidates, or
    /// `None` for the first vertex of a component (every instance vertex
    /// is then a candidate).
    anchor: Option<Constraint>,
    /// The other edges to earlier vertices: `HomPlan::checks[range]`.
    checks: Range<usize>,
    /// The label of the vertex's self-loop, if it has one.
    self_loop: Option<Label>,
}

/// A homomorphism search from a query `G` into the worlds of an instance
/// `H`, planned once and run per world.
///
/// Query vertices are assigned in BFS order across each component, so
/// exactly the first `d` of them are assigned at depth `d`, and every
/// vertex after the first of its component has an assigned neighbor. The
/// plan fixes, per depth, the first such neighbor's edge (its image's
/// matching instance edges give the candidates, in increasing vertex
/// order) and the remaining edges to check against earlier images. A run
/// backtracks over those steps in a reused assignment and reused
/// per-depth candidate buffers, so checking a world allocates nothing.
pub struct HomPlan<'h> {
    h: &'h Graph,
    steps: Vec<Step>,
    checks: Vec<Constraint>,
    /// `assignment[u]` is the image of query vertex `u` (meaningful for
    /// the vertices assigned so far).
    assignment: Vec<VertexId>,
    /// `candidates[d]` holds depth `d`'s candidates during a run.
    candidates: Vec<Vec<VertexId>>,
}

impl<'h> HomPlan<'h> {
    /// Plans the search of `g ⇝ h`.
    pub fn new(g: &Graph, h: &'h Graph) -> Self {
        let n = g.n_vertices();
        // BFS across each component, with `order` as the queue.
        let mut order = Vec::with_capacity(n);
        let mut depth = vec![usize::MAX; n];
        for start in 0..n {
            if depth[start] != usize::MAX {
                continue;
            }
            depth[start] = order.len();
            order.push(start);
            let mut next = order.len() - 1;
            while next < order.len() {
                let v = order[next];
                next += 1;
                for (w, _, _) in g.und_neighbors(v) {
                    if depth[w] == usize::MAX {
                        depth[w] = order.len();
                        order.push(w);
                    }
                }
            }
        }
        let mut checks = Vec::new();
        let steps = order
            .iter()
            .enumerate()
            .map(|(d, &u)| {
                let earlier = |w: VertexId| depth[w] < d;
                let constraint = |e, dir| {
                    let edge = g.edge(e);
                    let other = if dir == Dir::Forward {
                        edge.dst
                    } else {
                        edge.src
                    };
                    Constraint {
                        other,
                        label: edge.label,
                        dir,
                    }
                };
                let anchor = g.und_neighbors(u).find(|&(w, _, _)| earlier(w));
                let start = checks.len();
                for (w, e, dir) in g.und_neighbors(u) {
                    if earlier(w) && anchor.is_none_or(|(_, a, _)| a != e) {
                        checks.push(constraint(e, dir));
                    }
                }
                Step {
                    vertex: u,
                    anchor: anchor.map(|(_, e, dir)| constraint(e, dir)),
                    checks: start..checks.len(),
                    self_loop: g.edge_between(u, u).map(|e| g.edge(e).label),
                }
            })
            .collect();
        HomPlan {
            h,
            steps,
            checks,
            assignment: vec![0; n],
            candidates: vec![Vec::new(); n],
        }
    }

    /// Whether the query maps into the world of the instance that keeps
    /// the edges `e` with `present[e]`.
    pub fn maps_into_world(&mut self, present: &[bool]) -> bool {
        self.run(Some(present))
    }

    /// A homomorphism into the whole instance, if one exists: the first
    /// in the search order, as the image of each query vertex.
    pub fn find(&mut self) -> Option<Vec<VertexId>> {
        self.run(None).then(|| self.assignment.clone())
    }

    fn run(&mut self, present: Option<&[bool]>) -> bool {
        let mut candidates = std::mem::take(&mut self.candidates);
        let found = self.search(0, present, &mut candidates);
        self.candidates = candidates;
        found
    }

    /// Whether the instance edge `src --label--> dst` is in the world.
    #[inline]
    fn has_edge(
        &self,
        src: VertexId,
        dst: VertexId,
        label: Label,
        present: Option<&[bool]>,
    ) -> bool {
        matches!(self.h.edge_between(src, dst),
            Some(he) if self.h.edge(he).label == label && present.is_none_or(|m| m[he]))
    }

    /// Extends the assignment from depth `d` on; `candidates` holds the
    /// buffers of depth `d` and deeper.
    fn search(
        &mut self,
        d: usize,
        present: Option<&[bool]>,
        candidates: &mut [Vec<VertexId>],
    ) -> bool {
        let Some(step) = self.steps.get(d) else {
            return true;
        };
        let (vertex, self_loop, checks) = (step.vertex, step.self_loop, step.checks.clone());
        let Some((mine, deeper)) = candidates.split_first_mut() else {
            unreachable!("one candidate buffer per depth");
        };
        mine.clear();
        match step.anchor {
            None => mine.extend(0..self.h.n_vertices()),
            Some(anchor) => {
                let hw = self.assignment[anchor.other];
                match anchor.dir {
                    // u --label--> w: the image needs an edge into h(w).
                    Dir::Forward => {
                        for &he in self.h.in_edges(hw) {
                            let edge = self.h.edge(he);
                            if edge.label == anchor.label && present.is_none_or(|m| m[he]) {
                                mine.push(edge.src);
                            }
                        }
                    }
                    // w --label--> u: the image needs an edge out of h(w).
                    Dir::Backward => {
                        for &he in self.h.out_edges(hw) {
                            let edge = self.h.edge(he);
                            if edge.label == anchor.label && present.is_none_or(|m| m[he]) {
                                mine.push(edge.dst);
                            }
                        }
                    }
                }
                mine.sort_unstable();
            }
        }
        for &img in mine.iter() {
            let consistent = self.checks[checks.clone()].iter().all(|c| {
                let hv = self.assignment[c.other];
                match c.dir {
                    Dir::Forward => self.has_edge(img, hv, c.label, present),
                    Dir::Backward => self.has_edge(hv, img, c.label, present),
                }
            }) && self_loop.is_none_or(|l| self.has_edge(img, img, l, present));
            if consistent {
                self.assignment[vertex] = img;
                if self.search(d + 1, present, deeper) {
                    return true;
                }
            }
        }
        false
    }
}

/// Checks that `assignment` is a homomorphism from `g` to `h` (testing aid).
pub fn is_hom(g: &Graph, h: &Graph, assignment: &[VertexId]) -> bool {
    assignment.len() == g.n_vertices()
        && g.edges().iter().all(|e| {
            matches!(h.edge_between(assignment[e.src], assignment[e.dst]),
                 Some(he) if h.edge(he).label == e.label)
        })
}

/// Two graphs are equivalent when each maps into the other (Section 2).
pub fn equivalent(g1: &Graph, g2: &Graph) -> bool {
    exists_hom(g1, g2) && exists_hom(g2, g1)
}

/// The induced subgraph on the vertices with `keep[v] = true` (vertices
/// renumbered in increasing order).
fn induced_subgraph(g: &Graph, keep: &[bool]) -> Graph {
    let mut renumber = vec![usize::MAX; g.n_vertices()];
    let mut next = 0;
    for (v, &k) in keep.iter().enumerate() {
        if k {
            renumber[v] = next;
            next += 1;
        }
    }
    let mut b = crate::digraph::GraphBuilder::with_vertices(next.max(1));
    for e in g.edges() {
        if keep[e.src] && keep[e.dst] {
            b.edge(renumber[e.src], renumber[e.dst], e.label);
        }
    }
    b.build()
}

/// The **core** of a query graph: a vertex-minimal equivalent induced
/// subgraph. Computed by greedy retraction — while some vertex `v` admits
/// `G ⇝ G − v`, remove it. This terminates at a core because any
/// non-core graph retracts onto a proper induced subgraph, which in
/// particular misses some vertex.
///
/// Minimizing a query before evaluation is sound for `PHom` (equivalent
/// queries have equal probability on every instance) and realizes the
/// paper's collapses as special cases: the core of an unlabeled `⊔DWT`
/// query *is* the path `→^m` of Prop 5.5 (up to iso). Worst-case
/// exponential in the **query** size only — queries are the small input
/// in combined complexity, and hom-testing reuses the same search as
/// [`exists_hom`].
pub fn core_of(g: &Graph) -> Graph {
    let mut cur = g.clone();
    'outer: loop {
        if cur.n_vertices() <= 1 {
            return cur;
        }
        for v in 0..cur.n_vertices() {
            let mut keep = vec![true; cur.n_vertices()];
            keep[v] = false;
            let smaller = induced_subgraph(&cur, &keep);
            if exists_hom(&cur, &smaller) {
                cur = smaller;
                continue 'outer;
            }
        }
        return cur;
    }
}

/// Whether `g` is its own core (no single-vertex retraction applies —
/// equivalent to having no proper retract at all).
pub fn is_core(g: &Graph) -> bool {
    g.n_vertices() <= 1
        || (0..g.n_vertices()).all(|v| {
            let mut keep = vec![true; g.n_vertices()];
            keep[v] = false;
            !exists_hom(g, &induced_subgraph(g, &keep))
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::digraph::{Dir, GraphBuilder, Label};

    const R: Label = Label(0);
    const S: Label = Label(1);

    #[test]
    fn path_into_longer_path() {
        let g = Graph::directed_path(2);
        let h = Graph::directed_path(5);
        assert!(exists_hom(&g, &h));
        assert!(!exists_hom(&h, &g));
        let hom = find_hom(&g, &h).unwrap();
        assert!(is_hom(&g, &h, &hom));
    }

    #[test]
    fn labels_must_match() {
        let g = Graph::one_way_path(&[R, S]);
        let h1 = Graph::one_way_path(&[R, S, R]);
        let h2 = Graph::one_way_path(&[R, R, S]);
        assert!(exists_hom(&g, &h1));
        assert!(exists_hom(&g, &h2));
        let h3 = Graph::one_way_path(&[S, R, R]);
        assert!(!exists_hom(&g, &h3));
    }

    #[test]
    fn direction_matters() {
        let g = Graph::two_way_path(&[(Dir::Forward, R), (Dir::Backward, R)]);
        let h = Graph::one_way_path(&[R, R]);
        // → ← cannot map into → → unless it folds: u→v←w maps with u,w ↦
        // same source? u→v and w→v require edges x→y and z→y; in →→ the
        // middle vertex has in-degree 1, the last has in-degree 1: map
        // v ↦ 1, u ↦ 0, w ↦ 0. That IS a homomorphism.
        assert!(exists_hom(&g, &h));
        // But a genuine zig-zag of length 4 needs more room: →←→ into →→?
        let zig = Graph::two_way_path(&[(Dir::Forward, R), (Dir::Backward, R), (Dir::Forward, R)]);
        assert!(exists_hom(&zig, &h)); // still folds
                                       // Into a single edge, → ← folds too (u,w ↦ src, v ↦ dst).
        let single = Graph::one_way_path(&[R]);
        assert!(exists_hom(&g, &single));
    }

    #[test]
    fn dwt_query_equivalent_to_its_height_path() {
        // Proposition 5.5: an unlabeled DWT is equivalent to →^height.
        let u = Label::UNLABELED;
        let tree = Graph::downward_tree(&[
            None,
            Some((0, u)),
            Some((0, u)),
            Some((1, u)),
            Some((1, u)),
            Some((4, u)),
        ]);
        // Height = 3 (0→1→4→5).
        assert!(equivalent(&tree, &Graph::directed_path(3)));
        assert!(!equivalent(&tree, &Graph::directed_path(2)));
        assert!(!equivalent(&tree, &Graph::directed_path(4)));
    }

    #[test]
    fn cycle_needs_cycle() {
        let mut b = GraphBuilder::with_vertices(3);
        b.edge(0, 1, R);
        b.edge(1, 2, R);
        b.edge(2, 0, R);
        let triangle = b.build();
        let path = Graph::one_way_path(&[R, R, R, R]);
        assert!(!exists_hom(&triangle, &path));
        // A 3-cycle maps into itself rotated.
        assert!(exists_hom(&triangle, &triangle));
        // The path maps into the cycle (wraps around).
        assert!(exists_hom(&path, &triangle));
    }

    /// Whether `g` maps into the world of `h` kept by `present`, by
    /// enumerating all `|V(H)|^|V(G)|` maps.
    fn maps_by_enumeration(g: &Graph, h: &Graph, present: &[bool]) -> bool {
        let (n, m) = (g.n_vertices(), h.n_vertices());
        let mut map = vec![0; n];
        loop {
            let hom = g.edges().iter().all(|e| {
                matches!(h.edge_between(map[e.src], map[e.dst]),
                    Some(he) if h.edge(he).label == e.label && present[he])
            });
            if hom {
                return true;
            }
            // Next map, as an `n`-digit base-`m` counter.
            let Some(i) = map.iter().position(|&img| img + 1 < m) else {
                return false;
            };
            map[i] += 1;
            map[..i].fill(0);
        }
    }

    #[test]
    fn planned_search_matches_enumeration_of_all_maps() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(0x40B1A2);
        let (mut maps, mut mapless) = (0, 0);
        for case in 0..2000 {
            // Dense draws give self-loops and 2-cycles, sparse ones
            // isolated vertices and disconnected queries.
            let density = [0.15, 0.3, 0.5, 0.8][case % 4];
            let sigma = 1 + (case % 3 == 0) as u32;
            let g = crate::generate::arbitrary(rng.gen_range(1..=5), density, sigma, &mut rng);
            let h = crate::generate::arbitrary(rng.gen_range(1..=4), 0.5, sigma, &mut rng);
            let full = vec![true; h.n_edges()];
            let expect = maps_by_enumeration(&g, &h, &full);
            match find_hom(&g, &h) {
                Some(hom) => assert!(expect && is_hom(&g, &h, &hom), "{g:?} into {h:?}: {hom:?}"),
                None => assert!(!expect, "{g:?} into {h:?}: no hom found"),
            }
            let mut plan = HomPlan::new(&g, &h);
            for _ in 0..4 {
                let mask: Vec<bool> = (0..h.n_edges()).map(|_| rng.gen_bool(0.6)).collect();
                let expect = maps_by_enumeration(&g, &h, &mask);
                assert_eq!(
                    plan.maps_into_world(&mask),
                    expect,
                    "{g:?} into {h:?} {mask:?}"
                );
                assert_eq!(exists_hom_into_world(&g, &h, &mask), expect);
                if expect {
                    maps += 1;
                } else {
                    mapless += 1;
                }
            }
        }
        // Both answers are common, so neither side is tested vacuously.
        assert!(
            maps > 1000 && mapless > 1000,
            "{maps} worlds map, {mapless} do not"
        );
    }

    #[test]
    fn world_mask_respected() {
        let g = Graph::directed_path(2);
        let h = Graph::directed_path(2);
        assert!(exists_hom_into_world(&g, &h, &[true, true]));
        assert!(!exists_hom_into_world(&g, &h, &[true, false]));
        assert!(!exists_hom_into_world(&g, &h, &[false, true]));
    }

    #[test]
    fn disconnected_query_needs_all_components() {
        let g = Graph::disjoint_union(&[&Graph::one_way_path(&[R]), &Graph::one_way_path(&[S])]);
        let h_r = Graph::one_way_path(&[R]);
        let h_rs = Graph::one_way_path(&[R, S]);
        assert!(!exists_hom(&g, &h_r));
        assert!(exists_hom(&g, &h_rs));
    }

    #[test]
    fn self_loop_handling() {
        let mut b = GraphBuilder::with_vertices(1);
        b.edge(0, 0, R);
        let loop_g = b.build();
        let path = Graph::one_way_path(&[R, R]);
        assert!(!exists_hom(&loop_g, &path));
        assert!(exists_hom(&loop_g, &loop_g));
        // Any query maps into a reflexive vertex with the right label.
        assert!(exists_hom(&path, &loop_g));
    }

    #[test]
    fn single_vertex_query_always_maps() {
        let g = Graph::directed_path(0);
        let h = Graph::one_way_path(&[R, S]);
        assert!(exists_hom(&g, &h));
    }

    #[test]
    fn core_of_paths_and_trees() {
        // An unlabeled DWT's core is the path of its height (Prop 5.5's
        // collapse, realized by minimization).
        let tree = crate::fixtures::figure_4_dwt();
        let core = core_of(&tree);
        let height = crate::graded::longest_directed_path(&tree).unwrap();
        assert!(equivalent(&core, &Graph::directed_path(height)));
        assert_eq!(core.n_vertices(), height + 1);
        assert!(is_core(&core));
        // A labeled 1WP with distinct labels is already a core.
        let p = Graph::one_way_path(&[R, S, R]);
        assert!(is_core(&p));
        assert_eq!(core_of(&p).n_vertices(), p.n_vertices());
    }

    #[test]
    fn core_of_cycles_and_loops() {
        // A directed triangle is a core.
        let mut b = GraphBuilder::with_vertices(3);
        b.edge(0, 1, R);
        b.edge(1, 2, R);
        b.edge(2, 0, R);
        let triangle = b.build();
        assert!(is_core(&triangle));
        // A reflexive vertex absorbs everything reachable by R-paths:
        // the core of loop ⊔ long R-path is the single looped vertex.
        let mut b = GraphBuilder::with_vertices(1);
        b.edge(0, 0, R);
        let looped = b.build();
        let g = Graph::disjoint_union(&[&looped, &Graph::one_way_path(&[R, R, R])]);
        let core = core_of(&g);
        assert_eq!(core.n_vertices(), 1);
        assert_eq!(core.n_edges(), 1);
    }

    #[test]
    fn core_is_equivalent_and_idempotent() {
        use rand::rngs::SmallRng;
        use rand::SeedableRng;
        let mut rng = SmallRng::seed_from_u64(0xC07E);
        for _ in 0..25 {
            let g = crate::generate::arbitrary(5, 0.35, 2, &mut rng);
            let core = core_of(&g);
            assert!(equivalent(&g, &core));
            assert!(is_core(&core));
            let again = core_of(&core);
            assert_eq!(again.n_vertices(), core.n_vertices());
        }
    }

    #[test]
    fn duplicate_components_collapse_in_core() {
        // G ⊔ G retracts onto G.
        let p = Graph::one_way_path(&[R, S]);
        let dup = Graph::disjoint_union(&[&p, &p]);
        let core = core_of(&dup);
        assert!(equivalent(&core, &p));
        assert_eq!(core.n_vertices(), p.n_vertices());
    }

    #[test]
    fn example_2_2_match_structure() {
        // G = •-R->•-S->•<-S-• has a hom into Figure 1's H exactly when the
        // right edges are there; here we test the certain world.
        let g = crate::fixtures::example_2_2_query();
        let h = crate::fixtures::figure_1();
        assert!(exists_hom(&g, h.graph()));
    }
}
