//! The X-property (Definition 4.12) and the polynomial-time homomorphism
//! test of Theorem 4.13 (Gutjahr–Welzl–Woeginger \[25], generalized by
//! Gottlob–Koch–Schulz \[23]).
//!
//! Key observation (which is how we implement Theorem 4.13): a label `R`
//! has the X-property w.r.t. a total order `<` exactly when the binary
//! relation `{(a,b) : a —R→ b}` is **closed under coordinatewise minimum**.
//! Indeed for edges `(n0,n3)` and `(n1,n2)`, the only non-trivial case of
//! closure is `n0 < n1` and `n2 < n3`, where the min pair is `(n0, n2)` —
//! precisely the X-property's conclusion. `min` is a semilattice
//! polymorphism, so establishing **arc consistency** decides the CSP, and
//! assigning every query vertex the minimum of its reduced domain yields a
//! homomorphism.
//!
//! The paper uses this on connected subpaths of a 2WP instance, which
//! trivially have the X-property w.r.t. the path order (Prop 4.11's proof).
//! (Every edge of a path joins adjacent positions, so edges `(n0,n3)`,
//! `(n1,n2)` with `n0 < n1` and `n2 < n3` would have to be the two
//! opposite orientations of one step — which a path never has. Each
//! label's relation is thus vacuously min-closed, and arc consistency on
//! a path window decides the CSP.)
//!
//! Two deciders share that argument:
//!
//! * [`x_property_hom`] — generic AC-3 over any X-property instance graph,
//!   rebuilding each support set by scanning the instance's edges.
//! * [`PathWindowMatcher`] — specialised to the windows `a_i − … − a_{j+1}`
//!   of one two-way path, the probe of Prop 4.11's interval search. A
//!   domain is a bitset over path positions, and on a path every support
//!   set is a **one-bit shift** of the other endpoint's domain masked by
//!   the label's step bitsets (see the type's docs). A revision therefore
//!   costs `⌈window/64⌉` word operations and touches only the words the
//!   window spans, so one probe costs time proportional to the window,
//!   not to the instance.

use std::collections::VecDeque;

use crate::classes::TwoWayPathView;
use crate::digraph::{Dir, Graph, Label, VertexId};

/// Checks Definition 4.12 directly: for every label `R` and all
/// `n0 < n1`, `n2 < n3` with `n0 —R→ n3` and `n1 —R→ n2`, the edge
/// `n0 —R→ n2` must exist. `position[v]` gives the rank of `v` in the
/// order. Quadratic in the number of edges (used in tests, not in the
/// solver's hot path).
pub fn has_x_property(h: &Graph, position: &[usize]) -> bool {
    for e1 in h.edges() {
        for e2 in h.edges() {
            if e1.label != e2.label {
                continue;
            }
            // e1 = n0 → n3, e2 = n1 → n2 with n0 < n1 and n2 < n3.
            let (n0, n3) = (e1.src, e1.dst);
            let (n1, n2) = (e2.src, e2.dst);
            if position[n0] < position[n1] && position[n2] < position[n3] {
                match h.edge_between(n0, n2) {
                    Some(e) if h.edge(e).label == e1.label => {}
                    _ => return false,
                }
            }
        }
    }
    true
}

/// Decides `G ⇝ H` in time `O(|G| · |H|)` up to small factors, **assuming**
/// `H` has the X-property w.r.t. the identity order on its vertex ids.
/// Returns a homomorphism when one exists.
///
/// Callers that cannot guarantee the X-property should verify it first with
/// [`has_x_property`]; with the assumption violated the result may be
/// incorrect (this mirrors Theorem 4.13's precondition).
pub fn x_property_hom(g: &Graph, h: &Graph) -> Option<Vec<VertexId>> {
    let nh = h.n_vertices();
    let words = nh.div_ceil(64);
    // Domains as bitsets: dom[u] ⊆ V(H).
    let mut dom = vec![vec![u64::MAX; words]; g.n_vertices()];
    for d in &mut dom {
        // Mask off bits beyond nh.
        if !nh.is_multiple_of(64) {
            d[words - 1] = (1u64 << (nh % 64)) - 1;
        }
        if nh == 0 {
            return None;
        }
    }

    // Unary pass: a vertex with a self-loop labeled R must map to a vertex
    // with an R self-loop.
    #[allow(clippy::needless_range_loop)] // u is a vertex id, not a slice index
    for u in 0..g.n_vertices() {
        if let Some(e) = g.edge_between(u, u) {
            let label = g.edge(e).label;
            for b in 0..nh {
                let ok = matches!(h.edge_between(b, b), Some(he) if h.edge(he).label == label);
                if !ok {
                    dom[u][b / 64] &= !(1u64 << (b % 64));
                }
            }
        }
    }

    // AC-3 over the binary constraints (one per query edge, both
    // directions).
    let mut queue: VecDeque<usize> = (0..g.n_edges()).collect();
    let mut in_queue = vec![true; g.n_edges()];
    while let Some(ce) = queue.pop_front() {
        in_queue[ce] = false;
        let edge = g.edge(ce);
        if edge.src == edge.dst {
            continue; // handled by the unary pass
        }
        // Supports for src: {a : ∃b ∈ dom[dst], a —R→ b in H}.
        let mut support_src = vec![0u64; words];
        let mut support_dst = vec![0u64; words];
        for hedge in h.edges() {
            if hedge.label != edge.label {
                continue;
            }
            let (a, b) = (hedge.src, hedge.dst);
            if dom[edge.dst][b / 64] >> (b % 64) & 1 == 1 {
                support_src[a / 64] |= 1u64 << (a % 64);
            }
            if dom[edge.src][a / 64] >> (a % 64) & 1 == 1 {
                support_dst[b / 64] |= 1u64 << (b % 64);
            }
        }
        let mut changed = [false; 2];
        for w in 0..words {
            let ns = dom[edge.src][w] & support_src[w];
            if ns != dom[edge.src][w] {
                dom[edge.src][w] = ns;
                changed[0] = true;
            }
            let nd = dom[edge.dst][w] & support_dst[w];
            if nd != dom[edge.dst][w] {
                dom[edge.dst][w] = nd;
                changed[1] = true;
            }
        }
        for (side, &ch) in changed.iter().enumerate() {
            if !ch {
                continue;
            }
            let v = if side == 0 { edge.src } else { edge.dst };
            if dom[v].iter().all(|&w| w == 0) {
                return None; // domain wipe-out: no homomorphism
            }
            // Requeue all constraints incident to v.
            for &oe in g.out_edges(v).iter().chain(g.in_edges(v)) {
                if !in_queue[oe] {
                    in_queue[oe] = true;
                    queue.push_back(oe);
                }
            }
        }
    }

    // Minimum assignment: h(u) = min dom[u].
    let mut assignment = Vec::with_capacity(g.n_vertices());
    for d in &dom {
        let mut min = None;
        for (w, &bits) in d.iter().enumerate() {
            if bits != 0 {
                min = Some(w * 64 + bits.trailing_zeros() as usize);
                break;
            }
        }
        assignment.push(min?);
    }
    debug_assert!(
        crate::hom::is_hom(g, h, &assignment),
        "min-assignment must be a homomorphism on X-property instances"
    );
    Some(assignment)
}

/// Decides `G ⇝ a_i − … − a_{j+1}` for the windows of one two-way path
/// `a_0 − … − a_n` by bit-parallel arc consistency — Prop 4.11's probe.
///
/// Built once per (query, path) pair. For each query label `L` it holds
/// two bitsets over step positions: `F_L` (step `k` is `a_k —L→ a_{k+1}`)
/// and `B_L` (step `k` is `a_{k+1} —L→ a_k`). A query vertex's domain is a
/// bitset over positions, and the supports of a query edge `u —L→ v` are
/// one-bit shifts of the other endpoint's domain:
///
/// ```text
/// dom_u ⊆ (F_L & dom_v >> 1) | (B_L & dom_v) << 1
/// dom_v ⊆ (F_L & dom_u) << 1 | (B_L & dom_u >> 1)
/// ```
///
/// (`a` supports `u` through a forward step `a → a+1` or a backward step
/// `a → a−1`; symmetrically for `v`.) Steps outside the window need no
/// mask: their far endpoint lies outside every domain. A revision reads
/// and writes only the words spanning the window, so a probe costs
/// `O(revisions · ⌈window/64⌉)` whatever the path's length. Path windows
/// have the X-property (module docs), so the arc-consistency fixpoint —
/// which is unique — decides the CSP exactly as [`x_property_hom`] does on
/// the window built as a standalone graph.
pub struct PathWindowMatcher {
    /// Steps of the path; windows lie in `0..n_steps`.
    n_steps: usize,
    /// `u64`s per bitset: enough for positions `0 ..= n_steps`.
    words: usize,
    /// Per query label: `F_L` then `B_L`, `words` each.
    steps: Vec<u64>,
    /// Per query edge: `(src, dst, label slot)`.
    edges: Vec<(VertexId, VertexId, usize)>,
    /// Query edges incident to each query vertex (AC-3 requeue lists).
    incident: Vec<Vec<usize>>,
    /// False when the query has a self-loop (a path has none).
    satisfiable: bool,
    /// Scratch domains, `words` per query vertex; only the current
    /// window's words are meaningful.
    dom: Vec<u64>,
    queue: VecDeque<usize>,
    in_queue: Vec<bool>,
}

impl PathWindowMatcher {
    /// Prepares `query` against the path `path`.
    pub fn new(query: &Graph, path: &TwoWayPathView) -> Self {
        let words = (path.steps.len() + 1).div_ceil(64);
        let mut labels: Vec<Label> = query.labels_used();
        labels.sort_unstable();
        labels.dedup();
        let mut steps = vec![0u64; labels.len() * 2 * words];
        for (k, &(_, label, dir)) in path.steps.iter().enumerate() {
            if let Ok(slot) = labels.binary_search(&label) {
                let half = match dir {
                    Dir::Forward => 0,
                    Dir::Backward => words,
                };
                steps[slot * 2 * words + half + k / 64] |= 1u64 << (k % 64);
            }
        }
        let mut incident = vec![Vec::new(); query.n_vertices()];
        let mut satisfiable = true;
        let edges = query
            .edges()
            .iter()
            .enumerate()
            .map(|(e, edge)| {
                satisfiable &= edge.src != edge.dst;
                incident[edge.src].push(e);
                if edge.dst != edge.src {
                    incident[edge.dst].push(e);
                }
                let slot = labels.binary_search(&edge.label).expect("query label");
                (edge.src, edge.dst, slot)
            })
            .collect();
        PathWindowMatcher {
            n_steps: path.steps.len(),
            words,
            steps,
            edges,
            incident,
            satisfiable,
            dom: vec![0; query.n_vertices() * words],
            queue: VecDeque::new(),
            in_queue: vec![false; query.n_edges()],
        }
    }

    /// Whether the query maps into the window spanning step positions
    /// `start ..= end` (vertices `a_start ..= a_{end+1}`).
    pub fn matches(&mut self, start: usize, end: usize) -> bool {
        assert!(start <= end && end < self.n_steps, "window out of range");
        if !self.satisfiable {
            return false;
        }
        let words = self.words;
        let (lo, hi) = (start / 64, (end + 1) / 64);
        for v in 0..self.incident.len() {
            for w in lo..=hi {
                let mut mask = u64::MAX;
                if w == lo {
                    mask &= u64::MAX << (start % 64);
                }
                if w == hi {
                    mask &= u64::MAX >> (63 - (end + 1) % 64);
                }
                self.dom[v * words + w] = mask;
            }
        }
        self.queue.clear();
        self.queue.extend(0..self.edges.len());
        self.in_queue.fill(true);
        while let Some(e) = self.queue.pop_front() {
            self.in_queue[e] = false;
            let (u, v, slot) = self.edges[e];
            let (fwd, bwd) = (slot * 2 * words, slot * 2 * words + words);
            // `u` at `p` needs a forward step to `v` at `p + 1` or a
            // backward one to `v` at `p − 1`; mirrored for `v`.
            let (changed_u, live_u) = self.revise(u, v, fwd, bwd, lo, hi);
            let (changed_v, live_v) = self.revise(v, u, bwd, fwd, lo, hi);
            if !live_u || !live_v {
                return false; // domain wipe-out: no homomorphism
            }
            for (changed, x) in [(changed_u, u), (changed_v, v)] {
                if changed {
                    for &oe in &self.incident[x] {
                        if !self.in_queue[oe] {
                            self.in_queue[oe] = true;
                            self.queue.push_back(oe);
                        }
                    }
                }
            }
        }
        debug_assert!(
            self.min_assignment_is_hom(lo, hi),
            "min-assignment must be a homomorphism on path windows"
        );
        true
    }

    /// Keeps in `dom[x]` the positions `p` with a support in `dom[y]`:
    /// `p + 1 ∈ dom[y]` with bit `p` set in the step bitset at `to_next`,
    /// or `p − 1 ∈ dom[y]` with bit `p − 1` set in the one at `to_prev` —
    /// one shift each way, over words `lo ..= hi` (words outside the
    /// window read as empty). Returns (changed, non-empty).
    fn revise(
        &mut self,
        x: VertexId,
        y: VertexId,
        to_next: usize,
        to_prev: usize,
        lo: usize,
        hi: usize,
    ) -> (bool, bool) {
        let words = self.words;
        let (dx, dy) = (x * words, y * words);
        let (mut changed, mut live) = (false, 0u64);
        for w in lo..=hi {
            let d = self.dom[dy + w];
            let next = if w < hi { self.dom[dy + w + 1] } else { 0 };
            let carry = if w > lo {
                self.steps[to_prev + w - 1] & self.dom[dy + w - 1]
            } else {
                0
            };
            let support = self.steps[to_next + w] & (d >> 1 | next << 63)
                | (self.steps[to_prev + w] & d) << 1
                | carry >> 63;
            let old = self.dom[dx + w];
            let new = old & support;
            changed |= new != old;
            live |= new;
            self.dom[dx + w] = new;
        }
        (changed, live != 0)
    }

    /// Checks that mapping every query vertex to the minimum of its domain
    /// is a homomorphism into the window (the min-closure argument).
    fn min_assignment_is_hom(&self, lo: usize, hi: usize) -> bool {
        let words = self.words;
        let min = |v: VertexId| {
            let d = &self.dom[v * words..(v + 1) * words];
            (lo..=hi)
                .find(|&w| d[w] != 0)
                .map(|w| w * 64 + d[w].trailing_zeros() as usize)
        };
        let bit = |offset: usize, k: usize| self.steps[offset + k / 64] >> (k % 64) & 1 == 1;
        self.edges.iter().all(|&(u, v, slot)| {
            let (Some(a), Some(c)) = (min(u), min(v)) else {
                return false;
            };
            let f = slot * 2 * words;
            (c == a + 1 && bit(f, a)) || (a == c + 1 && bit(f + words, c))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::digraph::{Dir, GraphBuilder, Label};
    use crate::hom::{exists_hom, is_hom};

    const R: Label = Label(0);
    const S: Label = Label(1);

    /// 2WPs (with vertices in path order) trivially have the X-property —
    /// the argument in Prop 4.11's proof.
    #[test]
    fn two_way_paths_have_x_property() {
        let h = Graph::two_way_path(&[
            (Dir::Forward, R),
            (Dir::Backward, S),
            (Dir::Forward, S),
            (Dir::Forward, R),
        ]);
        let position: Vec<usize> = (0..h.n_vertices()).collect();
        assert!(has_x_property(&h, &position));
    }

    #[test]
    fn x_property_violation_detected() {
        // n0 → n3 and n1 → n2 with n0<n1, n2<n3 but no n0 → n2.
        let mut b = GraphBuilder::with_vertices(4);
        b.edge(0, 3, R);
        b.edge(1, 2, R);
        let h = b.build();
        let position: Vec<usize> = (0..4).collect();
        assert!(!has_x_property(&h, &position));
        // Adding the closing edge restores it.
        let mut b = GraphBuilder::with_vertices(4);
        b.edge(0, 3, R);
        b.edge(1, 2, R);
        b.edge(0, 2, R);
        assert!(has_x_property(&b.build(), &position));
    }

    #[test]
    fn hom_on_paths_agrees_with_backtracking() {
        // Exhaustive-ish check on small 2WPs: X-property solver must agree
        // with the reference backtracking solver.
        let dirs = [Dir::Forward, Dir::Backward];
        let labels = [R, S];
        let mut checked = 0;
        for hbits in 0..(1 << 3) {
            for hlab in 0..(1 << 3) {
                let steps: Vec<(Dir, Label)> = (0..3)
                    .map(|i| (dirs[(hbits >> i) & 1], labels[(hlab >> i) & 1]))
                    .collect();
                let h = Graph::two_way_path(&steps);
                assert!(has_x_property(&h, &(0..h.n_vertices()).collect::<Vec<_>>()));
                for gbits in 0..(1 << 2) {
                    for glab in 0..(1 << 2) {
                        let gsteps: Vec<(Dir, Label)> = (0..2)
                            .map(|i| (dirs[(gbits >> i) & 1], labels[(glab >> i) & 1]))
                            .collect();
                        let g = Graph::two_way_path(&gsteps);
                        let expect = exists_hom(&g, &h);
                        let got = x_property_hom(&g, &h);
                        assert_eq!(got.is_some(), expect, "g={g:?} h={h:?}");
                        if let Some(a) = got {
                            assert!(is_hom(&g, &h, &a));
                        }
                        checked += 1;
                    }
                }
            }
        }
        assert_eq!(checked, 1024);
    }

    #[test]
    fn branching_query_on_path() {
        // A tree query into a path instance: u → v, u → w with labels R, S.
        let mut b = GraphBuilder::with_vertices(3);
        b.edge(0, 1, R);
        b.edge(0, 2, S);
        let g = b.build();
        // Instance a0 -R→ a1, a0 -S→? No: a path can't have two out-edges
        // at one vertex... unless the query folds. With R = S it folds.
        let h = Graph::two_way_path(&[(Dir::Forward, R), (Dir::Forward, S)]);
        assert_eq!(x_property_hom(&g, &h).is_some(), exists_hom(&g, &h));
        let mut b = GraphBuilder::with_vertices(3);
        b.edge(0, 1, R);
        b.edge(0, 2, R);
        let g_fold = b.build();
        let h2 = Graph::two_way_path(&[(Dir::Forward, R)]);
        // u→v, u→w folds onto a single R edge.
        assert!(x_property_hom(&g_fold, &h2).is_some());
        assert!(exists_hom(&g_fold, &h2));
    }

    #[test]
    fn cyclic_query_on_path_instance() {
        // A directed 2-cycle query never maps into a path.
        let mut b = GraphBuilder::with_vertices(2);
        b.edge(0, 1, R);
        b.edge(1, 0, R);
        let g = b.build();
        let h = Graph::two_way_path(&[(Dir::Forward, R), (Dir::Backward, R)]);
        assert!(x_property_hom(&g, &h).is_none());
        assert!(!exists_hom(&g, &h));
    }

    #[test]
    fn self_loop_query() {
        let mut b = GraphBuilder::with_vertices(1);
        b.edge(0, 0, R);
        let g = b.build();
        let h = Graph::two_way_path(&[(Dir::Forward, R)]);
        assert!(x_property_hom(&g, &h).is_none());
    }

    #[test]
    fn random_connected_queries_on_random_2wps_agree() {
        use rand::{rngs::SmallRng, Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(0x5eed);
        for _ in 0..200 {
            let hlen = rng.gen_range(1..8);
            let steps: Vec<(Dir, Label)> = (0..hlen)
                .map(|_| {
                    (
                        if rng.gen_bool(0.5) {
                            Dir::Forward
                        } else {
                            Dir::Backward
                        },
                        Label(rng.gen_range(0..2)),
                    )
                })
                .collect();
            let h = Graph::two_way_path(&steps);
            // Random small connected query: a random tree plus extra edges.
            let qn = rng.gen_range(1..5);
            let mut b = GraphBuilder::with_vertices(qn);
            for v in 1..qn {
                let p = rng.gen_range(0..v);
                if rng.gen_bool(0.5) {
                    b.try_edge(p, v, Label(rng.gen_range(0..2)));
                } else {
                    b.try_edge(v, p, Label(rng.gen_range(0..2)));
                }
            }
            for _ in 0..rng.gen_range(0..2) {
                let a = rng.gen_range(0..qn);
                let c = rng.gen_range(0..qn);
                b.try_edge(a, c, Label(rng.gen_range(0..2)));
            }
            let g = b.build();
            // Skip disconnected queries (X-property theorem is for CQs in
            // general, but our use is connected; the solver handles both).
            let expect = exists_hom(&g, &h);
            let got = x_property_hom(&g, &h);
            assert_eq!(got.is_some(), expect, "g={g:?} h={h:?}");
        }
    }
}
