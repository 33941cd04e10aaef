//! Seeded random generators for the workloads of the benchmark harness and
//! the randomized test suites.
//!
//! Every generator is deterministic given the `rng` passed in; the harness
//! and the tests fix seeds so results are reproducible.

use crate::classes::as_downward_tree;
use crate::digraph::{Dir, Graph, GraphBuilder, Label, VertexId};
use crate::prob::ProbGraph;
use phom_num::Rational;
use rand::Rng;

/// Probability-annotation policy for generated instances.
#[derive(Clone, Copy, Debug)]
pub struct ProbProfile {
    /// Fraction of edges that are certain (π = 1). The paper's hardness
    /// proofs rely on certain edges, and real instances mix both.
    pub certain_ratio: f64,
    /// Denominator for random probabilities (`k/denominator`,
    /// `1 ≤ k < denominator`).
    pub denominator: u64,
}

impl Default for ProbProfile {
    fn default() -> Self {
        ProbProfile {
            certain_ratio: 0.25,
            denominator: 16,
        }
    }
}

impl ProbProfile {
    /// All edges uncertain with probability 1/2 — the "unweighted" regime
    /// the paper's future work discusses, and the regime of all reductions.
    pub fn half() -> Self {
        ProbProfile {
            certain_ratio: 0.0,
            denominator: 2,
        }
    }

    fn sample<R: Rng>(&self, rng: &mut R) -> Rational {
        if rng.gen_bool(self.certain_ratio) {
            Rational::one()
        } else if self.denominator == 2 {
            Rational::from_ratio(1, 2)
        } else {
            Rational::from_ratio(rng.gen_range(1..self.denominator), self.denominator)
        }
    }
}

/// Annotates a graph with random probabilities.
pub fn with_probabilities<R: Rng>(g: Graph, profile: ProbProfile, rng: &mut R) -> ProbGraph {
    let probs = (0..g.n_edges()).map(|_| profile.sample(rng)).collect();
    ProbGraph::new(g, probs)
}

fn random_label<R: Rng>(sigma: u32, rng: &mut R) -> Label {
    Label(rng.gen_range(0..sigma.max(1)))
}

/// A random one-way path with `edges` edges over `sigma` labels.
pub fn one_way_path<R: Rng>(edges: usize, sigma: u32, rng: &mut R) -> Graph {
    let labels: Vec<Label> = (0..edges).map(|_| random_label(sigma, rng)).collect();
    Graph::one_way_path(&labels)
}

/// A random two-way path with `edges` edges over `sigma` labels.
pub fn two_way_path<R: Rng>(edges: usize, sigma: u32, rng: &mut R) -> Graph {
    let steps: Vec<(Dir, Label)> = (0..edges)
        .map(|_| {
            (
                if rng.gen_bool(0.5) {
                    Dir::Forward
                } else {
                    Dir::Backward
                },
                random_label(sigma, rng),
            )
        })
        .collect();
    Graph::two_way_path(&steps)
}

/// A random downward tree with `n ≥ 1` vertices; each non-root vertex picks
/// a uniform parent among earlier vertices (yielding diverse shapes, from
/// path-like to star-like).
pub fn downward_tree<R: Rng>(n: usize, sigma: u32, rng: &mut R) -> Graph {
    assert!(n >= 1);
    let mut parent: Vec<Option<(VertexId, Label)>> = vec![None];
    for v in 1..n {
        parent.push(Some((rng.gen_range(0..v), random_label(sigma, rng))));
    }
    Graph::downward_tree(&parent)
}

/// A random polytree with `n ≥ 1` vertices: a random undirected tree with
/// each edge oriented uniformly at random.
pub fn polytree<R: Rng>(n: usize, sigma: u32, rng: &mut R) -> Graph {
    assert!(n >= 1);
    let mut b = GraphBuilder::with_vertices(n);
    for v in 1..n {
        let p = rng.gen_range(0..v);
        let l = random_label(sigma, rng);
        if rng.gen_bool(0.5) {
            b.edge(p, v, l);
        } else {
            b.edge(v, p, l);
        }
    }
    b.build()
}

/// A random connected graph: a random polytree plus `extra_edges` chords
/// (duplicate ordered pairs are skipped, so the result may have slightly
/// fewer chords than requested).
pub fn connected<R: Rng>(n: usize, extra_edges: usize, sigma: u32, rng: &mut R) -> Graph {
    assert!(n >= 1);
    let tree = polytree(n, sigma, rng);
    let mut b = GraphBuilder::with_vertices(n);
    for e in tree.edges() {
        b.edge(e.src, e.dst, e.label);
    }
    for _ in 0..extra_edges {
        let a = rng.gen_range(0..n);
        let c = rng.gen_range(0..n);
        b.try_edge(a, c, random_label(sigma, rng));
    }
    b.build()
}

/// A disjoint union of `parts` graphs drawn from `gen`.
pub fn union_of<R: Rng>(parts: usize, rng: &mut R, mut gen: impl FnMut(&mut R) -> Graph) -> Graph {
    let graphs: Vec<Graph> = (0..parts).map(|_| gen(rng)).collect();
    let refs: Vec<&Graph> = graphs.iter().collect();
    Graph::disjoint_union(&refs)
}

/// Extracts a random *downward path query* of length `m` from a DWT or
/// polytree instance, so benchmark queries actually have matches ("planted"
/// queries). Returns `None` when the instance has no downward path that
/// long.
pub fn planted_path_query<R: Rng>(h: &Graph, m: usize, rng: &mut R) -> Option<Graph> {
    // Collect all downward paths of length m by scanning every vertex as a
    // bottom endpoint, walking up via the unique parent when it exists.
    let view = as_downward_tree(h);
    let mut candidates: Vec<Vec<Label>> = Vec::new();
    if let Some(view) = view {
        for &v in &view.order {
            let mut labels = Vec::new();
            let mut cur = v;
            while labels.len() < m {
                match view.parent[cur] {
                    Some((p, e)) => {
                        labels.push(h.edge(e).label);
                        cur = p;
                    }
                    None => break,
                }
            }
            if labels.len() == m {
                labels.reverse();
                candidates.push(labels);
            }
        }
    } else {
        // Generic: random walks along directed edges.
        for _ in 0..4 * h.n_vertices().max(8) {
            let mut cur = rng.gen_range(0..h.n_vertices());
            let mut labels = Vec::new();
            while labels.len() < m {
                let outs = h.out_edges(cur);
                if outs.is_empty() {
                    break;
                }
                let e = outs[rng.gen_range(0..outs.len())];
                labels.push(h.edge(e).label);
                cur = h.edge(e).dst;
            }
            if labels.len() == m {
                candidates.push(labels);
            }
        }
    }
    if candidates.is_empty() {
        return None;
    }
    let pick = rng.gen_range(0..candidates.len());
    Some(Graph::one_way_path(&candidates[pick]))
}

/// A random *small* arbitrary graph (possibly disconnected, cyclic, …) for
/// fuzzing the classifier and the brute-force solver.
pub fn arbitrary<R: Rng>(n: usize, density: f64, sigma: u32, rng: &mut R) -> Graph {
    assert!(n >= 1);
    let mut b = GraphBuilder::with_vertices(n);
    for a in 0..n {
        for c in 0..n {
            if rng.gen_bool(density) {
                b.try_edge(a, c, random_label(sigma, rng));
            }
        }
    }
    b.build()
}

/// A random *graded* unlabeled query: a random level assignment on a random
/// tree skeleton plus chords that respect levels (so the result stays
/// graded, possibly with branching, two-wayness, disconnection).
pub fn graded_query<R: Rng>(n: usize, extra_edges: usize, max_level: i64, rng: &mut R) -> Graph {
    assert!(n >= 1);
    let levels: Vec<i64> = (0..n).map(|_| rng.gen_range(0..=max_level)).collect();
    let mut b = GraphBuilder::with_vertices(n);
    // Tree skeleton: connect v to some earlier u with |level diff| = 1 when
    // possible; otherwise leave v possibly isolated (still graded).
    for v in 1..n {
        let candidates: Vec<usize> = (0..v)
            .filter(|&u| (levels[u] - levels[v]).abs() == 1)
            .collect();
        if let Some(&u) = candidates.get(rng.gen_range(0..candidates.len().max(1))) {
            if levels[u] > levels[v] {
                b.try_edge(u, v, Label::UNLABELED);
            } else {
                b.try_edge(v, u, Label::UNLABELED);
            }
        }
    }
    for _ in 0..extra_edges {
        let a = rng.gen_range(0..n);
        let c = rng.gen_range(0..n);
        if levels[a] == levels[c] + 1 {
            b.try_edge(a, c, Label::UNLABELED);
        }
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classes::{classify, ConnClass};
    use crate::graded::is_graded;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(42)
    }

    #[test]
    fn generators_hit_their_classes() {
        let mut r = rng();
        for _ in 0..50 {
            let g = one_way_path(r.gen_range(0..6), 3, &mut r);
            assert!(classify(&g).in_class(ConnClass::OneWayPath));

            let g = two_way_path(r.gen_range(1..6), 3, &mut r);
            assert!(classify(&g).in_class(ConnClass::TwoWayPath));

            let g = downward_tree(r.gen_range(1..10), 3, &mut r);
            assert!(classify(&g).in_class(ConnClass::DownwardTree));

            let g = polytree(r.gen_range(1..10), 3, &mut r);
            assert!(classify(&g).in_class(ConnClass::Polytree));

            let g = connected(r.gen_range(1..10), 3, 3, &mut r);
            assert!(classify(&g).in_class(ConnClass::General));
        }
    }

    #[test]
    fn union_generator() {
        let mut r = rng();
        let g = union_of(3, &mut r, |r| one_way_path(2, 2, r));
        let c = classify(&g);
        assert_eq!(c.components.len(), 3);
        assert!(c.in_union_class(ConnClass::OneWayPath));
    }

    #[test]
    fn planted_queries_have_matches() {
        let mut r = rng();
        for _ in 0..20 {
            let h = downward_tree(30, 2, &mut r);
            if let Some(q) = planted_path_query(&h, 3, &mut r) {
                assert!(crate::hom::exists_hom(&q, &h));
                assert_eq!(q.n_edges(), 3);
            }
        }
    }

    #[test]
    fn planted_queries_on_polytrees() {
        let mut r = rng();
        let h = polytree(60, 1, &mut r);
        if let Some(q) = planted_path_query(&h, 2, &mut r) {
            assert!(crate::hom::exists_hom(&q, &h));
        }
    }

    #[test]
    fn graded_queries_are_graded() {
        let mut r = rng();
        for _ in 0..50 {
            let g = graded_query(r.gen_range(1..12), 4, 4, &mut r);
            assert!(is_graded(&g), "{g:?}");
        }
    }

    #[test]
    fn probability_profiles() {
        let mut r = rng();
        let g = downward_tree(50, 2, &mut r);
        let pg = with_probabilities(g.clone(), ProbProfile::default(), &mut r);
        assert!(pg.probs().iter().all(Rational::is_probability));
        let pg2 = with_probabilities(g, ProbProfile::half(), &mut r);
        assert!(pg2.probs().iter().all(|p| *p == Rational::from_ratio(1, 2)));
    }

    #[test]
    fn determinism_with_fixed_seed() {
        let mut r1 = SmallRng::seed_from_u64(7);
        let mut r2 = SmallRng::seed_from_u64(7);
        let a = polytree(20, 3, &mut r1);
        let b = polytree(20, 3, &mut r2);
        assert_eq!(a, b);
    }
}
