//! Proposition 4.10: `PHomL(1WP, DWT)` is PTIME.
//!
//! The matches of a one-way-path query `u₁ -R₁→ … -R_m→ u_{m+1}` in a
//! downward tree are exactly the downward paths of length `m` whose labels
//! spell `R₁ … R_m`; each vertex of the instance is the bottom endpoint of
//! at most one such path, so there are at most `n` candidate matches.
//!
//! Two evaluation strategies, cross-checked by
//! `tests/solver_vs_bruteforce.rs` (`dp_ablations_agree_with_lineage`):
//!
//! * **Lineage + β-acyclicity** (the paper's proof): one clause per match;
//!   eliminating edge variables bottom-up (each leaf's parent edge first)
//!   is a β-elimination order, and Theorem 4.9's algorithm finishes the
//!   job.
//! * **Direct run-length DP** (timed next to the lineage in the T2-ptime-a
//!   section of `tables`): process the tree bottom-up; the
//!   only relevant state at a vertex is the length of the streak of
//!   *present* edges ending there (capped at `m`), since label matching is
//!   static per vertex. `O(n·m)`.
//!
//! The DP and its circuit twin (`lineage_circuits::fail_into_dwt`) share
//! `run_length_table`: `Fail(v, r)` for `r = 0..=m` has only one or two
//! distinct rows per vertex on most trees, so a row that provably repeats
//! the row before it is not built again (see `run_length_table` for
//! the condition). Both read the one match test, `match_above`.

use phom_graph::classes::{as_downward_tree, as_one_way_path, DwtView};
use phom_graph::{EdgeId, Graph, Label, ProbGraph, VertexId};
use phom_lineage::beta::beta_dnf_probability_with_order;
use phom_lineage::Dnf;
use phom_num::Weight;

/// Prop 4.10's match test: whether the `labels.len()` edges above `v`
/// exist and spell `labels` (so `v` is the bottom endpoint of a match).
/// On success `edges` holds the match's edges, bottom-up.
pub(crate) fn match_above(
    instance: &Graph,
    view: &DwtView,
    labels: &[Label],
    v: VertexId,
    edges: &mut Vec<EdgeId>,
) -> bool {
    edges.clear();
    if view.depth[v] < labels.len() {
        return false;
    }
    let mut cur = v;
    for &label in labels.iter().rev() {
        let (parent, e) = view.parent[cur].expect("depth ≥ m");
        if instance.edge(e).label != label {
            return false;
        }
        edges.push(e);
        cur = parent;
    }
    true
}

/// The run-length table `Fail(v, r)`, `r = 0..=m` with `m = labels.len() ≥
/// 1`, flat: `Fail(v, r)` is entry `v·(m+1) + r`. Vertices are filled
/// bottom-up (reverse BFS order), each row in increasing `r`.
///
/// A matched row (`v` is a match bottom and `r = m`) is `dead`; any other
/// row is built by `row(v, r, table)` from the children's rows `0` and
/// `min(r+1, m)` — except that row `r ≥ 1` repeats row `r − 1`'s entry
/// when both of these hold:
/// * `v`'s match test gives the same result at `r` and `r − 1`;
/// * every child's entry at `min(r+1, m)` equals its entry at `r`.
///
/// Row `r` then reads exactly the inputs row `r − 1` read, so building it
/// would repeat row `r − 1`'s work and return the same entry. So `row`
/// builds every vertex's row 0, before any later row of that vertex.
pub(crate) fn run_length_table<T: Copy + Eq>(
    instance: &Graph,
    view: &DwtView,
    labels: &[Label],
    dead: T,
    mut row: impl FnMut(VertexId, usize, &[T]) -> T,
) -> Vec<T> {
    let m = labels.len();
    debug_assert!(m >= 1);
    let w = m + 1;
    let mut edges = Vec::with_capacity(m);
    let mut fail = vec![dead; instance.n_vertices() * w];
    for &v in view.order.iter().rev() {
        let matched_v = match_above(instance, view, labels, v, &mut edges);
        let matched = |r: usize| matched_v && r >= m;
        for r in 0..=m {
            let repeats = r > 0
                && matched(r) == matched(r - 1)
                && instance.out_edges(v).iter().all(|&e| {
                    let c = instance.edge(e).dst * w;
                    fail[c + (r + 1).min(m)] == fail[c + r]
                });
            fail[v * w + r] = if repeats {
                fail[v * w + r - 1]
            } else if matched(r) {
                dead
            } else {
                row(v, r, &fail)
            };
        }
    }
    fail
}

/// The lineage DNF of a 1WP query on a connected DWT instance, with a valid
/// β-elimination order on its variables (the instance's edges, bottom-up).
/// Returns `None` when the inputs do not have the required shapes.
pub fn lineage(query: &Graph, instance: &Graph) -> Option<(Dnf, Vec<usize>)> {
    let qpath = as_one_way_path(query)?;
    let view = as_downward_tree(instance)?;
    let mut dnf = Dnf::falsum(instance.n_edges());
    if qpath.labels.is_empty() {
        dnf.push_clause(Vec::new()); // single-vertex query: constant true
    } else {
        // One clause per match, by bottom endpoint in BFS order.
        let mut clause = Vec::with_capacity(qpath.labels.len());
        for &v in &view.order {
            if match_above(instance, &view, &qpath.labels, v, &mut clause) {
                dnf.push_clause(clause.clone());
            }
        }
    }
    // β-elimination order: edges bottom-up — eliminate each vertex's parent
    // edge in reverse-BFS (deepest first) order.
    let order: Vec<usize> = view
        .order
        .iter()
        .rev()
        .filter_map(|&v| view.parent[v].map(|(_, e)| e))
        .collect();
    Some((dnf, order))
}

/// `Pr(G ⇝ H)` via the β-acyclic lineage (the paper's algorithm). Requires
/// a 1WP query and a connected DWT instance.
pub fn probability_lineage<W: Weight>(query: &Graph, instance: &ProbGraph) -> Option<W> {
    let (dnf, order) = lineage(query, instance.graph())?;
    if dnf.is_valid() {
        return Some(W::one());
    }
    let probs: Vec<W> = super::lineage_weights(instance);
    Some(
        beta_dnf_probability_with_order(&dnf, &probs, &order)
            .expect("bottom-up is a valid β-elimination order for DWT lineages"),
    )
}

/// `Pr(G ⇝ H)` via the direct run-length DP (ablation). Same preconditions.
///
/// `Fail(v, r)` = Pr[no match fires in subtree(v) | the streak of present
/// edges ending at `v` has length `r`, capped at `m`]. Each distinct row
/// is one value in a pool, and the table holds pool slots (see
/// `run_length_table`); each edge's probability is converted once.
pub fn probability_dp<W: Weight>(query: &Graph, instance: &ProbGraph) -> Option<W> {
    let qpath = as_one_way_path(query)?;
    let view = as_downward_tree(instance.graph())?;
    let m = qpath.labels.len();
    if m == 0 {
        return Some(W::one());
    }
    let g = instance.graph();
    let present: Vec<W> = instance.probs().iter().map(W::from_rational).collect();
    let absent: Vec<W> = present.iter().map(W::complement).collect();
    let w = m + 1;
    let mut values = vec![W::zero()]; // slot 0: a matched row
    let fail = run_length_table(g, &view, &qpath.labels, 0, |v, r, fail| {
        let mut acc = W::one();
        for &e in g.out_edges(v) {
            let c = g.edge(e).dst * w;
            let term = absent[e]
                .mul(&values[fail[c]])
                .add(&present[e].mul(&values[fail[c + (r + 1).min(m)]]));
            acc = acc.mul(&term);
        }
        values.push(acc);
        values.len() - 1
    });
    Some(values[fail[view.root * w]].complement())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bruteforce;
    use phom_graph::generate;
    use phom_graph::Label;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    const R: Label = Label(0);
    const S: Label = Label(1);

    #[test]
    fn single_edge_query_on_small_tree() {
        // Tree: root 0 with children 1 (R, 1/2) and 2 (S, 1/3). Query: -R→.
        let tree = Graph::downward_tree(&[None, Some((0, R)), Some((0, S))]);
        let h = ProbGraph::new(
            tree,
            vec![Rational::from_ratio(1, 2), Rational::from_ratio(1, 3)],
        );
        let q = Graph::one_way_path(&[R]);
        let p = probability_lineage(&q, &h).unwrap();
        assert_eq!(p, Rational::from_ratio(1, 2));
        assert_eq!(probability_dp::<Rational>(&q, &h), Some(p));
    }

    #[test]
    fn label_mismatch_gives_zero() {
        let tree = Graph::downward_tree(&[None, Some((0, R))]);
        let h = ProbGraph::certain(tree);
        let q = Graph::one_way_path(&[S]);
        assert!(probability_lineage::<Rational>(&q, &h).unwrap().is_zero());
        assert!(probability_dp::<Rational>(&q, &h).unwrap().is_zero());
    }

    #[test]
    fn query_longer_than_tree_gives_zero() {
        let tree = Graph::downward_tree(&[None, Some((0, R))]);
        let h = ProbGraph::certain(tree);
        let q = Graph::one_way_path(&[R, R]);
        assert!(probability_lineage::<Rational>(&q, &h).unwrap().is_zero());
    }

    #[test]
    fn empty_query_is_certain() {
        let tree = Graph::downward_tree(&[None, Some((0, R))]);
        let h = ProbGraph::certain(tree);
        let q = Graph::directed_path(0);
        assert!(probability_lineage::<Rational>(&q, &h).unwrap().is_one());
        assert!(probability_dp::<Rational>(&q, &h).unwrap().is_one());
    }

    #[test]
    fn overlapping_matches_share_edges() {
        // Path instance R R R (as a degenerate tree), query R R: two
        // overlapping matches sharing the middle edge.
        let inst = Graph::one_way_path(&[R, R, R]);
        let h = ProbGraph::new(
            inst,
            vec![
                Rational::from_ratio(1, 2),
                Rational::from_ratio(1, 3),
                Rational::from_ratio(1, 5),
            ],
        );
        let q = Graph::one_way_path(&[R, R]);
        let expect = bruteforce::probability(&q, &h);
        assert_eq!(probability_lineage(&q, &h), Some(expect.clone()));
        assert_eq!(probability_dp::<Rational>(&q, &h), Some(expect));
    }

    #[test]
    fn random_labeled_dwts_match_brute_force() {
        let mut rng = SmallRng::seed_from_u64(31);
        for _ in 0..120 {
            let tree = generate::downward_tree(rng.gen_range(1..10), 2, &mut rng);
            let h = generate::with_probabilities(
                tree,
                generate::ProbProfile {
                    certain_ratio: 0.3,
                    denominator: 4,
                },
                &mut rng,
            );
            let m = rng.gen_range(1..4);
            let q = match generate::planted_path_query(h.graph(), m, &mut rng) {
                Some(q) => q,
                None => generate::one_way_path(m, 2, &mut rng),
            };
            let expect = bruteforce::probability(&q, &h);
            let lin: Rational = probability_lineage(&q, &h).unwrap();
            let dp: Rational = probability_dp(&q, &h).unwrap();
            assert_eq!(lin, expect, "q={q:?} h={:?}", h.graph());
            assert_eq!(dp, expect, "q={q:?} h={:?}", h.graph());
        }
    }

    #[test]
    fn lineage_is_beta_acyclic() {
        let mut rng = SmallRng::seed_from_u64(32);
        for _ in 0..40 {
            let tree = generate::downward_tree(rng.gen_range(2..20), 2, &mut rng);
            let q = generate::one_way_path(rng.gen_range(1..4), 2, &mut rng);
            let (dnf, _) = lineage(&q, &tree).unwrap();
            assert!(dnf.hypergraph().is_beta_acyclic());
        }
    }

    use phom_graph::Graph;
    use phom_graph::ProbGraph;
    use phom_num::Rational;
}
