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
//!   section of `tables`): process the tree top-down; the
//!   only relevant state at a vertex is the length of the streak of
//!   *present* edges ending there (capped at `m`), since label matching is
//!   static per vertex. `O(n·m)`.

use phom_graph::classes::{as_downward_tree, as_one_way_path};
use phom_graph::{Graph, ProbGraph};
use phom_lineage::beta::beta_dnf_probability_with_order;
use phom_lineage::Dnf;
use phom_num::Weight;

/// The lineage DNF of a 1WP query on a connected DWT instance, with a valid
/// β-elimination order on its variables (the instance's edges, bottom-up).
/// Returns `None` when the inputs do not have the required shapes.
pub fn lineage(query: &Graph, instance: &Graph) -> Option<(Dnf, Vec<usize>)> {
    let qpath = as_one_way_path(query)?;
    let view = as_downward_tree(instance)?;
    let m = qpath.labels.len();
    let mut dnf = Dnf::falsum(instance.n_edges());
    if m == 0 {
        dnf.push_clause(Vec::new()); // single-vertex query: constant true
    } else {
        // For each vertex v at depth ≥ m, walk up m edges and compare
        // labels (from the bottom: query labels reversed).
        for &v in &view.order {
            if view.depth[v] < m {
                continue;
            }
            let mut clause = Vec::with_capacity(m);
            let mut cur = v;
            let mut ok = true;
            for i in 0..m {
                let (parent, e) = view.parent[cur].expect("depth ≥ m");
                if instance.edge(e).label != qpath.labels[m - 1 - i] {
                    ok = false;
                    break;
                }
                clause.push(e);
                cur = parent;
            }
            if ok {
                dnf.push_clause(clause);
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
    let probs: Vec<W> = instance.probs().iter().map(W::from_rational).collect();
    Some(
        beta_dnf_probability_with_order(&dnf, &probs, &order)
            .expect("bottom-up is a valid β-elimination order for DWT lineages"),
    )
}

/// `Pr(G ⇝ H)` via the direct run-length DP (ablation). Same preconditions.
pub fn probability_dp<W: Weight>(query: &Graph, instance: &ProbGraph) -> Option<W> {
    let qpath = as_one_way_path(query)?;
    let view = as_downward_tree(instance.graph())?;
    let m = qpath.labels.len();
    if m == 0 {
        return Some(W::one());
    }
    let g = instance.graph();
    // matches[v]: the upward path of m edges above v exists and spells the
    // query labels (bottom-up reversed).
    let mut matches = vec![false; g.n_vertices()];
    for &v in &view.order {
        if view.depth[v] < m {
            continue;
        }
        let mut cur = v;
        let mut ok = true;
        for i in 0..m {
            let (parent, e) = view.parent[cur].unwrap();
            if g.edge(e).label != qpath.labels[m - 1 - i] {
                ok = false;
                break;
            }
            cur = parent;
        }
        matches[v] = ok;
    }
    // fail[v][r] = Pr[no match fires in subtree(v) | streak of present
    // edges ending at v has length r (capped at m)].
    let mut fail: Vec<Vec<W>> = vec![Vec::new(); g.n_vertices()];
    for &v in view.order.iter().rev() {
        let mut row = Vec::with_capacity(m + 1);
        for r in 0..=m {
            if matches[v] && r >= m {
                row.push(W::zero());
                continue;
            }
            let mut acc = W::one();
            for &e in g.out_edges(v) {
                let c = g.edge(e).dst;
                let p = W::from_rational(instance.prob(e));
                let q = p.complement();
                let term = q.mul(&fail[c][0]).add(&p.mul(&fail[c][(r + 1).min(m)]));
                acc = acc.mul(&term);
            }
            row.push(acc);
        }
        fail[v] = row;
    }
    Some(fail[view.root][0].complement())
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
