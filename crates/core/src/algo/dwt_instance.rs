//! Proposition 3.6: `PHom̸L(All, ⊔DWT)` is PTIME.
//!
//! On a `⊔DWT` instance every possible world is a downward forest, where
//! any two vertices are joined by at most one directed path. Hence:
//!
//! * a query with a directed cycle or a *jumping edge* (two directed paths
//!   of different lengths between the same pair — i.e. not graded,
//!   Definition 3.5) has probability 0;
//! * a graded query `G` is equivalent, on such worlds, to the one-way path
//!   `→^m` where `m` is `G`'s difference of levels (max over connected
//!   components).
//!
//! It remains to compute `Pr[some world component has a directed path of
//! length ≥ m]`, which we do by a per-tree dynamic program over the
//! distribution of `(longest present downward path starting at v, capped
//! at m; saturation bit)` — `O(n·m²)` overall.

use phom_graph::classes::as_downward_tree;
use phom_graph::graded::level_mapping;
use phom_graph::{Graph, ProbGraph};
use phom_num::{Rational, Weight};

use super::components::{combine_connected_query, split_components};

/// Computes `Pr(G ⇝ H)` for an arbitrary unlabeled query on a `⊔DWT`
/// unlabeled instance. Returns `None` if the instance is not a `⊔DWT`.
/// The solver's Prop 3.6 route runs the same steps — [`collapse_length`],
/// then [`dwt_long_path_probability`] per component — over the instance's
/// cached Lemma 3.7 split instead of splitting on every query.
pub fn probability(query: &Graph, instance: &ProbGraph) -> Option<Rational> {
    let m = match collapse_length(query) {
        Some(0) => return Some(Rational::one()),
        Some(m) => m,
        None => return Some(Rational::zero()),
    };
    let per: Option<Vec<Rational>> = split_components(instance)
        .iter()
        .map(|h| dwt_long_path_probability::<Rational>(h, m))
        .collect();
    Some(combine_connected_query(&per?))
}

/// The length `m` such that the (unlabeled, graded) query is equivalent to
/// `→^m` on downward-forest worlds; `None` when the query is cyclic or not
/// graded (probability 0 on `⊔DWT` instances).
pub fn collapse_length(query: &Graph) -> Option<usize> {
    if query.n_edges() == 0 {
        return Some(0);
    }
    let lm = level_mapping(query)?;
    Some(lm.difference_of_levels() as usize)
}

/// `Pr[the DWT instance has a present directed path of length ≥ m]`, for a
/// *connected* DWT instance, `m ≥ 1`. Returns `None` when the instance is
/// not a connected DWT.
pub fn dwt_long_path_probability<W: Weight>(instance: &ProbGraph, m: usize) -> Option<W> {
    if m == 0 {
        return Some(W::one());
    }
    let view = as_downward_tree(instance.graph())?;
    // dist[v]: over states (d, sat) — d = longest present downward path
    // starting at v (capped at m), sat = some path ≥ m inside v's subtree.
    // States indexed d * 2 + sat.
    let n = instance.graph().n_vertices();
    let mut dist: Vec<Vec<W>> = vec![Vec::new(); n];
    for &v in view.order.iter().rev() {
        // Start: no children processed — d = 0, sat = false.
        let mut cur = vec![W::zero(); (m + 1) * 2];
        cur[0] = W::one();
        for &e in instance.graph().out_edges(v) {
            let c = instance.graph().edge(e).dst;
            // A certain edge's absence weighs an exact 0 in every `W`
            // (a float `1 − p` would carry p's conversion error), so its
            // branch is skipped.
            let p = W::from_rational(instance.prob(e));
            let q = if instance.prob(e).is_one() {
                W::zero()
            } else {
                p.complement()
            };
            let child = std::mem::take(&mut dist[c]);
            let mut next = vec![W::zero(); (m + 1) * 2];
            for d in 0..=m {
                for sat in 0..2 {
                    let w = cur[d * 2 + sat].clone();
                    if w.is_zero() {
                        continue;
                    }
                    for dc in 0..=m {
                        for satc in 0..2 {
                            let wc = &child[dc * 2 + satc];
                            if wc.is_zero() {
                                continue;
                            }
                            let joint = w.mul(wc);
                            let sat2 = sat | satc;
                            // Edge absent: d unchanged.
                            if !q.is_zero() {
                                let idx = d * 2 + sat2;
                                next[idx] = next[idx].add(&joint.mul(&q));
                            }
                            // Edge present: d' = max(d, dc + 1) capped.
                            if !p.is_zero() {
                                let d2 = d.max((dc + 1).min(m));
                                let idx = d2 * 2 + sat2;
                                next[idx] = next[idx].add(&joint.mul(&p));
                            }
                        }
                    }
                }
            }
            cur = next;
        }
        // Finalize v: saturate if d reached m.
        let mut fin = vec![W::zero(); (m + 1) * 2];
        for d in 0..=m {
            for sat in 0..2 {
                let w = cur[d * 2 + sat].clone();
                if w.is_zero() {
                    continue;
                }
                let sat2 = if d >= m { 1 } else { sat };
                fin[d * 2 + sat2] = fin[d * 2 + sat2].add(&w);
            }
        }
        dist[v] = fin;
    }
    let root = &dist[view.root];
    let mut total = W::zero();
    for d in 0..=m {
        total = total.add(&root[d * 2 + 1]);
    }
    Some(total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bruteforce;
    use phom_graph::generate;
    use phom_graph::graded::longest_directed_path;
    use phom_graph::{GraphBuilder, Label};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    const U: Label = Label::UNLABELED;

    #[test]
    fn collapse_length_basics() {
        assert_eq!(collapse_length(&Graph::directed_path(3)), Some(3));
        assert_eq!(collapse_length(&Graph::directed_path(0)), Some(0));
        // Figure 6's DAG has difference of levels 5.
        let (g, _) = phom_graph::fixtures::figure_6_graded_dag();
        assert_eq!(collapse_length(&g), Some(5));
        // Non-graded: jumping edge.
        let mut b = GraphBuilder::with_vertices(3);
        b.edge(0, 1, U);
        b.edge(1, 2, U);
        b.edge(0, 2, U);
        assert_eq!(collapse_length(&b.build()), None);
        // Note the difference of levels is NOT the longest path (Figure 6):
        // → ← → has difference 1 but a longest path of 1 as well; build the
        // N-shape → → ← with difference 2.
        let g = Graph::two_way_path(&[
            (phom_graph::Dir::Forward, U),
            (phom_graph::Dir::Forward, U),
            (phom_graph::Dir::Backward, U),
        ]);
        assert_eq!(collapse_length(&g), Some(2));
    }

    #[test]
    fn long_path_probability_on_a_path_instance() {
        // Instance: → → with probs 1/2, 1/3. Pr[path ≥ 2] = 1/6,
        // Pr[path ≥ 1] = 1 − 1/2·2/3 = 2/3.
        let g = Graph::directed_path(2);
        let h = ProbGraph::new(
            g,
            vec![Rational::from_ratio(1, 2), Rational::from_ratio(1, 3)],
        );
        assert_eq!(
            dwt_long_path_probability::<Rational>(&h, 2),
            Some(Rational::from_ratio(1, 6))
        );
        assert_eq!(
            dwt_long_path_probability::<Rational>(&h, 1),
            Some(Rational::from_ratio(2, 3))
        );
        assert_eq!(
            dwt_long_path_probability::<Rational>(&h, 3),
            Some(Rational::zero())
        );
    }

    #[test]
    fn random_dwt_instances_match_brute_force() {
        let mut rng = SmallRng::seed_from_u64(21);
        for _ in 0..80 {
            let g = generate::downward_tree(rng.gen_range(1..9), 1, &mut rng);
            let h = generate::with_probabilities(
                g,
                generate::ProbProfile {
                    certain_ratio: 0.25,
                    denominator: 4,
                },
                &mut rng,
            );
            for m in 1..5 {
                let got = dwt_long_path_probability::<Rational>(&h, m).unwrap();
                let query = Graph::directed_path(m);
                let expect = bruteforce::probability(&query, &h);
                assert_eq!(got, expect, "m={m}, h={:?}", h.graph());
            }
        }
    }

    #[test]
    fn full_prop_36_vs_brute_force_random_queries() {
        let mut rng = SmallRng::seed_from_u64(22);
        for _ in 0..80 {
            // Arbitrary unlabeled queries: graded, non-graded, cyclic,
            // disconnected.
            let query = if rng.gen_bool(0.5) {
                generate::graded_query(rng.gen_range(1..7), 2, 3, &mut rng)
            } else {
                generate::arbitrary(rng.gen_range(1..5), 0.3, 1, &mut rng)
            };
            // ⊔DWT instance.
            let h_graph = generate::union_of(rng.gen_range(1..3), &mut rng, |r| {
                generate::downward_tree(r.gen_range(1..6), 1, r)
            });
            let h = generate::with_probabilities(
                h_graph,
                generate::ProbProfile {
                    certain_ratio: 0.25,
                    denominator: 4,
                },
                &mut rng,
            );
            let got = probability(&query, &h).unwrap();
            let expect = bruteforce::probability(&query, &h);
            assert_eq!(got, expect, "query={query:?} h={:?}", h.graph());
        }
    }

    #[test]
    fn difference_of_levels_claim_on_worlds() {
        // The claim inside Prop 3.6's proof: on any DWT world, a graded
        // connected query maps iff the world has a path of length m =
        // difference of levels. Spot-check by brute force.
        let mut rng = SmallRng::seed_from_u64(23);
        for _ in 0..60 {
            let query = generate::graded_query(rng.gen_range(2..7), 2, 3, &mut rng);
            let m = match collapse_length(&query) {
                Some(m) => m,
                None => continue,
            };
            let tree = generate::downward_tree(rng.gen_range(1..8), 1, &mut rng);
            let maps = phom_graph::hom::exists_hom(&query, &tree);
            let lp = longest_directed_path(&tree).unwrap();
            assert_eq!(maps, lp >= m, "query={query:?} tree={tree:?} m={m}");
        }
    }

    use phom_graph::Graph;
}
