//! The brute-force reference solver: enumerate the possible worlds.
//!
//! Exponential in the number of uncertain edges — this is the baseline the
//! paper's hardness results say you cannot in general avoid, the test
//! oracle for every polynomial-time algorithm in this crate, and the
//! workhorse behind the reduction-verification experiments.

use phom_graph::hom::HomPlan;
use phom_graph::{Graph, ProbGraph};
use phom_num::Rational;

/// Computes `Pr(G ⇝ H)` exactly by summing over all possible worlds.
///
/// Panics (via [`ProbGraph::worlds`]) when the instance has ≥ 63 uncertain
/// edges; intended for small instances only.
pub fn probability(query: &Graph, instance: &ProbGraph) -> Rational {
    let mut plan = HomPlan::new(query, instance.graph());
    let mut total = Rational::zero();
    for (mask, p) in instance.worlds() {
        if p.is_zero() {
            continue;
        }
        if plan.maps_into_world(&mask) {
            total = total.add(&p);
        }
    }
    total
}

/// The number of worlds the enumeration will visit (2^#uncertain).
pub fn world_count(instance: &ProbGraph) -> u64 {
    instance.n_nonzero_worlds()
}

#[cfg(test)]
mod tests {
    use super::*;
    use phom_graph::fixtures;
    use phom_graph::{GraphBuilder, Label};

    #[test]
    fn example_2_2_exact_value() {
        // The headline example: Pr(G ⇝ H) = 0.574 = 287/500.
        let h = fixtures::figure_1();
        let g = fixtures::example_2_2_query();
        assert_eq!(probability(&g, &h), fixtures::example_2_2_answer());
    }

    #[test]
    fn no_edge_query_has_probability_one() {
        let h = fixtures::figure_1();
        let g = Graph::directed_path(0);
        assert!(probability(&g, &h).is_one());
    }

    #[test]
    fn unsatisfiable_query_has_probability_zero() {
        let h = fixtures::figure_1();
        // A label not present in H.
        let g = Graph::one_way_path(&[Label(7)]);
        assert!(probability(&g, &h).is_zero());
    }

    #[test]
    fn single_uncertain_edge() {
        let mut b = GraphBuilder::with_vertices(2);
        b.edge(0, 1, Label(0));
        let h = ProbGraph::new(b.build(), vec![Rational::from_ratio(3, 7)]);
        let g = Graph::one_way_path(&[Label(0)]);
        assert_eq!(probability(&g, &h), Rational::from_ratio(3, 7));
        assert_eq!(world_count(&h), 2);
    }

    #[test]
    fn certain_match_is_probability_one() {
        let g = fixtures::figure_3_owp();
        let h = ProbGraph::certain(g.clone());
        assert!(probability(&g, &h).is_one());
    }
}
