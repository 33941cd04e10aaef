//! Lemma 3.7: disconnected instances reduce to their connected components.
//!
//! For a *connected* query `G` and an instance `H = H₁ ⊔ … ⊔ Hₙ`, any match
//! lies inside one component, and components are independent, so
//!
//! ```text
//! Pr(G ⇝ H) = 1 − Π_i (1 − Pr(G ⇝ Hᵢ)).
//! ```

use phom_graph::classes::connected_components;
use phom_graph::ProbGraph;
use phom_num::Weight;

/// Splits a probabilistic instance into its connected components.
pub fn split_components(instance: &ProbGraph) -> Vec<ProbGraph> {
    let comps = connected_components(instance.graph());
    if comps.len() == 1 {
        return vec![instance.clone()];
    }
    comps
        .into_iter()
        .map(|verts| {
            let mut keep = vec![false; instance.graph().n_vertices()];
            for v in verts {
                keep[v] = true;
            }
            instance.vertex_restriction(&keep).0
        })
        .collect()
}

/// Combines per-component probabilities for a connected query:
/// `1 − Π (1 − pᵢ)`, in the arithmetic `W` the components were solved in.
/// Components that certainly miss (`pᵢ` exactly 0) contribute the factor
/// 1 and are skipped, so a float `W` keeps an exact 0 exact.
pub fn combine_connected_query<W: Weight>(per_component: &[W]) -> W {
    per_component
        .iter()
        .filter(|p| !p.is_zero())
        .map(W::complement)
        .reduce(|acc, q| acc.mul(&q))
        .map_or_else(W::zero, |none_match| none_match.complement())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bruteforce;
    use phom_graph::{Graph, GraphBuilder, Label};
    use phom_num::Rational;

    #[test]
    fn combine_matches_brute_force() {
        // Instance: two disjoint single-edge components with probs 1/2, 1/3;
        // query: a single edge. Pr = 1 − (1/2)(2/3) = 2/3.
        let mut b = GraphBuilder::with_vertices(4);
        b.edge(0, 1, Label(0));
        b.edge(2, 3, Label(0));
        let h = ProbGraph::new(
            b.build(),
            vec![Rational::from_ratio(1, 2), Rational::from_ratio(1, 3)],
        );
        let g = Graph::one_way_path(&[Label(0)]);
        let parts = split_components(&h);
        assert_eq!(parts.len(), 2);
        let per: Vec<Rational> = parts
            .iter()
            .map(|hi| bruteforce::probability(&g, hi))
            .collect();
        let combined = combine_connected_query(&per);
        assert_eq!(combined, bruteforce::probability(&g, &h));
        assert_eq!(combined, Rational::from_ratio(2, 3));
    }

    #[test]
    fn isolated_vertices_form_components() {
        let mut b = GraphBuilder::with_vertices(3);
        b.edge(0, 1, Label(0));
        let h = ProbGraph::new(b.build(), vec![Rational::from_ratio(1, 2)]);
        let parts = split_components(&h);
        assert_eq!(parts.len(), 2);
        // The edgeless component contributes probability 0 for any query
        // with an edge.
        let g = Graph::one_way_path(&[Label(0)]);
        let per: Vec<Rational> = parts
            .iter()
            .map(|hi| bruteforce::probability(&g, hi))
            .collect();
        assert_eq!(combine_connected_query(&per), Rational::from_ratio(1, 2));
    }

    #[test]
    fn empty_product_is_zero_probability() {
        assert!(combine_connected_query::<Rational>(&[]).is_zero());
    }
}
