//! Proposition 5.6: `#PP2DNF ≤ PHom̸L(2WP, PT)` (Figure 8) — in the
//! unlabeled setting, two-wayness in the *query* simulates the labels of
//! the Prop 4.1 gadget.
//!
//! Start from the Prop 4.1 construction and rewrite:
//!
//! * every `a -S→ b` into `a → → ← b`;
//! * every `a -T→ b` into `a → → → b`;
//!
//! so the query becomes `G′ = →→→ (→→←)^{m+3} →→→` (a 2WP) and the
//! instance stays a polytree. In `H′` all edges are certain except the
//! **middle** edge of the rewriting of each valuation edge (`X_i -S→ R`,
//! `R -S→ Y_i`), which keeps probability ½. Runs of five consecutive
//! forward edges only arise from a `T`-rewrite followed by the start of an
//! `S`-rewrite, which pins the matches as in Prop 4.1. Identity:
//! `#φ = Pr(G′ ⇝ H′) · 2^{n1+n2}`.

use crate::pp2dnf::Pp2Dnf;
use crate::{prop41, Reduction};
use phom_graph::{Graph, GraphBuilder, Label, ProbGraph};
use phom_num::Rational;

const U: Label = Label::UNLABELED;

/// Rewrites a {S, T}-labeled graph into its unlabeled form. Returns the
/// graph and, per original edge, the id of the middle edge of its gadget.
fn rewrite(g: &Graph) -> (Graph, Vec<usize>) {
    let mut b = GraphBuilder::with_vertices(g.n_vertices());
    let mut middle = Vec::with_capacity(g.n_edges());
    let mut next = g.n_vertices();
    for edge in g.edges() {
        let u1 = next;
        let u2 = next + 1;
        next += 2;
        match edge.label {
            prop41::S => {
                // a → u1 → u2 ← b
                b.edge(edge.src, u1, U);
                let mid = b.edge(u1, u2, U);
                b.edge(edge.dst, u2, U);
                middle.push(mid);
            }
            prop41::T => {
                // a → u1 → u2 → b
                b.edge(edge.src, u1, U);
                let mid = b.edge(u1, u2, U);
                b.edge(u2, edge.dst, U);
                middle.push(mid);
            }
            _ => unreachable!("Prop 4.1 uses labels S and T"),
        }
    }
    (b.build(), middle)
}

/// Builds the Prop 5.6 reduction from a PP2DNF.
pub fn reduce(phi: &Pp2Dnf) -> Reduction {
    let labeled = prop41::reduce(phi);
    let (h2, middles) = rewrite(labeled.instance.graph());
    let mut probs = vec![Rational::one(); h2.n_edges()];
    for (orig, &mid) in middles.iter().enumerate() {
        if !labeled.instance.prob(orig).is_one() {
            probs[mid] = labeled.instance.prob(orig).clone();
        }
    }
    let instance = ProbGraph::new(h2, probs);
    let (query, _) = rewrite(&labeled.query);
    Reduction {
        query,
        instance,
        log2_scale: labeled.log2_scale,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phom_graph::classes::classify;
    use phom_graph::ConnClass;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn figure_8_shapes() {
        let phi = Pp2Dnf::figure_7_formula();
        let red = reduce(&phi);
        let qc = classify(&red.query);
        let ic = classify(red.instance.graph());
        assert!(qc.in_class(ConnClass::TwoWayPath));
        assert!(!qc.in_class(ConnClass::OneWayPath));
        assert!(ic.in_class(ConnClass::Polytree));
        assert!(!qc.labeled && !ic.labeled);
        assert_eq!(red.instance.uncertain_edges().len(), phi.num_vars());
        // G′ = →→→ (→→←)^{m+3} →→→ has 3(m+3) + 6 edges.
        assert_eq!(red.query.n_edges(), 3 * (phi.clauses.len() + 3) + 6);
    }

    #[test]
    fn figure_8_identity() {
        let phi = Pp2Dnf::figure_7_formula();
        let red = reduce(&phi);
        assert_eq!(red.count_via_brute_force(), 8);
    }

    #[test]
    fn identity_on_random_formulas() {
        let mut rng = SmallRng::seed_from_u64(67);
        for _ in 0..10 {
            let n1 = rand::Rng::gen_range(&mut rng, 1..3);
            let n2 = rand::Rng::gen_range(&mut rng, 1..3);
            let m = rand::Rng::gen_range(&mut rng, 1..4);
            let phi = Pp2Dnf::random(n1, n2, m, &mut rng);
            let red = reduce(&phi);
            assert_eq!(
                red.count_via_brute_force(),
                phi.count_satisfying(),
                "{phi:?}"
            );
        }
    }

    #[test]
    fn solver_reports_prop_56_hardness() {
        // The dispatcher must classify the reduced inputs into the Prop 5.6
        // hard cell (unlabeled 2WP query on a polytree instance).
        let phi = Pp2Dnf::figure_7_formula();
        let red = reduce(&phi);
        let engine = phom_core::Engine::new(red.instance);
        match engine.solve(&red.query) {
            Err(phom_core::SolveError::Hard(h)) => assert_eq!(h.prop, "Prop 5.6"),
            other => panic!("expected the Prop 5.6 hard cell, got {other:?}"),
        }
    }
}
