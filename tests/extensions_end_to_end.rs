//! End-to-end tests for the Section 6 future-work extensions:
//! bounded-treewidth instances (tree decompositions + the walk DP),
//! unions of conjunctive queries, and the circuit analysis operations
//! (influences, conditioning, MPE) — each cross-checked against brute
//! force and against the paper's original pipelines.

use phom::core::algo::{path_on_pt, walk_on_tw};
use phom::core::ucq::{self, Ucq};
use phom::core::{bruteforce, sensitivity};
use phom::graph::generate::{self, ProbProfile};
use phom::graph::treedecomp::{
    heuristic_decomposition, min_degree_decomposition, min_fill_decomposition, NiceDecomposition,
};
use phom::lineage::analysis;
use phom::prelude::*;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

// ---------------------------------------------------------------------
// Tree decompositions
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Both heuristics produce valid decompositions on arbitrary graphs,
    /// and the nice form preserves validity and width.
    #[test]
    fn heuristic_decompositions_always_valid(seed: u64, n in 1usize..14, density in 0.05f64..0.6) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let g = generate::arbitrary(n, density, 2, &mut rng);
        for td in [min_degree_decomposition(&g), min_fill_decomposition(&g)] {
            prop_assert_eq!(td.validate(&g), Ok(()));
            let nice = NiceDecomposition::from_decomposition(&g, &td).expect("valid input");
            prop_assert!(nice.check(&g));
            prop_assert!(nice.width() <= td.width().max(1));
        }
    }

    /// Polytrees always decompose at width ≤ 1; their nice form passes
    /// the structural check.
    #[test]
    fn polytrees_width_one(seed: u64, n in 1usize..30) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let g = generate::polytree(n, 1, &mut rng);
        let td = heuristic_decomposition(&g);
        prop_assert_eq!(td.validate(&g), Ok(()));
        prop_assert!(td.width() <= 1);
    }

    /// The treewidth walk DP equals brute force on arbitrary small
    /// instances — the headline correctness property of the extension.
    #[test]
    fn walk_dp_equals_bruteforce(seed: u64, n in 2usize..6, m in 1usize..5) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let g = generate::arbitrary(n, 0.35, 1, &mut rng);
        if g.n_edges() > 10 {
            return Ok(());
        }
        let h = generate::with_probabilities(g, ProbProfile::half(), &mut rng);
        let nice = NiceDecomposition::heuristic(h.graph());
        let dp: Rational = walk_on_tw::long_walk_probability(&h, m, &nice);
        let bf = bruteforce::probability(&Graph::directed_path(m), &h);
        prop_assert_eq!(dp, bf);
    }

    /// On polytrees, the walk DP and the Prop 5.4 automata pipeline agree
    /// (width-1 instances are exactly the paper's tractable cell).
    #[test]
    fn walk_dp_equals_automata_on_polytrees(seed: u64, n in 2usize..12, m in 1usize..5) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let g = generate::polytree(n, 1, &mut rng);
        let h = generate::with_probabilities(g, ProbProfile::half(), &mut rng);
        let nice = NiceDecomposition::heuristic(h.graph());
        let dp: Rational = walk_on_tw::long_walk_probability(&h, m, &nice);
        let aut: Rational =
            path_on_pt::long_path_probability(&h, m, path_on_pt::PtStrategy::PaperAutomaton)
                .expect("polytree");
        prop_assert_eq!(dp, aut);
    }
}

/// The DP is exact regardless of which valid decomposition it runs on.
#[test]
fn walk_dp_decomposition_independent() {
    let mut rng = SmallRng::seed_from_u64(0x11D);
    for _ in 0..15 {
        let g = generate::arbitrary(5, 0.4, 1, &mut rng);
        if g.n_edges() > 9 {
            continue;
        }
        let h = generate::with_probabilities(g, ProbProfile::half(), &mut rng);
        let m = rng.gen_range(1..4);
        let answers: Vec<Rational> = [
            min_degree_decomposition(h.graph()),
            min_fill_decomposition(h.graph()),
            phom::graph::treedecomp::TreeDecomposition::trivial(h.graph()),
        ]
        .into_iter()
        .map(|td| {
            let nice = NiceDecomposition::from_decomposition(h.graph(), &td).unwrap();
            walk_on_tw::long_walk_probability(&h, m, &nice)
        })
        .collect();
        assert_eq!(answers[0], answers[1]);
        assert_eq!(answers[0], answers[2]);
    }
}

// ---------------------------------------------------------------------
// UCQs
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Every answer the UCQ dispatcher produces equals world enumeration.
    #[test]
    fn ucq_routes_are_exact(seed: u64, shape in 0u8..3) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let n_disj = rng.gen_range(1..4);
        let disjuncts: Vec<Graph> = (0..n_disj)
            .map(|_| match shape {
                0 => {
                    let parts = rng.gen_range(1..3);
                    generate::union_of(parts, &mut rng, |r| {
                        generate::downward_tree(r.gen_range(1..5), 1, r)
                    })
                }
                1 => generate::one_way_path(rng.gen_range(1..4), 2, &mut rng),
                _ => generate::two_way_path(rng.gen_range(1..4), 2, &mut rng),
            })
            .collect();
        let ucq = Ucq::new(disjuncts);
        let g = match shape {
            0 => generate::arbitrary(rng.gen_range(2..6), 0.3, 1, &mut rng),
            1 => generate::downward_tree(rng.gen_range(2..8), 2, &mut rng),
            _ => generate::two_way_path(rng.gen_range(1..7), 2, &mut rng),
        };
        if g.n_edges() > 10 {
            return Ok(());
        }
        let h = generate::with_probabilities(g, ProbProfile::half(), &mut rng);
        if let Some((p, _route)) = ucq::probability::<Rational>(&ucq, &h) {
            prop_assert_eq!(p, ucq::bruteforce_probability(&ucq, &h));
        }
    }

    /// A UCQ is monotone: adding a disjunct never lowers the probability,
    /// and the union is at least the max of its disjuncts.
    #[test]
    fn ucq_dominates_disjuncts(seed: u64) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let q1 = generate::one_way_path(rng.gen_range(1..4), 2, &mut rng);
        let q2 = generate::one_way_path(rng.gen_range(1..4), 2, &mut rng);
        let g = generate::downward_tree(rng.gen_range(2..8), 2, &mut rng);
        let h = generate::with_probabilities(g, ProbProfile::half(), &mut rng);
        let (p1, _) = ucq::probability::<Rational>(&Ucq::singleton(q1.clone()), &h).expect("DWT");
        let (p2, _) = ucq::probability::<Rational>(&Ucq::singleton(q2.clone()), &h).expect("DWT");
        let (pu, _) = ucq::probability::<Rational>(&Ucq::new(vec![q1, q2]), &h).expect("DWT");
        let max = if p1 >= p2 { p1 } else { p2 };
        prop_assert!(pu >= max);
    }
}

// ---------------------------------------------------------------------
// Circuit analysis
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Circuit influences obey the multilinearity identity
    /// `Pr = π(e)·Pr(|e) + (1−π(e))·Pr(|¬e)` and the gradient matches
    /// conditioning, for every edge.
    #[test]
    fn influences_match_conditioning(seed: u64) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let g = generate::two_way_path(rng.gen_range(1..7), 2, &mut rng);
        let h = generate::with_probabilities(g, ProbProfile::half(), &mut rng);
        let q = generate::two_way_path(rng.gen_range(1..4), 2, &mut rng);
        let (grads, _) = sensitivity::influences::<Rational>(&q, &h).expect("2WP route");
        let total = bruteforce::probability(&q, &h);
        for (e, grad) in grads.iter().enumerate() {
            let plus = bruteforce::probability(&q, &sensitivity::pin(&h, e, true));
            let minus = bruteforce::probability(&q, &sensitivity::pin(&h, e, false));
            prop_assert_eq!(grad.clone(), plus.sub(&minus));
            let mix = h.prob(e).mul(&plus).add(&h.prob(e).one_minus().mul(&minus));
            prop_assert_eq!(mix, total.clone());
        }
    }
}

/// MPE from the circuit equals the brute-force argmax over satisfying
/// worlds, across both labeled cells.
#[test]
fn mpe_equals_bruteforce_argmax() {
    use phom::graph::hom::exists_hom_into_world;
    let mut rng = SmallRng::seed_from_u64(0x3E3E);
    for trial in 0..25 {
        let g = generate::two_way_path(rng.gen_range(1..6), 2, &mut rng);
        let h = generate::with_probabilities(g, ProbProfile::half(), &mut rng);
        let q = generate::two_way_path(rng.gen_range(1..3), 2, &mut rng);
        let witness = sensitivity::most_probable_witness(&q, &h).expect("route applies");
        let mut best: Option<Rational> = None;
        for (mask, p) in h.worlds() {
            if exists_hom_into_world(&q, h.graph(), &mask) && best.as_ref().is_none_or(|b| p > *b) {
                best = Some(p);
            }
        }
        match (witness, best) {
            (None, None) => {}
            (Some((wp, _)), Some(bp)) => assert_eq!(wp, bp, "trial {trial}"),
            (w, b) => panic!("trial {trial}: {:?} vs {b:?}", w.map(|x| x.0)),
        }
    }
}

/// Gradients on the Prop 5.4 automata circuit (unlabeled polytree route):
/// the d-DNNF produced by the tree-automaton compilation supports the
/// same analysis operations.
#[test]
fn gradients_on_automata_circuits() {
    let mut rng = SmallRng::seed_from_u64(0x6A6A);
    for _ in 0..10 {
        let g = generate::polytree(rng.gen_range(2..8), 1, &mut rng);
        let h = generate::with_probabilities(g, ProbProfile::half(), &mut rng);
        let m = rng.gen_range(1..3);
        let q = Graph::directed_path(m);
        // Influence by conditioning on the exact automata solver...
        let by_cond = sensitivity::influences_by_conditioning(&h, |inst| {
            path_on_pt::long_path_probability::<Rational>(
                inst,
                m,
                path_on_pt::PtStrategy::PaperAutomaton,
            )
            .expect("polytree")
        });
        // ...equals brute-force conditioning.
        let by_bf =
            sensitivity::influences_by_conditioning(&h, |inst| bruteforce::probability(&q, inst));
        assert_eq!(by_cond, by_bf);
    }
}

/// The full stack composes: a UCQ of collapsed queries on a banded
/// random instance, evaluated by the walk DP, with influences by
/// conditioning — all exact.
#[test]
fn treewidth_ucq_sensitivity_composition() {
    let mut rng = SmallRng::seed_from_u64(0xC0117);
    let g = generate::arbitrary(5, 0.4, 1, &mut rng);
    let h = generate::with_probabilities(g, ProbProfile::half(), &mut rng);
    if h.graph().n_edges() == 0 || h.graph().n_edges() > 10 {
        return;
    }
    let rule = Ucq::new(vec![Graph::directed_path(2), Graph::directed_path(4)]);
    let (p, _) = ucq::probability::<Rational>(&rule, &h).expect("collapse route");
    assert_eq!(p, ucq::bruteforce_probability(&rule, &h));
    let infl = sensitivity::influences_by_conditioning(&h, |inst| {
        ucq::probability::<Rational>(&rule, inst)
            .expect("collapse route")
            .0
    });
    let infl_bf = sensitivity::influences_by_conditioning(&h, |inst| {
        ucq::bruteforce_probability(&rule, inst)
    });
    assert_eq!(infl, infl_bf);
}

/// Query minimization (cores) is sound for `PHom`: `Pr(G ⇝ H)` equals
/// `Pr(core(G) ⇝ H)` on every instance — and the core of an unlabeled
/// `⊔DWT` query is the Prop 5.5 collapse path.
#[test]
fn core_minimization_preserves_probability() {
    use phom::graph::hom::{core_of, is_core};
    let mut rng = SmallRng::seed_from_u64(0xC0CE);
    for trial in 0..20 {
        let q = generate::arbitrary(rng.gen_range(2..5), 0.4, 2, &mut rng);
        let core = core_of(&q);
        assert!(is_core(&core));
        let g = generate::arbitrary(rng.gen_range(2..6), 0.35, 2, &mut rng);
        if g.n_edges() > 9 {
            continue;
        }
        let h = generate::with_probabilities(g, ProbProfile::half(), &mut rng);
        assert_eq!(
            bruteforce::probability(&q, &h),
            bruteforce::probability(&core, &h),
            "trial {trial}"
        );
    }
    // The Prop 5.5 collapse is the core, up to iso.
    let tree = phom::graph::fixtures::figure_4_dwt();
    let core = core_of(&tree);
    let collapsed =
        phom::core::algo::collapse::collapse_union_dwt_query(&tree).expect("unlabeled DWT");
    assert!(phom::graph::hom::equivalent(&core, &collapsed));
    assert_eq!(core.n_vertices(), collapsed.n_vertices());
}

/// d-DNNF analysis invariants on the lineage circuits of the labeled
/// routes: gradient of the *fail* circuit is the negated gradient of the
/// match event.
#[test]
fn fail_circuit_gradients_are_negated_influences() {
    use phom::core::algo::lineage_circuits;
    let mut rng = SmallRng::seed_from_u64(0xFA11);
    for _ in 0..10 {
        let h_graph = generate::downward_tree(rng.gen_range(2..8), 2, &mut rng);
        let h = generate::with_probabilities(h_graph, ProbProfile::half(), &mut rng);
        let q = generate::planted_path_query(h.graph(), 2, &mut rng)
            .unwrap_or_else(|| generate::one_way_path(2, 2, &mut rng));
        let Some((fail, root)) = lineage_circuits::fail_circuit_dwt(&q, h.graph()) else {
            continue;
        };
        let probs: Vec<Rational> = h.probs().to_vec();
        let fail_grads = analysis::gradients(&fail, root, &probs);
        let match_infl =
            sensitivity::influences_by_conditioning(&h, |inst| bruteforce::probability(&q, inst));
        for e in 0..h.graph().n_edges() {
            assert_eq!(fail_grads[e].neg(), match_infl[e]);
        }
    }
}
