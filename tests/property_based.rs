//! Property-based tests (proptest) on the workspace invariants.

use phom::core::bruteforce;
use phom::graph::generate;
use phom::graph::hom::{exists_hom, exists_hom_into_world};
use phom::prelude::*;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Strategy: a seeded random graph family parameterized by shape kind.
fn seeded_graph(kind: u8, seed: u64, n: usize, sigma: u32) -> Graph {
    let mut rng = SmallRng::seed_from_u64(seed);
    match kind % 5 {
        0 => generate::one_way_path(n.clamp(1, 6), sigma, &mut rng),
        1 => generate::two_way_path(n.clamp(1, 6), sigma, &mut rng),
        2 => generate::downward_tree(n.clamp(1, 8), sigma, &mut rng),
        3 => generate::polytree(n.clamp(1, 8), sigma, &mut rng),
        _ => generate::arbitrary(n.clamp(1, 5), 0.3, sigma, &mut rng),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Homomorphism existence is monotone under instance edge addition.
    #[test]
    fn hom_monotone_under_edge_addition(kind in 0u8..5, seed: u64, n in 1usize..8) {
        let h = seeded_graph(kind, seed, n, 2);
        let q = seeded_graph(kind.wrapping_add(1), seed ^ 1, 3, 2);
        if h.n_edges() == 0 {
            return Ok(());
        }
        // A world with fewer edges can only satisfy fewer queries.
        let full = vec![true; h.n_edges()];
        let mut partial = full.clone();
        partial[seed as usize % h.n_edges()] = false;
        if exists_hom_into_world(&q, &h, &partial) {
            prop_assert!(exists_hom_into_world(&q, &h, &full));
        }
    }

    /// The classifier respects the generators and Figure 2's inclusions.
    #[test]
    fn classifier_inclusions(kind in 0u8..4, seed: u64, n in 1usize..9) {
        let g = seeded_graph(kind, seed, n, 2);
        let f = classify(&g).flags;
        // Invariants of the flag lattice.
        prop_assert!(!f.owp || (f.twp && f.dwt));
        prop_assert!(!(f.twp || f.dwt) || f.pt);
        // Generators land in their class.
        match kind % 5 {
            0 => prop_assert!(f.owp),
            1 => prop_assert!(f.twp),
            2 => prop_assert!(f.dwt),
            3 => prop_assert!(f.pt),
            _ => {}
        }
    }

    /// Graph equivalence of a DWT query and its collapse (Prop 5.5) holds
    /// against arbitrary instances.
    #[test]
    fn dwt_collapse_equivalence(seed: u64, n in 1usize..8, m in 1usize..8) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let q = generate::downward_tree(n, 1, &mut rng);
        let collapsed =
            phom::core::algo::collapse::collapse_union_dwt_query(&q).unwrap();
        let h = generate::arbitrary(m, 0.3, 1, &mut rng);
        prop_assert_eq!(exists_hom(&q, &h), exists_hom(&collapsed, &h));
    }

    /// The solver's answer is a valid probability and agrees with brute
    /// force whenever it answers at all.
    #[test]
    fn solver_answers_are_exact_probabilities(kind in 0u8..5, seed: u64) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let q = seeded_graph(kind, seed ^ 7, 3, 2);
        let hg = seeded_graph(kind.wrapping_add(2), seed ^ 9, 6, 2);
        let h = generate::with_probabilities(
            hg,
            generate::ProbProfile { certain_ratio: 0.25, denominator: 4 },
            &mut rng,
        );
        if let Ok(sol) = Engine::new(h.clone()).solve(&q) {
            prop_assert!(sol.probability.is_probability());
            prop_assert_eq!(sol.probability, bruteforce::probability(&q, &h));
        }
    }

    /// Worlds of a probabilistic graph form a probability distribution.
    #[test]
    fn worlds_sum_to_one(seed: u64, n in 1usize..7) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let g = generate::polytree(n, 2, &mut rng);
        let h = generate::with_probabilities(
            g,
            generate::ProbProfile { certain_ratio: 0.2, denominator: 4 },
            &mut rng,
        );
        let total = h.worlds().fold(Rational::zero(), |acc, (_, p)| acc.add(&p));
        prop_assert!(total.is_one());
    }

    /// β-acyclic probability (Thm 4.9) equals brute force on random
    /// interval DNFs, for arbitrary rational weights.
    #[test]
    fn beta_acyclic_probability_correct(
        seed: u64,
        n in 1usize..9,
        clauses in 1usize..5,
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut cs = Vec::new();
        for _ in 0..clauses {
            let a = rand::Rng::gen_range(&mut rng, 0..n);
            let b = rand::Rng::gen_range(&mut rng, a..n.min(a + 3));
            cs.push((a..=b).collect::<Vec<_>>());
        }
        let dnf = phom::lineage::Dnf::new(n, cs);
        let probs: Vec<Rational> = (0..n)
            .map(|_| Rational::from_ratio(rand::Rng::gen_range(&mut rng, 0..=4), 4))
            .collect();
        let fast = phom::lineage::beta_dnf_probability(&dnf, &probs).unwrap();
        let slow = dnf.probability_brute_force(&probs);
        prop_assert_eq!(fast, slow);
    }
}
