//! The paper's worked examples and figures, reproduced exactly.

use phom::core::{bruteforce, tables};
use phom::graph::fixtures;
use phom::graph::graded::{is_graded, level_mapping};
use phom::prelude::*;

/// Example 2.1: Figure 1's probabilistic graph has 2⁶ possible worlds, 2⁵
/// of which have non-zero probability; the probabilities of all possible
/// worlds sum to 1.
#[test]
fn example_2_1() {
    let h = fixtures::figure_1();
    assert_eq!(h.graph().n_edges(), 6);
    assert_eq!(h.uncertain_edges().len(), 5);
    assert_eq!(h.n_nonzero_worlds(), 32);
    let total = h.worlds().fold(Rational::zero(), |acc, (_, p)| acc.add(&p));
    assert!(total.is_one());
}

/// Example 2.2: `Pr(G ⇝ H) = 0.7 × (1 − (1 − 0.1)(1 − 0.8)) = 0.574`.
#[test]
fn example_2_2() {
    let h = fixtures::figure_1();
    let g = fixtures::example_2_2_query();
    let p = bruteforce::probability(&g, &h);
    assert_eq!(p, Rational::from_ratio(287, 500));
    assert!((p.to_f64() - 0.574).abs() < 1e-12);
}

/// Figure 2: the inclusion diagram between classes, as classifier
/// invariants.
#[test]
fn figure_2_inclusions() {
    // Every 1WP is a 2WP and a DWT; every 2WP/DWT is a PT.
    let owp = fixtures::figure_3_owp();
    let f = classify(&owp).flags;
    assert!(f.owp && f.twp && f.dwt && f.pt);
    let twp = fixtures::figure_3_twp();
    let f = classify(&twp).flags;
    assert!(!f.owp && f.twp && f.pt);
    let dwt = fixtures::figure_4_dwt();
    let f = classify(&dwt).flags;
    assert!(!f.owp && f.dwt && f.pt);
}

/// Figure 3: the example labeled 1WP (R S S T) and 2WP.
#[test]
fn figure_3_examples() {
    let owp = fixtures::figure_3_owp();
    assert_eq!(
        phom::graph::classes::as_one_way_path(&owp).unwrap().labels,
        vec![fixtures::R, fixtures::S, fixtures::S, fixtures::T]
    );
    let twp = fixtures::figure_3_twp();
    assert!(classify(&twp).in_class(phom::graph::ConnClass::TwoWayPath));
    assert!(!classify(&twp).in_class(phom::graph::ConnClass::OneWayPath));
}

/// Figure 4: the example unlabeled DWT and PT.
#[test]
fn figure_4_examples() {
    assert!(classify(&fixtures::figure_4_dwt()).in_class(phom::graph::ConnClass::DownwardTree));
    let pt = fixtures::figure_4_polytree();
    let c = classify(&pt);
    assert!(c.in_class(phom::graph::ConnClass::Polytree));
    assert!(!c.in_class(phom::graph::ConnClass::DownwardTree));
    assert!(!c.in_class(phom::graph::ConnClass::TwoWayPath));
}

/// Figure 6: the graded DAG and its level mapping (levels 0..=5,
/// difference of levels 5 — which is *not* the longest root-to-leaf path).
#[test]
fn figure_6_level_mapping() {
    let (g, expected) = fixtures::figure_6_graded_dag();
    assert!(is_graded(&g));
    let lm = level_mapping(&g).unwrap();
    assert_eq!(lm.levels, expected);
    assert_eq!(lm.difference_of_levels(), 5);
}

/// Tables 1–3 as printed in the paper: the border cells carry the claimed
/// proposition numbers.
#[test]
fn tables_border_cells() {
    use phom::graph::ConnClass::*;
    use tables::CellStatus::*;
    use tables::Prop;
    // Table 1 row ⊔2WP: hard from 2WP instances on.
    assert!(matches!(
        tables::table1(TwoWayPath, TwoWayPath),
        Hard(Prop::P3_4)
    ));
    // Table 2: the four numbered cells.
    assert!(matches!(
        tables::table2(OneWayPath, DownwardTree),
        PTime(Prop::P4_10)
    ));
    assert!(matches!(
        tables::table2(General, TwoWayPath),
        PTime(Prop::P4_11)
    ));
    assert!(matches!(
        tables::table2(OneWayPath, Polytree),
        Hard(Prop::P4_1)
    ));
    assert!(matches!(
        tables::table2(DownwardTree, DownwardTree),
        Hard(Prop::P4_4)
    ));
    // Table 3.
    assert!(matches!(
        tables::table3(OneWayPath, Polytree),
        PTime(Prop::P5_4)
    ));
    assert!(matches!(
        tables::table3(TwoWayPath, Polytree),
        Hard(Prop::P5_6)
    ));
}

/// The four maximal tractable cases from the conclusion, demonstrated on
/// concrete inputs through the dispatcher.
#[test]
fn conclusion_maximal_tractable_cases() {
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    let mut rng = SmallRng::seed_from_u64(6);
    let profile = phom::graph::generate::ProbProfile::default();

    // 1. Arbitrary queries on unlabeled downward trees (Prop 3.6).
    let q = phom::graph::generate::arbitrary(4, 0.4, 1, &mut rng);
    let h = phom::graph::generate::with_probabilities(
        phom::graph::generate::downward_tree(10, 1, &mut rng),
        profile,
        &mut rng,
    );
    assert!(Engine::new(h).solve(&q).is_ok());

    // 2. One-way path queries on labeled downward trees (Prop 4.10).
    let q = phom::graph::generate::one_way_path(3, 2, &mut rng);
    let h = phom::graph::generate::with_probabilities(
        phom::graph::generate::downward_tree(10, 2, &mut rng),
        profile,
        &mut rng,
    );
    assert!(Engine::new(h).solve(&q).is_ok());

    // 3. Connected queries on two-way labeled path instances (Prop 4.11).
    let q = phom::graph::generate::connected(4, 1, 2, &mut rng);
    let h = phom::graph::generate::with_probabilities(
        phom::graph::generate::two_way_path(10, 2, &mut rng),
        profile,
        &mut rng,
    );
    assert!(Engine::new(h).solve(&q).is_ok());

    // 4. Downward tree queries on unlabeled polytrees (Prop 5.5).
    let q = phom::graph::generate::downward_tree(5, 1, &mut rng);
    let h = phom::graph::generate::with_probabilities(
        phom::graph::generate::polytree(10, 1, &mut rng),
        profile,
        &mut rng,
    );
    assert!(Engine::new(h).solve(&q).is_ok());
}
