//! End-to-end verification of the hardness reductions: the counting
//! identities from the proofs of Props 3.3, 3.4, 4.1 and 5.6 hold exactly,
//! with counts recovered through the probabilistic solver and checked
//! against independent counters — including *exhaustive* checks over all
//! small source instances.

use phom::reductions::edge_cover::Bipartite;
use phom::reductions::pp2dnf::Pp2Dnf;
use phom::reductions::{prop33, prop34, prop41, prop56};

/// All bipartite graphs with nl=2, nr=2 and every non-empty edge subset
/// (16 graphs × subsets): Prop 3.3's identity holds on every one.
#[test]
fn prop33_exhaustive_on_tiny_bipartite_graphs() {
    for mask in 1u32..16 {
        let all = [(0, 0), (0, 1), (1, 0), (1, 1)];
        let edges: Vec<(usize, usize)> = all
            .iter()
            .enumerate()
            .filter(|(i, _)| mask >> i & 1 == 1)
            .map(|(_, &e)| e)
            .collect();
        let gamma = Bipartite::new(2, 2, edges);
        let red = prop33::reduce(&gamma);
        assert_eq!(
            red.count_via_brute_force(),
            gamma.count_edge_covers_brute_force(),
            "mask={mask}"
        );
    }
}

/// The same graphs through the unlabeled Prop 3.4 rewriting.
#[test]
fn prop34_exhaustive_on_tiny_bipartite_graphs() {
    for mask in 1u32..16 {
        let all = [(0, 0), (0, 1), (1, 0), (1, 1)];
        let edges: Vec<(usize, usize)> = all
            .iter()
            .enumerate()
            .filter(|(i, _)| mask >> i & 1 == 1)
            .map(|(_, &e)| e)
            .collect();
        let gamma = Bipartite::new(2, 2, edges);
        let red = prop34::reduce(&gamma);
        assert_eq!(
            red.count_via_brute_force(),
            gamma.count_edge_covers_brute_force(),
            "mask={mask}"
        );
    }
}

/// Prop 4.1 on *every* PP2DNF with n1 = n2 = 2 and m ≤ 3 clauses
/// (4³ + 4² + 4 = 84 formulas).
#[test]
fn prop41_exhaustive_on_tiny_formulas() {
    let pairs = [(0, 0), (0, 1), (1, 0), (1, 1)];
    let mut formulas: Vec<Vec<(usize, usize)>> = Vec::new();
    for &a in &pairs {
        formulas.push(vec![a]);
        for &b in &pairs {
            formulas.push(vec![a, b]);
            for &c in &pairs {
                formulas.push(vec![a, b, c]);
            }
        }
    }
    for clauses in formulas {
        let phi = Pp2Dnf::new(2, 2, clauses);
        let red = prop41::reduce(&phi);
        assert_eq!(
            red.count_via_brute_force(),
            phi.count_satisfying(),
            "{phi:?}"
        );
        assert_eq!(phi.count_satisfying(), phi.count_satisfying_naive());
    }
}

/// Prop 5.6 on every 1- and 2-clause PP2DNF with n1 = n2 = 2 (the tripled
/// gadgets make instances larger, so the exhaustive range is smaller).
#[test]
fn prop56_exhaustive_on_tiny_formulas() {
    let pairs = [(0, 0), (0, 1), (1, 0), (1, 1)];
    let mut formulas: Vec<Vec<(usize, usize)>> = Vec::new();
    for &a in &pairs {
        formulas.push(vec![a]);
        for &b in &pairs {
            formulas.push(vec![a, b]);
        }
    }
    for clauses in formulas {
        let phi = Pp2Dnf::new(2, 2, clauses);
        let red = prop56::reduce(&phi);
        assert_eq!(
            red.count_via_brute_force(),
            phi.count_satisfying(),
            "{phi:?}"
        );
    }
}

/// The hard cell the engine reports for `red`'s query on its instance.
fn hardness(red: &phom::reductions::Reduction) -> phom::Hardness {
    match phom::Engine::new(red.instance.clone()).solve(&red.query) {
        Err(phom::SolveError::Hard(h)) => h,
        other => panic!("expected a hard cell, got {other:?}"),
    }
}

/// The dispatcher classifies every reduction image into the intended hard
/// cell (no fast path accidentally solves them).
#[test]
fn reduction_images_land_in_hard_cells() {
    let gamma = Bipartite::figure_5_graph();
    let phi = Pp2Dnf::figure_7_formula();

    let r33 = prop33::reduce(&gamma);
    assert_eq!(hardness(&r33).prop, "Prop 3.3");

    let r34 = prop34::reduce(&gamma);
    assert_eq!(hardness(&r34).prop, "Prop 3.4");

    let r41 = prop41::reduce(&phi);
    assert_eq!(hardness(&r41).prop, "Prop 4.1");

    let r56 = prop56::reduce(&phi);
    assert_eq!(hardness(&r56).prop, "Prop 5.6");
}

/// The reductions compose with the Monte-Carlo fallback: approximate
/// counting of edge covers through sampling.
#[test]
fn monte_carlo_approximates_reduction_counts() {
    use phom::prelude::*;
    let gamma = Bipartite::figure_5_graph();
    let red = prop33::reduce(&gamma);
    let opts = SolverOptions {
        fallback: Fallback::MonteCarlo {
            samples: 40_000,
            seed: 99,
        },
        ..Default::default()
    };
    let sol = Engine::builder()
        .default_options(opts)
        .build(red.instance.clone())
        .solve(&red.query)
        .unwrap();
    let approx_count = sol.probability.to_f64() * (1u64 << red.log2_scale) as f64;
    assert!(
        (approx_count - 2.0).abs() < 0.5,
        "approx #EC = {approx_count}"
    );
}
