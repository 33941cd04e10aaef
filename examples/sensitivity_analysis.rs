//! Sensitivity analysis: which uncertain fact should we verify first?
//!
//! Scenario: a knowledge-curation team has a probabilistic fact base
//! (edges extracted by ML, each with a confidence) and a query whose
//! answer drives a decision. Verifying a fact by hand is expensive, so
//! the team wants the facts ranked by **influence** — how much the query
//! probability moves if a fact is confirmed vs refuted. That is exactly
//! the gradient `∂Pr/∂π(e)`, computed here from the lineage circuit in
//! one backward pass (`phom::core::sensitivity`), together with the
//! **most probable witness**: the likeliest world in which the query
//! holds.
//!
//! Run with: `cargo run --example sensitivity_analysis`

use phom::core::sensitivity;
use phom::graph::Dir;
use phom::prelude::*;

fn main() {
    // ------------------------------------------------------------------
    // A curated event timeline (a labeled 2WP instance, Prop 4.11 cell):
    // deploys (D), alerts (A) and rollbacks (B) extracted from noisy logs
    // — direction encodes causality claims made by the extractor.
    // ------------------------------------------------------------------
    let (d, a, bk) = (Label(0), Label(1), Label(2));
    let timeline = Graph::two_way_path(&[
        (Dir::Forward, d),   // e0: deploy v1 → v2        (π = 0.95)
        (Dir::Forward, a),   // e1: v2 raised alert       (π = 0.6)
        (Dir::Backward, bk), // e2: rollback claim v4 → v3 (π = 0.5)
        (Dir::Forward, d),   // e3: deploy v4 → v5        (π = 0.9)
        (Dir::Forward, a),   // e4: v5 raised alert       (π = 0.3)
    ]);
    let h = ProbGraph::new(
        timeline,
        vec![
            Rational::from_ratio(19, 20),
            Rational::from_ratio(3, 5),
            Rational::from_ratio(1, 2),
            Rational::from_ratio(9, 10),
            Rational::from_ratio(3, 10),
        ],
    );
    // The incident pattern: a deploy immediately followed by an alert.
    let incident = Graph::one_way_path(&[d, a]);

    let sol = Engine::new(h.clone())
        .solve(&incident)
        .expect("connected query on a 2WP: Prop 4.11");
    println!(
        "Pr(deploy → alert somewhere) = {} ≈ {:.4}",
        sol.probability,
        sol.probability.to_f64()
    );

    // ------------------------------------------------------------------
    // Influence ranking, from the match circuit's gradient.
    // ------------------------------------------------------------------
    let (grads, route) =
        sensitivity::influences::<Rational>(&incident, &h).expect("circuit route applies");
    println!("\nedge influences (route {route:?}):");
    let names = ["deploy#1", "alert#1", "rollback", "deploy#2", "alert#2"];
    for (e, inf) in sensitivity::rank_edges(grads.clone()) {
        let swing_up = inf.mul(&h.prob(e).one_minus());
        println!(
            "  {:<9} influence {:.4}  (confirming it adds {:+.4})",
            names[e],
            inf.to_f64(),
            swing_up.to_f64(),
        );
    }
    // The gradient obeys the conditioning identity — spot-check edge 1.
    let plus: Rational =
        sensitivity::conditional_probability(&incident, &h, 1, true).expect("route applies");
    let minus: Rational =
        sensitivity::conditional_probability(&incident, &h, 1, false).expect("route applies");
    assert_eq!(grads[1], plus.sub(&minus));

    // ------------------------------------------------------------------
    // The most probable witness: which concrete world explains a match?
    // ------------------------------------------------------------------
    let witness = sensitivity::most_probable_witness(&incident, &h)
        .expect("circuit route applies")
        .expect("the pattern is satisfiable");
    let (wp, world) = witness;
    println!(
        "\nmost probable witness world (probability {} ≈ {:.4}):",
        wp,
        wp.to_f64()
    );
    for (e, present) in world.iter().enumerate() {
        println!(
            "  {:<9} {}",
            names[e],
            if *present { "present" } else { "absent" }
        );
    }

    // ------------------------------------------------------------------
    // Same analysis on a DWT fact base (Prop 4.10 cell, complemented fail circuit).
    // ------------------------------------------------------------------
    let (mgr, emp) = (Label(0), Label(1));
    // An org chart: manages-edges with employment confirmations below.
    let org = Graph::downward_tree(&[
        None,
        Some((0, mgr)),
        Some((0, mgr)),
        Some((1, emp)),
        Some((1, mgr)),
        Some((2, emp)),
        Some((4, emp)),
    ]);
    let h2 = ProbGraph::new(
        org,
        vec![
            Rational::from_ratio(4, 5),
            Rational::from_ratio(3, 4),
            Rational::from_ratio(1, 2),
            Rational::from_ratio(2, 3),
            Rational::from_ratio(9, 10),
            Rational::from_ratio(1, 4),
        ],
    );
    let chain = Graph::one_way_path(&[mgr, mgr, emp]); // manages→manages→employs
    let (grads2, route2) =
        sensitivity::influences::<Rational>(&chain, &h2).expect("DWT circuit route");
    println!("\norg-chart query (route {route2:?}): top influences");
    for (e, inf) in sensitivity::rank_edges(grads2).into_iter().take(3) {
        let edge = h2.graph().edge(e);
        println!(
            "  edge {} ({} -{}-> {}): {:.4}",
            e,
            edge.src,
            edge.label.name(),
            edge.dst,
            inf.to_f64()
        );
    }
}
