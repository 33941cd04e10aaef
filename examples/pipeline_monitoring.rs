//! Monitoring a linear pipeline with unreliable links — the
//! `PHomL(Connected, 2WP)` scenario of Prop 4.11: the instance is a
//! two-way *labeled word* (the paper's conclusion: "labeled words"), and
//! arbitrary connected patterns are tractable on it.
//!
//! A pipeline of pumping stations is linked by sensor channels; each
//! channel reports upstream (`Up`) or downstream (`Down`) with a known
//! availability. Operators ask for the probability that communication
//! patterns exist somewhere along the pipeline.
//!
//! Run with: `cargo run --example pipeline_monitoring`

use phom::core::algo::connected_on_2wp;
use phom::core::bruteforce;
use phom::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const TELEMETRY: Label = Label(0);
const CONTROL: Label = Label(1);

/// A pipeline of `n` stations: each hop is a telemetry or control channel
/// pointing up- or downstream, with an availability probability.
fn build_pipeline(n_hops: usize, rng: &mut SmallRng) -> ProbGraph {
    let steps: Vec<(Dir, Label)> = (0..n_hops)
        .map(|_| {
            let dir = if rng.gen_bool(0.6) {
                Dir::Forward
            } else {
                Dir::Backward
            };
            let label = if rng.gen_bool(0.7) {
                TELEMETRY
            } else {
                CONTROL
            };
            (dir, label)
        })
        .collect();
    let g = Graph::two_way_path(&steps);
    let probs = (0..n_hops)
        .map(|_| Rational::from_ratio(rng.gen_range(12..=20), 20))
        .collect();
    ProbGraph::new(g, probs)
}

/// The monitoring patterns. Note they may branch and mix directions —
/// any *connected* query is fine on a 2WP instance.
fn patterns() -> Vec<(&'static str, Graph)> {
    let mut v = Vec::new();
    // Two telemetry hops downstream in a row.
    v.push((
        "telemetry x2 downstream",
        Graph::one_way_path(&[TELEMETRY, TELEMETRY]),
    ));
    // A control hop, against the flow, between telemetry hops.
    v.push((
        "telemetry → control(rev) → telemetry",
        Graph::two_way_path(&[
            (Dir::Forward, TELEMETRY),
            (Dir::Backward, CONTROL),
            (Dir::Forward, TELEMETRY),
        ]),
    ));
    // A branching pattern: a station sending telemetry both ways.
    let mut b = GraphBuilder::with_vertices(3);
    b.edge(0, 1, TELEMETRY);
    b.edge(0, 2, CONTROL);
    v.push(("station with telemetry + control out", b.build()));
    v
}

fn main() {
    let mut rng = SmallRng::seed_from_u64(411);

    // Small pipeline: validate Prop 4.11 against brute force.
    let small = build_pipeline(10, &mut rng);
    println!("Small pipeline: {} hops", small.graph().n_edges());
    let engine = Engine::new(small.clone());
    for (name, q) in &patterns() {
        let sol = engine.solve(q).unwrap();
        // Short pipelines may lack a label entirely, in which case the
        // solver short-circuits to 0 instead of running Prop 4.11.
        assert!(matches!(sol.route, Route::Prop411 | Route::MissingLabel));
        assert_eq!(sol.probability, bruteforce::probability(q, &small));
        println!(
            "  Pr[{name}] = {} ≈ {:.4}",
            sol.probability,
            sol.probability.to_f64()
        );
    }

    // Large pipeline: thousands of hops, far beyond world enumeration.
    // (Exact rationals over thousands of hops grow large; 400 hops keeps
    // debug-build runtime low while staying far beyond world enumeration.)
    let big = build_pipeline(400, &mut rng);
    println!(
        "\nLarge pipeline: {} hops (2^{} worlds)",
        big.graph().n_edges(),
        big.graph().n_edges()
    );
    for (name, q) in &patterns() {
        let t0 = std::time::Instant::now();
        let via_lineage: Rational = connected_on_2wp::probability_lineage(q, &big).unwrap();
        let t_lineage = t0.elapsed();
        let t0 = std::time::Instant::now();
        let via_dp: f64 = connected_on_2wp::probability_dp(q, &big).unwrap();
        let t_dp = t0.elapsed();
        assert!((via_lineage.to_f64() - via_dp).abs() < 1e-9);
        println!(
            "  Pr[{name}] ≈ {:.6}   (β-acyclic lineage {t_lineage:?}, interval DP {t_dp:?})",
            via_lineage.to_f64()
        );
    }

    // The minimal-interval view: the hop ranges where the first pattern
    // can match on the small pipeline. Its probability there is non-zero,
    // so at least one range exists; each becomes one lineage clause.
    let (name, q) = &patterns()[0];
    let (intervals, _) = connected_on_2wp::minimal_intervals(q, small.graph()).unwrap();
    assert!(!intervals.is_empty());
    let ranges: Vec<String> = intervals
        .iter()
        .map(|iv| format!("hops {}..={}", iv.start, iv.end))
        .collect();
    println!(
        "\nMinimal match intervals of [{name}] on the small pipeline: {}",
        ranges.join(", ")
    );
}
