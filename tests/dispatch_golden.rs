//! Dispatch golden: seeded (query, instance) pairs from every cell of
//! Tables 1–3, and from the labeled setting with disconnected queries,
//! each on a connected instance and on a disconnected one (Lemma 3.7).
//! Every line is the route and the wire answer (`wire::encode_result`)
//! of `Engine::submit` in the `Exact` and the `Float{1e-6}` tier.
//!
//! `tests/golden/dispatch.txt` was rendered by the hand-written planner
//! and hardness attribution that preceded the table-driven dispatcher;
//! the dispatcher must reproduce every line byte for byte. The sampler
//! below must never change, or the golden no longer describes the same
//! inputs.

use phom::core::tables::{class_name, CLASSES};
use phom::graph::generate;
use phom::graph::ConnClass;
use phom::prelude::*;
use phom_net::wire::encode_result;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::fmt::Write;

fn sample_query(class: ConnClass, union: bool, sigma: u32, rng: &mut SmallRng) -> Graph {
    let one = |rng: &mut SmallRng| -> Graph {
        match class {
            ConnClass::OneWayPath => generate::one_way_path(rng.gen_range(1..4), sigma, rng),
            ConnClass::TwoWayPath => generate::two_way_path(rng.gen_range(2..5), sigma, rng),
            ConnClass::DownwardTree => generate::downward_tree(rng.gen_range(3..6), sigma, rng),
            ConnClass::Polytree => generate::polytree(rng.gen_range(3..6), sigma, rng),
            ConnClass::General => generate::connected(rng.gen_range(2..5), 2, sigma, rng),
        }
    };
    if union {
        let parts = rng.gen_range(2..4);
        generate::union_of(parts, rng, one)
    } else {
        one(rng)
    }
}

fn sample_instance(class: ConnClass, parts: usize, sigma: u32, rng: &mut SmallRng) -> ProbGraph {
    let g = generate::union_of(parts, rng, |rng| match class {
        ConnClass::OneWayPath => generate::one_way_path(rng.gen_range(3..7), sigma, rng),
        ConnClass::TwoWayPath => generate::two_way_path(rng.gen_range(3..7), sigma, rng),
        ConnClass::DownwardTree => generate::downward_tree(rng.gen_range(4..8), sigma, rng),
        ConnClass::Polytree => generate::polytree(rng.gen_range(4..8), sigma, rng),
        ConnClass::General => generate::connected(rng.gen_range(3..6), 3, sigma, rng),
    });
    generate::with_probabilities(
        g,
        generate::ProbProfile {
            certain_ratio: 0.3,
            denominator: 4,
        },
        rng,
    )
}

/// The route of an answer, or `-` for an error.
fn route(result: &Result<Response, SolveError>) -> String {
    match result {
        Ok(Response::Probability(sol)) => format!("{:?}", sol.route),
        Ok(Response::Approximate { route, .. }) => format!("{route:?}"),
        Ok(other) => panic!("a probability request answered {other:?}"),
        Err(_) => "-".into(),
    }
}

/// Renders one line per sampled input: `setting row col instance-shape
/// route exact-answer float-answer`.
fn render() -> String {
    let mut rng = SmallRng::seed_from_u64(0xD15A7C);
    let mut out = String::new();
    // (name, disconnected queries, labels): Tables 1–3, then the
    // labeled setting's disconnected queries (Prop 3.3).
    for (name, union, sigma) in [
        ("T1", true, 1),
        ("T2", false, 2),
        ("T3", false, 1),
        ("L⊔", true, 2),
    ] {
        for row in CLASSES {
            for col in CLASSES {
                for (shape, parts) in [("conn", 1), ("disc", 2)] {
                    for i in 0..2 {
                        let q = sample_query(row, union, sigma, &mut rng);
                        let h = sample_instance(col, parts, sigma, &mut rng);
                        let engine = Engine::new(h);
                        let exact = engine.submit(&[Request::probability(q.clone())]).remove(0);
                        let float = engine
                            .submit(&[Request::probability(q)
                                .precision(Precision::Float { max_rel_err: 1e-6 })])
                            .remove(0);
                        let _ = writeln!(
                            out,
                            "{name} {} {} {shape}{i} {} {} {}",
                            class_name(row, union),
                            class_name(col, false),
                            route(&exact),
                            encode_result(&exact),
                            encode_result(&float),
                        );
                    }
                }
            }
        }
    }
    out
}

#[test]
fn dispatch_reproduces_the_golden_answers() {
    let golden = include_str!("golden/dispatch.txt");
    let expected: Vec<&str> = golden.lines().filter(|l| !l.starts_with('#')).collect();
    let rendered = render();
    let got: Vec<&str> = rendered.lines().collect();
    assert_eq!(got.len(), expected.len(), "line count");
    for (n, (got, want)) in got.iter().zip(&expected).enumerate() {
        assert_eq!(got, want, "line {} of the golden", n + 1);
    }
}
