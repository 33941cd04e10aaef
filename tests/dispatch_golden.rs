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
use phom::graph::io::parse_rational;
use phom::graph::ConnClass;
use phom::prelude::*;
use phom_net::wire::encode_result;
use phom_net::Json;
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

/// Every `Float{1e-6}` cell of the golden lies within its own certified
/// relative-error bound of its line's `Exact` rational and names the
/// same route; an error cell is the same error in both tiers. A
/// re-rendered Float cell that drifted from its Exact cell fails here.
#[test]
fn golden_float_cells_lie_within_their_bound_of_the_exact_cells() {
    let golden = include_str!("golden/dispatch.txt");
    let mut checked = 0usize;
    for (n, line) in golden.lines().filter(|l| !l.starts_with('#')).enumerate() {
        let ctx = format!("line {} of the golden", n + 1);
        let cells: Vec<String> = line
            .splitn(3, " {\"status\"")
            .skip(1)
            .map(|cell| format!("{{\"status\"{cell}"))
            .collect();
        let [exact, float] = &cells[..] else {
            panic!("{ctx}: want an Exact and a Float cell");
        };
        let parse = |cell: &str| Json::parse(cell).unwrap_or_else(|e| panic!("{ctx}: {e}"));
        let (exact_json, float_json) = (parse(exact), parse(float));
        let text = |json: &Json, key: &str| -> String {
            let value = json.get(key).and_then(Json::as_str);
            value
                .unwrap_or_else(|| panic!("{ctx}: no {key}"))
                .to_string()
        };
        checked += 1;
        if text(&exact_json, "status") == "error" {
            assert_eq!(exact, float, "{ctx}: the tiers fail differently");
            continue;
        }
        assert_eq!(
            text(&exact_json, "route"),
            text(&float_json, "route"),
            "{ctx}"
        );
        let p = parse_rational(&text(&exact_json, "p")).expect("an exact rational");
        let p = p.to_f64();
        let value: f64 = text(&float_json, "p").parse().expect("a float value");
        let bound: f64 = text(&float_json, "rel_err").parse().expect("a float bound");
        assert!(bound >= 0.0, "{ctx}: bad bound {bound}");
        // An infinite bound (a computed 0 with a nonzero error) certifies
        // nothing to check; the slack covers the rounding of `p` itself.
        let slack = bound * value.abs() + f64::EPSILON * p.abs() + f64::MIN_POSITIVE;
        assert!(
            bound.is_infinite() || (value - p).abs() <= slack,
            "{ctx}: float {value} vs exact {p}, certified rel err {bound}"
        );
    }
    assert_eq!(checked, 400, "data lines checked");
}
