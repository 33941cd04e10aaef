//! Estimate golden: seeded Monte-Carlo requests, pinned byte for byte.
//!
//! Every line is one request's key (kind, sample budget, query and
//! instance) and its wire answer (`wire::encode_result`) from a fresh
//! uncached engine. The requests cover every world loop behind the
//! sampling answers: `OnHard::Estimate` on genuinely hard cells (the
//! 2-cycle, cyclic labeled instances, self-loops, disconnected queries)
//! and on tractable shapes forced hard through the plan seam, the
//! `Fallback::MonteCarlo` and `Fallback::BruteForce` probability
//! fallbacks, and UCQ requests beyond the tractable UCQ routes.
//!
//! An estimate is a hit count over a content-seeded world sequence, so
//! any change in how a world is drawn or checked moves these bytes.
//! `tests/golden/estimates.txt` was rendered before the homomorphism
//! search was planned once per request; only its estimate intervals were
//! re-rendered since, when they became Wilson score intervals (the hit
//! counts and every other byte kept). The sampler below must never
//! change, or the golden no longer describes the same inputs.

use phom::core::solver::test_support::force_hard_plans;
use phom::graph::generate::{self, ProbProfile};
use phom::prelude::*;
use phom_net::wire::encode_result;
use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};
use std::fmt::Write;

/// Budgets from one sample up to the 2000 of the largest requests.
const BUDGETS: [u64; 8] = [1, 2, 3, 10, 64, 500, 1500, 2000];

fn two_cycle() -> ProbGraph {
    let mut b = GraphBuilder::with_vertices(2);
    b.edge(0, 1, Label(0));
    b.edge(1, 0, Label(0));
    ProbGraph::new(b.build(), vec![Rational::from_ratio(1, 2); 2])
}

/// A small cyclic instance over `sigma` labels, sometimes with a
/// self-loop and sometimes with an isolated vertex.
fn cyclic_instance(sigma: u32, rng: &mut SmallRng) -> ProbGraph {
    let g = generate::connected(rng.gen_range(2..5), rng.gen_range(1..4), sigma, rng);
    let n = g.n_vertices() + usize::from(rng.gen_bool(0.25));
    let mut b = GraphBuilder::with_vertices(n);
    for e in g.edges() {
        b.edge(e.src, e.dst, e.label);
    }
    if rng.gen_bool(0.4) {
        let v = rng.gen_range(0..g.n_vertices());
        b.try_edge(v, v, Label(rng.gen_range(0..sigma)));
    }
    generate::with_probabilities(
        b.build(),
        ProbProfile {
            certain_ratio: 0.2,
            denominator: 4,
        },
        rng,
    )
}

/// The shapes `tests/estimate_sanity.rs` samples: small paths, trees
/// and polytrees (tractable, so only the plan seam makes them hard) and
/// small connected graphs.
fn sanity_instance(rng: &mut SmallRng) -> ProbGraph {
    let g = match rng.gen_range(0..4) {
        0 => generate::two_way_path(rng.gen_range(2..5), 2, rng),
        1 => generate::downward_tree(rng.gen_range(2..5), 2, rng),
        2 => generate::polytree(rng.gen_range(3..6), 1, rng),
        _ => generate::connected(rng.gen_range(2..4), 1, 2, rng),
    };
    generate::with_probabilities(g, ProbProfile::default(), rng)
}

/// A query of up to four vertices: a path, a small connected graph, a
/// single self-loop, or a disjoint union of two of those.
fn query(sigma: u32, rng: &mut SmallRng) -> Graph {
    let one = |rng: &mut SmallRng| -> Graph {
        match rng.gen_range(0..4) {
            0 => generate::one_way_path(rng.gen_range(1..3), sigma, rng),
            1 => generate::two_way_path(rng.gen_range(1..3), sigma, rng),
            2 => generate::connected(rng.gen_range(2..4), 1, sigma, rng),
            _ => {
                let mut b = GraphBuilder::with_vertices(1);
                b.edge(0, 0, Label(rng.gen_range(0..sigma)));
                b.build()
            }
        }
    };
    if rng.gen_bool(0.25) {
        generate::union_of(2, rng, one)
    } else {
        one(rng)
    }
}

fn budget(rng: &mut SmallRng) -> u64 {
    BUDGETS[rng.gen_range(0..BUDGETS.len())]
}

fn estimate(q: Graph, samples: u64) -> Request {
    Request::probability(q)
        .on_hard(OnHard::Estimate)
        .budget(Budget::unlimited().with_samples(samples))
}

fn render_instance(h: &ProbGraph) -> String {
    let probs: Vec<String> = h.probs().iter().map(|p| p.to_string()).collect();
    format!("{:?} [{}]", h.graph(), probs.join(","))
}

/// One line: `kind samples query instance answer`.
fn line(out: &mut String, kind: &str, samples: u64, q: &str, h: &ProbGraph, request: Request) {
    let engine = Engine::builder().cache_capacity(0).build(h.clone());
    let answer = engine.submit(&[request]).remove(0);
    let _ = writeln!(
        out,
        "{kind} {samples} {q} {} {}",
        render_instance(h),
        encode_result(&answer)
    );
}

fn render() -> String {
    let mut rng = SmallRng::seed_from_u64(0xE5_7140);
    let mut out = String::new();

    // The 2-cycle: every budget, on a fixed set of queries.
    let cycle = two_cycle();
    let mut looped = GraphBuilder::with_vertices(1);
    looped.edge(0, 0, Label(0));
    let mut back = GraphBuilder::with_vertices(2);
    back.edge(0, 1, Label(0));
    back.edge(1, 0, Label(0));
    for q in [
        Graph::directed_path(1),
        Graph::directed_path(2),
        Graph::directed_path(3),
        back.build(),
        looped.build(),
        Graph::disjoint_union(&[&Graph::directed_path(1), &Graph::directed_path(2)]),
    ] {
        for samples in BUDGETS {
            line(
                &mut out,
                "estimate",
                samples,
                &format!("{q:?}"),
                &cycle,
                estimate(q.clone(), samples),
            );
        }
    }

    // Cyclic instances, unlabeled and labeled: genuinely hard cells.
    for i in 0..70 {
        let sigma = 1 + (i % 2);
        let h = cyclic_instance(sigma, &mut rng);
        let q = query(sigma, &mut rng);
        let samples = budget(&mut rng);
        line(
            &mut out,
            "estimate",
            samples,
            &format!("{q:?}"),
            &h,
            estimate(q.clone(), samples),
        );
    }

    // Tractable shapes forced hard, and the probability fallbacks.
    force_hard_plans(true);
    for _ in 0..60 {
        let h = sanity_instance(&mut rng);
        let q = query(2, &mut rng);
        let samples = budget(&mut rng);
        line(
            &mut out,
            "forced",
            samples,
            &format!("{q:?}"),
            &h,
            estimate(q.clone(), samples),
        );
    }
    for _ in 0..10 {
        let h = cyclic_instance(2, &mut rng);
        let q = query(2, &mut rng);
        let samples = budget(&mut rng);
        let seed = rng.next_u64();
        let request =
            Request::probability(q.clone()).fallback(Fallback::MonteCarlo { samples, seed });
        line(
            &mut out,
            "mc-fallback",
            samples,
            &format!("{q:?}"),
            &h,
            request,
        );
    }
    for _ in 0..6 {
        let h = cyclic_instance(1, &mut rng);
        let q = query(1, &mut rng);
        let request =
            Request::probability(q.clone()).fallback(Fallback::BruteForce { max_uncertain: 12 });
        line(&mut out, "bruteforce", 0, &format!("{q:?}"), &h, request);
    }
    force_hard_plans(false);

    // UCQs beyond the tractable UCQ routes: estimate, Monte-Carlo and
    // brute-force fallbacks.
    for i in 0..12 {
        let h = cyclic_instance(2, &mut rng);
        let disjuncts: Vec<Graph> = (0..rng.gen_range(2..4))
            .map(|_| query(2, &mut rng))
            .collect();
        let key = disjuncts
            .iter()
            .map(|g| format!("{g:?}"))
            .collect::<Vec<_>>()
            .join("|");
        let ucq = Ucq::new(disjuncts);
        let samples = budget(&mut rng);
        let (kind, request) = match i % 3 {
            0 => (
                "ucq-estimate",
                Request::ucq(ucq)
                    .on_hard(OnHard::Estimate)
                    .budget(Budget::unlimited().with_samples(samples)),
            ),
            1 => {
                let seed = rng.next_u64();
                (
                    "ucq-mc-fallback",
                    Request::ucq(ucq).fallback(Fallback::MonteCarlo { samples, seed }),
                )
            }
            _ => (
                "ucq-bruteforce",
                Request::ucq(ucq).fallback(Fallback::BruteForce { max_uncertain: 12 }),
            ),
        };
        line(&mut out, kind, samples, &key, &h, request);
    }
    out
}

#[test]
fn estimates_reproduce_the_golden_answers() {
    let golden = include_str!("golden/estimates.txt");
    let expected: Vec<&str> = golden.lines().filter(|l| !l.starts_with('#')).collect();
    let rendered = render();
    let got: Vec<&str> = rendered.lines().collect();
    assert_eq!(got.len(), expected.len(), "line count");
    for (n, (got, want)) in got.iter().zip(&expected).enumerate() {
        assert_eq!(got, want, "line {} of the golden", n + 1);
    }
}
