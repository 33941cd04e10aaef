//! The engine-surface equivalence suite: a tick must return
//! **bit-identical** responses for 1 shard and N shards, with per-shard
//! or shared arenas, and those responses must match independent
//! references — brute force, the
//! public Monte-Carlo estimator, and the counting, UCQ and sensitivity
//! modules — across every route of the Tables 1–3 dispatcher, with
//! provenance, counting, sensitivity, and UCQ requests, and under cache
//! eviction with a tiny capacity.

mod reference;

use phom::prelude::*;
use phom_core::counting::count_satisfying_worlds_with;
use phom_core::sensitivity::{self, SensitivityRoute};
use phom_core::{ucq, Hardness};
use phom_graph::generate::{self, ProbProfile};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use reference::{assert_reference, assert_same_response, shards, submit_with};
use std::sync::Arc;

/// A random instance spanning every column of the paper's tables:
/// two-way paths, downward trees and their unions, polytrees, and small
/// general connected graphs (the hard column).
fn random_instance(rng: &mut SmallRng, profile: ProbProfile) -> ProbGraph {
    let g = match rng.gen_range(0..6) {
        0 => generate::two_way_path(rng.gen_range(2..10), 2, rng),
        1 => generate::downward_tree(rng.gen_range(2..10), 2, rng),
        2 => generate::union_of(2, rng, |r| generate::downward_tree(r.gen_range(2..5), 1, r)),
        3 => generate::polytree(rng.gen_range(3..10), 1, rng),
        4 => generate::two_way_path(rng.gen_range(2..8), 1, rng),
        _ => generate::connected(rng.gen_range(2..5), 1, 2, rng),
    };
    generate::with_probabilities(g, profile, rng)
}

/// A random query spanning every row: trivial, missing-label, 1WPs, 2WPs,
/// planted paths, graded/branching shapes, connected blobs, and
/// disconnected unions.
fn random_query(h: &ProbGraph, rng: &mut SmallRng) -> Graph {
    match rng.gen_range(0..8) {
        0 => Graph::directed_path(rng.gen_range(0..3)),
        1 => Graph::one_way_path(&[Label(9)]), // label absent ⇒ Pr 0
        2 => generate::one_way_path(rng.gen_range(1..4), 2, rng),
        3 => generate::planted_path_query(h.graph(), rng.gen_range(1..4), rng)
            .unwrap_or_else(|| generate::one_way_path(2, 2, rng)),
        4 => generate::two_way_path(rng.gen_range(1..4), 1, rng),
        5 => generate::graded_query(rng.gen_range(2..6), 2, 2, rng),
        6 => generate::connected(rng.gen_range(2..5), 1, 2, rng),
        _ => generate::union_of(2, rng, |r| generate::downward_tree(r.gen_range(1..4), 1, r)),
    }
}

/// The headline acceptance test: randomized workloads over every route,
/// run as ticks of 1, 2, and 5 shards and as 3 shards over one shared
/// arena — all bit-identical, and every answer equal to its brute-force
/// (or seeded Monte-Carlo) reference.
#[test]
fn submit_is_bit_identical_across_shard_widths_and_matches_references() {
    let mut rng = SmallRng::seed_from_u64(0xE9612E);
    for trial in 0..30 {
        let h = random_instance(&mut rng, ProbProfile::default());
        let queries: Vec<Graph> = (0..rng.gen_range(4..14))
            .map(|_| random_query(&h, &mut rng))
            .collect();
        // Exercise non-default options on a third of the trials.
        let opts = match trial % 3 {
            0 => SolverOptions::default(),
            1 => SolverOptions {
                fallback: Fallback::BruteForce { max_uncertain: 8 },
                ..Default::default()
            },
            _ => SolverOptions {
                fallback: Fallback::MonteCarlo {
                    samples: 50,
                    seed: 7,
                },
                ..Default::default()
            },
        };
        let requests: Vec<Request> = queries
            .iter()
            .map(|q| Request::probability(q.clone()))
            .collect();
        let shared_arena = TickConfig {
            shards: 3,
            share_arena_at: Some(1),
        };
        let mut widths: Vec<Vec<Result<Response, SolveError>>> = Vec::new();
        for config in [shards(1), shards(2), shards(5), shared_arena] {
            let engine = Arc::new(Engine::builder().default_options(opts).build(h.clone()));
            let (answers, stats) = submit_with(&engine, &requests, config);
            assert_eq!(answers.len(), queries.len());
            assert!(stats.shards <= config.shards, "{stats:?}");
            if let Some(first) = widths.first() {
                for (i, (a, b)) in answers.iter().zip(first).enumerate() {
                    assert_same_response(a, b, &format!("trial {trial}, q {i}, {config:?}"));
                }
            }
            widths.push(answers);
        }
        for (i, (q, a)) in queries.iter().zip(&widths[0]).enumerate() {
            assert_reference(a, q, &h, opts, &format!("trial {trial}, q {i}"));
        }
    }
}

/// Provenance handles ride through the sharded path unchanged: presence,
/// polarity, size, and the re-derived probability all agree across shard
/// widths, and the probability is the brute-force one.
#[test]
fn provenance_requests_are_identical_across_widths() {
    let mut rng = SmallRng::seed_from_u64(0x9C0F ^ 0xBEEF);
    for trial in 0..15 {
        let h = random_instance(&mut rng, ProbProfile::default());
        let queries: Vec<Graph> = (0..6).map(|_| random_query(&h, &mut rng)).collect();
        let requests: Vec<Request> = queries
            .iter()
            .map(|q| Request::probability(q.clone()).with_provenance())
            .collect();
        let opts = SolverOptions {
            want_provenance: true,
            ..Default::default()
        };
        let mut widths: Vec<Vec<Result<Response, SolveError>>> = Vec::new();
        for k in [1usize, 4] {
            let engine = Arc::new(Engine::new(h.clone()));
            let (answers, _) = submit_with(&engine, &requests, shards(k));
            for (i, (q, a)) in queries.iter().zip(&answers).enumerate() {
                let ctx = format!("trial {trial}, q {i}, k {k}");
                match widths.first() {
                    Some(first) => assert_same_response(a, &first[i], &ctx),
                    None => assert_reference(a, q, &h, opts, &ctx),
                }
                if let Ok(Response::Probability(sol)) = a {
                    if let Some(prov) = &sol.provenance {
                        assert_eq!(
                            prov.probability::<Rational>(h.probs()),
                            sol.probability,
                            "trial {trial}, q {i}"
                        );
                    }
                }
            }
            widths.push(answers);
        }
    }
}

/// Counting requests match the counting module on all-½ instances, and
/// report `InvalidQuery` (not hardness) on weighted ones.
#[test]
fn counting_requests_match_module_and_validate() {
    let mut rng = SmallRng::seed_from_u64(0xC0);
    for trial in 0..15 {
        let h = random_instance(&mut rng, ProbProfile::half());
        let queries: Vec<Graph> = (0..4).map(|_| random_query(&h, &mut rng)).collect();
        let requests: Vec<Request> = queries
            .iter()
            .map(|q| Request::probability(q.clone()).counting())
            .collect();
        for k in [1usize, 3] {
            let engine = Arc::new(Engine::new(h.clone()));
            let (answers, _) = submit_with(&engine, &requests, shards(k));
            for (i, (q, a)) in queries.iter().zip(&answers).enumerate() {
                let expect = count_satisfying_worlds_with(q, &h, SolverOptions::default());
                match (a, expect) {
                    (Ok(Response::Count { worlds, .. }), Ok(w)) => {
                        assert_eq!(worlds, &w, "trial {trial}, q {i}")
                    }
                    (Err(SolveError::Hard(_)), Err(_)) => {}
                    (a, e) => panic!("trial {trial}, q {i}: {a:?} vs {e:?}"),
                }
            }
        }
    }
    // A weighted instance is a validation error, not a hard cell.
    let h = ProbGraph::new(Graph::directed_path(1), vec![Rational::from_ratio(1, 3)]);
    let engine = Engine::new(h);
    let answers = engine.submit(&[Request::probability(Graph::directed_path(1)).counting()]);
    assert!(
        matches!(&answers[0], Err(SolveError::InvalidQuery(msg)) if msg.contains("½")),
        "{:?}",
        answers[0]
    );
}

/// UCQ requests match the ucq module (including the typed hardness error
/// when no tractable route applies).
#[test]
fn ucq_requests_match_module() {
    let mut rng = SmallRng::seed_from_u64(0x0C9);
    for trial in 0..15 {
        let h = random_instance(&mut rng, ProbProfile::half());
        let disjuncts: Vec<Graph> = (0..rng.gen_range(1..4))
            .map(|_| random_query(&h, &mut rng))
            .collect();
        let u = Ucq::new(disjuncts);
        for k in [1usize, 2] {
            let engine = Arc::new(Engine::new(h.clone()));
            let (answers, _) = submit_with(&engine, &[Request::ucq(u.clone())], shards(k));
            match (&answers[0], ucq::probability::<Rational>(&u, &h)) {
                (Ok(Response::Ucq { probability, route }), Some((p, r))) => {
                    assert_eq!(probability, &p, "trial {trial}");
                    assert_eq!(route, &r, "trial {trial}");
                }
                (Err(SolveError::Hard(_)), None) => {}
                (a, e) => panic!("trial {trial}: {a:?} vs {e:?}"),
            }
        }
    }
}

/// Sensitivity requests: the circuit routes match the module's gradient
/// sweep; shapes without a circuit fall back to exact conditioning and
/// match brute-force conditioning.
#[test]
fn sensitivity_requests_match_gradients_and_conditioning() {
    let mut rng = SmallRng::seed_from_u64(0x5E7);
    for trial in 0..12 {
        let h = random_instance(&mut rng, ProbProfile::half());
        let q = random_query(&h, &mut rng);
        let engine = Engine::new(h.clone());
        let request = Request::probability(q.clone())
            .sensitivity()
            .fallback(Fallback::BruteForce { max_uncertain: 10 });
        let answers = engine.submit(&[request]);
        match &answers[0] {
            Ok(Response::Sensitivity { influences, route }) => {
                assert_eq!(influences.len(), h.graph().n_edges());
                match route {
                    SensitivityRoute::Conditioning => {
                        if h.uncertain_edges().len() <= 10 {
                            let expect =
                                sensitivity::influences_by_conditioning::<Rational>(&h, |inst| {
                                    phom_core::bruteforce::probability(&q, inst)
                                });
                            assert_eq!(influences, &expect, "trial {trial}");
                        }
                    }
                    _ => {
                        let (expect, r) =
                            sensitivity::influences::<Rational>(&q, &h).expect("circuit route");
                        assert_eq!(route, &r, "trial {trial}");
                        assert_eq!(influences, &expect, "trial {trial}");
                    }
                }
            }
            Err(SolveError::Hard(_)) => {
                // Conditioning on a genuinely hard cell (beyond the
                // brute-force bound) legitimately reports hardness.
            }
            other => panic!("trial {trial}: {other:?}"),
        }
    }
}

/// A UCQ request beyond the tractable routes honors the configured
/// fallback instead of silently ignoring it: brute force matches the
/// exact oracle, and Monte-Carlo lands inside its confidence interval.
#[test]
fn ucq_fallbacks_are_honored() {
    let mut rng = SmallRng::seed_from_u64(0x0C9F);
    // A branching-polytree instance with a 2WP disjunct: Prop 5.6
    // territory, so no tractable UCQ route applies.
    let q = phom::graph::fixtures::figure_4_polytree();
    let mut h = None;
    for _ in 0..50 {
        let g = generate::polytree(8, 1, &mut rng);
        let candidate = generate::with_probabilities(g, ProbProfile::half(), &mut rng);
        let u = Ucq::new(vec![q.clone()]);
        if ucq::probability::<Rational>(&u, &candidate).is_none() {
            h = Some(candidate);
            break;
        }
    }
    let h = h.expect("a branching polytree shows up quickly");
    let u = Ucq::new(vec![q]);
    let engine = Engine::new(h.clone());
    // No fallback: typed hardness.
    let answers = engine.submit(&[Request::ucq(u.clone())]);
    assert!(
        matches!(&answers[0], Err(SolveError::Hard(_))),
        "{answers:?}"
    );
    // Brute-force fallback: exact.
    let answers = engine
        .submit(&[Request::ucq(u.clone()).fallback(Fallback::BruteForce { max_uncertain: 12 })]);
    let Ok(Response::Ucq { probability, route }) = &answers[0] else {
        panic!("{answers:?}");
    };
    assert_eq!(route, &phom_core::ucq::UcqRoute::BruteForce);
    assert_eq!(probability, &ucq::bruteforce_probability(&u, &h));
    let exact = probability.to_f64();
    // Monte-Carlo fallback: approximate but close.
    let answers = engine.submit(&[Request::ucq(u).fallback(Fallback::MonteCarlo {
        samples: 20_000,
        seed: 11,
    })]);
    let Ok(Response::Ucq { probability, route }) = &answers[0] else {
        panic!("{answers:?}");
    };
    assert!(matches!(
        route,
        phom_core::ucq::UcqRoute::MonteCarlo { samples: 20_000 }
    ));
    assert!((probability.to_f64() - exact).abs() < 0.02);
}

/// A mixed batch keeps request order across kinds and shard widths.
#[test]
fn mixed_batches_preserve_order() {
    let mut rng = SmallRng::seed_from_u64(0x313D);
    let h = generate::with_probabilities(
        generate::two_way_path(8, 2, &mut rng),
        ProbProfile::half(),
        &mut rng,
    );
    let q1 = generate::planted_path_query(h.graph(), 2, &mut rng)
        .unwrap_or_else(|| generate::one_way_path(2, 2, &mut rng));
    let q2 = Graph::directed_path(0);
    let batch = [
        Request::probability(q1.clone()),
        Request::probability(q1.clone()).counting(),
        Request::ucq(Ucq::new(vec![q1.clone(), q2.clone()])),
        Request::probability(q2).with_provenance(),
        Request::probability(q1).sensitivity(),
    ];
    for k in [1usize, 4] {
        let engine = Arc::new(Engine::new(h.clone()));
        let (answers, _) = submit_with(&engine, &batch, shards(k));
        assert!(matches!(answers[0], Ok(Response::Probability(_))), "{k}");
        assert!(matches!(answers[1], Ok(Response::Count { .. })), "{k}");
        assert!(matches!(answers[2], Ok(Response::Ucq { .. })), "{k}");
        let Ok(Response::Probability(sol)) = &answers[3] else {
            panic!("{k}: {:?}", answers[3]);
        };
        assert!(sol.probability.is_one());
        assert!(sol.provenance.is_some(), "trivial route attaches a handle");
        assert!(
            matches!(answers[4], Ok(Response::Sensitivity { .. })),
            "{k}"
        );
    }
}

/// Cache eviction under a tiny capacity never changes answers — only
/// hit rates — and the eviction counters advance, at every shard width.
#[test]
fn tiny_cache_evicts_but_stays_correct() {
    let mut rng = SmallRng::seed_from_u64(0x7199);
    let h = generate::with_probabilities(
        generate::two_way_path(10, 2, &mut rng),
        ProbProfile::default(),
        &mut rng,
    );
    let queries: Vec<Graph> = (0..8).map(|_| random_query(&h, &mut rng)).collect();
    let requests: Vec<Request> = queries
        .iter()
        .map(|q| Request::probability(q.clone()))
        .collect();
    // The first answers are checked against the reference; every later
    // round, at every width, must repeat them bit for bit.
    let mut first: Option<Vec<Result<Response, SolveError>>> = None;
    for k in [1usize, 3] {
        let engine = Arc::new(Engine::builder().cache_capacity(2).build(h.clone()));
        for round in 0..3 {
            let (answers, _) = submit_with(&engine, &requests, shards(k));
            let Some(expect) = &first else {
                for (i, (q, a)) in queries.iter().zip(&answers).enumerate() {
                    let opts = SolverOptions::default();
                    assert_reference(a, q, &h, opts, &format!("first round, q {i}"));
                }
                first = Some(answers);
                continue;
            };
            for (i, (a, b)) in answers.iter().zip(expect).enumerate() {
                assert_same_response(a, b, &format!("k {k}, round {round}, q {i}"));
            }
            let stats = engine.cache_stats();
            assert!(stats.entries <= 2, "{stats:?}");
        }
        let stats = engine.cache_stats();
        assert!(stats.evictions > 0, "tiny capacity must evict: {stats:?}");
        assert!(stats.misses > stats.hits, "thrashing cache: {stats:?}");
    }
}

/// A fleet of engines — one per instance version, all built on one tiny
/// shared `CacheHandle` — answers every version correctly and evicts
/// across versions. Rebuilding an engine for an identical instance on
/// the same handle finds the cache still warm; a mutated instance gets
/// a fresh fingerprint, so no stale answer can reach it.
#[test]
fn fleet_shares_one_bounded_cache_across_versions() {
    let mut rng = SmallRng::seed_from_u64(0xF0EE);
    let cache = CacheHandle::with_capacity(3);
    let on_cache = |h: &ProbGraph| {
        Engine::builder()
            .shared_cache(cache.clone())
            .build(h.clone())
    };
    let versions: Vec<(Engine, ProbGraph)> = (0..3)
        .map(|_| {
            let h = random_instance(&mut rng, ProbProfile::default());
            (on_cache(&h), h)
        })
        .collect();
    for round in 0..2 {
        for (engine, h) in &versions {
            let q = random_query(h, &mut rng);
            let answers = engine.submit(&[Request::probability(q.clone())]);
            let opts = SolverOptions::default();
            assert_reference(&answers[0], &q, h, opts, &format!("round {round}"));
        }
    }
    let stats = cache.stats();
    assert!(stats.entries <= 3, "{stats:?}");
    assert!(stats.misses >= 3, "{stats:?}");
    assert!(
        stats.evictions >= stats.misses - 3,
        "capacity 3 evicts across versions: {stats:?}"
    );

    // An identical instance rebuilt on the same handle: same
    // fingerprint, and its repeat is a hit, not a solve.
    let h = ProbGraph::new(
        Graph::directed_path(2),
        vec![Rational::from_ratio(1, 2), Rational::from_ratio(1, 2)],
    );
    let q = Request::probability(Graph::directed_path(1));
    let answer = |engine: &Engine| engine.submit(std::slice::from_ref(&q)).remove(0);
    let first = on_cache(&h);
    assert_eq!(
        answer(&first).unwrap().probability(),
        Some(&Rational::from_ratio(3, 4))
    );
    let before = cache.stats();
    let rebuilt = on_cache(&h);
    assert_eq!(
        rebuilt.fingerprint(),
        first.fingerprint(),
        "identical ⇒ same fingerprint"
    );
    assert_eq!(
        answer(&rebuilt).unwrap().probability(),
        Some(&Rational::from_ratio(3, 4))
    );
    let after = cache.stats();
    assert_eq!(after.misses, before.misses, "warm cache: no new solve");
    assert_eq!(
        after.hits,
        before.hits + 1,
        "warm cache: the repeat was a hit"
    );

    // A mutated instance: a fresh fingerprint whose answer reflects the
    // mutation, never the old version's cached one.
    let mutated = on_cache(&ProbGraph::new(
        Graph::directed_path(2),
        vec![Rational::one(), Rational::from_ratio(1, 2)],
    ));
    assert_ne!(
        mutated.fingerprint(),
        first.fingerprint(),
        "mutation ⇒ new fingerprint"
    );
    assert_eq!(
        answer(&mutated).unwrap().probability(),
        Some(&Rational::one())
    );
    assert_eq!(
        answer(&first).unwrap().probability(),
        Some(&Rational::from_ratio(3, 4)),
        "the old version still answers its own truth"
    );
}

/// `SolveError` keeps `From<Hardness>` (the engine's conditioning
/// fallback converts with `?`) and displays its variants.
#[test]
fn solve_error_conversions_and_display() {
    let hard = Hardness {
        prop: "Prop 5.1",
        cell: "test cell".into(),
    };
    let e: SolveError = hard.clone().into();
    assert_eq!(e, SolveError::Hard(hard));
    assert!(e.to_string().contains("Prop 5.1"));
    assert!(SolveError::InvalidQuery("nope".into())
        .to_string()
        .contains("nope"));
    assert!(SolveError::BudgetExceeded {
        resource: "gates",
        limit: 10
    }
    .to_string()
    .contains("gates"));
}
