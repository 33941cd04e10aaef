//! Equivalence suite for the batched engine: every answer of a batched
//! `Engine::submit` must be indistinguishable from submitting its query
//! alone — same probabilities (bit-identical rationals), same routes,
//! same hardness cells, same provenance behavior — and must equal an
//! independent reference: brute-force enumeration of the possible
//! worlds, or, for the Monte-Carlo fallback, the public sampler run
//! under the same seed. Randomized query sets cover every tractable
//! route, with and without the answer cache, and the model counts.

mod reference;

use phom::prelude::*;
use phom_core::{bruteforce, counting, instance_fingerprint};
use phom_graph::generate::{self, ProbProfile};
use phom_num::Natural;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use reference::{assert_reference, assert_same_response};

type Answer = Result<Response, SolveError>;

/// A randomized instance drawn from every interesting class: connected
/// 2WP / DWT / polytree, unions of them, and (sometimes) general graphs
/// whose cells are #P-hard.
fn random_instance(rng: &mut SmallRng) -> ProbGraph {
    let profile = ProbProfile {
        certain_ratio: 0.2,
        denominator: 4,
    };
    let g = match rng.gen_range(0..6) {
        0 => generate::two_way_path(rng.gen_range(1..8), 2, rng),
        1 => generate::downward_tree(rng.gen_range(2..9), 2, rng),
        2 => generate::polytree(rng.gen_range(2..9), 1, rng),
        3 => generate::union_of(2, rng, |r| generate::two_way_path(3, 2, r)),
        4 => generate::union_of(2, rng, |r| generate::downward_tree(4, 1, r)),
        _ => generate::connected(rng.gen_range(2..7), 2, 2, rng),
    };
    generate::with_probabilities(g, profile, rng)
}

/// A randomized query mix: planted paths (hit the circuit routes), random
/// connected and graded queries, unions, trivial and unmatchable shapes —
/// with deliberate repetition so interning always has work to do.
fn random_queries(h: &ProbGraph, rng: &mut SmallRng) -> Vec<Graph> {
    let mut queries = Vec::new();
    for _ in 0..rng.gen_range(4..10) {
        let q = match rng.gen_range(0..6) {
            0 => generate::planted_path_query(h.graph(), rng.gen_range(1..4), rng)
                .unwrap_or_else(|| generate::one_way_path(2, 2, rng)),
            1 => generate::connected(rng.gen_range(2..5), 1, 2, rng),
            2 => generate::graded_query(rng.gen_range(2..6), 2, 2, rng),
            3 => Graph::directed_path(rng.gen_range(0..3)),
            4 => generate::one_way_path(rng.gen_range(1..4), 3, rng),
            _ => generate::union_of(2, rng, |r| generate::downward_tree(3, 1, r)),
        };
        // Sometimes push the query twice: interning must dedup.
        if rng.gen_bool(0.3) {
            queries.push(q.clone());
        }
        queries.push(q);
    }
    queries
}

/// An engine with no answer cache: every submit evaluates, so a solo
/// submit re-derives its answer instead of reading the batch's.
fn cacheless(h: &ProbGraph, opts: SolverOptions) -> Engine {
    Engine::builder()
        .cache_capacity(0)
        .default_options(opts)
        .build(h.clone())
}

fn probability_requests(queries: &[Graph]) -> Vec<Request> {
    queries
        .iter()
        .map(|q| Request::probability(q.clone()))
        .collect()
}

/// Submits `queries` as one batch and each query alone, and checks
/// every batched answer against its solo twin and the reference.
fn check_batch(h: &ProbGraph, queries: &[Graph], opts: SolverOptions, ctx: &str) -> Vec<Answer> {
    let engine = cacheless(h, opts);
    let requests = probability_requests(queries);
    let (batch, stats) = engine.submit_stats(&requests);
    assert_eq!(batch.len(), queries.len());
    assert_eq!(
        stats.circuit_batched + stats.general_solved + stats.cache_hits,
        stats.unique_queries,
        "{ctx}: every unique query is accounted for"
    );
    for (i, (q, request)) in queries.iter().zip(&requests).enumerate() {
        let ctx = format!("{ctx} query {i}");
        let solo = engine.submit(std::slice::from_ref(request)).remove(0);
        assert_same_response(&batch[i], &solo, &ctx);
        assert_reference(&batch[i], q, h, opts, &ctx);
    }
    batch
}

#[test]
fn batched_submit_matches_solo_and_bruteforce_across_routes() {
    let mut rng = SmallRng::seed_from_u64(0xBA7C41);
    let mut seen_routes = std::collections::BTreeSet::new();
    for trial in 0..60 {
        let h = random_instance(&mut rng);
        let queries = random_queries(&h, &mut rng);
        let batch = check_batch(
            &h,
            &queries,
            SolverOptions::default(),
            &format!("trial {trial}"),
        );
        for answer in &batch {
            if let Ok(Response::Probability(sol)) = answer {
                seen_routes.insert(format!("{:?}", sol.route));
            }
        }
    }
    // The generator must actually exercise every tractable route family.
    let seen = format!("{seen_routes:?}");
    for expect in ["Prop36", "Prop410", "Prop411", "Prop54", "TrivialNoEdges"] {
        assert!(seen.contains(expect), "routes exercised: {seen}");
    }
}

#[test]
fn batched_provenance_handles_match_solo_and_bruteforce() {
    let mut rng = SmallRng::seed_from_u64(0xBA7C42);
    let opts = SolverOptions {
        want_provenance: true,
        ..Default::default()
    };
    for trial in 0..30 {
        let h = random_instance(&mut rng);
        let queries = random_queries(&h, &mut rng);
        let batch = check_batch(&h, &queries, opts, &format!("trial {trial}"));
        // When a handle attaches, it re-derives the probability through
        // the engine.
        for (i, answer) in batch.iter().enumerate() {
            if let Ok(Response::Probability(sol)) = answer {
                if let Some(prov) = &sol.provenance {
                    assert_eq!(
                        prov.probability::<Rational>(h.probs()),
                        sol.probability,
                        "trial {trial} query {i}"
                    );
                }
            }
        }
    }
}

#[test]
fn batched_submit_matches_solo_and_references_under_fallbacks() {
    let mut rng = SmallRng::seed_from_u64(0xBA7C43);
    for opts in [
        SolverOptions {
            fallback: Fallback::BruteForce { max_uncertain: 12 },
            ..Default::default()
        },
        SolverOptions {
            fallback: Fallback::MonteCarlo {
                samples: 300,
                seed: 7,
            },
            ..Default::default()
        },
    ] {
        for trial in 0..12 {
            let h = random_instance(&mut rng);
            let queries = random_queries(&h, &mut rng);
            check_batch(&h, &queries, opts, &format!("{opts:?} trial {trial}"));
        }
    }
}

/// Counting equivalence: on all-½ instances, the batched probability
/// scales to exactly the model count the counting module derives.
#[test]
fn batched_probabilities_scale_to_model_counts() {
    let mut rng = SmallRng::seed_from_u64(0xBA7C44);
    for _ in 0..25 {
        let g = match rng.gen_range(0..2) {
            0 => generate::two_way_path(rng.gen_range(1..7), 2, &mut rng),
            _ => generate::downward_tree(rng.gen_range(2..8), 2, &mut rng),
        };
        let h = generate::with_probabilities(g, ProbProfile::half(), &mut rng);
        let queries = random_queries(&h, &mut rng);
        let batch = Engine::new(h.clone()).submit(&probability_requests(&queries));
        let u = h.uncertain_edges().len() as u32;
        for (i, q) in queries.iter().enumerate() {
            let Ok(Response::Probability(sol)) = &batch[i] else {
                continue;
            };
            let scaled =
                sol.probability
                    .mul(&Rational::new(false, Natural::one().shl(u), Natural::one()));
            assert!(scaled.denom().is_one(), "query {i}: ½-weights scale to ℕ");
            match counting::count_satisfying_worlds(q, &h) {
                Ok(count) => assert_eq!(count, scaled.numer().clone(), "query {i}"),
                Err(counting::CountError::Hard(_)) => {}
                Err(e) => panic!("query {i}: {e:?}"),
            }
        }
    }
}

#[test]
fn cache_serves_repeats_and_instance_mutation_invalidates() {
    let mut rng = SmallRng::seed_from_u64(0xBA7C45);
    let h = generate::with_probabilities(
        generate::two_way_path(10, 2, &mut rng),
        ProbProfile {
            certain_ratio: 0.2,
            denominator: 4,
        },
        &mut rng,
    );
    let queries = random_queries(&h, &mut rng);
    let requests = probability_requests(&queries);
    let opts = SolverOptions::default();
    let cache = CacheHandle::unbounded();
    let on_cache = |h: &ProbGraph| {
        Engine::builder()
            .shared_cache(cache.clone())
            .build(h.clone())
    };
    let engine = on_cache(&h);

    // Cold batch: all misses.
    let (cold, s_cold) = engine.submit_stats(&requests);
    assert_eq!(s_cold.cache_hits, 0);
    assert_eq!(cache.stats().misses as usize, s_cold.unique_queries);
    assert_eq!(cache.stats().entries, s_cold.unique_queries);
    for (i, (q, a)) in queries.iter().zip(&cold).enumerate() {
        assert_reference(a, q, &h, opts, &format!("cold {i}"));
    }

    // Warm batch: all unique queries hit; nothing recompiles; identical
    // answers.
    let (warm, s_warm) = engine.submit_stats(&requests);
    assert_eq!(s_warm.cache_hits, s_warm.unique_queries);
    assert_eq!(s_warm.circuit_batched + s_warm.general_solved, 0);
    assert_eq!(
        s_warm.shared_gates, 0,
        "no shard arena when nothing batched"
    );
    for (i, (a, b)) in cold.iter().zip(&warm).enumerate() {
        assert_same_response(a, b, &format!("cold vs warm {i}"));
    }

    // Different options key separately (no cross-option bleed).
    let other_opts = SolverOptions {
        fallback: Fallback::BruteForce { max_uncertain: 12 },
        ..Default::default()
    };
    let other_requests: Vec<Request> = requests
        .iter()
        .map(|r| r.clone().options(other_opts))
        .collect();
    let (_, s_other) = engine.submit_stats(&other_requests);
    assert_eq!(s_other.cache_hits, 0, "other options must not hit");

    // Structural mutation: drop the last edge. New fingerprint, cold
    // cache, and answers match the reference on the mutated instance.
    let keep = h.graph().n_edges() - 1;
    let mut b = phom_graph::GraphBuilder::with_vertices(h.graph().n_vertices());
    for e in &h.graph().edges()[..keep] {
        b.edge(e.src, e.dst, e.label);
    }
    let h2 = ProbGraph::new(b.build(), h.probs()[..keep].to_vec());
    assert_ne!(instance_fingerprint(&h), instance_fingerprint(&h2));
    let (mutated, s_mut) = on_cache(&h2).submit_stats(&requests);
    assert_eq!(s_mut.cache_hits, 0, "mutated instance must not hit");
    for (i, (q, a)) in queries.iter().zip(&mutated).enumerate() {
        assert_reference(a, q, &h2, opts, &format!("mutated {i}"));
    }

    // The original instance's entries still serve.
    let (again, s_again) = engine.submit_stats(&requests);
    assert_eq!(s_again.cache_hits, s_again.unique_queries);
    for (i, (a, b)) in cold.iter().zip(&again).enumerate() {
        assert_same_response(a, b, &format!("original after mutation {i}"));
    }
}

#[test]
fn batch_order_is_preserved_under_heavy_duplication() {
    let mut rng = SmallRng::seed_from_u64(0xBA7C46);
    let h = generate::with_probabilities(
        generate::two_way_path(6, 2, &mut rng),
        ProbProfile::default(),
        &mut rng,
    );
    let a = generate::planted_path_query(h.graph(), 1, &mut rng)
        .unwrap_or_else(|| generate::one_way_path(1, 2, &mut rng));
    let b = Graph::directed_path(0);
    let pattern = [&a, &b, &a, &a, &b, &a, &b, &b, &a, &a];
    let queries: Vec<Graph> = pattern.iter().map(|q| (*q).clone()).collect();
    let (results, stats) = Engine::new(h.clone()).submit_stats(&probability_requests(&queries));
    assert_eq!(stats.unique_queries, 2);
    let pa = bruteforce::probability(&a, &h);
    let pb = bruteforce::probability(&b, &h);
    for (i, q) in pattern.iter().enumerate() {
        let expect = if std::ptr::eq(*q, &a) { &pa } else { &pb };
        assert_eq!(
            results[i].as_ref().unwrap().probability(),
            Some(expect),
            "{i}"
        );
    }
}
