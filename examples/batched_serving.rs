//! Batched serving: answering a repeating query stream over one
//! probabilistic instance with a long-lived `Engine`.
//!
//! The scenario is the ROADMAP's serving story: a long-lived process
//! holds a probabilistic graph (a labeled two-way path, say a pipeline of
//! uncertain sensor links) and answers homomorphism-probability requests
//! from many clients. Queries repeat heavily — most traffic is a handful
//! of hot patterns — so the engine wins four ways:
//!
//! 1. instance preprocessing (classification, labels, component split)
//!    runs once per *engine lifetime*, not once per query or per batch;
//! 2. structurally identical queries in a batch intern to a single solve;
//! 3. unique uncached circuit-compilable queries compile into one lineage
//!    arena and are answered by one multi-root pass over it (a
//!    `phom_serve::Runtime` splits the same work across its worker pool,
//!    with bit-identical results);
//! 4. across batches, the engine's **bounded LRU cache** serves hot
//!    queries without touching the solver at all — until the instance
//!    itself changes, which flips its fingerprint and invalidates every
//!    stale answer automatically.
//!
//! Run with: `cargo run --release --example batched_serving`

use phom::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn main() {
    let mut rng = SmallRng::seed_from_u64(0x5E21);

    // The served instance: a 2WP with 400 uncertain labeled edges.
    let h = phom::graph::generate::with_probabilities(
        phom::graph::generate::two_way_path(400, 2, &mut rng),
        phom::graph::generate::ProbProfile::default(),
        &mut rng,
    );

    // The query catalogue: a few hot patterns every client asks for.
    let catalogue: Vec<Graph> = (1..=4)
        .map(|m| {
            phom::graph::generate::planted_path_query(h.graph(), m, &mut rng)
                .unwrap_or_else(|| phom::graph::generate::one_way_path(m, 2, &mut rng))
        })
        .collect();

    // The long-lived engine with a bounded answer cache.
    let engine = Engine::builder().cache_capacity(1024).build(h.clone());

    // A simulated traffic trace: 5 ticks × 32 requests, Zipf-ish skew
    // toward the first catalogue entries.
    for tick in 0..5 {
        let requests: Vec<Request> = (0..32)
            .map(|_| {
                let skew: usize = rng.gen_range(0..10);
                let idx = match skew {
                    0..=4 => 0,
                    5..=7 => 1,
                    8 => 2,
                    _ => 3,
                };
                Request::probability(catalogue[idx].clone())
            })
            .collect();
        let t0 = std::time::Instant::now();
        let (answers, stats) = engine.submit_stats(&requests);
        let elapsed = t0.elapsed();
        let ok = answers.iter().filter(|a| a.is_ok()).count();
        println!(
            "tick {tick}: {} requests ({} unique) in {elapsed:?} — {} cache hits, \
             {} via {} shard(s) ({} gates), {} general; {ok} answered",
            stats.queries,
            stats.unique_queries,
            stats.cache_hits,
            stats.circuit_batched,
            stats.shards,
            stats.shared_gates,
            stats.general_solved,
        );
    }
    let s = engine.cache_stats();
    println!(
        "cache after warm traffic: {} entries, {} hits / {} misses / {} evictions \
         ({:.0}% hit rate)",
        s.entries,
        s.hits,
        s.misses,
        s.evictions,
        100.0 * s.hits as f64 / (s.hits + s.misses) as f64
    );

    // An operator fixes one sensor: its link becomes certain. A new graph
    // version means a new engine — its fingerprint moves, so nothing the
    // old version cached can ever be served for the new one (built with
    // `.shared_cache(engine.cache_handle())`, both versions would coexist
    // behind one shared cache).
    let mut probs = h.probs().to_vec();
    probs[0] = Rational::one();
    let h2 = ProbGraph::new(h.graph().clone(), probs);
    let engine2 = Engine::new(h2);
    assert_ne!(engine.fingerprint(), engine2.fingerprint());
    let requests: Vec<Request> = (0..8)
        .map(|i| Request::probability(catalogue[i % 4].clone()))
        .collect();
    let (_, stats) = engine2.submit_stats(&requests);
    println!(
        "after instance mutation: {} cache hits (expected 0), {} re-solved",
        stats.cache_hits,
        stats.circuit_batched + stats.general_solved,
    );

    // The probabilities themselves, for the record.
    let answers = engine2.submit(
        &catalogue
            .iter()
            .map(|q| Request::probability(q.clone()))
            .collect::<Vec<_>>(),
    );
    for (i, a) in answers.iter().enumerate() {
        match a {
            Ok(Response::Probability(sol)) => println!(
                "catalogue[{i}]: Pr = {:.6}  (route {:?})",
                sol.probability.to_f64(),
                sol.route
            ),
            Ok(other) => unreachable!("probability request answered as {other:?}"),
            Err(e) => println!("catalogue[{i}]: {e}"),
        }
    }
}
