//! The persistent serving runtime end to end: producers on many
//! threads, micro-batching ticks over a worker pool spawned once,
//! backpressure under a tiny queue, cancellation, and the stats
//! snapshot a dashboard would scrape.
//!
//! This is the process shape the ROADMAP's "heavy traffic" north star
//! asks for: nobody assembles batches by hand — concurrent callers
//! `enqueue` single requests, the runtime coalesces whatever arrives
//! within a tick window, and the paper's tractability does the rest
//! (one shared arena + one engine pass per shard, answers bit-identical
//! to direct `Engine::submit`).
//!
//! Run with: `cargo run --release --example runtime_serving`

use phom::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::time::Duration;

fn main() {
    let mut rng = SmallRng::seed_from_u64(0x52E21);

    // Two served versions: the live pipeline and its all-½ census twin.
    let live = phom::graph::generate::with_probabilities(
        phom::graph::generate::two_way_path(120, 2, &mut rng),
        phom::graph::generate::ProbProfile::default(),
        &mut rng,
    );
    let census = phom::graph::generate::with_probabilities(
        live.graph().clone(),
        phom::graph::generate::ProbProfile::half(),
        &mut rng,
    );

    let runtime = Runtime::builder()
        .max_batch(32) // flush a tick at 32 requests...
        .max_wait(Duration::from_millis(2)) // ...or after 2 ms while its lane is busy (idle lanes flush at once)
        .queue_cap(64) // admission control: beyond this, Overloaded
        .workers(4) // pool size — spawned once, right here
        .cache_capacity(512)
        .build();
    let v_live = runtime.register(live.clone());
    let v_census = runtime.register(census);
    println!(
        "runtime up: versions {:#x} (live) / {:#x} (census), {} workers",
        v_live,
        v_census,
        runtime.stats().workers
    );

    // The hot patterns clients ask for.
    let catalogue: Vec<Graph> = (1..=3)
        .map(|m| {
            phom::graph::generate::planted_path_query(live.graph(), m, &mut rng)
                .unwrap_or_else(|| phom::graph::generate::one_way_path(m, 2, &mut rng))
        })
        .collect();

    // Six producer threads fire 360 mixed requests; nobody batches by
    // hand, the tick window does the coalescing.
    let overload_retries = std::sync::atomic::AtomicU64::new(0);
    std::thread::scope(|scope| {
        let (runtime, catalogue, retries) = (&runtime, &catalogue, &overload_retries);
        for producer in 0..6 {
            scope.spawn(move || {
                let mut rng = SmallRng::seed_from_u64(0xB0B + producer);
                let mut tickets = Vec::new();
                for _ in 0..60 {
                    let q = catalogue[rng.gen_range(0..catalogue.len())].clone();
                    let (version, request) = match rng.gen_range(0..4) {
                        0 | 1 => (v_live, Request::probability(q)),
                        2 => (v_census, Request::probability(q).counting()),
                        _ => (v_live, Request::ucq(Ucq::new(catalogue.clone()))),
                    };
                    // Backpressure in action: a full queue answers
                    // Overloaded immediately; the producer backs off.
                    loop {
                        match runtime.enqueue_to(version, request.clone()) {
                            Ok(ticket) => {
                                tickets.push(ticket);
                                break;
                            }
                            Err(SolveError::Overloaded { .. }) => {
                                retries.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                                std::thread::yield_now();
                            }
                            Err(e) => panic!("enqueue: {e}"),
                        }
                    }
                }
                for ticket in tickets {
                    ticket.wait().expect("tractable workload");
                }
            });
        }
    });

    // Cancellation: park a request behind a long tick window, change
    // your mind, observe the immediate typed resolution.
    let parked = runtime
        .enqueue_to(v_live, Request::probability(catalogue[0].clone()))
        .expect("admitted");
    if parked.try_get().is_none() {
        parked.cancel();
    }
    assert!(parked.is_done() || parked.wait_timeout(Duration::from_secs(5)).is_some());

    // Bit-identity spot check against the direct engine path.
    let direct = Engine::new(live)
        .submit(&[Request::probability(catalogue[0].clone())])
        .pop()
        .unwrap();
    let served = runtime
        .enqueue_to(v_live, Request::probability(catalogue[0].clone()))
        .expect("admitted")
        .wait();
    match (&served, &direct) {
        (Ok(Response::Probability(a)), Ok(Response::Probability(b))) => {
            assert_eq!(
                a.probability, b.probability,
                "runtime == engine, bit for bit"
            );
        }
        (a, b) => panic!("{a:?} vs {b:?}"),
    }

    // Graceful shutdown drains everything in flight, then the snapshot.
    let stats = runtime.shutdown();
    println!(
        "served {} requests in {} ticks (mean {:.1}, max {} per tick)",
        stats.completed,
        stats.ticks,
        stats.mean_tick_requests(),
        stats.max_tick_requests
    );
    println!(
        "pool: {} workers (started exactly {} — once, at startup), \
         {} units, mean {:.0}µs, max {:.0}µs",
        stats.workers,
        stats.workers_started,
        stats.unit_runs,
        stats.mean_unit_micros(),
        stats.unit_nanos_max as f64 / 1e3
    );
    println!(
        "admission: {} admitted, {} rejected (producers retried {} times)",
        stats.admitted,
        stats.rejected,
        overload_retries.load(std::sync::atomic::Ordering::Relaxed)
    );
    println!(
        "plan-time: {} queries / {} unique / {} cache hits; \
         {} circuit-batched, {} general",
        stats.queries,
        stats.unique_queries,
        stats.batch_cache_hits,
        stats.circuit_batched,
        stats.general_solved
    );
    println!(
        "shared cache: {} entries, {} hits / {} misses / {} evictions",
        stats.cache.entries, stats.cache.hits, stats.cache.misses, stats.cache.evictions
    );
}
