//! The serving-runtime acceptance suite: `phom_serve::Runtime` must
//! return **bit-identical** answers to sequential `Engine::submit`
//! across every `max_batch` / `max_wait` / worker-count setting and
//! under heavy concurrent production; a full ingress queue must reject
//! with `SolveError::Overloaded` without losing already-admitted
//! tickets; cancellation, routing, draining shutdown, and the
//! spawned-exactly-once worker pool are all pinned here.

mod support;

use phom::prelude::*;
use phom::serve::Stage;
use phom_graph::generate::{self, ProbProfile};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::time::Duration;
use support::PoolHold;

/// A random instance spanning the tables' columns.
fn random_instance(rng: &mut SmallRng, profile: ProbProfile) -> ProbGraph {
    let g = match rng.gen_range(0..5) {
        0 => generate::two_way_path(rng.gen_range(2..10), 2, rng),
        1 => generate::downward_tree(rng.gen_range(2..10), 2, rng),
        2 => generate::polytree(rng.gen_range(3..10), 1, rng),
        3 => generate::two_way_path(rng.gen_range(2..8), 1, rng),
        _ => generate::connected(rng.gen_range(2..5), 1, 2, rng),
    };
    generate::with_probabilities(g, profile, rng)
}

/// A random request mixing every kind the runtime serves.
fn random_request(h: &ProbGraph, rng: &mut SmallRng) -> Request {
    let query = match rng.gen_range(0..5) {
        0 => Graph::directed_path(rng.gen_range(0..3)),
        1 => generate::one_way_path(rng.gen_range(1..4), 2, rng),
        2 => generate::planted_path_query(h.graph(), rng.gen_range(1..4), rng)
            .unwrap_or_else(|| generate::one_way_path(2, 2, rng)),
        3 => generate::two_way_path(rng.gen_range(1..4), 1, rng),
        _ => generate::connected(rng.gen_range(2..5), 1, 2, rng),
    };
    match rng.gen_range(0..6) {
        0 => Request::probability(query).counting(),
        1 => Request::probability(query).sensitivity(),
        2 => Request::ucq(Ucq::new(vec![query, Graph::directed_path(1)])),
        3 => Request::probability(query).with_provenance(),
        _ => Request::probability(query),
    }
}

/// Field-wise bit-identity of two responses (or errors).
fn assert_same(a: &Result<Response, SolveError>, b: &Result<Response, SolveError>, ctx: &str) {
    match (a, b) {
        (Ok(Response::Probability(x)), Ok(Response::Probability(y))) => {
            assert_eq!(x.probability, y.probability, "{ctx}");
            assert_eq!(x.route, y.route, "{ctx}");
            match (&x.provenance, &y.provenance) {
                (None, None) => {}
                (Some(px), Some(py)) => {
                    assert_eq!(px.negated, py.negated, "{ctx}");
                    assert_eq!(px.circuit.n_gates(), py.circuit.n_gates(), "{ctx}");
                }
                _ => panic!("{ctx}: provenance presence differs"),
            }
        }
        (
            Ok(Response::Count {
                worlds: wa,
                uncertain_edges: ua,
            }),
            Ok(Response::Count {
                worlds: wb,
                uncertain_edges: ub,
            }),
        ) => {
            assert_eq!(wa, wb, "{ctx}");
            assert_eq!(ua, ub, "{ctx}");
        }
        (
            Ok(Response::Sensitivity {
                influences: ia,
                route: ra,
            }),
            Ok(Response::Sensitivity {
                influences: ib,
                route: rb,
            }),
        ) => {
            assert_eq!(ia, ib, "{ctx}");
            assert_eq!(ra, rb, "{ctx}");
        }
        (
            Ok(Response::Ucq {
                probability: pa,
                route: ra,
            }),
            Ok(Response::Ucq {
                probability: pb,
                route: rb,
            }),
        ) => {
            assert_eq!(pa, pb, "{ctx}");
            assert_eq!(ra, rb, "{ctx}");
        }
        (Err(ea), Err(eb)) => assert_eq!(ea, eb, "{ctx}"),
        (a, b) => panic!("{ctx}: {a:?} vs {b:?}"),
    }
}

/// The headline acceptance test: randomized mixed workloads through the
/// runtime under varied tick/pool settings, all bit-identical to
/// sequential `Engine::submit`.
#[test]
fn runtime_matches_engine_submit_across_knobs() {
    let mut rng = SmallRng::seed_from_u64(0x2E217);
    let knobs = [
        (1usize, 0u64, 1usize),
        (4, 1, 2),
        (64, 5, 4),
        (7, 0, 3),
        (2, 3, 8),
    ];
    for (trial, &(max_batch, max_wait_ms, workers)) in knobs.iter().enumerate() {
        let profile = if trial % 2 == 0 {
            ProbProfile::half()
        } else {
            ProbProfile::default()
        };
        let h = random_instance(&mut rng, profile);
        let requests: Vec<Request> = (0..rng.gen_range(6..18))
            .map(|_| random_request(&h, &mut rng))
            .collect();
        // The sequential oracle.
        let engine = Engine::new(h.clone());
        let expect = engine.submit(&requests);
        // The runtime under this knob setting.
        let runtime = Runtime::builder()
            .max_batch(max_batch)
            .max_wait(Duration::from_millis(max_wait_ms))
            .workers(workers)
            .build();
        runtime.register(h);
        let tickets: Vec<Ticket> = requests
            .iter()
            .map(|r| runtime.enqueue(r.clone()).expect("under queue_cap"))
            .collect();
        for (i, (ticket, want)) in tickets.iter().zip(&expect).enumerate() {
            assert_same(
                &ticket.wait(),
                want,
                &format!("trial {trial} (b={max_batch}, w={max_wait_ms}ms, k={workers}), req {i}"),
            );
        }
        let stats = runtime.shutdown();
        assert_eq!(stats.completed, requests.len() as u64, "trial {trial}");
        assert_eq!(stats.workers_started as usize, workers, "trial {trial}");
    }
}

/// The soak test: many producer threads fire mixed requests at one
/// runtime serving two instance versions, with a small queue so
/// backpressure genuinely kicks in; every answer is bit-identical to a
/// sequential `Engine::submit` of the same request.
#[test]
fn soak_concurrent_producers_stay_bit_identical() {
    let mut rng = SmallRng::seed_from_u64(0x50A1 ^ 0xFFF);
    let h1 = generate::with_probabilities(
        generate::two_way_path(10, 2, &mut rng),
        ProbProfile::default(),
        &mut rng,
    );
    let h2 = generate::with_probabilities(
        generate::downward_tree(8, 2, &mut rng),
        ProbProfile::half(),
        &mut rng,
    );
    let oracle1 = Engine::new(h1.clone());
    let oracle2 = Engine::new(h2.clone());
    let runtime = Runtime::builder()
        .max_batch(16)
        .max_wait(Duration::from_millis(1))
        .queue_cap(32)
        .workers(4)
        .build();
    let v1 = runtime.register(h1.clone());
    let v2 = runtime.register(h2.clone());
    const PRODUCERS: usize = 8;
    const PER_PRODUCER: usize = 40;
    std::thread::scope(|scope| {
        let (runtime, oracle1, oracle2, h1, h2) = (&runtime, &oracle1, &oracle2, &h1, &h2);
        let handles: Vec<_> = (0..PRODUCERS)
            .map(|p| {
                scope.spawn(move || {
                    let mut rng = SmallRng::seed_from_u64(0x50AC + p as u64);
                    for j in 0..PER_PRODUCER {
                        let (version, h, oracle) = if rng.gen_bool(0.5) {
                            (v1, h1, oracle1)
                        } else {
                            (v2, h2, oracle2)
                        };
                        let request = random_request(h, &mut rng);
                        // Backpressure: retry until admitted; admitted
                        // tickets must never be lost.
                        let ticket = loop {
                            match runtime.enqueue_to(version, request.clone()) {
                                Ok(ticket) => break ticket,
                                Err(SolveError::Overloaded { capacity }) => {
                                    assert_eq!(capacity, 32, "producer {p}");
                                    std::thread::yield_now();
                                }
                                Err(e) => panic!("producer {p}, req {j}: {e}"),
                            }
                        };
                        let got = ticket.wait();
                        let want = oracle.submit(std::slice::from_ref(&request));
                        assert_same(&got, &want[0], &format!("producer {p}, req {j}"));
                    }
                })
            })
            .collect();
        for handle in handles {
            handle.join().expect("producer");
        }
    });
    let stats = runtime.shutdown();
    let total = (PRODUCERS * PER_PRODUCER) as u64;
    assert_eq!(stats.completed, total, "{stats:?}");
    assert_eq!(stats.total_tick_requests, stats.admitted, "{stats:?}");
    assert_eq!(stats.workers_started, 4, "pool spawned once: {stats:?}");
    assert!(stats.ticks > 0, "{stats:?}");
    assert!(stats.max_tick_requests <= 16, "{stats:?}");
    assert!(
        stats.cache.hits > 0,
        "repeated requests must hit the shared cache: {stats:?}"
    );
}

/// Backpressure: a full queue answers `Overloaded` immediately, with
/// the configured capacity, and every already-admitted ticket still
/// completes (the shutdown drains them).
#[test]
fn overloaded_rejects_without_losing_admitted_tickets() {
    let h = ProbGraph::new(
        Graph::directed_path(2),
        vec![Rational::from_ratio(1, 2), Rational::from_ratio(1, 2)],
    );
    // A held pool plus a huge batch bound and a long wait keeps the
    // queue parked until shutdown, so admission control is what we
    // observe. The hold occupies one of the two workers; the other
    // runs the shutdown drain.
    let runtime = Runtime::builder()
        .max_batch(10_000)
        .max_wait(Duration::from_secs(60))
        .queue_cap(4)
        .workers(2)
        .build();
    let v = runtime.register(h);
    let hold = PoolHold::engage(&runtime, Lane::Fast);
    let held = hold.requests();
    let request = Request::probability(Graph::directed_path(1));
    let mut admitted = Vec::new();
    let mut rejected = 0u64;
    for _ in 0..20 {
        match runtime.enqueue_to(v, request.clone()) {
            Ok(ticket) => admitted.push(ticket),
            Err(SolveError::Overloaded { capacity }) => {
                assert_eq!(capacity, 4);
                rejected += 1;
            }
            Err(e) => panic!("{e}"),
        }
    }
    assert_eq!(admitted.len(), 4, "exactly queue_cap admitted");
    assert_eq!(rejected, 16);
    assert_eq!(runtime.stats().queue_depth, 4);
    for ticket in &admitted {
        assert!(ticket.try_get().is_none(), "parked until the tick fires");
    }
    // Graceful shutdown drains the admitted tickets through final ticks
    // (on the free worker, while the hold still stands); the hold is
    // released once they have answered, so the pool can be joined.
    let stats = std::thread::scope(|scope| {
        let admitted = &admitted;
        scope.spawn(move || {
            for ticket in admitted {
                ticket.wait().expect("drained at shutdown");
            }
            hold.release();
        });
        runtime.shutdown()
    });
    for ticket in &admitted {
        let answer = ticket.try_get().expect("drained at shutdown");
        let Ok(Response::Probability(sol)) = answer else {
            panic!("{answer:?}");
        };
        assert_eq!(sol.probability, Rational::from_ratio(3, 4));
    }
    assert_eq!(stats.completed, 4 + held, "{stats:?}");
    assert_eq!(stats.rejected, 16, "{stats:?}");
    assert_eq!(stats.queue_depth, 0, "{stats:?}");
}

/// Cancellation resolves a parked ticket immediately with
/// `Err(Cancelled)`, the runtime skips its execution, and the rest of
/// the tick is unaffected.
#[test]
fn cancellation_skips_execution() {
    let h = ProbGraph::new(
        Graph::directed_path(2),
        vec![Rational::from_ratio(1, 2), Rational::from_ratio(1, 2)],
    );
    // The hold keeps one worker busy, so the two requests park for
    // `max_wait`; the other worker runs their tick.
    let runtime = Runtime::builder()
        .max_batch(10_000)
        .max_wait(Duration::from_millis(50))
        .workers(2)
        .build();
    let v = runtime.register(h);
    let hold = PoolHold::engage(&runtime, Lane::Fast);
    let held = hold.requests();
    let keep = runtime
        .enqueue_to(v, Request::probability(Graph::directed_path(1)))
        .unwrap();
    let dropped = runtime
        .enqueue_to(v, Request::probability(Graph::directed_path(2)))
        .unwrap();
    assert!(dropped.cancel(), "parked ticket cancels");
    assert!(dropped.is_done(), "cancellation resolves immediately");
    assert!(matches!(dropped.wait(), Err(SolveError::Cancelled)));
    assert!(!dropped.cancel(), "second cancel is a no-op");
    // The un-cancelled neighbor still answers after the wait window.
    let Ok(Response::Probability(sol)) = keep.wait() else {
        panic!("kept ticket must answer");
    };
    assert_eq!(sol.probability, Rational::from_ratio(3, 4));
    hold.release();
    let stats = runtime.shutdown();
    assert_eq!(stats.cancelled, 1, "{stats:?}");
    assert_eq!(stats.completed, 1 + held, "{stats:?}");
}

/// Regression for the `Ticket::cancel` vs tick-flush race: a cancel
/// that loses the race to the flush (the batcher observed the cancelled
/// flag and skipped the entry, or the tick already executed) must
/// still leave the ticket **resolved** — `wait` may never hang on the
/// canceller's progress. Hammers the window with a tiny tick size and
/// zero patience so flushes and cancels interleave every which way.
///
/// The wire protocol's server-push completion rides this same seam:
/// every round also registers an `on_complete` callback and asserts it
/// fires **exactly once**, whichever of cancel, flush-skip, or tick
/// execution wins the resolution race — the invariant that makes a v2
/// connection push each completion frame exactly once.
#[test]
fn cancel_vs_flush_race_always_resolves() {
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;
    let h = ProbGraph::new(
        Graph::directed_path(2),
        vec![Rational::from_ratio(1, 2), Rational::from_ratio(1, 2)],
    );
    let runtime = Runtime::builder()
        .max_batch(1)
        .max_wait(Duration::ZERO)
        .workers(2)
        .build();
    runtime.register(h);
    let request = Request::probability(Graph::directed_path(1));
    let mut outcomes = (0u64, 0u64); // (answered, cancelled)
    for round in 0..300 {
        let ticket = runtime.enqueue(request.clone()).expect("admitted");
        let fires = Arc::new(AtomicU64::new(0));
        {
            let fires = Arc::clone(&fires);
            ticket.on_complete(move |_| {
                fires.fetch_add(1, Ordering::SeqCst);
            });
        }
        std::thread::scope(|scope| {
            let canceller = scope.spawn(|| {
                if round % 3 == 0 {
                    std::thread::yield_now();
                }
                ticket.cancel()
            });
            // The race window: the batcher may be flushing this very
            // tick while the cancel lands. Whatever interleaving
            // happens, the ticket must resolve promptly.
            let resolved = ticket
                .wait_timeout(Duration::from_secs(10))
                .expect("a raced cancel must never leave a ticket unresolved");
            match resolved {
                Ok(Response::Probability(sol)) => {
                    assert_eq!(sol.probability, Rational::from_ratio(3, 4), "round {round}");
                    outcomes.0 += 1;
                }
                Err(SolveError::Cancelled) => outcomes.1 += 1,
                other => panic!("round {round}: {other:?}"),
            }
            canceller.join().expect("canceller");
        });
        // The callback runs on the resolving thread *after* waiters are
        // notified, so `wait` returning does not mean it has fired yet
        // — give it a beat, then pin exactly-once.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while fires.load(Ordering::SeqCst) == 0 && std::time::Instant::now() < deadline {
            std::thread::yield_now();
        }
        assert_eq!(
            fires.load(Ordering::SeqCst),
            1,
            "round {round}: the pushed completion must fire exactly once"
        );
    }
    assert_eq!(outcomes.0 + outcomes.1, 300);
    let stats = runtime.shutdown();
    // Every admitted entry went through a tick (none stranded), and the
    // books balance: answered tickets are `completed`, skipped ones are
    // `cancelled`, and a cancel landing mid-execution is neither.
    assert_eq!(stats.total_tick_requests, stats.admitted, "{stats:?}");
    assert_eq!(stats.completed, outcomes.0, "{stats:?} vs {outcomes:?}");
    assert_eq!(stats.queue_depth, 0, "{stats:?}");
}

/// The work-conserving rule: an idle pool flushes at once, whatever the
/// batching knobs say. With a 10 000-request batch bound and ten minutes
/// of patience, both an uncached request (which needs a worker) and a
/// cached one (answered at plan time) still answer promptly.
#[test]
fn idle_pool_flushes_without_waiting_for_company() {
    let h = ProbGraph::new(Graph::directed_path(3), vec![Rational::from_ratio(1, 2); 3]);
    let request = Request::probability(Graph::directed_path(2));
    let want = Engine::new(h.clone()).submit(std::slice::from_ref(&request));
    let runtime = Runtime::builder()
        .max_batch(10_000)
        .max_wait(Duration::from_secs(600))
        .workers(1)
        .build();
    runtime.register(h);
    for pass in ["cache miss", "cache hit"] {
        let ticket = runtime.enqueue(request.clone()).expect("admitted");
        let answer = ticket
            .wait_timeout(Duration::from_secs(5))
            .unwrap_or_else(|| panic!("{pass}: an idle pool must not wait for company"));
        assert_same(&answer, &want[0], pass);
    }
    let stats = runtime.shutdown();
    assert_eq!(stats.ticks, 2, "{stats:?}");
    assert_eq!(stats.cache.misses, 1, "{stats:?}");
    assert_eq!(stats.batch_cache_hits, 1, "{stats:?}");
}

/// While the pool is busy, `max_wait` still applies: requests admitted
/// one at a time wait for company, none answers before the pool frees
/// up, and they then flush together as one tick.
#[test]
fn busy_pool_coalesces_requests_into_one_tick() {
    let h = ProbGraph::new(Graph::directed_path(4), vec![Rational::from_ratio(1, 2); 4]);
    let requests: Vec<Request> = (1..=4)
        .map(|m| Request::probability(Graph::directed_path(m)))
        .collect();
    let want = Engine::new(h.clone()).submit(&requests);
    let runtime = Runtime::builder()
        .max_batch(10_000)
        .max_wait(Duration::from_secs(600))
        .workers(1)
        .build();
    let v = runtime.register(h);
    let hold = PoolHold::engage(&runtime, Lane::Fast);
    let held = hold.requests();
    let tickets: Vec<Ticket> = requests
        .iter()
        .map(|r| runtime.enqueue_to(v, r.clone()).expect("admitted"))
        .collect();
    assert_eq!(runtime.stats().queue_depth, 4);
    for (i, ticket) in tickets.iter().enumerate() {
        assert!(
            ticket.try_get().is_none(),
            "request {i} answered while held"
        );
    }
    hold.release();
    for (i, (ticket, want)) in tickets.iter().zip(&want).enumerate() {
        let answer = ticket
            .wait_timeout(Duration::from_secs(5))
            .unwrap_or_else(|| panic!("request {i}: the freed pool must flush the queue"));
        assert_same(&answer, want, &format!("request {i}"));
    }
    let stats = runtime.shutdown();
    assert_eq!(stats.max_tick_requests, 4, "one tick of four: {stats:?}");
    assert_eq!(stats.ticks, held + 1, "{stats:?}");
}

/// No lost wake-up: the group that leaves the pool idle must wake a
/// batcher holding queued requests. Each round admits a request just as
/// a short in-flight group finishes (at a different offset each round);
/// with ten minutes of patience, a missed notify would strand it, so a
/// bounded wait turns that into a failure instead of a hang.
#[test]
fn finishing_group_wakes_a_waiting_batcher() {
    let h = ProbGraph::new(Graph::directed_path(6), vec![Rational::from_ratio(1, 2); 6]);
    let runtime = Runtime::builder()
        .max_batch(10_000)
        .max_wait(Duration::from_secs(600))
        .workers(2)
        .build();
    let v = runtime.register(h.clone());
    let cache = runtime.cache_handle();
    let short = Request::probability(Graph::directed_path(1));
    let late = Request::probability(Graph::directed_path(2));
    let want = Engine::new(h.clone()).submit(&[short.clone(), late.clone()]);
    for round in 0..500u64 {
        // Uncached every round, so the short request runs on a worker.
        cache.clear();
        let first = runtime.enqueue_to(v, short.clone()).expect("admitted");
        let spin = std::time::Instant::now();
        while spin.elapsed() < Duration::from_micros(round % 50) {
            std::hint::spin_loop();
        }
        let second = runtime.enqueue_to(v, late.clone()).expect("admitted");
        for (ticket, want) in [first, second].iter().zip(&want) {
            let answer = ticket
                .wait_timeout(Duration::from_secs(5))
                .unwrap_or_else(|| panic!("round {round}: a queued request was stranded"));
            assert_same(&answer, want, &format!("round {round}"));
        }
    }
    let stats = runtime.shutdown();
    assert_eq!(stats.completed, 1000, "{stats:?}");
}

/// Idleness is per lane: a slow group in flight (sampling, counting,
/// float work) never makes a fast-lane request wait for company, while
/// a slow-lane request still waits for its own lane.
#[test]
fn fast_lane_flushes_while_slow_lane_is_busy() {
    let h = ProbGraph::new(Graph::directed_path(3), vec![Rational::from_ratio(1, 2); 3]);
    let fast = Request::probability(Graph::directed_path(2));
    let slow = Request::probability(Graph::directed_path(2)).counting();
    let want = Engine::new(h.clone()).submit(&[fast.clone(), slow.clone()]);
    let runtime = Runtime::builder()
        .max_batch(10_000)
        .max_wait(Duration::from_secs(600))
        .workers(2)
        .build();
    let v = runtime.register(h);
    let hold = PoolHold::engage(&runtime, Lane::Slow);
    let answer = runtime
        .enqueue_to(v, fast)
        .expect("admitted")
        .wait_timeout(Duration::from_secs(5))
        .expect("a busy slow lane must not hold back a fast request");
    assert_same(&answer, &want[0], "fast request");
    // Alone in the queue, a slow request waits for its own lane. (A
    // flush triggered by an idle fast lane takes waiting slow requests
    // along, so it is admitted only after the fast one answered.)
    let parked = runtime.enqueue_to(v, slow).expect("admitted");
    assert!(
        parked.try_get().is_none(),
        "the slow request waits for its lane"
    );
    assert_eq!(runtime.stats().queue_depth, 1);
    hold.release();
    let answer = parked
        .wait_timeout(Duration::from_secs(5))
        .expect("the idle slow lane flushes");
    assert_same(&answer, &want[1], "slow request");
    runtime.shutdown();
}

/// `RuntimeStats` consistency under a scripted workload: the tick-size
/// histogram, the queue-depth high-water mark, and the cache counters
/// all match what the script forces. (Each wave is admitted with one
/// `enqueue_batch_to`, so the batcher sees all four at once and `max_batch`
/// 4 flushes them as exactly one tick — deterministic.)
#[test]
fn stats_match_a_scripted_workload() {
    let h = ProbGraph::new(Graph::directed_path(4), vec![Rational::from_ratio(1, 2); 4]);
    let runtime = Runtime::builder()
        .max_batch(4)
        .max_wait(Duration::from_secs(600))
        .workers(1)
        .build();
    let v = runtime.register(h);
    let wave = |requests: [Request; 4]| -> Vec<Result<Response, SolveError>> {
        let tickets: Vec<Ticket> = runtime
            .enqueue_batch_to(v, requests.into())
            .into_iter()
            .map(|t| t.expect("admitted"))
            .collect();
        tickets.iter().map(|t| t.wait()).collect()
    };
    // Wave 1: four copies of one query — one unique miss, 3 interned.
    let q = Graph::directed_path(2);
    let first = wave([(); 4].map(|()| Request::probability(q.clone())));
    // Wave 2: four structurally distinct queries (none of them wave 1's
    // 2-path) — four unique misses.
    let second = wave([0usize, 1, 3, 4].map(|m| Request::probability(Graph::directed_path(m))));
    // Wave 3: wave 1 again — answered from the shared cache at plan time.
    let third = wave([(); 4].map(|()| Request::probability(q.clone())));
    for (a, b) in first.iter().zip(&third) {
        assert_same(a, b, "warm wave must repeat the cold answers");
    }
    assert!(second.iter().all(Result::is_ok));
    let stats = runtime.shutdown();
    // Tick shapes: exactly three ticks of exactly four requests.
    assert_eq!(stats.ticks, 3, "{stats:?}");
    assert_eq!(stats.total_tick_requests, 12, "{stats:?}");
    assert_eq!(stats.admitted, 12, "{stats:?}");
    assert_eq!(stats.max_tick_requests, 4, "{stats:?}");
    let mut expected_hist = [0u64; phom_serve::TICK_HIST_BUCKETS];
    expected_hist[phom_serve::tick_size_bucket(4)] = 3;
    assert_eq!(stats.tick_size_hist, expected_hist, "{stats:?}");
    assert_eq!(
        stats.tick_size_hist.iter().sum::<u64>(),
        stats.ticks,
        "bucket counts account for every tick: {stats:?}"
    );
    // The high-water mark: each wave is admitted whole before the
    // batcher sees it, and nothing ever exceeds a full wave.
    assert_eq!(stats.queue_depth_max, 4, "{stats:?}");
    // Cache counters: 5 unique queries solved (1 + 4), wave 3 served
    // from the cache during planning (1 interned probe, hit).
    assert_eq!(stats.queries, 12, "{stats:?}");
    assert_eq!(stats.unique_queries, 6, "{stats:?}");
    assert_eq!(stats.cache.misses, 5, "{stats:?}");
    assert_eq!(stats.cache.hits, 1, "{stats:?}");
    assert_eq!(stats.batch_cache_hits, 1, "{stats:?}");
    assert_eq!(stats.cache.entries, 5, "{stats:?}");
    assert_eq!(stats.completed, 12, "{stats:?}");
}

/// The latency histograms account for every request of a scripted
/// workload: per-lane counts match the completion counters, the stage
/// histograms see one sample per tick group, and the quantile ladder is
/// monotone with everything bounded by the test's own wall clock.
#[test]
fn latency_histograms_track_a_scripted_workload() {
    let started = std::time::Instant::now();
    let h = ProbGraph::new(Graph::directed_path(4), vec![Rational::from_ratio(1, 2); 4]);
    let runtime = Runtime::builder()
        .max_batch(4)
        .max_wait(Duration::from_secs(600))
        .workers(1)
        .build();
    let v = runtime.register(h);
    for _ in 0..3 {
        // One admission per wave: a single tick of four.
        let tickets: Vec<Ticket> = runtime
            .enqueue_batch_to(v, vec![Request::probability(Graph::directed_path(2)); 4])
            .into_iter()
            .map(|t| t.expect("admitted"))
            .collect();
        for t in &tickets {
            t.wait().expect("answered");
        }
    }
    let stats = runtime.shutdown();
    let wall = started.elapsed().as_nanos() as u64;
    assert_eq!(stats.completed, 12, "{stats:?}");
    // Exact-plan probability queries ride the fast lane; the slow-lane
    // histograms stay untouched.
    let fast = &stats.request_ns_fast;
    assert_eq!(fast.count(), stats.completed, "{fast:?}");
    assert!(stats.request_ns_slow.is_empty(), "{stats:?}");
    assert_eq!(stats.queue_ns_fast.count(), stats.completed, "{stats:?}");
    assert!(stats.queue_ns_slow.is_empty(), "{stats:?}");
    // One sample per tick group for each stage histogram (three ticks,
    // each a single fast-lane group of one instance).
    assert_eq!(stats.plan_ns.count(), stats.ticks, "{stats:?}");
    assert_eq!(stats.eval_ns.count(), stats.ticks, "{stats:?}");
    assert_eq!(stats.encode_ns.count(), stats.ticks, "{stats:?}");
    // The quantile ladder is monotone and never reports past the
    // observed max, which itself cannot exceed the test's wall clock.
    let (p50, p90, p99) = (fast.quantile(0.5), fast.quantile(0.9), fast.quantile(0.99));
    assert!(p50 <= p90 && p90 <= p99, "{fast:?}");
    assert!(p99 <= fast.max(), "{fast:?}");
    assert!(fast.max() <= wall, "{fast:?} vs wall {wall}");
    assert!(fast.quantile(1.0) == fast.max(), "{fast:?}");
    // Queueing is a slice of the end-to-end request time: the queue
    // histogram's mass can never exceed the request histogram's.
    assert!(stats.queue_ns_fast.sum() <= fast.sum(), "{stats:?}");
    // Merging two disjoint halves is exact: rebuild the full histogram
    // from per-member pieces the way the fleet rollup does.
    let mut merged = phom_serve::Histogram::new();
    merged.merge(&stats.queue_ns_fast);
    merged.merge(fast);
    assert_eq!(merged.count(), stats.queue_ns_fast.count() + fast.count());
    assert_eq!(merged.max(), fast.max().max(stats.queue_ns_fast.max()));
    assert_eq!(
        merged.sum(),
        stats.queue_ns_fast.sum() + fast.sum(),
        "{merged:?}"
    );
}

/// Tickets expose non-blocking probes and bounded waits.
#[test]
fn tickets_support_nonblocking_probes_and_timeouts() {
    let h = ProbGraph::new(Graph::directed_path(1), vec![Rational::from_ratio(1, 3)]);
    // The hold keeps one worker busy, so the request waits out its
    // batching patience; the other worker then runs its tick.
    let runtime = Runtime::builder()
        .max_batch(10_000)
        .max_wait(Duration::from_millis(100))
        .workers(2)
        .build();
    let v = runtime.register(h);
    let hold = PoolHold::engage(&runtime, Lane::Fast);
    let ticket = runtime
        .enqueue_to(v, Request::probability(Graph::directed_path(1)))
        .unwrap();
    // The tick cannot have fired yet (100 ms of batching patience while
    // the pool is busy).
    assert!(ticket.try_get().is_none());
    assert!(!ticket.is_done());
    assert!(
        ticket.wait_timeout(Duration::from_millis(1)).is_none(),
        "bounded wait gives up while parked"
    );
    let answer = ticket
        .wait_timeout(Duration::from_secs(30))
        .expect("tick fires after max_wait");
    assert_eq!(
        answer.unwrap().probability(),
        Some(&Rational::from_ratio(1, 3))
    );
    hold.release();
    runtime.shutdown();
}

/// The router dispatches by version fingerprint, rejects unknown
/// versions at enqueue time, and hot-swaps registrations.
#[test]
fn router_dispatches_by_version() {
    let g = Graph::directed_path(2);
    let h1 = ProbGraph::new(
        g.clone(),
        vec![Rational::from_ratio(1, 2), Rational::from_ratio(1, 2)],
    );
    let h2 = ProbGraph::new(g, vec![Rational::one(), Rational::from_ratio(1, 2)]);
    let runtime = Runtime::builder()
        .max_batch(4)
        .max_wait(Duration::from_millis(1))
        .workers(2)
        .build();
    let v1 = runtime.register(h1);
    let v2 = runtime.register(h2);
    assert_ne!(v1, v2);
    assert_eq!(runtime.versions().len(), 2);
    let q = Request::probability(Graph::directed_path(1));
    let t1 = runtime.enqueue_to(v1, q.clone()).unwrap();
    let t2 = runtime.enqueue_to(v2, q.clone()).unwrap();
    assert_eq!(
        t1.wait().unwrap().probability(),
        Some(&Rational::from_ratio(3, 4))
    );
    assert_eq!(t2.wait().unwrap().probability(), Some(&Rational::one()));
    // Unknown version: typed rejection, no ticket.
    assert!(matches!(
        runtime.enqueue_to(v1 ^ v2 ^ 1, q.clone()),
        Err(SolveError::InvalidQuery(_))
    ));
    // Deregistered version: same.
    assert!(runtime.deregister(v2));
    assert!(matches!(
        runtime.enqueue_to(v2, q.clone()),
        Err(SolveError::InvalidQuery(_))
    ));
    // The default route (first registered) still serves.
    let t = runtime.enqueue(q).unwrap();
    assert!(t.wait().is_ok());
    runtime.shutdown();
}

/// An admitted request completes even when its version is deregistered
/// before the tick fires (each admitted entry pins its engine at
/// admission time), and an unbounded `max_wait` on a busy pool means
/// "flush by count, idle pool or shutdown only" — not an
/// `Instant`-overflow panic in the batcher.
#[test]
fn admitted_requests_survive_deregistration_and_unbounded_waits() {
    let h = ProbGraph::new(Graph::directed_path(1), vec![Rational::from_ratio(1, 2)]);
    let runtime = Runtime::builder()
        .max_batch(10_000)
        .max_wait(Duration::MAX) // no timer flush, ever
        .workers(2)
        .build();
    let v = runtime.register(h);
    // One worker held busy: the request parks until shutdown.
    let hold = PoolHold::engage(&runtime, Lane::Fast);
    let held = hold.requests();
    let parked = runtime
        .enqueue_to(v, Request::probability(Graph::directed_path(1)))
        .unwrap();
    assert!(runtime.deregister(v));
    assert!(matches!(
        runtime.enqueue_to(v, Request::probability(Graph::directed_path(0))),
        Err(SolveError::InvalidQuery(_))
    ));
    assert!(parked.try_get().is_none(), "parked until shutdown");
    // The shutdown drain flushes the parked tick onto the free worker;
    // the pinned engine answers it despite the deregistration. The hold
    // is released once it has, so the pool can be joined.
    let stats = std::thread::scope(|scope| {
        let parked = &parked;
        scope.spawn(move || {
            parked.wait().expect("drained at shutdown");
            hold.release();
        });
        runtime.shutdown()
    });
    let answer = parked.try_get().expect("drained at shutdown");
    assert_eq!(
        answer.unwrap().probability(),
        Some(&Rational::from_ratio(1, 2))
    );
    assert_eq!(stats.completed, 1 + held, "{stats:?}");
}

/// Dropping a runtime without calling `shutdown` still drains admitted
/// work and joins every thread (no detached workers, no lost tickets).
#[test]
fn drop_is_a_graceful_shutdown() {
    let h = ProbGraph::new(Graph::directed_path(1), vec![Rational::from_ratio(1, 2)]);
    let ticket;
    {
        let runtime = Runtime::builder()
            .max_batch(10_000)
            .max_wait(Duration::from_secs(60))
            .workers(2)
            .build();
        let v = runtime.register(h);
        let hold = PoolHold::engage(&runtime, Lane::Fast);
        ticket = runtime
            .enqueue_to(v, Request::probability(Graph::directed_path(1)))
            .unwrap();
        assert!(ticket.try_get().is_none(), "parked behind the held pool");
        // Parked: the tick would fire in 60 s, but the drop drains now
        // (on the free worker); the hold is released once it has.
        std::thread::scope(|scope| {
            let ticket = &ticket;
            scope.spawn(move || {
                ticket.wait().expect("drained by drop");
                hold.release();
            });
            drop(runtime);
        });
    }
    let answer = ticket.try_get().expect("drained by drop");
    assert_eq!(
        answer.unwrap().probability(),
        Some(&Rational::from_ratio(1, 2))
    );
}

/// Heavy repetition across ticks rides the shared answer cache — the
/// second wave of identical requests is served from planning alone
/// (no shard executes), and the counters prove it.
#[test]
fn repeated_ticks_serve_from_the_shared_cache() {
    let mut rng = SmallRng::seed_from_u64(0xCAC4E);
    let h = generate::with_probabilities(
        generate::two_way_path(12, 2, &mut rng),
        ProbProfile::default(),
        &mut rng,
    );
    let q = generate::planted_path_query(h.graph(), 3, &mut rng)
        .unwrap_or_else(|| generate::one_way_path(2, 2, &mut rng));
    let runtime = Runtime::builder()
        .max_batch(8)
        .max_wait(Duration::from_millis(1))
        .workers(2)
        .build();
    let v = runtime.register(h);
    let request = Request::probability(q);
    // Each wave is admitted at once, so it is one tick of eight.
    let wave = || -> Vec<Ticket> {
        runtime
            .enqueue_batch_to(v, vec![request.clone(); 8])
            .into_iter()
            .map(Result::unwrap)
            .collect()
    };
    let first = wave();
    let answers: Vec<_> = first.iter().map(|t| t.wait()).collect();
    let again = wave();
    for (a, t) in answers.iter().zip(&again) {
        assert_same(a, &t.wait(), "warm tick");
    }
    let stats = runtime.shutdown();
    assert!(
        stats.batch_cache_hits > 0,
        "warm ticks answer at plan time: {stats:?}"
    );
    assert_eq!(stats.cache.misses, 1, "one unique query overall: {stats:?}");
}

/// The lanes non-interference differential: with the slow lane
/// saturated by genuine Monte-Carlo sampling (estimate-policy traffic
/// against a #P-hard version), exact answers — fast-lane probability
/// work and slow-lane counting/UCQ/sensitivity work alike — must stay
/// **bit-identical** to sequential `Engine::submit` oracles. Priority
/// lanes and background sampling may only ever change latency, never
/// bits.
#[test]
fn exact_answers_survive_background_sampling_load_bit_for_bit() {
    let mut rng = SmallRng::seed_from_u64(0x1A9E5);
    // The tractable version serving the exact traffic…
    let h = random_instance(&mut rng, ProbProfile::default());
    // …and a 2-cycle version whose estimate traffic genuinely samples.
    let hard = {
        let mut b = GraphBuilder::with_vertices(2);
        b.edge(0, 1, Label(0));
        b.edge(1, 0, Label(0));
        ProbGraph::new(
            b.build(),
            vec![Rational::from_ratio(1, 2), Rational::from_ratio(1, 2)],
        )
    };
    let oracle = Engine::new(h.clone());
    let runtime = Runtime::builder()
        .max_batch(8)
        .max_wait(Duration::from_millis(1))
        .queue_cap(4096)
        .workers(3)
        .build();
    let v_exact = runtime.register(h.clone());
    let v_hard = runtime.register(hard);

    // Cheap exact probability requests classify into the fast lane;
    // the mixed kinds and the estimate traffic ride the slow lane.
    let fast: Vec<Request> = (0..40)
        .map(|_| {
            let q = generate::planted_path_query(h.graph(), rng.gen_range(1..4), &mut rng)
                .unwrap_or_else(|| generate::one_way_path(2, 2, &mut rng));
            let r = Request::probability(q);
            assert_eq!(r.lane(SolverOptions::default()), Lane::Fast);
            r
        })
        .collect();
    let mixed: Vec<Request> = (0..20).map(|_| random_request(&h, &mut rng)).collect();
    let fast_expect = oracle.submit(&fast);
    let mixed_expect = oracle.submit(&mixed);

    // Distinct sample budgets keep every estimate request a distinct
    // cache key — each one really samples.
    let sampling: Vec<Request> = (0..24)
        .map(|i| {
            let r = Request::probability(Graph::one_way_path(&[Label(0)]))
                .on_hard(OnHard::Estimate)
                .budget(Budget::unlimited().with_samples(5_000 + i));
            assert_eq!(r.lane(SolverOptions::default()), Lane::Slow);
            r
        })
        .collect();

    // Interleave: sampling load first and between the exact requests,
    // so exact ticks flush while the slow lane is busy.
    let sampling_tickets: Vec<Ticket> = sampling
        .iter()
        .map(|r| runtime.enqueue_to(v_hard, r.clone()).expect("admitted"))
        .collect();
    let fast_tickets: Vec<Ticket> = fast
        .iter()
        .map(|r| runtime.enqueue_to(v_exact, r.clone()).expect("admitted"))
        .collect();
    let mixed_tickets: Vec<Ticket> = mixed
        .iter()
        .map(|r| runtime.enqueue_to(v_exact, r.clone()).expect("admitted"))
        .collect();

    for (i, (ticket, want)) in fast_tickets.iter().zip(&fast_expect).enumerate() {
        assert_same(&ticket.wait(), want, &format!("fast-lane request {i}"));
    }
    for (i, (ticket, want)) in mixed_tickets.iter().zip(&mixed_expect).enumerate() {
        assert_same(&ticket.wait(), want, &format!("mixed request {i}"));
    }
    for (i, ticket) in sampling_tickets.iter().enumerate() {
        let Ok(Response::Estimate {
            lo, hi, samples, ..
        }) = ticket.wait()
        else {
            panic!("sampling request {i} did not answer an estimate");
        };
        assert!(lo <= hi, "sampling request {i}");
        assert_eq!(samples, 5_000 + i as u64, "sampling request {i}");
    }

    let stats = runtime.shutdown();
    assert_eq!(stats.open_tickets(), 0, "{stats:?}");
    assert!(stats.fast_lane_total >= 40, "{stats:?}");
    assert!(stats.slow_lane_total >= 24, "{stats:?}");
    assert!(stats.estimates > 0, "{stats:?}");
    assert_eq!(
        stats.shed_expired, 0,
        "nothing carried a deadline: {stats:?}"
    );
}

/// An admission call whose every request is already cached runs its
/// tick on the admitting thread: every ticket is resolved before
/// `enqueue_batch_to` returns — even while the pool is held busy — and
/// the tick, its requests and its cache hits each count exactly once
/// (the admission probe counts no hit of its own).
#[test]
fn an_all_hit_admission_call_resolves_on_the_admitting_thread() {
    let h = ProbGraph::new(Graph::directed_path(4), vec![Rational::from_ratio(1, 2); 4]);
    let requests: Vec<Request> = (1..=3)
        .map(|m| Request::probability(Graph::directed_path(m)))
        .collect();
    let want = Engine::new(h.clone()).submit(&requests);
    let runtime = Runtime::builder()
        .max_batch(10_000)
        .max_wait(Duration::from_secs(600))
        .workers(1)
        .build();
    let v = runtime.register(h);
    for ticket in runtime.enqueue_batch_to(v, requests.clone()) {
        ticket.expect("admitted").wait().expect("answered");
    }
    let engine = runtime.engine(v).expect("registered");
    assert!(engine.answers_cached(&requests));
    let hold = PoolHold::engage(&runtime, Lane::Fast);
    let before = runtime.stats();
    let hits_before = engine.cache_stats().hits;
    let traced: Vec<Request> = requests
        .iter()
        .enumerate()
        .map(|(i, r)| r.clone().trace(0xAD_0000 + i as u64))
        .collect();
    let tickets = runtime.enqueue_batch_to(v, traced);
    for (i, (ticket, want)) in tickets.iter().zip(&want).enumerate() {
        let ticket = ticket.as_ref().expect("admitted");
        let answer = ticket
            .try_get()
            .unwrap_or_else(|| panic!("request {i} unresolved at return"));
        assert_same(&answer, want, &format!("request {i}"));
        let stages: Vec<Stage> = runtime
            .spans_for(0xAD_0000 + i as u64)
            .iter()
            .map(|s| s.stage)
            .collect();
        assert_eq!(
            stages,
            [
                Stage::Admitted,
                Stage::Queued,
                Stage::Planned,
                Stage::Evaluated,
                Stage::Encoded
            ],
            "request {i}"
        );
    }
    let after = runtime.stats();
    assert_eq!(after.ticks, before.ticks + 1, "{after:?}");
    assert_eq!(after.admitted, before.admitted + 3, "{after:?}");
    assert_eq!(after.completed, before.completed + 3, "{after:?}");
    assert_eq!(after.batch_cache_hits, before.batch_cache_hits + 3);
    assert_eq!(engine.cache_stats().hits, hits_before + 3);
    assert_eq!(after.queue_depth, 0);
    hold.release();
    let stats = runtime.shutdown();
    assert_eq!(stats.total_tick_requests, stats.admitted, "{stats:?}");
    assert_eq!(stats.open_tickets(), 0, "{stats:?}");
}

/// One miss sends the whole call through the batcher: with the fast
/// lane held busy and ten minutes of patience, none of its requests —
/// the cached ones included — answers before the hold is released.
#[test]
fn an_admission_call_with_one_miss_goes_through_the_batcher() {
    let h = ProbGraph::new(Graph::directed_path(4), vec![Rational::from_ratio(1, 2); 4]);
    let requests: Vec<Request> = (1..=3)
        .map(|m| Request::probability(Graph::directed_path(m)))
        .collect();
    let want = Engine::new(h.clone()).submit(&requests);
    let runtime = Runtime::builder()
        .max_batch(10_000)
        .max_wait(Duration::from_secs(600))
        .workers(1)
        .build();
    let v = runtime.register(h);
    for ticket in runtime.enqueue_batch_to(v, requests[..2].to_vec()) {
        ticket.expect("admitted").wait().expect("answered");
    }
    let hold = PoolHold::engage(&runtime, Lane::Fast);
    let before = runtime.stats();
    let tickets: Vec<Ticket> = runtime
        .enqueue_batch_to(v, requests.clone())
        .into_iter()
        .map(|t| t.expect("admitted"))
        .collect();
    assert_eq!(runtime.stats().queue_depth, 3);
    for (i, ticket) in tickets.iter().enumerate() {
        assert!(
            ticket.try_get().is_none(),
            "request {i} answered while held"
        );
    }
    hold.release();
    for (i, (ticket, want)) in tickets.iter().zip(&want).enumerate() {
        let answer = ticket
            .wait_timeout(Duration::from_secs(5))
            .unwrap_or_else(|| panic!("request {i}: the freed pool must flush the queue"));
        assert_same(&answer, want, &format!("request {i}"));
    }
    let stats = runtime.shutdown();
    assert_eq!(stats.ticks, before.ticks + 1, "one batcher tick: {stats:?}");
    assert_eq!(stats.max_tick_requests, 3, "{stats:?}");
}

/// Shutdowns racing admission ticks: producers hammer cached requests
/// while the runtime drains. Once `drain` returns, every ticket handed
/// out is resolved, no admission slips in afterwards, and the books
/// balance with no ticket open.
#[test]
fn drains_racing_admission_ticks_leave_balanced_books() {
    use std::sync::{mpsc, Arc};
    let h = ProbGraph::new(Graph::directed_path(3), vec![Rational::from_ratio(1, 2); 3]);
    let request = Request::probability(Graph::directed_path(2));
    for round in 0..100u64 {
        let runtime = Arc::new(Runtime::builder().workers(1).build());
        let v = runtime.register(h.clone());
        runtime
            .enqueue_to(v, request.clone())
            .unwrap()
            .wait()
            .unwrap();
        // Producers report each admitted batch; the drain starts after
        // the third, so it lands among admissions in flight.
        let (started_tx, started) = mpsc::channel::<()>();
        let producers: Vec<_> = (0..3)
            .map(|p| {
                let runtime = Arc::clone(&runtime);
                let request = request.clone();
                let started_tx = started_tx.clone();
                std::thread::spawn(move || {
                    let mut tickets = Vec::new();
                    loop {
                        let batch = vec![request.clone(); 1 + (p as usize)];
                        for outcome in runtime.enqueue_batch_to(v, batch) {
                            match outcome {
                                Ok(ticket) => tickets.push(ticket),
                                Err(SolveError::Cancelled) => return tickets,
                                Err(e) => panic!("unexpected refusal {e:?}"),
                            }
                        }
                        let _ = started_tx.send(());
                    }
                })
            })
            .collect();
        for _ in 0..3 {
            started.recv().expect("a producer admitted");
        }
        runtime.drain();
        let at_drain = runtime.stats();
        let tickets: Vec<Ticket> = producers
            .into_iter()
            .flat_map(|p| p.join().expect("producer"))
            .collect();
        for (i, ticket) in tickets.iter().enumerate() {
            assert!(
                ticket.is_done(),
                "round {round}: ticket {i} open after drain"
            );
        }
        let runtime = Arc::try_unwrap(runtime).ok().expect("producers joined");
        let stats = runtime.shutdown();
        assert_eq!(stats.admitted, at_drain.admitted, "round {round}");
        assert_eq!(stats.admitted, tickets.len() as u64 + 1, "round {round}");
        assert_eq!(
            stats.admitted,
            stats.completed + stats.cancelled + stats.shed_expired,
            "round {round}: {stats:?}"
        );
        assert_eq!(stats.open_tickets(), 0, "round {round}");
        assert_eq!(stats.total_tick_requests, stats.admitted, "round {round}");
    }
}

/// Record before fulfill: an `on_complete` callback that reads the
/// runtime's stats and spans finds its own request counted — on a
/// worker finishing a batcher tick and on the admitting thread
/// finishing an admission tick alike.
#[test]
fn a_completion_callback_sees_its_own_request_counted() {
    use std::sync::{mpsc, Arc};
    let runtime = Arc::new(Runtime::builder().workers(1).build());
    let v = runtime.register(ProbGraph::new(
        Graph::directed_path(24),
        vec![Rational::from_ratio(1, 2); 24],
    ));
    // What the callback saw: its thread, then the completed count, the
    // fast-lane latency records and its own trace's stages.
    type Seen = (Option<String>, u64, u64, Vec<Stage>);
    let observe = |request: Request, trace: u64| -> Seen {
        let ticket = runtime
            .enqueue_to(v, request.trace(trace))
            .expect("admitted");
        let (tx, rx) = mpsc::channel::<Seen>();
        let rt = Arc::clone(&runtime);
        ticket.on_complete(move |_| {
            let stats = rt.stats();
            let stages = rt.spans_for(trace).iter().map(|s| s.stage).collect();
            let thread = std::thread::current().name().map(String::from);
            let _ = tx.send((
                thread,
                stats.completed,
                stats.request_ns_fast.count(),
                stages,
            ));
        });
        rx.recv().expect("the callback fired")
    };
    let all_stages = vec![
        Stage::Admitted,
        Stage::Queued,
        Stage::Planned,
        Stage::Evaluated,
        Stage::Encoded,
    ];
    // Batcher ticks: uncached queries, until one callback runs on the
    // worker (a request may answer before its callback is registered).
    let mut on_worker = false;
    let mut completed = 0;
    for len in 1..=24 {
        let seen = observe(Request::probability(Graph::directed_path(len)), len as u64);
        completed += 1;
        assert_eq!(seen.1, completed, "batcher tick {len}: {seen:?}");
        assert_eq!(seen.2, completed, "batcher tick {len}: {seen:?}");
        assert_eq!(seen.3, all_stages, "batcher tick {len}");
        if seen
            .0
            .as_deref()
            .is_some_and(|n| n.starts_with("phom-serve-worker"))
        {
            on_worker = true;
            break;
        }
    }
    assert!(on_worker, "no callback ran on a worker");
    // An admission tick: the query is cached now, so the tick and the
    // callback both run on this thread.
    let seen = observe(Request::probability(Graph::directed_path(1)), 0xA11);
    assert_eq!(seen.0, std::thread::current().name().map(String::from));
    assert_eq!(seen.1, completed + 1, "{seen:?}");
    assert_eq!(seen.2, completed + 1, "{seen:?}");
    assert_eq!(seen.3, all_stages);
}
