//! Regression (ISSUE 4 satellite): a panic inside a batch worker must
//! not propagate to the caller or poison the engine. `Engine::submit`
//! historically joined its scoped shards with
//! `.expect("batch shard panicked")`, so one panicking plan took the
//! whole serving process down. Now every work unit is guarded: the
//! affected requests answer `Err(SolveError::Internal)`, nothing is
//! cached for the failed attempt, and the engine — and the
//! `phom_serve::Runtime` above it — keep serving.
//!
//! The panic is injected through `phom_core::engine::test_support`
//! (a process-global flag), so this suite lives in its own integration
//! test binary and runs its scenarios inside one `#[test]` — no other
//! test can observe the flag.

use phom::prelude::*;
use phom_core::engine::test_support;
use std::time::Duration;

fn instance() -> ProbGraph {
    let (r, s) = (Label(0), Label(1));
    let mut b = GraphBuilder::with_vertices(4);
    b.edge(0, 1, r);
    b.edge(1, 2, s);
    b.edge(2, 3, r);
    ProbGraph::new(
        b.build(),
        vec![
            Rational::from_ratio(1, 2),
            Rational::from_ratio(3, 4),
            Rational::from_ratio(1, 2),
        ],
    )
}

fn mixed_requests() -> Vec<Request> {
    let (r, s) = (Label(0), Label(1));
    vec![
        Request::probability(Graph::one_way_path(&[r, s])),
        Request::probability(Graph::one_way_path(&[r])),
        Request::probability(Graph::one_way_path(&[r, s])).sensitivity(),
        Request::ucq(Ucq::new(vec![
            Graph::one_way_path(&[r]),
            Graph::one_way_path(&[s]),
        ])),
    ]
}

#[test]
fn worker_panics_recover_into_per_request_errors() {
    let h = instance();
    let requests = mixed_requests();

    // --- Engine::submit: every unit on the calling thread. -----------
    let engine = Engine::new(h.clone());
    test_support::inject_unit_panic(true);
    let poisoned = engine.submit(&requests);
    test_support::inject_unit_panic(false);
    assert_eq!(poisoned.len(), requests.len());
    for (i, answer) in poisoned.iter().enumerate() {
        match answer {
            Err(SolveError::Internal(msg)) => {
                assert!(msg.contains("injected"), "request {i}: {msg}")
            }
            other => panic!("request {i}: wanted Internal, got {other:?}"),
        }
    }
    // Nothing from the failed attempt was cached...
    assert_eq!(engine.cache_stats().entries, 0, "panics are never cached");
    // ...and the engine stays serviceable: a retry answers correctly
    // and matches a fresh engine bit for bit.
    let healthy = engine.submit(&requests);
    let oracle = Engine::new(h.clone()).submit(&requests);
    for (i, (a, b)) in healthy.iter().zip(&oracle).enumerate() {
        match (a, b) {
            (Ok(Response::Probability(x)), Ok(Response::Probability(y))) => {
                assert_eq!(x.probability, y.probability, "request {i}")
            }
            (
                Ok(Response::Sensitivity { influences: x, .. }),
                Ok(Response::Sensitivity { influences: y, .. }),
            ) => {
                assert_eq!(x, y, "request {i}")
            }
            (
                Ok(Response::Ucq { probability: x, .. }),
                Ok(Response::Ucq { probability: y, .. }),
            ) => {
                assert_eq!(x, y, "request {i}")
            }
            (a, b) => panic!("request {i}: {a:?} vs {b:?}"),
        }
    }
    assert!(
        engine.cache_stats().entries > 0,
        "recovery refills the cache"
    );

    // --- Engine::solve: the single-query convenience. ----------------
    // (An *uncached* query: a cache hit would rightly bypass the
    // panicking unit — hits are answered during planning.)
    test_support::inject_unit_panic(true);
    let err = engine
        .solve(&Graph::one_way_path(&[Label(1), Label(0)]))
        .unwrap_err();
    test_support::inject_unit_panic(false);
    assert!(matches!(err, SolveError::Internal(_)), "{err:?}");
    // A cached query, by contrast, still answers mid-outage.
    test_support::inject_unit_panic(true);
    let hot = engine.solve(&Graph::one_way_path(&[Label(0)]));
    test_support::inject_unit_panic(false);
    assert!(hot.is_ok(), "cache hits survive a worker outage: {hot:?}");

    // --- The runtime: persistent workers survive panicking units. ----
    let runtime = Runtime::builder()
        .max_batch(4)
        .max_wait(Duration::from_millis(1))
        .workers(2)
        .build();
    runtime.register(h);
    test_support::inject_unit_panic(true);
    let tickets: Vec<Ticket> = requests
        .iter()
        .map(|r| runtime.enqueue(r.clone()).expect("admitted"))
        .collect();
    for (i, ticket) in tickets.iter().enumerate() {
        match ticket.wait() {
            Err(SolveError::Internal(msg)) => {
                assert!(msg.contains("injected"), "ticket {i}: {msg}")
            }
            other => panic!("ticket {i}: wanted Internal, got {other:?}"),
        }
    }
    test_support::inject_unit_panic(false);
    // The pool threads are still alive and serving — no respawn, no
    // poisoned queue.
    let retry: Vec<Ticket> = requests
        .iter()
        .map(|r| runtime.enqueue(r.clone()).expect("admitted"))
        .collect();
    for (i, (ticket, want)) in retry.iter().zip(&oracle).enumerate() {
        let got = ticket.wait();
        match (&got, want) {
            (Ok(_), Ok(_)) => {}
            (a, b) => panic!("ticket {i} after recovery: {a:?} vs {b:?}"),
        }
    }
    let stats = runtime.shutdown();
    assert_eq!(stats.workers_started, 2, "no worker ever respawned");
    assert_eq!(stats.completed, (requests.len() * 2) as u64);
}
