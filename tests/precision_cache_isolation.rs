//! Precision tiers must never share cached answers: a `Float` answer is
//! never served to an `Exact` request and vice versa — the precision
//! (including the tolerance bits) is part of the cache key. Pinned at
//! every caching layer: a single `Engine`, one `CacheHandle` shared by a
//! fleet of engines, and the wire protocol's `submit` path through a
//! shared `Runtime`.

use phom::net::wire::WireRequest;
use phom::net::{Client, Server};
use phom::prelude::*;
use std::sync::Arc;
use std::time::Duration;

/// A fixed R·S instance: Pr(R·S) = 1/2 · 3/4 = 3/8 = 0.375.
fn instance() -> ProbGraph {
    let mut b = GraphBuilder::with_vertices(3);
    b.edge(0, 1, Label(0));
    b.edge(1, 2, Label(1));
    ProbGraph::new(
        b.build(),
        vec![Rational::from_ratio(1, 2), Rational::from_ratio(3, 4)],
    )
}

fn query() -> Graph {
    Graph::one_way_path(&[Label(0), Label(1)])
}

const FLOAT: Precision = Precision::Float { max_rel_err: 1e-6 };

fn is_exact_3_8(r: &Result<Response, SolveError>) -> bool {
    matches!(r, Ok(Response::Probability(sol)) if sol.probability == Rational::from_ratio(3, 8))
}

fn is_approx_3_8(r: &Result<Response, SolveError>) -> bool {
    matches!(r, Ok(Response::Approximate { value, .. }) if (value - 0.375).abs() < 1e-9)
}

/// One engine: warm the cache with one tier, then ask with the other —
/// the cached answer must not cross over, in either order.
#[test]
fn engine_cache_never_crosses_precision_tiers() {
    // Exact first, float second.
    let engine = Engine::new(instance());
    let exact = engine.submit(&[Request::probability(query())]);
    assert!(is_exact_3_8(&exact[0]), "{:?}", exact[0]);
    let float = engine.submit(&[Request::probability(query()).precision(FLOAT)]);
    assert!(
        is_approx_3_8(&float[0]),
        "exact leaked into float: {:?}",
        float[0]
    );
    // The cross-tier probe was a miss, not a hit.
    assert_eq!(engine.cache_stats().hits, 0);

    // Float first, exact second (a fresh engine, fresh cache).
    let engine = Engine::new(instance());
    let float = engine.submit(&[Request::probability(query()).precision(FLOAT)]);
    assert!(is_approx_3_8(&float[0]), "{:?}", float[0]);
    let exact = engine.submit(&[Request::probability(query())]);
    assert!(
        is_exact_3_8(&exact[0]),
        "float leaked into exact: {:?}",
        exact[0]
    );
    assert_eq!(engine.cache_stats().hits, 0);

    // Same tier, same tolerance: that IS a cache hit — float answers are
    // cached, just never across tiers.
    let again = engine.submit(&[Request::probability(query()).precision(FLOAT)]);
    assert!(is_approx_3_8(&again[0]), "{:?}", again[0]);
    assert_eq!(engine.cache_stats().hits, 1);

    // A different tolerance is a different key even within the tier.
    let tighter = engine.submit(&[
        Request::probability(query()).precision(Precision::Float { max_rel_err: 1e-12 })
    ]);
    assert!(is_approx_3_8(&tighter[0]), "{:?}", tighter[0]);
    assert_eq!(engine.cache_stats().hits, 1);

    // Auto within tolerance serves float — under its own key, not the
    // Float tier's.
    let auto = engine
        .submit(&[Request::probability(query()).precision(Precision::Auto { max_rel_err: 1e-6 })]);
    assert!(is_approx_3_8(&auto[0]), "{:?}", auto[0]);
    assert_eq!(engine.cache_stats().hits, 1);
}

/// A fleet's shared cache — two instance versions, each served by an
/// engine built on one `CacheHandle`: the same (version, query) under
/// different tiers stays isolated, across both versions.
#[test]
fn fleet_shared_cache_never_crosses_precision_tiers() {
    let cache = CacheHandle::with_capacity(256);
    let on_cache = |h: ProbGraph| Engine::builder().shared_cache(cache.clone()).build(h);
    let v1 = on_cache(instance());
    let v2 = on_cache({
        let h = instance();
        let mut probs = h.probs().to_vec();
        probs[0] = Rational::one(); // Pr becomes 3/4
        ProbGraph::new(h.graph().clone(), probs)
    });

    // Warm both versions with exact answers.
    let a1 = v1.submit(&[Request::probability(query())]);
    assert!(is_exact_3_8(&a1[0]), "{:?}", a1[0]);
    let a2 = v2.submit(&[Request::probability(query())]);
    assert!(
        matches!(&a2[0], Ok(Response::Probability(sol))
            if sol.probability == Rational::from_ratio(3, 4)),
        "{:?}",
        a2[0]
    );
    let warm_hits = cache.stats().hits;

    // Float requests against the warmed shared cache: fresh float
    // answers, no cross-tier hits.
    let f1 = v1.submit(&[Request::probability(query()).precision(FLOAT)]);
    assert!(
        is_approx_3_8(&f1[0]),
        "exact leaked through the fleet: {:?}",
        f1[0]
    );
    let f2 = v2.submit(&[Request::probability(query()).precision(FLOAT)]);
    assert!(
        matches!(&f2[0], Ok(Response::Approximate { value, .. })
            if (value - 0.75).abs() < 1e-9),
        "{:?}",
        f2[0]
    );
    assert_eq!(cache.stats().hits, warm_hits);

    // And back: exact requests still answer exactly off their own keys.
    let e1 = v1.submit(&[Request::probability(query())]);
    assert!(
        is_exact_3_8(&e1[0]),
        "float leaked through the fleet: {:?}",
        e1[0]
    );
    assert_eq!(cache.stats().hits, warm_hits + 1); // the exact key, warmed above

    // Same-tier float repeat: a shared-cache hit.
    let f1_again = v1.submit(&[Request::probability(query()).precision(FLOAT)]);
    assert!(is_approx_3_8(&f1_again[0]), "{:?}", f1_again[0]);
    assert_eq!(cache.stats().hits, warm_hits + 2);
}

/// The wire path: one runtime, one TCP server, interleaved exact and
/// float submits for the same query — every response typed per its own
/// request's tier, never the other's cached answer.
#[test]
fn wire_submits_never_cross_precision_tiers() {
    let runtime = Arc::new(
        Runtime::builder()
            .max_batch(4)
            .max_wait(Duration::from_millis(1))
            .workers(2)
            .build(),
    );
    let server = Server::bind("127.0.0.1:0", Arc::clone(&runtime)).expect("bind loopback");
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let version = client.register(&instance()).expect("register");

    let exact_req = WireRequest::probability(query());
    let float_req = WireRequest::probability(query()).with_precision(FLOAT);

    // Interleave the tiers; repeats within a tier may hit the cache, but
    // the result type (exact rational vs approximate float) must follow
    // the request, not the cache's history.
    for round in 0..3 {
        let te = client.submit(version, &exact_req).expect("submit exact");
        let tf = client.submit(version, &float_req).expect("submit float");
        let exact = client.wait(te).expect("exact answer").to_string();
        let float = client.wait(tf).expect("float answer").to_string();
        assert!(
            exact.contains("\"p\":\"3/8\""),
            "round {round}: float leaked onto the exact wire path: {exact}"
        );
        assert!(
            float.contains("\"type\":\"approximate\"") && float.contains("\"p\":\"0.375\""),
            "round {round}: exact leaked onto the float wire path: {float}"
        );
        assert!(
            float.contains("\"rel_err\":"),
            "round {round}: approximate result lost its bound: {float}"
        );
    }
    server.shutdown(Duration::from_secs(2));
}
