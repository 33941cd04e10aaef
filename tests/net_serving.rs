//! The network front end's differential acceptance suite: random mixed
//! workloads sent over **loopback TCP** must come back **bit-identical**
//! to in-process `Engine::submit` oracle answers — compared as the
//! canonical wire encoding, byte for byte — across
//! `max_batch`/`max_wait`/`workers` settings, and with cross-shard arena
//! sharing forced on and off.
//! Protocol-level behavior (typed `overloaded` backpressure frames,
//! error frames for malformed input, cancel/stats/register ops) is
//! pinned here too.

mod support;

use phom::net::wire::{encode_result, WireBudget, WireFallback, WireRequest};
use phom::net::{Client, Json, NetError, Server};
use phom::prelude::*;
use phom_graph::generate::{self, ProbProfile};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::Duration;
use support::PoolHold;

/// A random instance spanning the tables' columns (kept small: the
/// sensitivity-by-conditioning oracle is quadratic in the edges).
fn random_instance(rng: &mut SmallRng, profile: ProbProfile) -> ProbGraph {
    let g = match rng.gen_range(0..4) {
        0 => generate::two_way_path(rng.gen_range(2..9), 2, rng),
        1 => generate::downward_tree(rng.gen_range(2..9), 2, rng),
        2 => generate::polytree(rng.gen_range(3..9), 1, rng),
        _ => generate::two_way_path(rng.gen_range(2..7), 1, rng),
    };
    generate::with_probabilities(g, profile, rng)
}

/// A random wire request mixing every kind the protocol carries.
fn random_request(h: &ProbGraph, rng: &mut SmallRng) -> WireRequest {
    let query = match rng.gen_range(0..4) {
        0 => Graph::directed_path(rng.gen_range(0..3)),
        1 => generate::one_way_path(rng.gen_range(1..4), 2, rng),
        2 => generate::planted_path_query(h.graph(), rng.gen_range(1..4), rng)
            .unwrap_or_else(|| generate::one_way_path(2, 2, rng)),
        _ => generate::two_way_path(rng.gen_range(1..4), 1, rng),
    };
    match rng.gen_range(0..8) {
        0 => WireRequest::counting(query),
        1 => WireRequest::sensitivity(query),
        2 => WireRequest::ucq(vec![query, Graph::directed_path(1)]),
        3 => WireRequest::probability(query).with_provenance(),
        4 => WireRequest::probability(query)
            .with_fallback(WireFallback::BruteForce { max_uncertain: 10 }),
        _ => WireRequest::probability(query),
    }
}

/// The headline acceptance test: for every knob combination, answers
/// polled off the wire are byte-identical (canonical encoding) to the
/// oracle's `Engine::submit` answers for the *same* requests.
#[test]
fn wire_answers_are_bit_identical_to_engine_submit() {
    let mut rng = SmallRng::seed_from_u64(0x2E7D1FF);
    // (max_batch, max_wait_ms, workers, share_arena_at)
    let knobs = [
        (1usize, 0u64, 1usize, None),
        (8, 1, 2, Some(1)), // sharing forced on every tick
        (32, 2, 4, Some(4)),
        (4, 0, 3, None),
        (64, 5, 2, Some(32)),
    ];
    for (trial, &(max_batch, max_wait_ms, workers, share)) in knobs.iter().enumerate() {
        let profile = if trial % 2 == 0 {
            ProbProfile::half()
        } else {
            ProbProfile::default()
        };
        let h = random_instance(&mut rng, profile);
        let requests: Vec<WireRequest> = (0..rng.gen_range(8..20))
            .map(|_| random_request(&h, &mut rng))
            .collect();
        // The in-process oracle, on the same requests.
        let oracle = Engine::new(h.clone());
        let expect: Vec<String> = {
            let reqs: Vec<Request> = requests.iter().map(WireRequest::to_request).collect();
            oracle
                .submit(&reqs)
                .iter()
                .map(|r| encode_result(r).to_string())
                .collect()
        };
        // The served path: runtime + TCP server + client over loopback.
        let runtime = Arc::new(
            Runtime::builder()
                .max_batch(max_batch)
                .max_wait(Duration::from_millis(max_wait_ms))
                .workers(workers)
                .share_arena_at(share)
                .build(),
        );
        let server = Server::bind("127.0.0.1:0", Arc::clone(&runtime)).expect("bind loopback");
        let mut client = Client::connect(server.local_addr()).expect("connect");
        let version = client.register(&h).expect("register over the wire");
        let tickets: Vec<u64> = requests
            .iter()
            .map(|r| client.submit(version, r).expect("under queue_cap"))
            .collect();
        for (i, (ticket, want)) in tickets.iter().zip(&expect).enumerate() {
            let got = client.wait(*ticket).expect("answer").to_string();
            assert_eq!(
                &got, want,
                "trial {trial} (b={max_batch}, w={max_wait_ms}ms, k={workers}, \
                 share={share:?}), request {i}"
            );
        }
        // Sharing actually engaged where the knob forces it and the
        // instance is connected (per-shard path otherwise) — and the
        // answers above were identical either way.
        let stats = runtime.stats();
        if share == Some(1) && phom::graph::classify(h.graph()).is_connected() {
            assert!(
                stats.circuit_batched == 0 || stats.shared_arena_ticks > 0,
                "trial {trial}: {stats:?}"
            );
        }
        server.shutdown(Duration::from_secs(2));
    }
}

/// Backpressure over the wire: a full ingress queue answers a typed
/// `overloaded` error frame carrying the configured capacity — the
/// client-visible form of `SolveError::Overloaded` — and every admitted
/// ticket still answers.
#[test]
fn overload_surfaces_as_typed_error_frames() {
    let h = ProbGraph::new(
        Graph::directed_path(2),
        vec![Rational::from_ratio(1, 2), Rational::from_ratio(1, 2)],
    );
    // A held pool + huge batch bound + 2 s of patience: the queue stays
    // full for the whole submit loop, so admission control is what the
    // wire observes — then the timer flush answers the admitted three
    // on the worker the hold leaves free.
    let runtime = Arc::new(
        Runtime::builder()
            .max_batch(10_000)
            .max_wait(Duration::from_secs(2))
            .queue_cap(3)
            .workers(2)
            .build(),
    );
    let server = Server::bind("127.0.0.1:0", Arc::clone(&runtime)).expect("bind");
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let version = client.register(&h).expect("register");
    let hold = PoolHold::engage(&runtime, Lane::Fast);
    let held = hold.requests();
    let request = WireRequest::probability(Graph::directed_path(1));
    let mut admitted = Vec::new();
    let mut overloaded = 0;
    for _ in 0..10 {
        match client.submit(version, &request) {
            Ok(ticket) => admitted.push(ticket),
            Err(e) => {
                assert!(e.is_overloaded(), "{e}");
                let NetError::Server { capacity, .. } = &e else {
                    panic!("{e}")
                };
                assert_eq!(*capacity, Some(3), "the capacity travels in the frame");
                overloaded += 1;
            }
        }
    }
    assert_eq!(admitted.len(), 3, "exactly queue_cap admitted");
    assert_eq!(overloaded, 7);
    // Every admitted ticket still answers once the timer flush fires.
    for ticket in admitted {
        let answer = client.wait(ticket).expect("admitted requests answer");
        assert_eq!(answer.get("p").and_then(Json::as_str), Some("3/4"));
    }
    hold.release();
    let net = server.shutdown(Duration::from_secs(5));
    assert_eq!(net.open_tickets, 0, "no ticket leaks: {net:?}");
    assert_eq!(net.rejected_overloaded, 7, "{net:?}");
    let runtime = Arc::try_unwrap(runtime).unwrap_or_else(|_| panic!("runtime still shared"));
    let stats = runtime.shutdown();
    assert_eq!(stats.rejected, 7, "{stats:?}");
    assert_eq!(stats.completed, 3 + held, "{stats:?}");
}

/// Hostile-input hardening: frames that used to reach panicking or
/// unbounded code paths (absurd vertex counts, empty vertex sets,
/// duplicate edges, pathological nesting, oversized frames, non-finite
/// numbers) must come back as typed error frames on a connection that
/// stays aligned and serviceable — never a panicked reader thread, an
/// unbounded allocation, or a desynced stream.
#[test]
fn hostile_frames_get_typed_errors_not_panics() {
    let h = ProbGraph::new(Graph::directed_path(1), vec![Rational::from_ratio(1, 2)]);
    let runtime = Arc::new(Runtime::builder().max_batch(4).workers(1).build());
    let server = Server::bind("127.0.0.1:0", Arc::clone(&runtime)).expect("bind");
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let version = client.register(&h).expect("register");

    let bad_request = |client: &mut Client, frame: Json| {
        let reply = client
            .call_raw(frame)
            .expect("typed reply, not a dead conn");
        let code = reply
            .get("err")
            .and_then(|e| e.get("code"))
            .and_then(Json::as_str)
            .unwrap_or_else(|| panic!("expected an error frame: {reply}"))
            .to_string();
        code
    };
    let instance_frame =
        |graph: Json| Json::obj(vec![("op", Json::str("register")), ("instance", graph)]);
    // A 60-byte frame must not be able to commission a 2^53-slot
    // allocation (or any vertex set beyond the wire bound).
    let code = bad_request(
        &mut client,
        instance_frame(Json::obj(vec![
            ("vertices", Json::Num(9_007_199_254_740_992.0)),
            ("edges", Json::Arr(vec![])),
        ])),
    );
    assert_eq!(code, "bad_request");
    // The empty vertex set and the duplicate ordered pair both panic in
    // GraphBuilder; the wire must reject them first.
    for graph in [
        Json::obj(vec![
            ("vertices", Json::u64(0)),
            ("edges", Json::Arr(vec![])),
        ]),
        Json::obj(vec![
            ("vertices", Json::u64(2)),
            (
                "edges",
                Json::Arr(vec![
                    Json::Arr(vec![Json::u64(0), Json::u64(1), Json::u64(0)]),
                    Json::Arr(vec![Json::u64(0), Json::u64(1), Json::u64(1)]),
                ]),
            ),
        ]),
    ] {
        assert_eq!(
            bad_request(&mut client, instance_frame(graph)),
            "bad_request"
        );
    }
    // Pathological nesting is a parse error (bounded recursion), and a
    // non-finite numeric literal is rejected rather than round-tripped
    // into invalid JSON.
    for (raw, want) in [
        (
            format!("{}1{}", "[".repeat(50_000), "]".repeat(50_000)),
            "bad_frame",
        ),
        ("{\"op\":\"ping\",\"id\":1e999}".to_string(), "bad_frame"),
    ] {
        let reply = client.call_frame_raw(raw.as_bytes()).expect("typed reply");
        let code = reply
            .get("err")
            .and_then(|e| e.get("code"))
            .and_then(Json::as_str);
        assert_eq!(code, Some(want), "{raw:.60}: {reply}");
    }
    // An oversized frame is discarded without buffering and the stream
    // stays aligned: the next op on the same connection still works.
    let mut tiny = Client::connect(server.local_addr()).expect("connect");
    let huge = "x".repeat(9 << 20); // > the 8 MiB default bound
    let reply = tiny
        .call_frame_raw(format!("\"{huge}\"").as_bytes())
        .expect("typed reply");
    assert_eq!(
        reply
            .get("err")
            .and_then(|e| e.get("code"))
            .and_then(Json::as_str),
        Some("bad_frame"),
        "{reply}"
    );
    tiny.ping()
        .expect("connection survived the oversized frame");
    // And the original connection still serves real work.
    let ticket = client
        .submit(version, &WireRequest::probability(Graph::directed_path(1)))
        .expect("submit after hostile frames");
    let answer = client.wait(ticket).expect("answer");
    assert_eq!(answer.get("p").and_then(Json::as_str), Some("1/2"));
    server.shutdown(Duration::from_secs(1));
}

/// Registering the same instance twice is idempotent and cheap: the
/// repeat ack carries the `registered: "cached"` marker, and a hinted
/// re-register short-circuits before the instance is even *decoded* —
/// a garbage instance under a known-good hint still acks cached. A
/// hint that contradicts the instance it travels with is a typed
/// `bad_request`, and deregister/versions round-trip over the wire.
#[test]
fn register_is_idempotent_and_hinted_fast_path_skips_decode() {
    use phom::net::wire::{encode_instance, encode_version};
    let h = ProbGraph::new(
        Graph::directed_path(2),
        vec![Rational::from_ratio(1, 2), Rational::from_ratio(1, 2)],
    );
    let other = ProbGraph::new(Graph::directed_path(1), vec![Rational::from_ratio(1, 3)]);
    let runtime = Arc::new(Runtime::builder().workers(1).build());
    let server = Server::bind("127.0.0.1:0", Arc::clone(&runtime)).expect("bind");
    let mut client = Client::connect(server.local_addr()).expect("connect");

    let marker = |reply: &Json| {
        reply
            .get("ok")
            .and_then(|ok| ok.get("registered"))
            .and_then(Json::as_str)
            .map(String::from)
    };
    let register_frame = |instance: Json, hint: Option<u64>| {
        let mut fields = vec![("op", Json::str("register")), ("instance", instance)];
        if let Some(v) = hint {
            fields.push(("version", encode_version(v)));
        }
        Json::obj(fields)
    };

    // Fresh, then repeat: the ack marker flips new → cached.
    let first = client
        .call_raw(register_frame(encode_instance(&h), None))
        .expect("register");
    assert_eq!(marker(&first).as_deref(), Some("new"), "{first}");
    let repeat = client
        .call_raw(register_frame(encode_instance(&h), None))
        .expect("re-register");
    assert_eq!(marker(&repeat).as_deref(), Some("cached"), "{repeat}");
    let v = client.register(&h).expect("register is stable");

    // The typed client surface reports the same marker.
    let (vh, cached) = client.register_hinted(&h, v).expect("hinted register");
    assert_eq!((vh, cached), (v, true));

    // The hinted fast path never decodes the payload: garbage under a
    // known-good hint still acks cached.
    let reply = client
        .call_raw(register_frame(Json::str("garbage"), Some(v)))
        .expect("hinted register");
    assert_eq!(marker(&reply).as_deref(), Some("cached"), "{reply}");

    // An *unregistered* hint contradicting the instance it travels
    // with is typed. (A registered hint deliberately skips the decode,
    // so the payload is never inspected on that path — above.)
    let fp = phom_core::instance_fingerprint(&other);
    let reply = client
        .call_raw(register_frame(encode_instance(&other), Some(fp ^ 1)))
        .expect("typed reply");
    assert_eq!(
        reply
            .get("err")
            .and_then(|e| e.get("code"))
            .and_then(Json::as_str),
        Some("bad_request"),
        "{reply}"
    );

    // A correct hint for a not-yet-registered version builds it.
    let (v2, cached) = client.register_hinted(&other, fp).expect("hinted build");
    assert_eq!((v2, cached), (fp, false));

    // deregister/versions round-trip: the version list shrinks and a
    // second deregister reports false.
    assert_eq!(
        client.versions().expect("versions"),
        vec![v.min(v2), v.max(v2)]
    );
    assert!(client.deregister(v2).expect("deregister"));
    assert!(!client.deregister(v2).expect("idempotent deregister"));
    assert_eq!(client.versions().expect("versions"), vec![v]);
    // The surviving version still answers.
    let t = client
        .submit(v, &WireRequest::probability(Graph::directed_path(1)))
        .expect("submit");
    assert_eq!(
        client
            .wait(t)
            .expect("answer")
            .get("p")
            .and_then(Json::as_str),
        Some("3/4")
    );
    server.shutdown(Duration::from_secs(1));
}

/// Protocol hygiene: malformed frames answer typed protocol errors
/// without desyncing the connection, unknown versions/tickets are typed
/// rejections, `cancel` works over the wire, `stats` reports both
/// layers, and `register`d versions route independently.
#[test]
fn protocol_errors_and_ops_are_typed() {
    let h1 = ProbGraph::new(
        Graph::directed_path(2),
        vec![Rational::from_ratio(1, 2), Rational::from_ratio(1, 2)],
    );
    let h2 = ProbGraph::new(
        Graph::directed_path(2),
        vec![Rational::one(), Rational::from_ratio(1, 2)],
    );
    let runtime = Arc::new(
        Runtime::builder()
            .max_batch(4)
            .max_wait(Duration::from_millis(1))
            .workers(2)
            .build(),
    );
    let server = Server::bind("127.0.0.1:0", Arc::clone(&runtime)).expect("bind");
    let mut client = Client::connect(server.local_addr()).expect("connect");
    client.ping().expect("ping");

    // Two versions, registered over the wire, routing independently.
    let v1 = client.register(&h1).expect("v1");
    let v2 = client.register(&h2).expect("v2");
    assert_ne!(v1, v2);
    let q = WireRequest::probability(Graph::directed_path(1));
    let t1 = client.submit(v1, &q).unwrap();
    let t2 = client.submit(v2, &q).unwrap();
    assert_eq!(
        client.wait(t1).unwrap().get("p").and_then(Json::as_str),
        Some("3/4")
    );
    assert_eq!(
        client.wait(t2).unwrap().get("p").and_then(Json::as_str),
        Some("1")
    );

    // A delivered ticket is gone (exactly-once delivery).
    match client.poll(t1, Duration::ZERO) {
        Err(NetError::Server { code, .. }) => assert_eq!(code, "unknown_ticket"),
        other => panic!("{other:?}"),
    }
    // Unknown version: the runtime's typed InvalidQuery crosses the wire.
    match client.submit(v1 ^ v2 ^ 1, &q) {
        Err(NetError::Server { code, .. }) => assert_eq!(code, "invalid_query"),
        other => panic!("{other:?}"),
    }
    // Unknown op and missing fields: bad_request.
    let reply = client
        .call_raw(Json::obj(vec![
            ("op", Json::str("frobnicate")),
            ("id", Json::u64(42)),
        ]))
        .unwrap();
    assert_eq!(reply.get("id").and_then(Json::as_u64), Some(42), "{reply}");
    assert_eq!(
        reply
            .get("err")
            .and_then(|e| e.get("code"))
            .and_then(Json::as_str),
        Some("bad_request"),
        "{reply}"
    );
    // A cancel on a parked request resolves it to the typed Cancelled
    // (parked behind a held pool and ten minutes of patience).
    let parked_runtime = Runtime::builder()
        .max_batch(10_000)
        .max_wait(Duration::from_secs(600))
        .workers(1)
        .build();
    let parked_runtime = Arc::new(parked_runtime);
    let parked_server =
        Server::bind("127.0.0.1:0", Arc::clone(&parked_runtime)).expect("bind parked");
    let mut parked_client = Client::connect(parked_server.local_addr()).expect("connect");
    let pv = parked_client.register(&h1).expect("register");
    let hold = PoolHold::engage(&parked_runtime, Lane::Fast);
    let pt = parked_client.submit(pv, &q).unwrap();
    assert!(parked_client.cancel(pt).expect("cancel"));
    let result = parked_client.wait(pt).expect("resolved");
    assert_eq!(
        result.get("code").and_then(Json::as_str),
        Some("cancelled"),
        "{result}"
    );
    hold.release();
    parked_server.shutdown(Duration::from_secs(1));

    // Stats carries both layers.
    let stats = client.stats().expect("stats");
    assert!(
        stats.get("ticks").and_then(Json::as_u64).unwrap() >= 1,
        "{stats}"
    );
    let net = stats.get("net").expect("net section");
    assert!(
        net.get("frames_in").and_then(Json::as_u64).unwrap() > 4,
        "{stats}"
    );
    assert_eq!(
        stats
            .get("tick_size_hist")
            .and_then(Json::as_arr)
            .map(<[Json]>::len),
        Some(phom_serve::TICK_HIST_BUCKETS),
        "{stats}"
    );
    server.shutdown(Duration::from_secs(1));
}

/// Backward compatibility of the tracing fields: a submit without a
/// `trace` field (an old client) is served normally and the ack carries
/// a freshly minted trace id; a request that does carry one gets it
/// echoed back verbatim and resolvable through the `trace` op; and the
/// encoder emits no `trace` key unless one was set, so pre-tracing
/// peers see byte-identical request frames.
#[test]
fn tracing_fields_are_optional_on_the_wire() {
    let h = ProbGraph::new(
        Graph::directed_path(2),
        vec![Rational::from_ratio(1, 2), Rational::from_ratio(1, 2)],
    );
    let runtime = Arc::new(
        Runtime::builder()
            .max_batch(4)
            .max_wait(Duration::from_millis(1))
            .workers(1)
            .build(),
    );
    let server = Server::bind("127.0.0.1:0", Arc::clone(&runtime)).expect("bind");
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let version = client.register(&h).expect("register");
    let q = WireRequest::probability(Graph::directed_path(1));
    // No trace set: the encoder emits no `trace` key at all (old peers
    // decode the exact frame they always did).
    assert!(!q.encode().to_string().contains("trace"), "{}", q.encode());
    // Old-style submit: answered normally, and the front door minted a
    // trace id into the ack.
    let (ticket, minted) = client.submit_traced(version, &q).expect("submit");
    let minted = minted.expect("ack carries a minted trace id");
    assert_ne!(minted, 0);
    assert_eq!(
        client.wait(ticket).unwrap().get("p").and_then(Json::as_str),
        Some("3/4")
    );
    // An explicit trace id round-trips: present in the encoding, echoed
    // in the ack, and resolvable through the `trace` op afterwards.
    let chosen = 0x00DD_BA11_CAFE_u64;
    let traced = q.clone().with_trace(chosen);
    assert!(traced.encode().to_string().contains("trace"));
    let (t2, echoed) = client
        .submit_traced(version, &traced)
        .expect("submit traced");
    assert_eq!(echoed, Some(chosen));
    client.wait(t2).expect("answered");
    // Spans are recorded before the answer is published: no wait.
    let requests = client.trace_spans(chosen).expect("trace op");
    assert_eq!(requests.len(), 1, "{requests:?}");
    assert_eq!(requests[0].trace, chosen, "{requests:?}");
    assert!(!requests[0].spans.is_empty(), "{requests:?}");
    // The minted id resolves the same way, to a distinct request.
    let minted_requests = client.trace_spans(minted).expect("trace op");
    assert_eq!(minted_requests[0].trace, minted, "{minted_requests:?}");
    server.shutdown(Duration::from_secs(1));
}

/// The wire-level non-interference differential: while the slow lane
/// churns genuine Monte-Carlo sampling (estimate-policy frames against
/// a #P-hard version), exact answers polled off the same connection
/// stay **byte-identical** (canonical encoding) to `Engine::submit`
/// oracles. `deadline_ms`, `budget`, and `on_hard` travel end-to-end:
/// the estimate result frame carries its interval and sample count,
/// an already-expired deadline answers the typed `deadline_exceeded`
/// frame, and the stats frame reports the lane and degradation
/// counters.
#[test]
fn degradation_fields_travel_the_wire_without_disturbing_exact_answers() {
    let mut rng = SmallRng::seed_from_u64(0xD15A97);
    let h = random_instance(&mut rng, ProbProfile::default());
    let hard = ProbGraph::new(
        {
            let mut b = GraphBuilder::with_vertices(2);
            b.edge(0, 1, Label(0));
            b.edge(1, 0, Label(0));
            b.build()
        },
        vec![Rational::from_ratio(1, 2), Rational::from_ratio(1, 2)],
    );
    let oracle = Engine::new(h.clone());
    let exact: Vec<WireRequest> = (0..24).map(|_| random_request(&h, &mut rng)).collect();
    let expect: Vec<String> = {
        let reqs: Vec<Request> = exact.iter().map(WireRequest::to_request).collect();
        oracle
            .submit(&reqs)
            .iter()
            .map(|r| encode_result(r).to_string())
            .collect()
    };
    let runtime = Arc::new(
        Runtime::builder()
            .max_batch(8)
            .max_wait(Duration::from_millis(1))
            .workers(3)
            .build(),
    );
    let server = Server::bind("127.0.0.1:0", Arc::clone(&runtime)).expect("bind");
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let v_exact = client.register(&h).expect("register exact");
    let v_hard = client.register(&hard).expect("register hard");

    // Slow-lane load first: distinct sample budgets keep every frame a
    // distinct cache key, so each one genuinely samples.
    let hard_query = Graph::one_way_path(&[Label(0)]);
    let sampling: Vec<u64> = (0..12)
        .map(|i| {
            client
                .submit(
                    v_hard,
                    &WireRequest::probability(hard_query.clone())
                        .with_on_hard(OnHard::Estimate)
                        .with_budget(WireBudget {
                            samples: Some(3_000 + i),
                            gates: None,
                            time_ms: None,
                        }),
                )
                .expect("admitted")
        })
        .collect();
    // An already-expired deadline on the hard version: the typed error
    // crosses the wire (anchored at server-side decode, this is
    // deterministic — no work starts).
    let doomed = client
        .submit(
            v_hard,
            &WireRequest::probability(hard_query.clone()).with_deadline_ms(0),
        )
        .expect("admitted");
    // The exact traffic, interleaved with the sampling load in flight.
    let tickets: Vec<u64> = exact
        .iter()
        .map(|r| client.submit(v_exact, r).expect("admitted"))
        .collect();

    for (i, (ticket, want)) in tickets.iter().zip(&expect).enumerate() {
        let got = client.wait(*ticket).expect("answer").to_string();
        assert_eq!(&got, want, "exact request {i} disturbed by sampling load");
    }
    for (i, ticket) in sampling.iter().enumerate() {
        let frame = client.wait(*ticket).expect("estimate frame");
        assert_eq!(
            frame.get("type").and_then(Json::as_str),
            Some("estimate"),
            "sampling frame {i}: {frame}"
        );
        // The bounds travel as shortest-roundtrip float strings.
        let bound = |key: &str| -> f64 {
            frame
                .get(key)
                .and_then(Json::as_str)
                .and_then(|s| s.parse().ok())
                .unwrap_or_else(|| panic!("frame {i} has no float {key:?}: {frame}"))
        };
        let (lo, hi) = (bound("lo"), bound("hi"));
        assert!(
            (0.0..=1.0).contains(&lo) && lo <= hi && hi <= 1.0,
            "frame {i}: [{lo}, {hi}]"
        );
        assert_eq!(
            frame.get("samples").and_then(Json::as_u64),
            Some(3_000 + i as u64),
            "frame {i}: the wire budget sets the sample count"
        );
    }
    let frame = client.wait(doomed).expect("resolved");
    assert_eq!(
        frame.get("code").and_then(Json::as_str),
        Some("deadline_exceeded"),
        "{frame}"
    );

    // The stats frame reports the lanes and the degradation counters.
    let stats = client.stats().expect("stats");
    assert!(
        stats.get("fast_lane_total").and_then(Json::as_u64).unwrap() > 0,
        "{stats}"
    );
    assert!(
        stats.get("slow_lane_total").and_then(Json::as_u64).unwrap() >= 12,
        "{stats}"
    );
    assert!(
        stats.get("estimates").and_then(Json::as_u64).unwrap() > 0,
        "{stats}"
    );
    // The doomed request lands in exactly one of the two deadline
    // books: shed at flush (expired while queued) or tripped by the
    // in-evaluation meter.
    let deadline_hits = stats
        .get("deadline_exceeded")
        .and_then(Json::as_u64)
        .unwrap()
        + stats.get("shed_expired").and_then(Json::as_u64).unwrap();
    assert!(deadline_hits >= 1, "{stats}");
    let net = server.shutdown(Duration::from_secs(5));
    assert_eq!(net.open_tickets, 0, "no ticket leaks: {net:?}");
    // Every answer was already delivered to the client; the runtime's
    // books settle when the final tick's bookkeeping lands, a hair
    // after the tickets resolve — wait for quiescence, bounded.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        let stats = runtime.stats();
        if stats.open_tickets() == 0 && stats.ticks_in_flight == 0 {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "runtime never quiesced: {stats:?}"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

// ===================================================================
// Protocol v2: multiplexed pipelined connections with server push
// ===================================================================

/// The v2 headline differential: N=32 requests pipelined on ONE
/// connection — far more than in flight than the tick size, so
/// completions push back in shuffled order — must come back
/// byte-identical (canonical encoding) to the in-process
/// `Engine::submit` oracle, with batch streaming both off (individual
/// pipelined submits) and on (one `submit_batch` frame).
#[test]
fn mux_pipelined_answers_are_bit_identical_to_engine_submit() {
    use phom::net::MuxClient;
    let mut rng = SmallRng::seed_from_u64(0xA11CE2);
    for (trial, &(max_batch, workers, batch_mode)) in [
        (1usize, 4usize, false), // one request per tick: maximal reordering
        (4, 2, false),
        (1, 4, true), // same shuffle pressure, streamed as one frame
        (8, 3, true),
    ]
    .iter()
    .enumerate()
    {
        let h = random_instance(&mut rng, ProbProfile::half());
        let requests: Vec<WireRequest> = (0..32).map(|_| random_request(&h, &mut rng)).collect();
        let oracle = Engine::new(h.clone());
        let expect: Vec<String> = {
            let reqs: Vec<Request> = requests.iter().map(WireRequest::to_request).collect();
            oracle
                .submit(&reqs)
                .iter()
                .map(|r| encode_result(r).to_string())
                .collect()
        };
        let runtime = Arc::new(
            Runtime::builder()
                .max_batch(max_batch)
                .max_wait(Duration::from_millis(1))
                .workers(workers)
                .build(),
        );
        let server = Server::bind("127.0.0.1:0", Arc::clone(&runtime)).expect("bind");
        let client = MuxClient::connect(server.local_addr()).expect("hello handshake");
        let version = client.register(&h).expect("register over mux");
        let tickets = if batch_mode {
            client
                .submit_batch(version, &requests)
                .expect("batch frame accepted")
        } else {
            requests
                .iter()
                .map(|r| client.submit(version, r).expect("pipelined submit"))
                .collect()
        };
        assert_eq!(tickets.len(), requests.len());
        // All 32 were in flight at once; waits resolve in submission
        // order regardless of the order completions hit the wire.
        for (i, (ticket, want)) in tickets.iter().zip(&expect).enumerate() {
            let got = ticket.wait().expect("pushed completion").to_string();
            assert_eq!(
                &got, want,
                "trial {trial} (b={max_batch}, k={workers}, batch={batch_mode}), request {i}"
            );
            let (server_ticket, trace) = ticket.ack().expect("acked");
            assert!(server_ticket > 0, "server tickets are 1-based");
            assert!(trace > 0, "front door mints traces on v2 too");
        }
        // The server's books: every completion was pushed, nothing
        // retained, and the connection upgraded exactly once. The
        // writer settles its books *after* the push frame is on the
        // wire, so the client can observe results a beat before the
        // counters do — wait the beat out.
        let deadline = std::time::Instant::now() + Duration::from_secs(2);
        let net = loop {
            let net = server.net_stats();
            if net.pushed == 32 || std::time::Instant::now() >= deadline {
                break net;
            }
            std::thread::sleep(Duration::from_millis(5));
        };
        assert_eq!(net.hello_upgrades, 1, "trial {trial}");
        assert_eq!(net.pushed, 32, "trial {trial}: {net:?}");
        assert_eq!(net.inflight, 0, "trial {trial}: {net:?}");
        assert_eq!(net.open_tickets, 0, "trial {trial}: {net:?}");
        drop(client);
        server.shutdown(Duration::from_secs(2));
    }
}

/// Back-compat: a v1 client against the v2-capable server sees the v1
/// protocol byte-for-byte (submit/poll round trips, no pushes, no
/// window), even while a mux connection shares the same server — and a
/// v2 connection typing `poll` gets the documented rejection.
#[test]
fn v1_clients_and_v2_connections_coexist() {
    use phom::net::wire::{read_frame, write_frame};
    use phom::net::MuxClient;
    let h = ProbGraph::new(
        Graph::directed_path(2),
        vec![Rational::from_ratio(1, 2), Rational::from_ratio(1, 3)],
    );
    let runtime = Arc::new(Runtime::builder().max_batch(4).workers(2).build());
    let server = Server::bind("127.0.0.1:0", Arc::clone(&runtime)).expect("bind");

    // v1 and v2 clients interleaved on one server.
    let mut v1 = Client::connect(server.local_addr()).expect("v1 connect");
    let mux = MuxClient::connect(server.local_addr()).expect("v2 connect");
    let version = v1.register(&h).expect("register via v1");
    let (version2, cached) = mux.register_hinted(&h, version).expect("register via v2");
    assert_eq!(version, version2);
    assert!(cached, "registry is shared across protocol versions");

    let query = WireRequest::probability(Graph::directed_path(1));
    let t1 = v1.submit(version, &query).expect("v1 submit");
    let t2 = mux.submit(version, &query).expect("v2 submit");
    let a1 = v1.wait(t1).expect("v1 poll loop");
    let a2 = t2.wait().expect("v2 push");
    assert_eq!(
        a1.to_string(),
        a2.to_string(),
        "identical canonical results on both protocols"
    );

    // A v2 connection speaking `poll` is told to use pushes instead.
    let mut raw = std::net::TcpStream::connect(server.local_addr()).expect("raw connect");
    write_frame(
        &mut raw,
        &Json::obj(vec![
            ("op", Json::str("hello")),
            ("version", Json::u64(2)),
            ("max_inflight", Json::u64(8)),
        ]),
    )
    .expect("hello");
    let grant = read_frame(&mut raw, 8 << 20).expect("io").expect("grant");
    assert!(grant.get("ok").is_some(), "{grant}");
    write_frame(
        &mut raw,
        &Json::obj(vec![
            ("id", Json::u64(1)),
            ("op", Json::str("poll")),
            ("ticket", Json::u64(1)),
        ]),
    )
    .expect("poll frame");
    let reply = read_frame(&mut raw, 8 << 20).expect("io").expect("reply");
    assert_eq!(
        reply
            .get("err")
            .and_then(|e| e.get("code"))
            .and_then(Json::as_str),
        Some("bad_request"),
        "{reply}"
    );
    // …and a late `hello` on a v1 connection is rejected without
    // killing it.
    let late = v1
        .call_raw(Json::obj(vec![
            ("op", Json::str("hello")),
            ("version", Json::u64(2)),
        ]))
        .expect("typed reply");
    assert_eq!(
        late.get("err")
            .and_then(|e| e.get("code"))
            .and_then(Json::as_str),
        Some("bad_request"),
        "{late}"
    );
    v1.ping().expect("v1 conn survives the late hello");

    drop(mux);
    drop(raw);
    server.shutdown(Duration::from_secs(2));
}

/// Flow control composes: the server clamps the granted window to its
/// cap, the client blocks at the window instead of over-submitting,
/// and every admitted request still answers — no typed `overloaded`
/// needed on a well-behaved mux connection even when the pipeline is
/// 8× the window.
#[test]
fn mux_window_gates_submits_without_overload_errors() {
    use phom::net::MuxClient;
    let h = ProbGraph::new(Graph::directed_path(1), vec![Rational::from_ratio(1, 2)]);
    let runtime = Arc::new(
        Runtime::builder()
            .max_batch(2)
            .max_wait(Duration::from_millis(1))
            .workers(2)
            .build(),
    );
    let server = Server::builder()
        .inflight_window(4)
        .bind("127.0.0.1:0", Arc::clone(&runtime))
        .expect("bind");
    let client = MuxClient::connect_with_window(server.local_addr(), 64).expect("hello");
    assert_eq!(client.window(), 4, "server cap clamps the proposal");
    let version = client.register(&h).expect("register");
    let query = WireRequest::probability(Graph::directed_path(1));
    let tickets: Vec<_> = (0..32)
        .map(|i| {
            client
                .submit(version, &query)
                .unwrap_or_else(|e| panic!("submit {i} blocked, never rejected: {e}"))
        })
        .collect();
    for (i, ticket) in tickets.iter().enumerate() {
        let answer = ticket.wait().unwrap_or_else(|e| panic!("ticket {i}: {e}"));
        assert_eq!(answer.get("p").and_then(Json::as_str), Some("1/2"), "{i}");
    }
    let net = server.net_stats();
    assert_eq!(net.rejected_overloaded, 0, "{net:?}");
    assert_eq!(net.pushed, 32, "{net:?}");
    drop(client);
    server.shutdown(Duration::from_secs(2));
}

/// The incremental frame reader: a legitimate frame far larger than
/// the read chunk round-trips intact, while a hostile header claiming
/// almost the whole frame bound with no bytes behind it cannot make
/// the server allocate it up front — the connection just dies at EOF
/// and the server keeps serving.
#[test]
fn frame_reads_are_incremental_and_survive_truncated_hostile_headers() {
    let h = ProbGraph::new(Graph::directed_path(1), vec![Rational::from_ratio(1, 2)]);
    let runtime = Arc::new(Runtime::builder().max_batch(4).workers(1).build());
    let server = Server::bind("127.0.0.1:0", Arc::clone(&runtime)).expect("bind");

    // A ~300 KiB frame (several 64 KiB read chunks) parses fine.
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let pad = "x".repeat(300 << 10);
    let reply = client
        .call_raw(Json::obj(vec![
            ("op", Json::str("ping")),
            ("pad", Json::str(&pad)),
        ]))
        .expect("multi-chunk frame");
    assert!(reply.get("ok").is_some(), "{reply}");

    // A header promising 8 MiB − 1 (inside the bound, so v1 servers
    // used to pre-allocate it) followed by a stall and EOF: the server
    // must neither pin the allocation for the idle tail nor wedge the
    // listener.
    use std::io::Write as _;
    for _ in 0..4 {
        let mut hostile = std::net::TcpStream::connect(server.local_addr()).expect("connect");
        let len = ((8 << 20) - 1) as u32;
        hostile.write_all(&len.to_be_bytes()).expect("header");
        hostile.write_all(b"{\"op\":").expect("partial body");
        hostile.flush().expect("flush");
        drop(hostile); // EOF mid-frame
    }
    // The server is still fully live for real traffic.
    let version = client.register(&h).expect("register after hostile peers");
    let ticket = client
        .submit(version, &WireRequest::probability(Graph::directed_path(1)))
        .expect("submit");
    assert_eq!(
        client
            .wait(ticket)
            .expect("answer")
            .get("p")
            .and_then(Json::as_str),
        Some("1/2")
    );
    server.shutdown(Duration::from_secs(1));
}

/// `connect_with_retry` must not sleep after the *final* failed
/// attempt: 3 attempts at 40 ms backoff sleep 40+80 = 120 ms between
/// attempts and nothing after, so the typed `Unavailable` lands well
/// under the 240 ms a trailing backoff would cost.
#[test]
fn connect_with_retry_reports_exhaustion_without_trailing_backoff() {
    // A port that refuses: bind, note the address, drop the listener.
    let addr = {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind probe");
        listener.local_addr().expect("addr")
    };
    let backoff = Duration::from_millis(40);
    let t0 = std::time::Instant::now();
    let err = Client::connect_with_retry(addr, 3, backoff)
        .err()
        .expect("nothing is listening");
    let elapsed = t0.elapsed();
    assert!(err.is_unavailable(), "{err}");
    let NetError::Unavailable { attempts, .. } = err else {
        panic!("{err}");
    };
    assert_eq!(attempts, 3);
    assert!(
        elapsed >= Duration::from_millis(120),
        "inter-attempt backoff still applies: {elapsed:?}"
    );
    assert!(
        elapsed < Duration::from_millis(200),
        "no sleep after the final attempt: {elapsed:?}"
    );
}

/// A draining `shutdown` racing a pipelined v2 submit stream: every
/// submit — plain or in a `submit_batch` — ends answered or with the
/// typed `cancelled`, never an I/O error, and the books balance. An
/// anchor ticket admitted before the race holds the drain open (a held
/// pool and the runtime's batching patience keep it unresolved until
/// every submit of the stream has been acked), so every frame of the
/// stream is read and answered before the connection closes; the drain
/// begins at a different point of the stream in each round, which
/// includes landing between a submit's `draining` check and its
/// admission.
#[test]
fn v2_submits_racing_a_drain_end_answered_or_cancelled() {
    use phom::net::MuxClient;
    let h = ProbGraph::new(Graph::directed_path(1), vec![Rational::from_ratio(1, 2)]);
    let query = WireRequest::probability(Graph::directed_path(1));
    for delay_us in [0u64, 80, 160, 240, 320, 640] {
        let runtime = Arc::new(
            Runtime::builder()
                .max_batch(1024)
                .max_wait(Duration::from_secs(600))
                .workers(1)
                .build(),
        );
        let server = Server::bind("127.0.0.1:0", Arc::clone(&runtime)).expect("bind");
        let client = MuxClient::connect(server.local_addr()).expect("hello");
        let version = client.register(&h).expect("register");
        let hold = PoolHold::engage(&runtime, Lane::Fast);
        let anchor = client.submit(version, &query).expect("anchor");
        anchor.ack().expect("anchor admitted");
        let (tickets, net) = std::thread::scope(|s| {
            let drain = s.spawn(move || {
                let start = std::time::Instant::now();
                while start.elapsed() < Duration::from_micros(delay_us) {
                    std::hint::spin_loop();
                }
                server.shutdown(Duration::from_secs(10))
            });
            let mut tickets = Vec::new();
            for i in 0..16 {
                if i % 4 == 3 {
                    let batch = [query.clone(), query.clone(), query.clone()];
                    tickets.extend(client.submit_batch(version, &batch).expect("batch written"));
                } else {
                    tickets.push(client.submit(version, &query).expect("submit written"));
                }
            }
            // Every submit has been read once it is acked (admitted or
            // refused `cancelled`); only then may the anchor resolve and
            // let the drain close the connection.
            for ticket in &tickets {
                let _ = ticket.ack();
            }
            hold.release();
            (tickets, drain.join().expect("drain"))
        });
        let (mut answered, mut cancelled) = (0, 0);
        for (i, ticket) in std::iter::once(anchor).chain(tickets).enumerate() {
            match ticket.wait_deadline(Duration::from_secs(10)) {
                Ok(Some(result)) => {
                    assert_eq!(result.get("p").and_then(Json::as_str), Some("1/2"), "{i}");
                    answered += 1;
                }
                Err(e) if e.is_cancelled() => cancelled += 1,
                other => panic!("drain after {delay_us}µs, submit {i}: {other:?}"),
            }
        }
        assert_eq!(answered + cancelled, 1 + 12 + 4 * 3, "after {delay_us}µs");
        assert_eq!(net.open_tickets, 0, "after {delay_us}µs: {net:?}");
        assert_eq!(net.submitted, answered, "after {delay_us}µs: {net:?}");
        drop(client);
        let runtime = Arc::try_unwrap(runtime).unwrap_or_else(|_| panic!("runtime still shared"));
        let stats = runtime.shutdown();
        assert_eq!(
            stats.admitted,
            stats.completed + stats.cancelled + stats.shed_expired,
            "after {delay_us}µs: {stats:?}"
        );
    }
}

/// The stable metric names a scraper relies on, verbatim: the runtime's
/// counters, gauges and histograms plus the front end's own `phom_net_*`.
const REQUIRED_METRIC_NAMES: [&str; 10] = [
    "phom_requests_admitted_total",
    "phom_net_inflight",
    "phom_net_pushed_total",
    "phom_requests_completed_total",
    "phom_lane_requests_total",
    "phom_queue_depth",
    "phom_request_latency_ns_bucket",
    "phom_request_latency_ns_p99",
    "phom_queue_latency_ns_bucket",
    "phom_stage_latency_ns_p99",
];

/// A live front end's `metrics` op, after one fast-lane and one
/// slow-lane request over protocol v2, exposes every required name.
#[test]
fn metrics_op_exposes_the_stable_names_over_v2() {
    use phom::net::MuxClient;
    let mut rng = SmallRng::seed_from_u64(0x3E7);
    let h = generate::with_probabilities(
        generate::two_way_path(4, 1, &mut rng),
        ProbProfile::half(),
        &mut rng,
    );
    let runtime = Arc::new(Runtime::builder().workers(2).build());
    let server = Server::bind("127.0.0.1:0", Arc::clone(&runtime)).expect("bind");
    let client = MuxClient::connect(server.local_addr()).expect("hello handshake");
    let version = client.register(&h).expect("register");
    let query = Graph::directed_path(1);
    for request in [
        WireRequest::probability(query.clone()),
        WireRequest::counting(query),
    ] {
        client
            .submit(version, &request)
            .expect("submit")
            .wait()
            .expect("answered");
    }
    // Latency histograms are recorded before an answer is published, so
    // both requests show at once.
    let lane_count = |text: &str, lane: &str| -> u64 {
        let prefix = format!("phom_request_latency_ns_count{{lane=\"{lane}\"}} ");
        text.lines()
            .find_map(|l| l.strip_prefix(prefix.as_str()))
            .and_then(|v| v.trim().parse().ok())
            .unwrap_or(0)
    };
    let text = client.metrics().expect("metrics op");
    assert_eq!(lane_count(&text, "fast"), 1, "{text}");
    assert_eq!(lane_count(&text, "slow"), 1, "{text}");
    for name in REQUIRED_METRIC_NAMES {
        assert!(text.contains(name), "missing metric {name}:\n{text}");
    }
    drop(client);
    server.shutdown(Duration::from_secs(2));
}
