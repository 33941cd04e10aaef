//! The network front end's soak suite: eight concurrent client
//! connections fire bursts through a deliberately tiny ingress queue —
//! saturation is the *point* — and a draining `shutdown` lands in the
//! middle of the traffic. The invariant under all of it: **every
//! request ends in exactly one of answered / Overloaded / Cancelled**
//! (an answer includes typed hardness — the deterministic outcome of a
//! hard cell), no ticket leaks server-side, and the books balance after
//! the drain.
//!
//! A watchdog aborts the process if the soak wedges — a deadlock fails
//! fast (here and in CI) instead of hanging the job.

use phom::net::wire::WireBudget;
use phom::net::{Client, Json, MuxClient, MuxTicket, NetError, Server, WireRequest};
use phom::prelude::*;
use phom_graph::generate::{self, ProbProfile};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

const CLIENTS: usize = 8;
const PER_CLIENT: usize = 160;
const BURST: usize = 20;

/// How one request ended. Exactly one of these per request — the soak's
/// core invariant.
#[derive(Clone, Copy, Default, Debug)]
struct Outcomes {
    answered: u64,
    overloaded: u64,
    cancelled: u64,
}

/// Aborts the whole process if the soak has not finished within
/// `limit` — a deadlock must fail fast, never hang the test job.
fn arm_watchdog(limit: Duration, done: &Arc<AtomicBool>) {
    let done = Arc::clone(done);
    std::thread::spawn(move || {
        std::thread::sleep(limit);
        if !done.load(Ordering::SeqCst) {
            eprintln!("soak_net: watchdog fired after {limit:?} — aborting (deadlock?)");
            std::process::abort();
        }
    });
}

/// Classifies one delivered result object.
/// Cached answers skip the ingress queue (the runtime answers an
/// admission whose every request is cached on the admitting thread), so
/// a soak over a small catalogue would stop saturating the queue once
/// the catalogue is cached. Request `n` therefore carries, when `n` is
/// odd, a gates budget no request reaches, distinct per request: it
/// keys a fresh cache entry, so the request evaluates and queues. Even
/// requests stay cache hits.
fn uncached_if_odd(request: WireRequest, n: usize) -> WireRequest {
    if n.is_multiple_of(2) {
        return request;
    }
    request.with_budget(WireBudget {
        gates: Some((1 << 40) + n as u64),
        ..WireBudget::default()
    })
}

fn classify_result(result: &Json) -> &'static str {
    match result.get("status").and_then(Json::as_str) {
        Some("ok") => "answered",
        Some("error") => match result.get("code").and_then(Json::as_str) {
            Some("cancelled") => "cancelled",
            // Typed hardness / validation are deterministic *answers*.
            Some("hard") | Some("invalid_query") => "answered",
            other => panic!("unexpected error code {other:?}: {result}"),
        },
        _ => panic!("malformed result: {result}"),
    }
}

#[test]
fn saturated_soak_accounts_for_every_request() {
    let done = Arc::new(AtomicBool::new(false));
    arm_watchdog(Duration::from_secs(120), &done);

    let mut rng = SmallRng::seed_from_u64(0x50A1CAFE);
    let live = generate::with_probabilities(
        generate::two_way_path(24, 2, &mut rng),
        ProbProfile::default(),
        &mut rng,
    );
    let census = ProbGraph::new(
        live.graph().clone(),
        vec![Rational::from_ratio(1, 2); live.graph().n_edges()],
    );
    let runtime = Arc::new(
        Runtime::builder()
            .max_batch(8)
            .max_wait(Duration::from_millis(5))
            .queue_cap(4) // tiny on purpose: saturation is the point
            .workers(4)
            .share_arena_at(Some(8))
            .build(),
    );
    let v_live = runtime.register(live.clone());
    let v_census = runtime.register(census);
    let server = Server::bind("127.0.0.1:0", Arc::clone(&runtime)).expect("bind");
    let addr = server.local_addr();

    let attempts = Arc::new(AtomicU64::new(0));
    let catalogue: Vec<Graph> = (1..=3)
        .map(|m| {
            generate::planted_path_query(live.graph(), m, &mut rng)
                .unwrap_or_else(|| generate::one_way_path(m, 2, &mut rng))
        })
        .collect();

    let (outcomes, net) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let catalogue = catalogue.clone();
                let attempts = Arc::clone(&attempts);
                scope.spawn(move || {
                    let mut rng = SmallRng::seed_from_u64(0xC11E47 + c as u64);
                    let mut client = Client::connect(addr).expect("connect");
                    let mut outcomes = Outcomes::default();
                    let mut server_gone = false;
                    let mut sent = 0usize;
                    while sent < PER_CLIENT {
                        let burst = BURST.min(PER_CLIENT - sent);
                        // Submit a burst without draining in between, so
                        // eight clients genuinely pile onto the bounded
                        // queue; every submit's outcome is terminal (no
                        // retries — the accounting must see each request
                        // exactly once).
                        let mut tickets: Vec<(u64, bool)> = Vec::new();
                        for j in 0..burst {
                            if server_gone {
                                // The drained server refuses new work: the
                                // remaining requests end Cancelled.
                                outcomes.cancelled += 1;
                                continue;
                            }
                            let query = catalogue[rng.gen_range(0..catalogue.len())].clone();
                            let (version, request) = match rng.gen_range(0..4) {
                                0 | 1 => (v_live, WireRequest::probability(query)),
                                2 => (v_census, WireRequest::counting(query)),
                                _ => (v_live, WireRequest::ucq(vec![query])),
                            };
                            let request = uncached_if_odd(request, c * PER_CLIENT + sent + j);
                            attempts.fetch_add(1, Ordering::Relaxed);
                            match client.submit(version, &request) {
                                Ok(ticket) => {
                                    // Sprinkle cancellations into the race
                                    // with the tick flush.
                                    let cancel = (sent + j).is_multiple_of(13);
                                    if cancel {
                                        match client.cancel(ticket) {
                                            Ok(_) => {}
                                            Err(NetError::Io(_)) => server_gone = true,
                                            Err(e) => panic!("client {c}: cancel: {e}"),
                                        }
                                    }
                                    tickets.push((ticket, cancel));
                                }
                                Err(e) if e.is_overloaded() => outcomes.overloaded += 1,
                                Err(e) if e.is_cancelled() => outcomes.cancelled += 1,
                                Err(NetError::Io(_)) => {
                                    // The server closed after its drain:
                                    // nothing was admitted.
                                    server_gone = true;
                                    outcomes.cancelled += 1;
                                }
                                Err(e) => panic!("client {c}: submit: {e}"),
                            }
                        }
                        // Drain the burst: every admitted ticket must
                        // resolve (the runtime keeps serving through the
                        // front end's drain window).
                        for (ticket, _) in tickets {
                            match client.wait_deadline(ticket, Duration::from_secs(60)) {
                                Ok(Some(result)) => match classify_result(&result) {
                                    "answered" => outcomes.answered += 1,
                                    "cancelled" => outcomes.cancelled += 1,
                                    _ => unreachable!(),
                                },
                                Ok(None) => panic!("client {c}: ticket {ticket} hung"),
                                Err(e) => panic!("client {c}: poll: {e}"),
                            }
                        }
                        sent += burst;
                    }
                    outcomes
                })
            })
            .collect();

        // Mid-traffic drain: wait until real load went through, then
        // shut the front end down while clients are still working.
        while attempts.load(Ordering::Relaxed) < (CLIENTS * PER_CLIENT * 3 / 4) as u64 {
            std::thread::sleep(Duration::from_millis(1));
        }
        let net = server.shutdown(Duration::from_secs(60));
        let outcomes: Vec<Outcomes> = handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect();
        (outcomes, net)
    });

    // Per client: every request ended in exactly one outcome.
    let mut total = Outcomes::default();
    for (c, o) in outcomes.iter().enumerate() {
        assert_eq!(
            o.answered + o.overloaded + o.cancelled,
            PER_CLIENT as u64,
            "client {c}: {o:?}"
        );
        total.answered += o.answered;
        total.overloaded += o.overloaded;
        total.cancelled += o.cancelled;
    }
    assert_eq!(
        total.answered + total.overloaded + total.cancelled,
        (CLIENTS * PER_CLIENT) as u64,
        "{total:?}"
    );
    assert!(total.answered > 0, "{total:?}");
    assert!(
        total.overloaded > 0,
        "the tiny queue must actually saturate: {total:?}"
    );
    // Server-side books: no ticket leaks, and the runtime accounted for
    // every admitted request (ticked, then answered / skipped-cancelled /
    // cancelled mid-flight — never stranded).
    assert_eq!(net.open_tickets, 0, "ticket leak: {net:?}");
    // The server is gone (threads joined, its runtime handle dropped), so
    // the Arc unwraps and the runtime can drain deterministically.
    let runtime = Arc::try_unwrap(runtime)
        .unwrap_or_else(|_| panic!("server shutdown must release its runtime handle"));
    let stats = runtime.shutdown();
    assert_eq!(stats.total_tick_requests, stats.admitted, "{stats:?}");
    assert_eq!(stats.queue_depth, 0, "{stats:?}");
    assert!(
        stats.completed + stats.cancelled <= stats.admitted,
        "{stats:?}"
    );
    assert!(stats.rejected >= total.overloaded, "{stats:?}");
    // Every tick stayed within the configured max_batch through all of it.
    assert!((1..=8).contains(&stats.max_tick_requests), "{stats:?}");
    done.store(true, Ordering::SeqCst);
}

const MUX_CLIENTS: usize = 6;
const MUX_PER_CLIENT: usize = 192;
/// In-flight depth per connection: a whole pipeline is launched before
/// the first completion is claimed, so pushes genuinely interleave with
/// submits on the same socket.
const PIPELINE: usize = 24;

/// The protocol-v2 twin of the soak above: six multiplexed connections
/// keep deep pipelines in flight — acks, pushed completions, batch
/// submits, and cancels all interleave on each socket — while the same
/// mid-traffic draining `shutdown` lands. The invariants are identical
/// (every request ends in exactly one of answered / Overloaded /
/// Cancelled; no server-side ticket leak) plus the v2-specific books:
/// every completion was *pushed* (never polled), and the per-connection
/// in-flight gauge returns to zero after the drain.
#[test]
fn pipelined_mux_soak_accounts_for_every_request() {
    let done = Arc::new(AtomicBool::new(false));
    arm_watchdog(Duration::from_secs(120), &done);

    let mut rng = SmallRng::seed_from_u64(0x50A1_F10E);
    let live = generate::with_probabilities(
        generate::two_way_path(24, 2, &mut rng),
        ProbProfile::default(),
        &mut rng,
    );
    let census = ProbGraph::new(
        live.graph().clone(),
        vec![Rational::from_ratio(1, 2); live.graph().n_edges()],
    );
    let runtime = Arc::new(
        Runtime::builder()
            .max_batch(8)
            .max_wait(Duration::from_millis(5))
            .queue_cap(4) // tiny on purpose: the pipelines must overrun it
            .workers(4)
            .share_arena_at(Some(8))
            .build(),
    );
    let v_live = runtime.register(live.clone());
    let v_census = runtime.register(census);
    let server = Server::bind("127.0.0.1:0", Arc::clone(&runtime)).expect("bind");
    let addr = server.local_addr();

    let attempts = Arc::new(AtomicU64::new(0));
    // Completions the clients actually *received* as pushed results —
    // compared against the server's `pushed` counter afterwards.
    let received = Arc::new(AtomicU64::new(0));
    let catalogue: Vec<Graph> = (1..=3)
        .map(|m| {
            generate::planted_path_query(live.graph(), m, &mut rng)
                .unwrap_or_else(|| generate::one_way_path(m, 2, &mut rng))
        })
        .collect();

    let (outcomes, net) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..MUX_CLIENTS)
            .map(|c| {
                let catalogue = catalogue.clone();
                let attempts = Arc::clone(&attempts);
                let received = Arc::clone(&received);
                scope.spawn(move || {
                    let mut rng = SmallRng::seed_from_u64(0xF1EE7 + c as u64);
                    let client = MuxClient::connect_with_window(addr, 32).expect("hello handshake");
                    assert_eq!(client.window(), 32, "server default cap must not clamp");
                    let mut outcomes = Outcomes::default();
                    let mut server_gone = false;
                    let mut sent = 0usize;
                    while sent < MUX_PER_CLIENT {
                        let burst = PIPELINE.min(MUX_PER_CLIENT - sent);
                        // Launch the whole pipeline before claiming any
                        // completion: submits, one batch frame, and a few
                        // cancels interleave with the server's pushes.
                        let mut tickets: Vec<MuxTicket> = Vec::new();
                        let mut j = 0usize;
                        while j < burst {
                            if server_gone {
                                outcomes.cancelled += 1;
                                j += 1;
                                continue;
                            }
                            // Mid-burst, fold a chunk into one
                            // `submit_batch` frame (per-entry acks, but
                            // completions still push one by one).
                            if j == burst / 2 && burst - j >= 4 {
                                let chunk: Vec<WireRequest> = (0..4)
                                    .map(|_| {
                                        let query =
                                            catalogue[rng.gen_range(0..catalogue.len())].clone();
                                        WireRequest::probability(query)
                                    })
                                    .collect();
                                attempts.fetch_add(chunk.len() as u64, Ordering::Relaxed);
                                match client.submit_batch(v_live, &chunk) {
                                    Ok(batch) => tickets.extend(batch),
                                    Err(NetError::Io(_)) | Err(NetError::Protocol(_)) => {
                                        server_gone = true;
                                        outcomes.cancelled += chunk.len() as u64;
                                    }
                                    Err(e) => panic!("client {c}: submit_batch: {e}"),
                                }
                                j += 4;
                                continue;
                            }
                            let query = catalogue[rng.gen_range(0..catalogue.len())].clone();
                            let (version, request) = match rng.gen_range(0..4) {
                                0 | 1 => (v_live, WireRequest::probability(query)),
                                2 => (v_census, WireRequest::counting(query)),
                                _ => (v_live, WireRequest::ucq(vec![query])),
                            };
                            let request = uncached_if_odd(request, c * MUX_PER_CLIENT + sent + j);
                            attempts.fetch_add(1, Ordering::Relaxed);
                            match client.submit(version, &request) {
                                Ok(ticket) => {
                                    // Sprinkle cancels into the race with
                                    // the tick flush; a cancelled ticket's
                                    // completion still arrives by push.
                                    if (sent + j).is_multiple_of(13) {
                                        if let Ok((remote, _)) = ticket.ack() {
                                            match client.cancel(remote) {
                                                Ok(_) => {}
                                                // The push won the race: the
                                                // completion settled (and
                                                // closed the ticket) before
                                                // the cancel frame landed.
                                                Err(NetError::Server { ref code, .. })
                                                    if code == "unknown_ticket" => {}
                                                Err(NetError::Io(_))
                                                | Err(NetError::Protocol(_)) => server_gone = true,
                                                Err(e) => panic!("client {c}: cancel: {e}"),
                                            }
                                        }
                                    }
                                    tickets.push(ticket);
                                }
                                Err(NetError::Io(_)) | Err(NetError::Protocol(_)) => {
                                    server_gone = true;
                                    outcomes.cancelled += 1;
                                }
                                Err(e) => panic!("client {c}: submit: {e}"),
                            }
                            j += 1;
                        }
                        // Claim the pipeline. Typed rejections (the tiny
                        // ingress queue, the drain window) surface here as
                        // the same `overloaded` / `cancelled` errors a v1
                        // submit returns inline.
                        for ticket in tickets {
                            match ticket.wait_deadline(Duration::from_secs(60)) {
                                Ok(Some(result)) => {
                                    received.fetch_add(1, Ordering::Relaxed);
                                    match classify_result(&result) {
                                        "answered" => outcomes.answered += 1,
                                        "cancelled" => outcomes.cancelled += 1,
                                        _ => unreachable!(),
                                    }
                                }
                                Ok(None) => panic!("client {c}: pushed completion hung"),
                                Err(e) if e.is_overloaded() => outcomes.overloaded += 1,
                                Err(e) if e.is_cancelled() => outcomes.cancelled += 1,
                                Err(NetError::Io(_)) | Err(NetError::Protocol(_)) => {
                                    // The post-drain close raced the last
                                    // pushes: nothing more is coming.
                                    server_gone = true;
                                    outcomes.cancelled += 1;
                                }
                                Err(e) => panic!("client {c}: wait: {e}"),
                            }
                        }
                        sent += burst;
                    }
                    outcomes
                })
            })
            .collect();

        // Mid-traffic drain, exactly as in the v1 soak.
        while attempts.load(Ordering::Relaxed) < (MUX_CLIENTS * MUX_PER_CLIENT * 3 / 4) as u64 {
            std::thread::sleep(Duration::from_millis(1));
        }
        let net = server.shutdown(Duration::from_secs(60));
        let outcomes: Vec<Outcomes> = handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect();
        (outcomes, net)
    });

    let mut total = Outcomes::default();
    for (c, o) in outcomes.iter().enumerate() {
        assert_eq!(
            o.answered + o.overloaded + o.cancelled,
            MUX_PER_CLIENT as u64,
            "client {c}: {o:?}"
        );
        total.answered += o.answered;
        total.overloaded += o.overloaded;
        total.cancelled += o.cancelled;
    }
    assert_eq!(
        total.answered + total.overloaded + total.cancelled,
        (MUX_CLIENTS * MUX_PER_CLIENT) as u64,
        "{total:?}"
    );
    assert!(total.answered > 0, "{total:?}");
    assert!(
        total.overloaded > 0,
        "the pipelines must overrun the tiny ingress queue: {total:?}"
    );
    // v2 books after the drain: no ticket leak, the in-flight gauge
    // returned to zero, every connection upgraded at `hello`, and every
    // delivery went out as a push (this soak never polls).
    assert_eq!(net.open_tickets, 0, "ticket leak: {net:?}");
    assert_eq!(net.inflight, 0, "in-flight gauge leak: {net:?}");
    assert_eq!(net.hello_upgrades, MUX_CLIENTS as u64, "{net:?}");
    assert_eq!(net.pushed, net.delivered, "a poll slipped in: {net:?}");
    assert!(
        net.pushed >= received.load(Ordering::Relaxed),
        "clients saw more pushes than the server wrote: {net:?}"
    );
    let runtime = Arc::try_unwrap(runtime)
        .unwrap_or_else(|_| panic!("server shutdown must release its runtime handle"));
    let stats = runtime.shutdown();
    assert_eq!(stats.total_tick_requests, stats.admitted, "{stats:?}");
    assert_eq!(stats.queue_depth, 0, "{stats:?}");
    assert!(
        stats.completed + stats.cancelled <= stats.admitted,
        "{stats:?}"
    );
    assert!(stats.rejected >= total.overloaded, "{stats:?}");
    done.store(true, Ordering::SeqCst);
}
