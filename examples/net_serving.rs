//! The full serving stack, end to end over real TCP: a
//! `phom_serve::Runtime` behind the `phom_net` front end, a client
//! registering an instance and streaming requests over the
//! length-prefixed JSON protocol, backpressure surfacing as typed
//! `overloaded` frames, and a draining shutdown.
//!
//! This is the three-layer shape of the ROADMAP's serving scale-out:
//! Engine tick seam → Runtime (work-conserving micro-batching,
//! cross-shard arenas) → network front end.
//!
//! Run with: `cargo run --release --example net_serving`

use phom::net::{Client, Json, Server, WireRequest};
use phom::prelude::*;
use std::sync::Arc;
use std::time::Duration;

fn main() {
    use rand::SeedableRng;
    let mut rng = rand::rngs::SmallRng::seed_from_u64(0x2E7);

    // The served instance: a labeled two-way path pipeline.
    let instance = phom::graph::generate::with_probabilities(
        phom::graph::generate::two_way_path(80, 2, &mut rng),
        phom::graph::generate::ProbProfile::default(),
        &mut rng,
    );

    // Layer 2: the runtime — ticks of up to 32 requests, cross-shard
    // arena sharing from 16 unique queries per tick.
    let runtime = Arc::new(
        Runtime::builder()
            .max_batch(32)
            .max_wait(Duration::from_millis(2))
            .queue_cap(64)
            .workers(4)
            .share_arena_at(Some(16))
            .build(),
    );

    // Layer 3: the TCP front end (port 0 = pick a free port).
    let server = Server::bind("127.0.0.1:0", Arc::clone(&runtime)).expect("bind");
    println!("serving on {}", server.local_addr());

    // A client connects, registers the instance over the wire, and
    // learns its routing fingerprint.
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let version = client.register(&instance).expect("register");
    println!("registered instance version {version:#018x}");

    // Stream a workload: repeated planted queries (the cache-friendly
    // hot path) plus a counting twin. Submits and polls are independent
    // ops — a client may pipeline many tickets.
    let queries: Vec<Graph> = (1..=3)
        .map(|m| {
            phom::graph::generate::planted_path_query(instance.graph(), m, &mut rng)
                .unwrap_or_else(|| phom::graph::generate::one_way_path(m, 2, &mut rng))
        })
        .collect();
    let mut tickets = Vec::new();
    let mut overloaded = 0u64;
    for i in 0..200 {
        let request = WireRequest::probability(queries[i % queries.len()].clone());
        match client.submit(version, &request) {
            Ok(ticket) => tickets.push(ticket),
            Err(e) if e.is_overloaded() => {
                // Backpressure on the wire: back off, drain one, retry.
                overloaded += 1;
                if let Some(ticket) = tickets.pop() {
                    client.wait(ticket).expect("answer");
                }
            }
            Err(e) => panic!("submit: {e}"),
        }
    }
    let mut answers = 0u64;
    for ticket in tickets {
        let result = client.wait(ticket).expect("answer");
        assert_eq!(result.get("status").and_then(Json::as_str), Some("ok"));
        answers += 1;
    }
    println!("{answers} answers polled, {overloaded} overloaded frames absorbed");

    // Observability over the wire: both layers in one snapshot.
    let stats = client.stats().expect("stats");
    println!(
        "ticks {} (hist {}), max tick {}, shared-arena ticks {}, cache hits {}",
        stats.get("ticks").and_then(Json::as_u64).unwrap_or(0),
        stats
            .get("tick_size_hist")
            .map(|h| h.to_string())
            .unwrap_or_default(),
        stats
            .get("max_tick_requests")
            .and_then(Json::as_u64)
            .unwrap_or(0),
        stats
            .get("shared_arena_ticks")
            .and_then(Json::as_u64)
            .unwrap_or(0),
        stats
            .get("cache")
            .and_then(|c| c.get("hits"))
            .and_then(Json::as_u64)
            .unwrap_or(0),
    );

    // Draining shutdown: the front end refuses new submissions, lets
    // clients collect what is outstanding, then closes.
    let net = server.shutdown(Duration::from_secs(5));
    println!(
        "front end drained: {} connections, {} frames in / {} out, {} delivered, {} open tickets",
        net.connections, net.frames_in, net.frames_out, net.delivered, net.open_tickets
    );
    let runtime = Arc::try_unwrap(runtime).unwrap_or_else(|_| panic!("last runtime handle"));
    let stats = runtime.shutdown();
    println!(
        "runtime drained: {} admitted, {} completed, {} rejected (Overloaded)",
        stats.admitted, stats.completed, stats.rejected
    );
}
