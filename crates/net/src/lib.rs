//! # phom_net — the network serving front end
//!
//! The third serving layer. The stack, bottom to top:
//!
//! 1. **[`Engine`](phom_core::Engine) tick seam** (`phom_core`) —
//!    plan/execute/finish over `Send` work units;
//! 2. **[`Runtime`](phom_serve::Runtime)** (`phom_serve`) — persistent
//!    workers, bounded ingress, work-conserving micro-batching ticks
//!    (requests wait for company only while a tick of their lane is
//!    in flight);
//! 3. **[`Server`] (this crate)** — a TCP listener speaking a
//!    length-prefixed JSON protocol, one reader thread per connection,
//!    each feeding the runtime's bounded queue.
//!
//! Built on `std::net` alone (the build image has no registry access).
//! Backpressure is end to end: a full ingress queue answers the typed
//! `overloaded` error frame immediately — the wire never buffers
//! without bound — and the differential suite in `tests/net_serving.rs`
//! proves answers over loopback TCP **bit-identical** to in-process
//! [`Engine::submit`](phom_core::Engine::submit) under every knob
//! combination. See [`wire`] for the full protocol reference and
//! `docs/wire-protocol.md` for the exhaustive frame tables.
//!
//! ## Protocol v2: multiplexing and server push
//!
//! A connection whose **first frame** is `hello` upgrades to protocol
//! v2: frames carry client-assigned ids, up to a negotiated window of
//! submits ride the connection concurrently, and completions are
//! *pushed* by a per-connection writer thread the moment the runtime
//! resolves them — no `poll` round trips. [`MuxClient`] is the
//! matching client: `&self` methods, shareable across threads, with
//! [`MuxTicket`] standing in for the poll loop. Connections that never
//! send `hello` get v1 behavior byte-for-byte, so old clients keep
//! working unmodified.
//!
//! **Observability**: the server is the trace front door — a `submit`
//! without a `"trace"` field gets a freshly minted
//! [`TraceId`](phom_serve::TraceId), and the ack echoes the id either
//! way. The `metrics` op returns the whole snapshot in Prometheus text
//! format ([`Client::metrics`]); the `trace` op returns per-stage span
//! breakdowns for one trace id ([`Client::trace_spans`]) or the N
//! slowest requests still in the span ring ([`Client::slowest`]); and
//! the `stats` reply carries sparse latency histograms per lane and per
//! stage, mergeable fleet-wide by the router. See the
//! [`wire`] module docs, section "Tracing".
//!
//! ## Quick start
//!
//! ```
//! use phom_core::Response;
//! use phom_graph::{Graph, ProbGraph};
//! use phom_net::{Client, Server, WireRequest};
//! use phom_num::Rational;
//! use phom_serve::Runtime;
//! use std::sync::Arc;
//! use std::time::Duration;
//!
//! let runtime = Arc::new(Runtime::builder().max_batch(16).build());
//! let server = Server::bind("127.0.0.1:0", Arc::clone(&runtime)).unwrap();
//!
//! let mut client = Client::connect(server.local_addr()).unwrap();
//! let h = ProbGraph::new(
//!     Graph::directed_path(2),
//!     vec![Rational::from_ratio(1, 2), Rational::from_ratio(1, 2)],
//! );
//! let version = client.register(&h).unwrap();
//! let ticket = client
//!     .submit(version, &WireRequest::probability(Graph::directed_path(1)))
//!     .unwrap();
//! let answer = client.wait(ticket).unwrap();
//! assert_eq!(answer.get("p").and_then(|p| p.as_str()), Some("3/4"));
//!
//! server.shutdown(Duration::from_secs(1));
//! ```

pub mod json;
pub mod wire;

mod client;
mod server;

pub use client::{Client, MuxClient, MuxTicket, NetError, DEFAULT_MUX_WINDOW};
pub use json::Json;
pub use server::{NetStats, Server, ServerBuilder};
pub use wire::{WireFallback, WireKind, WireRequest};
