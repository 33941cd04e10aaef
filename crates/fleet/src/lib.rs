//! # phom_fleet — the multi-process sharded fleet
//!
//! The fourth serving layer: a front-door [`Router`] process speaking
//! the standard length-prefixed JSON wire protocol
//! ([`phom_net::wire`]) on one listen address, fanning requests out to
//! N member `phom serve` processes over one shared protocol-v2
//! [`phom_net::MuxClient`] link per member. The stack, bottom to top:
//!
//! 1. **engine** (`phom_core`) — plan/execute/finish over `Send` tick
//!    units;
//! 2. **runtime** (`phom_serve`) — persistent workers, bounded
//!    ingress, micro-batching;
//! 3. **net** (`phom_net`) — one process on the wire;
//! 4. **fleet** (this crate) — many processes behind one address.
//!
//! ## Design
//!
//! * **Static membership** ([`MemberSpec`], [`parse_members`]): a
//!   fixed list of members with addresses and capacity weights —
//!   gossip-free by construction.
//! * **Consistent routing** ([`owner_of`]): weighted rendezvous (HRW)
//!   hashing on
//!   [`instance_fingerprint`](phom_core::instance_fingerprint), so
//!   membership edits move only the affected instances. Registration
//!   is broadcast-on-demand: the router caches the canonical instance
//!   encoding and forwards registration to the owning member lazily,
//!   remembering which members hold which fingerprints.
//! * **Re-register handoff**: the admin `move` op warms the instance
//!   on the new member (a hinted `register` — the members' cached
//!   fast path), flips routing atomically, then drains-and-deregisters
//!   on the old member in the background. Tickets created before the
//!   flip keep polling through the old member until resolved — a
//!   mutating fleet never drops or double-answers an in-flight ticket.
//! * **Member health**: one lazily connected link per member, replaced
//!   with reconnect-with-backoff
//!   ([`MuxClient::connect_with_retry`](phom_net::MuxClient::connect_with_retry))
//!   once it dies; typed `member_unavailable` error frames; and typed
//!   relay of member errors (`overloaded` keeps its `capacity` —
//!   backpressure reaches the edge). A router `submit` ack means
//!   *forwarded*: the member's admission outcome (its refusal, or
//!   `member_unavailable` for a link that died before its ack) arrives
//!   as the ticket's one terminal `poll` answer. The router never
//!   silently retries a submit; exactly-once stays with the client.
//! * **Fleet-wide observability**: the router's `stats` op aggregates
//!   every member's `RuntimeStats` (per-member + a rollup that merges
//!   every runtime metric by its kind; `docs/metrics.md` lists the
//!   names); the `fleet` op reports membership and current placements.
//!   The router
//!   is also the fleet's trace front door — it mints and injects a
//!   trace id into submits that lack one, records a `routed` span per
//!   forward, answers the `trace` op with member spans merged under
//!   its own routing spans, and serves the `metrics` op in Prometheus
//!   text format with the fleet-merged histograms under the same
//!   stable names a single member uses (see the [`router`
//!   module](self) docs, section "Observability").
//!
//! Answers are **byte-identical** to a single in-process
//! [`Engine::submit`](phom_core::Engine::submit): the router moves
//! frames, never recomputes (asserted end to end by
//! `tests/fleet_serving.rs` against a 3-process fleet, through a
//! mid-traffic handoff and a member kill).
//!
//! ## Quick start
//!
//! ```
//! use phom_fleet::{MemberSpec, Router};
//! use phom_graph::{Graph, ProbGraph};
//! use phom_net::{Client, Server, WireRequest};
//! use phom_serve::Runtime;
//! use std::sync::Arc;
//! use std::time::Duration;
//!
//! // Two in-process members (real fleets spawn `phom serve` processes).
//! let mut members = Vec::new();
//! let mut servers = Vec::new();
//! for name in ["a", "b"] {
//!     let runtime = Arc::new(Runtime::builder().max_wait(Duration::ZERO).build());
//!     let server = Server::bind("127.0.0.1:0", runtime).unwrap();
//!     members.push(MemberSpec {
//!         name: name.into(),
//!         addr: server.local_addr().to_string(),
//!         weight: 1.0,
//!     });
//!     servers.push(server);
//! }
//! let router = Router::bind("127.0.0.1:0", members).unwrap();
//!
//! let mut client = Client::connect(router.local_addr()).unwrap();
//! let h = ProbGraph::new(
//!     Graph::directed_path(2),
//!     vec![phom_num::Rational::from_ratio(1, 2); 2],
//! );
//! let version = client.register(&h).unwrap();
//! let ticket = client
//!     .submit(version, &WireRequest::probability(Graph::directed_path(1)))
//!     .unwrap();
//! assert_eq!(
//!     client.wait(ticket).unwrap().get("p").and_then(|p| p.as_str()),
//!     Some("3/4"),
//! );
//! router.shutdown(Duration::from_secs(1));
//! ```

mod members;
mod router;

pub use members::{owner_of, parse_members, validate_members, MemberSpec};
pub use router::{Router, RouterBuilder, RouterStats, FLEET_METRICS, ROUTER_METRICS};
