//! # phom_serve — the persistent serving runtime
//!
//! PR 3's [`Engine`](phom_core::Engine) made single-process serving
//! cheap: instance-side state and the answer cache are paid once per
//! instance lifetime. But every `submit` still spawned scoped threads,
//! and callers had to hand-assemble batches. This crate closes the loop
//! for **heavy concurrent traffic**: a long-lived [`Runtime`] owns
//!
//! * a **persistent worker pool** — threads spawned exactly once at
//!   startup and fed over an internal channel (no per-batch spawns);
//! * a **bounded ingress queue** with **tick-based micro-batching**:
//!   the batcher is work-conserving per lane: an idle lane flushes at
//!   once, and requests wait for company (up to `max_batch` of them,
//!   for at most `max_wait`) only while a tick of their lane is in
//!   flight —
//!   so concurrent callers share interning, cache probes, and compiled
//!   arenas without coordinating, and light load never pays patience;
//! * **admission control**: a full queue answers
//!   [`SolveError::Overloaded`](phom_core::SolveError::Overloaded)
//!   immediately (backpressure instead of unbounded memory), never
//!   touching already-admitted requests;
//! * a **fleet-aware router**: many instance versions registered by
//!   fingerprint, all sharing one bounded answer cache;
//! * [`Ticket`]s — blocking [`wait`](Ticket::wait), non-blocking
//!   [`try_get`](Ticket::try_get), best-effort
//!   [`cancel`](Ticket::cancel) — and a graceful
//!   [`shutdown`](Runtime::shutdown) that drains every admitted
//!   request;
//! * **cross-shard arena sharing**
//!   ([`RuntimeBuilder::share_arena_at`]): large ticks compile every
//!   circuit-compilable plan into one shared arena and partition the
//!   roots across the workers;
//! * a [`RuntimeStats`] snapshot: queue depth (+ high-water mark),
//!   tick-size histogram, per-shard latencies, batch
//!   aggregates, cache counters;
//! * **observability** (`phom_obs`): every admitted request carries a
//!   [`TraceId`] (its own if the front door minted
//!   one, runtime-minted otherwise) and records per-stage
//!   [`Span`]s — admitted, queued, planned, evaluated,
//!   encoded — into a lock-free overwrite-oldest ring
//!   ([`Runtime::spans`]); [`RuntimeStats`] carries quantile-grade
//!   log-linear latency [`Histogram`]s per lane and per stage, and
//!   [`RuntimeStats::prometheus_text`] renders the whole snapshot in
//!   Prometheus text format.
//!
//! The runtime is the process-internal half of serving; the network
//! half — a TCP front end speaking a length-prefixed JSON protocol
//! over this runtime — lives in `phom_net`.
//!
//! Answers are **bit-identical** to [`Engine::submit`](phom_core::Engine::submit)
//! for every `max_batch` / `max_wait` / worker-count setting —
//! micro-batching changes latency and throughput, never results.
//!
//! ## Quick start
//!
//! ```
//! use phom_core::{Request, Response};
//! use phom_graph::{Graph, GraphBuilder, Label, ProbGraph};
//! use phom_num::Rational;
//! use phom_serve::Runtime;
//! use std::time::Duration;
//!
//! let (r, s) = (Label(0), Label(1));
//! let mut b = GraphBuilder::with_vertices(3);
//! b.edge(0, 1, r);
//! b.edge(1, 2, s);
//! let h = ProbGraph::new(
//!     b.build(),
//!     vec![Rational::from_ratio(1, 2), Rational::from_ratio(3, 4)],
//! );
//!
//! let runtime = Runtime::builder()
//!     .max_batch(16)
//!     .max_wait(Duration::from_millis(1))
//!     .queue_cap(256)
//!     .workers(2)
//!     .build();
//! runtime.register(h);
//!
//! let ticket = runtime
//!     .enqueue(Request::probability(Graph::one_way_path(&[r, s])))
//!     .expect("admitted");
//! let Ok(Response::Probability(sol)) = ticket.wait() else { panic!() };
//! assert_eq!(sol.probability, Rational::from_ratio(3, 8));
//!
//! let stats = runtime.shutdown();
//! assert_eq!(stats.completed, 1);
//! ```

mod chan;
mod runtime;
mod stats;
#[doc(hidden)]
pub mod test_support;
mod ticket;

pub use phom_obs::{Histogram, PromText, Span, SpanLane, SpanRing, Stage, TraceId};
pub use runtime::{Runtime, RuntimeBuilder};
pub use stats::{tick_size_bucket, RuntimeStats, RUNTIME_METRICS, TICK_HIST_BUCKETS};
pub use ticket::Ticket;
