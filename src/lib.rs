//! # phom — probabilistic graph homomorphism
//!
//! A complete implementation of *"Conjunctive Queries on Probabilistic
//! Graphs: Combined Complexity"* (Amarilli, Monet & Senellart, PODS 2017):
//! exact evaluation of conjunctive queries over tuple-independent
//! probabilistic graphs, with the paper's full combined-complexity
//! classification — every polynomial-time algorithm, every hardness
//! reduction, and the machinery they rest on (β-acyclic lineages, d-DNNF
//! circuits, tree automata, graded DAGs, the X-property).
//!
//! ## Quick start
//!
//! The serving surface is a long-lived [`Engine`] per probabilistic
//! instance: build it once, then solve — the classification, label set,
//! Lemma 3.7 split, and the answer cache are all paid once per instance
//! lifetime, not once per call.
//!
//! ```
//! use phom::prelude::*;
//!
//! // A probabilistic instance: a downward tree of R/S-labeled edges.
//! let (r, s) = (Label(0), Label(1));
//! let mut b = GraphBuilder::with_vertices(3);
//! b.edge(0, 1, r);
//! b.edge(1, 2, s);
//! let h = ProbGraph::new(
//!     b.build(),
//!     vec![Rational::from_ratio(1, 2), Rational::from_ratio(3, 4)],
//! );
//!
//! // The engine owns the instance-side state and a bounded answer cache.
//! let engine = Engine::builder().cache_capacity(1024).build(h);
//!
//! // The query: does an R-edge followed by an S-edge exist? The solver
//! // routes this to Prop 4.10 territory and answers exactly:
//! // 1/2 · 3/4 = 3/8.
//! let g = Graph::one_way_path(&[r, s]);
//! let sol = engine.solve(&g).unwrap();
//! assert_eq!(sol.probability, Rational::from_ratio(3, 8));
//!
//! // A repeat is served from the cache without touching the solver.
//! let again = engine.solve(&g).unwrap();
//! assert_eq!(again.probability, sol.probability);
//! assert_eq!(engine.cache_stats().hits, 1);
//! ```
//!
//! ## Crate map
//!
//! | crate | contents |
//! |---|---|
//! | [`num`] | arbitrary-precision naturals, exact rationals, and the algebra layer: the [`Semiring`](phom_num::Semiring) trait (Rational / `f64` / [`Natural`](phom_num::Natural) counting / `bool` / [`Dual`](phom_num::Dual) forward-mode derivatives / [`ErrF64`](phom_num::ErrF64) — f64 with a running certified error bound) refined by [`Weight`](phom_num::Weight); correctly-rounded `to_f64` conversions |
//! | [`graph`] | graphs, probabilistic graphs, classes, homomorphisms |
//! | [`lineage`] | the **unified provenance engine** ([`lineage::engine`]): one arena IR with interned gates and structural hashing, one semiring-generic bottom-up evaluator shared by positive DNFs, β-acyclicity (Thm 4.9), and d-DNNF circuits; [`FlatArena`](phom_lineage::FlatArena) — the cone-restricted flat-slab run representation behind the float tier |
//! | [`automata`] | the polytree encoding and path automata of Prop 5.4, compiling into engine arenas |
//! | [`core`] | the per-proposition algorithms and the Tables 1–3 dispatcher, behind the serving surface of [`core::engine`]: a long-lived [`Engine`] per instance (a bounded LRU answer cache behind a [`CacheHandle`](phom_core::CacheHandle) that many engines can share, sharded [`Engine::submit`], the [`Tick`](phom_core::Tick) seam for external pools) and typed [`Request`]/[`Response`] |
//! | [`serve`] | the **persistent serving runtime**: [`Runtime`] with **work-conserving** micro-batching ticks over a worker pool spawned once (an idle lane flushes at once; requests wait for company only while a tick of their lane is in flight), bounded-queue backpressure ([`SolveError::Overloaded`]), [`Ticket`]s, graceful drain, [`RuntimeStats`] |
//! | [`net`] | the **network front end**: a TCP [`NetServer`] + [`NetClient`] speaking the length-prefixed JSON protocol of [`net::wire`] over a shared [`Runtime`] (`phom serve --listen ADDR`) |
//! | [`fleet`] | the **multi-process sharded fleet**: a front-door [`Router`] on one address fanning out to member `phom serve` processes — weighted rendezvous routing on the instance fingerprint, lazy broadcast-on-demand registration, the `move` re-register handoff, typed `member_unavailable` health, and fleet-wide stats rollup (`phom router --listen ADDR --members FILE`) |
//! | `obs` | **zero-dependency observability**: [`TraceId`](phom_serve::TraceId)s, per-stage [`Span`](phom_serve::Span)s in a lock-free overwrite-oldest [`SpanRing`](phom_serve::SpanRing), mergeable log-linear latency [`Histogram`](phom_serve::Histogram)s (p50/p90/p99 within a 12.5% bucket bound), and the [`PromText`](phom_serve::PromText) Prometheus text renderer — threaded through every serving layer (see "Observability" below) |
//! | [`reductions`] | executable #P-hardness reductions (Props 3.3/3.4/4.1/5.6) |
//!
//! ## Requests: one surface for every workload
//!
//! A [`Request`] names the workload; [`Engine::submit`] answers a whole
//! batch of them (interned, cached, and sharded across the engine's
//! worker threads) with one typed [`Response`] each:
//!
//! ```
//! use phom::prelude::*;
//!
//! let (r, s) = (Label(0), Label(1));
//! let mut b = GraphBuilder::with_vertices(3);
//! b.edge(0, 1, r);
//! b.edge(1, 2, s);
//! let h = ProbGraph::new(
//!     b.build(),
//!     vec![Rational::from_ratio(1, 2), Rational::from_ratio(1, 2)],
//! );
//! let engine = Engine::new(h);
//!
//! let rs = Graph::one_way_path(&[r, s]);
//! let batch = [
//!     // Pr(G ⇝ H), with a provenance circuit attached.
//!     Request::probability(rs.clone()).with_provenance(),
//!     // Model counting: in how many worlds does G match? (all-½ edges)
//!     Request::probability(rs.clone()).counting(),
//!     // Sensitivity: every edge influence ∂Pr/∂π(e).
//!     Request::probability(rs.clone()).sensitivity(),
//!     // A union of conjunctive queries.
//!     Request::ucq(Ucq::new(vec![rs, Graph::one_way_path(&[r])])),
//! ];
//! let answers = engine.submit(&batch);
//!
//! let Ok(Response::Probability(sol)) = &answers[0] else { panic!() };
//! let prov = sol.provenance.as_ref().expect("Prop 4.10 compiles a circuit");
//! assert_eq!(prov.probability::<Rational>(engine.instance().probs()), sol.probability);
//!
//! let Ok(Response::Count { worlds, .. }) = &answers[1] else { panic!() };
//! assert_eq!(worlds.to_u64(), Some(1)); // only the both-edges world
//!
//! let Ok(Response::Sensitivity { influences, .. }) = &answers[2] else { panic!() };
//! assert_eq!(influences.len(), 2);
//!
//! let Ok(Response::Ucq { probability, .. }) = &answers[3] else { panic!() };
//! assert_eq!(probability, &Rational::from_ratio(1, 2)); // the R-edge alone
//! ```
//!
//! Hardness is a typed error — [`SolveError::Hard`] — rather than the
//! historical bare `Err(Hardness)`; configure a
//! [`Fallback`] per request (or per engine) to turn
//! hard cells into brute-force or Monte-Carlo answers.
//!
//! ## Evaluation modes: exact, float, auto
//!
//! Probability answers come in three precision tiers, chosen per request
//! (or per engine via `SolverOptions::precision`) with the
//! [`Precision`] knob:
//!
//! * **`Precision::Exact`** (the default) — arbitrary-precision rational
//!   arithmetic through the whole pipeline, answers as
//!   [`Response::Probability`]. Nothing changes for existing callers.
//! * **`Precision::Float { max_rel_err }`** — the route computes in
//!   [`ErrF64`](phom_num::ErrF64): `f64` values with a **certified
//!   running error bound** (standard ulp accounting per
//!   add/mul/complement, seeded by the correctly-rounded
//!   `Rational::to_f64` leaf conversions). On the circuit routes (Props
//!   4.10/4.11, connected instances) the lineage circuit is compiled
//!   once into a [`FlatArena`](phom_lineage::FlatArena) (topologically
//!   ordered contiguous slab, non-recursive evaluation) and evaluated
//!   there; the direct DPs of Props 3.6 and 5.4, and the β-acyclic
//!   lineages of Props 4.10/4.11 on a disconnected instance's
//!   components, run over `ErrF64` themselves, with Lemma 3.7's
//!   `1 − Π(1 − pᵢ)` combining the components in the same arithmetic. The
//!   answer is [`Response::Approximate`]`{ value, rel_err_bound, route }`
//!   — always served, with an honest bound even when it misses the
//!   tolerance.
//! * **`Precision::Auto { max_rel_err }`** — float first; when the
//!   certified bound exceeds the tolerance the request **escalates to
//!   the same exact rational pass** `Exact` runs, so escalated answers
//!   are bit-for-bit identical to exact ones
//!   (`tests/float_exact_differential.rs` pins this on hundreds of
//!   randomized cases). Float answers and escalations are counted in
//!   [`BatchStats`](phom_core::BatchStats)' `float_evaluated` and
//!   `escalations` and surfaced in [`RuntimeStats`].
//!
//! The other routes — trivial answers and fallbacks — compute exactly;
//! under `Float` their exact answer is reported approximately (half-ulp
//! bound), under `Auto` it is reported exactly. Provenance-bearing requests, counting, sensitivity,
//! and UCQ are always answered exactly; the precision (tolerance bits included) is
//! part of the cache key, so float and exact answers can never alias —
//! not in an engine's cache, a cache shared by several engines, or over
//! the wire (`tests/precision_cache_isolation.rs`).
//!
//! ```
//! use phom::prelude::*;
//!
//! let (r, s) = (Label(0), Label(1));
//! let mut b = GraphBuilder::with_vertices(3);
//! b.edge(0, 1, r);
//! b.edge(1, 2, s);
//! // Pr(R·S) = 1/3 · 3/4 = 1/4 — but 1/3 is not a binary float, so the
//! // float tier's leaves carry rounding error from the start.
//! let h = ProbGraph::new(
//!     b.build(),
//!     vec![Rational::from_ratio(1, 3), Rational::from_ratio(3, 4)],
//! );
//! let engine = Engine::new(h);
//! let q = Graph::one_way_path(&[r, s]);
//!
//! // Float: an f64 answer inside its own certified bound.
//! let float = engine.submit(&[Request::probability(q.clone())
//!     .precision(Precision::Float { max_rel_err: 1e-9 })]);
//! let Ok(Response::Approximate { value, rel_err_bound, .. }) = &float[0] else { panic!() };
//! assert!((value - 0.25).abs() <= rel_err_bound * value.abs() + f64::EPSILON);
//!
//! // Auto under an impossible tolerance: the bound can't certify 0, so
//! // the request escalates — and the answer is exactly 1/4, not a float.
//! let (strict, stats) = engine.submit_stats(&[Request::probability(q.clone())
//!     .precision(Precision::Auto { max_rel_err: 0.0 })]);
//! let Ok(Response::Probability(sol)) = &strict[0] else { panic!() };
//! assert_eq!(sol.probability, Rational::from_ratio(1, 4));
//! assert_eq!(stats.escalations, 1);
//!
//! // The tiers never share cache entries: three requests, zero hits.
//! let exact = engine.submit(&[Request::probability(q)]);
//! assert!(matches!(&exact[0], Ok(Response::Probability(_))));
//! assert_eq!(engine.cache_stats().hits, 0);
//! ```
//!
//! `examples/float_serving.rs` walks the escalation behavior on a
//! genuinely ill-conditioned circuit; the CLI exposes the same knob as
//! `--precision exact|float:<tol>|auto[:<tol>]` on `phom solve`, and the
//! wire protocol as a per-request `"precision"` field answered by
//! `"type": "approximate"` results with a `rel_err` bound (see
//! [`net::wire`]).
//!
//! ## The degradation ladder: no request left behind
//!
//! Every request ends in **exactly one** typed terminal state, chosen
//! by descending a ladder of increasingly degraded — but always
//! *certified* — answers. Nothing on the ladder is silent: each rung is
//! a distinct [`Response`] variant or [`SolveError`] code, so a client
//! always knows what kind of answer it holds.
//!
//! 1. **Exact** — [`Response::Probability`], arbitrary-precision
//!    rational (the default, paper-faithful).
//! 2. **Float** — [`Response::Approximate`] with a certified relative
//!    error bound (`Precision::Float` / `Auto`, above).
//! 3. **Estimate** — [`Response::Estimate`]: a 95% confidence interval
//!    from a budgeted, deterministically seeded Monte-Carlo run. Opt-in
//!    per request via [`Request::on_hard`]`(`[`OnHard::Estimate`]`)`:
//!    a #P-hard cell degrades to an interval instead of erroring, and a
//!    deadline or time budget tripping **after at least one sample**
//!    returns the truncated (honestly wider) interval — the *anytime*
//!    contract: partial work is still a certified answer.
//! 4. **Typed error** — [`SolveError::Hard`] (hard cell, no degradation
//!    requested), [`SolveError::DeadlineExceeded`] (the wall-clock
//!    deadline set by [`Request::deadline`] expired — in queue or at a
//!    cooperative checkpoint inside evaluation), or
//!    [`SolveError::BudgetExceeded`] (a [`Request::budget`] cap on
//!    samples / gates / time tripped before any certifiable answer).
//!
//! Deadlines are enforced *inside* evaluation by cooperative
//! [`WorkMeter`](phom_lineage::WorkMeter) checkpoints threaded through
//! the circuit evaluators and the sampler — a stuck or oversized
//! evaluation stops itself rather than wedging a worker. A deadline
//! never changes *what* is computed, so it is not part of the cache
//! key; a [`Budget`] does, so it is.
//!
//! ```
//! use phom::prelude::*;
//!
//! // Figure 1's instance is a #P-hard cell for the Example 2.2 query.
//! let engine = Engine::new(phom::graph::fixtures::figure_1());
//! let g = phom::graph::fixtures::example_2_2_query();
//!
//! // Rung 4 (default policy): hardness is a typed error.
//! let strict = engine.submit(&[Request::probability(g.clone())]);
//! assert!(matches!(&strict[0], Err(SolveError::Hard(_))));
//!
//! // Rung 3: opt in to degradation — the same hard cell now answers a
//! // certified interval from a sample-budgeted Monte-Carlo run.
//! let soft = engine.submit(&[Request::probability(g.clone())
//!     .on_hard(OnHard::Estimate)
//!     .budget(Budget::unlimited().with_samples(2_000))]);
//! let Ok(Response::Estimate { lo, hi, samples, .. }) = &soft[0] else { panic!() };
//! assert!(lo <= hi && *samples == 2_000);
//!
//! // The sampler is seeded from the query content: a retry returns the
//! // bit-identical interval (and different budgets never share cache
//! // entries, so this is a genuine re-run).
//! let again = engine.submit(&[Request::probability(g.clone())
//!     .on_hard(OnHard::Estimate)
//!     .budget(Budget::unlimited().with_samples(2_000))]);
//! let Ok(Response::Estimate { lo: lo2, hi: hi2, .. }) = &again[0] else { panic!() };
//! assert!(lo == lo2 && hi == hi2);
//! ```
//!
//! The serving layers complete the "no request left behind" story: the
//! [`serve`] runtime classifies every request into a [`Lane`]
//! (cheap-exact work never queues behind sampling or escalation),
//! sheds requests whose deadline expired **while queued** with
//! [`SolveError::DeadlineExceeded`] at flush time, and counts every
//! outcome in [`RuntimeStats`] (`shed_expired`, `estimates`,
//! `deadline_exceeded`, `budget_exceeded`, per-lane depths) so the
//! books always balance: admitted = completed + cancelled + shed. The
//! wire protocol carries `deadline_ms` / `budget` / `on_hard` per
//! request and a `"type": "estimate"` result frame (see [`net::wire`]).
//!
//! ## Serving at scale: four layers
//!
//! The serving stack is four layers, each usable on its own and each
//! proven **bit-identical** to direct [`Engine::submit`] by its
//! differential suite:
//!
//! 1. **The engine tick seam** ([`core::engine`]):
//!    [`Engine::begin_tick_with`](phom_core::Engine::begin_tick_with) plans a
//!    batch into `Send + 'static` [`TickUnit`](phom_core::TickUnit)s
//!    that any pool may run, and
//!    [`Tick::finish`](phom_core::Tick::finish) assembles the answers.
//!    [`TickConfig::share_arena_at`](phom_core::TickConfig) enables
//!    **cross-shard arena sharing**: large ticks compile every
//!    circuit-compilable plan into *one* shared arena and partition the
//!    roots across the shards (one cone-restricted multi-root pass
//!    each) instead of building per-shard arenas.
//! 2. **The persistent runtime** ([`serve`]): a pool of worker threads
//!    spawned **once** at startup, a bounded ingress queue, and
//!    **work-conserving tick-based micro-batching** — when a waiting
//!    request's lane (fast exact work or slow sampling work) has no
//!    tick in flight the batcher flushes at once, so light load pays no
//!    patience; while the lane is busy, enqueued requests wait for
//!    company until `max_batch` are waiting, the oldest has waited
//!    `max_wait`, or the lane goes idle.
//!    [`Runtime::enqueue`] returns a [`Ticket`] (blocking
//!    [`wait`](Ticket::wait), non-blocking [`try_get`](Ticket::try_get),
//!    [`cancel`](Ticket::cancel)); a full queue answers
//!    [`SolveError::Overloaded`] immediately (backpressure), and
//!    [`Runtime::shutdown`] drains every admitted request before
//!    stopping. [`RuntimeStats`] exposes tick-size histograms, the
//!    queue-depth high-water mark, and the shared cache counters.
//! 3. **The network front end** ([`net`]): `phom serve --listen ADDR`
//!    (or [`NetServer`] in process) speaks a length-prefixed JSON
//!    protocol over plain TCP — one 4-byte big-endian length then one
//!    JSON document per frame, both directions. Ops map 1:1 onto the
//!    runtime: `register` → [`Runtime::register`] (returns the hex
//!    version fingerprint), `submit` → [`Runtime::enqueue_to`] (returns
//!    a ticket id, or a typed `{"err":{"code":"overloaded",…}}` frame
//!    when the bounded queue is full — backpressure reaches the wire),
//!    `poll`/`cancel` → the [`Ticket`], `stats` →
//!    [`Runtime::stats`]. Results travel in a canonical encoding
//!    (exact rational strings + route names) that
//!    `tests/net_serving.rs` compares byte-for-byte against in-process
//!    oracle answers; `tests/soak_net.rs` saturates it from eight
//!    concurrent connections and drains it mid-traffic. A `hello`
//!    first frame upgrades a connection to **protocol v2** —
//!    client-tagged frames, a negotiated in-flight window, pushed
//!    completions instead of `poll`, and streaming `submit_batch`
//!    ([`net::MuxClient`] is the pipelined client). See [`net::wire`]
//!    for the protocol reference and `docs/wire-protocol.md` for the
//!    exhaustive v1+v2 frame tables.
//! 4. **The fleet front door** ([`fleet`]): `phom router --listen ADDR
//!    --members FILE` (or a [`Router`] in process) puts one address in
//!    front of N member `phom serve` processes. Membership is **static
//!    and gossip-free** ([`MemberSpec`]); routing is **weighted
//!    rendezvous hashing** on the instance fingerprint, so membership
//!    edits move only the affected instances. Registration is
//!    broadcast-on-demand (the router caches the canonical instance
//!    encoding and forwards it to the owning member lazily — members
//!    ack repeats with the cheap `registered: "cached"` fast path);
//!    the admin `move` op warms an instance on its new member, flips
//!    routing atomically, and drains-and-deregisters the old copy
//!    while pre-flip tickets keep resolving through it. A dead member
//!    surfaces as typed `member_unavailable` frames — submits are
//!    never silently retried — and the router's `stats` op aggregates
//!    every member's [`RuntimeStats`] plus a rollup.
//!    `tests/fleet_serving.rs` proves a 3-process fleet byte-identical
//!    to the in-process oracle through a mid-traffic handoff and a
//!    member kill; `examples/fleet_router.rs` walks the whole story in
//!    process.
//!
//! ### Observability: traces, histograms, metrics
//!
//! All four layers share one zero-dependency observability spine
//! (`phom_obs`, re-exported through [`serve`]):
//!
//! * **Tracing** — every request carries a
//!   [`TraceId`](phom_serve::TraceId), minted at the front door (the
//!   net server, or the fleet router, which injects it into the
//!   forwarded frame) and echoed in the submit ack as a `"trace"` hex
//!   field old peers simply ignore. Each layer records per-stage
//!   [`Span`](phom_serve::Span)s — `admitted`, `queued`, `planned`,
//!   `evaluated` (shared-gate count in `detail`), `encoded`, and
//!   `routed` at the router — into a fixed-size lock-free
//!   overwrite-oldest [`SpanRing`](phom_serve::SpanRing): no hot-path
//!   allocation, torn slots skipped on read. The `trace` wire op
//!   returns the span breakdown for one trace id (a router fans out to
//!   members and merges its own routing spans in) or the N `slowest`
//!   requests still in the ring; `phom client <query> <instance>
//!   --connect ADDR --trace` prints it per stage.
//! * **Histograms** — [`RuntimeStats`] carries mergeable log-linear
//!   latency [`Histogram`](phom_serve::Histogram)s (quantile error
//!   bounded by the 1/8 relative bucket width): end-to-end request and
//!   queue-wait latency per [`Lane`], and per-stage plan/eval/encode
//!   time. The `stats` wire frame carries them sparsely
//!   (`{count,sum,max,buckets:[[idx,n],…]}`), and the router's rollup
//!   merges member histograms bucket-wise — fleet-wide p99 without
//!   member-side aggregation. `phom top --connect ADDR` renders the
//!   quantiles live against either a server or a router.
//! * **Metrics exposition** — the `metrics` wire op returns Prometheus
//!   text format. Each metric is one row of a `const` table
//!   ([`RUNTIME_METRICS`](phom_serve::RUNTIME_METRICS),
//!   [`NET_METRICS`](phom_net::NET_METRICS),
//!   [`ROUTER_METRICS`](phom_fleet::ROUTER_METRICS),
//!   [`FLEET_METRICS`](phom_fleet::FLEET_METRICS)) holding its `stats`
//!   JSON key, Prometheus family, labels, kind and HELP, so the `stats`
//!   reply, the `metrics` text and the router's rollup cannot drift.
//!   The router serves the same histogram names fleet-merged plus
//!   `phom_router_*`/`phom_fleet_*` families, so one dashboard works at
//!   either level. `docs/metrics.md` lists every name.
//!
//! The runtime layer in five lines — answers bit-identical to
//! [`Engine::submit`] under every `max_batch` / `max_wait` /
//! worker-count setting (`tests/runtime_serving.rs`):
//!
//! ```
//! use phom::prelude::*;
//! use std::time::Duration;
//!
//! let h = ProbGraph::new(Graph::directed_path(2), vec![
//!     Rational::from_ratio(1, 2), Rational::from_ratio(1, 2)]);
//! let runtime = Runtime::builder()
//!     .max_batch(32)                          // tick flush threshold
//!     .max_wait(Duration::from_millis(1))     // batching patience
//!     .queue_cap(256)                         // admission control
//!     .workers(2)                             // pool size, spawned once
//!     .build();
//! let version = runtime.register(h);
//!
//! // Any number of threads enqueue concurrently; one tick serves them.
//! let t1 = runtime.enqueue(Request::probability(Graph::directed_path(1))).unwrap();
//! let t2 = runtime
//!     .enqueue_to(version, Request::probability(Graph::directed_path(2)))
//!     .unwrap();
//! assert_eq!(t1.wait().unwrap().probability(), Some(&Rational::from_ratio(3, 4)));
//! assert_eq!(t2.wait().unwrap().probability(), Some(&Rational::from_ratio(1, 4)));
//!
//! let stats = runtime.shutdown();             // drains, then stops the pool
//! assert_eq!(stats.completed, 2);
//! assert_eq!(stats.workers_started, 2);       // spawned exactly once
//! ```
//!
//! The same engines remain directly usable: [`Engine::submit`] answers
//! a batch on the calling thread through the same tick seam (the
//! runtime's pool is where evaluation runs in parallel),
//! [`EngineBuilder::shared_cache`] builds one engine per instance
//! *version* on one shared bounded cache (the cache key embeds the
//! [`instance_fingerprint`](phom_core::instance_fingerprint), so
//! answers never cross versions), and the cache holds **every**
//! response kind: probability solutions, counting, sensitivity, and UCQ
//! answers, under kind-tagged keys.
//!
//! ```
//! use phom::prelude::*;
//!
//! let h_v1 = ProbGraph::new(Graph::directed_path(2), vec![
//!     Rational::from_ratio(1, 2), Rational::from_ratio(1, 2)]);
//! let mut h_v2_probs = h_v1.probs().to_vec();
//! h_v2_probs[0] = Rational::one();
//! let h_v2 = ProbGraph::new(h_v1.graph().clone(), h_v2_probs);
//!
//! let cache = CacheHandle::with_capacity(4096);
//! let on_cache = |h| Engine::builder().shared_cache(cache.clone()).build(h);
//! let (v1, v2) = (on_cache(h_v1), on_cache(h_v2));
//! assert_ne!(v1.fingerprint(), v2.fingerprint());
//! let q = Request::probability(Graph::directed_path(1));
//! let a1 = v1.submit(&[q.clone()]);
//! let a2 = v2.submit(&[q]);
//! assert_eq!(a1[0].as_ref().unwrap().probability(), Some(&Rational::from_ratio(3, 4)));
//! assert_eq!(a2[0].as_ref().unwrap().probability(), Some(&Rational::one()));
//! assert_eq!(cache.stats().misses, 2); // one entry per version
//! ```
//!
//! Beyond the paper's own results, the workspace implements its Section 6
//! future-work program: **bounded-treewidth instances**
//! ([`graph::treedecomp`] + [`core::algo::walk_on_tw`]), **unions of
//! conjunctive queries** ([`core::ucq`], served via [`Request::ucq`]),
//! **model counting** through the engine's
//! counting semiring ([`core::counting`], served via
//! [`Request::counting`](Request::counting)), and **sensitivity
//! analysis** — engine gradients, dual-number forward mode, conditioning
//! and most-probable witnesses ([`lineage::analysis`],
//! [`core::sensitivity`], served via
//! [`Request::sensitivity`](Request::sensitivity)).

pub use phom_automata as automata;
pub use phom_core as core;
pub use phom_fleet as fleet;
pub use phom_graph as graph;
pub use phom_lineage as lineage;
pub use phom_net as net;
pub use phom_num as num;
pub use phom_reductions as reductions;
pub use phom_serve as serve;

pub use phom_core::{
    Budget, Engine, EngineBuilder, Fallback, Hardness, Lane, OnHard, Precision, Request, Response,
    Route, Solution, SolveError, SolverOptions, TickConfig, WorkerScratch,
};
pub use phom_fleet::{MemberSpec, Router, RouterBuilder, RouterStats};
pub use phom_net::{Client as NetClient, NetError, NetStats, Server as NetServer, WireRequest};
pub use phom_serve::{Runtime, RuntimeBuilder, RuntimeStats, Ticket};

pub mod cli;

/// The most common imports, for examples and downstream users.
pub mod prelude {
    pub use phom_core::ucq::Ucq;
    pub use phom_core::{
        BatchStats, Budget, CacheHandle, CacheStats, Engine, EngineBuilder, Fallback, Lane, OnHard,
        Precision, Request, Response, Route, Solution, SolveError, SolverOptions, TickConfig,
    };
    pub use phom_fleet::{MemberSpec, Router, RouterBuilder, RouterStats};
    pub use phom_graph::{classify, Dir, Graph, GraphBuilder, Label, ProbGraph};
    pub use phom_lineage::{FlatArena, Provenance, VarStatus};
    pub use phom_net::{
        Client as NetClient, NetError, NetStats, Server as NetServer, WireFallback, WireRequest,
    };
    pub use phom_num::{ErrF64, Rational, Semiring, Weight};
    pub use phom_serve::{Runtime, RuntimeBuilder, RuntimeStats, Ticket};
}

#[cfg(test)]
mod tests {
    #[test]
    fn facade_reexports_work() {
        let h = crate::graph::fixtures::figure_1();
        let g = crate::graph::fixtures::example_2_2_query();
        let p = crate::core::bruteforce::probability(&g, &h);
        assert_eq!(p, crate::graph::fixtures::example_2_2_answer());
    }

    #[test]
    fn engine_facade_serves() {
        let h = crate::graph::fixtures::figure_1();
        let engine = crate::Engine::new(h.clone());
        let g = crate::graph::fixtures::example_2_2_query();
        // Figure 1's instance is a hard cell for this query: typed error.
        let err = engine.solve(&g).unwrap_err();
        assert!(matches!(err, crate::SolveError::Hard(_)));
    }
}
