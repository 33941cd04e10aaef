//! Serving observability: queue depth, tick shapes, per-unit (shard)
//! latencies, aggregated batch counters, and the shared answer-cache
//! counters — everything a capacity planner or a dashboard needs from a
//! long-lived runtime.

use phom_core::{BatchStats, CacheStats};
use phom_obs::Kind::{self, Counter, HighWater, Level};
use phom_obs::{Histogram, Metric, PromText, Value};

/// Number of buckets in [`RuntimeStats::tick_size_hist`].
pub const TICK_HIST_BUCKETS: usize = 8;

/// The histogram bucket a tick of `n` requests falls in: power-of-two
/// buckets `[1]`, `[2–3]`, `[4–7]`, `[8–15]`, `[16–31]`, `[32–63]`,
/// `[64–127]`, `[≥128]`.
///
/// Ticks are flushed only when non-empty, so `n >= 1` always holds in
/// practice; `n == 0` would silently land in bucket 0 (labeled `[1]`),
/// which is why debug builds assert against it.
pub fn tick_size_bucket(n: usize) -> usize {
    debug_assert!(n >= 1, "tick_size_bucket: ticks are never empty (n = 0)");
    if n <= 1 {
        0
    } else {
        ((usize::BITS - 1 - n.leading_zeros()) as usize).min(TICK_HIST_BUCKETS - 1)
    }
}

/// A point-in-time snapshot of a [`Runtime`](crate::Runtime)'s
/// activity. Monotonic counters describe the runtime's lifetime;
/// `queue_depth` and `cache` are sampled at snapshot time.
#[derive(Clone, Debug, Default)]
pub struct RuntimeStats {
    /// Configured worker-pool size.
    pub workers: usize,
    /// Worker threads that ever started. Equals `workers` for the whole
    /// runtime lifetime — workers are spawned exactly once, at startup,
    /// never per batch.
    pub workers_started: u64,
    /// Requests currently waiting in the ingress queue (both lanes).
    pub queue_depth: usize,
    /// High-water mark of the ingress queue depth (sampled at every
    /// admission).
    pub queue_depth_max: usize,
    /// Requests currently waiting in the fast lane (cheap exact plans).
    pub fast_lane_depth: usize,
    /// Requests currently waiting in the slow lane (sampling,
    /// escalation-prone, and non-probability work).
    pub slow_lane_depth: usize,
    /// High-water mark of the fast-lane depth.
    pub fast_lane_depth_max: usize,
    /// High-water mark of the slow-lane depth.
    pub slow_lane_depth_max: usize,
    /// Requests ever admitted into the fast lane.
    pub fast_lane_total: u64,
    /// Requests ever admitted into the slow lane.
    pub slow_lane_total: u64,
    /// Requests admitted past admission control.
    pub admitted: u64,
    /// Requests rejected with `SolveError::Overloaded` (queue full).
    pub rejected: u64,
    /// Admitted requests whose ticket resolved
    /// `Err(SolveError::Cancelled)` — skipped before execution or
    /// cancelled mid-flight.
    pub cancelled: u64,
    /// Tickets fulfilled with a computed response (or typed error).
    pub completed: u64,
    /// Requests already past their deadline when their tick flushed,
    /// shed from the queue with `SolveError::DeadlineExceeded` without
    /// executing.
    pub shed_expired: u64,
    /// Ticks currently dispatched to the pool and not yet finished.
    pub ticks_in_flight: usize,
    /// Ticks run, of two kinds: each batcher flush (at once for an idle
    /// lane; by size or by the `max_wait` timer while a lane has a tick
    /// in flight), and each admission tick — an admission call whose
    /// every request was already cached, run whole on the admitting
    /// thread.
    pub ticks: u64,
    /// Requests across all ticks of both kinds (mean tick size =
    /// `total_tick_requests / ticks`); an admission tick adds its
    /// call's admitted requests.
    pub total_tick_requests: u64,
    /// Largest tick of either kind so far, in requests.
    pub max_tick_requests: usize,
    /// Tick-size histogram over both kinds of tick: [`tick_size_bucket`]
    /// buckets (`[1]`, `[2–3]`, `[4–7]`, …, `[≥128]`); the bucket counts
    /// sum to [`ticks`](RuntimeStats::ticks).
    pub tick_size_hist: [u64; TICK_HIST_BUCKETS],
    /// Tick groups (one per instance version within a tick) that
    /// compiled their circuit plans into one cross-shard shared arena
    /// (the large-tick path).
    pub shared_arena_ticks: u64,
    /// Gates across all tick arenas (shared and per-shard).
    pub shared_gates: u64,
    /// Work units executed by the pool (shards + single requests).
    pub unit_runs: u64,
    /// Total wall time inside unit execution, i.e. the per-shard
    /// latency aggregate (`unit_nanos_total / unit_runs` = mean).
    pub unit_nanos_total: u64,
    /// Slowest single unit so far.
    pub unit_nanos_max: u64,
    /// Total wall time per tick group (plan → dispatch → tickets
    /// claimed).
    pub tick_nanos_total: u64,
    /// Slowest tick so far.
    pub tick_nanos_max: u64,
    /// Probability queries across all ticks (the [`BatchStats`]
    /// aggregate).
    pub queries: u64,
    /// Structurally distinct (query, options) pairs after interning.
    pub unique_queries: u64,
    /// Unique queries answered from the shared cache during planning.
    pub batch_cache_hits: u64,
    /// Unique queries answered through a shard's multi-root engine pass.
    pub circuit_batched: u64,
    /// Unique queries answered on the general per-query path.
    pub general_solved: u64,
    /// Unique circuit and DP (Prop 3.6 / 5.4) queries answered by the
    /// float evaluation tier (`Precision::Float` / `Auto` within
    /// tolerance).
    pub float_evaluated: u64,
    /// `Precision::Auto` circuit and DP queries whose certified bound
    /// exceeded the tolerance and were re-evaluated exactly.
    pub escalations: u64,
    /// Requests answered with a certified interval
    /// ([`Response::Estimate`](phom_core::Response::Estimate)) because a
    /// hard cell degraded under `OnHard::Estimate`.
    pub estimates: u64,
    /// Requests that resolved `SolveError::DeadlineExceeded` *inside*
    /// evaluation (a cooperative checkpoint tripped mid-work; queue
    /// sheds are counted in
    /// [`shed_expired`](RuntimeStats::shed_expired) instead).
    pub deadline_exceeded: u64,
    /// Requests that resolved `SolveError::BudgetExceeded` (a work
    /// budget — gates, samples, or time — ran out mid-evaluation).
    pub budget_exceeded: u64,
    /// Unit runs that reused a worker's pooled evaluation scratch
    /// (every run after a worker's first — the allocation-free path).
    pub scratch_reuse: u64,
    /// Time fast-lane requests spent waiting in their queue (admission →
    /// flush), in nanoseconds. Quantile-grade ([`Histogram::quantile`]),
    /// where [`unit_nanos_total`](RuntimeStats::unit_nanos_total)-style
    /// flat sums only give means.
    pub queue_ns_fast: Histogram,
    /// Time slow-lane requests spent waiting in their queue.
    pub queue_ns_slow: Histogram,
    /// Per-tick-group planning time (`begin_tick_with`: interning,
    /// cache probe, shard/unit construction), in nanoseconds.
    pub plan_ns: Histogram,
    /// Per-tick-group circuit/float evaluation time (dispatch → last
    /// worker reports), in nanoseconds.
    pub eval_ns: Histogram,
    /// Per-tick-group result materialization + ticket claim time (the
    /// answers are published after the group is recorded), in
    /// nanoseconds.
    pub encode_ns: Histogram,
    /// End-to-end latency of completed fast-lane requests (admission →
    /// ticket claimed), in nanoseconds.
    pub request_ns_fast: Histogram,
    /// End-to-end latency of completed slow-lane requests.
    pub request_ns_slow: Histogram,
    /// The shared answer cache's counters (hits/misses/evictions/size).
    pub cache: CacheStats,
}

impl RuntimeStats {
    /// Mean tick size in requests over batcher flushes and admission
    /// ticks alike (0 before the first tick). Under mostly cached
    /// traffic it tends to the size of an admission call, whatever the
    /// batcher does with the misses.
    pub fn mean_tick_requests(&self) -> f64 {
        if self.ticks == 0 {
            0.0
        } else {
            self.total_tick_requests as f64 / self.ticks as f64
        }
    }

    /// Mean unit (shard) latency in microseconds (0 before the first
    /// unit).
    pub fn mean_unit_micros(&self) -> f64 {
        if self.unit_runs == 0 {
            0.0
        } else {
            self.unit_nanos_total as f64 / self.unit_runs as f64 / 1e3
        }
    }

    pub(crate) fn absorb_batch(&mut self, batch: &BatchStats) {
        self.queries += batch.queries as u64;
        self.unique_queries += batch.unique_queries as u64;
        self.batch_cache_hits += batch.cache_hits as u64;
        self.circuit_batched += batch.circuit_batched as u64;
        self.general_solved += batch.general_solved as u64;
        self.float_evaluated += batch.float_evaluated as u64;
        self.escalations += batch.escalations as u64;
        self.estimates += batch.estimates as u64;
        self.deadline_exceeded += batch.deadline_exceeded as u64;
        self.budget_exceeded += batch.budget_exceeded as u64;
        self.shared_gates += batch.shared_gates as u64;
        if batch.shared_arena {
            self.shared_arena_ticks += 1;
        }
    }

    /// Admitted requests whose ticket has not resolved yet (still
    /// queued or in flight). Every admitted request ends in exactly one
    /// terminal state — completed, cancelled, or shed — so a drained
    /// runtime reports 0 here (asserted by the chaos suite).
    pub fn open_tickets(&self) -> u64 {
        self.admitted
            .saturating_sub(self.completed + self.cancelled + self.shed_expired)
    }

    /// Renders the snapshot as Prometheus text-format metrics, one
    /// family per [`RUNTIME_METRICS`] row; `docs/metrics.md` lists the
    /// names.
    pub fn prometheus_text(&self) -> String {
        let mut prom = PromText::new();
        prom.rows(RUNTIME_METRICS, self);
        prom.finish()
    }
}

/// The runtime's metrics, one row each: the `stats` reply, the
/// `metrics` text and the fleet rollup all render from this table, and
/// `docs/metrics.md` lists it.
#[rustfmt::skip]
pub const RUNTIME_METRICS: &[Metric<RuntimeStats>] = &[
    Metric::new("workers", "phom_workers", &[], Level, "configured worker-pool size", |s| s.workers.into()),
    Metric::new("queue_depth", "phom_queue_depth", &[], Level, "requests waiting in the ingress queue", |s| s.queue_depth.into()),
    Metric::new("queue_depth_max", "phom_queue_depth_max", &[], HighWater, "high-water mark of the ingress queue depth", |s| s.queue_depth_max.into()),
    Metric::new("fast_lane_depth", "phom_fast_lane_depth", &[], Level, "requests waiting in the fast lane", |s| s.fast_lane_depth.into()),
    Metric::new("slow_lane_depth", "phom_slow_lane_depth", &[], Level, "requests waiting in the slow lane", |s| s.slow_lane_depth.into()),
    Metric::new("fast_lane_depth_max", "phom_fast_lane_depth_max", &[], HighWater, "high-water mark of the fast-lane depth", |s| s.fast_lane_depth_max.into()),
    Metric::new("slow_lane_depth_max", "phom_slow_lane_depth_max", &[], HighWater, "high-water mark of the slow-lane depth", |s| s.slow_lane_depth_max.into()),
    Metric::new("fast_lane_total", "phom_lane_requests_total", &[("lane", "fast")], Counter, "requests admitted per lane", |s| s.fast_lane_total.into()),
    Metric::new("slow_lane_total", "phom_lane_requests_total", &[("lane", "slow")], Counter, "requests admitted per lane", |s| s.slow_lane_total.into()),
    Metric::new("admitted", "phom_requests_admitted_total", &[], Counter, "requests admitted past admission control", |s| s.admitted.into()),
    Metric::new("rejected", "phom_requests_rejected_total", &[], Counter, "requests rejected with Overloaded", |s| s.rejected.into()),
    Metric::new("cancelled", "phom_requests_cancelled_total", &[], Counter, "requests resolved Cancelled", |s| s.cancelled.into()),
    Metric::new("completed", "phom_requests_completed_total", &[], Counter, "tickets fulfilled with a computed response", |s| s.completed.into()),
    Metric::new("shed_expired", "phom_requests_shed_expired_total", &[], Counter, "requests shed expired-in-queue", |s| s.shed_expired.into()),
    Metric::new("open_tickets", "phom_open_tickets", &[], Level, "admitted requests not yet resolved", |s| s.open_tickets().into()),
    Metric::new("ticks_in_flight", "phom_ticks_in_flight", &[], Level, "tick groups dispatched and not yet finished", |s| s.ticks_in_flight.into()),
    Metric::new("ticks", "phom_ticks_total", &[], Counter, "ticks run: batcher flushes plus all-cached admission calls", |s| s.ticks.into()),
    Metric::new("total_tick_requests", "phom_tick_requests_total", &[], Counter, "requests across all ticks, batcher and admission", |s| s.total_tick_requests.into()),
    Metric::new("max_tick_requests", "phom_tick_requests_max", &[], HighWater, "largest tick run, in requests", |s| s.max_tick_requests.into()),
    Metric::new("tick_size_hist", "phom_ticks_by_size_total", &[], Counter, "ticks of both kinds per size bucket (bucket b holds ticks of 2^b to 2^(b+1)-1 requests, the last bucket every larger tick too)", |s| Value::Buckets(s.tick_size_hist.to_vec())),
    Metric::new("shared_arena_ticks", "phom_shared_arena_ticks_total", &[], Counter, "tick groups compiled into one shared arena", |s| s.shared_arena_ticks.into()),
    Metric::new("shared_gates", "phom_shared_gates_total", &[], Counter, "gates across all tick arenas", |s| s.shared_gates.into()),
    Metric::new("unit_runs", "phom_unit_runs_total", &[], Counter, "work units executed", |s| s.unit_runs.into()),
    Metric::new("queries", "phom_queries_total", &[], Counter, "probability queries", |s| s.queries.into()),
    Metric::new("unique_queries", "phom_unique_queries_total", &[], Counter, "structurally distinct (query, options) pairs", |s| s.unique_queries.into()),
    Metric::new("batch_cache_hits", "phom_batch_cache_hits_total", &[], Counter, "unique queries answered from the shared cache at plan time", |s| s.batch_cache_hits.into()),
    Metric::new("circuit_batched", "phom_circuit_batched_total", &[], Counter, "unique queries answered through multi-root engine passes", |s| s.circuit_batched.into()),
    Metric::new("general_solved", "phom_general_solved_total", &[], Counter, "unique queries answered on the general path", |s| s.general_solved.into()),
    Metric::new("float_evaluated", "phom_float_evaluated_total", &[], Counter, "unique circuit and DP queries answered by the float tier", |s| s.float_evaluated.into()),
    Metric::new("escalations", "phom_escalations_total", &[], Counter, "float-tier answers re-evaluated exactly", |s| s.escalations.into()),
    Metric::new("estimates", "phom_estimates_total", &[], Counter, "hard cells degraded to certified estimates", |s| s.estimates.into()),
    Metric::new("deadline_exceeded", "phom_deadline_exceeded_total", &[], Counter, "requests that tripped a deadline mid-evaluation", |s| s.deadline_exceeded.into()),
    Metric::new("budget_exceeded", "phom_budget_exceeded_total", &[], Counter, "requests that ran out of work budget", |s| s.budget_exceeded.into()),
    Metric::new("scratch_reuse", "phom_scratch_reuse_total", &[], Counter, "unit runs on pooled worker scratch", |s| s.scratch_reuse.into()),
    Metric::new("queue_ns_fast", "phom_queue_latency_ns", &[("lane", "fast")], Kind::Histogram, "queue wait (admission to flush), nanoseconds", |s| (&s.queue_ns_fast).into()),
    Metric::new("queue_ns_slow", "phom_queue_latency_ns", &[("lane", "slow")], Kind::Histogram, "queue wait (admission to flush), nanoseconds", |s| (&s.queue_ns_slow).into()),
    Metric::new("plan_ns", "phom_stage_latency_ns", &[("stage", "plan")], Kind::Histogram, "per-tick-group stage time, nanoseconds", |s| (&s.plan_ns).into()),
    Metric::new("eval_ns", "phom_stage_latency_ns", &[("stage", "eval")], Kind::Histogram, "per-tick-group stage time, nanoseconds", |s| (&s.eval_ns).into()),
    Metric::new("encode_ns", "phom_stage_latency_ns", &[("stage", "encode")], Kind::Histogram, "per-tick-group stage time, nanoseconds", |s| (&s.encode_ns).into()),
    Metric::new("request_ns_fast", "phom_request_latency_ns", &[("lane", "fast")], Kind::Histogram, "end-to-end request latency (admission to fulfillment), nanoseconds", |s| (&s.request_ns_fast).into()),
    Metric::new("request_ns_slow", "phom_request_latency_ns", &[("lane", "slow")], Kind::Histogram, "end-to-end request latency (admission to fulfillment), nanoseconds", |s| (&s.request_ns_slow).into()),
    Metric::new("cache.entries", "phom_cache_entries", &[], Level, "answer-cache entries stored", |s| s.cache.entries.into()),
    Metric::new("cache.hits", "phom_cache_hits_total", &[], Counter, "answer-cache hits", |s| s.cache.hits.into()),
    Metric::new("cache.misses", "phom_cache_misses_total", &[], Counter, "answer-cache misses", |s| s.cache.misses.into()),
    Metric::new("cache.evictions", "phom_cache_evictions_total", &[], Counter, "answer-cache LRU evictions", |s| s.cache.evictions.into()),
];
