//! Serving observability: queue depth, tick shapes, per-unit (shard)
//! latencies, aggregated batch counters, and the shared answer-cache
//! counters — everything a capacity planner or a dashboard needs from a
//! long-lived runtime.

use phom_core::{BatchStats, CacheStats};
use phom_obs::Histogram;

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
    /// Micro-batch ticks flushed (at once for an idle lane; by size or
    /// by the `max_wait` timer while a lane has a tick in flight).
    pub ticks: u64,
    /// Requests across all ticks (mean tick size =
    /// `total_tick_requests / ticks`).
    pub total_tick_requests: u64,
    /// Largest tick flushed so far.
    pub max_tick_requests: usize,
    /// Tick-size histogram: [`tick_size_bucket`] buckets
    /// (`[1]`, `[2–3]`, `[4–7]`, …, `[≥128]`); the bucket counts sum to
    /// [`ticks`](RuntimeStats::ticks).
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
    /// Total wall time per tick (plan → dispatch → fulfill).
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
    /// Unique circuit queries answered by the float evaluation tier
    /// (`Precision::Float` / `Auto` within tolerance).
    pub float_evaluated: u64,
    /// `Precision::Auto` circuit queries whose certified bound exceeded
    /// the tolerance and were re-evaluated exactly.
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
    /// Per-tick-group result materialization + ticket fulfillment time,
    /// in nanoseconds.
    pub encode_ns: Histogram,
    /// End-to-end latency of completed fast-lane requests (admission →
    /// ticket fulfilled), in nanoseconds.
    pub request_ns_fast: Histogram,
    /// End-to-end latency of completed slow-lane requests.
    pub request_ns_slow: Histogram,
    /// The shared answer cache's counters (hits/misses/evictions/size).
    pub cache: CacheStats,
}

impl RuntimeStats {
    /// Mean tick size in requests (0 before the first tick).
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

    /// Renders the snapshot as Prometheus text-format metrics — the
    /// body of the `metrics` wire op. Metric names are stable
    /// (`tests/net_serving.rs` asserts the ones scrapers rely on):
    ///
    /// * counters: `phom_requests_{admitted,rejected,cancelled,completed,shed_expired}_total`,
    ///   `phom_lane_requests_total{lane=…}`, `phom_ticks_total`,
    ///   `phom_tick_requests_total`, `phom_shared_arena_ticks_total`,
    ///   `phom_shared_gates_total`, `phom_unit_runs_total`,
    ///   `phom_queries_total`, `phom_unique_queries_total`,
    ///   `phom_batch_cache_hits_total`, `phom_circuit_batched_total`,
    ///   `phom_general_solved_total`, `phom_float_evaluated_total`,
    ///   `phom_escalations_total`, `phom_estimates_total`,
    ///   `phom_deadline_exceeded_total`, `phom_budget_exceeded_total`,
    ///   `phom_scratch_reuse_total`,
    ///   `phom_cache_{hits,misses,evictions}_total`;
    /// * gauges: `phom_workers`, `phom_queue_depth`,
    ///   `phom_fast_lane_depth`, `phom_slow_lane_depth`,
    ///   `phom_ticks_in_flight`, `phom_open_tickets`,
    ///   `phom_cache_entries`;
    /// * histograms (with `_p50`/`_p90`/`_p99`/`_max` convenience
    ///   samples): `phom_request_latency_ns{lane=…}`,
    ///   `phom_queue_latency_ns{lane=…}`,
    ///   `phom_stage_latency_ns{stage="plan"|"eval"|"encode"}`.
    pub fn prometheus_text(&self) -> String {
        let mut prom = phom_obs::PromText::new();
        prom.gauge(
            "phom_workers",
            "configured worker-pool size",
            self.workers as u64,
        );
        prom.gauge(
            "phom_queue_depth",
            "requests waiting in the ingress queue",
            self.queue_depth as u64,
        );
        prom.gauge(
            "phom_fast_lane_depth",
            "requests waiting in the fast lane",
            self.fast_lane_depth as u64,
        );
        prom.gauge(
            "phom_slow_lane_depth",
            "requests waiting in the slow lane",
            self.slow_lane_depth as u64,
        );
        prom.gauge(
            "phom_ticks_in_flight",
            "tick groups dispatched and not yet finished",
            self.ticks_in_flight as u64,
        );
        prom.gauge(
            "phom_open_tickets",
            "admitted requests not yet resolved",
            self.open_tickets(),
        );
        prom.counter(
            "phom_requests_admitted_total",
            "requests admitted past admission control",
            self.admitted,
        );
        prom.counter(
            "phom_requests_rejected_total",
            "requests rejected with Overloaded",
            self.rejected,
        );
        prom.counter(
            "phom_requests_cancelled_total",
            "requests resolved Cancelled",
            self.cancelled,
        );
        prom.counter(
            "phom_requests_completed_total",
            "tickets fulfilled with a computed response",
            self.completed,
        );
        prom.counter(
            "phom_requests_shed_expired_total",
            "requests shed expired-in-queue",
            self.shed_expired,
        );
        prom.family(
            "phom_lane_requests_total",
            "requests admitted per lane",
            "counter",
        );
        prom.labeled(
            "phom_lane_requests_total",
            &[("lane", "fast")],
            self.fast_lane_total,
        );
        prom.labeled(
            "phom_lane_requests_total",
            &[("lane", "slow")],
            self.slow_lane_total,
        );
        prom.counter("phom_ticks_total", "micro-batch ticks flushed", self.ticks);
        prom.counter(
            "phom_tick_requests_total",
            "requests across all ticks",
            self.total_tick_requests,
        );
        prom.counter(
            "phom_shared_arena_ticks_total",
            "tick groups compiled into one shared arena",
            self.shared_arena_ticks,
        );
        prom.counter(
            "phom_shared_gates_total",
            "gates across all tick arenas",
            self.shared_gates,
        );
        prom.counter(
            "phom_unit_runs_total",
            "work units executed",
            self.unit_runs,
        );
        prom.counter("phom_queries_total", "probability queries", self.queries);
        prom.counter(
            "phom_unique_queries_total",
            "structurally distinct (query, options) pairs",
            self.unique_queries,
        );
        prom.counter(
            "phom_batch_cache_hits_total",
            "unique queries answered from the shared cache at plan time",
            self.batch_cache_hits,
        );
        prom.counter(
            "phom_circuit_batched_total",
            "unique queries answered through multi-root engine passes",
            self.circuit_batched,
        );
        prom.counter(
            "phom_general_solved_total",
            "unique queries answered on the general path",
            self.general_solved,
        );
        prom.counter(
            "phom_float_evaluated_total",
            "unique circuit queries answered by the float tier",
            self.float_evaluated,
        );
        prom.counter(
            "phom_escalations_total",
            "float-tier answers re-evaluated exactly",
            self.escalations,
        );
        prom.counter(
            "phom_estimates_total",
            "hard cells degraded to certified estimates",
            self.estimates,
        );
        prom.counter(
            "phom_deadline_exceeded_total",
            "requests that tripped a deadline mid-evaluation",
            self.deadline_exceeded,
        );
        prom.counter(
            "phom_budget_exceeded_total",
            "requests that ran out of work budget",
            self.budget_exceeded,
        );
        prom.counter(
            "phom_scratch_reuse_total",
            "unit runs on pooled worker scratch",
            self.scratch_reuse,
        );
        prom.counter(
            "phom_cache_hits_total",
            "answer-cache hits",
            self.cache.hits,
        );
        prom.counter(
            "phom_cache_misses_total",
            "answer-cache misses",
            self.cache.misses,
        );
        prom.counter(
            "phom_cache_evictions_total",
            "answer-cache LRU evictions",
            self.cache.evictions,
        );
        prom.gauge(
            "phom_cache_entries",
            "answer-cache entries stored",
            self.cache.entries as u64,
        );
        prom.family(
            "phom_request_latency_ns",
            "end-to-end request latency (admission to fulfillment), nanoseconds",
            "histogram",
        );
        prom.histogram(
            "phom_request_latency_ns",
            &[("lane", "fast")],
            &self.request_ns_fast,
        );
        prom.histogram(
            "phom_request_latency_ns",
            &[("lane", "slow")],
            &self.request_ns_slow,
        );
        prom.family(
            "phom_queue_latency_ns",
            "queue wait (admission to flush), nanoseconds",
            "histogram",
        );
        prom.histogram(
            "phom_queue_latency_ns",
            &[("lane", "fast")],
            &self.queue_ns_fast,
        );
        prom.histogram(
            "phom_queue_latency_ns",
            &[("lane", "slow")],
            &self.queue_ns_slow,
        );
        prom.family(
            "phom_stage_latency_ns",
            "per-tick-group stage time, nanoseconds",
            "histogram",
        );
        prom.histogram("phom_stage_latency_ns", &[("stage", "plan")], &self.plan_ns);
        prom.histogram("phom_stage_latency_ns", &[("stage", "eval")], &self.eval_ns);
        prom.histogram(
            "phom_stage_latency_ns",
            &[("stage", "encode")],
            &self.encode_ns,
        );
        prom.finish()
    }
}
