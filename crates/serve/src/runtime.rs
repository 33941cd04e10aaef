//! The persistent serving runtime: a bounded ingress queue, a
//! tick-building batcher thread, and a pool of worker threads spawned
//! **once** at startup and fed over an internal channel — no scoped
//! spawns, no per-batch thread churn.
//!
//! ## Life of a request
//!
//! 1. [`Runtime::enqueue`] routes the request to a registered instance
//!    version, applies admission control (a full queue answers
//!    [`SolveError::Overloaded`] immediately — backpressure instead of
//!    unbounded memory), and returns a [`Ticket`].
//! 2. The batcher accumulates admitted requests into a **tick**. It is
//!    *work-conserving* per lane: when a waiting request's lane has no
//!    tick group in flight it flushes at once, so idle workers never
//!    sit on a request. While the lane is busy it waits for company,
//!    flushing when [`max_batch`](RuntimeBuilder::max_batch) requests
//!    are waiting, the oldest has waited
//!    [`max_wait`](RuntimeBuilder::max_wait), or the lane goes idle,
//!    whichever comes first. A fast-lane request never waits on a
//!    slow lane's sampling groups.
//! 3. Each tick is grouped by instance version and planned through
//!    [`Engine::begin_tick`] (interning, cache probe, routing — cheap,
//!    sequential); the resulting `Send` units are dispatched to the
//!    worker pool, where shards compile their circuit plans into one
//!    arena each and answer them with one multi-root engine pass.
//! 4. [`Tick::finish`](phom_core::Tick::finish) fills the shared answer
//!    cache and the batcher fulfills every ticket, in request order.
//!
//! Results are **bit-identical** to calling [`Engine::submit`] with the
//! same requests — micro-batching changes latency and throughput, never
//! answers (asserted by `tests/runtime_serving.rs`).

use crate::chan::Chan;
use crate::stats::{tick_size_bucket, RuntimeStats};
use crate::ticket::{Ticket, TicketState};
use phom_core::{
    CacheHandle, Engine, EngineBuilder, Lane, Request, SolveError, SolverOptions, Tick, TickConfig,
    TickOutput, TickUnit, WorkerScratch,
};
use phom_graph::ProbGraph;
use phom_obs::{Span, SpanLane, SpanRing, Stage, TraceId};
use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A `Duration` as saturated nanoseconds, with `u64::MAX` standing in
/// for "no deadline" (`Duration::MAX` and friends).
fn duration_to_nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The observability lane tag for an admission [`Lane`].
fn span_lane(lane: Lane) -> SpanLane {
    match lane {
        Lane::Fast => SpanLane::Fast,
        Lane::Slow => SpanLane::Slow,
    }
}

// ---------------------------------------------------------------------
// Configuration
// ---------------------------------------------------------------------

/// Configuration for a [`Runtime`]. The three serving knobs:
///
/// * [`max_batch`](RuntimeBuilder::max_batch) — tick flush threshold
///   (bigger ticks amortize planning and share arenas, at the cost of
///   per-request latency);
/// * [`max_wait`](RuntimeBuilder::max_wait) — how long the first
///   request of a tick may wait for company **while a tick of its lane
///   is in flight** (an idle lane flushes at once, so patience never
///   leaves a worker idle);
/// * [`queue_cap`](RuntimeBuilder::queue_cap) — the admission-control
///   bound: beyond it, `enqueue` answers
///   [`SolveError::Overloaded`].
#[derive(Clone)]
pub struct RuntimeBuilder {
    max_batch: usize,
    max_wait: Duration,
    queue_cap: usize,
    workers: usize,
    cache_capacity: usize,
    shared_cache: Option<CacheHandle>,
    default_options: SolverOptions,
    share_arena_at: Option<usize>,
}

impl Default for RuntimeBuilder {
    fn default() -> Self {
        RuntimeBuilder::new()
    }
}

impl RuntimeBuilder {
    /// Defaults: ticks of up to 64 requests, 2 ms of batching patience
    /// while a lane has a tick in flight, a 1024-request queue, one
    /// worker per core, an unbounded shared cache, default
    /// [`SolverOptions`], and
    /// cross-shard arena sharing from 32 unique queries per tick.
    pub fn new() -> Self {
        RuntimeBuilder {
            max_batch: 64,
            max_wait: Duration::from_millis(2),
            queue_cap: 1024,
            workers: 0,
            cache_capacity: usize::MAX,
            shared_cache: None,
            default_options: SolverOptions::default(),
            share_arena_at: Some(32),
        }
    }

    /// Flush a tick as soon as `n` requests are waiting (≥ 1).
    pub fn max_batch(mut self, n: usize) -> Self {
        self.max_batch = n.max(1);
        self
    }

    /// While a tick group of its lane is in flight, flush a request's
    /// tick once the oldest waiting request has waited this long, even
    /// if it is smaller than `max_batch`. An idle lane (no tick group
    /// of that lane in flight) flushes at once whatever this is set to,
    /// so patience only ever buys a larger tick while the lane's own
    /// work occupies the pool.
    /// `Duration::ZERO` disables batching patience entirely (every poll
    /// drains what is there).
    pub fn max_wait(mut self, d: Duration) -> Self {
        self.max_wait = d;
        self
    }

    /// Bound the ingress queue to `n` waiting requests; beyond it,
    /// [`Runtime::enqueue`] answers [`SolveError::Overloaded`] (≥ 1).
    pub fn queue_cap(mut self, n: usize) -> Self {
        self.queue_cap = n.max(1);
        self
    }

    /// Worker-pool size (`0` = the machine's available parallelism).
    /// Workers are spawned once, when the runtime is built.
    pub fn workers(mut self, n: usize) -> Self {
        self.workers = n;
        self
    }

    /// Bound the shared answer cache (LRU across every registered
    /// version). Ignored when [`shared_cache`](RuntimeBuilder::shared_cache)
    /// supplies an existing cache.
    pub fn cache_capacity(mut self, n: usize) -> Self {
        self.cache_capacity = n;
        self
    }

    /// Serve off an existing shared cache (e.g. one also used by
    /// engines built with
    /// [`EngineBuilder::shared_cache`](phom_core::EngineBuilder::shared_cache)
    /// or by another runtime).
    pub fn shared_cache(mut self, cache: CacheHandle) -> Self {
        self.shared_cache = Some(cache);
        self
    }

    /// The [`SolverOptions`] requests inherit when they don't override
    /// them.
    pub fn default_options(mut self, options: SolverOptions) -> Self {
        self.default_options = options;
        self
    }

    /// Cross-shard arena sharing threshold: ticks with at least this
    /// many unique, uncached probability queries compile every
    /// circuit-compilable plan into **one** shared arena and partition
    /// the roots across the workers (one multi-root evaluation pass
    /// each) instead of building one arena per shard — see
    /// [`TickConfig::share_arena_at`]. `None` keeps per-shard arenas
    /// always. Answers are bit-identical either way.
    pub fn share_arena_at(mut self, threshold: Option<usize>) -> Self {
        self.share_arena_at = threshold;
        self
    }

    /// Builds the runtime: allocates the shared cache, spawns the
    /// worker pool and the batcher thread — **exactly once** for the
    /// runtime's lifetime.
    pub fn build(self) -> Runtime {
        let pool_size = if self.workers == 0 {
            std::thread::available_parallelism().map_or(1, usize::from)
        } else {
            self.workers
        };
        let cache = self
            .shared_cache
            .unwrap_or_else(|| CacheHandle::with_capacity(self.cache_capacity));
        let inner = Arc::new(Inner {
            max_batch: self.max_batch,
            max_wait_nanos: duration_to_nanos(self.max_wait),
            queue_cap: self.queue_cap,
            pool_size,
            share_arena_at: self.share_arena_at,
            default_options: self.default_options,
            cache,
            ingress: Mutex::new(Ingress {
                fast: VecDeque::new(),
                slow: VecDeque::new(),
                shutdown: false,
            }),
            ingress_ready: Condvar::new(),
            engines: RwLock::new(HashMap::new()),
            default_version: Mutex::new(None),
            work: Chan::new(),
            stats: Mutex::new(RuntimeStats {
                workers: pool_size,
                ..RuntimeStats::default()
            }),
            spans: SpanRing::new(phom_obs::DEFAULT_RING_CAPACITY),
            inflight: Mutex::new(InFlight::default()),
            inflight_done: Condvar::new(),
        });
        let workers = (0..pool_size)
            .map(|i| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("phom-serve-worker-{i}"))
                    .spawn(move || worker_loop(&inner))
                    .expect("spawn worker thread")
            })
            .collect();
        let batcher = {
            let inner = Arc::clone(&inner);
            std::thread::Builder::new()
                .name("phom-serve-batcher".into())
                .spawn(move || {
                    // Even if the batcher panics, the guard resolves any
                    // stranded tickets and closes the worker feed — a
                    // dead batcher must never hang `wait()` callers or
                    // deadlock `shutdown()` on a pool that would
                    // otherwise block in `recv()` forever.
                    let _guard = BatcherGuard(Arc::clone(&inner));
                    batcher_loop(&inner);
                })
                .expect("spawn batcher thread")
        };
        Runtime {
            inner,
            batcher: Some(batcher),
            workers,
        }
    }
}

// ---------------------------------------------------------------------
// Runtime
// ---------------------------------------------------------------------

/// One admitted request, waiting in the ingress queue. It pins its
/// engine from admission time, so an admitted request always completes
/// against the instance version it was routed to — even if that
/// version is deregistered before its tick fires. Lane and deadline are
/// also fixed at admission: the lane decides which ingress queue (and
/// worker-feed priority) the request gets, the deadline lets the flush
/// shed it unexecuted once expired.
struct Admitted {
    version: u64,
    engine: Arc<Engine>,
    request: Request,
    ticket: Arc<TicketState>,
    enqueued_at: Instant,
    lane: Lane,
    deadline_at: Option<Instant>,
    /// Observability trace id — the request's own if it carried one
    /// (minted at the wire front door), a fresh runtime-minted one
    /// otherwise.
    trace: u64,
}

/// Runs when the batcher thread exits — normally or by panic. On the
/// normal path the queue is already drained and this only closes the
/// worker feed; after a panic it also resolves every stranded ticket.
struct BatcherGuard(Arc<Inner>);

impl Drop for BatcherGuard {
    fn drop(&mut self) {
        let stranded: Vec<Admitted> = {
            let mut ingress = lock(&self.0.ingress);
            ingress.shutdown = true;
            let mut all: Vec<Admitted> = ingress.fast.drain(..).collect();
            all.extend(ingress.slow.drain(..));
            all
        };
        let mut resolved = 0u64;
        for entry in stranded {
            if entry.ticket.fulfill(Err(SolveError::Internal(
                "the serving batcher thread died".into(),
            ))) {
                resolved += 1;
            }
        }
        if resolved > 0 {
            // Stranded tickets got a terminal typed error: count them as
            // completed so the books (admitted = completed + cancelled +
            // shed) still balance after a batcher death.
            lock(&self.0.stats).completed += resolved;
        }
        self.0.work.close();
    }
}

/// The two-lane ingress queue. The fast lane holds cheap exact plans
/// (see [`Request::lane`](phom_core::Request::lane)); everything that
/// may sample, escalate, or estimate waits in the slow lane. Flushes
/// drain the fast lane first (with one slot reserved for the slow lane
/// per tick, so it never starves), and the two lanes become separate
/// tick groups that complete independently — a cheap exact answer never
/// waits on a sampling job.
struct Ingress {
    fast: VecDeque<Admitted>,
    slow: VecDeque<Admitted>,
    shutdown: bool,
}

impl Ingress {
    fn len(&self) -> usize {
        self.fast.len() + self.slow.len()
    }

    fn is_empty(&self) -> bool {
        self.fast.is_empty() && self.slow.is_empty()
    }

    fn queue(&self, lane: Lane) -> &VecDeque<Admitted> {
        match lane {
            Lane::Fast => &self.fast,
            Lane::Slow => &self.slow,
        }
    }

    /// Whether a waiting request's lane has no tick group in flight —
    /// the work-conserving flush: waiting for company there would only
    /// leave that lane's work idle.
    fn has_idle_lane(&self, inflight: &InFlight) -> bool {
        (!self.fast.is_empty() && inflight.fast == 0)
            || (!self.slow.is_empty() && inflight.slow == 0)
    }

    /// Arrival time of the oldest waiting request across both lanes —
    /// the `max_wait` flush timer anchors on it.
    fn oldest_enqueued_at(&self) -> Option<Instant> {
        match (self.fast.front(), self.slow.front()) {
            (Some(f), Some(s)) => Some(f.enqueued_at.min(s.enqueued_at)),
            (Some(f), None) => Some(f.enqueued_at),
            (None, Some(s)) => Some(s.enqueued_at),
            (None, None) => None,
        }
    }
}

/// The state shared by the handle, the batcher, and the workers.
struct Inner {
    max_batch: usize,
    max_wait_nanos: u64,
    queue_cap: usize,
    pool_size: usize,
    share_arena_at: Option<usize>,
    default_options: SolverOptions,
    cache: CacheHandle,
    ingress: Mutex<Ingress>,
    ingress_ready: Condvar,
    engines: RwLock<HashMap<u64, Arc<Engine>>>,
    default_version: Mutex<Option<u64>>,
    work: Chan<WorkItem>,
    stats: Mutex<RuntimeStats>,
    /// Recent per-stage spans (lock-free, overwrite-oldest). Written on
    /// admission and at group finish; read by the `trace` wire op and
    /// `Runtime::spans`.
    spans: SpanRing,
    /// Tick groups dispatched to the pool and not yet finished. The
    /// batcher flushes ahead of completion (so a slow tick never blocks
    /// a fast one) but stops at [`Inner::inflight_cap`] to bound the
    /// work sitting in the pool feed. A lane with none in flight is
    /// idle, and its waiting requests flush without waiting for
    /// company. Lock order: `ingress` before `inflight`.
    inflight: Mutex<InFlight>,
    inflight_done: Condvar,
}

/// Tick groups in flight, per lane. Groups answered at plan time
/// (cache hits, trivial routes) finish inline and never count.
#[derive(Default)]
struct InFlight {
    fast: usize,
    slow: usize,
}

impl InFlight {
    fn lane_mut(&mut self, lane: Lane) -> &mut usize {
        match lane {
            Lane::Fast => &mut self.fast,
            Lane::Slow => &mut self.slow,
        }
    }

    fn total(&self) -> usize {
        self.fast + self.slow
    }
}

impl Inner {
    /// How many tick groups may be in flight at once: enough that
    /// slow-lane groups stuck on a worker never gate fast-lane flushes,
    /// small enough to bound dispatched-but-unfinished work.
    fn inflight_cap(&self) -> usize {
        self.pool_size * 2 + 2
    }
}

/// One dispatched tick unit plus where its output goes.
struct WorkItem {
    unit: TickUnit,
    collector: Arc<Collector>,
    idx: usize,
}

/// Everything needed to finish a tick group once its last unit reports:
/// the planned [`Tick`], the tickets to fulfill, and the flush
/// timestamp for the latency counters. Fully owned, so whichever worker
/// reports last completes the group — the batcher never blocks on a
/// group and a slow tick never delays a fast one.
struct FinishJob {
    tick: Tick,
    tickets: Vec<Arc<TicketState>>,
    started: Instant,
    /// The group's lane (groups are split by lane, so it is uniform).
    lane: Lane,
    /// When planning finished and the units were handed to the pool —
    /// the evaluated-stage span starts here.
    planned_at: Instant,
    /// Planning duration (`begin_tick_with` + unit construction).
    plan_nanos: u64,
    /// Per-request trace ids, parallel to `tickets`.
    traces: Vec<u64>,
    /// Per-request queue time (admission → flush), parallel to
    /// `tickets`.
    queue_nanos: Vec<u64>,
}

/// Gathers a tick group's unit outputs; the worker whose report
/// completes the set runs the group's [`FinishJob`] in place.
struct Collector {
    state: Mutex<CollectorState>,
}

struct CollectorState {
    outputs: Vec<Option<TickOutput>>,
    reported: usize,
    job: Option<FinishJob>,
}

impl Collector {
    fn new(n: usize, job: FinishJob) -> Arc<Self> {
        let mut slots = Vec::new();
        slots.resize_with(n, || None);
        Arc::new(Collector {
            state: Mutex::new(CollectorState {
                outputs: slots,
                reported: 0,
                job: Some(job),
            }),
        })
    }

    /// Records one unit's output; the final report takes the finish job
    /// and completes the group on the calling thread.
    fn set(&self, idx: usize, output: TickOutput, inner: &Inner) {
        let ready = {
            let mut guard = lock(&self.state);
            debug_assert!(guard.outputs[idx].is_none(), "each unit reports once");
            guard.outputs[idx] = Some(output);
            guard.reported += 1;
            if guard.reported == guard.outputs.len() {
                let outputs = std::mem::take(&mut guard.outputs);
                guard.job.take().map(|job| (job, outputs))
            } else {
                None
            }
        };
        if let Some((job, outputs)) = ready {
            finish_group(inner, job, outputs.into_iter().flatten().collect());
        }
    }
}

/// A long-lived serving runtime over persistent worker threads: the
/// async-friendly front end the ROADMAP's serving scale-out item calls
/// for. The `runtime` module docs describe the life of a request; see
/// [`RuntimeBuilder`] for the knobs.
///
/// The handle is `Sync`: producers on any number of threads may
/// [`enqueue`](Runtime::enqueue) concurrently, and
/// [`register`](Runtime::register)/[`deregister`](Runtime::deregister)
/// hot-swap instance versions while traffic flows.
pub struct Runtime {
    inner: Arc<Inner>,
    batcher: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Runtime {
    /// Starts a configuration.
    pub fn builder() -> RuntimeBuilder {
        RuntimeBuilder::new()
    }

    /// A runtime with default configuration serving one instance.
    pub fn serve(instance: ProbGraph) -> Self {
        let runtime = RuntimeBuilder::new().build();
        runtime.register(instance);
        runtime
    }

    /// Registers an instance version (building its [`Engine`] on the
    /// shared cache) and returns its routing fingerprint. The first
    /// registered version becomes the [`enqueue`](Runtime::enqueue)
    /// default. Re-registering an identical instance is
    /// **idempotent-cheap**: the fingerprint is hashed (no engine
    /// rebuild, no cache churn) and the existing engine keeps serving —
    /// a fleet router re-registers on every handoff, so this is its hot
    /// path. The engine derives entirely from the instance content, so
    /// an equal fingerprint means an interchangeable engine.
    pub fn register(&self, instance: ProbGraph) -> u64 {
        let version = phom_core::instance_fingerprint(&instance);
        if self.is_registered(version) {
            return version;
        }
        let engine = Arc::new(
            EngineBuilder::new()
                .default_options(self.inner.default_options)
                .shared_cache(self.inner.cache.clone())
                .build(instance),
        );
        debug_assert_eq!(engine.fingerprint(), version);
        self.inner
            .engines
            .write()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(version, engine);
        let mut default = lock(&self.inner.default_version);
        if default.is_none() {
            *default = Some(version);
        }
        version
    }

    /// True when `version` is currently registered — the cheap probe
    /// behind idempotent [`register`](Runtime::register) and the wire
    /// front end's `registered: "cached"` fast path.
    pub fn is_registered(&self, version: u64) -> bool {
        self.inner
            .engines
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .contains_key(&version)
    }

    /// Removes a served version. Requests already admitted for it still
    /// complete (each admitted entry pins its engine from admission
    /// time); new enqueues are rejected.
    pub fn deregister(&self, version: u64) -> bool {
        let removed = self
            .inner
            .engines
            .write()
            .unwrap_or_else(PoisonError::into_inner)
            .remove(&version)
            .is_some();
        if removed {
            let mut default = lock(&self.inner.default_version);
            if *default == Some(version) {
                *default = self.versions().first().copied();
            }
        }
        removed
    }

    /// The engine serving `version`, if registered.
    pub fn engine(&self, version: u64) -> Option<Arc<Engine>> {
        self.inner
            .engines
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(&version)
            .cloned()
    }

    /// The routing fingerprints of every registered version.
    pub fn versions(&self) -> Vec<u64> {
        self.inner
            .engines
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .keys()
            .copied()
            .collect()
    }

    /// Enqueues a request for the default version (the first
    /// registered). See [`enqueue_to`](Runtime::enqueue_to).
    pub fn enqueue(&self, request: Request) -> Result<Ticket, SolveError> {
        let version = (*lock(&self.inner.default_version))
            .ok_or_else(|| SolveError::InvalidQuery("no instance version registered".into()))?;
        self.enqueue_to(version, request)
    }

    /// Routes `request` to the engine registered under `version` and
    /// admits it into the ingress queue.
    ///
    /// * Full queue → `Err(SolveError::Overloaded)` **immediately** —
    ///   the backpressure signal; nothing is queued, already-admitted
    ///   tickets are unaffected.
    /// * Unknown version → `Err(SolveError::InvalidQuery)`.
    /// * After [`shutdown`](Runtime::shutdown) began →
    ///   `Err(SolveError::Cancelled)`.
    pub fn enqueue_to(&self, version: u64, request: Request) -> Result<Ticket, SolveError> {
        let Some(engine) = self.engine(version) else {
            return Err(SolveError::InvalidQuery(format!(
                "no instance registered for version {version:#018x}"
            )));
        };
        let ticket = TicketState::new();
        // Lane and deadline are fixed at admission: the lane comes from
        // the plan's route class (cheap exact plans go fast; anything
        // that may sample or estimate goes slow), the deadline from the
        // request's own clock. The trace id is the request's own when
        // the front door (net server / router) minted one; in-process
        // callers get a runtime-minted id so their spans are traceable
        // too.
        let lane = request.lane(self.inner.default_options);
        let deadline_at = request.deadline_instant();
        let trace = request.trace_id().unwrap_or_else(|| TraceId::mint().get());
        let (depth, fast_depth, slow_depth) = {
            let mut ingress = lock(&self.inner.ingress);
            if ingress.shutdown {
                return Err(SolveError::Cancelled);
            }
            if ingress.len() >= self.inner.queue_cap {
                drop(ingress);
                lock(&self.inner.stats).rejected += 1;
                return Err(SolveError::Overloaded {
                    capacity: self.inner.queue_cap,
                });
            }
            let entry = Admitted {
                version,
                engine,
                request,
                ticket: Arc::clone(&ticket),
                enqueued_at: Instant::now(),
                lane,
                deadline_at,
                trace,
            };
            match lane {
                Lane::Fast => ingress.fast.push_back(entry),
                Lane::Slow => ingress.slow.push_back(entry),
            }
            (ingress.len(), ingress.fast.len(), ingress.slow.len())
        };
        {
            let mut stats = lock(&self.inner.stats);
            stats.admitted += 1;
            stats.queue_depth_max = stats.queue_depth_max.max(depth);
            stats.fast_lane_depth_max = stats.fast_lane_depth_max.max(fast_depth);
            stats.slow_lane_depth_max = stats.slow_lane_depth_max.max(slow_depth);
            match lane {
                Lane::Fast => stats.fast_lane_total += 1,
                Lane::Slow => stats.slow_lane_total += 1,
            }
        }
        self.inner.spans.push(Span {
            trace,
            stage: Stage::Admitted,
            lane: span_lane(lane),
            nanos: 0,
            detail: 0,
        });
        self.inner.ingress_ready.notify_all();
        Ok(Ticket::new(ticket))
    }

    /// Batched admission: admits `requests` in order under **one**
    /// ingress lock and wakes the batcher **once**, instead of once per
    /// request. Each request gets exactly the individual treatment of
    /// [`enqueue_to`](Runtime::enqueue_to) — a full queue rejects that
    /// request (and only it) with a typed `Overloaded`, shutdown
    /// rejects with `Cancelled` — so pipelined front doors (the net
    /// server's `submit_batch`) keep per-request backpressure while
    /// paying a single lock/notify for the whole frame. Admitting one
    /// by one also woke the batcher mid-loop; on a small box the tick
    /// it started preempted the admitting thread and delayed the ack
    /// by a scheduler timeslice.
    pub fn enqueue_batch_to(
        &self,
        version: u64,
        requests: Vec<Request>,
    ) -> Vec<Result<Ticket, SolveError>> {
        let Some(engine) = self.engine(version) else {
            let err = format!("no instance registered for version {version:#018x}");
            return requests
                .into_iter()
                .map(|_| Err(SolveError::InvalidQuery(err.clone())))
                .collect();
        };
        // Lane, deadline, and trace are fixed at admission (see
        // `enqueue_to`); precompute them outside the lock.
        let prepared: Vec<(Request, Lane, Option<Instant>, u64)> = requests
            .into_iter()
            .map(|request| {
                let lane = request.lane(self.inner.default_options);
                let deadline_at = request.deadline_instant();
                let trace = request.trace_id().unwrap_or_else(|| TraceId::mint().get());
                (request, lane, deadline_at, trace)
            })
            .collect();
        let mut out = Vec::with_capacity(prepared.len());
        let mut admitted: Vec<(Lane, u64)> = Vec::with_capacity(prepared.len());
        let mut rejected = 0u64;
        let (depth, fast_depth, slow_depth) = {
            let mut ingress = lock(&self.inner.ingress);
            for (request, lane, deadline_at, trace) in prepared {
                if ingress.shutdown {
                    out.push(Err(SolveError::Cancelled));
                    continue;
                }
                if ingress.len() >= self.inner.queue_cap {
                    rejected += 1;
                    out.push(Err(SolveError::Overloaded {
                        capacity: self.inner.queue_cap,
                    }));
                    continue;
                }
                let ticket = TicketState::new();
                let entry = Admitted {
                    version,
                    engine: Arc::clone(&engine),
                    request,
                    ticket: Arc::clone(&ticket),
                    enqueued_at: Instant::now(),
                    lane,
                    deadline_at,
                    trace,
                };
                match lane {
                    Lane::Fast => ingress.fast.push_back(entry),
                    Lane::Slow => ingress.slow.push_back(entry),
                }
                admitted.push((lane, trace));
                out.push(Ok(Ticket::new(ticket)));
            }
            (ingress.len(), ingress.fast.len(), ingress.slow.len())
        };
        {
            let mut stats = lock(&self.inner.stats);
            stats.admitted += admitted.len() as u64;
            stats.rejected += rejected;
            stats.queue_depth_max = stats.queue_depth_max.max(depth);
            stats.fast_lane_depth_max = stats.fast_lane_depth_max.max(fast_depth);
            stats.slow_lane_depth_max = stats.slow_lane_depth_max.max(slow_depth);
            for (lane, _) in &admitted {
                match lane {
                    Lane::Fast => stats.fast_lane_total += 1,
                    Lane::Slow => stats.slow_lane_total += 1,
                }
            }
        }
        for (lane, trace) in &admitted {
            self.inner.spans.push(Span {
                trace: *trace,
                stage: Stage::Admitted,
                lane: span_lane(*lane),
                nanos: 0,
                detail: 0,
            });
        }
        if !admitted.is_empty() {
            self.inner.ingress_ready.notify_all();
        }
        out
    }

    /// A snapshot of the recent per-stage [`Span`]s (admitted, queued,
    /// planned, evaluated, encoded), oldest first. The ring is
    /// fixed-size and overwrite-oldest, so only the most recent
    /// [`phom_obs::DEFAULT_RING_CAPACITY`] spans are retained.
    pub fn spans(&self) -> Vec<Span> {
        self.inner.spans.snapshot()
    }

    /// Retained spans for one trace id, oldest first.
    pub fn spans_for(&self, trace: u64) -> Vec<Span> {
        self.inner.spans.spans_for(trace)
    }

    /// A point-in-time activity snapshot: queue depth, tick shapes,
    /// unit latencies, batch aggregates, cache counters.
    pub fn stats(&self) -> RuntimeStats {
        let mut stats = lock(&self.inner.stats).clone();
        {
            let ingress = lock(&self.inner.ingress);
            stats.queue_depth = ingress.len();
            stats.fast_lane_depth = ingress.fast.len();
            stats.slow_lane_depth = ingress.slow.len();
        }
        stats.ticks_in_flight = lock(&self.inner.inflight).total();
        stats.cache = self.inner.cache.stats();
        stats
    }

    /// A cloneable handle to the runtime's shared answer cache.
    pub fn cache_handle(&self) -> CacheHandle {
        self.inner.cache.clone()
    }

    /// Graceful shutdown: stops admitting, **drains** every admitted
    /// request through final ticks (all outstanding tickets resolve),
    /// then stops the batcher and the worker pool. Returns the final
    /// stats snapshot.
    pub fn shutdown(mut self) -> RuntimeStats {
        self.begin_shutdown();
        self.join_threads();
        self.stats()
    }

    /// Begins draining **through a shared handle**: stops admitting
    /// (new enqueues answer [`SolveError::Cancelled`]), flushes every
    /// admitted request through final ticks, and returns once the books
    /// balance (`admitted == completed + cancelled + shed_expired`,
    /// queue empty, no tick in flight) — every outstanding [`Ticket`]
    /// is resolved. Unlike [`shutdown`](Runtime::shutdown) it takes
    /// `&self`, so a front end still holding an `Arc<Runtime>` can keep
    /// serving polls while the drain completes; call `shutdown`
    /// afterwards to join the (now idle) threads.
    pub fn drain(&self) {
        self.begin_shutdown();
        loop {
            let stats = self.stats();
            let settled = stats.admitted == stats.completed + stats.cancelled + stats.shed_expired;
            if settled && stats.queue_depth == 0 && stats.ticks_in_flight == 0 {
                return;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    fn begin_shutdown(&self) {
        lock(&self.inner.ingress).shutdown = true;
        self.inner.ingress_ready.notify_all();
    }

    fn join_threads(&mut self) {
        if let Some(batcher) = self.batcher.take() {
            let _ = batcher.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl Drop for Runtime {
    /// Dropping without [`shutdown`](Runtime::shutdown) still drains
    /// admitted requests and joins every thread — a runtime never
    /// leaks detached workers.
    fn drop(&mut self) {
        if self.batcher.is_some() || !self.workers.is_empty() {
            self.begin_shutdown();
            self.join_threads();
        }
    }
}

// ---------------------------------------------------------------------
// The batcher and the workers
// ---------------------------------------------------------------------

/// A worker: spawned once at runtime startup, pulls units off the
/// shared channel until the channel closes at shutdown. Unit panics are
/// contained inside `TickUnit::run` — the loop (and the thread) never
/// unwinds.
fn worker_loop(inner: &Inner) {
    lock(&inner.stats).workers_started += 1;
    // One scratch for the worker's lifetime: every unit after the first
    // evaluates through warmed buffers (`TickUnit::run_with`) instead of
    // allocating fresh ones per tick.
    let mut scratch = WorkerScratch::new();
    let mut first_run = true;
    while let Some(item) = inner.work.recv() {
        // Chaos seam: scripted faults (slow/stuck sleeps, one-shot unit
        // panics) are consumed one per executed unit. No-op unless a
        // test scripted a fault plan.
        crate::test_support::apply_next_fault();
        let started = Instant::now();
        let output = item.unit.run_with(&mut scratch);
        let nanos = started.elapsed().as_nanos() as u64;
        {
            let mut stats = lock(&inner.stats);
            stats.unit_runs += 1;
            stats.unit_nanos_total += nanos;
            stats.unit_nanos_max = stats.unit_nanos_max.max(nanos);
            if first_run {
                first_run = false;
            } else {
                stats.scratch_reuse += 1;
            }
        }
        item.collector.set(item.idx, output, inner);
    }
}

/// The batcher: accumulates admitted requests into micro-batch ticks,
/// dispatches each tick's units to the pool, and fulfills the tickets.
/// It is work-conserving per lane: it flushes at once when a waiting
/// request's lane has no tick group in flight, and waits for company
/// only while that lane is busy — until `max_batch` requests wait, the
/// oldest has waited `max_wait`, or the lane's last in-flight group
/// finishes (whose [`finish_group`] wakes it). On shutdown it drains
/// the remaining queue through final ticks, then closes the work
/// channel so the workers exit.
fn batcher_loop(inner: &Inner) {
    loop {
        let batch: Option<Vec<Admitted>> = {
            let mut ingress = lock(&inner.ingress);
            loop {
                if !ingress.is_empty() {
                    let oldest = ingress.oldest_enqueued_at().expect("non-empty");
                    // `checked_add` (and the `u64::MAX` sentinel): an
                    // absurd `max_wait` (Duration::MAX) must mean "no
                    // timer flush", not an Instant-overflow panic that
                    // would take the batcher down.
                    let deadline = if inner.max_wait_nanos == u64::MAX {
                        None
                    } else {
                        oldest.checked_add(Duration::from_nanos(inner.max_wait_nanos))
                    };
                    let now = Instant::now();
                    let timer_expired = deadline.is_some_and(|d| now >= d);
                    // Work-conserving: an idle lane flushes at once.
                    // Checked last (it takes the inflight lock, under
                    // the ingress lock — the one permitted order).
                    if ingress.len() >= inner.max_batch
                        || ingress.shutdown
                        || timer_expired
                        || ingress.has_idle_lane(&lock(&inner.inflight))
                    {
                        // Fast lane first, but when both lanes wait,
                        // one slot is reserved for the slow lane so it
                        // never starves under sustained fast traffic.
                        let n = ingress.len().min(inner.max_batch);
                        let reserve = usize::from(!ingress.slow.is_empty() && n > 1);
                        let from_fast = ingress.fast.len().min(n - reserve);
                        let from_slow = ingress.slow.len().min(n - from_fast);
                        let mut batch: Vec<Admitted> = ingress.fast.drain(..from_fast).collect();
                        batch.extend(ingress.slow.drain(..from_slow));
                        break Some(batch);
                    }
                    ingress = match deadline {
                        Some(d) => {
                            inner
                                .ingress_ready
                                .wait_timeout(ingress, d - now)
                                .unwrap_or_else(PoisonError::into_inner)
                                .0
                        }
                        None => inner
                            .ingress_ready
                            .wait(ingress)
                            .unwrap_or_else(PoisonError::into_inner),
                    };
                } else if ingress.shutdown {
                    break None;
                } else {
                    ingress = inner
                        .ingress_ready
                        .wait(ingress)
                        .unwrap_or_else(PoisonError::into_inner);
                }
            }
        };
        match batch {
            Some(entries) => process_tick(inner, entries),
            None => break,
        }
    }
    // The worker feed is closed by the batcher thread's guard.
}

/// Executes one tick: shed cancelled and already-expired tickets, group
/// by (instance version, lane), plan each group through
/// `Engine::begin_tick`, and dispatch the units to the pool — fast-lane
/// units into the feed's priority queue. Groups complete
/// *asynchronously*: the worker reporting a group's last unit output
/// runs [`finish_group`], so a slow group never delays a fast one and
/// the batcher is free to flush the next tick (bounded by
/// [`Inner::inflight_cap`]).
fn process_tick(inner: &Inner, entries: Vec<Admitted>) {
    let started = Instant::now();
    let mut live: Vec<Admitted> = Vec::with_capacity(entries.len());
    {
        let now = Instant::now();
        let mut stats = lock(&inner.stats);
        stats.ticks += 1;
        stats.total_tick_requests += entries.len() as u64;
        stats.max_tick_requests = stats.max_tick_requests.max(entries.len());
        stats.tick_size_hist[tick_size_bucket(entries.len())] += 1;
        for entry in entries {
            if entry.ticket.is_cancelled() {
                // Resolve the skipped ticket *here* too. `cancel` also
                // resolves it, but the flush must not depend on the
                // canceller finishing its half: a cancel that set the
                // flag and then lost the race to this flush would
                // otherwise leave `wait` hanging on the canceller's
                // progress. Resolution is idempotent (first one wins),
                // so the double fulfill is safe.
                entry.ticket.fulfill(Err(SolveError::Cancelled));
                stats.cancelled += 1;
            } else if entry.deadline_at.is_some_and(|at| now >= at) {
                // Expired in the queue: shed without executing. The
                // same idempotent-fulfill reasoning as cancellation
                // applies — a racing cancel keeps its `Err(Cancelled)`.
                if entry.ticket.fulfill(Err(SolveError::DeadlineExceeded)) {
                    stats.shed_expired += 1;
                } else {
                    stats.cancelled += 1;
                }
            } else {
                live.push(entry);
            }
        }
    }
    // Group by (version, lane), preserving arrival order within each
    // group. Lanes stay separate groups so a fast group's tickets
    // resolve without waiting on any slow group's units.
    let mut groups: Vec<(u64, Lane, Vec<Admitted>)> = Vec::new();
    for entry in live {
        match groups
            .iter_mut()
            .find(|(v, l, _)| *v == entry.version && *l == entry.lane)
        {
            Some((_, _, group)) => group.push(entry),
            None => groups.push((entry.version, entry.lane, vec![entry])),
        }
    }
    // Plan every group and dispatch all units; completion happens on
    // the workers.
    for (_version, lane, entries) in groups {
        // Each admitted entry pinned its engine at admission, so a
        // version deregistered since then still completes normally.
        let engine = Arc::clone(&entries[0].engine);
        let mut requests = Vec::with_capacity(entries.len());
        let mut tickets = Vec::with_capacity(entries.len());
        let mut traces = Vec::with_capacity(entries.len());
        let mut queue_nanos = Vec::with_capacity(entries.len());
        for entry in entries {
            queue_nanos.push(duration_to_nanos(
                started.saturating_duration_since(entry.enqueued_at),
            ));
            traces.push(entry.trace);
            requests.push(entry.request);
            tickets.push(entry.ticket);
        }
        let plan_started = Instant::now();
        let mut tick = engine.begin_tick_with(
            &requests,
            &TickConfig {
                shards: inner.pool_size,
                share_arena_at: inner.share_arena_at,
            },
        );
        let units = tick.take_units();
        let planned_at = Instant::now();
        let job = FinishJob {
            tick,
            tickets,
            started,
            lane,
            planned_at,
            plan_nanos: duration_to_nanos(planned_at.saturating_duration_since(plan_started)),
            traces,
            queue_nanos,
        };
        if units.is_empty() {
            // Everything answered at plan time (cache hits, trivial
            // routes): no worker will ever report, finish inline.
            finish_group(inner, job, Vec::new());
            continue;
        }
        *lock(&inner.inflight).lane_mut(lane) += 1;
        let collector = Collector::new(units.len(), job);
        for (idx, unit) in units.into_iter().enumerate() {
            let item = WorkItem {
                unit,
                collector: Arc::clone(&collector),
                idx,
            };
            let sent = match lane {
                Lane::Fast => inner.work.send_priority(item),
                Lane::Slow => inner.work.send(item),
            };
            debug_assert!(sent, "work channel closes only after the batcher exits");
        }
    }
    // Backpressure on the pool feed: wait here (not before the flush,
    // so deadline shedding above still runs promptly) until the
    // in-flight count drops below the cap.
    let cap = inner.inflight_cap();
    let mut inflight = lock(&inner.inflight);
    while inflight.total() >= cap {
        inflight = inner
            .inflight_done
            .wait(inflight)
            .unwrap_or_else(PoisonError::into_inner);
    }
}

/// Completes one tick group: folds the unit outputs through
/// `Tick::finish`, fulfills the tickets, and feeds the stats. Runs on
/// whichever worker reported the group's last unit (inline in the
/// batcher for unit-less groups). The group that leaves its lane idle
/// wakes a batcher holding queued requests of that lane, which flushes
/// them at once.
fn finish_group(inner: &Inner, job: FinishJob, outputs: Vec<TickOutput>) {
    let FinishJob {
        tick,
        tickets,
        started,
        lane,
        planned_at,
        plan_nanos,
        traces,
        queue_nanos,
    } = job;
    let had_units = !outputs.is_empty();
    // Evaluation ran from dispatch (planning done) until the last unit
    // reported — i.e. until this function was entered; everything after
    // is result materialization + ticket fulfillment (the encode stage).
    let finish_started = Instant::now();
    let eval_nanos = duration_to_nanos(finish_started.saturating_duration_since(planned_at));
    let (results, batch_stats) = tick.finish(outputs);
    debug_assert_eq!(results.len(), tickets.len());
    let mut fulfilled = 0u64;
    let mut lost_to_cancel = 0u64;
    for (ticket, result) in tickets.into_iter().zip(results) {
        // `fulfill` reports whether the answer landed — a ticket
        // cancelled mid-flight keeps its `Err(Cancelled)` and is
        // counted as cancelled, not completed.
        if ticket.fulfill(result) {
            fulfilled += 1;
        } else {
            lost_to_cancel += 1;
        }
    }
    let encode_nanos = finish_started.elapsed().as_nanos() as u64;
    let nanos = started.elapsed().as_nanos() as u64;
    {
        let mut stats = lock(&inner.stats);
        let stats = &mut *stats;
        stats.completed += fulfilled;
        stats.cancelled += lost_to_cancel;
        stats.absorb_batch(&batch_stats);
        stats.tick_nanos_total += nanos;
        stats.tick_nanos_max = stats.tick_nanos_max.max(nanos);
        stats.plan_ns.record(plan_nanos);
        stats.eval_ns.record(eval_nanos);
        stats.encode_ns.record(encode_nanos);
        let (queue_hist, request_hist) = match lane {
            Lane::Fast => (&mut stats.queue_ns_fast, &mut stats.request_ns_fast),
            Lane::Slow => (&mut stats.queue_ns_slow, &mut stats.request_ns_slow),
        };
        for &q in &queue_nanos {
            queue_hist.record(q);
            request_hist.record(q.saturating_add(nanos));
        }
    }
    // Span writes happen outside the stats lock — the ring is lock-free.
    let lane_tag = span_lane(lane);
    for (i, &trace) in traces.iter().enumerate() {
        inner.spans.push(Span {
            trace,
            stage: Stage::Queued,
            lane: lane_tag,
            nanos: queue_nanos[i],
            detail: 0,
        });
        inner.spans.push(Span {
            trace,
            stage: Stage::Planned,
            lane: lane_tag,
            nanos: plan_nanos,
            detail: 0,
        });
        inner.spans.push(Span {
            trace,
            stage: Stage::Evaluated,
            lane: lane_tag,
            nanos: eval_nanos,
            detail: batch_stats.shared_gates as u64,
        });
        inner.spans.push(Span {
            trace,
            stage: Stage::Encoded,
            lane: lane_tag,
            nanos: encode_nanos,
            detail: 0,
        });
    }
    if had_units {
        let lane_idle = {
            let mut inflight = lock(&inner.inflight);
            let count = inflight.lane_mut(lane);
            *count = count.saturating_sub(1);
            *count == 0
        };
        inner.inflight_done.notify_all();
        // The lane just went idle: wake a batcher whose requests of this
        // lane wait for company. The batcher reads the in-flight counts
        // and parks under the ingress lock, so once this check holds
        // that lock the batcher is either before its read (and will see
        // 0) or parked on the condvar (and gets this notify) — the
        // wake-up cannot be lost. Any other finish sends no notify.
        if lane_idle && !lock(&inner.ingress).queue(lane).is_empty() {
            inner.ingress_ready.notify_all();
        }
    }
}

// The handle crosses producer threads freely.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Runtime>();
    assert_send_sync::<Ticket>();
};
