//! The session-oriented serving surface: a long-lived [`Engine`] per
//! probabilistic instance, typed [`Request`]s/[`Response`]s, and sharded
//! batch submission. Many graph versions share one bounded answer cache
//! by building their engines on one [`CacheHandle`]
//! ([`EngineBuilder::shared_cache`]).
//!
//! The paper's dichotomy makes query evaluation a *routing* problem —
//! every tractable `PHom` route ends in one engine pass — and a serving
//! process should pay the instance-side work (classification, label set,
//! the Lemma 3.7 split, the answer cache) **once per instance lifetime**,
//! not once per call. That is what `Engine` owns:
//!
//! * the [`ProbGraph`] instance plus its cached
//!   [`InstanceState`](crate::solver) (classification, labels, lazy
//!   component split);
//! * a handle to a **bounded LRU answer cache** keyed by (instance
//!   fingerprint, options fingerprint, interned query) — see
//!   [`EngineBuilder::cache_capacity`] and [`CacheHandle`];
//! * the **tick seam** ([`Engine::begin_tick_with`]): a batch is planned
//!   into independent work units that a caller's worker pool runs.
//!   `submit` runs the same units in order on the calling thread.
//!
//! ## Sharding and bit-identical results
//!
//! Planning is pure reads over the shared state: each unique miss is
//! planned into the evaluator of its route. A tick splits its
//! probability work across [`TickConfig::shards`] units. Each unit
//! compiles its assigned lineage routes into its *own* arena and answers
//! them with one multi-root engine pass per precision tier; every other
//! route runs its evaluator on its own. A query's compiled circuit — and
//! therefore its exact rational probability — does not depend on which
//! arena it lands in or on what else that arena holds (interning only
//! deduplicates structurally identical gates), so a tick returns
//! **bit-identical** `Response`s for every shard count, with or without
//! a shared arena. The equivalence suite in `tests/engine_api.rs`
//! asserts exactly this, and checks the answers against brute force.
//!
//! ## Quick start
//!
//! ```
//! use phom_core::{Engine, Request, Response};
//! use phom_graph::{Graph, GraphBuilder, Label, ProbGraph};
//! use phom_num::Rational;
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
//! let engine = Engine::builder().cache_capacity(1024).build(h);
//! let batch = [
//!     Request::probability(Graph::one_way_path(&[r, s])),
//!     Request::probability(Graph::one_way_path(&[r])).with_provenance(),
//! ];
//! let answers = engine.submit(&batch);
//! let Ok(Response::Probability(sol)) = &answers[0] else { panic!() };
//! assert_eq!(sol.probability, Rational::from_ratio(3, 8));
//! assert_eq!(engine.cache_stats().misses, 2);
//! ```

use crate::batch::{
    instance_fingerprint, opts_fingerprint, BatchStats, CacheHandle, CacheKey, CacheKind,
    CacheStats, EvalCache, QueryKey,
};
use crate::sensitivity::{self, SensitivityRoute};
use crate::solver::{
    plan_query, solve_planned, solve_with_impl, Budget, Hardness, InstanceState, OnHard, Planned,
    Precision, RouteEval, SharedInstance, Solution, SolveError, SolverOptions,
};
use crate::ucq::{Ucq, UcqRoute};
use crate::{counting, Fallback, Route};
use phom_graph::{Graph, ProbGraph};
use phom_lineage::engine::{Arena, GateId};
use phom_lineage::fxhash::{FxHashMap, FxHasher};
use phom_lineage::{FlatArena, WorkMeter};
use phom_num::{ErrF64, Natural, Rational, Weight};
use rand::SeedableRng;
use std::hash::{Hash, Hasher};
use std::panic::AssertUnwindSafe;
use std::sync::Arc;
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------
// Requests and responses
// ---------------------------------------------------------------------

/// A typed unit of work for [`Engine::submit`], unifying the historical
/// per-module entry points (`solve*`, `counting`, `sensitivity`, `ucq`)
/// behind one builder.
///
/// Construct with [`Request::probability`] or [`Request::ucq`], reshape
/// with [`counting`](Request::counting) / [`sensitivity`](Request::sensitivity),
/// and tune with [`with_provenance`](Request::with_provenance) /
/// [`fallback`](Request::fallback) / [`options`](Request::options).
/// Unset knobs inherit the engine's
/// [`default_options`](EngineBuilder::default_options).
#[derive(Clone, Debug)]
pub struct Request {
    kind: RequestKind,
    overrides: Overrides,
}

#[derive(Clone, Debug)]
enum RequestKind {
    Probability(Graph),
    Counting(Graph),
    Sensitivity(Graph),
    Ucq(Ucq),
}

#[derive(Clone, Copy, Debug, Default)]
struct Overrides {
    /// Full replacement of the engine defaults, applied before the
    /// per-field overrides below.
    options: Option<SolverOptions>,
    fallback: Option<Fallback>,
    want_provenance: Option<bool>,
    precision: Option<Precision>,
    budget: Option<Budget>,
    on_hard: Option<OnHard>,
    /// Absolute expiry, anchored when [`Request::deadline`] was called
    /// (request construction = arrival). Deliberately *not* part of the
    /// resolved [`SolverOptions`]: a deadline is relative to wall-clock
    /// arrival and never fragments the answer cache.
    deadline_at: Option<Instant>,
    /// Observability trace id minted at the front door. Like
    /// `deadline_at`, *not* part of the resolved [`SolverOptions`]:
    /// a trace id is per-request metadata and never fragments the
    /// answer cache.
    trace: Option<u64>,
}

/// Which of the serving runtime's two priority lanes a request rides,
/// derived from its route class at admission: cheap exact plans take
/// the fast lane and never queue behind sampling, estimation, or
/// float-escalation jobs in the slow lane.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Lane {
    /// Exact probability work with no sampling possibility: bounded,
    /// predictable tick cost.
    Fast,
    /// Everything that may sample, estimate, escalate, or run a
    /// non-probability pipeline (counting / sensitivity / UCQ).
    Slow,
}

impl Request {
    /// `Pr(G ⇝ H)`: the core probability query. Answered through the
    /// engine's interned/cached/sharded batch path.
    pub fn probability(query: Graph) -> Self {
        Request {
            kind: RequestKind::Probability(query),
            overrides: Overrides::default(),
        }
    }

    /// A union of conjunctive queries: `Pr(G₁ ∨ … ∨ G_r ⇝ H)`.
    pub fn ucq(ucq: Ucq) -> Self {
        Request {
            kind: RequestKind::Ucq(ucq),
            overrides: Overrides::default(),
        }
    }

    /// Reshape into a model-counting request: the number of worlds (over
    /// the instance's all-½ uncertain edges) in which the query holds.
    ///
    /// # Panics
    /// When called on a UCQ request (counting is defined per query graph).
    pub fn counting(self) -> Self {
        Request {
            kind: RequestKind::Counting(self.query_graph("counting")),
            overrides: self.overrides,
        }
    }

    /// Reshape into a sensitivity request: all edge influences
    /// `∂ Pr / ∂ π(e)`.
    ///
    /// # Panics
    /// When called on a UCQ request.
    pub fn sensitivity(self) -> Self {
        Request {
            kind: RequestKind::Sensitivity(self.query_graph("sensitivity")),
            overrides: self.overrides,
        }
    }

    /// Ask the solver to attach a [`Provenance`](phom_lineage::Provenance)
    /// handle on routes that can compile one.
    pub fn with_provenance(mut self) -> Self {
        self.overrides.want_provenance = Some(true);
        self
    }

    /// Configure the hard-cell fallback for this request.
    pub fn fallback(mut self, fallback: Fallback) -> Self {
        self.overrides.fallback = Some(fallback);
        self
    }

    /// Pick the evaluation tier for this request — see [`Precision`].
    /// Float-tier answers arrive as [`Response::Approximate`].
    pub fn precision(mut self, precision: Precision) -> Self {
        self.overrides.precision = Some(precision);
        self
    }

    /// Replace the engine's default [`SolverOptions`] wholesale for this
    /// request (the chained per-field overrides still apply on top).
    pub fn options(mut self, options: SolverOptions) -> Self {
        self.overrides.options = Some(options);
        self
    }

    /// Give this request a deadline, anchored **now** (request
    /// construction = arrival). The serving runtime sheds the request
    /// with [`SolveError::DeadlineExceeded`] if it expires while
    /// queued, and cooperative [`WorkMeter`] checkpoints inside the
    /// circuit evaluators and the sampler enforce it mid-evaluation.
    pub fn deadline(self, after: Duration) -> Self {
        self.deadline_at(Instant::now() + after)
    }

    /// As [`deadline`](Request::deadline), with an explicit absolute
    /// expiry (for callers that anchored arrival themselves).
    pub fn deadline_at(mut self, at: Instant) -> Self {
        self.overrides.deadline_at = Some(match self.overrides.deadline_at {
            Some(prev) => prev.min(at),
            None => at,
        });
        self
    }

    /// Cap this request's work — see [`Budget`]. Tripped caps surface
    /// as [`SolveError::BudgetExceeded`] (or a truncated
    /// [`Response::Estimate`] on the estimate path).
    pub fn budget(mut self, budget: Budget) -> Self {
        self.overrides.budget = Some(budget);
        self
    }

    /// Pick the hard-cell degradation policy — see [`OnHard`]. With
    /// [`OnHard::Estimate`], a #P-hard cell answers a budgeted
    /// Monte-Carlo [`Response::Estimate`] instead of
    /// [`SolveError::Hard`].
    pub fn on_hard(mut self, on_hard: OnHard) -> Self {
        self.overrides.on_hard = Some(on_hard);
        self
    }

    /// The absolute deadline set via [`deadline`](Request::deadline) /
    /// [`deadline_at`](Request::deadline_at), if any. The serving
    /// runtime reads this to shed expired-in-queue requests at flush.
    pub fn deadline_instant(&self) -> Option<Instant> {
        self.overrides.deadline_at
    }

    /// Tag this request with an observability trace id (normally minted
    /// at the front door — net server or fleet router — and carried in
    /// the wire frame's optional `"trace"` field). The serving runtime
    /// records per-stage spans under this id; it does not affect
    /// solving or caching.
    pub fn trace(mut self, id: u64) -> Self {
        self.overrides.trace = Some(id);
        self
    }

    /// The trace id set via [`trace`](Request::trace), if any.
    pub fn trace_id(&self) -> Option<u64> {
        self.overrides.trace
    }

    /// The priority [`Lane`] this request rides in the serving
    /// runtime's tick scheduler, derived from its route class under
    /// `default` options: probability requests that stay exact and
    /// cannot sample are [`Lane::Fast`]; anything that may sample,
    /// estimate, or escalate — Monte-Carlo fallbacks,
    /// [`OnHard::Estimate`], float precision tiers, counting,
    /// sensitivity, UCQs — is [`Lane::Slow`].
    pub fn lane(&self, default: SolverOptions) -> Lane {
        if !matches!(self.kind, RequestKind::Probability(_)) {
            return Lane::Slow;
        }
        let opts = self.resolved_options(default);
        let may_sample = matches!(opts.fallback, Fallback::MonteCarlo { .. })
            || opts.on_hard == OnHard::Estimate;
        if opts.precision.is_exact() && !may_sample {
            Lane::Fast
        } else {
            Lane::Slow
        }
    }

    fn query_graph(&self, what: &str) -> Graph {
        match &self.kind {
            RequestKind::Probability(q)
            | RequestKind::Counting(q)
            | RequestKind::Sensitivity(q) => q.clone(),
            RequestKind::Ucq(_) => {
                panic!("Request::{what}() applies to single-query requests, not UCQs")
            }
        }
    }

    fn resolved_options(&self, default: SolverOptions) -> SolverOptions {
        let mut opts = self.overrides.options.unwrap_or(default);
        if let Some(f) = self.overrides.fallback {
            opts.fallback = f;
        }
        if let Some(w) = self.overrides.want_provenance {
            opts.want_provenance = w;
        }
        if let Some(p) = self.overrides.precision {
            opts.precision = p;
        }
        if let Some(b) = self.overrides.budget {
            opts.budget = b;
        }
        if let Some(h) = self.overrides.on_hard {
            opts.on_hard = h;
        }
        opts
    }
}

/// The typed answer to a [`Request`].
#[derive(Clone, Debug)]
pub enum Response {
    /// The answer to a [`Request::probability`] request.
    Probability(Solution),
    /// A float-tier probability answer
    /// ([`Precision::Float`] / [`Precision::Auto`] requests): the
    /// value plus a rigorous upper bound on its relative error,
    /// accumulated through every gate of the lineage evaluation.
    Approximate {
        /// `Pr(G ⇝ H)` as evaluated over `f64`.
        value: f64,
        /// Certified upper bound on `|value − exact| / exact`
        /// (infinite when the value itself rounded to zero).
        rel_err_bound: f64,
        /// The algorithm that produced it.
        route: Route,
    },
    /// The answer to a counting request.
    Count {
        /// Worlds (over the uncertain edges) in which the query holds.
        worlds: Natural,
        /// The number of uncertain edges (worlds range over `2^this`).
        uncertain_edges: usize,
    },
    /// The answer to a sensitivity request.
    Sensitivity {
        /// `∂ Pr / ∂ π(e)` per instance edge.
        influences: Vec<Rational>,
        /// How the influences were obtained.
        route: SensitivityRoute,
    },
    /// The answer to a [`Request::ucq`] request.
    Ucq {
        /// `Pr(G₁ ∨ … ∨ G_r ⇝ H)`.
        probability: Rational,
        /// The tractable UCQ route taken.
        route: UcqRoute,
    },
    /// A budgeted Monte-Carlo confidence interval: the degraded answer
    /// for a #P-hard cell under [`OnHard::Estimate`]. The interval is the
    /// 95% Wilson score interval of the sampled hit rate, which stays
    /// wider than a point even when every sample agreed; when a
    /// deadline or time budget tripped mid-run, `samples` is the
    /// truncated count and the interval is honestly wider (the
    /// *anytime* contract — partial work is still a certified answer).
    Estimate {
        /// Lower end of the 95% confidence interval (within `[0, 1]`).
        lo: f64,
        /// Upper end of the 95% confidence interval (within `[0, 1]`).
        hi: f64,
        /// Worlds actually sampled (≤ the budgeted count).
        samples: u64,
        /// The sampling route taken ([`Route::MonteCarlo`]).
        route: Route,
    },
}

impl Response {
    /// The [`Solution`] of a probability response.
    pub fn solution(&self) -> Option<&Solution> {
        match self {
            Response::Probability(sol) => Some(sol),
            _ => None,
        }
    }

    /// The probability of a probability or UCQ response.
    pub fn probability(&self) -> Option<&Rational> {
        match self {
            Response::Probability(sol) => Some(&sol.probability),
            Response::Ucq { probability, .. } => Some(probability),
            _ => None,
        }
    }

    /// The value and certified relative-error bound of an
    /// [`Approximate`](Response::Approximate) response.
    pub fn approximate(&self) -> Option<(f64, f64)> {
        match self {
            Response::Approximate {
                value,
                rel_err_bound,
                ..
            } => Some((*value, *rel_err_bound)),
            _ => None,
        }
    }

    /// The `(lo, hi, samples)` of an [`Estimate`](Response::Estimate)
    /// response.
    pub fn estimate(&self) -> Option<(f64, f64, u64)> {
        match self {
            Response::Estimate {
                lo, hi, samples, ..
            } => Some((*lo, *hi, *samples)),
            _ => None,
        }
    }
}

// ---------------------------------------------------------------------
// Engine
// ---------------------------------------------------------------------

/// Configuration for a long-lived [`Engine`].
#[derive(Clone)]
pub struct EngineBuilder {
    cache_capacity: usize,
    default_options: SolverOptions,
    shared_cache: Option<CacheHandle>,
}

impl Default for EngineBuilder {
    fn default() -> Self {
        EngineBuilder::new()
    }
}

impl EngineBuilder {
    /// Defaults: unbounded private cache, default [`SolverOptions`].
    pub fn new() -> Self {
        EngineBuilder {
            cache_capacity: usize::MAX,
            default_options: SolverOptions::default(),
            shared_cache: None,
        }
    }

    /// Bound the engine's answer cache to `n` answers (LRU eviction;
    /// `0` retains nothing). Ignored when the engine joins a shared cache
    /// ([`shared_cache`](EngineBuilder::shared_cache)) — the shared
    /// handle carries the bound.
    pub fn cache_capacity(mut self, n: usize) -> Self {
        self.cache_capacity = n;
        self
    }

    /// The [`SolverOptions`] applied to requests that don't override
    /// them.
    pub fn default_options(mut self, options: SolverOptions) -> Self {
        self.default_options = options;
        self
    }

    /// Joins an existing shared answer cache: the engine probes and
    /// fills `cache` instead of allocating its own, so many engines
    /// (one per served graph version, or a `phom_serve::Runtime`'s)
    /// compete for one bounded LRU capacity. Cache keys embed the
    /// instance fingerprint — answers never leak across versions.
    pub fn shared_cache(mut self, cache: CacheHandle) -> Self {
        self.shared_cache = Some(cache);
        self
    }

    /// Builds the engine: classifies the instance, computes its
    /// fingerprint, and allocates the cache.
    pub fn build(self, instance: ProbGraph) -> Engine {
        let state = InstanceState::new(&instance);
        let fingerprint = instance_fingerprint(&instance);
        let cache = self
            .shared_cache
            .unwrap_or_else(|| CacheHandle::with_capacity(self.cache_capacity));
        Engine {
            instance,
            state,
            fingerprint,
            cache,
            default_options: self.default_options,
        }
    }
}

/// A long-lived serving handle for one probabilistic instance: owns the
/// instance-side state and a bounded answer cache. See the
/// [module docs](self) for the full story.
///
/// `Engine` is `Sync`: one engine can serve `submit` calls from many
/// threads (the cache is internally locked; everything else is read-only
/// after construction).
pub struct Engine {
    instance: ProbGraph,
    state: InstanceState,
    fingerprint: u64,
    cache: CacheHandle,
    default_options: SolverOptions,
}

impl Engine {
    /// An engine with default configuration (unbounded private cache).
    pub fn new(instance: ProbGraph) -> Self {
        EngineBuilder::new().build(instance)
    }

    /// Starts a configuration.
    pub fn builder() -> EngineBuilder {
        EngineBuilder::new()
    }

    /// The served instance.
    pub fn instance(&self) -> &ProbGraph {
        &self.instance
    }

    /// The instance's content fingerprint
    /// ([`instance_fingerprint`]) — the version key a
    /// `phom_serve::Runtime` registers the engine under, and part of
    /// every cache key.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Counters and size of the engine's answer cache. For an engine
    /// built on a [`shared_cache`](EngineBuilder::shared_cache) these
    /// describe the *shared* cache.
    pub fn cache_stats(&self) -> CacheStats {
        self.lock_cache().stats()
    }

    /// A cloneable handle to the engine's answer cache, for building
    /// further engines on the *same* cache
    /// ([`EngineBuilder::shared_cache`]).
    pub fn cache_handle(&self) -> CacheHandle {
        self.cache.clone()
    }

    /// The cache lock (poison-recovering — see [`CacheHandle`]).
    fn lock_cache(&self) -> std::sync::MutexGuard<'_, EvalCache> {
        self.cache.lock()
    }

    /// One-shot convenience: a single probability query under the engine
    /// defaults, through the same cache the batch path uses.
    pub fn solve(&self, query: &Graph) -> Result<Solution, SolveError> {
        let mut answers = self.submit(&[Request::probability(query.clone())]);
        match answers.pop().expect("one request in") {
            Ok(Response::Probability(sol)) => Ok(sol),
            // Float-tier engine defaults: fold the approximate value into
            // the historical `Solution` shape (dyadic rational).
            Ok(Response::Approximate { value, route, .. }) => Ok(Solution {
                probability: crate::solver::dyadic_from_f64(value),
                route,
                provenance: None,
            }),
            Ok(other) => unreachable!("probability request answered as {other:?}"),
            Err(e) => Err(e),
        }
    }

    /// Answers a batch of requests, preserving order. Probability
    /// requests are interned, served from the cache where possible, and
    /// solved in one shard; counting, sensitivity, and UCQ requests run
    /// as one unit each. Every unit runs in order on the calling thread:
    /// this is the [`begin_tick_with`](Engine::begin_tick_with) seam
    /// under the default [`TickConfig`], which is how a worker pool such
    /// as `phom_serve::Runtime` evaluates in parallel.
    ///
    /// The cache lock is held only for the (cheap) probe and fill
    /// phases, never across planning or solving — concurrent `submit`
    /// calls against one engine (or engines on one shared cache) overlap
    /// their solve work.
    /// Two concurrent misses of the same query may both solve it; the
    /// second insert is a no-op.
    ///
    /// A panic while solving (a worker bug, a malformed plan) is
    /// **contained**: the affected requests answer
    /// `Err(SolveError::Internal)`, every other request in the batch is
    /// unaffected, and the engine — including its cache — stays
    /// serviceable.
    pub fn submit(&self, requests: &[Request]) -> Vec<Result<Response, SolveError>> {
        self.submit_stats(requests).0
    }

    /// As [`submit`](Engine::submit), returning the [`BatchStats`] of the
    /// probability sub-batch alongside the responses.
    pub fn submit_stats(
        &self,
        requests: &[Request],
    ) -> (Vec<Result<Response, SolveError>>, BatchStats) {
        let mut tick = plan_tick(self, requests, &TickConfig::default());
        let mut scratch = WorkerScratch::new();
        let outputs = std::mem::take(&mut tick.units)
            .into_iter()
            .map(|unit| run_unit(self, unit, &mut scratch))
            .collect();
        finish_tick(self, tick, outputs)
    }

    /// One non-probability request (counting / sensitivity / UCQ),
    /// served through the engine's answer cache under a kind-tagged key:
    /// deterministic outcomes — answers, typed hardness, validation
    /// errors — are cached; transient failures (worker panics) never
    /// are.
    fn run_request(&self, request: &Request) -> Result<Response, SolveError> {
        let opts = request.resolved_options(self.default_options);
        let key = self.request_cache_key(request, &opts);
        if let Some(key) = &key {
            let cached = self.lock_cache().get(key).cloned();
            if let Some(response) = cached {
                return response;
            }
        }
        // Pre-work deadline checkpoint: a cache hit above is served
        // regardless (instant), but an expired request never starts
        // uncached work.
        if let Some(at) = request.overrides.deadline_at {
            if Instant::now() >= at {
                return Err(SolveError::DeadlineExceeded);
            }
        }
        let result = self.run_request_uncached(request, opts);
        if let Some(key) = key {
            // Deterministic outcomes only: transient failures and the
            // time-relative limit errors (another run may finish in
            // budget) never poison the cache. Estimates are cached —
            // their seed is derived from the query, so re-runs are
            // deterministic — unless a time cap truncated the run.
            let time_capped = request.overrides.deadline_at.is_some() || opts.budget.time.is_some();
            let transient = matches!(
                result,
                Err(SolveError::Internal(_)
                    | SolveError::Overloaded { .. }
                    | SolveError::Cancelled
                    | SolveError::DeadlineExceeded
                    | SolveError::BudgetExceeded { .. })
            ) || (time_capped && matches!(result, Ok(Response::Estimate { .. })));
            if !transient {
                self.lock_cache().insert(key, result.clone());
            }
        }
        result
    }

    /// Whether every request's answer is in the answer cache right now.
    /// The probe neither counts a hit nor refreshes recency, and it is
    /// only advisory: another engine on a shared cache may evict an
    /// entry the moment the lock drops, and planning
    /// ([`begin_tick_with`](Engine::begin_tick_with)) still decides what
    /// is served from the cache. `phom_serve::Runtime` asks it at
    /// admission, to answer an all-hit call on the admitting thread.
    ///
    /// It stops at the first miss, so a cold call pays for one key.
    pub fn answers_cached(&self, requests: &[Request]) -> bool {
        requests.iter().all(|request| {
            let opts = request.resolved_options(self.default_options);
            let key = match &request.kind {
                RequestKind::Probability(query) => CacheKey {
                    instance: self.fingerprint,
                    opts: opts_fingerprint(&opts),
                    kind: CacheKind::Probability,
                    query: QueryKey::new(query),
                },
                _ => self
                    .request_cache_key(request, &opts)
                    .expect("non-probability requests have a kind-tagged key"),
            };
            self.lock_cache().contains(&key)
        })
    }

    /// The kind-tagged cache key of a non-probability request (`None`
    /// for probability requests — the batch path interns those itself).
    fn request_cache_key(&self, request: &Request, opts: &SolverOptions) -> Option<CacheKey> {
        let (kind, query) = match &request.kind {
            RequestKind::Probability(_) => return None,
            RequestKind::Counting(q) => (CacheKind::Counting, QueryKey::new(q)),
            RequestKind::Sensitivity(q) => (CacheKind::Sensitivity, QueryKey::new(q)),
            RequestKind::Ucq(u) => (CacheKind::Ucq, QueryKey::of_many(u.disjuncts())),
        };
        Some(CacheKey {
            instance: self.fingerprint,
            opts: opts_fingerprint(opts),
            kind,
            query,
        })
    }

    /// The uncached core of [`run_request`](Engine::run_request). The
    /// counting and UCQ paths reuse the engine's cached instance state —
    /// no per-request re-classification.
    fn run_request_uncached(
        &self,
        request: &Request,
        opts: SolverOptions,
    ) -> Result<Response, SolveError> {
        let shared = SharedInstance::new(&self.instance, &self.state);
        match &request.kind {
            RequestKind::Probability(_) => unreachable!("handled by the batch path"),
            RequestKind::Counting(query) => {
                match counting::count_satisfying_worlds_shared(query, &shared, opts) {
                    Ok(worlds) => Ok(Response::Count {
                        worlds,
                        uncertain_edges: self.instance.uncertain_edges().len(),
                    }),
                    Err(counting::CountError::NotUnweighted { edge }) => {
                        Err(SolveError::InvalidQuery(format!(
                            "counting requires all-½ uncertain probabilities; \
                             edge {edge} has probability {}",
                            self.instance.prob(edge)
                        )))
                    }
                    Err(counting::CountError::Hard(h)) => Err(SolveError::Hard(h)),
                }
            }
            RequestKind::Sensitivity(query) => self.run_sensitivity(query, opts),
            RequestKind::Ucq(ucq) => self.run_ucq(ucq, &shared, opts),
        }
    }

    /// A UCQ request: the tractable routes first (on the engine's cached
    /// instance state), then the request's configured fallback (mirroring
    /// the probability path's hard-cell handling), then typed hardness.
    fn run_ucq(
        &self,
        ucq: &Ucq,
        shared: &SharedInstance<'_>,
        opts: SolverOptions,
    ) -> Result<Response, SolveError> {
        if let Some((probability, route)) = crate::ucq::probability_shared::<Rational>(ucq, shared)
        {
            return Ok(Response::Ucq { probability, route });
        }
        match opts.fallback {
            Fallback::BruteForce { max_uncertain }
                if self.instance.uncertain_edges().len() <= max_uncertain =>
            {
                Ok(Response::Ucq {
                    probability: crate::ucq::bruteforce_probability(ucq, &self.instance),
                    route: UcqRoute::BruteForce,
                })
            }
            Fallback::MonteCarlo { samples, seed } if opts.budget.samples != Some(0) => {
                let samples = match opts.budget.samples {
                    Some(limit) => samples.min(limit),
                    None => samples,
                };
                let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
                let est = crate::montecarlo::estimate_ucq(ucq, &self.instance, samples, &mut rng);
                Ok(Response::Ucq {
                    probability: crate::solver::dyadic_from_f64(est.mean),
                    route: UcqRoute::MonteCarlo { samples },
                })
            }
            // Hard UCQ cell: degrade to a budgeted interval when the
            // request opted in, mirroring the probability path.
            _ if opts.on_hard == OnHard::Estimate => {
                let samples = opts.budget.samples.unwrap_or(DEFAULT_ESTIMATE_SAMPLES);
                let mut meter = opts.budget.arm(WorkMeter::unbounded());
                let mut rng = rand::rngs::SmallRng::seed_from_u64(ucq_estimate_seed(ucq));
                let (est, _stop) = crate::montecarlo::estimate_ucq_metered(
                    ucq,
                    &self.instance,
                    samples,
                    &mut rng,
                    &mut meter,
                )
                .map_err(SolveError::from_meter)?;
                Ok(Response::Estimate {
                    lo: est.lo,
                    hi: est.hi,
                    samples: est.samples,
                    route: Route::MonteCarlo {
                        samples: est.samples,
                        ci95_times_1e9: (est.ci95 * 1e9) as u64,
                    },
                })
            }
            _ => Err(SolveError::Hard(Hardness {
                prop: "beyond the tractable UCQ routes",
                cell: format!("{}-disjunct UCQ on this instance shape", ucq.len()),
            })),
        }
    }

    /// All edge influences: the engine gradient sweep when a circuit
    /// route applies, otherwise exact conditioning (`2·|E|` dispatcher
    /// solves — the request's fallback applies to each, and hardness
    /// propagates).
    fn run_sensitivity(&self, query: &Graph, opts: SolverOptions) -> Result<Response, SolveError> {
        if let Some((influences, route)) =
            sensitivity::influences::<Rational>(query, &self.instance)
        {
            return Ok(Response::Sensitivity { influences, route });
        }
        let influences = sensitivity::try_influences_by_conditioning::<Rational, SolveError>(
            &self.instance,
            |pinned| Ok(solve_with_impl(query, pinned, opts)?.probability),
        )?;
        Ok(Response::Sensitivity {
            influences,
            route: SensitivityRoute::Conditioning,
        })
    }
}

// ---------------------------------------------------------------------
// The batch core (shared by Engine::submit and the tick seam)
// ---------------------------------------------------------------------

/// One probability query with its resolved options.
struct BatchItem<'q> {
    query: &'q Graph,
    opts: SolverOptions,
    /// Absolute expiry, when the request carries a deadline. Deadline'd
    /// items are never interned together (each gets its own slot) and
    /// run the solo metered path instead of a deferred batch pass.
    deadline_at: Option<Instant>,
}

/// A unique cache miss recorded during the probe phase, before planning.
struct MissSlot {
    slot: usize,
    item_idx: usize,
}

/// A planned-but-unsolved unique query, ready for a shard. Owns its
/// query and options (no borrows), so a shard can cross a thread or
/// channel boundary — the `Send` handoff the persistent worker pools in
/// `phom_serve` are built on.
struct PendingSlot {
    slot: usize,
    query: Graph,
    opts: SolverOptions,
    planned: Planned,
    deadline_at: Option<Instant>,
}

impl PendingSlot {
    /// True iff this slot needs cooperative [`WorkMeter`] checkpoints —
    /// a deadline or any budget cap. A metered slot's circuit compiles
    /// into an arena of its own and never joins a multi-root slab pass,
    /// whose single evaluation couldn't honor per-request limits.
    fn is_metered(&self) -> bool {
        self.deadline_at.is_some() || !self.opts.budget.is_unlimited()
    }

    /// The slot's meter, armed with its budget caps and deadline.
    fn meter(&self) -> WorkMeter {
        let meter = self.opts.budget.arm(WorkMeter::unbounded());
        match self.deadline_at {
            Some(at) => meter.with_deadline(at),
            None => meter,
        }
    }

    /// Compiles the slot's `Lineage` route into `arena` (over the
    /// instance graph `h`), turning it into a `Circuit` — unless a
    /// provenance handle was requested (handles own their circuit).
    /// Returns whether it compiled.
    fn lower(&mut self, arena: &mut Arena, h: &Graph) -> bool {
        if self.opts.want_provenance {
            return false;
        }
        let Some((root, negated)) = self.planned.route.compile(arena, h) else {
            return false;
        };
        self.planned.route = RouteEval::Circuit { root, negated };
        true
    }

    /// The slot's compiled root, tagged for its slab pass.
    fn deferred(&self) -> Option<DeferredRoot> {
        let RouteEval::Circuit { root, negated } = self.planned.route else {
            return None;
        };
        let route = self.planned.route.route()?;
        Some((self.slot, root, negated, route, self.opts.precision))
    }
}

/// What one shard produced.
struct ShardOutcome {
    results: Vec<(usize, Result<Response, SolveError>)>,
    gates: usize,
    circuit_batched: usize,
    general_solved: usize,
    float_evaluated: usize,
    escalations: usize,
}

impl ShardOutcome {
    fn empty(capacity: usize) -> ShardOutcome {
        ShardOutcome {
            results: Vec::with_capacity(capacity),
            gates: 0,
            circuit_batched: 0,
            general_solved: 0,
            float_evaluated: 0,
            escalations: 0,
        }
    }

    fn lost(slots: Vec<usize>, message: String) -> ShardOutcome {
        ShardOutcome {
            results: slots
                .into_iter()
                .map(|slot| (slot, Err(SolveError::Internal(message.clone()))))
                .collect(),
            ..ShardOutcome::empty(0)
        }
    }
}

/// One compiled circuit root, waiting for its arena's slab pass: (unique
/// slot, root gate, negated, route, requested precision tier).
type DeferredRoot = (usize, GateId, bool, Route, Precision);

/// Reusable evaluation buffers for [`TickUnit::run_with`]: one value
/// slab per precision tier, handed to the [`FlatArena`] passes.
///
/// A persistent worker (one `phom_serve` pool thread) holds one
/// `WorkerScratch` for its lifetime and hands it to every unit it runs;
/// after warm-up the multi-root evaluation passes allocate nothing
/// beyond the compiled slabs and the returned answers.
/// [`TickUnit::run`] is the scratch-per-call convenience.
#[derive(Default)]
pub struct WorkerScratch {
    exact_values: Vec<Rational>,
    float_values: Vec<ErrF64>,
}

impl WorkerScratch {
    /// Empty scratch; buffers grow to the slabs evaluated through it.
    pub fn new() -> Self {
        WorkerScratch::default()
    }
}

/// One independent, owned unit of tick work: a share of the planned
/// probability queries, or a single non-probability request.
enum UnitWork {
    /// Planned probability slots. Their lineage routes compile into the
    /// unit's own arena, unless they were compiled into a **cross-shard
    /// shared `arena`** at plan time (large ticks — each unit then
    /// evaluates its slice of the shared arena's roots).
    Slots {
        arena: Option<Arc<Arena>>,
        slots: Vec<PendingSlot>,
    },
    Single {
        index: usize,
        request: Box<Request>,
    },
}

/// The index-tagged output of one [`UnitWork`] — scheduling order never
/// affects where results land.
enum UnitOutput {
    Shard(ShardOutcome),
    Single {
        index: usize,
        result: Result<Response, SolveError>,
    },
}

/// A batch after the probe phase, awaiting planning, execution, and
/// cache fill. Splitting the phases lets [`Engine`] hold its cache lock
/// only around [`prepare_batch`] and [`finalize_batch`], never across
/// planning or the solve work in the units.
struct PreparedBatch {
    stats: BatchStats,
    /// Per unique slot: the answer, once known. Probability-batch slots
    /// hold `Response::Probability` (exact) or `Response::Approximate`
    /// (float tier) — never the other response kinds.
    slots: Vec<Option<Result<Response, SolveError>>>,
    /// Unique slots still to solve (not planned yet — planning runs in
    /// [`plan_pending`], outside any cache lock).
    pending: Vec<MissSlot>,
    /// Per unique slot: (first item idx, opts fingerprint, query key).
    unique: Vec<(usize, u64, QueryKey)>,
    /// Batch order → unique slot.
    slot_of_item: Vec<usize>,
}

/// The planned core of one micro-batch: the probability sub-batch after
/// intern → probe → plan, the independent work units (probability
/// shards first, then one unit per other request), and the layout
/// mapping unit outputs back to request order.
struct PlannedTick {
    n_requests: usize,
    /// Request index of each probability batch item (batch order).
    prob_req: Vec<usize>,
    /// Non-probability requests answered from the cache at plan time.
    served: Vec<(usize, Result<Response, SolveError>)>,
    prepared: PreparedBatch,
    units: Vec<UnitWork>,
}

/// How a tick splits its work across units — the knobs of the
/// [`Engine::begin_tick_with`] seam.
#[derive(Clone, Copy, Debug)]
pub struct TickConfig {
    /// Probability work is split across at most this many units.
    pub shards: usize,
    /// Cross-shard arena sharing: when at least this many unique,
    /// uncached probability queries must be solved, every
    /// circuit-compilable plan is compiled into **one** shared arena at
    /// plan time and the roots are partitioned across the shards (one
    /// multi-root pass per unit) — instead of each shard compiling its
    /// own arena. `None` keeps per-shard arenas always. Answers are
    /// bit-identical either way; sharing trades plan-time compilation
    /// for maximal gate interning across the whole tick.
    pub share_arena_at: Option<usize>,
}

impl Default for TickConfig {
    fn default() -> Self {
        TickConfig {
            shards: 1,
            share_arena_at: None,
        }
    }
}

/// Intern → cache probe → plan → shard: everything before execution.
/// The cache lock is held only around the probe; planning is pure reads
/// over the shared instance state and runs sequentially, so slot order
/// stays deterministic.
fn plan_tick(engine: &Engine, requests: &[Request], config: &TickConfig) -> PlannedTick {
    let shared = SharedInstance::new(&engine.instance, &engine.state);
    let mut prob_items: Vec<BatchItem> = Vec::new();
    let mut prob_req: Vec<usize> = Vec::new();
    let mut other_req: Vec<usize> = Vec::new();
    for (i, request) in requests.iter().enumerate() {
        match &request.kind {
            RequestKind::Probability(query) => {
                prob_items.push(BatchItem {
                    query,
                    opts: request.resolved_options(engine.default_options),
                    deadline_at: request.overrides.deadline_at,
                });
                prob_req.push(i);
            }
            _ => other_req.push(i),
        }
    }
    let mut singles: Vec<UnitWork> = Vec::new();
    let mut served: Vec<(usize, Result<Response, SolveError>)> = Vec::new();
    let mut prepared = {
        let mut guard = engine.lock_cache();
        let prepared = prepare_batch(&prob_items, &mut guard, engine.fingerprint);
        // Non-probability requests probe the cache at plan time too, so
        // a cached counting/sensitivity/UCQ answer produces no unit and
        // never queues behind a saturated (or panicking) pool.
        for &i in &other_req {
            let request = &requests[i];
            let opts = request.resolved_options(engine.default_options);
            if let Some(key) = engine.request_cache_key(request, &opts) {
                if let Some(response) = guard.get(&key) {
                    served.push((i, response.clone()));
                    continue;
                }
            }
            singles.push(UnitWork::Single {
                index: i,
                request: Box::new(request.clone()),
            });
        }
        prepared
    };
    let pending = plan_pending(shared, &prob_items, &mut prepared);
    // Large ticks on a connected instance may compile into one shared
    // arena; what does not compile falls through to per-shard units.
    let share = config
        .share_arena_at
        .is_some_and(|t| pending.len() >= t.max(1))
        && shared.ic().is_connected();
    let (shared_units, pending) = if share {
        split_shared_arena(shared, pending, config.shards, &mut prepared.stats)
    } else {
        (Vec::new(), pending)
    };
    let mut units = shard_units(pending, config.shards, &mut prepared.stats);
    units.extend(shared_units);
    units.extend(singles);
    PlannedTick {
        n_requests: requests.len(),
        prob_req,
        served,
        prepared,
        units,
    }
}

/// Fills the cache with the freshly solved probability slots and fans
/// every unit output back to request order. Outputs may arrive in any
/// order; a missing output surfaces as `Err(SolveError::Internal)` on
/// its requests rather than a panic — a serving loop must not die
/// because one unit was lost.
fn finish_tick(
    engine: &Engine,
    tick: PlannedTick,
    outputs: Vec<UnitOutput>,
) -> (Vec<Result<Response, SolveError>>, BatchStats) {
    let PlannedTick {
        n_requests,
        prob_req,
        served,
        mut prepared,
        units,
    } = tick;
    debug_assert!(units.is_empty(), "finish before running the units");
    let mut out: Vec<Option<Result<Response, SolveError>>> = Vec::new();
    out.resize_with(n_requests, || None);
    for (i, response) in served {
        out[i] = Some(response);
    }
    for output in outputs {
        match output {
            UnitOutput::Shard(outcome) => apply_shard(&mut prepared, outcome),
            UnitOutput::Single { index, result } => {
                count_degradations(&mut prepared.stats, &result);
                out[index] = Some(result);
            }
        }
    }
    let (prob_results, stats) = {
        let mut guard = engine.lock_cache();
        finalize_batch(prepared, &mut guard, engine.fingerprint)
    };
    for (i, result) in prob_req.into_iter().zip(prob_results) {
        out[i] = Some(result);
    }
    let responses = out
        .into_iter()
        .map(|slot| {
            slot.unwrap_or_else(|| {
                Err(SolveError::Internal("a work unit's output was lost".into()))
            })
        })
        .collect();
    (responses, stats)
}

/// Merges one shard's outcome into the prepared batch.
fn apply_shard(prepared: &mut PreparedBatch, outcome: ShardOutcome) {
    prepared.stats.shared_gates += outcome.gates;
    prepared.stats.circuit_batched += outcome.circuit_batched;
    prepared.stats.general_solved += outcome.general_solved;
    prepared.stats.float_evaluated += outcome.float_evaluated;
    prepared.stats.escalations += outcome.escalations;
    for (slot, answer) in outcome.results {
        count_degradations(&mut prepared.stats, &answer);
        prepared.slots[slot] = Some(answer);
    }
}

/// Folds one answer's degradation outcome (estimate / deadline /
/// budget) into the batch counters.
fn count_degradations(stats: &mut BatchStats, answer: &Result<Response, SolveError>) {
    match answer {
        Ok(Response::Estimate { .. }) => stats.estimates += 1,
        Err(SolveError::DeadlineExceeded) => stats.deadline_exceeded += 1,
        Err(SolveError::BudgetExceeded { .. }) => stats.budget_exceeded += 1,
        _ => {}
    }
}

/// Phase 1 of the batched probability core: intern the batch (one slot
/// per structurally distinct (options, query) pair), probe the cache,
/// and record every miss. Nothing heavier than hashing runs here — this
/// is the phase an [`Engine`] holds its cache lock around.
fn prepare_batch(
    items: &[BatchItem<'_>],
    cache: &mut EvalCache,
    fingerprint: u64,
) -> PreparedBatch {
    let mut stats = BatchStats {
        queries: items.len(),
        shards: 1,
        ..Default::default()
    };
    let mut slot_of_key: FxHashMap<(u64, QueryKey), usize> = FxHashMap::default();
    let mut unique: Vec<(usize, u64, QueryKey)> = Vec::new();
    let mut slot_of_item: Vec<usize> = Vec::with_capacity(items.len());
    for (i, item) in items.iter().enumerate() {
        let opts_fp = opts_fingerprint(&item.opts);
        let key = QueryKey::new(item.query);
        let next = unique.len();
        // Deadline'd items never share a slot: two identical queries
        // with different expiries must be sheddable independently (the
        // deadline is not in the options fingerprint, so the intern map
        // would otherwise conflate them). They still probe and are
        // probed *from* the same cache key.
        let slot = if item.deadline_at.is_some() {
            unique.push((i, opts_fp, key));
            next
        } else {
            *slot_of_key
                .entry((opts_fp, key.clone()))
                .or_insert_with(|| {
                    unique.push((i, opts_fp, key));
                    next
                })
        };
        slot_of_item.push(slot);
    }
    stats.unique_queries = unique.len();

    let mut slots: Vec<Option<Result<Response, SolveError>>> = Vec::new();
    slots.resize_with(unique.len(), || None);
    let mut pending: Vec<MissSlot> = Vec::new();
    for (slot, (item_idx, opts_fp, key)) in unique.iter().enumerate() {
        let ckey = CacheKey {
            instance: fingerprint,
            opts: *opts_fp,
            kind: CacheKind::Probability,
            query: key.clone(),
        };
        // Exact and float-tier answers never alias: the options
        // fingerprint folds in the precision.
        if let Some(answer) = cache.get(&ckey) {
            stats.cache_hits += 1;
            slots[slot] = Some(answer.clone());
            continue;
        }
        pending.push(MissSlot {
            slot,
            item_idx: *item_idx,
        });
    }
    PreparedBatch {
        stats,
        slots,
        pending,
        unique,
        slot_of_item,
    }
}

/// Phase 2a: plan every pending unique query. Planning is pure reads
/// over the shared state and runs sequentially (slot order stays
/// deterministic); the produced [`PendingSlot`]s own their query and
/// options, ready to cross a thread boundary. No cache access.
fn plan_pending(
    shared: SharedInstance<'_>,
    items: &[BatchItem<'_>],
    prepared: &mut PreparedBatch,
) -> Vec<PendingSlot> {
    std::mem::take(&mut prepared.pending)
        .into_iter()
        .map(|miss| PendingSlot {
            slot: miss.slot,
            query: items[miss.item_idx].query.clone(),
            opts: items[miss.item_idx].opts,
            planned: plan_query(items[miss.item_idx].query, &shared),
            deadline_at: items[miss.item_idx].deadline_at,
        })
        .collect()
}

/// Phase 2b: buckets the planned slots into at most `shards` units
/// (round-robin — the historical assignment, so results stay
/// bit-identical), recording the shard count in `stats`.
fn shard_units(pending: Vec<PendingSlot>, shards: usize, stats: &mut BatchStats) -> Vec<UnitWork> {
    stats.shards = shards.clamp(1, pending.len().max(1));
    deal(pending, shards)
        .into_iter()
        .map(|slots| UnitWork::Slots { arena: None, slots })
        .collect()
}

/// Deals `items` round-robin into at most `n` non-empty buckets.
fn deal<T>(items: Vec<T>, n: usize) -> Vec<Vec<T>> {
    let n = n.clamp(1, items.len().max(1));
    let mut buckets: Vec<Vec<T>> = Vec::new();
    buckets.resize_with(n.min(items.len()), Vec::new);
    for (i, item) in items.into_iter().enumerate() {
        buckets[i % n].push(item);
    }
    buckets
}

/// Executes one unit. Panics are contained into per-request
/// [`SolveError::Internal`] errors.
fn run_unit(engine: &Engine, work: UnitWork, scratch: &mut WorkerScratch) -> UnitOutput {
    match work {
        UnitWork::Slots { arena, slots } => {
            let shared = SharedInstance::new(&engine.instance, &engine.state);
            let lost: Vec<usize> = slots.iter().map(|p| p.slot).collect();
            UnitOutput::Shard(
                std::panic::catch_unwind(AssertUnwindSafe(|| {
                    test_support::maybe_panic();
                    run_slots(shared, arena.as_deref(), slots, scratch)
                }))
                .unwrap_or_else(|payload| {
                    ShardOutcome::lost(lost, panic_message(payload.as_ref()))
                }),
            )
        }
        UnitWork::Single { index, request } => {
            let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
                test_support::maybe_panic();
                engine.run_request(&request)
            }))
            .unwrap_or_else(|payload| Err(SolveError::Internal(panic_message(payload.as_ref()))));
            UnitOutput::Single { index, result }
        }
    }
}

/// Best-effort extraction of a panic payload's message.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "worker panicked".to_string()
    }
}

/// Phase 3: fill the cache with the freshly solved slots and fan back
/// out to batch order. Deterministic outcomes (answers and typed
/// hardness) are cached; transient failures (a contained worker panic)
/// never are, so a retry re-solves. A slot whose shard was lost
/// surfaces as `Err(SolveError::Internal)`, never a panic.
fn finalize_batch(
    prepared: PreparedBatch,
    cache: &mut EvalCache,
    fingerprint: u64,
) -> (Vec<Result<Response, SolveError>>, BatchStats) {
    let PreparedBatch {
        stats,
        slots,
        pending,
        unique,
        slot_of_item,
    } = prepared;
    debug_assert!(pending.is_empty(), "finalize before execute");
    let slots: Vec<Result<Response, SolveError>> = slots
        .into_iter()
        .map(|slot| {
            slot.unwrap_or_else(|| Err(SolveError::Internal("a shard's output was lost".into())))
        })
        .collect();
    for ((_, opts_fp, key), answer) in unique.into_iter().zip(&slots) {
        let deterministic = matches!(
            answer,
            Ok(Response::Probability(_) | Response::Approximate { .. }) | Err(SolveError::Hard(_))
        );
        if !deterministic {
            continue;
        }
        cache.insert(
            CacheKey {
                instance: fingerprint,
                opts: opts_fp,
                kind: CacheKind::Probability,
                query: key,
            },
            answer.clone(),
        );
    }
    let results = slot_of_item.iter().map(|&s| slots[s].clone()).collect();
    (results, stats)
}

/// The cross-shard shared-arena split: compiles every unmetered lineage
/// route into **one** arena (sequentially, at plan time — gate interning
/// across queries maximizes sharing) and deals the compiled slots
/// round-robin into units that share the arena, one multi-root pass
/// each. Slots that don't compile (other routes, provenance requests,
/// metered slots) are returned for the per-shard units. A query's
/// compiled circuit — and therefore its exact rational probability —
/// does not depend on which arena it lands in, so answers stay
/// bit-identical to the per-shard path.
fn split_shared_arena(
    shared: SharedInstance<'_>,
    pending: Vec<PendingSlot>,
    shards: usize,
    stats: &mut BatchStats,
) -> (Vec<UnitWork>, Vec<PendingSlot>) {
    let h = shared.instance.graph();
    let mut arena = Arena::new(h.n_edges());
    let (mut compiled, mut rest) = (Vec::new(), Vec::new());
    for mut pending in pending {
        if !pending.is_metered() && pending.lower(&mut arena, h) {
            compiled.push(pending);
        } else {
            rest.push(pending);
        }
    }
    if compiled.is_empty() {
        return (Vec::new(), rest);
    }
    stats.shared_arena = true;
    stats.shared_gates += arena.n_gates();
    let arena = Arc::new(arena);
    let units = deal(compiled, shards)
        .into_iter()
        .map(|slots| UnitWork::Slots {
            arena: Some(Arc::clone(&arena)),
            slots,
        })
        .collect();
    (units, rest)
}

/// The one serve-or-escalate loop of a tick unit. A slot whose route is
/// a circuit joins the unit arena's slab passes ([`eval_deferred`]); the
/// unit compiles lineage routes into an arena of its own unless its
/// slots share a plan-time `shared` arena. Every other route evaluates
/// on its own ([`answer_general`]).
///
/// A metered slot (deadline / budget caps) checks its [`WorkMeter`]
/// before any work, and its circuit compiles into an arena of its own,
/// evaluated as a one-root slab under the meter, so a stuck or oversized
/// evaluation stops cooperatively. Its circuit — and therefore its
/// answer — is the one the batched pass builds, so a request that
/// finishes within its limits answers bit-identically to an unmetered
/// twin.
fn run_slots(
    shared: SharedInstance<'_>,
    shared_arena: Option<&Arena>,
    slots: Vec<PendingSlot>,
    scratch: &mut WorkerScratch,
) -> ShardOutcome {
    let instance = shared.instance;
    let h = instance.graph();
    let mut outcome = ShardOutcome::empty(slots.len());
    let mut own = shared_arena.is_none().then(|| Arena::new(h.n_edges()));
    let mut deferred: Vec<DeferredRoot> = Vec::new();
    for mut pending in slots {
        let mut meter = pending.meter();
        if pending.is_metered() {
            // Pre-work checkpoint: a request that expired in a queue (or
            // behind a stuck unit) sheds before compiling anything.
            if let Err(stop) = meter.check_now() {
                outcome
                    .results
                    .push((pending.slot, Err(SolveError::from_meter(stop))));
                continue;
            }
            let mut solo = Arena::new(h.n_edges());
            if pending.lower(&mut solo, h) {
                let root = pending.deferred().expect("a compiled root");
                outcome.circuit_batched += 1;
                outcome.gates += solo.n_gates();
                eval_deferred(
                    &solo,
                    instance.probs(),
                    vec![root],
                    Some(&mut meter),
                    &mut outcome,
                    scratch,
                );
                continue;
            }
        } else if let Some(own) = &mut own {
            pending.lower(own, h);
        }
        if let Some(root) = pending.deferred() {
            deferred.push(root);
            outcome.circuit_batched += 1;
            continue;
        }
        let slot = pending.slot;
        let result = answer_general(shared, pending, &mut meter, &mut outcome);
        outcome.results.push((slot, result));
    }
    // The shared arena's gates are counted once, at plan time.
    outcome.gates += own.as_ref().map_or(0, Arena::n_gates);
    if let Some(arena) = shared_arena.or(own.as_ref()) {
        eval_deferred(
            arena,
            instance.probs(),
            deferred,
            None,
            &mut outcome,
            scratch,
        );
    }
    outcome
}

/// The float tiers' serve-or-escalate decision on one certified value,
/// counted in `outcome`: the [`Response::Approximate`] answer, or — when
/// an `Auto` bound misses its tolerance — the route handed back for the
/// exact pass. `Float` never escalates: above tolerance the value is
/// still served, with its honest (too-large) bound.
fn serve_float(
    value: ErrF64,
    route: Route,
    precision: Precision,
    outcome: &mut ShardOutcome,
) -> Result<Response, Route> {
    let rel_err_bound = value.rel_err_bound();
    if let Precision::Auto { max_rel_err } = precision {
        if rel_err_bound > max_rel_err {
            outcome.escalations += 1;
            return Err(route);
        }
    }
    outcome.float_evaluated += 1;
    Ok(Response::Approximate {
        value: value.value(),
        rel_err_bound,
        route,
    })
}

/// Answers one slot whose route is not a circuit, in its requested tier.
///
/// `Float` and `Auto` run the route's evaluator over [`ErrF64`] and
/// serve per [`serve_float`]; an `Auto` escalation, like every `Exact`
/// request, runs the same evaluator over [`Rational`]. A request that
/// carries a provenance handle answers exactly, and so do the routes
/// with no float run: the trivial and zero routes and the fallbacks.
/// A hard cell degrades to a budgeted estimate (charged to `meter`) when
/// the request opted in.
fn answer_general(
    shared: SharedInstance<'_>,
    pending: PendingSlot,
    meter: &mut WorkMeter,
    outcome: &mut ShardOutcome,
) -> Result<Response, SolveError> {
    let PendingSlot {
        query,
        opts,
        planned,
        ..
    } = pending;
    outcome.general_solved += 1;
    let provenance = opts
        .want_provenance
        .then(|| planned.route.provenance(shared.instance.graph()))
        .flatten();
    if provenance.is_none() && !opts.precision.is_exact() {
        // A float run that yields no number (a NaN, from a division whose
        // divisor's interval touches 0) leaves the answer to the exact run.
        let value = planned
            .route
            .eval::<ErrF64>(&shared)
            .filter(|v| !v.value().is_nan() && !v.rel_err_bound().is_nan());
        if let (Some(value), Some(route)) = (value, planned.route.route()) {
            if let Ok(response) = serve_float(value, route, opts.precision, outcome) {
                return Ok(response);
            }
        }
    }
    match solve_planned(planned, &shared, opts, provenance) {
        Err(_) if opts.on_hard == OnHard::Estimate => {
            estimate_response(&query, shared.instance, opts, meter)
        }
        other => respond_exact(other.map_err(SolveError::Hard), opts.precision),
    }
}

/// Wraps an exact answer for its requested tier. What reaches here under
/// a float tier is work with no float run — a trivial or zero route
/// (`RouteEval::Const`), a fallback — or an `Auto` escalation. Under
/// [`Precision::Float`] the exact probability is *reported*
/// approximately (correctly-rounded conversion, half-ulp bound) — unless
/// a provenance handle rides on the solution, which only the exact shape
/// carries. `Exact` and `Auto` report the exact solution unchanged.
fn respond_exact(
    answer: Result<Solution, SolveError>,
    precision: Precision,
) -> Result<Response, SolveError> {
    let sol = answer?;
    match precision {
        Precision::Float { .. } if sol.provenance.is_none() => {
            let value = sol.probability.to_f64();
            let wrapped = ErrF64::from_rounded(value, sol.probability.is_zero());
            Ok(Response::Approximate {
                value,
                rel_err_bound: wrapped.rel_err_bound(),
                route: sol.route,
            })
        }
        _ => Ok(Response::Probability(sol)),
    }
}

/// Answers circuit roots of one arena, honoring each root's precision
/// tier, under `meter` when one is given (a metered slot's one-root
/// slab; a tripped meter answers each root of the pass with its typed
/// stop).
///
/// The float tiers (`Float` / `Auto`) compile the union of their root
/// cones into a [`FlatArena`] and evaluate once over
/// [`ErrF64`](phom_num::ErrF64), certifying a relative-error bound per
/// root, served per [`serve_float`]. The exact pass — `Exact` roots plus
/// escalations — compiles their cones into a second [`FlatArena`] and
/// evaluates it over [`Rational`], so exact answers stay bit-identical
/// to a pure-exact batch (per-root values don't depend on which other
/// roots share the pass).
fn eval_deferred(
    arena: &Arena,
    probs: &[Rational],
    deferred: Vec<DeferredRoot>,
    mut meter: Option<&mut WorkMeter>,
    outcome: &mut ShardOutcome,
    scratch: &mut WorkerScratch,
) {
    let (float, mut exact): (Vec<DeferredRoot>, Vec<DeferredRoot>) =
        deferred.into_iter().partition(|d| !d.4.is_exact());
    if !float.is_empty() {
        let leaves: Vec<ErrF64> = probs.iter().map(ErrF64::from_rational).collect();
        let values = slab(
            arena,
            &float,
            &leaves,
            &mut scratch.float_values,
            meter.as_deref_mut(),
        );
        for ((slot, gate, negated, route, precision), value) in float.into_iter().zip(values) {
            let value = match value {
                Ok(value) if negated => value.complement(),
                Ok(value) => value,
                Err(stop) => {
                    outcome.results.push((slot, Err(stop)));
                    continue;
                }
            };
            match serve_float(value, route, precision, outcome) {
                Ok(response) => outcome.results.push((slot, Ok(response))),
                Err(route) => exact.push((slot, gate, negated, route, precision)),
            }
        }
    }
    if !exact.is_empty() {
        let values = slab(arena, &exact, probs, &mut scratch.exact_values, meter);
        for ((slot, _, negated, route, _), value) in exact.into_iter().zip(values) {
            let answer = value.map(|v| {
                Response::Probability(Solution {
                    probability: if negated { v.one_minus() } else { v },
                    route,
                    provenance: None,
                })
            });
            outcome.results.push((slot, answer));
        }
    }
}

/// One slab pass over the cones of `roots`, under `meter` when given:
/// each root's value, or the meter's typed stop for every root.
fn slab<W: Weight>(
    arena: &Arena,
    roots: &[DeferredRoot],
    leaves: &[W],
    values: &mut Vec<W>,
    meter: Option<&mut WorkMeter>,
) -> Vec<Result<W, SolveError>> {
    let gates: Vec<GateId> = roots.iter().map(|d| d.1).collect();
    let flat = FlatArena::compile(arena, &gates);
    match meter {
        None => flat.eval_many(leaves, values).into_iter().map(Ok).collect(),
        Some(meter) => match flat.eval_many_metered(leaves, values, meter) {
            Ok(out) => out.into_iter().map(Ok).collect(),
            Err(stop) => vec![Err(SolveError::from_meter(stop)); roots.len()],
        },
    }
}

/// Samples drawn by the [`OnHard::Estimate`] degradation when the
/// request's [`Budget`] doesn't cap them.
const DEFAULT_ESTIMATE_SAMPLES: u64 = 10_000;

/// The deterministic seed of the [`OnHard::Estimate`] sampler: a hash
/// of the query's content. Repeated runs of the same request estimate
/// from the same world sequence — the statistical suite (and any
/// retrying client) sees identical intervals.
fn estimate_seed(query: &Graph) -> u64 {
    let mut h = FxHasher::default();
    QueryKey::new(query).hash(&mut h);
    h.finish()
}

/// [`estimate_seed`] for UCQ requests: hashed over every disjunct.
fn ucq_estimate_seed(ucq: &Ucq) -> u64 {
    let mut h = FxHasher::default();
    QueryKey::of_many(ucq.disjuncts()).hash(&mut h);
    h.finish()
}

/// The [`OnHard::Estimate`] degradation: a budgeted, metered
/// Monte-Carlo run answering a 95% confidence interval as
/// [`Response::Estimate`]. Anytime: a deadline or time budget tripping
/// after at least one sample returns the truncated (wider) interval; a
/// stop before the first sample surfaces as the meter's typed error.
fn estimate_response(
    query: &Graph,
    instance: &ProbGraph,
    opts: SolverOptions,
    meter: &mut WorkMeter,
) -> Result<Response, SolveError> {
    let samples = opts.budget.samples.unwrap_or(DEFAULT_ESTIMATE_SAMPLES);
    let mut rng = rand::rngs::SmallRng::seed_from_u64(estimate_seed(query));
    let (est, _stop) =
        crate::montecarlo::estimate_metered(query, instance, samples, &mut rng, meter)
            .map_err(SolveError::from_meter)?;
    Ok(Response::Estimate {
        lo: est.lo,
        hi: est.hi,
        samples: est.samples,
        route: Route::MonteCarlo {
            samples: est.samples,
            ci95_times_1e9: (est.ci95 * 1e9) as u64,
        },
    })
}

// ---------------------------------------------------------------------
// The tick seam: external worker pools
// ---------------------------------------------------------------------

/// A planned micro-batch ("tick") against one engine, split into
/// independent [`TickUnit`]s — the plan/execute seam behind
/// `phom_serve`'s persistent worker pools.
///
/// [`Engine::begin_tick_with`] plans the batch (cheap, pure reads over the
/// shared instance state, sequential); the returned units are
/// `Send + 'static` — they own their queries, options, and plans — and
/// may run on any thread, in any order, **without scoped spawns**;
/// [`Tick::finish`] fills the answer cache and assembles the responses
/// in request order.
///
/// [`Engine::submit`] is exactly this seam run in order on the calling
/// thread, so tick results are **bit-identical** to `submit` for every
/// shard count and scheduling.
pub struct Tick {
    engine: Arc<Engine>,
    plan: PlannedTick,
    units: Vec<TickUnit>,
}

impl Engine {
    /// Plans `requests` into a [`Tick`] whose probability work is split
    /// across at most [`shards`](TickConfig::shards) units (plus one unit
    /// per counting / sensitivity / UCQ request), compiling into one
    /// shared arena for ticks of at least
    /// [`share_arena_at`](TickConfig::share_arena_at) misses. Cache hits
    /// are answered during planning and produce no units at all.
    pub fn begin_tick_with(self: &Arc<Self>, requests: &[Request], config: &TickConfig) -> Tick {
        let mut plan = plan_tick(self, requests, config);
        let units = std::mem::take(&mut plan.units)
            .into_iter()
            .map(|work| TickUnit {
                engine: Arc::clone(self),
                work,
            })
            .collect();
        Tick {
            engine: Arc::clone(self),
            plan,
            units,
        }
    }
}

impl Tick {
    /// Hands out the tick's work units (empty on a second call — each
    /// unit runs exactly once).
    pub fn take_units(&mut self) -> Vec<TickUnit> {
        std::mem::take(&mut self.units)
    }

    /// Total requests this tick answers.
    pub fn n_requests(&self) -> usize {
        self.plan.n_requests
    }

    /// Assembles the responses (request order) once every unit has run.
    /// Outputs may arrive in any order; a missing output surfaces as
    /// `Err(SolveError::Internal)` on its requests, never a panic.
    pub fn finish(
        self,
        outputs: Vec<TickOutput>,
    ) -> (Vec<Result<Response, SolveError>>, BatchStats) {
        finish_tick(
            &self.engine,
            self.plan,
            outputs.into_iter().map(|o| o.0).collect(),
        )
    }
}

/// One independent, `Send + 'static` unit of tick work: a shard of
/// planned probability queries (compiled into one arena, answered by
/// one multi-root engine pass) or a single non-probability request.
pub struct TickUnit {
    engine: Arc<Engine>,
    work: UnitWork,
}

impl TickUnit {
    /// Executes the unit. Panics are contained: a panicking plan turns
    /// into `Err(SolveError::Internal)` on the affected requests and
    /// the engine stays serviceable.
    pub fn run(self) -> TickOutput {
        self.run_with(&mut WorkerScratch::new())
    }

    /// As [`run`](TickUnit::run), with caller-owned evaluation scratch:
    /// a persistent worker holds one [`WorkerScratch`] across ticks so
    /// the multi-root evaluation passes stop allocating after warm-up.
    /// Answers are bit-identical to [`run`](TickUnit::run).
    pub fn run_with(self, scratch: &mut WorkerScratch) -> TickOutput {
        TickOutput(run_unit(&self.engine, self.work, scratch))
    }

    /// How many requests this unit answers (for load accounting).
    pub fn n_requests(&self) -> usize {
        match &self.work {
            UnitWork::Slots { slots, .. } => slots.len(),
            UnitWork::Single { .. } => 1,
        }
    }
}

/// The opaque output of one [`TickUnit::run`], handed back to
/// [`Tick::finish`].
pub struct TickOutput(UnitOutput);

// The pool handoff types must cross thread and channel boundaries.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<TickUnit>();
    assert_send::<TickOutput>();
    assert_send::<Request>();
    assert_send::<Response>();
};

/// Support for the worker panic-recovery regression suite — not part of
/// the public API.
#[doc(hidden)]
pub mod test_support {
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

    static INJECT_PANIC: AtomicBool = AtomicBool::new(false);
    static PANIC_BUDGET: AtomicU64 = AtomicU64::new(0);

    /// While set, every executed work unit panics at entry (before any
    /// solving). The engine must contain the panic into per-request
    /// `SolveError::Internal` errors. Test-only; never set in
    /// production code.
    pub fn inject_unit_panic(on: bool) {
        INJECT_PANIC.store(on, Ordering::SeqCst);
    }

    /// One-shot flavor: the next `n` executed work units panic at
    /// entry, then injection stops by itself. Used by scripted fault
    /// plans (`phom_serve::test_support::FaultPlan`) where exactly one
    /// unit should fail rather than every unit while a flag is up.
    pub fn inject_unit_panics(n: u64) {
        PANIC_BUDGET.store(n, Ordering::SeqCst);
    }

    pub(super) fn maybe_panic() {
        if INJECT_PANIC.load(Ordering::SeqCst) {
            panic!("injected unit panic (engine::test_support)");
        }
        loop {
            let left = PANIC_BUDGET.load(Ordering::SeqCst);
            if left == 0 {
                return;
            }
            if PANIC_BUDGET
                .compare_exchange(left, left - 1, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok()
            {
                panic!("injected unit panic (engine::test_support, one-shot)");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phom_graph::generate::{self, ProbProfile};
    use phom_graph::Label;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn twp_instance(seed: u64) -> ProbGraph {
        let mut rng = SmallRng::seed_from_u64(seed);
        generate::with_probabilities(
            generate::two_way_path(8, 2, &mut rng),
            ProbProfile::default(),
            &mut rng,
        )
    }

    /// `Engine::solve` answers as the engine-less single-query path
    /// ([`solve_with_impl`]) and brute force do, then serves the repeat
    /// from its cache.
    #[test]
    fn engine_solve_matches_legacy_and_caches() {
        let h = twp_instance(0xE1);
        let q = Graph::one_way_path(&[Label(0), Label(1)]);
        let engine = Engine::new(h.clone());
        let sol = engine.solve(&q).unwrap();
        let reference = solve_with_impl(&q, &h, SolverOptions::default()).unwrap();
        assert_eq!(sol.probability, reference.probability);
        assert_eq!(sol.route, reference.route);
        assert_eq!(sol.probability, crate::bruteforce::probability(&q, &h));
        let _ = engine.solve(&q).unwrap();
        let stats = engine.cache_stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
    }

    #[test]
    fn request_builder_reshapes_and_overrides() {
        let q = Graph::directed_path(1);
        let req = Request::probability(q.clone())
            .with_provenance()
            .fallback(Fallback::BruteForce { max_uncertain: 4 });
        let opts = req.resolved_options(SolverOptions::default());
        assert!(opts.want_provenance);
        assert!(matches!(
            opts.fallback,
            Fallback::BruteForce { max_uncertain: 4 }
        ));
        assert!(matches!(
            Request::probability(q.clone()).counting().kind,
            RequestKind::Counting(_)
        ));
        assert!(matches!(
            Request::probability(q).sensitivity().kind,
            RequestKind::Sensitivity(_)
        ));
    }

    #[test]
    #[should_panic(expected = "single-query requests")]
    fn counting_a_ucq_panics() {
        let _ = Request::ucq(Ucq::new(vec![])).counting();
    }

    #[test]
    fn non_probability_responses_are_cached() {
        let mut rng = SmallRng::seed_from_u64(0xCA);
        let h = generate::with_probabilities(
            generate::two_way_path(6, 2, &mut rng),
            ProbProfile::half(),
            &mut rng,
        );
        let q = generate::planted_path_query(h.graph(), 2, &mut rng)
            .unwrap_or_else(|| Graph::one_way_path(&[Label(0)]));
        let engine = Engine::new(h);
        let batch = [
            Request::probability(q.clone()).counting(),
            Request::probability(q.clone()).sensitivity(),
            Request::ucq(Ucq::new(vec![q.clone(), Graph::directed_path(1)])),
        ];
        let first = engine.submit(&batch);
        let stats = engine.cache_stats();
        assert_eq!(stats.hits, 0, "{stats:?}");
        assert_eq!(stats.entries, 3, "{stats:?}");
        let second = engine.submit(&batch);
        let stats = engine.cache_stats();
        assert_eq!(stats.hits, 3, "every response kind served hot: {stats:?}");
        for (i, (a, b)) in first.iter().zip(&second).enumerate() {
            match (a, b) {
                (
                    Ok(Response::Count { worlds: wa, .. }),
                    Ok(Response::Count { worlds: wb, .. }),
                ) => {
                    assert_eq!(wa, wb, "request {i}")
                }
                (
                    Ok(Response::Sensitivity { influences: ia, .. }),
                    Ok(Response::Sensitivity { influences: ib, .. }),
                ) => assert_eq!(ia, ib, "request {i}"),
                (
                    Ok(Response::Ucq {
                        probability: pa, ..
                    }),
                    Ok(Response::Ucq {
                        probability: pb, ..
                    }),
                ) => assert_eq!(pa, pb, "request {i}"),
                (a, b) => panic!("request {i}: {a:?} vs {b:?}"),
            }
        }
        // A counting answer never shadows the probability answer for the
        // same query graph: the kind tag keeps the keys distinct.
        let answers = engine.submit(&[Request::probability(q)]);
        assert!(matches!(answers[0], Ok(Response::Probability(_))));
    }

    #[test]
    fn hardness_responses_are_cached_but_deterministically() {
        // A hard-cell counting request caches its typed hardness error.
        let mut rng = SmallRng::seed_from_u64(0xCB);
        let h = generate::with_probabilities(
            generate::connected(4, 2, 1, &mut rng),
            ProbProfile::half(),
            &mut rng,
        );
        let q = Graph::directed_path(2);
        let engine = Engine::new(h);
        let req = [Request::probability(q).counting()];
        let first = engine.submit(&req);
        let second = engine.submit(&req);
        match (&first[0], &second[0]) {
            (Err(SolveError::Hard(a)), Err(SolveError::Hard(b))) => assert_eq!(a, b),
            (Ok(Response::Count { worlds: a, .. }), Ok(Response::Count { worlds: b, .. })) => {
                assert_eq!(a, b)
            }
            (a, b) => panic!("{a:?} vs {b:?}"),
        }
        assert_eq!(engine.cache_stats().hits, 1);
    }

    /// A fleet of engines, one per instance version, built on one cache
    /// handle: each keys its entries by its own fingerprint, so both
    /// versions live in the one bounded cache without crossing.
    #[test]
    fn fleet_routes_by_fingerprint_and_shares_cache() {
        let h1 = twp_instance(1);
        let h2 = twp_instance(2);
        let cache = CacheHandle::with_capacity(64);
        let on_cache = |h: &ProbGraph| {
            Engine::builder()
                .shared_cache(cache.clone())
                .build(h.clone())
        };
        let (e1, e2) = (on_cache(&h1), on_cache(&h2));
        assert_ne!(e1.fingerprint(), e2.fingerprint());
        let q = Graph::one_way_path(&[Label(0)]);
        let r1 = e1.submit(&[Request::probability(q.clone())]);
        let r2 = e2.submit(&[Request::probability(q.clone())]);
        for (answers, h) in [(&r1, &h1), (&r2, &h2)] {
            assert_eq!(
                answers[0].as_ref().unwrap().probability().unwrap(),
                &crate::bruteforce::probability(&q, h)
            );
        }
        // Both versions are cached in the one shared cache under
        // distinct fingerprints, and each engine reports the shared
        // counters.
        assert_eq!(cache.stats().misses, 2);
        assert_eq!(e1.cache_stats(), cache.stats());
        // The repeat on the first version hits its own entry.
        let again = e1.submit(&[Request::probability(q)]);
        assert_eq!(
            again[0].as_ref().unwrap().probability(),
            r1[0].as_ref().unwrap().probability()
        );
        assert_eq!(cache.stats().hits, 1);
    }
}
