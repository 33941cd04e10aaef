//! The session-oriented serving surface: a long-lived [`Engine`] per
//! probabilistic instance, typed [`Request`]s/[`Response`]s, sharded
//! batch submission, and a [`Fleet`] registry for serving many graph
//! versions at once.
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
//! * a **bounded LRU [`EvalCache`]** keyed by (instance fingerprint,
//!   options fingerprint, interned query) — see
//!   [`EngineBuilder::cache_capacity`];
//! * a **shard width** ([`EngineBuilder::threads`]): `submit` distributes
//!   the batch's unique, uncached queries across scoped worker threads.
//!
//! ## Sharding and bit-identical results
//!
//! Planning is pure reads over the shared state. Each shard compiles its
//! assigned circuit-compilable plans into its *own* lineage arena and
//! answers them with one multi-root engine pass; all other plans run the
//! exact per-query path. A query's compiled circuit — and therefore its
//! exact rational probability — does not depend on which arena it lands
//! in or on what else that arena holds (interning only deduplicates
//! structurally identical gates), so `submit` returns **bit-identical**
//! `Response`s for `threads = 1`, `threads = N`, and the legacy
//! `solve_many` path. The equivalence suite in `tests/engine_api.rs`
//! asserts exactly this.
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

use crate::algo::lineage_circuits;
use crate::batch::{
    instance_fingerprint, opts_fingerprint, BatchStats, CacheHandle, CacheKey, CacheKind,
    CacheStats, CachedAnswer, EvalCache, QueryKey,
};
use crate::sensitivity::{self, SensitivityRoute};
use crate::solver::{
    finish_plan, plan_query, solve_with_impl, Budget, Hardness, InstanceState, OnHard, Plan,
    Planned, Precision, SharedInstance, Solution, SolveError, SolverOptions,
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
use std::sync::{Arc, Mutex};
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
    /// for a #P-hard cell under [`OnHard::Estimate`]. The interval is a
    /// 95% normal-approximation CI around the sampled hit rate; when a
    /// deadline or time budget tripped mid-run, `samples` is the
    /// truncated count and the interval is honestly wider (the
    /// *anytime* contract — partial work is still a certified answer).
    Estimate {
        /// Lower end of the 95% confidence interval (clamped to `[0, 1]`).
        lo: f64,
        /// Upper end of the 95% confidence interval (clamped to `[0, 1]`).
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

    /// Any probability-shaped answer as an `f64` — exact responses are
    /// converted (correctly rounded), approximate ones return their
    /// carried value, estimates their interval midpoint.
    pub fn value_f64(&self) -> Option<f64> {
        match self {
            Response::Probability(sol) => Some(sol.probability.to_f64()),
            Response::Approximate { value, .. } => Some(*value),
            Response::Ucq { probability, .. } => Some(probability.to_f64()),
            Response::Estimate { lo, hi, .. } => Some((lo + hi) / 2.0),
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
    threads: usize,
    default_options: SolverOptions,
    shared_cache: Option<CacheHandle>,
}

impl Default for EngineBuilder {
    fn default() -> Self {
        EngineBuilder::new()
    }
}

impl EngineBuilder {
    /// Defaults: unbounded cache, one shard, default [`SolverOptions`].
    pub fn new() -> Self {
        EngineBuilder {
            cache_capacity: usize::MAX,
            threads: 1,
            default_options: SolverOptions::default(),
            shared_cache: None,
        }
    }

    /// Bound the engine's [`EvalCache`] to `n` answers (LRU eviction).
    /// Ignored when the engine joins a shared cache
    /// ([`shared_cache`](EngineBuilder::shared_cache) / [`Fleet`]) —
    /// the shared handle carries the bound.
    pub fn cache_capacity(mut self, n: usize) -> Self {
        self.cache_capacity = n;
        self
    }

    /// Shard width for [`Engine::submit`]: unique uncached queries are
    /// distributed across `k` scoped worker threads. `1` keeps the
    /// historical sequential path (one shared arena across the whole
    /// batch); `0` resolves to the machine's available parallelism.
    /// Results are bit-identical for every width.
    pub fn threads(mut self, k: usize) -> Self {
        self.threads = k;
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
    /// (a [`Fleet`], a `phom_serve::Runtime`) compete for one bounded
    /// LRU capacity. Cache keys embed the instance fingerprint — answers
    /// never leak across versions.
    pub fn shared_cache(mut self, cache: CacheHandle) -> Self {
        self.shared_cache = Some(cache);
        self
    }

    /// Builds the engine: classifies the instance, computes its
    /// fingerprint, and allocates the cache.
    pub fn build(self, instance: ProbGraph) -> Engine {
        let state = InstanceState::new(&instance);
        let fingerprint = instance_fingerprint(&instance);
        let threads = if self.threads == 0 {
            std::thread::available_parallelism().map_or(1, usize::from)
        } else {
            self.threads
        };
        let cache = self
            .shared_cache
            .unwrap_or_else(|| CacheHandle::with_capacity(self.cache_capacity));
        Engine {
            instance,
            state,
            fingerprint,
            cache,
            threads,
            default_options: self.default_options,
        }
    }
}

/// A long-lived serving handle for one probabilistic instance: owns the
/// instance-side state, a bounded answer cache, and the sharded submit
/// loop. See the [module docs](self) for the full story.
///
/// `Engine` is `Sync`: one engine can serve `submit` calls from many
/// threads (the cache is internally locked; everything else is read-only
/// after construction).
pub struct Engine {
    instance: ProbGraph,
    state: InstanceState,
    fingerprint: u64,
    cache: CacheHandle,
    threads: usize,
    default_options: SolverOptions,
}

impl Engine {
    /// An engine with default configuration (unbounded cache, one shard).
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
    /// ([`instance_fingerprint`]) — the routing key inside a [`Fleet`].
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// The configured shard width.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The options requests inherit when they don't override them.
    pub fn default_options(&self) -> SolverOptions {
        self.default_options
    }

    /// Counters and size of the engine's answer cache. For a fleet
    /// member these describe the *shared* cache.
    pub fn cache_stats(&self) -> CacheStats {
        self.lock_cache().stats()
    }

    /// Drops every cached answer (lifetime counters are kept — see
    /// [`EvalCache::clear`]).
    pub fn clear_cache(&self) {
        self.lock_cache().clear();
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
    /// sharded across the configured worker threads; counting,
    /// sensitivity, and UCQ requests run as independent jobs on the same
    /// workers.
    ///
    /// The cache lock is held only for the (cheap) probe and fill
    /// phases, never across planning or solving — concurrent `submit`
    /// calls against one engine (or one fleet) overlap their solve work.
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
        let config = TickConfig {
            shards: self.threads,
            share_arena_at: None,
        };
        let mut tick = plan_tick(self, requests, &config);
        let units = std::mem::take(&mut tick.units);
        let outputs = run_units_scoped(self, units, self.threads);
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
            let cached = {
                let mut guard = self.lock_cache();
                match guard.get(key) {
                    Some(CachedAnswer::Response(r)) => Some(r.clone()),
                    _ => None,
                }
            };
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
                self.lock_cache()
                    .insert(key, CachedAnswer::Response(result.clone()));
            }
        }
        result
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
                    lo: (est.mean - est.ci95).max(0.0),
                    hi: (est.mean + est.ci95).min(1.0),
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
// Fleet
// ---------------------------------------------------------------------

/// A registry of [`Engine`]s keyed by [`instance_fingerprint`], for
/// processes serving **many graph versions** at once (the ROADMAP's
/// cross-instance item). All member engines share **one** bounded
/// [`EvalCache`] — the cache key embeds the instance fingerprint, so
/// answers never leak across versions while hot versions compete for the
/// same capacity.
///
/// ```
/// use phom_core::{Fleet, Request, Response};
/// use phom_graph::{Graph, ProbGraph};
/// use phom_num::Rational;
///
/// let mut fleet = Fleet::with_cache_capacity(4096);
/// let v1 = ProbGraph::new(Graph::directed_path(2), vec![
///     Rational::from_ratio(1, 2), Rational::from_ratio(1, 2)]);
/// let fp = fleet.register(v1);
/// let answers = fleet
///     .submit(fp, &[Request::probability(Graph::directed_path(1))])
///     .expect("registered version");
/// assert_eq!(
///     answers[0].as_ref().unwrap().probability(),
///     Some(&Rational::from_ratio(3, 4)),
/// );
/// ```
pub struct Fleet {
    cache: CacheHandle,
    engines: FxHashMap<u64, Engine>,
    threads: usize,
    default_options: SolverOptions,
}

impl Default for Fleet {
    fn default() -> Self {
        Fleet::new()
    }
}

impl Fleet {
    /// An empty fleet with an unbounded shared cache.
    pub fn new() -> Self {
        Fleet::with_cache_capacity(usize::MAX)
    }

    /// An empty fleet whose members share one cache bounded to
    /// `capacity` answers (LRU across *all* served instances).
    pub fn with_cache_capacity(capacity: usize) -> Self {
        Fleet {
            cache: CacheHandle::with_capacity(capacity),
            engines: FxHashMap::default(),
            threads: 1,
            default_options: SolverOptions::default(),
        }
    }

    /// Shard width applied to engines registered from now on.
    pub fn threads(mut self, k: usize) -> Self {
        self.threads = k;
        self
    }

    /// Default [`SolverOptions`] applied to engines registered from now
    /// on.
    pub fn default_options(mut self, options: SolverOptions) -> Self {
        self.default_options = options;
        self
    }

    /// Registers an instance version, building its engine on the shared
    /// cache, and returns its routing fingerprint. Re-registering an
    /// identical instance replaces the engine (same fingerprint, same
    /// cached answers).
    pub fn register(&mut self, instance: ProbGraph) -> u64 {
        let engine = EngineBuilder::new()
            .threads(self.threads)
            .default_options(self.default_options)
            .shared_cache(self.cache.clone())
            .build(instance);
        let fingerprint = engine.fingerprint();
        self.engines.insert(fingerprint, engine);
        fingerprint
    }

    /// Removes a served version, freeing its engine (its cached answers
    /// age out of the shared cache naturally).
    pub fn deregister(&mut self, fingerprint: u64) -> bool {
        self.engines.remove(&fingerprint).is_some()
    }

    /// The engine serving `fingerprint`, if registered.
    pub fn engine(&self, fingerprint: u64) -> Option<&Engine> {
        self.engines.get(&fingerprint)
    }

    /// Routes a batch to the engine serving `fingerprint`; `None` when no
    /// such version is registered.
    pub fn submit(
        &self,
        fingerprint: u64,
        requests: &[Request],
    ) -> Option<Vec<Result<Response, SolveError>>> {
        Some(self.engine(fingerprint)?.submit(requests))
    }

    /// Registered versions.
    pub fn len(&self) -> usize {
        self.engines.len()
    }

    /// True iff no version is registered.
    pub fn is_empty(&self) -> bool {
        self.engines.is_empty()
    }

    /// The routing fingerprints of every registered version.
    pub fn fingerprints(&self) -> impl Iterator<Item = u64> + '_ {
        self.engines.keys().copied()
    }

    /// Counters and size of the shared cache.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// A cloneable handle to the fleet's shared cache (for building
    /// further engines or runtimes on the same capacity).
    pub fn cache_handle(&self) -> CacheHandle {
        self.cache.clone()
    }

    /// Drops every cached answer across all served versions.
    pub fn clear_cache(&self) {
        self.cache.clear();
    }
}

// ---------------------------------------------------------------------
// The batch core (shared by Engine::submit and the legacy shims)
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
    /// a deadline or any budget cap. Metered slots run the solo path
    /// (own arena, fallible evaluation) and never join a deferred
    /// multi-root batch pass, whose single evaluation couldn't honor
    /// per-request limits.
    fn is_metered(&self) -> bool {
        self.deadline_at.is_some() || !self.opts.budget.is_unlimited()
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

/// One circuit compiled into a shared arena, waiting for its partition's
/// multi-root evaluation pass: (unique slot, root gate, negated, route,
/// requested precision tier).
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

/// One independent, owned unit of tick work: a shard of planned
/// probability queries, a partition of a **cross-shard shared arena**
/// (large ticks — every circuit compiled into one arena, each unit
/// evaluating its slice of the roots), or a single non-probability
/// request.
enum UnitWork {
    Shard(Vec<PendingSlot>),
    SharedEval {
        arena: Arc<Arena>,
        items: Vec<DeferredRoot>,
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
        let prepared = prepare_batch(&prob_items, Some(&mut guard), engine.fingerprint);
        // Non-probability requests probe the cache at plan time too, so
        // a cached counting/sensitivity/UCQ answer produces no unit and
        // never queues behind a saturated (or panicking) pool.
        for &i in &other_req {
            let request = &requests[i];
            let opts = request.resolved_options(engine.default_options);
            if let Some(key) = engine.request_cache_key(request, &opts) {
                if let Some(CachedAnswer::Response(response)) = guard.get(&key) {
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
        finalize_batch(prepared, Some(&mut guard), engine.fingerprint)
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
    mut cache: Option<&mut EvalCache>,
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
        if let Some(c) = cache.as_deref_mut() {
            let ckey = CacheKey {
                instance: fingerprint,
                opts: *opts_fp,
                kind: CacheKind::Probability,
                query: key.clone(),
            };
            // Exact answers are stored as `Solution`s, float-tier answers
            // as full `Response`s; the options fingerprint (which folds
            // in the precision) keeps the two populations disjoint.
            match c.get(&ckey) {
                Some(CachedAnswer::Solution(answer)) => {
                    stats.cache_hits += 1;
                    slots[slot] = Some(
                        answer
                            .clone()
                            .map(Response::Probability)
                            .map_err(SolveError::Hard),
                    );
                    continue;
                }
                Some(CachedAnswer::Response(response)) => {
                    stats.cache_hits += 1;
                    slots[slot] = Some(response.clone());
                    continue;
                }
                None => {}
            }
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

/// Phase 2b: buckets the planned slots into at most `shards` shard
/// units (round-robin — the historical assignment, so results stay
/// bit-identical), recording the shard count in `stats`.
fn shard_units(pending: Vec<PendingSlot>, shards: usize, stats: &mut BatchStats) -> Vec<UnitWork> {
    let workers = if shards <= 1 {
        1
    } else {
        shards.min(pending.len()).max(1)
    };
    stats.shards = workers;
    if pending.is_empty() {
        return Vec::new();
    }
    let mut buckets: Vec<Vec<PendingSlot>> = Vec::new();
    buckets.resize_with(workers, Vec::new);
    for (i, p) in pending.into_iter().enumerate() {
        buckets[i % workers].push(p);
    }
    buckets.into_iter().map(UnitWork::Shard).collect()
}

/// Executes one unit. Each shard owns an arena: circuit-compilable
/// plans compile into it and are answered by one multi-root engine
/// pass; everything else runs the exact per-query path. Panics are
/// contained into per-request [`SolveError::Internal`] errors.
fn run_unit(engine: &Engine, work: UnitWork, scratch: &mut WorkerScratch) -> UnitOutput {
    match work {
        UnitWork::Shard(work) => {
            let shared = SharedInstance::new(&engine.instance, &engine.state);
            UnitOutput::Shard(run_shard_guarded(shared, work, scratch))
        }
        UnitWork::SharedEval { arena, items } => {
            UnitOutput::Shard(run_shared_eval_guarded(engine, &arena, items, scratch))
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

/// Runs work units on up to `threads` scoped worker threads (inline
/// when one suffices). Unit outputs are index-tagged, so scheduling
/// never affects where results land; panics inside a unit are already
/// contained by [`run_unit`].
fn run_units_scoped(engine: &Engine, units: Vec<UnitWork>, threads: usize) -> Vec<UnitOutput> {
    if threads <= 1 || units.len() <= 1 {
        let mut scratch = WorkerScratch::new();
        return units
            .into_iter()
            .map(|u| run_unit(engine, u, &mut scratch))
            .collect();
    }
    let workers = threads.min(units.len());
    let work: Vec<Mutex<Option<UnitWork>>> =
        units.into_iter().map(|u| Mutex::new(Some(u))).collect();
    std::thread::scope(|scope| {
        let work = &work;
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                scope.spawn(move || {
                    let mut acc = Vec::new();
                    let mut scratch = WorkerScratch::new();
                    let mut i = w;
                    while i < work.len() {
                        let unit = work[i]
                            .lock()
                            .unwrap_or_else(std::sync::PoisonError::into_inner)
                            .take()
                            .expect("each unit is taken exactly once");
                        acc.push(run_unit(engine, unit, &mut scratch));
                        i += workers;
                    }
                    acc
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("units contain their own panics"))
            .collect()
    })
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
    cache: Option<&mut EvalCache>,
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
    if let Some(c) = cache {
        for ((_, opts_fp, key), answer) in unique.into_iter().zip(&slots) {
            let cached = match answer {
                Ok(Response::Probability(sol)) => CachedAnswer::Solution(Ok(sol.clone())),
                Ok(approx @ Response::Approximate { .. }) => {
                    CachedAnswer::Response(Ok(approx.clone()))
                }
                Ok(_) => continue,
                Err(SolveError::Hard(h)) => CachedAnswer::Solution(Err(h.clone())),
                Err(_) => continue,
            };
            c.insert(
                CacheKey {
                    instance: fingerprint,
                    opts: opts_fp,
                    kind: CacheKind::Probability,
                    query: key,
                },
                cached,
            );
        }
    }
    let results = slot_of_item.iter().map(|&s| slots[s].clone()).collect();
    (results, stats)
}

/// Evaluates one partition of a cross-shard shared arena: a single
/// multi-root engine pass restricted to this partition's root cones.
/// Panic containment mirrors [`run_shard_guarded`].
fn run_shared_eval_guarded(
    engine: &Engine,
    arena: &Arena,
    items: Vec<DeferredRoot>,
    scratch: &mut WorkerScratch,
) -> ShardOutcome {
    let slots: Vec<usize> = items.iter().map(|d| d.0).collect();
    let n = items.len();
    match std::panic::catch_unwind(AssertUnwindSafe(|| {
        test_support::maybe_panic();
        let mut outcome = ShardOutcome::empty(n);
        // The shared arena's gates are counted once, at plan time.
        outcome.circuit_batched = n;
        eval_deferred(arena, engine.instance.probs(), items, &mut outcome, scratch);
        outcome
    })) {
        Ok(outcome) => outcome,
        Err(payload) => ShardOutcome::lost(slots, panic_message(payload.as_ref())),
    }
}

/// The cross-shard shared-arena split: compiles every circuit-compilable
/// pending plan into **one** arena (sequentially, at plan time — gate
/// interning across queries maximizes sharing) and partitions the
/// resulting roots round-robin into [`UnitWork::SharedEval`] units, one
/// multi-root pass each. Plans that don't compile (general routes,
/// provenance requests, failed compilations) are returned for the
/// ordinary per-shard path. A query's compiled circuit — and therefore
/// its exact rational probability — does not depend on which arena it
/// lands in, so answers stay bit-identical to the per-shard path.
fn split_shared_arena(
    shared: SharedInstance<'_>,
    pending: Vec<PendingSlot>,
    shards: usize,
    stats: &mut BatchStats,
) -> (Vec<UnitWork>, Vec<PendingSlot>) {
    let instance = shared.instance;
    let mut arena = Arena::new(instance.graph().n_edges());
    let mut deferred: Vec<DeferredRoot> = Vec::new();
    let mut rest: Vec<PendingSlot> = Vec::new();
    for pending in pending {
        // Metered slots (deadline / budget) need a fallible solo
        // evaluation; the shared multi-root pass can't stop one root
        // without stopping them all.
        if !pending.opts.want_provenance && !pending.is_metered() {
            match &pending.planned.plan {
                Plan::Prop411 { effective } => {
                    if let Some(root) =
                        lineage_circuits::match_into_2wp(&mut arena, effective, instance.graph())
                    {
                        deferred.push((
                            pending.slot,
                            root,
                            false,
                            Route::Prop411,
                            pending.opts.precision,
                        ));
                        continue;
                    }
                }
                Plan::Prop410 => {
                    if let Some(root) = lineage_circuits::fail_into_dwt(
                        &mut arena,
                        &pending.planned.absorbed,
                        instance.graph(),
                    ) {
                        deferred.push((
                            pending.slot,
                            root,
                            true,
                            Route::Prop410,
                            pending.opts.precision,
                        ));
                        continue;
                    }
                }
                _ => {}
            }
        }
        rest.push(pending);
    }
    if deferred.is_empty() {
        return (Vec::new(), rest);
    }
    stats.shared_arena = true;
    stats.shared_gates += arena.n_gates();
    let arena = Arc::new(arena);
    let partitions = shards.max(1).min(deferred.len());
    let mut buckets: Vec<Vec<DeferredRoot>> = Vec::new();
    buckets.resize_with(partitions, Vec::new);
    for (i, d) in deferred.into_iter().enumerate() {
        buckets[i % partitions].push(d);
    }
    let units = buckets
        .into_iter()
        .map(|items| UnitWork::SharedEval {
            arena: Arc::clone(&arena),
            items,
        })
        .collect();
    (units, rest)
}

/// Executes one shard with panic containment: a panicking plan turns
/// into `Err(SolveError::Internal)` on every slot the shard was
/// assigned, and the caller's thread never unwinds.
fn run_shard_guarded(
    shared: SharedInstance<'_>,
    work: Vec<PendingSlot>,
    scratch: &mut WorkerScratch,
) -> ShardOutcome {
    let slots: Vec<usize> = work.iter().map(|p| p.slot).collect();
    match std::panic::catch_unwind(AssertUnwindSafe(|| {
        test_support::maybe_panic();
        run_shard(shared, work, scratch)
    })) {
        Ok(outcome) => outcome,
        Err(payload) => ShardOutcome::lost(slots, panic_message(payload.as_ref())),
    }
}

/// Wraps a general-path (non-circuit) exact answer for its requested
/// tier: under [`Precision::Float`] the exact probability is *reported*
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

/// Answers every deferred circuit root of one arena, honoring each
/// root's precision tier.
///
/// The float tiers (`Float` / `Auto`) compile the union of their root
/// cones into a [`FlatArena`] and evaluate once over
/// [`ErrF64`](phom_num::ErrF64), certifying a relative-error bound per
/// root. `Float` roots always answer [`Response::Approximate`]; `Auto`
/// roots whose bound exceeds their tolerance **escalate** into the
/// exact pass. The exact pass — `Exact` roots plus escalations —
/// compiles their cones into a second [`FlatArena`] and evaluates it
/// over [`Rational`], so exact answers stay bit-identical to a
/// pure-exact batch (per-root values don't depend on which other roots
/// share the pass).
fn eval_deferred(
    arena: &Arena,
    probs: &[Rational],
    deferred: Vec<DeferredRoot>,
    outcome: &mut ShardOutcome,
    scratch: &mut WorkerScratch,
) {
    let mut exact: Vec<(usize, GateId, bool, Route)> = Vec::new();
    // (slot, root, negated, route, tolerance, escalates-on-miss)
    let mut float: Vec<(usize, GateId, bool, Route, f64, bool)> = Vec::new();
    for (slot, root, negated, route, precision) in deferred {
        match precision {
            Precision::Exact => exact.push((slot, root, negated, route)),
            Precision::Float { max_rel_err } => {
                float.push((slot, root, negated, route, max_rel_err, false))
            }
            Precision::Auto { max_rel_err } => {
                float.push((slot, root, negated, route, max_rel_err, true))
            }
        }
    }
    if !float.is_empty() {
        let roots: Vec<GateId> = float.iter().map(|d| d.1).collect();
        let flat = FlatArena::compile(arena, &roots);
        let leaves: Vec<ErrF64> = probs.iter().map(ErrF64::from_rational).collect();
        let values = flat.eval_err_many(&leaves, &mut scratch.float_values);
        for ((slot, root, negated, route, tol, escalates), value) in float.into_iter().zip(values) {
            let value = if negated { value.complement() } else { value };
            let rel_err_bound = value.rel_err_bound();
            if rel_err_bound > tol && escalates {
                outcome.escalations += 1;
                exact.push((slot, root, negated, route));
            } else {
                // `Float` never escalates: above tolerance the value is
                // still served, with its honest (too-large) bound.
                outcome.float_evaluated += 1;
                outcome.results.push((
                    slot,
                    Ok(Response::Approximate {
                        value: value.value(),
                        rel_err_bound,
                        route,
                    }),
                ));
            }
        }
    }
    if !exact.is_empty() {
        let roots: Vec<GateId> = exact.iter().map(|d| d.1).collect();
        let values = FlatArena::compile(arena, &roots).eval_many(probs, &mut scratch.exact_values);
        for ((slot, _, negated, route), value) in exact.into_iter().zip(values) {
            let probability = if negated { value.one_minus() } else { value };
            outcome.results.push((
                slot,
                Ok(Response::Probability(Solution {
                    probability,
                    route,
                    provenance: None,
                })),
            ));
        }
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
        lo: (est.mean - est.ci95).max(0.0),
        hi: (est.mean + est.ci95).min(1.0),
        samples: est.samples,
        route: Route::MonteCarlo {
            samples: est.samples,
            ci95_times_1e9: (est.ci95 * 1e9) as u64,
        },
    })
}

/// The solo path for metered slots (deadline / budget caps): compiles
/// the slot's own arena when its plan is circuit-shaped and evaluates
/// it under the [`WorkMeter`]'s checkpoints, so a stuck or oversized
/// evaluation stops cooperatively instead of wedging the worker. The
/// compiled circuit — and therefore the exact rational answer — is
/// identical to the batched path's, so a request that finishes within
/// its limits answers bit-identically to an unmetered twin.
fn run_metered_slot(
    shared: SharedInstance<'_>,
    pending: PendingSlot,
    outcome: &mut ShardOutcome,
    scratch: &mut WorkerScratch,
) -> (usize, Result<Response, SolveError>) {
    let opts = pending.opts;
    let slot = pending.slot;
    let mut meter = opts.budget.arm(WorkMeter::unbounded());
    if let Some(at) = pending.deadline_at {
        meter = meter.with_deadline(at);
    }
    // Pre-work checkpoint: a request that expired in a queue (or
    // behind a stuck unit) sheds before compiling anything.
    if let Err(stop) = meter.check_now() {
        return (slot, Err(SolveError::from_meter(stop)));
    }
    let instance = shared.instance;
    if shared.ic().is_connected() && !opts.want_provenance {
        let mut arena = Arena::new(instance.graph().n_edges());
        let compiled = match &pending.planned.plan {
            Plan::Prop411 { effective } => {
                lineage_circuits::match_into_2wp(&mut arena, effective, instance.graph())
                    .map(|root| (root, false, Route::Prop411))
            }
            Plan::Prop410 => lineage_circuits::fail_into_dwt(
                &mut arena,
                &pending.planned.absorbed,
                instance.graph(),
            )
            .map(|root| (root, true, Route::Prop410)),
            _ => None,
        };
        if let Some((root, negated, route)) = compiled {
            outcome.circuit_batched += 1;
            outcome.gates += arena.n_gates();
            let result = eval_metered_root(
                &arena,
                instance.probs(),
                root,
                negated,
                route,
                opts.precision,
                &mut meter,
                outcome,
                scratch,
            );
            return (slot, result);
        }
    }
    // General path (DP routes, fallbacks, provenance): the meter
    // checkpointed before the work; hard cells degrade per `on_hard`.
    outcome.general_solved += 1;
    let answer = finish_plan(&pending.query, pending.planned, &shared, opts);
    let result = match answer {
        Err(_) if opts.on_hard == OnHard::Estimate => {
            estimate_response(&pending.query, instance, opts, &mut meter)
        }
        other => respond_exact(other.map_err(SolveError::Hard), opts.precision),
    };
    (slot, result)
}

/// Metered evaluation of one compiled root, honoring its precision
/// tier. The root's cone is compiled into one [`FlatArena`] slab: the
/// exact tier evaluates it over [`Rational`], the float tiers over
/// [`ErrF64`] (with `Auto` escalating to the exact pass on the same
/// slab when the certified bound misses tolerance). Arithmetic and
/// evaluation order match the unmetered batch passes, so completed
/// answers are bit-identical.
#[allow(clippy::too_many_arguments)]
fn eval_metered_root(
    arena: &Arena,
    probs: &[Rational],
    root: GateId,
    negated: bool,
    route: Route,
    precision: Precision,
    meter: &mut WorkMeter,
    outcome: &mut ShardOutcome,
    scratch: &mut WorkerScratch,
) -> Result<Response, SolveError> {
    let flat = FlatArena::compile(arena, &[root]);
    let exact_pass =
        |meter: &mut WorkMeter, scratch: &mut WorkerScratch| -> Result<Response, SolveError> {
            let values = flat
                .eval_many_metered(probs, &mut scratch.exact_values, meter)
                .map_err(SolveError::from_meter)?;
            let value = values.into_iter().next().expect("one root");
            let probability = if negated { value.one_minus() } else { value };
            Ok(Response::Probability(Solution {
                probability,
                route: route.clone(),
                provenance: None,
            }))
        };
    let (tol, escalates) = match precision {
        Precision::Exact => return exact_pass(meter, scratch),
        Precision::Float { max_rel_err } => (max_rel_err, false),
        Precision::Auto { max_rel_err } => (max_rel_err, true),
    };
    let leaves: Vec<ErrF64> = probs.iter().map(ErrF64::from_rational).collect();
    let values = flat
        .eval_many_metered(&leaves, &mut scratch.float_values, meter)
        .map_err(SolveError::from_meter)?;
    let value = values.into_iter().next().expect("one root");
    let value = if negated { value.complement() } else { value };
    let rel_err_bound = value.rel_err_bound();
    if rel_err_bound > tol && escalates {
        outcome.escalations += 1;
        return exact_pass(meter, scratch);
    }
    outcome.float_evaluated += 1;
    Ok(Response::Approximate {
        value: value.value(),
        rel_err_bound,
        route,
    })
}

/// Executes one shard's worth of planned queries.
fn run_shard(
    shared: SharedInstance<'_>,
    work: Vec<PendingSlot>,
    scratch: &mut WorkerScratch,
) -> ShardOutcome {
    let instance = shared.instance;
    let mut arena = Arena::new(instance.graph().n_edges());
    let mut deferred: Vec<DeferredRoot> = Vec::new();
    let mut outcome = ShardOutcome::empty(work.len());
    let connected = shared.ic().is_connected();
    for pending in work {
        let opts = pending.opts;
        // Metered slots (deadline / budget caps) run the fallible solo
        // path: own arena, WorkMeter checkpoints, typed stops.
        if pending.is_metered() {
            let (slot, result) = run_metered_slot(shared, pending, &mut outcome, scratch);
            outcome.results.push((slot, result));
            continue;
        }
        // The shared-arena fast path: circuit-compilable plans on a
        // connected instance, when no provenance handle was requested
        // (handles own their circuit, so they compile separately).
        if connected && !opts.want_provenance {
            match &pending.planned.plan {
                Plan::Prop411 { effective } => {
                    if let Some(root) =
                        lineage_circuits::match_into_2wp(&mut arena, effective, instance.graph())
                    {
                        deferred.push((pending.slot, root, false, Route::Prop411, opts.precision));
                        outcome.circuit_batched += 1;
                        continue;
                    }
                }
                Plan::Prop410 => {
                    if let Some(root) = lineage_circuits::fail_into_dwt(
                        &mut arena,
                        &pending.planned.absorbed,
                        instance.graph(),
                    ) {
                        deferred.push((pending.slot, root, true, Route::Prop410, opts.precision));
                        outcome.circuit_batched += 1;
                        continue;
                    }
                }
                _ => {}
            }
        }
        // General path: finish the plan exactly as `solve_with` does —
        // then degrade a hard cell to a budgeted estimate when the
        // request opted in.
        let answer = finish_plan(&pending.query, pending.planned, &shared, opts);
        outcome.general_solved += 1;
        let result = match answer {
            Err(_) if opts.on_hard == OnHard::Estimate => {
                let mut meter = opts.budget.arm(WorkMeter::unbounded());
                estimate_response(&pending.query, instance, opts, &mut meter)
            }
            other => respond_exact(other.map_err(SolveError::Hard), opts.precision),
        };
        outcome.results.push((pending.slot, result));
    }
    outcome.gates = arena.n_gates();
    // One multi-root engine pass per tier answers every deferred query.
    if !deferred.is_empty() {
        eval_deferred(&arena, instance.probs(), deferred, &mut outcome, scratch);
    }
    outcome
}

/// The legacy `solve_many*` core: uniform options, caller-owned cache,
/// single shard. Kept so the deprecated shims in [`crate::batch`] stay
/// bit-identical to their historical behavior — including propagating a
/// worker panic to the caller (the typed containment is an [`Engine`]
/// surface; these shims still speak bare `Hardness`).
pub(crate) fn legacy_batch(
    queries: &[Graph],
    instance: &ProbGraph,
    opts: SolverOptions,
    mut cache: Option<&mut EvalCache>,
) -> (Vec<Result<Solution, Hardness>>, BatchStats) {
    // The legacy surface predates the float tiers and speaks `Solution`
    // only — exact precision, whatever the caller's options say.
    let opts = SolverOptions {
        precision: Precision::Exact,
        ..opts
    };
    let state = InstanceState::new(instance);
    let shared = SharedInstance::new(instance, &state);
    let items: Vec<BatchItem> = queries
        .iter()
        .map(|query| BatchItem {
            query,
            opts,
            deadline_at: None,
        })
        .collect();
    let fingerprint = if cache.is_some() {
        instance_fingerprint(instance)
    } else {
        0 // never read: the cache is what consumes the fingerprint
    };
    let mut prepared = prepare_batch(&items, cache.as_deref_mut(), fingerprint);
    let pending = plan_pending(shared, &items, &mut prepared);
    let mut scratch = WorkerScratch::new();
    for unit in shard_units(pending, 1, &mut prepared.stats) {
        let UnitWork::Shard(work) = unit else {
            unreachable!("probability-only batch")
        };
        apply_shard(&mut prepared, run_shard_guarded(shared, work, &mut scratch));
    }
    let (results, stats) = finalize_batch(prepared, cache, fingerprint);
    let results = results
        .into_iter()
        .map(|r| {
            r.map(|resp| match resp {
                Response::Probability(sol) => sol,
                other => unreachable!("exact batch answered as {other:?}"),
            })
            .map_err(|e| match e {
                SolveError::Hard(h) => h,
                other => panic!("{other}"),
            })
        })
        .collect();
    (results, stats)
}

// ---------------------------------------------------------------------
// The tick seam: external worker pools
// ---------------------------------------------------------------------

/// A planned micro-batch ("tick") against one engine, split into
/// independent [`TickUnit`]s — the plan/execute seam behind
/// `phom_serve`'s persistent worker pools.
///
/// [`Engine::begin_tick`] plans the batch (cheap, pure reads over the
/// shared instance state, sequential); the returned units are
/// `Send + 'static` — they own their queries, options, and plans — and
/// may run on any thread, in any order, **without scoped spawns**;
/// [`Tick::finish`] fills the answer cache and assembles the responses
/// in request order.
///
/// [`Engine::submit`] is exactly this seam run on ad-hoc scoped
/// threads, so tick results are **bit-identical** to `submit` for every
/// shard count and scheduling.
pub struct Tick {
    engine: Arc<Engine>,
    plan: PlannedTick,
    units: Vec<TickUnit>,
}

impl Engine {
    /// Plans `requests` into a [`Tick`] whose probability work is split
    /// across at most `shards` units (plus one unit per counting /
    /// sensitivity / UCQ request). Cache hits are answered during
    /// planning and produce no units at all. Per-shard arenas only; see
    /// [`begin_tick_with`](Engine::begin_tick_with) for the cross-shard
    /// shared-arena knob.
    pub fn begin_tick(self: &Arc<Self>, requests: &[Request], shards: usize) -> Tick {
        self.begin_tick_with(
            requests,
            &TickConfig {
                shards,
                share_arena_at: None,
            },
        )
    }

    /// As [`begin_tick`](Engine::begin_tick), with the full
    /// [`TickConfig`] — including
    /// [`share_arena_at`](TickConfig::share_arena_at), the cross-shard
    /// shared-arena threshold the serving runtime uses for large ticks.
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
            UnitWork::Shard(work) => work.len(),
            UnitWork::SharedEval { items, .. } => items.len(),
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

    #[test]
    fn engine_solve_matches_legacy_and_caches() {
        let h = twp_instance(0xE1);
        let q = Graph::one_way_path(&[Label(0), Label(1)]);
        let engine = Engine::new(h.clone());
        let sol = engine.solve(&q).unwrap();
        #[allow(deprecated)]
        let legacy = crate::solve(&q, &h).unwrap();
        assert_eq!(sol.probability, legacy.probability);
        assert_eq!(sol.route, legacy.route);
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

    #[test]
    fn fleet_routes_by_fingerprint_and_shares_cache() {
        let h1 = twp_instance(1);
        let h2 = twp_instance(2);
        let mut fleet = Fleet::with_cache_capacity(64);
        let fp1 = fleet.register(h1.clone());
        let fp2 = fleet.register(h2);
        assert_ne!(fp1, fp2);
        assert_eq!(fleet.len(), 2);
        let q = Graph::one_way_path(&[Label(0)]);
        let r1 = fleet
            .submit(fp1, &[Request::probability(q.clone())])
            .unwrap();
        let r2 = fleet
            .submit(fp2, &[Request::probability(q.clone())])
            .unwrap();
        #[allow(deprecated)]
        let expect = crate::solve(&q, &h1).unwrap();
        assert_eq!(
            r1[0].as_ref().unwrap().probability().unwrap(),
            &expect.probability
        );
        // Different versions may answer differently; both are cached in
        // the one shared cache under distinct fingerprints.
        let _ = r2;
        assert_eq!(fleet.cache_stats().misses, 2);
        assert!(fleet.submit(fp1 ^ fp2 ^ 1, &[]).is_none());
        assert!(fleet.deregister(fp2));
        assert!(fleet.submit(fp2, &[]).is_none());
    }
}
