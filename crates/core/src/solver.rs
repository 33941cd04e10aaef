//! The `PHom` dispatcher: classifies the input into the paper's
//! classification and routes it to the unique applicable polynomial-time
//! algorithm — or reports the matching hardness result.
//!
//! The dispatcher is *opportunistic*: class-level hardness (Tables 1–3)
//! speaks about worst cases, so individually easy inputs inside hard cells
//! (e.g. a query using a label absent from the instance, a cyclic query
//! on a polytree instance, or a disconnected query whose components
//! absorb into one — see [`crate::algo::absorb`]) are still answered in
//! polynomial time through the fast paths below.

use crate::algo::path_on_pt::PtStrategy;
use crate::algo::{
    collapse, components, connected_on_2wp, dwt_instance, lineage_circuits, path_on_dwt, path_on_pt,
};
use crate::{bruteforce, montecarlo};
use phom_graph::classes::{classify, Classification};
use phom_graph::graded::level_mapping;
use phom_graph::{ConnClass, Graph, ProbGraph};
use phom_lineage::engine::Arena;
use phom_lineage::{MeterStop, Provenance, WorkMeter};
use phom_num::{Natural, Rational};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::time::Duration;

/// What to do when the input falls in a #P-hard cell.
#[derive(Clone, Copy, Debug, Default)]
pub enum Fallback {
    /// Report hardness (default).
    #[default]
    None,
    /// Enumerate possible worlds if at most `max_uncertain` edges are
    /// uncertain (exponential!).
    BruteForce {
        /// Bound on the number of uncertain edges (worlds = 2^this).
        max_uncertain: usize,
    },
    /// Monte-Carlo estimation (approximate, with the returned probability
    /// rounded to a dyadic rational).
    MonteCarlo {
        /// Number of sampled worlds.
        samples: u64,
        /// RNG seed, for reproducibility.
        seed: u64,
    },
}

/// Which evaluation tier answers a probability request.
///
/// The circuit routes (Props 4.10/4.11 on connected instances) can
/// evaluate their lineage either exactly over [`Rational`] or over a
/// flat `f64` slab with a running error bound
/// ([`ErrF64`](phom_num::ErrF64)). The float tiers answer with
/// [`Response::Approximate`](crate::Response::Approximate); the exact
/// tier stays bit-identical across shard widths and scheduling.
///
/// Non-circuit work — counting, sensitivity, UCQs, fallbacks, and the
/// general probability routes — is always computed exactly; under
/// `Float` the exact answer is *reported* as an `Approximate` response
/// (half-ulp bound), under `Auto` it is reported exactly.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub enum Precision {
    /// Exact rational arithmetic end to end (default; paper-faithful).
    #[default]
    Exact,
    /// Float-first: circuit routes evaluate over `f64` with a running
    /// error bound and always answer approximately. `max_rel_err` is
    /// recorded in the cache key (callers with different tolerances
    /// never share answers) and reported alongside the value.
    Float {
        /// The caller's relative-error tolerance.
        max_rel_err: f64,
    },
    /// Float-first with exact escalation: circuit routes evaluate over
    /// `f64` first and fall back to the exact rational pass whenever
    /// the certified relative-error bound exceeds `max_rel_err` — so
    /// every answer is either certified-approximate within tolerance or
    /// bit-identical to [`Precision::Exact`].
    Auto {
        /// Escalate to exact when the bound exceeds this.
        max_rel_err: f64,
    },
}

impl Precision {
    /// The relative-error tolerance of the float tiers (`None` for
    /// `Exact`).
    pub fn max_rel_err(&self) -> Option<f64> {
        match *self {
            Precision::Exact => None,
            Precision::Float { max_rel_err } | Precision::Auto { max_rel_err } => Some(max_rel_err),
        }
    }

    /// True iff this is the exact tier.
    pub fn is_exact(&self) -> bool {
        matches!(self, Precision::Exact)
    }
}

/// A per-request work budget: hard caps on the resources a single
/// request may consume inside evaluation. All caps default to
/// unlimited; each set cap is enforced cooperatively by the
/// [`WorkMeter`] checkpoints threaded through the circuit evaluators
/// and the Monte-Carlo sampler, and a tripped cap surfaces as
/// [`SolveError::BudgetExceeded`] (or, for the estimate path with at
/// least one sample drawn, a truncated — still certified —
/// [`Response::Estimate`](crate::Response::Estimate)).
///
/// Unlike a [deadline](crate::Request::deadline) (which is relative to
/// wall-clock arrival and therefore never part of the answer cache
/// key), a budget changes *what is computed*, so it is folded into the
/// options fingerprint: requests with different budgets never share
/// cached answers.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Budget {
    /// Cap on Monte-Carlo samples drawn.
    pub samples: Option<u64>,
    /// Cap on circuit gates evaluated.
    pub gates: Option<u64>,
    /// Cap on wall-clock time spent inside evaluation, anchored when
    /// the work starts (distinct from a deadline, which is anchored at
    /// request arrival and may expire in a queue).
    pub time: Option<Duration>,
}

impl Budget {
    /// The default: no caps.
    pub fn unlimited() -> Budget {
        Budget::default()
    }

    /// True iff no cap is set.
    pub fn is_unlimited(&self) -> bool {
        self.samples.is_none() && self.gates.is_none() && self.time.is_none()
    }

    /// Caps Monte-Carlo samples.
    pub fn with_samples(mut self, samples: u64) -> Budget {
        self.samples = Some(samples);
        self
    }

    /// Caps circuit gates evaluated.
    pub fn with_gates(mut self, gates: u64) -> Budget {
        self.gates = Some(gates);
        self
    }

    /// Caps wall-clock evaluation time.
    pub fn with_time(mut self, time: Duration) -> Budget {
        self.time = Some(time);
        self
    }

    /// Folds the set caps into a [`WorkMeter`].
    pub(crate) fn arm(&self, mut meter: WorkMeter) -> WorkMeter {
        if let Some(gates) = self.gates {
            meter = meter.with_gate_budget(gates);
        }
        if let Some(samples) = self.samples {
            meter = meter.with_sample_budget(samples);
        }
        if let Some(time) = self.time {
            meter = meter.with_time_budget(time);
        }
        meter
    }
}

/// What to answer when a probability request lands in a #P-hard cell
/// (and any configured [`Fallback`] did not apply): the top rung of
/// the degradation ladder.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum OnHard {
    /// Report [`SolveError::Hard`] (default; paper-faithful).
    #[default]
    Error,
    /// Degrade to a budgeted Monte-Carlo estimate with a 95%
    /// confidence interval, answered as a typed
    /// [`Response::Estimate`](crate::Response::Estimate). Sampling
    /// honors the request's [`Budget`] and deadline; if time runs out
    /// after at least one sample, the truncated (wider) interval is
    /// returned instead of an error.
    Estimate,
}

/// Solver configuration.
#[derive(Clone, Copy, Debug, Default)]
pub struct SolverOptions {
    /// Fallback on hard cells.
    pub fallback: Fallback,
    /// Pipeline for the polytree automaton cases (Prop 5.4).
    pub pt_strategy: PtStrategy,
    /// Use the direct dynamic programs instead of the paper's β-acyclic
    /// lineages for Props 4.10/4.11 (ablation; same answers).
    pub prefer_dp: bool,
    /// Attach a [`Provenance`] handle (a d-DNNF circuit over the
    /// instance's edge ids) to the solution on the routes that can
    /// compile one — see [`Solution::provenance`]. Provenance is an
    /// exact artifact: requests that set this always answer exactly,
    /// whatever [`precision`](SolverOptions::precision) says.
    pub want_provenance: bool,
    /// Which evaluation tier answers probability requests.
    pub precision: Precision,
    /// Per-request work caps (samples / gates / time), enforced by
    /// cooperative [`WorkMeter`] checkpoints inside evaluation.
    pub budget: Budget,
    /// Degradation policy for #P-hard cells: typed error (default) or
    /// a budgeted Monte-Carlo [`Response::Estimate`](crate::Response::Estimate).
    pub on_hard: OnHard,
}

/// How a solution was obtained.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Route {
    /// The query has no edges: probability 1.
    TrivialNoEdges,
    /// The query uses an edge label the instance lacks: probability 0.
    MissingLabel,
    /// Cyclic or non-graded query on a `⊔PT` instance: probability 0.
    ZeroOnPolytrees,
    /// Prop 3.6: graded collapse on a `⊔DWT` instance.
    Prop36,
    /// Prop 4.10: 1WP query on `⊔DWT` instance via β-acyclic lineage
    /// (through Lemma 3.7 for disconnected instances).
    Prop410,
    /// Prop 4.11: connected query on `⊔2WP` instance via X-property +
    /// β-acyclic lineage (through Lemma 3.7).
    Prop411,
    /// Prop 5.4 (possibly after the Prop 5.5 collapse): path automaton on
    /// `⊔PT` instances (through Lemma 3.7).
    Prop54 {
        /// Whether the query was first collapsed from a `⊔DWT` (Prop 5.5).
        via_collapse: bool,
    },
    /// Exponential brute force (fallback).
    BruteForce,
    /// Monte-Carlo estimate (fallback; approximate).
    MonteCarlo {
        /// Samples used.
        samples: u64,
        /// 95% confidence half-width.
        ci95_times_1e9: u64,
    },
}

/// An answer to a `PHom` instance.
#[derive(Clone, Debug)]
pub struct Solution {
    /// `Pr(G ⇝ H)` (exact except on the Monte-Carlo route).
    pub probability: Rational,
    /// The algorithm that produced it.
    pub route: Route,
    /// The uniform provenance handle: a lineage circuit over the
    /// instance's edge ids, when
    /// [`want_provenance`](SolverOptions::want_provenance) was set and
    /// the route can compile one (the trivial routes, and Props
    /// 4.10/4.11 on connected instances). Downstream consumers evaluate
    /// it through the semiring engine: re-weighted probabilities, model
    /// counts, influences, Monte-Carlo world checks.
    pub provenance: Option<Box<Provenance>>,
}

impl Solution {
    fn new(probability: Rational, route: Route) -> Self {
        Solution {
            probability,
            route,
            provenance: None,
        }
    }
}

/// The input falls in a #P-hard cell and no fallback applied.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Hardness {
    /// The hardness result covering this cell.
    pub prop: &'static str,
    /// Human-readable cell description.
    pub cell: String,
}

/// Why a request failed: the typed error of the [`crate::engine`] serving
/// surface. Hardness is one *variant* rather than the whole error type
/// (the historical `Err(Hardness)` conflation), leaving room for request
/// validation and resource-limit failures.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SolveError {
    /// The input falls in a #P-hard cell and no fallback applied.
    Hard(Hardness),
    /// The request is malformed for its kind (e.g. a counting request on
    /// an instance with non-½ uncertain probabilities).
    InvalidQuery(String),
    /// A configured [`Budget`] cap was exhausted before an answer was
    /// reached: the request's own work limit tripped a cooperative
    /// [`WorkMeter`] checkpoint inside evaluation.
    BudgetExceeded {
        /// What was bounded (`"gates"`, `"samples"`, or `"time_ms"`).
        resource: &'static str,
        /// The configured limit that was hit.
        limit: u64,
    },
    /// The request's deadline passed before an answer was reached —
    /// either while queued (shed at flush by the serving runtime) or
    /// mid-evaluation (a cooperative [`WorkMeter`] checkpoint tripped).
    DeadlineExceeded,
    /// The serving runtime's bounded ingress queue was full — admission
    /// control rejected the request instead of growing memory without
    /// bound. Retry after backing off; already-admitted requests are
    /// unaffected.
    Overloaded {
        /// The configured queue capacity that was hit.
        capacity: usize,
    },
    /// The request's ticket was cancelled before an answer was produced
    /// (explicitly, or because the runtime shut down before admitting
    /// it).
    Cancelled,
    /// A worker panicked while solving this request. The panic was
    /// contained: other requests in the batch, the engine, and its cache
    /// all stay serviceable.
    Internal(String),
}

impl SolveError {
    /// The stable, machine-readable error code spoken by the network
    /// front end (`phom_net` error frames). One code per variant;
    /// existing codes never change — remote clients match on them.
    pub fn wire_code(&self) -> &'static str {
        match self {
            SolveError::Hard(_) => "hard",
            SolveError::InvalidQuery(_) => "invalid_query",
            SolveError::BudgetExceeded { .. } => "budget_exceeded",
            SolveError::DeadlineExceeded => "deadline_exceeded",
            SolveError::Overloaded { .. } => "overloaded",
            SolveError::Cancelled => "cancelled",
            SolveError::Internal(_) => "internal",
        }
    }

    /// Maps a tripped [`WorkMeter`] checkpoint onto the serving error
    /// it surfaces as.
    pub(crate) fn from_meter(stop: MeterStop) -> SolveError {
        match stop {
            MeterStop::Deadline => SolveError::DeadlineExceeded,
            MeterStop::Gates { limit } => SolveError::BudgetExceeded {
                resource: "gates",
                limit,
            },
            MeterStop::Samples { limit } => SolveError::BudgetExceeded {
                resource: "samples",
                limit,
            },
            MeterStop::Time { limit_millis } => SolveError::BudgetExceeded {
                resource: "time_ms",
                limit: limit_millis,
            },
        }
    }
}

impl From<Hardness> for SolveError {
    fn from(h: Hardness) -> Self {
        SolveError::Hard(h)
    }
}

impl std::fmt::Display for SolveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SolveError::Hard(h) => write!(f, "#P-hard cell: {} [{}]", h.cell, h.prop),
            SolveError::InvalidQuery(msg) => write!(f, "invalid query: {msg}"),
            SolveError::BudgetExceeded { resource, limit } => {
                write!(f, "budget exceeded: {resource} limit {limit}")
            }
            SolveError::DeadlineExceeded => write!(f, "deadline exceeded before completion"),
            SolveError::Overloaded { capacity } => {
                write!(f, "overloaded: ingress queue full ({capacity} requests)")
            }
            SolveError::Cancelled => write!(f, "cancelled before completion"),
            SolveError::Internal(msg) => write!(f, "internal worker failure: {msg}"),
        }
    }
}

impl std::error::Error for SolveError {}

/// Owned instance-side state shared across many queries: classification,
/// the instance's label set, and the Lemma 3.7 component split (computed
/// lazily — trivial and hard routes never pay for it). One `solve` call
/// builds it once; a long-lived [`crate::Engine`] builds it once for its
/// *whole lifetime*, which is the instance-side half of the amortization.
/// `Sync`: the engine's sharded submit path reads it from many threads.
pub(crate) struct InstanceState {
    pub(crate) ic: Classification,
    h_labels: Vec<phom_graph::Label>,
    components: std::sync::OnceLock<Vec<ProbGraph>>,
}

impl InstanceState {
    pub(crate) fn new(instance: &ProbGraph) -> Self {
        let ic = classify(instance.graph());
        let mut h_labels = instance.graph().labels_used();
        h_labels.sort_unstable();
        h_labels.dedup();
        InstanceState {
            ic,
            h_labels,
            components: std::sync::OnceLock::new(),
        }
    }
}

/// A borrowed view pairing an instance with its [`InstanceState`] — what
/// the planning/execution internals pass around. `solve_with` builds the
/// state fresh per call; [`crate::Engine`] owns one and reuses it.
#[derive(Clone, Copy)]
pub(crate) struct SharedInstance<'a> {
    pub(crate) instance: &'a ProbGraph,
    state: &'a InstanceState,
}

impl<'a> SharedInstance<'a> {
    pub(crate) fn new(instance: &'a ProbGraph, state: &'a InstanceState) -> Self {
        SharedInstance { instance, state }
    }

    pub(crate) fn ic(&self) -> &Classification {
        &self.state.ic
    }

    fn h_labels(&self) -> &[phom_graph::Label] {
        &self.state.h_labels
    }

    pub(crate) fn components(&self) -> &[ProbGraph] {
        self.state
            .components
            .get_or_init(|| components::split_components(self.instance))
    }

    /// Lemma 3.7: run a per-component algorithm and combine with
    /// `1 − Π(1 − pᵢ)`. The query must be connected. On connected
    /// instances the algorithm runs on the instance directly (no clone);
    /// `1 − (1 − p) = p` exactly, so the value is unchanged.
    fn per_component(
        &self,
        query: &Graph,
        algo: impl Fn(&Graph, &ProbGraph) -> Option<Rational>,
    ) -> Option<Rational> {
        if self.ic().is_connected() {
            return algo(query, self.instance);
        }
        let per: Option<Vec<Rational>> = self.components().iter().map(|h| algo(query, h)).collect();
        Some(components::combine_connected_query(&per?))
    }
}

/// A per-query routing decision against a [`SharedInstance`] — what
/// `solve` will execute. Splitting *planning* from *execution* lets the
/// batched solver compile every circuit-backed plan into one shared arena
/// and answer them in a single engine pass, while all other plans execute
/// exactly as the per-query path does.
pub(crate) struct Planned {
    /// The query after component absorption (what the route runs on).
    pub(crate) absorbed: Graph,
    pub(crate) qc: Classification,
    pub(crate) unlabeled: bool,
    pub(crate) plan: Plan,
}

pub(crate) enum Plan {
    /// Answered during planning (the trivial and zero routes).
    Done(Solution),
    /// Prop 3.6: graded query on a `⊔DWT` instance (direct DP).
    Prop36,
    /// Prop 5.4: `→^m` on a `⊔PT` instance via the path automaton.
    Prop54 { m: usize, via_collapse: bool },
    /// Prop 4.11: connected `effective` query on a `⊔2WP` instance
    /// (circuit-compilable when the instance is connected).
    Prop411 { effective: Graph },
    /// Prop 4.10: 1WP query on a `⊔DWT` instance (circuit-compilable when
    /// the instance is connected).
    Prop410,
    /// No tractable route: hardness attribution or fallback.
    Hard,
}

// The plan handoff types cross thread boundaries in the serving tick
// path (engine shards, `phom_serve` worker pools). They are all owned
// data, but enforce `Send` at compile time so a non-Send field can never
// sneak in and silently break the pool handoff.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<Planned>();
    assert_send::<Plan>();
    assert_send::<Solution>();
    assert_send::<SolveError>();
    assert_send::<SolverOptions>();
};

/// Classifies one query against the shared instance state. The order of
/// the checks is fixed: an edgeless query, then a label missing from the
/// instance, then component absorption, then the polytree zero, then the
/// labeled or unlabeled cell of Tables 1–3.
pub(crate) fn plan_query(query: &Graph, shared: &SharedInstance) -> Planned {
    let trivially = |absorbed: Graph, solution: Solution| {
        let qc = classify(&absorbed);
        Planned {
            absorbed,
            qc,
            unlabeled: false,
            plan: Plan::Done(solution),
        }
    };
    // Trivial: an edgeless query maps anywhere (vertex sets are non-empty
    // and worlds keep all vertices).
    if query.n_edges() == 0 {
        return trivially(
            query.clone(),
            Solution::new(Rational::one(), Route::TrivialNoEdges),
        );
    }
    // A query edge label absent from the instance can never be matched.
    if query
        .labels_used()
        .iter()
        .any(|l| shared.h_labels().binary_search(l).is_err())
    {
        return trivially(
            query.clone(),
            Solution::new(Rational::zero(), Route::MissingLabel),
        );
    }
    // Component absorption (algo::absorb): hom-comparable components of a
    // disconnected query are redundant; this can move the input into a
    // tractable cell (e.g. duplicated ⊔1WP components become one 1WP).
    let absorbed = crate::algo::absorb::absorb_query_components(query);
    if absorbed.n_edges() == 0 {
        return trivially(
            absorbed,
            Solution::new(Rational::one(), Route::TrivialNoEdges),
        );
    }
    let qc = classify(&absorbed);
    let unlabeled = {
        let mut labels = absorbed.labels_used();
        labels.extend(shared.h_labels().iter().copied());
        labels.sort_unstable();
        labels.dedup();
        labels.len() <= 1
    };
    // On ⊔PT instances every world is a polytree forest: queries with a
    // directed cycle or a jumping edge have probability 0 (App. A).
    let plan = if test_support::plans_forced_hard() {
        // Fault injection (chaos suites): every classified plan degrades
        // to the hard cell, exercising the fallback / `OnHard` ladder.
        Plan::Hard
    } else if shared.ic().in_union_class(ConnClass::Polytree) && level_mapping(&absorbed).is_none()
    {
        Plan::Done(Solution::new(Rational::zero(), Route::ZeroOnPolytrees))
    } else if unlabeled {
        plan_unlabeled(&absorbed, &qc, shared.ic())
    } else {
        plan_labeled(&absorbed, &qc, shared.ic())
    };
    Planned {
        absorbed,
        qc,
        unlabeled,
        plan,
    }
}

fn plan_unlabeled(absorbed: &Graph, qc: &Classification, ic: &Classification) -> Plan {
    // Prop 3.6: any query on ⊔DWT instances.
    if ic.in_union_class(ConnClass::DownwardTree) {
        return Plan::Prop36;
    }
    // Prop 5.5: a ⊔DWT query collapses to →^m on every instance.
    if let Some(path_query) = collapse::collapse_union_dwt_query(absorbed) {
        if path_query.n_edges() == 0 {
            return Plan::Done(Solution::new(Rational::one(), Route::TrivialNoEdges));
        }
        if ic.in_union_class(ConnClass::TwoWayPath) {
            return Plan::Prop411 {
                effective: path_query,
            };
        }
        if ic.in_union_class(ConnClass::Polytree) {
            return Plan::Prop54 {
                m: path_query.n_edges(),
                via_collapse: !qc.flags.owp || !qc.is_connected(),
            };
        }
        return Plan::Hard;
    }
    // Connected queries on ⊔2WP instances (Prop 4.11, unlabeled flavor).
    if qc.is_connected() && ic.in_union_class(ConnClass::TwoWayPath) {
        return Plan::Prop411 {
            effective: absorbed.clone(),
        };
    }
    Plan::Hard
}

fn plan_labeled(absorbed: &Graph, qc: &Classification, ic: &Classification) -> Plan {
    if !qc.is_connected() {
        return Plan::Hard; // Prop 3.3 territory
    }
    // Prop 4.11: connected queries on ⊔2WP instances.
    if ic.in_union_class(ConnClass::TwoWayPath) {
        return Plan::Prop411 {
            effective: absorbed.clone(),
        };
    }
    // Prop 4.10: 1WP queries on ⊔DWT instances.
    if qc.flags.owp && ic.in_union_class(ConnClass::DownwardTree) {
        return Plan::Prop410;
    }
    Plan::Hard
}

/// Executes a plan exactly as the historical per-query path did; routes
/// whose polynomial algorithm declines (`None`) fall through to the
/// configured fallback / hardness attribution.
pub(crate) fn execute_plan(
    planned: Planned,
    shared: &SharedInstance,
    opts: SolverOptions,
) -> Result<Solution, Hardness> {
    let Planned {
        absorbed,
        qc,
        unlabeled,
        plan,
    } = planned;
    let attempt: Option<Solution> = match plan {
        Plan::Done(solution) => return Ok(solution),
        // The query collapses to `→^m` (connected), so the cached
        // Lemma 3.7 split applies as on the other routes.
        Plan::Prop36 => match dwt_instance::collapse_length(&absorbed) {
            Some(0) => Some(Rational::one()),
            Some(m) => shared.per_component(&absorbed, |_q, h| {
                dwt_instance::dwt_long_path_probability::<Rational>(h, m)
            }),
            None => Some(Rational::zero()),
        }
        .map(|p| Solution::new(p, Route::Prop36)),
        Plan::Prop54 { m, via_collapse } => shared
            .per_component(&absorbed, |_q, h| {
                path_on_pt::long_path_probability::<Rational>(h, m, opts.pt_strategy)
            })
            .map(|p| Solution::new(p, Route::Prop54 { via_collapse })),
        Plan::Prop411 { effective } => shared
            .per_component(&effective, |q, h| prop_411(q, h, opts))
            .map(|p| Solution::new(p, Route::Prop411)),
        Plan::Prop410 => shared
            .per_component(&absorbed, |q, h| {
                if opts.prefer_dp {
                    path_on_dwt::probability_dp::<Rational>(q, h)
                } else {
                    path_on_dwt::probability_lineage(q, h)
                }
            })
            .map(|p| Solution::new(p, Route::Prop410)),
        Plan::Hard => None,
    };
    match attempt {
        Some(solution) => Ok(solution),
        None => fallback(
            &absorbed,
            shared.instance,
            &qc,
            shared.ic(),
            unlabeled,
            opts,
        ),
    }
}

/// The single-query path with no [`crate::Engine`]: builds the instance
/// state fresh and solves. Its callers are the engine's conditioning
/// fallback (one solve per pinned instance); in-crate unit tests use
/// it as the dispatcher reference.
pub(crate) fn solve_with_impl(
    query: &Graph,
    instance: &ProbGraph,
    opts: SolverOptions,
) -> Result<Solution, Hardness> {
    let state = InstanceState::new(instance);
    let shared = SharedInstance::new(instance, &state);
    solve_shared(query, &shared, opts)
}

/// The shared-state entry point: one [`SharedInstance`], many calls
/// ([`solve_with_impl`] builds it fresh; counting reuses the engine's).
pub(crate) fn solve_shared(
    query: &Graph,
    shared: &SharedInstance,
    opts: SolverOptions,
) -> Result<Solution, Hardness> {
    finish_plan(query, plan_query(query, shared), shared, opts)
}

/// Executes an already-computed plan and attaches the provenance handle —
/// the tail of `solve_shared`, split out so the batched solver can finish
/// a plan it already holds without planning the query a second time.
pub(crate) fn finish_plan(
    query: &Graph,
    planned: Planned,
    shared: &SharedInstance,
    opts: SolverOptions,
) -> Result<Solution, Hardness> {
    let instance = shared.instance;
    let mut sol = execute_plan(planned, shared, opts)?;
    if opts.want_provenance && sol.provenance.is_none() {
        sol.provenance = compile_provenance(query, instance, &sol.route);
        // compile_provenance repeats the planner's routing (absorb +
        // Prop 5.5 collapse) on its own; this guard catches any drift
        // between the two before a wrong handle reaches downstream
        // consumers.
        debug_assert!(
            sol.provenance
                .as_ref()
                .is_none_or(|p| p.probability::<Rational>(instance.probs()) == sol.probability),
            "provenance handle disagrees with the solved probability"
        );
    }
    Ok(sol)
}

/// Compiles the uniform provenance handle for the route taken, when the
/// route admits a circuit over the instance's edge ids: the trivial
/// routes yield constant circuits, Prop 4.10 the DWT fail circuit
/// (complemented polarity, mirroring `1 − Pr(¬φ)`), and Prop 4.11 the 2WP
/// match circuit. Routes whose lineage lives in a different variable
/// space (Prop 5.4's tree encoding) or that never build one (Prop 3.6's
/// direct DP, the fallbacks) return `None`; extending Lemma 3.7 routes on
/// disconnected instances needs edge-id remapping and is tracked in
/// `ROADMAP.md`.
fn compile_provenance(
    query: &Graph,
    instance: &ProbGraph,
    route: &Route,
) -> Option<Box<Provenance>> {
    let constant = |value: bool| {
        let mut arena = Arena::new(instance.graph().n_edges());
        let root = arena.constant(value);
        Some(Box::new(Provenance::positive(arena, root)))
    };
    match route {
        Route::TrivialNoEdges => constant(true),
        Route::MissingLabel | Route::ZeroOnPolytrees => constant(false),
        Route::Prop410 => {
            let absorbed = crate::algo::absorb::absorb_query_components(query);
            let (circuit, root) = lineage_circuits::fail_circuit_dwt(&absorbed, instance.graph())?;
            Some(Box::new(Provenance::complemented(circuit, root)))
        }
        Route::Prop411 => {
            let absorbed = crate::algo::absorb::absorb_query_components(query);
            // The unlabeled route may have gone through the Prop 5.5
            // collapse first; mirror it so the circuit matches the query
            // the solver actually ran. (Both lineages denote the same
            // event on 2WP instances — Prop 5.5's equivalence — so either
            // compilation is a correct provenance.)
            let unlabeled = {
                let mut labels = absorbed.labels_used();
                labels.extend(instance.graph().labels_used());
                labels.sort_unstable();
                labels.dedup();
                labels.len() <= 1
            };
            let effective = collapse::collapse_union_dwt_query(&absorbed)
                .filter(|_| unlabeled)
                .unwrap_or(absorbed);
            let (circuit, root) =
                lineage_circuits::match_circuit_2wp(&effective, instance.graph())?;
            Some(Box::new(Provenance::positive(circuit, root)))
        }
        _ => None,
    }
}

fn prop_411(query: &Graph, instance: &ProbGraph, opts: SolverOptions) -> Option<Rational> {
    if opts.prefer_dp {
        connected_on_2wp::probability_dp::<Rational>(query, instance)
    } else {
        connected_on_2wp::probability_lineage(query, instance)
    }
}

fn fallback(
    query: &Graph,
    instance: &ProbGraph,
    qc: &Classification,
    ic: &Classification,
    unlabeled: bool,
    opts: SolverOptions,
) -> Result<Solution, Hardness> {
    match opts.fallback {
        Fallback::BruteForce { max_uncertain }
            if instance.uncertain_edges().len() <= max_uncertain =>
        {
            Ok(Solution::new(
                bruteforce::probability(query, instance),
                Route::BruteForce,
            ))
        }
        Fallback::MonteCarlo { samples, seed } => {
            // A sample budget caps the fallback's draw count; a zero
            // allowance means the estimate cannot run at all, and the
            // cell's hardness is reported instead.
            let samples = match opts.budget.samples {
                Some(limit) => samples.min(limit),
                None => samples,
            };
            if samples == 0 {
                return Err(hardness(qc, ic, unlabeled));
            }
            let mut rng = SmallRng::seed_from_u64(seed);
            let est = montecarlo::estimate(query, instance, samples, &mut rng);
            Ok(Solution::new(
                dyadic_from_f64(est.mean),
                Route::MonteCarlo {
                    samples,
                    ci95_times_1e9: (est.ci95 * 1e9) as u64,
                },
            ))
        }
        _ => Err(hardness(qc, ic, unlabeled)),
    }
}

/// Best-effort attribution of the hardness result covering the input's
/// cell.
fn hardness(qc: &Classification, ic: &Classification, unlabeled: bool) -> Hardness {
    let q_union = !qc.is_connected();
    let q_class = qc.flags.most_specific();
    let i_class = ic.flags.most_specific();
    let i_in_pt = ic.in_union_class(ConnClass::Polytree);
    let i_in_dwt = ic.in_union_class(ConnClass::DownwardTree);
    let prop: &'static str = if !i_in_pt {
        "Prop 5.1" // instance beyond ⊔PT: hard already for 1WP queries
    } else if !unlabeled {
        if q_union {
            "Prop 3.3"
        } else if i_in_dwt {
            match q_class {
                ConnClass::TwoWayPath => "Prop 4.5",
                _ => "Prop 4.4",
            }
        } else {
            "Prop 4.1"
        }
    } else if q_union {
        "Prop 3.4"
    } else {
        "Prop 5.6"
    };
    Hardness {
        prop,
        cell: format!(
            "{} query ({}) on {} instance ({})",
            if unlabeled { "unlabeled" } else { "labeled" },
            crate::tables::class_name(q_class, q_union),
            if ic.is_connected() {
                "connected"
            } else {
                "disconnected"
            },
            crate::tables::class_name(i_class, !ic.is_connected()),
        ),
    }
}

/// Fault injection for the chaos and degradation suites — not part of
/// the public API.
#[doc(hidden)]
pub mod test_support {
    use std::sync::atomic::{AtomicBool, Ordering};

    static FORCE_HARD: AtomicBool = AtomicBool::new(false);

    /// While set, query planning classifies every non-trivial query as
    /// a hard cell, so all probability traffic exercises the fallback /
    /// `OnHard` degradation ladder. Global and process-wide: serialize tests
    /// that flip it, and remember that hardness answers are cached —
    /// use fresh engines (or distinct queries) per test.
    pub fn force_hard_plans(on: bool) {
        FORCE_HARD.store(on, Ordering::SeqCst);
    }

    pub(crate) fn plans_forced_hard() -> bool {
        FORCE_HARD.load(Ordering::SeqCst)
    }
}

/// Rounds an `f64` in `[0,1]` to a dyadic rational with denominator 2³².
pub(crate) fn dyadic_from_f64(x: f64) -> Rational {
    let denom: u64 = 1 << 32;
    let num = (x.clamp(0.0, 1.0) * denom as f64).round() as u64;
    Rational::new(false, Natural::from_u64(num), Natural::from_u64(denom))
}

#[cfg(test)]
mod tests {
    use super::solve_with_impl as solve_with;
    use super::*;

    fn solve(query: &Graph, instance: &ProbGraph) -> Result<Solution, Hardness> {
        solve_with(query, instance, SolverOptions::default())
    }
    use phom_graph::fixtures;
    use phom_graph::generate;
    use phom_graph::Label;

    #[test]
    fn example_2_2_is_hard_cell_but_brute_forcible() {
        // Figure 1's H is a connected graph with an undirected cycle, so
        // the solver reports hardness without a fallback...
        let h = fixtures::figure_1();
        let g = fixtures::example_2_2_query();
        let err = solve(&g, &h).unwrap_err();
        assert_eq!(err.prop, "Prop 5.1");
        // ...and solves exactly with the brute-force fallback.
        let opts = SolverOptions {
            fallback: Fallback::BruteForce { max_uncertain: 10 },
            ..Default::default()
        };
        let sol = solve_with(&g, &h, opts).unwrap();
        assert_eq!(sol.probability, fixtures::example_2_2_answer());
        assert_eq!(sol.route, Route::BruteForce);
    }

    #[test]
    fn trivial_routes() {
        let h = fixtures::figure_1();
        let sol = solve(&Graph::directed_path(0), &h).unwrap();
        assert_eq!(sol.route, Route::TrivialNoEdges);
        assert!(sol.probability.is_one());

        let sol = solve(&Graph::one_way_path(&[Label(9)]), &h).unwrap();
        assert_eq!(sol.route, Route::MissingLabel);
        assert!(sol.probability.is_zero());
    }

    #[test]
    fn limit_errors_have_stable_codes_and_messages() {
        // The wire codes are protocol constants — net clients dispatch
        // on them, so they must never drift.
        let budget = SolveError::BudgetExceeded {
            resource: "gates",
            limit: 4096,
        };
        assert_eq!(budget.wire_code(), "budget_exceeded");
        assert_eq!(budget.to_string(), "budget exceeded: gates limit 4096");
        assert_eq!(
            SolveError::DeadlineExceeded.wire_code(),
            "deadline_exceeded"
        );
        assert_eq!(
            SolveError::DeadlineExceeded.to_string(),
            "deadline exceeded before completion"
        );
        // Every MeterStop maps onto exactly the right serving error.
        assert_eq!(
            SolveError::from_meter(MeterStop::Deadline),
            SolveError::DeadlineExceeded
        );
        assert_eq!(
            SolveError::from_meter(MeterStop::Gates { limit: 7 }),
            SolveError::BudgetExceeded {
                resource: "gates",
                limit: 7
            }
        );
        assert_eq!(
            SolveError::from_meter(MeterStop::Samples { limit: 9 }),
            SolveError::BudgetExceeded {
                resource: "samples",
                limit: 9
            }
        );
        assert_eq!(
            SolveError::from_meter(MeterStop::Time { limit_millis: 25 }),
            SolveError::BudgetExceeded {
                resource: "time_ms",
                limit: 25
            }
        );
    }

    #[test]
    fn cyclic_query_on_polytree_is_zero() {
        let mut b = phom_graph::GraphBuilder::with_vertices(2);
        b.edge(0, 1, Label::UNLABELED);
        b.edge(1, 0, Label::UNLABELED);
        let q = b.build();
        let mut rng = SmallRng::seed_from_u64(1);
        let h_graph = generate::polytree(10, 1, &mut rng);
        let h = generate::with_probabilities(h_graph, generate::ProbProfile::default(), &mut rng);
        let sol = solve(&q, &h).unwrap();
        assert_eq!(sol.route, Route::ZeroOnPolytrees);
        assert!(sol.probability.is_zero());
    }

    #[test]
    fn routes_match_expected_propositions() {
        let mut rng = SmallRng::seed_from_u64(2);
        // Prop 3.6: branching unlabeled query on a DWT instance.
        let q = generate::graded_query(5, 2, 2, &mut rng);
        let h = generate::with_probabilities(
            generate::downward_tree(12, 1, &mut rng),
            generate::ProbProfile::default(),
            &mut rng,
        );
        assert_eq!(solve(&q, &h).unwrap().route, Route::Prop36);

        // Prop 4.10: labeled path query on a labeled DWT.
        let tree = generate::downward_tree(12, 3, &mut rng);
        let h = generate::with_probabilities(tree, generate::ProbProfile::default(), &mut rng);
        let q = generate::one_way_path(2, 3, &mut rng);
        assert_eq!(solve(&q, &h).unwrap().route, Route::Prop410);

        // Prop 4.11: labeled connected query on a 2WP.
        let h = generate::with_probabilities(
            generate::two_way_path(8, 3, &mut rng),
            generate::ProbProfile::default(),
            &mut rng,
        );
        let q = generate::connected(3, 1, 3, &mut rng);
        assert_eq!(solve(&q, &h).unwrap().route, Route::Prop411);

        // Prop 5.4: unlabeled path query on a polytree.
        let h = generate::with_probabilities(
            generate::polytree(12, 1, &mut rng),
            generate::ProbProfile::default(),
            &mut rng,
        );
        let q = Graph::directed_path(3);
        assert!(matches!(solve(&q, &h).unwrap().route, Route::Prop54 { .. }));
    }

    #[test]
    fn hard_cells_reported_with_propositions() {
        let mut rng = SmallRng::seed_from_u64(3);
        // Labeled 1WP on PT: Prop 4.1.
        let h = generate::with_probabilities(
            generate::polytree(10, 2, &mut rng),
            generate::ProbProfile::default(),
            &mut rng,
        );
        // Make sure the query's labels occur and it is genuinely labeled.
        let q = match generate::planted_path_query(h.graph(), 2, &mut rng) {
            Some(q) if !q.is_effectively_unlabeled() => q,
            _ => {
                let labels = [h.graph().edge(0).label, h.graph().edge(1).label];
                Graph::one_way_path(&labels)
            }
        };
        if let Err(e) = solve(&q, &h) {
            assert!(e.prop.contains("4.1") || e.prop.contains("4.4"), "{e:?}");
        }

        // Unlabeled 2WP query on PT: Prop 5.6.
        let q = Graph::two_way_path(&[
            (phom_graph::Dir::Forward, Label::UNLABELED),
            (phom_graph::Dir::Backward, Label::UNLABELED),
            (phom_graph::Dir::Forward, Label::UNLABELED),
        ]);
        let h = generate::with_probabilities(
            generate::polytree(10, 1, &mut rng),
            generate::ProbProfile::default(),
            &mut rng,
        );
        let e = solve(&q, &h).unwrap_err();
        assert_eq!(e.prop, "Prop 5.6");
    }

    #[test]
    fn provenance_handles_agree_with_solutions() {
        use phom_graph::hom::exists_hom_into_world;
        let mut rng = SmallRng::seed_from_u64(0x9A0E);
        let opts = SolverOptions {
            want_provenance: true,
            ..Default::default()
        };
        for trial in 0..40 {
            let h_graph = if trial % 2 == 0 {
                generate::two_way_path(rng.gen_range(1..7), 2, &mut rng)
            } else {
                generate::downward_tree(rng.gen_range(2..8), 2, &mut rng)
            };
            let h = generate::with_probabilities(
                h_graph,
                generate::ProbProfile {
                    certain_ratio: 0.25,
                    denominator: 4,
                },
                &mut rng,
            );
            let q = generate::planted_path_query(h.graph(), rng.gen_range(1..4), &mut rng)
                .unwrap_or_else(|| generate::one_way_path(2, 2, &mut rng));
            let sol = solve_with(&q, &h, opts).expect("tractable cell");
            let Some(prov) = &sol.provenance else {
                // Routes without an edge-space circuit (Prop 3.6's direct
                // DP, Prop 5.4's tree encoding) legitimately skip the
                // handle.
                assert!(
                    matches!(sol.route, Route::Prop36 | Route::Prop54 { .. }),
                    "trial {trial}: route {:?} should attach provenance",
                    sol.route
                );
                continue;
            };
            // The handle re-derives the solution probability through the
            // engine, and agrees with the homomorphism test per world.
            assert_eq!(prov.probability::<Rational>(h.probs()), sol.probability);
            for (mask, _) in h.worlds() {
                assert_eq!(
                    prov.holds_in(&mask),
                    exists_hom_into_world(&q, h.graph(), &mask),
                    "trial {trial}"
                );
            }
        }
    }

    #[test]
    fn trivial_routes_attach_constant_provenance() {
        let h = fixtures::figure_1();
        let opts = SolverOptions {
            want_provenance: true,
            ..Default::default()
        };
        let sol = solve_with(&Graph::directed_path(0), &h, opts).unwrap();
        let prov = sol.provenance.expect("trivial route");
        assert!(prov.probability::<Rational>(h.probs()).is_one());
        let sol = solve_with(&Graph::one_way_path(&[Label(9)]), &h, opts).unwrap();
        let prov = sol.provenance.expect("missing-label route");
        assert!(prov.probability::<Rational>(h.probs()).is_zero());
    }

    #[test]
    fn single_nonzero_label_collapse_regression() {
        // Regression (found by the provenance cross-check): query and
        // instance sharing the single label S ≠ Label(0) route through the
        // Prop 5.5 collapse; the collapsed path must keep S or the Prop
        // 4.11 matcher silently reports probability 0.
        let s = Label(1);
        let mut b = phom_graph::GraphBuilder::with_vertices(3);
        b.edge(0, 1, s);
        b.edge(2, 1, s);
        let h = ProbGraph::new(
            b.build(),
            vec![Rational::from_ratio(1, 2), Rational::from_ratio(1, 2)],
        );
        let q = Graph::one_way_path(&[s]);
        let sol = solve(&q, &h).unwrap();
        assert_eq!(sol.probability, crate::bruteforce::probability(&q, &h));
        assert_eq!(sol.probability, Rational::from_ratio(3, 4));
    }

    #[test]
    fn provenance_is_opt_in() {
        let h = fixtures::figure_1();
        let sol = solve(&Graph::directed_path(0), &h).unwrap();
        assert!(
            sol.provenance.is_none(),
            "no handle without want_provenance"
        );
    }

    #[test]
    fn monte_carlo_fallback_close_to_brute_force() {
        let h = fixtures::figure_1();
        let g = fixtures::example_2_2_query();
        let opts = SolverOptions {
            fallback: Fallback::MonteCarlo {
                samples: 20_000,
                seed: 7,
            },
            ..Default::default()
        };
        let sol = solve_with(&g, &h, opts).unwrap();
        let exact = fixtures::example_2_2_answer().to_f64();
        assert!((sol.probability.to_f64() - exact).abs() < 0.02);
        assert!(matches!(sol.route, Route::MonteCarlo { .. }));
    }

    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
}
