//! The `PHom` solver: probabilistic graph homomorphism with the combined
//! complexity classification of Amarilli, Monet & Senellart (PODS 2017).
//!
//! Given a query graph `G` and a probabilistic instance `(H, π)`, the
//! problem is to compute
//!
//! ```text
//! Pr(G ⇝ H) = Σ_{H' ⊆ H, G ⇝ H'} Pr(H')
//! ```
//!
//! The [`solver`] module classifies the input into a cell of the paper's
//! Tables 1–3 and either runs the unique applicable polynomial-time
//! algorithm or reports the matching hardness result (optionally falling
//! back to exponential [`bruteforce`] or to the [`montecarlo`] estimator).
//!
//! The per-proposition algorithms live in [`algo`]:
//!
//! * Prop 3.6 — arbitrary unlabeled queries on `⊔DWT` instances
//!   ([`algo::dwt_instance`]), via graded-DAG level mappings;
//! * Prop 4.10 — labeled one-way-path queries on DWT instances
//!   ([`algo::path_on_dwt`]), via β-acyclic lineage (plus a direct DP);
//! * Prop 4.11 — connected queries on two-way-path instances
//!   ([`algo::connected_on_2wp`]), via the X-property and β-acyclic
//!   lineage (plus a direct interval DP);
//! * Prop 5.4/5.5 — unlabeled `⊔DWT` queries on polytree instances
//!   ([`algo::path_on_pt`], [`algo::collapse`]), via tree automata and
//!   d-DNNF compilation;
//! * Lemma 3.7 — disconnected instances ([`algo::components`]).

pub mod algo;
pub mod batch;
pub mod bruteforce;
pub mod counting;
pub mod engine;
pub mod montecarlo;
pub mod sensitivity;
pub mod solver;
pub mod tables;
pub mod ucq;

pub use batch::{instance_fingerprint, BatchStats, CacheHandle, CacheStats, QueryKey};
pub use engine::{
    Engine, EngineBuilder, Lane, Request, Response, Tick, TickConfig, TickOutput, TickUnit,
    WorkerScratch,
};
pub use solver::{
    Budget, Fallback, Hardness, OnHard, Precision, Route, Solution, SolveError, SolverOptions,
};
pub use tables::{Cell, CellStatus, Prop, Setting, TableId};
