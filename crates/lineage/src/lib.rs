//! Boolean lineages, the unified provenance engine, and tractable
//! probability computation.
//!
//! The paper's tractability results for the labeled setting (Props 4.10 and
//! 4.11) follow the classical probabilistic-database recipe: compute a
//! **positive DNF lineage** of the query on the instance, observe that its
//! clause hypergraph is **β-acyclic** (Definition 4.7), and evaluate its
//! probability in polynomial time (Theorem 4.9, after Brault-Baron, Capelli
//! and Mengel's β-acyclic `#CSPd` \[11]). The unlabeled polytree case
//! (Prop 5.4) instead compiles the lineage into a **d-DNNF circuit**
//! (Definition 5.3), whose probability is computable in linear time.
//!
//! Since the provenance-engine refactor, every circuit-shaped lineage in
//! the workspace lives in one arena IR and is evaluated by one
//! semiring-generic bottom-up loop over a slab of ops:
//!
//! * [`engine`] — the [`Arena`] IR (interned gates,
//!   structural hashing, flat topological storage), the one
//!   [`Semiring`](phom_num::Semiring)-generic slab loop (run over the
//!   whole store by [`Arena::eval_roots`](engine::Arena::eval_roots) and
//!   friends), the gradient backward sweep, and the
//!   [`Provenance`] handle solver routes attach to
//!   their solutions;
//! * [`dnf`] — positive DNFs, brute-force evaluation/probability (test
//!   oracle), and [`Dnf::to_provenance`](dnf::Dnf::to_provenance);
//! * [`hypergraph`] — hypergraphs, β-leaves, β-elimination orders;
//! * [`beta`] — the polynomial-time β-acyclic DNF probability algorithm
//!   (Weight-generic: runs over exact rationals, `f64`, or
//!   [`Dual`](phom_num::Dual) numbers for sensitivities);
//! * [`flat`] — [`FlatArena`], the same loop over a
//!   compiled cone: the roots' gates only, renumbered densely (the
//!   serving engine's exact, float and metered passes);
//! * [`circuit`] — d-DNNF circuits as arena views, with structural checks;
//! * [`analysis`] — gradients, conditioning, and most-probable
//!   explanations on arena circuits.

pub mod analysis;
pub mod beta;
pub mod circuit;
pub mod dnf;
pub mod engine;
pub mod flat;
pub mod fxhash;
pub mod hypergraph;
pub mod meter;

pub use beta::beta_dnf_probability;
pub use circuit::{Circuit, GateId};
pub use dnf::Dnf;
pub use engine::{Arena, Provenance, VarStatus};
pub use flat::FlatArena;
pub use hypergraph::Hypergraph;
pub use meter::{MeterStop, WorkMeter};
