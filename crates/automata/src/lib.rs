//! Bottom-up deterministic tree automata on uncertain trees, and the
//! polytree lineage compilation of Proposition 5.4.
//!
//! Pipeline (Appendix C of the paper):
//!
//! 1. [`encode`] — transform a connected probabilistic polytree `H` into a
//!    *full binary* uncertain tree `T` via the left-child-right-sibling
//!    variant with ε-edges: every original node becomes a chain of clones
//!    linked by certain ε-edges, every original probabilistic edge becomes
//!    one tree node carrying its direction (↑ / ↓) and probability, and the
//!    query "`H` contains a directed path of length `m`" becomes "`T`
//!    contains a path of the form `(→ ε*)^m`".
//! 2. [`dta`] — the bottom-up deterministic automaton `A_G` with states
//!    `⟨↑: i, ↓: j, Max: k⟩` tracking, for the processed subtree, the
//!    longest present directed path *into* its anchor, *out of* its anchor,
//!    and *anywhere*. An optimized variant collapses `Max` to a saturation
//!    bit (both timed in the T3-ptime-a section of `tables`).
//! 3. [`run`] — two evaluation strategies, cross-checked in tests:
//!    a direct state-distribution dynamic program, and the explicit
//!    **d-DNNF** compilation of [5, Prop 3.1] (one gate per reachable
//!    (node, state) pair) evaluated by `phom-lineage`.

pub mod dta;
pub mod encode;
pub mod run;
pub mod utree;

pub use dta::{OptPathAutomaton, PathAutomaton, TreeAutomaton};
pub use encode::encode_polytree;
pub use utree::{NodeLabel, UTree};
