//! Exact arbitrary-precision arithmetic for probabilistic query evaluation.
//!
//! The paper requires probabilities to be "rational numbers" and all the
//! tractability results are stated for exact computation, so this crate
//! provides:
//!
//! * [`Natural`] — arbitrary-precision unsigned integers (base 2³² limbs),
//! * [`Rational`] — exact rationals kept in lowest terms,
//! * [`ErrF64`] — an `f64` carrying a running absolute-error bound
//!   (the float evaluation tier's certified approximation),
//! * [`Semiring`] — the `(+, ·, 0, 1)` core that the unified provenance
//!   engine in `phom_lineage::engine` evaluates over, instantiated by
//!   [`Rational`], `f64`, [`Natural`] (model counting), `bool` (circuit
//!   evaluation) and [`Dual`] (forward-mode derivatives),
//! * [`Weight`] — [`Semiring`] refined with subtraction, division and
//!   rational embedding, so every algorithm in the workspace can run in
//!   exact mode (the paper-faithful one), `f64` mode (large benchmark
//!   sweeps), or dual-number mode (sensitivity).
//!
//! No external bignum crate is used: [`natural`] and [`rational`] implement
//! the arithmetic, so the whole stack builds from the workspace alone.
//! Their unit tests pin it (e.g.
//! `rational::tests::fast_and_slow_paths_agree_across_the_word_boundary`).

pub mod errf64;
pub mod natural;
pub mod rational;
pub mod semiring;
pub mod weight;

pub use errf64::ErrF64;
pub use natural::Natural;
pub use rational::Rational;
pub use semiring::{Dual, Semiring};
pub use weight::Weight;
