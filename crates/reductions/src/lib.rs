//! Executable hardness reductions.
//!
//! "#P-hard" cannot be demonstrated by an experiment, but the *reductions*
//! behind the paper's hardness results are concrete algorithms, and their
//! correctness — the counting identities the proofs establish — is machine
//! checkable. This crate implements, and the test suites verify end to end
//! on exhaustively-checked small inputs:
//!
//! * [`pp2dnf`] — positive partitioned 2-DNFs and `#PP2DNF` counting
//!   (Definition 4.3), the canonical #P-hard source problem \[29, 32];
//! * [`edge_cover`] — `#Bipartite-Edge-Cover` (Definition 3.1 /
//!   Theorem 3.2), with two independent counters;
//! * [`prop33`] — `#Bipartite-Edge-Cover ≤ PHomL(⊔1WP, 1WP)`;
//! * [`prop34`] — `#Bipartite-Edge-Cover ≤ PHom̸L(⊔2WP, 2WP)` (two-wayness
//!   simulates labels);
//! * [`prop41`] — `#PP2DNF ≤ PHomL(1WP, PT)` (the Figure 7 gadget);
//! * [`prop56`] — `#PP2DNF ≤ PHom̸L(2WP, PT)` (the Figure 8 gadget).
//!
//! Props 4.4 and 4.5 are established in the paper by adapting the
//! constructions of its reference \[3] (arXiv 1612.04203), whose text is not
//! part of this paper. Those two cells are demonstrated by brute-force
//! scaling instead of executable reductions: the T2-hard-b section of
//! `tables` (`cargo run --release -p phom-bench --bin tables`).

pub mod edge_cover;
pub mod pp2dnf;
pub mod prop33;
pub mod prop34;
pub mod prop41;
pub mod prop56;

use phom_graph::{Graph, ProbGraph};
use phom_num::{Natural, Rational};

/// The output of a counting reduction: a `PHom` input together with the
/// scale factor that turns the probability back into a count.
#[derive(Clone, Debug)]
pub struct Reduction {
    /// The query graph.
    pub query: Graph,
    /// The probabilistic instance.
    pub instance: ProbGraph,
    /// The identity's scale: `count = Pr(G ⇝ H) · 2^log2_scale`.
    pub log2_scale: u32,
}

impl Reduction {
    /// Recovers the count from a probability using the identity
    /// `count = Pr · 2^scale`. Panics if the product is not an integer
    /// (which would disprove the reduction).
    pub fn count_from_probability(&self, p: &Rational) -> u64 {
        let scale = Rational::new(false, Natural::one().shl(self.log2_scale), Natural::one());
        let scaled = p.mul(&scale);
        assert!(
            scaled.denom().is_one(),
            "reduction identity violated: {p} · 2^{} is not integral",
            self.log2_scale
        );
        scaled.numer().to_u128().expect("count fits in u128") as u64
    }

    /// Runs the (exponential) brute-force `PHom` solver on the reduced
    /// input and recovers the count — the end-to-end verification path.
    pub fn count_via_brute_force(&self) -> u64 {
        let p = phom_core::bruteforce::probability(&self.query, &self.instance);
        self.count_from_probability(&p)
    }
}
