//! Propositions 5.4 and 5.5: `PHom̸L(1WP, PT)` and `PHom̸L(⊔DWT, PT)` are
//! PTIME.
//!
//! An unlabeled one-way-path query of length `m` on a connected polytree
//! instance asks for the probability that a possible world contains a
//! directed path of length `m`. Following Appendix C, we encode the
//! polytree as a full binary uncertain tree (`phom_automata::encode`), run
//! the bottom-up deterministic automaton with states `⟨↑, ↓, Max⟩`
//! (`phom_automata::dta`), and evaluate the acceptance probability — either
//! directly over state distributions or through the compiled d-DNNF
//! lineage.

use phom_automata::run::{acceptance_probability, compile_ddnnf};
use phom_automata::{encode_polytree, OptPathAutomaton, PathAutomaton};
use phom_graph::ProbGraph;
use phom_num::Weight;

/// Which Prop 5.4 pipeline a direct call of [`long_path_probability`]
/// runs. Engine requests always run [`OptAutomaton`](PtStrategy::OptAutomaton).
/// `tests::all_strategies_agree_with_brute_force` checks all three; the
/// T3-ptime-a section of `tables` times them, and the
/// `prop54_opt_automaton` entry of `tables --json` gates the one requests
/// run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PtStrategy {
    /// Optimized `⟨↑, ↓, sat⟩` automaton + state-distribution DP.
    OptAutomaton,
    /// Paper-faithful `⟨↑, ↓, Max⟩` automaton + state-distribution DP.
    PaperAutomaton,
    /// Optimized automaton compiled to an explicit d-DNNF, then evaluated
    /// (the paper's actual proof pipeline, via \[5] and \[21]).
    Ddnnf,
}

/// `Pr[the connected polytree instance has a present directed path of
/// length ≥ m]`. Returns `None` when the instance is not a connected
/// polytree.
pub fn long_path_probability<W: Weight>(
    instance: &ProbGraph,
    m: usize,
    strategy: PtStrategy,
) -> Option<W> {
    if m == 0 {
        return Some(W::one());
    }
    let tree = encode_polytree(instance)?;
    let p = match strategy {
        PtStrategy::OptAutomaton => acceptance_probability(&OptPathAutomaton { m }, &tree),
        PtStrategy::PaperAutomaton => acceptance_probability(&PathAutomaton { m }, &tree),
        PtStrategy::Ddnnf => {
            let (circuit, root) = compile_ddnnf(&OptPathAutomaton { m }, &tree);
            let probs: Vec<W> = tree
                .node_probs()
                .iter()
                .map(|r| W::from_rational(r))
                .collect();
            circuit.probability(root, &probs)
        }
    };
    Some(p)
}

/// Size report of the compiled d-DNNF for a given instance and `m`
/// (used by the benchmark harness to report lineage sizes).
pub fn ddnnf_size(instance: &ProbGraph, m: usize) -> Option<(usize, usize)> {
    let tree = encode_polytree(instance)?;
    let (circuit, _) = compile_ddnnf(&OptPathAutomaton { m }, &tree);
    Some((circuit.n_gates(), circuit.n_wires()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bruteforce;
    use phom_graph::{generate, Graph};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn all_strategies_agree_with_brute_force() {
        let mut rng = SmallRng::seed_from_u64(51);
        for _ in 0..60 {
            let g = generate::polytree(rng.gen_range(1..9), 1, &mut rng);
            let h = generate::with_probabilities(
                g,
                generate::ProbProfile {
                    certain_ratio: 0.25,
                    denominator: 4,
                },
                &mut rng,
            );
            for m in 1..5 {
                let expect = bruteforce::probability(&Graph::directed_path(m), &h);
                for strat in [
                    PtStrategy::OptAutomaton,
                    PtStrategy::PaperAutomaton,
                    PtStrategy::Ddnnf,
                ] {
                    let got: Rational = long_path_probability(&h, m, strat).unwrap();
                    assert_eq!(got, expect, "strategy {strat:?}, m={m}");
                }
            }
        }
    }

    #[test]
    fn m_zero_is_certain() {
        let h = ProbGraph::certain(Graph::directed_path(2));
        let p: Rational = long_path_probability(&h, 0, PtStrategy::OptAutomaton).unwrap();
        assert!(p.is_one());
    }

    #[test]
    fn non_polytree_rejected() {
        let mut b = phom_graph::GraphBuilder::with_vertices(2);
        b.edge(0, 1, phom_graph::Label::UNLABELED);
        b.edge(1, 0, phom_graph::Label::UNLABELED);
        let h = ProbGraph::certain(b.build());
        assert!(long_path_probability::<Rational>(&h, 1, PtStrategy::OptAutomaton).is_none());
    }

    #[test]
    fn ddnnf_size_reported() {
        let mut rng = SmallRng::seed_from_u64(52);
        let g = generate::polytree(15, 1, &mut rng);
        let h = generate::with_probabilities(g, generate::ProbProfile::default(), &mut rng);
        let (gates, wires) = ddnnf_size(&h, 3).unwrap();
        assert!(gates > 0 && wires > 0);
    }

    use phom_graph::ProbGraph;
    use phom_num::Rational;
}
