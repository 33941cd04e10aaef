//! Running a tree automaton over an uncertain tree: exact acceptance
//! probability via (a) a direct state-distribution dynamic program and
//! (b) explicit d-DNNF compilation ([5, Prop 3.1]).
//!
//! Both compute `Pr[ A accepts the random annotation of T ]`; they are
//! cross-checked against each other and against world enumeration in the
//! test suites.
//!
//! The per-node state maps are [`FxHashMap`]s: unlike std's randomly
//! seeded hasher, their iteration order is a function of the inserted
//! states alone, so a float run sums its terms in the same order on every
//! run and process, and its value and error bound repeat bit for bit.

use crate::dta::TreeAutomaton;
use crate::utree::UTree;
use phom_lineage::fxhash::FxHashMap;
use phom_lineage::{Circuit, GateId};
use phom_num::Weight;

/// The acceptance probability of `aut` on `tree`, by propagating the
/// distribution over states bottom-up.
///
/// At each node the distribution has one entry per *reachable* state; the
/// merge of two children costs `O(|S_l| · |S_r|)` products.
pub fn acceptance_probability<A: TreeAutomaton, W: Weight>(aut: &A, tree: &UTree) -> W {
    let mut dists: Vec<Option<FxHashMap<A::State, W>>> = vec![None; tree.n_nodes()];
    for n in tree.postorder() {
        let node = tree.node(n);
        // A certain bit's other branch weighs an exact 0 in every `W`
        // (a float `1 − p` would carry p's conversion error).
        let p = W::from_rational(&node.prob);
        let q = if node.prob.is_one() {
            W::zero()
        } else {
            p.complement()
        };
        let mut dist: FxHashMap<A::State, W> = FxHashMap::default();
        match node.children {
            None => {
                for (bit, w) in [(true, p), (false, q)] {
                    if w.is_zero() {
                        continue;
                    }
                    let s = aut.leaf(node.label, bit);
                    upsert(&mut dist, s, w);
                }
            }
            Some((l, r)) => {
                let dl = dists[l].take().expect("postorder");
                let dr = dists[r].take().expect("postorder");
                for (sl, wl) in &dl {
                    for (sr, wr) in &dr {
                        let wlr = wl.mul(wr);
                        for (bit, w) in [(true, &p), (false, &q)] {
                            if w.is_zero() {
                                continue;
                            }
                            let s = aut.internal(node.label, bit, sl, sr);
                            upsert(&mut dist, s, wlr.mul(w));
                        }
                    }
                }
            }
        }
        dists[n] = Some(dist);
    }
    let root = dists[tree.root()].take().unwrap();
    root.into_iter()
        .filter(|(s, _)| aut.accepting(s))
        .fold(W::zero(), |acc, (_, w)| acc.add(&w))
}

fn upsert<S: std::hash::Hash + Eq, W: Weight>(dist: &mut FxHashMap<S, W>, s: S, w: W) {
    dist.entry(s).and_modify(|e| *e = e.add(&w)).or_insert(w);
}

/// Compiles the lineage of "`aut` accepts" over the node annotations of
/// `tree` into a d-DNNF circuit, following [5, Prop 3.1]: one gate per
/// reachable `(node, state)` pair,
///
/// ```text
/// g(n, s) = ⋁_{(bit, s_l, s_r) ⊢ s}  lit(x_n, bit) ∧ g(n_l, s_l) ∧ g(n_r, s_r)
/// ```
///
/// * the OR is deterministic because the automaton is bottom-up
///   deterministic: under any fixed annotation each node has exactly one
///   run state, so distinct `(bit, s_l, s_r)` triples are mutually
///   exclusive;
/// * the AND is decomposable because the two subtrees and the node variable
///   mention disjoint variables.
///
/// Circuit variables are the tree's nodes; evaluate with
/// [`UTree::node_probs`] or translate instance-edge masks with
/// [`UTree::annotation_from_edge_mask`].
pub fn compile_ddnnf<A: TreeAutomaton>(aut: &A, tree: &UTree) -> (Circuit, GateId) {
    let mut circuit = Circuit::new(tree.n_nodes());
    let mut gates: Vec<Option<FxHashMap<A::State, GateId>>> = vec![None; tree.n_nodes()];
    for n in tree.postorder() {
        let node = tree.node(n);
        // Buckets: state -> disjuncts.
        let mut buckets: FxHashMap<A::State, Vec<GateId>> = FxHashMap::default();
        match node.children {
            None => {
                for bit in [true, false] {
                    let lit = if bit {
                        circuit.var(n)
                    } else {
                        circuit.neg_var(n)
                    };
                    buckets
                        .entry(aut.leaf(node.label, bit))
                        .or_default()
                        .push(lit);
                }
            }
            Some((l, r)) => {
                let gl = gates[l].take().expect("postorder");
                let gr = gates[r].take().expect("postorder");
                for (sl, &cl) in &gl {
                    for (sr, &cr) in &gr {
                        for bit in [true, false] {
                            let s = aut.internal(node.label, bit, sl, sr);
                            let lit = if bit {
                                circuit.var(n)
                            } else {
                                circuit.neg_var(n)
                            };
                            let and = circuit.and_gate(vec![lit, cl, cr]);
                            buckets.entry(s).or_default().push(and);
                        }
                    }
                }
            }
        }
        let mut per_state: FxHashMap<A::State, GateId> = FxHashMap::default();
        for (s, disjuncts) in buckets {
            let gate = if disjuncts.len() == 1 {
                disjuncts[0]
            } else {
                circuit.or_gate(disjuncts)
            };
            per_state.insert(s, gate);
        }
        gates[n] = Some(per_state);
    }
    let root_states = gates[tree.root()].take().unwrap();
    let accepting: Vec<GateId> = root_states
        .into_iter()
        .filter(|(s, _)| aut.accepting(s))
        .map(|(_, g)| g)
        .collect();
    let root_gate = match accepting.len() {
        0 => circuit.constant(false),
        1 => accepting[0],
        _ => circuit.or_gate(accepting),
    };
    (circuit, root_gate)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dta::{OptPathAutomaton, PathAutomaton};
    use crate::encode::encode_polytree;
    use phom_graph::generate;
    use phom_graph::graded::longest_directed_path;
    use phom_graph::ProbGraph;
    use phom_num::Rational;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    /// Brute-force oracle: Pr[world of H has a directed path ≥ m].
    fn brute_force_path_prob(h: &ProbGraph, m: usize) -> Rational {
        let mut total = Rational::zero();
        for (mask, p) in h.worlds() {
            let world = h.graph().edge_subgraph(&mask);
            if longest_directed_path(&world).unwrap() >= m {
                total = total.add(&p);
            }
        }
        total
    }

    #[test]
    fn single_edge_path_probability() {
        let g = phom_graph::Graph::directed_path(1);
        let h = ProbGraph::new(g, vec![Rational::from_ratio(1, 3)]);
        let t = encode_polytree(&h).unwrap();
        let aut = PathAutomaton { m: 1 };
        let p: Rational = acceptance_probability(&aut, &t);
        assert_eq!(p, Rational::from_ratio(1, 3));
    }

    #[test]
    fn chain_of_two_edges() {
        let g = phom_graph::Graph::directed_path(2);
        let h = ProbGraph::new(
            g,
            vec![Rational::from_ratio(1, 2), Rational::from_ratio(1, 3)],
        );
        let t = encode_polytree(&h).unwrap();
        let aut = PathAutomaton { m: 2 };
        let p: Rational = acceptance_probability(&aut, &t);
        assert_eq!(p, Rational::from_ratio(1, 6));
        let aut1 = PathAutomaton { m: 1 };
        let p1: Rational = acceptance_probability(&aut1, &t);
        // 1 − (1/2)(2/3) = 2/3.
        assert_eq!(p1, Rational::from_ratio(2, 3));
    }

    #[test]
    fn automaton_run_matches_longest_path_on_sampled_worlds() {
        // For fixed worlds (certain edges), acceptance must equal "longest
        // path ≥ m" exactly — this validates the encoding + transitions.
        let mut rng = SmallRng::seed_from_u64(7);
        for _ in 0..120 {
            let g = generate::polytree(rand::Rng::gen_range(&mut rng, 1..10), 1, &mut rng);
            let lp = longest_directed_path(&g).unwrap();
            let h = ProbGraph::certain(g);
            let t = encode_polytree(&h).unwrap();
            for m in 1..6 {
                let aut = PathAutomaton { m };
                let p: Rational = acceptance_probability(&aut, &t);
                let expect = if lp >= m {
                    Rational::one()
                } else {
                    Rational::zero()
                };
                assert_eq!(p, expect, "m={m} lp={lp} h={:?}", h.graph());
            }
        }
    }

    #[test]
    fn probabilistic_polytrees_match_brute_force() {
        let mut rng = SmallRng::seed_from_u64(99);
        for _ in 0..60 {
            let g = generate::polytree(rand::Rng::gen_range(&mut rng, 2..8), 1, &mut rng);
            let h = generate::with_probabilities(
                g,
                generate::ProbProfile {
                    certain_ratio: 0.3,
                    denominator: 4,
                },
                &mut rng,
            );
            let t = encode_polytree(&h).unwrap();
            for m in 1..5 {
                let expect = brute_force_path_prob(&h, m);
                let paper: Rational = acceptance_probability(&PathAutomaton { m }, &t);
                let opt: Rational = acceptance_probability(&OptPathAutomaton { m }, &t);
                assert_eq!(paper, expect, "paper automaton, m={m}");
                assert_eq!(opt, expect, "opt automaton, m={m}");
            }
        }
    }

    #[test]
    fn ddnnf_agrees_with_distribution_dp() {
        let mut rng = SmallRng::seed_from_u64(1234);
        for _ in 0..40 {
            let g = generate::polytree(rand::Rng::gen_range(&mut rng, 2..8), 1, &mut rng);
            let h = generate::with_probabilities(
                g,
                generate::ProbProfile {
                    certain_ratio: 0.2,
                    denominator: 4,
                },
                &mut rng,
            );
            let t = encode_polytree(&h).unwrap();
            for m in 1..4 {
                let aut = OptPathAutomaton { m };
                let (circuit, root) = compile_ddnnf(&aut, &t);
                assert!(circuit.check_decomposable());
                let probs = t.node_probs();
                let via_circuit: Rational = circuit.probability(root, &probs);
                let via_dp: Rational = acceptance_probability(&aut, &t);
                assert_eq!(via_circuit, via_dp);
            }
        }
    }

    #[test]
    fn ddnnf_is_deterministic_on_all_worlds() {
        let mut rng = SmallRng::seed_from_u64(4321);
        let g = generate::polytree(5, 1, &mut rng);
        let h = generate::with_probabilities(g, generate::ProbProfile::half(), &mut rng);
        let t = encode_polytree(&h).unwrap();
        let aut = PathAutomaton { m: 2 };
        let (circuit, root) = compile_ddnnf(&aut, &t);
        for (mask, _) in h.worlds() {
            let annotation = t.annotation_from_edge_mask(&mask);
            assert!(circuit.check_deterministic_under(&annotation));
            // The circuit evaluates to the truth of "path ≥ 2".
            let world = h.graph().edge_subgraph(&mask);
            let expect = longest_directed_path(&world).unwrap() >= 2;
            assert_eq!(circuit.eval_world(root, &annotation), expect);
        }
    }

    #[test]
    fn f64_and_exact_agree() {
        let mut rng = SmallRng::seed_from_u64(5);
        let g = generate::polytree(20, 1, &mut rng);
        let h = generate::with_probabilities(g, generate::ProbProfile::default(), &mut rng);
        let t = encode_polytree(&h).unwrap();
        let aut = OptPathAutomaton { m: 3 };
        let exact: Rational = acceptance_probability(&aut, &t);
        let float: f64 = acceptance_probability(&aut, &t);
        assert!((exact.to_f64() - float).abs() < 1e-9);
    }
}
