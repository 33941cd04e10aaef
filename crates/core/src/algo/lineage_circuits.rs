//! d-DNNF lineage circuits for the *labeled* tractable routes.
//!
//! The paper compiles d-DNNF lineages only in the unlabeled polytree case
//! (Prop 5.4); its conclusion asks for "extensions of the β-acyclicity
//! approach". This module provides the circuit-shaped counterparts of the
//! Prop 4.10/4.11 dynamic programs — useful to downstream consumers that
//! want a reusable lineage artifact (for conditioning, sampling, or
//! repeated evaluation under changing probabilities) rather than a single
//! probability:
//!
//! * [`match_circuit_2wp`] — Prop 4.11: the interval automaton over the
//!   path is a DFA over the edge word, and a DFA run determinizes into a
//!   d-DNNF directly: `g(pos, state) = (x_pos ∧ g(pos+1, δ(state, 1))) ∨
//!   (¬x_pos ∧ g(pos+1, δ(state, 0)))` — decomposable (distinct
//!   positions) and deterministic (the disjuncts differ on the `x_pos`
//!   literal). Computes the **match** event.
//! * [`fail_circuit_dwt`] — Prop 4.10: the run-length DP on the tree
//!   yields `Fail(v, r) = ⋀_c [(¬x_e ∧ Fail(c, 0)) ∨ (x_e ∧ Fail(c,
//!   r+1))]`, again a d-DNNF; it computes the **non-match** event (d-DNNFs
//!   are not closed under negation, so the complement happens on the
//!   probability: `Pr(match) = 1 − Pr(fail)`), mirroring how Theorem 4.9
//!   computes `1 − Pr(¬φ)`.

use super::connected_on_2wp::minimal_intervals_on;
use phom_graph::classes::{as_downward_tree, as_one_way_path, as_two_way_path};
use phom_graph::{Graph, VertexId};
use phom_lineage::fxhash::FxHashMap;
use phom_lineage::{Circuit, GateId};

/// Compiles the lineage of "the connected query matches the 2WP instance"
/// into a d-DNNF over the instance's edge ids. Returns `None` when the
/// inputs do not have the Prop 4.11 shapes.
pub fn match_circuit_2wp(query: &Graph, instance: &Graph) -> Option<(Circuit, GateId)> {
    let mut c = Circuit::new(instance.n_edges());
    let root = match_into_2wp(&mut c, query, instance)?;
    Some((c, root))
}

/// As [`match_circuit_2wp`], but compiling into a caller-provided arena —
/// the batched solver compiles *many* queries against one instance into a
/// single shared arena this way, so common sub-lineages intern once and
/// one multi-root engine pass answers the whole batch. `c` must have been
/// created over `instance.n_edges()` variables. Shape checks run before
/// any gate is created, so a `None` return leaves `c` untouched.
pub fn match_into_2wp(c: &mut Circuit, query: &Graph, instance: &Graph) -> Option<GateId> {
    assert_eq!(c.num_vars(), instance.n_edges());
    let view = as_two_way_path(instance)?;
    let (intervals, trivially_true) = minimal_intervals_on(query, &view)?;
    if trivially_true {
        return Some(c.constant(true));
    }
    if intervals.is_empty() {
        return Some(c.constant(false));
    }
    let k = intervals.len();
    // DFA states: 0..k = first unbroken interval; k = all broken (dead,
    // since completing any interval is absorbed into acceptance).
    // Process positions right to left; `future[s]` = "the suffix after
    // `pos` accepts from state `s`". Only states whose interval is *open*
    // at `pos` need gates: minimal intervals form an antichain (starts
    // and ends both strictly increase — see
    // `connected_on_2wp::minimal_intervals`), so they are the contiguous
    // band `lo..hi`. States left of the band are dead (never read again:
    // their interval completed or broke strictly earlier), states right
    // of it transition identically on both literals, so their gate
    // carries over untouched. The carried-over branches skip the
    // position's variable, leaving the circuit *unsmoothed*; probability
    // is unaffected (`p + (1 − p) = 1`) and the engine's
    // support-tracking pass keeps model counting exact (see
    // `phom_lineage::engine` on smoothing). Compared to unrolling every
    // (position, state) pair this drops the gate count from `O(n·k)` to
    // the sum of the interval lengths.
    let n_steps = view.steps.len();
    let constant_false = c.constant(false);
    let mut future: Vec<GateId> = vec![constant_false; k + 1];
    for pos in (0..n_steps).rev() {
        let lo = intervals.partition_point(|iv| iv.end < pos);
        let hi = intervals.partition_point(|iv| iv.start <= pos);
        if lo >= hi {
            continue; // no interval open at pos: identity on every state
        }
        let var = view.steps[pos].0;
        let x = c.var(var);
        let nx = c.neg_var(var);
        // Absent: every open interval breaks; the run advances to the
        // first interval starting after pos (`hi`; the dead state's entry
        // stays constant false).
        let absent = c.and_gate(vec![nx, future[hi]]);
        for state in lo..hi {
            // Present: completes interval `state` iff pos == end.
            let present = if intervals[state].end == pos {
                // Acceptance: the rest of the word is unconstrained.
                x
            } else {
                c.and_gate(vec![x, future[state]])
            };
            future[state] = c.or_gate(vec![present, absent]);
        }
    }
    Some(future[0])
}

/// Compiles the lineage of "the 1WP query has **no** match in the DWT
/// instance" into a d-DNNF over the instance's edge ids (complement on the
/// probability side). Returns `None` when the inputs do not have the
/// Prop 4.10 shapes.
pub fn fail_circuit_dwt(query: &Graph, instance: &Graph) -> Option<(Circuit, GateId)> {
    let mut c = Circuit::new(instance.n_edges());
    let root = fail_into_dwt(&mut c, query, instance)?;
    Some((c, root))
}

/// As [`fail_circuit_dwt`], compiling into a caller-provided arena (see
/// [`match_into_2wp`] for why). Shape checks run before any gate is
/// created, so a `None` return leaves `c` untouched.
pub fn fail_into_dwt(c: &mut Circuit, query: &Graph, instance: &Graph) -> Option<GateId> {
    assert_eq!(c.num_vars(), instance.n_edges());
    let qpath = as_one_way_path(query)?;
    let view = as_downward_tree(instance)?;
    let m = qpath.labels.len();
    if m == 0 {
        return Some(c.constant(false)); // the empty query always matches
    }
    // matches[v]: the m edges above v exist and spell the query labels.
    let mut matches = vec![false; instance.n_vertices()];
    for &v in &view.order {
        if view.depth[v] < m {
            continue;
        }
        let mut cur = v;
        let mut ok = true;
        for i in 0..m {
            let (parent, e) = view.parent[cur].unwrap();
            if instance.edge(e).label != qpath.labels[m - 1 - i] {
                ok = false;
                break;
            }
            cur = parent;
        }
        matches[v] = ok;
    }
    // Fail(v, r): gates built bottom-up; r capped at m.
    let mut gates: FxHashMap<(VertexId, usize), GateId> = FxHashMap::default();
    for &v in view.order.iter().rev() {
        for r in 0..=m {
            let gate = if matches[v] && r >= m {
                c.constant(false)
            } else {
                let mut parts = Vec::new();
                for &e in instance.out_edges(v) {
                    let child = instance.edge(e).dst;
                    let x = c.var(e);
                    let nx = c.neg_var(e);
                    let absent = c.and_gate(vec![nx, gates[&(child, 0)]]);
                    let present = c.and_gate(vec![x, gates[&(child, (r + 1).min(m))]]);
                    parts.push(c.or_gate(vec![absent, present]));
                }
                if parts.is_empty() {
                    c.constant(true)
                } else if parts.len() == 1 {
                    parts[0]
                } else {
                    c.and_gate(parts)
                }
            };
            gates.insert((v, r), gate);
        }
    }
    Some(gates[&(view.root, 0)])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo::{connected_on_2wp, path_on_dwt};
    use phom_graph::generate::{self, ProbProfile};
    use phom_graph::hom::exists_hom_into_world;
    use phom_num::{Rational, Weight};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn twp_circuit_matches_dp_and_worlds() {
        let mut rng = SmallRng::seed_from_u64(101);
        for _ in 0..60 {
            let h_graph = generate::two_way_path(rng.gen_range(1..7), 2, &mut rng);
            let h = generate::with_probabilities(
                h_graph,
                ProbProfile {
                    certain_ratio: 0.2,
                    denominator: 4,
                },
                &mut rng,
            );
            let q = generate::connected(rng.gen_range(1..5), 1, 2, &mut rng);
            let (circuit, root) = match_circuit_2wp(&q, h.graph()).unwrap();
            assert!(circuit.check_decomposable());
            // Probability agreement.
            let probs: Vec<Rational> = h.probs().to_vec();
            let via_circuit: Rational = circuit.probability(root, &probs);
            let via_dp: Rational = connected_on_2wp::probability_dp(&q, &h).unwrap();
            assert_eq!(via_circuit, via_dp, "q={q:?} h={:?}", h.graph());
            // Per-world agreement + determinism.
            for (mask, _) in h.worlds() {
                assert_eq!(
                    circuit.eval_world(root, &mask),
                    exists_hom_into_world(&q, h.graph(), &mask)
                );
                assert!(circuit.check_deterministic_under(&mask));
            }
        }
    }

    #[test]
    fn dwt_fail_circuit_complements_the_match() {
        let mut rng = SmallRng::seed_from_u64(102);
        for _ in 0..60 {
            let tree = generate::downward_tree(rng.gen_range(1..8), 2, &mut rng);
            let h = generate::with_probabilities(
                tree,
                ProbProfile {
                    certain_ratio: 0.2,
                    denominator: 4,
                },
                &mut rng,
            );
            let q = generate::planted_path_query(h.graph(), rng.gen_range(1..4), &mut rng)
                .unwrap_or_else(|| generate::one_way_path(2, 2, &mut rng));
            let (circuit, root) = fail_circuit_dwt(&q, h.graph()).unwrap();
            assert!(circuit.check_decomposable());
            let probs: Vec<Rational> = h.probs().to_vec();
            let p_fail: Rational = circuit.probability(root, &probs);
            let p_match: Rational = path_on_dwt::probability_lineage(&q, &h).unwrap();
            assert_eq!(p_fail.complement(), p_match, "q={q:?} h={:?}", h.graph());
            for (mask, _) in h.worlds() {
                assert_eq!(
                    circuit.eval_world(root, &mask),
                    !exists_hom_into_world(&q, h.graph(), &mask)
                );
                assert!(circuit.check_deterministic_under(&mask));
            }
        }
    }

    #[test]
    fn circuits_are_reusable_under_changed_probabilities() {
        // The point of a lineage artifact: evaluate once-built circuits
        // under many probability vectors.
        let mut rng = SmallRng::seed_from_u64(103);
        let h_graph = generate::two_way_path(6, 2, &mut rng);
        let q = generate::connected(3, 1, 2, &mut rng);
        let (circuit, root) = match_circuit_2wp(&q, &h_graph).unwrap();
        for _ in 0..10 {
            let h = generate::with_probabilities(
                h_graph.clone(),
                ProbProfile {
                    certain_ratio: 0.2,
                    denominator: 8,
                },
                &mut rng,
            );
            let via_circuit: Rational = circuit.probability(root, h.probs());
            let via_dp: Rational = connected_on_2wp::probability_dp(&q, &h).unwrap();
            assert_eq!(via_circuit, via_dp);
        }
    }

    #[test]
    fn trivial_cases() {
        let h = Graph::one_way_path(&[phom_graph::Label(0)]);
        // Edgeless query: constant-true match circuit.
        let q = Graph::directed_path(0);
        let (c, root) = match_circuit_2wp(&q, &h).unwrap();
        assert!(c.eval_world(root, &[false]));
        let (c, root) = fail_circuit_dwt(&q, &h).unwrap();
        assert!(!c.eval_world(root, &[false])); // never fails
                                                // Unmatchable query: constant-false match circuit.
        let q = Graph::one_way_path(&[phom_graph::Label(5)]);
        let (c, root) = match_circuit_2wp(&q, &h).unwrap();
        assert!(!c.eval_world(root, &[true]));
    }

    use phom_graph::Graph;
}
