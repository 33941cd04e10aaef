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
//!   computes `1 − Pr(¬φ)`. Of the `m+1` rows per vertex, typically one
//!   or two are distinct; only those are built, into a flat table shared
//!   with the Prop 4.10 DP (`path_on_dwt::run_length_table`), and the
//!   arena comes out gate for gate as the full unroll would build it.

use super::connected_on_2wp::minimal_intervals_on;
use super::path_on_dwt::run_length_table;
use phom_graph::classes::{as_downward_tree, as_one_way_path, as_two_way_path};
use phom_graph::Graph;
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
///
/// Only distinct rows are built (`path_on_dwt::run_length_table`): a row
/// that repeats the row before it would re-intern the same gates and get
/// the same root back, so skipping it leaves the arena gate for gate as a
/// full `(m+1)`-row unroll would build it. Each edge's literals and its
/// "absent" branch (which reads the child's row 0 only) are interned in
/// the vertex's row-0 pass and reused by its later rows.
pub fn fail_into_dwt(c: &mut Circuit, query: &Graph, instance: &Graph) -> Option<GateId> {
    assert_eq!(c.num_vars(), instance.n_edges());
    let qpath = as_one_way_path(query)?;
    let view = as_downward_tree(instance)?;
    let m = qpath.labels.len();
    if m == 0 {
        return Some(c.constant(false)); // the empty query always matches
    }
    let w = m + 1;
    let dead = c.constant(false);
    // Per out-edge of the current vertex: (x_e, ¬x_e ∧ Fail(child, 0)).
    let mut branches: Vec<(GateId, GateId)> = Vec::new();
    let mut parts: Vec<GateId> = Vec::new();
    let fail = run_length_table(instance, &view, &qpath.labels, dead, |v, r, fail| {
        if r == 0 {
            branches.clear();
        }
        parts.clear();
        for (i, &e) in instance.out_edges(v).iter().enumerate() {
            let child = instance.edge(e).dst * w;
            if r == 0 {
                let x = c.var(e);
                let nx = c.neg_var(e);
                branches.push((x, c.and(&[nx, fail[child]])));
            }
            let (x, absent) = branches[i];
            let present = c.and(&[x, fail[child + (r + 1).min(m)]]);
            parts.push(c.or(&[absent, present]));
        }
        c.and(&parts)
    });
    Some(fail[view.root * w])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo::path_on_dwt::match_above;
    use crate::algo::{connected_on_2wp, path_on_dwt};
    use phom_graph::generate::{self, ProbProfile};
    use phom_graph::hom::exists_hom_into_world;
    use phom_graph::VertexId;
    use phom_lineage::fxhash::FxHashMap;
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

    /// The full `(m+1)`-row unroll of `Fail(v, r)` that [`fail_into_dwt`]
    /// must reproduce gate for gate: every row of every vertex interned, keyed
    /// by `(v, r)`.
    fn fail_into_dwt_unrolled(c: &mut Circuit, query: &Graph, instance: &Graph) -> Option<GateId> {
        let qpath = as_one_way_path(query)?;
        let view = as_downward_tree(instance)?;
        let m = qpath.labels.len();
        if m == 0 {
            return Some(c.constant(false));
        }
        let mut edges = Vec::new();
        let mut gates: FxHashMap<(VertexId, usize), GateId> = FxHashMap::default();
        for &v in view.order.iter().rev() {
            let matched = match_above(instance, &view, &qpath.labels, v, &mut edges);
            for r in 0..=m {
                let gate = if matched && r >= m {
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

    #[test]
    fn distinct_rows_build_the_unrolled_arena_gate_for_gate() {
        // Shared arenas of 1–5 queries (m ≤ 6, planted or random) over
        // random DWTs of 1–59 vertices and 1–3 labels: skipping repeated
        // rows must create exactly the gates, in exactly the order, that
        // the full (m+1)-row unroll creates, and return the same roots.
        let mut rng = SmallRng::seed_from_u64(104);
        let gates = |c: &Circuit| -> Vec<String> {
            c.gates().map(|(_, gate)| format!("{gate:?}")).collect()
        };
        for _ in 0..1500 {
            let sigma = rng.gen_range(1..4);
            let h = generate::downward_tree(rng.gen_range(1..60), sigma, &mut rng);
            let mut fast = Circuit::new(h.n_edges());
            let mut full = Circuit::new(h.n_edges());
            for _ in 0..rng.gen_range(1..6) {
                let m = rng.gen_range(0..7);
                let planted = if rng.gen_bool(0.7) {
                    generate::planted_path_query(&h, m, &mut rng)
                } else {
                    None
                };
                let q = planted.unwrap_or_else(|| generate::one_way_path(m, sigma, &mut rng));
                let root = fail_into_dwt(&mut fast, &q, &h);
                assert_eq!(
                    root,
                    fail_into_dwt_unrolled(&mut full, &q, &h),
                    "q={q:?} h={h:?}"
                );
                assert_eq!(gates(&fast), gates(&full), "q={q:?} h={h:?}");
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
