//! Analysis operations on d-DNNF lineage circuits: conditioning, edge
//! influence (partial derivatives) and most-probable explanations.
//!
//! A d-DNNF circuit does more than answer one `PHom` query: because its
//! bottom-up evaluation computes the *exact multilinear polynomial*
//! `Pr(φ)(p₁, …, p_n)`, downstream tasks reduce to circuit passes
//! (Darwiche's differential approach to inference):
//!
//! * [`gradients`] — all partial derivatives `∂Pr/∂p_v` in one forward +
//!   one backward sweep of the provenance engine
//!   ([`Arena::gradients`](crate::engine::Arena::gradients)). Since `Pr`
//!   is multilinear, `∂Pr/∂p_v = Pr(φ | v) − Pr(φ | ¬v)` — the (signed)
//!   *influence* of edge `v`, also known as its Birnbaum importance: the
//!   natural "which probabilistic edge matters most for this query"
//!   ranking.
//! * [`condition`] — `Pr(φ | v = b)` by weight surgery (no restructuring).
//! * [`mpe`] — a most probable possible world satisfying the lineage, by
//!   max-product search over the arena. Decomposability makes the max
//!   exact; missing variables along a branch (the circuits here are not
//!   smoothed) are scored by their best completion `max(p_v, 1 − p_v)`.
//!
//! These operations apply uniformly to every circuit produced in this
//! workspace: the Prop 5.4 automaton compilation, the labeled-route
//! circuits of `phom-core::algo::lineage_circuits`, and decision d-DNNFs
//! (Shannon expansions, as the tests below build them).

use crate::circuit::{Circuit, Gate, GateId};
use phom_num::Weight;

/// Per-gate MPE state: `None` = unsatisfiable, otherwise the best raw
/// score with its sparse argmax assignment.
type MpeScore<W> = Option<(W, Vec<(usize, bool)>)>;

/// All partial derivatives `∂Pr(root)/∂p_v`, assuming the circuit is a
/// d-DNNF (so that its value *is* the probability). Delegates to the
/// provenance engine's forward + backward sweep; no division is performed
/// and zero weights are handled exactly.
pub fn gradients<W: Weight>(circuit: &Circuit, root: GateId, prob_true: &[W]) -> Vec<W> {
    circuit.gradients(root, prob_true)
}

/// `Pr(root | v = value)`: evaluation with `p_v` pinned to 1 or 0.
pub fn condition<W: Weight>(
    circuit: &Circuit,
    root: GateId,
    prob_true: &[W],
    v: usize,
    value: bool,
) -> W {
    assert!(v < circuit.num_vars());
    let mut probs = prob_true.to_vec();
    probs[v] = if value { W::one() } else { W::zero() };
    circuit.probability(root, &probs)
}

/// A most probable explanation: a possible world (total valuation) that
/// satisfies the circuit, of maximum probability, together with that
/// probability. Returns `None` when the circuit is unsatisfiable.
///
/// Requires a *decomposable* circuit (d-DNNF included); determinism is not
/// needed for the max to be exact. `W` must be totally ordered on the
/// weights in play (`Rational` is; `f64` is, absent NaNs).
pub fn mpe<W: Weight + PartialOrd>(
    circuit: &Circuit,
    root: GateId,
    prob_true: &[W],
) -> Option<(W, Vec<bool>)> {
    assert_eq!(prob_true.len(), circuit.num_vars());
    let n = circuit.num_vars();
    // best[v] = the weight of v's most probable value — the score of an
    // optimal completion for variables a branch does not mention.
    let best: Vec<W> = prob_true
        .iter()
        .map(|p| {
            let q = p.complement();
            if *p >= q {
                p.clone()
            } else {
                q
            }
        })
        .collect();
    // For each gate: Option<(raw score, choices)>, where the raw score is
    // the max over the gate's satisfying partial assignments of
    // `Π_{v assigned} weight_v(b)`, and `choices` is the argmax partial
    // assignment as sparse (var, bool) pairs. Raw scores over different
    // variable sets are compared *canonically*: each is multiplied by
    // `best_v` for every unassigned variable, which is exactly the value
    // of the optimal completion — this is what makes the max at OR gates
    // correct without smoothing the circuit. (`None` = unsatisfiable.)
    let mut score: Vec<MpeScore<W>> = Vec::with_capacity(circuit.n_gates());
    let canonical = |s: &W, choices: &[(usize, bool)]| -> W {
        let mut assigned = vec![false; n];
        for &(v, _) in choices {
            assigned[v] = true;
        }
        let mut canon = s.clone();
        for v in 0..n {
            if !assigned[v] {
                canon = canon.mul(&best[v]);
            }
        }
        canon
    };
    for (_, g) in circuit.gates() {
        let entry = match g {
            // Zero-probability literals are kept: a satisfiable circuit
            // whose models all have mass 0 still has an MPE (of mass 0).
            Gate::Var(v) => Some((prob_true[v].clone(), vec![(v, true)])),
            Gate::NegVar(v) => Some((prob_true[v].complement(), vec![(v, false)])),
            Gate::Const(true) => Some((W::one(), Vec::new())),
            Gate::Const(false) => None,
            Gate::And(cs) => {
                let mut acc = W::one();
                let mut choices = Vec::new();
                let mut ok = true;
                for c in cs {
                    match &score[c] {
                        None => {
                            ok = false;
                            break;
                        }
                        Some((s, ch)) => {
                            // Decomposability: the children's assigned
                            // variable sets are disjoint.
                            acc = acc.mul(s);
                            choices.extend_from_slice(ch);
                        }
                    }
                }
                ok.then_some((acc, choices))
            }
            Gate::Or(cs) => {
                let mut winner: Option<(W, GateId)> = None;
                for c in cs {
                    if let Some((s, ch)) = &score[c] {
                        let canon = canonical(s, ch);
                        if winner.as_ref().is_none_or(|(cur, _)| canon > *cur) {
                            winner = Some((canon, c));
                        }
                    }
                }
                winner.map(|(_, c)| score[c].clone().expect("winner is satisfiable"))
            }
        };
        score.push(entry);
    }
    let (raw, choices) = score[root].take()?;
    // Complete the assignment: chosen variables as chosen, all others at
    // their best value. Probability = raw · Π_{v unassigned} best_v.
    let mut world: Vec<bool> = best
        .iter()
        .zip(prob_true)
        .map(|(b, p)| p == b) // best achieved by `true` iff p ≥ 1−p
        .collect();
    let mut assigned = vec![false; n];
    for &(v, b) in &choices {
        world[v] = b;
        assigned[v] = true;
    }
    let mut prob = raw;
    for v in 0..n {
        if !assigned[v] {
            prob = prob.mul(&best[v]);
        }
    }
    debug_assert!(
        circuit.eval_world(root, &world),
        "MPE world must satisfy the circuit"
    );
    Some((prob, world))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dnf::Dnf;
    use phom_num::Rational;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn rat(a: u64, b: u64) -> Rational {
        Rational::from_ratio(a, b)
    }

    fn xor_circuit() -> (Circuit, GateId) {
        let mut c = Circuit::new(2);
        let x = c.var(0);
        let nx = c.neg_var(0);
        let y = c.var(1);
        let ny = c.neg_var(1);
        let a1 = c.and_gate(vec![x, ny]);
        let a2 = c.and_gate(vec![nx, y]);
        let root = c.or_gate(vec![a1, a2]);
        (c, root)
    }

    fn random_dnf(rng: &mut SmallRng, num_vars: usize, clauses: usize) -> Dnf {
        let mut dnf = Dnf::falsum(num_vars);
        for _ in 0..clauses {
            let len = rng.gen_range(1..=num_vars.min(3));
            let mut clause: Vec<usize> = (0..len).map(|_| rng.gen_range(0..num_vars)).collect();
            clause.sort_unstable();
            clause.dedup();
            dnf.push_clause(clause);
        }
        dnf
    }

    /// A decision d-DNNF for `dnf` built into `c`: Shannon expansion
    /// `(v ∧ f|v) ∨ (¬v ∧ f|¬v)` over the variables in index order.
    fn decision_dnnf(c: &mut Circuit, dnf: &Dnf) -> GateId {
        fn expand(c: &mut Circuit, clauses: &[Vec<usize>], v: usize) -> GateId {
            if clauses.iter().any(Vec::is_empty) {
                return c.constant(true);
            }
            if clauses.is_empty() {
                return c.constant(false);
            }
            let hi: Vec<Vec<usize>> = clauses
                .iter()
                .map(|cl| cl.iter().copied().filter(|&u| u != v).collect())
                .collect();
            let lo: Vec<Vec<usize>> = clauses
                .iter()
                .filter(|cl| !cl.contains(&v))
                .cloned()
                .collect();
            let (hi, lo) = (expand(c, &hi, v + 1), expand(c, &lo, v + 1));
            let (pos, neg) = (c.var(v), c.neg_var(v));
            let branches = [c.and(&[pos, hi]), c.and(&[neg, lo])];
            c.or(&branches)
        }
        expand(c, dnf.clauses(), 0)
    }

    #[test]
    fn xor_gradients_match_conditioning_identity() {
        let (c, root) = xor_circuit();
        let probs = [rat(1, 3), rat(1, 4)];
        let grads = gradients(&c, root, &probs);
        for (v, grad) in grads.iter().enumerate() {
            let plus: Rational = condition(&c, root, &probs, v, true);
            let minus: Rational = condition(&c, root, &probs, v, false);
            assert_eq!(*grad, plus.sub(&minus), "v = {v}");
        }
        // XOR: ∂/∂p_x Pr = (1−q) − q = 1 − 2q.
        assert_eq!(grads[0], Rational::one().sub(&rat(2, 4)));
    }

    #[test]
    fn gradients_on_decision_dnnf_circuits_match_finite_differences() {
        let mut rng = SmallRng::seed_from_u64(0x6AAD);
        for trial in 0..25 {
            let n = rng.gen_range(2..7);
            let n_clauses = rng.gen_range(1..5);
            let dnf = random_dnf(&mut rng, n, n_clauses);
            let mut c = Circuit::new(n);
            let root = decision_dnnf(&mut c, &dnf);
            let probs: Vec<Rational> = (0..n).map(|_| rat(rng.gen_range(1..4), 4)).collect();
            let grads = gradients(&c, root, &probs);
            for (v, grad) in grads.iter().enumerate() {
                let plus: Rational = condition(&c, root, &probs, v, true);
                let minus: Rational = condition(&c, root, &probs, v, false);
                assert_eq!(*grad, plus.sub(&minus), "trial {trial}, v = {v}");
            }
        }
    }

    #[test]
    fn influence_of_irrelevant_variable_is_zero() {
        // f = x₀ over 3 variables: x₁, x₂ have zero influence.
        let mut dnf = Dnf::falsum(3);
        dnf.push_clause(vec![0]);
        let mut c = Circuit::new(3);
        let root = decision_dnnf(&mut c, &dnf);
        let probs = vec![rat(1, 2); 3];
        let grads = gradients(&c, root, &probs);
        assert_eq!(grads[0], Rational::one());
        assert_eq!(grads[1], Rational::zero());
        assert_eq!(grads[2], Rational::zero());
    }

    #[test]
    fn mpe_matches_bruteforce_argmax() {
        let mut rng = SmallRng::seed_from_u64(0x3FE0);
        for trial in 0..30 {
            let n = rng.gen_range(2..7);
            let n_clauses = rng.gen_range(1..5);
            let dnf = random_dnf(&mut rng, n, n_clauses);
            let mut c = Circuit::new(n);
            let root = decision_dnnf(&mut c, &dnf);
            let probs: Vec<Rational> = (0..n).map(|_| rat(rng.gen_range(0..=4), 4)).collect();
            let world_prob = |world: &[bool]| {
                let mut p = Rational::one();
                for (i, &b) in world.iter().enumerate() {
                    p = p.mul(&if b {
                        probs[i].clone()
                    } else {
                        probs[i].one_minus()
                    });
                }
                p
            };
            // Brute-force MPE.
            let mut best: Option<(Rational, Vec<bool>)> = None;
            for mask in 0..1u32 << n {
                let world: Vec<bool> = (0..n).map(|i| mask >> i & 1 == 1).collect();
                if !dnf.eval(&world) {
                    continue;
                }
                let p = world_prob(&world);
                if best.as_ref().is_none_or(|(bp, _)| p > *bp) {
                    best = Some((p, world));
                }
            }
            let got = mpe(&c, root, &probs);
            match (best, got) {
                (None, None) => {}
                (Some((bp, _)), Some((gp, gw))) => {
                    assert_eq!(gp, bp, "trial {trial}");
                    assert_eq!(world_prob(&gw), gp, "trial {trial}");
                    assert!(c.eval_world(root, &gw));
                }
                (b, g) => panic!("trial {trial}: mismatch {b:?} vs {:?}", g.map(|x| x.0)),
            }
        }
    }

    #[test]
    fn mpe_unsatisfiable_is_none() {
        let mut c = Circuit::new(2);
        let f = c.constant(false);
        assert!(mpe::<Rational>(&c, f, &[rat(1, 2), rat(1, 2)]).is_none());
    }

    #[test]
    fn conditioning_chain_rule_total_probability() {
        // Pr = p_v · Pr(|v) + (1−p_v) · Pr(|¬v), on a random decision d-DNNF.
        let mut rng = SmallRng::seed_from_u64(0xC0DE);
        let n = 5;
        let dnf = random_dnf(&mut rng, n, 4);
        let mut c = Circuit::new(n);
        let root = decision_dnnf(&mut c, &dnf);
        let probs: Vec<Rational> = (0..n).map(|_| rat(rng.gen_range(0..=4), 4)).collect();
        let total: Rational = c.probability(root, &probs);
        for v in 0..n {
            let plus: Rational = condition(&c, root, &probs, v, true);
            let minus: Rational = condition(&c, root, &probs, v, false);
            let mix = probs[v].mul(&plus).add(&probs[v].one_minus().mul(&minus));
            assert_eq!(mix, total, "v = {v}");
        }
    }
}
