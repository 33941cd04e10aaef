//! Polynomial-time probability computation for β-acyclic positive DNFs
//! (Theorem 4.9).
//!
//! The paper proves Theorem 4.9 by reduction to the β-acyclic `#CSPd`
//! partition function of Brault-Baron, Capelli and Mengel \[11]. We implement
//! the partition-function computation directly, specialized to the constraint
//! shape that the encoding produces. Derivation (the tests
//! `random_interval_dnfs_match_brute_force` and
//! `random_tree_path_dnfs_match_brute_force` pin it):
//!
//! For a positive DNF `φ` we compute `q = Pr(¬φ)` — the probability that
//! *every* clause has a false variable — and return `1 − q`. The state is a
//! set of **penalty constraints** `(S, α)` over pairwise-distinct scopes,
//! with semantics "multiply the world's weight by `α` if all variables of
//! `S` are true, else by 1". Initially each clause `e` contributes `(e, 0)`.
//!
//! Summing out a **β-leaf** `x` (Definition 4.7: its incident scopes form an
//! inclusion chain `e₁ ⊂ … ⊂ e_k`, penalties `α₁ … α_k`) replaces the chain
//! by constraints on `e_j \ {x}`. For a valuation of the other variables,
//! letting `j*` be the largest prefix of the chain that is all-true, the
//! summed-out factor is
//!
//! ```text
//! v_{j*}  where  v_j = (1 − p_x) + p_x · Π_{i ≤ j} α_i,   v₀ = 1,
//! ```
//!
//! and because the truncated scopes `e_j \ {x}` are still a chain, these
//! values factor **exactly** into penalties `γ_j = v_j / v_{j−1}` on
//! `e_j \ {x}` (telescoping product). All `v_j ≥ 0`; once some `v_j = 0`
//! every later one is 0 too, so zeros are handled by emitting `γ = 0` then
//! `γ = 1` — no division by zero. Empty scopes accumulate into a global
//! constant; scopes that collide merge by multiplying penalties, exactly
//! matching the hypergraph `H \ x` of Definition 4.7. Since `H \ x` stays
//! β-acyclic, greedy elimination completes, and the final constant is `q`.

use crate::dnf::{Dnf, VarId};
use crate::fxhash::{FxHashMap, FxHasher};
use phom_num::Weight;
use std::hash::Hasher;

/// Why an elimination run failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BetaError {
    /// The requested variable is not a β-leaf at its point in the order
    /// (the DNF is not β-acyclic, or the order is wrong).
    NotABetaLeaf(VarId),
    /// The order did not cover every variable occurring in the DNF.
    IncompleteOrder,
}

/// Computes the probability of a β-acyclic positive DNF, discovering a
/// β-elimination order greedily. Returns `None` when the DNF's clause
/// hypergraph is not β-acyclic.
///
/// `prob_true[v]` is the probability that variable `v` is true.
pub fn beta_dnf_probability<W: Weight>(dnf: &Dnf, prob_true: &[W]) -> Option<W> {
    let order = dnf.hypergraph().beta_elimination_order()?;
    // A greedy order must validate; if it ever does not (an upstream
    // bug), report "not β-acyclic" to the caller rather than panicking
    // mid-solve — the solver then falls back or reports hardness.
    let result = beta_dnf_probability_with_order(dnf, prob_true, &order);
    debug_assert!(result.is_ok(), "greedy β-elimination order rejected");
    result.ok()
}

/// Computes the probability of a β-acyclic positive DNF along a caller-
/// supplied elimination order (the paper's algorithms know good orders:
/// bottom-up in the DWT for Prop 4.10, along the path for Prop 4.11).
/// Each step verifies the β-leaf property, so an invalid order is reported
/// rather than silently producing a wrong answer.
pub fn beta_dnf_probability_with_order<W: Weight>(
    dnf: &Dnf,
    prob_true: &[W],
    order: &[VarId],
) -> Result<W, BetaError> {
    assert_eq!(prob_true.len(), dnf.num_vars());
    if dnf.is_valid() {
        return Ok(W::one()); // an empty clause: constant true
    }

    let mut state = Eliminator::new(dnf);
    for &x in order {
        state.eliminate(x, &prob_true[x])?;
    }
    if !state.penalty.iter().all(Option::is_none) {
        return Err(BetaError::IncompleteOrder);
    }
    // state.constant is q = Pr(¬φ).
    Ok(state.constant.complement())
}

/// Id of an interned scope (= constraint id: scopes are pairwise distinct,
/// so a scope identifies at most one live constraint).
type ScopeId = u32;

/// The elimination state. Scopes are *interned*: the sorted variable sets
/// live once in an append-only store and constraints refer to them by
/// [`ScopeId`], so the per-elimination bookkeeping moves small integer
/// ids around instead of hashing and cloning `Vec<VarId>` keys. Lookup
/// goes through an Fx-hashed table (hash → candidate ids), mirroring the
/// engine arena's gate interning. A scope truncated by one elimination
/// frequently reappears in later ones (chains shrink variable by
/// variable), so interning also caps allocation at the number of
/// *distinct* scopes ever seen.
struct Eliminator<W> {
    /// Interned scope storage (sorted variable sets), append-only.
    scopes: Vec<Box<[VarId]>>,
    /// Scope hash → candidate scope ids.
    lookup: FxHashMap<u64, Vec<ScopeId>>,
    /// Per scope id: `Some(penalty)` iff the constraint is live.
    penalty: Vec<Option<W>>,
    /// For each variable, the scope ids of live constraints containing it.
    incident: Vec<Vec<ScopeId>>,
    constant: W,
    /// Reusable buffer for truncated scopes (avoids a per-chain-link
    /// allocation).
    scratch: Vec<VarId>,
}

impl<W: Weight> Eliminator<W> {
    fn new(dnf: &Dnf) -> Self {
        let mut me = Eliminator {
            scopes: Vec::with_capacity(dnf.clauses().len()),
            lookup: FxHashMap::default(),
            penalty: Vec::with_capacity(dnf.clauses().len()),
            incident: vec![Vec::new(); dnf.num_vars()],
            constant: W::one(),
            scratch: Vec::new(),
        };
        for clause in dnf.clauses() {
            if !clause.is_empty() {
                me.insert(clause, W::zero());
            }
        }
        me
    }

    fn hash_scope(scope: &[VarId]) -> u64 {
        let mut h = FxHasher::default();
        for &v in scope {
            h.write_usize(v);
        }
        h.finish()
    }

    /// The id of `scope`, interning it on first sight.
    fn intern(&mut self, scope: &[VarId]) -> ScopeId {
        let h = Self::hash_scope(scope);
        if let Some(candidates) = self.lookup.get(&h) {
            for &id in candidates {
                if &*self.scopes[id as usize] == scope {
                    return id;
                }
            }
        }
        let id = self.scopes.len() as ScopeId;
        self.scopes.push(scope.into());
        self.penalty.push(None);
        self.lookup.entry(h).or_default().push(id);
        id
    }

    fn insert(&mut self, scope: &[VarId], penalty: W) {
        debug_assert!(
            scope.windows(2).all(|w| w[0] < w[1]),
            "scopes are sorted sets"
        );
        let id = self.intern(scope);
        match &mut self.penalty[id as usize] {
            Some(a) => *a = a.mul(&penalty), // scope collision: merge
            slot => {
                *slot = Some(penalty);
                for &v in &*self.scopes[id as usize] {
                    self.incident[v].push(id);
                }
            }
        }
    }

    /// Kills the constraint, unhooking it from the incident lists of every
    /// scope variable except `x` (whose list the caller already took).
    fn delete(&mut self, id: ScopeId, x: VarId) -> W {
        let alpha = self.penalty[id as usize].take().expect("live constraint");
        for &v in &*self.scopes[id as usize] {
            if v != x {
                self.incident[v].retain(|&c| c != id);
            }
        }
        alpha
    }

    fn eliminate(&mut self, x: VarId, p: &W) -> Result<(), BetaError> {
        let mut ids = std::mem::take(&mut self.incident[x]);
        if ids.is_empty() {
            return Ok(()); // variable no longer occurs
        }
        // Sort incident scopes by size; a chain must then be consecutive
        // inclusions (distinct scopes of equal size can never nest).
        ids.sort_by_key(|&id| self.scopes[id as usize].len());
        for w in ids.windows(2) {
            if !is_subset(&self.scopes[w[0] as usize], &self.scopes[w[1] as usize]) {
                // Restore the incident list: the state is unchanged.
                ids.sort_unstable();
                self.incident[x] = ids;
                return Err(BetaError::NotABetaLeaf(x));
            }
        }
        // Chain values v_j and penalties γ_j.
        let q = p.complement();
        let mut prev_v = W::one();
        let mut alpha_prod = W::one();
        let mut hit_zero = false;
        // Delete the whole chain first, then re-insert the truncated
        // scopes (which may merge into each other or into later state).
        let chain: Vec<(ScopeId, W)> = ids.into_iter().map(|id| (id, self.delete(id, x))).collect();
        let mut scratch = std::mem::take(&mut self.scratch);
        for (id, alpha) in chain {
            let gamma = if hit_zero {
                W::one()
            } else {
                alpha_prod = alpha_prod.mul(&alpha);
                let v = q.add(&p.mul(&alpha_prod));
                if v.is_zero() {
                    hit_zero = true;
                    W::zero()
                } else {
                    let g = v.div(&prev_v);
                    prev_v = v;
                    g
                }
            };
            scratch.clear();
            scratch.extend(self.scopes[id as usize].iter().copied().filter(|&v| v != x));
            if scratch.is_empty() {
                self.constant = self.constant.mul(&gamma);
            } else {
                self.insert(&scratch, gamma);
            }
        }
        self.scratch = scratch;
        Ok(())
    }
}

fn is_subset(small: &[VarId], big: &[VarId]) -> bool {
    // Both sorted.
    let mut it = big.iter();
    'outer: for s in small {
        for b in it.by_ref() {
            match b.cmp(s) {
                std::cmp::Ordering::Less => continue,
                std::cmp::Ordering::Equal => continue 'outer,
                std::cmp::Ordering::Greater => return false,
            }
        }
        return false;
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use phom_num::Rational;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn rat(n: u64, d: u64) -> Rational {
        Rational::from_ratio(n, d)
    }

    #[test]
    fn single_variable() {
        let f = Dnf::new(1, vec![vec![0]]);
        assert_eq!(beta_dnf_probability(&f, &[rat(1, 3)]), Some(rat(1, 3)));
    }

    #[test]
    fn single_clause_conjunction() {
        let f = Dnf::new(3, vec![vec![0, 1, 2]]);
        let p = beta_dnf_probability(&f, &[rat(1, 2), rat(1, 3), rat(1, 5)]);
        assert_eq!(p, Some(rat(1, 30)));
    }

    #[test]
    fn disjunction_of_independent_clauses() {
        // x ∨ y: 1 − (1/2)(2/3) = 2/3.
        let f = Dnf::new(2, vec![vec![0], vec![1]]);
        assert_eq!(
            beta_dnf_probability(&f, &[rat(1, 2), rat(1, 3)]),
            Some(rat(2, 3))
        );
    }

    #[test]
    fn nested_clauses_are_absorbed() {
        // x ∨ (x ∧ y) ≡ x.
        let f = Dnf::new(2, vec![vec![0], vec![0, 1]]);
        assert_eq!(
            beta_dnf_probability(&f, &[rat(2, 7), rat(1, 3)]),
            Some(rat(2, 7))
        );
    }

    #[test]
    fn shared_variable_chain() {
        // (x∧y) ∨ (y∧z) = y ∧ (x ∨ z): p_y (1 − q_x q_z).
        let f = Dnf::new(3, vec![vec![0, 1], vec![1, 2]]);
        let (px, py, pz) = (rat(1, 2), rat(1, 3), rat(1, 5));
        let expect = py.mul(&px.one_minus().mul(&pz.one_minus()).one_minus());
        assert_eq!(beta_dnf_probability(&f, &[px, py, pz]), Some(expect));
    }

    #[test]
    fn certain_and_impossible_variables() {
        let f = Dnf::new(2, vec![vec![0, 1]]);
        assert_eq!(
            beta_dnf_probability(&f, &[rat(1, 1), rat(1, 3)]),
            Some(rat(1, 3))
        );
        assert_eq!(
            beta_dnf_probability(&f, &[rat(0, 1), rat(1, 3)]),
            Some(Rational::zero())
        );
    }

    #[test]
    fn valid_and_falsum() {
        let t = Dnf::new(2, vec![vec![]]);
        assert_eq!(
            beta_dnf_probability(&t, &[rat(1, 2), rat(1, 2)]),
            Some(Rational::one())
        );
        let f = Dnf::falsum(2);
        assert_eq!(
            beta_dnf_probability(&f, &[rat(1, 2), rat(1, 2)]),
            Some(Rational::zero())
        );
    }

    #[test]
    fn non_beta_acyclic_is_rejected() {
        let f = Dnf::new(3, vec![vec![0, 1], vec![1, 2], vec![0, 2]]);
        assert_eq!(
            beta_dnf_probability(&f, &[rat(1, 2), rat(1, 2), rat(1, 2)]),
            None
        );
    }

    #[test]
    fn wrong_order_is_reported() {
        // The chain {0,1} ⊂ {0,1,2} makes 2 a β-leaf... and 0,1 as well
        // actually; build a case where a middle variable is not a leaf:
        // {0,1}, {1,2}: eliminating 1 first must fail.
        let f = Dnf::new(3, vec![vec![0, 1], vec![1, 2]]);
        let half = vec![rat(1, 2); 3];
        let r = beta_dnf_probability_with_order(&f, &half, &[1, 0, 2]);
        assert_eq!(r, Err(BetaError::NotABetaLeaf(1)));
        // And an incomplete order is reported too.
        let r = beta_dnf_probability_with_order(&f, &half, &[0, 2]);
        assert_eq!(r, Err(BetaError::IncompleteOrder));
    }

    #[test]
    fn interval_lineage_shape() {
        // The Prop 4.11 shape: intervals on a path of 6 edges.
        let f = Dnf::new(
            6,
            vec![vec![0, 1, 2], vec![1, 2, 3], vec![3, 4, 5], vec![2, 3]],
        );
        let probs: Vec<Rational> = (1..=6).map(|i| rat(i, 7)).collect();
        let expect = f.probability_brute_force(&probs);
        // Left-to-right order must be valid.
        let p = beta_dnf_probability_with_order(&f, &probs, &[0, 1, 2, 3, 4, 5]).unwrap();
        assert_eq!(p, expect);
        // And greedy discovery agrees.
        assert_eq!(beta_dnf_probability(&f, &probs), Some(expect));
    }

    /// Random β-acyclic DNFs (interval hypergraphs are always β-acyclic)
    /// against brute force, in both exact and float arithmetic.
    #[test]
    fn random_interval_dnfs_match_brute_force() {
        let mut rng = SmallRng::seed_from_u64(0xbeef);
        for _ in 0..300 {
            let n = rng.gen_range(1..10);
            let n_clauses = rng.gen_range(1..6);
            let mut clauses = Vec::new();
            for _ in 0..n_clauses {
                let a = rng.gen_range(0..n);
                let b = rng.gen_range(a..n.min(a + 4));
                clauses.push((a..=b).collect::<Vec<_>>());
            }
            let f = Dnf::new(n, clauses);
            let probs: Vec<Rational> = (0..n).map(|_| rat(rng.gen_range(0..=4), 4)).collect();
            let expect = f.probability_brute_force(&probs);
            let got = beta_dnf_probability(&f, &probs).expect("interval hypergraphs are β-acyclic");
            assert_eq!(got, expect, "dnf={f:?} probs={probs:?}");
            // Float mode agrees.
            let fp: Vec<f64> = probs.iter().map(Rational::to_f64).collect();
            let gotf = beta_dnf_probability(&f, &fp).unwrap();
            assert!((gotf - expect.to_f64()).abs() < 1e-9);
        }
    }

    /// Random *nested-chain forest* DNFs (the Prop 4.10 shape: root-to-node
    /// paths in a tree) against brute force.
    #[test]
    fn random_tree_path_dnfs_match_brute_force() {
        let mut rng = SmallRng::seed_from_u64(0xf00d);
        for _ in 0..300 {
            // Random tree on variables: var v has parent p(v) < v; clauses
            // are paths from random nodes up to random ancestors.
            let n = rng.gen_range(2..10);
            let parent: Vec<usize> = (1..n).map(|v| rng.gen_range(0..v)).collect();
            let mut clauses = Vec::new();
            for _ in 0..rng.gen_range(1..6) {
                let mut v = rng.gen_range(1..n);
                let mut clause = Vec::new();
                let len = rng.gen_range(1..4);
                // Edge "v" stands for the edge parent(v) → v.
                for _ in 0..len {
                    clause.push(v);
                    if v == 0 {
                        break;
                    }
                    let p = if v == 0 { 0 } else { parent[v - 1] };
                    if p == 0 {
                        break;
                    }
                    v = p;
                }
                clauses.push(clause);
            }
            let f = Dnf::new(n, clauses);
            let probs: Vec<Rational> = (0..n).map(|_| rat(rng.gen_range(0..=3), 3)).collect();
            let expect = f.probability_brute_force(&probs);
            if let Some(got) = beta_dnf_probability(&f, &probs) {
                assert_eq!(got, expect, "dnf={f:?}");
            } else {
                panic!("tree-path DNFs are β-acyclic: {f:?}");
            }
        }
    }

    #[test]
    fn all_half_probabilities_count_models() {
        // With all probabilities 1/2, Pr(φ)·2ⁿ = #models.
        let f = Dnf::new(4, vec![vec![0, 1], vec![1, 2], vec![2, 3]]);
        let probs = vec![rat(1, 2); 4];
        let p = beta_dnf_probability(&f, &probs).unwrap();
        let mut models = 0u64;
        for mask in 0u64..16 {
            let val: Vec<bool> = (0..4).map(|v| mask >> v & 1 == 1).collect();
            if f.eval(&val) {
                models += 1;
            }
        }
        assert_eq!(p.mul(&rat(16, 1)), rat(models, 1));
    }
}
