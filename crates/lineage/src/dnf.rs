//! Positive DNF formulas (Definition 4.3) used as lineage representations
//! (Definition 4.6).

use phom_num::Weight;

/// A variable index.
pub type VarId = usize;

/// A positive DNF: a disjunction of clauses, each a conjunction of
/// variables.
///
/// Variables are `0..num_vars`; in lineage use they are the edge ids of the
/// probabilistic instance graph.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Dnf {
    num_vars: usize,
    clauses: Vec<Vec<VarId>>,
}

impl Dnf {
    /// Creates a DNF over `num_vars` variables with no clauses (constant
    /// false).
    pub fn falsum(num_vars: usize) -> Self {
        Dnf {
            num_vars,
            clauses: Vec::new(),
        }
    }

    /// Creates a DNF from clauses; duplicate variables within a clause are
    /// merged and clauses are kept sorted for canonicity.
    pub fn new(num_vars: usize, clauses: Vec<Vec<VarId>>) -> Self {
        let mut cs = clauses;
        for c in &mut cs {
            assert!(c.iter().all(|&v| v < num_vars), "variable out of range");
            c.sort_unstable();
            c.dedup();
        }
        Dnf {
            num_vars,
            clauses: cs,
        }
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// The clauses.
    pub fn clauses(&self) -> &[Vec<VarId>] {
        &self.clauses
    }

    /// Adds a clause.
    pub fn push_clause(&mut self, mut clause: Vec<VarId>) {
        assert!(
            clause.iter().all(|&v| v < self.num_vars),
            "variable out of range"
        );
        clause.sort_unstable();
        clause.dedup();
        self.clauses.push(clause);
    }

    /// True iff the DNF has a clause (otherwise it is constant false).
    pub fn is_satisfiable(&self) -> bool {
        // Positive DNF: any clause is satisfied by the all-true valuation.
        !self.clauses.is_empty()
    }

    /// True iff some clause is empty (constant true).
    pub fn is_valid(&self) -> bool {
        self.clauses.iter().any(Vec::is_empty)
    }

    /// Evaluates under a valuation.
    pub fn eval(&self, valuation: &[bool]) -> bool {
        assert_eq!(valuation.len(), self.num_vars);
        self.clauses.iter().any(|c| c.iter().all(|&v| valuation[v]))
    }

    /// Removes clauses that are supersets of other clauses. For a positive
    /// DNF this preserves the Boolean function and therefore its
    /// probability; the minimized DNF is what the paper's lineage
    /// constructions produce directly ("minimal matches").
    pub fn minimize(&self) -> Dnf {
        let mut kept: Vec<Vec<VarId>> = Vec::new();
        let mut sorted: Vec<&Vec<VarId>> = self.clauses.iter().collect();
        sorted.sort_by_key(|c| c.len());
        for c in sorted {
            let redundant = kept
                .iter()
                .any(|k| k.iter().all(|v| c.binary_search(v).is_ok()));
            if !redundant {
                kept.push(c.clone());
            }
        }
        Dnf {
            num_vars: self.num_vars,
            clauses: kept,
        }
    }

    /// Brute-force probability computation: sums the weights of all
    /// satisfying valuations. Exponential; the test oracle for
    /// [`crate::beta::beta_dnf_probability`].
    pub fn probability_brute_force<W: Weight>(&self, prob_true: &[W]) -> W {
        assert_eq!(prob_true.len(), self.num_vars);
        assert!(self.num_vars < 63, "too many variables for brute force");
        let mut total = W::zero();
        for mask in 0u64..(1 << self.num_vars) {
            let valuation: Vec<bool> = (0..self.num_vars).map(|v| mask >> v & 1 == 1).collect();
            if self.eval(&valuation) {
                let mut w = W::one();
                for (v, &val) in valuation.iter().enumerate() {
                    let f = if val {
                        prob_true[v].clone()
                    } else {
                        prob_true[v].complement()
                    };
                    w = w.mul(&f);
                }
                total = total.add(&w);
            }
        }
        total
    }

    /// Builds the DNF into the provenance engine as an OR-of-ANDs over
    /// `arena` and returns the root gate.
    ///
    /// The resulting circuit is NNF but **not** d-DNNF in general (clauses
    /// overlap, so the OR is not deterministic): it is valid for
    /// Boolean-semiring evaluation, witness checking, and Monte-Carlo
    /// sampling through the engine, but *not* for direct probability or
    /// model-counting passes — those route through the β-elimination of
    /// Theorem 4.9 or a d-DNNF compilation first.
    pub fn to_provenance(&self, arena: &mut crate::engine::Arena) -> crate::engine::GateId {
        assert_eq!(
            arena.num_vars(),
            self.num_vars,
            "variable spaces must match"
        );
        let mut clause_gates = Vec::with_capacity(self.clauses.len());
        let mut lits = Vec::new();
        for clause in &self.clauses {
            lits.clear();
            lits.extend(clause.iter().map(|&v| arena.var(v)));
            clause_gates.push(arena.and(&lits));
        }
        arena.or(&clause_gates)
    }

    /// The clause hypergraph `H(φ)` of Definition 4.8 (empty clauses are
    /// dropped; a DNF with an empty clause is constant true and callers
    /// handle it separately).
    pub fn hypergraph(&self) -> crate::hypergraph::Hypergraph {
        crate::hypergraph::Hypergraph::new(
            self.num_vars,
            self.clauses
                .iter()
                .filter(|c| !c.is_empty())
                .cloned()
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phom_num::Rational;

    fn rat(n: u64, d: u64) -> Rational {
        Rational::from_ratio(n, d)
    }

    #[test]
    fn eval_basics() {
        let f = Dnf::new(3, vec![vec![0, 1], vec![2]]);
        assert!(f.eval(&[true, true, false]));
        assert!(f.eval(&[false, false, true]));
        assert!(!f.eval(&[true, false, false]));
        assert!(f.is_satisfiable());
        assert!(!f.is_valid());
        assert!(!Dnf::falsum(2).is_satisfiable());
        assert!(Dnf::new(1, vec![vec![]]).is_valid());
    }

    #[test]
    fn clause_dedup() {
        let f = Dnf::new(2, vec![vec![1, 0, 1]]);
        assert_eq!(f.clauses(), &[vec![0, 1]]);
    }

    #[test]
    fn minimize_removes_supersets() {
        let f = Dnf::new(4, vec![vec![0, 1, 2], vec![0, 1], vec![3], vec![3, 0]]);
        let m = f.minimize();
        assert_eq!(m.clauses().len(), 2);
        // Same function.
        for mask in 0u64..16 {
            let val: Vec<bool> = (0..4).map(|v| mask >> v & 1 == 1).collect();
            assert_eq!(f.eval(&val), m.eval(&val));
        }
    }

    #[test]
    fn brute_force_probability_independent_clauses() {
        // x0 ∨ x1 with p0 = 1/2, p1 = 1/3: 1 − (1/2)(2/3) = 2/3.
        let f = Dnf::new(2, vec![vec![0], vec![1]]);
        let p = f.probability_brute_force(&[rat(1, 2), rat(1, 3)]);
        assert_eq!(p, rat(2, 3));
    }

    #[test]
    fn brute_force_probability_conjunction() {
        // x0 ∧ x1: 1/2 · 1/3 = 1/6.
        let f = Dnf::new(2, vec![vec![0, 1]]);
        assert_eq!(
            f.probability_brute_force(&[rat(1, 2), rat(1, 3)]),
            rat(1, 6)
        );
    }

    #[test]
    fn brute_force_handles_certain_variables() {
        // (x0 ∧ x1) with p0 = 1: just p1.
        let f = Dnf::new(2, vec![vec![0, 1]]);
        assert_eq!(
            f.probability_brute_force(&[rat(1, 1), rat(1, 3)]),
            rat(1, 3)
        );
        // p0 = 0: zero.
        assert!(f.probability_brute_force(&[rat(0, 1), rat(1, 3)]).is_zero());
    }

    #[test]
    fn falsum_and_valid_probabilities() {
        assert!(Dnf::falsum(2)
            .probability_brute_force(&[rat(1, 2), rat(1, 2)])
            .is_zero());
        let t = Dnf::new(2, vec![vec![]]);
        assert!(t.probability_brute_force(&[rat(1, 2), rat(1, 2)]).is_one());
    }

    #[test]
    fn provenance_build_matches_direct_eval() {
        let f = Dnf::new(3, vec![vec![0, 1], vec![1, 2], vec![0, 2]]);
        let mut arena = crate::engine::Arena::new(3);
        let root = f.to_provenance(&mut arena);
        for mask in 0u64..8 {
            let val: Vec<bool> = (0..3).map(|v| mask >> v & 1 == 1).collect();
            assert_eq!(arena.eval_world(root, &val), f.eval(&val), "mask {mask}");
        }
        // Degenerate shapes fold to the constant gates.
        let mut arena = crate::engine::Arena::new(2);
        assert_eq!(
            Dnf::falsum(2).to_provenance(&mut arena),
            crate::engine::FALSE_GATE
        );
        assert_eq!(
            Dnf::new(2, vec![vec![]]).to_provenance(&mut arena),
            crate::engine::TRUE_GATE
        );
    }

    #[test]
    fn f64_and_exact_agree() {
        let f = Dnf::new(3, vec![vec![0, 1], vec![1, 2], vec![0, 2]]);
        let exact = f
            .probability_brute_force(&[rat(1, 2), rat(1, 3), rat(3, 4)])
            .to_f64();
        let float = f.probability_brute_force(&[0.5f64, 1.0 / 3.0, 0.75]);
        assert!((exact - float).abs() < 1e-12);
    }
}
