//! [`FlatArena`]: the compiled-cone view of the engine's one slab loop.
//!
//! The engine evaluates every smooth d-DNNF pass with one loop over an
//! `(ops, operands)` slab (see [`engine`](crate::engine)). An
//! [`Arena`]'s store is one such slab: the *build* representation, with
//! interned gates, a structural-hash table and build scratch, evaluated
//! whole. `FlatArena::compile` produces the other: the union of the
//! requested roots' cones, with gates outside the cones dropped and the
//! survivors renumbered densely in their topological order. A compiled
//! cone is smaller than the store it came from, can be evaluated many
//! times, and charges a metered pass exactly one gate per retained op.
//!
//! Because compilation keeps every retained op's relative order and its
//! operand order, a cone answers bit for bit what the whole store
//! answers at the same roots. [`FlatArena::eval_f64_many`] is the
//! raw-speed tier, [`FlatArena::eval_err_many`] the certified tier over
//! [`ErrF64`] (value + running error bound), and
//! [`FlatArena::eval_many`] serves any [`Weight`], exact
//! [`Rational`](phom_num::Rational)s included. All take a caller-owned
//! value slab, so repeated evaluations allocate nothing beyond the
//! returned answers.

use crate::engine::{eval_slab, weight_leaf, Arena, Gate, GateId, Op};
use crate::meter::{Meter, MeterStop, Unmetered, WorkMeter};
use phom_num::{ErrF64, Weight};

/// A compiled, cone-restricted, topologically ordered evaluation plan
/// for a set of roots over one [`Arena`]. See the module docs.
#[derive(Clone, Debug)]
pub struct FlatArena {
    num_vars: usize,
    ops: Vec<Op>,
    /// Operand indices point at *slab slots* (dense, cone-local), not
    /// arena gate ids.
    operands: Vec<u32>,
    /// Slab slot of each requested root, in the caller's order.
    roots: Vec<u32>,
}

impl FlatArena {
    /// Compiles the union of the `roots` cones of `arena` into a flat
    /// slab. Gates unreachable from `roots` are dropped; the survivors
    /// keep their relative (topological) order under dense new ids.
    pub fn compile(arena: &Arena, roots: &[GateId]) -> FlatArena {
        let n = arena.n_gates();
        let mut live = vec![false; n];
        for &r in roots {
            live[r] = true;
        }
        // Ids are topological, so one descending sweep marks every cone.
        for i in (0..n).rev() {
            if !live[i] {
                continue;
            }
            if let Gate::And(kids) | Gate::Or(kids) = arena.gate(i) {
                for c in kids {
                    live[c] = true;
                }
            }
        }
        let mut slot = vec![u32::MAX; n];
        let mut ops = Vec::new();
        let mut operands: Vec<u32> = Vec::new();
        for i in 0..n {
            if !live[i] {
                continue;
            }
            let op = match arena.gate(i) {
                Gate::Const(b) => Op::Const(b),
                Gate::Var(v) => Op::Var(v as u32),
                Gate::NegVar(v) => Op::NegVar(v as u32),
                Gate::And(kids) => {
                    let start = operands.len() as u32;
                    let len = kids.len() as u32;
                    operands.extend(kids.map(|c| slot[c]));
                    Op::And { start, len }
                }
                Gate::Or(kids) => {
                    let start = operands.len() as u32;
                    let len = kids.len() as u32;
                    operands.extend(kids.map(|c| slot[c]));
                    Op::Or { start, len }
                }
            };
            slot[i] = ops.len() as u32;
            ops.push(op);
        }
        FlatArena {
            num_vars: arena.num_vars(),
            ops,
            operands,
            roots: roots.iter().map(|&r| slot[r]).collect(),
        }
    }

    /// Number of variables of the source arena (the required length of
    /// every `prob_true` slice).
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Number of retained (cone-reachable) operations.
    pub fn n_ops(&self) -> usize {
        self.ops.len()
    }

    /// Number of roots this plan answers.
    pub fn n_roots(&self) -> usize {
        self.roots.len()
    }

    /// Runs the engine's slab loop over the compiled cone into `values`
    /// and returns the root values in the compiled order.
    fn run<W: Weight, M: Meter>(
        &self,
        prob_true: &[W],
        values: &mut Vec<W>,
        meter: &mut M,
    ) -> Result<Vec<W>, M::Stop> {
        assert_eq!(prob_true.len(), self.num_vars);
        eval_slab(
            &self.ops,
            &self.operands,
            weight_leaf(prob_true),
            meter,
            values,
        )?;
        Ok(self
            .roots
            .iter()
            .map(|&r| values[r as usize].clone())
            .collect())
    }

    /// Root probabilities over any [`Weight`]: evaluates every retained
    /// op bottom-up into `values` (contents reused as scratch) and
    /// returns the root values in the compiled order. Negative literals
    /// use [`Weight::complement`].
    pub fn eval_many<W: Weight>(&self, prob_true: &[W], values: &mut Vec<W>) -> Vec<W> {
        let Ok(out) = self.run(prob_true, values, &mut Unmetered);
        out
    }

    /// [`FlatArena::eval_many`] under a cooperative [`WorkMeter`]: the
    /// same loop, arithmetic and order, with every op charged as one
    /// gate; it stops with the [`MeterStop`] the moment a gate/time
    /// budget or deadline trips.
    pub fn eval_many_metered<W: Weight>(
        &self,
        prob_true: &[W],
        values: &mut Vec<W>,
        meter: &mut WorkMeter,
    ) -> Result<Vec<W>, MeterStop> {
        self.run(prob_true, values, meter)
    }

    /// The raw-speed tier: root probabilities over plain `f64`
    /// (uncertified — error grows with circuit depth).
    pub fn eval_f64_many(&self, prob_true: &[f64], values: &mut Vec<f64>) -> Vec<f64> {
        self.eval_many(prob_true, values)
    }

    /// The certified tier: root probabilities over
    /// [`ErrF64`], each carrying a rigorous absolute
    /// error bound accumulated through every gate.
    pub fn eval_err_many(&self, prob_true: &[ErrF64], values: &mut Vec<ErrF64>) -> Vec<ErrF64> {
        self.eval_many(prob_true, values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phom_num::Rational;

    /// `(x0 ∧ x1) ∨ (¬x0 ∧ x2)`, plus an unrelated gate to exercise the
    /// cone restriction.
    fn sample() -> (Arena, GateId, GateId) {
        let mut a = Arena::new(4);
        let x0 = a.var(0);
        let x1 = a.var(1);
        let nx0 = a.neg_var(0);
        let x2 = a.var(2);
        let left = a.and(&[x0, x1]);
        let right = a.and(&[nx0, x2]);
        let root = a.or(&[left, right]);
        let x3 = a.var(3);
        let unrelated = a.and(&[x3, x1]);
        (a, root, unrelated)
    }

    fn probs() -> Vec<Rational> {
        vec![
            Rational::from_ratio(1, 2),
            Rational::from_ratio(1, 3),
            Rational::from_ratio(2, 7),
            Rational::from_ratio(5, 11),
        ]
    }

    #[test]
    fn matches_the_arena_evaluator() {
        let (a, root, unrelated) = sample();
        let pf: Vec<f64> = probs().iter().map(Rational::to_f64).collect();
        let whole = a.probability_many(&[root, unrelated], &pf);
        let flat = FlatArena::compile(&a, &[root, unrelated]);
        let got = flat.eval_f64_many(&pf, &mut Vec::new());
        let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&got), bits(&whole), "{got:?} vs {whole:?}");
    }

    #[test]
    fn whole_store_and_cone_agree_bit_for_bit() {
        let (a, root, unrelated) = sample();
        let roots = [unrelated, root];
        let flat = FlatArena::compile(&a, &roots);
        let exact = probs();
        assert_eq!(
            flat.eval_many(&exact, &mut Vec::new()),
            a.probability_many(&roots, &exact)
        );
        let pf: Vec<f64> = exact.iter().map(Rational::to_f64).collect();
        let bits = |xs: Vec<f64>| xs.into_iter().map(f64::to_bits).collect::<Vec<_>>();
        assert_eq!(
            bits(flat.eval_f64_many(&pf, &mut Vec::new())),
            bits(a.probability_many(&roots, &pf))
        );
        let pe: Vec<ErrF64> = exact.iter().map(ErrF64::from_rational).collect();
        let err_bits = |xs: Vec<ErrF64>| {
            xs.iter()
                .map(|x| (x.value().to_bits(), x.abs_err_bound().to_bits()))
                .collect::<Vec<_>>()
        };
        assert_eq!(
            err_bits(flat.eval_err_many(&pe, &mut Vec::new())),
            err_bits(a.probability_many(&roots, &pe))
        );
    }

    #[test]
    fn cone_restriction_drops_dead_gates() {
        let (a, root, _) = sample();
        let flat = FlatArena::compile(&a, &[root]);
        assert!(
            flat.n_ops() < a.n_gates(),
            "{} ops vs {} gates",
            flat.n_ops(),
            a.n_gates()
        );
        assert_eq!(flat.n_roots(), 1);
        // Constants-only root: a one-op plan.
        let trivial = FlatArena::compile(&a, &[crate::engine::TRUE_GATE]);
        assert_eq!(trivial.n_ops(), 1);
        let one = trivial.eval_f64_many(&[0.0; 4], &mut Vec::new());
        assert_eq!(one, vec![1.0]);
    }

    #[test]
    fn err_tier_bounds_cover_the_exact_answer() {
        let (a, root, unrelated) = sample();
        let exact = a.probability_many(&[root, unrelated], &probs());
        let flat = FlatArena::compile(&a, &[root, unrelated]);
        let pe: Vec<ErrF64> = probs().iter().map(ErrF64::from_rational).collect();
        let got = flat.eval_err_many(&pe, &mut Vec::new());
        for (g, e) in got.iter().zip(&exact) {
            let diff = (g.value() - e.to_f64()).abs();
            assert!(
                diff <= g.abs_err_bound() + 1e-16,
                "error {diff:e} vs bound {:e}",
                g.abs_err_bound()
            );
            assert!(g.rel_err_bound() < 1e-12);
        }
    }

    #[test]
    fn scratch_reuse_is_clean() {
        let (a, root, _) = sample();
        let flat = FlatArena::compile(&a, &[root]);
        let pf: Vec<f64> = probs().iter().map(Rational::to_f64).collect();
        let mut slab = Vec::new();
        let first = flat.eval_f64_many(&pf, &mut slab);
        let again = flat.eval_f64_many(&pf, &mut slab);
        assert_eq!(first, again);
        assert!(slab.capacity() >= flat.n_ops());
    }

    #[test]
    fn metered_eval_matches_unmetered_and_trips_on_budget() {
        let (a, root, unrelated) = sample();
        let flat = FlatArena::compile(&a, &[root, unrelated]);
        let pf: Vec<f64> = probs().iter().map(Rational::to_f64).collect();
        let plain = flat.eval_f64_many(&pf, &mut Vec::new());
        let mut meter = WorkMeter::unbounded();
        let metered = flat
            .eval_many_metered(&pf, &mut Vec::new(), &mut meter)
            .unwrap();
        assert_eq!(plain, metered);
        assert_eq!(meter.gates_used(), flat.n_ops() as u64);

        let mut tight = WorkMeter::unbounded().with_gate_budget(1);
        let stopped = flat.eval_many_metered(&pf, &mut Vec::new(), &mut tight);
        assert_eq!(stopped, Err(MeterStop::Gates { limit: 1 }));
    }

    #[test]
    fn metered_rational_slab_charges_every_op_and_trips_on_budget() {
        let (a, root, unrelated) = sample();
        let exact = a.probability_many(&[root, unrelated], &probs());
        let flat = FlatArena::compile(&a, &[root, unrelated]);
        let mut meter = WorkMeter::unbounded();
        let metered = flat
            .eval_many_metered(&probs(), &mut Vec::new(), &mut meter)
            .unwrap();
        assert_eq!(exact, metered);
        assert_eq!(meter.gates_used(), flat.n_ops() as u64);

        let limit = flat.n_ops() as u64 - 1;
        let mut tight = WorkMeter::unbounded().with_gate_budget(limit);
        let stopped = flat.eval_many_metered(&probs(), &mut Vec::new(), &mut tight);
        assert_eq!(stopped, Err(MeterStop::Gates { limit }));
    }

    #[test]
    fn repeated_roots_keep_caller_order() {
        let (a, root, unrelated) = sample();
        let flat = FlatArena::compile(&a, &[unrelated, root, unrelated]);
        let pf: Vec<f64> = probs().iter().map(Rational::to_f64).collect();
        let got = flat.eval_f64_many(&pf, &mut Vec::new());
        assert_eq!(got.len(), 3);
        assert_eq!(got[0], got[2]);
        assert_ne!(got[0], got[1]);
    }
}
