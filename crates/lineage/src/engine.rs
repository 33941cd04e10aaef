//! The unified provenance engine: one arena-based IR for every Boolean
//! lineage in the workspace, and **one** smooth bottom-up evaluation
//! loop over it.
//!
//! Every tractable route ends in the same step: a d-DNNF lineage is
//! evaluated bottom-up, with products at AND gates, sums at OR gates and
//! literal weights at the leaves. That step is one loop, `eval_slab`,
//! over an `(ops, operands)` slab in topological order. The loop is
//! generic over any [`Semiring`]: probability
//! ([`Rational`](phom_num::Rational), `f64`, [`ErrF64`](phom_num::ErrF64)),
//! Boolean evaluation (`bool`), forward-mode derivatives
//! ([`Dual`](phom_num::Dual)). It reads leaf weights through a lookup
//! `(var, positive) -> S`, so a probability pass complements only the
//! literals it reaches. It charges every op to a meter: a
//! [`WorkMeter`](crate::meter::WorkMeter) for deadline'd or budget'd
//! requests, or a zero-sized unmetered one that compiles away.
//!
//! The loop runs over two views of a slab:
//!
//! * **the whole store** of an [`Arena`]: interned gates with structural
//!   hashing, fixed-size ops plus one shared operand buffer.
//!   [`Arena::probability`], [`Arena::probability_many`],
//!   [`Arena::eval_world`], the smooth case of [`Arena::eval_roots`] and
//!   the forward sweep of [`Arena::gradients`] evaluate every gate, with
//!   no cone marking and no compile;
//! * **a compiled cone**: [`FlatArena`](crate::flat::FlatArena) keeps
//!   only the gates reachable from its roots, renumbered densely. The
//!   serving engine evaluates its deferred batches and metered requests
//!   through it.
//!
//! Three other walks over the gates remain, each a different algorithm:
//! the gapped support-tracking pass (below), the gradient backward sweep,
//! and the structural checkers. [`Provenance`] is the uniform handle
//! solver routes attach to their
//! [`Solution`](../../phom_core/solver/struct.Solution.html)s, carrying a
//! circuit, its root, and its polarity.
//!
//! ## Smoothing
//!
//! d-DNNF circuits here are not smoothed: an OR gate's branches may
//! mention different variable sets. For probability this is harmless (a
//! missing variable contributes `p + (1−p) = 1`), but for a general
//! semiring the neutral contribution of a missing variable `v` is
//! `pos[v] + neg[v]` — e.g. `2` when counting models. The engine detects
//! non-unit gaps and runs a support-tracking pass that rescales OR
//! branches (and the final root value) exactly, so *model counting on
//! unsmoothed circuits is exact* ([`Natural`]).

use crate::fxhash::{FxHashMap, FxHasher};
use crate::meter::{Meter, Unmetered};
use phom_num::{Natural, Semiring, Weight};
use std::hash::{Hash, Hasher};

/// Index of a gate in an [`Arena`] (creation order = topological order).
pub type GateId = usize;

/// The gate id of constant false in every arena.
pub const FALSE_GATE: GateId = 0;
/// The gate id of constant true in every arena.
pub const TRUE_GATE: GateId = 1;

/// One operation of an evaluation slab: fixed size, operands
/// out-of-line. An [`Arena`]'s store and a
/// [`FlatArena`](crate::flat::FlatArena)'s compiled cone are both slabs
/// of these; operand indices point at earlier ops of the same slab.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Op {
    /// Constant true / false.
    Const(bool),
    /// A positive literal of variable `v`.
    Var(u32),
    /// A negative literal of variable `v`.
    NegVar(u32),
    /// Conjunction over `operands[start .. start + len]`.
    And { start: u32, len: u32 },
    /// Disjunction over `operands[start .. start + len]`.
    Or { start: u32, len: u32 },
}

/// The one smooth bottom-up loop: evaluates every op of the
/// `(ops, operands)` slab into `values` (cleared first; its capacity is
/// reused), products at AND, sums at OR, `leaf(v, positive)` at the
/// literals. Operands are folded left to right in slab order, so two
/// slabs with the same ops in the same order give bit-identical values.
/// `meter` is checked once before the first op and charged once per op.
pub(crate) fn eval_slab<S: Semiring, M: Meter>(
    ops: &[Op],
    operands: &[u32],
    leaf: impl Fn(usize, bool) -> S,
    meter: &mut M,
    values: &mut Vec<S>,
) -> Result<(), M::Stop> {
    meter.begin()?;
    values.clear();
    values.reserve(ops.len());
    for &op in ops {
        meter.charge_op()?;
        let value = match op {
            Op::Const(b) => {
                if b {
                    S::one()
                } else {
                    S::zero()
                }
            }
            Op::Var(v) => leaf(v as usize, true),
            Op::NegVar(v) => leaf(v as usize, false),
            Op::And { start, len } => {
                let kids = &operands[start as usize..(start + len) as usize];
                let mut acc = values[kids[0] as usize].clone();
                for &c in &kids[1..] {
                    acc = acc.mul(&values[c as usize]);
                }
                acc
            }
            Op::Or { start, len } => {
                let kids = &operands[start as usize..(start + len) as usize];
                let mut acc = values[kids[0] as usize].clone();
                for &c in &kids[1..] {
                    acc = acc.add(&values[c as usize]);
                }
                acc
            }
        };
        values.push(value);
    }
    Ok(())
}

/// The leaf lookup of a probability pass: `p` at a positive literal,
/// [`Weight::complement`] at a negative one.
pub(crate) fn weight_leaf<W: Weight>(prob_true: &[W]) -> impl Fn(usize, bool) -> W + '_ {
    move |v, positive| {
        if positive {
            prob_true[v].clone()
        } else {
            prob_true[v].complement()
        }
    }
}

/// A borrowed view of one gate, for consumers that need to pattern-match
/// the circuit structure (export, checkers, MPE).
#[derive(Clone, Copy, Debug)]
pub enum Gate<'a> {
    /// A positive literal of variable `v`.
    Var(usize),
    /// A negative literal of variable `v`.
    NegVar(usize),
    /// Constant true / false.
    Const(bool),
    /// Conjunction.
    And(Children<'a>),
    /// Disjunction.
    Or(Children<'a>),
}

/// Iterator/slice hybrid over a gate's children.
#[derive(Clone, Copy, Debug)]
pub struct Children<'a>(&'a [u32]);

impl Children<'_> {
    /// Number of children.
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// The `i`-th child gate.
    pub fn get(&self, i: usize) -> GateId {
        self.0[i] as GateId
    }
}

impl Iterator for Children<'_> {
    type Item = GateId;
    fn next(&mut self) -> Option<GateId> {
        let (first, rest) = self.0.split_first()?;
        self.0 = rest;
        Some(*first as GateId)
    }
    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.0.len(), Some(self.0.len()))
    }
}

impl ExactSizeIterator for Children<'_> {}

/// The arena: an interned, topologically ordered NNF circuit store.
///
/// Gate ids are creation order, children always precede parents, and
/// structurally identical gates (same kind, same children) are merged on
/// construction, so common sub-lineages are stored and evaluated once.
#[derive(Clone, Debug)]
pub struct Arena {
    num_vars: usize,
    nodes: Vec<Op>,
    children: Vec<u32>,
    /// Structural-hash interning table: hash → candidate gate ids.
    /// Fx-hashed: gate interning is the compilation hot path.
    unique: FxHashMap<u64, Vec<u32>>,
    /// Scratch buffer for child canonicalization (kept to avoid per-gate
    /// allocations while building).
    scratch: Vec<u32>,
}

impl Default for Arena {
    fn default() -> Self {
        Arena::new(0)
    }
}

impl Arena {
    /// An arena over `num_vars` variables, pre-seeded with the two
    /// constant gates ([`FALSE_GATE`], [`TRUE_GATE`]).
    pub fn new(num_vars: usize) -> Self {
        let mut arena = Arena {
            num_vars,
            nodes: Vec::with_capacity(16),
            children: Vec::new(),
            unique: FxHashMap::default(),
            scratch: Vec::new(),
        };
        let f = arena.intern(Op::Const(false), &[]);
        let t = arena.intern(Op::Const(true), &[]);
        debug_assert_eq!((f, t), (FALSE_GATE, TRUE_GATE));
        arena
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Number of gates (constants included).
    pub fn n_gates(&self) -> usize {
        self.nodes.len()
    }

    /// Total number of wires (sum of fan-ins), a standard size measure.
    pub fn n_wires(&self) -> usize {
        self.children.len()
    }

    /// The gate with id `g`, as a pattern-matchable view.
    pub fn gate(&self, g: GateId) -> Gate<'_> {
        match self.nodes[g] {
            Op::Const(b) => Gate::Const(b),
            Op::Var(v) => Gate::Var(v as usize),
            Op::NegVar(v) => Gate::NegVar(v as usize),
            Op::And { start, len } => Gate::And(Children(
                &self.children[start as usize..(start + len) as usize],
            )),
            Op::Or { start, len } => Gate::Or(Children(
                &self.children[start as usize..(start + len) as usize],
            )),
        }
    }

    /// Iterates `(id, gate)` in bottom-up (topological) order.
    pub fn gates(&self) -> impl Iterator<Item = (GateId, Gate<'_>)> {
        (0..self.nodes.len()).map(|g| (g, self.gate(g)))
    }

    fn hash_node(kind_tag: u8, payload: u32, kids: &[u32]) -> u64 {
        let mut h = FxHasher::default();
        kind_tag.hash(&mut h);
        payload.hash(&mut h);
        kids.hash(&mut h);
        h.finish()
    }

    fn node_matches(&self, id: u32, kind_tag: u8, payload: u32, kids: &[u32]) -> bool {
        match (kind_tag, self.nodes[id as usize]) {
            (0, Op::Const(b)) => payload == b as u32,
            (1, Op::Var(v)) => payload == v,
            (2, Op::NegVar(v)) => payload == v,
            (3, Op::And { start, len }) | (4, Op::Or { start, len }) => {
                (kind_tag == 3) == matches!(self.nodes[id as usize], Op::And { .. })
                    && &self.children[start as usize..(start + len) as usize] == kids
            }
            _ => false,
        }
    }

    fn intern(&mut self, kind: Op, kids: &[u32]) -> GateId {
        let (tag, payload) = match kind {
            Op::Const(b) => (0u8, b as u32),
            Op::Var(v) => (1, v),
            Op::NegVar(v) => (2, v),
            Op::And { .. } => (3, 0),
            Op::Or { .. } => (4, 0),
        };
        let h = Self::hash_node(tag, payload, kids);
        if let Some(candidates) = self.unique.get(&h) {
            for &id in candidates {
                if self.node_matches(id, tag, payload, kids) {
                    return id as GateId;
                }
            }
        }
        let id = self.nodes.len();
        assert!(id <= u32::MAX as usize, "arena gate limit exceeded");
        let kind = match kind {
            Op::And { .. } => {
                let start = self.children.len() as u32;
                self.children.extend_from_slice(kids);
                Op::And {
                    start,
                    len: kids.len() as u32,
                }
            }
            Op::Or { .. } => {
                let start = self.children.len() as u32;
                self.children.extend_from_slice(kids);
                Op::Or {
                    start,
                    len: kids.len() as u32,
                }
            }
            other => other,
        };
        self.nodes.push(kind);
        self.unique.entry(h).or_default().push(id as u32);
        id
    }

    /// A constant gate (returns the pre-seeded id).
    pub fn constant(&mut self, b: bool) -> GateId {
        if b {
            TRUE_GATE
        } else {
            FALSE_GATE
        }
    }

    /// The positive literal of variable `v` (interned: one gate per
    /// variable arena-wide).
    pub fn var(&mut self, v: usize) -> GateId {
        assert!(v < self.num_vars, "variable {v} out of range");
        self.intern(Op::Var(v as u32), &[])
    }

    /// The negative literal of variable `v`.
    pub fn neg_var(&mut self, v: usize) -> GateId {
        assert!(v < self.num_vars, "variable {v} out of range");
        self.intern(Op::NegVar(v as u32), &[])
    }

    /// An AND gate over `children` (callers must ensure decomposability
    /// for d-DNNF semantics). Simplifies constants, collapses duplicate
    /// and single children, and interns the result.
    pub fn and_gate(&mut self, children: Vec<GateId>) -> GateId {
        self.and(&children)
    }

    /// Slice-based variant of [`Arena::and_gate`].
    pub fn and(&mut self, children: &[GateId]) -> GateId {
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.clear();
        for &c in children {
            debug_assert!(c < self.nodes.len(), "child gate out of range");
            match c {
                FALSE_GATE => {
                    self.scratch = scratch;
                    return FALSE_GATE;
                }
                TRUE_GATE => {}
                _ => scratch.push(c as u32),
            }
        }
        scratch.sort_unstable();
        scratch.dedup();
        let out = match scratch.as_slice() {
            [] => TRUE_GATE,
            [only] => *only as GateId,
            kids => self.intern(Op::And { start: 0, len: 0 }, kids),
        };
        self.scratch = scratch;
        out
    }

    /// An OR gate over `children` (callers must ensure determinism for
    /// d-DNNF probability semantics). Simplifies like [`Arena::and_gate`].
    pub fn or_gate(&mut self, children: Vec<GateId>) -> GateId {
        self.or(&children)
    }

    /// Slice-based variant of [`Arena::or_gate`].
    pub fn or(&mut self, children: &[GateId]) -> GateId {
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.clear();
        for &c in children {
            debug_assert!(c < self.nodes.len(), "child gate out of range");
            match c {
                TRUE_GATE => {
                    self.scratch = scratch;
                    return TRUE_GATE;
                }
                FALSE_GATE => {}
                _ => scratch.push(c as u32),
            }
        }
        scratch.sort_unstable();
        scratch.dedup();
        let out = match scratch.as_slice() {
            [] => FALSE_GATE,
            [only] => *only as GateId,
            kids => self.intern(Op::Or { start: 0, len: 0 }, kids),
        };
        self.scratch = scratch;
        out
    }

    // ------------------------------------------------------------------
    // Evaluation: the whole-store view of the one slab loop.
    // ------------------------------------------------------------------

    /// Forward values of every gate: [`eval_slab`] over the whole store.
    fn forward<S: Semiring>(&self, leaf: impl Fn(usize, bool) -> S) -> Vec<S> {
        let mut values = Vec::new();
        let Ok(()) = eval_slab(
            &self.nodes,
            &self.children,
            leaf,
            &mut Unmetered,
            &mut values,
        );
        values
    }

    /// Evaluates every root in one bottom-up pass over the shared arena.
    ///
    /// `pos[v]` / `neg[v]` are the semiring weights of the positive and
    /// negative literal of variable `v`. For circuits with d-DNNF
    /// structure this computes, per root, the weighted sum over
    /// satisfying total valuations of the product of literal weights —
    /// probability, model count, Boolean value, or dual-number pair,
    /// depending on `S`. Unsmoothed circuits are handled exactly (see the
    /// module docs).
    ///
    /// Evaluating `k` roots costs one pass, not `k` — the hook for
    /// batched multi-query evaluation.
    ///
    /// The smooth pass runs only when every `pos[v] + neg[v]` is
    /// *exactly* the semiring one; with `f64` weights, floating-point
    /// complements may miss that test and fall back to the (correct but
    /// slower) support-tracking pass. Probability callers should prefer
    /// [`Arena::probability`] / [`Arena::probability_many`], which assume
    /// smoothness by construction.
    pub fn eval_roots<S: Semiring>(&self, roots: &[GateId], pos: &[S], neg: &[S]) -> Vec<S> {
        assert_eq!(
            pos.len(),
            self.num_vars,
            "pos weights must cover all variables"
        );
        assert_eq!(
            neg.len(),
            self.num_vars,
            "neg weights must cover all variables"
        );
        // Smoothness is the overwhelmingly common case; test it without
        // materializing the gap vector (allocated only when needed).
        if pos.iter().zip(neg).all(|(p, n)| p.add(n).is_one()) {
            let values = self.forward(|v, positive| {
                if positive {
                    pos[v].clone()
                } else {
                    neg[v].clone()
                }
            });
            roots.iter().map(|&r| values[r].clone()).collect()
        } else {
            let gaps: Vec<S> = pos.iter().zip(neg).map(|(p, n)| p.add(n)).collect();
            self.eval_gapped(roots, pos, neg, &gaps)
        }
    }

    /// Single-root convenience over [`Arena::eval_roots`].
    pub fn eval_root<S: Semiring>(&self, root: GateId, pos: &[S], neg: &[S]) -> S {
        self.eval_roots(&[root], pos, neg)
            .pop()
            .expect("one root in, one value out")
    }

    /// `Pr[root is true]` when variable `v` is independently true with
    /// probability `prob_true[v]`, assuming d-DNNF structure. Skips the
    /// smoothing machinery outright: `p + (1 − p) = 1` by construction.
    pub fn probability<W: Weight>(&self, root: GateId, prob_true: &[W]) -> W {
        self.probability_many(&[root], prob_true)
            .pop()
            .expect("one root")
    }

    /// Batched probabilities for many roots over the shared arena in a
    /// single whole-store pass, assuming d-DNNF structure. Like
    /// [`Arena::probability`] it bypasses the smoothing gap check
    /// (`p + (1 − p) = 1` by construction), so `f64` weights stay on the
    /// fast path. To evaluate a few roots of a big shared arena, or the
    /// same roots many times, compile their cone into a
    /// [`FlatArena`](crate::flat::FlatArena) instead.
    pub fn probability_many<W: Weight>(&self, roots: &[GateId], prob_true: &[W]) -> Vec<W> {
        assert_eq!(prob_true.len(), self.num_vars);
        let values = self.forward(weight_leaf(prob_true));
        roots.iter().map(|&r| values[r].clone()).collect()
    }

    /// Evaluates the circuit as a Boolean function under a valuation
    /// (the Boolean-semiring instantiation of the engine).
    pub fn eval_world(&self, root: GateId, valuation: &[bool]) -> bool {
        assert_eq!(valuation.len(), self.num_vars);
        self.forward(|v, positive| valuation[v] == positive)[root]
    }

    /// The gapped pass: the bottom-up fold with support bitsets, rescaling
    /// OR branches (and finally each root) by the gaps of the variables
    /// they do not mention (exact counting on unsmoothed circuits).
    fn eval_gapped<S: Semiring>(
        &self,
        roots: &[GateId],
        pos: &[S],
        neg: &[S],
        gaps: &[S],
    ) -> Vec<S> {
        let n = self.nodes.len();
        let mut values: Vec<S> = Vec::with_capacity(n);
        let words = self.num_vars.div_ceil(64);
        let mut supports: Vec<u64> = vec![0; n * words];
        for (i, node) in self.nodes.iter().enumerate() {
            let value = match *node {
                Op::Const(b) => {
                    if b {
                        S::one()
                    } else {
                        S::zero()
                    }
                }
                Op::Var(v) => {
                    supports[i * words + (v as usize) / 64] |= 1u64 << (v % 64);
                    pos[v as usize].clone()
                }
                Op::NegVar(v) => {
                    supports[i * words + (v as usize) / 64] |= 1u64 << (v % 64);
                    neg[v as usize].clone()
                }
                Op::And { start, len } => {
                    let kids = &self.children[start as usize..(start + len) as usize];
                    for &c in kids {
                        let (dst, src) = split_rows(&mut supports, i, c as usize, words);
                        for (d, s) in dst.iter_mut().zip(src) {
                            *d |= *s;
                        }
                    }
                    let mut acc = values[kids[0] as usize].clone();
                    for &c in &kids[1..] {
                        acc = acc.mul(&values[c as usize]);
                    }
                    acc
                }
                Op::Or { start, len } => {
                    let kids = &self.children[start as usize..(start + len) as usize];
                    for &c in kids {
                        let (dst, src) = split_rows(&mut supports, i, c as usize, words);
                        for (d, s) in dst.iter_mut().zip(src) {
                            *d |= *s;
                        }
                    }
                    let mut acc = S::zero();
                    for &c in kids {
                        // Rescale the branch by the gap of every variable
                        // the OR mentions but the branch does not (exact
                        // smoothing on the fly).
                        let mut term = values[c as usize].clone();
                        for w in 0..words {
                            let mut missing =
                                supports[i * words + w] & !supports[c as usize * words + w];
                            while missing != 0 {
                                let v = w * 64 + missing.trailing_zeros() as usize;
                                term = term.mul(&gaps[v]);
                                missing &= missing - 1;
                            }
                        }
                        acc = acc.add(&term);
                    }
                    acc
                }
            };
            values.push(value);
        }
        roots
            .iter()
            .map(|&r| {
                // Scale by the gaps of variables outside the root's
                // support, so every root's value ranges over all
                // `num_vars` variables.
                let mut out = values[r].clone();
                for w in 0..words {
                    let full = if (w + 1) * 64 <= self.num_vars {
                        u64::MAX
                    } else {
                        (1u64 << (self.num_vars - w * 64)) - 1
                    };
                    let mut missing = full & !supports[r * words + w];
                    while missing != 0 {
                        let v = w * 64 + missing.trailing_zeros() as usize;
                        out = out.mul(&gaps[v]);
                        missing &= missing - 1;
                    }
                }
                out
            })
            .collect()
    }

    /// All partial derivatives `∂ value(root) / ∂ p_v` in one forward plus
    /// one backward sweep, assuming d-DNNF probability semantics. Products
    /// over AND-siblings use prefix/suffix products, so no division is
    /// performed and zero weights are exact.
    pub fn gradients<W: Weight>(&self, root: GateId, prob_true: &[W]) -> Vec<W> {
        assert_eq!(prob_true.len(), self.num_vars);
        let values = self.forward(weight_leaf(prob_true));
        let mut d: Vec<W> = vec![W::zero(); self.nodes.len()];
        d[root] = W::one();
        let mut grad = vec![W::zero(); self.num_vars];
        for i in (0..self.nodes.len()).rev() {
            if d[i].is_zero() {
                continue;
            }
            match self.nodes[i] {
                Op::Const(_) => {}
                Op::Var(v) => grad[v as usize] = grad[v as usize].add(&d[i]),
                Op::NegVar(v) => grad[v as usize] = grad[v as usize].sub(&d[i]),
                Op::Or { start, len } => {
                    for &c in &self.children[start as usize..(start + len) as usize] {
                        d[c as usize] = d[c as usize].add(&d[i]);
                    }
                }
                Op::And { start, len } => {
                    let kids = &self.children[start as usize..(start + len) as usize];
                    let k = kids.len();
                    let mut prefix = Vec::with_capacity(k + 1);
                    prefix.push(W::one());
                    for &c in kids {
                        let last = prefix.last().expect("non-empty").mul(&values[c as usize]);
                        prefix.push(last);
                    }
                    let mut suffix = W::one();
                    for j in (0..k).rev() {
                        let contrib = d[i].mul(&prefix[j]).mul(&suffix);
                        let c = kids[j] as usize;
                        d[c] = d[c].add(&contrib);
                        suffix = suffix.mul(&values[c]);
                    }
                }
            }
        }
        grad
    }

    // ------------------------------------------------------------------
    // Structural checkers (not evaluators: they validate d-DNNF-ness).
    // ------------------------------------------------------------------

    /// Structurally checks decomposability: children of every AND gate
    /// depend on pairwise-disjoint variable sets.
    pub fn check_decomposable(&self) -> bool {
        let words = self.num_vars.div_ceil(64);
        let mut deps: Vec<u64> = vec![0; self.nodes.len() * words];
        for (i, node) in self.nodes.iter().enumerate() {
            match *node {
                Op::Const(_) => {}
                Op::Var(v) | Op::NegVar(v) => {
                    deps[i * words + (v as usize) / 64] |= 1u64 << (v % 64);
                }
                Op::And { start, len } => {
                    for &c in &self.children[start as usize..(start + len) as usize] {
                        let (dst, src) = split_rows(&mut deps, i, c as usize, words);
                        for (d, s) in dst.iter_mut().zip(src) {
                            if *d & *s != 0 {
                                return false; // overlapping children
                            }
                            *d |= *s;
                        }
                    }
                }
                Op::Or { start, len } => {
                    for &c in &self.children[start as usize..(start + len) as usize] {
                        let (dst, src) = split_rows(&mut deps, i, c as usize, words);
                        for (d, s) in dst.iter_mut().zip(src) {
                            *d |= *s;
                        }
                    }
                }
            }
        }
        true
    }

    /// Checks determinism *under one valuation*: at every OR gate, at most
    /// one child evaluates to true. Exhaustive or sampled application of
    /// this check is how the tests validate determinism (the general
    /// problem is coNP-hard).
    pub fn check_deterministic_under(&self, valuation: &[bool]) -> bool {
        assert_eq!(valuation.len(), self.num_vars);
        let mut val = vec![false; self.nodes.len()];
        for (i, node) in self.nodes.iter().enumerate() {
            val[i] = match *node {
                Op::Const(b) => b,
                Op::Var(v) => valuation[v as usize],
                Op::NegVar(v) => !valuation[v as usize],
                Op::And { start, len } => self.children[start as usize..(start + len) as usize]
                    .iter()
                    .all(|&c| val[c as usize]),
                Op::Or { start, len } => {
                    let kids = &self.children[start as usize..(start + len) as usize];
                    if kids.iter().filter(|&&c| val[c as usize]).count() > 1 {
                        return false;
                    }
                    kids.iter().any(|&c| val[c as usize])
                }
            };
        }
        true
    }
}

/// Borrows two disjoint `words`-sized rows of a flattened bitset matrix.
fn split_rows(bits: &mut [u64], dst: usize, src: usize, words: usize) -> (&mut [u64], &[u64]) {
    debug_assert_ne!(dst, src);
    if dst > src {
        let (lo, hi) = bits.split_at_mut(dst * words);
        (&mut hi[..words], &lo[src * words..src * words + words])
    } else {
        let (lo, hi) = bits.split_at_mut(src * words);
        (&mut lo[dst * words..dst * words + words], &hi[..words])
    }
}

/// How a variable enters a model-counting query.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum VarStatus {
    /// The variable ranges over both values (counted).
    Free,
    /// The variable is pinned to a fixed value (not counted).
    Pinned(bool),
}

/// The uniform provenance handle a solver route attaches to its solution:
/// a circuit over the instance's edge variables, the root gate, and the
/// polarity (`negated` routes compile the *complement* event, mirroring
/// how Theorem 4.9 computes `1 − Pr(¬φ)`).
#[derive(Clone, Debug)]
pub struct Provenance {
    /// The compiled lineage circuit (d-DNNF for all producing routes).
    pub circuit: Arena,
    /// The root gate of the lineage.
    pub root: GateId,
    /// When true, the circuit computes the complement of the query event.
    pub negated: bool,
}

impl Provenance {
    /// A provenance handle for the positive event at `root`.
    pub fn positive(circuit: Arena, root: GateId) -> Self {
        Provenance {
            circuit,
            root,
            negated: false,
        }
    }

    /// A provenance handle whose circuit computes the complement event.
    pub fn complemented(circuit: Arena, root: GateId) -> Self {
        Provenance {
            circuit,
            root,
            negated: true,
        }
    }

    /// `Pr[the query event]` under independent literal probabilities.
    pub fn probability<W: Weight>(&self, prob_true: &[W]) -> W {
        let p = self.circuit.probability(self.root, prob_true);
        if self.negated {
            p.complement()
        } else {
            p
        }
    }

    /// Whether the query event holds in one possible world.
    pub fn holds_in(&self, world: &[bool]) -> bool {
        self.circuit.eval_world(self.root, world) != self.negated
    }

    /// All edge influences `∂ Pr[event] / ∂ p_v` (one engine forward +
    /// backward sweep; negation flips every sign).
    pub fn gradients<W: Weight>(&self, prob_true: &[W]) -> Vec<W> {
        let mut g = self.circuit.gradients(self.root, prob_true);
        if self.negated {
            for gi in &mut g {
                *gi = W::zero().sub(gi);
            }
        }
        g
    }

    /// Counts the worlds (over the `Free` variables; `Pinned` ones are
    /// fixed, not counted) in which the query event holds — the
    /// [`Natural`]-semiring instantiation of the engine.
    pub fn count_worlds(&self, status: &[VarStatus]) -> Natural {
        assert_eq!(status.len(), self.circuit.num_vars());
        let pos: Vec<Natural> = status
            .iter()
            .map(|s| match s {
                VarStatus::Pinned(false) => Natural::zero(),
                _ => Natural::one(),
            })
            .collect();
        let neg: Vec<Natural> = status
            .iter()
            .map(|s| match s {
                VarStatus::Pinned(true) => Natural::zero(),
                _ => Natural::one(),
            })
            .collect();
        let raw = self.circuit.eval_root(self.root, &pos, &neg);
        if self.negated {
            let free = status
                .iter()
                .filter(|s| matches!(s, VarStatus::Free))
                .count();
            let total = Natural::one().shl(free as u32);
            total
                .checked_sub(&raw)
                .expect("complement count cannot exceed world count")
        } else {
            raw
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flat::FlatArena;
    use phom_num::{Dual, Rational};

    fn rat(n: u64, d: u64) -> Rational {
        Rational::from_ratio(n, d)
    }

    /// (x ∧ ¬y) ∨ (¬x ∧ y), the textbook smooth d-DNNF.
    fn xor_arena() -> (Arena, GateId) {
        let mut a = Arena::new(2);
        let x = a.var(0);
        let nx = a.neg_var(0);
        let y = a.var(1);
        let ny = a.neg_var(1);
        let l = a.and(&[x, ny]);
        let r = a.and(&[nx, y]);
        let root = a.or(&[l, r]);
        (a, root)
    }

    #[test]
    fn interning_merges_identical_gates() {
        let mut a = Arena::new(3);
        let x1 = a.var(0);
        let x2 = a.var(0);
        assert_eq!(x1, x2);
        let y = a.var(1);
        let g1 = a.and(&[x1, y]);
        let g2 = a.and(&[y, x2]); // different order, same gate
        assert_eq!(g1, g2);
        let o1 = a.or(&[g1, x1]);
        let o2 = a.or(&[x2, g2]);
        assert_eq!(o1, o2);
    }

    #[test]
    fn constant_simplification() {
        let mut a = Arena::new(2);
        let x = a.var(0);
        let t = a.constant(true);
        let f = a.constant(false);
        assert_eq!(a.and(&[x, t]), x);
        assert_eq!(a.and(&[x, f]), FALSE_GATE);
        assert_eq!(a.or(&[x, f]), x);
        assert_eq!(a.or(&[x, t]), TRUE_GATE);
        assert_eq!(a.and(&[]), TRUE_GATE);
        assert_eq!(a.or(&[]), FALSE_GATE);
    }

    #[test]
    fn xor_probability_and_world_eval() {
        let (a, root) = xor_arena();
        assert_eq!(a.probability(root, &[rat(1, 2), rat(1, 3)]), rat(1, 2));
        assert!(a.eval_world(root, &[true, false]));
        assert!(a.eval_world(root, &[false, true]));
        assert!(!a.eval_world(root, &[true, true]));
        assert!(!a.eval_world(root, &[false, false]));
        assert!(a.check_decomposable());
        for mask in 0..4u32 {
            assert!(a.check_deterministic_under(&[mask & 1 == 1, mask & 2 == 2]));
        }
    }

    #[test]
    fn natural_semiring_counts_models_with_smoothing() {
        // f = x₀ over 3 variables, as the (unsmoothed) single literal:
        // 4 of the 8 worlds satisfy it.
        let mut a = Arena::new(3);
        let root = a.var(0);
        let ones = vec![Natural::one(); 3];
        let count = a.eval_root(root, &ones, &ones);
        assert_eq!(count, Natural::from_u64(4));
        // Unsmoothed OR: x₀ ∨ (¬x₀ ∧ x₁) has 6 models over 3 vars.
        let x0 = a.var(0);
        let nx0 = a.neg_var(0);
        let x1 = a.var(1);
        let branch = a.and(&[nx0, x1]);
        let root = a.or(&[x0, branch]);
        assert_eq!(a.eval_root(root, &ones, &ones), Natural::from_u64(6));
    }

    #[test]
    fn counting_with_pinned_variables() {
        // (x₀ ∧ x₁) ∨ (¬x₀ ∧ x₂), x₀ pinned true: worlds over {x₁, x₂}
        // where x₁ — exactly 2 of 4.
        let mut a = Arena::new(3);
        let x0 = a.var(0);
        let nx0 = a.neg_var(0);
        let x1 = a.var(1);
        let x2 = a.var(2);
        let l = a.and(&[x0, x1]);
        let r = a.and(&[nx0, x2]);
        let root = a.or(&[l, r]);
        let prov = Provenance::positive(a, root);
        use VarStatus::{Free, Pinned};
        assert_eq!(
            prov.count_worlds(&[Pinned(true), Free, Free]),
            Natural::from_u64(2)
        );
        assert_eq!(
            prov.count_worlds(&[Pinned(false), Free, Free]),
            Natural::from_u64(2)
        );
        assert_eq!(prov.count_worlds(&[Free, Free, Free]), Natural::from_u64(4));
    }

    #[test]
    fn multi_root_batched_evaluation() {
        let mut a = Arena::new(2);
        let x = a.var(0);
        let y = a.var(1);
        let ny = a.neg_var(1);
        let both = a.and(&[x, y]);
        let only_x = a.and(&[x, ny]);
        let probs = [rat(1, 2), rat(1, 3)];
        let neg: Vec<Rational> = probs.iter().map(|p| p.one_minus()).collect();
        let out = a.eval_roots(&[both, only_x, x], &probs, &neg);
        assert_eq!(out, vec![rat(1, 6), rat(1, 3), rat(1, 2)]);
    }

    #[test]
    fn scratch_cone_evaluation_matches_full_pass() {
        // Two independent sub-circuits in one arena: evaluating one root
        // through a compiled cone must match the whole-store pass, and the
        // same value slab must be reusable across roots and arenas.
        let mut a = Arena::new(4);
        let x = a.var(0);
        let y = a.var(1);
        let z = a.var(2);
        let w = a.var(3);
        let left = a.and(&[x, y]);
        let right = a.and(&[z, w]);
        let both = a.or(&[left, right]); // not deterministic, but fine for algebra
        let probs = [rat(1, 2), rat(1, 3), rat(1, 5), rat(1, 7)];
        let mut slab = Vec::new();
        for root in [left, right, both, TRUE_GATE, FALSE_GATE] {
            assert_eq!(
                FlatArena::compile(&a, &[root]).eval_many(&probs, &mut slab),
                vec![a.probability(root, &probs)],
                "root {root}"
            );
        }
        // Multi-root call agrees element-wise.
        let many = FlatArena::compile(&a, &[left, right]).eval_many(&probs, &mut slab);
        assert_eq!(many, a.probability_many(&[left, right], &probs));
        // The slab survives a switch to a smaller arena.
        let (b, root) = xor_arena();
        let probs2 = [rat(1, 2), rat(1, 3)];
        assert_eq!(
            FlatArena::compile(&b, &[root]).eval_many(&probs2, &mut slab),
            vec![b.probability(root, &probs2)]
        );
    }

    #[test]
    fn gradients_match_conditioning_identity() {
        let (a, root) = xor_arena();
        let probs = [rat(1, 3), rat(1, 4)];
        let grads = a.gradients(root, &probs);
        for v in 0..2 {
            let mut plus = probs.to_vec();
            plus[v] = Rational::one();
            let mut minus = probs.to_vec();
            minus[v] = Rational::zero();
            let diff = a.probability(root, &plus).sub(&a.probability(root, &minus));
            assert_eq!(grads[v], diff, "v = {v}");
        }
    }

    #[test]
    fn dual_numbers_flow_through_the_engine() {
        // Seeding variable 0 reproduces gradients[0] via forward mode.
        let (a, root) = xor_arena();
        let probs = [rat(1, 3), rat(1, 4)];
        let pos: Vec<Dual<Rational>> = vec![
            Dual::active(probs[0].clone()),
            Dual::constant(probs[1].clone()),
        ];
        let neg: Vec<Dual<Rational>> = pos.iter().map(|d| d.complement()).collect();
        let out = a.eval_root(root, &pos, &neg);
        assert_eq!(out.val, a.probability(root, &probs));
        assert_eq!(out.der, a.gradients(root, &probs)[0]);
    }

    #[test]
    fn complemented_provenance_flips_everything() {
        let (a, root) = xor_arena();
        let probs = [rat(1, 3), rat(1, 4)];
        let pos = Provenance::positive(a.clone(), root);
        let neg = Provenance::complemented(a, root);
        // The two handles describe complementary events: probabilities sum to 1.
        assert_eq!(
            pos.probability::<Rational>(&probs)
                .add(&neg.probability::<Rational>(&probs)),
            Rational::one()
        );
        assert!(pos.holds_in(&[true, false]));
        assert!(!neg.holds_in(&[true, false]));
        let g_pos = pos.gradients::<Rational>(&probs);
        let g_neg = neg.gradients::<Rational>(&probs);
        for v in 0..2 {
            assert_eq!(g_pos[v].add(&g_neg[v]), Rational::zero());
        }
        use VarStatus::Free;
        let total = pos
            .count_worlds(&[Free, Free])
            .add(&neg.count_worlds(&[Free, Free]));
        assert_eq!(total, Natural::from_u64(4));
    }
}
