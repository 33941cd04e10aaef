//! Equivalence property tests for the unified semiring provenance engine:
//! every lineage representation (positive DNFs, decision d-DNNFs built by
//! Shannon expansion below, the solver routes' d-DNNF circuits, β-acyclic
//! lineages), evaluated through the one engine routine, must agree with
//! the independent oracles
//! `Dnf::probability_brute_force` and `phom_core::bruteforce` on
//! randomized inputs — across the probability (Rational and f64),
//! counting (Natural), Boolean, and dual-number semirings.
//!
//! Together the loops below cover well over 500 randomized
//! query/instance (or DNF/weights) pairs per run.

use phom::graph::generate;
use phom::graph::hom::exists_hom_into_world;
use phom::lineage::beta::beta_dnf_probability;
use phom::lineage::engine::Arena;
use phom::lineage::{Dnf, GateId, Provenance, VarStatus};
use phom::prelude::*;
use phom_core::algo::lineage_circuits;
use phom_core::{bruteforce, counting};
use phom_num::{Dual, Natural};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn rat(n: u64, d: u64) -> Rational {
    Rational::from_ratio(n, d)
}

fn random_dnf(rng: &mut SmallRng, num_vars: usize, clauses: usize) -> Dnf {
    let mut dnf = Dnf::falsum(num_vars);
    for _ in 0..clauses {
        let len = rng.gen_range(1..=num_vars.min(4));
        let mut clause: Vec<usize> = (0..len).map(|_| rng.gen_range(0..num_vars)).collect();
        clause.sort_unstable();
        clause.dedup();
        dnf.push_clause(clause);
    }
    dnf
}

fn random_probs(rng: &mut SmallRng, n: usize, den: u64) -> Vec<Rational> {
    (0..n).map(|_| rat(rng.gen_range(0..=den), den)).collect()
}

/// A decision d-DNNF for `dnf` built into `arena`: Shannon expansion
/// `(v ∧ f|v) ∨ (¬v ∧ f|¬v)` over the variables in index order.
fn decision_dnnf(arena: &mut Arena, dnf: &Dnf) -> GateId {
    fn expand(arena: &mut Arena, clauses: &[Vec<usize>], v: usize) -> GateId {
        if clauses.iter().any(Vec::is_empty) {
            return arena.constant(true);
        }
        if clauses.is_empty() {
            return arena.constant(false);
        }
        let hi: Vec<Vec<usize>> = clauses
            .iter()
            .map(|c| c.iter().copied().filter(|&u| u != v).collect())
            .collect();
        let lo: Vec<Vec<usize>> = clauses
            .iter()
            .filter(|c| !c.contains(&v))
            .cloned()
            .collect();
        let (hi, lo) = (expand(arena, &hi, v + 1), expand(arena, &lo, v + 1));
        let (pos, neg) = (arena.var(v), arena.neg_var(v));
        let branches = [arena.and(&[pos, hi]), arena.and(&[neg, lo])];
        arena.or(&branches)
    }
    expand(arena, dnf.clauses(), 0)
}

/// Representation 1 — positive DNFs: the engine's Boolean pass agrees
/// with direct clause evaluation on every world, and the decision d-DNNF
/// of the same DNF, evaluated through the engine, matches the
/// brute-force probability oracle in both exact and float arithmetic.
#[test]
fn dnf_worlds_and_probability_through_engine() {
    let mut rng = SmallRng::seed_from_u64(0xE16E_0001);
    for trial in 0..150 {
        let n = rng.gen_range(1..8);
        let n_clauses = rng.gen_range(0..6);
        let dnf = random_dnf(&mut rng, n, n_clauses);
        let mut arena = Arena::new(n);
        let root = dnf.to_provenance(&mut arena);
        for mask in 0u64..1 << n {
            let world: Vec<bool> = (0..n).map(|v| mask >> v & 1 == 1).collect();
            assert_eq!(
                arena.eval_world(root, &world),
                dnf.eval(&world),
                "trial {trial}"
            );
        }
        let probs = random_probs(&mut rng, n, 4);
        let oracle = dnf.probability_brute_force(&probs);
        let f = decision_dnnf(&mut arena, &dnf);
        assert_eq!(
            arena.probability::<Rational>(f, &probs),
            oracle,
            "trial {trial}"
        );
        let fp: Vec<f64> = probs.iter().map(Rational::to_f64).collect();
        let float = arena.probability::<f64>(f, &fp);
        assert!((float - oracle.to_f64()).abs() < 1e-9, "trial {trial}");
    }
}

/// Representation 2 — decision d-DNNFs: engine-backed model counting
/// (Natural semiring, with on-the-fly smoothing for skipped levels)
/// equals world enumeration, free/pinned variables included.
#[test]
fn decision_dnnf_model_counts_match_enumeration() {
    let mut rng = SmallRng::seed_from_u64(0xE16E_0002);
    for trial in 0..120 {
        let n = rng.gen_range(1..8);
        let n_clauses = rng.gen_range(0..6);
        let dnf = random_dnf(&mut rng, n, n_clauses);
        let mut circuit = Arena::new(n);
        let root = decision_dnnf(&mut circuit, &dnf);
        let expect: u64 = (0u64..1 << n)
            .filter(|mask| {
                let world: Vec<bool> = (0..n).map(|v| mask >> v & 1 == 1).collect();
                dnf.eval(&world)
            })
            .count() as u64;
        let ones = vec![Natural::one(); n];
        assert_eq!(
            circuit.eval_root(root, &ones, &ones),
            Natural::from_u64(expect),
            "trial {trial}"
        );
        // Pinned counting through the provenance handle.
        let prov = Provenance::positive(circuit, root);
        let pin = rng.gen_range(0..n);
        let value = rng.gen_range(0..2) == 1;
        let status: Vec<VarStatus> = (0..n)
            .map(|v| {
                if v == pin {
                    VarStatus::Pinned(value)
                } else {
                    VarStatus::Free
                }
            })
            .collect();
        let expect_pinned: u64 = (0u64..1 << n)
            .filter(|mask| {
                let world: Vec<bool> = (0..n).map(|v| mask >> v & 1 == 1).collect();
                world[pin] == value && dnf.eval(&world)
            })
            .count() as u64;
        assert_eq!(
            prov.count_worlds(&status),
            Natural::from_u64(expect_pinned),
            "trial {trial}"
        );
    }
}

/// Representation 3 — d-DNNF circuits from the labeled solver routes:
/// engine probability, gradients, and Boolean evaluation against the
/// `phom_core::bruteforce` world-enumeration oracle.
#[test]
fn route_circuits_match_bruteforce() {
    let mut rng = SmallRng::seed_from_u64(0xE16E_0003);
    for trial in 0..80 {
        let twp = trial % 2 == 0;
        let h_graph = if twp {
            generate::two_way_path(rng.gen_range(1..7), 2, &mut rng)
        } else {
            generate::downward_tree(rng.gen_range(2..8), 2, &mut rng)
        };
        let h = generate::with_probabilities(
            h_graph,
            generate::ProbProfile {
                certain_ratio: 0.25,
                denominator: 4,
            },
            &mut rng,
        );
        let q = generate::planted_path_query(h.graph(), rng.gen_range(1..4), &mut rng)
            .unwrap_or_else(|| generate::one_way_path(2, 2, &mut rng));
        let compiled = if twp {
            lineage_circuits::match_circuit_2wp(&q, h.graph())
                .map(|(c, r)| Provenance::positive(c, r))
        } else {
            lineage_circuits::fail_circuit_dwt(&q, h.graph())
                .map(|(c, r)| Provenance::complemented(c, r))
        };
        let Some(prov) = compiled else { continue };
        let oracle = bruteforce::probability(&q, &h);
        assert_eq!(
            prov.probability::<Rational>(h.probs()),
            oracle,
            "trial {trial}"
        );
        for (mask, _) in h.worlds() {
            assert_eq!(
                prov.holds_in(&mask),
                exists_hom_into_world(&q, h.graph(), &mask),
                "trial {trial}"
            );
        }
        // Gradients against conditioning on the oracle.
        let grads = prov.gradients::<Rational>(h.probs());
        for (e, grad) in grads.iter().enumerate() {
            let plus = bruteforce::probability(&q, &phom_core::sensitivity::pin(&h, e, true));
            let minus = bruteforce::probability(&q, &phom_core::sensitivity::pin(&h, e, false));
            assert_eq!(*grad, plus.sub(&minus), "trial {trial}, edge {e}");
        }
    }
}

/// Representation 4 — β-acyclic lineages: Theorem 4.9's elimination (the
/// Weight/Semiring-generic non-circuit route) against the brute-force
/// oracle, including the dual-number semifield whose derivative must
/// match the engine's gradient sweep on the same lineage.
#[test]
fn beta_lineages_match_oracles_and_duals_match_gradients() {
    let mut rng = SmallRng::seed_from_u64(0xE16E_0004);
    for trial in 0..120 {
        // Interval DNFs are always β-acyclic (the Prop 4.11 shape).
        let n = rng.gen_range(1..9);
        let mut clauses = Vec::new();
        for _ in 0..rng.gen_range(1..5) {
            let a = rng.gen_range(0..n);
            let b = rng.gen_range(a..n.min(a + 4));
            clauses.push((a..=b).collect::<Vec<_>>());
        }
        let dnf = Dnf::new(n, clauses);
        // Strictly interior probabilities so dual division stays defined.
        let probs: Vec<Rational> = (0..n).map(|_| rat(rng.gen_range(1..4), 4)).collect();
        let oracle = dnf.probability_brute_force(&probs);
        let beta = beta_dnf_probability(&dnf, &probs).expect("interval DNFs are β-acyclic");
        assert_eq!(beta, oracle, "trial {trial}");
        // Dual numbers through the same elimination: value and one
        // derivative per seeded variable.
        let seed_var = rng.gen_range(0..n);
        let duals: Vec<Dual<Rational>> = probs
            .iter()
            .enumerate()
            .map(|(v, p)| {
                if v == seed_var {
                    Dual::active(p.clone())
                } else {
                    Dual::constant(p.clone())
                }
            })
            .collect();
        let dual_out = beta_dnf_probability(&dnf, &duals).expect("same hypergraph");
        assert_eq!(dual_out.val, oracle, "trial {trial}");
        // Engine gradient on the decision d-DNNF of the same DNF.
        let mut circuit = Arena::new(n);
        let root = decision_dnnf(&mut circuit, &dnf);
        let grads = circuit.gradients(root, &probs);
        assert_eq!(dual_out.der, grads[seed_var], "trial {trial}");
    }
}

/// End-to-end: solver solutions with provenance handles re-derive their
/// probability and their model count through the engine, against both
/// oracles.
#[test]
fn solver_provenance_reconciles_with_counting_and_bruteforce() {
    let mut rng = SmallRng::seed_from_u64(0xE16E_0005);
    let opts = SolverOptions {
        want_provenance: true,
        ..Default::default()
    };
    for trial in 0..60 {
        let h_graph = if trial % 2 == 0 {
            generate::two_way_path(rng.gen_range(1..7), 2, &mut rng)
        } else {
            generate::downward_tree(rng.gen_range(2..8), 2, &mut rng)
        };
        let h = generate::with_probabilities(h_graph, generate::ProbProfile::half(), &mut rng);
        let q = generate::planted_path_query(h.graph(), rng.gen_range(1..4), &mut rng)
            .unwrap_or_else(|| generate::one_way_path(2, 2, &mut rng));
        let engine = Engine::builder().default_options(opts).build(h.clone());
        let Ok(sol) = engine.solve(&q) else {
            continue;
        };
        assert_eq!(
            sol.probability,
            bruteforce::probability(&q, &h),
            "trial {trial}"
        );
        if let Some(prov) = &sol.provenance {
            assert_eq!(prov.probability::<Rational>(h.probs()), sol.probability);
        }
        // Engine-backed counting equals enumeration.
        let count = counting::count_satisfying_worlds(&q, &h).expect("tractable");
        let expect: u64 = h
            .worlds()
            .filter(|(mask, p)| !p.is_zero() && exists_hom_into_world(&q, h.graph(), mask))
            .count() as u64;
        assert_eq!(count, Natural::from_u64(expect), "trial {trial}");
    }
}

/// The engine's multi-root batched evaluation: several queries compiled
/// into one shared arena evaluate identically to one-at-a-time runs.
#[test]
fn batched_multi_query_evaluation_over_shared_arena() {
    let mut rng = SmallRng::seed_from_u64(0xE16E_0006);
    for trial in 0..30 {
        let n = rng.gen_range(2..7);
        let probs = random_probs(&mut rng, n, 4);
        let mut arena = Arena::new(n);
        let mut roots = Vec::new();
        let mut dnfs = Vec::new();
        for _ in 0..4 {
            let n_clauses = rng.gen_range(1..4);
            let dnf = random_dnf(&mut rng, n, n_clauses);
            // A decision d-DNNF per query, all in the shared arena.
            roots.push(decision_dnnf(&mut arena, &dnf));
            dnfs.push(dnf);
        }
        let neg: Vec<Rational> = probs.iter().map(|p| p.one_minus()).collect();
        let batched = arena.eval_roots(&roots, &probs, &neg);
        for (i, dnf) in dnfs.iter().enumerate() {
            assert_eq!(
                batched[i],
                dnf.probability_brute_force(&probs),
                "trial {trial}, query {i}"
            );
        }
    }
}

/// Four-representation agreement on one fixed input: DNF brute force,
/// β-elimination, the decision d-DNNF through the engine, and the route
/// d-DNNF all compute
/// the same number.
#[test]
fn four_representations_one_answer() {
    let mut rng = SmallRng::seed_from_u64(0xE16E_0007);
    for _ in 0..20 {
        let h_graph = generate::two_way_path(rng.gen_range(2..7), 2, &mut rng);
        let h = generate::with_probabilities(
            h_graph,
            generate::ProbProfile {
                certain_ratio: 0.2,
                denominator: 4,
            },
            &mut rng,
        );
        let q = generate::two_way_path(rng.gen_range(1..4), 2, &mut rng);
        let oracle = bruteforce::probability(&q, &h);
        let probs: Vec<Rational> = h.probs().to_vec();
        // β-elimination on the interval lineage.
        let Some((dnf, order)) = phom_core::algo::connected_on_2wp::lineage(&q, h.graph()) else {
            continue;
        };
        if !dnf.is_valid() {
            let beta = phom::lineage::beta::beta_dnf_probability_with_order(&dnf, &probs, &order)
                .expect("path order is a β-elimination order");
            assert_eq!(beta, oracle);
        }
        // Decision d-DNNF of the same DNF, evaluated through the engine.
        let mut decision = Arena::new(dnf.num_vars());
        let f = decision_dnnf(&mut decision, &dnf);
        assert_eq!(decision.probability::<Rational>(f, &probs), oracle);
        // Route d-DNNF through the engine.
        let (circuit, root) = lineage_circuits::match_circuit_2wp(&q, h.graph()).unwrap();
        assert_eq!(circuit.probability::<Rational>(root, &probs), oracle);
        // DNF brute force (the oracle of oracles) closes the loop.
        assert_eq!(dnf.probability_brute_force(&probs), oracle);
    }
}
