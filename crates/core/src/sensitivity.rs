//! Sensitivity analysis for `PHom`: which probabilistic edge matters?
//!
//! For a query `G` and instance `(H, π)`, the **influence** of edge `e`
//! is `∂ Pr(G ⇝ H) / ∂ π(e) = Pr(G ⇝ H | e present) − Pr(G ⇝ H | e
//! absent)` — the Birnbaum importance of `e` for the query event. It is
//! the right quantity for "which uncertain fact should we verify first?"
//! decisions on probabilistic data: cleaning edge `e` moves the query
//! probability by `influence(e) · (1 − π(e))` (if confirmed) or
//! `−influence(e) · π(e)` (if refuted).
//!
//! Three evaluation strategies, cross-checked in the tests — all exact:
//!
//! * **Engine gradients** ([`influences`]) — on the routes that compile a
//!   provenance circuit (Prop 4.11's 2WP instances, Prop 4.10's DWT
//!   instances), all influences come from the engine's one forward + one
//!   backward sweep ([`Provenance::gradients`]).
//! * **Forward-mode dual numbers** ([`influence_forward`]) — the
//!   [`Dual`] semifield flows through the *β-elimination*
//!   of Theorem 4.9 (divisions included), returning one edge's influence
//!   per pass without any circuit. The demonstration that the `Semiring`
//!   abstraction, not bespoke code, carries sensitivity.
//! * **Conditioning** ([`influences_by_conditioning`]) — for any exact
//!   solver (e.g. the treewidth walk DP, where no circuit is built),
//!   re-solve with `π(e)` pinned to 1 and to 0. Costs `2·|E|` solver
//!   calls but applies to every tractable route.
//!
//! The module also exposes [`most_probable_witness`]: the most probable
//! possible world in which the query holds (the MPE of the lineage),
//! which pairs a reliability number with a concrete explanation.

use crate::algo::{connected_on_2wp, lineage_circuits, path_on_dwt};
use phom_graph::hom::exists_hom_into_world;
use phom_graph::{EdgeId, Graph, ProbGraph};
use phom_lineage::beta::beta_dnf_probability_with_order;
use phom_lineage::{analysis, Provenance};
use phom_num::{Dual, Rational, Weight};

/// How [`influences`] (or a sensitivity [`Request`](crate::Request)
/// through the engine) obtained its answer.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SensitivityRoute {
    /// Prop 4.11 match circuit (connected query, 2WP instance).
    Circuit2wp,
    /// Prop 4.10 fail circuit, complemented (1WP query, DWT instance).
    CircuitDwt,
    /// Exact conditioning: `2·|E|` dispatcher solves (the engine's
    /// fallback when no circuit route matches the input shapes).
    Conditioning,
}

/// The provenance handle the circuit routes compile, with the route
/// taken. `None` when no circuit-compiling route matches the input
/// shapes.
pub fn lineage_provenance(
    query: &Graph,
    instance: &ProbGraph,
) -> Option<(Provenance, SensitivityRoute)> {
    if let Some((circuit, root)) = lineage_circuits::match_circuit_2wp(query, instance.graph()) {
        return Some((
            Provenance::positive(circuit, root),
            SensitivityRoute::Circuit2wp,
        ));
    }
    if let Some((circuit, root)) = lineage_circuits::fail_circuit_dwt(query, instance.graph()) {
        return Some((
            Provenance::complemented(circuit, root),
            SensitivityRoute::CircuitDwt,
        ));
    }
    None
}

/// All edge influences `∂ Pr / ∂ π(e)` via the engine's gradient sweep,
/// with the route taken. `None` when no circuit-compiling route matches
/// the input shapes (fall back to [`influences_by_conditioning`] with an
/// exact solver for the relevant cell).
pub fn influences<W: Weight>(
    query: &Graph,
    instance: &ProbGraph,
) -> Option<(Vec<W>, SensitivityRoute)> {
    let probs: Vec<W> = instance.probs().iter().map(W::from_rational).collect();
    let (prov, route) = lineage_provenance(query, instance)?;
    Some((prov.gradients(&probs), route))
}

/// One edge's influence by forward-mode automatic differentiation: the
/// β-acyclic lineage of Theorem 4.9 is evaluated over the
/// [`Dual`] number semifield with edge `e` seeded, so the
/// derivative rides along through every product, sum, *and division* of
/// the elimination — no circuit, no backward pass.
///
/// Returns `None` when the inputs fit neither Prop 4.10 nor Prop 4.11,
/// or when some edge probability is 0 or 1 (the elimination's divisions
/// are then not dual-invertible; use [`influences`] or conditioning).
pub fn influence_forward(query: &Graph, instance: &ProbGraph, e: EdgeId) -> Option<Rational> {
    if instance.probs().iter().any(|p| p.is_zero() || p.is_one()) {
        return None;
    }
    let (dnf, order) = path_on_dwt::lineage(query, instance.graph())
        .or_else(|| connected_on_2wp::lineage(query, instance.graph()))?;
    if dnf.is_valid() {
        return Some(Rational::zero()); // constant-true lineage: no influence
    }
    let probs: Vec<Dual<Rational>> = instance
        .probs()
        .iter()
        .enumerate()
        .map(|(i, p)| {
            if i == e {
                Dual::active(p.clone())
            } else {
                Dual::constant(p.clone())
            }
        })
        .collect();
    let out = beta_dnf_probability_with_order(&dnf, &probs, &order)
        .expect("the lineage routes supply valid β-elimination orders");
    Some(out.der)
}

/// All edge influences by conditioning: `solve(H[π(e) := 1]) −
/// solve(H[π(e) := 0])` for each edge, where `solve` is any exact
/// evaluator of `Pr(G ⇝ ·)` for the fixed query (e.g. a closure over
/// [`crate::algo::walk_on_tw::probability`]). `2·|E|` solver calls.
pub fn influences_by_conditioning<W: Weight>(
    instance: &ProbGraph,
    mut solve: impl FnMut(&ProbGraph) -> W,
) -> Vec<W> {
    match try_influences_by_conditioning::<W, std::convert::Infallible>(instance, |h| Ok(solve(h)))
    {
        Ok(influences) => influences,
        Err(infallible) => match infallible {},
    }
}

/// As [`influences_by_conditioning`], with a fallible solver: the first
/// error aborts the sweep and is returned. This is how a sensitivity
/// [`Request`](crate::Request) propagates hardness from a pinned solve
/// on shapes without a circuit route.
pub fn try_influences_by_conditioning<W: Weight, E>(
    instance: &ProbGraph,
    mut solve: impl FnMut(&ProbGraph) -> Result<W, E>,
) -> Result<Vec<W>, E> {
    let n_edges = instance.graph().n_edges();
    let mut out = Vec::with_capacity(n_edges);
    for e in 0..n_edges {
        let plus = solve(&pin(instance, e, true))?;
        let minus = solve(&pin(instance, e, false))?;
        out.push(plus.sub(&minus));
    }
    Ok(out)
}

/// The instance with `π(e)` pinned to 1 (present) or 0 (absent).
pub fn pin(instance: &ProbGraph, e: EdgeId, present: bool) -> ProbGraph {
    let mut probs = instance.probs().to_vec();
    probs[e] = if present {
        Rational::one()
    } else {
        Rational::zero()
    };
    ProbGraph::new(instance.graph().clone(), probs)
}

/// Ranks the edges by decreasing influence (ties broken by edge id).
/// Purely presentational: pairs each edge with its influence, sorted.
pub fn rank_edges<W: Weight + PartialOrd>(influences: Vec<W>) -> Vec<(EdgeId, W)> {
    let mut ranked: Vec<(EdgeId, W)> = influences.into_iter().enumerate().collect();
    ranked.sort_by(|(ea, a), (eb, b)| {
        b.partial_cmp(a)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(ea.cmp(eb))
    });
    ranked
}

/// The most probable possible world satisfying the query (MPE of the
/// lineage), with its probability, via the circuit routes of
/// [`influences`]. Returns `Ok(None)` when the query holds in no world,
/// and `Err(())` when no circuit route applies.
#[allow(clippy::result_unit_err)]
pub fn most_probable_witness(
    query: &Graph,
    instance: &ProbGraph,
) -> Result<Option<(Rational, Vec<bool>)>, ()> {
    let probs: Vec<Rational> = instance.probs().to_vec();
    let (prov, _) = lineage_provenance(query, instance).ok_or(())?;
    if prov.negated {
        // MPE needs the positive event; the DWT route's circuit encodes
        // the complement, so compile the *match* DNF through the OBDD
        // pipeline (DFS order keeps it linear) and search that instead.
        let (dnf, _) = path_on_dwt::lineage(query, instance.graph()).ok_or(())?;
        let order = super::algo::obdd_route::dfs_edge_order(instance.graph()).ok_or(())?;
        let (manager, f, _) = super::algo::obdd_route::compile(&dnf, order);
        let (circuit, root) = manager.to_circuit(f);
        let witness = analysis::mpe(&circuit, root, &probs);
        return Ok(check_witness(query, instance, witness));
    }
    let witness = analysis::mpe(&prov.circuit, prov.root, &probs);
    Ok(check_witness(query, instance, witness))
}

fn check_witness(
    query: &Graph,
    instance: &ProbGraph,
    witness: Option<(Rational, Vec<bool>)>,
) -> Option<(Rational, Vec<bool>)> {
    if let Some((_, world)) = &witness {
        debug_assert!(
            exists_hom_into_world(query, instance.graph(), world),
            "the MPE world must satisfy the query"
        );
    }
    witness
}

/// `Pr(G ⇝ H | e = present)` on the 2WP/DWT circuit routes — exported for
/// symmetry with [`influences`]; equivalent to solving on [`pin`]ed input.
pub fn conditional_probability<W: Weight>(
    query: &Graph,
    instance: &ProbGraph,
    e: EdgeId,
    present: bool,
) -> Option<W> {
    let pinned = pin(instance, e, present);
    connected_on_2wp::probability_lineage(query, &pinned)
        .or_else(|| path_on_dwt::probability_lineage(query, &pinned))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo::walk_on_tw;
    use crate::bruteforce;
    use phom_graph::generate::{self, ProbProfile};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// Brute-force influence: conditioning against world enumeration.
    fn bf_influences(query: &Graph, instance: &ProbGraph) -> Vec<Rational> {
        influences_by_conditioning(instance, |h| bruteforce::probability(query, h))
    }

    #[test]
    fn circuit_influences_match_bruteforce_on_2wp() {
        let mut rng = SmallRng::seed_from_u64(0x5E51);
        for trial in 0..20 {
            let g = generate::two_way_path(rng.gen_range(1..7), 2, &mut rng);
            let h = generate::with_probabilities(g, ProbProfile::half(), &mut rng);
            let q = generate::two_way_path(rng.gen_range(1..4), 2, &mut rng);
            let (grads, route) = influences::<Rational>(&q, &h).expect("2WP circuit");
            assert_eq!(route, SensitivityRoute::Circuit2wp);
            assert_eq!(grads, bf_influences(&q, &h), "trial {trial}");
        }
    }

    #[test]
    fn circuit_influences_match_bruteforce_on_dwt() {
        let mut rng = SmallRng::seed_from_u64(0x5E52);
        for trial in 0..20 {
            let g = generate::downward_tree(rng.gen_range(2..9), 2, &mut rng);
            // Skip shapes the 2WP circuit route would grab first.
            if phom_graph::classes::as_two_way_path(&g).is_some() {
                continue;
            }
            let h = generate::with_probabilities(g, ProbProfile::half(), &mut rng);
            let q = generate::planted_path_query(h.graph(), rng.gen_range(1..4), &mut rng)
                .unwrap_or_else(|| generate::one_way_path(2, 2, &mut rng));
            let (grads, route) = influences::<Rational>(&q, &h).expect("DWT circuit");
            assert_eq!(route, SensitivityRoute::CircuitDwt);
            assert_eq!(grads, bf_influences(&q, &h), "trial {trial}");
        }
    }

    #[test]
    fn forward_mode_duals_match_gradients() {
        let mut rng = SmallRng::seed_from_u64(0x5E56);
        for trial in 0..25 {
            // Strictly interior probabilities: the dual path requires
            // invertible primal values through the elimination.
            let h_graph = if trial % 2 == 0 {
                generate::two_way_path(rng.gen_range(1..6), 2, &mut rng)
            } else {
                generate::downward_tree(rng.gen_range(2..7), 2, &mut rng)
            };
            let probs: Vec<Rational> = (0..h_graph.n_edges())
                .map(|_| Rational::from_ratio(rng.gen_range(1..4), 4))
                .collect();
            let h = ProbGraph::new(h_graph, probs);
            let q = generate::planted_path_query(h.graph(), rng.gen_range(1..3), &mut rng)
                .unwrap_or_else(|| generate::one_way_path(1, 2, &mut rng));
            let Some((grads, _)) = influences::<Rational>(&q, &h) else {
                continue;
            };
            for (e, grad) in grads.iter().enumerate() {
                let Some(fwd) = influence_forward(&q, &h, e) else {
                    continue;
                };
                assert_eq!(&fwd, grad, "trial {trial}, edge {e}");
            }
        }
    }

    #[test]
    fn conditioning_influences_on_treewidth_route() {
        // The walk DP has no circuit; conditioning still yields exact
        // influences, checked against brute force.
        let mut rng = SmallRng::seed_from_u64(0x5E53);
        for trial in 0..12 {
            let g = generate::arbitrary(rng.gen_range(2..6), 0.35, 1, &mut rng);
            if g.n_edges() > 8 {
                continue;
            }
            let h = generate::with_probabilities(g, ProbProfile::half(), &mut rng);
            let q = Graph::directed_path(rng.gen_range(1..4));
            let by_dp = influences_by_conditioning(&h, |inst| {
                walk_on_tw::probability::<Rational>(&q, inst).expect("1WP collapses")
            });
            assert_eq!(by_dp, bf_influences(&q, &h), "trial {trial}");
        }
    }

    #[test]
    fn influence_sign_and_pin_consistency() {
        // Influences of a monotone event are nonnegative, and pinning an
        // edge to its endpoint values brackets the unconditional answer.
        let mut rng = SmallRng::seed_from_u64(0x5E54);
        let g = generate::two_way_path(6, 2, &mut rng);
        let h = generate::with_probabilities(g, ProbProfile::half(), &mut rng);
        let q = generate::two_way_path(2, 2, &mut rng);
        let (grads, _) = influences::<Rational>(&q, &h).unwrap();
        let p = bruteforce::probability(&q, &h);
        for (e, grad) in grads.iter().enumerate() {
            assert!(!grad.is_negative(), "monotone ⇒ influence ≥ 0");
            let plus = bruteforce::probability(&q, &pin(&h, e, true));
            let minus = bruteforce::probability(&q, &pin(&h, e, false));
            assert!(minus <= p && p <= plus, "conditioning brackets Pr");
            assert_eq!(grads[e], plus.sub(&minus));
        }
    }

    #[test]
    fn ranking_is_sorted() {
        let ranked = rank_edges(vec![
            Rational::from_ratio(1, 4),
            Rational::from_ratio(3, 4),
            Rational::zero(),
        ]);
        assert_eq!(ranked[0].0, 1);
        assert_eq!(ranked[1].0, 0);
        assert_eq!(ranked[2].0, 2);
    }

    #[test]
    fn witness_is_most_probable_world_satisfying_query() {
        let mut rng = SmallRng::seed_from_u64(0x5E55);
        for trial in 0..15 {
            let g = generate::two_way_path(rng.gen_range(1..6), 2, &mut rng);
            let h = generate::with_probabilities(g, ProbProfile::half(), &mut rng);
            let q = generate::two_way_path(rng.gen_range(1..3), 2, &mut rng);
            let witness = most_probable_witness(&q, &h).expect("2WP circuit route");
            // Brute-force argmax over satisfying worlds.
            let mut best: Option<Rational> = None;
            for (mask, p) in h.worlds() {
                if exists_hom_into_world(&q, h.graph(), &mask)
                    && best.as_ref().is_none_or(|b| p > *b)
                {
                    best = Some(p);
                }
            }
            match (witness, best) {
                (None, None) => {}
                (Some((wp, world)), Some(bp)) => {
                    assert_eq!(wp, bp, "trial {trial}");
                    assert!(exists_hom_into_world(&q, h.graph(), &world));
                }
                (w, b) => panic!("trial {trial}: {:?} vs {b:?}", w.map(|x| x.0)),
            }
        }
    }

    #[test]
    fn witness_on_dwt_route() {
        let mut rng = SmallRng::seed_from_u64(0x5E57);
        for trial in 0..10 {
            let g = generate::downward_tree(rng.gen_range(2..7), 2, &mut rng);
            if phom_graph::classes::as_two_way_path(&g).is_some() {
                continue;
            }
            let h = generate::with_probabilities(g, ProbProfile::half(), &mut rng);
            let q = generate::planted_path_query(h.graph(), 1, &mut rng)
                .unwrap_or_else(|| generate::one_way_path(1, 2, &mut rng));
            let witness = most_probable_witness(&q, &h).expect("DWT route");
            let mut best: Option<Rational> = None;
            for (mask, p) in h.worlds() {
                if exists_hom_into_world(&q, h.graph(), &mask)
                    && best.as_ref().is_none_or(|b| p > *b)
                {
                    best = Some(p);
                }
            }
            match (witness, best) {
                (None, None) => {}
                (Some((wp, _)), Some(bp)) => assert_eq!(wp, bp, "trial {trial}"),
                (w, b) => panic!("trial {trial}: {:?} vs {b:?}", w.map(|x| x.0)),
            }
        }
    }
}
