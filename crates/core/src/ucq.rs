//! Unions of conjunctive queries (UCQs): the Section 6 future-work
//! extension "allow unions of conjunctive queries as in \[20]".
//!
//! A UCQ is a finite disjunction `Q = G₁ ∨ … ∨ G_r` of query graphs;
//! `Q ⇝ H'` holds when **some** disjunct has a homomorphism to the world
//! `H'`, and `Pr(Q ⇝ H)` sums the mass of those worlds. Three of the
//! paper's tractable cells extend to UCQs without giving up polynomial
//! combined complexity:
//!
//! * **Collapse route** — if every disjunct is an (effectively) unlabeled
//!   `⊔DWT` with one common label, disjunct `Gᵢ` is equivalent to
//!   `→^{mᵢ}` on every instance (Prop 5.5), so the union is equivalent to
//!   `→^{min mᵢ}`; the treewidth walk DP
//!   ([`crate::algo::walk_on_tw`]) then evaluates it on *any* instance of
//!   bounded treewidth (polytrees included).
//! * **DWT lineage route** — if every disjunct is a labeled 1WP and every
//!   instance component is a DWT, the union of the per-disjunct lineages
//!   of Prop 4.10 is still β-acyclic for the same bottom-up elimination
//!   order: when the parent edge of a current leaf `b` is eliminated, the
//!   surviving clauses through it are upward chains ending at `b`, nested
//!   by inclusion regardless of the disjuncts' differing lengths.
//! * **2WP lineage route** — likewise, if every disjunct is connected and
//!   every instance component is a 2WP, the union of the Prop 4.11
//!   interval lineages is β-acyclic for the path order (intervals pruned
//!   to a common left endpoint are nested).
//!
//! Disconnected instances are handled by the Lemma 3.7 argument, which
//! survives the union when all disjuncts are connected:
//! `Pr(Q ⇝ ⊔ Hⱼ) = 1 − Π_j (1 − Pr(Q ⇝ Hⱼ))`.

use crate::algo::{connected_on_2wp, path_on_dwt, walk_on_tw};
use phom_graph::classes::classify;
use phom_graph::hom::HomPlan;
use phom_graph::{ConnClass, Graph, Label, ProbGraph};
use phom_lineage::beta::beta_dnf_probability_with_order;
use phom_lineage::Dnf;
use phom_num::{Rational, Weight};

/// A union of conjunctive queries over graphs: `G₁ ∨ … ∨ G_r`.
///
/// The empty union is the constant-false query (probability 0).
#[derive(Clone, Debug)]
pub struct Ucq {
    disjuncts: Vec<Graph>,
}

impl Ucq {
    /// Wraps the disjuncts.
    pub fn new(disjuncts: Vec<Graph>) -> Self {
        Ucq { disjuncts }
    }

    /// A single-disjunct UCQ (plain conjunctive query).
    pub fn singleton(query: Graph) -> Self {
        Ucq {
            disjuncts: vec![query],
        }
    }

    /// The disjuncts.
    pub fn disjuncts(&self) -> &[Graph] {
        &self.disjuncts
    }

    /// Number of disjuncts.
    pub fn len(&self) -> usize {
        self.disjuncts.len()
    }

    /// True iff the union is empty (constant false).
    pub fn is_empty(&self) -> bool {
        self.disjuncts.is_empty()
    }

    /// The test of whether the UCQ holds in a world of `instance`, given
    /// as its edge mask: one [`HomPlan`] per disjunct, planned here and
    /// run on every world the test is called with.
    pub fn world_test<'h>(&self, instance: &'h Graph) -> impl FnMut(&[bool]) -> bool + 'h {
        let mut plans: Vec<HomPlan<'h>> = self
            .disjuncts
            .iter()
            .map(|g| HomPlan::new(g, instance))
            .collect();
        move |present| plans.iter_mut().any(|plan| plan.maps_into_world(present))
    }

    /// True iff some disjunct is trivially satisfied (edgeless query:
    /// every non-empty world satisfies it).
    pub fn has_trivial_disjunct(&self) -> bool {
        self.disjuncts.iter().any(|g| g.n_edges() == 0)
    }
}

/// Which tractable route evaluated a UCQ (see the module docs).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum UcqRoute {
    /// Some disjunct is edgeless, so the union is constant true.
    Trivial,
    /// All disjuncts collapsed to `→^m`; treewidth walk DP.
    CollapsedWalk {
        /// The length of the collapsed path (`min` over disjuncts).
        m: usize,
    },
    /// Union of Prop 4.10 lineages on `⊔DWT` instance components.
    UnionLineageDwt,
    /// Union of Prop 4.11 lineages on `⊔2WP` instance components.
    UnionLineage2wp,
    /// Exponential brute force (the engine's configured fallback on
    /// shapes beyond the tractable routes).
    BruteForce,
    /// Monte-Carlo estimate (engine fallback; approximate).
    MonteCarlo {
        /// Samples used.
        samples: u64,
    },
}

/// Exact `Pr(Q ⇝ H)` by world enumeration — the UCQ reference oracle
/// (exponential in the number of uncertain edges).
pub fn bruteforce_probability(ucq: &Ucq, instance: &ProbGraph) -> Rational {
    let mut holds = ucq.world_test(instance.graph());
    let mut total = Rational::zero();
    for (mask, p) in instance.worlds() {
        if p.is_zero() {
            continue;
        }
        if holds(&mask) {
            total = total.add(&p);
        }
    }
    total
}

/// Tries the collapse route: every disjunct an effectively-unlabeled
/// `⊔DWT` over one common label. Returns the collapsed length and the
/// common label.
fn try_collapse(ucq: &Ucq) -> Option<(usize, Label)> {
    let mut min_m: Option<usize> = None;
    let mut label: Option<Label> = None;
    for g in ucq.disjuncts() {
        let collapsed = crate::algo::collapse::collapse_union_dwt_query(g)?;
        let m = collapsed.n_edges();
        if m > 0 {
            let l = g.labels_used()[0];
            match label {
                None => label = Some(l),
                Some(prev) if prev != l => return None,
                Some(_) => {}
            }
        }
        min_m = Some(min_m.map_or(m, |cur| cur.min(m)));
    }
    Some((min_m?, label.unwrap_or(Label::UNLABELED)))
}

/// The merged lineage of all disjuncts on one connected instance
/// component, by `lineage_of`, together with the shared elimination
/// order. Returns `None` when some disjunct is out of scope for the
/// route; `Ok(None)` inner when the merged DNF is a tautology.
fn union_lineage(
    ucq: &Ucq,
    component: &Graph,
    lineage_of: impl Fn(&Graph, &Graph) -> Option<(Dnf, Vec<usize>)>,
) -> Option<(Dnf, Vec<usize>)> {
    let mut merged = Dnf::falsum(component.n_edges());
    let mut order: Option<Vec<usize>> = None;
    for g in ucq.disjuncts() {
        let (dnf, ord) = lineage_of(g, component)?;
        for clause in dnf.clauses() {
            merged.push_clause(clause.clone());
        }
        // The elimination order is a property of the instance alone.
        if order.is_none() {
            order = Some(ord);
        }
    }
    Some((merged, order?))
}

/// Evaluates the UCQ on a connected component via a lineage route.
fn component_probability<W: Weight>(
    ucq: &Ucq,
    component: &ProbGraph,
    lineage_of: impl Fn(&Graph, &Graph) -> Option<(Dnf, Vec<usize>)>,
) -> Option<W> {
    let (dnf, order) = union_lineage(ucq, component.graph(), lineage_of)?;
    if dnf.is_valid() {
        return Some(W::one());
    }
    let probs: Vec<W> = component.probs().iter().map(W::from_rational).collect();
    beta_dnf_probability_with_order(&dnf, &probs, &order).ok()
}

/// `Pr(Q ⇝ H)` with the route taken, or `None` when no implemented
/// tractable route applies (the problem is #P-hard already for single
/// disjuncts beyond these cells; use [`bruteforce_probability`] then).
pub fn probability<W: Weight>(ucq: &Ucq, instance: &ProbGraph) -> Option<(W, UcqRoute)> {
    let state = crate::solver::InstanceState::new(instance);
    probability_shared(ucq, &crate::solver::SharedInstance::new(instance, &state))
}

/// The shared-state UCQ path: a long-lived [`crate::Engine`] passes its
/// cached classification and component split here instead of re-deriving
/// them per request.
pub(crate) fn probability_shared<W: Weight>(
    ucq: &Ucq,
    shared: &crate::solver::SharedInstance,
) -> Option<(W, UcqRoute)> {
    let instance = shared.instance;
    if ucq.is_empty() {
        return Some((W::zero(), UcqRoute::Trivial));
    }
    if ucq.has_trivial_disjunct() {
        return Some((W::one(), UcqRoute::Trivial));
    }
    // Route A: collapse + treewidth walk DP (any instance).
    if let Some((m, label)) = try_collapse(ucq) {
        let usable: Vec<bool> = instance
            .graph()
            .edges()
            .iter()
            .map(|e| e.label == label)
            .collect();
        let nice = phom_graph::treedecomp::NiceDecomposition::heuristic(instance.graph());
        let p = walk_on_tw::long_walk_probability_with(instance, m, &nice, &usable);
        return Some((p, UcqRoute::CollapsedWalk { m }));
    }
    // Lineage routes need connected disjuncts (for Lemma 3.7) and a
    // suitably-shaped instance; both are checked per component.
    let all_connected = ucq.disjuncts().iter().all(|g| classify(g).is_connected());
    if !all_connected {
        return None;
    }
    let cls = shared.ic();
    let parts = shared.components();
    // Route B: all disjuncts 1WP, all components DWT.
    if cls.in_union_class(ConnClass::DownwardTree)
        && ucq
            .disjuncts()
            .iter()
            .all(|g| classify(g).in_class(ConnClass::OneWayPath))
    {
        let mut failure = W::one();
        for part in parts {
            let p: W = component_probability(ucq, part, path_on_dwt::lineage)?;
            failure = failure.mul(&p.complement());
        }
        return Some((failure.complement(), UcqRoute::UnionLineageDwt));
    }
    // Route C: connected disjuncts, all components 2WP.
    if cls.in_union_class(ConnClass::TwoWayPath) {
        let mut failure = W::one();
        for part in parts {
            let p: W = component_probability(ucq, part, connected_on_2wp::lineage)?;
            failure = failure.mul(&p.complement());
        }
        return Some((failure.complement(), UcqRoute::UnionLineage2wp));
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use phom_graph::generate::{self, ProbProfile};
    use phom_graph::{GraphBuilder, Label};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(0xDCA7)
    }

    #[test]
    fn empty_union_is_false() {
        let h = ProbGraph::certain(Graph::directed_path(2));
        let (p, route) = probability::<Rational>(&Ucq::new(vec![]), &h).unwrap();
        assert_eq!(p, Rational::zero());
        assert_eq!(route, UcqRoute::Trivial);
        assert_eq!(
            bruteforce_probability(&Ucq::new(vec![]), &h),
            Rational::zero()
        );
    }

    #[test]
    fn edgeless_disjunct_is_true() {
        let h = ProbGraph::certain(Graph::directed_path(2));
        let ucq = Ucq::new(vec![
            Graph::directed_path(5),
            GraphBuilder::with_vertices(1).build(),
        ]);
        let (p, route) = probability::<Rational>(&ucq, &h).unwrap();
        assert_eq!(p, Rational::one());
        assert_eq!(route, UcqRoute::Trivial);
    }

    #[test]
    fn collapse_route_takes_min_length() {
        // →³ ∨ →⁵ ≡ →³ on every instance.
        let ucq = Ucq::new(vec![Graph::directed_path(3), Graph::directed_path(5)]);
        let mut r = rng();
        let g = generate::arbitrary(6, 0.3, 1, &mut r);
        let h = generate::with_probabilities(g, ProbProfile::half(), &mut r);
        let (p, route) = probability::<Rational>(&ucq, &h).unwrap();
        assert_eq!(route, UcqRoute::CollapsedWalk { m: 3 });
        assert_eq!(p, bruteforce_probability(&ucq, &h));
    }

    #[test]
    fn collapse_route_with_dwt_disjuncts_random() {
        let mut r = rng();
        for trial in 0..25 {
            let disjuncts: Vec<Graph> = (0..r.gen_range(1..4))
                .map(|_| {
                    generate::union_of(r.gen_range(1..3), &mut r, |rr| {
                        generate::downward_tree(rr.gen_range(1..5), 1, rr)
                    })
                })
                .collect();
            let ucq = Ucq::new(disjuncts);
            let g = generate::arbitrary(r.gen_range(2..6), 0.35, 1, &mut r);
            if g.n_edges() > 9 {
                continue;
            }
            let h = generate::with_probabilities(g, ProbProfile::half(), &mut r);
            let (p, _route) = probability::<Rational>(&ucq, &h).expect("collapse applies");
            assert_eq!(p, bruteforce_probability(&ucq, &h), "trial {trial}");
        }
    }

    #[test]
    fn mixed_label_disjuncts_do_not_collapse() {
        // R-path ∨ S-path: no common label, and on a DWT instance the
        // lineage route must take over.
        let q_r = Graph::one_way_path(&[Label(0), Label(0)]);
        let q_s = Graph::one_way_path(&[Label(1)]);
        let ucq = Ucq::new(vec![q_r.clone(), q_s.clone()]);
        let mut r = rng();
        for _ in 0..20 {
            let g = generate::downward_tree(r.gen_range(2..8), 2, &mut r);
            let h = generate::with_probabilities(g, ProbProfile::half(), &mut r);
            let (p, route) = probability::<Rational>(&ucq, &h).expect("DWT lineage applies");
            assert_eq!(route, UcqRoute::UnionLineageDwt);
            assert_eq!(p, bruteforce_probability(&ucq, &h));
        }
    }

    #[test]
    fn dwt_route_on_disconnected_instances() {
        let q1 = Graph::one_way_path(&[Label(0), Label(1)]);
        let q2 = Graph::one_way_path(&[Label(1), Label(1)]);
        let ucq = Ucq::new(vec![q1, q2]);
        let mut r = rng();
        for _ in 0..15 {
            let g = generate::union_of(2, &mut r, |rr| {
                generate::downward_tree(rr.gen_range(2..6), 2, rr)
            });
            let h = generate::with_probabilities(g, ProbProfile::half(), &mut r);
            let (p, route) = probability::<Rational>(&ucq, &h).expect("⊔DWT instance");
            assert_eq!(route, UcqRoute::UnionLineageDwt);
            assert_eq!(p, bruteforce_probability(&ucq, &h));
        }
    }

    #[test]
    fn twp_route_with_connected_disjuncts() {
        let mut r = rng();
        for trial in 0..20 {
            // Disjuncts: labeled 2WPs and small connected queries.
            let disjuncts: Vec<Graph> = (0..r.gen_range(1..4))
                .map(|_| match r.gen_range(0..3) {
                    0 => generate::two_way_path(r.gen_range(1..4), 2, &mut r),
                    1 => generate::one_way_path(r.gen_range(1..4), 2, &mut r),
                    _ => generate::connected(r.gen_range(2..5), 1, 2, &mut r),
                })
                .collect();
            let ucq = Ucq::new(disjuncts);
            let g = generate::two_way_path(r.gen_range(1..8), 2, &mut r);
            let h = generate::with_probabilities(g, ProbProfile::half(), &mut r);
            match probability::<Rational>(&ucq, &h) {
                Some((p, route)) => {
                    // A forward-only path instance is also a DWT, so the
                    // DWT route may legitimately win the dispatch.
                    assert_ne!(route, UcqRoute::Trivial, "disjuncts all have edges");
                    assert_eq!(
                        p,
                        bruteforce_probability(&ucq, &h),
                        "trial {trial}, route {route:?}"
                    );
                }
                None => panic!("some route should apply on 2WP instances (trial {trial})"),
            }
        }
    }

    #[test]
    fn adding_disjuncts_is_monotone() {
        let mut r = rng();
        let g = generate::two_way_path(6, 2, &mut r);
        let h = generate::with_probabilities(g, ProbProfile::half(), &mut r);
        let q1 = generate::one_way_path(2, 2, &mut r);
        let q2 = generate::one_way_path(3, 2, &mut r);
        let (p1, _) = probability::<Rational>(&Ucq::new(vec![q1.clone()]), &h).unwrap();
        let (p12, _) = probability::<Rational>(&Ucq::new(vec![q1, q2]), &h).unwrap();
        assert!(p12 >= p1, "a union is at least as likely as a disjunct");
    }

    #[test]
    fn no_route_for_hard_shapes() {
        // A 2WP disjunct on a branching polytree instance: Prop 5.6 says
        // #P-hard; the dispatcher must decline.
        let q = phom_graph::fixtures::figure_4_polytree();
        let ucq = Ucq::new(vec![q]);
        let mut r = rng();
        let g = generate::polytree(8, 1, &mut r);
        let h = generate::with_probabilities(g, ProbProfile::half(), &mut r);
        // (The instance may happen to be a 2WP; retry shape guarantees a
        // branching one quickly, so just check consistency when declined.)
        if let Some((p, _)) = probability::<Rational>(&ucq, &h) {
            assert_eq!(p, bruteforce_probability(&ucq, &h));
        }
    }

    #[test]
    fn singleton_matches_plain_solver_on_dwt() {
        let mut r = rng();
        for _ in 0..10 {
            let g = generate::downward_tree(r.gen_range(2..8), 2, &mut r);
            let h = generate::with_probabilities(g, ProbProfile::half(), &mut r);
            let q = generate::one_way_path(r.gen_range(1..4), 2, &mut r);
            let (p, _) = probability::<Rational>(&Ucq::singleton(q.clone()), &h).unwrap();
            assert_eq!(p, crate::bruteforce::probability(&q, &h));
        }
    }
}
