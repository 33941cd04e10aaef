//! Proposition 4.11: `PHomL(Connected, 2WP)` is PTIME.
//!
//! On a two-way-path instance `a₁ − a₂ − … − a_n`, the image of a
//! homomorphism from a *connected* query is a connected subgraph, i.e. a
//! contiguous subpath `a_i − … − a_j`. Testing `G ⇝ subpath` is tractable
//! because subpaths have the **X-property** w.r.t. the path order
//! (Theorem 4.13): each label's edge relation is closed under
//! coordinatewise minimum, so arc consistency decides the CSP and the
//! minimum of every reduced domain is a homomorphism (`phom_graph::xprop`).
//! Homomorphism existence is monotone in the subpath, so minimal witnesses
//! form an antichain of intervals computable with a two-pointer sweep —
//! `O(n)` window probes instead of `O(n²)`.
//!
//! Each probe runs [`PathWindowMatcher`]: the domains are bitsets over
//! path positions, and a query edge's supports are one-bit shifts of the
//! other endpoint's domain masked by the label's forward/backward step
//! bitsets. A probe touches only the words its window spans, so it costs
//! time proportional to the window, not to the instance, and no subgraph
//! is built.
//!
//! Two evaluation strategies, cross-checked by
//! `tests/solver_vs_bruteforce.rs` (`dp_ablations_agree_with_lineage`):
//!
//! * **Lineage + β-acyclicity** (the paper's proof): one clause per minimal
//!   interval; eliminating edges left-to-right along the path is a
//!   β-elimination order.
//! * **Interval-automaton DP** (timed next to the lineage in the
//!   T2-ptime-b section of `tables`): scan edges left to right
//!   tracking the first interval not yet broken by an absent edge; `O(n·k)`.

use phom_graph::classes::{as_two_way_path, TwoWayPathView};
use phom_graph::xprop::PathWindowMatcher;
use phom_graph::{Graph, ProbGraph};
use phom_lineage::beta::beta_dnf_probability_with_order;
use phom_lineage::Dnf;
use phom_num::Weight;

/// A minimal match interval: the query maps into the subpath spanning edge
/// positions `start ..= end` (positions index the path's steps), and into
/// no proper sub-subpath.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Interval {
    /// First edge position of the subpath.
    pub start: usize,
    /// Last edge position of the subpath.
    pub end: usize,
}

/// Computes the minimal match intervals of a connected query on a 2WP
/// instance. Returns `None` if the query is disconnected, the instance is
/// not a 2WP, or (fast path) the query trivially cannot match.
///
/// The `bool` is true when the query has no edges (matches everywhere).
pub fn minimal_intervals(query: &Graph, instance: &Graph) -> Option<(Vec<Interval>, bool)> {
    minimal_intervals_on(query, &as_two_way_path(instance)?)
}

/// [`minimal_intervals`] on an already extracted path view, so callers
/// that also walk the path's steps derive the view once.
pub(crate) fn minimal_intervals_on(
    query: &Graph,
    view: &TwoWayPathView,
) -> Option<(Vec<Interval>, bool)> {
    if !phom_graph::classify(query).is_connected() {
        return None;
    }
    if query.n_edges() == 0 {
        return Some((Vec::new(), true));
    }
    let mut matcher = PathWindowMatcher::new(query, view);
    let intervals = sweep(view.steps.len(), |i, j| matcher.matches(i, j));
    Some((intervals, false))
}

/// The two-pointer sweep over edge positions `0..n_steps`: `fits(i, j)`
/// decides whether the query maps into the subpath spanning positions
/// `i ..= j`, and must be monotone (a larger window fits whenever a
/// smaller one does). Returns the inclusion-minimal fitting windows.
fn sweep(n_steps: usize, mut fits: impl FnMut(usize, usize) -> bool) -> Vec<Interval> {
    let mut intervals: Vec<Interval> = Vec::new();
    // Two-pointer: hom(i..j) is monotone in j, and the minimal j is
    // nondecreasing in i.
    let mut j = 0usize;
    for i in 0..n_steps {
        if j < i {
            j = i;
        }
        // Find minimal j ≥ max(i, previous j) with a homomorphism.
        let found = loop {
            if fits(i, j) {
                break true;
            }
            if j + 1 >= n_steps {
                break false;
            }
            j += 1;
        };
        // Once no window from i fits up to the path's end, none fits from
        // a later start either: those subpaths are subsets.
        if !found {
            break;
        }
        // Interval [i..j] is a candidate; it is minimal iff the next start
        // needs a strictly larger end (the antichain filter below).
        intervals.push(Interval { start: i, end: j });
    }
    // Keep only inclusion-minimal intervals: for equal ends keep the
    // largest start (ends are nondecreasing in start by construction).
    let mut minimal: Vec<Interval> = Vec::new();
    for w in intervals.windows(2) {
        if w[1].end > w[0].end {
            minimal.push(w[0]);
        }
    }
    if let Some(last) = intervals.last() {
        minimal.push(*last);
    }
    minimal
}

/// The lineage DNF (over the instance's edge ids) plus the left-to-right
/// β-elimination order.
pub fn lineage(query: &Graph, instance: &Graph) -> Option<(Dnf, Vec<usize>)> {
    let view = as_two_way_path(instance)?;
    let (intervals, trivially_true) = minimal_intervals_on(query, &view)?;
    let mut dnf = Dnf::falsum(instance.n_edges());
    if trivially_true {
        dnf.push_clause(Vec::new());
    }
    for iv in intervals {
        let clause: Vec<usize> = view.steps[iv.start..=iv.end]
            .iter()
            .map(|&(e, _, _)| e)
            .collect();
        dnf.push_clause(clause);
    }
    let order: Vec<usize> = view.steps.iter().map(|&(e, _, _)| e).collect();
    Some((dnf, order))
}

/// `Pr(G ⇝ H)` via β-acyclic lineage (the paper's algorithm). Requires a
/// connected query and a connected 2WP instance.
pub fn probability_lineage<W: Weight>(query: &Graph, instance: &ProbGraph) -> Option<W> {
    let (dnf, order) = lineage(query, instance.graph())?;
    if dnf.is_valid() {
        return Some(W::one());
    }
    let probs: Vec<W> = super::lineage_weights(instance);
    Some(
        beta_dnf_probability_with_order(&dnf, &probs, &order)
            .expect("left-to-right is a valid β-elimination order for interval lineages"),
    )
}

/// `Pr(G ⇝ H)` via the interval-automaton DP (ablation). Scans edge
/// positions left to right; the state is the index of the first interval
/// not yet broken by an absent edge (`SAT` is absorbing).
pub fn probability_dp<W: Weight>(query: &Graph, instance: &ProbGraph) -> Option<W> {
    let view = as_two_way_path(instance.graph())?;
    let (intervals, trivially_true) = minimal_intervals_on(query, &view)?;
    if trivially_true {
        return Some(W::one());
    }
    if intervals.is_empty() {
        return Some(W::zero());
    }
    let k = intervals.len();
    // state[t] = Pr[first unbroken interval is t]; sat = absorbed mass.
    let mut state = vec![W::zero(); k + 1]; // k = "all broken"
    state[0] = W::one();
    let mut sat = W::zero();
    for (pos, &(e, _, _)) in view.steps.iter().enumerate() {
        let p = W::from_rational(instance.prob(e));
        let q = p.complement();
        let mut next = vec![W::zero(); k + 1];
        for (t, w) in state.iter().enumerate() {
            if w.is_zero() {
                continue;
            }
            if t < k && intervals[t].start > pos {
                // The edge precedes the open interval: irrelevant.
                next[t] = next[t].add(w);
                continue;
            }
            if t == k {
                // All intervals already broken.
                next[k] = next[k].add(w);
                continue;
            }
            // Present: interval t survives; completed iff pos = end_t.
            if !p.is_zero() {
                let wp = w.mul(&p);
                if intervals[t].end == pos {
                    sat = sat.add(&wp);
                } else {
                    next[t] = next[t].add(&wp);
                }
            }
            // Absent: all intervals containing pos break — advance t to the
            // first interval starting after pos.
            if !q.is_zero() {
                let wq = w.mul(&q);
                let t2 = intervals[t..]
                    .iter()
                    .position(|iv| iv.start > pos)
                    .map_or(k, |off| t + off);
                next[t2] = next[t2].add(&wq);
            }
        }
        state = next;
    }
    Some(sat)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bruteforce;
    use phom_graph::generate;
    use phom_graph::Label;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    const R: Label = Label(0);
    const S: Label = Label(1);

    fn rat(n: u64, d: u64) -> Rational {
        Rational::from_ratio(n, d)
    }

    #[test]
    fn single_edge_on_path() {
        // Instance: a -R→ b ←S- c with probs 1/2, 1/3; query: -R→.
        let h = ProbGraph::new(
            Graph::two_way_path(&[(Dir::Forward, R), (Dir::Backward, S)]),
            vec![rat(1, 2), rat(1, 3)],
        );
        let q = Graph::one_way_path(&[R]);
        assert_eq!(probability_lineage(&q, &h), Some(rat(1, 2)));
        assert_eq!(probability_dp::<Rational>(&q, &h), Some(rat(1, 2)));
    }

    #[test]
    fn two_disjoint_minimal_intervals() {
        // Instance R S R; query R: minimal intervals at positions 0 and 2.
        let h_graph = Graph::one_way_path(&[R, S, R]);
        let (ivs, _) = minimal_intervals(&Graph::one_way_path(&[R]), &h_graph).unwrap();
        assert_eq!(
            ivs,
            vec![Interval { start: 0, end: 0 }, Interval { start: 2, end: 2 }]
        );
        let h = ProbGraph::new(h_graph, vec![rat(1, 2), rat(1, 2), rat(1, 2)]);
        let q = Graph::one_way_path(&[R]);
        // 1 − (1/2)² = 3/4.
        assert_eq!(probability_lineage(&q, &h), Some(rat(3, 4)));
        assert_eq!(probability_dp::<Rational>(&q, &h), Some(rat(3, 4)));
    }

    #[test]
    fn no_match_gives_zero() {
        let h = ProbGraph::certain(Graph::one_way_path(&[R, R]));
        let q = Graph::one_way_path(&[S]);
        assert_eq!(probability_lineage(&q, &h), Some(Rational::zero()));
        assert_eq!(probability_dp::<Rational>(&q, &h), Some(Rational::zero()));
    }

    #[test]
    fn edgeless_query_is_certain() {
        let h = ProbGraph::certain(Graph::one_way_path(&[R]));
        let q = Graph::directed_path(0);
        assert_eq!(probability_lineage(&q, &h), Some(Rational::one()));
        assert_eq!(probability_dp::<Rational>(&q, &h), Some(Rational::one()));
    }

    #[test]
    fn branching_query_on_path() {
        // Query: v ←R u -R→ w (a DWT that folds onto a single R edge).
        let mut b = GraphBuilder::with_vertices(3);
        b.edge(0, 1, R);
        b.edge(0, 2, R);
        let q = b.build();
        let h = ProbGraph::new(Graph::one_way_path(&[R, S]), vec![rat(1, 2), rat(1, 3)]);
        let expect = bruteforce::probability(&q, &h);
        assert_eq!(probability_lineage(&q, &h), Some(expect.clone()));
        assert_eq!(probability_dp::<Rational>(&q, &h), Some(expect));
    }

    #[test]
    fn cyclic_query_never_matches_a_path() {
        let mut b = GraphBuilder::with_vertices(2);
        b.edge(0, 1, R);
        b.edge(1, 0, R);
        let q = b.build();
        let h = ProbGraph::certain(Graph::one_way_path(&[R, R, R]));
        assert_eq!(probability_lineage(&q, &h), Some(Rational::zero()));
    }

    #[test]
    fn random_connected_queries_on_random_2wps_match_brute_force() {
        let mut rng = SmallRng::seed_from_u64(41);
        for _ in 0..150 {
            let h_graph = generate::two_way_path(rng.gen_range(1..8), 2, &mut rng);
            let h = generate::with_probabilities(
                h_graph,
                generate::ProbProfile {
                    certain_ratio: 0.25,
                    denominator: 4,
                },
                &mut rng,
            );
            let q = generate::connected(rng.gen_range(1..5), rng.gen_range(0..2), 2, &mut rng);
            if !phom_graph::classify(&q).is_connected() {
                continue;
            }
            let expect = bruteforce::probability(&q, &h);
            let lin: Rational = probability_lineage(&q, &h).unwrap();
            let dp: Rational = probability_dp(&q, &h).unwrap();
            assert_eq!(lin, expect, "q={q:?} h={:?}", h.graph());
            assert_eq!(dp, expect, "q={q:?} h={:?}", h.graph());
        }
    }

    #[test]
    fn lineage_is_beta_acyclic() {
        let mut rng = SmallRng::seed_from_u64(42);
        for _ in 0..40 {
            let h = generate::two_way_path(rng.gen_range(1..12), 2, &mut rng);
            let q = generate::two_way_path(rng.gen_range(1..4), 2, &mut rng);
            let (dnf, _) = lineage(&q, &h).unwrap();
            assert!(dnf.hypergraph().is_beta_acyclic());
        }
    }

    #[test]
    fn minimal_intervals_form_an_antichain() {
        let mut rng = SmallRng::seed_from_u64(43);
        for _ in 0..60 {
            let h = generate::two_way_path(rng.gen_range(1..10), 2, &mut rng);
            let q = generate::two_way_path(rng.gen_range(1..4), 2, &mut rng);
            let (ivs, _) = minimal_intervals(&q, &h).unwrap();
            for w in ivs.windows(2) {
                assert!(w[0].start < w[1].start && w[0].end < w[1].end, "{ivs:?}");
            }
        }
    }

    /// The probe [`PathWindowMatcher`] replaced, kept as its reference:
    /// the subpath `a_i − … − a_{j+1}` (edge positions `i ..= j`) as a
    /// standalone graph whose vertices are renumbered in path order — so
    /// it has the X-property w.r.t. the identity order, as
    /// `x_property_hom` requires.
    fn subpath_graph(view: &TwoWayPathView, i: usize, j: usize) -> Graph {
        let mut b = GraphBuilder::with_vertices(j - i + 2);
        for (pos, &(_, label, dir)) in view.steps[i..=j].iter().enumerate() {
            match dir {
                Dir::Forward => b.edge(pos, pos + 1, label),
                Dir::Backward => b.edge(pos + 1, pos, label),
            };
        }
        b.build()
    }

    /// A random query over labels `0..=sigma` (so a label may be absent
    /// from an instance over `0..sigma`): a 2WP, a 1WP, or a connected
    /// graph with extra edges, sometimes plus a self-loop or a 2-cycle.
    fn random_query(sigma: u32, rng: &mut SmallRng) -> Graph {
        let base = match rng.gen_range(0..3) {
            0 => generate::two_way_path(rng.gen_range(1..=6), sigma + 1, rng),
            1 => generate::one_way_path(rng.gen_range(1..=5), sigma + 1, rng),
            _ => generate::connected(rng.gen_range(2..=5), rng.gen_range(0..=2), sigma + 1, rng),
        };
        let n = base.n_vertices();
        let mut b = GraphBuilder::with_vertices(n);
        for e in base.edges() {
            b.edge(e.src, e.dst, e.label);
        }
        let label = Label(rng.gen_range(0..=sigma));
        match rng.gen_range(0..8) {
            0 => {
                b.try_edge(rng.gen_range(0..n), rng.gen_range(0..n), label);
            }
            1 => {
                let e = base.edge(rng.gen_range(0..base.n_edges()));
                b.try_edge(e.dst, e.src, label);
            }
            _ => {}
        }
        b.build()
    }

    /// The matcher against the subgraph + `x_property_hom` reference and
    /// (on small cases) backtracking `exists_hom`: window decisions for
    /// every `(i, j)` on short paths, and equal minimal intervals on paths
    /// of up to 140 edges, including 62–66-vertex paths that end at the
    /// word boundary and the one-vertex path.
    #[test]
    fn path_window_matcher_agrees_with_subgraph_reference() {
        use phom_graph::hom::exists_hom;
        use phom_graph::xprop::x_property_hom;
        let mut rng = SmallRng::seed_from_u64(0x411);
        for round in 0..1500 {
            let sigma = rng.gen_range(1..=3);
            let len = match round % 10 {
                0 => 0,
                1 | 2 => rng.gen_range(61..=65),
                3 => rng.gen_range(1..=140),
                _ => rng.gen_range(1..=14),
            };
            let h = generate::two_way_path(len, sigma, &mut rng);
            let view = as_two_way_path(&h).unwrap();
            let q = random_query(sigma, &mut rng);
            let mut matcher = PathWindowMatcher::new(&q, &view);
            let fits = |i, j| x_property_hom(&q, &subpath_graph(&view, i, j)).is_some();
            if len <= 14 {
                let mut all_minimal = Vec::new();
                for i in 0..len {
                    for j in i..len {
                        let expect = fits(i, j);
                        assert_eq!(matcher.matches(i, j), expect, "[{i}, {j}] q={q:?} h={h:?}");
                        if len <= 8 {
                            let sub = subpath_graph(&view, i, j);
                            assert_eq!(exists_hom(&q, &sub), expect, "[{i}, {j}] q={q:?} h={h:?}");
                        }
                        let shrinks = (i < j) && (fits(i + 1, j) || fits(i, j - 1));
                        if expect && !shrinks {
                            all_minimal.push(Interval { start: i, end: j });
                        }
                    }
                }
                if let Some((ivs, trivial)) = minimal_intervals_on(&q, &view) {
                    assert!(!trivial);
                    all_minimal.sort_by_key(|iv| iv.start);
                    assert_eq!(ivs, all_minimal, "q={q:?} h={h:?}");
                }
            } else {
                for _ in 0..8 {
                    let i = rng.gen_range(0..len);
                    let j = rng.gen_range(i..len);
                    assert_eq!(
                        matcher.matches(i, j),
                        fits(i, j),
                        "[{i}, {j}] q={q:?} h={h:?}"
                    );
                }
                if let Some((ivs, _)) = minimal_intervals_on(&q, &view) {
                    assert_eq!(ivs, sweep(len, fits), "q={q:?} h={h:?}");
                }
            }
        }
    }

    use phom_graph::{Dir, GraphBuilder, ProbGraph};
    use phom_num::Rational;
}
