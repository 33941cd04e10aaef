//! The central correctness experiment: on thousands of seeded random
//! inputs drawn from every PTIME cell of Tables 1–3, the dispatcher must
//! (a) accept the input and (b) return exactly the brute-force probability.

use phom::core::bruteforce;
use phom::graph::generate;
use phom::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// One query through a fresh, cacheless engine under `opts`.
fn solve_with(q: &Graph, h: &ProbGraph, opts: SolverOptions) -> Result<Solution, SolveError> {
    Engine::builder()
        .cache_capacity(0)
        .default_options(opts)
        .build(h.clone())
        .solve(q)
}

fn check_exact(q: &Graph, h: &ProbGraph, expected_route: Option<&Route>) {
    let sol = solve_with(q, h, SolverOptions::default()).unwrap_or_else(|e| {
        panic!(
            "solver refused a PTIME-cell input: {e:?}\n q={q:?}\n h={:?}",
            h.graph()
        )
    });
    let expect = bruteforce::probability(q, h);
    assert_eq!(
        sol.probability,
        expect,
        "q={q:?} h={:?} route={:?}",
        h.graph(),
        sol.route
    );
    if let Some(r) = expected_route {
        assert_eq!(&sol.route, r, "q={q:?}");
    }
}

fn profile() -> generate::ProbProfile {
    generate::ProbProfile {
        certain_ratio: 0.3,
        denominator: 4,
    }
}

/// Table 1 / Prop 3.6: arbitrary unlabeled queries on ⊔DWT instances.
#[test]
fn t1_arbitrary_queries_on_dwt_unions() {
    let mut rng = SmallRng::seed_from_u64(1001);
    for _ in 0..150 {
        let q = match rng.gen_range(0..3) {
            0 => generate::graded_query(rng.gen_range(1..7), 2, 3, &mut rng),
            1 => generate::arbitrary(rng.gen_range(1..5), 0.35, 1, &mut rng),
            _ => generate::union_of(rng.gen_range(1..3), &mut rng, |r| {
                generate::polytree(r.gen_range(1..5), 1, r)
            }),
        };
        let h_graph = generate::union_of(rng.gen_range(1..3), &mut rng, |r| {
            generate::downward_tree(r.gen_range(1..6), 1, r)
        });
        let h = generate::with_probabilities(h_graph, profile(), &mut rng);
        check_exact(&q, &h, None);
    }
}

/// Table 1: ⊔1WP and ⊔DWT unlabeled queries on 2WP and PT instances
/// (Prop 5.5 collapse, then Prop 4.11 / Prop 5.4).
#[test]
fn t1_dwt_union_queries_on_two_way_and_polytree_instances() {
    let mut rng = SmallRng::seed_from_u64(1002);
    for _ in 0..120 {
        let q = generate::union_of(rng.gen_range(1..4), &mut rng, |r| {
            if r.gen_bool(0.5) {
                generate::one_way_path(r.gen_range(1..4), 1, r)
            } else {
                generate::downward_tree(r.gen_range(1..6), 1, r)
            }
        });
        let h_graph = if rng.gen_bool(0.5) {
            generate::two_way_path(rng.gen_range(1..8), 1, &mut rng)
        } else {
            generate::polytree(rng.gen_range(1..8), 1, &mut rng)
        };
        let h = generate::with_probabilities(h_graph, profile(), &mut rng);
        check_exact(&q, &h, None);
    }
}

/// Table 2 / Prop 4.10: labeled 1WP queries on (unions of) DWT instances.
#[test]
fn t2_path_queries_on_labeled_dwts() {
    let mut rng = SmallRng::seed_from_u64(1003);
    for _ in 0..150 {
        let h_graph = generate::union_of(rng.gen_range(1..3), &mut rng, |r| {
            generate::downward_tree(r.gen_range(1..7), 2, r)
        });
        let h = generate::with_probabilities(h_graph, profile(), &mut rng);
        let m = rng.gen_range(1..4);
        let q = generate::planted_path_query(h.graph(), m, &mut rng)
            .unwrap_or_else(|| generate::one_way_path(m, 2, &mut rng));
        check_exact(&q, &h, None);
    }
}

/// Table 2 / Prop 4.11: labeled connected queries (trees, zig-zags, cyclic)
/// on (unions of) 2WP instances.
#[test]
fn t2_connected_queries_on_labeled_two_way_paths() {
    let mut rng = SmallRng::seed_from_u64(1004);
    for _ in 0..150 {
        let h_graph = generate::union_of(rng.gen_range(1..3), &mut rng, |r| {
            generate::two_way_path(r.gen_range(1..7), 2, r)
        });
        let h = generate::with_probabilities(h_graph, profile(), &mut rng);
        let q = generate::connected(rng.gen_range(1..5), rng.gen_range(0..3), 2, &mut rng);
        check_exact(&q, &h, None);
    }
}

/// Table 3 / Props 5.4+5.5: unlabeled path and DWT queries on (unions of)
/// polytree instances. The engine matches brute force, and so does each
/// of the three Prop 5.4 pipelines called directly on the query's
/// collapse length, per component, combined by Lemma 3.7.
#[test]
fn t3_path_queries_on_polytrees_all_strategies() {
    use phom::core::algo::components::{combine_connected_query, split_components};
    use phom::core::algo::dwt_instance::collapse_length;
    use phom::core::algo::path_on_pt::{long_path_probability, PtStrategy};
    let mut rng = SmallRng::seed_from_u64(1005);
    for _ in 0..100 {
        let h_graph = generate::union_of(rng.gen_range(1..3), &mut rng, |r| {
            generate::polytree(r.gen_range(1..7), 1, r)
        });
        let h = generate::with_probabilities(h_graph, profile(), &mut rng);
        let q = if rng.gen_bool(0.5) {
            Graph::directed_path(rng.gen_range(1..4))
        } else {
            generate::downward_tree(rng.gen_range(2..6), 1, &mut rng)
        };
        let expect = bruteforce::probability(&q, &h);
        let sol = solve_with(&q, &h, SolverOptions::default()).unwrap();
        assert_eq!(sol.probability, expect, "engine q={q:?}");
        let m = collapse_length(&q).expect("paths and DWTs are graded");
        let components = split_components(&h);
        for strategy in [
            PtStrategy::OptAutomaton,
            PtStrategy::PaperAutomaton,
            PtStrategy::Ddnnf,
        ] {
            let per: Vec<Rational> = components
                .iter()
                .map(|c| long_path_probability(c, m, strategy).expect("polytree component"))
                .collect();
            let p = combine_connected_query(&per);
            assert_eq!(p, expect, "strategy {strategy:?} q={q:?}");
        }
    }
}

/// The DP ablations agree with the lineage pipelines and with brute
/// force everywhere they apply, through the public `algo` routines. The
/// engine's provenance path, which runs the lineage per component, agrees
/// too, and enough inputs reach each of Props 4.10 and 4.11.
#[test]
fn dp_ablations_agree_with_lineage() {
    use phom::core::algo::{connected_on_2wp, path_on_dwt};
    let mut rng = SmallRng::seed_from_u64(1006);
    let mut routes = [0; 2];
    for _ in 0..120 {
        let dwt = rng.gen_bool(0.5);
        let (q, h_graph) = if dwt {
            // Prop 4.10 shape.
            let h = generate::downward_tree(rng.gen_range(1..8), 2, &mut rng);
            (generate::one_way_path(rng.gen_range(1..4), 2, &mut rng), h)
        } else {
            // Prop 4.11 shape.
            let h = generate::two_way_path(rng.gen_range(1..8), 2, &mut rng);
            (generate::connected(rng.gen_range(1..5), 1, 2, &mut rng), h)
        };
        let h = generate::with_probabilities(h_graph, profile(), &mut rng);
        let expect = bruteforce::probability(&q, &h);
        let (dp, lineage): (Option<Rational>, Option<Rational>) = if dwt {
            (
                path_on_dwt::probability_dp(&q, &h),
                path_on_dwt::probability_lineage(&q, &h),
            )
        } else {
            (
                connected_on_2wp::probability_dp(&q, &h),
                connected_on_2wp::probability_lineage(&q, &h),
            )
        };
        assert_eq!(dp.as_ref(), Some(&expect), "dp q={q:?}");
        assert_eq!(lineage.as_ref(), Some(&expect), "lineage q={q:?}");

        let sol = solve_with(
            &q,
            &h,
            SolverOptions {
                want_provenance: true,
                ..Default::default()
            },
        )
        .unwrap_or_else(|e| panic!("q={q:?}: {e:?}"));
        assert_eq!(sol.probability, expect, "engine q={q:?} {:?}", sol.route);
        match sol.route {
            Route::Prop410 => routes[0] += 1,
            Route::Prop411 => routes[1] += 1,
            _ => {}
        }
    }
    // Queries with one label collapse to the unlabeled routes; enough
    // of the rest must reach each route.
    assert!(
        routes.iter().all(|&n| n >= 10),
        "engine answers per route: {routes:?}"
    );
}

/// Lemma 3.7: disconnected instances are handled exactly, including
/// instances with isolated vertices and certain/impossible edges.
#[test]
fn disconnected_instances_compose() {
    let mut rng = SmallRng::seed_from_u64(1007);
    for _ in 0..100 {
        let h_graph = generate::union_of(3, &mut rng, |r| {
            generate::two_way_path(r.gen_range(1..4), 2, r)
        });
        // Mix in probability-0 and probability-1 edges explicitly.
        let probs: Vec<Rational> = (0..h_graph.n_edges())
            .map(|_| match rng.gen_range(0..4) {
                0 => Rational::zero(),
                1 => Rational::one(),
                _ => Rational::from_ratio(rng.gen_range(1..4), 4),
            })
            .collect();
        let h = ProbGraph::new(h_graph, probs);
        let q = generate::connected(rng.gen_range(1..4), 0, 2, &mut rng);
        check_exact(&q, &h, None);
    }
}

/// Monotonicity: increasing an edge probability never decreases
/// Pr(G ⇝ H) — checked through the solver on tractable inputs.
#[test]
fn probability_is_monotone_in_edge_probabilities() {
    let mut rng = SmallRng::seed_from_u64(1008);
    for _ in 0..60 {
        let tree = generate::downward_tree(rng.gen_range(2..8), 2, &mut rng);
        let h1 = generate::with_probabilities(tree.clone(), profile(), &mut rng);
        // h2: bump one random edge's probability.
        let e = rng.gen_range(0..tree.n_edges());
        let mut probs = h1.probs().to_vec();
        probs[e] = probs[e].add(&probs[e].one_minus().mul(&Rational::from_ratio(1, 2)));
        let h2 = ProbGraph::new(tree, probs);
        let q = generate::one_way_path(rng.gen_range(1..4), 2, &mut rng);
        let p1 = solve_with(&q, &h1, SolverOptions::default())
            .unwrap()
            .probability;
        let p2 = solve_with(&q, &h2, SolverOptions::default())
            .unwrap()
            .probability;
        assert!(p2 >= p1, "q={q:?}");
    }
}

/// Edges with probability 0 and 1 flow through every tractable route.
#[test]
fn extreme_probabilities_on_all_routes() {
    let mut rng = SmallRng::seed_from_u64(1009);
    for _ in 0..80 {
        let (q, h_graph) = match rng.gen_range(0..4) {
            0 => (
                generate::graded_query(4, 2, 3, &mut rng),
                generate::downward_tree(rng.gen_range(1..7), 1, &mut rng),
            ),
            1 => (
                generate::one_way_path(2, 2, &mut rng),
                generate::downward_tree(rng.gen_range(2..7), 2, &mut rng),
            ),
            2 => (
                generate::connected(3, 1, 2, &mut rng),
                generate::two_way_path(rng.gen_range(2..7), 2, &mut rng),
            ),
            _ => (
                Graph::directed_path(2),
                generate::polytree(rng.gen_range(2..7), 1, &mut rng),
            ),
        };
        let probs: Vec<Rational> = (0..h_graph.n_edges())
            .map(|_| match rng.gen_range(0..3) {
                0 => Rational::zero(),
                1 => Rational::one(),
                _ => Rational::from_ratio(1, 2),
            })
            .collect();
        let h = ProbGraph::new(h_graph, probs);
        check_exact(&q, &h, None);
    }
}
