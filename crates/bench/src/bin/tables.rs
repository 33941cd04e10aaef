//! The experiment harness: regenerates the evidence behind every cell of
//! the paper's Tables 1–3 as Markdown tables on stdout, one section per cell.
//!
//! * PTIME cells → runtime sweeps (f64 weights) demonstrating polynomial
//!   scaling, after the algorithms have been proven exact against brute
//!   force by the test suite;
//! * #P-hard cells → reduction identities verified end to end, the
//!   (polynomial) construction sizes, and the exponential blowup of the
//!   only available solver.
//!
//! Run with: `cargo run --release -p phom-bench --bin tables`
//!
//! `tables --json` instead times the paper's tractable algorithms (Props
//! 3.6, 4.10, 4.11 and 5.4, plus re-evaluation of a prebuilt Prop 4.11
//! circuit, uncached `Float` requests on the Prop 3.6, 4.10 and 5.4
//! instances through the engine, and an uncached `Exact` Prop 3.6 request
//! on non-dyadic probabilities), plus the Monte-Carlo estimate that
//! answers a hard cell (`hard_estimate_engine`), and emits one JSON
//! document (schema `phom-bench-smoke/v1`, one `{"id", "n",
//! "median_ns"}` entry per line).
//! `bench_gate` compares it against a committed `BENCH_*.json` baseline.

use phom_bench as wl;
use phom_core::algo::path_on_pt::{self, PtStrategy};
use phom_core::algo::{connected_on_2wp, dwt_instance as p36, path_on_dwt};
use phom_core::bruteforce;
use phom_core::{Budget, Engine, OnHard, Precision, Request, Response, Route};
use phom_graph::{Graph, GraphBuilder, Label, ProbGraph};
use phom_num::Rational;
use phom_num::Weight as _;
use phom_reductions::edge_cover::Bipartite;
use phom_reductions::pp2dnf::Pp2Dnf;
use phom_reductions::{prop33, prop34, prop41, prop56};
use rand::rngs::SmallRng;
use rand::SeedableRng;

const REPS: usize = 5;

fn sweep(label: &str, sizes: &[usize], mut run: impl FnMut(usize) -> f64) {
    print!("| {label} |");
    let mut prev: Option<f64> = None;
    for &n in sizes {
        let d = wl::time_median(REPS, || run(n));
        let secs = d.as_secs_f64();
        let ratio = prev
            .map(|p| format!(" (×{:.1})", secs / p))
            .unwrap_or_default();
        print!(" {}{ratio} |", wl::fmt_duration(d));
        prev = Some(secs);
    }
    println!();
}

fn header(sizes: &[usize], kind: &str) {
    print!("| algorithm |");
    for n in sizes {
        print!(" {kind}={n} |");
    }
    println!();
    print!("|---|");
    for _ in sizes {
        print!("---|");
    }
    println!();
}

/// One smoke-mode measurement: label, workload size, median per-call time.
fn json_entry(out: &mut Vec<String>, id: &str, n: usize, mut run: impl FnMut() -> f64) {
    let d = wl::time_median(REPS, &mut run);
    out.push(format!(
        "    {{\"id\": \"{id}\", \"n\": {n}, \"median_ns\": {}}}",
        d.as_nanos()
    ));
}

/// One uncached `Float{1e-6}` probability request through an [`Engine`]
/// over `instance`, as a timing closure returning the served value. It
/// panics unless the request is served approximately by a route that
/// `is_route` accepts.
fn float_request(
    instance: ProbGraph,
    query: Graph,
    is_route: fn(&Route) -> bool,
) -> impl FnMut() -> f64 {
    let engine = Engine::builder().cache_capacity(0).build(instance);
    let request = [Request::probability(query).precision(Precision::Float { max_rel_err: 1e-6 })];
    move || match &engine.submit(&request)[0] {
        Ok(Response::Approximate { value, route, .. }) if is_route(route) => *value,
        other => panic!("not a float answer of the expected route: {other:?}"),
    }
}

/// The `--json` smoke mode: the paper-algorithm timings in
/// machine-readable form (one JSON document on stdout).
fn json_smoke() {
    let mut entries = Vec::new();

    // Prop 3.6: level collapse + tree DP.
    let q36 = wl::graded_query(12);
    let m36 = p36::collapse_length(&q36).unwrap();
    let h36 = wl::dwt_union_instance(512, 1);
    json_entry(&mut entries, "prop36_dwt_dp", 512, || {
        let parts = phom_core::algo::components::split_components(&h36);
        parts
            .iter()
            .map(|hc| p36::dwt_long_path_probability::<f64>(hc, m36).unwrap())
            .fold(1.0, |acc, p| acc * (1.0 - p))
    });

    // The same Prop 3.6 instance and query through the engine's float
    // tier: one uncached `Float{1e-6}` request per call (plan, DP over
    // `ErrF64` per component, Lemma 3.7 combination).
    json_entry(
        &mut entries,
        "prop36_engine_float",
        512,
        float_request(wl::dwt_union_instance(512, 1), q36.clone(), |r| {
            *r == Route::Prop36
        }),
    );

    // The Prop 3.6 DP in exact arithmetic, on the same graph with
    // probabilities k/10: one uncached `Exact` request per call. Its
    // rationals do not stay dyadic, so their gcds are not one shift.
    {
        let engine = Engine::builder()
            .cache_capacity(0)
            .build(wl::dwt_union_instance_over(512, 1, 10));
        let request = [Request::probability(q36.clone()).precision(Precision::Exact)];
        json_entry(
            &mut entries,
            "prop36_engine_exact_nondyadic",
            512,
            || match &engine.submit(&request)[0] {
                Ok(Response::Probability(sol)) if sol.route == Route::Prop36 => {
                    sol.probability.to_f64()
                }
                other => panic!("not an exact Prop 3.6 answer: {other:?}"),
            },
        );
    }

    // Prop 4.10: β-acyclic lineage on a labeled DWT.
    {
        let h = wl::dwt_instance(1024, 4);
        let q = wl::planted_query(&h, 6);
        json_entry(&mut entries, "prop410_beta_lineage", 1024, || {
            path_on_dwt::probability_lineage::<f64>(&q, &h).unwrap()
        });
    }

    // Prop 4.10 through the engine's float tier, at the size of a
    // serving request (a 48-vertex 2-label DWT, a planted 4-edge path):
    // compile the run-length circuit, then one certified float pass.
    {
        let h = wl::dwt_instance(48, 2);
        let q = wl::planted_query(&h, 4);
        json_entry(
            &mut entries,
            "prop410_engine_float",
            48,
            float_request(h, q, |r| *r == Route::Prop410),
        );
    }

    // Prop 4.11: X-property + β-acyclic lineage on a 2WP.
    let q411 = wl::connected_query(4, 2);
    let h411 = wl::twp_instance(1024, 2);
    json_entry(&mut entries, "prop411_beta_lineage", 1024, || {
        connected_on_2wp::probability_lineage::<f64>(&q411, &h411).unwrap()
    });

    // Prop 4.11 via the provenance engine, on a query planted so the
    // circuit is non-trivial: compile + one evaluation through the
    // unified semiring pass.
    {
        let h = wl::twp_instance(1024, 2);
        let planted = wl::planted_query(&h, 4);
        json_entry(&mut entries, "prop411_engine_circuit", 1024, || {
            let (circuit, root) =
                phom_core::algo::lineage_circuits::match_circuit_2wp(&planted, h.graph())
                    .expect("2WP circuit");
            let probs: Vec<f64> = h.probs().iter().map(|p| p.to_f64()).collect();
            circuit.probability::<f64>(root, &probs)
        });

        // Engine re-evaluation on the prebuilt circuit (the batched /
        // caching hot path the ROADMAP targets): excludes compilation.
        let (circuit, root) =
            phom_core::algo::lineage_circuits::match_circuit_2wp(&planted, h.graph())
                .expect("2WP circuit");
        let probs: Vec<f64> = h.probs().iter().map(|p| p.to_f64()).collect();
        json_entry(
            &mut entries,
            "engine_eval_prebuilt",
            circuit.n_gates(),
            || circuit.probability::<f64>(root, &probs),
        );

        // The float tier's steady-state path on the same circuit:
        // flat-slab compilation plus one certified `ErrF64` pass —
        // everything the engine's `Float`/`Auto` tier pays per deferred
        // root batch once the plan exists (the exact entry above pays
        // the circuit compilation on every call; the tier's point is
        // that serving amortizes the plan and re-runs only this).
        json_entry(&mut entries, "prop411_float_circuit", 1024, || {
            let flat = phom_lineage::FlatArena::compile(&circuit, &[root]);
            let leaves: Vec<phom_num::ErrF64> = h
                .probs()
                .iter()
                .map(phom_num::ErrF64::from_rational)
                .collect();
            let mut values = Vec::new();
            let out = flat.eval_err_many(&leaves, &mut values);
            out[0].value()
        });

        // The same slab loop over the prebuilt root's compiled cone —
        // the counterpart of engine_eval_prebuilt's whole-store pass,
        // without the error tracking of prop411_float_circuit.
        let flat = phom_lineage::FlatArena::compile(&circuit, &[root]);
        let mut values = Vec::new();
        json_entry(
            &mut entries,
            "engine_eval_f64_prebuilt",
            flat.n_ops(),
            || flat.eval_f64_many(&probs, &mut values)[0],
        );
    }

    // Prop 5.4: optimized automaton on a polytree.
    json_entry(&mut entries, "prop54_opt_automaton", 1024, || {
        let h = wl::polytree_instance(1024, 1);
        path_on_pt::long_path_probability::<f64>(&h, 6, PtStrategy::OptAutomaton).unwrap()
    });

    // The same Prop 5.4 instance and path through the engine's float
    // tier, as prop36_engine_float.
    json_entry(
        &mut entries,
        "prop54_engine_float",
        1024,
        float_request(
            wl::polytree_instance(1024, 1),
            Graph::directed_path(6),
            |r| matches!(r, Route::Prop54 { .. }),
        ),
    );

    // The sampling fallback of the hard cells: one uncached
    // `OnHard::Estimate` request for a 1-edge path on the 2-cycle
    // (Prop 5.1's hard cell), 1500 sampled worlds, each checked by the
    // request's planned homomorphism search.
    {
        let mut b = GraphBuilder::with_vertices(2);
        b.edge(0, 1, Label::UNLABELED);
        b.edge(1, 0, Label::UNLABELED);
        let cycle = ProbGraph::new(b.build(), vec![Rational::from_ratio(1, 2); 2]);
        let engine = Engine::builder().cache_capacity(0).build(cycle);
        let request = [Request::probability(Graph::directed_path(1))
            .on_hard(OnHard::Estimate)
            .budget(Budget::unlimited().with_samples(1500))];
        json_entry(
            &mut entries,
            "hard_estimate_engine",
            1500,
            || match &engine.submit(&request)[0] {
                Ok(Response::Estimate { lo, hi, .. }) => (lo + hi) / 2.0,
                other => panic!("not an estimate: {other:?}"),
            },
        );
    }

    println!("{{");
    println!("  \"schema\": \"phom-bench-smoke/v1\",");
    println!("  \"reps\": {REPS},");
    println!("  \"results\": [");
    println!("{}", entries.join(",\n"));
    println!("  ]");
    println!("}}");
}

fn main() {
    if std::env::args().skip(1).any(|a| a == "--json") {
        json_smoke();
        return;
    }
    println!("# Regenerated evidence for Tables 1–3\n");
    println!("(times: per-call median of {REPS} samples, f64 weights; exactness of every");
    println!("algorithm is separately established against brute force by the");
    println!("test suite)\n");

    // ================================================================
    println!("## Table 1 — PHom (unlabeled), disconnected queries\n");

    println!("### T1-ptime-a (Prop 3.6): arbitrary graded queries on ⊔DWT instances");
    let sizes = [128usize, 512, 2048, 8192];
    header(&sizes, "n");
    let q = wl::graded_query(12);
    sweep("Prop 3.6 (level collapse + tree DP)", &sizes, |n| {
        let h = wl::dwt_union_instance(n, 1);
        let m = p36::collapse_length(&q).unwrap();
        let parts = phom_core::algo::components::split_components(&h);
        parts
            .iter()
            .map(|hc| p36::dwt_long_path_probability::<f64>(hc, m).unwrap())
            .fold(1.0, |acc, p| acc * (1.0 - p))
    });
    println!();

    println!("### T1-ptime-b (Prop 5.5 + 5.4/4.11): ⊔DWT queries on 2WP and PT instances");
    header(&sizes, "n");
    let q = wl::dwt_union_query(8);
    let collapsed = phom_core::algo::collapse::collapse_union_dwt_query(&q).unwrap();
    let m = collapsed.n_edges();
    sweep("collapse + automaton on PT", &sizes, |n| {
        let h = wl::polytree_instance(n, 1);
        path_on_pt::long_path_probability::<f64>(&h, m, PtStrategy::OptAutomaton).unwrap()
    });
    sweep("collapse + Prop 4.11 on 2WP", &sizes, |n| {
        let h = wl::twp_instance(n, 1);
        connected_on_2wp::probability_lineage::<f64>(&collapsed, &h).unwrap()
    });
    println!();

    println!("### T1-hard-a (Prop 3.4): (⊔2WP, 2WP) — reduction + brute-force blowup");
    {
        let mut rng = SmallRng::seed_from_u64(wl::SEED);
        let mut checked = 0;
        for _ in 0..10 {
            let gamma = Bipartite::random_covered(2, 2, 1, &mut rng);
            if gamma.m() <= 7 {
                let red = prop34::reduce(&gamma);
                assert_eq!(
                    red.count_via_brute_force(),
                    gamma.count_edge_covers_brute_force()
                );
                checked += 1;
            }
        }
        println!("- identity #EC = Pr·2^m verified on {checked} random graphs (plus the");
        println!("  exhaustive nl=nr=2 sweep in tests/reductions_end_to_end.rs)");
        println!("| uncertain edges | brute-force time |");
        println!("|---|---|");
        for m in [4usize, 6, 8, 9] {
            let gamma = Bipartite::random_covered(m / 2, m / 2, m / 3, &mut rng);
            let red = prop34::reduce(&gamma);
            let d = wl::time_median(3, || red.count_via_brute_force());
            println!(
                "| {} | {} |",
                red.instance.uncertain_edges().len(),
                wl::fmt_duration(d)
            );
        }
    }
    println!();

    println!("### T1-hard-b (Prop 5.1): (⊔1WP, Connected) — →→ on connected instances");
    println!("| uncertain edges | brute-force time |");
    println!("|---|---|");
    let q2 = Graph::directed_path(2);
    for n in [6usize, 8, 10, 12] {
        let h = wl::connected_instance(n, 1);
        let d = wl::time_median(3, || bruteforce::probability(&q2, &h));
        println!(
            "| {} | {} |",
            h.uncertain_edges().len(),
            wl::fmt_duration(d)
        );
    }
    println!();

    // ================================================================
    println!("## Table 2 — PHom (labeled), connected queries\n");

    println!("### T2-ptime-a (Prop 4.10): 1WP queries on labeled DWT instances");
    header(&sizes, "n");
    sweep("β-acyclic lineage (m=6)", &sizes, |n| {
        let h = wl::dwt_instance(n, 4);
        let q = wl::planted_query(&h, 6);
        path_on_dwt::probability_lineage::<f64>(&q, &h).unwrap()
    });
    sweep("direct run-length DP (m=6)", &sizes, |n| {
        let h = wl::dwt_instance(n, 4);
        let q = wl::planted_query(&h, 6);
        path_on_dwt::probability_dp::<f64>(&q, &h).unwrap()
    });
    let msizes = [2usize, 8, 32, 128];
    header(&msizes, "m");
    sweep(
        "lineage across query length (deep unlabeled DWT, n=2048)",
        &msizes,
        |m| {
            // σ = 1 so every deep-enough vertex contributes a clause of size m
            // (the dense-match regime where the m-dependence is visible).
            let h = wl::deep_dwt_instance(2048, 1);
            let q = wl::planted_query(&h, m);
            assert_eq!(q.n_edges(), m, "planted query must exist at this depth");
            path_on_dwt::probability_lineage::<f64>(&q, &h).unwrap()
        },
    );
    println!();

    println!("### T2-ptime-b (Prop 4.11): connected queries on labeled 2WP instances");
    let qsizes = [64usize, 256, 1024, 4096];
    header(&qsizes, "n");
    let q = wl::connected_query(4, 2);
    sweep("X-property + β-acyclic lineage", &qsizes, |n| {
        let h = wl::twp_instance(n, 2);
        connected_on_2wp::probability_lineage::<f64>(&q, &h).unwrap()
    });
    sweep("X-property + interval DP", &qsizes, |n| {
        let h = wl::twp_instance(n, 2);
        connected_on_2wp::probability_dp::<f64>(&q, &h).unwrap()
    });
    println!();

    println!("### T2-hard-a (Prop 4.1): (1WP, PT) — reduction + blowup");
    {
        let phi = Pp2Dnf::figure_7_formula();
        let red = prop41::reduce(&phi);
        println!(
            "- Figure 7 identity: #φ = {} = Pr·2⁴ recovered exactly ✓",
            red.count_via_brute_force()
        );
        println!("| construction input (vars) | instance edges | build time | brute-force time |");
        println!("|---|---|---|---|");
        let mut rng = SmallRng::seed_from_u64(wl::SEED);
        for vars in [6usize, 8, 10, 12] {
            let phi = Pp2Dnf::random(vars / 2, vars / 2, vars, &mut rng);
            let build = wl::time_median(3, || prop41::reduce(&phi));
            let red = prop41::reduce(&phi);
            let eval = wl::time_median(3, || red.count_via_brute_force());
            println!(
                "| {vars} | {} | {} | {} |",
                red.instance.graph().n_edges(),
                wl::fmt_duration(build),
                wl::fmt_duration(eval)
            );
        }
    }
    println!();

    println!("### T2-hard-b (Props 4.4/4.5, via [3]): (DWT/2WP, DWT) — brute-force blowup");
    println!("(no executable reduction: the construction lives in reference [3].");
    println!("Brute force doubles per uncertain edge:)");
    println!("| uncertain edges | brute-force time |");
    println!("|---|---|");
    {
        let mut rng = SmallRng::seed_from_u64(wl::SEED ^ 44);
        for n in [9usize, 11, 13, 15] {
            let h = phom_graph::generate::with_probabilities(
                phom_graph::generate::downward_tree(n, 2, &mut rng),
                phom_graph::generate::ProbProfile::half(),
                &mut rng,
            );
            let q = phom_graph::generate::two_way_path(3, 2, &mut rng);
            let d = wl::time_median(3, || bruteforce::probability(&q, &h));
            println!(
                "| {} | {} |",
                h.uncertain_edges().len(),
                wl::fmt_duration(d)
            );
        }
    }
    println!();

    println!("### T2-hard-c (Prop 3.3, §3.1): (⊔1WP, 1WP) — reduction + blowup");
    {
        let gamma = Bipartite::figure_5_graph();
        let red = prop33::reduce(&gamma);
        println!(
            "- Figure 5 identity: #EC = {} = Pr·2⁴ recovered exactly ✓",
            red.count_via_brute_force()
        );
        println!("| bipartite edges m | brute-force time |");
        println!("|---|---|");
        let mut rng = SmallRng::seed_from_u64(wl::SEED);
        for m in [6usize, 8, 10, 12] {
            let gamma = Bipartite::random_covered(m / 2, m / 2, m / 3, &mut rng);
            let red = prop33::reduce(&gamma);
            let d = wl::time_median(3, || red.count_via_brute_force());
            println!(
                "| {} | {} |",
                red.instance.uncertain_edges().len(),
                wl::fmt_duration(d)
            );
        }
    }
    println!();

    // ================================================================
    println!("## Table 3 — PHom (unlabeled), connected queries\n");

    println!("### T3-ptime-a (Prop 5.4): 1WP queries on polytrees — three pipelines");
    header(&sizes, "n");
    for (name, strat) in [
        (
            "paper ⟨↑,↓,Max⟩ automaton (m=6)",
            PtStrategy::PaperAutomaton,
        ),
        (
            "optimized ⟨↑,↓,sat⟩ automaton (m=6)",
            PtStrategy::OptAutomaton,
        ),
        ("opt automaton → d-DNNF (m=6)", PtStrategy::Ddnnf),
    ] {
        sweep(name, &sizes, |n| {
            let h = wl::polytree_instance(n, 1);
            path_on_pt::long_path_probability::<f64>(&h, 6, strat).unwrap()
        });
    }
    let msweep = [2usize, 4, 8, 16, 32];
    header(&msweep, "m");
    sweep("paper automaton across m (deep PT, n=1024)", &msweep, |m| {
        let h = wl::deep_polytree_instance(1024);
        path_on_pt::long_path_probability::<f64>(&h, m, PtStrategy::PaperAutomaton).unwrap()
    });
    sweep("opt automaton across m (deep PT, n=1024)", &msweep, |m| {
        let h = wl::deep_polytree_instance(1024);
        path_on_pt::long_path_probability::<f64>(&h, m, PtStrategy::OptAutomaton).unwrap()
    });
    print!("| d-DNNF size (gates) across m (deep PT, n=1024) |");
    for &m in &msweep {
        let h = wl::deep_polytree_instance(1024);
        let (gates, _) = path_on_pt::ddnnf_size(&h, m).unwrap();
        print!(" {gates} |");
    }
    println!("\n");

    println!("### T3-hard-a (Prop 5.6): (2WP, PT) — reduction + blowup");
    {
        let phi = Pp2Dnf::figure_7_formula();
        let red = prop56::reduce(&phi);
        println!(
            "- Figure 8 identity: #φ = {} = Pr·2⁴ recovered exactly ✓",
            red.count_via_brute_force()
        );
        println!("| variables | instance edges | brute-force time |");
        println!("|---|---|---|");
        let mut rng = SmallRng::seed_from_u64(wl::SEED);
        for vars in [4usize, 6, 8, 10] {
            let phi = Pp2Dnf::random(vars / 2, vars / 2, vars / 2, &mut rng);
            let red = prop56::reduce(&phi);
            let d = wl::time_median(3, || red.count_via_brute_force());
            println!(
                "| {vars} | {} | {} |",
                red.instance.graph().n_edges(),
                wl::fmt_duration(d)
            );
        }
    }
    // ------------------------------------------------------------------
    println!("\n## Section 6 extensions (EXT-3, EXT-4, EXT-6)\n");

    println!("### EXT-3: bounded-treewidth walk DP (⊔DWT queries ≡ →^m on any instance)");
    {
        let layers_sweep = [8usize, 16, 32, 64];
        header(&layers_sweep, "layers");
        sweep(
            "walk DP, width-2 mesh, m=6 (f64)",
            &layers_sweep,
            |layers| {
                let h = wl::mesh_instance(layers, 2);
                let nice = phom_graph::treedecomp::NiceDecomposition::heuristic(h.graph());
                phom_core::algo::walk_on_tw::long_walk_probability::<f64>(&h, 6, &nice)
            },
        );
        print!("| decomposition width found |");
        for &layers in &layers_sweep {
            let h = wl::mesh_instance(layers, 2);
            let nice = phom_graph::treedecomp::NiceDecomposition::heuristic(h.graph());
            print!(" {} |", nice.width());
        }
        println!();
        println!("- exactness: equals brute force / the Prop 5.4 automata on all");
        println!("  cross-checked inputs (tests/extensions_end_to_end.rs)");
    }
    println!();

    println!("### EXT-4: unions of conjunctive queries (union lineage on DWT)");
    {
        let ksweep = [1usize, 2, 4, 8];
        header(&ksweep, "disjuncts");
        sweep("UCQ union lineage (DWT n=1024, f64)", &ksweep, |k| {
            let ucq = phom_core::ucq::Ucq::new(wl::ucq_path_disjuncts(k, 4));
            let h = wl::dwt_instance(1024, 4);
            phom_core::ucq::probability::<f64>(&ucq, &h)
                .expect("DWT route")
                .0
        });
    }
    println!();

    println!("### EXT-6: all-edge influences — gradient pass vs conditioning");
    {
        let nsweep = [64usize, 256];
        header(&nsweep, "n");
        sweep("circuit gradient (2WP, one pass)", &nsweep, |n| {
            let h = wl::twp_instance(n, 2);
            let q = wl::connected_query(3, 2);
            phom_core::sensitivity::influences::<f64>(&q, &h)
                .expect("2WP route")
                .0[0]
        });
        sweep("conditioning (2·|E| DP solves)", &nsweep, |n| {
            let h = wl::twp_instance(n, 2);
            let q = wl::connected_query(3, 2);
            phom_core::sensitivity::influences_by_conditioning::<f64>(&h, |inst| {
                connected_on_2wp::probability_dp::<f64>(&q, inst).expect("2WP instance")
            })[0]
        });
    }

    println!("\nDone. All identities above were also verified exhaustively by the test suite.");
}
