//! The float tier's differential acceptance suite: for hundreds of
//! randomized (instance, query) pairs spanning every tractable route of
//! the Tables 1–3 dispatcher,
//!
//! * `Precision::Float` answers must carry a **certified** relative-error
//!   bound that really contains the exact answer;
//! * `Precision::Auto` must serve the float answer when the bound is
//!   within tolerance and otherwise escalate to an exact answer that is
//!   **bit-for-bit identical** to what `Precision::Exact` returns — the
//!   escalated pass is the same rational pass, so the tier can never
//!   change an exact answer;
//! * errors (hard cells, invalid queries) must be identical across tiers;
//! * a metered request (deadline or gate budget) that finishes within its
//!   limits answers byte-identically to its unmetered twin, in every tier.

use phom::prelude::*;
use phom_graph::generate::{self, ProbProfile};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::time::Duration;

/// A random instance spanning every column of the paper's tables.
fn random_instance(rng: &mut SmallRng, profile: ProbProfile) -> ProbGraph {
    let g = match rng.gen_range(0..6) {
        0 => generate::two_way_path(rng.gen_range(2..10), 2, rng),
        1 => generate::downward_tree(rng.gen_range(2..10), 2, rng),
        2 => generate::union_of(2, rng, |r| generate::downward_tree(r.gen_range(2..5), 1, r)),
        3 => generate::polytree(rng.gen_range(3..10), 1, rng),
        4 => generate::two_way_path(rng.gen_range(2..8), 1, rng),
        _ => generate::connected(rng.gen_range(2..5), 1, 2, rng),
    };
    generate::with_probabilities(g, profile, rng)
}

/// A random query spanning every row.
fn random_query(h: &ProbGraph, rng: &mut SmallRng) -> Graph {
    match rng.gen_range(0..8) {
        0 => Graph::directed_path(rng.gen_range(0..3)),
        1 => Graph::one_way_path(&[Label(9)]), // label absent ⇒ Pr 0
        2 => generate::one_way_path(rng.gen_range(1..4), 2, rng),
        3 => generate::planted_path_query(h.graph(), rng.gen_range(1..4), rng)
            .unwrap_or_else(|| generate::one_way_path(2, 2, rng)),
        4 => generate::two_way_path(rng.gen_range(1..4), 1, rng),
        5 => generate::graded_query(rng.gen_range(2..6), 2, 2, rng),
        6 => generate::connected(rng.gen_range(2..5), 1, 2, rng),
        _ => generate::union_of(2, rng, |r| generate::downward_tree(r.gen_range(1..4), 1, r)),
    }
}

/// A float answer must contain the exact answer within its certified
/// bound: `|value − exact| ≤ rel_err_bound · |value|`, plus a half-ulp
/// slop for the `to_f64` rounding of the exact anchor itself.
fn assert_bound_holds(value: f64, rel_err_bound: f64, exact: f64, ctx: &str) {
    assert!(
        !rel_err_bound.is_nan() && rel_err_bound >= 0.0,
        "{ctx}: bad bound {rel_err_bound}"
    );
    // A computed 0 with a nonzero absolute error has no finite relative
    // bound — the honest infinite bound certifies nothing to check here.
    if rel_err_bound.is_infinite() {
        return;
    }
    let slack = rel_err_bound * value.abs() + f64::EPSILON * exact.abs() + f64::MIN_POSITIVE;
    assert!(
        (value - exact).abs() <= slack,
        "{ctx}: float {value} vs exact {exact}, certified rel err {rel_err_bound}"
    );
}

/// The headline suite: ≥500 randomized cases, three tiers each.
#[test]
fn float_tier_is_certified_and_auto_escalates_bit_for_bit() {
    let mut rng = SmallRng::seed_from_u64(0xF10A7);
    let mut cases = 0usize;
    let mut float_served = 0usize;
    let mut escalated = 0usize;
    for trial in 0..140 {
        let profile = if trial % 3 == 0 {
            ProbProfile::half()
        } else {
            ProbProfile::default()
        };
        let h = random_instance(&mut rng, profile);
        let queries: Vec<Graph> = (0..4).map(|_| random_query(&h, &mut rng)).collect();
        // Tolerance varies per trial: generous, tight, and impossible —
        // the impossible one forces Auto to escalate whenever the float
        // pass has any rounding error at all.
        let tol = [1e-2, 1e-9, 0.0][trial % 3];

        // Three engines so no tier can hide behind another's cache.
        let exact_engine = Engine::new(h.clone());
        let float_engine = Engine::new(h.clone());
        let auto_engine = Engine::new(h.clone());

        let exact_reqs: Vec<Request> = queries
            .iter()
            .map(|q| Request::probability(q.clone()))
            .collect();
        let float_reqs: Vec<Request> = queries
            .iter()
            .map(|q| {
                Request::probability(q.clone()).precision(Precision::Float { max_rel_err: tol })
            })
            .collect();
        let auto_reqs: Vec<Request> = queries
            .iter()
            .map(|q| {
                Request::probability(q.clone()).precision(Precision::Auto { max_rel_err: tol })
            })
            .collect();

        let exact = exact_engine.submit(&exact_reqs);
        let float = float_engine.submit(&float_reqs);
        let (auto, auto_stats) = auto_engine.submit_stats(&auto_reqs);
        escalated += auto_stats.escalations;

        for (i, ((e, f), a)) in exact.iter().zip(&float).zip(&auto).enumerate() {
            cases += 1;
            let ctx = format!("trial {trial}, query {i}, tol {tol}");
            match (e, f) {
                // Float always answers approximately on success…
                (
                    Ok(Response::Probability(sol)),
                    Ok(Response::Approximate {
                        value,
                        rel_err_bound,
                        route,
                    }),
                ) => {
                    float_served += 1;
                    assert_bound_holds(*value, *rel_err_bound, sol.probability.to_f64(), &ctx);
                    assert_eq!(
                        route, &sol.route,
                        "{ctx}: route must not depend on the tier"
                    );
                }
                // …and fails exactly like Exact on hard cells.
                (Err(ee), Err(fe)) => assert_eq!(ee.to_string(), fe.to_string(), "{ctx}"),
                (e, f) => panic!("{ctx}: exact {e:?} vs float {f:?}"),
            }
            match (e, a) {
                // Auto escalated: the answer must be bit-for-bit the
                // exact tier's answer.
                (Ok(Response::Probability(es)), Ok(Response::Probability(as_))) => {
                    assert_eq!(
                        es.probability, as_.probability,
                        "{ctx}: escalation changed bits"
                    );
                    assert_eq!(es.route, as_.route, "{ctx}");
                }
                // Auto served float: the certified bound fit under the
                // tolerance, and it still contains the exact answer.
                (
                    Ok(Response::Probability(es)),
                    Ok(Response::Approximate {
                        value,
                        rel_err_bound,
                        ..
                    }),
                ) => {
                    assert!(
                        *rel_err_bound <= tol,
                        "{ctx}: Auto served a bound {rel_err_bound} above tolerance {tol}"
                    );
                    assert_bound_holds(*value, *rel_err_bound, es.probability.to_f64(), &ctx);
                }
                (Err(ee), Err(ae)) => assert_eq!(ee.to_string(), ae.to_string(), "{ctx}"),
                (e, a) => panic!("{ctx}: exact {e:?} vs auto {a:?}"),
            }
        }
    }
    assert!(cases >= 500, "only {cases} randomized cases ran");
    assert!(float_served > 0, "the float tier never engaged");
    assert!(
        escalated > 0,
        "Auto never escalated — tol 0 trials should force it"
    );
}

/// `Precision::Auto` with a zero tolerance escalates every answer that
/// carries rounding error, and the escalated batch is indistinguishable
/// from an all-exact batch.
#[test]
fn impossible_tolerance_degenerates_to_exact() {
    let mut rng = SmallRng::seed_from_u64(0xE5CA1A7E);
    for _ in 0..10 {
        let h = random_instance(&mut rng, ProbProfile::default());
        let queries: Vec<Graph> = (0..6).map(|_| random_query(&h, &mut rng)).collect();
        let exact: Vec<_> = queries
            .iter()
            .map(|q| Request::probability(q.clone()))
            .collect();
        let auto: Vec<_> = queries
            .iter()
            .map(|q| {
                Request::probability(q.clone()).precision(Precision::Auto { max_rel_err: 0.0 })
            })
            .collect();
        let want = Engine::new(h.clone()).submit(&exact);
        let got = Engine::new(h.clone()).submit(&auto);
        for (i, (w, g)) in want.iter().zip(&got).enumerate() {
            match (w, g) {
                (Ok(Response::Probability(ws)), Ok(Response::Probability(gs))) => {
                    assert_eq!(ws.probability, gs.probability, "query {i}");
                }
                // A zero bound is the one way Auto may keep the float
                // answer under tol 0 — and then it must be exactly right.
                (
                    Ok(Response::Probability(ws)),
                    Ok(Response::Approximate {
                        value,
                        rel_err_bound,
                        ..
                    }),
                ) => {
                    assert_eq!(*rel_err_bound, 0.0, "query {i}");
                    assert_eq!(*value, ws.probability.to_f64(), "query {i}");
                }
                (Err(we), Err(ge)) => assert_eq!(we.to_string(), ge.to_string(), "query {i}"),
                (w, g) => panic!("query {i}: {w:?} vs {g:?}"),
            }
        }
    }
}

/// The float tier composes with sharding: answers are identical across
/// shard widths (the per-root bound does not depend on which other roots
/// share the evaluation pass).
#[test]
fn float_answers_are_identical_across_shard_widths() {
    let mut rng = SmallRng::seed_from_u64(0x5AAD);
    let h = random_instance(&mut rng, ProbProfile::default());
    let requests: Vec<Request> = (0..24)
        .map(|_| {
            Request::probability(random_query(&h, &mut rng))
                .precision(Precision::Auto { max_rel_err: 1e-9 })
        })
        .collect();
    let one = Engine::builder()
        .threads(1)
        .build(h.clone())
        .submit(&requests);
    for threads in [2, 4] {
        let many = Engine::builder()
            .threads(threads)
            .build(h.clone())
            .submit(&requests);
        for (i, (a, b)) in one.iter().zip(&many).enumerate() {
            match (a, b) {
                (
                    Ok(Response::Approximate {
                        value: va,
                        rel_err_bound: ba,
                        route: ra,
                    }),
                    Ok(Response::Approximate {
                        value: vb,
                        rel_err_bound: bb,
                        route: rb,
                    }),
                ) => {
                    assert_eq!(va.to_bits(), vb.to_bits(), "{threads} shards, request {i}");
                    assert_eq!(ba.to_bits(), bb.to_bits(), "{threads} shards, request {i}");
                    assert_eq!(ra, rb, "{threads} shards, request {i}");
                }
                (Ok(Response::Probability(sa)), Ok(Response::Probability(sb))) => {
                    assert_eq!(
                        sa.probability, sb.probability,
                        "{threads} shards, request {i}"
                    );
                }
                (Err(ea), Err(eb)) => {
                    assert_eq!(
                        ea.to_string(),
                        eb.to_string(),
                        "{threads} shards, request {i}"
                    )
                }
                (a, b) => panic!("{threads} shards, request {i}: {a:?} vs {b:?}"),
            }
        }
    }
}

/// Submits one request alone to a fresh engine, so neither a cache nor a
/// batch neighbour can shape its answer.
fn solo(h: &ProbGraph, request: Request) -> (Result<Response, SolveError>, BatchStats) {
    let (mut answers, stats) = Engine::new(h.clone()).submit_stats(&[request]);
    (answers.pop().expect("one answer"), stats)
}

/// Metering never changes an answer: every tier's request, submitted
/// alone unmetered, under a far deadline, and under a huge gate budget,
/// answers byte-identically (compared by `Debug`). On the metered
/// circuit path the gate budget is exact: the least budget that answers
/// covers the charged slab ops, and one gate less trips
/// `BudgetExceeded`.
#[test]
fn metered_twins_answer_byte_identically_in_every_tier() {
    let mut rng = SmallRng::seed_from_u64(0x3E7E4ED);
    let mut cases = 0usize;
    let mut circuit_cases = 0usize;
    for trial in 0..35 {
        let h = random_instance(&mut rng, ProbProfile::default());
        let queries: Vec<Graph> = (0..4).map(|_| random_query(&h, &mut rng)).collect();
        let tol = [1e-2, 1e-9, 0.0][trial % 3];
        for (i, q) in queries.iter().enumerate() {
            for precision in [
                Precision::Exact,
                Precision::Float { max_rel_err: tol },
                Precision::Auto { max_rel_err: tol },
            ] {
                cases += 1;
                let ctx = format!("trial {trial}, query {i}, {precision:?}");
                let base = Request::probability(q.clone()).precision(precision);
                let with_gates = |gates: u64| {
                    solo(
                        &h,
                        base.clone().budget(Budget::unlimited().with_gates(gates)),
                    )
                };
                let (plain, _) = solo(&h, base.clone());
                let (deadline, _) = solo(&h, base.clone().deadline(Duration::from_secs(3600)));
                let (budget, stats) = with_gates(1 << 40);
                let want = format!("{plain:?}");
                assert_eq!(want, format!("{deadline:?}"), "{ctx}: deadline twin");
                assert_eq!(want, format!("{budget:?}"), "{ctx}: budget twin");
                if stats.circuit_batched == 0 {
                    continue;
                }
                circuit_cases += 1;
                // Binary search for the least gate budget that answers.
                let (mut lo, mut hi) = (0u64, 1u64 << 40);
                while hi - lo > 1 {
                    let mid = lo + (hi - lo) / 2;
                    if with_gates(mid).0.is_ok() {
                        hi = mid;
                    } else {
                        lo = mid;
                    }
                }
                assert!(hi > 0, "{ctx}: a circuit evaluates at least one op");
                assert_eq!(
                    want,
                    format!("{:?}", with_gates(hi).0),
                    "{ctx}: tight budget"
                );
                match with_gates(hi - 1).0 {
                    Err(SolveError::BudgetExceeded { resource, limit }) => {
                        assert_eq!((resource, limit), ("gates", hi - 1), "{ctx}");
                    }
                    other => panic!("{ctx}: budget {} answered {other:?}", hi - 1),
                }
            }
        }
    }
    assert!(cases >= 400, "only {cases} cases ran");
    assert!(
        circuit_cases >= 50,
        "only {circuit_cases} metered circuit cases ran"
    );
}
