//! The checks the engine differentials share: bit identity between two
//! engine answers, the independent reference every answer must match —
//! brute-force enumeration of the possible worlds — and a tick run under
//! an explicit [`TickConfig`]. The reference does not run the engine's
//! batch core.

// Each suite that includes this module uses only some of it.
#![allow(dead_code)]

use phom::prelude::*;
use phom_core::{bruteforce, montecarlo, TickUnit};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::sync::Arc;

/// Answers `requests` through [`Engine::begin_tick_with`] under `config`,
/// running every unit in order on this thread: the split a worker pool
/// of `config.shards` workers would run, without the pool.
pub fn submit_with(
    engine: &Arc<Engine>,
    requests: &[Request],
    config: TickConfig,
) -> (Vec<Result<Response, SolveError>>, BatchStats) {
    let mut tick = engine.begin_tick_with(requests, &config);
    let outputs = tick.take_units().into_iter().map(TickUnit::run).collect();
    tick.finish(outputs)
}

/// `k` shards, each compiling its own arena.
pub fn shards(k: usize) -> TickConfig {
    TickConfig {
        shards: k,
        share_arena_at: None,
    }
}

/// Instances up to this many uncertain edges are small enough to check
/// a sampled answer against brute force.
const MAX_BRUTE_FORCE: usize = 16;

/// The independent reference: an exact answer is the brute-force
/// probability, a sampled answer brackets it, and a hard cell is only
/// reported when the fallback cannot answer it.
///
/// A sampled answer is also compared with the public Monte-Carlo
/// estimator under the fallback's seed. That reruns the fallback's own
/// estimator, so it pins determinism (the same seed gives the same
/// estimate) rather than correctness; the brute-force bracket is the
/// independent check.
pub fn assert_reference(
    answer: &Result<Response, SolveError>,
    q: &Graph,
    h: &ProbGraph,
    opts: SolverOptions,
    ctx: &str,
) {
    match answer {
        Ok(Response::Probability(sol)) => match sol.route {
            Route::MonteCarlo {
                samples,
                ci95_times_1e9,
            } => {
                let Fallback::MonteCarlo { seed, .. } = opts.fallback else {
                    panic!("{ctx}: sampled without a Monte-Carlo fallback");
                };
                let est = montecarlo::estimate(q, h, samples, &mut SmallRng::seed_from_u64(seed));
                let p = sol.probability.to_f64();
                assert!(
                    (p - est.mean).abs() <= 1.0 / (1u64 << 33) as f64,
                    "{ctx}: estimate {p} vs {}",
                    est.mean
                );
                assert_eq!(ci95_times_1e9, (est.ci95 * 1e9) as u64, "{ctx}: ci95");
                if h.uncertain_edges().len() <= MAX_BRUTE_FORCE {
                    // Two Wilson half-widths, plus a rule-of-three term
                    // as a floor for runs of a few samples.
                    let truth = bruteforce::probability(q, h).to_f64();
                    let slack = 2.0 * est.ci95 + 4.0 / samples as f64;
                    assert!(
                        (p - truth).abs() <= slack,
                        "{ctx}: estimate {p} outside {truth} ± {slack}"
                    );
                }
            }
            _ => assert_eq!(
                sol.probability,
                bruteforce::probability(q, h),
                "{ctx}: brute force"
            ),
        },
        Err(SolveError::Hard(_)) => {
            let fallback_answers = match opts.fallback {
                Fallback::None => false,
                Fallback::BruteForce { max_uncertain } => {
                    h.uncertain_edges().len() <= max_uncertain
                }
                Fallback::MonteCarlo { .. } => true,
            };
            assert!(
                !fallback_answers,
                "{ctx}: the fallback should have answered"
            );
        }
        other => panic!("{ctx}: {other:?}"),
    }
}

/// Bit identity of two engine answers: probability, route, provenance
/// polarity and circuit size, or the same hard cell.
pub fn assert_same_response(
    a: &Result<Response, SolveError>,
    b: &Result<Response, SolveError>,
    ctx: &str,
) {
    match (a, b) {
        (Ok(Response::Probability(a)), Ok(Response::Probability(b))) => {
            assert_eq!(a.probability, b.probability, "{ctx}: probability");
            assert_eq!(a.route, b.route, "{ctx}: route");
            match (&a.provenance, &b.provenance) {
                (None, None) => {}
                (Some(pa), Some(pb)) => {
                    assert_eq!(pa.negated, pb.negated, "{ctx}: polarity");
                    assert_eq!(pa.circuit.n_gates(), pb.circuit.n_gates(), "{ctx}: gates");
                }
                _ => panic!("{ctx}: provenance presence differs"),
            }
        }
        (Err(SolveError::Hard(a)), Err(SolveError::Hard(b))) => assert_eq!(a, b, "{ctx}: hardness"),
        (a, b) => panic!("{ctx}: {a:?} vs {b:?}"),
    }
}
