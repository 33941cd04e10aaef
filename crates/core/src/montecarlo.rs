//! Monte-Carlo estimation of `Pr(G ⇝ H)`.
//!
//! The paper's hard cells are #P-hard to solve exactly, but the underlying
//! probability is trivially approximable by sampling possible worlds: each
//! sample needs one homomorphism test (NP-hard in combined complexity in
//! general, but cheap for the small queries where brute force already
//! explodes in the *instance*). This estimator is the "practical fallback"
//! discussed as future work in the paper's conclusion, and an ablation
//! (ABL-4) in the benchmark harness.

use phom_graph::hom::exists_hom_into_world;
use phom_graph::{Graph, ProbGraph};
use phom_lineage::{MeterStop, Provenance, WorkMeter};
use rand::Rng;

/// The result of a sampling run.
#[derive(Clone, Debug)]
pub struct Estimate {
    /// Point estimate of the probability.
    pub mean: f64,
    /// Number of samples.
    pub samples: u64,
    /// Half-width of an approximate 95% confidence interval
    /// (normal approximation).
    pub ci95: f64,
}

impl Estimate {
    /// True iff `value` lies within the 95% confidence interval (widened by
    /// a small absolute slack for degenerate cases).
    pub fn covers(&self, value: f64) -> bool {
        (value - self.mean).abs() <= self.ci95 + 1e-9
    }
}

/// The one sampling loop behind every estimator: draws `samples` worlds
/// from the product distribution over `prob_true` and reports the hit
/// rate of `event` with its normal-approximation confidence interval.
fn estimate_event<R: Rng>(
    prob_true: &[f64],
    samples: u64,
    rng: &mut R,
    mut event: impl FnMut(&[bool]) -> bool,
) -> Estimate {
    assert!(samples > 0);
    let mut hits = 0u64;
    let mut mask = vec![false; prob_true.len()];
    for _ in 0..samples {
        for (e, p) in prob_true.iter().enumerate() {
            mask[e] = rng.gen_bool(*p);
        }
        if event(&mask) {
            hits += 1;
        }
    }
    let mean = hits as f64 / samples as f64;
    let var = mean * (1.0 - mean) / samples as f64;
    Estimate {
        mean,
        samples,
        ci95: 1.96 * var.sqrt(),
    }
}

/// [`estimate_event`] under a cooperative [`WorkMeter`]: each sample is
/// charged before it is drawn, and the run stops at the first tripped
/// checkpoint (sample budget, time budget, or deadline). This is the
/// *anytime* loop behind `OnHard::Estimate`: when the meter trips after
/// at least one sample, the truncated run is still a valid (wider)
/// estimate, so it is returned as `Ok` alongside the stop reason; a
/// stop before the first sample is a hard `Err`.
fn estimate_event_metered<R: Rng>(
    prob_true: &[f64],
    samples: u64,
    rng: &mut R,
    meter: &mut WorkMeter,
    mut event: impl FnMut(&[bool]) -> bool,
) -> Result<(Estimate, Option<MeterStop>), MeterStop> {
    let mut hits = 0u64;
    let mut drawn = 0u64;
    let mut stopped = None;
    let mut mask = vec![false; prob_true.len()];
    while drawn < samples {
        if let Err(stop) = meter.charge_sample() {
            if drawn == 0 {
                return Err(stop);
            }
            stopped = Some(stop);
            break;
        }
        for (e, p) in prob_true.iter().enumerate() {
            mask[e] = rng.gen_bool(*p);
        }
        if event(&mask) {
            hits += 1;
        }
        drawn += 1;
    }
    if drawn == 0 {
        // `samples == 0`: nothing was asked for and nothing tripped.
        return Err(MeterStop::Samples { limit: 0 });
    }
    let mean = hits as f64 / drawn as f64;
    let var = mean * (1.0 - mean) / drawn as f64;
    Ok((
        Estimate {
            mean,
            samples: drawn,
            ci95: 1.96 * var.sqrt(),
        },
        stopped,
    ))
}

/// Metered [`estimate`]: draws up to `samples` worlds, stopping early
/// at the first tripped [`WorkMeter`] checkpoint. The estimate is
/// anytime: a run stopped after at least one sample is still a valid
/// (wider) estimate and comes back as `Ok` with the stop reason; a
/// stop before the first sample is an `Err`.
pub fn estimate_metered<R: Rng>(
    query: &Graph,
    instance: &ProbGraph,
    samples: u64,
    rng: &mut R,
    meter: &mut WorkMeter,
) -> Result<(Estimate, Option<MeterStop>), MeterStop> {
    let probs: Vec<f64> = instance.probs().iter().map(|p| p.to_f64()).collect();
    estimate_event_metered(&probs, samples, rng, meter, |mask| {
        exists_hom_into_world(query, instance.graph(), mask)
    })
}

/// Metered [`estimate_ucq`]: the UCQ analogue of [`estimate_metered`].
pub fn estimate_ucq_metered<R: Rng>(
    ucq: &crate::ucq::Ucq,
    instance: &ProbGraph,
    samples: u64,
    rng: &mut R,
    meter: &mut WorkMeter,
) -> Result<(Estimate, Option<MeterStop>), MeterStop> {
    let probs: Vec<f64> = instance.probs().iter().map(|p| p.to_f64()).collect();
    estimate_event_metered(&probs, samples, rng, meter, |mask| {
        ucq.holds_in_world(instance.graph(), mask)
    })
}

/// Estimates `Pr(G ⇝ H)` from `samples` independent possible worlds.
pub fn estimate<R: Rng>(
    query: &Graph,
    instance: &ProbGraph,
    samples: u64,
    rng: &mut R,
) -> Estimate {
    let probs: Vec<f64> = instance.probs().iter().map(|p| p.to_f64()).collect();
    estimate_event(&probs, samples, rng, |mask| {
        exists_hom_into_world(query, instance.graph(), mask)
    })
}

/// Estimates `Pr(Q ⇝ H)` for a union of conjunctive queries from
/// `samples` independent possible worlds — the UCQ analogue of
/// [`estimate`], used by the engine's Monte-Carlo fallback on UCQ
/// requests beyond the tractable routes.
pub fn estimate_ucq<R: Rng>(
    ucq: &crate::ucq::Ucq,
    instance: &ProbGraph,
    samples: u64,
    rng: &mut R,
) -> Estimate {
    let probs: Vec<f64> = instance.probs().iter().map(|p| p.to_f64()).collect();
    estimate_event(&probs, samples, rng, |mask| {
        ucq.holds_in_world(instance.graph(), mask)
    })
}

/// Estimates `Pr[event]` from a compiled [`Provenance`] handle: worlds
/// are sampled from the product distribution and checked with the
/// engine's Boolean-semiring pass instead of a homomorphism search. On
/// routes that attach provenance this replaces the NP-hard per-sample
/// hom test with a linear circuit evaluation — and because the compiled
/// handle fixes only the query/instance pair (not the probabilities),
/// the same circuit serves any number of probability vectors over that
/// instance's edges.
pub fn estimate_from_provenance<R: Rng>(
    prov: &Provenance,
    prob_true: &[f64],
    samples: u64,
    rng: &mut R,
) -> Estimate {
    assert_eq!(prob_true.len(), prov.circuit.num_vars());
    estimate_event(prob_true, samples, rng, |mask| prov.holds_in(mask))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bruteforce;
    use phom_graph::fixtures;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn estimator_converges_on_example_2_2() {
        let h = fixtures::figure_1();
        let g = fixtures::example_2_2_query();
        let exact = bruteforce::probability(&g, &h).to_f64();
        let mut rng = SmallRng::seed_from_u64(11);
        let est = estimate(&g, &h, 20_000, &mut rng);
        assert!(est.covers(exact), "estimate {est:?} vs exact {exact}");
        assert!(est.ci95 < 0.01);
    }

    #[test]
    fn provenance_estimator_matches_exact_circuit_probability() {
        // A 2WP route compiles a provenance circuit; sampling through the
        // engine's Boolean pass must converge to its exact probability.
        let mut rng = SmallRng::seed_from_u64(12);
        let h_graph = phom_graph::generate::two_way_path(6, 2, &mut rng);
        let h = phom_graph::generate::with_probabilities(
            h_graph,
            phom_graph::generate::ProbProfile {
                certain_ratio: 0.2,
                denominator: 4,
            },
            &mut rng,
        );
        let q = phom_graph::generate::two_way_path(2, 2, &mut rng);
        let opts = crate::solver::SolverOptions {
            want_provenance: true,
            ..Default::default()
        };
        let sol = crate::solver::solve_with_impl(&q, &h, opts).unwrap();
        let prov = sol.provenance.expect("2WP route attaches provenance");
        let probs: Vec<f64> = h.probs().iter().map(|p| p.to_f64()).collect();
        let est = estimate_from_provenance(&prov, &probs, 20_000, &mut rng);
        assert!(
            est.covers(sol.probability.to_f64()),
            "{est:?} vs {}",
            sol.probability.to_f64()
        );
    }

    #[test]
    fn metered_estimator_is_deterministic_and_anytime() {
        let h = fixtures::figure_1();
        let g = fixtures::example_2_2_query();
        // A full unbudgeted run draws the same worlds as the unmetered
        // estimator, sample for sample.
        let mut rng_a = SmallRng::seed_from_u64(7);
        let plain = estimate(&g, &h, 500, &mut rng_a);
        let mut rng_b = SmallRng::seed_from_u64(7);
        let mut meter = WorkMeter::unbounded();
        let (metered, stop) = estimate_metered(&g, &h, 500, &mut rng_b, &mut meter).unwrap();
        assert!(stop.is_none());
        assert_eq!(plain.mean, metered.mean);
        assert_eq!(metered.samples, 500);

        // A sample budget truncates the run — anytime: still an estimate.
        let mut rng_c = SmallRng::seed_from_u64(7);
        let mut tight = WorkMeter::unbounded().with_sample_budget(100);
        let (truncated, stop) = estimate_metered(&g, &h, 500, &mut rng_c, &mut tight).unwrap();
        assert_eq!(truncated.samples, 100);
        assert_eq!(stop, Some(MeterStop::Samples { limit: 100 }));
        assert!(truncated.ci95 >= metered.ci95);

        // A zero sample budget cannot start at all.
        let mut rng_d = SmallRng::seed_from_u64(7);
        let mut zero = WorkMeter::unbounded().with_sample_budget(0);
        let got = estimate_metered(&g, &h, 500, &mut rng_d, &mut zero);
        assert!(
            matches!(got, Err(MeterStop::Samples { limit: 0 })),
            "{got:?}"
        );
    }

    #[test]
    fn extreme_probabilities() {
        let h = ProbGraph::certain(fixtures::figure_3_owp());
        let g = fixtures::figure_3_owp();
        let mut rng = SmallRng::seed_from_u64(5);
        let est = estimate(&g, &h, 100, &mut rng);
        assert_eq!(est.mean, 1.0);
        let g2 = Graph::one_way_path(&[phom_graph::Label(9)]);
        let est2 = estimate(&g2, &h, 100, &mut rng);
        assert_eq!(est2.mean, 0.0);
    }

    use phom_graph::Graph;
}
