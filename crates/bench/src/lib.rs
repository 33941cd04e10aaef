//! Shared workloads for the benchmark harness.
//!
//! Every workload is seeded, so each run of the `tables` binary measures
//! identical inputs. Instances come in two probability regimes:
//! the default mixed regime (some certain edges, denominators 16) and the
//! all-½ regime of the hardness reductions.

use phom_graph::generate::{self, ProbProfile};
use phom_graph::{Graph, ProbGraph};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Fixed seed base for all workloads.
pub const SEED: u64 = 0x20170514; // PODS'17 submission date

fn rng_for(tag: u64, n: usize) -> SmallRng {
    SmallRng::seed_from_u64(SEED ^ tag.wrapping_mul(0x9e3779b97f4a7c15) ^ (n as u64))
}

fn profile() -> ProbProfile {
    ProbProfile {
        certain_ratio: 0.25,
        denominator: 16,
    }
}

/// A random `⊔DWT` instance with ~`n` vertices across 1–3 components.
pub fn dwt_union_instance(n: usize, sigma: u32) -> ProbGraph {
    dwt_union_instance_over(n, sigma, profile().denominator)
}

/// [`dwt_union_instance`]'s graph with its uncertain edges drawn as
/// `k/denominator`: a denominator that is not a power of two gives the
/// workload's non-dyadic twin.
pub fn dwt_union_instance_over(n: usize, sigma: u32, denominator: u64) -> ProbGraph {
    let mut rng = rng_for(1, n);
    let parts = rng.gen_range(1..=3usize);
    let g = generate::union_of(parts, &mut rng, |r| {
        generate::downward_tree((n / parts).max(1), sigma, r)
    });
    let profile = ProbProfile {
        denominator,
        ..profile()
    };
    generate::with_probabilities(g, profile, &mut rng)
}

/// A connected DWT instance with `n` vertices.
pub fn dwt_instance(n: usize, sigma: u32) -> ProbGraph {
    let mut rng = rng_for(2, n);
    let g = generate::downward_tree(n, sigma, &mut rng);
    generate::with_probabilities(g, profile(), &mut rng)
}

/// A *deep* connected DWT instance: chain-biased parents give depth
/// Θ(n), so planted path queries exist for large `m` (used by the
/// query-length sweeps).
pub fn deep_dwt_instance(n: usize, sigma: u32) -> ProbGraph {
    let mut rng = rng_for(21, n);
    let mut parent: Vec<Option<(usize, phom_graph::Label)>> = vec![None];
    for v in 1..n {
        let p = if rng.gen_bool(0.85) {
            v - 1
        } else {
            rng.gen_range(0..v)
        };
        parent.push(Some((p, phom_graph::Label(rng.gen_range(0..sigma.max(1))))));
    }
    let g = Graph::downward_tree(&parent);
    generate::with_probabilities(g, profile(), &mut rng)
}

/// A *deep* connected polytree: a long chain with random orientations and
/// occasional branches, so directed paths of substantial length exist.
pub fn deep_polytree_instance(n: usize) -> ProbGraph {
    let mut rng = rng_for(22, n);
    let mut b = phom_graph::GraphBuilder::with_vertices(n);
    for v in 1..n {
        let p = if rng.gen_bool(0.8) {
            v - 1
        } else {
            rng.gen_range(0..v)
        };
        // Bias orientations downward so long directed paths appear.
        if rng.gen_bool(0.8) {
            b.edge(p, v, phom_graph::Label::UNLABELED);
        } else {
            b.edge(v, p, phom_graph::Label::UNLABELED);
        }
    }
    generate::with_probabilities(b.build(), profile(), &mut rng)
}

/// A connected 2WP instance with `n` edges.
pub fn twp_instance(n: usize, sigma: u32) -> ProbGraph {
    let mut rng = rng_for(3, n);
    let g = generate::two_way_path(n, sigma, &mut rng);
    generate::with_probabilities(g, profile(), &mut rng)
}

/// A connected polytree instance with `n` vertices.
pub fn polytree_instance(n: usize, sigma: u32) -> ProbGraph {
    let mut rng = rng_for(4, n);
    let g = generate::polytree(n, sigma, &mut rng);
    generate::with_probabilities(g, profile(), &mut rng)
}

/// A connected instance (polytree + chords) with `n` vertices — the
/// general graphs of the hard columns.
pub fn connected_instance(n: usize, sigma: u32) -> ProbGraph {
    let mut rng = rng_for(5, n);
    let g = generate::connected(n, n / 2, sigma, &mut rng);
    generate::with_probabilities(g, ProbProfile::half(), &mut rng)
}

/// A planted labeled path query of length `m` on the given instance.
pub fn planted_query(h: &ProbGraph, m: usize) -> Graph {
    let mut rng = rng_for(6, m);
    generate::planted_path_query(h.graph(), m, &mut rng)
        .unwrap_or_else(|| generate::one_way_path(m, 2, &mut rng))
}

/// A random connected query with `n` vertices over `sigma` labels.
pub fn connected_query(n: usize, sigma: u32) -> Graph {
    let mut rng = rng_for(7, n);
    generate::connected(n, 1, sigma, &mut rng)
}

/// A random graded (possibly branching, two-way, disconnected) unlabeled
/// query.
pub fn graded_query(n: usize) -> Graph {
    let mut rng = rng_for(8, n);
    generate::graded_query(n, 3, 4, &mut rng)
}

/// A random unlabeled `⊔DWT` query.
pub fn dwt_union_query(n: usize) -> Graph {
    let mut rng = rng_for(9, n);
    generate::union_of(2, &mut rng, |r| generate::downward_tree(n.max(2) / 2, 1, r))
}

/// Formats a nanosecond duration human-readably (for the tables binary).
pub fn fmt_duration(d: std::time::Duration) -> String {
    if d.as_secs() >= 1 {
        format!("{:.2}s", d.as_secs_f64())
    } else if d.as_millis() >= 1 {
        format!("{:.2}ms", d.as_secs_f64() * 1e3)
    } else {
        format!("{:.1}µs", d.as_secs_f64() * 1e6)
    }
}

/// A layered mesh of bounded pathwidth ≈ 2·`width`: dense forward links
/// between consecutive layers plus sparse skip links. The workload for
/// the bounded-treewidth extension (`walk_on_tw`); all edges uncertain
/// (probability drawn from the mixed profile).
pub fn mesh_instance(layers: usize, width: usize) -> ProbGraph {
    let mut rng = rng_for(11, layers * 1000 + width);
    let mut b = phom_graph::GraphBuilder::with_vertices(layers * width);
    let id = |l: usize, i: usize| l * width + i;
    for l in 0..layers.saturating_sub(1) {
        for i in 0..width {
            for j in 0..width {
                if i == j || rng.gen_bool(0.5) {
                    b.edge(id(l, i), id(l + 1, j), phom_graph::Label::UNLABELED);
                }
            }
        }
        if l + 2 < layers && rng.gen_bool(0.5) {
            b.edge(id(l, 0), id(l + 2, width - 1), phom_graph::Label::UNLABELED);
        }
    }
    generate::with_probabilities(b.build(), profile(), &mut rng)
}

/// A UCQ workload: `k` random labeled 1WP disjuncts (lengths 1–4).
pub fn ucq_path_disjuncts(k: usize, sigma: u32) -> Vec<Graph> {
    let mut rng = rng_for(12, k);
    (0..k)
        .map(|_| generate::one_way_path(rng.gen_range(1..=4), sigma, &mut rng))
        .collect()
}

/// Times a closure: the median per-call time over `reps` samples.
///
/// One untimed warm-up call runs first. Each sample then batches enough
/// calls to last at least 1 ms (the batch size doubles until one does),
/// so sub-microsecond closures resolve above the clock's granularity; a
/// closure slower than that runs once per sample.
pub fn time_median<T>(reps: usize, mut f: impl FnMut() -> T) -> std::time::Duration {
    let mut sample = |batch: u32| {
        let t0 = std::time::Instant::now();
        for _ in 0..batch {
            std::hint::black_box(f());
        }
        t0.elapsed()
    };
    sample(1); // untimed warm-up
    let mut batch = 1u32;
    let first = loop {
        let d = sample(batch);
        if d >= MIN_SAMPLE {
            break d;
        }
        batch *= 2;
    };
    let mut per_call: Vec<std::time::Duration> = std::iter::once(first)
        .chain((1..reps.max(1)).map(|_| sample(batch)))
        .map(|d| d / batch)
        .collect();
    per_call.sort();
    per_call[per_call.len() / 2]
}

/// The shortest sample [`time_median`] times.
const MIN_SAMPLE: std::time::Duration = std::time::Duration::from_millis(1);

#[cfg(test)]
mod tests {
    use super::*;
    use phom_graph::classes::classify;
    use phom_graph::ConnClass;

    #[test]
    fn workloads_have_expected_classes() {
        assert!(classify(dwt_union_instance(40, 1).graph()).in_union_class(ConnClass::DownwardTree));
        assert!(classify(dwt_instance(40, 2).graph()).in_class(ConnClass::DownwardTree));
        assert!(classify(twp_instance(40, 2).graph()).in_class(ConnClass::TwoWayPath));
        assert!(classify(polytree_instance(40, 1).graph()).in_class(ConnClass::Polytree));
        assert!(classify(connected_instance(12, 1).graph()).is_connected());
        assert!(phom_graph::graded::is_graded(&graded_query(10)));
    }

    #[test]
    fn workloads_are_deterministic() {
        assert_eq!(dwt_instance(30, 2).graph(), dwt_instance(30, 2).graph());
        assert_eq!(
            planted_query(&dwt_instance(30, 2), 3),
            planted_query(&dwt_instance(30, 2), 3)
        );
    }

    #[test]
    fn time_median_warms_up_and_batches_short_calls() {
        // A call longer than a sample runs once per sample, after one
        // untimed warm-up call.
        let mut calls = 0u32;
        let d = time_median(3, || {
            calls += 1;
            std::thread::sleep(MIN_SAMPLE * 2);
        });
        assert_eq!(calls, 1 + 3);
        assert!(d >= MIN_SAMPLE * 2, "{d:?}");
        // A cheap call is batched until a sample lasts MIN_SAMPLE, and
        // the reading is per call.
        let mut calls = 0u64;
        let d = time_median(3, || {
            calls += 1;
            calls
        });
        assert!(calls > 1000, "{calls}");
        assert!(d < MIN_SAMPLE / 100, "{d:?}");
    }
}
