//! Table 2 — `PHomL` for connected queries.
//!
//! PTIME cells: Prop 4.10 (1WP on DWT) and Prop 4.11 (Connected on 2WP),
//! swept over instance size and query size. Hard cells: Prop 4.1's
//! reduction image (1WP on PT) and Prop 3.3's (⊔1WP on 1WP, the §3.1
//! result), both brute-force only; the (2WP/DWT, DWT) cells of Props
//! 4.4/4.5 are demonstrated by the same brute-force blowup on labeled DWT
//! instances.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use phom_bench as wl;
use phom_core::algo::{connected_on_2wp, path_on_dwt};
use phom_core::bruteforce;
use phom_graph::generate;
use phom_reductions::pp2dnf::Pp2Dnf;
use phom_reductions::{prop33, prop41};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::time::Duration;

/// T2-ptime-a: Prop 4.10 sweeps over n (instance) and m (query).
fn t2_prop410(c: &mut Criterion) {
    let mut group = c.benchmark_group("table2/prop410_path_on_dwt");
    group
        .sample_size(10)
        .measurement_time(Duration::from_millis(900));
    for n in [64usize, 256, 1024, 4096] {
        let h = wl::dwt_instance(n, 4);
        let q = wl::planted_query(&h, 6);
        group.bench_with_input(BenchmarkId::new("lineage_n", n), &n, |b, _| {
            b.iter(|| path_on_dwt::probability_lineage::<f64>(&q, &h).unwrap())
        });
    }
    let h = wl::dwt_instance(1024, 4);
    for m in [2usize, 8, 32] {
        let q = wl::planted_query(&h, m);
        group.bench_with_input(BenchmarkId::new("lineage_m", m), &m, |b, _| {
            b.iter(|| path_on_dwt::probability_lineage::<f64>(&q, &h).unwrap())
        });
    }
    group.finish();
}

/// T2-ptime-b: Prop 4.11 sweeps (a two-pointer sweep of window probes).
fn t2_prop411(c: &mut Criterion) {
    let mut group = c.benchmark_group("table2/prop411_connected_on_2wp");
    group
        .sample_size(10)
        .measurement_time(Duration::from_millis(900));
    for n in [32usize, 128, 512, 2048] {
        let h = wl::twp_instance(n, 2);
        let q = wl::connected_query(4, 2);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| connected_on_2wp::probability_lineage::<f64>(&q, &h).unwrap())
        });
    }
    group.finish();
}

/// T2-hard-a: Prop 4.1 — the reduction image grows linearly but its
/// evaluation (brute force) doubles per variable.
fn t2_hard_prop41(c: &mut Criterion) {
    let mut group = c.benchmark_group("table2/hard_prop41_bruteforce");
    group
        .sample_size(10)
        .measurement_time(Duration::from_millis(900));
    for vars in [6usize, 8, 10] {
        let mut rng = SmallRng::seed_from_u64(wl::SEED);
        let phi = Pp2Dnf::random(vars / 2, vars / 2, vars, &mut rng);
        let red = prop41::reduce(&phi);
        group.bench_with_input(BenchmarkId::from_parameter(vars), &vars, |b, _| {
            b.iter(|| red.count_via_brute_force())
        });
    }
    group.finish();
}

/// The Prop 4.1 construction itself is polynomial (linear) — measured
/// separately so the table can report "construction PTIME, evaluation
/// exponential".
fn t2_prop41_construction(c: &mut Criterion) {
    let mut group = c.benchmark_group("table2/prop41_construction");
    group
        .sample_size(10)
        .measurement_time(Duration::from_millis(600));
    for vars in [50usize, 200, 800] {
        let mut rng = SmallRng::seed_from_u64(wl::SEED);
        let phi = Pp2Dnf::random(vars / 2, vars / 2, vars, &mut rng);
        group.bench_with_input(BenchmarkId::from_parameter(vars), &vars, |b, _| {
            b.iter(|| prop41::reduce(&phi).instance.graph().n_edges())
        });
    }
    group.finish();
}

/// T2-hard-c: Prop 3.3 (§3.1) — disconnected labeled queries on 1WP
/// instances, brute force doubling per bipartite edge.
fn t2_hard_prop33(c: &mut Criterion) {
    let mut group = c.benchmark_group("table2/hard_prop33_bruteforce");
    group
        .sample_size(10)
        .measurement_time(Duration::from_millis(900));
    for m in [4usize, 6, 8] {
        let mut rng = SmallRng::seed_from_u64(wl::SEED);
        let gamma =
            phom_reductions::edge_cover::Bipartite::random_covered(m / 2, m / 2, m / 3, &mut rng);
        let red = prop33::reduce(&gamma);
        group.bench_with_input(
            BenchmarkId::from_parameter(red.instance.uncertain_edges().len()),
            &m,
            |b, _| b.iter(|| red.count_via_brute_force()),
        );
    }
    group.finish();
}

/// T2-hard-b: the (2WP, DWT) / (DWT, DWT) cells (Props 4.5/4.4, via \[3]):
/// no polynomial algorithm exists; brute force on labeled DWT instances
/// with non-path queries doubles per uncertain edge.
fn t2_hard_dwt_cells(c: &mut Criterion) {
    let mut group = c.benchmark_group("table2/hard_props44_45_bruteforce");
    group
        .sample_size(10)
        .measurement_time(Duration::from_millis(900));
    for n in [9usize, 11, 13] {
        let mut rng = SmallRng::seed_from_u64(wl::SEED ^ 44);
        let h = generate::with_probabilities(
            generate::downward_tree(n, 2, &mut rng),
            generate::ProbProfile::half(),
            &mut rng,
        );
        // A labeled 2WP query (the Prop 4.5 shape).
        let q = generate::two_way_path(3, 2, &mut rng);
        group.bench_with_input(
            BenchmarkId::from_parameter(h.uncertain_edges().len()),
            &n,
            |b, _| b.iter(|| bruteforce::probability(&q, &h)),
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    t2_prop410,
    t2_prop411,
    t2_hard_prop41,
    t2_prop41_construction,
    t2_hard_prop33,
    t2_hard_dwt_cells
);
criterion_main!(benches);
