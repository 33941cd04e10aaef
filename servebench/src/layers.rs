//! The traced run's lower layers, driven through their public entry
//! points from outside: the engine's tick seam (`phom_core`), the
//! lineage circuits and flat slabs (`phom_lineage`), plus the machine's
//! thread-handoff floor.

use crate::drive::Tracer;
use crate::gen::Stream;
use phom_core::algo::lineage_circuits::{fail_circuit_dwt, match_circuit_2wp};
use phom_core::{
    BatchStats, CacheHandle, Engine, Request, SolverOptions, TickConfig, WorkerScratch,
};
use phom_lineage::FlatArena;
use phom_num::{ErrF64, Rational};
use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// What the engine tick seam did with a replayed stream.
#[derive(Default)]
pub struct CoreReplay {
    pub requests: usize,
    pub ticks: usize,
    pub plan_ns: u64,
    pub eval_ns: u64,
    pub finish_ns: u64,
    pub batch: Vec<BatchStats>,
    pub evictions: u64,
    /// Replayed answers that differ from the oracle.
    pub mismatches: usize,
}

/// One (version, lane) group of a tick: its version, lane, and
/// (stream, item, request) entries in arrival order.
type TickGroup = (u64, phom_core::Lane, Vec<(usize, usize, Request)>);

/// Replays `order` (stream, item) through `Engine::begin_tick_with` →
/// `TickUnit::run_with` → `Tick::finish`, `tick` requests at a time,
/// grouped by (version, lane) within a tick as the runtime's batcher
/// groups them. Engines share one answer cache of `cache_capacity`;
/// `warm` first answers every warm-up item untimed, as the serving
/// stack's setup did. Stops early once `budget` has been spent.
#[allow(clippy::too_many_arguments)]
pub fn replay_core(
    streams: &[&Stream],
    order: &[(usize, usize)],
    tick: usize,
    shards: usize,
    cache_capacity: usize,
    warm: bool,
    oracle: &mut crate::Oracle,
    tracer: &mut Tracer,
    budget: Duration,
) -> CoreReplay {
    let cache = CacheHandle::with_capacity(cache_capacity);
    let mut engines: HashMap<u64, Arc<Engine>> = HashMap::new();
    let mut engine_for = |stream: &Stream, inst: usize| {
        let i = &stream.insts[inst];
        Arc::clone(engines.entry(i.version).or_insert_with(|| {
            Arc::new(
                Engine::builder()
                    .default_options(SolverOptions::default())
                    .shared_cache(cache.clone())
                    .build(i.graph.clone()),
            )
        }))
    };
    if warm {
        for stream in streams {
            for item in &stream.items[..stream.warm_items] {
                engine_for(stream, item.inst).submit(&[item.req.to_request()]);
            }
        }
    }
    let before = cache.stats().evictions;
    let config = TickConfig {
        shards,
        share_arena_at: Some(32),
    };
    let mut out = CoreReplay::default();
    let started = Instant::now();
    let mut scratch = WorkerScratch::new();
    for chunk in order.chunks(tick.max(1)) {
        if started.elapsed() > budget {
            break;
        }
        // Group by (version, lane), arrival order within each group.
        let mut groups: Vec<TickGroup> = Vec::new();
        for &(s, item) in chunk {
            let it = &streams[s].items[item];
            let request = it.req.to_request();
            let version = streams[s].insts[it.inst].version;
            let lane = request.lane(SolverOptions::default());
            match groups
                .iter_mut()
                .find(|(v, l, _)| *v == version && *l == lane)
            {
                Some((_, _, g)) => g.push((s, item, request)),
                None => groups.push((version, lane, vec![(s, item, request)])),
            }
        }
        let tick_id = tracer.id();
        let tick_start = Instant::now();
        for (_, _, group) in groups {
            let (s0, i0, _) = &group[0];
            let engine = engine_for(streams[*s0], streams[*s0].items[*i0].inst);
            let requests: Vec<Request> = group.iter().map(|(_, _, r)| r.clone()).collect();
            let t0 = Instant::now();
            let mut planned = engine.begin_tick_with(&requests, &config);
            let t1 = Instant::now();
            let outputs: Vec<_> = planned
                .take_units()
                .into_iter()
                .map(|unit| unit.run_with(&mut scratch))
                .collect();
            let t2 = Instant::now();
            let (answers, stats) = planned.finish(outputs);
            let t3 = Instant::now();
            for (name, a, b) in [
                ("core.plan", t0, t1),
                ("core.eval", t1, t2),
                ("core.finish", t2, t3),
            ] {
                let id = tracer.id();
                tracer.record(name, id, tick_id, 0, a, b);
            }
            out.plan_ns += (t1 - t0).as_nanos() as u64;
            out.eval_ns += (t2 - t1).as_nanos() as u64;
            out.finish_ns += (t3 - t2).as_nanos() as u64;
            out.requests += requests.len();
            out.batch.push(stats);
            for ((s, item, _), answer) in group.iter().zip(&answers) {
                let got = crate::gen::encode_answer(answer);
                let expected = oracle.answer(streams[*s], *s, *item);
                if crate::gen::compare(&got, expected) == crate::gen::Match::Different {
                    out.mismatches += 1;
                }
            }
        }
        tracer.record("core.tick", tick_id, 0, 0, tick_start, Instant::now());
        out.ticks += 1;
    }
    out.evictions = cache.stats().evictions - before;
    out
}

/// Lineage-layer totals over the circuit-shaped items of a stream.
#[derive(Default)]
pub struct LineageReplay {
    pub queries: usize,
    pub gates: u64,
    pub ops: u64,
    pub compile_ns: u64,
    pub exact_ns: u64,
    pub f64_ns: u64,
    pub err_ns: u64,
    /// Exact circuit probabilities that differ from the oracle.
    pub mismatches: usize,
}

/// Builds the Prop 4.11 match circuit (two-way-path instances) or the
/// Prop 4.10 fail circuit (downward-tree instances) of each item in
/// `order`, compiles it into a `FlatArena`, and evaluates it exactly,
/// in `f64` and in `ErrF64`. Items of other shapes are skipped.
pub fn replay_lineage(
    streams: &[&Stream],
    order: &[(usize, usize)],
    oracle: &mut crate::Oracle,
    tracer: &mut Tracer,
    budget: Duration,
) -> LineageReplay {
    let mut out = LineageReplay::default();
    let started = Instant::now();
    let mut values_f64 = Vec::new();
    let mut values_err = Vec::new();
    for &(s, item) in order {
        if started.elapsed() > budget {
            break;
        }
        let it = &streams[s].items[item];
        let phom_net::WireKind::Probability(query) = &it.req.kind else {
            continue;
        };
        let instance = &streams[s].insts[it.inst].graph;
        let p64: Vec<f64> = instance.probs().iter().map(Rational::to_f64).collect();
        let perr: Vec<ErrF64> = p64.iter().map(|&p| ErrF64::exact(p)).collect();
        let q_id = tracer.id();
        let t0 = Instant::now();
        let (circuit, root, negated) =
            if let Some((c, r)) = match_circuit_2wp(query, instance.graph()) {
                (c, r, false)
            } else if let Some((c, r)) = fail_circuit_dwt(query, instance.graph()) {
                (c, r, true)
            } else {
                continue;
            };
        let t1 = Instant::now();
        let flat = FlatArena::compile(&circuit, &[root]);
        let t2 = Instant::now();
        let exact: Rational = circuit.probability(root, instance.probs());
        let t3 = Instant::now();
        std::hint::black_box(flat.eval_f64_many(&p64, &mut values_f64));
        let t4 = Instant::now();
        std::hint::black_box(flat.eval_err_many(&perr, &mut values_err));
        let t5 = Instant::now();
        for (name, a, b) in [
            ("lineage.build", t0, t1),
            ("lineage.compile", t1, t2),
            ("lineage.eval_exact", t2, t3),
            ("lineage.eval_f64", t3, t4),
            ("lineage.eval_err", t4, t5),
        ] {
            let id = tracer.id();
            tracer.record(name, id, q_id, 0, a, b);
        }
        tracer.record("lineage.query", q_id, 0, 0, t0, t5);
        out.queries += 1;
        out.gates += circuit.n_gates() as u64;
        out.ops += flat.n_ops() as u64;
        out.compile_ns += (t2 - t1).as_nanos() as u64;
        out.exact_ns += (t3 - t2).as_nanos() as u64;
        out.f64_ns += (t4 - t3).as_nanos() as u64;
        out.err_ns += (t5 - t4).as_nanos() as u64;
        let p = if negated {
            Rational::one().sub(&exact)
        } else {
            exact
        };
        if it.req.precision.is_none_or(|pr| pr.is_exact()) {
            let expected = oracle.answer(streams[s], s, item);
            if !expected.contains(&format!("\"p\":\"{p}\"")) {
                out.mismatches += 1;
            }
        }
    }
    out
}

/// Median one-way handoff between two threads over a Mutex + Condvar
/// (half a ping-pong round trip), in µs: the floor under any layer that
/// hands a request to another thread.
pub fn handoff_floor_us(rounds: usize) -> f64 {
    let state = Arc::new((Mutex::new(0u64), Condvar::new()));
    let peer = Arc::clone(&state);
    let ponger = std::thread::spawn(move || {
        let (lock, cv) = &*peer;
        let mut turn = lock.lock().expect("ping-pong lock");
        for k in 0..rounds as u64 {
            while *turn != 2 * k + 1 {
                turn = cv.wait(turn).expect("ping-pong lock");
            }
            *turn += 1;
            cv.notify_one();
        }
    });
    let (lock, cv) = &*state;
    let mut samples = Vec::with_capacity(rounds);
    for k in 0..rounds as u64 {
        let t = Instant::now();
        let mut turn = lock.lock().expect("ping-pong lock");
        *turn = 2 * k + 1;
        cv.notify_one();
        while *turn != 2 * k + 2 {
            turn = cv.wait(turn).expect("ping-pong lock");
        }
        drop(turn);
        samples.push(t.elapsed().as_secs_f64() * 1e6 / 2.0);
    }
    ponger.join().expect("ping-pong thread panicked");
    crate::stats::median(&samples)
}
