//! The traced run: the workload's request streams sent into every
//! layer's public entry point, spans recorded around each call, and the
//! per-layer metrics derived from them.

use crate::check::{Books, Oracle};
use crate::conn::Conn;
use crate::drive::{Span, Tracer};
use crate::gen::{self, Stream, Workload, MEMBERS};
use crate::stack::{prepare, Entry, Stack};
use crate::stats::{self, median, quantile};
use crate::window::{self, Window};
use crate::{layers, metric, set_up, streams, Args, Report};
use phom_fleet::Router;
use phom_net::Server;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One traced layer replay: a fresh stack entered at `entry`, the
/// workload's streams from their start, for `secs`.
struct Replay {
    window: Window,
    register_us: Vec<f64>,
    stack: Stack,
    runtime_stats: Option<phom_serve::RuntimeStats>,
    admitted: u64,
    handoff_ms: Vec<f64>,
}

fn replay(args: &Args, entry: Entry, secs: f64, epoch: Instant) -> Result<Replay, String> {
    let streams = streams(args);
    let (stack, mut conns) = Stack::build(args.workload, entry)?;
    let register_us = prepare(&mut conns, &streams)?;
    let admitted0 = stack.admitted();
    let (mut conns, window) = window::run(conns, streams, args.workload, secs, entry, Some(epoch));
    let admitted = stack.admitted() - admitted0;
    let mut handoff_ms = Vec::new();
    if let Some(router) = &stack.router {
        handoff_ms = handoff_probe(router, &mut conns[0], &window.runs[0].stream)?;
    }
    let runtime_stats = stack.runtime.as_ref().map(|rt| rt.stats());
    drop(conns);
    Ok(Replay {
        window,
        register_us,
        stack,
        runtime_stats,
        admitted,
        handoff_ms,
    })
}

/// Bounces one instance between members: each `move` is timed until
/// the router reports the old copy drained and deregistered.
fn handoff_probe(router: &Router, conn: &mut Conn, stream: &Stream) -> Result<Vec<f64>, String> {
    let version = stream.insts[0].version;
    let mut to = phom_fleet::owner_of(version, &gen::member_specs());
    let mut out = Vec::new();
    for _ in 0..3 * 5 {
        if out.len() == 5 {
            break;
        }
        let before = router.stats().drained_deregisters;
        to = (to + 1) % MEMBERS.len();
        let t = Instant::now();
        // The workload's own moves may already have placed the version
        // on `to`; such a move flips nothing and the next member will.
        if !conn.move_to(version, to)? {
            continue;
        }
        while router.stats().drained_deregisters == before {
            if t.elapsed() > Duration::from_secs(5) {
                return Err("handoff did not drain within 5 s".into());
            }
            std::thread::sleep(Duration::from_micros(200));
        }
        out.push(t.elapsed().as_secs_f64() * 1e3);
    }
    Ok(out)
}

/// Durations of the spans named `name`, µs.
fn span_us<'a>(spans: impl Iterator<Item = &'a Span>, name: &str) -> Vec<f64> {
    spans
        .filter(|s| s.name == name)
        .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
        .collect()
}

/// Each span's self time: its duration minus the part of it its
/// children cover, µs, grouped by span name.
fn self_times(spans: &[Span]) -> HashMap<&'static str, Vec<f64>> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    let mut out: HashMap<&'static str, Vec<f64>> = HashMap::new();
    for s in spans {
        let mut covered = 0;
        if let Some(kids) = children.get_mut(&s.id) {
            kids.sort_unstable();
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
        }
        out.entry(s.name)
            .or_default()
            .push((s.end_ns - s.start_ns).saturating_sub(covered) as f64 / 1e3);
    }
    out
}

fn write_spans(args: &Args, spans: &[Span]) -> Result<String, String> {
    let base = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "servebench/target".into());
    let dir = std::path::Path::new(&base).join("servebench-traces");
    std::fs::create_dir_all(&dir).map_err(|e| format!("trace dir: {e}"))?;
    let name = format!("{}-seed{}.jsonl", args.workload.name(), args.seed);
    let path = dir.join(name);
    let mut text = String::new();
    for s in spans {
        let _ = writeln!(
            text,
            "{{\"name\":\"{}\",\"id\":{},\"parent\":{},\"req\":{},\"start_ns\":{},\"end_ns\":{}}}",
            s.name, s.id, s.parent, s.req, s.start_ns, s.end_ns
        );
    }
    let mut selfs: Vec<_> = self_times(spans).into_iter().collect();
    selfs.sort_by_key(|(name, _)| *name);
    for (name, v) in selfs {
        let _ = writeln!(
            text,
            "{{\"self_us_p50\":{{\"name\":\"{name}\",\"value\":{},\"spans\":{}}}}}",
            median(&v),
            v.len()
        );
    }
    std::fs::write(&path, text).map_err(|e| format!("write spans: {e}"))?;
    Ok(path.display().to_string())
}

fn frac(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The traced run: per-layer metrics for `--trace 1`.
pub fn traced(args: &Args) -> Result<Report, String> {
    let epoch = Instant::now();
    let s = args.seconds;
    let w = args.workload;
    let own_entry = crate::entry(w);
    let mut problems = Vec::new();
    let mut books = Books::default();
    let mut oracle = Oracle::default();
    let mut spans: Vec<Span> = Vec::new();

    // 1. The workload itself, untraced then traced, on one stack.
    let (stack, conns, streams, _) = set_up(args, epoch)?;
    let net0 = stack.server.as_ref().map(Server::net_stats);
    let admitted0 = stack.admitted();
    let (conns, plain) = window::run(conns, streams, w, s / 5.0, own_entry, None);
    books.add(&plain.runs, &mut oracle);
    let plain_throughput = plain.throughput();
    let streams = plain.runs.into_iter().map(|r| r.stream).collect();
    let cpu0 = stats::cpu_seconds().unwrap_or(0.0);
    let (conns, own) = window::run(conns, streams, w, s / 5.0, own_entry, Some(epoch));
    let cpu_us_per_req =
        (stats::cpu_seconds().unwrap_or(0.0) - cpu0) * 1e6 / own.answered().max(1) as f64;
    let net1 = stack.server.as_ref().map(Server::net_stats);
    let router_stats = stack.router.as_ref().map(Router::stats);
    let admitted = stack.admitted() - admitted0;
    let mut own_handoff = Vec::new();
    let mut conns = conns;
    if let Some(router) = &stack.router {
        own_handoff = handoff_probe(router, &mut conns[0], &own.runs[0].stream)?;
    }
    drop(conns);
    problems.extend(stack.shutdown().err());
    books.add(&own.runs, &mut oracle);
    problems.extend(books.problems(admitted));
    spans.extend(own.spans().cloned());
    let overhead = 1.0 - frac(own.throughput(), plain_throughput);
    let lags: Vec<f64> = own
        .runs
        .iter()
        .flat_map(|r| r.lags_us.iter().copied())
        .collect();

    // 2. The same streams into each other layer's entry point.
    let budget = s / 8.0;
    let mut layer = |entry: Entry| -> Result<Replay, String> {
        let r = replay(args, entry, budget, epoch)?;
        let mut b = Books::default();
        b.add(&r.window.runs, &mut oracle);
        problems.extend(b.problems(r.admitted));
        spans.extend(r.window.spans().cloned());
        Ok(r)
    };
    let serve = layer(Entry::Serve)?;
    let v1 = layer(Entry::V1)?;
    let direct = layer(Entry::Direct)?;
    let v2 = if own_entry == Entry::V2 {
        None
    } else {
        Some(layer(Entry::V2)?)
    };
    let router = if own_entry == Entry::Router {
        None
    } else {
        Some(layer(Entry::Router)?)
    };
    let net_stats = match &v2 {
        Some(r) => {
            let n = r
                .stack
                .server
                .as_ref()
                .map(Server::net_stats)
                .unwrap_or_default();
            (phom_net::NetStats::default(), n)
        }
        None => (net0.unwrap_or_default(), net1.unwrap_or_default()),
    };
    let fleet_stats = match &router {
        Some(r) => r
            .stack
            .router
            .as_ref()
            .map(Router::stats)
            .unwrap_or_default(),
        None => router_stats.unwrap_or_default(),
    };
    let handoff_ms = match &router {
        Some(r) => r.handoff_ms.clone(),
        None => own_handoff,
    };

    // 3. The engine tick seam and the lineage circuits, on the requests
    // the serve replay sent, in the order it sent them.
    let serve_streams = &serve.window.runs;
    let longest = serve_streams
        .iter()
        .map(|r| r.recs.len())
        .max()
        .unwrap_or(0);
    let order: Vec<(usize, usize)> = (0..longest)
        .flat_map(|k| {
            serve_streams
                .iter()
                .enumerate()
                .filter_map(move |(c, r)| r.recs.get(k).map(|rec| (c, rec.item)))
        })
        .collect();
    let rt = serve.runtime_stats.clone().unwrap_or_default();
    let tick = rt.mean_tick_requests().round().max(1.0) as usize;
    let replay_streams: Vec<&Stream> = serve_streams.iter().map(|r| &r.stream).collect();
    let mut tracer = Tracer::new(Some(epoch));
    let core = layers::replay_core(
        &replay_streams,
        &order,
        tick,
        rt.workers.max(1),
        w.cache_capacity(),
        w != Workload::ColdMixed,
        &mut oracle,
        &mut tracer,
        Duration::from_secs_f64(budget),
    );
    let lineage = layers::replay_lineage(
        &replay_streams,
        &order,
        &mut oracle,
        &mut tracer,
        Duration::from_secs_f64(budget),
    );
    if core.mismatches > 0 {
        problems.push(format!(
            "engine tick replay: {} wrong answers",
            core.mismatches
        ));
    }
    if lineage.mismatches > 0 {
        problems.push(format!(
            "lineage replay: {} wrong probabilities",
            lineage.mismatches
        ));
    }
    spans.extend(tracer.spans);
    let handoff_us = layers::handoff_floor_us(2000);
    let path = write_spans(args, &spans)?;
    println!("spans: {} written to {path}", spans.len());

    // 4. Per-layer metrics, each layer's cost as its delta over the one
    // below.
    let p = |v: &[f64], q: f64| quantile(v, q);
    let serve_rt = span_us(spans.iter(), "serve");
    let v2_rt = span_us(spans.iter(), "net.v2");
    let v1_rt = span_us(spans.iter(), "net.v1");
    let router_rt = span_us(spans.iter(), "fleet.router");
    let direct_rt = span_us(spans.iter(), "fleet.direct");
    let reqs = core.requests.max(1) as f64;
    let core_us = (core.plan_ns + core.eval_ns + core.finish_ns) as f64 / 1e3 / reqs;
    let sum =
        |f: fn(&phom_core::BatchStats) -> usize| core.batch.iter().map(f).sum::<usize>() as f64;
    let unique = sum(|b| b.unique_queries);
    let float = sum(|b| b.float_evaluated);
    let escalations = sum(|b| b.escalations);
    let register_ms: Vec<f64> = serve
        .register_us
        .iter()
        .copied()
        .chain(serve.window.runs.iter().flat_map(|r| {
            r.admin
                .iter()
                .filter(|a| a.kind == "register")
                .map(|a| a.us)
        }))
        .map(|us| us / 1e3)
        .collect();
    let (n0, n1) = net_stats;
    let d = |a: u64, b: u64| b.saturating_sub(a) as f64;
    let net_submitted = d(n0.submitted, n1.submitted);
    let n = |v: &Vec<f64>| v.len();
    let metrics = vec![
        metric(
            "lineage.gates_per_query",
            frac(lineage.gates as f64, lineage.queries as f64),
            "count",
            lineage.queries,
        ),
        metric(
            "lineage.flat_compile_ns_per_gate",
            frac(lineage.compile_ns as f64, lineage.gates as f64),
            "ns",
            lineage.queries,
        ),
        metric(
            "lineage.eval_exact_ns_per_gate",
            frac(lineage.exact_ns as f64, lineage.gates as f64),
            "ns",
            lineage.queries,
        ),
        metric(
            "lineage.eval_f64_ns_per_gate",
            frac(lineage.f64_ns as f64, lineage.ops as f64),
            "ns",
            lineage.queries,
        ),
        metric(
            "lineage.eval_err_ns_per_gate",
            frac(lineage.err_ns as f64, lineage.ops as f64),
            "ns",
            lineage.queries,
        ),
        metric(
            "core.plan_us_per_req",
            core.plan_ns as f64 / 1e3 / reqs,
            "us",
            core.requests,
        ),
        metric(
            "core.eval_us_per_req",
            core.eval_ns as f64 / 1e3 / reqs,
            "us",
            core.requests,
        ),
        metric(
            "core.finish_us_per_req",
            core.finish_ns as f64 / 1e3 / reqs,
            "us",
            core.requests,
        ),
        metric(
            "core.cache_hit_frac",
            frac(sum(|b| b.cache_hits), unique),
            "ratio",
            unique as usize,
        ),
        metric(
            "core.unique_frac",
            frac(unique, sum(|b| b.queries)),
            "ratio",
            core.requests,
        ),
        metric(
            "core.circuit_batched_frac",
            frac(sum(|b| b.circuit_batched), unique),
            "ratio",
            unique as usize,
        ),
        metric(
            "core.general_frac",
            frac(sum(|b| b.general_solved), unique),
            "ratio",
            unique as usize,
        ),
        metric(
            "core.float_frac",
            frac(float, unique),
            "ratio",
            unique as usize,
        ),
        metric(
            "core.escalation_frac",
            frac(escalations, float + escalations),
            "ratio",
            (float + escalations) as usize,
        ),
        metric(
            "core.shared_gates_per_tick",
            frac(sum(|b| b.shared_gates), core.ticks as f64),
            "count",
            core.ticks,
        ),
        metric(
            "core.estimates",
            sum(|b| b.estimates),
            "count",
            core.requests,
        ),
        metric(
            "core.evictions_per_kreq",
            core.evictions as f64 * 1e3 / reqs,
            "count",
            core.requests,
        ),
        metric(
            "serve.roundtrip_us_p50",
            p(&serve_rt, 0.5),
            "us",
            n(&serve_rt),
        ),
        metric(
            "serve.roundtrip_us_p99",
            p(&serve_rt, 0.99),
            "us",
            n(&serve_rt),
        ),
        metric(
            "serve.self_us_p50",
            p(&serve_rt, 0.5) - core_us,
            "us",
            n(&serve_rt),
        ),
        metric(
            "serve.queue_wait_fast_us_p50",
            rt.queue_ns_fast.quantile(0.5) as f64 / 1e3,
            "us",
            rt.queue_ns_fast.count() as usize,
        ),
        metric(
            "serve.queue_wait_slow_us_p50",
            rt.queue_ns_slow.quantile(0.5) as f64 / 1e3,
            "us",
            rt.queue_ns_slow.count() as usize,
        ),
        metric(
            "serve.tick_requests_mean",
            rt.mean_tick_requests(),
            "count",
            rt.ticks as usize,
        ),
        metric(
            "serve.rejected_frac",
            frac(rt.rejected as f64, (rt.admitted + rt.rejected) as f64),
            "ratio",
            (rt.admitted + rt.rejected) as usize,
        ),
        metric(
            "serve.fast_lane_latency_us_p99",
            rt.request_ns_fast.quantile(0.99) as f64 / 1e3,
            "us",
            rt.request_ns_fast.count() as usize,
        ),
        metric(
            "serve.register_ms_p50",
            median(&register_ms),
            "ms",
            register_ms.len(),
        ),
        metric("net.v2_roundtrip_us_p50", p(&v2_rt, 0.5), "us", n(&v2_rt)),
        metric("net.v2_roundtrip_us_p99", p(&v2_rt, 0.99), "us", n(&v2_rt)),
        metric("net.v1_roundtrip_us_p50", p(&v1_rt, 0.5), "us", n(&v1_rt)),
        metric(
            "net.self_us_p50",
            p(&v2_rt, 0.5) - p(&serve_rt, 0.5),
            "us",
            n(&v2_rt),
        ),
        metric(
            "net.frames_per_req",
            frac(
                d(n0.frames_in, n1.frames_in) + d(n0.frames_out, n1.frames_out),
                net_submitted,
            ),
            "count",
            net_submitted as usize,
        ),
        metric(
            "net.completions_per_push",
            frac(net_submitted, d(n0.pushed, n1.pushed)),
            "ratio",
            net_submitted as usize,
        ),
        metric(
            "net.rejected_frac",
            frac(
                d(n0.rejected_overloaded, n1.rejected_overloaded),
                net_submitted + d(n0.rejected_overloaded, n1.rejected_overloaded),
            ),
            "ratio",
            net_submitted as usize,
        ),
        metric(
            "fleet.roundtrip_us_p50",
            p(&router_rt, 0.5),
            "us",
            n(&router_rt),
        ),
        metric(
            "fleet.roundtrip_us_p99",
            p(&router_rt, 0.99),
            "us",
            n(&router_rt),
        ),
        metric(
            "fleet.self_us_p50",
            p(&router_rt, 0.5) - p(&direct_rt, 0.5),
            "us",
            n(&router_rt),
        ),
        metric(
            "fleet.mux_submit_frac",
            frac(fleet_stats.mux_submits as f64, fleet_stats.submitted as f64),
            "ratio",
            fleet_stats.submitted as usize,
        ),
        metric(
            "fleet.handoff_ms_p50",
            median(&handoff_ms),
            "ms",
            handoff_ms.len(),
        ),
        metric(
            "fleet.lazy_registers",
            fleet_stats.lazy_registers as f64,
            "count",
            1,
        ),
        metric(
            "fleet.member_unavailable",
            fleet_stats.member_unavailable as f64,
            "count",
            1,
        ),
        metric("bench.gen_lag_us_p99", p(&lags, 0.99), "us", lags.len()),
        metric("bench.handoff_us_p50", handoff_us, "us", 2000),
        metric(
            "bench.trace_overhead_frac",
            overhead,
            "ratio",
            own.answered(),
        ),
        metric("bench.cpu_us_per_req", cpu_us_per_req, "us", own.answered()),
    ];
    for r in [Some(serve), Some(v1), Some(direct), v2, router]
        .into_iter()
        .flatten()
    {
        problems.extend(r.stack.shutdown().err());
    }
    Ok(Report {
        metrics,
        books,
        problems,
    })
}
