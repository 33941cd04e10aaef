//! The experiment harness: regenerates the evidence behind every cell of
//! the paper's Tables 1–3, organized by the experiment ids of `DESIGN.md`.
//! Its output is recorded in `EXPERIMENTS.md`.
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
//! `tables --json` instead runs a fast smoke subset and emits one JSON
//! object per line-oriented consumer (schema `phom-bench-smoke/v1`):
//! machine-readable median timings so the per-PR perf trajectory
//! (`BENCH_*.json`) can track the hot paths without a full sweep.

use phom_bench as wl;
use phom_core::algo::path_on_pt::{self, PtStrategy};
use phom_core::algo::{connected_on_2wp, dwt_instance as p36, path_on_dwt};
use phom_core::bruteforce;
use phom_graph::Graph;
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

/// One smoke-mode measurement: label, workload size, median wall time.
fn json_entry(out: &mut Vec<String>, id: &str, n: usize, mut run: impl FnMut() -> f64) {
    let d = wl::time_median(REPS, &mut run);
    out.push(format!(
        "    {{\"id\": \"{id}\", \"n\": {n}, \"median_ns\": {}}}",
        d.as_nanos()
    ));
}

/// The `--json` smoke mode: a fast, fixed set of hot-path measurements in
/// machine-readable form (one JSON document on stdout).
fn json_smoke() {
    let mut entries = Vec::new();

    // Prop 3.6: level collapse + tree DP.
    let q36 = wl::graded_query(12);
    let m36 = p36::collapse_length(&q36).unwrap();
    json_entry(&mut entries, "prop36_dwt_dp", 512, || {
        let h = wl::dwt_union_instance(512, 1);
        let parts = phom_core::algo::components::split_components(&h);
        parts
            .iter()
            .map(|hc| p36::dwt_long_path_probability::<f64>(hc, m36).unwrap())
            .fold(1.0, |acc, p| acc * (1.0 - p))
    });

    // Prop 4.10: β-acyclic lineage on a labeled DWT.
    json_entry(&mut entries, "prop410_beta_lineage", 1024, || {
        let h = wl::dwt_instance(1024, 4);
        let q = wl::planted_query(&h, 6);
        path_on_dwt::probability_lineage::<f64>(&q, &h).unwrap()
    });

    // Prop 4.11: X-property + β-acyclic lineage on a 2WP.
    let q411 = wl::connected_query(4, 2);
    json_entry(&mut entries, "prop411_beta_lineage", 1024, || {
        let h = wl::twp_instance(1024, 2);
        connected_on_2wp::probability_lineage::<f64>(&q411, &h).unwrap()
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

        // Non-recursive f64 slab evaluation on the prebuilt flat arena —
        // the direct counterpart of engine_eval_prebuilt's recursive
        // pass, isolating the layout win from the error tracking.
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

    // Batched serving: k = 16 requests over 2 distinct repeated-structure
    // planted queries on one 2WP instance (a serving trace with heavy
    // repetition). `solve_many` interns the repeats, preprocesses the
    // instance once, and answers every circuit through one shared arena +
    // engine pass; the baseline issues 16 independent `solve` calls.
    // Exact rational arithmetic on both sides, results bit-identical
    // (asserted here and in tests/batch_solver.rs). The deprecated legacy
    // entry points are measured on purpose: they are the perf-trajectory
    // baselines the Engine path is gated against.
    #[allow(deprecated)]
    {
        let h = wl::twp_instance(512, 2);
        let queries: Vec<Graph> = (0..16).map(|i| wl::planted_query(&h, 2 + i % 2)).collect();
        let opts = phom_core::SolverOptions::default();
        let solo: Vec<_> = queries
            .iter()
            .map(|q| phom_core::solve_with(q, &h, opts).expect("tractable"))
            .collect();
        let batched = phom_core::solve_many(&queries, &h, opts);
        for (s, b) in solo.iter().zip(&batched) {
            let b = b.as_ref().expect("tractable");
            assert_eq!(s.probability, b.probability, "batch must be bit-identical");
        }
        json_entry(&mut entries, "solve_repeated_k16", 16, || {
            queries
                .iter()
                .map(|q| {
                    phom_core::solve_with(q, &h, opts)
                        .expect("tractable")
                        .probability
                        .to_f64()
                })
                .sum()
        });
        json_entry(&mut entries, "solve_many_k16", 16, || {
            phom_core::solve_many(&queries, &h, opts)
                .into_iter()
                .map(|r| r.expect("tractable").probability.to_f64())
                .sum()
        });
        // Warm-cache serving: every query answered from the eval cache.
        let mut cache = phom_core::EvalCache::new();
        let _ = phom_core::solve_many_cached(&queries, &h, opts, &mut cache);
        json_entry(&mut entries, "solve_many_cached_k16", 16, || {
            phom_core::solve_many_cached(&queries, &h, opts, &mut cache)
                .into_iter()
                .map(|r| r.expect("tractable").probability.to_f64())
                .sum()
        });

        // Engine serving tick: the same k = 16 workload submitted to a
        // long-lived sharded `Engine` (4 shards, bounded LRU cache) —
        // the steady-state cost of one serving tick: request interning,
        // cache service, and sharded dispatch of the residual. The cold
        // first submit runs outside the timer (its cost is the
        // solve_many_k16 entry above, minus the amortized instance
        // preprocessing the engine no longer pays per call);
        // bit-identity across shard widths and against the legacy paths
        // is asserted here and in tests/engine_api.rs.
        let engine = phom_core::Engine::builder()
            .threads(4)
            .cache_capacity(64)
            .build(h.clone());
        let requests: Vec<phom_core::Request> = queries
            .iter()
            .map(|q| phom_core::Request::probability(q.clone()))
            .collect();
        let warm = engine.submit(&requests);
        for (s, a) in solo.iter().zip(&warm) {
            let a = a.as_ref().expect("tractable");
            let sol = a.solution().expect("probability request");
            assert_eq!(
                s.probability, sol.probability,
                "engine must be bit-identical"
            );
        }
        json_entry(&mut entries, "engine_submit_sharded_k16", 16, || {
            engine
                .submit(&requests)
                .into_iter()
                .map(|r| {
                    r.expect("tractable")
                        .solution()
                        .expect("probability request")
                        .probability
                        .to_f64()
                })
                .sum()
        });

        // The same warm tick under the float tier: every answer served
        // as `Response::Approximate` off its own precision-keyed cache
        // entries. The float answers are cross-checked against the
        // exact solo answers within their certified bounds before the
        // timer starts.
        let float_requests: Vec<phom_core::Request> = queries
            .iter()
            .map(|q| {
                phom_core::Request::probability(q.clone())
                    .precision(phom_core::Precision::Float { max_rel_err: 1e-9 })
            })
            .collect();
        let warm = engine.submit(&float_requests);
        for (s, a) in solo.iter().zip(&warm) {
            match a.as_ref().expect("tractable") {
                phom_core::Response::Approximate {
                    value,
                    rel_err_bound,
                    ..
                } => {
                    let exact = s.probability.to_f64();
                    assert!(
                        (value - exact).abs() <= rel_err_bound * value.abs() + f64::EPSILON,
                        "float tick must stay within its certified bound"
                    );
                }
                other => panic!("float request answered as {other:?}"),
            }
        }
        json_entry(&mut entries, "float_tick_k16", 16, || {
            engine
                .submit(&float_requests)
                .into_iter()
                .map(|r| match r.expect("tractable") {
                    phom_core::Response::Approximate { value, .. } => value,
                    other => panic!("float request answered as {other:?}"),
                })
                .sum()
        });

        // Persistent runtime tick: the same k = 16 workload enqueued
        // request-by-request into a warm `phom_serve::Runtime` (4
        // workers spawned once, max_batch 16) and awaited — the
        // steady-state cost of serving 16 warm requests, including the
        // enqueue/ticket handoff and the batcher wakes, on top of the
        // warm engine tick measured above (cache hits never occupy the
        // pool, so the work-conserving batcher flushes them as they
        // arrive rather than in one tick of 16). Bit-identity vs
        // the per-query path is asserted outside the timer (and in
        // tests/runtime_serving.rs).
        let wait_prob = |t: phom_serve::Ticket| -> f64 {
            t.wait()
                .expect("tractable")
                .solution()
                .expect("probability request")
                .probability
                .to_f64()
        };
        let runtime = phom_serve::Runtime::builder()
            .max_batch(16)
            .max_wait(std::time::Duration::from_millis(50))
            .queue_cap(1024)
            .workers(4)
            .build();
        runtime.register(h.clone());
        let warm: Vec<_> = requests
            .iter()
            .map(|r| runtime.enqueue(r.clone()).expect("admitted"))
            .collect();
        for (s, ticket) in solo.iter().zip(warm) {
            let got = ticket.wait().expect("tractable");
            assert_eq!(
                s.probability,
                got.solution().expect("probability request").probability,
                "runtime must be bit-identical"
            );
        }
        json_entry(&mut entries, "runtime_tick_k16", 16, || {
            let tickets: Vec<_> = requests
                .iter()
                .map(|r| runtime.enqueue(r.clone()).expect("admitted"))
                .collect();
            tickets.into_iter().map(wait_prob).sum()
        });

        // Network round trip: the same k = 16 workload submitted and
        // polled over loopback TCP through the phom_net front end —
        // the full stack (frame encode → reader thread → bounded
        // ingress → tick → poll delivery) on a warm cache. The gap to
        // runtime_tick_k16 is the wire cost itself.
        {
            use phom_net::{Client, Server, WireRequest};
            // Size the pool to the machine: on small boxes extra
            // workers only preempt the reader/writer threads that the
            // net entries are timing.
            let workers =
                std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
            let runtime = std::sync::Arc::new(
                phom_serve::Runtime::builder()
                    .max_batch(16)
                    .max_wait(std::time::Duration::from_millis(50))
                    .workers(workers)
                    .build(),
            );
            let server =
                Server::bind("127.0.0.1:0", std::sync::Arc::clone(&runtime)).expect("bind");
            let mut client = Client::connect(server.local_addr()).expect("connect");
            let version = client.register(&h).expect("register");
            let wire_requests: Vec<WireRequest> = queries
                .iter()
                .map(|q| WireRequest::probability(q.clone()))
                .collect();
            // Warm pass, cross-checked against the solo answers.
            for (s, r) in solo.iter().zip(&wire_requests) {
                let ticket = client.submit(version, r).expect("admitted");
                let answer = client.wait(ticket).expect("tractable");
                assert_eq!(
                    answer.get("p").and_then(|p| p.as_str()),
                    Some(s.probability.to_string().as_str()),
                    "wire must be bit-identical"
                );
            }
            // The net entries sum the delivered answer *lengths*, not a
            // re-parsed rational: decoding the decimal string back into
            // a bigint is client post-processing, not wire cost, and it
            // would swamp the tick-to-wire comparison these entries
            // exist for. Bit-identity of the answers themselves is
            // asserted by the warm passes above/below.
            json_entry(&mut entries, "net_roundtrip_k16", 16, || {
                let tickets: Vec<u64> = wire_requests
                    .iter()
                    .map(|r| client.submit(version, r).expect("admitted"))
                    .collect();
                tickets
                    .into_iter()
                    .map(|t| {
                        let answer = client.wait(t).expect("tractable");
                        answer.get("p").and_then(|p| p.as_str()).expect("p").len() as f64
                    })
                    .sum()
            });

            // Protocol v2 on the same server: one multiplexed
            // connection, submits pipelined ahead of the pushed
            // completions, zero poll round trips.
            // net_push_vs_poll_k16 is the direct delivery-path
            // comparison against net_roundtrip_k16 (same k = 16
            // shape); net_pipelined_k64 amortizes the wire cost
            // across a 64-deep pipeline — the tentpole number for
            // multiplexing (v1 would pay ~64 serial round trips).
            let mux = phom_net::MuxClient::connect(server.local_addr()).expect("hello");
            for (s, r) in solo.iter().zip(&wire_requests) {
                let answer = mux
                    .submit(version, r)
                    .expect("admitted")
                    .wait()
                    .expect("tractable");
                assert_eq!(
                    answer.get("p").and_then(|p| p.as_str()),
                    Some(s.probability.to_string().as_str()),
                    "pushed completion must be bit-identical"
                );
            }
            let sum_pushed = |tickets: Vec<phom_net::MuxTicket>| -> f64 {
                tickets
                    .into_iter()
                    .map(|t| {
                        let answer = t.wait().expect("tractable");
                        answer.get("p").and_then(|p| p.as_str()).expect("p").len() as f64
                    })
                    .sum()
            };
            json_entry(&mut entries, "net_push_vs_poll_k16", 16, || {
                sum_pushed(
                    wire_requests
                        .iter()
                        .map(|r| mux.submit(version, r).expect("admitted"))
                        .collect(),
                )
            });
            let deep: Vec<phom_net::WireRequest> = (0..64)
                .map(|i| wire_requests[i % wire_requests.len()].clone())
                .collect();
            // Warm batch pass, cross-checked: one `submit_batch` frame
            // must push back exactly the solo answers, bit-identical,
            // before the pipelined stream is timed on warm paths.
            for (i, ticket) in mux
                .submit_batch(version, &deep)
                .expect("admitted")
                .iter()
                .enumerate()
            {
                let answer = ticket.wait().expect("tractable");
                assert_eq!(
                    answer.get("p").and_then(|p| p.as_str()),
                    Some(solo[i % solo.len()].probability.to_string().as_str()),
                    "batched pushed completion must be bit-identical"
                );
            }
            json_entry(&mut entries, "net_pipelined_k64", 64, || {
                sum_pushed(mux.submit_batch(version, &deep).expect("admitted"))
            });
            drop(mux);
            server.shutdown(std::time::Duration::from_secs(2));
        }

        // Saturated runtime: the same 16 requests against a queue
        // bounded to 8 — admission control rejects the overflow with
        // `Overloaded` and the producer drains a ticket before
        // retrying. Tracks the cost of serving *through* backpressure
        // (reject + drain + retry), the worst-case steady state of an
        // overloaded front end.
        let saturated = phom_serve::Runtime::builder()
            .max_batch(8)
            .max_wait(std::time::Duration::ZERO)
            .queue_cap(8)
            .workers(4)
            .build();
        saturated.register(h.clone());
        json_entry(&mut entries, "runtime_saturated_k16", 16, || {
            let mut acc = 0.0;
            let mut admitted: Vec<phom_serve::Ticket> = Vec::new();
            for r in &requests {
                loop {
                    match saturated.enqueue(r.clone()) {
                        Ok(ticket) => {
                            admitted.push(ticket);
                            break;
                        }
                        Err(phom_core::SolveError::Overloaded { .. }) => match admitted.pop() {
                            Some(ticket) => acc += wait_prob(ticket),
                            None => std::thread::yield_now(),
                        },
                        Err(e) => panic!("saturated bench enqueue: {e}"),
                    }
                }
            }
            acc + admitted.into_iter().map(wait_prob).sum::<f64>()
        });
    }

    // Fleet serving: 3 registered graph versions behind one shared
    // bounded cache, answering a mixed 16-request tick (probability,
    // counting, and UCQ requests routed by instance fingerprint). The
    // fleet is warmed once; counting/UCQ requests are not cached, so the
    // entry tracks the steady-state mixed-workload cost of the registry.
    {
        use phom_core::{Fleet, Request, Response};
        let live = wl::twp_instance(64, 2);
        let census = phom_graph::ProbGraph::new(
            live.graph().clone(),
            vec![phom_num::Rational::from_ratio(1, 2); live.graph().n_edges()],
        );
        let dwt = wl::dwt_instance(64, 2);
        let q_live = wl::planted_query(&live, 3);
        let q_census = wl::planted_query(&census, 2);
        let q_dwt = wl::planted_query(&dwt, 2);
        let mut fleet = Fleet::with_cache_capacity(256).threads(4);
        let v_live = fleet.register(live);
        let v_census = fleet.register(census);
        let v_dwt = fleet.register(dwt);
        let tick: Vec<(u64, Request)> = (0..16)
            .map(|i| match i % 4 {
                0 => (v_live, Request::probability(q_live.clone())),
                1 => (v_dwt, Request::probability(q_dwt.clone())),
                2 => (v_census, Request::probability(q_census.clone()).counting()),
                _ => (
                    v_live,
                    Request::ucq(phom_core::ucq::Ucq::new(vec![
                        q_live.clone(),
                        q_census.clone(),
                    ])),
                ),
            })
            .collect();
        let run_tick = |fleet: &Fleet| -> f64 {
            tick.iter()
                .map(|(version, request)| {
                    let answers = fleet
                        .submit(*version, std::slice::from_ref(request))
                        .expect("registered version");
                    match answers.into_iter().next().expect("one answer") {
                        Ok(Response::Probability(sol)) => sol.probability.to_f64(),
                        Ok(Response::Approximate { value, .. }) => value,
                        Ok(Response::Ucq { probability, .. }) => probability.to_f64(),
                        Ok(Response::Count {
                            uncertain_edges, ..
                        }) => uncertain_edges as f64,
                        Ok(Response::Sensitivity { influences, .. }) => influences.len() as f64,
                        Ok(Response::Estimate { lo, hi, .. }) => (lo + hi) / 2.0,
                        Err(e) => panic!("fleet workload must be tractable: {e}"),
                    }
                })
                .sum()
        };
        let _ = run_tick(&fleet); // warm the shared cache
        json_entry(&mut entries, "fleet_mixed_k16", 16, || run_tick(&fleet));
    }

    // Process-fleet front door: the same k = 16 shape submitted and
    // polled through a phom_fleet router over loopback TCP — the full
    // fourth layer (router relay → member front end → runtime tick) on
    // a warm member cache. The gap to net_roundtrip_k16 is the router
    // hop itself. The handoff entry prices the admin `move` op (warm
    // the target via the hinted-register fast path + atomic routing
    // flip; the old copy drains in the background) by bouncing one
    // version between two members.
    {
        use phom_fleet::{MemberSpec, Router};
        use phom_net::{wire, Client, Json, Server, WireRequest};
        let h = wl::twp_instance(64, 2);
        let queries: Vec<Graph> = (0..4).map(|i| wl::planted_query(&h, 2 + i % 2)).collect();
        let mut members = Vec::new();
        let mut servers = Vec::new();
        for name in ["a", "b", "c"] {
            let runtime = std::sync::Arc::new(
                phom_serve::Runtime::builder()
                    .max_batch(16)
                    .max_wait(std::time::Duration::from_millis(1))
                    .workers(2)
                    .build(),
            );
            let server = Server::bind("127.0.0.1:0", runtime).expect("bind member");
            members.push(MemberSpec {
                name: name.into(),
                addr: server.local_addr().to_string(),
                weight: 1.0,
            });
            servers.push(server);
        }
        let router = Router::bind("127.0.0.1:0", members).expect("bind router");
        let mut client = Client::connect(router.local_addr()).expect("connect");
        let version = client.register(&h).expect("register");
        let wire_requests: Vec<WireRequest> = (0..16)
            .map(|i| WireRequest::probability(queries[i % queries.len()].clone()))
            .collect();
        // Warm pass: lazy member registration + the member's cache.
        for r in &wire_requests {
            let ticket = client.submit(version, r).expect("admitted");
            client.wait(ticket).expect("tractable");
        }
        json_entry(&mut entries, "router_roundtrip_k16", 16, || {
            let tickets: Vec<u64> = wire_requests
                .iter()
                .map(|r| client.submit(version, r).expect("admitted"))
                .collect();
            tickets
                .into_iter()
                .map(|t| {
                    let answer = client.wait(t).expect("tractable");
                    phom_graph::io::parse_rational(
                        answer.get("p").and_then(|p| p.as_str()).expect("p"),
                    )
                    .expect("rational")
                    .to_f64()
                })
                .sum()
        });
        // Bounce the version between its owner and one other member;
        // every rep is a genuine flip, and each rep waits for the old
        // copy's background drain-and-deregister to land before
        // returning. Without that wait the entry is bimodal: a flip
        // racing ahead of the previous drain finds the target still
        // registered (~25µs flip), while one that loses the race pays
        // a synchronous re-register (~300µs) — which mode the median
        // lands in is scheduler luck. Waiting makes every rep the same
        // measurable thing: one complete handoff, warm-up through
        // retirement.
        let owner = {
            let reply = client
                .call_raw(Json::obj(vec![("op", Json::str("fleet"))]))
                .expect("fleet op");
            let hex = wire::encode_version(version).to_string();
            reply
                .get("ok")
                .and_then(|ok| ok.get("placements"))
                .and_then(Json::as_arr)
                .and_then(|ps| {
                    ps.iter()
                        .find(|p| p.get("version").map(|v| v.to_string()).as_deref() == Some(&hex))
                        .and_then(|p| p.get("member"))
                        .and_then(Json::as_str)
                        .map(String::from)
                })
                .expect("placement")
        };
        let other = ["a", "b", "c"]
            .into_iter()
            .find(|n| *n != owner)
            .expect("three members")
            .to_string();
        let hops = [other, owner];
        let mut flips = 0usize;
        json_entry(&mut entries, "router_handoff", 1, || {
            let to = &hops[flips % 2];
            flips += 1;
            let reply = client
                .call_raw(Json::obj(vec![
                    ("op", Json::str("move")),
                    ("version", wire::encode_version(version)),
                    ("to", Json::str(to)),
                ]))
                .expect("move op");
            assert_eq!(
                reply
                    .get("ok")
                    .and_then(|ok| ok.get("moved"))
                    .and_then(Json::as_bool),
                Some(true),
                "every rep must be a genuine flip: {reply}"
            );
            // One drain job per flip: wait until the router reports
            // this flip's deregister completed on the old member.
            loop {
                let fleet = client
                    .call_raw(Json::obj(vec![("op", Json::str("fleet"))]))
                    .expect("fleet op");
                let drained = fleet
                    .get("ok")
                    .and_then(|ok| ok.get("drained"))
                    .and_then(Json::as_u64)
                    .expect("drained counter");
                if drained >= flips as u64 {
                    break;
                }
                std::thread::yield_now();
            }
            1.0
        });
        drop(client);
        let stats = router.shutdown(std::time::Duration::from_secs(2));
        assert_eq!(stats.open_tickets, 0, "router ticket leak: {stats:?}");
        for server in servers {
            server.shutdown(std::time::Duration::from_secs(1));
        }
    }

    // Degradation-ladder serving: cheap exact (fast-lane) p99 request
    // latency with the slow lane idle vs. saturated by genuine
    // Monte-Carlo sampling (estimate-policy requests against a #P-hard
    // 2-cycle version, distinct sample budgets so nothing caches). The
    // priority lanes are why the ratio is bounded: exact ticks never
    // queue behind sampling, and budgeted sampling runs in solo slots,
    // so free workers stay available. The sampling units are kept small
    // (~1k samples) so the bound also holds on a single-core box, where
    // the OS scheduler timeshares the sampler with the fast ticks and
    // per-unit core occupancy is what sets the tail. The 3× bound is
    // the robustness acceptance criterion; the lane/degradation books
    // are emitted in the `serving` section of the JSON document.
    let serving = {
        use phom_core::{Budget, OnHard, Request, SolveError};
        use phom_graph::{GraphBuilder, Label, ProbGraph};
        use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
        use std::sync::Arc;
        use std::time::{Duration, Instant};

        let h = wl::twp_instance(256, 2);
        let hard = {
            let mut b = GraphBuilder::with_vertices(2);
            b.edge(0, 1, Label(0));
            b.edge(1, 0, Label(0));
            ProbGraph::new(b.build(), vec![phom_num::Rational::from_ratio(1, 2); 2])
        };
        let runtime = Arc::new(
            phom_serve::Runtime::builder()
                .max_batch(16)
                .max_wait(Duration::from_millis(1))
                .queue_cap(1024)
                .workers(4)
                .build(),
        );
        let v_fast = runtime.register(h.clone());
        let v_hard = runtime.register(hard);
        let queries: Vec<Graph> = (0..4).map(|i| wl::planted_query(&h, 2 + i % 2)).collect();
        for q in &queries {
            runtime
                .enqueue_to(v_fast, Request::probability(q.clone()))
                .expect("admitted")
                .wait()
                .expect("tractable");
        }
        let iters = 150usize;
        // Best-of-3 p99: a scheduler hiccup inflates one pass, but a
        // broken lane (exact ticks queued behind sampling) inflates
        // every pass — the min keeps the signal, drops the noise.
        let p99 = |label: &str| -> u64 {
            (0..3)
                .map(|_| {
                    let mut samples = Vec::with_capacity(iters);
                    for i in 0..iters {
                        let q = queries[i % queries.len()].clone();
                        let t0 = Instant::now();
                        let ticket = runtime
                            .enqueue_to(v_fast, Request::probability(q))
                            .expect("admitted");
                        ticket
                            .wait()
                            .unwrap_or_else(|e| panic!("{label}: fast tick failed: {e}"));
                        samples.push(t0.elapsed().as_nanos() as u64);
                    }
                    samples.sort_unstable();
                    samples[samples.len() - 1 - samples.len() / 100]
                })
                .min()
                .expect("three passes")
        };
        let noload = p99("no-load");

        let stop = Arc::new(AtomicBool::new(false));
        let counter = Arc::new(AtomicU64::new(0));
        let producers: Vec<_> = (0..2)
            .map(|_| {
                let runtime = Arc::clone(&runtime);
                let stop = Arc::clone(&stop);
                let counter = Arc::clone(&counter);
                std::thread::spawn(move || {
                    let q = Graph::one_way_path(&[Label(0)]);
                    while !stop.load(Ordering::Relaxed) {
                        let n = 1_000 + counter.fetch_add(1, Ordering::Relaxed);
                        let request = Request::probability(q.clone())
                            .on_hard(OnHard::Estimate)
                            .budget(Budget::unlimited().with_samples(n));
                        match runtime.enqueue_to(v_hard, request) {
                            Ok(ticket) => {
                                ticket.wait().expect("estimate answers");
                            }
                            Err(_) => std::thread::yield_now(),
                        }
                    }
                })
            })
            .collect();
        std::thread::sleep(Duration::from_millis(20)); // sampling in flight
        let load = p99("sampling-load");
        stop.store(true, Ordering::Relaxed);
        for p in producers {
            p.join().expect("producer");
        }
        let ratio = load as f64 / noload as f64;
        assert!(
            ratio <= 3.0,
            "fast-lane p99 degraded {ratio:.2}× under sampling load \
             ({noload}ns → {load}ns): the lanes are not isolating exact traffic"
        );
        // One already-expired request so the deadline books show up in
        // the emitted counters (shed at flush or metered, depending on
        // where the flush catches it).
        let doomed = runtime
            .enqueue_to(
                v_fast,
                Request::probability(queries[0].clone()).deadline(Duration::ZERO),
            )
            .expect("admitted");
        assert!(
            matches!(doomed.wait(), Err(SolveError::DeadlineExceeded)),
            "an already-expired request must answer the typed deadline error"
        );
        entries.push(format!(
            "    {{\"id\": \"fast_tick_p99_noload\", \"n\": {iters}, \"median_ns\": {noload}}}"
        ));
        entries.push(format!(
            "    {{\"id\": \"fast_tick_p99_sampling\", \"n\": {iters}, \"median_ns\": {load}}}"
        ));
        runtime.stats()
    };
    // Quantiles from the runtime's own latency histograms (the same
    // numbers `phom top` and the metrics op expose): end-to-end p99 per
    // lane, over every request the serving section fired. Loose-gated —
    // tail latency on a shared box is noisy, so the gate allows a wider
    // ratio than the throughput entries.
    entries.push(format!(
        "    {{\"id\": \"fast_request_p99\", \"n\": {}, \"median_ns\": {}}}",
        serving.request_ns_fast.count(),
        serving.request_ns_fast.quantile(0.99),
    ));
    entries.push(format!(
        "    {{\"id\": \"slow_request_p99\", \"n\": {}, \"median_ns\": {}}}",
        serving.request_ns_slow.count(),
        serving.request_ns_slow.quantile(0.99),
    ));

    println!("{{");
    println!("  \"schema\": \"phom-bench-smoke/v1\",");
    println!("  \"reps\": {REPS},");
    println!("  \"results\": [");
    println!("{}", entries.join(",\n"));
    println!("  ],");
    println!(
        "  \"serving\": {{\"fast_lane_total\": {}, \"slow_lane_total\": {}, \
         \"shed_expired\": {}, \"estimates\": {}, \"deadline_exceeded\": {}, \
         \"budget_exceeded\": {}}}",
        serving.fast_lane_total,
        serving.slow_lane_total,
        serving.shed_expired,
        serving.estimates,
        serving.deadline_exceeded,
        serving.budget_exceeded
    );
    println!("}}");
}

fn main() {
    if std::env::args().skip(1).any(|a| a == "--json") {
        json_smoke();
        return;
    }
    println!("# Regenerated evidence for Tables 1–3\n");
    println!("(times: median of {REPS} runs, f64 weights; exactness of every");
    println!("algorithm is separately established against brute force by the");
    println!("test suite — see EXPERIMENTS.md)\n");

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
    println!("(no executable reduction: the construction lives in reference [3];");
    println!("see DESIGN.md. Brute force doubles per uncertain edge:)");
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
    println!("\n## Section 6 extensions (EXT-3 … EXT-6)\n");

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

    println!("### EXT-5: OBDD compilation of the Prop 4.10 lineage — order matters");
    {
        println!("| n | clauses | OBDD nodes (DFS order) | OBDD nodes (β-elim order) |");
        println!("|---|---|---|---|");
        for n in [64usize, 128, 256] {
            let h = wl::dwt_instance(n, 2);
            let q = wl::planted_query(&h, 2);
            if let Some((dfs, beta, clauses)) =
                phom_core::algo::obdd_route::obdd_size_dwt(&q, h.graph())
            {
                println!("| {n} | {clauses} | {dfs} | {beta} |");
            }
        }
        println!("- β-acyclic elimination stays linear on the same lineages; OBDD");
        println!("  tractability needs the DFS order (see EXPERIMENTS.md, EXT-5)");
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
