//! The `phom` command-line interface (logic; the thin binary lives in
//! `src/bin/phom.rs`).
//!
//! ```text
//! phom solve <query-file> <instance-file> [--brute-force <max-edges>]
//!                                         [--monte-carlo <samples>]
//!                                         [--precision exact|float:<tol>|auto[:<tol>]]
//! phom solve --queries-file <batch-file> <instance-file> [options]
//!                                         [--cache-cap <n>] [--stats]
//! phom serve --listen ADDR [--max-batch <n>] [--max-wait-ms <ms>]
//!                          [--queue-cap <n>] [--workers <k>]
//!                          [--share-arena-at <n|off>] [--serve-for-ms <ms>]
//! phom router --listen ADDR [--members <file>] [--member name=addr[@w]]...
//!                           [--connect-attempts <n>] [--connect-backoff-ms <ms>]
//!                           [--serve-for-ms <ms>]
//! phom client <query-file> <instance-file> --connect ADDR [--trace]
//! phom top --connect ADDR [--interval-ms <ms>] [--iterations <n>]
//! phom classify <graph-file>
//! phom count <query-file> <instance-file> [--brute-force <max-edges>]
//! phom tables
//! ```
//!
//! Graph files use the `phom_graph::io` text format. Queries must share
//! label *names* with the instance: labels are interned per run, instance
//! first, so `R` in the query means `R` in the instance.
//!
//! Every solve/count goes through a `phom_core::Engine` built for the
//! parsed instance. The `--queries-file` batch mode reads many queries
//! from one file (sections separated by lines containing only `---`) and
//! submits them as one request batch: instance preprocessing runs once,
//! structurally identical queries intern to one solve, circuit-compilable
//! queries compile into one lineage arena answered by one engine pass,
//! and the engine's bounded answer cache (`--cache-cap`) serves repeats.
//! A summary line reports the batch statistics; `--stats` adds the cache
//! counters.

use phom_core::tables;
use phom_core::{Engine, Request, Response, SolveError};
use phom_graph::io::{parse_graph, ParsedGraph};
use phom_graph::{classify, Graph, Label, ProbGraph};
use std::collections::HashMap;
use std::fmt::Write as _;

/// Runs the CLI on `args` (without the program name). Returns the output
/// to print, or an error message (exit code 1).
pub fn run(
    args: &[String],
    read_file: &dyn Fn(&str) -> Result<String, String>,
) -> Result<String, String> {
    let mut it = args.iter();
    match it.next().map(String::as_str) {
        Some("solve") => solve_cmd(&args[1..], read_file, false),
        Some("count") => solve_cmd(&args[1..], read_file, true),
        Some("serve") => serve_cmd(&args[1..]),
        Some("router") => router_cmd(&args[1..], read_file),
        Some("client") => client_cmd(&args[1..], read_file),
        Some("top") => top_cmd(&args[1..]),
        Some("classify") => classify_cmd(&args[1..], read_file),
        Some("tables") => Ok(tables_cmd()),
        Some("walk") => walk_cmd(&args[1..], read_file),
        Some("influence") => influence_cmd(&args[1..], read_file),
        Some("ucq") => ucq_cmd(&args[1..], read_file),
        Some("help") | None => Ok(usage()),
        Some(other) => Err(format!("unknown command '{other}'\n\n{}", usage())),
    }
}

fn usage() -> String {
    "phom — probabilistic graph homomorphism (PODS'17)\n\
     \n\
     commands:\n\
     \x20 solve <query> <instance>    exact Pr(G ⇝ H), or the hardness cell\n\
     \x20 count <query> <instance>    satisfying-world count (all-½ instances)\n\
     \x20 classify <graph>            graph classes per Figure 2\n\
     \x20 tables                      the paper's complexity tables\n\
     \x20 walk <instance> <m>         Pr(∃ directed walk ≥ m) via the\n\
     \x20                             bounded-treewidth DP (§6 extension)\n\
     \x20 influence <query> <instance>  edge influences ∂Pr/∂π(e), ranked\n\
     \x20 ucq <instance> <query>...   Pr(G₁ ∨ … ∨ G_k ⇝ H), union of CQs\n\
     \x20 serve --listen ADDR         the phom_net TCP front end: clients\n\
     \x20                             register instances and submit requests\n\
     \x20                             over a length-prefixed JSON protocol\n\
     \x20 router --listen ADDR        the phom_fleet front door: one address\n\
     \x20                             fanning out to member `phom serve`\n\
     \x20                             processes (rendezvous routing on the\n\
     \x20                             instance fingerprint, `move` handoff,\n\
     \x20                             fleet-wide stats); members come from\n\
     \x20                             --members FILE or repeated --member\n\
     \x20 client <query> <instance> --connect ADDR [--trace]\n\
     \x20                             one-shot wire client against a serve\n\
     \x20                             or router endpoint: register, submit,\n\
     \x20                             wait, print the answer; --trace adds\n\
     \x20                             the per-stage span breakdown the\n\
     \x20                             serving stack recorded (admitted,\n\
     \x20                             queued, planned, evaluated, encoded,\n\
     \x20                             and routed behind a fleet router)\n\
     \x20 top --connect ADDR          the live stats view of a serve or\n\
     \x20                             router endpoint: counters plus\n\
     \x20                             latency quantiles (p50/p90/p99) per\n\
     \x20                             lane and stage, fleet-merged when the\n\
     \x20                             endpoint is a router; --interval-ms\n\
     \x20                             and --iterations control refresh\n\
     \n\
     options for solve/count:\n\
     \x20 --brute-force <max-edges>   fall back to world enumeration\n\
     \x20 --monte-carlo <samples>     fall back to sampling (solve only)\n\
     \x20 --queries-file <file>       solve only: batch mode — answer every\n\
     \x20                             query in <file> (sections split by ---)\n\
     \x20                             via one Engine::submit batch\n\
     \x20 --cache-cap <n>             bound the engine's answer cache (LRU)\n\
     \x20 --precision <p>             evaluation tier (solve only):\n\
     \x20                             exact (default), float:<tol> — f64 with\n\
     \x20                             a certified relative-error bound, or\n\
     \x20                             auto[:<tol>] — float first, escalate to\n\
     \x20                             exact when the bound exceeds <tol>\n\
     \x20                             (auto defaults to 1e-9)\n\
     \x20 --stats                     print the cache counters too (and the\n\
     \x20                             float-tier / escalation counts)\n\
     \x20 --deadline-ms <ms>          wall-clock deadline, anchored now: an\n\
     \x20                             expired request answers the typed\n\
     \x20                             deadline_exceeded error (enforced by\n\
     \x20                             cooperative checkpoints inside\n\
     \x20                             evaluation), never a stale answer\n\
     \x20 --budget-samples <n>        cap Monte-Carlo samples per request\n\
     \x20 --budget-gates <n>          cap circuit gates evaluated\n\
     \x20 --budget-time-ms <ms>       cap wall-clock evaluation time; a\n\
     \x20                             tripped cap answers budget_exceeded\n\
     \x20 --on-hard error|estimate    #P-hard-cell policy (solve only):\n\
     \x20                             typed error (default), or degrade to\n\
     \x20                             a budgeted Monte-Carlo 95% confidence\n\
     \x20                             interval (the degradation ladder)\n\
     \n\
     options for serve (the tick/backpressure knobs):\n\
     \x20 --share-arena-at <n|off>    compile ticks with ≥ n unique queries\n\
     \x20                             into one cross-shard shared arena\n\
     \x20                             (default 32; 'off' = per-shard arenas)\n\
     \x20 --serve-for-ms <ms>         serve for a bounded time, then drain\n\
     \x20                             and print a summary\n\
     \x20 --max-batch <n>             flush a tick at n accumulated requests\n\
     \x20                             (default 64; bigger ticks amortize\n\
     \x20                             planning and share arenas)\n\
     \x20 --max-wait-ms <ms>          while a lane has a tick in flight,\n\
     \x20                             flush its next once the oldest request\n\
     \x20                             waited this long (default 2); an idle\n\
     \x20                             lane flushes at once\n\
     \x20 --queue-cap <n>             ingress bound: a full queue rejects\n\
     \x20                             with Overloaded — backpressure, not\n\
     \x20                             unbounded memory (default 1024)\n\
     \x20 --workers <k>               persistent pool size, spawned once\n\
     \x20                             (default: all cores)\n\
     \n\
     options for router:\n\
     \x20 --members <file>            member list: one `name addr [weight]`\n\
     \x20                             (or `name=addr[@weight]`) per line;\n\
     \x20                             `#` comments allowed\n\
     \x20 --member name=addr[@w]      add one member (repeatable; combines\n\
     \x20                             with --members)\n\
     \x20 --connect-attempts <n>      per-member connection attempts before\n\
     \x20                             a call answers member_unavailable\n\
     \x20                             (default 3)\n\
     \x20 --connect-backoff-ms <ms>   backoff between attempts, growing\n\
     \x20                             linearly (default 50)\n\
     \x20 --serve-for-ms <ms>         route for a bounded time, then drain\n\
     \x20                             and print a summary\n"
        .into()
}

/// Parses a `--precision` value: `exact`, `float:<tol>`, or
/// `auto[:<tol>]` (`auto` alone uses a 1e-9 tolerance).
fn parse_precision(v: &str) -> Result<phom_core::Precision, String> {
    use phom_core::Precision;
    let parse_tol = |s: &str| -> Result<f64, String> {
        let tol: f64 = s
            .parse()
            .map_err(|_| format!("--precision: bad tolerance '{s}'"))?;
        if !tol.is_finite() || tol < 0.0 {
            return Err(format!(
                "--precision: tolerance must be finite and non-negative, got '{s}'"
            ));
        }
        Ok(tol)
    };
    match v {
        "exact" => Ok(Precision::Exact),
        "auto" => Ok(Precision::Auto { max_rel_err: 1e-9 }),
        _ => {
            if let Some(t) = v.strip_prefix("float:") {
                Ok(Precision::Float {
                    max_rel_err: parse_tol(t)?,
                })
            } else if let Some(t) = v.strip_prefix("auto:") {
                Ok(Precision::Auto {
                    max_rel_err: parse_tol(t)?,
                })
            } else {
                Err(format!(
                    "--precision: expected exact, float:<tol>, or auto[:<tol>], got '{v}'"
                ))
            }
        }
    }
}

/// `phom serve`: parses the runtime knobs and runs the phom_net TCP
/// front end (`--listen ADDR`, the only mode).
fn serve_cmd(args: &[String]) -> Result<String, String> {
    let mut max_batch: usize = 64;
    let mut max_wait_ms: u64 = 2;
    let mut queue_cap: usize = 1024;
    let mut workers: usize = 0;
    let mut listen: Option<String> = None;
    let mut share_arena_at: Option<usize> = Some(32);
    let mut serve_for_ms: Option<u64> = None;
    let mut i = 0;
    while i < args.len() {
        let flag_value = |i: &mut usize| -> Option<&String> {
            *i += 1;
            args.get(*i)
        };
        match args[i].as_str() {
            "--listen" => {
                listen = Some(
                    flag_value(&mut i)
                        .ok_or("--listen needs an address (e.g. 127.0.0.1:4100)")?
                        .clone(),
                )
            }
            "--share-arena-at" => {
                let v = flag_value(&mut i)
                    .ok_or("--share-arena-at needs a unique-query count (or 'off')")?;
                share_arena_at =
                    if v == "off" {
                        None
                    } else {
                        Some(v.parse().map_err(|_| {
                            "--share-arena-at needs a unique-query count (or 'off')"
                        })?)
                    };
            }
            "--serve-for-ms" => {
                serve_for_ms = Some(
                    flag_value(&mut i)
                        .and_then(|s| s.parse().ok())
                        .ok_or("--serve-for-ms needs a millisecond count")?,
                )
            }
            "--max-batch" => {
                max_batch = flag_value(&mut i)
                    .and_then(|s| s.parse().ok())
                    .ok_or("--max-batch needs a request count")?
            }
            "--max-wait-ms" => {
                max_wait_ms = flag_value(&mut i)
                    .and_then(|s| s.parse().ok())
                    .ok_or("--max-wait-ms needs a millisecond count")?
            }
            "--queue-cap" => {
                queue_cap = flag_value(&mut i)
                    .and_then(|s| s.parse().ok())
                    .ok_or("--queue-cap needs a request count")?
            }
            "--workers" => {
                workers = flag_value(&mut i)
                    .and_then(|s| s.parse().ok())
                    .ok_or("--workers needs a thread count (0 = all cores)")?
            }
            other => return Err(format!("serve: unknown flag '{other}'")),
        }
        i += 1;
    }
    let Some(addr) = listen else {
        return Err("serve needs `--listen ADDR` (the phom_net TCP front end)".into());
    };
    listen_cmd(ListenConfig {
        addr,
        max_batch,
        max_wait_ms,
        queue_cap,
        workers,
        share_arena_at,
        serve_for_ms,
        ready: None,
    })
}

/// Renders a nanosecond reading in the nearest human unit.
fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.1}µs", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

/// Configuration for `phom serve --listen`.
struct ListenConfig {
    addr: String,
    max_batch: usize,
    max_wait_ms: u64,
    queue_cap: usize,
    workers: usize,
    share_arena_at: Option<usize>,
    serve_for_ms: Option<u64>,
    /// Test hook: receives the bound address once the listener is up
    /// (`None` outside tests — scripts parse the readiness line).
    ready: Option<std::sync::mpsc::Sender<std::net::SocketAddr>>,
}

/// `phom serve --listen ADDR`: the phom_net TCP front end over a fresh
/// runtime. Clients `register` instances over the wire, then
/// `submit`/`poll`/`cancel`/`stats` (see `phom_net::wire` for the frame
/// format). Runs until killed, or for `--serve-for-ms` when given (the
/// bounded mode tests and scripts use); the returned summary reports
/// the front-end counters and the runtime stats snapshot.
fn listen_cmd(config: ListenConfig) -> Result<String, String> {
    use std::time::Duration;
    let runtime = std::sync::Arc::new(
        phom_serve::Runtime::builder()
            .max_batch(config.max_batch)
            .max_wait(Duration::from_millis(config.max_wait_ms))
            .queue_cap(config.queue_cap)
            .workers(config.workers)
            .share_arena_at(config.share_arena_at)
            .build(),
    );
    let server = phom_net::Server::bind(config.addr.as_str(), std::sync::Arc::clone(&runtime))
        .map_err(|e| format!("listen {}: {e}", config.addr))?;
    let local = server.local_addr();
    // Announce readiness on stdout immediately — scripts wait for this
    // line before connecting.
    println!("phom_net: listening on {local} (register instances over the wire)");
    use std::io::Write as _;
    std::io::stdout().flush().ok();
    if let Some(ready) = &config.ready {
        let _ = ready.send(local);
    }
    match config.serve_for_ms {
        Some(ms) => std::thread::sleep(Duration::from_millis(ms)),
        None => loop {
            std::thread::sleep(Duration::from_secs(3600));
        },
    }
    // Drain deterministically: stop admitting and flush every admitted
    // request through final ticks *first* — while the server stays up,
    // so clients poll the answers during its drain window. Shutting the
    // server down before the runtime flushed raced the drain window
    // against the batcher's max_wait timer: with patient tick settings,
    // connections closed on tickets that were still queued.
    runtime.drain();
    let net = server.shutdown(Duration::from_secs(2));
    let stats = match std::sync::Arc::try_unwrap(runtime) {
        // The server was the only other holder and is joined: consume
        // the runtime for its final, fully settled stats snapshot.
        Ok(runtime) => runtime.shutdown(),
        Err(runtime) => {
            let stats = runtime.stats();
            drop(runtime);
            stats
        }
    };
    let mut out = String::new();
    let _ = writeln!(out, "served on {local}");
    let _ = writeln!(
        out,
        "net: {} connections, {} frames in / {} out, {} submitted, \
         {} overloaded, {} delivered, {} tickets open at close",
        net.connections,
        net.frames_in,
        net.frames_out,
        net.submitted,
        net.rejected_overloaded,
        net.delivered,
        net.open_tickets,
    );
    let _ = writeln!(
        out,
        "runtime: {} admitted, {} completed, {} rejected, {} cancelled, \
         {} shed expired, {} ticks (max {} req), max_batch {}",
        stats.admitted,
        stats.completed,
        stats.rejected,
        stats.cancelled,
        stats.shed_expired,
        stats.ticks,
        stats.max_tick_requests,
        config.max_batch,
    );
    Ok(out)
}

/// `phom router`: the phom_fleet front door. `--listen ADDR` (the only
/// mode) routes client traffic across the configured members
/// (`--members FILE` and/or repeated `--member name=addr[@weight]`).
fn router_cmd(
    args: &[String],
    read_file: &dyn Fn(&str) -> Result<String, String>,
) -> Result<String, String> {
    let mut listen: Option<String> = None;
    let mut members: Vec<phom_fleet::MemberSpec> = Vec::new();
    let mut members_file: Option<String> = None;
    let mut connect_attempts: u32 = 3;
    let mut connect_backoff_ms: u64 = 50;
    let mut serve_for_ms: Option<u64> = None;
    let mut i = 0;
    while i < args.len() {
        let flag_value = |i: &mut usize| -> Option<&String> {
            *i += 1;
            args.get(*i)
        };
        match args[i].as_str() {
            "--listen" => {
                listen = Some(
                    flag_value(&mut i)
                        .ok_or("--listen needs an address (e.g. 127.0.0.1:4200)")?
                        .clone(),
                )
            }
            "--members" => {
                members_file = Some(
                    flag_value(&mut i)
                        .ok_or("--members needs a file path")?
                        .clone(),
                )
            }
            "--member" => {
                let spec = flag_value(&mut i).ok_or("--member needs name=addr[@weight]")?;
                members.push(phom_fleet::MemberSpec::parse(spec)?);
            }
            "--connect-attempts" => {
                connect_attempts = flag_value(&mut i)
                    .and_then(|s| s.parse().ok())
                    .ok_or("--connect-attempts needs a count")?
            }
            "--connect-backoff-ms" => {
                connect_backoff_ms = flag_value(&mut i)
                    .and_then(|s| s.parse().ok())
                    .ok_or("--connect-backoff-ms needs a millisecond count")?
            }
            "--serve-for-ms" => {
                serve_for_ms = Some(
                    flag_value(&mut i)
                        .and_then(|s| s.parse().ok())
                        .ok_or("--serve-for-ms needs a millisecond count")?,
                )
            }
            other => return Err(format!("router: unknown flag '{other}'")),
        }
        i += 1;
    }
    let Some(addr) = listen else {
        return Err("router needs `--listen ADDR` (with --members/--member)".into());
    };
    if let Some(file) = members_file {
        let mut from_file =
            phom_fleet::parse_members(&read_file(&file)?).map_err(|e| format!("{file}: {e}"))?;
        from_file.extend(members);
        members = from_file;
    }
    phom_fleet::validate_members(&members)?;
    let n_members = members.len();
    let router = phom_fleet::Router::builder()
        .connect_retry(
            connect_attempts,
            std::time::Duration::from_millis(connect_backoff_ms),
        )
        .bind(addr.as_str(), members)
        .map_err(|e| format!("router listen {addr}: {e}"))?;
    let local = router.local_addr();
    // Announce readiness on stdout immediately — scripts wait for this
    // line before connecting.
    println!("phom_fleet: routing on {local} for {n_members} member(s)");
    use std::io::Write as _;
    std::io::stdout().flush().ok();
    match serve_for_ms {
        Some(ms) => std::thread::sleep(std::time::Duration::from_millis(ms)),
        None => loop {
            std::thread::sleep(std::time::Duration::from_secs(3600));
        },
    }
    let stats = router.shutdown(std::time::Duration::from_secs(2));
    let mut out = String::new();
    let _ = writeln!(out, "routed on {local} for {n_members} member(s)");
    let _ = writeln!(out, "{}", render_router_stats(&stats));
    Ok(out)
}

fn render_router_stats(stats: &phom_fleet::RouterStats) -> String {
    format!(
        "router: {} connections, {} frames in / {} out, {} submitted, \
         {} delivered, {} member_unavailable, {} handoffs, {} lazy \
         registers, {} drained deregisters, {} tickets open at close",
        stats.connections,
        stats.frames_in,
        stats.frames_out,
        stats.submitted,
        stats.delivered,
        stats.member_unavailable,
        stats.handoffs,
        stats.lazy_registers,
        stats.drained_deregisters,
        stats.open_tickets,
    )
}

/// `phom client <query> <instance> --connect ADDR [--trace]`: a
/// one-shot wire client against a `phom serve` front end or a
/// `phom router` fleet front door — register the instance, submit the
/// query, wait for the answer. `--trace` follows up with the `trace`
/// wire op and prints the per-stage span breakdown the serving stack
/// recorded for this request (including the router's `routed` hop when
/// the endpoint is a fleet front door).
fn client_cmd(
    args: &[String],
    read_file: &dyn Fn(&str) -> Result<String, String>,
) -> Result<String, String> {
    let mut files: Vec<String> = Vec::new();
    let mut connect: Option<String> = None;
    let mut show_trace = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--connect" => {
                i += 1;
                connect = Some(
                    args.get(i)
                        .ok_or("--connect needs an address (e.g. 127.0.0.1:4100)")?
                        .clone(),
                );
            }
            "--trace" => show_trace = true,
            other if other.starts_with("--") => {
                return Err(format!("client: unknown flag '{other}'"))
            }
            other => files.push(other.to_string()),
        }
        i += 1;
    }
    let addr =
        connect.ok_or("client needs --connect ADDR (a `phom serve` or `phom router` endpoint)")?;
    let [qfile, hfile] = files.as_slice() else {
        return Err("client needs <query-file> <instance-file> --connect ADDR".into());
    };
    let (query, instance) = parse_inputs(qfile, hfile, read_file)?;
    let mut client = phom_net::Client::connect(addr.as_str())
        .map_err(|e| format!("client connect {addr}: {e}"))?;
    let version = client.register(&instance).map_err(|e| e.to_string())?;
    let started = std::time::Instant::now();
    let (ticket, trace) = client
        .submit_traced(version, &phom_net::WireRequest::probability(query))
        .map_err(|e| e.to_string())?;
    let result = client.wait(ticket).map_err(|e| e.to_string())?;
    let wall = started.elapsed();
    let mut out = String::new();
    match result.get("p").and_then(phom_net::Json::as_str) {
        Some(p) => {
            let _ = writeln!(out, "Pr(G ⇝ H) = {p}");
        }
        None => {
            let _ = writeln!(out, "result: {result}");
        }
    }
    let _ = writeln!(out, "answered in {wall:.2?} over {addr}");
    if !show_trace {
        return Ok(out);
    }
    let Some(trace) = trace else {
        let _ = writeln!(out, "trace: endpoint did not echo a trace id");
        return Ok(out);
    };
    let requests = client.trace_spans(trace).map_err(|e| e.to_string())?;
    let Some(req) = requests.iter().find(|r| r.trace == trace) else {
        let _ = writeln!(
            out,
            "trace {trace:#018x}: no spans recorded (aged out of the span ring?)"
        );
        return Ok(out);
    };
    let _ = writeln!(out, "trace {trace:#018x}:");
    for span in &req.spans {
        let detail = if span.detail != 0 {
            format!("  (detail {})", span.detail)
        } else {
            String::new()
        };
        let _ = writeln!(
            out,
            "  {:<9} {:<4} {:>10}{detail}",
            span.stage.name(),
            span.lane.name(),
            fmt_ns(span.nanos),
        );
    }
    let _ = writeln!(
        out,
        "  stages sum {}, wall clock {}",
        fmt_ns(req.total_nanos),
        fmt_ns(wall.as_nanos().min(u128::from(u64::MAX)) as u64),
    );
    Ok(out)
}

/// `phom top --connect ADDR [--interval-ms N] [--iterations N]`: the
/// live stats view over the wire. Works against both a `phom serve`
/// front end (flat snapshot) and a `phom router` fleet front door
/// (rollup shape) — counters plus latency quantiles decoded from the
/// sparse histograms the `stats` op carries. Iterations beyond the
/// first print immediately; the last is the command's output.
fn top_cmd(args: &[String]) -> Result<String, String> {
    let mut connect: Option<String> = None;
    let mut interval_ms: u64 = 1000;
    let mut iterations: u64 = 1;
    let mut i = 0;
    while i < args.len() {
        let flag_value = |i: &mut usize| -> Option<&String> {
            *i += 1;
            args.get(*i)
        };
        match args[i].as_str() {
            "--connect" => {
                connect = Some(
                    flag_value(&mut i)
                        .ok_or("--connect needs an address (e.g. 127.0.0.1:4100)")?
                        .clone(),
                )
            }
            "--interval-ms" => {
                interval_ms = flag_value(&mut i)
                    .and_then(|s| s.parse().ok())
                    .ok_or("--interval-ms needs a millisecond count")?
            }
            "--iterations" => {
                iterations = flag_value(&mut i)
                    .and_then(|s| s.parse().ok())
                    .ok_or("--iterations needs a count")?
            }
            other => return Err(format!("top: unknown flag '{other}'")),
        }
        i += 1;
    }
    let addr =
        connect.ok_or("top needs --connect ADDR (a `phom serve` or `phom router` endpoint)")?;
    let mut client =
        phom_net::Client::connect(addr.as_str()).map_err(|e| format!("top connect {addr}: {e}"))?;
    let iterations = iterations.max(1);
    for k in 0..iterations {
        let stats = client.stats().map_err(|e| e.to_string())?;
        let rendered = render_top(&addr, &stats);
        if k + 1 == iterations {
            return Ok(rendered);
        }
        println!("{rendered}");
        use std::io::Write as _;
        std::io::stdout().flush().ok();
        std::thread::sleep(std::time::Duration::from_millis(interval_ms));
    }
    unreachable!("iterations >= 1 returns from the loop")
}

/// One `top` frame: counters plus histogram quantiles, from either a
/// server's flat stats snapshot or a router's `{router, members,
/// rollup}` shape.
fn render_top(addr: &str, stats: &phom_net::Json) -> String {
    use phom_net::Json;
    let mut out = String::new();
    // A router reply nests the fleet-merged sums under "rollup"; a
    // serve front end answers the flat runtime snapshot directly.
    let (scope, source) = match stats.get("rollup") {
        Some(rollup) => ("fleet", rollup),
        None => ("server", stats),
    };
    let field = |name: &str| source.get(name).and_then(Json::as_u64).unwrap_or(0);
    let _ = writeln!(out, "top {addr} ({scope})");
    if scope == "fleet" {
        let _ = writeln!(out, "members up: {}", field("members_available"));
    }
    let _ = writeln!(
        out,
        "requests: {} admitted, {} completed, {} rejected, {} cancelled, \
         {} shed expired",
        field("admitted"),
        field("completed"),
        field("rejected"),
        field("cancelled"),
        field("shed_expired"),
    );
    let _ = writeln!(
        out,
        "load: queue depth {}, {} ticks, {} workers, {} cache hits",
        field("queue_depth"),
        field("ticks"),
        field("workers"),
        field("batch_cache_hits"),
    );
    let hist = |name: &str| -> phom_obs::Histogram {
        source
            .get(name)
            .and_then(|h| phom_net::wire::decode_histogram(h).ok())
            .unwrap_or_default()
    };
    let quantiles = |label: &str, h: &phom_obs::Histogram| -> String {
        if h.is_empty() {
            format!("  {label:<13} -")
        } else {
            format!(
                "  {label:<13} n={:<6} p50 {:>9} p90 {:>9} p99 {:>9} max {:>9}",
                h.count(),
                fmt_ns(h.quantile(0.50)),
                fmt_ns(h.quantile(0.90)),
                fmt_ns(h.quantile(0.99)),
                fmt_ns(h.max()),
            )
        }
    };
    let _ = writeln!(out, "latency:");
    let _ = writeln!(
        out,
        "{}",
        quantiles("request(fast)", &hist("request_ns_fast"))
    );
    let _ = writeln!(
        out,
        "{}",
        quantiles("request(slow)", &hist("request_ns_slow"))
    );
    let _ = writeln!(out, "{}", quantiles("queue(fast)", &hist("queue_ns_fast")));
    let _ = writeln!(out, "{}", quantiles("queue(slow)", &hist("queue_ns_slow")));
    let _ = writeln!(out, "{}", quantiles("stage(plan)", &hist("plan_ns")));
    let _ = writeln!(out, "{}", quantiles("stage(eval)", &hist("eval_ns")));
    let _ = writeln!(out, "{}", quantiles("stage(encode)", &hist("encode_ns")));
    out
}

/// Re-interns the query's labels against the instance's label names, so
/// identical names mean identical labels. Unknown names are mapped to
/// fresh labels (they simply never match).
fn align_labels(query: &ParsedGraph, instance_names: &[String]) -> Graph {
    let lookup: HashMap<&str, u32> = instance_names
        .iter()
        .enumerate()
        .map(|(i, n)| (n.as_str(), i as u32))
        .collect();
    let mut next_fresh = instance_names.len() as u32;
    let mut fresh: HashMap<&str, u32> = HashMap::new();
    let mut b = phom_graph::GraphBuilder::with_vertices(query.graph.n_vertices());
    for e in query.graph.edges() {
        let name = &query.labels[e.label.0 as usize];
        let id = lookup.get(name.as_str()).copied().unwrap_or_else(|| {
            *fresh.entry(name.as_str()).or_insert_with(|| {
                next_fresh += 1;
                next_fresh - 1
            })
        });
        b.edge(e.src, e.dst, Label(id));
    }
    b.build()
}

fn parse_inputs(
    qfile: &str,
    hfile: &str,
    read_file: &dyn Fn(&str) -> Result<String, String>,
) -> Result<(Graph, ProbGraph), String> {
    let htext = read_file(hfile)?;
    let hparsed = parse_graph(&htext).map_err(|e| format!("{hfile}: {e}"))?;
    let qtext = read_file(qfile)?;
    let qparsed = parse_graph(&qtext).map_err(|e| format!("{qfile}: {e}"))?;
    if qparsed.probs.iter().any(|p| !p.is_one()) {
        return Err(format!("{qfile}: query edges must not carry probabilities"));
    }
    let query = align_labels(&qparsed, &hparsed.labels);
    Ok((query, hparsed.into_prob_graph()))
}

fn solve_cmd(
    args: &[String],
    read_file: &dyn Fn(&str) -> Result<String, String>,
    count_mode: bool,
) -> Result<String, String> {
    let mut files = Vec::new();
    let mut opts = phom_core::SolverOptions::default();
    let mut queries_file: Option<String> = None;
    let mut cache_cap: Option<usize> = None;
    let mut show_stats = false;
    let mut deadline_ms: Option<u64> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--queries-file" => {
                i += 1;
                let f = args.get(i).ok_or("--queries-file needs a file")?;
                queries_file = Some(f.clone());
            }
            "--cache-cap" => {
                i += 1;
                let n: usize = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .ok_or("--cache-cap needs an entry count")?;
                cache_cap = Some(n);
            }
            "--stats" => show_stats = true,
            "--brute-force" => {
                i += 1;
                let n: usize = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .ok_or("--brute-force needs a number")?;
                opts.fallback = phom_core::Fallback::BruteForce { max_uncertain: n };
            }
            "--monte-carlo" => {
                i += 1;
                let samples: u64 = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .ok_or("--monte-carlo needs a sample count")?;
                opts.fallback = phom_core::Fallback::MonteCarlo {
                    samples,
                    seed: 0x5eed,
                };
            }
            "--deadline-ms" => {
                i += 1;
                let ms: u64 = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .ok_or("--deadline-ms needs a millisecond count")?;
                deadline_ms = Some(ms);
            }
            "--budget-samples" => {
                i += 1;
                let n: u64 = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .ok_or("--budget-samples needs a sample count")?;
                opts.budget.samples = Some(n);
            }
            "--budget-gates" => {
                i += 1;
                let n: u64 = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .ok_or("--budget-gates needs a gate count")?;
                opts.budget.gates = Some(n);
            }
            "--budget-time-ms" => {
                i += 1;
                let ms: u64 = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .ok_or("--budget-time-ms needs a millisecond count")?;
                opts.budget.time = Some(std::time::Duration::from_millis(ms));
            }
            "--on-hard" => {
                i += 1;
                opts.on_hard = match args.get(i).map(String::as_str) {
                    Some("error") => phom_core::OnHard::Error,
                    Some("estimate") => phom_core::OnHard::Estimate,
                    Some(other) => {
                        return Err(format!(
                            "--on-hard: expected error or estimate, got '{other}'"
                        ))
                    }
                    None => return Err("--on-hard needs error or estimate".into()),
                };
            }
            "--precision" => {
                i += 1;
                let v = args
                    .get(i)
                    .ok_or("--precision needs exact, float:<tol>, or auto[:<tol>]")?;
                opts.precision = parse_precision(v)?;
            }
            other if other.starts_with("--") => {
                let cmd = if count_mode { "count" } else { "solve" };
                return Err(format!("{cmd}: unknown flag '{other}'"));
            }
            f => files.push(f.to_string()),
        }
        i += 1;
    }
    if let Some(qsfile) = queries_file {
        if count_mode {
            return Err("--queries-file applies to solve, not count".into());
        }
        let [hfile] = files.as_slice() else {
            return Err("expected: --queries-file <batch-file> <instance-file>".into());
        };
        let batch = BatchConfig {
            opts,
            cache_cap,
            show_stats,
            deadline_ms,
        };
        return batch_solve_cmd(&qsfile, hfile, batch, read_file);
    }
    let [qfile, hfile] = files.as_slice() else {
        return Err("expected: <query-file> <instance-file>".into());
    };
    let (query, instance) = parse_inputs(qfile, hfile, read_file)?;
    // The engine flags apply in single-query mode too.
    let mut builder = Engine::builder().default_options(opts);
    if let Some(cap) = cache_cap {
        builder = builder.cache_capacity(cap);
    }
    let engine = builder.build(instance);

    let with_deadline = |r: Request| match deadline_ms {
        Some(ms) => r.deadline(std::time::Duration::from_millis(ms)),
        None => r,
    };
    if count_mode {
        let answers = engine.submit(&[with_deadline(Request::probability(query).counting())]);
        return match answers.into_iter().next().expect("one request") {
            Ok(Response::Count {
                worlds,
                uncertain_edges,
            }) => Ok(format!(
                "satisfying worlds: {worlds} (of 2^{uncertain_edges})\n"
            )),
            Ok(other) => unreachable!("counting request answered as {other:?}"),
            Err(SolveError::InvalidQuery(msg)) => Err(format!("instance is not unweighted: {msg}")),
            Err(SolveError::Hard(h)) => Err(format!(
                "#P-hard cell ({}; {}); re-run with --brute-force",
                h.cell, h.prop
            )),
            Err(e) => Err(e.to_string()),
        };
    }

    let (answers, stats) = engine.submit_stats(&[with_deadline(Request::probability(query))]);
    let answer = answers.into_iter().next().expect("one request");
    let mut out = String::new();
    match answer {
        Ok(Response::Probability(sol)) => {
            let _ = writeln!(
                out,
                "Pr(G ⇝ H) = {} ≈ {:.6}",
                sol.probability,
                sol.probability.to_f64()
            );
            let _ = writeln!(out, "route: {:?}", sol.route);
        }
        Ok(Response::Approximate {
            value,
            rel_err_bound,
            route,
        }) => {
            let _ = writeln!(out, "Pr(G ⇝ H) ≈ {value} (rel err ≤ {rel_err_bound:.3e})");
            let _ = writeln!(out, "route: {route:?} [float tier]");
        }
        Ok(Response::Estimate {
            lo,
            hi,
            samples,
            route,
        }) => {
            let _ = writeln!(
                out,
                "Pr(G ⇝ H) ∈ [{lo:.6}, {hi:.6}] (95% CI, {samples} samples)"
            );
            let _ = writeln!(out, "route: {route:?} [estimate tier]");
        }
        Ok(other) => unreachable!("probability request answered as {other:?}"),
        Err(SolveError::Hard(h)) => {
            return Err(format!(
                "#P-hard cell: {} [{}]; re-run with --brute-force, --monte-carlo, \
                 or --on-hard estimate",
                h.cell, h.prop
            ))
        }
        Err(e) => return Err(e.to_string()),
    }
    if show_stats {
        let cache = engine.cache_stats();
        let cap = cache_cap.map_or("∞".to_string(), |n| n.to_string());
        let _ = writeln!(
            out,
            "cache: {} entries (cap {cap}), {} hits, {} misses, {} evictions",
            cache.entries, cache.hits, cache.misses, cache.evictions,
        );
        let _ = writeln!(
            out,
            "precision: {} float-evaluated, {} escalations",
            stats.float_evaluated, stats.escalations,
        );
    }
    Ok(out)
}

/// Batch-mode configuration collected from the `solve` flags.
struct BatchConfig {
    opts: phom_core::SolverOptions,
    cache_cap: Option<usize>,
    show_stats: bool,
    deadline_ms: Option<u64>,
}

/// The `--queries-file` batch mode: parse every `---`-separated query
/// section, submit the whole set as one `Engine::submit` batch, and
/// report the batch statistics (plus cache counters under `--stats`).
fn batch_solve_cmd(
    qsfile: &str,
    hfile: &str,
    config: BatchConfig,
    read_file: &dyn Fn(&str) -> Result<String, String>,
) -> Result<String, String> {
    let htext = read_file(hfile)?;
    let hparsed = parse_graph(&htext).map_err(|e| format!("{hfile}: {e}"))?;
    let qstext = read_file(qsfile)?;
    let mut queries = Vec::new();
    for (si, section) in qstext.split("\n---").enumerate() {
        let section = section.trim_start_matches("---");
        if section.trim().is_empty() {
            continue;
        }
        let qparsed =
            parse_graph(section).map_err(|e| format!("{qsfile}: query {}: {e}", si + 1))?;
        if qparsed.probs.iter().any(|p| !p.is_one()) {
            return Err(format!(
                "{qsfile}: query {}: query edges must not carry probabilities",
                si + 1
            ));
        }
        queries.push(align_labels(&qparsed, &hparsed.labels));
    }
    if queries.is_empty() {
        return Err(format!("{qsfile}: no queries found"));
    }
    let instance = hparsed.into_prob_graph();
    let mut builder = Engine::builder().default_options(config.opts);
    if let Some(cap) = config.cache_cap {
        builder = builder.cache_capacity(cap);
    }
    let engine = builder.build(instance);
    let requests: Vec<Request> = queries
        .into_iter()
        .map(|q| {
            let r = Request::probability(q);
            match config.deadline_ms {
                Some(ms) => r.deadline(std::time::Duration::from_millis(ms)),
                None => r,
            }
        })
        .collect();
    let (results, stats) = engine.submit_stats(&requests);
    let mut out = String::new();
    for (i, result) in results.iter().enumerate() {
        match result {
            Ok(Response::Approximate {
                value,
                rel_err_bound,
                route,
            }) => {
                let _ = writeln!(
                    out,
                    "[{i}] Pr(G ⇝ H) ≈ {value:.6} (rel err ≤ {rel_err_bound:.3e})  (route {route:?})"
                );
            }
            Ok(Response::Estimate {
                lo,
                hi,
                samples,
                route,
            }) => {
                let _ = writeln!(
                    out,
                    "[{i}] Pr(G ⇝ H) ∈ [{lo:.6}, {hi:.6}] (95% CI, {samples} samples, route {route:?})"
                );
            }
            Ok(response) => {
                let sol = response.solution().expect("probability request");
                let _ = writeln!(
                    out,
                    "[{i}] Pr(G ⇝ H) = {} ≈ {:.6}  (route {:?})",
                    sol.probability,
                    sol.probability.to_f64(),
                    sol.route
                );
            }
            Err(SolveError::Hard(h)) => {
                let _ = writeln!(out, "[{i}] #P-hard cell: {} [{}]", h.cell, h.prop);
            }
            Err(e) => {
                let _ = writeln!(out, "[{i}] error: {e}");
            }
        }
    }
    let _ = writeln!(
        out,
        "batch: {} queries, {} unique; {} via {} shard arena(s) ({} gates), \
         {} general",
        stats.queries,
        stats.unique_queries,
        stats.circuit_batched,
        stats.shards,
        stats.shared_gates,
        stats.general_solved,
    );
    if config.show_stats {
        let cache = engine.cache_stats();
        let cap = config.cache_cap.map_or("∞".to_string(), |n| n.to_string());
        let _ = writeln!(
            out,
            "cache: {} entries (cap {cap}), {} hits, {} misses, {} evictions",
            cache.entries, cache.hits, cache.misses, cache.evictions,
        );
        let _ = writeln!(
            out,
            "precision: {} float-evaluated, {} escalations",
            stats.float_evaluated, stats.escalations,
        );
    }
    Ok(out)
}

fn classify_cmd(
    args: &[String],
    read_file: &dyn Fn(&str) -> Result<String, String>,
) -> Result<String, String> {
    let [file] = args else {
        return Err("expected: <graph-file>".into());
    };
    let text = read_file(file)?;
    let parsed = parse_graph(&text).map_err(|e| format!("{file}: {e}"))?;
    let c = classify(&parsed.graph);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "vertices: {}, edges: {}, labels: {:?}",
        parsed.graph.n_vertices(),
        parsed.graph.n_edges(),
        parsed.labels
    );
    let _ = writeln!(
        out,
        "connected: {} ({} components)",
        c.is_connected(),
        c.components.len()
    );
    let _ = writeln!(
        out,
        "setting: {}",
        if c.labeled { "labeled" } else { "unlabeled" }
    );
    let _ = writeln!(
        out,
        "classes: 1WP={} 2WP={} DWT={} PT={}",
        c.flags.owp, c.flags.twp, c.flags.dwt, c.flags.pt
    );
    let _ = writeln!(out, "most specific: {:?}", c.most_specific());
    let graded = phom_graph::graded::level_mapping(&parsed.graph);
    match graded {
        Some(lm) => {
            let _ = writeln!(
                out,
                "graded: yes (difference of levels {})",
                lm.difference_of_levels()
            );
        }
        None => {
            let _ = writeln!(out, "graded: no (directed cycle or jumping edge)");
        }
    }
    Ok(out)
}

fn tables_cmd() -> String {
    let mut out = String::new();
    for (title, table) in [
        (
            "Table 1: PHom (unlabeled), disconnected queries",
            tables::TableId::T1UnlabeledDisconnected,
        ),
        (
            "Table 2: PHom (labeled), connected queries",
            tables::TableId::T2LabeledConnected,
        ),
        (
            "Table 3: PHom (unlabeled), connected queries",
            tables::TableId::T3UnlabeledConnected,
        ),
    ] {
        let _ = writeln!(out, "\n{title}");
        let _ = write!(out, "{:>14} |", "query\\instance");
        for col in tables::CLASSES {
            let _ = write!(out, "{:>26}", tables::class_name(col, false));
        }
        let _ = writeln!(out);
        for row in tables::CLASSES {
            let _ = write!(out, "{:>14} |", tables::class_name(row, table.union_rows()));
            for col in tables::CLASSES {
                let text = tables::lookup(table, row, col).to_string();
                let _ = write!(out, "{text:>26}");
            }
            let _ = writeln!(out);
        }
    }
    out
}

fn walk_cmd(
    args: &[String],
    read_file: &dyn Fn(&str) -> Result<String, String>,
) -> Result<String, String> {
    let [hfile, m_str] = args else {
        return Err("expected: <instance-file> <m>".into());
    };
    let m: usize = m_str
        .parse()
        .map_err(|_| format!("'{m_str}' is not a length"))?;
    let htext = read_file(hfile)?;
    let hparsed = parse_graph(&htext).map_err(|e| format!("{hfile}: {e}"))?;
    if hparsed.labels.len() > 1 {
        return Err("walk treats the instance as unlabeled; found multiple labels".into());
    }
    let instance = hparsed.into_prob_graph();
    let nice = phom_graph::treedecomp::NiceDecomposition::heuristic(instance.graph());
    let p: phom_num::Rational =
        phom_core::algo::walk_on_tw::long_walk_probability(&instance, m, &nice);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "decomposition width: {} ({} nice nodes)",
        nice.width(),
        nice.n_nodes()
    );
    let _ = writeln!(out, "Pr(∃ directed walk ≥ {m}) = {} ≈ {:.6}", p, p.to_f64());
    Ok(out)
}

fn influence_cmd(
    args: &[String],
    read_file: &dyn Fn(&str) -> Result<String, String>,
) -> Result<String, String> {
    let [qfile, hfile] = args else {
        return Err("expected: <query-file> <instance-file>".into());
    };
    let (query, instance) = parse_inputs(qfile, hfile, read_file)?;
    let Some((grads, route)) =
        phom_core::sensitivity::influences::<phom_num::Rational>(&query, &instance)
    else {
        return Err(
            "no circuit route for these shapes (need a connected query on a 2WP \
             instance, or a 1WP query on a DWT instance); see \
             phom_core::sensitivity::influences_by_conditioning for other cells"
                .into(),
        );
    };
    let mut out = String::new();
    let _ = writeln!(out, "route: {route:?}");
    let _ = writeln!(
        out,
        "{:>6} {:>16} {:>10} (src -label-> dst)",
        "edge", "influence", "π(e)"
    );
    for (e, inf) in phom_core::sensitivity::rank_edges(grads) {
        let edge = instance.graph().edge(e);
        let _ = writeln!(
            out,
            "{:>6} {:>16} {:>10} ({} -{}-> {})",
            e,
            format!("{:.6}", inf.to_f64()),
            instance.prob(e).to_string(),
            edge.src,
            edge.label.name(),
            edge.dst
        );
    }
    Ok(out)
}

fn ucq_cmd(
    args: &[String],
    read_file: &dyn Fn(&str) -> Result<String, String>,
) -> Result<String, String> {
    let [hfile, qfiles @ ..] = args else {
        return Err("expected: <instance-file> <query-file> [<query-file> ...]".into());
    };
    if qfiles.is_empty() {
        return Err("expected at least one query file".into());
    }
    let htext = read_file(hfile)?;
    let hparsed = parse_graph(&htext).map_err(|e| format!("{hfile}: {e}"))?;
    let mut disjuncts = Vec::new();
    for qfile in qfiles {
        let qtext = read_file(qfile)?;
        let qparsed = parse_graph(&qtext).map_err(|e| format!("{qfile}: {e}"))?;
        if qparsed.probs.iter().any(|p| !p.is_one()) {
            return Err(format!("{qfile}: query edges must not carry probabilities"));
        }
        disjuncts.push(align_labels(&qparsed, &hparsed.labels));
    }
    let instance = hparsed.into_prob_graph();
    let ucq = phom_core::ucq::Ucq::new(disjuncts);
    match phom_core::ucq::probability::<phom_num::Rational>(&ucq, &instance) {
        Some((p, route)) => Ok(format!(
            "Pr(G₁ ∨ … ∨ G_{} ⇝ H) = {} ≈ {:.6}\nroute: {route:?}\n",
            ucq.len(),
            p,
            p.to_f64()
        )),
        None => Err(
            "no tractable UCQ route for these shapes (see phom_core::ucq); \
             the problem is #P-hard beyond them"
                .into(),
        ),
    }
}

/// Convenience used by the binary: read from the real filesystem.
pub fn read_fs(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fake_fs<'a>(
        files: &'a [(&'a str, &'a str)],
    ) -> impl Fn(&str) -> Result<String, String> + 'a {
        move |path: &str| {
            files
                .iter()
                .find(|(n, _)| *n == path)
                .map(|(_, c)| c.to_string())
                .ok_or_else(|| format!("{path}: not found"))
        }
    }

    fn args(s: &[&str]) -> Vec<String> {
        s.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn solve_tractable_input() {
        let fs = fake_fs(&[
            ("q.pg", "edge 0 1 R\nedge 1 2 S\n"),
            ("h.pg", "vertices 3\nedge 0 1 R 1/2\nedge 1 2 S 3/4\n"),
        ]);
        let out = run(&args(&["solve", "q.pg", "h.pg"]), &fs).unwrap();
        assert!(out.contains("3/8"), "{out}");
        assert!(out.contains("Prop411"), "{out}"); // a 1WP instance routes via 2WP

        // Unknown flags are refused by name, not read as a third file.
        for (extra, flag) in [
            (&["--dp"][..], "--dp"),
            (&["--threads", "2"][..], "--threads"),
            (&["--bogus"][..], "--bogus"),
        ] {
            for cmd in ["solve", "count"] {
                let mut argv = vec![cmd, "q.pg", "h.pg"];
                argv.extend_from_slice(extra);
                let err = run(&args(&argv), &fs).unwrap_err();
                assert_eq!(err, format!("{cmd}: unknown flag '{flag}'"));
            }
        }
    }

    #[test]
    fn solve_reports_hard_cell() {
        let fs = fake_fs(&[
            ("q.pg", "edge 0 1 R\n"),
            // A 2-cycle instance: beyond ⊔PT.
            ("h.pg", "edge 0 1 R 1/2\nedge 1 0 R 1/2\n"),
        ]);
        let err = run(&args(&["solve", "q.pg", "h.pg"]), &fs).unwrap_err();
        assert!(err.contains("Prop 5.1"), "{err}");
        // With brute force it resolves: Pr(∃ R edge) = 3/4.
        let out = run(
            &args(&["solve", "q.pg", "h.pg", "--brute-force", "10"]),
            &fs,
        )
        .unwrap();
        assert!(out.contains("3/4"), "{out}");
    }

    #[test]
    fn label_names_align_across_files() {
        // The instance interns S first; the query uses R only — names must
        // match by string, not by intern order.
        let fs = fake_fs(&[
            ("q.pg", "edge 0 1 R\n"),
            ("h.pg", "vertices 3\nedge 0 1 S\nedge 1 2 R 1/2\n"),
        ]);
        let out = run(&args(&["solve", "q.pg", "h.pg"]), &fs).unwrap();
        assert!(out.contains("= 1/2"), "{out}");
        // A query label absent from the instance gives probability 0.
        let fs = fake_fs(&[
            ("q.pg", "edge 0 1 Zap\n"),
            ("h.pg", "vertices 3\nedge 0 1 S\nedge 1 2 R 1/2\n"),
        ]);
        let out = run(&args(&["solve", "q.pg", "h.pg"]), &fs).unwrap();
        assert!(out.contains("= 0"), "{out}");
    }

    #[test]
    fn count_mode() {
        let fs = fake_fs(&[
            ("q.pg", "edge 0 1 R\n"),
            ("h.pg", "vertices 3\nedge 0 1 R 1/2\nedge 1 2 R 1/2\n"),
        ]);
        let out = run(&args(&["count", "q.pg", "h.pg"]), &fs).unwrap();
        assert!(out.contains("satisfying worlds: 3 (of 2^2)"), "{out}");
        // Non-½ probabilities are rejected.
        let fs = fake_fs(&[("q.pg", "edge 0 1 R\n"), ("h.pg", "edge 0 1 R 1/3\n")]);
        let err = run(&args(&["count", "q.pg", "h.pg"]), &fs).unwrap_err();
        assert!(err.contains("not unweighted"), "{err}");
    }

    #[test]
    fn classify_output() {
        let fs = fake_fs(&[("g.pg", "edge 0 1 A\nedge 0 2 A\nedge 2 3 B\n")]);
        let out = run(&args(&["classify", "g.pg"]), &fs).unwrap();
        assert!(out.contains("DWT=true"), "{out}");
        assert!(out.contains("1WP=false"), "{out}");
        assert!(out.contains("labeled"), "{out}");
        assert!(out.contains("graded: yes"), "{out}");
    }

    #[test]
    fn tables_output() {
        // The whole rendering is pinned: every cell, header and column
        // width of the three tables.
        let out = run(&args(&["tables"]), &fake_fs(&[])).unwrap();
        assert_eq!(out, include_str!("../tests/golden/tables.txt"));
    }

    #[test]
    fn query_with_probabilities_rejected() {
        let fs = fake_fs(&[("q.pg", "edge 0 1 R 1/2\n"), ("h.pg", "edge 0 1 R 1/2\n")]);
        let err = run(&args(&["solve", "q.pg", "h.pg"]), &fs).unwrap_err();
        assert!(err.contains("must not carry probabilities"), "{err}");
    }

    #[test]
    fn usage_and_unknown_commands() {
        assert!(run(&[], &fake_fs(&[])).unwrap().contains("commands:"));
        assert!(run(&args(&["bogus"]), &fake_fs(&[])).is_err());
    }

    #[test]
    fn walk_command() {
        // A 2-cycle instance (beyond polytrees): walk ≥ 2 needs both
        // edges... or one edge twice? One edge a→b alone gives walk 1;
        // both give cycles, so any length. Pr = 1/4.
        let fs = fake_fs(&[("h.pg", "edge 0 1 R 1/2\nedge 1 0 R 1/2\n")]);
        let out = run(&args(&["walk", "h.pg", "2"]), &fs).unwrap();
        assert!(out.contains("= 1/4"), "{out}");
        assert!(out.contains("width"), "{out}");
        // m = 0 is certain.
        let out = run(&args(&["walk", "h.pg", "0"]), &fs).unwrap();
        assert!(out.contains("= 1 "), "{out}");
        // Labeled instances are rejected.
        let fs = fake_fs(&[("h.pg", "edge 0 1 R 1/2\nedge 1 2 S 1/2\n")]);
        assert!(run(&args(&["walk", "h.pg", "1"]), &fs).is_err());
    }

    #[test]
    fn influence_command() {
        let fs = fake_fs(&[
            ("q.pg", "edge 0 1 R\nedge 1 2 S\n"),
            (
                "h.pg",
                "vertices 4\nedge 0 1 R 1/2\nedge 1 2 S 3/4\nedge 2 3 R 1/2\n",
            ),
        ]);
        let out = run(&args(&["influence", "q.pg", "h.pg"]), &fs).unwrap();
        assert!(out.contains("route: Circuit2wp"), "{out}");
        // Edge 2 (the trailing R) is irrelevant to R·S: influence 0.
        assert!(out.lines().last().unwrap().contains("0.000000"), "{out}");
        // Shapes without a circuit route are refused with advice.
        let fs = fake_fs(&[
            ("q.pg", "edge 0 1 R\n"),
            ("h.pg", "edge 0 1 R 1/2\nedge 1 0 R 1/2\n"),
        ]);
        let err = run(&args(&["influence", "q.pg", "h.pg"]), &fs).unwrap_err();
        assert!(err.contains("no circuit route"), "{err}");
    }

    #[test]
    fn ucq_command() {
        // R·S ∨ S·S on a DWT instance.
        let fs = fake_fs(&[
            (
                "h.pg",
                "vertices 4\nedge 0 1 R 1/2\nedge 1 2 S 1/2\nedge 1 3 S 1/2\n",
            ),
            ("q1.pg", "edge 0 1 R\nedge 1 2 S\n"),
            ("q2.pg", "edge 0 1 S\nedge 1 2 S\n"),
        ]);
        let out = run(&args(&["ucq", "h.pg", "q1.pg", "q2.pg"]), &fs).unwrap();
        assert!(out.contains("UnionLineageDwt"), "{out}");
        // Pr(R·S) = 1/2·(1 − 1/2·1/2) = 3/8; S·S never matches (S edges
        // are siblings), so the union equals the first disjunct.
        assert!(out.contains("= 3/8"), "{out}");
        // No queries: usage error.
        assert!(run(&args(&["ucq", "h.pg"]), &fs).is_err());
    }

    #[test]
    fn batch_mode_solves_a_query_file() {
        let fs = fake_fs(&[
            (
                "qs.pg",
                "edge 0 1 R\nedge 1 2 S\n---\nedge 0 1 R\n---\nedge 0 1 R\nedge 1 2 S\n---\nedge 0 1 Zap\n",
            ),
            ("h.pg", "vertices 3\nedge 0 1 R 1/2\nedge 1 2 S 3/4\n"),
        ]);
        let out = run(&args(&["solve", "--queries-file", "qs.pg", "h.pg"]), &fs).unwrap();
        // Per-query lines, in order; the repeated query interns to one.
        assert!(out.contains("[0] Pr(G ⇝ H) = 3/8"), "{out}");
        assert!(out.contains("[1] Pr(G ⇝ H) = 1/2"), "{out}");
        assert!(out.contains("[2] Pr(G ⇝ H) = 3/8"), "{out}");
        assert!(out.contains("[3] Pr(G ⇝ H) = 0"), "{out}");
        assert!(out.contains("4 queries, 3 unique"), "{out}");
        // Hard cells report inline instead of aborting the batch.
        let fs = fake_fs(&[
            ("qs.pg", "edge 0 1 R\n"),
            ("h.pg", "edge 0 1 R 1/2\nedge 1 0 R 1/2\n"),
        ]);
        let out = run(&args(&["solve", "--queries-file", "qs.pg", "h.pg"]), &fs).unwrap();
        assert!(out.contains("[0] #P-hard cell"), "{out}");
    }

    #[test]
    fn batch_mode_threads_and_stats_flags() {
        let fs = fake_fs(&[
            (
                "qs.pg",
                "edge 0 1 R\nedge 1 2 S\n---\nedge 0 1 R\n---\nedge 0 1 R\nedge 1 2 S\n",
            ),
            ("h.pg", "vertices 3\nedge 0 1 R 1/2\nedge 1 2 S 3/4\n"),
        ]);
        let plain = run(&args(&["solve", "--queries-file", "qs.pg", "h.pg"]), &fs).unwrap();
        let capped = run(
            &args(&[
                "solve",
                "--queries-file",
                "qs.pg",
                "h.pg",
                "--cache-cap",
                "8",
                "--stats",
            ]),
            &fs,
        )
        .unwrap();
        // Bit-identical per-query lines whatever the cache flags say.
        for i in 0..3 {
            let line = |s: &str| {
                s.lines()
                    .find(|l| l.starts_with(&format!("[{i}]")))
                    .unwrap()
                    .to_string()
            };
            assert_eq!(line(&plain), line(&capped), "query {i}");
        }
        assert!(capped.contains("via 1 shard arena(s)"), "{capped}");
        assert!(capped.contains("cache:"), "{capped}");
        assert!(capped.contains("(cap 8)"), "{capped}");
        assert!(!plain.contains("cache:"), "{plain}");
        // The engine has no shard width: `--threads` is an unknown flag.
        let err = run(
            &args(&["solve", "--queries-file", "qs.pg", "h.pg", "--threads", "2"]),
            &fs,
        )
        .unwrap_err();
        assert!(err.contains("solve: unknown flag '--threads'"), "{err}");
        // Bad flag values are reported.
        assert!(run(
            &args(&["solve", "--queries-file", "qs.pg", "h.pg", "--cache-cap"]),
            &fs
        )
        .is_err());
    }

    #[test]
    fn precision_flag_selects_the_float_tier() {
        let fs = fake_fs(&[
            ("q.pg", "edge 0 1 R\nedge 1 2 S\n"),
            ("h.pg", "vertices 3\nedge 0 1 R 1/2\nedge 1 2 S 3/4\n"),
        ]);
        // Float tier: an approximate answer with a certified bound.
        let out = run(
            &args(&[
                "solve",
                "q.pg",
                "h.pg",
                "--precision",
                "float:1e-6",
                "--stats",
            ]),
            &fs,
        )
        .unwrap();
        assert!(out.contains("≈ 0.375"), "{out}");
        assert!(out.contains("rel err ≤"), "{out}");
        assert!(out.contains("float tier"), "{out}");
        assert!(out.contains("1 float-evaluated, 0 escalations"), "{out}");
        // Auto with an impossible tolerance escalates back to exact.
        let out = run(
            &args(&["solve", "q.pg", "h.pg", "--precision", "auto:0", "--stats"]),
            &fs,
        )
        .unwrap();
        assert!(out.contains("= 3/8"), "{out}");
        assert!(out.contains("0 float-evaluated, 1 escalations"), "{out}");
        // `exact` and bare `auto` (1e-9 tolerance) parse too.
        assert!(run(
            &args(&["solve", "q.pg", "h.pg", "--precision", "exact"]),
            &fs
        )
        .is_ok());
        assert!(run(
            &args(&["solve", "q.pg", "h.pg", "--precision", "auto"]),
            &fs
        )
        .is_ok());
        // Batch mode renders approximate lines and the escalation counters.
        let fs = fake_fs(&[
            ("qs.pg", "edge 0 1 R\nedge 1 2 S\n---\nedge 0 1 R\n"),
            ("h.pg", "vertices 3\nedge 0 1 R 1/2\nedge 1 2 S 3/4\n"),
        ]);
        let out = run(
            &args(&[
                "solve",
                "--queries-file",
                "qs.pg",
                "h.pg",
                "--precision",
                "float:1e-6",
                "--stats",
            ]),
            &fs,
        )
        .unwrap();
        assert!(out.contains("[0] Pr(G ⇝ H) ≈ 0.375"), "{out}");
        assert!(out.contains("2 float-evaluated"), "{out}");
        // Malformed values are typed errors.
        for bad in ["float", "float:x", "auto:-1", "float:inf", "sometimes"] {
            assert!(
                run(&args(&["solve", "q.pg", "h.pg", "--precision", bad]), &fs).is_err(),
                "'{bad}' should be rejected"
            );
        }
    }

    #[test]
    fn batch_mode_input_errors() {
        let fs = fake_fs(&[("qs.pg", "---\n"), ("h.pg", "edge 0 1 R 1/2\n")]);
        let err = run(&args(&["solve", "--queries-file", "qs.pg", "h.pg"]), &fs).unwrap_err();
        assert!(err.contains("no queries"), "{err}");
        let fs = fake_fs(&[("qs.pg", "edge 0 1 R 1/2\n"), ("h.pg", "edge 0 1 R 1/2\n")]);
        let err = run(&args(&["solve", "--queries-file", "qs.pg", "h.pg"]), &fs).unwrap_err();
        assert!(err.contains("must not carry probabilities"), "{err}");
        let err = run(
            &args(&["count", "--queries-file", "qs.pg", "h.pg"]),
            &fake_fs(&[]),
        )
        .unwrap_err();
        assert!(err.contains("not count"), "{err}");
    }

    #[test]
    fn serve_flag_errors() {
        // serve without a mode names the only one.
        let err = run(&args(&["serve"]), &fake_fs(&[])).unwrap_err();
        assert!(err.contains("--listen"), "{err}");
        // Load-generator flags are rejected as unknown.
        for flag in [
            "--bench",
            "--net",
            "--metrics",
            "--requests",
            "--producers",
            "--precision",
        ] {
            let err = run(&args(&["serve", flag]), &fake_fs(&[])).unwrap_err();
            assert!(err.contains(&format!("unknown flag '{flag}'")), "{err}");
        }
        let err = run(
            &args(&["serve", "--listen", "127.0.0.1:0", "--bench"]),
            &fake_fs(&[]),
        )
        .unwrap_err();
        assert!(err.contains("unknown flag '--bench'"), "{err}");
        assert!(run(&args(&["serve", "--max-batch"]), &fake_fs(&[])).is_err());
        assert!(run(&args(&["serve", "--bogus"]), &fake_fs(&[])).is_err());
        assert!(run(&args(&["serve", "--listen"]), &fake_fs(&[])).is_err());
        assert!(run(&args(&["serve", "--share-arena-at", "x"]), &fake_fs(&[])).is_err());
        // An unbindable address is a typed error, not a panic.
        assert!(run(
            &args(&["serve", "--listen", "definitely-not-an-address"]),
            &fake_fs(&[])
        )
        .is_err());
    }

    #[test]
    fn serve_listen_bounded_run() {
        // A bounded listen run: bind an ephemeral port, serve briefly,
        // drain, and summarize.
        let out = run(
            &args(&[
                "serve",
                "--listen",
                "127.0.0.1:0",
                "--serve-for-ms",
                "50",
                "--share-arena-at",
                "8",
                "--workers",
                "2",
            ]),
            &fake_fs(&[]),
        )
        .unwrap();
        assert!(out.contains("served on 127.0.0.1:"), "{out}");
        assert!(out.contains("net: 0 connections"), "{out}");
        assert!(out.contains("runtime: 0 admitted"), "{out}");
        // 'off' disables cross-shard sharing without erroring.
        let out = run(
            &args(&[
                "serve",
                "--listen",
                "127.0.0.1:0",
                "--serve-for-ms",
                "10",
                "--share-arena-at",
                "off",
            ]),
            &fake_fs(&[]),
        )
        .unwrap();
        assert!(out.contains("served on"), "{out}");
    }

    #[test]
    fn serve_listen_drain_flushes_queued_tickets() {
        // Pin the bounded-exit drain: with a patient batcher (10 s
        // max_wait, nothing fills a 128-batch), requests submitted
        // during the serve window wait for company whenever their lane
        // has a tick in flight (an idle lane flushes at once). Whatever is
        // still queued or in flight when the window closes, the exit
        // path must flush it through final ticks while the server still
        // answers polls — not drop the listener on open tickets.
        let (tx, rx) = std::sync::mpsc::channel();
        let handle = std::thread::spawn(move || {
            listen_cmd(ListenConfig {
                addr: "127.0.0.1:0".into(),
                max_batch: 128,
                max_wait_ms: 10_000,
                queue_cap: 1024,
                workers: 2,
                share_arena_at: Some(32),
                serve_for_ms: Some(500),
                ready: Some(tx),
            })
        });
        let addr = rx.recv().unwrap();
        let mut client = phom_net::Client::connect(addr).unwrap();
        let h = ProbGraph::new(
            Graph::directed_path(2),
            vec![phom_num::Rational::from_ratio(1, 2); 2],
        );
        let version = client.register(&h).unwrap();
        let query = Graph::directed_path(1);
        let tickets: Vec<u64> = (0..4)
            .map(|_| {
                client
                    .submit(version, &phom_net::WireRequest::probability(query.clone()))
                    .unwrap()
            })
            .collect();
        // Real answers arrive once the drain fires — never a closed
        // connection or an orphaned ticket.
        for t in tickets {
            let answer = client.wait(t).unwrap();
            assert_eq!(
                answer.get("p").and_then(phom_net::Json::as_str),
                Some("3/4"),
                "{answer}"
            );
        }
        drop(client);
        let out = handle.join().unwrap().unwrap();
        assert!(out.contains("4 admitted, 4 completed"), "{out}");
        assert!(out.contains("0 tickets open at close"), "{out}");
    }

    #[test]
    fn router_flag_errors() {
        let fs = fake_fs(&[("fleet.txt", "a 127.0.0.1:1\nb 127.0.0.1:2\n")]);
        // router without a mode names the only one.
        let err = run(&args(&["router"]), &fs).unwrap_err();
        assert!(err.contains("--listen"), "{err}");
        // Fleet-demo flags are rejected as unknown.
        for flag in ["--bench", "--fleet-size", "--requests"] {
            let err = run(&args(&["router", flag]), &fs).unwrap_err();
            assert!(err.contains(&format!("unknown flag '{flag}'")), "{err}");
        }
        let err = run(
            &args(&["router", "--bench", "--listen", "127.0.0.1:0"]),
            &fs,
        )
        .unwrap_err();
        assert!(err.contains("unknown flag '--bench'"), "{err}");
        // A fleet needs at least one member before it can listen.
        let err = run(&args(&["router", "--listen", "127.0.0.1:0"]), &fs).unwrap_err();
        assert!(err.contains("at least one member"), "{err}");
        // Malformed specs, missing files, bad values: typed errors.
        assert!(run(&args(&["router", "--listen", "x", "--member", "nope"]), &fs).is_err());
        assert!(run(
            &args(&["router", "--listen", "x", "--members", "missing.txt"]),
            &fs
        )
        .is_err());
        assert!(run(&args(&["router", "--bogus"]), &fs).is_err());
        assert!(run(&args(&["router", "--connect-attempts", "x"]), &fs).is_err());
        assert!(run(&args(&["router", "--member"]), &fs).is_err());
    }

    #[test]
    fn router_listen_bounded_run() {
        // A bounded router run against members that are not up: the
        // router binds and serves anyway (member connections are
        // lazy), then reports clean books at close.
        let fs = fake_fs(&[(
            "fleet.txt",
            "# demo fleet\na 127.0.0.1:7451 2\nb=127.0.0.1:7452@0.5\n",
        )]);
        let out = run(
            &args(&[
                "router",
                "--listen",
                "127.0.0.1:0",
                "--members",
                "fleet.txt",
                "--serve-for-ms",
                "50",
                "--connect-attempts",
                "1",
                "--connect-backoff-ms",
                "1",
            ]),
            &fs,
        )
        .unwrap();
        assert!(out.contains("routed on 127.0.0.1:"), "{out}");
        assert!(out.contains("for 2 member(s)"), "{out}");
        assert!(out.contains("0 tickets open at close"), "{out}");
    }

    #[test]
    fn degradation_flags() {
        let hard = fake_fs(&[
            ("q.pg", "edge 0 1 R\n"),
            // A 2-cycle instance: a #P-hard cell for any query.
            ("h.pg", "edge 0 1 R 1/2\nedge 1 0 R 1/2\n"),
        ]);
        // The default hard-cell error now advertises the escape hatch.
        let err = run(&args(&["solve", "q.pg", "h.pg"]), &hard).unwrap_err();
        assert!(err.contains("--on-hard estimate"), "{err}");
        // Opting in degrades to a certified interval; the sample budget
        // caps the Monte-Carlo run.
        let out = run(
            &args(&[
                "solve",
                "q.pg",
                "h.pg",
                "--on-hard",
                "estimate",
                "--budget-samples",
                "2000",
            ]),
            &hard,
        )
        .unwrap();
        assert!(out.contains("95% CI, 2000 samples"), "{out}");
        assert!(out.contains("estimate tier"), "{out}");
        // The true Pr(∃ R edge) = 3/4 lies inside the printed interval.
        let line = out.lines().next().unwrap();
        let (lo, rest) = line
            .split_once('[')
            .and_then(|(_, r)| r.split_once(','))
            .unwrap();
        let hi = rest.trim_start().split_once(']').unwrap().0;
        let (lo, hi): (f64, f64) = (lo.parse().unwrap(), hi.parse().unwrap());
        assert!(lo <= 0.75 && 0.75 <= hi, "{out}");

        // An already-expired deadline is a typed error, never a stale
        // (or slow) answer — even on a tractable input.
        let easy = fake_fs(&[("q.pg", "edge 0 1 R\n"), ("h.pg", "edge 0 1 R 1/2\n")]);
        let err = run(
            &args(&["solve", "q.pg", "h.pg", "--deadline-ms", "0"]),
            &easy,
        )
        .unwrap_err();
        assert!(err.contains("deadline exceeded"), "{err}");
        // Count mode honors the deadline too.
        let half = fake_fs(&[("q.pg", "edge 0 1 R\n"), ("h.pg", "edge 0 1 R 1/2\n")]);
        let err = run(
            &args(&["count", "q.pg", "h.pg", "--deadline-ms", "0"]),
            &half,
        )
        .unwrap_err();
        assert!(err.contains("deadline exceeded"), "{err}");
        // Batch mode reports per-query deadline errors inline.
        let batch = fake_fs(&[("qs.pg", "edge 0 1 R\n"), ("h.pg", "edge 0 1 R 1/2\n")]);
        let out = run(
            &args(&[
                "solve",
                "--queries-file",
                "qs.pg",
                "h.pg",
                "--deadline-ms",
                "0",
            ]),
            &batch,
        )
        .unwrap();
        assert!(out.contains("[0] error: deadline exceeded"), "{out}");

        // Malformed values are typed errors, not panics.
        for bad in [
            &["solve", "q.pg", "h.pg", "--on-hard", "sometimes"][..],
            &["solve", "q.pg", "h.pg", "--on-hard"],
            &["solve", "q.pg", "h.pg", "--deadline-ms", "x"],
            &["solve", "q.pg", "h.pg", "--deadline-ms"],
            &["solve", "q.pg", "h.pg", "--budget-samples", "-3"],
            &["solve", "q.pg", "h.pg", "--budget-gates"],
            &["solve", "q.pg", "h.pg", "--budget-time-ms", "never"],
        ] {
            assert!(
                run(&args(bad), &hard).is_err(),
                "{bad:?} should be rejected"
            );
        }
    }

    #[test]
    fn monte_carlo_flag() {
        let fs = fake_fs(&[
            ("q.pg", "edge 0 1 R\n"),
            ("h.pg", "edge 0 1 R 1/2\nedge 1 0 R 1/2\n"),
        ]);
        let out = run(
            &args(&["solve", "q.pg", "h.pg", "--monte-carlo", "4000"]),
            &fs,
        )
        .unwrap();
        assert!(out.contains("MonteCarlo"), "{out}");
    }
}
