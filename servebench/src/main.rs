//! The serving benchmark: one seeded workload per process through the
//! real serving stack (engine → runtime → net → fleet), every answer
//! checked against an in-process `Engine::submit` oracle.
//!
//! ```text
//! servebench --workload <warm_pipelined|cold_mixed|fleet_churn>
//!            --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` replays the
//! workload's request stream into each layer's public entry point,
//! records spans around every call, writes them to
//! `$CARGO_TARGET_DIR/servebench-traces/` and prints the per-layer
//! metrics. The last stdout line is one JSON object
//! (`correct`, `attempted`, `failed`, `metrics`); the exit code is
//! nonzero on any wrong answer, unbalanced books or leaked ticket.
//! `NOTES.md` records why each workload and metric exists.

mod check;
mod conn;
mod drive;
mod gen;
mod layers;
mod stack;
mod stats;
mod traced;
mod window;

use check::{Books, Oracle};
use conn::Conn;
use drive::Shape;
use gen::{Stream, Workload};
use stack::{prepare, Entry, Stack};
use stats::median;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 9;

pub struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut i = 0;
    while i < argv.len() {
        let value = argv
            .get(i + 1)
            .ok_or_else(|| format!("{} needs a value", argv[i]))?;
        match argv[i].as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload '{value}'"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed needs an integer")?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|_| "--seconds needs a number")?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace needs 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag '{other}'")),
        }
        i += 2;
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.filter(|s| *s > 0.0).unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

pub fn streams(args: &Args) -> Vec<Stream> {
    (0..2)
        .map(|c| Stream::new(args.workload, args.seed, c))
        .collect()
}

/// The layer a workload's own traffic enters.
pub fn entry(workload: Workload) -> Entry {
    match workload {
        Workload::FleetChurn => Entry::Router,
        _ => Entry::V2,
    }
}

pub struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    samples: usize,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str, samples: usize) -> Metric {
    Metric {
        name,
        value,
        unit,
        samples,
    }
}

pub struct Report {
    metrics: Vec<Metric>,
    books: Books,
    problems: Vec<String>,
}

/// Builds the workload's stack `SETUPS` times (all but the last torn
/// down again) and returns the last one with the median set-up time.
pub fn set_up(
    args: &Args,
    process_start: Instant,
) -> Result<(Stack, Vec<Conn>, Vec<Stream>, f64), String> {
    let mut times = Vec::new();
    let mut kept = None;
    for k in 0..SETUPS {
        let t = if k == 0 {
            process_start
        } else {
            Instant::now()
        };
        let streams = streams(args);
        let (stack, mut conns) = Stack::build(args.workload, entry(args.workload))?;
        prepare(&mut conns, &streams)?;
        times.push(t.elapsed().as_secs_f64());
        if let Some((old_stack, old_conns, _)) = kept.replace((stack, conns, streams)) {
            drop(old_conns);
            Stack::shutdown(old_stack)?;
        }
    }
    let (stack, conns, streams) = kept.expect("at least one set-up");
    Ok((stack, conns, streams, median(&times)))
}

fn end_to_end(args: &Args, process_start: Instant) -> Result<Report, String> {
    let (stack, conns, streams, setup_s) = set_up(args, process_start)?;
    let admitted0 = stack.admitted();
    let (conns, w) = window::run(
        conns,
        streams,
        args.workload,
        args.seconds,
        entry(args.workload),
        None,
    );
    let admitted = stack.admitted() - admitted0;
    drop(conns);
    let peak_rss = stats::peak_rss_mib().unwrap_or(0.0);
    let mut problems: Vec<String> = stack.shutdown().err().into_iter().collect();
    let mut books = Books::default();
    books.add(&w.runs, &mut Oracle::default());
    problems.extend(books.problems(admitted));

    let lat = w.latencies();
    // An open loop answers at its offered rate while it keeps up, so its
    // per-second counts are constant; the whole-window rate shows drift.
    let throughput = match window::shape(args.workload, entry(args.workload)) {
        Shape::Open { .. } => w.throughput(),
        Shape::Closed { .. } => w.sliced_throughput(),
    };
    let slo = args.workload.slo_us();
    let within = w
        .recs()
        .filter(|r| r.failure.is_none() && r.lat_us <= slo)
        .count();
    let attempted = books.attempted.max(1) as f64;
    let metrics = vec![
        metric("throughput_rps", throughput, "1/s", w.answered()),
        metric("latency_p50_us", w.sliced_quantile(0.50), "us", lat.len()),
        metric("latency_p90_us", w.sliced_quantile(0.90), "us", lat.len()),
        metric(
            "slo_frac",
            within as f64 / attempted,
            "ratio",
            books.attempted as usize,
        ),
        metric(
            "answered_frac",
            books.answered as f64 / attempted,
            "ratio",
            books.attempted as usize,
        ),
        metric("peak_rss_mib", peak_rss, "MiB", 1),
        metric("setup_s", setup_s, "s", SETUPS),
    ];
    Ok(Report {
        metrics,
        books,
        problems,
    })
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("servebench: {e}");
            return ExitCode::from(2);
        }
    };
    let report = if args.trace {
        traced::traced(&args)
    } else {
        end_to_end(&args, process_start)
    };
    let report = match report {
        Ok(report) => report,
        Err(e) => {
            eprintln!("servebench: {e}");
            return ExitCode::FAILURE;
        }
    };
    for m in &report.metrics {
        println!(
            "{:<36} {:>14.4} {:<6} (n={})",
            m.name, m.value, m.unit, m.samples
        );
    }
    let b = &report.books;
    println!(
        "books: {} attempted = {} answered + {} overloaded + {} member_unavailable + {} other; \
         {} wrong answers, {} float bounds off in the last digits",
        b.attempted, b.answered, b.overloaded, b.unavailable, b.other, b.mismatches, b.bound_drift
    );
    if let Some(failure) = &b.first_failure {
        println!("first failure: {failure}");
    }
    for problem in &report.problems {
        println!("FAIL: {problem}");
    }
    let mut json = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        report.problems.is_empty(),
        b.attempted,
        b.failed()
    );
    for (i, m) in report.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            json,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    json.push_str("}}");
    println!("{json}");
    if report.problems.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
