//! The metric tables are the one source of every metric name: the
//! `stats` JSON, the Prometheus `metrics` text and `docs/metrics.md`
//! must agree with them. Fixture snapshots with a distinct value in
//! every field must still render every line the hand-written
//! renderers emitted before the tables replaced them
//! (`tests/golden/metrics.txt`).

use phom_fleet::{RouterStats, FLEET_METRICS, ROUTER_METRICS};
use phom_net::wire::encode_metrics;
use phom_net::{Json, NetStats, NET_METRICS};
use phom_obs::{Histogram, Kind, Metric, PromText};
use phom_serve::{RuntimeStats, RUNTIME_METRICS};
use std::collections::BTreeSet;

fn hist(seed: u64) -> Histogram {
    let mut h = Histogram::new();
    for v in [seed, seed * 7 + 3, seed * 1000 + 11, seed * 50_000 + 13] {
        h.record(v);
    }
    h
}

fn fixture_runtime() -> RuntimeStats {
    RuntimeStats {
        workers: 3,
        workers_started: 4,
        queue_depth: 5,
        queue_depth_max: 6,
        fast_lane_depth: 7,
        slow_lane_depth: 8,
        fast_lane_depth_max: 9,
        slow_lane_depth_max: 10,
        fast_lane_total: 11,
        slow_lane_total: 12,
        admitted: 1013,
        rejected: 14,
        cancelled: 15,
        completed: 916,
        shed_expired: 17,
        ticks_in_flight: 18,
        ticks: 19,
        total_tick_requests: 20,
        max_tick_requests: 21,
        tick_size_hist: [22, 23, 24, 25, 26, 27, 28, 29],
        shared_arena_ticks: 30,
        shared_gates: 31,
        unit_runs: 32,
        unit_nanos_total: 33,
        unit_nanos_max: 34,
        tick_nanos_total: 35,
        tick_nanos_max: 36,
        queries: 37,
        unique_queries: 38,
        batch_cache_hits: 39,
        circuit_batched: 40,
        general_solved: 41,
        float_evaluated: 42,
        escalations: 43,
        estimates: 44,
        deadline_exceeded: 45,
        budget_exceeded: 46,
        scratch_reuse: 47,
        queue_ns_fast: hist(48),
        queue_ns_slow: hist(49),
        plan_ns: hist(50),
        eval_ns: hist(51),
        encode_ns: hist(52),
        request_ns_fast: hist(53),
        request_ns_slow: hist(54),
        cache: phom_core::CacheStats {
            hits: 55,
            misses: 56,
            evictions: 57,
            entries: 58,
        },
    }
}

/// `inflight` reads below zero, as the signed gauge can mid-race.
fn fixture_net() -> (NetStats, Histogram) {
    let net = NetStats {
        connections: 61,
        frames_in: 62,
        frames_out: 63,
        submitted: 64,
        rejected_overloaded: 65,
        delivered: 66,
        open_tickets: 67,
        pushed: 68,
        hello_upgrades: 69,
        inflight: -70,
    };
    (net, hist(71))
}

/// `mux_submits` equals `submitted`: every member link is multiplexed.
fn fixture_router() -> RouterStats {
    RouterStats {
        connections: 81,
        frames_in: 82,
        frames_out: 83,
        submitted: 84,
        mux_submits: 84,
        delivered: 85,
        member_unavailable: 86,
        handoffs: 87,
        lazy_registers: 88,
        drained_deregisters: 89,
        open_tickets: 90,
    }
}

/// `path=value` per JSON leaf; objects recurse, anything else is one
/// compact leaf.
fn flatten(prefix: &str, json: &Json, out: &mut Vec<String>) {
    match json {
        Json::Obj(pairs) => {
            for (k, v) in pairs {
                flatten(&format!("{prefix}.{k}"), v, out);
            }
        }
        leaf => out.push(format!("{prefix}={leaf}")),
    }
}

/// Every line the tables render for the fixtures, tagged like the
/// golden file: the server's `stats` reply (runtime rows, `net`
/// nested) and `metrics` text, the router's `stats.router` object and
/// its membership + router families.
fn rendered() -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    let mut push = |tag: &str, lines: Vec<String>| {
        out.extend(lines.into_iter().map(|l| format!("[{tag}] {l}")));
    };
    let runtime = fixture_runtime();
    let net = fixture_net();
    let router = fixture_router();
    let membership = (3, 2);

    let mut json = Vec::new();
    flatten(
        "stats",
        &encode_metrics(RUNTIME_METRICS, &runtime),
        &mut json,
    );
    push("runtime", json);
    push("runtime", lines(runtime.prometheus_text()));
    let mut json = Vec::new();
    flatten("stats.net", &encode_metrics(NET_METRICS, &net), &mut json);
    push("net", json);
    let mut prom = PromText::new();
    prom.rows(NET_METRICS, &net);
    push("net", lines(prom.finish()));

    let mut json = Vec::new();
    flatten(
        "stats.router",
        &encode_metrics(ROUTER_METRICS, &router),
        &mut json,
    );
    push("router", json);
    let mut prom = PromText::new();
    prom.rows(FLEET_METRICS, &membership);
    prom.rows(ROUTER_METRICS, &router);
    push("router", lines(prom.finish()));
    out
}

fn lines(text: String) -> Vec<String> {
    text.lines().map(str::to_string).collect()
}

#[test]
fn tables_render_every_line_the_hand_written_renderers_did() {
    let rendered = rendered();
    let golden: Vec<&str> = include_str!("golden/metrics.txt")
        .lines()
        .filter(|l| l.starts_with('['))
        .collect();
    assert!(golden.len() > 300, "golden file truncated");
    let missing: Vec<&&str> = golden.iter().filter(|l| !rendered.contains(**l)).collect();
    assert!(missing.is_empty(), "no longer rendered: {missing:#?}");
}

/// One table row as its `docs/metrics.md` line.
fn doc_line<S>(row: &Metric<S>) -> String {
    let labels: Vec<String> = row
        .labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{v}\""))
        .collect();
    let kind = match row.kind {
        Kind::Counter => "counter",
        Kind::Level => "level",
        Kind::HighWater => "high-water",
        Kind::Histogram => "histogram",
    };
    format!(
        "| `{}` | {} | {kind} | `{}` | {} |",
        row.name,
        labels.join(","),
        row.key,
        row.help
    )
}

/// A table's own invariants: one JSON key per row, one sample series
/// per (family, labels), and each family's rows adjacent with one HELP
/// and one kind, so the renderer writes its HELP/TYPE lines once.
fn check_table<S>(table: &str, rows: &[Metric<S>]) {
    let mut keys = BTreeSet::new();
    let mut series = BTreeSet::new();
    let mut closed: BTreeSet<&str> = BTreeSet::new();
    for (i, row) in rows.iter().enumerate() {
        assert!(keys.insert(row.key), "{table}: key {} twice", row.key);
        assert!(
            series.insert((row.name, row.labels)),
            "{table}: series {} {:?} twice",
            row.name,
            row.labels
        );
        match i.checked_sub(1).map(|p| &rows[p]) {
            Some(prev) if prev.name == row.name => {
                assert_eq!(prev.help, row.help, "{table}: {} HELP differs", row.name);
                assert_eq!(prev.kind, row.kind, "{table}: {} kind differs", row.name);
            }
            Some(prev) => {
                closed.insert(prev.name);
                assert!(!closed.contains(row.name), "{table}: {} split", row.name);
            }
            None => {}
        }
    }
}

#[test]
fn docs_metrics_md_lists_exactly_the_table_rows() {
    check_table("RUNTIME_METRICS", RUNTIME_METRICS);
    check_table("NET_METRICS", NET_METRICS);
    check_table("ROUTER_METRICS", ROUTER_METRICS);
    check_table("FLEET_METRICS", FLEET_METRICS);
    let mut tables: Vec<String> = RUNTIME_METRICS.iter().map(doc_line).collect();
    tables.extend(NET_METRICS.iter().map(doc_line));
    tables.extend(ROUTER_METRICS.iter().map(doc_line));
    tables.extend(FLEET_METRICS.iter().map(doc_line));
    let doc = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/docs/metrics.md"))
        .expect("docs/metrics.md");
    let listed: Vec<&str> = doc.lines().filter(|l| l.starts_with("| `phom_")).collect();
    let names: BTreeSet<String> = tables.iter().cloned().collect();
    let undocumented: Vec<&String> = tables
        .iter()
        .filter(|l| !listed.contains(&l.as_str()))
        .collect();
    let stale: Vec<&&str> = listed.iter().filter(|l| !names.contains(**l)).collect();
    assert!(
        undocumented.is_empty(),
        "rows missing from docs/metrics.md: {undocumented:#?}"
    );
    assert!(
        stale.is_empty(),
        "docs/metrics.md rows no table has: {stale:#?}"
    );
    assert_eq!(
        listed.len(),
        tables.len(),
        "docs/metrics.md lists a row twice"
    );
}
