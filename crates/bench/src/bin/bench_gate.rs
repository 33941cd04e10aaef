//! The perf-regression gate: compares a fresh `tables --json` smoke run
//! against the committed baseline (`BENCH_*.json` at the repo root) and
//! fails when any entry's median regresses beyond its allowed ratio.
//!
//! The gate is deliberately **loose** (default 3×): CI runners are noisy,
//! and the point is to catch catastrophic regressions — an accidental
//! `O(n²)` on the β-elimination path, a lost fast path — not 10% drift.
//! Every entry is gated: a noisy entry carries a wider ratio in
//! `ENTRY_RATIOS`, never a skip. The baseline and the run must list the
//! same entries; one present on only one side fails the gate, so the
//! harness and its baseline cannot drift apart.
//!
//! Usage: `bench_gate <baseline.json> <current.json>`
//!
//! Both files use the `phom-bench-smoke/v1` schema emitted by
//! `tables --json`; the parser below reads exactly that shape (one
//! `{"id": …, "n": …, "median_ns": …}` object per line) without pulling a
//! JSON dependency into the workspace.

use std::process::ExitCode;

/// The allowed current/baseline ratio for entries not in `ENTRY_RATIOS`.
const DEFAULT_RATIO: f64 = 3.0;

/// Per-entry ratios wider than the default, each with its reason.
const ENTRY_RATIOS: &[(&str, f64)] = &[
    // Per-call medians of a microsecond or less: under CPU contention
    // these moved most (5–9× between runs, against 2–4× for the
    // millisecond entries).
    ("engine_eval_prebuilt", 6.0),
    ("prop411_float_circuit", 6.0),
    ("engine_eval_f64_prebuilt", 6.0),
];

fn parse_entries(text: &str, origin: &str) -> Result<Vec<(String, f64)>, String> {
    let mut out = Vec::new();
    for line in text.lines() {
        let Some(id) = extract_str(line, "\"id\"") else {
            continue;
        };
        let median = extract_num(line, "\"median_ns\"")
            .ok_or_else(|| format!("{origin}: entry '{id}' has no median_ns"))?;
        out.push((id, median));
    }
    if out.is_empty() {
        return Err(format!("{origin}: no phom-bench-smoke entries found"));
    }
    Ok(out)
}

fn extract_str(line: &str, key: &str) -> Option<String> {
    let at = line.find(key)? + key.len();
    let rest = line[at..].trim_start_matches([':', ' ']);
    let rest = rest.strip_prefix('"')?;
    Some(rest[..rest.find('"')?].to_string())
}

fn extract_num(line: &str, key: &str) -> Option<f64> {
    let at = line.find(key)? + key.len();
    let rest = line[at..].trim_start_matches([':', ' ']);
    let end = rest
        .find(|c: char| !c.is_ascii_digit() && c != '.')
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// The allowed ratio for an entry.
fn limit_for(id: &str) -> f64 {
    ENTRY_RATIOS
        .iter()
        .find(|(eid, _)| *eid == id)
        .map_or(DEFAULT_RATIO, |(_, r)| *r)
}

/// Compares a run against its baseline: one Markdown table row per
/// entry, and whether every entry passed.
fn gate(baseline: &[(String, f64)], current: &[(String, f64)]) -> (Vec<String>, bool) {
    let mut rows = Vec::new();
    let mut ok = true;
    for (id, base) in baseline {
        let Some((_, cur)) = current.iter().find(|(cid, _)| cid == id) else {
            ok = false;
            rows.push(format!("| {id} | {base:.0}ns | (missing) | — | MISSING |"));
            continue;
        };
        let ratio = cur / base;
        let limit = limit_for(id);
        let verdict = if ratio > limit {
            ok = false;
            "REGRESSION"
        } else {
            "ok"
        };
        rows.push(format!(
            "| {id} | {base:.0}ns | {cur:.0}ns | {ratio:.2}× (≤{limit}×) | {verdict} |"
        ));
    }
    for (id, cur) in current {
        if !baseline.iter().any(|(bid, _)| bid == id) {
            ok = false;
            rows.push(format!(
                "| {id} | (missing) | {cur:.0}ns | — | NO BASELINE |"
            ));
        }
    }
    (rows, ok)
}

fn run(args: &[String]) -> Result<bool, String> {
    let [baseline_path, current_path] = args else {
        return Err("usage: bench_gate <baseline.json> <current.json>".into());
    };
    let read = |p: &str| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));
    let baseline = parse_entries(&read(baseline_path)?, baseline_path)?;
    let current = parse_entries(&read(current_path)?, current_path)?;
    let (rows, ok) = gate(&baseline, &current);
    println!("| id | baseline | current | ratio | verdict |");
    println!("|---|---|---|---|---|");
    for row in rows {
        println!("{row}");
    }
    if !ok {
        println!("\nbench_gate: an entry regressed past its ratio, or the run and the");
        println!("baseline list different entries. If the change is intended, regenerate");
        println!("the baseline with `tables --json`.");
    }
    Ok(ok)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("bench_gate: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entries(list: &[(&str, f64)]) -> Vec<(String, f64)> {
        list.iter().map(|(id, ns)| (id.to_string(), *ns)).collect()
    }

    #[test]
    fn parses_smoke_lines() {
        let text = "{\n  \"results\": [\n    {\"id\": \"a\", \"n\": 4, \"median_ns\": 1500000},\n    {\"id\": \"b\", \"n\": 2, \"median_ns\": 42}\n  ]\n}";
        let got = parse_entries(text, "t").unwrap();
        assert_eq!(
            got,
            vec![("a".to_string(), 1_500_000.0), ("b".to_string(), 42.0)]
        );
        assert!(parse_entries("{}", "t").is_err());
    }

    #[test]
    fn matching_entries_within_their_ratios_pass() {
        let base = entries(&[("prop36_dwt_dp", 1e6), ("engine_eval_f64_prebuilt", 300.0)]);
        let cur = entries(&[
            ("prop36_dwt_dp", 2.9e6),
            ("engine_eval_f64_prebuilt", 1500.0),
        ]);
        let (rows, ok) = gate(&base, &cur);
        assert!(ok, "{rows:?}");
        assert!(rows.iter().all(|r| r.ends_with("| ok |")), "{rows:?}");
    }

    #[test]
    fn missing_entry_fails() {
        let base = entries(&[("prop36_dwt_dp", 1e6), ("prop54_opt_automaton", 1e6)]);
        let cur = entries(&[("prop36_dwt_dp", 1e6)]);
        let (rows, ok) = gate(&base, &cur);
        assert!(!ok);
        assert!(rows
            .iter()
            .any(|r| r.starts_with("| prop54_opt_automaton |") && r.ends_with("| MISSING |")));
    }

    #[test]
    fn extra_entry_fails() {
        let base = entries(&[("prop36_dwt_dp", 1e6)]);
        let cur = entries(&[("prop36_dwt_dp", 1e6), ("new_entry", 5e5)]);
        let (rows, ok) = gate(&base, &cur);
        assert!(!ok);
        assert!(rows
            .iter()
            .any(|r| r.starts_with("| new_entry |") && r.ends_with("| NO BASELINE |")));
    }

    #[test]
    fn sub_10us_baseline_that_regresses_past_its_ratio_fails() {
        // No noise floor: a sub-microsecond baseline is gated like any
        // other, at the default ratio or at its wider listed one.
        for id in ["prop36_dwt_dp", "engine_eval_prebuilt"] {
            let base = entries(&[(id, 866.0)]);
            let limit = limit_for(id);
            let (_, ok) = gate(&base, &entries(&[(id, 866.0 * (limit + 0.5))]));
            assert!(!ok, "{id}");
            let (_, ok) = gate(&base, &entries(&[(id, 866.0 * (limit - 0.5))]));
            assert!(ok, "{id}");
        }
        assert_eq!(limit_for("prop36_dwt_dp"), DEFAULT_RATIO);
        assert!(limit_for("engine_eval_prebuilt") > DEFAULT_RATIO);
    }
}
