//! One timed window of a workload through one entry layer, and the
//! statistics read off it.

use crate::conn::Conn;
use crate::drive::{self, ConnRun, Rec, Shape, Span};
use crate::gen::{self, Stream, Workload};
use crate::stack::Entry;
use crate::stats::{median, quantile};
use std::time::{Duration, Instant};

/// Length of the slices a window's latency and throughput statistics are
/// taken over, s. Each slice still holds over a thousand answers on every
/// workload, so its p99 has ten samples beyond it.
const SLICE_S: f64 = 0.25;

/// Everything one timed window recorded, over all connections.
pub struct Window {
    pub runs: Vec<ConnRun>,
    start: Instant,
    /// The window as offered, s.
    offered: f64,
    /// From the start to the last answer, s.
    secs: f64,
}

impl Window {
    pub fn recs(&self) -> impl Iterator<Item = &Rec> {
        self.runs.iter().flat_map(|r| r.recs.iter())
    }

    pub fn latencies(&self) -> Vec<f64> {
        self.recs()
            .filter(|r| r.failure.is_none())
            .map(|r| r.lat_us)
            .collect()
    }

    /// Answered latencies, grouped into [`SLICE_S`] slices of the window
    /// by when each request was sent (or due).
    fn slices(&self) -> Vec<Vec<f64>> {
        let n = ((self.offered / SLICE_S).floor() as usize).max(1);
        let mut per: Vec<Vec<f64>> = vec![Vec::new(); n];
        for r in self.recs().filter(|r| r.failure.is_none()) {
            let k = r.at.saturating_duration_since(self.start).as_secs_f64() / SLICE_S;
            if let Some(slice) = per.get_mut(k as usize) {
                slice.push(r.lat_us);
            }
        }
        per
    }

    /// The `q`-quantile of answered latencies within each slice, then
    /// the median over the slices: a stall on a shared machine moves the
    /// slices it touches, not the tail of the whole run.
    pub fn sliced_quantile(&self, q: f64) -> f64 {
        let qs: Vec<f64> = self
            .slices()
            .iter()
            .filter(|v| !v.is_empty())
            .map(|v| quantile(v, q))
            .collect();
        median(&qs)
    }

    /// Answers per second within each slice, then the median over the
    /// slices.
    pub fn sliced_throughput(&self) -> f64 {
        let rates: Vec<f64> = self
            .slices()
            .iter()
            .map(|v| v.len() as f64 / SLICE_S)
            .collect();
        median(&rates)
    }

    pub fn answered(&self) -> usize {
        self.recs().filter(|r| r.failure.is_none()).count()
    }

    pub fn throughput(&self) -> f64 {
        self.answered() as f64 / self.secs
    }

    pub fn spans(&self) -> impl Iterator<Item = &Span> {
        self.runs.iter().flat_map(|r| r.spans.iter())
    }
}

/// How `workload` offers load through `entry`.
pub fn shape(workload: Workload, entry: Entry) -> Shape {
    match workload {
        // v1 connections cannot read answers while a schedule keeps
        // sending, so an open-loop stream enters v1 layers in bursts.
        Workload::WarmPipelined if matches!(entry, Entry::V1 | Entry::Router | Entry::Direct) => {
            Shape::Closed {
                depth: gen::FLEET_BURST,
                burst: true,
            }
        }
        Workload::WarmPipelined => Shape::Open {
            rate_per_conn: gen::WARM_RATE_RPS / 2.0,
        },
        Workload::ColdMixed => Shape::Closed {
            depth: gen::COLD_DEPTH,
            burst: false,
        },
        Workload::FleetChurn => Shape::Closed {
            depth: gen::FLEET_BURST,
            burst: true,
        },
    }
}

/// Runs one window of `streams` over `conns` and returns them with it.
pub fn run(
    conns: Vec<Conn>,
    streams: Vec<Stream>,
    workload: Workload,
    secs: f64,
    entry: Entry,
    epoch: Option<Instant>,
) -> (Vec<Conn>, Window) {
    let start = Instant::now();
    let (conns, runs) = drive::run(
        conns,
        streams,
        shape(workload, entry),
        start,
        Duration::from_secs_f64(secs),
        entry.name(),
        epoch,
    );
    let end = runs.iter().map(|r| r.finished).max().unwrap_or(start);
    (
        conns,
        Window {
            runs,
            start,
            offered: secs,
            secs: end.saturating_duration_since(start).as_secs_f64().max(1e-9),
        },
    )
}
