//! Zero-dependency observability primitives for the serving stack.
//!
//! This crate is the measurement substrate shared by every serving layer
//! (engine → runtime → net → fleet). It deliberately depends on nothing but
//! `std` so it can sit below `phom-serve`, `phom-net`, and `phom-fleet`
//! without dependency cycles. It provides:
//!
//! - [`TraceId`]: a nonzero 64-bit request identifier minted at the front
//!   door (net server or fleet router) and carried through wire frames and
//!   [`Request`](../phom_core/struct.Request.html) plumbing.
//! - [`Span`] / [`Stage`]: one timed step of a request's life (admitted,
//!   queued, planned, evaluated, encoded, routed).
//! - [`SpanRing`]: a fixed-size lock-free ring buffer of spans. Writers
//!   never block and never allocate; the oldest spans are overwritten.
//! - [`Histogram`]: a log-linear latency histogram (p50/p90/p99/max,
//!   mergeable) with ≤ 1/8 relative bucket width above 8.
//! - [`Metric`] / [`Kind`] / [`Value`]: one metric declared once, as a
//!   row of a `const` table per snapshot type. The serving layers'
//!   `stats` JSON, Prometheus text and fleet rollup all render from
//!   these rows (`docs/metrics.md` lists them).
//! - [`PromText`]: a tiny Prometheus text-format builder over metric
//!   readings, used by the `metrics` wire op on both the server and the
//!   router.
//!
//! # Design notes
//!
//! The span ring uses a per-slot seqlock: the writer bumps a slot sequence
//! to an odd value, stores the span fields, then publishes an even
//! sequence. Readers retry a slot whose sequence is odd or changed across
//! the read. This keeps the hot path at a handful of relaxed atomic stores
//! plus one `fetch_add`, with no locks and no allocation.
//!
//! Histogram buckets: values `0..8` map to their own bucket (exact);
//! larger values use 8 sub-buckets per power of two, so a reported
//! quantile is at most one part in eight above the true value. Quantiles
//! report the *upper bound* of the bucket the rank falls in, which makes
//! them conservative (never under-report latency).

use std::sync::atomic::{AtomicU64, Ordering};

// ---------------------------------------------------------------------------
// Trace ids
// ---------------------------------------------------------------------------

/// A nonzero 64-bit trace identifier.
///
/// Minted once at the front door and carried end to end; `0` is reserved as
/// "no trace" so spans can use a plain `u64` field.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct TraceId(u64);

static TRACE_COUNTER: AtomicU64 = AtomicU64::new(1);

/// `splitmix64` finalizer: spreads a sequential counter over the full
/// 64-bit space so trace ids from different processes rarely collide on
/// their low bits.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

impl TraceId {
    /// Mint a fresh process-unique trace id.
    pub fn mint() -> TraceId {
        let n = TRACE_COUNTER.fetch_add(1, Ordering::Relaxed);
        // Seed with the process id so two processes started at the same
        // counter value diverge. splitmix64 maps exactly one input to 0.
        let mixed = splitmix64(n ^ ((std::process::id() as u64) << 32));
        TraceId(if mixed == 0 { 1 } else { mixed })
    }

    /// Wrap a raw nonzero id (e.g. parsed off the wire). Returns `None`
    /// for zero, which is reserved for "no trace".
    pub fn from_raw(raw: u64) -> Option<TraceId> {
        if raw == 0 {
            None
        } else {
            Some(TraceId(raw))
        }
    }

    /// The raw 64-bit value.
    pub fn get(self) -> u64 {
        self.0
    }
}

impl std::fmt::Display for TraceId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:#018x}", self.0)
    }
}

// ---------------------------------------------------------------------------
// Stages and spans
// ---------------------------------------------------------------------------

/// One stage of a request's life across the serving layers.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum Stage {
    /// Accepted past admission control into a lane queue.
    Admitted = 0,
    /// Waited in a lane queue until a batch flush picked it up.
    Queued = 1,
    /// Batch planning: `begin_tick_with` building shards and units.
    Planned = 2,
    /// Circuit/float evaluation across the worker pool; `detail` carries
    /// the shared gate count from the batch (the lineage meter's view).
    Evaluated = 3,
    /// Result materialization and ticket fulfillment.
    Encoded = 4,
    /// Router fan-out: forwarding the submit to a fleet member.
    Routed = 5,
    /// Protocol-v2 server push: the delay from ticket resolution to the
    /// completion frame hitting the wire; `detail` carries how many
    /// completions the push frame coalesced.
    Pushed = 6,
}

/// Every stage, in request-lifecycle order.
pub const STAGES: [Stage; 7] = [
    Stage::Admitted,
    Stage::Queued,
    Stage::Planned,
    Stage::Evaluated,
    Stage::Encoded,
    Stage::Routed,
    Stage::Pushed,
];

impl Stage {
    /// Stable lowercase name used on the wire and in CLI output.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Admitted => "admitted",
            Stage::Queued => "queued",
            Stage::Planned => "planned",
            Stage::Evaluated => "evaluated",
            Stage::Encoded => "encoded",
            Stage::Routed => "routed",
            Stage::Pushed => "pushed",
        }
    }

    /// Inverse of [`Stage::name`].
    pub fn from_name(name: &str) -> Option<Stage> {
        STAGES.iter().copied().find(|s| s.name() == name)
    }

    fn from_u8(v: u8) -> Option<Stage> {
        STAGES.get(v as usize).copied()
    }
}

/// Lane tag carried on spans: 0 = fast, 1 = slow, 2 = not lane-specific.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum SpanLane {
    Fast = 0,
    Slow = 1,
    None = 2,
}

impl SpanLane {
    /// Stable lowercase name used on the wire and in CLI output.
    pub fn name(self) -> &'static str {
        match self {
            SpanLane::Fast => "fast",
            SpanLane::Slow => "slow",
            SpanLane::None => "-",
        }
    }

    fn from_u8(v: u8) -> SpanLane {
        match v {
            0 => SpanLane::Fast,
            1 => SpanLane::Slow,
            _ => SpanLane::None,
        }
    }
}

/// One recorded stage timing for one traced request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// The request's trace id (nonzero).
    pub trace: u64,
    /// Which stage this span measures.
    pub stage: Stage,
    /// Which lane the request ran in, if the stage is lane-specific.
    pub lane: SpanLane,
    /// Stage duration in nanoseconds (0 for point events like `admitted`).
    pub nanos: u64,
    /// Stage-specific detail: shared gate count for `evaluated`, member
    /// index for `routed`, 0 otherwise.
    pub detail: u64,
}

// ---------------------------------------------------------------------------
// Span ring (lock-free, overwrite-oldest)
// ---------------------------------------------------------------------------

const SLOT_WORDS: usize = 4;

struct Slot {
    /// Seqlock word: odd while a write is in progress, even when stable.
    /// Starts at 0 (empty: `trace` is 0 too).
    seq: AtomicU64,
    /// trace, stage|lane packed, nanos, detail.
    words: [AtomicU64; SLOT_WORDS],
}

impl Slot {
    fn empty() -> Slot {
        Slot {
            seq: AtomicU64::new(0),
            words: [
                AtomicU64::new(0),
                AtomicU64::new(0),
                AtomicU64::new(0),
                AtomicU64::new(0),
            ],
        }
    }
}

/// A fixed-capacity lock-free ring buffer of [`Span`]s.
///
/// Writers claim a slot with one `fetch_add` and publish through a per-slot
/// seqlock; the oldest spans are overwritten once the ring wraps. Readers
/// take a best-effort snapshot: a slot being concurrently rewritten is
/// skipped rather than blocked on. No allocation happens after
/// construction.
pub struct SpanRing {
    slots: Box<[Slot]>,
    cursor: AtomicU64,
}

/// Default ring capacity (spans, not requests). At ~5 spans per request
/// this keeps roughly the last 800 requests inspectable.
pub const DEFAULT_RING_CAPACITY: usize = 4096;

impl SpanRing {
    /// Create a ring holding `capacity` spans (rounded up to a power of
    /// two, minimum 8).
    pub fn new(capacity: usize) -> SpanRing {
        let cap = capacity.max(8).next_power_of_two();
        let slots: Vec<Slot> = (0..cap).map(|_| Slot::empty()).collect();
        SpanRing {
            slots: slots.into_boxed_slice(),
            cursor: AtomicU64::new(0),
        }
    }

    /// Ring capacity in spans.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Total spans ever pushed (monotonic; exceeds `capacity` after wrap).
    pub fn pushed(&self) -> u64 {
        self.cursor.load(Ordering::Relaxed)
    }

    /// Record a span. Lock-free and allocation-free; overwrites the oldest
    /// span once the ring is full.
    pub fn push(&self, span: Span) {
        let pos = self.cursor.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[(pos as usize) & (self.slots.len() - 1)];
        // Odd sequence marks the write in progress; the final even value
        // encodes which generation the slot holds so readers can detect a
        // wrap mid-read.
        slot.seq
            .store(pos.wrapping_mul(2).wrapping_add(1), Ordering::Release);
        let packed = (span.stage as u64) | ((span.lane as u64) << 8);
        slot.words[0].store(span.trace, Ordering::Relaxed);
        slot.words[1].store(packed, Ordering::Relaxed);
        slot.words[2].store(span.nanos, Ordering::Relaxed);
        slot.words[3].store(span.detail, Ordering::Relaxed);
        slot.seq
            .store(pos.wrapping_add(1).wrapping_mul(2), Ordering::Release);
    }

    fn read_slot(&self, slot: &Slot) -> Option<Span> {
        let seq = slot.seq.load(Ordering::Acquire);
        if seq == 0 || seq & 1 == 1 {
            return None; // empty or mid-write
        }
        let trace = slot.words[0].load(Ordering::Relaxed);
        let packed = slot.words[1].load(Ordering::Relaxed);
        let nanos = slot.words[2].load(Ordering::Relaxed);
        let detail = slot.words[3].load(Ordering::Relaxed);
        if slot.seq.load(Ordering::Acquire) != seq {
            return None; // overwritten while reading
        }
        let stage = Stage::from_u8((packed & 0xff) as u8)?;
        if trace == 0 {
            return None;
        }
        Some(Span {
            trace,
            stage,
            lane: SpanLane::from_u8(((packed >> 8) & 0xff) as u8),
            nanos,
            detail,
        })
    }

    /// Snapshot the current contents, oldest first. Best-effort under
    /// concurrent writes: torn slots are skipped, not blocked on.
    pub fn snapshot(&self) -> Vec<Span> {
        let cursor = self.cursor.load(Ordering::Acquire);
        let cap = self.slots.len() as u64;
        let start = cursor.saturating_sub(cap);
        let mut out = Vec::with_capacity(cursor.saturating_sub(start) as usize);
        for pos in start..cursor {
            let slot = &self.slots[(pos as usize) & (self.slots.len() - 1)];
            if let Some(span) = self.read_slot(slot) {
                out.push(span);
            }
        }
        out
    }

    /// All retained spans for one trace id, oldest first.
    pub fn spans_for(&self, trace: u64) -> Vec<Span> {
        self.snapshot()
            .into_iter()
            .filter(|s| s.trace == trace)
            .collect()
    }
}

// ---------------------------------------------------------------------------
// Trace grouping (slow-request log)
// ---------------------------------------------------------------------------

/// All retained spans for one traced request, with the summed stage time.
#[derive(Clone, Debug)]
pub struct TraceRequest {
    /// The request's trace id.
    pub trace: u64,
    /// Sum of all span durations (a lower bound on wall-clock latency).
    pub total_nanos: u64,
    /// The request's spans, oldest first.
    pub spans: Vec<Span>,
}

/// Group a span snapshot by trace id, preserving first-seen order.
pub fn group_by_trace(spans: &[Span]) -> Vec<TraceRequest> {
    let mut order: Vec<u64> = Vec::new();
    let mut grouped: std::collections::HashMap<u64, TraceRequest> =
        std::collections::HashMap::new();
    for span in spans {
        let entry = grouped.entry(span.trace).or_insert_with(|| {
            order.push(span.trace);
            TraceRequest {
                trace: span.trace,
                total_nanos: 0,
                spans: Vec::new(),
            }
        });
        entry.total_nanos += span.nanos;
        entry.spans.push(*span);
    }
    order
        .into_iter()
        .filter_map(|t| grouped.remove(&t))
        .collect()
}

/// The `n` slowest retained requests by summed stage time, slowest first.
pub fn slowest_requests(spans: &[Span], n: usize) -> Vec<TraceRequest> {
    let mut all = group_by_trace(spans);
    all.sort_by_key(|r| std::cmp::Reverse(r.total_nanos));
    all.truncate(n);
    all
}

// ---------------------------------------------------------------------------
// Log-linear histogram
// ---------------------------------------------------------------------------

/// Values below this are their own exact bucket.
const LINEAR_MAX: u64 = 8;
/// Sub-buckets per power of two above `LINEAR_MAX`.
const SUB_BUCKETS: usize = 8;
/// Total bucket count: 8 exact + 8 per power of two for exponents 3..=63.
pub const HIST_BUCKETS: usize = LINEAR_MAX as usize + (64 - 3) * SUB_BUCKETS;

/// A mergeable log-linear histogram for nanosecond latencies.
///
/// Relative bucket width is at most 1/8, so quantiles (reported as bucket
/// upper bounds) over-estimate the true value by < 12.5%. Merging two
/// histograms is exact bucket-wise addition, so merged quantiles carry the
/// same bound.
#[derive(Clone)]
pub struct Histogram {
    buckets: [u64; HIST_BUCKETS],
    count: u64,
    sum: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            buckets: [0; HIST_BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count)
            .field("sum", &self.sum)
            .field("max", &self.max)
            .field("p50", &self.quantile(0.50))
            .field("p99", &self.quantile(0.99))
            .finish()
    }
}

/// Bucket index for a value.
fn bucket_index(v: u64) -> usize {
    if v < LINEAR_MAX {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros() as usize; // >= 3
    let sub = ((v >> (msb - 3)) & 0x7) as usize;
    LINEAR_MAX as usize + (msb - 3) * SUB_BUCKETS + sub
}

/// `(lower, upper)` inclusive value bounds of bucket `idx`.
pub fn bucket_bounds(idx: usize) -> (u64, u64) {
    if idx < LINEAR_MAX as usize {
        return (idx as u64, idx as u64);
    }
    let rel = idx - LINEAR_MAX as usize;
    let msb = rel / SUB_BUCKETS + 3;
    let sub = (rel % SUB_BUCKETS) as u64;
    let width = 1u64 << (msb - 3);
    let lower = (LINEAR_MAX + sub) << (msb - 3);
    (lower, lower.saturating_add(width - 1))
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Record one value.
    pub fn record(&mut self, v: u64) {
        self.buckets[bucket_index(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.max = self.max.max(v);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded values (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest recorded value.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// True if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Mean of recorded values, 0 when empty.
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }

    /// The `q`-quantile (`0.0..=1.0`) as the upper bound of the bucket the
    /// rank falls in; 0 when empty. `quantile(1.0)` returns the exact max.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        if q >= 1.0 {
            return self.max;
        }
        let rank = ((q.max(0.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (idx, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                // Never report past the observed max.
                return bucket_bounds(idx).1.min(self.max);
            }
        }
        self.max
    }

    /// Add every sample of `other` into `self` (exact bucket-wise merge).
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
    }

    /// Occupied buckets as `(index, count)` pairs, for sparse encoding.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (i, c))
    }

    /// Rebuild from sparse parts (inverse of the wire encoding). Bucket
    /// indices out of range are ignored; `count` is recomputed from the
    /// buckets so a corrupt frame cannot desynchronize rank math.
    pub fn from_parts(sum: u64, max: u64, sparse: &[(usize, u64)]) -> Histogram {
        let mut h = Histogram::new();
        for &(idx, c) in sparse {
            if idx < HIST_BUCKETS {
                h.buckets[idx] += c;
                h.count += c;
            }
        }
        h.sum = sum;
        h.max = max;
        h
    }
}

// ---------------------------------------------------------------------------
// Metric tables
// ---------------------------------------------------------------------------

/// How a metric moves over time. The kind fixes its Prometheus TYPE and
/// how a fleet rollup merges the members' readings ([`Value::merge`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// A monotonic count: TYPE `counter`, summed across members.
    Counter,
    /// A point-in-time level: TYPE `gauge`, summed across members.
    Level,
    /// A high-water mark: TYPE `gauge`, the maximum across members.
    HighWater,
    /// A latency histogram: TYPE `histogram`, merged bucket-wise.
    Histogram,
}

impl Kind {
    /// The Prometheus TYPE keyword.
    fn prom_type(self) -> &'static str {
        match self {
            Kind::Counter => "counter",
            Kind::Level | Kind::HighWater => "gauge",
            Kind::Histogram => "histogram",
        }
    }
}

/// One reading of a metric.
#[derive(Clone, Debug)]
pub enum Value {
    /// A count or a level.
    U64(u64),
    /// A level that can read below zero mid-race; Prometheus shows it
    /// clamped at 0.
    I64(i64),
    /// Fixed-size bucket counts. Prometheus shows one sample per bucket,
    /// labeled `bucket="<index>"`.
    Buckets(Vec<u64>),
    /// A latency histogram.
    Hist(Box<Histogram>),
}

impl From<u64> for Value {
    fn from(v: u64) -> Value {
        Value::U64(v)
    }
}

impl From<usize> for Value {
    fn from(v: usize) -> Value {
        Value::U64(v as u64)
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Value {
        Value::I64(v)
    }
}

impl From<&Histogram> for Value {
    fn from(h: &Histogram) -> Value {
        Value::Hist(Box::new(h.clone()))
    }
}

impl Value {
    /// Folds `other` into `self` the way a rollup merges a metric of
    /// `kind`: high-water marks take the maximum, histograms merge
    /// bucket-wise, everything else sums. Readings of different shapes
    /// leave `self` unchanged.
    pub fn merge(&mut self, kind: Kind, other: &Value) {
        match (self, other) {
            (Value::U64(a), Value::U64(b)) if kind == Kind::HighWater => *a = (*a).max(*b),
            (Value::I64(a), Value::I64(b)) if kind == Kind::HighWater => *a = (*a).max(*b),
            (Value::U64(a), Value::U64(b)) => *a = a.saturating_add(*b),
            (Value::I64(a), Value::I64(b)) => *a = a.saturating_add(*b),
            (Value::Buckets(a), Value::Buckets(b)) => {
                for (x, y) in a.iter_mut().zip(b) {
                    *x = x.saturating_add(*y);
                }
            }
            (Value::Hist(a), Value::Hist(b)) => a.merge(b),
            _ => {}
        }
    }
}

/// One metric, declared once as a row of its snapshot type's table. The
/// `stats` JSON reply, the Prometheus `metrics` text and the fleet
/// rollup all render from these rows, so a name cannot drift between
/// them.
pub struct Metric<S> {
    /// Key in the `stats` JSON reply; `group.leaf` nests under `group`.
    pub key: &'static str,
    /// Prometheus family name.
    pub name: &'static str,
    /// Prometheus labels of this row's samples within the family.
    pub labels: &'static [(&'static str, &'static str)],
    /// How the metric moves over time.
    pub kind: Kind,
    /// Prometheus HELP text, shared by every row of the family.
    pub help: &'static str,
    /// Reads the metric off a snapshot.
    pub read: fn(&S) -> Value,
}

impl<S> Metric<S> {
    /// A row; positional so that a table keeps one row per line.
    pub const fn new(
        key: &'static str,
        name: &'static str,
        labels: &'static [(&'static str, &'static str)],
        kind: Kind,
        help: &'static str,
        read: fn(&S) -> Value,
    ) -> Metric<S> {
        Metric {
            key,
            name,
            labels,
            kind,
            help,
            read,
        }
    }
}

// ---------------------------------------------------------------------------
// Prometheus text builder
// ---------------------------------------------------------------------------

/// Minimal Prometheus text-format (version 0.0.4) builder over metric
/// readings.
///
/// Shared by the net server's and fleet router's `metrics` ops so metric
/// names and render shape stay identical across layers.
#[derive(Default)]
pub struct PromText {
    out: String,
    /// The family of the last sample written: a reading of another
    /// family starts with HELP/TYPE lines.
    family: String,
}

fn write_labels(out: &mut String, labels: &[(&str, &str)]) {
    if labels.is_empty() {
        return;
    }
    out.push('{');
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(k);
        out.push_str("=\"");
        out.push_str(v);
        out.push('"');
    }
    out.push('}');
}

impl PromText {
    /// An empty exposition.
    pub fn new() -> PromText {
        PromText::default()
    }

    fn sample(&mut self, name: &str, labels: &[(&str, &str)], value: u64) {
        self.out.push_str(name);
        write_labels(&mut self.out, labels);
        self.out.push(' ');
        self.out.push_str(&value.to_string());
        self.out.push('\n');
    }

    /// Emits every row of `rows`, read off `snapshot`.
    pub fn rows<S>(&mut self, rows: &[Metric<S>], snapshot: &S) {
        for row in rows {
            self.metric(
                row.name,
                row.labels,
                row.kind,
                row.help,
                &(row.read)(snapshot),
            );
        }
    }

    /// Emits one reading as samples of family `name` under `labels`,
    /// preceded by the family's HELP/TYPE lines unless the previous
    /// reading was of the same family. A histogram renders cumulative
    /// `_bucket{le=...}` lines over occupied buckets, `_sum`, `_count`,
    /// and convenience `_p50`/`_p90`/`_p99`/`_max` samples.
    pub fn metric(
        &mut self,
        name: &str,
        labels: &[(&str, &str)],
        kind: Kind,
        help: &str,
        value: &Value,
    ) {
        if self.family != name {
            self.out.push_str(&format!(
                "# HELP {name} {help}\n# TYPE {name} {}\n",
                kind.prom_type()
            ));
            self.family = name.to_string();
        }
        match value {
            Value::U64(v) => self.sample(name, labels, *v),
            Value::I64(v) => self.sample(name, labels, (*v).max(0) as u64),
            Value::Buckets(counts) => {
                for (i, &c) in counts.iter().enumerate() {
                    let index = i.to_string();
                    let mut all = labels.to_vec();
                    all.push(("bucket", index.as_str()));
                    self.sample(name, &all, c);
                }
            }
            Value::Hist(h) => {
                let mut cumulative = 0u64;
                let bucket_name = format!("{name}_bucket");
                for (idx, c) in h.nonzero_buckets() {
                    cumulative += c;
                    let le = bucket_bounds(idx).1.to_string();
                    let mut all = labels.to_vec();
                    all.push(("le", le.as_str()));
                    self.sample(&bucket_name, &all, cumulative);
                }
                let mut inf = labels.to_vec();
                inf.push(("le", "+Inf"));
                self.sample(&bucket_name, &inf, h.count());
                self.sample(&format!("{name}_sum"), labels, h.sum());
                self.sample(&format!("{name}_count"), labels, h.count());
                self.sample(&format!("{name}_p50"), labels, h.quantile(0.50));
                self.sample(&format!("{name}_p90"), labels, h.quantile(0.90));
                self.sample(&format!("{name}_p99"), labels, h.quantile(0.99));
                self.sample(&format!("{name}_max"), labels, h.max());
            }
        }
    }

    /// The finished exposition text.
    pub fn finish(self) -> String {
        self.out
    }
}

// ---------------------------------------------------------------------------
// Tests
// ---------------------------------------------------------------------------

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_ids_are_nonzero_and_unique() {
        let a = TraceId::mint();
        let b = TraceId::mint();
        assert_ne!(a.get(), 0);
        assert_ne!(b.get(), 0);
        assert_ne!(a.get(), b.get());
        assert_eq!(TraceId::from_raw(0), None);
        assert_eq!(TraceId::from_raw(7).unwrap().get(), 7);
        assert!(format!("{a}").starts_with("0x"));
    }

    #[test]
    fn stage_names_round_trip() {
        for stage in STAGES {
            assert_eq!(Stage::from_name(stage.name()), Some(stage));
        }
        assert_eq!(Stage::from_name("nope"), None);
    }

    #[test]
    fn ring_keeps_most_recent_spans() {
        let ring = SpanRing::new(8);
        assert_eq!(ring.capacity(), 8);
        for i in 1..=20u64 {
            ring.push(Span {
                trace: i,
                stage: Stage::Queued,
                lane: SpanLane::Fast,
                nanos: i * 10,
                detail: 0,
            });
        }
        let snap = ring.snapshot();
        assert_eq!(snap.len(), 8);
        let traces: Vec<u64> = snap.iter().map(|s| s.trace).collect();
        assert_eq!(traces, (13..=20).collect::<Vec<u64>>());
        assert_eq!(ring.spans_for(17).len(), 1);
        assert_eq!(ring.spans_for(1).len(), 0);
        assert_eq!(ring.pushed(), 20);
    }

    #[test]
    fn ring_survives_concurrent_writers() {
        use std::sync::Arc;
        let ring = Arc::new(SpanRing::new(64));
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let ring = Arc::clone(&ring);
            handles.push(std::thread::spawn(move || {
                for i in 0..1000u64 {
                    ring.push(Span {
                        trace: t * 10_000 + i + 1,
                        stage: Stage::Evaluated,
                        lane: SpanLane::Slow,
                        nanos: i,
                        detail: t,
                    });
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let snap = ring.snapshot();
        assert!(snap.len() <= 64);
        assert!(!snap.is_empty());
        for span in snap {
            // Every surviving span must be internally consistent.
            assert_eq!(span.trace, span.detail * 10_000 + span.nanos + 1);
        }
    }

    #[test]
    fn grouping_and_slowest() {
        let spans = vec![
            Span {
                trace: 1,
                stage: Stage::Queued,
                lane: SpanLane::Fast,
                nanos: 10,
                detail: 0,
            },
            Span {
                trace: 2,
                stage: Stage::Queued,
                lane: SpanLane::Fast,
                nanos: 100,
                detail: 0,
            },
            Span {
                trace: 1,
                stage: Stage::Evaluated,
                lane: SpanLane::Fast,
                nanos: 5,
                detail: 3,
            },
        ];
        let grouped = group_by_trace(&spans);
        assert_eq!(grouped.len(), 2);
        assert_eq!(grouped[0].trace, 1);
        assert_eq!(grouped[0].total_nanos, 15);
        assert_eq!(grouped[0].spans.len(), 2);
        let slow = slowest_requests(&spans, 1);
        assert_eq!(slow.len(), 1);
        assert_eq!(slow[0].trace, 2);
    }

    #[test]
    fn bucket_bounds_cover_and_nest() {
        // Exact buckets below 8.
        for v in 0..8u64 {
            assert_eq!(bucket_index(v), v as usize);
            assert_eq!(bucket_bounds(v as usize), (v, v));
        }
        // Every value lands inside its bucket's bounds; bounds are
        // contiguous and relative width stays ≤ 1/8.
        for &v in &[
            8u64,
            9,
            15,
            16,
            17,
            100,
            1_000,
            1 << 20,
            u64::MAX / 2,
            u64::MAX,
        ] {
            let idx = bucket_index(v);
            let (lo, hi) = bucket_bounds(idx);
            assert!(lo <= v && v <= hi, "v={v} idx={idx} lo={lo} hi={hi}");
            assert!((hi - lo) as f64 <= lo as f64 / 8.0 + 1.0);
        }
        for idx in 0..HIST_BUCKETS - 1 {
            let (_, hi) = bucket_bounds(idx);
            let (lo_next, _) = bucket_bounds(idx + 1);
            assert_eq!(hi.wrapping_add(1), lo_next, "gap after bucket {idx}");
        }
    }

    #[test]
    fn histogram_quantiles_are_bucket_bounded() {
        let mut h = Histogram::new();
        let values: Vec<u64> = (0..1000).map(|i| i * 37 + 5).collect();
        for &v in &values {
            h.record(v);
        }
        assert_eq!(h.count(), 1000);
        assert_eq!(h.max(), *values.last().unwrap());
        for &(q, rank) in &[(0.5, 500usize), (0.9, 900), (0.99, 990)] {
            let exact = values[rank - 1];
            let est = h.quantile(q);
            assert!(est >= exact, "q={q} est={est} exact={exact}");
            // Over-estimate bounded by the relative bucket width.
            assert!(
                (est as f64) <= exact as f64 * 1.125 + 1.0,
                "q={q} est={est} exact={exact}"
            );
        }
        assert_eq!(h.quantile(1.0), h.max());
    }

    #[test]
    fn merge_matches_recording_everything_in_one() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut both = Histogram::new();
        for i in 0..500u64 {
            a.record(i * 11);
            both.record(i * 11);
        }
        for i in 0..300u64 {
            b.record(i * 997 + 13);
            both.record(i * 997 + 13);
        }
        a.merge(&b);
        assert_eq!(a.count(), both.count());
        assert_eq!(a.sum(), both.sum());
        assert_eq!(a.max(), both.max());
        for &q in &[0.5, 0.9, 0.99, 1.0] {
            assert_eq!(a.quantile(q), both.quantile(q), "q={q}");
        }
    }

    #[test]
    fn sparse_round_trip() {
        let mut h = Histogram::new();
        for v in [0u64, 1, 7, 8, 100, 100, 5_000, 1 << 40] {
            h.record(v);
        }
        let sparse: Vec<(usize, u64)> = h.nonzero_buckets().collect();
        let back = Histogram::from_parts(h.sum(), h.max(), &sparse);
        assert_eq!(back.count(), h.count());
        assert_eq!(back.sum(), h.sum());
        assert_eq!(back.max(), h.max());
        for &q in &[0.5, 0.99] {
            assert_eq!(back.quantile(q), h.quantile(q));
        }
        // Out-of-range indices are dropped, not panicked on.
        let bad = Histogram::from_parts(1, 1, &[(HIST_BUCKETS + 5, 3)]);
        assert_eq!(bad.count(), 0);
    }

    #[test]
    fn prom_text_renders_counters_gauges_histograms() {
        let mut h = Histogram::new();
        for i in 1..=100u64 {
            h.record(i * 1000);
        }
        let mut prom = PromText::new();
        let (admitted, depth) = (Value::U64(100), Value::U64(3));
        prom.metric(
            "phom_requests_admitted_total",
            &[],
            Kind::Counter,
            "requests admitted",
            &admitted,
        );
        prom.metric(
            "phom_queue_depth",
            &[],
            Kind::Level,
            "queued requests",
            &depth,
        );
        let (fast, slow) = (Value::from(&h), Value::from(&Histogram::new()));
        let latency = "end-to-end latency";
        prom.metric(
            "phom_request_latency_ns",
            &[("lane", "fast")],
            Kind::Histogram,
            latency,
            &fast,
        );
        prom.metric(
            "phom_request_latency_ns",
            &[("lane", "slow")],
            Kind::Histogram,
            latency,
            &slow,
        );
        prom.metric(
            "phom_net_inflight",
            &[],
            Kind::Level,
            "in flight",
            &Value::I64(-2),
        );
        let text = prom.finish();
        assert!(text.contains("# TYPE phom_requests_admitted_total counter"));
        assert!(text.contains("phom_requests_admitted_total 100"));
        assert!(text.contains("# TYPE phom_queue_depth gauge"));
        assert!(text.contains("phom_request_latency_ns_bucket{lane=\"fast\",le=\"+Inf\"} 100"));
        assert!(text.contains("phom_request_latency_ns_count{lane=\"fast\"} 100"));
        assert!(text.contains("phom_request_latency_ns_p99{lane=\"fast\"}"));
        let p99 = h.quantile(0.99);
        assert!(p99 > 0);
        assert!(text.contains(&format!(
            "phom_request_latency_ns_p99{{lane=\"fast\"}} {p99}"
        )));
        // One HELP/TYPE pair per family, however many rows it has.
        assert_eq!(text.matches("# TYPE phom_request_latency_ns ").count(), 1);
        assert!(text.contains("phom_request_latency_ns_count{lane=\"slow\"} 0"));
        // A signed level below zero shows as 0.
        assert!(text.contains("phom_net_inflight 0\n"));
        // Every line parses as `name[{labels}] value` or a # comment.
        for line in text.lines() {
            assert!(line.starts_with('#') || line.rsplit_once(' ').is_some());
        }
    }

    #[test]
    fn values_merge_by_kind() {
        let mut sum = Value::U64(3);
        sum.merge(Kind::Counter, &Value::U64(4));
        assert!(matches!(sum, Value::U64(7)));
        let mut high = Value::U64(3);
        high.merge(Kind::HighWater, &Value::U64(2));
        assert!(matches!(high, Value::U64(3)));
        let mut buckets = Value::Buckets(vec![1, 2, 0]);
        buckets.merge(Kind::Counter, &Value::Buckets(vec![10, 20, 30]));
        assert!(matches!(&buckets, Value::Buckets(b) if b == &[11, 22, 30]));
        let (mut a, mut b) = (Histogram::new(), Histogram::new());
        a.record(5);
        b.record(900);
        let mut hist = Value::from(&a);
        hist.merge(Kind::Histogram, &Value::from(&b));
        assert!(matches!(&hist, Value::Hist(h) if h.count() == 2 && h.max() == 900));
        // A reading of another shape is ignored.
        let mut level = Value::U64(1);
        level.merge(Kind::Level, &Value::I64(5));
        assert!(matches!(level, Value::U64(1)));
    }
}
