//! The wire protocol: length-prefixed JSON frames, the graph/request
//! codecs, and the **canonical result encoding** — the serialization the
//! differential suite compares bit-for-bit against in-process
//! [`Engine::submit`](phom_core::Engine::submit) oracle answers.
//!
//! ## Framing
//!
//! Every message, in both directions, is one *frame*: a 4-byte
//! big-endian length followed by that many bytes of UTF-8 JSON (one
//! document per frame). Frames larger than the receiver's bound are
//! rejected — the protocol never buffers without limit.
//!
//! ## Requests (client → server)
//!
//! | op | fields | reply |
//! |---|---|---|
//! | `register` | `instance` (graph object with probabilities), optional `version` hint | `{"ok":{"version":"0x…","registered":"new"\|"cached"}}` |
//! | `submit` | `version`, `request` | `{"ok":{"ticket":n}}` |
//! | `poll` | `ticket`, optional `wait_ms` | `{"ok":{"done":false}}` or `{"ok":{"done":true,"result":…}}` |
//! | `cancel` | `ticket` | `{"ok":{"cancelled":bool}}` |
//! | `deregister` | `version` | `{"ok":{"deregistered":bool}}` |
//! | `versions` | — | `{"ok":{"versions":["0x…",…]}}` (sorted) |
//! | `stats` | — | `{"ok":{"stats":…}}` |
//! | `metrics` | — | `{"ok":{"metrics":"<Prometheus text>"}}` |
//! | `trace` | `trace` (hex id) *or* `slowest` (count) | `{"ok":{"requests":[{"trace":"0x…","total_ns":n,"spans":[{"stage":…,"lane":…,"ns":n,"detail":n},…]},…]}}` |
//! | `ping` | — | `{"ok":{"pong":true}}` |
//!
//! An optional `id` member is echoed verbatim into the reply. Failures
//! reply `{"err":{"code":…,"msg":…}}`; solver-side codes come from
//! [`SolveError::wire_code`] (`"overloaded"` carries `capacity` — the
//! backpressure signal on the wire), protocol-side codes are
//! `"bad_frame"`, `"bad_request"`, and `"unknown_ticket"`.
//!
//! ## Protocol v2 (multiplexed, pipelined, server push)
//!
//! A client upgrades a fresh connection by sending `hello` as its
//! first-class negotiation op. Everything above stays valid after the
//! upgrade; v2 adds:
//!
//! | op | fields | reply |
//! |---|---|---|
//! | `hello` | `version` (2), optional `max_inflight` | `{"ok":{"version":2,"window":W}}` |
//! | `submit` (v2) | as v1, plus required `id` | ack as v1; the result is **pushed** later |
//! | `submit_batch` | `id`, `version`, `requests` (array) | `{"ok":{"tickets":[{"ticket":n}\|{"err":…},…]}}` |
//!
//! After `hello`, every request frame must carry a numeric `id` chosen
//! by the client; replies echo it and **may arrive out of order** (the
//! server serializes all writes through one writer thread per
//! connection, so frames never interleave, but their order follows
//! completion, not submission). When a submitted ticket resolves, the
//! server pushes an unsolicited completion frame — no `poll` needed:
//!
//! | push frame | shape |
//! |---|---|
//! | `result` | `{"push":"result","id":n,"ticket":t,"result":…}` |
//! | `results` | `{"push":"results","results":[{"id":n,"ticket":t,"result":…},…]}` |
//!
//! `results` coalesces completions that are ready at the same moment
//! (the streaming pair of `submit_batch`); batch members additionally
//! carry `"index"` — their position in the `requests` array. The
//! `result` object is byte-identical to what v1 `poll` would have
//! delivered. `poll` itself answers `bad_request` on a v2 connection
//! (results are pushed exactly once; polling would double-deliver).
//!
//! **Flow control:** `hello` negotiates a per-connection in-flight
//! window `W = min(max_inflight, server cap)`. A submit that would
//! exceed W answers the same typed `overloaded` error (with
//! `capacity: W`) the runtime's admission control uses — backpressure
//! stays typed and immediate at both layers, never silent buffering.
//! The window frees when the completion push is written.
//!
//! v1 peers simply never send `hello` and get the original protocol
//! byte for byte. See `docs/wire-protocol.md` at the repository root
//! for the exhaustive v1+v2 specification.
//!
//! ### Tracing
//!
//! A `submit` request object may carry an optional `"trace"` field (a
//! hex trace id, same shape as versions). A front door that receives a
//! request *without* one mints a fresh [`TraceId`](phom_obs::TraceId)
//! and echoes it in the submit ack (`{"ok":{"ticket":n,"trace":"0x…"}}`),
//! so every request is traceable end to end; old peers simply ignore
//! both fields. The `trace` op fetches the retained per-stage spans for
//! one id, or — with `"slowest": N` — the N slowest retained requests
//! (the slow-request log). Span stages are `admitted`, `queued`,
//! `planned`, `evaluated` (detail = shared gates), `encoded`, and (on a
//! router) `routed`.
//!
//! The `metrics` op returns the server's whole stats snapshot rendered
//! as Prometheus text format; `docs/metrics.md` lists the stable metric
//! names.
//!
//! `register` is **idempotent-cheap**: a request carrying the expected
//! fingerprint as a `version` hint acks `registered: "cached"` straight
//! from the registry when that version is already held — the graph is
//! not even decoded. When the server does decode, a mismatched hint is
//! a `bad_request`. A fleet router re-registers on every handoff, so
//! this is the handoff hot path.
//!
//! ## Router ops (fleet front door)
//!
//! A `phom_fleet` router speaks this same protocol on its listen
//! address and adds:
//!
//! | op | fields | reply |
//! |---|---|---|
//! | `move` | `version`, `to` (member name) | `{"ok":{"version":"0x…","from":…,"to":…}}` |
//! | `fleet` | — | `{"ok":{"members":[…],"placements":{…}}}` |
//!
//! The router's `stats` reply aggregates member stats:
//! `{"router":{…},"members":[{"name":…,"ok":bool,"stats":…}…],`
//! `"rollup":{…}}`. One extra error code exists on the router:
//! `"member_unavailable"` (with a `member` field) — the owning member
//! could not be reached, or it died while the ticket was in flight.
//! A lost member connection loses the tickets routed over it; each
//! such ticket answers `member_unavailable` exactly once (a terminal
//! state — exactly-once submission stays with the client, the router
//! never silently retries a submit).
//!
//! **Admission semantics**: a router `submit` ack means *forwarded* —
//! the router answers once the frame is written to the member, without
//! waiting for the member's ack. The member's admission outcome (its
//! typed refusal, or `member_unavailable` if the link died before the
//! ack) is the ticket's one terminal `poll` answer. A member refusing
//! with `invalid_query` because it lost its registry is re-registered
//! and sent the same request once more, at that `poll`.
//!
//! **Handoff semantics** (`move`): the router warms the instance on
//! the target member (a hinted `register`, usually the cached fast
//! path), flips routing atomically, then drains-and-deregisters on the
//! old member in the background once its in-flight tickets resolve.
//! Tickets created before the flip keep polling through the old member
//! until resolved — a handoff never drops or double-answers an
//! in-flight ticket.
//!
//! ## Graphs
//!
//! `{"vertices":n,"edges":[[src,dst,label],…]}` for queries;
//! instance edges carry a fourth element, the exact rational probability
//! as a string (`[0,1,0,"1/2"]`). Labels are numeric and shared between
//! a registered instance and its queries, exactly like the in-process
//! [`Request`] API.
//!
//! ## Precision tiers
//!
//! A request may carry `"precision"` — `"exact"` (the default),
//! `{"float":"<tol>"}`, or `{"auto":"<tol>"}` — selecting the engine's
//! evaluation tier ([`Precision`]). Float-tier probability answers come
//! back as `{"status":"ok","type":"approximate","p":…,"rel_err":…,`
//! `"route":…}` with the value and its certified relative-error bound
//! as shortest-roundtrip float strings (byte-deterministic, so the
//! differential suite can compare them literally). Exact requests
//! always answer `"type":"probability"` with an exact rational `p` —
//! the cache never crosses the tiers.
//!
//! ## Deadlines, budgets, and degradation
//!
//! A request may also carry:
//!
//! * `"deadline_ms"` — a relative deadline, anchored at server-side
//!   decode (arrival). Expired requests shed from the queue, and
//!   cooperative checkpoints stop in-flight evaluation; either way the
//!   reply is the typed error `"deadline_exceeded"`.
//! * `"budget"` — `{"samples":n,"gates":n,"time_ms":n}` (each member
//!   optional): hard work limits enforced at the same checkpoints.
//!   Exhaustion answers `"budget_exceeded"` with `resource`
//!   (`"samples"`/`"gates"`/`"time_ms"`) and `limit` fields.
//! * `"on_hard"` — `"error"` (default) or `"estimate"`: what a
//!   hard-cell classification answers. With `"estimate"`, the reply is
//!   the anytime result frame `{"status":"ok","type":"estimate",`
//!   `"lo":…,"hi":…,"samples":n,"route":…}` — a certified 95%
//!   confidence interval from budgeted Monte-Carlo sampling (`lo`/`hi`
//!   as shortest-roundtrip float strings).
//!
//! These counts, and the Monte-Carlo fallback's `samples` and `seed`,
//! are JSON numbers up to 2⁵³; a larger value travels as a `"0x…"` hex
//! string, like a version.

use crate::json::Json;
use phom_core::ucq::Ucq;
use phom_core::{Budget, Fallback, OnHard, Precision, Request, Response, SolveError};
use phom_graph::{Graph, GraphBuilder, Label, ProbGraph};
use phom_obs::{Metric, Value};
use std::io::{self, Read, Write};
use std::time::Duration;

/// Default bound on a single frame (8 MiB).
pub const MAX_FRAME: usize = 8 << 20;

/// Chunk size for incremental frame reads: payload buffers grow by at
/// most this much ahead of the bytes that actually arrived, so a
/// length prefix never commits memory on its own.
pub const FRAME_READ_CHUNK: usize = 64 << 10;

/// The protocol version [`PROTOCOL_V2`] peers negotiate via `hello`.
/// Version 1 (no `hello`) is the original strict request/reply
/// protocol; both stay supported forever.
pub const PROTOCOL_V2: u64 = 2;

/// Encodes `frames` back to back, each as a 4-byte big-endian length
/// followed by its JSON bytes — the one frame encoder behind
/// [`write_frame`] and the server's v2 writer, which sends every frame
/// of a pass in one write. The bytes of each frame are the same however
/// many share the buffer.
pub fn encode_frames<'a>(frames: impl IntoIterator<Item = &'a Json>) -> io::Result<Vec<u8>> {
    const PREFIX: usize = 4;
    let mut text = String::with_capacity(128);
    let mut starts = Vec::new();
    for json in frames {
        starts.push(text.len());
        text.push_str("\0\0\0\0"); // the length prefix's place
        json.encode_into(&mut text);
    }
    let mut bytes = text.into_bytes();
    let ends = starts.iter().skip(1).copied().chain([bytes.len()]);
    for (start, end) in starts.iter().copied().zip(ends) {
        let body = start + PREFIX;
        let len = u32::try_from(end - body)
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "frame too large"))?;
        bytes[start..body].copy_from_slice(&len.to_be_bytes());
    }
    Ok(bytes)
}

/// Writes one frame: 4-byte big-endian length, then the JSON bytes.
///
/// Prefix and body go out in one `write_all` from one buffer: every
/// socket in the stack sets `TCP_NODELAY`, so two writes would cost two
/// syscalls and two segments per frame.
pub fn write_frame(w: &mut impl Write, json: &Json) -> io::Result<()> {
    w.write_all(&encode_frames([json])?)?;
    w.flush()
}

/// Reads one frame. `Ok(None)` on a clean end of stream (EOF at a frame
/// boundary); `InvalidData` on an oversized frame or a JSON parse
/// failure (the payload was still consumed — framing stays aligned).
/// Long-lived pipelined readers pass a [`std::io::BufReader`], so the
/// several frames one segment carries cost one `read` between them.
pub fn read_frame(r: &mut impl Read, max_len: usize) -> io::Result<Option<Json>> {
    let mut len_bytes = [0u8; 4];
    match r.read_exact(&mut len_bytes) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    let len = u32::from_be_bytes(len_bytes) as usize;
    if len > max_len {
        // Discard the payload in bounded chunks (never buffering it)
        // so the stream stays frame-aligned and the reader can answer
        // a typed error and keep serving.
        io::copy(&mut r.take(len as u64), &mut io::sink())?;
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame of {len} bytes exceeds the {max_len}-byte bound"),
        ));
    }
    // Grow the buffer only as payload bytes actually arrive: the length
    // prefix is attacker-controlled, so committing `len` bytes up front
    // would let a handful of idle connections each pin `max_len` of
    // memory by sending nothing but a header. Reading in bounded chunks
    // caps the overcommit at one chunk per connection.
    let mut payload = Vec::with_capacity(len.min(FRAME_READ_CHUNK));
    while payload.len() < len {
        let filled = payload.len();
        payload.resize(len.min(filled + FRAME_READ_CHUNK), 0);
        r.read_exact(&mut payload[filled..])?;
    }
    let text = String::from_utf8(payload)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
    Json::parse(&text)
        .map(Some)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
}

// ---------------------------------------------------------------------
// Graph codec
// ---------------------------------------------------------------------

/// Encodes a query graph (no probabilities).
pub fn encode_query(g: &Graph) -> Json {
    Json::obj(vec![
        ("vertices", Json::u64(g.n_vertices() as u64)),
        (
            "edges",
            Json::Arr(
                g.edges()
                    .iter()
                    .map(|e| {
                        Json::Arr(vec![
                            Json::u64(e.src as u64),
                            Json::u64(e.dst as u64),
                            Json::u64(e.label.0 as u64),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Encodes a probabilistic instance (edges carry their exact rational
/// probability as a string).
pub fn encode_instance(h: &ProbGraph) -> Json {
    Json::obj(vec![
        ("vertices", Json::u64(h.graph().n_vertices() as u64)),
        (
            "edges",
            Json::Arr(
                h.graph()
                    .edges()
                    .iter()
                    .zip(h.probs())
                    .map(|(e, p)| {
                        Json::Arr(vec![
                            Json::u64(e.src as u64),
                            Json::u64(e.dst as u64),
                            Json::u64(e.label.0 as u64),
                            Json::str(p.to_string()),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Bound on the vertex count a wire graph may declare. The count sizes
/// allocations directly (`Graph` keeps per-vertex adjacency), so an
/// untrusted frame must not pick it freely.
pub const MAX_WIRE_VERTICES: usize = 1 << 20;

fn decode_graph(json: &Json) -> Result<(Graph, Vec<phom_num::Rational>), String> {
    let vertices = json
        .get("vertices")
        .and_then(Json::as_u64)
        .ok_or("graph needs a numeric 'vertices'")? as usize;
    // Everything below feeds `GraphBuilder`, whose panics-on-misuse
    // contract is fine in-process but must never be reachable from the
    // wire: validate first, answer typed errors.
    if vertices == 0 {
        return Err("graphs have a non-empty vertex set".into());
    }
    if vertices > MAX_WIRE_VERTICES {
        return Err(format!(
            "vertex count {vertices} exceeds the wire bound {MAX_WIRE_VERTICES}"
        ));
    }
    let edges = json
        .get("edges")
        .and_then(Json::as_arr)
        .ok_or("graph needs an 'edges' array")?;
    let mut b = GraphBuilder::with_vertices(vertices);
    let mut probs = Vec::with_capacity(edges.len());
    for (i, edge) in edges.iter().enumerate() {
        let parts = edge
            .as_arr()
            .ok_or_else(|| format!("edge {i}: not an array"))?;
        if parts.len() != 3 && parts.len() != 4 {
            return Err(format!(
                "edge {i}: expected [src,dst,label] or [src,dst,label,p]"
            ));
        }
        let num = |j: usize, what: &str| {
            parts[j]
                .as_u64()
                .ok_or_else(|| format!("edge {i}: bad {what}"))
        };
        let (src, dst, label) = (
            num(0, "src")? as usize,
            num(1, "dst")? as usize,
            num(2, "label")?,
        );
        if src >= vertices || dst >= vertices {
            return Err(format!("edge {i}: endpoint out of range"));
        }
        let label = u32::try_from(label).map_err(|_| format!("edge {i}: label out of range"))?;
        if b.try_edge(src, dst, Label(label)).is_none() {
            return Err(format!("edge {i}: duplicate ordered pair ({src}, {dst})"));
        }
        let p = match parts.get(3) {
            None => phom_num::Rational::one(),
            Some(p) => {
                let text = p
                    .as_str()
                    .ok_or_else(|| format!("edge {i}: probability must be a string"))?;
                phom_graph::io::parse_rational(text)
                    .filter(|p| p <= &phom_num::Rational::one())
                    .ok_or_else(|| format!("edge {i}: bad probability '{text}'"))?
            }
        };
        probs.push(p);
    }
    Ok((b.build(), probs))
}

/// Decodes a query graph; probabilities are rejected.
pub fn decode_query(json: &Json) -> Result<Graph, String> {
    let (graph, probs) = decode_graph(json)?;
    if probs.iter().any(|p| !p.is_one()) {
        return Err("query edges must not carry probabilities".into());
    }
    Ok(graph)
}

/// Decodes a probabilistic instance (edges without a probability are
/// certain).
pub fn decode_instance(json: &Json) -> Result<ProbGraph, String> {
    let (graph, probs) = decode_graph(json)?;
    Ok(ProbGraph::new(graph, probs))
}

// ---------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------

/// The workload of a [`WireRequest`].
#[derive(Clone, Debug)]
pub enum WireKind {
    /// `Pr(G ⇝ H)`.
    Probability(Graph),
    /// Satisfying-world counting (all-½ instances).
    Counting(Graph),
    /// All edge influences `∂Pr/∂π(e)`.
    Sensitivity(Graph),
    /// A union of conjunctive queries.
    Ucq(Vec<Graph>),
}

/// A hard-cell fallback carried over the wire.
#[derive(Clone, Copy, Debug)]
pub enum WireFallback {
    /// World enumeration up to `max_uncertain` uncertain edges.
    BruteForce {
        /// Bound on the uncertain edges.
        max_uncertain: usize,
    },
    /// Monte-Carlo estimation.
    MonteCarlo {
        /// Worlds to sample.
        samples: u64,
        /// RNG seed (the answer is deterministic given the seed).
        seed: u64,
    },
}

/// A request as it travels over the wire: the serializable mirror of
/// [`phom_core::Request`], convertible both ways ([`WireRequest::encode`]
/// / [`WireRequest::decode`] for the bytes,
/// [`to_request`](WireRequest::to_request) for the in-process form the
/// oracle tests submit directly).
#[derive(Clone, Debug)]
pub struct WireRequest {
    /// The workload.
    pub kind: WireKind,
    /// Ask for a provenance circuit where the route can compile one.
    pub provenance: bool,
    /// The hard-cell fallback, if any.
    pub fallback: Option<WireFallback>,
    /// The evaluation tier (`None` inherits the server's default —
    /// exact). On the wire: `"precision":"exact"`,
    /// `"precision":{"float":"1e-9"}`, or `"precision":{"auto":"1e-9"}`
    /// (tolerances as shortest-roundtrip float strings). Float-tier
    /// probability answers come back as `"type":"approximate"` results.
    pub precision: Option<Precision>,
    /// Relative deadline in milliseconds, anchored at server-side
    /// decode (arrival). On the wire: `"deadline_ms":n`.
    pub deadline_ms: Option<u64>,
    /// Work budget. On the wire:
    /// `"budget":{"samples":n,"gates":n,"time_ms":n}` (each member
    /// optional).
    pub budget: Option<WireBudget>,
    /// Hard-cell degradation: `"on_hard":"error"` (default) or
    /// `"on_hard":"estimate"` (answer a certified interval instead of
    /// a hardness error).
    pub on_hard: Option<OnHard>,
    /// Observability trace id. On the wire: `"trace":"0x…"` (hex, like
    /// versions). `None` makes the receiving front door mint one and
    /// echo it in the submit ack; old peers ignore the field entirely.
    pub trace: Option<u64>,
}

/// A work budget as it travels over the wire — the serializable mirror
/// of [`Budget`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WireBudget {
    /// Bound on Monte-Carlo samples.
    pub samples: Option<u64>,
    /// Bound on evaluated circuit gates.
    pub gates: Option<u64>,
    /// Bound on evaluation wall time, in milliseconds.
    pub time_ms: Option<u64>,
}

impl WireBudget {
    /// The in-process [`Budget`] this wire budget maps onto.
    pub fn to_budget(self) -> Budget {
        let mut budget = Budget::unlimited();
        if let Some(samples) = self.samples {
            budget = budget.with_samples(samples);
        }
        if let Some(gates) = self.gates {
            budget = budget.with_gates(gates);
        }
        if let Some(ms) = self.time_ms {
            budget = budget.with_time(Duration::from_millis(ms));
        }
        budget
    }
}

impl WireRequest {
    /// A probability request.
    pub fn probability(query: Graph) -> Self {
        WireRequest {
            kind: WireKind::Probability(query),
            provenance: false,
            fallback: None,
            precision: None,
            deadline_ms: None,
            budget: None,
            on_hard: None,
            trace: None,
        }
    }

    /// A counting request.
    pub fn counting(query: Graph) -> Self {
        WireRequest {
            kind: WireKind::Counting(query),
            provenance: false,
            fallback: None,
            precision: None,
            deadline_ms: None,
            budget: None,
            on_hard: None,
            trace: None,
        }
    }

    /// A sensitivity request.
    pub fn sensitivity(query: Graph) -> Self {
        WireRequest {
            kind: WireKind::Sensitivity(query),
            provenance: false,
            fallback: None,
            precision: None,
            deadline_ms: None,
            budget: None,
            on_hard: None,
            trace: None,
        }
    }

    /// A UCQ request.
    pub fn ucq(disjuncts: Vec<Graph>) -> Self {
        WireRequest {
            kind: WireKind::Ucq(disjuncts),
            provenance: false,
            fallback: None,
            precision: None,
            deadline_ms: None,
            budget: None,
            on_hard: None,
            trace: None,
        }
    }

    /// Requests a provenance handle.
    pub fn with_provenance(mut self) -> Self {
        self.provenance = true;
        self
    }

    /// Sets the hard-cell fallback.
    pub fn with_fallback(mut self, fallback: WireFallback) -> Self {
        self.fallback = Some(fallback);
        self
    }

    /// Sets the evaluation tier (see [`Precision`]).
    pub fn with_precision(mut self, precision: Precision) -> Self {
        self.precision = Some(precision);
        self
    }

    /// Sets a relative deadline (milliseconds from server-side arrival).
    pub fn with_deadline_ms(mut self, ms: u64) -> Self {
        self.deadline_ms = Some(ms);
        self
    }

    /// Sets a work budget.
    pub fn with_budget(mut self, budget: WireBudget) -> Self {
        self.budget = Some(budget);
        self
    }

    /// Sets the hard-cell degradation mode (see [`OnHard`]).
    pub fn with_on_hard(mut self, on_hard: OnHard) -> Self {
        self.on_hard = Some(on_hard);
        self
    }

    /// Tags the request with an observability trace id (see the
    /// [module docs](self) tracing section).
    pub fn with_trace(mut self, id: u64) -> Self {
        self.trace = Some(id);
        self
    }

    /// The in-process [`Request`] this wire request maps onto — the
    /// *same* request the differential oracle submits to
    /// [`Engine::submit`](phom_core::Engine::submit).
    pub fn to_request(&self) -> Request {
        let mut request = match &self.kind {
            WireKind::Probability(q) => Request::probability(q.clone()),
            WireKind::Counting(q) => Request::probability(q.clone()).counting(),
            WireKind::Sensitivity(q) => Request::probability(q.clone()).sensitivity(),
            WireKind::Ucq(disjuncts) => Request::ucq(Ucq::new(disjuncts.clone())),
        };
        if self.provenance {
            request = request.with_provenance();
        }
        if let Some(fallback) = self.fallback {
            request = request.fallback(match fallback {
                WireFallback::BruteForce { max_uncertain } => {
                    Fallback::BruteForce { max_uncertain }
                }
                WireFallback::MonteCarlo { samples, seed } => {
                    Fallback::MonteCarlo { samples, seed }
                }
            });
        }
        if let Some(precision) = self.precision {
            request = request.precision(precision);
        }
        if let Some(ms) = self.deadline_ms {
            // The deadline clock starts here — at server-side decode,
            // i.e. arrival — not when the tick eventually executes.
            request = request.deadline(Duration::from_millis(ms));
        }
        if let Some(budget) = self.budget {
            request = request.budget(budget.to_budget());
        }
        if let Some(on_hard) = self.on_hard {
            request = request.on_hard(on_hard);
        }
        if let Some(trace) = self.trace {
            request = request.trace(trace);
        }
        request
    }

    /// The request as wire JSON.
    pub fn encode(&self) -> Json {
        let mut pairs = match &self.kind {
            WireKind::Probability(q) => vec![
                ("kind".to_string(), Json::str("probability")),
                ("query".to_string(), encode_query(q)),
            ],
            WireKind::Counting(q) => vec![
                ("kind".to_string(), Json::str("counting")),
                ("query".to_string(), encode_query(q)),
            ],
            WireKind::Sensitivity(q) => vec![
                ("kind".to_string(), Json::str("sensitivity")),
                ("query".to_string(), encode_query(q)),
            ],
            WireKind::Ucq(disjuncts) => vec![
                ("kind".to_string(), Json::str("ucq")),
                (
                    "disjuncts".to_string(),
                    Json::Arr(disjuncts.iter().map(encode_query).collect()),
                ),
            ],
        };
        if self.provenance {
            pairs.push(("provenance".to_string(), Json::Bool(true)));
        }
        match self.fallback {
            Some(WireFallback::BruteForce { max_uncertain }) => pairs.push((
                "fallback".to_string(),
                Json::obj(vec![("brute_force", encode_count(max_uncertain as u64))]),
            )),
            Some(WireFallback::MonteCarlo { samples, seed }) => pairs.push((
                "fallback".to_string(),
                Json::obj(vec![(
                    "monte_carlo",
                    Json::obj(vec![
                        ("samples", encode_count(samples)),
                        ("seed", encode_count(seed)),
                    ]),
                )]),
            )),
            None => {}
        }
        match self.precision {
            Some(Precision::Exact) => {
                pairs.push(("precision".to_string(), Json::str("exact")));
            }
            Some(Precision::Float { max_rel_err }) => pairs.push((
                "precision".to_string(),
                Json::obj(vec![("float", Json::str(format!("{max_rel_err}")))]),
            )),
            Some(Precision::Auto { max_rel_err }) => pairs.push((
                "precision".to_string(),
                Json::obj(vec![("auto", Json::str(format!("{max_rel_err}")))]),
            )),
            None => {}
        }
        if let Some(ms) = self.deadline_ms {
            pairs.push(("deadline_ms".to_string(), encode_count(ms)));
        }
        if let Some(budget) = self.budget {
            let mut members = Vec::new();
            if let Some(samples) = budget.samples {
                members.push(("samples", encode_count(samples)));
            }
            if let Some(gates) = budget.gates {
                members.push(("gates", encode_count(gates)));
            }
            if let Some(ms) = budget.time_ms {
                members.push(("time_ms", encode_count(ms)));
            }
            pairs.push(("budget".to_string(), Json::obj(members)));
        }
        match self.on_hard {
            Some(OnHard::Error) => pairs.push(("on_hard".to_string(), Json::str("error"))),
            Some(OnHard::Estimate) => {
                pairs.push(("on_hard".to_string(), Json::str("estimate")));
            }
            None => {}
        }
        if let Some(trace) = self.trace {
            pairs.push(("trace".to_string(), encode_version(trace)));
        }
        Json::Obj(pairs)
    }

    /// Parses a request from wire JSON.
    pub fn decode(json: &Json) -> Result<Self, String> {
        let kind = json
            .get("kind")
            .and_then(Json::as_str)
            .ok_or("request needs a 'kind'")?;
        let query = || {
            json.get("query")
                .ok_or("request needs a 'query'".to_string())
                .and_then(decode_query)
        };
        let kind = match kind {
            "probability" => WireKind::Probability(query()?),
            "counting" => WireKind::Counting(query()?),
            "sensitivity" => WireKind::Sensitivity(query()?),
            "ucq" => WireKind::Ucq(
                json.get("disjuncts")
                    .and_then(Json::as_arr)
                    .ok_or("ucq request needs a 'disjuncts' array")?
                    .iter()
                    .map(decode_query)
                    .collect::<Result<_, _>>()?,
            ),
            other => return Err(format!("unknown request kind '{other}'")),
        };
        let provenance = json
            .get("provenance")
            .and_then(Json::as_bool)
            .unwrap_or(false);
        let fallback = match json.get("fallback") {
            None | Some(Json::Null) => None,
            Some(f) => Some(
                if let Some(n) = f.get("brute_force").and_then(decode_count) {
                    WireFallback::BruteForce {
                        max_uncertain: n as usize,
                    }
                } else if let Some(mc) = f.get("monte_carlo") {
                    WireFallback::MonteCarlo {
                        samples: mc
                            .get("samples")
                            .and_then(decode_count)
                            .ok_or("monte_carlo fallback needs 'samples'")?,
                        seed: match mc.get("seed") {
                            None | Some(Json::Null) => 0,
                            Some(seed) => decode_count(seed)
                                .ok_or("monte_carlo 'seed' must be an exact integer")?,
                        },
                    }
                } else {
                    return Err("unknown fallback shape".into());
                },
            ),
        };
        let precision = match json.get("precision") {
            None | Some(Json::Null) => None,
            Some(p) => Some(decode_precision(p)?),
        };
        let deadline_ms = match json.get("deadline_ms") {
            None | Some(Json::Null) => None,
            Some(d) => Some(decode_count(d).ok_or("deadline_ms must be a number")?),
        };
        let budget = match json.get("budget") {
            None | Some(Json::Null) => None,
            Some(b) => {
                let member = |name: &str| -> Result<Option<u64>, String> {
                    match b.get(name) {
                        None | Some(Json::Null) => Ok(None),
                        Some(v) => decode_count(v)
                            .map(Some)
                            .ok_or_else(|| format!("budget '{name}' must be a number")),
                    }
                };
                Some(WireBudget {
                    samples: member("samples")?,
                    gates: member("gates")?,
                    time_ms: member("time_ms")?,
                })
            }
        };
        let on_hard = match json.get("on_hard").map(Json::as_str) {
            None => None,
            Some(Some("error")) => Some(OnHard::Error),
            Some(Some("estimate")) => Some(OnHard::Estimate),
            Some(other) => return Err(format!("unknown on_hard mode {other:?}")),
        };
        let trace = match json.get("trace") {
            None | Some(Json::Null) => None,
            Some(t) => Some(decode_version(t)?),
        };
        Ok(WireRequest {
            kind,
            provenance,
            fallback,
            precision,
            deadline_ms,
            budget,
            on_hard,
            trace,
        })
    }
}

/// A request count or seed on the wire: a JSON number while it is exact
/// (up to 2⁵³), a hex string like a version above that.
fn encode_count(n: u64) -> Json {
    if n <= 1 << 53 {
        Json::u64(n)
    } else {
        encode_version(n)
    }
}

/// Parses an [`encode_count`] value: an exact integer or a `0x` hex
/// string.
fn decode_count(json: &Json) -> Option<u64> {
    match json {
        Json::Str(text) if text.starts_with("0x") => decode_version(json).ok(),
        _ => json.as_u64(),
    }
}

/// Parses a precision tier: `"exact"`, `{"float":"<tol>"}`, or
/// `{"auto":"<tol>"}` — tolerances as finite, non-negative float
/// strings.
fn decode_precision(json: &Json) -> Result<Precision, String> {
    if json.as_str() == Some("exact") {
        return Ok(Precision::Exact);
    }
    let tol = |j: &Json, which: &str| -> Result<f64, String> {
        let text = j
            .as_str()
            .ok_or_else(|| format!("{which} precision tolerance must be a string"))?;
        let tol: f64 = text
            .parse()
            .map_err(|_| format!("bad {which} tolerance '{text}'"))?;
        if !tol.is_finite() || tol < 0.0 {
            return Err(format!("{which} tolerance must be finite and non-negative"));
        }
        Ok(tol)
    };
    if let Some(t) = json.get("float") {
        return Ok(Precision::Float {
            max_rel_err: tol(t, "float")?,
        });
    }
    if let Some(t) = json.get("auto") {
        return Ok(Precision::Auto {
            max_rel_err: tol(t, "auto")?,
        });
    }
    Err("unknown precision shape".into())
}

// ---------------------------------------------------------------------
// Results
// ---------------------------------------------------------------------

/// Formats a 64-bit version fingerprint for the wire (hex string — JSON
/// numbers cannot carry full u64 precision).
pub fn encode_version(version: u64) -> Json {
    Json::str(format!("{version:#018x}"))
}

/// Parses a version fingerprint off the wire.
pub fn decode_version(json: &Json) -> Result<u64, String> {
    let text = json.as_str().ok_or("version must be a hex string")?;
    let digits = text.strip_prefix("0x").unwrap_or(text);
    u64::from_str_radix(digits, 16).map_err(|e| format!("bad version '{text}': {e}"))
}

// ---------------------------------------------------------------------
// Histograms and spans
// ---------------------------------------------------------------------

/// Encodes a latency [`Histogram`](phom_obs::Histogram) sparsely:
/// `{"count":n,"sum":n,"max":n,"buckets":[[index,count],…]}` — only
/// occupied buckets travel, so an idle histogram is a few bytes.
pub fn encode_histogram(h: &phom_obs::Histogram) -> Json {
    Json::obj(vec![
        ("count", Json::u64(h.count())),
        ("sum", Json::u64(h.sum())),
        ("max", Json::u64(h.max())),
        (
            "buckets",
            Json::Arr(
                h.nonzero_buckets()
                    .map(|(idx, c)| Json::Arr(vec![Json::u64(idx as u64), Json::u64(c)]))
                    .collect(),
            ),
        ),
    ])
}

/// A metric table read off `snapshot` as a `stats` JSON object: each
/// row's reading under its key, a `group.leaf` key nested under
/// `group`. Histograms travel as [`encode_histogram`] objects.
pub fn encode_metrics<S>(rows: &[Metric<S>], snapshot: &S) -> Json {
    encode_readings(rows.iter().map(|row| (row.key, (row.read)(snapshot))))
}

/// [`encode_metrics`] over readings already taken (a fleet rollup's
/// merged ones), as `(key, reading)` pairs.
pub fn encode_readings<'a>(readings: impl IntoIterator<Item = (&'a str, Value)>) -> Json {
    let mut pairs: Vec<(String, Json)> = Vec::new();
    for (key, value) in readings {
        let json = match value {
            Value::U64(v) => Json::u64(v),
            Value::I64(v) => Json::Num(v as f64),
            Value::Buckets(counts) => Json::Arr(counts.into_iter().map(Json::u64).collect()),
            Value::Hist(h) => encode_histogram(&h),
        };
        let Some((group, leaf)) = key.split_once('.') else {
            pairs.push((key.to_string(), json));
            continue;
        };
        if !pairs.iter().any(|(k, _)| k == group) {
            pairs.push((group.to_string(), Json::Obj(Vec::new())));
        }
        if let Some((_, Json::Obj(inner))) = pairs.iter_mut().find(|(k, _)| k == group) {
            inner.push((leaf.to_string(), json));
        }
    }
    Json::Obj(pairs)
}

/// Merges one member's `stats` reply into `acc`, which holds one
/// reading per row of `rows`, each by its row's [`Kind`](phom_obs::Kind)
/// ([`Value::merge`]). A key the reply lacks, or carries in another
/// shape than `acc`'s reading, is skipped.
pub fn merge_metrics<S>(rows: &[Metric<S>], acc: &mut [Value], member: &Json) {
    for (row, acc) in rows.iter().zip(acc) {
        let json = match row.key.split_once('.') {
            Some((group, leaf)) => member.get(group).and_then(|g| g.get(leaf)),
            None => member.get(row.key),
        };
        let reading = json.and_then(|json| match acc {
            Value::U64(_) => json.as_u64().map(Value::U64),
            Value::I64(_) => json.as_f64().map(|v| Value::I64(v as i64)),
            Value::Buckets(_) => json
                .as_arr()?
                .iter()
                .map(Json::as_u64)
                .collect::<Option<Vec<u64>>>()
                .map(Value::Buckets),
            Value::Hist(_) => decode_histogram(json)
                .ok()
                .map(|h| Value::Hist(Box::new(h))),
        });
        if let Some(reading) = reading {
            acc.merge(row.kind, &reading);
        }
    }
}

/// Parses a sparse histogram off the wire (inverse of
/// [`encode_histogram`]). The fleet router uses this to merge member
/// histograms into its stats rollup.
pub fn decode_histogram(json: &Json) -> Result<phom_obs::Histogram, String> {
    let num = |name: &str| -> Result<u64, String> {
        match json.get(name) {
            None => Ok(0),
            Some(v) => v
                .as_u64()
                .ok_or_else(|| format!("histogram '{name}' must be a number")),
        }
    };
    let mut sparse = Vec::new();
    if let Some(buckets) = json.get("buckets").and_then(Json::as_arr) {
        for (i, pair) in buckets.iter().enumerate() {
            let parts = pair
                .as_arr()
                .filter(|p| p.len() == 2)
                .ok_or_else(|| format!("histogram bucket {i}: expected [index, count]"))?;
            let idx = parts[0]
                .as_u64()
                .ok_or_else(|| format!("histogram bucket {i}: bad index"))?;
            let count = parts[1]
                .as_u64()
                .ok_or_else(|| format!("histogram bucket {i}: bad count"))?;
            sparse.push((idx as usize, count));
        }
    }
    Ok(phom_obs::Histogram::from_parts(
        num("sum")?,
        num("max")?,
        &sparse,
    ))
}

/// Encodes one traced request (its span set and summed stage time) for
/// the `trace` op reply.
pub fn encode_trace_request(req: &phom_obs::TraceRequest) -> Json {
    Json::obj(vec![
        ("trace", encode_version(req.trace)),
        ("total_ns", Json::u64(req.total_nanos)),
        (
            "spans",
            Json::Arr(
                req.spans
                    .iter()
                    .map(|s| {
                        Json::obj(vec![
                            ("stage", Json::str(s.stage.name())),
                            ("lane", Json::str(s.lane.name())),
                            ("ns", Json::u64(s.nanos)),
                            ("detail", Json::u64(s.detail)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Parses one traced request off the wire (inverse of
/// [`encode_trace_request`]). Spans with an unknown stage name are
/// skipped, not errors — a newer peer may know stages this build does
/// not.
pub fn decode_trace_request(json: &Json) -> Result<phom_obs::TraceRequest, String> {
    let trace = decode_version(json.get("trace").ok_or("trace request needs a 'trace'")?)?;
    let total_nanos = json.get("total_ns").and_then(Json::as_u64).unwrap_or(0);
    let mut spans = Vec::new();
    if let Some(arr) = json.get("spans").and_then(Json::as_arr) {
        for span in arr {
            let Some(stage) = span
                .get("stage")
                .and_then(Json::as_str)
                .and_then(phom_obs::Stage::from_name)
            else {
                continue;
            };
            let lane = match span.get("lane").and_then(Json::as_str) {
                Some("fast") => phom_obs::SpanLane::Fast,
                Some("slow") => phom_obs::SpanLane::Slow,
                _ => phom_obs::SpanLane::None,
            };
            spans.push(phom_obs::Span {
                trace,
                stage,
                lane,
                nanos: span.get("ns").and_then(Json::as_u64).unwrap_or(0),
                detail: span.get("detail").and_then(Json::as_u64).unwrap_or(0),
            });
        }
    }
    Ok(phom_obs::TraceRequest {
        trace,
        total_nanos,
        spans,
    })
}

/// The **canonical** serialization of one request outcome. This is the
/// single encoding both sides of the differential suite use: the server
/// encodes what came off a [`Ticket`](phom_serve::Ticket), the test
/// encodes what `Engine::submit` returned, and the two JSON documents
/// must be byte-identical. Probabilities and influences are exact
/// rational strings; routes are their debug names; errors carry
/// [`SolveError::wire_code`] plus the variant's structured fields.
pub fn encode_result(result: &Result<Response, SolveError>) -> Json {
    match result {
        Ok(Response::Probability(sol)) => {
            let mut pairs = vec![
                ("status".to_string(), Json::str("ok")),
                ("type".to_string(), Json::str("probability")),
                ("p".to_string(), Json::str(sol.probability.to_string())),
                ("route".to_string(), Json::str(format!("{:?}", sol.route))),
            ];
            if let Some(prov) = &sol.provenance {
                pairs.push((
                    "provenance".to_string(),
                    Json::obj(vec![
                        ("negated", Json::Bool(prov.negated)),
                        ("gates", Json::u64(prov.circuit.n_gates() as u64)),
                    ]),
                ));
            }
            Json::Obj(pairs)
        }
        // Floats travel as shortest-roundtrip strings (`format!("{v}")`):
        // byte-deterministic, and — unlike a JSON number — `1.0` stays
        // distinguishable from the integer `1`.
        Ok(Response::Approximate {
            value,
            rel_err_bound,
            route,
        }) => Json::obj(vec![
            ("status", Json::str("ok")),
            ("type", Json::str("approximate")),
            ("p", Json::str(format!("{value}"))),
            ("rel_err", Json::str(format!("{rel_err_bound}"))),
            ("route", Json::str(format!("{route:?}"))),
        ]),
        Ok(Response::Count {
            worlds,
            uncertain_edges,
        }) => Json::obj(vec![
            ("status", Json::str("ok")),
            ("type", Json::str("count")),
            ("worlds", Json::str(worlds.to_string())),
            ("uncertain_edges", Json::u64(*uncertain_edges as u64)),
        ]),
        Ok(Response::Sensitivity { influences, route }) => Json::obj(vec![
            ("status", Json::str("ok")),
            ("type", Json::str("sensitivity")),
            ("route", Json::str(format!("{route:?}"))),
            (
                "influences",
                Json::Arr(
                    influences
                        .iter()
                        .map(|p| Json::str(p.to_string()))
                        .collect(),
                ),
            ),
        ]),
        Ok(Response::Ucq { probability, route }) => Json::obj(vec![
            ("status", Json::str("ok")),
            ("type", Json::str("ucq")),
            ("p", Json::str(probability.to_string())),
            ("route", Json::str(format!("{route:?}"))),
        ]),
        // The anytime degradation frame: a certified interval from
        // budgeted sampling (`OnHard::Estimate` on a hard cell). The
        // bounds travel as shortest-roundtrip float strings like every
        // float on this wire.
        Ok(Response::Estimate {
            lo,
            hi,
            samples,
            route,
        }) => Json::obj(vec![
            ("status", Json::str("ok")),
            ("type", Json::str("estimate")),
            ("lo", Json::str(format!("{lo}"))),
            ("hi", Json::str(format!("{hi}"))),
            ("samples", Json::u64(*samples)),
            ("route", Json::str(format!("{route:?}"))),
        ]),
        Err(e) => encode_error(e),
    }
}

/// A typed error as a wire object (`status:"error"`, the stable
/// [`wire_code`](SolveError::wire_code), a human-readable message, and
/// the variant's structured fields).
pub fn encode_error(e: &SolveError) -> Json {
    let mut pairs = vec![
        ("status".to_string(), Json::str("error")),
        ("code".to_string(), Json::str(e.wire_code())),
        ("msg".to_string(), Json::str(e.to_string())),
    ];
    match e {
        SolveError::Hard(h) => {
            pairs.push(("prop".to_string(), Json::str(h.prop)));
            pairs.push(("cell".to_string(), Json::str(h.cell.clone())));
        }
        SolveError::Overloaded { capacity } => {
            pairs.push(("capacity".to_string(), Json::u64(*capacity as u64)));
        }
        SolveError::BudgetExceeded { resource, limit } => {
            pairs.push(("resource".to_string(), Json::str(*resource)));
            pairs.push(("limit".to_string(), Json::u64(*limit)));
        }
        _ => {}
    }
    Json::Obj(pairs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use phom_num::Rational;

    #[test]
    fn frames_roundtrip() {
        let mut buf = Vec::new();
        let v = Json::obj(vec![("op", Json::str("ping"))]);
        write_frame(&mut buf, &v).unwrap();
        write_frame(&mut buf, &Json::Null).unwrap();
        let mut r = buf.as_slice();
        assert_eq!(read_frame(&mut r, MAX_FRAME).unwrap(), Some(v));
        assert_eq!(read_frame(&mut r, MAX_FRAME).unwrap(), Some(Json::Null));
        assert_eq!(read_frame(&mut r, MAX_FRAME).unwrap(), None);
    }

    #[test]
    fn a_frame_is_one_write() {
        /// Counts `write` calls; accepts every byte offered.
        struct Writes(Vec<Vec<u8>>);
        impl Write for Writes {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                self.0.push(buf.to_vec());
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut w = Writes(Vec::new());
        let v = Json::obj(vec![("op", Json::str("ping"))]);
        write_frame(&mut w, &v).unwrap();
        assert_eq!(w.0.len(), 1, "prefix and body in one write");
        let mut r = w.0[0].as_slice();
        assert_eq!(read_frame(&mut r, MAX_FRAME).unwrap(), Some(v));
        assert!(r.is_empty());
    }

    #[test]
    fn oversized_and_malformed_frames_are_typed_errors() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &Json::str("x".repeat(64))).unwrap();
        write_frame(&mut buf, &Json::Null).unwrap();
        let mut r = buf.as_slice();
        let err = read_frame(&mut r, 16).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        // The oversized payload was discarded, not buffered: the stream
        // stays frame-aligned.
        assert_eq!(read_frame(&mut r, 16).unwrap(), Some(Json::Null));
        // A parse failure consumes the payload: the next frame still reads.
        let mut buf = 5u32.to_be_bytes().to_vec();
        buf.extend_from_slice(b"{oops");
        write_frame(&mut buf, &Json::Bool(true)).unwrap();
        let mut r = buf.as_slice();
        assert!(read_frame(&mut r, MAX_FRAME).is_err());
        assert_eq!(
            read_frame(&mut r, MAX_FRAME).unwrap(),
            Some(Json::Bool(true))
        );
    }

    /// Several frames encoded into one buffer are the bytes of the
    /// frames written one by one.
    #[test]
    fn encoded_frames_are_the_single_frames_back_to_back() {
        let frames = [
            Json::obj(vec![("op", Json::str("ping"))]),
            Json::Null,
            Json::str("x".repeat(300)),
        ];
        let mut one_by_one = Vec::new();
        for frame in &frames {
            write_frame(&mut one_by_one, frame).unwrap();
        }
        assert_eq!(encode_frames(&frames).unwrap(), one_by_one);
        assert!(encode_frames(&[]).unwrap().is_empty());
    }

    /// Reading through a `BufReader` yields the same frames — an
    /// oversized frame's discard and a parse failure included — whether
    /// the underlying reader hands out one byte per read or several
    /// frames per read.
    #[test]
    fn buffered_reads_yield_the_same_frames_at_any_read_size() {
        /// Hands out at most `step` bytes per `read`.
        struct Trickle<'a> {
            bytes: &'a [u8],
            step: usize,
        }
        impl Read for Trickle<'_> {
            fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
                let n = buf.len().min(self.step).min(self.bytes.len());
                buf[..n].copy_from_slice(&self.bytes[..n]);
                self.bytes = &self.bytes[n..];
                Ok(n)
            }
        }
        const MAX: usize = 64;
        let mut stream = Vec::new();
        write_frame(&mut stream, &Json::obj(vec![("id", Json::u64(1))])).unwrap();
        write_frame(&mut stream, &Json::str("y".repeat(3 * MAX))).unwrap();
        write_frame(&mut stream, &Json::Bool(true)).unwrap();
        stream.extend_from_slice(&5u32.to_be_bytes());
        stream.extend_from_slice(b"{oops");
        write_frame(&mut stream, &Json::str("z".repeat(MAX - 2))).unwrap();
        let read_all = |r: &mut dyn Read| {
            let mut got = Vec::new();
            loop {
                match read_frame(&mut &mut *r, MAX) {
                    Ok(Some(frame)) => got.push(Ok(frame)),
                    Ok(None) => return got,
                    Err(e) => got.push(Err(e.kind())),
                }
            }
        };
        let want = read_all(&mut stream.as_slice());
        assert_eq!(want.len(), 5, "{want:?}");
        assert_eq!(want[1], Err(io::ErrorKind::InvalidData));
        assert_eq!(want[3], Err(io::ErrorKind::InvalidData));
        for step in [1, 3, 7, stream.len()] {
            for capacity in [1, 16, 8 << 10] {
                let trickle = Trickle {
                    bytes: &stream,
                    step,
                };
                let mut reader = io::BufReader::with_capacity(capacity, trickle);
                assert_eq!(
                    read_all(&mut reader),
                    want,
                    "step {step}, capacity {capacity}"
                );
            }
        }
    }

    #[test]
    fn graphs_roundtrip() {
        let mut b = GraphBuilder::with_vertices(3);
        b.edge(0, 1, Label(0));
        b.edge(1, 2, Label(1));
        let g = b.build();
        let h = ProbGraph::new(g.clone(), vec![Rational::from_ratio(1, 2), Rational::one()]);
        assert_eq!(&decode_query(&encode_query(&g)).unwrap(), &g);
        let h2 = decode_instance(&encode_instance(&h)).unwrap();
        assert_eq!(h2.graph(), h.graph());
        assert_eq!(h2.probs(), h.probs());
        // A query with probabilities is rejected.
        assert!(decode_query(&encode_instance(&h)).is_err());
    }

    #[test]
    fn requests_roundtrip() {
        let q = Graph::directed_path(2);
        let reqs = [
            WireRequest::probability(q.clone()).with_provenance(),
            WireRequest::counting(q.clone()),
            WireRequest::sensitivity(q.clone())
                .with_fallback(WireFallback::BruteForce { max_uncertain: 6 }),
            WireRequest::ucq(vec![q.clone(), Graph::directed_path(1)]).with_fallback(
                WireFallback::MonteCarlo {
                    samples: 100,
                    seed: 7,
                },
            ),
            WireRequest::probability(q.clone()).with_precision(Precision::Exact),
            WireRequest::probability(q.clone())
                .with_precision(Precision::Float { max_rel_err: 1e-9 }),
            WireRequest::probability(q.clone()).with_precision(Precision::Auto {
                max_rel_err: 0.015625,
            }),
            WireRequest::probability(q.clone())
                .with_deadline_ms(250)
                .with_budget(WireBudget {
                    samples: Some(1000),
                    gates: None,
                    time_ms: Some(50),
                })
                .with_on_hard(OnHard::Estimate),
            WireRequest::probability(q.clone()).with_on_hard(OnHard::Error),
            WireRequest::probability(q.clone()).with_trace(0xDEAD_BEEF_0042_1337),
        ];
        for req in &reqs {
            let decoded = WireRequest::decode(&req.encode()).unwrap();
            assert_eq!(req.encode().to_string(), decoded.encode().to_string());
            assert_eq!(decoded.precision, req.precision);
            assert_eq!(decoded.deadline_ms, req.deadline_ms);
            assert_eq!(decoded.budget, req.budget);
            assert_eq!(decoded.trace, req.trace);
        }
        // A request without a trace encodes byte-identically to the
        // pre-trace wire form — old peers see exactly what they always
        // saw.
        assert!(!WireRequest::probability(q.clone())
            .encode()
            .to_string()
            .contains("trace"));
        // Tolerances survive the canonical string encoding bit-for-bit.
        let encoded = WireRequest::probability(q)
            .with_precision(Precision::Float { max_rel_err: 1e-9 })
            .encode();
        let decoded = WireRequest::decode(&encoded).unwrap();
        assert_eq!(
            decoded.precision,
            Some(Precision::Float { max_rel_err: 1e-9 })
        );
    }

    #[test]
    fn malformed_monte_carlo_seeds_are_refused() {
        // A seed that is not an exact integer is a typed error, never a
        // silent seed 0 (which would answer a different estimate than
        // the client asked for); an absent seed still means 0.
        let request = |seed: &str| {
            Json::parse(&format!(
                r#"{{"kind":"probability","query":{{"vertices":1,"edges":[]}},
                    "fallback":{{"monte_carlo":{{"samples":10{seed}}}}}}}"#
            ))
            .unwrap()
        };
        for bad in [r#","seed":"7""#, r#","seed":1.5"#, r#","seed":1e300"#] {
            let err = WireRequest::decode(&request(bad)).unwrap_err();
            assert!(err.contains("seed"), "{bad}: {err}");
        }
        for (ok, seed) in [
            ("", 0),
            (r#","seed":null"#, 0),
            (r#","seed":7"#, 7),
            (r#","seed":"0xffffffffffffffff""#, u64::MAX),
        ] {
            let decoded = WireRequest::decode(&request(ok)).unwrap();
            assert!(
                matches!(decoded.fallback, Some(WireFallback::MonteCarlo { seed: s, .. }) if s == seed),
                "{ok}: {decoded:?}"
            );
        }
    }

    #[test]
    fn counts_above_2_pow_53_roundtrip_as_hex() {
        // Above 2^53 a JSON number would round; such counts and seeds
        // travel as hex strings and come back exact.
        let big = (1u64 << 53) + 1;
        let request = WireRequest::probability(Graph::directed_path(1))
            .with_fallback(WireFallback::MonteCarlo {
                samples: big,
                seed: u64::MAX,
            })
            .with_deadline_ms(big)
            .with_budget(WireBudget {
                samples: Some(1 << 53),
                gates: Some(1 << 60),
                time_ms: Some(u64::MAX),
            });
        let text = request.encode().encode();
        assert!(text.contains(r#""seed":"0xffffffffffffffff""#), "{text}");
        assert!(text.contains(r#""samples":9007199254740992"#), "{text}");
        let decoded = WireRequest::decode(&Json::parse(&text).unwrap()).unwrap();
        assert!(matches!(
            decoded.fallback,
            Some(WireFallback::MonteCarlo { samples, seed: u64::MAX }) if samples == big
        ));
        assert_eq!(decoded.deadline_ms, Some(big));
        assert_eq!(decoded.budget, request.budget);
        assert_eq!(decoded.encode().encode(), text);
    }

    #[test]
    fn degradation_frames_are_canonical() {
        // The estimate result frame.
        let estimate = Ok(Response::Estimate {
            lo: 0.25,
            hi: 0.375,
            samples: 512,
            route: phom_core::Route::MonteCarlo {
                samples: 512,
                ci95_times_1e9: 62_500_000,
            },
        });
        let json = encode_result(&estimate);
        assert_eq!(json.get("type").and_then(Json::as_str), Some("estimate"));
        assert_eq!(json.get("lo").and_then(Json::as_str), Some("0.25"));
        assert_eq!(json.get("hi").and_then(Json::as_str), Some("0.375"));
        assert_eq!(json.get("samples").and_then(Json::as_u64), Some(512));
        // The limit errors carry their stable codes and structured
        // fields.
        let deadline = encode_result(&Err(SolveError::DeadlineExceeded));
        assert_eq!(
            deadline.get("code").and_then(Json::as_str),
            Some("deadline_exceeded")
        );
        let budget = encode_result(&Err(SolveError::BudgetExceeded {
            resource: "gates",
            limit: 4096,
        }));
        assert_eq!(
            budget.get("code").and_then(Json::as_str),
            Some("budget_exceeded")
        );
        assert_eq!(budget.get("resource").and_then(Json::as_str), Some("gates"));
        assert_eq!(budget.get("limit").and_then(Json::as_u64), Some(4096));
    }

    #[test]
    fn versions_roundtrip() {
        for v in [0u64, 1, u64::MAX, 0xDEADBEEFDEADBEEF] {
            assert_eq!(decode_version(&encode_version(v)).unwrap(), v);
        }
        assert!(decode_version(&Json::u64(5)).is_err());
    }

    #[test]
    fn histograms_and_traces_roundtrip() {
        let mut h = phom_obs::Histogram::new();
        for v in [0u64, 5, 100, 100, 4096, 1 << 33] {
            h.record(v);
        }
        let back = decode_histogram(&encode_histogram(&h)).unwrap();
        assert_eq!(back.count(), h.count());
        assert_eq!(back.sum(), h.sum());
        assert_eq!(back.max(), h.max());
        assert_eq!(back.quantile(0.99), h.quantile(0.99));
        // An idle histogram stays a few bytes and round-trips too.
        let idle = decode_histogram(&encode_histogram(&phom_obs::Histogram::new())).unwrap();
        assert_eq!(idle.count(), 0);

        let req = phom_obs::TraceRequest {
            trace: 42,
            total_nanos: 15,
            spans: vec![
                phom_obs::Span {
                    trace: 42,
                    stage: phom_obs::Stage::Queued,
                    lane: phom_obs::SpanLane::Fast,
                    nanos: 10,
                    detail: 0,
                },
                phom_obs::Span {
                    trace: 42,
                    stage: phom_obs::Stage::Evaluated,
                    lane: phom_obs::SpanLane::Fast,
                    nanos: 5,
                    detail: 99,
                },
            ],
        };
        let back = decode_trace_request(&encode_trace_request(&req)).unwrap();
        assert_eq!(back.trace, 42);
        assert_eq!(back.total_nanos, 15);
        assert_eq!(back.spans, req.spans);
    }
}
