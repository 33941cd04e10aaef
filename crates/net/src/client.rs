//! Clients for the wire protocol.
//!
//! [`Client`] is the small blocking v1 client — one request in flight
//! per connection — that the examples, the differential tests, and
//! downstream tooling speak. [`MuxClient`] is the pipelined protocol-v2
//! client: it negotiates `hello` on a fresh connection, keeps up to the
//! granted window of submits in flight, matches out-of-order replies by
//! client-assigned ids on a background reader thread, and receives
//! results as server pushes (no `poll` round trips). See
//! `docs/wire-protocol.md` for the protocol itself.

use crate::json::Json;
use crate::wire::{self, read_frame, write_frame, WireRequest};
use phom_graph::ProbGraph;
use std::collections::HashMap;
use std::io;
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Why a client call failed.
#[derive(Debug)]
pub enum NetError {
    /// The connection failed (including a server that closed mid-call).
    Io(io::Error),
    /// The server answered a typed error frame. `code` is stable
    /// ([`SolveError::wire_code`](phom_core::SolveError::wire_code) for
    /// solver-side errors, `bad_frame`/`bad_request`/`unknown_ticket`
    /// for protocol errors).
    Server {
        /// The stable error code.
        code: String,
        /// Human-readable message.
        msg: String,
        /// `overloaded` errors carry the queue capacity that was hit.
        capacity: Option<usize>,
    },
    /// The server answered something the client could not interpret.
    Protocol(String),
    /// The endpoint could not be reached within the configured retry
    /// budget ([`Client::connect_with_retry`]), or a fleet router
    /// answered a `member_unavailable` frame for a downed member.
    Unavailable {
        /// The address that refused us (or the member's name, when the
        /// error came off the wire from a router).
        addr: String,
        /// Connection attempts made before giving up.
        attempts: u32,
        /// The last underlying error, rendered.
        last: String,
    },
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::Io(e) => write!(f, "io: {e}"),
            NetError::Server { code, msg, .. } => write!(f, "server error [{code}]: {msg}"),
            NetError::Protocol(msg) => write!(f, "protocol error: {msg}"),
            NetError::Unavailable {
                addr,
                attempts,
                last,
            } => {
                write!(f, "unavailable: {addr} after {attempts} attempt(s): {last}")
            }
        }
    }
}

impl std::error::Error for NetError {}

impl From<io::Error> for NetError {
    fn from(e: io::Error) -> Self {
        NetError::Io(e)
    }
}

impl NetError {
    /// True for the `overloaded` backpressure frame.
    pub fn is_overloaded(&self) -> bool {
        matches!(self, NetError::Server { code, .. } if code == "overloaded")
    }

    /// True for the `cancelled` code (explicit cancellation, or a
    /// draining/shut-down server refusing new work).
    pub fn is_cancelled(&self) -> bool {
        matches!(self, NetError::Server { code, .. } if code == "cancelled")
    }

    /// True when the endpoint (or a fleet member behind a router) could
    /// not be reached: a local [`NetError::Unavailable`], or a
    /// `member_unavailable` error frame from a router.
    pub fn is_unavailable(&self) -> bool {
        matches!(self, NetError::Unavailable { .. })
            || matches!(self, NetError::Server { code, .. } if code == "member_unavailable")
    }
}

/// The shared reconnect-with-backoff loop behind
/// [`Client::connect_with_retry`] and [`MuxClient::connect_with_retry`].
fn retry_connect<A, C, E>(
    addr: &A,
    attempts: u32,
    backoff: Duration,
    connect: impl Fn(&A) -> Result<C, E>,
) -> Result<C, NetError>
where
    A: std::fmt::Debug,
    E: std::fmt::Display,
{
    let attempts = attempts.max(1);
    let mut last = String::new();
    for attempt in 1..=attempts {
        match connect(addr) {
            Ok(client) => return Ok(client),
            Err(e) => last = e.to_string(),
        }
        if attempt == attempts {
            // Exhausted: report immediately. A trailing backoff here
            // would tax every routing decision that probes a dead
            // member with one extra sleep for nothing.
            break;
        }
        std::thread::sleep(backoff * attempt);
    }
    Err(NetError::Unavailable {
        addr: format!("{addr:?}"),
        attempts,
        last,
    })
}

fn decode_trace_reply(reply: &Json) -> Result<Vec<phom_obs::TraceRequest>, NetError> {
    let Some(Json::Arr(items)) = reply.get("requests") else {
        return Err(NetError::Protocol("trace reply lacks 'requests'".into()));
    };
    items
        .iter()
        .map(|r| wire::decode_trace_request(r).map_err(NetError::Protocol))
        .collect()
}

/// A blocking connection to a [`Server`](crate::Server).
pub struct Client {
    stream: TcpStream,
    max_frame: usize,
}

impl Client {
    /// Connects with the default frame bound.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        // The protocol is small request/reply frames: Nagle + delayed
        // ACKs would add tens of milliseconds per round trip.
        stream.set_nodelay(true)?;
        Ok(Client {
            stream,
            max_frame: wire::MAX_FRAME,
        })
    }

    /// Connects with up to `attempts` tries, sleeping `backoff` longer
    /// after each failure (attempt k sleeps `k × backoff`). Exhausting
    /// the budget yields the typed [`NetError::Unavailable`] instead of
    /// a raw [`io::Error`], so "the peer is down" stays distinguishable
    /// from a protocol failure.
    pub fn connect_with_retry(
        addr: impl ToSocketAddrs + std::fmt::Debug,
        attempts: u32,
        backoff: Duration,
    ) -> Result<Client, NetError> {
        retry_connect(&addr, attempts, backoff, |addr| Client::connect(addr))
    }

    /// One request/reply exchange; unwraps the `ok`/`err` envelope.
    fn call(&mut self, request: Json) -> Result<Json, NetError> {
        write_frame(&mut self.stream, &request)?;
        let reply = read_frame(&mut self.stream, self.max_frame)?
            .ok_or_else(|| NetError::Io(io::ErrorKind::UnexpectedEof.into()))?;
        if let Some(ok) = reply.get("ok") {
            return Ok(ok.clone());
        }
        if let Some(err) = reply.get("err") {
            return Err(NetError::Server {
                code: err
                    .get("code")
                    .and_then(Json::as_str)
                    .unwrap_or("unknown")
                    .to_string(),
                msg: err
                    .get("msg")
                    .and_then(Json::as_str)
                    .unwrap_or_default()
                    .to_string(),
                capacity: err
                    .get("capacity")
                    .and_then(Json::as_u64)
                    .map(|n| n as usize),
            });
        }
        Err(NetError::Protocol(format!("unrecognized reply: {reply}")))
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> Result<(), NetError> {
        self.call(Json::obj(vec![("op", Json::str("ping"))]))
            .map(|_| ())
    }

    /// Registers an instance version server-side; returns its routing
    /// fingerprint.
    pub fn register(&mut self, instance: &ProbGraph) -> Result<u64, NetError> {
        let reply = self.call(Json::obj(vec![
            ("op", Json::str("register")),
            ("instance", wire::encode_instance(instance)),
        ]))?;
        reply
            .get("version")
            .ok_or_else(|| NetError::Protocol("register reply lacks 'version'".into()))
            .and_then(|v| wire::decode_version(v).map_err(NetError::Protocol))
    }

    /// Like [`register`](Client::register) but sends the fingerprint as
    /// a `version` hint so a server already holding it can ack from the
    /// registry without re-decoding the graph. Returns the version plus
    /// whether the server answered from its registry
    /// (`registered: "cached"`).
    pub fn register_hinted(
        &mut self,
        instance: &ProbGraph,
        hint: u64,
    ) -> Result<(u64, bool), NetError> {
        let reply = self.call(Json::obj(vec![
            ("op", Json::str("register")),
            ("version", wire::encode_version(hint)),
            ("instance", wire::encode_instance(instance)),
        ]))?;
        let version = reply
            .get("version")
            .ok_or_else(|| NetError::Protocol("register reply lacks 'version'".into()))
            .and_then(|v| wire::decode_version(v).map_err(NetError::Protocol))?;
        let cached = reply.get("registered").and_then(Json::as_str) == Some("cached");
        Ok((version, cached))
    }

    /// Removes a version from the server's registry (`Ok(true)` when it
    /// was registered). Requests already admitted for it still
    /// complete; new submits are rejected with `invalid_query`.
    pub fn deregister(&mut self, version: u64) -> Result<bool, NetError> {
        let reply = self.call(Json::obj(vec![
            ("op", Json::str("deregister")),
            ("version", wire::encode_version(version)),
        ]))?;
        reply
            .get("deregistered")
            .and_then(Json::as_bool)
            .ok_or_else(|| NetError::Protocol("deregister reply lacks 'deregistered'".into()))
    }

    /// The fingerprints of every version the server currently holds
    /// (sorted).
    pub fn versions(&mut self) -> Result<Vec<u64>, NetError> {
        let reply = self.call(Json::obj(vec![("op", Json::str("versions"))]))?;
        let Some(Json::Arr(items)) = reply.get("versions") else {
            return Err(NetError::Protocol("versions reply lacks 'versions'".into()));
        };
        items
            .iter()
            .map(|v| wire::decode_version(v).map_err(NetError::Protocol))
            .collect()
    }

    /// Submits a request for `version`; returns the server-side ticket
    /// id. A full ingress queue surfaces as an `overloaded`
    /// [`NetError::Server`] — backpressure, retry after backing off.
    pub fn submit(&mut self, version: u64, request: &WireRequest) -> Result<u64, NetError> {
        let reply = self.call(Json::obj(vec![
            ("op", Json::str("submit")),
            ("version", wire::encode_version(version)),
            ("request", request.encode()),
        ]))?;
        reply
            .get("ticket")
            .and_then(Json::as_u64)
            .ok_or_else(|| NetError::Protocol("submit reply lacks 'ticket'".into()))
    }

    /// Like [`submit`](Client::submit) but also returns the trace id the
    /// front door echoed in the ack (the request's own when it carried
    /// one, freshly minted otherwise). `None` against a pre-tracing
    /// server.
    pub fn submit_traced(
        &mut self,
        version: u64,
        request: &WireRequest,
    ) -> Result<(u64, Option<u64>), NetError> {
        let reply = self.call(Json::obj(vec![
            ("op", Json::str("submit")),
            ("version", wire::encode_version(version)),
            ("request", request.encode()),
        ]))?;
        let ticket = reply
            .get("ticket")
            .and_then(Json::as_u64)
            .ok_or_else(|| NetError::Protocol("submit reply lacks 'ticket'".into()))?;
        let trace = match reply.get("trace") {
            Some(v) => Some(wire::decode_version(v).map_err(NetError::Protocol)?),
            None => None,
        };
        Ok((ticket, trace))
    }

    /// Polls a ticket, blocking server-side up to `wait` (capped by the
    /// server). `Ok(None)` while pending; `Ok(Some(result))` delivers
    /// the canonical result object exactly once (the ticket is then
    /// gone).
    pub fn poll(&mut self, ticket: u64, wait: Duration) -> Result<Option<Json>, NetError> {
        let reply = self.call(Json::obj(vec![
            ("op", Json::str("poll")),
            ("ticket", Json::u64(ticket)),
            (
                "wait_ms",
                Json::u64(wait.as_millis().min(u128::from(u64::MAX)) as u64),
            ),
        ]))?;
        match reply.get("done").and_then(Json::as_bool) {
            Some(false) => Ok(None),
            Some(true) => reply
                .get("result")
                .cloned()
                .map(Some)
                .ok_or_else(|| NetError::Protocol("done poll lacks 'result'".into())),
            None => Err(NetError::Protocol("poll reply lacks 'done'".into())),
        }
    }

    /// Polls until the answer arrives (no overall deadline — callers
    /// wanting one should loop over [`poll`](Client::poll)).
    pub fn wait(&mut self, ticket: u64) -> Result<Json, NetError> {
        loop {
            if let Some(result) = self.poll(ticket, Duration::from_millis(500))? {
                return Ok(result);
            }
        }
    }

    /// Polls until the answer arrives or `deadline` elapses.
    pub fn wait_deadline(
        &mut self,
        ticket: u64,
        deadline: Duration,
    ) -> Result<Option<Json>, NetError> {
        let until = Instant::now() + deadline;
        loop {
            let left = until.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Ok(None);
            }
            if let Some(result) = self.poll(ticket, left.min(Duration::from_millis(500)))? {
                return Ok(Some(result));
            }
        }
    }

    /// Cancels a ticket (best effort — `Ok(true)` when the cancellation
    /// resolved it before the answer landed).
    pub fn cancel(&mut self, ticket: u64) -> Result<bool, NetError> {
        let reply = self.call(Json::obj(vec![
            ("op", Json::str("cancel")),
            ("ticket", Json::u64(ticket)),
        ]))?;
        reply
            .get("cancelled")
            .and_then(Json::as_bool)
            .ok_or_else(|| NetError::Protocol("cancel reply lacks 'cancelled'".into()))
    }

    /// The server's stats snapshot (runtime + front-end counters).
    pub fn stats(&mut self) -> Result<Json, NetError> {
        self.call(Json::obj(vec![("op", Json::str("stats"))]))?
            .get("stats")
            .cloned()
            .ok_or_else(|| NetError::Protocol("stats reply lacks 'stats'".into()))
    }

    /// The server's metrics in Prometheus text exposition format (the
    /// stable names are listed in `docs/metrics.md`).
    pub fn metrics(&mut self) -> Result<String, NetError> {
        self.call(Json::obj(vec![("op", Json::str("metrics"))]))?
            .get("metrics")
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or_else(|| NetError::Protocol("metrics reply lacks 'metrics'".into()))
    }

    /// The recorded spans for one trace id, grouped per request (a
    /// router answers with member spans merged under its own routing
    /// spans). Empty when the trace has aged out of the span ring.
    pub fn trace_spans(&mut self, trace: u64) -> Result<Vec<phom_obs::TraceRequest>, NetError> {
        let reply = self.call(Json::obj(vec![
            ("op", Json::str("trace")),
            ("trace", wire::encode_version(trace)),
        ]))?;
        decode_trace_reply(&reply)
    }

    /// The `n` slowest requests still in the span ring, by total
    /// recorded nanos, slowest first.
    pub fn slowest(&mut self, n: u64) -> Result<Vec<phom_obs::TraceRequest>, NetError> {
        let reply = self.call(Json::obj(vec![
            ("op", Json::str("trace")),
            ("slowest", Json::u64(n)),
        ]))?;
        decode_trace_reply(&reply)
    }

    /// Sends a raw frame and returns the raw reply — protocol tests and
    /// debugging.
    pub fn call_raw(&mut self, request: Json) -> Result<Json, NetError> {
        write_frame(&mut self.stream, &request)?;
        read_frame(&mut self.stream, self.max_frame)?
            .ok_or_else(|| NetError::Io(io::ErrorKind::UnexpectedEof.into()))
    }

    /// Frames arbitrary payload bytes (valid length prefix, any
    /// content) and reads the reply — for driving the server's
    /// malformed-input handling in tests.
    pub fn call_frame_raw(&mut self, payload: &[u8]) -> Result<Json, NetError> {
        use std::io::Write as _;
        let len = u32::try_from(payload.len())
            .map_err(|_| NetError::Protocol("payload too large to frame".into()))?;
        self.stream.write_all(&len.to_be_bytes())?;
        self.stream.write_all(payload)?;
        self.stream.flush()?;
        read_frame(&mut self.stream, self.max_frame)?
            .ok_or_else(|| NetError::Io(io::ErrorKind::UnexpectedEof.into()))
    }
}

// ===================================================================
// Protocol v2: the pipelined, multiplexed client
// ===================================================================

/// The in-flight window a [`MuxClient`] proposes at `hello` when the
/// caller does not pick one. The server clamps the grant to its own
/// cap, so proposing generously costs nothing.
pub const DEFAULT_MUX_WINDOW: usize = 256;

/// A cloneable mirror of [`NetError`]: when the connection dies, the
/// same failure must resolve *every* outstanding operation, so the
/// error is broadcast rather than moved.
#[derive(Debug, Clone)]
enum MuxErr {
    Server {
        code: String,
        msg: String,
        capacity: Option<usize>,
    },
    Io(String),
    Protocol(String),
}

impl MuxErr {
    fn from_err_frame(err: &Json) -> MuxErr {
        MuxErr::Server {
            code: err
                .get("code")
                .and_then(Json::as_str)
                .unwrap_or("unknown")
                .to_string(),
            msg: err
                .get("msg")
                .and_then(Json::as_str)
                .unwrap_or_default()
                .to_string(),
            capacity: err
                .get("capacity")
                .and_then(Json::as_u64)
                .map(|n| n as usize),
        }
    }

    fn to_net(&self) -> NetError {
        match self {
            MuxErr::Server {
                code,
                msg,
                capacity,
            } => NetError::Server {
                code: code.clone(),
                msg: msg.clone(),
                capacity: *capacity,
            },
            MuxErr::Io(msg) => NetError::Io(io::Error::new(io::ErrorKind::BrokenPipe, msg.clone())),
            MuxErr::Protocol(msg) => NetError::Protocol(msg.clone()),
        }
    }
}

/// The server-side identity of an admitted submit: its ticket id and
/// the trace id the front door echoed in the ack.
#[derive(Debug, Clone, Copy)]
struct AckInfo {
    ticket: u64,
    trace: u64,
}

/// What a waiter blocks on: the ack (admission) and the result
/// (completion push) land here, each at most once. The invariant every
/// resolution path maintains: a resolved `result` implies a resolved
/// `ack` — so `MuxTicket::ack` can wait on `ack` alone without ever
/// missing a terminal error.
struct MuxState {
    ack: Option<Result<AckInfo, MuxErr>>,
    result: Option<Result<Json, MuxErr>>,
}

struct MuxShared {
    state: Mutex<MuxState>,
    cv: Condvar,
}

impl MuxShared {
    fn new() -> Arc<MuxShared> {
        Arc::new(MuxShared {
            state: Mutex::new(MuxState {
                ack: None,
                result: None,
            }),
            cv: Condvar::new(),
        })
    }

    fn lock(&self) -> MutexGuard<'_, MuxState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Records the admission ack (first write wins).
    fn set_ack(&self, ack: Result<AckInfo, MuxErr>) {
        let mut state = self.lock();
        if state.ack.is_none() {
            state.ack = Some(ack);
        }
        drop(state);
        self.cv.notify_all();
    }

    /// Records the terminal result; backfills the ack so no waiter is
    /// left parked on a ticket that can no longer be admitted.
    fn set_result(&self, result: Result<Json, MuxErr>) {
        let mut state = self.lock();
        if state.ack.is_none() {
            state.ack = Some(match &result {
                // Result without ack can only mean the connection died
                // (or a protocol bug); surface the same failure.
                Ok(_) => Err(MuxErr::Protocol(
                    "completion pushed before the admission ack".into(),
                )),
                Err(e) => Err(e.clone()),
            });
        }
        if state.result.is_none() {
            state.result = Some(result);
        }
        drop(state);
        self.cv.notify_all();
    }

    /// Resolves both slots with one broadcast error (connection death,
    /// typed submit rejection).
    fn fail(&self, e: &MuxErr) {
        let mut state = self.lock();
        if state.ack.is_none() {
            state.ack = Some(Err(e.clone()));
        }
        if state.result.is_none() {
            state.result = Some(Err(e.clone()));
        }
        drop(state);
        self.cv.notify_all();
    }

    fn wait_ack(&self) -> Result<AckInfo, MuxErr> {
        let mut state = self.lock();
        loop {
            if let Some(ack) = state.ack.as_ref() {
                return ack.clone();
            }
            state = self.cv.wait(state).unwrap_or_else(PoisonError::into_inner);
        }
    }

    fn wait_result(&self) -> Result<Json, MuxErr> {
        let mut state = self.lock();
        loop {
            if let Some(result) = state.result.as_ref() {
                return result.clone();
            }
            state = self.cv.wait(state).unwrap_or_else(PoisonError::into_inner);
        }
    }

    fn wait_result_deadline(&self, deadline: Instant) -> Option<Result<Json, MuxErr>> {
        let mut state = self.lock();
        loop {
            if let Some(result) = state.result.as_ref() {
                return Some(result.clone());
            }
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            let (guard, _) = self
                .cv
                .wait_timeout(state, deadline - now)
                .unwrap_or_else(PoisonError::into_inner);
            state = guard;
        }
    }
}

/// What the reader thread routes an incoming frame to.
enum Pending {
    /// A request/reply op (`register`, `cancel`, `stats`, …): the reply
    /// resolves it outright.
    Call(Arc<MuxShared>),
    /// A single submit: the ack resolves admission, the pushed
    /// completion resolves the result.
    Submit(Arc<MuxShared>),
    /// A `submit_batch`: one ack carries per-entry tickets, pushes
    /// arrive per entry (routed by `index`).
    Batch {
        slots: Vec<Arc<MuxShared>>,
        /// Entries not yet terminally resolved — the map entry is
        /// retained until this hits zero.
        outstanding: usize,
    },
}

/// Everything keyed by client-assigned frame id, plus the window
/// bookkeeping. `inflight` counts submits whose completion has not
/// arrived; [`MuxClient::submit`] blocks on `window_cv` while it is at
/// the granted window, mirroring the server's admission gate so a
/// well-behaved client never draws the typed `overloaded` rejection.
struct PendingTable {
    map: HashMap<u64, Pending>,
    inflight: usize,
    /// Set once when the connection dies; every later operation fails
    /// fast with a clone of this.
    dead: Option<MuxErr>,
}

struct MuxInner {
    writer: Mutex<TcpStream>,
    pending: Mutex<PendingTable>,
    /// Waits on `pending` for a window slot.
    window_cv: Condvar,
    next_id: AtomicU64,
    window: usize,
    max_frame: usize,
}

impl MuxInner {
    fn lock_pending(&self) -> MutexGuard<'_, PendingTable> {
        self.pending.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Connection death: resolve everything outstanding with `err`,
    /// release all window waiters, and poison future operations.
    fn die(&self, err: MuxErr) {
        let drained: Vec<Pending> = {
            let mut table = self.lock_pending();
            if table.dead.is_some() {
                return;
            }
            table.dead = Some(err.clone());
            table.inflight = 0;
            table.map.drain().map(|(_, p)| p).collect()
        };
        self.window_cv.notify_all();
        for pending in drained {
            match pending {
                Pending::Call(shared) | Pending::Submit(shared) => shared.fail(&err),
                Pending::Batch { slots, .. } => {
                    for slot in slots {
                        slot.fail(&err);
                    }
                }
            }
        }
    }
}

/// A pipelined protocol-v2 connection to a [`Server`](crate::Server).
///
/// Unlike [`Client`], every method takes `&self` and the connection is
/// safe to share across threads: frames carry client-assigned ids, a
/// background reader matches out-of-order replies, and results arrive
/// as server pushes — [`submit`](MuxClient::submit) returns a
/// [`MuxTicket`] immediately and [`MuxTicket::wait`] parks on the
/// pushed completion instead of issuing `poll` round trips. Up to the
/// `hello`-negotiated window of submits ride one connection
/// concurrently; at the window, `submit` blocks until a completion
/// frees a slot (the client-side mirror of the server's typed
/// `overloaded` gate).
pub struct MuxClient {
    inner: Arc<MuxInner>,
    reader: Option<JoinHandle<()>>,
}

/// A claim on one pushed completion from a [`MuxClient`] submit.
///
/// [`ack`](MuxTicket::ack) blocks for the admission ack (server ticket
/// id + trace id); [`wait`](MuxTicket::wait) blocks for the pushed
/// result — the same canonical result object a v1 `poll` delivers,
/// byte-for-byte. A typed submit rejection (e.g. `overloaded`)
/// surfaces from both as [`NetError::Server`]; a dead connection
/// resolves every outstanding ticket with the transport error.
pub struct MuxTicket {
    shared: Arc<MuxShared>,
}

impl MuxTicket {
    /// Blocks until the server acks (or rejects) the submit; returns
    /// `(server_ticket, trace)`.
    pub fn ack(&self) -> Result<(u64, u64), NetError> {
        self.shared
            .wait_ack()
            .map(|a| (a.ticket, a.trace))
            .map_err(|e| e.to_net())
    }

    /// Non-blocking probe for the ack: `None` until the server acks (or
    /// rejects) the submit, then what [`ack`](MuxTicket::ack) returns.
    pub fn try_ack(&self) -> Option<Result<(u64, u64), NetError>> {
        let state = self.shared.lock();
        state.ack.as_ref().map(|ack| {
            ack.as_ref()
                .map(|a| (a.ticket, a.trace))
                .map_err(MuxErr::to_net)
        })
    }

    /// Blocks until the pushed completion arrives; returns the
    /// canonical result object (identical to v1 `poll`'s `result`).
    pub fn wait(&self) -> Result<Json, NetError> {
        self.shared.wait_result().map_err(|e| e.to_net())
    }

    /// As [`wait`](MuxTicket::wait), giving up after `deadline`
    /// (`Ok(None)` when the completion did not arrive in time — the
    /// ticket stays claimable).
    pub fn wait_deadline(&self, deadline: Duration) -> Result<Option<Json>, NetError> {
        match self.shared.wait_result_deadline(Instant::now() + deadline) {
            Some(result) => result.map(Some).map_err(|e| e.to_net()),
            None => Ok(None),
        }
    }

    /// Non-blocking probe for the completion.
    pub fn try_get(&self) -> Option<Result<Json, NetError>> {
        let state = self.shared.lock();
        state
            .result
            .as_ref()
            .map(|r| r.clone().map_err(|e| e.to_net()))
    }

    /// True once the completion (or a terminal error) has landed.
    pub fn is_done(&self) -> bool {
        self.shared.lock().result.is_some()
    }
}

impl MuxClient {
    /// Connects and negotiates protocol v2 with the default proposed
    /// window ([`DEFAULT_MUX_WINDOW`]).
    pub fn connect(addr: impl ToSocketAddrs) -> Result<MuxClient, NetError> {
        MuxClient::connect_with_window(addr, DEFAULT_MUX_WINDOW)
    }

    /// Connects and proposes `max_inflight` at `hello`. The server
    /// clamps the grant to its own cap; [`window`](MuxClient::window)
    /// reports what was actually granted. Fails with the server's
    /// typed error when the peer does not speak v2 (a v1 server
    /// answers `bad_request` — callers fall back to [`Client`]).
    pub fn connect_with_window(
        addr: impl ToSocketAddrs,
        max_inflight: usize,
    ) -> Result<MuxClient, NetError> {
        let mut stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        // The hello exchange is synchronous: it must be the first frame
        // on the wire, and nothing else may be written until the grant
        // comes back (a v1 server would reject everything after it).
        write_frame(
            &mut stream,
            &Json::obj(vec![
                ("op", Json::str("hello")),
                ("version", Json::u64(wire::PROTOCOL_V2)),
                ("max_inflight", Json::u64(max_inflight.max(1) as u64)),
            ]),
        )?;
        let reply = read_frame(&mut stream, wire::MAX_FRAME)?
            .ok_or_else(|| NetError::Io(io::ErrorKind::UnexpectedEof.into()))?;
        let ok = if let Some(ok) = reply.get("ok") {
            ok.clone()
        } else if let Some(err) = reply.get("err") {
            return Err(MuxErr::from_err_frame(err).to_net());
        } else {
            return Err(NetError::Protocol(format!(
                "unrecognized hello reply: {reply}"
            )));
        };
        match ok.get("version").and_then(Json::as_u64) {
            Some(wire::PROTOCOL_V2) => {}
            other => {
                return Err(NetError::Protocol(format!(
                    "hello granted unsupported version {other:?}"
                )))
            }
        }
        let window = ok
            .get("window")
            .and_then(Json::as_u64)
            .ok_or_else(|| NetError::Protocol("hello reply lacks 'window'".into()))?
            .max(1) as usize;
        let read_half = stream.try_clone()?;
        let inner = Arc::new(MuxInner {
            writer: Mutex::new(stream),
            pending: Mutex::new(PendingTable {
                map: HashMap::new(),
                inflight: 0,
                dead: None,
            }),
            window_cv: Condvar::new(),
            next_id: AtomicU64::new(1),
            window,
            max_frame: wire::MAX_FRAME,
        });
        // A reader that cannot be spawned is an I/O failure like any
        // other: the connection drops with `inner`.
        let reader = {
            let inner = Arc::clone(&inner);
            std::thread::Builder::new()
                .name("phom-mux-reader".into())
                .spawn(move || mux_reader(&inner, read_half))?
        };
        Ok(MuxClient {
            inner,
            reader: Some(reader),
        })
    }

    /// [`connect`](MuxClient::connect) with the reconnect-with-backoff
    /// budget of [`Client::connect_with_retry`]: a peer that refuses the
    /// connection (or the `hello`) on every attempt answers the typed
    /// [`NetError::Unavailable`].
    pub fn connect_with_retry(
        addr: impl ToSocketAddrs + std::fmt::Debug,
        attempts: u32,
        backoff: Duration,
    ) -> Result<MuxClient, NetError> {
        retry_connect(&addr, attempts, backoff, |addr| MuxClient::connect(addr))
    }

    /// The in-flight window the server granted at `hello`.
    pub fn window(&self) -> usize {
        self.inner.window
    }

    /// True once the connection has died: every outstanding operation
    /// has been resolved with the failure and every later one fails
    /// fast, so a holder should replace the client.
    pub fn is_closed(&self) -> bool {
        self.inner.lock_pending().dead.is_some()
    }

    fn next_id(&self) -> u64 {
        self.inner.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Writes one frame under the writer lock; a failure kills the
    /// connection (pipelined peers cannot resync a torn frame).
    fn write(&self, frame: &Json) -> Result<(), NetError> {
        let mut stream = self
            .inner
            .writer
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if let Err(e) = write_frame(&mut *stream, frame) {
            drop(stream);
            let err = MuxErr::Io(e.to_string());
            self.inner.die(err.clone());
            return Err(err.to_net());
        }
        Ok(())
    }

    /// One request/reply op over the multiplexed connection (replies
    /// may interleave with other traffic; the reader routes ours back
    /// by id).
    fn call(&self, mut pairs: Vec<(&str, Json)>) -> Result<Json, NetError> {
        let id = self.next_id();
        pairs.insert(0, ("id", Json::u64(id)));
        let frame = Json::obj(pairs);
        let shared = MuxShared::new();
        {
            let mut table = self.inner.lock_pending();
            if let Some(dead) = table.dead.as_ref() {
                return Err(dead.to_net());
            }
            table.map.insert(id, Pending::Call(Arc::clone(&shared)));
        }
        // On write failure `die` already resolved the pending entry.
        self.write(&frame)?;
        shared.wait_result().map_err(|e| e.to_net())
    }

    /// Liveness probe.
    pub fn ping(&self) -> Result<(), NetError> {
        self.call(vec![("op", Json::str("ping"))]).map(|_| ())
    }

    /// As [`Client::register`].
    pub fn register(&self, instance: &ProbGraph) -> Result<u64, NetError> {
        let reply = self.call(vec![
            ("op", Json::str("register")),
            ("instance", wire::encode_instance(instance)),
        ])?;
        reply
            .get("version")
            .ok_or_else(|| NetError::Protocol("register reply lacks 'version'".into()))
            .and_then(|v| wire::decode_version(v).map_err(NetError::Protocol))
    }

    /// As [`Client::register_hinted`].
    pub fn register_hinted(
        &self,
        instance: &ProbGraph,
        hint: u64,
    ) -> Result<(u64, bool), NetError> {
        self.register_json(wire::encode_instance(instance), hint)
    }

    /// As [`register_hinted`](MuxClient::register_hinted) but takes the
    /// instance's wire encoding (a relay — the fleet router — keeps the
    /// encoding it forwards instead of a decoded graph).
    pub fn register_json(&self, instance: Json, hint: u64) -> Result<(u64, bool), NetError> {
        let reply = self.call(vec![
            ("op", Json::str("register")),
            ("version", wire::encode_version(hint)),
            ("instance", instance),
        ])?;
        let version = reply
            .get("version")
            .ok_or_else(|| NetError::Protocol("register reply lacks 'version'".into()))
            .and_then(|v| wire::decode_version(v).map_err(NetError::Protocol))?;
        let cached = reply.get("registered").and_then(Json::as_str) == Some("cached");
        Ok((version, cached))
    }

    /// As [`Client::deregister`].
    pub fn deregister(&self, version: u64) -> Result<bool, NetError> {
        let reply = self.call(vec![
            ("op", Json::str("deregister")),
            ("version", wire::encode_version(version)),
        ])?;
        reply
            .get("deregistered")
            .and_then(Json::as_bool)
            .ok_or_else(|| NetError::Protocol("deregister reply lacks 'deregistered'".into()))
    }

    /// As [`Client::versions`].
    pub fn versions(&self) -> Result<Vec<u64>, NetError> {
        let reply = self.call(vec![("op", Json::str("versions"))])?;
        let Some(Json::Arr(items)) = reply.get("versions") else {
            return Err(NetError::Protocol("versions reply lacks 'versions'".into()));
        };
        items
            .iter()
            .map(|v| wire::decode_version(v).map_err(NetError::Protocol))
            .collect()
    }

    /// Submits a request, pipelined: returns a [`MuxTicket`]
    /// immediately (the frame is on the wire, the ack resolves in the
    /// background). Blocks only while the connection is at its granted
    /// window — a completion push frees the slot.
    pub fn submit(&self, version: u64, request: &WireRequest) -> Result<MuxTicket, NetError> {
        self.submit_impl(version, request.encode(), true)
    }

    /// As [`submit`](MuxClient::submit) but takes the request's raw
    /// wire encoding (a relay — the fleet router — forwards request
    /// objects it never decodes).
    pub fn submit_json(&self, version: u64, request: Json) -> Result<MuxTicket, NetError> {
        self.submit_impl(version, request, true)
    }

    /// As [`submit_json`](MuxClient::submit_json) but never blocks on
    /// the window: a full window answers the same typed `overloaded`
    /// error the server's own admission gate would, carrying the
    /// window as `capacity` — so a relay keeps backpressure typed on
    /// the wire instead of stalling its caller.
    pub fn try_submit_json(&self, version: u64, request: Json) -> Result<MuxTicket, NetError> {
        self.submit_impl(version, request, false)
    }

    fn submit_impl(&self, version: u64, request: Json, block: bool) -> Result<MuxTicket, NetError> {
        let id = self.next_id();
        let shared = MuxShared::new();
        {
            let mut table = self.inner.lock_pending();
            loop {
                if let Some(dead) = table.dead.as_ref() {
                    return Err(dead.to_net());
                }
                if table.inflight < self.inner.window {
                    break;
                }
                if !block {
                    return Err(NetError::Server {
                        code: "overloaded".into(),
                        msg: format!("connection window full ({} in flight)", self.inner.window),
                        capacity: Some(self.inner.window),
                    });
                }
                table = self
                    .inner
                    .window_cv
                    .wait(table)
                    .unwrap_or_else(PoisonError::into_inner);
            }
            table.inflight += 1;
            table.map.insert(id, Pending::Submit(Arc::clone(&shared)));
        }
        let frame = Json::obj(vec![
            ("id", Json::u64(id)),
            ("op", Json::str("submit")),
            ("version", wire::encode_version(version)),
            ("request", request),
        ]);
        self.write(&frame)?;
        Ok(MuxTicket { shared })
    }

    /// Submits a whole batch in one frame (one ack with per-entry
    /// tickets or typed errors; completions still push per entry).
    /// Returns one [`MuxTicket`] per request, in order. A batch larger
    /// than the window waits for an empty pipeline, then lets the
    /// server's admission gate type the overflow (`overloaded` entries
    /// in the ack) — flow control composes, it is not double-applied.
    pub fn submit_batch(
        &self,
        version: u64,
        requests: &[WireRequest],
    ) -> Result<Vec<MuxTicket>, NetError> {
        if requests.is_empty() {
            return Ok(Vec::new());
        }
        let id = self.next_id();
        let slots: Vec<Arc<MuxShared>> = requests.iter().map(|_| MuxShared::new()).collect();
        {
            let mut table = self.inner.lock_pending();
            loop {
                if let Some(dead) = table.dead.as_ref() {
                    return Err(dead.to_net());
                }
                if table.inflight == 0 || table.inflight + requests.len() <= self.inner.window {
                    break;
                }
                table = self
                    .inner
                    .window_cv
                    .wait(table)
                    .unwrap_or_else(PoisonError::into_inner);
            }
            table.inflight += requests.len();
            table.map.insert(
                id,
                Pending::Batch {
                    slots: slots.iter().map(Arc::clone).collect(),
                    outstanding: requests.len(),
                },
            );
        }
        let frame = Json::obj(vec![
            ("id", Json::u64(id)),
            ("op", Json::str("submit_batch")),
            ("version", wire::encode_version(version)),
            (
                "requests",
                Json::Arr(requests.iter().map(WireRequest::encode).collect()),
            ),
        ]);
        self.write(&frame)?;
        Ok(slots
            .into_iter()
            .map(|shared| MuxTicket { shared })
            .collect())
    }

    /// Cancels a server ticket (from [`MuxTicket::ack`]). The ticket's
    /// completion push still arrives — carrying the `cancelled` result.
    pub fn cancel(&self, server_ticket: u64) -> Result<bool, NetError> {
        let reply = self.call(vec![
            ("op", Json::str("cancel")),
            ("ticket", Json::u64(server_ticket)),
        ])?;
        reply
            .get("cancelled")
            .and_then(Json::as_bool)
            .ok_or_else(|| NetError::Protocol("cancel reply lacks 'cancelled'".into()))
    }

    /// As [`Client::stats`].
    pub fn stats(&self) -> Result<Json, NetError> {
        self.call(vec![("op", Json::str("stats"))])?
            .get("stats")
            .cloned()
            .ok_or_else(|| NetError::Protocol("stats reply lacks 'stats'".into()))
    }

    /// As [`Client::metrics`].
    pub fn metrics(&self) -> Result<String, NetError> {
        self.call(vec![("op", Json::str("metrics"))])?
            .get("metrics")
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or_else(|| NetError::Protocol("metrics reply lacks 'metrics'".into()))
    }

    /// As [`Client::trace_spans`].
    pub fn trace_spans(&self, trace: u64) -> Result<Vec<phom_obs::TraceRequest>, NetError> {
        let reply = self.call(vec![
            ("op", Json::str("trace")),
            ("trace", wire::encode_version(trace)),
        ])?;
        decode_trace_reply(&reply)
    }

    /// As [`Client::slowest`].
    pub fn slowest(&self, n: u64) -> Result<Vec<phom_obs::TraceRequest>, NetError> {
        let reply = self.call(vec![("op", Json::str("trace")), ("slowest", Json::u64(n))])?;
        decode_trace_reply(&reply)
    }
}

impl Drop for MuxClient {
    fn drop(&mut self) {
        // Shut the socket down (all clones share it), which lands the
        // reader on EOF; it resolves any stragglers and exits.
        {
            let stream = self
                .inner
                .writer
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            let _ = stream.shutdown(std::net::Shutdown::Both);
        }
        if let Some(reader) = self.reader.take() {
            let _ = reader.join();
        }
    }
}

/// The background reader: routes acks and replies by id, dispatches
/// pushed completions, and broadcasts connection death.
fn mux_reader(inner: &Arc<MuxInner>, mut stream: TcpStream) {
    loop {
        match read_frame(&mut stream, inner.max_frame) {
            Ok(Some(frame)) => {
                if let Some(kind) = frame.get("push").and_then(Json::as_str) {
                    match kind {
                        "result" => mux_apply_push(inner, &frame),
                        "results" => {
                            if let Some(Json::Arr(entries)) = frame.get("results") {
                                for entry in entries {
                                    mux_apply_push(inner, entry);
                                }
                            }
                        }
                        // Unknown push kinds are skippable by design
                        // (forward compatibility).
                        _ => {}
                    }
                } else if frame.get("id").is_some() {
                    mux_apply_reply(inner, &frame);
                } else {
                    // An id-less reply is the server's bad_frame path:
                    // our framing is corrupt, nothing can be routed any
                    // more.
                    inner.die(MuxErr::Protocol(format!(
                        "server rejected our framing: {frame}"
                    )));
                    return;
                }
            }
            Ok(None) => {
                inner.die(MuxErr::Io("connection closed".into()));
                return;
            }
            Err(e) => {
                inner.die(MuxErr::Io(e.to_string()));
                return;
            }
        }
    }
}

/// Routes one id-carrying reply frame (ack or call reply).
fn mux_apply_reply(inner: &Arc<MuxInner>, frame: &Json) {
    let Some(id) = frame.get("id").and_then(Json::as_u64) else {
        inner.die(MuxErr::Protocol(format!(
            "reply with unroutable id: {frame}"
        )));
        return;
    };
    let outcome: Result<Json, MuxErr> = if let Some(ok) = frame.get("ok") {
        Ok(ok.clone())
    } else if let Some(err) = frame.get("err") {
        Err(MuxErr::from_err_frame(err))
    } else {
        Err(MuxErr::Protocol(format!("unrecognized reply: {frame}")))
    };
    let mut table = inner.lock_pending();
    match table.map.get_mut(&id) {
        Some(Pending::Call(_)) => {
            let Some(Pending::Call(shared)) = table.map.remove(&id) else {
                unreachable!("checked variant")
            };
            drop(table);
            shared.set_result(outcome);
        }
        Some(Pending::Submit(shared)) => {
            let shared = Arc::clone(shared);
            match outcome {
                Ok(ok) => {
                    drop(table);
                    match decode_submit_ack(&ok) {
                        Ok(ack) => shared.set_ack(Ok(ack)),
                        Err(e) => {
                            // Unintelligible ack: terminal for this
                            // submit (its push could never be matched
                            // to a server ticket the caller knows).
                            let mut table = inner.lock_pending();
                            table.map.remove(&id);
                            mux_free_slots(inner, &mut table, 1);
                            drop(table);
                            shared.fail(&e);
                        }
                    }
                }
                Err(e) => {
                    // Typed rejection (overloaded, draining, invalid
                    // query): no push will come, free the slot now.
                    table.map.remove(&id);
                    mux_free_slots(inner, &mut table, 1);
                    drop(table);
                    shared.fail(&e);
                }
            }
        }
        Some(Pending::Batch { .. }) => {
            mux_apply_batch_ack(inner, table, id, outcome);
        }
        // A reply for an id we no longer track (already resolved):
        // drop it — late frames are harmless.
        None => {}
    }
}

/// Applies a `submit_batch` ack: per-entry tickets resolve admission,
/// per-entry errors are terminal (no push follows for them).
fn mux_apply_batch_ack(
    inner: &Arc<MuxInner>,
    mut table: MutexGuard<'_, PendingTable>,
    id: u64,
    outcome: Result<Json, MuxErr>,
) {
    let Some(Pending::Batch { slots, outstanding }) = table.map.get_mut(&id) else {
        return;
    };
    let slots_ref: Vec<Arc<MuxShared>> = slots.iter().map(Arc::clone).collect();
    match outcome {
        Ok(ok) => {
            let entries = match ok.get("tickets") {
                Some(Json::Arr(entries)) if entries.len() == slots_ref.len() => entries.clone(),
                _ => {
                    // Malformed ack: terminal for the whole batch.
                    let n = *outstanding;
                    table.map.remove(&id);
                    mux_free_slots(inner, &mut table, n);
                    drop(table);
                    let e = MuxErr::Protocol("batch ack lacks matching 'tickets'".into());
                    for slot in &slots_ref {
                        slot.fail(&e);
                    }
                    return;
                }
            };
            // Count rejected entries under the lock, then resolve the
            // shared slots outside it.
            let mut rejected = 0usize;
            for entry in &entries {
                if entry.get("err").is_some() {
                    rejected += 1;
                }
            }
            *outstanding -= rejected;
            let remove = *outstanding == 0;
            if remove {
                table.map.remove(&id);
            }
            mux_free_slots(inner, &mut table, rejected);
            drop(table);
            for (entry, slot) in entries.iter().zip(&slots_ref) {
                if let Some(err) = entry.get("err") {
                    slot.fail(&MuxErr::from_err_frame(err));
                } else {
                    match decode_submit_ack(entry) {
                        Ok(ack) => slot.set_ack(Ok(ack)),
                        Err(e) => slot.set_ack(Err(e)),
                    }
                }
            }
        }
        Err(e) => {
            // The whole frame was rejected (bad_request, draining):
            // terminal for every entry.
            let n = *outstanding;
            table.map.remove(&id);
            mux_free_slots(inner, &mut table, n);
            drop(table);
            for slot in &slots_ref {
                slot.fail(&e);
            }
        }
    }
}

/// Applies one pushed completion entry (`{id, [index], ticket,
/// result}`) to whatever submit it belongs to.
fn mux_apply_push(inner: &Arc<MuxInner>, entry: &Json) {
    let Some(id) = entry.get("id").and_then(Json::as_u64) else {
        return;
    };
    let result = entry
        .get("result")
        .cloned()
        .ok_or_else(|| MuxErr::Protocol("push entry lacks 'result'".into()));
    let mut table = inner.lock_pending();
    match table.map.get_mut(&id) {
        Some(Pending::Submit(_)) => {
            let Some(Pending::Submit(shared)) = table.map.remove(&id) else {
                unreachable!("checked variant")
            };
            mux_free_slots(inner, &mut table, 1);
            drop(table);
            shared.set_result(result);
        }
        Some(Pending::Batch { slots, outstanding }) => {
            let Some(index) = entry.get("index").and_then(Json::as_u64) else {
                return; // unroutable entry; the batch stays claimable
            };
            let Some(slot) = slots.get(index as usize).map(Arc::clone) else {
                return;
            };
            *outstanding -= 1;
            if *outstanding == 0 {
                table.map.remove(&id);
            }
            mux_free_slots(inner, &mut table, 1);
            drop(table);
            slot.set_result(result);
        }
        // A push for a Call id or an already-resolved submit: drop it.
        _ => {}
    }
}

/// Frees `n` window slots and wakes submitters blocked on the window.
fn mux_free_slots(inner: &MuxInner, table: &mut PendingTable, n: usize) {
    if n == 0 {
        return;
    }
    table.inflight = table.inflight.saturating_sub(n);
    inner.window_cv.notify_all();
}

/// Decodes a submit ack payload `{ticket, trace}`.
fn decode_submit_ack(ok: &Json) -> Result<AckInfo, MuxErr> {
    let ticket = ok
        .get("ticket")
        .and_then(Json::as_u64)
        .ok_or_else(|| MuxErr::Protocol("submit ack lacks 'ticket'".into()))?;
    let trace = match ok.get("trace") {
        Some(v) => wire::decode_version(v).map_err(MuxErr::Protocol)?,
        None => 0,
    };
    Ok(AckInfo { ticket, trace })
}
