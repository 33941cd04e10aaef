//! The TCP front end: an accept thread plus one reader thread per
//! connection, each feeding the runtime's **bounded** ingress queue.
//! Nothing in the server buffers without limit — a full queue surfaces
//! as a typed `overloaded` error frame on the wire (the backpressure
//! signal), oversized frames are rejected at the framing layer, and a
//! draining server answers new submissions with `cancelled` while it
//! lets clients collect their outstanding answers.
//!
//! A connection whose first frame is `hello` upgrades to **protocol
//! v2** (see the [`crate::wire`] docs and `docs/wire-protocol.md`):
//! the server adds one writer thread for the connection, serializes
//! every outgoing frame through it, and *pushes* a completion frame
//! the moment a ticket resolves — the wakeup rides
//! [`Ticket::on_complete`], so an outstanding ticket costs a map entry,
//! not a parked thread. Connections that never send `hello` get the v1
//! protocol byte for byte.

use crate::json::Json;
use crate::wire::{
    self, encode_error, encode_result, encode_version, read_frame, write_frame, WireRequest,
};
use phom_core::{Response, SolveError};
use phom_obs::Kind::{self, Counter, Level};
use phom_obs::{Histogram, Metric, PromText, Span, SpanLane, SpanRing, Stage};
use phom_serve::{Runtime, Ticket, RUNTIME_METRICS};
use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Configuration for a [`Server`].
#[derive(Clone, Debug)]
pub struct ServerBuilder {
    max_frame: usize,
    poll_wait_cap: Duration,
    inflight_window: usize,
}

impl Default for ServerBuilder {
    fn default() -> Self {
        ServerBuilder::new()
    }
}

impl ServerBuilder {
    /// Defaults: 8 MiB frame bound, 2 s poll-wait cap, 1024-request
    /// in-flight window per v2 connection.
    pub fn new() -> Self {
        ServerBuilder {
            max_frame: wire::MAX_FRAME,
            poll_wait_cap: Duration::from_secs(2),
            inflight_window: 1024,
        }
    }

    /// Bound on a single wire frame; larger frames are rejected without
    /// being buffered.
    pub fn max_frame(mut self, bytes: usize) -> Self {
        self.max_frame = bytes.max(64);
        self
    }

    /// Cap on the `wait_ms` a `poll` op may block the connection for
    /// (clients re-poll for longer waits).
    pub fn poll_wait_cap(mut self, cap: Duration) -> Self {
        self.poll_wait_cap = cap;
        self
    }

    /// Server-side cap on the per-connection in-flight window a v2
    /// `hello` may negotiate (the granted window is
    /// `min(client's max_inflight, this cap)`, at least 1).
    pub fn inflight_window(mut self, window: usize) -> Self {
        self.inflight_window = window.max(1);
        self
    }

    /// Binds the listener and spawns the accept thread.
    pub fn bind(self, addr: impl ToSocketAddrs, runtime: Arc<Runtime>) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let inner = Arc::new(ServerInner {
            runtime,
            draining: AtomicBool::new(false),
            max_frame: self.max_frame,
            poll_wait_cap: self.poll_wait_cap,
            inflight_window: self.inflight_window,
            conns: Mutex::new(Vec::new()),
            counters: Counters::default(),
            inflight_depth: Mutex::new(Histogram::new()),
            spans: SpanRing::new(phom_obs::DEFAULT_RING_CAPACITY),
        });
        let accept = {
            let inner = Arc::clone(&inner);
            std::thread::Builder::new()
                .name("phom-net-accept".into())
                .spawn(move || accept_loop(&inner, listener))
                .expect("spawn accept thread")
        };
        Ok(Server {
            inner,
            accept: Some(accept),
            local_addr,
        })
    }
}

#[derive(Default)]
struct Counters {
    connections: AtomicU64,
    frames_in: AtomicU64,
    frames_out: AtomicU64,
    submitted: AtomicU64,
    rejected_overloaded: AtomicU64,
    delivered: AtomicU64,
    /// Tickets held server-side on behalf of clients, not yet delivered
    /// (or dropped at connection close). The no-leak gauge.
    tickets_open: AtomicI64,
    /// Completion frames pushed to v2 connections.
    pushed: AtomicU64,
    /// Connections that negotiated protocol v2 via `hello`.
    hello_upgrades: AtomicU64,
    /// Requests currently inside some v2 connection's in-flight window
    /// (admitted, completion not yet pushed). The `phom_net_inflight`
    /// gauge.
    inflight: AtomicI64,
    /// Push frames being written right now. Their tickets already left
    /// `tickets_open`, so a draining shutdown waits for these too
    /// before it closes connections.
    pushes_writing: AtomicI64,
}

struct ServerInner {
    runtime: Arc<Runtime>,
    draining: AtomicBool,
    max_frame: usize,
    poll_wait_cap: Duration,
    /// Cap on the per-connection window a v2 `hello` may negotiate.
    inflight_window: usize,
    /// Live connections: the reader thread's handle plus a duplicated
    /// stream used to force it out of a blocking read at shutdown.
    /// Reaped by the accept loop as connections close.
    conns: Mutex<Vec<(TcpStream, Option<JoinHandle<()>>)>>,
    counters: Counters,
    /// Window depth observed at each v2 admit (how deep pipelining
    /// actually runs) — `phom_net_inflight_depth` in the exposition.
    inflight_depth: Mutex<Histogram>,
    /// The front end's own spans (today: the `pushed` stage — ticket
    /// resolution to completion frame on the wire), merged with the
    /// runtime's ring by the `trace` op.
    spans: SpanRing,
}

impl Counters {
    fn snapshot(&self) -> NetStats {
        NetStats {
            connections: self.connections.load(Ordering::Relaxed),
            frames_in: self.frames_in.load(Ordering::Relaxed),
            frames_out: self.frames_out.load(Ordering::Relaxed),
            submitted: self.submitted.load(Ordering::Relaxed),
            rejected_overloaded: self.rejected_overloaded.load(Ordering::Relaxed),
            delivered: self.delivered.load(Ordering::Relaxed),
            open_tickets: self.tickets_open.load(Ordering::SeqCst),
            pushed: self.pushed.load(Ordering::Relaxed),
            hello_upgrades: self.hello_upgrades.load(Ordering::Relaxed),
            inflight: self.inflight.load(Ordering::SeqCst),
        }
    }
}

impl ServerInner {
    /// What [`NET_METRICS`] reads: the counters and the window-depth
    /// histogram.
    fn net_snapshot(&self) -> (NetStats, Histogram) {
        let depth = self
            .inflight_depth
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        (self.counters.snapshot(), depth.clone())
    }
}

/// A point-in-time snapshot of the front end's own counters (the
/// runtime's serving stats live in [`RuntimeStats`](phom_serve::RuntimeStats)).
#[derive(Clone, Copy, Debug, Default)]
pub struct NetStats {
    /// Connections accepted over the server's lifetime.
    pub connections: u64,
    /// Frames read off all connections.
    pub frames_in: u64,
    /// Frames written to all connections.
    pub frames_out: u64,
    /// `submit` ops that admitted a request.
    pub submitted: u64,
    /// `submit` ops rejected with the `overloaded` backpressure frame.
    pub rejected_overloaded: u64,
    /// Answers delivered to clients via `poll`.
    pub delivered: u64,
    /// Tickets currently held server-side awaiting delivery (0 after a
    /// clean drain — the no-leak gauge).
    pub open_tickets: i64,
    /// Completion frames pushed to v2 connections.
    pub pushed: u64,
    /// Connections that negotiated protocol v2 via `hello`.
    pub hello_upgrades: u64,
    /// Requests currently inside some v2 connection's in-flight window.
    pub inflight: i64,
}

/// The front end's metrics over its counters and the v2 window-depth
/// histogram, one row each (`docs/metrics.md` lists them). The `stats`
/// reply nests them under `net`; the `metrics` text follows the
/// runtime's families with them.
#[rustfmt::skip]
pub const NET_METRICS: &[Metric<(NetStats, Histogram)>] = &[
    Metric::new("connections", "phom_net_connections_total", &[], Counter, "connections accepted", |(n, _)| n.connections.into()),
    Metric::new("frames_in", "phom_net_frames_in_total", &[], Counter, "frames read off all connections", |(n, _)| n.frames_in.into()),
    Metric::new("frames_out", "phom_net_frames_out_total", &[], Counter, "frames written to all connections", |(n, _)| n.frames_out.into()),
    Metric::new("submitted", "phom_net_submitted_total", &[], Counter, "submit ops that admitted a request", |(n, _)| n.submitted.into()),
    Metric::new("rejected_overloaded", "phom_net_rejected_overloaded_total", &[], Counter, "submit ops rejected with backpressure", |(n, _)| n.rejected_overloaded.into()),
    Metric::new("open_tickets", "phom_net_open_tickets", &[], Level, "tickets held server-side awaiting delivery", |(n, _)| n.open_tickets.into()),
    Metric::new("delivered", "phom_net_delivered_total", &[], Counter, "answers delivered via poll", |(n, _)| n.delivered.into()),
    Metric::new("pushed", "phom_net_pushed_total", &[], Counter, "completion frames pushed to v2 connections", |(n, _)| n.pushed.into()),
    Metric::new("hello_upgrades", "phom_net_hello_total", &[], Counter, "connections upgraded to protocol v2", |(n, _)| n.hello_upgrades.into()),
    Metric::new("inflight", "phom_net_inflight", &[], Level, "requests inside v2 in-flight windows (admitted, not yet pushed)", |(n, _)| n.inflight.into()),
    Metric::new("inflight_depth", "phom_net_inflight_depth", &[], Kind::Histogram, "window depth observed at each v2 admit", |(_, depth)| depth.into()),
];

/// The network serving front end: a TCP listener speaking the
/// length-prefixed JSON protocol of [`crate::wire`] over a shared
/// [`Runtime`]. One reader thread per connection; every op maps
/// directly onto the runtime surface (`REGISTER` →
/// [`Runtime::register`], `SUBMIT` → [`Runtime::enqueue_to`], `POLL` /
/// `CANCEL` → [`Ticket`], `STATS` → [`Runtime::stats`]).
pub struct Server {
    inner: Arc<ServerInner>,
    accept: Option<JoinHandle<()>>,
    local_addr: SocketAddr,
}

impl Server {
    /// Starts a configuration.
    pub fn builder() -> ServerBuilder {
        ServerBuilder::new()
    }

    /// Binds with default configuration.
    pub fn bind(addr: impl ToSocketAddrs, runtime: Arc<Runtime>) -> io::Result<Server> {
        ServerBuilder::new().bind(addr, runtime)
    }

    /// The bound address (useful after binding port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The served runtime.
    pub fn runtime(&self) -> &Arc<Runtime> {
        &self.inner.runtime
    }

    /// Tickets currently held on behalf of connected clients.
    pub fn open_tickets(&self) -> i64 {
        self.inner.counters.tickets_open.load(Ordering::SeqCst)
    }

    /// The front end's counters.
    pub fn net_stats(&self) -> NetStats {
        self.inner.counters.snapshot()
    }

    /// Draining shutdown: stop accepting connections, answer new
    /// `submit` ops with a `cancelled` error frame, give clients up to
    /// `drain` to poll their outstanding answers (the runtime keeps
    /// resolving tickets throughout), then close every connection and
    /// join every thread. Returns the final [`NetStats`].
    pub fn shutdown(mut self, drain: Duration) -> NetStats {
        self.shutdown_impl(drain);
        self.net_stats()
    }

    fn shutdown_impl(&mut self, drain: Duration) {
        self.inner.draining.store(true, Ordering::SeqCst);
        // Wake the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.local_addr);
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        let deadline = Instant::now() + drain;
        let c = &self.inner.counters;
        while (self.open_tickets() > 0 || c.pushes_writing.load(Ordering::SeqCst) > 0)
            && Instant::now() < deadline
        {
            std::thread::sleep(Duration::from_millis(2));
        }
        let conns = std::mem::take(
            &mut *self
                .inner
                .conns
                .lock()
                .unwrap_or_else(PoisonError::into_inner),
        );
        for (stream, _) in &conns {
            let _ = stream.shutdown(std::net::Shutdown::Both);
        }
        for (_, handle) in conns {
            if let Some(handle) = handle {
                let _ = handle.join();
            }
        }
    }
}

impl Drop for Server {
    /// Dropping without [`shutdown`](Server::shutdown) still stops the
    /// accept loop, closes every connection, and joins every thread (no
    /// drain window).
    fn drop(&mut self) {
        if self.accept.is_some() {
            self.shutdown_impl(Duration::ZERO);
        }
    }
}

fn accept_loop(inner: &Arc<ServerInner>, listener: TcpListener) {
    for stream in listener.incoming() {
        if inner.draining.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else {
            // Accept errors (EMFILE, transient resets) must not turn
            // this loop into a spin; back off briefly and retry.
            std::thread::sleep(Duration::from_millis(10));
            continue;
        };
        // Small request/reply frames: disable Nagle, or every round
        // trip eats a delayed-ACK timeout.
        let _ = stream.set_nodelay(true);
        inner.counters.connections.fetch_add(1, Ordering::Relaxed);
        let Ok(clone) = stream.try_clone() else {
            continue;
        };
        let inner2 = Arc::clone(inner);
        let Ok(handle) = std::thread::Builder::new()
            .name("phom-net-conn".into())
            .spawn(move || handle_conn(&inner2, stream))
        else {
            // No thread to serve it: the stream closes with the dropped
            // closure, and the listener keeps accepting.
            continue;
        };
        // Reap closed connections while registering the new one, so a
        // long-lived server does not accumulate one fd + one join
        // handle per connection it ever served.
        let mut conns = inner.conns.lock().unwrap_or_else(PoisonError::into_inner);
        conns.retain_mut(|(_, slot)| match slot {
            Some(h) if h.is_finished() => {
                let _ = slot.take().expect("present").join();
                false
            }
            _ => true,
        });
        conns.push((clone, Some(handle)));
    }
}

/// One connection: read a frame, serve the op, write the reply, repeat
/// until EOF. Submitted tickets are held in a per-connection registry
/// until the final `poll` delivers their answer (then dropped — a
/// delivered ticket is never retained). A `hello` as the very first
/// frame upgrades the connection to protocol v2 and hands it to
/// [`handle_conn_v2`]; any later `hello` is a `bad_request` (the two
/// modes never mix on one connection).
fn handle_conn(inner: &Arc<ServerInner>, mut stream: TcpStream) {
    let mut tickets: HashMap<u64, Ticket> = HashMap::new();
    let mut next_ticket: u64 = 1;
    let mut first = true;
    loop {
        let frame = match read_frame(&mut stream, inner.max_frame) {
            Ok(Some(frame)) => frame,
            Ok(None) => break,
            Err(e) if e.kind() == io::ErrorKind::InvalidData => {
                // The payload was consumed; framing is still aligned.
                first = false;
                let reply = err_reply(&Json::Null, "bad_frame", &e.to_string());
                if write_reply(inner, &mut stream, reply).is_err() {
                    break;
                }
                continue;
            }
            Err(_) => break,
        };
        inner.counters.frames_in.fetch_add(1, Ordering::Relaxed);
        let was_first = std::mem::replace(&mut first, false);
        if frame.get("op").and_then(Json::as_str) == Some("hello") {
            if was_first {
                handle_conn_v2(inner, stream, &frame);
                return; // v2 owns its own teardown accounting
            }
            let reply = err_reply(
                &frame,
                "bad_request",
                "hello must be the first frame on a connection",
            );
            if write_reply(inner, &mut stream, reply).is_err() {
                break;
            }
            continue;
        }
        let held = tickets.len();
        let reply = handle_op(inner, &mut tickets, &mut next_ticket, &frame);
        let written = write_reply(inner, &mut stream, reply).is_ok();
        // A delivering `poll` closes its ticket only once the answer is
        // on the wire: a draining shutdown closes the connection as soon
        // as `open_tickets` reaches 0, which must not cut the reply off.
        let delivered = held.saturating_sub(tickets.len());
        inner
            .counters
            .tickets_open
            .fetch_sub(delivered as i64, Ordering::SeqCst);
        if !written {
            break;
        }
    }
    // Undelivered tickets die with the connection; their answers are
    // discarded when the runtime resolves them (never leaked).
    inner
        .counters
        .tickets_open
        .fetch_sub(tickets.len() as i64, Ordering::SeqCst);
}

// ---------------------------------------------------------------------
// Protocol v2: pipelined reader + single writer thread per connection
// ---------------------------------------------------------------------

/// Everything a v2 connection writes goes through one writer thread, in
/// queue order — acks from the reader and completion pushes from
/// whatever thread resolved the ticket never interleave mid-frame.
enum WriterMsg {
    /// An ordered reply produced by the reader thread.
    Reply(Json),
    /// A completion wakeup fired by [`Ticket::on_complete`].
    Push(PushMsg),
    /// The reader is gone; exit without waiting for stragglers.
    Close,
}

struct PushMsg {
    /// The client-assigned request id, echoed verbatim.
    id: Json,
    /// Position in a `submit_batch`'s `requests` array (absent for
    /// plain submits).
    index: Option<u64>,
    /// The server-side ticket id.
    ticket: u64,
    /// The request's trace id (for the `pushed` stage span).
    trace: u64,
    /// When the resolution fired — the push-delay span's start.
    resolved_at: Instant,
    result: Result<Response, SolveError>,
}

/// Per-connection v2 state shared by the reader and the writer.
struct V2Conn {
    /// Outstanding tickets: inserted by the reader at submit, removed
    /// by the writer when the completion push hits the wire.
    tickets: Mutex<HashMap<u64, Ticket>>,
    /// This connection's current in-flight count (the window gauge).
    inflight: AtomicI64,
    /// The window granted at `hello`.
    window: usize,
}

fn lock_tickets(conn: &V2Conn) -> std::sync::MutexGuard<'_, HashMap<u64, Ticket>> {
    conn.tickets.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The v2 connection loop, entered after a first-frame `hello`.
fn handle_conn_v2(inner: &Arc<ServerInner>, mut stream: TcpStream, hello: &Json) {
    // Negotiate: the client proposes a window, the server caps it.
    match hello.get("version").and_then(Json::as_u64) {
        Some(wire::PROTOCOL_V2) => {}
        _ => {
            let reply = err_reply(hello, "bad_request", "hello needs 'version': 2");
            let _ = write_reply(inner, &mut stream, reply);
            return;
        }
    }
    let proposed = hello
        .get("max_inflight")
        .and_then(Json::as_u64)
        .map_or(inner.inflight_window, |n| n as usize);
    let window = proposed.clamp(1, inner.inflight_window);
    let ack = ok_reply(
        hello,
        Json::obj(vec![
            ("version", Json::u64(wire::PROTOCOL_V2)),
            ("window", Json::u64(window as u64)),
        ]),
    );
    if write_reply(inner, &mut stream, ack).is_err() {
        return;
    }
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    inner
        .counters
        .hello_upgrades
        .fetch_add(1, Ordering::Relaxed);
    let conn = Arc::new(V2Conn {
        tickets: Mutex::new(HashMap::new()),
        inflight: AtomicI64::new(0),
        window,
    });
    let (tx, rx) = mpsc::channel::<WriterMsg>();
    let writer = {
        let inner = Arc::clone(inner);
        let conn = Arc::clone(&conn);
        std::thread::Builder::new()
            .name("phom-net-writer".into())
            .spawn(move || v2_writer(&inner, &conn, write_half, &rx))
    };
    // No writer, no connection: it drops here (nothing was admitted on
    // it yet) and the server keeps serving the others.
    let Ok(writer) = writer else {
        return;
    };
    let mut next_ticket: u64 = 1;
    loop {
        let frame = match read_frame(&mut stream, inner.max_frame) {
            Ok(Some(frame)) => frame,
            Ok(None) => break,
            Err(e) if e.kind() == io::ErrorKind::InvalidData => {
                let reply = err_reply(&Json::Null, "bad_frame", &e.to_string());
                if tx.send(WriterMsg::Reply(reply)).is_err() {
                    break;
                }
                continue;
            }
            Err(_) => break,
        };
        inner.counters.frames_in.fetch_add(1, Ordering::Relaxed);
        if !v2_frame(inner, &conn, &tx, &mut next_ticket, &frame) {
            break;
        }
    }
    let _ = tx.send(WriterMsg::Close);
    drop(tx);
    let _ = writer.join();
    // Undelivered tickets die with the connection (their answers are
    // discarded when the runtime resolves them); late callbacks fire
    // into the closed channel and are dropped.
    let remaining = {
        let mut tickets = lock_tickets(&conn);
        let n = tickets.len() as i64;
        tickets.clear();
        n
    };
    inner
        .counters
        .tickets_open
        .fetch_sub(remaining, Ordering::SeqCst);
    inner
        .counters
        .inflight
        .fetch_sub(remaining, Ordering::SeqCst);
}

/// Dispatches one v2 frame. Returns whether the connection should keep
/// reading (false once the writer is gone).
fn v2_frame(
    inner: &ServerInner,
    conn: &Arc<V2Conn>,
    tx: &mpsc::Sender<WriterMsg>,
    next_ticket: &mut u64,
    frame: &Json,
) -> bool {
    let Some(op) = frame.get("op").and_then(Json::as_str) else {
        let reply = err_reply(frame, "bad_request", "missing 'op'");
        return tx.send(WriterMsg::Reply(reply)).is_ok();
    };
    let reply = match op {
        "submit" | "submit_batch" if frame.get("id").is_none() => err_reply(
            frame,
            "bad_request",
            "v2 submits need a client-assigned 'id'",
        ),
        "submit" => return v2_submit(inner, conn, tx, next_ticket, frame),
        "submit_batch" => return v2_submit_batch(inner, conn, tx, next_ticket, frame),
        "poll" => err_reply(
            frame,
            "bad_request",
            "poll is unavailable on a v2 connection; results are pushed",
        ),
        "cancel" => {
            let Some(id) = frame.get("ticket").and_then(Json::as_u64) else {
                return tx
                    .send(WriterMsg::Reply(err_reply(
                        frame,
                        "bad_request",
                        "cancel needs a 'ticket'",
                    )))
                    .is_ok();
            };
            // `cancel` routes through the same idempotent resolution as
            // every other path, so the completion (a `cancelled` error
            // result) is still pushed exactly once.
            match lock_tickets(conn).get(&id) {
                Some(ticket) => {
                    let cancelled = ticket.cancel();
                    ok_reply(frame, Json::obj(vec![("cancelled", Json::Bool(cancelled))]))
                }
                None => err_reply(frame, "unknown_ticket", "no such ticket on this connection"),
            }
        }
        "hello" => err_reply(frame, "bad_request", "connection already negotiated"),
        other => stateless_op(inner, frame, other),
    };
    tx.send(WriterMsg::Reply(reply)).is_ok()
}

/// Admits one v2 submit: window check, runtime admission, ack, then the
/// completion callback. The ack is queued to the writer *before* the
/// callback is registered, so the push can never overtake it.
fn v2_submit(
    inner: &ServerInner,
    conn: &Arc<V2Conn>,
    tx: &mpsc::Sender<WriterMsg>,
    next_ticket: &mut u64,
    frame: &Json,
) -> bool {
    if inner.draining.load(Ordering::SeqCst) {
        return tx
            .send(WriterMsg::Reply(solve_err_reply(
                frame,
                &SolveError::Cancelled,
            )))
            .is_ok();
    }
    let version = match frame.get("version").map(wire::decode_version) {
        Some(Ok(version)) => version,
        Some(Err(msg)) => {
            return tx
                .send(WriterMsg::Reply(err_reply(frame, "bad_request", &msg)))
                .is_ok()
        }
        None => {
            return tx
                .send(WriterMsg::Reply(err_reply(
                    frame,
                    "bad_request",
                    "submit needs a 'version'",
                )))
                .is_ok()
        }
    };
    let request = match frame.get("request").map(WireRequest::decode) {
        Some(Ok(request)) => request,
        Some(Err(msg)) => {
            return tx
                .send(WriterMsg::Reply(err_reply(frame, "bad_request", &msg)))
                .is_ok()
        }
        None => {
            return tx
                .send(WriterMsg::Reply(err_reply(
                    frame,
                    "bad_request",
                    "submit needs a 'request'",
                )))
                .is_ok()
        }
    };
    let id = frame.get("id").cloned().unwrap_or(Json::Null);
    match v2_admit(inner, conn, next_ticket, version, request) {
        Ok((server_ticket, ticket, trace)) => {
            let ack = ok_reply(
                frame,
                Json::obj(vec![
                    ("ticket", Json::u64(server_ticket)),
                    ("trace", encode_version(trace)),
                ]),
            );
            if tx.send(WriterMsg::Reply(ack)).is_err() {
                // Writer gone mid-submit: unwind the admission books —
                // the ticket drops here and the runtime's answer is
                // discarded.
                inner.counters.tickets_open.fetch_sub(1, Ordering::SeqCst);
                inner.counters.inflight.fetch_sub(1, Ordering::SeqCst);
                conn.inflight.fetch_sub(1, Ordering::SeqCst);
                return false;
            }
            v2_register_push(conn, tx, server_ticket, ticket, id, None, trace);
            true
        }
        Err(e) => tx
            .send(WriterMsg::Reply(solve_err_reply(frame, &e)))
            .is_ok(),
    }
}

/// Admits one v2 `submit_batch`: one frame in, one ack out (per-entry
/// ticket or typed error), every admitted entry completed by push.
fn v2_submit_batch(
    inner: &ServerInner,
    conn: &Arc<V2Conn>,
    tx: &mpsc::Sender<WriterMsg>,
    next_ticket: &mut u64,
    frame: &Json,
) -> bool {
    if inner.draining.load(Ordering::SeqCst) {
        return tx
            .send(WriterMsg::Reply(solve_err_reply(
                frame,
                &SolveError::Cancelled,
            )))
            .is_ok();
    }
    let version = match frame.get("version").map(wire::decode_version) {
        Some(Ok(version)) => version,
        Some(Err(msg)) => {
            return tx
                .send(WriterMsg::Reply(err_reply(frame, "bad_request", &msg)))
                .is_ok()
        }
        None => {
            return tx
                .send(WriterMsg::Reply(err_reply(
                    frame,
                    "bad_request",
                    "submit_batch needs a 'version'",
                )))
                .is_ok()
        }
    };
    let Some(Json::Arr(raw)) = frame.get("requests") else {
        return tx
            .send(WriterMsg::Reply(err_reply(
                frame,
                "bad_request",
                "submit_batch needs a 'requests' array",
            )))
            .is_ok();
    };
    // Decode strictly up front: a malformed entry rejects the whole
    // frame (nothing was admitted yet — no partial batch to unwind).
    let mut requests = Vec::with_capacity(raw.len());
    for (i, r) in raw.iter().enumerate() {
        match WireRequest::decode(r) {
            Ok(request) => requests.push(request),
            Err(msg) => {
                return tx
                    .send(WriterMsg::Reply(err_reply(
                        frame,
                        "bad_request",
                        &format!("requests[{i}]: {msg}"),
                    )))
                    .is_ok()
            }
        }
    }
    let id = frame.get("id").cloned().unwrap_or(Json::Null);
    // Admission in two steps: the connection window gates each request
    // here, then the runtime admits the survivors in one batched call —
    // a single ingress lock and a single batcher wake-up for the whole
    // frame (per-request admission woke the batcher mid-loop, and the
    // tick it started could preempt this thread and delay the ack by a
    // scheduler timeslice). Rejections stay per-request and typed.
    let inflight = conn.inflight.load(Ordering::SeqCst);
    let mut gated: Vec<Result<u64, SolveError>> = Vec::with_capacity(requests.len());
    let mut batch = Vec::with_capacity(requests.len());
    for mut request in requests {
        if inflight + batch.len() as i64 >= conn.window as i64 {
            inner
                .counters
                .rejected_overloaded
                .fetch_add(1, Ordering::Relaxed);
            gated.push(Err(SolveError::Overloaded {
                capacity: conn.window,
            }));
        } else {
            let trace = match request.trace {
                Some(trace) => trace,
                None => {
                    let trace = phom_obs::TraceId::mint().get();
                    request = request.with_trace(trace);
                    trace
                }
            };
            batch.push(request.to_request());
            gated.push(Ok(trace));
        }
    }
    let outcomes = inner.runtime.enqueue_batch_to(version, batch);
    // The same count-then-recheck as `v2_admit`, for the whole batch: a
    // drain that began meanwhile refuses the frame.
    let admitted_n = outcomes.iter().filter(|o| o.is_ok()).count() as i64;
    inner
        .counters
        .tickets_open
        .fetch_add(admitted_n, Ordering::SeqCst);
    if inner.draining.load(Ordering::SeqCst) {
        for ticket in outcomes.iter().flatten() {
            ticket.cancel();
        }
        inner
            .counters
            .tickets_open
            .fetch_sub(admitted_n, Ordering::SeqCst);
        return tx
            .send(WriterMsg::Reply(solve_err_reply(
                frame,
                &SolveError::Cancelled,
            )))
            .is_ok();
    }
    let mut outcomes = outcomes.into_iter();
    let mut acks = Vec::with_capacity(gated.len());
    let mut admitted = Vec::new();
    let mut depths = Vec::with_capacity(gated.len());
    for (i, gate) in gated.into_iter().enumerate() {
        let outcome = match gate {
            Err(e) => Err(e),
            Ok(trace) => match outcomes.next().expect("one outcome per gated request") {
                Ok(ticket) => Ok((ticket, trace)),
                Err(e) => {
                    if matches!(e, SolveError::Overloaded { .. }) {
                        inner
                            .counters
                            .rejected_overloaded
                            .fetch_add(1, Ordering::Relaxed);
                    }
                    Err(e)
                }
            },
        };
        match outcome {
            Ok((ticket, trace)) => {
                let depth = conn.inflight.fetch_add(1, Ordering::SeqCst) + 1;
                inner.counters.inflight.fetch_add(1, Ordering::SeqCst);
                inner.counters.submitted.fetch_add(1, Ordering::Relaxed);
                depths.push(depth.max(0) as u64);
                let server_ticket = *next_ticket;
                *next_ticket += 1;
                acks.push(Json::obj(vec![
                    ("ticket", Json::u64(server_ticket)),
                    ("trace", encode_version(trace)),
                ]));
                admitted.push((i as u64, server_ticket, ticket, trace));
            }
            Err(e) => acks.push(Json::obj(vec![("err", encode_error(&e))])),
        }
    }
    {
        let mut histogram = inner
            .inflight_depth
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        for depth in depths {
            histogram.record(depth);
        }
    }
    let ack = ok_reply(frame, Json::obj(vec![("tickets", Json::Arr(acks))]));
    if tx.send(WriterMsg::Reply(ack)).is_err() {
        let n = admitted.len() as i64;
        inner.counters.tickets_open.fetch_sub(n, Ordering::SeqCst);
        inner.counters.inflight.fetch_sub(n, Ordering::SeqCst);
        conn.inflight.fetch_sub(n, Ordering::SeqCst);
        return false;
    }
    for (index, server_ticket, ticket, trace) in admitted {
        v2_register_push(
            conn,
            tx,
            server_ticket,
            ticket,
            id.clone(),
            Some(index),
            trace,
        );
    }
    true
}

/// The shared admission step: window check, then the runtime's own
/// admission control — both reject with the same typed `overloaded`,
/// so backpressure is always explicit on the wire.
fn v2_admit(
    inner: &ServerInner,
    conn: &V2Conn,
    next_ticket: &mut u64,
    version: u64,
    mut request: WireRequest,
) -> Result<(u64, Ticket, u64), SolveError> {
    if conn.inflight.load(Ordering::SeqCst) >= conn.window as i64 {
        inner
            .counters
            .rejected_overloaded
            .fetch_add(1, Ordering::Relaxed);
        return Err(SolveError::Overloaded {
            capacity: conn.window,
        });
    }
    let trace = match request.trace {
        Some(trace) => trace,
        None => {
            let trace = phom_obs::TraceId::mint().get();
            request = request.with_trace(trace);
            trace
        }
    };
    match inner.runtime.enqueue_to(version, request.to_request()) {
        Ok(ticket) => {
            // Count the ticket open, then look at `draining` again (both
            // SeqCst), as the v1 submit does: a submit that slipped past
            // the caller's check is either waited for by the drain or
            // refused here — never acked on a connection about to close.
            inner.counters.tickets_open.fetch_add(1, Ordering::SeqCst);
            if inner.draining.load(Ordering::SeqCst) {
                ticket.cancel();
                inner.counters.tickets_open.fetch_sub(1, Ordering::SeqCst);
                return Err(SolveError::Cancelled);
            }
            let depth = conn.inflight.fetch_add(1, Ordering::SeqCst) + 1;
            inner.counters.inflight.fetch_add(1, Ordering::SeqCst);
            inner.counters.submitted.fetch_add(1, Ordering::Relaxed);
            inner
                .inflight_depth
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .record(depth.max(0) as u64);
            let server_ticket = *next_ticket;
            *next_ticket += 1;
            Ok((server_ticket, ticket, trace))
        }
        Err(e) => {
            if matches!(e, SolveError::Overloaded { .. }) {
                inner
                    .counters
                    .rejected_overloaded
                    .fetch_add(1, Ordering::Relaxed);
            }
            Err(e)
        }
    }
}

/// Stores the ticket and registers the completion callback. Must run
/// *after* the ack is queued: the callback may fire immediately (the
/// ticket can already be resolved), and its push has to trail the ack
/// in the writer's queue.
fn v2_register_push(
    conn: &Arc<V2Conn>,
    tx: &mpsc::Sender<WriterMsg>,
    server_ticket: u64,
    ticket: Ticket,
    id: Json,
    index: Option<u64>,
    trace: u64,
) {
    let mut tickets = lock_tickets(conn);
    tickets.insert(server_ticket, ticket);
    let cb_tx = tx.clone();
    tickets
        .get(&server_ticket)
        .expect("just inserted")
        .on_complete(move |result| {
            // Runs on whatever thread resolved the ticket (worker,
            // canceller, or runtime teardown): hand off and return —
            // never block the resolver.
            let _ = cb_tx.send(WriterMsg::Push(PushMsg {
                id,
                index,
                ticket: server_ticket,
                trace,
                resolved_at: Instant::now(),
                result: result.clone(),
            }));
        });
}

/// Encodes one completion as a push-frame entry.
fn encode_push_entry(push: &PushMsg) -> Json {
    let mut pairs = vec![("id".to_string(), push.id.clone())];
    if let Some(index) = push.index {
        pairs.push(("index".to_string(), Json::u64(index)));
    }
    pairs.push(("ticket".to_string(), Json::u64(push.ticket)));
    pairs.push(("result".to_string(), encode_result(&push.result)));
    Json::Obj(pairs)
}

/// The per-connection writer: drains the queue, writes acks in order,
/// and coalesces every completion that is ready at the same moment into
/// one `results` frame (the streaming pair of `submit_batch`). Window
/// slots free, tickets close and the push counters advance here, just
/// before the completion goes on the wire.
fn v2_writer(
    inner: &Arc<ServerInner>,
    conn: &Arc<V2Conn>,
    mut stream: TcpStream,
    rx: &mpsc::Receiver<WriterMsg>,
) {
    loop {
        let first = match rx.recv() {
            Ok(msg) => msg,
            Err(_) => return, // every sender gone
        };
        // Greedily drain whatever else is already queued. Replies are
        // written first (an ack always precedes its own push in the
        // queue — the reader queues the ack before registering the
        // callback — so this never reorders ack after push for one id),
        // then all pushes coalesce into a single frame.
        let mut replies = Vec::new();
        let mut pushes = Vec::new();
        let mut close = false;
        let mut msg = Some(first);
        loop {
            match msg {
                Some(WriterMsg::Reply(json)) => replies.push(json),
                Some(WriterMsg::Push(push)) => pushes.push(push),
                Some(WriterMsg::Close) => {
                    close = true;
                    break;
                }
                None => break,
            }
            msg = rx.try_recv().ok();
        }
        for reply in replies {
            if write_reply(inner, &mut stream, reply).is_err() {
                return;
            }
        }
        if !pushes.is_empty() {
            let coalesced = pushes.len() as u64;
            let frame = if pushes.len() == 1 {
                let mut pairs = vec![("push".to_string(), Json::str("result"))];
                if let Json::Obj(entry) = encode_push_entry(&pushes[0]) {
                    pairs.extend(entry);
                }
                Json::Obj(pairs)
            } else {
                Json::obj(vec![
                    ("push", Json::str("results")),
                    (
                        "results",
                        Json::Arr(pushes.iter().map(encode_push_entry).collect()),
                    ),
                ])
            };
            // Settle the books *before* the write: a client that reads
            // the push may at once send its next submit, which must
            // find its window slot free, or read the stats, which must
            // already count the push and not its ticket. The pushed
            // tickets are dropped either way (a pushed ticket is never
            // retained; on a failed write the connection goes down with
            // them). `pushes_writing` covers the write itself, so a
            // draining shutdown never closes the connection under it.
            let n = pushes.len() as i64;
            inner.counters.pushes_writing.fetch_add(1, Ordering::SeqCst);
            conn.inflight.fetch_sub(n, Ordering::SeqCst);
            inner.counters.inflight.fetch_sub(n, Ordering::SeqCst);
            {
                let mut tickets = lock_tickets(conn);
                for push in &pushes {
                    tickets.remove(&push.ticket);
                }
            }
            inner.counters.tickets_open.fetch_sub(n, Ordering::SeqCst);
            inner
                .counters
                .delivered
                .fetch_add(coalesced, Ordering::Relaxed);
            inner
                .counters
                .pushed
                .fetch_add(coalesced, Ordering::Relaxed);
            let written = write_reply(inner, &mut stream, frame).is_ok();
            inner.counters.pushes_writing.fetch_sub(1, Ordering::SeqCst);
            if !written {
                inner
                    .counters
                    .delivered
                    .fetch_sub(coalesced, Ordering::Relaxed);
                inner
                    .counters
                    .pushed
                    .fetch_sub(coalesced, Ordering::Relaxed);
                return;
            }
            for push in &pushes {
                inner.spans.push(Span {
                    trace: push.trace,
                    stage: Stage::Pushed,
                    lane: SpanLane::None,
                    nanos: push.resolved_at.elapsed().as_nanos() as u64,
                    detail: coalesced,
                });
            }
        }
        if close {
            return;
        }
    }
}

fn write_reply(inner: &ServerInner, stream: &mut TcpStream, reply: Json) -> io::Result<()> {
    inner.counters.frames_out.fetch_add(1, Ordering::Relaxed);
    write_frame(stream, &reply)
}

/// Wraps a payload in the success envelope, echoing the request's `id`.
fn ok_reply(request: &Json, payload: Json) -> Json {
    let mut pairs = Vec::with_capacity(2);
    if let Some(id) = request.get("id") {
        pairs.push(("id".to_string(), id.clone()));
    }
    pairs.push(("ok".to_string(), payload));
    Json::Obj(pairs)
}

/// Wraps an error in the failure envelope, echoing the request's `id`.
fn err_reply(request: &Json, code: &str, msg: &str) -> Json {
    let mut pairs = Vec::with_capacity(2);
    if let Some(id) = request.get("id") {
        pairs.push(("id".to_string(), id.clone()));
    }
    pairs.push((
        "err".to_string(),
        Json::obj(vec![("code", Json::str(code)), ("msg", Json::str(msg))]),
    ));
    Json::Obj(pairs)
}

/// An error envelope carrying a full typed [`SolveError`] (structured
/// fields included — `overloaded` keeps its `capacity`).
fn solve_err_reply(request: &Json, e: &SolveError) -> Json {
    let mut pairs = Vec::with_capacity(2);
    if let Some(id) = request.get("id") {
        pairs.push(("id".to_string(), id.clone()));
    }
    pairs.push(("err".to_string(), encode_error(e)));
    Json::Obj(pairs)
}

/// Serves an op that touches no per-connection state (`ping`,
/// `register`, `versions`, `stats`, `metrics`, `trace`, …) — shared by
/// the v1 dispatcher and v2 connections. The callers route every
/// stateful op (`submit`, `submit_batch`, `poll`, `cancel`, `hello`)
/// before getting here, so the dummy ticket registry is never touched.
fn stateless_op(inner: &ServerInner, frame: &Json, _op: &str) -> Json {
    let mut no_tickets = HashMap::new();
    let mut next_ticket = 1;
    handle_op(inner, &mut no_tickets, &mut next_ticket, frame)
}

fn handle_op(
    inner: &ServerInner,
    tickets: &mut HashMap<u64, Ticket>,
    next_ticket: &mut u64,
    frame: &Json,
) -> Json {
    let Some(op) = frame.get("op").and_then(Json::as_str) else {
        return err_reply(frame, "bad_request", "missing 'op'");
    };
    match op {
        "ping" => ok_reply(frame, Json::obj(vec![("pong", Json::Bool(true))])),
        "register" => {
            if inner.draining.load(Ordering::SeqCst) {
                return solve_err_reply(frame, &SolveError::Cancelled);
            }
            // Idempotent-cheap fast path: when the client sends the
            // fingerprint it expects as a `version` hint and we already
            // hold that version, ack straight from the registry without
            // decoding the graph at all. A client hinting a fingerprint
            // its instance doesn't hash to only reaches the wrong
            // engine's *content* — fingerprints are content hashes, so
            // the lie harms no one else; the slow path below still
            // cross-checks when it does decode.
            let hint = match frame.get("version").map(wire::decode_version) {
                Some(Ok(hint)) => Some(hint),
                Some(Err(msg)) => return err_reply(frame, "bad_request", &msg),
                None => None,
            };
            if let Some(hint) = hint {
                if inner.runtime.is_registered(hint) {
                    return ok_reply(
                        frame,
                        Json::obj(vec![
                            ("version", encode_version(hint)),
                            ("registered", Json::str("cached")),
                        ]),
                    );
                }
            }
            let Some(instance) = frame.get("instance") else {
                return err_reply(frame, "bad_request", "register needs an 'instance'");
            };
            match wire::decode_instance(instance) {
                Ok(instance) => {
                    let fingerprint = phom_core::instance_fingerprint(&instance);
                    if hint.is_some_and(|h| h != fingerprint) {
                        return err_reply(
                            frame,
                            "bad_request",
                            &format!(
                                "register hint {:#018x} does not match the \
                                 instance fingerprint {fingerprint:#018x}",
                                hint.expect("checked")
                            ),
                        );
                    }
                    let cached = inner.runtime.is_registered(fingerprint);
                    let version = inner.runtime.register(instance);
                    ok_reply(
                        frame,
                        Json::obj(vec![
                            ("version", encode_version(version)),
                            (
                                "registered",
                                Json::str(if cached { "cached" } else { "new" }),
                            ),
                        ]),
                    )
                }
                Err(msg) => err_reply(frame, "bad_request", &msg),
            }
        }
        "deregister" => {
            let version = match frame.get("version").map(wire::decode_version) {
                Some(Ok(version)) => version,
                Some(Err(msg)) => return err_reply(frame, "bad_request", &msg),
                None => return err_reply(frame, "bad_request", "deregister needs a 'version'"),
            };
            let removed = inner.runtime.deregister(version);
            ok_reply(
                frame,
                Json::obj(vec![("deregistered", Json::Bool(removed))]),
            )
        }
        "versions" => {
            let mut versions = inner.runtime.versions();
            versions.sort_unstable();
            ok_reply(
                frame,
                Json::obj(vec![(
                    "versions",
                    Json::Arr(versions.into_iter().map(encode_version).collect()),
                )]),
            )
        }
        "submit" => {
            // A draining server admits nothing new — the same typed
            // `cancelled` a shut-down runtime answers.
            if inner.draining.load(Ordering::SeqCst) {
                return solve_err_reply(frame, &SolveError::Cancelled);
            }
            let version = match frame.get("version").map(wire::decode_version) {
                Some(Ok(version)) => version,
                Some(Err(msg)) => return err_reply(frame, "bad_request", &msg),
                None => return err_reply(frame, "bad_request", "submit needs a 'version'"),
            };
            let mut request = match frame.get("request").map(WireRequest::decode) {
                Some(Ok(request)) => request,
                Some(Err(msg)) => return err_reply(frame, "bad_request", &msg),
                None => return err_reply(frame, "bad_request", "submit needs a 'request'"),
            };
            // The front door mints the trace id when the client didn't
            // carry one (a router upstream would have), and echoes it in
            // the ack either way — every request is traceable end to
            // end, and old clients simply ignore the extra ack field.
            let trace = match request.trace {
                Some(trace) => trace,
                None => {
                    let trace = phom_obs::TraceId::mint().get();
                    request = request.with_trace(trace);
                    trace
                }
            };
            // The reader thread feeds the *bounded* ingress queue: a
            // full queue answers immediately with the typed
            // `overloaded` frame — backpressure reaches the wire
            // instead of piling up in server memory.
            match inner.runtime.enqueue_to(version, request.to_request()) {
                Ok(ticket) => {
                    // Count the ticket open, then look at `draining`
                    // again (both SeqCst): `shutdown` raises `draining`
                    // and then waits for `open_tickets` to reach 0, so a
                    // submit that slipped past the check above is either
                    // waited for or refused here — never acked on a
                    // connection about to close under it.
                    inner.counters.tickets_open.fetch_add(1, Ordering::SeqCst);
                    if inner.draining.load(Ordering::SeqCst) {
                        ticket.cancel();
                        inner.counters.tickets_open.fetch_sub(1, Ordering::SeqCst);
                        return solve_err_reply(frame, &SolveError::Cancelled);
                    }
                    let id = *next_ticket;
                    *next_ticket += 1;
                    tickets.insert(id, ticket);
                    inner.counters.submitted.fetch_add(1, Ordering::Relaxed);
                    ok_reply(
                        frame,
                        Json::obj(vec![
                            ("ticket", Json::u64(id)),
                            ("trace", encode_version(trace)),
                        ]),
                    )
                }
                Err(e) => {
                    if matches!(e, SolveError::Overloaded { .. }) {
                        inner
                            .counters
                            .rejected_overloaded
                            .fetch_add(1, Ordering::Relaxed);
                    }
                    solve_err_reply(frame, &e)
                }
            }
        }
        "poll" => {
            let Some(id) = frame.get("ticket").and_then(Json::as_u64) else {
                return err_reply(frame, "bad_request", "poll needs a 'ticket'");
            };
            let Some(ticket) = tickets.get(&id) else {
                return err_reply(frame, "unknown_ticket", "no such ticket on this connection");
            };
            let wait = frame
                .get("wait_ms")
                .and_then(Json::as_u64)
                .map_or(Duration::ZERO, Duration::from_millis)
                .min(inner.poll_wait_cap);
            let result = if wait.is_zero() {
                ticket.try_get()
            } else {
                ticket.wait_timeout(wait)
            };
            match result {
                None => ok_reply(frame, Json::obj(vec![("done", Json::Bool(false))])),
                Some(result) => {
                    // `handle_conn` closes the ticket's `open_tickets`
                    // count after writing this reply.
                    tickets.remove(&id);
                    inner.counters.delivered.fetch_add(1, Ordering::Relaxed);
                    ok_reply(
                        frame,
                        Json::obj(vec![
                            ("done", Json::Bool(true)),
                            ("result", encode_result(&result)),
                        ]),
                    )
                }
            }
        }
        "cancel" => {
            let Some(id) = frame.get("ticket").and_then(Json::as_u64) else {
                return err_reply(frame, "bad_request", "cancel needs a 'ticket'");
            };
            match tickets.get(&id) {
                Some(ticket) => {
                    let cancelled = ticket.cancel();
                    ok_reply(frame, Json::obj(vec![("cancelled", Json::Bool(cancelled))]))
                }
                None => err_reply(frame, "unknown_ticket", "no such ticket on this connection"),
            }
        }
        "stats" => {
            let mut stats = wire::encode_metrics(RUNTIME_METRICS, &inner.runtime.stats());
            if let Json::Obj(pairs) = &mut stats {
                let net = wire::encode_metrics(NET_METRICS, &inner.net_snapshot());
                pairs.push(("net".to_string(), net));
            }
            ok_reply(frame, Json::obj(vec![("stats", stats)]))
        }
        "metrics" => {
            let mut prom = PromText::new();
            prom.rows(RUNTIME_METRICS, &inner.runtime.stats());
            prom.rows(NET_METRICS, &inner.net_snapshot());
            ok_reply(
                frame,
                Json::obj(vec![("metrics", Json::str(prom.finish()))]),
            )
        }
        "trace" => {
            // The runtime's spans plus the front end's own (the v2
            // `pushed` stage), merged per trace.
            let requests = match frame.get("trace") {
                Some(t) => match wire::decode_version(t) {
                    Ok(id) => {
                        let mut spans = inner.runtime.spans_for(id);
                        spans.extend(inner.spans.spans_for(id));
                        phom_obs::group_by_trace(&spans)
                    }
                    Err(msg) => return err_reply(frame, "bad_request", &msg),
                },
                None => match frame.get("slowest").and_then(Json::as_u64) {
                    Some(n) => {
                        let mut spans = inner.runtime.spans();
                        spans.extend(inner.spans.snapshot());
                        phom_obs::slowest_requests(&spans, n.min(256) as usize)
                    }
                    None => {
                        return err_reply(
                            frame,
                            "bad_request",
                            "trace needs a 'trace' id or a 'slowest' count",
                        )
                    }
                },
            };
            ok_reply(
                frame,
                Json::obj(vec![(
                    "requests",
                    Json::Arr(requests.iter().map(wire::encode_trace_request).collect()),
                )]),
            )
        }
        other => err_reply(frame, "bad_request", &format!("unknown op '{other}'")),
    }
}
