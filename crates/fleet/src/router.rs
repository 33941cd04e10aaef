//! The front-door router: one listen address speaking the standard
//! wire protocol, fanning out to N member `phom serve` processes over
//! one shared protocol-v2 [`MuxClient`] link per member.
//!
//! ## Structure
//!
//! An accept thread plus one handler thread per client connection —
//! the same shape as [`phom_net::Server`]. Every router→member exchange
//! (submit, the lazy `register`, the drain `deregister`, the `stats`
//! and `trace` fan-outs) rides the member's single pipelined link,
//! lazily connected with the [`RouterBuilder::connect_retry`] budget
//! and replaced on first use after it dies. Each client connection
//! owns only its ticket table; a ticket holds the link it was submitted
//! over, which is exactly what makes handoff safe — tickets created
//! before a routing flip keep resolving through the old member, and a
//! ticket on a link that died reports that death itself.
//!
//! Routing state (placements, which members hold which fingerprints,
//! cached instances for handoff warm-up, in-flight counts, the drain
//! queue) is shared across connections under one mutex; member I/O is
//! never performed while holding it.
//!
//! ## Failure semantics
//!
//! A `submit` ack from the router means *forwarded*: the router answers
//! once the frame is written to the member's link, without waiting for
//! the member's admission ack, so a burst of submits reaches the member
//! pipelined. What the router can tell on its own stays synchronous at
//! `submit`: `cancelled` while it drains, `bad_request`/`invalid_query`
//! for a bad or unknown version, `overloaded` (with the link window as
//! `capacity`) when the link is full, and `member_unavailable` when the
//! member cannot be reached. The member's own admission outcome — its
//! refusal (`bad_request`, `overloaded` with its `capacity`, a draining
//! member's `cancelled`) or a link that died before the ack
//! (`member_unavailable`) — is the ticket's one terminal `poll` answer.
//!
//! The router never silently retries a `submit` — once a submit frame
//! reached a member, an I/O failure answers the typed
//! `member_unavailable` error and exactly-once stays with the client.
//! (The one deliberate exception: a submit whose ack *refused* it with
//! `invalid_query` because the member lost its registry — e.g. a
//! restart — is definitively not admitted, so at `poll` the router
//! re-registers and forwards the held request once more, to the same
//! member.) A lost member link loses the tickets routed over it: each
//! answers `member_unavailable` exactly once, then is gone. Typed
//! member errors are relayed with their code, so backpressure reaches
//! the edge.
//!
//! ## Observability
//!
//! The router is the fleet's trace front door: a `submit` whose request
//! lacks a `"trace"` field gets a freshly minted
//! [`TraceId`](phom_obs::TraceId) injected before forwarding, so the
//! member records its per-stage spans under the same id, and the
//! router's own `routed` span (the forward — lazy registration plus the
//! frame write, not the member's admission; member index in `detail`)
//! lands in a local span ring. The `trace` op fans out to
//! every member and merges member spans with the router's routing
//! spans. The `stats` rollup and the `metrics` op merge every
//! [`RUNTIME_METRICS`] row of the members' `stats` replies by its kind
//! (counters and levels summed, high-water marks maxed, histograms
//! merged bucket-wise); merged histograms keep the members' family
//! names, so dashboards work at either level.

use crate::members::{owner_of, validate_members, MemberSpec};
use phom_net::json::Json;
use phom_net::wire::{self, read_frame, write_frame};
use phom_net::{MuxClient, MuxTicket, NetError};
use phom_obs::Kind::{self, Counter, Level};
use phom_obs::{Metric, PromText, Span, SpanLane, SpanRing, Stage, TraceId, Value};
use phom_serve::{RuntimeStats, RUNTIME_METRICS};
use std::collections::{BTreeSet, HashMap};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Configuration for a [`Router`].
#[derive(Clone, Debug)]
pub struct RouterBuilder {
    max_frame: usize,
    poll_wait_cap: Duration,
    connect_attempts: u32,
    connect_backoff: Duration,
}

impl Default for RouterBuilder {
    fn default() -> Self {
        RouterBuilder::new()
    }
}

impl RouterBuilder {
    /// Defaults: 8 MiB frame bound, 2 s poll-wait cap, 3 connection
    /// attempts with 50 ms backoff per member (re)connect.
    pub fn new() -> Self {
        RouterBuilder {
            max_frame: wire::MAX_FRAME,
            poll_wait_cap: Duration::from_secs(2),
            connect_attempts: 3,
            connect_backoff: Duration::from_millis(50),
        }
    }

    /// Bound on a single wire frame, client side and member side.
    pub fn max_frame(mut self, bytes: usize) -> Self {
        self.max_frame = bytes.max(64);
        self
    }

    /// Cap on the `wait_ms` a `poll` op may block for.
    pub fn poll_wait_cap(mut self, cap: Duration) -> Self {
        self.poll_wait_cap = cap;
        self
    }

    /// Member link (re)connection budget: up to `attempts` tries with
    /// linearly growing `backoff` before a member call answers
    /// `member_unavailable`.
    pub fn connect_retry(mut self, attempts: u32, backoff: Duration) -> Self {
        self.connect_attempts = attempts.max(1);
        self.connect_backoff = backoff;
        self
    }

    /// Binds the listener and spawns the accept + maintenance threads.
    pub fn bind(self, addr: impl ToSocketAddrs, members: Vec<MemberSpec>) -> io::Result<Router> {
        validate_members(&members).map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e))?;
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let links = members.iter().map(|_| Mutex::new(None)).collect();
        let inner = Arc::new(RouterInner {
            members,
            links,
            draining: AtomicBool::new(false),
            max_frame: self.max_frame,
            poll_wait_cap: self.poll_wait_cap,
            connect_attempts: self.connect_attempts,
            connect_backoff: self.connect_backoff,
            state: Mutex::new(RouteState::default()),
            maint_wake: Condvar::new(),
            conns: Mutex::new(Vec::new()),
            counters: RouterCounters::default(),
            spans: SpanRing::new(phom_obs::DEFAULT_RING_CAPACITY),
        });
        let accept = {
            let inner = Arc::clone(&inner);
            std::thread::Builder::new()
                .name("phom-fleet-accept".into())
                .spawn(move || accept_loop(&inner, listener))
                .expect("spawn accept thread")
        };
        let maintenance = {
            let inner = Arc::clone(&inner);
            std::thread::Builder::new()
                .name("phom-fleet-maint".into())
                .spawn(move || maintenance_loop(&inner))
                .expect("spawn maintenance thread")
        };
        Ok(Router {
            inner,
            accept: Some(accept),
            maintenance: Some(maintenance),
            local_addr,
        })
    }
}

/// Routing state shared by every connection. Member I/O is never done
/// under this lock.
#[derive(Default)]
struct RouteState {
    /// Current owner of each registered fingerprint.
    placements: HashMap<u64, usize>,
    /// Which members are known to hold which fingerprints (lazily
    /// populated by broadcast-on-demand registration).
    holders: HashMap<u64, BTreeSet<usize>>,
    /// Canonically re-encoded instances, kept for handoff warm-up and
    /// lazy registration.
    instances: HashMap<u64, Json>,
    /// Outstanding tickets per (member, fingerprint) — the drain
    /// condition for deregistering after a handoff.
    inflight: HashMap<(usize, u64), u64>,
    /// Handoffs waiting for the old member's in-flight tickets to
    /// resolve, with a retry count for the deregister call.
    drains: Vec<DrainJob>,
}

struct DrainJob {
    version: u64,
    member: usize,
    tries: u32,
}

#[derive(Default)]
struct RouterCounters {
    connections: AtomicU64,
    frames_in: AtomicU64,
    frames_out: AtomicU64,
    submitted: AtomicU64,
    delivered: AtomicU64,
    member_unavailable: AtomicU64,
    handoffs: AtomicU64,
    lazy_registers: AtomicU64,
    drained_deregisters: AtomicU64,
    tickets_open: AtomicI64,
}

impl RouterCounters {
    fn snapshot(&self) -> RouterStats {
        let submitted = self.submitted.load(Ordering::Relaxed);
        RouterStats {
            connections: self.connections.load(Ordering::Relaxed),
            frames_in: self.frames_in.load(Ordering::Relaxed),
            frames_out: self.frames_out.load(Ordering::Relaxed),
            submitted,
            mux_submits: submitted,
            delivered: self.delivered.load(Ordering::Relaxed),
            member_unavailable: self.member_unavailable.load(Ordering::Relaxed),
            handoffs: self.handoffs.load(Ordering::Relaxed),
            lazy_registers: self.lazy_registers.load(Ordering::Relaxed),
            drained_deregisters: self.drained_deregisters.load(Ordering::Relaxed),
            open_tickets: self.tickets_open.load(Ordering::SeqCst),
        }
    }
}

struct RouterInner {
    members: Vec<MemberSpec>,
    draining: AtomicBool,
    max_frame: usize,
    poll_wait_cap: Duration,
    connect_attempts: u32,
    connect_backoff: Duration,
    state: Mutex<RouteState>,
    /// One shared protocol-v2 link per member, carrying every exchange
    /// of every client connection (and of the maintenance thread) with
    /// that member; `None` until first use.
    links: Vec<Mutex<Option<Arc<MuxClient>>>>,
    /// Wakes the maintenance thread when a drain may have completed.
    maint_wake: Condvar,
    conns: Mutex<Vec<(TcpStream, Option<JoinHandle<()>>)>>,
    counters: RouterCounters,
    /// Lock-free overwrite-oldest ring of `routed` spans — one per
    /// forwarded submit, under the request's trace id.
    spans: SpanRing,
}

/// A point-in-time snapshot of the router's own counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct RouterStats {
    /// Client connections accepted over the router's lifetime.
    pub connections: u64,
    /// Frames read off client connections.
    pub frames_in: u64,
    /// Frames written to client connections.
    pub frames_out: u64,
    /// Forwarded submits whose member ack admitted them, counted once
    /// per ticket when it closes (answered at `poll`, or dropped with
    /// its connection). A submit refused at either hop never counts.
    pub submitted: u64,
    /// Submits that rode a multiplexed (protocol-v2) member link. Every
    /// member link is multiplexed, so this always equals `submitted`.
    pub mux_submits: u64,
    /// Answers delivered to clients via `poll`.
    pub delivered: u64,
    /// Ops answered with the typed `member_unavailable` frame.
    pub member_unavailable: u64,
    /// Completed `move` ops (routing flips).
    pub handoffs: u64,
    /// Broadcast-on-demand registrations forwarded to members.
    pub lazy_registers: u64,
    /// Post-handoff deregistrations completed on drained members.
    pub drained_deregisters: u64,
    /// Tickets currently held router-side awaiting delivery (0 after a
    /// clean drain — the no-leak gauge).
    pub open_tickets: i64,
}

/// The router's own metrics, one row each (`docs/metrics.md` lists
/// them): the `stats` reply's `router` object and the `phom_router_*`
/// families of the `metrics` text.
#[rustfmt::skip]
pub const ROUTER_METRICS: &[Metric<RouterStats>] = &[
    Metric::new("connections", "phom_router_connections_total", &[], Counter, "client connections accepted", |r| r.connections.into()),
    Metric::new("frames_in", "phom_router_frames_in_total", &[], Counter, "frames read off client connections", |r| r.frames_in.into()),
    Metric::new("frames_out", "phom_router_frames_out_total", &[], Counter, "frames written to client connections", |r| r.frames_out.into()),
    Metric::new("submitted", "phom_router_submitted_total", &[], Counter, "forwarded submits the member admitted", |r| r.submitted.into()),
    Metric::new("mux_submits", "phom_router_mux_submits_total", &[], Counter, "submits that rode a multiplexed (protocol-v2) member link; equals submitted", |r| r.mux_submits.into()),
    Metric::new("delivered", "phom_router_delivered_total", &[], Counter, "answers delivered to clients", |r| r.delivered.into()),
    Metric::new("member_unavailable", "phom_router_member_unavailable_total", &[], Counter, "ops answered member_unavailable", |r| r.member_unavailable.into()),
    Metric::new("handoffs", "phom_router_handoffs_total", &[], Counter, "completed move ops (routing flips)", |r| r.handoffs.into()),
    Metric::new("lazy_registers", "phom_router_lazy_registers_total", &[], Counter, "broadcast-on-demand registrations", |r| r.lazy_registers.into()),
    Metric::new("drained_deregisters", "phom_router_drained_deregisters_total", &[], Counter, "post-handoff deregistrations", |r| r.drained_deregisters.into()),
    Metric::new("open_tickets", "phom_router_open_tickets", &[], Level, "tickets held router-side awaiting delivery", |r| r.open_tickets.into()),
];

/// The fleet's membership over `(configured, available)` member
/// counts: the first rows of the `stats` reply's `rollup` object and of
/// the `phom_fleet_*` families. The rest of the rollup is every
/// [`RUNTIME_METRICS`] row merged across the members that answered.
#[rustfmt::skip]
pub const FLEET_METRICS: &[Metric<(u64, u64)>] = &[
    Metric::new("members", "phom_fleet_members", &[], Level, "configured fleet members", |&(configured, _)| configured.into()),
    Metric::new("members_available", "phom_fleet_members_available", &[], Level, "members that answered the last stats fan-out", |&(_, available)| available.into()),
];

/// The fleet front door. The `router` module docs describe its
/// structure and failure semantics; [`phom_net::wire`] describes the
/// ops it serves (the member protocol plus `move` and `fleet`).
pub struct Router {
    inner: Arc<RouterInner>,
    accept: Option<JoinHandle<()>>,
    maintenance: Option<JoinHandle<()>>,
    local_addr: SocketAddr,
}

impl Router {
    /// Starts a configuration.
    pub fn builder() -> RouterBuilder {
        RouterBuilder::new()
    }

    /// Binds with default configuration.
    pub fn bind(addr: impl ToSocketAddrs, members: Vec<MemberSpec>) -> io::Result<Router> {
        RouterBuilder::new().bind(addr, members)
    }

    /// The bound address (useful after binding port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The static membership.
    pub fn members(&self) -> &[MemberSpec] {
        &self.inner.members
    }

    /// The router's own counters.
    pub fn stats(&self) -> RouterStats {
        self.inner.counters.snapshot()
    }

    /// Tickets currently held on behalf of connected clients.
    pub fn open_tickets(&self) -> i64 {
        self.inner.counters.tickets_open.load(Ordering::SeqCst)
    }

    /// Draining shutdown: stop accepting, answer new `submit`s with
    /// `cancelled`, give clients up to `drain` to poll their
    /// outstanding answers, then close every connection and join every
    /// thread. Returns the final [`RouterStats`].
    pub fn shutdown(mut self, drain: Duration) -> RouterStats {
        self.shutdown_impl(drain);
        self.stats()
    }

    fn shutdown_impl(&mut self, drain: Duration) {
        self.inner.draining.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(self.local_addr);
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        let deadline = Instant::now() + drain;
        while self.open_tickets() > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        let conns = std::mem::take(&mut *lock(&self.inner.conns));
        for (stream, _) in &conns {
            let _ = stream.shutdown(std::net::Shutdown::Both);
        }
        for (_, handle) in conns {
            if let Some(handle) = handle {
                let _ = handle.join();
            }
        }
        self.inner.maint_wake.notify_all();
        if let Some(maintenance) = self.maintenance.take() {
            let _ = maintenance.join();
        }
    }
}

impl Drop for Router {
    /// Dropping without [`shutdown`](Router::shutdown) still stops
    /// every thread (no drain window).
    fn drop(&mut self) {
        if self.accept.is_some() || self.maintenance.is_some() {
            self.shutdown_impl(Duration::ZERO);
        }
    }
}

fn accept_loop(inner: &Arc<RouterInner>, listener: TcpListener) {
    for stream in listener.incoming() {
        if inner.draining.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else {
            std::thread::sleep(Duration::from_millis(10));
            continue;
        };
        let _ = stream.set_nodelay(true);
        inner.counters.connections.fetch_add(1, Ordering::Relaxed);
        let Ok(clone) = stream.try_clone() else {
            continue;
        };
        let inner2 = Arc::clone(inner);
        let Ok(handle) = std::thread::Builder::new()
            .name("phom-fleet-conn".into())
            .spawn(move || Conn::new(&inner2).run(stream))
        else {
            // No thread to serve it: the stream closes with the dropped
            // closure, and the listener keeps accepting.
            continue;
        };
        let mut conns = lock(&inner.conns);
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

/// Background handoff completion: once a drained (member, version)
/// pair has no in-flight tickets left, deregister the version on the
/// old member. Deregistration is an at-most-`MAX_TRIES` best effort —
/// a dead member's registry died with it, so giving up is safe.
fn maintenance_loop(inner: &Arc<RouterInner>) {
    const MAX_TRIES: u32 = 5;
    loop {
        let ready: Vec<DrainJob> = {
            let mut state = lock(&inner.state);
            if inner.draining.load(Ordering::SeqCst) {
                return;
            }
            let (ready, waiting) = std::mem::take(&mut state.drains)
                .into_iter()
                .partition(|job| {
                    state
                        .inflight
                        .get(&(job.member, job.version))
                        .copied()
                        .unwrap_or(0)
                        == 0
                });
            state.drains = waiting;
            if ready.is_empty() {
                let (guard, _) = inner
                    .maint_wake
                    .wait_timeout(state, Duration::from_millis(25))
                    .unwrap_or_else(PoisonError::into_inner);
                drop(guard);
                continue;
            }
            ready
        };
        for mut job in ready {
            let done = inner
                .member_call(job.member, |link| link.deregister(job.version))
                .is_ok();
            let mut state = lock(&inner.state);
            if done {
                inner
                    .counters
                    .drained_deregisters
                    .fetch_add(1, Ordering::Relaxed);
                if let Some(holders) = state.holders.get_mut(&job.version) {
                    holders.remove(&job.member);
                }
            } else {
                job.tries += 1;
                if job.tries < MAX_TRIES {
                    state.drains.push(job);
                }
            }
        }
    }
}

impl RouterInner {
    /// The live shared link to member `idx`, (re)connecting with the
    /// configured retry budget when there is none or the cached one
    /// died. Connecting under the member's lock keeps it to one link
    /// per member; a replaced link stays alive for the tickets that
    /// still hold it, which report its death themselves.
    fn mux_link(&self, idx: usize) -> Result<Arc<MuxClient>, NetError> {
        let mut link = lock(&self.links[idx]);
        if let Some(client) = link.as_ref().filter(|c| !c.is_closed()) {
            return Ok(Arc::clone(client));
        }
        let client = Arc::new(MuxClient::connect_with_retry(
            self.members[idx].addr.as_str(),
            self.connect_attempts,
            self.connect_backoff,
        )?);
        *link = Some(Arc::clone(&client));
        Ok(client)
    }

    /// One exchange with member `idx` over its shared link. A
    /// [`NetError::Server`] is the member's typed answer; any other
    /// error means the member could not be reached or died mid-call.
    fn member_call<T>(
        &self,
        idx: usize,
        call: impl FnOnce(&MuxClient) -> Result<T, NetError>,
    ) -> Result<T, NetError> {
        call(&*self.mux_link(idx)?)
    }
}

// ---------------------------------------------------------------------
// Reply envelopes (the router speaks the same envelope as the server)
// ---------------------------------------------------------------------

fn ok_reply(request: &Json, payload: Json) -> Json {
    let mut pairs = Vec::with_capacity(2);
    if let Some(id) = request.get("id") {
        pairs.push(("id".to_string(), id.clone()));
    }
    pairs.push(("ok".to_string(), payload));
    Json::Obj(pairs)
}

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

/// An error envelope rebuilt from a member's typed answer
/// ([`NetError::Server`]): `overloaded` keeps its `capacity`.
fn typed_err_reply(request: &Json, code: &str, msg: &str, capacity: Option<usize>) -> Json {
    let mut err = vec![
        ("code".to_string(), Json::str(code)),
        ("msg".to_string(), Json::str(msg)),
    ];
    if let Some(capacity) = capacity {
        err.push(("capacity".to_string(), Json::u64(capacity as u64)));
    }
    let mut pairs = Vec::with_capacity(2);
    if let Some(id) = request.get("id") {
        pairs.push(("id".to_string(), id.clone()));
    }
    pairs.push(("err".to_string(), Json::Obj(err)));
    Json::Obj(pairs)
}

// ---------------------------------------------------------------------
// Per-connection handler
// ---------------------------------------------------------------------

/// A ticket forwarded to a member. It holds the shared link it was
/// submitted over, so its pushed completion still arrives after the
/// link is replaced — and if that link died, the ticket reports the
/// death itself, exactly once.
struct RoutedTicket {
    member: usize,
    version: u64,
    link: Arc<MuxClient>,
    ticket: MuxTicket,
    /// The forwarded request, held for the one `invalid_query` retry
    /// until it is spent (or ruled out by a `cancel`).
    retry: Option<Json>,
}

impl RoutedTicket {
    /// True when the member's ack refused the submit with
    /// `invalid_query` and the one retry is still unspent.
    fn wants_retry(&self) -> bool {
        self.retry.is_some()
            && matches!(
                self.ticket.try_ack(),
                Some(Err(NetError::Server { code, .. })) if code == "invalid_query"
            )
    }
}

struct Conn<'a> {
    inner: &'a RouterInner,
    tickets: HashMap<u64, RoutedTicket>,
    next_ticket: u64,
}

impl<'a> Conn<'a> {
    fn new(inner: &'a RouterInner) -> Conn<'a> {
        Conn {
            inner,
            tickets: HashMap::new(),
            next_ticket: 1,
        }
    }

    fn run(mut self, mut stream: TcpStream) {
        loop {
            let frame = match read_frame(&mut stream, self.inner.max_frame) {
                Ok(Some(frame)) => frame,
                Ok(None) => break,
                Err(e) if e.kind() == io::ErrorKind::InvalidData => {
                    let reply = err_reply(&Json::Null, "bad_frame", &e.to_string());
                    if self.write_reply(&mut stream, reply).is_err() {
                        break;
                    }
                    continue;
                }
                Err(_) => break,
            };
            self.inner
                .counters
                .frames_in
                .fetch_add(1, Ordering::Relaxed);
            let reply = self.handle_op(&frame);
            if self.write_reply(&mut stream, reply).is_err() {
                break;
            }
        }
        // Tickets die with the connection.
        for (_, t) in std::mem::take(&mut self.tickets) {
            self.close_ticket(t);
        }
    }

    fn write_reply(&self, stream: &mut TcpStream, reply: Json) -> io::Result<()> {
        self.inner
            .counters
            .frames_out
            .fetch_add(1, Ordering::Relaxed);
        write_frame(stream, &reply)
    }

    /// The reply for a failed exchange with member `idx`: the member's
    /// typed error relayed with its code, or `member_unavailable` when
    /// the member could not be reached or died mid-call.
    fn member_err_reply(&self, frame: &Json, idx: usize, e: NetError) -> Json {
        let why = match e {
            NetError::Server {
                code,
                msg,
                capacity,
            } => return typed_err_reply(frame, &code, &msg, capacity),
            other => other.to_string(),
        };
        self.inner
            .counters
            .member_unavailable
            .fetch_add(1, Ordering::Relaxed);
        let member = &self.inner.members[idx];
        let mut pairs = Vec::with_capacity(2);
        if let Some(id) = frame.get("id") {
            pairs.push(("id".to_string(), id.clone()));
        }
        pairs.push((
            "err".to_string(),
            Json::obj(vec![
                ("code", Json::str("member_unavailable")),
                ("member", Json::str(&member.name)),
                (
                    "msg",
                    Json::str(format!(
                        "member '{}' at {} unavailable: {why}",
                        member.name, member.addr
                    )),
                ),
            ]),
        ));
        Json::Obj(pairs)
    }

    fn dec_inflight(&self, member: usize, version: u64) {
        let mut state = lock(&self.inner.state);
        if let Some(n) = state.inflight.get_mut(&(member, version)) {
            *n -= 1;
            if *n == 0 {
                state.inflight.remove(&(member, version));
                self.inner.maint_wake.notify_all();
            }
        }
    }

    /// Removes a ticket in a terminal state, releasing its bookkeeping.
    fn finish_ticket(&mut self, id: u64) {
        if let Some(t) = self.tickets.remove(&id) {
            self.close_ticket(t);
        }
    }

    /// Releases a ticket's bookkeeping, once per ticket: it leaves
    /// `open_tickets` and its drain hold, and counts in `submitted` if
    /// its member ack admitted it.
    fn close_ticket(&self, t: RoutedTicket) {
        let c = &self.inner.counters;
        if matches!(t.ticket.try_ack(), Some(Ok(_))) {
            c.submitted.fetch_add(1, Ordering::Relaxed);
        }
        c.tickets_open.fetch_sub(1, Ordering::SeqCst);
        self.dec_inflight(t.member, t.version);
    }

    /// Ensures member `idx` holds `version`, forwarding a hinted
    /// `register` if not (broadcast-on-demand). `Err` carries the
    /// ready-to-send error reply.
    fn ensure_registered(&self, frame: &Json, idx: usize, version: u64) -> Result<(), Json> {
        let instance = {
            let state = lock(&self.inner.state);
            if state
                .holders
                .get(&version)
                .is_some_and(|h| h.contains(&idx))
            {
                return Ok(());
            }
            match state.instances.get(&version) {
                Some(instance) => instance.clone(),
                None => {
                    return Err(err_reply(
                        frame,
                        "invalid_query",
                        &format!("no instance registered for version {version:#018x}"),
                    ))
                }
            }
        };
        self.inner
            .member_call(idx, |link| link.register_json(instance, version))
            .map_err(|e| self.member_err_reply(frame, idx, e))?;
        self.inner
            .counters
            .lazy_registers
            .fetch_add(1, Ordering::Relaxed);
        lock(&self.inner.state)
            .holders
            .entry(version)
            .or_default()
            .insert(idx);
        Ok(())
    }

    // -- op dispatch -----------------------------------------------

    fn handle_op(&mut self, frame: &Json) -> Json {
        let Some(op) = frame.get("op").and_then(Json::as_str) else {
            return err_reply(frame, "bad_request", "missing 'op'");
        };
        match op {
            "ping" => ok_reply(
                frame,
                Json::obj(vec![
                    ("pong", Json::Bool(true)),
                    ("router", Json::Bool(true)),
                ]),
            ),
            "register" => self.op_register(frame),
            "submit" => self.op_submit(frame),
            "poll" => self.op_poll(frame),
            "cancel" => self.op_cancel(frame),
            "move" => self.op_move(frame),
            "stats" => self.op_stats(frame),
            "metrics" => self.op_metrics(frame),
            "trace" => self.op_trace(frame),
            "fleet" => self.op_fleet(frame),
            other => err_reply(frame, "bad_request", &format!("unknown op '{other}'")),
        }
    }

    /// `register`: decode + fingerprint the instance, cache its
    /// canonical encoding, and assign an owner — lazily; no member is
    /// contacted until the first submit needs it.
    fn op_register(&mut self, frame: &Json) -> Json {
        if self.inner.draining.load(Ordering::SeqCst) {
            return err_reply(frame, "cancelled", "router is draining");
        }
        let Some(instance_json) = frame.get("instance") else {
            return err_reply(frame, "bad_request", "register needs an 'instance'");
        };
        let instance = match wire::decode_instance(instance_json) {
            Ok(instance) => instance,
            Err(msg) => return err_reply(frame, "bad_request", &msg),
        };
        let version = phom_core::instance_fingerprint(&instance);
        match frame.get("version").map(wire::decode_version) {
            Some(Ok(hint)) if hint != version => {
                return err_reply(
                    frame,
                    "bad_request",
                    &format!(
                        "register hint {hint:#018x} does not match the \
                         instance fingerprint {version:#018x}"
                    ),
                );
            }
            Some(Err(msg)) => return err_reply(frame, "bad_request", &msg),
            _ => {}
        }
        let mut state = lock(&self.inner.state);
        let cached = state.instances.contains_key(&version);
        if !cached {
            // Canonical re-encoding: what handoff warm-ups will send.
            state
                .instances
                .insert(version, wire::encode_instance(&instance));
        }
        let owner = *state
            .placements
            .entry(version)
            .or_insert_with(|| owner_of(version, &self.inner.members));
        let owner_name = self.inner.members[owner].name.clone();
        drop(state);
        ok_reply(
            frame,
            Json::obj(vec![
                ("version", wire::encode_version(version)),
                (
                    "registered",
                    Json::str(if cached { "cached" } else { "new" }),
                ),
                ("owner", Json::str(&owner_name)),
            ]),
        )
    }

    fn op_submit(&mut self, frame: &Json) -> Json {
        if self.inner.draining.load(Ordering::SeqCst) {
            return err_reply(frame, "cancelled", "router is draining");
        }
        let version = match frame.get("version").map(wire::decode_version) {
            Some(Ok(version)) => version,
            Some(Err(msg)) => return err_reply(frame, "bad_request", &msg),
            None => return err_reply(frame, "bad_request", "submit needs a 'version'"),
        };
        let Some(request) = frame.get("request") else {
            return err_reply(frame, "bad_request", "submit needs a 'request'");
        };
        // Owner lookup and the in-flight increment happen under one
        // lock acquisition: a concurrent `move` flips routing either
        // before (we route to the new member) or after (the drain
        // waits for our ticket) — never in between.
        let owner = {
            let mut state = lock(&self.inner.state);
            let Some(&owner) = state.placements.get(&version) else {
                return err_reply(
                    frame,
                    "invalid_query",
                    &format!("no instance registered for version {version:#018x}"),
                );
            };
            *state.inflight.entry((owner, version)).or_insert(0) += 1;
            owner
        };
        match self.forward_submit(frame, owner, version, request) {
            Ok(reply) => reply,
            Err(reply) => {
                self.dec_inflight(owner, version);
                reply
            }
        }
    }

    /// Forwards one submit to `owner` over its shared link and answers
    /// as soon as the frame is written: the member's admission ack and
    /// its pushed completion both settle later, at `poll`. `Ok` means a
    /// router ticket exists (the in-flight hold stays); `Err` is a ready
    /// error reply (the caller releases the hold).
    fn forward_submit(
        &mut self,
        frame: &Json,
        owner: usize,
        version: u64,
        request: &Json,
    ) -> Result<Json, Json> {
        let started = Instant::now();
        // The router is the trace front door: a request without a trace
        // id gets one minted and injected here, so the member records
        // its stage spans under the same id the client sees in the ack.
        let (request, trace) = match request.get("trace").map(wire::decode_version) {
            Some(Ok(trace)) => (request.clone(), trace),
            Some(Err(msg)) => return Err(err_reply(frame, "bad_request", &msg)),
            None => {
                let trace = TraceId::mint().get();
                let mut request = request.clone();
                if let Json::Obj(pairs) = &mut request {
                    pairs.push(("trace".to_string(), wire::encode_version(trace)));
                }
                (request, trace)
            }
        };
        let (link, ticket) = self.forward(frame, owner, version, request.clone())?;
        let id = self.next_ticket;
        self.next_ticket += 1;
        self.tickets.insert(
            id,
            RoutedTicket {
                member: owner,
                version,
                link,
                ticket,
                retry: Some(request),
            },
        );
        self.inner
            .counters
            .tickets_open
            .fetch_add(1, Ordering::SeqCst);
        self.inner.spans.push(Span {
            trace,
            stage: Stage::Routed,
            lane: SpanLane::None,
            nanos: started.elapsed().as_nanos() as u64,
            detail: owner as u64,
        });
        Ok(ok_reply(
            frame,
            Json::obj(vec![
                ("ticket", Json::u64(id)),
                ("trace", wire::encode_version(trace)),
            ]),
        ))
    }

    /// Writes one submit frame to `owner`'s shared link, registering the
    /// version there first if needed. Never blocks on the member: a full
    /// link window answers the typed `overloaded`, relayed like any
    /// member rejection.
    fn forward(
        &self,
        frame: &Json,
        owner: usize,
        version: u64,
        request: Json,
    ) -> Result<(Arc<MuxClient>, MuxTicket), Json> {
        self.ensure_registered(frame, owner, version)?;
        self.inner
            .mux_link(owner)
            .and_then(|link| {
                let ticket = link.try_submit_json(version, request)?;
                Ok((link, ticket))
            })
            .map_err(|e| self.member_err_reply(frame, owner, e))
    }

    /// The router's only retry. A member that lost its registry (a
    /// restart) refuses with `invalid_query` in its ack — definitively
    /// not admitted — so the version is registered there again and the
    /// held request forwarded once more, to the same member. Any other
    /// failure after the frame reached the wire stays with the client.
    fn retry_forward(&mut self, frame: &Json, id: u64) -> Result<(), Json> {
        let t = self.tickets.get_mut(&id).expect("polled ticket");
        let (member, version) = (t.member, t.version);
        let request = t.retry.take().expect("retry checked");
        lock(&self.inner.state)
            .holders
            .entry(version)
            .or_default()
            .remove(&member);
        let (link, ticket) = self.forward(frame, member, version, request)?;
        let t = self.tickets.get_mut(&id).expect("polled ticket");
        t.link = link;
        t.ticket = ticket;
        Ok(())
    }

    /// `poll` answers locally: the member acks and pushes the completion
    /// onto the ticket — no round trip. The ack settles admission here:
    /// a refusal is the ticket's terminal answer, except that an
    /// `invalid_query` refusal is retried once first.
    fn op_poll(&mut self, frame: &Json) -> Json {
        let Some(id) = frame.get("ticket").and_then(Json::as_u64) else {
            return err_reply(frame, "bad_request", "poll needs a 'ticket'");
        };
        if !self.tickets.contains_key(&id) {
            return err_reply(frame, "unknown_ticket", "no such ticket on this connection");
        }
        let wait = frame
            .get("wait_ms")
            .and_then(Json::as_u64)
            .map_or(Duration::ZERO, Duration::from_millis)
            .min(self.inner.poll_wait_cap);
        let deadline = Instant::now() + wait;
        let reply = loop {
            let t = self.tickets.get(&id).expect("checked above");
            match t
                .ticket
                .wait_deadline(deadline.saturating_duration_since(Instant::now()))
            {
                Ok(None) => return ok_reply(frame, Json::obj(vec![("done", Json::Bool(false))])),
                Ok(Some(result)) => {
                    self.inner
                        .counters
                        .delivered
                        .fetch_add(1, Ordering::Relaxed);
                    break ok_reply(
                        frame,
                        Json::obj(vec![("done", Json::Bool(true)), ("result", result)]),
                    );
                }
                Err(_) if t.wants_retry() => {
                    if let Err(reply) = self.retry_forward(frame, id) {
                        break reply;
                    }
                }
                Err(e) => break self.member_err_reply(frame, t.member, e),
            }
        };
        self.finish_ticket(id);
        reply
    }

    /// `cancel` is not terminal: the pushed completion (the cancelled
    /// result or the answer that beat it) still resolves the ticket
    /// through `poll`.
    fn op_cancel(&mut self, frame: &Json) -> Json {
        let Some(id) = frame.get("ticket").and_then(Json::as_u64) else {
            return err_reply(frame, "bad_request", "cancel needs a 'ticket'");
        };
        let Some(t) = self.tickets.get_mut(&id) else {
            return err_reply(frame, "unknown_ticket", "no such ticket on this connection");
        };
        let member = t.member;
        // The member-side ticket id is in the ack, so cancel waits for
        // it. A member that refused the submit has nothing to cancel:
        // its refusal stays the ticket's `poll` answer, never retried.
        let remote = match t.ticket.ack() {
            Ok((remote, _)) => remote,
            Err(NetError::Server { .. }) => {
                t.retry = None;
                return ok_reply(frame, Json::obj(vec![("cancelled", Json::Bool(false))]));
            }
            Err(e) => {
                let reply = self.member_err_reply(frame, member, e);
                self.finish_ticket(id);
                return reply;
            }
        };
        match t.link.cancel(remote) {
            Ok(cancelled) => ok_reply(frame, Json::obj(vec![("cancelled", Json::Bool(cancelled))])),
            Err(e @ NetError::Server { .. }) => self.member_err_reply(frame, member, e),
            Err(e) => {
                let reply = self.member_err_reply(frame, member, e);
                self.finish_ticket(id);
                reply
            }
        }
    }

    /// `move`: the re-register handoff. Warm the instance on the
    /// target (a hinted register — usually the member's cached fast
    /// path), flip routing atomically, queue the drain-and-deregister
    /// on the old member. On any failure routing is left untouched.
    fn op_move(&mut self, frame: &Json) -> Json {
        let version = match frame.get("version").map(wire::decode_version) {
            Some(Ok(version)) => version,
            Some(Err(msg)) => return err_reply(frame, "bad_request", &msg),
            None => return err_reply(frame, "bad_request", "move needs a 'version'"),
        };
        let Some(to) = frame.get("to").and_then(Json::as_str) else {
            return err_reply(frame, "bad_request", "move needs a 'to' member name");
        };
        let Some(target) = self.inner.members.iter().position(|m| m.name == to) else {
            return err_reply(frame, "bad_request", &format!("no member named '{to}'"));
        };
        {
            let state = lock(&self.inner.state);
            if !state.instances.contains_key(&version) {
                return err_reply(
                    frame,
                    "invalid_query",
                    &format!("no instance registered for version {version:#018x}"),
                );
            }
        }
        // Warm the target first; only a registered target takes over.
        if let Err(reply) = self.ensure_registered(frame, target, version) {
            return reply;
        }
        let (from_idx, drained) = {
            let mut state = lock(&self.inner.state);
            let old = state
                .placements
                .insert(version, target)
                .expect("registered");
            if old != target {
                // A bounce-back cancels the target's pending drain: the
                // copy queued for retirement is the copy now serving.
                state
                    .drains
                    .retain(|job| !(job.version == version && job.member == target));
                state.drains.push(DrainJob {
                    version,
                    member: old,
                    tries: 0,
                });
                self.inner.maint_wake.notify_all();
                self.inner.counters.handoffs.fetch_add(1, Ordering::Relaxed);
            }
            (old, old != target)
        };
        ok_reply(
            frame,
            Json::obj(vec![
                ("version", wire::encode_version(version)),
                ("from", Json::str(&self.inner.members[from_idx].name)),
                ("to", Json::str(&self.inner.members[target].name)),
                ("moved", Json::Bool(drained)),
            ]),
        )
    }

    /// Fans a `stats` op out to every member and merges each answer's
    /// runtime readings by kind ([`wire::merge_metrics`]). A member that
    /// cannot be reached is reported (`ok: false`), never an error for
    /// the whole collection.
    fn collect_member_stats(&self) -> FleetStats {
        let zero = RuntimeStats::default();
        let mut fleet = FleetStats {
            member_entries: Vec::new(),
            available: 0,
            merged: RUNTIME_METRICS
                .iter()
                .map(|row| (row.read)(&zero))
                .collect(),
        };
        for idx in 0..self.inner.members.len() {
            let member = &self.inner.members[idx];
            let (name, addr) = (member.name.clone(), member.addr.clone());
            match self.inner.member_call(idx, MuxClient::stats) {
                Ok(stats) => {
                    fleet.available += 1;
                    wire::merge_metrics(RUNTIME_METRICS, &mut fleet.merged, &stats);
                    fleet.member_entries.push(Json::obj(vec![
                        ("name", Json::str(&name)),
                        ("addr", Json::str(&addr)),
                        ("ok", Json::Bool(true)),
                        ("stats", stats),
                    ]));
                }
                Err(_) => fleet.member_entries.push(Json::obj(vec![
                    ("name", Json::str(&name)),
                    ("addr", Json::str(&addr)),
                    ("ok", Json::Bool(false)),
                ])),
            }
        }
        fleet
    }

    /// `stats`: the router's own counters, per-member snapshots, and the
    /// rollup: membership plus every runtime row merged across members.
    fn op_stats(&self, frame: &Json) -> Json {
        let fleet = self.collect_member_stats();
        let membership = (self.inner.members.len() as u64, fleet.available);
        let rollup = FLEET_METRICS
            .iter()
            .map(|row| (row.key, (row.read)(&membership)))
            .chain(RUNTIME_METRICS.iter().map(|row| row.key).zip(fleet.merged));
        let router = wire::encode_metrics(ROUTER_METRICS, &self.inner.counters.snapshot());
        ok_reply(
            frame,
            Json::obj(vec![(
                "stats",
                Json::obj(vec![
                    ("router", router),
                    ("members", Json::Arr(fleet.member_entries)),
                    ("rollup", wire::encode_readings(rollup)),
                ]),
            )]),
        )
    }

    /// `metrics`: Prometheus text for the fleet — membership and router
    /// counters, then every runtime row merged across members. A merged
    /// scalar is `phom_fleet_<key>`; a merged histogram keeps the
    /// member's family and labels, so dashboards work unchanged at
    /// either level.
    fn op_metrics(&self, frame: &Json) -> Json {
        let fleet = self.collect_member_stats();
        let mut prom = PromText::new();
        prom.rows(
            FLEET_METRICS,
            &(self.inner.members.len() as u64, fleet.available),
        );
        prom.rows(ROUTER_METRICS, &self.inner.counters.snapshot());
        for (row, value) in RUNTIME_METRICS.iter().zip(&fleet.merged) {
            if row.kind == Kind::Histogram {
                let help = fleet_histogram_help(row.help);
                prom.metric(row.name, row.labels, row.kind, &help, value);
                continue;
            }
            let name = format!("phom_fleet_{}", row.key.replace('.', "_"));
            let help = match row.kind {
                Kind::HighWater => "maximum across available members",
                _ => "summed across available members",
            };
            prom.metric(&name, &[], row.kind, help, value);
        }
        ok_reply(
            frame,
            Json::obj(vec![("metrics", Json::str(prom.finish()))]),
        )
    }

    /// `trace`: fan out to every member, merging member stage spans
    /// with the router's own `routed` spans under each trace id. A
    /// member that cannot be reached (or predates the op) contributes
    /// nothing; the router's spans alone still witness the routing hop.
    fn op_trace(&self, frame: &Json) -> Json {
        let filter = match frame.get("trace").map(wire::decode_version) {
            Some(Ok(id)) => Some(id),
            Some(Err(msg)) => return err_reply(frame, "bad_request", &msg),
            None => None,
        };
        let slowest = frame.get("slowest").and_then(Json::as_u64);
        if filter.is_none() && slowest.is_none() {
            return err_reply(
                frame,
                "bad_request",
                "trace needs a 'trace' id or a 'slowest' count",
            );
        }
        let mut spans: Vec<Span> = Vec::new();
        for idx in 0..self.inner.members.len() {
            let requests = self.inner.member_call(idx, |link| match filter {
                Some(id) => link.trace_spans(id),
                None => link.slowest(slowest.expect("checked above")),
            });
            for tr in requests.unwrap_or_default() {
                spans.extend(tr.spans);
            }
        }
        let requests = match filter {
            Some(id) => {
                spans.extend(self.inner.spans.spans_for(id));
                phom_obs::group_by_trace(&spans)
            }
            None => {
                // Routed spans only matter for traces the members still
                // remember — a lone routing hop is not a request.
                let present: std::collections::HashSet<u64> =
                    spans.iter().map(|s| s.trace).collect();
                spans.extend(
                    self.inner
                        .spans
                        .snapshot()
                        .into_iter()
                        .filter(|s| present.contains(&s.trace)),
                );
                phom_obs::slowest_requests(
                    &spans,
                    slowest.expect("checked above").min(256) as usize,
                )
            }
        };
        ok_reply(
            frame,
            Json::obj(vec![(
                "requests",
                Json::Arr(requests.iter().map(wire::encode_trace_request).collect()),
            )]),
        )
    }

    /// `fleet`: the static membership plus current placements — the
    /// admin's view of where every fingerprint lives.
    fn op_fleet(&self, frame: &Json) -> Json {
        let members = self
            .inner
            .members
            .iter()
            .map(|m| {
                Json::obj(vec![
                    ("name", Json::str(&m.name)),
                    ("addr", Json::str(&m.addr)),
                    ("weight", Json::Num(m.weight)),
                ])
            })
            .collect();
        let state = lock(&self.inner.state);
        let mut placements: Vec<(u64, usize)> =
            state.placements.iter().map(|(&v, &m)| (v, m)).collect();
        placements.sort_unstable();
        let draining = state.drains.len() as u64;
        drop(state);
        let drained = self
            .inner
            .counters
            .drained_deregisters
            .load(Ordering::Relaxed);
        let placements = placements
            .into_iter()
            .map(|(version, member)| {
                Json::obj(vec![
                    ("version", wire::encode_version(version)),
                    ("member", Json::str(&self.inner.members[member].name)),
                ])
            })
            .collect();
        ok_reply(
            frame,
            Json::obj(vec![
                ("members", Json::Arr(members)),
                ("placements", Json::Arr(placements)),
                ("draining", Json::u64(draining)),
                ("drained", Json::u64(drained)),
            ]),
        )
    }
}

/// One stats fan-out: the per-member reply entries, how many members
/// answered, and their runtime readings merged by kind, one per
/// [`RUNTIME_METRICS`] row.
struct FleetStats {
    member_entries: Vec<Json>,
    available: u64,
    merged: Vec<Value>,
}

/// A merged histogram's HELP: the member's without its parenthetical,
/// plus where it was merged ("queue wait (admission to flush),
/// nanoseconds" becomes "queue wait, nanoseconds, merged fleet-wide").
fn fleet_histogram_help(help: &str) -> String {
    let short = match (help.find(" ("), help.find(')')) {
        (Some(open), Some(close)) if open < close => {
            format!("{}{}", &help[..open], &help[close + 1..])
        }
        _ => help.to_string(),
    };
    format!("{short}, merged fleet-wide")
}
