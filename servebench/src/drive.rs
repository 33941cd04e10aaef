//! The load generators: one thread per connection sends that
//! connection's [`Stream`] either open loop (on a fixed schedule,
//! latency timed from when each request was due) or closed loop (a
//! fixed number in flight, latency timed from the send), and records
//! every request's outcome plus, when tracing, a span around every
//! public call it makes.

use crate::conn::{Conn, Failure, Pending};
use crate::gen::{Op, Stream};
use std::collections::{HashSet, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// How a workload offers load.
#[derive(Clone, Copy, Debug)]
pub enum Shape {
    /// Open loop: each connection sends at `rate_per_conn` requests/s.
    Open { rate_per_conn: f64 },
    /// Closed loop: each connection keeps `depth` requests in flight,
    /// refilling one at a time, or (`burst`) sends `depth` requests and
    /// reads all their answers before sending more.
    Closed { depth: usize, burst: bool },
}

/// One recorded span: a public call into a layer, or a whole request.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub id: u64,
    /// The enclosing span's id (`0` for a root).
    pub parent: u64,
    /// The request the span belongs to (`0` for admin calls).
    pub req: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// In-memory span recorder of one thread; a no-op when tracing is off.
pub struct Tracer {
    epoch: Option<Instant>,
    prefix: u64,
    next: u64,
    pub spans: Vec<Span>,
}

impl Tracer {
    /// A recorder whose span ids no other recorder of this process
    /// hands out.
    pub fn new(epoch: Option<Instant>) -> Tracer {
        static RECORDERS: AtomicU64 = AtomicU64::new(1);
        Tracer {
            epoch,
            prefix: RECORDERS.fetch_add(1, Ordering::Relaxed) << 40,
            next: 0,
            spans: Vec::new(),
        }
    }

    pub fn id(&mut self) -> u64 {
        self.next += 1;
        self.prefix | self.next
    }

    pub fn record(
        &mut self,
        name: &'static str,
        id: u64,
        parent: u64,
        req: u64,
        start: Instant,
        end: Instant,
    ) {
        if let Some(epoch) = self.epoch {
            let ns = |t: Instant| t.saturating_duration_since(epoch).as_nanos() as u64;
            self.spans.push(Span {
                name,
                id,
                parent,
                req,
                start_ns: ns(start),
                end_ns: ns(end),
            });
        }
    }

    /// Records a call as a fresh span and returns its result.
    pub fn call<T>(
        &mut self,
        name: &'static str,
        parent: u64,
        req: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = Instant::now();
        let out = f();
        let id = self.id();
        self.record(name, id, parent, req, start, Instant::now());
        out
    }
}

/// One request's outcome.
pub struct Rec {
    /// Index into the stream's items.
    pub item: usize,
    /// When its latency clock started: when it was due (open loop) or
    /// sent (closed loop).
    pub at: Instant,
    pub lat_us: f64,
    /// The answer object's canonical encoding, when one arrived
    /// (interned: repeated answers share one allocation).
    pub answer: Option<Arc<str>>,
    pub failure: Option<Failure>,
}

/// One admin call (`register`, `deregister`, `move`).
pub struct Admin {
    pub kind: &'static str,
    pub us: f64,
    pub error: Option<String>,
}

/// Everything one connection recorded.
pub struct ConnRun {
    pub stream: Stream,
    pub recs: Vec<Rec>,
    /// Open loop: how late each send was against its schedule, µs.
    pub lags_us: Vec<f64>,
    pub admin: Vec<Admin>,
    pub spans: Vec<Span>,
    /// The last answer's arrival.
    pub finished: Instant,
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

fn rec(
    item: usize,
    at: Instant,
    done: Instant,
    result: Result<phom_net::Json, Failure>,
    texts: &mut HashSet<Arc<str>>,
) -> Rec {
    let lat_us = us(done - at);
    match result {
        Ok(answer) => {
            let text = answer.encode();
            let interned = match texts.get(text.as_str()) {
                Some(t) => Arc::clone(t),
                None => {
                    let t: Arc<str> = text.into();
                    texts.insert(Arc::clone(&t));
                    t
                }
            };
            Rec {
                item,
                at,
                lat_us,
                failure: Failure::from_answer(&answer),
                answer: Some(interned),
            }
        }
        Err(failure) => Rec {
            item,
            at,
            lat_us,
            answer: None,
            failure: Some(failure),
        },
    }
}

/// Runs an admin op on `conn`, timed (and traced as its own span).
fn admin(conn: &mut Conn, stream: &Stream, op: Op, tracer: &mut Tracer) -> Admin {
    let start = Instant::now();
    let (kind, result) = match op {
        Op::Register(i) => ("register", conn.register(&stream.insts[i])),
        Op::Deregister(i) => ("deregister", conn.deregister(stream.insts[i].version)),
        Op::Move { inst, to } => (
            "move",
            conn.move_to(stream.insts[inst].version, to).map(drop),
        ),
        Op::Submit(_) => unreachable!("submits are not admin ops"),
    };
    let id = tracer.id();
    tracer.record(kind, id, 0, 0, start, Instant::now());
    Admin {
        kind,
        us: us(start.elapsed()),
        error: result.err(),
    }
}

/// Drives every connection with its stream for `window` from `start`,
/// then reads every outstanding answer. `layer` names the request
/// spans; `epoch` turns tracing on.
pub fn run(
    conns: Vec<Conn>,
    streams: Vec<Stream>,
    shape: Shape,
    start: Instant,
    window: Duration,
    layer: &'static str,
    epoch: Option<Instant>,
) -> (Vec<Conn>, Vec<ConnRun>) {
    let end = start + window;
    let n = conns.len();
    std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .into_iter()
            .zip(streams)
            .enumerate()
            .map(|(c, (conn, stream))| {
                let tracer = Tracer::new(epoch);
                s.spawn(move || match shape {
                    Shape::Open { rate_per_conn } => {
                        // Connections interleave their schedules evenly.
                        let interval = Duration::from_secs_f64(1.0 / rate_per_conn);
                        let offset = interval.mul_f64(c as f64 / n as f64);
                        open_loop(
                            conn,
                            stream,
                            start + offset,
                            interval,
                            end,
                            layer,
                            tracer,
                            epoch,
                        )
                    }
                    Shape::Closed { depth, burst } => {
                        closed_loop(conn, stream, depth, burst, end, layer, tracer)
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load generator thread panicked"))
            .unzip()
    })
}

#[allow(clippy::too_many_arguments)]
fn open_loop(
    mut conn: Conn,
    mut stream: Stream,
    first_due: Instant,
    interval: Duration,
    end: Instant,
    layer: &'static str,
    mut tracer: Tracer,
    epoch: Option<Instant>,
) -> (Conn, ConnRun) {
    let (tx, rx) = mpsc::channel::<(usize, Instant, u64, Result<Pending, Failure>)>();
    // Answers are read on a collector thread so a slow answer never
    // delays the schedule.
    let collector = std::thread::spawn(move || {
        let mut tracer = Tracer::new(epoch);
        let mut recs = Vec::new();
        let mut texts = HashSet::new();
        let mut finished = Instant::now();
        for (item, due, req, pending) in rx {
            let waited = Instant::now();
            let result = pending.and_then(Pending::wait_detached);
            finished = Instant::now();
            let id = tracer.id();
            tracer.record("wait", id, req, req, waited, finished);
            tracer.record(layer, req, 0, req, due, finished);
            recs.push(rec(item, due, finished, result, &mut texts));
        }
        (recs, tracer.spans, finished)
    });
    let mut lags_us = Vec::new();
    let mut admins = Vec::new();
    let mut k: u32 = 0;
    loop {
        let due = first_due + interval * k;
        if due >= end {
            break;
        }
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        let sent = Instant::now();
        match stream.next() {
            Op::Submit(item) => {
                k += 1;
                lags_us.push(us(sent - due));
                let req = tracer.id();
                let it = &stream.items[item];
                let pending = tracer.call("submit", req, req, || {
                    conn.submit(&stream.insts[it.inst], &it.req)
                });
                tx.send((item, due, req, pending))
                    .expect("collector thread alive");
            }
            op => admins.push(admin(&mut conn, &stream, op, &mut tracer)),
        }
    }
    drop(tx);
    let (recs, spans, finished) = collector.join().expect("collector thread panicked");
    tracer.spans.extend(spans);
    (
        conn,
        ConnRun {
            stream,
            recs,
            lags_us,
            admin: admins,
            spans: tracer.spans,
            finished,
        },
    )
}

fn closed_loop(
    mut conn: Conn,
    mut stream: Stream,
    depth: usize,
    burst: bool,
    end: Instant,
    layer: &'static str,
    mut tracer: Tracer,
) -> (Conn, ConnRun) {
    let mut inflight: VecDeque<(usize, Instant, u64, Result<Pending, Failure>)> = VecDeque::new();
    let mut recs = Vec::new();
    let mut texts = HashSet::new();
    let mut admins = Vec::new();
    let mut finished = Instant::now();
    loop {
        let open = Instant::now() < end;
        if burst && inflight.is_empty() && open {
            // Collect a burst (admin ops run inline as they come), then
            // submit it in one go.
            let mut items = Vec::with_capacity(depth);
            while items.len() < depth {
                match stream.next() {
                    Op::Submit(item) => items.push(item),
                    op => admins.push(admin(&mut conn, &stream, op, &mut tracer)),
                }
            }
            let burst: Vec<_> = items
                .iter()
                .map(|&i| (&stream.insts[stream.items[i].inst], &stream.items[i].req))
                .collect();
            let sent = Instant::now();
            let pendings = tracer.call("submit_burst", 0, 0, || conn.submit_burst(&burst));
            for (item, pending) in items.into_iter().zip(pendings) {
                inflight.push_back((item, sent, tracer.id(), pending));
            }
        }
        while !burst && open && inflight.len() < depth {
            match stream.next() {
                Op::Submit(item) => {
                    let sent = Instant::now();
                    let req = tracer.id();
                    let it = &stream.items[item];
                    let pending = tracer.call("submit", req, req, || {
                        conn.submit(&stream.insts[it.inst], &it.req)
                    });
                    inflight.push_back((item, sent, req, pending));
                }
                op => admins.push(admin(&mut conn, &stream, op, &mut tracer)),
            }
        }
        let Some((item, sent, req, pending)) = inflight.pop_front() else {
            break;
        };
        let waited = Instant::now();
        let result = pending.and_then(|p| conn.wait(p));
        finished = Instant::now();
        let id = tracer.id();
        tracer.record("wait", id, req, req, waited, finished);
        tracer.record(layer, req, 0, req, sent, finished);
        recs.push(rec(item, sent, finished, result, &mut texts));
    }
    (
        conn,
        ConnRun {
            stream,
            recs,
            lags_us: Vec::new(),
            admin: admins,
            spans: tracer.spans,
            finished,
        },
    )
}
