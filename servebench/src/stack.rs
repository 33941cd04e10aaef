//! The serving stacks a run drives, one per entry layer, with their
//! set-up and the checks their shutdown makes.

use crate::conn::Conn;
use crate::gen::{Stream, Workload, MEMBERS};
use phom_fleet::{MemberSpec, Router};
use phom_net::{Client, MuxClient, Server};
use phom_serve::Runtime;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How long shutdown may wait for clients to collect answers.
const DRAIN: Duration = Duration::from_secs(5);

/// Which layer a stack's connections enter.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Entry {
    /// `Runtime` in process.
    Serve,
    /// v2 `MuxClient` to a `Server`.
    V2,
    /// v1 `Client` to a `Server`.
    V1,
    /// v1 `Client` to a `Router` over three one-worker members.
    Router,
    /// v1 `Client`s straight to the same three members.
    Direct,
}

impl Entry {
    /// The span name of a request through this entry.
    pub fn name(self) -> &'static str {
        match self {
            Entry::Serve => "serve",
            Entry::V2 => "net.v2",
            Entry::V1 => "net.v1",
            Entry::Router => "fleet.router",
            Entry::Direct => "fleet.direct",
        }
    }
}

pub struct Stack {
    pub runtime: Option<Arc<Runtime>>,
    pub server: Option<Server>,
    members: Vec<Server>,
    pub router: Option<Router>,
}

fn runtime_for(workload: Workload) -> Arc<Runtime> {
    Arc::new(
        Runtime::builder()
            .cache_capacity(workload.cache_capacity())
            .build(),
    )
}

fn bind(runtime: Arc<Runtime>) -> Result<Server, String> {
    Server::bind("127.0.0.1:0", runtime).map_err(|e| format!("bind: {e}"))
}

impl Stack {
    pub fn build(workload: Workload, entry: Entry) -> Result<(Stack, Vec<Conn>), String> {
        let mut stack = Stack {
            runtime: None,
            server: None,
            members: Vec::new(),
            router: None,
        };
        let conns: Vec<Conn> = match entry {
            Entry::Serve => {
                let runtime = runtime_for(workload);
                stack.runtime = Some(Arc::clone(&runtime));
                (0..2).map(|_| Conn::Serve(Arc::clone(&runtime))).collect()
            }
            Entry::V2 | Entry::V1 => {
                let server = bind(runtime_for(workload))?;
                let addr = server.local_addr();
                stack.server = Some(server);
                (0..2)
                    .map(|_| match entry {
                        Entry::V2 => MuxClient::connect(addr)
                            .map(Conn::Mux)
                            .map_err(|e| format!("connect v2: {e}")),
                        _ => Client::connect(addr)
                            .map(|client| Conn::V1 {
                                client,
                                router: false,
                            })
                            .map_err(|e| format!("connect v1: {e}")),
                    })
                    .collect::<Result<_, _>>()?
            }
            Entry::Router | Entry::Direct => {
                // Members run one worker each, as a fleet of single-core
                // `phom serve` processes would, and flush every tick at
                // once: with the default 2 ms batching patience the
                // members' queues, not the router hop this workload
                // exists to measure, would set the latency.
                for _ in MEMBERS {
                    let runtime = Arc::new(
                        Runtime::builder()
                            .workers(1)
                            .max_wait(Duration::ZERO)
                            .cache_capacity(workload.cache_capacity())
                            .build(),
                    );
                    stack.members.push(bind(runtime)?);
                }
                let addrs: Vec<_> = stack.members.iter().map(Server::local_addr).collect();
                if entry == Entry::Router {
                    let specs = MEMBERS
                        .iter()
                        .zip(&addrs)
                        .map(|(name, addr)| MemberSpec {
                            name: (*name).into(),
                            addr: addr.to_string(),
                            weight: 1.0,
                        })
                        .collect();
                    let router = Router::bind("127.0.0.1:0", specs)
                        .map_err(|e| format!("bind router: {e}"))?;
                    let addr = router.local_addr();
                    stack.router = Some(router);
                    (0..2)
                        .map(|_| {
                            Client::connect(addr)
                                .map(|client| Conn::V1 {
                                    client,
                                    router: true,
                                })
                                .map_err(|e| format!("connect router: {e}"))
                        })
                        .collect::<Result<_, _>>()?
                } else {
                    (0..2)
                        .map(|_| {
                            addrs
                                .iter()
                                .map(Client::connect)
                                .collect::<Result<Vec<_>, _>>()
                                .map(Conn::Direct)
                                .map_err(|e| format!("connect member: {e}"))
                        })
                        .collect::<Result<_, _>>()?
                }
            }
        };
        Ok((stack, conns))
    }

    /// Requests admitted so far by the stack's front door.
    pub fn admitted(&self) -> u64 {
        if let Some(router) = &self.router {
            router.stats().submitted
        } else if let Some(server) = &self.server {
            server.net_stats().submitted
        } else if let Some(runtime) = &self.runtime {
            runtime.stats().admitted
        } else {
            self.members.iter().map(|m| m.net_stats().submitted).sum()
        }
    }

    /// Drains and stops every component; fails if any ticket was left
    /// open or a runtime's books do not balance.
    pub fn shutdown(self) -> Result<(), String> {
        let mut problems = Vec::new();
        if let Some(router) = self.router {
            let open = router.shutdown(DRAIN).open_tickets;
            if open != 0 {
                problems.push(format!("router: {open} tickets open after shutdown"));
            }
        }
        let mut runtimes: Vec<Arc<Runtime>> = self.runtime.into_iter().collect();
        for server in self.server.into_iter().chain(self.members) {
            runtimes.push(Arc::clone(server.runtime()));
            let open = server.shutdown(DRAIN).open_tickets;
            if open != 0 {
                problems.push(format!("server: {open} tickets open after shutdown"));
            }
        }
        for runtime in runtimes {
            runtime.drain();
            let s = runtime.stats();
            if s.admitted != s.completed + s.cancelled + s.shed_expired {
                problems.push(format!(
                    "runtime books: {} admitted, {} completed, {} cancelled, {} shed",
                    s.admitted, s.completed, s.cancelled, s.shed_expired
                ));
            }
        }
        if problems.is_empty() {
            Ok(())
        } else {
            Err(problems.join("; "))
        }
    }
}

/// Registers each stream's initial instances and (warm and fleet)
/// answers every warm-up item once. Returns the register call times, µs.
pub fn prepare(conns: &mut [Conn], streams: &[Stream]) -> Result<Vec<f64>, String> {
    let mut register_us = Vec::new();
    for (conn, stream) in conns.iter_mut().zip(streams) {
        for inst in &stream.insts[..stream.initial_insts] {
            let t = Instant::now();
            conn.register(inst)?;
            register_us.push(t.elapsed().as_secs_f64() * 1e6);
        }
        for item in &stream.items[..stream.warm_items] {
            let pending = conn
                .submit(&stream.insts[item.inst], &item.req)
                .map_err(|f| format!("warm-up submit: {f:?}"))?;
            conn.wait(pending)
                .map_err(|f| format!("warm-up answer: {f:?}"))?;
        }
    }
    Ok(register_us)
}
