//! One client connection into a serving layer, behind the layer's public
//! entry points: `Runtime::enqueue_to` / `enqueue_batch_to` +
//! `Ticket::wait` in process, `MuxClient` (protocol v2) and `Client`
//! (v1) over loopback to a `Server` or a `Router`.

use crate::gen::{member_specs, Inst, MEMBERS};
use phom_fleet::owner_of;
use phom_net::json::Json;
use phom_net::wire;
use phom_net::{Client, MuxClient, MuxTicket, NetError, WireRequest};
use phom_serve::{Runtime, Ticket};
use std::sync::Arc;

/// A request that got no answer.
#[derive(Clone, Debug)]
pub enum Failure {
    /// Refused by admission control (`overloaded`).
    Overloaded,
    /// A fleet member could not be reached (`member_unavailable`).
    Unavailable,
    /// Anything else: a transport failure or another typed error.
    Other(String),
}

impl Failure {
    fn from_net(e: &NetError) -> Failure {
        if e.is_overloaded() {
            Failure::Overloaded
        } else if e.is_unavailable() {
            Failure::Unavailable
        } else {
            Failure::Other(e.to_string())
        }
    }

    /// The failure an error-status answer object stands for, if any.
    pub fn from_answer(answer: &Json) -> Option<Failure> {
        if answer.get("status").and_then(Json::as_str) != Some("error") {
            return None;
        }
        Some(match answer.get("code").and_then(Json::as_str) {
            Some("overloaded") => Failure::Overloaded,
            Some("member_unavailable") => Failure::Unavailable,
            _ => Failure::Other(answer.encode()),
        })
    }
}

pub enum Conn {
    /// In-process runtime.
    Serve(Arc<Runtime>),
    /// Protocol v2 to a server.
    Mux(MuxClient),
    /// Protocol v1 to a server or (`router`) a fleet router.
    V1 { client: Client, router: bool },
    /// Protocol v1 straight to each instance's rendezvous owner, one
    /// connection per member: the fleet layer's baseline.
    Direct(Vec<Client>),
}

/// An admitted request whose answer has not been read yet.
pub enum Pending {
    Serve(Ticket),
    Mux(MuxTicket),
    V1(u64),
    Direct(usize, u64),
}

impl Pending {
    /// Blocks for the answer without the connection (in-process and v2
    /// tickets only; v1 answers are polled over the connection).
    pub fn wait_detached(self) -> Result<Json, Failure> {
        match self {
            Pending::Serve(ticket) => Ok(wire::encode_result(&ticket.wait())),
            Pending::Mux(ticket) => ticket.wait().map_err(|e| Failure::from_net(&e)),
            Pending::V1(_) | Pending::Direct(..) => {
                unreachable!("v1 answers need their connection")
            }
        }
    }
}

fn owner(version: u64) -> usize {
    owner_of(version, &member_specs())
}

impl Conn {
    pub fn submit(&mut self, inst: &Inst, req: &WireRequest) -> Result<Pending, Failure> {
        match self {
            Conn::Serve(rt) => match rt.enqueue_to(inst.version, req.to_request()) {
                Ok(ticket) => Ok(Pending::Serve(ticket)),
                Err(phom_core::SolveError::Overloaded { .. }) => Err(Failure::Overloaded),
                Err(e) => Err(Failure::Other(e.to_string())),
            },
            Conn::Mux(mux) => mux
                .submit(inst.version, req)
                .map(Pending::Mux)
                .map_err(|e| Failure::from_net(&e)),
            Conn::V1 { client, .. } => client
                .submit(inst.version, req)
                .map(Pending::V1)
                .map_err(|e| Failure::from_net(&e)),
            Conn::Direct(clients) => {
                let m = owner(inst.version);
                clients[m]
                    .submit(inst.version, req)
                    .map(|t| Pending::Direct(m, t))
                    .map_err(|e| Failure::from_net(&e))
            }
        }
    }

    /// Submits a burst. The in-process runtime admits each run of
    /// same-version requests with one `enqueue_batch_to`; the wire
    /// connections submit one frame per request.
    pub fn submit_burst(
        &mut self,
        burst: &[(&Inst, &WireRequest)],
    ) -> Vec<Result<Pending, Failure>> {
        let Conn::Serve(rt) = self else {
            return burst
                .iter()
                .map(|(inst, req)| self.submit(inst, req))
                .collect();
        };
        let mut out = Vec::with_capacity(burst.len());
        let mut start = 0;
        while start < burst.len() {
            let version = burst[start].0.version;
            let end = start
                + burst[start..]
                    .iter()
                    .take_while(|(inst, _)| inst.version == version)
                    .count();
            let requests = burst[start..end]
                .iter()
                .map(|(_, r)| r.to_request())
                .collect();
            out.extend(
                rt.enqueue_batch_to(version, requests)
                    .into_iter()
                    .map(|r| match r {
                        Ok(ticket) => Ok(Pending::Serve(ticket)),
                        Err(phom_core::SolveError::Overloaded { .. }) => Err(Failure::Overloaded),
                        Err(e) => Err(Failure::Other(e.to_string())),
                    }),
            );
            start = end;
        }
        out
    }

    pub fn wait(&mut self, pending: Pending) -> Result<Json, Failure> {
        match (self, pending) {
            (Conn::V1 { client, .. }, Pending::V1(ticket)) => {
                client.wait(ticket).map_err(|e| Failure::from_net(&e))
            }
            (Conn::Direct(clients), Pending::Direct(m, ticket)) => {
                clients[m].wait(ticket).map_err(|e| Failure::from_net(&e))
            }
            (_, pending) => pending.wait_detached(),
        }
    }

    pub fn register(&mut self, inst: &Inst) -> Result<(), String> {
        let version = match self {
            Conn::Serve(rt) => Ok(rt.register(inst.graph.clone())),
            Conn::Mux(mux) => mux.register(&inst.graph),
            Conn::V1 { client, .. } => client.register(&inst.graph),
            Conn::Direct(clients) => clients[owner(inst.version)].register(&inst.graph),
        }
        .map_err(|e| e.to_string())?;
        if version != inst.version {
            return Err(format!(
                "register answered version {version:#x}, expected {:#x}",
                inst.version
            ));
        }
        Ok(())
    }

    /// Deregisters a version. The router has no `deregister` op, so a
    /// router connection skips it.
    pub fn deregister(&mut self, version: u64) -> Result<(), String> {
        match self {
            Conn::Serve(rt) => {
                rt.deregister(version);
                Ok(())
            }
            Conn::Mux(mux) => mux.deregister(version).map(drop).map_err(|e| e.to_string()),
            Conn::V1 {
                client,
                router: false,
            } => client
                .deregister(version)
                .map(drop)
                .map_err(|e| e.to_string()),
            Conn::V1 { router: true, .. } | Conn::Direct(_) => Ok(()),
        }
    }

    /// The router's `move` op (a no-op on every other layer). Returns
    /// whether routing flipped.
    pub fn move_to(&mut self, version: u64, to: usize) -> Result<bool, String> {
        let Conn::V1 {
            client,
            router: true,
        } = self
        else {
            return Ok(false);
        };
        let reply = client
            .call_raw(Json::obj(vec![
                ("op", Json::str("move")),
                ("version", wire::encode_version(version)),
                ("to", Json::str(MEMBERS[to])),
            ]))
            .map_err(|e| e.to_string())?;
        match reply.get("ok") {
            Some(ok) => Ok(ok.get("moved").and_then(Json::as_bool) == Some(true)),
            None => Err(format!("move refused: {reply}")),
        }
    }
}
