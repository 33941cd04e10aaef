//! Seeded workload generation: every instance, query, precision, budget
//! and admin cadence of a run derives from the workload seed and the
//! connection index, so one seed always yields the same per-connection
//! request streams.

use phom_core::{OnHard, Precision};
use phom_fleet::{owner_of, MemberSpec};
use phom_graph::generate::{self, ProbProfile};
use phom_graph::{Graph, GraphBuilder, Label, ProbGraph};
use phom_net::wire::{self, WireBudget};
use phom_net::WireRequest;
use phom_num::Rational;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::hash_map::DefaultHasher;
use std::collections::{HashSet, VecDeque};
use std::hash::{Hash, Hasher};

/// The three workloads. See `NOTES.md` for why each exists.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    WarmPipelined,
    ColdMixed,
    FleetChurn,
}

/// Fleet member names; `fleet_churn` runs three members.
pub const MEMBERS: [&str; 3] = ["m0", "m1", "m2"];

/// Warm open-loop offered rate (requests/s over both connections). On a
/// 2-vCPU box the warm v2 stack keeps up with 40000 requests/s, though
/// p99 latency passes 15 ms there; this rate is an eighth of that.
pub const WARM_RATE_RPS: f64 = 5000.0;
/// Cold closed-loop pipeline depth per connection.
pub const COLD_DEPTH: usize = 32;
/// Cold runtime answer-cache bound: far below the distinct-query count
/// of any run, so every answer is computed.
pub const COLD_CACHE_CAP: usize = 256;
/// Fleet closed-loop burst: submits per connection before it waits.
pub const FLEET_BURST: usize = 16;
/// Cold: a fresh instance version replaces one family's every this many
/// submits per connection.
const COLD_ROTATE_EVERY: u64 = 64;
/// Fleet: a `move` and a fresh registration each happen once per this
/// many submits per connection (offset by half a period).
const FLEET_ADMIN_EVERY: u64 = 800;

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::WarmPipelined,
        Workload::ColdMixed,
        Workload::FleetChurn,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::WarmPipelined => "warm_pipelined",
            Workload::ColdMixed => "cold_mixed",
            Workload::FleetChurn => "fleet_churn",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The per-request latency limit behind `slo_frac`, in µs.
    pub fn slo_us(self) -> f64 {
        match self {
            // Above the runtime's default 2 ms batching patience.
            Workload::WarmPipelined => 10_000.0,
            Workload::ColdMixed => 100_000.0,
            Workload::FleetChurn => 20_000.0,
        }
    }

    /// The runtime answer-cache bound of the serving stack.
    pub fn cache_capacity(self) -> usize {
        match self {
            Workload::ColdMixed => COLD_CACHE_CAP,
            _ => usize::MAX,
        }
    }
}

/// One registered instance version.
pub struct Inst {
    pub graph: ProbGraph,
    pub version: u64,
}

/// One distinct request: the instance it targets and the wire request.
pub struct Item {
    pub inst: usize,
    pub req: WireRequest,
}

/// One step of a connection's stream.
#[derive(Clone, Copy, Debug)]
pub enum Op {
    Submit(usize),
    Register(usize),
    Deregister(usize),
    Move { inst: usize, to: usize },
}

/// Cold-mixed route families, one live instance each.
const FAMILIES: usize = 4;

/// A connection's deterministic request stream: its instances, its
/// distinct items, and the sequence of [`Op`]s it sends.
pub struct Stream {
    pub workload: Workload,
    pub insts: Vec<Inst>,
    pub items: Vec<Item>,
    /// Instances registered before the timed window.
    pub initial_insts: usize,
    /// Items warmed before the timed window (warm and fleet only).
    pub warm_items: usize,
    conn: u64,
    rng: SmallRng,
    submits: u64,
    pending: VecDeque<Op>,
    /// Cold: each family's live instance, the retired instance waiting
    /// for deregistration, the hard-cell instance, and the keys already
    /// sent (no query repeats).
    family: [usize; FAMILIES],
    retired: Option<usize>,
    hard: usize,
    hard_sent: u64,
    rotations: u64,
    seen: HashSet<u64>,
    /// Fleet: the instances this stream picks from and their current
    /// owners.
    live: Vec<usize>,
    placement: Vec<usize>,
    admin_done: u64,
}

fn rng_for(seed: u64, stream: u64) -> SmallRng {
    SmallRng::seed_from_u64(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

fn probs(g: Graph, rng: &mut SmallRng) -> ProbGraph {
    generate::with_probabilities(g, ProbProfile::default(), rng)
}

/// The #P-hard cell: a probabilistic 2-cycle.
fn two_cycle() -> ProbGraph {
    let mut b = GraphBuilder::with_vertices(2);
    b.edge(0, 1, Label(0));
    b.edge(1, 0, Label(0));
    ProbGraph::new(b.build(), vec![Rational::from_ratio(1, 2); 2])
}

impl Stream {
    pub fn new(workload: Workload, seed: u64, conn: u64) -> Stream {
        let mut stream = Stream {
            workload,
            insts: Vec::new(),
            items: Vec::new(),
            initial_insts: 0,
            warm_items: 0,
            conn,
            rng: rng_for(seed, 100 + conn),
            submits: 0,
            pending: VecDeque::new(),
            family: [0; FAMILIES],
            retired: None,
            hard: 0,
            hard_sent: 0,
            rotations: 0,
            seen: HashSet::new(),
            live: Vec::new(),
            placement: Vec::new(),
            admin_done: 0,
        };
        match workload {
            Workload::WarmPipelined => {
                // Both connections share one working set: 3 versions ×
                // 4 queries × {exact, float}.
                let mut rng = rng_for(seed, 1);
                let shapes = [(true, 48), (false, 48), (true, 32)];
                for (twp, n) in shapes {
                    let g = if twp {
                        generate::two_way_path(n, 2, &mut rng)
                    } else {
                        generate::downward_tree(n, 2, &mut rng)
                    };
                    let inst = stream.add_inst(probs(g, &mut rng));
                    for _ in 0..4 {
                        let m = rng.gen_range(2..=4);
                        let q = if twp {
                            generate::two_way_path(m, 2, &mut rng)
                        } else {
                            generate::one_way_path(m, 2, &mut rng)
                        };
                        for precision in [Precision::Exact, Precision::Float { max_rel_err: 1e-6 }]
                        {
                            stream.items.push(Item {
                                inst,
                                req: WireRequest::probability(q.clone()).with_precision(precision),
                            });
                        }
                    }
                }
            }
            Workload::ColdMixed => {
                for f in 0..FAMILIES {
                    stream.family[f] = stream.fresh_family_inst(f);
                }
                stream.hard = stream.add_inst(two_cycle());
            }
            Workload::FleetChurn => {
                for _ in 0..12 {
                    stream.add_fleet_inst();
                }
            }
        }
        stream.initial_insts = stream.insts.len();
        stream.warm_items = stream.items.len();
        stream
    }

    fn add_inst(&mut self, graph: ProbGraph) -> usize {
        let version = phom_core::instance_fingerprint(&graph);
        self.insts.push(Inst { graph, version });
        self.insts.len() - 1
    }

    /// Cold: a fresh instance for route family `f`. Sizes keep every
    /// family's evaluation cost within the same order of magnitude.
    fn fresh_family_inst(&mut self, f: usize) -> usize {
        let rng = &mut self.rng;
        let g = match f {
            // Prop 3.6: unlabeled downward tree.
            0 => generate::downward_tree(40, 1, rng),
            // Prop 4.10: labeled downward tree.
            1 => generate::downward_tree(48, 2, rng),
            // Prop 4.11: labeled two-way path.
            2 => generate::two_way_path(48, 2, rng),
            // Prop 5.4: unlabeled polytree.
            _ => generate::polytree(32, 1, rng),
        };
        let g = probs(g, rng);
        self.add_inst(g)
    }

    /// Fleet: a fresh instance owned (by rendezvous placement) by the
    /// member currently placing the fewest of this stream's instances,
    /// so every seed spreads load evenly over the members.
    fn add_fleet_inst(&mut self) {
        let specs = member_specs();
        let mut load = [0usize; MEMBERS.len()];
        for &i in &self.live {
            load[self.placement[i]] += 1;
        }
        let target = (0..MEMBERS.len())
            .min_by_key(|&m| load[m])
            .expect("members exist");
        let (g, owner) = loop {
            let g = generate::two_way_path(16, 2, &mut self.rng);
            let g = probs(g, &mut self.rng);
            let owner = owner_of(phom_core::instance_fingerprint(&g), &specs);
            if owner == target {
                break (g, owner);
            }
        };
        let inst = self.add_inst(g);
        for _ in 0..2 {
            let m = self.rng.gen_range(2..=3);
            let q = generate::two_way_path(m, 2, &mut self.rng);
            self.items.push(Item {
                inst,
                req: WireRequest::probability(q),
            });
        }
        self.live.push(inst);
        self.placement.resize(self.insts.len(), owner);
    }

    /// The next operation this connection sends.
    pub fn next(&mut self) -> Op {
        if let Some(op) = self.pending.pop_front() {
            return op;
        }
        let op = match self.workload {
            Workload::WarmPipelined => Op::Submit(self.rng.gen_range(0..self.items.len())),
            Workload::ColdMixed => {
                if self.submits / COLD_ROTATE_EVERY > self.rotations {
                    self.rotations += 1;
                    return self.rotate();
                }
                Op::Submit(self.cold_item())
            }
            Workload::FleetChurn => {
                if self.submits / (FLEET_ADMIN_EVERY / 2) > self.admin_done {
                    self.admin_done += 1;
                    return self.fleet_admin();
                }
                let inst = self.live[self.rng.gen_range(0..self.live.len())];
                let first = self
                    .items
                    .iter()
                    .position(|it| it.inst == inst)
                    .expect("every fleet instance has items");
                Op::Submit(first + self.rng.gen_range(0..2))
            }
        };
        if let Op::Submit(_) = op {
            self.submits += 1;
        }
        op
    }

    /// Cold: registers a fresh version for the next family in turn and
    /// deregisters the version retired one rotation earlier (by then its
    /// in-flight requests, at most one pipeline deep, have completed).
    fn rotate(&mut self) -> Op {
        let f = ((self.rotations - 1) as usize) % FAMILIES;
        let fresh = self.fresh_family_inst(f);
        let old = std::mem::replace(&mut self.family[f], fresh);
        if let Some(retired) = self.retired.replace(old) {
            self.pending.push_back(Op::Deregister(retired));
        }
        Op::Register(fresh)
    }

    /// Cold: a request no earlier request of this stream repeats.
    fn cold_item(&mut self) -> usize {
        // One request in ten samples the hard cell; the rest split
        // evenly across the four tractable route families.
        if self.rng.gen_range(0..10) == 0 {
            // Budgets distinct within any cache lifetime: they repeat only
            // after 512 hard requests per connection.
            let samples = 800 + 2 * (self.hard_sent % 512) + self.conn;
            self.hard_sent += 1;
            let m = self.rng.gen_range(1..=2);
            let req = WireRequest::probability(Graph::directed_path(m))
                .with_on_hard(OnHard::Estimate)
                .with_budget(WireBudget {
                    samples: Some(samples),
                    ..WireBudget::default()
                });
            self.items.push(Item {
                inst: self.hard,
                req,
            });
            return self.items.len() - 1;
        }
        let f = self.rng.gen_range(0..FAMILIES);
        let inst = self.family[f];
        loop {
            let rng = &mut self.rng;
            let q = match f {
                0 => generate::graded_query(rng.gen_range(4..=7), 2, 3, rng),
                1 => generate::one_way_path(rng.gen_range(2..=6), 2, rng),
                2 => generate::two_way_path(rng.gen_range(2..=6), 2, rng),
                _ => generate::downward_tree(rng.gen_range(3..=7), 1, rng),
            };
            let precision = match rng.gen_range(0..3) {
                0 => Precision::Exact,
                1 => Precision::Float { max_rel_err: 1e-6 },
                _ => Precision::Auto { max_rel_err: 1e-9 },
            };
            let req = WireRequest::probability(q).with_precision(precision);
            let mut key = DefaultHasher::new();
            (inst, req.encode().encode()).hash(&mut key);
            if self.seen.insert(key.finish()) {
                self.items.push(Item { inst, req });
                return self.items.len() - 1;
            }
        }
    }

    /// Fleet: alternately a `move` of the next instance in turn to the
    /// next member, and a fresh version joining this connection's
    /// working set.
    fn fleet_admin(&mut self) -> Op {
        if self.admin_done.is_multiple_of(2) {
            let inst = self.live[(self.admin_done / 2) as usize % self.live.len()];
            let to = (self.placement[inst] + 1) % MEMBERS.len();
            self.placement[inst] = to;
            Op::Move { inst, to }
        } else {
            self.add_fleet_inst();
            Op::Register(self.insts.len() - 1)
        }
    }
}

/// Member specs as the router sees them (placement hashes names and
/// weights only, so the address is irrelevant to [`owner_of`]).
pub fn member_specs() -> Vec<MemberSpec> {
    MEMBERS
        .iter()
        .map(|name| MemberSpec {
            name: (*name).into(),
            addr: String::new(),
            weight: 1.0,
        })
        .collect()
}

/// The canonical wire encoding of an answer, for byte comparison.
pub fn encode_answer(result: &Result<phom_core::Response, phom_core::SolveError>) -> String {
    wire::encode_result(result).encode()
}

/// How a served answer compares with the oracle's.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Match {
    /// Byte-identical.
    Same,
    /// A float-tier answer whose value and route are byte-identical but
    /// whose certified `rel_err` bound differs in its last digits: the
    /// bound's rounding depends on which other queries shared the tick's
    /// arena, so it is not reproducible outside the tick.
    BoundDrift,
    Different,
}

pub fn compare(got: &str, expected: &str) -> Match {
    if got == expected {
        return Match::Same;
    }
    let (Ok(a), Ok(b)) = (phom_net::Json::parse(got), phom_net::Json::parse(expected)) else {
        return Match::Different;
    };
    let field = |j: &phom_net::Json, k: &str| {
        j.get(k)
            .and_then(phom_net::Json::as_str)
            .map(str::to_string)
    };
    let bound = |j: &phom_net::Json| field(j, "rel_err").and_then(|s| s.parse::<f64>().ok());
    let same_except_bound = field(&a, "type").as_deref() == Some("approximate")
        && ["type", "p", "route", "status"]
            .iter()
            .all(|k| field(&a, k) == field(&b, k));
    match (bound(&a), bound(&b)) {
        (Some(x), Some(y)) if same_except_bound && (x - y).abs() <= 1e-9 * x.abs().max(y.abs()) => {
            Match::BoundDrift
        }
        _ => Match::Different,
    }
}
