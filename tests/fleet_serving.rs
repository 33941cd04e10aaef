//! The fleet's differential acceptance suite: a **3-process** fleet —
//! real `phom serve` children behind a real `phom router` child, all
//! spawned from the built binary — must answer a randomized mixed
//! workload **byte-identically** to one in-process `Engine::submit`
//! oracle, through a mid-traffic `move` handoff (tickets created
//! before the flip keep resolving; the old member drains and drops the
//! version), and through a member kill (typed `member_unavailable`
//! frames, never a silent retry; every request reaches exactly one
//! terminal state). A hard watchdog kills the child processes on
//! panic or timeout so a wedged fleet can never orphan children or
//! hang CI. In-process tests pin the router's member-link books: one
//! link per member for all router traffic, the single re-register
//! retry after a member lost its registry, a `submit` that answers
//! without waiting for the member's ack (against a member that never
//! acks), a member refusal delivered once at `poll` and never counted,
//! the Prometheus types of the fleet rollup, and a rollup that merges
//! every runtime row of two members' replies.

use phom::net::wire::{self, encode_result, WireFallback, WireRequest};
use phom::net::{Client, Json, NetError, Server};
use phom::prelude::*;
use phom_graph::generate::{self, ProbProfile};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::io::{BufRead, BufReader};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// A random instance spanning the tables' columns (kept small: the
/// sensitivity-by-conditioning oracle is quadratic in the edges).
fn random_instance(rng: &mut SmallRng, profile: ProbProfile) -> ProbGraph {
    let g = match rng.gen_range(0..4) {
        0 => generate::two_way_path(rng.gen_range(2..9), 2, rng),
        1 => generate::downward_tree(rng.gen_range(2..9), 2, rng),
        2 => generate::polytree(rng.gen_range(3..9), 1, rng),
        _ => generate::two_way_path(rng.gen_range(2..7), 1, rng),
    };
    generate::with_probabilities(g, profile, rng)
}

/// A random wire request mixing every kind the protocol carries.
fn random_request(h: &ProbGraph, rng: &mut SmallRng) -> WireRequest {
    let query = match rng.gen_range(0..4) {
        0 => Graph::directed_path(rng.gen_range(0..3)),
        1 => generate::one_way_path(rng.gen_range(1..4), 2, rng),
        2 => generate::planted_path_query(h.graph(), rng.gen_range(1..4), rng)
            .unwrap_or_else(|| generate::one_way_path(2, 2, rng)),
        _ => generate::two_way_path(rng.gen_range(1..4), 1, rng),
    };
    match rng.gen_range(0..8) {
        0 => WireRequest::counting(query),
        1 => WireRequest::sensitivity(query),
        2 => WireRequest::ucq(vec![query, Graph::directed_path(1)]),
        3 => WireRequest::probability(query).with_provenance(),
        4 => WireRequest::probability(query)
            .with_fallback(WireFallback::BruteForce { max_uncertain: 10 }),
        _ => WireRequest::probability(query),
    }
}

/// A #P-hard cell — a 2-edge unlabeled path query on a cyclic instance
/// — answered by brute force over 2^14 worlds: slow enough that its
/// ticket is reliably still in flight when its member is killed.
/// `salt` varies one probability, and with it the fingerprint (and so
/// the owning member).
fn slow_instance(salt: u64) -> ProbGraph {
    let mut g = GraphBuilder::with_vertices(5);
    let pairs = (0..5).flat_map(|a| (0..5).map(move |b| (a, b)));
    for (a, b) in pairs.filter(|(a, b)| a != b).take(14) {
        g.edge(a, b, Label::UNLABELED);
    }
    let mut probs = vec![Rational::from_ratio(1, 2); 14];
    probs[0] = Rational::from_ratio(1, salt + 3);
    ProbGraph::new(g.build(), probs)
}

fn slow_request() -> WireRequest {
    WireRequest::probability(Graph::directed_path(2))
        .with_fallback(WireFallback::BruteForce { max_uncertain: 14 })
}

/// Spawns the built `phom` binary, waits for its readiness line on
/// stdout, and returns the child plus the address it announced.
fn spawn_phom(args: &[String], ready_prefix: &str) -> (Child, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_phom"))
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn phom child");
    let stdout = child.stdout.take().expect("piped stdout");
    let mut lines = BufReader::new(stdout).lines();
    let addr = loop {
        match lines.next() {
            Some(Ok(line)) => {
                if let Some(rest) = line.strip_prefix(ready_prefix) {
                    break rest
                        .split_whitespace()
                        .next()
                        .expect("address after readiness prefix")
                        .to_string();
                }
            }
            other => {
                let _ = child.kill();
                panic!("child exited before announcing readiness: {other:?}");
            }
        }
    };
    (child, addr)
}

struct Member {
    name: String,
    addr: String,
    child: Arc<Mutex<Child>>,
}

/// The fleet under test: 3 member processes behind 1 router process,
/// with a drop guard (kills the children on panic) and a hard
/// watchdog thread (kills the children and aborts the whole test
/// process if the test wedges past its deadline).
struct FleetUnderTest {
    members: Vec<Member>,
    router_addr: String,
    router: Arc<Mutex<Child>>,
    disarmed: Arc<AtomicBool>,
}

impl FleetUnderTest {
    fn spawn(n: usize) -> FleetUnderTest {
        let member_args: Vec<String> = [
            "serve",
            "--listen",
            "127.0.0.1:0",
            "--max-wait-ms",
            "1",
            "--workers",
            "2",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let members: Vec<Member> = (0..n)
            .map(|i| {
                let (child, addr) = spawn_phom(&member_args, "phom_net: listening on ");
                Member {
                    name: format!("m{i}"),
                    addr,
                    child: Arc::new(Mutex::new(child)),
                }
            })
            .collect();
        // Short retry settings so a killed member fails fast and typed.
        let mut router_args: Vec<String> = [
            "router",
            "--listen",
            "127.0.0.1:0",
            "--connect-attempts",
            "2",
            "--connect-backoff-ms",
            "30",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        for m in &members {
            router_args.push("--member".into());
            router_args.push(format!("{}={}", m.name, m.addr));
        }
        let (router, router_addr) = spawn_phom(&router_args, "phom_fleet: routing on ");
        let fleet = FleetUnderTest {
            members,
            router_addr,
            router: Arc::new(Mutex::new(router)),
            disarmed: Arc::new(AtomicBool::new(false)),
        };
        fleet.arm_watchdog(Duration::from_secs(120));
        fleet
    }

    fn all_children(&self) -> Vec<Arc<Mutex<Child>>> {
        let mut all: Vec<_> = self.members.iter().map(|m| Arc::clone(&m.child)).collect();
        all.push(Arc::clone(&self.router));
        all
    }

    /// The hard watchdog: if the test has not disarmed it before the
    /// deadline, kill every child and abort the process — a wedged
    /// fleet must never hang CI or orphan children.
    fn arm_watchdog(&self, deadline: Duration) {
        let children = self.all_children();
        let disarmed = Arc::clone(&self.disarmed);
        std::thread::spawn(move || {
            let until = Instant::now() + deadline;
            while Instant::now() < until {
                if disarmed.load(Ordering::SeqCst) {
                    return;
                }
                std::thread::sleep(Duration::from_millis(100));
            }
            eprintln!("fleet_serving watchdog: deadline passed — killing children, aborting");
            kill_all(&children);
            std::process::abort();
        });
    }

    fn kill_member(&self, name: &str) {
        let member = self
            .members
            .iter()
            .find(|m| m.name == name)
            .expect("member");
        let mut child = member.child.lock().expect("child lock");
        child.kill().expect("kill member");
        child.wait().expect("reap member");
    }
}

fn kill_all(children: &[Arc<Mutex<Child>>]) {
    for child in children {
        if let Ok(mut child) = child.lock() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

impl Drop for FleetUnderTest {
    fn drop(&mut self) {
        // Runs on success and on panic-unwind alike: no orphans either
        // way, and the watchdog stands down.
        self.disarmed.store(true, Ordering::SeqCst);
        kill_all(&self.all_children());
    }
}

/// The member name currently routing `version`, per the `fleet` op.
fn owner_of_version(client: &mut Client, version: u64) -> String {
    let reply = client
        .call_raw(Json::obj(vec![("op", Json::str("fleet"))]))
        .expect("fleet op");
    let hex = wire::encode_version(version).to_string();
    reply
        .get("ok")
        .and_then(|ok| ok.get("placements"))
        .and_then(Json::as_arr)
        .and_then(|placements| {
            placements
                .iter()
                .find(|p| p.get("version").map(|v| v.to_string()).as_deref() == Some(&hex))
                .and_then(|p| p.get("member"))
                .and_then(Json::as_str)
                .map(String::from)
        })
        .unwrap_or_else(|| panic!("no placement for {hex}: {reply}"))
}

/// The headline acceptance test: 3 real member processes behind a real
/// router process answer byte-identically to the in-process oracle —
/// before, during, and after a handoff, and a killed member degrades
/// to typed `member_unavailable` frames without disturbing the rest.
#[test]
fn fleet_answers_bit_identically_through_handoff_and_member_kill() {
    let fleet = FleetUnderTest::spawn(3);
    let mut rng = SmallRng::seed_from_u64(0xF1EE75E2);
    let instances: Vec<ProbGraph> = (0..4)
        .map(|i| {
            let profile = if i % 2 == 0 {
                ProbProfile::half()
            } else {
                ProbProfile::default()
            };
            random_instance(&mut rng, profile)
        })
        .collect();
    let oracles: Vec<Engine> = instances.iter().map(|h| Engine::new(h.clone())).collect();

    let mut client = Client::connect(fleet.router_addr.as_str()).expect("connect to router");
    let versions: Vec<u64> = instances
        .iter()
        .map(|h| client.register(h).expect("register through the router"))
        .collect();

    // One wave: submit k mixed requests across all versions, then wait
    // each ticket and byte-compare against the oracle's canonical
    // encoding of the same request.
    let wave = |client: &mut Client, rng: &mut SmallRng, k: usize, ctx: &str| {
        let submitted: Vec<(usize, WireRequest, u64)> = (0..k)
            .map(|_| {
                let j = rng.gen_range(0..instances.len());
                let req = random_request(&instances[j], rng);
                let ticket = client.submit(versions[j], &req).expect("admitted");
                (j, req, ticket)
            })
            .collect();
        for (i, (j, req, ticket)) in submitted.into_iter().enumerate() {
            let want = encode_result(&oracles[j].submit(&[req.to_request()])[0]).to_string();
            let got = client.wait(ticket).expect("answer").to_string();
            assert_eq!(got, want, "{ctx}: instance {j}, request {i}");
        }
    };

    // Phase 1: steady state.
    wave(&mut client, &mut rng, 14, "steady state");

    // Phase 2: mid-traffic handoff. Submit a wave of tickets for the
    // hot version, flip it to a member that does not own it while they
    // are in flight, then wait them — tickets created before the flip
    // resolve through the old member, byte-identically.
    let hot = versions[0];
    let old_owner = owner_of_version(&mut client, hot);
    let in_flight: Vec<(WireRequest, u64)> = (0..6)
        .map(|_| {
            let req = random_request(&instances[0], &mut rng);
            let ticket = client.submit(hot, &req).expect("admitted");
            (req, ticket)
        })
        .collect();
    let target = fleet
        .members
        .iter()
        .map(|m| m.name.clone())
        .find(|name| *name != old_owner)
        .expect("3 members, one owner");
    let moved = client
        .call_raw(Json::obj(vec![
            ("op", Json::str("move")),
            ("version", wire::encode_version(hot)),
            ("to", Json::str(&target)),
        ]))
        .expect("move op");
    assert!(
        moved
            .get("ok")
            .and_then(|ok| ok.get("moved"))
            .and_then(Json::as_bool)
            == Some(true),
        "{moved}"
    );
    assert_eq!(
        owner_of_version(&mut client, hot),
        target,
        "routing flipped"
    );
    for (i, (req, ticket)) in in_flight.into_iter().enumerate() {
        let want = encode_result(&oracles[0].submit(&[req.to_request()])[0]).to_string();
        let got = client
            .wait(ticket)
            .expect("pre-flip ticket resolves")
            .to_string();
        assert_eq!(got, want, "pre-flip ticket {i}");
    }
    // Traffic after the flip lands on the new owner, still identical.
    wave(&mut client, &mut rng, 10, "after handoff");

    // The old member drains and drops the version: observe its version
    // list directly (not through the router) until the handoff's
    // deregister lands.
    let old_addr = &fleet
        .members
        .iter()
        .find(|m| m.name == old_owner)
        .expect("old owner")
        .addr;
    let mut direct = Client::connect(old_addr.as_str()).expect("connect to old member");
    let drained_by = Instant::now() + Duration::from_secs(10);
    loop {
        if !direct.versions().expect("versions").contains(&hot) {
            break;
        }
        assert!(
            Instant::now() < drained_by,
            "old member never deregistered the moved version"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    drop(direct);

    // Phase 3: kill the member now owning the hot version while two
    // front-door connections each hold a ticket on it. Both tickets
    // ride the router's one shared link to that member; each resolves
    // to exactly one terminal state — the typed member_unavailable
    // frame — and is then gone. Fresh submits for the dead member's
    // versions fail typed, never silently retried; versions on
    // surviving members keep answering byte-identically. The doomed
    // tickets ask a slow instance on the same member, so they are
    // reliably still in flight when it dies.
    let slow = (0..64)
        .find_map(|salt| {
            let v = client
                .register(&slow_instance(salt))
                .expect("register a slow instance");
            (owner_of_version(&mut client, v) == target).then_some(v)
        })
        .expect("a slow instance placed on the doomed member");
    let mut second = Client::connect(fleet.router_addr.as_str()).expect("second connection");
    let doomed = client
        .submit(slow, &slow_request())
        .expect("admitted before the kill");
    let doomed_second = second
        .submit(slow, &slow_request())
        .expect("admitted before the kill");
    fleet.kill_member(&target);
    for (conn, ticket) in [(&mut client, doomed), (&mut second, doomed_second)] {
        match conn.wait(ticket) {
            Err(NetError::Server { code, msg, .. }) => {
                assert_eq!(code, "member_unavailable", "{msg}");
            }
            other => panic!("expected a terminal member_unavailable: {other:?}"),
        }
        // Terminal means terminal: the ticket is gone afterwards.
        match conn.poll(ticket, Duration::ZERO) {
            Err(NetError::Server { code, .. }) => assert_eq!(code, "unknown_ticket"),
            other => panic!("a resolved ticket must be unknown: {other:?}"),
        }
    }
    match client.submit(hot, &WireRequest::probability(Graph::directed_path(1))) {
        Err(e) => {
            assert!(e.is_unavailable(), "{e}");
            let NetError::Server { code, .. } = &e else {
                panic!("{e}")
            };
            assert_eq!(code, "member_unavailable");
        }
        Ok(t) => panic!("submit to a dead member's version admitted ticket {t}"),
    }
    let survivor = (0..versions.len())
        .find(|&j| owner_of_version(&mut client, versions[j]) != target)
        .expect("a version on a surviving member");
    for i in 0..6 {
        let req = random_request(&instances[survivor], &mut rng);
        let want = encode_result(&oracles[survivor].submit(&[req.to_request()])[0]).to_string();
        let ticket = client
            .submit(versions[survivor], &req)
            .expect("survivors admit");
        let got = client.wait(ticket).expect("survivors answer").to_string();
        assert_eq!(got, want, "survivor request {i} after the kill");
    }

    // Fleet-wide stats: the dead member reports unavailable, the
    // rollup counts the survivors, and the router's books are clean —
    // every ticket reached exactly one terminal state.
    let stats = client.stats().expect("fleet stats");
    let rollup = stats.get("rollup").expect("rollup section");
    assert_eq!(
        rollup.get("members_available").and_then(Json::as_u64),
        Some(2),
        "{stats}"
    );
    // The survivors' books roll up (the dead member's counters are
    // gone with it, so this undercounts the true fleet total).
    assert!(
        rollup.get("completed").and_then(Json::as_u64).unwrap_or(0) >= 10,
        "{stats}"
    );
    let members = stats
        .get("members")
        .and_then(Json::as_arr)
        .expect("members section");
    let dead = members
        .iter()
        .find(|m| m.get("name").and_then(Json::as_str) == Some(target.as_str()))
        .expect("dead member listed");
    assert_eq!(
        dead.get("ok").and_then(Json::as_bool),
        Some(false),
        "{stats}"
    );
    let router = stats.get("router").expect("router section");
    assert_eq!(
        router.get("open_tickets").and_then(Json::as_u64),
        Some(0),
        "{stats}"
    );
    // The members speak protocol v2, so the router must have carried
    // the bulk of this workload over its multiplexed member links
    // (pushed completions) rather than per-ticket v1 round trips.
    assert!(
        router
            .get("mux_submits")
            .and_then(Json::as_u64)
            .unwrap_or(0)
            >= 20,
        "{stats}"
    );
    assert_eq!(
        router.get("handoffs").and_then(Json::as_u64),
        Some(1),
        "{stats}"
    );
    assert!(
        router
            .get("member_unavailable")
            .and_then(Json::as_u64)
            .unwrap_or(0)
            >= 2,
        "{stats}"
    );
    assert_eq!(
        router.get("drained_deregisters").and_then(Json::as_u64),
        Some(1),
        "{stats}"
    );
}

/// An in-process fleet: `n` members served by [`Server`]s in this test
/// process behind an in-process [`Router`] — the white-box setting
/// where each member's own connection books are readable.
fn in_process_fleet(n: usize) -> (Vec<Server>, Router) {
    let mut members = Vec::new();
    let mut servers = Vec::new();
    for i in 0..n {
        let runtime = Arc::new(
            Runtime::builder()
                .max_batch(4)
                .max_wait(Duration::from_millis(1))
                .workers(1)
                .build(),
        );
        let server = Server::bind("127.0.0.1:0", runtime).expect("bind member");
        members.push(MemberSpec {
            name: format!("m{i}"),
            addr: server.local_addr().to_string(),
            weight: 1.0,
        });
        servers.push(server);
    }
    let router = Router::bind("127.0.0.1:0", members).expect("bind router");
    (servers, router)
}

/// Submits through `client` and returns the answer's canonical encoding.
fn answer(client: &mut Client, version: u64, req: &WireRequest) -> String {
    let ticket = client.submit(version, req).expect("admitted");
    client.wait(ticket).expect("answer").to_string()
}

fn oracle_answer(oracle: &Engine, req: &WireRequest) -> String {
    encode_result(&oracle.submit(&[req.to_request()])[0]).to_string()
}

/// The router's only retry: a member that lost its registry (as after a
/// restart) rejects the forwarded submit with `invalid_query`, so the
/// router registers the instance again and forwards once more — one
/// extra lazy registration, no `member_unavailable`, and the same
/// answer as the oracle.
#[test]
fn router_reregisters_once_when_a_member_lost_its_registry() {
    let (servers, router) = in_process_fleet(2);
    let mut rng = SmallRng::seed_from_u64(0x2E6157E2);
    let h = random_instance(&mut rng, ProbProfile::default());
    let oracle = Engine::new(h.clone());
    let mut client = Client::connect(router.local_addr()).expect("connect to router");
    let version = client.register(&h).expect("register through the router");

    let req = random_request(&h, &mut rng);
    assert_eq!(
        answer(&mut client, version, &req),
        oracle_answer(&oracle, &req)
    );
    let before = router.stats();
    assert_eq!(before.lazy_registers, 1, "{before:?}");

    // The owner forgets the version behind the router's back.
    let owner = owner_of_version(&mut client, version);
    let idx = router
        .members()
        .iter()
        .position(|m| m.name == owner)
        .expect("owner is a member");
    let mut direct = Client::connect(servers[idx].local_addr()).expect("connect to owner");
    assert!(direct.deregister(version).expect("deregister on the owner"));
    drop(direct);

    let req = random_request(&h, &mut rng);
    assert_eq!(
        answer(&mut client, version, &req),
        oracle_answer(&oracle, &req),
        "answer after the owner lost its registry"
    );
    let after = router.stats();
    assert_eq!(after.lazy_registers, before.lazy_registers + 1, "{after:?}");
    assert_eq!(after.member_unavailable, 0, "{after:?}");

    router.shutdown(Duration::from_secs(1));
    for server in servers {
        server.shutdown(Duration::from_secs(1));
    }
}

/// Every router→member exchange — submits from two front-door
/// connections, the lazy `register`, the `stats` and `trace` fan-outs,
/// a `move`'s warm-up and its drain `deregister` — rides one shared
/// link per member: each member accepts exactly one connection, and
/// that connection is protocol v2.
#[test]
fn one_member_link_per_member_carries_every_router_exchange() {
    let (servers, router) = in_process_fleet(3);
    let mut rng = SmallRng::seed_from_u64(0x0E11C);
    let instances: Vec<ProbGraph> = (0..3)
        .map(|_| random_instance(&mut rng, ProbProfile::default()))
        .collect();
    let oracles: Vec<Engine> = instances.iter().map(|h| Engine::new(h.clone())).collect();
    let mut a = Client::connect(router.local_addr()).expect("connect a");
    let mut b = Client::connect(router.local_addr()).expect("connect b");
    let versions: Vec<u64> = instances
        .iter()
        .map(|h| a.register(h).expect("register"))
        .collect();
    assert_eq!(b.register(&instances[0]).expect("re-register"), versions[0]);

    let mut wave = |a: &mut Client, b: &mut Client, ctx: &str| {
        for (j, &version) in versions.iter().enumerate() {
            for (name, conn) in [("a", &mut *a), ("b", &mut *b)] {
                let req = random_request(&instances[j], &mut rng);
                let got = answer(conn, version, &req);
                assert_eq!(got, oracle_answer(&oracles[j], &req), "{ctx}: {name}, {j}");
            }
        }
    };
    wave(&mut a, &mut b, "before the move");

    let stats = b.stats().expect("fleet stats");
    assert_eq!(
        stats
            .get("rollup")
            .and_then(|r| r.get("members_available"))
            .and_then(Json::as_u64),
        Some(3),
        "{stats}"
    );
    let (ticket, trace) = b
        .submit_traced(
            versions[1],
            &WireRequest::probability(Graph::directed_path(1)),
        )
        .expect("traced submit");
    b.wait(ticket).expect("traced answer");
    a.trace_spans(trace.expect("trace id in the ack"))
        .expect("trace op");
    b.slowest(2).expect("slowest op");

    let hot = versions[0];
    let old_owner = owner_of_version(&mut a, hot);
    let target = router
        .members()
        .iter()
        .map(|m| m.name.clone())
        .find(|name| *name != old_owner)
        .expect("another member");
    let moved = a
        .call_raw(Json::obj(vec![
            ("op", Json::str("move")),
            ("version", wire::encode_version(hot)),
            ("to", Json::str(&target)),
        ]))
        .expect("move op");
    assert!(moved.get("ok").is_some(), "{moved}");
    wave(&mut a, &mut b, "after the move");
    let drained_by = Instant::now() + Duration::from_secs(10);
    while router.stats().drained_deregisters < 1 {
        assert!(Instant::now() < drained_by, "the drain never deregistered");
        std::thread::sleep(Duration::from_millis(5));
    }

    let stats = router.stats();
    assert_eq!(stats.member_unavailable, 0, "{stats:?}");
    assert_eq!(stats.mux_submits, stats.submitted, "{stats:?}");
    for (i, server) in servers.iter().enumerate() {
        let net = server.net_stats();
        assert_eq!(net.connections, 1, "member m{i}: {net:?}");
        assert_eq!(net.hello_upgrades, 1, "member m{i}: {net:?}");
    }

    drop((a, b));
    router.shutdown(Duration::from_secs(1));
    for server in servers {
        server.shutdown(Duration::from_secs(1));
    }
}

/// A stand-in member that speaks protocol v2 just far enough to be
/// routed to: it grants `hello`, answers `register` with the hinted
/// version, and never acks a submit.
struct SilentMember {
    addr: String,
    stream: Arc<Mutex<Option<std::net::TcpStream>>>,
    thread: std::thread::JoinHandle<()>,
}

impl SilentMember {
    fn spawn() -> SilentMember {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind silent member");
        let addr = listener.local_addr().expect("addr").to_string();
        let stream = Arc::new(Mutex::new(None));
        let slot = Arc::clone(&stream);
        let thread = std::thread::spawn(move || {
            let Ok((mut conn, _)) = listener.accept() else {
                return;
            };
            *slot.lock().expect("slot") = conn.try_clone().ok();
            while let Ok(Some(frame)) = wire::read_frame(&mut conn, wire::MAX_FRAME) {
                let id = frame.get("id").cloned().unwrap_or(Json::Null);
                let reply = match frame.get("op").and_then(Json::as_str) {
                    Some("hello") => Json::obj(vec![(
                        "ok",
                        Json::obj(vec![("version", Json::u64(2)), ("window", Json::u64(64))]),
                    )]),
                    Some("register") => Json::obj(vec![
                        ("id", id),
                        (
                            "ok",
                            Json::obj(vec![
                                ("version", frame.get("version").cloned().expect("hint")),
                                ("registered", Json::str("new")),
                            ]),
                        ),
                    ]),
                    _ => continue,
                };
                if wire::write_frame(&mut conn, &reply).is_err() {
                    return;
                }
            }
        });
        SilentMember {
            addr,
            stream,
            thread,
        }
    }

    /// Closes the member's one connection (the router's link to it).
    fn close(self) {
        let stream = self.stream.lock().expect("slot").take();
        let stream = stream.expect("the router connected");
        let _ = stream.shutdown(std::net::Shutdown::Both);
        self.thread.join().expect("silent member thread");
    }
}

/// Runs `body` on its own thread and fails the test if it has not
/// finished within `deadline`, instead of hanging the suite.
fn with_watchdog(deadline: Duration, body: impl FnOnce() + Send + 'static) {
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    let worker = std::thread::spawn(move || {
        body();
        let _ = done_tx.send(());
    });
    match done_rx.recv_timeout(deadline) {
        Ok(()) => worker.join().expect("test body"),
        Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => {
            if let Err(panic) = worker.join() {
                std::panic::resume_unwind(panic);
            }
        }
        Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {
            panic!("watchdog: the test body did not finish within {deadline:?}")
        }
    }
}

/// A router `submit` answers once the frame is forwarded: a member that
/// never acks does not hold the client's ticket back, the unacked
/// submit is not counted, and when that member's link dies the ticket
/// answers `member_unavailable` exactly once at `poll`.
#[test]
fn router_submit_does_not_wait_for_member_admission() {
    with_watchdog(Duration::from_secs(30), || {
        let member = SilentMember::spawn();
        let router = Router::bind(
            "127.0.0.1:0",
            vec![MemberSpec {
                name: "silent".into(),
                addr: member.addr.clone(),
                weight: 1.0,
            }],
        )
        .expect("bind router");
        let mut client = Client::connect(router.local_addr()).expect("connect to router");
        let h = ProbGraph::new(Graph::directed_path(1), vec![Rational::from_ratio(1, 2)]);
        let version = client.register(&h).expect("register through the router");

        let started = Instant::now();
        let ticket = client
            .submit(version, &WireRequest::probability(Graph::directed_path(1)))
            .expect("forwarded");
        assert!(
            started.elapsed() < Duration::from_secs(1),
            "submit waited {:?} for a member that never acks",
            started.elapsed()
        );
        assert_eq!(
            client
                .poll(ticket, Duration::from_millis(50))
                .expect("poll while unacked"),
            None
        );
        let stats = router.stats();
        assert_eq!(stats.submitted, 0, "{stats:?}");
        assert_eq!(stats.open_tickets, 1, "{stats:?}");

        member.close();
        match client.poll(ticket, Duration::from_secs(2)) {
            Err(NetError::Server { code, msg, .. }) => {
                assert_eq!(code, "member_unavailable", "{msg}");
            }
            other => panic!("expected a terminal member_unavailable: {other:?}"),
        }
        match client.poll(ticket, Duration::ZERO) {
            Err(NetError::Server { code, .. }) => assert_eq!(code, "unknown_ticket"),
            other => panic!("a resolved ticket must be unknown: {other:?}"),
        }
        let stats = router.stats();
        assert_eq!(stats.submitted, 0, "{stats:?}");
        assert_eq!(stats.member_unavailable, 1, "{stats:?}");
        assert_eq!(stats.open_tickets, 0, "{stats:?}");
        drop(client);
        router.shutdown(Duration::from_secs(1));
    });
}

/// A request the member refuses is still forwarded and acked with a
/// router ticket; the member's typed refusal is that ticket's one
/// terminal `poll` answer, and the refused submit is never counted.
#[test]
fn member_refusal_arrives_at_poll_once_and_is_not_counted() {
    let (servers, router) = in_process_fleet(2);
    let mut rng = SmallRng::seed_from_u64(0x2EF05E);
    let h = random_instance(&mut rng, ProbProfile::default());
    let oracle = Engine::new(h.clone());
    let mut client = Client::connect(router.local_addr()).expect("connect to router");
    let version = client.register(&h).expect("register through the router");
    let req = random_request(&h, &mut rng);
    assert_eq!(
        answer(&mut client, version, &req),
        oracle_answer(&oracle, &req)
    );
    let before = router.stats();
    assert_eq!(before.submitted, 1, "{before:?}");

    let reply = client
        .call_raw(Json::obj(vec![
            ("op", Json::str("submit")),
            ("version", wire::encode_version(version)),
            ("request", Json::obj(vec![("query", Json::u64(42))])),
        ]))
        .expect("submit op");
    let ticket = reply
        .get("ok")
        .and_then(|ok| ok.get("ticket"))
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("the router forwards and acks: {reply}"));
    match client.poll(ticket, Duration::from_secs(2)) {
        Err(NetError::Server { code, .. }) => assert_eq!(code, "bad_request"),
        other => panic!("expected the member's bad_request: {other:?}"),
    }
    match client.poll(ticket, Duration::ZERO) {
        Err(NetError::Server { code, .. }) => assert_eq!(code, "unknown_ticket"),
        other => panic!("a resolved ticket must be unknown: {other:?}"),
    }
    let after = router.stats();
    assert_eq!(after.submitted, before.submitted, "{after:?}");
    assert_eq!(after.delivered, before.delivered, "{after:?}");
    assert_eq!(after.member_unavailable, 0, "{after:?}");
    assert_eq!(after.open_tickets, 0, "{after:?}");

    drop(client);
    router.shutdown(Duration::from_secs(1));
    for server in servers {
        server.shutdown(Duration::from_secs(1));
    }
}

/// The router's `metrics` text types the summed member counters as
/// Prometheus counters and the summed levels as gauges.
#[test]
fn router_metrics_type_member_counters_as_counters() {
    let (servers, router) = in_process_fleet(2);
    let mut client = Client::connect(router.local_addr()).expect("connect to router");
    let text = client.metrics().expect("metrics op");
    for line in [
        "# TYPE phom_fleet_admitted counter",
        "# TYPE phom_fleet_completed counter",
        "# TYPE phom_fleet_queue_depth gauge",
        "# TYPE phom_fleet_workers gauge",
        "# TYPE phom_request_latency_ns histogram",
    ] {
        assert!(text.contains(line), "missing {line:?} in:\n{text}");
    }
    drop(client);
    router.shutdown(Duration::from_secs(1));
    for server in servers {
        server.shutdown(Duration::from_secs(1));
    }
}

/// A two-edge R/S path instance whose fingerprint (and so its owning
/// member) varies with `salt`.
fn path_instance(salt: u64) -> ProbGraph {
    let mut g = GraphBuilder::with_vertices(3);
    g.edge(0, 1, Label(0));
    g.edge(1, 2, Label(1));
    let probs = vec![
        Rational::from_ratio(1, salt + 2),
        Rational::from_ratio(3, 4),
    ];
    ProbGraph::new(g.build(), probs)
}

/// The rollup merges every runtime row of its members' `stats`
/// replies by the row's kind — counters and levels summed, high-water
/// marks maxed, histograms merged — and the router's `metrics` text and
/// `phom top` show the merged values.
#[test]
fn rollup_merges_every_runtime_row_across_members() {
    let (servers, router) = in_process_fleet(2);
    let mut client = Client::connect(router.local_addr()).expect("connect to router");
    let mut by_owner: std::collections::BTreeMap<String, u64> = Default::default();
    for salt in 0..32 {
        let version = client.register(&path_instance(salt)).expect("register");
        by_owner
            .entry(owner_of_version(&mut client, version))
            .or_insert(version);
        if by_owner.len() == 2 {
            break;
        }
    }
    assert_eq!(by_owner.len(), 2, "both members own a version");
    // Different traffic per member: 3 requests to one, 5 to the other.
    let query = WireRequest::probability(Graph::one_way_path(&[Label(0), Label(1)]));
    let mut sent = 0;
    for (&version, n) in by_owner.values().zip([3, 5]) {
        for _ in 0..n {
            let ticket = client.submit(version, &query).expect("admitted");
            client.wait(ticket).expect("answer");
            sent += 1;
        }
    }
    // Counters land just after a ticket resolves: wait for the books.
    let mut stats = client.stats().expect("fleet stats");
    for _ in 0..200 {
        let rollup = stats.get("rollup").expect("rollup");
        if rollup.get("completed").and_then(Json::as_u64) == Some(sent) {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
        stats = client.stats().expect("fleet stats");
    }
    let rollup = stats.get("rollup").expect("rollup");
    let members: Vec<&Json> = stats
        .get("members")
        .and_then(Json::as_arr)
        .expect("members")
        .iter()
        .map(|m| m.get("stats").expect("member stats"))
        .collect();
    assert_eq!(members.len(), 2, "{stats}");
    let completed: Vec<u64> = members
        .iter()
        .map(|m| m.get("completed").and_then(Json::as_u64).unwrap_or(0))
        .collect();
    assert_eq!(completed.iter().sum::<u64>(), sent, "{stats}");
    assert_ne!(completed[0], completed[1], "{stats}");
    let at = |json: &Json, key: &str| -> Json {
        match key.split_once('.') {
            Some((group, leaf)) => json.get(group).and_then(|g| g.get(leaf)),
            None => json.get(key),
        }
        .unwrap_or_else(|| panic!("no {key} in {json}"))
        .clone()
    };
    let zero = phom::serve::RuntimeStats::default();
    for row in phom::serve::RUNTIME_METRICS {
        let merged = at(rollup, row.key);
        let readings: Vec<Json> = members.iter().map(|m| at(m, row.key)).collect();
        match (row.read)(&zero) {
            phom_obs::Value::U64(_) => {
                let values = readings.iter().map(|r| r.as_u64().expect("a count"));
                let want = match row.kind {
                    phom_obs::Kind::HighWater => values.max().expect("two members"),
                    _ => values.sum(),
                };
                assert_eq!(merged.as_u64(), Some(want), "{}: {stats}", row.key);
            }
            phom_obs::Value::Buckets(_) => {
                let column = |r: &Json, i: usize| r.as_arr().expect("buckets")[i].as_u64();
                let merged_len = merged.as_arr().expect("buckets").len();
                for i in 0..merged_len {
                    let want: u64 = readings.iter().map(|r| column(r, i).expect("count")).sum();
                    assert_eq!(column(&merged, i), Some(want), "{}[{i}]: {stats}", row.key);
                }
            }
            phom_obs::Value::Hist(_) => {
                let count = |h: &Json| h.get("count").and_then(Json::as_u64).expect("count");
                let want: u64 = readings.iter().map(count).sum();
                assert_eq!(count(&merged), want, "{}: {stats}", row.key);
            }
            phom_obs::Value::I64(_) => panic!("{}: runtime rows are unsigned", row.key),
        }
    }
    let circuit = rollup.get("circuit_batched").and_then(Json::as_u64);
    assert!(
        circuit > Some(0),
        "the R/S path queries ride the circuit path: {stats}"
    );

    let text = client.metrics().expect("metrics op");
    for line in [
        "# TYPE phom_fleet_circuit_batched counter",
        "# TYPE phom_fleet_queue_depth_max gauge",
        "# HELP phom_fleet_admitted summed across available members",
        "# HELP phom_request_latency_ns end-to-end request latency, nanoseconds, merged fleet-wide",
        "# HELP phom_queue_latency_ns queue wait, nanoseconds, merged fleet-wide",
        "# HELP phom_stage_latency_ns per-tick-group stage time, nanoseconds, merged fleet-wide",
    ] {
        assert!(text.contains(line), "missing {line:?} in:\n{text}");
    }

    let (admitted, completed) = (
        rollup
            .get("admitted")
            .and_then(Json::as_u64)
            .expect("admitted"),
        rollup
            .get("completed")
            .and_then(Json::as_u64)
            .expect("completed"),
    );
    let args: Vec<String> = ["top", "--connect", &router.local_addr().to_string()]
        .iter()
        .map(|s| s.to_string())
        .chain(["--iterations".to_string(), "1".to_string()])
        .collect();
    let top = phom::cli::run(&args, &|path| Err(format!("no file {path}"))).expect("phom top");
    assert!(top.contains("(fleet)"), "{top}");
    assert!(top.contains("members up: 2"), "{top}");
    let want = format!("requests: {admitted} admitted, {completed} completed,");
    assert!(top.contains(&want), "want {want:?} in:\n{top}");

    drop(client);
    router.shutdown(Duration::from_secs(1));
    for server in servers {
        server.shutdown(Duration::from_secs(1));
    }
}
