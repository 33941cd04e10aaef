//! End-to-end tracing acceptance: one trace id minted at the fleet's
//! front door must follow a request through router → member → runtime
//! and come back out of the `trace` op as a single coherent request —
//! every serving stage present exactly once (`admitted`, `queued`,
//! `planned`, `evaluated`, `encoded` from the member runtime, `routed`
//! from the router), all under the same trace id, with the stage sum
//! bounded by the request's observed wall clock. The `metrics` op is
//! pinned here too: parseable Prometheus text with the stable metric
//! names and non-zero per-lane latency quantiles after a workload.

use phom::net::{Client, Json, NetError, Server, WireRequest};
use phom::prelude::*;
use phom_obs::{Stage, TraceRequest};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Two in-process members behind an in-process router, plus a client
/// connected to the router's front door.
fn fleet() -> (Vec<Server>, Router, Client) {
    let mut members = Vec::new();
    let mut servers = Vec::new();
    for name in ["a", "b"] {
        let runtime = Arc::new(
            Runtime::builder()
                .max_batch(4)
                .max_wait(Duration::from_millis(1))
                .workers(1)
                .build(),
        );
        let server = Server::bind("127.0.0.1:0", runtime).expect("bind member");
        members.push(MemberSpec {
            name: name.into(),
            addr: server.local_addr().to_string(),
            weight: 1.0,
        });
        servers.push(server);
    }
    let router = Router::bind("127.0.0.1:0", members).expect("bind router");
    let client = Client::connect(router.local_addr()).expect("connect");
    (servers, router, client)
}

/// The spans of one trace, read once: the runtime records a request's
/// stages before it publishes the answer, and the router its `routed`
/// span before it acks, so once the client holds the answer they are
/// all there.
fn spans_of(client: &mut Client, trace: u64) -> TraceRequest {
    let mut requests = client.trace_spans(trace).expect("trace op");
    assert_eq!(requests.len(), 1, "{requests:?}");
    requests.pop().expect("one request")
}

#[test]
fn one_trace_id_spans_router_and_member_stages_exactly_once() {
    let (servers, router, mut client) = fleet();
    let h = ProbGraph::new(
        Graph::directed_path(2),
        vec![Rational::from_ratio(1, 2), Rational::from_ratio(1, 2)],
    );
    let version = client.register(&h).expect("register");
    let q = WireRequest::probability(Graph::directed_path(1));

    let started = Instant::now();
    let (ticket, trace) = client.submit_traced(version, &q).expect("submit");
    let trace = trace.expect("router minted a trace id into the ack");
    assert_ne!(trace, 0);
    assert_eq!(
        client.wait(ticket).unwrap().get("p").and_then(Json::as_str),
        Some("3/4")
    );
    let wall = started.elapsed().as_nanos() as u64;

    let request = spans_of(&mut client, trace);
    assert_eq!(request.trace, trace, "{request:?}");
    assert!(
        request.spans.iter().all(|s| s.trace == trace),
        "{request:?}"
    );
    // Every serving stage appears exactly once: the five runtime stages
    // from the owning member plus the router's forwarding span.
    for stage in [
        Stage::Admitted,
        Stage::Queued,
        Stage::Planned,
        Stage::Evaluated,
        Stage::Encoded,
        Stage::Routed,
    ] {
        let n = request.spans.iter().filter(|s| s.stage == stage).count();
        assert_eq!(n, 1, "stage {} seen {n} times: {request:?}", stage.name());
    }
    // The per-stage breakdown is consistent with the observed latency:
    // member-side stages nest inside the submit→answer interval the
    // client measured. The router's own forwarding span runs
    // *concurrently* with the member's queue wait (admission happens
    // mid-forward, and on a multiplexed member link the ack rides back
    // while the tick is already queued), so it is bounded by the wall
    // clock separately rather than summed with the rest.
    let sum: u64 = request.spans.iter().map(|s| s.nanos).sum();
    assert_eq!(request.total_nanos, sum, "{request:?}");
    let routed: u64 = request
        .spans
        .iter()
        .filter(|s| s.stage == Stage::Routed)
        .map(|s| s.nanos)
        .sum();
    assert!(
        sum - routed <= wall,
        "member stage sum {} > wall {wall}: {request:?}",
        sum - routed
    );
    assert!(routed <= wall, "routed {routed} > wall {wall}: {request:?}");

    // The same trace resolves through the owning member directly, minus
    // the router's span — the id crossed the wire unchanged.
    let owner = servers
        .iter()
        .find_map(|server| {
            let mut direct = Client::connect(server.local_addr()).ok()?;
            let requests = direct.trace_spans(trace).ok()?;
            requests.into_iter().next()
        })
        .expect("one member holds the runtime spans");
    assert_eq!(owner.trace, trace, "{owner:?}");
    assert!(
        owner.spans.iter().all(|s| s.stage != Stage::Routed),
        "{owner:?}"
    );
    assert_eq!(owner.spans.len(), request.spans.len() - 1, "{owner:?}");

    // `slowest` surfaces the same request (it is the only one).
    let slowest = client.slowest(4).expect("slowest op");
    assert!(
        slowest.iter().any(|r| r.trace == trace),
        "{slowest:?} lacks {trace:#x}"
    );

    router.shutdown(Duration::from_secs(1));
    for server in servers {
        server.shutdown(Duration::from_secs(1));
    }
}

/// Every sample line of a Prometheus exposition: `name` or
/// `name{labels}` followed by one integer value.
fn parse_prometheus(text: &str) -> Vec<(String, u64)> {
    let mut out = Vec::new();
    for line in text.lines() {
        if line.starts_with('#') || line.is_empty() {
            continue;
        }
        let (name_labels, value) = line.rsplit_once(' ').unwrap_or_else(|| {
            panic!("unparseable sample line: {line:?}");
        });
        let value: u64 = value
            .parse()
            .unwrap_or_else(|_| panic!("non-integer value in: {line:?}"));
        out.push((name_labels.to_string(), value));
    }
    out
}

#[test]
fn metrics_op_serves_parseable_prometheus_text_at_both_layers() {
    let (servers, router, mut client) = fleet();
    let h = ProbGraph::new(Graph::directed_path(3), vec![Rational::from_ratio(1, 2); 3]);
    let version = client.register(&h).expect("register");
    for _ in 0..8 {
        let ticket = client
            .submit(version, &WireRequest::probability(Graph::directed_path(1)))
            .expect("submit");
        client.wait(ticket).expect("answered");
    }

    // The router's fleet-level exposition. Histograms are recorded
    // before an answer is published, so all eight requests show.
    let fast_count_name = "phom_request_latency_ns_count{lane=\"fast\"}";
    let text = client.metrics().expect("metrics op");
    let samples = parse_prometheus(&text);
    let value_of = |needle: &str| -> Option<u64> {
        samples
            .iter()
            .find(|(name, _)| name == needle)
            .map(|&(_, v)| v)
    };
    assert_eq!(value_of("phom_fleet_members"), Some(2), "{text}");
    assert_eq!(value_of("phom_fleet_members_available"), Some(2), "{text}");
    assert!(
        value_of("phom_router_submitted_total").unwrap() >= 8,
        "{text}"
    );
    // The fleet-merged per-lane latency histogram has real mass: eight
    // completed fast-lane requests with a non-zero tail quantile.
    let fast_count = value_of(fast_count_name).unwrap();
    assert_eq!(fast_count, 8, "{text}");
    assert!(
        value_of("phom_request_latency_ns_p99{lane=\"fast\"}").unwrap() > 0,
        "{text}"
    );
    assert!(
        value_of("phom_queue_latency_ns_count{lane=\"fast\"}").unwrap() >= 8,
        "{text}"
    );
    assert!(
        value_of("phom_stage_latency_ns_p99{stage=\"eval\"}").unwrap() > 0,
        "{text}"
    );

    // One member serves its own exposition with the same stable names;
    // the two members' request counts add up to the fleet's.
    let mut member_fast_total = 0;
    for server in &servers {
        let mut direct = Client::connect(server.local_addr()).expect("connect member");
        let member_text = direct.metrics().expect("member metrics op");
        let member_samples = parse_prometheus(&member_text);
        assert!(
            member_samples
                .iter()
                .any(|(name, _)| name.starts_with("phom_requests_completed_total")),
            "{member_text}"
        );
        member_fast_total += member_samples
            .iter()
            .find(|(name, _)| name == fast_count_name)
            .map_or(0, |&(_, v)| v);
    }
    assert_eq!(member_fast_total, fast_count, "members must sum to fleet");

    // An unknown trace id is an empty result, not an error; a trace op
    // with neither selector is a typed bad_request.
    assert!(client.trace_spans(0x1).expect("empty trace").is_empty());
    match client.call_raw(Json::obj(vec![("op", Json::str("trace"))])) {
        Ok(reply) => {
            let code = reply
                .get("err")
                .and_then(|e| e.get("code"))
                .and_then(Json::as_str);
            assert_eq!(code, Some("bad_request"), "{reply}");
        }
        Err(NetError::Server { code, .. }) => assert_eq!(code, "bad_request"),
        other => panic!("{other:?}"),
    }

    router.shutdown(Duration::from_secs(1));
    for server in servers {
        server.shutdown(Duration::from_secs(1));
    }
}
