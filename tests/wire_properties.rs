//! Properties of the wire decoders, checked with the in-tree proptest
//! shim: hostile input never panics `Json::parse`, `wire::read_frame` or
//! the graph and request decoders behind them, and every generated
//! graph, instance and request survives `decode(encode(x))` with the
//! same bytes on re-encoding.
//!
//! Generated request counts and seeds span the whole `u64` range: the
//! protocol writes values above 2⁵³ (where a JSON number would round)
//! as hex strings, like versions and trace ids.

use phom::net::json::Json;
use phom::net::wire::{self, WireBudget, WireFallback, WireKind, WireRequest};
use phom::prelude::*;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};
use std::io::Cursor;

/// Bytes that steer a random string into the parser's deeper states.
const JSON_ALPHABET: &[u8] = b"{}[]\",:0123456789.-+eE \\/\nnulltruefalse";

/// Random text: uniform bytes mixed with JSON-significant ones, made
/// valid UTF-8 lossily (the frame reader rejects invalid UTF-8 before
/// parsing).
fn random_text(rng: &mut SmallRng) -> String {
    let len = rng.gen_range(0..96);
    let bytes: Vec<u8> = (0..len)
        .map(|_| {
            if rng.gen_bool(0.7) {
                JSON_ALPHABET[rng.gen_range(0..JSON_ALPHABET.len())]
            } else {
                rng.next_u64() as u8
            }
        })
        .collect();
    String::from_utf8_lossy(&bytes).into_owned()
}

/// A small graph with arbitrary `u32` labels and no repeated ordered
/// pair (the decoder rejects duplicates).
fn random_graph(rng: &mut SmallRng) -> Graph {
    let n = rng.gen_range(1..7);
    let mut b = GraphBuilder::with_vertices(n);
    for _ in 0..rng.gen_range(0..2 * n) {
        let label = if rng.gen_bool(0.5) {
            Label(rng.gen_range(0..4))
        } else {
            Label(rng.next_u64() as u32)
        };
        let _ = b.try_edge(rng.gen_range(0..n), rng.gen_range(0..n), label);
    }
    b.build()
}

fn random_instance(rng: &mut SmallRng) -> ProbGraph {
    let g = random_graph(rng);
    let probs = (0..g.n_edges())
        .map(|_| {
            let den = rng.gen_range(1..=1u64 << 20);
            Rational::from_ratio(rng.gen_range(0..=den), den)
        })
        .collect();
    ProbGraph::new(g, probs)
}

fn maybe<T>(rng: &mut SmallRng, value: impl FnOnce(&mut SmallRng) -> T) -> Option<T> {
    rng.gen_bool(0.5).then(|| value(rng))
}

/// Any finite, non-negative tolerance, drawn over the whole exponent
/// range so the shortest-roundtrip formatting is exercised.
fn random_tolerance(rng: &mut SmallRng) -> f64 {
    loop {
        let x = f64::from_bits(rng.next_u64()).abs();
        if x.is_finite() {
            return x;
        }
    }
}

fn random_request(rng: &mut SmallRng) -> WireRequest {
    let kind = match rng.gen_range(0..4) {
        0 => WireKind::Probability(random_graph(rng)),
        1 => WireKind::Counting(random_graph(rng)),
        2 => WireKind::Sensitivity(random_graph(rng)),
        _ => WireKind::Ucq(
            (0..rng.gen_range(0..4))
                .map(|_| random_graph(rng))
                .collect(),
        ),
    };
    // Small counts, the edges of the exact-number range, or any u64.
    let count = |rng: &mut SmallRng| match rng.gen_range(0..3) {
        0 => rng.gen_range(0..1000),
        1 => (1u64 << 53) - 1 + rng.gen_range(0..3),
        _ => rng.next_u64(),
    };
    WireRequest {
        kind,
        provenance: rng.gen_bool(0.5),
        fallback: maybe(rng, |rng| {
            if rng.gen_bool(0.5) {
                WireFallback::BruteForce {
                    max_uncertain: count(rng) as usize,
                }
            } else {
                WireFallback::MonteCarlo {
                    samples: count(rng),
                    seed: count(rng),
                }
            }
        }),
        precision: maybe(rng, |rng| match rng.gen_range(0..3) {
            0 => Precision::Exact,
            1 => Precision::Float {
                max_rel_err: random_tolerance(rng),
            },
            _ => Precision::Auto {
                max_rel_err: random_tolerance(rng),
            },
        }),
        deadline_ms: maybe(rng, count),
        budget: maybe(rng, |rng| WireBudget {
            samples: maybe(rng, count),
            gates: maybe(rng, count),
            time_ms: maybe(rng, count),
        }),
        on_hard: maybe(rng, |rng| {
            [OnHard::Error, OnHard::Estimate][rng.gen_range(0..2)]
        }),
        trace: maybe(rng, |rng| rng.next_u64()),
    }
}

/// The text of a valid request frame with a few characters replaced,
/// dropped or duplicated: hostile input that gets past the first token.
fn mutated_request_text(rng: &mut SmallRng) -> String {
    let mut chars: Vec<char> = random_request(rng).encode().encode().chars().collect();
    for _ in 0..rng.gen_range(1..4) {
        if chars.is_empty() {
            break;
        }
        let at = rng.gen_range(0..chars.len());
        match rng.gen_range(0..3) {
            0 => chars[at] = JSON_ALPHABET[rng.gen_range(0..JSON_ALPHABET.len())] as char,
            1 => {
                chars.remove(at);
            }
            _ => chars.insert(at, chars[at]),
        }
    }
    chars.into_iter().collect()
}

/// Everything a front end decodes out of an untrusted document: the
/// document itself as a request, instance and query, and the members
/// the `register` and `submit` ops read.
fn decode_everything(json: &Json) {
    let _ = WireRequest::decode(json);
    let _ = wire::decode_instance(json);
    let _ = wire::decode_query(json);
    if let Some(instance) = json.get("instance") {
        let _ = wire::decode_instance(instance);
    }
    if let Some(request) = json.get("request") {
        let _ = WireRequest::decode(request);
    }
    if let Some(version) = json.get("version") {
        let _ = wire::decode_version(version);
    }
}

/// Reads frames until the stream ends or stops being frame-aligned. A
/// rejected frame (`InvalidData`) leaves the stream aligned, so reading
/// goes on past it, as the server's reader does.
fn drain_frames(stream: Vec<u8>, max_len: usize) {
    let mut reader = Cursor::new(stream);
    loop {
        match wire::read_frame(&mut reader, max_len) {
            Ok(Some(json)) => decode_everything(&json),
            Ok(None) => break,
            Err(e) if e.kind() == std::io::ErrorKind::InvalidData => {}
            Err(_) => break,
        }
    }
}

fn frame(payload: &[u8]) -> Vec<u8> {
    let mut out = (payload.len() as u32).to_be_bytes().to_vec();
    out.extend_from_slice(payload);
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Random text never panics the parser, nor the decoders behind it
    /// when it happens to parse.
    #[test]
    fn json_parse_never_panics_on_arbitrary_text(seed: u64) {
        let mut rng = SmallRng::seed_from_u64(seed);
        for text in [random_text(&mut rng), mutated_request_text(&mut rng)] {
            if let Ok(json) = Json::parse(&text) {
                decode_everything(&json);
            }
        }
    }

    /// A stream of valid frames, mutated frames, random bytes and lying
    /// length prefixes never panics the frame reader.
    #[test]
    fn read_frame_never_panics_on_arbitrary_streams(seed: u64) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut stream = Vec::new();
        for _ in 0..rng.gen_range(0..6) {
            match rng.gen_range(0..4) {
                0 => stream.extend(frame(random_request(&mut rng).encode().encode().as_bytes())),
                1 => stream.extend(frame(mutated_request_text(&mut rng).as_bytes())),
                2 => stream.extend((0..rng.gen_range(0..16)).map(|_| rng.next_u64() as u8)),
                _ => {
                    let claimed = (rng.next_u64() as u32) >> rng.gen_range(0..32);
                    stream.extend(claimed.to_be_bytes());
                    stream.extend(random_text(&mut rng).into_bytes());
                }
            }
        }
        drain_frames(stream, rng.gen_range(0..512));
    }

    /// Instances and queries decode to what was encoded, and re-encode
    /// to the same bytes — also through a frame.
    #[test]
    fn graphs_roundtrip_byte_for_byte(seed: u64) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let h = random_instance(&mut rng);
        let text = wire::encode_instance(&h).encode();
        let back = wire::decode_instance(&Json::parse(&text).map_err(|e| e.to_string())?)?;
        prop_assert_eq!(back.graph(), h.graph());
        prop_assert_eq!(back.probs(), h.probs());
        prop_assert_eq!(wire::encode_instance(&back).encode(), text);

        let q = h.graph();
        let text = wire::encode_query(q).encode();
        let mut framed = Vec::new();
        wire::write_frame(&mut framed, &wire::encode_query(q)).map_err(|e| e.to_string())?;
        let read = wire::read_frame(&mut Cursor::new(framed), wire::MAX_FRAME)
            .map_err(|e| e.to_string())?
            .ok_or("a written frame reads back")?;
        let back = wire::decode_query(&read)?;
        prop_assert_eq!(&back, q);
        prop_assert_eq!(wire::encode_query(&back).encode(), text);
    }

    /// Requests re-encode to the same bytes after a decode, whatever
    /// their kind and options.
    #[test]
    fn requests_roundtrip_byte_for_byte(seed: u64) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let request = random_request(&mut rng);
        let text = request.encode().encode();
        let back = WireRequest::decode(&Json::parse(&text).map_err(|e| e.to_string())?)?;
        prop_assert_eq!(back.encode().encode(), text);
    }
}
