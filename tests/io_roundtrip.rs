//! Property-based round-trip tests for the text graph format and an
//! end-to-end CLI exercise: parse → solve → compare with the API.

use phom::graph::generate;
use phom::graph::io::{parse_graph, write_prob_graph};
use phom::prelude::*;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// write → parse → write is idempotent (parsing interns labels by
    /// first occurrence, so the first write normalizes and the second
    /// write reproduces it exactly).
    #[test]
    fn write_parse_write_idempotent(seed: u64, n in 1usize..20, sigma in 1u32..5) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let g = generate::polytree(n, sigma, &mut rng);
        let h = generate::with_probabilities(
            g,
            generate::ProbProfile { certain_ratio: 0.3, denominator: 16 },
            &mut rng,
        );
        let text1 = write_prob_graph(&h, None);
        let parsed = parse_graph(&text1).unwrap();
        let names = parsed.labels.clone();
        let text2 = write_prob_graph(&parsed.into_prob_graph(), Some(&names));
        prop_assert_eq!(text1, text2);
    }

    /// parse(write(h)) equals h up to the consistent label renaming the
    /// parser applies, and solving is invariant under that renaming when
    /// the query is renamed the same way.
    #[test]
    fn solve_after_roundtrip(seed: u64, n in 2usize..12) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let g = generate::downward_tree(n, 2, &mut rng);
        let h = generate::with_probabilities(
            g,
            generate::ProbProfile { certain_ratio: 0.3, denominator: 4 },
            &mut rng,
        );
        let q = generate::one_way_path(2, 2, &mut rng);
        let text = write_prob_graph(&h, None);
        let parsed = parse_graph(&text).unwrap();
        // The renaming: original label ↦ position of its display name in
        // the parser's intern table.
        let rename = |l: Label| -> Label {
            match parsed.labels.iter().position(|n| *n == l.name()) {
                Some(i) => Label(i as u32),
                // A query label absent from the instance: any fresh id
                // keeps it absent after the renaming too.
                None => Label(parsed.labels.len() as u32 + l.0 + 1),
            }
        };
        let mut qb = GraphBuilder::with_vertices(q.n_vertices());
        for e in q.edges() {
            qb.edge(e.src, e.dst, rename(e.label));
        }
        let q2 = qb.build();
        let h2 = parsed.into_prob_graph();
        let p1 = Engine::new(h).solve(&q).unwrap().probability;
        let p2 = Engine::new(h2).solve(&q2).unwrap().probability;
        prop_assert_eq!(p1, p2);
    }
}

#[test]
fn cli_pipeline_on_written_files() {
    // End to end: generate an instance, serialize it, run the CLI logic on
    // the serialized text, compare with the direct API answer.
    let mut rng = SmallRng::seed_from_u64(99);
    let g = generate::downward_tree(12, 2, &mut rng);
    let h = generate::with_probabilities(
        g,
        generate::ProbProfile {
            certain_ratio: 0.2,
            denominator: 4,
        },
        &mut rng,
    );
    let q = generate::planted_path_query(h.graph(), 2, &mut rng)
        .unwrap_or_else(|| generate::one_way_path(2, 2, &mut rng));
    let h_text = write_prob_graph(&h, None);
    let q_text = write_prob_graph(&ProbGraph::certain(q.clone()), None);

    let files = [("q.pg", q_text.clone()), ("h.pg", h_text.clone())];
    let fs = move |path: &str| -> Result<String, String> {
        files
            .iter()
            .find(|(n, _)| *n == path)
            .map(|(_, c)| c.clone())
            .ok_or_else(|| "not found".to_string())
    };
    let out = phom::cli::run(
        &["solve".to_string(), "q.pg".to_string(), "h.pg".to_string()],
        &fs,
    )
    .unwrap();
    let expect = Engine::new(h.clone()).solve(&q).unwrap().probability;
    assert!(
        out.contains(&format!("= {expect} ")),
        "out={out} expect={expect}"
    );
}
