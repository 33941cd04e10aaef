//! The complexity atlas: checks the paper's Tables 1–3 (and the labeled
//! setting with disconnected queries, Prop 3.3) against the propositions
//! they cite and against the dispatcher.
//!
//! For every (query class, instance class) cell:
//!
//! * **the citation** — the cell must follow from the statement of the
//!   proposition it cites: a PTIME statement must cover the cell (after
//!   the Prop 5.5 collapse, for a collapse cell), and a #P-hard
//!   statement's own cell must lie inside it.
//! * **inputs** — random inputs drawn from the cell, and one
//!   representative built from the cell's classes, land in some cell of
//!   [`tables::cell`] (an input lies in several cells; the dispatcher
//!   prefers one). An input whose landing cell is PTIME must be served by
//!   a named fast path or by a route of that cell's proposition, and its
//!   answer must equal brute force; one whose landing cell is #P-hard
//!   must be answered by a fast path or be reported hard with that cell's
//!   proposition. An input drawn from a PTIME cell is never reported hard.
//! * **#P-hard cells** — the representative dodges every fast path, so
//!   it must land in the cell itself and be reported hard.

use phom::core::algo::absorb::absorb_query_components;
use phom::core::tables::{self, Cell, CellStatus, Prop, Setting, TableId, CLASSES};
use phom::core::{bruteforce, Hardness};
use phom::graph::generate;
use phom::graph::ConnClass;
use phom::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// The tables, with whether their queries are disconnected and how many
/// labels their inputs use.
const TABLES: [(TableId, bool, u32); 4] = [
    (TableId::T1UnlabeledDisconnected, true, 1),
    (TableId::T2LabeledConnected, false, 2),
    (TableId::T3UnlabeledConnected, false, 1),
    (TableId::LabeledDisconnected, true, 2),
];

fn sample_query(class: ConnClass, union: bool, sigma: u32, rng: &mut SmallRng) -> Graph {
    let one = |rng: &mut SmallRng| -> Graph {
        match class {
            ConnClass::OneWayPath => generate::one_way_path(rng.gen_range(1..4), sigma, rng),
            ConnClass::TwoWayPath => generate::two_way_path(rng.gen_range(2..5), sigma, rng),
            ConnClass::DownwardTree => generate::downward_tree(rng.gen_range(3..6), sigma, rng),
            ConnClass::Polytree => generate::polytree(rng.gen_range(3..6), sigma, rng),
            ConnClass::General => generate::connected(rng.gen_range(2..5), 2, sigma, rng),
        }
    };
    if union {
        let parts = rng.gen_range(2..4);
        generate::union_of(parts, rng, one)
    } else {
        one(rng)
    }
}

fn sample_instance(class: ConnClass, sigma: u32, rng: &mut SmallRng) -> ProbGraph {
    let g = match class {
        ConnClass::OneWayPath => generate::one_way_path(rng.gen_range(3..8), sigma, rng),
        ConnClass::TwoWayPath => generate::two_way_path(rng.gen_range(3..8), sigma, rng),
        ConnClass::DownwardTree => generate::downward_tree(rng.gen_range(4..9), sigma, rng),
        ConnClass::Polytree => generate::polytree(rng.gen_range(4..9), sigma, rng),
        ConnClass::General => generate::connected(rng.gen_range(3..7), 3, sigma, rng),
    };
    generate::with_probabilities(
        g,
        generate::ProbProfile {
            certain_ratio: 0.3,
            denominator: 4,
        },
        rng,
    )
}

/// The cell the dispatcher places `query` on `instance` in: the cell of
/// the absorbed query, in the instance's setting.
fn landing_cell(query: &Graph, instance: &ProbGraph) -> Cell {
    let ic = classify(instance.graph());
    let setting = if ic.labeled {
        Setting::Labeled
    } else {
        Setting::Unlabeled
    };
    tables::cell(&classify(&absorb_query_components(query)), &ic, setting)
}

/// True iff `route` runs the algorithm of the PTIME cell `status`.
fn serves(status: CellStatus, route: &Route) -> bool {
    use CellStatus::{PTime, PTimeAfterCollapse};
    match route {
        Route::Prop36 => status == PTime(Prop::P3_6),
        Route::Prop410 => status == PTime(Prop::P4_10),
        Route::Prop411 => matches!(status, PTime(Prop::P4_11) | PTimeAfterCollapse(Prop::P4_11)),
        Route::Prop54 {
            via_collapse: false,
        } => status == PTime(Prop::P5_4),
        Route::Prop54 { via_collapse: true } => {
            matches!(status, PTime(Prop::P5_5) | PTimeAfterCollapse(Prop::P5_4))
        }
        _ => false,
    }
}

/// True iff `route` is one of the dispatcher's named fast paths.
fn fast_path(route: &Route) -> bool {
    matches!(
        route,
        Route::TrivialNoEdges | Route::MissingLabel | Route::ZeroOnPolytrees
    )
}

fn check_hard_report(query: &Graph, instance: &ProbGraph, landed: Cell, h: &Hardness) {
    assert_eq!(h.prop, landed.status.prop().name(), "{landed:?}");
    let connected = classify(instance.graph()).is_connected();
    assert_eq!(h.cell, landed.describe(connected), "{query:?}");
}

/// Checks one input drawn from a cell whose status is `drawn`; returns
/// whether it was served by the route of a PTIME cell.
fn check_input(q: &Graph, h: &ProbGraph, drawn: CellStatus, ctx: &str) -> bool {
    let landed = landing_cell(q, h);
    let ctx = format!("{ctx}, landed in {landed:?}: {q:?} on {:?}", h.graph());
    match Engine::new(h.clone()).solve(q) {
        Ok(sol) => {
            assert_eq!(sol.probability, bruteforce::probability(q, h), "{ctx}");
            if fast_path(&sol.route) {
                return false;
            }
            assert!(
                landed.status.is_ptime(),
                "{ctx}: a hard cell answered {:?}",
                sol.route
            );
            assert!(
                serves(landed.status, &sol.route),
                "{ctx}: served by {:?}",
                sol.route
            );
            true
        }
        Err(SolveError::Hard(hard)) => {
            assert!(!drawn.is_ptime(), "{ctx}: a PTIME cell reported {hard:?}");
            assert!(!landed.status.is_ptime(), "{ctx}: reported {hard:?}");
            check_hard_report(q, h, landed, &hard);
            false
        }
        Err(e) => panic!("{ctx}: {e}"),
    }
}

/// `a ⊆ b` along the Figure 2 inclusions.
fn includes(a: ConnClass, b: ConnClass) -> bool {
    use ConnClass::*;
    matches!(
        (a, b),
        (OneWayPath, _)
            | (TwoWayPath, TwoWayPath | Polytree | General)
            | (DownwardTree, DownwardTree | Polytree | General)
            | (Polytree, Polytree | General)
            | (General, General)
    )
}

/// A class of inputs: the setting, the query class (`⊔` when `union`)
/// and the instance class (its disjoint unions included).
#[derive(Clone, Copy, PartialEq, Debug)]
struct Inputs {
    labeled: bool,
    union: bool,
    query: ConnClass,
    instance: ConnClass,
}

impl Inputs {
    /// `self ⊆ other`: unlabeled inputs are labeled ones with one label,
    /// and a connected query class lies inside its `⊔` class.
    fn within(self, other: Inputs) -> bool {
        (!self.labeled || other.labeled)
            && (!self.union || other.union)
            && includes(self.query, other.query)
            && includes(self.instance, other.instance)
    }
}

/// The statement of a proposition: the inputs it covers, and whether it
/// shows them PTIME (else #P-hard).
fn statement(p: Prop) -> (Inputs, bool) {
    use ConnClass::*;
    let (labeled, union, query, instance, ptime) = match p {
        Prop::P3_3 => (true, true, OneWayPath, OneWayPath, false),
        Prop::P3_4 => (false, true, TwoWayPath, TwoWayPath, false),
        Prop::P3_6 => (false, true, General, DownwardTree, true),
        Prop::P4_1 => (true, false, OneWayPath, Polytree, false),
        Prop::P4_4 => (true, false, DownwardTree, DownwardTree, false),
        Prop::P4_5 => (true, false, TwoWayPath, DownwardTree, false),
        Prop::P4_10 => (true, false, OneWayPath, DownwardTree, true),
        Prop::P4_11 => (true, false, General, TwoWayPath, true),
        Prop::P5_1 => (false, false, OneWayPath, General, false),
        Prop::P5_4 => (false, false, OneWayPath, Polytree, true),
        Prop::P5_5 => (false, true, DownwardTree, Polytree, true),
        Prop::P5_6 => (false, false, TwoWayPath, Polytree, false),
    };
    let inputs = Inputs {
        labeled,
        union,
        query,
        instance,
    };
    (inputs, ptime)
}

/// True iff the status of the cell `inputs` follows from the statements
/// of the propositions it cites.
fn follows_from_statements(inputs: Inputs, status: CellStatus) -> bool {
    let covers = |p: Prop, inputs: Inputs| {
        let (stated, ptime) = statement(p);
        ptime && inputs.within(stated)
    };
    let shows_hard = |p: Prop| {
        let (stated, ptime) = statement(p);
        !ptime && stated.within(inputs)
    };
    match status {
        CellStatus::PTime(p) => covers(p, inputs),
        // Prop 5.5 collapses the query to a connected 1WP.
        CellStatus::PTimeAfterCollapse(p) => {
            covers(Prop::P5_5, inputs)
                && covers(
                    p,
                    Inputs {
                        union: false,
                        query: ConnClass::OneWayPath,
                        ..inputs
                    },
                )
        }
        CellStatus::Hard(p) => shows_hard(p),
        CellStatus::HardByInclusion(ps) => ps
            .iter()
            .all(|&p| shows_hard(p) && statement(p).0 != inputs),
    }
}

/// A graded member of `row` that lies in no more specific row, over the
/// labels `s` and `t`.
fn witness_component(row: ConnClass, s: Label, t: Label) -> Graph {
    use ConnClass::*;
    match row {
        OneWayPath => Graph::one_way_path(&[s, t]),
        // →→← : the middle sink has in-degree 2, so not a DWT.
        TwoWayPath => {
            Graph::two_way_path(&[(Dir::Forward, s), (Dir::Forward, s), (Dir::Backward, t)])
        }
        // A root with three children: not a 2WP.
        DownwardTree => Graph::downward_tree(&[None, Some((0, s)), Some((0, t)), Some((0, s))]),
        // An in-star with three leaves: neither a DWT nor a 2WP.
        Polytree => {
            let mut b = GraphBuilder::with_vertices(4);
            b.edge(1, 0, s);
            b.edge(2, 0, t);
            b.edge(3, 0, s);
            b.build()
        }
        // The graded diamond: not a polytree, still graded (so the ⊔PT
        // zero fast path does not fire).
        General => {
            let mut b = GraphBuilder::with_vertices(4);
            b.edge(0, 1, s);
            b.edge(0, 2, t);
            b.edge(1, 3, t);
            b.edge(2, 3, s);
            b.build()
        }
    }
}

/// A member of `col` over the labels `s` and `t`, in no more specific
/// column.
fn witness_instance(col: ConnClass, s: Label, t: Label) -> ProbGraph {
    use ConnClass::*;
    let g = match col {
        OneWayPath => Graph::one_way_path(&[s, t, s, t, s]),
        TwoWayPath => Graph::two_way_path(&[
            (Dir::Forward, s),
            (Dir::Forward, t),
            (Dir::Backward, s),
            (Dir::Forward, t),
            (Dir::Backward, t),
        ]),
        DownwardTree => Graph::downward_tree(&[
            None,
            Some((0, s)),
            Some((0, t)),
            Some((1, s)),
            Some((1, t)),
            Some((2, s)),
        ]),
        Polytree => {
            let mut b = GraphBuilder::with_vertices(6);
            b.edge(0, 1, s);
            b.edge(2, 1, t); // in-degree 2: not a DWT
            b.edge(2, 3, s);
            b.edge(2, 4, t); // branching: not a 2WP
            b.edge(5, 4, s);
            b.build()
        }
        General => {
            let mut b = GraphBuilder::with_vertices(4);
            b.edge(0, 1, s);
            b.edge(1, 0, t); // an undirected (even directed) cycle
            b.edge(1, 2, s);
            b.edge(2, 3, t);
            b.build()
        }
    };
    let probs = vec![Rational::from_ratio(1, 2); g.n_edges()];
    ProbGraph::new(g, probs)
}

/// An input of the cell (`table`, `row`, `col`) that dodges every fast
/// path. A disconnected query is two copies of a component with a
/// 17-edge tail: absorption only compares components of at most 16
/// edges, so the copies stay apart (unlabeled `⊔DWT` components are
/// otherwise always comparable, and would absorb into one).
fn representative(table: TableId, row: ConnClass, col: ConnClass) -> (Graph, ProbGraph) {
    let s = Label(0);
    let t = Label(match table.setting() {
        Setting::Labeled => 1,
        Setting::Unlabeled => 0,
    });
    let core = witness_component(row, s, t);
    let query = if table.union_rows() {
        // The tail leaves a vertex whose out-edge keeps the class: the
        // sink of the 1WP, a child of the DWT, a source of the 2WP or the
        // in-star's centre, the diamond's sink.
        let from = match row {
            ConnClass::OneWayPath => 2,
            ConnClass::DownwardTree => 1,
            ConnClass::TwoWayPath | ConnClass::Polytree => 0,
            ConnClass::General => 3,
        };
        let mut b = GraphBuilder::with_vertices(core.n_vertices());
        for e in core.edges() {
            b.edge(e.src, e.dst, e.label);
        }
        let mut last = from;
        for _ in 0..17 {
            let next = b.add_vertex();
            b.edge(last, next, s);
            last = next;
        }
        let long = b.build();
        Graph::disjoint_union(&[&long, &long])
    } else {
        core
    };
    (query, witness_instance(col, s, t))
}

#[test]
fn every_cell_agrees_with_the_dispatcher() {
    let mut rng = SmallRng::seed_from_u64(123);
    for (table, union, sigma) in TABLES {
        let mut served = 0;
        for row in CLASSES {
            for col in CLASSES {
                let status = tables::lookup(table, row, col);
                let inputs = Inputs {
                    labeled: table.setting() == Setting::Labeled,
                    union,
                    query: row,
                    instance: col,
                };
                assert!(
                    follows_from_statements(inputs, status),
                    "{table:?} ({row:?}, {col:?}) does not follow from {status:?}"
                );
                let ctx = format!("drawn from {table:?} ({row:?}, {col:?})");
                for _ in 0..10 {
                    let q = sample_query(row, union, sigma, &mut rng);
                    let h = sample_instance(col, sigma, &mut rng);
                    served += usize::from(check_input(&q, &h, status, &ctx));
                }
                let (rq, rh) = representative(table, row, col);
                served += usize::from(check_input(&rq, &rh, status, &ctx));
                if !status.is_ptime() {
                    let landed = landing_cell(&rq, &rh);
                    assert_eq!(
                        (landed.table, landed.row, landed.col),
                        (table, row, col),
                        "the representative of a hard cell must land in it"
                    );
                    let answer = Engine::new(rh).solve(&rq);
                    assert!(
                        matches!(answer, Err(SolveError::Hard(_))),
                        "{ctx}: {answer:?}"
                    );
                }
            }
        }
        if table != TableId::LabeledDisconnected {
            assert!(
                served > 0,
                "{table:?}: no input reached a proposition's route"
            );
        }
    }
}
