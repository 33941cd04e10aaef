//! The paper's Tables 1–3 as data: the complete combined-complexity
//! classification of `PHom` for the query/instance classes of Figure 2,
//! plus the labeled setting with disconnected queries (Prop 3.3).
//!
//! This is the one copy of the classification: [`cell`] places an input
//! in a cell, and [`crate::solver`] runs a PTIME cell's [`Prop`] or
//! reports a hard cell's. `tests/complexity_atlas.rs` checks every cell
//! against the dispatcher and brute force.

use phom_graph::classes::{ClassFlags, Classification};
use phom_graph::ConnClass;
use std::fmt;

/// Labeled (|σ| > 1) vs unlabeled (|σ| = 1) setting.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Setting {
    /// `PHomL`.
    Labeled,
    /// `PHom̸L`.
    Unlabeled,
}

/// Which table a cell belongs to.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TableId {
    /// Table 1: `PHom̸L` for disconnected queries (rows are `⊔C` classes).
    T1UnlabeledDisconnected,
    /// Table 2: `PHomL` for connected queries.
    T2LabeledConnected,
    /// Table 3: `PHom̸L` for connected queries.
    T3UnlabeledConnected,
    /// `PHomL` for disconnected queries (rows are `⊔C` classes). Not a
    /// table of the paper: by Prop 3.3 every cell is #P-hard.
    LabeledDisconnected,
}

impl TableId {
    /// The setting of the table.
    pub fn setting(self) -> Setting {
        match self {
            TableId::T2LabeledConnected | TableId::LabeledDisconnected => Setting::Labeled,
            TableId::T1UnlabeledDisconnected | TableId::T3UnlabeledConnected => Setting::Unlabeled,
        }
    }

    /// True iff the rows are classes of disconnected queries (`⊔C`).
    pub fn union_rows(self) -> bool {
        matches!(
            self,
            TableId::T1UnlabeledDisconnected | TableId::LabeledDisconnected
        )
    }
}

/// A proposition of the paper that settles a cell: `P4_11` is Prop 4.11.
/// The tables below say what each one shows.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Prop {
    P3_3,
    P3_4,
    P3_6,
    P4_1,
    P4_4,
    P4_5,
    P4_10,
    P4_11,
    P5_1,
    P5_4,
    P5_5,
    P5_6,
}

impl Prop {
    /// The name hardness reports carry, e.g. `"Prop 4.11"`.
    pub fn name(self) -> &'static str {
        match self {
            Prop::P3_3 => "Prop 3.3",
            Prop::P3_4 => "Prop 3.4",
            Prop::P3_6 => "Prop 3.6",
            Prop::P4_1 => "Prop 4.1",
            Prop::P4_4 => "Prop 4.4",
            Prop::P4_5 => "Prop 4.5",
            Prop::P4_10 => "Prop 4.10",
            Prop::P4_11 => "Prop 4.11",
            Prop::P5_1 => "Prop 5.1",
            Prop::P5_4 => "Prop 5.4",
            Prop::P5_5 => "Prop 5.5",
            Prop::P5_6 => "Prop 5.6",
        }
    }
}

/// The status of a table cell.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CellStatus {
    /// Polynomial-time by the proposition.
    PTime(Prop),
    /// Polynomial-time: Prop 5.5 collapses the `⊔DWT` query to a 1WP,
    /// which the proposition then solves.
    PTimeAfterCollapse(Prop),
    /// #P-hard by the proposition.
    Hard(Prop),
    /// #P-hard because the cell includes cells that these propositions
    /// show #P-hard.
    HardByInclusion(&'static [Prop]),
}

/// The PTIME propositions in the order the dispatcher prefers them when
/// one input lies in several PTIME cells.
const PREFERENCE: [Prop; 5] = [Prop::P3_6, Prop::P4_11, Prop::P4_10, Prop::P5_4, Prop::P5_5];

impl CellStatus {
    /// True iff the cell is tractable.
    pub fn is_ptime(self) -> bool {
        matches!(
            self,
            CellStatus::PTime(_) | CellStatus::PTimeAfterCollapse(_)
        )
    }

    /// The proposition that settles the cell: the one whose algorithm a
    /// PTIME cell runs (after the collapse, if any), or the first one a
    /// hard cell inherits by inclusion.
    pub fn prop(self) -> Prop {
        match self {
            CellStatus::PTime(p) | CellStatus::PTimeAfterCollapse(p) | CellStatus::Hard(p) => p,
            CellStatus::HardByInclusion(ps) => ps[0],
        }
    }

    /// The rank of the cell in [`cell`]'s preference: PTIME cells by
    /// [`PREFERENCE`], then every other cell.
    fn rank(self) -> usize {
        PREFERENCE
            .iter()
            .position(|&p| self.is_ptime() && p == self.prop())
            .unwrap_or(PREFERENCE.len())
    }
}

impl fmt::Display for CellStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            CellStatus::PTime(p) => write!(f, "PTIME [{}]", p.name()),
            CellStatus::PTimeAfterCollapse(p) => write!(f, "PTIME [Prop 5.5 + {}]", p.name()),
            CellStatus::Hard(p) => write!(f, "#P-hard [{}]", p.name()),
            CellStatus::HardByInclusion([p]) => write!(f, "#P-hard [{} (by inclusion)]", p.name()),
            CellStatus::HardByInclusion(ps) => {
                let numbers: Vec<&str> = ps.iter().map(|p| &p.name()["Prop ".len()..]).collect();
                write!(f, "#P-hard [Props {} (by inclusion)]", numbers.join("/"))
            }
        }
    }
}

/// The row/column headers of all the tables, in paper order.
pub const CLASSES: [ConnClass; 5] = [
    ConnClass::OneWayPath,
    ConnClass::TwoWayPath,
    ConnClass::DownwardTree,
    ConnClass::Polytree,
    ConnClass::General,
];

/// A short name for a class used as a row/column header.
pub fn class_name(c: ConnClass, union: bool) -> String {
    let base = match c {
        ConnClass::OneWayPath => "1WP",
        ConnClass::TwoWayPath => "2WP",
        ConnClass::DownwardTree => "DWT",
        ConnClass::Polytree => "PT",
        ConnClass::General => {
            return if union {
                "All".into()
            } else {
                "Connected".into()
            }
        }
    };
    if union {
        format!("⊔{base}")
    } else {
        base.into()
    }
}

/// Table 1 of the paper: `PHom̸L(⊔row, col)` — disconnected unlabeled
/// queries. `row` is the class whose disjoint union the query ranges over;
/// `col` the (connected) instance class. Results also hold for unions of
/// the instance classes (Section 3.3).
pub fn table1(row: ConnClass, col: ConnClass) -> CellStatus {
    use ConnClass::*;
    match col {
        // ⊔DWT instances are tractable for every query (graded collapse).
        OneWayPath | DownwardTree => CellStatus::PTime(Prop::P3_6),
        // Connected instances: hard already for ⊔1WP (indeed 1WP) queries.
        General => CellStatus::Hard(Prop::P5_1),
        TwoWayPath => match row {
            // ⊔1WP/⊔DWT queries collapse to a 1WP, then Prop 4.11 applies.
            OneWayPath | DownwardTree => CellStatus::PTimeAfterCollapse(Prop::P4_11),
            _ => CellStatus::Hard(Prop::P3_4),
        },
        Polytree => match row {
            OneWayPath | DownwardTree => CellStatus::PTimeAfterCollapse(Prop::P5_4),
            _ => CellStatus::HardByInclusion(&[Prop::P3_4]),
        },
    }
}

/// Table 2 of the paper: `PHomL(row, col)` — labeled connected queries.
pub fn table2(row: ConnClass, col: ConnClass) -> CellStatus {
    use ConnClass::*;
    match col {
        OneWayPath | TwoWayPath => CellStatus::PTime(Prop::P4_11),
        DownwardTree => match row {
            OneWayPath => CellStatus::PTime(Prop::P4_10),
            TwoWayPath => CellStatus::Hard(Prop::P4_5),
            DownwardTree => CellStatus::Hard(Prop::P4_4),
            _ => CellStatus::HardByInclusion(&[Prop::P4_4, Prop::P4_5]),
        },
        Polytree => match row {
            OneWayPath => CellStatus::Hard(Prop::P4_1),
            _ => CellStatus::HardByInclusion(&[Prop::P4_1]),
        },
        General => CellStatus::Hard(Prop::P5_1),
    }
}

/// Table 3 of the paper: `PHom̸L(row, col)` — unlabeled connected queries.
pub fn table3(row: ConnClass, col: ConnClass) -> CellStatus {
    use ConnClass::*;
    match col {
        OneWayPath | TwoWayPath => CellStatus::PTime(Prop::P4_11),
        DownwardTree => CellStatus::PTime(Prop::P3_6),
        Polytree => match row {
            OneWayPath => CellStatus::PTime(Prop::P5_4),
            DownwardTree => CellStatus::PTime(Prop::P5_5),
            TwoWayPath => CellStatus::Hard(Prop::P5_6),
            _ => CellStatus::HardByInclusion(&[Prop::P5_6]),
        },
        General => CellStatus::Hard(Prop::P5_1),
    }
}

/// Looks up the appropriate table.
pub fn lookup(table: TableId, row: ConnClass, col: ConnClass) -> CellStatus {
    match table {
        TableId::T1UnlabeledDisconnected => table1(row, col),
        TableId::T2LabeledConnected => table2(row, col),
        TableId::T3UnlabeledConnected => table3(row, col),
        // Hard already for ⊔1WP queries on 1WP instances (Prop 3.3); as
        // in Tables 1–3, the Connected column cites Prop 5.1.
        TableId::LabeledDisconnected => match (row, col) {
            (_, ConnClass::General) => CellStatus::Hard(Prop::P5_1),
            (ConnClass::OneWayPath, ConnClass::OneWayPath) => CellStatus::Hard(Prop::P3_3),
            _ => CellStatus::HardByInclusion(&[Prop::P3_3]),
        },
    }
}

/// One cell of a table.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Cell {
    /// The table.
    pub table: TableId,
    /// The query class (`⊔row` when [`TableId::union_rows`]).
    pub row: ConnClass,
    /// The instance class (its disjoint unions included).
    pub col: ConnClass,
    /// What the table says about the cell.
    pub status: CellStatus,
}

impl Cell {
    /// Names the cell for an input whose instance is connected or not,
    /// e.g. `labeled query (2WP) on connected instance (DWT)`.
    pub fn describe(&self, connected_instance: bool) -> String {
        format!(
            "{} query ({}) on {} instance ({})",
            match self.table.setting() {
                Setting::Labeled => "labeled",
                Setting::Unlabeled => "unlabeled",
            },
            class_name(self.row, self.table.union_rows()),
            if connected_instance {
                "connected"
            } else {
                "disconnected"
            },
            class_name(self.col, !connected_instance),
        )
    }
}

/// The cell of an input in `setting` whose query and instance classify as
/// `query` and `instance`. An input lies in every cell whose row holds
/// the query and whose column holds the instance's components; the one
/// preference among them is fixed here: a PTIME cell before a hard one,
/// PTIME cells by proposition, 3.6 before 4.11, 4.10, 5.4 and 5.5 (so an
/// unlabeled query on a `⊔DWT` instance runs Prop 3.6 even where the 1WP
/// or 2WP column offers 4.11), then the most specific row and column.
pub fn cell(query: &Classification, instance: &Classification, setting: Setting) -> Cell {
    let table = match (setting, query.is_connected()) {
        (Setting::Labeled, true) => TableId::T2LabeledConnected,
        (Setting::Labeled, false) => TableId::LabeledDisconnected,
        (Setting::Unlabeled, true) => TableId::T3UnlabeledConnected,
        (Setting::Unlabeled, false) => TableId::T1UnlabeledDisconnected,
    };
    // `flags` is the meet over components, so membership is `⊔`-class
    // membership (and plain membership for a connected graph).
    let members = |flags: ClassFlags| CLASSES.into_iter().filter(move |&k| flags.member(k));
    members(query.flags)
        .flat_map(|row| {
            members(instance.flags).map(move |col| Cell {
                table,
                row,
                col,
                status: lookup(table, row, col),
            })
        })
        .min_by_key(|c| c.status.rank())
        .expect("every graph is in the General row and column")
}

#[cfg(test)]
mod tests {
    use super::*;
    use ConnClass::*;

    #[test]
    fn table1_border_cells_match_paper() {
        // The numbered border cells of Table 1.
        assert_eq!(table1(OneWayPath, General), CellStatus::Hard(Prop::P5_1));
        assert_eq!(table1(TwoWayPath, TwoWayPath), CellStatus::Hard(Prop::P3_4));
        assert_eq!(
            table1(DownwardTree, Polytree),
            CellStatus::PTimeAfterCollapse(Prop::P5_4)
        );
        assert_eq!(table1(General, DownwardTree), CellStatus::PTime(Prop::P3_6));
    }

    #[test]
    fn table2_border_cells_match_paper() {
        assert_eq!(
            table2(OneWayPath, DownwardTree),
            CellStatus::PTime(Prop::P4_10)
        );
        assert_eq!(table2(OneWayPath, Polytree), CellStatus::Hard(Prop::P4_1));
        assert_eq!(
            table2(TwoWayPath, DownwardTree),
            CellStatus::Hard(Prop::P4_5)
        );
        assert_eq!(
            table2(DownwardTree, DownwardTree),
            CellStatus::Hard(Prop::P4_4)
        );
        assert_eq!(table2(General, TwoWayPath), CellStatus::PTime(Prop::P4_11));
    }

    #[test]
    fn table3_border_cells_match_paper() {
        assert_eq!(table3(OneWayPath, General), CellStatus::Hard(Prop::P5_1));
        assert_eq!(table3(TwoWayPath, Polytree), CellStatus::Hard(Prop::P5_6));
        assert_eq!(
            table3(DownwardTree, Polytree),
            CellStatus::PTime(Prop::P5_5)
        );
        assert_eq!(table3(OneWayPath, Polytree), CellStatus::PTime(Prop::P5_4));
        assert_eq!(table3(General, DownwardTree), CellStatus::PTime(Prop::P3_6));
        assert_eq!(table3(General, TwoWayPath), CellStatus::PTime(Prop::P4_11));
    }

    /// Monotonicity along the Figure 2 inclusions: growing the query or
    /// instance class can only lose tractability.
    #[test]
    fn tables_are_monotone_under_inclusion() {
        fn includes(a: ConnClass, b: ConnClass) -> bool {
            // a ⊆ b per Figure 2.
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
        for id in [
            TableId::T1UnlabeledDisconnected,
            TableId::T2LabeledConnected,
            TableId::T3UnlabeledConnected,
            TableId::LabeledDisconnected,
        ] {
            let table = |row, col| lookup(id, row, col);
            for r1 in CLASSES {
                for c1 in CLASSES {
                    for r2 in CLASSES {
                        for c2 in CLASSES {
                            if includes(r1, r2) && includes(c1, c2) && table(r2, c2).is_ptime() {
                                assert!(
                                    table(r1, c1).is_ptime(),
                                    "({r1:?},{c1:?}) must be PTIME since ({r2:?},{c2:?}) is"
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    /// Table 3 is the unlabeled refinement of Table 2: every cell PTIME in
    /// Table 2 stays PTIME in Table 3 (labels only make things harder).
    #[test]
    fn unlabeled_is_no_harder_than_labeled() {
        for r in CLASSES {
            for c in CLASSES {
                if table2(r, c).is_ptime() {
                    assert!(table3(r, c).is_ptime(), "({r:?},{c:?})");
                }
            }
        }
    }

    /// `tests/complexity_atlas.rs` accepts any citation whose statement
    /// justifies a cell. Where several propositions do, the tables keep
    /// the paper's choice (and Prop 3.3 for the labeled disconnected
    /// setting).
    #[test]
    fn cells_with_several_justifications_cite_the_papers_choice() {
        assert_eq!(table1(TwoWayPath, General), CellStatus::Hard(Prop::P5_1));
        assert_eq!(table1(Polytree, General), CellStatus::Hard(Prop::P5_1));
        assert_eq!(
            table2(OneWayPath, OneWayPath),
            CellStatus::PTime(Prop::P4_11)
        );
        assert_eq!(table2(Polytree, General), CellStatus::Hard(Prop::P5_1));
        assert_eq!(
            table2(General, DownwardTree),
            CellStatus::HardByInclusion(&[Prop::P4_4, Prop::P4_5])
        );
        assert_eq!(
            table2(General, Polytree),
            CellStatus::HardByInclusion(&[Prop::P4_1])
        );
        assert_eq!(
            table3(OneWayPath, OneWayPath),
            CellStatus::PTime(Prop::P4_11)
        );
        for row in CLASSES {
            for col in CLASSES {
                let expected = if col == General {
                    Prop::P5_1
                } else {
                    Prop::P3_3
                };
                let status = lookup(TableId::LabeledDisconnected, row, col);
                assert_eq!(status.prop(), expected, "({row:?}, {col:?})");
            }
        }
    }

    #[test]
    fn class_names() {
        assert_eq!(class_name(OneWayPath, true), "⊔1WP");
        assert_eq!(class_name(General, true), "All");
        assert_eq!(class_name(General, false), "Connected");
        assert_eq!(class_name(Polytree, false), "PT");
    }
}
