//! The paper's Tables 1–3 as data: the complete combined-complexity
//! classification of `PHom` for the query/instance classes of Figure 2.
//!
//! These tables drive the consistency checks: the dispatcher of
//! [`crate::solver`] must solve every input drawn from a PTIME cell, and
//! may only report hardness for inputs in #P-hard cells.
//! `examples/complexity_atlas.rs`, which CI runs, checks them: it solves
//! a sample of every PTIME cell against brute force and checks that each
//! hard cell's witness is refused.

use phom_graph::ConnClass;

/// Labeled (|σ| > 1) vs unlabeled (|σ| = 1) setting.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Setting {
    /// `PHomL`.
    Labeled,
    /// `PHom̸L`.
    Unlabeled,
}

/// Which of the paper's three tables a cell belongs to.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TableId {
    /// Table 1: `PHom̸L` for disconnected queries (rows are `⊔C` classes).
    T1UnlabeledDisconnected,
    /// Table 2: `PHomL` for connected queries.
    T2LabeledConnected,
    /// Table 3: `PHom̸L` for connected queries.
    T3UnlabeledConnected,
}

/// The status of a table cell.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CellStatus {
    /// Polynomial-time, with the proposition establishing it.
    PTime(&'static str),
    /// #P-hard, with the proposition establishing it.
    Hard(&'static str),
}

impl CellStatus {
    /// True iff the cell is tractable.
    pub fn is_ptime(self) -> bool {
        matches!(self, CellStatus::PTime(_))
    }

    /// The proposition string.
    pub fn prop(self) -> &'static str {
        match self {
            CellStatus::PTime(p) | CellStatus::Hard(p) => p,
        }
    }
}

/// The row/column headers of all three tables, in paper order.
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
        OneWayPath | DownwardTree => CellStatus::PTime("Prop 3.6"),
        // Connected instances: hard already for ⊔1WP (indeed 1WP) queries.
        General => CellStatus::Hard("Prop 5.1"),
        TwoWayPath => match row {
            // ⊔1WP/⊔DWT queries collapse to a 1WP, then Prop 4.11 applies.
            OneWayPath | DownwardTree => CellStatus::PTime("Prop 5.5 + Prop 4.11"),
            _ => CellStatus::Hard("Prop 3.4"),
        },
        Polytree => match row {
            OneWayPath | DownwardTree => CellStatus::PTime("Prop 5.5 + Prop 5.4"),
            _ => CellStatus::Hard("Prop 3.4 (by inclusion)"),
        },
    }
}

/// Table 2 of the paper: `PHomL(row, col)` — labeled connected queries.
pub fn table2(row: ConnClass, col: ConnClass) -> CellStatus {
    use ConnClass::*;
    match col {
        OneWayPath | TwoWayPath => CellStatus::PTime("Prop 4.11"),
        DownwardTree => match row {
            OneWayPath => CellStatus::PTime("Prop 4.10"),
            TwoWayPath => CellStatus::Hard("Prop 4.5"),
            DownwardTree => CellStatus::Hard("Prop 4.4"),
            _ => CellStatus::Hard("Props 4.4/4.5 (by inclusion)"),
        },
        Polytree => match row {
            OneWayPath => CellStatus::Hard("Prop 4.1"),
            _ => CellStatus::Hard("Prop 4.1 (by inclusion)"),
        },
        General => CellStatus::Hard("Prop 5.1"),
    }
}

/// Table 3 of the paper: `PHom̸L(row, col)` — unlabeled connected queries.
pub fn table3(row: ConnClass, col: ConnClass) -> CellStatus {
    use ConnClass::*;
    match col {
        OneWayPath | TwoWayPath => CellStatus::PTime("Prop 4.11"),
        DownwardTree => CellStatus::PTime("Prop 3.6"),
        Polytree => match row {
            OneWayPath => CellStatus::PTime("Prop 5.4"),
            DownwardTree => CellStatus::PTime("Prop 5.5"),
            TwoWayPath => CellStatus::Hard("Prop 5.6"),
            _ => CellStatus::Hard("Prop 5.6 (by inclusion)"),
        },
        General => CellStatus::Hard("Prop 5.1"),
    }
}

/// Looks up the appropriate table.
pub fn lookup(table: TableId, row: ConnClass, col: ConnClass) -> CellStatus {
    match table {
        TableId::T1UnlabeledDisconnected => table1(row, col),
        TableId::T2LabeledConnected => table2(row, col),
        TableId::T3UnlabeledConnected => table3(row, col),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ConnClass::*;

    #[test]
    fn table1_border_cells_match_paper() {
        // The numbered border cells of Table 1.
        assert_eq!(table1(OneWayPath, General), CellStatus::Hard("Prop 5.1"));
        assert_eq!(table1(TwoWayPath, TwoWayPath), CellStatus::Hard("Prop 3.4"));
        assert_eq!(
            table1(DownwardTree, Polytree),
            CellStatus::PTime("Prop 5.5 + Prop 5.4")
        );
        assert_eq!(table1(General, DownwardTree), CellStatus::PTime("Prop 3.6"));
    }

    #[test]
    fn table2_border_cells_match_paper() {
        assert_eq!(
            table2(OneWayPath, DownwardTree),
            CellStatus::PTime("Prop 4.10")
        );
        assert_eq!(table2(OneWayPath, Polytree), CellStatus::Hard("Prop 4.1"));
        assert_eq!(
            table2(TwoWayPath, DownwardTree),
            CellStatus::Hard("Prop 4.5")
        );
        assert_eq!(
            table2(DownwardTree, DownwardTree),
            CellStatus::Hard("Prop 4.4")
        );
        assert_eq!(table2(General, TwoWayPath), CellStatus::PTime("Prop 4.11"));
    }

    #[test]
    fn table3_border_cells_match_paper() {
        assert_eq!(table3(OneWayPath, General), CellStatus::Hard("Prop 5.1"));
        assert_eq!(table3(TwoWayPath, Polytree), CellStatus::Hard("Prop 5.6"));
        assert_eq!(
            table3(DownwardTree, Polytree),
            CellStatus::PTime("Prop 5.5")
        );
        assert_eq!(table3(OneWayPath, Polytree), CellStatus::PTime("Prop 5.4"));
        assert_eq!(table3(General, DownwardTree), CellStatus::PTime("Prop 3.6"));
        assert_eq!(table3(General, TwoWayPath), CellStatus::PTime("Prop 4.11"));
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
        for table in [table1 as fn(_, _) -> _, table2, table3] {
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

    #[test]
    fn class_names() {
        assert_eq!(class_name(OneWayPath, true), "⊔1WP");
        assert_eq!(class_name(General, true), "All");
        assert_eq!(class_name(General, false), "Connected");
        assert_eq!(class_name(Polytree, false), "PT");
    }
}
