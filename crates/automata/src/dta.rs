//! Bottom-up deterministic tree automata (Definition 5.2) and the two
//! path-length automata of Proposition 5.4.

use crate::utree::NodeLabel;
use std::fmt::Debug;
use std::hash::Hash;

/// A bottom-up deterministic automaton over full binary trees whose nodes
/// carry `(NodeLabel, bool)` — the label and the uncertain Boolean
/// annotation.
///
/// Rather than materializing the transition table `∆ : Γ̄ × Q² → Q` (the
/// state space of the path automaton is polynomial but large), transitions
/// are computed on demand; determinism is inherent since `leaf`/`internal`
/// are functions.
pub trait TreeAutomaton {
    /// The state type.
    type State: Clone + Eq + Hash + Ord + Debug;

    /// ι: the state of a leaf from its `(label, bit)`.
    fn leaf(&self, label: NodeLabel, present: bool) -> Self::State;

    /// ∆: the state of an internal node from its `(label, bit)` and the
    /// states of its two children.
    fn internal(
        &self,
        label: NodeLabel,
        present: bool,
        left: &Self::State,
        right: &Self::State,
    ) -> Self::State;

    /// Whether a root state is accepting.
    fn accepting(&self, state: &Self::State) -> bool;
}

/// The paper-faithful automaton of Prop 5.4: states `⟨↑: i, ↓: j, Max: k⟩`
/// with `0 ≤ i, j ≤ k ≤ m`, testing for a directed path of length `≥ m` in
/// the encoded polytree. Semantics at a node `n` with anchor vertex `p`
/// (the parent endpoint of `n`'s represented edge):
///
/// * `i` — longest present directed path in the processed subinstance
///   **ending at** `p`;
/// * `j` — longest present directed path **starting at** `p`;
/// * `k` — longest present directed path anywhere in the subinstance.
///
/// All three are capped at `m`.
#[derive(Clone, Copy, Debug)]
pub struct PathAutomaton {
    /// The target path length (`m ≥ 1`; `m = 0` is trivially true and is
    /// handled by callers).
    pub m: usize,
}

/// A state of [`PathAutomaton`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct PathState {
    /// Longest present path ending at the anchor.
    pub up: usize,
    /// Longest present path starting at the anchor.
    pub down: usize,
    /// Longest present path overall (capped).
    pub max: usize,
}

impl PathAutomaton {
    fn cap(&self, v: usize) -> usize {
        v.min(self.m)
    }
}

impl TreeAutomaton for PathAutomaton {
    type State = PathState;

    fn leaf(&self, label: NodeLabel, present: bool) -> PathState {
        match (label, present) {
            (_, false) | (NodeLabel::Eps, true) => PathState {
                up: 0,
                down: 0,
                max: 0,
            },
            (NodeLabel::Up, true) => PathState {
                up: self.cap(1),
                down: 0,
                max: self.cap(1),
            },
            (NodeLabel::Down, true) => PathState {
                up: 0,
                down: self.cap(1),
                max: self.cap(1),
            },
        }
    }

    fn internal(&self, label: NodeLabel, present: bool, l: &PathState, r: &PathState) -> PathState {
        // Joins through the shared child anchor: a path ending at it from
        // one child continues with a path starting at it from the other.
        // Same-child joins are already counted in that child's `max`.
        let cross = (l.up + r.down).max(r.up + l.down);
        let submax = l.max.max(r.max).max(cross);
        match (label, present) {
            // ε present: the child anchor *is* this node's anchor.
            (NodeLabel::Eps, true) => PathState {
                up: l.up.max(r.up),
                down: l.down.max(r.down),
                max: self.cap(submax),
            },
            (_, false) => PathState {
                up: 0,
                down: 0,
                max: self.cap(submax),
            },
            (NodeLabel::Up, true) => {
                let up = self.cap(l.up.max(r.up) + 1);
                PathState {
                    up,
                    down: 0,
                    max: self.cap(submax.max(up)),
                }
            }
            (NodeLabel::Down, true) => {
                let down = self.cap(l.down.max(r.down) + 1);
                PathState {
                    up: 0,
                    down,
                    max: self.cap(submax.max(down)),
                }
            }
        }
    }

    fn accepting(&self, s: &PathState) -> bool {
        s.max >= self.m
    }
}

/// The optimized automaton: `Max` only
/// matters through its final comparison with `m`, and paths that do not
/// touch the current anchor can never grow, so `k` collapses to a
/// *saturation bit*. States drop from `O(m³)` to `O(m²)`.
/// `tests::opt_automaton_agrees_pointwise` checks it against the paper's
/// automaton; the T3-ptime-a section of `tables` times both, and the
/// `prop54_opt_automaton` entry of `tables --json` gates this one.
#[derive(Clone, Copy, Debug)]
pub struct OptPathAutomaton {
    /// The target path length (`m ≥ 1`).
    pub m: usize,
}

/// A state of [`OptPathAutomaton`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct OptPathState {
    /// Longest present path ending at the anchor (capped at `m`).
    pub up: usize,
    /// Longest present path starting at the anchor (capped at `m`).
    pub down: usize,
    /// Whether a path of length ≥ m exists in the processed subinstance.
    pub sat: bool,
}

impl TreeAutomaton for OptPathAutomaton {
    type State = OptPathState;

    fn leaf(&self, label: NodeLabel, present: bool) -> OptPathState {
        match (label, present) {
            (_, false) | (NodeLabel::Eps, true) => OptPathState {
                up: 0,
                down: 0,
                sat: self.m == 0,
            },
            (NodeLabel::Up, true) => OptPathState {
                up: 1.min(self.m),
                down: 0,
                sat: self.m <= 1,
            },
            (NodeLabel::Down, true) => OptPathState {
                up: 0,
                down: 1.min(self.m),
                sat: self.m <= 1,
            },
        }
    }

    fn internal(
        &self,
        label: NodeLabel,
        present: bool,
        l: &OptPathState,
        r: &OptPathState,
    ) -> OptPathState {
        let cross = (l.up + r.down).max(r.up + l.down);
        let sat = l.sat || r.sat || cross >= self.m;
        match (label, present) {
            (_, false) => OptPathState {
                up: 0,
                down: 0,
                sat,
            },
            (NodeLabel::Eps, true) => OptPathState {
                up: l.up.max(r.up),
                down: l.down.max(r.down),
                sat,
            },
            (NodeLabel::Up, true) => {
                let up = (l.up.max(r.up) + 1).min(self.m);
                OptPathState {
                    up,
                    down: 0,
                    sat: sat || up >= self.m,
                }
            }
            (NodeLabel::Down, true) => {
                let down = (l.down.max(r.down) + 1).min(self.m);
                OptPathState {
                    up: 0,
                    down,
                    sat: sat || down >= self.m,
                }
            }
        }
    }

    fn accepting(&self, s: &OptPathState) -> bool {
        s.sat
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn leaf_table_matches_paper() {
        let a = PathAutomaton { m: 5 };
        // ι((s,0)) = ⟨0,0,0⟩ for any s; ι((−,1)) = ⟨0,0,0⟩;
        // ι((↑,1)) = ⟨1,0,1⟩; ι((↓,1)) = ⟨0,1,1⟩.
        for lbl in [NodeLabel::Up, NodeLabel::Down, NodeLabel::Eps] {
            assert_eq!(
                a.leaf(lbl, false),
                PathState {
                    up: 0,
                    down: 0,
                    max: 0
                }
            );
        }
        assert_eq!(
            a.leaf(NodeLabel::Eps, true),
            PathState {
                up: 0,
                down: 0,
                max: 0
            }
        );
        assert_eq!(
            a.leaf(NodeLabel::Up, true),
            PathState {
                up: 1,
                down: 0,
                max: 1
            }
        );
        assert_eq!(
            a.leaf(NodeLabel::Down, true),
            PathState {
                up: 0,
                down: 1,
                max: 1
            }
        );
    }

    #[test]
    fn up_transition_matches_paper() {
        // ∆((↑,1), ⟨i,j,k⟩, ⟨i′,j′,k′⟩) = ⟨min(m, max(i,i′)+1), 0, k″⟩ with
        // k″ = min(m, max(i″, i+j′, i′+j, k, k′)).
        let a = PathAutomaton { m: 10 };
        let s1 = PathState {
            up: 2,
            down: 3,
            max: 4,
        };
        let s2 = PathState {
            up: 1,
            down: 5,
            max: 5,
        };
        let out = a.internal(NodeLabel::Up, true, &s1, &s2);
        assert_eq!(out.up, 3);
        assert_eq!(out.down, 0);
        // cross = max(2+5, 1+3) = 7; k″ = max(3, 7, 4, 5) = 7.
        assert_eq!(out.max, 7);
    }

    #[test]
    fn eps_cross_value() {
        let a = PathAutomaton { m: 10 };
        let s1 = PathState {
            up: 2,
            down: 1,
            max: 3,
        };
        let s2 = PathState {
            up: 4,
            down: 2,
            max: 4,
        };
        let out = a.internal(NodeLabel::Eps, true, &s1, &s2);
        // cross = max(l.up + r.down, r.up + l.down) = max(4, 5) = 5.
        assert_eq!(out.max, 5);
        assert_eq!(out.up, 4);
        assert_eq!(out.down, 2);
    }

    #[test]
    fn absent_node_disconnects_anchor() {
        let a = PathAutomaton { m: 10 };
        let s1 = PathState {
            up: 2,
            down: 3,
            max: 4,
        };
        let s2 = PathState {
            up: 1,
            down: 5,
            max: 5,
        };
        let out = a.internal(NodeLabel::Up, false, &s1, &s2);
        assert_eq!(out.up, 0);
        assert_eq!(out.down, 0);
        assert_eq!(out.max, 7); // joins below the anchor survive
    }

    #[test]
    fn capping_at_m() {
        let a = PathAutomaton { m: 3 };
        let s = PathState {
            up: 3,
            down: 0,
            max: 3,
        };
        let z = PathState {
            up: 0,
            down: 0,
            max: 0,
        };
        let out = a.internal(NodeLabel::Up, true, &s, &z);
        assert_eq!(
            out,
            PathState {
                up: 3,
                down: 0,
                max: 3
            }
        );
        assert!(a.accepting(&out));
    }

    #[test]
    fn opt_automaton_agrees_pointwise() {
        // The Opt automaton simulates the paper automaton: up/down equal,
        // sat ⟺ max = m. Checked here on composed transitions.
        let m = 3;
        let a = PathAutomaton { m };
        let o = OptPathAutomaton { m };
        let labels = [NodeLabel::Up, NodeLabel::Down, NodeLabel::Eps];
        let mut pairs: Vec<(PathState, OptPathState)> = Vec::new();
        for lbl in labels {
            for b in [true, false] {
                pairs.push((a.leaf(lbl, b), o.leaf(lbl, b)));
            }
        }
        for _ in 0..2 {
            let snapshot = pairs.clone();
            for (s1, t1) in &snapshot {
                for (s2, t2) in &snapshot {
                    for lbl in labels {
                        for b in [true, false] {
                            let s = a.internal(lbl, b, s1, s2);
                            let t = o.internal(lbl, b, t1, t2);
                            assert_eq!(s.up, t.up);
                            assert_eq!(s.down, t.down);
                            assert_eq!(s.max >= m, t.sat);
                            pairs.push((s, t));
                        }
                    }
                }
            }
            pairs.sort();
            pairs.dedup();
        }
    }
}
