//! The per-proposition polynomial-time algorithms.
//!
//! Each module implements one tractability result of the paper and exposes
//! a function taking a query and a (suitably restricted) instance; the
//! [`crate::solver`] dispatcher is responsible for routing and for the
//! Lemma 3.7 component decomposition ([`components`]).

use phom_graph::ProbGraph;
use phom_num::Weight;

pub mod absorb;
pub mod collapse;
pub mod components;
pub mod connected_on_2wp;
pub mod dwt_instance;
pub mod lineage_circuits;
pub mod path_on_dwt;
pub mod path_on_pt;
pub mod walk_on_tw;

/// The edge probabilities of `instance` over `W`, for the β-acyclic
/// lineage evaluators. A certain edge weighs an exact 1: a float
/// conversion would carry half an ulp of error, and its complement — an
/// inexact 0 — would reach the β-elimination's divisions.
pub(crate) fn lineage_weights<W: Weight>(instance: &ProbGraph) -> Vec<W> {
    instance
        .probs()
        .iter()
        .map(|p| {
            if p.is_one() {
                W::one()
            } else {
                W::from_rational(p)
            }
        })
        .collect()
}
