//! The per-proposition polynomial-time algorithms.
//!
//! Each module implements one tractability result of the paper and exposes
//! a function taking a query and a (suitably restricted) instance; the
//! [`crate::solver`] dispatcher is responsible for routing and for the
//! Lemma 3.7 component decomposition ([`components`]).

pub mod absorb;
pub mod collapse;
pub mod components;
pub mod connected_on_2wp;
pub mod dwt_instance;
pub mod lineage_circuits;
pub mod path_on_dwt;
pub mod path_on_pt;
pub mod walk_on_tw;
