//! # pmm-model — the α-β-γ parallel machine model
//!
//! This crate defines the vocabulary shared by every other crate in the
//! workspace: the **cost algebra** of the α-β-γ distributed-memory machine
//! model (§3.1 of the paper), **3-dimensional logical processor grids** with
//! their fibers and planes (§5), and **matrix-multiplication dimension
//! triples** together with the paper's three-case classification
//! (Theorem 3). It is also the one cost model of the workspace: what each
//! collective schedule costs ([`collective`], with the one rule each
//! `Auto` selector resolves by) and what a run of each [`AlgPlan`] costs
//! ([`predict`]), which the advisor ranks and the executed runs are held
//! to.
//!
//! The machine model: `P` processors, each with local memory, connected by a
//! fully connected network of bidirectional links. A message of `w` words
//! costs `α + βw`; a flop costs `γ`. Costs are accounted along the critical
//! path: communication happening simultaneously between disjoint pairs of
//! processors overlaps, sequential phases add.
//!
//! Nothing in this crate allocates per-element data or performs
//! communication; it is pure bookkeeping, shared by the simulator
//! (`pmm-simnet`), the bound formulas (`pmm-core`) and the algorithms
//! (`pmm-algs`).

#![warn(missing_docs)]

pub mod calib;
pub mod collective;
pub mod cost;
pub mod dims;
pub mod grid;
pub mod predict;

pub use calib::{fit_affine, fit_through_origin, MachineCalibration};
pub use collective::Traffic;
pub use cost::{Cost, MachineParams};
pub use dims::{Case, MatMulDims, MatrixId, SortedDims};
pub use grid::{divisors, Coord3, Grid3};
pub use predict::{
    alg1_prediction, alg1_price, carma_split_dim, plan_prediction, recovery_prediction,
    restore_words_total, summa_panels, Alg1Prediction, AlgPlan, AttemptPrediction, PlanPrediction,
    RecoveryPrediction,
};
