//! # pmm-algs — communication-optimal parallel matmul algorithms
//!
//! Executable, fully metered implementations of parallel matrix
//! multiplication on the simulated distributed machine
//! ([`pmm_simnet`]). The six [`AlgPlan`](pmm_model::AlgPlan)s run on four
//! algorithm bodies — Algorithm 1, 2.5D, SUMMA and CARMA — because two
//! plans are special cases of others: streamed Algorithm 1 with one slab
//! is Algorithm 1, and 2.5D with one layer is Cannon.
//!
//! * [`grid3d`] — **Algorithm 1** of the paper: two All-Gathers and one
//!   Reduce-Scatter on a `p1 × p2 × p3` logical grid. With the §5.2
//!   optimal grid it attains the Theorem 3 lower bound *exactly* —
//!   the tightness half of the paper — which the tests and the
//!   `tightness` experiment verify to the word. An ablation variant
//!   assembles `C` with All-to-All + local summation (the Agarwal et al.
//!   1995 style) instead of Reduce-Scatter. Its body loops over slabs of
//!   the contracted dimension and runs one.
//! * [`streamed`] — the §6.2 low-memory variant of Algorithm 1: the same
//!   body run with `t` slabs, same words, more messages.
//! * [`mod@twofived`] — the 2.5D algorithm of Solomonik & Demmel 2011 with
//!   replication factor `c` (memory-for-communication trade-off).
//! * [`mod@cannon`] — Cannon's algorithm on a square `√P × √P` grid (classic
//!   2D baseline): 2.5D with `c = 1`.
//! * [`mod@summa`] — SUMMA on a general `pr × pc` grid (the standard library
//!   algorithm baseline, broadcast-based).
//! * [`recursive`] — the CARMA-style recursive algorithm (Demmel et al.
//!   2013), executed; `pmm-model` prices it
//!   ([`plan_prediction`](pmm_model::plan_prediction)) by the same split
//!   rule ([`carma_split_dim`](pmm_model::carma_split_dim)).
//! * [`recovery`] — the one executor [`run_plan_a`], which runs any
//!   [`AlgPlan`](pmm_model::AlgPlan) (one of the six algorithms with its
//!   layout) on any large enough communicator, and algorithm-agnostic
//!   checkpointed failure recovery ([`run_recoverable_a`]) on top of it:
//!   checkpoint ring, typed rank-failure detection, re-plan onto the
//!   survivors, redistribute, resume.
//! * [`inputs`] — the one harness that executes a plan ([`Inputs`]): a
//!   problem's inputs generated once and shared by every rank, ranks
//!   hosted on the event loop, healthy or under recovery, and the one
//!   certificate every run is held to ([`Inputs::check`],
//!   [`Inputs::check_recovered`]).
//!
//! Every executed algorithm consumes the *initial distribution* it
//! specifies (each rank extracts only its owned part of the input),
//! returns its owned part of `C`, and reports per-phase traffic meters.
//! [`Inputs`] reassembles the distributed output ([`assemble_recovered`])
//! and compares it bit-for-bit against the serial oracle on
//! integer-valued inputs, its goodput with the plan's price, and each
//! Algorithm 1 rank's phase meters with its integer eq. (3) price.

#![warn(missing_docs)]

pub mod cannon;
pub mod common;
pub mod grid3d;
pub mod inputs;
pub mod recovery;
pub mod recursive;
pub mod streamed;
pub mod summa;
pub mod twofived;

pub use cannon::{cannon, CannonConfig, CannonOutput};
pub use common::{assemble_from_blocks, fiber_comms_a, fiber_comms_on_a, PhaseMeter, PhaseProbe};
pub use grid3d::{
    alg1, alg1_a, alg1_on_a, assemble_c, check_alg1_price, Alg1Config, Alg1Output, Assembly,
    ALG1_PHASES,
};
pub use inputs::{words_vs_bound, Inputs};
pub use recovery::{
    assemble_recovered, plan_for, run_plan_a, run_recoverable_a, CShare, Recovered,
};
pub use recursive::{carma, carma_a, carma_assemble_c, carma_shares};
pub use streamed::alg1_streamed;
pub use summa::{near_square_factors, summa, summa_on_a, SummaConfig, SummaOutput};
pub use twofived::{twofived, twofived_on_a, TwoFiveDConfig, TwoFiveDOutput};
