//! # pmm-core — tight memory-independent communication lower bounds
//!
//! This crate implements the contribution of
//!
//! > H. Al Daas, G. Ballard, L. Grigori, S. Kumar, K. Rouse.
//! > *Brief Announcement: Tight Memory-Independent Parallel Matrix
//! > Multiplication Communication Lower Bounds.* SPAA 2022.
//!
//! For a classical matmul of an `n1 × n2` by an `n2 × n3` matrix on `P`
//! processors, with sorted dimensions `m ≥ n ≥ k`, any algorithm that
//! starts with one copy of the inputs, ends with one copy of the output,
//! and load balances computation or data must communicate at least
//! `D − (mn + mk + nk)/P` words, where (Theorem 3)
//!
//! ```text
//!       ⎧ (mn + mk)/P + nk          if 1 ≤ P ≤ m/n          (1D case)
//!   D = ⎨ 2·(mnk²/P)^{1/2} + mn/P   if m/n ≤ P ≤ mn/k²      (2D case)
//!       ⎩ 3·(mnk/P)^{2/3}           if mn/k² ≤ P            (3D case)
//! ```
//!
//! and the constants (1, 2, 3 on the leading terms) are **tight**: the
//! All-Gather/Reduce-Scatter algorithm on the optimal processor grid
//! (§5, implemented in `pmm-algs`) attains them exactly.
//!
//! Module map (paper section → module):
//!
//! | paper | module |
//! |-------|--------|
//! | Lemma 1 (Loomis–Whitney) | [`loomis`] |
//! | Lemma 1 §4.1 (per-array access bounds) | [`lemma1`] |
//! | Lemma 2 (key optimization problem) | [`optproblem`], [`numeric`] |
//! | Defs 2–4, Lemmas 5–6 (KKT machinery) | [`kkt`] |
//! | Theorem 3, Corollary 4 | [`theorem3`] |
//! | Table 1 (prior constants) | [`prior`] |
//! | §5.1 eq. (3), §5.2 grid selection | [`gridopt`] |
//! | §6.2 limited-memory scenarios | [`memlimit`] |
//! | §6.3 generalization (any arrays/exponents) | [`genbound`] |
//! | bounds → strategy choice (extension) | [`advisor`] |

pub mod advisor;
pub mod genbound;
pub mod gridopt;
pub mod kkt;
pub mod lemma1;
pub mod loomis;
pub mod memlimit;
pub mod numeric;
pub mod optproblem;
pub mod prior;
pub mod theorem3;

pub use advisor::{recommend, try_recommend, AdvisorError, Recommendation};
pub use genbound::{GenBoundProblem, GenBoundSolution};
pub use gridopt::{best_grid, continuous_grid, GridChoice};
pub use kkt::{certificate_for, verify_kkt, KktReport};
pub use optproblem::{OptProblem, OptSolution};
pub use theorem3::{cmp_bound, corollary4, lower_bound, BoundReport};

// Re-export the shared vocabulary.
pub use pmm_model::{Case, MatMulDims, MatrixId, SortedDims};
