//! # pmm-dense — dense matrix substrate
//!
//! Row-major `f64` matrices, block partitioning, and local matmul kernels:
//! the "γ side" of the α-β-γ model. Every parallel algorithm in
//! `pmm-algs` stores its local blocks as [`Matrix`] values, extracts and
//! inserts sub-blocks with the [`partition`] helpers, and multiplies them
//! with a [`kernels`] kernel — which reads either operand through a row
//! stride ([`MatRef`]), so a block can also be multiplied where it lies in
//! a larger matrix ([`Block2::view`]).
//!
//! The kernels form a tiered stack selected by [`Kernel`] (or the
//! `PMM_KERNEL` environment variable via [`kernel_from_env`]): the pinned
//! naive oracle, a packed-panel register-tiled microkernel GEMM, and an
//! `Auto` tier that picks between the two by the product's shape. All
//! tiers accumulate each output element over the contracted index in the
//! same order, so their products are **bitwise identical** — tier choice
//! can never alter a simulated run's verified product, meters, or traces.
//! Measured GFLOP/s per tier and the fitted γ live in
//! `BENCH_kernels.json` (see `docs/PERFORMANCE.md`).

#![warn(missing_docs)]

#[cfg(all(target_arch = "x86_64", target_feature = "avx512f", target_feature = "fma"))]
mod avx512;
mod blocked;

pub mod gen;
pub mod kernels;
pub mod matrix;
pub mod partition;

pub use blocked::{fma_peak_gflops, FMA_VECTOR_BITS};
pub use gen::{constant_matrix, identity, random_int_matrix, random_matrix};
pub use kernels::{gemm, gemm_acc, kernel_from_env, Kernel, KERNEL_ENV};
pub use matrix::{MatRef, Matrix};
pub use partition::{block_len, block_range, chunk_of_block, Block2};
