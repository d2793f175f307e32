//! # pmm-collectives — MPI-style collectives on the simulated machine
//!
//! Algorithm 1 of the paper is built from three collective operations: two
//! **All-Gathers** (inputs) and one **Reduce-Scatter** (output). Its cost
//! analysis (§5.1) assumes the *bandwidth-optimal* algorithms for these
//! collectives — bidirectional exchange / recursive doubling & halving —
//! whose cost on `p` processors is `(1 − 1/p)·w` words, where `w` is the
//! data held by each processor after the All-Gather (resp. before the
//! Reduce-Scatter) (Thakur et al. 2005; Chan et al. 2007).
//!
//! This crate implements those collectives, plus the ones the baselines
//! and ablations run — broadcast (SUMMA; binomial, or van de Geijn's
//! scatter–all-gather), reduce (2.5D), all-to-all (the assembly ablation)
//! and all-reduce — as *executable message-passing programs* over
//! [`pmm_simnet`]. Each is paired with a **closed-form cost model** in
//! [`pmm_model::collective`], which also holds the algorithm selectors
//! and the one rule each `Auto` selector resolves by. Tests assert that
//! the measured meters of the executed collective match the closed form
//! exactly — that agreement is what lets the bound-tightness experiments
//! trust the simulator.
//!
//! All "v" (vector) variants follow the MPI convention that every rank
//! knows every member's count a priori. The counts are a [`Counts`]:
//! `Counts::Even(total)` splits `total` words as
//! `pmm_dense::block_range` does — what Algorithm 1, all-reduce and the
//! uniform wrappers pass, and what a collective then holds as a base and
//! a remainder, with no vector per member — while a `&[usize]` (or
//! `&Vec<usize>`) names one count per member. The two forms give the
//! same values, meters and clocks (`tests/proptests.rs` holds them
//! against each other).
//!
//! ## Passing a buffer
//!
//! Every collective that needs a buffer of its own to start from — the
//! result on a one-member communicator, the accumulator of a reduction,
//! the root's tree buffer — takes its data as
//! `impl Into<Cow<'_, [f64]>>`, so the argument's type says whether the
//! caller is done with it. A borrowed `&[f64]`, `&Vec<f64>` or
//! `&[f64; N]` is copied into that buffer and stays the caller's. A
//! `Vec<f64>` passed by value *is* that buffer: it is returned as is on a
//! one-member communicator, summed into in place by a reduction, and
//! freed as soon as the collective has read it otherwise — no word of it
//! is held twice on the host. Meters, clocks, traces and results are the
//! same either way (`tests/proptests.rs` holds the two forms against each
//! other); only the host allocation differs.
//!
//! ## Example
//!
//! ```
//! use pmm_simnet::{World, MachineParams};
//! use pmm_collectives::{all_gather_a, AllGatherAlgo};
//!
//! let out = World::new(4, MachineParams::BANDWIDTH_ONLY).run_async(|rank| {
//!     Box::pin(async move {
//!         let comm = rank.world_comm();
//!         let mine = [rank.world_rank() as f64; 2];
//!         all_gather_a(rank, &comm, &mine, AllGatherAlgo::Auto).await
//!     })
//! });
//! assert_eq!(out.values[3], vec![0.0, 0.0, 1.0, 1.0, 2.0, 2.0, 3.0, 3.0]);
//! // bandwidth-optimal: each rank moves (1 - 1/p) * W = 6 words
//! assert_eq!(out.reports[0].meter.words_sent, 6);
//! ```

#![warn(missing_docs)]

pub mod allgather;
pub mod allreduce;
pub mod alltoall;
pub mod bcast;
mod counts;
pub mod reduce;
pub mod reduce_scatter;
pub(crate) mod scatter;
pub(crate) mod util;

pub use allgather::{all_gather_a, all_gather_v_a};
pub use allreduce::all_reduce_a;
pub use alltoall::all_to_all_a;
pub use bcast::bcast_a;
pub use counts::Counts;
pub use pmm_model::collective::{AllGatherAlgo, BcastAlgo, ReduceScatterAlgo};
pub use reduce::reduce_a;
pub use reduce_scatter::{reduce_scatter_a, reduce_scatter_v_a};
