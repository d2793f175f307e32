//! # pmm — tight memory-independent parallel matmul communication bounds
//!
//! A full implementation of
//!
//! > H. Al Daas, G. Ballard, L. Grigori, S. Kumar, K. Rouse.
//! > *Brief Announcement: Tight Memory-Independent Parallel Matrix
//! > Multiplication Communication Lower Bounds.* SPAA 2022.
//!
//! together with everything needed to *exercise* it: a metered simulated
//! distributed-memory machine, bandwidth-optimal collectives, a dense
//! matrix substrate, the paper's Algorithm 1 plus classic baselines
//! (Cannon, SUMMA, 2.5D, recursive), and experiment harnesses that
//! regenerate every table and figure.
//!
//! ## Quick start
//!
//! ```
//! use pmm::prelude::*;
//! use std::sync::Arc;
//!
//! // 1. What does Theorem 3 say for this problem? (The paper's §5.3
//! //    instance scaled 12.5× down; same aspect ratios, same grids.)
//! let dims = MatMulDims::new(768, 192, 48);
//! let report = lower_bound(dims, 36.0);
//! assert_eq!(report.case, Case::TwoD);
//!
//! // 2. Which processor grid attains it?
//! let grid = best_grid(dims, 36);
//! assert_eq!(grid.grid, [12, 3, 1]);
//!
//! // 3. Run Algorithm 1 on a simulated 36-rank machine (the global inputs
//! //    are built once and shared; every rank reads its own chunks) and
//! //    check that the measured communication equals the bound exactly.
//! let cfg = Alg1Config::new(dims, grid.grid3());
//! let ab = Arc::new((random_matrix(768, 192, 1), random_matrix(192, 48, 2)));
//! let out = World::new(36, MachineParams::BANDWIDTH_ONLY).run_async(|rank| {
//!     let (cfg, ab) = (cfg.clone(), Arc::clone(&ab));
//!     Box::pin(async move { alg1_a(rank, &cfg, &ab.0, &ab.1).await })
//! });
//! let measured = out.critical_path_time();
//! assert_eq!(words_vs_bound(dims, 36, measured), std::cmp::Ordering::Equal);
//! ```
//!
//! ## Crate map
//!
//! | crate | role |
//! |-------|------|
//! | [`model`] (`pmm-model`) | α-β-γ cost algebra, grids, dimensions |
//! | [`simnet`] (`pmm-simnet`) | metered simulated distributed machine |
//! | [`collectives`] (`pmm-collectives`) | All-Gather, Reduce-Scatter, … |
//! | [`dense`] (`pmm-dense`) | matrices, partitioning, local kernels |
//! | [`bounds`] (`pmm-core`) | **the paper**: Lemma 2, Theorem 3, grids |
//! | [`algs`] (`pmm-algs`) | Algorithm 1 + Cannon/SUMMA/2.5D baselines |
//! | [`explore`] (`pmm-explore`) | schedule-space exploration + program synthesis |
//! | [`serve`] (`pmm-serve`) | hardened line-protocol advisor service (`pmm serve`) |

pub use pmm_algs as algs;
pub use pmm_collectives as collectives;
pub use pmm_core as bounds;
pub use pmm_dense as dense;
pub use pmm_explore as explore;
pub use pmm_model as model;
pub use pmm_serve as serve;
pub use pmm_simnet as simnet;

/// One-stop imports for the common workflow (bounds → grid → simulated
/// run).
pub mod prelude {
    pub use pmm_algs::{
        alg1_a, assemble_c, assemble_from_blocks, assemble_recovered, carma_a, carma_assemble_c,
        carma_shares, check_alg1_price, near_square_factors, plan_for, run_plan_a,
        run_recoverable_a, words_vs_bound, Alg1Config, Alg1Output, Assembly, CShare, CannonConfig,
        Inputs, Recovered, SummaConfig, TwoFiveDConfig, ALG1_PHASES,
    };
    pub use pmm_collectives::{
        all_gather_a, all_reduce_a, bcast_a, reduce_scatter_a, AllGatherAlgo, BcastAlgo,
        ReduceScatterAlgo,
    };
    pub use pmm_core::advisor::{recommend, Recommendation};
    pub use pmm_core::genbound::{GenBoundProblem, GenBoundSolution};
    pub use pmm_core::gridopt::{best_divisible_grid, best_grid};
    pub use pmm_core::memlimit::{alg1_memory_words, limited_memory_report, min_memory_words};
    pub use pmm_core::optproblem::{OptProblem, OptSolution};
    pub use pmm_core::prior::{MemDependentBound, PriorBound};
    pub use pmm_core::theorem3::{cmp_bound, corollary4, lower_bound, BoundReport};
    pub use pmm_dense::{gemm, random_int_matrix, random_matrix, Kernel, Matrix};
    pub use pmm_model::{
        alg1_prediction, alg1_price, alg1_relayed, plan_prediction, recovery_prediction,
        restore_words_total, Alg1Prediction, AlgPlan, AttemptPrediction, Case, Cost, Grid3,
        MachineParams, MatMulDims, MatrixId, PlanPrediction, RecoveryPrediction, SortedDims,
        Traffic,
    };
    // `Strategy` is aliased so the prelude can coexist with proptest's
    // `Strategy` trait in downstream glob imports.
    pub use pmm_explore::{
        explore, explore_checked, explore_outcomes, ExploreConfig, ExploreReport, ScheduleFailure,
        Strategy as ExploreStrategy,
    };
    pub use pmm_simnet::{
        fuzz_schedules, schedule_from_env, seed_from_env, Attribution, ChoiceLog, ChoicePoint,
        Comm, CriticalPath, FaultPlan, HostMem, LocalBoxFuture, Meter, Rank, RankFailed, Repro,
        Resource, RunFailure, Schedule, TraceEvent, TraceOp, Tracer, World, WorldResult,
        SCHEDULE_ENV,
    };
}
