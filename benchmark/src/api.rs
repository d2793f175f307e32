//! Every `pmm` item the benchmark touches, in one place.
//!
//! Later PRs may not edit `benchmark/`, so this list is limited to names
//! expected to survive ROADMAP items 1 (one engine) and 4 (fewer kernel
//! tiers): no `Engine`, `with_engine`, `without_watchdog`, `poll_now`,
//! and no `Kernel::{Tiled, Recursive, Parallel, Auto}`. A refactor that
//! renames one of these keeps a `pub use` alias under the old path (see
//! README.md, "Durable API surface").

pub use pmm::algs::{
    alg1, alg1_a, alg1_streamed, assemble_c, assemble_from_blocks, cannon, carma, carma_assemble_c,
    carma_shares, fiber_comms_a, summa, twofived, Alg1Config, Alg1Output, Assembly, CannonConfig,
    SummaConfig, TwoFiveDConfig,
};
pub use pmm::bounds::gridopt::{best_divisible_grid, best_grid};
pub use pmm::bounds::theorem3::lower_bound;
pub use pmm::collectives::{all_gather_v_a, reduce_scatter_v_a, AllGatherAlgo, ReduceScatterAlgo};
pub use pmm::dense::{block_range, chunk_of_block, gemm, random_int_matrix, Kernel, Matrix};
pub use pmm::model::{alg1_prediction, Grid3, MachineParams, MatMulDims};
// `Meter` fields read: words_sent, words_recv, msgs_sent, flops,
// retry_words_sent, retry_words_recv (+ `duplex_words()`); `Rank` methods
// called: world_comm, compute, mem_acquire, mem_release; `World` builders:
// new, with_seed, with_schedule_recording, with_targeted_wakeup,
// with_trace, run, run_async.
pub use pmm::simnet::{Meter, Rank, World, WorldResult};
