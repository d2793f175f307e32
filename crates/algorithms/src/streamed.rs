//! The low-memory variant of Algorithm 1 that §6.2 sketches: "Alg. 1 can
//! be adapted to reduce the temporary memory required to a negligible
//! amount at the expense of higher latency cost but without affecting the
//! bandwidth cost."
//!
//! The adaptation streams the contracted dimension in `t` slabs: instead
//! of all-gathering the whole `A` and `B` blocks before multiplying, each
//! slab of `A`-columns / `B`-rows is gathered, multiplied into the
//! accumulator `D`, and dropped. The gather buffers shrink by `t×`; every
//! collective runs `t` times, so the latency term grows `t×`; the words
//! moved are identical (each element still travels exactly once).
//!
//! It is not a second algorithm: Algorithm 1's one body ([`alg1_on_a`])
//! loops over slabs, and runs one for the paper's Algorithm 1. This module
//! keeps the benchmark's sync entry point that runs `t`. The initial
//! distribution is the natural slab-aligned one: each processor owns, for
//! every slab, an even chunk of that slab across its fiber (the lower bound
//! makes no assumption on distribution beyond the single-copy rule, so the
//! variant is free to choose); with one slab that is Algorithm 1's.

use pmm_dense::{Kernel, Matrix};
use pmm_model::{Grid3, MatMulDims};
use pmm_simnet::{poll_now, Rank};

use crate::grid3d::{alg1_on_a, Alg1Config, Alg1Output, Assembly};

/// Algorithm 1 with `slabs` inner-dimension slabs on the world, driven to
/// completion in one [`poll_now`]: the sync entry point of a
/// [`World::run`](pmm_simnet::World::run) thread host, kept only for the
/// frozen benchmark. `slabs` is clamped to each rank's inner extent, so no
/// slab is empty, and `slabs = 1` is [`alg1`](crate::grid3d::alg1), event
/// for event. Assembles `C` with [`Assembly::ReduceScatter`]; the chunks
/// assemble with [`assemble_c`](crate::grid3d::assemble_c). On another
/// communicator, run [`alg1_on_a`] with `slabs`.
pub fn alg1_streamed(
    rank: &mut Rank,
    dims: MatMulDims,
    grid: Grid3,
    slabs: usize,
    kernel: Kernel,
    a: &Matrix,
    b: &Matrix,
) -> Alg1Output {
    let world = rank.world_comm();
    let cfg = Alg1Config { dims, grid, kernel, assembly: Assembly::ReduceScatter };
    poll_now(alg1_on_a(rank, &world, &cfg, slabs, a, b))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recovery::{run_on_world, CShare};
    use pmm_dense::{gemm, random_int_matrix};
    use pmm_model::AlgPlan;

    fn run(
        dims: MatMulDims,
        grid: [usize; 3],
        slabs: usize,
    ) -> (Matrix, pmm_simnet::WorldResult<CShare>) {
        let (n1, n2, n3) = (dims.n1 as usize, dims.n2 as usize, dims.n3 as usize);
        let (a, b) = (random_int_matrix(n1, n2, -3..4, 71), random_int_matrix(n2, n3, -3..4, 72));
        run_on_world(&AlgPlan::Alg1Streamed { grid, slabs }, dims, a, b)
    }

    fn reference(dims: MatMulDims) -> Matrix {
        let a = random_int_matrix(dims.n1 as usize, dims.n2 as usize, -3..4, 71);
        let b = random_int_matrix(dims.n2 as usize, dims.n3 as usize, -3..4, 72);
        gemm(&a, &b, Kernel::Naive)
    }

    #[test]
    fn correct_for_various_slab_counts() {
        let dims = MatMulDims::new(16, 24, 12);
        for grid in [[2usize, 2, 2], [1, 4, 2], [4, 3, 1]] {
            for slabs in [1usize, 2, 3, 5, 100] {
                let (c, _) = run(dims, grid, slabs);
                assert_eq!(c, reference(dims), "grid {grid:?} slabs {slabs}");
            }
        }
    }

    #[test]
    fn bandwidth_unchanged_latency_grows_memory_shrinks() {
        let dims = MatMulDims::new(32, 64, 32);
        let grid = [2usize, 2, 2];
        let (_, one) = run(dims, grid, 1);
        let (_, eight) = run(dims, grid, 8);

        // Same words moved (per rank, both directions).
        for r in 0..8 {
            assert_eq!(
                one.reports[r].meter.words_sent, eight.reports[r].meter.words_sent,
                "bandwidth must not change (rank {r})"
            );
        }
        // More messages (t× the all-gather rounds).
        assert!(
            eight.reports[0].meter.msgs_sent > one.reports[0].meter.msgs_sent,
            "latency term must grow"
        );
        // Lower peak memory.
        assert!(
            eight.max_peak_mem_words() < one.max_peak_mem_words(),
            "peak memory must shrink: {} vs {}",
            eight.max_peak_mem_words(),
            one.max_peak_mem_words()
        );
    }

    #[test]
    fn matches_plain_alg1_bandwidth_on_divisible_instances() {
        // Streamed with divisible slabs moves exactly the same words as
        // plain Algorithm 1 (different distribution, same traffic).
        let dims = MatMulDims::new(24, 24, 24);
        let grid = [2usize, 2, 2];
        let (_, streamed) = run(dims, grid, 3);

        let (a, b) = (random_int_matrix(24, 24, -3..4, 71), random_int_matrix(24, 24, -3..4, 72));
        let (_, plain) = run_on_world(&AlgPlan::Alg1 { grid }, dims, a, b);
        for r in 0..8 {
            assert_eq!(
                streamed.reports[r].meter.words_sent, plain.reports[r].meter.words_sent,
                "rank {r}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "global inputs disagree with dims")]
    fn rejects_global_inputs_of_other_dims() {
        // 12 × 8 under dims that say 8 × 12: same word count, another
        // partition.
        let dims = MatMulDims::new(8, 12, 6);
        let (a, b) = (random_int_matrix(12, 8, -3..4, 1), random_int_matrix(12, 6, -3..4, 2));
        run_on_world(&AlgPlan::Alg1Streamed { grid: [2, 1, 1], slabs: 2 }, dims, a, b);
    }

    #[test]
    fn more_slabs_than_inner_dim_degenerates_gracefully() {
        // Inner extent h2 = 4 / 2 = 2: 64 slabs clamp to 2, one column
        // each, and send exactly the messages 2 slabs send.
        let dims = MatMulDims::new(6, 4, 6);
        let (c, many) = run(dims, [2, 2, 1], 64);
        assert_eq!(c, reference(dims));
        let (_, two) = run(dims, [2, 2, 1], 2);
        assert_eq!(many.values, two.values);
        for (r, (x, y)) in many.reports.iter().zip(&two.reports).enumerate() {
            assert_eq!(x.meter, y.meter, "rank {r}");
            assert_eq!(x.peak_mem_words, y.peak_mem_words, "rank {r}");
        }
    }
}
