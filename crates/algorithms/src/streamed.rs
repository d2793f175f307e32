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
//! The initial distribution is the natural slab-aligned one: each
//! processor owns, for every slab, an even chunk of that slab across its
//! fiber (the lower bound makes no assumption on distribution beyond the
//! single-copy rule, so the variant is free to choose).
//!
//! A slab whose gathering fiber has one member (`A`'s when `p3 = 1`,
//! `B`'s when `p1 = 1`) is multiplied where it lies in the global input,
//! as in [`alg1`](crate::grid3d::alg1): the gather would move nothing and
//! hand back the whole slab, so the host skips the copy and enters the
//! degenerate collective alone — every simulated observable is unchanged.

use pmm_collectives::{reduce_scatter_v_a, ReduceScatterAlgo};

use pmm_dense::{block_range, chunk_of_block, gemm_acc, Block2, Kernel, Matrix};
use pmm_model::{Grid3, MatMulDims};
use pmm_simnet::{poll_now, Comm, Rank};

use crate::common::{assert_inputs_match, fiber_comms_on_a, gather_block, PhaseMeter, PhaseProbe};
use crate::grid3d::Alg1Output;

/// [`alg1_streamed_on_a`] on the world, driven to completion in one
/// [`poll_now`]: the sync entry point of a
/// [`World::run`](pmm_simnet::World::run) thread host, kept only for the
/// frozen benchmark.
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
    poll_now(alg1_streamed_on_a(rank, &world, dims, grid, slabs, kernel, a, b))
}

/// Run the streamed Algorithm 1 with `slabs` inner-dimension slabs
/// (`slabs = 1` is semantically plain Algorithm 1 modulo the input
/// distribution) on communicator `base`, which must have exactly
/// `grid.size()` members; this rank's grid coordinate is derived from its
/// index in `base`. Returns the same output shape as
/// [`alg1`](crate::grid3d::alg1) — chunks assemble with
/// [`assemble_c`](crate::grid3d::assemble_c).
#[allow(clippy::too_many_arguments)]
pub async fn alg1_streamed_on_a(
    rank: &mut Rank,
    base: &Comm,
    dims: MatMulDims,
    grid: Grid3,
    slabs: usize,
    kernel: Kernel,
    a: &Matrix,
    b: &Matrix,
) -> Alg1Output {
    assert!(slabs >= 1, "need at least one slab");
    assert_inputs_match(dims, a, b);
    let [p1, p2, p3] = grid.dims();
    let coord = grid.coord_of(base.index());
    let comms = fiber_comms_on_a(rank, base, grid).await;

    let rows_a = block_range(dims.n1 as usize, p1, coord[0]);
    let cols_b = block_range(dims.n3 as usize, p3, coord[2]);
    let inner = block_range(dims.n2 as usize, p2, coord[1]);
    let h1 = rows_a.len();
    let h2 = inner.len();
    let h3 = cols_b.len();

    let mut d = Matrix::zeros(h1, h3);
    rank.mem_acquire((h1 * h3) as u64);

    let mut words_a_phase = pmm_simnet::Meter::default();
    let mut words_b_phase = pmm_simnet::Meter::default();

    for s in 0..slabs {
        // Slab s of the local inner range.
        let slab = block_range(h2, slabs, s);
        if slab.is_empty() {
            continue;
        }
        // --- gather slab of A over fiber (p1', p2', :) ----------------------
        // In place when p3 = 1, as in `alg1` (see `gather_block`).
        let slab_inner = inner.start + slab.start..inner.start + slab.end;
        let a_slab = Block2 { rows: rows_a.clone(), cols: slab_inner.clone() };
        let a_slab_words = a_slab.words();
        rank.mem_acquire(a_slab_words as u64);
        let before = rank.meter();
        let a_mat = pmm_simnet::phase!(rank, "all-gather A (streamed)", {
            gather_block(rank, &comms[2], a_slab, a).await
        });
        accumulate(&mut words_a_phase, rank.meter().diff(&before));

        // --- gather slab of B over fiber (:, p2', p3') ----------------------
        // In place when p1 = 1.
        let b_slab = Block2 { rows: slab_inner, cols: cols_b.clone() };
        let b_slab_words = b_slab.words();
        rank.mem_acquire(b_slab_words as u64);
        let before = rank.meter();
        let b_mat = pmm_simnet::phase!(rank, "all-gather B (streamed)", {
            gather_block(rank, &comms[0], b_slab, b).await
        });
        accumulate(&mut words_b_phase, rank.meter().diff(&before));

        // --- accumulate ------------------------------------------------------
        pmm_simnet::phase!(rank, "local multiply", {
            gemm_acc(&mut d, &a_mat, &b_mat, kernel);
            rank.compute((h1 * slab.len() * h3) as f64);
        });

        // Slab buffers dropped here — that's the whole point.
        rank.mem_release((a_slab_words + b_slab_words) as u64);
    }
    // --- reduce-scatter C over fiber (p1', :, p3') --------------------------
    let c_block_words = h1 * h3;
    let c_counts: Vec<usize> =
        (0..p2).map(|r| chunk_of_block(c_block_words, p2, r).len()).collect();
    let probe = PhaseProbe::begin(rank, "reduce-scatter C");
    let c_chunk =
        reduce_scatter_v_a(rank, &comms[1], d.into_vec(), &c_counts, ReduceScatterAlgo::Auto).await;
    let ph_c = probe.finish(rank);
    rank.mem_acquire(c_chunk.len() as u64);
    rank.mem_release(c_block_words as u64);

    Alg1Output {
        c_chunk,
        phases: [
            PhaseMeter { label: "all-gather A (streamed)", meter: words_a_phase },
            PhaseMeter { label: "all-gather B (streamed)", meter: words_b_phase },
            ph_c,
        ],
    }
}

fn accumulate(into: &mut pmm_simnet::Meter, delta: pmm_simnet::Meter) {
    into.words_sent += delta.words_sent;
    into.words_recv += delta.words_recv;
    into.msgs_sent += delta.msgs_sent;
    into.msgs_recv += delta.msgs_recv;
    into.flops += delta.flops;
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
        let dims = MatMulDims::new(6, 4, 6);
        let (c, _) = run(dims, [2, 2, 1], 64);
        assert_eq!(c, reference(dims));
    }
}
