//! The layer ladder: `world.run_async(alg1_a)` is opaque from outside, so
//! the harness re-runs the same world with its own rank programs, built
//! only from public functions, that stop one step later each time:
//!
//! | rung | program                          | rung − previous rung   |
//! |------|----------------------------------|------------------------|
//! | 0    | empty                            | `simnet.spawn_s`       |
//! | 1    | + fiber splits                   | `simnet.split_s`       |
//! | 2    | + all-gather A                   | `collectives.gather_a_s` |
//! | 3    | + all-gather B                   | `collectives.gather_b_s` |
//! | 4    | + local multiply                 | `dense.gemm_s`         |
//! | 5    | + reduce-scatter C               | `collectives.reduce_c_s` |
//!
//! Rung 5 is Algorithm 1 again (same calls, same memory accounting), so
//! its per-rank meters must equal the real run's exactly — that is what
//! ties the ladder to the run it explains.

use crate::api::*;
use crate::workloads::{alg1_world, Alg1Prepared};

/// Number of rungs.
pub const RUNGS: usize = 6;

/// The rank program of rung `rung`: Algorithm 1 cut off after that step.
/// Returns this rank's `C` chunk at rung 5 and nothing below it.
async fn rung_program(
    rank: &mut Rank,
    rung: usize,
    cfg: &Alg1Config,
    a: &Matrix,
    b: &Matrix,
) -> Vec<f64> {
    if rung == 0 {
        return Vec::new();
    }
    let comms = fiber_comms_a(rank, cfg.grid).await;
    if rung == 1 {
        return Vec::new();
    }

    let (n1, n2, n3) = (cfg.dims.n1 as usize, cfg.dims.n2 as usize, cfg.dims.n3 as usize);
    let [p1, p2, p3] = cfg.grid.dims();
    let coord = cfg.grid.coord_of(rank.world_comm().index());
    let (r1, r2, r3) = (
        block_range(n1, p1, coord[0]),
        block_range(n2, p2, coord[1]),
        block_range(n3, p3, coord[2]),
    );
    let (h1, h2, h3) = (r1.len(), r2.len(), r3.len());

    // Owned chunks of the §5 initial distribution: an even split of the
    // block's row-major elements over the fiber that will gather it.
    let owned =
        |m: &Matrix, rows: &std::ops::Range<usize>, cols: &std::ops::Range<usize>, parts, i| {
            let flat = m.sub(rows.start, cols.start, rows.len(), cols.len()).into_vec();
            flat[chunk_of_block(flat.len(), parts, i)].to_vec()
        };
    let a_own = owned(a, &r1, &r2, p3, coord[2]);
    let b_own = owned(b, &r2, &r3, p1, coord[0]);
    rank.mem_acquire((a_own.len() + b_own.len()) as u64);

    let a_counts: Vec<usize> = (0..p3).map(|t| chunk_of_block(h1 * h2, p3, t).len()).collect();
    rank.mem_acquire((h1 * h2) as u64);
    let a_block = Matrix::from_vec(
        h1,
        h2,
        all_gather_v_a(rank, &comms[2], &a_own, &a_counts, AllGatherAlgo::Auto).await,
    );
    if rung == 2 {
        return Vec::new();
    }

    let b_counts: Vec<usize> = (0..p1).map(|t| chunk_of_block(h2 * h3, p1, t).len()).collect();
    rank.mem_acquire((h2 * h3) as u64);
    let b_block = Matrix::from_vec(
        h2,
        h3,
        all_gather_v_a(rank, &comms[0], &b_own, &b_counts, AllGatherAlgo::Auto).await,
    );
    if rung == 3 {
        return Vec::new();
    }

    rank.mem_acquire((h1 * h3) as u64);
    let d = gemm(&a_block, &b_block, cfg.kernel);
    rank.compute((h1 * h2 * h3) as f64);
    if rung == 4 {
        // Keep the product observable so the multiply cannot be elided.
        return vec![d.as_slice().iter().sum()];
    }

    let c_counts: Vec<usize> = (0..p2).map(|t| chunk_of_block(h1 * h3, p2, t).len()).collect();
    let c_chunk =
        reduce_scatter_v_a(rank, &comms[1], d.as_slice(), &c_counts, ReduceScatterAlgo::Auto).await;
    rank.mem_acquire(c_chunk.len() as u64);
    rank.mem_release((h1 * h2 + h2 * h3 + h1 * h3) as u64);
    c_chunk
}

/// Run rung `rung` on the workload's own world configuration.
pub fn run_rung(prep: &Alg1Prepared, rung: usize) -> WorldResult<Vec<f64>> {
    assert!(rung < RUNGS);
    let cfg = prep.config();
    alg1_world(&prep.spec, false).run_async(|rank| {
        let cfg = cfg.clone();
        let (a, b) = (prep.a.clone(), prep.b.clone());
        Box::pin(async move { rung_program(rank, rung, &cfg, &a, &b).await })
    })
}
