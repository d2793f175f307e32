//! Cannon's algorithm — the classic 2D baseline (§2.4 context).
//!
//! `P = q²` processors in a `q × q` grid; every matrix is distributed as
//! `q × q` blocks with block `(i, j)` on processor `(i, j)`. After an
//! initial *skew* (block-row `i` of `A` rotated left by `i`, block-column
//! `j` of `B` rotated up by `j`), the algorithm performs `q`
//! multiply-accumulate steps, rotating `A` left and `B` up by one between
//! steps.
//!
//! That is the 2.5D algorithm with one layer (Solomonik & Demmel 2011;
//! Demmel et al. 2013), and it runs as one: [`cannon`] is
//! [`twofived_on_a`] with `c = 1`, which skips the fiber split, the
//! replication and the reduction, leaving exactly the skew and the
//! `q − 1` rotations.
//!
//! Per-processor communication: the skew plus `q − 1` rotations of one
//! `A`-block and one `B`-block each — `Θ(q·(n1n2 + n2n3)/P)` words. For
//! square matrices this matches the 2D-optimal `Θ(n²/√P)`; for rectangular
//! instances in the paper's 1D/2D cases it can lose badly to Algorithm 1
//! with the §5.2 grid, which is exactly what the `algo_compare` experiment
//! shows.

use pmm_dense::{Kernel, Matrix};

use pmm_model::MatMulDims;
use pmm_simnet::{poll_now, Rank};

use crate::twofived::{twofived_on_a, TwoFiveDConfig};

/// Configuration for [`cannon`].
#[derive(Debug, Clone)]
pub struct CannonConfig {
    /// Problem dimensions.
    pub dims: MatMulDims,
    /// Grid edge `q` (world size must be `q²`).
    pub q: usize,
    /// Local compute kernel.
    pub kernel: Kernel,
}

/// Per-rank result of [`cannon`].
#[derive(Debug, Clone)]
pub struct CannonOutput {
    /// This rank's `C` block (block `(i, j)` of the `q × q` partition).
    pub c_block: Matrix,
}

/// Cannon's algorithm on a `q²` world — [`twofived_on_a`] with one layer
/// — driven to completion in one [`poll_now`]: the sync entry point of a
/// [`World::run`](pmm_simnet::World::run) thread host, kept only for the
/// frozen benchmark. `a`/`b` are the global inputs, read only for this
/// rank's owned blocks.
pub fn cannon(rank: &mut Rank, cfg: &CannonConfig, a: &Matrix, b: &Matrix) -> CannonOutput {
    assert_eq!(rank.world_size(), cfg.q * cfg.q, "world size must be q²");
    let world = rank.world_comm();
    let cfg = TwoFiveDConfig { dims: cfg.dims, q: cfg.q, c: 1, kernel: cfg.kernel };
    let c_block = poll_now(twofived_on_a(rank, &world, &cfg, a, b)).c_block;
    CannonOutput { c_block: c_block.expect("one layer: every rank of a q² world holds a block") }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recovery::{run_on_world, CShare};
    use pmm_dense::{gemm, random_int_matrix};
    use pmm_model::AlgPlan;

    fn run(dims: MatMulDims, q: usize) -> (Matrix, pmm_simnet::WorldResult<CShare>) {
        let a = random_int_matrix(dims.n1 as usize, dims.n2 as usize, -3..4, 5);
        let b = random_int_matrix(dims.n2 as usize, dims.n3 as usize, -3..4, 6);
        run_on_world(&AlgPlan::Cannon { q }, dims, a, b)
    }

    fn reference(dims: MatMulDims) -> Matrix {
        let a = random_int_matrix(dims.n1 as usize, dims.n2 as usize, -3..4, 5);
        let b = random_int_matrix(dims.n2 as usize, dims.n3 as usize, -3..4, 6);
        gemm(&a, &b, Kernel::Naive)
    }

    #[test]
    fn correct_square_divisible() {
        let dims = MatMulDims::new(12, 12, 12);
        for q in [1usize, 2, 3, 4] {
            let (c, _) = run(dims, q);
            assert_eq!(c, reference(dims), "q={q}");
        }
    }

    #[test]
    fn correct_rectangular_and_uneven() {
        for dims in [MatMulDims::new(9, 6, 12), MatMulDims::new(7, 5, 11)] {
            for q in [2usize, 3] {
                let (c, _) = run(dims, q);
                assert_eq!(c, reference(dims), "{dims} q={q}");
            }
        }
    }

    #[test]
    fn single_rank_no_communication() {
        let dims = MatMulDims::new(5, 4, 3);
        let (c, out) = run(dims, 1);
        assert_eq!(c, reference(dims));
        assert_eq!(out.total_words_sent(), 0.0);
    }

    #[test]
    fn communication_volume_matches_closed_form() {
        // Divisible square case: each rank moves (q−1)(skews: ≤1 each) +
        // (q−1) rotations of one A and one B block; with the skew, ranks
        // with i>0, j>0 send exactly q·(|A|+|B|)/P − (blocks they keep).
        let n = 12u64;
        let q = 3usize;
        let dims = MatMulDims::square(n);
        let (_, out) = run(dims, q);
        let block = (n as usize / q) * (n as usize / q);
        // Rank (1,1): skew A (1) + skew B (1) + 2 rotations × 2 matrices.
        let m = &out.reports[q + 1].meter;
        assert_eq!(m.words_sent as usize, block * (2 + 2 * (q - 1)));
        // Rank (0,0) skips both skews.
        let m = &out.reports[0].meter;
        assert_eq!(m.words_sent as usize, block * (2 * (q - 1)));
    }

    #[test]
    fn loses_to_alg1_grid_on_tall_skinny() {
        // Paper's 1D case: Cannon's square grid forces communication of the
        // big matrix; Alg1 with the optimal 1D grid only moves nk words.
        use pmm_core::gridopt::best_grid;

        let dims = MatMulDims::new(64, 16, 16); // m/n = 4 ⇒ P=4 is 1D case
        let q = 2usize; // P = 4
        let (_, cannon_out) = run(dims, q);

        let plan = AlgPlan::Alg1 { grid: best_grid(dims, 4).grid };
        let (a, b) = (random_int_matrix(64, 16, -3..4, 5), random_int_matrix(16, 16, -3..4, 6));
        let (_, alg1_out) = run_on_world(&plan, dims, a, b);
        assert!(
            alg1_out.critical_path_time() < cannon_out.critical_path_time(),
            "Alg1 {} should beat Cannon {}",
            alg1_out.critical_path_time(),
            cannon_out.critical_path_time()
        );
    }
}
