//! SUMMA — the broadcast-based 2D algorithm used by standard libraries
//! (van de Geijn & Watts; the baseline §2.4 algorithms outperform).
//!
//! `P = pr × pc` processors. `C` is distributed as `pr × pc` blocks. The
//! inner dimension is partitioned into `s = lcm(pr, pc)` panels
//! ([`summa_panels`]); panel `t` of `A` (block `(i, t)` of the `pr × s`
//! partition) lives on process column `t mod pc`, and panel `t` of `B` on
//! process row `t mod pr` (block-cyclic layout). Each step broadcasts one
//! `A` panel along each process row and one `B` panel down each process
//! column, then accumulates.
//!
//! Broadcasts use the van-de-Geijn scatter–all-gather algorithm when the
//! panel size divides evenly (bandwidth `2(1 − 1/p)·w`), falling back to a
//! binomial tree otherwise. SUMMA therefore moves `≈ 2·(n1n2/pr + n2n3/pc)`
//! words per rank — asymptotically 2D-optimal for square problems, but it
//! always communicates both inputs, unlike Algorithm 1 whose optimal grid
//! communicates only the matrices that must move.

use pmm_dense::{block_range, gemm_acc, Kernel, Matrix};

use pmm_model::{summa_panels, MatMulDims};
use pmm_simnet::{poll_now, Comm, Rank};

use pmm_collectives::{bcast_a, BcastAlgo};

/// Configuration for [`summa`].
#[derive(Debug, Clone)]
pub struct SummaConfig {
    /// Problem dimensions.
    pub dims: MatMulDims,
    /// Process-grid rows (world size must be `pr·pc`).
    pub pr: usize,
    /// Process-grid columns.
    pub pc: usize,
    /// Local compute kernel.
    pub kernel: Kernel,
}

/// Per-rank result of [`summa`].
#[derive(Debug, Clone)]
pub struct SummaOutput {
    /// This rank's `C` block (block `(i, j)` of the `pr × pc` partition).
    pub c_block: Matrix,
}

/// [`summa_on_a`] on the world, driven to completion in one
/// [`poll_now`]: the sync entry point of a
/// [`World::run`](pmm_simnet::World::run) thread host, kept only for the
/// frozen benchmark.
pub fn summa(rank: &mut Rank, cfg: &SummaConfig, a: &Matrix, b: &Matrix) -> SummaOutput {
    let world = rank.world_comm();
    poll_now(summa_on_a(rank, &world, cfg, a, b))
}

/// Run SUMMA on a base communicator of size `pr·pc`: this rank's grid
/// position is its index in `base`, and the row/column communicators are
/// split from `base`. `a`/`b` are the global inputs, read only for this
/// rank's owned panels.
pub async fn summa_on_a(
    rank: &mut Rank,
    base: &Comm,
    cfg: &SummaConfig,
    a: &Matrix,
    b: &Matrix,
) -> SummaOutput {
    let (pr, pc) = (cfg.pr, cfg.pc);
    assert_eq!(base.size(), pr * pc, "base communicator size must be pr·pc");
    let dims = cfg.dims;
    let (n1, n2, n3) = (dims.n1 as usize, dims.n2 as usize, dims.n3 as usize);
    let me = base.index();
    let (i, j) = (me / pc, me % pc);

    let row = rank.split_a(base, i as i64, j as i64).await.expect("row comm");
    let col = rank.split_a(base, (pr + j) as i64, i as i64).await.expect("col comm");

    let s = summa_panels(pr, pc);
    let my_rows = block_range(n1, pr, i).len();
    let my_cols = block_range(n3, pc, j).len();
    let mut c = Matrix::zeros(my_rows, my_cols);
    rank.mem_acquire(c.words() as u64);

    let ra = block_range(n1, pr, i);
    let rb = block_range(n3, pc, j);
    for t in 0..s {
        let panel = block_range(n2, s, t);
        // --- broadcast A(i, t) along the process row -----------------------
        let root_col = t % pc;
        let a_panel_words = my_rows * panel.len();
        let a_data = if j == root_col {
            a.sub(ra.start, panel.start, my_rows, panel.len()).into_vec()
        } else {
            vec![0.0; a_panel_words]
        };
        let a_panel = pmm_simnet::phase!(
            rank,
            "broadcast A",
            bcast_panel(rank, &row, a_data, root_col).await
        );
        let a_panel = Matrix::from_vec(my_rows, panel.len(), a_panel);

        // --- broadcast B(t, j) down the process column ---------------------
        let root_row = t % pr;
        let b_panel_words = panel.len() * my_cols;
        let b_data = if i == root_row {
            b.sub(panel.start, rb.start, panel.len(), my_cols).into_vec()
        } else {
            vec![0.0; b_panel_words]
        };
        let b_panel = pmm_simnet::phase!(
            rank,
            "broadcast B",
            bcast_panel(rank, &col, b_data, root_row).await
        );
        let b_panel = Matrix::from_vec(panel.len(), my_cols, b_panel);

        pmm_simnet::phase!(rank, "local multiply", {
            gemm_acc(&mut c, &a_panel, &b_panel, cfg.kernel);
            rank.compute((my_rows * panel.len() * my_cols) as f64);
        });
    }

    SummaOutput { c_block: c }
}

/// The most-square `pr × pc` factorization of `p` (`pr ≤ pc`, `pr·pc =
/// p`): the grid shape recovery lays over an arbitrary survivor count.
pub fn near_square_factors(p: usize) -> (usize, usize) {
    assert!(p >= 1);
    let mut pr = 1;
    let mut d = 1;
    while d * d <= p {
        if p.is_multiple_of(d) {
            pr = d;
        }
        d += 1;
    }
    (pr, p / pr)
}

async fn bcast_panel(
    rank: &mut Rank,
    comm: &pmm_simnet::Comm,
    data: Vec<f64>,
    root: usize,
) -> Vec<f64> {
    let algo = BcastAlgo::by_length(comm.size(), data.len());
    bcast_a(rank, comm, data, root, algo).await
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Inputs;
    use pmm_model::AlgPlan;

    #[test]
    fn correct_on_square_grids() {
        let inputs = Inputs::random_int(MatMulDims::new(12, 12, 12), 15);
        for q in [1usize, 2, 3] {
            inputs.measure(&AlgPlan::Summa { pr: q, pc: q }, false);
        }
    }

    #[test]
    fn correct_on_rectangular_grids() {
        let inputs = Inputs::random_int(MatMulDims::new(12, 6, 8), 15);
        for (pr, pc) in [(2usize, 3usize), (3, 2), (4, 1), (1, 4), (2, 4)] {
            inputs.measure(&AlgPlan::Summa { pr, pc }, false);
        }
    }

    #[test]
    fn correct_on_uneven_dims() {
        let inputs = Inputs::random_int(MatMulDims::new(7, 11, 5), 15);
        for (pr, pc) in [(2usize, 2usize), (3, 2)] {
            inputs.measure(&AlgPlan::Summa { pr, pc }, false);
        }
    }

    #[test]
    fn single_rank_no_communication() {
        let inputs = Inputs::random_int(MatMulDims::new(4, 4, 4), 15);
        let out = inputs.measure(&AlgPlan::Summa { pr: 1, pc: 1 }, false);
        assert_eq!(out.total_words_sent(), 0.0);
    }

    #[test]
    fn critical_path_matches_sag_bcast_model() {
        // Per-rank bandwidth cost ≈ 2(1−1/pc)·n1n2/pr + 2(1−1/pr)·n2n3/pc
        // with SAG broadcasts (each panel costs 2(1−1/p)·w on the critical
        // path, every step synchronizes the row/column).
        let dims = MatMulDims::new(24, 24, 24);
        let (pr, pc) = (2usize, 2usize);
        let out = Inputs::random_int(dims, 15).measure(&AlgPlan::Summa { pr, pc }, false);
        let a_stripe = (24.0 / pr as f64) * 24.0;
        let b_stripe = 24.0 * (24.0 / pc as f64);
        let want =
            2.0 * (1.0 - 1.0 / pc as f64) * a_stripe + 2.0 * (1.0 - 1.0 / pr as f64) * b_stripe;
        let got = out.critical_path_time();
        assert!((got - want).abs() <= 1e-9, "critical path {got} vs model {want}");
    }
}
