//! The 2.5D algorithm (Solomonik & Demmel 2011) — trading replicated
//! memory for reduced communication (§2.4, §6.2 context).
//!
//! `P = c·q²` processors arranged as `c` layers of `q × q` grids, with
//! `c | q`. One copy of the inputs lives on layer 0 (`q × q` blocks).
//! The algorithm:
//!
//! 1. broadcasts each block over its layer fiber (replication — this is
//!    the memory-for-bandwidth trade);
//! 2. each layer runs `q/c` Cannon-style shifted steps, layer `l`
//!    starting at inner offset `l·q/c`, so the `c` layers jointly cover
//!    all `q` inner positions;
//! 3. partial `C`s are summed to layer 0 with a binomial reduce over the
//!    fiber.
//!
//! Per-processor bandwidth is `Θ(n²/√(cP))` for square problems — a
//! `√c` improvement over 2D algorithms, at `c×` the memory. At `c = 1` it
//! degenerates to Cannon; at `c = q` (i.e. `P = q³`) it is a 3D
//! algorithm.

use pmm_collectives::{bcast_a, reduce_a, BcastAlgo};
use pmm_dense::{block_range, gemm_acc, Kernel, Matrix};
use pmm_model::MatMulDims;
use pmm_simnet::{poll_now, Comm, Rank};

/// Configuration for [`twofived`].
#[derive(Debug, Clone)]
pub struct TwoFiveDConfig {
    /// Problem dimensions.
    pub dims: MatMulDims,
    /// Layer grid edge `q`.
    pub q: usize,
    /// Replication factor `c` (world size must be `c·q²`, and `c | q`).
    pub c: usize,
    /// Local compute kernel.
    pub kernel: Kernel,
}

/// Per-rank result of [`twofived`].
#[derive(Debug, Clone)]
pub struct TwoFiveDOutput {
    /// On layer 0: this rank's fully-summed `C` block; on other layers
    /// `None`.
    pub c_block: Option<Matrix>,
}

/// Run the 2.5D algorithm. `a`/`b` are the global inputs, read only by
/// the layer-0 owner of each block.
pub fn twofived(rank: &mut Rank, cfg: &TwoFiveDConfig, a: &Matrix, b: &Matrix) -> TwoFiveDOutput {
    poll_now(twofived_a(rank, cfg, a, b))
}

/// Async form of [`twofived`] (event-loop programs).
pub async fn twofived_a(
    rank: &mut Rank,
    cfg: &TwoFiveDConfig,
    a: &Matrix,
    b: &Matrix,
) -> TwoFiveDOutput {
    let (q, c) = (cfg.q, cfg.c);
    assert_eq!(rank.world_size(), c * q * q, "world size must be c·q²");
    let world = rank.world_comm();
    twofived_on_a(rank, &world, cfg, a, b).await
}

/// Run the 2.5D algorithm on communicator `base` instead of the world
/// (recovery runs use a survivor communicator). The first `c·q²`
/// members are active; later members participate in the three splits
/// with a negative color and return `c_block: None` like non-layer-0
/// ranks.
pub async fn twofived_on_a(
    rank: &mut Rank,
    base: &Comm,
    cfg: &TwoFiveDConfig,
    a: &Matrix,
    b: &Matrix,
) -> TwoFiveDOutput {
    let (q, c) = (cfg.q, cfg.c);
    assert!(base.size() >= c * q * q, "communicator too small for c layers of q × q");
    assert!(q % c == 0, "2.5D requires c | q (got q={q}, c={c})");
    let dims = cfg.dims;
    let (n1, n2, n3) = (dims.n1 as usize, dims.n2 as usize, dims.n3 as usize);

    // Rank layout: base index = l·q² + i·q + j.
    let me = base.index();
    if me >= c * q * q {
        // Idle member: opt out of all three splits (MPI_UNDEFINED).
        for _ in 0..3 {
            let none = rank.split_a(base, -1, me as i64).await;
            debug_assert!(none.is_none());
        }
        return TwoFiveDOutput { c_block: None };
    }
    let l = me / (q * q);
    let (i, j) = ((me % (q * q)) / q, me % q);

    // Row comm within my layer (vary j), column comm within my layer
    // (vary i), fiber comm across layers (vary l).
    let row = rank.split_a(base, (l * q + i) as i64, j as i64).await.expect("row comm");
    let col = rank.split_a(base, (q * q + l * q + j) as i64, i as i64).await.expect("col comm");
    let fiber =
        rank.split_a(base, (2 * q * q + i * q + j) as i64, l as i64).await.expect("fiber comm");
    debug_assert_eq!(row.size(), q);
    debug_assert_eq!(col.size(), q);
    debug_assert_eq!(fiber.size(), c);

    // ---- step 1: replicate the layer-0 blocks over the fiber --------------
    let ra = block_range(n1, q, i);
    let ca = block_range(n2, q, j);
    let rb = block_range(n2, q, i);
    let cb = block_range(n3, q, j);
    let a_words = ra.len() * ca.len();
    let b_words = rb.len() * cb.len();
    let a0 = if l == 0 {
        a.sub(ra.start, ca.start, ra.len(), ca.len()).into_vec()
    } else {
        vec![0.0; a_words]
    };
    let b0 = if l == 0 {
        b.sub(rb.start, cb.start, rb.len(), cb.len()).into_vec()
    } else {
        vec![0.0; b_words]
    };
    rank.mem_acquire((a_words + b_words) as u64);
    let (mut a_cur, mut b_cur) = pmm_simnet::phase!(rank, "replicate inputs", {
        let a = Matrix::from_vec(
            ra.len(),
            ca.len(),
            bcast_a(rank, &fiber, a0, 0, BcastAlgo::Binomial).await,
        );
        let b = Matrix::from_vec(
            rb.len(),
            cb.len(),
            bcast_a(rank, &fiber, b0, 0, BcastAlgo::Binomial).await,
        );
        (a, b)
    });

    // ---- step 2: shifted Cannon over my layer's q/c inner positions -------
    // Layer l covers inner positions {l·q/c + t : t in 0..q/c} (mod q,
    // Cannon-skewed by i+j). Pre-shift A and B so the first position is
    // aligned, exactly like Cannon's skew with offset l·q/c.
    let my_rows = ra.len();
    let my_cols = cb.len();
    let mut cmat = Matrix::zeros(my_rows, my_cols);
    rank.mem_acquire(cmat.words() as u64);

    // Inner-dimension block index held after the skews (tracked explicitly
    // so shapes stay well-defined even when uneven partitions yield empty
    // blocks).
    let inner_len = |idx: usize| block_range(n2, q, idx).len();
    let mut inner = (i + j + l * (q / c)) % q;

    pmm_simnet::phase!(rank, "skew", {
        let shift_a = (i + l * (q / c)) % q;
        if q > 1 && shift_a > 0 {
            let to = (j + q - shift_a) % q;
            let from = (j + shift_a) % q;
            let msg = rank.exchange_a(&row, to, from, a_cur.as_slice()).await;
            a_cur = Matrix::from_vec(my_rows, inner_len(inner), msg.payload);
        }
        let shift_b = (j + l * (q / c)) % q;
        if q > 1 && shift_b > 0 {
            let to = (i + q - shift_b) % q;
            let from = (i + shift_b) % q;
            let msg = rank.exchange_a(&col, to, from, b_cur.as_slice()).await;
            b_cur = Matrix::from_vec(inner_len(inner), my_cols, msg.payload);
        }
    });

    let steps = q / c;
    for t in 0..steps {
        assert_eq!(a_cur.cols(), b_cur.rows(), "inner blocks misaligned at step {t}");
        pmm_simnet::phase!(rank, "local multiply", {
            gemm_acc(&mut cmat, &a_cur, &b_cur, cfg.kernel);
            rank.compute((a_cur.rows() * a_cur.cols() * b_cur.cols()) as f64);
        });
        if t + 1 < steps {
            pmm_simnet::phase!(rank, "rotate", {
                let next_inner = (inner + 1) % q;
                let msg =
                    rank.exchange_a(&row, (j + q - 1) % q, (j + 1) % q, a_cur.as_slice()).await;
                a_cur = Matrix::from_vec(my_rows, inner_len(next_inner), msg.payload);
                let msg =
                    rank.exchange_a(&col, (i + q - 1) % q, (i + 1) % q, b_cur.as_slice()).await;
                b_cur = Matrix::from_vec(inner_len(next_inner), my_cols, msg.payload);
                inner = next_inner;
            });
        }
    }

    // ---- step 3: sum partial C over the fiber to layer 0 ------------------
    let summed = pmm_simnet::phase!(rank, "reduce C over fiber", {
        reduce_a(rank, &fiber, cmat.into_vec(), 0).await
    });
    let c_block = (l == 0).then(|| Matrix::from_vec(my_rows, my_cols, summed));
    TwoFiveDOutput { c_block }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::assemble_from_blocks;
    use pmm_dense::{gemm, random_int_matrix};
    use pmm_simnet::{MachineParams, World};

    fn run(
        dims: MatMulDims,
        q: usize,
        c: usize,
    ) -> (Matrix, pmm_simnet::WorldResult<TwoFiveDOutput>) {
        let cfg = TwoFiveDConfig { dims, q, c, kernel: Kernel::Naive };
        let a = random_int_matrix(dims.n1 as usize, dims.n2 as usize, -3..4, 25);
        let b = random_int_matrix(dims.n2 as usize, dims.n3 as usize, -3..4, 26);
        let out = World::new(c * q * q, MachineParams::BANDWIDTH_ONLY)
            .run(move |rank| twofived(rank, &cfg, &a, &b));
        let cmat = assemble_from_blocks(dims.n1 as usize, dims.n3 as usize, q, q, |i, j| {
            out.values[i * q + j].c_block.clone().expect("layer 0 holds C")
        });
        (cmat, out)
    }

    fn reference(dims: MatMulDims) -> Matrix {
        let a = random_int_matrix(dims.n1 as usize, dims.n2 as usize, -3..4, 25);
        let b = random_int_matrix(dims.n2 as usize, dims.n3 as usize, -3..4, 26);
        gemm(&a, &b, Kernel::Naive)
    }

    #[test]
    fn correct_at_c1_degenerates_to_cannon() {
        let dims = MatMulDims::new(12, 12, 12);
        let (cmat, _) = run(dims, 3, 1);
        assert_eq!(cmat, reference(dims));
    }

    #[test]
    fn correct_with_replication() {
        let dims = MatMulDims::new(8, 8, 8);
        for (q, c) in [(2usize, 2usize), (4, 2), (4, 4)] {
            let (cmat, _) = run(dims, q, c);
            assert_eq!(cmat, reference(dims), "q={q} c={c}");
        }
    }

    #[test]
    fn correct_rectangular() {
        let dims = MatMulDims::new(12, 8, 4);
        let (cmat, _) = run(dims, 4, 2);
        assert_eq!(cmat, reference(dims));
    }

    #[test]
    fn non_layer0_ranks_return_none() {
        let dims = MatMulDims::new(8, 8, 8);
        let (_, out) = run(dims, 2, 2);
        for (r, v) in out.values.iter().enumerate() {
            assert_eq!(v.c_block.is_some(), r < 4, "rank {r}");
        }
    }

    #[test]
    fn replication_beats_2d_at_scale() {
        // Same P = 1024: c = 1 (pure Cannon on 32×32) vs c = 4 (16×16×4).
        // The replicated version does q/c shift steps instead of q; at this
        // P the saving exceeds the replication + reduction overhead, the
        // memory-for-communication trade §6.2 discusses.
        use crate::cannon::{cannon, CannonConfig};
        let dims = MatMulDims::new(32, 32, 32);
        let (_, repl) = run(dims, 16, 4); // P = 1024
        let cfg = CannonConfig { dims, q: 32, kernel: Kernel::Naive };
        let a = random_int_matrix(32, 32, -3..4, 25);
        let b = random_int_matrix(32, 32, -3..4, 26);
        let flat = World::new(1024, MachineParams::BANDWIDTH_ONLY)
            .run(move |rank| cannon(rank, &cfg, &a, &b));
        assert!(
            repl.critical_path_time() < flat.critical_path_time(),
            "2.5D (c=4) {} should beat 2D (c=1) {}",
            repl.critical_path_time(),
            flat.critical_path_time()
        );
    }

    #[test]
    #[should_panic(expected = "c | q")]
    fn rejects_c_not_dividing_q() {
        let dims = MatMulDims::new(8, 8, 8);
        let cfg = TwoFiveDConfig { dims, q: 3, c: 2, kernel: Kernel::Naive };
        let a = random_int_matrix(8, 8, -1..2, 1);
        let b = random_int_matrix(8, 8, -1..2, 2);
        World::new(18, MachineParams::BANDWIDTH_ONLY).run(move |rank| {
            twofived(rank, &cfg, &a, &b);
        });
    }
}
