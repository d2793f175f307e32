//! The CARMA-style recursive algorithm (Demmel et al. 2013), **executed**
//! on the simulated machine.
//!
//! The algorithm repeatedly splits the *largest* of the three dimensions
//! in half, assigning half the processors to each subproblem (a BFS
//! step). Splitting a non-contracted dimension (`n1` or `n3`) means both
//! halves need the matrix that does **not** contain that dimension, so
//! each processor exchanges its share of it (`words/P`); splitting the
//! contracted dimension `n2` means the two halves' partial `C`s must be
//! combined (`|C|/P` per processor). Both the split rule
//! ([`carma_split_dim`]) and the recursion's closed form (the CARMA arm of
//! [`plan_prediction`](pmm_model::plan_prediction)) live in `pmm-model`.
//!
//! The executed version uses the **CARMA layout**: a processor's share of
//! each matrix is defined by its path down the recursion tree — split
//! matrices are halved *semantically* (sub-matrix), shared matrices are
//! halved *flat* between the paired processors of the two halves, so a
//! single pairwise exchange per level reconstitutes exactly the share the
//! subproblem's layout requires. Consequently the executed communication
//! matches the closed form to the word (see tests).
//!
//! Demmel et al. prove this algorithm attains all three cases of the
//! memory-independent bound *asymptotically* (their Table I); it does not
//! track constants — the gap Theorem 3 closes. `P` must be a power of
//! two, and every split dimension must be even along the recursion.

use pmm_dense::{gemm, Kernel, Matrix};

use pmm_model::{carma_split_dim, MatMulDims};
use pmm_simnet::{poll_now, Comm, LocalBoxFuture, Rank};

/// Extract the CARMA-layout initial shares of `A` and `B` for the
/// processor with index `idx` in a group of `p` (both power-of-two
/// recursion; `a`/`b` are the global matrices, read only for the share).
pub fn carma_shares(p: usize, idx: usize, a: &Matrix, b: &Matrix) -> (Vec<f64>, Vec<f64>) {
    assert!(p.is_power_of_two(), "CARMA requires power-of-two P");
    assert!(idx < p);
    if p == 1 {
        return (a.as_slice().to_vec(), b.as_slice().to_vec());
    }
    let (n1, n2, n3) = (a.rows(), a.cols(), b.cols());
    let half = p / 2;
    let lower = idx < half;
    let sub_idx = if lower { idx } else { idx - half };
    match carma_split_dim(n1, n2, n3) {
        0 => {
            // split n1: A halved semantically; B shared (flat-halved).
            assert!(n1 % 2 == 0, "split dimension n1 = {n1} must be even");
            let a_half = if lower { a.sub(0, 0, n1 / 2, n2) } else { a.sub(n1 / 2, 0, n1 / 2, n2) };
            let (a_share, b_dist) = carma_shares(half, sub_idx, &a_half, b);
            let l = b_dist.len();
            let b_share = if lower { b_dist[..l / 2].to_vec() } else { b_dist[l / 2..].to_vec() };
            (a_share, b_share)
        }
        2 => {
            // split n3: B halved semantically; A shared (flat-halved).
            assert!(n3 % 2 == 0, "split dimension n3 = {n3} must be even");
            let b_half = if lower { b.sub(0, 0, n2, n3 / 2) } else { b.sub(0, n3 / 2, n2, n3 / 2) };
            let (a_dist, b_share) = carma_shares(half, sub_idx, a, &b_half);
            let l = a_dist.len();
            let a_share = if lower { a_dist[..l / 2].to_vec() } else { a_dist[l / 2..].to_vec() };
            (a_share, b_share)
        }
        _ => {
            // split n2: both inputs halved semantically; C is the shared one.
            assert!(n2 % 2 == 0, "split dimension n2 = {n2} must be even");
            let (a_half, b_half) = if lower {
                (a.sub(0, 0, n1, n2 / 2), b.sub(0, 0, n2 / 2, n3))
            } else {
                (a.sub(0, n2 / 2, n1, n2 / 2), b.sub(n2 / 2, 0, n2 / 2, n3))
            };
            carma_shares(half, sub_idx, &a_half, &b_half)
        }
    }
}

/// [`carma_a`] driven to completion in one [`poll_now`]: the sync entry
/// point of a [`World::run`](pmm_simnet::World::run) thread host, kept only
/// for the frozen benchmark.
pub fn carma(
    rank: &mut Rank,
    comm: &Comm,
    dims: MatMulDims,
    kernel: Kernel,
    a_share: Vec<f64>,
    b_share: Vec<f64>,
) -> Vec<f64> {
    poll_now(carma_a(rank, comm, dims, kernel, a_share, b_share))
}

/// Run the executed CARMA recursion on communicator `comm` (its size must
/// be a power of two). `a_share`/`b_share` are this rank's CARMA-layout
/// shares (from [`carma_shares`]). Returns this rank's share of `C`
/// (CARMA layout; reassemble with [`carma_assemble_c`]).
///
/// Boxed because the recursion would otherwise make the future type
/// infinitely sized.
pub fn carma_a<'r>(
    rank: &'r mut Rank,
    comm: &'r Comm,
    dims: MatMulDims,
    kernel: Kernel,
    a_share: Vec<f64>,
    b_share: Vec<f64>,
) -> LocalBoxFuture<'r, Vec<f64>> {
    Box::pin(async move {
        let p = comm.size();
        assert!(p.is_power_of_two(), "CARMA requires power-of-two P");
        let (n1, n2, n3) = (dims.n1 as usize, dims.n2 as usize, dims.n3 as usize);
        if p == 1 {
            return pmm_simnet::phase!(rank, "local multiply", {
                let a = Matrix::from_vec(n1, n2, a_share);
                let b = Matrix::from_vec(n2, n3, b_share);
                rank.compute((n1 * n2 * n3) as f64);
                gemm(&a, &b, kernel).into_vec()
            });
        }
        let half = p / 2;
        let me = comm.index();
        let lower = me < half;
        let partner = if lower { me + half } else { me - half };
        let sub_color = if lower { 0 } else { 1 };
        match carma_split_dim(n1, n2, n3) {
            0 => {
                // split n1: exchange B shares so both halves hold the full
                // (p/2)-distribution of B.
                let msg = pmm_simnet::phase!(
                    rank,
                    "exchange B",
                    rank.sendrecv_a(comm, partner, &b_share).await
                );
                let combined = if lower {
                    [b_share, msg.payload].concat()
                } else {
                    [msg.payload, b_share].concat()
                };
                rank.mem_acquire((combined.len() / 2) as u64);
                let subcomm =
                    rank.split_a(comm, sub_color, me as i64).await.expect("subcommunicator");
                let subdims = MatMulDims::new(dims.n1 / 2, dims.n2, dims.n3);
                carma_a(rank, &subcomm, subdims, kernel, a_share, combined).await
            }
            2 => {
                // split n3: exchange A shares.
                let msg = pmm_simnet::phase!(
                    rank,
                    "exchange A",
                    rank.sendrecv_a(comm, partner, &a_share).await
                );
                let combined = if lower {
                    [a_share, msg.payload].concat()
                } else {
                    [msg.payload, a_share].concat()
                };
                rank.mem_acquire((combined.len() / 2) as u64);
                let subcomm =
                    rank.split_a(comm, sub_color, me as i64).await.expect("subcommunicator");
                let subdims = MatMulDims::new(dims.n1, dims.n2, dims.n3 / 2);
                carma_a(rank, &subcomm, subdims, kernel, combined, b_share).await
            }
            _ => {
                // split n2: recurse first, then combine the partial C shares —
                // keep my half of the distribution, send the other half.
                let subcomm =
                    rank.split_a(comm, sub_color, me as i64).await.expect("subcommunicator");
                let subdims = MatMulDims::new(dims.n1, dims.n2 / 2, dims.n3);
                let partial = carma_a(rank, &subcomm, subdims, kernel, a_share, b_share).await;
                let l = partial.len();
                assert!(l.is_multiple_of(2), "partial C share must split evenly");
                let (keep_range, send_range) =
                    if lower { (0..l / 2, l / 2..l) } else { (l / 2..l, 0..l / 2) };
                pmm_simnet::phase!(rank, "combine C", {
                    let msg = rank.sendrecv_a(comm, partner, &partial[send_range]).await;
                    let mut kept = partial[keep_range].to_vec();
                    assert_eq!(msg.payload.len(), kept.len(), "partial C exchange mismatch");
                    for (x, &y) in kept.iter_mut().zip(&msg.payload) {
                        *x += y;
                    }
                    rank.compute(kept.len() as f64);
                    kept
                })
            }
        }
    })
}

/// Reassemble the global `C` from every rank's CARMA-layout share
/// (test/harness helper, runs outside the simulated machine).
pub fn carma_assemble_c(dims: MatMulDims, p: usize, shares: &[Vec<f64>]) -> Matrix {
    assert_eq!(shares.len(), p);
    let mut c = Matrix::zeros(dims.n1 as usize, dims.n3 as usize);
    for (r, share) in shares.iter().enumerate() {
        place_c(p, r, dims.n1 as usize, dims.n2 as usize, dims.n3 as usize, share, &mut c, 0, 0);
    }
    c
}

/// Recursively locate rank `idx`'s C share within the output. `(r0, c0)`
/// is the global offset of the current `n1 × n3` sub-output. Mirrors the
/// split rule of [`carma`] exactly, including how the final `C`
/// distribution halves flat at `n2` splits.
#[allow(clippy::too_many_arguments)] // mirrors the recursion state one-to-one
fn place_c(
    p: usize,
    idx: usize,
    n1: usize,
    n2: usize,
    n3: usize,
    share: &[f64],
    out: &mut Matrix,
    r0: usize,
    c0: usize,
) {
    if p == 1 {
        let block = Matrix::from_vec(n1, n3, share.to_vec());
        out.set_sub(r0, c0, &block);
        return;
    }
    let half = p / 2;
    let lower = idx < half;
    let sub_idx = if lower { idx } else { idx - half };
    match carma_split_dim(n1, n2, n3) {
        0 => {
            let r0 = if lower { r0 } else { r0 + n1 / 2 };
            place_c(half, sub_idx, n1 / 2, n2, n3, share, out, r0, c0);
        }
        2 => {
            let c0 = if lower { c0 } else { c0 + n3 / 2 };
            place_c(half, sub_idx, n1, n2, n3 / 2, share, out, r0, c0);
        }
        _ => {
            // n2-split: the final share is my half of the (p/2)-level
            // distribution — reconstruct by descending with a *virtual*
            // share twice as long, of which we hold the lower/upper flat
            // half. We realize this by descending to the leaf to find the
            // leaf block, then taking the flat half chain.
            place_c_n2(half, sub_idx, n1, n2 / 2, n3, share, lower, out, r0, c0);
        }
    }
}

/// After an `n2` split, rank shares are flat halves of the subproblem's C
/// distribution. Descend the remaining recursion keeping track of which
/// flat fraction (offset/fraction within the leaf block) this share is.
#[allow(clippy::too_many_arguments)]
fn place_c_n2(
    p: usize,
    idx: usize,
    n1: usize,
    n2: usize,
    n3: usize,
    share: &[f64],
    took_lower_half: bool,
    out: &mut Matrix,
    r0: usize,
    c0: usize,
) {
    // The flat halving composes: the leaf block (n1_leaf × n3_leaf) is a
    // contiguous row-major buffer of which this rank holds a contiguous
    // run. Track (num, den) position: we hold [off, off + len) of the
    // leaf's flat buffer.
    let mut p = p;
    let mut idx = idx;
    let (mut n1, mut n2, mut n3) = (n1, n2, n3);
    let (mut r0, mut c0) = (r0, c0);
    // fraction state: we hold the `which`-th of `parts` equal flat pieces
    let mut parts = 2usize;
    let mut which = if took_lower_half { 0usize } else { 1 };
    loop {
        if p == 1 {
            let rows = n1;
            let cols = n3;
            let total = rows * cols;
            let len = total / parts;
            assert_eq!(share.len(), len, "C share length mismatch in reassembly");
            let off = which * len;
            // Paste the contiguous run [off, off+len) of the row-major
            // leaf block.
            for (i, &v) in share.iter().enumerate() {
                let flat = off + i;
                let r = flat / cols;
                let c = flat % cols;
                out[(r0 + r, c0 + c)] += v;
            }
            return;
        }
        let half = p / 2;
        let lower = idx < half;
        let sub_idx = if lower { idx } else { idx - half };
        match carma_split_dim(n1, n2, n3) {
            0 => {
                if !lower {
                    r0 += n1 / 2;
                }
                n1 /= 2;
            }
            2 => {
                if !lower {
                    c0 += n3 / 2;
                }
                n3 /= 2;
            }
            _ => {
                // A deeper n2-split is the *coarser* selection: it picks a
                // half of the leaf buffer, inside which our selection so
                // far applies. offset = w·(L/2) + which·(L/2)/parts ⇒
                // which' = w·parts + which, parts' = 2·parts.
                n2 /= 2;
                which += usize::from(!lower) * parts;
                parts *= 2;
            }
        }
        p = half;
        idx = sub_idx;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::words_vs_bound;
    use pmm_core::theorem3::lower_bound;
    use pmm_model::{plan_prediction, AlgPlan};

    /// Words per rank the CARMA recursion moves on `p` ranks.
    fn words_per_rank(dims: MatMulDims, p: u64) -> f64 {
        plan_prediction(dims, &AlgPlan::Carma { p: p as usize }).cost.words
    }

    /// Whether `w` words on `p` ranks are not below Theorem 3's bound,
    /// decided exactly on `w`'s whole part: `⌊w⌋` not below it is `w`
    /// not below it.
    fn above(dims: MatMulDims, p: u64, w: f64) -> bool {
        words_vs_bound(dims, p as usize, w.floor()).is_ge()
    }

    #[test]
    fn zero_for_single_processor() {
        assert_eq!(words_per_rank(MatMulDims::square(1000), 1), 0.0);
    }

    #[test]
    fn within_constant_factor_of_bound_in_all_cases() {
        // Asymptotic optimality: cost / bound stays bounded (Demmel et al.
        // Table I). Check a generous constant across the three cases.
        let dims = MatMulDims::new(8192, 2048, 512);
        for p in [2u64, 4, 32, 256, 4096, 65536] {
            let w = words_per_rank(dims, p);
            let b = lower_bound(dims, p as f64).bound;
            assert!(above(dims, p, w), "P={p}: CARMA {w} below bound {b}?!");
            assert!(w <= 8.0 * b.max(1.0), "P={p}: CARMA {w} not within 8× of bound {b}");
        }
    }

    #[test]
    fn never_beats_the_lower_bound() {
        for (dims, ps) in [
            (MatMulDims::square(4096), vec![8u64, 64, 512]),
            (MatMulDims::new(16384, 256, 64), vec![2, 16, 128]),
        ] {
            for p in ps {
                let w = words_per_rank(dims, p);
                assert!(above(dims, p, w), "{dims} P={p}: {w} words");
            }
        }
    }

    #[test]
    fn splits_follow_the_largest_dimension() {
        // Tall-skinny: first split is m, cost |B|/P each level while m
        // dominates.
        let dims = MatMulDims::new(1 << 20, 4, 4);
        let w = words_per_rank(dims, 2);
        assert_eq!(w, 16.0 / 2.0, "one m-split exchanges B/P");
    }

    #[test]
    fn cost_is_monotone_in_problem_size() {
        for p in [8u64, 64] {
            let small = words_per_rank(MatMulDims::square(512), p);
            let big = words_per_rank(MatMulDims::square(1024), p);
            assert!(big > small);
        }
    }

    // ----- executed CARMA ---------------------------------------------------

    use crate::Inputs;

    #[test]
    fn executed_carma_is_correct() {
        for (dims, p) in [
            (MatMulDims::square(16), 1usize),
            (MatMulDims::square(16), 2),
            (MatMulDims::square(16), 8),
            (MatMulDims::new(32, 8, 16), 4),
            (MatMulDims::new(64, 16, 8), 16),
            (MatMulDims::new(8, 32, 8), 8), // contracted dim dominates
        ] {
            Inputs::random_int(dims, 91).measure(&AlgPlan::Carma { p }, false);
        }
    }

    #[test]
    fn executed_carma_matches_the_cost_model_exactly() {
        // The closed form used by algo_compare is exactly what the
        // execution pays: shares are equal-sized, exchanges are duplex, so
        // the critical-path clock equals the recursion sum, and (held by
        // `measure`) every rank sends its share once per level.
        for (dims, p) in [
            (MatMulDims::square(32), 8usize),
            (MatMulDims::new(64, 16, 32), 16),
            (MatMulDims::new(128, 8, 8), 8),
        ] {
            let out = Inputs::random_int(dims, 13).measure(&AlgPlan::Carma { p }, false);
            let got = out.critical_path_time();
            let words = words_per_rank(dims, p as u64);
            assert!((got - words).abs() < 1e-9, "{dims} P={p}: measured {got} vs model {words}");
        }
    }

    #[test]
    fn executed_carma_shares_have_expected_sizes() {
        // Every rank's input share is exactly 1/P of each matrix.
        let dims = MatMulDims::new(32, 16, 8);
        let p = 8usize;
        let inputs = Inputs::random_int(dims, 5);
        for r in 0..p {
            let (sa, sb) = carma_shares(p, r, &inputs.a, &inputs.b);
            assert_eq!(sa.len() as f64, dims.words_of(pmm_model::MatrixId::A) / p as f64);
            assert_eq!(sb.len() as f64, dims.words_of(pmm_model::MatrixId::B) / p as f64);
        }
    }

    #[test]
    fn executed_carma_is_load_balanced() {
        let out =
            Inputs::random_int(MatMulDims::square(32), 3).measure(&AlgPlan::Carma { p: 8 }, false);
        let flops: Vec<f64> = out.reports.iter().map(|r| r.meter.flops).collect();
        for f in &flops {
            assert_eq!(*f, flops[0], "compute must be perfectly balanced");
        }
        let words: Vec<u64> = out.reports.iter().map(|r| r.meter.words_sent).collect();
        for w in &words {
            assert_eq!(*w, words[0], "communication must be perfectly balanced");
        }
    }
}
