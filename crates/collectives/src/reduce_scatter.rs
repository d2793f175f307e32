//! Reduce-Scatter: every rank contributes a full-length vector; afterwards
//! rank `i` holds segment `i` of the element-wise sum over all
//! contributions.
//!
//! This is the collective that assembles the output matrix `C` in
//! Algorithm 1 (each processor in a fiber holds a partial product `D` of
//! the full `C`-block; the sums end up evenly distributed).
//!
//! Bandwidth-optimal algorithms: **ring** (any `p`, any segment sizes) and
//! **recursive halving** (power-of-two `p`), both moving `(1 − 1/p)·W`
//! words per rank for uniform segments and performing the same number of
//! additions.

use std::borrow::Cow;
use std::future::Future;
use std::panic::Location;

use pmm_simnet::{poll_now, CollectiveOp, Comm, Rank};

use crate::util::{axpy1, is_pow2, offsets};

/// Algorithm selector for [`reduce_scatter_v`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReduceScatterAlgo {
    /// Ring; any `p`.
    Ring,
    /// Recursive halving; requires power-of-two `p`.
    RecursiveHalving,
    /// Recursive halving when `p` is a power of two, ring otherwise.
    Auto,
}

/// Reduce-Scatter with uniform segments: `data.len()` must be divisible by
/// `p`; rank `i` receives the sum of everyone's `i`-th chunk.
#[track_caller]
pub fn reduce_scatter<'a>(
    rank: &mut Rank,
    comm: &Comm,
    data: impl Into<Cow<'a, [f64]>>,
    algo: ReduceScatterAlgo,
) -> Vec<f64> {
    poll_now(reduce_scatter_a(rank, comm, data, algo))
}

/// Async form of [`reduce_scatter`] (event-loop programs).
#[track_caller]
pub fn reduce_scatter_a<'r, 'd: 'r>(
    rank: &'r mut Rank,
    comm: &'r Comm,
    data: impl Into<Cow<'d, [f64]>>,
    algo: ReduceScatterAlgo,
) -> impl Future<Output = Vec<f64>> + 'r {
    let site = Location::caller();
    let data = data.into();
    async move {
        let p = comm.size();
        assert!(
            data.len().is_multiple_of(p),
            "reduce_scatter data length {} not divisible by communicator size {p}",
            data.len()
        );
        let counts = vec![data.len() / p; p];
        reduce_scatter_v_at(rank, comm, data, &counts, algo, site).await
    }
}

/// Reduce-Scatter with per-rank segment sizes (`MPI_Reduce_scatter`).
///
/// `data.len() == counts.iter().sum()` at every rank; rank `i` receives
/// the element-wise sum of everyone's segment `i`. Reduction additions are
/// metered as flops on the rank performing them. A `Vec` handed over
/// becomes the accumulator (and is returned as is on a one-member
/// communicator); a borrowed slice is copied into one.
#[track_caller]
pub fn reduce_scatter_v<'a>(
    rank: &mut Rank,
    comm: &Comm,
    data: impl Into<Cow<'a, [f64]>>,
    counts: &[usize],
    algo: ReduceScatterAlgo,
) -> Vec<f64> {
    poll_now(reduce_scatter_v_a(rank, comm, data, counts, algo))
}

/// Async form of [`reduce_scatter_v`] (event-loop programs).
#[track_caller]
pub fn reduce_scatter_v_a<'r, 'd: 'r>(
    rank: &'r mut Rank,
    comm: &'r Comm,
    data: impl Into<Cow<'d, [f64]>>,
    counts: &'r [usize],
    algo: ReduceScatterAlgo,
) -> impl Future<Output = Vec<f64>> + 'r {
    reduce_scatter_v_at(rank, comm, data.into(), counts, algo, Location::caller())
}

pub(crate) async fn reduce_scatter_v_at(
    rank: &mut Rank,
    comm: &Comm,
    data: Cow<'_, [f64]>,
    counts: &[usize],
    algo: ReduceScatterAlgo,
    site: &'static Location<'static>,
) -> Vec<f64> {
    let p = comm.size();
    assert_eq!(counts.len(), p, "counts length must equal communicator size");
    let total: usize = counts.iter().sum();
    assert_eq!(data.len(), total, "data length disagrees with counts");
    rank.collective_begin_at(comm, CollectiveOp::ReduceScatter, total as u64, site).await;
    if p == 1 {
        return data.into_owned();
    }
    match algo {
        ReduceScatterAlgo::Ring => ring(rank, comm, data, counts).await,
        ReduceScatterAlgo::RecursiveHalving => {
            assert!(is_pow2(p), "recursive halving requires power-of-two communicator");
            recursive_halving(rank, comm, data, counts).await
        }
        ReduceScatterAlgo::Auto => {
            if is_pow2(p) {
                recursive_halving(rank, comm, data, counts).await
            } else {
                ring(rank, comm, data, counts).await
            }
        }
    }
}

async fn ring(rank: &mut Rank, comm: &Comm, data: Cow<'_, [f64]>, counts: &[usize]) -> Vec<f64> {
    let p = comm.size();
    let me = comm.index();
    let off = offsets(counts);
    let mut acc = data.into_owned();

    let right = (me + 1) % p;
    let left = (me + p - 1) % p;
    // Segment j starts at rank j+1 and travels rightward, accumulating; it
    // arrives fully reduced at rank j after p−1 steps. At step s this rank
    // sends segment (me − 1 − s mod p) and receives (me − 2 − s mod p).
    for s in 0..p - 1 {
        let send_seg = (me + p - 1 - s) % p;
        let recv_seg = (me + 2 * p - 2 - s) % p;
        let payload = &acc[off[send_seg]..off[send_seg + 1]];
        let msg = rank.exchange_a(comm, right, left, payload).await;
        assert_eq!(msg.payload.len(), counts[recv_seg], "ring segment size mismatch");
        axpy1(&mut acc[off[recv_seg]..off[recv_seg + 1]], &msg.payload);
        rank.compute(counts[recv_seg] as f64);
    }
    acc[off[me]..off[me + 1]].to_vec()
}

async fn recursive_halving(
    rank: &mut Rank,
    comm: &Comm,
    data: Cow<'_, [f64]>,
    counts: &[usize],
) -> Vec<f64> {
    let p = comm.size();
    let me = comm.index();
    let off = offsets(counts);
    let mut acc = data.into_owned();

    // Active segment-index window [lo, hi); halves every step.
    let (mut lo, mut hi) = (0usize, p);
    while hi - lo > 1 {
        let size = hi - lo;
        let mid = lo + size / 2;
        let (keep_lo, keep_hi, partner) =
            if me < mid { (lo, mid, me + size / 2) } else { (mid, hi, me - size / 2) };
        let (send_lo, send_hi) = if me < mid { (mid, hi) } else { (lo, mid) };
        let payload = &acc[off[send_lo]..off[send_hi]];
        let msg = rank.exchange_a(comm, partner, partner, payload).await;
        let keep_words = off[keep_hi] - off[keep_lo];
        assert_eq!(msg.payload.len(), keep_words, "halving segment size mismatch");
        axpy1(&mut acc[off[keep_lo]..off[keep_hi]], &msg.payload);
        rank.compute(keep_words as f64);
        lo = keep_lo;
        hi = keep_hi;
    }
    debug_assert_eq!(lo, me);
    acc[off[me]..off[me + 1]].to_vec()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::costs;
    use pmm_simnet::{MachineParams, World};

    /// Contribution of rank r: element e of the full vector is r·1000 + e.
    fn contribution(r: usize, total: usize) -> Vec<f64> {
        (0..total).map(|e| (r * 1000 + e) as f64).collect()
    }

    fn expected_segment(me: usize, p: usize, counts: &[usize]) -> Vec<f64> {
        let off = crate::util::offsets(counts);
        let sum_r: f64 = (0..p).map(|r| (r * 1000) as f64).sum();
        (off[me]..off[me + 1]).map(|e| sum_r + (p as f64) * e as f64).collect()
    }

    fn check(p: usize, counts: Vec<usize>, algo: ReduceScatterAlgo) {
        let total: usize = counts.iter().sum();
        let out = World::new(p, MachineParams::BANDWIDTH_ONLY).run(|rank| {
            let comm = rank.world_comm();
            let data = contribution(rank.world_rank(), total);
            reduce_scatter_v(rank, &comm, &data, &counts, algo)
        });
        for (r, v) in out.values.iter().enumerate() {
            assert_eq!(v, &expected_segment(r, p, &counts), "rank {r} (p={p}, {algo:?})");
        }
    }

    #[test]
    fn ring_various_p() {
        for p in [2, 3, 4, 5, 7] {
            check(p, vec![2; p], ReduceScatterAlgo::Ring);
        }
    }

    #[test]
    fn recursive_halving_pow2() {
        for p in [2, 4, 8, 16] {
            check(p, vec![3; p], ReduceScatterAlgo::RecursiveHalving);
        }
    }

    #[test]
    fn uneven_and_empty_segments() {
        check(4, vec![0, 5, 2, 1], ReduceScatterAlgo::Ring);
        check(8, vec![1, 0, 3, 2, 0, 0, 4, 1], ReduceScatterAlgo::RecursiveHalving);
    }

    #[test]
    fn auto_dispatch() {
        check(6, vec![2; 6], ReduceScatterAlgo::Auto);
        check(4, vec![2; 4], ReduceScatterAlgo::Auto);
    }

    #[test]
    fn single_rank_identity() {
        let out = World::new(1, MachineParams::BANDWIDTH_ONLY).run(|rank| {
            let comm = rank.world_comm();
            reduce_scatter(rank, &comm, &[3.0, 4.0], ReduceScatterAlgo::Auto)
        });
        assert_eq!(out.values[0], vec![3.0, 4.0]);
    }

    #[test]
    fn single_rank_returns_the_allocation_it_was_handed() {
        let out = World::new(1, MachineParams::BANDWIDTH_ONLY).run(|rank| {
            let comm = rank.world_comm();
            let data = vec![3.0, 4.0, 5.0];
            let ptr_before = data.as_ptr();
            let owned = reduce_scatter_v(rank, &comm, data, &[3], ReduceScatterAlgo::Auto);
            // A borrowed argument stays the caller's: the result is a copy.
            let borrowed = reduce_scatter_v(rank, &comm, &owned, &[3], ReduceScatterAlgo::Auto);
            (owned.as_ptr() == ptr_before, borrowed.as_ptr() != owned.as_ptr(), owned == borrowed)
        });
        assert_eq!(out.values[0], (true, true, true));
    }

    #[test]
    fn bandwidth_and_flops_match_cost_model() {
        for (algo, p) in
            [(ReduceScatterAlgo::Ring, 6usize), (ReduceScatterAlgo::RecursiveHalving, 8)]
        {
            let w = 4usize; // words per segment
            let total = p * w;
            let out = World::new(p, MachineParams::BANDWIDTH_ONLY).run(move |rank| {
                let comm = rank.world_comm();
                let data = vec![1.0; total];
                reduce_scatter(rank, &comm, &data, algo);
                rank.time()
            });
            let model = costs::reduce_scatter_cost(algo, p, w);
            for r in 0..p {
                assert_eq!(out.values[r], model.words, "{algo:?} clock at rank {r}");
                assert_eq!(out.reports[r].meter.words_sent, model.words as u64);
                assert_eq!(out.reports[r].meter.flops, model.flops, "{algo:?} flops");
            }
            // (1 - 1/p)·W with W = p·w
            assert_eq!(model.words, ((p - 1) * w) as f64);
            assert_eq!(model.flops, ((p - 1) * w) as f64);
        }
    }

    #[test]
    fn latency_matches_cost_model() {
        let params = MachineParams::new(1.0, 0.0, 0.0);
        for (algo, p, want) in
            [(ReduceScatterAlgo::Ring, 6usize, 5.0), (ReduceScatterAlgo::RecursiveHalving, 8, 3.0)]
        {
            let out = World::new(p, params).run(move |rank| {
                let comm = rank.world_comm();
                let data = vec![1.0; p];
                reduce_scatter(rank, &comm, &data, algo);
                rank.time()
            });
            let model = costs::reduce_scatter_cost(algo, p, 1);
            assert_eq!(model.messages, want);
            for r in 0..p {
                assert_eq!(out.values[r], want, "{algo:?} latency at rank {r}");
            }
        }
    }

    #[test]
    fn reduce_scatter_then_allgather_is_allreduce() {
        // Sanity composition: RS + AG should give every rank the full sum.
        use crate::allgather::{all_gather, AllGatherAlgo};
        let p = 4usize;
        let out = World::new(p, MachineParams::BANDWIDTH_ONLY).run(|rank| {
            let comm = rank.world_comm();
            let data = vec![(rank.world_rank() + 1) as f64; 8];
            let seg = reduce_scatter(rank, &comm, &data, ReduceScatterAlgo::Auto);
            all_gather(rank, &comm, &seg, AllGatherAlgo::Auto)
        });
        let want = vec![10.0; 8]; // 1+2+3+4
        for v in &out.values {
            assert_eq!(v, &want);
        }
    }

    #[test]
    #[should_panic(expected = "not divisible")]
    fn uniform_requires_divisible_length() {
        World::new(3, MachineParams::BANDWIDTH_ONLY).run(|rank| {
            let comm = rank.world_comm();
            reduce_scatter(rank, &comm, &[1.0; 4], ReduceScatterAlgo::Ring);
        });
    }
}
