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

use pmm_model::collective::ReduceScatterAlgo;
use pmm_simnet::{CollectiveOp, Comm, Rank};

use crate::counts::{Counts, Layout};
use crate::util::axpy1;

/// Reduce-Scatter of `data` split evenly over the members
/// (`Counts::Even(data.len())`, any length): rank `i` receives the sum of
/// everyone's `i`-th chunk.
#[track_caller]
pub fn reduce_scatter_a<'r, 'd: 'r>(
    rank: &'r mut Rank,
    comm: &'r Comm,
    data: impl Into<Cow<'d, [f64]>>,
    algo: ReduceScatterAlgo,
) -> impl Future<Output = Vec<f64>> + 'r {
    let data = data.into();
    let lay = Layout::new(Counts::Even(data.len()), comm.size());
    reduce_scatter_v_at(rank, comm, data, lay, algo, Location::caller())
}

/// Reduce-Scatter with per-rank segment sizes (`MPI_Reduce_scatter`).
///
/// `counts` gives every member's segment — a [`Counts::Even`] split of
/// `data.len()`, or a `&[usize]` with one count per member — and
/// `data.len()` is their sum at every rank; rank `i` receives the
/// element-wise sum of everyone's segment `i`. Reduction additions are
/// metered as flops on the rank performing them. A `Vec` handed over
/// becomes the accumulator (and is returned as is on a one-member
/// communicator); a borrowed slice is copied into one.
#[track_caller]
pub fn reduce_scatter_v_a<'r, 'd: 'r, 'c>(
    rank: &'r mut Rank,
    comm: &'r Comm,
    data: impl Into<Cow<'d, [f64]>>,
    counts: impl Into<Counts<'c>>,
    algo: ReduceScatterAlgo,
) -> impl Future<Output = Vec<f64>> + 'r {
    let lay = Layout::new(counts.into(), comm.size());
    reduce_scatter_v_at(rank, comm, data.into(), lay, algo, Location::caller())
}

#[allow(clippy::manual_async_fn)] // an `async fn` holds its arguments twice
pub(crate) fn reduce_scatter_v_at<'a>(
    rank: &'a mut Rank,
    comm: &'a Comm,
    data: Cow<'a, [f64]>,
    lay: Layout,
    algo: ReduceScatterAlgo,
    site: &'static Location<'static>,
) -> impl Future<Output = Vec<f64>> + 'a {
    async move {
        let p = comm.size();
        let total = lay.total();
        assert_eq!(data.len(), total, "data length disagrees with counts");
        rank.collective_begin_at(comm, CollectiveOp::ReduceScatter, total as u64, site).await;
        if p == 1 {
            return data.into_owned();
        }
        match algo.resolve(p) {
            ReduceScatterAlgo::Ring => ring(rank, comm, data, &lay).await,
            // Recursive halving (`resolve` never returns `Auto`).
            _ => {
                assert!(
                    p.is_power_of_two(),
                    "recursive halving requires power-of-two communicator"
                );
                recursive_halving(rank, comm, data, &lay).await
            }
        }
    }
}

#[allow(clippy::manual_async_fn)] // an `async fn` holds its arguments twice
fn ring<'a>(
    rank: &'a mut Rank,
    comm: &'a Comm,
    data: Cow<'a, [f64]>,
    lay: &'a Layout,
) -> impl Future<Output = Vec<f64>> + 'a {
    async move {
        let p = comm.size();
        let me = comm.index();
        let mut acc = data.into_owned();

        let right = (me + 1) % p;
        let left = (me + p - 1) % p;
        // Segment j starts at rank j+1 and travels rightward, accumulating; it
        // arrives fully reduced at rank j after p−1 steps. At step s this rank
        // sends segment (me − 1 − s mod p) and receives (me − 2 − s mod p).
        for s in 0..p - 1 {
            let send_seg = (me + p - 1 - s) % p;
            let recv_seg = (me + 2 * p - 2 - s) % p;
            let payload = &acc[lay.block(send_seg)];
            let msg = rank.exchange_a(comm, right, left, payload).await;
            let dst = lay.block(recv_seg);
            assert_eq!(msg.payload.len(), dst.len(), "ring segment size mismatch");
            let words = dst.len();
            axpy1(&mut acc[dst], &msg.payload);
            rank.compute(words as f64);
        }
        acc[lay.block(me)].to_vec()
    }
}

#[allow(clippy::manual_async_fn)] // an `async fn` holds its arguments twice
fn recursive_halving<'a>(
    rank: &'a mut Rank,
    comm: &'a Comm,
    data: Cow<'a, [f64]>,
    lay: &'a Layout,
) -> impl Future<Output = Vec<f64>> + 'a {
    async move {
        let p = comm.size();
        let me = comm.index();
        let mut acc = data.into_owned();

        // Active segment-index window [lo, hi); halves every step.
        let (mut lo, mut hi) = (0usize, p);
        while hi - lo > 1 {
            let size = hi - lo;
            let mid = lo + size / 2;
            let (keep_lo, keep_hi, partner) =
                if me < mid { (lo, mid, me + size / 2) } else { (mid, hi, me - size / 2) };
            let (send_lo, send_hi) = if me < mid { (mid, hi) } else { (lo, mid) };
            let payload = &acc[lay.span(send_lo, send_hi)];
            let msg = rank.exchange_a(comm, partner, partner, payload).await;
            let keep = lay.span(keep_lo, keep_hi);
            let keep_words = keep.len();
            assert_eq!(msg.payload.len(), keep_words, "halving segment size mismatch");
            axpy1(&mut acc[keep], &msg.payload);
            rank.compute(keep_words as f64);
            lo = keep_lo;
            hi = keep_hi;
        }
        debug_assert_eq!(lo, me);
        acc[lay.block(me)].to_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmm_model::collective;
    use pmm_simnet::{MachineParams, World};

    /// Contribution of rank r: element e of the full vector is r·1000 + e.
    fn contribution(r: usize, total: usize) -> Vec<f64> {
        (0..total).map(|e| (r * 1000 + e) as f64).collect()
    }

    fn expected_segment(me: usize, p: usize, counts: &[usize]) -> Vec<f64> {
        let lay = Layout::new(counts.into(), p);
        let sum_r: f64 = (0..p).map(|r| (r * 1000) as f64).sum();
        lay.block(me).map(|e| sum_r + (p as f64) * e as f64).collect()
    }

    fn check(p: usize, counts: Vec<usize>, algo: ReduceScatterAlgo) {
        let total: usize = counts.iter().sum();
        let out = World::new(p, MachineParams::BANDWIDTH_ONLY).run_async(|rank| {
            let counts = counts.clone();
            Box::pin(async move {
                let comm = rank.world_comm();
                let data = contribution(rank.world_rank(), total);
                reduce_scatter_v_a(rank, &comm, &data, &counts, algo).await
            })
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
        let out = World::new(1, MachineParams::BANDWIDTH_ONLY).run_async(|rank| {
            Box::pin(async move {
                let comm = rank.world_comm();
                reduce_scatter_a(rank, &comm, &[3.0, 4.0], ReduceScatterAlgo::Auto).await
            })
        });
        assert_eq!(out.values[0], vec![3.0, 4.0]);
    }

    #[test]
    fn single_rank_returns_the_allocation_it_was_handed() {
        let out = World::new(1, MachineParams::BANDWIDTH_ONLY).run_async(|rank| {
            Box::pin(async move {
                let comm = rank.world_comm();
                let data = vec![3.0, 4.0, 5.0];
                let ptr_before = data.as_ptr();
                let owned =
                    reduce_scatter_v_a(rank, &comm, data, &[3], ReduceScatterAlgo::Auto).await;
                // A borrowed argument stays the caller's: the result is a copy.
                let borrowed =
                    reduce_scatter_v_a(rank, &comm, &owned, &[3], ReduceScatterAlgo::Auto).await;
                (
                    owned.as_ptr() == ptr_before,
                    borrowed.as_ptr() != owned.as_ptr(),
                    owned == borrowed,
                )
            })
        });
        assert_eq!(out.values[0], (true, true, true));
    }

    #[test]
    fn latency_matches_cost_model() {
        let params = MachineParams::new(1.0, 0.0, 0.0);
        for (algo, p, want) in
            [(ReduceScatterAlgo::Ring, 6usize, 5.0), (ReduceScatterAlgo::RecursiveHalving, 8, 3.0)]
        {
            let out = World::new(p, params).run_async(move |rank| {
                Box::pin(async move {
                    let comm = rank.world_comm();
                    let data = vec![1.0; p];
                    reduce_scatter_a(rank, &comm, &data, algo).await;
                    rank.time()
                })
            });
            let model = collective::reduce_scatter_cost(algo, p, 1);
            assert_eq!(model.messages, want);
            for r in 0..p {
                assert_eq!(out.values[r], want, "{algo:?} latency at rank {r}");
            }
        }
    }

    #[test]
    fn reduce_scatter_then_allgather_is_allreduce() {
        // Sanity composition: RS + AG should give every rank the full sum.
        use crate::allgather::all_gather_a;
        use pmm_model::collective::AllGatherAlgo;
        let p = 4usize;
        let out = World::new(p, MachineParams::BANDWIDTH_ONLY).run_async(|rank| {
            Box::pin(async move {
                let comm = rank.world_comm();
                let data = vec![(rank.world_rank() + 1) as f64; 8];
                let seg = reduce_scatter_a(rank, &comm, &data, ReduceScatterAlgo::Auto).await;
                all_gather_a(rank, &comm, &seg, AllGatherAlgo::Auto).await
            })
        });
        let want = vec![10.0; 8]; // 1+2+3+4
        for v in &out.values {
            assert_eq!(v, &want);
        }
    }
}
