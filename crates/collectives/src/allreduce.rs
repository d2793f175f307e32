//! All-Reduce: element-wise sum of every rank's buffer, delivered at every
//! rank.

use std::borrow::Cow;
use std::future::Future;
use std::panic::Location;

use pmm_simnet::{poll_now, CollectiveOp, Comm, Rank};

use crate::allgather::{all_gather_v_a, AllGatherAlgo};
use crate::reduce_scatter::{reduce_scatter_v_a, ReduceScatterAlgo};
use crate::util::{axpy1, is_pow2};

/// Algorithm selector for [`all_reduce`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllReduceAlgo {
    /// Rabenseifner: Reduce-Scatter then All-Gather. Bandwidth-optimal
    /// `2(1 − 1/p)·w`; any `p` (uneven trailing segment allowed).
    ReduceScatterAllGather,
    /// Recursive doubling: `log2 p` rounds of whole-buffer exchanges;
    /// latency-optimal, bandwidth `log2(p)·w`. Power-of-two `p` only.
    RecursiveDoubling,
    /// Rabenseifner (the bandwidth-optimal default).
    Auto,
}

/// Sum-reduce `data` across the communicator; every rank returns the full
/// element-wise sum. A `Vec` handed over becomes the reduction's
/// accumulator; a borrowed slice is copied into one.
#[track_caller]
pub fn all_reduce<'a>(
    rank: &mut Rank,
    comm: &Comm,
    data: impl Into<Cow<'a, [f64]>>,
    algo: AllReduceAlgo,
) -> Vec<f64> {
    poll_now(all_reduce_a(rank, comm, data, algo))
}

/// Async form of [`all_reduce`] (event-loop programs).
#[track_caller]
pub fn all_reduce_a<'r, 'd: 'r>(
    rank: &'r mut Rank,
    comm: &'r Comm,
    data: impl Into<Cow<'d, [f64]>>,
    algo: AllReduceAlgo,
) -> impl Future<Output = Vec<f64>> + 'r {
    let site = Location::caller();
    let data = data.into();
    async move {
        let p = comm.size();
        rank.collective_begin_at(comm, CollectiveOp::AllReduce, data.len() as u64, site).await;
        if p == 1 {
            return data.into_owned();
        }
        match algo {
            AllReduceAlgo::ReduceScatterAllGather | AllReduceAlgo::Auto => {
                rsag(rank, comm, data).await
            }
            AllReduceAlgo::RecursiveDoubling => {
                assert!(is_pow2(p), "recursive-doubling all-reduce requires power-of-two p");
                recursive_doubling(rank, comm, data).await
            }
        }
    }
}

async fn rsag(rank: &mut Rank, comm: &Comm, data: Cow<'_, [f64]>) -> Vec<f64> {
    let p = comm.size();
    // Split the buffer into p near-equal segments (first `rem` segments one
    // word longer) so any length works.
    let base = data.len() / p;
    let rem = data.len() % p;
    let counts: Vec<usize> = (0..p).map(|i| base + usize::from(i < rem)).collect();
    let seg = reduce_scatter_v_a(rank, comm, data, &counts, ReduceScatterAlgo::Auto).await;
    all_gather_v_a(rank, comm, seg, &counts, AllGatherAlgo::Auto).await
}

async fn recursive_doubling(rank: &mut Rank, comm: &Comm, data: Cow<'_, [f64]>) -> Vec<f64> {
    let p = comm.size();
    let me = comm.index();
    let mut acc = data.into_owned();
    let mut mask = 1usize;
    while mask < p {
        let partner = me ^ mask;
        let msg = rank.exchange_a(comm, partner, partner, &acc).await;
        assert_eq!(msg.payload.len(), acc.len(), "all-reduce length mismatch");
        axpy1(&mut acc, &msg.payload);
        rank.compute(acc.len() as f64);
        mask <<= 1;
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::costs;
    use pmm_simnet::{MachineParams, World};

    fn check(p: usize, len: usize, algo: AllReduceAlgo) {
        let out = World::new(p, MachineParams::BANDWIDTH_ONLY).run(move |rank| {
            let comm = rank.world_comm();
            let data: Vec<f64> =
                (0..len).map(|e| (rank.world_rank() + 1) as f64 + e as f64).collect();
            all_reduce(rank, &comm, &data, algo)
        });
        let s = (p * (p + 1) / 2) as f64;
        let want: Vec<f64> = (0..len).map(|e| s + (p as f64) * e as f64).collect();
        for (r, v) in out.values.iter().enumerate() {
            assert_eq!(v, &want, "rank {r} (p={p}, len={len}, {algo:?})");
        }
    }

    #[test]
    fn rsag_various() {
        check(4, 8, AllReduceAlgo::ReduceScatterAllGather);
        check(5, 7, AllReduceAlgo::ReduceScatterAllGather); // uneven everything
        check(8, 16, AllReduceAlgo::ReduceScatterAllGather);
        check(3, 1, AllReduceAlgo::ReduceScatterAllGather); // len < p
    }

    #[test]
    fn recursive_doubling_various() {
        check(2, 5, AllReduceAlgo::RecursiveDoubling);
        check(8, 3, AllReduceAlgo::RecursiveDoubling);
    }

    #[test]
    fn auto_works_for_any_p() {
        check(6, 9, AllReduceAlgo::Auto);
        check(16, 32, AllReduceAlgo::Auto);
    }

    #[test]
    fn rabenseifner_matches_cost_model() {
        let (p, w) = (8usize, 80usize);
        let out = World::new(p, MachineParams::BANDWIDTH_ONLY).run(move |rank| {
            let comm = rank.world_comm();
            all_reduce(rank, &comm, vec![1.0; w], AllReduceAlgo::ReduceScatterAllGather);
            rank.time()
        });
        let model = costs::all_reduce_cost(AllReduceAlgo::ReduceScatterAllGather, p, w);
        for r in 0..p {
            assert_eq!(out.values[r], model.words, "clock at rank {r}");
        }
        assert_eq!(model.words, 2.0 * (1.0 - 1.0 / p as f64) * w as f64);
    }

    #[test]
    fn recursive_doubling_matches_cost_model() {
        let (p, w) = (8usize, 10usize);
        let out = World::new(p, MachineParams::BANDWIDTH_ONLY).run(move |rank| {
            let comm = rank.world_comm();
            all_reduce(rank, &comm, vec![1.0; w], AllReduceAlgo::RecursiveDoubling);
            rank.time()
        });
        let model = costs::all_reduce_cost(AllReduceAlgo::RecursiveDoubling, p, w);
        for r in 0..p {
            assert_eq!(out.values[r], model.words);
        }
        assert_eq!(model.words, 30.0);
    }

    #[test]
    fn single_rank_identity() {
        let out = World::new(1, MachineParams::BANDWIDTH_ONLY).run(|rank| {
            let comm = rank.world_comm();
            all_reduce(rank, &comm, &[1.0, 2.0], AllReduceAlgo::Auto)
        });
        assert_eq!(out.values[0], vec![1.0, 2.0]);
    }
}
