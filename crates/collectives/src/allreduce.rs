//! All-Reduce: element-wise sum of every rank's buffer, delivered at every
//! rank (Rabenseifner: a Reduce-Scatter, then an All-Gather).

use std::borrow::Cow;
use std::future::Future;
use std::panic::Location;

use pmm_model::collective::{AllGatherAlgo, ReduceScatterAlgo};
use pmm_simnet::{CollectiveOp, Comm, Rank};

use crate::allgather::all_gather_v_a;
use crate::counts::Counts;
use crate::reduce_scatter::reduce_scatter_a;

/// Sum-reduce `data` across the communicator; every rank returns the full
/// element-wise sum. A `Vec` handed over becomes the reduction's
/// accumulator; a borrowed slice is copied into one.
///
/// The buffer is split into `p` near-equal segments (the first
/// `len mod p` one word longer), so any length works: each is
/// reduce-scattered, then all-gathered, both with their `Auto` schedule.
#[track_caller]
pub fn all_reduce_a<'r, 'd: 'r>(
    rank: &'r mut Rank,
    comm: &'r Comm,
    data: impl Into<Cow<'d, [f64]>>,
) -> impl Future<Output = Vec<f64>> + 'r {
    let site = Location::caller();
    let data = data.into();
    async move {
        let p = comm.size();
        rank.collective_begin_at(comm, CollectiveOp::AllReduce, data.len() as u64, site).await;
        if p == 1 {
            return data.into_owned();
        }
        let total = data.len();
        let seg = reduce_scatter_a(rank, comm, data, ReduceScatterAlgo::Auto).await;
        all_gather_v_a(rank, comm, seg, Counts::Even(total), AllGatherAlgo::Auto).await
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmm_model::collective;
    use pmm_simnet::{MachineParams, World};

    fn check(p: usize, len: usize) {
        let out = World::new(p, MachineParams::BANDWIDTH_ONLY).run_async(move |rank| {
            Box::pin(async move {
                let comm = rank.world_comm();
                let data: Vec<f64> =
                    (0..len).map(|e| (rank.world_rank() + 1) as f64 + e as f64).collect();
                all_reduce_a(rank, &comm, &data).await
            })
        });
        let s = (p * (p + 1) / 2) as f64;
        let want: Vec<f64> = (0..len).map(|e| s + (p as f64) * e as f64).collect();
        for (r, v) in out.values.iter().enumerate() {
            assert_eq!(v, &want, "rank {r} (p={p}, len={len})");
        }
    }

    #[test]
    fn rsag_various() {
        check(4, 8);
        check(5, 7); // uneven everything
        check(8, 16);
        check(3, 1); // len < p
        check(6, 9);
        check(16, 32);
    }

    #[test]
    fn rabenseifner_matches_cost_model() {
        let (p, w) = (8usize, 80usize);
        let out = World::new(p, MachineParams::BANDWIDTH_ONLY).run_async(move |rank| {
            Box::pin(async move {
                let comm = rank.world_comm();
                all_reduce_a(rank, &comm, vec![1.0; w]).await;
                rank.time()
            })
        });
        let model = collective::all_reduce_cost(p, w);
        for r in 0..p {
            assert_eq!(out.values[r], model.words, "clock at rank {r}");
        }
        assert_eq!(model.words, 2.0 * (1.0 - 1.0 / p as f64) * w as f64);
    }

    #[test]
    fn single_rank_identity() {
        let out = World::new(1, MachineParams::BANDWIDTH_ONLY).run_async(|rank| {
            Box::pin(async move {
                let comm = rank.world_comm();
                all_reduce_a(rank, &comm, &[1.0, 2.0]).await
            })
        });
        assert_eq!(out.values[0], vec![1.0, 2.0]);
    }
}
