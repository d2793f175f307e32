//! Reduce: element-wise sum of every rank's buffer, delivered at the root.

use std::borrow::Cow;
use std::future::Future;
use std::panic::Location;

use pmm_simnet::{CollectiveOp, Comm, Rank};

use crate::util::axpy1;

/// Sum-reduce `data` to member `root` over a binomial tree (`⌈log2 p⌉`
/// rounds). Every rank contributes a buffer of
/// the same length; the root returns the element-wise sum, others return
/// an empty vector. Reduction additions are metered as flops. A `Vec`
/// handed over becomes the accumulator; a borrowed slice is copied into
/// one.
#[track_caller]
pub fn reduce_a<'r, 'd: 'r>(
    rank: &'r mut Rank,
    comm: &'r Comm,
    data: impl Into<Cow<'d, [f64]>>,
    root: usize,
) -> impl Future<Output = Vec<f64>> + 'r {
    let site = Location::caller();
    let data = data.into();
    async move {
        let p = comm.size();
        assert!(root < p, "root out of communicator");
        rank.collective_begin_at(comm, CollectiveOp::Reduce, data.len() as u64, site).await;
        if p == 1 {
            return data.into_owned();
        }
        let me = comm.index();
        let vrank = (me + p - root) % p;
        let unvrank = |v: usize| (v + root) % p;

        let mut acc = data.into_owned();
        let mut mask = 1usize;
        while mask < p {
            if vrank & mask != 0 {
                let parent = unvrank(vrank - mask);
                rank.send_a(comm, parent, &acc).await;
                return Vec::new();
            }
            let child_v = vrank | mask;
            if child_v < p {
                let msg = rank.recv_a(comm, unvrank(child_v)).await;
                assert_eq!(msg.payload.len(), acc.len(), "reduce length mismatch");
                axpy1(&mut acc, &msg.payload);
                rank.compute(acc.len() as f64);
            }
            mask <<= 1;
        }
        debug_assert_eq!(me, root);
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmm_model::collective;
    use pmm_simnet::{MachineParams, World};

    fn check(p: usize, root: usize, len: usize) {
        let out = World::new(p, MachineParams::BANDWIDTH_ONLY).run_async(move |rank| {
            Box::pin(async move {
                let comm = rank.world_comm();
                let data: Vec<f64> =
                    (0..len).map(|e| (rank.world_rank() + 1) as f64 * (e + 1) as f64).collect();
                reduce_a(rank, &comm, &data, root).await
            })
        });
        let s = (p * (p + 1) / 2) as f64;
        let want: Vec<f64> = (0..len).map(|e| s * (e + 1) as f64).collect();
        for (r, v) in out.values.iter().enumerate() {
            if r == root {
                assert_eq!(v, &want, "root sum (p={p}, root={root})");
            } else {
                assert!(v.is_empty());
            }
        }
    }

    #[test]
    fn various_p_and_roots() {
        for p in [2usize, 3, 4, 5, 8, 9] {
            for root in [0, p - 1, p / 2] {
                check(p, root, 4);
            }
        }
    }

    #[test]
    fn root_critical_path_matches_model_for_pow2() {
        let (p, w) = (8usize, 6usize);
        let out = World::new(p, MachineParams::BANDWIDTH_ONLY).run_async(move |rank| {
            Box::pin(async move {
                let comm = rank.world_comm();
                reduce_a(rank, &comm, vec![1.0; w], 0).await;
                rank.time()
            })
        });
        let model = collective::reduce_cost(p, w);
        // With α=γ=0 the root's clock is log2(p)·w.
        assert_eq!(out.values[0], model.words);
        assert_eq!(out.reports[0].meter.words_recv as f64, model.words);
    }

    #[test]
    fn flops_are_metered() {
        let (p, w) = (4usize, 10usize);
        let out = World::new(p, MachineParams::BANDWIDTH_ONLY).run_async(move |rank| {
            Box::pin(async move {
                let comm = rank.world_comm();
                reduce_a(rank, &comm, vec![1.0; w], 0).await;
                rank.meter().flops
            })
        });
        // Total additions across ranks: (p-1)·w.
        let total: f64 = out.values.iter().sum();
        assert_eq!(total, ((p - 1) * w) as f64);
    }

    #[test]
    fn single_rank_identity() {
        let out = World::new(1, MachineParams::BANDWIDTH_ONLY).run_async(|rank| {
            Box::pin(async move {
                let comm = rank.world_comm();
                reduce_a(rank, &comm, &[2.0, 4.0], 0).await
            })
        });
        assert_eq!(out.values[0], vec![2.0, 4.0]);
    }
}
