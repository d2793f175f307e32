//! Dissemination barrier: `⌈log2 p⌉` rounds of empty messages; works for
//! any `p`.

use std::future::Future;
use std::panic::Location;

use pmm_simnet::{CollectiveOp, Comm, Rank};

/// Synchronize all members of `comm`. Unlike
/// [`Rank::hard_sync_a`](pmm_simnet::Rank::hard_sync_a) this is a *metered*
/// barrier: it exchanges real (empty) messages and pays `⌈log2 p⌉·α`.
#[track_caller]
pub fn barrier_a<'r>(rank: &'r mut Rank, comm: &'r Comm) -> impl Future<Output = ()> + 'r {
    let site = Location::caller();
    async move {
        let p = comm.size();
        rank.collective_begin_at(comm, CollectiveOp::Barrier, 0, site).await;
        if p == 1 {
            return;
        }
        let me = comm.index();
        let mut dist = 1usize;
        while dist < p {
            let to = (me + dist) % p;
            let from = (me + p - dist) % p;
            rank.exchange_a(comm, to, from, &[]).await;
            dist <<= 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmm_model::collective;
    use pmm_simnet::{MachineParams, World};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    #[test]
    fn barrier_actually_synchronizes() {
        // No rank may observe the post-barrier counter before every rank
        // has incremented the pre-barrier counter.
        let pre = Arc::new(AtomicUsize::new(0));
        let p = 8usize;
        let out = World::new(p, MachineParams::BANDWIDTH_ONLY).run_async(|rank| {
            let pre = Arc::clone(&pre);
            Box::pin(async move {
                let comm = rank.world_comm();
                pre.fetch_add(1, Ordering::SeqCst);
                barrier_a(rank, &comm).await;
                pre.load(Ordering::SeqCst)
            })
        });
        for v in out.values {
            assert_eq!(v, p, "barrier released a rank early");
        }
    }

    #[test]
    fn cost_is_log_latency_only() {
        for p in [2usize, 3, 5, 8, 16] {
            let params = MachineParams::new(1.0, 1.0, 1.0);
            let out = World::new(p, params).run_async(|rank| {
                Box::pin(async move {
                    let comm = rank.world_comm();
                    barrier_a(rank, &comm).await;
                    (rank.time(), rank.meter().words_sent)
                })
            });
            let model = collective::barrier_cost(p);
            for r in 0..p {
                assert_eq!(out.values[r].0, model.messages, "p={p} rank {r}");
                assert_eq!(out.values[r].1, 0);
            }
        }
    }

    #[test]
    fn single_rank_noop() {
        let out = World::new(1, MachineParams::BANDWIDTH_ONLY).run_async(|rank| {
            Box::pin(async move {
                let comm = rank.world_comm();
                barrier_a(rank, &comm).await;
                rank.meter().msgs_sent
            })
        });
        assert_eq!(out.values[0], 0);
    }
}
