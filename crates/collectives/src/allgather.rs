//! All-Gather: after the call, every rank holds the concatenation of all
//! ranks' contributions, in communicator order.
//!
//! Two bandwidth-optimal algorithms are provided (Thakur et al. 2005):
//!
//! * **Ring** (bidirectional-exchange ring): `p − 1` steps, each rank
//!   forwards one block to its right neighbor while receiving from the
//!   left. Works for any `p` and any (possibly uneven, possibly empty)
//!   block sizes.
//! * **Recursive doubling**: `log2 p` steps for power-of-two `p`; at step
//!   `s` each rank exchanges everything it holds with its partner at XOR
//!   distance `2^s`.
//!
//! Both move exactly `W − w_me` words per rank, i.e. `(1 − 1/p)·W` for
//! uniform blocks, which is optimal.
//!
//! The block sizes are a [`Counts`]: an even split of the gathered total
//! (what Algorithm 1 and [`all_gather_a`] pass, held as a base and a
//! remainder) or one explicit count per member.

use std::borrow::Cow;
use std::future::Future;
use std::panic::Location;

use pmm_model::collective::AllGatherAlgo;
use pmm_simnet::{CollectiveOp, Comm, Rank};

use crate::counts::{Counts, Layout};

/// All-Gather with uniform block sizes.
///
/// Every rank contributes `mine` (all contributions must have equal
/// length); returns the concatenation in communicator order. `mine` is a
/// borrowed slice or a `Vec` handed over (see the crate docs, "Passing a
/// buffer").
#[track_caller]
pub fn all_gather_a<'r, 'd: 'r>(
    rank: &'r mut Rank,
    comm: &'r Comm,
    mine: impl Into<Cow<'d, [f64]>>,
    algo: AllGatherAlgo,
) -> impl Future<Output = Vec<f64>> + 'r {
    let site = Location::caller();
    let mine = mine.into();
    async move {
        let lay = Layout::new(Counts::Even(mine.len() * comm.size()), comm.size());
        all_gather_v_at(rank, comm, mine, lay, algo, site).await
    }
}

/// All-Gather with per-rank block sizes (`MPI_Allgatherv`).
///
/// `counts` gives the contribution length of every member — a
/// [`Counts::Even`] split of the gathered total, or a `&[usize]` with one
/// count per member — and must be known (and identical) at every rank;
/// the count of member `comm.index()` is `mine.len()`. On a one-member
/// communicator a `Vec` handed over is returned as is.
#[track_caller]
pub fn all_gather_v_a<'r, 'd: 'r, 'c>(
    rank: &'r mut Rank,
    comm: &'r Comm,
    mine: impl Into<Cow<'d, [f64]>>,
    counts: impl Into<Counts<'c>>,
    algo: AllGatherAlgo,
) -> impl Future<Output = Vec<f64>> + 'r {
    let lay = Layout::new(counts.into(), comm.size());
    all_gather_v_at(rank, comm, mine.into(), lay, algo, Location::caller())
}

/// The body behind both entry points. A plain `fn` around an `async`
/// block keeps one copy of the arguments in the suspended state, where an
/// `async fn` keeps two.
#[allow(clippy::manual_async_fn)] // an `async fn` holds its arguments twice
pub(crate) fn all_gather_v_at<'a>(
    rank: &'a mut Rank,
    comm: &'a Comm,
    mine: Cow<'a, [f64]>,
    lay: Layout,
    algo: AllGatherAlgo,
    site: &'static Location<'static>,
) -> impl Future<Output = Vec<f64>> + 'a {
    async move {
        let p = comm.size();
        assert_eq!(lay.len(comm.index()), mine.len(), "own count disagrees with contribution");
        rank.collective_begin_at(comm, CollectiveOp::AllGather, mine.len() as u64, site).await;
        if p == 1 {
            return mine.into_owned();
        }
        match algo.resolve(p) {
            AllGatherAlgo::Ring => ring(rank, comm, mine, &lay).await,
            // Recursive doubling (`resolve` never returns `Auto`).
            _ => {
                assert!(
                    p.is_power_of_two(),
                    "recursive doubling requires power-of-two communicator"
                );
                recursive_doubling(rank, comm, mine, &lay).await
            }
        }
    }
}

/// The output buffer of a gather with this rank's own block in place —
/// the last read of `mine`, so a buffer handed over is freed here, before
/// the first message.
fn seeded_output(mine: Cow<'_, [f64]>, lay: &Layout, me: usize) -> Vec<f64> {
    let mut out = vec![0.0f64; lay.total()];
    out[lay.block(me)].copy_from_slice(&mine);
    out
}

#[allow(clippy::manual_async_fn)] // an `async fn` holds its arguments twice
fn ring<'a>(
    rank: &'a mut Rank,
    comm: &'a Comm,
    mine: Cow<'a, [f64]>,
    lay: &'a Layout,
) -> impl Future<Output = Vec<f64>> + 'a {
    async move {
        let p = comm.size();
        let me = comm.index();
        let mut out = seeded_output(mine, lay, me);

        let right = (me + 1) % p;
        let left = (me + p - 1) % p;
        // At step s we forward block (me − s mod p) rightward and receive block
        // (me − 1 − s mod p) from the left.
        for s in 0..p - 1 {
            let send_block = (me + p - s) % p;
            let recv_block = (me + p - 1 - s) % p;
            let payload = &out[lay.block(send_block)];
            let msg = rank.exchange_a(comm, right, left, payload).await;
            let dst = lay.block(recv_block);
            assert_eq!(msg.payload.len(), dst.len(), "ring block size mismatch");
            out[dst].copy_from_slice(&msg.payload);
        }
        out
    }
}

#[allow(clippy::manual_async_fn)] // an `async fn` holds its arguments twice
fn recursive_doubling<'a>(
    rank: &'a mut Rank,
    comm: &'a Comm,
    mine: Cow<'a, [f64]>,
    lay: &'a Layout,
) -> impl Future<Output = Vec<f64>> + 'a {
    async move {
        let p = comm.size();
        let me = comm.index();
        let mut out = seeded_output(mine, lay, me);

        let mut mask = 1usize;
        while mask < p {
            let partner = me ^ mask;
            // After s steps each rank holds the contiguous block group
            // [⌊me/mask⌋·mask, ⌊me/mask⌋·mask + mask).
            let g_mine = (me / mask) * mask;
            let g_theirs = (partner / mask) * mask;
            let payload = &out[lay.span(g_mine, g_mine + mask)];
            let msg = rank.exchange_a(comm, partner, partner, payload).await;
            let dst = lay.span(g_theirs, g_theirs + mask);
            assert_eq!(msg.payload.len(), dst.len(), "recursive-doubling block size mismatch");
            out[dst].copy_from_slice(&msg.payload);
            mask <<= 1;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmm_model::collective;
    use pmm_simnet::{MachineParams, World};

    fn expected(counts: &[usize]) -> Vec<f64> {
        let mut v = Vec::new();
        for (i, &c) in counts.iter().enumerate() {
            v.extend(std::iter::repeat_n(i as f64 + 0.5, c));
        }
        v
    }

    fn check(p: usize, counts: Vec<usize>, algo: AllGatherAlgo) {
        let want = expected(&counts);
        let out = World::new(p, MachineParams::BANDWIDTH_ONLY).run_async(|rank| {
            let counts = counts.clone();
            Box::pin(async move {
                let comm = rank.world_comm();
                let mine = vec![rank.world_rank() as f64 + 0.5; counts[rank.world_rank()]];
                all_gather_v_a(rank, &comm, &mine, &counts, algo).await
            })
        });
        for (r, v) in out.values.iter().enumerate() {
            assert_eq!(v, &want, "rank {r} gathered wrong data (p={p}, {algo:?})");
        }
    }

    #[test]
    fn ring_uniform_various_p() {
        for p in [2, 3, 4, 5, 7, 8] {
            check(p, vec![3; p], AllGatherAlgo::Ring);
        }
    }

    #[test]
    fn recursive_doubling_uniform_pow2() {
        for p in [2, 4, 8, 16] {
            check(p, vec![2; p], AllGatherAlgo::RecursiveDoubling);
        }
    }

    #[test]
    fn uneven_and_empty_blocks() {
        check(5, vec![0, 3, 1, 0, 4], AllGatherAlgo::Ring);
        check(4, vec![2, 0, 5, 1], AllGatherAlgo::RecursiveDoubling);
    }

    #[test]
    fn auto_picks_valid_algorithm() {
        check(6, vec![1; 6], AllGatherAlgo::Auto);
        check(8, vec![1; 8], AllGatherAlgo::Auto);
    }

    #[test]
    fn single_rank_is_identity() {
        let out = World::new(1, MachineParams::BANDWIDTH_ONLY).run_async(|rank| {
            Box::pin(async move {
                let comm = rank.world_comm();
                all_gather_a(rank, &comm, &[9.0, 8.0], AllGatherAlgo::Auto).await
            })
        });
        assert_eq!(out.values[0], vec![9.0, 8.0]);
        assert_eq!(out.reports[0].meter.words_sent, 0);
    }

    #[test]
    fn single_rank_returns_the_allocation_it_was_handed() {
        let out = World::new(1, MachineParams::BANDWIDTH_ONLY).run_async(|rank| {
            Box::pin(async move {
                let comm = rank.world_comm();
                let mine = vec![9.0, 8.0, 7.0];
                let ptr_before = mine.as_ptr();
                let owned = all_gather_v_a(rank, &comm, mine, &[3], AllGatherAlgo::Auto).await;
                // A borrowed argument stays the caller's: the result is a copy.
                let borrowed = all_gather_v_a(rank, &comm, &owned, &[3], AllGatherAlgo::Auto).await;
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
        let params = MachineParams::new(1.0, 0.0, 0.0); // count messages only
        for (algo, p) in [(AllGatherAlgo::Ring, 6), (AllGatherAlgo::RecursiveDoubling, 8)] {
            let out = World::new(p, params).run_async(move |rank| {
                Box::pin(async move {
                    let comm = rank.world_comm();
                    all_gather_a(rank, &comm, &[1.0, 2.0], algo).await;
                    rank.time()
                })
            });
            let model = collective::all_gather_cost(algo, p, 2);
            for r in 0..p {
                assert_eq!(out.values[r], model.messages, "{algo:?} latency at rank {r}");
            }
        }
    }

    #[test]
    fn works_on_subcommunicators() {
        // Split 6 ranks into two groups of 3 and all-gather within groups.
        let out = World::new(6, MachineParams::BANDWIDTH_ONLY).run_async(|rank| {
            Box::pin(async move {
                let wc = rank.world_comm();
                let color = (rank.world_rank() % 2) as i64;
                let sub = rank.split_a(&wc, color, rank.world_rank() as i64).await.unwrap();
                all_gather_a(rank, &sub, &[rank.world_rank() as f64], AllGatherAlgo::Ring).await
            })
        });
        assert_eq!(out.values[0], vec![0.0, 2.0, 4.0]);
        assert_eq!(out.values[3], vec![1.0, 3.0, 5.0]);
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn recursive_doubling_rejects_non_pow2() {
        World::new(3, MachineParams::BANDWIDTH_ONLY).run_async(|rank| {
            Box::pin(async move {
                let comm = rank.world_comm();
                all_gather_a(rank, &comm, &[0.0], AllGatherAlgo::RecursiveDoubling).await;
            })
        });
    }
}
