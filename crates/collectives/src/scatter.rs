//! Scatter (binomial tree), vector variant: the first half of van de
//! Geijn's scatter–all-gather broadcast.
//!
//! It follows the MPI convention that the `counts` array is known at all
//! ranks. Subtrees of the binomial tree own contiguous ranges of virtual
//! ranks, so messages carry concatenations of whole blocks and receivers
//! can split them using `counts`.

use std::borrow::Cow;
use std::future::Future;
use std::panic::Location;

use pmm_simnet::{CollectiveOp, Comm, Rank};

use crate::counts::{Counts, Layout};

/// Scatter: the root provides `data` as the concatenation of per-member
/// blocks (`counts`, communicator order); every rank returns its own
/// block (binomial tree). Non-roots pass any `data` (ignored). A `Vec`
/// handed over at the root becomes the buffer the subtrees are peeled off.
#[track_caller]
pub(crate) fn scatter_v_a<'r, 'd: 'r, 'c>(
    rank: &'r mut Rank,
    comm: &'r Comm,
    data: impl Into<Cow<'d, [f64]>>,
    counts: impl Into<Counts<'c>>,
    root: usize,
) -> impl Future<Output = Vec<f64>> + 'r {
    let site = Location::caller();
    let data = data.into();
    let lay = Layout::new(counts.into(), comm.size());
    async move {
        let p = comm.size();
        assert!(root < p, "root out of communicator");
        rank.collective_begin_at(comm, CollectiveOp::Scatter, data.len() as u64, site).await;
        if p == 1 {
            return data.into_owned();
        }
        let me = comm.index();
        let vrank = (me + p - root) % p;
        let unvrank = |v: usize| (v + root) % p;
        let total = lay.total();
        // Words of virtual members 0..v: members root, root + 1, …, wrapping.
        let voff = |v: usize| match (root + v).checked_sub(p) {
            None => lay.start(root + v) - lay.start(root),
            Some(wrapped) => total - lay.start(root) + lay.start(wrapped),
        };

        // The root rearranges into virtual order (members root, root + 1,
        // …, wrapping: a rotation by the words ahead of the root's own
        // block); every holder owns a virtual range [vrank, vrank + span).
        let mut buf: Vec<f64>;
        let mut span: usize;
        if me == root {
            assert_eq!(data.len(), total, "scatter data length disagrees with counts");
            buf = data.into_owned();
            buf.rotate_left(lay.start(root));
            span = p;
        } else {
            drop(data);
            buf = Vec::new();
            span = 0;
        }

        // Receive phase: find the bit where we hang off our parent.
        let mut mask = 1usize;
        let mut recv_mask = 0usize;
        while mask < p {
            if vrank & mask != 0 {
                let parent = unvrank(vrank - mask);
                let subtree = mask.min(p - vrank);
                let expect = voff(vrank + subtree) - voff(vrank);
                let msg = rank.recv_a(comm, parent).await;
                assert_eq!(msg.payload.len(), expect, "scatter subtree size mismatch");
                buf = msg.payload;
                span = subtree;
                recv_mask = mask;
                break;
            }
            mask <<= 1;
        }
        if me == root {
            recv_mask = {
                // root never receives; it sends at every bit below p
                let mut m = 1usize;
                while m < p {
                    m <<= 1;
                }
                m
            };
        }

        // Send phase: peel off the upper halves at decreasing distances.
        let mut mask = recv_mask >> 1;
        while mask > 0 {
            if vrank + mask < p && mask < span {
                let child_v = vrank + mask;
                let child_span = span - mask;
                let start = voff(child_v) - voff(vrank);
                let end = voff(child_v + child_span) - voff(vrank);
                let payload = buf[start..end].to_vec();
                rank.send_a(comm, unvrank(child_v), &payload).await;
                buf.truncate(start);
                span = mask;
            }
            mask >>= 1;
        }

        debug_assert_eq!(span, 1);
        debug_assert_eq!(buf.len(), lay.len(me));
        buf
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmm_simnet::{MachineParams, World};

    fn block(i: usize, c: usize) -> Vec<f64> {
        (0..c).map(|e| (i * 100 + e) as f64).collect()
    }

    fn check_scatter(p: usize, counts: Vec<usize>, root: usize) {
        let full: Vec<f64> = (0..p).flat_map(|i| block(i, counts[i])).collect();
        let out = World::new(p, MachineParams::BANDWIDTH_ONLY).run_async(|rank| {
            let (counts, full) = (counts.clone(), full.clone());
            Box::pin(async move {
                let comm = rank.world_comm();
                let data = if rank.world_rank() == root { full } else { Vec::new() };
                scatter_v_a(rank, &comm, &data, &counts, root).await
            })
        });
        for (r, v) in out.values.iter().enumerate() {
            assert_eq!(v, &block(r, counts[r]), "rank {r} block (p={p}, root={root})");
        }
    }

    #[test]
    fn scatter_various_p_and_roots() {
        for p in [2usize, 3, 4, 5, 8] {
            for root in [0, p - 1, p / 2] {
                check_scatter(p, vec![2; p], root);
            }
        }
    }

    #[test]
    fn scatter_uneven_blocks() {
        check_scatter(5, vec![0, 3, 1, 2, 0], 1);
        check_scatter(6, vec![1, 2, 3, 0, 2, 1], 4);
    }

    #[test]
    fn scatter_any_profile_from_any_root() {
        // Empty blocks included, every root of every small communicator.
        for p in 2usize..9 {
            for root in 0..p {
                for shift in 0..4 {
                    check_scatter(p, (0..p).map(|i| (shift + i) % 4).collect(), root);
                }
            }
        }
    }

    #[test]
    fn scatter_root_bandwidth_is_total_minus_own() {
        let (p, w) = (8usize, 5usize);
        let out = World::new(p, MachineParams::BANDWIDTH_ONLY).run_async(move |rank| {
            Box::pin(async move {
                let comm = rank.world_comm();
                let data = vec![1.0; p * w];
                scatter_v_a(rank, &comm, &data, &vec![w; p], 0).await;
            })
        });
        assert_eq!(out.reports[0].meter.words_sent, ((p - 1) * w) as u64);
        assert_eq!(out.reports[0].meter.words_recv, 0);
    }
}
