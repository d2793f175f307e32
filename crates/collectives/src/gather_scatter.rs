//! Gather and Scatter (binomial trees), vector variants.
//!
//! Both follow the MPI convention that the `counts` array is known at all
//! ranks. Subtrees of the binomial tree own contiguous ranges of virtual
//! ranks, so messages carry concatenations of whole blocks and receivers
//! can split them using `counts`.

use std::borrow::Cow;
use std::future::Future;
use std::panic::Location;

use pmm_simnet::{CollectiveOp, Comm, Rank};

use crate::util::offsets;

/// Gather: member `i` contributes `mine` (`counts[i]` words); the root
/// returns the concatenation in communicator order, other ranks return an
/// empty vector (binomial tree, `⌈log2 p⌉` rounds at the root). A `Vec`
/// handed over becomes the buffer the subtree's blocks are appended to.
#[track_caller]
pub fn gather_v_a<'r, 'd: 'r>(
    rank: &'r mut Rank,
    comm: &'r Comm,
    mine: impl Into<Cow<'d, [f64]>>,
    counts: &'r [usize],
    root: usize,
) -> impl Future<Output = Vec<f64>> + 'r {
    let site = Location::caller();
    let mine = mine.into();
    async move {
        let p = comm.size();
        assert_eq!(counts.len(), p, "counts length must equal communicator size");
        assert_eq!(counts[comm.index()], mine.len(), "own count disagrees with contribution");
        assert!(root < p, "root out of communicator");
        rank.collective_begin_at(comm, CollectiveOp::Gather, mine.len() as u64, site).await;
        if p == 1 {
            return mine.into_owned();
        }
        let me = comm.index();
        let vrank = (me + p - root) % p;
        let unvrank = |v: usize| (v + root) % p;
        // counts in virtual-rank order
        let vcounts: Vec<usize> = (0..p).map(|v| counts[unvrank(v)]).collect();
        let voff = offsets(&vcounts);

        // Blocks held so far: virtual range [vrank, vrank + held).
        let mut held = 1usize;
        let mut buf = mine.into_owned();

        let mut mask = 1usize;
        while mask < p {
            if vrank & mask != 0 {
                // Send everything held to the parent and stop.
                let parent = unvrank(vrank - mask);
                rank.send_a(comm, parent, &buf).await;
                buf.clear();
                break;
            }
            // Receive the child subtree [vrank+mask, vrank+mask+subtree).
            let child_v = vrank + mask;
            if child_v < p {
                let subtree = mask.min(p - child_v);
                let expect = voff[child_v + subtree] - voff[child_v];
                let msg = rank.recv_a(comm, unvrank(child_v)).await;
                assert_eq!(msg.payload.len(), expect, "gather subtree size mismatch");
                buf.extend_from_slice(&msg.payload);
                held += subtree;
            }
            mask <<= 1;
        }

        if me == root {
            debug_assert_eq!(held, p);
            // buf is in virtual order starting at vrank = 0; rotate to
            // communicator order: virtual v corresponds to member (v+root)%p.
            let mut out = vec![0.0f64; voff[p]];
            let off = offsets(counts);
            for v in 0..p {
                let member = unvrank(v);
                out[off[member]..off[member + 1]].copy_from_slice(&buf[voff[v]..voff[v + 1]]);
            }
            out
        } else {
            Vec::new()
        }
    }
}

/// Scatter: the root provides `data` as the concatenation of per-member
/// blocks (`counts`, communicator order); every rank returns its own
/// block (binomial tree). Non-roots pass any `data` (ignored). A `Vec`
/// handed over at the root becomes the buffer the subtrees are peeled off.
#[track_caller]
pub fn scatter_v_a<'r, 'd: 'r>(
    rank: &'r mut Rank,
    comm: &'r Comm,
    data: impl Into<Cow<'d, [f64]>>,
    counts: &'r [usize],
    root: usize,
) -> impl Future<Output = Vec<f64>> + 'r {
    let site = Location::caller();
    let data = data.into();
    async move {
        let p = comm.size();
        assert_eq!(counts.len(), p, "counts length must equal communicator size");
        assert!(root < p, "root out of communicator");
        rank.collective_begin_at(comm, CollectiveOp::Scatter, data.len() as u64, site).await;
        if p == 1 {
            return data.into_owned();
        }
        let me = comm.index();
        let vrank = (me + p - root) % p;
        let unvrank = |v: usize| (v + root) % p;
        let vcounts: Vec<usize> = (0..p).map(|v| counts[unvrank(v)]).collect();
        let voff = offsets(&vcounts);

        // The root rearranges into virtual order (members root, root + 1,
        // …, wrapping: a rotation by the words ahead of the root's own
        // block); every holder owns a virtual range [vrank, vrank + span).
        let mut buf: Vec<f64>;
        let mut span: usize;
        if me == root {
            assert_eq!(data.len(), voff[p], "scatter data length disagrees with counts");
            buf = data.into_owned();
            buf.rotate_left(counts[..root].iter().sum());
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
                let expect = voff[vrank + subtree] - voff[vrank];
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
                let start = voff[child_v] - voff[vrank];
                let end = voff[child_v + child_span] - voff[vrank];
                let payload = buf[start..end].to_vec();
                rank.send_a(comm, unvrank(child_v), &payload).await;
                buf.truncate(start);
                span = mask;
            }
            mask >>= 1;
        }

        debug_assert_eq!(span, 1);
        debug_assert_eq!(buf.len(), counts[me]);
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

    fn check_gather(p: usize, counts: Vec<usize>, root: usize) {
        let want: Vec<f64> = (0..p).flat_map(|i| block(i, counts[i])).collect();
        let out = World::new(p, MachineParams::BANDWIDTH_ONLY).run_async(|rank| {
            let counts = counts.clone();
            Box::pin(async move {
                let comm = rank.world_comm();
                let mine = block(rank.world_rank(), counts[rank.world_rank()]);
                gather_v_a(rank, &comm, &mine, &counts, root).await
            })
        });
        for (r, v) in out.values.iter().enumerate() {
            if r == root {
                assert_eq!(v, &want, "root content (p={p}, root={root})");
            } else {
                assert!(v.is_empty(), "non-root {r} should return empty");
            }
        }
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
    fn gather_various_p_and_roots() {
        for p in [2usize, 3, 4, 5, 8] {
            for root in [0, p - 1, p / 2] {
                check_gather(p, vec![2; p], root);
            }
        }
    }

    #[test]
    fn gather_uneven_blocks() {
        check_gather(5, vec![0, 3, 1, 2, 0], 0);
        check_gather(4, vec![4, 0, 0, 2], 3);
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
    fn gather_root_bandwidth_is_total_minus_own() {
        let (p, w) = (8usize, 5usize);
        let out = World::new(p, MachineParams::BANDWIDTH_ONLY).run_async(move |rank| {
            Box::pin(async move {
                let comm = rank.world_comm();
                let mine = vec![1.0; w];
                gather_v_a(rank, &comm, &mine, &vec![w; p], 0).await;
            })
        });
        assert_eq!(out.reports[0].meter.words_recv, ((p - 1) * w) as u64);
        assert_eq!(out.reports[0].meter.words_sent, 0);
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

    #[test]
    fn scatter_then_gather_roundtrips() {
        let p = 7usize;
        let counts: Vec<usize> = (0..p).map(|i| (i * 3) % 5).collect();
        let full: Vec<f64> = (0..p).flat_map(|i| block(i, counts[i])).collect();
        let out = World::new(p, MachineParams::BANDWIDTH_ONLY).run_async(|rank| {
            let (counts, full) = (counts.clone(), full.clone());
            Box::pin(async move {
                let comm = rank.world_comm();
                let data = if rank.world_rank() == 2 { full } else { Vec::new() };
                let mine = scatter_v_a(rank, &comm, &data, &counts, 2).await;
                gather_v_a(rank, &comm, &mine, &counts, 2).await
            })
        });
        assert_eq!(out.values[2], full);
    }
}
