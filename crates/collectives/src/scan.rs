//! Scan (inclusive prefix sum) and Exscan (exclusive) — completing the
//! standard collective family. Used, e.g., to compute chunk offsets of
//! irregular distributions without a gather.
//!
//! Algorithm: the classic binomial/doubling prefix scheme (Hillis–Steele
//! over ranks): at step `s`, rank `r` receives from `r − 2^s` (if any) and
//! sends to `r + 2^s` (if any); `⌈log2 p⌉` rounds, `w` words each.

use std::borrow::Cow;
use std::future::Future;
use std::panic::Location;

use pmm_simnet::{poll_now, CollectiveOp, Comm, Rank};

use crate::util::axpy1;

/// Inclusive prefix sum: rank `r` returns the element-wise sum of the
/// contributions of ranks `0..=r`. A `Vec` handed over becomes the
/// accumulator; a borrowed slice is copied into one.
#[track_caller]
pub fn scan<'a>(rank: &mut Rank, comm: &Comm, data: impl Into<Cow<'a, [f64]>>) -> Vec<f64> {
    poll_now(scan_a(rank, comm, data))
}

/// Async form of [`scan`] (event-loop programs).
#[track_caller]
pub fn scan_a<'r, 'd: 'r>(
    rank: &'r mut Rank,
    comm: &'r Comm,
    data: impl Into<Cow<'d, [f64]>>,
) -> impl Future<Output = Vec<f64>> + 'r {
    scan_at(rank, comm, data.into(), Location::caller())
}

async fn scan_at(
    rank: &mut Rank,
    comm: &Comm,
    data: Cow<'_, [f64]>,
    site: &'static Location<'static>,
) -> Vec<f64> {
    let p = comm.size();
    rank.collective_begin_at(comm, CollectiveOp::Scan, data.len() as u64, site).await;
    let me = comm.index();
    let mut acc = data.into_owned();
    let mut dist = 1usize;
    while dist < p {
        // Post before receiving: the outgoing value must be this round's
        // *input* (the window sum of the previous round), not the updated
        // one. Sends are non-blocking, so posting first is safe.
        let send_to = me + dist;
        if send_to < p {
            rank.send_a(comm, send_to, &acc).await;
        }
        if me >= dist {
            let msg = rank.recv_a(comm, me - dist).await;
            assert_eq!(msg.payload.len(), acc.len(), "scan length mismatch");
            axpy1(&mut acc, &msg.payload);
            rank.compute(acc.len() as f64);
        }
        dist <<= 1;
    }
    acc
}

/// Exclusive prefix sum: rank `r` returns the element-wise sum of the
/// contributions of ranks `0..r` (zeros on rank 0).
#[track_caller]
pub fn exscan(rank: &mut Rank, comm: &Comm, data: &[f64]) -> Vec<f64> {
    poll_now(exscan_a(rank, comm, data))
}

/// Async form of [`exscan`] (event-loop programs).
#[track_caller]
pub fn exscan_a<'r>(
    rank: &'r mut Rank,
    comm: &'r Comm,
    data: &'r [f64],
) -> impl Future<Output = Vec<f64>> + 'r {
    let site = Location::caller();
    async move {
        rank.collective_begin_at(comm, CollectiveOp::ExScan, data.len() as u64, site).await;
        let incl = scan_at(rank, comm, data.into(), site).await;
        // exclusive = inclusive − own contribution (exact for the integer-
        // valued data used throughout; no extra communication).
        incl.iter().zip(data).map(|(s, d)| s - d).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmm_simnet::{MachineParams, World};

    fn contribution(r: usize, w: usize) -> Vec<f64> {
        (0..w).map(|e| (r * 10 + e) as f64).collect()
    }

    fn check_scan(p: usize, w: usize) {
        let out = World::new(p, MachineParams::BANDWIDTH_ONLY).run(move |rank| {
            let comm = rank.world_comm();
            let mine = contribution(rank.world_rank(), w);
            scan(rank, &comm, &mine)
        });
        for (r, v) in out.values.iter().enumerate() {
            let want: Vec<f64> =
                (0..w).map(|e| (0..=r).map(|q| (q * 10 + e) as f64).sum()).collect();
            assert_eq!(v, &want, "rank {r} (p={p})");
        }
    }

    #[test]
    fn scan_various_p() {
        for p in [1usize, 2, 3, 5, 8, 13] {
            check_scan(p, 3);
        }
    }

    #[test]
    fn exscan_shifts_by_one_rank() {
        let p = 6usize;
        let out = World::new(p, MachineParams::BANDWIDTH_ONLY).run(move |rank| {
            let comm = rank.world_comm();
            let mine = contribution(rank.world_rank(), 2);
            exscan(rank, &comm, &mine)
        });
        assert_eq!(out.values[0], vec![0.0, 0.0]);
        for r in 1..p {
            let want: Vec<f64> =
                (0..2).map(|e| (0..r).map(|q| (q * 10 + e) as f64).sum()).collect();
            assert_eq!(out.values[r], want, "rank {r}");
        }
    }

    #[test]
    fn scan_computes_chunk_offsets() {
        // The motivating use: each rank contributes its chunk length; the
        // exclusive scan is its offset.
        let lens = [3usize, 0, 5, 2, 7];
        let out = World::new(5, MachineParams::BANDWIDTH_ONLY).run(move |rank| {
            let comm = rank.world_comm();
            exscan(rank, &comm, &[lens[rank.world_rank()] as f64])[0] as usize
        });
        assert_eq!(out.values, vec![0, 3, 3, 8, 10]);
    }

    #[test]
    fn scan_latency_is_logarithmic() {
        // ⌈log2 p⌉ rounds; under the one-sided send/recv cost model a rank
        // pays at most 2α per round (its send plus its receive), so the
        // critical path lies in [⌈log2 p⌉, 2⌈log2 p⌉] — logarithmic, not
        // linear like a naive chain scan.
        let params = MachineParams::new(1.0, 0.0, 0.0);
        for (p, rounds) in [(8usize, 3.0), (16, 4.0), (32, 5.0)] {
            let out = World::new(p, params).run(|rank| {
                let comm = rank.world_comm();
                scan(rank, &comm, &[1.0]);
                rank.time()
            });
            let t = out.critical_path_time();
            assert!(t >= rounds && t <= 2.0 * rounds + 1e-9, "p={p}: {t}");
        }
    }

    #[test]
    fn single_rank_identity() {
        let out = World::new(1, MachineParams::BANDWIDTH_ONLY).run(|rank| {
            let comm = rank.world_comm();
            scan(rank, &comm, &[4.0, 5.0])
        });
        assert_eq!(out.values[0], vec![4.0, 5.0]);
    }
}
