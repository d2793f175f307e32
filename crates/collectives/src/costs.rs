//! Closed-form cost models for every collective, matching the executed
//! implementations **exactly** (the unit tests of each collective assert
//! this).
//!
//! Conventions: `p` is the communicator size, `w` the per-rank block /
//! segment size in words (uniform case). Word counts are the per-rank
//! duplex volume, i.e. what the critical-path clock accrues under
//! [`MachineParams::BANDWIDTH_ONLY`](pmm_model::MachineParams::BANDWIDTH_ONLY);
//! for every algorithm here the per-rank sent and received volumes are
//! equal, so this is also the per-rank send volume.
//!
//! These are the formulas of Thakur et al. (2005) / Chan et al. (2007)
//! that §5.1 of the paper relies on: the bandwidth-optimal All-Gather and
//! Reduce-Scatter on `p` ranks cost `(1 − 1/p)·W` words, where `W = p·w`
//! is the gathered (resp. reduced) data volume per rank.

use pmm_model::Cost;

use crate::allgather::AllGatherAlgo;
use crate::allreduce::AllReduceAlgo;
use crate::bcast::BcastAlgo;
use crate::reduce_scatter::ReduceScatterAlgo;
use crate::util::{ceil_log2, is_pow2};

/// Cost of [`all_gather_a`](crate::all_gather_a) with per-rank block size `w`.
///
/// Ring: `(p−1)·α + (p−1)·w·β`. Recursive doubling (`p = 2^d`):
/// `d·α + (p−1)·w·β`. Both achieve the optimal `(1 − 1/p)·W` bandwidth.
pub fn all_gather_cost(algo: AllGatherAlgo, p: usize, w: usize) -> Cost {
    if p <= 1 {
        return Cost::ZERO;
    }
    let words = ((p - 1) * w) as f64;
    let messages = match algo {
        AllGatherAlgo::Ring => (p - 1) as f64,
        AllGatherAlgo::RecursiveDoubling => {
            assert!(is_pow2(p));
            ceil_log2(p) as f64
        }
        AllGatherAlgo::Bruck => ceil_log2(p) as f64,
        AllGatherAlgo::Auto => {
            if is_pow2(p) {
                ceil_log2(p) as f64
            } else {
                (p - 1) as f64
            }
        }
    };
    Cost { messages, words, flops: 0.0 }
}

/// Cost of [`reduce_scatter_a`](crate::reduce_scatter_a) with per-rank segment
/// size `w` (input length `p·w`).
///
/// Same message/word counts as the matching All-Gather, plus
/// `(p−1)·w` reduction flops per rank.
pub fn reduce_scatter_cost(algo: ReduceScatterAlgo, p: usize, w: usize) -> Cost {
    if p <= 1 {
        return Cost::ZERO;
    }
    let ag = match algo {
        ReduceScatterAlgo::Ring => AllGatherAlgo::Ring,
        ReduceScatterAlgo::RecursiveHalving => AllGatherAlgo::RecursiveDoubling,
        ReduceScatterAlgo::Auto => AllGatherAlgo::Auto,
    };
    let mut c = all_gather_cost(ag, p, w);
    c.flops = ((p - 1) * w) as f64;
    c
}

/// Cost of [`bcast_a`](crate::bcast_a) of `w` words from the root.
///
/// Binomial tree: `⌈log2 p⌉·(α + w·β)` (cost at the root; leaves pay one
/// message less — the model reports the critical path).
/// Scatter–All-Gather: `(⌈log2 p⌉ + p − 1)·α + 2·(1 − 1/p)·w·β`, requires
/// `p | w` in this implementation.
pub fn bcast_cost(algo: BcastAlgo, p: usize, w: usize) -> Cost {
    if p <= 1 {
        return Cost::ZERO;
    }
    match algo {
        BcastAlgo::Binomial => Cost {
            messages: ceil_log2(p) as f64,
            words: (ceil_log2(p) as usize * w) as f64,
            flops: 0.0,
        },
        BcastAlgo::ScatterAllGather => {
            assert!(w.is_multiple_of(p), "scatter-allgather bcast requires p | w");
            let chunk = w / p;
            let scatter = scatter_cost(p, chunk);
            let ag = all_gather_cost(AllGatherAlgo::Ring, p, chunk);
            scatter + ag
        }
        BcastAlgo::Auto => bcast_cost(BcastAlgo::Binomial, p, w),
    }
}

/// Cost of [`reduce_a`](crate::reduce_a) of `w` words to the root (binomial):
/// critical path `⌈log2 p⌉·(α + w·β + w γ-flops)`.
pub fn reduce_cost(p: usize, w: usize) -> Cost {
    if p <= 1 {
        return Cost::ZERO;
    }
    let d = ceil_log2(p) as f64;
    Cost { messages: d, words: d * w as f64, flops: d * w as f64 }
}

/// Cost of [`all_reduce_a`](crate::all_reduce_a) of `w` words.
///
/// Rabenseifner (reduce-scatter + all-gather), `p = 2^d`, `p | w`:
/// `2d·α + 2(1 − 1/p)·w·β + (1 − 1/p)·w` flops.
/// Recursive doubling: `d·(α + w·β + w flops)`.
pub fn all_reduce_cost(algo: AllReduceAlgo, p: usize, w: usize) -> Cost {
    if p <= 1 {
        return Cost::ZERO;
    }
    match algo {
        AllReduceAlgo::ReduceScatterAllGather => {
            assert!(w.is_multiple_of(p), "Rabenseifner all-reduce requires p | w");
            let chunk = w / p;
            reduce_scatter_cost(ReduceScatterAlgo::Auto, p, chunk)
                + all_gather_cost(AllGatherAlgo::Auto, p, chunk)
        }
        AllReduceAlgo::RecursiveDoubling => {
            assert!(is_pow2(p), "recursive-doubling all-reduce requires power-of-two p");
            let d = ceil_log2(p) as f64;
            Cost { messages: d, words: d * w as f64, flops: d * w as f64 }
        }
        AllReduceAlgo::Auto => {
            if is_pow2(p) && w.is_multiple_of(p) {
                all_reduce_cost(AllReduceAlgo::ReduceScatterAllGather, p, w)
            } else if is_pow2(p) {
                all_reduce_cost(AllReduceAlgo::RecursiveDoubling, p, w)
            } else {
                // ring reduce-scatter-v + ring all-gather-v with uneven
                // blocks; for the uniform-w cost model we report the p | w
                // case approximation.
                let chunk_words = w as f64 / p as f64;
                let words = 2.0 * (p as f64 - 1.0) * chunk_words;
                Cost {
                    messages: 2.0 * (p as f64 - 1.0),
                    words,
                    flops: (p as f64 - 1.0) * chunk_words,
                }
            }
        }
    }
}

/// Cost of [`gather_v_a`](crate::gather_v_a) with uniform block `w` (binomial,
/// cost at the root): `⌈log2 p⌉·α + (p−1)·w·β`.
pub fn gather_cost(p: usize, w: usize) -> Cost {
    if p <= 1 {
        return Cost::ZERO;
    }
    Cost { messages: ceil_log2(p) as f64, words: ((p - 1) * w) as f64, flops: 0.0 }
}

/// Cost of [`scatter_v_a`](crate::scatter_v_a) with uniform block `w`
/// (binomial, cost at the root): the gather tree run backwards.
pub fn scatter_cost(p: usize, w: usize) -> Cost {
    gather_cost(p, w)
}

/// Cost of [`all_to_all_a`](crate::all_to_all_a) with `w` words per
/// destination (pairwise exchange): `(p−1)·(α + w·β)`.
pub fn all_to_all_cost(p: usize, w: usize) -> Cost {
    if p <= 1 {
        return Cost::ZERO;
    }
    Cost { messages: (p - 1) as f64, words: ((p - 1) * w) as f64, flops: 0.0 }
}

/// Cost of [`scan_a`](crate::scan_a) of `w` words per rank (Hillis–Steele
/// doubling): critical path `⌈log2 p⌉·(α + w·β)` plus `⌈log2 p⌉·w`
/// reduction flops.
///
/// The last rank attains this exactly — it receives in every one of the
/// `⌈log2 p⌉` rounds (and never sends); every other rank communicates in
/// a subset of the rounds, so this is the per-rank maximum the
/// critical-path clock accrues.
pub fn scan_cost(p: usize, w: usize) -> Cost {
    if p <= 1 {
        return Cost::ZERO;
    }
    let d = ceil_log2(p) as f64;
    Cost { messages: d, words: d * w as f64, flops: d * w as f64 }
}

/// Cost of [`exscan_a`](crate::exscan_a): identical to [`scan_cost`] — the
/// exclusive prefix is derived from the inclusive one locally, with no
/// extra communication.
pub fn exscan_cost(p: usize, w: usize) -> Cost {
    scan_cost(p, w)
}

/// Cost of [`barrier_a`](crate::barrier_a) (dissemination): `⌈log2 p⌉·α`.
pub fn barrier_cost(p: usize) -> Cost {
    if p <= 1 {
        return Cost::ZERO;
    }
    Cost { messages: ceil_log2(p) as f64, words: 0.0, flops: 0.0 }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allgather_bandwidth_is_optimal_fraction() {
        // (1 - 1/p)·W with W = p·w
        let c = all_gather_cost(AllGatherAlgo::Ring, 8, 10);
        assert_eq!(c.words, 70.0);
        let c = all_gather_cost(AllGatherAlgo::RecursiveDoubling, 8, 10);
        assert_eq!(c.words, 70.0);
        assert_eq!(c.messages, 3.0);
    }

    #[test]
    fn reduce_scatter_adds_flops() {
        let c = reduce_scatter_cost(ReduceScatterAlgo::Ring, 5, 8);
        assert_eq!(c.words, 32.0);
        assert_eq!(c.flops, 32.0);
        assert_eq!(c.messages, 4.0);
    }

    #[test]
    fn trivial_communicators_are_free() {
        assert_eq!(all_gather_cost(AllGatherAlgo::Auto, 1, 100), Cost::ZERO);
        assert_eq!(reduce_scatter_cost(ReduceScatterAlgo::Auto, 1, 100), Cost::ZERO);
        assert_eq!(bcast_cost(BcastAlgo::Auto, 1, 100), Cost::ZERO);
        assert_eq!(barrier_cost(1), Cost::ZERO);
    }

    #[test]
    fn bcast_binomial_scales_with_log_p() {
        let c = bcast_cost(BcastAlgo::Binomial, 16, 5);
        assert_eq!(c.messages, 4.0);
        assert_eq!(c.words, 20.0);
    }

    #[test]
    fn bcast_scatter_allgather_halves_bandwidth_for_large_w() {
        let c = bcast_cost(BcastAlgo::ScatterAllGather, 8, 800);
        // 2 (1-1/8) * 800 = 1400 < binomial 3*800 = 2400
        assert_eq!(c.words, 1400.0);
        assert!(c.words < bcast_cost(BcastAlgo::Binomial, 8, 800).words);
    }

    #[test]
    fn allreduce_rabenseifner_vs_recursive_doubling() {
        let rab = all_reduce_cost(AllReduceAlgo::ReduceScatterAllGather, 8, 80);
        let rd = all_reduce_cost(AllReduceAlgo::RecursiveDoubling, 8, 80);
        assert_eq!(rab.words, 140.0); // 2 (1-1/8)·80
        assert_eq!(rd.words, 240.0); // 3·80
        assert!(rab.words < rd.words);
        assert!(rab.messages > rd.messages);
    }

    #[test]
    fn scan_is_logarithmic_and_exscan_is_free_on_top() {
        let c = scan_cost(8, 5);
        assert_eq!(c.messages, 3.0);
        assert_eq!(c.words, 15.0);
        assert_eq!(c.flops, 15.0);
        // Non-power-of-two p rounds up.
        assert_eq!(scan_cost(5, 2).messages, 3.0);
        assert_eq!(exscan_cost(8, 5), scan_cost(8, 5));
        assert_eq!(scan_cost(1, 100), Cost::ZERO);
    }

    #[test]
    fn alltoall_pairwise() {
        let c = all_to_all_cost(8, 3);
        assert_eq!(c.messages, 7.0);
        assert_eq!(c.words, 21.0);
    }
}
