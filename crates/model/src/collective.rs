//! The collectives' schedules and their closed-form costs, stated once.
//!
//! Each collective of `pmm-collectives` with more than one schedule takes
//! one of the selectors below. An `Auto` variant names a concrete schedule
//! through `resolve`, and the executed collective and its cost function
//! here both go through that one rule. The cost functions match the
//! executed schedules **exactly** (the unit tests of each collective
//! assert this), and the six plans of
//! [`plan_prediction`](crate::plan_prediction) are priced from them.
//!
//! Conventions: `p` is the communicator size, `w` the per-rank block /
//! segment size in words (uniform case). Word counts are the per-rank
//! duplex volume, i.e. what the critical-path clock accrues under
//! [`MachineParams::BANDWIDTH_ONLY`](crate::MachineParams::BANDWIDTH_ONLY);
//! for every algorithm here the per-rank sent and received volumes are
//! equal, so this is also the per-rank send volume.
//!
//! These are the formulas of Thakur et al. (2005) / Chan et al. (2007)
//! that §5.1 of the paper relies on: the bandwidth-optimal All-Gather and
//! Reduce-Scatter on `p` ranks cost `(1 − 1/p)·W` words, where `W = p·w`
//! is the gathered (resp. reduced) data volume per rank.
//!
//! On an even split of `W` words that `p` does not divide, the members
//! move different counts. `member_traffic` of each of the two selectors
//! gives one member's exact integer [`Traffic`] on any such split.

use std::ops::AddAssign;

use crate::cost::Cost;

/// What one rank moves: the words it sends and receives and the messages
/// it sends. Under every schedule here a member receives as many
/// messages as it sends.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Traffic {
    /// Words sent.
    pub sent: u64,
    /// Words received.
    pub recv: u64,
    /// Messages sent.
    pub msgs: u64,
}

impl Traffic {
    /// `max(sent, recv)`: what a full-duplex link charges, the per-rank
    /// volume eq. (3) counts.
    pub fn duplex(&self) -> u64 {
        self.sent.max(self.recv)
    }
}

impl AddAssign for Traffic {
    fn add_assign(&mut self, rhs: Traffic) {
        self.sent += rhs.sent;
        self.recv += rhs.recv;
        self.msgs += rhs.msgs;
    }
}

/// Words ahead of member `i` of `total` split evenly over `p`: `total / p`
/// each, the first `total % p` one more (`Counts::Even`'s split, and
/// `pmm_dense::block_range`'s, stated here because the model crate sits
/// below both).
fn even_start(total: u64, p: u64, i: u64) -> u64 {
    i * (total / p) + i.min(total % p)
}

/// Words of member `i` of `total` split evenly over `p`.
pub(crate) fn even_len(total: u64, p: u64, i: u64) -> u64 {
    even_start(total, p, i + 1) - even_start(total, p, i)
}

/// Words of the aligned groups of `1, 2, 4, …, p/2` members that contain
/// `me`: what recursive doubling sends, and recursive halving receives.
fn nested_groups(total: u64, p: u64, me: u64) -> u64 {
    let mut words = 0;
    let mut size = 1;
    while size < p {
        let lo = me / size * size;
        words += even_start(total, p, lo + size) - even_start(total, p, lo);
        size <<= 1;
    }
    words
}

/// `⌈log2 p⌉` for `p ≥ 1`.
fn ceil_log2(p: usize) -> f64 {
    (usize::BITS - (p - 1).leading_zeros()) as f64
}

/// Schedule of an All-Gather (`pmm_collectives::all_gather_v_a`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllGatherAlgo {
    /// Bidirectional ring; any `p`.
    Ring,
    /// Recursive doubling; requires power-of-two `p`.
    RecursiveDoubling,
    /// Recursive doubling when `p` is a power of two, ring otherwise.
    Auto,
}

impl AllGatherAlgo {
    /// The schedule this selector runs on `p` members: `Auto` resolved,
    /// every other selector as is.
    pub fn resolve(self, p: usize) -> AllGatherAlgo {
        match self {
            AllGatherAlgo::Auto if p.is_power_of_two() => AllGatherAlgo::RecursiveDoubling,
            AllGatherAlgo::Auto => AllGatherAlgo::Ring,
            algo => algo,
        }
    }

    /// Messages on the critical path on `p` members: `p − 1` for the
    /// ring, `log2 p` for recursive doubling.
    pub(crate) fn messages(self, p: usize) -> f64 {
        match self.resolve(p) {
            AllGatherAlgo::Ring => (p - 1) as f64,
            _ => {
                assert!(p.is_power_of_two(), "recursive doubling requires power-of-two p");
                ceil_log2(p)
            }
        }
    }

    /// What member `me` of `p` moves in an all-gather of `total` words
    /// split evenly over the members (`Counts::Even(total)`). It receives
    /// every block but its own. The ring sends every block but its right
    /// neighbour's; recursive doubling sends the groups of `1, 2, …, p/2`
    /// blocks it holds before each step.
    pub fn member_traffic(self, p: usize, total: u64, me: usize) -> Traffic {
        if p <= 1 {
            return Traffic::default();
        }
        let (n, me) = (p as u64, me as u64);
        let recv = total - even_len(total, n, me);
        let sent = match self.resolve(p) {
            AllGatherAlgo::Ring => total - even_len(total, n, (me + 1) % n),
            _ => nested_groups(total, n, me),
        };
        Traffic { sent, recv, msgs: self.messages(p) as u64 }
    }
}

/// Schedule of a Reduce-Scatter (`pmm_collectives::reduce_scatter_v_a`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReduceScatterAlgo {
    /// Ring; any `p`.
    Ring,
    /// Recursive halving; requires power-of-two `p`.
    RecursiveHalving,
    /// Recursive halving when `p` is a power of two, ring otherwise.
    Auto,
}

impl ReduceScatterAlgo {
    /// The schedule this selector runs on `p` members: `Auto` resolved,
    /// every other selector as is.
    pub fn resolve(self, p: usize) -> ReduceScatterAlgo {
        match self {
            ReduceScatterAlgo::Auto if p.is_power_of_two() => ReduceScatterAlgo::RecursiveHalving,
            ReduceScatterAlgo::Auto => ReduceScatterAlgo::Ring,
            algo => algo,
        }
    }

    /// Messages on the critical path on `p` members: those of the
    /// matching All-Gather (ring `p − 1`, recursive halving `log2 p`).
    pub(crate) fn messages(self, p: usize) -> f64 {
        match self.resolve(p) {
            ReduceScatterAlgo::Ring => AllGatherAlgo::Ring.messages(p),
            _ => AllGatherAlgo::RecursiveDoubling.messages(p),
        }
    }

    /// What member `me` of `p` moves in a reduce-scatter of `total`
    /// words whose segments split evenly over the members
    /// (`Counts::Even(total)`). It sends every segment but its own. The
    /// ring receives every segment but its left neighbour's; recursive
    /// halving receives the halves of `p/2, …, 2, 1` segments it keeps.
    pub fn member_traffic(self, p: usize, total: u64, me: usize) -> Traffic {
        if p <= 1 {
            return Traffic::default();
        }
        let (n, me) = (p as u64, me as u64);
        let sent = total - even_len(total, n, me);
        let recv = match self.resolve(p) {
            ReduceScatterAlgo::Ring => total - even_len(total, n, (me + n - 1) % n),
            _ => nested_groups(total, n, me),
        };
        Traffic { sent, recv, msgs: self.messages(p) as u64 }
    }
}

/// Schedule of a broadcast (`pmm_collectives::bcast_a`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BcastAlgo {
    /// Binomial tree: `⌈log2 p⌉` rounds, good for small messages.
    Binomial,
    /// Scatter followed by ring All-Gather (van de Geijn): near-optimal
    /// bandwidth `2(1 − 1/p)·w` for large messages. Requires `p | w`.
    ScatterAllGather,
}

impl BcastAlgo {
    /// The broadcast of a `w`-word message on `p` members when every
    /// member knows `w`: scatter–all-gather where it is legal (`p | w`,
    /// `w > 0`), the binomial tree otherwise. SUMMA broadcasts its panels
    /// this way, and its goodput model prices them by the same rule.
    pub fn by_length(p: usize, w: usize) -> BcastAlgo {
        if p > 1 && w > 0 && w.is_multiple_of(p) {
            BcastAlgo::ScatterAllGather
        } else {
            BcastAlgo::Binomial
        }
    }
}

/// Cost of an All-Gather with per-rank block size `w`.
///
/// Ring: `(p−1)·α + (p−1)·w·β`. Recursive doubling (`p = 2^d`):
/// `log2 p·α + (p−1)·w·β`. Both achieve the optimal `(1 − 1/p)·W`
/// bandwidth.
pub fn all_gather_cost(algo: AllGatherAlgo, p: usize, w: usize) -> Cost {
    if p <= 1 {
        return Cost::ZERO;
    }
    Cost { messages: algo.messages(p), words: ((p - 1) * w) as f64, flops: 0.0 }
}

/// Cost of a Reduce-Scatter with per-rank segment size `w` (input length
/// `p·w`).
///
/// Same message/word counts as the matching All-Gather, plus
/// `(p−1)·w` reduction flops per rank.
pub fn reduce_scatter_cost(algo: ReduceScatterAlgo, p: usize, w: usize) -> Cost {
    if p <= 1 {
        return Cost::ZERO;
    }
    let n = ((p - 1) * w) as f64;
    Cost { messages: algo.messages(p), words: n, flops: n }
}

/// Cost of a broadcast of `w` words from the root.
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
        BcastAlgo::ScatterAllGather => {
            assert!(w.is_multiple_of(p), "scatter-allgather bcast requires p | w");
            let chunk = w / p;
            scatter_cost(p, chunk) + all_gather_cost(AllGatherAlgo::Ring, p, chunk)
        }
        BcastAlgo::Binomial => {
            Cost { messages: ceil_log2(p), words: ceil_log2(p) * w as f64, flops: 0.0 }
        }
    }
}

/// Cost of a binomial reduce of `w` words to the root: critical path
/// `⌈log2 p⌉·(α + w·β + w γ-flops)`.
pub fn reduce_cost(p: usize, w: usize) -> Cost {
    if p <= 1 {
        return Cost::ZERO;
    }
    let d = ceil_log2(p);
    Cost { messages: d, words: d * w as f64, flops: d * w as f64 }
}

/// Cost of an All-Reduce of `w` words (Rabenseifner: reduce-scatter +
/// all-gather, both `Auto`): the messages of the two, `2(1 − 1/p)·w`
/// words and `(1 − 1/p)·w` flops when `p | w`. Uneven segments are priced
/// at the largest, `⌈w/p⌉`: exact on the ring (`p` not a power of two),
/// an upper bound under recursive halving.
pub fn all_reduce_cost(p: usize, w: usize) -> Cost {
    if p <= 1 {
        return Cost::ZERO;
    }
    let chunk = w.div_ceil(p);
    reduce_scatter_cost(ReduceScatterAlgo::Auto, p, chunk)
        + all_gather_cost(AllGatherAlgo::Auto, p, chunk)
}

/// Cost of a binomial scatter with uniform block `w` (cost at the root):
/// `⌈log2 p⌉·α + (p−1)·w·β`.
pub fn scatter_cost(p: usize, w: usize) -> Cost {
    if p <= 1 {
        return Cost::ZERO;
    }
    Cost { messages: ceil_log2(p), words: ((p - 1) * w) as f64, flops: 0.0 }
}

/// Cost of an All-to-All with `w` words per destination (pairwise
/// exchange): `(p−1)·(α + w·β)`.
pub fn all_to_all_cost(p: usize, w: usize) -> Cost {
    if p <= 1 {
        return Cost::ZERO;
    }
    Cost { messages: (p - 1) as f64, words: ((p - 1) * w) as f64, flops: 0.0 }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ceil_log2_values() {
        for (p, d) in [(1, 0.0), (2, 1.0), (3, 2.0), (4, 2.0), (5, 3.0), (1024, 10.0)] {
            assert_eq!(ceil_log2(p), d, "p = {p}");
        }
    }

    #[test]
    fn auto_resolves_by_the_one_rule_of_each_collective() {
        assert_eq!(AllGatherAlgo::Auto.resolve(8), AllGatherAlgo::RecursiveDoubling);
        assert_eq!(AllGatherAlgo::Auto.resolve(6), AllGatherAlgo::Ring);
        assert_eq!(AllGatherAlgo::Ring.resolve(8), AllGatherAlgo::Ring);
        assert_eq!(ReduceScatterAlgo::Auto.resolve(4), ReduceScatterAlgo::RecursiveHalving);
        assert_eq!(ReduceScatterAlgo::Auto.resolve(5), ReduceScatterAlgo::Ring);
        assert_eq!(BcastAlgo::by_length(4, 8), BcastAlgo::ScatterAllGather);
        assert_eq!(BcastAlgo::by_length(4, 6), BcastAlgo::Binomial);
        assert_eq!(BcastAlgo::by_length(4, 0), BcastAlgo::Binomial);
        assert_eq!(BcastAlgo::by_length(1, 8), BcastAlgo::Binomial);
    }

    #[test]
    fn trivial_communicators_are_free() {
        assert_eq!(all_gather_cost(AllGatherAlgo::Auto, 1, 100), Cost::ZERO);
        assert_eq!(reduce_scatter_cost(ReduceScatterAlgo::Auto, 1, 100), Cost::ZERO);
        assert_eq!(bcast_cost(BcastAlgo::Binomial, 1, 100), Cost::ZERO);
        assert_eq!(all_reduce_cost(1, 100), Cost::ZERO);
    }

    #[test]
    fn member_traffic_of_a_ragged_split_by_hand() {
        let t = |sent, recv, msgs| Traffic { sent, recv, msgs };
        // 7 words over 3: blocks 3, 2, 2. The ring gather skips its right
        // neighbour's block, the ring reduce-scatter its left one's.
        assert_eq!(AllGatherAlgo::Ring.member_traffic(3, 7, 2), t(4, 5, 2));
        assert_eq!(ReduceScatterAlgo::Ring.member_traffic(3, 7, 1), t(5, 4, 2));
        // 5 words over 4: blocks 2, 1, 1, 1. Member 2 sends {2}, then
        // {2, 3}; halving keeps {2, 3}, then {2}.
        assert_eq!(AllGatherAlgo::RecursiveDoubling.member_traffic(4, 5, 2), t(3, 4, 2));
        assert_eq!(ReduceScatterAlgo::RecursiveHalving.member_traffic(4, 5, 2), t(4, 3, 2));
        // Fewer words than members: empty blocks still cost a message.
        assert_eq!(AllGatherAlgo::Ring.member_traffic(5, 2, 4), t(1, 2, 4));
    }

    #[test]
    fn allreduce_is_reduce_scatter_then_all_gather() {
        let rab = all_reduce_cost(8, 80);
        assert_eq!(rab.words, 140.0); // 2 (1-1/8)·80
        assert_eq!(rab.messages, 6.0); // 2·log2 8
        assert_eq!(rab.flops, 70.0); // (1-1/8)·80
    }
}
