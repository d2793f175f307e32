//! Algorithm advisor: turn the paper's bounds into a decision procedure.
//!
//! Given a problem `(n1, n2, n3)`, a machine `(P, M, α, β, γ)`, the
//! advisor predicts the full α-β-γ cost of each candidate strategy —
//! Algorithm 1 on the best *memory-feasible* integer grid, and the 2.5D
//! algorithm at its best replication factor — and ranks them. This is the
//! practical payoff of tight constants (§1: "helped identify the best
//! performing … algorithms"): with exact leading terms, the crossovers
//! between strategies are real decision boundaries, not asymptotic
//! hand-waving.
//!
//! Cost models used here are the exact ones validated against execution
//! by the `eq3_check` and `collectives_cost` experiments (words) plus the
//! standard latency terms of the collectives used.

use std::fmt;

use pmm_model::{Cost, Grid3, MachineParams, MatMulDims};

use crate::gridopt::alg1_cost_words;
use crate::memlimit::{alg1_memory_words, min_memory_words};

/// A candidate execution strategy.
#[derive(Debug, Clone, PartialEq)]
pub enum Strategy {
    /// Algorithm 1 on the given grid.
    Alg1 { grid: [usize; 3] },
    /// 2.5D (layered Cannon) with `c` layers of a `q × q` grid.
    TwoFiveD { q: usize, c: usize },
}

/// A costed candidate.
#[derive(Debug, Clone, PartialEq)]
pub struct Recommendation {
    /// The strategy.
    pub strategy: Strategy,
    /// Predicted α-β-γ cost (per processor, critical path).
    pub cost: Cost,
    /// Predicted time under the machine parameters used for ranking.
    pub time: f64,
    /// Peak memory words per processor this strategy needs.
    pub memory_words: f64,
}

fn ceil_log2(p: usize) -> f64 {
    if p <= 1 {
        0.0
    } else {
        (usize::BITS - (p - 1).leading_zeros()) as f64
    }
}

/// Messages of one of Algorithm 1's fiber collectives on `p` members: its
/// all-gathers and reduce-scatter run recursive doubling / halving
/// (`log2 p` messages) on a power of two and the ring (`p − 1`)
/// otherwise.
fn fiber_messages(p: usize) -> f64 {
    if p.is_power_of_two() {
        p.ilog2() as f64
    } else {
        (p - 1) as f64
    }
}

/// Full predicted cost of Algorithm 1 on `grid`: eq. (3) words, the
/// messages of its three fiber collectives, `n1n2n3/P` multiply-adds
/// plus the reduce-scatter additions.
pub fn alg1_full_cost(dims: MatMulDims, grid: [usize; 3]) -> Cost {
    let [p1, p2, p3] = grid;
    let p = (p1 * p2 * p3) as f64;
    let words = alg1_cost_words(dims, grid);
    let messages = fiber_messages(p1) + fiber_messages(p2) + fiber_messages(p3);
    let rs_adds =
        (1.0 - 1.0 / p2 as f64) * dims.n1 as f64 * dims.n3 as f64 / (p1 as f64 * p3 as f64);
    Cost { messages, words, flops: dims.mults() / p + rs_adds }
}

/// Predicted per-processor words of the 2.5D algorithm (square-ish
/// problems; `P = c·q²`, `c | q`): replication (`2(1−1/c)` of an `A` and
/// a `B` block via scatter–all-gather), `q/c` Cannon shifts of each
/// input block, and the layer reduction of the `C` block.
pub fn twofived_cost(dims: MatMulDims, q: usize, c: usize) -> Cost {
    assert!(c >= 1 && q >= 1 && q.is_multiple_of(c), "2.5D requires c | q");
    let (n1, n2, n3) = (dims.n1 as f64, dims.n2 as f64, dims.n3 as f64);
    let qf = q as f64;
    let cf = c as f64;
    let a_block = n1 * n2 / (qf * qf);
    let b_block = n2 * n3 / (qf * qf);
    let c_block = n1 * n3 / (qf * qf);
    let repl = if c > 1 { 2.0 * (1.0 - 1.0 / cf) * (a_block + b_block) } else { 0.0 };
    let shifts = (qf / cf - 1.0).max(0.0) + 1.0; // q/c − 1 rotations + skew
    let shift_words = if q > 1 { shifts * (a_block + b_block) } else { 0.0 };
    let reduce = if c > 1 { ceil_log2(c) * c_block } else { 0.0 };
    let messages = if c > 1 { 2.0 * ceil_log2(c) + 2.0 * ceil_log2(c) } else { 0.0 }
        + if q > 1 { 2.0 * shifts } else { 0.0 }
        + if c > 1 { ceil_log2(c) } else { 0.0 };
    let flops = dims.mults() / (cf * qf * qf) * cf // each layer multiplies its share
        / cf // … of 1/c of the inner dimension
        + if c > 1 { ceil_log2(c) * c_block } else { 0.0 };
    Cost { messages, words: repl + shift_words + reduce, flops }
}

/// Peak memory of the 2.5D strategy: replicated input blocks + C block
/// (the `c×` replication is the memory price).
pub fn twofived_memory_words(dims: MatMulDims, q: usize) -> f64 {
    let (n1, n2, n3) = (dims.n1 as f64, dims.n2 as f64, dims.n3 as f64);
    let qf = q as f64;
    (n1 * n2 + n2 * n3 + n1 * n3) / (qf * qf)
}

/// Why an advisor query cannot be answered.
///
/// Every way a raw `(n1, n2, n3, P, M)` query can be invalid — zero
/// dimensions, zero processors, non-numeric or infeasible memory — is a
/// *value* of this type, never a panic: the advisor sits on the
/// `pmm serve` request path, where a malformed query must come back as a
/// structured `ERR` response while the worker thread survives to answer
/// the next one.
#[derive(Debug, Clone, PartialEq)]
pub enum AdvisorError {
    /// A matrix dimension was zero (the advisor needs `n1, n2, n3 ≥ 1`).
    ZeroDimension {
        /// Which dimension (`"n1"`, `"n2"`, `"n3"`) was zero.
        which: &'static str,
    },
    /// The processor count was zero.
    ZeroProcs,
    /// The memory budget was NaN or not positive.
    InvalidMemory {
        /// The offending value.
        value: f64,
    },
    /// A machine parameter (α, β, γ) was NaN or negative.
    InvalidMachine {
        /// Which parameter (`"alpha"`, `"beta"`, `"gamma"`).
        which: &'static str,
        /// The offending value.
        value: f64,
    },
    /// `M` is below the §6.2 feasibility floor `(mn + mk + nk)/P`: the
    /// processors cannot even hold one copy of the problem.
    InfeasibleMemory {
        /// The floor `(mn + mk + nk)/P` in words.
        need: f64,
        /// The budget that was offered.
        have: f64,
    },
    /// `M` clears the floor but no concrete strategy (integer grid or
    /// 2.5D layout) fits — the floor is a continuous bound, integer
    /// layouts can need slightly more.
    NoFeasibleStrategy {
        /// The floor `(mn + mk + nk)/P` in words.
        floor: f64,
        /// The budget that was offered.
        have: f64,
    },
}

impl fmt::Display for AdvisorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AdvisorError::ZeroDimension { which } => {
                write!(f, "dimension {which} must be >= 1")
            }
            AdvisorError::ZeroProcs => write!(f, "processor count must be >= 1"),
            AdvisorError::InvalidMemory { value } => {
                write!(f, "memory budget must be a positive number of words, got {value}")
            }
            AdvisorError::InvalidMachine { which, value } => {
                write!(f, "machine parameter {which} must be finite and non-negative, got {value}")
            }
            AdvisorError::InfeasibleMemory { need, have } => {
                write!(f, "memory {have} is below the feasibility floor (mn+mk+nk)/P = {need}")
            }
            AdvisorError::NoFeasibleStrategy { floor, have } => {
                write!(
                    f,
                    "no integer strategy fits in {have} words \
                     (continuous floor (mn+mk+nk)/P = {floor})"
                )
            }
        }
    }
}

impl std::error::Error for AdvisorError {}

/// Validated [`recommend`] over a *raw* query, as it arrives off the
/// wire: every invalid input is a typed [`AdvisorError`], never a panic,
/// and — unlike [`recommend`], which signals infeasibility with an empty
/// vector — the `Ok` ranking is guaranteed non-empty.
///
/// Accepts the memory budget as `f64` so `∞` (no memory constraint) is
/// expressible; `P` is `u64` to match the parsed wire format.
///
/// ```
/// use pmm_core::advisor::{try_recommend, AdvisorError};
/// use pmm_model::MachineParams;
///
/// let recs =
///     try_recommend(96, 96, 96, 8, f64::INFINITY, MachineParams::BANDWIDTH_ONLY).unwrap();
/// assert!(!recs.is_empty());
///
/// let err = try_recommend(96, 0, 96, 8, f64::INFINITY, MachineParams::BANDWIDTH_ONLY);
/// assert_eq!(err, Err(AdvisorError::ZeroDimension { which: "n2" }));
/// ```
pub fn try_recommend(
    n1: u64,
    n2: u64,
    n3: u64,
    p: u64,
    m_words: f64,
    params: MachineParams,
) -> Result<Vec<Recommendation>, AdvisorError> {
    for (which, v) in [("n1", n1), ("n2", n2), ("n3", n3)] {
        if v == 0 {
            return Err(AdvisorError::ZeroDimension { which });
        }
    }
    if p == 0 {
        return Err(AdvisorError::ZeroProcs);
    }
    if m_words.is_nan() || m_words <= 0.0 {
        return Err(AdvisorError::InvalidMemory { value: m_words });
    }
    for (which, v) in [("alpha", params.alpha), ("beta", params.beta), ("gamma", params.gamma)] {
        if !v.is_finite() || v < 0.0 {
            return Err(AdvisorError::InvalidMachine { which, value: v });
        }
    }
    let dims = MatMulDims::new(n1, n2, n3);
    let p = usize::try_from(p).map_err(|_| AdvisorError::NoFeasibleStrategy {
        floor: min_memory_words(dims, p as f64),
        have: m_words,
    })?;
    let floor = min_memory_words(dims, p as f64);
    if floor > m_words {
        return Err(AdvisorError::InfeasibleMemory { need: floor, have: m_words });
    }
    let recs = recommend(dims, p, m_words, params);
    if recs.is_empty() {
        return Err(AdvisorError::NoFeasibleStrategy { floor, have: m_words });
    }
    Ok(recs)
}

/// Rank all memory-feasible strategies for `(dims, p)` under local memory
/// `m_words` and machine `params`. Returns candidates sorted by predicted
/// time (best first); empty only if *nothing* fits (i.e. `M` cannot even
/// hold the problem).
///
/// Panics if `dims` or `p` are degenerate; [`try_recommend`] is the
/// panic-free variant for queries that arrive off the wire.
pub fn recommend(
    dims: MatMulDims,
    p: usize,
    m_words: f64,
    params: MachineParams,
) -> Vec<Recommendation> {
    let mut out = Vec::new();

    // Algorithm 1 on every factorization that fits in memory; keep the
    // best few distinct grids (always including the unconstrained best).
    let mut grids: Vec<[usize; 3]> = Grid3::factorizations(p);
    grids.sort_by(|a, b| alg1_cost_words(dims, *a).total_cmp(&alg1_cost_words(dims, *b)));
    let mut kept = 0;
    for grid in grids {
        let mem = alg1_memory_words(dims, grid);
        if mem > m_words {
            continue;
        }
        let cost = alg1_full_cost(dims, grid);
        out.push(Recommendation {
            strategy: Strategy::Alg1 { grid },
            time: params.time(cost),
            cost,
            memory_words: mem,
        });
        kept += 1;
        if kept >= 3 {
            break; // cheapest three feasible grids suffice for ranking
        }
    }

    // 2.5D at every feasible (q, c) with c·q² = P, c | q.
    for c in 1..=p {
        if !p.is_multiple_of(c) {
            continue;
        }
        let qq = p / c;
        let q = (qq as f64).sqrt().round() as usize;
        if q * q != qq || !q.is_multiple_of(c.min(q.max(1))) || (c > 1 && !q.is_multiple_of(c)) {
            continue;
        }
        let mem = twofived_memory_words(dims, q);
        if mem > m_words {
            continue;
        }
        let cost = twofived_cost(dims, q, c);
        out.push(Recommendation {
            strategy: Strategy::TwoFiveD { q, c },
            time: params.time(cost),
            cost,
            memory_words: mem,
        });
    }

    out.sort_by(|a, b| a.time.total_cmp(&b.time));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::theorem3::lower_bound;

    const SQ: MatMulDims = MatMulDims { n1: 4096, n2: 4096, n3: 4096 };

    #[test]
    fn alg1_full_cost_matches_eq3_words() {
        let dims = MatMulDims::new(9600, 2400, 600);
        for grid in [[3usize, 1, 1], [12, 3, 1], [32, 8, 2]] {
            let c = alg1_full_cost(dims, grid);
            assert_eq!(c.words, alg1_cost_words(dims, grid));
            assert!(c.flops >= dims.mults() / grid.iter().product::<usize>() as f64);
        }
    }

    #[test]
    fn with_ample_memory_the_best_grid_wins() {
        let p = 512usize;
        let recs = recommend(SQ, p, f64::INFINITY, MachineParams::BANDWIDTH_ONLY);
        assert!(!recs.is_empty());
        match recs[0].strategy {
            Strategy::Alg1 { grid } => assert_eq!(grid, [8, 8, 8]),
            ref s => panic!("expected Alg1 cubic grid, got {s:?}"),
        }
        // And its words equal the Theorem 3 bound.
        let bound = lower_bound(SQ, p as f64).bound;
        assert!((recs[0].cost.words - bound).abs() < 1e-6 * bound);
    }

    #[test]
    fn tight_memory_excludes_3d_grids() {
        let p = 512usize;
        // The cubic grid needs 3·n²/P^{2/3} = 3·4096²/64 words; give less.
        let cubic_need = alg1_memory_words(SQ, [8, 8, 8]);
        let m = cubic_need * 0.5;
        let recs = recommend(SQ, p, m, MachineParams::BANDWIDTH_ONLY);
        assert!(!recs.is_empty(), "2D-ish strategies should still fit");
        for r in &recs {
            assert!(r.memory_words <= m, "{:?} exceeds memory", r.strategy);
            if let Strategy::Alg1 { grid } = r.strategy {
                assert_ne!(grid, [8, 8, 8], "cubic grid must be excluded");
            }
        }
        // The winner must cost more words than the unconstrained bound —
        // the §6.2 memory/communication trade-off.
        let bound = lower_bound(SQ, p as f64).bound;
        assert!(recs[0].cost.words > bound);
    }

    #[test]
    fn latency_dominant_machines_prefer_fewer_messages() {
        // With enormous α, a strategy with fewer messages wins even at
        // more words: compare ranking under α = 0 vs α huge.
        let p = 64usize;
        let bw = recommend(SQ, p, f64::INFINITY, MachineParams::BANDWIDTH_ONLY);
        let lat = recommend(SQ, p, f64::INFINITY, MachineParams::new(1e12, 0.0, 0.0));
        let msgs = |r: &Recommendation| r.cost.messages;
        // Under latency-only ranking the winner has minimal messages.
        let min_msgs = lat.iter().map(msgs).fold(f64::INFINITY, f64::min);
        assert_eq!(msgs(&lat[0]), min_msgs);
        // Under bandwidth-only ranking the winner has minimal words.
        let min_words = bw.iter().map(|r| r.cost.words).fold(f64::INFINITY, f64::min);
        assert_eq!(bw[0].cost.words, min_words);
    }

    #[test]
    fn twofived_cost_degenerates_to_cannon_at_c1() {
        let c = twofived_cost(SQ, 8, 1);
        // q shifts of A and B blocks (skew + q−1 rotations), no repl/reduce.
        let block = 2.0 * (4096.0f64 * 4096.0) / 64.0;
        assert!((c.words - 8.0 * block).abs() < 1e-6);
    }

    #[test]
    fn twofived_words_improve_with_c_at_scale() {
        // At P = 4096: c = 4 (q = 32) moves fewer words than c = 1 (q = 64).
        let flat = twofived_cost(SQ, 64, 1).words;
        let repl = twofived_cost(SQ, 32, 4).words;
        assert!(repl < flat, "2.5D c=4 {repl} should beat c=1 {flat}");
    }

    #[test]
    fn nothing_fits_returns_empty() {
        let recs = recommend(SQ, 8, 10.0, MachineParams::BANDWIDTH_ONLY);
        assert!(recs.is_empty());
    }

    #[test]
    #[should_panic(expected = "c | q")]
    fn twofived_cost_rejects_bad_layers() {
        twofived_cost(SQ, 9, 2);
    }

    #[test]
    fn try_recommend_rejects_degenerate_queries_with_typed_errors() {
        let bw = MachineParams::BANDWIDTH_ONLY;
        assert_eq!(
            try_recommend(0, 4, 4, 2, f64::INFINITY, bw),
            Err(AdvisorError::ZeroDimension { which: "n1" })
        );
        assert_eq!(
            try_recommend(4, 0, 4, 2, f64::INFINITY, bw),
            Err(AdvisorError::ZeroDimension { which: "n2" })
        );
        assert_eq!(
            try_recommend(4, 4, 0, 2, f64::INFINITY, bw),
            Err(AdvisorError::ZeroDimension { which: "n3" })
        );
        assert_eq!(try_recommend(4, 4, 4, 0, f64::INFINITY, bw), Err(AdvisorError::ZeroProcs));
        assert!(matches!(
            try_recommend(4, 4, 4, 2, f64::NAN, bw),
            Err(AdvisorError::InvalidMemory { value }) if value.is_nan()
        ));
        assert_eq!(
            try_recommend(4, 4, 4, 2, -1.0, bw),
            Err(AdvisorError::InvalidMemory { value: -1.0 })
        );
        let bad = MachineParams { alpha: f64::NAN, beta: 1.0, gamma: 0.0 };
        assert!(matches!(
            try_recommend(4, 4, 4, 2, f64::INFINITY, bad),
            Err(AdvisorError::InvalidMachine { which: "alpha", .. })
        ));
    }

    #[test]
    fn try_recommend_reports_the_feasibility_floor() {
        // M = 10 words cannot hold 3·4096²/8 words: a typed error naming
        // the §6.2 floor, where `recommend` returns an empty ranking.
        let err = try_recommend(4096, 4096, 4096, 8, 10.0, MachineParams::BANDWIDTH_ONLY);
        match err {
            Err(AdvisorError::InfeasibleMemory { need, have }) => {
                assert_eq!(have, 10.0);
                assert_eq!(need, 3.0 * 4096.0 * 4096.0 / 8.0);
            }
            other => panic!("expected InfeasibleMemory, got {other:?}"),
        }
    }

    #[test]
    fn try_recommend_agrees_with_recommend_on_valid_queries() {
        let recs =
            try_recommend(4096, 4096, 4096, 512, f64::INFINITY, MachineParams::TYPICAL_CLUSTER)
                .expect("valid query");
        let cold = recommend(SQ, 512, f64::INFINITY, MachineParams::TYPICAL_CLUSTER);
        assert_eq!(recs.len(), cold.len());
        for (a, b) in recs.iter().zip(&cold) {
            assert_eq!(a.strategy, b.strategy);
            assert_eq!(a.time.to_bits(), b.time.to_bits());
            assert_eq!(a.cost.words.to_bits(), b.cost.words.to_bits());
        }
    }
}
