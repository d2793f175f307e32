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
//! Each candidate is an [`AlgPlan`], priced by `pmm-model`'s
//! [`plan_prediction`]: the cost of the collectives and shifts the executed
//! algorithm runs, each by the same rule the executed collective resolves
//! its `Auto` selector by. On a grid that divides the dimensions,
//! `params.time(cost)` is the executed makespan exactly.

use std::fmt;

use pmm_model::{
    alg1_prediction, plan_prediction, AlgPlan, Cost, Grid3, MachineParams, MatMulDims,
};

use crate::memlimit::{alg1_memory_words, min_memory_words};

/// A costed candidate.
#[derive(Debug, Clone, PartialEq)]
pub struct Recommendation {
    /// The candidate run: Algorithm 1 on a grid, or 2.5D on a layout.
    pub plan: AlgPlan,
    /// Predicted α-β-γ cost (per processor, critical path).
    pub cost: Cost,
    /// Predicted time under the machine parameters used for ranking.
    pub time: f64,
    /// Peak memory words per processor this candidate needs.
    pub memory_words: f64,
}

/// Peak memory of the 2.5D algorithm: replicated input blocks + C block
/// (the `c×` replication is the memory price).
pub fn twofived_memory_words(dims: MatMulDims, q: usize) -> f64 {
    let (n1, n2, n3) = (dims.n1 as f64, dims.n2 as f64, dims.n3 as f64);
    let qf = q as f64;
    (n1 * n2 + n2 * n3 + n1 * n3) / (qf * qf)
}

/// The largest processor count the advisor (and `pmm grid`) plans for,
/// `2^40`. Above it, listing the grids of `P` by trial division no longer
/// ends in bounded time; below it, even a highly composite `P` such as
/// 963 761 198 400 is answered in well under a second.
pub const MAX_PROCS: u64 = 1 << 40;

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
    /// The processor count exceeded [`MAX_PROCS`].
    TooManyProcs {
        /// The offending count.
        p: u64,
    },
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
            AdvisorError::TooManyProcs { p } => {
                write!(f, "processor count {p} exceeds the largest plannable P = {MAX_PROCS}")
            }
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
    let p = match usize::try_from(p) {
        Ok(p) if p as u64 <= MAX_PROCS => p,
        _ => return Err(AdvisorError::TooManyProcs { p }),
    };
    if m_words.is_nan() || m_words <= 0.0 {
        return Err(AdvisorError::InvalidMemory { value: m_words });
    }
    for (which, v) in [("alpha", params.alpha), ("beta", params.beta), ("gamma", params.gamma)] {
        if !v.is_finite() || v < 0.0 {
            return Err(AdvisorError::InvalidMachine { which, value: v });
        }
    }
    let dims = MatMulDims::new(n1, n2, n3);
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
    let mut rank = |plan: AlgPlan, memory_words: f64| {
        let cost = plan_prediction(dims, &plan).cost;
        out.push(Recommendation { plan, cost, time: params.time(cost), memory_words });
    };

    // Algorithm 1 on every factorization that fits in memory; keep the
    // cheapest three feasible grids (always including the unconstrained
    // best when it fits), ties in factorization order. One pass, no
    // sort: a highly composite P has millions of grids.
    let mut cheapest: Vec<(f64, [usize; 3], f64)> = Vec::with_capacity(4);
    for grid in Grid3::factorizations(p) {
        let mem = alg1_memory_words(dims, grid);
        if mem > m_words {
            continue;
        }
        let cost = alg1_prediction(dims, grid).total();
        let at = cheapest.partition_point(|kept| kept.0.total_cmp(&cost).is_le());
        if at < 3 {
            cheapest.insert(at, (cost, grid, mem));
            cheapest.truncate(3);
        }
    }
    for (_, grid, mem) in cheapest {
        rank(AlgPlan::Alg1 { grid }, mem);
    }

    // 2.5D at every feasible (q, c) with c·q² = P, c | q. Since c ≤ q,
    // c³ ≤ c·q² = P: no larger c can match.
    let cubed_fits = |c: &usize| c.checked_pow(3).is_some_and(|c3| c3 <= p);
    for c in (1..).take_while(cubed_fits).filter(|c| p.is_multiple_of(*c)) {
        let q = ((p / c) as f64).sqrt().round() as usize;
        let mem = twofived_memory_words(dims, q);
        if c * q * q == p && q.is_multiple_of(c) && mem <= m_words {
            rank(AlgPlan::TwoFiveD { q, c }, mem);
        }
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
    fn with_ample_memory_the_best_grid_wins() {
        let p = 512usize;
        let recs = recommend(SQ, p, f64::INFINITY, MachineParams::BANDWIDTH_ONLY);
        assert!(!recs.is_empty());
        assert_eq!(recs[0].plan, AlgPlan::Alg1 { grid: [8, 8, 8] });
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
            assert!(r.memory_words <= m, "{} exceeds memory", r.plan);
            assert_ne!(r.plan, AlgPlan::Alg1 { grid: [8, 8, 8] }, "cubic grid must be excluded");
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
    fn nothing_fits_returns_empty() {
        let recs = recommend(SQ, 8, 10.0, MachineParams::BANDWIDTH_ONLY);
        assert!(recs.is_empty());
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
    fn try_recommend_rejects_p_beyond_max_procs() {
        let bw = MachineParams::BANDWIDTH_ONLY;
        for p in [MAX_PROCS + 1, u64::MAX] {
            assert_eq!(
                try_recommend(4, 4, 4, p, f64::INFINITY, bw),
                Err(AdvisorError::TooManyProcs { p })
            );
        }
        assert!(try_recommend(4096, 4096, 4096, MAX_PROCS, f64::INFINITY, bw).is_ok());
    }

    #[test]
    fn twofived_candidates_are_every_layout_of_p() {
        // The walk over c³ ≤ P finds what a walk over every divisor finds.
        for p in 1usize..=1100 {
            let got: Vec<AlgPlan> = recommend(SQ, p, f64::INFINITY, MachineParams::BANDWIDTH_ONLY)
                .into_iter()
                .filter(|r| matches!(r.plan, AlgPlan::TwoFiveD { .. }))
                .map(|r| r.plan)
                .collect();
            let want: Vec<AlgPlan> = (1..=p)
                .filter(|c| p.is_multiple_of(*c))
                .map(|c| (((p / c) as f64).sqrt().round() as usize, c))
                .filter(|&(q, c)| c * q * q == p && q.is_multiple_of(c))
                .map(|(q, c)| AlgPlan::TwoFiveD { q, c })
                .collect();
            assert_eq!(got.len(), want.len(), "P = {p}");
            assert!(want.iter().all(|plan| got.contains(plan)), "P = {p}: {got:?} vs {want:?}");
        }
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
            assert_eq!(a.plan, b.plan);
            assert_eq!(a.time.to_bits(), b.time.to_bits());
            assert_eq!(a.cost.words.to_bits(), b.cost.words.to_bits());
        }
    }
}
