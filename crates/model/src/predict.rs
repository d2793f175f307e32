//! Per-phase analytic cost prediction for Algorithm 1 (eq. 3 of §5.1).
//!
//! Algorithm 1 on a `p1 × p2 × p3` grid performs three collectives, each
//! over one fiber of the grid, and eq. (3) is exactly their sum:
//!
//! | phase | collective | fiber | words per processor |
//! |-------|-----------|-------|---------------------|
//! | A | All-Gather | `p3` | `(1 − 1/p3) · n1n2/(p1p2)` |
//! | B | All-Gather | `p1` | `(1 − 1/p1) · n2n3/(p2p3)` |
//! | C | Reduce-Scatter | `p2` | `(1 − 1/p2) · n1n3/(p1p3)` |
//!
//! [`alg1_prediction`] exposes the three terms individually so tests can
//! hold the *measured* per-phase traffic of a simulated run against the
//! analytic model phase by phase — a much sharper oracle than comparing
//! totals, where two compensating errors could cancel. The sum
//! ([`Alg1Prediction::total`]) is the classic eq. (3) value used by the
//! grid optimizer and the Theorem 3 tightness checks.
//!
//! All three terms are exact (not asymptotic) when the grid divides the
//! dimensions, because the bandwidth-optimal collectives move exactly
//! `(1 − 1/p) · data` words per processor.
//!
//! The module also prices whole runs of an [`AlgPlan`]: its goodput
//! ([`run_words_total`]), the recovery attempts built on it
//! ([`recovery_prediction`]), and its critical-path α-β-γ cost
//! ([`plan_cost`]), by which the advisor ranks candidates.

use crate::collective::{bcast_cost, reduce_cost, AllGatherAlgo, BcastAlgo, ReduceScatterAlgo};
use crate::cost::Cost;
use crate::dims::MatMulDims;

/// Predicted per-processor communication words of Algorithm 1, split by
/// phase (see the module docs for the eq. 3 correspondence).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Alg1Prediction {
    /// All-Gather of A over the `p3` fiber: `(1 − 1/p3) · n1n2/(p1p2)`.
    pub allgather_a: f64,
    /// All-Gather of B over the `p1` fiber: `(1 − 1/p1) · n2n3/(p2p3)`.
    pub allgather_b: f64,
    /// Reduce-Scatter of C over the `p2` fiber: `(1 − 1/p2) · n1n3/(p1p3)`.
    pub reduce_c: f64,
}

impl Alg1Prediction {
    /// The eq. (3) total: sum of the three phase terms.
    pub fn total(&self) -> f64 {
        self.allgather_a + self.allgather_b + self.reduce_c
    }

    /// The three phase terms in execution order (A, B, C) — aligned with
    /// the per-phase meters a simulated Algorithm 1 run reports.
    pub fn phases(&self) -> [f64; 3] {
        [self.allgather_a, self.allgather_b, self.reduce_c]
    }
}

/// Evaluate eq. (3) phase by phase for `dims` on `grid` (iteration-space
/// order `[p1, p2, p3]`, aligned with `n1, n2, n3`).
///
/// # Example
///
/// On the cubic grid each phase moves `(1 − 1/2)·n²/4` words:
///
/// ```
/// use pmm_model::{alg1_prediction, MatMulDims};
///
/// let pred = alg1_prediction(MatMulDims::new(8, 8, 8), [2, 2, 2]);
/// assert_eq!(pred.phases(), [8.0, 8.0, 8.0]);
/// assert_eq!(pred.total(), 24.0);
///
/// // A 1D grid (p2 = p3 = 1) moves only the B matrix:
/// let pred = alg1_prediction(MatMulDims::new(64, 16, 16), [4, 1, 1]);
/// assert_eq!(pred.allgather_a, 0.0);
/// assert_eq!(pred.reduce_c, 0.0);
/// ```
pub fn alg1_prediction(dims: MatMulDims, grid: [usize; 3]) -> Alg1Prediction {
    let [p1, p2, p3] = grid.map(|x| x as f64);
    let (n1, n2, n3) = (dims.n1 as f64, dims.n2 as f64, dims.n3 as f64);
    Alg1Prediction {
        allgather_a: (1.0 - 1.0 / p3) * n1 * n2 / (p1 * p2),
        allgather_b: (1.0 - 1.0 / p1) * n2 * n3 / (p2 * p3),
        reduce_c: (1.0 - 1.0 / p2) * n1 * n3 / (p1 * p3),
    }
}

/// One of the six executable algorithms together with its layout: the
/// one value that names a run. `pmm_algs::run_plan_a` executes any plan
/// on any communicator of at least [`AlgPlan::active`] members (the rest
/// idle), and a recovery attempt is laid out as one. The model prices
/// each variant's full-run goodput in closed form ([`run_words_total`]),
/// which is what makes recovery goodput assertions exact per algorithm.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AlgPlan {
    /// Algorithm 1 on a `p1 × p2 × p3` grid (§5.2 optimum of the
    /// survivors).
    Alg1 {
        /// Processor grid `[p1, p2, p3]`.
        grid: [usize; 3],
    },
    /// Streamed Algorithm 1: same grid and same goodput as
    /// [`AlgPlan::Alg1`], with the A/B all-gathers split into `slabs`
    /// pieces.
    Alg1Streamed {
        /// Processor grid `[p1, p2, p3]`.
        grid: [usize; 3],
        /// Number of streamed slabs.
        slabs: usize,
    },
    /// SUMMA on a `pr × pc` process grid.
    Summa {
        /// Process rows.
        pr: usize,
        /// Process columns.
        pc: usize,
    },
    /// Cannon on a `q × q` torus (survivors beyond `q²` idle).
    Cannon {
        /// Torus side.
        q: usize,
    },
    /// 2.5D on `c` layers of a `q × q` grid (survivors beyond `c·q²`
    /// idle).
    TwoFiveD {
        /// Grid side.
        q: usize,
        /// Replication layers (`c` divides `q`).
        c: usize,
    },
    /// CARMA recursion over `p` ranks (`p` a power of two; survivors
    /// beyond `p` idle).
    Carma {
        /// Active processor count.
        p: usize,
    },
}

impl AlgPlan {
    /// Ranks that actively participate in the run (idle survivors not
    /// counted).
    pub fn active(&self) -> usize {
        match *self {
            AlgPlan::Alg1 { grid } | AlgPlan::Alg1Streamed { grid, .. } => grid.iter().product(),
            AlgPlan::Summa { pr, pc } => pr * pc,
            AlgPlan::Cannon { q } => q * q,
            AlgPlan::TwoFiveD { q, c } => c * q * q,
            AlgPlan::Carma { p } => p,
        }
    }

    /// Short algorithm name for reports.
    pub fn algorithm(&self) -> &'static str {
        match self {
            AlgPlan::Alg1 { .. } => "alg1",
            AlgPlan::Alg1Streamed { .. } => "alg1_streamed",
            AlgPlan::Summa { .. } => "summa",
            AlgPlan::Cannon { .. } => "cannon",
            AlgPlan::TwoFiveD { .. } => "twofived",
            AlgPlan::Carma { .. } => "carma",
        }
    }
}

impl std::fmt::Display for AlgPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            AlgPlan::Alg1 { grid: [p1, p2, p3] } => write!(f, "alg1[{p1}x{p2}x{p3}]"),
            AlgPlan::Alg1Streamed { grid: [p1, p2, p3], slabs } => {
                write!(f, "alg1_streamed[{p1}x{p2}x{p3}/{slabs}]")
            }
            AlgPlan::Summa { pr, pc } => write!(f, "summa[{pr}x{pc}]"),
            AlgPlan::Cannon { q } => write!(f, "cannon[{q}x{q}]"),
            AlgPlan::TwoFiveD { q, c } => write!(f, "twofived[{q}x{q}x{c}]"),
            AlgPlan::Carma { p } => write!(f, "carma[{p}]"),
        }
    }
}

/// Length of part `i` of `0..n` split into `parts` (extras spread over
/// the first parts — the same convention as `pmm_dense::block_range`,
/// mirrored here because the model crate sits below the dense crate).
fn part_len(n: u64, parts: u64, i: u64) -> u64 {
    n / parts + u64::from(i < n % parts)
}

fn lcm(a: u64, b: u64) -> u64 {
    fn gcd(a: u64, b: u64) -> u64 {
        if b == 0 {
            a
        } else {
            gcd(b, a % b)
        }
    }
    a / gcd(a, b) * b
}

/// Total words a binomial-tree scatter of `w` words over `k` ranks
/// sends: each non-root receives its subtree's payload exactly once, so
/// the total is `chunk · Σ_{v=1}^{k-1} min(lowbit(v), k − v)` for
/// uniform chunks `w / k`.
fn binomial_scatter_words(w: u64, k: u64) -> u64 {
    let chunk = w / k;
    let subtree_sum: u64 = (1..k).map(|v| (v & v.wrapping_neg()).min(k - v)).sum();
    chunk * subtree_sum
}

/// Total words one broadcast of `w` words over `k` ranks sends, summed
/// over all ranks, under [`BcastAlgo::by_length`], the rule the SUMMA
/// panel broadcast runs: scatter (as above) + ring all-gather
/// (`(k−1)·w`), or the binomial tree (`(k−1)·w`).
fn bcast_words_total(w: u64, k: u64) -> u64 {
    if k <= 1 || w == 0 {
        return 0;
    }
    match BcastAlgo::by_length(k as usize, w as usize) {
        BcastAlgo::ScatterAllGather => binomial_scatter_words(w, k) + (k - 1) * w,
        _ => (k - 1) * w,
    }
}

/// Per-processor communication (words) of the recursive CARMA-style
/// algorithm (Demmel et al. 2013), unlimited memory: each level halves
/// the largest dimension and the processors, and every processor
/// exchanges its share of the matrix both halves need (`B` on an `n1`
/// split, `A` on an `n3` split, partial `C` on an `n2` split):
///
/// ```text
///   W(m, n, k, 1) = 0
///   W(m, n, k, P) = |shared matrix|/P + W(split dims, P/2)
/// ```
///
/// Ties prefer the non-contracted dimensions (`n1`, then `n3`), so square
/// problems defer the `n2` split — the rule the executed CARMA in
/// `pmm-algs` follows, which moves exactly these words per rank. Panics
/// unless `p` is a power of two.
pub fn carma_cost_words(dims: MatMulDims, p: u64) -> f64 {
    assert!(p.is_power_of_two(), "CARMA cost model requires power-of-two P");
    fn recurse(n1: f64, n2: f64, n3: f64, p: f64) -> f64 {
        if p <= 1.0 {
            0.0
        } else if n1 >= n2 && n1 >= n3 {
            n2 * n3 / p + recurse(n1 / 2.0, n2, n3, p / 2.0)
        } else if n3 >= n1 && n3 >= n2 {
            n1 * n2 / p + recurse(n1, n2, n3 / 2.0, p / 2.0)
        } else {
            n1 * n3 / p + recurse(n1, n2 / 2.0, n3, p / 2.0)
        }
    }
    recurse(dims.n1 as f64, dims.n2 as f64, dims.n3 as f64, p as f64)
}

/// Total goodput words **sent across all ranks** by one clean run of
/// `plan` on `dims` — the exact sum of the surviving ranks' `words_sent`
/// meters (excluding fault retries, which are metered separately).
///
/// Every term mirrors the executed communication structure:
///
/// - `alg1` / `alg1_streamed`: `P ×` eq. (3) (exact when the grid
///   divides the dimensions; the streamed variant moves identical
///   totals, slab by slab).
/// - `summa`: per-panel broadcasts priced by the collective cost model
///   (scatter–all-gather when the panel length divides the
///   communicator, binomial otherwise).
/// - `twofived`: binomial input replication over the `c` fibers, the
///   per-layer skew, `q/c − 1` rotations on all layers, and the
///   binomial C reduction back to layer 0.
/// - `cannon`: `twofived` with one layer — the skew exchanges (every
///   rank off the zero row/column sends its block once) plus `q − 1`
///   full-block rotations.
/// - `carma`: `p ×` the recursion's per-rank closed form
///   ([`carma_cost_words`]).
pub fn run_words_total(dims: MatMulDims, plan: &AlgPlan) -> f64 {
    let (n1, n2, n3) = (dims.n1, dims.n2, dims.n3);
    match *plan {
        AlgPlan::Alg1 { grid } | AlgPlan::Alg1Streamed { grid, .. } => {
            let p: usize = grid.iter().product();
            p as f64 * alg1_prediction(dims, grid).total()
        }
        AlgPlan::Summa { pr, pc } => {
            let (pr, pc) = (pr as u64, pc as u64);
            let s = lcm(pr, pc);
            let mut total = 0u64;
            for t in 0..s {
                let w = part_len(n2, s, t);
                for i in 0..pr {
                    total += bcast_words_total(part_len(n1, pr, i) * w, pc);
                }
                for j in 0..pc {
                    total += bcast_words_total(w * part_len(n3, pc, j), pr);
                }
            }
            total as f64
        }
        AlgPlan::Cannon { q } => run_words_total(dims, &AlgPlan::TwoFiveD { q, c: 1 }),
        AlgPlan::TwoFiveD { q, c } => {
            let (q, c) = (q as u64, c as u64);
            let inputs = n1 * n2 + n2 * n3;
            let replicate = (c - 1) * inputs;
            // Layer l skews by (l·q/c) mod q; exactly one row (and one
            // column) index sits at shift 0 and keeps its block.
            let mut skew = 0u64;
            for l in 0..c {
                let shift = (l * (q / c)) % q;
                let home = (q - shift) % q;
                skew += (n1 - part_len(n1, q, home)) * n2 + n2 * (n3 - part_len(n3, q, home));
            }
            let rotate = (q - c) * inputs;
            let reduce = (c - 1) * n1 * n3;
            (replicate + skew + rotate + reduce) as f64
        }
        AlgPlan::Carma { p } => p as f64 * carma_cost_words(dims, p as u64),
    }
}

/// Critical-path α-β-γ cost of one clean run of `plan` on `dims`, composed
/// from the [`collective`](crate::collective) costs of the schedules the
/// executed algorithm runs: the price of an advisor candidate.
///
/// - `alg1`: the eq. (3) words; the messages of the `Auto` all-gathers
///   and reduce-scatter; `n1n2n3/P` multiply-adds plus the
///   reduce-scatter's additions.
/// - `twofived`: binomial replication of the A and B blocks over the `c`
///   layers, `q/c` shifts of both (skew, then rotations), `n1n2n3/P`
///   multiply-adds, and the binomial reduction of the C block to layer 0.
///
/// `params.time` of it is the executed makespan exactly when the grid
/// divides the dimensions; a ragged 2.5D layout is priced at its largest
/// blocks. `None` for the plans the advisor does not rank.
///
/// ```
/// use pmm_model::{plan_cost, AlgPlan, MatMulDims};
///
/// let dims = MatMulDims::new(48, 48, 48);
/// // Fibers of 3 run the ring (2 messages), of 2 recursive doubling (1).
/// let cost = plan_cost(dims, &AlgPlan::Alg1 { grid: [3, 2, 1] }).unwrap();
/// assert_eq!(cost.messages, 3.0);
/// assert!(plan_cost(dims, &AlgPlan::Carma { p: 8 }).is_none());
/// ```
pub fn plan_cost(dims: MatMulDims, plan: &AlgPlan) -> Option<Cost> {
    match *plan {
        AlgPlan::Alg1 { grid: [p1, p2, p3] } => {
            let eq3 = alg1_prediction(dims, [p1, p2, p3]);
            let gathers = AllGatherAlgo::Auto.messages(p3) + AllGatherAlgo::Auto.messages(p1);
            Some(Cost {
                messages: gathers + ReduceScatterAlgo::Auto.messages(p2),
                words: eq3.total(),
                flops: dims.mults() / (p1 * p2 * p3) as f64 + eq3.reduce_c,
            })
        }
        AlgPlan::TwoFiveD { q, c } => {
            assert!(c >= 1 && q.is_multiple_of(c), "2.5D requires c | q");
            let block = |x: u64, y: u64| (x.div_ceil(q as u64) * y.div_ceil(q as u64)) as usize;
            let (n1, n2, n3) = (dims.n1, dims.n2, dims.n3);
            let (a, b, c_block) = (block(n1, n2), block(n2, n3), block(n1, n3));
            let replicate =
                bcast_cost(BcastAlgo::Binomial, c, a) + bcast_cost(BcastAlgo::Binomial, c, b);
            let shift =
                if q > 1 { Cost::message(a as f64) + Cost::message(b as f64) } else { Cost::ZERO };
            let multiply = Cost::flops(dims.mults() / (c * q * q) as f64);
            Some(replicate + shift * (q / c) as f64 + multiply + reduce_cost(c, c_block))
        }
        _ => None,
    }
}

/// Total words one checkpoint capture or redistribution round moves
/// across all ranks: the buddy ring sends every rank's owned A and B
/// words exactly once, so the total is `|A| + |B|` whenever more than
/// one rank participates (and zero for a single rank, which keeps its
/// blocks in place).
pub fn restore_words_total(dims: MatMulDims, survivors: usize) -> f64 {
    if survivors <= 1 {
        0.0
    } else {
        (dims.n1 * dims.n2 + dims.n2 * dims.n3) as f64
    }
}

/// Predicted goodput of one attempt of a checkpointed recovery run.
#[derive(Debug, Clone, PartialEq)]
pub struct AttemptPrediction {
    /// The layout this attempt ran on.
    pub plan: AlgPlan,
    /// Restore-phase goodput total across ranks: the checkpoint capture
    /// on the first attempt, redistribution from checkpoints on later
    /// ones — both are priced by [`restore_words_total`].
    pub restore_words_total: f64,
    /// Algorithm-run goodput total across ranks
    /// ([`run_words_total`]); exact for the successful attempt, an
    /// upper bound for abandoned ones (a kill truncates them partway).
    pub run_words_total: f64,
    /// Per-rank eq. (3) phase terms when the plan is an Algorithm 1
    /// grid (plain or streamed); `None` for the other algorithms.
    pub alg1_phases: Option<Alg1Prediction>,
}

/// Predicted goodput cost of a checkpointed recovery run: one entry per
/// attempt, each pricing its restore traffic and its full re-run.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryPrediction {
    /// Per-attempt predictions, first to last. The last entry is the
    /// successful attempt; its totals are exact for the surviving
    /// ranks' goodput meters.
    pub attempts: Vec<AttemptPrediction>,
}

impl RecoveryPrediction {
    /// The successful (final) attempt's prediction.
    pub fn last(&self) -> &AttemptPrediction {
        self.attempts.last().expect("recovery has at least one attempt")
    }

    /// Upper bound on total goodput words across all ranks and all
    /// attempts (abandoned attempts counted in full).
    pub fn total_upper_bound_words(&self) -> f64 {
        self.attempts.iter().map(|a| a.restore_words_total + a.run_words_total).sum()
    }
}

/// Price every attempt of a checkpointed recovery run: `plans` is the
/// layout each attempt used, first to last, and `survivors` the number
/// of ranks that participated in each attempt (the checkpoint /
/// redistribution ring size) — both recorded by
/// `pmm_algs::run_recoverable_a`.
///
/// Panics if `plans` is empty or the lengths disagree.
pub fn recovery_prediction(
    dims: MatMulDims,
    plans: &[AlgPlan],
    survivors: &[usize],
) -> RecoveryPrediction {
    assert!(!plans.is_empty(), "recovery has at least one attempt");
    assert_eq!(plans.len(), survivors.len(), "one survivor count per attempt");
    RecoveryPrediction {
        attempts: plans
            .iter()
            .zip(survivors)
            .map(|(plan, &s)| AttemptPrediction {
                plan: plan.clone(),
                restore_words_total: restore_words_total(dims, s),
                run_words_total: run_words_total(dims, plan),
                alg1_phases: match *plan {
                    AlgPlan::Alg1 { grid } | AlgPlan::Alg1Streamed { grid, .. } => {
                        Some(alg1_prediction(dims, grid))
                    }
                    _ => None,
                },
            })
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_terms_match_eq3_by_hand() {
        // 12 × 8 × 4 on a 2 × 2 × 3 grid.
        let p = alg1_prediction(MatMulDims::new(12, 8, 4), [2, 2, 3]);
        assert_eq!(p.allgather_a, (1.0 - 1.0 / 3.0) * 96.0 / 4.0);
        assert_eq!(p.allgather_b, (1.0 - 1.0 / 2.0) * 32.0 / 6.0);
        assert_eq!(p.reduce_c, (1.0 - 1.0 / 2.0) * 48.0 / 6.0);
        assert_eq!(p.total(), p.phases().iter().sum::<f64>());
    }

    #[test]
    fn degenerate_fibers_cost_nothing() {
        // On a 1D grid only B moves: p2 = p3 = 1 kill the A and C terms.
        let p = alg1_prediction(MatMulDims::new(96, 24, 12), [4, 1, 1]);
        assert_eq!(p.allgather_a, 0.0);
        assert_eq!(p.reduce_c, 0.0);
        assert!(p.allgather_b > 0.0);
    }

    #[test]
    fn alg1_run_total_is_p_times_eq3() {
        let dims = MatMulDims::new(24, 24, 24);
        let plan = AlgPlan::Alg1 { grid: [2, 2, 2] };
        assert_eq!(run_words_total(dims, &plan), 8.0 * alg1_prediction(dims, [2, 2, 2]).total());
        let streamed = AlgPlan::Alg1Streamed { grid: [2, 2, 2], slabs: 3 };
        assert_eq!(run_words_total(dims, &streamed), run_words_total(dims, &plan));
    }

    #[test]
    fn cannon_run_total_counts_skew_and_rotations() {
        // 6×6×6 on a 3×3 torus: skew moves 2/3 of each input, rotations
        // move both inputs twice in full.
        let dims = MatMulDims::new(6, 6, 6);
        let skew = 2.0 * (36.0 - 12.0);
        let rotate = 2.0 * (36.0 + 36.0);
        assert_eq!(run_words_total(dims, &AlgPlan::Cannon { q: 3 }), skew + rotate);
        // q = 1 is a purely local run.
        assert_eq!(run_words_total(dims, &AlgPlan::Cannon { q: 1 }), 0.0);
    }

    #[test]
    fn twofived_with_one_layer_degenerates_to_cannon() {
        let dims = MatMulDims::new(12, 8, 4);
        assert_eq!(
            run_words_total(dims, &AlgPlan::TwoFiveD { q: 2, c: 1 }),
            run_words_total(dims, &AlgPlan::Cannon { q: 2 }),
        );
    }

    #[test]
    fn binomial_scatter_counts_subtree_payloads() {
        // p = 4, w = 8: root sends 2 chunks to vrank 2, then 1 chunk to
        // vrank 1; vrank 2 sends 1 chunk to vrank 3 → 4 chunks of 2 words.
        assert_eq!(binomial_scatter_words(8, 4), 8);
        // p = 2: one chunk travels once.
        assert_eq!(binomial_scatter_words(8, 2), 4);
    }

    #[test]
    fn bcast_total_picks_sag_only_on_divisible_lengths() {
        // Indivisible: binomial, (k-1)·w.
        assert_eq!(bcast_words_total(7, 4), 21);
        // Divisible: scatter + ring all-gather.
        assert_eq!(bcast_words_total(8, 4), 8 + 3 * 8);
        assert_eq!(bcast_words_total(0, 4), 0);
        assert_eq!(bcast_words_total(9, 1), 0);
    }

    #[test]
    fn carma_total_is_p_times_the_recursion() {
        let dims = MatMulDims::new(32, 8, 16);
        // An n1 split (|B|/4), then the tie n1 = n3 = 16 goes to n1 (|B|/2).
        let per_rank = carma_cost_words(dims, 4);
        assert_eq!(per_rank, 8.0 * 16.0 / 4.0 + 16.0 * 8.0 / 2.0);
        assert_eq!(run_words_total(dims, &AlgPlan::Carma { p: 4 }), 4.0 * per_rank);
        assert_eq!(run_words_total(dims, &AlgPlan::Carma { p: 1 }), 0.0);
    }

    #[test]
    fn twofived_with_one_layer_prices_cannons_shifts() {
        // q shifts of A and B blocks (skew + q−1 rotations), no
        // replication or reduction.
        let dims = MatMulDims::square(4096);
        let cost = plan_cost(dims, &AlgPlan::TwoFiveD { q: 8, c: 1 }).unwrap();
        let block = 2.0 * (4096.0f64 * 4096.0) / 64.0;
        assert_eq!((cost.words, cost.messages), (8.0 * block, 2.0 * 8.0));
    }

    #[test]
    fn twofived_words_improve_with_c_at_scale() {
        // At P = 4096: c = 4 (q = 32) moves fewer words than c = 1 (q = 64).
        let dims = MatMulDims::square(4096);
        let flat = plan_cost(dims, &AlgPlan::TwoFiveD { q: 64, c: 1 }).unwrap().words;
        let repl = plan_cost(dims, &AlgPlan::TwoFiveD { q: 32, c: 4 }).unwrap().words;
        assert!(repl < flat, "2.5D c=4 {repl} should beat c=1 {flat}");
    }

    #[test]
    #[should_panic(expected = "c | q")]
    fn plan_cost_rejects_twofived_layers_with_c_not_dividing_q() {
        plan_cost(MatMulDims::square(36), &AlgPlan::TwoFiveD { q: 9, c: 2 });
    }

    #[test]
    fn restore_total_is_the_input_footprint() {
        let dims = MatMulDims::new(12, 8, 4);
        assert_eq!(restore_words_total(dims, 5), (12 * 8 + 8 * 4) as f64);
        assert_eq!(restore_words_total(dims, 1), 0.0, "a lone rank keeps its blocks");
    }

    #[test]
    fn recovery_prediction_prices_every_attempt() {
        let dims = MatMulDims::new(24, 24, 24);
        let plans = [AlgPlan::Alg1 { grid: [3, 3, 1] }, AlgPlan::Alg1 { grid: [2, 2, 2] }];
        let pred = recovery_prediction(dims, &plans, &[9, 8]);
        assert_eq!(pred.attempts.len(), 2);
        assert_eq!(pred.last().plan, plans[1]);
        assert!(pred.last().alg1_phases.is_some());
        assert_eq!(
            pred.total_upper_bound_words(),
            2.0 * restore_words_total(dims, 9)
                + run_words_total(dims, &plans[0])
                + run_words_total(dims, &plans[1])
        );
    }
}
