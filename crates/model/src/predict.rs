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
//! dimensions and every block splits evenly over its fiber, because the
//! bandwidth-optimal collectives then move exactly `(1 − 1/p) · data`
//! words per processor. [`alg1_price`] is the integer price of each rank
//! on every layout: what its three phase meters read, even, ragged,
//! plain or streamed.
//!
//! The module also prices whole runs of each of the six [`AlgPlan`]s, in
//! one place: [`plan_prediction`] states each plan's schedule once and
//! yields its goodput total across ranks (exact on every layout) and its
//! critical-path α-β-γ cost (exact on layouts the grid divides), by
//! which the advisor ranks candidates. [`recovery_prediction`] prices
//! the attempts of a recovery run from it.

use crate::collective::{
    bcast_cost, even_len, reduce_cost, AllGatherAlgo, BcastAlgo, ReduceScatterAlgo, Traffic,
};
use crate::cost::Cost;
use crate::dims::MatMulDims;
use crate::grid::Grid3;

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
/// order `[p1, p2, p3]`, aligned with `n1, n2, n3`). Each term is one
/// division of exact integers, `(p3 − 1)·n1·n2 / (p1·p2·p3)` and its two
/// rotations, so a term that is a whole number of words is that number.
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
    let [p1, p2, p3] = grid.map(|x| x as u128);
    let (n1, n2, n3) = (u128::from(dims.n1), u128::from(dims.n2), u128::from(dims.n3));
    let term = |fiber: u128, words: u128| ((fiber - 1) * words) as f64 / (p1 * p2 * p3) as f64;
    Alg1Prediction {
        allgather_a: term(p3, n1 * n2),
        allgather_b: term(p1, n2 * n3),
        reduce_c: term(p2, n1 * n3),
    }
}

/// The integer price of one rank of an Algorithm 1 run: for each phase
/// (all-gather `A`, all-gather `B`, reduce-scatter `C`), the words the
/// rank sends and receives and the messages it sends — what its three
/// phase meters read. `rank` is the rank's grid index
/// ([`Grid3::coord_of`]), which is its index in the communicator the run
/// was laid out on. `slabs = 1` prices [`AlgPlan::Alg1`], more prices
/// [`AlgPlan::Alg1Streamed`].
///
/// The price runs the executor's own arithmetic on any layout. The
/// rank's blocks are even splits of the dimensions (`block_range`). The
/// slab count is clamped to the rank's inner extent, and each slab is an
/// even split of it. Each block or slab splits evenly over its fiber
/// (`Counts::Even`), and each member moves what the schedule `Auto`
/// resolves to moves ([`AllGatherAlgo::member_traffic`],
/// [`ReduceScatterAlgo::member_traffic`]). Where the grid divides the
/// dimensions and every block splits evenly over its fiber, each phase's
/// duplex words are the [`alg1_prediction`] term.
///
/// ```
/// use pmm_model::{alg1_price, MatMulDims, Traffic};
///
/// // 13 × 7 × 11 on 2 × 2 × 2: rank 7's block of A is 6 × 3, split 9 + 9
/// // over its fiber; its block of B is 3 × 5, split 8 + 7, and it holds
/// // the 7. Every fiber of two is one exchange.
/// let [a, b, _] = alg1_price(MatMulDims::new(13, 7, 11), [2, 2, 2], 1, 7);
/// assert_eq!(a, Traffic { sent: 9, recv: 9, msgs: 1 });
/// assert_eq!(b, Traffic { sent: 7, recv: 8, msgs: 1 });
/// ```
pub fn alg1_price(dims: MatMulDims, grid: [usize; 3], slabs: usize, rank: usize) -> [Traffic; 3] {
    let [c1, c2, c3] = Grid3::from_dims(grid).coord_of(rank);
    let [p1, p2, p3] = grid;
    let [h1, h2, h3] = [(dims.n1, p1, c1), (dims.n2, p2, c2), (dims.n3, p3, c3)]
        .map(|(n, p, c)| even_len(n, p as u64, c as u64));
    let slabs = (slabs as u64).clamp(1, h2.max(1));
    let mut price = [Traffic::default(); 3];
    for s in 0..slabs {
        let w = even_len(h2, slabs, s);
        price[0] += AllGatherAlgo::Auto.member_traffic(p3, h1 * w, c3);
        price[1] += AllGatherAlgo::Auto.member_traffic(p1, w * h3, c1);
    }
    price[2] = ReduceScatterAlgo::Auto.member_traffic(p2, h1 * h3, c2);
    price
}

/// One of the six executable algorithms together with its layout: the
/// one value that names a run. `pmm_algs::run_plan_a` executes any plan
/// on any communicator of at least [`AlgPlan::active`] members (the rest
/// idle), and a recovery attempt is laid out as one. The model prices
/// each variant's run in closed form ([`plan_prediction`]), which is what
/// makes recovery goodput assertions exact per algorithm.
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

/// Total words a binomial-tree scatter of `w` words over `k` ranks
/// sends: each non-root receives its subtree's payload exactly once, so
/// the total is `chunk · Σ_{v=1}^{k-1} min(lowbit(v), k − v)` for
/// uniform chunks `w / k`.
fn binomial_scatter_words(w: u64, k: u64) -> f64 {
    let chunk = w / k;
    let subtree_sum: u64 = (1..k).map(|v| (v & v.wrapping_neg()).min(k - v)).sum();
    chunk as f64 * subtree_sum as f64
}

/// Total words one broadcast of `w` words over `k` ranks sends, summed
/// over all ranks, under [`BcastAlgo::by_length`], the rule the SUMMA
/// panel broadcast runs: scatter (as above) + ring all-gather
/// (`(k−1)·w`), or the binomial tree (`(k−1)·w`).
fn bcast_words_total(w: u64, k: u64) -> f64 {
    if k <= 1 || w == 0 {
        return 0.0;
    }
    let relay = (k - 1) as f64 * w as f64;
    match BcastAlgo::by_length(k as usize, w as usize) {
        BcastAlgo::ScatterAllGather => binomial_scatter_words(w, k) + relay,
        BcastAlgo::Binomial => relay,
    }
}

/// The dimension the CARMA recursion halves on an `n1 × n2 × n3`
/// subproblem (`0` = `n1`, `1` = `n2`, `2` = `n3`): the largest, ties
/// going to `n1`, then `n3`, so square problems defer the split of the
/// contracted dimension. The executed recursion in `pmm-algs` and the
/// CARMA arm of [`plan_prediction`] both split by it.
///
/// ```
/// use pmm_model::carma_split_dim;
///
/// assert_eq!(carma_split_dim(8, 8, 8), 0);
/// assert_eq!(carma_split_dim(4, 8, 8), 2);
/// assert_eq!(carma_split_dim(4, 8, 2), 1);
/// ```
pub fn carma_split_dim<T: PartialOrd>(n1: T, n2: T, n3: T) -> usize {
    if n1 >= n3 && n1 >= n2 {
        0
    } else if n3 >= n2 {
        2
    } else {
        1
    }
}

/// The number of panels SUMMA splits the contracted dimension into on a
/// `pr × pc` grid, `lcm(pr, pc)`: panel `t` of `A` lives on process
/// column `t mod pc`, panel `t` of `B` on process row `t mod pr`. The
/// executed SUMMA in `pmm-algs` and the SUMMA arm of [`plan_prediction`]
/// both loop over them.
///
/// ```
/// use pmm_model::summa_panels;
///
/// assert_eq!(summa_panels(2, 3), 6);
/// assert_eq!(summa_panels(4, 2), 4);
/// ```
pub fn summa_panels(pr: usize, pc: usize) -> usize {
    let (mut a, mut b) = (pr, pc);
    while b != 0 {
        (a, b) = (b, a % b);
    }
    pr / a * pc
}

/// What one clean run of an [`AlgPlan`] moves and costs
/// ([`plan_prediction`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlanPrediction {
    /// Critical-path α-β-γ cost: `params.time(cost)` is the executed
    /// makespan exactly when the layout divides the dimensions (a ragged
    /// layout is priced at its largest blocks, which is not exact).
    pub cost: Cost,
    /// Goodput words sent, summed over all ranks: the exact sum of the
    /// ranks' `words_sent` meters on every layout (fault retries are
    /// metered apart).
    pub words_total: f64,
}

/// What one clean run of `plan` on `dims` moves and costs. Each arm
/// states its plan's schedule once, composed from the
/// [`collective`](crate::collective) costs of what the executed algorithm
/// runs. Goodput totals are summed in `f64`, as `cost` is, so no total
/// overflows; they stay exact below `2^53` words, which covers every run
/// that can execute (one block's word count is still a `u64` product):
///
/// - `alg1`: eq. (3) per rank; the messages of the `Auto` all-gathers
///   and reduce-scatter; `n1n2n3/P` multiply-adds plus the
///   reduce-scatter's additions. The goodput is `P ×` eq. (3): each
///   fiber member sends its chunk to every other member.
/// - `alg1_streamed`: Algorithm 1's words and flops; the two gathers
///   run once per slab, the slab count clamped to the (largest) inner
///   extent `⌈n2/p2⌉` as the executor clamps it.
/// - `summa`: one broadcast of the row's `A` panel and one of the
///   column's `B` panel per panel of `n2` (`lcm(pr, pc)` of them), each
///   by [`BcastAlgo::by_length`]; `n1n2n3/P` multiply-adds.
/// - `twofived`: binomial replication of the A and B blocks over the `c`
///   layers, `q/c` shifts of both (skew, then rotations), `n1n2n3/P`
///   multiply-adds, and the binomial reduction of the C block to layer 0.
/// - `cannon`: `twofived` with one layer, which is how it runs.
/// - `carma`: one pairwise exchange per halving (`log2 P` of them), of
///   the rank's share of the matrix both halves need (`B` on an `n1`
///   split, `A` on an `n3` split, partial `C` on an `n2` split, whose
///   `|C|/P` words are also added); `n1n2n3/P` multiply-adds.
///
/// ```
/// use pmm_model::{plan_prediction, AlgPlan, MatMulDims};
///
/// let dims = MatMulDims::new(48, 48, 48);
/// // Fibers of 3 run the ring (2 messages), of 2 recursive doubling (1).
/// let alg1 = plan_prediction(dims, &AlgPlan::Alg1 { grid: [3, 2, 1] });
/// assert_eq!(alg1.cost.messages, 3.0);
/// // Cannon on a 4 × 4 torus: the skew and three rotations of A and B.
/// assert_eq!(plan_prediction(dims, &AlgPlan::Cannon { q: 4 }).cost.messages, 8.0);
/// // CARMA on 8 ranks halves n1, n3, then n2: three exchanges.
/// let carma = plan_prediction(dims, &AlgPlan::Carma { p: 8 });
/// assert_eq!(carma.cost.messages, 3.0);
/// assert_eq!(carma.words_total, 8.0 * carma.cost.words);
/// ```
pub fn plan_prediction(dims: MatMulDims, plan: &AlgPlan) -> PlanPrediction {
    let (n1, n2, n3) = (dims.n1, dims.n2, dims.n3);
    match *plan {
        AlgPlan::Alg1 { grid: [p1, p2, p3] } | AlgPlan::Alg1Streamed { grid: [p1, p2, p3], .. } => {
            let eq3 = alg1_prediction(dims, [p1, p2, p3]);
            let slabs = match *plan {
                AlgPlan::Alg1Streamed { slabs, .. } => {
                    slabs.clamp(1, n2.div_ceil(p2 as u64).max(1) as usize)
                }
                _ => 1,
            };
            let gathers = AllGatherAlgo::Auto.messages(p3) + AllGatherAlgo::Auto.messages(p1);
            let p = p1 * p2 * p3;
            // Each fiber member sends its chunk to every other member:
            // P × eq. (3), in integer terms.
            let relayed = |fiber: usize, block: u64| (fiber - 1) as f64 * block as f64;
            PlanPrediction {
                cost: Cost {
                    messages: gathers * slabs as f64 + ReduceScatterAlgo::Auto.messages(p2),
                    words: eq3.total(),
                    flops: dims.mults() / p as f64 + eq3.reduce_c,
                },
                words_total: relayed(p3, n1 * n2) + relayed(p1, n2 * n3) + relayed(p2, n1 * n3),
            }
        }
        AlgPlan::Summa { pr, pc } => {
            let bcast =
                |k: usize, w: u64| bcast_cost(BcastAlgo::by_length(k, w as usize), k, w as usize);
            let (rows, cols) = (pr as u64, pc as u64);
            let s = summa_panels(pr, pc) as u64;
            // The critical path is priced at rank (0, 0), which holds the
            // largest blocks.
            let (h1, h3) = (even_len(n1, rows, 0), even_len(n3, cols, 0));
            let mut cost = Cost::flops(dims.mults() / (pr * pc) as f64);
            let mut total = 0.0;
            for t in 0..s {
                let w = even_len(n2, s, t);
                cost += bcast(pc, h1 * w) + bcast(pr, w * h3);
                for i in 0..rows {
                    total += bcast_words_total(even_len(n1, rows, i) * w, cols);
                }
                for j in 0..cols {
                    total += bcast_words_total(w * even_len(n3, cols, j), rows);
                }
            }
            PlanPrediction { cost, words_total: total }
        }
        AlgPlan::Cannon { q } => plan_prediction(dims, &AlgPlan::TwoFiveD { q, c: 1 }),
        AlgPlan::TwoFiveD { q, c } => {
            assert!(c >= 1 && q.is_multiple_of(c), "2.5D requires c | q");
            let block = |x: u64, y: u64| (x.div_ceil(q as u64) * y.div_ceil(q as u64)) as usize;
            let (a, b, c_block) = (block(n1, n2), block(n2, n3), block(n1, n3));
            let replicate =
                bcast_cost(BcastAlgo::Binomial, c, a) + bcast_cost(BcastAlgo::Binomial, c, b);
            let shift =
                if q > 1 { Cost::message(a as f64) + Cost::message(b as f64) } else { Cost::ZERO };
            let multiply = Cost::flops(dims.mults() / (c * q * q) as f64);
            let cost = replicate + shift * (q / c) as f64 + multiply + reduce_cost(c, c_block);

            let (q, c) = (q as u64, c as u64);
            let [f1, f2, f3] = [n1, n2, n3].map(|n| n as f64);
            let inputs = f1 * f2 + f2 * f3;
            let replicate = (c - 1) as f64 * inputs;
            // Layer l skews by (l·q/c) mod q; exactly one row (and one
            // column) index sits at shift 0 and keeps its block.
            let mut skew = 0.0;
            for l in 0..c {
                let shift = (l * (q / c)) % q;
                let home = (q - shift) % q;
                skew += (n1 - even_len(n1, q, home)) as f64 * f2
                    + f2 * (n3 - even_len(n3, q, home)) as f64;
            }
            let rotate = (q - c) as f64 * inputs;
            let reduce = (c - 1) as f64 * f1 * f3;
            PlanPrediction { cost, words_total: replicate + skew + rotate + reduce }
        }
        AlgPlan::Carma { p } => {
            assert!(p.is_power_of_two(), "CARMA requires power-of-two P");
            let mut cost = Cost::flops(dims.mults() / p as f64);
            let (mut sub, mut ranks) = ([n1, n2, n3], p as u64);
            while ranks > 1 {
                let [m, k, n] = sub;
                let split = carma_split_dim(m, k, n);
                let [m, k, n] = [m, k, n].map(|x| x as f64);
                let w = [k * n, m * n, m * k][split] / ranks as f64;
                cost += Cost::message(w);
                if split == 1 {
                    cost += Cost::flops(w);
                }
                sub[split] /= 2;
                ranks /= 2;
            }
            PlanPrediction { cost, words_total: p as f64 * cost.words }
        }
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
    /// ([`PlanPrediction::words_total`]); exact for the successful attempt, an
    /// upper bound for abandoned ones (a kill truncates them partway).
    pub run_words_total: f64,
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
                run_words_total: plan_prediction(dims, plan).words_total,
            })
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn words_total(dims: MatMulDims, plan: &AlgPlan) -> f64 {
        plan_prediction(dims, plan).words_total
    }

    #[test]
    fn phase_terms_match_eq3_by_hand() {
        // 12 × 8 × 4 on a 2 × 2 × 3 grid.
        let p = alg1_prediction(MatMulDims::new(12, 8, 4), [2, 2, 3]);
        assert_eq!(p.allgather_a, (1.0 - 1.0 / 3.0) * 96.0 / 4.0);
        assert_eq!(p.allgather_b, (1.0 - 1.0 / 2.0) * 32.0 / 6.0);
        assert_eq!(p.reduce_c, (1.0 - 1.0 / 2.0) * 48.0 / 6.0);
        assert_eq!(p.total(), p.phases().iter().sum::<f64>());
        // Whole-word terms are whole: (1 − 1/3)·9 = 6, not 6.000000000000001.
        assert_eq!(alg1_prediction(MatMulDims::new(1, 9, 3), [1, 1, 3]).total(), 6.0);
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
    fn cannon_run_total_counts_skew_and_rotations() {
        // 6×6×6 on a 3×3 torus: skew moves 2/3 of each input, rotations
        // move both inputs twice in full.
        let dims = MatMulDims::new(6, 6, 6);
        let skew = 2.0 * (36.0 - 12.0);
        let rotate = 2.0 * (36.0 + 36.0);
        assert_eq!(words_total(dims, &AlgPlan::Cannon { q: 3 }), skew + rotate);
        // q = 1 is a purely local run.
        assert_eq!(words_total(dims, &AlgPlan::Cannon { q: 1 }), 0.0);
    }

    #[test]
    fn twofived_with_one_layer_degenerates_to_cannon() {
        let dims = MatMulDims::new(12, 8, 4);
        assert_eq!(
            words_total(dims, &AlgPlan::TwoFiveD { q: 2, c: 1 }),
            words_total(dims, &AlgPlan::Cannon { q: 2 }),
        );
    }

    #[test]
    fn binomial_scatter_counts_subtree_payloads() {
        // p = 4, w = 8: root sends 2 chunks to vrank 2, then 1 chunk to
        // vrank 1; vrank 2 sends 1 chunk to vrank 3 → 4 chunks of 2 words.
        assert_eq!(binomial_scatter_words(8, 4), 8.0);
        // p = 2: one chunk travels once.
        assert_eq!(binomial_scatter_words(8, 2), 4.0);
    }

    #[test]
    fn bcast_total_picks_sag_only_on_divisible_lengths() {
        // Indivisible: binomial, (k-1)·w.
        assert_eq!(bcast_words_total(7, 4), 21.0);
        // Divisible: scatter + ring all-gather.
        assert_eq!(bcast_words_total(8, 4), 8.0 + 3.0 * 8.0);
        assert_eq!(bcast_words_total(0, 4), 0.0);
        assert_eq!(bcast_words_total(9, 1), 0.0);
    }

    #[test]
    fn carma_total_is_p_times_the_recursion() {
        let dims = MatMulDims::new(32, 8, 16);
        // An n1 split (|B|/4), then the tie n1 = n3 = 16 goes to n1 (|B|/2).
        let per_rank = plan_prediction(dims, &AlgPlan::Carma { p: 4 }).cost;
        assert_eq!(per_rank.words, 8.0 * 16.0 / 4.0 + 16.0 * 8.0 / 2.0);
        assert_eq!(per_rank.messages, 2.0);
        assert_eq!(per_rank.flops, 32.0 * 8.0 * 16.0 / 4.0, "no n2 split, no additions");
        assert_eq!(words_total(dims, &AlgPlan::Carma { p: 4 }), 4.0 * per_rank.words);
        assert_eq!(words_total(dims, &AlgPlan::Carma { p: 1 }), 0.0);
    }

    #[test]
    fn carma_adds_the_partial_c_it_receives_at_an_n2_split() {
        // 8 × 32 × 8 on 2 ranks halves n2: each rank sends and adds |C|/2.
        let cost = plan_prediction(MatMulDims::new(8, 32, 8), &AlgPlan::Carma { p: 2 }).cost;
        assert_eq!((cost.messages, cost.words), (1.0, 32.0));
        assert_eq!(cost.flops, 8.0 * 16.0 * 8.0 + 32.0);
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn carma_requires_a_power_of_two() {
        plan_prediction(MatMulDims::square(64), &AlgPlan::Carma { p: 3 });
    }

    #[test]
    fn streamed_alg1_runs_both_gathers_once_per_slab() {
        // 2 × 2 × 2: each gather is one message. The slab count is clamped
        // to the inner extent n2/p2 = 4.
        let dims = MatMulDims::new(8, 8, 8);
        let alg1 = plan_prediction(dims, &AlgPlan::Alg1 { grid: [2, 2, 2] }).cost;
        for (slabs, messages) in [(1, 3.0), (3, 7.0), (4, 9.0), (9, 9.0)] {
            let plan = AlgPlan::Alg1Streamed { grid: [2, 2, 2], slabs };
            let streamed = plan_prediction(dims, &plan).cost;
            assert_eq!(streamed.messages, messages, "slabs = {slabs}");
            assert_eq!((streamed.words, streamed.flops), (alg1.words, alg1.flops));
        }
    }

    #[test]
    fn twofived_with_one_layer_prices_cannons_shifts() {
        // q shifts of A and B blocks (skew + q−1 rotations), no
        // replication or reduction.
        let dims = MatMulDims::square(4096);
        let cost = plan_prediction(dims, &AlgPlan::TwoFiveD { q: 8, c: 1 }).cost;
        let block = 2.0 * (4096.0f64 * 4096.0) / 64.0;
        assert_eq!((cost.words, cost.messages), (8.0 * block, 2.0 * 8.0));
    }

    #[test]
    fn cannon_is_priced_as_twofived_with_one_layer() {
        let dims = MatMulDims::new(48, 36, 24);
        for q in 1..=3 {
            let cannon = plan_prediction(dims, &AlgPlan::Cannon { q });
            assert_eq!(cannon, plan_prediction(dims, &AlgPlan::TwoFiveD { q, c: 1 }), "q = {q}");
        }
    }

    #[test]
    fn twofived_words_improve_with_c_at_scale() {
        // At P = 4096: c = 4 (q = 32) moves fewer words than c = 1 (q = 64).
        let dims = MatMulDims::square(4096);
        let flat = plan_prediction(dims, &AlgPlan::TwoFiveD { q: 64, c: 1 }).cost.words;
        let repl = plan_prediction(dims, &AlgPlan::TwoFiveD { q: 32, c: 4 }).cost.words;
        assert!(repl < flat, "2.5D c=4 {repl} should beat c=1 {flat}");
    }

    #[test]
    fn every_plan_is_priced_at_giga_dims_without_overflow() {
        // At 10^9-cubed the goodput totals pass 2^64 words (2.5D's
        // rotations alone move (q − c)·2n²); summed in f64 they are
        // within rounding of their closed forms.
        let n = 1e9;
        let dims = MatMulDims::square(1_000_000_000);
        let close = |got: f64, want: f64| (got - want).abs() <= 1e-12 * want;
        let plans = [
            AlgPlan::Alg1 { grid: [8, 8, 16] },
            AlgPlan::Alg1Streamed { grid: [8, 8, 16], slabs: 4 },
            AlgPlan::Summa { pr: 32, pc: 32 },
            AlgPlan::Cannon { q: 32 },
            AlgPlan::TwoFiveD { q: 16, c: 4 },
            AlgPlan::Carma { p: 1024 },
        ];
        for plan in &plans {
            let pred = plan_prediction(dims, plan);
            let per_rank = [pred.cost.messages, pred.cost.words, pred.cost.flops];
            assert!(per_rank.iter().all(|x| x.is_finite() && *x > 0.0), "{plan}: {pred:?}");
            assert!(pred.words_total > pred.cost.words, "{plan}: {pred:?}");
        }
        let total = |plan: &AlgPlan| plan_prediction(dims, plan).words_total;
        // Each rank sends eq. (3): (1 − 1/16)·n²/64 + 2·(1 − 1/8)·n²/128.
        let eq3 = (15.0 / 16.0) * n * n / 64.0 + 2.0 * (7.0 / 8.0) * n * n / 128.0;
        assert!(close(total(&plans[0]), 1024.0 * eq3));
        assert_eq!(total(&plans[1]), total(&plans[0]));
        // Every panel broadcast is a scatter (80 of 32 chunks) and a ring
        // all-gather ((32 − 1)·w) of A's and of B's panels: 2·33.5·n².
        assert!(close(total(&plans[2]), 67.0 * n * n));
        // Skew 2·(1 − 1/32)·n², then 31 rotations of both inputs.
        assert!(close(total(&plans[3]), 2.0 * (31.0 / 32.0 + 31.0) * n * n));
        // Replicate 3·2n², skew 4 layers × 2·(15/16)·n², 12 rotations
        // of both inputs, reduce 3·n².
        assert!(close(total(&plans[4]), (6.0 + 7.5 + 24.0 + 3.0) * n * n));
        let carma = plan_prediction(dims, &plans[5]);
        assert_eq!(carma.words_total, 1024.0 * carma.cost.words);
    }

    #[test]
    #[should_panic(expected = "c | q")]
    fn plan_prediction_rejects_twofived_layers_with_c_not_dividing_q() {
        plan_prediction(MatMulDims::square(36), &AlgPlan::TwoFiveD { q: 9, c: 2 });
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
        assert_eq!(
            pred.total_upper_bound_words(),
            2.0 * restore_words_total(dims, 9)
                + words_total(dims, &plans[0])
                + words_total(dims, &plans[1])
        );
    }
}
