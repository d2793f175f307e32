//! Algorithm-agnostic checkpointed failure recovery.
//!
//! [`run_recoverable`] wraps any of the six executable algorithms in the
//! same fault-tolerance protocol:
//!
//! 1. **Checkpoint / redistribute.** Each attempt opens with a ring
//!    exchange over the attempt's communicator: member `i` sends the
//!    input blocks that member `i + 1` owns under the attempt's layout
//!    and receives its own. On the first attempt this prices the
//!    checkpoint capture (every owned block copied off-rank once); on
//!    retry attempts it prices redistribution from the surviving
//!    checkpoints onto the shrunken layout. Either way the goodput total
//!    across members is exactly `n1n2 + n2n3` words
//!    ([`restore_words_total`](pmm_model::restore_words_total)).
//! 2. **Run.** The algorithm executes on the attempt communicator via
//!    its `*_on_a` entry point, laid out by [`plan_for`] (the §5.2
//!    optimal grid for Algorithm 1 and its streamed variant, near-square
//!    factors for SUMMA, the largest square / `c·q²` / power-of-two
//!    sub-machine for Cannon, 2.5D and CARMA — extra survivors idle).
//! 3. **Rally.** A fault-aware barrier ([`Rank::hard_sync_a`]) makes
//!    every survivor observe the same post-attempt dead set. If a
//!    member of the attempt's communicator died, every survivor
//!    abandons the attempt — even those whose own collectives completed
//!    — rebuilds a communicator over the survivors
//!    ([`Rank::recovery_split_a`]), and retries with a fresh layout.
//!    The killed rank returns `Err` and falls silent.
//!
//! Rounds run in **lockstep**: every rank executes round 0 on the full
//! world communicator (even a rank first scheduled after a death — its
//! attempt aborts promptly against the corpse), rallies once per round,
//! and keys each recovery rendezvous by the round number. This keeps
//! barrier generations and split sequences globally aligned no matter
//! how the scheduler interleaves rank start-up with the first kill —
//! without it, a rank that skipped the doomed first attempt would wait
//! in a rendezvous the others reach only after a rally that in turn
//! waits on it.
//!
//! The returned [`Recovered`] carries the successful attempt's output
//! share plus separate goodput meters for the restore phase and the
//! algorithm run, which match `pmm_model::recovery_prediction` exactly
//! (summed across survivors) on fault-free and recovered runs alike.

use pmm_core::gridopt::best_grid;
use pmm_dense::{Kernel, Matrix};
use pmm_model::{AlgPlan, Grid3, MatMulDims};
use pmm_simnet::{poll_now, Comm, Meter, Rank, RankFailed};

use crate::cannon::{cannon_on_a, CannonConfig, CannonOutput};
use crate::common::{assemble_from_blocks, flatten_block, PhaseProbe};
use crate::grid3d::{
    alg1_on_a, assemble_c, owned_a_chunk, owned_b_chunk, Alg1Config, Alg1Output, Assembly,
};
use crate::recursive::{carma_a, carma_assemble_c, carma_shares};
use crate::streamed::alg1_streamed_on_a;
use crate::summa::{near_square_factors, summa_on_a, SummaConfig};
use crate::twofived::{twofived_on_a, TwoFiveDConfig};

/// Which algorithm a [`run_recoverable`] call wraps, with its
/// per-algorithm knobs. The layout (grid shape, torus side, …) is *not*
/// part of the spec: [`plan_for`] re-derives it for every attempt from
/// the survivor count.
#[derive(Debug, Clone)]
pub enum Recoverable {
    /// Algorithm 1 on the §5.2-optimal grid of the survivors.
    Alg1 {
        /// Local compute kernel.
        kernel: Kernel,
        /// Output assembly strategy.
        assembly: Assembly,
    },
    /// Streamed Algorithm 1 (same grid policy, `slabs` inner slabs).
    Alg1Streamed {
        /// Local compute kernel.
        kernel: Kernel,
        /// Number of inner-dimension slabs.
        slabs: usize,
    },
    /// SUMMA on the near-square factorization of the survivor count.
    Summa {
        /// Local compute kernel.
        kernel: Kernel,
    },
    /// Cannon on the largest `q × q` torus that fits the survivors.
    Cannon {
        /// Local compute kernel.
        kernel: Kernel,
    },
    /// 2.5D on the largest `c` layers of `q × q` (with `c | q`) that fit
    /// the survivors.
    TwoFiveD {
        /// Local compute kernel.
        kernel: Kernel,
    },
    /// CARMA on the largest power-of-two sub-machine of the survivors.
    Carma {
        /// Local compute kernel.
        kernel: Kernel,
    },
}

/// One rank's share of the recovered `C` — the per-algorithm output
/// shape, unified so [`assemble_recovered`] can rebuild the global
/// product from any algorithm's shares.
#[derive(Debug, Clone, PartialEq)]
pub enum CShare {
    /// Algorithm 1 (plain or streamed): the owned `C` chunk plus its
    /// per-phase meters (chunk index = this rank's position in the
    /// attempt communicator).
    Chunk(Box<Alg1Output>),
    /// SUMMA / Cannon / 2.5D: the owned `C` block, `None` on ranks that
    /// hold no output (idle survivors, non-layer-0 2.5D ranks).
    Block(Option<Matrix>),
    /// CARMA: the flat recursive share, `None` on idle survivors.
    Flat(Option<Vec<f64>>),
}

/// Result of a successful [`run_recoverable`] call on one survivor.
#[derive(Debug, Clone, PartialEq)]
pub struct Recovered {
    /// This rank's share of `C` under `plan` (positioned by this rank's
    /// index in the final attempt's communicator, i.e. its index in
    /// `survivors`).
    pub share: CShare,
    /// The successful attempt's layout.
    pub plan: AlgPlan,
    /// World ranks alive at the successful attempt, ascending.
    pub survivors: Vec<usize>,
    /// Layouts of every attempt, first to last (the last succeeded).
    /// Feed to [`pmm_model::recovery_prediction`] together with
    /// `attempt_survivors` for the analytic cost of the whole run.
    pub attempt_plans: Vec<AlgPlan>,
    /// Survivor count of every attempt, first to last.
    pub attempt_survivors: Vec<usize>,
    /// Goodput this rank spent in the final attempt's checkpoint /
    /// redistribution ring.
    pub restore_meter: Meter,
    /// Goodput this rank spent in the final attempt's algorithm run.
    pub run_meter: Meter,
}

impl Recovered {
    /// Number of attempts the run took (1 = no failure observed).
    pub fn attempts(&self) -> usize {
        self.attempt_plans.len()
    }
}

fn isqrt(p: usize) -> usize {
    let mut q = 1usize;
    while (q + 1) * (q + 1) <= p {
        q += 1;
    }
    q
}

/// The layout an algorithm runs with on `p` survivors — the single
/// policy both the execution ([`run_recoverable`]) and the prediction
/// (`pmm_model::recovery_prediction`) price.
pub fn plan_for(spec: &Recoverable, dims: MatMulDims, p: usize) -> AlgPlan {
    assert!(p >= 1, "need at least one survivor");
    match *spec {
        Recoverable::Alg1 { .. } => AlgPlan::Alg1 { grid: best_grid(dims, p).grid },
        Recoverable::Alg1Streamed { slabs, .. } => {
            AlgPlan::Alg1Streamed { grid: best_grid(dims, p).grid, slabs }
        }
        Recoverable::Summa { .. } => {
            let (pr, pc) = near_square_factors(p);
            AlgPlan::Summa { pr, pc }
        }
        Recoverable::Cannon { .. } => AlgPlan::Cannon { q: isqrt(p) },
        Recoverable::TwoFiveD { .. } => {
            // Largest active count c·q² with c | q; ties prefer more
            // replication (larger c — fewer shift steps).
            let mut best = (1usize, 1usize); // (q, c)
            for q in 1..=isqrt(p) {
                let mut c = 1;
                for d in 1..=q {
                    if q.is_multiple_of(d) && d * q * q <= p {
                        c = d;
                    }
                }
                let (bq, bc) = best;
                let (now, was) = (c * q * q, bc * bq * bq);
                if now > was || (now == was && c > bc) {
                    best = (q, c);
                }
            }
            AlgPlan::TwoFiveD { q: best.0, c: best.1 }
        }
        Recoverable::Carma { .. } => {
            let mut p2 = 1usize;
            while p2 * 2 <= p {
                p2 *= 2;
            }
            AlgPlan::Carma { p: p2 }
        }
    }
}

fn lcm(a: usize, b: usize) -> usize {
    fn gcd(mut a: usize, mut b: usize) -> usize {
        while b != 0 {
            (a, b) = (b, a % b);
        }
        a
    }
    a / gcd(a, b) * b
}

/// The input blocks member `idx` of the attempt communicator owns under
/// `plan` (A part then B part, flattened) — what its checkpoint holds.
/// Idle members (beyond the plan's active count) own nothing. Summing
/// lengths over all members covers each input element exactly once.
fn owned_inputs(plan: &AlgPlan, dims: MatMulDims, idx: usize, a: &Matrix, b: &Matrix) -> Vec<f64> {
    match *plan {
        AlgPlan::Alg1 { grid } | AlgPlan::Alg1Streamed { grid, .. } => {
            let grid = Grid3::from_dims(grid);
            let coord = grid.coord_of(idx);
            let mut v = owned_a_chunk(dims, grid, coord, a);
            v.extend(owned_b_chunk(dims, grid, coord, b));
            v
        }
        AlgPlan::Summa { pr, pc } => {
            // Block-cyclic panels: A panel t on process column t mod pc,
            // B panel t on process row t mod pr.
            let (i, j) = (idx / pc, idx % pc);
            let s = lcm(pr, pc);
            let mut v = Vec::new();
            for t in 0..s {
                if t % pc == j {
                    v.extend(flatten_block(a, pr, s, i, t));
                }
                if t % pr == i {
                    v.extend(flatten_block(b, s, pc, t, j));
                }
            }
            v
        }
        AlgPlan::Cannon { q } => {
            if idx >= q * q {
                return Vec::new();
            }
            let (i, j) = (idx / q, idx % q);
            let mut v = flatten_block(a, q, q, i, j);
            v.extend(flatten_block(b, q, q, i, j));
            v
        }
        AlgPlan::TwoFiveD { q, .. } => {
            // One copy of the inputs lives on layer 0 (indices < q²).
            if idx >= q * q {
                return Vec::new();
            }
            let (i, j) = (idx / q, idx % q);
            let mut v = flatten_block(a, q, q, i, j);
            v.extend(flatten_block(b, q, q, i, j));
            v
        }
        AlgPlan::Carma { p } => {
            if idx >= p {
                return Vec::new();
            }
            let (mut av, bv) = carma_shares(p, idx, a, b);
            av.extend(bv);
            av
        }
    }
}

/// One attempt: checkpoint/redistribution ring, then the algorithm run
/// on `base` under `plan`. Returns the share plus the two phase meters.
#[allow(clippy::too_many_arguments)]
async fn run_attempt_a(
    rank: &mut Rank,
    base: &Comm,
    spec: &Recoverable,
    plan: &AlgPlan,
    dims: MatMulDims,
    a: &Matrix,
    b: &Matrix,
    restore_label: &'static str,
) -> (CShare, Meter, Meter) {
    let p = base.size();
    let me = base.index();

    // ---- restore: ring-exchange the owned blocks ---------------------------
    let probe = PhaseProbe::begin(rank, restore_label);
    if p > 1 {
        let payload = owned_inputs(plan, dims, (me + 1) % p, a, b);
        let (to, from) = ((me + 1) % p, (me + p - 1) % p);
        // The received copy is this rank's own owned blocks back from
        // the checkpoint holder; the simulation re-extracts them from
        // the global inputs below, so only the traffic matters here.
        let _ = rank.exchange_a(base, to, from, &payload).await;
    }
    let restore_meter = probe.finish(rank).meter;

    // ---- run the algorithm on the attempt communicator ---------------------
    let before = rank.meter();
    let share = match (spec, plan) {
        (&Recoverable::Alg1 { kernel, assembly }, &AlgPlan::Alg1 { grid }) => {
            let cfg = Alg1Config { dims, grid: Grid3::from_dims(grid), kernel, assembly };
            CShare::Chunk(Box::new(alg1_on_a(rank, base, &cfg, a, b).await))
        }
        (&Recoverable::Alg1Streamed { kernel, .. }, &AlgPlan::Alg1Streamed { grid, slabs }) => {
            let grid = Grid3::from_dims(grid);
            CShare::Chunk(Box::new(
                alg1_streamed_on_a(rank, base, dims, grid, slabs, kernel, a, b).await,
            ))
        }
        (&Recoverable::Summa { kernel }, &AlgPlan::Summa { pr, pc }) => {
            let cfg = SummaConfig { dims, pr, pc, kernel };
            CShare::Block(Some(summa_on_a(rank, base, &cfg, a, b).await.c_block))
        }
        (&Recoverable::Cannon { kernel }, &AlgPlan::Cannon { q }) => {
            let cfg = CannonConfig { dims, q, kernel };
            let out: Option<CannonOutput> = cannon_on_a(rank, base, &cfg, a, b).await;
            CShare::Block(out.map(|o| o.c_block))
        }
        (&Recoverable::TwoFiveD { kernel }, &AlgPlan::TwoFiveD { q, c }) => {
            let cfg = TwoFiveDConfig { dims, q, c, kernel };
            CShare::Block(twofived_on_a(rank, base, &cfg, a, b).await.c_block)
        }
        (&Recoverable::Carma { kernel }, &AlgPlan::Carma { p: active }) => {
            // Active sub-machine: the first `active` members; the rest
            // opt out of the split (MPI_UNDEFINED) and idle.
            let color = if me < active { 0 } else { -1 };
            match rank.split_a(base, color, me as i64).await {
                Some(sub) => {
                    let (a_share, b_share) = carma_shares(active, me, a, b);
                    CShare::Flat(Some(carma_a(rank, &sub, dims, kernel, a_share, b_share).await))
                }
                None => CShare::Flat(None),
            }
        }
        _ => unreachable!("plan_for always returns the spec's plan variant"),
    };
    let run_meter = rank.meter().diff(&before);
    (share, restore_meter, run_meter)
}

/// Run `spec`'s algorithm with checkpointed rank-failure recovery (see
/// the [module docs](self) for the protocol). Returns `Err` on the
/// killed rank (which must stop communicating) and `Ok` on every
/// survivor once an attempt completes with no new deaths. Kills placed
/// after the final attempt completes are not handled here — they surface
/// wherever the program communicates next.
pub fn run_recoverable(
    rank: &mut Rank,
    spec: &Recoverable,
    dims: MatMulDims,
    a: &Matrix,
    b: &Matrix,
) -> Result<Recovered, RankFailed> {
    poll_now(run_recoverable_a(rank, spec, dims, a, b))
}

/// Async form of [`run_recoverable`] (event-loop programs).
pub async fn run_recoverable_a(
    rank: &mut Rank,
    spec: &Recoverable,
    dims: MatMulDims,
    a: &Matrix,
    b: &Matrix,
) -> Result<Recovered, RankFailed> {
    let mut attempt_plans: Vec<AlgPlan> = Vec::new();
    let mut attempt_survivors: Vec<usize> = Vec::new();
    let mut round: u64 = 0;
    loop {
        // Rounds run in lockstep across every rank: round 0 is always
        // the full world communicator — even for a rank that already
        // observes a death when it is first scheduled (its attempt
        // aborts quickly against the corpse, but its rally arrival and
        // split sequence stay aligned with the ranks that started
        // earlier). Round r > 0 rebuilds over the survivors via a
        // rendezvous keyed by the globally-agreed round number; its
        // result (not this rank's possibly-stale dead-set view) defines
        // the round's membership.
        let base = if round == 0 { rank.world_comm() } else { rank.recovery_split_a(round).await };
        let survivors: Vec<usize> = base.members().to_vec();
        let plan = plan_for(spec, dims, survivors.len());
        attempt_plans.push(plan.clone());
        attempt_survivors.push(survivors.len());
        let restore_label: &'static str = if round == 0 { "checkpoint" } else { "redistribute" };
        // Arm the attempt's fault watch at the round's basis (the death
        // count when this round's membership was fixed), not the current
        // epoch: a rank first scheduled after a kill would otherwise arm
        // past the death and wait forever inside a collective its live
        // peers were kicked out of and abandoned. A member that deposits
        // in the membership rendezvous cannot die while blocked there
        // (kills fire only at its own fault ticks), so `world − |members|`
        // is exactly the epoch at which the membership was agreed.
        let basis = (rank.world_size() - survivors.len()) as u64;
        let watch = rank.fault_watch_arm_at(basis);
        let attempt = pmm_simnet::catch_fault_panics(run_attempt_a(
            &mut *rank,
            &base,
            spec,
            &plan,
            dims,
            a,
            b,
            restore_label,
        ))
        .await;
        rank.fault_watch_restore(watch);
        let completed = match attempt {
            // This rank is the casualty: it must fall silent — the
            // survivors' barrier already counts it as arrived.
            Err(failed) if failed.rank == rank.world_rank() => return Err(failed),
            Err(_) => None,
            Ok(v) => Some(v),
        };
        // Rally every survivor (the barrier counts dead ranks as
        // arrived) so all observe the same post-attempt dead set and
        // make the same retry-or-return decision. The rally itself can
        // kill this rank (cascades fire on the next operation) or
        // observe a fresh peer death; both feed the same loop logic.
        let rally = pmm_simnet::catch_failures_async!(rank, rank.hard_sync_a());
        round += 1;
        if let Err(failed) = rally {
            if failed.rank == rank.world_rank() {
                return Err(failed);
            }
        }
        if let Some((share, restore_meter, run_meter)) = completed {
            // Retry iff a member of this round's communicator is now
            // dead. Every member death happens at or before the rally
            // (a kill during the rally sweeps the corpse into the
            // barrier before it releases), so all survivors read the
            // same verdict and make the same retry-or-return decision.
            let dead_now = rank.dead_ranks();
            if !survivors.iter().any(|r| dead_now.contains(r)) {
                return Ok(Recovered {
                    share,
                    plan,
                    survivors,
                    attempt_plans,
                    attempt_survivors,
                    restore_meter,
                    run_meter,
                });
            }
            // A rank died during the attempt: even ranks whose own
            // collectives happened to complete must discard the result
            // (their peers may hold no consistent counterpart) and
            // rerun on the shrunken layout.
        }
    }
}

/// Reassemble the global `C` from every survivor's [`CShare`]
/// (test/harness helper; runs outside the simulated machine). `shares`
/// is indexed by position in the final attempt's communicator — i.e. by
/// position in [`Recovered::survivors`].
pub fn assemble_recovered(dims: MatMulDims, plan: &AlgPlan, shares: &[CShare]) -> Matrix {
    let (n1, n3) = (dims.n1 as usize, dims.n3 as usize);
    match *plan {
        AlgPlan::Alg1 { grid } | AlgPlan::Alg1Streamed { grid, .. } => {
            let grid = Grid3::from_dims(grid);
            let chunks: Vec<Vec<f64>> = shares
                .iter()
                .map(|s| match s {
                    CShare::Chunk(out) => out.c_chunk.clone(),
                    other => panic!("expected an Algorithm 1 chunk, got {other:?}"),
                })
                .collect();
            assemble_c(dims, grid, &chunks)
        }
        AlgPlan::Summa { pr, pc } => {
            assemble_from_blocks(n1, n3, pr, pc, |i, j| block_share(&shares[i * pc + j], i, j))
        }
        AlgPlan::Cannon { q } | AlgPlan::TwoFiveD { q, .. } => {
            assemble_from_blocks(n1, n3, q, q, |i, j| block_share(&shares[i * q + j], i, j))
        }
        AlgPlan::Carma { p } => {
            let flats: Vec<Vec<f64>> = shares[..p]
                .iter()
                .map(|s| match s {
                    CShare::Flat(Some(v)) => v.clone(),
                    other => panic!("expected a CARMA share, got {other:?}"),
                })
                .collect();
            carma_assemble_c(dims, p, &flats)
        }
    }
}

fn block_share(share: &CShare, i: usize, j: usize) -> Matrix {
    match share {
        CShare::Block(Some(m)) => m.clone(),
        other => panic!("expected the C block of position ({i}, {j}), got {other:?}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmm_dense::{gemm, random_int_matrix};
    use pmm_simnet::{FaultPlan, MachineParams, World};

    fn inputs(dims: MatMulDims) -> (Matrix, Matrix) {
        (
            random_int_matrix(dims.n1 as usize, dims.n2 as usize, -3..4, 91),
            random_int_matrix(dims.n2 as usize, dims.n3 as usize, -3..4, 92),
        )
    }

    fn all_specs() -> Vec<Recoverable> {
        vec![
            Recoverable::Alg1 { kernel: Kernel::Naive, assembly: Assembly::ReduceScatter },
            Recoverable::Alg1Streamed { kernel: Kernel::Naive, slabs: 2 },
            Recoverable::Summa { kernel: Kernel::Naive },
            Recoverable::Cannon { kernel: Kernel::Naive },
            Recoverable::TwoFiveD { kernel: Kernel::Naive },
            Recoverable::Carma { kernel: Kernel::Naive },
        ]
    }

    #[test]
    fn plan_for_fills_the_survivor_count_sensibly() {
        let dims = MatMulDims::new(16, 16, 16);
        for spec in all_specs() {
            for p in 1..=12usize {
                let plan = plan_for(&spec, dims, p);
                assert!(plan.active() <= p, "{plan} overfills p={p}");
                assert!(plan.active() >= 1);
            }
        }
        // Spot checks of the layout policies.
        assert_eq!(plan_for(&all_specs()[3], dims, 10), AlgPlan::Cannon { q: 3 });
        assert_eq!(plan_for(&all_specs()[4], dims, 8), AlgPlan::TwoFiveD { q: 2, c: 2 });
        assert_eq!(plan_for(&all_specs()[4], dims, 9), AlgPlan::TwoFiveD { q: 3, c: 1 });
        assert_eq!(plan_for(&all_specs()[5], dims, 13), AlgPlan::Carma { p: 8 });
        assert_eq!(plan_for(&all_specs()[2], dims, 6), AlgPlan::Summa { pr: 2, pc: 3 });
    }

    #[test]
    fn owned_inputs_partition_the_inputs_exactly() {
        let dims = MatMulDims::new(12, 8, 10);
        let (a, b) = inputs(dims);
        let total = (dims.n1 * dims.n2 + dims.n2 * dims.n3) as usize;
        for spec in all_specs() {
            for p in [1usize, 4, 6, 9] {
                let plan = plan_for(&spec, dims, p);
                let words: usize = (0..p).map(|i| owned_inputs(&plan, dims, i, &a, &b).len()).sum();
                assert_eq!(words, total, "{plan} on p={p}");
            }
        }
    }

    #[test]
    fn fault_free_recovery_is_bitwise_correct_for_all_six() {
        let dims = MatMulDims::new(12, 8, 16);
        let (a, b) = inputs(dims);
        let want = gemm(&a, &b, Kernel::Naive);
        for spec in all_specs() {
            for p in [4usize, 6] {
                if matches!(spec, Recoverable::Carma { .. }) && p == 6 {
                    continue; // CARMA splits need even dims at each level
                }
                let out = World::new(p, MachineParams::BANDWIDTH_ONLY)
                    .run(|rank| run_recoverable(rank, &spec, dims, &a, &b).expect("no faults"));
                let plan = out.values[0].plan.clone();
                let shares: Vec<CShare> = out.values.iter().map(|v| v.share.clone()).collect();
                let got = assemble_recovered(dims, &plan, &shares);
                assert_eq!(got, want, "{plan} on p={p}");
                for v in &out.values {
                    assert_eq!(v.attempts(), 1);
                    assert_eq!(v.survivors, (0..p).collect::<Vec<_>>());
                }
            }
        }
    }

    #[test]
    fn kill_recovers_on_all_six() {
        let dims = MatMulDims::new(12, 8, 16);
        let (a, b) = inputs(dims);
        let want = gemm(&a, &b, Kernel::Naive);
        for spec in all_specs() {
            let p = 5usize; // 4 survivors: power of two, square, 2×2
            let out = World::new(p, MachineParams::BANDWIDTH_ONLY)
                .with_faults(FaultPlan::default().with_kill(2, 3))
                .run(|rank| run_recoverable(rank, &spec, dims, &a, &b));
            let ok: Vec<&Recovered> = out.values.iter().filter_map(|r| r.as_ref().ok()).collect();
            assert_eq!(ok.len(), 4, "{spec:?}: survivors return Ok");
            let plan = ok[0].plan.clone();
            assert_eq!(ok[0].survivors, vec![0, 1, 3, 4]);
            assert!(ok[0].attempts() >= 2, "{spec:?}: retried after the kill");
            let shares: Vec<CShare> = ok.iter().map(|v| v.share.clone()).collect();
            assert_eq!(assemble_recovered(dims, &plan, &shares), want, "{plan}");
        }
    }

    #[test]
    fn restore_goodput_matches_the_model_exactly() {
        use pmm_model::restore_words_total;
        let dims = MatMulDims::new(12, 8, 16);
        let (a, b) = inputs(dims);
        for spec in all_specs() {
            let p = 4usize;
            let out = World::new(p, MachineParams::BANDWIDTH_ONLY)
                .run(|rank| run_recoverable(rank, &spec, dims, &a, &b).expect("no faults"));
            let restore: u64 = out.values.iter().map(|v| v.restore_meter.words_sent).sum();
            assert_eq!(restore as f64, restore_words_total(dims, p), "{spec:?}");
        }
    }
}
