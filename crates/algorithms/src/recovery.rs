//! One way to run an algorithm, and algorithm-agnostic checkpointed
//! failure recovery on top of it.
//!
//! [`run_plan_a`] is the one executor: it runs any [`AlgPlan`] — the six
//! algorithms, each with its layout — on any communicator large enough
//! for it, and every member returns a [`CShare`] that
//! [`assemble_recovered`] turns back into `C`. Harnesses, the CLI, the
//! experiments and the tests all run algorithms through it.
//!
//! [`run_recoverable_a`] wraps any plan's algorithm in the same
//! fault-tolerance protocol:
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
//! 2. **Run.** [`run_plan_a`] executes the attempt's layout on the
//!    attempt communicator. [`plan_for`] lays it out: the §5.2 optimal
//!    grid for Algorithm 1 and its streamed variant, near-square factors
//!    for SUMMA, the largest square / `c·q²` / power-of-two sub-machine
//!    for Cannon, 2.5D and CARMA — extra survivors idle.
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
use pmm_model::{summa_panels, AlgPlan, Grid3, MatMulDims};
use pmm_simnet::{Comm, Meter, Rank, RankFailed};

use crate::common::{assemble_from_blocks, flatten_block, PhaseProbe};
use crate::grid3d::{
    alg1_on_a, assemble_c, owned_a_chunk, owned_b_chunk, Alg1Config, Alg1Output, Assembly,
};
use crate::recursive::{carma_a, carma_assemble_c, carma_shares};
use crate::summa::{near_square_factors, summa_on_a, SummaConfig};
use crate::twofived::{twofived_on_a, TwoFiveDConfig};

/// One rank's share of `C` from [`run_plan_a`] — the per-algorithm
/// output shape, unified so [`assemble_recovered`] can rebuild the global
/// product from any algorithm's shares.
#[derive(Debug, Clone, PartialEq)]
pub enum CShare {
    /// Algorithm 1 (plain or streamed): the owned `C` chunk plus its
    /// per-phase meters (chunk index = this rank's position in the
    /// communicator the plan ran on).
    Chunk(Box<Alg1Output>),
    /// SUMMA / Cannon / 2.5D: the owned `C` block, `None` on ranks that
    /// hold no output (idle members, non-layer-0 2.5D ranks).
    Block(Option<Matrix>),
    /// CARMA: the flat recursive share, `None` on idle members.
    Flat(Option<Vec<f64>>),
}

impl CShare {
    /// The Algorithm 1 output (chunk and per-phase meters) of one rank of
    /// an [`AlgPlan::Alg1`] / [`AlgPlan::Alg1Streamed`] run; panics on
    /// another algorithm's share.
    pub fn alg1(&self) -> &Alg1Output {
        match self {
            CShare::Chunk(out) => out,
            other => panic!("expected an Algorithm 1 chunk, got {other:?}"),
        }
    }
}

/// Result of a successful [`run_recoverable_a`] call on one survivor.
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

/// The layout `plan`'s algorithm runs with on `p` survivors — the single
/// policy both the execution ([`run_recoverable_a`]) and the prediction
/// (`pmm_model::recovery_prediction`) price. Only `plan`'s variant (and
/// the streamed variant's slab count) is read; its layout is re-derived.
pub fn plan_for(plan: &AlgPlan, dims: MatMulDims, p: usize) -> AlgPlan {
    assert!(p >= 1, "need at least one survivor");
    match *plan {
        AlgPlan::Alg1 { .. } => AlgPlan::Alg1 { grid: best_grid(dims, p).grid },
        AlgPlan::Alg1Streamed { slabs, .. } => {
            AlgPlan::Alg1Streamed { grid: best_grid(dims, p).grid, slabs }
        }
        AlgPlan::Summa { .. } => {
            let (pr, pc) = near_square_factors(p);
            AlgPlan::Summa { pr, pc }
        }
        AlgPlan::Cannon { .. } => AlgPlan::Cannon { q: p.isqrt() },
        AlgPlan::TwoFiveD { .. } => {
            // Largest active count c·q² with c | q; ties prefer more
            // replication (larger c — fewer shift steps).
            let mut best = (1usize, 1usize); // (q, c)
            for q in 1..=p.isqrt() {
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
        AlgPlan::Carma { .. } => AlgPlan::Carma { p: 1 << p.ilog2() },
    }
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
            let s = summa_panels(pr, pc);
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
        AlgPlan::Cannon { q } | AlgPlan::TwoFiveD { q, .. } => {
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
    plan: &AlgPlan,
    dims: MatMulDims,
    kernel: Kernel,
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
    let share = run_plan_a(rank, base, plan, dims, kernel, a, b).await;
    let run_meter = rank.meter().diff(&before);
    (share, restore_meter, run_meter)
}

/// Run `plan` on `comm`, multiplying local blocks with `kernel`: the one
/// place that selects among the six algorithms. `a` and `b` are the
/// global inputs, read only for this rank's share. Each member's position
/// in the layout is its index in `comm`; members past
/// [`AlgPlan::active`] idle (Cannon, 2.5D and CARMA accept them; the
/// other three need exactly `active` members) and hold no share of `C`.
/// Algorithm 1 assembles `C` with [`Assembly::ReduceScatter`].
///
/// CARMA first splits its active sub-machine, the first `p` members,
/// off `comm` (the idle rest opt out), even when no member idles: one
/// unmetered split more than [`carma_a`] on `comm` itself.
pub async fn run_plan_a(
    rank: &mut Rank,
    comm: &Comm,
    plan: &AlgPlan,
    dims: MatMulDims,
    kernel: Kernel,
    a: &Matrix,
    b: &Matrix,
) -> CShare {
    assert!(
        plan.active() <= comm.size(),
        "{plan} needs {} ranks, the communicator has {}",
        plan.active(),
        comm.size()
    );
    match *plan {
        AlgPlan::Alg1 { grid } | AlgPlan::Alg1Streamed { grid, .. } => {
            // Algorithm 1 is streamed Algorithm 1 with one slab.
            let slabs = if let AlgPlan::Alg1Streamed { slabs, .. } = *plan { slabs } else { 1 };
            let grid = Grid3::from_dims(grid);
            let cfg = Alg1Config { dims, grid, kernel, assembly: Assembly::ReduceScatter };
            CShare::Chunk(Box::new(alg1_on_a(rank, comm, &cfg, slabs, a, b).await))
        }
        AlgPlan::Summa { pr, pc } => {
            let cfg = SummaConfig { dims, pr, pc, kernel };
            CShare::Block(Some(summa_on_a(rank, comm, &cfg, a, b).await.c_block))
        }
        AlgPlan::Cannon { q } | AlgPlan::TwoFiveD { q, .. } => {
            // Cannon is 2.5D with one layer.
            let c = if let AlgPlan::TwoFiveD { c, .. } = *plan { c } else { 1 };
            let cfg = TwoFiveDConfig { dims, q, c, kernel };
            CShare::Block(twofived_on_a(rank, comm, &cfg, a, b).await.c_block)
        }
        AlgPlan::Carma { p } => {
            let me = comm.index();
            let color = if me < p { 0 } else { -1 };
            match rank.split_a(comm, color, me as i64).await {
                Some(sub) => {
                    let (a_share, b_share) = carma_shares(p, me, a, b);
                    CShare::Flat(Some(carma_a(rank, &sub, dims, kernel, a_share, b_share).await))
                }
                None => CShare::Flat(None),
            }
        }
    }
}

/// Run `plan`'s algorithm with checkpointed rank-failure recovery (see
/// the [module docs](self) for the protocol), multiplying local blocks
/// with `kernel`. Only `plan`'s variant (and the streamed variant's slab
/// count) is read: [`plan_for`] lays out every attempt. Returns `Err` on
/// the killed rank (which must stop communicating) and `Ok` on every
/// survivor once an attempt completes with no new deaths. Kills placed
/// after the final attempt completes are not handled here — they surface
/// wherever the program communicates next.
pub async fn run_recoverable_a(
    rank: &mut Rank,
    plan: &AlgPlan,
    dims: MatMulDims,
    kernel: Kernel,
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
        let layout = plan_for(plan, dims, survivors.len());
        attempt_plans.push(layout.clone());
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
            &layout,
            dims,
            kernel,
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
                    plan: layout,
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

    use crate::Inputs;
    use pmm_simnet::{FaultPlan, MachineParams, World};

    /// One plan per algorithm, in one-rank layouts (recovery re-lays
    /// each out per attempt).
    fn all_plans() -> Vec<AlgPlan> {
        vec![
            AlgPlan::Alg1 { grid: [1, 1, 1] },
            AlgPlan::Alg1Streamed { grid: [1, 1, 1], slabs: 2 },
            AlgPlan::Summa { pr: 1, pc: 1 },
            AlgPlan::Cannon { q: 1 },
            AlgPlan::TwoFiveD { q: 1, c: 1 },
            AlgPlan::Carma { p: 1 },
        ]
    }

    #[test]
    fn plan_for_fills_the_survivor_count_sensibly() {
        let dims = MatMulDims::new(16, 16, 16);
        for alg in all_plans() {
            for p in 1..=12usize {
                let plan = plan_for(&alg, dims, p);
                assert!(plan.active() <= p, "{plan} overfills p={p}");
                assert!(plan.active() >= 1);
            }
        }
        // Spot checks of the layout policies.
        assert_eq!(plan_for(&all_plans()[3], dims, 10), AlgPlan::Cannon { q: 3 });
        assert_eq!(plan_for(&all_plans()[4], dims, 8), AlgPlan::TwoFiveD { q: 2, c: 2 });
        assert_eq!(plan_for(&all_plans()[4], dims, 9), AlgPlan::TwoFiveD { q: 3, c: 1 });
        assert_eq!(plan_for(&all_plans()[5], dims, 13), AlgPlan::Carma { p: 8 });
        assert_eq!(plan_for(&all_plans()[2], dims, 6), AlgPlan::Summa { pr: 2, pc: 3 });
    }

    #[test]
    fn owned_inputs_partition_the_inputs_exactly() {
        let dims = MatMulDims::new(12, 8, 10);
        let inputs = Inputs::random_int(dims, 91);
        let total = (dims.n1 * dims.n2 + dims.n2 * dims.n3) as usize;
        for alg in all_plans() {
            for p in [1usize, 4, 6, 9] {
                let plan = plan_for(&alg, dims, p);
                let words: usize =
                    (0..p).map(|i| owned_inputs(&plan, dims, i, &inputs.a, &inputs.b).len()).sum();
                assert_eq!(words, total, "{plan} on p={p}");
            }
        }
    }

    #[test]
    fn fault_free_recovery_is_bitwise_correct_for_all_six() {
        let inputs = Inputs::random_int(MatMulDims::new(12, 8, 16), 91);
        for alg in all_plans() {
            for p in [4usize, 6] {
                if matches!(alg, AlgPlan::Carma { .. }) && p == 6 {
                    continue; // CARMA splits need even dims at each level
                }
                let world = World::new(p, MachineParams::BANDWIDTH_ONLY);
                let out = inputs.recover(&world, &alg, Kernel::Naive);
                let ok =
                    inputs.check_recovered(&out).unwrap_or_else(|e| panic!("{alg} p={p}: {e}"));
                assert!(out.values.iter().all(Result::is_ok), "no faults");
                assert_eq!(ok.attempts(), 1);
                assert_eq!(ok.survivors, (0..p).collect::<Vec<_>>());
            }
        }
    }

    #[test]
    fn kill_recovers_on_all_six() {
        let inputs = Inputs::random_int(MatMulDims::new(12, 8, 16), 91);
        // The canonical schedule and a fixed handful of seeded ones: the
        // kill lands at a different point of the survivors' progress in
        // each. Seeds 2 and 4 are schedules on which Cannon's row split
        // is completed by the death, which must raise the failure, not
        // hand back a communicator short of the layout.
        let base = World::new(5, MachineParams::BANDWIDTH_ONLY)
            .with_faults(FaultPlan::default().with_kill(2, 3));
        let seeded = [1, 2, 3, 4].map(|s| base.clone().with_seed(s));
        let worlds = [base.clone()].into_iter().chain(seeded);
        for world in worlds {
            for alg in all_plans() {
                // 4 survivors: power of two, square, 2×2.
                let out = inputs.recover(&world, &alg, Kernel::Naive);
                let label = format!("{} [{}]", alg.algorithm(), world.repro().note());
                let ok = inputs.check_recovered(&out).unwrap_or_else(|e| panic!("{label}: {e}"));
                assert_eq!(out.values.iter().filter(|r| r.is_ok()).count(), 4, "{label}");
                assert_eq!(ok.survivors, vec![0, 1, 3, 4], "{label}");
                assert!(ok.attempts() >= 2, "{label}: retried after the kill");
            }
        }
    }
}
