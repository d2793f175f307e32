//! The one harness that executes a plan, and the one certificate every
//! executed run is held to: a problem's shared inputs, an [`AlgPlan`],
//! and the one executor ([`run_plan_a`], or [`run_recoverable_a`] under
//! faults) give an executed [`WorldResult`] that [`Inputs::check`] /
//! [`Inputs::check_recovered`] hold to the oracle's product, the plan's
//! priced goodput and, for Algorithm 1, every rank's integer eq. (3)
//! price.
//!
//! The global inputs are generated once per problem ([`Inputs`]) and
//! shared by every rank of every world run on them — a copy per rank is
//! O(P·n²) host work and memory. [`Inputs::run`] and [`Inputs::recover`]
//! host the ranks on [`World::run_async`], so `P` is bounded by memory,
//! not by OS threads, and the product is checked against the pinned
//! oracle `Kernel::Naive`, never against the kernel under test. Closed
//! forms (eq. (3), Theorem 3) are what callers assert these runs
//! *against*, never a substitute.

use std::sync::{Arc, OnceLock};

use pmm_dense::{gemm, random_int_matrix, Kernel, Matrix};
use pmm_model::{plan_prediction, recovery_prediction, AlgPlan, MachineParams, MatMulDims};
use pmm_simnet::{RankFailed, World, WorldResult};

use crate::grid3d::check_alg1_price;
use crate::recovery::{assemble_recovered, run_plan_a, run_recoverable_a, CShare, Recovered};

/// The global `A` and `B` of one problem, held once on the host, and (on
/// first use) the product every run on them must assemble to.
///
/// ```
/// use pmm_algs::Inputs;
/// use pmm_dense::Kernel;
/// use pmm_model::{AlgPlan, MachineParams, MatMulDims};
/// use pmm_simnet::World;
///
/// let inputs = Inputs::random_int(MatMulDims::new(8, 8, 8), 1);
/// let plan = AlgPlan::Alg1 { grid: [2, 2, 2] };
/// let out = inputs.run(&World::new(8, MachineParams::BANDWIDTH_ONLY), &plan, Kernel::Naive);
/// assert_eq!(inputs.check(&plan, &out), Ok(()));
/// ```
pub struct Inputs {
    /// Problem dimensions.
    pub dims: MatMulDims,
    /// Global `A` (`n1 × n2`).
    pub a: Arc<Matrix>,
    /// Global `B` (`n2 × n3`).
    pub b: Arc<Matrix>,
    want: OnceLock<Matrix>,
}

impl Inputs {
    /// Share the given matrices.
    pub fn new(dims: MatMulDims, a: Matrix, b: Matrix) -> Inputs {
        Inputs { dims, a: Arc::new(a), b: Arc::new(b), want: OnceLock::new() }
    }

    /// Small-integer inputs (`A` from `seed`, `B` from `seed + 1`), so
    /// every kernel and every summation order gives the same bits.
    pub fn random_int(dims: MatMulDims, seed: u64) -> Inputs {
        let (n1, n2, n3) = (dims.n1 as usize, dims.n2 as usize, dims.n3 as usize);
        Inputs::new(
            dims,
            random_int_matrix(n1, n2, -3..4, seed),
            random_int_matrix(n2, n3, -3..4, seed + 1),
        )
    }

    /// `A·B` by the pinned oracle `Kernel::Naive`, computed once.
    pub fn want(&self) -> &Matrix {
        self.want.get_or_init(|| gemm(&self.a, &self.b, Kernel::Naive))
    }

    /// Execute `plan` on `world` through [`run_plan_a`] on the world
    /// communicator (ranks past the plan's active count idle): every rank
    /// a continuation on the event loop, all of them reading the one
    /// shared copy of the inputs. `world` carries the caller's choices
    /// (seed, tracing, faults); `kernel` multiplies the local blocks.
    pub fn run(&self, world: &World, plan: &AlgPlan, kernel: Kernel) -> WorldResult<CShare> {
        let dims = self.dims;
        world.run_async(|rank| {
            let (a, b, plan) = (Arc::clone(&self.a), Arc::clone(&self.b), plan.clone());
            Box::pin(async move {
                let comm = rank.world_comm();
                run_plan_a(rank, &comm, &plan, dims, kernel, &a, &b).await
            })
        })
    }

    /// Execute `plan`'s algorithm on `world` with checkpointed recovery
    /// ([`run_recoverable_a`]): only the plan's variant (and streamed
    /// slab count) is read, every attempt is laid out on its survivors.
    /// `world` carries the caller's choices (seed, faults).
    pub fn recover(
        &self,
        world: &World,
        plan: &AlgPlan,
        kernel: Kernel,
    ) -> WorldResult<Result<Recovered, RankFailed>> {
        let dims = self.dims;
        world.run_async(|rank| {
            let (a, b, plan) = (Arc::clone(&self.a), Arc::clone(&self.b), plan.clone());
            Box::pin(async move { run_recoverable_a(rank, &plan, dims, kernel, &a, &b).await })
        })
    }

    /// The certificate of a finished [`Inputs::run`] of `plan`: the
    /// shares assemble to [`Inputs::want`]; the words sent over all ranks
    /// equal the plan's priced goodput ([`plan_prediction`]`.words_total`);
    /// and on an Algorithm 1 plan every rank meters its per-phase price
    /// ([`check_alg1_price`]). The `Err` names the first check that
    /// failed.
    pub fn check(&self, plan: &AlgPlan, out: &WorldResult<CShare>) -> Result<(), String> {
        self.certify(plan, &out.values, words_sent(out))
    }

    /// The certificate of a finished [`Inputs::recover`] run: the
    /// survivors agree on the survivor set and the final layout; on that
    /// layout their shares, their final attempt's run goodput and (on
    /// Algorithm 1) their per-phase meters pass [`Inputs::check`]'s
    /// checks; their checkpoint / redistribution goodput equals
    /// [`recovery_prediction`]'s; and the whole run's goodput stays under
    /// its upper bound. Returns a survivor's [`Recovered`]; the `Err`
    /// names the first check that failed.
    pub fn check_recovered<'a>(
        &self,
        out: &'a WorldResult<Result<Recovered, RankFailed>>,
    ) -> Result<&'a Recovered, String> {
        let alive: Vec<&Recovered> = out.values.iter().filter_map(|v| v.as_ref().ok()).collect();
        let ok = *alive.first().ok_or("survivors: no rank survived the fault plan")?;
        let mut shares = Vec::with_capacity(ok.survivors.len());
        for &w in &ok.survivors {
            let v = out.values[w].as_ref().map_err(|e| format!("survivors: survivor {w}: {e}"))?;
            if (&v.survivors, &v.plan) != (&ok.survivors, &ok.plan) {
                return Err(format!(
                    "survivors: rank {w} finished on {:?} as {}, another survivor on {:?} as {}",
                    v.survivors, v.plan, ok.survivors, ok.plan
                ));
            }
            shares.push(v.share.clone());
        }
        self.certify(&ok.plan, &shares, alive.iter().map(|v| v.run_meter.words_sent).sum())?;
        let pred = recovery_prediction(self.dims, &ok.attempt_plans, &ok.attempt_survivors);
        let restore = alive.iter().map(|v| v.restore_meter.words_sent).sum();
        held_to("restore", restore, pred.last().restore_words_total)?;
        let (whole, bound) = (words_sent(out), pred.total_upper_bound_words());
        if whole as f64 > bound {
            return Err(format!("upper bound: the whole run sent {whole} words, bound {bound}"));
        }
        Ok(ok)
    }

    /// The checks every run answers to, healthy or recovered: `shares`
    /// (in the order of the communicator `plan` ran on) assemble to
    /// [`Inputs::want`], `sent` words of goodput are `plan`'s priced
    /// total, and each Algorithm 1 share meters its rank's price.
    fn certify(&self, plan: &AlgPlan, shares: &[CShare], sent: u64) -> Result<(), String> {
        let dims = self.dims;
        if assemble_recovered(dims, plan, shares) != *self.want() {
            return Err(format!("product: {plan} on {dims} does not assemble to the oracle's"));
        }
        held_to("goodput", sent, plan_prediction(dims, plan).words_total)?;
        if let AlgPlan::Alg1 { .. } | AlgPlan::Alg1Streamed { .. } = plan {
            check_alg1_price(dims, plan, shares.iter().map(CShare::alg1), None)
                .map_err(|mismatch| format!("price: {plan} on {dims}: {mismatch}"))?;
        }
        Ok(())
    }

    /// A measured row: `plan` executed on a bandwidth-only world of its
    /// own size (simulated clock = words; event traces kept if `traced`)
    /// with the default kernel, held to [`Inputs::check`] — a row of a
    /// run that multiplied the matrices and moved the words it prices.
    pub fn measure(&self, plan: &AlgPlan, traced: bool) -> WorldResult<CShare> {
        let world = World::new(plan.active(), MachineParams::BANDWIDTH_ONLY).with_trace(traced);
        let out = self.run(&world, plan, Kernel::default());
        if let Err(failed) = self.check(plan, &out) {
            panic!("{plan} on {}: {failed}", self.dims);
        }
        out
    }
}

/// Goodput words sent over all ranks of `out`.
fn words_sent<T>(out: &WorldResult<T>) -> u64 {
    out.reports.iter().map(|r| r.meter.words_sent).sum()
}

/// `Err` naming `check` unless `metered` words are exactly the `priced`
/// total.
fn held_to(check: &str, metered: u64, priced: f64) -> Result<(), String> {
    if metered as f64 == priced {
        Ok(())
    } else {
        Err(format!("{check}: {metered} words metered, {priced} priced"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_plan_variant_runs_on_shared_inputs_and_is_held_to_the_oracle() {
        let dims = MatMulDims::new(16, 16, 16);
        let inputs = Inputs::random_int(dims, 5);
        for plan in [
            AlgPlan::Alg1 { grid: [2, 2, 2] },
            AlgPlan::Alg1Streamed { grid: [2, 2, 2], slabs: 2 },
            AlgPlan::Summa { pr: 2, pc: 3 },
            AlgPlan::Cannon { q: 2 },
            AlgPlan::TwoFiveD { q: 2, c: 2 },
            AlgPlan::Carma { p: 8 },
        ] {
            assert_eq!(inputs.measure(&plan, false).values.len(), plan.active(), "{plan:?}");
        }
        // The certificate bites: one wrong word of one chunk fails the
        // product, one word more on one rank the goodput.
        let plan = AlgPlan::Alg1 { grid: [2, 2, 2] };
        let mut out = inputs.measure(&plan, false);
        out.reports[3].meter.words_sent += 1;
        assert!(inputs.check(&plan, &out).is_err_and(|e| e.starts_with("goodput:")));
        if let CShare::Chunk(chunk) = &mut out.values[0] {
            chunk.c_chunk[0] += 1.0;
        }
        assert!(inputs.check(&plan, &out).is_err_and(|e| e.starts_with("product:")));
        // One copy of each input, however many worlds ran on it.
        assert_eq!(Arc::strong_count(&inputs.a), 1);
    }
}
