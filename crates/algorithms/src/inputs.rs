//! The one harness that executes a plan: a problem's shared inputs, an
//! [`AlgPlan`], and the one executor ([`run_plan_a`]) give an executed
//! [`WorldResult`] whose product is held to the oracle.
//!
//! The global inputs are generated once per problem ([`Inputs`]) and
//! shared by every rank of every world run on them — a copy per rank is
//! O(P·n²) host work and memory. [`Inputs::run`] hosts the ranks on
//! [`World::run_async`], so `P` is bounded by memory, not by OS threads,
//! and the product is checked against the pinned oracle `Kernel::Naive`,
//! never against the kernel under test. Closed forms (eq. (3), Theorem 3)
//! are what callers assert these runs *against*, never a substitute.

use std::sync::{Arc, OnceLock};

use pmm_dense::{gemm, random_int_matrix, Kernel, Matrix};
use pmm_model::{AlgPlan, MachineParams, MatMulDims};
use pmm_simnet::{World, WorldResult};

use crate::recovery::{assemble_recovered, run_plan_a, CShare};

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
/// assert!(inputs.product_is_correct(&plan, &out));
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

    /// Whether the shares of a finished run assemble to [`Inputs::want`].
    pub fn product_is_correct(&self, plan: &AlgPlan, out: &WorldResult<CShare>) -> bool {
        assemble_recovered(self.dims, plan, &out.values) == *self.want()
    }

    /// A measured row: `plan` executed on a bandwidth-only world of its
    /// own size (simulated clock = words; event traces kept if `traced`)
    /// with the default kernel, the product asserted — a row of a run
    /// that multiplied the matrices.
    pub fn measure(&self, plan: &AlgPlan, traced: bool) -> WorldResult<CShare> {
        let world = World::new(plan.active(), MachineParams::BANDWIDTH_ONLY).with_trace(traced);
        let out = self.run(&world, plan, Kernel::default());
        assert!(self.product_is_correct(plan, &out), "{plan:?} on {}: wrong product", self.dims);
        out
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
        // The oracle bites: one wrong word of one chunk fails the product.
        let plan = AlgPlan::Alg1 { grid: [2, 2, 2] };
        let mut out = inputs.measure(&plan, false);
        if let CShare::Chunk(chunk) = &mut out.values[0] {
            chunk.c_chunk[0] += 1.0;
        }
        assert!(!inputs.product_is_correct(&plan, &out));
        // One copy of each input, however many worlds ran on it.
        assert_eq!(Arc::strong_count(&inputs.a), 1);
    }
}
