//! Cross-algorithm agreement: Algorithm 1 (both assemblies), Cannon,
//! SUMMA and 2.5D all compute the same product as the serial reference,
//! on the same distributed machine substrate.

use pmm::prelude::*;
use std::sync::Arc;

/// Run `plan` with `kernel` on a bandwidth-only world of the plan's size
/// and hold it to [`Inputs::check`]: the oracle's product, the plan's
/// goodput and, for Algorithm 1, every rank's price.
fn run_plan(inputs: &Inputs, plan: &AlgPlan, kernel: Kernel) -> WorldResult<CShare> {
    let out = inputs.run(&World::new(plan.active(), MachineParams::BANDWIDTH_ONLY), plan, kernel);
    assert_eq!(inputs.check(plan, &out), Ok(()), "{plan} with {kernel:?}");
    out
}

#[test]
fn all_algorithms_produce_the_same_product() {
    let dims = MatMulDims::new(24, 12, 18);
    let inputs = Inputs::seeded(dims, [101, 202]);

    // Algorithm 1 with reduce-scatter assembly (P = 12), Cannon (P = 9),
    // SUMMA (P = 6, 2×3) and 2.5D (q = 2, c = 2 → P = 8).
    for plan in [
        AlgPlan::Alg1 { grid: [2, 3, 2] },
        AlgPlan::Cannon { q: 3 },
        AlgPlan::Summa { pr: 2, pc: 3 },
        AlgPlan::TwoFiveD { q: 2, c: 2 },
    ] {
        run_plan(&inputs, &plan, Kernel::Naive);
    }

    // Algorithm 1, all-to-all assembly.
    let grid = Grid3::new(2, 3, 2);
    let cfg = Alg1Config { dims, grid, kernel: Kernel::Naive, assembly: Assembly::AllToAllSum };
    let out = World::new(12, MachineParams::BANDWIDTH_ONLY).run_async(|rank| {
        let (cfg, a, b) = (cfg.clone(), Arc::clone(&inputs.a), Arc::clone(&inputs.b));
        Box::pin(async move { alg1_a(rank, &cfg, &a, &b).await })
    });
    let chunks: Vec<_> = out.values.iter().map(|v| v.c_chunk.clone()).collect();
    assert_eq!(assemble_c(dims, grid, &chunks), *inputs.want(), "alg1/all-to-all");
}

#[test]
fn alg1_beats_or_matches_every_baseline_on_its_optimal_grid() {
    // The comparison behind §2.4: with the §5.2 grid, Algorithm 1's
    // critical-path words never exceed any baseline's at equal P.
    let dims = MatMulDims::new(48, 24, 24);
    let p = 64usize;
    let inputs = Inputs::seeded(dims, [101, 202]);
    let time = |plan: &AlgPlan| run_plan(&inputs, plan, Kernel::Naive).critical_path_time();

    let alg1_t = time(&AlgPlan::Alg1 { grid: best_grid(dims, p).grid });
    for plan in [
        AlgPlan::Cannon { q: 8 },
        AlgPlan::Summa { pr: 8, pc: 8 },
        AlgPlan::TwoFiveD { q: 4, c: 4 },
    ] {
        let t = time(&plan);
        assert!(alg1_t <= t, "alg1 {alg1_t} vs {plan} {t}");
        assert!(words_vs_bound(dims, p, t).is_ge(), "{plan} {t} below the bound?!");
    }
}

#[test]
fn kernels_do_not_change_distributed_results() {
    let inputs = Inputs::seeded(MatMulDims::new(40, 24, 16), [101, 202]);
    for kernel in Kernel::ALL {
        run_plan(&inputs, &AlgPlan::Alg1 { grid: [2, 2, 2] }, kernel);
    }
}
