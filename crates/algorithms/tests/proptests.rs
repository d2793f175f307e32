//! Property-based tests for the distributed algorithms: Algorithm 1
//! computes the right product and meters exactly eq. (3) across random
//! dimensions and random grids (divisible or not), and Cannon/SUMMA agree
//! on random instances.

use pmm_algs::{alg1_a, assemble_c, assemble_recovered, run_plan_a, Alg1Config, Assembly};
use pmm_core::gridopt::alg1_cost_words;
use pmm_dense::{gemm, random_int_matrix, Kernel};
use pmm_model::{AlgPlan, Grid3, MatMulDims};
use pmm_simnet::{MachineParams, World};
use proptest::prelude::*;
use std::sync::Arc;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn alg1_is_correct_on_random_instances(
        n1 in 1u64..20, n2 in 1u64..20, n3 in 1u64..20,
        p1 in 1usize..4, p2 in 1usize..4, p3 in 1usize..4,
        assembly_pick in 0usize..2,
        seed in 0u64..500,
    ) {
        let dims = MatMulDims::new(n1, n2, n3);
        let grid = Grid3::new(p1, p2, p3);
        let assembly =
            if assembly_pick == 0 { Assembly::ReduceScatter } else { Assembly::AllToAllSum };
        let cfg = Alg1Config { dims, grid, kernel: Kernel::Naive, assembly };
        let ab = Arc::new((
            random_int_matrix(n1 as usize, n2 as usize, -3..4, seed),
            random_int_matrix(n2 as usize, n3 as usize, -3..4, seed + 1),
        ));
        let out = World::new(grid.size(), MachineParams::BANDWIDTH_ONLY).run_async(|rank| {
            let (cfg, ab) = (cfg.clone(), Arc::clone(&ab));
            Box::pin(async move {
                alg1_a(rank, &cfg, &ab.0, &ab.1).await
            })
        });
        let chunks: Vec<_> = out.values.iter().map(|v| v.c_chunk.clone()).collect();
        prop_assert_eq!(assemble_c(dims, grid, &chunks), gemm(&ab.0, &ab.1, Kernel::Naive));
    }

    #[test]
    fn alg1_meters_eq3_exactly_when_divisible(
        b1 in 1u64..5, b2 in 1u64..5, b3 in 1u64..5, // block edges
        p1 in 1usize..4, p2 in 1usize..4, p3 in 1usize..4,
        chunk_mult in 1u64..3,
    ) {
        // Construct dims so blocks AND fiber chunks divide evenly:
        // n_i = p_i · b_i · (chunk_mult · lcm-ish slack via P).
        let pall = (p1 * p2 * p3) as u64;
        let dims = MatMulDims::new(
            p1 as u64 * b1 * pall * chunk_mult,
            p2 as u64 * b2 * pall,
            p3 as u64 * b3 * pall,
        );
        let grid = [p1, p2, p3];
        prop_assume!(dims.divisible_by(grid));
        let g = Grid3::from_dims(grid);
        let cfg = Alg1Config::new(dims, g);
        let (n1, n2, n3) = (dims.n1 as usize, dims.n2 as usize, dims.n3 as usize);
        prop_assume!(n1 * n2 * n3 <= 200_000); // keep local gemm cheap
        let ab = Arc::new((
            random_int_matrix(n1, n2, -1..2, 1),
            random_int_matrix(n2, n3, -1..2, 2),
        ));
        let out = World::new(g.size(), MachineParams::BANDWIDTH_ONLY).run_async(move |rank| {
            let (cfg, ab) = (cfg.clone(), Arc::clone(&ab));
            Box::pin(async move {
                alg1_a(rank, &cfg, &ab.0, &ab.1).await;
                rank.time()
            })
        });
        let want = alg1_cost_words(dims, grid);
        for (r, &t) in out.values.iter().enumerate() {
            prop_assert!((t - want).abs() < 1e-6, "rank {r}: {t} vs eq3 {want}");
        }
    }

    #[test]
    fn cannon_and_summa_agree_with_reference(
        n1 in 1u64..16, n2 in 1u64..16, n3 in 1u64..16,
        q in 1usize..4,
        seed in 0u64..500,
    ) {
        let dims = MatMulDims::new(n1, n2, n3);
        let ab = Arc::new((
            random_int_matrix(n1 as usize, n2 as usize, -3..4, seed),
            random_int_matrix(n2 as usize, n3 as usize, -3..4, seed + 1),
        ));
        let want = gemm(&ab.0, &ab.1, Kernel::Naive);

        for plan in [AlgPlan::Cannon { q }, AlgPlan::Summa { pr: q, pc: q }] {
            let out = World::new(q * q, MachineParams::BANDWIDTH_ONLY).run_async(|rank| {
                let (plan, ab) = (plan.clone(), Arc::clone(&ab));
                Box::pin(async move {
                    let comm = rank.world_comm();
                    run_plan_a(rank, &comm, &plan, dims, Kernel::Naive, &ab.0, &ab.1).await
                })
            });
            prop_assert_eq!(&assemble_recovered(dims, &plan, &out.values), &want, "{}", plan);
        }
    }
}
