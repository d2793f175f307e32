//! Property-based tests for the distributed algorithms: Algorithm 1
//! computes the right product and meters exactly its integer eq. (3)
//! price across random dimensions and random grids (divisible or not),
//! and Cannon/SUMMA agree on random instances.

use pmm_algs::{
    alg1_a, assemble_c, assemble_recovered, check_alg1_price, run_plan_a, Alg1Config, Assembly,
    CShare,
};
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
    fn alg1_meters_its_price_on_every_rank_of_any_layout(
        n1 in 1u64..24, n2 in 1u64..24, n3 in 1u64..24,
        p1 in 1usize..5, p2 in 1usize..5, p3 in 1usize..5,
        slabs in 1usize..5,
    ) {
        // Ragged dimensions, blocks and fiber chunks, empty ones included:
        // every rank's per-phase words and messages are its integer price,
        // plain and streamed.
        let (dims, grid) = (MatMulDims::new(n1, n2, n3), [p1, p2, p3]);
        let ab = Arc::new((
            random_int_matrix(n1 as usize, n2 as usize, -1..2, 1),
            random_int_matrix(n2 as usize, n3 as usize, -1..2, 2),
        ));
        for plan in [AlgPlan::Alg1 { grid }, AlgPlan::Alg1Streamed { grid, slabs }] {
            let world = World::new(plan.active(), MachineParams::BANDWIDTH_ONLY);
            let out = world.run_async(|rank| {
                let (plan, ab) = (plan.clone(), Arc::clone(&ab));
                Box::pin(async move {
                    let comm = rank.world_comm();
                    run_plan_a(rank, &comm, &plan, dims, Kernel::Naive, &ab.0, &ab.1).await
                })
            });
            let outputs = out.values.iter().map(CShare::alg1);
            let checked = check_alg1_price(dims, &plan, outputs, Some(out.critical_path_time()));
            prop_assert!(checked.is_ok(), "{} on {}: {:?}", plan, dims, checked);
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
