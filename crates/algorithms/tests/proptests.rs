//! Property-based tests for the distributed algorithms: Algorithm 1
//! computes the right product and meters exactly its integer eq. (3)
//! price across random dimensions and random grids (divisible or not),
//! and Cannon/SUMMA pass the certificate (`Inputs::check`: product and
//! goodput) on random instances.

use pmm_algs::{alg1_a, assemble_c, check_alg1_price, Alg1Config, Assembly, CShare, Inputs};
use pmm_dense::{random_int_matrix, Kernel};
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
        let inputs = Inputs::random_int(dims, seed);
        let out = World::new(grid.size(), MachineParams::BANDWIDTH_ONLY).run_async(|rank| {
            let (cfg, a, b) = (cfg.clone(), Arc::clone(&inputs.a), Arc::clone(&inputs.b));
            Box::pin(async move {
                alg1_a(rank, &cfg, &a, &b).await
            })
        });
        let chunks: Vec<_> = out.values.iter().map(|v| v.c_chunk.clone()).collect();
        prop_assert_eq!(&assemble_c(dims, grid, &chunks), inputs.want());
    }

    #[test]
    fn alg1_meters_its_price_on_every_rank_of_any_layout(
        n1 in 1u64..24, n2 in 1u64..24, n3 in 1u64..24,
        p1 in 1usize..5, p2 in 1usize..5, p3 in 1usize..5,
        slabs in 1usize..5,
    ) {
        // Ragged dimensions, blocks and fiber chunks, empty ones included:
        // every run passes its certificate (product, goodput, every rank's
        // per-phase words and messages at its integer price), plain and
        // streamed, and where every rank pays the same price the critical
        // path is that price.
        let (dims, grid) = (MatMulDims::new(n1, n2, n3), [p1, p2, p3]);
        let inputs = Inputs::new(
            dims,
            random_int_matrix(n1 as usize, n2 as usize, -1..2, 1),
            random_int_matrix(n2 as usize, n3 as usize, -1..2, 2),
        );
        for plan in [AlgPlan::Alg1 { grid }, AlgPlan::Alg1Streamed { grid, slabs }] {
            let world = World::new(plan.active(), MachineParams::BANDWIDTH_ONLY);
            let out = inputs.run(&world, &plan, Kernel::Naive);
            let certified = inputs.check(&plan, &out);
            prop_assert!(certified.is_ok(), "{} on {}: {:?}", plan, dims, certified);
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
        let inputs = Inputs::random_int(MatMulDims::new(n1, n2, n3), seed);
        for plan in [AlgPlan::Cannon { q }, AlgPlan::Summa { pr: q, pc: q }] {
            let world = World::new(q * q, MachineParams::BANDWIDTH_ONLY);
            let out = inputs.run(&world, &plan, Kernel::Naive);
            let certified = inputs.check(&plan, &out);
            prop_assert!(certified.is_ok(), "{}: {:?}", plan, certified);
        }
    }
}
