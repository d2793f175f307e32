//! Cross-algorithm agreement: Algorithm 1 (both assemblies), Cannon,
//! SUMMA and 2.5D all compute the same product as the serial reference,
//! on the same distributed machine substrate.

use pmm::prelude::*;
use std::sync::Arc;

fn inputs(dims: MatMulDims) -> Arc<(Matrix, Matrix)> {
    Arc::new((
        random_int_matrix(dims.n1 as usize, dims.n2 as usize, -3..4, 101),
        random_int_matrix(dims.n2 as usize, dims.n3 as usize, -3..4, 202),
    ))
}

fn reference(dims: MatMulDims) -> Matrix {
    let ab = inputs(dims);
    gemm(&ab.0, &ab.1, Kernel::Naive)
}

#[test]
fn all_algorithms_produce_the_same_product() {
    let dims = MatMulDims::new(24, 12, 18);
    let want = reference(dims);

    // Algorithm 1, reduce-scatter assembly, P = 12.
    let grid = Grid3::new(2, 3, 2);
    let cfg = Alg1Config { dims, grid, kernel: Kernel::Naive, assembly: Assembly::ReduceScatter };
    let ab = inputs(dims);
    let out = World::new(12, MachineParams::BANDWIDTH_ONLY).run_async(|rank| {
        let (cfg, ab) = (cfg.clone(), Arc::clone(&ab));
        Box::pin(async move { alg1_a(rank, &cfg, &ab.0, &ab.1).await })
    });
    let chunks: Vec<_> = out.values.iter().map(|v| v.c_chunk.clone()).collect();
    assert_eq!(assemble_c(dims, grid, &chunks), want, "alg1/reduce-scatter");

    // Algorithm 1, all-to-all assembly.
    let cfg = Alg1Config { dims, grid, kernel: Kernel::Naive, assembly: Assembly::AllToAllSum };
    let out = World::new(12, MachineParams::BANDWIDTH_ONLY).run_async(|rank| {
        let (cfg, ab) = (cfg.clone(), Arc::clone(&ab));
        Box::pin(async move { alg1_a(rank, &cfg, &ab.0, &ab.1).await })
    });
    let chunks: Vec<_> = out.values.iter().map(|v| v.c_chunk.clone()).collect();
    assert_eq!(assemble_c(dims, grid, &chunks), want, "alg1/all-to-all");

    // Cannon, P = 9.
    let ccfg = CannonConfig { dims, q: 3, kernel: Kernel::Naive };
    let out = World::new(9, MachineParams::BANDWIDTH_ONLY).run_async(|rank| {
        let (ccfg, ab) = (ccfg.clone(), Arc::clone(&ab));
        Box::pin(async move { cannon_a(rank, &ccfg, &ab.0, &ab.1).await })
    });
    let got = assemble_from_blocks(24, 18, 3, 3, |i, j| out.values[i * 3 + j].c_block.clone());
    assert_eq!(got, want, "cannon");

    // SUMMA, P = 6 (2×3).
    let scfg = SummaConfig { dims, pr: 2, pc: 3, kernel: Kernel::Naive };
    let out = World::new(6, MachineParams::BANDWIDTH_ONLY).run_async(|rank| {
        let (scfg, ab) = (scfg.clone(), Arc::clone(&ab));
        Box::pin(async move { summa_a(rank, &scfg, &ab.0, &ab.1).await })
    });
    let got = assemble_from_blocks(24, 18, 2, 3, |i, j| out.values[i * 3 + j].c_block.clone());
    assert_eq!(got, want, "summa");

    // 2.5D, P = 18 (3×3 grid, 2 layers → requires c | q? c=3,q=3: 27)…
    // use q = 2, c = 2 → P = 8.
    let tcfg = TwoFiveDConfig { dims, q: 2, c: 2, kernel: Kernel::Naive };
    let out = World::new(8, MachineParams::BANDWIDTH_ONLY).run_async(|rank| {
        let (tcfg, ab) = (tcfg.clone(), Arc::clone(&ab));
        Box::pin(async move { twofived_a(rank, &tcfg, &ab.0, &ab.1).await })
    });
    let got = assemble_from_blocks(24, 18, 2, 2, |i, j| {
        out.values[i * 2 + j].c_block.clone().expect("layer 0")
    });
    assert_eq!(got, want, "2.5d");
}

#[test]
fn alg1_beats_or_matches_every_baseline_on_its_optimal_grid() {
    // The comparison behind §2.4: with the §5.2 grid, Algorithm 1's
    // critical-path words never exceed any baseline's at equal P.
    let dims = MatMulDims::new(48, 24, 24);
    let p = 64usize;

    let choice = best_grid(dims, p);
    let cfg = Alg1Config::new(dims, choice.grid3());
    let ab = inputs(dims);
    let alg1_t = World::new(p, MachineParams::BANDWIDTH_ONLY)
        .run_async(|rank| {
            let (cfg, ab) = (cfg.clone(), Arc::clone(&ab));
            Box::pin(async move {
                alg1_a(rank, &cfg, &ab.0, &ab.1).await;
            })
        })
        .critical_path_time();

    let ccfg = CannonConfig { dims, q: 8, kernel: Kernel::Naive };
    let cannon_t = World::new(p, MachineParams::BANDWIDTH_ONLY)
        .run_async(|rank| {
            let (ccfg, ab) = (ccfg.clone(), Arc::clone(&ab));
            Box::pin(async move {
                cannon_a(rank, &ccfg, &ab.0, &ab.1).await;
            })
        })
        .critical_path_time();

    let scfg = SummaConfig { dims, pr: 8, pc: 8, kernel: Kernel::Naive };
    let summa_t = World::new(p, MachineParams::BANDWIDTH_ONLY)
        .run_async(|rank| {
            let (scfg, ab) = (scfg.clone(), Arc::clone(&ab));
            Box::pin(async move {
                summa_a(rank, &scfg, &ab.0, &ab.1).await;
            })
        })
        .critical_path_time();

    let tcfg = TwoFiveDConfig { dims, q: 4, c: 4, kernel: Kernel::Naive };
    let t25_t = World::new(p, MachineParams::BANDWIDTH_ONLY)
        .run_async(|rank| {
            let (tcfg, ab) = (tcfg.clone(), Arc::clone(&ab));
            Box::pin(async move {
                twofived_a(rank, &tcfg, &ab.0, &ab.1).await;
            })
        })
        .critical_path_time();

    let bound = lower_bound(dims, p as f64).bound;
    for (name, t) in [("cannon", cannon_t), ("summa", summa_t), ("2.5d", t25_t)] {
        assert!(alg1_t <= t + 1e-9, "alg1 {alg1_t} vs {name} {t}");
        assert!(t >= bound - 1e-9, "{name} {t} below the bound {bound}?!");
    }
}

#[test]
fn kernels_do_not_change_distributed_results() {
    let dims = MatMulDims::new(40, 24, 16);
    let grid = Grid3::new(2, 2, 2);
    let want = reference(dims);
    let ab = inputs(dims);
    for kernel in Kernel::ALL {
        let cfg = Alg1Config { dims, grid, kernel, assembly: Assembly::ReduceScatter };
        let out = World::new(8, MachineParams::BANDWIDTH_ONLY).run_async(|rank| {
            let (cfg, ab) = (cfg.clone(), Arc::clone(&ab));
            Box::pin(async move { alg1_a(rank, &cfg, &ab.0, &ab.1).await })
        });
        let chunks: Vec<_> = out.values.iter().map(|v| v.c_chunk.clone()).collect();
        assert_eq!(assemble_c(dims, grid, &chunks), want, "{kernel:?}");
    }
}
