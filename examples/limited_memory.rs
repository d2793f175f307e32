//! §6.2 in action: when local memory `M` is limited, which bound binds,
//! and when does Algorithm 1 stop fitting?
//!
//! The example (a) sweeps `P` for a fixed problem and small `M`, printing
//! the binding bound and the crossover interval; and (b) *runs* Algorithm 1
//! under an enforced per-rank memory limit, showing the 3D grid exceeding
//! a budget that the 2D grid respects.
//!
//! ```sh
//! cargo run --release --example limited_memory
//! ```

use pmm::bounds::memlimit::{memory_dependent_dominance_range, Dominant};
use pmm::prelude::*;
use std::sync::Arc;

fn main() {
    let dims = MatMulDims::new(9600, 2400, 600);
    let m_words = 9_000.0;

    println!("problem: {dims}, local memory M = {m_words} words\n");
    match memory_dependent_dominance_range(dims, m_words) {
        Some((lo, hi)) => println!(
            "memory-dependent bound dominates for {lo:.0} < P ≤ {hi:.0} \
             (= mn/k² < P ≤ 8/27·mnk/M^(3/2))\n"
        ),
        None => println!("M is large enough that Theorem 3 binds for every P\n"),
    }

    println!(
        "{:>7} {:>6} {:>16} {:>16} {:>12}",
        "P", "case", "independent(D)", "dependent", "binding"
    );
    for p in [16.0, 64.0, 256.0, 1024.0, 4096.0, 16384.0, 65536.0] {
        if min_memory_words(dims, p) > m_words {
            println!(
                "{p:>7} {:>6} {:>16} {:>16} {:>12}",
                "-", "infeasible: M can't hold 1/P of the data", "", ""
            );
            continue;
        }
        let rep = limited_memory_report(dims, p, m_words);
        println!(
            "{:>7} {:>6} {:>16.0} {:>16.0} {:>12}",
            p,
            rep.independent.case.to_string(),
            rep.independent.d,
            rep.dependent,
            match rep.dominant {
                Dominant::MemoryIndependent => "Theorem 3",
                Dominant::MemoryDependent => "2mnk/(P√M)",
            }
        );
    }

    // ---- enforce a memory limit on an actual run ---------------------------
    println!("\nenforced-limit run (small instance, P = 64):");
    let dims = MatMulDims::new(384, 96, 24);
    let p = 64usize;
    let grid3d = best_grid(dims, p).grid3(); // 16x4x1? depends on case — report it
    let grid2d = Grid3::new(8, 8, 1);
    for (label, grid) in [("optimal grid", grid3d), ("8x8x1 grid", grid2d)] {
        let footprint = alg1_memory_words(dims, grid.dims());
        println!(
            "  {label:<13} {grid}: analytic footprint {footprint:.0} words/rank, \
             minimum storage {:.0}",
            min_memory_words(dims, p as f64)
        );
    }

    // Budget chosen between the two grids' peak footprints: the leaner
    // (optimal) grid fits, the hungrier one is rejected by the simulator's
    // memory tracker. Silence the expected panic's message.
    let budget = 2_600u64;
    let ab = Arc::new((random_int_matrix(384, 96, -2..3, 1), random_int_matrix(96, 24, -2..3, 2)));
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    for (label, grid) in [("optimal grid", grid3d), ("8x8x1 grid", grid2d)] {
        let cfg = Alg1Config::new(dims, grid);
        let result = World::new(p, MachineParams::BANDWIDTH_ONLY)
            .with_memory_limit(Some(budget))
            .try_run_async(|rank| {
                let (cfg, ab) = (cfg.clone(), Arc::clone(&ab));
                Box::pin(async move {
                    alg1_a(rank, &cfg, &ab.0, &ab.1).await;
                    rank.mem().peak()
                })
            });
        match result {
            Ok(out) => {
                let peak = out.values.iter().max().expect("p >= 1");
                println!("  {label:<13} fits in {budget}: peak {peak} words/rank");
            }
            Err(_) => println!("  {label:<13} EXCEEDS the {budget}-word limit (run aborted)"),
        }
    }
    std::panic::set_hook(default_hook);
    println!("\nAlgorithm 1's 3D grids need asymptotically more than the minimum");
    println!("memory — in limited-memory regimes use 2.5D-style algorithms instead.");
}
