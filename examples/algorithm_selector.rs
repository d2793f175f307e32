//! The bounds as a decision procedure: given a problem and a machine
//! (`P`, local memory `M`, α-β-γ), rank the execution strategies by
//! predicted time — then run the winner on the simulator and check the
//! prediction.
//!
//! ```sh
//! cargo run --release --example algorithm_selector
//! ```

use pmm::bounds::advisor::{recommend, Strategy};
use pmm::prelude::*;
use std::sync::Arc;

fn describe(s: &Strategy) -> String {
    match s {
        Strategy::Alg1 { grid } => format!("Algorithm 1 on {}x{}x{}", grid[0], grid[1], grid[2]),
        Strategy::TwoFiveD { q, c } => format!("2.5D with {q}x{q} layers, c = {c}"),
    }
}

fn main() {
    let dims = MatMulDims::new(512, 512, 512);
    let p = 64usize;

    for (label, m_words, params) in [
        ("ample memory, bandwidth-bound", f64::INFINITY, MachineParams::BANDWIDTH_ONLY),
        ("ample memory, latency-heavy", f64::INFINITY, MachineParams::new(1e5, 1.0, 0.0)),
        (
            "tight memory (1.5x the minimum)",
            1.5 * 3.0 * 512.0 * 512.0 / 64.0,
            MachineParams::BANDWIDTH_ONLY,
        ),
    ] {
        println!("--- {label} ---");
        let recs = recommend(dims, p, m_words, params);
        for (i, r) in recs.iter().take(4).enumerate() {
            println!(
                "  #{i} {:<30} time {:>12.0}  words {:>8.0}  msgs {:>3.0}  mem {:>7.0}",
                describe(&r.strategy),
                r.time,
                r.cost.words,
                r.cost.messages,
                r.memory_words
            );
        }
        println!();
    }

    // Execute the bandwidth-bound winner and compare measured words with
    // the advisor's prediction.
    let recs = recommend(dims, p, f64::INFINITY, MachineParams::BANDWIDTH_ONLY);
    let best = &recs[0];
    if let Strategy::Alg1 { grid } = best.strategy {
        let cfg = Alg1Config::new(dims, Grid3::from_dims(grid));
        let ab = Arc::new((
            random_int_matrix(512, 512, -2..3, 1),
            random_int_matrix(512, 512, -2..3, 2),
        ));
        let out = World::new(p, MachineParams::BANDWIDTH_ONLY).run_async(|rank| {
            let (cfg, ab) = (cfg.clone(), Arc::clone(&ab));
            Box::pin(async move { alg1_a(rank, &cfg, &ab.0, &ab.1).await })
        });
        let measured = out.critical_path_time();
        println!(
            "executed the winner ({}): predicted {:.0} words, measured {:.0}",
            describe(&best.strategy),
            best.cost.words,
            measured
        );
        assert!((measured - best.cost.words).abs() < 1e-6 * best.cost.words);
        println!("prediction confirmed ✓");
    }
}
