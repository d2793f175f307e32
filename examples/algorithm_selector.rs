//! The bounds as a decision procedure: given a problem and a machine
//! (`P`, local memory `M`, α-β-γ), rank the execution strategies by
//! predicted time — then run the winner on the simulator and check the
//! prediction.
//!
//! ```sh
//! cargo run --release --example algorithm_selector
//! ```

use pmm::prelude::*;
use std::sync::Arc;

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
                r.plan.to_string(),
                r.time,
                r.cost.words,
                r.cost.messages,
                r.memory_words
            );
        }
        println!();
    }

    // Execute the bandwidth-bound winner — the plan the advisor ranked —
    // and compare measured words with the advisor's prediction.
    let recs = recommend(dims, p, f64::INFINITY, MachineParams::BANDWIDTH_ONLY);
    let best = &recs[0];
    let ab =
        Arc::new((random_int_matrix(512, 512, -2..3, 1), random_int_matrix(512, 512, -2..3, 2)));
    let out = World::new(p, MachineParams::BANDWIDTH_ONLY).run_async(|rank| {
        let (plan, ab) = (best.plan.clone(), Arc::clone(&ab));
        Box::pin(async move {
            let comm = rank.world_comm();
            run_plan_a(rank, &comm, &plan, dims, Kernel::default(), &ab.0, &ab.1).await
        })
    });
    let measured = out.critical_path_time();
    println!(
        "executed the winner ({}): predicted {:.0} words, measured {:.0}",
        best.plan, best.cost.words, measured
    );
    assert!((measured - best.cost.words).abs() < 1e-6 * best.cost.words);
    println!("prediction confirmed ✓");
}
