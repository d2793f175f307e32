//! **E5 — Figure 1**: Algorithm 1 on a 3×3×3 grid, from the point of view
//! of one processor — the paper highlights processor `(1,3,1)` (0-based:
//! `(0,2,0)`).
//!
//! Reproduces the figure's content quantitatively: the input data the
//! processor owns initially, the output data it owns finally, the data it
//! gathers from others (the light shading), and the three fibers along
//! which its collectives run (the arrows). All quantities are *measured*
//! from a traced simulator run.

use std::collections::BTreeSet;

use crate::measure::{alg1_output, Inputs};
use crate::{print_table, Checks};
use pmm_model::{AlgPlan, Grid3, MatMulDims};
use pmm_simnet::TraceOp;

pub fn run(checks: &mut Checks) {
    // n1 = n2 = n3 as in the figure; 18 keeps every block and chunk even.
    let n = 18u64;
    let dims = MatMulDims::square(n);
    let grid = Grid3::new(3, 3, 3);
    let hero = grid.rank_of([0, 2, 0]); // the paper's processor (1,3,1)

    println!("Figure 1: Algorithm 1 on a 3x3x3 grid, n1 = n2 = n3 = {n}");
    println!("hero processor: (1,3,1) in the paper's 1-based coords = rank {hero}\n");

    let out = Inputs::random_int(dims, 31).measure(&AlgPlan::Alg1 { grid: grid.dims() }, true);

    // ---- owned vs gathered data sizes (dark vs light shading) -------------
    let block = n / 3 * n / 3; // 6x6 = 36 words per face block
    let chunk = block / 3; // spread over the 3-processor fiber
    let phases = &alg1_output(&out.values[hero]).phases;
    let rows: Vec<Vec<String>> = ["A (block A_13)", "B (block B_31)", "C (block C_11)"]
        .iter()
        .zip(phases)
        .map(|(matrix, ph)| {
            let received = ph.meter.words_recv.to_string();
            vec![matrix.to_string(), block.to_string(), chunk.to_string(), received]
        })
        .collect();
    print_table(
        &["matrix", "block words (light+dark)", "owned words (dark)", "received (light)"],
        &rows,
    );

    // The processor receives exactly block − chunk words of A and B, and
    // (for C) the partial sums for its chunk from the two fiber peers ⇒
    // 2·chunk words received in the reduce-scatter.
    checks.check("A received == block − owned", phases[0].meter.words_recv == block - chunk);
    checks.check("B received == block − owned", phases[1].meter.words_recv == block - chunk);
    checks.check("C received == (1 − 1/p2)·block", phases[2].meter.words_recv == block - chunk);

    // ---- the three fibers (the arrows of the figure) -----------------------
    println!("\ncollective fibers through (1,3,1):");
    let coord = grid.coord_of(hero);
    let mut rows = Vec::new();
    for (axis, label) in [
        (2usize, "All-Gather A over (1,3,:)"),
        (0, "All-Gather B over (:,3,1)"),
        (1, "Reduce-Scatter C over (1,:,1)"),
    ] {
        let fiber = grid.fiber(coord, axis);
        let paper_coords: Vec<String> = fiber
            .iter()
            .map(|&r| {
                let c = grid.coord_of(r);
                format!("({},{},{})", c[0] + 1, c[1] + 1, c[2] + 1)
            })
            .collect();
        rows.push(vec![label.to_string(), format!("{}", paper_coords.join(" "))]);
    }
    print_table(&["collective", "processors (1-based, as in the figure)"], &rows);

    // ---- verify from the trace: the hero talked ONLY to its fiber peers ----
    let trace = out.reports[hero].trace.as_ref().expect("trace enabled");
    let mut partners = BTreeSet::new();
    for ev in trace {
        match ev.op {
            TraceOp::Send { to_world } => {
                partners.insert(to_world);
            }
            TraceOp::Recv { from_world } => {
                partners.insert(from_world);
            }
            _ => {}
        }
    }
    let mut fiber_peers = BTreeSet::new();
    for axis in 0..3 {
        for r in grid.fiber(coord, axis) {
            if r != hero {
                fiber_peers.insert(r);
            }
        }
    }
    println!("\ntraced communication partners of rank {hero}: {partners:?}");
    println!("fiber peers per the grid:                    {fiber_peers:?}");
    checks.check("hero communicates exactly with its three fibers", partners == fiber_peers);

    // Every collective involves 3 processors; the hero exchanges with at
    // most 2 peers per collective (recursive doubling is not applicable at
    // p = 3; the ring touches both neighbors).
    checks.check("hero has 6 distinct partners (2 per fiber)", partners.len() == 6);
}
