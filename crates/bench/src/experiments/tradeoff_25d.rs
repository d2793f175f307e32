//! **E11 — the memory/communication trade-off** (§6.2's closing remark:
//! "algorithms that smoothly trade off memory for communication savings
//! … are well studied"): execute the 2.5D algorithm across replication
//! factors `c` at fixed `P` and plot measured communication against
//! memory use, bracketed by the 2D regime at `c = 1` and the
//! memory-independent bound below.

use crate::{fnum, print_table, Checks};
use pmm_algs::Inputs;
use pmm_core::theorem3::lower_bound;
use pmm_model::{AlgPlan, MatMulDims};

pub fn run(checks: &mut Checks) {
    // P = 64: (q, c) ∈ {(8,1), (4,4)}; P = 256: {(16,1), (8,4)};
    // P = 1024: {(32,1), (16,4), (8,16)? 16∤8 → no} — c | q constrains the
    // ladder; we sweep what exists at each P.
    let dims = MatMulDims::new(64, 64, 64);
    println!("2.5D memory/communication trade-off, {dims}\n");
    let inputs = Inputs::random_int(dims, 1);

    let mut rows = Vec::new();
    let mut ratios = Vec::new(); // (P, words(c=4)/words(c=1))
    for (p, configs) in [
        (64usize, vec![(8usize, 1usize), (4, 4)]),
        (256, vec![(16, 1), (8, 4)]),
        (1024, vec![(32, 1), (16, 4)]),
    ] {
        let bound = lower_bound(dims, p as f64).bound;
        let mut flat_words = 0.0f64;
        let mut flat_mem = 0.0f64;
        for (q, c) in configs {
            assert_eq!(c * q * q, p);
            let out = inputs.measure(&AlgPlan::TwoFiveD { q, c }, false);
            let words = out.critical_path_time();
            let mem = out.max_peak_mem_words() as f64;
            checks.check(format!("P={p} q={q} c={c}: above the bound"), words >= bound - 1e-9);
            if c == 1 {
                flat_words = words;
                flat_mem = mem;
            } else {
                checks.check(format!("P={p} c={c}: more memory than c=1"), mem > flat_mem);
                ratios.push((p, words / flat_words));
            }
            rows.push(vec![
                p.to_string(),
                format!("{q}x{q}x{c}"),
                c.to_string(),
                fnum(words),
                fnum(mem),
                fnum(bound),
                format!("{:.2}x", words / bound.max(1.0)),
            ]);
        }
    }
    print_table(
        &["P", "layout", "c", "measured words", "peak mem/rank", "bound", "vs bound"],
        &rows,
    );

    // The crossover: replication overhead (broadcast + reduce of whole
    // blocks) amortizes only when each layer still does many shift steps,
    // i.e. at large P. The ratio c=4 / c=1 must fall monotonically with P
    // and drop below 1 by P = 1024.
    println!("\nwords(c=4) / words(c=1):");
    for (p, r) in &ratios {
        println!("  P = {p:>5}: {r:.3}");
    }
    for w in ratios.windows(2) {
        checks.check(format!("ratio falls from P={} to P={}", w[0].0, w[1].0), w[1].1 < w[0].1);
    }
    let last = ratios.last().expect("the P sweep is non-empty");
    checks.check("replication wins by P=1024", last.1 < 1.0);

    println!("\nreading the table: replication trades memory (~c× footprint) for");
    println!("communication, but only pays once the per-layer shift work dominates");
    println!("the broadcast/reduce overhead — the crossover sits between P = 256");
    println!("and P = 1024 here. The bound itself needs the full 3D grid (c = q)");
    println!("and the §6.2 memory headroom.");
}
