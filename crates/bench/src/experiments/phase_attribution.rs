//! **E14 — per-phase cost attribution from the structured trace**: run
//! Algorithm 1 with tracing enabled on the §5.3 instance (scaled 12.5×
//! down: 768×192 · 192×48) at one `P` per Theorem 3 regime, and show
//! where the words go.
//!
//! For each regime the harness prints the per-phase breakdown extracted
//! from the event trace — measured words vs the eq. (3) prediction vs
//! that phase's share of the critical path — and checks that:
//!
//! * every rank's measured words and messages in every phase equal its
//!   integer price (`pmm_model::alg1_price`), which on these grids is
//!   the eq. (3) term (the §5.2 optimal grids of this instance divide
//!   the dimensions at all three `P`);
//! * the phases that eq. (3) says are free really move zero words (the
//!   1D grid touches only `B`; the 2D grid also leaves `A` resident);
//! * the critical path recovered from the trace equals the simulator's
//!   clock, and its total equals the Theorem 3 lower bound.

use crate::{fnum, print_table, Checks};
use pmm_algs::{words_vs_bound, Inputs};
use pmm_core::gridopt::best_grid;
use pmm_core::theorem3::lower_bound;
use pmm_model::{alg1_prediction, alg1_price, AlgPlan, Grid3, MatMulDims};

pub fn run(checks: &mut Checks) {
    let dims = MatMulDims::new(768, 192, 48);
    println!("per-phase attribution: {dims}, one P per Theorem 3 regime\n");
    let inputs = Inputs::random_int(dims, 7);

    for p in [3usize, 36, 512] {
        let choice = best_grid(dims, p);
        let grid = choice.grid;
        let g = Grid3::from_dims(grid);
        let case = dims.sorted().classify(p as u64);
        checks.check(format!("P={p}: optimal grid {grid:?} divides"), dims.divisible_by(grid));

        let out = inputs.measure(&AlgPlan::Alg1 { grid }, true);
        let tracer = out.tracer().expect("tracing was on");
        let pred = alg1_prediction(dims, grid);
        let expected = [
            ("all-gather A", pred.allgather_a),
            ("all-gather B", pred.allgather_b),
            ("reduce-scatter C", pred.reduce_c),
        ];
        let cp = tracer.critical_path();
        let totals = tracer.phase_totals();

        println!("— case {case}: P = {p}, grid {g} —");
        let rows: Vec<Vec<String>> = expected
            .iter()
            .map(|&(label, want)| {
                let t = totals.iter().find(|t| t.label == label);
                let measured = t.map_or(0, |t| t.max_duplex());
                vec![
                    label.to_string(),
                    fnum(want),
                    measured.to_string(),
                    fnum(cp.phase_cost(label)),
                ]
            })
            .collect();
        print_table(&["phase", "eq.(3)", "measured w/rank", "critical-path share"], &rows);

        let attribution =
            tracer.attribution(expected.map(|(label, _)| label), |r| alg1_price(dims, grid, 1, r));
        checks.check(format!("P={p}: every phase matches eq. (3) exactly"), attribution.matches());
        for (label, want) in expected {
            if want == 0.0 {
                let moved = totals.iter().find(|t| t.label == label).map_or(0, |t| t.max_duplex());
                checks.check(format!("P={p}: free phase '{label}' moves zero words"), moved == 0);
            }
        }
        let clock = out.critical_path_time();
        checks.check(format!("P={p}: trace critical path equals the clock"), cp.total == clock);
        let bound = lower_bound(dims, p as f64).bound;
        checks.check(
            format!("P={p}: critical path attains the Theorem 3 bound"),
            words_vs_bound(dims, p, cp.total).is_eq(),
        );
        println!(
            "critical path {} = bound {} ({} cross-rank hop(s), ends at rank {})\n",
            fnum(cp.total),
            fnum(bound),
            cp.hops,
            cp.end_rank
        );
    }
}
