//! Cross-crate checks for the extension variants: streamed Algorithm 1,
//! executed CARMA, and the advisor — all against the Theorem 3 bound.

use pmm::prelude::*;
use std::sync::Arc;

fn inputs(dims: MatMulDims) -> Arc<(Matrix, Matrix)> {
    Arc::new((
        random_int_matrix(dims.n1 as usize, dims.n2 as usize, -3..4, 301),
        random_int_matrix(dims.n2 as usize, dims.n3 as usize, -3..4, 302),
    ))
}

/// Run `plan` on a bandwidth-only world of the plan's size.
fn run_plan(plan: &AlgPlan, dims: MatMulDims) -> WorldResult<CShare> {
    run_plan_on(plan, dims, MachineParams::BANDWIDTH_ONLY)
}

/// Run `plan` on a world of the plan's size under `params`.
fn run_plan_on(plan: &AlgPlan, dims: MatMulDims, params: MachineParams) -> WorldResult<CShare> {
    let ab = inputs(dims);
    World::new(plan.active(), params).run_async(|rank| {
        let (plan, ab) = (plan.clone(), Arc::clone(&ab));
        Box::pin(async move {
            let comm = rank.world_comm();
            run_plan_a(rank, &comm, &plan, dims, Kernel::Naive, &ab.0, &ab.1).await
        })
    })
}

fn reference(dims: MatMulDims) -> Matrix {
    let ab = inputs(dims);
    gemm(&ab.0, &ab.1, Kernel::Naive)
}

#[test]
fn streamed_alg1_is_tight_too() {
    // The §6.2 low-memory variant moves exactly the same words, so it also
    // attains the bound on the optimal divisible grid.
    let dims = MatMulDims::new(768, 192, 48);
    let p = 36usize;
    let plan = AlgPlan::Alg1Streamed { grid: best_grid(dims, p).grid, slabs: 4 };
    let out = run_plan(&plan, dims);
    let bound = lower_bound(dims, p as f64).bound;
    let measured = out.critical_path_time();
    assert!(
        (measured - bound).abs() < 1e-9 * bound,
        "streamed measured {measured} vs bound {bound}"
    );
    // And the product is right.
    assert_eq!(assemble_recovered(dims, &plan, &out.values), reference(dims));
}

#[test]
fn carma_is_tight_on_pow2_square_instances() {
    // On power-of-two-aligned square instances, CARMA's halving schedule
    // equals the Corollary 4 bound exactly — the certification Theorem 3
    // enables.
    for (n, p) in [(64u64, 8usize), (64, 64), (128, 512)] {
        let dims = MatMulDims::square(n);
        let plan = AlgPlan::Carma { p };
        let out = run_plan(&plan, dims);
        let bound = corollary4(n, p as f64);
        let measured = out.critical_path_time();
        assert!(
            (measured - bound).abs() < 1e-9 * bound,
            "n={n} P={p}: CARMA measured {measured} vs bound {bound}"
        );
        // Reassembled product matches the serial reference.
        assert_eq!(assemble_recovered(dims, &plan, &out.values), reference(dims), "n={n} P={p}");
    }
}

#[test]
fn advisor_prediction_matches_execution_for_the_winner() {
    let dims = MatMulDims::new(256, 128, 64);
    let p = 32usize;
    let recs = recommend(dims, p, f64::INFINITY, MachineParams::BANDWIDTH_ONLY);
    let best = recs.first().expect("at least one plan");
    assert_eq!(best.plan.algorithm(), "alg1", "unlimited memory: Algorithm 1 wins");
    let measured = run_plan(&best.plan, dims).critical_path_time();
    assert!(
        (measured - best.cost.words).abs() < 1e-9,
        "advisor predicted {} words, measured {measured}",
        best.cost.words
    );
}

#[test]
fn advisor_prices_alg1_messages_and_words_as_executed() {
    // Algorithm 1's collectives run recursive doubling / halving on a
    // power-of-two fiber (log2 p messages) and the ring otherwise
    // (p − 1): the advisor must price each fiber by the same rule.
    let dims = MatMulDims::new(120, 24, 30);
    for grid in [[5, 1, 1], [6, 2, 1], [2, 2, 2], [3, 1, 1]] {
        let plan = AlgPlan::Alg1 { grid };
        let executed = run_plan(&plan, dims).critical_path_cost();
        let advised = plan_cost(dims, &plan).expect("the model prices Algorithm 1");
        assert_eq!(advised.messages, executed.messages, "grid {grid:?}: messages");
        assert!((advised.words - executed.words).abs() < 1e-9, "grid {grid:?}: words");
    }
}

#[test]
fn advisor_predicts_every_candidates_executed_makespan() {
    // Under a full α-β-γ machine every ranked plan — Algorithm 1 grids
    // and 2.5D layouts, c = 1, 2 and 4 — runs exactly as long as the
    // advisor predicts: its collectives are priced by the rules they
    // execute (binomial replication and reduction for 2.5D).
    let dims = MatMulDims::square(48);
    let params = MachineParams::new(4.0, 1.0, 0.25);
    let mut twofived = 0;
    for p in [32usize, 64] {
        for rec in recommend(dims, p, f64::INFINITY, params) {
            let measured = run_plan_on(&rec.plan, dims, params).critical_path_time();
            assert!(
                (measured - rec.time).abs() <= 1e-9 * rec.time,
                "P={p} {}: advisor predicted {}, executed {measured}",
                rec.plan,
                rec.time
            );
            twofived += usize::from(rec.plan.algorithm() == "twofived");
        }
    }
    assert_eq!(twofived, 3, "2.5D on 4x4x2, 8x8x1 and 4x4x4");
}

#[test]
fn streamed_variant_trades_latency_for_memory_monotonically() {
    let dims = MatMulDims::new(64, 96, 64);
    let mut prev_msgs = 0u64;
    let mut prev_peak = u64::MAX;
    for slabs in [1usize, 2, 4, 8] {
        let out = run_plan(&AlgPlan::Alg1Streamed { grid: [2, 2, 2], slabs }, dims);
        let msgs = out.reports[0].meter.msgs_sent;
        let peak = out.max_peak_mem_words();
        assert!(msgs >= prev_msgs, "slabs={slabs}: messages must not decrease");
        assert!(peak <= prev_peak, "slabs={slabs}: peak memory must not increase");
        prev_msgs = msgs;
        prev_peak = peak;
    }
}
