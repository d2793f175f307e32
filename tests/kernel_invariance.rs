//! Kernel-tier invariance: the local GEMM kernel is a *compute* choice,
//! so switching tiers (`Alg1Config::kernel` / `PMM_KERNEL`) must change
//! nothing observable about a distributed run except wall-clock speed:
//!
//! 1. **outputs** — every tier produces the bitwise-identical product
//!    chunks (all tiers accumulate each C entry over k in increasing
//!    order through one shared multiply-add, so no reassociation);
//! 2. **meters** — words/messages/flops charged per rank are identical
//!    (the algorithms meter `h1·h2·h3` multiply-adds analytically, never
//!    "what the kernel did");
//! 3. **schedule traces** — the seeded rank interleaving is byte-stable
//!    across tiers, so `PMM_SEED` repro lines stay valid whatever kernel
//!    a host selects;
//! 4. **structured traces** — per-phase word attribution and the trace
//!    critical path (simulated time) are tier-independent.

use pmm::prelude::*;

fn inputs(dims: MatMulDims) -> (Matrix, Matrix) {
    (
        random_int_matrix(dims.n1 as usize, dims.n2 as usize, -3..4, 101),
        random_int_matrix(dims.n2 as usize, dims.n3 as usize, -3..4, 202),
    )
}

/// Run Algorithm 1 on a 2×3×2 grid with the given kernel, seeded and
/// traced, returning the world result.
fn run_with(kernel: Kernel) -> WorldResult<Alg1Output> {
    let dims = MatMulDims::new(24, 12, 18);
    let cfg =
        Alg1Config { dims, grid: Grid3::new(2, 3, 2), kernel, assembly: Assembly::ReduceScatter };
    let (a, b) = inputs(dims);
    World::new(12, MachineParams::BANDWIDTH_ONLY)
        .with_seed(0xBEEF)
        .with_trace(true)
        .run(move |rank| alg1(rank, &cfg, &a, &b))
}

#[test]
fn kernel_choice_never_alters_outputs_meters_or_traces() {
    let baseline = run_with(Kernel::Naive);
    let base_trace = baseline.schedule_trace.as_ref().expect("seeded run records a trace");
    let base_tracer = baseline.tracer().expect("tracing was enabled");
    let base_attr = base_tracer.phase_totals();
    let base_cp = base_tracer.critical_path();
    for kernel in Kernel::ALL {
        let run = run_with(kernel);
        // 1. Bitwise-identical product chunks.
        assert_eq!(
            baseline.values, run.values,
            "tier {kernel} changed the computed product chunks"
        );
        // 2. Identical meters on every rank.
        for (r, (base, other)) in baseline.reports.iter().zip(&run.reports).enumerate() {
            assert_eq!(base.meter, other.meter, "tier {kernel} changed rank {r}'s meter");
        }
        // 3. Byte-identical schedule trace (same seed, same interleaving).
        let trace = run.schedule_trace.as_ref().expect("seeded run records a trace");
        assert_eq!(
            base_trace.render(),
            trace.render(),
            "tier {kernel} changed the scheduled interleaving"
        );
        // 4. Identical per-phase attribution and critical path.
        let tracer = run.tracer().expect("tracing was enabled");
        let attr = tracer.phase_totals();
        assert_eq!(base_attr.len(), attr.len(), "tier {kernel} changed the phase structure");
        for (b, o) in base_attr.iter().zip(&attr) {
            assert_eq!(
                (&b.label, &b.sent, &b.recv),
                (&o.label, &o.sent, &o.recv),
                "tier {kernel} changed phase word attribution"
            );
        }
        assert_eq!(
            base_cp.total,
            tracer.critical_path().total,
            "tier {kernel} changed the simulated critical path"
        );
        assert_eq!(
            base_tracer.chrome_json(),
            tracer.chrome_json(),
            "tier {kernel} changed the chrome trace"
        );
    }
}

#[test]
fn env_selected_kernel_is_output_invariant_for_the_cli_reference() {
    // PMM_KERNEL (`kernel_from_env`) picks the kernel of a CLI run and
    // the CLI checks the run against the pinned naive oracle: whatever
    // tier the variable names equals that reference bitwise.
    let dims = MatMulDims::new(24, 12, 18);
    let (a, b) = inputs(dims);
    let oracle = gemm(&a, &b, Kernel::Naive);
    for kernel in Kernel::ALL {
        assert_eq!(oracle, gemm(&a, &b, kernel), "tier {kernel} diverged from the oracle");
    }
}
