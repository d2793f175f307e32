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
//! 3. **choice logs** — the seeded rank interleaving is byte-stable
//!    across tiers, so `PMM_SEED` repro lines stay valid whatever kernel
//!    a host selects;
//! 4. **structured traces** — per-phase word attribution and the trace
//!    critical path (simulated time) are tier-independent.

use pmm::prelude::*;
use std::sync::Arc;

/// Integer inputs of `dims`: `A` from seed 101, `B` from seed 202.
fn inputs(dims: MatMulDims) -> Inputs {
    let (n1, n2, n3) = (dims.n1 as usize, dims.n2 as usize, dims.n3 as usize);
    Inputs::new(dims, random_int_matrix(n1, n2, -3..4, 101), random_int_matrix(n2, n3, -3..4, 202))
}

/// Run Algorithm 1 on a 2×3×2 grid with the given kernel, seeded,
/// recorded and traced, returning the world result.
fn run_with(kernel: Kernel) -> WorldResult<Alg1Output> {
    let dims = MatMulDims::new(24, 12, 18);
    let cfg =
        Alg1Config { dims, grid: Grid3::new(2, 3, 2), kernel, assembly: Assembly::ReduceScatter };
    let Inputs { a, b, .. } = inputs(dims);
    World::new(12, MachineParams::BANDWIDTH_ONLY)
        .with_seed(0xBEEF)
        .with_schedule_recording(true)
        .with_trace(true)
        .run_async(move |rank| {
            let (cfg, a, b) = (cfg.clone(), Arc::clone(&a), Arc::clone(&b));
            Box::pin(async move { alg1_a(rank, &cfg, &a, &b).await })
        })
}

#[test]
fn kernel_choice_never_alters_outputs_meters_or_traces() {
    let baseline = run_with(Kernel::Naive);
    let base_log = baseline.choice_points.as_ref().expect("recorded run keeps its choice log");
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
        // 3. Byte-identical choice log (same seed, same interleaving).
        let log = run.choice_points.as_ref().expect("recorded run keeps its choice log");
        assert_eq!(
            base_log.render(),
            log.render(),
            "tier {kernel} changed the scheduled interleaving"
        );
        // 4. Identical per-phase attribution and critical path.
        let tracer = run.tracer().expect("tracing was enabled");
        let attr = tracer.phase_totals();
        assert_eq!(base_attr, attr, "tier {kernel} changed the per-phase attribution");
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
    let inputs = inputs(MatMulDims::new(24, 12, 18));
    for kernel in Kernel::ALL {
        let product = gemm(&inputs.a, &inputs.b, kernel);
        assert_eq!(*inputs.want(), product, "tier {kernel} diverged from the oracle");
    }
}
