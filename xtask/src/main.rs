//! Workspace automation. `cargo xtask check` is the static-analysis gate
//! run by CI (see `.github/workflows/ci.yml`):
//!
//! 1. `cargo fmt --all --check` — formatting.
//! 2. `cargo clippy --workspace --all-targets` with `-D warnings` plus the
//!    `[workspace.lints]` policy from the root manifest.
//! 3. `cargo clippy --workspace --lib --bins` additionally denying
//!    `clippy::unwrap_used`: library and binary code must use `expect()`
//!    with a message naming the violated invariant (tests are exempt via
//!    `clippy.toml`'s `allow-unwrap-in-tests`).
//! 4. A keyword audit: the workspace denies the `unsafe_code` lint and
//!    the `clippy::todo`/`clippy::dbg_macro` lints, and is expected to
//!    contain zero such tokens; the audit greps every workspace `.rs`
//!    file (comments excluded) so even `#[allow]`-escaped blocks are
//!    caught.
//! 5. `cargo xtask docs` (also run standalone) — rustdoc with
//!    `-D warnings` over every library target plus all doctests, so the
//!    documented-public-API policy (`#![warn(missing_docs)]` in the core
//!    crates) cannot drift.
//!
//! Further CI entry points exercise the deterministic scheduler:
//!
//! * `cargo xtask conformance` — the `tests/conformance.rs` sweep under a
//!   pinned matrix of schedule seeds (each seed exported as `PMM_SEED`);
//! * `cargo xtask trace-check` — the `tests/trace_attribution.rs` gate
//!   (structured-trace per-phase words vs the eq. 3 prediction, trace
//!   critical path vs the simulator clock, byte-stable Chrome export)
//!   under the same seed matrix;
//! * `cargo xtask fuzz-schedules [budget-secs]` — keeps running the
//!   schedule-fuzz entry test with fresh base seeds until the wall-clock
//!   budget (default 60 s) runs out, printing the failing `PMM_SEED` on
//!   the first divergence;
//! * `cargo xtask fault-sweep [budget-secs]` — the fault-injection suite
//!   (`tests/fault_tolerance.rs`) under a pinned matrix of schedule
//!   seeds × message fault rates (exported as `PMM_SEED` /
//!   `PMM_FAULT_RATE`), wall-clock capped (default 150 s);
//! * `cargo xtask chaos-soak [budget-secs]` — the chaos certification
//!   suite (`tests/chaos.rs`, release mode, `--include-ignored`): the
//!   checkpointed-recovery wrapper for all six algorithms
//!   under kill / cascade / healing-partition / straggler-storm fault
//!   plans, bitwise-checked against the fault-free reference and the
//!   recovery goodput model, plus the fault-armed P = 10^4 cell. Collects the tests' `CHAOS:` metric lines into
//!   `BENCH_chaos.json` (cells run, recovery success rate — the gate
//!   requires 100%);
//! * `cargo xtask dpor [budget-secs]` — the schedule-space race checker
//!   (`tests/explore.rs`, release mode): exhaustive interleaving
//!   certificates for the pinned collective workloads, budgeted frontier
//!   exploration of Algorithm 1, and a ≥ 1000-program generator soak
//!   against the intent oracle. Collects the tests' `DPOR:` metric lines
//!   into `BENCH_explore.json` (schedules/sec, states pruned, programs
//!   generated). Failures print a `PMM_SCHEDULE=prefix:...` repro line.
//! * `cargo xtask scale-check [budget-secs]` — the executed-at-scale
//!   gate (`tests/scale.rs`, release mode): Algorithm 1 end-to-end on
//!   the event loop, first on default worlds (schedule recording on)
//!   at P = 1024 and 4096, then with recording off at P = 10^4, 10^5,
//!   and 10^6 (ascending, each cell started only while the wall-clock
//!   budget — default 300 s — lasts and the host has the memory it
//!   needs), with per-rank per-phase eq. (3) checks against
//!   `pmm_model::alg1_prediction` on integral §5.2 grids and the
//!   happens-before audit on in every cell. Collects the tests' `SCALE:` metric lines
//!   into `BENCH_scale.json` (ranks/sec stepped, peak RSS, host bytes per
//!   rank, max executed P) and fails if a re-run cell's ranks/sec fell
//!   below half of the committed file's or its peak RSS rose above 1.25×
//!   of it.
//! * `cargo xtask serve-soak [budget-secs]` — the chaos load harness for
//!   the `pmm serve` advisor service (`pmm-bench`'s `serve_chaos` bin,
//!   release mode): mixed valid/burst/panic/malformed/oversized/slowloris
//!   traffic against a deliberately tiny queue for the wall-clock budget
//!   (default 10 s), asserting the robustness invariants (every request
//!   answered, panics isolated, memory bounded). Collects the harness's
//!   `SERVE: key=value` metric lines into `BENCH_serve.json` (throughput,
//!   p50/p99 latency, shed rate, cache hit rate).

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("check") => check(),
        Some("fmt") => run_steps(&[fmt_step()]),
        Some("clippy") => run_steps(&[clippy_step(), unwrap_step()]),
        Some("audit") => {
            if keyword_audit(&workspace_root()) {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Some("docs") => docs(),
        Some("conformance") => conformance(),
        Some("trace-check") => trace_check(),
        Some("fuzz-schedules") => {
            let budget = args
                .get(1)
                .map(|s| s.parse().expect("budget must be a number of seconds"))
                .unwrap_or(60);
            fuzz_schedules(Duration::from_secs(budget))
        }
        Some("fault-sweep") => {
            let budget = args
                .get(1)
                .map(|s| s.parse().expect("budget must be a number of seconds"))
                .unwrap_or(150);
            fault_sweep(Duration::from_secs(budget))
        }
        Some("chaos-soak") => {
            let budget = args
                .get(1)
                .map(|s| s.parse().expect("budget must be a number of seconds"))
                .unwrap_or(240);
            chaos_soak(Duration::from_secs(budget))
        }
        Some("dpor") => {
            let budget = args
                .get(1)
                .map(|s| s.parse().expect("budget must be a number of seconds"))
                .unwrap_or(300);
            dpor(Duration::from_secs(budget))
        }
        Some("scale-check") => {
            let budget = args
                .get(1)
                .map(|s| s.parse().expect("budget must be a number of seconds"))
                .unwrap_or(300);
            scale_check(Duration::from_secs(budget))
        }
        Some("calibrate") => {
            let budget = args
                .get(1)
                .map(|s| s.parse().expect("budget must be a number of seconds"))
                .unwrap_or(10.0);
            calibrate(budget)
        }
        Some("kernel-bench") => {
            let budget = args
                .get(1)
                .map(|s| s.parse().expect("budget must be a number of seconds"))
                .unwrap_or(20.0);
            kernel_bench(budget)
        }
        Some("serve-soak") => {
            let budget = args
                .get(1)
                .map(|s| s.parse().expect("budget must be a number of seconds"))
                .unwrap_or(10);
            serve_soak(Duration::from_secs(budget))
        }
        other => {
            eprintln!(
                "usage: cargo xtask <command>\n\n\
                 commands:\n\
                 \x20 check           run the full static-analysis gate (fmt, clippy,\n\
                 \x20                 unwrap policy, keyword audit)\n\
                 \x20 fmt             formatting check only\n\
                 \x20 clippy          clippy passes only\n\
                 \x20 audit           scan sources for the forbidden keyword only\n\
                 \x20 docs            rustdoc gate: cargo doc with -D warnings plus\n\
                 \x20                 all doctests\n\
                 \x20 conformance     run tests/conformance.rs under a pinned matrix\n\
                 \x20                 of schedule seeds (PMM_SEED)\n\
                 \x20 trace-check     run tests/trace_attribution.rs (per-phase trace\n\
                 \x20                 attribution vs eq. 3) under the pinned seed matrix\n\
                 \x20 fuzz-schedules  [budget-secs] run the schedule fuzzer with fresh\n\
                 \x20                 seeds until the budget (default 60 s) is spent\n\
                 \x20 fault-sweep     [budget-secs] run tests/fault_tolerance.rs under a\n\
                 \x20                 pinned seed × fault-rate matrix (PMM_SEED,\n\
                 \x20                 PMM_FAULT_RATE), wall-clock capped (default 150 s)\n\
                 \x20 chaos-soak      [budget-secs] run the chaos certification suite\n\
                 \x20                 (tests/chaos.rs, release, --include-ignored):\n\
                 \x20                 all six recoverable algorithms × fault-plan\n\
                 \x20                 classes plus the P = 10^4 cell (default 240 s);\n\
                 \x20                 emits BENCH_chaos.json\n\
                 \x20 dpor            [budget-secs] run the schedule-space race checker\n\
                 \x20                 (tests/explore.rs): exhaustive interleaving\n\
                 \x20                 certificates, budgeted frontier exploration, and a\n\
                 \x20                 1000-program generator soak; emits BENCH_explore.json\n\
                 \x20 scale-check     [budget-secs] execute Algorithm 1 at large P\n\
                 \x20                 (tests/scale.rs, release, event loop):\n\
                 \x20                 default-world P = 1024, 4096 cells, then the\n\
                 \x20                 P = 10^4, 10^5, 10^6 cells until the budget\n\
                 \x20                 (default 300 s) is spent or memory is short;\n\
                 \x20                 emits BENCH_scale.json, fails below 0.5x of the\n\
                 \x20                 committed ranks/sec or above 1.25x of the\n\
                 \x20                 committed peak RSS\n\
                 \x20 serve-soak      [budget-secs] run the pmm-serve chaos load harness\n\
                 \x20                 (mixed valid/malformed/overload/slowloris traffic,\n\
                 \x20                 default 10 s) and emit BENCH_serve.json"
            );
            if other.is_none() {
                ExitCode::FAILURE
            } else {
                eprintln!("\nunknown command: {}", other.unwrap_or_default());
                ExitCode::FAILURE
            }
        }
    }
}

struct Step {
    name: &'static str,
    args: Vec<&'static str>,
}

fn fmt_step() -> Step {
    Step { name: "rustfmt", args: vec!["fmt", "--all", "--check"] }
}

fn clippy_step() -> Step {
    Step {
        name: "clippy (all targets)",
        args: vec!["clippy", "--workspace", "--all-targets", "--", "-D", "warnings"],
    }
}

fn unwrap_step() -> Step {
    Step {
        name: "clippy (unwrap policy, lib/bin code)",
        args: vec![
            "clippy",
            "--workspace",
            "--lib",
            "--bins",
            "--",
            "-D",
            "warnings",
            "-D",
            "clippy::unwrap_used",
        ],
    }
}

fn check() -> ExitCode {
    let root = workspace_root();
    let mut ok = run_steps(&[fmt_step(), clippy_step(), unwrap_step()]) == ExitCode::SUCCESS;
    eprintln!("xtask: keyword audit");
    ok &= keyword_audit(&root);
    ok &= docs() == ExitCode::SUCCESS;
    if ok {
        eprintln!("xtask: all checks passed");
        ExitCode::SUCCESS
    } else {
        eprintln!("xtask: FAILED");
        ExitCode::FAILURE
    }
}

/// The rustdoc gate: every public item documented (`missing_docs` is
/// warn-level in the core crates and `-D warnings` promotes it here),
/// every intra-doc link resolving, and every doctest passing. Doc'd
/// targets are restricted to libraries because the `pmm` bin and the
/// `pmm` lib collide on the output path (cargo #6313) — binaries have no
/// public API surface to document anyway.
fn docs() -> ExitCode {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string());
    let root = workspace_root();
    eprintln!("xtask: rustdoc (-D warnings, lib targets)");
    let status = Command::new(&cargo)
        .args(["doc", "--workspace", "--no-deps", "--lib"])
        .env("RUSTDOCFLAGS", "-D warnings")
        .current_dir(&root)
        .status();
    match status {
        Ok(s) if s.success() => {}
        _ => {
            eprintln!("xtask: rustdoc gate FAILED");
            return ExitCode::FAILURE;
        }
    }
    eprintln!("xtask: doctests");
    let status = Command::new(&cargo)
        .args(["test", "--doc", "--workspace", "-q"])
        .current_dir(&root)
        .status();
    match status {
        Ok(s) if s.success() => ExitCode::SUCCESS,
        _ => {
            eprintln!("xtask: doctests FAILED");
            ExitCode::FAILURE
        }
    }
}

/// The pinned seed matrix of the conformance job: arbitrary but fixed, so
/// CI failures replay locally with the printed `PMM_SEED`.
const CONFORMANCE_SEEDS: [u64; 3] = [0x00C0_FFEE, 1, 0xDEAD_BEEF];

/// Run one test binary via `cargo test` with `PMM_SEED` exported.
/// Returns true on success.
fn run_seeded_test(test: &str, seed: u64, filter: &[&str]) -> bool {
    run_seeded_test_env(test, seed, filter, &[])
}

/// [`run_seeded_test`] with extra environment variables exported to the
/// test process (e.g. `PMM_FAULT_RATE` for the fault-sweep matrix).
fn run_seeded_test_env(test: &str, seed: u64, filter: &[&str], envs: &[(&str, String)]) -> bool {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string());
    let mut cmd = Command::new(&cargo);
    cmd.args(["test", "--release", "--test", test, "--"])
        .args(filter)
        .env("PMM_SEED", seed.to_string())
        .current_dir(workspace_root());
    for (k, v) in envs {
        cmd.env(k, v);
    }
    match cmd.status() {
        Ok(s) => s.success(),
        Err(e) => {
            eprintln!("xtask: could not launch cargo test: {e}");
            false
        }
    }
}

fn conformance() -> ExitCode {
    for seed in CONFORMANCE_SEEDS {
        eprintln!("xtask: conformance sweep, PMM_SEED={seed}");
        if !run_seeded_test("conformance", seed, &[]) {
            eprintln!("xtask: conformance sweep FAILED — replay with PMM_SEED={seed}");
            return ExitCode::FAILURE;
        }
    }
    eprintln!("xtask: conformance sweep passed under {} seeds", CONFORMANCE_SEEDS.len());
    ExitCode::SUCCESS
}

/// The trace-attribution gate: `tests/trace_attribution.rs` (per-phase
/// words from the structured trace vs the eq. 3 prediction, trace
/// critical path vs the simulator clock, byte-stable Chrome export)
/// under the same pinned seed matrix as the conformance sweep.
fn trace_check() -> ExitCode {
    for seed in CONFORMANCE_SEEDS {
        eprintln!("xtask: trace attribution, PMM_SEED={seed}");
        if !run_seeded_test("trace_attribution", seed, &[]) {
            eprintln!("xtask: trace attribution FAILED — replay with PMM_SEED={seed}");
            return ExitCode::FAILURE;
        }
    }
    eprintln!("xtask: trace attribution passed under {} seeds", CONFORMANCE_SEEDS.len());
    ExitCode::SUCCESS
}

fn fuzz_schedules(budget: Duration) -> ExitCode {
    // Each round runs the fuzz entry test (which itself fans a base seed
    // out over several schedules) with a fresh base; rounds stop when the
    // budget is exhausted. The round stride leaves room for the fan-out.
    let start = Instant::now();
    let mut base: u64 = 0x5EED_0000;
    let mut rounds = 0u32;
    while start.elapsed() < budget {
        if !run_seeded_test("determinism", base, &["schedule_fuzz_smoke", "--exact"]) {
            eprintln!("xtask: schedule fuzz FAILED — replay with PMM_SEED={base}");
            return ExitCode::FAILURE;
        }
        rounds += 1;
        base += 0x100;
    }
    eprintln!(
        "xtask: schedule fuzz passed {rounds} round(s) in {:.1}s with no divergence",
        start.elapsed().as_secs_f64()
    );
    ExitCode::SUCCESS
}

/// The fault-sweep matrix: pinned schedule seeds × message fault rates.
/// Rate 0.0 doubles as the "armed but silent" regression cell (the
/// determinism suite separately asserts it is meter-identical to no plan
/// at all). Failures replay with the printed `PMM_SEED` +
/// `PMM_FAULT_RATE` pair.
const FAULT_SWEEP_SEEDS: [u64; 2] = [7, 0x00C0_FFEE];
const FAULT_SWEEP_RATES: [&str; 3] = ["0.0", "0.05", "0.15"];

fn fault_sweep(budget: Duration) -> ExitCode {
    let start = Instant::now();
    let mut cells = 0u32;
    let mut skipped = 0u32;
    for seed in FAULT_SWEEP_SEEDS {
        for rate in FAULT_SWEEP_RATES {
            if start.elapsed() >= budget {
                skipped += 1;
                continue;
            }
            eprintln!("xtask: fault sweep, PMM_SEED={seed} PMM_FAULT_RATE={rate}");
            let envs = [("PMM_FAULT_RATE", rate.to_string())];
            if !run_seeded_test_env("fault_tolerance", seed, &[], &envs) {
                eprintln!(
                    "xtask: fault sweep FAILED — replay with \
                     PMM_SEED={seed} PMM_FAULT_RATE={rate}"
                );
                return ExitCode::FAILURE;
            }
            cells += 1;
        }
    }
    if skipped > 0 {
        eprintln!(
            "xtask: fault sweep budget ({:.0}s) exhausted — {skipped} matrix cell(s) skipped",
            budget.as_secs_f64()
        );
    }
    eprintln!("xtask: fault sweep passed {cells} cell(s) in {:.1}s", start.elapsed().as_secs_f64());
    ExitCode::SUCCESS
}

/// The chaos certification soak: run `tests/chaos.rs` in release mode
/// with `--include-ignored` (the tier-1 cert cells, the
/// algorithm × regime × plan-class soak, and the fault-armed
/// P = 10^4 cell), export the wall-clock budget as
/// `PMM_CHAOS_BUDGET_SECS`, collect the tests' `CHAOS: key=value`
/// lines, and write them — plus the aggregate recovery success rate —
/// to `BENCH_chaos.json` at the workspace root. The gate fails unless
/// every executed cell recovered (a 100% success rate).
fn chaos_soak(budget: Duration) -> ExitCode {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string());
    let root = workspace_root();
    eprintln!("xtask: chaos-soak — fault-recovery certification ({}s budget)", budget.as_secs());
    let start = Instant::now();
    let output = match Command::new(&cargo)
        .args([
            "test",
            "--release",
            "--test",
            "chaos",
            "--",
            "--include-ignored",
            "--nocapture",
            "--test-threads=1",
        ])
        .env("PMM_CHAOS_BUDGET_SECS", budget.as_secs().to_string())
        .current_dir(&root)
        .output()
    {
        Ok(out) => out,
        Err(e) => {
            eprintln!("xtask: could not launch cargo test: {e}");
            return ExitCode::FAILURE;
        }
    };
    let stdout = String::from_utf8_lossy(&output.stdout);
    let stderr = String::from_utf8_lossy(&output.stderr);
    print!("{stdout}");
    eprint!("{stderr}");
    if !output.status.success() {
        eprintln!("xtask: chaos-soak FAILED");
        return ExitCode::FAILURE;
    }

    // Each chaos cell prints one `CHAOS: key=value ...` line; under
    // `--nocapture` libtest's own prefix may share the line, so search
    // for the marker anywhere.
    let lines: Vec<Vec<(&str, &str)>> = stdout
        .lines()
        .filter_map(|l| l.find("CHAOS:").map(|i| &l[i + "CHAOS:".len()..]))
        .map(|l| l.split_whitespace().filter_map(|tok| tok.split_once('=')).collect())
        .collect();
    let field = |entry: &[(&str, &str)], key: &str| -> f64 {
        entry.iter().find(|(k, _)| *k == key).and_then(|(_, v)| v.parse().ok()).unwrap_or(0.0)
    };
    let cells: Vec<&Vec<(&str, &str)>> =
        lines.iter().filter(|e| e.iter().any(|(k, _)| *k == "recovered")).collect();
    let recovered: f64 = cells.iter().map(|e| field(e, "recovered")).sum();
    let success_rate = if cells.is_empty() { 0.0 } else { recovered / cells.len() as f64 };
    let skipped: f64 = lines
        .iter()
        .filter(|e| e.iter().any(|(k, v)| *k == "summary" && *v == "soak"))
        .map(|e| field(e, "skipped"))
        .sum();

    let mut json = String::from("{\n");
    json.push_str(&format!("  \"budget_secs\": {},\n", budget.as_secs()));
    json.push_str(&format!("  \"wall_secs\": {:.3},\n", start.elapsed().as_secs_f64()));
    json.push_str(&format!("  \"cells\": {},\n", cells.len()));
    json.push_str(&format!("  \"cells_skipped\": {skipped},\n"));
    json.push_str(&format!("  \"recovery_success_rate\": {success_rate:.4},\n"));
    json.push_str("  \"runs\": [\n");
    for (i, entry) in cells.iter().enumerate() {
        let fields: Vec<String> = entry
            .iter()
            .map(|(k, v)| {
                if v.parse::<f64>().is_ok() {
                    format!("\"{k}\": {v}")
                } else {
                    format!("\"{k}\": \"{v}\"")
                }
            })
            .collect();
        let comma = if i + 1 < cells.len() { "," } else { "" };
        json.push_str(&format!("    {{{}}}{comma}\n", fields.join(", ")));
    }
    json.push_str("  ]\n}\n");
    let bench = root.join("BENCH_chaos.json");
    if let Err(e) = std::fs::write(&bench, &json) {
        eprintln!("xtask: could not write {}: {e}", bench.display());
        return ExitCode::FAILURE;
    }
    if (success_rate - 1.0).abs() > f64::EPSILON || cells.is_empty() {
        eprintln!(
            "xtask: chaos-soak FAILED — recovery success rate {success_rate:.4} over {} cell(s) \
             (must be 1.0)",
            cells.len()
        );
        return ExitCode::FAILURE;
    }
    eprintln!(
        "xtask: chaos-soak passed — {} cell(s), {skipped:.0} skipped, 100% recovery; \
         metrics in {}",
        cells.len(),
        bench.display()
    );
    ExitCode::SUCCESS
}

/// The schedule-space race checker: run `tests/explore.rs` in release
/// mode with the CI-scale knobs (≥ 1000 generated programs, the
/// wall-clock budget exported as `PMM_EXPLORE_BUDGET_SECS`), collect the
/// tests' `DPOR: key=value` metric lines, and write them — plus
/// aggregate schedules/sec, states pruned, and programs generated — to
/// `BENCH_explore.json` at the workspace root. On failure, any
/// `PMM_SCHEDULE=prefix:...` repro lines in the test output are
/// re-printed so the failing interleaving replays in one command.
fn dpor(budget: Duration) -> ExitCode {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string());
    let root = workspace_root();
    eprintln!("xtask: dpor — schedule-space race checker ({}s budget)", budget.as_secs());
    let start = Instant::now();
    let output = match Command::new(&cargo)
        .args(["test", "--release", "--test", "explore", "--", "--nocapture", "--test-threads=1"])
        .env("PMM_EXPLORE_PROGRAMS", "1000")
        .env("PMM_EXPLORE_BUDGET_SECS", budget.as_secs().to_string())
        .current_dir(&root)
        .output()
    {
        Ok(out) => out,
        Err(e) => {
            eprintln!("xtask: could not launch cargo test: {e}");
            return ExitCode::FAILURE;
        }
    };
    let stdout = String::from_utf8_lossy(&output.stdout);
    let stderr = String::from_utf8_lossy(&output.stderr);
    print!("{stdout}");
    eprint!("{stderr}");

    if !output.status.success() {
        for line in stdout.lines().chain(stderr.lines()) {
            if line.contains("PMM_SCHEDULE=") {
                eprintln!("xtask: repro: {}", line.trim());
            }
        }
        eprintln!("xtask: dpor FAILED");
        return ExitCode::FAILURE;
    }

    // Each workload test prints one `DPOR: key=value ...` line. Under
    // `--nocapture`, libtest's own `test name ...` prefix can share the
    // line, so search for the marker anywhere.
    let lines: Vec<Vec<(&str, &str)>> = stdout
        .lines()
        .filter_map(|l| l.find("DPOR:").map(|i| &l[i + "DPOR:".len()..]))
        .map(|l| l.split_whitespace().filter_map(|tok| tok.split_once('=')).collect())
        .collect();
    let field = |entry: &[(&str, &str)], key: &str| -> f64 {
        entry.iter().find(|(k, _)| *k == key).and_then(|(_, v)| v.parse().ok()).unwrap_or(0.0)
    };
    let sum = |key: &str| -> f64 { lines.iter().map(|e| field(e, key)).sum() };
    let schedules = sum("schedules");
    let explore_secs: f64 = lines
        .iter()
        .filter(|e| e.iter().any(|(k, _)| *k == "schedules"))
        .map(|e| field(e, "secs"))
        .sum();
    let rate = if explore_secs > 0.0 { schedules / explore_secs } else { 0.0 };

    let mut json = String::from("{\n");
    json.push_str(&format!("  \"budget_secs\": {},\n", budget.as_secs()));
    json.push_str(&format!("  \"wall_secs\": {:.3},\n", start.elapsed().as_secs_f64()));
    json.push_str(&format!("  \"schedules_explored\": {schedules},\n"));
    json.push_str(&format!("  \"world_runs\": {},\n", sum("runs")));
    json.push_str(&format!("  \"states_pruned\": {},\n", sum("pruned")));
    json.push_str(&format!("  \"schedules_per_sec\": {rate:.1},\n"));
    json.push_str(&format!("  \"programs_generated\": {},\n", sum("programs")));
    json.push_str("  \"workloads\": [\n");
    for (i, entry) in lines.iter().enumerate() {
        let fields: Vec<String> = entry
            .iter()
            .map(|(k, v)| {
                if v.parse::<f64>().is_ok() {
                    format!("\"{k}\": {v}")
                } else {
                    format!("\"{k}\": \"{v}\"")
                }
            })
            .collect();
        let comma = if i + 1 < lines.len() { "," } else { "" };
        json.push_str(&format!("    {{{}}}{comma}\n", fields.join(", ")));
    }
    json.push_str("  ]\n}\n");
    let bench = root.join("BENCH_explore.json");
    if let Err(e) = std::fs::write(&bench, &json) {
        eprintln!("xtask: could not write {}: {e}", bench.display());
        return ExitCode::FAILURE;
    }
    eprintln!(
        "xtask: dpor passed — {schedules:.0} schedules ({rate:.0}/s), {:.0} pruned, \
         {:.0} generated programs; metrics in {}",
        sum("pruned"),
        sum("programs"),
        bench.display()
    );
    ExitCode::SUCCESS
}

/// The large-P execution cells of `cargo xtask scale-check`, in
/// ascending-P order so a spent budget drops the biggest cells first.
/// Each entry is the exact `tests/scale.rs` test name, its pinned rank
/// count, and the memory (GB) the cell needs — a cell the host cannot
/// hold is skipped like one the budget cannot reach, not OOM-killed
/// (the budget alone no longer keeps a 16 GB host off the 10^6 cell).
/// Whole GB above the measured `VmHWM` (`BENCH_scale.json`: 0.33, 0.33,
/// 0.20, 0.09 and 5.0 GB; the 10^6 cell's 24 GB is the last estimate,
/// not re-measured on a host that cannot hold it).
const SCALE_CELLS: [(&str, u64, u64); 6] = [
    // The default-on cells: the world `pmm simulate` builds (seeded,
    // schedule recording on), and the unseeded `run_async` default that
    // must stay under 1 GB.
    ("alg1_executes_on_the_default_seeded_world_at_p_1024", 1_024, 1),
    ("alg1_executes_on_the_default_unseeded_world_at_p_1024_under_1_gb", 1_024, 1),
    ("alg1_executes_on_the_default_seeded_world_at_p_4096", 4_096, 1),
    ("alg1_executes_at_p_10_4_with_exact_eq3_attribution", 10_000, 1),
    ("alg1_executes_at_p_10_5_with_exact_eq3_attribution", 100_000, 6),
    ("alg1_executes_at_p_10_6", 1_000_000, 24),
];

/// Linux `MemAvailable` in GB, or `None` where /proc is unavailable.
fn mem_available_gb() -> Option<u64> {
    let meminfo = std::fs::read_to_string("/proc/meminfo").ok()?;
    let kb: u64 = meminfo
        .lines()
        .find(|l| l.starts_with("MemAvailable:"))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()?;
    Some(kb >> 20)
}

/// How far a scale cell's ranks/sec may fall below the committed
/// `BENCH_scale.json` before the gate fails (fraction that must
/// survive). Wider than [`KERNEL_BENCH_FLOOR`]: these cells are seconds
/// to minutes of host time on a shared VM.
const SCALE_CHECK_FLOOR: f64 = 0.5;

/// How far a scale cell's `peak_rss_kb` may rise above the committed
/// `BENCH_scale.json` before the gate fails. Tighter than the time
/// floor: a cell's peak RSS repeats to a fraction of a percent (it is
/// pinned by the schedule seed, not by the host's load), so 25 % is a
/// copy of a block coming back, not noise.
const SCALE_CHECK_RSS_CEILING: f64 = 1.25;

/// `(label, ranks_per_sec, peak_rss_kb)` of every cell line of a
/// `BENCH_scale.json` (the one-cell-per-line format [`scale_check`]
/// writes).
fn scale_cell_rows(json: &str) -> Vec<(String, f64, f64)> {
    let field = |line: &str, key: &str| -> Option<String> {
        let rest = &line[line.find(&format!("\"{key}\":"))? + key.len() + 3..];
        Some(rest.split(',').next()?.trim().trim_matches(|c| c == '"' || c == '}').to_string())
    };
    json.lines()
        .filter_map(|l| {
            Some((
                field(l, "label")?,
                field(l, "ranks_per_sec")?.parse().ok()?,
                field(l, "peak_rss_kb")?.parse().ok()?,
            ))
        })
        .collect()
}

/// Every way a re-run cell of `rows` is worse than its committed row of
/// `baseline` allows: ranks/sec under [`SCALE_CHECK_FLOOR`] of it, peak
/// RSS over [`SCALE_CHECK_RSS_CEILING`] of it. Cells without a committed
/// row pass.
fn scale_cell_failures(
    baseline: &[(String, f64, f64)],
    rows: &[(String, f64, f64)],
) -> Vec<String> {
    let mut failures = Vec::new();
    for (label, rate, rss_kb) in rows {
        let Some((_, base_rate, base_rss_kb)) = baseline.iter().find(|(l, ..)| l == label) else {
            continue;
        };
        if *rate < SCALE_CHECK_FLOOR * base_rate {
            failures.push(format!(
                "cell {label} regressed to {rate:.0} ranks/s, below {:.0}% of the committed \
                 {base_rate:.0}",
                100.0 * SCALE_CHECK_FLOOR
            ));
        }
        if *rss_kb > SCALE_CHECK_RSS_CEILING * base_rss_kb {
            failures.push(format!(
                "cell {label} peaked at {rss_kb:.0} kB resident, above {:.0}% of the committed \
                 {base_rss_kb:.0} kB",
                100.0 * SCALE_CHECK_RSS_CEILING
            ));
        }
    }
    failures
}

/// The executed-at-scale gate: run the `tests/scale.rs` cells (release
/// mode, event loop) in ascending-P order until the wall-clock
/// budget is spent, collect each cell's `SCALE: key=value` metric line,
/// and write `BENCH_scale.json` at the workspace root: ranks/sec
/// stepped, peak RSS and host bytes per rank, and the maximum P actually
/// executed. Fails if a re-run cell's ranks/sec is below
/// [`SCALE_CHECK_FLOOR`] of the committed file's, or its peak RSS above
/// [`SCALE_CHECK_RSS_CEILING`] of it.
fn scale_check(budget: Duration) -> ExitCode {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string());
    let root = workspace_root();
    let bench = root.join("BENCH_scale.json");
    // Read the committed baseline before the new run overwrites it.
    let baseline =
        std::fs::read_to_string(&bench).map_or_else(|_| Vec::new(), |j| scale_cell_rows(&j));
    eprintln!("xtask: scale-check — executed-at-scale gate ({}s budget)", budget.as_secs());
    let start = Instant::now();
    let mut lines: Vec<Vec<(String, String)>> = Vec::new();
    let mut max_p = 0u64;
    let mut skipped = 0u32;
    for (test, p, need_gb) in SCALE_CELLS {
        if start.elapsed() >= budget {
            skipped += 1;
            eprintln!("xtask: scale-check budget spent — skipping P = {p} cell");
            continue;
        }
        if let Some(have_gb) = mem_available_gb().filter(|&have| have < need_gb) {
            skipped += 1;
            eprintln!(
                "xtask: scale-check P = {p} cell needs ~{need_gb} GB, {have_gb} GB available — \
                 skipping"
            );
            continue;
        }
        eprintln!("xtask: scale-check cell P = {p} ({test})");
        let output = match Command::new(&cargo)
            .args([
                "test",
                "--release",
                "--test",
                "scale",
                "--",
                "--include-ignored",
                "--exact",
                test,
                "--nocapture",
            ])
            .current_dir(&root)
            .output()
        {
            Ok(out) => out,
            Err(e) => {
                eprintln!("xtask: could not launch cargo test: {e}");
                return ExitCode::FAILURE;
            }
        };
        let stdout = String::from_utf8_lossy(&output.stdout);
        print!("{stdout}");
        eprint!("{}", String::from_utf8_lossy(&output.stderr));
        if !output.status.success() {
            eprintln!("xtask: scale-check FAILED at P = {p} ({test})");
            return ExitCode::FAILURE;
        }
        for entry in stdout
            .lines()
            .filter_map(|l| l.find("SCALE:").map(|i| &l[i + "SCALE:".len()..]))
            .map(|l| {
                l.split_whitespace()
                    .filter_map(|tok| tok.split_once('='))
                    .map(|(k, v)| (k.to_string(), v.to_string()))
                    .collect::<Vec<_>>()
            })
        {
            lines.push(entry);
        }
        max_p = max_p.max(p);
    }
    if lines.is_empty() {
        eprintln!("xtask: scale-check ran no cells — raise the budget");
        return ExitCode::FAILURE;
    }

    let field = |entry: &[(String, String)], key: &str| -> f64 {
        entry.iter().find(|(k, _)| k == key).and_then(|(_, v)| v.parse().ok()).unwrap_or(0.0)
    };
    let peak_rss: f64 = lines.iter().map(|e| field(e, "peak_rss_kb")).fold(0.0, f64::max);
    let best_rate: f64 = lines.iter().map(|e| field(e, "ranks_per_sec")).fold(0.0, f64::max);

    let mut json = String::from("{\n");
    json.push_str(&format!("  \"budget_secs\": {},\n", budget.as_secs()));
    json.push_str(&format!("  \"wall_secs\": {:.3},\n", start.elapsed().as_secs_f64()));
    json.push_str(&format!("  \"max_executed_p\": {max_p},\n"));
    json.push_str(&format!("  \"best_ranks_per_sec\": {best_rate:.0},\n"));
    json.push_str(&format!("  \"peak_rss_kb\": {peak_rss:.0},\n"));
    json.push_str(&format!("  \"cells_skipped\": {skipped},\n"));
    json.push_str("  \"cells\": [\n");
    for (i, entry) in lines.iter().enumerate() {
        let fields: Vec<String> = entry
            .iter()
            .map(|(k, v)| {
                if v.parse::<f64>().is_ok() {
                    format!("\"{k}\": {v}")
                } else {
                    format!("\"{k}\": \"{v}\"")
                }
            })
            .collect();
        let comma = if i + 1 < lines.len() { "," } else { "" };
        json.push_str(&format!("    {{{}}}{comma}\n", fields.join(", ")));
    }
    json.push_str("  ]\n}\n");
    if let Err(e) = std::fs::write(&bench, &json) {
        eprintln!("xtask: could not write {}: {e}", bench.display());
        return ExitCode::FAILURE;
    }
    let failures = scale_cell_failures(&baseline, &scale_cell_rows(&json));
    for failure in &failures {
        eprintln!("xtask: scale-check FAILED — {failure}");
    }
    if !failures.is_empty() {
        return ExitCode::FAILURE;
    }
    eprintln!(
        "xtask: scale-check passed — max executed P = {max_p}, {best_rate:.0} ranks/s, \
         peak RSS {:.0} MB{}; metrics in {}",
        peak_rss / 1024.0,
        if skipped > 0 { format!(" ({skipped} cell(s) skipped)") } else { String::new() },
        bench.display()
    );
    ExitCode::SUCCESS
}

/// The `pmm serve` chaos soak: run `pmm-bench`'s `serve_chaos` binary in
/// release mode with the wall-clock budget exported as
/// `PMM_SERVE_SOAK_SECS`, let its own invariant checks gate the exit
/// status, and collect its `SERVE: key=value` metric lines into
/// `BENCH_serve.json` at the workspace root (client-side tally,
/// server-side counters, and derived throughput / latency-percentile /
/// shed-rate / cache-hit-rate figures).
fn serve_soak(budget: Duration) -> ExitCode {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string());
    let root = workspace_root();
    eprintln!("xtask: serve-soak — pmm-serve chaos harness ({}s budget)", budget.as_secs());
    let start = Instant::now();
    let output = match Command::new(&cargo)
        .args(["run", "--release", "-p", "pmm-bench", "--bin", "serve_chaos"])
        .env("PMM_SERVE_SOAK_SECS", budget.as_secs().to_string())
        .current_dir(&root)
        .output()
    {
        Ok(out) => out,
        Err(e) => {
            eprintln!("xtask: could not launch the serve_chaos harness: {e}");
            return ExitCode::FAILURE;
        }
    };
    let stdout = String::from_utf8_lossy(&output.stdout);
    let stderr = String::from_utf8_lossy(&output.stderr);
    print!("{stdout}");
    eprint!("{stderr}");
    if !output.status.success() {
        eprintln!("xtask: serve-soak FAILED");
        return ExitCode::FAILURE;
    }

    // The harness prints one `SERVE: key=value ...` line per section;
    // each section carries a marker key to recognise it by.
    let lines: Vec<Vec<(&str, &str)>> = stdout
        .lines()
        .filter_map(|l| l.find("SERVE:").map(|i| &l[i + "SERVE:".len()..]))
        .map(|l| l.split_whitespace().filter_map(|tok| tok.split_once('=')).collect())
        .collect();
    let section = |marker: &str| -> Option<&Vec<(&str, &str)>> {
        lines.iter().find(|entry| entry.iter().any(|(k, _)| *k == marker))
    };
    let render = |entry: &[(&str, &str)]| -> String {
        let fields: Vec<String> = entry
            .iter()
            .map(|(k, v)| {
                if v.parse::<f64>().is_ok() {
                    format!("\"{k}\": {v}")
                } else {
                    format!("\"{k}\": \"{v}\"")
                }
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    };
    let (Some(client), Some(server), Some(derived)) =
        (section("requests"), section("received"), section("throughput_rps"))
    else {
        eprintln!("xtask: serve-soak passed but its SERVE: metric lines are missing");
        return ExitCode::FAILURE;
    };
    let verdict = section("verdict")
        .and_then(|e| e.iter().find(|(k, _)| *k == "verdict").map(|(_, v)| *v))
        .unwrap_or("unknown");

    let mut json = String::from("{\n");
    json.push_str(&format!("  \"budget_secs\": {},\n", budget.as_secs()));
    json.push_str(&format!("  \"wall_secs\": {:.3},\n", start.elapsed().as_secs_f64()));
    json.push_str(&format!("  \"verdict\": \"{verdict}\",\n"));
    json.push_str(&format!("  \"client\": {},\n", render(client)));
    json.push_str(&format!("  \"server\": {},\n", render(server)));
    json.push_str(&format!("  \"derived\": {}\n", render(derived)));
    json.push_str("}\n");
    let bench = root.join("BENCH_serve.json");
    if let Err(e) = std::fs::write(&bench, &json) {
        eprintln!("xtask: could not write {}: {e}", bench.display());
        return ExitCode::FAILURE;
    }
    let derived_field = |key: &str| -> &str {
        derived.iter().find(|(k, _)| *k == key).map(|(_, v)| *v).unwrap_or("?")
    };
    eprintln!(
        "xtask: serve-soak passed — {} rps, p50 {} µs, p99 {} µs, shed rate {}, \
         cache hit rate {}; metrics in {}",
        derived_field("throughput_rps"),
        derived_field("p50_us"),
        derived_field("p99_us"),
        derived_field("shed_rate"),
        derived_field("cache_hit_rate"),
        bench.display()
    );
    ExitCode::SUCCESS
}

/// `cargo xtask calibrate [budget-secs]`: run the in-process probe suite
/// via `pmm calibrate` and write the fitted α-β-γ constants to
/// `calibration.json` at the workspace root (gitignored — the constants
/// describe *this* host, so they are never committed).
fn calibrate(budget_secs: f64) -> ExitCode {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string());
    let root = workspace_root();
    let out = root.join("calibration.json");
    eprintln!("xtask: calibrate — fitting machine constants ({budget_secs}s budget)");
    let status = Command::new(&cargo)
        .args(["run", "--release", "-q", "-p", "pmm-cli", "--bin", "pmm", "--", "calibrate"])
        .args(["--budget-secs", &budget_secs.to_string()])
        .args(["--out", &out.display().to_string()])
        .current_dir(&root)
        .status();
    match status {
        Ok(s) if s.success() => {
            eprintln!("xtask: calibrate wrote {}", out.display());
            ExitCode::SUCCESS
        }
        _ => {
            eprintln!("xtask: calibrate FAILED");
            ExitCode::FAILURE
        }
    }
}

/// Pull `key=value` out of a `KERNELS:` marker line (first occurrence).
fn marker_value<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    line.split_whitespace()
        .filter_map(|tok| tok.split_once('='))
        .find(|(k, _)| *k == key)
        .map(|(_, v)| v)
}

/// How far the best kernel may regress against the committed
/// `BENCH_kernels.json` baseline before the gate fails (fraction of the
/// baseline GFLOP/s that must survive).
const KERNEL_BENCH_FLOOR: f64 = 0.8;

/// `cargo xtask kernel-bench [budget-secs]`: run the `kernel_bench`
/// harness (per-tier GFLOP/s, calibration fit, Theorem 3 validation
/// cells — its own checks gate the exit status), parse its `KERNELS:`
/// marker lines into `BENCH_kernels.json` at the workspace root, and
/// fail if the best kernel's GFLOP/s dropped more than 20% below the
/// committed baseline's `best_gflops`.
fn kernel_bench(budget_secs: f64) -> ExitCode {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string());
    let root = workspace_root();
    let bench = root.join("BENCH_kernels.json");
    // Read the committed baseline before the new run overwrites it.
    let baseline_gflops: Option<f64> = std::fs::read_to_string(&bench).ok().and_then(|json| {
        json.lines()
            .find(|l| l.contains("\"best_gflops\""))
            .and_then(|l| l.split(':').nth(1))
            .and_then(|v| v.trim().trim_end_matches(',').parse().ok())
    });
    eprintln!("xtask: kernel-bench — local kernels + calibration ({budget_secs}s budget)");
    let start = Instant::now();
    let output = match Command::new(&cargo)
        .args(["run", "--release", "-p", "pmm-bench", "--bin", "kernel_bench"])
        .arg("--")
        .arg(budget_secs.to_string())
        .current_dir(&root)
        .output()
    {
        Ok(out) => out,
        Err(e) => {
            eprintln!("xtask: could not launch the kernel_bench harness: {e}");
            return ExitCode::FAILURE;
        }
    };
    let stdout = String::from_utf8_lossy(&output.stdout);
    print!("{stdout}");
    eprint!("{}", String::from_utf8_lossy(&output.stderr));
    if !output.status.success() {
        eprintln!("xtask: kernel-bench FAILED (harness checks)");
        return ExitCode::FAILURE;
    }

    let lines: Vec<&str> = stdout
        .lines()
        .filter_map(|l| l.find("KERNELS:").map(|i| l[i + "KERNELS:".len()..].trim()))
        .collect();
    let kernels: Vec<&&str> = lines.iter().filter(|l| l.starts_with("kernel ")).collect();
    let cells: Vec<&&str> = lines.iter().filter(|l| l.starts_with("cell ")).collect();
    let calibration = lines.iter().find(|l| l.starts_with("calibration "));
    let summary = lines.iter().find(|l| l.starts_with("summary "));
    let (Some(calibration), Some(summary)) = (calibration, summary) else {
        eprintln!("xtask: kernel-bench passed but its KERNELS: marker lines are missing");
        return ExitCode::FAILURE;
    };
    let render = |line: &str, skip: usize| -> String {
        let fields: Vec<String> = line
            .split_whitespace()
            .skip(skip)
            .filter_map(|tok| tok.split_once('='))
            .map(|(k, v)| {
                if v.parse::<f64>().is_ok() {
                    format!("\"{k}\": {v}")
                } else {
                    format!("\"{k}\": \"{v}\"")
                }
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    };

    let mut json = String::from("{\n");
    json.push_str(&format!("  \"budget_secs\": {budget_secs},\n"));
    json.push_str(&format!("  \"wall_secs\": {:.3},\n", start.elapsed().as_secs_f64()));
    for key in ["best_kernel", "best_gflops", "naive_gflops", "speedup", "max_err_pct"] {
        let v = marker_value(summary, key).unwrap_or("0");
        if v.parse::<f64>().is_ok() {
            json.push_str(&format!("  \"{key}\": {v},\n"));
        } else {
            json.push_str(&format!("  \"{key}\": \"{v}\",\n"));
        }
    }
    json.push_str(&format!("  \"calibration\": {},\n", render(calibration, 1)));
    json.push_str("  \"kernels\": [\n");
    for (i, line) in kernels.iter().enumerate() {
        let comma = if i + 1 < kernels.len() { "," } else { "" };
        json.push_str(&format!("    {}{comma}\n", render(line, 1)));
    }
    json.push_str("  ],\n  \"cells\": [\n");
    for (i, line) in cells.iter().enumerate() {
        let comma = if i + 1 < cells.len() { "," } else { "" };
        json.push_str(&format!("    {}{comma}\n", render(line, 1)));
    }
    json.push_str("  ]\n}\n");
    if let Err(e) = std::fs::write(&bench, &json) {
        eprintln!("xtask: could not write {}: {e}", bench.display());
        return ExitCode::FAILURE;
    }

    let new_gflops: f64 =
        marker_value(summary, "best_gflops").and_then(|v| v.parse().ok()).unwrap_or(0.0);
    if let Some(base) = baseline_gflops {
        if new_gflops < KERNEL_BENCH_FLOOR * base {
            eprintln!(
                "xtask: kernel-bench FAILED — best kernel regressed to {new_gflops:.2} GFLOP/s, \
                 below {:.0}% of the committed baseline {base:.2}",
                100.0 * KERNEL_BENCH_FLOOR
            );
            return ExitCode::FAILURE;
        }
        eprintln!(
            "xtask: kernel-bench passed — best {new_gflops:.2} GFLOP/s \
             (baseline {base:.2}); metrics in {}",
            bench.display()
        );
    } else {
        eprintln!(
            "xtask: kernel-bench passed — best {new_gflops:.2} GFLOP/s (no baseline to \
             compare); metrics in {}",
            bench.display()
        );
    }
    ExitCode::SUCCESS
}

fn run_steps(steps: &[Step]) -> ExitCode {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string());
    let root = workspace_root();
    for step in steps {
        eprintln!("xtask: {}", step.name);
        let status = Command::new(&cargo).args(&step.args).current_dir(&root).status();
        match status {
            Ok(s) if s.success() => {}
            Ok(s) => {
                eprintln!("xtask: step '{}' failed with {s}", step.name);
                return ExitCode::FAILURE;
            }
            Err(e) => {
                eprintln!("xtask: could not launch '{}': {e}", step.name);
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

/// The workspace this process was asked to work on, resolved at run
/// time: a binary built in one checkout and found in the `target/` of a
/// copy (a copied tree, a restored CI cache) must gate — and write its
/// `BENCH_*.json` into — the copy, not the tree it was compiled in.
fn workspace_root() -> PathBuf {
    let manifest_dir = std::env::var_os("CARGO_MANIFEST_DIR").map(PathBuf::from);
    resolve_workspace_root(manifest_dir.as_deref(), std::env::current_dir().ok().as_deref())
}

/// xtask lives at `<root>/xtask`, so the root is the parent of the
/// `CARGO_MANIFEST_DIR` cargo sets for `cargo run` (what `cargo xtask`
/// is); without one, the nearest directory at or above `cwd` whose
/// manifest has a `[workspace]` table; and only failing both, the
/// parent of the manifest directory compiled in.
fn resolve_workspace_root(manifest_dir: Option<&Path>, cwd: Option<&Path>) -> PathBuf {
    let is_root = |dir: &&Path| {
        std::fs::read_to_string(dir.join("Cargo.toml")).is_ok_and(|m| m.contains("[workspace]"))
    };
    manifest_dir
        .and_then(Path::parent)
        .filter(is_root)
        .or_else(|| cwd?.ancestors().find(is_root))
        .unwrap_or_else(|| {
            Path::new(env!("CARGO_MANIFEST_DIR"))
                .parent()
                .expect("xtask crate sits directly under the workspace root")
        })
        .to_path_buf()
}

/// Scan all workspace `.rs` sources for forbidden tokens: `unsafe` (the
/// workspace denies the `unsafe_code` lint and the policy is zero unsafe
/// code) plus the `todo!`/`dbg!` leftover-macros (denied via
/// `clippy::todo`/`clippy::dbg_macro`). The grep backstops all three
/// lints against `#[allow]` escapes. Returns true when clean.
fn keyword_audit(root: &Path) -> bool {
    // Needles built from parts so the audit does not flag its own source.
    let needles: Vec<String> =
        vec![["un", "safe"].concat(), ["to", "do", "!"].concat(), ["db", "g!"].concat()];
    let mut violations = Vec::new();
    for dir in ["src", "crates", "shims", "xtask"] {
        scan_dir(&root.join(dir), &needles, &mut violations);
    }
    if violations.is_empty() {
        return true;
    }
    eprintln!("xtask: {} forbidden token(s) found (policy: none allowed):", violations.len());
    for (path, line_no, line) in &violations {
        eprintln!("  {}:{line_no}: {}", path.display(), line.trim());
    }
    false
}

fn scan_dir(dir: &Path, needles: &[String], violations: &mut Vec<(PathBuf, usize, String)>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n == "target") {
                continue;
            }
            scan_dir(&path, needles, violations);
        } else if path.extension().is_some_and(|e| e == "rs") {
            let Ok(text) = std::fs::read_to_string(&path) else {
                continue;
            };
            for (i, line) in text.lines().enumerate() {
                // Comment lines are prose, not code: a commented-out token
                // cannot compile, so it is not a policy violation.
                if line.trim_start().starts_with("//") {
                    continue;
                }
                if needles.iter().any(|needle| has_word(line, needle)) {
                    violations.push((path.clone(), i + 1, line.to_string()));
                }
            }
        }
    }
}

/// Word-boundary match: `needle` not embedded in a larger identifier.
fn has_word(line: &str, needle: &str) -> bool {
    let ident = |c: char| c.is_alphanumeric() || c == '_';
    let mut start = 0;
    while let Some(pos) = line[start..].find(needle) {
        let at = start + pos;
        let before_ok = at == 0 || !line[..at].chars().next_back().is_some_and(ident);
        let after_ok = !line[at + needle.len()..].chars().next().is_some_and(ident);
        if before_ok && after_ok {
            return true;
        }
        start = at + needle.len();
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_cell_rows_reads_the_committed_cell_lines() {
        // The header's own `peak_rss_kb` line has no label and is skipped.
        let json = "{\n  \"best_ranks_per_sec\": 7277,\n  \"peak_rss_kb\": 5376000,\n  \
            \"cells\": [\n    \
            {\"label\": \"p10k\", \"p\": 10000, \"secs\": 1.374, \"ranks_per_sec\": 7277, \
            \"peak_rss_kb\": 116764, \"host_bytes_per_rank\": 9630, \"picks\": 0},\n    \
            {\"label\": \"p100k\", \"p\": 100000, \"ranks_per_sec\": 846, \
            \"peak_rss_kb\": 5376000}\n  ]\n}\n";
        assert_eq!(
            scale_cell_rows(json),
            vec![("p10k".to_string(), 7277.0, 116764.0), ("p100k".to_string(), 846.0, 5376000.0)]
        );
    }

    #[test]
    fn scale_cells_are_held_to_a_rate_floor_and_an_rss_ceiling() {
        let row = |label: &str, rate: f64, rss_kb: f64| (label.to_string(), rate, rss_kb);
        let committed = [row("p1k-default", 3108.0, 325_580.0), row("p10k", 30_557.0, 94_160.0)];
        // Half the rate and 1.25× the memory are still inside; a cell
        // with no committed row has nothing to be held to.
        let inside = [
            row("p1k-default", 1554.0, 406_975.0),
            row("p10k", 60_000.0, 1.0),
            row("new", 1.0, 9e9),
        ];
        assert_eq!(scale_cell_failures(&committed, &inside), Vec::<String>::new());
        // The parent's P = 1024 cell (501 004 kB) against this commit's row.
        let outside = [row("p1k-default", 2463.0, 501_004.0), row("p10k", 15_000.0, 94_160.0)];
        let failures = scale_cell_failures(&committed, &outside);
        assert_eq!(failures.len(), 2, "{failures:?}");
        assert!(failures[0].contains("p1k-default peaked at 501004 kB"), "{failures:?}");
        assert!(failures[1].contains("p10k regressed to 15000 ranks/s"), "{failures:?}");
    }

    #[test]
    fn word_match_respects_identifier_boundaries() {
        // The needle is spelled in parts everywhere so the audit (which
        // scans this file too) does not flag its own test fixtures.
        let needle = ["un", "safe"].concat();
        assert!(has_word(&format!("let x = {needle} {{ 1 }};"), &needle));
        assert!(has_word(&format!("{needle} fn f() {{}}"), &needle));
        assert!(has_word(&format!("call({needle}-audit)"), &needle));
        assert!(!has_word(&format!("deny_{needle}_code_everywhere()"), &needle));
        assert!(!has_word(&format!("let {needle}ty = 1;"), &needle));
        assert!(!has_word("totally safe code", &needle));
    }

    #[test]
    fn audit_needles_catch_leftover_macros() {
        // Spelled in parts for the same reason as above.
        let todo = ["to", "do", "!"].concat();
        let dbg = ["db", "g!"].concat();
        assert!(has_word(&format!("{todo}(\"wire this up\")"), &todo));
        assert!(has_word(&format!("let x = {dbg}(value);"), &dbg));
        assert!(!has_word(&format!("method_{todo}()"), &todo));
        assert!(!has_word("debug!(value)", &dbg));
    }

    #[test]
    fn workspace_root_contains_the_root_manifest() {
        assert!(workspace_root().join("Cargo.toml").exists());

        // Run-time resolution: a copied checkout wins over the tree this
        // binary was compiled in.
        let built_in = Path::new(env!("CARGO_MANIFEST_DIR")).parent().expect("root");
        let copy = std::env::temp_dir().join(format!("pmm-xtask-root-{}", std::process::id()));
        let nested = copy.join("crates").join("dense");
        std::fs::create_dir_all(copy.join("xtask")).expect("temp tree");
        std::fs::create_dir_all(&nested).expect("temp tree");
        std::fs::write(copy.join("Cargo.toml"), "[workspace]\nmembers = []\n").expect("manifest");
        std::fs::write(nested.join("Cargo.toml"), "[package]\nname = \"x\"\n").expect("manifest");
        let by_manifest = resolve_workspace_root(Some(&copy.join("xtask")), Some(built_in));
        let by_cwd = resolve_workspace_root(None, Some(&nested));
        // A manifest dir that is not under a workspace root is skipped.
        let skipped = resolve_workspace_root(Some(&nested), Some(&copy));
        let fallback = resolve_workspace_root(None, None);
        let _ = std::fs::remove_dir_all(&copy);
        assert_eq!(by_manifest, copy);
        assert_eq!(by_cwd, copy);
        assert_eq!(skipped, copy);
        assert_eq!(fallback, built_in);
    }
}
