//! The gate table: every `cargo xtask <name>` is one [`Gate`] entry of
//! [`GATES`], and dispatch, the usage text, budget parsing and the
//! artifact pipeline are all derived from it. To add a measurement to an
//! artifact gate, print one more `key=value` field from its emitter and
//! add one [`Bound`] here; to add a gate, add one entry.

use crate::artifact::{At, Bound, Grammar, Row};
use std::path::Path;

/// One `cargo xtask` subcommand. Only cargo gates use the fields after
/// `run`.
pub struct Gate {
    pub name: &'static str,
    /// What the gate runs and asserts; printed by `cargo xtask`, which
    /// appends the budget default, the artifact and the bounds from the
    /// fields that enforce them.
    pub help: &'static str,
    pub run: Run,
    /// `(default seconds, how the child learns it)` for gates that take
    /// `[budget-secs]`.
    pub budget: Option<(u64, Via)>,
    /// One cargo process each, in order.
    pub steps: &'static [Step],
    /// `(base, stride)`: repeat the steps until the budget is spent,
    /// round `i` under `PMM_SEED = base + i · stride`.
    pub fresh_seeds: Option<(u64, u64)>,
    pub artifact: Option<Spec>,
}

pub enum Run {
    /// A function of the workspace root; true when clean.
    Fn(fn(&Path) -> bool),
    /// Every table gate the predicate selects, each under its default
    /// budget, all run even when one fails.
    Each(fn(&Gate) -> bool),
    /// `cargo <these words> <step args>` once per step.
    Cargo(&'static str),
}

#[derive(Clone, Copy)]
pub enum Via {
    /// Only xtask's own clock reads it: a step starts only while the
    /// budget lasts.
    Clock,
    /// Exported to every step under this variable.
    Env(&'static str),
    /// Appended to every step's arguments.
    Arg,
}

pub struct Step {
    /// Names the step in messages (the environment does where there is
    /// none); for an artifact gate, the id of the row the step emits —
    /// what a skipped step carries over from the committed file.
    pub label: &'static str,
    /// Whitespace-separated, like [`Run::Cargo`]'s.
    pub args: &'static str,
    pub env: &'static [(&'static str, &'static str)],
    /// Memory (GB) the step needs; skipped — like one the budget cannot
    /// reach, not OOM-killed — when `MemAvailable` is below it.
    pub need_gb: u64,
}

/// How a gate's output becomes its `BENCH_*.json`.
pub struct Spec {
    pub file: &'static str,
    pub grammar: Grammar,
    /// The field that names a row (`label`, `kind`); `""` where no bound
    /// or step addresses single rows.
    pub id_field: &'static str,
    /// What xtask derives over the rows for the `summary` object.
    pub summary: Option<fn(&Measured) -> Row>,
    pub bounds: &'static [Bound],
}

/// What a summary function sees of a finished run.
pub struct Measured<'a> {
    pub root: &'a Path,
    /// Standard output of every step, concatenated.
    pub stdout: &'a str,
    pub rows: &'a [Row],
}

const STEP: Step = Step { label: "", args: "", env: &[], need_gb: 0 };
const GATE: Gate = Gate {
    name: "",
    help: "",
    run: Run::Cargo(""),
    budget: None,
    steps: &[STEP],
    fresh_seeds: None,
    artifact: None,
};

const fn under(env: &'static [(&'static str, &'static str)]) -> Step {
    Step { env, ..STEP }
}

const fn step(label: &'static str, args: &'static str, need_gb: u64) -> Step {
    Step { label, args, need_gb, ..STEP }
}

const fn floor(row: &'static str, field: &'static str, factor: f64) -> Bound {
    Bound { row, field, at: At::Least, factor }
}

const fn ceiling(row: &'static str, field: &'static str, factor: f64) -> Bound {
    Bound { row, field, at: At::Most, factor }
}

/// The pinned seed matrix of the conformance and trace-attribution
/// gates: arbitrary but fixed, so CI failures replay locally with the
/// printed `PMM_SEED`.
const SEED_MATRIX: &[Step] = &[
    under(&[("PMM_SEED", "0x00C0FFEE")]),
    under(&[("PMM_SEED", "1")]),
    under(&[("PMM_SEED", "0xDEADBEEF")]),
];

/// Pinned schedule seeds × message fault rates; rate 0.0 doubles as the
/// "armed but silent" regression cell.
const FAULT_MATRIX: &[Step] = &[
    under(&[("PMM_SEED", "7"), ("PMM_FAULT_RATE", "0.0")]),
    under(&[("PMM_SEED", "7"), ("PMM_FAULT_RATE", "0.05")]),
    under(&[("PMM_SEED", "7"), ("PMM_FAULT_RATE", "0.15")]),
    under(&[("PMM_SEED", "0x00C0FFEE"), ("PMM_FAULT_RATE", "0.0")]),
    under(&[("PMM_SEED", "0x00C0FFEE"), ("PMM_FAULT_RATE", "0.05")]),
    under(&[("PMM_SEED", "0x00C0FFEE"), ("PMM_FAULT_RATE", "0.15")]),
];

/// The `tests/scale.rs` cells in ascending P: the row label the test
/// prints, the test, and whole GB above its measured `VmHWM` (0.33, 0.33,
/// 0.20, 0.09 and 5.0 GB; the 10^6 cell's 24 GB is the last estimate, not
/// re-measured on a host that cannot hold it). The first three are the
/// default-on cells: the world `pmm simulate` builds (seeded, schedule
/// recording on) and the unseeded `run_async` default.
const SCALE_CELLS: &[Step] = &[
    step("p1k-default", "alg1_executes_on_the_default_seeded_world_at_p_1024", 1),
    step("p1k-unseeded", "alg1_executes_on_the_default_unseeded_world_at_p_1024_under_1_gb", 1),
    step("p4k-default", "alg1_executes_on_the_default_seeded_world_at_p_4096", 1),
    step("p10k", "alg1_executes_at_p_10_4_with_exact_eq3_attribution", 1),
    step("p100k", "alg1_executes_at_p_10_5_with_exact_eq3_attribution", 6),
    step("p1m", "alg1_executes_at_p_10_6", 24),
];

pub static GATES: &[Gate] = &[
    Gate {
        name: "check",
        help: "the full static-analysis gate CI runs: fmt, clippy, audit, docs",
        run: Run::Each(|g| matches!(g.name, "fmt" | "clippy" | "audit" | "docs")),
        ..GATE
    },
    Gate {
        name: "fmt",
        help: "cargo fmt --all --check under the committed rustfmt.toml",
        run: Run::Cargo("fmt --all --check"),
        ..GATE
    },
    Gate {
        name: "clippy",
        help: "clippy -D warnings plus the [workspace.lints] policy over all\n\
               targets, then over lib/bin code additionally denying\n\
               clippy::unwrap_used: non-test code must use expect() with a\n\
               message naming the violated invariant",
        run: Run::Cargo("clippy --workspace"),
        steps: &[
            step("all targets", "--all-targets -- -D warnings", 0),
            step("unwrap policy", "--lib --bins -- -D warnings -D clippy::unwrap_used", 0),
        ],
        ..GATE
    },
    Gate {
        name: "audit",
        help: "scan every workspace .rs file (comments excluded) for the\n\
               tokens the lints deny, so even #[allow]-escaped ones are caught;\n\
               the keyword among them is allowed in one file, pmm-dense's\n\
               AVX-512 microkernel, and there only under a SAFETY comment",
        run: Run::Fn(crate::keyword_audit),
        ..GATE
    },
    Gate {
        name: "docs",
        help: "rustdoc with -D warnings over every library target (missing_docs\n\
               is warn-level in the core crates, so an undocumented public item\n\
               fails here; bins are skipped, cargo #6313), then all doctests,\n\
               then pmm-dense's suite rebuilt with no RUSTFLAGS, so the safe\n\
               microkernel and the non-FMA madd are compiled and tested on a\n\
               host where target-cpu=native selects the AVX-512 tile instead",
        run: Run::Cargo(""),
        steps: &[
            Step {
                env: &[("RUSTDOCFLAGS", "-D warnings")],
                ..step("rustdoc", "doc --workspace --no-deps --lib", 0)
            },
            step("doctests", "test --doc --workspace -q", 0),
            // An empty RUSTFLAGS replaces the rustflags of
            // .cargo/config.toml (`--config build.rustflags=[]` would be
            // appended to them, which changes nothing).
            Step { env: &[("RUSTFLAGS", "")], ..step("portable pmm-dense", "test -p pmm-dense -q", 0) },
        ],
        ..GATE
    },
    Gate {
        name: "calibrate",
        help: "fit this host's alpha-beta-gamma from the in-process probes\n\
               (pmm calibrate) into the git-ignored calibration.json",
        budget: Some((10, Via::Arg)),
        run: Run::Cargo(
            "run --release -q -p pmm-cli --bin pmm -- calibrate --out calibration.json --budget-secs",
        ),
        ..GATE
    },
    Gate {
        name: "conformance",
        help: "tests/conformance.rs — all regimes x all algorithms — under each\n\
               seed of the pinned matrix; a failure names the PMM_SEED that\n\
               replays it",
        run: Run::Cargo("test --release --test conformance"),
        steps: SEED_MATRIX,
        ..GATE
    },
    Gate {
        name: "trace-check",
        help: "tests/trace_attribution.rs under the pinned seed matrix: per-phase\n\
               words from the structured trace must equal the eq. (3)\n\
               prediction, the trace critical path must reproduce the simulator\n\
               clock, and the Chrome export must be byte-stable",
        run: Run::Cargo("test --release --test trace_attribution"),
        steps: SEED_MATRIX,
        ..GATE
    },
    Gate {
        name: "fuzz-schedules",
        help: "the schedule-fuzz entry test (which itself fans a base seed out\n\
               over several schedules) under fresh base seeds until the budget\n\
               runs out; prints the failing PMM_SEED on the first\n\
               schedule-dependent divergence",
        budget: Some((60, Via::Clock)),
        run: Run::Cargo("test --release --test determinism -- schedule_fuzz_smoke --exact"),
        // The stride leaves room for the test's own fan-out.
        fresh_seeds: Some((0x5EED_0000, 0x100)),
        ..GATE
    },
    Gate {
        name: "fault-sweep",
        help: "tests/fault_tolerance.rs under every (PMM_SEED, PMM_FAULT_RATE)\n\
               cell of the pinned matrix, cells past the budget skipped; a\n\
               failure names the pair that replays it",
        budget: Some((150, Via::Clock)),
        run: Run::Cargo("test --release --test fault_tolerance"),
        steps: FAULT_MATRIX,
        ..GATE
    },
    Gate {
        name: "kernel-bench",
        help: "the kernel_bench harness (release), whose own checks gate the\n\
               exit status: bitwise identity of the blocked tier vs the pinned\n\
               naive oracle, >= 5x blocked speedup at n = 1024, and the\n\
               calibrated alpha-beta-gamma-delta prediction within 25% of\n\
               measured wall-clock on one cell per Theorem 3 regime",
        budget: Some((20, Via::Arg)),
        run: Run::Cargo("run --release -p pmm-bench --bin kernel_bench --"),
        artifact: Some(Spec {
            file: "BENCH_kernels.json",
            grammar: Grammar {
                marker: "KERNELS:",
                kinds: &[
                    ("kernel", "kernel"),
                    ("calibration", "calibration"),
                    ("cell", "cell"),
                    ("summary", "summary"),
                ],
            },
            id_field: "label",
            summary: None,
            // Every size of the fast tier has its own floor (a row can
            // halve with the best one unmoved), and the largest its
            // share of the FMA roofline: 49-80 % over seven runs of the
            // zmm tile against under 40 % for a fall-back to ymm, so
            // commit a median run (docs/PERFORMANCE.md, artifact table).
            bounds: &[
                floor("summary", "best_gflops", 0.8),
                floor("blocked-n256", "gflops", 0.8),
                floor("blocked-n512", "gflops", 0.8),
                floor("blocked-n1024", "gflops", 0.8),
                floor("blocked-n1024", "pct_roofline", 0.8),
            ],
        }),
        ..GATE
    },
    Gate {
        name: "scale-check",
        help: "tests/scale.rs (release, event loop), one process per cell in\n\
               ascending P so a spent budget or short memory drops the biggest\n\
               cells first (a skipped cell's committed row is carried over):\n\
               Algorithm 1 end-to-end on default worlds (schedule recording on)\n\
               at P = 1024 and 4096, then with recording off at P = 10^4, 10^5\n\
               and 10^6 (~24 GB), with exact per-rank per-phase eq. (3)\n\
               attribution on integral section-5.2 grids and the happens-before\n\
               audit on in every cell (each rank's exported event count must\n\
               equal msgs_sent + msgs_recv)",
        budget: Some((300, Via::Clock)),
        run: Run::Cargo("test --release --test scale -- --include-ignored --nocapture --exact"),
        steps: SCALE_CELLS,
        artifact: Some(Spec {
            file: "BENCH_scale.json",
            grammar: Grammar { marker: "SCALE:", kinds: &[] },
            id_field: "label",
            summary: Some(scale_summary),
            // Cells are seconds to minutes of host time on a shared VM,
            // so the time floor is wide; a cell's peak RSS is pinned by
            // the schedule seed, not by the host's load, and repeats to
            // a fraction of a percent: 25 % is a copy of a block coming
            // back, not noise.
            bounds: &[floor("*", "ranks_per_sec", 0.5), ceiling("*", "peak_rss_kb", 1.25)],
        }),
        ..GATE
    },
    Gate {
        name: "chaos-soak",
        help: "tests/chaos.rs (release, --include-ignored): checkpointed recovery\n\
               for all six algorithms under kill / cascade / healing-partition /\n\
               straggler-storm plans, bitwise-checked against the fault-free\n\
               reference and the recovery goodput model, plus the fault-armed\n\
               P = 10^4 cell; every executed cell must recover",
        budget: Some((240, Via::Env("PMM_CHAOS_BUDGET_SECS"))),
        run: Run::Cargo("test --release --test chaos -- --include-ignored --nocapture --test-threads=1"),
        artifact: Some(Spec {
            file: "BENCH_chaos.json",
            grammar: Grammar { marker: "CHAOS:", kinds: &[] },
            id_field: "",
            summary: Some(chaos_summary),
            // The committed rate is 1, so this is "100 % recovery over at
            // least one cell" (no cell reads as rate 0).
            bounds: &[floor("summary", "recovery_success_rate", 1.0)],
        }),
        ..GATE
    },
    Gate {
        name: "dpor",
        help: "the schedule-space race checker (tests/explore.rs, release):\n\
               exhaustive interleaving certificates for the pinned collective\n\
               workloads, budgeted frontier exploration of Algorithm 1, and a\n\
               1000-program generator soak against the intent oracle; a failing\n\
               schedule prints its PMM_SCHEDULE=prefix:... repro line",
        budget: Some((300, Via::Env("PMM_EXPLORE_BUDGET_SECS"))),
        run: Run::Cargo("test --release --test explore -- --nocapture --test-threads=1"),
        steps: &[under(&[("PMM_EXPLORE_PROGRAMS", "1000")])],
        artifact: Some(Spec {
            file: "BENCH_explore.json",
            grammar: Grammar { marker: "DPOR:", kinds: &[] },
            id_field: "",
            summary: Some(dpor_summary),
            // Thread hand-offs on a shared 2-vCPU VM: 1 443-2 990
            // schedules/s over seven quiet runs, 620 in a noisy phase.
            bounds: &[floor("summary", "schedules_per_sec", 0.5)],
        }),
        ..GATE
    },
    Gate {
        name: "serve-soak",
        help: "the serve_chaos harness (release) drives the pmm serve advisor\n\
               with mixed valid / burst-overload / panic / malformed / oversized\n\
               / slowloris traffic against a deliberately tiny queue for the\n\
               budget, asserting zero process deaths, every request answered,\n\
               panics isolated and bounded memory",
        budget: Some((10, Via::Env("PMM_SERVE_SOAK_SECS"))),
        run: Run::Cargo("run --release -p pmm-bench --bin serve_chaos"),
        artifact: Some(Spec {
            file: "BENCH_serve.json",
            grammar: Grammar {
                marker: "SERVE:",
                kinds: &[
                    ("budget_secs", "client"),
                    ("received", "server"),
                    ("throughput_rps", "derived"),
                    ("verdict", "verdict"),
                ],
            },
            id_field: "kind",
            summary: None,
            // Throughput repeats to ±3 %; p99 rides the 50 ms deadline
            // path and spread 4.1-30.3 ms over nine runs (median 8.6),
            // so the ceiling only catches a tail at the deadline itself.
            bounds: &[
                floor("derived", "throughput_rps", 0.5),
                ceiling("derived", "p99_us", 5.0),
            ],
        }),
        ..GATE
    },
    Gate {
        name: "repo",
        help: "the repo's own size and tier-1 cost as first-class metrics: lines\n\
               of Rust under crates/ and across the repo, and `cargo test -q`\n\
               (tier 1) with libtest's `test result:` lines summed",
        run: Run::Cargo("test -q"),
        artifact: Some(Spec {
            file: "BENCH_repo.json",
            grammar: Grammar { marker: "", kinds: &[] },
            id_field: "",
            summary: Some(repo_summary),
            // Tier-1 test time is dominated by thread hand-offs in
            // tests/explore.rs: 28-39 s in quiet phases of the reference
            // VM, 57-69 s in slow ones (nine runs), so the ceiling mirrors
            // the 0.5x floor of every other wall-clock figure here.
            bounds: &[ceiling("summary", "tier1_secs", 2.0), floor("summary", "tier1_passed", 1.0)],
        }),
        ..GATE
    },
    Gate {
        name: "experiments",
        help: "every entry of `pmm experiment --list` (release; the registry in\n\
               crates/bench/src/experiments): standard output held byte for byte\n\
               to results/<name>.txt, which is rewritten either way; fails on a\n\
               failed self-check or a differing line, naming the file and the\n\
               line; strong_scaling (P = 262 144 executed, 4.1 GB) is skipped and\n\
               its file left alone when MemAvailable is under 5 GB",
        run: Run::Fn(crate::experiments),
        ..GATE
    },
    Gate {
        name: "bench",
        help: "every artifact gate above, in this order, each under its default\n\
               budget, then one verdict line per bound",
        run: Run::Each(|g| g.artifact.is_some()),
        ..GATE
    },
];

fn sum(rows: &[Row], key: &str) -> f64 {
    rows.iter().filter_map(|r| r.num(key)).sum()
}

/// Carried rows were not executed, so they do not count.
fn scale_summary(run: &Measured) -> Row {
    let max = |key: &str| {
        let ran = run.rows.iter().filter(|r| !r.is("carried"));
        ran.filter_map(|r| r.num(key)).fold(0.0, f64::max)
    };
    Row::default()
        .with("max_executed_p", max("p"))
        .with("best_ranks_per_sec", max("ranks_per_sec"))
        .with("peak_rss_kb", max("peak_rss_kb"))
}

/// Cells are the rows that report `recovered`; the soak's own summary
/// row counts the cells its budget skipped.
fn chaos_summary(run: &Measured) -> Row {
    let cells = run.rows.iter().filter(|r| r.get("recovered").is_some()).count() as f64;
    let rate = if cells > 0.0 { sum(run.rows, "recovered") / cells } else { 0.0 };
    Row::default()
        .with("cells", cells)
        .with("cells_skipped", sum(run.rows, "skipped"))
        .with("recovery_success_rate", rate)
}

/// Schedules per second over the exploring workloads only (the soak row
/// has `secs` but explores no schedule).
fn dpor_summary(run: &Measured) -> Row {
    let schedules = sum(run.rows, "schedules");
    let exploring = run.rows.iter().filter(|r| r.get("schedules").is_some());
    let secs: f64 = exploring.filter_map(|r| r.num("secs")).sum();
    let rate = if secs > 0.0 { (10.0 * schedules / secs).round() / 10.0 } else { 0.0 };
    Row::default()
        .with("schedules_explored", schedules)
        .with("world_runs", sum(run.rows, "runs"))
        .with("states_pruned", sum(run.rows, "pruned"))
        .with("schedules_per_sec", rate)
        .with("programs_generated", sum(run.rows, "programs"))
}

/// Lines of Rust through the keyword audit's directory walk, and the
/// totals of libtest's `test result: ok. 12 passed; 0 failed; 1 ignored;
/// … finished in 0.52s` lines over the tier-1 run.
fn repo_summary(run: &Measured) -> Row {
    let loc = |dirs: &[&str]| {
        let mut lines = 0;
        for dir in dirs {
            crate::scan_dir(&run.root.join(dir), &mut |_, text| lines += text.lines().count());
        }
        lines as f64
    };
    let results = run.stdout.lines().filter(|l| l.starts_with("test result:"));
    let before = |line: &str, word: &str| -> Option<f64> {
        let words: Vec<&str> = line.split_whitespace().collect();
        let at = words.iter().position(|w| w.trim_end_matches(';') == word)?;
        words.get(at.checked_sub(1)?)?.parse().ok()
    };
    let total = |word: &str| results.clone().filter_map(|l| before(l, word)).sum::<f64>();
    let secs = |l: &str| l.rsplit(' ').next()?.trim_end_matches('s').parse::<f64>().ok();
    Row::default()
        .with("loc_crates", loc(&["crates"]))
        .with(
            "loc_repo",
            loc(&["src", "crates", "shims", "xtask", "tests", "examples", "benchmark"]),
        )
        .with("tier1_secs", (10.0 * results.clone().filter_map(secs).sum::<f64>()).round() / 10.0)
        .with("tier1_passed", total("passed"))
        .with("tier1_ignored", total("ignored"))
}
