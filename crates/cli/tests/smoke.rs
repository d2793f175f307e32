//! End-to-end smoke tests of the `pmm` binary: exit codes are part of
//! the CLI contract (scripts and CI gate on them), so they are asserted
//! here against the real executable, not the library functions.

use std::io::Write;
use std::process::{Command, Output, Stdio};

fn pmm(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_pmm")).args(args).output().expect("pmm binary runs")
}

fn pmm_with_stdin(args: &[&str], input: &[u8]) -> Output {
    let mut child = Command::new(env!("CARGO_BIN_EXE_pmm"))
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("pmm binary spawns");
    child.stdin.take().expect("piped stdin").write_all(input).expect("write stdin");
    child.wait_with_output().expect("pmm binary runs")
}

/// Run `pmm` with `PMM_KERNEL` set to `kernel`.
fn pmm_with_kernel(kernel: &str, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_pmm"))
        .env("PMM_KERNEL", kernel)
        .args(args)
        .output()
        .expect("pmm binary runs")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

#[test]
fn simulate_at_p_256_shares_its_inputs_across_ranks() {
    // Inputs generated inside every rank's program cost O(P·n²): this
    // run took 66 s (unoptimized build) when each of the 256 ranks built
    // its own 2048×2048 A, and takes under 2 s with one shared copy.
    let t0 = std::time::Instant::now();
    let out = pmm(&["simulate", "--dims", "2048x2048x16", "--procs", "256"]);
    let secs = t0.elapsed().as_secs_f64();
    let text = stdout(&out);
    assert!(out.status.success(), "exit: {:?}\n{text}", out.status);
    assert!(text.contains("on grid 16x16x1 (256 ranks"), "{text}");
    assert!(text.contains("correct ✓"), "{text}");
    assert!(secs < 10.0, "pmm simulate at P = 256 took {secs:.1} s");
}

#[test]
fn unknown_kernel_name_exits_two_naming_the_accepted_ones() {
    // `tiled` was a tier once; it must not quietly run `auto`.
    for cmd in ["simulate", "trace"] {
        let out = pmm_with_kernel("tiled", &[cmd, "--dims", "24x12x18", "--procs", "4"]);
        assert_eq!(out.status.code(), Some(2), "{cmd}: {:?}", out.status);
        assert!(stdout(&out).is_empty(), "{cmd} must not run: {}", stdout(&out));
        let err = String::from_utf8_lossy(&out.stderr);
        for needle in ["PMM_KERNEL", "\"tiled\"", "naive|blocked|auto"] {
            assert!(err.contains(needle), "{cmd}: stderr lacks {needle}: {err}");
        }
    }
    // Commands that multiply nothing do not read the variable.
    let out = pmm_with_kernel("tiled", &["bound", "--dims", "24x12x18", "--procs", "4"]);
    assert!(out.status.success(), "{:?}", out.status);
}

#[test]
fn every_kernel_name_runs_and_is_checked_against_the_naive_oracle() {
    // PMM_KERNEL picks the kernel of the run; the reference product is
    // always the naive oracle's, so a tier is never checked against
    // itself.
    for kernel in ["naive", "blocked", "auto", " Blocked "] {
        let out = pmm_with_kernel(kernel, &["simulate", "--dims", "48x36x24", "--procs", "8"]);
        let text = stdout(&out);
        assert!(out.status.success(), "PMM_KERNEL={kernel}: {:?}\n{text}", out.status);
        assert!(text.contains("correct ✓"), "PMM_KERNEL={kernel}: {text}");
    }
    let faults = ["simulate", "--dims", "24x24x24", "--procs", "9", "--faults", "kill=4@5"];
    let out = pmm_with_kernel("blocked", &faults);
    assert!(out.status.success() && stdout(&out).contains("correct ✓"), "{}", stdout(&out));
}

#[test]
fn simulate_verified_product_exits_zero() {
    let out = pmm(&["simulate", "--dims", "24x12x18", "--procs", "4", "--seed", "3"]);
    let text = stdout(&out);
    assert!(out.status.success(), "exit: {:?}\n{text}", out.status);
    assert!(text.contains("correct ✓"), "{text}");
}

#[test]
fn simulate_with_faults_recovers_and_exits_zero() {
    let out = pmm(&[
        "simulate",
        "--dims",
        "24x24x24",
        "--procs",
        "9",
        "--seed",
        "7",
        "--faults",
        "drop=0.05,kill=4@5,seed=0xFA",
    ]);
    let text = stdout(&out);
    assert!(out.status.success(), "exit: {:?}\n{text}", out.status);
    assert!(text.contains("correct ✓"), "{text}");
    assert!(text.contains("rank 4"), "must report the killed rank: {text}");
    assert!(text.contains("kill=4@5"), "must name the fault-plan entry: {text}");
}

#[test]
fn simulate_with_multi_fault_partition_plan_recovers_and_exits_zero() {
    // The full fault grammar in one plan: two deaths (a pinned kill and
    // a cascade triggered by it), a healing partition, and a straggler
    // storm. Recovery must re-plan onto the survivors and still verify.
    let out = pmm(&[
        "simulate",
        "--dims",
        "24x24x24",
        "--procs",
        "10",
        "--seed",
        "7",
        "--faults",
        "drop=0.03,kill=4@5,cascade=9@1,part=0+1@2..20#2,storm=0.2x2.0,seed=0xFA",
    ]);
    let text = stdout(&out);
    assert!(out.status.success(), "exit: {:?}\n{text}", out.status);
    assert!(text.contains("correct ✓"), "{text}");
    assert!(text.contains("survivors"), "must report the survivor set: {text}");
    assert!(text.contains("attempt(s)"), "must report the attempt count: {text}");
}

#[test]
fn simulate_unrecoverable_fault_exits_nonzero() {
    // Zero retransmissions under heavy drop: the first lost copy
    // exhausts the sender's budget and the run must fail with a report
    // naming the message and plan, not hang or exit 0.
    let out = pmm(&[
        "simulate",
        "--dims",
        "12x12x12",
        "--procs",
        "4",
        "--faults",
        "drop=0.95,retries=0,seed=1",
    ]);
    let text = stdout(&out);
    assert!(!out.status.success(), "a hopeless fault plan must fail\n{text}");
    assert!(text.contains("UNRECOVERED"), "{text}");
    assert!(text.contains("exhausted"), "must report retry exhaustion: {text}");
}

#[test]
fn bad_faults_spec_exits_two() {
    let out = pmm(&["simulate", "--dims", "8x8x8", "--procs", "2", "--faults", "nonsense"]);
    assert_eq!(out.status.code(), Some(2), "parse errors exit 2");
    let err = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(err.contains("--faults"), "{err}");
}

#[test]
fn help_covers_every_command_and_exits_zero() {
    let out = pmm(&["help"]);
    assert!(out.status.success());
    let text = stdout(&out);
    let cmds = "bound grid advise simulate trace sweep serve experiment --faults --out";
    for cmd in cmds.split(' ') {
        assert!(text.contains(cmd), "help must mention {cmd}");
    }
}

#[test]
fn experiment_list_names_the_registry_and_a_name_prints_its_results_file() {
    let out = pmm(&["experiment", "--list"]);
    assert!(out.status.success(), "{:?}", out.status);
    let text = stdout(&out);
    let listed: Vec<&str> = text.lines().filter_map(|l| l.split_whitespace().next()).collect();
    let registry: Vec<&str> = pmm_bench::experiments::EXPERIMENTS.iter().map(|e| e.name).collect();
    assert_eq!(listed, registry);
    assert_eq!(listed.len(), 13);

    // What a name prints is, byte for byte, the committed artifact.
    let out = pmm(&["experiment", "table1"]);
    assert_eq!(out.status.code(), Some(0));
    let committed = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results/table1.txt");
    assert_eq!(stdout(&out), std::fs::read_to_string(committed).expect("results/table1.txt"));
}

#[test]
fn unknown_experiment_exits_two_listing_the_names() {
    let out = pmm(&["experiment", "nope"]);
    assert_eq!(out.status.code(), Some(2), "{:?}", out.status);
    assert!(stdout(&out).is_empty(), "nothing runs: {}", stdout(&out));
    let err = String::from_utf8_lossy(&out.stderr);
    for needle in ["`nope`", "table1", "strong_scaling", "phase_attribution", "all"] {
        assert!(err.contains(needle), "stderr lacks {needle}: {err}");
    }
    // No name at all is a usage error of the same code.
    assert_eq!(pmm(&["experiment"]).status.code(), Some(2));
}

#[test]
fn serve_oneshot_valid_query_exits_zero() {
    let out = pmm_with_stdin(&["serve", "--oneshot"], b"ADVISE 96 24 6 36 inf\n");
    let text = stdout(&out);
    assert!(out.status.success(), "exit: {:?}\n{text}", out.status);
    assert!(text.starts_with("OK advise case=2D"), "{text}");
    assert!(text.contains("algo="), "{text}");
    assert_eq!(text.matches('\n').count(), 1, "exactly one response line: {text:?}");
}

#[test]
fn serve_oneshot_malformed_query_exits_nonzero_with_structured_error() {
    let out = pmm_with_stdin(&["serve", "--oneshot"], b"ADVISE banana\n");
    let text = stdout(&out);
    assert_eq!(out.status.code(), Some(1), "malformed request exits 1\n{text}");
    assert!(text.starts_with("ERR parse:"), "{text}");

    let out = pmm_with_stdin(&["serve", "--oneshot"], b"ADVISE 0 8 8 4 inf\n");
    let text = stdout(&out);
    assert_eq!(out.status.code(), Some(1), "invalid query exits 1\n{text}");
    assert!(text.starts_with("ERR advisor:"), "{text}");

    let out = pmm_with_stdin(&["serve", "--oneshot"], b"");
    let text = stdout(&out);
    assert_eq!(out.status.code(), Some(1), "empty stdin exits 1\n{text}");
    assert!(text.starts_with("ERR empty:"), "{text}");
}

#[test]
fn serve_stdio_answers_each_line_and_drains_at_eof() {
    let out = pmm_with_stdin(&["serve"], b"PING\nADVISE 96 24 6 36 inf\nSTATS\n");
    let text = stdout(&out);
    assert!(out.status.success(), "exit: {:?}\n{text}", out.status);
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 3, "one response per request: {text:?}");
    assert_eq!(lines[0], "OK pong");
    assert!(lines[1].starts_with("OK advise case=2D"), "{text}");
    assert!(lines[2].starts_with("OK stats received="), "{text}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("drained"), "graceful drain is reported: {err}");
}

#[test]
fn trace_writes_chrome_json_and_exits_zero() {
    let path = std::env::temp_dir().join("pmm-smoke-trace.json");
    let out = pmm(&[
        "trace",
        "--dims",
        "96x24x12",
        "--procs",
        "8",
        "--seed",
        "3",
        "--out",
        path.to_str().expect("utf-8 temp path"),
    ]);
    let text = stdout(&out);
    assert!(out.status.success(), "exit: {:?}\n{text}", out.status);
    assert!(text.contains("correct ✓"), "{text}");
    assert!(text.contains("all phases match the prediction exactly"), "{text}");
    let json = std::fs::read_to_string(&path).expect("trace file written");
    let _ = std::fs::remove_file(&path);
    assert!(json.starts_with("{\"traceEvents\":["), "{json}");
    assert!(json.contains("\"ph\":\"B\"") && json.contains("\"ph\":\"X\""), "{json}");
}

#[test]
fn schedule_line_reports_host_memory_next_to_the_scheduler_logs() {
    // `… (replay with PMM_SEED=S; N picks, choice-log bytes N,
    // schedule-trace bytes N, host peak RSS X MB, host bytes/rank N)`,
    // the two host figures `n/a` only where /proc is missing.
    let have_proc = std::path::Path::new("/proc/self/status").exists();
    for cmd in ["simulate", "trace"] {
        let out = pmm(&[cmd, "--dims", "96x24x12", "--procs", "16"]);
        let text = stdout(&out);
        assert!(out.status.success(), "exit: {:?}\n{text}", out.status);
        let line = text.lines().find(|l| l.starts_with("schedule     :")).expect("schedule line");
        let fields: Vec<&str> = line
            .split_once("; ")
            .and_then(|(_, tail)| tail.strip_suffix(')'))
            .unwrap_or_else(|| panic!("`(…; <fields>)` in {line}"))
            .split(", ")
            .collect();
        let value = |i: usize, prefix: &str, suffix: &str| -> &str {
            fields
                .get(i)
                .and_then(|f| f.strip_prefix(prefix)?.strip_suffix(suffix))
                .unwrap_or_else(|| panic!("field {i} is not `{prefix}…{suffix}` in {line}"))
        };
        assert_eq!(fields.len(), 5, "{line}");
        assert!(value(0, "", " picks").parse::<u64>().is_ok_and(|n| n > 0), "{line}");
        assert!(value(1, "choice-log bytes ", "").parse::<u64>().is_ok(), "{line}");
        assert!(value(2, "schedule-trace bytes ", "").parse::<u64>().is_ok(), "{line}");
        let (peak_mb, per_rank) =
            (value(3, "host peak RSS ", " MB"), value(4, "host bytes/rank ", ""));
        if have_proc {
            assert!(peak_mb.parse::<f64>().is_ok_and(|mb| mb > 0.0), "{line}");
            assert!(per_rank.parse::<u64>().is_ok_and(|b| b > 0), "{line}");
        } else {
            assert_eq!((peak_mb, per_rank), ("n/a", "n/a"), "{line}");
        }
    }
}

#[test]
fn trace_unwritable_out_exits_nonzero() {
    let out =
        pmm(&["trace", "--dims", "8x8x8", "--procs", "2", "--out", "/nonexistent-dir/run.json"]);
    assert!(!out.status.success(), "unwritable --out must fail");
    assert!(stdout(&out).contains("FAILED to write"), "{}", stdout(&out));
}
