//! The command's exit code, checked on the real binary at `--smoke` size.

use std::process::Command;

fn benchmark(extra: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_pmm-benchmark"))
        .args(["--smoke", "--workload", "alg1_words_2d", "--seed", "3", "--seconds", "0"])
        .args(extra)
        .output()
        .expect("the benchmark binary runs")
}

#[test]
fn clean_run_exits_zero_and_ends_with_the_result_object() {
    let output = benchmark(&["--trace", "0"]);
    assert!(output.status.success());
    let stdout = String::from_utf8(output.stdout).expect("utf-8");
    let last = stdout.lines().last().expect("a last line");
    assert!(last.starts_with("{\"correct\": true, \"attempted\": "), "{last}");
    assert!(last.contains("\"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": "), "{last}");
}

#[test]
fn perturbed_reference_exits_nonzero() {
    let output = benchmark(&["--trace", "0", "--perturb-reference"]);
    assert_eq!(output.status.code(), Some(1));
    let stdout = String::from_utf8(output.stdout).expect("utf-8");
    assert!(stdout.lines().last().expect("a last line").starts_with("{\"correct\": false"));
}

#[test]
fn pmm_variables_are_scrubbed_and_named() {
    let output = Command::new(env!("CARGO_BIN_EXE_pmm-benchmark"))
        .args(["--smoke", "--workload", "alg1_gemm_1d", "--seed", "3", "--seconds", "0"])
        .env("PMM_ENGINE", "threads")
        .env("PMM_KERNEL", "naive")
        .output()
        .expect("the benchmark binary runs");
    assert!(output.status.success());
    let stderr = String::from_utf8(output.stderr).expect("utf-8");
    assert!(stderr.contains("PMM_ENGINE") && stderr.contains("PMM_KERNEL"), "{stderr}");
}

#[test]
fn unknown_arguments_are_refused() {
    let output = benchmark(&["--no-such-flag"]);
    assert_eq!(output.status.code(), Some(2));
    assert!(output.stdout.is_empty());
}
