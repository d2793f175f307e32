//! The repo-wide benchmark of the `pmm` workspace (README.md has the
//! tables; `../BENCHMARK.json` has the contract).
//!
//! ```text
//! pmm-benchmark --workload W --seed N --seconds S --trace 0|1   one run, one process
//! pmm-benchmark [--seconds S] [--rounds R] [--seed N]           every workload: R untraced
//!                                                               rounds, then the traced pass
//! pmm-benchmark --check-repeat [...]                            the untraced rounds twice,
//!                                                               medians compared to the bounds
//! ```
//!
//! `--smoke` shrinks every workload to `P <= 64` (the package's tests).

mod api;
mod host;
mod ladder;
mod metrics;
mod report;
mod run;
mod spans;
mod stats;
mod workloads;

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

use metrics::END_TO_END;
use report::{json_number, json_string, ParsedRun};
use run::RunArgs;
use workloads::WORKLOADS;

/// `--seconds` when not given. The driver always gives it
/// (`run_seconds` in `BENCHMARK.json`, 10); 6 keeps the no-argument
/// command — 12 untraced runs and 4 traced — under four minutes.
const DEFAULT_SECONDS: f64 = 6.0;

struct Cli {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    perturb_reference: bool,
    check_repeat: bool,
    rounds: usize,
}

impl Cli {
    fn parse(mut argv: impl Iterator<Item = String>) -> Result<Cli, String> {
        let mut cli = Cli {
            workload: None,
            seed: 1,
            seconds: DEFAULT_SECONDS,
            trace: false,
            smoke: false,
            perturb_reference: false,
            check_repeat: false,
            rounds: 3,
        };
        while let Some(flag) = argv.next() {
            let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
            let bad = |v: &str| format!("bad value {v:?} for {flag}");
            match flag.as_str() {
                "--workload" => cli.workload = Some(value()?),
                "--seed" => cli.seed = value().and_then(|v| v.parse().map_err(|_| bad(&v)))?,
                "--seconds" => {
                    let v = value()?;
                    cli.seconds =
                        v.parse().ok().filter(|s| (0.0..=3600.0).contains(s)).ok_or(bad(&v))?;
                }
                "--trace" => {
                    cli.trace = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        v => return Err(bad(v)),
                    }
                }
                "--rounds" => {
                    let v = value()?;
                    cli.rounds = v.parse().ok().filter(|r| (1..=100).contains(r)).ok_or(bad(&v))?;
                }
                "--smoke" => cli.smoke = true,
                "--perturb-reference" => cli.perturb_reference = true,
                "--check-repeat" => cli.check_repeat = true,
                other => return Err(format!("unknown argument {other:?}")),
            }
        }
        Ok(cli)
    }
}

/// The harness is hermetic: every `PMM_*` variable (`PMM_ENGINE`,
/// `PMM_KERNEL`, `PMM_SEED`, `PMM_SCHEDULE`, `PMM_FAULT_RATE`, …) would
/// silently change what the library runs, so all are removed — before
/// any thread exists — and named on stderr.
fn scrub_environment() {
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("PMM_") {
            eprintln!(
                "pmm-benchmark: ignoring and removing {} from the environment",
                key.to_string_lossy()
            );
            std::env::remove_var(&key);
        }
    }
}

fn out_dir() -> std::io::Result<PathBuf> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

fn main() -> ExitCode {
    scrub_environment();
    let cli = match Cli::parse(std::env::args().skip(1)) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("pmm-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match &cli.workload {
        Some(workload) => single_run(&cli, workload),
        None if cli.check_repeat => check_repeat(&cli),
        None => every_workload(&cli),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("pmm-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

/// One workload in this process. `Ok(false)` when a check failed.
fn single_run(cli: &Cli, workload: &str) -> Result<bool, String> {
    let args = RunArgs {
        workload: workload.to_owned(),
        seed: cli.seed,
        seconds: cli.seconds,
        trace: cli.trace,
        smoke: cli.smoke,
        perturb_reference: cli.perturb_reference,
    };
    let report = run::run(&args)?;
    println!("workload {workload} seed {} trace {}", cli.seed, u8::from(cli.trace));
    println!("stamp {}", host::stamp_json(cli.seed));
    report::print_lines(&report);
    if cli.trace {
        let path = out_dir().map_err(|e| e.to_string())?.join(format!("trace-{workload}.json"));
        report.spans.write_chrome_trace(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        println!("spans {} {}", report.spans.len(), path.display());
    }
    println!("{}", report::result_line(&report));
    Ok(report.checks.failed == 0)
}

/// One child run of the orchestrated modes.
struct Record {
    workload: &'static str,
    run: ParsedRun,
}

/// Run one workload in a process of its own and read its lines back.
fn child_run(cli: &Cli, workload: &'static str, seed: u64, trace: bool) -> Result<Record, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &cli.seconds.to_string(), "--trace", if trace { "1" } else { "0" }])
        .stderr(Stdio::inherit());
    if cli.smoke {
        command.arg("--smoke");
    }
    let output = command.output().map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    for line in stdout.lines().filter(|l| !l.starts_with('{')) {
        println!("  {line}");
    }
    let run = report::parse_lines(&stdout)?;
    if !output.status.success() && run.failed == 0 {
        return Err(format!("{workload}: child run exited with {}", output.status));
    }
    Ok(Record { workload, run })
}

/// `rounds` untraced runs of every workload, round-robin, so a noisy
/// minute on the shared host lands on all of them. Round `r` uses seed
/// `seed + r`.
fn timed_pass(cli: &Cli, label: &str) -> Result<Vec<Record>, String> {
    let mut records = Vec::new();
    for round in 0..cli.rounds {
        for workload in WORKLOADS {
            println!("{label} round {} of {}: {workload}", round + 1, cli.rounds);
            records.push(child_run(cli, workload, cli.seed + round as u64, false)?);
        }
    }
    Ok(records)
}

/// The values one metric took on one workload across the rounds.
fn values_of(records: &[Record], workload: &str, metric: &str) -> Vec<f64> {
    records
        .iter()
        .filter(|r| r.workload == workload)
        .filter_map(|r| r.run.metrics.iter().find(|m| m.0 == metric).map(|m| m.1))
        .collect()
}

fn checks_json(records: &[Record], workload: &str) -> String {
    let of = |f: fn(&ParsedRun) -> u64| -> u64 {
        records.iter().filter(|r| r.workload == workload).map(|r| f(&r.run)).sum()
    };
    format!("{{\"attempted\": {}, \"failed\": {}}}", of(|r| r.attempted), of(|r| r.failed))
}

/// Every workload: untraced rounds, then the traced pass; one JSON
/// document on the last line and in `out/results.json`.
fn every_workload(cli: &Cli) -> Result<bool, String> {
    let timed = timed_pass(cli, "untraced")?;
    let mut traced = Vec::new();
    for workload in WORKLOADS {
        println!("traced: {workload}");
        traced.push(child_run(cli, workload, cli.seed, true)?);
    }

    let mut failed = 0;
    let mut workloads_json = Vec::new();
    for workload in WORKLOADS {
        let end_to_end: Vec<String> = END_TO_END
            .iter()
            .map(|&(name, unit, _, _)| {
                let values = values_of(&timed, workload, name);
                let (q1, q3) = stats::quartiles(&values);
                format!(
                    "{}: {{\"median\": {}, \"q1\": {}, \"q3\": {}, \"n\": {}, \"unit\": {}}}",
                    json_string(name),
                    json_number(stats::median(&values)),
                    json_number(q1),
                    json_number(q3),
                    values.len(),
                    json_string(unit)
                )
            })
            .collect();
        let layer_run = traced.iter().find(|r| r.workload == workload).expect("one per workload");
        let per_layer = report::metrics_json(
            layer_run
                .run
                .metrics
                .iter()
                .map(|(name, value, unit)| (name.as_str(), *value, unit.as_str())),
        );
        let iterations: u64 =
            timed.iter().filter(|r| r.workload == workload).map(|r| r.run.iterations).sum();
        failed += timed
            .iter()
            .chain(&traced)
            .filter(|r| r.workload == workload)
            .map(|r| r.run.failed)
            .sum::<u64>();
        workloads_json.push(format!(
            "{}: {{\"end_to_end\": {{{}}}, \"timed_iterations\": {}, \"checks\": {}, \
             \"per_layer\": {}, \"per_layer_checks\": {}, \"per_layer_unresolved\": {}}}",
            json_string(workload),
            end_to_end.join(", "),
            iterations,
            checks_json(&timed, workload),
            per_layer,
            checks_json(&traced, workload),
            layer_run.run.unresolved
        ));
    }
    let document = format!(
        "{{\"stamp\": {}, \"seconds\": {}, \"rounds\": {}, \"smoke\": {}, \"correct\": {}, \
         \"workloads\": {{{}}}}}",
        host::stamp_json(cli.seed),
        json_number(cli.seconds),
        cli.rounds,
        cli.smoke,
        failed == 0,
        workloads_json.join(", ")
    );
    write_out("results.json", &document)?;
    println!("{document}");
    Ok(failed == 0)
}

/// The untraced rounds twice, back to back: per workload × end-to-end
/// metric both medians, how much the second is worse, each set's spread
/// (interquartile range ÷ median), the bound, and pass/fail.
fn check_repeat(cli: &Cli) -> Result<bool, String> {
    let first = timed_pass(cli, "first set,")?;
    let second = timed_pass(cli, "second set,")?;
    let mut all_pass = true;
    let mut rows = Vec::new();
    println!(
        "{:<16} {:<12} {:>14} {:>14} {:>9} {:>9} {:>9} {:>7}  verdict",
        "workload", "metric", "median 1", "median 2", "worse by", "spread 1", "spread 2", "bound"
    );
    for workload in WORKLOADS {
        for &(name, unit, better, bound) in &END_TO_END {
            let (a, b) = (values_of(&first, workload, name), values_of(&second, workload, name));
            let (ma, mb) = (stats::median(&a), stats::median(&b));
            let worse = better.worsening(ma, mb);
            let (sa, sb) = (stats::iqr_frac(&a), stats::iqr_frac(&b));
            // The simulated machine's ratios must agree exactly, across
            // sets and across the rounds' different seeds.
            let exact = !matches!(name, "pass_frac" | "bound_ratio")
                || a.iter().chain(&b).all(|v| *v == a[0]);
            let steady = name == "setup_s" || (sa <= bound && sb <= bound);
            let pass = worse <= bound && exact && steady;
            all_pass &= pass;
            let verdict = if pass { "pass" } else { "FAIL" };
            println!(
                "{workload:<16} {name:<12} {ma:>14.6} {mb:>14.6} {:>8.2}% {:>8.2}% {:>8.2}% {:>6.1}%  {verdict}",
                worse * 100.0,
                sa * 100.0,
                sb * 100.0,
                bound * 100.0
            );
            rows.push(format!(
                "{{\"workload\": {}, \"metric\": {}, \"unit\": {}, \"better\": {}, \"median_1\": {}, \
                 \"median_2\": {}, \"worse_by\": {}, \"spread_1\": {}, \"spread_2\": {}, \
                 \"bound\": {}, \"n\": {}, \"pass\": {}}}",
                json_string(workload),
                json_string(name),
                json_string(unit),
                json_string(better.as_str()),
                json_number(ma),
                json_number(mb),
                json_number(worse),
                json_number(sa),
                json_number(sb),
                json_number(bound),
                a.len(),
                pass
            ));
        }
    }
    let failed: u64 = first.iter().chain(&second).map(|r| r.run.failed).sum();
    let document = format!(
        "{{\"stamp\": {}, \"seconds\": {}, \"rounds\": {}, \"pass\": {}, \"rows\": [\n  {}\n]}}",
        host::stamp_json(cli.seed),
        json_number(cli.seconds),
        cli.rounds,
        all_pass && failed == 0,
        rows.join(",\n  ")
    );
    write_out("repeat.json", &document)?;
    println!("check-repeat: {}", if all_pass && failed == 0 { "pass" } else { "FAIL" });
    Ok(all_pass && failed == 0)
}

fn write_out(file: &str, document: &str) -> Result<(), String> {
    let path = out_dir().map_err(|e| e.to_string())?.join(file);
    std::fs::write(&path, format!("{document}\n")).map_err(|e| format!("{}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use metrics::PER_LAYER;
    use run::RunReport;

    /// The flat `{...}` objects of the array `"section": [...]` in
    /// `BENCHMARK.json`, each as `key -> raw value` pairs.
    fn benchmark_json_section(section: &str) -> Vec<Vec<(String, String)>> {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json is at the repo root");
        let start = text.find(&format!("\"{section}\": [")).expect("section present");
        let body = &text[start..];
        let body = &body[..body.find("\n  ]").expect("section closes")];
        body.split('{')
            .skip(1)
            .map(|object| {
                let object = &object[..object.find('}').expect("object closes")];
                // `"key": value` pairs; no value of these objects holds `", "`.
                object
                    .split(", \"")
                    .map(|pair| {
                        let (key, value) = pair.split_once(": ").expect("key: value");
                        (
                            key.trim_matches('"').to_owned(),
                            value.trim().trim_matches('"').to_owned(),
                        )
                    })
                    .collect()
            })
            .collect()
    }

    fn field(object: &[(String, String)], key: &str) -> String {
        object.iter().find(|(k, _)| k == key).unwrap_or_else(|| panic!("no {key}")).1.clone()
    }

    fn well_formed(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn names_units_and_bounds_match_benchmark_json_exactly() {
        let workloads: Vec<String> =
            benchmark_json_section("workloads").iter().map(|o| field(o, "name")).collect();
        assert_eq!(workloads, WORKLOADS);

        let listed: Vec<(String, String, String, f64)> = benchmark_json_section("end_to_end")
            .iter()
            .map(|o| {
                let bound = field(o, "bound").parse().expect("numeric bound");
                (field(o, "name"), field(o, "unit"), field(o, "better"), bound)
            })
            .collect();
        let ours: Vec<(String, String, String, f64)> = END_TO_END
            .iter()
            .map(|&(n, u, b, bound)| (n.to_owned(), u.to_owned(), b.as_str().to_owned(), bound))
            .collect();
        assert_eq!(listed, ours);

        let listed: Vec<(String, String, String)> = benchmark_json_section("per_layer")
            .iter()
            .map(|o| (field(o, "name"), field(o, "unit"), field(o, "better")))
            .collect();
        let ours: Vec<(String, String, String)> = PER_LAYER
            .iter()
            .map(|&(n, u, b)| (n.to_owned(), u.to_owned(), b.as_str().to_owned()))
            .collect();
        assert_eq!(listed, ours);

        let names = WORKLOADS
            .iter()
            .copied()
            .chain(END_TO_END.iter().map(|e| e.0))
            .chain(PER_LAYER.iter().map(|e| e.0));
        let mut seen = std::collections::BTreeSet::new();
        for name in names {
            assert!(well_formed(name), "{name}");
            assert!(seen.insert(name), "{name} is used twice");
        }
    }

    fn smoke(workload: &str, seed: u64, trace: bool, perturb_reference: bool) -> RunReport {
        run::run(&RunArgs {
            workload: workload.to_owned(),
            seed,
            seconds: 0.0,
            trace,
            smoke: true,
            perturb_reference,
        })
        .expect("a known workload")
    }

    fn value(report: &RunReport, name: &str) -> f64 {
        report.metrics.iter().find(|m| m.name == name).unwrap_or_else(|| panic!("no {name}")).value
    }

    #[test]
    fn untraced_run_reports_every_end_to_end_metric_and_exact_ratios_for_any_seed() {
        for workload in WORKLOADS {
            let (one, two) = (smoke(workload, 1, false, false), smoke(workload, 2, false, false));
            let names: Vec<&str> = one.metrics.iter().map(|m| m.name).collect();
            assert_eq!(names, END_TO_END.map(|e| e.0), "{workload}");
            for report in [&one, &two] {
                assert_eq!(report.checks.failed, 0, "{workload}");
                assert_eq!(value(report, "pass_frac"), 1.0, "{workload}");
                assert_eq!(value(report, "bound_ratio"), 1.0, "{workload}");
                assert!(report.metrics.iter().all(|m| m.value > 0.0), "{workload}: a zero metric");
            }
        }
    }

    #[test]
    fn traced_run_reports_every_layer_metric_and_rung_5_meters_equal_the_real_run() {
        for workload in WORKLOADS {
            let (one, two) = (smoke(workload, 1, true, false), smoke(workload, 2, true, false));
            let names: Vec<&str> = one.metrics.iter().map(|m| m.name).collect();
            assert_eq!(names, PER_LAYER.map(|e| e.0), "{workload}");
            // A rung-5 ledger that differs from the real run's is a failed check.
            assert_eq!((one.checks.failed, two.checks.failed), (0, 0), "{workload}");
            assert!(one.spans.len() > 0, "{workload}: the traced pass records spans");
            // Every count of the simulated machine is the same for both seeds.
            for (a, b) in one.metrics.iter().zip(&two.metrics) {
                if matches!(a.unit, "count" | "words") && a.name != "verify.checks" {
                    assert_eq!(a.value, b.value, "{workload}: {} moved with the seed", a.name);
                }
            }
        }
    }

    #[test]
    fn perturbed_reference_product_fails_checks() {
        for workload in WORKLOADS {
            let report = smoke(workload, 1, false, true);
            assert!(report.checks.failed > 0, "{workload}");
            assert!(value(&report, "pass_frac") < 1.0, "{workload}");
            assert!(report::result_line(&report).starts_with("{\"correct\": false"), "{workload}");
        }
    }
}
