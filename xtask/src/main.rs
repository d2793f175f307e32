//! Workspace automation: `cargo xtask <gate> [budget-secs]`.
//!
//! Every subcommand is one entry of the gate table, [`gates::GATES`] —
//! its name, what it runs and asserts, its default budget and how the
//! budget reaches the child, its cargo steps, and (for the measuring
//! gates) its `BENCH_*.json`, row grammar and regression bounds. `cargo
//! xtask` with no argument prints the table; this file only dispatches
//! on it. CI (`.github/workflows/ci.yml`) calls the gates by name.
//!
//! * `main.rs` — dispatch, the step runner every cargo-backed gate shares
//!   ([`run_cargo`]: steps → marker rows → artifact → bounds), and the
//!   gates that are functions rather than cargo steps (the keyword audit,
//!   the `results/` text artifacts of [`experiments`]), plus
//!   workspace-root resolution.
//! * [`gates`] — the table and the per-gate summary functions.
//! * [`artifact`] — the row grammar, the one JSON writer and reader of
//!   the `BENCH_*.json` schema, and the one bound check.

mod artifact;
mod gates;

use artifact::{check, describe, Artifact, Row};
use gates::{Gate, Measured, Run, Step, Via, GATES};
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse_args(&args) {
        Ok((gate, budget)) if run(&workspace_root(), gate, budget).ok => ExitCode::SUCCESS,
        Ok(_) => ExitCode::FAILURE,
        Err(why) => {
            eprintln!("{}\nxtask: {why}", usage());
            ExitCode::from(2)
        }
    }
}

/// The gate `args` names and the budget it runs under — the one place a
/// budget is parsed. Anything else is a usage error.
fn parse_args(args: &[String]) -> Result<(&'static Gate, Option<u64>), String> {
    let name = args.first().ok_or("no gate named")?;
    let gate =
        GATES.iter().find(|g| g.name == name).ok_or_else(|| format!("unknown gate `{name}`"))?;
    let budget = match (gate.budget, args.get(1)) {
        (Some((default_secs, _)), None) => Some(default_secs),
        (Some(_), Some(text)) => Some(text.parse().map_err(|_| {
            format!("the budget of `{name}` is a whole number of seconds, got `{text}`")
        })?),
        (None, None) => None,
        (None, Some(extra)) => return Err(format!("`{name}` takes no budget, got `{extra}`")),
    };
    match args.get(2) {
        Some(extra) => Err(format!("unexpected argument `{extra}`")),
        None => Ok((gate, budget)),
    }
}

/// The usage text, derived from the table: every gate's help, with its
/// budget default, artifact and bounds appended from the fields that
/// enforce them.
fn usage() -> String {
    let mut out = String::from("usage: cargo xtask <gate> [budget-secs]\n");
    for gate in GATES {
        let mut text = gate.help.to_string();
        if let Some((default_secs, _)) = gate.budget {
            text.push_str(&format!("\n[budget-secs] defaults to {default_secs}"));
        }
        if let Some(spec) = &gate.artifact {
            text.push_str(&format!("\nwrites {} and holds it to the committed copy:", spec.file));
            for bound in spec.bounds {
                let (row, field, at, factor) =
                    (bound.row, bound.field, bound.at.symbol(), bound.factor);
                text.push_str(&format!("\n  {row}.{field} {at} {factor} x committed"));
            }
        }
        for (i, line) in text.lines().enumerate() {
            out.push_str(&format!("\n  {:<15} {line}", if i == 0 { gate.name } else { "" }));
        }
        out.push('\n');
    }
    out
}

/// What a gate run came to, with its bound verdicts as printed.
struct Outcome {
    ok: bool,
    verdicts: Vec<String>,
}

fn run(root: &Path, gate: &Gate, budget: Option<u64>) -> Outcome {
    match &gate.run {
        Run::Fn(clean) => {
            eprintln!("xtask: {}", gate.name);
            Outcome { ok: clean(root), verdicts: Vec::new() }
        }
        Run::Cargo(args) => run_cargo(root, gate, args, budget).unwrap_or_else(|why| {
            eprintln!("xtask: {} FAILED — {why}", gate.name);
            Outcome { ok: false, verdicts: Vec::new() }
        }),
        Run::Each(selected) => {
            let (mut failed, mut verdicts) = (Vec::new(), Vec::new());
            for sub in GATES.iter().filter(|g| selected(g)) {
                let outcome = run(root, sub, sub.budget.map(|(default_secs, _)| default_secs));
                if !outcome.ok {
                    failed.push(sub.name);
                }
                verdicts.extend(outcome.verdicts);
            }
            for line in &verdicts {
                eprintln!("{line}");
            }
            if failed.is_empty() {
                eprintln!("xtask: {}: all gates passed", gate.name);
            } else {
                eprintln!("xtask: {} FAILED: {}", gate.name, failed.join(", "));
            }
            Outcome { ok: failed.is_empty(), verdicts }
        }
    }
}

/// The one pipeline behind every cargo-backed gate: run the steps (each
/// only while the budget lasts and the host has the memory it needs),
/// and for an artifact gate parse the marker rows they print, derive the
/// summary, check the bounds against the committed file and rewrite it.
/// `Err` is a run that could not be measured; a bound that does not hold
/// is an `Outcome` that is not ok.
fn run_cargo(root: &Path, gate: &Gate, args: &str, budget: Option<u64>) -> Result<Outcome, String> {
    let spec = gate.artifact.as_ref();
    // Read the committed baseline before the new run overwrites it.
    let committed = spec.map(|s| read_committed(&root.join(s.file))).transpose()?.flatten();
    let start = Instant::now();
    let spent = || budget.is_some_and(|secs| start.elapsed() >= Duration::from_secs(secs));
    let (mut stdout, mut rows) = (String::new(), Vec::new());
    let (mut ran, mut skipped) = (0u32, 0u32);
    for round in 0.. {
        for step in gate.steps {
            let seed = gate.fresh_seeds.map(|(base, stride)| (base + stride * round).to_string());
            let seed = seed.as_deref().map(|seed| ("PMM_SEED", seed));
            let env: Vec<(&str, &str)> = step.env.iter().copied().chain(seed).collect();
            let replay: Vec<String> = env.iter().map(|(k, v)| format!("{k}={v}")).collect();
            let replay = replay.join(" ");
            let name = if step.label.is_empty() { &replay } else { step.label };
            let skip =
                if spent() { Some("budget spent".to_string()) } else { short_of(step.need_gb) };
            if let Some(why) = skip {
                eprintln!("xtask: {}: {why} — skipping {name}", gate.name);
                skipped += 1;
                if let (Some(spec), Some(committed)) = (spec, &committed) {
                    rows.extend(committed.carry(spec.id_field, step.label));
                }
                continue;
            }
            eprintln!("xtask: {} {name}", gate.name);
            let out = run_step(root, gate, args, step, &env, budget)
                .map_err(|why| format!("{why} ({name})"))?;
            if let Some(spec) = spec {
                for line in out.lines() {
                    rows.extend(spec.grammar.parse_line(line)?);
                }
            }
            stdout.push_str(&out);
            ran += 1;
        }
        if gate.fresh_seeds.is_none() || spent() {
            break;
        }
    }
    if ran == 0 {
        return Err("no step ran — raise the budget".to_string());
    }
    let wall_secs = start.elapsed().as_secs_f64();
    let Some(spec) = spec else {
        eprintln!(
            "xtask: {} passed — {ran} step(s), {skipped} skipped, {wall_secs:.1}s",
            gate.name
        );
        return Ok(Outcome { ok: true, verdicts: Vec::new() });
    };
    if rows.is_empty() && !spec.grammar.marker.is_empty() {
        return Err(format!("the run printed no `{}` row", spec.grammar.marker));
    }

    // An emitter's own `summary` row heads the summary object; what
    // xtask derives over the rows follows it.
    let (own, rows): (Vec<Row>, Vec<Row>) =
        rows.into_iter().partition(|r| r.str("kind") == "summary");
    let mut summary =
        Row(own.into_iter().flat_map(|r| r.0).filter(|(key, _)| key != "kind").collect());
    if let Some(derive) = spec.summary {
        summary.0.extend(derive(&Measured { root, stdout: &stdout, rows: &rows }).0);
    }
    let head = Row::default()
        .with("gate", gate.name)
        .with("budget_secs", budget.unwrap_or(0) as f64)
        .with("wall_secs", (wall_secs * 1e3).round() / 1e3)
        .with("skipped", f64::from(skipped));
    let mut fresh = Artifact { head, summary, rows, bounds: Vec::new() };
    fresh.bounds = check(spec.bounds, spec.id_field, &fresh, committed.as_ref());
    let path = root.join(spec.file);
    std::fs::write(&path, fresh.render())
        .map_err(|e| format!("could not write {}: {e}", path.display()))?;
    let verdicts: Vec<String> = fresh.bounds.iter().map(|v| describe(gate.name, v)).collect();
    let ok = fresh.bounds.iter().all(|v| v.is("ok"));
    for line in &verdicts {
        eprintln!("xtask: {line}");
    }
    eprintln!(
        "xtask: {} {} — {} row(s), {skipped} step(s) skipped, {wall_secs:.1}s; metrics in {}",
        gate.name,
        if ok { "passed" } else { "FAILED" },
        fresh.rows.len(),
        path.display()
    );
    Ok(Outcome { ok, verdicts })
}

/// Run one cargo step in the workspace root under `env`, echoing its
/// standard output as it arrives (standard error is inherited) and
/// returning it.
fn run_step(
    root: &Path,
    gate: &Gate,
    args: &str,
    step: &Step,
    env: &[(&str, &str)],
    budget: Option<u64>,
) -> Result<String, String> {
    let mut cmd = cargo();
    cmd.args(args.split_whitespace()).args(step.args.split_whitespace());
    cmd.envs(env.iter().copied());
    match (gate.budget, budget) {
        (Some((_, Via::Env(var))), Some(secs)) => {
            cmd.env(var, secs.to_string());
        }
        (Some((_, Via::Arg)), Some(secs)) => {
            cmd.arg(secs.to_string());
        }
        _ => {}
    }
    let mut child = cmd
        .current_dir(root)
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("could not launch cargo: {e}"))?;
    let pipe = child.stdout.take().expect("stdout was piped");
    let mut stdout = String::new();
    for line in BufReader::new(pipe).split(b'\n').map_while(Result::ok) {
        let line = String::from_utf8_lossy(&line);
        println!("{line}");
        stdout.push_str(&line);
        stdout.push('\n');
    }
    match child.wait() {
        Ok(status) if status.success() => Ok(stdout),
        Ok(status) => Err(format!("cargo {args} {} failed with {status}", step.args)),
        Err(e) => Err(format!("could not wait for cargo: {e}")),
    }
}

/// The cargo that launched xtask (`cargo xtask` exports it), else the one
/// on the path.
fn cargo() -> Command {
    Command::new(std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string()))
}

/// The one reader of a committed artifact: `None` when the file does not
/// exist (nothing to be held to), an error when it does not parse.
fn read_committed(path: &Path) -> Result<Option<Artifact>, String> {
    let Ok(text) = std::fs::read_to_string(path) else {
        return Ok(None);
    };
    Artifact::parse(&text)
        .map(Some)
        .map_err(|why| format!("{} does not parse: {why}", path.display()))
}

/// Why a run that needs `need_gb` of memory is skipped — not started and
/// OOM-killed — on this host, or `None` when it fits (or /proc cannot
/// say).
fn short_of(need_gb: u64) -> Option<String> {
    let have = mem_available_gb().filter(|&have| have < need_gb)?;
    Some(format!("needs ~{need_gb} GB, {have} GB available"))
}

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

/// Whole GB above the measured peak RSS of the experiments that need more
/// than a CI runner always has: `strong_scaling`'s P = 262 144 row peaks
/// at 4.1 GB on the default (recording) world.
const EXPERIMENT_NEED_GB: &[(&str, u64)] = &[("strong_scaling", 5)];

/// The text-artifact gate: every name `pmm experiment --list` prints is
/// run (release) and its standard output held byte for byte to
/// `results/<name>.txt`, which is rewritten — the contract of the
/// `BENCH_*.json` gates, with equality as the one bound. An experiment
/// the host lacks the memory for is skipped and its file left alone.
/// Returns true when every file matched and every check passed.
fn experiments(root: &Path) -> bool {
    let pmm = |arg: &str| -> Result<(String, bool), String> {
        let out = cargo()
            .args("run --release -q -p pmm-cli --bin pmm -- experiment".split_whitespace())
            .arg(arg)
            .current_dir(root)
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("could not launch cargo: {e}"))?;
        Ok((String::from_utf8_lossy(&out.stdout).into_owned(), out.status.success()))
    };
    let fail = |why: &str| {
        eprintln!("xtask: experiments FAILED — {why}");
        false
    };
    let list = match pmm("--list") {
        Ok((list, true)) => list,
        Ok((_, false)) => return fail("`pmm experiment --list` exited non-zero"),
        Err(why) => return fail(&why),
    };
    let mut failed = Vec::new();
    for name in list.lines().filter_map(|line| line.split_whitespace().next()) {
        let need_gb = EXPERIMENT_NEED_GB.iter().find(|(n, _)| *n == name).map_or(0, |(_, gb)| *gb);
        if let Some(why) = short_of(need_gb) {
            eprintln!("xtask: experiments: {why} — skipping {name}, results/{name}.txt untouched");
            continue;
        }
        eprintln!("xtask: experiments {name}");
        let held = pmm(name).and_then(|(fresh, clean)| {
            let held = hold_to(&root.join("results").join(format!("{name}.txt")), &fresh);
            if clean {
                held
            } else {
                Err(format!("`pmm experiment {name}` exited non-zero"))
            }
        });
        if let Err(why) = held {
            fail(&why);
            failed.push(name);
        }
    }
    if !failed.is_empty() {
        return fail(&failed.join(", "));
    }
    eprintln!("xtask: experiments passed — results/ is what the registry prints");
    true
}

/// Hold `fresh` to the committed text at `path`, then rewrite the file
/// with it either way. `Err` names the file and the first line that
/// differs.
fn hold_to(path: &Path, fresh: &str) -> Result<(), String> {
    let committed = std::fs::read_to_string(path);
    std::fs::write(path, fresh).map_err(|e| format!("could not write {}: {e}", path.display()))?;
    let committed = committed.map_err(|_| format!("{} is not committed", path.display()))?;
    if committed == fresh {
        return Ok(());
    }
    let (mut was, mut now) = (committed.lines(), fresh.lines());
    let mut line_no = 1;
    loop {
        match (was.next(), now.next()) {
            (Some(a), Some(b)) if a == b => line_no += 1,
            (a, b) => {
                let show = |line: Option<&str>| line.unwrap_or("<end of file>").to_string();
                return Err(format!(
                    "{} differs at line {line_no}:\n  committed: {}\n  printed:   {}",
                    path.display(),
                    show(a),
                    show(b)
                ));
            }
        }
    }
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

/// The one file of the workspace allowed to say `unsafe`: the explicit
/// AVX-512 microkernel of `pmm-dense`, which carries the
/// `#![allow(unsafe_code)]` that lifts the workspace's `deny` for that
/// module only.
const UNSAFE_ALLOWED_IN: &str = "crates/dense/src/avx512.rs";

/// Scan all workspace `.rs` sources for the tokens the lints deny:
/// `unsafe` (the workspace denies the `unsafe_code` lint) plus the
/// `todo!`/`dbg!` leftover-macros (denied via `clippy::todo` /
/// `clippy::dbg_macro`). The grep backstops all three lints against
/// `#[allow]` escapes. The policy on `unsafe` is one file, every use
/// argued: the token is allowed in [`UNSAFE_ALLOWED_IN`] and nowhere
/// else, and each use there must sit directly under a comment that says
/// `SAFETY` and why. Returns true when clean.
fn keyword_audit(root: &Path) -> bool {
    let mut violations = Vec::new();
    for dir in ["src", "crates", "shims", "xtask"] {
        scan_dir(&root.join(dir), &mut |path, text| {
            let file = path.strip_prefix(root).unwrap_or(path);
            for (line_no, why) in audit_file(file, text) {
                violations.push(format!("{}:{line_no}: {why}", file.display()));
            }
        });
    }
    if violations.is_empty() {
        return true;
    }
    eprintln!("xtask: {} audit violation(s):", violations.len());
    for violation in &violations {
        eprintln!("  {violation}");
    }
    false
}

/// The audit of one file, `file` relative to the workspace root: the
/// `(line number, what is wrong)` of every violation.
fn audit_file(file: &Path, text: &str) -> Vec<(usize, String)> {
    // Needles built from parts so the audit does not flag its own source.
    let guarded = ["un", "safe"].concat();
    let leftovers = [["to", "do", "!"].concat(), ["db", "g!"].concat()];
    // Comment lines are prose, not code: a commented-out token cannot
    // compile, so it is not a policy violation.
    let is_comment = |line: &str| line.trim_start().starts_with("//");
    let lines: Vec<&str> = text.lines().collect();
    let mut violations = Vec::new();
    for (i, line) in lines.iter().enumerate().filter(|(_, line)| !is_comment(line)) {
        if let Some(token) = leftovers.iter().find(|needle| has_word(line, needle)) {
            violations.push((i + 1, format!("`{token}` left in: {}", line.trim())));
        }
        if !has_word(line, &guarded) {
            continue;
        }
        let mut above = lines[..i].iter().rev().take_while(|l| is_comment(l));
        let why = if file != Path::new(UNSAFE_ALLOWED_IN) {
            format!("outside {UNSAFE_ALLOWED_IN}")
        } else if !above.any(|l| l.contains("SAFETY")) {
            "without a SAFETY comment directly above".to_string()
        } else {
            continue;
        };
        violations.push((i + 1, format!("`{guarded}` {why}: {}", line.trim())));
    }
    violations
}

/// Call `visit(path, text)` on every `.rs` file under `dir`, build
/// output (`target/`) excluded.
fn scan_dir(dir: &Path, visit: &mut dyn FnMut(&Path, &str)) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n == "target") {
                continue;
            }
            scan_dir(&path, visit);
        } else if path.extension().is_some_and(|e| e == "rs") {
            if let Ok(text) = std::fs::read_to_string(&path) {
                visit(&path, &text);
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

    fn artifact_gates() -> impl Iterator<Item = (&'static Gate, &'static gates::Spec)> {
        GATES.iter().filter_map(|gate| gate.artifact.as_ref().map(|spec| (gate, spec)))
    }

    /// The row a bound reads: the summary, the row `id` names, or (`*`)
    /// the first executed row.
    fn bounded<'a>(art: &'a mut Artifact, id_field: &str, id: &str) -> &'a mut Row {
        match id {
            "summary" => &mut art.summary,
            "*" => art.rows.iter_mut().find(|r| !r.is("carried")).expect("an executed row"),
            id => art.rows.iter_mut().find(|r| r.str(id_field) == id).expect("the named row"),
        }
    }

    #[test]
    fn every_committed_artifact_parses_and_holds_its_own_bounds() {
        let root = workspace_root();
        for (gate, spec) in artifact_gates() {
            let committed = read_committed(&root.join(spec.file))
                .unwrap_or_else(|why| panic!("{why}"))
                .unwrap_or_else(|| panic!("{} is not committed", spec.file));
            assert_eq!(committed.head.str("gate"), gate.name, "{}", spec.file);
            assert!(!spec.bounds.is_empty(), "{} has no floor", gate.name);
            assert!(
                committed.bounds.iter().all(|v| v.is("ok")),
                "{}: a bound is not ok",
                spec.file
            );
            let own = check(spec.bounds, spec.id_field, &committed, Some(&committed));
            assert!(own.len() >= spec.bounds.len() && own.iter().all(|v| v.is("ok")), "{own:?}");
            assert_eq!(own.len(), committed.bounds.len(), "{}: bounds block is stale", spec.file);

            // Each bound bites: the field moved just past factor × committed
            // fails, in a message naming gate, row and field.
            for bound in spec.bounds {
                let mut fresh = committed.clone();
                let past = if bound.at == artifact::At::Least { 0.9 } else { 1.1 };
                let row = bounded(&mut fresh, spec.id_field, bound.row);
                let at = row.0.iter().position(|(key, _)| key == bound.field).expect("bounded");
                let moved = row.num(bound.field).expect("a number") * bound.factor * past;
                row.0[at].1 = artifact::Value::Num(moved);
                let verdicts = check(&[*bound], spec.id_field, &fresh, Some(&committed));
                let failed: Vec<&Row> = verdicts.iter().filter(|v| !v.is("ok")).collect();
                assert_eq!(failed.len(), 1, "{}: {bound:?}", gate.name);
                let message = describe(gate.name, failed[0]);
                let row = format!("row {}", failed[0].str("row"));
                for part in [gate.name, &row, bound.field, "FAILED"] {
                    assert!(message.contains(part), "{message}");
                }
                // A re-run that lost the field fails rather than passing unchecked.
                bounded(&mut fresh, spec.id_field, bound.row).0.remove(at);
                let verdicts = check(&[*bound], spec.id_field, &fresh, Some(&committed));
                assert_eq!(verdicts.iter().filter(|v| !v.is("ok")).count(), 1, "{bound:?}");
            }
        }
    }

    #[test]
    fn a_results_file_is_held_byte_for_byte_and_rewritten_either_way() {
        let dir = std::env::temp_dir().join(format!("pmm-xtask-results-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("table1.txt");
        let printed = "Table 1\n  P  bound\n  8  96\n\n[checks] 3 passed\n";
        // Untouched: passes, and the file is what was printed.
        std::fs::write(&path, printed).expect("fixture");
        assert_eq!(hold_to(&path, printed), Ok(()));
        assert_eq!(std::fs::read_to_string(&path).expect("rewritten"), printed);
        // One byte edited by hand: fails naming the file and the line, and
        // the file is rewritten with what the run printed.
        std::fs::write(&path, printed.replace("96", "97")).expect("fixture");
        let why = hold_to(&path, printed).expect_err("a one-byte edit");
        assert!(why.contains("table1.txt") && why.contains("line 3"), "{why}");
        assert!(why.contains("8  97") && why.contains("8  96"), "{why}");
        assert_eq!(std::fs::read_to_string(&path).expect("rewritten"), printed);
        // A trailing line lost, and a file never committed, fail too.
        let why = hold_to(&path, "Table 1\n").expect_err("truncated output");
        assert!(why.contains("line 2") && why.contains("<end of file>"), "{why}");
        let fresh = dir.join("new.txt");
        assert!(hold_to(&fresh, printed).expect_err("no baseline").contains("not committed"));
        assert_eq!(std::fs::read_to_string(&fresh).expect("written"), printed);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn every_memory_hungry_experiment_names_a_committed_results_file() {
        for (name, need_gb) in EXPERIMENT_NEED_GB {
            assert!(*need_gb > 0, "{name}");
            let file = workspace_root().join("results").join(format!("{name}.txt"));
            assert!(file.is_file(), "{} is not committed", file.display());
        }
    }

    #[test]
    fn the_scale_summary_does_not_count_a_carried_cell() {
        let (_, spec) = artifact_gates().find(|(g, _)| g.name == "scale-check").expect("in table");
        let cell = |line: &str| spec.grammar.parse_line(line).expect("well-formed").expect("row");
        let executed = cell("SCALE: label=p10k p=10000 ranks_per_sec=30557 peak_rss_kb=94160");
        let skipped = cell("SCALE: label=p100k p=100000 ranks_per_sec=2479 peak_rss_kb=5013604");
        let committed = Artifact { rows: vec![skipped], ..Artifact::default() };
        let mut rows = vec![executed];
        rows.extend(committed.carry(spec.id_field, "p100k"));
        assert_eq!(rows.len(), 2);
        let derive = spec.summary.expect("scale-check derives a summary");
        let summary = derive(&Measured { root: Path::new("."), stdout: "", rows: &rows });
        assert_eq!(summary.num("max_executed_p"), Some(10_000.0));
        assert_eq!(summary.num("peak_rss_kb"), Some(94_160.0));
    }

    #[test]
    fn usage_lists_exactly_the_table_and_every_name_dispatches() {
        let usage = usage();
        let listed: Vec<&str> = usage
            .lines()
            .filter(|l| l.starts_with("  ") && !l.starts_with("   "))
            .filter_map(|l| l.split_whitespace().next())
            .collect();
        let table: Vec<&str> = GATES.iter().map(|g| g.name).collect();
        assert_eq!(listed, table);
        let args = |words: &[&str]| words.iter().map(|w| w.to_string()).collect::<Vec<_>>();
        for gate in GATES {
            let (found, budget) = parse_args(&args(&[gate.name])).expect(gate.name);
            assert_eq!(found.name, gate.name);
            assert_eq!(budget, gate.budget.map(|(secs, _)| secs), "{}", gate.name);
            // A budget is read where the gate takes one, refused where not.
            assert_eq!(parse_args(&args(&[gate.name, "7"])).is_ok(), gate.budget.is_some());
            assert!(parse_args(&args(&[gate.name, "abc"])).is_err(), "{}", gate.name);
            assert!(parse_args(&args(&[gate.name, "7", "8"])).is_err(), "{}", gate.name);
            if let Run::Each(selected) = gate.run {
                assert!(GATES.iter().any(selected), "{} selects no gate", gate.name);
                assert!(!selected(gate), "{} would run itself", gate.name);
            }
        }
        assert_eq!(parse_args(&args(&["dpor", "30"])).expect("numeric").1, Some(30));
        let err = parse_args(&args(&["dpor", "abc"])).err().expect("not a number");
        assert!(err.contains("dpor") && err.contains("`abc`"), "{err}");
        assert!(parse_args(&args(&["nope"])).is_err() && parse_args(&[]).is_err());
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

    /// A use of the guarded token (spelled in parts, as above) with the
    /// three lines before it: line 4 of the text.
    fn guarded_use(above: [&str; 3]) -> String {
        let needle = ["un", "safe"].concat();
        format!("{}\n{}\n{}\n    {needle} {{ *p }}\n}}\n", above[0], above[1], above[2])
    }

    const ARGUED: [&str; 3] = [
        "fn f(p: *const f64) -> f64 {",
        "    // SAFETY: `p` points into a slice whose length was",
        "    // asserted above.",
    ];

    #[test]
    fn the_guarded_token_outside_its_one_file_fails_the_audit() {
        let argued = guarded_use(ARGUED);
        assert_eq!(audit_file(Path::new(UNSAFE_ALLOWED_IN), &argued), Vec::new());
        // The same argued block anywhere else is a violation.
        let elsewhere = audit_file(Path::new("crates/dense/src/blocked.rs"), &argued);
        assert_eq!(elsewhere.len(), 1, "{elsewhere:?}");
        assert!(elsewhere[0].0 == 4 && elsewhere[0].1.contains("outside"), "{elsewhere:?}");
        // The lint's own name is an identifier, not the token.
        let lint = format!("#![deny({}_code)]", ["un", "safe"].concat());
        assert_eq!(audit_file(Path::new("src/lib.rs"), &lint), Vec::new());
        // The file the policy names exists.
        assert!(workspace_root().join(UNSAFE_ALLOWED_IN).is_file());
    }

    #[test]
    fn an_unargued_use_in_the_allowed_file_fails_the_audit() {
        // A comment further up, past a line of code, does not count.
        let stale = guarded_use([
            "// SAFETY: about something else",
            "fn f(p: *const f64) -> f64 {",
            "    let x = 1;",
        ]);
        let unargued = audit_file(Path::new(UNSAFE_ALLOWED_IN), &stale);
        assert_eq!(unargued.len(), 1, "{unargued:?}");
        assert!(unargued[0].0 == 4 && unargued[0].1.contains("SAFETY"), "{unargued:?}");
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
        let found = audit_file(Path::new("src/lib.rs"), &format!("fn f() {{\n    {todo}()\n}}\n"));
        assert!(found.len() == 1 && found[0].0 == 2, "{found:?}");
        assert_eq!(audit_file(Path::new("src/lib.rs"), &format!("// {todo}()")), Vec::new());
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
