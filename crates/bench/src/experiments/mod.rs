//! The experiment registry: every table, figure and claim of the paper
//! this repository regenerates is one entry of [`EXPERIMENTS`]. `pmm
//! experiment <name> | all | --list` runs them through [`dispatch`];
//! `cargo xtask experiments` holds each one's standard output byte for byte
//! to `results/<name>.txt`. An entry's output is a function of the code
//! alone; a harness that prints machine-dependent numbers under a budget
//! is a gate emitter and stays a binary under `src/bin/`.

use crate::Checks;

mod algo_compare;
mod collectives_cost;
mod eq3_check;
mod fig1;
mod fig2;
mod genbound_demo;
mod lemma2_cases;
mod limited_memory;
mod phase_attribution;
mod strong_scaling;
mod table1;
mod tightness;
mod tradeoff_25d;

/// One reproducible paper artifact.
pub struct Experiment {
    /// What `pmm experiment` calls it, and the stem of its `results/` file.
    pub name: &'static str,
    /// The table, figure or claim of the paper it regenerates.
    pub artifact: &'static str,
    /// Print the artifact to standard output, recording every self-check.
    pub run: fn(&mut Checks),
}

const fn entry(name: &'static str, artifact: &'static str, run: fn(&mut Checks)) -> Experiment {
    Experiment { name, artifact, run }
}

/// Every experiment, in EXPERIMENTS.md order (E1–E12, E14).
pub static EXPERIMENTS: &[Experiment] = &[
    entry("table1", "Table 1 — constants of prior work vs. Theorem 3", table1::run),
    entry("lemma2_cases", "Lemma 2 — the three solution regimes", lemma2_cases::run),
    entry("tightness", "Theorem 3 / Corollary 4 — measured == bound", tightness::run),
    entry("fig2", "Figure 2 — optimal grids for the §5.3 instance", fig2::run),
    entry("fig1", "Figure 1 — data/communication sets on a 3×3×3 grid", fig1::run),
    entry("eq3_check", "eq. (3) — Algorithm 1's cost formula vs. execution", eq3_check::run),
    entry("limited_memory", "§6.2 — bound crossover and memory footprints", limited_memory::run),
    entry("strong_scaling", "§2.3 — strong scaling, executed to P = 262 144", strong_scaling::run),
    entry("algo_compare", "§2.4 — Algorithm 1 vs Cannon / SUMMA / 2.5D / CARMA", algo_compare::run),
    entry("collectives_cost", "§3.1 / §5.1 — collective cost optimality", collectives_cost::run),
    entry("tradeoff_25d", "§6.2 — the 2.5D memory/communication trade-off", tradeoff_25d::run),
    entry("genbound_demo", "§6.3 — the generalized optimization problem", genbound_demo::run),
    entry("phase_attribution", "eq. (3) per phase, from the trace", phase_attribution::run),
];

/// `pmm experiment <which>` over `table`: `--list` prints one line per
/// entry, `all` runs every entry under a `=== name ===` header, a name
/// runs that entry. Returns the process exit code: 0 when every check
/// held, 1 when one failed, 2 (with the names on standard error) when
/// `which` names nothing.
pub fn dispatch(table: &[Experiment], which: &str) -> u8 {
    let run_one = |e: &Experiment| {
        let mut checks = Checks::default();
        (e.run)(&mut checks);
        checks.finish()
    };
    match which {
        "--list" => {
            for e in table {
                println!("{:<18} {}", e.name, e.artifact);
            }
            0
        }
        "all" => {
            let mut code = 0;
            for e in table {
                println!("=== {} ===", e.name);
                code |= run_one(e);
                println!();
            }
            code
        }
        name => match table.iter().find(|e| e.name == name) {
            Some(e) => run_one(e),
            None => {
                let names: Vec<&str> = table.iter().map(|e| e.name).collect();
                eprintln!("error: no experiment `{name}`; one of: {}, all", names.join(", "));
                2
            }
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn names_are_unique_and_equal_the_committed_results_files() {
        let names: BTreeSet<String> = EXPERIMENTS.iter().map(|e| e.name.to_string()).collect();
        assert_eq!(names.len(), EXPERIMENTS.len(), "a name is registered twice");
        let results = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
        let stems: BTreeSet<String> = std::fs::read_dir(&results)
            .expect("results/ is committed")
            .flatten()
            .map(|entry| entry.path())
            .filter(|path| path.extension().is_some_and(|ext| ext == "txt"))
            .filter_map(|path| Some(path.file_stem()?.to_str()?.to_string()))
            .collect();
        assert_eq!(names, stems, "EXPERIMENTS and results/*.txt name different sets");
    }

    #[test]
    fn a_failed_check_exits_one_a_clean_run_zero_an_unknown_name_two() {
        let table = [
            entry("holds", "a check that holds", |c| c.check("ok", true)),
            entry("breaks", "a check that fails", |c| c.check("no", false)),
        ];
        assert_eq!(dispatch(&table, "holds"), 0);
        assert_eq!(dispatch(&table, "breaks"), 1);
        assert_eq!(dispatch(&table, "all"), 1, "one failure fails the sweep");
        assert_eq!(dispatch(&table[..1], "all"), 0);
        assert_eq!(dispatch(&table, "--list"), 0);
        assert_eq!(dispatch(&table, "nope"), 2);
    }
}
