//! Hand-rolled argument parsing for the `pmm` binary.
//!
//! Kept dependency-free and pure (`Vec<String> → Command`) so the whole
//! surface is unit-testable.

use std::fmt;

use pmm_model::MatMulDims;
use pmm_simnet::FaultPlan;

/// A fully parsed CLI invocation.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// `pmm bound --dims AxBxC --procs P [--memory M]`
    Bound { dims: MatMulDims, procs: f64, memory: Option<f64> },
    /// `pmm grid --dims AxBxC --procs P`
    Grid { dims: MatMulDims, procs: usize },
    /// `pmm advise --dims AxBxC --procs P [--memory M] [--alpha A --beta B --gamma G]`
    Advise {
        dims: MatMulDims,
        procs: usize,
        memory: Option<f64>,
        alpha: f64,
        beta: f64,
        gamma: f64,
    },
    /// `pmm simulate --dims AxBxC --procs P [--grid AxBxC] [--seed S]
    /// [--faults SPEC]`
    Simulate {
        dims: MatMulDims,
        procs: usize,
        grid: Option<[usize; 3]>,
        seed: u64,
        faults: Option<FaultPlan>,
    },
    /// `pmm trace --dims AxBxC --procs P [--grid AxBxC] [--seed S]
    /// [--out FILE]`
    Trace {
        dims: MatMulDims,
        procs: usize,
        grid: Option<[usize; 3]>,
        seed: u64,
        out: Option<String>,
    },
    /// `pmm sweep --dims AxBxC --procs P1,P2,…`
    Sweep { dims: MatMulDims, procs: Vec<f64> },
    /// `pmm serve [--port N] [--oneshot] [--workers N] [--queue-depth N]
    /// [--deadline-ms N] [--read-timeout-ms N] [--max-line N] [--cache N]`
    Serve(ServeOpts),
    /// `pmm calibrate [--budget-secs S] [--out FILE]`
    Calibrate { budget_secs: f64, out: Option<String> },
    /// `pmm experiment <name> | all | --list` (`which`, resolved by the registry)
    Experiment { which: String },
    /// `pmm help` / `-h` / `--help`
    Help,
}

/// Parsed `pmm serve` options: flag overrides layered on top of the
/// `PMM_SERVE_*` environment (a flag beats its environment variable,
/// which beats the built-in default).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServeOpts {
    /// `--port N`: serve TCP on 127.0.0.1:N instead of stdin/stdout
    /// (`PMM_SERVE_PORT` when absent).
    pub port: Option<u16>,
    /// `--oneshot`: answer exactly one request from stdin and exit with
    /// 0 for `OK`, 1 otherwise.
    pub oneshot: bool,
    /// `--workers N` override.
    pub workers: Option<usize>,
    /// `--queue-depth N` override.
    pub queue_depth: Option<usize>,
    /// `--deadline-ms N` override.
    pub deadline_ms: Option<u64>,
    /// `--read-timeout-ms N` override.
    pub read_timeout_ms: Option<u64>,
    /// `--max-line N` override.
    pub max_line: Option<usize>,
    /// `--cache N` override.
    pub cache: Option<usize>,
}

/// A parse failure with a user-facing message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError(pub String);

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ParseError {}

fn err(msg: impl Into<String>) -> ParseError {
    ParseError(msg.into())
}

/// Parse `AxBxC` into a dimension triple.
pub fn parse_dims(s: &str) -> Result<MatMulDims, ParseError> {
    let parts: Vec<&str> = s.split(['x', 'X']).collect();
    if parts.len() != 3 {
        return Err(err(format!("--dims expects N1xN2xN3, got '{s}'")));
    }
    let mut v = [0u64; 3];
    for (i, p) in parts.iter().enumerate() {
        v[i] = p
            .parse::<u64>()
            .map_err(|_| err(format!("dimension '{p}' is not a positive integer")))?;
        if v[i] == 0 {
            return Err(err("dimensions must be >= 1"));
        }
    }
    Ok(MatMulDims::new(v[0], v[1], v[2]))
}

/// Parse `AxBxC` into a grid triple.
pub fn parse_grid(s: &str) -> Result<[usize; 3], ParseError> {
    let d = parse_dims(s)?;
    Ok([d.n1 as usize, d.n2 as usize, d.n3 as usize])
}

struct Flags<'a> {
    pairs: Vec<(&'a str, &'a str)>,
}

impl<'a> Flags<'a> {
    fn parse(args: &'a [String]) -> Result<Flags<'a>, ParseError> {
        let mut pairs = Vec::new();
        let mut i = 0;
        while i < args.len() {
            let flag = args[i].as_str();
            if !flag.starts_with("--") {
                return Err(err(format!("expected a --flag, got '{flag}'")));
            }
            let value = args.get(i + 1).ok_or_else(|| err(format!("flag {flag} needs a value")))?;
            pairs.push((&flag[2..], value.as_str()));
            i += 2;
        }
        Ok(Flags { pairs })
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.pairs.iter().find(|(f, _)| *f == name).map(|(_, v)| *v)
    }

    fn require(&self, name: &str) -> Result<&str, ParseError> {
        self.get(name).ok_or_else(|| err(format!("missing required flag --{name}")))
    }

    fn reject_unknown(&self, known: &[&str]) -> Result<(), ParseError> {
        for (f, _) in &self.pairs {
            if !known.contains(f) {
                return Err(err(format!("unknown flag --{f}")));
            }
        }
        Ok(())
    }
}

fn parse_opt_int<T: std::str::FromStr>(flags: &Flags, name: &str) -> Result<Option<T>, ParseError> {
    match flags.get(name) {
        None => Ok(None),
        Some(v) => v
            .parse::<T>()
            .map(Some)
            .map_err(|_| err(format!("--{name} expects an unsigned integer, got '{v}'"))),
    }
}

fn parse_f64(flags: &Flags, name: &str, default: Option<f64>) -> Result<Option<f64>, ParseError> {
    match flags.get(name) {
        None => Ok(default),
        Some(v) => v
            .parse::<f64>()
            .map(Some)
            .map_err(|_| err(format!("--{name} expects a number, got '{v}'"))),
    }
}

/// Parse a full argument vector (without the program name).
pub fn parse_args(args: &[String]) -> Result<Command, ParseError> {
    let Some(cmd) = args.first() else {
        return Ok(Command::Help);
    };
    let rest = &args[1..];
    match cmd.as_str() {
        "help" | "-h" | "--help" => Ok(Command::Help),
        "bound" => {
            let flags = Flags::parse(rest)?;
            flags.reject_unknown(&["dims", "procs", "memory"])?;
            Ok(Command::Bound {
                dims: parse_dims(flags.require("dims")?)?,
                procs: parse_f64(&flags, "procs", None)?
                    .ok_or_else(|| err("missing required flag --procs"))?,
                memory: parse_f64(&flags, "memory", None)?,
            })
        }
        "grid" => {
            let flags = Flags::parse(rest)?;
            flags.reject_unknown(&["dims", "procs"])?;
            let procs = flags
                .require("procs")?
                .parse::<usize>()
                .map_err(|_| err("--procs expects a positive integer"))?;
            Ok(Command::Grid { dims: parse_dims(flags.require("dims")?)?, procs })
        }
        "advise" => {
            let flags = Flags::parse(rest)?;
            flags.reject_unknown(&["dims", "procs", "memory", "alpha", "beta", "gamma"])?;
            let procs = flags
                .require("procs")?
                .parse::<usize>()
                .map_err(|_| err("--procs expects a positive integer"))?;
            Ok(Command::Advise {
                dims: parse_dims(flags.require("dims")?)?,
                procs,
                memory: parse_f64(&flags, "memory", None)?,
                alpha: parse_f64(&flags, "alpha", Some(1e4))?
                    .expect("parse_f64 returns Some when a default is supplied"),
                beta: parse_f64(&flags, "beta", Some(10.0))?
                    .expect("parse_f64 returns Some when a default is supplied"),
                gamma: parse_f64(&flags, "gamma", Some(1.0))?
                    .expect("parse_f64 returns Some when a default is supplied"),
            })
        }
        "simulate" => {
            let flags = Flags::parse(rest)?;
            flags.reject_unknown(&["dims", "procs", "grid", "seed", "faults"])?;
            let procs = flags
                .require("procs")?
                .parse::<usize>()
                .map_err(|_| err("--procs expects a positive integer"))?;
            let grid = flags.get("grid").map(parse_grid).transpose()?;
            let seed = match flags.get("seed") {
                None => 42,
                Some(v) => v.parse::<u64>().map_err(|_| err("--seed expects an integer"))?,
            };
            let faults = flags
                .get("faults")
                .map(|s| FaultPlan::parse(s).map_err(|e| err(format!("--faults: {e}"))))
                .transpose()?;
            Ok(Command::Simulate {
                dims: parse_dims(flags.require("dims")?)?,
                procs,
                grid,
                seed,
                faults,
            })
        }
        "trace" => {
            let flags = Flags::parse(rest)?;
            flags.reject_unknown(&["dims", "procs", "grid", "seed", "out"])?;
            let procs = flags
                .require("procs")?
                .parse::<usize>()
                .map_err(|_| err("--procs expects a positive integer"))?;
            let grid = flags.get("grid").map(parse_grid).transpose()?;
            let seed = match flags.get("seed") {
                None => 42,
                Some(v) => v.parse::<u64>().map_err(|_| err("--seed expects an integer"))?,
            };
            Ok(Command::Trace {
                dims: parse_dims(flags.require("dims")?)?,
                procs,
                grid,
                seed,
                out: flags.get("out").map(String::from),
            })
        }
        "sweep" => {
            let flags = Flags::parse(rest)?;
            flags.reject_unknown(&["dims", "procs"])?;
            let procs: Vec<f64> = flags
                .require("procs")?
                .split(',')
                .map(|s| {
                    s.parse::<f64>()
                        .map_err(|_| err(format!("bad processor count '{s}' in --procs list")))
                })
                .collect::<Result<_, _>>()?;
            if procs.is_empty() {
                return Err(err("--procs list is empty"));
            }
            Ok(Command::Sweep { dims: parse_dims(flags.require("dims")?)?, procs })
        }
        "serve" => {
            // `--oneshot` is the one valueless flag in the CLI; strip it
            // before the pairwise flag parser sees the rest.
            let mut oneshot = false;
            let rest_pairs: Vec<String> = rest
                .iter()
                .filter(|a| {
                    let hit = a.as_str() == "--oneshot";
                    oneshot |= hit;
                    !hit
                })
                .cloned()
                .collect();
            let flags = Flags::parse(&rest_pairs)?;
            flags.reject_unknown(&[
                "port",
                "workers",
                "queue-depth",
                "deadline-ms",
                "read-timeout-ms",
                "max-line",
                "cache",
            ])?;
            Ok(Command::Serve(ServeOpts {
                port: parse_opt_int(&flags, "port")?,
                oneshot,
                workers: parse_opt_int(&flags, "workers")?,
                queue_depth: parse_opt_int(&flags, "queue-depth")?,
                deadline_ms: parse_opt_int(&flags, "deadline-ms")?,
                read_timeout_ms: parse_opt_int(&flags, "read-timeout-ms")?,
                max_line: parse_opt_int(&flags, "max-line")?,
                cache: parse_opt_int(&flags, "cache")?,
            }))
        }
        "calibrate" => {
            let flags = Flags::parse(rest)?;
            flags.reject_unknown(&["budget-secs", "out"])?;
            let budget_secs = parse_f64(&flags, "budget-secs", Some(10.0))?
                .expect("parse_f64 returns Some when a default is supplied");
            if budget_secs <= 0.0 || !budget_secs.is_finite() {
                return Err(err("--budget-secs must be positive"));
            }
            Ok(Command::Calibrate { budget_secs, out: flags.get("out").map(String::from) })
        }
        "experiment" => match rest {
            [which] => Ok(Command::Experiment { which: which.clone() }),
            _ => Err(err("experiment expects one of: <name>, all, --list")),
        },
        other => Err(err(format!("unknown command '{other}' (try 'pmm help')"))),
    }
}

/// The help text.
pub const HELP: &str = "\
pmm — tight memory-independent parallel matmul communication bounds (SPAA 2022)

USAGE:
  pmm bound    --dims N1xN2xN3 --procs P [--memory M]
      Evaluate the Theorem 3 lower bound (and, with --memory, the §6.2
      memory-dependent comparison).
  pmm grid     --dims N1xN2xN3 --procs P
      The optimal processor grid (§5.2), exact integer search.
  pmm advise   --dims N1xN2xN3 --procs P [--memory M]
               [--alpha A] [--beta B] [--gamma G]
      Rank execution strategies by predicted time on an α-β-γ machine.
  pmm simulate --dims N1xN2xN3 --procs P [--grid AxBxC] [--seed S]
               [--faults SPEC]
      Run Algorithm 1 on the simulated machine (ranks are continuations
      on a single-threaded event loop, so P up to 10^5-10^6 executes for
      real), verify the product, and report measured communication vs
      the bound. --faults injects seeded message faults and rank
      failures (recovered by checkpointed re-planning onto the optimal
      grid of the survivors);
      SPEC is comma-separated key=value pairs: drop/dup/corrupt/delay
      (rates), timeout, cap, retries, seed (fault seed),
      kill=RANK@OP (repeatable), cascade=RANK@EPOCH (kill RANK at its
      next operation once EPOCH deaths have occurred),
      part=R1+R2+...@LO..HI#HEAL (network partition: messages crossing
      the cut are blackholed for sequence numbers LO..HI until HEAL
      failed attempts, then the partition heals),
      storm=RATExFACTOR (straggler storm: a RATE fraction of messages
      slowed by FACTOR), slow=RANKxFACTOR — e.g.
      --faults drop=0.05,kill=2@5,cascade=7@1,part=0+1@2..30#2,seed=0xFA.
      Exits nonzero if the product is wrong or a failure is not
      recovered.
  pmm trace    --dims N1xN2xN3 --procs P [--grid AxBxC] [--seed S]
               [--out FILE]
      Run Algorithm 1 with structured tracing on: report the per-phase
      cost attribution against the eq. (3) prediction, the critical-path
      breakdown, and a compact text trace. --out writes the full event
      trace as Chrome trace_event JSON (load in Perfetto or
      chrome://tracing). Exits nonzero if the product is wrong.
  pmm sweep    --dims N1xN2xN3 --procs P1,P2,...
      Bound/case/grid table over a list of processor counts.
  pmm serve    [--port N] [--oneshot] [--workers N] [--queue-depth N]
               [--deadline-ms N] [--read-timeout-ms N] [--max-line N]
               [--cache N]
      Hardened advisor service speaking a line protocol (ADVISE / STATS
      / PING → one OK/ERR/SHED/TIMEOUT line each) over stdin/stdout, or
      TCP with --port (or PMM_SERVE_PORT). Overloads shed, deadlines
      time out, stalled clients are disconnected, and worker panics are
      isolated; see the PMM_SERVE_* environment table in the README for
      the defaults each flag overrides. --oneshot answers a single
      request from stdin and exits 0 iff the response is OK.
  pmm calibrate [--budget-secs S] [--out FILE]
      Measure this host's α (per-message), β (per-word), γ (per
      multiply-add) and per-run setup cost from timed in-process probes
      (ping-pong, stream, GEMM — see docs/PERFORMANCE.md), print the
      fitted constants, and with --out write them as the calibration
      JSON that turns eq. (3) word counts into predicted seconds. The
      GEMM probe uses the kernel PMM_KERNEL selects (default: auto).
  pmm experiment <name> | all | --list
      Regenerate a table, figure or claim of the paper (--list names
      them) and verify it: every run is executed on the simulator and
      checked against the closed forms; the output is what
      results/<name>.txt holds. Exits 1 on a failed check, 2 on an
      unlisted name.
  pmm help
";

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_bound() {
        let c = parse_args(&argv("bound --dims 9600x2400x600 --procs 512")).unwrap();
        assert_eq!(
            c,
            Command::Bound { dims: MatMulDims::new(9600, 2400, 600), procs: 512.0, memory: None }
        );
    }

    #[test]
    fn parses_bound_with_memory() {
        let c = parse_args(&argv("bound --dims 10x10x10 --procs 4 --memory 9000")).unwrap();
        match c {
            Command::Bound { memory: Some(m), .. } => assert_eq!(m, 9000.0),
            _ => panic!("wrong parse: {c:?}"),
        }
    }

    #[test]
    fn parses_grid_and_simulate() {
        assert_eq!(
            parse_args(&argv("grid --dims 96x24x6 --procs 36")).unwrap(),
            Command::Grid { dims: MatMulDims::new(96, 24, 6), procs: 36 }
        );
        assert_eq!(
            parse_args(&argv("simulate --dims 96x24x6 --procs 4 --grid 4x1x1 --seed 7")).unwrap(),
            Command::Simulate {
                dims: MatMulDims::new(96, 24, 6),
                procs: 4,
                grid: Some([4, 1, 1]),
                seed: 7,
                faults: None,
            }
        );
    }

    #[test]
    fn simulate_rejects_the_retired_engine_flag_as_unknown() {
        let e = parse_args(&argv("simulate --dims 8x8x8 --procs 2 --engine threads")).unwrap_err();
        assert!(e.to_string().contains("unknown flag --engine"), "{e}");
    }

    #[test]
    fn parses_simulate_faults_spec() {
        let c = parse_args(&argv(
            "simulate --dims 24x24x24 --procs 9 --faults drop=0.05,kill=4@5,seed=0xFA",
        ))
        .unwrap();
        match c {
            Command::Simulate { faults: Some(plan), .. } => {
                assert_eq!(plan.drop, 0.05);
                assert_eq!(plan.seed, Some(0xFA));
                assert_eq!(plan.kills.len(), 1);
                assert_eq!((plan.kills[0].rank, plan.kills[0].at_op), (4, 5));
            }
            other => panic!("wrong parse: {other:?}"),
        }
        // A bad spec is a parse error, not a panic downstream.
        assert!(parse_args(&argv("simulate --dims 8x8x8 --procs 2 --faults bogus")).is_err());
        assert!(parse_args(&argv("simulate --dims 8x8x8 --procs 2 --faults drop=x")).is_err());
    }

    #[test]
    fn parses_advise_with_defaults() {
        let c = parse_args(&argv("advise --dims 100x100x100 --procs 8")).unwrap();
        match c {
            Command::Advise { alpha, beta, gamma, memory, .. } => {
                assert_eq!((alpha, beta, gamma), (1e4, 10.0, 1.0));
                assert_eq!(memory, None);
            }
            _ => panic!("wrong parse"),
        }
    }

    #[test]
    fn parses_trace() {
        assert_eq!(
            parse_args(&argv("trace --dims 96x24x12 --procs 8 --grid 4x1x2 --seed 7 --out t.json"))
                .unwrap(),
            Command::Trace {
                dims: MatMulDims::new(96, 24, 12),
                procs: 8,
                grid: Some([4, 1, 2]),
                seed: 7,
                out: Some("t.json".into()),
            }
        );
        // --grid/--seed/--out are optional; --dims and --procs are not.
        assert_eq!(
            parse_args(&argv("trace --dims 8x8x8 --procs 2")).unwrap(),
            Command::Trace {
                dims: MatMulDims::new(8, 8, 8),
                procs: 2,
                grid: None,
                seed: 42,
                out: None,
            }
        );
        assert!(parse_args(&argv("trace --procs 2")).is_err());
        assert!(parse_args(&argv("trace --dims 8x8x8 --procs 2 --bogus 1")).is_err());
    }

    #[test]
    fn parses_sweep_lists() {
        let c = parse_args(&argv("sweep --dims 10x10x10 --procs 1,4,16")).unwrap();
        assert_eq!(
            c,
            Command::Sweep { dims: MatMulDims::new(10, 10, 10), procs: vec![1.0, 4.0, 16.0] }
        );
    }

    #[test]
    fn parses_serve_flags_and_oneshot() {
        assert_eq!(parse_args(&argv("serve")).unwrap(), Command::Serve(ServeOpts::default()));
        let c = parse_args(&argv(
            "serve --port 7070 --oneshot --workers 2 --queue-depth 16 --deadline-ms 50 \
             --read-timeout-ms 250 --max-line 512 --cache 64",
        ))
        .unwrap();
        assert_eq!(
            c,
            Command::Serve(ServeOpts {
                port: Some(7070),
                oneshot: true,
                workers: Some(2),
                queue_depth: Some(16),
                deadline_ms: Some(50),
                read_timeout_ms: Some(250),
                max_line: Some(512),
                cache: Some(64),
            })
        );
        // `--oneshot` is position-independent.
        let c = parse_args(&argv("serve --oneshot --deadline-ms 50")).unwrap();
        assert_eq!(
            c,
            Command::Serve(ServeOpts {
                oneshot: true,
                deadline_ms: Some(50),
                ..ServeOpts::default()
            })
        );
        assert!(parse_args(&argv("serve --port zero")).is_err());
        assert!(parse_args(&argv("serve --port 99999")).is_err(), "port must fit u16");
        assert!(parse_args(&argv("serve --bogus 1")).is_err());
    }

    #[test]
    fn parses_calibrate() {
        assert_eq!(
            parse_args(&argv("calibrate")).unwrap(),
            Command::Calibrate { budget_secs: 10.0, out: None }
        );
        assert_eq!(
            parse_args(&argv("calibrate --budget-secs 2.5 --out calibration.json")).unwrap(),
            Command::Calibrate { budget_secs: 2.5, out: Some("calibration.json".into()) }
        );
        assert!(parse_args(&argv("calibrate --budget-secs 0")).is_err());
        assert!(parse_args(&argv("calibrate --budget-secs -1")).is_err());
        assert!(parse_args(&argv("calibrate --bogus 1")).is_err());
    }

    #[test]
    fn parses_experiment() {
        let parsed = parse_args(&argv("experiment --list")).unwrap();
        assert_eq!(parsed, Command::Experiment { which: "--list".into() });
        assert!(parse_args(&argv("experiment")).is_err());
        assert!(parse_args(&argv("experiment table1 fig1")).is_err());
    }

    #[test]
    fn help_variants() {
        assert_eq!(parse_args(&argv("help")).unwrap(), Command::Help);
        assert_eq!(parse_args(&argv("--help")).unwrap(), Command::Help);
        assert_eq!(parse_args(&[]).unwrap(), Command::Help);
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(parse_args(&argv("bound --dims 10x10 --procs 4")).is_err());
        assert!(parse_args(&argv("bound --dims 10x10x0 --procs 4")).is_err());
        assert!(parse_args(&argv("bound --procs 4")).is_err());
        assert!(parse_args(&argv("bound --dims 10x10x10")).is_err());
        assert!(parse_args(&argv("bound --dims 10x10x10 --procs four")).is_err());
        assert!(parse_args(&argv("frobnicate")).is_err());
        assert!(parse_args(&argv("bound --dims 10x10x10 --procs 4 --bogus 1")).is_err());
        assert!(parse_args(&argv("grid --dims 10x10x10 --procs 4.5")).is_err());
        assert!(parse_args(&argv("sweep --dims 10x10x10 --procs 1,x")).is_err());
    }

    #[test]
    fn flag_without_value_is_an_error() {
        assert!(parse_args(&argv("bound --dims")).is_err());
    }
}
