//! The `pmm` binary: see [`pmm_cli::args::HELP`].

use pmm_bench::experiments::{dispatch, EXPERIMENTS};
use pmm_cli::args::{parse_args, Command, HELP};
use pmm_cli::commands;
use pmm_dense::{kernel_from_env, Kernel};

/// The local GEMM tier `PMM_KERNEL` names (`auto` when unset). A value
/// that names no tier is a usage error: running another kernel than the
/// one asked for would report a result about the wrong code.
fn kernel() -> Kernel {
    kernel_from_env(Kernel::default()).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse_args(&args) {
        Ok(Command::Help) => print!("{HELP}"),
        Ok(Command::Bound { dims, procs, memory }) => {
            print!("{}", commands::bound(dims, procs, memory));
        }
        Ok(Command::Grid { dims, procs }) => print!("{}", commands::grid(dims, procs)),
        Ok(Command::Advise { dims, procs, memory, alpha, beta, gamma }) => {
            print!("{}", commands::advise(dims, procs, memory, alpha, beta, gamma));
        }
        Ok(Command::Simulate { dims, procs, grid, seed, faults }) => {
            let (report, code) = commands::simulate_run(dims, procs, grid, seed, faults, kernel());
            print!("{report}");
            if code != 0 {
                std::process::exit(code.into());
            }
        }
        Ok(Command::Trace { dims, procs, grid, seed, out }) => {
            let (report, code) = commands::trace(dims, procs, grid, seed, out.as_deref(), kernel());
            print!("{report}");
            if code != 0 {
                std::process::exit(code.into());
            }
        }
        Ok(Command::Sweep { dims, procs }) => print!("{}", commands::sweep(dims, &procs)),
        Ok(Command::Calibrate { budget_secs, out }) => {
            let (report, code) = commands::calibrate(budget_secs, out.as_deref(), kernel());
            print!("{report}");
            if code != 0 {
                std::process::exit(code.into());
            }
        }
        Ok(Command::Experiment { which }) => {
            let code = dispatch(EXPERIMENTS, &which);
            if code != 0 {
                std::process::exit(code.into());
            }
        }
        Ok(Command::Serve(opts)) => {
            let code = commands::serve(&opts);
            if code != 0 {
                std::process::exit(code.into());
            }
        }
        Err(e) => {
            eprintln!("error: {e}\n");
            eprint!("{HELP}");
            std::process::exit(2);
        }
    }
}
