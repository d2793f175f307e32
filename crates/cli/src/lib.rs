//! # pmm-cli — command-line interface to the pmm library
//!
//! ```text
//! pmm bound    --dims 9600x2400x600 --procs 512 [--memory M]
//! pmm grid     --dims 9600x2400x600 --procs 512
//! pmm advise   --dims 4096x4096x4096 --procs 512 [--memory M]
//!              [--alpha A --beta B --gamma G]
//! pmm simulate --dims 768x192x48 --procs 36 [--grid 12x3x1] [--seed S]
//! pmm trace    --dims 768x192x48 --procs 36 [--grid 12x3x1] [--seed S]
//!              [--out run.json]
//! pmm sweep    --dims 9600x2400x600 --procs 1,4,36,512,4096
//! pmm experiment table1 | all | --list
//! ```
//!
//! Argument parsing is hand-rolled (no external dependency) and separated
//! from the command implementations so it can be unit tested.

pub mod args;
pub mod commands;

pub use args::{parse_args, Command, ParseError};
