//! # pmm-explore — schedule-space exploration for `pmm-simnet`
//!
//! The deterministic scheduler in `pmm-simnet` makes every rank
//! interleaving a replayable object: a run is a sequence of scheduler
//! picks, recorded as a [`ChoiceLog`] (per pick: chosen rank, resources
//! touched, and the runnable set, rebuilt from logged changes), and any
//! pick prefix can be replayed exactly with
//! [`Schedule::Prefix`]. This crate turns that into a race checker:
//!
//! * [`dpor`] — DPOR-lite exploration of the choice tree. Depth-first
//!   replay over prefixes, with sleep-set pruning driven by the
//!   fabric-recorded resource footprints; [`Strategy::Exhaustive`]
//!   visits literally every interleaving and reports the count as an
//!   exhaustiveness certificate for small worlds, while budgeted
//!   sleep-set runs sweep a frontier of larger schedule spaces. Every
//!   explored schedule is checked: results and meters must be bitwise
//!   schedule-independent and no schedule may deadlock or trip the
//!   verifier. Failures name the choice prefix in `PMM_SCHEDULE` form.
//! * [`synth`] — generative rank-program synthesis with an intent
//!   oracle. A seeded generator emits random valid *and* deliberately
//!   malformed programs (collective mismatches, deadlocks, split
//!   disorder, undrained traffic); the verifier must flag exactly the
//!   malformed ones, for the right reason.
//!
//! ```
//! use pmm_explore::{explore, ExploreConfig};
//! use pmm_simnet::{MachineParams, World};
//!
//! // Prove a 3-rank exchange is schedule-independent — exhaustively.
//! let world = World::new(3, MachineParams::BANDWIDTH_ONLY);
//! let report = explore(
//!     &world,
//!     |rank| {
//!         Box::pin(async move {
//!             let comm = rank.world_comm();
//!             let me = rank.world_rank();
//!             let n = comm.size();
//!             let (to, from) = ((me + 1) % n, (me + n - 1) % n);
//!             rank.exchange_a(&comm, to, from, &[me as f64]).await.payload[0]
//!         })
//!     },
//!     &ExploreConfig::exhaustive(),
//! )
//! .expect("some schedule failed");
//! assert!(report.complete, "exhaustive walk must drain the frontier");
//! assert!(report.schedules >= 1);
//! ```
//!
//! [`ChoiceLog`]: pmm_simnet::ChoiceLog
//! [`Schedule::Prefix`]: pmm_simnet::Schedule::Prefix

#![warn(missing_docs)]

pub mod dpor;
pub mod synth;

pub use dpor::{
    explore, explore_checked, explore_outcomes, ExploreConfig, ExploreReport, ScheduleFailure,
    ScheduleOutcome, Strategy,
};
pub use synth::{
    generate, interpret, run_generated, soak, verdict, world_for, GStep, GenOutcome, GenProgram,
    Intent, SoakStats,
};
