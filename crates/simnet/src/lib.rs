//! # pmm-simnet — a metered, simulated distributed-memory machine
//!
//! This crate is the workspace's substitute for an MPI cluster. It realizes
//! the α-β-γ machine model of §3.1 of the paper as a *real concurrent
//! execution*: every simulated processor ("rank") is an async program
//! with private data, a continuation on a deterministic event loop
//! ([`World::run_async`], 10^5–10^6 ranks on one thread), and the
//! **only** way data moves between ranks is through explicit messages
//! over channels. Consequently, the word counts metered here are exactly
//! the communication volumes a distributed implementation would incur —
//! which is the quantity the paper's lower bounds constrain. A second,
//! OS-thread host ([`World::run`]) survives only for the frozen
//! benchmark's sync entry points; see [`engine`].
//!
//! ## What is metered
//!
//! * per-rank **traffic**: words and messages sent and received
//!   ([`Meter`]), with cheap snapshots so callers can attribute traffic to
//!   phases (e.g. "the All-Gather of A" vs "the Reduce-Scatter of C");
//! * per-rank **critical-path clock**: a Lamport-style clock advanced by
//!   `α + βw` per message, `γ` per flop, with full-duplex exchanges costed
//!   once (§3.1: links are bidirectional, a pair can exchange with no
//!   contention). Run with [`MachineParams::BANDWIDTH_ONLY`] and the final
//!   clock *is* the bandwidth cost along the critical path;
//! * per-rank **memory**: a high-water mark of explicitly acquired words,
//!   used by the limited-memory experiments (§6.2);
//! * optional **structured event traces** ([`tracer`]) of every message,
//!   compute call, collective entry, and phase scope — feeding the
//!   per-phase cost attribution, the critical-path analyzer, and the
//!   Chrome `trace_event` export, as well as the Fig. 1 style
//!   who-talks-to-whom analyses.
//!
//! ## Shape of the API
//!
//! ```
//! use pmm_model::MachineParams;
//! use pmm_simnet::World;
//!
//! // 4 ranks; each sends its rank to rank 0.
//! let out = World::new(4, MachineParams::BANDWIDTH_ONLY).run_async(|rank| {
//!     Box::pin(async move {
//!         let world = rank.world_comm();
//!         if rank.world_rank() == 0 {
//!             let mut sum = 0.0;
//!             for from in 1..4 {
//!                 sum += rank.recv_a(&world, from).await.payload[0];
//!             }
//!             sum
//!         } else {
//!             rank.send_a(&world, 0, &[rank.world_rank() as f64]).await;
//!             0.0
//!         }
//!     })
//! });
//! assert_eq!(out.values[0], 6.0);
//! assert_eq!(out.total_words_sent(), 3.0);
//! ```
//!
//! Deadlock note: mailboxes are unbounded, so `send_a` never blocks;
//! `recv_a` suspends until the matching message arrives. A program that
//! receives a message that was never sent would block forever — as under
//! MPI — but the [`verify`] layer turns that into a *checked* failure:
//! the scheduler proves the deadlock at pick time and panics with a
//! report naming every blocked rank, its operation, communicator context,
//! and call site, and a collective-matching lint flags mismatched
//! collectives deterministically before they hang. See the `verify`
//! module docs.
//!
//! Reproducibility note: every run is scheduled by one deterministic
//! scheduler — the canonical schedule (smallest runnable rank first) by
//! default, a seeded one under [`World::with_seed`] — which serializes
//! rank progress at every blocking point. A world built with
//! [`World::with_schedule_recording`]`(true)` also records every pick in
//! a byte-identical [`ChoiceLog`]. See the [`trace`] module for
//! golden-log replay ([`ChoiceLog::assert_matches`]), the
//! [`fuzz_schedules`] harness, and the `PMM_SEED` replay knob
//! ([`seed_from_env`]).
//!
//! Robustness note: [`World::with_faults`] attaches a seeded [`FaultPlan`]
//! that drops, duplicates, corrupts, or delays messages (absorbed by a
//! sequence-numbered, checksummed reliable-delivery layer whose
//! retransmissions are metered separately from goodput), slows ranks into
//! stragglers, or kills ranks outright — with killed ranks surfacing as
//! typed [`RankFailed`] errors via [`catch_failures_async!`] so programs
//! can rebuild a communicator over the survivors
//! ([`Rank::recovery_split_a`]) and recompute. See the [`fault`] module.

#![warn(missing_docs)]

pub mod comm;
pub mod engine;
pub mod fabric;
pub mod fault;
pub mod hostmem;
pub mod meter;
pub mod rank;
mod readyset;
pub mod trace;
pub mod tracer;
pub mod verify;
pub mod world;

pub use comm::Comm;
pub use engine::{poll_now, LocalBoxFuture};
pub use fabric::{probe_ready_sets, Ctx, Message};
pub use fault::{FaultPlan, KillSpec, RankFailed, Straggler};
pub use hostmem::HostMem;
pub use meter::{MemTracker, Meter};
pub use rank::{catch_fault_panics, FaultWatch, MemoryLimitExceeded, Rank};
pub use trace::{
    fuzz_schedules, rank_divergence, repro_hint, schedule_from_env, seed_from_env, ChoiceLog,
    ChoicePoint, ChoicePoints, Repro, Resource, Schedule, ScheduleDivergence, SCHEDULE_ENV,
    SEED_ENV,
};
pub use tracer::{Attribution, CriticalPath, PhaseDiff, PhaseTotals, TraceEvent, TraceOp, Tracer};
pub use verify::{CollectiveOp, VerifyConfig};
pub use world::{RankReport, RunFailure, World, WorldResult};

// Re-export the model vocabulary users need alongside the simulator.
pub use pmm_model::{Cost, MachineParams};
