//! # minimpi — an in-process MPI-like message-passing runtime
//!
//! `minimpi` provides the distributed-memory substrate for the DDR
//! reproduction. It models an MPI job as a set of **ranks**, each running on
//! its own OS thread inside a single process, communicating through typed
//! point-to-point messages and MPI-style collectives.
//!
//! The subset implemented here is exactly what the DDR library (Marrinan et
//! al., *Automated Dynamic Data Redistribution*, 2017) and its two evaluation
//! use cases require:
//!
//! * a [`Universe`] that launches `n` ranks and hands each a [`Comm`],
//! * reliable, ordered, tag-matched point-to-point messaging
//!   ([`Comm::send`], [`Comm::recv_vec`], byte-level variants),
//! * collectives: [`Comm::barrier`], [`Comm::broadcast`], gather /
//!   allgather(v), reduce / allreduce, alltoall(v), and crucially
//!   [`Comm::alltoallw`] with **subarray datatypes** ([`Datatype`],
//!   [`Subarray`]) — the operation the paper builds data redistribution on,
//! * communicator splitting ([`Comm::split`]) so disjoint rank groups (e.g. a
//!   simulation resource and an analysis resource) can run their own
//!   collectives, as in the paper's in-transit streaming use case.
//!
//! ## Semantics
//!
//! * Sends are **eager and buffered**: `send` never blocks on the receiver
//!   (as if every message fit MPI's eager threshold). Messages between a
//!   (communicator, sender, tag) triple and a receiver are delivered in FIFO
//!   order, matching MPI's non-overtaking guarantee.
//! * Receives block until a matching message arrives, with a configurable
//!   watchdog timeout (default 120 s, or `DDR_TIMEOUT_MS` /
//!   [`Universe::builder`]) so an accidental deadlock in a test fails with
//!   [`Error::Timeout`] instead of hanging the suite.
//! * Collectives are implemented over point-to-point messages in a private
//!   tag namespace keyed by a per-communicator sequence number, so user
//!   traffic can never be confused with collective traffic.
//!
//! ## Fault injection and liveness
//!
//! A deterministic [`FaultPlan`] can be installed via [`Universe::builder`]:
//! it kills ranks at exact communication-op counts and drops, delays, or
//! corrupts matched in-flight messages — identically on every run, because
//! faults trigger on counters, never on wall clock. A **liveness registry**
//! tracks dead ranks (fault-killed, panicked, or returned early); blocking
//! receives and collectives aimed at a dead peer fail fast with
//! [`Error::PeerDead`] instead of burning the watchdog timeout, and
//! [`Comm::shrink`] lets survivors agree on a new communicator containing
//! only live ranks — the substrate for DDR's shrink-and-remap recovery.
//!
//! ## Elastic membership
//!
//! [`Comm::reconfigure`] goes beyond shrink: the survivors agree, the world
//! enters a new **membership epoch**, and (by default) every dead rank is
//! respawned as a fresh thread re-running the universe closure inside the
//! new epoch — so capacity lost to a failure is restored instead of
//! permanently degraded. Every message envelope carries its sender's epoch;
//! stale-epoch traffic (including in-flight zero-copy loans, which are
//! revoked) is fenced rather than matched, and the checker state is reset
//! across the bump so a reconfigure never produces a false
//! [`Error::Deadlock`] or [`Error::Timeout`]. See [`RecoveryCounters`] and
//! the `DDR_RESPAWN` / `DDR_RECONFIG_TIMEOUT_MS` knobs.
//!
//! ## Correctness checking
//!
//! `Universe::builder().check(true)` (or `DDR_CHECK=1`) turns on two
//! runtime analyses:
//!
//! * **Collective matching** — every collective records a fingerprint
//!   (operation kind, root, datatype signature) keyed by its per-communicator
//!   sequence number; the first rank whose fingerprint disagrees with its
//!   peers fails immediately with [`Error::CollectiveDiverged`], naming both
//!   ranks, both operations and both call sites, instead of deadlocking.
//! * **Wait-for-graph deadlock detection** — blocked receives register
//!   wait-for edges; a detector thread runs cycle detection and converts a
//!   confirmed cycle into [`Error::Deadlock`] on every member, listing the
//!   full cycle, long before the watchdog would fire.
//!
//! * **Happens-before race & lifetime checking** — each rank carries a
//!   vector clock, piggybacked on every envelope and joined at delivery;
//!   zero-copy loans and explicitly annotated buffers ([`Comm::check_write`]
//!   / [`Comm::check_read`]) are tracked resources. Two causally unordered
//!   accesses to overlapping bytes, at least one a write — e.g. a sender
//!   mutating a buffer while a receiver's claim is still copying — fail with
//!   [`Error::DataRace`]; loans still live at the end of the run panic with
//!   [`Error::LoanLeak`].
//! * **Datatype signature verification** — sends stamp a [`TypeSig`]
//!   (extent, element size, subarray shape) into the envelope; typed
//!   receives and `alltoallw` deliveries that disagree fail with
//!   [`Error::TypeMismatch`] before the bytes are reinterpreted.
//!
//! When checking is off (the default) the cost is one `Option` branch per
//! operation and no detector thread exists.
//!
//! ## Flow control and memory governance
//!
//! Sends are eager but no longer unbounded: every `(sender, receiver)` pair
//! has a credit window ([`FlowConfig`], `DDR_MAILBOX_CREDITS` /
//! `DDR_MAILBOX_BYTES`, or [`UniverseBuilder::flow_control`]) and a
//! process-global **memory governor** meters staged bytes against
//! `DDR_MEM_BUDGET` ([`UniverseBuilder::mem_budget`]). Overloaded senders
//! park on a credit gate — observable via [`Comm::flow_counters`] and never
//! mistaken for a deadlock by the watchdog or the wait-for-graph detector —
//! and the runtime degrades in stages (shed zero-copy → trim the pool)
//! before the terminal [`Error::MemoryPressure`].
//! Credits ride on the envelopes themselves, so the epoch sweep performed by
//! [`Comm::reconfigure`] restores them exactly: no credit leaks or
//! duplicates across a membership change.
//!
//! ## Deterministic schedule exploration
//!
//! `Universe::builder().sched_seed(s)` (or `DDR_SCHED_SEED=s`) arms a seeded
//! scheduler hook at every wait/poll point: sends, receives, zero-copy
//! claims, retransmit polls, and the reconfigure rendezvous may yield or
//! sleep for a few hundred microseconds, and any-source receives rotate
//! their source preference — all as a pure function of (seed, rank, op
//! count), so a given seed replays the same perturbation. Each run folds its
//! delivery orders into a seed-independent fingerprint
//! ([`take_last_fingerprint`]) that an explorer (see the `ddrcheck` crate)
//! uses to prune equivalent schedules while sweeping seeds. Unseeded, the
//! hook is one `Option` branch per operation.
//!
//! ## Example
//!
//! ```
//! use minimpi::Universe;
//!
//! let sums = Universe::run(4, |comm| {
//!     let mine = vec![comm.rank() as u64 + 1];
//!     let total: u64 = comm.allreduce(&mine, |a, b| a + b)[0];
//!     total
//! });
//! assert_eq!(sums, vec![10, 10, 10, 10]);
//! ```

#![warn(missing_docs)]

mod cart;
mod check;
mod collectives;
mod comm;
mod datatype;
mod elastic;
pub mod env;
mod error;
mod fault;
mod flow;
mod integrity;
mod kernels;
mod life;
mod mailbox;
mod pod;
mod request;
mod sched;
mod universe;
mod vclock;
mod zerocopy;

pub use cart::CartComm;
pub use check::{
    CheckCounters, CollFingerprint, CollectiveKind, DeadlockReport, DivergenceReport, LeakedLoan,
    LoanLeakReport, PendingRecv, RaceReport, TypeSig,
};
pub use collectives::{AlltoallwRequest, ExchangeReport};
pub use comm::{Comm, RecvStatus, Tag, ANY_SOURCE};
pub use datatype::{ByteRuns, Datatype, Subarray};
pub use elastic::RecoveryCounters;
pub use error::{Error, Result};
pub use fault::{FaultAction, FaultPlan, MessageMatcher};
pub use flow::{FlowConfig, FlowCounters};
pub use integrity::IntegrityCounters;
pub use kernels::PackCounters;
pub use pod::{bytes_of, bytes_of_mut, Pod};
pub use request::RecvRequest;
pub use sched::take_last_fingerprint;
pub use universe::{Universe, UniverseBuilder};
pub use vclock::VectorClock;
pub use zerocopy::{PoolStats, TransportCounters};

/// Snapshot of the process-global pack-kernel dispatch counters
/// (`pack.{fused_runs,vector_bytes,scalar_bytes}` in the
/// ddr-trace report). Totals are monotone across the process lifetime;
/// take deltas around a region to attribute work to it.
pub fn pack_counters() -> PackCounters {
    kernels::snapshot()
}
