//! Error type for runtime failures.

use crate::check::{DeadlockReport, DivergenceReport, LoanLeakReport, RaceReport, TypeSig};
use std::fmt;

/// Errors surfaced by the minimpi runtime.
///
/// Programming errors (rank out of range, datatype/buffer mismatch) are
/// reported as dedicated variants rather than panics so that library layers
/// above (e.g. `ddr-core`) can translate them into their own error domain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// A destination or source rank is outside `0..size`.
    RankOutOfRange {
        /// The offending rank.
        rank: usize,
        /// Communicator size.
        size: usize,
    },
    /// A receive did not complete within the watchdog timeout — almost
    /// always a deadlock or a mismatched send/recv pair. Carries the full
    /// pending op so the hang is diagnosable: who waited, on whom, for what
    /// tag, on which communicator.
    Timeout {
        /// Receiving rank (communicator-local).
        rank: usize,
        /// Expected source rank, or `None` for any-source receives.
        src: Option<usize>,
        /// Raw key tag of the awaited message. User tags are `< 2^32`;
        /// larger values are internal collective sequence numbers (the
        /// `Display` impl decodes both).
        tag: u64,
        /// Communicator the receive was posted on.
        comm_id: u64,
    },
    /// A peer rank is known to be dead — fault-killed, panicked, or already
    /// exited — so the awaited message can never arrive. Reported by the
    /// liveness registry well before the watchdog timeout would fire.
    PeerDead {
        /// The dead rank (communicator-local). When a fault plan kills the
        /// *calling* rank, this is the caller's own rank.
        rank: usize,
    },
    /// A typed receive found a message whose byte length is not a multiple
    /// of the element size, or that does not fit the caller's buffer.
    SizeMismatch {
        /// What the receiver expected, in bytes.
        expected: usize,
        /// What actually arrived, in bytes.
        got: usize,
    },
    /// A datatype does not fit the buffer it is applied to.
    DatatypeMismatch {
        /// Human-readable description of the mismatch.
        detail: String,
    },
    /// Collective called with inconsistent arguments across ranks
    /// (detected where cheaply possible).
    CollectiveMismatch {
        /// Human-readable description of the mismatch.
        detail: String,
    },
    /// With checking enabled ([`crate::UniverseBuilder::check`]), two ranks
    /// of one communicator disagreed on which collective call comes next —
    /// detected and reported *before* any byte moves, instead of
    /// deadlocking. The report names both ranks, both operations (with
    /// root/signature) and both call sites.
    CollectiveDiverged(Box<DivergenceReport>),
    /// With checking enabled, the wait-for-graph detector found this rank in
    /// a confirmed receive cycle. The report lists every member of the cycle
    /// and what it was waiting for — the watchdog never needs to fire.
    Deadlock(Box<DeadlockReport>),
    /// With checking enabled, the happens-before checker found two causally
    /// unordered accesses to the same tracked buffer, at least one of them a
    /// write — e.g. a sender mutating a buffer while a receiver's zero-copy
    /// claim is still copying out of it. The report names the resource, both
    /// ranks, both operations and both call sites.
    DataRace(Box<RaceReport>),
    /// With checking enabled, one or more zero-copy loans were still live
    /// (never claimed and copied, never revoked) when the universe finished —
    /// a lent buffer whose ownership was never returned to the application.
    LoanLeak(Box<LoanLeakReport>),
    /// With checking enabled, a receive matched a message whose datatype
    /// signature (extent, element size, subarray shape) disagrees with what
    /// the receiver declared — caught before the bytes are silently
    /// reinterpreted.
    TypeMismatch {
        /// Sender (communicator-local).
        src: usize,
        /// Receiver (communicator-local).
        dst: usize,
        /// Raw key tag of the mismatched message.
        tag: u64,
        /// Signature the receiver declared.
        expected: TypeSig,
        /// Signature stamped by the sender.
        got: TypeSig,
    },
    /// The communicator handle predates the current membership epoch: a
    /// [`crate::Comm::reconfigure`] completed since this handle was built, so
    /// any traffic it could produce would be fenced as stale. The holder must
    /// switch to the communicator returned by `reconfigure` (or call
    /// `reconfigure` itself, on a handle from the current epoch).
    StaleEpoch {
        /// Epoch the communicator handle was created in.
        comm_epoch: u64,
        /// Current world membership epoch.
        world_epoch: u64,
    },
    /// A payload failed checksum verification and could not be recovered:
    /// either retransmission is unavailable on this path (point-to-point and
    /// non-alltoallw collective receives are detect-only), or every one of
    /// the `DDR_RETRANSMIT_MAX` retransmit attempts arrived corrupt too.
    /// Checksumming is on by default (`DDR_CHECKSUM=0` disables it).
    IntegrityFailure {
        /// Sender of the corrupt payload (communicator-local).
        src: usize,
        /// Receiver that detected the corruption (communicator-local).
        dst: usize,
        /// Raw key tag of the corrupt message (the `Display` impl decodes
        /// user tags and collective phases alike).
        tag: u64,
        /// Delivery attempts consumed: 0 means detection with no retransmit
        /// path; `n > 0` means the original plus `n` retransmits all failed.
        attempt: u32,
    },
    /// The memory governor could not admit a staging reservation: either a
    /// single request exceeds the whole `DDR_MEM_BUDGET`, or the budget
    /// stayed exhausted with no global progress for a full watchdog
    /// timeout. This is the *final* stage of the degradation ladder — the
    /// runtime first sheds zero-copy to staged, then trims the buffer pool,
    /// before failing a reservation. Note that slow
    /// peers are an advisory (`flow.slow_peers` counter), never an error.
    MemoryPressure {
        /// Bytes the denied reservation asked for.
        requested: usize,
        /// Configured budget (`DDR_MEM_BUDGET` / `mem_budget(..)`), bytes.
        budget: usize,
        /// Governor occupancy at the time of the denial, bytes.
        used: usize,
    },
    /// A runtime invariant was violated (e.g. a rendezvous protocol state
    /// that should be unreachable). Converted from what used to be panics in
    /// hot paths, so a broken invariant on one rank fails that rank's
    /// operation instead of aborting the process.
    Internal {
        /// Which invariant broke, and where.
        detail: String,
    },
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::RankOutOfRange { rank, size } => {
                write!(f, "rank {rank} out of range for communicator of size {size}")
            }
            Error::Timeout { rank, src, tag, comm_id } => {
                let op = crate::comm::describe_key_tag(*tag);
                match src {
                    Some(s) => write!(
                        f,
                        "rank {rank}: receive from rank {s} ({op} on comm {comm_id:#x}) timed out — likely deadlock"
                    ),
                    None => write!(
                        f,
                        "rank {rank}: any-source receive ({op} on comm {comm_id:#x}) timed out — likely deadlock"
                    ),
                }
            }
            Error::PeerDead { rank } => {
                write!(f, "rank {rank} is dead (fault-killed, panicked, or exited) — failing fast")
            }
            Error::SizeMismatch { expected, got } => {
                write!(f, "message size mismatch: expected {expected} bytes, got {got}")
            }
            Error::DatatypeMismatch { detail } => write!(f, "datatype mismatch: {detail}"),
            Error::CollectiveMismatch { detail } => write!(f, "collective mismatch: {detail}"),
            Error::CollectiveDiverged(report) => {
                write!(f, "collective divergence: {report}")
            }
            Error::Deadlock(report) => write!(f, "{report}"),
            Error::DataRace(report) => write!(f, "data race: {report}"),
            Error::LoanLeak(report) => write!(f, "loan leak: {report}"),
            Error::TypeMismatch { src, dst, tag, expected, got } => {
                let op = crate::comm::describe_key_tag(*tag);
                write!(
                    f,
                    "datatype signature mismatch: rank {src} sent {got} but rank {dst} expected {expected} ({op})"
                )
            }
            Error::StaleEpoch { comm_epoch, world_epoch } => write!(
                f,
                "communicator from epoch {comm_epoch} used after reconfiguration to epoch {world_epoch} — rebuild it via reconfigure()"
            ),
            Error::IntegrityFailure { src, dst, tag, attempt } => {
                let op = crate::comm::describe_key_tag(*tag);
                if *attempt == 0 {
                    write!(
                        f,
                        "integrity failure: payload from rank {src} to rank {dst} ({op}) failed checksum verification (no retransmit path)"
                    )
                } else {
                    write!(
                        f,
                        "integrity failure: payload from rank {src} to rank {dst} ({op}) still corrupt after {attempt} retransmit attempt(s)"
                    )
                }
            }
            Error::MemoryPressure { requested, budget, used } => write!(
                f,
                "memory budget exhausted: {requested}-byte staging reservation denied (budget {budget} bytes, {used} in use)"
            ),
            Error::Internal { detail } => {
                write!(f, "internal runtime invariant violated: {detail}")
            }
        }
    }
}

impl std::error::Error for Error {}

/// Convenience alias used throughout the crate.
pub type Result<T> = std::result::Result<T, Error>;
