//! Communicators and point-to-point messaging.

use crate::check::{CheckCounters, CheckState, CollFingerprint, TypeSig};
use crate::datatype::{copy_selection, copy_selection_hashed, Datatype};
use crate::elastic::ElasticState;
use crate::error::{Error, Result};
use crate::fault::{mix64, FaultPlan, FaultState, Keystream, MessageVerdict};
use crate::flow::{AcquireCtx, FlowCharge, FlowConfig, FlowCounters, FlowLedger};
use crate::integrity::{checksum64, stream_seed, Checksum, IntegrityCells, IntegrityCounters};
use crate::life::{Liveness, ShrinkBarrier};
use crate::mailbox::{Envelope, Mailbox, MsgKey, Payload, TakeOutcome};
use crate::pod::{bytes_of, vec_from_bytes, Pod};
use crate::sched::SchedState;
use crate::vclock::VectorClock;
use crate::zerocopy::{
    zerocopy_env_default, BufferPool, PoolStats, TransportCells, TransportCounters, ZcCell,
    ZcHandle,
};
use std::cell::Cell;
use std::panic::Location;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// User message tag. The full `u32` range is available to applications;
/// collective traffic lives in a disjoint internal namespace.
pub type Tag = u32;

/// Pseudo-rank accepted by [`Comm::recv_bytes_any`]-style operations.
pub const ANY_SOURCE: usize = usize::MAX;

/// Result metadata for receives that report their matched source.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecvStatus {
    /// Communicator-local rank the message came from.
    pub src: usize,
    /// Payload length in bytes.
    pub len: usize,
}

/// Shared state of one [`crate::Universe`] run: a mailbox per world rank,
/// the liveness registry, the shrink rendezvous, and (optionally) the
/// installed fault plan's runtime state.
pub(crate) struct WorldState {
    pub mailboxes: Vec<Mailbox>,
    pub liveness: Liveness,
    pub shrink: ShrinkBarrier,
    pub faults: Option<FaultState>,
    /// Correctness-checking state (collective epoch log + wait-for graph +
    /// happens-before race/lifetime tables); `None` unless checking was
    /// enabled on the universe builder.
    pub check: Option<CheckState>,
    /// Seeded schedule-perturbation state; `None` (zero cost) unless a
    /// schedule seed was set via the builder or `DDR_SCHED_SEED`.
    pub sched: Option<SchedState>,
    /// Communication ops performed so far, per world rank. Counted whether
    /// or not a fault plan is installed, so op positions observed in a
    /// clean run can be used to place kills in a faulty one.
    pub ops: Vec<AtomicU64>,
    pub default_timeout: Duration,
    /// Whether the zero-copy fast path is allowed for this universe (builder
    /// override, else `DDR_NO_ZEROCOPY`). Fault plans additionally force the
    /// staged path at use sites — see [`WorldState::zerocopy_active`].
    pub zerocopy: bool,
    /// Per-message byte floor for loaning: messages strictly smaller than
    /// this are staged even when zero-copy is on, because the rendezvous
    /// handshake costs more than the copy it avoids (builder override, else
    /// `DDR_ZC_THRESHOLD`, else 64 KiB).
    pub zc_threshold: usize,
    /// Shared staging-buffer pool for the pack/unpack path.
    pub pool: BufferPool,
    /// Wire-path counters (zero-copy vs staged deliveries).
    pub transport: TransportCells,
    /// Membership-epoch state: current epoch, respawn supervisor queue, and
    /// recovery counters (see [`crate::elastic`]).
    pub elastic: ElasticState,
    /// Rendezvous for [`Comm::reconfigure`]'s agreement step. A second
    /// barrier instance so reconfigure generations can never collide with
    /// shrink generations on the same communicator.
    pub reconfig: ShrinkBarrier,
    /// Whether reconfigure respawns replacements for dead ranks (builder
    /// override, else `DDR_RESPAWN`, default true).
    pub respawn: bool,
    /// Whether envelopes carry a pack/lend-time checksum verified at
    /// match/claim time (builder override, else `DDR_CHECKSUM`, default
    /// **on**). Off, the only cost left is one branch per deposit.
    pub checksum: bool,
    /// Bounded retransmit attempts per corrupt transfer before the receiver
    /// fails with [`Error::IntegrityFailure`] (builder override, else
    /// `DDR_RETRANSMIT_MAX`, default 3).
    pub retransmit_max: u32,
    /// Base of the receiver's exponential NACK backoff (builder override,
    /// else `DDR_RETRANSMIT_BACKOFF_MS`, default 1 ms).
    pub retransmit_backoff: Duration,
    /// Integrity-plane counters (verifications, detections, retransmits,
    /// exhaustions).
    pub integrity: IntegrityCells,
    /// Flow-control ledger: per-pair credit windows, the memory governor,
    /// and the sender parking gate (see [`crate::flow`]).
    pub flow: Arc<FlowLedger>,
}

impl WorldState {
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        n: usize,
        default_timeout: Duration,
        fault_plan: Option<FaultPlan>,
        check: bool,
        zerocopy: Option<bool>,
        zc_threshold: Option<usize>,
        respawn: Option<bool>,
        checksum: Option<bool>,
        retransmit_max: Option<u32>,
        retransmit_backoff: Option<Duration>,
        sched_seed: Option<u64>,
        flow_cfg: FlowConfig,
    ) -> Self {
        let flow = Arc::new(FlowLedger::new(n, flow_cfg));
        WorldState {
            mailboxes: (0..n).map(|i| Mailbox::with_flow(i, Arc::clone(&flow))).collect(),
            liveness: Liveness::new(n),
            shrink: ShrinkBarrier::default(),
            faults: fault_plan.map(FaultState::new),
            check: check.then(|| CheckState::new(n)),
            sched: sched_seed
                .or_else(crate::sched::sched_seed_env_default)
                .map(|s| SchedState::new(s, n)),
            ops: (0..n).map(|_| AtomicU64::new(0)).collect(),
            default_timeout,
            zerocopy: zerocopy.unwrap_or_else(zerocopy_env_default),
            zc_threshold: zc_threshold.unwrap_or_else(crate::zerocopy::zc_threshold_env_default),
            pool: BufferPool::with_flow(Arc::clone(&flow)),
            transport: TransportCells::default(),
            elastic: ElasticState::new(n),
            reconfig: ShrinkBarrier::default(),
            respawn: respawn.unwrap_or_else(crate::elastic::respawn_env_default),
            checksum: checksum.unwrap_or_else(crate::integrity::checksum_env_default),
            retransmit_max: retransmit_max
                .unwrap_or_else(crate::integrity::retransmit_max_env_default),
            retransmit_backoff: retransmit_backoff
                .unwrap_or_else(crate::integrity::retransmit_backoff_env_default),
            integrity: IntegrityCells::default(),
            flow,
        }
    }

    /// Current membership epoch (bumped by every completed reconfigure).
    pub fn epoch(&self) -> u64 {
        self.elastic.epoch()
    }

    /// Drop every queued message that does not carry `current_epoch`,
    /// crediting the fenced-message counter. Stale zero-copy loans are
    /// revoked by the drop, releasing their senders.
    pub fn sweep_stale(&self, current_epoch: u64) -> u64 {
        let mut fenced = 0u64;
        for mb in &self.mailboxes {
            fenced += mb.sweep_stale(current_epoch);
        }
        if fenced > 0 {
            self.transport.fenced_msgs.fetch_add(fenced, Ordering::Relaxed);
        }
        fenced
    }

    /// Whether exchanges should take the zero-copy fast path. Kill and
    /// drop/delay fault plans force staging — those faults act on an
    /// in-flight copy a loan doesn't have — but corrupt-*only* plans ride
    /// zero-copy: their scramble is applied by the receiver at claim time
    /// (see [`FaultState::on_message_zc`]), so the fastest path stays
    /// exercised under corruption faults.
    pub fn zerocopy_active(&self) -> bool {
        let base = self.zerocopy && self.faults.as_ref().is_none_or(|f| !f.forces_staging());
        // First rung of the degradation ladder: past half the memory budget,
        // shed loans to the staged path — staged traffic is metered by the
        // governor and recycled through the pool, loans are not.
        if base && self.flow.shedding_zerocopy() {
            self.flow.note_zerocopy_shed();
            return false;
        }
        base
    }

    pub fn is_alive(&self, world_rank: usize) -> bool {
        self.liveness.is_alive(world_rank)
    }

    /// Mark a world rank dead and wake every blocked receiver and pending
    /// shrink round so they re-check liveness. Idempotent.
    pub fn mark_dead(&self, world_rank: usize) {
        if self.liveness.mark_dead(world_rank) {
            for mb in &self.mailboxes {
                mb.interrupt();
            }
            // Senders parked on the credit gate re-run their liveness probe
            // on wake, so a death releases them with PeerDead immediately.
            self.flow.wake_all();
            self.shrink.on_death(&self.liveness);
            self.reconfig.on_death(&self.liveness);
        }
    }
}

// Internal key-tag namespace: user tags and collective sequence numbers must
// never collide. User tag t  -> key tag = t (< 2^32).
// Collective (seq, phase)    -> key tag = COLL_BIT | seq << PHASE_BITS | phase.
const COLL_BIT: u64 = 1 << 63;
const PHASE_BITS: u32 = 12;
const PHASE_MASK: u64 = (1 << PHASE_BITS) - 1;

/// Sentinel tag reported by shrink-rendezvous timeouts (no message traffic
/// is involved, so there is no real tag to report).
const SHRINK_TAG: u64 = COLL_BIT | PHASE_MASK;

/// Sentinel tag reported by reconfigure-rendezvous timeouts.
pub(crate) const RECONFIG_TAG: u64 = COLL_BIT | (PHASE_MASK - 1);

fn user_key_tag(tag: Tag) -> u64 {
    tag as u64
}

pub(crate) fn coll_key_tag(seq: u64, phase: u64) -> u64 {
    debug_assert!(phase <= PHASE_MASK);
    COLL_BIT | (seq << PHASE_BITS) | phase
}

/// Human-readable description of a raw key tag for diagnostics: user tags
/// print as-is, collective tags decode to sequence number and phase.
pub(crate) fn describe_key_tag(key_tag: u64) -> String {
    if key_tag & COLL_BIT == 0 {
        return format!("user tag {key_tag}");
    }
    if key_tag == SHRINK_TAG {
        return "shrink rendezvous".to_string();
    }
    if key_tag == RECONFIG_TAG {
        return "reconfigure rendezvous".to_string();
    }
    let body = key_tag & !COLL_BIT;
    format!("collective #{} phase {}", body >> PHASE_BITS, body & PHASE_MASK)
}

/// A communicator: a rank's handle onto an ordered group of ranks.
///
/// Each rank-thread owns its `Comm` (it is `Send` but deliberately not
/// `Sync`); cloning is not provided — use [`Comm::duplicate`], which is a
/// collective, mirroring `MPI_Comm_dup`.
pub struct Comm {
    pub(crate) world: Arc<WorldState>,
    pub(crate) comm_id: u64,
    /// This rank's index within the communicator.
    pub(crate) rank: usize,
    /// World rank of each communicator member, indexed by communicator rank.
    pub(crate) members: Arc<Vec<usize>>,
    /// Membership epoch this handle was built in. Envelopes are stamped with
    /// it; a handle whose epoch is no longer current fails every operation
    /// with [`Error::StaleEpoch`] (see [`Comm::reconfigure`]).
    pub(crate) epoch: u64,
    /// Per-rank collective sequence number; identical across members because
    /// collectives are called in the same order by all of them.
    pub(crate) coll_seq: Cell<u64>,
    split_seq: Cell<u64>,
    shrink_seq: Cell<u64>,
    pub(crate) reconfig_seq: Cell<u64>,
    timeout: Cell<Duration>,
}

impl Comm {
    pub(crate) fn world_comm(world: Arc<WorldState>, rank: usize) -> Self {
        let n = world.mailboxes.len();
        let timeout = world.default_timeout;
        let epoch = world.epoch();
        Comm::derived(world, 0, rank, Arc::new((0..n).collect()), epoch, timeout)
    }

    /// Build a derived communicator handle (child of split/shrink/reconfigure
    /// or a respawned rank's entry handle) with fresh sequence counters.
    pub(crate) fn derived(
        world: Arc<WorldState>,
        comm_id: u64,
        rank: usize,
        members: Arc<Vec<usize>>,
        epoch: u64,
        timeout: Duration,
    ) -> Self {
        Comm {
            world,
            comm_id,
            rank,
            members,
            epoch,
            coll_seq: Cell::new(0),
            split_seq: Cell::new(0),
            shrink_seq: Cell::new(0),
            reconfig_seq: Cell::new(0),
            timeout: Cell::new(timeout),
        }
    }

    /// Membership epoch this communicator handle belongs to. `0` until the
    /// first [`Comm::reconfigure`]; a respawned rank can use `epoch() > 0`
    /// to detect that it is a replacement joining mid-run.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// This rank's index within the communicator.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks in the communicator.
    pub fn size(&self) -> usize {
        self.members.len()
    }

    /// This rank's index within the original world communicator.
    pub fn world_rank(&self) -> usize {
        self.members[self.rank]
    }

    /// Watchdog timeout applied to blocking receives.
    pub fn timeout(&self) -> Duration {
        self.timeout.get()
    }

    /// Set the watchdog timeout for blocking receives on this handle.
    pub fn set_timeout(&self, t: Duration) {
        self.timeout.set(t);
    }

    pub(crate) fn check_rank_pub(&self, r: usize) -> Result<()> {
        self.check_rank(r)
    }

    fn check_rank(&self, r: usize) -> Result<()> {
        if r >= self.size() {
            return Err(Error::RankOutOfRange { rank: r, size: self.size() });
        }
        Ok(())
    }

    pub(crate) fn my_mailbox(&self) -> &Mailbox {
        &self.world.mailboxes[self.members[self.rank]]
    }

    /// Is communicator member `r` still alive?
    pub fn is_alive(&self, r: usize) -> bool {
        self.world.is_alive(self.members[r])
    }

    /// Communicator-local ranks of the members still alive, in rank order.
    pub fn alive_ranks(&self) -> Vec<usize> {
        (0..self.size()).filter(|&r| self.is_alive(r)).collect()
    }

    /// Number of communication primitives (sends, receives, collective
    /// phases) this rank has performed. Deterministic for a deterministic
    /// program, which makes it the coordinate system for placing
    /// [`crate::FaultPlan`] kills.
    pub fn op_count(&self) -> u64 {
        self.world.ops[self.world_rank()].load(Ordering::Relaxed)
    }

    /// Count one communication op against the fault plan. Returns
    /// [`Error::PeerDead`] (naming *this* rank) if the rank is already dead
    /// or a kill fault fires on this op.
    pub(crate) fn fault_tick(&self) -> Result<()> {
        let w = self.world_rank();
        if !self.world.is_alive(w) {
            return Err(Error::PeerDead { rank: self.rank });
        }
        // The epoch fence: a handle from before the last reconfigure can
        // neither send (its envelopes would be stamped stale) nor receive
        // (it would match against a dead namespace). Checked before the op
        // counter so fault-plan op coordinates are unaffected.
        let world_epoch = self.world.epoch();
        if world_epoch != self.epoch {
            return Err(Error::StaleEpoch { comm_epoch: self.epoch, world_epoch });
        }
        let op = self.world.ops[w].fetch_add(1, Ordering::Relaxed);
        if let Some(faults) = &self.world.faults {
            if faults.should_kill(w, op) {
                self.world.mark_dead(w);
                return Err(Error::PeerDead { rank: self.rank });
            }
        }
        Ok(())
    }

    /// Checksum seed for the stream (this communicator, sender `src`,
    /// `key_tag`) in `epoch`. Sender and receiver derive it independently.
    pub(crate) fn stream_seed(&self, src: usize, key_tag: u64, epoch: u64) -> u64 {
        stream_seed(self.comm_id, src, key_tag, epoch)
    }

    /// Verify a delivered payload against its envelope checksum (a no-op
    /// when the envelope carries none). `attempt 0` marks paths with no
    /// retransmit protocol; alltoallw rewrites it when recovery is in play.
    pub(crate) fn verify_payload(
        &self,
        src: usize,
        key_tag: u64,
        epoch: u64,
        expected: Option<u64>,
        bytes: &[u8],
    ) -> Result<()> {
        let Some(want) = expected else { return Ok(()) };
        let got = checksum64(self.stream_seed(src, key_tag, epoch), bytes);
        self.integrity_verdict(src, key_tag, got, want)
    }

    /// Count one checksum comparison and turn a mismatch into
    /// [`Error::IntegrityFailure`] with `attempt 0`.
    fn integrity_verdict(&self, src: usize, key_tag: u64, got: u64, want: u64) -> Result<()> {
        self.world.integrity.checked.fetch_add(1, Ordering::Relaxed);
        if got == want {
            return Ok(());
        }
        self.world.integrity.detected.fetch_add(1, Ordering::Relaxed);
        ddrtrace::instant_arg("minimpi", "integrity_detected", "src", src as i64);
        Err(Error::IntegrityFailure { src, dst: self.rank, tag: key_tag, attempt: 0 })
    }

    /// Unpack a staged payload into `recv_buf` with envelope verification
    /// folded into the same traversal — the receive-side counterpart of
    /// checksum-during-pack. Only sound on paths with **no retransmit
    /// protocol**: the payload reaches `recv_buf` before the verdict is
    /// known, so a mismatch here must be terminal (the collective fails and
    /// the buffer contents are unspecified, exactly as for any other
    /// mid-exchange error). Callers with recovery armed must keep the
    /// verify-then-unpack order ([`Comm::verify_payload`]) instead.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn unpack_verifying(
        &self,
        src: usize,
        key_tag: u64,
        epoch: u64,
        expected: Option<u64>,
        dt: &Datatype,
        packed: &[u8],
        recv_buf: &mut [u8],
    ) -> Result<()> {
        let Some(want) = expected else { return dt.unpack(packed, recv_buf) };
        let mut c = Checksum::new(self.stream_seed(src, key_tag, epoch));
        dt.unpack_hashed(packed, recv_buf, &mut c)?;
        self.integrity_verdict(src, key_tag, c.finish(), want)
    }

    /// True when corruption recovery (NACK/retransmit) is armed: checksums
    /// are on *and* an installed fault plan can actually corrupt messages.
    /// Gates both the alltoallw recovery protocol and the receive-side
    /// checksum fusion (which is only sound when no retransmit can follow).
    pub(crate) fn recovery_armed(&self) -> bool {
        self.world.checksum && self.world.faults.as_ref().is_some_and(|f| f.has_corrupt_rules())
    }

    /// Copy a claimed zero-copy loan — `lent_dt`'s selection of the
    /// lender's buffer — into `dt`'s selection of `recv_buf`, verifying it
    /// against the lend-time checksum in the same traversal: every run pair
    /// is copied and hashed in one pass, in packed order, which is the order
    /// the lend-time hash covers. Claim-time corrupt-fault `taints` (fault
    /// plans only) then scramble the copy, and a tainted copy is re-hashed,
    /// so the verdict always covers the bytes that actually landed in
    /// `recv_buf`.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn claim_verifying(
        &self,
        src: usize,
        key_tag: u64,
        epoch: u64,
        expected: Option<u64>,
        taints: &[u64],
        lent: &[u8],
        lent_dt: &Datatype,
        dt: &Datatype,
        recv_buf: &mut [u8],
    ) -> Result<()> {
        let seed = self.stream_seed(src, key_tag, epoch);
        let mut c = Checksum::new(seed);
        match expected {
            Some(_) => copy_selection_hashed(lent, lent_dt, recv_buf, dt, &mut c)?,
            None => copy_selection(lent, lent_dt, recv_buf, dt)?,
        }
        for &init in taints {
            let mut ks = Keystream::new(init);
            for (off, len) in dt.byte_runs() {
                ks.scramble(&mut recv_buf[off..off + len]);
            }
        }
        let Some(want) = expected else { return Ok(()) };
        if !taints.is_empty() {
            c = Checksum::new(seed);
            for (off, len) in dt.byte_runs() {
                c.update(&recv_buf[off..off + len]);
            }
        }
        self.integrity_verdict(src, key_tag, c.finish(), want)
    }

    /// Maybe-delay hook for the seeded schedule explorer: a no-op (one
    /// `Option` branch) unless a schedule seed is set.
    #[inline]
    pub(crate) fn sched_point(&self, point: &'static str) {
        if let Some(s) = &self.world.sched {
            s.perturb(self.world_rank(), point);
        }
    }

    /// Record a delivered envelope: fold it into the schedule fingerprint
    /// and join its piggybacked clock into this rank's clock. Call at every
    /// point an envelope is accepted for this rank.
    pub(crate) fn note_delivery(&self, env: &Envelope) {
        if let Some(s) = &self.world.sched {
            s.observe(self.world_rank(), env.src);
        }
        if let Some(check) = &self.world.check {
            if let Some(clock) = &env.clock {
                check.on_recv(self.world_rank(), clock);
            }
        }
    }

    /// Clock snapshot + datatype signature to stamp on an outgoing envelope;
    /// `(None, None)` (no work at all) when checking is off. `sig` defaults
    /// to an untyped-bytes signature of `payload_len`.
    fn send_stamp(
        &self,
        sig: Option<TypeSig>,
        payload_len: usize,
    ) -> (Option<VectorClock>, Option<TypeSig>) {
        match &self.world.check {
            Some(check) => (
                Some(check.on_send(self.world_rank())),
                Some(sig.unwrap_or_else(|| TypeSig::bytes(payload_len as u64))),
            ),
            None => (None, None),
        }
    }

    /// With checking enabled, verify a sender's stamped datatype signature
    /// against the receiver's declared expectation; no-op otherwise (or when
    /// the envelope predates checking, e.g. hand-built test envelopes).
    pub(crate) fn verify_type_sig(
        &self,
        src: usize,
        key_tag: u64,
        got: Option<&TypeSig>,
        want: &TypeSig,
    ) -> Result<()> {
        let (Some(check), Some(got)) = (&self.world.check, got) else {
            return Ok(());
        };
        if want.accepts(got) {
            return Ok(());
        }
        check.note_type_mismatch();
        Err(Error::TypeMismatch { src, dst: self.rank, tag: key_tag, expected: *want, got: *got })
    }

    /// Declare a *write* access to `buf` for the happens-before race
    /// checker. With checking enabled, fails with [`Error::DataRace`] if the
    /// write is causally unordered with another tracked access to an
    /// overlapping range — in particular, writing a buffer lent via the
    /// zero-copy path while the receiver's claim may still be copying.
    /// A no-op (one `Option` branch) when checking is off.
    #[track_caller]
    pub fn check_write(&self, buf: &[u8]) -> Result<()> {
        self.check_access(buf, true, "writes the buffer")
    }

    /// Declare a *read* access to `buf` for the happens-before race checker.
    /// Reads race only with causally unordered writes. A no-op when checking
    /// is off.
    #[track_caller]
    pub fn check_read(&self, buf: &[u8]) -> Result<()> {
        self.check_access(buf, false, "reads the buffer")
    }

    #[track_caller]
    fn check_access(&self, buf: &[u8], write: bool, op: &str) -> Result<()> {
        let Some(check) = &self.world.check else { return Ok(()) };
        let loc = Location::caller();
        let site = format!("{}:{}", loc.file(), loc.line());
        check
            .access(self.world_rank(), buf.as_ptr() as usize, buf.len(), write, op, site)
            .map_err(Error::DataRace)
    }

    /// Snapshot of the checker's violation counters, or `None` when checking
    /// is off. Counts are world-wide (shared by every communicator handle).
    pub fn check_counters(&self) -> Option<CheckCounters> {
        self.world.check.as_ref().map(|c| c.counters())
    }

    /// Tell the checker the sender observed a loan reaching a terminal
    /// state: join the receiver's copy-done clock into this (sender) rank's
    /// clock, so later sender writes are ordered after the copy.
    pub(crate) fn note_loan_settled(&self, cell: &Arc<ZcCell>) {
        if let Some(check) = &self.world.check {
            check.loan_settled(cell, self.world_rank());
        }
    }

    /// Acquire flow-control credits for one envelope to `dest`: `bytes`
    /// against the pair's byte window, `mem` against the memory governor
    /// (plus one message credit, always). Blocks — boundedly — when the
    /// window or budget is full; a peer death, the sender's own fault-kill,
    /// or an epoch bump during the wait unparks with the matching error.
    /// The mailbox releases the returned charge when the envelope is popped
    /// or swept.
    fn acquire_charge(
        &self,
        dest: usize,
        key_tag: u64,
        bytes: usize,
        mem: usize,
    ) -> Result<FlowCharge> {
        self.sched_point("credit");
        let src_world = self.world_rank();
        let dst_world = self.members[dest];
        let ctx = AcquireCtx {
            src_world,
            dst_world,
            bytes,
            mem,
            timeout: self.timeout.get(),
            rank_local: self.rank,
            dest_local: dest,
            tag: key_tag,
            comm_id: self.comm_id,
        };
        self.world.flow.acquire(&ctx, || {
            if !self.world.is_alive(src_world) {
                return Some(Error::PeerDead { rank: self.rank });
            }
            if !self.world.is_alive(dst_world) {
                return Some(Error::PeerDead { rank: dest });
            }
            let world_epoch = self.world.epoch();
            if world_epoch != self.epoch {
                return Some(Error::StaleEpoch { comm_epoch: self.epoch, world_epoch });
            }
            None
        })
    }

    pub(crate) fn deposit_to(&self, dest: usize, key_tag: u64, payload: Vec<u8>) -> Result<()> {
        self.deposit_sig(dest, key_tag, payload, None)
    }

    /// [`Comm::deposit_to`] with an explicit datatype signature (typed sends
    /// and datatype-carrying collective fragments stamp theirs; everything
    /// else defaults to untyped bytes).
    pub(crate) fn deposit_sig(
        &self,
        dest: usize,
        key_tag: u64,
        payload: Vec<u8>,
        sig: Option<TypeSig>,
    ) -> Result<()> {
        self.deposit_sig_pre(dest, key_tag, payload, sig, None)
    }

    /// [`Comm::deposit_sig`] with an optionally precomputed envelope
    /// checksum: the staged alltoallw path folds the checksum *during* the
    /// pack copy ([`crate::kernels`]) and passes it here, skipping the
    /// second pass over the payload. `precomputed` must equal
    /// `checksum64(stream_seed(rank, key_tag, epoch), &payload)` — the
    /// split-point independence of the hash guarantees the fused fold does.
    pub(crate) fn deposit_sig_pre(
        &self,
        dest: usize,
        key_tag: u64,
        mut payload: Vec<u8>,
        sig: Option<TypeSig>,
        precomputed: Option<u64>,
    ) -> Result<()> {
        self.sched_point("send");
        self.fault_tick()?;
        // Checksum the *pristine* payload before fault injection: the
        // injector models wire damage, which by definition happens after the
        // sender sealed the envelope. (A precomputed checksum was folded at
        // pack time, equally before injection.)
        let checksum = match precomputed {
            Some(c) if self.world.checksum => Some(c),
            _ => self
                .world
                .checksum
                .then(|| checksum64(self.stream_seed(self.rank, key_tag, self.epoch), &payload)),
        };
        let (clock, type_sig) = self.send_stamp(sig, payload.len());
        if let Some(faults) = &self.world.faults {
            let (src_w, dst_w) = (self.world_rank(), self.members[dest]);
            match faults.on_message(src_w, dst_w, key_tag, &mut payload) {
                MessageVerdict::Deliver => {}
                MessageVerdict::Drop => return Ok(()),
                MessageVerdict::DeliverAfter(d) => {
                    std::thread::sleep(d);
                    // The world may have reconfigured while this message was
                    // delayed in flight; delivering it into the new epoch
                    // would be exactly the stale match the fence exists to
                    // prevent. Count it and drop it.
                    if self.world.epoch() != self.epoch {
                        self.world.transport.fenced_msgs.fetch_add(1, Ordering::Relaxed);
                        ddrtrace::instant_arg("minimpi", "fenced_msg", "epoch", self.epoch as i64);
                        return Ok(());
                    }
                }
            }
        }
        // Credit gate, after the fault verdict: a dropped or fenced message
        // never reserves anything, so there is no reserve-without-deposit
        // window. Staged payloads charge the governor for their full length.
        let charge = self.acquire_charge(dest, key_tag, payload.len(), payload.len())?;
        self.world.transport.staged_msgs.fetch_add(1, Ordering::Relaxed);
        let key: MsgKey = (self.comm_id, self.rank, key_tag);
        self.world.mailboxes[self.members[dest]].deposit(
            key,
            Envelope {
                src: self.rank,
                epoch: self.epoch,
                payload: Payload::Bytes(payload),
                checksum,
                taints: Vec::new(),
                clock,
                type_sig,
                charge: Some(charge),
            },
        );
        Ok(())
    }

    /// Pack `dt`'s selection of `send_buf` into a pool buffer, folding the
    /// envelope checksum for (`key_tag`, this epoch) into the same pass when
    /// checksumming is on. Returns the packed payload and the checksum to
    /// hand to [`Comm::deposit_sig_pre`] — one traversal of the source bytes
    /// instead of pack-then-hash.
    pub(crate) fn pack_staged(
        &self,
        dt: &Datatype,
        send_buf: &[u8],
        key_tag: u64,
    ) -> Result<(Vec<u8>, Option<u64>)> {
        let mut packed = self.world.pool.acquire(dt.packed_len());
        let pre = if self.world.checksum {
            let mut sum = Checksum::new(self.stream_seed(self.rank, key_tag, self.epoch));
            dt.pack_into_hashed(send_buf, &mut packed, &mut sum)?;
            Some(sum.finish())
        } else {
            dt.pack_into(send_buf, &mut packed)?;
            None
        };
        Ok((packed, pre))
    }

    /// Deposit a control-plane message (retransmit verdicts/NACKs). Control
    /// traffic is neither checksummed nor fault-injected: the recovery
    /// protocol must itself stay reliable, and letting message rules consume
    /// match counts on 1-byte verdicts would make data-message targeting
    /// (the `nth` coordinate) depend on recovery timing.
    pub(crate) fn deposit_control(
        &self,
        dest: usize,
        key_tag: u64,
        payload: Vec<u8>,
    ) -> Result<()> {
        self.sched_point("send_control");
        self.fault_tick()?;
        let (clock, type_sig) = self.send_stamp(None, payload.len());
        let key: MsgKey = (self.comm_id, self.rank, key_tag);
        // Control traffic is uncharged (`charge: None`): verdicts and NACKs
        // are tiny, and gating them behind the very windows they exist to
        // drain could deadlock the recovery protocol.
        self.world.mailboxes[self.members[dest]].deposit(
            key,
            Envelope {
                src: self.rank,
                epoch: self.epoch,
                payload: Payload::Bytes(payload),
                checksum: None,
                taints: Vec::new(),
                clock,
                type_sig,
                charge: None,
            },
        );
        Ok(())
    }

    /// Deposit a zero-copy loan of `dt`'s selection of `buf` into `dest`'s
    /// mailbox. Returns the completion cell the caller **must** drive to
    /// `Done` or `Revoked` (via [`ZcCell::wait`]) before `buf`'s borrow ends
    /// — that wait is what makes the receiver's raw-pointer read sound.
    ///
    /// Callers must have checked [`WorldState::zerocopy_active`]: a message
    /// fault plan would need to mutate the payload, which a loan forbids.
    #[track_caller]
    pub(crate) fn deposit_shared(
        &self,
        dest: usize,
        key_tag: u64,
        buf: &[u8],
        dt: Datatype,
    ) -> Result<Arc<ZcCell>> {
        self.sched_point("lend");
        // Same op accounting as `deposit_to`, so op positions (the fault
        // plan coordinate system) are identical across wire paths.
        self.fault_tick()?;
        // A loan occupies a mailbox slot but stages no bytes: it charges one
        // message credit and nothing against the byte window or governor.
        // Acquired before the loan is created/registered so a gate failure
        // leaves no half-registered loan behind.
        let charge = self.acquire_charge(dest, key_tag, 0, 0)?;
        // Lend-time checksum: walk the selection's byte runs in packed order
        // through the streaming hasher, which equals hashing the packed form
        // — so a receiver can verify its claimed copy without the sender
        // ever staging the payload.
        let checksum = self.world.checksum.then(|| {
            let mut c = Checksum::new(self.stream_seed(self.rank, key_tag, self.epoch));
            for (off, len) in dt.byte_runs() {
                c.update(&buf[off..off + len]);
            }
            c.finish()
        });
        // Corrupt rules can't scramble a loan in flight (there are no
        // in-flight bytes); record which rules fired so the receiver applies
        // the identical keystream to its copy at claim time.
        let taints = match &self.world.faults {
            Some(f) => f.on_message_zc(self.world_rank(), self.members[dest], key_tag),
            None => Vec::new(),
        };
        self.world.transport.zerocopy_msgs.fetch_add(1, Ordering::Relaxed);
        let cell = Arc::new(ZcCell::default());
        let (clock, type_sig) = self.send_stamp(Some(TypeSig::of(&dt)), 0);
        // Track the loan *after* the send tick, so the lend clock covers the
        // lend event itself.
        if let Some(check) = &self.world.check {
            check.register_loan(
                &cell,
                self.world_rank(),
                self.members[dest],
                buf.as_ptr() as usize,
                buf.len(),
            );
        }
        let handle = ZcHandle::new(buf, dt, Arc::clone(&cell));
        let key: MsgKey = (self.comm_id, self.rank, key_tag);
        self.world.mailboxes[self.members[dest]].deposit(
            key,
            Envelope {
                src: self.rank,
                epoch: self.epoch,
                payload: Payload::Shared(handle),
                checksum,
                taints,
                clock,
                type_sig,
                charge: Some(charge),
            },
        );
        Ok(cell)
    }

    /// Turn a received envelope into owned, *verified* bytes. For zero-copy
    /// loans this is the slow path (generic receives don't have a
    /// destination selection to copy into directly): claim, pack out of the
    /// sender's buffer, release, then apply any claim-time corruption taints
    /// and check the checksum. Verification failure surfaces as
    /// [`Error::IntegrityFailure`] with `attempt: 0` — these paths are
    /// detect-only (recovery lives in alltoallw, where the sender's buffer
    /// is provably still owned).
    pub(crate) fn materialize(&self, src: usize, key_tag: u64, env: Envelope) -> Result<Vec<u8>> {
        let Envelope { epoch, checksum, taints, payload, .. } = env;
        match payload {
            Payload::Bytes(b) => {
                self.verify_payload(src, key_tag, epoch, checksum, &b)?;
                Ok(b)
            }
            Payload::Shared(h) => {
                self.sched_point("zc_claim");
                if !h.cell.try_claim() {
                    // The sender revoked the loan (timeout / death) before we
                    // got here; the payload is unrecoverable.
                    return Err(Error::PeerDead { rank: src });
                }
                // Record the claim (a read of the loaned range). A detected
                // race is surfaced only after the copy completes: the claim
                // succeeded, so the sender is parked until finish() — erroring
                // out before driving the cell to Done would strand it.
                let race = match &self.world.check {
                    Some(check) => {
                        check.loan_claimed(&h.cell, self.world_rank()).err().map(Error::DataRace)
                    }
                    None => None,
                };
                // SAFETY: the claim succeeded, so the sender is blocked in
                // ZcCell::wait and its buffer stays alive until finish().
                let src_buf = unsafe { h.src_slice() };
                let mut out = Vec::with_capacity(h.packed_len());
                let packed = h.dt.pack_into(src_buf, &mut out);
                if let Some(check) = &self.world.check {
                    check.loan_done(&h.cell, self.world_rank());
                }
                h.cell.finish();
                packed?;
                if let Some(race) = race {
                    return Err(race);
                }
                for &init in &taints {
                    Keystream::new(init).scramble(&mut out);
                }
                self.verify_payload(src, key_tag, epoch, checksum, &out)?;
                Ok(out)
            }
        }
    }

    pub(crate) fn take_from(&self, src: usize, key_tag: u64) -> Result<Vec<u8>> {
        let env = self.take_envelope_from(src, key_tag)?;
        self.materialize(src, key_tag, env)
    }

    pub(crate) fn take_envelope_from(&self, src: usize, key_tag: u64) -> Result<Envelope> {
        self.sched_point("recv");
        self.fault_tick()?;
        let key: MsgKey = (self.comm_id, src, key_tag);
        let src_world = self.members[src];
        let me_world = self.world_rank();
        if let Some(check) = &self.world.check {
            check.begin_wait(me_world, src_world, key);
        }
        let wait = ddrtrace::span_arg("minimpi", "mailbox_wait", "src", src as i64);
        let outcome = loop {
            let o = self.my_mailbox().take_watched(key, self.timeout.get(), || {
                !self.world.is_alive(src_world)
                    || self.world.check.as_ref().is_some_and(|c| c.is_deadlocked(me_world))
            });
            // Match-time epoch fence: a message stamped by a different epoch
            // must never be delivered. Dropping it revokes any zero-copy
            // loan it carried; keep waiting for a current-epoch message.
            if let TakeOutcome::Delivered(env) = &o {
                if env.epoch != self.epoch {
                    self.world.transport.fenced_msgs.fetch_add(1, Ordering::Relaxed);
                    ddrtrace::instant_arg("minimpi", "fenced_msg", "src", src as i64);
                    continue;
                }
            }
            // Watchdog deferral: a sender parked on the credit gate or the
            // governor is applying backpressure, not deadlocked — re-arm the
            // deadline instead of reporting a false timeout. Bounded because
            // the sender's own gate wait is bounded (it either acquires,
            // errors, or leaves the parked state).
            if matches!(o, TakeOutcome::TimedOut) && self.world.flow.rank_in_wait(src_world) {
                self.world.flow.note_watchdog_defer();
                continue;
            }
            break o;
        };
        drop(wait);
        let deadlock =
            self.world.check.as_ref().and_then(|c| {
                c.finish_wait(me_world, matches!(outcome, TakeOutcome::Delivered(_)))
            });
        match outcome {
            TakeOutcome::Delivered(env) => {
                self.note_delivery(&env);
                Ok(env)
            }
            TakeOutcome::TimedOut => Err(Error::Timeout {
                rank: self.rank,
                src: Some(src),
                tag: key_tag,
                comm_id: self.comm_id,
            }),
            TakeOutcome::Aborted => match deadlock {
                Some(report) => Err(Error::Deadlock(Box::new(report))),
                None => Err(Error::PeerDead { rank: src }),
            },
        }
    }

    /// Occupancy and traffic counters of the universe's shared
    /// staging-buffer pool.
    pub fn pool_stats(&self) -> PoolStats {
        self.world.pool.stats()
    }

    /// Get a cleared buffer with at least `cap` capacity from the universe's
    /// shared staging pool. Pair with [`Comm::release_staging`] — the pool
    /// is shared across ranks, so a buffer sent to a peer can be recycled by
    /// the receiver.
    pub fn acquire_staging(&self, cap: usize) -> Vec<u8> {
        self.world.pool.acquire(cap)
    }

    /// Return a staging buffer to the universe's shared pool (its content is
    /// discarded; oversized capacity may be trimmed).
    pub fn release_staging(&self, buf: Vec<u8>) {
        self.world.pool.release(buf)
    }

    /// Counters of which wire path messages took so far in this universe.
    pub fn transport_counters(&self) -> TransportCounters {
        self.world.transport.snapshot()
    }

    /// Integrity-plane counters so far in this universe: payloads verified,
    /// corruptions detected, retransmits performed, transfers exhausted.
    pub fn integrity_counters(&self) -> IntegrityCounters {
        self.world.integrity.snapshot()
    }

    /// Whether envelopes on this universe carry checksums (builder /
    /// `DDR_CHECKSUM` opt-out; on by default).
    pub fn checksum_active(&self) -> bool {
        self.world.checksum
    }

    /// Whether exchanges on this universe currently take the zero-copy fast
    /// path (builder / `DDR_NO_ZEROCOPY` opt-out, and no fault plan).
    pub fn zerocopy_active(&self) -> bool {
        self.world.zerocopy_active()
    }

    /// Flow-control counters so far in this universe: credit waits, total
    /// stall time, watchdog deferrals, slow-peer advisories, zero-copy
    /// sheds, budget denials, pool trims.
    pub fn flow_counters(&self) -> FlowCounters {
        self.world.flow.counters()
    }

    /// The universe's resolved flow-control configuration (builder or
    /// `DDR_MAILBOX_CREDITS` / `DDR_MAILBOX_BYTES` / `DDR_MEM_BUDGET`).
    pub fn flow_config(&self) -> FlowConfig {
        self.world.flow.config()
    }

    /// Configured memory budget in bytes (0 = unlimited).
    pub fn mem_budget(&self) -> usize {
        self.world.flow.config().mem_budget
    }

    /// Current memory-governor occupancy in bytes (staged mailbox payloads
    /// plus pool-retained capacity).
    pub fn mem_usage(&self) -> usize {
        self.world.flow.mem_used()
    }

    /// Largest memory-governor occupancy observed so far — the measured
    /// peak staging footprint. With a budget configured, never exceeds it.
    pub fn mem_high_water(&self) -> usize {
        self.world.flow.mem_high_water()
    }

    // ------------------------------------------------------------------
    // Point-to-point
    // ------------------------------------------------------------------

    /// Send raw bytes to `dest` with `tag`. Buffered: returns immediately.
    pub fn send_bytes(&self, dest: usize, tag: Tag, data: &[u8]) -> Result<()> {
        self.check_rank(dest)?;
        self.deposit_to(dest, user_key_tag(tag), data.to_vec())
    }

    /// Send a slice of POD values to `dest` with `tag`. With checking
    /// enabled the element size is stamped into the envelope so a typed
    /// receive with a different element type fails with
    /// [`Error::TypeMismatch`] instead of silently reinterpreting bytes.
    pub fn send<T: Pod>(&self, dest: usize, tag: Tag, data: &[T]) -> Result<()> {
        self.check_rank(dest)?;
        let bytes = bytes_of(data).to_vec();
        let sig =
            TypeSig { extent: bytes.len() as u64, elem: std::mem::size_of::<T>() as u32, shape: 0 };
        self.deposit_sig(dest, user_key_tag(tag), bytes, Some(sig))
    }

    /// Send an owned byte buffer without copying it.
    pub fn send_bytes_owned(&self, dest: usize, tag: Tag, data: Vec<u8>) -> Result<()> {
        self.check_rank(dest)?;
        self.deposit_to(dest, user_key_tag(tag), data)
    }

    /// Receive raw bytes from `src` with `tag`, blocking until available.
    pub fn recv_bytes(&self, src: usize, tag: Tag) -> Result<Vec<u8>> {
        self.check_rank(src)?;
        self.take_from(src, user_key_tag(tag))
    }

    /// Receive from any source; returns the payload and its origin. Fails
    /// fast with [`Error::PeerDead`] once every other member is dead.
    pub fn recv_bytes_any(&self, tag: Tag) -> Result<(RecvStatus, Vec<u8>)> {
        self.sched_point("recv_any");
        self.fault_tick()?;
        let me = self.rank;
        // Seeded rotation of the source-scan start explores different
        // delivery orders when several sources are ready; 0 (lowest source
        // first) without a scheduler.
        let start = match &self.world.sched {
            Some(s) => s.pick(self.world_rank()) % self.size().max(1),
            None => 0,
        };
        let wait = ddrtrace::span("minimpi", "mailbox_wait_any");
        let outcome = loop {
            let o = self.my_mailbox().take_any_watched(
                self.comm_id,
                user_key_tag(tag),
                self.size(),
                start,
                self.timeout.get(),
                || (0..self.size()).all(|r| r == me || !self.is_alive(r)),
            );
            if let TakeOutcome::Delivered(env) = &o {
                if env.epoch != self.epoch {
                    self.world.transport.fenced_msgs.fetch_add(1, Ordering::Relaxed);
                    ddrtrace::instant_arg("minimpi", "fenced_msg", "src", env.src as i64);
                    continue;
                }
            }
            // Any-source watchdog deferral: if any live peer is parked on
            // the flow gate, its message may still be coming — backpressure
            // must not read as a timeout.
            if matches!(o, TakeOutcome::TimedOut)
                && self.world.flow.any_other_in_wait(self.world_rank())
            {
                self.world.flow.note_watchdog_defer();
                continue;
            }
            break o;
        };
        drop(wait);
        match outcome {
            TakeOutcome::Delivered(env) => {
                self.note_delivery(&env);
                let src = env.src;
                let bytes = self.materialize(src, user_key_tag(tag), env)?;
                Ok((RecvStatus { src, len: bytes.len() }, bytes))
            }
            TakeOutcome::TimedOut => Err(Error::Timeout {
                rank: self.rank,
                src: None,
                tag: user_key_tag(tag),
                comm_id: self.comm_id,
            }),
            // Every possible source is gone; report the lowest dead rank.
            TakeOutcome::Aborted => Err(Error::PeerDead {
                rank: (0..self.size()).find(|&r| !self.is_alive(r)).unwrap_or(0),
            }),
        }
    }

    /// Typed receive: take the envelope, verify the sender's datatype
    /// signature against `want` *before* consuming the payload (a mismatched
    /// zero-copy loan is dropped, revoking it), then materialize.
    fn take_from_typed(&self, src: usize, key_tag: u64, want: TypeSig) -> Result<Vec<u8>> {
        let env = self.take_envelope_from(src, key_tag)?;
        self.verify_type_sig(src, key_tag, env.type_sig.as_ref(), &want)?;
        self.materialize(src, key_tag, env)
    }

    /// Receive a `Vec<T>` of POD values from `src` with `tag`.
    pub fn recv_vec<T: Pod>(&self, src: usize, tag: Tag) -> Result<Vec<T>> {
        self.check_rank(src)?;
        let want = TypeSig { extent: 0, elem: std::mem::size_of::<T>() as u32, shape: 0 };
        let bytes = self.take_from_typed(src, user_key_tag(tag), want)?;
        vec_from_bytes(&bytes)
            .ok_or(Error::SizeMismatch { expected: std::mem::size_of::<T>(), got: bytes.len() })
    }

    /// Receive into a caller-provided buffer; the message length must equal
    /// the buffer length exactly.
    pub fn recv_into<T: Pod>(&self, src: usize, tag: Tag, buf: &mut [T]) -> Result<()> {
        self.check_rank(src)?;
        let want = std::mem::size_of_val(buf);
        let sig = TypeSig { extent: want as u64, elem: std::mem::size_of::<T>() as u32, shape: 0 };
        let bytes = self.take_from_typed(src, user_key_tag(tag), sig)?;
        if bytes.len() != want {
            return Err(Error::SizeMismatch { expected: want, got: bytes.len() });
        }
        crate::pod::bytes_of_mut(buf).copy_from_slice(&bytes);
        Ok(())
    }

    /// Non-blocking receive attempt.
    pub fn try_recv_bytes(&self, src: usize, tag: Tag) -> Result<Option<Vec<u8>>> {
        self.check_rank(src)?;
        self.sched_point("try_recv");
        self.fault_tick()?;
        loop {
            match self.my_mailbox().try_take((self.comm_id, src, user_key_tag(tag))) {
                Some(env) if env.epoch != self.epoch => {
                    self.world.transport.fenced_msgs.fetch_add(1, Ordering::Relaxed);
                    ddrtrace::instant_arg("minimpi", "fenced_msg", "src", src as i64);
                }
                Some(env) => {
                    self.note_delivery(&env);
                    return Ok(Some(self.materialize(src, user_key_tag(tag), env)?));
                }
                None => return Ok(None),
            }
        }
    }

    /// Combined send+receive, safe against head-of-line blocking because
    /// sends are buffered (as in `MPI_Sendrecv` with eager protocol).
    pub fn sendrecv<T: Pod>(
        &self,
        dest: usize,
        send_data: &[T],
        src: usize,
        tag: Tag,
    ) -> Result<Vec<T>> {
        self.send(dest, tag, send_data)?;
        self.recv_vec(src, tag)
    }

    // ------------------------------------------------------------------
    // Communicator management
    // ------------------------------------------------------------------

    /// Collective: split this communicator into disjoint sub-communicators,
    /// one per distinct `color`. Members of each child are ordered by their
    /// rank in the parent (MPI's `key` is fixed to the parent rank).
    #[track_caller]
    pub fn split(&self, color: u64) -> Result<Comm> {
        let all: Vec<(u64, usize)> =
            self.allgather(&[color])?.into_iter().enumerate().map(|(r, c)| (c[0], r)).collect();
        let members: Vec<usize> =
            all.iter().filter(|(c, _)| *c == color).map(|(_, r)| self.members[*r]).collect();
        let new_rank = members.iter().position(|&w| w == self.world_rank()).ok_or_else(|| {
            Error::Internal {
                detail: format!(
                    "split: world rank {} missing from its own color group (color {color})",
                    self.world_rank()
                ),
            }
        })?;
        let seq = self.split_seq.get();
        self.split_seq.set(seq + 1);
        let child_id = mix64(mix64(self.comm_id ^ seq.wrapping_mul(0x9e37)) ^ color);
        Ok(Comm::derived(
            Arc::clone(&self.world),
            child_id,
            new_rank,
            Arc::new(members),
            self.epoch,
            self.timeout.get(),
        ))
    }

    /// Collective: duplicate this communicator into an independent one with
    /// the same group but a private message namespace.
    #[track_caller]
    pub fn duplicate(&self) -> Result<Comm> {
        self.split(0)
    }

    /// Collective over the *surviving* members: agree on the set of members
    /// still alive and return a new communicator containing exactly them, in
    /// parent rank order (the moral equivalent of `MPI_Comm_shrink` from
    /// ULFM).
    ///
    /// Every surviving member must call `shrink` the same number of times;
    /// dead members are excused — the rendezvous completes as soon as all
    /// currently-alive members have entered, and is re-evaluated whenever a
    /// rank dies, so survivors never wait out the watchdog on a casualty.
    ///
    /// Unlike other collectives this does not send messages (it agrees via
    /// shared state), so it cannot itself be killed by a fault plan — a rank
    /// that reached `shrink` alive will complete it.
    pub fn shrink(&self) -> Result<Comm> {
        let generation = self.shrink_seq.get();
        self.shrink_seq.set(generation + 1);
        let survivors = self
            .world
            .shrink
            .enter(
                (self.comm_id, generation),
                &self.members,
                self.world_rank(),
                &self.world.liveness,
                self.timeout.get(),
            )
            .ok_or(Error::Timeout {
                rank: self.rank,
                src: None,
                tag: SHRINK_TAG,
                comm_id: self.comm_id,
            })?;
        let new_rank = survivors.iter().position(|&w| w == self.world_rank()).ok_or_else(|| {
            Error::Internal {
                detail: format!(
                    "shrink: world rank {} absent from the agreed survivor set",
                    self.world_rank()
                ),
            }
        })?;
        // Derive the child id identically on every survivor.
        let mut child_id = mix64(self.comm_id ^ mix64(0x5421_494e_4b21 ^ generation));
        for &w in survivors.iter() {
            child_id = mix64(child_id ^ w as u64);
        }
        Ok(Comm::derived(
            Arc::clone(&self.world),
            child_id,
            new_rank,
            Arc::new((*survivors).clone()),
            self.epoch,
            self.timeout.get(),
        ))
    }

    pub(crate) fn next_coll_seq(&self) -> u64 {
        let s = self.coll_seq.get();
        self.coll_seq.set(s + 1);
        s
    }

    /// With checking enabled, verify this rank's collective call number
    /// `seq` against what other members recorded for the same slot; no-op
    /// (one always-false branch) otherwise.
    pub(crate) fn record_collective(&self, seq: u64, fp: CollFingerprint) -> Result<()> {
        if let Some(check) = &self.world.check {
            check
                .record_collective(self.comm_id, seq, self.rank, self.size(), fp)
                .map_err(Error::CollectiveDiverged)?;
        }
        Ok(())
    }
}

/// Watchdog timeout used when none is set on the [`crate::Universe`]
/// builder: `DDR_TIMEOUT_MS` (milliseconds), else 120 s.
pub(crate) fn default_timeout() -> Duration {
    crate::env::u64_var("DDR_TIMEOUT_MS").map_or(Duration::from_secs(120), Duration::from_millis)
}
