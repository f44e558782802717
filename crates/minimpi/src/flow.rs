//! Credit-based flow control and the process-global memory governor.
//!
//! Every queue in the runtime used to be unbounded: mailboxes were capless
//! `VecDeque`s and staging allocations had no global ceiling, so a fast
//! sender or a straggling receiver turned directly into unbounded memory
//! growth. This module provides the two enforcement mechanisms and the
//! observability around them:
//!
//! * **Per-pair credits** — every `(sender, receiver)` world-rank pair has a
//!   bounded message window ([`FlowConfig::msg_credits`]) and byte window
//!   ([`FlowConfig::byte_credits`]). A deposit *acquires* credits before the
//!   envelope enters the mailbox and the receiver *releases* them when it
//!   pops the envelope (or when an epoch sweep discards it) — so credit
//!   grants piggyback on the existing delivery path instead of needing
//!   dedicated ack traffic. Senders that cannot acquire block on the credit
//!   gate with a progress-reset deadline: a genuinely stuck handshake
//!   surfaces as a structured [`Error::Timeout`] instead of a hang, while a
//!   merely slow receiver just applies backpressure.
//! * **Memory governor** — a process-global meter of staged bytes (mailbox
//!   payloads plus pool-retained capacity) against
//!   [`FlowConfig::mem_budget`]. Accounting is always on (it feeds the
//!   `mem.high_water` metric and the bench's `peak_staging_bytes` column);
//!   the *gate* only engages when a budget is configured. Degradation is
//!   staged: zero-copy sheds to the staged path at 50% occupancy
//!   ([`FlowLedger::shedding_zerocopy`]), then the buffer pool drops
//!   returned buffers instead of retaining them ([`FlowLedger::pool_try_retain`]), and only a single
//!   request larger than the whole budget — or a budget wait that makes no
//!   progress for a full timeout — returns [`Error::MemoryPressure`].
//! * **Straggler detection** — each pair keeps an EWMA of credit-stall
//!   durations; a pair whose EWMA crosses `DDR_SLOW_PEER_MS` is flagged once
//!   as a *SlowPeer* advisory (`flow.slow_peers` metric + trace instant),
//!   distinct from [`Error::PeerDead`]: the peer is alive, just slow. While
//!   a sender is parked on the gate its peers' watchdogs defer instead of
//!   firing (`flow.watchdog_defers`), so backpressure never masquerades as
//!   a deadlock.

use crate::error::{Error, Result};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// Default per-pair message window.
pub(crate) const DEFAULT_MSG_CREDITS: u64 = 1024;
/// Default per-pair byte window (32 MiB).
pub(crate) const DEFAULT_BYTE_CREDITS: usize = 32 << 20;
/// Default slow-peer advisory threshold for the credit-stall EWMA.
const DEFAULT_SLOW_PEER_MS: u64 = 100;
/// Gate poll slice while parked: long enough to not spin, short enough that
/// death / progress signals are observed promptly even without a notify.
const GATE_POLL: Duration = Duration::from_millis(2);
/// Hard multiple of the comm timeout a credit wait may last in total, even
/// if unrelated global progress keeps resetting the sliding deadline.
const HARD_CAP_TIMEOUTS: u32 = 4;
/// EWMA smoothing shift: `ewma += (sample - ewma) >> 3` (alpha = 1/8).
const EWMA_SHIFT: u32 = 3;

/// Resolved flow-control configuration for one universe. Constructed by the
/// builder from its explicit settings or the `DDR_MAILBOX_CREDITS` /
/// `DDR_MAILBOX_BYTES` / `DDR_MEM_BUDGET` environment knobs. A limit of `0`
/// means unlimited (accounting still runs; the gate never blocks on it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowConfig {
    /// Messages one sender may have queued at one receiver (per pair).
    pub msg_credits: u64,
    /// Payload bytes one sender may have queued at one receiver (per pair).
    /// A single message larger than the whole window is admitted when the
    /// pair is empty, so oversize transfers degrade to stop-and-wait
    /// instead of erroring.
    pub byte_credits: usize,
    /// Process-global staged-byte budget (mailbox payloads + pool retention).
    pub mem_budget: usize,
}

impl Default for FlowConfig {
    fn default() -> Self {
        FlowConfig {
            msg_credits: DEFAULT_MSG_CREDITS,
            byte_credits: DEFAULT_BYTE_CREDITS,
            mem_budget: 0,
        }
    }
}

impl FlowConfig {
    /// Environment-resolved defaults: `DDR_MAILBOX_CREDITS`,
    /// `DDR_MAILBOX_BYTES`, `DDR_MEM_BUDGET`.
    pub(crate) fn env_default() -> Self {
        FlowConfig {
            msg_credits: crate::env::u64_var("DDR_MAILBOX_CREDITS").unwrap_or(DEFAULT_MSG_CREDITS),
            byte_credits: crate::env::bytes_var("DDR_MAILBOX_BYTES")
                .unwrap_or(DEFAULT_BYTE_CREDITS),
            mem_budget: crate::env::bytes_var("DDR_MEM_BUDGET").unwrap_or(0),
        }
    }
}

/// The credits one queued envelope holds, released by the mailbox when the
/// envelope is popped (delivered) or swept (epoch-fenced). Source is a
/// *world* rank: envelopes carry communicator-local ranks, but pair
/// accounting must survive communicator splits and renumbering.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct FlowCharge {
    /// Sender's world rank (the pair's row).
    pub src_world: usize,
    /// Pair byte-credits charged (0 for zero-copy loans and control traffic).
    pub bytes: usize,
    /// Governor bytes charged (staged payload length; 0 for loans).
    pub mem: usize,
}

/// Everything a deposit path needs to acquire credits: the pair, the
/// charge, and how to report a stall.
pub(crate) struct AcquireCtx {
    /// Sender world rank.
    pub src_world: usize,
    /// Receiver world rank.
    pub dst_world: usize,
    /// Pair byte-credits to charge.
    pub bytes: usize,
    /// Governor bytes to charge.
    pub mem: usize,
    /// Per-attempt stall budget (the comm's watchdog timeout); the sliding
    /// deadline resets whenever any release happens anywhere.
    pub timeout: Duration,
    /// Sender's communicator-local rank, for error construction.
    pub rank_local: usize,
    /// Receiver's communicator-local rank, for error construction.
    pub dest_local: usize,
    /// Key tag of the message being gated.
    pub tag: u64,
    /// Communicator id, for error construction.
    pub comm_id: u64,
}

/// What blocked a failed admission attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Blocker {
    /// The pair's message or byte window is full.
    Credits,
    /// The global memory budget is exhausted.
    Memory,
}

/// Per-pair credit state plus the stall EWMA feeding the slow-peer advisory.
#[derive(Default)]
struct PairState {
    msgs: AtomicU64,
    bytes: AtomicU64,
    /// EWMA of credit-stall durations against this pair, in microseconds.
    stall_ewma_us: AtomicU64,
    /// One-shot advisory latch: this pair was already reported slow.
    slow_flagged: AtomicBool,
}

/// Monotone counters describing flow-control activity, for metrics/tests.
#[derive(Debug, Default)]
struct FlowCells {
    credit_waits: AtomicU64,
    stalled_us: AtomicU64,
    watchdog_defers: AtomicU64,
    slow_peers: AtomicU64,
    zerocopy_sheds: AtomicU64,
    mem_denials: AtomicU64,
    pool_trims: AtomicU64,
}

/// Snapshot of the flow-control counters (see [`crate::Comm::flow_counters`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FlowCounters {
    /// Deposits that had to park on the credit gate or the governor.
    pub credit_waits: u64,
    /// Total time senders spent parked, in milliseconds.
    pub stalled_ms: u64,
    /// Receive-watchdog expiries deferred because the awaited sender was
    /// parked on the gate (backpressure, not deadlock).
    pub watchdog_defers: u64,
    /// Pairs flagged by the slow-peer advisory (stall EWMA over threshold).
    pub slow_peers: u64,
    /// Messages shed from the zero-copy to the staged path by the governor's
    /// occupancy stage.
    pub zerocopy_sheds: u64,
    /// Admission attempts that found the memory budget exhausted.
    pub mem_denials: u64,
    /// Pool-retention requests the governor denied (buffer freed instead).
    pub pool_trims: u64,
}

/// The process-wide (per-universe) flow ledger: pair credit windows, the
/// memory governor, the sender parking gate, and the counters above.
pub(crate) struct FlowLedger {
    n: usize,
    cfg: FlowConfig,
    /// Dense pair table, indexed `src_world * n + dst_world`.
    pairs: Vec<PairState>,
    mem_used: AtomicUsize,
    mem_high_water: AtomicUsize,
    /// Bumped on every release; parked senders reset their deadline on it.
    progress: AtomicU64,
    /// Senders currently parked (fast check before taking the gate lock).
    waiters: AtomicUsize,
    /// Per world rank: parked in `acquire` right now (watchdog deferral).
    in_wait: Vec<AtomicBool>,
    gate: Mutex<()>,
    cv: Condvar,
    counters: FlowCells,
    slow_peer_us: u64,
}

impl FlowLedger {
    pub fn new(n: usize, cfg: FlowConfig) -> Self {
        FlowLedger {
            n,
            cfg,
            pairs: (0..n * n).map(|_| PairState::default()).collect(),
            mem_used: AtomicUsize::new(0),
            mem_high_water: AtomicUsize::new(0),
            progress: AtomicU64::new(0),
            waiters: AtomicUsize::new(0),
            in_wait: (0..n).map(|_| AtomicBool::new(false)).collect(),
            gate: Mutex::new(()),
            cv: Condvar::new(),
            counters: FlowCells::default(),
            slow_peer_us: crate::env::u64_var("DDR_SLOW_PEER_MS")
                .unwrap_or(DEFAULT_SLOW_PEER_MS)
                .saturating_mul(1000),
        }
    }

    /// The universe's resolved configuration.
    pub fn config(&self) -> FlowConfig {
        self.cfg
    }

    fn pair(&self, src: usize, dst: usize) -> &PairState {
        &self.pairs[src * self.n + dst]
    }

    /// One admission attempt: charge the pair windows and the governor, or
    /// report what blocked. Partially taken credits are rolled back, so a
    /// blocked attempt leaves no residue.
    fn try_admit(&self, ctx: &AcquireCtx) -> std::result::Result<FlowCharge, Blocker> {
        let pair = self.pair(ctx.src_world, ctx.dst_world);
        if self.cfg.msg_credits > 0 {
            let mut cur = pair.msgs.load(Ordering::Relaxed);
            loop {
                if cur >= self.cfg.msg_credits {
                    return Err(Blocker::Credits);
                }
                match pair.msgs.compare_exchange_weak(
                    cur,
                    cur + 1,
                    Ordering::AcqRel,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => break,
                    Err(seen) => cur = seen,
                }
            }
        }
        if self.cfg.byte_credits > 0 && ctx.bytes > 0 {
            let limit = self.cfg.byte_credits as u64;
            let b = ctx.bytes as u64;
            let mut cur = pair.bytes.load(Ordering::Relaxed);
            loop {
                // An oversize single message is admitted into an empty pair
                // (stop-and-wait) instead of blocking forever.
                if cur > 0 && cur.saturating_add(b) > limit {
                    if self.cfg.msg_credits > 0 {
                        pair.msgs.fetch_sub(1, Ordering::AcqRel);
                    }
                    return Err(Blocker::Credits);
                }
                match pair.bytes.compare_exchange_weak(
                    cur,
                    cur + b,
                    Ordering::AcqRel,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => break,
                    Err(seen) => cur = seen,
                }
            }
        }
        if ctx.mem > 0 {
            if let Err(blocker) = self.mem_try_add(ctx.mem) {
                if self.cfg.msg_credits > 0 {
                    pair.msgs.fetch_sub(1, Ordering::AcqRel);
                }
                if self.cfg.byte_credits > 0 && ctx.bytes > 0 {
                    pair.bytes.fetch_sub(ctx.bytes as u64, Ordering::AcqRel);
                }
                self.counters.mem_denials.fetch_add(1, Ordering::Relaxed);
                return Err(blocker);
            }
        }
        Ok(FlowCharge { src_world: ctx.src_world, bytes: ctx.bytes, mem: ctx.mem })
    }

    /// Meter `m` bytes against the governor. Accounting always runs (it
    /// feeds the high-water mark); the budget gate only blocks when one is
    /// configured. The CAS keeps the measured peak at or below the budget.
    fn mem_try_add(&self, m: usize) -> std::result::Result<(), Blocker> {
        let mut cur = self.mem_used.load(Ordering::Relaxed);
        loop {
            if self.cfg.mem_budget > 0 && cur.saturating_add(m) > self.cfg.mem_budget {
                return Err(Blocker::Memory);
            }
            match self.mem_used.compare_exchange_weak(
                cur,
                cur + m,
                Ordering::AcqRel,
                Ordering::Relaxed,
            ) {
                Ok(_) => {
                    self.mem_high_water.fetch_max(cur + m, Ordering::AcqRel);
                    return Ok(());
                }
                Err(seen) => cur = seen,
            }
        }
    }

    /// Acquire credits for one deposit, blocking (bounded) when the window
    /// or budget is full. `is_dead` is re-checked on every wake so a peer
    /// death (or the sender's own fault-kill) unparks immediately with the
    /// appropriate error. The deadline slides forward whenever any release
    /// happens anywhere in the universe — a sender parked behind a *live*
    /// pipeline never times out — but a gate that sees no global progress
    /// for a full timeout (or `HARD_CAP_TIMEOUTS`× in total) fails
    /// structurally: [`Error::MemoryPressure`] when the governor is the
    /// blocker, [`Error::Timeout`] when the pair window is.
    pub fn acquire(
        &self,
        ctx: &AcquireCtx,
        is_dead: impl Fn() -> Option<Error>,
    ) -> Result<FlowCharge> {
        // A single staged request larger than the entire budget can never be
        // admitted: the terminal ladder stage, reported before any wait.
        if self.cfg.mem_budget > 0 && ctx.mem > self.cfg.mem_budget {
            self.counters.mem_denials.fetch_add(1, Ordering::Relaxed);
            return Err(Error::MemoryPressure {
                requested: ctx.mem,
                budget: self.cfg.mem_budget,
                used: self.mem_used.load(Ordering::Relaxed),
            });
        }
        if let Ok(charge) = self.try_admit(ctx) {
            return Ok(charge);
        }

        // Slow path: park on the gate.
        let mut blocker;
        self.counters.credit_waits.fetch_add(1, Ordering::Relaxed);
        self.in_wait[ctx.src_world].store(true, Ordering::Release);
        self.waiters.fetch_add(1, Ordering::AcqRel);
        let start = Instant::now();
        let hard_deadline = start + ctx.timeout * HARD_CAP_TIMEOUTS;
        let mut deadline = start + ctx.timeout;
        let mut last_progress = self.progress.load(Ordering::Acquire);
        let out = loop {
            if let Some(e) = is_dead() {
                break Err(e);
            }
            match self.try_admit(ctx) {
                Ok(charge) => break Ok(charge),
                Err(b) => blocker = b,
            }
            let now = Instant::now();
            let p = self.progress.load(Ordering::Acquire);
            if p != last_progress {
                last_progress = p;
                deadline = now + ctx.timeout;
            }
            if now >= deadline.min(hard_deadline) {
                break Err(match blocker {
                    Blocker::Memory => Error::MemoryPressure {
                        requested: ctx.mem,
                        budget: self.cfg.mem_budget,
                        used: self.mem_used.load(Ordering::Relaxed),
                    },
                    Blocker::Credits => Error::Timeout {
                        rank: ctx.rank_local,
                        src: Some(ctx.dest_local),
                        tag: ctx.tag,
                        comm_id: ctx.comm_id,
                    },
                });
            }
            let guard = self.gate.lock().unwrap_or_else(|e| e.into_inner());
            let _ = self.cv.wait_timeout(guard, GATE_POLL).unwrap_or_else(|e| e.into_inner());
        };
        self.in_wait[ctx.src_world].store(false, Ordering::Release);
        self.waiters.fetch_sub(1, Ordering::AcqRel);
        self.record_stall(ctx, start.elapsed());
        out
    }

    /// Fold one stall into the counters and the pair's EWMA; cross the
    /// advisory threshold once per pair.
    fn record_stall(&self, ctx: &AcquireCtx, stalled: Duration) {
        let us = stalled.as_micros().min(u64::MAX as u128) as u64;
        self.counters.stalled_us.fetch_add(us, Ordering::Relaxed);
        let pair = self.pair(ctx.src_world, ctx.dst_world);
        let prev = pair.stall_ewma_us.load(Ordering::Relaxed);
        let ewma = prev + (us >> EWMA_SHIFT) - (prev >> EWMA_SHIFT);
        pair.stall_ewma_us.store(ewma, Ordering::Relaxed);
        if ewma >= self.slow_peer_us && !pair.slow_flagged.swap(true, Ordering::AcqRel) {
            self.counters.slow_peers.fetch_add(1, Ordering::Relaxed);
            ddrtrace::instant_arg("minimpi", "slow_peer", "dst", ctx.dst_world as i64);
        }
    }

    /// Release one envelope's charge: return the pair credits and governor
    /// bytes, publish progress, and wake parked senders. Saturating
    /// subtraction everywhere — a release can never underflow the ledger
    /// even if an accounting bug double-released (belt and braces; the
    /// mailbox releases each charge exactly once).
    pub fn release(&self, charge: FlowCharge, dst_world: usize) {
        let pair = self.pair(charge.src_world, dst_world);
        if self.cfg.msg_credits > 0 {
            let _ = pair
                .msgs
                .fetch_update(Ordering::AcqRel, Ordering::Relaxed, |v| Some(v.saturating_sub(1)));
        }
        if self.cfg.byte_credits > 0 && charge.bytes > 0 {
            let _ = pair.bytes.fetch_update(Ordering::AcqRel, Ordering::Relaxed, |v| {
                Some(v.saturating_sub(charge.bytes as u64))
            });
        }
        if charge.mem > 0 {
            self.mem_sub(charge.mem);
        }
        self.bump_progress();
    }

    fn bump_progress(&self) {
        self.progress.fetch_add(1, Ordering::AcqRel);
        if self.waiters.load(Ordering::Acquire) > 0 {
            let _guard = self.gate.lock().unwrap_or_else(|e| e.into_inner());
            self.cv.notify_all();
        }
    }

    /// Governor-metered pool retention: account `bytes` of parked capacity,
    /// or deny (→ the pool frees the buffer instead — the trim stage of the
    /// degradation ladder).
    pub fn pool_try_retain(&self, bytes: usize) -> bool {
        match self.mem_try_add(bytes) {
            Ok(()) => true,
            Err(_) => {
                self.counters.pool_trims.fetch_add(1, Ordering::Relaxed);
                false
            }
        }
    }

    /// Return governor bytes (popped payloads, un-parked pool capacity).
    pub fn mem_sub(&self, bytes: usize) {
        let _ = self
            .mem_used
            .fetch_update(Ordering::AcqRel, Ordering::Relaxed, |v| Some(v.saturating_sub(bytes)));
        self.bump_progress();
    }

    /// Whether the occupancy stage says to shed zero-copy loans to the
    /// staged path: at half the budget, staged traffic (which the governor
    /// can meter and the pool can recycle) is preferable to unmetered loans.
    pub fn shedding_zerocopy(&self) -> bool {
        self.cfg.mem_budget > 0 && self.mem_used.load(Ordering::Relaxed) >= self.cfg.mem_budget / 2
    }

    /// Count one message actually shed from zero-copy to staged.
    pub fn note_zerocopy_shed(&self) {
        self.counters.zerocopy_sheds.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one receive-watchdog expiry deferred because the awaited
    /// sender is parked on the gate.
    pub fn note_watchdog_defer(&self) {
        self.counters.watchdog_defers.fetch_add(1, Ordering::Relaxed);
    }

    /// Is `world_rank` currently parked in [`FlowLedger::acquire`]?
    pub fn rank_in_wait(&self, world_rank: usize) -> bool {
        self.in_wait.get(world_rank).is_some_and(|w| w.load(Ordering::Acquire))
    }

    /// Is any rank other than `me` parked? (Any-source watchdog deferral.)
    pub fn any_other_in_wait(&self, me: usize) -> bool {
        self.in_wait.iter().enumerate().any(|(r, w)| r != me && w.load(Ordering::Acquire))
    }

    /// Wake every parked sender (peer death, teardown) so their `is_dead`
    /// probes run immediately.
    pub fn wake_all(&self) {
        let _guard = self.gate.lock().unwrap_or_else(|e| e.into_inner());
        self.cv.notify_all();
    }

    /// Current governor occupancy in bytes.
    pub fn mem_used(&self) -> usize {
        self.mem_used.load(Ordering::Relaxed)
    }

    /// Largest governor occupancy ever observed.
    pub fn mem_high_water(&self) -> usize {
        self.mem_high_water.load(Ordering::Relaxed)
    }

    /// Debug-only invariant for the mailbox deposit: the pair's message
    /// count (including the envelope being deposited) respects the cap.
    #[cfg(debug_assertions)]
    pub fn pair_within_cap(&self, src_world: usize, dst_world: usize) -> bool {
        self.cfg.msg_credits == 0
            || self.pair(src_world, dst_world).msgs.load(Ordering::Acquire) <= self.cfg.msg_credits
    }

    /// Counter snapshot.
    pub fn counters(&self) -> FlowCounters {
        FlowCounters {
            credit_waits: self.counters.credit_waits.load(Ordering::Relaxed),
            stalled_ms: self.counters.stalled_us.load(Ordering::Relaxed) / 1000,
            watchdog_defers: self.counters.watchdog_defers.load(Ordering::Relaxed),
            slow_peers: self.counters.slow_peers.load(Ordering::Relaxed),
            zerocopy_sheds: self.counters.zerocopy_sheds.load(Ordering::Relaxed),
            mem_denials: self.counters.mem_denials.load(Ordering::Relaxed),
            pool_trims: self.counters.pool_trims.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn ctx(src: usize, dst: usize, bytes: usize, mem: usize) -> AcquireCtx {
        AcquireCtx {
            src_world: src,
            dst_world: dst,
            bytes,
            mem,
            timeout: Duration::from_millis(100),
            rank_local: src,
            dest_local: dst,
            tag: 7,
            comm_id: 1,
        }
    }

    fn cfg(msgs: u64, bytes: usize, mem: usize) -> FlowConfig {
        FlowConfig { msg_credits: msgs, byte_credits: bytes, mem_budget: mem }
    }

    #[test]
    fn credits_charge_and_release() {
        let l = FlowLedger::new(2, cfg(2, 100, 0));
        let a = l.acquire(&ctx(0, 1, 40, 0), || None).unwrap();
        let b = l.acquire(&ctx(0, 1, 40, 0), || None).unwrap();
        // Window full: third deposit times out with a structured error.
        let e = l.acquire(&ctx(0, 1, 10, 0), || None).unwrap_err();
        assert!(matches!(e, Error::Timeout { rank: 0, src: Some(1), .. }), "{e:?}");
        assert!(l.counters().credit_waits >= 1);
        l.release(a, 1);
        l.acquire(&ctx(0, 1, 10, 0), || None).unwrap();
        l.release(b, 1);
    }

    #[test]
    fn oversize_message_admitted_into_empty_pair() {
        let l = FlowLedger::new(2, cfg(4, 64, 0));
        // 100 > 64, but the pair is empty: stop-and-wait admission.
        let big = l.acquire(&ctx(0, 1, 100, 0), || None).unwrap();
        // Pair non-empty now: even a small follow-up must wait.
        let e = l.acquire(&ctx(0, 1, 8, 0), || None).unwrap_err();
        assert!(matches!(e, Error::Timeout { .. }));
        l.release(big, 1);
        l.acquire(&ctx(0, 1, 8, 0), || None).unwrap();
    }

    #[test]
    fn pairs_are_independent() {
        let l = FlowLedger::new(3, cfg(1, 0, 0));
        let _a = l.acquire(&ctx(0, 1, 0, 0), || None).unwrap();
        // Same sender, different receiver: its own window.
        let _b = l.acquire(&ctx(0, 2, 0, 0), || None).unwrap();
        // Different sender, same receiver: its own window too.
        let _c = l.acquire(&ctx(2, 1, 0, 0), || None).unwrap();
    }

    #[test]
    fn governor_blocks_then_releases() {
        let l = Arc::new(FlowLedger::new(2, cfg(0, 0, 1000)));
        let a = l.acquire(&ctx(0, 1, 0, 800), || None).unwrap();
        assert_eq!(l.mem_used(), 800);
        let l2 = Arc::clone(&l);
        let h = std::thread::spawn(move || l2.acquire(&ctx(0, 1, 0, 400), || None));
        std::thread::sleep(Duration::from_millis(20));
        l.release(a, 1);
        let b = h.join().unwrap().unwrap();
        assert_eq!(b.mem, 400);
        assert_eq!(l.mem_high_water(), 800, "peak must never exceed the budget");
        assert!(l.counters().mem_denials >= 1);
    }

    #[test]
    fn request_larger_than_budget_is_memory_pressure() {
        let l = FlowLedger::new(2, cfg(0, 0, 100));
        let e = l.acquire(&ctx(0, 1, 0, 101), || None).unwrap_err();
        assert!(matches!(e, Error::MemoryPressure { requested: 101, budget: 100, .. }), "{e:?}");
    }

    #[test]
    fn governor_timeout_is_memory_pressure_not_hang() {
        let l = FlowLedger::new(2, cfg(0, 0, 100));
        let _held = l.acquire(&ctx(0, 1, 0, 90), || None).unwrap();
        let start = Instant::now();
        let e = l.acquire(&ctx(1, 0, 0, 50), || None).unwrap_err();
        assert!(matches!(e, Error::MemoryPressure { .. }), "{e:?}");
        assert!(start.elapsed() < Duration::from_secs(2));
    }

    #[test]
    fn accounting_runs_without_a_budget() {
        let l = FlowLedger::new(2, cfg(0, 0, 0));
        let a = l.acquire(&ctx(0, 1, 0, 1 << 20), || None).unwrap();
        assert_eq!(l.mem_high_water(), 1 << 20);
        l.release(a, 1);
        assert_eq!(l.mem_used(), 0);
        assert_eq!(l.mem_high_water(), 1 << 20);
    }

    #[test]
    fn dead_peer_unparks_the_gate() {
        let l = Arc::new(FlowLedger::new(2, cfg(1, 0, 0)));
        let _held = l.acquire(&ctx(0, 1, 0, 0), || None).unwrap();
        let l2 = Arc::clone(&l);
        let dead = Arc::new(AtomicBool::new(false));
        let d2 = Arc::clone(&dead);
        let h = std::thread::spawn(move || {
            l2.acquire(&ctx(0, 1, 0, 0), || {
                d2.load(Ordering::Acquire).then_some(Error::PeerDead { rank: 1 })
            })
        });
        std::thread::sleep(Duration::from_millis(20));
        assert!(l.rank_in_wait(0), "sender must be registered as parked");
        assert!(l.any_other_in_wait(1));
        dead.store(true, Ordering::Release);
        l.wake_all();
        let e = h.join().unwrap().unwrap_err();
        assert!(matches!(e, Error::PeerDead { rank: 1 }));
        assert!(!l.rank_in_wait(0));
    }

    #[test]
    fn pool_retention_denied_over_budget() {
        let l = FlowLedger::new(2, cfg(0, 0, 100));
        assert!(l.pool_try_retain(80));
        assert!(!l.pool_try_retain(30), "retention past the budget must be denied");
        assert_eq!(l.counters().pool_trims, 1);
        l.mem_sub(80);
        assert!(l.pool_try_retain(30));
    }

    #[test]
    fn shedding_engages_at_half_budget() {
        let l = FlowLedger::new(2, cfg(0, 0, 100));
        assert!(!l.shedding_zerocopy());
        let a = l.acquire(&ctx(0, 1, 0, 50), || None).unwrap();
        assert!(l.shedding_zerocopy());
        l.release(a, 1);
        assert!(!l.shedding_zerocopy());
    }

    #[test]
    fn stall_counters_accumulate() {
        let l = FlowLedger::new(2, cfg(1, 0, 0));
        let held = l.acquire(&ctx(0, 1, 0, 0), || None).unwrap();
        let _ = l.acquire(&ctx(0, 1, 0, 0), || None).unwrap_err();
        let c = l.counters();
        assert_eq!(c.credit_waits, 1);
        assert!(c.stalled_ms >= 90, "a full timeout was burned: {c:?}");
        l.release(held, 1);
    }
}
