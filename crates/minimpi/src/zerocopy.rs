//! The zero-copy data-movement plane.
//!
//! minimpi ranks are threads in one address space, so a non-contiguous
//! message does not need MPI's pack → send → unpack staging: the *receiver*
//! can copy each contiguous run straight out of the sender's source buffer
//! into its own destination buffer — one `copy_from_slice` per run, zero
//! intermediate allocations. This module provides the two pieces that make
//! that safe and fast:
//!
//! * [`ZcCell`] / [`ZcHandle`] — a rendezvous protocol for lending a borrowed
//!   send buffer across threads. The sender deposits a handle (raw pointer +
//!   datatype + completion cell) and **blocks at the end of the collective**
//!   until every lent region was either copied (`Done`) or provably never
//!   will be (`Revoked`). The receiver must *claim* a region before touching
//!   it, so a sender that gives up (peer death, watchdog) can revoke safely:
//!   either the claim wins and the sender waits out the (bounded) memcpy, or
//!   the revoke wins and the receiver never dereferences the pointer.
//! * [`BufferPool`] — reusable staging buffers for the paths that still must
//!   pack (fault-injected routes, explicit opt-out), with a high-water-mark
//!   trim so a one-off huge exchange does not pin memory forever.
//!
//! The claim copy runs on the receiving rank's own thread, hashing as it
//! copies (`Comm::claim_verifying`). There is no helper pool to fan large
//! copies out: in an `alltoallw` every rank is already copying at the same
//! time, so the rank threads are the parallelism, and extra copy workers
//! only compete with them for the same cores.

use crate::datatype::Datatype;
use crate::flow::FlowLedger;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------------
// Rendezvous cells
// ---------------------------------------------------------------------------

const PENDING: u8 = 0;
const COPYING: u8 = 1;
const DONE: u8 = 2;
const REVOKED: u8 = 3;

/// Completion state of one lent region, shared between the sending and
/// receiving rank. State machine: `Pending → Copying → Done` (receiver) or
/// `Pending → Revoked` (sender giving up). The claim CAS makes the two
/// races — revoke-vs-claim and wait-vs-finish — well ordered.
#[derive(Debug, Default)]
pub(crate) struct ZcCell {
    state: AtomicU8,
    lock: Mutex<()>,
    cv: Condvar,
}

/// Outcome of a sender's wait on a lent region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ZcWait {
    /// The receiver copied the region.
    Done,
    /// The sender revoked the loan; the pointer was never (and will never
    /// be) dereferenced.
    Revoked,
}

impl ZcCell {
    /// Receiver side: claim the region for copying. Returns `false` if the
    /// sender already revoked it (the payload is lost).
    pub fn try_claim(&self) -> bool {
        self.state.compare_exchange(PENDING, COPYING, Ordering::Acquire, Ordering::Acquire).is_ok()
    }

    /// Receiver side: mark the copy complete and wake the sender.
    pub fn finish(&self) {
        let _guard = self.lock.lock().unwrap_or_else(|e| e.into_inner());
        self.state.store(DONE, Ordering::Release);
        self.cv.notify_all();
    }

    /// Sender side: block until the region is copied, revoking the loan if
    /// `deadline` passes or `abort()` reports the receiver can no longer
    /// claim it. Never returns while the receiver might still dereference
    /// the lent pointer — that is the zero-copy soundness invariant.
    pub fn wait(&self, deadline: Instant, abort: impl Fn() -> bool) -> ZcWait {
        loop {
            match self.state.load(Ordering::Acquire) {
                DONE => return ZcWait::Done,
                // A third party revoked the loan (the queued envelope was
                // discarded — epoch fence, aborted exchange, teardown).
                REVOKED => return ZcWait::Revoked,
                // Expired or aborted: revoke. Losing the CAS race means the
                // receiver just claimed it — its memcpy is in flight and
                // bounded, so fall through, loop, and wait for Done.
                PENDING
                    if (abort() || Instant::now() >= deadline)
                        && self
                            .state
                            .compare_exchange(PENDING, REVOKED, Ordering::AcqRel, Ordering::Acquire)
                            .is_ok() =>
                {
                    return ZcWait::Revoked;
                }
                _ => {}
            }
            let guard = self.lock.lock().unwrap_or_else(|e| e.into_inner());
            if self.state.load(Ordering::Acquire) != DONE {
                // Re-check under the lock so a finish() cannot slot between
                // the state load and the wait. Bounded wait keeps the abort
                // condition live even if no notification ever comes.
                let _ = self
                    .cv
                    .wait_timeout(guard, Duration::from_millis(25))
                    .unwrap_or_else(|e| e.into_inner());
            }
        }
    }

    /// Third party (neither endpoint actively copying): revoke the loan if it
    /// was never claimed, waking the blocked sender. Used when a queued
    /// `Shared` envelope is discarded — epoch fencing, an aborted exchange
    /// draining its round, mailbox teardown — so the sender observes
    /// `Revoked` promptly instead of waiting out the watchdog. A loan already
    /// being copied (or finished) is left alone.
    pub fn revoke_if_pending(&self) -> bool {
        let _guard = self.lock.lock().unwrap_or_else(|e| e.into_inner());
        let revoked = self
            .state
            .compare_exchange(PENDING, REVOKED, Ordering::AcqRel, Ordering::Acquire)
            .is_ok();
        if revoked {
            self.cv.notify_all();
        }
        revoked
    }

    /// Whether the loan reached a terminal state (`Done` or `Revoked`) — i.e.
    /// its sender is no longer (or never was) on the hook. Used by the
    /// checker's finalize-time loan-leak scan.
    pub fn is_terminal(&self) -> bool {
        matches!(self.state.load(Ordering::Acquire), DONE | REVOKED)
    }
}

/// A lent region travelling through a mailbox: the sender's whole send
/// buffer (as raw parts) plus the datatype selecting the message's bytes
/// within it, and the completion cell the sender is waiting on.
pub(crate) struct ZcHandle {
    ptr: *const u8,
    len: usize,
    /// Selection of the message within the lent buffer.
    pub dt: Datatype,
    /// Completion cell shared with the sender.
    pub cell: Arc<ZcCell>,
}

// SAFETY: the raw pointer crosses threads by design. The sender guarantees
// the pointed-to buffer outlives the rendezvous (it blocks in ZcCell::wait
// until Done/Revoked before the borrow ends), and the receiver only reads
// it between a successful try_claim() and finish().
unsafe impl Send for ZcHandle {}

impl ZcHandle {
    /// Lend `buf` with selection `dt`, reporting completion through `cell`.
    pub fn new(buf: &[u8], dt: Datatype, cell: Arc<ZcCell>) -> Self {
        ZcHandle { ptr: buf.as_ptr(), len: buf.len(), dt, cell }
    }

    /// The lent buffer.
    ///
    /// # Safety
    /// Callable only between a successful [`ZcCell::try_claim`] and the
    /// matching [`ZcCell::finish`], while the sender is still blocked in
    /// [`ZcCell::wait`] — that is what keeps the borrow alive.
    pub unsafe fn src_slice(&self) -> &[u8] {
        // SAFETY: per the function contract the sender's buffer is alive and
        // not mutated for the duration of the claim.
        unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
    }

    /// Number of payload bytes this handle carries.
    pub fn packed_len(&self) -> usize {
        self.dt.packed_len()
    }
}

/// Dropping a handle that was never claimed revokes the loan. This is what
/// makes "discard the envelope" a complete operation: any path that throws a
/// queued `Shared` message away (epoch sweep, aborted exchange, universe
/// teardown) automatically releases the sender blocked on the cell.
impl Drop for ZcHandle {
    fn drop(&mut self) {
        self.cell.revoke_if_pending();
    }
}

// ---------------------------------------------------------------------------
// Staging-buffer pool
// ---------------------------------------------------------------------------

/// Snapshot of [`BufferPool`] occupancy and traffic, for tests, benches and
/// diagnostics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Buffers currently parked in the free list.
    pub free_buffers: usize,
    /// Bytes of capacity currently parked in the free list.
    pub free_bytes: usize,
    /// Largest `free_bytes` ever observed.
    pub high_water_bytes: usize,
    /// Total acquisitions served.
    pub acquires: u64,
    /// Acquisitions served by reuse instead of allocation.
    pub reuse_hits: u64,
    /// Bytes of capacity released back to the allocator by the trim policy.
    pub trimmed_bytes: u64,
}

#[derive(Default)]
struct PoolInner {
    /// Free buffers, kept sorted by capacity (ascending) for best-fit.
    free: Vec<Vec<u8>>,
    free_bytes: usize,
    /// Largest single request seen in the current / previous demand epoch.
    epoch_demand: usize,
    prev_demand: usize,
    epoch_acquires: u32,
    stats: PoolStats,
}

/// How many acquisitions one demand epoch spans. Two epochs after a demand
/// spike ends, the high-water mark has fully decayed and the trim policy
/// releases the excess capacity.
const POOL_EPOCH: u32 = 64;
/// Retained capacity is bounded by `POOL_SLACK ×` the recent peak request
/// (enough to stage every concurrent round of a typical exchange).
const POOL_SLACK: usize = 8;
/// Capacity floor below which the pool never bothers trimming.
const POOL_MIN_RETAIN: usize = 64 * 1024;
/// Hard cap on parked buffer count.
const POOL_MAX_BUFFERS: usize = 64;

/// A shared pool of staging buffers for the pack/unpack (legacy) path.
///
/// `acquire` hands out a cleared `Vec<u8>` with at least the requested
/// capacity; `release` parks it for reuse. The release path trims the free
/// list against a decaying high-water mark of recent demand, so pool memory
/// stays bounded by current traffic instead of the historical maximum
/// (the fix for `pack_into`-era unbounded staging growth).
#[derive(Default)]
pub(crate) struct BufferPool {
    inner: Mutex<PoolInner>,
    /// Memory governor: parked free-list capacity is metered against the
    /// universe budget, and retention past it is denied (buffers are freed
    /// instead — the trim stage of the degradation ladder). `None` only in
    /// bare unit tests.
    flow: Option<Arc<FlowLedger>>,
}

impl BufferPool {
    /// A pool whose retained capacity is metered by `flow`.
    pub fn with_flow(flow: Arc<FlowLedger>) -> Self {
        BufferPool { flow: Some(flow), ..Default::default() }
    }

    fn lock(&self) -> MutexGuard<'_, PoolInner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Get a cleared buffer with capacity at least `cap` (best fit, else a
    /// fresh allocation).
    pub fn acquire(&self, cap: usize) -> Vec<u8> {
        let mut inner = self.lock();
        inner.stats.acquires += 1;
        inner.epoch_acquires += 1;
        inner.epoch_demand = inner.epoch_demand.max(cap);
        if inner.epoch_acquires >= POOL_EPOCH {
            inner.prev_demand = inner.epoch_demand;
            inner.epoch_demand = 0;
            inner.epoch_acquires = 0;
        }
        // Best fit: first free buffer (sorted ascending) that can hold `cap`.
        if let Some(i) = inner.free.iter().position(|b| b.capacity() >= cap) {
            let mut buf = inner.free.remove(i);
            inner.free_bytes -= buf.capacity();
            inner.stats.reuse_hits += 1;
            buf.clear();
            drop(inner);
            // The buffer leaves the free list: return its metered capacity
            // to the governor (a staged deposit will re-meter the payload).
            if let Some(flow) = &self.flow {
                flow.mem_sub(buf.capacity());
            }
            return buf;
        }
        drop(inner);
        // A checkout the free list could not serve: fresh allocation.
        ddrtrace::instant_arg("minimpi", "pool_alloc", "bytes", cap as i64);
        Vec::with_capacity(cap)
    }

    /// Return a buffer to the pool (content is discarded). Oversized
    /// capacity beyond the recent-demand watermark is released immediately.
    pub fn release(&self, mut buf: Vec<u8>) {
        if buf.capacity() == 0 {
            return;
        }
        buf.clear();
        let cap = buf.capacity();
        // Governor gate on retention: parked capacity counts against the
        // budget; a denial frees the buffer to the allocator instead.
        if let Some(flow) = &self.flow {
            if !flow.pool_try_retain(cap) {
                self.lock().stats.trimmed_bytes += cap as u64;
                ddrtrace::instant_arg("minimpi", "pool_trim", "bytes", cap as i64);
                return;
            }
        }
        let mut inner = self.lock();
        let at = inner.free.partition_point(|b| b.capacity() < cap);
        inner.free.insert(at, buf);
        inner.free_bytes += cap;
        inner.stats.high_water_bytes = inner.stats.high_water_bytes.max(inner.free_bytes);
        let bound = (inner.epoch_demand.max(inner.prev_demand) * POOL_SLACK).max(POOL_MIN_RETAIN);
        // Trim largest-first: big stale buffers are the ones that pin memory.
        let mut trimmed = 0u64;
        while inner.free_bytes > bound || inner.free.len() > POOL_MAX_BUFFERS {
            match inner.free.pop() {
                Some(b) => {
                    inner.free_bytes -= b.capacity();
                    inner.stats.trimmed_bytes += b.capacity() as u64;
                    trimmed += b.capacity() as u64;
                }
                None => break,
            }
        }
        drop(inner);
        // Capacity evicted by the demand-decay trim is no longer parked:
        // give its metered bytes back to the governor.
        if trimmed > 0 {
            if let Some(flow) = &self.flow {
                flow.mem_sub(trimmed as usize);
            }
        }
        if ddrtrace::enabled() {
            if trimmed > 0 {
                ddrtrace::instant_arg("minimpi", "pool_trim", "bytes", trimmed as i64);
            }
            ddrtrace::counter("pool_free_bytes", self.lock().free_bytes as i64);
        }
    }

    /// Current occupancy / traffic counters.
    pub fn stats(&self) -> PoolStats {
        let inner = self.lock();
        let mut s = inner.stats;
        s.free_buffers = inner.free.len();
        s.free_bytes = inner.free_bytes;
        s
    }
}

// ---------------------------------------------------------------------------
// Transport counters
// ---------------------------------------------------------------------------

/// Which wire path messages took, for tests and benches to introspect.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TransportCounters {
    /// Messages delivered by the zero-copy rendezvous.
    pub zerocopy_msgs: u64,
    /// Messages staged through pack buffers.
    pub staged_msgs: u64,
    /// Zero-copy loans that were revoked before the receiver copied them.
    pub revoked_msgs: u64,
    /// Stale-epoch messages rejected by the membership fence instead of
    /// being delivered (swept at reconfiguration or caught at match time).
    pub fenced_msgs: u64,
}

/// Atomic backing store for [`TransportCounters`], kept on the world state.
#[derive(Debug, Default)]
pub(crate) struct TransportCells {
    pub zerocopy_msgs: AtomicU64,
    pub staged_msgs: AtomicU64,
    pub revoked_msgs: AtomicU64,
    pub fenced_msgs: AtomicU64,
}

impl TransportCells {
    pub fn snapshot(&self) -> TransportCounters {
        TransportCounters {
            zerocopy_msgs: self.zerocopy_msgs.load(Ordering::Relaxed),
            staged_msgs: self.staged_msgs.load(Ordering::Relaxed),
            revoked_msgs: self.revoked_msgs.load(Ordering::Relaxed),
            fenced_msgs: self.fenced_msgs.load(Ordering::Relaxed),
        }
    }
}

/// Reads `DDR_NO_ZEROCOPY`: a truthy value disables the zero-copy fast path
/// for the whole process.
pub(crate) fn zerocopy_env_default() -> bool {
    !crate::env::flag("DDR_NO_ZEROCOPY").unwrap_or(false)
}

/// Per-message byte threshold at or below which the sender stages even when
/// zero-copy is enabled: small loans cost as much in rendezvous handshakes
/// as the copy they avoid (measured breakeven at 64 KiB), so only strictly
/// larger messages loan. Default 64 KiB, overridable via `DDR_ZC_THRESHOLD`
/// (supports `K`/`M`/`G` suffixes; `0` loans everything).
pub(crate) const ZC_THRESHOLD_DEFAULT: usize = 64 << 10;

/// The process-wide threshold from the environment, used when the builder
/// did not decide explicitly.
pub(crate) fn zc_threshold_env_default() -> usize {
    crate::env::bytes_var("DDR_ZC_THRESHOLD").unwrap_or(ZC_THRESHOLD_DEFAULT)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cell_done_path() {
        let cell = Arc::new(ZcCell::default());
        let c2 = Arc::clone(&cell);
        let h = std::thread::spawn(move || {
            assert!(c2.try_claim());
            c2.finish();
        });
        let out = cell.wait(Instant::now() + Duration::from_secs(5), || false);
        assert_eq!(out, ZcWait::Done);
        h.join().unwrap();
    }

    #[test]
    fn cell_revoke_on_timeout_blocks_claim() {
        let cell = ZcCell::default();
        let out = cell.wait(Instant::now(), || false);
        assert_eq!(out, ZcWait::Revoked);
        assert!(!cell.try_claim());
    }

    #[test]
    fn dropping_unclaimed_handle_revokes_loan() {
        let cell = Arc::new(ZcCell::default());
        let buf = vec![0u8; 16];
        let dt = Datatype::Contiguous { len_bytes: 16, offset: 0 };
        drop(ZcHandle::new(&buf, dt, Arc::clone(&cell)));
        // The loan is dead: the receiver can no longer claim it, and a
        // sender blocked in wait() observes the revocation immediately.
        assert!(!cell.try_claim());
        let out = cell.wait(Instant::now() + Duration::from_secs(5), || false);
        assert_eq!(out, ZcWait::Revoked);
    }

    #[test]
    fn dropping_claimed_handle_does_not_disturb_copy() {
        let cell = Arc::new(ZcCell::default());
        assert!(cell.try_claim());
        let buf = vec![0u8; 4];
        let dt = Datatype::Contiguous { len_bytes: 4, offset: 0 };
        drop(ZcHandle::new(&buf, dt, Arc::clone(&cell)));
        cell.finish();
        assert_eq!(cell.wait(Instant::now(), || false), ZcWait::Done);
    }

    #[test]
    fn cell_abort_revokes() {
        let cell = ZcCell::default();
        let out = cell.wait(Instant::now() + Duration::from_secs(60), || true);
        assert_eq!(out, ZcWait::Revoked);
    }

    #[test]
    fn pool_reuses_and_clears() {
        let pool = BufferPool::default();
        let mut a = pool.acquire(100);
        a.extend_from_slice(&[1, 2, 3]);
        let cap = a.capacity();
        pool.release(a);
        let b = pool.acquire(50);
        assert!(b.is_empty());
        assert_eq!(b.capacity(), cap);
        assert_eq!(pool.stats().reuse_hits, 1);
    }

    #[test]
    fn pool_trims_oversized_capacity_after_demand_decays() {
        let pool = BufferPool::default();
        // One huge staging buffer, then two epochs of small traffic.
        let huge = pool.acquire(32 << 20);
        pool.release(huge);
        for _ in 0..(2 * POOL_EPOCH) {
            let b = pool.acquire(1024);
            pool.release(b);
        }
        let s = pool.stats();
        assert!(
            s.free_bytes <= (1024 * POOL_SLACK).max(POOL_MIN_RETAIN),
            "pool retained {} bytes after demand decayed",
            s.free_bytes
        );
        assert!(s.trimmed_bytes >= (32 << 20) as u64);
    }
}
