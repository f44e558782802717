//! Collective operations over a [`Comm`].
//!
//! All collectives are built on point-to-point messages in a private tag
//! namespace keyed by a per-communicator sequence number, so user traffic and
//! concurrent collectives on *different* communicators can never interfere.
//! Every member of a communicator must call each collective in the same
//! order — the standard MPI contract.

use crate::check::{CollFingerprint, CollectiveKind, TypeSig};
use crate::comm::{coll_key_tag, Comm};
use crate::datatype::{copy_selection, Datatype};
use crate::error::{Error, Result};
use crate::fault::mix64;
use crate::mailbox::{Envelope, Payload};
use crate::pod::{bytes_of, vec_from_bytes, Pod};
use crate::zerocopy::{ZcCell, ZcWait};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

// Alltoallw's phase namespace under one collective sequence number. Phase 0
// carries the data; phases 1 and 2 exist only when NACK/retransmit recovery
// is armed (checksums on + a corrupt-capable fault plan installed).
const PHASE_DATA: u64 = 0;
/// Receiver → sender verdict channel: one byte per message.
const PHASE_VERDICT: u64 = 1;
/// Sender → receiver retransmitted payloads (always staged).
const PHASE_RETX: u64 = 2;

/// Verdict bytes on the `PHASE_VERDICT` channel. FIFO per (comm, src, tag)
/// means zero or more NACKs are followed by exactly one terminal ACK/FAIL.
const VERDICT_ACK: u8 = 0;
const VERDICT_NACK: u8 = 1;
const VERDICT_FAIL: u8 = 2;

/// Poll interval of the recovery-mode waits. Recovery waits poll (instead of
/// blocking on the mailbox condvar) so a rank can keep servicing its *own*
/// senders' NACK duties while it waits — two ranks each recovering from the
/// other would otherwise deadlock.
const RETX_POLL: Duration = Duration::from_micros(200);

/// Encode a list of byte buffers into one buffer (u64 count + u64 lengths +
/// concatenated payloads). Used to ship gathered results through broadcast.
fn encode_multi(parts: &[Vec<u8>]) -> Vec<u8> {
    let total: usize = parts.iter().map(|p| p.len()).sum();
    let mut out = Vec::with_capacity(8 + 8 * parts.len() + total);
    out.extend_from_slice(&(parts.len() as u64).to_le_bytes());
    for p in parts {
        out.extend_from_slice(&(p.len() as u64).to_le_bytes());
    }
    for p in parts {
        out.extend_from_slice(p);
    }
    out
}

fn decode_multi(buf: &[u8]) -> Result<Vec<Vec<u8>>> {
    let fail = || Error::SizeMismatch { expected: 8, got: buf.len() };
    if buf.len() < 8 {
        return Err(fail());
    }
    let n = u64::from_le_bytes(buf[0..8].try_into().unwrap()) as usize;
    let header = 8 + 8 * n;
    if buf.len() < header {
        return Err(fail());
    }
    let mut lens = Vec::with_capacity(n);
    for i in 0..n {
        let o = 8 + 8 * i;
        lens.push(u64::from_le_bytes(buf[o..o + 8].try_into().unwrap()) as usize);
    }
    let mut parts = Vec::with_capacity(n);
    let mut cursor = header;
    for len in lens {
        if cursor + len > buf.len() {
            return Err(fail());
        }
        parts.push(buf[cursor..cursor + len].to_vec());
        cursor += len;
    }
    Ok(parts)
}

impl Comm {
    // ------------------------------------------------------------------
    // Barrier
    // ------------------------------------------------------------------

    /// Block until every rank in the communicator has entered the barrier.
    /// Dissemination algorithm: `ceil(log2 n)` rounds.
    #[track_caller]
    pub fn barrier(&self) -> Result<()> {
        let n = self.size();
        if n == 1 {
            return Ok(());
        }
        let seq = self.next_coll_seq();
        self.record_collective(seq, CollFingerprint::here(CollectiveKind::Barrier, None, 0))?;
        let _coll = ddrtrace::span("minimpi", "barrier");
        let mut dist = 1usize;
        let mut phase = 0u64;
        while dist < n {
            let to = (self.rank() + dist) % n;
            let from = (self.rank() + n - dist) % n;
            self.deposit_to(to, coll_key_tag(seq, phase), Vec::new())?;
            self.take_from(from, coll_key_tag(seq, phase))?;
            dist <<= 1;
            phase += 1;
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Broadcast
    // ------------------------------------------------------------------

    /// Broadcast bytes from `root` to all ranks. On non-root ranks the
    /// returned vector is the received payload; on the root it is a copy of
    /// `data`. Binomial tree, `O(log n)` depth.
    #[track_caller]
    pub fn broadcast_bytes(&self, root: usize, data: &[u8]) -> Result<Vec<u8>> {
        let n = self.size();
        if root >= n {
            return Err(Error::RankOutOfRange { rank: root, size: n });
        }
        let seq = self.next_coll_seq();
        self.record_collective(
            seq,
            CollFingerprint::here(CollectiveKind::Broadcast, Some(root), 0),
        )?;
        let relative = (self.rank() + n - root) % n;

        let mut payload: Option<Vec<u8>> = if relative == 0 { Some(data.to_vec()) } else { None };

        // Receive phase: find the bit that identifies our parent.
        let mut mask = 1usize;
        while mask < n {
            if relative & mask != 0 {
                let src = (self.rank() + n - mask) % n;
                payload = Some(self.take_from(src, coll_key_tag(seq, 0))?);
                break;
            }
            mask <<= 1;
        }
        // Send phase: forward to children below our identifying bit.
        let payload = payload.ok_or_else(|| Error::Internal {
            detail: format!(
                "bcast: rank {} has no payload after the receive phase (root {root}, n {n})",
                self.rank()
            ),
        })?;
        let mut mask = mask >> 1;
        while mask > 0 {
            if relative + mask < n {
                let dst = (self.rank() + mask) % n;
                self.deposit_to(dst, coll_key_tag(seq, 0), payload.clone())?;
            }
            mask >>= 1;
        }
        Ok(payload)
    }

    /// Broadcast a typed slice from `root`; all ranks receive the root's data.
    #[track_caller]
    pub fn broadcast<T: Pod>(&self, root: usize, data: &[T]) -> Result<Vec<T>> {
        let bytes = self.broadcast_bytes(root, bytes_of(data))?;
        vec_from_bytes(&bytes)
            .ok_or(Error::SizeMismatch { expected: std::mem::size_of::<T>(), got: bytes.len() })
    }

    // ------------------------------------------------------------------
    // Gather / Allgather
    // ------------------------------------------------------------------

    /// Gather each rank's (variable-length) bytes at `root`. Returns
    /// `Some(parts)` on the root (indexed by rank) and `None` elsewhere.
    #[track_caller]
    pub fn gather_bytes(&self, root: usize, data: &[u8]) -> Result<Option<Vec<Vec<u8>>>> {
        let n = self.size();
        if root >= n {
            return Err(Error::RankOutOfRange { rank: root, size: n });
        }
        let seq = self.next_coll_seq();
        self.record_collective(seq, CollFingerprint::here(CollectiveKind::Gather, Some(root), 0))?;
        if self.rank() == root {
            let mut parts = vec![Vec::new(); n];
            parts[root] = data.to_vec();
            for (src, part) in parts.iter_mut().enumerate() {
                if src != root {
                    *part = self.take_from(src, coll_key_tag(seq, 0))?;
                }
            }
            Ok(Some(parts))
        } else {
            self.deposit_to(root, coll_key_tag(seq, 0), data.to_vec())?;
            Ok(None)
        }
    }

    /// Typed gather at `root`.
    #[track_caller]
    pub fn gather<T: Pod>(&self, root: usize, data: &[T]) -> Result<Option<Vec<Vec<T>>>> {
        match self.gather_bytes(root, bytes_of(data))? {
            None => Ok(None),
            Some(parts) => parts
                .iter()
                .map(|p| {
                    vec_from_bytes(p).ok_or(Error::SizeMismatch {
                        expected: std::mem::size_of::<T>(),
                        got: p.len(),
                    })
                })
                .collect::<Result<Vec<_>>>()
                .map(Some),
        }
    }

    /// Allgather of variable-length byte buffers: every rank receives every
    /// rank's contribution, indexed by rank. Gather-to-0 + broadcast.
    #[track_caller]
    pub fn allgather_bytes(&self, data: &[u8]) -> Result<Vec<Vec<u8>>> {
        let gathered = self.gather_bytes(0, data)?;
        let encoded = match gathered {
            Some(parts) => encode_multi(&parts),
            None => Vec::new(),
        };
        let all = self.broadcast_bytes(0, &encoded)?;
        decode_multi(&all)
    }

    /// Typed allgather: every rank receives every rank's slice.
    #[track_caller]
    pub fn allgather<T: Pod>(&self, data: &[T]) -> Result<Vec<Vec<T>>> {
        self.allgather_bytes(bytes_of(data))?
            .iter()
            .map(|p| {
                vec_from_bytes(p)
                    .ok_or(Error::SizeMismatch { expected: std::mem::size_of::<T>(), got: p.len() })
            })
            .collect()
    }

    // ------------------------------------------------------------------
    // Scatter
    // ------------------------------------------------------------------

    /// Scatter variable-length byte buffers from `root`: rank `i` receives
    /// `parts[i]`. Non-root ranks pass `None`.
    #[track_caller]
    pub fn scatterv_bytes(&self, root: usize, parts: Option<&[Vec<u8>]>) -> Result<Vec<u8>> {
        let n = self.size();
        if root >= n {
            return Err(Error::RankOutOfRange { rank: root, size: n });
        }
        let seq = self.next_coll_seq();
        self.record_collective(seq, CollFingerprint::here(CollectiveKind::Scatter, Some(root), 0))?;
        if self.rank() == root {
            let parts = parts.ok_or_else(|| Error::CollectiveMismatch {
                detail: "scatterv: root must supply parts".into(),
            })?;
            if parts.len() != n {
                return Err(Error::CollectiveMismatch {
                    detail: format!("scatterv: expected {n} parts, got {}", parts.len()),
                });
            }
            for (dest, part) in parts.iter().enumerate() {
                if dest != root {
                    self.deposit_to(dest, coll_key_tag(seq, 0), part.clone())?;
                }
            }
            Ok(parts[root].clone())
        } else {
            self.take_from(root, coll_key_tag(seq, 0))
        }
    }

    /// Typed equal-size scatter: the root's slice is split into
    /// `size` equal chunks, rank `i` receiving the `i`-th.
    #[track_caller]
    pub fn scatter<T: Pod>(&self, root: usize, data: Option<&[T]>) -> Result<Vec<T>> {
        let n = self.size();
        let parts: Option<Vec<Vec<u8>>> = match (self.rank() == root, data) {
            (true, Some(d)) => {
                if d.len() % n != 0 {
                    return Err(Error::CollectiveMismatch {
                        detail: format!(
                            "scatter: {} elements do not divide evenly over {n} ranks",
                            d.len()
                        ),
                    });
                }
                let chunk = d.len() / n;
                Some((0..n).map(|i| bytes_of(&d[i * chunk..(i + 1) * chunk]).to_vec()).collect())
            }
            (true, None) => {
                return Err(Error::CollectiveMismatch {
                    detail: "scatter: root must supply data".into(),
                })
            }
            _ => None,
        };
        let mine = self.scatterv_bytes(root, parts.as_deref())?;
        vec_from_bytes(&mine)
            .ok_or(Error::SizeMismatch { expected: std::mem::size_of::<T>(), got: mine.len() })
    }

    // ------------------------------------------------------------------
    // Reduce / Allreduce
    // ------------------------------------------------------------------

    /// Element-wise reduction at `root` with operator `op`, folding in rank
    /// order (deterministic for non-associative float ops). All ranks must
    /// contribute slices of the same length.
    #[track_caller]
    pub fn reduce<T: Pod>(
        &self,
        root: usize,
        data: &[T],
        op: impl Fn(T, T) -> T,
    ) -> Result<Option<Vec<T>>> {
        match self.gather(root, data)? {
            None => Ok(None),
            Some(parts) => {
                let len = parts[0].len();
                if parts.iter().any(|p| p.len() != len) {
                    return Err(Error::CollectiveMismatch {
                        detail: "reduce: contribution lengths differ across ranks".into(),
                    });
                }
                let mut acc = parts[0].clone();
                for part in &parts[1..] {
                    for (a, &b) in acc.iter_mut().zip(part.iter()) {
                        *a = op(*a, b);
                    }
                }
                Ok(Some(acc))
            }
        }
    }

    /// Element-wise reduction delivered to all ranks.
    ///
    /// # Panics
    /// Panics if the underlying communication fails (see [`Comm::try_allreduce`]
    /// for the fallible variant).
    #[track_caller]
    pub fn allreduce<T: Pod>(&self, data: &[T], op: impl Fn(T, T) -> T) -> Vec<T> {
        self.try_allreduce(data, op).expect("allreduce failed")
    }

    /// Fallible element-wise reduction delivered to all ranks.
    #[track_caller]
    pub fn try_allreduce<T: Pod>(&self, data: &[T], op: impl Fn(T, T) -> T) -> Result<Vec<T>> {
        let reduced = self.reduce(0, data, op)?;
        let bytes = match reduced {
            Some(v) => bytes_of(&v).to_vec(),
            None => Vec::new(),
        };
        let all = self.broadcast_bytes(0, &bytes)?;
        vec_from_bytes(&all)
            .ok_or(Error::SizeMismatch { expected: std::mem::size_of::<T>(), got: all.len() })
    }

    // ------------------------------------------------------------------
    // Alltoall family
    // ------------------------------------------------------------------

    /// Personalized all-to-all of variable-length byte buffers. `msgs[d]` is
    /// sent to rank `d`; the result's index `s` holds rank `s`'s message to
    /// this rank. The self-message is moved, not copied through a mailbox.
    #[track_caller]
    pub fn alltoall_bytes(&self, mut msgs: Vec<Vec<u8>>) -> Result<Vec<Vec<u8>>> {
        let n = self.size();
        if msgs.len() != n {
            return Err(Error::CollectiveMismatch {
                detail: format!("alltoall: expected {n} messages, got {}", msgs.len()),
            });
        }
        let seq = self.next_coll_seq();
        self.record_collective(seq, CollFingerprint::here(CollectiveKind::Alltoall, None, 0))?;
        let me = self.rank();
        let self_msg = std::mem::take(&mut msgs[me]);
        for (d, m) in msgs.into_iter().enumerate() {
            if d != me {
                self.deposit_to(d, coll_key_tag(seq, 0), m)?;
            }
        }
        let mut out = vec![Vec::new(); n];
        out[me] = self_msg;
        for (s, slot) in out.iter_mut().enumerate() {
            if s != me {
                *slot = self.take_from(s, coll_key_tag(seq, 0))?;
            }
        }
        Ok(out)
    }

    /// Typed personalized all-to-all with per-destination counts.
    #[track_caller]
    pub fn alltoallv<T: Pod>(&self, msgs: &[Vec<T>]) -> Result<Vec<Vec<T>>> {
        let bytes: Vec<Vec<u8>> = msgs.iter().map(|m| bytes_of(m).to_vec()).collect();
        self.alltoall_bytes(bytes)?
            .iter()
            .map(|p| {
                vec_from_bytes(p)
                    .ok_or(Error::SizeMismatch { expected: std::mem::size_of::<T>(), got: p.len() })
            })
            .collect()
    }

    /// `MPI_Alltoallw` over derived datatypes: for every destination `d`,
    /// `send_types[d]` selects the part of `send_buf` to ship; for every
    /// source `s`, `recv_types[s]` places the incoming bytes into `recv_buf`.
    ///
    /// Unlike MPI, zero-length transfers are elided entirely — the contract
    /// is that `send_types[d]` on rank `r` is non-empty **iff** `recv_types[r]`
    /// on rank `d` is non-empty (DDR's mapping guarantees this by
    /// construction). The self-transfer is a direct selection-to-selection
    /// copy.
    ///
    /// When the universe's zero-copy fast path is active (the default; see
    /// [`crate::UniverseBuilder::zerocopy`] and `DDR_NO_ZEROCOPY`), each
    /// message is delivered by the *receiver* copying contiguous runs
    /// straight out of the sender's `send_buf` — no pack/unpack staging
    /// buffers exist anywhere. With a fault plan installed, or with the fast
    /// path disabled, messages stage through the universe's shared buffer
    /// pool instead.
    #[track_caller]
    pub fn alltoallw(
        &self,
        send_buf: &[u8],
        send_types: &[Datatype],
        recv_buf: &mut [u8],
        recv_types: &[Datatype],
    ) -> Result<()> {
        self.alltoallw_impl(send_buf, send_types, recv_buf, recv_types, false).map(|_| ())
    }

    /// Shared engine of [`Comm::alltoallw`] and [`Comm::alltoallw_salvage`]:
    /// `salvage` decides whether a failed source aborts the exchange or is
    /// recorded in the report while the remaining sources are drained.
    ///
    /// The blocking collective is post-then-wait on the nonblocking engine,
    /// so both paths share one wire protocol, one error classification, and
    /// one loan-drain discipline: the two agree byte for byte by
    /// construction.
    #[track_caller]
    fn alltoallw_impl(
        &self,
        send_buf: &[u8],
        send_types: &[Datatype],
        recv_buf: &mut [u8],
        recv_types: &[Datatype],
        salvage: bool,
    ) -> Result<ExchangeReport> {
        self.ialltoallw_impl(send_buf, send_types, recv_types, salvage)?.wait(recv_buf)
    }

    /// Nonblocking [`Comm::alltoallw`]: runs the eager send phase (loaning
    /// or staging exactly as the blocking collective would) and returns an
    /// [`AlltoallwRequest`] without waiting for any source. Complete it with
    /// [`AlltoallwRequest::wait`] or poll it with [`AlltoallwRequest::test`],
    /// passing the receive buffer at completion time.
    ///
    /// Counts toward the communicator's collective order at *post* time:
    /// every rank must post matching exchanges in the same sequence, but may
    /// hold several open concurrently — each exchange lives in its own
    /// sequence-numbered tag namespace, so in-flight exchanges never
    /// interfere. A failed source aborts the whole exchange at wait time;
    /// see [`Comm::ialltoallw_salvage`] for per-source failure reporting.
    #[track_caller]
    pub fn ialltoallw<'a>(
        &'a self,
        send_buf: &'a [u8],
        send_types: &'a [Datatype],
        recv_types: &'a [Datatype],
    ) -> Result<AlltoallwRequest<'a>> {
        self.ialltoallw_impl(send_buf, send_types, recv_types, false)
    }

    /// Nonblocking [`Comm::alltoallw_salvage`]: like [`Comm::ialltoallw`],
    /// but a failed source is recorded in the completion report while the
    /// remaining sources still drain.
    #[track_caller]
    pub fn ialltoallw_salvage<'a>(
        &'a self,
        send_buf: &'a [u8],
        send_types: &'a [Datatype],
        recv_types: &'a [Datatype],
    ) -> Result<AlltoallwRequest<'a>> {
        self.ialltoallw_impl(send_buf, send_types, recv_types, true)
    }

    /// Post one alltoallw exchange: validate, claim a collective sequence
    /// number, and run the send phase eagerly. All receive-side work is
    /// deferred to the returned request.
    #[track_caller]
    fn ialltoallw_impl<'a>(
        &'a self,
        send_buf: &'a [u8],
        send_types: &'a [Datatype],
        recv_types: &'a [Datatype],
        salvage: bool,
    ) -> Result<AlltoallwRequest<'a>> {
        let n = self.size();
        if send_types.len() != n || recv_types.len() != n {
            return Err(Error::CollectiveMismatch {
                detail: format!(
                    "alltoallw: expected {n} send and recv types, got {} and {}",
                    send_types.len(),
                    recv_types.len()
                ),
            });
        }
        let seq = self.next_coll_seq();
        // Salvage is wire-compatible with the plain variant, so both record
        // the same kind: they may legitimately pair across ranks.
        self.record_collective(seq, CollFingerprint::here(CollectiveKind::Alltoallw, None, 0))?;
        self.sched_point("ialltoallw");
        let me = self.rank();
        let tag = coll_key_tag(seq, PHASE_DATA);
        let zerocopy = self.world.zerocopy_active();
        // Recovery is armed only when corruption is both detectable
        // (checksums on) and possible (a corrupt-capable plan installed):
        // clean runs keep the exact wire protocol, op counts, and blocking
        // receive paths they had before the integrity plane existed.
        let retx = self.recovery_armed();
        let span = ddrtrace::span_arg("minimpi", "alltoallw", "seq", seq as i64);

        let progress = recv_types
            .iter()
            .enumerate()
            .map(|(s, dt)| {
                if s == me || dt.packed_len() == 0 {
                    SrcProgress::Skip
                } else {
                    SrcProgress::Pending { attempt: 0 }
                }
            })
            .collect();
        // The request is built before the send phase so that a mid-post
        // error drops it — and Drop drains whatever loans went out before
        // the failure, exactly as the old in-line guard did.
        let mut req = AlltoallwRequest {
            comm: self,
            seq,
            send_buf,
            send_types,
            recv_types,
            salvage,
            retx,
            loans: Vec::new(),
            duties: None,
            progress,
            failed: Vec::new(),
            self_copy_done: false,
            settled: false,
            _span: span,
        };

        // Send phase (buffered; blocks only on the flow-control gate when a
        // pair's credit window or the memory budget is full; one exchange
        // puts at most one data envelope per pair in flight, which even a
        // 1-credit window admits once the receiver drains, so these eager
        // deposits cannot deadlock). A deposit fails if this
        // rank itself is dead — a hard error even under salvage — or with a
        // structured Timeout/MemoryPressure if a full gate makes no
        // progress for the whole watchdog window.
        for (d, dt) in send_types.iter().enumerate() {
            if d == me || dt.packed_len() == 0 {
                continue;
            }
            // At or below the threshold the rendezvous handshake costs as
            // much as (or more than) the copy it avoids, so small messages
            // stage even in zero-copy mode; only strictly larger messages
            // loan (threshold 0 loans everything).
            if zerocopy && dt.packed_len() > self.world.zc_threshold {
                // Validate sender-side bounds eagerly, where the legacy path
                // would have failed packing.
                dt.check_bounds(send_buf.len())?;
                let cell = self.deposit_shared(d, tag, send_buf, *dt)?;
                req.loans.push((d, cell));
            } else {
                let _pack = ddrtrace::span_arg("minimpi", "pack", "bytes", dt.packed_len() as i64);
                // Fused pack+checksum: one traversal of the source selection
                // produces both the packed payload and its envelope checksum.
                let (packed, pre) = self.pack_staged(dt, send_buf, tag)?;
                self.deposit_sig_pre(d, tag, packed, Some(TypeSig::of(dt)), pre)?;
            }
        }

        // Recovery-mode sender duties: track which destinations still owe a
        // terminal verdict and answer their NACKs with staged retransmits
        // from the still-borrowed `send_buf`.
        req.duties = retx.then(|| RetxSender::new(self, send_buf, send_types, seq));
        Ok(req)
    }

    /// Receive one alltoallw message from `s` with NACK/retransmit recovery:
    /// verify, NACK on corruption (after seeded exponential backoff),
    /// consume the staged retransmit, give up with
    /// [`Error::IntegrityFailure`] once `DDR_RETRANSMIT_MAX` retransmits all
    /// failed. Always leaves the sender terminally settled (ACK or FAIL) so
    /// no outcome of this rank can strand it — exhaustion is a structured
    /// error, never a hang. Waits poll via [`Comm::take_polling`] so this
    /// rank's own sender duties stay serviced throughout.
    /// `start_attempt` carries recovery progress made by a nonblocking
    /// [`AlltoallwRequest::test`] into the blocking wait: attempt 0 takes
    /// from the data phase, later attempts from the retransmit phase.
    fn recv_with_retransmit(
        &self,
        s: usize,
        seq: u64,
        dt: &Datatype,
        recv_buf: &mut [u8],
        duties: &mut RetxSender<'_>,
        start_attempt: u32,
    ) -> Result<()> {
        let data_tag = coll_key_tag(seq, PHASE_DATA);
        let verdict_tag = coll_key_tag(seq, PHASE_VERDICT);
        let retx_tag = coll_key_tag(seq, PHASE_RETX);
        let mut attempt: u32 = start_attempt;
        loop {
            let take_tag = if attempt == 0 { data_tag } else { retx_tag };
            let env = match self.take_polling(s, take_tag, duties) {
                Ok(env) => env,
                Err(e) => {
                    let _ = self.deposit_control(s, verdict_tag, vec![VERDICT_FAIL]);
                    return Err(e);
                }
            };
            match self.deliver_alltoallw(s, take_tag, env, dt, recv_buf) {
                Ok(()) => {
                    let _ = self.deposit_control(s, verdict_tag, vec![VERDICT_ACK]);
                    return Ok(());
                }
                Err(Error::IntegrityFailure { .. }) => {
                    attempt += 1;
                    if attempt > self.world.retransmit_max {
                        self.world.integrity.exhausted.fetch_add(1, Ordering::Relaxed);
                        ddrtrace::instant_arg("minimpi", "integrity_exhausted", "src", s as i64);
                        let _ = self.deposit_control(s, verdict_tag, vec![VERDICT_FAIL]);
                        return Err(Error::IntegrityFailure {
                            src: s,
                            dst: self.rank(),
                            tag: data_tag,
                            attempt: attempt - 1,
                        });
                    }
                    std::thread::sleep(self.retransmit_backoff_delay(s, attempt));
                    self.deposit_control(s, verdict_tag, vec![VERDICT_NACK])?;
                }
                Err(e) => {
                    let _ = self.deposit_control(s, verdict_tag, vec![VERDICT_FAIL]);
                    return Err(e);
                }
            }
        }
    }

    /// Recovery-mode receive: poll for a message from `src` under `key_tag`
    /// while servicing this rank's own sender duties every iteration.
    /// Blocking on the mailbox condvar instead would deadlock two ranks that
    /// each need a retransmit from the other.
    fn take_polling(
        &self,
        src: usize,
        key_tag: u64,
        duties: &mut RetxSender<'_>,
    ) -> Result<Envelope> {
        self.fault_tick()?;
        let src_world = self.members[src];
        let deadline = Instant::now() + self.timeout();
        loop {
            self.sched_point("retx_poll");
            match self.my_mailbox().try_take((self.comm_id, src, key_tag)) {
                // Match-time epoch fence, as in `take_envelope_from`.
                Some(env) if env.epoch != self.epoch => {
                    self.world.transport.fenced_msgs.fetch_add(1, Ordering::Relaxed);
                    ddrtrace::instant_arg("minimpi", "fenced_msg", "src", src as i64);
                }
                Some(env) => {
                    self.note_delivery(&env);
                    return Ok(env);
                }
                None => {
                    if !self.world.is_alive(src_world) {
                        return Err(Error::PeerDead { rank: src });
                    }
                    duties.service(self)?;
                    if Instant::now() >= deadline {
                        return Err(Error::Timeout {
                            rank: self.rank(),
                            src: Some(src),
                            tag: key_tag,
                            comm_id: self.comm_id,
                        });
                    }
                    std::thread::sleep(RETX_POLL);
                }
            }
        }
    }

    /// Backoff before NACK attempt `k` (1-based): `base × 2^(k-1)` plus a
    /// deterministic sub-`base` jitter seeded per stream, so receivers
    /// recovering from the same sender don't NACK in lockstep.
    fn retransmit_backoff_delay(&self, src: usize, attempt: u32) -> Duration {
        let base = self.world.retransmit_backoff;
        if base.is_zero() {
            return base;
        }
        let exp = base.saturating_mul(1u32 << (attempt - 1).min(10));
        let span = base.as_nanos().max(1) as u64;
        let jitter = mix64(self.stream_seed(src, attempt as u64, self.epoch)) % span;
        exp + Duration::from_nanos(jitter)
    }

    /// Drop every message still queued under this exchange's sequence number
    /// — data, verdicts, and retransmits alike. Called on abort paths (and
    /// after settlement): dropping a staged payload discards bytes nobody
    /// will read, and dropping a zero-copy envelope revokes its loan via
    /// [`crate::zerocopy::ZcHandle`]'s `Drop`, so the alive-but-departing
    /// receiver cannot strand a healthy sender on the watchdog.
    fn sweep_exchange(&self, seq: u64) {
        let mb = self.my_mailbox();
        let mut swept = 0i64;
        for phase in [PHASE_DATA, PHASE_VERDICT, PHASE_RETX] {
            let tag = coll_key_tag(seq, phase);
            for s in 0..self.size() {
                while let Some(env) = mb.try_take((self.comm_id, s, tag)) {
                    drop(env);
                    swept += 1;
                }
            }
        }
        if swept > 0 {
            ddrtrace::instant_arg("minimpi", "exchange_sweep", "msgs", swept);
        }
    }

    /// Place one received alltoallw message into `recv_buf` through `dt`,
    /// verifying its envelope checksum along the way. Staged payloads verify
    /// in packed form — *before* unpacking when recovery is armed (a corrupt
    /// payload must never touch `recv_buf` ahead of its retransmit), fused
    /// into the unpack traversal otherwise; zero-copy loans are claimed and
    /// copied straight out of the sender's buffer with the hash folded into
    /// the copy ([`Comm::claim_verifying`]), and the verdict is known
    /// *before* the loan cell flips to DONE — a corrupt claim never silently
    /// releases the sender.
    fn deliver_alltoallw(
        &self,
        src: usize,
        key_tag: u64,
        env: Envelope,
        dt: &Datatype,
        recv_buf: &mut [u8],
    ) -> Result<()> {
        // Signature check happens *before* the payload is consumed: failing a
        // staged message leaves `recv_buf` untouched, and dropping an
        // unclaimed zero-copy envelope revokes the loan, releasing its
        // sender.
        self.verify_type_sig(src, key_tag, env.type_sig.as_ref(), &TypeSig::of(dt))?;
        let Envelope { epoch, payload, checksum, taints, .. } = env;
        match payload {
            Payload::Bytes(packed) => {
                let _unpack = ddrtrace::span_arg("minimpi", "unpack", "bytes", packed.len() as i64);
                let res = if self.recovery_armed() {
                    // Verify in packed form *before* unpacking: a corrupt
                    // payload must never touch `recv_buf`, because the
                    // NACK/retransmit protocol will deliver a clean copy
                    // into it afterwards.
                    self.verify_payload(src, key_tag, epoch, checksum, &packed)
                        .and_then(|()| dt.unpack(&packed, recv_buf))
                } else {
                    // No retransmit can follow, so a mismatch is terminal
                    // either way — fold verification into the unpack
                    // traversal and skip the separate hash pass.
                    self.unpack_verifying(src, key_tag, epoch, checksum, dt, &packed, recv_buf)
                };
                // The buffer came from the sender's pool.acquire; the pool is
                // world-shared, so recycling here closes the loop.
                self.world.pool.release(packed);
                res
            }
            Payload::Shared(h) => {
                let _zc =
                    ddrtrace::span_arg("minimpi", "zc_copy", "bytes", h.dt.packed_len() as i64);
                self.sched_point("zc_claim");
                if !h.cell.try_claim() {
                    // The sender revoked the loan before we got here.
                    return Err(Error::PeerDead { rank: src });
                }
                // A claim-time race (the sender wrote the lent region while
                // our claim is causally unordered with that write) is
                // surfaced only after the copy completes: erroring before
                // `finish()` would strand the sender in its wait.
                let race = match &self.world.check {
                    Some(check) => {
                        check.loan_claimed(&h.cell, self.world_rank()).err().map(Error::DataRace)
                    }
                    None => None,
                };
                // SAFETY: the claim succeeded, so the sender is blocked in
                // ZcCell::wait and `send_buf` stays alive until finish().
                let src_buf = unsafe { h.src_slice() };
                // Claim-time fault taints land on *our* copy, so the
                // sender's buffer stays pristine for retransmits.
                let res = self.claim_verifying(
                    src, key_tag, epoch, checksum, &taints, src_buf, &h.dt, dt, recv_buf,
                );
                if let Some(check) = &self.world.check {
                    check.loan_done(&h.cell, self.world_rank());
                }
                h.cell.finish();
                match race {
                    Some(race) if res.is_ok() => Err(race),
                    _ => res,
                }
            }
        }
    }

    /// Sparse personalized exchange: send each `(dest, payload)` pair and
    /// receive exactly one message from each rank in `recv_srcs`. Runs in the
    /// private collective namespace, so it composes with user-tag traffic.
    ///
    /// This is the "direct send/receive instead of `MPI_Alltoallw`" pattern
    /// the DDR paper proposes as future work for mappings that only touch a
    /// few neighbors. Every rank of the communicator must call it in the same
    /// collective order (ranks with nothing to send or receive pass empty
    /// arguments). Returns `(src, payload)` pairs ordered by `recv_srcs`.
    #[track_caller]
    pub fn sparse_exchange(
        &self,
        sends: Vec<(usize, Vec<u8>)>,
        recv_srcs: &[usize],
    ) -> Result<Vec<(usize, Vec<u8>)>> {
        let seq = self.next_coll_seq();
        self.record_collective(
            seq,
            CollFingerprint::here(CollectiveKind::SparseExchange, None, 0),
        )?;
        let me = self.rank();
        // Self messages stay local; several per call are allowed (a plan may
        // move multiple rectangles from a rank to itself) and are consumed
        // in send order.
        let mut self_payloads = std::collections::VecDeque::new();
        for (dest, payload) in sends {
            self.check_rank_pub(dest)?;
            if dest == me {
                self_payloads.push_back(payload);
            } else {
                self.deposit_to(dest, coll_key_tag(seq, 0), payload)?;
            }
        }
        let mut out = Vec::with_capacity(recv_srcs.len());
        for &src in recv_srcs {
            self.check_rank_pub(src)?;
            if src == me {
                let payload =
                    self_payloads.pop_front().ok_or_else(|| Error::CollectiveMismatch {
                        detail: "sparse_exchange: self receive without matching self send".into(),
                    })?;
                out.push((src, payload));
            } else {
                out.push((src, self.take_from(src, coll_key_tag(seq, 0))?));
            }
        }
        Ok(out)
    }

    // ------------------------------------------------------------------
    // Scan
    // ------------------------------------------------------------------

    /// Inclusive prefix reduction: rank `r` receives `op` folded over the
    /// contributions of ranks `0..=r`, in rank order.
    #[track_caller]
    pub fn scan<T: Pod>(&self, data: &[T], op: impl Fn(T, T) -> T) -> Result<Vec<T>> {
        // Linear chain: rank r waits for the prefix of r-1, folds, forwards.
        let seq = self.next_coll_seq();
        // The contribution's byte length doubles as the datatype signature:
        // scan requires equal-length contributions, so a mismatch is a
        // divergence detectable before the chain stalls.
        self.record_collective(
            seq,
            CollFingerprint::here(CollectiveKind::Scan, None, bytes_of(data).len() as u64),
        )?;
        let me = self.rank();
        let mut acc: Vec<T> = data.to_vec();
        if me > 0 {
            let prev_bytes = self.take_from(me - 1, coll_key_tag(seq, 0))?;
            let prev: Vec<T> = vec_from_bytes(&prev_bytes).ok_or(Error::SizeMismatch {
                expected: std::mem::size_of::<T>(),
                got: prev_bytes.len(),
            })?;
            if prev.len() != acc.len() {
                return Err(Error::CollectiveMismatch {
                    detail: "scan: contribution lengths differ across ranks".into(),
                });
            }
            for (a, &p) in acc.iter_mut().zip(prev.iter()) {
                *a = op(p, *a);
            }
        }
        if me + 1 < self.size() {
            self.deposit_to(me + 1, coll_key_tag(seq, 0), bytes_of(&acc).to_vec())?;
        }
        Ok(acc)
    }

    // ------------------------------------------------------------------
    // Salvage variants (degraded-mode collectives)
    // ------------------------------------------------------------------

    /// Like [`Comm::alltoallw`], but a failed receive from one source does
    /// not abort the exchange: the remaining sources are still drained so
    /// the maximum amount of data survives, and the per-source failures are
    /// reported in an [`ExchangeReport`].
    ///
    /// Errors that indicate *this* rank cannot continue (it was fault-killed
    /// mid-exchange, or its own arguments are malformed) are still returned
    /// as `Err`.
    #[track_caller]
    pub fn alltoallw_salvage(
        &self,
        send_buf: &[u8],
        send_types: &[Datatype],
        recv_buf: &mut [u8],
        recv_types: &[Datatype],
    ) -> Result<ExchangeReport> {
        self.alltoallw_impl(send_buf, send_types, recv_buf, recv_types, true)
    }

    /// Like [`Comm::sparse_exchange`], but failures on individual sources
    /// are reported per source instead of aborting the whole exchange.
    /// Returns one entry per element of `recv_srcs`, in order.
    #[track_caller]
    pub fn sparse_exchange_salvage(
        &self,
        sends: Vec<(usize, Vec<u8>)>,
        recv_srcs: &[usize],
    ) -> Result<Vec<(usize, Result<Vec<u8>>)>> {
        let seq = self.next_coll_seq();
        self.record_collective(
            seq,
            CollFingerprint::here(CollectiveKind::SparseExchange, None, 0),
        )?;
        let me = self.rank();
        let mut self_payloads = std::collections::VecDeque::new();
        for (dest, payload) in sends {
            self.check_rank_pub(dest)?;
            if dest == me {
                self_payloads.push_back(payload);
            } else {
                self.deposit_to(dest, coll_key_tag(seq, 0), payload)?;
            }
        }
        let mut out = Vec::with_capacity(recv_srcs.len());
        for &src in recv_srcs {
            self.check_rank_pub(src)?;
            if src == me {
                let res = self_payloads.pop_front().ok_or_else(|| Error::CollectiveMismatch {
                    detail: "sparse_exchange: self receive without matching self send".into(),
                });
                out.push((src, res));
            } else {
                match self.take_from(src, coll_key_tag(seq, 0)) {
                    Ok(p) => out.push((src, Ok(p))),
                    Err(Error::PeerDead { rank }) if rank == me && !self.is_alive(me) => {
                        return Err(Error::PeerDead { rank })
                    }
                    Err(e) => out.push((src, Err(e))),
                }
            }
        }
        Ok(out)
    }
}

/// Receive progress of one source within an in-flight exchange.
#[derive(Clone, Copy)]
enum SrcProgress {
    /// Nothing is owed by this source (self rank or empty selection).
    Skip,
    /// Still owed a message; `attempt` counts NACKed retransmit rounds so a
    /// recovery started under [`AlltoallwRequest::test`] resumes correctly
    /// inside a later [`AlltoallwRequest::wait`].
    Pending { attempt: u32 },
    /// Terminally resolved: delivered, or recorded as failed under salvage.
    Done,
}

/// An in-flight nonblocking alltoallw exchange (see [`Comm::ialltoallw`]).
///
/// Soundness anchor of the zero-copy fast path: `send_buf` is lent to peers
/// as raw pointers, so the borrow the request holds must stay alive while
/// any peer might still read it — and *every* exit path must drain the
/// loans. [`AlltoallwRequest::wait`] and [`AlltoallwRequest::test`] do so on
/// completion; the `Drop` impl covers early exits (errors, panics, a request
/// abandoned without waiting) by revoking unclaimed loans immediately and
/// waiting out claims already in flight (a bounded memcpy).
///
/// The receive buffer is supplied at completion time (`wait`/`test`), not at
/// post time, so several requests receiving into disjoint selections of the
/// same buffer need no aliasing tricks. Epoch fencing, checksum verification, NACK/retransmit recovery,
/// and vector-clock checking all behave exactly as in the blocking
/// collective: the blocking path *is* post-then-wait on this type.
#[must_use = "an exchange completes only through wait()/test(); dropping the request revokes its zero-copy loans"]
pub struct AlltoallwRequest<'a> {
    comm: &'a Comm,
    seq: u64,
    send_buf: &'a [u8],
    send_types: &'a [Datatype],
    recv_types: &'a [Datatype],
    salvage: bool,
    retx: bool,
    loans: Vec<(usize, Arc<ZcCell>)>,
    duties: Option<RetxSender<'a>>,
    progress: Vec<SrcProgress>,
    failed: Vec<(usize, Error)>,
    self_copy_done: bool,
    /// Verdict/sweep cleanup already ran (completion or abort); Drop only
    /// drains loans.
    settled: bool,
    /// Keeps the `minimpi/alltoallw` trace span open from post to
    /// completion, so phase tables attribute the full exchange lifetime.
    _span: ddrtrace::SpanGuard,
}

impl<'a> AlltoallwRequest<'a> {
    /// The collective sequence number this exchange runs under.
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Block until every source resolved, then finish the exchange: drain
    /// the zero-copy loans, settle retransmit duties, and report per-source
    /// failures (salvage mode) or abort on the first (plain mode). Consumes
    /// the request; `recv_buf` must be the same buffer every completion call
    /// on this request receives into.
    #[track_caller]
    pub fn wait(mut self, recv_buf: &mut [u8]) -> Result<ExchangeReport> {
        let comm = self.comm;
        comm.sched_point("iwait");
        let me = comm.rank();
        let tag = coll_key_tag(self.seq, PHASE_DATA);
        let mut abort = self.self_copy(recv_buf).err();
        if abort.is_none() {
            // Receive phase: under salvage, drain every source and record
            // failures; otherwise abort on the first one.
            for s in 0..self.progress.len() {
                let SrcProgress::Pending { attempt } = self.progress[s] else { continue };
                let dt = self.recv_types[s];
                let res = match self.duties.as_mut() {
                    Some(d) => comm.recv_with_retransmit(s, self.seq, &dt, recv_buf, d, attempt),
                    None => comm
                        .take_envelope_from(s, tag)
                        .and_then(|env| comm.deliver_alltoallw(s, tag, env, &dt, recv_buf)),
                };
                // Whatever the outcome, the source is terminally resolved:
                // `recv_with_retransmit` always settles it with ACK or FAIL.
                self.progress[s] = SrcProgress::Done;
                match res {
                    Ok(()) => {}
                    // Malformed local arguments are hard errors in both modes.
                    Err(e @ (Error::DatatypeMismatch { .. } | Error::SizeMismatch { .. })) => {
                        abort = Some(e);
                        break;
                    }
                    // Killed mid-drain: everything still missing is lost.
                    Err(Error::PeerDead { rank }) if rank == me && !comm.is_alive(me) => {
                        abort = Some(Error::PeerDead { rank });
                        break;
                    }
                    Err(e) if self.salvage => self.failed.push((s, e)),
                    Err(e) => {
                        abort = Some(e);
                        break;
                    }
                }
            }
        }
        if let Some(e) = abort {
            // Our own outstanding loans are revoked by Drop on this return.
            self.abort_cleanup();
            return Err(e);
        }
        self.finish_clean()
    }

    /// Nonblocking progress poll: delivers whatever has already arrived into
    /// `recv_buf`, settles loans whose receivers finished copying, services
    /// retransmit duties, and returns `Ok(true)` once the exchange is fully
    /// complete (after which the request may be dropped freely). Never
    /// sleeps on a mailbox; an incomplete exchange returns `Ok(false)`.
    ///
    /// Errors carry the same classification as [`AlltoallwRequest::wait`]:
    /// salvage mode records per-source failures for the final report instead
    /// of erroring, and a returned `Err` means the exchange aborted (its
    /// cleanup has already run).
    #[track_caller]
    pub fn test(&mut self, recv_buf: &mut [u8]) -> Result<bool> {
        if self.settled {
            return Ok(true);
        }
        let comm = self.comm;
        comm.sched_point("itest");
        if let Err(e) = comm.fault_tick().and_then(|()| self.self_copy(recv_buf)) {
            self.abort_cleanup();
            return Err(e);
        }
        let me = comm.rank();
        let data_tag = coll_key_tag(self.seq, PHASE_DATA);
        let retx_tag = coll_key_tag(self.seq, PHASE_RETX);
        let verdict_tag = coll_key_tag(self.seq, PHASE_VERDICT);
        let mut abort = None;
        for s in 0..self.progress.len() {
            let SrcProgress::Pending { attempt } = self.progress[s] else { continue };
            let dt = self.recv_types[s];
            let take_tag = if attempt == 0 { data_tag } else { retx_tag };
            // Nonblocking probe with the match-time epoch fence of the
            // blocking receives.
            let env = loop {
                match comm.my_mailbox().try_take((comm.comm_id, s, take_tag)) {
                    Some(env) if env.epoch != comm.epoch => {
                        comm.world.transport.fenced_msgs.fetch_add(1, Ordering::Relaxed);
                        ddrtrace::instant_arg("minimpi", "fenced_msg", "src", s as i64);
                    }
                    other => break other,
                }
            };
            let res = match env {
                None if comm.is_alive(s) => continue, // still in flight
                None => Err(Error::PeerDead { rank: s }),
                Some(env) => {
                    comm.note_delivery(&env);
                    comm.deliver_alltoallw(s, take_tag, env, &dt, recv_buf)
                }
            };
            match res {
                Ok(()) => {
                    if self.retx {
                        let _ = comm.deposit_control(s, verdict_tag, vec![VERDICT_ACK]);
                    }
                    self.progress[s] = SrcProgress::Done;
                }
                Err(Error::IntegrityFailure { .. }) if self.retx => {
                    let next = attempt + 1;
                    if next > comm.world.retransmit_max {
                        comm.world.integrity.exhausted.fetch_add(1, Ordering::Relaxed);
                        ddrtrace::instant_arg("minimpi", "integrity_exhausted", "src", s as i64);
                        let _ = comm.deposit_control(s, verdict_tag, vec![VERDICT_FAIL]);
                        let e = Error::IntegrityFailure {
                            src: s,
                            dst: me,
                            tag: data_tag,
                            attempt: next - 1,
                        };
                        self.progress[s] = SrcProgress::Done;
                        if self.salvage {
                            self.failed.push((s, e));
                        } else {
                            abort = Some(e);
                            break;
                        }
                    } else {
                        // A nonblocking poll never sleeps a backoff — NACK
                        // right away; the sender's retransmit lands for a
                        // later test()/wait() to consume.
                        self.progress[s] = SrcProgress::Pending { attempt: next };
                        if let Err(e) = comm.deposit_control(s, verdict_tag, vec![VERDICT_NACK]) {
                            abort = Some(e);
                            break;
                        }
                    }
                }
                Err(e) => {
                    if self.retx {
                        let _ = comm.deposit_control(s, verdict_tag, vec![VERDICT_FAIL]);
                    }
                    self.progress[s] = SrcProgress::Done;
                    match e {
                        Error::DatatypeMismatch { .. } | Error::SizeMismatch { .. } => {
                            abort = Some(e);
                            break;
                        }
                        Error::PeerDead { rank } if rank == me && !comm.is_alive(me) => {
                            abort = Some(Error::PeerDead { rank });
                            break;
                        }
                        e if self.salvage => self.failed.push((s, e)),
                        e => {
                            abort = Some(e);
                            break;
                        }
                    }
                }
            }
        }
        if abort.is_none() {
            if let Some(d) = self.duties.as_mut() {
                if let Err(e) = d.service(comm) {
                    abort = Some(e);
                }
            }
        }
        if let Some(e) = abort {
            self.abort_cleanup();
            return Err(e);
        }
        // Settle loans whose cells already reached a terminal state. A
        // PENDING cell must *not* be probed through ZcCell::wait with an
        // expired deadline — that would revoke a loan the receiver simply
        // has not reached yet — so only terminal cells (or loans to dead
        // receivers, revoked eagerly here) are classified.
        let mut revoked = 0u64;
        self.loans.retain(|(dest, cell)| {
            if !cell.is_terminal() && (comm.is_alive(*dest) || !cell.revoke_if_pending()) {
                return true; // pending or mid-copy: check again next poll
            }
            comm.sched_point("zc_wait");
            match cell.wait(Instant::now(), || false) {
                ZcWait::Revoked => {
                    ddrtrace::instant_arg("minimpi", "zc_revoke", "dest", *dest as i64);
                    revoked += 1;
                }
                ZcWait::Done => comm.note_loan_settled(cell),
            }
            false
        });
        if revoked > 0 {
            comm.world.transport.revoked_msgs.fetch_add(revoked, Ordering::Relaxed);
        }
        let sources_done = !self.progress.iter().any(|p| matches!(p, SrcProgress::Pending { .. }));
        let duties_settled = self.duties.as_ref().is_none_or(|d| !d.pending.iter().any(|&p| p));
        if !(sources_done && self.loans.is_empty() && duties_settled) {
            return Ok(false);
        }
        if let Some(mut d) = self.duties.take() {
            // Nothing pending: settle() returns without polling.
            let settled = d.settle(comm);
            comm.sweep_exchange(self.seq);
            self.settled = true;
            settled?;
        }
        self.settled = true;
        Ok(true)
    }

    /// The completion report accumulated so far. Meaningful after
    /// [`AlltoallwRequest::test`] returned `Ok(true)`; `wait` returns the
    /// report directly.
    pub fn report(&mut self) -> ExchangeReport {
        ExchangeReport { failed: std::mem::take(&mut self.failed) }
    }

    /// Wait on several exchanges in post order, delivering into the same
    /// receive buffer — the callers' selections must be pairwise disjoint
    /// (the redistribution plan guarantees this across rounds). On error the
    /// remaining requests are dropped, which drains their loans and settles
    /// their peers exactly like an individual abort.
    #[track_caller]
    pub fn wait_all(
        requests: Vec<AlltoallwRequest<'a>>,
        recv_buf: &mut [u8],
    ) -> Result<Vec<ExchangeReport>> {
        let mut reports = Vec::with_capacity(requests.len());
        for req in requests {
            reports.push(req.wait(recv_buf)?);
        }
        Ok(reports)
    }

    /// Self-transfer: direct selection-to-selection copy (no staging in
    /// either mode — faults never apply to self-messages). Runs once, on the
    /// first completion call that supplies the receive buffer.
    fn self_copy(&mut self, recv_buf: &mut [u8]) -> Result<()> {
        if self.self_copy_done {
            return Ok(());
        }
        self.self_copy_done = true;
        let me = self.comm.rank();
        if self.send_types[me].packed_len() > 0 || self.recv_types[me].packed_len() > 0 {
            let _copy = ddrtrace::span_arg(
                "minimpi",
                "self_copy",
                "bytes",
                self.send_types[me].packed_len() as i64,
            );
            copy_selection(self.send_buf, &self.send_types[me], recv_buf, &self.recv_types[me])?;
        }
        Ok(())
    }

    /// Clean completion: drain the loans against the watchdog deadline,
    /// settle retransmit duties, sweep, and emit the report.
    fn finish_clean(&mut self) -> Result<ExchangeReport> {
        let comm = self.comm;
        // Completion: wait until every lent region was consumed (or revoke
        // loans to receivers that can no longer claim them). Safe to do
        // before settlement even though the drain doesn't service NACKs: a
        // receiver blocked on a retransmit has, by the ascending source
        // order, already claimed every loan from the sender it waits on, so
        // any chain of "draining sender → receiver waiting on a
        // lower-ranked sender" strictly descends and bottoms out at a rank
        // that is still servicing.
        {
            let _complete = ddrtrace::span("minimpi", "zc_complete");
            let revoked = self.drain_loans(Instant::now() + comm.timeout());
            if revoked > 0 {
                comm.world.transport.revoked_msgs.fetch_add(revoked, Ordering::Relaxed);
            }
        }
        // Settlement: keep servicing NACKs until every destination delivered
        // its terminal verdict (or died) — only then is `send_buf` allowed
        // to go out of scope without breaking an in-progress recovery.
        if let Some(mut d) = self.duties.take() {
            let _settle = ddrtrace::span("minimpi", "retx_settle");
            let settled = d.settle(comm);
            comm.sweep_exchange(self.seq);
            self.settled = true;
            settled?;
        }
        self.settled = true;
        Ok(ExchangeReport { failed: std::mem::take(&mut self.failed) })
    }

    /// Abort-path settlement (shared by wait, test, and Drop): FAIL every
    /// source still owed a verdict so our departure can't strand a healthy
    /// sender, give our own receivers their retransmit settlement, and sweep
    /// the exchange's queued remainder — dropping a queued zero-copy
    /// envelope revokes its loan, releasing the sender immediately.
    fn abort_cleanup(&mut self) {
        let comm = self.comm;
        if self.retx {
            for (s, p) in self.progress.iter().enumerate() {
                if matches!(p, SrcProgress::Pending { .. }) {
                    let _ = comm.deposit_control(
                        s,
                        coll_key_tag(self.seq, PHASE_VERDICT),
                        vec![VERDICT_FAIL],
                    );
                }
            }
            // Our *data* went out in the send phase regardless of this
            // abort — stay available (best-effort) until every receiver
            // recovering from us reaches a terminal verdict.
            if let Some(mut d) = self.duties.take() {
                let _ = d.settle(comm);
            }
        }
        comm.sweep_exchange(self.seq);
        self.settled = true;
    }

    /// Wait until every loan was copied or revoked, giving receivers until
    /// `deadline`. Returns the number revoked.
    fn drain_loans(&mut self, deadline: Instant) -> u64 {
        let comm = self.comm;
        let mut revoked = 0;
        for (dest, cell) in self.loans.drain(..) {
            comm.sched_point("zc_wait");
            // A dead receiver can never claim the loan — revoke right away
            // rather than burning the watchdog.
            match cell.wait(deadline, || !comm.is_alive(dest)) {
                ZcWait::Revoked => {
                    ddrtrace::instant_arg("minimpi", "zc_revoke", "dest", dest as i64);
                    revoked += 1;
                }
                // The receiver copied the loan out: tell the checker, so the
                // sender's later writes to the lent region are ordered after
                // the receiver's copy.
                ZcWait::Done => comm.note_loan_settled(&cell),
            }
        }
        revoked
    }
}

impl Drop for AlltoallwRequest<'_> {
    fn drop(&mut self) {
        if !self.settled {
            // Dropped without completing (the latent-leak exit path): settle
            // peers best-effort without blocking — queued NACKs are answered
            // once, unreached sources are FAILed — then sweep. Receivers
            // whose verdicts arrive after this point resolve through their
            // own bounded waits.
            let comm = self.comm;
            if self.retx {
                for (s, p) in self.progress.iter().enumerate() {
                    if matches!(p, SrcProgress::Pending { .. }) {
                        let _ = comm.deposit_control(
                            s,
                            coll_key_tag(self.seq, PHASE_VERDICT),
                            vec![VERDICT_FAIL],
                        );
                    }
                }
                if let Some(mut d) = self.duties.take() {
                    let _ = d.service(comm);
                }
            }
            comm.sweep_exchange(self.seq);
        }
        // Every exit path drains the zero-copy loans: revoke anything still
        // unclaimed *now*; claims already in flight are waited out so the
        // borrow of `send_buf` stays sound.
        self.drain_loans(Instant::now());
    }
}

/// Sender half of the alltoallw NACK/retransmit protocol.
///
/// Holds borrows of `send_buf`/`send_types` (keeping the pristine data alive
/// and provably unmoved), and tracks which destinations still owe a terminal
/// verdict. [`RetxSender::service`] is called from every recovery-mode wait
/// loop on this rank — answering NACKs with freshly staged retransmits even
/// while the rank is itself blocked on some other sender — and
/// [`RetxSender::settle`] holds the rank in the exchange until every
/// destination ACKed, FAILed, or died, so `send_buf` cannot go out of scope
/// mid-recovery.
struct RetxSender<'a> {
    send_buf: &'a [u8],
    send_types: &'a [Datatype],
    verdict_tag: u64,
    retx_tag: u64,
    /// `pending[d]` — destination `d` has our data but no terminal verdict
    /// from it yet. Self and empty transfers start settled.
    pending: Vec<bool>,
}

impl<'a> RetxSender<'a> {
    fn new(comm: &Comm, send_buf: &'a [u8], send_types: &'a [Datatype], seq: u64) -> Self {
        let me = comm.rank();
        let pending =
            send_types.iter().enumerate().map(|(d, dt)| d != me && dt.packed_len() > 0).collect();
        RetxSender {
            send_buf,
            send_types,
            verdict_tag: coll_key_tag(seq, PHASE_VERDICT),
            retx_tag: coll_key_tag(seq, PHASE_RETX),
            pending,
        }
    }

    /// Drain queued verdicts: a NACK re-packs that destination's selection
    /// from the pristine `send_buf` and stages it on the retransmit phase
    /// (through the normal fault-injecting deposit — retransmits can be
    /// corrupted again); ACK/FAIL settles the destination. Dead destinations
    /// settle implicitly: no verdict can ever arrive from them.
    fn service(&mut self, comm: &Comm) -> Result<()> {
        for d in 0..self.pending.len() {
            if !self.pending[d] {
                continue;
            }
            while let Some(env) = comm.my_mailbox().try_take((comm.comm_id, d, self.verdict_tag)) {
                if env.epoch != comm.epoch {
                    comm.world.transport.fenced_msgs.fetch_add(1, Ordering::Relaxed);
                    continue;
                }
                comm.note_delivery(&env);
                let verdict = match &env.payload {
                    Payload::Bytes(b) if b.len() == 1 => b[0],
                    _ => {
                        return Err(Error::Internal {
                            detail: format!("malformed retransmit verdict from rank {d}"),
                        })
                    }
                };
                match verdict {
                    VERDICT_NACK => {
                        let dt = &self.send_types[d];
                        let _pack = ddrtrace::span_arg(
                            "minimpi",
                            "retx_pack",
                            "bytes",
                            dt.packed_len() as i64,
                        );
                        let (packed, pre) = comm.pack_staged(dt, self.send_buf, self.retx_tag)?;
                        comm.deposit_sig_pre(d, self.retx_tag, packed, Some(TypeSig::of(dt)), pre)?;
                        comm.world.integrity.retransmits.fetch_add(1, Ordering::Relaxed);
                        ddrtrace::instant_arg("minimpi", "integrity_retransmit", "dest", d as i64);
                    }
                    VERDICT_ACK | VERDICT_FAIL => {
                        self.pending[d] = false;
                        break;
                    }
                    other => {
                        return Err(Error::Internal {
                            detail: format!("unknown retransmit verdict {other} from rank {d}"),
                        })
                    }
                }
            }
            if self.pending[d] && !comm.is_alive(d) {
                self.pending[d] = false;
            }
        }
        Ok(())
    }

    /// Keep servicing until every destination reached a terminal verdict or
    /// died. Bounded by the communicator watchdog: a destination that is
    /// alive but never settles (it would itself be stuck in a bounded wait)
    /// surfaces as a structured timeout, never a hang.
    fn settle(&mut self, comm: &Comm) -> Result<()> {
        let deadline = Instant::now() + comm.timeout();
        loop {
            self.service(comm)?;
            if !self.pending.iter().any(|&p| p) {
                return Ok(());
            }
            if Instant::now() >= deadline {
                let unsettled = self.pending.iter().position(|&p| p);
                return Err(Error::Timeout {
                    rank: comm.rank(),
                    src: unsettled,
                    tag: self.verdict_tag,
                    comm_id: comm.comm_id,
                });
            }
            std::thread::sleep(RETX_POLL);
        }
    }
}

/// Per-source outcome of a salvaged exchange: which sources failed to
/// deliver, and why.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ExchangeReport {
    /// `(source rank, error)` for every source whose contribution was lost.
    pub failed: Vec<(usize, Error)>,
}

impl ExchangeReport {
    /// True when every source delivered.
    pub fn is_complete(&self) -> bool {
        self.failed.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::mix64;
    use crate::Universe;
    use std::time::Duration;

    /// Tentpole regression: the planted "sender mutates a lent buffer while
    /// the receiver's claim may still be copying" bug must be convicted as a
    /// [`Error::DataRace`] *deterministically* — the write is causally
    /// unordered with the claim no matter how the threads interleave —
    /// and the same write must be clean once the loan is settled.
    #[test]
    fn sender_write_during_live_loan_is_a_race() {
        let len = 4096usize;
        let out = Universe::builder()
            .check(true)
            .zerocopy(true)
            .zerocopy_threshold(0)
            .timeout(Duration::from_secs(20))
            .run(2, move |comm| {
                let tag = coll_key_tag(0, 0);
                if comm.rank() == 0 {
                    let buf: &'static [u8] = Box::leak(vec![7u8; len].into_boxed_slice());
                    let dt = Datatype::Contiguous { len_bytes: len, offset: 0 };
                    let cell = comm.deposit_shared(1, tag, buf, dt).unwrap();
                    // Planted bug: write the lent region before the loan
                    // settles. Nothing orders this write against the
                    // receiver's copy, so it must convict on every schedule.
                    let race = comm.check_write(buf).unwrap_err();
                    assert!(matches!(race, Error::DataRace(_)), "expected a data race, got {race}");
                    assert!(race.to_string().contains("zero-copy loan"), "got {race}");
                    // Fixed version: wait for the copy, settle, then write —
                    // now the write is ordered after the claim and is clean.
                    let w = cell.wait(Instant::now() + Duration::from_secs(10), || false);
                    assert_eq!(w, ZcWait::Done);
                    comm.note_loan_settled(&cell);
                    comm.check_write(buf).unwrap();
                    assert!(comm.check_counters().unwrap().races >= 1);
                    Ok(vec![])
                } else {
                    // The claim itself may also convict (it races the
                    // sender's write when the write lands first) — either a
                    // clean payload or a DataRace is acceptable here, and
                    // both leave the sender released.
                    match comm.take_from(0, tag) {
                        Ok(bytes) => {
                            assert_eq!(bytes, vec![7u8; len]);
                            Ok(bytes)
                        }
                        Err(Error::DataRace(_)) => Ok(vec![]),
                        Err(e) => Err(e),
                    }
                }
            });
        assert!(out[0].is_ok(), "rank 0: {out:?}");
        assert!(out[1].is_ok(), "rank 1: {out:?}");
    }

    /// A loan nobody ever claims or revokes is an ownership leak: the
    /// finalize-time scan must fail the run loudly instead of silently
    /// leaking the lent buffer's exclusivity.
    #[test]
    #[should_panic(expected = "loan leak")]
    fn unclaimed_loan_fails_finalize_under_check() {
        Universe::builder()
            .check(true)
            .zerocopy(true)
            .zerocopy_threshold(0)
            .timeout(Duration::from_secs(5))
            .run(2, |comm| {
                if comm.rank() == 0 {
                    let buf: &'static [u8] = Box::leak(vec![1u8; 256].into_boxed_slice());
                    let dt = Datatype::Contiguous { len_bytes: 256, offset: 0 };
                    let _cell = comm.deposit_shared(1, coll_key_tag(0, 0), buf, dt).unwrap();
                    // Depart without waiting: the loan is never claimed,
                    // revoked, or settled — rank 1 never receives it.
                }
            });
    }

    /// Satellite regression for elastic recovery: a receiver that aborts an
    /// exchange early (because some *other* source died) must not strand a
    /// healthy sender's zero-copy loan until the watchdog fires. Seeded over
    /// several message sizes.
    ///
    /// Geometry per run (3 ranks, zero-copy with threshold 0):
    /// * rank 0 hand-deposits a loan to rank 1 under the exchange's tag,
    ///   then departs — so rank 1's receive phase succeeds while rank 2's
    ///   aborts with `PeerDead { rank: 0 }`.
    /// * rank 1 lends `len` bytes to rank 2 and completes cleanly; without
    ///   the abort-path sweep it would sit in `ZcSendGuard::complete` for
    ///   the full watchdog, because rank 2 is alive but has left the
    ///   exchange with the loan still queued.
    /// * rank 2 waits until rank 1's loan is queued (making the stranding
    ///   deterministic), then aborts on the dead source.
    #[test]
    fn departing_receiver_revokes_unclaimed_loans() {
        for seed in 0..6u64 {
            let len = 32 + (mix64(seed ^ 0xA11_0C8) % 4096) as usize;
            let watchdog = Duration::from_secs(30);
            let start = Instant::now();
            let out = Universe::builder()
                .zerocopy(true)
                .zerocopy_threshold(0)
                .timeout(watchdog)
                .run(3, move |comm| {
                    let me = comm.rank();
                    let tag = coll_key_tag(0, 0);
                    if me == 0 {
                        // Loan to rank 1 only, then die with it outstanding.
                        let buf: &'static [u8] = Box::leak(vec![0xAB; len].into_boxed_slice());
                        let cell = comm
                            .deposit_shared(
                                1,
                                tag,
                                buf,
                                Datatype::Contiguous { len_bytes: len, offset: 0 },
                            )
                            .unwrap();
                        drop(cell); // nobody waits: the buffer is leaked
                        return Ok(());
                    }
                    let empty = Datatype::Empty;
                    let contig = |offset| Datatype::Contiguous { len_bytes: len, offset };
                    if me == 1 {
                        let send = vec![1u8; len];
                        let mut recv = vec![0u8; len];
                        let st = [empty, empty, contig(0)]; // loan under test → rank 2
                        let rt = [contig(0), empty, empty]; // rank 0's hand deposit
                        let res = comm.alltoallw(&send, &st, &mut recv, &rt);
                        assert_eq!(recv, vec![0xAB; len]);
                        // The loan to rank 2 must have come back *revoked* —
                        // this rank counted it on its own completion path.
                        assert!(comm.transport_counters().revoked_msgs >= 1);
                        return res;
                    }
                    // Rank 2: make sure rank 1's loan is already queued, so
                    // the abort below is what must release it.
                    let key = (0u64, 1usize, tag);
                    while !comm.my_mailbox().contains(key) {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    let mut recv = vec![0u8; 2 * len];
                    let st = [empty, empty, empty];
                    let rt = [contig(0), contig(len), empty];
                    comm.alltoallw(&[], &st, &mut recv, &rt)
                });
            let elapsed = start.elapsed();
            assert_eq!(out[0], Ok(()), "seed {seed}");
            assert_eq!(out[1], Ok(()), "seed {seed}: sender must complete");
            assert_eq!(out[2], Err(Error::PeerDead { rank: 0 }), "seed {seed}");
            // Liveness: nowhere near the watchdog. Without the sweep, rank 1
            // burns the full 30 s in ZcSendGuard::complete.
            assert!(
                elapsed < Duration::from_secs(10),
                "seed {seed}: exchange took {elapsed:?} — a loan was stranded"
            );
        }
    }

    /// Multi-run loan geometry whose 5-byte runs leave the fused claim's hash
    /// mid-chunk between run pairs: a 5x7 block out of a 13x9 byte array,
    /// landing in a 5x7 block of an 8x9 one.
    fn odd_width_loan_types() -> (Datatype, Datatype) {
        (
            Datatype::Subarray(crate::Subarray::d2([13, 9], [5, 7], [3, 1], 1).unwrap()),
            Datatype::Subarray(crate::Subarray::d2([8, 9], [5, 7], [2, 1], 1).unwrap()),
        )
    }

    /// The fused claim (copy and verify in one pass), driven through
    /// `deliver_alltoallw` on hand-deposited loans: a clean claim lands the
    /// selection exactly; a wrong lend-time checksum and a claim-time taint
    /// are each an `IntegrityFailure` counted in `detected`, with and without
    /// recovery armed; every claim, failed or not, releases its sender.
    #[test]
    fn fused_claim_detects_bad_checksum_and_taint() {
        let (src_dt, dst_dt) = odd_width_loan_types();
        let lent: Vec<u8> = (0..13 * 9).map(|i| (i * 37 % 251) as u8).collect();
        let mut expected = vec![0u8; 8 * 9];
        copy_selection(&lent, &src_dt, &mut expected, &dst_dt).unwrap();
        for armed in [false, true] {
            let mut builder = Universe::builder()
                .zerocopy(true)
                .zerocopy_threshold(0)
                .timeout(Duration::from_secs(20));
            if armed {
                // A corrupt rule on a route this test never uses arms
                // recovery without tainting any loan.
                builder =
                    builder.fault_plan(crate::FaultPlan::new(5).corrupt_message(1, 0, None, 0));
            }
            let (lent, expected) = (lent.clone(), expected.clone());
            builder.run(2, move |comm| {
                let tags = [coll_key_tag(0, 0), coll_key_tag(1, 0), coll_key_tag(2, 0)];
                if comm.rank() == 0 {
                    let cells: Vec<_> = tags
                        .iter()
                        .map(|&t| comm.deposit_shared(1, t, &lent, src_dt).unwrap())
                        .collect();
                    for cell in cells {
                        let w = cell.wait(Instant::now() + Duration::from_secs(10), || false);
                        assert_eq!(w, ZcWait::Done, "armed={armed}: a claim stranded its sender");
                    }
                    return;
                }
                assert_eq!(comm.recovery_armed(), armed);
                let before = comm.integrity_counters();
                let mut recv = vec![0u8; 8 * 9];
                let env = comm.take_envelope_from(0, tags[0]).unwrap();
                comm.deliver_alltoallw(0, tags[0], env, &dst_dt, &mut recv).unwrap();
                assert_eq!(recv, expected, "armed={armed}: clean claim");

                let mut env = comm.take_envelope_from(0, tags[1]).unwrap();
                env.checksum = env.checksum.map(|c| c ^ 1);
                let err = comm.deliver_alltoallw(0, tags[1], env, &dst_dt, &mut recv).unwrap_err();
                assert!(
                    matches!(err, Error::IntegrityFailure { src: 0, .. }),
                    "armed={armed}: {err}"
                );

                let mut env = comm.take_envelope_from(0, tags[2]).unwrap();
                env.taints.push(0x7A1_7A1);
                let err = comm.deliver_alltoallw(0, tags[2], env, &dst_dt, &mut recv).unwrap_err();
                assert!(
                    matches!(err, Error::IntegrityFailure { src: 0, .. }),
                    "armed={armed}: {err}"
                );

                let after = comm.integrity_counters();
                assert_eq!(after.checked - before.checked, 3, "armed={armed}");
                assert_eq!(after.detected - before.detected, 2, "armed={armed}");
            });
        }
    }

    /// End to end with recovery armed: a real corrupt rule taints the
    /// multi-run loan at claim time, the fused claim detects it, and the
    /// NACK/retransmit protocol delivers a clean copy.
    #[test]
    fn fused_claim_taint_recovers_through_retransmit() {
        let (src_dt, dst_dt) = odd_width_loan_types();
        let out = Universe::builder()
            .zerocopy(true)
            .zerocopy_threshold(0)
            .timeout(Duration::from_secs(20))
            .fault_plan(crate::FaultPlan::new(9).corrupt_message(0, 1, None, 0))
            .run(2, move |comm| {
                let lent: Vec<u8> = (0..13 * 9).map(|i| (i * 37 % 251) as u8).collect();
                let mut recv = vec![0u8; 8 * 9];
                let (st, rt) = match comm.rank() {
                    0 => ([Datatype::Empty, src_dt], [Datatype::Empty; 2]),
                    _ => ([Datatype::Empty; 2], [dst_dt, Datatype::Empty]),
                };
                comm.alltoallw(&lent, &st, &mut recv, &rt)?;
                let mut expected = vec![0u8; 8 * 9];
                if comm.rank() == 1 {
                    copy_selection(&lent, &src_dt, &mut expected, &dst_dt).unwrap();
                }
                assert_eq!(recv, expected, "rank {}", comm.rank());
                Ok::<_, Error>((comm.integrity_counters(), comm.transport_counters()))
            });
        let (c1, t1) = out[1].as_ref().expect("receiver must recover");
        assert!(c1.detected >= 1, "the claim-time taint must be detected: {c1:?}");
        assert!(c1.retransmits >= 1, "the sender must retransmit: {c1:?}");
        assert_eq!(c1.exhausted, 0, "{c1:?}");
        assert!(t1.zerocopy_msgs >= 1, "the first copy must travel as a loan: {t1:?}");
    }
}
