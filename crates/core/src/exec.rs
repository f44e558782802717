//! Execution of a redistribution plan — the paper's `DDR_ReorganizeData`.

use crate::error::{DdrError, Result};
use crate::plan::Plan;
use crate::recover::{LossKind, PartialCompletion};
use crate::stats::RedistStats;
use minimpi::{bytes_of, bytes_of_mut, Comm, Datatype, Pod};

/// Marker trait for element types DDR can move: any plain-old-data type.
pub use minimpi::Pod as Element;

/// Always `None`: rounds run one at a time, so no pipeline gate exists to
/// engage. Constant; kept for the benchmark's readers.
pub fn pipeline_fallback_engaged() -> Option<bool> {
    None
}

/// How the per-round exchange is carried out on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Strategy {
    /// One `alltoallw` collective per round — the paper's published
    /// implementation (§III-C).
    #[default]
    Alltoallw,
    /// Direct sends/receives only between ranks that actually exchange data
    /// — the paper's proposed future-work optimization for sparse mappings.
    PointToPoint,
    /// Inspect the mapping and pick: point-to-point when this plan touches
    /// only a few neighbors, `alltoallw` otherwise. This implements the
    /// paper's future-work idea: "By looking at how an application sets up
    /// the data mapping, we could determine if data only needs to be
    /// redistributed to a few neighboring processes and use direct send and
    /// receive calls to improve efficiency."
    Auto,
}

/// Neighbor-count threshold below which [`Strategy::Auto`] selects direct
/// messages: sparser than `2·log2(P)` peers beats the collective's
/// coordination cost in the common case.
fn auto_threshold(nprocs: usize) -> usize {
    (2.0 * (nprocs.max(2) as f64).log2()).ceil() as usize
}

impl Plan {
    fn check_buffers<T: Pod>(&self, owned: &[&[T]], need: &[T]) -> Result<()> {
        if std::mem::size_of::<T>() != self.elem_size {
            return Err(DdrError::BufferMismatch {
                detail: format!(
                    "element type is {} bytes but descriptor declared {}",
                    std::mem::size_of::<T>(),
                    self.elem_size
                ),
            });
        }
        if owned.len() != self.owned.len() {
            return Err(DdrError::BufferMismatch {
                detail: format!(
                    "{} owned buffers passed but {} chunks registered",
                    owned.len(),
                    self.owned.len()
                ),
            });
        }
        for (c, (buf, blk)) in owned.iter().zip(self.owned.iter()).enumerate() {
            if buf.len() as u64 != blk.count() {
                return Err(DdrError::BufferMismatch {
                    detail: format!(
                        "owned buffer {c} has {} elements but chunk {:?} holds {}",
                        buf.len(),
                        blk,
                        blk.count()
                    ),
                });
            }
        }
        if need.len() as u64 != self.need.count() {
            return Err(DdrError::BufferMismatch {
                detail: format!(
                    "need buffer has {} elements but block {:?} holds {}",
                    need.len(),
                    self.need,
                    self.need.count()
                ),
            });
        }
        Ok(())
    }

    /// Collective: move data from each rank's owned-chunk buffers into its
    /// needed-block buffer according to this plan — the paper's
    /// `DDR_ReorganizeData` (§III-C), using one `alltoallw` per round.
    ///
    /// May be called any number of times with fresh data; the mapping is
    /// reused (the paper's "dynamic data" property).
    pub fn reorganize<T: Element>(
        &self,
        comm: &Comm,
        owned: &[&[T]],
        need: &mut [T],
    ) -> Result<()> {
        self.reorganize_with(comm, owned, need, Strategy::Alltoallw)
    }

    /// [`Plan::reorganize`] with an explicit wire [`Strategy`].
    ///
    /// On peer failure (a rank died or dropped out mid-exchange) the
    /// remaining rounds are still drained so every byte that can arrive
    /// does, and the call returns [`DdrError::Incomplete`] carrying a
    /// [`PartialCompletion`] report of exactly what was delivered and lost,
    /// per peer and per round.
    pub fn reorganize_with<T: Element>(
        &self,
        comm: &Comm,
        owned: &[&[T]],
        need: &mut [T],
        strategy: Strategy,
    ) -> Result<()> {
        let report = self.reorganize_salvage_with(comm, owned, need, strategy)?;
        if report.is_complete() {
            Ok(())
        } else {
            Err(DdrError::Incomplete(Box::new(report)))
        }
    }

    /// Degraded-mode redistribution: like [`Plan::reorganize_with`], but a
    /// lossy exchange is an `Ok` outcome — the returned
    /// [`PartialCompletion`] says what arrived. Hard errors (mismatched
    /// buffers, this rank itself fault-killed) are still `Err`.
    pub fn reorganize_salvage_with<T: Element>(
        &self,
        comm: &Comm,
        owned: &[&[T]],
        need: &mut [T],
        strategy: Strategy,
    ) -> Result<PartialCompletion> {
        self.reorganize_with_stats(comm, owned, need, strategy).map(|(report, _)| report)
    }

    /// Like [`Plan::reorganize_salvage_with`], but also returns the
    /// [`RedistStats`] accounting of what this call moved. The stats are
    /// derived from the plan and the recorded failures — never from wire
    /// observations — so they are identical whichever data-movement path
    /// (zero-copy or staged) carried the bytes.
    pub fn reorganize_with_stats<T: Element>(
        &self,
        comm: &Comm,
        owned: &[&[T]],
        need: &mut [T],
        strategy: Strategy,
    ) -> Result<(PartialCompletion, RedistStats)> {
        if comm.size() != self.nprocs || comm.rank() != self.rank {
            return Err(DdrError::ProcessCountMismatch {
                descriptor: self.nprocs,
                actual: comm.size(),
            });
        }
        self.check_buffers(owned, need)?;
        let _reorg = ddrtrace::span_arg("redist", "reorganize", "rounds", self.rounds.len() as i64);
        let failures = match self.resolve_strategy(strategy) {
            Strategy::Alltoallw => self.reorganize_alltoallw(comm, owned, need)?,
            Strategy::PointToPoint => self.reorganize_p2p(comm, owned, need)?,
            Strategy::Auto => unreachable!("resolve_strategy never returns Auto"),
        };
        let stats = RedistStats::from_plan(self, &failures);
        if ddrtrace::enabled() {
            ddrtrace::metrics::add("redist", "sent_bytes", stats.sent_bytes);
            ddrtrace::metrics::add("redist", "local_bytes", stats.local_bytes);
            ddrtrace::metrics::add("redist", "messages_sent", stats.messages_sent);
            ddrtrace::metrics::add("redist", "failed_recvs", stats.failed_recvs);
        }
        Ok((PartialCompletion::from_failures(self, &failures), stats))
    }

    /// The [`RedistStats`] a fully successful execution of this plan will
    /// report (what [`Plan::reorganize_with_stats`] returns when nothing
    /// fails).
    pub fn expected_stats(&self) -> RedistStats {
        RedistStats::from_plan(self, &[])
    }

    /// The concrete strategy [`Strategy::Auto`] resolves to for this plan.
    ///
    /// The decision must be identical on every rank (mixing strategies would
    /// deadlock), so it consults [`Plan::max_neighbor_count`] — the global
    /// maximum over all ranks, computed from the allgathered layouts during
    /// mapping setup and therefore the same everywhere.
    pub fn resolve_strategy(&self, requested: Strategy) -> Strategy {
        match requested {
            Strategy::Auto => {
                if self.max_neighbor_count() <= auto_threshold(self.nprocs) {
                    Strategy::PointToPoint
                } else {
                    Strategy::Alltoallw
                }
            }
            other => other,
        }
    }

    /// Returns `(round, peer, loss kind)` receive failures; drains every
    /// round so the maximum amount of data survives a peer death, and
    /// classifies each loss so retransmit exhaustion (the peer is alive but
    /// its data never verified) is reported distinctly from death.
    ///
    /// One blocking `alltoallw` per round, in round order: a round's sends
    /// and receives finish before the next round posts.
    fn reorganize_alltoallw<T: Pod>(
        &self,
        comm: &Comm,
        owned: &[&[T]],
        need: &mut [T],
    ) -> Result<Vec<(usize, usize, LossKind)>> {
        let n = self.nprocs;
        let need_bytes = bytes_of_mut(need);
        let mut failures = Vec::new();
        for (r, round) in self.rounds.iter().enumerate() {
            let _round = ddrtrace::span_arg("redist", "round", "round", r as i64);
            let send_buf: &[u8] = owned.get(r).map(|b| bytes_of(b)).unwrap_or(&[]);
            let mut send_types = vec![Datatype::Empty; n];
            let mut recv_types = vec![Datatype::Empty; n];
            for t in &round.sends {
                send_types[t.peer] = Datatype::Subarray(t.subarray);
            }
            for t in &round.recvs {
                recv_types[t.peer] = Datatype::Subarray(t.subarray);
            }
            let report = comm.alltoallw_salvage(send_buf, &send_types, need_bytes, &recv_types)?;
            failures.extend(
                report.failed.into_iter().map(|(peer, e)| (r, peer, LossKind::from_error(&e))),
            );
        }
        Ok(failures)
    }

    fn reorganize_p2p<T: Pod>(
        &self,
        comm: &Comm,
        owned: &[&[T]],
        need: &mut [T],
    ) -> Result<Vec<(usize, usize, LossKind)>> {
        let need_bytes = bytes_of_mut(need);
        let mut failures = Vec::new();
        for (r, round) in self.rounds.iter().enumerate() {
            let _round = ddrtrace::span_arg("redist", "round", "round", r as i64);
            let send_buf: &[u8] = owned.get(r).map(|b| bytes_of(b)).unwrap_or(&[]);
            let mut sends = Vec::with_capacity(round.sends.len());
            for t in &round.sends {
                // Stage through the universe's shared buffer pool: receivers
                // recycle the buffer after unpacking, so repeated
                // redistributions reuse a bounded working set.
                let mut packed = comm.acquire_staging(t.subarray.packed_len());
                t.subarray.pack_into(send_buf, &mut packed)?;
                sends.push((t.peer, packed));
            }
            let recv_srcs: Vec<usize> = round.recvs.iter().map(|t| t.peer).collect();
            let received = comm.sparse_exchange_salvage(sends, &recv_srcs)?;
            for (t, (src, payload)) in round.recvs.iter().zip(received) {
                debug_assert_eq!(t.peer, src);
                match payload {
                    Ok(p) => {
                        let res = t.subarray.unpack(&p, need_bytes);
                        comm.release_staging(p);
                        res?;
                    }
                    Err(e) => failures.push((r, src, LossKind::from_error(&e))),
                }
            }
        }
        Ok(failures)
    }
}
