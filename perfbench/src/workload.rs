//! The interface the four workloads implement, and the launch of one
//! universe ("session") that sets a workload up and, unless it is a set-up
//! trial, runs its closed loop.

use crate::harness::{merge_ranks, Control, Op, OpRec};
use minimpi::{Comm, Universe};
use std::collections::BTreeMap;
use std::time::Instant;

/// Rank threads per universe: the two cores of the box the workloads were
/// sized on. More threads than cores widened the spread of `reorg_large`'s
/// median from 2.04–2.37 ms to 2.12–3.90 ms.
pub const RANKS: usize = 2;

pub trait Workload: Sync {
    /// Untimed ops between the set-up op and the timed loop.
    fn warmup(&self) -> u64;
    /// Ops per capture window in a traced run.
    fn window(&self) -> u64;
    /// Payload bytes one op delivers, for `throughput_mib_s`.
    fn payload_bytes(&self) -> f64;
    /// Bytes one op's redistribution delivers, summed over ranks; each is
    /// read once and written once by a copy-bound exchange.
    fn delivered_bytes(&self) -> f64 {
        self.payload_bytes()
    }
    /// Start a universe, set up, run the first op, and unless this is
    /// set-up trial `trial`, the closed loop under `ctl`.
    fn session(&self, ctl: &Control, trial: Option<u64>) -> Result<Session, String>;
}

/// What one rank hands back from a session.
pub struct RankOut {
    /// When this rank finished the set-up op.
    pub setup_end: Instant,
    /// Whether the set-up op returned `Ok` and passed its check.
    pub first_ok: bool,
    pub warm: Vec<OpRec>,
    pub timed: Vec<OpRec>,
    /// `Comm::mem_high_water()` after the loop.
    pub peak_staging: usize,
    /// Workload-specific per-layer values, summed over ranks.
    pub extra: BTreeMap<&'static str, f64>,
}

impl RankOut {
    pub fn new(setup_end: Instant) -> RankOut {
        RankOut {
            setup_end,
            first_ok: false,
            warm: Vec::new(),
            timed: Vec::new(),
            peak_staging: 0,
            extra: BTreeMap::new(),
        }
    }

    pub fn finish(&mut self, comm: &Comm, warm: Vec<OpRec>, timed: Vec<OpRec>) {
        self.warm = warm;
        self.timed = timed;
        self.peak_staging = comm.mem_high_water();
    }
}

/// One session across ranks.
pub struct Session {
    /// From the universe launch to the slowest rank's end of the set-up op.
    pub setup_s: f64,
    pub first_ok: bool,
    pub warm: Vec<Op>,
    pub timed: Vec<Op>,
    /// The timed ops as each rank saw them, for the trace accounting.
    pub rank_timed: Vec<Vec<OpRec>>,
    pub peak_staging: usize,
    pub extra: BTreeMap<&'static str, f64>,
}

/// Run `f` on [`RANKS`] rank threads of a default universe: checksums on,
/// zero-copy on, default depth.
pub fn launch<F>(f: F) -> Result<Session, String>
where
    F: Fn(&Comm) -> Result<RankOut, String> + Sync,
{
    let launched = Instant::now();
    let outs = Universe::run(RANKS, f).into_iter().collect::<Result<Vec<_>, _>>()?;
    let setup_end = outs.iter().map(|o| o.setup_end).max().expect("at least one rank");
    let mut extra = BTreeMap::new();
    for o in &outs {
        for (&k, &v) in &o.extra {
            *extra.entry(k).or_insert(0.0) += v;
        }
    }
    let warm: Vec<Vec<OpRec>> = outs.iter().map(|o| o.warm.clone()).collect();
    let rank_timed: Vec<Vec<OpRec>> = outs.iter().map(|o| o.timed.clone()).collect();
    Ok(Session {
        setup_s: (setup_end - launched).as_secs_f64(),
        first_ok: outs.iter().all(|o| o.first_ok),
        warm: merge_ranks(&warm),
        timed: merge_ranks(&rank_timed),
        rank_timed,
        peak_staging: outs.iter().map(|o| o.peak_staging).max().unwrap_or(0),
        extra,
    })
}

/// One run's sessions as one: ops and per-rank records concatenated, the
/// largest staging peak, and the extras averaged over sessions.
pub fn combine(sessions: Vec<Session>) -> Session {
    let n = sessions.len() as f64;
    let mut out = Session {
        setup_s: 0.0,
        first_ok: true,
        warm: Vec::new(),
        timed: Vec::new(),
        rank_timed: vec![Vec::new(); RANKS],
        peak_staging: 0,
        extra: BTreeMap::new(),
    };
    for s in sessions {
        out.first_ok &= s.first_ok;
        out.warm.extend(s.warm);
        out.timed.extend(s.timed);
        for (all, mine) in out.rank_timed.iter_mut().zip(s.rank_timed) {
            all.extend(mine);
        }
        out.peak_staging = out.peak_staging.max(s.peak_staging);
        for (k, v) in s.extra {
            *out.extra.entry(k).or_insert(0.0) += v / n;
        }
    }
    out
}
