//! What every workload shares: the closed loop that runs on each rank,
//! the per-op records it produces, the statistics over them, and the
//! accounting of `ddrtrace` spans into per-layer times.
//!
//! Spans are opened only in this package's files, around calls into the
//! workspace crates' public functions. Every span carries category
//! [`CAT`] and an argument packing the op index and the rank, so spans of
//! one op group together whatever track the thread was given.

use crate::workload::RANKS;
use ddr_core::RedistStats;
use ddrtrace::{EventKind, SpanGuard, Trace};
use minimpi::Comm;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Barrier, Mutex};
use std::time::{Duration, Instant};

/// Span category of every span this benchmark records.
pub const CAT: &str = "bench";

/// Op indices at or above this mark set-up trials, not loop ops.
pub const TRIAL_BASE: u64 = 1 << 40;

/// Open a span named after the layer metric it feeds (`"core.reorganize_ms"`).
pub fn span(name: &'static str, op: u64, rank: usize) -> SpanGuard {
    ddrtrace::span_arg(CAT, name, "op_rank", ((op << 8) | rank as u64) as i64)
}

/// One op as one rank saw it.
#[derive(Clone, Copy, Debug)]
pub struct OpRec {
    pub index: u64,
    pub start: Instant,
    pub end: Instant,
    pub ok: bool,
    /// Whether the op ran inside a capture window.
    pub traced: bool,
    /// Redistribution accounting, where the op made one visible call.
    pub stats: Option<RedistStats>,
}

/// Time `f` as op `index` on `rank`, inside an `op` span. The record says
/// the op passed; the caller clears `ok` if its check fails.
pub fn timed<R>(index: u64, rank: usize, f: impl FnOnce() -> R) -> (OpRec, R) {
    let traced = ddrtrace::enabled();
    let _op = span("op", index, rank);
    let start = Instant::now();
    let out = f();
    let end = Instant::now();
    (OpRec { index, start, end, ok: true, traced, stats: None }, out)
}

/// An op across ranks: it starts when the first rank starts it and ends
/// when the slowest rank finishes it.
#[derive(Clone, Copy, Debug)]
pub struct Op {
    pub ms: f64,
    pub ok: bool,
    pub traced: bool,
    pub stats: Option<RedistStats>,
}

/// Merge per-rank records (one vector per rank, same op indices) into ops.
pub fn merge_ranks(per_rank: &[Vec<OpRec>]) -> Vec<Op> {
    let mut by: BTreeMap<u64, (Instant, Instant, bool, bool, Option<RedistStats>)> =
        BTreeMap::new();
    for rec in per_rank.iter().flatten() {
        let e = by.entry(rec.index).or_insert((rec.start, rec.end, true, rec.traced, None));
        e.0 = e.0.min(rec.start);
        e.1 = e.1.max(rec.end);
        e.2 &= rec.ok;
        e.3 |= rec.traced;
        if let Some(s) = rec.stats {
            e.4 = Some(add_stats(e.4, s));
        }
    }
    by.into_values()
        .map(|(s, e, ok, traced, stats)| Op { ms: ms(e - s), ok, traced, stats })
        .collect()
}

/// Sum the ranks' stats; depth fields take the largest rank's value.
fn add_stats(acc: Option<RedistStats>, s: RedistStats) -> RedistStats {
    let Some(mut a) = acc else { return s };
    a.rounds = a.rounds.max(s.rounds);
    a.sent_bytes += s.sent_bytes;
    a.recv_bytes += s.recv_bytes;
    a.local_bytes += s.local_bytes;
    a.messages_sent += s.messages_sent;
    a.messages_recv += s.messages_recv;
    a.failed_recvs += s.failed_recvs;
    a.effective_depth = a.effective_depth.max(s.effective_depth);
    a.throttled_rounds = a.throttled_rounds.max(s.throttled_rounds);
    a
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Median of `v` (0 when empty).
pub fn median(v: &[f64]) -> f64 {
    percentile(v, 50.0)
}

/// Nearest-rank percentile: the smallest sample with at least `p` % of
/// the samples at or below it.
pub fn percentile(v: &[f64], p: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s[nearest_rank(s.len(), p)]
}

fn nearest_rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n) - 1
}

/// Samples above the nearest-rank `p` percentile of `n` samples.
pub fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - nearest_rank(n, p) - 1
}

/// Op times, with a failed op slower than any success.
pub fn op_ms(ops: &[Op]) -> Vec<f64> {
    ops.iter().map(|o| if o.ok { o.ms } else { f64::INFINITY }).collect()
}

/// Loop control shared by every rank of one universe.
pub struct Control {
    seconds: f64,
    /// Ops per capture window in a traced run (0: never capture). Windows
    /// alternate untraced and traced, starting untraced.
    window: u64,
    /// Index of the session's first op, so op indices stay unique across
    /// the sessions of a run.
    first_op: AtomicU64,
    /// First op index that is not run; set by rank 0 once time is up.
    stop_at: AtomicU64,
    /// Meeting point of the rank threads at window boundaries.
    sync: Barrier,
    /// Per-layer accounting of the traced windows.
    pub acc: Mutex<Accounting>,
    /// Counter totals over traced windows, and the one being open.
    pub counters: Mutex<(Counters, Option<Counters>)>,
}

impl Control {
    pub fn new(seconds: f64, window: u64) -> Control {
        Control {
            seconds,
            window,
            first_op: AtomicU64::new(0),
            stop_at: AtomicU64::new(u64::MAX),
            sync: Barrier::new(RANKS),
            acc: Mutex::new(Accounting::default()),
            counters: Mutex::new((Counters::default(), None)),
        }
    }

    /// Prepare for a new session whose ops are numbered from `first_op`.
    pub fn rearm(&self, first_op: u64) {
        self.first_op.store(first_op, Ordering::SeqCst);
        self.stop_at.store(u64::MAX, Ordering::SeqCst);
    }

    /// Whether this is a traced run.
    pub fn traced(&self) -> bool {
        self.window > 0
    }

    /// Run the closed loop on this rank: warm-up ops first, then timed ops
    /// until `seconds` have passed. Every op waits on a barrier for every
    /// rank to finish the previous one. `op(i)` runs op `i` and checks it;
    /// indices start at the session's first op.
    pub fn run(
        &self,
        comm: &Comm,
        warmup: u64,
        mut op: impl FnMut(u64) -> OpRec,
    ) -> minimpi::Result<(Vec<OpRec>, Vec<OpRec>)> {
        let rank = comm.rank();
        let base = self.first_op.load(Ordering::SeqCst) + warmup;
        let mut warm = Vec::new();
        for i in base - warmup..base {
            comm.barrier()?;
            warm.push(op(i));
        }
        let start = Instant::now();
        let mut timed = Vec::new();
        let mut i = base;
        loop {
            let k = i - base;
            if self.window == 0 {
                if rank == 0 && start.elapsed().as_secs_f64() >= self.seconds {
                    self.stop_at.fetch_min(i, Ordering::SeqCst);
                }
            } else if k.is_multiple_of(self.window) {
                // Window boundary. The ranks meet on a plain thread barrier,
                // which sends nothing, so each window's counters hold
                // exactly its ops and the `Comm::barrier` before each. A
                // traced run stops only here, so windows are whole.
                self.sync.wait();
                if rank == 0 {
                    let stop = start.elapsed().as_secs_f64() >= self.seconds;
                    if stop {
                        self.stop_at.fetch_min(i, Ordering::SeqCst);
                    }
                    self.toggle_capture(comm, !stop && (k / self.window) % 2 == 1);
                }
                self.sync.wait();
            }
            {
                let _s = span("minimpi.barrier_wait_ms", i, rank);
                comm.barrier()?;
            }
            if i >= self.stop_at.load(Ordering::SeqCst) {
                break;
            }
            timed.push(op(i));
            i += 1;
        }
        Ok((warm, timed))
    }

    /// Close the open capture window, if any, and open one if `on`.
    fn toggle_capture(&self, comm: &Comm, on: bool) {
        if ddrtrace::capture::active() {
            let trace = ddrtrace::capture::stop();
            let now = Counters::read(comm);
            let mut c = self.counters.lock().expect("counter lock poisoned");
            if let Some(before) = c.1.take() {
                c.0.add_delta(&before, &now);
            }
            drop(c);
            self.acc.lock().expect("accounting lock poisoned").absorb(trace);
        }
        if on {
            self.counters.lock().expect("counter lock poisoned").1 = Some(Counters::read(comm));
            ddrtrace::capture::start();
        }
    }
}

/// The always-on `minimpi` counters a traced run reports per op, by the
/// metric each feeds.
pub const COUNTERS: [&str; 12] = [
    "minimpi.zerocopy_msgs",
    "minimpi.staged_msgs",
    "minimpi.integrity_checked",
    "minimpi.integrity_retransmits",
    "minimpi.pack_fused_runs",
    "minimpi.pack_vector_bytes",
    "minimpi.pack_scalar_bytes",
    "minimpi.pack_pool_dispatches",
    "minimpi.credit_waits",
    "minimpi.credit_stalled_ms",
    "minimpi.pool_acquires",
    "minimpi.pool_reuse_hits",
];

/// Values of [`COUNTERS`], read from outside the program.
#[derive(Clone, Copy, Debug, Default)]
pub struct Counters(pub [u64; 12]);

impl Counters {
    pub fn read(comm: &Comm) -> Counters {
        let t = comm.transport_counters();
        let i = comm.integrity_counters();
        let p = minimpi::pack_counters();
        let f = comm.flow_counters();
        let pool = comm.pool_stats();
        Counters([
            t.zerocopy_msgs,
            t.staged_msgs,
            i.checked,
            i.retransmits,
            p.fused_runs,
            p.vector_bytes,
            p.scalar_bytes,
            p.pool_dispatches,
            f.credit_waits,
            f.stalled_ms,
            pool.acquires,
            pool.reuse_hits,
        ])
    }

    fn add_delta(&mut self, before: &Counters, after: &Counters) {
        for (acc, (b, a)) in self.0.iter_mut().zip(before.0.iter().zip(&after.0)) {
            *acc += a.saturating_sub(*b);
        }
    }
}

/// Layers timed once per call rather than summed per op.
pub const PER_CALL: [&str; 2] = ["dtiff.decode_ms", "lbm.step_ms"];

/// Layer spans that set-up trials contribute; trials add nothing else.
pub const SETUP_LAYERS: [&str; 2] = ["core.setup_mapping_ms", "core.first_reorganize_ms"];

/// One of this benchmark's spans: name, start and duration in ns.
type Span = (&'static str, u64, u64);

/// Per-layer times accumulated from captured traces.
#[derive(Default)]
pub struct Accounting {
    /// Layer -> one value per op: the slowest rank's summed span time (ms),
    /// or one value per call for [`PER_CALL`] layers.
    pub layer_ms: BTreeMap<&'static str, Vec<f64>>,
    /// Layer -> per op, slowest minus fastest rank's summed span time (ms).
    pub skew_ms: BTreeMap<&'static str, Vec<f64>>,
    /// `(rank, op)` -> time the layer spans inside the op span cover (ms).
    pub covered_ms: BTreeMap<(usize, u64), f64>,
    /// `(rank, layer)` -> layer spans inside that rank's op spans.
    pub calls: BTreeMap<(usize, &'static str), u64>,
    /// Rank -> op spans seen.
    pub ops: BTreeMap<usize, u64>,
    /// Events the rings dropped.
    pub dropped: u64,
    /// The first trace absorbed, kept for the Chrome export.
    pub first: Option<Trace>,
}

impl Accounting {
    pub fn absorb(&mut self, trace: Trace) {
        self.dropped += trace.dropped;
        // (op, rank) -> this benchmark's spans: (name, start ns, dur ns).
        let mut groups: BTreeMap<(u64, usize), Vec<Span>> = BTreeMap::new();
        for e in &trace.events {
            if e.kind == EventKind::Span && e.cat == CAT {
                let (op, rank) = ((e.arg as u64) >> 8, (e.arg & 0xff) as usize);
                groups.entry((op, rank)).or_default().push((e.name, e.ts_ns, e.dur_ns));
            }
        }
        let mut per_op: BTreeMap<(u64, &'static str), Vec<f64>> = BTreeMap::new();
        for (&(op, rank), spans) in &groups {
            let trial = op >= TRIAL_BASE;
            let mut sums: BTreeMap<&'static str, f64> = BTreeMap::new();
            for &(name, _, dur) in spans {
                if trial && !SETUP_LAYERS.contains(&name) {
                    continue;
                }
                if PER_CALL.contains(&name) {
                    self.layer_ms.entry(name).or_default().push(dur as f64 / 1e6);
                } else {
                    *sums.entry(name).or_default() += dur as f64 / 1e6;
                }
            }
            for (name, v) in sums {
                per_op.entry((op, name)).or_default().push(v);
            }
            if trial {
                continue;
            }
            if let Some(&(_, t0, dur)) = spans.iter().find(|s| s.0 == "op") {
                let inside: Vec<Span> = spans
                    .iter()
                    .filter(|s| s.0 != "op" && s.1 >= t0 && s.1 + s.2 <= t0 + dur)
                    .copied()
                    .collect();
                for &(name, ..) in &inside {
                    *self.calls.entry((rank, name)).or_default() += 1;
                }
                *self.ops.entry(rank).or_default() += 1;
                let covered = cover(inside.iter().map(|s| (s.1, s.2)).collect());
                self.covered_ms.insert((rank, op), covered as f64 / 1e6);
            }
        }
        for ((_, name), ranks) in per_op {
            let (lo, hi) =
                ranks.iter().fold((f64::MAX, f64::MIN), |(l, h), &v| (l.min(v), h.max(v)));
            self.layer_ms.entry(name).or_default().push(hi);
            if ranks.len() > 1 {
                self.skew_ms.entry(name).or_default().push(hi - lo);
            }
        }
        if self.first.is_none() {
            self.first = Some(trace);
        }
    }

    /// Median of a layer's values, 0 when the workload never enters it.
    pub fn layer(&self, name: &str) -> f64 {
        self.layer_ms.get(name).map_or(0.0, |v| median(v))
    }

    pub fn skew(&self, name: &str) -> f64 {
        self.skew_ms.get(name).map_or(0.0, |v| median(v))
    }
}

/// Length in ns of the union of spans given as (start, dur).
fn cover(mut spans: Vec<(u64, u64)>) -> u64 {
    spans.sort();
    let (mut covered, mut reach) = (0u64, 0u64);
    for (s, d) in spans {
        let e = s + d;
        if e > reach {
            covered += e - s.max(reach);
            reach = e;
        }
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cover_counts_overlapping_spans_once() {
        // [0,100) holds [10,30) and [40,60); [90,120) overlaps its end;
        // [200,250) stands alone.
        assert_eq!(cover(vec![(10, 20), (0, 100), (40, 20), (200, 50), (90, 30)]), 170);
    }

    #[test]
    fn failed_ops_sort_above_every_success() {
        let ops: Vec<Op> = (1..=100)
            .map(|i| Op { ms: i as f64, ok: i != 7, traced: false, stats: None })
            .collect();
        assert_eq!(percentile(&op_ms(&ops), 100.0), f64::INFINITY);
        assert_eq!(percentile(&op_ms(&ops), 90.0), 91.0);
        assert_eq!(beyond(100, 90.0), 10);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }
}
