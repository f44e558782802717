//! Launching a set of ranks.

use crate::comm::{default_timeout, Comm, WorldState};
use crate::elastic::SupervisorEvent;
use crate::fault::FaultPlan;
use std::panic::AssertUnwindSafe;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Entry point: runs an "MPI job" as `n` rank-threads inside this process.
pub struct Universe;

/// Stack size given to rank threads. Simulation kernels keep their state on
/// the heap, but deep recursion in user closures should still have room.
const RANK_STACK_BYTES: usize = 8 * 1024 * 1024;

/// Configures a universe before launch: watchdog timeout and an optional
/// deterministic [`FaultPlan`].
///
/// ```
/// use minimpi::Universe;
/// use std::time::Duration;
///
/// let sums = Universe::builder()
///     .timeout(Duration::from_secs(10))
///     .run(4, |comm| comm.allreduce(&[comm.rank() as u64], |a, b| a + b)[0]);
/// assert_eq!(sums, vec![6, 6, 6, 6]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct UniverseBuilder {
    timeout: Option<Duration>,
    fault_plan: Option<FaultPlan>,
    check: Option<bool>,
    zerocopy: Option<bool>,
    zc_threshold: Option<usize>,
    respawn: Option<bool>,
    checksum: Option<bool>,
    retransmit_max: Option<u32>,
    retransmit_backoff: Option<Duration>,
    sched_seed: Option<u64>,
    trace: Option<PathBuf>,
    flow_credits: Option<u64>,
    flow_bytes: Option<usize>,
    mem_budget: Option<usize>,
}

impl UniverseBuilder {
    /// Watchdog timeout applied to every blocking receive. Defaults to
    /// `DDR_TIMEOUT_MS` (ms), else 120 s.
    pub fn timeout(mut self, t: Duration) -> Self {
        self.timeout = Some(t);
        self
    }

    /// Install a deterministic fault plan, replayed identically every run.
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Enable (or force off) MPI-correctness checking: collective-matching
    /// verification and wait-for-graph deadlock detection. When unset, the
    /// `DDR_CHECK` environment variable decides (`1`/`true` = on, default
    /// off). Disabled checking costs a single `Option` branch per operation
    /// and spawns no detector thread.
    pub fn check(mut self, on: bool) -> Self {
        self.check = Some(on);
        self
    }

    /// Enable (or force off) the zero-copy exchange fast path for this
    /// universe, overriding the `DDR_NO_ZEROCOPY` environment variable.
    /// Unlike the (process-global, race-prone in parallel test runners)
    /// environment variable, this override is scoped to one universe — the
    /// differential test harness uses it to run the same exchange through
    /// both wire paths. Fault plans force the staged path regardless.
    pub fn zerocopy(mut self, on: bool) -> Self {
        self.zerocopy = Some(on);
        self
    }

    /// Per-message byte floor for zero-copy loans: messages of `bytes` or
    /// smaller are staged even when zero-copy is on, because for small
    /// payloads the rendezvous handshake costs as much as (or more than) the
    /// copy it avoids — only strictly larger messages loan. `0` loans
    /// everything. When unset, `DDR_ZC_THRESHOLD` decides (with `K`/`M`/`G`
    /// suffixes), defaulting to 64 KiB.
    pub fn zerocopy_threshold(mut self, bytes: usize) -> Self {
        self.zc_threshold = Some(bytes);
        self
    }

    /// Choose the [`crate::Comm::reconfigure`] policy: with respawn on (the
    /// default), every dead member is replaced by a fresh thread re-running
    /// the universe closure in the new epoch, so the communicator keeps its
    /// size; with respawn off, reconfigure shrinks to the survivors (still
    /// fencing the old epoch). When unset, `DDR_RESPAWN` decides
    /// (default on).
    pub fn respawn(mut self, on: bool) -> Self {
        self.respawn = Some(on);
        self
    }

    /// Enable (or force off) end-to-end envelope checksums for this
    /// universe, overriding `DDR_CHECKSUM`. Checksumming is **on by
    /// default**: every staged payload and zero-copy loan is hashed at
    /// pack/lend time and verified at match/claim time, so corruption
    /// surfaces as [`crate::Error::IntegrityFailure`] (and, inside
    /// `alltoallw`, triggers NACK/retransmit recovery) instead of delivering
    /// scrambled bytes. Off, the only remaining cost is one branch per
    /// deposit — the bench matrix holds it to <1 % against the
    /// pre-integrity numbers.
    pub fn checksum(mut self, on: bool) -> Self {
        self.checksum = Some(on);
        self
    }

    /// Bounded retransmit attempts per corrupt transfer before the receiver
    /// gives up with [`crate::Error::IntegrityFailure`], overriding
    /// `DDR_RETRANSMIT_MAX` (default 3). `0` makes every detection
    /// immediately fatal (detect-only).
    pub fn retransmit_max(mut self, attempts: u32) -> Self {
        self.retransmit_max = Some(attempts);
        self
    }

    /// Base of the receiver's exponential backoff before NACK attempt `k`
    /// (`base × 2^(k-1)`), overriding `DDR_RETRANSMIT_BACKOFF_MS`
    /// (default 1 ms).
    pub fn retransmit_backoff(mut self, base: Duration) -> Self {
        self.retransmit_backoff = Some(base);
        self
    }

    /// Seed the deterministic schedule explorer for this universe: every
    /// wait/poll point (sends, receives, zero-copy claims, retransmit polls,
    /// reconfigure rendezvous) consults a per-rank counterful hash of this
    /// seed and may yield or inject a short adversarial delay, and any-source
    /// receives rotate their source-scan preference — so different seeds
    /// exercise different (but individually reproducible) interleavings.
    /// When unset, `DDR_SCHED_SEED` decides; with neither, the hook
    /// compiles down to one `Option` branch per operation. Orthogonal to
    /// [`UniverseBuilder::check`]: seed + check finds races *and* explores
    /// schedules, seed alone just perturbs timing.
    pub fn sched_seed(mut self, seed: u64) -> Self {
        self.sched_seed = Some(seed);
        self
    }

    /// Bound every `(sender, receiver)` pair's mailbox: at most `credits`
    /// messages and `bytes` payload bytes queued per pair. A sender without
    /// credits parks on the flow gate until the receiver pops (or an epoch
    /// sweep discards) enough envelopes — backpressure instead of unbounded
    /// queue growth. `0` disables the respective window. Overrides
    /// `DDR_MAILBOX_CREDITS` / `DDR_MAILBOX_BYTES` (defaults: 1024 messages,
    /// 32 MiB). A single message larger than the byte window is still
    /// admitted when the pair is empty (stop-and-wait), so oversize
    /// transfers degrade instead of erroring.
    pub fn flow_control(mut self, credits: u64, bytes: usize) -> Self {
        self.flow_credits = Some(credits);
        self.flow_bytes = Some(bytes);
        self
    }

    /// Cap the universe's staging footprint: mailbox payloads and
    /// pool-retained capacity are metered against this budget, and the
    /// runtime degrades in stages as it fills — zero-copy sheds to the
    /// staged path at 50% occupancy, then the pool drops returned buffers
    /// instead of retaining them — before a reservation that cannot ever fit (or a
    /// budget wait with no global progress for a full timeout) fails with
    /// [`crate::Error::MemoryPressure`]. `0` (the default) meters without
    /// enforcing. Overrides `DDR_MEM_BUDGET`.
    pub fn mem_budget(mut self, bytes: usize) -> Self {
        self.mem_budget = Some(bytes);
        self
    }

    /// Capture a trace of this universe run and write it to `path` as
    /// Chrome trace-event JSON (loadable in Perfetto). Equivalent to setting
    /// `DDR_TRACE=<path>`; the builder takes precedence. When tracing is off,
    /// the instrumentation compiles down to one relaxed atomic load per site.
    ///
    /// If a [`ddrtrace::capture`] window is already active (e.g. a bench
    /// harness tracing across several universes), this run contributes its
    /// events to that window instead of writing its own file.
    pub fn trace(mut self, path: impl Into<PathBuf>) -> Self {
        self.trace = Some(path.into());
        self
    }

    /// Run `f` on `n` ranks, each on its own thread with a world [`Comm`].
    /// Returns the per-rank results in rank order.
    ///
    /// When a rank's closure returns or panics, the rank is marked dead in
    /// the liveness registry, so peers still blocked on it fail fast with
    /// [`crate::Error::PeerDead`] rather than waiting out the watchdog.
    /// A panic on any rank propagates to the caller after all ranks joined.
    ///
    /// # Panics
    /// Panics if `n == 0` or if a rank thread cannot be spawned.
    pub fn run<R, F>(&self, n: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(&Comm) -> R + Sync,
    {
        assert!(n > 0, "Universe::run requires at least one rank");
        let timeout = self.timeout.unwrap_or_else(default_timeout);
        let check_on = self.check.unwrap_or_else(crate::check::check_env_default);
        let env_flow = crate::flow::FlowConfig::env_default();
        let flow_cfg = crate::flow::FlowConfig {
            msg_credits: self.flow_credits.unwrap_or(env_flow.msg_credits),
            byte_credits: self.flow_bytes.unwrap_or(env_flow.byte_credits),
            mem_budget: self.mem_budget.unwrap_or(env_flow.mem_budget),
        };
        let world = Arc::new(WorldState::new(
            n,
            timeout,
            self.fault_plan.clone(),
            check_on,
            self.zerocopy,
            self.zc_threshold,
            self.respawn,
            self.checksum,
            self.retransmit_max,
            self.retransmit_backoff,
            self.sched_seed,
            flow_cfg,
        ));
        // Tracing: the builder's path wins over `DDR_TRACE`. If a capture
        // window is already open (a bench tracing across several universes),
        // this run only contributes events — the window's owner writes them.
        let trace_path =
            self.trace.clone().or_else(|| crate::env::path_var("DDR_TRACE").map(PathBuf::from));
        let own_capture = trace_path.is_some() && !ddrtrace::capture::active();
        if own_capture {
            ddrtrace::capture::start();
        }
        // Rank tracks are pinned at their rank number; auto-assigned tracks
        // (main thread, copy workers) start at AUTO_TRACK_BASE. A world big
        // enough for the two ranges to overlap would silently merge
        // unrelated threads onto one track, so refuse it loudly.
        if ddrtrace::enabled() {
            assert!(
                n <= ddrtrace::AUTO_TRACK_BASE as usize,
                "tracing supports at most {} ranks per universe: rank {} would collide \
                 with auto-assigned helper-thread tracks",
                ddrtrace::AUTO_TRACK_BASE,
                n - 1,
            );
        }
        let shutdown = AtomicBool::new(false);
        std::thread::scope(|scope| {
            let detector = world.check.is_some().then(|| {
                let world = Arc::clone(&world);
                let shutdown = &shutdown;
                std::thread::Builder::new()
                    .name("ddr-check-detector".into())
                    .spawn_scoped(scope, move || crate::check::detector_loop(&world, shutdown))
                    .expect("failed to spawn deadlock detector thread")
            });
            let mut handles = Vec::with_capacity(n);
            for rank in 0..n {
                let world = Arc::clone(&world);
                let f = &f;
                let handle = std::thread::Builder::new()
                    .name(format!("rank-{rank}"))
                    .stack_size(RANK_STACK_BYTES)
                    .spawn_scoped(scope, move || {
                        ddrtrace::set_track(rank as u32, &format!("rank-{rank}"));
                        let _body = ddrtrace::span("rank", "rank_body");
                        let comm = Comm::world_comm(Arc::clone(&world), rank);
                        let out = std::panic::catch_unwind(AssertUnwindSafe(|| f(&comm)));
                        // Departed (or crashed) ranks count as dead: peers
                        // blocked on them should fail fast.
                        world.mark_dead(rank);
                        world.elastic.rank_finished();
                        match out {
                            Ok(v) => v,
                            Err(payload) => std::panic::resume_unwind(payload),
                        }
                    })
                    .expect("failed to spawn rank thread");
                handles.push(handle);
            }
            // Respawn supervisor: reconfigure queues a request per dead rank
            // being replaced; each spawns a fresh thread re-running `f` with
            // a communicator already in the new epoch. The loop ends only
            // when every thread — initial and respawned — has finished, so
            // the joins below never block on unfinished work.
            let mut respawned = Vec::new();
            while let SupervisorEvent::Spawn(req) = world.elastic.next_event() {
                let world = Arc::clone(&world);
                let f = &f;
                let rank = req.world_rank;
                let handle = std::thread::Builder::new()
                    .name(format!("rank-{rank}"))
                    .stack_size(RANK_STACK_BYTES)
                    .spawn_scoped(scope, move || {
                        ddrtrace::set_track(rank as u32, &format!("rank-{rank}"));
                        let _body = ddrtrace::span("rank", "rank_body");
                        let comm = Comm::respawned_comm(Arc::clone(&world), &req);
                        let out = std::panic::catch_unwind(AssertUnwindSafe(|| f(&comm)));
                        world.mark_dead(rank);
                        world.elastic.rank_finished();
                        // A replacement's result is observable only
                        // through its communication; `run` returns
                        // the *initial* ranks' results.
                        match out {
                            Ok(_) => (),
                            Err(payload) => std::panic::resume_unwind(payload),
                        }
                    })
                    .expect("failed to spawn respawned rank thread");
                respawned.push(handle);
            }
            // Collect every rank's outcome before re-raising any panic: the
            // detector must be shut down and joined first, or resuming a
            // panic here would leave the scope blocked on it forever.
            let outcomes: Vec<_> = handles.into_iter().map(|h| h.join()).collect();
            let respawn_outcomes: Vec<_> = respawned.into_iter().map(|h| h.join()).collect();
            shutdown.store(true, Ordering::Release);
            if let Some(d) = detector {
                let _ = d.join();
            }
            if ddrtrace::enabled() {
                record_world_metrics(&world);
            }
            // Publish the schedule fingerprint before any panic can
            // propagate: the explorer reads it even for failing schedules.
            if let Some(sched) = &world.sched {
                sched.publish();
            }
            // Loan-leak scan: only meaningful when every rank finished
            // cleanly — a panicked or failed rank legitimately strands its
            // in-flight loans (the epoch sweep / Drop revocation handles
            // them), so a leak report there would be noise on top of the
            // real failure.
            let all_clean =
                outcomes.iter().all(|o| o.is_ok()) && respawn_outcomes.iter().all(|o| o.is_ok());
            if all_clean {
                if let Some(check) = &world.check {
                    if let Some(report) = check.leaked_loans() {
                        panic!("{}", crate::Error::LoanLeak(report));
                    }
                }
            }
            if own_capture {
                let trace = ddrtrace::capture::stop();
                if let Some(path) = &trace_path {
                    match trace.write_chrome(path) {
                        Ok(()) => eprintln!(
                            "minimpi: wrote trace ({} events, {} tracks) to {}\n{}",
                            trace.events.len(),
                            trace.tracks.len(),
                            path.display(),
                            trace.summary()
                        ),
                        Err(e) => {
                            eprintln!("minimpi: failed to write trace to {}: {e}", path.display())
                        }
                    }
                }
            }
            for o in respawn_outcomes {
                if let Err(payload) = o {
                    std::panic::resume_unwind(payload);
                }
            }
            outcomes
                .into_iter()
                .map(|o| o.unwrap_or_else(|e| std::panic::resume_unwind(e)))
                .collect()
        })
    }

    /// Like [`UniverseBuilder::run`] but for fallible rank bodies: returns
    /// the first error (by rank order) or all results.
    pub fn try_run<R, E, F>(&self, n: usize, f: F) -> Result<Vec<R>, E>
    where
        R: Send,
        E: Send,
        F: Fn(&Comm) -> Result<R, E> + Sync,
    {
        self.run(n, f).into_iter().collect()
    }
}

/// Fold this world's pool and transport counters into the unified metrics
/// registry. Traffic counters accumulate across universes within one capture
/// window; occupancy values are gauges and overwrite.
fn record_world_metrics(world: &WorldState) {
    let t = world.transport.snapshot();
    ddrtrace::metrics::add("minimpi.transport", "zerocopy_msgs", t.zerocopy_msgs);
    ddrtrace::metrics::add("minimpi.transport", "staged_msgs", t.staged_msgs);
    ddrtrace::metrics::add("minimpi.transport", "revoked_msgs", t.revoked_msgs);
    let p = world.pool.stats();
    ddrtrace::metrics::add("minimpi.pool", "acquires", p.acquires);
    ddrtrace::metrics::add("minimpi.pool", "reuse_hits", p.reuse_hits);
    ddrtrace::metrics::add("minimpi.pool", "trimmed_bytes", p.trimmed_bytes);
    ddrtrace::metrics::set("minimpi.pool", "free_bytes", p.free_bytes as u64);
    ddrtrace::metrics::set("minimpi.pool", "high_water_bytes", p.high_water_bytes as u64);
    ddrtrace::metrics::set("recover", "epoch", world.epoch());
    ddrtrace::metrics::add("recover", "respawns", world.elastic.respawns());
    ddrtrace::metrics::add("recover", "fenced_msgs", t.fenced_msgs);
    // Pack-kernel counters are process-global monotone totals (the kernel
    // layer has no per-world state), so publish with `set`, not `add` —
    // `add` would double-count them across universes in one process.
    let k = crate::kernels::snapshot();
    ddrtrace::metrics::set("pack", "fused_runs", k.fused_runs);
    ddrtrace::metrics::set("pack", "vector_bytes", k.vector_bytes);
    ddrtrace::metrics::set("pack", "scalar_bytes", k.scalar_bytes);
    let fl = world.flow.counters();
    ddrtrace::metrics::add("flow", "credit_waits", fl.credit_waits);
    ddrtrace::metrics::add("flow", "stalled_ms", fl.stalled_ms);
    ddrtrace::metrics::add("flow", "watchdog_defers", fl.watchdog_defers);
    ddrtrace::metrics::add("flow", "slow_peers", fl.slow_peers);
    ddrtrace::metrics::add("mem", "zerocopy_sheds", fl.zerocopy_sheds);
    ddrtrace::metrics::add("mem", "denials", fl.mem_denials);
    ddrtrace::metrics::add("mem", "pool_trims", fl.pool_trims);
    ddrtrace::metrics::set("mem", "used_bytes", world.flow.mem_used() as u64);
    ddrtrace::metrics::set("mem", "high_water_bytes", world.flow.mem_high_water() as u64);
    ddrtrace::metrics::set("mem", "budget_bytes", world.flow.config().mem_budget as u64);
    let i = world.integrity.snapshot();
    ddrtrace::metrics::add("integrity", "checked", i.checked);
    ddrtrace::metrics::add("integrity", "detected", i.detected);
    ddrtrace::metrics::add("integrity", "retransmits", i.retransmits);
    ddrtrace::metrics::add("integrity", "exhausted", i.exhausted);
    if let Some(check) = &world.check {
        let c = check.counters();
        ddrtrace::metrics::add("check", "races", c.races);
        ddrtrace::metrics::add("check", "deadlocks", c.deadlocks);
        ddrtrace::metrics::add("check", "divergences", c.divergences);
        ddrtrace::metrics::add("check", "type_mismatches", c.type_mismatches);
    }
    if world.sched.is_some() {
        ddrtrace::metrics::add("check", "schedules_explored", 1);
    }
}

impl Universe {
    /// Configure timeout and fault injection before launching.
    pub fn builder() -> UniverseBuilder {
        UniverseBuilder::default()
    }

    /// Run `f` on `n` ranks with default configuration. See
    /// [`UniverseBuilder::run`].
    pub fn run<R, F>(n: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(&Comm) -> R + Sync,
    {
        Self::builder().run(n, f)
    }

    /// Like [`Universe::run`] but for fallible rank bodies: returns the
    /// first error (by rank order) or all results.
    pub fn try_run<R, E, F>(n: usize, f: F) -> Result<Vec<R>, E>
    where
        R: Send,
        E: Send,
        F: Fn(&Comm) -> Result<R, E> + Sync,
    {
        Self::builder().try_run(n, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runs_all_ranks_and_orders_results() {
        let out = Universe::run(5, |comm| comm.rank() * 10);
        assert_eq!(out, vec![0, 10, 20, 30, 40]);
    }

    #[test]
    fn single_rank_world() {
        let out = Universe::run(1, |comm| (comm.rank(), comm.size()));
        assert_eq!(out, vec![(0, 1)]);
    }

    #[test]
    fn try_run_propagates_errors() {
        let r: Result<Vec<()>, String> =
            Universe::try_run(
                3,
                |comm| {
                    if comm.rank() == 1 {
                        Err("boom".to_string())
                    } else {
                        Ok(())
                    }
                },
            );
        assert_eq!(r.unwrap_err(), "boom");
    }

    #[test]
    #[should_panic]
    fn zero_ranks_panics() {
        let _ = Universe::run(0, |_| ());
    }

    #[test]
    fn builder_timeout_is_applied() {
        let out =
            Universe::builder().timeout(Duration::from_millis(1234)).run(1, |comm| comm.timeout());
        assert_eq!(out, vec![Duration::from_millis(1234)]);
    }

    #[test]
    fn check_enabled_runs_clean_programs_unchanged() {
        // Matched collectives under full checking: same results, no reports.
        let out = Universe::builder()
            .check(true)
            .run(3, |comm| comm.allreduce(&[comm.rank() as u64 + 1], |a, b| a + b)[0]);
        assert_eq!(out, vec![6, 6, 6]);
    }

    #[test]
    fn departed_rank_fails_peers_fast() {
        use std::time::Instant;
        // Rank 1 exits immediately; rank 0 blocks on a receive from it and
        // must fail with PeerDead well before the 30 s watchdog.
        let start = Instant::now();
        let out = Universe::builder().timeout(Duration::from_secs(30)).run(2, |comm| {
            if comm.rank() == 0 {
                comm.recv_bytes(1, 0).map(|_| ())
            } else {
                Ok(())
            }
        });
        assert_eq!(out[0], Err(crate::Error::PeerDead { rank: 1 }));
        assert!(start.elapsed() < Duration::from_secs(10));
    }
}
