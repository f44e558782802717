//! The repository's benchmark: four workloads run against the default
//! configuration (checksums on, zero-copy on, default pipeline depth, no
//! `DDR_*` variable), each a closed loop with one client on two rank
//! threads. See `perfbench/README.md` for why each workload exists.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <reorg_large|reorg_small_rounds|tiff_load|in_transit|all> \
//!     --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
//! ones. The last line of standard output is one JSON object; a fuller
//! record of the run goes to `perfbench/out/`.

mod baseline;
mod harness;
mod json;
mod reorg;
mod tiff;
mod transit;
mod workload;

use harness::{
    median, op_ms, percentile, Accounting, Control, Op, COUNTERS, PER_CALL, SETUP_LAYERS,
};
use json::J;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use workload::{Session, Workload, RANKS};

const WORKLOADS: [&str; 4] = ["reorg_large", "reorg_small_rounds", "tiff_load", "in_transit"];

/// The timed loop runs as this many sessions of equal length, each its own
/// universe; the op-time metrics pool the ops of all of them, so a slow
/// path in one universe moves them in proportion to its share of the ops.
/// Every session's own figures are in the run record.
const SESSIONS: u64 = 4;

/// Set-up trials after each timed session, each in a fresh process of this
/// program; `setup_s` is the median over them.
const TRIALS: u64 = 4;

/// Op indices of one session start at a multiple of this.
const SESSION_STRIDE: u64 = 1 << 32;

/// End-to-end metrics (`--trace 0`) and their units. `op_tail_ms`,
/// `throughput_mib_s` and `fail_ratio` are printed and recorded but not
/// gated. The tail and the throughput (a mean, so it carries the tail) move
/// with other tenants' load: across ten-run sets of one build their spread
/// reached 0.60 and 0.59 of the median, past the largest bound a metric may
/// have. A ratio that is 0 cannot take a relative bound.
const END_TO_END: [(&str, &str); 3] =
    [("setup_s", "s"), ("op_p50_ms", "ms"), ("peak_staging_bytes", "bytes")];

/// Per-layer metrics (`--trace 1`) and their units. A layer the workload
/// never enters reads 0.
const PER_LAYER: [(&str, &str); 43] = [
    ("core.setup_mapping_ms", "ms"),
    ("core.first_reorganize_ms", "ms"),
    ("core.reorganize_ms", "ms"),
    ("core.rank_skew_ms", "ms"),
    ("core.rounds", "count"),
    ("core.messages_sent", "count"),
    ("core.sent_bytes", "bytes"),
    ("core.local_bytes", "bytes"),
    ("core.effective_depth", "count"),
    ("core.throttled_rounds", "count"),
    ("core.pipeline_gate", "code"),
    ("minimpi.barrier_wait_ms", "ms"),
    ("minimpi.zerocopy_msgs", "count"),
    ("minimpi.staged_msgs", "count"),
    ("minimpi.loan_ratio", "ratio"),
    ("minimpi.integrity_checked", "count"),
    ("minimpi.integrity_retransmits", "count"),
    ("minimpi.pack_fused_runs", "count"),
    ("minimpi.pack_vector_bytes", "bytes"),
    ("minimpi.pack_scalar_bytes", "bytes"),
    ("minimpi.pack_pool_dispatches", "count"),
    ("minimpi.credit_waits", "count"),
    ("minimpi.credit_stalled_ms", "ms"),
    ("minimpi.pool_acquires", "count"),
    ("minimpi.pool_reuse_hits", "count"),
    ("dtiff.decode_ms", "ms"),
    ("dtiff.images_read", "count"),
    ("lbm.step_ms", "ms"),
    ("lbm.vorticity_ms", "ms"),
    ("intransit.send_frame_ms", "ms"),
    ("intransit.recv_step_ms", "ms"),
    ("intransit.repartition_ms", "ms"),
    ("intransit.frames_skipped", "count"),
    ("intransit.frame_retries", "count"),
    ("jimage.colormap_ms", "ms"),
    ("jimage.jpeg_encode_ms", "ms"),
    ("jimage.jpeg_ratio", "ratio"),
    ("trace.overhead_ratio", "ratio"),
    ("bench.unattributed_share", "ratio"),
    ("bench.input_gen_s", "s"),
    ("baseline.memcpy_gib_s", "GiB/s"),
    ("baseline.copy_to_ms", "ms"),
    ("baseline.computed_bytes_per_op", "bytes"),
];

/// Largest gap allowed between the traced op wall-clock and what the
/// published layer figures plus the unattributed remainder account for.
const RECONCILE_TOLERANCE: f64 = 0.05;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Run set-up trial `k` in this process and print its figures: the
    /// parent's fresh process for one `setup_s` sample.
    setup_trial: Option<u64>,
}

fn parse_args() -> Result<Args, String> {
    let mut a =
        Args { workload: String::new(), seed: 1, seconds: 10.0, trace: false, setup_trial: None };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = val()?,
            "--seed" => a.seed = val()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => a.seconds = val()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => a.trace = val()? == "1",
            "--setup-trial" => {
                a.setup_trial = Some(val()?.parse().map_err(|e| format!("--setup-trial: {e}"))?)
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if a.workload != "all" && !WORKLOADS.contains(&a.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?} or all"));
    }
    Ok(a)
}

/// Variables that change the configuration away from the defaults.
fn knob_env() -> Vec<(String, String)> {
    let mut v: Vec<_> = std::env::vars()
        .filter(|(k, _)| k.starts_with("DDR_") || k.starts_with("MINIMPI_"))
        .collect();
    v.sort();
    v
}

fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let result = match args.setup_trial {
        Some(k) => setup_trial(&args, k).map(|()| true),
        None if args.workload == "all" => return run_all(&args),
        None => run(&args),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            ExitCode::FAILURE
        }
    }
}

/// Run every workload in its own process, one after the other.
fn run_all(args: &Args) -> ExitCode {
    let mut ok = true;
    for w in WORKLOADS {
        ok &= own_process(w, args).status().is_ok_and(|s| s.success());
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// This program on `workload` with `args`' seed, seconds and trace flag.
fn own_process(workload: &str, args: &Args) -> std::process::Command {
    let mut cmd = std::process::Command::new(std::env::current_exe().expect("own executable"));
    cmd.args(["--workload", workload, "--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }]);
    cmd
}

/// Generate `args.workload`'s inputs from the seed.
fn make_workload(args: &Args, dir: &Path) -> Result<Box<dyn Workload>, String> {
    Ok(match args.workload.as_str() {
        "reorg_large" => Box::new(reorg::Reorg::new(reorg::Kind::Large, args.seed)),
        "reorg_small_rounds" => Box::new(reorg::Reorg::new(reorg::Kind::SmallRounds, args.seed)),
        "tiff_load" => {
            Box::new(tiff::Tiff::new(args.seed, dir.join(format!("stack-{}", std::process::id())))?)
        }
        _ => Box::new(transit::Transit::new(args.seed)),
    })
}

/// What one set-up trial reports: its `setup_s`, whether the first op
/// passed its check, and in a traced run the set-up layer times (NaN where
/// the workload has no such span).
struct Trial {
    setup_s: f64,
    ok: bool,
    layers: [f64; 2],
}

/// The child side of a set-up trial: generate the inputs, then time a
/// universe from launch to the end of its first op, in a process that has
/// run nothing else. Prints `setup <s> <ok> <layer ms> <layer ms>`.
fn setup_trial(args: &Args, k: u64) -> Result<(), String> {
    let dir = out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let wl = make_workload(args, &dir)?;
    if args.trace {
        ddrtrace::capture::start();
    }
    let session = wl.session(&Control::new(0.0, 0), Some(k));
    let mut acc = Accounting::default();
    if args.trace {
        acc.absorb(ddrtrace::capture::stop());
    }
    let session = session?;
    let layer = |n| acc.layer_ms.get(n).map_or(f64::NAN, |v| median(v));
    println!(
        "setup {} {} {} {}",
        session.setup_s,
        u8::from(session.first_ok),
        layer(SETUP_LAYERS[0]),
        layer(SETUP_LAYERS[1])
    );
    Ok(())
}

/// The parent side: run set-up trial `k` in a fresh process and read it.
fn spawn_trial(args: &Args, k: u64) -> Result<Trial, String> {
    let out = own_process(&args.workload, args)
        .args(["--setup-trial", &k.to_string()])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("set-up trial {k}: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    let line = text.lines().rev().find_map(|l| l.strip_prefix("setup "));
    let (Some(line), true) = (line, out.status.success()) else {
        return Err(format!("set-up trial {k} failed ({})", out.status));
    };
    let v: Vec<f64> = line.split(' ').map(|x| x.parse().unwrap_or(f64::NAN)).collect();
    if v.len() != 4 || !v[0].is_finite() {
        return Err(format!("set-up trial {k}: unreadable report {line:?}"));
    }
    Ok(Trial { setup_s: v[0], ok: v[1] == 1.0, layers: [v[2], v[3]] })
}

/// Run one workload; prints its report and returns whether it was correct.
fn run(args: &Args) -> Result<bool, String> {
    let env = knob_env();
    if !env.is_empty() {
        eprintln!(
            "perfbench: {:?} set: this is not the default configuration, so the run is not correct",
            env.iter().map(|(k, _)| k).collect::<Vec<_>>()
        );
    }
    let dir = out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let gen = Instant::now();
    let wl = make_workload(args, &dir)?;
    let input_gen_s = gen.elapsed().as_secs_f64();

    let ctl =
        Control::new(args.seconds / SESSIONS as f64, if args.trace { wl.window() } else { 0 });
    let (mut setups, mut session_setups, mut sessions) = (Vec::new(), Vec::new(), Vec::new());
    let mut first_fail = 0;
    for s in 0..SESSIONS {
        ctl.rearm(s * SESSION_STRIDE);
        let main = wl.session(&ctl, None)?;
        session_setups.push(main.setup_s);
        first_fail += usize::from(!main.first_ok);
        sessions.push(main);
        for k in s * TRIALS..(s + 1) * TRIALS {
            let trial = spawn_trial(args, k)?;
            setups.push(trial.setup_s);
            first_fail += usize::from(!trial.ok);
            let mut acc = ctl.acc.lock().expect("accounting lock");
            for (name, v) in SETUP_LAYERS.iter().zip(trial.layers) {
                if v.is_finite() {
                    acc.layer_ms.entry(name).or_default().push(v);
                }
            }
        }
    }
    let gate = ddr_core::pipeline_fallback_engaged();
    let blocks: Vec<Block> = sessions.iter().map(|s| Block::of(&s.timed)).collect();
    let main = workload::combine(sessions);

    let all_ops = main.warm.iter().chain(&main.timed);
    let attempted = (SESSIONS * (1 + TRIALS)) as usize + main.warm.len() + main.timed.len();
    let failed = first_fail + all_ops.filter(|o| !o.ok).count();
    let fail_ratio = failed as f64 / attempted as f64;
    // Untraced `tiff_load` and `in_transit` ops make no call that reports
    // redistribution stats, so their depth is not visible.
    let depth = main
        .timed
        .iter()
        .any(|o| o.stats.is_some())
        .then(|| stat_median(&main.timed, |s| s.effective_depth as f64));
    let depth_label = depth.map_or("not visible".to_string(), |d| d.to_string());
    let pooled = Block::of(&main.timed);
    let throughput = wl.payload_bytes() / (1 << 20) as f64 * pooled.ok_per_s;
    let mut record = vec![
        ("workload", J::s(&args.workload)),
        ("seed", J::I(args.seed)),
        ("seconds", J::N(args.seconds)),
        ("trace", J::B(args.trace)),
        ("ranks", J::I(RANKS as u64)),
        ("nproc", J::I(std::thread::available_parallelism().map_or(0, |n| n.get()) as u64)),
        ("knob_env", J::O(env.iter().map(|(k, v)| (k.clone(), J::s(v))).collect())),
        ("pipeline_gate", J::s(gate_label(gate))),
        ("effective_depth", depth.map_or(J::s(&depth_label), J::N)),
        ("attempted", J::I(attempted as u64)),
        ("failed", J::I(failed as u64)),
        ("fail_ratio", J::N(fail_ratio)),
        ("timed_ops", J::I(main.timed.len() as u64)),
        ("setup_samples_s", J::A(setups.iter().map(|&v| J::N(v)).collect())),
        ("session_setup_s", J::A(session_setups.iter().map(|&v| J::N(v)).collect())),
        ("op_tail_ms", J::N(pooled.tail_ms)),
        ("op_tail_samples_beyond", J::I(pooled.tail_beyond as u64)),
        ("throughput_mib_s", J::N(throughput)),
        (
            "sessions",
            J::A(
                blocks
                    .iter()
                    .map(|b| {
                        J::O(vec![
                            ("ops".into(), J::I(b.ops as u64)),
                            ("p50_ms".into(), J::N(b.p50_ms)),
                            ("tail_samples_beyond".into(), J::I(b.tail_beyond as u64)),
                            ("tail_ms".into(), J::N(b.tail_ms)),
                            ("ok_ops_per_s".into(), J::N(b.ok_per_s)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "op_ms_percentiles",
            J::O(
                [50.0, 90.0, 99.0, 99.9, 100.0]
                    .iter()
                    .map(|&p| (format!("p{p}"), J::N(percentile(&op_ms(&main.timed), p))))
                    .collect(),
            ),
        ),
    ];
    let mut correct = failed == 0 && env.is_empty();
    let metrics: Vec<(&str, f64, &str)> = if args.trace {
        let mut layers = per_layer(wl.as_ref(), &main, &ctl, gate, input_gen_s);
        let acc = ctl.acc.lock().expect("accounting lock");
        let (share, gap) = reconcile(&main, &acc, &layers);
        layers.insert("bench.unattributed_share", share);
        record.push(("reconcile_gap", J::N(gap)));
        record.push(("trace_dropped_events", J::I(acc.dropped)));
        if let Some(trace) = &acc.first {
            let path = dir.join(format!("{}-s{}.trace.json", args.workload, args.seed));
            trace.write_chrome(&path).map_err(|e| format!("{}: {e}", path.display()))?;
            record.push(("chrome_trace", J::s(&path.display().to_string())));
        }
        let overhead = layers["trace.overhead_ratio"];
        let copy_ok = args.workload != "tiff_load"
            || (tiff::COPY_BAND.0..=tiff::COPY_BAND.1).contains(&overhead);
        println!("  reconcile gap {gap:.6} (at most {RECONCILE_TOLERANCE}), traced op copy in band: {copy_ok}");
        let retransmits = layers["minimpi.integrity_retransmits"];
        correct &= gap <= RECONCILE_TOLERANCE && copy_ok && acc.dropped == 0 && retransmits == 0.0;
        PER_LAYER.iter().map(|&(name, unit)| (name, layers[name], unit)).collect()
    } else {
        let values = [median(&setups), pooled.p50_ms, main.peak_staging as f64];
        END_TO_END.iter().zip(values).map(|(&(n, u), v)| (n, v, u)).collect()
    };
    record.push(("correct", J::B(correct)));

    // Human-readable report, then the full record, then the result line.
    println!(
        "{} seed={} trace={} ranks={RANKS} attempted={attempted} failed={failed} \
         gate={} depth={}",
        args.workload,
        args.seed,
        u8::from(args.trace),
        gate_label(gate),
        depth_label,
    );
    if !env.is_empty() {
        println!("  knob_env {env:?}: not the default configuration");
    }
    for (n, v, u) in &metrics {
        println!("  {n:<34} {v:>16.6} {u}");
    }
    if !args.trace {
        println!(
            "  {:<34} {:>16.6} ms (p90, {} ops beyond it)",
            "op_tail_ms", pooled.tail_ms, pooled.tail_beyond
        );
        println!("  {:<34} {throughput:>16.6} MiB/s", "throughput_mib_s");
        println!("  {:<34} {fail_ratio:>16.6} ratio", "fail_ratio");
        for b in &blocks {
            println!(
                "  session of {} ops: p50 {:.6} ms, p90 {:.6} ms ({} beyond it)",
                b.ops, b.p50_ms, b.tail_ms, b.tail_beyond
            );
        }
    }
    let metric_obj = |with_unit: bool| {
        J::O(
            metrics
                .iter()
                .map(|&(n, v, u)| {
                    let val = if with_unit {
                        J::O(vec![("value".into(), J::N(v)), ("unit".into(), J::s(u))])
                    } else {
                        J::N(v)
                    };
                    (n.to_string(), val)
                })
                .collect(),
        )
    };
    record.push(("metrics", metric_obj(false)));
    let path = dir.join(format!("{}-s{}-t{}.json", args.workload, args.seed, u8::from(args.trace)));
    let rec = J::O(record.into_iter().map(|(k, v)| (k.to_string(), v)).collect());
    std::fs::write(&path, rec.to_string() + "\n")
        .map_err(|e| format!("{}: {e}", path.display()))?;
    let line = J::O(vec![
        ("correct".into(), J::B(correct)),
        ("attempted".into(), J::I(attempted as u64)),
        ("failed".into(), J::I(failed as u64)),
        ("metrics".into(), metric_obj(true)),
    ]);
    println!("{line}");
    Ok(correct)
}

/// Op-time figures of one session's timed ops.
struct Block {
    ops: usize,
    p50_ms: f64,
    /// p90, with the number of ops beyond it.
    tail_ms: f64,
    tail_beyond: usize,
    /// Ops that passed per second of their summed time.
    ok_per_s: f64,
}

impl Block {
    fn of(ops: &[Op]) -> Block {
        let ms = op_ms(ops);
        let ok: Vec<f64> = ops.iter().filter(|o| o.ok).map(|o| o.ms).collect();
        Block {
            ops: ops.len(),
            p50_ms: percentile(&ms, 50.0),
            tail_ms: percentile(&ms, 90.0),
            tail_beyond: harness::beyond(ops.len(), 90.0),
            ok_per_s: ok.len() as f64 / (ok.iter().sum::<f64>() / 1e3),
        }
    }
}

fn gate_label(gate: Option<bool>) -> &'static str {
    match gate {
        None => "undecided",
        Some(false) => "kept_pipelining",
        Some(true) => "fell_back_to_depth_1",
    }
}

/// Median over ops that report redistribution stats of `f(stats)`.
fn stat_median(ops: &[Op], f: impl Fn(&ddr_core::RedistStats) -> f64) -> f64 {
    median(&ops.iter().filter_map(|o| o.stats.as_ref().map(&f)).collect::<Vec<_>>())
}

/// Check the published layer figures against the traced op time. Each
/// traced op runs from the first rank starting it to the last rank ending
/// it; what the last rank's layer spans do not cover is unattributed, and
/// `bench.unattributed_share` is its share of the traced op time. For each
/// rank, the published figure of every layer its ops contain (times the
/// calls per op for per-call layers) plus that share of the traced median
/// op time predicts the median; the slowest rank's prediction must match
/// it. Returns the share and the relative gap.
fn reconcile(main: &Session, acc: &Accounting, layers: &BTreeMap<&'static str, f64>) -> (f64, f64) {
    // Traced op -> (first start, last end, the rank that ended last).
    let mut ops: BTreeMap<u64, (Instant, Instant, usize)> = BTreeMap::new();
    for (rank, recs) in main.rank_timed.iter().enumerate() {
        for rec in recs.iter().filter(|r| r.traced) {
            let e = ops.entry(rec.index).or_insert((rec.start, rec.end, rank));
            e.0 = e.0.min(rec.start);
            if rec.end > e.1 {
                (e.1, e.2) = (rec.end, rank);
            }
        }
    }
    let (mut wall, mut unattributed) = (0.0, 0.0);
    for (op, (start, end, rank)) in ops {
        if let Some(&covered) = acc.covered_ms.get(&(rank, op)) {
            let w = harness::ms(end - start);
            wall += w;
            unattributed += (w - covered).max(0.0);
        }
    }
    let traced: Vec<Op> = main.timed.iter().filter(|o| o.traced).copied().collect();
    let p50 = percentile(&op_ms(&traced), 50.0);
    if wall == 0.0 || p50 == 0.0 {
        return (0.0, f64::INFINITY);
    }
    let share = unattributed / wall;
    let predicted = acc
        .ops
        .iter()
        .map(|(&rank, &n)| {
            acc.calls
                .iter()
                .filter(|((r, _), _)| *r == rank)
                .map(|(&(_, name), &calls)| {
                    let per_op =
                        if PER_CALL.contains(&name) { calls as f64 / n as f64 } else { 1.0 };
                    layers.get(name).copied().unwrap_or(0.0) * per_op
                })
                .sum::<f64>()
        })
        .fold(0.0, f64::max)
        + share * p50;
    (share, (predicted - p50).abs() / p50)
}

/// Every per-layer metric but `bench.unattributed_share`.
fn per_layer(
    wl: &dyn Workload,
    main: &Session,
    ctl: &Control,
    gate: Option<bool>,
    input_gen_s: f64,
) -> BTreeMap<&'static str, f64> {
    let acc = ctl.acc.lock().expect("accounting lock");
    let (c, _) = *ctl.counters.lock().expect("counter lock");
    let traced: Vec<Op> = main.timed.iter().filter(|o| o.traced).copied().collect();
    let untraced: Vec<Op> = main.timed.iter().filter(|o| !o.traced).copied().collect();
    let base = baseline::measure();
    println!(
        "  baseline: memcpy over two {} MiB arrays (4x the {} MiB LLC); \
         computed bytes are bytes read plus written by a copy-once exchange",
        base.array_bytes >> 20,
        base.llc_bytes >> 20
    );
    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
    for name in [
        "core.setup_mapping_ms",
        "core.first_reorganize_ms",
        "core.reorganize_ms",
        "minimpi.barrier_wait_ms",
        "dtiff.decode_ms",
        "lbm.step_ms",
        "lbm.vorticity_ms",
        "intransit.send_frame_ms",
        "intransit.recv_step_ms",
        "intransit.repartition_ms",
        "jimage.colormap_ms",
        "jimage.jpeg_encode_ms",
    ] {
        m.insert(name, acc.layer(name));
    }
    let skew_of = if acc.skew_ms.contains_key("core.reorganize_ms") {
        "core.reorganize_ms"
    } else {
        "core.first_reorganize_ms"
    };
    m.insert("core.rank_skew_ms", acc.skew(skew_of));
    m.insert("core.rounds", stat_median(&traced, |s| s.rounds as f64));
    m.insert("core.messages_sent", stat_median(&traced, |s| s.messages_sent as f64));
    m.insert("core.sent_bytes", stat_median(&traced, |s| s.sent_bytes as f64));
    m.insert("core.local_bytes", stat_median(&traced, |s| s.local_bytes as f64));
    m.insert("core.effective_depth", stat_median(&traced, |s| s.effective_depth as f64));
    m.insert("core.throttled_rounds", stat_median(&traced, |s| s.throttled_rounds as f64));
    m.insert("core.pipeline_gate", f64::from(gate.map_or(0, |fell_back| 1 + u8::from(fell_back))));
    for (name, v) in COUNTERS.iter().zip(c.0) {
        m.insert(name, v as f64 / traced.len().max(1) as f64);
    }
    let (loans, staged) = (m["minimpi.zerocopy_msgs"], m["minimpi.staged_msgs"]);
    m.insert("minimpi.loan_ratio", if loans == 0.0 { 0.0 } else { loans / (loans + staged) });
    for name in [
        "dtiff.images_read",
        "intransit.frames_skipped",
        "intransit.frame_retries",
        "jimage.jpeg_ratio",
    ] {
        m.insert(name, main.extra.get(name).copied().unwrap_or(0.0));
    }
    m.insert(
        "trace.overhead_ratio",
        percentile(&op_ms(&traced), 50.0) / percentile(&op_ms(&untraced), 50.0),
    );
    m.insert("bench.input_gen_s", input_gen_s);
    m.insert("baseline.memcpy_gib_s", base.memcpy_gib_s);
    m.insert("baseline.copy_to_ms", base.copy_to_ms);
    m.insert("baseline.computed_bytes_per_op", 2.0 * wl.delivered_bytes());
    m
}
