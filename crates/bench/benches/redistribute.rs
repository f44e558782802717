//! Zero-copy vs staged data-movement plane, measured on the same
//! redistribution cases (1-D/2-D/3-D, three sizes each, 4 ranks).
//!
//! Each measurement times only the `reorganize` loop *inside* the universe
//! (between barriers), excluding thread spawn and mapping setup, and takes
//! the slowest rank — the completion time of the collective.
//!
//! Besides the criterion console report, a full run (not `--test` smoke
//! mode) rewrites `BENCH_redistribute.json` at the workspace root; the
//! headline entry is the 2-D in-transit repartition (row slabs → column
//! slabs), the paper's simulation→visualization hand-off pattern. Each case
//! also carries a per-phase span breakdown (pack/send/copy/unpack, mailbox
//! waits, plan rounds) from one traced sample via the `ddrtrace` plane.

use criterion::{BenchmarkId, Criterion, Throughput};
use ddr_core::decompose::{brick, near_cubic_grid, slab};
use ddr_core::{Block, DataKind, Descriptor, ValidationPolicy};
use minimpi::Universe;
use std::hint::black_box;
use std::time::{Duration, Instant};

const NPROCS: usize = 4;

/// One redistribution case: a domain plus the producer→consumer layout rule.
#[derive(Clone, Copy)]
struct Case {
    name: &'static str,
    kind: DataKind,
    domain: Block,
    /// Owned chunks per rank; the plan's round count. 1 = the classic
    /// single-round cases, > 1 = the multi-round family.
    chunks: usize,
    /// Inner `reorganize` repetitions per timed sample (amortizes small cases).
    reps: u32,
}

fn cases() -> Vec<Case> {
    let mut v = Vec::new();
    for (name, len) in [
        ("1d/repartition/64Ki", 1usize << 16),
        ("1d/repartition/1Mi", 1 << 20),
        ("1d/repartition/4Mi", 1 << 22),
    ] {
        v.push(Case {
            name,
            kind: DataKind::D1,
            domain: Block::d1(0, len).unwrap(),
            chunks: 1,
            reps: 0,
        });
    }
    for (name, n) in [
        ("2d/in_transit_repartition/256", 256usize),
        ("2d/in_transit_repartition/1024", 1024),
        ("2d/in_transit_repartition/2048", 2048),
    ] {
        v.push(Case {
            name,
            kind: DataKind::D2,
            domain: Block::d2([0, 0], [n, n]).unwrap(),
            chunks: 1,
            reps: 0,
        });
    }
    for (name, n) in [
        ("3d/slabs_to_bricks/32", 32usize),
        ("3d/slabs_to_bricks/64", 64),
        ("3d/slabs_to_bricks/128", 128),
    ] {
        v.push(Case {
            name,
            kind: DataKind::D3,
            domain: Block::d3([0, 0, 0], [n, n, n]).unwrap(),
            chunks: 1,
            reps: 0,
        });
    }
    // Multi-round family: each rank owns four interleaved column slabs, so
    // the plan runs four alltoallw rounds, one after another.
    for (name, n) in [
        ("2d/multiround_repartition/512", 512usize),
        ("2d/multiround_repartition/1024", 1024),
        ("2d/multiround_repartition/2048", 2048),
    ] {
        v.push(Case {
            name,
            kind: DataKind::D2,
            domain: Block::d2([0, 0], [n, n]).unwrap(),
            chunks: 4,
            reps: 0,
        });
    }
    for c in &mut v {
        let bytes = c.domain.count() * 4;
        // Small cases finish in tens of microseconds; run enough inner reps
        // that scheduler jitter cannot flip which plane "wins" when both run
        // the same code (sub-threshold messages stage on either path).
        c.reps = ((4u64 << 20) / bytes.max(1)).clamp(1, 32) as u32;
    }
    v
}

/// Producer layout (the chunks each rank owns) and consumer layout (the
/// block it needs).
fn layouts(case: &Case, r: usize) -> (Vec<Block>, Block) {
    match case.kind {
        // 1-D: reverse the rank order so every byte crosses ranks.
        DataKind::D1 => (
            vec![slab(&case.domain, 0, NPROCS, r).unwrap()],
            slab(&case.domain, 0, NPROCS, NPROCS - 1 - r).unwrap(),
        ),
        // 2-D single-chunk: row slabs → column slabs, the in-transit
        // repartition. Multi-chunk: rank r owns interleaved column slabs
        // r, r+NPROCS, ... (one per round) and needs a row slab.
        DataKind::D2 => {
            if case.chunks == 1 {
                (
                    vec![slab(&case.domain, 1, NPROCS, r).unwrap()],
                    slab(&case.domain, 0, NPROCS, r).unwrap(),
                )
            } else {
                let owned = (0..case.chunks)
                    .map(|k| slab(&case.domain, 1, NPROCS * case.chunks, r + NPROCS * k).unwrap())
                    .collect();
                (owned, slab(&case.domain, 0, NPROCS, r).unwrap())
            }
        }
        // 3-D: z-slabs → near-cubic bricks.
        DataKind::D3 => (
            vec![slab(&case.domain, 2, NPROCS, r).unwrap()],
            brick(&case.domain, near_cubic_grid(NPROCS), r).unwrap(),
        ),
    }
}

/// Time `reps` reorganizations through the selected plane; returns the
/// slowest rank's per-reorganize time.
fn inner_time(case: &Case, zerocopy: bool, checksum: bool) -> Duration {
    let case = *case;
    let times =
        Universe::builder().zerocopy(zerocopy).checksum(checksum).run(NPROCS, move |comm| {
            let r = comm.rank();
            let (owned, need) = layouts(&case, r);
            let desc = Descriptor::for_type::<f32>(NPROCS, case.kind).unwrap();
            let plan =
                desc.setup_data_mapping_with(comm, &owned, need, ValidationPolicy::Skip).unwrap();
            let data: Vec<Vec<f32>> =
                owned.iter().map(|b| vec![r as f32 + 0.5; b.count() as usize]).collect();
            let refs: Vec<&[f32]> = data.iter().map(|v| v.as_slice()).collect();
            let mut out = vec![0f32; need.count() as usize];
            comm.barrier().unwrap();
            let start = Instant::now();
            for _ in 0..case.reps {
                let (report, _) = plan
                    .reorganize_with_stats(comm, &refs, &mut out, ddr_core::Strategy::Alltoallw)
                    .unwrap();
                assert!(report.is_complete());
            }
            let elapsed = start.elapsed();
            black_box(&out);
            elapsed / case.reps
        });
    times.into_iter().max().unwrap()
}

/// One flow-governor probe of a case: governor high-water and credit-stall
/// share.
struct FlowProbe {
    /// Governor high-water mark across the run, bytes.
    peak_staging_bytes: usize,
    /// Sender park time as a share of total rank-time (stalled ms across
    /// all ranks / (wall-clock × NPROCS)).
    credit_stall_share: f64,
    /// Per-reorganize slowest-rank time, like [`inner_time`].
    elapsed: Duration,
}

/// Run a case once through the *staged* plane (zero-copy loans charge the
/// governor nothing, so staged is the plane whose footprint the governor
/// actually meters) under an optional memory budget, and read the flow
/// ledger. `budget == 0` leaves the governor unmetered.
fn flow_probe(case: &Case, budget: usize) -> FlowProbe {
    let case = *case;
    let mut builder = Universe::builder().zerocopy(false).checksum(true);
    if budget > 0 {
        builder = builder.mem_budget(budget);
    }
    let out = builder.run(NPROCS, move |comm| {
        let r = comm.rank();
        let (owned, need) = layouts(&case, r);
        let desc = Descriptor::for_type::<f32>(NPROCS, case.kind).unwrap();
        let plan =
            desc.setup_data_mapping_with(comm, &owned, need, ValidationPolicy::Skip).unwrap();
        let data: Vec<Vec<f32>> =
            owned.iter().map(|b| vec![r as f32 + 0.5; b.count() as usize]).collect();
        let refs: Vec<&[f32]> = data.iter().map(|v| v.as_slice()).collect();
        let mut out = vec![0f32; need.count() as usize];
        comm.barrier().unwrap();
        let start = Instant::now();
        for _ in 0..case.reps {
            let (report, _) = plan
                .reorganize_with_stats(comm, &refs, &mut out, ddr_core::Strategy::Alltoallw)
                .unwrap();
            assert!(report.is_complete());
        }
        let elapsed = start.elapsed();
        black_box(&out);
        // The ledger is universe-global, so any rank's reading is the run's.
        (elapsed, comm.mem_high_water(), comm.flow_counters().stalled_ms)
    });
    let wall = out.iter().map(|s| s.0).max().unwrap();
    let (_, peak, stalled_ms) = out[0];
    FlowProbe {
        peak_staging_bytes: peak,
        credit_stall_share: stalled_ms as f64 / (wall.as_secs_f64() * 1e3 * NPROCS as f64).max(1.0),
        elapsed: wall / case.reps,
    }
}

/// The measured planes: zero-copy and staged, each with envelope checksums
/// on (the default) and off (`DDR_CHECKSUM=0`). The `nochecksum` columns
/// exist so the integrity plane's cost is a measured number in the JSON
/// report, not a claim.
const PATHS: [(&str, bool, bool); 4] = [
    ("zerocopy", true, true),
    ("staged", false, true),
    ("zerocopy_nochecksum", true, false),
    ("staged_nochecksum", false, false),
];

/// Timed samples per column. Odd, so the median is a real sample.
const SAMPLES: usize = 9;

fn bench_redistribute(c: &mut Criterion) {
    let samples = if c.is_test_mode() { 1 } else { SAMPLES };
    for case in cases() {
        // Every column of a case is sampled round-robin — all columns see
        // sample 1 before any sees sample 2 — instead of running each
        // column's samples as its own block. Machine-state drift between
        // blocks (frequency scaling, page-cache warmth, sibling load) used
        // to dominate the small cases: two columns executing *byte-identical
        // code* measured tens of percent apart. Interleaving puts every
        // column under the same drift, so their medians stay comparable.
        let mut times: Vec<Vec<Duration>> = vec![Vec::with_capacity(samples); PATHS.len()];
        for _ in 0..samples {
            for (col, &(_, zerocopy, checksum)) in PATHS.iter().enumerate() {
                times[col].push(inner_time(&case, zerocopy, checksum));
            }
        }
        for (col, &(path, ..)) in PATHS.iter().enumerate() {
            times[col].sort_unstable();
            let median = times[col][times[col].len() / 2];
            c.record(
                "redistribute",
                BenchmarkId::new(case.name, path),
                median,
                Some(Throughput::Bytes(case.domain.count() * 4)),
            );
        }
    }
}

/// One per-phase summary row: `(phase, count, total_ns, max_ns)`.
type PhaseRow = (String, u64, u64, u64);

/// One traced run of a case through the zero-copy plane: capture the span
/// stream and fold it into [`PhaseRow`]s — the per-phase breakdown the JSON
/// report carries next to the raw timings — plus the number of messages the
/// run actually loaned (zero means every message sat below
/// `DDR_ZC_THRESHOLD` and staged instead).
fn phase_breakdown(case: &Case) -> (Vec<PhaseRow>, u64) {
    ddrtrace::capture::start();
    inner_time(case, true, true);
    let trace = ddrtrace::capture::stop();
    let loaned = trace
        .metrics
        .iter()
        .find(|(k, _)| k == "minimpi.transport.zerocopy_msgs")
        .map_or(0, |(_, v)| *v);
    let rows = trace
        .summary()
        .rows
        .iter()
        .map(|r| (r.phase.clone(), r.count, r.total_ns, r.max_ns))
        .collect();
    (rows, loaned)
}

/// Pair up `<case>/zerocopy` and `<case>/staged` results and write the
/// machine-readable report the acceptance gate reads.
fn emit_json(c: &Criterion) {
    let results = c.results();
    let lookup = |name: &str, path: &str| -> Option<Duration> {
        let key = format!("redistribute/{name}/{path}");
        results.iter().find(|(id, _)| *id == key).map(|(_, d)| *d)
    };
    let mut entries = Vec::new();
    for case in cases() {
        let (Some(zc), Some(st)) = (lookup(case.name, "zerocopy"), lookup(case.name, "staged"))
        else {
            continue;
        };
        let (Some(zc_ns), Some(st_ns)) =
            (lookup(case.name, "zerocopy_nochecksum"), lookup(case.name, "staged_nochecksum"))
        else {
            continue;
        };
        let pack_before = minimpi::pack_counters();
        let (phases, loaned) = phase_breakdown(&case);
        let pack_after = minimpi::pack_counters();
        let flow = flow_probe(&case, 0);
        // Both measurements are reported as measured, always. When every
        // message of a case sits below the loan threshold (`loaned == 0`)
        // the two planes execute the identical staged code, so their ratio
        // is pure scheduler noise around 1.0 — those cases report
        // `"speedup": null` (and `"identical_path": true`): a ratio of two
        // samples of the same code is not a speedup, and publishing one
        // invited reading noise as regression.
        let speedup = (loaned > 0).then(|| st.as_secs_f64() / zc.as_secs_f64().max(1e-12));
        entries.push((
            case,
            zc,
            st,
            zc_ns,
            st_ns,
            speedup,
            phases,
            loaned,
            pack_before,
            pack_after,
            flow,
        ));
    }
    let headline = "2d/in_transit_repartition/2048";
    let mut json = String::from("{\n  \"bench\": \"redistribute\",\n  \"element\": \"f32\",\n");
    json.push_str(&format!("  \"nprocs\": {NPROCS},\n"));
    // Constrained-budget exhibit: re-run the deepest multi-round case on the
    // staged plane with the governor set to 25 % of its just-measured
    // unconstrained high-water — floored at 5/4 of one round's global
    // cross-rank bytes, the analytic minimum below which an alltoallw's
    // senders can all park with no receiver yet draining (the gate then
    // converts the wedge into a structured MemoryPressure rather than
    // degrading). Degradation must be smooth: the run completes
    // (flow_probe asserts completeness), the measured peak stays inside
    // the budget, and the slowdown is an honest measured ratio — not a
    // crash, not a hang.
    let constrained_case = "2d/multiround_repartition/2048";
    if let Some((case, .., flow)) = entries.iter().find(|(c, ..)| c.name == constrained_case) {
        let all: Vec<ddr_core::Layout> = (0..NPROCS)
            .map(|r| {
                let (owned, need) = layouts(case, r);
                ddr_core::Layout { owned, need }
            })
            .collect();
        let gs = ddr_core::GlobalStats::compute(&all, 4);
        let round_global_max =
            gs.sent.iter().map(|r| r.iter().sum::<u64>()).max().unwrap_or(0) as usize;
        let budget = (flow.peak_staging_bytes / 4).max(round_global_max + round_global_max / 4);
        let cons = flow_probe(case, budget);
        json.push_str(&format!(
            "  \"constrained_budget\": {{\n    \"case\": \"{constrained_case}\",\n    \
             \"unconstrained_peak_staging_bytes\": {},\n    \
             \"round_global_max_bytes\": {round_global_max},\n    \
             \"mem_budget\": {budget},\n    \
             \"peak_staging_bytes\": {},\n    \
             \"within_budget\": {},\n    \
             \"credit_stall_share\": {:.4},\n    \
             \"unconstrained_ns\": {},\n    \
             \"constrained_ns\": {},\n    \
             \"slowdown\": {:.3}\n  }},\n",
            flow.peak_staging_bytes,
            cons.peak_staging_bytes,
            cons.peak_staging_bytes <= budget,
            cons.credit_stall_share,
            flow.elapsed.as_nanos(),
            cons.elapsed.as_nanos(),
            cons.elapsed.as_secs_f64() / flow.elapsed.as_secs_f64().max(1e-12),
        ));
    }
    if let Some((_, zc, st, _, _, sp, ..)) = entries.iter().find(|(c, ..)| c.name == headline) {
        let sp_json = sp.map_or("null".to_string(), |s| format!("{s:.3}"));
        json.push_str(&format!(
            "  \"headline\": {{\n    \"case\": \"{headline}\",\n    \"zerocopy_ns\": {},\n    \
             \"staged_ns\": {},\n    \"speedup\": {sp_json}\n  }},\n",
            zc.as_nanos(),
            st.as_nanos(),
        ));
    }
    json.push_str("  \"cases\": [\n");
    for (i, (case, zc, st, zc_ns, st_ns, sp, phases, loaned, pack_before, pack_after, flow)) in
        entries.iter().enumerate()
    {
        // Checksum cost per plane: on/off ratio, > 1.0 = slower. Staged
        // hashes every payload byte during pack and again during unpack;
        // zero-copy hashes at lend time and during the claim copy.
        let checksum_cost = st.as_secs_f64() / st_ns.as_secs_f64().max(1e-12);
        let zerocopy_checksum_cost = zc.as_secs_f64() / zc_ns.as_secs_f64().max(1e-12);
        let sp_json = sp.map_or("null".to_string(), |s| format!("{s:.3}"));
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"bytes\": {}, \"rounds\": {}, \
             \"zerocopy_ns\": {}, \"staged_ns\": {}, \
             \"zerocopy_nochecksum_ns\": {}, \"staged_nochecksum_ns\": {}, \
             \"checksum_cost\": {:.3}, \"zerocopy_checksum_cost\": {:.3}, \
             \"peak_staging_bytes\": {}, \"credit_stall_share\": {:.4}, \
             \"speedup\": {sp_json}, \"loaned_msgs\": {loaned}, \"identical_path\": {},\n",
            case.name,
            case.domain.count() * 4,
            case.chunks,
            zc.as_nanos(),
            st.as_nanos(),
            zc_ns.as_nanos(),
            st_ns.as_nanos(),
            checksum_cost,
            zerocopy_checksum_cost,
            flow.peak_staging_bytes,
            flow.credit_stall_share,
            *loaned == 0,
        ));
        // Pack-kernel dispatch deltas across the traced sample: which tier
        // (fused memcpy / lane gather / scalar) this case's selections
        // actually ran through.
        json.push_str(&format!(
            "     \"pack\": {{\"fused_runs\": {}, \"vector_bytes\": {}, \
             \"scalar_bytes\": {}}},\n",
            pack_after.fused_runs - pack_before.fused_runs,
            pack_after.vector_bytes - pack_before.vector_bytes,
            pack_after.scalar_bytes - pack_before.scalar_bytes,
        ));
        json.push_str("     \"phases\": [\n");
        for (j, (phase, count, total, max)) in phases.iter().enumerate() {
            json.push_str(&format!(
                "       {{\"phase\": \"{phase}\", \"count\": {count}, \"total_ns\": {total}, \
                 \"max_ns\": {max}}}{}\n",
                if j + 1 < phases.len() { "," } else { "" }
            ));
        }
        json.push_str(&format!("     ]}}{}\n", if i + 1 < entries.len() { "," } else { "" }));
    }
    json.push_str("  ]\n}\n");
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_redistribute.json");
    std::fs::write(path, json).expect("write BENCH_redistribute.json");
    println!("wrote {path}");
}

fn main() {
    let mut c = Criterion::default();
    bench_redistribute(&mut c);
    if !c.is_test_mode() {
        emit_json(&c);
    }
}
