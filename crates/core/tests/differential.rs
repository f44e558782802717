//! Differential proof that the zero-copy data-movement plane is
//! observationally identical to the legacy staged path: the same seeded
//! layout pairs are redistributed through both, and the receive buffers must
//! be byte-for-byte equal with identical [`RedistStats`] — also under
//! `check(true)` and under a fault plan (which forces both runs onto the
//! staged path). The headline property: a producer → consumer → producer
//! round-trip is the identity on the data.

use ddr_core::{
    decompose, Block, DataKind, Descriptor, Layout, RedistStats, Strategy, ValidationPolicy,
};
use minimpi::{FaultPlan, PoolStats, TransportCounters, Universe};
use proptest::prelude::*;
use std::time::Duration;

/// Recursively split `domain` into `n_parts` disjoint covering blocks using
/// the random bits in `seeds` (same k-d generator as the core proptests).
fn random_partition(domain: Block, n_parts: usize, seeds: &[u64]) -> Vec<Block> {
    fn go(b: Block, n: usize, seeds: &[u64], depth: usize, out: &mut Vec<Block>) {
        if n == 1 {
            out.push(b);
            return;
        }
        let seed = seeds[depth % seeds.len()].wrapping_add(depth as u64 * 0x9e3779b9);
        let mut axis = (seed % 3) as usize;
        let mut tries = 0;
        while b.dims[axis] < 2 && tries < 3 {
            axis = (axis + 1) % 3;
            tries += 1;
        }
        if b.dims[axis] < 2 {
            out.push(b);
            return;
        }
        let left_parts = 1 + (seed / 3) as usize % (n - 1);
        let right_parts = n - left_parts;
        let cut = ((b.dims[axis] as u64 * left_parts as u64) / n as u64)
            .clamp(1, b.dims[axis] as u64 - 1) as usize;
        let mut ldims = b.dims;
        ldims[axis] = cut;
        let left = Block { ndims: b.ndims, offset: b.offset, dims: ldims };
        let mut roff = b.offset;
        roff[axis] += cut;
        let mut rdims = b.dims;
        rdims[axis] = b.dims[axis] - cut;
        let right = Block { ndims: b.ndims, offset: roff, dims: rdims };
        go(left, left_parts, seeds, depth + 1, out);
        go(right, right_parts, seeds, depth * 2 + 2, out);
    }
    let mut out = Vec::new();
    go(domain, n_parts, seeds, 0, &mut out);
    out
}

/// Random sub-block of `domain` derived from a seed.
fn random_subblock(domain: &Block, seed: u64) -> Block {
    let mut offset = domain.offset;
    let mut dims = domain.dims;
    let mut s = seed;
    for d in 0..domain.ndims {
        s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let len = 1 + (s >> 33) as usize % domain.dims[d];
        s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let off = (s >> 33) as usize % (domain.dims[d] - len + 1);
        offset[d] = domain.offset[d] + off;
        dims[d] = len;
    }
    Block::new(domain.ndims, offset, dims).unwrap()
}

/// Globally unique value for each domain cell.
fn cell_value(c: [usize; 3]) -> u64 {
    (c[0] as u64) | ((c[1] as u64) << 20) | ((c[2] as u64) << 40)
}

fn mix(s: &mut u64) -> u64 {
    *s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
    *s >> 17
}

/// One seeded layout pair: a random disjoint-and-complete ownership
/// partition plus a random need block per rank.
struct Case {
    kind: DataKind,
    nprocs: usize,
    layouts: Vec<Layout>,
}

fn case_from_seed(seed: u64) -> Case {
    let mut s = seed.wrapping_mul(0x9e3779b97f4a7c15) | 1;
    let nprocs = 2 + (mix(&mut s) % 4) as usize; // 2..=5
    let (kind, domain) = match mix(&mut s) % 3 {
        0 => (DataKind::D1, Block::d1(0, 16 + (mix(&mut s) % 120) as usize).unwrap()),
        1 => (
            DataKind::D2,
            Block::d2([0, 0], [4 + (mix(&mut s) % 20) as usize, 4 + (mix(&mut s) % 20) as usize])
                .unwrap(),
        ),
        _ => (
            DataKind::D3,
            Block::d3(
                [0, 0, 0],
                [
                    2 + (mix(&mut s) % 8) as usize,
                    2 + (mix(&mut s) % 8) as usize,
                    2 + (mix(&mut s) % 8) as usize,
                ],
            )
            .unwrap(),
        ),
    };
    let seeds: Vec<u64> = (0..6).map(|_| mix(&mut s)).collect();
    let parts = random_partition(domain, (nprocs * 2).min(10), &seeds);
    let mut owned: Vec<Vec<Block>> = vec![Vec::new(); nprocs];
    for (i, b) in parts.into_iter().enumerate() {
        owned[i % nprocs].push(b);
    }
    let layouts = owned
        .into_iter()
        .enumerate()
        .map(|(r, o)| Layout { owned: o, need: random_subblock(&domain, seeds[r % seeds.len()]) })
        .collect();
    Case { kind, nprocs, layouts }
}

/// What one rank observed: its filled need buffer, the stats the executor
/// reported, the stats the plan predicted, and the universe-wide transport
/// counters at the moment this rank finished.
struct RankRun {
    need: Vec<u64>,
    stats: RedistStats,
    expected: RedistStats,
    counters: TransportCounters,
}

/// Execute `case` through one wire path. `zerocopy` selects the plane under
/// test; everything else (layouts, data, strategy) is held identical.
fn run_path(case: &Case, zerocopy: bool, check: bool, strategy: Strategy) -> Vec<RankRun> {
    // Threshold 0: loan every cross-rank message regardless of size, so the
    // fast path under test is pure zero-copy (the differential cases are far
    // smaller than the production 64 KiB staging floor).
    let layouts = &case.layouts;
    let (kind, nprocs) = (case.kind, case.nprocs);
    let builder = Universe::builder().zerocopy(zerocopy).zerocopy_threshold(0).check(check);
    builder.run(nprocs, move |comm| {
        let me = &layouts[comm.rank()];
        let desc = Descriptor::for_type::<u64>(nprocs, kind).unwrap();
        let plan = desc
            .setup_data_mapping_with(comm, &me.owned, me.need, ValidationPolicy::Strict)
            .unwrap();
        let data: Vec<Vec<u64>> =
            me.owned.iter().map(|b| b.coords().map(cell_value).collect()).collect();
        let refs: Vec<&[u64]> = data.iter().map(|v| v.as_slice()).collect();
        let mut need = vec![u64::MAX; me.need.count() as usize];
        let (report, stats) = plan.reorganize_with_stats(comm, &refs, &mut need, strategy).unwrap();
        assert!(report.is_complete());
        RankRun {
            need,
            stats,
            expected: plan.expected_stats(),
            counters: comm.transport_counters(),
        }
    })
}

/// Byte-identical receive buffers and identical stats across the two paths.
fn assert_paths_agree(seed: u64, fast: &[RankRun], legacy: &[RankRun]) {
    for (r, (f, l)) in fast.iter().zip(legacy).enumerate() {
        assert_eq!(f.need, l.need, "seed {seed}: rank {r} buffers diverge between paths");
        assert_eq!(f.stats, l.stats, "seed {seed}: rank {r} stats diverge between paths");
        assert_eq!(f.stats, f.expected, "seed {seed}: rank {r} stats diverge from plan");
    }
    // The legacy path must never have minted a zero-copy loan...
    for (r, l) in legacy.iter().enumerate() {
        assert_eq!(l.counters.zerocopy_msgs, 0, "seed {seed}: rank {r} legacy run used zerocopy");
    }
    // ...and the fast path must have used one whenever cross-rank alltoallw
    // messages existed at all. Counters are universe-wide and monotone, so
    // the sender of any message sees at least its own deposit.
    let cross_rank: u64 = fast.iter().map(|run| run.stats.messages_sent).sum();
    if cross_rank > 0 {
        let seen = fast.iter().map(|f| f.counters.zerocopy_msgs).max().unwrap();
        assert!(seen > 0, "seed {seed}: cross-rank messages flowed but zerocopy never engaged");
    }
}

/// The core differential suite: 50 seeded layout pairs through both paths.
#[test]
fn fifty_seeded_cases_are_byte_identical_across_paths() {
    for seed in 0..50u64 {
        let case = case_from_seed(seed);
        let fast = run_path(&case, true, false, Strategy::Alltoallw);
        let legacy = run_path(&case, false, false, Strategy::Alltoallw);
        assert_paths_agree(seed, &fast, &legacy);
    }
}

/// A subset re-run under `check(true)`: the collective-matching checker's
/// control traffic must not perturb either path.
#[test]
fn differential_holds_under_check_mode() {
    for seed in 0..10u64 {
        let case = case_from_seed(seed);
        let fast = run_path(&case, true, true, Strategy::Alltoallw);
        let legacy = run_path(&case, false, true, Strategy::Alltoallw);
        assert_paths_agree(seed, &fast, &legacy);
    }
}

/// Under the production default threshold (64 KiB), per-pair messages of the
/// seeded cases straddle the staging floor, so one exchange mixes loaned and
/// staged deliveries. The mixed run must stay byte-identical to a pure
/// staged run.
#[test]
fn default_threshold_mixes_paths_and_stays_byte_identical() {
    let run_with_default_threshold = |case: &Case| {
        let layouts = &case.layouts;
        let (kind, nprocs) = (case.kind, case.nprocs);
        Universe::builder().zerocopy(true).run(nprocs, move |comm| {
            let me = &layouts[comm.rank()];
            let desc = Descriptor::for_type::<u64>(nprocs, kind).unwrap();
            let plan = desc
                .setup_data_mapping_with(comm, &me.owned, me.need, ValidationPolicy::Strict)
                .unwrap();
            let data: Vec<Vec<u64>> =
                me.owned.iter().map(|b| b.coords().map(cell_value).collect()).collect();
            let refs: Vec<&[u64]> = data.iter().map(|v| v.as_slice()).collect();
            let mut need = vec![u64::MAX; me.need.count() as usize];
            let (report, _) =
                plan.reorganize_with_stats(comm, &refs, &mut need, Strategy::Alltoallw).unwrap();
            assert!(report.is_complete());
            need
        })
    };
    for seed in 0..10u64 {
        let case = case_from_seed(seed);
        let mixed = run_with_default_threshold(&case);
        let legacy = run_path(&case, false, false, Strategy::Alltoallw);
        for (r, (m, l)) in mixed.iter().zip(&legacy).enumerate() {
            assert_eq!(m, &l.need, "seed {seed}: rank {r} mixed-path buffer diverges");
        }
    }
}

/// Point-to-point strategy stages through the shared buffer pool; it must
/// agree with the collective path byte for byte too.
#[test]
fn differential_holds_for_point_to_point_strategy() {
    for seed in 0..10u64 {
        let case = case_from_seed(seed);
        let fast = run_path(&case, true, false, Strategy::Alltoallw);
        let p2p = run_path(&case, true, false, Strategy::PointToPoint);
        for (r, (f, p)) in fast.iter().zip(&p2p).enumerate() {
            assert_eq!(f.need, p.need, "seed {seed}: rank {r} p2p buffer diverges");
            assert_eq!(f.stats, p.stats, "seed {seed}: rank {r} p2p stats diverge");
        }
    }
}

/// Under a fault plan, `zerocopy_active()` is false: both configurations run
/// the staged path and must report the identical degraded outcome. Uses the
/// E1 scenario where the only 0→3 message of the whole program is the
/// round-1 alltoallw payload.
#[test]
fn fault_plan_forces_staging_and_paths_still_agree() {
    fn e1_owned(r: usize) -> [Block; 2] {
        [Block::d2([0, r], [8, 1]).unwrap(), Block::d2([0, r + 4], [8, 1]).unwrap()]
    }
    fn e1_need(r: usize) -> Block {
        Block::d2([4 * (r % 2), 4 * (r / 2)], [4, 4]).unwrap()
    }
    let run = |zerocopy: bool| {
        Universe::builder()
            .zerocopy(zerocopy)
            .timeout(Duration::from_millis(300))
            .fault_plan(FaultPlan::new(3).drop_message(0, 3, None, 0))
            .run(4, move |comm| {
                let r = comm.rank();
                let desc = Descriptor::for_type::<u64>(4, DataKind::D2).unwrap();
                let plan = desc.setup_data_mapping(comm, &e1_owned(r), e1_need(r)).unwrap();
                let data: Vec<Vec<u64>> =
                    e1_owned(r).iter().map(|b| b.coords().map(cell_value).collect()).collect();
                let refs: Vec<&[u64]> = data.iter().map(|v| v.as_slice()).collect();
                let mut need = vec![u64::MAX; 16];
                let (report, stats) = plan
                    .reorganize_with_stats(comm, &refs, &mut need, Strategy::Alltoallw)
                    .unwrap();
                (need, report.is_complete(), stats, comm.transport_counters())
            })
    };
    let a = run(true);
    let b = run(false);
    for (r, ((na, ca, sa, counters), (nb, cb, sb, _))) in a.iter().zip(&b).enumerate() {
        assert_eq!(na, nb, "rank {r}: degraded buffers diverge");
        assert_eq!(ca, cb, "rank {r}: completion status diverges");
        assert_eq!(*sa, *sb, "rank {r}: degraded stats diverge");
        // The fault plan must have forced staging even with zerocopy requested.
        assert_eq!(counters.zerocopy_msgs, 0, "rank {r}: zerocopy engaged under a fault plan");
    }
    // Rank 3 really lost the dropped message in both runs.
    assert!(!a[3].1, "rank 3 should report an incomplete exchange");
    assert_eq!(a[3].2.failed_recvs, 1);
    assert!(a[3].2.lost_bytes > 0);
}

/// Kernel-dispatch differential: a repartition where every cross-rank
/// transfer is an 8 MiB strided selection, so the staged path packs and
/// unpacks it (hashing as it goes, checksums being on by default) and the
/// zero-copy path claims it through the fused copy-and-verify walk — the
/// transpose geometry (x-slabs to y-slabs) keeps the per-row runs strided. Whatever
/// path each configuration takes, it must reproduce the analytically known
/// cell values exactly, under `check(true)` too.
#[test]
fn kernel_dispatch_tiers_agree_under_check_and_zerocopy() {
    let domain = Block::d2([0, 0], [2048, 2048]).unwrap();
    let nprocs = 2;
    for (zerocopy, check) in [(true, false), (false, false), (true, true), (false, true)] {
        let out = Universe::builder().zerocopy(zerocopy).check(check).run(nprocs, move |comm| {
            let r = comm.rank();
            let desc = Descriptor::for_type::<u64>(nprocs, DataKind::D2).unwrap();
            let owned = [decompose::slab(&domain, 0, nprocs, r).unwrap()];
            let need = decompose::slab(&domain, 1, nprocs, r).unwrap();
            let plan =
                desc.setup_data_mapping_with(comm, &owned, need, ValidationPolicy::Strict).unwrap();
            let data: Vec<u64> = owned[0].coords().map(cell_value).collect();
            let mut buf = vec![u64::MAX; need.count() as usize];
            plan.reorganize(comm, &[&data], &mut buf).unwrap();
            (need, buf)
        });
        for (r, (need, buf)) in out.iter().enumerate() {
            for (i, (coord, &got)) in need.coords().zip(buf).enumerate() {
                assert_eq!(
                    got,
                    cell_value(coord),
                    "zerocopy={zerocopy} check={check}: rank {r} cell {i} wrong"
                );
            }
        }
    }
}

/// Pool hygiene: 100 redistributions through the staged path must keep the
/// universe's buffer pool bounded by its high-water trim policy, not grow
/// with the iteration count.
#[test]
fn pool_stays_bounded_across_hundred_redistributions() {
    let out: Vec<(PoolStats, u64)> = Universe::builder().zerocopy(false).run(4, |comm| {
        let r = comm.rank();
        let desc = Descriptor::for_type::<u64>(4, DataKind::D2).unwrap();
        let domain = Block::d2([0, 0], [32, 32]).unwrap();
        let owned = [decompose::slab(&domain, 1, 4, r).unwrap()];
        let need = decompose::slab(&domain, 0, 4, r).unwrap();
        let plan =
            desc.setup_data_mapping_with(comm, &owned, need, ValidationPolicy::Strict).unwrap();
        let data: Vec<u64> = owned[0].coords().map(cell_value).collect();
        let mut buf = vec![0u64; need.count() as usize];
        for _ in 0..100 {
            plan.reorganize(comm, &[&data], &mut buf).unwrap();
        }
        let staged_per_iter = plan.expected_stats().sent_bytes;
        comm.barrier().unwrap();
        (comm.pool_stats(), staged_per_iter)
    });
    let per_iter: u64 = out.iter().map(|(_, b)| b).sum();
    let stats = &out[0].0;
    // Demand-proportional bound: the trim policy retains at most
    // POOL_SLACK (8) times one epoch's demand, with a small fixed floor.
    let bound = 64 * 1024 + 8 * per_iter as usize;
    assert!(
        stats.free_bytes <= bound,
        "pool retained {} bytes, demand-derived bound is {bound}",
        stats.free_bytes
    );
    assert!(stats.free_buffers <= 64, "pool holds {} buffers", stats.free_buffers);
    assert!(stats.reuse_hits > 0, "100 iterations should recycle staging buffers");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Headline property: redistribute a random producer partition to a
    /// slab-per-rank consumer layout, then redistribute *back* to the
    /// producer's chunks — through the zero-copy plane — and require the
    /// original data, bit for bit.
    #[test]
    fn producer_consumer_producer_roundtrip_is_identity(
        w in 8usize..32,
        h in 8usize..32,
        nprocs in 2usize..6,
        seeds in prop::collection::vec(any::<u64>(), 4..8),
    ) {
        let domain = Block::d2([0, 0], [w, h]).unwrap();
        let parts = random_partition(domain, (nprocs * 2).min(10), &seeds);
        let mut owned: Vec<Vec<Block>> = vec![Vec::new(); nprocs];
        for (i, b) in parts.into_iter().enumerate() {
            owned[i % nprocs].push(b);
        }
        let owned_ref = &owned;
        Universe::builder().zerocopy(true).run(nprocs, move |comm| {
            let r = comm.rank();
            let chunks = &owned_ref[r];
            let desc = Descriptor::for_type::<u64>(nprocs, DataKind::D2).unwrap();

            // Producer → consumer: everyone needs one horizontal slab.
            let slab = decompose::slab(&domain, 1, nprocs, r).unwrap();
            let fwd = desc
                .setup_data_mapping_with(comm, chunks, slab, ValidationPolicy::Strict)
                .unwrap();
            let data: Vec<Vec<u64>> =
                chunks.iter().map(|b| b.coords().map(cell_value).collect()).collect();
            let refs: Vec<&[u64]> = data.iter().map(|v| v.as_slice()).collect();
            let mut slab_buf = vec![u64::MAX; slab.count() as usize];
            fwd.reorganize(comm, &refs, &mut slab_buf).unwrap();

            // Consumer → producer: slabs are the ownership now; each rank
            // needs its original chunks back.
            let back = desc
                .setup_multi_mapping(comm, &[slab], chunks, ValidationPolicy::Strict)
                .unwrap();
            let mut rebuilt: Vec<Vec<u64>> =
                chunks.iter().map(|b| vec![0u64; b.count() as usize]).collect();
            {
                let mut out: Vec<&mut [u64]> =
                    rebuilt.iter_mut().map(|v| v.as_mut_slice()).collect();
                back.reorganize(comm, &[&slab_buf], &mut out).unwrap();
            }
            for (orig, got) in data.iter().zip(&rebuilt) {
                prop_assert_eq!(orig, got, "round-trip lost data");
            }
            Ok::<(), TestCaseError>(())
        })
        .into_iter()
        .collect::<Result<Vec<_>, _>>()?;
    }
}
