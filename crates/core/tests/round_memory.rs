//! Staging-memory bound of a multi-round reorganize: rounds run one at a
//! time, so the universe's staging high-water mark never exceeds the
//! largest single round's global cross-rank staged bytes.
//!
//! Kept in its own test binary, so process-global state left behind by other
//! tests' redistribution calls cannot change what it measures.

use ddr_core::decompose::slab;
use ddr_core::{Block, DataKind, Descriptor, GlobalStats, Layout, Strategy};
use minimpi::Universe;

#[test]
fn staging_high_water_stays_within_one_round() {
    const RANKS: usize = 2;
    const ROUNDS: usize = 4;
    const CALLS: u32 = 40;
    // 256x256 f32 in 8 column slabs, two per rank per round: every
    // cross-rank message is 128x32 f32 = 16 KiB, under the default 64 KiB
    // zero-copy threshold, so each one stages.
    let domain = Block::d2([0, 0], [256, 256]).unwrap();
    let layouts: Vec<Layout> = (0..RANKS)
        .map(|r| Layout {
            owned: (0..ROUNDS)
                .map(|k| slab(&domain, 1, RANKS * ROUNDS, r + RANKS * k).unwrap())
                .collect(),
            need: slab(&domain, 0, RANKS, r).unwrap(),
        })
        .collect();
    let stats = GlobalStats::compute(&layouts, 4);
    assert_eq!(stats.num_rounds, ROUNDS);
    let round_bound = stats.sent.iter().map(|per_rank| per_rank.iter().sum::<u64>()).max().unwrap();
    assert!(round_bound > 0);

    let layouts = &layouts;
    Universe::run(RANKS, move |comm| {
        let me = &layouts[comm.rank()];
        let desc = Descriptor::for_type::<f32>(RANKS, DataKind::D2).unwrap();
        let plan = desc.setup_data_mapping(comm, &me.owned, me.need).unwrap();
        assert_eq!(plan.num_rounds(), ROUNDS);
        let data: Vec<Vec<f32>> = me
            .owned
            .iter()
            .map(|b| b.coords().map(|c| (c[0] * 256 + c[1]) as f32).collect())
            .collect();
        let refs: Vec<&[f32]> = data.iter().map(|v| v.as_slice()).collect();
        let mut need = vec![0f32; me.need.count() as usize];
        for call in 0..CALLS {
            let (report, _) =
                plan.reorganize_with_stats(comm, &refs, &mut need, Strategy::Alltoallw).unwrap();
            assert!(report.is_complete());
            let peak = comm.mem_high_water() as u64;
            assert!(
                peak <= round_bound,
                "call {call}: staging high water {peak} B exceeds one round's {round_bound} B"
            );
        }
        for (got, c) in need.iter().zip(me.need.coords()) {
            assert_eq!(*got, (c[0] * 256 + c[1]) as f32);
        }
    });
}
