//! `reorg_large` and `reorg_small_rounds`: one warm plan, reused for every
//! `Plan::reorganize_with_stats` call, on 2-D f32 data whose values come
//! from the seed and the global index.

use crate::harness::{span, timed, Control, TRIAL_BASE};
use crate::workload::{launch, RankOut, Session, Workload, RANKS};
use ddr_core::{Block, DataKind, Descriptor, Strategy, ValidationPolicy};
use minimpi::{bytes_of, Comm};
use std::time::Instant;

/// Which of the two redistribution workloads.
#[derive(Clone, Copy)]
pub enum Kind {
    /// 2048² row slabs to column slabs: one round, one 4 MiB loan per pair.
    Large,
    /// 512²: 8 interleaved column slabs per rank to one row slab, an
    /// 8-round plan of 32 KiB staged messages.
    SmallRounds,
}

impl Kind {
    fn side(self) -> usize {
        match self {
            Kind::Large => 2048,
            Kind::SmallRounds => 512,
        }
    }

    /// The blocks `rank` owns and the block it needs.
    pub fn layout(self, rank: usize) -> (Vec<Block>, Block) {
        let n = self.side();
        let part = n / RANKS;
        match self {
            Kind::Large => (
                vec![Block::d2([0, part * rank], [n, part]).expect("row slab")],
                Block::d2([part * rank, 0], [part, n]).expect("column slab"),
            ),
            Kind::SmallRounds => {
                let slabs = 8 * RANKS;
                let w = n / slabs;
                let owned = (0..8)
                    .map(|j| {
                        let k = rank + RANKS * j;
                        Block::d2([w * k, 0], [w, n]).expect("column slab")
                    })
                    .collect();
                (owned, Block::d2([0, part * rank], [n, part]).expect("row slab"))
            }
        }
    }
}

/// Element value at global `(x, y)`: 24 bits of a hash of the seed and the
/// index, so every value is an exact f32 and no bit pattern repeats often.
fn value(seed: u64, idx: u64) -> f32 {
    let mut z = seed.wrapping_add(idx.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    ((z ^ (z >> 31)) >> 40) as f32
}

fn fill(seed: u64, n: usize, b: &Block) -> Vec<f32> {
    b.coords().map(|c| value(seed, (c[1] * n + c[0]) as u64)).collect()
}

/// The need buffer between ops: NaN, which no generated value is.
const POISON: f32 = f32::from_bits(u32::MAX);

struct Inputs {
    /// Per rank, the owned blocks' data.
    owned: Vec<Vec<Vec<f32>>>,
    /// Per rank, the need block every op must produce.
    expected: Vec<Vec<f32>>,
}

pub struct Reorg {
    kind: Kind,
    inputs: Inputs,
}

impl Reorg {
    pub fn new(kind: Kind, seed: u64) -> Reorg {
        let n = kind.side();
        let (owned, expected) = (0..RANKS)
            .map(|r| {
                let (blocks, need) = kind.layout(r);
                (blocks.iter().map(|b| fill(seed, n, b)).collect(), fill(seed, n, &need))
            })
            .unzip();
        Reorg { kind, inputs: Inputs { owned, expected } }
    }
}

impl Workload for Reorg {
    fn warmup(&self) -> u64 {
        // Past the pipeline gate's 16 probing calls, so the timed loop sees
        // the depth it settled on.
        64
    }

    fn window(&self) -> u64 {
        match self.kind {
            Kind::Large => 32,
            Kind::SmallRounds => 64,
        }
    }

    fn payload_bytes(&self) -> f64 {
        (self.kind.side() * self.kind.side() * 4) as f64
    }

    fn session(&self, ctl: &Control, trial: Option<u64>) -> Result<Session, String> {
        let (kind, inputs) = (self.kind, &self.inputs);
        launch(|comm: &Comm| -> Result<RankOut, String> {
            let r = comm.rank();
            let e = |e: &dyn std::fmt::Display| format!("rank {r}: {e}");
            let (owned, need_block) = kind.layout(r);
            let op0 = trial.map_or(0, |k| TRIAL_BASE + k);
            let plan = {
                let _s = span("core.setup_mapping_ms", op0, r);
                let desc = Descriptor::for_type::<f32>(RANKS, DataKind::D2).map_err(|x| e(&x))?;
                desc.setup_data_mapping_with(comm, &owned, need_block, ValidationPolicy::Strict)
                    .map_err(|x| e(&x))?
            };
            let refs: Vec<&[f32]> = inputs.owned[r].iter().map(Vec::as_slice).collect();
            let expected = &inputs.expected[r];
            let mut need = vec![POISON; expected.len()];
            let reorganize = |need: &mut [f32], name, i| {
                let _s = span(name, i, r);
                plan.reorganize_with_stats(comm, &refs, need, Strategy::Alltoallw)
            };
            let first = reorganize(&mut need, "core.first_reorganize_ms", op0);
            let setup_end = Instant::now();
            let mut out = RankOut::new(setup_end);
            out.first_ok = first.is_ok_and(|(rep, _)| rep.is_complete())
                && bytes_of(&need) == bytes_of(expected);
            if trial.is_some() {
                return Ok(out);
            }
            need.fill(POISON);
            let (warm, timed_ops) = ctl
                .run(comm, self.warmup(), |i| {
                    let (mut rec, res) =
                        timed(i, r, || reorganize(&mut need, "core.reorganize_ms", i));
                    rec.ok = match res {
                        Ok((rep, stats)) => {
                            rec.stats = Some(stats);
                            rep.is_complete() && bytes_of(&need) == bytes_of(expected)
                        }
                        Err(_) => false,
                    };
                    need.fill(POISON);
                    rec
                })
                .map_err(|x| e(&x))?;
            out.finish(comm, warm, timed_ops);
            Ok(out)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_rounds_layout_tiles_the_domain() {
        let (owned0, need0) = Kind::SmallRounds.layout(0);
        let (owned1, _) = Kind::SmallRounds.layout(1);
        let cells: u64 = owned0.iter().chain(&owned1).map(Block::count).sum();
        assert_eq!(cells, 512 * 512);
        assert_eq!(owned0.len(), 8);
        // One round's cross-rank message: a 32-column slab's half, 32 KiB.
        let other = owned1[0].intersect(&need0).expect("overlap");
        assert_eq!(other.count() * 4, 32 * 1024);
    }

    #[test]
    fn values_are_exact_and_seeded() {
        assert_ne!(value(1, 7), value(2, 7));
        assert!((0..1000).all(|i| value(3, i) < (1u32 << 24) as f32));
    }
}
