//! Plain single-threaded copies, measured in every traced run, that show how
//! far the redistribution sits from a copy bound.

use crate::harness::{median, ms};
use minimpi::Subarray;
use std::hint::black_box;
use std::time::Instant;

pub struct Baseline {
    /// Bytes the last-level cache reports (sysfs), or the fallback.
    pub llc_bytes: usize,
    /// Length of each memcpy array: four times `llc_bytes`.
    pub array_bytes: usize,
    /// `copy_from_slice` between two such arrays, bytes copied per second.
    pub memcpy_gib_s: f64,
    /// One `Subarray::copy_to` of `reorg_large`'s cross-rank selection: a
    /// 1024² f32 quadrant of rank 0's 2048×1024 row slab into rank 1's
    /// 1024×2048 column slab.
    pub copy_to_ms: f64,
}

/// Largest cache of the highest level cpu0 reports, in bytes.
fn llc_bytes() -> Option<usize> {
    let mut best: Option<(u32, usize)> = None;
    for i in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{i}");
        let read = |f: &str| std::fs::read_to_string(format!("{dir}/{f}")).ok();
        let (Some(level), Some(size)) = (read("level"), read("size")) else { continue };
        let (level, size) = (level.trim().parse::<u32>().ok()?, size.trim());
        let bytes = match size.strip_suffix('K') {
            Some(k) => k.parse::<usize>().ok()? << 10,
            None => match size.strip_suffix('M') {
                Some(m) => m.parse::<usize>().ok()? << 20,
                None => size.parse().ok()?,
            },
        };
        if best.is_none_or(|(l, b)| (level, bytes) > (l, b)) {
            best = Some((level, bytes));
        }
    }
    best.map(|b| b.1)
}

pub fn measure() -> Baseline {
    let llc = llc_bytes().unwrap_or(32 << 20);
    let len = 4 * llc;
    let src = vec![0x5au8; len];
    let mut dst = vec![0u8; len];
    let mut secs = Vec::new();
    // The first copy also faults the destination in; it is not kept.
    for rep in 0..4 {
        let t = Instant::now();
        dst.copy_from_slice(black_box(&src));
        black_box(&mut dst);
        if rep > 0 {
            secs.push(t.elapsed().as_secs_f64());
        }
    }
    drop((src, dst));
    let memcpy_gib_s = len as f64 / median(&secs) / (1u64 << 30) as f64;

    let from = Subarray::d2([2048, 1024], [1024, 1024], [1024, 0], 4).expect("source selection");
    let to = Subarray::d2([1024, 2048], [1024, 1024], [0, 0], 4).expect("target selection");
    let slab = vec![1u8; from.full_len()];
    let mut column = vec![0u8; to.full_len()];
    let mut times = Vec::new();
    for rep in 0..21 {
        let t = Instant::now();
        from.copy_to(black_box(&slab), &to, &mut column).expect("shapes match");
        black_box(&mut column);
        if rep > 0 {
            times.push(ms(t.elapsed()));
        }
    }
    Baseline { llc_bytes: llc, array_bytes: len, memcpy_gib_s, copy_to_ms: median(&times) }
}
