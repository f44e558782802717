//! Specialized pack/unpack kernels for subarray selections.
//!
//! The datatype engine describes every selection as a stream of contiguous
//! byte runs ([`crate::Subarray::byte_runs`]). This module moves those runs
//! for `pack` (gather into a packed buffer) and `unpack` (scatter a packed
//! buffer back into a selection); selection-to-selection copies (`copy_to`,
//! the zero-copy claim) walk run pairs in [`crate::datatype`].
//!
//! Two tiers, chosen per call from the [`RunShape`] cached on the
//! datatype at construction time:
//!
//! 1. **Fused**: a selection whose runs merged into a single contiguous
//!    stretch (full-array selections, 2-D slabs with contiguous rows) is one
//!    `memcpy` — no per-run loop at all.
//! 2. **Lanes**: strided interior selections copy through a fixed-width
//!    lane loop (`[u8; N]` reads/writes for the common run widths), which
//!    the compiler vectorizes; other widths fall back to a scalar
//!    `copy_nonoverlapping` per run.
//!
//! Every copy runs on the calling rank's thread, whatever its size. An
//! exchange already copies on every rank at once, so the rank threads are
//! the parallelism; a helper pool fanning multi-MiB copies out only added
//! threads competing for the same cores.
//!
//! Sender-side envelope checksums fold *during* the gather
//! ([`pack_runs_hashed`]): the 4-lane hash is split-point independent
//! (`integrity.rs`), so hashing run-by-run while the bytes are cache-hot is
//! bit-identical to re-hashing the packed payload afterwards — the second
//! pass the old path paid.
//!
//! Every tier bumps a process-global counter, published as `pack.*` metrics
//! in the ddr-trace report and exported via [`crate::pack_counters`].

use crate::integrity::Checksum;
use std::sync::atomic::{AtomicU64, Ordering};

/// The derived run structure of a subarray selection, computed once at
/// [`crate::Subarray::new`] time and cached on the datatype, so iterating or
/// copying a selection never re-derives the dimension merge.
///
/// The selection consists of `nruns` contiguous runs of `run_bytes` bytes;
/// run `(i0, i1)` (with `i0 < dims[0].0`, `i1 < dims[1].0`, `i0` varying
/// fastest) starts at `base + i0 * dims[0].1 + i1 * dims[1].1`. Fully
/// covered leading dimensions were merged into `run_bytes` during
/// derivation, so a fused (fully contiguous) selection has `nruns == 1`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct RunShape {
    /// Bytes per contiguous run.
    pub run_bytes: usize,
    /// Byte offset of the first run.
    pub base: usize,
    /// Non-merged dimensions as `(count, byte stride)`; `dims[0]` is the
    /// faster-varying one. `(1, 0)` for absent dimensions.
    pub dims: [(usize, usize); 2],
    /// Total number of runs (`dims[0].0 * dims[1].0`, or 0 for an empty
    /// selection).
    pub nruns: usize,
}

impl RunShape {
    /// The empty selection: no runs, no bytes.
    pub const EMPTY: RunShape = RunShape { run_bytes: 0, base: 0, dims: [(0, 0); 2], nruns: 0 };

    /// A single contiguous stretch of `len` bytes at `offset`.
    pub fn contiguous(offset: usize, len: usize) -> RunShape {
        RunShape { run_bytes: len, base: offset, dims: [(1, 0); 2], nruns: usize::from(len > 0) }
    }

    /// Derive the fused run structure of a subarray selection. `sizes`,
    /// `subsizes` and `starts` must already be normalized (trailing unused
    /// dimensions set to extent 1 / start 0) and validated in-bounds.
    pub fn derive(
        sizes: &[usize; 3],
        subsizes: &[usize; 3],
        starts: &[usize; 3],
        elem_size: usize,
    ) -> RunShape {
        if subsizes.iter().product::<usize>() == 0 {
            return RunShape::EMPTY;
        }
        // Longest prefix of dimensions the rectangle covers completely:
        // those merge into the contiguous run (their start is necessarily
        // 0). This is the fusion rule: a 2-D slab with contiguous rows
        // (subsizes[0] == sizes[0]) collapses its row loop into run length.
        let ndims = sizes.len();
        let mut p = 0;
        while p < ndims && subsizes[p] == sizes[p] {
            p += 1;
        }
        let stride = |d: usize| -> usize { sizes[..d].iter().product::<usize>() };
        let mut run_elems: usize = sizes[..p].iter().product();
        let mut base_elems = 0usize;
        if p < ndims {
            run_elems *= subsizes[p];
            base_elems += starts[p] * stride(p);
        }
        // At most two dimensions remain to iterate; dims[0] is the inner
        // (faster-varying) one.
        let mut dims = [(1usize, 0usize); 2];
        for (slot, d) in ((p + 1)..ndims).enumerate() {
            dims[slot] = (subsizes[d], stride(d) * elem_size);
            base_elems += starts[d] * stride(d);
        }
        RunShape {
            run_bytes: run_elems * elem_size,
            base: base_elems * elem_size,
            dims,
            nruns: dims[0].0 * dims[1].0,
        }
    }

    /// Total bytes the selection packs to.
    pub fn total_bytes(&self) -> usize {
        self.run_bytes * self.nruns
    }

    /// One-past-the-end byte offset of the highest-addressed run (0 for an
    /// empty selection) — the bound the kernels assert before raw copies.
    fn max_end(&self) -> usize {
        if self.nruns == 0 {
            return 0;
        }
        self.base
            + (self.dims[0].0 - 1) * self.dims[0].1
            + (self.dims[1].0 - 1) * self.dims[1].1
            + self.run_bytes
    }
}

/// Per-kernel dispatch counters, process-global (the kernels have no world
/// handle). Exported as `pack.*` metrics and via [`crate::pack_counters`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PackCounters {
    /// Selections moved as a single fused memcpy (runs merged to one).
    pub fused_runs: u64,
    /// Bytes moved through the fixed-width lane gather/scatter loops.
    pub vector_bytes: u64,
    /// Bytes moved through the scalar per-run fallback (odd run widths).
    pub scalar_bytes: u64,
    /// Batches fanned out to helper copy threads. Always 0: every copy
    /// runs on the calling rank's thread. Kept so readers of the counter
    /// set (the benchmark's `minimpi.pack_pool_dispatches`) keep working.
    pub pool_dispatches: u64,
}

static FUSED_RUNS: AtomicU64 = AtomicU64::new(0);
static VECTOR_BYTES: AtomicU64 = AtomicU64::new(0);
static SCALAR_BYTES: AtomicU64 = AtomicU64::new(0);

/// Snapshot of the process-global kernel counters (monotone totals).
pub fn snapshot() -> PackCounters {
    PackCounters {
        fused_runs: FUSED_RUNS.load(Ordering::Relaxed),
        vector_bytes: VECTOR_BYTES.load(Ordering::Relaxed),
        scalar_bytes: SCALAR_BYTES.load(Ordering::Relaxed),
        pool_dispatches: 0,
    }
}

/// Run widths that go through the lane loops. Covers the element sizes the
/// DDR stack actually moves (u8..f64 and small multiples — a strided column
/// of f32 is a 4-byte lane, a pair of f64 a 16-byte one).
const fn is_lane_width(n: usize) -> bool {
    matches!(n, 1 | 2 | 4 | 8 | 12 | 16 | 32 | 64)
}

/// Gather the selection out of `src`, appending to `out`.
pub(crate) fn pack_runs(src: &[u8], shape: &RunShape, out: &mut Vec<u8>) {
    pack_impl(src, shape, out, None);
}

/// Gather the selection out of `src`, appending to `out`, folding the bytes
/// into `sum` during the copy (in packed order, so the result equals
/// hashing the packed payload).
pub(crate) fn pack_runs_hashed(
    src: &[u8],
    shape: &RunShape,
    out: &mut Vec<u8>,
    sum: &mut Checksum,
) {
    pack_impl(src, shape, out, Some(sum));
}

fn pack_impl(src: &[u8], shape: &RunShape, out: &mut Vec<u8>, mut sum: Option<&mut Checksum>) {
    let total = shape.total_bytes();
    if total == 0 {
        return;
    }
    assert!(shape.max_end() <= src.len(), "run shape exceeds source buffer");
    if shape.nruns == 1 {
        let run = &src[shape.base..shape.base + shape.run_bytes];
        match sum.as_deref_mut() {
            // Single pass: each 32-byte group is loaded once, stored to the
            // packed buffer, and folded into the hash lanes while still in
            // registers — a fused pack with checksumming costs one traversal
            // of the payload, not two.
            Some(s) => s.update_copying(run, out),
            None => out.extend_from_slice(run),
        }
        FUSED_RUNS.fetch_add(1, Ordering::Relaxed);
        return;
    }
    let start = out.len();
    out.reserve(total);
    // SAFETY: spare capacity of `total` bytes was reserved; the lane/scalar
    // loops write runs at consecutive cursor positions covering exactly
    // [start, start + total); source offsets are bounded by the `max_end`
    // assert.
    unsafe {
        let dst = out.as_mut_ptr().add(start);
        match shape.run_bytes {
            1 => gather_lanes::<1>(src.as_ptr(), shape, dst),
            2 => gather_lanes::<2>(src.as_ptr(), shape, dst),
            4 => gather_lanes::<4>(src.as_ptr(), shape, dst),
            8 => gather_lanes::<8>(src.as_ptr(), shape, dst),
            12 => gather_lanes::<12>(src.as_ptr(), shape, dst),
            16 => gather_lanes::<16>(src.as_ptr(), shape, dst),
            32 => gather_lanes::<32>(src.as_ptr(), shape, dst),
            64 => gather_lanes::<64>(src.as_ptr(), shape, dst),
            n => {
                let mut cur = dst;
                for (off, _) in runs(shape) {
                    std::ptr::copy_nonoverlapping(src.as_ptr().add(off), cur, n);
                    cur = cur.add(n);
                }
            }
        }
        out.set_len(start + total);
    }
    if is_lane_width(shape.run_bytes) {
        VECTOR_BYTES.fetch_add(total as u64, Ordering::Relaxed);
    } else {
        SCALAR_BYTES.fetch_add(total as u64, Ordering::Relaxed);
    }
    if let Some(s) = sum {
        // The packed image was just written — folding it now reads L1-hot
        // bytes, which is what "checksum during pack" buys over the old
        // second pass at deposit time.
        s.update(&out[start..start + total]);
    }
}

/// Scatter `packed` (exactly the selection's packed bytes) into `dst`.
pub(crate) fn unpack_runs(packed: &[u8], shape: &RunShape, dst: &mut [u8]) {
    unpack_impl(packed, shape, dst, None);
}

/// Scatter `packed` into `dst`, folding the packed bytes into `sum` in the
/// same traversal — the receive-side counterpart of [`pack_runs_hashed`],
/// used when envelope verification can be fused into the unpack (no
/// retransmit protocol in play).
pub(crate) fn unpack_runs_hashed(
    packed: &[u8],
    shape: &RunShape,
    dst: &mut [u8],
    sum: &mut Checksum,
) {
    unpack_impl(packed, shape, dst, Some(sum));
}

fn unpack_impl(packed: &[u8], shape: &RunShape, dst: &mut [u8], mut sum: Option<&mut Checksum>) {
    let total = shape.total_bytes();
    debug_assert_eq!(packed.len(), total);
    if total == 0 {
        return;
    }
    assert!(shape.max_end() <= dst.len(), "run shape exceeds destination buffer");
    if shape.nruns == 1 {
        let run = &mut dst[shape.base..shape.base + shape.run_bytes];
        match sum.as_deref_mut() {
            // Single pass: load each group once, store it to the selection
            // and fold it into the hash lanes while still in registers.
            Some(s) => s.update_copying_to(packed, run),
            None => run.copy_from_slice(packed),
        }
        FUSED_RUNS.fetch_add(1, Ordering::Relaxed);
        return;
    }
    // SAFETY: destination runs are in-bounds by the `max_end` assert;
    // source cursor positions cover exactly `packed`.
    unsafe {
        let srcp = packed.as_ptr();
        match shape.run_bytes {
            1 => scatter_lanes::<1>(srcp, shape, dst.as_mut_ptr()),
            2 => scatter_lanes::<2>(srcp, shape, dst.as_mut_ptr()),
            4 => scatter_lanes::<4>(srcp, shape, dst.as_mut_ptr()),
            8 => scatter_lanes::<8>(srcp, shape, dst.as_mut_ptr()),
            12 => scatter_lanes::<12>(srcp, shape, dst.as_mut_ptr()),
            16 => scatter_lanes::<16>(srcp, shape, dst.as_mut_ptr()),
            32 => scatter_lanes::<32>(srcp, shape, dst.as_mut_ptr()),
            64 => scatter_lanes::<64>(srcp, shape, dst.as_mut_ptr()),
            n => {
                let mut cur = srcp;
                for (off, _) in runs(shape) {
                    std::ptr::copy_nonoverlapping(cur, dst.as_mut_ptr().add(off), n);
                    cur = cur.add(n);
                }
            }
        }
    }
    if is_lane_width(shape.run_bytes) {
        VECTOR_BYTES.fetch_add(total as u64, Ordering::Relaxed);
    } else {
        SCALAR_BYTES.fetch_add(total as u64, Ordering::Relaxed);
    }
    if let Some(s) = sum {
        // The packed image was just read by the scatter — folding it now
        // hits L1-hot bytes instead of paying a separate cold pass.
        s.update(packed);
    }
}

/// Iterate the shape's `(offset, len)` runs in packed order (cheap,
/// allocation-free; the shape is already derived).
fn runs(shape: &RunShape) -> impl Iterator<Item = (usize, usize)> + '_ {
    let (n0, s0) = shape.dims[0];
    let (n1, s1) = shape.dims[1];
    (0..n1).flat_map(move |i1| {
        (0..n0).map(move |i0| (shape.base + i0 * s0 + i1 * s1, shape.run_bytes))
    })
}

/// Strided gather with a compile-time run width: one `[u8; N]` load/store
/// per run, which the compiler turns into vector moves for the power-of-two
/// widths and keeps branch-free for the rest.
///
/// # Safety
/// `N == shape.run_bytes`, every source run is in-bounds of the `src`
/// allocation (asserted via `max_end` by the caller), and `dst` has space
/// for `shape.nruns * N` bytes.
unsafe fn gather_lanes<const N: usize>(src: *const u8, shape: &RunShape, mut dst: *mut u8) {
    let (n0, s0) = shape.dims[0];
    let (n1, s1) = shape.dims[1];
    for i1 in 0..n1 {
        let mut row = src.add(shape.base + i1 * s1);
        for _ in 0..n0 {
            (dst as *mut [u8; N]).write_unaligned((row as *const [u8; N]).read_unaligned());
            dst = dst.add(N);
            row = row.add(s0);
        }
    }
}

/// Strided scatter with a compile-time run width — the inverse of
/// [`gather_lanes`].
///
/// # Safety
/// Same contract as [`gather_lanes`] with `src`/`dst` roles swapped: `src`
/// holds `shape.nruns * N` packed bytes, every destination run is in-bounds
/// of the `dst` allocation.
unsafe fn scatter_lanes<const N: usize>(mut src: *const u8, shape: &RunShape, dst: *mut u8) {
    let (n0, s0) = shape.dims[0];
    let (n1, s1) = shape.dims[1];
    for i1 in 0..n1 {
        let mut row = dst.add(shape.base + i1 * s1);
        for _ in 0..n0 {
            (row as *mut [u8; N]).write_unaligned((src as *const [u8; N]).read_unaligned());
            src = src.add(N);
            row = row.add(s0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shape_2d(base: usize, run: usize, n0: usize, s0: usize, n1: usize, s1: usize) -> RunShape {
        RunShape { run_bytes: run, base, dims: [(n0, s0), (n1, s1)], nruns: n0 * n1 }
    }

    /// Reference gather: straight byte loop over the run iterator.
    fn reference_pack(src: &[u8], shape: &RunShape) -> Vec<u8> {
        let mut out = Vec::new();
        for (off, len) in runs(shape) {
            out.extend_from_slice(&src[off..off + len]);
        }
        out
    }

    #[test]
    fn lane_and_scalar_gathers_match_reference() {
        let src: Vec<u8> = (0..4096).map(|i| (i % 251) as u8).collect();
        // Every lane width plus scalar widths, strided and offset.
        for run in [1usize, 2, 3, 4, 5, 8, 12, 16, 24, 32, 64] {
            let shape = shape_2d(7, run, 5, run + 3, 4, 5 * (run + 3) + 11);
            assert!(shape.max_end() <= src.len());
            let mut out = vec![0xAB; 3];
            pack_runs(&src, &shape, &mut out);
            assert_eq!(&out[..3], &[0xAB; 3]);
            assert_eq!(&out[3..], reference_pack(&src, &shape).as_slice(), "run width {run}");
        }
    }

    #[test]
    fn scatter_is_inverse_of_gather() {
        let src: Vec<u8> = (0..4096).map(|i| (i % 239) as u8).collect();
        for run in [1usize, 2, 4, 7, 8, 12, 16, 64] {
            let shape = shape_2d(13, run, 6, run + 2, 3, 6 * (run + 2) + 9);
            let packed = reference_pack(&src, &shape);
            let mut dst = vec![0u8; src.len()];
            unpack_runs(&packed, &shape, &mut dst);
            // Re-gathering the scattered bytes restores the packed image.
            assert_eq!(reference_pack(&dst, &shape), packed, "run width {run}");
        }
    }

    #[test]
    fn hashed_pack_matches_one_shot_checksum() {
        use crate::integrity::checksum64;
        let src: Vec<u8> = (0..2048).map(|i| (i % 241) as u8).collect();
        for run in [1usize, 4, 5, 8, 16] {
            let shape = shape_2d(3, run, 7, run + 1, 2, 7 * (run + 1) + 5);
            let mut out = Vec::new();
            let mut sum = Checksum::new(99);
            pack_runs_hashed(&src, &shape, &mut out, &mut sum);
            assert_eq!(sum.finish(), checksum64(99, &out), "run width {run}");
        }
    }

    #[test]
    fn hashed_unpack_matches_one_shot_checksum() {
        use crate::integrity::checksum64;
        let src: Vec<u8> = (0..2048).map(|i| (i % 241) as u8).collect();
        // Strided widths plus the fused single-run shape.
        let shapes = [1usize, 4, 5, 8, 16]
            .map(|run| shape_2d(3, run, 7, run + 1, 2, 7 * (run + 1) + 5))
            .into_iter()
            .chain([RunShape::contiguous(11, 777)]);
        for shape in shapes {
            let packed = reference_pack(&src, &shape);
            let mut dst = vec![0u8; src.len()];
            let mut sum = Checksum::new(42);
            unpack_runs_hashed(&packed, &shape, &mut dst, &mut sum);
            assert_eq!(sum.finish(), checksum64(42, &packed), "shape {shape:?}");
            assert_eq!(reference_pack(&dst, &shape), packed, "shape {shape:?}");
        }
    }

    #[test]
    fn fused_single_run_is_one_memcpy() {
        let src: Vec<u8> = (0..64).collect();
        let shape = RunShape::contiguous(8, 16);
        let before = snapshot().fused_runs;
        let mut out = Vec::new();
        pack_runs(&src, &shape, &mut out);
        assert_eq!(out, &src[8..24]);
        assert_eq!(snapshot().fused_runs, before + 1);
    }

    #[test]
    fn empty_and_zero_width_shapes_are_noops() {
        let src = [0u8; 16];
        let mut out = Vec::new();
        pack_runs(&src, &RunShape::EMPTY, &mut out);
        pack_runs(&src, &RunShape::contiguous(4, 0), &mut out);
        assert!(out.is_empty());
        let mut dst = [9u8; 16];
        unpack_runs(&[], &RunShape::EMPTY, &mut dst);
        assert_eq!(dst, [9u8; 16]);
    }

    #[test]
    fn multi_mib_strided_pack_and_unpack_match_reference() {
        use crate::integrity::checksum64;
        // Multi-MiB strided selection: 96 runs x 64 KiB = 6 MiB, moved on
        // the calling thread, plain and hashed.
        let run = 64 * 1024;
        let n1 = 96;
        let src: Vec<u8> = (0..(run + 512) * n1 + 64).map(|i| (i % 253) as u8).collect();
        let shape = shape_2d(32, run, 1, 0, n1, run + 512);
        let reference = reference_pack(&src, &shape);
        let mut out = Vec::new();
        pack_runs(&src, &shape, &mut out);
        assert_eq!(out, reference);
        let mut dst = vec![0u8; src.len()];
        unpack_runs(&out, &shape, &mut dst);
        assert_eq!(reference_pack(&dst, &shape), reference);

        let mut hashed = Vec::new();
        let mut sum = Checksum::new(7);
        pack_runs_hashed(&src, &shape, &mut hashed, &mut sum);
        assert_eq!(hashed, reference);
        assert_eq!(sum.finish(), checksum64(7, &reference));
        let mut dst = vec![0u8; src.len()];
        let mut sum = Checksum::new(13);
        unpack_runs_hashed(&reference, &shape, &mut dst, &mut sum);
        assert_eq!(sum.finish(), checksum64(13, &reference));
        assert_eq!(reference_pack(&dst, &shape), reference);
    }
}
