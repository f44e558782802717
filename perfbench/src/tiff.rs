//! `tiff_load`: the paper's use case 1 in measured mode. Each op loads a
//! phantom TIFF stack with `ddr_bench::loader::load_stack(..,
//! Method::Consecutive)`: decode, mapping set-up and a cold `reorganize`,
//! every time.
//!
//! `load_stack` is one public call, so a traced run cannot see its layers.
//! There each op is instead the same load assembled from the public calls
//! it makes — `dtiff::read_stack_slice` per slice, `setup_data_mapping_with`
//! and `reorganize_with_stats` — with a span around each. The benchmark
//! checks that this assembly returns exactly what `load_stack` does, and a
//! traced run is correct only if the assembly's median op time stays within
//! [`COPY_BAND`] of `load_stack`'s, so a copy that drifts from the loader
//! fails loudly.

use crate::harness::{span, timed, Control, TRIAL_BASE};
use crate::workload::{launch, RankOut, Session, Workload, RANKS};
use ddr_bench::loader::load_stack;
use ddr_bench::tiffcase::Method;
use ddr_core::decompose::{brick, consecutive_items, near_cubic_grid};
use ddr_core::{Block, DataKind, Descriptor, RedistStats, Strategy, ValidationPolicy};
use minimpi::Comm;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Volume extent (x, y, z): 128 slices of 256×128 16-bit pixels.
pub const VOL: [usize; 3] = [256, 128, 128];

/// Band that `trace.overhead_ratio` (assembled load over `load_stack`, median
/// op time) must stay in. Six traced runs of the final code read 0.985–1.035.
pub const COPY_BAND: (f64, f64) = (0.9, 1.1);

/// Largest difference between a loaded voxel and the volume it was written
/// from: the u16 quantization bound `loader.rs`'s own test uses.
const TOLERANCE: f32 = 1.0 / 65000.0 + 1e-4;

pub struct Tiff {
    dir: PathBuf,
    /// Per rank, the brick `load_stack` must return, from the float volume
    /// before quantization.
    expected: Vec<(Block, Vec<f32>)>,
}

impl Tiff {
    /// Write the seeded phantom stack into `dir`.
    pub fn new(seed: u64, dir: PathBuf) -> Result<Tiff, String> {
        let mut vol = volren::phantom_tooth(VOL);
        // Seeded texture of up to ±1/64 over the phantom, so each seed
        // writes different files.
        let mut z = seed | 1;
        for v in &mut vol {
            z ^= z << 13;
            z ^= z >> 7;
            z ^= z << 17;
            *v = (*v + ((z >> 40) as f32 / (1u64 << 24) as f32 - 0.5) / 32.0).clamp(0.0, 1.0);
        }
        let plane = VOL[0] * VOL[1];
        let slices = vol
            .chunks_exact(plane)
            .map(|s| {
                let px = s.iter().map(|&v| (v * 65535.0) as u16).collect();
                dtiff::TiffImage::new(VOL[0] as u32, VOL[1] as u32, dtiff::PixelData::U16(px))
            })
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| e.to_string())?;
        dtiff::write_stack(&dir, &slices, dtiff::Endian::Little).map_err(|e| e.to_string())?;
        let domain = Block::d3([0, 0, 0], VOL).expect("volume block");
        let expected = (0..RANKS)
            .map(|r| {
                let b = brick(&domain, near_cubic_grid(RANKS), r).expect("brick");
                let v = b.coords().map(|c| vol[c[0] + VOL[0] * (c[1] + VOL[1] * c[2])]).collect();
                (b, v)
            })
            .collect();
        Ok(Tiff { dir, expected })
    }

    fn check(&self, rank: usize, block: &Block, data: &[f32]) -> bool {
        let (b, want) = &self.expected[rank];
        b == block
            && data.len() == want.len()
            && data.iter().zip(want).all(|(g, w)| (g - w).abs() < TOLERANCE)
    }
}

impl Drop for Tiff {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// `load_stack` reads each sample through a call to `PixelData::get_f64`
/// that the compiler does not inline into `ddr-bench`; that call is most of
/// the load's time. The assembled load makes the same out-of-line call, so
/// the two cost the same; [`COPY_BAND`] holds them to it.
#[inline(never)]
fn sample(data: &dtiff::PixelData, i: usize) -> f64 {
    data.get_f64(i)
}

/// `load_stack(.., Method::Consecutive)` from its public parts, with a span
/// around each; returns the brick, its voxels, the redistribution stats and
/// the slices this rank decoded.
fn load_traced(
    comm: &Comm,
    dir: &Path,
    op: u64,
) -> Result<(Block, Vec<f32>, RedistStats, usize), String> {
    let (n, r) = (comm.size(), comm.rank());
    let e = |e: &dyn std::fmt::Display| e.to_string();
    let domain = Block::d3([0, 0, 0], VOL).map_err(|x| e(&x))?;
    let need = brick(&domain, near_cubic_grid(n), r).map_err(|x| e(&x))?;
    let (z0, len) = consecutive_items(VOL[2], n, r);
    let mut owned = Vec::new();
    let mut data = Vec::with_capacity(len * VOL[0] * VOL[1]);
    if len > 0 {
        owned.push(Block::d3([0, 0, z0], [VOL[0], VOL[1], len]).map_err(|x| e(&x))?);
        for z in z0..z0 + len {
            let img = {
                let _s = span("dtiff.decode_ms", op, r);
                dtiff::read_stack_slice(dir, z).map_err(|x| e(&x))?
            };
            if img.kind() != dtiff::PixelKind::U16 {
                return Err(format!("slice {z} is not 16-bit"));
            }
            // The loader's own normalization, sample by sample.
            let slice: Vec<f32> =
                (0..img.data.len()).map(|i| (sample(&img.data, i) / 65535.0) as f32).collect();
            data.extend(slice);
        }
    }
    let plan = {
        let _s = span("core.setup_mapping_ms", op, r);
        let desc = Descriptor::for_type::<f32>(n, DataKind::D3).map_err(|x| e(&x))?;
        desc.setup_data_mapping_with(comm, &owned, need, ValidationPolicy::Skip)
            .map_err(|x| e(&x))?
    };
    let mut out = vec![0f32; need.count() as usize];
    let (report, stats) = {
        let _s = span("core.first_reorganize_ms", op, r);
        plan.reorganize_with_stats(
            comm,
            &[data.as_slice()][..owned.len()],
            &mut out,
            Strategy::Alltoallw,
        )
        .map_err(|x| e(&x))?
    };
    if !report.is_complete() {
        return Err("incomplete redistribution".into());
    }
    Ok((need, out, stats, len))
}

impl Workload for Tiff {
    fn warmup(&self) -> u64 {
        4
    }

    fn window(&self) -> u64 {
        8
    }

    fn payload_bytes(&self) -> f64 {
        (VOL[0] * VOL[1] * VOL[2] * 2) as f64
    }

    fn delivered_bytes(&self) -> f64 {
        (VOL[0] * VOL[1] * VOL[2] * 4) as f64
    }

    fn session(&self, ctl: &Control, trial: Option<u64>) -> Result<Session, String> {
        let traced = ctl.traced();
        launch(|comm: &Comm| -> Result<RankOut, String> {
            let r = comm.rank();
            let plain = |comm: &Comm| {
                load_stack(comm, &self.dir, VOL, Method::Consecutive)
                    .map(|(b, v, _)| (b, v))
                    .map_err(|e| e.to_string())
            };
            let op0 = trial.map_or(0, |k| TRIAL_BASE + k);
            let first = if traced {
                load_traced(comm, &self.dir, op0).map(|(b, v, ..)| (b, v))
            } else {
                plain(comm)
            };
            let mut out = RankOut::new(Instant::now());
            out.first_ok = first.as_ref().is_ok_and(|(b, v)| self.check(r, b, v));
            if trial.is_some() {
                return Ok(out);
            }
            if traced {
                // The assembled load must be the load users call.
                let reference = plain(comm)?;
                if first.as_ref().ok() != Some(&reference) {
                    return Err(format!("rank {r}: traced load differs from load_stack"));
                }
            }
            let mut images = (0u64, 0u64);
            let (warm, timed_ops) = ctl
                .run(comm, self.warmup(), |i| {
                    if ddrtrace::enabled() {
                        let (mut rec, res) = timed(i, r, || load_traced(comm, &self.dir, i));
                        rec.ok = res.as_ref().is_ok_and(|(b, v, ..)| self.check(r, b, v));
                        if let Ok((_, _, stats, n)) = res {
                            rec.stats = Some(stats);
                            images = (images.0 + n as u64, images.1 + 1);
                        }
                        rec
                    } else {
                        let (mut rec, res) = timed(i, r, || plain(comm));
                        rec.ok = res.as_ref().is_ok_and(|(b, v)| self.check(r, b, v));
                        rec
                    }
                })
                .map_err(|e| format!("rank {r}: {e}"))?;
            if images.1 > 0 {
                out.extra.insert("dtiff.images_read", images.0 as f64 / images.1 as f64);
            }
            out.finish(comm, warm, timed_ops);
            Ok(out)
        })
    }
}
