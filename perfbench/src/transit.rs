//! `in_transit`: the paper's use case 2 with one simulation rank and one
//! analysis rank. An op is one output frame: LBM steps, vorticity and
//! `send_frame` on the simulation rank; `recv_step`, the DDR repartition
//! (a self-copy with one analysis rank), the colormap and the JPEG encode on
//! the analysis rank.

use crate::harness::{span, timed, Control, TRIAL_BASE};
use crate::workload::{launch, RankOut, Session, Workload};
use ddr_core::Block;
use ddr_lbm::{barrier_line, Config, DistributedLbm};
use intransit::{
    analysis_block, consumer_sources, send_frame, split_resources, FrameReceiver, FrameRecvConfig,
    Repartitioner, Role,
};
use jimage::{jpeg, Colormap, RgbImage};
use minimpi::Comm;
use std::time::{Duration, Instant};

/// Grid extent and LBM steps per output frame: a frame takes tens of ms.
pub const NX: usize = 320;
pub const NY: usize = 128;
const STEPS_PER_FRAME: usize = 10;
/// Colormap range of the vorticity field, as in the `lbm_in_transit` example.
const VMIN: f32 = -0.08;
const VMAX: f32 = 0.08;
const JPEG_QUALITY: u8 = 75;

pub struct Transit {
    /// Obstacle: a vertical line at `x` spanning rows `y0..=y1`.
    barrier: (usize, usize, usize),
}

impl Transit {
    pub fn new(seed: u64) -> Transit {
        let x = NX / 8 + (seed % (NX as u64 / 4)) as usize;
        let y0 = NY / 4 + ((seed / 7) % (NY as u64 / 8)) as usize;
        Transit { barrier: (x, y0, y0 + NY / 4) }
    }
}

/// Simulation step number of frame `f` (frame 0 is the set-up op).
fn step_of(frame: u64) -> u64 {
    (frame + 1) * STEPS_PER_FRAME as u64
}

impl Workload for Transit {
    fn warmup(&self) -> u64 {
        4
    }

    fn window(&self) -> u64 {
        8
    }

    fn payload_bytes(&self) -> f64 {
        (NX * NY * 4) as f64
    }

    fn session(&self, ctl: &Control, trial: Option<u64>) -> Result<Session, String> {
        let (bx, by0, by1) = self.barrier;
        launch(|world: &Comm| -> Result<RankOut, String> {
            let r = world.rank();
            let e = |e: &dyn std::fmt::Display| format!("rank {r}: {e}");
            let op0 = trial.map_or(0, |k| TRIAL_BASE + k);
            let (role, group) = split_resources(world, 1).map_err(|x| e(&x))?;
            let mut out;
            let (warm, timed_ops) = match role {
                Role::Simulation => {
                    let obstacle = barrier_line(bx, by0, by1);
                    let mut sim =
                        DistributedLbm::new(Config::wind_tunnel(NX, NY), &group, &obstacle);
                    let mut frame = |i: u64, f: u64| -> Result<(), String> {
                        for _ in 0..STEPS_PER_FRAME {
                            let _s = span("lbm.step_ms", i, r);
                            sim.step(&group).map_err(|x| e(&x))?;
                        }
                        let vort = {
                            let _s = span("lbm.vorticity_ms", i, r);
                            sim.vorticity(&group).map_err(|x| e(&x))?
                        };
                        let (y0, rows) = sim.slab();
                        let block = Block::d2([0, y0], [NX, rows]).map_err(|x| e(&x))?;
                        let _s = span("intransit.send_frame_ms", i, r);
                        send_frame(world, 1, step_of(f), block, vort).map_err(|x| e(&x))
                    };
                    let first = frame(op0, 0);
                    out = RankOut::new(Instant::now());
                    out.first_ok = first.is_ok();
                    if trial.is_some() {
                        return Ok(out);
                    }
                    ctl.run(world, self.warmup(), |i| {
                        let (mut rec, res) = timed(i, r, || frame(i, i + 1));
                        rec.ok = res.is_ok();
                        rec
                    })
                }
                Role::Analysis => {
                    let need = analysis_block(NX, NY, 1, 0).map_err(|x| e(&x))?;
                    let mut rep = Repartitioner::degraded(need);
                    let cfg =
                        FrameRecvConfig { deadline: Duration::from_secs(2), ..Default::default() };
                    let mut rx = FrameReceiver::new(consumer_sources(1, 1, 0), cfg);
                    let cmap = Colormap::blue_white_red();
                    let (mut raw, mut coded) = (0usize, 0usize);
                    // One frame; returns whether the output checks out.
                    let mut frame = |i: u64, f: u64, raw: &mut usize, coded: &mut usize| {
                        let step = step_of(f);
                        let (mut rec, res) = timed(i, r, || -> Result<_, String> {
                            let frames = {
                                let _s = span("intransit.recv_step_ms", i, r);
                                rx.recv_step(world, step).map_err(|x| e(&x))?
                            };
                            let field = {
                                let _s = span("intransit.repartition_ms", i, r);
                                rep.redistribute(&group, &frames).map_err(|x| e(&x))?
                            };
                            let img = {
                                let _s = span("jimage.colormap_ms", i, r);
                                RgbImage::from_scalar_field(NX, NY, &field, VMIN, VMAX, &cmap)
                            };
                            let _s = span("jimage.jpeg_encode_ms", i, r);
                            let bytes = jpeg::encode(&img, JPEG_QUALITY).map_err(|x| e(&x))?;
                            Ok((frames, field, bytes))
                        });
                        rec.ok = res.is_ok_and(|(frames, field, bytes)| {
                            *raw += field.len() * 4;
                            *coded += bytes.len();
                            frames.len() == 1
                                && frames[0].step == step
                                && field == frames[0].data
                                && field.iter().all(|v| v.is_finite())
                                && jpeg::decode(&bytes)
                                    .is_ok_and(|img| (img.width, img.height) == (NX, NY))
                        });
                        rec
                    };
                    let first = frame(op0, 0, &mut raw, &mut coded);
                    out = RankOut::new(first.end);
                    out.first_ok = first.ok;
                    if trial.is_some() {
                        return Ok(out);
                    }
                    let loop_ops =
                        ctl.run(world, self.warmup(), |i| frame(i, i + 1, &mut raw, &mut coded));
                    let s = *rx.stats();
                    let frames = (s.received + s.skipped).max(1) as f64;
                    out.extra.insert("intransit.frames_skipped", s.skipped as f64 / frames);
                    out.extra.insert("intransit.frame_retries", s.retries as f64 / frames);
                    out.extra.insert("jimage.jpeg_ratio", raw as f64 / coded.max(1) as f64);
                    loop_ops
                }
            }
            .map_err(|x| e(&x))?;
            out.finish(world, warm, timed_ops);
            Ok(out)
        })
    }
}
