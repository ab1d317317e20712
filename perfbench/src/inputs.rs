//! Seeded inputs. Every frame, arrival gap and training window is made
//! here from the `--seed` argument before anything is timed; the
//! program only ever receives the generated tensors.

use ts_core::SparseTensor;
use ts_kernelmap::Coord;
use ts_tensor::{rng_from_seed, Matrix};
use ts_workloads::{LidarConfig, LidarScene, LidarStream, Workload};

use rand::Rng;

/// Densely sampled short-range sensor: several rays land in each
/// surface voxel, so a small ego shift re-hits the same voxels and the
/// stream is temporally coherent (low churn, maps patch in place).
pub fn coherent_sensor(max_range_m: f32) -> LidarConfig {
    LidarConfig {
        beams: 48,
        azimuth_steps: 480,
        elevation_min_deg: -25.0,
        elevation_max_deg: 3.0,
        max_range_m,
        voxel_size_m: 0.3,
        obstacles: 8,
        dropout: 0.0,
    }
}

/// Low ego motion: 5 cm per frame.
pub const LOW_MOTION_M: f32 = 0.05;

/// The scenes are fixed: stream slot `s` always drives through world
/// `WORLD_BASE + s`. The seed picks where along its drive each stream
/// starts (and the arrival schedule), so runs with different seeds see
/// different frames of statistically identical scenes and their spread
/// measures the system, not the scene size.
const WORLD_BASE: u64 = 7_000;

/// Frames a stream may skip before its first request.
const MAX_SKIP: u64 = 6;

/// SplitMix64 finaliser over (seed, slot): nearby seeds give unrelated
/// values.
fn skip_hash(seed: u64, slot: u64) -> u64 {
    let mut z = seed
        .wrapping_add(slot.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn skip(seed: u64, slot: u64) -> usize {
    (skip_hash(seed, slot) % MAX_SKIP) as usize
}

/// A seed-derived heading drift of at most 1 mrad per frame: it makes
/// every seed's frames distinct while keeping them coherent (a few mm of
/// sweep at 10 m per frame).
fn yaw(seed: u64, slot: u64) -> f32 {
    (skip_hash(seed ^ 0x5EED_D21F, slot) % 2001) as f32 * 1e-6 - 1e-3
}

fn take_after_skip(mut stream: LidarStream, skip: usize, frames: usize) -> Vec<SparseTensor> {
    for _ in 0..skip {
        stream.next_frame();
    }
    (0..frames)
        .map(|_| stream.next_frame().into_tensor())
        .collect()
}

/// `frames` consecutive frames of each of `streams` coherent streams.
pub fn coherent_streams(
    seed: u64,
    streams: usize,
    frames: usize,
    max_range_m: f32,
) -> Vec<Vec<SparseTensor>> {
    (0..streams as u64)
        .map(|s| {
            let st = LidarStream::new(coherent_sensor(max_range_m), WORLD_BASE + s)
                .with_motion(LOW_MOTION_M, yaw(seed, s));
            take_after_skip(st, skip(seed, s), frames)
        })
        .collect()
}

/// Default-motion (0.5 m/frame with yaw drift) nuScenes-style streams,
/// scaled down in angular resolution to `scale`.
pub fn default_motion_streams(
    seed: u64,
    streams: usize,
    frames: usize,
    scale: f32,
) -> Vec<Vec<SparseTensor>> {
    (0..streams as u64)
        .map(|s| {
            let st = Workload::NuScenesMinkUNet1f.stream_scaled(WORLD_BASE + s, scale);
            take_after_skip(st, skip(seed, s), frames)
        })
        .collect()
}

/// The frame index a stream shows on its `k`-th request: a ping-pong
/// walk over its `n` frames, so consecutive requests stay coherent.
pub fn pingpong(k: usize, n: usize) -> usize {
    if n <= 1 {
        return 0;
    }
    let period = 2 * n - 2;
    let m = k % period;
    if m < n {
        m
    } else {
        period - m
    }
}

/// Unit-mean exponential inter-arrival gaps (a Poisson process at rate
/// 1); scale by `1 / rate` for any rate.
pub fn unit_gaps(seed: u64, n: usize) -> Vec<f64> {
    let mut rng = rng_from_seed(seed ^ 0xA11_0CA7E);
    (0..n)
        .map(|_| {
            let u: f64 = rng.gen::<f64>();
            -(1.0 - u).max(f64::MIN_POSITIVE).ln()
        })
        .collect()
}

/// The coherent stream training reads, advanced to the seed's start.
pub fn training_stream(seed: u64, max_range_m: f32) -> LidarStream {
    let mut stream = LidarStream::new(coherent_sensor(max_range_m), WORLD_BASE)
        .with_motion(LOW_MOTION_M, yaw(seed, 0));
    for _ in 0..skip(seed, 0) {
        stream.next_frame();
    }
    stream
}

/// Training windows exactly as `Trainer::run_stream` forms them: a
/// sliding `batch_frames`-wide window where frame `n` keeps slot
/// `n % batch_frames`, merged with slot `s` rebatched to batch index
/// `s`. Window `i` is the input of step `i + 1`.
pub fn training_windows(
    seed: u64,
    batch_frames: usize,
    steps: usize,
    max_range_m: f32,
) -> Vec<SparseTensor> {
    let mut stream = training_stream(seed, max_range_m);
    let mut window: Vec<Option<LidarScene>> = vec![None; batch_frames];
    for _ in 0..batch_frames {
        let slot = (stream.frames_emitted() % batch_frames as u64) as usize;
        window[slot] = Some(stream.next_frame());
    }
    let mut out = Vec::with_capacity(steps);
    for _ in 0..steps {
        out.push(merge_window(&window));
        let slot = (stream.frames_emitted() % batch_frames as u64) as usize;
        window[slot] = Some(stream.next_frame());
    }
    out
}

fn merge_window(window: &[Option<LidarScene>]) -> SparseTensor {
    let frames: Vec<(usize, &LidarScene)> = window
        .iter()
        .enumerate()
        .filter_map(|(s, f)| f.as_ref().map(|f| (s, f)))
        .collect();
    let total: usize = frames.iter().map(|(_, f)| f.coords.len()).sum();
    let cols = frames.first().map_or(0, |(_, f)| f.feats.cols());
    let mut coords = Vec::with_capacity(total);
    let mut feats = Matrix::zeros(total, cols);
    let mut row = 0;
    for (slot, frame) in frames {
        for (i, c) in frame.coords.iter().enumerate() {
            coords.push(Coord::new(slot as i32, c.x, c.y, c.z));
            feats.row_mut(row).copy_from_slice(frame.feats.row(i));
            row += 1;
        }
    }
    SparseTensor::new(coords, feats)
}

/// FNV-1a digest over coordinates, feature bits and gaps: equal inputs
/// give equal digests.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    fn eat(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn tensor(&mut self, t: &SparseTensor) {
        for c in t.coords() {
            self.eat(&c.key().to_le_bytes());
        }
        for v in t.feats().as_slice() {
            self.eat(&v.to_bits().to_le_bytes());
        }
    }

    pub fn floats(&mut self, v: &[f64]) {
        for x in v {
            self.eat(&x.to_bits().to_le_bytes());
        }
    }

    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pingpong_walks_back_and_forth() {
        let seq: Vec<usize> = (0..8).map(|k| pingpong(k, 4)).collect();
        assert_eq!(seq, [0, 1, 2, 3, 2, 1, 0, 1]);
        assert_eq!(pingpong(5, 1), 0);
    }

    #[test]
    fn gaps_have_unit_mean() {
        let g = unit_gaps(3, 20_000);
        let m = g.iter().sum::<f64>() / g.len() as f64;
        assert!((m - 1.0).abs() < 0.05, "mean gap {m}");
    }
}
