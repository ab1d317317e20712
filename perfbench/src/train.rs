//! The `train-stream` workload: a closed training loop over a
//! low-motion coherent stream with AMP and micro-batches.
//!
//! Steps go through `Trainer::step` on windows pre-generated exactly as
//! `Trainer::run_stream` forms them (the tests check the two agree bit
//! for bit), so no ray casting happens inside the timed loop.
//!
//! A run makes several identical passes over the same windows, each
//! from a fresh boot. Every pass does the same work bit for bit, so a
//! step's fastest pass is its time with the host's episodic slow
//! stretches discounted, and the boots are the repeated set-up.

use std::path::Path;
use std::time::Instant;

use serde_json::json;
use ts_cache::{tune_training_cached, DriftPolicy, TrainScheduleCache};
use ts_core::{Network, SparseTensor};
use ts_dataflow::ExecCtx;
use ts_gpusim::Device;
use ts_tensor::Precision;
use ts_train::{weights_digest, StepReport, Trainer, TrainerConfig};
use ts_workloads::models;

use crate::inputs::{self, Digest};
use crate::replay::{self, StreamMirror, Work};
use crate::spans::Recorder;
use crate::stats::{self, median, tail};
use crate::{alloc, Metrics, RunArgs, RunResult};

pub const NAME: &str = "train-stream";
const BATCH_FRAMES: usize = 2;
const MICRO_BATCHES: usize = 2;
const MAX_RANGE_M: f32 = 6.0;
/// Passes over the windows, each from a fresh boot.
const PASSES: usize = 6;
/// Set-ups timed before each pass; the last one trains the pass.
/// `setup_s` is the fastest of all of them.
const BOOTS_PER_PASS: usize = 2;
/// Timed steps of one pass per second of `--seconds`.
const STEPS_PER_SECOND: f64 = 0.5;
/// Steps the traced run replays.
const TRACED_STEPS: usize = 10;

fn network() -> Network {
    models::minkunet(0.25, 4, 19)
}

fn ctx() -> ExecCtx {
    ExecCtx::simulate(Device::rtx3090(), Precision::Fp16)
}

fn config() -> TrainerConfig {
    TrainerConfig {
        batch_frames: BATCH_FRAMES,
        micro_batches: MICRO_BATCHES,
        amp: true,
        tuner: ts_autotune::TunerOptions::default().with_threads(2),
        ..TrainerConfig::default()
    }
}

/// Timed steps of one pass.
fn timed_steps(seconds: u64) -> usize {
    ((seconds as f64 * STEPS_PER_SECOND).round() as usize).max(4)
}

/// The timed steps' windows.
pub fn windows(seed: u64, steps: usize) -> Vec<SparseTensor> {
    inputs::training_windows(seed, BATCH_FRAMES, steps, MAX_RANGE_M)
}

/// Seed of the window the set-up's first (cold-tuning) step trains on.
/// It is fixed, like the model, so set-up work is the same for every
/// `--seed`: how much tuning a cold start needs depends on the window.
const CALIBRATION_SEED: u64 = 0;

fn calibration_window() -> SparseTensor {
    inputs::training_windows(CALIBRATION_SEED, BATCH_FRAMES, 1, MAX_RANGE_M)
        .pop()
        .expect("one window")
}

/// Digest of a run's inputs: the step windows.
pub fn input_digest(seed: u64, seconds: u64) -> String {
    let mut d = Digest::default();
    for w in windows(seed, timed_steps(seconds)) {
        d.tensor(&w);
    }
    d.hex()
}

/// `steps` steps of `Trainer::step` over the pre-generated windows.
pub fn step_windows(seed: u64, steps: usize) -> (Vec<f32>, String) {
    let mut trainer = Trainer::new(&network(), crate::MODEL_SEED, &ctx(), config());
    let losses = inputs::training_windows(seed, BATCH_FRAMES, steps, MAX_RANGE_M)
        .iter()
        .map(|w| trainer.step(w).expect("step runs").loss)
        .collect();
    (losses, weights_digest(trainer.weights()))
}

/// `steps` steps of `Trainer::run_stream` over the workload's stream,
/// for checking [`step_windows`] against it.
pub fn run_stream_reference(seed: u64, steps: usize) -> (Vec<f32>, String) {
    let mut trainer = Trainer::new(&network(), crate::MODEL_SEED, &ctx(), config());
    let mut stream = inputs::training_stream(seed, MAX_RANGE_M);
    let reports = trainer.run_stream(&mut stream, steps).expect("steps run");
    (
        reports.iter().map(|r| r.loss).collect(),
        weights_digest(trainer.weights()),
    )
}

/// The set-up a user pays: weight init, trainer construction over a
/// fresh schedule-cache directory, and the first (cold-tuning) step.
fn boot(first: &SparseTensor, dir: &Path) -> (Trainer, StepReport) {
    let mut trainer = Trainer::new(&network(), crate::MODEL_SEED, &ctx(), config())
        .with_cache_dir(dir)
        .expect("train cache directory opens");
    let report = trainer.step(first).expect("warm-up step runs");
    (trainer, report)
}

/// Replays steps through the layers, each with the weights and loss
/// scale the trainer held before it; its map and schedule-cache state
/// track the trainer's as long as it sees every step.
struct Replayer {
    net: Network,
    scheme: ts_autotune::BindingScheme,
    mirror: StreamMirror,
    cache: TrainScheduleCache,
    rec: Recorder,
    work: Work,
    evaluations: usize,
    wall_ms: f64,
}

impl Replayer {
    fn new(scheme: ts_autotune::BindingScheme, traced: bool) -> Self {
        let net = network();
        let ks = replay::stream_kernel_size(&net).expect("network has a submanifold group");
        let cfg = config();
        Self {
            net,
            scheme,
            mirror: StreamMirror::new(ks, replay::split_count(&cfg.tuner.default), cfg.delta),
            cache: TrainScheduleCache::in_memory(),
            rec: Recorder::new(traced),
            work: Work::default(),
            evaluations: 0,
            wall_ms: 0.0,
        }
    }

    /// Replays one step; returns the summed micro-batch loss.
    fn step(
        &mut self,
        req: u64,
        weights: &ts_core::NetworkWeights,
        loss_scale: f32,
        input: &SparseTensor,
    ) -> f32 {
        let cfg = config();
        let ctx = ctx();
        let t = Instant::now();
        let Self {
            net,
            scheme,
            mirror,
            cache,
            rec,
            work,
            evaluations,
            ..
        } = self;
        let loss = rec.request(req, |rec| {
            let c = replay::compile(rec, net, input, Some(mirror), work).expect("step compiles");
            let tune = rec.time("autotune.tune", |_| {
                tune_training_cached(
                    cache,
                    std::slice::from_ref(&c.session),
                    &ctx,
                    &cfg.tuner,
                    *scheme,
                    &DriftPolicy::default(),
                )
                .expect("in-memory cache")
            });
            *evaluations += tune.result.evaluations;
            rec.time("gpusim.price", |_| {
                c.session.simulate_training(&tune.result.configs, &ctx);
                c.session
                    .simulate_training(&ts_core::TrainConfigs::bound(cfg.tuner.default), &ctx);
            });
            let mut batches: Vec<i32> = c.input.coords().iter().map(|co| co.batch).collect();
            batches.sort_unstable();
            batches.dedup();
            let k = cfg.micro_batches.clamp(1, batches.len().max(1));
            let chunk = batches.len().div_ceil(k);
            let mut loss = 0.0f32;
            for lo in (0..batches.len()).step_by(chunk.max(1)) {
                let span = &batches[lo..(lo + chunk).min(batches.len())];
                let micro = rec.time("core.mask", |_| mask_to_batches(&c.input, span));
                let out = rec.time("train.fwd_bwd", |rec| {
                    replay::fwd_bwd(
                        rec,
                        net,
                        weights,
                        &c.session,
                        &micro,
                        &tune.result.configs,
                        &ctx,
                        loss_scale,
                        cfg.amp,
                        work,
                    )
                });
                loss += out.loss;
            }
            loss
        });
        self.wall_ms += t.elapsed().as_secs_f64() * 1e3;
        loss
    }
}

fn mask_to_batches(input: &SparseTensor, span: &[i32]) -> SparseTensor {
    let mut out = input.clone();
    for (i, c) in input.coords().iter().enumerate() {
        if !span.contains(&c.batch) {
            out.feats_mut().row_mut(i).fill(0.0);
        }
    }
    out
}

pub fn run(args: &RunArgs, tmp: &Path) -> RunResult {
    let (n, passes) = if args.trace {
        (TRACED_STEPS, 1)
    } else {
        (timed_steps(args.seconds), PASSES)
    };
    let windows = windows(args.seed, n);
    let calibration = calibration_window();
    let heap_base = alloc::reset_peak();

    // The binding scheme the trainer resolves its configuration to.
    let scheme = config()
        .scheme
        .unwrap_or_else(|| ts_autotune::default_scheme_for(ctx().device()));
    // Traced run: replay every step (the warm-up one included) twice,
    // with and without spans; the difference is the tracing overhead.
    let mut traced = Replayer::new(scheme, true);
    let mut plain = Replayer::new(scheme, false);
    let mut replay_losses = Vec::new();
    let mut replay =
        |i: u64, weights: &ts_core::NetworkWeights, scale: f32, w: &SparseTensor, loss: f32| {
            let l = traced.step(i, weights, scale, w);
            plain.step(i, weights, scale, w);
            replay_losses.push((l, loss));
        };

    let boots = if args.trace { 1 } else { BOOTS_PER_PASS };
    let mut setup_s = Vec::with_capacity(passes * boots);
    // step_ms[pass][step]
    let mut step_ms: Vec<Vec<f64>> = Vec::with_capacity(passes);
    let mut losses: Vec<Vec<f32>> = Vec::with_capacity(passes);
    let mut digests = Vec::with_capacity(passes);
    let mut reports: Vec<StepReport> = Vec::with_capacity(n);
    let mut step_errors = 0usize;
    for pass in 0..passes {
        let mut booted = None;
        for _ in 0..boots {
            drop(booted.take());
            let t = Instant::now();
            let b = boot(
                &calibration,
                &tmp.join(format!("train-cache-{}", setup_s.len())),
            );
            setup_s.push(t.elapsed().as_secs_f64());
            booted = Some(b);
        }
        let (mut trainer, first) = booted.expect("at least one set-up");
        if args.trace {
            replay(
                0,
                &network().init_weights(crate::MODEL_SEED),
                ts_core::LossScaler::new().scale,
                &calibration,
                first.loss,
            );
        }
        let mut ms = Vec::with_capacity(n);
        let mut pass_losses = Vec::with_capacity(n);
        for (i, w) in windows.iter().enumerate() {
            let before = args.trace.then(|| {
                (
                    trainer.weights().clone(),
                    trainer.scaler().map_or(1.0, |s| s.scale),
                )
            });
            let t = Instant::now();
            let r = trainer.step(w);
            ms.push(t.elapsed().as_secs_f64() * 1e3);
            match r {
                Ok(r) => {
                    if let Some((weights, scale)) = before {
                        replay(i as u64 + 1, &weights, scale, w, r.loss);
                    }
                    pass_losses.push(r.loss);
                    if pass == 0 {
                        reports.push(r);
                    }
                }
                Err(_) => step_errors += 1,
            }
        }
        step_ms.push(ms);
        losses.push(pass_losses);
        digests.push(weights_digest(trainer.weights()));
    }
    let peak_heap_mb = alloc::peak().saturating_sub(heap_base) as f64 / 1e6;

    let non_finite = losses.iter().flatten().filter(|l| !l.is_finite()).count();
    // Every pass must repeat the first bit for bit.
    let same_bits = |a: &[f32], b: &[f32]| {
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
    };
    let pass_mismatch = (1..passes)
        .filter(|&p| !same_bits(&losses[p], &losses[0]) || digests[p] != digests[0])
        .count();
    let loss_mismatch = replay_losses
        .iter()
        .filter(|(a, b)| a.to_bits() != b.to_bits())
        .count();
    let completed: usize = losses.iter().map(Vec::len).sum();
    let attempted = passes * n + completed + (passes - 1) + replay_losses.len();
    let mut failed = step_errors + non_finite + pass_mismatch + loss_mismatch;
    // A step's time is its fastest pass: the passes do identical work,
    // so only host interference tells them apart.
    let best_ms: Vec<f64> = (0..n)
        .map(|i| {
            step_ms
                .iter()
                .filter_map(|p| p.get(i).copied())
                .fold(f64::INFINITY, f64::min)
        })
        .collect();
    let frames_per_s = (n * BATCH_FRAMES) as f64 * 1e3 / best_ms.iter().sum::<f64>();
    let all_ms: Vec<f64> = step_ms.iter().flatten().copied().collect();
    let pass_fps: Vec<f64> = step_ms
        .iter()
        .map(|p| (p.len() * BATCH_FRAMES) as f64 * 1e3 / p.iter().sum::<f64>())
        .collect();
    let pass_p50: Vec<f64> = step_ms.iter().map(|p| median(p)).collect();
    let tail_est = tail(&all_ms);
    let patched = reports.iter().filter(|r| r.map_update == "patched").count();
    let skipped = reports.iter().filter(|r| !r.applied).count();
    let hits = reports.iter().filter(|r| r.tune_origin == "hit").count();
    let sim_us_per_frame = stats::mean(
        &reports
            .iter()
            .map(|r| r.sim.step_us() / BATCH_FRAMES as f64)
            .collect::<Vec<_>>(),
    );
    let mut detail = json!({
        "workload": NAME,
        "ungated": {
            "latency_tail_ms": tail_est.value,
        },
        "steps_per_pass": n,
        "passes": passes,
        "batch_frames": BATCH_FRAMES,
        "micro_batches": MICRO_BATCHES,
        "pass_frames_per_s": pass_fps,
        "pass_step_p50_ms": pass_p50,
        "best_step_ms": best_ms,
        "step_ms": step_ms,
        "latency_tail_percentile": tail_est.percentile,
        "latency_samples": tail_est.samples,
        "setup_reps_s": setup_s,
        "weights_digest": digests.last(),
        "losses": losses.first(),
        "accounting": {
            "attempted_steps": passes * n,
            "completed_steps": completed,
            "step_errors": step_errors,
            "non_finite_losses": non_finite,
            "passes_differing_from_first": pass_mismatch,
            "skipped_overflow": skipped,
            "replay_loss_mismatches": loss_mismatch,
        },
        "tune_origins": reports.iter().map(|r| r.tune_origin.clone()).collect::<Vec<_>>(),
    });

    let mut m = Metrics::default();
    if args.trace {
        let per = traced.rec.per_request();
        let attribution_errors = crate::attribution_errors(&per);
        failed += attribution_errors;
        let steps = per.len().max(1) as f64;
        crate::span_metrics(
            &mut m,
            &per,
            &traced.work,
            (traced.wall_ms - plain.wall_ms) / steps,
        );
        m.push(
            "kernelmap.patched_share",
            patched as f64 / reports.len().max(1) as f64,
            "ratio",
        );
        m.push(
            "autotune.tune_ms",
            per.values().map(|t| t.ms("autotune.tune")).sum::<f64>() / steps,
            "ms",
        );
        m.push(
            "autotune.evaluations",
            traced.evaluations as f64 / steps,
            "count",
        );
        m.push(
            "cache.hit_share",
            hits as f64 / reports.len().max(1) as f64,
            "ratio",
        );
        m.push("train.step_ms", median(&all_ms), "ms");
        m.push(
            "train.skipped_share",
            skipped as f64 / reports.len().max(1) as f64,
            "ratio",
        );
        crate::set(&mut detail, "layer_share", crate::layer_shares(&per));
        crate::set(&mut detail, "attribution_errors", json!(attribution_errors));
    } else {
        m.push("latency_p50_ms", median(&best_ms), "ms");
        m.push("frames_per_s", frames_per_s, "1/s");
        m.push("sim_us_per_frame", sim_us_per_frame, "us");
        m.push("setup_s", stats::min(&setup_s), "s");
        m.push("peak_heap_mb", peak_heap_mb, "MB");
        m.push(
            "ok_share",
            1.0 - failed as f64 / attempted.max(1) as f64,
            "ratio",
        );
    }
    RunResult {
        attempted: attempted as u64,
        failed: failed as u64,
        metrics: m,
        detail,
        spans: args.trace.then(|| traced.rec.to_json()),
    }
}
