//! The two serving workloads: `price-serve` and `infer-serve`.
//!
//! Both drive a `ts_serve::Server` from one load-generator thread. A
//! run boots the server (the timed set-up, repeated), measures
//! closed-loop saturation throughput, serves a Poisson open loop at a
//! fixed reference rate, searches the highest rate that meets the
//! latency limit, and then checks outputs outside every timed window.

use std::collections::{BTreeMap, VecDeque};
use std::path::Path;
use std::time::{Duration, Instant};

use serde_json::{json, Value};
use ts_cache::{tune_cached, DriftPolicy, ScheduleCache, TuneOrigin};
use ts_core::{DeltaConfig, Engine, GroupConfigs, Network, NetworkWeights, Session, SparseTensor};
use ts_dataflow::ExecCtx;
use ts_gpusim::Device;
use ts_serve::{sort_by_coord, Rejected, ResponseHandle, ServeConfig, Server};
use ts_tensor::Precision;
use ts_workloads::models;

use crate::inputs::{self, pingpong, Digest};
use crate::replay::{self, LayerCheck, StreamMirror, Work};
use crate::spans::Recorder;
use crate::stats::{self, median, quantile, tail};
use crate::{alloc, Metrics, RunArgs, RunResult};

/// What the engine of a serving workload computes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Pricing only (`ExecCtx::simulate`) with per-stream map reuse and
    /// live telemetry; outputs are checked through their simulated cost.
    Pricing,
    /// Functional FP16 inference with multi-stream dynamic batching;
    /// outputs are checked against a serial engine and
    /// `reference_forward`.
    Functional,
}

/// Fixed parameters of one serving workload.
pub struct ServeSpec {
    pub name: &'static str,
    pub mode: Mode,
    /// Rounds the run is split into. Each round repeats the same
    /// saturation block and the same reference block, then runs its
    /// share of the SLO probes, so every estimate samples the whole run.
    /// The host's noise is episodic slow-downs, which min-of-N filters:
    /// a reference request counts its fastest round, and so does each
    /// chunk of the saturation block's completions.
    pub rounds: usize,
    pub streams: usize,
    pub frames_per_stream: usize,
    /// Open-loop reference rate latency is reported at, frames/s.
    pub reference_fps: f64,
    /// Share of `--seconds` spent at the reference rate.
    pub reference_share: f64,
    /// Limit on a probe's 90th-percentile latency, ms.
    pub latency_limit_ms: f64,
    /// Offered rates of the SLO probes, ascending, frames/s.
    pub probe_fps: &'static [f64],
    /// Nominal saturation throughput, frames/s: sizes the closed-loop
    /// phase so it lasts about its share of `--seconds`.
    pub nominal_fps: f64,
    /// Share of `--seconds` for the closed-loop saturation phase.
    pub saturation_share: f64,
    /// Share of `--seconds` for all SLO probes together; every probe
    /// lasts the same time.
    pub search_share: f64,
    pub warmup_requests: usize,
    /// Dashboard poll period (`report` + `health_snapshot`), if any.
    pub dashboard: Option<Duration>,
    /// Served requests whose output is checked bit for bit.
    pub output_checks: usize,
    /// Requests the traced replay walks (price-serve; infer-serve
    /// replays each distinct frame once).
    pub replay_requests: usize,
}

pub const PRICE: ServeSpec = ServeSpec {
    name: "price-serve",
    mode: Mode::Pricing,
    rounds: 8,
    streams: 4,
    frames_per_stream: 24,
    reference_fps: 55.0,
    reference_share: 0.4,
    latency_limit_ms: 150.0,
    probe_fps: &[120.0, 135.0, 150.0, 165.0, 180.0, 200.0],
    nominal_fps: 150.0,
    saturation_share: 0.15,
    search_share: 0.4,
    warmup_requests: 8,
    dashboard: Some(Duration::from_millis(50)),
    output_checks: 0,
    replay_requests: 400,
};

pub const INFER: ServeSpec = ServeSpec {
    name: "infer-serve",
    mode: Mode::Functional,
    rounds: 5,
    streams: 3,
    frames_per_stream: 12,
    reference_fps: 11.0,
    reference_share: 0.45,
    latency_limit_ms: 300.0,
    probe_fps: &[34.0, 40.0, 46.0, 53.0, 61.0, 70.0],
    nominal_fps: 38.0,
    saturation_share: 0.2,
    search_share: 0.3,
    warmup_requests: 2,
    dashboard: None,
    output_checks: 6,
    replay_requests: 0,
};

/// Requests the closed saturation loop keeps in flight.
const SATURATION_IN_FLIGHT: usize = 8;

/// Set-ups timed per run; `setup_s` is the fastest. The first boot
/// serves the run; the others are spread over the rounds, so the set-up
/// samples the whole run as the other estimates do.
const SETUP_REPS: usize = 9;

/// Seed of the calibration frames the set-up tunes on and warms up
/// with. They are fixed, like the model, so set-up work is the same for
/// every `--seed`; the served frames come from `--seed`.
const CALIBRATION_SEED: u64 = 0;
const CALIBRATION_FRAMES: usize = 2;

/// Everything workload-specific about the engine and server.
struct Flavor {
    net: Network,
    ctx: ExecCtx,
    cfg: ServeConfig,
    streams: Vec<Vec<SparseTensor>>,
    calibration: Vec<Vec<SparseTensor>>,
}

/// `frames` frames of each of the workload's streams.
fn stream_frames(spec: &ServeSpec, seed: u64, frames: usize) -> Vec<Vec<SparseTensor>> {
    match spec.mode {
        Mode::Pricing => inputs::coherent_streams(seed, spec.streams, frames, 25.0),
        Mode::Functional => inputs::default_motion_streams(seed, spec.streams, frames, 0.03),
    }
}

fn flavor(spec: &ServeSpec, seed: u64) -> Flavor {
    let streams = stream_frames(spec, seed, spec.frames_per_stream);
    let calibration = stream_frames(spec, CALIBRATION_SEED, CALIBRATION_FRAMES);
    match spec.mode {
        // Pricing-only engine, per-stream map reuse and live telemetry;
        // one worker keeps each stream's frames in submission order.
        Mode::Pricing => Flavor {
            net: models::minkunet(0.5, 4, 19),
            ctx: ExecCtx::simulate(Device::rtx3090(), Precision::Fp16),
            // Map reuse serves one frame per call, so batches of one
            // dispatch each request as it arrives. A run opens 92
            // streams (warm-up, two blocks a round, probes): all of them
            // stay within the map cache.
            cfg: ServeConfig::default()
                .with_workers(1)
                .with_max_batch(1)
                .with_queue_capacity(512)
                .with_map_reuse(true)
                .with_map_cache_capacity(128)
                .with_obs(ts_obs::ObsConfig::default()),
            streams,
            calibration,
        },
        // Functional FP16 engine, multi-stream dynamic batching.
        Mode::Functional => Flavor {
            net: models::minkunet(0.25, 4, 16),
            ctx: ExecCtx::functional(Device::rtx3090(), Precision::Fp16),
            cfg: ServeConfig::default()
                .with_workers(1)
                .with_max_batch(2)
                .with_max_wait(Duration::from_millis(5))
                .with_queue_capacity(256),
            streams,
            calibration,
        },
    }
}

/// Inputs of a serving run, for the determinism tests.
pub fn input_digest(spec: &ServeSpec, seed: u64, seconds: u64) -> String {
    let f = flavor(spec, seed);
    let mut d = Digest::default();
    for s in &f.streams {
        for t in s {
            d.tensor(t);
        }
    }
    d.floats(&inputs::unit_gaps(seed, round_requests(spec, seconds)));
    d.hex()
}

/// Requests in a phase running at `fps` for `share` of `seconds`.
fn phase_requests(fps: f64, share: f64, seconds: u64) -> usize {
    ((fps * share * seconds as f64).round() as usize).max(20)
}

/// Reference requests of one round: every round replays the same ones.
fn round_requests(spec: &ServeSpec, seconds: u64) -> usize {
    phase_requests(spec.reference_fps, spec.reference_share, seconds).div_ceil(spec.rounds)
}

/// Span request id of reference request `k` of round `round`.
fn request_key(round: usize, k: usize) -> u64 {
    (round * 100_000 + k) as u64
}

struct Boot {
    server: Server,
    /// The booted schedule.
    configs: GroupConfigs,
    /// Functional engines only: a serial engine and its weights for the
    /// output checks and the replay.
    serial: Option<(Engine, NetworkWeights)>,
    tune_ms: f64,
    evaluations: usize,
    cache_hit: bool,
}

/// The set-up a user pays: weight init, schedule tuning through a fresh
/// cache directory, engine and server construction, and warm-up, on the
/// calibration frames.
fn boot(spec: &ServeSpec, f: &Flavor, dir: &Path) -> Boot {
    let weights = f.net.init_weights(crate::MODEL_SEED);
    let mut cache = ScheduleCache::open(dir).expect("schedule cache directory opens");
    let t = Instant::now();
    let session = Session::try_new(&f.net, f.calibration[0][0].coords()).expect("sample compiles");
    let opts = ts_autotune::TunerOptions::default().with_threads(2);
    let tuned = tune_cached(
        &mut cache,
        std::slice::from_ref(&session),
        &f.ctx,
        &opts,
        &DriftPolicy::default(),
    )
    .expect("schedule cache writes back");
    let tune_ms = t.elapsed().as_secs_f64() * 1e3;
    let configs = tuned
        .result
        .configs
        .clone()
        .unwrap_or_else(|| GroupConfigs::uniform(opts.default));
    let (server, serial) = if f.ctx.functional {
        let engine = Engine::new(
            f.net.clone(),
            weights.clone(),
            configs.clone(),
            f.ctx.clone(),
        );
        (
            Server::new(engine.clone(), f.cfg.clone()),
            Some((engine, weights)),
        )
    } else {
        let engine = Engine::new(f.net.clone(), weights, configs.clone(), f.ctx.clone());
        (Server::new(engine, f.cfg.clone()), None)
    };
    let handles: Vec<_> = (0..spec.warmup_requests)
        .map(|k| {
            let slot = k % spec.streams;
            let frame = f.calibration[slot][pingpong(k / spec.streams, CALIBRATION_FRAMES)].clone();
            server.submit(WARMUP_PHASE * PHASE_STRIDE + slot as u64, frame)
        })
        .collect();
    for h in handles {
        h.expect("warm-up admitted").wait().expect("warm-up served");
    }
    Boot {
        server,
        configs,
        serial,
        tune_ms,
        evaluations: tuned.result.evaluations,
        cache_hit: matches!(tuned.origin, TuneOrigin::Hit),
    }
}

/// [`boot`] through a fresh cache directory, its wall time appended to
/// `setup_s`.
fn timed_boot(spec: &ServeSpec, f: &Flavor, tmp: &Path, setup_s: &mut Vec<f64>) -> Boot {
    let t = Instant::now();
    let b = boot(spec, f, &tmp.join(format!("schedule-{}", setup_s.len())));
    setup_s.push(t.elapsed().as_secs_f64());
    b
}

/// Stream ids are `phase * PHASE_STRIDE + slot`: every phase starts its
/// streams fresh, so each phase's per-stream sequence is self-contained
/// and every round's blocks repeat the same work. Saturation and
/// reference blocks of round `r` are phases `SATURATION_PHASE + r` and
/// `REFERENCE_PHASE + r`; probe `i` is `PROBE_PHASE + i`.
const PHASE_STRIDE: u64 = 1000;
const WARMUP_PHASE: u64 = 1;
const SATURATION_PHASE: u64 = 100;
const REFERENCE_PHASE: u64 = 200;
const PROBE_PHASE: u64 = 300;

/// A served request.
#[derive(Debug, Clone)]
struct Served {
    /// From the scheduled send time to the response, ms.
    sched_ms: f64,
    queue_ms: f64,
    service_ms: f64,
    batch: usize,
    sim_us: f64,
    output: Option<SparseTensor>,
}

/// One request: its stream slot, frame index and fate.
#[derive(Debug, Clone)]
struct Req {
    slot: usize,
    idx: usize,
    outcome: Result<Served, &'static str>,
}

fn reason(r: &Rejected) -> &'static str {
    match r {
        Rejected::QueueFull { .. } => "queue_full",
        Rejected::DeadlineExpired { .. } => "deadline_expired",
        Rejected::BadFrame(_) => "bad_frame",
        Rejected::CompileFailed(_) => "compile_failed",
        Rejected::WorkerCrashed { .. } => "worker_crashed",
        Rejected::ShuttingDown => "shutting_down",
    }
}

/// Requests of one phase (or of several blocks of it) and what the
/// generator saw while sending them.
#[derive(Default, Clone)]
struct Phase {
    reqs: Vec<Req>,
    lateness_ms: Vec<f64>,
    submit_us: Vec<f64>,
    report_ms: Vec<f64>,
    health_ms: Vec<f64>,
}

impl Phase {
    fn served(&self) -> impl Iterator<Item = &Served> {
        self.reqs.iter().filter_map(|r| r.outcome.as_ref().ok())
    }

    fn failed(&self) -> usize {
        self.reqs.iter().filter(|r| r.outcome.is_err()).count()
    }

    fn field(&self, pick: impl Fn(&Served) -> f64) -> Vec<f64> {
        self.served().map(pick).collect()
    }

    fn failures(&self) -> BTreeMap<&'static str, usize> {
        let mut m = BTreeMap::new();
        for r in &self.reqs {
            if let Err(why) = r.outcome {
                *m.entry(why).or_default() += 1;
            }
        }
        m
    }

    fn extend(&mut self, other: Phase) {
        self.reqs.extend(other.reqs);
        self.lateness_ms.extend(other.lateness_ms);
        self.submit_us.extend(other.submit_us);
        self.report_ms.extend(other.report_ms);
        self.health_ms.extend(other.health_ms);
    }
}

struct LoadGen<'a> {
    spec: &'a ServeSpec,
    server: &'a Server,
    streams: &'a [Vec<SparseTensor>],
}

impl LoadGen<'_> {
    /// Request `k` of a phase goes to slot `k % streams` and shows that
    /// stream's next frame of its ping-pong walk.
    fn frame(&self, k: usize) -> (usize, usize) {
        let slot = k % self.spec.streams;
        (
            slot,
            pingpong(k / self.spec.streams, self.spec.frames_per_stream),
        )
    }

    fn submit(&self, phase: u64, k: usize) -> (usize, usize, Result<ResponseHandle, Rejected>) {
        let (slot, idx) = self.frame(k);
        let frame = self.streams[slot][idx].clone();
        let h = self
            .server
            .submit(phase * PHASE_STRIDE + slot as u64, frame);
        (slot, idx, h)
    }

    fn collect(
        slot: usize,
        idx: usize,
        h: Result<ResponseHandle, Rejected>,
        sent_late: Duration,
        keep_output: bool,
    ) -> Req {
        let outcome = h
            .and_then(ResponseHandle::wait)
            .map(|r| Served {
                sched_ms: (sent_late + r.latency).as_secs_f64() * 1e3,
                queue_ms: r.queue_wait.as_secs_f64() * 1e3,
                service_ms: r.latency.saturating_sub(r.queue_wait).as_secs_f64() * 1e3,
                batch: r.batch_size,
                sim_us: r.sim_us,
                output: keep_output.then_some(r.output),
            })
            .map_err(|e| reason(&e));
        Req { slot, idx, outcome }
    }

    /// Poisson open loop over requests `k0..k0 + gaps.len()` of `phase`:
    /// request `k0 + i` is due `sum(gaps[..=i]) / rate` seconds after the
    /// start, and its latency counts from that due time.
    fn open_loop(
        &self,
        phase: u64,
        k0: usize,
        rate: f64,
        gaps: &[f64],
        keep: impl Fn(usize) -> bool,
    ) -> Phase {
        let mut out = Phase::default();
        let start = Instant::now() + Duration::from_millis(5);
        let mut next_poll = start;
        let mut due_s = 0.0;
        let mut sent = Vec::with_capacity(gaps.len());
        for (i, gap) in gaps.iter().enumerate() {
            let (slot, idx) = self.frame(k0 + i);
            let frame = self.streams[slot][idx].clone();
            due_s += gap / rate;
            let due = start + Duration::from_secs_f64(due_s);
            loop {
                let now = Instant::now();
                if let Some(every) = self.spec.dashboard {
                    if now >= next_poll {
                        let t = Instant::now();
                        std::hint::black_box(self.server.report());
                        out.report_ms.push(t.elapsed().as_secs_f64() * 1e3);
                        let t = Instant::now();
                        std::hint::black_box(self.server.health_snapshot());
                        out.health_ms.push(t.elapsed().as_secs_f64() * 1e3);
                        next_poll += every;
                        continue;
                    }
                }
                if now >= due {
                    break;
                }
                let wake = match self.spec.dashboard {
                    Some(_) => due.min(next_poll),
                    None => due,
                };
                std::thread::sleep(wake - now);
            }
            let at = Instant::now();
            out.lateness_ms.push((at - due).as_secs_f64() * 1e3);
            let h = self
                .server
                .submit(phase * PHASE_STRIDE + slot as u64, frame);
            out.submit_us.push(at.elapsed().as_secs_f64() * 1e6);
            sent.push((slot, idx, at - due, h));
        }
        for (i, (slot, idx, late, h)) in sent.into_iter().enumerate() {
            out.reqs
                .push(Self::collect(slot, idx, h, late, keep(k0 + i)));
        }
        out
    }

    /// Closed loop over requests `0..n` of `phase`, keeping up to
    /// `in_flight` outstanding and refilling `group` at a time, back to
    /// back. With `group` the server's batch size every batch is full, so
    /// every round forms the same batches and its completions line up,
    /// position by position, with every other round's. Returns the block
    /// and when each request's response was collected, in seconds from
    /// the start.
    fn closed_loop(
        &self,
        phase: u64,
        n: usize,
        in_flight: usize,
        group: usize,
    ) -> (Phase, Vec<f64>) {
        let mut out = Phase::default();
        let start = Instant::now();
        let mut pending: VecDeque<_> = (0..n.min(in_flight))
            .map(|k| self.submit(phase, k))
            .collect();
        let mut next = pending.len();
        let mut freed = 0;
        let mut done = Vec::with_capacity(n);
        while let Some((slot, idx, h)) = pending.pop_front() {
            out.reqs
                .push(Self::collect(slot, idx, h, Duration::ZERO, false));
            done.push(start.elapsed().as_secs_f64());
            freed += 1;
            if freed == group || pending.is_empty() {
                for _ in 0..freed.min(n - next) {
                    pending.push_back(self.submit(phase, next));
                    next += 1;
                }
                freed = 0;
            }
        }
        (out, done)
    }
}

/// Throughput of identical closed-loop blocks with the host's episodic
/// slow stretches discounted: every chunk of `chunk` consecutive
/// completions counts its fastest block. `done[b][k]` is when block `b`
/// collected its `k`-th response.
fn best_throughput(done: &[Vec<f64>], chunk: usize) -> f64 {
    let n = done.iter().map(Vec::len).min().unwrap_or(0);
    let mut busy_s = 0.0;
    for lo in (0..n).step_by(chunk.max(1)) {
        let hi = (lo + chunk).min(n);
        busy_s += done
            .iter()
            .map(|d| d[hi - 1] - if lo == 0 { 0.0 } else { d[lo - 1] })
            .fold(f64::INFINITY, f64::min);
    }
    if busy_s > 0.0 {
        n as f64 / busy_s
    } else {
        0.0
    }
}

/// One SLO probe.
#[derive(Debug, Clone)]
struct Probe {
    rate: f64,
    p90_ms: f64,
    failed: usize,
    backlog: bool,
    pass: bool,
}

/// SLO search over a fixed ladder of offered rates. Each probe is a
/// Poisson open loop of equal duration whose 90th-percentile latency
/// counts failed requests as infinitely late. The estimate fits the
/// probes' 90th percentiles to a curve non-decreasing in rate (pool
/// adjacent violators, so every probe informs it), then interpolates in
/// log rate where the fit crosses the limit. A growing backlog shows as
/// a 90th percentile past the limit; it is also flagged per probe.
struct Search {
    gaps: Vec<f64>,
    probe_s: f64,
    probes: Vec<Probe>,
}

impl Search {
    fn new(spec: &ServeSpec, seed: u64, seconds: u64) -> Self {
        let probe_s = spec.search_share * seconds as f64 / spec.probe_fps.len() as f64;
        let fastest = spec.probe_fps.iter().copied().fold(0.0, f64::max);
        let most = ((fastest * probe_s).ceil() as usize).max(20);
        Self {
            gaps: inputs::unit_gaps(seed ^ 0x5EA_4C4, most),
            probe_s,
            probes: Vec::new(),
        }
    }

    fn step(&mut self, d: &LoadGen) {
        let Some(&rate) = d.spec.probe_fps.get(self.probes.len()) else {
            return;
        };
        let limit = d.spec.latency_limit_ms;
        let n = ((rate * self.probe_s).round() as usize).clamp(20, self.gaps.len());
        let phase = PROBE_PHASE + self.probes.len() as u64;
        let p = d.open_loop(phase, 0, rate, &self.gaps[..n], |_| false);
        let lat = p.field(|s| s.sched_ms);
        let backlog = backlog_grows(&lat, limit);
        let p90 = p90_counting_failures(lat, p.failed());
        self.probes.push(Probe {
            rate,
            p90_ms: p90,
            failed: p.failed(),
            backlog,
            pass: p.failed() == 0 && p90 <= limit && !backlog,
        });
    }

    fn estimate(&self, limit: f64) -> f64 {
        let y: Vec<f64> = self.probes.iter().map(|p| p.p90_ms).collect();
        let fit = isotonic(&y);
        let rates: Vec<f64> = self.probes.iter().map(|p| p.rate).collect();
        match fit.iter().position(|&v| v > limit) {
            None => rates.last().copied().unwrap_or(0.0),
            // Even the slowest probe misses: scale its rate by how far.
            Some(0) => rates[0] * (limit / fit[0]),
            Some(i) => {
                let (a, b) = (fit[i - 1], fit[i]);
                let frac = ((limit - a) / (b - a)).clamp(0.0, 1.0);
                (rates[i - 1].ln() + frac * (rates[i].ln() - rates[i - 1].ln())).exp()
            }
        }
    }
}

/// 90th percentile of a probe's latencies with each failed request
/// counted as infinitely late.
fn p90_counting_failures(mut lat: Vec<f64>, failed: usize) -> f64 {
    lat.extend(std::iter::repeat_n(f64::INFINITY, failed));
    quantile(&lat, 0.9)
}

/// Least-squares non-decreasing fit (pool adjacent violators).
fn isotonic(y: &[f64]) -> Vec<f64> {
    let mut blocks: Vec<(f64, usize)> = Vec::new();
    for &v in y {
        blocks.push((v, 1));
        while blocks.len() > 1 && blocks[blocks.len() - 2].0 > blocks[blocks.len() - 1].0 {
            let (v2, n2) = blocks.pop().expect("two blocks");
            let (v1, n1) = blocks.pop().expect("two blocks");
            blocks.push((
                (v1 * n1 as f64 + v2 * n2 as f64) / (n1 + n2) as f64,
                n1 + n2,
            ));
        }
    }
    blocks
        .into_iter()
        .flat_map(|(v, n)| std::iter::repeat_n(v, n))
        .collect()
}

/// Backlog grows when the last third of a probe's requests wait, at the
/// median, more than twice as long as the first third's and past the
/// limit.
fn backlog_grows(lat: &[f64], limit_ms: f64) -> bool {
    let third = lat.len() / 3;
    if third == 0 {
        return false;
    }
    let first = median(&lat[..third]);
    let last = median(&lat[lat.len() - third..]);
    last > 2.0 * first && last > limit_ms
}

fn bit_equal(a: &SparseTensor, b: &SparseTensor) -> bool {
    a.coords() == b.coords()
        && a.feats().shape() == b.feats().shape()
        && a.feats()
            .as_slice()
            .iter()
            .zip(b.feats().as_slice())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Output checks: sampled served frames equal a serial
/// `Engine::try_infer` bit for bit, and the first frame of each stream
/// matches `reference_forward` layer by layer. Whether the replay's
/// output equals the serial output is recorded; it fails only a traced
/// run, whose per-layer times are valid only if the replay computes what
/// the engine does. A timed run must not fail because the engine's
/// forward path changed and the replay did not.
fn check_infer(f: &Flavor, b: &Boot, reference: &Phase, traced: bool) -> (usize, usize, Value) {
    let (engine, weights) = b.serial.as_ref().expect("functional engine");
    let (mut attempted, mut failed) = (0, 0);
    for r in &reference.reqs {
        let Ok(Served {
            output: Some(served),
            ..
        }) = &r.outcome
        else {
            continue;
        };
        attempted += 1;
        let (serial, _) = engine
            .try_infer(&f.streams[r.slot][r.idx])
            .expect("serial inference compiles");
        if !bit_equal(&sort_by_coord(served), &sort_by_coord(&serial)) {
            failed += 1;
        }
    }
    let served_checked = attempted;
    let mut check = LayerCheck::default();
    let mut replay_mismatch = 0;
    let mut rec = Recorder::new(false);
    let mut work = Work::default();
    for stream in &f.streams {
        let c =
            replay::compile(&mut rec, &f.net, &stream[0], None, &mut work).expect("frame compiles");
        let (out, _) = replay::infer(
            &mut rec,
            &c,
            Some(weights),
            &b.configs,
            &f.ctx,
            Some(&mut check),
            &mut work,
        );
        let (serial, _) = engine.try_infer(&stream[0]).expect("serial inference");
        if !out.is_some_and(|o| bit_equal(&o, &serial)) {
            replay_mismatch += 1;
        }
    }
    // One check per stream's first frame: every layer within budget.
    attempted += f.streams.len();
    if check.violations > 0 {
        failed += 1;
    }
    if traced {
        attempted += f.streams.len();
        failed += replay_mismatch;
    }
    let detail = json!({
        "served_outputs_checked": served_checked,
        "layers_checked": check.layers,
        "layer_violations": check.violations,
        "worst_budget_share": check.worst,
        "replay_output_mismatches": replay_mismatch,
    });
    (attempted, failed, detail)
}

/// Replays the reference rounds in submission order, fresh stream
/// mirrors per round and one per slot, until `limit` requests are
/// replayed; returns each served request's simulated cost and the
/// recorder.
fn replay_price(
    f: &Flavor,
    b: &Boot,
    rounds: &[Phase],
    limit: usize,
    traced: bool,
    work: &mut Work,
) -> (Vec<f64>, Recorder) {
    let ks = replay::stream_kernel_size(&f.net).expect("network has a submanifold group");
    let split = replay::split_count(&b.configs.default);
    let delta = DeltaConfig {
        churn_threshold: f.cfg.map_churn_threshold,
    };
    let mut rec = Recorder::new(traced);
    let mut sims = Vec::new();
    for (round, phase) in rounds.iter().enumerate() {
        let mut mirrors: Vec<StreamMirror> = (0..f.streams.len())
            .map(|_| StreamMirror::new(ks, split, delta))
            .collect();
        for (k, r) in phase.reqs.iter().enumerate() {
            if sims.len() == limit {
                return (sims, rec);
            }
            if r.outcome.is_err() {
                continue;
            }
            let mirror = &mut mirrors[r.slot];
            let sim = rec.request(request_key(round, k), |rec| {
                let c = replay::compile(rec, &f.net, &f.streams[r.slot][r.idx], Some(mirror), work)
                    .expect("frame compiles");
                replay::infer(rec, &c, None, &b.configs, &f.ctx, None, work)
                    .1
                    .total_us()
            });
            sims.push(sim);
        }
    }
    (sims, rec)
}

/// Replays each distinct frame once with fresh maps, as the batching
/// server compiles them.
fn replay_frames(f: &Flavor, b: &Boot, traced: bool, work: &mut Work) -> Recorder {
    let weights = b.serial.as_ref().map(|(_, w)| w);
    let mut rec = Recorder::new(traced);
    for (slot, stream) in f.streams.iter().enumerate() {
        for (idx, frame) in stream.iter().enumerate() {
            rec.request(frame_key(slot, idx), |rec| {
                let c = replay::compile(rec, &f.net, frame, None, work).expect("frame compiles");
                replay::infer(rec, &c, weights, &b.configs, &f.ctx, None, work)
            });
        }
    }
    rec
}

fn frame_key(slot: usize, idx: usize) -> u64 {
    (slot * 100_000 + idx) as u64
}

/// Simulated cost per frame of the fixed input set under the booted
/// schedule, each frame priced on its own.
fn sim_per_frame(f: &Flavor, b: &Boot) -> f64 {
    let ctx = ExecCtx {
        functional: false,
        ..f.ctx.clone()
    };
    let mut rec = Recorder::new(false);
    let mut work = Work::default();
    let sims: Vec<f64> = f
        .streams
        .iter()
        .flatten()
        .map(|frame| {
            let c = replay::compile(&mut rec, &f.net, frame, None, &mut work).expect("compiles");
            replay::infer(&mut rec, &c, None, &b.configs, &ctx, None, &mut work)
                .1
                .total_us()
        })
        .collect();
    stats::mean(&sims)
}

fn accounting(reference: &Phase, saturation: &Phase, report: &ts_serve::ServeReport) -> Value {
    let phase = |p: &Phase| json!({"submitted": p.reqs.len(), "completed": p.served().count(), "rejected": p.failures()});
    json!({
        "reference": phase(reference),
        "saturation": phase(saturation),
        "server": {
            "completed": report.completed,
            "rejected_queue_full": report.rejected_queue_full,
            "rejected_bad_frame": report.rejected_bad_frame,
            "shed_deadline": report.shed_deadline,
            "shed_crashed": report.shed_crashed,
            "worker_panics": report.worker_panics,
            "worker_restarts": report.worker_restarts,
            "map_patched": report.map_patched,
            "map_rebuilt": report.map_rebuilt,
        },
    })
}

fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

pub fn run(spec: &ServeSpec, args: &RunArgs, tmp: &Path) -> RunResult {
    let f = flavor(spec, args.seed);
    let per_round = round_requests(spec, args.seconds);
    let gaps = inputs::unit_gaps(args.seed, per_round);
    let heap_base = alloc::reset_peak();
    let mb = |bytes: usize| bytes.saturating_sub(heap_base) as f64 / 1e6;

    // --- Set-up; this boot serves the run. ----------------------------
    let mut setup_s = Vec::new();
    let b = timed_boot(spec, &f, tmp, &mut setup_s);
    let setup_heap_mb = mb(alloc::peak());
    // High-water mark of the serving run; the extra set-ups are left out.
    let mut run_peak = alloc::peak();
    let d = LoadGen {
        spec,
        server: &b.server,
        streams: &f.streams,
    };

    // --- Timed rounds. -------------------------------------------------
    // Every round repeats the same saturation block and the same
    // reference block (frames, arrival gaps, fresh streams), so a
    // request's fastest round is its time with the host's episodic slow
    // stretches discounted.
    let rounds = spec.rounds;
    let n_sat = (phase_requests(spec.nominal_fps, spec.saturation_share, args.seconds) / rounds)
        .max(SATURATION_IN_FLIGHT);
    let every = (per_round / spec.output_checks.max(1)).max(1);
    let mut search = Search::new(spec, args.seed, args.seconds);
    let mut saturation = Phase::default();
    let mut ref_rounds: Vec<Phase> = Vec::with_capacity(rounds);
    let (mut sat_done, mut round_p50) = (Vec::new(), Vec::new());
    for r in 0..rounds {
        if !args.trace {
            let (block, done) = d.closed_loop(
                SATURATION_PHASE + r as u64,
                n_sat,
                SATURATION_IN_FLIGHT,
                f.cfg.max_batch,
            );
            saturation.extend(block);
            sat_done.push(done);
        }
        // Outputs are kept from the first round only: the others repeat it.
        let keep = |k: usize| r == 0 && spec.output_checks > 0 && k % every == every / 2;
        let block = d.open_loop(
            REFERENCE_PHASE + r as u64,
            0,
            spec.reference_fps,
            &gaps,
            keep,
        );
        round_p50.push(median(&block.field(|s| s.sched_ms)));
        ref_rounds.push(block);
        if !args.trace {
            // Probes are spread over the rounds; the last round runs
            // whatever is left of the ladder.
            let due = if r + 1 == rounds {
                spec.probe_fps.len()
            } else {
                (r + 1) * spec.probe_fps.len() / rounds
            };
            while search.probes.len() < due {
                search.step(&d);
            }
            // This round's share of the repeated set-ups, each booted
            // beside the idle server and dropped at once.
            run_peak = run_peak.max(alloc::peak());
            while setup_s.len() < 1 + (r + 1) * (SETUP_REPS - 1) / rounds {
                drop(timed_boot(spec, &f, tmp, &mut setup_s));
            }
            alloc::reset_peak();
        }
    }
    let slo_fps = search.estimate(spec.latency_limit_ms);
    let report = b.server.report();
    let peak_heap_mb = mb(run_peak.max(alloc::peak()));
    // Each reference request's latency in its fastest round.
    let best_ms: Vec<f64> = (0..per_round)
        .filter_map(|k| {
            ref_rounds
                .iter()
                .filter_map(|p| p.reqs.get(k)?.outcome.as_ref().ok())
                .map(|s| s.sched_ms)
                .reduce(f64::min)
        })
        .collect();
    // Every round's requests together, for accounting, the checks and
    // the tail: fastest-round latencies leave too few samples for one.
    let mut reference = Phase::default();
    for p in &ref_rounds {
        reference.extend(p.clone());
    }
    let pooled_ms = reference.field(|s| s.sched_ms);
    let pooled_tail = tail(&pooled_ms);

    // --- Checks and the traced replay, outside every timed window. ----
    let mut attempted = reference.reqs.len() + saturation.reqs.len();
    let mut failed = reference.failed() + saturation.failed();
    let mut work = Work::default();
    let mut m = Metrics::default();
    let (check_detail, sim_us_per_frame, traced, traced_s) = match spec.mode {
        Mode::Pricing => {
            let limit = if args.trace {
                spec.replay_requests
            } else {
                usize::MAX
            };
            let t = Instant::now();
            let (sims, rec) = replay_price(&f, &b, &ref_rounds, limit, args.trace, &mut work);
            let replay_s = t.elapsed().as_secs_f64();
            let served = reference.field(|s| s.sim_us);
            let mismatches = sims
                .iter()
                .zip(&served)
                .filter(|(a, b)| a.to_bits() != b.to_bits())
                .count();
            attempted += sims.len();
            failed += mismatches;
            (
                json!({"sim_us_compared": sims.len(), "sim_us_mismatches": mismatches}),
                stats::mean(&sims),
                rec,
                replay_s,
            )
        }
        Mode::Functional => {
            let (a, fl, detail) = check_infer(&f, &b, &reference, args.trace);
            attempted += a;
            failed += fl;
            let t = Instant::now();
            let rec = if args.trace {
                replay_frames(&f, &b, true, &mut work)
            } else {
                Recorder::new(false)
            };
            let replay_s = t.elapsed().as_secs_f64();
            (detail, sim_per_frame(&f, &b), rec, replay_s)
        }
    };

    let queue = reference.field(|s| s.queue_ms);
    let service = reference.field(|s| s.service_ms);
    let lateness_tail = tail(&reference.lateness_ms);
    let mut detail = json!({
        "workload": spec.name,
        "ungated": {
            "latency_tail_ms": pooled_tail.value,
            "max_fps_at_slo": slo_fps,
        },
        "reference_fps": spec.reference_fps,
        "reference_requests_per_round": per_round,
        "saturation_requests_per_round": n_sat,
        "mean_voxels_per_frame": stats::mean(
            &f.streams.iter().flatten().map(|t| t.num_points() as f64).collect::<Vec<_>>()
        ),
        "latency_limit_ms": spec.latency_limit_ms,
        "rounds": rounds,
        "round_latency_p50_ms": round_p50,
        "best_latency_ms": best_ms,
        "latency_tail_percentile": pooled_tail.percentile,
        "latency_tail_samples": pooled_tail.samples,
        "round_frames_per_s": sat_done
            .iter()
            .map(|d| d.len() as f64 / d.last().copied().unwrap_or(f64::INFINITY))
            .collect::<Vec<_>>(),
        "pooled_latency_p50_ms": median(&pooled_ms),
        "reference_latency_ms": pooled_ms,
        "setup_reps_s": setup_s,
        "peak_heap_mb": {"setup": setup_heap_mb, "run": peak_heap_mb},
        "accounting": accounting(&reference, &saturation, &report),
        "generator_lateness_ms": {
            "max": reference.lateness_ms.iter().copied().fold(0.0, f64::max),
            "tail": lateness_tail.value,
            "tail_percentile": lateness_tail.percentile,
            "fell_behind": reference.lateness_ms.iter().any(|&l| l > spec.latency_limit_ms / 10.0),
        },
        "reference_breakdown_ms": {
            "queue_wait": {"p50": median(&queue), "tail": tail(&queue).value},
            "service": {"p50": median(&service), "tail": tail(&service).value},
        },
        "checks": check_detail,
        "probes": search.probes.iter().map(|p| json!({
            "rate": p.rate, "p90_ms": p.p90_ms, "failed": p.failed, "backlog": p.backlog, "pass": p.pass,
        })).collect::<Vec<_>>(),
    });

    if args.trace {
        // The same replay untraced: the difference is the tracing overhead.
        let t = Instant::now();
        let mut scratch = Work::default();
        match spec.mode {
            Mode::Pricing => {
                replay_price(
                    &f,
                    &b,
                    &ref_rounds,
                    spec.replay_requests,
                    false,
                    &mut scratch,
                );
            }
            Mode::Functional => {
                replay_frames(&f, &b, false, &mut scratch);
            }
        }
        let untraced_s = t.elapsed().as_secs_f64();
        let per = traced.per_request();
        let frames = per.len().max(1) as f64;
        // Service time of each replayed request minus its replayed layer
        // self times: matched by request on price-serve, by frame on
        // infer-serve (where service also covers batch-mates).
        let overhead: Vec<f64> = ref_rounds
            .iter()
            .enumerate()
            .flat_map(|(round, p)| p.reqs.iter().enumerate().map(move |(k, r)| (round, k, r)))
            .filter_map(|(round, k, r)| {
                let key = match spec.mode {
                    Mode::Pricing => request_key(round, k),
                    Mode::Functional => frame_key(r.slot, r.idx),
                };
                let served = r.outcome.as_ref().ok()?;
                let t = per.get(&key)?;
                Some(served.service_ms - t.self_ns.values().sum::<u64>() as f64 / 1e6)
            })
            .collect();
        let attribution_errors = crate::attribution_errors(&per);
        failed += attribution_errors;
        attempted += per.len();
        crate::span_metrics(&mut m, &per, &work, (traced_s - untraced_s) * 1e3 / frames);
        m.push(
            "kernelmap.patched_share",
            ratio(report.map_patched, report.map_patched + report.map_rebuilt),
            "ratio",
        );
        m.push("autotune.tune_ms", b.tune_ms, "ms");
        m.push("autotune.evaluations", b.evaluations as f64, "count");
        m.push(
            "cache.hit_share",
            if b.cache_hit { 1.0 } else { 0.0 },
            "ratio",
        );
        m.push("serve.queue_wait_ms", median(&queue), "ms");
        m.push("serve.service_ms", median(&service), "ms");
        m.push(
            "serve.batch_size_mean",
            stats::mean(&reference.field(|s| s.batch as f64)),
            "count",
        );
        m.push("serve.overhead_ms", median(&overhead), "ms");
        m.push("serve.submit_us", median(&reference.submit_us), "us");
        m.push("serve.report_ms", median(&reference.report_ms), "ms");
        m.push("obs.health_ms", median(&reference.health_ms), "ms");
        crate::set(&mut detail, "layer_share", crate::layer_shares(&per));
        crate::set(&mut detail, "attribution_errors", json!(attribution_errors));
        crate::set(
            &mut detail,
            "replay_s",
            json!({"traced": traced_s, "untraced": untraced_s}),
        );
    } else {
        m.push("latency_p50_ms", median(&best_ms), "ms");
        // The rounds' saturation blocks are identical: the fastest is
        // the one least disturbed by the host.
        m.push(
            "frames_per_s",
            best_throughput(&sat_done, SATURATION_IN_FLIGHT),
            "1/s",
        );
        m.push("sim_us_per_frame", sim_us_per_frame, "us");
        m.push("setup_s", stats::min(&setup_s), "s");
        m.push("peak_heap_mb", peak_heap_mb, "MB");
        m.push(
            "ok_share",
            1.0 - failed as f64 / attempted.max(1) as f64,
            "ratio",
        );
    }
    drop(b);
    RunResult {
        attempted: attempted as u64,
        failed: failed as u64,
        metrics: m,
        detail,
        spans: args.trace.then(|| traced.to_json()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn isotonic_pools_violators() {
        assert_eq!(isotonic(&[1.0, 3.0, 2.0, 4.0]), [1.0, 2.5, 2.5, 4.0]);
        assert_eq!(isotonic(&[5.0, 1.0]), [3.0, 3.0]);
    }

    #[test]
    fn search_interpolates_the_crossing() {
        let probe = |rate, p90_ms| Probe {
            rate,
            p90_ms,
            failed: 0,
            backlog: false,
            pass: true,
        };
        let s = Search {
            gaps: Vec::new(),
            probe_s: 1.0,
            probes: vec![probe(10.0, 50.0), probe(20.0, 100.0), probe(40.0, 300.0)],
        };
        let est = s.estimate(200.0);
        assert!(est > 20.0 && est < 40.0, "{est}");
        assert_eq!(s.estimate(1000.0), 40.0);
    }

    #[test]
    fn throughput_takes_each_chunk_from_its_fastest_block() {
        // Block a is fast in its first chunk, block b in its second.
        let a = vec![0.1, 0.2, 1.2, 2.2];
        let b = vec![1.0, 2.0, 2.1, 2.2];
        assert!((best_throughput(&[a.clone(), b], 2) - 4.0 / 0.4).abs() < 1e-9);
        assert!((best_throughput(&[a], 4) - 4.0 / 2.2).abs() < 1e-9);
        assert_eq!(best_throughput(&[], 2), 0.0);
    }

    #[test]
    fn a_probe_that_mostly_failed_misses_the_limit() {
        let p90 = p90_counting_failures(vec![10.0; 3], 17);
        assert_eq!(p90, f64::INFINITY);
        let probe = |rate, p90_ms| Probe {
            rate,
            p90_ms,
            failed: 0,
            backlog: false,
            pass: true,
        };
        let s = Search {
            gaps: Vec::new(),
            probe_s: 1.0,
            probes: vec![probe(10.0, 50.0), probe(20.0, 100.0), probe(40.0, p90)],
        };
        // The top probe cannot count as meeting the limit: the estimate
        // stops at the last probe that did.
        let est = s.estimate(200.0);
        assert!((est - 20.0).abs() < 1e-9, "{est}");
        // A failing slowest probe rates the server below the ladder.
        let s = Search {
            probes: vec![probe(10.0, p90), probe(20.0, 100.0)],
            ..s
        };
        assert!(s.estimate(200.0) < 10.0);
    }
}
