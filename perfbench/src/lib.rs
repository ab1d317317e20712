//! Wall-clock benchmark of the serving and training paths.
//!
//! Three workloads run against the public API of `ts-core`, `ts-serve`
//! and `ts-train`:
//!
//! * `price-serve` — a pricing-only engine serving coherent low-motion
//!   streams with map reuse and live telemetry polled by a dashboard;
//! * `infer-serve` — a functional FP16 engine serving default-motion
//!   streams with multi-stream dynamic batching;
//! * `train-stream` — a closed training loop with AMP and micro-batches.
//!
//! A run with `--trace 0` prints the end-to-end metrics; a separate run
//! with `--trace 1` replays the workload's frames through each layer's
//! public functions under spans and prints the per-layer metrics. See
//! `README.md` in this directory for the metric tables.

pub mod alloc;
pub mod host;
pub mod inputs;
pub mod replay;
pub mod serve;
pub mod spans;
pub mod stats;
pub mod train;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use serde_json::{json, Value};

use crate::replay::Work;
use crate::spans::{layer_of, RequestTimes};

#[global_allocator]
static HEAP: alloc::Counting = alloc::Counting;

/// Seed of every model's initial weights. The model is part of the
/// system under test, so it stays fixed; `--seed` varies the inputs.
pub const MODEL_SEED: u64 = 42;

/// The workloads, by command-line name.
pub const WORKLOADS: [&str; 3] = [serve::PRICE.name, serve::INFER.name, train::NAME];

/// Every per-layer metric a traced run reports, with its unit. A layer
/// a workload bypasses reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("kernelmap.build_ms", "ms"),
    ("kernelmap.patch_ms", "ms"),
    ("kernelmap.downsample_ms", "ms"),
    ("kernelmap.patched_share", "ratio"),
    ("kernelmap.pairs_per_frame", "count"),
    ("gpusim.price_ms", "ms"),
    ("dataflow.prepare_ms", "ms"),
    ("dataflow.fwd_ms", "ms"),
    ("dataflow.fwd_gflops", "GFLOP/s"),
    ("dataflow.dgrad_ms", "ms"),
    ("dataflow.wgrad_ms", "ms"),
    ("dataflow.bwd_gflops", "GFLOP/s"),
    ("tensor.elementwise_ms", "ms"),
    ("core.glue_ms", "ms"),
    ("autotune.tune_ms", "ms"),
    ("autotune.evaluations", "count"),
    ("cache.hit_share", "ratio"),
    ("serve.queue_wait_ms", "ms"),
    ("serve.service_ms", "ms"),
    ("serve.batch_size_mean", "count"),
    ("serve.overhead_ms", "ms"),
    ("serve.submit_us", "us"),
    ("serve.report_ms", "ms"),
    ("obs.health_ms", "ms"),
    ("train.step_ms", "ms"),
    ("train.fwd_bwd_ms", "ms"),
    ("train.skipped_share", "ratio"),
    ("replay.glue_ms", "ms"),
    ("trace.overhead_ms", "ms"),
];

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

impl RunArgs {
    /// Parses `--workload <name> --seed <n> --seconds <n> --trace <0|1>`.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Self, String> {
        let mut kv = BTreeMap::new();
        let mut it = args.into_iter();
        while let Some(flag) = it.next() {
            let key = flag
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument `{flag}`"))?
                .to_owned();
            let value = it.next().ok_or_else(|| format!("`{flag}` needs a value"))?;
            kv.insert(key, value);
        }
        let take = |k: &str| kv.get(k).cloned().ok_or_else(|| format!("missing --{k}"));
        let workload = take("workload")?;
        if !WORKLOADS.contains(&workload.as_str()) {
            return Err(format!(
                "unknown workload `{workload}` (one of {WORKLOADS:?})"
            ));
        }
        let num = |k: &str| -> Result<u64, String> {
            take(k)?.parse().map_err(|e| format!("--{k}: {e}"))
        };
        let seconds = num("seconds")?;
        if seconds == 0 {
            return Err("--seconds must be at least 1".into());
        }
        let trace = match take("trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, got `{other}`")),
        };
        if let Some(k) = kv
            .keys()
            .find(|k| !["workload", "seed", "seconds", "trace"].contains(&k.as_str()))
        {
            return Err(format!("unknown flag --{k}"));
        }
        Ok(Self {
            workload,
            seed: num("seed")?,
            seconds,
            trace,
        })
    }
}

/// Named metrics with units, in insertion order.
#[derive(Debug, Default, Clone)]
pub struct Metrics(Vec<(String, f64, String)>);

impl Metrics {
    pub fn push(&mut self, name: &str, value: f64, unit: &str) {
        self.0.push((name.to_owned(), value, unit.to_owned()));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, ..)| n == name).map(|(_, v, _)| *v)
    }

    pub fn iter(&self) -> impl Iterator<Item = (&str, f64, &str)> {
        self.0.iter().map(|(n, v, u)| (n.as_str(), *v, u.as_str()))
    }

    /// Adds every per-layer metric not yet reported as 0: the layer did
    /// no work on this workload.
    fn complete_per_layer(&mut self) {
        for (name, unit) in PER_LAYER {
            if self.get(name).is_none() {
                self.push(name, 0.0, unit);
            }
        }
    }

    fn to_json(&self) -> Value {
        Value::Object(
            self.iter()
                .map(|(n, v, u)| (n.to_owned(), json!({"value": v, "unit": u})))
                .collect(),
        )
    }
}

/// What one run produced.
#[derive(Debug)]
pub struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
    /// Accounting, estimator and check details for the artifact file.
    pub detail: Value,
    /// Spans of the traced run.
    pub spans: Option<Value>,
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0 && self.metrics.iter().all(|(_, v, _)| v.is_finite())
    }

    /// The result line: `correct`, `attempted`, `failed`, `metrics`.
    pub fn summary(&self) -> Value {
        json!({
            "correct": self.correct(),
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": self.metrics.to_json(),
        })
    }
}

/// Runs one workload. Scratch state (schedule caches) lives under
/// `out/tmp-<pid>` and is removed before returning; the artifact and,
/// for traced runs, the spans are written to `out`.
pub fn run(args: &RunArgs, out: &Path) -> std::io::Result<RunResult> {
    let tmp: PathBuf = out.join(format!("tmp-{}", std::process::id()));
    std::fs::create_dir_all(&tmp)?;
    let before = host::HostProbe::measure();
    let mut result = match args.workload.as_str() {
        w if w == serve::PRICE.name => serve::run(&serve::PRICE, args, &tmp),
        w if w == serve::INFER.name => serve::run(&serve::INFER, args, &tmp),
        _ => train::run(args, &tmp),
    };
    let after = host::HostProbe::measure();
    std::fs::remove_dir_all(&tmp)?;
    if args.trace {
        result.metrics.complete_per_layer();
    }
    set(
        &mut result.detail,
        "host",
        json!({
            "start": before.to_json(),
            "end": after.to_json(),
            "available_parallelism": std::thread::available_parallelism().map_or(0, |n| n.get()),
        }),
    );
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    let artifact = json!({
        "args": {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace},
        "result": result.summary(),
        "detail": result.detail,
    });
    std::fs::write(
        out.join(format!("{stem}.json")),
        serde_json::to_string_pretty(&artifact).map_err(std::io::Error::other)?,
    )?;
    if let Some(spans) = result.spans.take() {
        std::fs::write(
            out.join(format!("{stem}-spans.json")),
            serde_json::to_string(&spans).map_err(std::io::Error::other)?,
        )?;
    }
    Ok(result)
}

/// Per-layer metrics derived from span self times, per request (a frame
/// on the serving workloads, a step on `train-stream`).
pub fn span_metrics(
    m: &mut Metrics,
    per: &BTreeMap<u64, RequestTimes>,
    work: &Work,
    trace_overhead_ms: f64,
) {
    let n = per.len().max(1) as f64;
    let total = |name: &str| per.values().map(|t| t.ms(name)).sum::<f64>();
    let calls = |name: &str| {
        per.values()
            .map(|t| t.calls.get(name).copied().unwrap_or(0))
            .sum::<u64>()
    };
    let per_call = |name: &str| {
        let c = calls(name);
        if c == 0 {
            0.0
        } else {
            total(name) / c as f64
        }
    };
    let gflops = |flops: f64, ms: f64| if ms > 0.0 { flops / (ms * 1e6) } else { 0.0 };
    m.push("kernelmap.build_ms", total("kernelmap.build") / n, "ms");
    m.push("kernelmap.patch_ms", per_call("kernelmap.patch"), "ms");
    m.push(
        "kernelmap.downsample_ms",
        total("kernelmap.downsample") / n,
        "ms",
    );
    m.push(
        "kernelmap.pairs_per_frame",
        work.map_pairs as f64 / n,
        "count",
    );
    m.push("gpusim.price_ms", total("gpusim.price") / n, "ms");
    m.push("dataflow.prepare_ms", total("dataflow.prepare") / n, "ms");
    m.push("dataflow.fwd_ms", total("dataflow.fwd") / n, "ms");
    m.push(
        "dataflow.fwd_gflops",
        gflops(work.fwd_flops, total("dataflow.fwd")),
        "GFLOP/s",
    );
    m.push("dataflow.dgrad_ms", total("dataflow.dgrad") / n, "ms");
    m.push("dataflow.wgrad_ms", total("dataflow.wgrad") / n, "ms");
    m.push(
        "dataflow.bwd_gflops",
        gflops(
            work.bwd_flops,
            total("dataflow.dgrad") + total("dataflow.wgrad"),
        ),
        "GFLOP/s",
    );
    m.push(
        "tensor.elementwise_ms",
        total("tensor.elementwise") / n,
        "ms",
    );
    let core: f64 = per.values().map(|t| t.layer_ms("core")).sum();
    m.push("core.glue_ms", core / n, "ms");
    let fwd_bwd: f64 = per
        .values()
        .map(|t| t.incl_ns.get("train.fwd_bwd").copied().unwrap_or(0) as f64 / 1e6)
        .sum();
    m.push("train.fwd_bwd_ms", fwd_bwd / n, "ms");
    m.push(
        "replay.glue_ms",
        per.values().map(|t| t.layer_ms("replay")).sum::<f64>() / n,
        "ms",
    );
    m.push("trace.overhead_ms", trace_overhead_ms, "ms");
}

/// Requests whose layer self times do not sum to the traced request
/// time (exact, in nanoseconds).
pub fn attribution_errors(per: &BTreeMap<u64, RequestTimes>) -> usize {
    per.values()
        .filter(|t| t.self_ns.values().sum::<u64>() != t.request_ns)
        .count()
}

/// Each layer's share of the traced request time over the run.
pub fn layer_shares(per: &BTreeMap<u64, RequestTimes>) -> Value {
    let total: u64 = per.values().map(|t| t.request_ns).sum();
    let mut by_layer: BTreeMap<&str, u64> = BTreeMap::new();
    for t in per.values() {
        for (name, ns) in &t.self_ns {
            *by_layer.entry(layer_of(name)).or_default() += ns;
        }
    }
    Value::Object(
        by_layer
            .into_iter()
            .map(|(layer, ns)| (layer.to_owned(), json!(ns as f64 / total.max(1) as f64)))
            .collect(),
    )
}

/// Sets `key` on a JSON object, replacing an earlier value.
pub fn set(obj: &mut Value, key: &str, value: Value) {
    if let Value::Object(entries) = obj {
        entries.retain(|(k, _)| k != key);
        entries.push((key.to_owned(), value));
    }
}
