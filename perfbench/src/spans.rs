//! In-memory spans recorded by the benchmark around its calls into each
//! layer's public functions.
//!
//! A span carries its name, start, end, parent and request id. Spans
//! stay in memory until the run ends. A span's *self time* is its
//! duration minus the part its direct children cover; the layer a span
//! belongs to is its name up to the first `.`.

use std::collections::BTreeMap;
use std::time::Instant;

use serde_json::{json, Value};

/// Name of the per-request root span.
pub const ROOT: &str = "request";

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub req: u64,
}

/// Records spans when enabled; when disabled, [`Recorder::time`] only
/// runs its closure, which is how the untraced replay is timed.
#[derive(Debug)]
pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    req: u64,
}

impl Recorder {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            req: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`; spans opened by `f` become
    /// its children.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            req: self.req,
        });
        self.stack.push(id);
        let out = f(self);
        self.stack.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// Runs `f` as request `req`: a [`ROOT`] span every layer span of the
    /// request hangs under.
    pub fn request<R>(&mut self, req: u64, f: impl FnOnce(&mut Self) -> R) -> R {
        self.req = req;
        self.time(ROOT, f)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span, in span order, nanoseconds.
    pub fn self_times(&self) -> Vec<u64> {
        let mut child_cover = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_cover[p] += s.end_ns - s.start_ns;
            }
        }
        self.spans
            .iter()
            .zip(child_cover)
            .map(|(s, c)| (s.end_ns - s.start_ns).saturating_sub(c))
            .collect()
    }

    /// Per request: total self time by span name, plus the root span's
    /// own duration (`request_ns`).
    pub fn per_request(&self) -> BTreeMap<u64, RequestTimes> {
        let selfs = self.self_times();
        let mut out: BTreeMap<u64, RequestTimes> = BTreeMap::new();
        for (s, st) in self.spans.iter().zip(selfs) {
            let r = out.entry(s.req).or_default();
            *r.self_ns.entry(s.name).or_default() += st;
            *r.calls.entry(s.name).or_default() += 1;
            *r.incl_ns.entry(s.name).or_default() += s.end_ns - s.start_ns;
            if s.parent.is_none() {
                r.request_ns += s.end_ns - s.start_ns;
            }
        }
        out
    }

    /// Spans as a JSON array (`name`, `start_us`, `end_us`, `parent`, `req`).
    pub fn to_json(&self) -> Value {
        Value::Array(
            self.spans
                .iter()
                .map(|s| {
                    json!({
                        "name": s.name,
                        "start_us": s.start_ns as f64 / 1e3,
                        "end_us": s.end_ns as f64 / 1e3,
                        "parent": s.parent,
                        "req": s.req,
                    })
                })
                .collect(),
        )
    }
}

/// Self times of one request.
#[derive(Debug, Default, Clone)]
pub struct RequestTimes {
    pub self_ns: BTreeMap<&'static str, u64>,
    pub calls: BTreeMap<&'static str, u64>,
    /// Inclusive duration by span name (children counted).
    pub incl_ns: BTreeMap<&'static str, u64>,
    pub request_ns: u64,
}

impl RequestTimes {
    /// Self time of span `name`, milliseconds.
    pub fn ms(&self, name: &str) -> f64 {
        self.self_ns.get(name).copied().unwrap_or(0) as f64 / 1e6
    }

    /// Self time summed over every span of `layer`, milliseconds.
    pub fn layer_ms(&self, layer: &str) -> f64 {
        self.self_ns
            .iter()
            .filter(|(n, _)| layer_of(n) == layer)
            .map(|(_, v)| *v as f64 / 1e6)
            .sum()
    }
}

/// The layer a span belongs to: its name up to the first `.`; the root
/// span's own time is the replay's glue.
pub fn layer_of(name: &str) -> &str {
    if name == ROOT {
        "replay"
    } else {
        name.split('.').next().unwrap_or(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_sums_to_request() {
        let mut r = Recorder::new(true);
        r.request(7, |r| {
            r.time("kernelmap.build", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            r.time("train.fwd_bwd", |r| {
                r.time("dataflow.fwd", |_| {
                    std::thread::sleep(std::time::Duration::from_millis(1))
                })
            });
        });
        let per = r.per_request();
        let t = &per[&7];
        let sum: u64 = t.self_ns.values().sum();
        assert_eq!(sum, t.request_ns, "self times partition the request");
        assert!(t.ms("kernelmap.build") >= 2.0);
        assert!(t.ms("train.fwd_bwd") < t.ms("dataflow.fwd"));
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut r = Recorder::new(false);
        let v = r.request(1, |r| r.time("gpusim.price", |_| 5));
        assert_eq!(v, 5);
        assert!(r.spans().is_empty());
    }
}
