//! Host-interference diagnostic: a fixed compute loop, a fixed
//! memory-streaming loop and a fixed cache-resident pointer chase, timed
//! at the start and end of every run.
//!
//! The readings are recorded beside the metrics and never used to
//! scale, filter or retry a run. They answer "why does this number
//! differ from last run?": a slow compute loop points at CPU
//! contention, a slow stream at memory-bandwidth interference, and a
//! slow chase at another tenant evicting the last-level cache, which
//! slows gather/scatter-heavy sparse math while the other two loops
//! read as usual.

use std::hint::black_box;
use std::time::Instant;

use serde_json::{json, Value};

const COMPUTE_ITERS: u64 = 20_000_000;
const STREAM_WORDS: usize = 4 << 20; // 32 MiB of u64
const STREAM_PASSES: usize = 4;
const CHASE_WORDS: usize = 1 << 19; // 4 MiB of u64: fits a last-level cache
const CHASE_LOADS: usize = 2_000_000;

/// One diagnostic reading.
#[derive(Debug, Clone, Copy)]
pub struct HostProbe {
    /// Wall time of the fixed dependent floating-point chain, ms.
    pub compute_ms: f64,
    /// Read bandwidth over a buffer larger than the last-level cache, GB/s.
    pub stream_gbps: f64,
    /// Time per dependent load of a random cycle through a 4 MiB
    /// buffer, ns.
    pub chase_ns: f64,
}

/// A single random cycle through `0..n` (Sattolo's algorithm over a
/// fixed-seed LCG), so a chase visits every word before it repeats.
fn random_cycle(n: usize) -> Vec<u64> {
    let mut next: Vec<u64> = (0..n as u64).collect();
    let mut state = 0x2545_F491_4F6C_DD1D_u64;
    for i in (1..n).rev() {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let j = ((state >> 33) % i as u64) as usize;
        next.swap(i, j);
    }
    next
}

impl HostProbe {
    /// Runs both loops once.
    pub fn measure() -> Self {
        let t = Instant::now();
        let mut x = black_box(1.000_000_1_f64);
        let (a, b) = (black_box(0.999_999_9_f64), black_box(1e-9_f64));
        for _ in 0..COMPUTE_ITERS {
            x = x * a + b;
        }
        black_box(x);
        let compute_ms = t.elapsed().as_secs_f64() * 1e3;

        let buf: Vec<u64> = (0..STREAM_WORDS as u64).collect();
        let t = Instant::now();
        let mut sum = 0u64;
        for _ in 0..STREAM_PASSES {
            sum = sum.wrapping_add(black_box(&buf).iter().fold(0u64, |s, v| s.wrapping_add(*v)));
        }
        black_box(sum);
        let secs = t.elapsed().as_secs_f64();
        let bytes = (STREAM_WORDS * STREAM_PASSES * std::mem::size_of::<u64>()) as f64;
        drop(buf);

        let next = random_cycle(CHASE_WORDS);
        // One lap warms the cache; the timed loads follow it.
        let mut at = 0usize;
        for _ in 0..CHASE_WORDS {
            at = next[at] as usize;
        }
        let t = Instant::now();
        for _ in 0..CHASE_LOADS {
            at = black_box(next[at]) as usize;
        }
        black_box(at);
        let chase_ns = t.elapsed().as_secs_f64() * 1e9 / CHASE_LOADS as f64;
        Self {
            compute_ms,
            stream_gbps: bytes / secs / 1e9,
            chase_ns,
        }
    }

    pub fn to_json(self) -> Value {
        json!({
            "compute_ms": self.compute_ms,
            "stream_gbps": self.stream_gbps,
            "chase_ns": self.chase_ns,
        })
    }
}
