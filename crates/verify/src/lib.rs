//! Differential conformance harness for the TorchSparse++ reproduction.
//!
//! The paper's correctness promise is that every dataflow the autotuner
//! may pick computes the *same* convolution as Equation 1 — forward,
//! dgrad and wgrad, at every precision. This crate makes that promise
//! checkable as a subsystem instead of scattered per-crate assertions:
//!
//! * **Invariant checker** ([`check_kernel_map`], [`check_coords`],
//!   [`check_schedule`], ...) — reusable validation passes producing
//!   typed [`Violation`] reports. The same underlying checks run from
//!   `Engine::compile` debug assertions and `load_schedule_lenient`
//!   sanitization, so the pass is load-bearing in the engine, not just
//!   in tests.
//! * **Differential engine** ([`run_scenario`]) — every dataflow ×
//!   {fwd, dgrad, wgrad} × {FP16, TF32, FP32} against
//!   `ts_dataflow::reference`, with per-precision ULP-aware
//!   [`ts_tensor::ErrorBudget`]s instead of one hard-coded epsilon.
//! * **Conformance families** — the differential [`Scenario`] (one
//!   conv, every pass), the temporal [`StreamScenario`] (frame-delta
//!   sequences through the incremental kernel-map engine
//!   [`ts_kernelmap::IncrementalMap`], compared structurally against
//!   from-scratch rebuilds after every frame) and the whole-step
//!   [`TrainScenario`] (forward + loss + dgrad + wgrad + micro-batch
//!   gradient accumulation through `ts_core::forward_backward`, every
//!   dataflow × precision against the full-batch reference). Each
//!   implements [`Conformance`]: a seeded generator, its check
//!   ([`run_scenario`], [`run_stream_scenario`],
//!   [`run_train_scenario`]), its shrink passes, and the words its
//!   failures and fuzz reports are printed in.
//! * **One driver** for every family: [`fuzz`] draws seeded scenarios
//!   and [`shrink`]s the first failure to a local minimum within a
//!   per-family evaluation budget; [`write_repro`] serializes the JSON
//!   [`Counterexample`] for `tests/repros/`; [`replay_corpus`] replays a
//!   directory of them, dispatching each file to its family.
//!
//! The `verify` binary drives all of them: `--corpus` replays
//! checked-in repros (CI gate, all scenario kinds), `--fuzz --seed S
//! --iters N` hunts for new differential counterexamples, `--stream`
//! does the same for frame-delta sequences, `--train` for whole
//! training steps, and `--mutation-smoke` (with the `mutate` feature)
//! proves the harness catches deliberately broken forward *and* wgrad
//! dataflows.
//!
//! # Examples
//!
//! ```
//! use ts_verify::{run_scenario, ReproCoord, Scenario};
//!
//! let scenario = Scenario {
//!     seed: 7,
//!     coords: (0..10).map(|i| ReproCoord { b: 0, x: i, y: 0, z: 0 }).collect(),
//!     c_in: 4,
//!     c_out: 4,
//!     kernel_size: 3,
//!     configs: Vec::new(), // full design space
//! };
//! assert!(run_scenario(&scenario).is_empty(), "all dataflows conform");
//! ```

mod conformance;
mod differential;
mod invariants;
mod stream;
mod train;
mod violation;

pub use conformance::{
    fuzz, replay_corpus, shrink, write_repro, Conformance, CorpusResult, Counterexample, Shrinker,
};
pub use differential::{
    all_configs, check_scenario_maps, max_fan_in, run_scenario, Mismatch, Pass, ReproCoord,
    Scenario,
};
pub use stream::{run_stream_scenario, FrameOps, StreamMismatch, StreamScenario};
pub use train::{run_train_scenario, TrainScenario};

pub use invariants::{
    check_coords, check_group_configs, check_kernel_map, check_network, check_schedule,
    check_session, check_sparse_tensor, check_split_plan, TILE_GRANULARITY,
};
pub use violation::{Severity, Violation};
