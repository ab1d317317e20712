//! The fused step plan: one compiled artifact per training step.
//!
//! A [`StepPlan`] is everything a step needs, resolved once before any
//! feature math runs: the compiled [`Session`] (kernel maps, layer
//! groups, prepare cache), the tuned per-family [`TrainConfigs`] pulled
//! through the training-schedule cache, and the simulated per-phase
//! cost ([`StepSim`]). Across temporally coherent steps the stride-1
//! submanifold map is patched incrementally (a [`StreamState`], the
//! state `Engine::infer_stream` threads across frames) instead of
//! rebuilt, so the simulated mapping cost shrinks to the frame delta.

use serde::{Deserialize, Serialize};

use ts_core::{check_frame, permute_to, CompileError, Network, Session, SparseTensor, StreamState};
use ts_dataflow::ExecCtx;
use ts_gpusim::{KernelDesc, KernelTrace};
use ts_kernelmap::{DeltaConfig, MapStats, MapUpdate, UpdateOutcome};

/// Simulated per-phase cost of one training step, bucketed from the
/// session's training simulation plus a separately priced optimizer
/// update.
///
/// A step with `micro_batches = k` runs the mapping phase once, the
/// compute phases (forward, dgrad, wgrad) once per micro-batch, and
/// the optimizer once — [`StepSim::step_us`] composes the phases
/// accordingly.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StepSim {
    /// Kernel-map construction / patch / reordering cost (µs).
    pub map_us: f64,
    /// Forward kernels (µs, one micro-batch).
    pub fwd_us: f64,
    /// Input-gradient kernels plus elementwise backward (µs, one
    /// micro-batch).
    pub dgrad_us: f64,
    /// Weight-gradient kernels (µs, one micro-batch).
    pub wgrad_us: f64,
    /// Momentum-SGD parameter update (µs, once per step).
    pub optim_us: f64,
    /// Micro-batches accumulated per step.
    pub micro_batches: usize,
}

impl StepSim {
    /// Buckets a `simulate_training` report by timing-entry name:
    /// `* mapping` entries are the mapping phase, `*:dgrad` /
    /// `*:wgrad` the two gradient phases (elementwise `*:bwd` rides
    /// with dgrad), everything else is forward.
    pub fn from_report(report: &ts_core::RunReport, micro_batches: usize, optim_us: f64) -> Self {
        let mut sim = StepSim {
            map_us: 0.0,
            fwd_us: 0.0,
            dgrad_us: 0.0,
            wgrad_us: 0.0,
            optim_us,
            micro_batches: micro_batches.max(1),
        };
        for t in report.timings() {
            if t.name.contains("mapping") {
                sim.map_us += t.time_us;
            } else if t.name.ends_with(":wgrad") {
                sim.wgrad_us += t.time_us;
            } else if t.name.ends_with(":dgrad") || t.name.ends_with(":bwd") {
                sim.dgrad_us += t.time_us;
            } else {
                sim.fwd_us += t.time_us;
            }
        }
        sim
    }

    /// One micro-batch's compute cost (forward + dgrad + wgrad, µs).
    pub fn compute_us(&self) -> f64 {
        self.fwd_us + self.dgrad_us + self.wgrad_us
    }

    /// End-to-end simulated step latency: mapping once, compute per
    /// micro-batch, optimizer once.
    pub fn step_us(&self) -> f64 {
        self.map_us + self.compute_us() * self.micro_batches as f64 + self.optim_us
    }
}

/// Prices the fused momentum-SGD update: streaming reads of weights,
/// gradients and velocity (FP32 master copies) against writes of the
/// updated weights and velocity.
pub(crate) fn optimizer_us(param_bytes: u64, ctx: &ExecCtx) -> f64 {
    if param_bytes == 0 {
        return 0.0;
    }
    let mut trace = KernelTrace::new();
    let desc = KernelDesc::memory("optimizer-update", 3 * param_bytes, 2 * param_bytes);
    ctx.cost.record(&mut trace, desc);
    trace.total_us()
}

/// Compiles one step's session against `input`, reusing (and
/// advancing) the incremental map in `state` when the network has an
/// eligible submanifold group. Returns the session, the input permuted
/// to the session's canonical coordinate order, and the map-update
/// outcome.
///
/// # Errors
///
/// Any [`check_frame`] error on malformed input (the state is left
/// unchanged), or any session compilation error.
pub(crate) fn compile_step(
    network: &Network,
    state: &mut Option<StreamState>,
    input: &SparseTensor,
    delta: &DeltaConfig,
    split_count: u32,
) -> Result<(Session, SparseTensor, UpdateOutcome), CompileError> {
    check_frame(network, input)?;

    let Some(ks) = StreamState::eligible_kernel_size(network) else {
        let session = Session::try_new(network, input.coords())?;
        let outcome = UpdateOutcome::full_build(input.num_points(), MapStats::default());
        return Ok((session, input.clone(), outcome));
    };

    // A state maintained for a different kernel is stale.
    if state.as_ref().is_some_and(|s| s.kernel_size() != ks) {
        *state = None;
    }

    match state.as_mut() {
        None => {
            // Seeding step: full compile prices the full map build.
            let session = Session::try_new(network, input.coords())?;
            let (seeded, outcome) = StreamState::seed(&session, input.coords(), ks, split_count);
            *state = Some(seeded);
            Ok((session, input.clone(), outcome))
        }
        Some(st) => {
            let outcome = st.update(input.coords(), delta);
            match outcome.kind {
                MapUpdate::Patched => ts_trace::counter_add("train.map.patched", 1),
                MapUpdate::Rebuilt => ts_trace::counter_add("train.map.rebuilt", 1),
            }
            let permuted = permute_to(input, st.coords());
            let session = st.compile(network, outcome.stats)?;
            Ok((session, permuted, outcome))
        }
    }
}
