//! The deployment engine: a network bound to weights and a tuned
//! per-group schedule, reusable across scenes.
//!
//! The Sparse Autotuner's cost is justified because "the tuned schedule
//! could be reused for millions of scenes in real-world ADAS
//! applications" (Section 4.2). [`Engine`] is that deployment artifact:
//! tune once, then call [`Engine::infer`] per frame.

use ts_dataflow::{DataflowConfig, ExecCtx};

use crate::run::run_network_in_session;
use crate::schedule::{sanitize_configs, Downgrade, ScheduleArtifact, ScheduleError};
use crate::{
    check_frame, run_network, CompileError, GroupConfigs, Network, NetworkWeights, RunReport,
    Session, SparseTensor,
};

/// A ready-to-deploy inference engine: network + weights + tuned
/// schedule + execution context.
#[derive(Debug, Clone)]
pub struct Engine {
    network: Network,
    weights: NetworkWeights,
    configs: GroupConfigs,
    ctx: ExecCtx,
    /// Degradations applied while loading the schedule leniently;
    /// empty for engines built from in-process (trusted) configs.
    downgrades: Vec<Downgrade>,
}

impl Engine {
    /// Assembles an engine from its parts (typically `configs` comes from
    /// `ts_autotune::tune_inference`).
    pub fn new(
        network: Network,
        weights: NetworkWeights,
        configs: GroupConfigs,
        ctx: ExecCtx,
    ) -> Self {
        Self {
            network,
            weights,
            configs,
            ctx,
            downgrades: Vec::new(),
        }
    }

    /// The network this engine executes.
    pub fn network(&self) -> &Network {
        &self.network
    }

    /// The per-group dataflow schedule.
    pub fn configs(&self) -> &GroupConfigs {
        &self.configs
    }

    /// The execution context the engine prices and computes with.
    pub fn ctx(&self) -> &ExecCtx {
        &self.ctx
    }

    pub(crate) fn weights(&self) -> &NetworkWeights {
        &self.weights
    }

    /// Runs one scene functionally, returning output features and the
    /// simulated latency report.
    ///
    /// # Panics
    ///
    /// Panics if the input channels disagree with the network or the
    /// coordinates are not deduplicated.
    pub fn infer(&self, input: &SparseTensor) -> (SparseTensor, RunReport) {
        let mut span = ts_trace::span(ts_trace::Subsystem::Core, "engine.infer");
        let (out, report) = run_network(
            &self.network,
            &self.weights,
            input,
            &self.configs,
            &self.ctx,
        );
        if span.active() {
            span.arg("points_in", input.num_points());
            span.arg("points_out", out.num_points());
            span.arg("sim_us", report.total_us());
        }
        (out, report)
    }

    /// Fallible [`Engine::infer`]: validates the frame with
    /// [`check_frame`] (channel width, coordinate range, dedup) and
    /// compiles it with [`Session::try_new`], so a malformed frame
    /// surfaces as a [`CompileError`] instead of killing the calling
    /// thread. This is the path `ts-serve` workers use — one bad frame
    /// must not take a worker down.
    ///
    /// # Errors
    ///
    /// Any [`check_frame`] error, or any error from [`Session::try_new`].
    pub fn try_infer(
        &self,
        input: &SparseTensor,
    ) -> Result<(SparseTensor, RunReport), CompileError> {
        let mut span = ts_trace::span(ts_trace::Subsystem::Core, "engine.try_infer");
        let session = self.compile(input)?;
        let (out, report) =
            run_network_in_session(&session, &self.weights, input, &self.configs, &self.ctx);
        if span.active() {
            span.arg("points_in", input.num_points());
            span.arg("sim_us", report.total_us());
        }
        Ok((out, report))
    }

    /// Validates `input` against the network and compiles a reusable
    /// [`Session`] for its coordinates.
    ///
    /// Repeated latency queries on the same coordinates should go
    /// through one compiled session ([`Engine::simulate_in`]) so the
    /// kernel maps are built once and dataflow preparations hit the
    /// session's prepare cache (observable via
    /// [`Session::prepare_cache_counters`]).
    ///
    /// # Errors
    ///
    /// Same contract as [`Engine::try_infer`].
    pub fn compile(&self, input: &SparseTensor) -> Result<Session, CompileError> {
        let mut span = ts_trace::span(ts_trace::Subsystem::Core, "engine.compile");
        if span.active() {
            span.arg("points", input.num_points());
        }
        check_frame(&self.network, input)?;
        self.compile_checked(input)
    }

    /// [`Engine::compile`] for a frame that already passed
    /// [`check_frame`].
    pub(crate) fn compile_checked(&self, input: &SparseTensor) -> Result<Session, CompileError> {
        let session = Session::try_new(&self.network, input.coords())?;
        // Structural invariants of freshly built kernel maps. Cheap
        // relative to map construction but quadratic-ish on the dense
        // views, so debug builds only — release trusts the builders.
        #[cfg(debug_assertions)]
        for group in session.groups() {
            for (label, map) in [("map", &group.map), ("map_t", &group.map_t)] {
                let violations = ts_kernelmap::check_map(map);
                debug_assert!(
                    violations.is_empty(),
                    "group {:?} {label} violates kernel-map invariants: {:?}",
                    group.key,
                    violations
                );
            }
        }
        Ok(session)
    }

    /// Prices one scene on the simulated GPU without computing features
    /// (fast path for latency studies).
    ///
    /// Builds a fresh [`Session`] per call; for repeated queries on the
    /// same coordinates, compile once with [`Engine::compile`] and call
    /// [`Engine::simulate_in`].
    pub fn simulate(&self, input: &SparseTensor) -> RunReport {
        let session = Session::new(&self.network, input.coords());
        self.simulate_in(&session)
    }

    /// [`Engine::simulate`] against a caller-held session: kernel maps
    /// and dataflow preparations are reused across calls, so repeated
    /// queries are served from the prepare cache.
    pub fn simulate_in(&self, session: &Session) -> RunReport {
        session.simulate_inference(&self.configs, &self.ctx)
    }

    /// Exports the tuned schedule as a versioned artifact keyed by
    /// (network name, device name, precision) — the tune-once artifact
    /// a server boots from instead of re-tuning.
    pub fn save_schedule(&self) -> ScheduleArtifact {
        ScheduleArtifact::new(
            self.network.name(),
            &self.ctx.device().name,
            self.ctx.precision,
            self.configs.clone(),
        )
    }

    /// Assembles an engine from a persisted schedule, refusing (with a
    /// typed error, never a panic) an artifact tuned for a different
    /// network, device, precision or format version.
    ///
    /// # Errors
    ///
    /// The [`ScheduleError`] naming the mismatching key component.
    pub fn load_schedule(
        network: Network,
        weights: NetworkWeights,
        artifact: &ScheduleArtifact,
        ctx: ExecCtx,
    ) -> Result<Engine, ScheduleError> {
        artifact.validate(network.name(), &ctx.device().name, ctx.precision)?;
        Ok(Engine::new(network, weights, artifact.configs.clone(), ctx))
    }

    /// Lenient [`Engine::load_schedule`] from raw artifact JSON: instead
    /// of failing, every unusable part of the schedule drops to the
    /// known-safe fallback dataflow
    /// ([`DataflowConfig::safe_fallback`], sorted implicit GEMM) and the
    /// engine records one [`Downgrade`] per replacement. The tail
    /// insight of the paper is that *schedules*, not kernels, are the
    /// fragile artifact — a server that cannot boot because last week's
    /// schedule no longer validates is worse than a server running the
    /// safe dataflow at TorchSparse-MLSys'22 speed.
    ///
    /// * Unparsable JSON, or an artifact tuned for a different network,
    ///   device, precision or format version: the whole table degrades
    ///   ([`Downgrade::Artifact`]).
    /// * A tuned group config rejected at schedule-compile time (e.g. a
    ///   corrupted split count): only that slot degrades
    ///   ([`Downgrade::Group`]).
    ///
    /// Never fails and never panics. Inspect
    /// [`Engine::downgrades`] / [`Engine::is_degraded`] for what
    /// happened; each downgrade is also counted on the ts-trace
    /// counters `core.schedule.artifact_rejected` and
    /// `core.schedule.group_downgraded`.
    ///
    /// # Examples
    ///
    /// ```
    /// use ts_core::{Engine, GroupConfigs, NetworkBuilder};
    /// use ts_dataflow::{DataflowConfig, ExecCtx};
    /// use ts_gpusim::Device;
    /// use ts_tensor::Precision;
    ///
    /// let mut b = NetworkBuilder::new("tiny", 2);
    /// let _ = b.conv("c", NetworkBuilder::INPUT, 4, 3, 1);
    /// let net = b.build();
    /// let weights = net.init_weights(0);
    /// let ctx = ExecCtx::functional(Device::rtx3090(), Precision::Fp32);
    ///
    /// // A corrupted artifact still boots an engine — degraded, not dead.
    /// let engine = Engine::load_schedule_lenient(net, weights, "{corrupt", ctx);
    /// assert!(engine.is_degraded());
    /// assert_eq!(engine.configs().default, DataflowConfig::safe_fallback());
    /// ```
    pub fn load_schedule_lenient(
        network: Network,
        weights: NetworkWeights,
        artifact_json: &str,
        ctx: ExecCtx,
    ) -> Engine {
        let rejected = |error: ScheduleError| {
            ts_trace::counter_add("core.schedule.artifact_rejected", 1);
            (
                GroupConfigs::uniform(DataflowConfig::safe_fallback()),
                vec![Downgrade::Artifact { error }],
            )
        };
        let (configs, downgrades) = match ScheduleArtifact::from_json(artifact_json) {
            Err(e) => rejected(e),
            Ok(artifact) => {
                match artifact.validate(network.name(), &ctx.device().name, ctx.precision) {
                    Err(e) => rejected(e),
                    Ok(()) => {
                        let (configs, downgrades) = sanitize_configs(&artifact.configs);
                        if !downgrades.is_empty() {
                            ts_trace::counter_add(
                                "core.schedule.group_downgraded",
                                downgrades.len() as i64,
                            );
                        }
                        (configs, downgrades)
                    }
                }
            }
        };
        let mut engine = Engine::new(network, weights, configs, ctx);
        engine.downgrades = downgrades;
        engine
    }

    /// Degradations applied while loading the schedule; empty unless
    /// the engine came from [`Engine::load_schedule_lenient`] and parts
    /// of the artifact were rejected.
    pub fn downgrades(&self) -> &[Downgrade] {
        &self.downgrades
    }

    /// Whether any part of the schedule runs the safe fallback instead
    /// of its tuned config.
    pub fn is_degraded(&self) -> bool {
        !self.downgrades.is_empty()
    }

    /// Replaces the execution context (e.g. to re-target a device while
    /// keeping the schedule — useful for asking "how would this schedule
    /// do on Orin?").
    pub fn with_ctx(mut self, ctx: ExecCtx) -> Self {
        self.ctx = ctx;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NetworkBuilder;
    use ts_dataflow::DataflowConfig;
    use ts_gpusim::Device;
    use ts_kernelmap::Coord;
    use ts_tensor::{rng_from_seed, uniform_matrix, Precision};

    fn engine() -> Engine {
        let mut b = NetworkBuilder::new("e", 4);
        let c = b.conv_block("c", NetworkBuilder::INPUT, 8, 3, 1);
        let _ = b.conv("head", c, 2, 1, 1);
        let net = b.build();
        let weights = net.init_weights(1);
        Engine::new(
            net,
            weights,
            GroupConfigs::uniform(DataflowConfig::implicit_gemm(1)),
            ExecCtx::functional(Device::rtx3090(), Precision::Fp16),
        )
    }

    fn scene(seed: u64) -> SparseTensor {
        let coords: Vec<Coord> = (0..40)
            .map(|i| Coord::new(0, i % 8, i / 8, i % 3))
            .collect();
        let coords = ts_kernelmap::unique_coords(&coords);
        let n = coords.len();
        SparseTensor::new(
            coords,
            uniform_matrix(&mut rng_from_seed(seed), n, 4, -1.0, 1.0),
        )
    }

    #[test]
    fn engine_runs_many_scenes_with_one_schedule() {
        let e = engine();
        for seed in 0..3 {
            let (out, report) = e.infer(&scene(seed));
            assert_eq!(out.channels(), 2);
            assert!(report.total_us() > 0.0);
        }
    }

    #[test]
    fn simulate_agrees_with_infer_timing() {
        let e = engine();
        let s = scene(9);
        let (_, full) = e.infer(&s);
        let sim = e.simulate(&s);
        assert_eq!(full.total_us().to_bits(), sim.total_us().to_bits());
    }

    #[test]
    fn try_infer_matches_infer_on_valid_frames() {
        let e = engine();
        let s = scene(5);
        let (out, rep) = e.infer(&s);
        let (out2, rep2) = e.try_infer(&s).expect("valid frame infers");
        assert_eq!(out.feats(), out2.feats());
        assert_eq!(rep.total_us().to_bits(), rep2.total_us().to_bits());
    }

    #[test]
    fn try_infer_rejects_channel_mismatch() {
        let e = engine();
        let bad = SparseTensor::new(
            vec![Coord::new(0, 0, 0, 0)],
            uniform_matrix(&mut rng_from_seed(0), 1, 7, -1.0, 1.0),
        );
        match e.try_infer(&bad) {
            Err(crate::CompileError::ChannelMismatch { expected, got }) => {
                assert_eq!(expected, 4);
                assert_eq!(got, 7);
            }
            other => panic!("expected channel mismatch, got {other:?}"),
        }
    }

    #[test]
    fn try_infer_rejects_duplicate_coords() {
        let e = engine();
        let cs = vec![Coord::new(0, 1, 1, 1), Coord::new(0, 1, 1, 1)];
        let bad = SparseTensor::new(cs, uniform_matrix(&mut rng_from_seed(0), 2, 4, -1.0, 1.0));
        match e.try_infer(&bad) {
            Err(crate::CompileError::DuplicateCoords { points, unique }) => {
                assert_eq!(points, 2);
                assert_eq!(unique, 1);
            }
            other => panic!("expected duplicate coords, got {other:?}"),
        }
    }

    #[test]
    fn simulate_in_reuses_the_prepare_cache() {
        let e = engine();
        let s = scene(11);
        let session = e.compile(&s).expect("frame compiles");
        let r1 = e.simulate_in(&session);
        let c1 = session.prepare_cache_counters();
        assert!(c1.misses > 0, "first query populates the cache");
        let r2 = e.simulate_in(&session);
        let c2 = session.prepare_cache_counters();
        assert_eq!(
            c2.misses, c1.misses,
            "repeat query on the same coords prepares nothing"
        );
        assert!(c2.hits > c1.hits, "repeat query hits the cache");
        assert_eq!(r1.total_us().to_bits(), r2.total_us().to_bits());
        // And the session-reuse path agrees with the fresh-session path.
        assert_eq!(e.simulate(&s).total_us().to_bits(), r1.total_us().to_bits());
    }

    #[test]
    fn schedule_save_load_round_trip_is_exact() {
        let e = engine();
        let artifact = e.save_schedule();
        let json = artifact.to_json().expect("artifact serializes");
        let restored = crate::ScheduleArtifact::from_json(&json).expect("artifact loads");
        let net = e.network().clone();
        let loaded = Engine::load_schedule(
            net.clone(),
            net.init_weights(1),
            &restored,
            ExecCtx::functional(Device::rtx3090(), Precision::Fp16),
        )
        .expect("matching artifact loads");
        // The loaded schedule simulates bit-identically to the tuned one.
        let s = scene(3);
        assert_eq!(
            e.simulate(&s).total_us().to_bits(),
            loaded.simulate(&s).total_us().to_bits()
        );
    }

    #[test]
    fn schedule_load_rejects_wrong_device() {
        let e = engine();
        let artifact = e.save_schedule();
        let net = e.network().clone();
        let err = Engine::load_schedule(
            net.clone(),
            net.init_weights(1),
            &artifact,
            ExecCtx::functional(Device::jetson_orin(), Precision::Fp16),
        )
        .unwrap_err();
        assert!(matches!(err, crate::ScheduleError::DeviceMismatch { .. }));
    }

    #[test]
    fn lenient_load_of_a_clean_artifact_matches_strict_load() {
        let e = engine();
        let json = e.save_schedule().to_json().expect("serializes");
        let net = e.network().clone();
        let loaded = Engine::load_schedule_lenient(
            net.clone(),
            net.init_weights(1),
            &json,
            ExecCtx::functional(Device::rtx3090(), Precision::Fp16),
        );
        assert!(!loaded.is_degraded());
        assert!(loaded.downgrades().is_empty());
        assert_eq!(loaded.configs(), e.configs());
        let s = scene(6);
        assert_eq!(
            e.simulate(&s).total_us().to_bits(),
            loaded.simulate(&s).total_us().to_bits()
        );
    }

    #[test]
    fn lenient_load_degrades_whole_artifact_on_identity_mismatch() {
        let e = engine();
        let json = e.save_schedule().to_json().expect("serializes");
        let net = e.network().clone();
        // Wrong device: strict load errors, lenient load degrades.
        let ctx = ExecCtx::functional(Device::jetson_orin(), Precision::Fp16);
        let loaded = Engine::load_schedule_lenient(net.clone(), net.init_weights(1), &json, ctx);
        assert!(loaded.is_degraded());
        assert!(matches!(
            loaded.downgrades()[0],
            crate::Downgrade::Artifact {
                error: crate::ScheduleError::DeviceMismatch { .. }
            }
        ));
        assert_eq!(
            loaded.configs().default,
            ts_dataflow::DataflowConfig::safe_fallback()
        );
        // The degraded engine still serves scenes.
        let (out, report) = loaded.infer(&scene(2));
        assert_eq!(out.channels(), 2);
        assert!(report.total_us() > 0.0);
    }

    #[test]
    fn lenient_load_degrades_single_corrupt_group() {
        let e = engine();
        let mut artifact = e.save_schedule();
        artifact.configs.set(
            0,
            DataflowConfig::implicit_gemm(ts_dataflow::MAX_SPLITS + 1),
        );
        let json = artifact.to_json().expect("serializes");
        let net = e.network().clone();
        let loaded = Engine::load_schedule_lenient(
            net.clone(),
            net.init_weights(1),
            &json,
            ExecCtx::functional(Device::rtx3090(), Precision::Fp16),
        );
        assert_eq!(loaded.downgrades().len(), 1);
        assert!(matches!(
            loaded.downgrades()[0],
            crate::Downgrade::Group { group: Some(0), .. }
        ));
        assert_eq!(
            loaded.configs().for_group(0),
            ts_dataflow::DataflowConfig::safe_fallback()
        );
        // The untouched default slot survives.
        assert_eq!(loaded.configs().default, e.configs().default);
        let (out, _) = loaded.infer(&scene(8));
        assert_eq!(out.channels(), 2);
    }

    #[test]
    fn retargeting_devices_changes_latency_not_results() {
        let e = engine();
        let s = scene(4);
        let (out_a, rep_a) = e.infer(&s);
        let e_orin = e
            .clone()
            .with_ctx(ExecCtx::functional(Device::jetson_orin(), Precision::Fp16));
        let (out_b, rep_b) = e_orin.infer(&s);
        assert_eq!(out_a.feats(), out_b.feats());
        assert!(rep_b.total_us() > rep_a.total_us(), "Orin should be slower");
    }
}
