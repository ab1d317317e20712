//! Streaming inference with temporal kernel-map reuse.
//!
//! Consecutive frames of a coherent stream (a driving LiDAR sweep)
//! differ by a small voxel delta, yet [`Engine::try_infer`] rebuilds
//! every kernel map from scratch per frame. [`Engine::infer_stream`]
//! instead threads a [`StreamState`] across frames: the stride-1
//! submanifold map is patched incrementally
//! ([`ts_kernelmap::IncrementalMap`]) and injected into session
//! compilation, so the simulated mapping cost shrinks to the delta
//! while the computed features stay bit-identical per coordinate to the
//! from-scratch path.

use std::sync::Arc;

use ts_dataflow::{DataflowConfig, DataflowKind};
use ts_kernelmap::{
    Coord, CoordHashMap, DeltaConfig, IncrementalMap, KernelOffsets, MapStats, MapUpdate,
    UpdateOutcome,
};
use ts_tensor::Matrix;

use crate::run::run_network_in_session;
use crate::session::SubmanifoldReuse;
use crate::{check_frame, CompileError, Engine, Network, Op, RunReport, Session, SparseTensor};

/// Per-stream temporal state: the incrementally maintained stride-1
/// submanifold map plus reuse accounting.
///
/// Seeded by the first [`Engine::infer_stream`] call on a stream (or
/// the first step of a `ts-train` trainer) and threaded (by the caller)
/// through every subsequent frame. Dropping it — or passing `None`
/// again — costs nothing but a full rebuild on the next frame, which is
/// exactly how caches are invalidated.
#[derive(Debug, Clone)]
pub struct StreamState {
    inc: IncrementalMap,
    frames: u64,
    patched: u64,
    rebuilt: u64,
}

impl StreamState {
    /// Kernel size of `network`'s stride-1 submanifold group, if it has
    /// one eligible for incremental maintenance (odd kernel, larger than
    /// 1x1x1, consuming the input-resolution coordinates).
    pub fn eligible_kernel_size(network: &Network) -> Option<u32> {
        network.nodes().iter().find_map(|node| match node.op {
            Op::Conv(s)
                if s.stride == 1
                    && !s.transposed
                    && s.kernel_size % 2 == 1
                    && s.kernel_size > 1
                    && network.stride(node.input) == 1 =>
            {
                Some(s.kernel_size)
            }
            _ => None,
        })
    }

    /// The split count the state's [`ts_kernelmap::SplitPlan`] should
    /// track: that of `default`, the schedule's default dataflow, when
    /// it is implicit GEMM.
    pub fn split_count_for(default: &DataflowConfig) -> u32 {
        match default.kind {
            DataflowKind::ImplicitGemm { splits } => splits.max(1),
            _ => 1,
        }
    }

    /// Seeds a state at `coords`, a frame compiled from scratch into
    /// `session`. The seeding frame counts as a rebuild; the returned
    /// outcome prices the full build of the maintained group.
    pub fn seed(
        session: &Session,
        coords: &[Coord],
        kernel_size: u32,
        split_count: u32,
    ) -> (Self, UpdateOutcome) {
        let stats = session
            .groups()
            .iter()
            .find(|g| {
                g.key.lo_stride == 1 && g.key.hi_stride == 1 && g.key.kernel_size == kernel_size
            })
            .map(|g| g.build_stats)
            .unwrap_or_default();
        let state = Self {
            inc: IncrementalMap::new(coords, KernelOffsets::cube(kernel_size), split_count),
            frames: 1,
            patched: 0,
            rebuilt: 1,
        };
        (state, UpdateOutcome::full_build(coords.len(), stats))
    }

    /// Advances the maintained map to the next frame's coordinates — an
    /// in-place patch, or a rebuild when churn exceeds
    /// `cfg.churn_threshold` — and counts the frame.
    pub fn update(&mut self, coords: &[Coord], cfg: &DeltaConfig) -> UpdateOutcome {
        let outcome = self.inc.update(coords, cfg);
        self.frames += 1;
        match outcome.kind {
            MapUpdate::Patched => self.patched += 1,
            MapUpdate::Rebuilt => self.rebuilt += 1,
        }
        outcome
    }

    /// Compiles `network` around the maintained map, pricing its
    /// construction at `stats` (the last update's hash work). The
    /// frame's features must follow [`StreamState::coords`] order
    /// ([`permute_to`]).
    ///
    /// # Errors
    ///
    /// Any error from [`Session::try_new_with_reuse`].
    pub fn compile(&self, network: &Network, stats: MapStats) -> Result<Session, CompileError> {
        // The state's plan is re-derived after every patch; in debug
        // builds re-check both structures before trusting them for
        // compilation.
        #[cfg(debug_assertions)]
        {
            let violations = ts_kernelmap::check_map(self.inc.map());
            debug_assert!(
                violations.is_empty(),
                "incremental map violates invariants: {violations:?}"
            );
            let plan_violations = ts_kernelmap::check_plan(self.inc.map(), self.inc.plan(), 128);
            debug_assert!(
                plan_violations.is_empty(),
                "incremental split plan violates invariants: {plan_violations:?}"
            );
        }
        let reuse = SubmanifoldReuse {
            kernel_size: self.kernel_size(),
            map: Arc::new(self.inc.map().clone()),
            stats,
        };
        Session::try_new_with_reuse(network, self.coords(), Some(&reuse))
    }

    /// The current frame's coordinates in the state's canonical order
    /// (survivors first, entered coordinates appended).
    pub fn coords(&self) -> &[Coord] {
        self.inc.coords()
    }

    /// Kernel size of the maintained submanifold map.
    pub fn kernel_size(&self) -> u32 {
        self.inc.offsets().kernel_size()
    }

    /// Frames serviced through this state (including the seeding frame).
    pub fn frames(&self) -> u64 {
        self.frames
    }

    /// Frames serviced by an in-place patch.
    pub fn patched(&self) -> u64 {
        self.patched
    }

    /// Frames serviced by a full rebuild (including the seeding frame).
    pub fn rebuilt(&self) -> u64 {
        self.rebuilt
    }

    /// Fraction of frames serviced without a full map rebuild.
    pub fn reuse_rate(&self) -> f64 {
        if self.frames == 0 {
            0.0
        } else {
            self.patched as f64 / self.frames as f64
        }
    }

    /// Post-update load factor of the coordinate hash table.
    pub fn load_factor(&self) -> f64 {
        self.inc.load_factor()
    }
}

/// Gathers `input`'s feature rows into `coords` order (the stream
/// state's canonical order). Point-wise layers and per-output conv
/// accumulation are permutation-equivariant, so features stay
/// bit-identical per coordinate.
///
/// # Panics
///
/// Panics if `coords` contains a coordinate absent from `input`.
pub fn permute_to(input: &SparseTensor, coords: &[Coord]) -> SparseTensor {
    if input.coords() == coords {
        return input.clone();
    }
    let mut table = CoordHashMap::with_capacity(input.num_points());
    for (i, c) in input.coords().iter().enumerate() {
        table.insert(c.key(), i as i32);
    }
    let mut feats = Matrix::zeros(coords.len(), input.channels());
    for (r, c) in coords.iter().enumerate() {
        let src = table
            .get(c.key())
            .expect("stream state coords match the frame") as usize;
        feats.row_mut(r).copy_from_slice(input.feats().row(src));
    }
    SparseTensor::new(coords.to_vec(), feats)
}

impl Engine {
    /// [`Engine::try_infer`] for temporally coherent streams: maintains
    /// the stride-1 submanifold kernel map incrementally across frames
    /// instead of rebuilding it per frame.
    ///
    /// Pass `&mut None` for the first frame of a stream; the call seeds
    /// `state` and every later call advances it. The returned
    /// [`UpdateOutcome`] reports whether the frame was serviced by an
    /// in-place patch or a full rebuild (churn above
    /// [`DeltaConfig::churn_threshold`], or a fresh/reset state), the
    /// delta shape, and the hash work spent — the same stats the
    /// simulated mapping cost is priced from.
    ///
    /// Output features are bit-identical per coordinate to
    /// [`Engine::try_infer`]; only the row order differs (the state's
    /// canonical order instead of the frame's).
    ///
    /// # Errors
    ///
    /// Same contract as [`Engine::try_infer`]. On error the state is
    /// left unchanged (a malformed frame does not poison the stream).
    pub fn infer_stream(
        &self,
        state: &mut Option<StreamState>,
        input: &SparseTensor,
        cfg: &DeltaConfig,
    ) -> Result<(SparseTensor, RunReport, UpdateOutcome), CompileError> {
        let mut span = ts_trace::span(ts_trace::Subsystem::Core, "engine.infer_stream");
        check_frame(self.network(), input)?;

        let Some(ks) = StreamState::eligible_kernel_size(self.network()) else {
            // No eligible group: plain per-frame compilation.
            let session = self.compile_checked(input)?;
            let (out, report) =
                run_network_in_session(&session, self.weights(), input, self.configs(), self.ctx());
            return Ok((
                out,
                report,
                UpdateOutcome::full_build(input.num_points(), MapStats::default()),
            ));
        };

        // A state maintained for a different kernel (engine swap) is
        // stale; drop it and reseed below.
        if state.as_ref().is_some_and(|s| s.kernel_size() != ks) {
            *state = None;
        }

        let (out, report, outcome) = match state.as_mut() {
            None => {
                // Seeding frame: a full compile prices the full build,
                // and the state is built from the same canonical order
                // (`unique_coords` of the frame).
                let session = self.compile_checked(input)?;
                let (out, report) = run_network_in_session(
                    &session,
                    self.weights(),
                    input,
                    self.configs(),
                    self.ctx(),
                );
                let split_count = StreamState::split_count_for(&self.configs().default);
                let (seeded, outcome) =
                    StreamState::seed(&session, input.coords(), ks, split_count);
                *state = Some(seeded);
                (out, report, outcome)
            }
            Some(st) => {
                // The span covers only the map update.
                let outcome = {
                    let mut update_span =
                        ts_trace::span(ts_trace::Subsystem::Core, "engine.stream_update");
                    let outcome = st.update(input.coords(), cfg);
                    if update_span.active() {
                        update_span.arg(
                            "kind",
                            match outcome.kind {
                                MapUpdate::Patched => "patched",
                                MapUpdate::Rebuilt => "rebuilt",
                            },
                        );
                        update_span.arg("entered", outcome.entered);
                        update_span.arg("exited", outcome.exited);
                        update_span.arg("churn", outcome.churn as f64);
                    }
                    outcome
                };

                let permuted = permute_to(input, st.coords());
                let session = st.compile(self.network(), outcome.stats)?;
                let (out, report) = run_network_in_session(
                    &session,
                    self.weights(),
                    &permuted,
                    self.configs(),
                    self.ctx(),
                );
                (out, report, outcome)
            }
        };

        ts_trace::counter_add("core.stream.frames", 1);
        match outcome.kind {
            MapUpdate::Patched => ts_trace::counter_add("core.stream.patched", 1),
            MapUpdate::Rebuilt => ts_trace::counter_add("core.stream.rebuilt", 1),
        }
        ts_trace::counter_add("core.stream.entered", outcome.entered as i64);
        ts_trace::counter_add("core.stream.exited", outcome.exited as i64);
        if span.active() {
            span.arg("points_in", input.num_points());
            span.arg("churn", outcome.churn as f64);
            span.arg("sim_us", report.total_us());
        }
        Ok((out, report, outcome))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GroupConfigs, NetworkBuilder};
    use ts_dataflow::{DataflowConfig, ExecCtx};
    use ts_gpusim::Device;
    use ts_tensor::{rng_from_seed, uniform_matrix, Precision};

    fn engine() -> Engine {
        let mut b = NetworkBuilder::new("stream", 4);
        let c1 = b.conv_block("enc1", NetworkBuilder::INPUT, 8, 3, 1);
        let c1b = b.conv_block("enc1b", c1, 8, 3, 1);
        let d1 = b.conv_block("down1", c1b, 16, 2, 2);
        let u1 = b.conv_block_transposed("up1", d1, 8, 2, 2);
        let cat = b.concat("skip", u1, c1b);
        let _ = b.conv("head", cat, 2, 1, 1);
        let net = b.build();
        let weights = net.init_weights(7);
        Engine::new(
            net,
            weights,
            GroupConfigs::uniform(DataflowConfig::implicit_gemm(2)),
            ExecCtx::functional(Device::rtx3090(), Precision::Fp32),
        )
    }

    /// A dense window sliding over a plane: low churn per step.
    fn frame(t: i32, seed: u64) -> SparseTensor {
        let coords: Vec<Coord> = (t..t + 12)
            .flat_map(|x| (0..8).map(move |y| Coord::new(0, x, y, (x + y) % 2)))
            .collect();
        let n = coords.len();
        SparseTensor::new(
            coords,
            uniform_matrix(&mut rng_from_seed(seed), n, 4, -1.0, 1.0),
        )
    }

    fn rows_by_coord(t: &SparseTensor) -> std::collections::HashMap<u64, Vec<f32>> {
        t.coords()
            .iter()
            .enumerate()
            .map(|(i, c)| (c.key(), t.feats().row(i).to_vec()))
            .collect()
    }

    #[test]
    fn stream_features_match_per_frame_compilation_exactly() {
        let e = engine();
        let mut state = None;
        for t in 0..6 {
            let f = frame(t, 100 + t as u64);
            let (out, _, outcome) = e
                .infer_stream(&mut state, &f, &DeltaConfig::default())
                .unwrap();
            let (base, _) = e.try_infer(&f).unwrap();
            if t > 0 {
                assert_eq!(outcome.kind, MapUpdate::Patched, "frame {t} should patch");
            }
            let got = rows_by_coord(&out);
            let want = rows_by_coord(&base);
            assert_eq!(got.len(), want.len());
            for (k, row) in &want {
                assert_eq!(got.get(k), Some(row), "frame {t}: coord {k} diverged");
            }
        }
        let st = state.unwrap();
        assert_eq!(st.frames(), 6);
        assert!(st.reuse_rate() > 0.8, "reuse rate {}", st.reuse_rate());
    }

    #[test]
    fn patched_frames_simulate_cheaper_than_rebuilds() {
        let e = engine();
        let mut state = None;
        let f0 = frame(0, 1);
        let (_, r0, o0) = e
            .infer_stream(&mut state, &f0, &DeltaConfig::default())
            .unwrap();
        assert_eq!(o0.kind, MapUpdate::Rebuilt);
        let f1 = frame(1, 2);
        let (_, r1, o1) = e
            .infer_stream(&mut state, &f1, &DeltaConfig::default())
            .unwrap();
        assert_eq!(o1.kind, MapUpdate::Patched);
        // Same scene statistics, but the patched frame charges
        // delta-sized hash work.
        assert!(
            r1.total_us() < r0.total_us(),
            "patched {} !< rebuilt {}",
            r1.total_us(),
            r0.total_us()
        );
        // And the patch's hash-work stats are delta-sized.
        assert!(o1.stats.queries < o0.stats.queries / 4);
    }

    #[test]
    fn zero_threshold_always_rebuilds() {
        let e = engine();
        let mut state = None;
        let cfg = DeltaConfig {
            churn_threshold: 0.0,
        };
        let _ = e.infer_stream(&mut state, &frame(0, 3), &cfg).unwrap();
        let (_, _, o) = e.infer_stream(&mut state, &frame(1, 4), &cfg).unwrap();
        assert_eq!(o.kind, MapUpdate::Rebuilt);
        let st = state.unwrap();
        assert_eq!(st.rebuilt(), 2);
        assert_eq!(st.reuse_rate(), 0.0);
    }

    #[test]
    fn malformed_frames_do_not_poison_the_stream() {
        let e = engine();
        let mut state = None;
        let _ = e
            .infer_stream(&mut state, &frame(0, 5), &DeltaConfig::default())
            .unwrap();
        let coords_before = state.as_ref().unwrap().coords().to_vec();

        // Wrong channel width.
        let bad = SparseTensor::new(vec![Coord::new(0, 0, 0, 0)], Matrix::zeros(1, 9));
        assert!(matches!(
            e.infer_stream(&mut state, &bad, &DeltaConfig::default()),
            Err(CompileError::ChannelMismatch { .. })
        ));
        // Duplicate coords.
        let dup = SparseTensor::new(
            vec![Coord::new(0, 1, 1, 1), Coord::new(0, 1, 1, 1)],
            Matrix::zeros(2, 4),
        );
        assert!(matches!(
            e.infer_stream(&mut state, &dup, &DeltaConfig::default()),
            Err(CompileError::DuplicateCoords { .. })
        ));
        assert_eq!(state.as_ref().unwrap().coords(), &coords_before[..]);

        // The stream continues fine afterwards.
        let (_, _, o) = e
            .infer_stream(&mut state, &frame(1, 6), &DeltaConfig::default())
            .unwrap();
        assert_eq!(o.kind, MapUpdate::Patched);
    }

    #[test]
    fn network_without_submanifold_group_falls_back() {
        // Single strided conv: no stride-1 submanifold group exists.
        let mut b = NetworkBuilder::new("strided", 4);
        let _ = b.conv("down", NetworkBuilder::INPUT, 8, 2, 2);
        let net = b.build();
        let w = net.init_weights(0);
        let e = Engine::new(
            net,
            w,
            GroupConfigs::uniform(DataflowConfig::implicit_gemm(1)),
            ExecCtx::functional(Device::rtx3090(), Precision::Fp32),
        );
        let mut state = None;
        let f = frame(0, 8);
        let (out, _, o) = e
            .infer_stream(&mut state, &f, &DeltaConfig::default())
            .unwrap();
        assert!(state.is_none(), "no eligible group, no state");
        assert_eq!(o.kind, MapUpdate::Rebuilt);
        let (base, _) = e.try_infer(&f).unwrap();
        assert_eq!(out.feats(), base.feats());
    }

    #[test]
    fn high_churn_frame_rebuilds_and_recovers() {
        let e = engine();
        let mut state = None;
        let _ = e
            .infer_stream(&mut state, &frame(0, 10), &DeltaConfig::default())
            .unwrap();
        // Teleport: disjoint coordinates.
        let (_, _, o) = e
            .infer_stream(&mut state, &frame(500, 11), &DeltaConfig::default())
            .unwrap();
        assert_eq!(o.kind, MapUpdate::Rebuilt);
        assert!(o.churn > 1.0);
        // Back to drifting: patches resume against the rebuilt map.
        let (_, _, o) = e
            .infer_stream(&mut state, &frame(501, 12), &DeltaConfig::default())
            .unwrap();
        assert_eq!(o.kind, MapUpdate::Patched);
    }
}
