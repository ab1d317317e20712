//! Degenerate-shape regressions end to end: single-point clouds and
//! 1-wide channels must flow through the engine (compile + run, every
//! dataflow) and the serving path without panics.

use std::time::Duration;

use ts_core::{run_network, Engine, GroupConfigs, NetworkBuilder, SparseTensor};
use ts_dataflow::{DataflowConfig, ExecCtx};
use ts_gpusim::Device;
use ts_kernelmap::Coord;
use ts_serve::{ServeConfig, Server};
use ts_tensor::{rng_from_seed, uniform_matrix, Matrix, Precision};

fn all_configs() -> Vec<DataflowConfig> {
    let mut v = vec![
        DataflowConfig::gather_scatter(false),
        DataflowConfig::fetch_on_demand(false),
    ];
    v.extend(DataflowConfig::full_space(4));
    v
}

/// A narrow network: 1-channel input, a strided conv and a 1-channel
/// head, so both `c_in = 1` and `c_out = 1` convs execute.
fn narrow_network() -> (ts_core::Network, ts_core::NetworkWeights) {
    let mut b = NetworkBuilder::new("narrow", 1);
    let stem = b.conv("stem", NetworkBuilder::INPUT, 3, 3, 1);
    let down = b.conv("down", stem, 2, 2, 2);
    let _ = b.conv("head", down, 1, 1, 1);
    let net = b.build();
    let weights = net.init_weights(77);
    (net, weights)
}

#[test]
fn single_point_runs_through_every_dataflow_in_the_engine() {
    let (net, weights) = narrow_network();
    let input = SparseTensor::new(
        vec![Coord::new(0, 0, 0, 0)],
        uniform_matrix(&mut rng_from_seed(1), 1, 1, -1.0, 1.0),
    );
    let ctx = ExecCtx::functional(Device::rtx3090(), Precision::Fp32);
    for cfg in all_configs() {
        let cfgs = GroupConfigs::uniform(cfg);
        let (out, report) = run_network(&net, &weights, &input, &cfgs, &ctx);
        assert_eq!(out.channels(), 1, "{cfg}");
        assert!(out.num_points() >= 1, "{cfg}");
        assert!(report.total_us() > 0.0, "{cfg}");
    }
}

#[test]
fn single_point_compiles_and_simulates() {
    let (net, weights) = narrow_network();
    let engine = Engine::new(
        net,
        weights,
        GroupConfigs::uniform(DataflowConfig::implicit_gemm(2)),
        ExecCtx::functional(Device::rtx3090(), Precision::Fp16),
    );
    let input = SparseTensor::new(
        vec![Coord::new(0, 3, 3, 3)],
        Matrix::from_rows(&[&[0.5f32]]),
    );
    let session = engine.compile(&input).expect("single point compiles");
    let report = engine.simulate_in(&session);
    assert!(report.total_us() > 0.0);
}

#[test]
fn one_wide_channels_run_through_the_serve_path() {
    let (net, weights) = narrow_network();
    let engine = Engine::new(
        net,
        weights,
        GroupConfigs::uniform(DataflowConfig::implicit_gemm(1)),
        ExecCtx::functional(Device::rtx3090(), Precision::Fp16),
    );
    let server = Server::new(
        engine,
        ServeConfig::default()
            .with_workers(1)
            .with_max_wait(Duration::from_millis(1)),
    );
    // Mix of single-point and few-point frames, all 1-channel.
    let handles: Vec<_> = (0..4)
        .map(|i| {
            let coords: Vec<Coord> = (0..=i).map(|j| Coord::new(0, j, i, 0)).collect();
            let n = coords.len();
            let frame = SparseTensor::new(
                coords,
                uniform_matrix(&mut rng_from_seed(10 + i as u64), n, 1, -1.0, 1.0),
            );
            server.submit(i as u64, frame).expect("admitted")
        })
        .collect();
    for h in handles {
        let out = h.wait().expect("served");
        assert_eq!(out.output.channels(), 1);
    }
    let report = server.shutdown();
    assert_eq!(report.completed, 4);
}

#[test]
fn engine_rejects_empty_and_duplicate_inputs_with_typed_errors() {
    let (net, weights) = narrow_network();
    let engine = Engine::new(
        net,
        weights,
        GroupConfigs::uniform(DataflowConfig::implicit_gemm(1)),
        ExecCtx::functional(Device::rtx3090(), Precision::Fp16),
    );
    // Duplicate coords: typed CompileError, not a panic.
    let dup = SparseTensor::new(
        vec![Coord::new(0, 1, 1, 1), Coord::new(0, 1, 1, 1)],
        uniform_matrix(&mut rng_from_seed(2), 2, 1, -1.0, 1.0),
    );
    assert!(matches!(
        engine.compile(&dup),
        Err(ts_core::CompileError::DuplicateCoords {
            points: 2,
            unique: 1
        })
    ));
    // The duplicate is also what the verify invariant checker reports.
    let violations = ts_verify::check_sparse_tensor(&dup);
    assert_eq!(violations.len(), 1);
    assert!(matches!(
        violations[0],
        ts_verify::Violation::DuplicateCoord { count: 2, .. }
    ));
}

/// Coordinates past `Coord::key`'s 16-bit range alias other coordinates'
/// keys (`x = 32768` in batch 0 packs like `x = -32768` in batch 1), and
/// the range used to be a debug-build assertion only. Every public entry
/// point must answer such a frame with a typed error in every build
/// profile, never with a map built from aliased keys.
#[test]
fn out_of_range_coords_are_typed_errors_in_every_profile() {
    use ts_core::{CompileError, DeltaConfig};
    use ts_serve::Rejected;

    let (net, weights) = narrow_network();
    let engine = Engine::new(
        net,
        weights,
        GroupConfigs::uniform(DataflowConfig::implicit_gemm(1)),
        ExecCtx::functional(Device::rtx3090(), Precision::Fp16),
    );
    let feats = |n: usize| uniform_matrix(&mut rng_from_seed(5), n, 1, -1.0, 1.0);
    let aliased = vec![Coord::new(0, 32768, 0, 0), Coord::new(1, -32768, 0, 0)];
    assert_eq!(aliased[0].key(), aliased[1].key(), "the two keys alias");
    let deep = vec![Coord::new(0, 1, 2, 3), Coord::new(0, 1, 2, 40000)];
    for (coords, axis, value) in [(aliased, "x", 32768), (deep, "z", 40000)] {
        let frame = SparseTensor::new(coords, feats(2));
        match engine.try_infer(&frame) {
            Err(CompileError::CoordOutOfRange {
                axis: a, value: v, ..
            }) => {
                assert_eq!((a, v), (axis, value));
            }
            other => panic!("expected CoordOutOfRange, got {other:?}"),
        }
        let mut state = None;
        assert!(matches!(
            engine.infer_stream(&mut state, &frame, &DeltaConfig::default()),
            Err(CompileError::CoordOutOfRange { .. })
        ));
        assert!(state.is_none(), "a rejected frame must not seed the stream");
    }

    // The server takes single-scene frames and batches them: the bad
    // frames fail alone, their in-range batchmate is served.
    let server = Server::new(
        engine,
        ServeConfig::default()
            .with_workers(1)
            .with_max_batch(4)
            .with_max_wait(Duration::from_millis(100)),
    );
    let frames = [
        vec![Coord::new(0, 32768, 0, 0), Coord::new(0, 0, 0, 0)],
        vec![Coord::new(0, 1, 2, 40000)],
        vec![Coord::new(0, 1, 2, 3), Coord::new(0, 2, 2, 3)],
    ];
    let handles: Vec<_> = frames
        .into_iter()
        .enumerate()
        .map(|(i, coords)| {
            let n = coords.len();
            let frame = SparseTensor::new(coords, feats(n));
            server.submit(i as u64, frame).expect("admitted")
        })
        .collect();
    let results: Vec<_> = handles.into_iter().map(|h| h.wait()).collect();
    for r in &results[..2] {
        assert!(
            matches!(
                r,
                Err(Rejected::CompileFailed(
                    CompileError::CoordOutOfRange { .. }
                ))
            ),
            "expected a typed CoordOutOfRange rejection, got {r:?}"
        );
    }
    assert!(results[2].is_ok(), "the in-range batchmate is served");
    let report = server.shutdown();
    assert_eq!(report.rejected_bad_frame, 2);
}
