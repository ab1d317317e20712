//! Functional network execution: real features through every layer.

use ts_dataflow::{forward_prepared, prepare, ExecCtx};
use ts_tensor::{batch_norm, relu, Matrix};

use crate::{GroupConfigs, Network, NetworkWeights, Op, RunReport, Session, SparseTensor};

/// Runs `network` functionally on `input`, returning the output sparse
/// tensor and the simulated latency report.
///
/// The report is produced by [`Session::simulate_inference`] so that the
/// functional and simulate-only paths always agree on timing; the
/// feature math runs through the *same dataflow executors* configured by
/// `cfgs`, so numerical behaviour (e.g. split summation order) matches
/// the selected dataflow.
///
/// With a simulate-only context (`ctx.functional == false`) the feature
/// walk is skipped entirely and the returned tensor is empty — callers
/// that simulate (autotuner sweeps, the fleet simulator) read only the
/// report.
///
/// # Panics
///
/// Panics if `input` channels disagree with the network, if input
/// coordinates contain duplicates, or if weights are missing for a conv
/// node.
pub fn run_network(
    network: &Network,
    weights: &NetworkWeights,
    input: &SparseTensor,
    cfgs: &GroupConfigs,
    ctx: &ExecCtx,
) -> (SparseTensor, RunReport) {
    assert_eq!(
        input.channels(),
        network.in_channels(),
        "input channel mismatch"
    );
    assert_eq!(
        ts_kernelmap::unique_coords(input.coords()).len(),
        input.num_points(),
        "input coordinates must be deduplicated"
    );

    let session = Session::new(network, input.coords());
    run_network_in_session(&session, weights, input, cfgs, ctx)
}

/// [`run_network`] against an already-compiled [`Session`].
///
/// The caller guarantees `session` was compiled for `input.coords()`
/// (and that the input passed the validation `run_network` performs);
/// this is the hot path for servers that validate once and reuse the
/// compiled maps.
pub fn run_network_in_session(
    session: &Session,
    weights: &NetworkWeights,
    input: &SparseTensor,
    cfgs: &GroupConfigs,
    ctx: &ExecCtx,
) -> (SparseTensor, RunReport) {
    let network = session.network();
    let report = session.simulate_inference(cfgs, ctx);

    // Simulate-only contexts price the run without computing features:
    // the report is the product and the returned tensor is empty. This
    // is what makes wide networks affordable in pure-simulation drivers
    // (the fleet simulator prices thousands of frames per run; walking
    // real features through them would burn minutes of wall clock on
    // outputs nobody reads).
    if !ctx.functional {
        let out_ch = network.out_channels(network.nodes().len() - 1);
        return (
            SparseTensor::new(Vec::new(), Matrix::zeros(0, out_ch)),
            report,
        );
    }

    let out_node = network.output();
    let mut feats = forward_features(session, weights, input.feats(), cfgs, ctx);
    let out_feats = feats[out_node].take().expect("output computed");
    let out = SparseTensor::with_stride(
        session.output_coords().to_vec(),
        out_feats,
        network.stride(out_node),
    );
    (out, report)
}

/// The functional forward walk shared by inference
/// ([`run_network_in_session`]) and training
/// ([`crate::forward_backward`]): every node's features in node order
/// under the functional context `fctx`, with each conv layer running
/// the dataflow `cfgs` picks for its group. Under
/// `fctx.quantize_storage`, conv outputs are rounded to the storage
/// precision as they are stored.
pub(crate) fn forward_features(
    session: &Session,
    weights: &NetworkWeights,
    input: &Matrix,
    cfgs: &GroupConfigs,
    fctx: &ExecCtx,
) -> Vec<Option<Matrix>> {
    let network = session.network();
    let mut feats: Vec<Option<Matrix>> = vec![None; network.nodes().len()];
    feats[0] = Some(input.clone());
    for (i, node) in network.nodes().iter().enumerate().skip(1) {
        let x = feats[node.input]
            .as_ref()
            .expect("producer already executed");
        // Conv and Concat only read their input; the in-place ops
        // (BN, ReLU, Add) start from a copy of it.
        let y = match node.op {
            Op::Input => unreachable!(),
            Op::Conv(_) => {
                let (map, group, _) = session
                    .map_for_node(i)
                    .expect("conv node has a compiled map");
                let w = weights.convs[i].as_ref().expect("conv weights initialised");
                let cfg = cfgs.for_group(group);
                let prepared = prepare(&map, &cfg, fctx);
                let out = forward_prepared(x, w, &map, &prepared, &cfg, fctx);
                let mut y = out.features.expect("functional context computes features");
                if fctx.quantize_storage {
                    fctx.precision.quantize_slice(y.as_mut_slice());
                }
                y
            }
            Op::BatchNorm => {
                let mut y = x.clone();
                batch_norm(
                    &mut y,
                    weights.bns[i].as_ref().expect("bn params initialised"),
                );
                y
            }
            Op::ReLU => {
                let mut y = x.clone();
                relu(&mut y);
                y
            }
            Op::Add { other } => {
                let mut y = x.clone();
                y.add_assign(feats[other].as_ref().expect("operand executed"));
                y
            }
            Op::Concat { other } => {
                let o = feats[other].as_ref().expect("operand executed");
                assert_eq!(x.rows(), o.rows(), "concat operands must align");
                let mut y = Matrix::zeros(x.rows(), x.cols() + o.cols());
                for r in 0..x.rows() {
                    let row = y.row_mut(r);
                    row[..x.cols()].copy_from_slice(x.row(r));
                    row[x.cols()..].copy_from_slice(o.row(r));
                }
                y
            }
        };
        feats[i] = Some(y);
    }
    feats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NetworkBuilder;
    use ts_dataflow::DataflowConfig;
    use ts_gpusim::Device;
    use ts_kernelmap::Coord;
    use ts_tensor::{rng_from_seed, uniform_matrix, Precision};

    fn coords(n: i32) -> Vec<Coord> {
        (0..n)
            .flat_map(|x| (0..n).map(move |y| Coord::new(0, x, y, 0)))
            .collect()
    }

    fn input(n: i32, c: usize) -> SparseTensor {
        let cs = coords(n);
        let feats = uniform_matrix(&mut rng_from_seed(9), cs.len(), c, -1.0, 1.0);
        SparseTensor::new(cs, feats)
    }

    fn unet() -> (Network, NetworkWeights) {
        let mut b = NetworkBuilder::new("u", 4);
        let c1 = b.conv_block("enc", NetworkBuilder::INPUT, 8, 3, 1);
        let d = b.conv_block("down", c1, 12, 2, 2);
        let u = b.conv_block_transposed("up", d, 8, 2, 2);
        let cat = b.concat("skip", u, c1);
        let _ = b.conv("head", cat, 4, 1, 1);
        let net = b.build();
        let w = net.init_weights(3);
        (net, w)
    }

    #[test]
    fn unet_runs_and_preserves_resolution() {
        let (net, w) = unet();
        let x = input(8, 4);
        let ctx = ExecCtx::functional(Device::rtx3090(), Precision::Fp32);
        let (y, report) = run_network(
            &net,
            &w,
            &x,
            &GroupConfigs::uniform(DataflowConfig::implicit_gemm(1)),
            &ctx,
        );
        assert_eq!(y.num_points(), x.num_points());
        assert_eq!(y.channels(), 4);
        assert_eq!(y.stride(), 1);
        assert!(report.total_us() > 0.0);
    }

    #[test]
    fn every_dataflow_family_computes_identical_features() {
        let (net, w) = unet();
        let x = input(7, 4);
        let ctx = ExecCtx::functional(Device::rtx3090(), Precision::Fp32);
        let configs = [
            DataflowConfig::gather_scatter(false),
            DataflowConfig::gather_scatter(true),
            DataflowConfig::fetch_on_demand(false),
            DataflowConfig::fetch_on_demand(true),
            DataflowConfig::implicit_gemm(0),
            DataflowConfig::implicit_gemm(1),
            DataflowConfig::implicit_gemm(3),
        ];
        let (y0, _) = run_network(&net, &w, &x, &GroupConfigs::uniform(configs[0]), &ctx);
        for cfg in &configs[1..] {
            let (y, _) = run_network(&net, &w, &x, &GroupConfigs::uniform(*cfg), &ctx);
            assert!(
                y.feats().approx_eq(y0.feats(), 1e-3),
                "dataflow {cfg} diverged; max diff {:?}",
                y.feats().max_abs_diff(y0.feats())
            );
        }
    }

    #[test]
    fn residual_network_runs() {
        let mut b = NetworkBuilder::new("res", 6);
        let r1 = b.residual_block("r1", NetworkBuilder::INPUT, 6, 3);
        let _ = b.residual_block("r2", r1, 12, 3);
        let net = b.build();
        let w = net.init_weights(5);
        let x = input(6, 6);
        let ctx = ExecCtx::functional(Device::a100(), Precision::Fp32);
        let (y, _) = run_network(
            &net,
            &w,
            &x,
            &GroupConfigs::uniform(DataflowConfig::implicit_gemm(0)),
            &ctx,
        );
        assert_eq!(y.channels(), 12);
        // ReLU output is non-negative.
        assert!(y.feats().as_slice().iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn fp16_storage_quantization_bounds_error() {
        let (net, w) = unet();
        let x = input(7, 4);
        let exact_ctx = ExecCtx::functional(Device::rtx3090(), Precision::Fp32);
        let cfgs = GroupConfigs::uniform(DataflowConfig::implicit_gemm(1));
        let (exact, _) = run_network(&net, &w, &x, &cfgs, &exact_ctx);
        let quant_ctx =
            ExecCtx::functional(Device::rtx3090(), Precision::Fp16).with_storage_quantization(true);
        let (quant, _) = run_network(&net, &w, &x, &cfgs, &quant_ctx);
        // Quantization changes values...
        assert_ne!(exact.feats(), quant.feats());
        // ...but only within half-precision tolerance per layer.
        assert!(exact.feats().approx_eq(quant.feats(), 2e-2));
    }

    #[test]
    #[should_panic(expected = "deduplicated")]
    fn rejects_duplicate_coords() {
        let cs = vec![Coord::new(0, 0, 0, 0), Coord::new(0, 0, 0, 0)];
        let x = SparseTensor::new(cs, Matrix::zeros(2, 4));
        let mut b = NetworkBuilder::new("t", 4);
        let _ = b.conv("c", NetworkBuilder::INPUT, 4, 3, 1);
        let net = b.build();
        let w = net.init_weights(0);
        let ctx = ExecCtx::functional(Device::a100(), Precision::Fp32);
        let _ = run_network(
            &net,
            &w,
            &x,
            &GroupConfigs::uniform(DataflowConfig::implicit_gemm(0)),
            &ctx,
        );
    }
}
