//! Functional training: the fused forward + backward pass (dgrad +
//! wgrad) over a compiled session, and dynamic loss scaling for
//! mixed-precision steps. The optimizer lives with the step pipeline in
//! `ts-train`.

use ts_dataflow::{dgrad, wgrad, ConvWeights, ExecCtx};
use ts_tensor::{relu_backward, Matrix};

use crate::run::forward_features;
use crate::{Network, NetworkWeights, Op, Session, SparseTensor, TrainConfigs};

/// Dynamic loss scaling for mixed-precision training: gradients flow in
/// FP16 (the paper's training setup), so small gradients underflow
/// unless the loss is scaled up; overflowing steps are skipped and the
/// scale halved, and the scale doubles after a streak of good steps.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LossScaler {
    /// Current loss scale.
    pub scale: f32,
    /// Consecutive overflow-free steps.
    pub good_steps: u32,
    /// Steps skipped due to gradient overflow.
    pub skipped: u32,
    /// Good-step streak length that doubles the scale.
    pub growth_interval: u32,
}

impl LossScaler {
    /// The conventional starting configuration (scale 2^16).
    pub fn new() -> Self {
        Self {
            scale: 65536.0,
            good_steps: 0,
            skipped: 0,
            growth_interval: 200,
        }
    }
}

impl Default for LossScaler {
    fn default() -> Self {
        Self::new()
    }
}

impl LossScaler {
    /// Advances the scaler after a step: overflow halves the scale
    /// (floored at 1) and resets the good-step streak; a clean step
    /// extends the streak and doubles the scale (capped at 2^24) every
    /// `growth_interval` good steps. Returns `true` when the step's
    /// updates should be applied.
    pub fn update(&mut self, overflow: bool) -> bool {
        if overflow {
            self.scale = (self.scale / 2.0).max(1.0);
            self.good_steps = 0;
            self.skipped += 1;
            false
        } else {
            self.good_steps += 1;
            if self.good_steps.is_multiple_of(self.growth_interval) {
                self.scale = (self.scale * 2.0).min(16_777_216.0);
            }
            true
        }
    }
}

/// Result of one fused forward + backward pass over a compiled session
/// (no optimizer update applied).
#[derive(Debug, Clone)]
pub struct BackwardOutput {
    /// Loss before any update (`0.5 * ||output||^2`).
    pub loss: f32,
    /// Per-node weight gradients (`Some` exactly at conv nodes that
    /// received gradient), already un-scaled back from `loss_scale`.
    pub grads: Vec<Option<ConvWeights>>,
    /// Gradient w.r.t. the input features. Still carries the loss
    /// scale (and FP16 rounding) when AMP is active.
    pub input_grad: Option<Matrix>,
    /// Whether any weight gradient overflowed the FP16 range after
    /// scaling — the step must be skipped and the scale backed off.
    pub overflow: bool,
}

/// Runs one fused forward + loss + dgrad + wgrad pass over `session`
/// with explicit weights: the engine under the `ts-train` step pipeline
/// and the ts-verify training conformance harness.
///
/// Forward is the inference walk (storage quantization included), with
/// every activation kept; the loss is `0.5 * ||output||^2`;
/// the backward sweep walks nodes in reverse, routing dgrad through the
/// transposed maps and wgrad through the forward maps with the per-pass
/// dataflow configs in `cfgs`. With `fp16_grads`, every stored gradient
/// is rounded to the FP16 grid, the seed gradient is multiplied by
/// `loss_scale`, and weight gradients are overflow-checked *before*
/// being un-scaled — exactly the deferred-update AMP protocol.
///
/// # Panics
///
/// Panics if `session` was not compiled for `network` over `input`'s
/// coordinates, or if `weights` is missing a conv slot.
#[allow(clippy::too_many_arguments)]
pub fn forward_backward(
    network: &Network,
    weights: &NetworkWeights,
    session: &Session,
    input: &SparseTensor,
    cfgs: &TrainConfigs,
    ctx: &ExecCtx,
    loss_scale: f32,
    fp16_grads: bool,
) -> BackwardOutput {
    let fctx = ExecCtx {
        functional: true,
        ..ctx.clone()
    };
    let n_nodes = network.nodes().len();

    let feats = forward_features(session, weights, input.feats(), &cfgs.fwd, &fctx);
    let out = feats[network.output()].as_ref().expect("output");
    let loss = 0.5 * out.as_slice().iter().map(|v| v * v).sum::<f32>();

    // Backward. Under AMP the output gradient is scaled up, every
    // stored gradient is rounded to the FP16 grid, and updates are
    // deferred until the overflow check passes.
    let quantize = |m: &mut Matrix| {
        if fp16_grads {
            ts_tensor::Precision::Fp16.quantize_slice(m.as_mut_slice());
        }
    };
    let mut grads: Vec<Option<Matrix>> = vec![None; n_nodes];
    let mut seed = out.clone();
    if loss_scale != 1.0 {
        seed.scale(loss_scale);
    }
    quantize(&mut seed);
    grads[network.output()] = Some(seed);
    let mut overflow = false;
    let mut conv_grads: Vec<Option<ConvWeights>> = vec![None; n_nodes];
    for (i, node) in network.nodes().iter().enumerate().skip(1).rev() {
        let Some(g) = grads[i].take() else { continue };
        match node.op {
            Op::Input => unreachable!(),
            Op::Conv(_) => {
                let (map, grad_map, group) = session.conv_maps(i).expect("conv map");
                let w = weights.convs[i].as_ref().expect("weights");
                let d_cfg = cfgs.dgrad.for_group(group);
                let w_cfg = cfgs.wgrad.for_group(group);
                let mut dx = dgrad(&g, w, &grad_map, &d_cfg, &fctx)
                    .features
                    .expect("functional");
                quantize(&mut dx);
                accumulate(&mut grads, node.input, dx);
                let x_in = feats[node.input].as_ref().expect("activation");
                let mut dw = wgrad(x_in, &g, &map, &w_cfg, &fctx).dw.expect("functional");
                for k in 0..dw.kernel_volume() {
                    quantize(dw.offset_mut(k));
                    // FP16 saturation (|v| at the max finite half) or
                    // non-finite values mark the step as overflowed.
                    if dw
                        .offset(k)
                        .as_slice()
                        .iter()
                        .any(|v| !v.is_finite() || v.abs() >= 65504.0)
                    {
                        overflow = true;
                    }
                    // Un-scale back to true gradient magnitude.
                    if loss_scale != 1.0 {
                        dw.offset_mut(k).scale(1.0 / loss_scale);
                    }
                }
                conv_grads[i] = Some(dw);
            }
            Op::BatchNorm => {
                let params = weights.bns[i].as_ref().expect("bn");
                let mut dx = g;
                for r in 0..dx.rows() {
                    for (c, v) in dx.row_mut(r).iter_mut().enumerate() {
                        *v *= params.scale[c];
                    }
                }
                accumulate(&mut grads, node.input, dx);
            }
            Op::ReLU => {
                let mut dx = g;
                relu_backward(&mut dx, feats[node.input].as_ref().expect("activation"));
                accumulate(&mut grads, node.input, dx);
            }
            Op::Add { other } => {
                accumulate(&mut grads, node.input, g.clone());
                accumulate(&mut grads, other, g);
            }
            Op::Concat { other } => {
                let c_in = network.out_channels(node.input);
                let mut g_in = Matrix::zeros(g.rows(), c_in);
                let mut g_other = Matrix::zeros(g.rows(), g.cols() - c_in);
                for r in 0..g.rows() {
                    g_in.row_mut(r).copy_from_slice(&g.row(r)[..c_in]);
                    g_other.row_mut(r).copy_from_slice(&g.row(r)[c_in..]);
                }
                accumulate(&mut grads, node.input, g_in);
                accumulate(&mut grads, other, g_other);
            }
        }
    }

    BackwardOutput {
        loss,
        grads: conv_grads,
        input_grad: grads[0].take(),
        overflow,
    }
}

fn accumulate(grads: &mut [Option<Matrix>], node: usize, g: Matrix) {
    match &mut grads[node] {
        Some(existing) => existing.add_assign(&g),
        slot @ None => *slot = Some(g),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_network_in_session, GroupConfigs, NetworkBuilder};
    use ts_dataflow::DataflowConfig;
    use ts_gpusim::Device;
    use ts_kernelmap::Coord;
    use ts_tensor::{rng_from_seed, uniform_matrix, Precision};

    fn input(n: i32, c: usize, seed: u64) -> SparseTensor {
        let cs: Vec<Coord> = (0..n)
            .flat_map(|x| (0..n).map(move |y| Coord::new(0, x, y, 0)))
            .collect();
        let feats = uniform_matrix(&mut rng_from_seed(seed), cs.len(), c, -1.0, 1.0);
        SparseTensor::new(cs, feats)
    }

    fn small_net() -> Network {
        let mut b = NetworkBuilder::new("t", 4);
        let c1 = b.conv_block("c1", NetworkBuilder::INPUT, 6, 3, 1);
        let d = b.conv_block("d", c1, 8, 2, 2);
        let u = b.conv_block_transposed("u", d, 6, 2, 2);
        let cat = b.concat("skip", u, c1);
        let _ = b.conv("head", cat, 2, 1, 1);
        b.build()
    }

    #[test]
    fn training_forward_is_the_inference_walk() {
        let net = small_net();
        let w = net.init_weights(1);
        let x = input(6, 4, 2);
        let session = Session::new(&net, x.coords());
        let cfg = DataflowConfig::implicit_gemm(1);
        let mut losses = Vec::new();
        for quantize in [false, true] {
            let ctx = ExecCtx::functional(Device::a100(), Precision::Fp16)
                .with_storage_quantization(quantize);
            let (y, _) =
                run_network_in_session(&session, &w, &x, &GroupConfigs::uniform(cfg), &ctx);
            let expected = 0.5 * y.feats().as_slice().iter().map(|v| v * v).sum::<f32>();
            let bw = forward_backward(
                &net,
                &w,
                &session,
                &x,
                &TrainConfigs::bound(cfg),
                &ctx,
                1.0,
                false,
            );
            assert_eq!(bw.loss.to_bits(), expected.to_bits(), "quantize={quantize}");
            losses.push(bw.loss);
        }
        assert_ne!(losses[0], losses[1], "storage quantization moves the loss");
    }

    #[test]
    fn gradients_are_dataflow_invariant() {
        let net = small_net();
        let w = net.init_weights(9);
        let x = input(5, 4, 3);
        let session = Session::new(&net, x.coords());
        let ctx = ExecCtx::functional(Device::a100(), Precision::Fp32);
        let run = |cfg: DataflowConfig| {
            forward_backward(
                &net,
                &w,
                &session,
                &x,
                &TrainConfigs::bound(cfg),
                &ctx,
                1.0,
                false,
            )
        };
        let base = run(DataflowConfig::implicit_gemm(0));
        for cfg in [
            DataflowConfig::gather_scatter(true),
            DataflowConfig::fetch_on_demand(true),
            DataflowConfig::implicit_gemm(2),
        ] {
            let bw = run(cfg);
            assert!(
                (bw.loss - base.loss).abs() / base.loss.max(1e-6) < 1e-3,
                "loss differs for {cfg}"
            );
            assert!(bw
                .input_grad
                .as_ref()
                .unwrap()
                .approx_eq(base.input_grad.as_ref().unwrap(), 1e-3));
            for (a, b) in bw.grads.iter().zip(&base.grads) {
                assert_eq!(a.is_some(), b.is_some());
                if let (Some(a), Some(b)) = (a, b) {
                    for k in 0..a.kernel_volume() {
                        assert!(
                            a.offset(k).approx_eq(b.offset(k), 1e-3),
                            "dw differs for {cfg}"
                        );
                    }
                }
            }
        }
    }
}
