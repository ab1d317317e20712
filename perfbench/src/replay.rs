//! The traced replay: a frame's path through each layer's public
//! functions, called from the benchmark's own code so every call can be
//! wrapped in a span.
//!
//! [`compile`] mirrors `Engine::compile` (fresh maps) and the per-stream
//! map maintenance of `Engine::infer_stream` and the trainer's step
//! compiler (patched maps). [`infer`] mirrors `run_network_in_session`
//! and [`fwd_bwd`] mirrors `ts_core::forward_backward`. The benchmark
//! checks that the replay reproduces the program's own results exactly
//! (simulated cost, served outputs, training loss), so its layer times
//! describe the same work the timed run did.

use std::collections::HashMap;
use std::sync::Arc;

use ts_core::{
    permute_to, CompileError, DeltaConfig, GroupConfigs, Network, NetworkWeights, Op, RunReport,
    Session, SparseTensor, SubmanifoldReuse, TrainConfigs,
};
use ts_dataflow::{
    dgrad, forward_prepared, prepare, reference_forward, ConvWeights, DataflowConfig, DataflowKind,
    ExecCtx,
};
use ts_kernelmap::{Coord, IncrementalMap, KernelOffsets};
use ts_tensor::{batch_norm, relu, relu_backward, ErrorBudget, Matrix, Precision};

use crate::spans::Recorder;

/// Work counts accumulated by the replay.
#[derive(Debug, Default, Clone, Copy)]
pub struct Work {
    /// Kernel-map pairs built (summed over layer groups).
    pub map_pairs: u64,
    /// Forward FLOPs, `2 * pairs * c_in * c_out` per conv layer.
    pub fwd_flops: f64,
    /// Backward FLOPs (dgrad plus wgrad).
    pub bwd_flops: f64,
}

/// Kernel size of the network's stride-1 submanifold group eligible for
/// incremental maintenance (the rule `Engine::infer_stream` and the
/// trainer apply).
pub fn stream_kernel_size(net: &Network) -> Option<u32> {
    net.nodes().iter().skip(1).find_map(|node| match node.op {
        Op::Conv(s)
            if s.stride == 1
                && !s.transposed
                && s.kernel_size % 2 == 1
                && s.kernel_size > 1
                && net.stride(node.input) == 1 =>
        {
            Some(s.kernel_size)
        }
        _ => None,
    })
}

/// Split count the incremental split plan tracks for a default dataflow.
pub fn split_count(default: &DataflowConfig) -> u32 {
    match default.kind {
        DataflowKind::ImplicitGemm { splits } => splits.max(1),
        _ => 1,
    }
}

/// Per-stream incremental map state, advanced exactly as the program
/// advances its own.
#[derive(Debug)]
pub struct StreamMirror {
    ks: u32,
    split: u32,
    delta: DeltaConfig,
    inc: Option<IncrementalMap>,
}

impl StreamMirror {
    pub fn new(ks: u32, split: u32, delta: DeltaConfig) -> Self {
        Self {
            ks,
            split,
            delta,
            inc: None,
        }
    }
}

/// A compiled frame.
pub struct Compiled {
    pub session: Session,
    /// The input in the session's row order.
    pub input: SparseTensor,
}

/// Validates and compiles `input`, patching `mirror`'s map when given.
pub fn compile(
    rec: &mut Recorder,
    net: &Network,
    input: &SparseTensor,
    mirror: Option<&mut StreamMirror>,
    work: &mut Work,
) -> Result<Compiled, CompileError> {
    rec.time("core.validate", |_| {
        if input.channels() != net.in_channels() {
            return Err(CompileError::ChannelMismatch {
                expected: net.in_channels(),
                got: input.channels(),
            });
        }
        let unique = ts_kernelmap::unique_coords(input.coords()).len();
        if unique != input.num_points() {
            return Err(CompileError::DuplicateCoords {
                points: input.num_points(),
                unique,
            });
        }
        Ok(())
    })?;
    let compiled = match mirror {
        None => Compiled {
            session: rec.time("kernelmap.build", |_| Session::try_new(net, input.coords()))?,
            input: input.clone(),
        },
        Some(m) => match m.inc.as_mut() {
            None => {
                let session =
                    rec.time("kernelmap.build", |_| Session::try_new(net, input.coords()))?;
                let (ks, split) = (m.ks, m.split);
                m.inc = Some(rec.time("kernelmap.build", |_| {
                    IncrementalMap::new(input.coords(), KernelOffsets::cube(ks), split)
                }));
                Compiled {
                    session,
                    input: input.clone(),
                }
            }
            Some(inc) => {
                let reuse = rec.time("kernelmap.patch", |_| {
                    let outcome = inc.update(input.coords(), &m.delta);
                    SubmanifoldReuse {
                        kernel_size: m.ks,
                        map: Arc::new(inc.map().clone()),
                        stats: outcome.stats,
                    }
                });
                let permuted = rec.time("core.permute", |_| permute_to(input, inc.coords()));
                let session = rec.time("kernelmap.build", |_| {
                    Session::try_new_with_reuse(net, inc.coords(), Some(&reuse))
                })?;
                Compiled {
                    session,
                    input: permuted,
                }
            }
        },
    };
    work.map_pairs += compiled
        .session
        .groups()
        .iter()
        .map(|g| g.map.total_pairs())
        .sum::<u64>();
    Ok(compiled)
}

/// Layer-by-layer comparison of each conv output against
/// `ts_dataflow::reference_forward` under the precision's `ErrorBudget`.
#[derive(Debug, Default, Clone, Copy)]
pub struct LayerCheck {
    pub layers: usize,
    pub violations: usize,
    /// Largest budget-normalised error seen (above 1.0 is out of budget).
    pub worst: f32,
}

impl LayerCheck {
    fn compare(&mut self, got: &Matrix, want: &Matrix, budget: ErrorBudget) {
        self.layers += 1;
        if got.shape() != want.shape() {
            self.violations += 1;
            self.worst = f32::INFINITY;
            return;
        }
        for (a, b) in got.as_slice().iter().zip(want.as_slice()) {
            let e = budget.normalized_error(*a, *b);
            if e.is_nan() || e > 1.0 {
                self.violations += 1;
            }
            self.worst = self.worst.max(e);
        }
    }
}

/// Mirror of `run_network_in_session`: prices the frame and, under a
/// functional context, computes its output features (`weights` is only
/// read then).
pub fn infer(
    rec: &mut Recorder,
    c: &Compiled,
    weights: Option<&NetworkWeights>,
    cfgs: &GroupConfigs,
    ctx: &ExecCtx,
    mut check: Option<&mut LayerCheck>,
    work: &mut Work,
) -> (Option<SparseTensor>, RunReport) {
    let session = &c.session;
    let network = session.network();
    let report = rec.time("gpusim.price", |_| session.simulate_inference(cfgs, ctx));
    if !ctx.functional {
        return (None, report);
    }
    let weights = weights.expect("a functional replay needs the weights");
    let n = network.nodes().len();
    let mut feats: Vec<Option<Matrix>> = vec![None; n];
    let mut coords: Vec<Option<Arc<Vec<Coord>>>> = vec![None; n];
    let mut stride_coords: HashMap<i32, Arc<Vec<Coord>>> = HashMap::new();
    let input_coords = Arc::new(c.input.coords().to_vec());
    feats[0] = Some(c.input.feats().clone());
    coords[0] = Some(Arc::clone(&input_coords));
    stride_coords.insert(1, input_coords);

    for (i, node) in network.nodes().iter().enumerate().skip(1) {
        let x = feats[node.input].as_ref().expect("producer ran").clone();
        let in_coords = Arc::clone(coords[node.input].as_ref().expect("coords known"));
        match node.op {
            Op::Input => unreachable!("input is node 0"),
            Op::Conv(spec) => {
                let (map, group, _) = session.map_for_node(i).expect("conv has a map");
                let w = weights.convs[i].as_ref().expect("conv weights");
                let cfg = cfgs.for_group(group);
                let prepared = rec.time("dataflow.prepare", |_| prepare(&map, &cfg, ctx));
                let mut y = rec.time("dataflow.fwd", |_| {
                    forward_prepared(&x, w, &map, &prepared, &cfg, ctx)
                        .features
                        .expect("functional context computes features")
                });
                work.fwd_flops += 2.0 * map.effective_macs(w.c_in(), w.c_out()) as f64;
                if let Some(chk) = check.as_deref_mut() {
                    let want = reference_forward(&x, w, &map);
                    let budget = ErrorBudget::new(ctx.precision, w.c_in() * map.kernel_volume());
                    chk.compare(&y, &want, budget);
                }
                if ctx.quantize_storage {
                    rec.time("tensor.elementwise", |_| {
                        ctx.precision.quantize_slice(y.as_mut_slice())
                    });
                }
                feats[i] = Some(y);
                let out_coords: Arc<Vec<Coord>> = if spec.transposed {
                    Arc::clone(
                        stride_coords
                            .get(&network.stride(i))
                            .expect("transposed target coords cached"),
                    )
                } else if spec.stride > 1 {
                    Arc::new(rec.time("kernelmap.downsample", |_| {
                        ts_kernelmap::downsample_coords(&in_coords, spec.stride)
                    }))
                } else {
                    in_coords
                };
                stride_coords.insert(network.stride(i), Arc::clone(&out_coords));
                coords[i] = Some(out_coords);
            }
            Op::BatchNorm | Op::ReLU | Op::Add { .. } | Op::Concat { .. } => {
                let y = rec.time("tensor.elementwise", |_| {
                    pointwise(node.op, i, x, &feats, weights)
                });
                feats[i] = Some(y);
                coords[i] = Some(in_coords);
            }
        }
    }
    let out_node = network.output();
    let out = SparseTensor::with_stride(
        coords[out_node]
            .take()
            .expect("output coords")
            .as_ref()
            .clone(),
        feats[out_node].take().expect("output computed"),
        network.stride(out_node),
    );
    (Some(out), report)
}

/// The forward point-wise ops, exactly as the program runs them.
fn pointwise(
    op: Op,
    i: usize,
    x: Matrix,
    feats: &[Option<Matrix>],
    weights: &NetworkWeights,
) -> Matrix {
    let mut y = x;
    match op {
        Op::BatchNorm => batch_norm(&mut y, weights.bns[i].as_ref().expect("bn params")),
        Op::ReLU => relu(&mut y),
        Op::Add { other } => y.add_assign(feats[other].as_ref().expect("operand ran")),
        Op::Concat { other } => {
            let o = feats[other].as_ref().expect("operand ran");
            let mut cat = Matrix::zeros(y.rows(), y.cols() + o.cols());
            for r in 0..y.rows() {
                cat.row_mut(r)[..y.cols()].copy_from_slice(y.row(r));
                cat.row_mut(r)[y.cols()..].copy_from_slice(o.row(r));
            }
            y = cat;
        }
        Op::Input | Op::Conv(_) => unreachable!("not a point-wise op"),
    }
    y
}

/// Result of [`fwd_bwd`].
pub struct FwdBwd {
    pub loss: f32,
    pub grads: Vec<Option<ConvWeights>>,
    pub overflow: bool,
}

fn accumulate(grads: &mut [Option<Matrix>], node: usize, g: Matrix) {
    match &mut grads[node] {
        Some(existing) => existing.add_assign(&g),
        slot @ None => *slot = Some(g),
    }
}

/// Mirror of `ts_core::forward_backward`: forward storing activations,
/// `0.5 * ||y||^2` loss, then dgrad through the transposed maps and
/// wgrad through the forward maps, with the AMP scaling protocol.
#[allow(clippy::too_many_arguments)]
pub fn fwd_bwd(
    rec: &mut Recorder,
    network: &Network,
    weights: &NetworkWeights,
    session: &Session,
    input: &SparseTensor,
    cfgs: &TrainConfigs,
    ctx: &ExecCtx,
    loss_scale: f32,
    fp16_grads: bool,
    work: &mut Work,
) -> FwdBwd {
    let fctx = ExecCtx {
        functional: true,
        ..ctx.clone()
    };
    let n = network.nodes().len();
    let mut feats: Vec<Option<Matrix>> = vec![None; n];
    feats[0] = Some(input.feats().clone());
    for (i, node) in network.nodes().iter().enumerate().skip(1) {
        let x = feats[node.input].as_ref().expect("producer ran").clone();
        let y = match node.op {
            Op::Input => unreachable!("input is node 0"),
            Op::Conv(_) => {
                let (map, _, group) = session.conv_maps(i).expect("conv map");
                let w = weights.convs[i].as_ref().expect("weights");
                let cfg = cfgs.fwd.for_group(group);
                let prepared = rec.time("dataflow.prepare", |_| prepare(&map, &cfg, &fctx));
                work.fwd_flops += 2.0 * map.effective_macs(w.c_in(), w.c_out()) as f64;
                rec.time("dataflow.fwd", |_| {
                    forward_prepared(&x, w, &map, &prepared, &cfg, &fctx)
                        .features
                        .expect("functional")
                })
            }
            op => rec.time("tensor.elementwise", |_| {
                pointwise(op, i, x, &feats, weights)
            }),
        };
        feats[i] = Some(y);
    }

    let out = feats[network.output()].as_ref().expect("output");
    let loss = 0.5 * out.as_slice().iter().map(|v| v * v).sum::<f32>();
    let quantize = |m: &mut Matrix| {
        if fp16_grads {
            Precision::Fp16.quantize_slice(m.as_mut_slice());
        }
    };
    let mut grads: Vec<Option<Matrix>> = vec![None; n];
    let mut seed = out.clone();
    if loss_scale != 1.0 {
        seed.scale(loss_scale);
    }
    quantize(&mut seed);
    grads[network.output()] = Some(seed);
    let mut overflow = false;
    let mut conv_grads: Vec<Option<ConvWeights>> = vec![None; n];
    for (i, node) in network.nodes().iter().enumerate().skip(1).rev() {
        let Some(g) = grads[i].take() else { continue };
        match node.op {
            Op::Input => unreachable!("input is node 0"),
            Op::Conv(_) => {
                let (map, grad_map, group) = session.conv_maps(i).expect("conv map");
                let w = weights.convs[i].as_ref().expect("weights").clone();
                let d_cfg = cfgs.dgrad.for_group(group);
                let w_cfg = cfgs.wgrad.for_group(group);
                let mut dx = rec.time("dataflow.dgrad", |_| {
                    dgrad(&g, &w, &grad_map, &d_cfg, &fctx)
                        .features
                        .expect("functional")
                });
                work.bwd_flops += 2.0 * grad_map.effective_macs(w.c_out(), w.c_in()) as f64;
                rec.time("tensor.elementwise", |_| {
                    quantize(&mut dx);
                    accumulate(&mut grads, node.input, dx);
                });
                let x_in = feats[node.input].as_ref().expect("activation");
                let mut dw = rec.time("dataflow.wgrad", |_| {
                    ts_dataflow::wgrad(x_in, &g, &map, &w_cfg, &fctx)
                        .dw
                        .expect("functional")
                });
                work.bwd_flops += 2.0 * map.effective_macs(w.c_in(), w.c_out()) as f64;
                rec.time("tensor.elementwise", |_| {
                    for k in 0..dw.kernel_volume() {
                        quantize(dw.offset_mut(k));
                        if dw
                            .offset(k)
                            .as_slice()
                            .iter()
                            .any(|v| !v.is_finite() || v.abs() >= 65504.0)
                        {
                            overflow = true;
                        }
                        if loss_scale != 1.0 {
                            dw.offset_mut(k).scale(1.0 / loss_scale);
                        }
                    }
                });
                conv_grads[i] = Some(dw);
            }
            op => rec.time("tensor.elementwise", |_| match op {
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
                Op::Input | Op::Conv(_) => unreachable!("handled above"),
            }),
        }
    }
    FwdBwd {
        loss,
        grads: conv_grads,
        overflow,
    }
}
