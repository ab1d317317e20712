//! Network graphs: sparse convolutions, elementwise layers, residual and
//! U-Net skip connections.

use serde::{Deserialize, Serialize};

use ts_dataflow::ConvWeights;
use ts_tensor::{rng_from_seed, BatchNormParams};

/// Specification of one sparse convolution layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ConvSpec {
    /// Input channels.
    pub c_in: usize,
    /// Output channels.
    pub c_out: usize,
    /// Kernel size per axis (odd => submanifold neighborhood, even =>
    /// positive corner neighborhood).
    pub kernel_size: u32,
    /// Coordinate stride (1 = submanifold, >1 = downsampling).
    pub stride: i32,
    /// Inverse (transposed) convolution: upsamples back to the cached
    /// coordinates of the finer stride level.
    pub transposed: bool,
}

impl ConvSpec {
    /// Kernel volume `K^3`.
    pub fn kernel_volume(&self) -> usize {
        (self.kernel_size as usize).pow(3)
    }
}

/// A node's operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Op {
    /// The network input placeholder (always node 0).
    Input,
    /// Sparse convolution.
    Conv(ConvSpec),
    /// Folded batch normalisation.
    BatchNorm,
    /// Rectified linear unit.
    ReLU,
    /// Residual addition with another node's output (same coords and
    /// channels).
    Add {
        /// The other operand node.
        other: usize,
    },
    /// Channel concatenation with another node's output (same coords).
    Concat {
        /// The other operand node.
        other: usize,
    },
}

/// One node of the network DAG.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Node {
    /// Human-readable layer name.
    pub name: String,
    /// Operator.
    pub op: Op,
    /// Primary input node index.
    pub input: usize,
}

/// An immutable network graph produced by [`NetworkBuilder`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Network {
    name: String,
    in_channels: usize,
    nodes: Vec<Node>,
    channels: Vec<usize>,
    strides: Vec<i32>,
}

impl Network {
    /// Network name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Channels of the input tensor.
    pub fn in_channels(&self) -> usize {
        self.in_channels
    }

    /// All nodes (node 0 is the input placeholder).
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Output channels of node `i`.
    pub fn out_channels(&self, i: usize) -> usize {
        self.channels[i]
    }

    /// Tensor stride at node `i`'s output.
    pub fn stride(&self, i: usize) -> i32 {
        self.strides[i]
    }

    /// Index of the final (output) node.
    pub fn output(&self) -> usize {
        self.nodes.len() - 1
    }

    /// Number of sparse convolution layers.
    pub fn conv_count(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| matches!(n.op, Op::Conv(_)))
            .count()
    }

    /// Largest distance, per axis and in either direction, a kernel map
    /// query moves away from a coordinate of the level it reads: the
    /// kernel's offset half-width (`k / 2` for odd `k`, `k - 1` for the
    /// even positive-corner neighborhood), plus `stride - 1` for strided
    /// maps, whose queries start at the floor-rounded coarse coordinate.
    /// Coarser levels hold divided coordinates, so input coordinates this
    /// far inside the 16-bit key range keep every query in it. `0` for a
    /// network without convolutions.
    pub fn offset_reach(&self) -> i32 {
        self.nodes
            .iter()
            .filter_map(|n| match n.op {
                Op::Conv(c) => {
                    let k = c.kernel_size as i32;
                    let half = if k % 2 == 1 { k / 2 } else { k - 1 };
                    Some(half + (c.stride - 1).max(0))
                }
                _ => None,
            })
            .max()
            .unwrap_or(0)
    }

    /// Total parameter count over all convolutions.
    pub fn param_count(&self) -> usize {
        self.nodes
            .iter()
            .filter_map(|n| match n.op {
                Op::Conv(c) => Some(c.kernel_volume() * c.c_in * c.c_out),
                _ => None,
            })
            .sum()
    }

    /// Renders the network as a Graphviz DOT digraph (layers as nodes,
    /// data dependencies as edges; skip connections included).
    pub fn to_dot(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(s, "digraph \"{}\" {{", self.name);
        let _ = writeln!(s, "  rankdir=TB; node [shape=box, fontsize=10];");
        for (i, node) in self.nodes.iter().enumerate() {
            let (label, shape) = match node.op {
                Op::Input => (format!("input\\n{}ch", self.in_channels), "ellipse"),
                Op::Conv(c) => (
                    format!(
                        "{}\\n{}x{} k{} s{}{}",
                        node.name,
                        c.c_in,
                        c.c_out,
                        c.kernel_size,
                        c.stride,
                        if c.transposed { " (T)" } else { "" }
                    ),
                    "box",
                ),
                Op::BatchNorm => (node.name.clone(), "box"),
                Op::ReLU => (node.name.clone(), "box"),
                Op::Add { .. } => (format!("{} (+)", node.name), "diamond"),
                Op::Concat { .. } => (format!("{} (cat)", node.name), "diamond"),
            };
            let _ = writeln!(s, "  n{i} [label=\"{label}\", shape={shape}];");
        }
        for (i, node) in self.nodes.iter().enumerate().skip(1) {
            let _ = writeln!(s, "  n{} -> n{i};", node.input);
            match node.op {
                Op::Add { other } | Op::Concat { other } => {
                    let _ = writeln!(s, "  n{other} -> n{i} [style=dashed];");
                }
                _ => {}
            }
        }
        s.push_str("}\n");
        s
    }

    /// Xavier-initialises weights for every conv (and identity BN
    /// parameters), deterministically from `seed`.
    pub fn init_weights(&self, seed: u64) -> NetworkWeights {
        let mut rng = rng_from_seed(seed);
        let mut convs = Vec::with_capacity(self.nodes.len());
        let mut bns = Vec::with_capacity(self.nodes.len());
        for node in &self.nodes {
            match node.op {
                Op::Conv(c) => {
                    convs.push(Some(ConvWeights::random(
                        &mut rng,
                        c.kernel_volume(),
                        c.c_in,
                        c.c_out,
                    )));
                    bns.push(None);
                }
                Op::BatchNorm => {
                    convs.push(None);
                    let idx = bns.len();
                    bns.push(Some(BatchNormParams::identity(self.channels[idx])));
                }
                _ => {
                    convs.push(None);
                    bns.push(None);
                }
            }
        }
        NetworkWeights { convs, bns }
    }
}

/// Learnable parameters of a [`Network`], indexed by node.
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkWeights {
    /// Convolution weights per node (`None` for non-conv nodes).
    pub convs: Vec<Option<ConvWeights>>,
    /// Batch-norm parameters per node.
    pub bns: Vec<Option<BatchNormParams>>,
}

/// Incrementally constructs a [`Network`].
///
/// All layer methods take the producing node index and return the new
/// node's index; use [`NetworkBuilder::INPUT`] for the network input.
#[derive(Debug, Clone)]
pub struct NetworkBuilder {
    name: String,
    in_channels: usize,
    nodes: Vec<Node>,
    channels: Vec<usize>,
    strides: Vec<i32>,
}

impl NetworkBuilder {
    /// The input placeholder node index.
    pub const INPUT: usize = 0;

    /// Starts a network taking `in_channels`-channel input.
    pub fn new(name: impl Into<String>, in_channels: usize) -> Self {
        Self {
            name: name.into(),
            in_channels,
            nodes: vec![Node {
                name: "input".to_owned(),
                op: Op::Input,
                input: 0,
            }],
            channels: vec![in_channels],
            strides: vec![1],
        }
    }

    fn push(&mut self, name: &str, op: Op, input: usize, channels: usize, stride: i32) -> usize {
        assert!(
            input < self.nodes.len(),
            "input node {input} does not exist"
        );
        self.nodes.push(Node {
            name: name.to_owned(),
            op,
            input,
        });
        self.channels.push(channels);
        self.strides.push(stride);
        self.nodes.len() - 1
    }

    /// Adds a sparse convolution (submanifold when `stride == 1`).
    ///
    /// # Panics
    ///
    /// Panics if `stride < 1` or `input` does not exist.
    pub fn conv(
        &mut self,
        name: &str,
        input: usize,
        c_out: usize,
        kernel: u32,
        stride: i32,
    ) -> usize {
        assert!(stride >= 1, "use conv_transposed for upsampling");
        let c_in = self.channels[input];
        let spec = ConvSpec {
            c_in,
            c_out,
            kernel_size: kernel,
            stride,
            transposed: false,
        };
        let out_stride = self.strides[input] * stride;
        self.push(name, Op::Conv(spec), input, c_out, out_stride)
    }

    /// Adds an inverse (transposed) convolution upsampling by `stride`.
    ///
    /// # Panics
    ///
    /// Panics if the input stride is not divisible by `stride`.
    pub fn conv_transposed(
        &mut self,
        name: &str,
        input: usize,
        c_out: usize,
        kernel: u32,
        stride: i32,
    ) -> usize {
        let in_stride = self.strides[input];
        assert!(
            stride >= 1 && in_stride % stride == 0,
            "cannot upsample stride {in_stride} by {stride}"
        );
        let c_in = self.channels[input];
        let spec = ConvSpec {
            c_in,
            c_out,
            kernel_size: kernel,
            stride,
            transposed: true,
        };
        self.push(name, Op::Conv(spec), input, c_out, in_stride / stride)
    }

    /// Adds a batch-norm node.
    pub fn bn(&mut self, name: &str, input: usize) -> usize {
        let (c, s) = (self.channels[input], self.strides[input]);
        self.push(name, Op::BatchNorm, input, c, s)
    }

    /// Adds a ReLU node.
    pub fn relu(&mut self, name: &str, input: usize) -> usize {
        let (c, s) = (self.channels[input], self.strides[input]);
        self.push(name, Op::ReLU, input, c, s)
    }

    /// Adds a residual addition of `input` and `other`.
    ///
    /// # Panics
    ///
    /// Panics if channels or strides differ.
    pub fn add(&mut self, name: &str, input: usize, other: usize) -> usize {
        assert_eq!(
            self.channels[input], self.channels[other],
            "residual channels must match"
        );
        assert_eq!(
            self.strides[input], self.strides[other],
            "residual strides must match"
        );
        let (c, s) = (self.channels[input], self.strides[input]);
        self.push(name, Op::Add { other }, input, c, s)
    }

    /// Adds a channel concatenation of `input` and `other` (U-Net skip).
    ///
    /// # Panics
    ///
    /// Panics if strides differ.
    pub fn concat(&mut self, name: &str, input: usize, other: usize) -> usize {
        assert_eq!(
            self.strides[input], self.strides[other],
            "concat strides must match"
        );
        let c = self.channels[input] + self.channels[other];
        let s = self.strides[input];
        self.push(name, Op::Concat { other }, input, c, s)
    }

    /// Convenience: conv + BN + ReLU.
    pub fn conv_block(
        &mut self,
        name: &str,
        input: usize,
        c_out: usize,
        kernel: u32,
        stride: i32,
    ) -> usize {
        let c = self.conv(&format!("{name}.conv"), input, c_out, kernel, stride);
        let b = self.bn(&format!("{name}.bn"), c);
        self.relu(&format!("{name}.relu"), b)
    }

    /// Convenience: transposed conv + BN + ReLU.
    pub fn conv_block_transposed(
        &mut self,
        name: &str,
        input: usize,
        c_out: usize,
        kernel: u32,
        stride: i32,
    ) -> usize {
        let c = self.conv_transposed(&format!("{name}.conv"), input, c_out, kernel, stride);
        let b = self.bn(&format!("{name}.bn"), c);
        self.relu(&format!("{name}.relu"), b)
    }

    /// Convenience: a pre-activation residual basic block of two
    /// submanifold convolutions (the ResNet block of MinkUNet /
    /// CenterPoint backbones).
    pub fn residual_block(&mut self, name: &str, input: usize, c_out: usize, kernel: u32) -> usize {
        let c_in = self.channels[input];
        let shortcut = if c_in == c_out {
            input
        } else {
            let s = self.conv(&format!("{name}.short"), input, c_out, 1, 1);
            self.bn(&format!("{name}.short.bn"), s)
        };
        let c1 = self.conv_block(&format!("{name}.1"), input, c_out, kernel, 1);
        let c2 = self.conv(&format!("{name}.2.conv"), c1, c_out, kernel, 1);
        let b2 = self.bn(&format!("{name}.2.bn"), c2);
        let a = self.add(&format!("{name}.add"), b2, shortcut);
        self.relu(&format!("{name}.out"), a)
    }

    /// Number of nodes so far (including the input placeholder).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when only the input placeholder exists.
    pub fn is_empty(&self) -> bool {
        self.nodes.len() == 1
    }

    /// Output channels of node `i` (useful mid-construction).
    pub fn channels(&self, i: usize) -> usize {
        self.channels[i]
    }

    /// Finalises the network.
    pub fn build(self) -> Network {
        Network {
            name: self.name,
            in_channels: self.in_channels,
            nodes: self.nodes,
            channels: self.channels,
            strides: self.strides,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_tracks_channels_and_strides() {
        let mut b = NetworkBuilder::new("t", 4);
        let c1 = b.conv_block("c1", NetworkBuilder::INPUT, 16, 3, 1);
        let d1 = b.conv_block("d1", c1, 32, 2, 2);
        let u1 = b.conv_block_transposed("u1", d1, 16, 2, 2);
        let cat = b.concat("skip", u1, c1);
        let net = b.build();
        assert_eq!(net.out_channels(cat), 32);
        assert_eq!(net.stride(d1), 2);
        assert_eq!(net.stride(u1), 1);
        assert_eq!(net.conv_count(), 3);
    }

    #[test]
    fn residual_block_with_matching_channels_has_two_convs() {
        let mut b = NetworkBuilder::new("t", 8);
        let r = b.residual_block("res", NetworkBuilder::INPUT, 8, 3);
        let net = b.build();
        assert_eq!(net.conv_count(), 2);
        assert_eq!(net.out_channels(r), 8);
    }

    #[test]
    fn residual_block_with_projection_has_three_convs() {
        let mut b = NetworkBuilder::new("t", 8);
        let _ = b.residual_block("res", NetworkBuilder::INPUT, 16, 3);
        assert_eq!(b.build().conv_count(), 3);
    }

    #[test]
    fn init_weights_covers_all_convs() {
        let mut b = NetworkBuilder::new("t", 4);
        let c = b.conv_block("c", NetworkBuilder::INPUT, 8, 3, 1);
        let _ = b.conv("head", c, 2, 1, 1);
        let net = b.build();
        let w = net.init_weights(7);
        let conv_nodes: Vec<_> = net
            .nodes()
            .iter()
            .enumerate()
            .filter(|(_, n)| matches!(n.op, Op::Conv(_)))
            .map(|(i, _)| i)
            .collect();
        for i in conv_nodes {
            assert!(w.convs[i].is_some(), "node {i} missing weights");
        }
        assert!(net.param_count() > 0);
    }

    #[test]
    fn dot_output_mentions_every_layer_and_skip() {
        let mut b = NetworkBuilder::new("viz", 4);
        let c1 = b.conv_block("enc", NetworkBuilder::INPUT, 8, 3, 1);
        let d = b.conv("down", c1, 16, 2, 2);
        let u = b.conv_transposed("up", d, 8, 2, 2);
        let cat = b.concat("skip", u, c1);
        let _ = b.conv("head", cat, 2, 1, 1);
        let dot = b.build().to_dot();
        assert!(dot.starts_with("digraph"));
        for name in ["enc.conv", "down", "up", "skip", "head", "(T)"] {
            assert!(dot.contains(name), "missing {name} in:\n{dot}");
        }
        assert!(dot.contains("style=dashed"), "skip edge must be dashed");
        assert!(dot.ends_with("}\n"));
    }

    #[test]
    fn weights_are_deterministic_per_seed() {
        let mut b = NetworkBuilder::new("t", 4);
        let _ = b.conv("c", NetworkBuilder::INPUT, 8, 3, 1);
        let net = b.build();
        assert_eq!(net.init_weights(1), net.init_weights(1));
        assert_ne!(net.init_weights(1), net.init_weights(2));
    }

    #[test]
    #[should_panic(expected = "cannot upsample")]
    fn transposed_conv_requires_divisible_stride() {
        let mut b = NetworkBuilder::new("t", 4);
        let _ = b.conv_transposed("u", NetworkBuilder::INPUT, 8, 2, 2);
    }

    #[test]
    #[should_panic(expected = "residual channels")]
    fn add_requires_matching_channels() {
        let mut b = NetworkBuilder::new("t", 4);
        let c = b.conv("c", NetworkBuilder::INPUT, 8, 3, 1);
        let _ = b.add("bad", c, NetworkBuilder::INPUT);
    }
}
