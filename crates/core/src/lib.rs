//! TorchSparse++ core: sparse tensors, network graphs, the layer runner
//! with per-group map caching, and the functional training pass.
//!
//! This crate ties the substrates together into the user-facing library:
//!
//! * [`SparseTensor`] — coordinates + features at a tensor stride;
//! * [`Network`] / [`NetworkBuilder`] — a DAG of sparse convolutions,
//!   batch-norms, ReLUs, residual adds and U-Net concats;
//! * [`Session`] — compiles a network against an input coordinate set:
//!   builds every kernel map once, assigns layers to *groups* (layers
//!   sharing maps, the unit of dataflow selection in the Sparse
//!   Autotuner), and prices inference/training on a simulated GPU with
//!   per-group dataflow configurations;
//! * [`run_network`] — the functional path computing real features;
//! * [`forward_backward`] — the same forward walk plus dgrad + wgrad
//!   (the optimizer step lives in `ts-train`), and [`LossScaler`] for
//!   mixed-precision training.
//!
//! # Examples
//!
//! ```
//! use ts_core::{NetworkBuilder, Session, GroupConfigs};
//! use ts_dataflow::{DataflowConfig, ExecCtx};
//! use ts_gpusim::Device;
//! use ts_kernelmap::Coord;
//! use ts_tensor::Precision;
//!
//! let mut b = NetworkBuilder::new("tiny", 4);
//! let c = b.conv_block("stem", NetworkBuilder::INPUT, 8, 3, 1);
//! let _ = b.conv_block("down", c, 16, 2, 2);
//! let net = b.build();
//!
//! let coords: Vec<Coord> = (0..64).map(|i| Coord::new(0, i % 8, i / 8, 0)).collect();
//! let session = Session::new(&net, &coords);
//! let ctx = ExecCtx::simulate(Device::rtx3090(), Precision::Fp16);
//! let report = session.simulate_inference(
//!     &GroupConfigs::uniform(DataflowConfig::implicit_gemm(1)),
//!     &ctx,
//! );
//! assert!(report.total_us() > 0.0);
//! ```

mod engine;
mod network;
mod report;
mod run;
mod schedule;
mod session;
mod sparse_tensor;
mod stream;
mod train;

pub use engine::Engine;
pub use network::{ConvSpec, Network, NetworkBuilder, NetworkWeights, Node, Op};
pub use report::{percentile_sorted, LatencyStats, LayerTiming, RunReport};
pub use run::{run_network, run_network_in_session};
pub use schedule::{
    check_configs, sanitize_configs, Downgrade, ScheduleArtifact, ScheduleError, SCHEDULE_VERSION,
};
pub use session::{
    check_frame, CompileError, GroupConfigs, GroupInfo, GroupKey, GroupSignature,
    PrepareCacheCounters, Session, SubmanifoldReuse, TrainConfigs,
};
pub use sparse_tensor::SparseTensor;
pub use stream::{permute_to, StreamState};
pub use train::{forward_backward, BackwardOutput, LossScaler};
// Streaming callers configure and inspect updates with the kernel-map
// vocabulary; re-exported so they need not depend on ts-kernelmap.
pub use ts_kernelmap::{DeltaConfig, MapUpdate, UpdateOutcome};
