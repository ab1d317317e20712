//! Compiled execution sessions: map building, layer grouping, and fast
//! latency simulation with per-group dataflow configurations.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;

use serde::{Deserialize, Serialize};

use ts_dataflow::{forward_trace, prepare, wgrad_trace, DataflowConfig, ExecCtx, Prepared};
use ts_gpusim::{KernelClass, KernelDesc, KernelTrace};
use ts_kernelmap::{
    build_strided_map_with_stats, build_submanifold_map_with_stats, Coord, KernelMap,
    KernelOffsets, MapStats,
};

use crate::report::{LayerTiming, RunReport};
use crate::{ConvSpec, Network, Op, SparseTensor};

/// Error compiling a network against an input coordinate set (or, via
/// [`crate::Engine::try_infer`], validating an input frame against it).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompileError {
    /// A transposed convolution upsamples to a stride level no encoder
    /// layer ever produced, so there are no cached coordinates to
    /// upsample onto.
    TransposedWithoutEncoder {
        /// Name of the offending layer.
        layer: String,
        /// The missing (finer) stride level.
        missing_stride: i32,
    },
    /// The input feature width disagrees with the network's input.
    ChannelMismatch {
        /// Channels the network expects.
        expected: usize,
        /// Channels the input carries.
        got: usize,
    },
    /// The input coordinate set contains duplicate coordinates, which
    /// would silently alias feature rows.
    DuplicateCoords {
        /// Total points in the input.
        points: usize,
        /// Distinct coordinates among them.
        unique: usize,
    },
    /// An input coordinate component, widened by the network's kernel
    /// reach ([`Network::offset_reach`]), leaves the 16-bit range
    /// [`Coord::key`] packs, so its key (or a neighbor query's) would
    /// alias another coordinate and build a silently wrong map.
    CoordOutOfRange {
        /// The offending axis: `"batch"`, `"x"`, `"y"` or `"z"`.
        axis: &'static str,
        /// The offending component value.
        value: i32,
        /// The network's kernel reach (`0` on the batch axis).
        reach: i32,
    },
}

impl std::fmt::Display for CompileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompileError::TransposedWithoutEncoder { layer, missing_stride } => write!(
                f,
                "transposed conv '{layer}' has no cached coordinates at stride {missing_stride}                  (no matching encoder downsample)"
            ),
            CompileError::ChannelMismatch { expected, got } => write!(
                f,
                "input has {got} feature channels but the network expects {expected}"
            ),
            CompileError::DuplicateCoords { points, unique } => write!(
                f,
                "input coordinates are not deduplicated: {points} points, {unique} unique"
            ),
            CompileError::CoordOutOfRange { axis, value, reach } => write!(
                f,
                "input coordinate {axis} = {value} is outside [{}, {}] (kernel reach {reach})",
                Coord::MIN_COMPONENT + reach,
                Coord::MAX_COMPONENT - reach
            ),
        }
    }
}

impl std::error::Error for CompileError {}

/// Validates an input frame against `network` before any map is built:
/// the feature width, every coordinate component against the 16-bit key
/// range shrunk by the network's kernel reach, and coordinate
/// deduplication (one hash pass). [`crate::Engine::compile`],
/// [`crate::Engine::infer_stream`] and the training step all run this
/// one check.
///
/// # Errors
///
/// [`CompileError::ChannelMismatch`], [`CompileError::CoordOutOfRange`]
/// (checked before dedup, whose keys it guards) or
/// [`CompileError::DuplicateCoords`].
pub fn check_frame(network: &Network, input: &SparseTensor) -> Result<(), CompileError> {
    if input.channels() != network.in_channels() {
        return Err(CompileError::ChannelMismatch {
            expected: network.in_channels(),
            got: input.channels(),
        });
    }
    let reach = network.offset_reach();
    let spatial = (Coord::MIN_COMPONENT + reach)..=(Coord::MAX_COMPONENT - reach);
    let batch = Coord::MIN_COMPONENT..=Coord::MAX_COMPONENT;
    for c in input.coords() {
        if !batch.contains(&c.batch) {
            return Err(CompileError::CoordOutOfRange {
                axis: "batch",
                value: c.batch,
                reach: 0,
            });
        }
        let spatial_axes = [("x", c.x), ("y", c.y), ("z", c.z)];
        if let Some(&(axis, value)) = spatial_axes.iter().find(|(_, v)| !spatial.contains(v)) {
            return Err(CompileError::CoordOutOfRange { axis, value, reach });
        }
    }
    let unique = ts_kernelmap::unique_coords(input.coords()).len();
    if unique != input.num_points() {
        return Err(CompileError::DuplicateCoords {
            points: input.num_points(),
            unique,
        });
    }
    Ok(())
}

/// Prepare-cache hit/miss totals for a [`Session`], as returned by
/// [`Session::prepare_cache_counters`].
///
/// Increments saturate at `u64::MAX` rather than wrapping, so the
/// counters stay ordered ("more work happened") even on pathological
/// long-running sessions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PrepareCacheCounters {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to run dataflow preparation.
    pub misses: u64,
}

/// Saturating increment so the counters never wrap to zero.
fn saturating_inc(counter: &AtomicU64) {
    let _ = counter.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
        Some(v.saturating_add(1))
    });
}

impl PrepareCacheCounters {
    /// Total lookups observed.
    pub fn total(&self) -> u64 {
        self.hits.saturating_add(self.misses)
    }

    /// Fraction of lookups served from the cache (0 when none yet).
    pub fn hit_rate(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Identity of a layer *group*: layers with the same key share kernel
/// maps (Figure 12 of the paper), so they are forced onto the same
/// dataflow and their mapping cost is paid once.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct GroupKey {
    /// Finer (smaller) tensor stride touched by the layer.
    pub lo_stride: i32,
    /// Coarser (larger) tensor stride touched by the layer.
    pub hi_stride: i32,
    /// Kernel size per axis.
    pub kernel_size: u32,
}

/// A prebuilt stride-1 submanifold map injected into session
/// compilation (the temporal-reuse path): streaming callers maintain the
/// map incrementally across frames and compile each frame's session
/// around it instead of rebuilding from scratch.
///
/// `stats` carries the hash work actually performed to produce the map
/// for *this* frame (a delta-sized patch, or a full rebuild), so the
/// simulated mapping cost prices the incremental path honestly.
#[derive(Debug, Clone)]
pub struct SubmanifoldReuse {
    /// Kernel size the map was built for; only the `(1, 1, kernel_size)`
    /// group is eligible.
    pub kernel_size: u32,
    /// The maintained map. Must cover exactly the session's (deduplicated)
    /// input coordinates, in order.
    pub map: Arc<KernelMap>,
    /// Hash build/query work spent bringing the map to this frame.
    pub stats: MapStats,
}

/// Workload-statistics summary of one layer group, as consumed by the
/// content-addressed schedule cache (`ts-cache`).
///
/// The shape part ([`GroupKey`] plus layer census) identifies the
/// group *structurally* — two sessions whose groups agree here can
/// exchange tuned schedules at all. The map statistics (`n_in`,
/// `n_out`, `total_pairs`, `effective_macs`) summarise the input
/// distribution the group actually saw: the MAC census that decides
/// whether a cached schedule still prices this workload faithfully or
/// whether the group's dataflow choice must be re-tuned.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct GroupSignature {
    /// Group identity (strides + kernel size).
    pub key: GroupKey,
    /// Number of conv layers bound to the group.
    pub layer_count: usize,
    /// Input points of the shared kernel map.
    pub n_in: usize,
    /// Output points of the shared kernel map.
    pub n_out: usize,
    /// Total (input, output) pairs — the map's neighbor census.
    pub total_pairs: u64,
    /// Effective MACs summed over every conv layer in the group
    /// (`total_pairs x c_in x c_out` per layer): the group's share of
    /// the network's useful compute on this input distribution.
    pub effective_macs: u64,
}

/// One layer group: its shared map (built once) and instrumentation.
#[derive(Debug, Clone)]
pub struct GroupInfo {
    /// Group identity.
    pub key: GroupKey,
    /// The shared kernel map, oriented fine -> coarse.
    pub map: Arc<KernelMap>,
    /// Transposed map (built lazily when a transposed-conv layer or a
    /// dgrad pass needs it).
    pub map_t: Arc<KernelMap>,
    /// Hash build/query statistics of the base map construction.
    pub build_stats: MapStats,
    /// Number of conv layers in this group.
    pub layer_count: usize,
}

/// Plan of one conv layer inside a compiled session.
#[derive(Debug, Clone, Copy)]
struct ConvPlan {
    node: usize,
    group: usize,
    /// Layer consumes the transposed orientation of the group map.
    transposed: bool,
    c_in: usize,
    c_out: usize,
}

/// Plan of one elementwise layer.
#[derive(Debug, Clone, Copy)]
struct ElemPlan {
    node: usize,
    points: usize,
    channels: usize,
    /// Number of operand tensors (1 for BN/ReLU, 2 for Add/Concat).
    operands: usize,
}

#[derive(Debug, Clone)]
enum LayerPlan {
    Conv(ConvPlan),
    Elem(ElemPlan),
}

/// Per-group dataflow configuration table.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GroupConfigs {
    /// Fallback configuration for unlisted groups.
    pub default: DataflowConfig,
    /// Overrides by group index.
    pub per_group: HashMap<usize, DataflowConfig>,
}

impl GroupConfigs {
    /// All groups run `cfg`.
    pub fn uniform(cfg: DataflowConfig) -> Self {
        Self {
            default: cfg,
            per_group: HashMap::new(),
        }
    }

    /// Resolves the configuration for group `g`.
    pub fn for_group(&self, g: usize) -> DataflowConfig {
        self.per_group.get(&g).copied().unwrap_or(self.default)
    }

    /// Sets an override for group `g`.
    pub fn set(&mut self, g: usize, cfg: DataflowConfig) {
        self.per_group.insert(g, cfg);
    }
}

/// Forward/dgrad/wgrad configuration tables for training (the binding
/// schemes of Figure 13 constrain how these three relate).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrainConfigs {
    /// Forward kernels.
    pub fwd: GroupConfigs,
    /// Input-gradient kernels.
    pub dgrad: GroupConfigs,
    /// Weight-gradient kernels.
    pub wgrad: GroupConfigs,
}

impl TrainConfigs {
    /// All three kernel families bound to one configuration.
    pub fn bound(cfg: DataflowConfig) -> Self {
        Self {
            fwd: GroupConfigs::uniform(cfg),
            dgrad: GroupConfigs::uniform(cfg),
            wgrad: GroupConfigs::uniform(cfg),
        }
    }
}

/// A network compiled against a concrete input coordinate set: every
/// kernel map is built once, layers are assigned to groups, and
/// inference/training latency can be simulated cheaply for any per-group
/// dataflow assignment (the autotuner calls this in its inner loop).
///
/// `Session` is `Sync`: the prepare cache sits behind an `RwLock`, so
/// the autotuner can evaluate candidate configurations from multiple
/// threads against one shared session.
#[derive(Debug)]
pub struct Session {
    network: Network,
    groups: Vec<GroupInfo>,
    layers: Vec<LayerPlan>,
    group_used_forward: Vec<bool>,
    group_used_transposed: Vec<bool>,
    /// Coordinates of the network's output node, in feature-row order.
    output_coords: Arc<Vec<Coord>>,
    prepare_cache: RwLock<PrepareCache>,
    prepare_hits: AtomicU64,
    prepare_misses: AtomicU64,
}

impl Clone for Session {
    fn clone(&self) -> Self {
        Session {
            network: self.network.clone(),
            groups: self.groups.clone(),
            layers: self.layers.clone(),
            group_used_forward: self.group_used_forward.clone(),
            group_used_transposed: self.group_used_transposed.clone(),
            output_coords: Arc::clone(&self.output_coords),
            prepare_cache: RwLock::new(self.prepare_cache.read().clone()),
            prepare_hits: AtomicU64::new(self.prepare_hits.load(Ordering::Relaxed)),
            prepare_misses: AtomicU64::new(self.prepare_misses.load(Ordering::Relaxed)),
        }
    }
}

/// Cache of prepared plans keyed by `(group, transposed, config)`.
type PrepareCache = HashMap<(usize, bool, DataflowConfig), Arc<(Prepared, KernelTrace)>>;

/// Per-group latency decomposition of one pass (inference or training):
/// the total is `residual_us + group_us.iter().sum()` where the residual
/// covers the configuration-independent elementwise layers and each
/// `group_us[g]` covers group `g`'s one-time mapping work plus all of
/// its conv layers under the configuration it was computed with.
///
/// The decomposition is sound because the cost model prices every
/// kernel independently of trace order; the recomposed total matches
/// the corresponding `simulate_*` report up to floating-point summation
/// order.
#[derive(Debug, Clone, PartialEq)]
pub struct LatencyBreakdown {
    /// Configuration-independent cost (elementwise layers), us.
    pub residual_us: f64,
    /// Per-group cost (mapping + conv layers), us, indexed by group.
    pub group_us: Vec<f64>,
}

impl LatencyBreakdown {
    /// Recomposed end-to-end latency: residual plus the group terms in
    /// group order (a fixed summation order, so equal inputs give
    /// bitwise-equal totals).
    pub fn total_us(&self) -> f64 {
        self.residual_us + self.group_us.iter().sum::<f64>()
    }
}

impl Session {
    /// Compiles `network` against `input_coords` (stride-1 coordinates,
    /// deduplicated or not — they are uniqued here).
    ///
    /// # Panics
    ///
    /// Panics if a transposed convolution has no cached coordinates at
    /// its target stride (i.e. no matching encoder downsample); use
    /// [`Session::try_new`] for a recoverable error.
    pub fn new(network: &Network, input_coords: &[Coord]) -> Self {
        Self::try_new(network, input_coords).expect("network compiles against these coordinates")
    }

    /// Fallible variant of [`Session::new`].
    ///
    /// # Errors
    ///
    /// Returns [`CompileError::TransposedWithoutEncoder`] when a
    /// transposed convolution targets a stride level that was never
    /// produced by an encoder layer.
    pub fn try_new(network: &Network, input_coords: &[Coord]) -> Result<Self, CompileError> {
        Self::try_new_with_reuse(network, input_coords, None)
    }

    /// [`Session::try_new`] with an optional prebuilt stride-1
    /// submanifold map ([`SubmanifoldReuse`]): the matching group adopts
    /// the supplied map and charges the supplied (delta-sized) build
    /// stats instead of rebuilding. All other groups build normally.
    ///
    /// # Panics
    ///
    /// Panics if the reused map does not cover exactly the deduplicated
    /// input coordinates (`map.n_out() != coords.len()`) — a mismatched
    /// map would silently corrupt every downstream layer.
    pub fn try_new_with_reuse(
        network: &Network,
        input_coords: &[Coord],
        reuse: Option<&SubmanifoldReuse>,
    ) -> Result<Self, CompileError> {
        let input = ts_kernelmap::unique_coords(input_coords);
        let mut coords_at: HashMap<usize, Arc<Vec<Coord>>> = HashMap::new();
        let mut stride_cache: HashMap<i32, Arc<Vec<Coord>>> = HashMap::new();
        let input = Arc::new(input);
        coords_at.insert(0, Arc::clone(&input));
        stride_cache.insert(1, input);

        let mut groups: Vec<GroupInfo> = Vec::new();
        let mut group_index: HashMap<GroupKey, usize> = HashMap::new();
        let mut layers = Vec::new();

        for (i, node) in network.nodes().iter().enumerate().skip(1) {
            let in_coords = Arc::clone(&coords_at[&node.input]);
            match node.op {
                Op::Input => unreachable!("input node is always index 0"),
                Op::Conv(spec) => {
                    let in_stride = network.stride(node.input);
                    let (key, transposed) = group_key_for(&spec, in_stride);
                    let gid = match group_index.get(&key) {
                        Some(&g) => g,
                        None => {
                            let g = build_group(
                                key,
                                &spec,
                                transposed,
                                &in_coords,
                                &stride_cache,
                                reuse,
                            )
                            .ok_or_else(|| {
                                CompileError::TransposedWithoutEncoder {
                                    layer: node.name.clone(),
                                    missing_stride: key.lo_stride,
                                }
                            })?;
                            groups.push(g);
                            group_index.insert(key, groups.len() - 1);
                            groups.len() - 1
                        }
                    };
                    groups[gid].layer_count += 1;

                    // Output coordinates.
                    let out_stride = network.stride(i);
                    let out_coords: Arc<Vec<Coord>> = if spec.transposed {
                        Arc::clone(stride_cache.get(&out_stride).ok_or_else(|| {
                            CompileError::TransposedWithoutEncoder {
                                layer: node.name.clone(),
                                missing_stride: out_stride,
                            }
                        })?)
                    } else if spec.stride > 1 {
                        // The strided builder produced the coarse coords;
                        // recover them from the map orientation. They were
                        // stored in the group build below.
                        Arc::new(coarse_coords_of(&groups[gid], &in_coords))
                    } else {
                        Arc::clone(&in_coords)
                    };
                    stride_cache.insert(out_stride, Arc::clone(&out_coords));
                    coords_at.insert(i, out_coords);

                    layers.push(LayerPlan::Conv(ConvPlan {
                        node: i,
                        group: gid,
                        transposed: spec.transposed,
                        c_in: spec.c_in,
                        c_out: spec.c_out,
                    }));
                }
                Op::BatchNorm | Op::ReLU => {
                    layers.push(LayerPlan::Elem(ElemPlan {
                        node: i,
                        points: in_coords.len(),
                        channels: network.out_channels(i),
                        operands: 1,
                    }));
                    coords_at.insert(i, in_coords);
                }
                Op::Add { .. } | Op::Concat { .. } => {
                    layers.push(LayerPlan::Elem(ElemPlan {
                        node: i,
                        points: in_coords.len(),
                        channels: network.out_channels(i),
                        operands: 2,
                    }));
                    coords_at.insert(i, in_coords);
                }
            }
        }

        let mut group_used_forward = vec![false; groups.len()];
        let mut group_used_transposed = vec![false; groups.len()];
        for l in &layers {
            if let LayerPlan::Conv(c) = l {
                if c.transposed {
                    group_used_transposed[c.group] = true;
                } else {
                    group_used_forward[c.group] = true;
                }
            }
        }

        let output_coords = coords_at
            .remove(&network.output())
            .expect("every node's coords are known");
        Ok(Session {
            network: network.clone(),
            groups,
            layers,
            group_used_forward,
            group_used_transposed,
            output_coords,
            prepare_cache: RwLock::new(HashMap::new()),
            prepare_hits: AtomicU64::new(0),
            prepare_misses: AtomicU64::new(0),
        })
    }

    /// Prepare-cache counters since construction (or since the values
    /// captured at [`Clone`] time).
    ///
    /// The same totals are published to the `ts-trace` counter registry
    /// as `core.prepare_cache.hit` / `core.prepare_cache.miss` whenever
    /// a tracer is installed on the preparing thread.
    pub fn prepare_cache_counters(&self) -> PrepareCacheCounters {
        PrepareCacheCounters {
            hits: self.prepare_hits.load(Ordering::Relaxed),
            misses: self.prepare_misses.load(Ordering::Relaxed),
        }
    }

    /// Prepare-cache statistics as `(hits, misses)` since construction.
    #[deprecated(
        since = "0.4.0",
        note = "use `prepare_cache_counters()`, which returns a typed struct"
    )]
    pub fn prepare_cache_stats(&self) -> (u64, u64) {
        let c = self.prepare_cache_counters();
        (c.hits, c.misses)
    }

    /// The compiled network.
    pub fn network(&self) -> &Network {
        &self.network
    }

    /// The layer groups in first-use order.
    pub fn groups(&self) -> &[GroupInfo] {
        &self.groups
    }

    /// Per-group workload signatures, in group order: the shapes and
    /// map statistics (`n_out`, pair counts, MAC census) the schedule
    /// cache keys tuned schedules by. Deterministic for a given
    /// (network, input coordinates) pair.
    pub fn group_signatures(&self) -> Vec<GroupSignature> {
        self.groups
            .iter()
            .enumerate()
            .map(|(gid, g)| {
                let mut effective_macs = 0u64;
                for l in &self.layers {
                    if let LayerPlan::Conv(c) = l {
                        if c.group == gid {
                            // total_pairs is invariant under transposition,
                            // so both orientations contribute identically.
                            effective_macs = effective_macs
                                .saturating_add(g.map.total_pairs() * (c.c_in * c.c_out) as u64);
                        }
                    }
                }
                GroupSignature {
                    key: g.key,
                    layer_count: g.layer_count,
                    n_in: g.map.n_in(),
                    n_out: g.map.n_out(),
                    total_pairs: g.map.total_pairs(),
                    effective_macs,
                }
            })
            .collect()
    }

    /// Number of conv layers.
    pub fn conv_layer_count(&self) -> usize {
        self.layers
            .iter()
            .filter(|l| matches!(l, LayerPlan::Conv(_)))
            .count()
    }

    /// Coordinates of the output node, in the row order the functional
    /// walk produces its features.
    pub(crate) fn output_coords(&self) -> &[Coord] {
        &self.output_coords
    }

    /// The kernel map a conv node consumes (in its own orientation) and
    /// its group index. Used by the functional runner.
    pub fn map_for_node(&self, node: usize) -> Option<(Arc<KernelMap>, usize, bool)> {
        self.layers.iter().find_map(|l| match l {
            LayerPlan::Conv(c) if c.node == node => {
                let g = &self.groups[c.group];
                let map = if c.transposed {
                    Arc::clone(&g.map_t)
                } else {
                    Arc::clone(&g.map)
                };
                Some((map, c.group, c.transposed))
            }
            _ => None,
        })
    }

    /// Both orientations of a conv node's map: `(layer_map, grad_map,
    /// group)`, where `grad_map` is the transpose used by dgrad.
    pub fn conv_maps(&self, node: usize) -> Option<(Arc<KernelMap>, Arc<KernelMap>, usize)> {
        self.layers.iter().find_map(|l| match l {
            LayerPlan::Conv(c) if c.node == node => {
                let g = &self.groups[c.group];
                let (fwd, bwd) = if c.transposed {
                    (Arc::clone(&g.map_t), Arc::clone(&g.map))
                } else {
                    (Arc::clone(&g.map), Arc::clone(&g.map_t))
                };
                Some((fwd, bwd, c.group))
            }
            _ => None,
        })
    }

    fn prepared_for(
        &self,
        group: usize,
        transposed: bool,
        cfg: &DataflowConfig,
        ctx: &ExecCtx,
    ) -> Arc<(Prepared, KernelTrace)> {
        let key = (group, transposed, *cfg);
        if let Some(hit) = self.prepare_cache.read().get(&key) {
            saturating_inc(&self.prepare_hits);
            ts_trace::counter_add("core.prepare_cache.hit", 1);
            return Arc::clone(hit);
        }
        saturating_inc(&self.prepare_misses);
        ts_trace::counter_add("core.prepare_cache.miss", 1);
        let g = &self.groups[group];
        let map = if transposed { &g.map_t } else { &g.map };
        let prepared = prepare(map, cfg, ctx);
        let trace = prepared.trace.clone();
        let arc = Arc::new((prepared, trace));
        // Racing preparers compute identical plans; keep the first
        // insert so every caller sees the same Arc.
        Arc::clone(self.prepare_cache.write().entry(key).or_insert(arc))
    }

    /// Charges the base map-construction kernels of group `g`.
    fn base_map_cost(&self, g: &GroupInfo, ctx: &ExecCtx, trace: &mut KernelTrace) {
        let s = g.build_stats;
        let hash = KernelDesc::mapping("map:hash-build", s.inserts * 48, s.inserts * 32);
        ctx.record(trace, hash);
        let query = KernelDesc::mapping("map:hash-query", s.queries * 64, s.queries * 32);
        ctx.record(trace, query);
        let kvol = g.map.kernel_volume() as u64;
        let n_out = g.map.n_out() as u64;
        let mat = KernelDesc::mapping(
            "map:materialize",
            n_out * kvol * 4,
            n_out * kvol * 4 + s.pairs * 8,
        );
        ctx.record(trace, mat);
    }

    /// Charges the map transposition kernel (once per group that needs
    /// the transposed orientation).
    fn transpose_cost(&self, g: &GroupInfo, ctx: &ExecCtx, trace: &mut KernelTrace) {
        let pairs = g.map.total_pairs();
        let t = KernelDesc::mapping("map:transpose", pairs * 8, pairs * 16);
        ctx.record(trace, t);
    }

    /// Simulates one inference pass with per-group dataflows.
    pub fn simulate_inference(&self, cfgs: &GroupConfigs, ctx: &ExecCtx) -> RunReport {
        let mut span = ts_trace::span(ts_trace::Subsystem::Core, "simulate_inference");
        let mut trace = KernelTrace::new();
        let mut timings = Vec::new();

        // Per-group one-time mapping cost.
        for (gid, g) in self.groups.iter().enumerate() {
            let (fwd_used, t_used) = (
                self.group_used_forward[gid],
                self.group_used_transposed[gid],
            );
            if !fwd_used && !t_used {
                continue;
            }
            let before = trace.total_us();
            self.base_map_cost(g, ctx, &mut trace);
            if t_used {
                self.transpose_cost(g, ctx, &mut trace);
            }
            let cfg = cfgs.for_group(gid);
            for (transposed, used) in [(false, fwd_used), (true, t_used)] {
                if used {
                    let prep = self.prepared_for(gid, transposed, &cfg, ctx);
                    trace.merge(prep.1.clone());
                }
            }
            timings.push(LayerTiming {
                name: format!("group[{gid}] mapping"),
                node: usize::MAX,
                group: Some(gid),
                time_us: trace.total_us() - before,
            });
        }

        // Per-layer compute.
        for l in &self.layers {
            match l {
                LayerPlan::Conv(c) => {
                    let cfg = cfgs.for_group(c.group);
                    let g = &self.groups[c.group];
                    let map = if c.transposed { &g.map_t } else { &g.map };
                    let prep = self.prepared_for(c.group, c.transposed, &cfg, ctx);
                    let t = forward_trace(c.c_in, c.c_out, map, &prep.0, &cfg, ctx);
                    timings.push(LayerTiming {
                        name: self.network.nodes()[c.node].name.clone(),
                        node: c.node,
                        group: Some(c.group),
                        time_us: t.total_us(),
                    });
                    trace.merge(t);
                }
                LayerPlan::Elem(e) => {
                    let t = self.elementwise_cost(e, ctx, &mut trace);
                    timings.push(LayerTiming {
                        name: self.network.nodes()[e.node].name.clone(),
                        node: e.node,
                        group: None,
                        time_us: t,
                    });
                }
            }
        }

        if span.active() {
            // Virtual-lane output follows the sim-kernel filter: the
            // tuner suppresses it (thousands of candidate simulations),
            // deployment-path simulations keep it.
            if ts_trace::current()
                .map(|t| t.sim_kernels())
                .unwrap_or(false)
            {
                self.emit_group_contributions(&timings);
                trace.emit_trace_spans(&ctx.cost);
            }
            span.arg("groups", self.groups.len());
            span.arg("layers", timings.len());
            span.arg("sim_total_us", trace.total_us());
        }
        RunReport::new(trace, timings)
    }

    /// Emits one simulated span per group on the `groups` lane: the
    /// group's total contribution to the simulated latency (mapping +
    /// every layer bound to it), plus a `residual` span for ungrouped
    /// (elementwise) layers. Only called when a tracer is installed.
    fn emit_group_contributions(&self, timings: &[LayerTiming]) {
        let mut per_group = vec![(0.0f64, 0u64); self.groups.len()];
        let mut residual = 0.0f64;
        for t in timings {
            match t.group {
                Some(g) if g < per_group.len() => {
                    per_group[g].0 += t.time_us;
                    per_group[g].1 += 1;
                }
                _ => residual += t.time_us,
            }
        }
        for (gid, &(us, layers)) in per_group.iter().enumerate() {
            if layers == 0 {
                continue;
            }
            ts_trace::sim_span(
                ts_trace::Subsystem::Core,
                "groups",
                &format!("group[{gid}]"),
                us,
                vec![
                    ("group".to_string(), ts_trace::ArgValue::U64(gid as u64)),
                    ("timings".to_string(), ts_trace::ArgValue::U64(layers)),
                ],
            );
        }
        if residual > 0.0 {
            ts_trace::sim_span(
                ts_trace::Subsystem::Core,
                "groups",
                "residual(elementwise)",
                residual,
                vec![],
            );
        }
    }

    fn elementwise_cost(&self, e: &ElemPlan, ctx: &ExecCtx, trace: &mut KernelTrace) -> f64 {
        let b = ctx.elem_bytes();
        let bytes = (e.points * e.channels) as u64 * b;
        let k = KernelDesc::memory(
            self.network.nodes()[e.node].name.clone(),
            bytes * e.operands as u64,
            bytes,
        )
        .with_class(KernelClass::Elementwise);
        ctx.record(trace, k)
    }

    /// Simulates one training iteration (forward + dgrad + wgrad) with
    /// potentially decoupled per-kernel-family configurations.
    ///
    /// Mapping preparations are shared where configurations coincide:
    /// forward needs its own; dgrad and wgrad share one when their
    /// configurations are equal (the map-sharing argument behind the
    /// paper's dgrad-wgrad binding scheme).
    pub fn simulate_training(&self, cfgs: &TrainConfigs, ctx: &ExecCtx) -> RunReport {
        let mut span = ts_trace::span(ts_trace::Subsystem::Core, "simulate_training");
        // Forward pass (includes base mapping + fwd prepares).
        let fwd_report = self.simulate_inference(&cfgs.fwd, ctx);
        let mut trace = fwd_report.trace().clone();
        let mut timings = fwd_report.timings().to_vec();
        // The nested simulate_inference span already emitted the forward
        // kernels and group contributions; only the entries appended
        // below (backward prepares + backward layers) are new.
        let fwd_entries = trace.entries().len();

        // Backward mapping preparation.
        for (gid, g) in self.groups.iter().enumerate() {
            let used: Vec<&ConvPlan> = self
                .layers
                .iter()
                .filter_map(|l| match l {
                    LayerPlan::Conv(c) if c.group == gid => Some(c),
                    _ => None,
                })
                .collect();
            if used.is_empty() {
                continue;
            }
            let before = trace.total_us();
            let d_cfg = cfgs.dgrad.for_group(gid);
            let w_cfg = cfgs.wgrad.for_group(gid);
            // dgrad runs on the transposed map.
            if !self.group_used_transposed[gid] {
                self.transpose_cost(g, ctx, &mut trace);
            }
            let d_prep = self.prepared_for(gid, true, &d_cfg, ctx);
            trace.merge(d_prep.1.clone());
            // wgrad shares dgrad's structures when the configs match;
            // otherwise it prepares its own over the forward orientation
            // AND pays a structure-duplication pass: the paper warns that
            // generating map structures for an extra dataflow costs on
            // the order of extra convolution layers per group
            // (Section 4.2), which is exactly what the binding schemes
            // exist to avoid.
            if w_cfg != d_cfg && w_cfg != cfgs.fwd.for_group(gid) {
                let w_prep = self.prepared_for(gid, false, &w_cfg, ctx);
                trace.merge(w_prep.1.clone());
                let s = g.build_stats;
                let dup =
                    KernelDesc::mapping("map:wgrad-structures", s.queries * 32, s.queries * 16);
                ctx.record(&mut trace, dup);
            }
            timings.push(LayerTiming {
                name: format!("group[{gid}] bwd mapping"),
                node: usize::MAX,
                group: Some(gid),
                time_us: trace.total_us() - before,
            });
        }

        // Backward per-layer kernels, in reverse order.
        for l in self.layers.iter().rev() {
            match l {
                LayerPlan::Conv(c) => {
                    let g = &self.groups[c.group];
                    let d_cfg = cfgs.dgrad.for_group(c.group);
                    let w_cfg = cfgs.wgrad.for_group(c.group);
                    // dgrad: convolution in the opposite orientation.
                    let (d_map, d_transposed) = if c.transposed {
                        (&g.map, false)
                    } else {
                        (&g.map_t, true)
                    };
                    let d_prep = self.prepared_for(c.group, d_transposed, &d_cfg, ctx);
                    let dt = forward_trace(c.c_out, c.c_in, d_map, &d_prep.0, &d_cfg, ctx);
                    // wgrad over the layer's own orientation.
                    let w_map = if c.transposed { &g.map_t } else { &g.map };
                    let wt = wgrad_trace(c.c_in, c.c_out, w_map, &w_cfg, ctx);
                    // Separate dgrad/wgrad entries so per-phase step
                    // attribution (ts-train) can bucket them by suffix.
                    timings.push(LayerTiming {
                        name: format!("{}:dgrad", self.network.nodes()[c.node].name),
                        node: c.node,
                        group: Some(c.group),
                        time_us: dt.total_us(),
                    });
                    timings.push(LayerTiming {
                        name: format!("{}:wgrad", self.network.nodes()[c.node].name),
                        node: c.node,
                        group: Some(c.group),
                        time_us: wt.total_us(),
                    });
                    trace.merge(dt);
                    trace.merge(wt);
                }
                LayerPlan::Elem(e) => {
                    let t = self.elementwise_cost(e, ctx, &mut trace);
                    timings.push(LayerTiming {
                        name: format!("{}:bwd", self.network.nodes()[e.node].name),
                        node: e.node,
                        group: None,
                        time_us: t,
                    });
                }
            }
        }

        if span.active() {
            if ts_trace::current()
                .map(|t| t.sim_kernels())
                .unwrap_or(false)
            {
                let bwd: KernelTrace = trace.entries()[fwd_entries..].iter().cloned().collect();
                bwd.emit_trace_spans(&ctx.cost);
            }
            span.arg("fwd_us", fwd_report.total_us());
            span.arg("bwd_us", trace.total_us() - fwd_report.total_us());
            span.arg("sim_total_us", trace.total_us());
        }
        RunReport::new(trace, timings)
    }

    // ------------------------------------------------------------------
    // Decomposed simulation API (used by the incremental autotuner).
    //
    // These methods record exactly the kernels the corresponding
    // `simulate_*` call records, partitioned by group. The cost model
    // prices each kernel independently of trace state, so the partition
    // is exact up to floating-point summation order.
    // ------------------------------------------------------------------

    /// Configuration-independent inference cost: the elementwise layers
    /// (BN/ReLU/Add/Concat), which no dataflow choice affects.
    pub fn inference_residual_us(&self, ctx: &ExecCtx) -> f64 {
        let mut trace = KernelTrace::new();
        for l in &self.layers {
            if let LayerPlan::Elem(e) = l {
                self.elementwise_cost(e, ctx, &mut trace);
            }
        }
        trace.total_us()
    }

    /// Group `gid`'s inference contribution under `cfg`: the one-time
    /// mapping work (base build, transpose if needed, dataflow prepare)
    /// plus every conv layer of the group. Returns 0 for groups no conv
    /// layer uses. Depends only on (`gid`, `cfg`), never on the other
    /// groups' configurations.
    pub fn group_inference_us(&self, gid: usize, cfg: &DataflowConfig, ctx: &ExecCtx) -> f64 {
        let (fwd_used, t_used) = (
            self.group_used_forward[gid],
            self.group_used_transposed[gid],
        );
        if !fwd_used && !t_used {
            return 0.0;
        }
        let g = &self.groups[gid];
        let mut trace = KernelTrace::new();
        self.base_map_cost(g, ctx, &mut trace);
        if t_used {
            self.transpose_cost(g, ctx, &mut trace);
        }
        for (transposed, used) in [(false, fwd_used), (true, t_used)] {
            if used {
                let prep = self.prepared_for(gid, transposed, cfg, ctx);
                trace.merge(prep.1.clone());
            }
        }
        for l in &self.layers {
            if let LayerPlan::Conv(c) = l {
                if c.group != gid {
                    continue;
                }
                let map = if c.transposed { &g.map_t } else { &g.map };
                let prep = self.prepared_for(gid, c.transposed, cfg, ctx);
                trace.merge(forward_trace(c.c_in, c.c_out, map, &prep.0, cfg, ctx));
            }
        }
        trace.total_us()
    }

    /// Full per-group decomposition of one inference pass;
    /// `breakdown.total_us()` matches
    /// [`Session::simulate_inference`]`.total_us()` up to summation
    /// order.
    pub fn inference_breakdown(&self, cfgs: &GroupConfigs, ctx: &ExecCtx) -> LatencyBreakdown {
        LatencyBreakdown {
            residual_us: self.inference_residual_us(ctx),
            group_us: (0..self.groups.len())
                .map(|g| self.group_inference_us(g, &cfgs.for_group(g), ctx))
                .collect(),
        }
    }

    /// Configuration-independent training cost: the elementwise layers,
    /// charged once forward and once backward as in
    /// [`Session::simulate_training`].
    pub fn training_residual_us(&self, ctx: &ExecCtx) -> f64 {
        let mut trace = KernelTrace::new();
        for l in &self.layers {
            if let LayerPlan::Elem(e) = l {
                self.elementwise_cost(e, ctx, &mut trace);
            }
        }
        for l in self.layers.iter().rev() {
            if let LayerPlan::Elem(e) = l {
                self.elementwise_cost(e, ctx, &mut trace);
            }
        }
        trace.total_us()
    }

    /// Group `gid`'s training contribution under per-family configs:
    /// the forward contribution plus backward mapping preparation and
    /// the dgrad/wgrad kernels of every conv layer in the group.
    /// Depends only on (`gid`, `fwd_cfg`, `d_cfg`, `w_cfg`).
    pub fn group_training_us(
        &self,
        gid: usize,
        fwd_cfg: &DataflowConfig,
        d_cfg: &DataflowConfig,
        w_cfg: &DataflowConfig,
        ctx: &ExecCtx,
    ) -> f64 {
        if !self.group_used_forward[gid] && !self.group_used_transposed[gid] {
            return 0.0;
        }
        let fwd_us = self.group_inference_us(gid, fwd_cfg, ctx);
        let g = &self.groups[gid];
        let mut trace = KernelTrace::new();

        // Backward mapping preparation (mirrors simulate_training).
        if !self.group_used_transposed[gid] {
            self.transpose_cost(g, ctx, &mut trace);
        }
        let d_prep = self.prepared_for(gid, true, d_cfg, ctx);
        trace.merge(d_prep.1.clone());
        if w_cfg != d_cfg && w_cfg != fwd_cfg {
            let w_prep = self.prepared_for(gid, false, w_cfg, ctx);
            trace.merge(w_prep.1.clone());
            let s = g.build_stats;
            let dup = KernelDesc::mapping("map:wgrad-structures", s.queries * 32, s.queries * 16);
            ctx.record(&mut trace, dup);
        }

        // Backward per-layer kernels.
        for l in self.layers.iter().rev() {
            if let LayerPlan::Conv(c) = l {
                if c.group != gid {
                    continue;
                }
                let (d_map, d_transposed) = if c.transposed {
                    (&g.map, false)
                } else {
                    (&g.map_t, true)
                };
                let d_prep = self.prepared_for(gid, d_transposed, d_cfg, ctx);
                trace.merge(forward_trace(c.c_out, c.c_in, d_map, &d_prep.0, d_cfg, ctx));
                let w_map = if c.transposed { &g.map_t } else { &g.map };
                trace.merge(wgrad_trace(c.c_in, c.c_out, w_map, w_cfg, ctx));
            }
        }
        fwd_us + trace.total_us()
    }

    /// Full per-group decomposition of one training iteration;
    /// `breakdown.total_us()` matches
    /// [`Session::simulate_training`]`.total_us()` up to summation
    /// order.
    pub fn training_breakdown(&self, cfgs: &TrainConfigs, ctx: &ExecCtx) -> LatencyBreakdown {
        LatencyBreakdown {
            residual_us: self.training_residual_us(ctx),
            group_us: (0..self.groups.len())
                .map(|g| {
                    self.group_training_us(
                        g,
                        &cfgs.fwd.for_group(g),
                        &cfgs.dgrad.for_group(g),
                        &cfgs.wgrad.for_group(g),
                        ctx,
                    )
                })
                .collect(),
        }
    }
}

/// Computes the group key of a conv layer at `in_stride`.
fn group_key_for(spec: &ConvSpec, in_stride: i32) -> (GroupKey, bool) {
    if spec.transposed {
        let out = in_stride / spec.stride;
        (
            GroupKey {
                lo_stride: out,
                hi_stride: in_stride,
                kernel_size: spec.kernel_size,
            },
            true,
        )
    } else if spec.stride > 1 {
        (
            GroupKey {
                lo_stride: in_stride,
                hi_stride: in_stride * spec.stride,
                kernel_size: spec.kernel_size,
            },
            false,
        )
    } else {
        (
            GroupKey {
                lo_stride: in_stride,
                hi_stride: in_stride,
                kernel_size: spec.kernel_size,
            },
            false,
        )
    }
}

fn build_group(
    key: GroupKey,
    spec: &ConvSpec,
    transposed: bool,
    in_coords: &Arc<Vec<Coord>>,
    stride_cache: &HashMap<i32, Arc<Vec<Coord>>>,
    reuse: Option<&SubmanifoldReuse>,
) -> Option<GroupInfo> {
    let offsets = KernelOffsets::cube(spec.kernel_size);
    if key.lo_stride == key.hi_stride {
        // Submanifold. The stride-1 group (always built from the input
        // coordinates) may adopt a caller-maintained incremental map.
        if let Some(r) = reuse {
            if key.lo_stride == 1 && key.kernel_size == r.kernel_size {
                assert_eq!(
                    r.map.n_out(),
                    in_coords.len(),
                    "reused submanifold map must cover the input coordinates"
                );
                let map_t = Arc::new(r.map.transposed());
                return Some(GroupInfo {
                    key,
                    map: Arc::clone(&r.map),
                    map_t,
                    build_stats: r.stats,
                    layer_count: 0,
                });
            }
        }
        let (map, stats) = build_submanifold_map_with_stats(in_coords, &offsets);
        let map = Arc::new(map);
        let map_t = Arc::new(map.transposed());
        Some(GroupInfo {
            key,
            map,
            map_t,
            build_stats: stats,
            layer_count: 0,
        })
    } else {
        // Strided: always build fine -> coarse. For a transposed first
        // use, the fine coords come from the stride cache.
        let fine: &Arc<Vec<Coord>> = if transposed {
            stride_cache.get(&key.lo_stride)?
        } else {
            in_coords
        };
        let ratio = key.hi_stride / key.lo_stride;
        let (map, _out, stats) = build_strided_map_with_stats(fine, &offsets, ratio);
        let map = Arc::new(map);
        let map_t = Arc::new(map.transposed());
        Some(GroupInfo {
            key,
            map,
            map_t,
            build_stats: stats,
            layer_count: 0,
        })
    }
}

/// Recovers the coarse coordinate list of a strided group (the builder
/// already deduplicated them; recompute cheaply and deterministically).
fn coarse_coords_of(group: &GroupInfo, fine: &[Coord]) -> Vec<Coord> {
    let ratio = group.key.hi_stride / group.key.lo_stride;
    ts_kernelmap::downsample_coords(fine, ratio)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NetworkBuilder;
    use ts_gpusim::Device;
    use ts_tensor::Precision;

    fn grid_coords(n: i32) -> Vec<Coord> {
        (0..n)
            .flat_map(|x| (0..n).map(move |y| Coord::new(0, x, y, (x * y) % 3)))
            .collect()
    }

    fn unet() -> Network {
        let mut b = NetworkBuilder::new("unet", 4);
        let c1 = b.conv_block("enc1", NetworkBuilder::INPUT, 8, 3, 1);
        let c1b = b.conv_block("enc1b", c1, 8, 3, 1);
        let d1 = b.conv_block("down1", c1b, 16, 2, 2);
        let c2 = b.conv_block("enc2", d1, 16, 3, 1);
        let u1 = b.conv_block_transposed("up1", c2, 8, 2, 2);
        let cat = b.concat("skip", u1, c1b);
        let _ = b.conv_block("dec1", cat, 8, 3, 1);
        b.build()
    }

    fn ctx() -> ExecCtx {
        ExecCtx::simulate(Device::rtx3090(), Precision::Fp16)
    }

    #[test]
    fn groups_are_shared_across_layers_with_same_maps() {
        let net = unet();
        let s = Session::new(&net, &grid_coords(12));
        // Expected groups: submanifold@1 (enc1, enc1b, dec1), strided
        // 1<->2 k2 (down1 and up1 SHARE this group), submanifold@2 (enc2).
        assert_eq!(
            s.groups().len(),
            3,
            "groups: {:?}",
            s.groups().iter().map(|g| g.key).collect::<Vec<_>>()
        );
        let strided = s
            .groups()
            .iter()
            .find(|g| g.key.lo_stride != g.key.hi_stride)
            .expect("strided group exists");
        assert_eq!(strided.layer_count, 2, "down1 and up1 share the group");
    }

    #[test]
    fn simulate_inference_produces_nonzero_times() {
        let net = unet();
        let s = Session::new(&net, &grid_coords(12));
        let r = s.simulate_inference(
            &GroupConfigs::uniform(DataflowConfig::implicit_gemm(1)),
            &ctx(),
        );
        assert!(r.total_us() > 0.0);
        assert!(r.mapping_us() > 0.0);
        assert!(r.compute_us() > 0.0);
        assert_eq!(
            r.timings()
                .iter()
                .filter(|t| t.node != usize::MAX && t.group.is_some())
                .count(),
            net.conv_count()
        );
    }

    #[test]
    fn mapping_cost_is_shared_not_per_layer() {
        // A net with 4 submanifold convs in one group must charge the
        // map build once, so it should cost far less than 4 single-conv
        // nets.
        let coords = grid_coords(12);
        let mut b1 = NetworkBuilder::new("one", 8);
        let _ = b1.conv("c1", NetworkBuilder::INPUT, 8, 3, 1);
        let one = b1.build();
        let mut b4 = NetworkBuilder::new("four", 8);
        let mut prev = NetworkBuilder::INPUT;
        for i in 0..4 {
            prev = b4.conv(&format!("c{i}"), prev, 8, 3, 1);
        }
        let four = b4.build();
        let cfg = GroupConfigs::uniform(DataflowConfig::implicit_gemm(1));
        let c = ctx();
        let t1 = Session::new(&one, &coords).simulate_inference(&cfg, &c);
        let t4 = Session::new(&four, &coords).simulate_inference(&cfg, &c);
        assert!(
            t4.mapping_us() < t1.mapping_us() * 1.5,
            "mapping shared: {} vs {}",
            t4.mapping_us(),
            t1.mapping_us()
        );
        assert!(t4.compute_us() > t1.compute_us() * 3.0);
    }

    #[test]
    fn training_costs_more_than_inference() {
        let net = unet();
        let s = Session::new(&net, &grid_coords(10));
        let c = ctx();
        let inf =
            s.simulate_inference(&GroupConfigs::uniform(DataflowConfig::implicit_gemm(1)), &c);
        let tr = s.simulate_training(&TrainConfigs::bound(DataflowConfig::implicit_gemm(1)), &c);
        // Backward adds dgrad + wgrad kernels on top of forward; mapping
        // is shared, so the end-to-end ratio sits between 1.5x and ~3x.
        assert!(
            tr.total_us() > inf.total_us() * 1.5,
            "{} vs {}",
            tr.total_us(),
            inf.total_us()
        );
        assert!(tr.compute_us() >= inf.compute_us() * 2.0);
    }

    #[test]
    fn train_report_includes_backward_kernels() {
        let s = Session::new(&unet(), &grid_coords(5));
        let report = s.simulate_training(
            &TrainConfigs::bound(DataflowConfig::implicit_gemm(1)),
            &ctx(),
        );
        let has_wgrad = report
            .trace()
            .entries()
            .iter()
            .any(|e| e.desc.name.contains("wgrad"));
        assert!(has_wgrad, "training trace must include wgrad kernels");
    }

    #[test]
    fn decoupled_wgrad_costs_extra_mapping() {
        let net = unet();
        let s = Session::new(&net, &grid_coords(10));
        let c = ctx();
        let bound = s.simulate_training(&TrainConfigs::bound(DataflowConfig::implicit_gemm(1)), &c);
        let mut decoupled = TrainConfigs::bound(DataflowConfig::implicit_gemm(1));
        decoupled.wgrad = GroupConfigs::uniform(DataflowConfig::implicit_gemm(3));
        let dec = s.simulate_training(&decoupled, &c);
        assert!(dec.mapping_us() > bound.mapping_us());
    }

    #[test]
    fn per_group_overrides_change_latency() {
        let net = unet();
        let s = Session::new(&net, &grid_coords(12));
        let c = ctx();
        let base = GroupConfigs::uniform(DataflowConfig::implicit_gemm(1));
        let r1 = s.simulate_inference(&base, &c);
        let mut tweaked = base.clone();
        tweaked.set(0, DataflowConfig::gather_scatter(false));
        let r2 = s.simulate_inference(&tweaked, &c);
        assert_ne!(r1.total_us(), r2.total_us());
    }

    #[test]
    fn try_new_reports_orphan_transposed_convs() {
        // Encoder jumps straight from stride 1 to stride 4; the decoder
        // then upsamples 4 -> 2, but no layer ever produced coordinates
        // at stride 2, so compilation must fail with a useful error.
        let mut b = crate::NetworkBuilder::new("orphan", 4);
        let d = b.conv("down_x4", crate::NetworkBuilder::INPUT, 8, 3, 4);
        let _ = b.conv_transposed("up_to_2", d, 8, 2, 2);
        let net = b.build();
        let err = Session::try_new(&net, &grid_coords(8)).unwrap_err();
        match &err {
            CompileError::TransposedWithoutEncoder {
                layer,
                missing_stride,
            } => {
                assert_eq!(layer, "up_to_2");
                assert_eq!(*missing_stride, 2);
            }
            other => panic!("unexpected compile error {other:?}"),
        }
        assert!(err.to_string().contains("up_to_2"));

        // The well-formed mirror image compiles.
        let mut b = crate::NetworkBuilder::new("ok", 4);
        let d1 = b.conv("down1", crate::NetworkBuilder::INPUT, 8, 2, 2);
        let d2 = b.conv("down2", d1, 8, 2, 2);
        let _ = b.conv_transposed("up", d2, 8, 2, 2);
        assert!(Session::try_new(&b.build(), &grid_coords(8)).is_ok());
    }

    #[test]
    fn session_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Session>();
    }

    #[test]
    fn prepare_cache_counts_hits_and_misses() {
        let net = unet();
        let s = Session::new(&net, &grid_coords(10));
        let c = ctx();
        assert_eq!(s.prepare_cache_counters(), PrepareCacheCounters::default());
        assert_eq!(s.prepare_cache_counters().hit_rate(), 0.0);
        let cfg = GroupConfigs::uniform(DataflowConfig::implicit_gemm(1));
        s.simulate_inference(&cfg, &c);
        let c1 = s.prepare_cache_counters();
        assert!(c1.misses > 0, "first simulation must populate the cache");
        s.simulate_inference(&cfg, &c);
        let c2 = s.prepare_cache_counters();
        assert_eq!(
            c2.misses, c1.misses,
            "repeat simulation prepares nothing new"
        );
        assert!(c2.hits > c1.hits);
        assert!(c2.hit_rate() > 0.0 && c2.hit_rate() < 1.0);
        assert_eq!(c2.total(), c2.hits + c2.misses);
    }

    #[test]
    #[allow(deprecated)]
    fn deprecated_stats_shim_mirrors_the_typed_counters() {
        let net = unet();
        let s = Session::new(&net, &grid_coords(8));
        let c = ctx();
        let cfg = GroupConfigs::uniform(DataflowConfig::implicit_gemm(1));
        s.simulate_inference(&cfg, &c);
        let counters = s.prepare_cache_counters();
        assert_eq!(s.prepare_cache_stats(), (counters.hits, counters.misses));
    }

    /// The per-group decomposition recomposes to the monolithic
    /// simulation (identical kernels, so only FP summation order can
    /// differ).
    #[test]
    fn inference_breakdown_matches_simulation() {
        let net = unet();
        let s = Session::new(&net, &grid_coords(12));
        let c = ctx();
        let mut cfgs = GroupConfigs::uniform(DataflowConfig::implicit_gemm(1));
        cfgs.set(1, DataflowConfig::gather_scatter(false));
        cfgs.set(2, DataflowConfig::implicit_gemm(3));
        let naive = s.simulate_inference(&cfgs, &c).total_us();
        let bd = s.inference_breakdown(&cfgs, &c);
        assert_eq!(bd.group_us.len(), s.groups().len());
        let rel = (bd.total_us() - naive).abs() / naive;
        assert!(
            rel < 1e-12,
            "breakdown {} vs simulate {}",
            bd.total_us(),
            naive
        );
    }

    #[test]
    fn training_breakdown_matches_simulation() {
        let net = unet();
        let s = Session::new(&net, &grid_coords(10));
        let c = ctx();
        let mut cfgs = TrainConfigs::bound(DataflowConfig::implicit_gemm(1));
        cfgs.dgrad.set(0, DataflowConfig::implicit_gemm(2));
        cfgs.wgrad = GroupConfigs::uniform(DataflowConfig::gather_scatter(false));
        let naive = s.simulate_training(&cfgs, &c).total_us();
        let bd = s.training_breakdown(&cfgs, &c);
        let rel = (bd.total_us() - naive).abs() / naive;
        assert!(
            rel < 1e-12,
            "breakdown {} vs simulate {}",
            bd.total_us(),
            naive
        );
    }

    /// Changing one group's config must not change any other group's
    /// contribution (the invariant the incremental tuner relies on).
    #[test]
    fn group_contribution_is_independent_of_other_groups() {
        let net = unet();
        let s = Session::new(&net, &grid_coords(12));
        let c = ctx();
        let a = DataflowConfig::implicit_gemm(1);
        let b = DataflowConfig::gather_scatter(false);
        let g0_under_a = s.group_inference_us(0, &a, &c);
        // Touch every other group with a different config; group 0's
        // contribution must be bitwise unchanged.
        for g in 1..s.groups().len() {
            s.group_inference_us(g, &b, &c);
        }
        assert_eq!(s.group_inference_us(0, &a, &c), g0_under_a);
    }

    #[test]
    fn simulation_is_deterministic() {
        let net = unet();
        let s = Session::new(&net, &grid_coords(10));
        let cfg = GroupConfigs::uniform(DataflowConfig::implicit_gemm(2));
        let c = ctx();
        assert_eq!(
            s.simulate_inference(&cfg, &c).total_us(),
            s.simulate_inference(&cfg, &c).total_us()
        );
    }
}
