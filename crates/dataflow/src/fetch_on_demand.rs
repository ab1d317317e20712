//! The fetch-on-demand dataflow (Section 2.2.2).
//!
//! Gather, MMA and scatter fuse into one kernel: features are fetched on
//! demand into shared memory, partial sums live in registers and are
//! scattered straight to DRAM — atomically, because different offsets
//! (now parallel thread blocks in the block-fused form) may write the
//! same output. Zero redundant computation, overlapped memory access,
//! but `sum(|M_δ|)/N_out` (4–10x) amplified atomic write-back traffic.

use ts_gpusim::{KernelDesc, KernelTrace};
use ts_kernelgen::GeneratedDataflow;
use ts_kernelmap::KernelMap;
use ts_tensor::Matrix;

use crate::{ConvOutput, ConvWeights, DataflowConfig, ExecCtx};

pub(crate) fn run(
    x: &Matrix,
    w: &ConvWeights,
    map: &KernelMap,
    fused: bool,
    cfg: &DataflowConfig,
    ctx: &ExecCtx,
) -> ConvOutput {
    // No DRAM buffers exist in this dataflow: the functional path is
    // Equation 1 in pair order, straight through the shared kernel.
    let features = ctx
        .functional
        .then(|| crate::kernel::weight_stationary(x, w, map));
    let trace = trace_only(w.c_in(), w.c_out(), map, fused, cfg, ctx);
    ConvOutput { features, trace }
}

/// Simulated trace without feature data.
pub(crate) fn trace_only(
    c_in: usize,
    c_out: usize,
    map: &KernelMap,
    fused: bool,
    cfg: &DataflowConfig,
    ctx: &ExecCtx,
) -> KernelTrace {
    if fused {
        trace_fused(c_in as u64, c_out as u64, map, cfg, ctx)
    } else {
        trace_per_offset(c_in as u64, c_out as u64, map, cfg, ctx)
    }
}

/// Per-offset fetch-on-demand (MinkowskiEngine): one fused kernel per
/// kernel offset, K³ launches.
fn trace_per_offset(
    c_in: u64,
    c_out: u64,
    map: &KernelMap,
    cfg: &DataflowConfig,
    ctx: &ExecCtx,
) -> KernelTrace {
    let mut trace = KernelTrace::new();
    let b = ctx.elem_bytes();
    for k in 0..map.kernel_volume() {
        let m = map.pairs(k).len() as u64;
        if m == 0 {
            continue;
        }
        let tile = cfg
            .tile_policy
            .tile_for(m, c_out, c_in, ctx.device(), ctx.precision);
        let pen = ctx
            .gen_flags
            .penalties(GeneratedDataflow::FetchOnDemand, tile, ctx.precision);
        let util = crate::implicit_gemm::mma_pipe_utilization(tile, m, c_out, c_in, 1, ctx);
        let ctas = m.div_ceil(tile.cta_m as u64) * c_out.div_ceil(tile.cta_n as u64);
        let stretch = crate::implicit_gemm::occupancy_stretch(ctas, tile, ctx);
        let desc = KernelDesc::gemm(format!("fod[{k}]"), m, c_out, c_in, ctx.precision)
            .with_tile(tile)
            .with_traffic(m * c_in * b * 2 + c_in * c_out * b + m * 8, 0)
            .with_atomic_write(m * c_out * b)
            .with_overlap(ts_gpusim::Overlap::None)
            .with_util(util)
            .with_latency_stretch(stretch)
            .with_addr_overhead(pen.addr * ctx.system_eff)
            .with_ctrl_overhead(pen.ctrl);
        ctx.cost.record(&mut trace, desc);
    }
    trace
}

/// Block-fused fetch-on-demand (PCEngine / TorchSparse++): the host loop
/// over offsets becomes a thread-block dimension; a single launch covers
/// every offset.
fn trace_fused(
    c_in: u64,
    c_out: u64,
    map: &KernelMap,
    cfg: &DataflowConfig,
    ctx: &ExecCtx,
) -> KernelTrace {
    let mut trace = KernelTrace::new();
    let b = ctx.elem_bytes();
    let pairs = map.total_pairs();
    if pairs == 0 {
        return trace;
    }
    let kvol = map.kernel_volume() as u64;
    let tile = cfg
        .tile_policy
        .tile_for(pairs, c_out, c_in, ctx.device(), ctx.precision);
    let pen = ctx
        .gen_flags
        .penalties(GeneratedDataflow::FetchOnDemand, tile, ctx.precision);
    // The K loop is only C_in long (no offset dimension in K), so the
    // MMA pipeline drains constantly; occupancy comes from the row
    // dimension over all offsets.
    let util = crate::implicit_gemm::mma_pipe_utilization(tile, pairs, c_out, c_in, 1, ctx);
    let ctas = pairs.div_ceil(tile.cta_m as u64) * c_out.div_ceil(tile.cta_n as u64);
    let stretch = crate::implicit_gemm::occupancy_stretch(ctas, tile, ctx);
    let desc = KernelDesc::gemm("fod(block-fused)", pairs, c_out, c_in, ctx.precision)
        .with_tile(tile)
        .with_traffic(
            pairs * c_in * b * 2 + kvol * c_in * c_out * b + pairs * 8,
            0,
        )
        .with_atomic_write(pairs * c_out * b)
        .with_overlap(ts_gpusim::Overlap::None)
        .with_util(util)
        .with_latency_stretch(stretch)
        .with_addr_overhead(pen.addr * ctx.system_eff)
        .with_ctrl_overhead(pen.ctrl);
    ctx.cost.record(&mut trace, desc);
    trace
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference_forward;
    use ts_gpusim::Device;
    use ts_kernelmap::{build_submanifold_map, Coord, KernelOffsets};
    use ts_tensor::{rng_from_seed, uniform_matrix, Precision};

    fn setup() -> (Matrix, ConvWeights, KernelMap) {
        let coords: Vec<Coord> = (0..50)
            .map(|i| Coord::new(0, i % 10, (i / 10) % 5, i % 3))
            .collect();
        let coords = ts_kernelmap::unique_coords(&coords);
        let n = coords.len();
        let map = build_submanifold_map(&coords, &KernelOffsets::cube(3));
        let mut rng = rng_from_seed(31);
        let x = uniform_matrix(&mut rng, n, 6, -1.0, 1.0);
        let w = ConvWeights::random(&mut rng, 27, 6, 4);
        (x, w, map)
    }

    #[test]
    fn functional_matches_reference() {
        let (x, w, map) = setup();
        let expected = reference_forward(&x, &w, &map);
        let ctx = ExecCtx::functional(Device::rtx2080ti(), Precision::Fp32);
        let cfg = DataflowConfig::fetch_on_demand(true);
        let got = run(&x, &w, &map, true, &cfg, &ctx).features.unwrap();
        assert!(got.approx_eq(&expected, 1e-4));
    }

    #[test]
    fn block_fusion_reduces_launches_to_one() {
        let (x, w, map) = setup();
        let ctx = ExecCtx::simulate(Device::rtx2080ti(), Precision::Fp32);
        let per = run(
            &x,
            &w,
            &map,
            false,
            &DataflowConfig::fetch_on_demand(false),
            &ctx,
        );
        let fused = run(
            &x,
            &w,
            &map,
            true,
            &DataflowConfig::fetch_on_demand(true),
            &ctx,
        );
        assert_eq!(fused.trace.launch_count(), 1);
        assert!(
            per.trace.launch_count() >= 5,
            "launches = {}",
            per.trace.launch_count()
        );
        assert!(fused.trace.total_us() < per.trace.total_us());
    }

    #[test]
    fn write_back_is_atomic_and_amplified() {
        let (x, w, map) = setup();
        let ctx = ExecCtx::simulate(Device::rtx3090(), Precision::Fp16);
        let out = run(
            &x,
            &w,
            &map,
            true,
            &DataflowConfig::fetch_on_demand(true),
            &ctx,
        );
        let e = &out.trace.entries()[0].desc;
        // Atomic write traffic is total_pairs * c_out, several times the
        // theoretical minimum n_out * c_out.
        let min_write = map.n_out() as u64 * w.c_out() as u64 * 2;
        assert!(
            e.atomic_write > min_write * 2,
            "atomic {} min {min_write}",
            e.atomic_write
        );
        assert_eq!(e.dram_write, 0);
    }

    #[test]
    fn zero_redundant_computation() {
        let (x, w, map) = setup();
        let ctx = ExecCtx::simulate(Device::rtx3090(), Precision::Fp16);
        let out = run(
            &x,
            &w,
            &map,
            true,
            &DataflowConfig::fetch_on_demand(true),
            &ctx,
        );
        assert_eq!(
            out.trace.total_macs(),
            map.effective_macs(w.c_in(), w.c_out())
        );
    }
}
