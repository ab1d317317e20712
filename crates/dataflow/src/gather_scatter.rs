//! The weight-stationary gather-GEMM-scatter dataflow (Section 2.2.1).
//!
//! Naive form (SparseConvNet, SpConv v1): a host loop over the K³ kernel
//! offsets; each iteration launches a gather kernel, a vendor GEMM and a
//! scatter kernel. Nothing overlaps across the three kernels, which is
//! the dataflow's fundamental limitation (Figure 3a).
//!
//! Fused form (TorchSparse, MLSys'22): all gathers fuse into one
//! locality-aware kernel, GEMMs are *adaptively grouped* into batched
//! GEMMs (padding group members to the group maximum, trading redundant
//! computation for fewer launches), and all scatters fuse.

use ts_gpusim::{KernelDesc, KernelTrace, Overlap};
use ts_kernelmap::KernelMap;
use ts_tensor::Matrix;

use crate::{ConvOutput, ConvWeights, DataflowConfig, ExecCtx};

/// Fraction of padding waste the adaptive grouping accepts within one
/// batched-GEMM group before starting a new group.
const GROUP_WASTE_LIMIT: f64 = 0.25;

pub(crate) fn run(
    x: &Matrix,
    w: &ConvWeights,
    map: &KernelMap,
    fused: bool,
    cfg: &DataflowConfig,
    ctx: &ExecCtx,
) -> ConvOutput {
    let _ = cfg;
    // Functional path: gather, GEMM and scatter-add fuse into the shared
    // kernel's register tile, so no per-offset gather or product buffer
    // is materialised; the math is the same for the naive and fused forms.
    let features = ctx
        .functional
        .then(|| crate::kernel::weight_stationary(x, w, map));
    let trace = trace_only(w.c_in(), w.c_out(), map, fused, ctx);
    ConvOutput { features, trace }
}

/// Simulated trace without touching feature data (used by the layer
/// runner and autotuner, which sweep configurations without weights).
pub(crate) fn trace_only(
    c_in: usize,
    c_out: usize,
    map: &KernelMap,
    fused: bool,
    ctx: &ExecCtx,
) -> KernelTrace {
    if fused {
        trace_fused(c_in as u64, c_out as u64, map, ctx)
    } else {
        trace_naive(c_in as u64, c_out as u64, map, ctx)
    }
}

fn trace_naive(c_in: u64, c_out: u64, map: &KernelMap, ctx: &ExecCtx) -> KernelTrace {
    let mut trace = KernelTrace::new();
    let b = ctx.elem_bytes();
    for k in 0..map.kernel_volume() {
        let m = map.pairs(k).len() as u64;
        if m == 0 {
            continue;
        }
        // Gather: random-access reads (poorly coalesced) + indices,
        // write the DRAM gather buffer.
        let gather = KernelDesc::memory(
            format!("gather[{k}]"),
            m * c_in * b * 2 + m * 4,
            m * c_in * b,
        )
        .with_latency_stretch(crate::implicit_gemm::gather_kernel_stretch());
        ctx.cost.record(&mut trace, gather);

        // Vendor GEMM on the gathered buffer: dense cuBLAS behaviour,
        // including tile/wave quantization on these skinny (n = C_out)
        // shapes. The buffer round-trips through DRAM, which is the
        // no-overlap cost of this dataflow.
        let mut gemm = KernelDesc::gemm(format!("gemm[{k}]"), m, c_out, c_in, ctx.precision);
        gemm.dram_read = m * c_in * b + c_in * c_out * b;
        gemm.dram_write = m * c_out * b;
        gemm.overlap = Overlap::None;
        gemm.addr_overhead = ctx.system_eff;
        ctx.cost.record(&mut trace, gemm);

        // Scatter-add: read products, read-modify-write outputs at
        // random addresses.
        let scatter = KernelDesc::memory(
            format!("scatter[{k}]"),
            m * c_out * b + m * c_out * b * 2 + m * 4,
            m * c_out * b,
        )
        .with_latency_stretch(crate::implicit_gemm::gather_kernel_stretch());
        ctx.cost.record(&mut trace, scatter);
    }
    trace
}

/// Adaptive grouping: offsets sorted by pair count descending, greedily
/// grouped while the padding waste stays under [`GROUP_WASTE_LIMIT`].
/// Returns `(group max size, member count)` per group.
pub(crate) fn adaptive_groups(sizes: &[usize]) -> Vec<(usize, usize)> {
    let mut nonzero: Vec<usize> = sizes.iter().copied().filter(|&s| s > 0).collect();
    nonzero.sort_unstable_by(|a, b| b.cmp(a));
    let mut groups = Vec::new();
    let mut idx = 0;
    while idx < nonzero.len() {
        let max = nonzero[idx];
        let mut count = 1;
        let mut real = max;
        while idx + count < nonzero.len() {
            let next = nonzero[idx + count];
            let padded = max * (count + 1);
            let waste = 1.0 - (real + next) as f64 / padded as f64;
            if waste > GROUP_WASTE_LIMIT {
                break;
            }
            real += next;
            count += 1;
        }
        groups.push((max, count));
        idx += count;
    }
    groups
}

fn trace_fused(c_in: u64, c_out: u64, map: &KernelMap, ctx: &ExecCtx) -> KernelTrace {
    let mut trace = KernelTrace::new();
    let b = ctx.elem_bytes();
    let pairs = map.total_pairs();

    // One fused, locality-aware gather over all offsets (the fused
    // kernel reorders accesses, recovering some coalescing: 1.5x rather
    // than the naive 2x amplification).
    let gather = KernelDesc::memory(
        "gather(fused)",
        pairs * c_in * b * 3 / 2 + pairs * 4,
        pairs * c_in * b,
    )
    .with_latency_stretch(crate::implicit_gemm::gather_kernel_stretch());
    ctx.cost.record(&mut trace, gather);

    // Adaptively grouped batched GEMMs: members padded to the group max.
    for (g, (max, count)) in adaptive_groups(&map.pairs_per_offset())
        .into_iter()
        .enumerate()
    {
        let m_padded = (max * count) as u64;
        let mut gemm = KernelDesc::gemm(
            format!("batched-gemm[group {g}]"),
            m_padded,
            c_out,
            c_in,
            ctx.precision,
        );
        gemm.dram_read = m_padded * c_in * b + count as u64 * c_in * c_out * b;
        gemm.dram_write = m_padded * c_out * b;
        gemm.overlap = Overlap::None;
        gemm.addr_overhead = ctx.system_eff;
        ctx.cost.record(&mut trace, gemm);
    }

    // One fused scatter-add (read products + read-modify-write outputs).
    let scatter = KernelDesc::memory(
        "scatter(fused)",
        pairs * c_out * b + pairs * c_out * b * 3 / 2 + pairs * 4,
        pairs * c_out * b,
    )
    .with_latency_stretch(crate::implicit_gemm::gather_kernel_stretch());
    ctx.cost.record(&mut trace, scatter);
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
        let coords: Vec<Coord> = (0..40).map(|i| Coord::new(0, i % 8, i / 8, 0)).collect();
        let map = build_submanifold_map(&coords, &KernelOffsets::cube(3));
        let mut rng = rng_from_seed(21);
        let x = uniform_matrix(&mut rng, 40, 5, -1.0, 1.0);
        let w = ConvWeights::random(&mut rng, 27, 5, 7);
        (x, w, map)
    }

    #[test]
    fn functional_matches_reference() {
        let (x, w, map) = setup();
        let expected = reference_forward(&x, &w, &map);
        let ctx = ExecCtx::functional(Device::rtx3090(), Precision::Fp32);
        let cfg = DataflowConfig::gather_scatter(true);
        let got = run(&x, &w, &map, true, &cfg, &ctx).features.unwrap();
        assert!(got.approx_eq(&expected, 1e-4));
    }

    #[test]
    fn naive_launches_three_kernels_per_nonempty_offset() {
        let (x, w, map) = setup();
        let ctx = ExecCtx::simulate(Device::rtx3090(), Precision::Fp16);
        let out = run(
            &x,
            &w,
            &map,
            false,
            &DataflowConfig::gather_scatter(false),
            &ctx,
        );
        let nonempty = map.pairs_per_offset().iter().filter(|&&s| s > 0).count() as u64;
        assert_eq!(out.trace.launch_count(), 3 * nonempty);
        assert!(out.features.is_none());
    }

    #[test]
    fn fused_launches_far_fewer_kernels_and_is_faster() {
        let (x, w, map) = setup();
        let ctx = ExecCtx::simulate(Device::rtx3090(), Precision::Fp16);
        let naive = run(
            &x,
            &w,
            &map,
            false,
            &DataflowConfig::gather_scatter(false),
            &ctx,
        );
        let fused = run(
            &x,
            &w,
            &map,
            true,
            &DataflowConfig::gather_scatter(true),
            &ctx,
        );
        assert!(fused.trace.launch_count() < naive.trace.launch_count() / 3);
        assert!(fused.trace.total_us() < naive.trace.total_us());
    }

    #[test]
    fn adaptive_groups_cover_all_offsets_with_bounded_waste() {
        let sizes = vec![100, 90, 85, 40, 39, 38, 10, 9, 1, 0, 0];
        let groups = adaptive_groups(&sizes);
        let members: usize = groups.iter().map(|&(_, c)| c).sum();
        assert_eq!(members, sizes.iter().filter(|&&s| s > 0).count());
        // Waste bound is respected per group by construction; check the
        // padded totals dominate the real totals.
        let padded: usize = groups.iter().map(|&(m, c)| m * c).sum();
        let real: usize = sizes.iter().sum();
        assert!(padded >= real);
    }

    #[test]
    fn grouping_equal_sizes_yields_one_group() {
        let groups = adaptive_groups(&[50, 50, 50, 50]);
        assert_eq!(groups, vec![(50, 4)]);
    }
}
