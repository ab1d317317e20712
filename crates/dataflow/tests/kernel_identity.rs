//! Bit-identity of the shared functional micro-GEMM kernel: every
//! dataflow's forward and dgrad must produce exactly (`==` on the bit
//! patterns, not `approx_eq`) the values of the summation order it
//! replaced, across ragged channel widths, row counts that are not a
//! multiple of the register block, empty offsets, multi-edge maps and
//! inputs with exact (signed) zeros.

use proptest::prelude::*;

use ts_dataflow::{dgrad, forward, reference_forward, ConvWeights, DataflowConfig, ExecCtx};
use ts_gpusim::Device;
use ts_kernelmap::{
    build_strided_map, build_submanifold_map, unique_coords, Coord, KernelMap, KernelOffsets,
    SplitPlan,
};
use ts_tensor::{rng_from_seed, uniform_matrix, Matrix, Precision};

/// Output widths around the 8-column register tile, plus a wide one.
const C_OUTS: [usize; 5] = [1, 7, 8, 9, 96];

fn bits(m: &Matrix) -> Vec<u32> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

fn ctx() -> ExecCtx {
    ExecCtx::functional(Device::rtx3090(), Precision::Fp32)
}

fn coords_strategy() -> impl Strategy<Value = Vec<Coord>> {
    prop::collection::vec(
        (0..2i32, -6..6i32, -6..6i32, -2..2i32).prop_map(|(b, x, y, z)| Coord::new(b, x, y, z)),
        1..70,
    )
    .prop_map(|v| unique_coords(&v))
}

/// Uniform features with about a quarter of the entries replaced by
/// exact `+0.0` / `-0.0`.
fn features_with_zeros(seed: u64, rows: usize, cols: usize) -> Matrix {
    let mut m = uniform_matrix(&mut rng_from_seed(seed), rows, cols, -1.0, 1.0);
    for (i, v) in m.as_mut_slice().iter_mut().enumerate() {
        match (i as u64 ^ seed) % 8 {
            0 => *v = 0.0,
            1 => *v = -0.0,
            _ => {}
        }
    }
    m
}

/// The weight-stationary dataflows, naive and fused.
fn weight_stationary_configs() -> [DataflowConfig; 4] {
    [
        DataflowConfig::gather_scatter(false),
        DataflowConfig::gather_scatter(true),
        DataflowConfig::fetch_on_demand(false),
        DataflowConfig::fetch_on_demand(true),
    ]
}

fn all_configs() -> Vec<DataflowConfig> {
    let mut cfgs = weight_stationary_configs().to_vec();
    cfgs.extend((0..=4).map(DataflowConfig::implicit_gemm));
    cfgs
}

/// The implicit-GEMM functional loop before the shared kernel: per split
/// range a zeroed partial buffer; rows in plan order, each walking the
/// range's offsets; one `0.0`-seeded sum per output element per offset;
/// partials added into a zeroed output.
fn implicit_gemm_row_loop(x: &Matrix, w: &ConvWeights, map: &KernelMap, s: u32) -> Matrix {
    let plan = SplitPlan::from_split_count(map, s);
    let mut out = Matrix::zeros(map.n_out(), w.c_out());
    for range in plan.ranges() {
        let mut partial = Matrix::zeros(map.n_out(), w.c_out());
        for &row in range.order(map) {
            let o = row as usize;
            let dst = partial.row_mut(o);
            for k in range.k_begin..range.k_end {
                if let Some(i) = map.neighbor(o, k) {
                    let xi = x.row(i as usize);
                    let wk = w.offset(k);
                    for (c, d) in dst.iter_mut().enumerate() {
                        let mut acc = 0.0;
                        for (r, &xv) in xi.iter().enumerate() {
                            acc += xv * wk[(r, c)];
                        }
                        *d += acc;
                    }
                }
            }
        }
        out.add_assign(&partial);
    }
    out
}

/// A relational map with repeated (input, output) pairs within one
/// offset and an empty offset: valid for the weight-stationary
/// dataflows only.
fn multi_edge_map(n: u32) -> KernelMap {
    let k0: Vec<(u32, u32)> = (0..n).map(|i| (i, (i * 3) % n)).collect();
    let k1 = vec![
        (0, 1 % n),
        (1 % n, 1 % n),
        (0, 1 % n),
        (2 % n, 0),
        (0, 1 % n),
    ];
    let k3: Vec<(u32, u32)> = (0..n).rev().map(|i| (i, 0)).collect();
    KernelMap::from_pairs(n as usize, n as usize, vec![k0, k1, vec![], k3])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn weight_stationary_dataflows_equal_reference_bitwise(
        coords in coords_strategy(),
        seed in 0u64..1000,
    ) {
        let maps = [
            build_submanifold_map(&coords, &KernelOffsets::cube(3)),
            build_strided_map(&coords, &KernelOffsets::cube(2), 2).0,
        ];
        for map in &maps {
            for (j, &c_out) in C_OUTS.iter().enumerate() {
                let c_in = [1, 3, 8, 13, 5][j];
                let x = features_with_zeros(seed + j as u64, map.n_in(), c_in);
                let mut rng = rng_from_seed(seed ^ 0x5a);
                let w = ConvWeights::random(&mut rng, map.kernel_volume(), c_in, c_out);
                let expected = bits(&reference_forward(&x, &w, map));
                for cfg in weight_stationary_configs() {
                    let got = forward(&x, &w, map, &cfg, &ctx()).features.unwrap();
                    prop_assert!(bits(&got) == expected, "{} c_in={} c_out={}", cfg, c_in, c_out);
                }
            }
        }
    }

    #[test]
    fn implicit_gemm_equals_the_row_loop_bitwise(coords in coords_strategy(), seed in 0u64..1000) {
        let map = build_submanifold_map(&coords, &KernelOffsets::cube(3));
        for (j, &c_out) in C_OUTS.iter().enumerate() {
            let c_in = [1, 4, 1, 9, 16][j];
            let x = features_with_zeros(seed + j as u64, map.n_in(), c_in);
            let mut rng = rng_from_seed(seed ^ 0xa5);
            let w = ConvWeights::random(&mut rng, 27, c_in, c_out);
            for s in 0..=4 {
                let expected = bits(&implicit_gemm_row_loop(&x, &w, &map, s));
                let cfg = DataflowConfig::implicit_gemm(s);
                let got = forward(&x, &w, &map, &cfg, &ctx()).features.unwrap();
                prop_assert!(bits(&got) == expected, "s={} c_in={} c_out={}", s, c_in, c_out);
            }
        }
    }

    #[test]
    fn dgrad_equals_forward_over_the_transposed_map(coords in coords_strategy(), seed in 0u64..1000) {
        let map = build_submanifold_map(&coords, &KernelOffsets::cube(3));
        let map_t = map.transposed();
        for (j, &c_in) in C_OUTS.iter().enumerate() {
            // dgrad's output width is the forward c_in.
            let c_out = [3, 1, 8, 9, 7][j];
            let mut rng = rng_from_seed(seed ^ 0x3c);
            let w = ConvWeights::random(&mut rng, 27, c_in, c_out);
            let dy = features_with_zeros(seed + j as u64, map.n_out(), c_out);
            let wt = w.transposed();
            for cfg in all_configs() {
                let got = dgrad(&dy, &w, &map_t, &cfg, &ctx()).features.unwrap();
                let expected = forward(&dy, &wt, &map_t, &cfg, &ctx()).features.unwrap();
                prop_assert!(bits(&got) == bits(&expected), "{} c_in={}", cfg, c_in);
            }
        }
    }
}

#[test]
fn multi_edge_maps_equal_reference_bitwise() {
    // Row counts 1..=9 cover every ragged register block.
    for n in 1..=9u32 {
        let map = multi_edge_map(n);
        assert!(map.has_multi_edges());
        for (j, &c_out) in C_OUTS.iter().enumerate() {
            let c_in = [1, 2, 8, 1, 11][j];
            let x = features_with_zeros(u64::from(n) + j as u64, n as usize, c_in);
            let w = ConvWeights::random(&mut rng_from_seed(u64::from(n)), 4, c_in, c_out);
            let expected = bits(&reference_forward(&x, &w, &map));
            for cfg in weight_stationary_configs() {
                let got = forward(&x, &w, &map, &cfg, &ctx()).features.unwrap();
                assert!(bits(&got) == expected, "{cfg} n={n} c_out={c_out}");
            }
        }
    }
}

#[test]
fn all_zero_inputs_give_positive_zero_outputs() {
    // Exact zeros (of either sign) times finite weights never leave a
    // `-0.0` behind: every sum starts at `+0.0`. This is what makes
    // dropping gather-scatter's old zero-skip value-identical.
    let coords: Vec<Coord> = (0..11).map(|i| Coord::new(0, i, i % 3, 0)).collect();
    let map = build_submanifold_map(&coords, &KernelOffsets::cube(3));
    let mut x = Matrix::zeros(coords.len(), 5);
    for (i, v) in x.as_mut_slice().iter_mut().enumerate() {
        *v = if i % 2 == 0 { -0.0 } else { 0.0 };
    }
    let w = ConvWeights::random(&mut rng_from_seed(4), 27, 5, 9);
    for cfg in all_configs() {
        let got = forward(&x, &w, &map, &cfg, &ctx()).features.unwrap();
        assert!(
            got.as_slice().iter().all(|v| v.to_bits() == 0),
            "{cfg} left a non-+0.0 output"
        );
    }
}
