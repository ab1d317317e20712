//! Host wall-clock bench of the functional dataflow kernels: the real
//! `f32` math serving, training and `ts-verify` pay on the CPU, as
//! opposed to the simulated GPU microseconds every other bench reports.
//!
//! Each dataflow (fused gather-scatter, fused fetch-on-demand, implicit
//! GEMM with s = 0/1/3 splits) runs one forward layer on two shapes: a
//! 15k-voxel 64→64 k3 LiDAR layer and a 160-voxel 16→16 k3 layer. The
//! direct evaluation of Equation 1 (`reference_forward`) runs in the
//! same process, interleaved with the kernels round by round, and each
//! time is the minimum over the rounds — so the reported speedups are
//! in-process ratios that host noise cannot fake. GFLOP/s counts only
//! useful MACs (`2 · pairs · c_in · c_out`), so implicit GEMM's
//! warp-lockstep redundancy (a simulated-GPU cost) does not inflate it.
//!
//! Results land in `target/repro/BENCH_cpu.json` and a copy at
//! `BENCH_cpu.json`. The bench asserts a speedup floor over the
//! reference on the large shape and exits non-zero below it; its wall
//! numbers are not in `bench_gate`'s ±20% list, which gates only
//! simulated metrics.
//!
//! ```sh
//! cargo bench -p ts-bench --bench cpu_kernels
//! ```

use std::hint::black_box;
use std::time::Instant;

use serde_json::json;
use ts_bench::{print_table, write_json};
use ts_dataflow::{forward_prepared, prepare, reference_forward, ConvWeights, DataflowConfig};
use ts_dataflow::{ExecCtx, Prepared};
use ts_gpusim::Device;
use ts_kernelmap::{build_submanifold_map, Coord, KernelMap, KernelOffsets};
use ts_tensor::{rng_from_seed, uniform_matrix, Matrix, Precision};
use ts_workloads::Workload;

/// Minimum speedup of every kernel over `reference_forward` on the
/// large shape.
const SPEEDUP_FLOOR: f64 = 3.0;

/// Interleaved timing rounds; each reported time is the minimum.
const ROUNDS: usize = 5;

/// A sample repeats a call until it spans at least this long, so the
/// small shape's microsecond calls are timed above clock resolution.
const MIN_SAMPLE_S: f64 = 2e-3;

struct Shape {
    name: &'static str,
    map: KernelMap,
    x: Matrix,
    w: ConvWeights,
}

impl Shape {
    fn new(name: &'static str, coords: &[Coord], c_in: usize, c_out: usize, seed: u64) -> Self {
        let map = build_submanifold_map(coords, &KernelOffsets::cube(3));
        let mut rng = rng_from_seed(seed);
        let x = uniform_matrix(&mut rng, coords.len(), c_in, -1.0, 1.0);
        let w = ConvWeights::random(&mut rng, 27, c_in, c_out);
        Self { name, map, x, w }
    }

    fn flops(&self) -> f64 {
        2.0 * self.map.total_pairs() as f64 * (self.w.c_in() * self.w.c_out()) as f64
    }
}

/// One scanned LiDAR frame (SemanticKITTI sensor) of about 15k voxels.
fn lidar_coords() -> Vec<Coord> {
    Workload::SemanticKittiMinkUNet10
        .scene_scaled(7, 0.17)
        .coords()
        .to_vec()
}

/// A dense 8 × 5 × 4 block: 160 voxels.
fn block_coords() -> Vec<Coord> {
    (0..8)
        .flat_map(|x| (0..5).flat_map(move |y| (0..4).map(move |z| Coord::new(0, x, y, z))))
        .collect()
}

/// Seconds per call of one sample: `f` repeated until the sample spans
/// [`MIN_SAMPLE_S`].
fn sample(f: &mut dyn FnMut()) -> f64 {
    let start = Instant::now();
    let mut calls = 0u32;
    loop {
        f();
        calls += 1;
        let elapsed = start.elapsed().as_secs_f64();
        if elapsed >= MIN_SAMPLE_S {
            return elapsed / f64::from(calls);
        }
    }
}

fn main() {
    let ctx = ExecCtx::functional(Device::rtx3090(), Precision::Fp32);
    let kernels = [
        ("gs-fused", DataflowConfig::gather_scatter(true)),
        ("fod-fused", DataflowConfig::fetch_on_demand(true)),
        ("ig-s0", DataflowConfig::implicit_gemm(0)),
        ("ig-s1", DataflowConfig::implicit_gemm(1)),
        ("ig-s3", DataflowConfig::implicit_gemm(3)),
    ];
    let shapes = [
        Shape::new("15k-64x64-k3", &lidar_coords(), 64, 64, 1),
        Shape::new("160-16x16-k3", &block_coords(), 16, 16, 2),
    ];

    let mut rows = Vec::new();
    let mut records = Vec::new();
    let mut failures = Vec::new();
    for (si, shape) in shapes.iter().enumerate() {
        let expected = reference_forward(&shape.x, &shape.w, &shape.map);
        // Plans (bitmask sort, row order) are built once, outside the
        // timed calls, exactly as a layer group reuses them.
        let prepared: Vec<Prepared> = kernels
            .iter()
            .map(|(_, cfg)| {
                let p = prepare(&shape.map, cfg, &ctx);
                let y = forward_prepared(&shape.x, &shape.w, &shape.map, &p, cfg, &ctx);
                let y = y.features.expect("functional context computes features");
                assert!(y.approx_eq(&expected, 1e-3), "{} diverged", cfg);
                p
            })
            .collect();

        let mut ref_s = f64::INFINITY;
        let mut kernel_s = vec![f64::INFINITY; kernels.len()];
        for _ in 0..ROUNDS {
            ref_s = ref_s.min(sample(&mut || {
                black_box(reference_forward(&shape.x, &shape.w, &shape.map));
            }));
            for (i, (_, cfg)) in kernels.iter().enumerate() {
                let p = &prepared[i];
                kernel_s[i] = kernel_s[i].min(sample(&mut || {
                    black_box(forward_prepared(
                        &shape.x, &shape.w, &shape.map, p, cfg, &ctx,
                    ));
                }));
            }
        }

        let flops = shape.flops();
        let mut kernel_records = Vec::new();
        for ((name, _), &t) in kernels.iter().zip(&kernel_s) {
            let speedup = ref_s / t;
            let gflops = flops / t / 1e9;
            rows.push(vec![
                shape.name.to_string(),
                name.to_string(),
                format!("{:.3}", t * 1e3),
                format!("{gflops:.2}"),
                format!("{speedup:.2}x"),
            ]);
            kernel_records.push(json!({
                "dataflow": name,
                "wall_ms": t * 1e3,
                "gflops": gflops,
                "speedup_vs_reference": speedup,
            }));
            if si == 0 && speedup < SPEEDUP_FLOOR {
                failures.push(format!(
                    "{} {name}: {speedup:.2}x < {SPEEDUP_FLOOR}x over reference_forward",
                    shape.name
                ));
            }
        }
        rows.push(vec![
            shape.name.to_string(),
            "reference".to_string(),
            format!("{:.3}", ref_s * 1e3),
            format!("{:.2}", flops / ref_s / 1e9),
            "1.00x".to_string(),
        ]);
        records.push(json!({
            "shape": shape.name,
            "voxels": shape.map.n_out(),
            "c_in": shape.w.c_in(),
            "c_out": shape.w.c_out(),
            "pairs": shape.map.total_pairs(),
            "reference_wall_ms": ref_s * 1e3,
            "reference_gflops": flops / ref_s / 1e9,
            "kernels": kernel_records,
        }));
    }

    print_table(
        "Functional dataflow kernels, host wall clock (min of interleaved rounds)",
        &["shape", "dataflow", "ms", "GFLOP/s", "vs reference"],
        &rows,
    );
    let record = json!({
        "bench": "cpu_kernels",
        "clock": "host wall",
        "rounds": ROUNDS,
        "speedup_floor": SPEEDUP_FLOOR,
        "shapes": records,
    });
    write_json("BENCH_cpu", &record);
    let root_copy = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_cpu.json");
    match serde_json::to_string_pretty(&record) {
        Ok(s) => {
            if let Err(e) = std::fs::write(root_copy, s) {
                eprintln!("warning: could not write {root_copy}: {e}");
            }
        }
        Err(e) => eprintln!("warning: could not serialize BENCH_cpu record: {e}"),
    }
    assert!(failures.is_empty(), "speedup floor missed: {failures:?}");
}
