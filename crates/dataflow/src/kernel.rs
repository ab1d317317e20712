//! The one functional micro-GEMM kernel behind every dataflow.
//!
//! Each dataflow's functional path is the same indirect einsum
//! `out[o] += x[i] · W_k` over (input row, output row) pairs sharing an
//! offset `k` (the Insum view); the dataflows differ only in *which*
//! pairs they feed the kernel and in what order. Gather-scatter and
//! fetch-on-demand feed each offset's pair list in blocks of
//! [`BLOCK_ROWS`] ([`weight_stationary`]); implicit GEMM feeds blocks of
//! consecutive plan-order output rows, one offset at a time.
//!
//! # Summation order
//!
//! Every output element is updated as `dst += (0.0 + Σ_r x[r]·W_k[r][c])`
//! with the sum taken in `r` order — no FMA and no zero-skip — and the
//! pairs of a block are written back in block order. This is exactly
//! the per-element order of [`crate::reference_forward`], so a dataflow
//! that feeds pairs in reference order is bit-identical to it.

use ts_kernelmap::KernelMap;
use ts_tensor::Matrix;

use crate::ConvWeights;

/// Pairs per register block: the accumulator tile's row count.
pub(crate) const BLOCK_ROWS: usize = 4;

/// Output columns per register block: the accumulator tile's width.
const BLOCK_COLS: usize = 8;

/// `out[o] += x[i] · wk` for every `(i, o)` in `pairs`, in pair order,
/// one block of up to [`BLOCK_ROWS`] pairs at a time.
pub(crate) fn accumulate(x: &Matrix, wk: &Matrix, pairs: &[(u32, u32)], out: &mut Matrix) {
    for block in pairs.chunks(BLOCK_ROWS) {
        accumulate_block(x, wk, block, out);
    }
}

/// The weight-stationary functional forward shared by gather-scatter
/// and fetch-on-demand: every offset's pair list, offsets in order.
pub(crate) fn weight_stationary(x: &Matrix, w: &ConvWeights, map: &KernelMap) -> Matrix {
    let mut out = Matrix::zeros(map.n_out(), w.c_out());
    for k in 0..map.kernel_volume() {
        accumulate(x, w.offset(k), map.pairs(k), &mut out);
    }
    out
}

/// One register block: `out[o_j] += x[i_j] · wk` for the (at most
/// [`BLOCK_ROWS`]) pairs of `block`, written back in block order (so a
/// block may name the same output row twice).
///
/// # Panics
///
/// Panics if `block` is empty or longer than [`BLOCK_ROWS`].
pub(crate) fn accumulate_block(x: &Matrix, wk: &Matrix, block: &[(u32, u32)], out: &mut Matrix) {
    match block.len() {
        1 => tile::<1>(x, wk, block, out),
        2 => tile::<2>(x, wk, block, out),
        3 => tile::<3>(x, wk, block, out),
        4 => tile::<4>(x, wk, block, out),
        n => panic!("register block of {n} pairs (1..={BLOCK_ROWS} allowed)"),
    }
}

fn tile<const R: usize>(x: &Matrix, wk: &Matrix, block: &[(u32, u32)], out: &mut Matrix) {
    let (c_in, c_out) = wk.shape();
    let xs: [&[f32]; R] = std::array::from_fn(|j| &x.row(block[j].0 as usize)[..c_in]);
    let w = wk.as_slice();
    let mut c0 = 0;
    while c0 < c_out {
        let width = BLOCK_COLS.min(c_out - c0);
        let acc = if width == BLOCK_COLS {
            sweep::<R>(&xs, w, c_out, c0, BLOCK_COLS)
        } else {
            sweep::<R>(&xs, w, c_out, c0, width)
        };
        for (j, a) in acc.iter().enumerate() {
            let dst = &mut out.row_mut(block[j].1 as usize)[c0..c0 + width];
            for (d, &v) in dst.iter_mut().zip(a) {
                *d += v;
            }
        }
        c0 += width;
    }
}

/// Accumulates columns `c0..c0 + width` of the tile over all of
/// `c_in`, each element starting from `+0.0`. Inlined into both call
/// sites so the full-width sweep sees a constant `width`.
#[inline(always)]
fn sweep<const R: usize>(
    xs: &[&[f32]; R],
    w: &[f32],
    c_out: usize,
    c0: usize,
    width: usize,
) -> [[f32; BLOCK_COLS]; R] {
    let mut acc = [[0.0f32; BLOCK_COLS]; R];
    for (r, w_row) in w.chunks_exact(c_out).enumerate() {
        let wr = &w_row[c0..c0 + width];
        for (a, x_row) in acc.iter_mut().zip(xs) {
            let xv = x_row[r];
            for (a, &wv) in a[..width].iter_mut().zip(wr) {
                *a += xv * wv;
            }
        }
    }
    acc
}
