//! Allocation-free numeric kernels.
//!
//! These are the primitives behind the `safex-nn` inference engine. Each
//! kernel writes into a caller-supplied output slice so that a deployed
//! engine can pre-allocate every buffer at initialisation time and perform
//! zero heap allocation per inference — a hard requirement in most FUSA
//! coding standards (e.g. ISO 26262-6 discourages dynamic memory in
//! ASIL-rated software).
//!
//! All kernels:
//!
//! * validate their argument dimensions and return [`TensorError`] on
//!   mismatch (never panic on user data);
//! * use a fixed left-to-right accumulation order with `f64` (or `i64` for
//!   the fixed-point variants) accumulators, so results are bit-for-bit
//!   reproducible.

use crate::error::TensorError;
use crate::fixed::Q16_16;

/// `out = a (m x k) * b (k x n)`, row-major, f64 accumulation.
///
/// # Errors
///
/// Returns [`TensorError::LengthMismatch`] if any slice length disagrees
/// with the stated dimensions.
pub fn matmul_into(
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
) -> Result<(), TensorError> {
    check_len(a, m * k)?;
    check_len(b, k * n)?;
    check_len(out, m * n)?;
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f64;
            for p in 0..k {
                acc += a[i * k + p] as f64 * b[p * n + j] as f64;
            }
            out[i * n + j] = acc as f32;
        }
    }
    Ok(())
}

/// Dense (fully-connected) layer: `out = w (outputs x inputs) * x + bias`.
///
/// Strict left-to-right f64 accumulation: one chain per output, seeded
/// with the bias, then `acc += w as f64 * x as f64` for every input in
/// order. This is the batch-of-one case of [`dense_batch_into`], which
/// runs the chains as a tile.
///
/// # Errors
///
/// Returns [`TensorError::LengthMismatch`] on dimension disagreement and
/// [`TensorError::InvalidArgument`] when `inputs * outputs` overflows.
pub fn dense_into(
    weights: &[f32],
    bias: &[f32],
    x: &[f32],
    out: &mut [f32],
    inputs: usize,
    outputs: usize,
) -> Result<(), TensorError> {
    let arena = DenseArena::single(weights, bias, x, out, inputs, outputs)?;
    dense_arena(weights, bias, x, out, arena);
    Ok(())
}

/// Dense layer over a batch-major activation arena: `batch` input rows
/// spaced `src_stride` apart in `src`, output rows written `dst_stride`
/// apart in `dst`.
///
/// Each weight row is streamed from memory once per *batch* instead of
/// once per item. The chains run as a tile: eight output rows against
/// two batch items (against the one item at batch 1), sixteen or eight
/// independent chains in flight, so the f64 add latency is hidden at
/// every batch size. The tile never changes a chain's own operation
/// sequence, so every output is bit-identical to running [`dense_into`]
/// on each item — pinned against a scalar reference for every row and
/// item remainder of the tile by `dense_exact_tile_matches_scalar_reference`
/// (`crates/tensor/tests/props.rs`).
///
/// # Errors
///
/// Returns [`TensorError::LengthMismatch`] on dimension disagreement and
/// [`TensorError::InvalidArgument`] when a stride is smaller than the row
/// it must hold or an arena size overflows `usize`.
#[allow(clippy::too_many_arguments)]
pub fn dense_batch_into(
    weights: &[f32],
    bias: &[f32],
    src: &[f32],
    dst: &mut [f32],
    inputs: usize,
    outputs: usize,
    batch: usize,
    src_stride: usize,
    dst_stride: usize,
) -> Result<(), TensorError> {
    let arena = DenseArena {
        inputs,
        outputs,
        batch,
        src_stride,
        dst_stride,
    };
    arena.check(weights, bias, src, dst)?;
    dense_arena(weights, bias, src, dst, arena);
    Ok(())
}

/// Geometry of a dense call over a batch-major arena.
#[derive(Debug, Clone, Copy)]
struct DenseArena {
    inputs: usize,
    outputs: usize,
    batch: usize,
    src_stride: usize,
    dst_stride: usize,
}

impl DenseArena {
    /// The one-item geometry of a per-item call, after checking that the
    /// buffers hold exactly one item.
    fn single<T>(
        weights: &[T],
        bias: &[T],
        x: &[T],
        out: &[T],
        inputs: usize,
        outputs: usize,
    ) -> Result<Self, TensorError> {
        let arena = DenseArena {
            inputs,
            outputs,
            batch: 1,
            src_stride: inputs,
            dst_stride: outputs,
        };
        arena.check(weights, bias, x, out)?;
        check_len(x, inputs)?;
        check_len(out, outputs)?;
        Ok(arena)
    }

    /// Checks the buffers against this geometry, every size computed
    /// with overflow checks: `outputs` weight rows of `inputs` and one
    /// bias per output, and for every item `b < batch` the input row
    /// `src[b * src_stride..][..inputs]` and output row
    /// `dst[b * dst_stride..][..outputs]`. An empty batch checks only the
    /// weights and bias.
    fn check<T>(&self, weights: &[T], bias: &[T], src: &[T], dst: &[T]) -> Result<(), TensorError> {
        let size = self.inputs.checked_mul(self.outputs).ok_or_else(|| {
            TensorError::InvalidArgument("dense layer size overflows usize".into())
        })?;
        check_len(weights, size)?;
        check_len(bias, self.outputs)?;
        if self.batch == 0 {
            return Ok(());
        }
        if self.src_stride < self.inputs || self.dst_stride < self.outputs {
            return Err(TensorError::InvalidArgument(
                "arena stride smaller than the activation row it must hold".into(),
            ));
        }
        for (buf, stride, row) in [
            (src, self.src_stride, self.inputs),
            (dst, self.dst_stride, self.outputs),
        ] {
            let need = (self.batch - 1)
                .checked_mul(stride)
                .and_then(|n| n.checked_add(row))
                .ok_or_else(|| TensorError::InvalidArgument("arena size overflows usize".into()))?;
            if buf.len() < need {
                return Err(TensorError::LengthMismatch {
                    expected: need,
                    actual: buf.len(),
                });
            }
        }
        Ok(())
    }
}

/// The f32 dense layer over an arena that [`DenseArena::check`] accepted:
/// tiles of [`TILE_ROWS`] output rows, then one row at a time.
fn dense_arena(weights: &[f32], bias: &[f32], src: &[f32], dst: &mut [f32], arena: DenseArena) {
    let mut o = 0;
    while arena.outputs - o >= TILE_ROWS {
        dense_exact_rows::<TILE_ROWS>(weights, bias, src, dst, arena, o);
        o += TILE_ROWS;
    }
    while o < arena.outputs {
        dense_exact_rows::<1>(weights, bias, src, dst, arena, o);
        o += 1;
    }
}

/// Output rows one dense tile computes together.
const TILE_ROWS: usize = 8;
/// Batch items one dense tile computes together.
const TILE_ITEMS: usize = 2;
/// Inputs per dense tile step: a step forms all its
/// products before its adds.
///
/// All three were picked by measuring the 256×48 layer on a 2-vCPU
/// x86-64 host (best of six alternating runs): eight rows beat four by
/// ~14 % at batch 1 and matched it in a batch, and two inputs per step
/// beat four and eight.
const TILE_STEP: usize = 2;

/// Dense output rows `o..o + R` for every item of the
/// arena: tiles of [`TILE_ITEMS`] items while that many remain, then
/// one item at a time.
fn dense_exact_rows<const R: usize>(
    weights: &[f32],
    bias: &[f32],
    src: &[f32],
    dst: &mut [f32],
    arena: DenseArena,
    o: usize,
) {
    let mut item = 0;
    while arena.batch - item >= TILE_ITEMS {
        dense_exact_tile::<R, TILE_ITEMS>(weights, bias, src, dst, arena, o, item);
        item += TILE_ITEMS;
    }
    while item < arena.batch {
        dense_exact_tile::<R, 1>(weights, bias, src, dst, arena, o, item);
        item += 1;
    }
}

/// One dense tile: output rows `o..o + R` against items
/// `item..item + C`, one f64 chain per (row, item) pair.
///
/// Every chain runs the definitional sequence — seed with the bias as
/// f64, then `acc += w as f64 * x as f64` for i = 0..inputs in order —
/// so its result is bit-identical to computing that output alone. Only
/// the adds are ordered: the chains are independent, so R·C of them hide
/// each other's add latency, and a product of two f32 values is exact in
/// f64 (24 + 24 significand bits < 53), so the products of a step are
/// formed before its adds and may be vectorised. No step fuses a
/// multiply into an add: Rust never contracts `a * b + c` into an FMA.
#[inline(always)]
fn dense_exact_tile<const R: usize, const C: usize>(
    weights: &[f32],
    bias: &[f32],
    src: &[f32],
    dst: &mut [f32],
    arena: DenseArena,
    o: usize,
    item: usize,
) {
    let n = arena.inputs;
    let rows: [_; R] =
        std::array::from_fn(|r| weights[(o + r) * n..(o + r + 1) * n].as_chunks::<TILE_STEP>());
    let xs: [_; C] =
        std::array::from_fn(|c| src[(item + c) * arena.src_stride..][..n].as_chunks::<TILE_STEP>());
    let mut acc: [[f64; C]; R] = std::array::from_fn(|r| [bias[o + r] as f64; C]);
    for step in 0..n / TILE_STEP {
        let mut products = [[[0.0f64; C]; R]; TILE_STEP];
        for r in 0..R {
            let w = &rows[r].0[step];
            for c in 0..C {
                let x = &xs[c].0[step];
                for k in 0..TILE_STEP {
                    products[k][r][c] = w[k] as f64 * x[k] as f64;
                }
            }
        }
        for products_k in &products {
            for (acc_r, products_r) in acc.iter_mut().zip(products_k) {
                for (a, p) in acc_r.iter_mut().zip(products_r) {
                    *a += p;
                }
            }
        }
    }
    for i in 0..n % TILE_STEP {
        for r in 0..R {
            let w = rows[r].1[i] as f64;
            for c in 0..C {
                acc[r][c] += w * xs[c].1[i] as f64;
            }
        }
    }
    for (r, acc_r) in acc.iter().enumerate() {
        for (c, &a) in acc_r.iter().enumerate() {
            dst[(item + c) * arena.dst_stride + o + r] = a as f32;
        }
    }
}

/// 2-D convolution, NCHW single image, `valid` padding semantics with an
/// explicit zero-`padding` border and stride.
///
/// * `x` is `in_c x in_h x in_w`
/// * `weights` is `out_c x in_c x k_h x k_w`
/// * `bias` is `out_c`
/// * `out` is `out_c x out_h x out_w` with
///   `out_h = (in_h + 2*padding - k_h)/stride + 1` (likewise for width).
///
/// # Errors
///
/// Returns [`TensorError::LengthMismatch`] on dimension disagreement and
/// [`TensorError::InvalidArgument`] if `stride == 0` or the kernel does not
/// fit in the padded input.
#[allow(clippy::too_many_arguments)]
pub fn conv2d_into(
    x: &[f32],
    weights: &[f32],
    bias: &[f32],
    out: &mut [f32],
    in_c: usize,
    in_h: usize,
    in_w: usize,
    out_c: usize,
    k_h: usize,
    k_w: usize,
    stride: usize,
    padding: usize,
) -> Result<(), TensorError> {
    if stride == 0 {
        return Err(TensorError::InvalidArgument(
            "stride must be non-zero".into(),
        ));
    }
    let (out_h, out_w) = conv2d_output_dims(in_h, in_w, k_h, k_w, stride, padding)?;
    check_len(x, in_c * in_h * in_w)?;
    check_len(weights, out_c * in_c * k_h * k_w)?;
    check_len(bias, out_c)?;
    check_len(out, out_c * out_h * out_w)?;

    for oc in 0..out_c {
        for oy in 0..out_h {
            for ox in 0..out_w {
                let mut acc = bias[oc] as f64;
                for ic in 0..in_c {
                    for ky in 0..k_h {
                        // Input row for this kernel row, accounting for padding.
                        let iy = (oy * stride + ky) as isize - padding as isize;
                        if iy < 0 || iy as usize >= in_h {
                            continue;
                        }
                        for kx in 0..k_w {
                            let ix = (ox * stride + kx) as isize - padding as isize;
                            if ix < 0 || ix as usize >= in_w {
                                continue;
                            }
                            let xv = x[ic * in_h * in_w + iy as usize * in_w + ix as usize];
                            let wv =
                                weights[oc * in_c * k_h * k_w + ic * k_h * k_w + ky * k_w + kx];
                            acc += xv as f64 * wv as f64;
                        }
                    }
                }
                out[oc * out_h * out_w + oy * out_w + ox] = acc as f32;
            }
        }
    }
    Ok(())
}

/// Output spatial dimensions of a 2-D convolution or pooling window.
///
/// # Errors
///
/// Returns [`TensorError::InvalidArgument`] if the window does not fit.
pub fn conv2d_output_dims(
    in_h: usize,
    in_w: usize,
    k_h: usize,
    k_w: usize,
    stride: usize,
    padding: usize,
) -> Result<(usize, usize), TensorError> {
    if stride == 0 {
        return Err(TensorError::InvalidArgument(
            "stride must be non-zero".into(),
        ));
    }
    let padded_h = in_h + 2 * padding;
    let padded_w = in_w + 2 * padding;
    if k_h == 0 || k_w == 0 || k_h > padded_h || k_w > padded_w {
        return Err(TensorError::InvalidArgument(format!(
            "kernel {k_h}x{k_w} does not fit input {in_h}x{in_w} with padding {padding}"
        )));
    }
    Ok(((padded_h - k_h) / stride + 1, (padded_w - k_w) / stride + 1))
}

/// 2-D max pooling over an NCHW single image.
///
/// # Errors
///
/// Returns [`TensorError::LengthMismatch`] / [`TensorError::InvalidArgument`]
/// on bad dimensions.
#[allow(clippy::too_many_arguments)]
pub fn maxpool2d_into(
    x: &[f32],
    out: &mut [f32],
    channels: usize,
    in_h: usize,
    in_w: usize,
    pool: usize,
    stride: usize,
) -> Result<(), TensorError> {
    let (out_h, out_w) = conv2d_output_dims(in_h, in_w, pool, pool, stride, 0)?;
    check_len(x, channels * in_h * in_w)?;
    check_len(out, channels * out_h * out_w)?;
    for c in 0..channels {
        for oy in 0..out_h {
            for ox in 0..out_w {
                let mut best = f32::NEG_INFINITY;
                for py in 0..pool {
                    for px in 0..pool {
                        let v = x[c * in_h * in_w + (oy * stride + py) * in_w + ox * stride + px];
                        if v > best {
                            best = v;
                        }
                    }
                }
                out[c * out_h * out_w + oy * out_w + ox] = best;
            }
        }
    }
    Ok(())
}

/// 2-D average pooling over an NCHW single image.
///
/// # Errors
///
/// Returns [`TensorError::LengthMismatch`] / [`TensorError::InvalidArgument`]
/// on bad dimensions.
pub fn avgpool2d_into(
    x: &[f32],
    out: &mut [f32],
    channels: usize,
    in_h: usize,
    in_w: usize,
    pool: usize,
    stride: usize,
) -> Result<(), TensorError> {
    let (out_h, out_w) = conv2d_output_dims(in_h, in_w, pool, pool, stride, 0)?;
    check_len(x, channels * in_h * in_w)?;
    check_len(out, channels * out_h * out_w)?;
    let denom = (pool * pool) as f64;
    for c in 0..channels {
        for oy in 0..out_h {
            for ox in 0..out_w {
                let mut acc = 0.0f64;
                for py in 0..pool {
                    for px in 0..pool {
                        acc += x[c * in_h * in_w + (oy * stride + py) * in_w + ox * stride + px]
                            as f64;
                    }
                }
                out[c * out_h * out_w + oy * out_w + ox] = (acc / denom) as f32;
            }
        }
    }
    Ok(())
}

/// Rectified linear unit, elementwise: `out[i] = max(x[i], 0)`.
///
/// # Errors
///
/// Returns [`TensorError::LengthMismatch`] if lengths differ.
pub fn relu_into(x: &[f32], out: &mut [f32]) -> Result<(), TensorError> {
    check_len(out, x.len())?;
    for (o, &v) in out.iter_mut().zip(x) {
        *o = if v > 0.0 { v } else { 0.0 };
    }
    Ok(())
}

/// Leaky rectified linear unit with slope `alpha` for negative inputs.
///
/// # Errors
///
/// Returns [`TensorError::LengthMismatch`] if lengths differ.
pub fn leaky_relu_into(x: &[f32], out: &mut [f32], alpha: f32) -> Result<(), TensorError> {
    check_len(out, x.len())?;
    for (o, &v) in out.iter_mut().zip(x) {
        *o = if v > 0.0 { v } else { alpha * v };
    }
    Ok(())
}

/// Numerically-stable softmax: `out[i] = exp(x[i] - max) / Σ exp(x[j] - max)`.
///
/// # Errors
///
/// Returns [`TensorError::LengthMismatch`] if lengths differ or
/// [`TensorError::EmptyInput`] on empty input.
pub fn softmax_into(x: &[f32], out: &mut [f32]) -> Result<(), TensorError> {
    if x.is_empty() {
        return Err(TensorError::EmptyInput);
    }
    check_len(out, x.len())?;
    let max = x.iter().fold(f32::NEG_INFINITY, |m, &v| m.max(v));
    let mut denom = 0.0f64;
    for (o, &v) in out.iter_mut().zip(x) {
        let e = ((v - max) as f64).exp();
        *o = e as f32;
        denom += e;
    }
    for o in out.iter_mut() {
        *o = (*o as f64 / denom) as f32;
    }
    Ok(())
}

/// Sigmoid, elementwise.
///
/// # Errors
///
/// Returns [`TensorError::LengthMismatch`] if lengths differ.
pub fn sigmoid_into(x: &[f32], out: &mut [f32]) -> Result<(), TensorError> {
    check_len(out, x.len())?;
    for (o, &v) in out.iter_mut().zip(x) {
        *o = (1.0 / (1.0 + (-v as f64).exp())) as f32;
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Fixed-point kernels
// ---------------------------------------------------------------------------

/// Fixed-point dense layer with an `i64` accumulator.
///
/// The accumulator holds Q32.32-scaled partial sums, so up to ~2³¹ MAC
/// terms cannot overflow; the final narrowing back to Q16.16 saturates.
///
/// # Errors
///
/// Returns [`TensorError::LengthMismatch`] on dimension disagreement.
pub fn dense_q16_into(
    weights: &[Q16_16],
    bias: &[Q16_16],
    x: &[Q16_16],
    out: &mut [Q16_16],
    inputs: usize,
    outputs: usize,
) -> Result<(), TensorError> {
    DenseArena::single(weights, bias, x, out, inputs, outputs)?;
    for o in 0..outputs {
        let row = &weights[o * inputs..(o + 1) * inputs];
        out[o] = dense_q16_row(row, x, bias[o]);
    }
    Ok(())
}

/// One fixed-point inner product with the widened Q32.32 accumulator.
#[inline]
fn dense_q16_row(row: &[Q16_16], x: &[Q16_16], bias: Q16_16) -> Q16_16 {
    // Q32.32 accumulator: product of two Q16.16 raws is Q32.32.
    let mut acc: i64 = (bias.to_bits() as i64) << Q16_16::FRAC_BITS;
    for (w, xi) in row.iter().zip(x) {
        acc = acc.saturating_add(w.to_bits() as i64 * xi.to_bits() as i64);
    }
    q32_32_to_q16_16(acc)
}

/// Fixed-point dense layer over a batch-major activation arena: the
/// Q16.16 counterpart of [`dense_batch_into`], bit-identical per
/// item to [`dense_q16_into`].
///
/// # Errors
///
/// Same contract as [`dense_batch_into`].
#[allow(clippy::too_many_arguments)]
pub fn dense_q16_batch_into(
    weights: &[Q16_16],
    bias: &[Q16_16],
    src: &[Q16_16],
    dst: &mut [Q16_16],
    inputs: usize,
    outputs: usize,
    batch: usize,
    src_stride: usize,
    dst_stride: usize,
) -> Result<(), TensorError> {
    DenseArena {
        inputs,
        outputs,
        batch,
        src_stride,
        dst_stride,
    }
    .check(weights, bias, src, dst)?;
    for o in 0..outputs {
        let row = &weights[o * inputs..(o + 1) * inputs];
        let b = bias[o];
        // Four items per step, each with its own i64 saturating-add
        // chain reproduced operation for operation, so each lane is
        // bit-identical to `dense_q16_row`.
        let mut item = 0usize;
        while item + 4 <= batch {
            let x0 = &src[item * src_stride..item * src_stride + inputs];
            let x1 = &src[(item + 1) * src_stride..(item + 1) * src_stride + inputs];
            let x2 = &src[(item + 2) * src_stride..(item + 2) * src_stride + inputs];
            let x3 = &src[(item + 3) * src_stride..(item + 3) * src_stride + inputs];
            let seed = (b.to_bits() as i64) << Q16_16::FRAC_BITS;
            let mut a0 = seed;
            let mut a1 = seed;
            let mut a2 = seed;
            let mut a3 = seed;
            for i in 0..inputs {
                let w = row[i].to_bits() as i64;
                a0 = a0.saturating_add(w * x0[i].to_bits() as i64);
                a1 = a1.saturating_add(w * x1[i].to_bits() as i64);
                a2 = a2.saturating_add(w * x2[i].to_bits() as i64);
                a3 = a3.saturating_add(w * x3[i].to_bits() as i64);
            }
            dst[item * dst_stride + o] = q32_32_to_q16_16(a0);
            dst[(item + 1) * dst_stride + o] = q32_32_to_q16_16(a1);
            dst[(item + 2) * dst_stride + o] = q32_32_to_q16_16(a2);
            dst[(item + 3) * dst_stride + o] = q32_32_to_q16_16(a3);
            item += 4;
        }
        while item < batch {
            let x = &src[item * src_stride..item * src_stride + inputs];
            dst[item * dst_stride + o] = dense_q16_row(row, x, b);
            item += 1;
        }
    }
    Ok(())
}

/// Fixed-point ReLU.
///
/// # Errors
///
/// Returns [`TensorError::LengthMismatch`] if lengths differ.
pub fn relu_q16_into(x: &[Q16_16], out: &mut [Q16_16]) -> Result<(), TensorError> {
    check_len(out, x.len())?;
    for (o, &v) in out.iter_mut().zip(x) {
        *o = v.max(Q16_16::ZERO);
    }
    Ok(())
}

/// Fixed-point 2-D convolution (same layout contract as [`conv2d_into`]).
///
/// # Errors
///
/// Returns [`TensorError::LengthMismatch`] / [`TensorError::InvalidArgument`]
/// on bad dimensions.
#[allow(clippy::too_many_arguments)]
pub fn conv2d_q16_into(
    x: &[Q16_16],
    weights: &[Q16_16],
    bias: &[Q16_16],
    out: &mut [Q16_16],
    in_c: usize,
    in_h: usize,
    in_w: usize,
    out_c: usize,
    k_h: usize,
    k_w: usize,
    stride: usize,
    padding: usize,
) -> Result<(), TensorError> {
    let (out_h, out_w) = conv2d_output_dims(in_h, in_w, k_h, k_w, stride, padding)?;
    check_len(x, in_c * in_h * in_w)?;
    check_len(weights, out_c * in_c * k_h * k_w)?;
    check_len(bias, out_c)?;
    check_len(out, out_c * out_h * out_w)?;
    for oc in 0..out_c {
        for oy in 0..out_h {
            for ox in 0..out_w {
                let mut acc: i64 = (bias[oc].to_bits() as i64) << Q16_16::FRAC_BITS;
                for ic in 0..in_c {
                    for ky in 0..k_h {
                        let iy = (oy * stride + ky) as isize - padding as isize;
                        if iy < 0 || iy as usize >= in_h {
                            continue;
                        }
                        for kx in 0..k_w {
                            let ix = (ox * stride + kx) as isize - padding as isize;
                            if ix < 0 || ix as usize >= in_w {
                                continue;
                            }
                            let xv = x[ic * in_h * in_w + iy as usize * in_w + ix as usize];
                            let wv =
                                weights[oc * in_c * k_h * k_w + ic * k_h * k_w + ky * k_w + kx];
                            acc = acc.saturating_add(xv.to_bits() as i64 * wv.to_bits() as i64);
                        }
                    }
                }
                out[oc * out_h * out_w + oy * out_w + ox] = q32_32_to_q16_16(acc);
            }
        }
    }
    Ok(())
}

/// Fixed-point max pooling (same layout contract as [`maxpool2d_into`]).
///
/// # Errors
///
/// Returns [`TensorError::LengthMismatch`] / [`TensorError::InvalidArgument`]
/// on bad dimensions.
pub fn maxpool2d_q16_into(
    x: &[Q16_16],
    out: &mut [Q16_16],
    channels: usize,
    in_h: usize,
    in_w: usize,
    pool: usize,
    stride: usize,
) -> Result<(), TensorError> {
    let (out_h, out_w) = conv2d_output_dims(in_h, in_w, pool, pool, stride, 0)?;
    check_len(x, channels * in_h * in_w)?;
    check_len(out, channels * out_h * out_w)?;
    for c in 0..channels {
        for oy in 0..out_h {
            for ox in 0..out_w {
                let mut best = Q16_16::MIN;
                for py in 0..pool {
                    for px in 0..pool {
                        let v = x[c * in_h * in_w + (oy * stride + py) * in_w + ox * stride + px];
                        best = best.max(v);
                    }
                }
                out[c * out_h * out_w + oy * out_w + ox] = best;
            }
        }
    }
    Ok(())
}

/// Narrows a Q32.32 `i64` accumulator to Q16.16, rounding to nearest
/// (ties toward +inf) and saturating.
fn q32_32_to_q16_16(acc: i64) -> Q16_16 {
    let half = 1i64 << (Q16_16::FRAC_BITS - 1);
    let rounded = acc.saturating_add(half) >> Q16_16::FRAC_BITS;
    if rounded > i32::MAX as i64 {
        Q16_16::MAX
    } else if rounded < i32::MIN as i64 {
        Q16_16::MIN
    } else {
        Q16_16::from_bits(rounded as i32)
    }
}

fn check_len<T>(slice: &[T], expected: usize) -> Result<(), TensorError> {
    if slice.len() != expected {
        Err(TensorError::LengthMismatch {
            expected,
            actual: slice.len(),
        })
    } else {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_into_basic() {
        let a = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]; // 2x3
        let b = [7.0, 8.0, 9.0, 10.0, 11.0, 12.0]; // 3x2
        let mut out = [0.0; 4];
        matmul_into(&a, &b, &mut out, 2, 3, 2).unwrap();
        assert_eq!(out, [58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_into_rejects_bad_lengths() {
        let a = [1.0; 5];
        let b = [1.0; 6];
        let mut out = [0.0; 4];
        assert!(matmul_into(&a, &b, &mut out, 2, 3, 2).is_err());
    }

    #[test]
    fn dense_into_matches_manual() {
        // 2 inputs -> 3 outputs
        let w = [1.0, 0.0, 0.0, 1.0, 1.0, 1.0];
        let b = [0.5, -0.5, 0.0];
        let x = [2.0, 3.0];
        let mut out = [0.0; 3];
        dense_into(&w, &b, &x, &mut out, 2, 3).unwrap();
        assert_eq!(out, [2.5, 2.5, 5.0]);
    }

    #[test]
    fn conv2d_identity_kernel() {
        // 1 channel 3x3 input, 1x1 kernel of weight 1 -> output equals input.
        let x = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0];
        let w = [1.0];
        let b = [0.0];
        let mut out = [0.0; 9];
        conv2d_into(&x, &w, &b, &mut out, 1, 3, 3, 1, 1, 1, 1, 0).unwrap();
        assert_eq!(out, x);
    }

    #[test]
    fn conv2d_sum_kernel() {
        // 2x2 all-ones kernel over 3x3 ramp, stride 1, no padding -> 2x2 window sums.
        let x = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0];
        let w = [1.0, 1.0, 1.0, 1.0];
        let b = [0.0];
        let mut out = [0.0; 4];
        conv2d_into(&x, &w, &b, &mut out, 1, 3, 3, 1, 2, 2, 1, 0).unwrap();
        assert_eq!(out, [12.0, 16.0, 24.0, 28.0]);
    }

    #[test]
    fn conv2d_padding_extends_border() {
        // 1x1 input, 3x3 all-ones kernel, padding 1 -> single output = input value.
        let x = [5.0];
        let w = [1.0; 9];
        let b = [0.0];
        let mut out = [0.0; 1];
        conv2d_into(&x, &w, &b, &mut out, 1, 1, 1, 1, 3, 3, 1, 1).unwrap();
        assert_eq!(out, [5.0]);
    }

    #[test]
    fn conv2d_stride_two() {
        let x = [
            1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0,
        ];
        let w = [1.0];
        let b = [0.0];
        let (oh, ow) = conv2d_output_dims(4, 4, 1, 1, 2, 0).unwrap();
        assert_eq!((oh, ow), (2, 2));
        let mut out = [0.0; 4];
        conv2d_into(&x, &w, &b, &mut out, 1, 4, 4, 1, 1, 1, 2, 0).unwrap();
        assert_eq!(out, [1.0, 3.0, 9.0, 11.0]);
    }

    #[test]
    fn conv2d_multi_channel() {
        // 2 input channels, kernel sums both channels.
        let x = [1.0, 2.0, 3.0, 4.0, 10.0, 20.0, 30.0, 40.0]; // 2x2x2
        let w = [1.0, 1.0]; // out_c=1, in_c=2, 1x1
        let b = [0.0];
        let mut out = [0.0; 4];
        conv2d_into(&x, &w, &b, &mut out, 2, 2, 2, 1, 1, 1, 1, 0).unwrap();
        assert_eq!(out, [11.0, 22.0, 33.0, 44.0]);
    }

    #[test]
    fn output_dims_errors() {
        assert!(conv2d_output_dims(3, 3, 5, 5, 1, 0).is_err());
        assert!(conv2d_output_dims(3, 3, 3, 3, 0, 0).is_err());
        assert!(conv2d_output_dims(3, 3, 0, 1, 1, 0).is_err());
        // Padding makes an otherwise-too-big kernel fit.
        assert_eq!(conv2d_output_dims(3, 3, 5, 5, 1, 1).unwrap(), (1, 1));
    }

    #[test]
    fn maxpool_basic() {
        let x = [
            1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0,
        ];
        let mut out = [0.0; 4];
        maxpool2d_into(&x, &mut out, 1, 4, 4, 2, 2).unwrap();
        assert_eq!(out, [6.0, 8.0, 14.0, 16.0]);
    }

    #[test]
    fn avgpool_basic() {
        let x = [1.0, 2.0, 3.0, 4.0];
        let mut out = [0.0; 1];
        avgpool2d_into(&x, &mut out, 1, 2, 2, 2, 2).unwrap();
        assert_eq!(out, [2.5]);
    }

    #[test]
    fn relu_clamps_negatives() {
        let x = [-1.0, 0.0, 2.0];
        let mut out = [9.0; 3];
        relu_into(&x, &mut out).unwrap();
        assert_eq!(out, [0.0, 0.0, 2.0]);
    }

    #[test]
    fn leaky_relu_scales_negatives() {
        let x = [-2.0, 3.0];
        let mut out = [0.0; 2];
        leaky_relu_into(&x, &mut out, 0.1).unwrap();
        assert_eq!(out[1], 3.0);
        assert!((out[0] - -0.2).abs() < 1e-7);
    }

    #[test]
    fn softmax_sums_to_one_and_is_stable() {
        let x = [1000.0, 1001.0, 1002.0]; // would overflow naive exp
        let mut out = [0.0; 3];
        softmax_into(&x, &mut out).unwrap();
        let total: f32 = out.iter().sum();
        assert!((total - 1.0).abs() < 1e-6);
        assert!(out[2] > out[1] && out[1] > out[0]);
    }

    #[test]
    fn softmax_uniform_for_equal_logits() {
        let x = [0.5; 4];
        let mut out = [0.0; 4];
        softmax_into(&x, &mut out).unwrap();
        for &p in &out {
            assert!((p - 0.25).abs() < 1e-6);
        }
    }

    #[test]
    fn softmax_empty_is_error() {
        let mut out: [f32; 0] = [];
        assert_eq!(softmax_into(&[], &mut out), Err(TensorError::EmptyInput));
    }

    #[test]
    fn sigmoid_midpoint() {
        let x = [0.0, 100.0, -100.0];
        let mut out = [0.0; 3];
        sigmoid_into(&x, &mut out).unwrap();
        assert_eq!(out[0], 0.5);
        assert!(out[1] > 0.999);
        assert!(out[2] < 0.001);
    }

    #[test]
    fn dense_q16_matches_float() {
        let wf = [0.5f32, -0.25, 1.0, 0.75];
        let bf = [0.125f32, -0.5];
        let xf = [2.0f32, 4.0];
        let w: Vec<Q16_16> = wf.iter().map(|&v| Q16_16::from_f32(v)).collect();
        let b: Vec<Q16_16> = bf.iter().map(|&v| Q16_16::from_f32(v)).collect();
        let x: Vec<Q16_16> = xf.iter().map(|&v| Q16_16::from_f32(v)).collect();
        let mut out = [Q16_16::ZERO; 2];
        dense_q16_into(&w, &b, &x, &mut out, 2, 2).unwrap();
        let mut outf = [0.0f32; 2];
        dense_into(&wf, &bf, &xf, &mut outf, 2, 2).unwrap();
        for i in 0..2 {
            assert!((out[i].to_f32() - outf[i]).abs() < 1e-3, "{i}");
        }
    }

    #[test]
    fn conv_q16_matches_float() {
        let xf = [1.0f32, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0];
        let wf = [0.25f32, -0.5, 0.75, 1.0];
        let bf = [0.5f32];
        let x: Vec<Q16_16> = xf.iter().map(|&v| Q16_16::from_f32(v)).collect();
        let w: Vec<Q16_16> = wf.iter().map(|&v| Q16_16::from_f32(v)).collect();
        let b: Vec<Q16_16> = bf.iter().map(|&v| Q16_16::from_f32(v)).collect();
        let mut out = [Q16_16::ZERO; 4];
        conv2d_q16_into(&x, &w, &b, &mut out, 1, 3, 3, 1, 2, 2, 1, 0).unwrap();
        let mut outf = [0.0f32; 4];
        conv2d_into(&xf, &wf, &bf, &mut outf, 1, 3, 3, 1, 2, 2, 1, 0).unwrap();
        for i in 0..4 {
            assert!((out[i].to_f32() - outf[i]).abs() < 1e-3, "{i}");
        }
    }

    #[test]
    fn relu_and_maxpool_q16() {
        let x: Vec<Q16_16> = [-1.0f32, 2.0, -3.0, 4.0]
            .iter()
            .map(|&v| Q16_16::from_f32(v))
            .collect();
        let mut r = vec![Q16_16::ZERO; 4];
        relu_q16_into(&x, &mut r).unwrap();
        assert_eq!(r[0], Q16_16::ZERO);
        assert_eq!(r[1].to_f32(), 2.0);
        let mut p = vec![Q16_16::ZERO; 1];
        maxpool2d_q16_into(&x, &mut p, 1, 2, 2, 2, 2).unwrap();
        assert_eq!(p[0].to_f32(), 4.0);
    }

    #[test]
    fn q16_accumulator_no_premature_saturation() {
        // Many small terms whose Q16.16 pairwise products would be fine but
        // whose partial sums stress the widened accumulator path.
        let n = 1000;
        let w: Vec<Q16_16> = (0..n).map(|_| Q16_16::from_f32(0.01)).collect();
        let x: Vec<Q16_16> = (0..n).map(|_| Q16_16::from_f32(1.0)).collect();
        let b = [Q16_16::ZERO];
        let mut out = [Q16_16::ZERO];
        dense_q16_into(&w, &b, &x, &mut out, n, 1).unwrap();
        // 1000 * 0.01 = 10 (small quantisation error on 0.01 allowed)
        assert!((out[0].to_f32() - 10.0).abs() < 0.01);
    }

    fn ramp(n: usize, scale: f32) -> Vec<f32> {
        (0..n).map(|i| ((i as f32) * scale).sin()).collect()
    }

    #[test]
    fn batched_dense_is_bit_identical_to_per_item() {
        let (inputs, outputs, batch, stride) = (9, 4, 5, 12); // stride > rows: arena slack
        let w = ramp(inputs * outputs, 0.37);
        let b = ramp(outputs, 0.11);
        let mut src = vec![0.0f32; batch * stride];
        for item in 0..batch {
            let x = ramp(inputs, 0.1 + item as f32 * 0.07);
            src[item * stride..item * stride + inputs].copy_from_slice(&x);
        }
        let mut dst = vec![0.0f32; batch * stride];
        dense_batch_into(
            &w, &b, &src, &mut dst, inputs, outputs, batch, stride, stride,
        )
        .unwrap();
        for item in 0..batch {
            let mut solo = vec![0.0f32; outputs];
            let x = &src[item * stride..item * stride + inputs];
            dense_into(&w, &b, x, &mut solo, inputs, outputs).unwrap();
            assert_eq!(
                &dst[item * stride..item * stride + outputs],
                solo.as_slice(),
                "item {item}"
            );
        }
    }

    #[test]
    fn batched_dense_q16_is_bit_identical_to_per_item() {
        let q = |v: &[f32]| -> Vec<Q16_16> { v.iter().map(|&f| Q16_16::from_f32(f)).collect() };
        let (inputs, outputs, batch, stride) = (6, 3, 4, 8);
        let w = q(&ramp(inputs * outputs, 0.37));
        let b = q(&ramp(outputs, 0.11));
        let mut src = vec![Q16_16::ZERO; batch * stride];
        for item in 0..batch {
            let x = q(&ramp(inputs, 0.1 + item as f32 * 0.07));
            src[item * stride..item * stride + inputs].copy_from_slice(&x);
        }
        let mut dst = vec![Q16_16::ZERO; batch * stride];
        dense_q16_batch_into(
            &w, &b, &src, &mut dst, inputs, outputs, batch, stride, stride,
        )
        .unwrap();
        for item in 0..batch {
            let mut solo = vec![Q16_16::ZERO; outputs];
            let x = &src[item * stride..item * stride + inputs];
            dense_q16_into(&w, &b, x, &mut solo, inputs, outputs).unwrap();
            assert_eq!(
                &dst[item * stride..item * stride + outputs],
                solo.as_slice(),
                "item {item}"
            );
        }
    }

    #[test]
    fn batched_dense_rejects_bad_arena_geometry() {
        let w = [1.0f32; 6];
        let b = [0.0f32; 3];
        let src = [0.0f32; 8];
        let mut dst = [0.0f32; 8];
        // Stride smaller than the input row.
        assert!(dense_batch_into(&w, &b, &src, &mut dst, 2, 3, 4, 1, 4).is_err());
        // Arena too short for the batch.
        assert!(dense_batch_into(&w, &b, &src, &mut dst, 2, 3, 5, 4, 4).is_err());
        // Empty batch is a no-op.
        dense_batch_into(&w, &b, &src, &mut dst, 2, 3, 0, 4, 4).unwrap();
    }

    #[test]
    fn batched_dense_rejects_wrapping_arena_sizes() {
        let overflow =
            |r: Result<(), TensorError>| matches!(r, Err(TensorError::InvalidArgument(_)));
        // `inputs * outputs` wraps to 0, so empty weights would pass an
        // unchecked length test; so would the wrapped `(batch-1)*stride + row`.
        let big = 1usize << 63;
        let (w, b) = ([0.0f32; 0], [0.0f32; 2]);
        let (src, mut dst) = ([0.0f32; 4], [0.0f32; 4]);
        assert!(overflow(dense_batch_into(
            &w, &b, &src, &mut dst, big, 2, 2, big, 2
        )));
        let (wq, bq) = ([Q16_16::ZERO; 0], [Q16_16::ZERO; 2]);
        let (srcq, mut dstq) = ([Q16_16::ZERO; 4], [Q16_16::ZERO; 4]);
        assert!(overflow(dense_q16_batch_into(
            &wq, &bq, &srcq, &mut dstq, big, 2, 2, big, 2
        )));
        // Valid parameters, but `(batch - 1) * stride` wraps.
        let (w1, b1) = ([1.0f32], [0.0f32]);
        assert!(overflow(dense_batch_into(
            &w1, &b1, &src, &mut dst, 1, 1, 3, big, 1
        )));
        let (wq1, bq1) = ([Q16_16::ONE], [Q16_16::ZERO]);
        assert!(overflow(dense_q16_batch_into(
            &wq1, &bq1, &srcq, &mut dstq, 1, 1, 3, 1, big
        )));
        // The per-item kernels share the parameter check.
        assert!(matches!(
            dense_into(&w, &b, &src, &mut dst[..2], big, 2),
            Err(TensorError::InvalidArgument(_))
        ));
    }
}
