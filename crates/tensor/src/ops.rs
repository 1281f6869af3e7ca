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
//!
//! The f32 dense kernel ([`dense_into`], [`dense_batch_into`]) runs the
//! widest rung of a ladder detected once at runtime: a portable tile on
//! every CPU, and tiles on 512-bit registers where the CPU has `avx512f`
//! (row-lane tiles for one item, column tiles for a batch of two or
//! more). Both rungs run every output's definitional f64 chain, so
//! every non-NaN output is bit-identical across rungs and a NaN output
//! is NaN on both. NaN payloads are not pinned: which NaN operand an add
//! or multiply propagates is the instruction's choice, so a signalling
//! NaN weight meeting a NaN input can leave a different quiet NaN on
//! each rung. A build with `--cfg safex_portable` takes the portable
//! rung on every CPU.

use std::sync::OnceLock;

use crate::error::TensorError;
use crate::fixed::Q16_16;

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
/// once per item. The chains run as tiles of independent chains, so the
/// f64 add latency is hidden at every batch size: with `avx512f`, sixteen
/// (then eight) output rows in zmm lanes against the one item of a batch
/// of one, and in a batch eight rows against eight items (then the last
/// one to seven), each weight block transposed once per tile; on the
/// portable rung eight rows against two items (then one). Rows the wide
/// tiles leave take the portable tile. No tile changes a
/// chain's own operation sequence, so every non-NaN output is
/// bit-identical to running [`dense_into`] on each item on any rung —
/// pinned against a scalar reference for every row and item remainder
/// by `dense_exact_tile_matches_scalar_reference`
/// (`crates/tensor/tests/props.rs`), and rung by rung by the unit tests.
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

/// The f32 dense layer over an arena that [`DenseArena::check`] accepted,
/// on the rung [`DensePath::detected`] picks.
fn dense_arena(weights: &[f32], bias: &[f32], src: &[f32], dst: &mut [f32], arena: DenseArena) {
    dense_arena_with(weights, bias, src, dst, arena, DensePath::detected());
}

/// [`dense_arena`] on a chosen [`DensePath`], so tests can pin every
/// rung against the definition: the rung's own tiles first, then
/// portable tiles of [`TILE_ROWS`] output rows, then one row at a time.
fn dense_arena_with(
    weights: &[f32],
    bias: &[f32],
    src: &[f32],
    dst: &mut [f32],
    arena: DenseArena,
    path: DensePath,
) {
    let mut o = 0;
    #[cfg(target_arch = "x86_64")]
    if path == DensePath::Avx512 {
        o = avx512::dense_rows(weights, bias, src, dst, arena);
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = path;
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

/// How the f32 dense kernel runs: the rungs of its ladder, each
/// bit-identical to the definition on every non-NaN output.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DensePath {
    /// The portable tile; every CPU.
    Portable,
    /// Row-lane tiles on 512-bit registers (x86-64 with `avx512f`).
    Avx512,
}

impl DensePath {
    /// The widest rung this CPU runs, detected once. A build with
    /// `--cfg safex_portable` always takes the portable tile.
    fn detected() -> DensePath {
        static DETECTED: OnceLock<DensePath> = OnceLock::new();
        *DETECTED.get_or_init(|| {
            #[cfg(target_arch = "x86_64")]
            if !cfg!(safex_portable) && avx512::available() {
                return DensePath::Avx512;
            }
            DensePath::Portable
        })
    }
}

/// The AVX-512 rung of the f32 dense kernel: each zmm lane carries one
/// output row's f64 chain, eight rows to a register.
///
/// For a batch of one, a step of eight inputs widens each row's weights
/// and the item's inputs to f64 and forms the row's eight products
/// (exact, as in the portable tile), transposes them in registers so
/// that vector `k` holds input `k`'s product for all eight rows, and
/// adds the eight vectors into the row-lane accumulator in input order.
/// For a batch of two or more, the column tiles transpose the widened
/// weights instead, once per step and tile, so that vector `k` holds
/// input `k`'s weight for all eight rows; every item of the tile then
/// adds `column_k · x_k` for k = 0..8 in input order, its inputs widened
/// into a stack block and broadcast from memory. Either way each lane
/// runs the definitional chain — bias seed, then `acc += w·x` per input
/// in order, one exact product and one rounding per add — and matches
/// the portable tile bit for bit. No multiply is fused into its add:
/// Rust's `avx512f` implies `fma`, but the products and adds are
/// separate intrinsics, which LLVM never contracts without fast-math
/// flags. A batch of one runs tiles of sixteen rows (two accumulators)
/// or eight; a batch of two or more runs eight rows against eight items,
/// then one tile of the last one to seven. Rows past the last multiple
/// of eight are left to the portable tile, and inputs past the last
/// multiple of eight run as a scalar tail on each lane.
#[cfg(target_arch = "x86_64")]
mod avx512 {
    use std::arch::x86_64::{
        __m512d, _mm256_setr_ps, _mm512_add_pd, _mm512_cvtps_pd, _mm512_cvtsd_f64, _mm512_mul_pd,
        _mm512_permutex2var_pd, _mm512_permutexvar_pd, _mm512_set1_epi64, _mm512_set1_pd,
        _mm512_setr_epi64, _mm512_setzero_pd, _mm512_unpackhi_pd, _mm512_unpacklo_pd,
    };

    use super::DenseArena;

    /// Output rows per register: one f64 lane each.
    const LANES: usize = 8;
    /// Inputs per step.
    const STEP: usize = 8;
    /// Inputs per stack block of the column tiles: 32 steps, so an input
    /// row of up to 256 is widened once per call, in 16 KB of stack at
    /// eight items.
    const BLOCK: usize = 32 * STEP;

    /// A row of `inputs` values split into whole steps and the tail.
    type Steps<'a> = (&'a [[f32; STEP]], &'a [f32]);

    /// Runtime check for this rung: `avx512f`.
    pub(super) fn available() -> bool {
        std::arch::is_x86_feature_detected!("avx512f")
    }

    /// Computes output rows `0..k` of the arena for the largest multiple
    /// `k` of eight rows, and returns `k` (0, computing nothing, for an
    /// empty batch or on a CPU without `avx512f`).
    ///
    /// Like the CRC fold's dispatch, this is an entry into
    /// `#[target_feature]` code whose only obligation is the CPU
    /// feature: the intrinsics are safe inside the annotated functions,
    /// every access goes through bounds-checked slices (no raw pointers,
    /// no transmutes), and [`available`] proves at runtime that the CPU
    /// executes them.
    pub(super) fn dense_rows(
        weights: &[f32],
        bias: &[f32],
        src: &[f32],
        dst: &mut [f32],
        arena: DenseArena,
    ) -> usize {
        if !available() || arena.batch == 0 {
            return 0;
        }
        #[allow(unsafe_code)]
        // SAFETY: `available()` just confirmed avx512f on this CPU, the
        // only feature `dense_tiles`, `dense_columns` and their callees
        // enable.
        unsafe {
            if arena.batch >= 2 {
                dense_columns(weights, bias, src, dst, arena)
            } else {
                dense_tiles(weights, bias, src, dst, arena)
            }
        }
    }

    /// [`dense_rows`] for a batch of two or more items: column tiles of
    /// eight items, then one tile of the last one to seven. Out of line,
    /// so that its tiles never change how the batch-of-one tiles are
    /// compiled.
    #[target_feature(enable = "avx512f")]
    #[inline(never)]
    fn dense_columns(
        weights: &[f32],
        bias: &[f32],
        src: &[f32],
        dst: &mut [f32],
        arena: DenseArena,
    ) -> usize {
        let mut item = 0;
        while arena.batch - item >= 8 {
            column_tile::<8>(weights, bias, src, dst, arena, item);
            item += 8;
        }
        match arena.batch - item {
            7 => column_tile::<7>(weights, bias, src, dst, arena, item),
            6 => column_tile::<6>(weights, bias, src, dst, arena, item),
            5 => column_tile::<5>(weights, bias, src, dst, arena, item),
            4 => column_tile::<4>(weights, bias, src, dst, arena, item),
            3 => column_tile::<3>(weights, bias, src, dst, arena, item),
            2 => column_tile::<2>(weights, bias, src, dst, arena, item),
            1 => column_tile::<1>(weights, bias, src, dst, arena, item),
            _ => {}
        }
        arena.outputs / LANES * LANES
    }

    /// One column tile: items `item..item + C` against every whole
    /// eight-row group, one group at a time with one accumulator per
    /// item.
    ///
    /// Each step transposes the group's widened weights once into
    /// columns, shared by all `C` items. The items' inputs are widened
    /// to f64 a [`BLOCK`] at a time into a stack array, so each
    /// broadcast `x_k` is a memory operand of its multiply; when one
    /// block holds every step, the first group's widening serves them
    /// all.
    #[target_feature(enable = "avx512f")]
    #[inline]
    fn column_tile<const C: usize>(
        weights: &[f32],
        bias: &[f32],
        src: &[f32],
        dst: &mut [f32],
        arena: DenseArena,
        item: usize,
    ) {
        let n = arena.inputs;
        let mut xs: [Steps; C] = [(&[], &[]); C];
        for (c, x) in xs.iter_mut().enumerate() {
            *x = src[(item + c) * arena.src_stride..][..n].as_chunks::<STEP>();
        }
        let steps = n / STEP;
        let mut x = [[0.0f64; BLOCK]; C];
        let mut o = 0;
        while arena.outputs - o >= LANES {
            let mut rows: [Steps; LANES] = [(&[], &[]); LANES];
            for (r, row) in rows.iter_mut().enumerate() {
                *row = weights[(o + r) * n..][..n].as_chunks::<STEP>();
            }
            let b = &bias[o..][..LANES];
            let mut acc = [widen(&b[..4], &b[4..]); C];
            let mut start = 0;
            while start < steps {
                let end = steps.min(start + BLOCK / STEP);
                if o == 0 || steps > BLOCK / STEP {
                    for (x_c, xs_c) in x.iter_mut().zip(&xs) {
                        for (wide, v) in x_c.iter_mut().zip(xs_c.0[start..end].as_flattened()) {
                            *wide = *v as f64;
                        }
                    }
                }
                for step in start..end {
                    // This step's weights as columns: vector `k` holds
                    // input `k`'s weight for rows 0–7.
                    let mut lo = [_mm512_setzero_pd(); 4];
                    let mut hi = [_mm512_setzero_pd(); 4];
                    for r in 0..4 {
                        let (a, b) = (&rows[r].0[step], &rows[r + 4].0[step]);
                        lo[r] = widen(&a[..4], &b[..4]);
                        hi[r] = widen(&a[4..], &b[4..]);
                    }
                    let (lo, hi) = (transpose(lo), transpose(hi));
                    let cols = [lo[0], lo[1], lo[2], lo[3], hi[0], hi[1], hi[2], hi[3]];
                    for (x_c, acc_c) in x.iter().zip(&mut acc) {
                        let x_s = &x_c[(step - start) * STEP..][..STEP];
                        for (&col, &x_k) in cols.iter().zip(x_s) {
                            *acc_c = _mm512_add_pd(*acc_c, _mm512_mul_pd(col, _mm512_set1_pd(x_k)));
                        }
                    }
                }
                start = end;
            }
            for (c, &acc_c) in acc.iter().enumerate() {
                for (r, (_, w_tail)) in rows.iter().enumerate() {
                    let mut a = lane(acc_c, r);
                    for (w, x) in w_tail.iter().zip(xs[c].1) {
                        a += *w as f64 * *x as f64;
                    }
                    dst[(item + c) * arena.dst_stride + o + r] = a as f32;
                }
            }
            o += LANES;
        }
    }

    /// [`dense_rows`] for a batch of one: row-lane tiles of sixteen rows,
    /// then eight.
    #[target_feature(enable = "avx512f")]
    fn dense_tiles(
        weights: &[f32],
        bias: &[f32],
        src: &[f32],
        dst: &mut [f32],
        arena: DenseArena,
    ) -> usize {
        let mut o = 0;
        while arena.outputs - o >= 2 * LANES {
            tile::<2>(weights, bias, src, dst, arena, o);
            o += 2 * LANES;
        }
        if arena.outputs - o >= LANES {
            tile::<1>(weights, bias, src, dst, arena, o);
            o += LANES;
        }
        o
    }

    /// Four f32 values from `lo` and four from `hi`, widened to f64 in
    /// one register (`lo` in lanes 0–3). LLVM folds the assembly into a
    /// load and an insert.
    #[target_feature(enable = "avx512f")]
    #[inline]
    fn widen(lo: &[f32], hi: &[f32]) -> __m512d {
        _mm512_cvtps_pd(_mm256_setr_ps(
            lo[0], lo[1], lo[2], lo[3], hi[0], hi[1], hi[2], hi[3],
        ))
    }

    /// Transposes the 4×4 blocks in the two 256-bit halves of `p`: where
    /// `p[r]` holds row `r`'s values of inputs 0–3 in lanes 0–3 and row
    /// `r + 4`'s in lanes 4–7, vector `m` of the result holds input
    /// `m`'s value for rows 0–7 in lanes 0–7.
    #[target_feature(enable = "avx512f")]
    #[inline]
    fn transpose(p: [__m512d; 4]) -> [__m512d; 4] {
        let even = _mm512_setr_epi64(0, 1, 8, 9, 4, 5, 12, 13);
        let odd = _mm512_setr_epi64(2, 3, 10, 11, 6, 7, 14, 15);
        let lo01 = _mm512_unpacklo_pd(p[0], p[1]);
        let hi01 = _mm512_unpackhi_pd(p[0], p[1]);
        let lo23 = _mm512_unpacklo_pd(p[2], p[3]);
        let hi23 = _mm512_unpackhi_pd(p[2], p[3]);
        [
            _mm512_permutex2var_pd(lo01, even, lo23),
            _mm512_permutex2var_pd(hi01, even, hi23),
            _mm512_permutex2var_pd(lo01, odd, lo23),
            _mm512_permutex2var_pd(hi01, odd, hi23),
        ]
    }

    /// Lane `r` of `v`.
    #[target_feature(enable = "avx512f")]
    #[inline]
    fn lane(v: __m512d, r: usize) -> f64 {
        _mm512_cvtsd_f64(_mm512_permutexvar_pd(_mm512_set1_epi64(r as i64), v))
    }

    /// One tile: output rows `o..o + 8G` against the one item of a batch
    /// of one, one accumulator per eight-row group.
    #[target_feature(enable = "avx512f")]
    #[inline]
    fn tile<const G: usize>(
        weights: &[f32],
        bias: &[f32],
        src: &[f32],
        dst: &mut [f32],
        arena: DenseArena,
        o: usize,
    ) {
        // No closures here: a closure inherits this function's target
        // features, and `std::array::from_fn` (which has none) could
        // then not inline it.
        let n = arena.inputs;
        let mut rows: [[Steps; LANES]; G] = [[(&[], &[]); LANES]; G];
        for (g, rows_g) in rows.iter_mut().enumerate() {
            for (r, row) in rows_g.iter_mut().enumerate() {
                *row = weights[(o + g * LANES + r) * n..][..n].as_chunks::<STEP>();
            }
        }
        let xs: Steps = src[..n].as_chunks::<STEP>();
        let mut acc = [_mm512_setzero_pd(); G];
        for (g, acc_g) in acc.iter_mut().enumerate() {
            let b = &bias[o + g * LANES..][..LANES];
            *acc_g = widen(&b[..4], &b[4..]);
        }
        for step in 0..n / STEP {
            // The item's inputs 0–3 (then 4–7) of the step in both
            // halves, to meet rows r and r + 4 side by side.
            let v = &xs.0[step];
            let x = [widen(&v[..4], &v[..4]), widen(&v[4..], &v[4..])];
            for (rows_g, acc_g) in rows.iter().zip(&mut acc) {
                let mut w = [[_mm512_setzero_pd(); 2]; 4];
                for (r, w_r) in w.iter_mut().enumerate() {
                    let (a, b) = (&rows_g[r].0[step], &rows_g[r + 4].0[step]);
                    *w_r = [widen(&a[..4], &b[..4]), widen(&a[4..], &b[4..])];
                }
                for (h, &x_h) in x.iter().enumerate() {
                    let mut products = [_mm512_setzero_pd(); 4];
                    for (p, w_r) in products.iter_mut().zip(&w) {
                        *p = _mm512_mul_pd(w_r[h], x_h);
                    }
                    for p in transpose(products) {
                        *acc_g = _mm512_add_pd(*acc_g, p);
                    }
                }
            }
        }
        for (g, (rows_g, &acc_g)) in rows.iter().zip(&acc).enumerate() {
            for (r, (_, w_tail)) in rows_g.iter().enumerate() {
                let mut a = lane(acc_g, r);
                for (w, x) in w_tail.iter().zip(xs.1) {
                    a += *w as f64 * *x as f64;
                }
                dst[o + g * LANES + r] = a as f32;
            }
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
    check_len(x, volume(&[in_c, in_h, in_w])?)?;
    check_len(weights, volume(&[out_c, in_c, k_h, k_w])?)?;
    check_len(bias, out_c)?;
    check_len(out, volume(&[out_c, out_h, out_w])?)?;

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
/// Returns [`TensorError::InvalidArgument`] if the window does not fit or
/// a padded extent exceeds `isize::MAX`.
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
    // Bounded by `isize::MAX`, so the kernels' signed window offsets
    // cannot wrap either.
    let padded = |n: usize| {
        padding
            .checked_mul(2)
            .and_then(|p| p.checked_add(n))
            .filter(|&p| isize::try_from(p).is_ok())
            .ok_or_else(|| {
                TensorError::InvalidArgument(format!(
                    "input extent {n} with padding {padding} overflows"
                ))
            })
    };
    let (padded_h, padded_w) = (padded(in_h)?, padded(in_w)?);
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
    check_len(x, volume(&[channels, in_h, in_w])?)?;
    check_len(out, volume(&[channels, out_h, out_w])?)?;
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
    check_len(x, volume(&[channels, in_h, in_w])?)?;
    check_len(out, volume(&[channels, out_h, out_w])?)?;
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
    check_len(x, volume(&[in_c, in_h, in_w])?)?;
    check_len(weights, volume(&[out_c, in_c, k_h, k_w])?)?;
    check_len(bias, out_c)?;
    check_len(out, volume(&[out_c, out_h, out_w])?)?;
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
    check_len(x, volume(&[channels, in_h, in_w])?)?;
    check_len(out, volume(&[channels, out_h, out_w])?)?;
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

/// The element count of a tensor with these dimensions, or
/// [`TensorError::InvalidArgument`] when it overflows `usize`.
fn volume(dims: &[usize]) -> Result<usize, TensorError> {
    dims.iter()
        .try_fold(1usize, |n, &d| n.checked_mul(d))
        .ok_or_else(|| {
            TensorError::InvalidArgument(format!("tensor size {dims:?} overflows usize"))
        })
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

    /// The definition of one dense output: seed with the bias as f64,
    /// then `acc += w as f64 * x as f64` for each input in order.
    fn dense_row_exact(row: &[f32], x: &[f32], bias: f32) -> f32 {
        let mut acc = bias as f64;
        for (w, xi) in row.iter().zip(x) {
            acc += *w as f64 * *xi as f64;
        }
        acc as f32
    }

    /// Every [`DensePath`] this CPU runs, portable first; prints a note
    /// for each rung it has to skip.
    fn runnable_dense_paths() -> Vec<DensePath> {
        let mut paths = vec![DensePath::Portable];
        #[cfg(target_arch = "x86_64")]
        if avx512::available() {
            paths.push(DensePath::Avx512);
        }
        if paths.len() == 1 {
            println!("note: this CPU lacks avx512f; the AVX-512 dense rung is not exercised");
        }
        paths
    }

    /// Runs `dense_arena_with` on `path` over a random arena of this
    /// geometry and asserts every output against [`dense_row_exact`]:
    /// bit for bit, except that a NaN output need only be NaN.
    fn check_dense_rung(path: DensePath, arena: DenseArena, value: &mut impl FnMut() -> f32) {
        let DenseArena {
            inputs,
            outputs,
            batch,
            src_stride,
            dst_stride,
        } = arena;
        let w: Vec<f32> = (0..inputs * outputs).map(|_| value()).collect();
        let b: Vec<f32> = (0..outputs).map(|_| value()).collect();
        let src: Vec<f32> = (0..batch * src_stride).map(|_| value()).collect();
        let sentinel = f32::from_bits(0x7fc0_5afe);
        let mut dst = vec![sentinel; batch * dst_stride];
        arena.check(&w, &b, &src, &dst).expect("a valid arena");
        dense_arena_with(&w, &b, &src, &mut dst, arena, path);
        for item in 0..batch {
            let x = &src[item * src_stride..][..inputs];
            let row = &dst[item * dst_stride..][..dst_stride];
            for (o, &got) in row[..outputs].iter().enumerate() {
                let want = dense_row_exact(&w[o * inputs..][..inputs], x, b[o]);
                let same = if want.is_nan() {
                    got.is_nan()
                } else {
                    got.to_bits() == want.to_bits()
                };
                assert!(
                    same,
                    "{path:?} {arena:?}: item {item} row {o}: {:#x} vs {:#x}",
                    got.to_bits(),
                    want.to_bits()
                );
            }
            assert!(
                row[outputs..]
                    .iter()
                    .all(|v| v.to_bits() == sentinel.to_bits()),
                "{path:?} {arena:?}: slack of item {item} written"
            );
        }
    }

    #[test]
    fn dense_detection_follows_the_cpu_unless_built_portable() {
        let expected =
            if cfg!(safex_portable) || !runnable_dense_paths().contains(&DensePath::Avx512) {
                DensePath::Portable
            } else {
                DensePath::Avx512
            };
        assert_eq!(DensePath::detected(), expected);
    }

    #[test]
    fn every_dense_rung_matches_the_definition() {
        // Half the values are ±1 or ±2^30, so ±2^60 products absorb the
        // small ones and then cancel exactly: the f32 result depends on
        // which small terms each partial sum absorbed, i.e. on the add
        // order. Rows 1..=40 cover the 16-row, 8-row and remainder tiles,
        // inputs every residue mod 8 around zero, one and several steps
        // and across the column tiles' 256-input blocks, and batches
        // 0..=17 two full eight-item column tiles and every remainder.
        let mut rng = crate::DetRng::new(25);
        let mut value = || {
            let sign = if rng.below(2) == 0 { 1.0f32 } else { -1.0 };
            match rng.below(4) {
                0 => sign,
                1 => sign * 2f32.powi(30),
                _ => rng.next_f32() * 2.0 - 1.0,
            }
        };
        for path in runnable_dense_paths() {
            for outputs in 1..=40 {
                for inputs in (0..=17).chain([31, 64, 69, 72, 135, 256, 264, 527]) {
                    for batch in 0..=17 {
                        let arena = DenseArena {
                            inputs,
                            outputs,
                            batch,
                            src_stride: inputs + (outputs + batch) % 3,
                            dst_stride: outputs + (inputs + batch) % 3,
                        };
                        check_dense_rung(path, arena, &mut value);
                    }
                }
            }
        }
    }

    #[test]
    fn every_dense_rung_agrees_on_nan_and_infinity() {
        // NaN-ness and every non-NaN bit pattern are pinned; NaN payloads
        // are not (which NaN operand an add or multiply propagates is
        // the instruction's choice).
        let specials = [
            f32::NAN,
            f32::from_bits(0x7f80_0001), // signalling NaN
            f32::from_bits(0xffc0_7777), // negative quiet NaN with a payload
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::MAX,
            -f32::MAX,
            0.0,
            -0.0,
            f32::from_bits(1), // smallest subnormal
        ];
        let mut rng = crate::DetRng::new(26);
        let mut value = || match rng.below(8) {
            0 => specials[rng.below_usize(specials.len())],
            _ => rng.next_f32() * 4.0 - 2.0,
        };
        for path in runnable_dense_paths() {
            for outputs in [1, 8, 9, 16, 24, 33] {
                for inputs in [1, 7, 8, 13, 16, 40] {
                    for batch in 1..=3 {
                        let arena = DenseArena {
                            inputs,
                            outputs,
                            batch,
                            src_stride: inputs + 1,
                            dst_stride: outputs + 2,
                        };
                        check_dense_rung(path, arena, &mut value);
                    }
                }
            }
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

    #[test]
    fn conv_and_pool_reject_wrapping_sizes() {
        let overflow =
            |r: Result<(), TensorError>| matches!(r, Err(TensorError::InvalidArgument(_)));
        // `in_h + 2 * padding` wraps to 6, where the 3×3 window would fit.
        assert!(matches!(
            conv2d_output_dims(6, 6, 3, 3, 1, usize::MAX / 2 + 1),
            Err(TensorError::InvalidArgument(_))
        ));
        // A padded extent past `isize::MAX` would wrap the signed offsets.
        assert!(conv2d_output_dims(6, 6, 3, 3, 1, 1 << 62).is_err());
        // `channels * in_h * in_w` wraps to 0, so an empty input would pass
        // an unchecked length test.
        let (huge, x, mut out) = (1usize << 62, [0.0f32; 0], [0.0f32; 1]);
        assert!(overflow(conv2d_into(
            &x,
            &[1.0; 4],
            &[0.0],
            &mut out,
            huge,
            2,
            2,
            1,
            1,
            1,
            1,
            0
        )));
        assert!(overflow(conv2d_into(
            &[0.0; 4],
            &x,
            &[0.0],
            &mut out,
            1,
            2,
            2,
            huge,
            2,
            2,
            1,
            0
        )));
        assert!(overflow(maxpool2d_into(&x, &mut out, huge, 2, 2, 2, 2)));
        assert!(overflow(avgpool2d_into(&x, &mut out, huge, 2, 2, 2, 2)));
        let (xq, mut outq) = ([Q16_16::ZERO; 0], [Q16_16::ZERO; 1]);
        assert!(overflow(conv2d_q16_into(
            &xq,
            &[Q16_16::ONE; 4],
            &[Q16_16::ZERO],
            &mut outq,
            huge,
            2,
            2,
            1,
            1,
            1,
            1,
            0
        )));
        assert!(overflow(maxpool2d_q16_into(
            &xq, &mut outq, huge, 2, 2, 2, 2
        )));
    }
}
