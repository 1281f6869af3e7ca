//! Property-based tests for the tensor substrate.

use proptest::prelude::*;
use safex_tensor::fixed::Q16_16;
use safex_tensor::ops;
use safex_tensor::stats::Histogram;
use safex_tensor::{DetRng, Shape, Tensor};

proptest! {
    // ----- kernels against naive references -----

    #[test]
    fn conv2d_matches_naive_reference(
        seed in any::<u64>(),
        in_h in 3usize..7,
        in_w in 3usize..7,
        k in 1usize..4,
    ) {
        prop_assume!(k <= in_h && k <= in_w);
        let mut rng = DetRng::new(seed);
        let x: Vec<f32> = (0..in_h * in_w).map(|_| rng.next_f32()).collect();
        let w: Vec<f32> = (0..k * k).map(|_| rng.next_f32() - 0.5).collect();
        let b = [0.25f32];
        let (oh, ow) = ops::conv2d_output_dims(in_h, in_w, k, k, 1, 0).expect("dims");
        let mut out = vec![0.0f32; oh * ow];
        ops::conv2d_into(&x, &w, &b, &mut out, 1, in_h, in_w, 1, k, k, 1, 0).expect("conv");
        // Naive reference.
        for oy in 0..oh {
            for ox in 0..ow {
                let mut acc = 0.25f64;
                for ky in 0..k {
                    for kx in 0..k {
                        acc += x[(oy + ky) * in_w + ox + kx] as f64
                            * w[ky * k + kx] as f64;
                    }
                }
                let got = out[oy * ow + ox] as f64;
                prop_assert!((got - acc).abs() < 1e-4, "({oy},{ox}): {got} vs {acc}");
            }
        }
    }

    #[test]
    fn maxpool_output_bounded_by_input_extremes(
        seed in any::<u64>(),
        h in 2usize..8,
        pool in 1usize..3,
    ) {
        prop_assume!(pool <= h);
        let mut rng = DetRng::new(seed);
        let x: Vec<f32> = (0..h * h).map(|_| rng.next_f32()).collect();
        let (oh, ow) = ops::conv2d_output_dims(h, h, pool, pool, pool, 0).expect("dims");
        let mut out = vec![0.0f32; oh * ow];
        ops::maxpool2d_into(&x, &mut out, 1, h, h, pool, pool).expect("pool");
        let max = x.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let min = x.iter().copied().fold(f32::INFINITY, f32::min);
        for &v in &out {
            prop_assert!(v <= max && v >= min);
        }
        // The global max always survives pooling with stride == pool and
        // exact tiling.
        if h % pool == 0 {
            let omax = out.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            prop_assert_eq!(omax, max);
        }
    }

    #[test]
    fn avgpool_preserves_global_mean_on_exact_tiling(
        seed in any::<u64>(),
        tiles in 1usize..4,
        pool in 1usize..4,
    ) {
        let h = tiles * pool;
        let mut rng = DetRng::new(seed);
        let x: Vec<f32> = (0..h * h).map(|_| rng.next_f32()).collect();
        let mut out = vec![0.0f32; tiles * tiles];
        ops::avgpool2d_into(&x, &mut out, 1, h, h, pool, pool).expect("pool");
        let in_mean: f64 = x.iter().map(|&v| v as f64).sum::<f64>() / x.len() as f64;
        let out_mean: f64 = out.iter().map(|&v| v as f64).sum::<f64>() / out.len() as f64;
        prop_assert!((in_mean - out_mean).abs() < 1e-5);
    }

    #[test]
    fn dense_is_linear_in_input(
        seed in any::<u64>(),
        inputs in 1usize..6,
        outputs in 1usize..6,
        alpha in -3.0f32..3.0,
    ) {
        let mut rng = DetRng::new(seed);
        let w: Vec<f32> = (0..inputs * outputs).map(|_| rng.next_f32() - 0.5).collect();
        let b = vec![0.0f32; outputs];
        let x: Vec<f32> = (0..inputs).map(|_| rng.next_f32()).collect();
        let xs: Vec<f32> = x.iter().map(|v| v * alpha).collect();
        let mut y = vec![0.0f32; outputs];
        let mut ys = vec![0.0f32; outputs];
        ops::dense_into(&w, &b, &x, &mut y, inputs, outputs).expect("dense");
        ops::dense_into(&w, &b, &xs, &mut ys, inputs, outputs).expect("dense");
        for (a, s) in y.iter().zip(&ys) {
            prop_assert!((a * alpha - s).abs() < 1e-3, "{a} * {alpha} vs {s}");
        }
    }

    // ----- the dense tile against its definition -----

    #[test]
    fn dense_exact_tile_matches_scalar_reference(
        seed in any::<u64>(),
        inputs in 1usize..=40,
        outputs in 1usize..=19,
        batch in 0usize..=9,
        src_slack in 0usize..=3,
        dst_slack in 0usize..=3,
    ) {
        // Half the values are ±1 or ±2^30, so ±2^60 products absorb the
        // small ones and then cancel exactly: the f32 result depends on
        // which small terms each partial sum absorbed, i.e. on the add order.
        let mut rng = DetRng::new(seed);
        let mut value = || {
            let sign = if rng.below(2) == 0 { 1.0f32 } else { -1.0 };
            match rng.below(4) {
                0 => sign,
                1 => sign * 2f32.powi(30),
                _ => rng.next_f32() * 2.0 - 1.0,
            }
        };
        let w: Vec<f32> = (0..inputs * outputs).map(|_| value()).collect();
        let b: Vec<f32> = (0..outputs).map(|_| value()).collect();
        let (src_stride, dst_stride) = (inputs + src_slack, outputs + dst_slack);
        let src: Vec<f32> = (0..batch * src_stride).map(|_| value()).collect();
        let mut dst = vec![f32::NAN; batch * dst_stride];
        ops::dense_batch_into(
            &w, &b, &src, &mut dst, inputs, outputs, batch, src_stride, dst_stride,
        )
        .expect("dense");
        for item in 0..batch {
            let x = &src[item * src_stride..][..inputs];
            let want: Vec<u32> = (0..outputs)
                .map(|o| dense_row_exact(&w[o * inputs..][..inputs], x, b[o]).to_bits())
                .collect();
            let row = &dst[item * dst_stride..][..dst_stride];
            let got: Vec<u32> = row[..outputs].iter().map(|v| v.to_bits()).collect();
            prop_assert_eq!(&got, &want, "batch item {}", item);
            prop_assert!(row[outputs..].iter().all(|v| v.is_nan()), "slack written");
            let mut solo = vec![0.0f32; outputs];
            ops::dense_into(&w, &b, x, &mut solo, inputs, outputs).expect("dense");
            let solo: Vec<u32> = solo.iter().map(|v| v.to_bits()).collect();
            prop_assert_eq!(&solo, &want, "per-item call, item {}", item);
        }
    }

    // ----- fixed point -----

    #[test]
    fn q16_kernels_track_float_kernels(
        seed in any::<u64>(),
        n in 1usize..20,
    ) {
        let mut rng = DetRng::new(seed);
        let wf: Vec<f32> = (0..n).map(|_| rng.next_f32() - 0.5).collect();
        let xf: Vec<f32> = (0..n).map(|_| rng.next_f32() * 2.0 - 1.0).collect();
        let bf = [rng.next_f32()];
        let w: Vec<Q16_16> = wf.iter().map(|&v| Q16_16::from_f32(v)).collect();
        let x: Vec<Q16_16> = xf.iter().map(|&v| Q16_16::from_f32(v)).collect();
        let b = [Q16_16::from_f32(bf[0])];
        let mut outf = [0.0f32];
        let mut outq = [Q16_16::ZERO];
        ops::dense_into(&wf, &bf, &xf, &mut outf, n, 1).expect("dense");
        ops::dense_q16_into(&w, &b, &x, &mut outq, n, 1).expect("dense");
        // Error budget: n+1 quantisations of magnitude <= 2^-16 each plus
        // one result rounding.
        let budget = (n as f32 + 2.0) / 65536.0 * 4.0;
        prop_assert!(
            (outf[0] - outq[0].to_f32()).abs() <= budget,
            "{} vs {} (n={n})", outf[0], outq[0].to_f32()
        );
    }

    #[test]
    fn q16_ordering_preserved_by_conversion(a in -30000.0f32..30000.0, b in -30000.0f32..30000.0) {
        prop_assume!((a - b).abs() > 1.0 / 16384.0); // beyond quantisation
        let (qa, qb) = (Q16_16::from_f32(a), Q16_16::from_f32(b));
        prop_assert_eq!(a < b, qa < qb);
    }

    // ----- RNG -----

    #[test]
    fn fork_streams_do_not_collide(seed in any::<u64>()) {
        let mut parent = DetRng::new(seed);
        let mut a = parent.fork(1);
        let mut b = parent.fork(2);
        let va: Vec<u64> = (0..16).map(|_| a.next_u64()).collect();
        let vb: Vec<u64> = (0..16).map(|_| b.next_u64()).collect();
        prop_assert_ne!(va, vb);
    }

    #[test]
    fn gaussian_values_finite(seed in any::<u64>(), mean in -100.0f64..100.0, std in 0.0f64..50.0) {
        let mut rng = DetRng::new(seed);
        for _ in 0..32 {
            let v = rng.gaussian(mean, std);
            prop_assert!(v.is_finite());
        }
    }

    // ----- histogram -----

    #[test]
    fn histogram_conserves_samples(
        xs in prop::collection::vec(-10.0f64..10.0, 0..100),
        bins in 1usize..20,
    ) {
        let h = Histogram::new(&xs, -10.0, 10.0, bins).expect("histogram");
        prop_assert_eq!(h.total() + h.outliers(), xs.len() as u64);
    }

    // ----- tensors -----

    #[test]
    fn scale_then_sum_matches_sum_then_scale(
        seed in any::<u64>(),
        n in 1usize..64,
        factor in -10.0f32..10.0,
    ) {
        let mut rng = DetRng::new(seed);
        let t = Tensor::uniform(Shape::vector(n), -1.0, 1.0, &mut rng);
        let a = t.scale(factor).sum();
        let b = t.sum() * factor as f64;
        prop_assert!((a - b).abs() < 1e-3, "{a} vs {b}");
    }

    #[test]
    fn matmul_associative_with_vector(
        seed in any::<u64>(),
        m in 1usize..5,
        k in 1usize..5,
        n in 1usize..5,
    ) {
        // (A B) applied dimensions agree: shape checks and values finite.
        let mut rng = DetRng::new(seed);
        let a = Tensor::gaussian(Shape::matrix(m, k), 0.0, 1.0, &mut rng);
        let b = Tensor::gaussian(Shape::matrix(k, n), 0.0, 1.0, &mut rng);
        let ab = a.matmul(&b).expect("matmul");
        prop_assert_eq!(ab.shape().dims(), &[m, n]);
        prop_assert!(ab.all_finite());
    }

}

/// The definition of one dense output: seed with the
/// bias as f64, then `acc += w as f64 * x as f64` for each input in order.
fn dense_row_exact(row: &[f32], x: &[f32], bias: f32) -> f32 {
    let mut acc = bias as f64;
    for (w, xi) in row.iter().zip(x) {
        acc += *w as f64 * *xi as f64;
    }
    acc as f32
}
