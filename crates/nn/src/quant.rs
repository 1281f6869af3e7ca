//! Quantised (Q16.16 fixed-point) model representation and its kernels.
//!
//! [`QModel`] is the quantised artefact; [`QEngine`] is not a separate
//! engine but [`Engine`] over it (and [`crate::QEnginePool`] is
//! [`crate::EnginePool`] over it), so the f32 and Q16.16 paths share one
//! arena and one layer loop. What lives here is Q16.16-specific: the
//! quantiser, the layer kernels ([`softmax_q16_into`], [`exp_q16`]) and
//! the argmax the engines reach through the crate's model-type trait.
//!
//! The quantised path is the strongest determinism level the library
//! offers: every operation is integer arithmetic, so results are bit-exact
//! not merely across runs but across *platforms and compilers* — IEEE-754
//! implementation latitude (FMA contraction, extended intermediate
//! precision) cannot perturb them. This is the deployment configuration
//! pillar 3 of the paper argues for, and experiment E5 measures the
//! accuracy cost of it.

use safex_tensor::fixed::Q16_16;
use safex_tensor::ops;
use safex_tensor::Shape;

use crate::engine::{Classification, Engine};
use crate::error::NnError;
use crate::layer::Layer;
use crate::model::Model;

/// A layer with Q16.16 parameters.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum QLayer {
    /// Fully-connected layer.
    Dense {
        /// Row-major `outputs x inputs` weights.
        weights: Vec<Q16_16>,
        /// Bias vector.
        bias: Vec<Q16_16>,
        /// Input feature count.
        inputs: usize,
        /// Output feature count.
        outputs: usize,
    },
    /// Square-kernel 2-D convolution.
    Conv2d {
        /// `out_c x in_c x k x k` weights.
        weights: Vec<Q16_16>,
        /// Bias vector.
        bias: Vec<Q16_16>,
        /// Output channels.
        out_channels: usize,
        /// Kernel side.
        kernel: usize,
        /// Stride.
        stride: usize,
        /// Zero padding.
        padding: usize,
    },
    /// Max pooling.
    MaxPool2d {
        /// Window side.
        pool: usize,
        /// Stride.
        stride: usize,
    },
    /// Average pooling.
    AvgPool2d {
        /// Window side.
        pool: usize,
        /// Stride.
        stride: usize,
    },
    /// ReLU.
    Relu,
    /// Leaky ReLU with fixed-point slope.
    LeakyRelu {
        /// Negative-side slope.
        alpha: Q16_16,
    },
    /// Deterministic integer softmax (see [`softmax_q16_into`]).
    Softmax,
    /// Flatten (no-op on the flat buffer).
    Flatten,
    /// Frozen batch normalisation as per-channel fixed-point
    /// scale-and-shift.
    BatchNorm {
        /// Per-channel `(scale, shift)` pairs.
        scale_shift: Vec<(Q16_16, Q16_16)>,
    },
}

/// A fully quantised model: Q16.16 weights, integer-only execution.
#[derive(Debug, Clone, PartialEq)]
pub struct QModel {
    input_shape: Shape,
    layers: Vec<QLayer>,
    shapes: Vec<Shape>,
    source_digest: u64,
}

impl QModel {
    /// Quantises a float model to Q16.16.
    ///
    /// Weights are converted with round-to-nearest. The conversion records
    /// the source model's digest so evidence chains can link the deployed
    /// quantised artefact back to the trained float model.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::Quantisation`] if any weight saturates the
    /// Q16.16 range (|w| >= 32768) — a model that extreme needs rescaling
    /// before deployment.
    pub fn quantize(model: &Model) -> Result<Self, NnError> {
        let mut layers = Vec::with_capacity(model.len());
        for (i, layer) in model.layers().iter().enumerate() {
            layers.push(quantize_layer(layer, i)?);
        }
        let shapes = (0..model.len())
            .map(|i| model.layer_output_shape(i).expect("index in range"))
            .collect();
        Ok(QModel {
            input_shape: model.input_shape(),
            layers,
            shapes,
            source_digest: model.digest(),
        })
    }

    /// The input shape the model expects.
    pub fn input_shape(&self) -> Shape {
        self.input_shape
    }

    /// The output shape of the final layer.
    pub fn output_shape(&self) -> Shape {
        *self.shapes.last().expect("model is never empty")
    }

    /// Digest of the float model this was quantised from.
    pub fn source_digest(&self) -> u64 {
        self.source_digest
    }

    /// The quantised layers.
    pub fn layers(&self) -> &[QLayer] {
        &self.layers
    }

    /// Mutable access to the quantised layers.
    ///
    /// Exists for fault injection ([`crate::fault::FaultInjector`]) and
    /// repair experiments; ordinary deployment never mutates a quantised
    /// artefact. Structural edits (changing layer counts or feature sizes)
    /// are not supported and will surface as inference errors.
    pub fn layers_mut(&mut self) -> &mut [QLayer] {
        &mut self.layers
    }

    /// The output shape of layer `index` (`None` when out of range).
    pub fn layer_output_shape(&self, index: usize) -> Option<Shape> {
        self.shapes.get(index).copied()
    }

    /// Largest activation buffer needed (elements).
    pub fn max_activation_len(&self) -> usize {
        self.shapes
            .iter()
            .map(Shape::len)
            .chain(std::iter::once(self.input_shape.len()))
            .max()
            .expect("model is never empty")
    }
}

fn quantize_layer(layer: &Layer, index: usize) -> Result<QLayer, NnError> {
    let q = |v: f32| -> Result<Q16_16, NnError> {
        let fixed = Q16_16::from_f32(v);
        if fixed.is_saturated() && v.abs() < 30000.0 {
            // Saturation of a reasonable float means a conversion defect,
            // not a data problem; treat both as quantisation failure.
            return Err(NnError::Quantisation(format!(
                "value {v} saturates Q16.16 at layer {index}"
            )));
        }
        if v.abs() >= 32768.0 {
            return Err(NnError::Quantisation(format!(
                "weight {v} at layer {index} exceeds Q16.16 range"
            )));
        }
        Ok(fixed)
    };
    let qvec = |vs: &[f32]| -> Result<Vec<Q16_16>, NnError> { vs.iter().map(|&v| q(v)).collect() };
    Ok(match layer {
        Layer::Dense(d) => QLayer::Dense {
            weights: qvec(d.weights())?,
            bias: qvec(d.bias())?,
            inputs: d.inputs(),
            outputs: d.outputs(),
        },
        Layer::Conv2d(c) => QLayer::Conv2d {
            weights: qvec(c.weights())?,
            bias: qvec(c.bias())?,
            out_channels: c.out_channels(),
            kernel: c.kernel(),
            stride: c.stride(),
            padding: c.padding(),
        },
        Layer::MaxPool2d { pool, stride } => QLayer::MaxPool2d {
            pool: *pool,
            stride: *stride,
        },
        Layer::AvgPool2d { pool, stride } => QLayer::AvgPool2d {
            pool: *pool,
            stride: *stride,
        },
        Layer::Relu => QLayer::Relu,
        Layer::LeakyRelu { alpha } => QLayer::LeakyRelu { alpha: q(*alpha)? },
        Layer::Softmax => QLayer::Softmax,
        Layer::Flatten => QLayer::Flatten,
        Layer::BatchNorm(bn) => QLayer::BatchNorm {
            scale_shift: bn
                .scale_shift()
                .iter()
                .map(|&(s, t)| Ok((q(s)?, q(t)?)))
                .collect::<Result<Vec<_>, NnError>>()?,
        },
        // `Layer` is non-exhaustive within the crate too once variants
        // grow; keep quantisation total.
        #[allow(unreachable_patterns)]
        other => {
            return Err(NnError::Quantisation(format!(
                "layer {} has no quantised implementation",
                other.kind_name()
            )))
        }
    })
}

/// Integer-only inference engine: [`Engine`] over a [`QModel`], the same
/// arena and layer loop as the f32 engine with every operation Q16.16
/// integer arithmetic.
pub type QEngine = Engine<QModel>;

impl Engine<QModel> {
    /// Quantises an `f32` input into the input arena, runs inference, and
    /// converts the output back to `f32`. Allocates only the returned
    /// `Vec`.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InputShape`] on a wrong-sized input.
    pub fn infer_f32(&mut self, input: &[f32]) -> Result<Vec<f32>, NnError> {
        Ok(self
            .infer_from_f32(input)?
            .iter()
            .map(|v| v.to_f32())
            .collect())
    }
}

/// Argmax over a Q16.16 final activation, ties broken toward the lower
/// index; the score converts to `f32` exactly for the magnitudes a
/// classifier head produces.
pub(crate) fn qargmax(out: &[Q16_16]) -> Classification {
    let mut best = (0usize, Q16_16::MIN);
    for (i, &v) in out.iter().enumerate() {
        if v > best.1 {
            best = (i, v);
        }
    }
    Classification {
        class: best.0,
        confidence: best.1.to_f32(),
    }
}

pub(crate) fn run_qlayer(
    layer: &QLayer,
    src: &[Q16_16],
    dst: &mut [Q16_16],
    in_shape: &Shape,
) -> Result<(), NnError> {
    match layer {
        QLayer::Dense {
            weights,
            bias,
            inputs,
            outputs,
        } => {
            ops::dense_q16_into(weights, bias, src, dst, *inputs, *outputs)?;
        }
        QLayer::Conv2d {
            weights,
            bias,
            out_channels,
            kernel,
            stride,
            padding,
        } => {
            let dims = in_shape.dims();
            ops::conv2d_q16_into(
                src,
                weights,
                bias,
                dst,
                dims[0],
                dims[1],
                dims[2],
                *out_channels,
                *kernel,
                *kernel,
                *stride,
                *padding,
            )?;
        }
        QLayer::MaxPool2d { pool, stride } => {
            let dims = in_shape.dims();
            ops::maxpool2d_q16_into(src, dst, dims[0], dims[1], dims[2], *pool, *stride)?;
        }
        QLayer::AvgPool2d { pool, stride } => {
            avgpool_q16_into(src, dst, in_shape, *pool, *stride)?;
        }
        QLayer::Relu => {
            ops::relu_q16_into(src, dst)?;
        }
        QLayer::LeakyRelu { alpha } => {
            for (o, &v) in dst.iter_mut().zip(src) {
                *o = if v > Q16_16::ZERO { v } else { *alpha * v };
            }
        }
        QLayer::Softmax => softmax_q16_into(src, dst)?,
        QLayer::Flatten => dst.copy_from_slice(src),
        QLayer::BatchNorm { scale_shift } => {
            if in_shape.rank() == 3 {
                let dims = in_shape.dims();
                let plane = dims[1] * dims[2];
                for (c, &(scale, shift)) in scale_shift.iter().enumerate() {
                    for i in 0..plane {
                        dst[c * plane + i] = scale * src[c * plane + i] + shift;
                    }
                }
            } else {
                for ((d, &s), &(scale, shift)) in dst.iter_mut().zip(src).zip(scale_shift) {
                    *d = scale * s + shift;
                }
            }
        }
    }
    Ok(())
}

fn avgpool_q16_into(
    src: &[Q16_16],
    dst: &mut [Q16_16],
    in_shape: &Shape,
    pool: usize,
    stride: usize,
) -> Result<(), NnError> {
    let dims = in_shape.dims();
    let (channels, in_h, in_w) = (dims[0], dims[1], dims[2]);
    let (out_h, out_w) = ops::conv2d_output_dims(in_h, in_w, pool, pool, stride, 0)?;
    let denom = (pool * pool) as i64;
    for c in 0..channels {
        for oy in 0..out_h {
            for ox in 0..out_w {
                let mut acc: i64 = 0;
                for py in 0..pool {
                    for px in 0..pool {
                        acc += src[c * in_h * in_w + (oy * stride + py) * in_w + ox * stride + px]
                            .to_bits() as i64;
                    }
                }
                // Integer division truncates toward zero: deterministic.
                dst[c * out_h * out_w + oy * out_w + ox] = Q16_16::from_bits((acc / denom) as i32);
            }
        }
    }
    Ok(())
}

/// Deterministic integer softmax.
///
/// Computes `exp` with a pure fixed-point approximation (`exp(x) =
/// 2^(x·log₂e)` with a cubic polynomial for the fractional power of two),
/// then normalises with saturating fixed-point division. Because every
/// step is integer arithmetic, the result is bit-exact across platforms.
/// Absolute error of the `exp` approximation is below 0.3 % of the true
/// value over the operating range, which is ample for argmax and
/// threshold-style consumers.
///
/// # Errors
///
/// Returns [`NnError::Tensor`] on an empty input.
pub fn softmax_q16_into(src: &[Q16_16], dst: &mut [Q16_16]) -> Result<(), NnError> {
    if src.is_empty() {
        return Err(NnError::Tensor(safex_tensor::TensorError::EmptyInput));
    }
    let max = src.iter().copied().fold(Q16_16::MIN, Q16_16::max);
    let mut sum = Q16_16::ZERO;
    for (o, &v) in dst.iter_mut().zip(src) {
        let e = exp_q16(v - max);
        *o = e;
        sum += e;
    }
    if sum == Q16_16::ZERO {
        // Cannot happen (exp(0) = 1 for the max element) but stay total.
        sum = Q16_16::EPSILON;
    }
    for o in dst.iter_mut() {
        *o = *o / sum;
    }
    Ok(())
}

/// Fixed-point `exp(x)` for `x <= 0`, flushing to zero below `x < -16`.
///
/// For positive `x` the result saturates at `Q16_16::MAX` once `2^y`
/// overflows the format.
pub fn exp_q16(x: Q16_16) -> Q16_16 {
    // log2(e) in Q16.16.
    const LOG2_E: Q16_16 = Q16_16::from_bits(94_548); // 1.4426950... * 65536
    let y = x * LOG2_E; // exponent base 2
    let y_bits = y.to_bits();
    // Split into integer part n (floor) and fraction f in [0, 1).
    let n = y_bits >> 16;
    let f = Q16_16::from_bits(y_bits & 0xFFFF);
    if n <= -31 {
        return Q16_16::ZERO;
    }
    if n >= 15 {
        return Q16_16::MAX;
    }
    // 2^f via cubic minimax-ish polynomial (coefficients in Q16.16):
    // 2^f ~= 1 + f*(0.695502 + f*(0.226160 + f*0.078024))
    const C1: Q16_16 = Q16_16::from_bits(45_584);
    const C2: Q16_16 = Q16_16::from_bits(14_822);
    const C3: Q16_16 = Q16_16::from_bits(5_114);
    let pow2_f = Q16_16::ONE + f * (C1 + f * (C2 + f * C3));
    // Scale by 2^n with integer shifts.
    let bits = pow2_f.to_bits() as i64;
    let shifted = if n >= 0 { bits << n } else { bits >> (-n) };
    if shifted > i32::MAX as i64 {
        Q16_16::MAX
    } else {
        Q16_16::from_bits(shifted as i32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::{ConstantFill, Init};
    use crate::model::ModelBuilder;
    use crate::Engine;
    use safex_tensor::DetRng;

    fn float_model(seed: u64) -> Model {
        let mut rng = DetRng::new(seed);
        ModelBuilder::new(Shape::vector(4))
            .dense(8, &mut rng)
            .unwrap()
            .relu()
            .dense(3, &mut rng)
            .unwrap()
            .softmax()
            .build()
            .unwrap()
    }

    #[test]
    fn exp_q16_accuracy() {
        for &x in &[-8.0f64, -4.0, -2.0, -1.0, -0.5, -0.1, 0.0, 0.5, 1.0, 2.0] {
            let approx = exp_q16(Q16_16::from_f64(x)).to_f64();
            let exact = x.exp();
            let abs = (approx - exact).abs();
            let rel = abs / exact.max(1e-12);
            // Accept polynomial error (relative) or Q16.16 resolution
            // error (a few LSB absolute) for tiny results.
            assert!(
                rel < 0.004 || abs < 4.0 / 65536.0,
                "exp({x}): approx {approx} vs {exact}, rel {rel}, abs {abs}"
            );
        }
    }

    #[test]
    fn exp_q16_extremes() {
        assert_eq!(exp_q16(Q16_16::from_f32(-40.0)), Q16_16::ZERO);
        assert_eq!(exp_q16(Q16_16::from_f32(100.0)), Q16_16::MAX);
        let one = exp_q16(Q16_16::ZERO).to_f32();
        assert!((one - 1.0).abs() < 0.001);
    }

    #[test]
    fn softmax_q16_sums_to_one() {
        let src: Vec<Q16_16> = [1.0f32, 2.0, 3.0]
            .iter()
            .map(|&v| Q16_16::from_f32(v))
            .collect();
        let mut dst = vec![Q16_16::ZERO; 3];
        softmax_q16_into(&src, &mut dst).unwrap();
        let total: f32 = dst.iter().map(|v| v.to_f32()).sum();
        assert!((total - 1.0).abs() < 0.01, "total {total}");
        assert!(dst[2] > dst[1] && dst[1] > dst[0]);
    }

    #[test]
    fn quantize_round_trips_structure() {
        let m = float_model(1);
        let q = QModel::quantize(&m).unwrap();
        assert_eq!(q.layers().len(), m.len());
        assert_eq!(q.input_shape(), m.input_shape());
        assert_eq!(q.output_shape(), m.output_shape());
        assert_eq!(q.source_digest(), m.digest());
    }

    #[test]
    fn quantize_rejects_huge_weights() {
        let mut m = float_model(1);
        if let Layer::Dense(d) = &mut m.layers_mut()[0] {
            d.weights_mut()[0] = 40000.0;
        }
        assert!(matches!(
            QModel::quantize(&m),
            Err(NnError::Quantisation(_))
        ));
    }

    #[test]
    fn qengine_close_to_float_engine() {
        let m = float_model(2);
        let mut fe = Engine::new(m.clone());
        let mut qe = QEngine::new(QModel::quantize(&m).unwrap());
        let input = [0.25f32, -0.5, 0.75, 0.125];
        let fout = fe.infer(&input).unwrap().to_vec();
        let qout = qe.infer_f32(&input).unwrap();
        for (f, q) in fout.iter().zip(&qout) {
            assert!((f - q).abs() < 0.01, "float {f} vs quant {q}");
        }
    }

    #[test]
    fn qengine_bit_exact_across_runs() {
        let m = float_model(3);
        let mut qe = QEngine::new(QModel::quantize(&m).unwrap());
        let input: Vec<Q16_16> = [0.1f32, 0.2, 0.3, 0.4]
            .iter()
            .map(|&v| Q16_16::from_f32(v))
            .collect();
        let a: Vec<Q16_16> = qe.infer(&input).unwrap().to_vec();
        for _ in 0..5 {
            let b: Vec<Q16_16> = qe.infer(&input).unwrap().to_vec();
            assert_eq!(a, b);
        }
    }

    #[test]
    fn qengine_classify() {
        let mut rng = DetRng::new(0);
        let mut m = ModelBuilder::new(Shape::vector(2))
            .dense_with_init(3, Init::Zeros, &mut rng)
            .unwrap()
            .build()
            .unwrap();
        if let Layer::Dense(d) = &mut m.layers_mut()[0] {
            d.bias_mut().copy_from_slice(&[0.0, 1.0, 3.0]);
        }
        let mut qe = QEngine::new(QModel::quantize(&m).unwrap());
        let input = [Q16_16::ZERO, Q16_16::ZERO];
        let c = qe.classify(&input).unwrap();
        assert_eq!(c.class, 2);
        assert_eq!(c.confidence, 3.0);
    }

    #[test]
    fn qengine_batch_is_bit_identical_to_per_item() {
        let m = float_model(7);
        let q = QModel::quantize(&m).unwrap();
        let mut per_item = QEngine::new(q.clone());
        let mut batched = QEngine::new(q);
        let mut rng = DetRng::new(42);
        let inputs: Vec<Vec<Q16_16>> = (0..7)
            .map(|_| {
                (0..4)
                    .map(|_| Q16_16::from_f32(rng.next_f32() * 2.0 - 1.0))
                    .collect()
            })
            .collect();
        let batch_out = batched.infer_batch(&inputs).unwrap();
        for (input, out) in inputs.iter().zip(&batch_out) {
            assert_eq!(per_item.infer(input).unwrap(), out.as_slice());
        }
        let classes = batched.classify_batch(&inputs).unwrap();
        for (input, c) in inputs.iter().zip(&classes) {
            assert_eq!(per_item.classify(input).unwrap(), *c);
        }
        assert_eq!(batched.inference_count(), 14);
        // Smaller follow-up batch reuses the arena; empty batch is a no-op.
        let again = batched.infer_batch(&inputs[..3]).unwrap();
        assert_eq!(again.len(), 3);
        assert_eq!(again[0], batch_out[0]);
        assert!(batched.infer_batch::<Vec<Q16_16>>(&[]).unwrap().is_empty());
        assert!(matches!(
            batched.infer_batch(&[vec![Q16_16::ZERO; 3]]),
            Err(NnError::InputShape { .. })
        ));
    }

    #[test]
    fn qengine_rejects_wrong_input() {
        let m = float_model(4);
        let mut qe = QEngine::new(QModel::quantize(&m).unwrap());
        assert!(matches!(
            qe.infer(&[Q16_16::ZERO; 3]),
            Err(NnError::InputShape { .. })
        ));
    }

    #[test]
    fn quantised_convnet_runs() {
        let mut rng = DetRng::new(5);
        let m = ModelBuilder::new(Shape::chw(1, 6, 6))
            .conv2d(2, 3, 1, 0, &mut rng)
            .unwrap()
            .relu()
            .avgpool2d(2, 2)
            .unwrap()
            .flatten()
            .dense(2, &mut rng)
            .unwrap()
            .softmax()
            .build()
            .unwrap();
        let mut fe = Engine::new(m.clone());
        let mut qe = QEngine::new(QModel::quantize(&m).unwrap());
        let input: Vec<f32> = (0..36).map(|i| (i as f32 - 18.0) / 36.0).collect();
        let fout = fe.infer(&input).unwrap().to_vec();
        let qout = qe.infer_f32(&input).unwrap();
        for (f, q) in fout.iter().zip(&qout) {
            assert!((f - q).abs() < 0.02, "float {f} vs quant {q}");
        }
    }

    #[test]
    fn leaky_relu_quantised() {
        let mut rng = DetRng::new(6);
        let m = ModelBuilder::new(Shape::vector(2))
            .dense_with_init(2, Init::Constant(ConstantFill::new(1.0)), &mut rng)
            .unwrap()
            .leaky_relu(0.5)
            .build()
            .unwrap();
        let mut qe = QEngine::new(QModel::quantize(&m).unwrap());
        let out = qe.infer_f32(&[-1.0, 0.0]).unwrap();
        // dense: both outputs = -1.0; leaky: -0.5
        assert!((out[0] + 0.5).abs() < 0.01);
        assert!((out[1] + 0.5).abs() < 0.01);
    }
}
