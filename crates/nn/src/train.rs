//! Reference SGD trainer.
//!
//! SAFEXPLAIN deploys *frozen* models; training happens off-board. This
//! module exists so the experiment suite can produce non-trivial models
//! without an external framework. It implements plain mini-batch SGD with
//! momentum and full backpropagation through every differentiable layer
//! the library offers (dense, conv2d, ReLU/leaky-ReLU, max/avg pooling,
//! flatten, and a final softmax fused with cross-entropy loss).
//!
//! Determinism: given the same model, data, ordering, and hyperparameters,
//! training is bit-reproducible — gradients are accumulated in `f64` in a
//! fixed order and the only randomness (shuffling) comes from an explicit
//! [`DetRng`].

use safex_tensor::{DetRng, Shape};

use crate::engine::run_layers;
use crate::error::NnError;
use crate::layer::Layer;
use crate::model::Model;

/// Hyperparameters for [`Trainer`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SgdConfig {
    /// Learning rate (must be positive and finite).
    pub learning_rate: f32,
    /// Momentum coefficient in `[0, 1)`.
    pub momentum: f32,
    /// Mini-batch size (must be non-zero).
    pub batch_size: usize,
}

impl Default for SgdConfig {
    fn default() -> Self {
        SgdConfig {
            learning_rate: 0.05,
            momentum: 0.9,
            batch_size: 16,
        }
    }
}

impl SgdConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::Training`] for a non-positive learning rate,
    /// momentum outside `[0, 1)`, or a zero batch size.
    pub fn validate(&self) -> Result<(), NnError> {
        if !(self.learning_rate.is_finite() && self.learning_rate > 0.0) {
            return Err(NnError::Training(format!(
                "learning rate {} must be positive and finite",
                self.learning_rate
            )));
        }
        if !(0.0..1.0).contains(&self.momentum) {
            return Err(NnError::Training(format!(
                "momentum {} must be in [0, 1)",
                self.momentum
            )));
        }
        if self.batch_size == 0 {
            return Err(NnError::Training("batch size must be non-zero".into()));
        }
        Ok(())
    }
}

/// Per-layer gradient / momentum-velocity storage.
#[derive(Debug, Clone)]
struct ParamGrads {
    weights: Vec<f64>,
    bias: Vec<f64>,
}

/// Mini-batch SGD trainer with momentum.
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), safex_nn::NnError> {
/// use safex_nn::model::ModelBuilder;
/// use safex_nn::train::{SgdConfig, Trainer};
/// use safex_tensor::{DetRng, Shape};
///
/// let mut rng = DetRng::new(0);
/// let mut model = ModelBuilder::new(Shape::vector(2))
///     .dense(8, &mut rng)?
///     .relu()
///     .dense(2, &mut rng)?
///     .softmax()
///     .build()?;
/// // XOR-ish toy data.
/// let inputs = vec![vec![0.0, 0.0], vec![0.0, 1.0], vec![1.0, 0.0], vec![1.0, 1.0]];
/// let labels = vec![0, 1, 1, 0];
/// let mut trainer = Trainer::new(SgdConfig { learning_rate: 0.5, momentum: 0.9, batch_size: 4 })?;
/// for _ in 0..200 {
///     trainer.train_epoch(&mut model, &inputs, &labels, &mut rng)?;
/// }
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Trainer {
    config: SgdConfig,
    velocity: Vec<Option<ParamGrads>>,
}

impl Trainer {
    /// Creates a trainer after validating the configuration.
    ///
    /// # Errors
    ///
    /// Propagates [`SgdConfig::validate`] failures.
    pub fn new(config: SgdConfig) -> Result<Self, NnError> {
        config.validate()?;
        Ok(Trainer {
            config,
            velocity: Vec::new(),
        })
    }

    /// The active configuration.
    pub fn config(&self) -> &SgdConfig {
        &self.config
    }

    /// Runs one epoch over the dataset (shuffled by `rng`), returning the
    /// mean cross-entropy loss.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::Training`] on malformed data (length mismatch,
    /// empty set, out-of-range labels, model whose final layer is not
    /// softmax) and propagates inference errors.
    pub fn train_epoch(
        &mut self,
        model: &mut Model,
        inputs: &[Vec<f32>],
        labels: &[usize],
        rng: &mut DetRng,
    ) -> Result<f64, NnError> {
        if inputs.is_empty() {
            return Err(NnError::Training("empty training set".into()));
        }
        if inputs.len() != labels.len() {
            return Err(NnError::Training(format!(
                "{} inputs but {} labels",
                inputs.len(),
                labels.len()
            )));
        }
        let mut order: Vec<usize> = (0..inputs.len()).collect();
        rng.shuffle(&mut order);
        let mut total_loss = 0.0f64;
        let mut total_samples = 0usize;
        for chunk in order.chunks(self.config.batch_size) {
            let batch: Vec<(&[f32], usize)> = chunk
                .iter()
                .map(|&i| (inputs[i].as_slice(), labels[i]))
                .collect();
            total_loss += self.train_batch(model, &batch)? * chunk.len() as f64;
            total_samples += chunk.len();
        }
        Ok(total_loss / total_samples as f64)
    }

    /// Runs one SGD step on a batch, returning the batch mean loss.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::Training`] on structural problems (see
    /// [`Trainer::train_epoch`]).
    pub fn train_batch(
        &mut self,
        model: &mut Model,
        batch: &[(&[f32], usize)],
    ) -> Result<f64, NnError> {
        if batch.is_empty() {
            return Err(NnError::Training("empty batch".into()));
        }
        let n_classes = match model.layers().last() {
            Some(Layer::Softmax) => model.output_shape().len(),
            _ => {
                return Err(NnError::Training(
                    "trainer requires a softmax final layer (fused with cross-entropy)".into(),
                ))
            }
        };
        let mut grads = self.zero_grads(model);
        let mut total_loss = 0.0f64;
        for &(input, label) in batch {
            if label >= n_classes {
                return Err(NnError::Training(format!(
                    "label {label} out of range for {n_classes} classes"
                )));
            }
            total_loss += accumulate_sample(model, input, label, &mut grads)?;
        }
        let scale = 1.0 / batch.len() as f64;
        self.apply(model, &grads, scale);
        let mean = total_loss * scale;
        if !mean.is_finite() {
            return Err(NnError::Training(format!("loss diverged to {mean}")));
        }
        Ok(mean)
    }

    fn zero_grads(&mut self, model: &Model) -> Vec<Option<ParamGrads>> {
        if self.velocity.len() != model.len() {
            self.velocity = model
                .layers()
                .iter()
                .map(|l| match l {
                    Layer::Dense(d) => Some(ParamGrads {
                        weights: vec![0.0; d.weights().len()],
                        bias: vec![0.0; d.bias().len()],
                    }),
                    Layer::Conv2d(c) => Some(ParamGrads {
                        weights: vec![0.0; c.weights().len()],
                        bias: vec![0.0; c.bias().len()],
                    }),
                    _ => None,
                })
                .collect();
        }
        model
            .layers()
            .iter()
            .map(|l| match l {
                Layer::Dense(d) => Some(ParamGrads {
                    weights: vec![0.0; d.weights().len()],
                    bias: vec![0.0; d.bias().len()],
                }),
                Layer::Conv2d(c) => Some(ParamGrads {
                    weights: vec![0.0; c.weights().len()],
                    bias: vec![0.0; c.bias().len()],
                }),
                _ => None,
            })
            .collect()
    }

    fn apply(&mut self, model: &mut Model, grads: &[Option<ParamGrads>], scale: f64) {
        let lr = self.config.learning_rate as f64;
        let mu = self.config.momentum as f64;
        for ((layer, grad), vel) in model
            .layers_mut()
            .iter_mut()
            .zip(grads)
            .zip(&mut self.velocity)
        {
            let (Some(grad), Some(vel)) = (grad, vel) else {
                continue;
            };
            let (weights, bias): (&mut [f32], &mut [f32]) = match layer {
                Layer::Dense(d) => (&mut d.weights, &mut d.bias),
                Layer::Conv2d(c) => (&mut c.weights, &mut c.bias),
                _ => continue,
            };
            for ((w, g), v) in weights.iter_mut().zip(&grad.weights).zip(&mut vel.weights) {
                *v = mu * *v + g * scale;
                *w -= (lr * *v) as f32;
            }
            for ((b, g), v) in bias.iter_mut().zip(&grad.bias).zip(&mut vel.bias) {
                *v = mu * *v + g * scale;
                *b -= (lr * *v) as f32;
            }
        }
    }
}

/// Forward + backward for one sample; accumulates parameter gradients and
/// returns the sample cross-entropy loss.
fn accumulate_sample(
    model: &Model,
    input: &[f32],
    label: usize,
    grads: &mut [Option<ParamGrads>],
) -> Result<f64, NnError> {
    let input_shape = model.input_shape();
    if input.len() != input_shape.len() {
        return Err(NnError::InputShape {
            expected: input_shape,
            actual: input.len(),
        });
    }
    // Forward pass through the engine's layer loop, caching activations:
    // acts[0] = input, acts[i+1] = layer i output.
    let n = model.len();
    let stride = model.max_activation_len();
    let (mut arena_a, mut arena_b) = (vec![0.0f32; stride], vec![0.0f32; stride]);
    arena_a[..input.len()].copy_from_slice(input);
    let mut acts: Vec<Vec<f32>> = Vec::with_capacity(n + 1);
    acts.push(input.to_vec());
    run_layers(model, &mut arena_a, &mut arena_b, 1, |_, _, out| {
        acts.push(out.to_vec());
    })?;
    let shapes: Vec<Shape> = std::iter::once(input_shape)
        .chain((0..n).map(|i| model.layer_output_shape(i).expect("index in range")))
        .collect();

    // Loss: cross-entropy against the softmax output.
    let probs = &acts[n];
    let p = probs[label].max(1e-12);
    let loss = -(p as f64).ln();

    // Gradient at the *input of the softmax* (fused softmax + CE):
    // dL/dz_i = p_i - 1[i == label].
    let mut grad: Vec<f32> = probs.to_vec();
    grad[label] -= 1.0;

    // Backward through layers n-2 .. 0 (softmax already consumed).
    for i in (0..n - 1).rev() {
        let layer = &model.layers()[i];
        let x = &acts[i];
        let in_shape = &shapes[i];
        grad = backward_layer(layer, x, in_shape, &grad, &mut grads[i])?;
    }
    let _ = grad;
    Ok(loss)
}

/// Backpropagates `grad_out` through `layer`, returning `grad_in` and
/// accumulating parameter gradients into `pgrads`.
fn backward_layer(
    layer: &Layer,
    x: &[f32],
    in_shape: &Shape,
    grad_out: &[f32],
    pgrads: &mut Option<ParamGrads>,
) -> Result<Vec<f32>, NnError> {
    match layer {
        Layer::Dense(d) => {
            let pg = pgrads.as_mut().expect("dense has grads");
            let mut grad_in = vec![0.0f32; d.inputs];
            for (o, &go) in grad_out.iter().enumerate().take(d.outputs) {
                let go = go as f64;
                pg.bias[o] += go;
                for (i, &xi) in x.iter().enumerate().take(d.inputs) {
                    pg.weights[o * d.inputs + i] += go * xi as f64;
                }
            }
            for (i, gi) in grad_in.iter_mut().enumerate() {
                let mut acc = 0.0f64;
                for (o, &go) in grad_out.iter().enumerate().take(d.outputs) {
                    acc += d.weights[o * d.inputs + i] as f64 * go as f64;
                }
                *gi = acc as f32;
            }
            Ok(grad_in)
        }
        Layer::Conv2d(c) => {
            let pg = pgrads.as_mut().expect("conv has grads");
            let dims = in_shape.dims();
            let (in_c, in_h, in_w) = (dims[0], dims[1], dims[2]);
            let (out_h, out_w) = safex_tensor::ops::conv2d_output_dims(
                in_h, in_w, c.kernel, c.kernel, c.stride, c.padding,
            )?;
            let mut grad_in = vec![0.0f32; in_c * in_h * in_w];
            let k = c.kernel;
            for oc in 0..c.out_channels {
                for oy in 0..out_h {
                    for ox in 0..out_w {
                        let go = grad_out[oc * out_h * out_w + oy * out_w + ox] as f64;
                        if go == 0.0 {
                            continue;
                        }
                        pg.bias[oc] += go;
                        for ic in 0..in_c {
                            for ky in 0..k {
                                let iy = (oy * c.stride + ky) as isize - c.padding as isize;
                                if iy < 0 || iy as usize >= in_h {
                                    continue;
                                }
                                for kx in 0..k {
                                    let ix = (ox * c.stride + kx) as isize - c.padding as isize;
                                    if ix < 0 || ix as usize >= in_w {
                                        continue;
                                    }
                                    let xi = ic * in_h * in_w + iy as usize * in_w + ix as usize;
                                    let wi = oc * in_c * k * k + ic * k * k + ky * k + kx;
                                    pg.weights[wi] += go * x[xi] as f64;
                                    grad_in[xi] += (go * c.weights[wi] as f64) as f32;
                                }
                            }
                        }
                    }
                }
            }
            Ok(grad_in)
        }
        Layer::Relu => Ok(x
            .iter()
            .zip(grad_out)
            .map(|(&xi, &g)| if xi > 0.0 { g } else { 0.0 })
            .collect()),
        Layer::LeakyRelu { alpha } => Ok(x
            .iter()
            .zip(grad_out)
            .map(|(&xi, &g)| if xi > 0.0 { g } else { alpha * g })
            .collect()),
        Layer::MaxPool2d { pool, stride } => {
            let dims = in_shape.dims();
            let (channels, in_h, in_w) = (dims[0], dims[1], dims[2]);
            let (out_h, out_w) =
                safex_tensor::ops::conv2d_output_dims(in_h, in_w, *pool, *pool, *stride, 0)?;
            let mut grad_in = vec![0.0f32; x.len()];
            for c in 0..channels {
                for oy in 0..out_h {
                    for ox in 0..out_w {
                        // Recompute the argmax (first-wins tie break, same
                        // as the forward kernel which uses strict >).
                        let mut best_idx = 0usize;
                        let mut best = f32::NEG_INFINITY;
                        for py in 0..*pool {
                            for px in 0..*pool {
                                let idx =
                                    c * in_h * in_w + (oy * stride + py) * in_w + ox * stride + px;
                                if x[idx] > best {
                                    best = x[idx];
                                    best_idx = idx;
                                }
                            }
                        }
                        grad_in[best_idx] += grad_out[c * out_h * out_w + oy * out_w + ox];
                    }
                }
            }
            Ok(grad_in)
        }
        Layer::AvgPool2d { pool, stride } => {
            let dims = in_shape.dims();
            let (channels, in_h, in_w) = (dims[0], dims[1], dims[2]);
            let (out_h, out_w) =
                safex_tensor::ops::conv2d_output_dims(in_h, in_w, *pool, *pool, *stride, 0)?;
            let mut grad_in = vec![0.0f32; x.len()];
            let inv = 1.0 / (*pool * *pool) as f32;
            for c in 0..channels {
                for oy in 0..out_h {
                    for ox in 0..out_w {
                        let g = grad_out[c * out_h * out_w + oy * out_w + ox] * inv;
                        for py in 0..*pool {
                            for px in 0..*pool {
                                grad_in[c * in_h * in_w
                                    + (oy * stride + py) * in_w
                                    + ox * stride
                                    + px] += g;
                            }
                        }
                    }
                }
            }
            Ok(grad_in)
        }
        Layer::Flatten => Ok(grad_out.to_vec()),
        Layer::BatchNorm(bn) => {
            // Frozen statistics: BN is an affine map, gradient scales by
            // the per-channel scale; gamma/beta are not trained here.
            let scale_shift = bn.scale_shift();
            if in_shape.rank() == 3 {
                let dims = in_shape.dims();
                let plane = dims[1] * dims[2];
                let mut grad_in = vec![0.0f32; x.len()];
                for (c, &(scale, _)) in scale_shift.iter().enumerate() {
                    for i in 0..plane {
                        grad_in[c * plane + i] = grad_out[c * plane + i] * scale;
                    }
                }
                Ok(grad_in)
            } else {
                Ok(grad_out
                    .iter()
                    .zip(scale_shift)
                    .map(|(&g, &(scale, _))| g * scale)
                    .collect())
            }
        }
        Layer::Softmax => Err(NnError::Training(
            "softmax must be the final layer when training".into(),
        )),
        #[allow(unreachable_patterns)]
        other => Err(NnError::Training(format!(
            "layer {} has no backward implementation",
            other.kind_name()
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::ModelBuilder;
    use crate::Engine;
    use safex_tensor::DetRng;

    fn xor_data() -> (Vec<Vec<f32>>, Vec<usize>) {
        (
            vec![
                vec![0.0, 0.0],
                vec![0.0, 1.0],
                vec![1.0, 0.0],
                vec![1.0, 1.0],
            ],
            vec![0, 1, 1, 0],
        )
    }

    #[test]
    fn config_validation() {
        assert!(SgdConfig::default().validate().is_ok());
        assert!(SgdConfig {
            learning_rate: 0.0,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(SgdConfig {
            momentum: 1.0,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(SgdConfig {
            batch_size: 0,
            ..Default::default()
        }
        .validate()
        .is_err());
    }

    #[test]
    fn loss_decreases_on_xor() {
        let mut rng = DetRng::new(17);
        let mut model = ModelBuilder::new(Shape::vector(2))
            .dense(8, &mut rng)
            .unwrap()
            .relu()
            .dense(2, &mut rng)
            .unwrap()
            .softmax()
            .build()
            .unwrap();
        let (inputs, labels) = xor_data();
        let mut trainer = Trainer::new(SgdConfig {
            learning_rate: 0.5,
            momentum: 0.9,
            batch_size: 4,
        })
        .unwrap();
        let first = trainer
            .train_epoch(&mut model, &inputs, &labels, &mut rng)
            .unwrap();
        let mut last = first;
        for _ in 0..300 {
            last = trainer
                .train_epoch(&mut model, &inputs, &labels, &mut rng)
                .unwrap();
        }
        assert!(
            last < first * 0.2,
            "loss should drop substantially: {first} -> {last}"
        );
        // And the model actually solves XOR.
        let mut engine = Engine::new(model);
        for (x, &y) in inputs.iter().zip(&labels) {
            let pred = engine.classify(x).unwrap().class;
            assert_eq!(pred, y, "XOR({x:?})");
        }
    }

    #[test]
    fn training_is_deterministic() {
        let run = || {
            let mut rng = DetRng::new(23);
            let mut model = ModelBuilder::new(Shape::vector(2))
                .dense(4, &mut rng)
                .unwrap()
                .relu()
                .dense(2, &mut rng)
                .unwrap()
                .softmax()
                .build()
                .unwrap();
            let (inputs, labels) = xor_data();
            let mut trainer = Trainer::new(SgdConfig::default()).unwrap();
            for _ in 0..20 {
                trainer
                    .train_epoch(&mut model, &inputs, &labels, &mut rng)
                    .unwrap();
            }
            model.digest()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn requires_softmax_head() {
        let mut rng = DetRng::new(1);
        let mut model = ModelBuilder::new(Shape::vector(2))
            .dense(2, &mut rng)
            .unwrap()
            .build()
            .unwrap();
        let mut trainer = Trainer::new(SgdConfig::default()).unwrap();
        let err = trainer
            .train_batch(&mut model, &[(&[0.0, 0.0][..], 0)])
            .unwrap_err();
        assert!(matches!(err, NnError::Training(_)));
    }

    #[test]
    fn rejects_bad_labels_and_empty() {
        let mut rng = DetRng::new(1);
        let mut model = ModelBuilder::new(Shape::vector(2))
            .dense(2, &mut rng)
            .unwrap()
            .softmax()
            .build()
            .unwrap();
        let mut trainer = Trainer::new(SgdConfig::default()).unwrap();
        assert!(trainer.train_batch(&mut model, &[]).is_err());
        assert!(trainer
            .train_batch(&mut model, &[(&[0.0, 0.0][..], 5)])
            .is_err());
        assert!(trainer.train_epoch(&mut model, &[], &[], &mut rng).is_err());
        assert!(trainer
            .train_epoch(&mut model, &[vec![0.0, 0.0]], &[0, 1], &mut rng)
            .is_err());
    }

    #[test]
    fn convnet_trains_on_patch_detection() {
        // Task: is the bright patch in the left or right half of a 1x6x6 image?
        let mut rng = DetRng::new(31);
        let mut inputs = Vec::new();
        let mut labels = Vec::new();
        for i in 0..60 {
            let mut img = vec![0.0f32; 36];
            let right = i % 2 == 1;
            let x0 = if right { 4 } else { 0 };
            let y0 = (i / 2) % 4;
            for dy in 0..2 {
                for dx in 0..2 {
                    img[(y0 + dy) * 6 + x0 + dx] = 1.0;
                }
            }
            inputs.push(img);
            labels.push(right as usize);
        }
        let mut model = ModelBuilder::new(Shape::chw(1, 6, 6))
            .conv2d(4, 3, 1, 1, &mut rng)
            .unwrap()
            .relu()
            .maxpool2d(2, 2)
            .unwrap()
            .flatten()
            .dense(2, &mut rng)
            .unwrap()
            .softmax()
            .build()
            .unwrap();
        let mut trainer = Trainer::new(SgdConfig {
            learning_rate: 0.1,
            momentum: 0.9,
            batch_size: 10,
        })
        .unwrap();
        for _ in 0..60 {
            trainer
                .train_epoch(&mut model, &inputs, &labels, &mut rng)
                .unwrap();
        }
        let mut engine = Engine::new(model);
        let correct = inputs
            .iter()
            .zip(&labels)
            .filter(|(x, &y)| engine.classify(x).unwrap().class == y)
            .count();
        assert!(
            correct >= 55,
            "convnet should learn patch side: {correct}/60"
        );
    }

    #[test]
    fn gradient_check_dense() {
        // Finite-difference check of dL/dw for a tiny dense+softmax model.
        let mut rng = DetRng::new(41);
        let mut model = ModelBuilder::new(Shape::vector(3))
            .dense(2, &mut rng)
            .unwrap()
            .softmax()
            .build()
            .unwrap();
        let input = [0.3f32, -0.7, 0.9];
        let label = 1usize;

        // Analytic gradient via one batch with lr such that delta = -lr*g.
        let mut grads: Vec<Option<ParamGrads>> = vec![
            Some(ParamGrads {
                weights: vec![0.0; 6],
                bias: vec![0.0; 2],
            }),
            None,
        ];
        accumulate_sample(&model, &input, label, &mut grads).unwrap();
        let analytic = grads[0].as_ref().unwrap().weights.clone();

        // Numeric gradient.
        let loss_fn = |model: &Model| -> f64 {
            let mut g: Vec<Option<ParamGrads>> = vec![
                Some(ParamGrads {
                    weights: vec![0.0; 6],
                    bias: vec![0.0; 2],
                }),
                None,
            ];
            accumulate_sample(model, &input, label, &mut g).unwrap()
        };
        let eps = 1e-3f32;
        for (wi, &grad) in analytic.iter().enumerate().take(6) {
            let mut plus = model.clone();
            if let Layer::Dense(d) = &mut plus.layers_mut()[0] {
                d.weights_mut()[wi] += eps;
            }
            let mut minus = model.clone();
            if let Layer::Dense(d) = &mut minus.layers_mut()[0] {
                d.weights_mut()[wi] -= eps;
            }
            let numeric = (loss_fn(&plus) - loss_fn(&minus)) / (2.0 * eps as f64);
            assert!(
                (numeric - grad).abs() < 1e-3,
                "w[{wi}]: numeric {numeric} vs analytic {grad}"
            );
        }
        let _ = &mut model;
    }
}
