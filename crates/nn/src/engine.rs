//! Statically-allocated deterministic inference engine.

use safex_tensor::ops;
use safex_tensor::{Shape, Tensor};

use crate::error::NnError;
use crate::harden::domain::Domain;
use crate::layer::Layer;
use crate::model::Model;

/// Executes a frozen [`Model`] with zero per-inference heap allocation.
///
/// The engine owns two ping-pong activation buffers sized at construction
/// to the model's largest activation ([`Model::max_activation_len`]).
/// [`Engine::infer`] copies the input into one buffer and alternates
/// between the two as it walks the layers, so no allocation happens on the
/// hot path — a hard requirement in FUSA coding standards.
///
/// Determinism: kernels come from [`safex_tensor::ops`], which fix both the
/// accumulation order and the accumulator width. Two calls with the same
/// input produce bit-identical outputs (asserted by this module's tests and
/// measured by experiment E5).
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), safex_nn::NnError> {
/// use safex_nn::{Engine, model::ModelBuilder};
/// use safex_tensor::{DetRng, Shape};
///
/// let mut rng = DetRng::new(3);
/// let model = ModelBuilder::new(Shape::vector(2))
///     .dense(4, &mut rng)?
///     .relu()
///     .dense(2, &mut rng)?
///     .softmax()
///     .build()?;
/// let mut engine = Engine::new(model);
/// let out = engine.infer(&[1.0, -1.0])?;
/// assert_eq!(out.len(), 2);
/// # Ok(())
/// # }
/// ```
/// A named classification result: the argmax class and its score.
///
/// Replaces the old anonymous `(usize, f32)` tuple so call sites say
/// `c.class` / `c.confidence` instead of `.0` / `.1`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Classification {
    /// Predicted class index (argmax over the final activation).
    pub class: usize,
    /// Score of the predicted class (softmax probability when the model
    /// ends in a softmax layer, raw activation otherwise).
    pub confidence: f32,
}

#[derive(Debug, Clone)]
pub struct Engine {
    model: Model,
    buf_a: Vec<f32>,
    buf_b: Vec<f32>,
    /// Batch-major ping-pong arenas for [`Engine::infer_batch`] /
    /// [`Engine::classify_batch`]: `batch × max_activation_len` each,
    /// allocated on first batch use, grown on demand, and reused across
    /// layers *and* across calls.
    arena_a: Vec<f32>,
    arena_b: Vec<f32>,
    inferences: u64,
}

impl Engine {
    /// Creates an engine, pre-allocating all activation buffers.
    pub fn new(model: Model) -> Self {
        let cap = model.max_activation_len();
        Engine {
            model,
            buf_a: vec![0.0; cap],
            buf_b: vec![0.0; cap],
            arena_a: Vec::new(),
            arena_b: Vec::new(),
            inferences: 0,
        }
    }

    /// The wrapped model.
    pub fn model(&self) -> &Model {
        &self.model
    }

    /// Mutable model access (fault-injection experiments re-use a built
    /// engine after flipping weights).
    pub fn model_mut(&mut self) -> &mut Model {
        &mut self.model
    }

    /// Consumes the engine and returns the model.
    pub fn into_model(self) -> Model {
        self.model
    }

    /// Number of completed inferences since construction.
    pub fn inference_count(&self) -> u64 {
        self.inferences
    }

    /// Runs the model on `input`, returning the final activation.
    ///
    /// No heap allocation occurs in this method.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InputShape`] if `input.len()` differs from the
    /// model's input element count.
    pub fn infer(&mut self, input: &[f32]) -> Result<&[f32], NnError> {
        let expected = self.model.input_shape();
        if input.len() != expected.len() {
            return Err(NnError::InputShape {
                expected,
                actual: input.len(),
            });
        }
        self.buf_a[..input.len()].copy_from_slice(input);
        let mut cur_shape = expected;
        let mut cur_in_a = true;
        for (i, layer) in self.model.layers().iter().enumerate() {
            let out_shape = self
                .model
                .layer_output_shape(i)
                .expect("layer index in range");
            let (src, dst) = if cur_in_a {
                (&self.buf_a, &mut self.buf_b)
            } else {
                (&self.buf_b, &mut self.buf_a)
            };
            run_layer(
                layer,
                &src[..cur_shape.len()],
                &mut dst[..out_shape.len()],
                &cur_shape,
            )?;
            cur_shape = out_shape;
            cur_in_a = !cur_in_a;
        }
        self.inferences += 1;
        let out = if cur_in_a { &self.buf_a } else { &self.buf_b };
        Ok(&out[..cur_shape.len()])
    }

    /// Runs the model and returns every intermediate activation as an
    /// owned [`Tensor`] (input excluded, one entry per layer).
    ///
    /// This *does* allocate; it exists for explainers and supervisors that
    /// need to inspect internal activations, not for the deployed hot path.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InputShape`] on a wrong-sized input.
    pub fn infer_traced(&mut self, input: &[f32]) -> Result<Vec<Tensor>, NnError> {
        let expected = self.model.input_shape();
        if input.len() != expected.len() {
            return Err(NnError::InputShape {
                expected,
                actual: input.len(),
            });
        }
        // Same ping-pong discipline as `infer`: the only per-layer
        // allocation is the owned `Tensor` each caller actually asked for
        // (the previous version also built a scratch `Vec` per layer and
        // cloned it into the tensor).
        self.buf_a[..input.len()].copy_from_slice(input);
        let mut activations = Vec::with_capacity(self.model.len());
        let mut cur_shape = expected;
        let mut cur_in_a = true;
        for (i, layer) in self.model.layers().iter().enumerate() {
            let out_shape = self
                .model
                .layer_output_shape(i)
                .expect("layer index in range");
            let (src, dst) = if cur_in_a {
                (&self.buf_a, &mut self.buf_b)
            } else {
                (&self.buf_b, &mut self.buf_a)
            };
            let dst = &mut dst[..out_shape.len()];
            run_layer(layer, &src[..cur_shape.len()], dst, &cur_shape)?;
            activations.push(Tensor::from_vec(out_shape, dst.to_vec())?);
            cur_shape = out_shape;
            cur_in_a = !cur_in_a;
        }
        self.inferences += 1;
        Ok(activations)
    }

    /// Convenience: runs inference and returns the argmax
    /// [`Classification`].
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InputShape`] on a wrong-sized input.
    pub fn classify(&mut self, input: &[f32]) -> Result<Classification, NnError> {
        let out = self.infer(input)?;
        Ok(argmax(out))
    }

    /// Stages the batch in the batch-major arena and runs it through the
    /// layer stack ([`run_layers`]), leaving the final activations in
    /// place.
    ///
    /// Returns `(output_len, output_in_arena_a)`; item `i`'s output lives
    /// at `arena[i * max_activation_len ..][..output_len]`. Results are
    /// bit-identical to per-item [`Engine::infer`].
    fn run_batch<I: AsRef<[f32]>>(&mut self, inputs: &[I]) -> Result<(usize, bool), NnError> {
        let expected = self.model.input_shape();
        let n = inputs.len();
        let stride = self.model.max_activation_len();
        reserve_arenas(&mut self.arena_a, &mut self.arena_b, n * stride);
        for (item, input) in inputs.iter().enumerate() {
            let input = input.as_ref();
            if input.len() != expected.len() {
                return Err(NnError::InputShape {
                    expected: self.model.input_shape(),
                    actual: input.len(),
                });
            }
            self.arena_a[item * stride..item * stride + input.len()].copy_from_slice(input);
        }
        let out = run_layers(
            &self.model,
            &mut self.arena_a,
            &mut self.arena_b,
            n,
            |_, _, _| {},
        )?;
        self.inferences += n as u64;
        Ok(out)
    }

    /// Runs the model over a batch, returning one owned output per item.
    ///
    /// One arena (re)allocation per call at most — activations for the
    /// whole batch live in two ping-pong slabs reused across layers and
    /// across calls — and dense weight rows are streamed once per batch
    /// instead of once per item. Outputs are bit-identical to calling
    /// [`Engine::infer`] on each item.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InputShape`] if any item has the wrong length;
    /// the whole batch fails.
    pub fn infer_batch<I: AsRef<[f32]>>(&mut self, inputs: &[I]) -> Result<Vec<Vec<f32>>, NnError> {
        if inputs.is_empty() {
            return Ok(Vec::new());
        }
        let (out_len, in_a) = self.run_batch(inputs)?;
        let stride = self.model.max_activation_len();
        let slab = if in_a { &self.arena_a } else { &self.arena_b };
        Ok((0..inputs.len())
            .map(|item| slab[item * stride..item * stride + out_len].to_vec())
            .collect())
    }

    /// Runs the model over a batch, returning one [`Classification`] per
    /// item. The argmax is taken straight from the arena — no per-item
    /// copy of the output activation is made.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InputShape`] if any item has the wrong length.
    pub fn classify_batch<I: AsRef<[f32]>>(
        &mut self,
        inputs: &[I],
    ) -> Result<Vec<Classification>, NnError> {
        if inputs.is_empty() {
            return Ok(Vec::new());
        }
        let (out_len, in_a) = self.run_batch(inputs)?;
        let stride = self.model.max_activation_len();
        let slab = if in_a { &self.arena_a } else { &self.arena_b };
        Ok((0..inputs.len())
            .map(|item| argmax(&slab[item * stride..item * stride + out_len]))
            .collect())
    }
}

/// Grows both batch-major ping-pong arenas to at least `len` elements;
/// they are reused across layers and across calls, never shrunk.
pub(crate) fn reserve_arenas<T: Copy + Default>(
    arena_a: &mut Vec<T>,
    arena_b: &mut Vec<T>,
    len: usize,
) {
    if arena_a.len() < len {
        arena_a.resize(len, T::default());
        arena_b.resize(len, T::default());
    }
}

/// Runs `n` items, staged at `arena_a[item * stride..][..input_len]`
/// (`stride = model.max_activation_len()`), through every layer in the
/// batch-major ping-pong arena — the one layer loop behind
/// [`Engine::infer_batch`], [`crate::QEngine::infer_batch`], guard
/// calibration and the hardened engines, for f32 and Q16.16 models alike.
///
/// Dense layers run the batched kernel (each weight row streamed once
/// per batch); every other layer runs per item over its arena slot.
/// After each layer, `after_layer(layer, item, activation)` sees every
/// item's fresh output, items in order: the hook the hardened engine
/// injects activation faults and runs its guards from. Returns
/// `(output_len, output_in_arena_a)`. Outputs are bit-identical to
/// per-item [`Engine::infer`].
pub(crate) fn run_layers<M: Domain>(
    model: &M,
    arena_a: &mut [M::Elem],
    arena_b: &mut [M::Elem],
    n: usize,
    mut after_layer: impl FnMut(usize, usize, &mut [M::Elem]),
) -> Result<(usize, bool), NnError> {
    let stride = model.max_activation_len();
    let mut cur_shape = model.input_shape();
    let mut cur_in_a = true;
    for (i, layer) in model.layers().iter().enumerate() {
        let out_shape = model.layer_output_shape(i).expect("layer index in range");
        let (src, dst) = if cur_in_a {
            (&*arena_a, &mut *arena_b)
        } else {
            (&*arena_b, &mut *arena_a)
        };
        if !M::run_layer_batch(layer, src, dst, n, stride)? {
            for item in 0..n {
                M::run_layer(
                    layer,
                    &src[item * stride..item * stride + cur_shape.len()],
                    &mut dst[item * stride..item * stride + out_shape.len()],
                    &cur_shape,
                )?;
            }
        }
        for item in 0..n {
            after_layer(
                i,
                item,
                &mut dst[item * stride..item * stride + out_shape.len()],
            );
        }
        cur_shape = out_shape;
        cur_in_a = !cur_in_a;
    }
    Ok((cur_shape.len(), cur_in_a))
}

/// Argmax over a final activation, ties broken toward the lower index.
pub(crate) fn argmax(out: &[f32]) -> Classification {
    let mut best = Classification {
        class: 0,
        confidence: f32::NEG_INFINITY,
    };
    for (i, &v) in out.iter().enumerate() {
        if v > best.confidence {
            best = Classification {
                class: i,
                confidence: v,
            };
        }
    }
    best
}

/// Executes a single layer from `src` into `dst`.
pub(crate) fn run_layer(
    layer: &Layer,
    src: &[f32],
    dst: &mut [f32],
    in_shape: &Shape,
) -> Result<(), NnError> {
    match layer {
        Layer::Dense(d) => {
            ops::dense_into(&d.weights, &d.bias, src, dst, d.inputs, d.outputs)?;
        }
        Layer::Conv2d(c) => {
            let dims = in_shape.dims();
            ops::conv2d_into(
                src,
                &c.weights,
                &c.bias,
                dst,
                dims[0],
                dims[1],
                dims[2],
                c.out_channels,
                c.kernel,
                c.kernel,
                c.stride,
                c.padding,
            )?;
        }
        Layer::MaxPool2d { pool, stride } => {
            let dims = in_shape.dims();
            ops::maxpool2d_into(src, dst, dims[0], dims[1], dims[2], *pool, *stride)?;
        }
        Layer::AvgPool2d { pool, stride } => {
            let dims = in_shape.dims();
            ops::avgpool2d_into(src, dst, dims[0], dims[1], dims[2], *pool, *stride)?;
        }
        Layer::Relu => ops::relu_into(src, dst)?,
        Layer::LeakyRelu { alpha } => ops::leaky_relu_into(src, dst, *alpha)?,
        Layer::Softmax => ops::softmax_into(src, dst)?,
        Layer::Flatten => dst.copy_from_slice(src),
        Layer::BatchNorm(bn) => {
            let scale_shift = bn.scale_shift();
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::{ConstantFill, Init};
    use crate::model::ModelBuilder;
    use safex_tensor::DetRng;

    fn small_mlp() -> Model {
        let mut rng = DetRng::new(42);
        ModelBuilder::new(Shape::vector(3))
            .dense(5, &mut rng)
            .unwrap()
            .relu()
            .dense(2, &mut rng)
            .unwrap()
            .softmax()
            .build()
            .unwrap()
    }

    #[test]
    fn infer_produces_probabilities() {
        let mut e = Engine::new(small_mlp());
        let out = e.infer(&[0.5, -0.5, 1.0]).unwrap().to_vec();
        assert_eq!(out.len(), 2);
        assert!((out.iter().sum::<f32>() - 1.0).abs() < 1e-6);
        assert!(out.iter().all(|&p| (0.0..=1.0).contains(&p)));
    }

    #[test]
    fn infer_rejects_wrong_input_len() {
        let mut e = Engine::new(small_mlp());
        assert!(matches!(
            e.infer(&[1.0, 2.0]),
            Err(NnError::InputShape { .. })
        ));
    }

    #[test]
    fn infer_bit_identical_across_runs() {
        let mut e = Engine::new(small_mlp());
        let input = [0.25, -0.75, 0.125];
        let a = e.infer(&input).unwrap().to_vec();
        for _ in 0..10 {
            let b = e.infer(&input).unwrap().to_vec();
            assert_eq!(a, b, "engine output must be bit-identical");
        }
    }

    #[test]
    fn two_engines_same_model_agree() {
        let m = small_mlp();
        let mut e1 = Engine::new(m.clone());
        let mut e2 = Engine::new(m);
        let input = [1.0, 2.0, 3.0];
        assert_eq!(e1.infer(&input).unwrap(), e2.infer(&input).unwrap());
    }

    #[test]
    fn known_weights_give_known_output() {
        let mut rng = DetRng::new(0);
        // Identity-ish: dense with constant weights 1, inputs sum through.
        let m = ModelBuilder::new(Shape::vector(2))
            .dense_with_init(1, Init::Constant(ConstantFill::new(1.0)), &mut rng)
            .unwrap()
            .build()
            .unwrap();
        let mut e = Engine::new(m);
        assert_eq!(e.infer(&[2.0, 3.0]).unwrap(), &[5.0]);
    }

    #[test]
    fn convnet_end_to_end() {
        let mut rng = DetRng::new(9);
        let m = ModelBuilder::new(Shape::chw(1, 8, 8))
            .conv2d(4, 3, 1, 1, &mut rng)
            .unwrap()
            .relu()
            .maxpool2d(2, 2)
            .unwrap()
            .flatten()
            .dense(3, &mut rng)
            .unwrap()
            .softmax()
            .build()
            .unwrap();
        let mut e = Engine::new(m);
        let input: Vec<f32> = (0..64).map(|i| i as f32 / 64.0).collect();
        let out = e.infer(&input).unwrap();
        assert_eq!(out.len(), 3);
        assert!((out.iter().sum::<f32>() - 1.0).abs() < 1e-5);
    }

    #[test]
    fn infer_traced_matches_infer() {
        let m = small_mlp();
        let mut e = Engine::new(m);
        let input = [0.1, 0.2, 0.3];
        let traced = e.infer_traced(&input).unwrap();
        let direct = e.infer(&input).unwrap();
        assert_eq!(traced.len(), 4);
        assert_eq!(traced.last().unwrap().as_slice(), direct);
        // First activation has the dense layer's output shape.
        assert_eq!(traced[0].shape().dims(), &[5]);
    }

    #[test]
    fn classify_returns_argmax() {
        let mut rng = DetRng::new(0);
        let mut m = ModelBuilder::new(Shape::vector(2))
            .dense_with_init(3, Init::Zeros, &mut rng)
            .unwrap()
            .build()
            .unwrap();
        if let Layer::Dense(d) = &mut m.layers_mut()[0] {
            d.bias_mut().copy_from_slice(&[0.0, 5.0, 1.0]);
        }
        let mut e = Engine::new(m);
        let c = e.classify(&[0.0, 0.0]).unwrap();
        assert_eq!(c.class, 1);
        assert_eq!(c.confidence, 5.0);
    }

    #[test]
    fn inference_counter() {
        let mut e = Engine::new(small_mlp());
        assert_eq!(e.inference_count(), 0);
        e.infer(&[0.0; 3]).unwrap();
        e.infer_traced(&[0.0; 3]).unwrap();
        assert_eq!(e.inference_count(), 2);
        // Failed inference does not count.
        let _ = e.infer(&[0.0; 2]);
        assert_eq!(e.inference_count(), 2);
    }

    #[test]
    fn infer_batch_bit_identical_to_per_item() {
        let m = small_mlp();
        let mut solo = Engine::new(m.clone());
        let mut batched = Engine::new(m);
        let inputs: Vec<Vec<f32>> = (0..7)
            .map(|i| vec![i as f32 * 0.3, -0.5 + i as f32 * 0.1, 0.25])
            .collect();
        let outs = batched.infer_batch(&inputs).unwrap();
        assert_eq!(outs.len(), inputs.len());
        for (input, out) in inputs.iter().zip(&outs) {
            assert_eq!(
                solo.infer(input).unwrap(),
                out.as_slice(),
                "arena batch must match per-item inference"
            );
        }
        assert_eq!(batched.inference_count(), inputs.len() as u64);
        // Re-running with a different batch size reuses the arena.
        let again = batched.infer_batch(&inputs[..3]).unwrap();
        assert_eq!(again.as_slice(), &outs[..3]);
    }

    #[test]
    fn classify_batch_reads_straight_from_arena() {
        let m = small_mlp();
        let mut solo = Engine::new(m.clone());
        let mut batched = Engine::new(m);
        let inputs: Vec<Vec<f32>> = (0..16)
            .map(|i| vec![(i as f32).sin(), (i as f32).cos(), i as f32 * 0.05])
            .collect();
        let classes = batched.classify_batch(&inputs).unwrap();
        for (input, c) in inputs.iter().zip(&classes) {
            assert_eq!(solo.classify(input).unwrap(), *c);
        }
        assert!(batched.classify_batch::<Vec<f32>>(&[]).unwrap().is_empty());
    }

    #[test]
    fn infer_batch_on_convnet_matches_per_item() {
        let mut rng = DetRng::new(9);
        let m = ModelBuilder::new(Shape::chw(1, 8, 8))
            .conv2d(4, 3, 1, 1, &mut rng)
            .unwrap()
            .relu()
            .maxpool2d(2, 2)
            .unwrap()
            .flatten()
            .dense(3, &mut rng)
            .unwrap()
            .softmax()
            .build()
            .unwrap();
        let mut solo = Engine::new(m.clone());
        let mut batched = Engine::new(m);
        let inputs: Vec<Vec<f32>> = (0..4)
            .map(|s| (0..64).map(|i| ((i + s * 7) as f32 / 64.0).sin()).collect())
            .collect();
        let outs = batched.infer_batch(&inputs).unwrap();
        for (input, out) in inputs.iter().zip(&outs) {
            assert_eq!(solo.infer(input).unwrap(), out.as_slice());
        }
    }

    #[test]
    fn infer_batch_rejects_any_bad_item() {
        let mut e = Engine::new(small_mlp());
        let inputs = [vec![0.0f32; 3], vec![0.0f32; 2]];
        assert!(matches!(
            e.infer_batch(&inputs),
            Err(NnError::InputShape { .. })
        ));
    }

    #[test]
    fn flatten_passthrough() {
        let mut rng = DetRng::new(1);
        let m = ModelBuilder::new(Shape::chw(1, 2, 2))
            .flatten()
            .dense_with_init(4, Init::Constant(ConstantFill::new(0.0)), &mut rng)
            .unwrap()
            .build()
            .unwrap();
        let mut e = Engine::new(m);
        let out = e.infer(&[1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(out, &[0.0; 4]);
    }
}
