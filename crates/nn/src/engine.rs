//! Statically-allocated deterministic inference engine.

use safex_tensor::ops;
use safex_tensor::{Shape, Tensor};

use crate::error::NnError;
use crate::harden::domain::Domain;
use crate::harden::HardenDomain;
use crate::layer::Layer;
use crate::model::Model;

/// A named classification result: the argmax class and its score.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Classification {
    /// Predicted class index (argmax over the final activation).
    pub class: usize,
    /// Score of the predicted class (softmax probability when the model
    /// ends in a softmax layer, raw activation otherwise).
    pub confidence: f32,
}

/// Executes a frozen model with zero per-inference heap allocation.
///
/// Generic over the model type: `Engine` (the default, an f32 [`Model`])
/// or [`crate::QEngine`] (`Engine<QModel>`, integer-only Q16.16). Both
/// run the crate's one layer loop, `run_layers`, over a batch-major
/// ping-pong arena pair: [`Engine::infer`] is its batch of one, and
/// [`Engine::infer_batch`] stages every item in the same arenas. The
/// arenas are sized for one item at construction, so single-item
/// inference never allocates; a batch grows them once and later batches
/// of that size or smaller reuse them — a hard requirement in FUSA
/// coding standards, pinned by `tests/alloc_budget.rs`.
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
#[derive(Debug, Clone)]
pub struct Engine<M: HardenDomain = Model> {
    model: M,
    /// Batch-major ping-pong arenas, `batch × max_activation_len` each:
    /// one item's worth from construction, grown on demand, and reused
    /// across layers *and* across calls.
    arena_a: Vec<M::Elem>,
    arena_b: Vec<M::Elem>,
    inferences: u64,
}

impl Engine<Model> {
    /// Mutable model access (fault-injection experiments re-use a built
    /// engine after flipping weights).
    pub fn model_mut(&mut self) -> &mut Model {
        &mut self.model
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
        let mut activations = Vec::with_capacity(self.model.len());
        self.run_batch(&[input], |_, _, activation| {
            activations.push(activation.to_vec());
        })?;
        activations
            .into_iter()
            .enumerate()
            .map(|(i, activation)| {
                let shape = self.model.layer_output_shape(i).expect("one per layer");
                Ok(Tensor::from_vec(shape, activation)?)
            })
            .collect()
    }
}

impl<M: HardenDomain> Engine<M> {
    /// Creates an engine with its arenas sized for one item.
    pub fn new(model: M) -> Self {
        let cap = model.max_activation_len();
        Engine {
            model,
            arena_a: vec![M::Elem::default(); cap],
            arena_b: vec![M::Elem::default(); cap],
            inferences: 0,
        }
    }

    /// The wrapped model.
    pub fn model(&self) -> &M {
        &self.model
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
    pub fn infer(&mut self, input: &[M::Elem]) -> Result<&[M::Elem], NnError> {
        let (len, in_a) = self.run_batch(&[input], |_, _, _| {})?;
        Ok(&self.slab(in_a)[..len])
    }

    /// Convenience: runs inference and returns the argmax
    /// [`Classification`] (ties toward the lower index; a Q16.16 score
    /// converts to `f32` exactly for the magnitudes a classifier head
    /// produces).
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InputShape`] on a wrong-sized input.
    pub fn classify(&mut self, input: &[M::Elem]) -> Result<Classification, NnError> {
        Ok(M::argmax(self.infer(input)?))
    }

    /// [`Engine::classify`] of an `f32` input — the front door decision
    /// channels use (a Q16.16 engine quantises it first).
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InputShape`] on a wrong-sized input.
    pub fn classify_f32(&mut self, input: &[f32]) -> Result<Classification, NnError> {
        let input = M::from_f32(input);
        self.classify(&input)
    }

    /// The arena holding the final activations of the last run.
    fn slab(&self, in_a: bool) -> &[M::Elem] {
        if in_a {
            &self.arena_a
        } else {
            &self.arena_b
        }
    }

    /// Stages the batch in the batch-major arena and runs it through the
    /// layer stack ([`run_layers`], passing `after_layer` on), leaving the
    /// final activations in place. A wrong-sized item fails the batch
    /// before any layer runs.
    ///
    /// Returns `(output_len, output_in_arena_a)`; item `i`'s output lives
    /// at `arena[i * max_activation_len ..][..output_len]`.
    fn run_batch<I: AsRef<[M::Elem]>>(
        &mut self,
        inputs: &[I],
        after_layer: impl FnMut(usize, usize, &mut [M::Elem]),
    ) -> Result<(usize, bool), NnError> {
        let expected = self.model.input_shape();
        if let Some(bad) = inputs.iter().find(|x| x.as_ref().len() != expected.len()) {
            return Err(NnError::InputShape {
                expected,
                actual: bad.as_ref().len(),
            });
        }
        let n = inputs.len();
        let stride = self.model.max_activation_len();
        reserve_arenas(&mut self.arena_a, &mut self.arena_b, n * stride);
        for (slot, input) in self.arena_a.chunks_mut(stride).zip(inputs) {
            slot[..expected.len()].copy_from_slice(input.as_ref());
        }
        let out = run_layers(
            &self.model,
            &mut self.arena_a,
            &mut self.arena_b,
            n,
            after_layer,
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
    pub fn infer_batch<I: AsRef<[M::Elem]>>(
        &mut self,
        inputs: &[I],
    ) -> Result<Vec<Vec<M::Elem>>, NnError> {
        self.map_batch(inputs, <[M::Elem]>::to_vec)
    }

    /// Runs the model over a batch, returning one [`Classification`] per
    /// item. The argmax is taken straight from the arena — no per-item
    /// copy of the output activation is made.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InputShape`] if any item has the wrong length.
    pub fn classify_batch<I: AsRef<[M::Elem]>>(
        &mut self,
        inputs: &[I],
    ) -> Result<Vec<Classification>, NnError> {
        self.map_batch(inputs, M::argmax)
    }

    /// Runs the batch and maps each item's final activation, in order.
    fn map_batch<I: AsRef<[M::Elem]>, O>(
        &mut self,
        inputs: &[I],
        f: impl Fn(&[M::Elem]) -> O,
    ) -> Result<Vec<O>, NnError> {
        if inputs.is_empty() {
            return Ok(Vec::new());
        }
        let (out_len, in_a) = self.run_batch(inputs, |_, _, _| {})?;
        let stride = self.model.max_activation_len();
        Ok(self
            .slab(in_a)
            .chunks(stride)
            .take(inputs.len())
            .map(|item| f(&item[..out_len]))
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
/// batch-major ping-pong arena — the one layer loop in the crate, behind
/// [`Engine`] (single items and batches), guard calibration, the hardened
/// engines and the trainer's forward pass, for f32 and Q16.16 models
/// alike.
///
/// Dense layers run the batched kernel (each weight row streamed once
/// per batch); every other layer runs per item over its arena slot.
/// After each layer, `after_layer(layer, item, activation)` sees every
/// item's fresh output, items in order: the hook the hardened engine
/// injects activation faults and runs its guards from. Returns
/// `(output_len, output_in_arena_a)`. Each item's output is the same bits
/// whatever `n` is: the batched dense kernel's batch of one is the
/// per-item kernel.
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
