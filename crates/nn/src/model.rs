//! Sequential model container and builder.

use std::fmt;

use safex_tensor::{DetRng, Shape};
use safex_trace::Fnv64;

use crate::error::NnError;
use crate::init::Init;
use crate::layer::{Conv2dLayer, DenseLayer, Layer};

/// A frozen, shape-validated sequential model.
///
/// A `Model` is created by [`ModelBuilder`], which validates every layer
/// against the output shape of its predecessor at *construction* time — by
/// the time a `Model` exists, inference cannot fail on shape grounds.
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), safex_nn::NnError> {
/// use safex_nn::model::ModelBuilder;
/// use safex_tensor::{DetRng, Shape};
///
/// let mut rng = DetRng::new(0);
/// let model = ModelBuilder::new(Shape::chw(1, 8, 8))
///     .conv2d(4, 3, 1, 1, &mut rng)?
///     .relu()
///     .maxpool2d(2, 2)?
///     .flatten()
///     .dense(10, &mut rng)?
///     .softmax()
///     .build()?;
/// assert_eq!(model.output_shape().dims(), &[10]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Model {
    input_shape: Shape,
    layers: Vec<Layer>,
    /// `shapes[i]` is the output shape of layer `i`.
    shapes: Vec<Shape>,
}

impl Model {
    /// The input shape the model expects.
    pub fn input_shape(&self) -> Shape {
        self.input_shape
    }

    /// The output shape of the final layer.
    pub fn output_shape(&self) -> Shape {
        *self.shapes.last().expect("model is never empty")
    }

    /// The layers in execution order.
    pub fn layers(&self) -> &[Layer] {
        &self.layers
    }

    /// Mutable access to the layers (used by the trainer and by fault
    /// injection experiments). Shapes are fixed at build time; mutating
    /// layer *dimensions* through this is a logic error, mutating weights
    /// is fine.
    pub fn layers_mut(&mut self) -> &mut [Layer] {
        &mut self.layers
    }

    /// Output shape of layer `i`, or `None` past the end.
    pub fn layer_output_shape(&self, i: usize) -> Option<Shape> {
        self.shapes.get(i).copied()
    }

    /// Total trainable parameter count.
    pub fn param_count(&self) -> usize {
        self.layers.iter().map(Layer::param_count).sum()
    }

    /// Number of layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// Whether the model has no layers (never true for a built model).
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Largest activation buffer (in elements) needed to execute the model,
    /// including the input itself. The inference engine allocates exactly
    /// two buffers of this size.
    pub fn max_activation_len(&self) -> usize {
        self.shapes
            .iter()
            .map(Shape::len)
            .chain(std::iter::once(self.input_shape.len()))
            .max()
            .expect("model is never empty")
    }

    /// A stable 64-bit content digest over the architecture and all
    /// parameters (FNV-1a). Two models with identical structure and
    /// bit-identical weights share a digest; any single-bit weight change
    /// alters it with overwhelming probability.
    ///
    /// Used by `safex-trace` to bind inference evidence to the exact model
    /// that produced it.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv64::new();
        h.write_bytes(b"safex-model-v1");
        for d in self.input_shape.dims() {
            h.write_u64(*d as u64);
        }
        for layer in &self.layers {
            h.write_bytes(layer.kind_name().as_bytes());
            match layer {
                Layer::Dense(d) => {
                    h.write_u64(d.inputs() as u64);
                    h.write_u64(d.outputs() as u64);
                    for w in d.weights() {
                        h.write_u64(w.to_bits() as u64);
                    }
                    for b in d.bias() {
                        h.write_u64(b.to_bits() as u64);
                    }
                }
                Layer::Conv2d(c) => {
                    for v in [
                        c.in_channels(),
                        c.out_channels(),
                        c.kernel(),
                        c.stride(),
                        c.padding(),
                    ] {
                        h.write_u64(v as u64);
                    }
                    for w in c.weights() {
                        h.write_u64(w.to_bits() as u64);
                    }
                    for b in c.bias() {
                        h.write_u64(b.to_bits() as u64);
                    }
                }
                Layer::MaxPool2d { pool, stride } | Layer::AvgPool2d { pool, stride } => {
                    h.write_u64(*pool as u64);
                    h.write_u64(*stride as u64);
                }
                Layer::LeakyRelu { alpha } => h.write_u64(alpha.to_bits() as u64),
                Layer::BatchNorm(bn) => {
                    for slice in [bn.gamma(), bn.beta(), bn.mean(), bn.variance()] {
                        for v in slice {
                            h.write_u64(v.to_bits() as u64);
                        }
                    }
                    h.write_u64(bn.epsilon().to_bits() as u64);
                }
                Layer::Relu | Layer::Softmax | Layer::Flatten => {}
            }
        }
        h.finish()
    }

    /// Folds every `dense -> batchnorm` and `conv2d -> batchnorm` pair
    /// into the parametric layer and replaces the BN with nothing,
    /// returning the number of folds performed.
    ///
    /// Folding `y = s*(Wx + b) + t` gives `W' = s.W` (per output row /
    /// channel) and `b' = s.b + t`, so the folded model is mathematically
    /// identical while executing one fewer pass — the standard FUSA
    /// deployment transform (fewer components to qualify, less jitter).
    pub fn fold_batchnorm(&mut self) -> usize {
        let mut folds = 0usize;
        let mut i = 0usize;
        while i + 1 < self.layers.len() {
            let (scale_shift, foldable) = match (&self.layers[i], &self.layers[i + 1]) {
                (Layer::Dense(d), Layer::BatchNorm(bn)) if bn.channels() == d.outputs() => {
                    (bn.scale_shift().to_vec(), true)
                }
                (Layer::Conv2d(c), Layer::BatchNorm(bn)) if bn.channels() == c.out_channels() => {
                    (bn.scale_shift().to_vec(), true)
                }
                _ => (Vec::new(), false),
            };
            if !foldable {
                i += 1;
                continue;
            }
            match &mut self.layers[i] {
                Layer::Dense(d) => {
                    let inputs = d.inputs();
                    for (o, &(scale, shift)) in scale_shift.iter().enumerate() {
                        for w in &mut d.weights_mut()[o * inputs..(o + 1) * inputs] {
                            *w *= scale;
                        }
                        let bias = &mut d.bias_mut()[o];
                        *bias = *bias * scale + shift;
                    }
                }
                Layer::Conv2d(c) => {
                    let per_filter = c.in_channels() * c.kernel() * c.kernel();
                    for (o, &(scale, shift)) in scale_shift.iter().enumerate() {
                        for w in &mut c.weights_mut()[o * per_filter..(o + 1) * per_filter] {
                            *w *= scale;
                        }
                        let bias = &mut c.bias_mut()[o];
                        *bias = *bias * scale + shift;
                    }
                }
                _ => unreachable!("checked above"),
            }
            // Remove the BN layer and its shape entry.
            self.layers.remove(i + 1);
            self.shapes.remove(i + 1);
            folds += 1;
        }
        folds
    }

    /// One-line architecture summary, e.g.
    /// `"1x8x8 -> conv2d -> relu -> flatten -> dense -> softmax -> 10"`.
    pub fn summary(&self) -> String {
        let mut s = self.input_shape.to_string();
        for layer in &self.layers {
            s.push_str(" -> ");
            s.push_str(layer.kind_name());
        }
        s.push_str(" -> ");
        s.push_str(&self.output_shape().to_string());
        s
    }
}

impl fmt::Display for Model {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Model[{} layers, {} params, {}]",
            self.len(),
            self.param_count(),
            self.summary()
        )
    }
}

/// Incremental builder for [`Model`]; validates shapes as layers are added.
///
/// The builder is *consuming*: each method takes and returns `self`, and
/// failures are deferred — the first error is remembered and reported by
/// [`ModelBuilder::build`], so chains stay ergonomic.
#[derive(Debug)]
pub struct ModelBuilder {
    input_shape: Shape,
    layers: Vec<Layer>,
    shapes: Vec<Shape>,
    current: Shape,
    error: Option<NnError>,
}

impl ModelBuilder {
    /// Starts a model with the given input shape.
    pub fn new(input_shape: Shape) -> Self {
        ModelBuilder {
            input_shape,
            layers: Vec::new(),
            shapes: Vec::new(),
            current: input_shape,
            error: None,
        }
    }

    /// Output shape of the stack built so far (the input shape while no
    /// layers have been added). Deserialisation uses this to bind a
    /// stream's declared layer fan-in to the reconstructed shape
    /// *before* the layer — and its parameter buffers — are allocated.
    pub fn current_shape(&self) -> Shape {
        self.current
    }

    fn push(mut self, layer: Layer) -> Self {
        if self.error.is_some() {
            return self;
        }
        match layer.output_shape(&self.current, self.layers.len()) {
            Ok(out) => {
                self.current = out;
                self.shapes.push(out);
                self.layers.push(layer);
            }
            Err(e) => self.error = Some(e),
        }
        self
    }

    /// Appends a dense layer producing `outputs` features (He-normal
    /// weights, zero bias).
    ///
    /// # Errors
    ///
    /// Construction errors are deferred to [`ModelBuilder::build`]. This
    /// method itself only fails to *type-check* nothing; the `Result`
    /// wrapper is kept for forward compatibility and always returns `Ok`.
    pub fn dense(self, outputs: usize, rng: &mut DetRng) -> Result<Self, NnError> {
        self.dense_with_init(outputs, Init::HeNormal, rng)
    }

    /// Appends a dense layer with an explicit initialisation scheme.
    ///
    /// # Errors
    ///
    /// Always returns `Ok`; see [`ModelBuilder::dense`].
    pub fn dense_with_init(
        self,
        outputs: usize,
        init: Init,
        rng: &mut DetRng,
    ) -> Result<Self, NnError> {
        let inputs = self.current.len();
        if self.error.is_some() {
            return Ok(self);
        }
        match DenseLayer::new(inputs, outputs, init, rng) {
            Ok(d) => Ok(self.push(Layer::Dense(d))),
            Err(e) => {
                let mut s = self;
                s.error = Some(e);
                Ok(s)
            }
        }
    }

    /// Appends a square-kernel conv2d layer (He-normal weights).
    ///
    /// # Errors
    ///
    /// Always returns `Ok`; errors are deferred to [`ModelBuilder::build`].
    pub fn conv2d(
        self,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
        rng: &mut DetRng,
    ) -> Result<Self, NnError> {
        if self.error.is_some() {
            return Ok(self);
        }
        if self.current.rank() != 3 {
            let mut s = self;
            s.error = Some(NnError::LayerIncompatible {
                layer: s.layers.len(),
                reason: format!("conv2d expects CHW input, got {}", s.current),
            });
            return Ok(s);
        }
        let in_channels = self.current.dims()[0];
        match Conv2dLayer::new(
            in_channels,
            out_channels,
            kernel,
            stride,
            padding,
            Init::HeNormal,
            rng,
        ) {
            Ok(c) => Ok(self.push(Layer::Conv2d(c))),
            Err(e) => {
                let mut s = self;
                s.error = Some(e);
                Ok(s)
            }
        }
    }

    /// Appends a max-pooling layer.
    ///
    /// # Errors
    ///
    /// Always returns `Ok`; errors are deferred to [`ModelBuilder::build`].
    pub fn maxpool2d(self, pool: usize, stride: usize) -> Result<Self, NnError> {
        Ok(self.push(Layer::MaxPool2d { pool, stride }))
    }

    /// Appends an average-pooling layer.
    ///
    /// # Errors
    ///
    /// Always returns `Ok`; errors are deferred to [`ModelBuilder::build`].
    pub fn avgpool2d(self, pool: usize, stride: usize) -> Result<Self, NnError> {
        Ok(self.push(Layer::AvgPool2d { pool, stride }))
    }

    /// Appends a ReLU activation.
    pub fn relu(self) -> Self {
        self.push(Layer::Relu)
    }

    /// Appends a leaky-ReLU activation.
    pub fn leaky_relu(self, alpha: f32) -> Self {
        self.push(Layer::LeakyRelu { alpha })
    }

    /// Appends a softmax output layer.
    pub fn softmax(self) -> Self {
        self.push(Layer::Softmax)
    }

    /// Appends a flatten layer.
    pub fn flatten(self) -> Self {
        self.push(Layer::Flatten)
    }

    /// Appends a frozen batch-normalisation layer.
    ///
    /// # Errors
    ///
    /// Always returns `Ok`; errors are deferred to [`ModelBuilder::build`].
    pub fn batchnorm(self, bn: crate::layer::BatchNormLayer) -> Result<Self, NnError> {
        Ok(self.push(Layer::BatchNorm(bn)))
    }

    /// Finalises the model.
    ///
    /// # Errors
    ///
    /// Returns the first deferred layer error, or [`NnError::EmptyModel`]
    /// if no layers were added.
    pub fn build(self) -> Result<Model, NnError> {
        if let Some(e) = self.error {
            return Err(e);
        }
        if self.layers.is_empty() {
            return Err(NnError::EmptyModel);
        }
        Ok(Model {
            input_shape: self.input_shape,
            layers: self.layers,
            shapes: self.shapes,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mlp(seed: u64) -> Model {
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
    fn builder_builds_valid_mlp() {
        let m = mlp(1);
        assert_eq!(m.len(), 4);
        assert_eq!(m.input_shape(), Shape::vector(4));
        assert_eq!(m.output_shape(), Shape::vector(3));
        assert_eq!(m.param_count(), 4 * 8 + 8 + 8 * 3 + 3);
    }

    #[test]
    fn builder_defers_errors_to_build() {
        let mut rng = DetRng::new(1);
        // Softmax on CHW input: invalid.
        let result = ModelBuilder::new(Shape::chw(1, 4, 4)).softmax().build();
        assert!(matches!(
            result,
            Err(NnError::LayerIncompatible { layer: 0, .. })
        ));
        // Error sticks: later valid layers do not clear it.
        let result = ModelBuilder::new(Shape::chw(1, 4, 4))
            .softmax()
            .flatten()
            .dense(2, &mut rng)
            .unwrap()
            .build();
        assert!(result.is_err());
    }

    #[test]
    fn empty_model_rejected() {
        assert_eq!(
            ModelBuilder::new(Shape::vector(4)).build().unwrap_err(),
            NnError::EmptyModel
        );
    }

    #[test]
    fn convnet_shapes_propagate() {
        let mut rng = DetRng::new(2);
        let m = ModelBuilder::new(Shape::chw(3, 16, 16))
            .conv2d(8, 3, 1, 1, &mut rng)
            .unwrap()
            .relu()
            .maxpool2d(2, 2)
            .unwrap()
            .conv2d(16, 3, 1, 0, &mut rng)
            .unwrap()
            .relu()
            .flatten()
            .dense(10, &mut rng)
            .unwrap()
            .softmax()
            .build()
            .unwrap();
        assert_eq!(m.layer_output_shape(0).unwrap(), Shape::chw(8, 16, 16));
        assert_eq!(m.layer_output_shape(2).unwrap(), Shape::chw(8, 8, 8));
        assert_eq!(m.layer_output_shape(3).unwrap(), Shape::chw(16, 6, 6));
        assert_eq!(m.output_shape(), Shape::vector(10));
        assert_eq!(m.max_activation_len(), 8 * 16 * 16);
    }

    #[test]
    fn conv_after_flatten_is_error() {
        let mut rng = DetRng::new(3);
        let result = ModelBuilder::new(Shape::chw(1, 8, 8))
            .flatten()
            .conv2d(4, 3, 1, 0, &mut rng)
            .unwrap()
            .build();
        assert!(result.is_err());
    }

    #[test]
    fn digest_stable_and_weight_sensitive() {
        let m1 = mlp(5);
        let m2 = mlp(5);
        assert_eq!(m1.digest(), m2.digest());
        let m3 = mlp(6); // different init seed
        assert_ne!(m1.digest(), m3.digest());
        // Single weight flip changes the digest.
        let mut m4 = mlp(5);
        if let Layer::Dense(d) = &mut m4.layers_mut()[0] {
            d.weights_mut()[0] += 1.0;
        }
        assert_ne!(m1.digest(), m4.digest());
    }

    #[test]
    fn digest_architecture_sensitive() {
        let mut rng = DetRng::new(7);
        let a = ModelBuilder::new(Shape::vector(4))
            .dense_with_init(4, Init::Zeros, &mut rng)
            .unwrap()
            .relu()
            .build()
            .unwrap();
        let mut rng = DetRng::new(7);
        let b = ModelBuilder::new(Shape::vector(4))
            .dense_with_init(4, Init::Zeros, &mut rng)
            .unwrap()
            .leaky_relu(0.0)
            .build()
            .unwrap();
        assert_ne!(a.digest(), b.digest());
    }

    #[test]
    fn summary_and_display() {
        let m = mlp(1);
        let s = m.summary();
        assert!(s.starts_with("4 -> dense -> relu -> dense -> softmax -> 3"));
        assert!(m.to_string().contains("4 layers"));
    }

    #[test]
    fn max_activation_includes_input() {
        let mut rng = DetRng::new(8);
        let m = ModelBuilder::new(Shape::vector(100))
            .dense(2, &mut rng)
            .unwrap()
            .build()
            .unwrap();
        assert_eq!(m.max_activation_len(), 100);
    }
}
