//! Runtime hardening: fault *detection* and repair for the inference stack.
//!
//! [`crate::fault`] puts faults in; this module notices them. Two
//! mechanisms, both cheap enough for the deployed hot path:
//!
//! * **Weight checksums** — a CRC-32 over every parametric layer's
//!   buffers, captured at construction ("golden") and re-verified on a
//!   configurable decision cadence. Any weight bit-flip makes the next
//!   scheduled check fail; with [`HardenConfig::repair`] an ECC sidecar
//!   corrects a single flipped bit in place.
//! * **Activation range guards** — per-layer `[lo, hi]` envelopes learned
//!   from calibration data ([`ActivationGuard::calibrate`]) and widened by
//!   a slack factor. Corrupted activations that leave the envelope, and
//!   any non-finite (f32) or saturated (Q16.16) value, are flagged on the
//!   decision they occur.
//!
//! Detections surface as typed [`HealthEvent`]s rather than silent wrong
//! answers; a [`HealthSink`] carries them out of the engine to whoever
//! owns the safety argument (in `safex-core`, the `HealthMonitor`).
//!
//! There is one hardening state machine. [`HardenedEngine`],
//! [`HardenedPool`] and [`ActivationGuard`] are generic over the model
//! type ([`HardenDomain`]): [`Model`] (f32, the default) or
//! [`crate::QModel`] (Q16.16, aliased as [`crate::HardenedQEngine`] and
//! friends in [`crate::qharden`]). Both run batch-major chunks through
//! the same layer loop as [`Engine::infer_batch`] (ping-pong arenas reused
//! across calls, no hot-path allocation beyond event reporting), and the
//! same catch-up/repair/settle steps keep pooled replicas in lockstep.
//! Per-decision work — injections from an attached [`FaultPlan`] (f32
//! only) and every detection — is keyed by a global *decision index*, so
//! pooled execution is bit-identical to sequential execution for any
//! worker count.
//!
//! [`Engine`]: crate::Engine
//! [`Engine::infer_batch`]: crate::Engine::infer_batch

use std::fmt;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use safex_tensor::{ops, CrcAccumulator, DetRng, Shape};

use crate::ecc::{EccCode, EccConfig, RepairOutcome};
use crate::engine::{argmax, reserve_arenas, run_layer, run_layers, Classification};
use crate::error::NnError;
use crate::fault::{apply_input_fault, FaultPlan, Injection, InputFault};
use crate::layer::Layer;
use crate::model::Model;
use crate::pool::Lanes;

/// An `f32` input as an owned vector in `M`'s domain.
fn to_domain<M: HardenDomain>(input: &[f32]) -> Vec<M::Elem> {
    let mut item = vec![M::Elem::default(); input.len()];
    M::copy_from_f32(&mut item, input);
    item
}

/// A detected anomaly, typed so consumers can weigh classes differently.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum HealthEvent {
    /// A parametric layer's CRC no longer matches its golden value.
    ChecksumMismatch {
        /// Layer whose parameters changed.
        layer: usize,
        /// Golden CRC-32 captured at construction (or last rebaseline).
        expected: u32,
        /// CRC-32 of the parameters as they are now.
        actual: u32,
        /// Worst-case decisions between the corrupting write and this
        /// check: the CRC cadence ([`HardenConfig::staleness_bound`]).
        /// Campaigns use it to account for delayed detection honestly
        /// instead of assuming latency 0.
        staleness: u64,
    },
    /// An activation left its calibrated envelope.
    ActivationOutOfRange {
        /// Layer whose output violated the envelope.
        layer: usize,
        /// First offending element index.
        index: usize,
        /// The offending value.
        value: f32,
        /// Envelope lower bound.
        lo: f32,
        /// Envelope upper bound.
        hi: f32,
    },
    /// An activation became NaN or infinite.
    NonFiniteActivation {
        /// Layer whose output is non-finite.
        layer: usize,
        /// First offending element index.
        index: usize,
    },
    /// An input element is NaN or infinite (sensor garbage).
    NonFiniteInput {
        /// First offending element index.
        index: usize,
    },
    /// A Q16.16 activation railed at the format's representable extreme —
    /// the fixed-point analogue of a non-finite float (raised by the
    /// quantised hardened engine, [`crate::qharden::HardenedQEngine`]).
    SaturatedActivation {
        /// Layer whose output saturated.
        layer: usize,
        /// First offending element index.
        index: usize,
    },
    /// An external (pillar-1) supervisor rejected the decision's input —
    /// e.g. an ODD envelope or distance monitor flagging out-of-domain
    /// sensor data before inference runs.
    SupervisorReject {
        /// Stable name of the supervisor that fired.
        monitor: &'static str,
    },
    /// A parametric layer's CRC mismatched, the ECC sidecar localised a
    /// single flipped bit, the bit was corrected in place, and the layer
    /// CRC re-verified against golden. The fault is *gone* — consumers
    /// should treat this as a warning (the memory took a hit) rather
    /// than an escalation (see `HealthConfig::warn_budget` in
    /// `safex-core`). Uncorrectable damage keeps raising
    /// [`HealthEvent::ChecksumMismatch`].
    CorrectedFault {
        /// Layer whose parameters were repaired.
        layer: usize,
        /// Index of the repaired 32-bit word within the layer's
        /// concatenated weight+bias stream.
        word: usize,
        /// Bit position (0..32) that was flipped back.
        bit: u32,
        /// Same worst-case exposure bound as
        /// [`HealthEvent::ChecksumMismatch`]: decisions the corrupted
        /// word could have influenced before this check repaired it.
        staleness: u64,
    },
}

impl HealthEvent {
    /// Stable tag for logging and evidence records.
    pub fn kind(&self) -> &'static str {
        match self {
            HealthEvent::ChecksumMismatch { .. } => "checksum_mismatch",
            HealthEvent::ActivationOutOfRange { .. } => "activation_out_of_range",
            HealthEvent::NonFiniteActivation { .. } => "non_finite_activation",
            HealthEvent::NonFiniteInput { .. } => "non_finite_input",
            HealthEvent::SaturatedActivation { .. } => "saturated_activation",
            HealthEvent::SupervisorReject { .. } => "supervisor_reject",
            HealthEvent::CorrectedFault { .. } => "corrected_fault",
        }
    }
}

impl std::fmt::Display for HealthEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HealthEvent::ChecksumMismatch {
                layer,
                expected,
                actual,
                staleness,
            } => write!(
                f,
                "layer {layer} checksum mismatch: expected {expected:#010x}, got {actual:#010x} \
                 (staleness bound {staleness} decisions)"
            ),
            HealthEvent::ActivationOutOfRange {
                layer,
                index,
                value,
                lo,
                hi,
            } => write!(
                f,
                "layer {layer} activation[{index}] = {value} outside [{lo}, {hi}]"
            ),
            HealthEvent::NonFiniteActivation { layer, index } => {
                write!(f, "layer {layer} activation[{index}] is non-finite")
            }
            HealthEvent::NonFiniteInput { index } => {
                write!(f, "input[{index}] is non-finite")
            }
            HealthEvent::SaturatedActivation { layer, index } => {
                write!(f, "layer {layer} activation[{index}] saturated Q16.16")
            }
            HealthEvent::SupervisorReject { monitor } => {
                write!(f, "supervisor {monitor} rejected the input")
            }
            HealthEvent::CorrectedFault {
                layer,
                word,
                bit,
                staleness,
            } => write!(
                f,
                "layer {layer} word {word} bit {bit} corrected by ECC sidecar \
                 (staleness bound {staleness} decisions)"
            ),
        }
    }
}

/// Shared, clonable channel carrying [`HealthEvent`]s out of an engine.
///
/// The engine pushes; the pipeline/health-monitor side drains once per
/// decision. Cloning shares the underlying buffer.
#[derive(Debug, Clone, Default)]
pub struct HealthSink(Arc<Mutex<Vec<HealthEvent>>>);

impl HealthSink {
    /// Creates an empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// The locked buffer. Every critical section below is a single `Vec`
    /// call, so a holder that panicked cannot have left the buffer half
    /// updated: a poisoned lock still guards a valid `Vec`, and events
    /// keep flowing instead of the panic spreading to every engine.
    fn events(&self) -> MutexGuard<'_, Vec<HealthEvent>> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Appends one event.
    pub fn push(&self, event: HealthEvent) {
        self.events().push(event);
    }

    /// Appends a batch of events.
    pub fn extend(&self, events: &[HealthEvent]) {
        self.events().extend_from_slice(events);
    }

    /// Removes and returns everything currently queued.
    pub fn drain(&self) -> Vec<HealthEvent> {
        std::mem::take(&mut *self.events())
    }

    /// Number of queued events.
    pub fn len(&self) -> usize {
        self.events().len()
    }

    /// Whether the sink is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

// The CRC-32 primitives live in `safex_tensor::crc`; re-exported here
// unchanged for every existing caller.
pub use safex_tensor::crc::{crc32, crc32_words};

/// What differs between the f32 and the Q16.16 model types, and nothing
/// else: the hardening state machine is written once over this trait.
pub(crate) mod domain {
    use super::*;

    /// A layer's weight and bias buffers.
    pub type Params<'a, E> = (&'a [E], &'a [E]);
    /// Mutable [`Params`].
    pub type ParamsMut<'a, E> = (&'a mut [E], &'a mut [E]);

    /// The per-model-type operations [`HardenedEngine`] and the layer
    /// loop ([`run_layers`]) need. Crate-private; the public face is the
    /// sealed [`HardenDomain`].
    pub trait Domain: Clone + fmt::Debug + Send + Sync + 'static {
        /// Activation and parameter element (`f32` or `Q16_16`).
        type Elem: Copy + Default + PartialOrd + fmt::Debug + Send + Sync + 'static;
        /// One layer of the model.
        type Layer;
        /// What a bad value is called in calibration errors.
        const BAD: &'static str;
        /// The `(lo, hi)` a calibration range starts from, before any
        /// value has been observed.
        const EMPTY_RANGE: (Self::Elem, Self::Elem);

        /// The layers, in execution order.
        fn layers(&self) -> &[Self::Layer];
        /// Mutable layers (ECC write-back).
        fn layers_mut(&mut self) -> &mut [Self::Layer];
        /// The input shape.
        fn input_shape(&self) -> Shape;
        /// The final layer's output shape.
        fn output_shape(&self) -> Shape;
        /// The output shape of layer `index`.
        fn layer_output_shape(&self, index: usize) -> Option<Shape>;
        /// Largest activation (elements), the arena stride.
        fn max_activation_len(&self) -> usize;

        /// The weight and bias buffers checksums cover, if the layer has
        /// any.
        fn params(layer: &Self::Layer) -> Option<Params<'_, Self::Elem>>;
        /// Mutable view of the buffers [`Domain::params`] covers.
        fn params_mut(layer: &mut Self::Layer) -> Option<ParamsMut<'_, Self::Elem>>;
        /// The 32-bit word CRC and ECC see for one element.
        fn to_word(value: Self::Elem) -> u32;
        /// Inverse of [`Domain::to_word`].
        fn from_word(word: u32) -> Self::Elem;
        /// Feeds `values` to a CRC accumulator as words.
        fn crc_update(acc: &mut CrcAccumulator, values: &[Self::Elem]);

        /// Executes one layer for one item from `src` into `dst`.
        ///
        /// # Errors
        ///
        /// Propagates kernel errors.
        fn run_layer(
            layer: &Self::Layer,
            src: &[Self::Elem],
            dst: &mut [Self::Elem],
            in_shape: &Shape,
        ) -> Result<(), NnError>;
        /// Runs `layer` over `n` items at `stride` in one batched kernel
        /// call when it has one (dense); `Ok(false)` asks the caller to
        /// run it per item.
        ///
        /// # Errors
        ///
        /// Propagates kernel errors.
        fn run_layer_batch(
            layer: &Self::Layer,
            src: &[Self::Elem],
            dst: &mut [Self::Elem],
            n: usize,
            stride: usize,
        ) -> Result<bool, NnError>;

        /// Whether an input element is usable (f32: finite; Q16.16 has no
        /// input check).
        fn input_ok(value: Self::Elem) -> bool;
        /// Whether an activation is bad regardless of any envelope
        /// (f32: non-finite; Q16.16: saturated).
        fn is_bad(value: Self::Elem) -> bool;
        /// The event a bad activation raises.
        fn bad_event(layer: usize, index: usize) -> HealthEvent;
        /// Extends a calibration range by one observed value.
        fn observe(range: &mut (Self::Elem, Self::Elem), value: Self::Elem);
        /// Widens an observed range by `slack × span` on both sides.
        fn widen(range: (Self::Elem, Self::Elem), slack: f32) -> (Self::Elem, Self::Elem);
        /// One element as f32 (for [`HealthEvent::ActivationOutOfRange`]).
        fn to_f32(value: Self::Elem) -> f32;
        /// Writes an f32 input into `dst`, of the same length, in this
        /// domain (f32 copies; Q16.16 quantises).
        fn copy_from_f32(dst: &mut [Self::Elem], src: &[f32]);
        /// Argmax over a final activation, ties toward the lower index.
        fn argmax(out: &[Self::Elem]) -> Classification;
        /// Applies a [`FaultPlan`] input fault. Plans attach only to f32
        /// engines ([`HardenedEngine::set_plan`]).
        fn apply_input_fault(
            fault: InputFault,
            input: &mut [Self::Elem],
            rng: &mut DetRng,
            injections: &mut Vec<Injection>,
        );
    }
}

use domain::Domain;

/// A model type a [`HardenedEngine`] can protect: [`Model`] (f32) or
/// [`crate::QModel`] (Q16.16).
///
/// Sealed: the operations the engine needs from a model — the parameter
/// words CRC and ECC cover, the layer kernels, the bad-value test — are
/// crate-private, so no other type can implement it.
pub trait HardenDomain: Domain {}

impl HardenDomain for Model {}

impl Domain for Model {
    type Elem = f32;
    type Layer = Layer;
    const BAD: &'static str = "non-finite";
    const EMPTY_RANGE: (f32, f32) = (f32::INFINITY, f32::NEG_INFINITY);

    fn layers(&self) -> &[Layer] {
        Model::layers(self)
    }
    fn layers_mut(&mut self) -> &mut [Layer] {
        Model::layers_mut(self)
    }
    fn input_shape(&self) -> Shape {
        Model::input_shape(self)
    }
    fn output_shape(&self) -> Shape {
        Model::output_shape(self)
    }
    fn layer_output_shape(&self, index: usize) -> Option<Shape> {
        Model::layer_output_shape(self, index)
    }
    fn max_activation_len(&self) -> usize {
        Model::max_activation_len(self)
    }

    fn params(layer: &Layer) -> Option<(&[f32], &[f32])> {
        match layer {
            Layer::Dense(d) => Some((&d.weights, &d.bias)),
            Layer::Conv2d(c) => Some((&c.weights, &c.bias)),
            _ => None,
        }
    }
    fn params_mut(layer: &mut Layer) -> Option<(&mut [f32], &mut [f32])> {
        match layer {
            Layer::Dense(d) => Some((&mut d.weights, &mut d.bias)),
            Layer::Conv2d(c) => Some((&mut c.weights, &mut c.bias)),
            _ => None,
        }
    }
    fn to_word(value: f32) -> u32 {
        value.to_bits()
    }
    fn from_word(word: u32) -> f32 {
        f32::from_bits(word)
    }
    fn crc_update(acc: &mut CrcAccumulator, values: &[f32]) {
        acc.update_f32(values);
    }

    fn run_layer(
        layer: &Layer,
        src: &[f32],
        dst: &mut [f32],
        in_shape: &Shape,
    ) -> Result<(), NnError> {
        run_layer(layer, src, dst, in_shape)
    }
    fn run_layer_batch(
        layer: &Layer,
        src: &[f32],
        dst: &mut [f32],
        n: usize,
        stride: usize,
    ) -> Result<bool, NnError> {
        let Layer::Dense(d) = layer else {
            return Ok(false);
        };
        ops::dense_batch_into(
            &d.weights, &d.bias, src, dst, d.inputs, d.outputs, n, stride, stride,
        )?;
        Ok(true)
    }

    fn input_ok(value: f32) -> bool {
        value.is_finite()
    }
    fn is_bad(value: f32) -> bool {
        !value.is_finite()
    }
    fn bad_event(layer: usize, index: usize) -> HealthEvent {
        HealthEvent::NonFiniteActivation { layer, index }
    }
    fn observe(range: &mut (f32, f32), value: f32) {
        range.0 = range.0.min(value);
        range.1 = range.1.max(value);
    }
    fn widen((lo, hi): (f32, f32), slack: f32) -> (f32, f32) {
        let span = (hi - lo).max(1e-6);
        (lo - slack * span, hi + slack * span)
    }
    fn to_f32(value: f32) -> f32 {
        value
    }
    fn copy_from_f32(dst: &mut [f32], src: &[f32]) {
        dst.copy_from_slice(src);
    }
    fn argmax(out: &[f32]) -> Classification {
        argmax(out)
    }
    fn apply_input_fault(
        fault: InputFault,
        input: &mut [f32],
        rng: &mut DetRng,
        injections: &mut Vec<Injection>,
    ) {
        apply_input_fault(fault, input, rng, injections);
    }
}

/// Weight and bias buffers of golden layer `layer`.
///
/// Golden entries are built by [`checksums`] from exactly the layers
/// whose [`Domain::params`] is `Some`, and nothing changes a model's layer
/// list, so the lookup cannot miss. Should it ever, the empty view fails
/// the layer's CRC and escalates instead of panicking.
fn golden_params<M: Domain>(model: &M, layer: usize) -> (&[M::Elem], &[M::Elem]) {
    let params = M::params(&model.layers()[layer]);
    debug_assert!(params.is_some(), "golden entries index parametric layers");
    params.unwrap_or((&[], &[]))
}

/// The concatenated weight+bias word stream CRC and ECC cover.
fn golden_words<M: Domain>(model: &M, layer: usize) -> Vec<u32> {
    let (weights, bias) = golden_params(model, layer);
    weights.iter().chain(bias).map(|&v| M::to_word(v)).collect()
}

/// Encodes one ECC sidecar per golden (checksummed) layer, over the same
/// concatenated weight+bias word stream the CRC covers.
fn encode_sidecars<M: Domain>(
    model: &M,
    golden: &[(usize, u32)],
    config: EccConfig,
) -> Result<Vec<EccCode>, NnError> {
    golden
        .iter()
        .map(|&(layer, _)| EccCode::encode(&golden_words(model, layer), config))
        .collect()
}

/// CRC-32 of a weight and bias view, bit-identical to `crc32_words`
/// over the concatenated word stream.
fn params_crc<M: Domain>((weights, bias): (&[M::Elem], &[M::Elem])) -> u32 {
    let mut acc = CrcAccumulator::new();
    M::crc_update(&mut acc, weights);
    M::crc_update(&mut acc, bias);
    acc.finish()
}

/// CRC-32 of one layer's parameters (`None` for non-parametric layers).
pub(crate) fn checksum<M: Domain>(layer: &M::Layer) -> Option<u32> {
    M::params(layer).map(params_crc::<M>)
}

/// CRC-32 of every parametric layer: `(layer index, crc)` pairs.
pub(crate) fn checksums<M: Domain>(model: &M) -> Vec<(usize, u32)> {
    model
        .layers()
        .iter()
        .enumerate()
        .filter_map(|(i, layer)| checksum::<M>(layer).map(|crc| (i, crc)))
        .collect()
}

/// CRC-32 of one layer's parameters (`None` for non-parametric layers).
///
/// Runs the slice fast path ([`CrcAccumulator`]) over the weight and
/// bias buffers instead of a chained per-word iterator; the value is
/// bit-identical to `crc32_words` over the concatenated word stream.
pub fn layer_checksum(layer: &Layer) -> Option<u32> {
    checksum::<Model>(layer)
}

/// CRC-32 of every parametric layer: `(layer index, crc)` pairs.
///
/// Covers dense and convolution weights and biases — the buffers
/// [`crate::fault::FaultInjector`] can hit. Frozen batch-norm is excluded
/// (execution reads its precomputed scale/shift, which the injector never
/// touches).
pub fn layer_checksums(model: &Model) -> Vec<(usize, u32)> {
    checksums(model)
}

/// Per-layer activation envelopes learned from calibration data, in the
/// model's own element type (raw Q16.16 for [`crate::QActivationGuard`]).
#[derive(Debug, Clone, PartialEq)]
pub struct ActivationGuard<M: HardenDomain = Model> {
    /// `(lo, hi)` per layer, input excluded, already slack-widened.
    ranges: Vec<(M::Elem, M::Elem)>,
}

impl<M: HardenDomain> ActivationGuard<M> {
    /// Learns envelopes by running the *clean* model over calibration
    /// inputs and widening each layer's observed `[min, max]` by
    /// `slack × span` on both sides (Q16.16: on the raw bit span,
    /// saturating at the format limits).
    ///
    /// # Errors
    ///
    /// Returns [`NnError::Fault`] for an empty calibration set, an invalid
    /// slack, or a calibration activation that is already bad (non-finite
    /// or saturated: a model whose *clean* activations rail cannot be
    /// guarded meaningfully), and propagates inference errors on bad
    /// inputs.
    pub fn calibrate<I: AsRef<[M::Elem]>>(
        model: &M,
        inputs: &[I],
        slack: f32,
    ) -> Result<Self, NnError> {
        if inputs.is_empty() {
            return Err(NnError::Fault("calibration set is empty".into()));
        }
        if !slack.is_finite() || slack < 0.0 {
            return Err(NnError::Fault(format!(
                "guard slack must be finite and non-negative, got {slack}"
            )));
        }
        let expected = model.input_shape();
        let stride = model.max_activation_len();
        let (mut a, mut b) = (
            vec![M::Elem::default(); stride],
            vec![M::Elem::default(); stride],
        );
        let mut ranges = vec![M::EMPTY_RANGE; model.layers().len()];
        for input in inputs {
            let input = input.as_ref();
            if input.len() != expected.len() {
                return Err(NnError::InputShape {
                    expected,
                    actual: input.len(),
                });
            }
            a[..input.len()].copy_from_slice(input);
            let mut bad = false;
            run_layers(model, &mut a, &mut b, 1, |layer, _, activation| {
                for &v in activation.iter() {
                    bad |= M::is_bad(v);
                    M::observe(&mut ranges[layer], v);
                }
            })?;
            if bad {
                return Err(NnError::Fault(format!(
                    "calibration produced a {} activation",
                    M::BAD
                )));
            }
        }
        let ranges = ranges.into_iter().map(|r| M::widen(r, slack)).collect();
        Ok(ActivationGuard { ranges })
    }

    /// The widened `(lo, hi)` envelope per layer.
    pub fn ranges(&self) -> &[(M::Elem, M::Elem)] {
        &self.ranges
    }

    /// Checks one layer's activation, reporting at most one event (the
    /// first offending element) to bound per-decision event volume.
    fn check(&self, layer: usize, activation: &[M::Elem], events: &mut Vec<HealthEvent>) {
        let (lo, hi) = self.ranges[layer];
        // Branch-free pass/fail reduction first (`&`, not `&&`, keeps
        // the clean common case free of per-element branches so it
        // auto-vectorizes); the offending element is located — and
        // classified as bad vs out-of-range — only on failure.
        let mut ok = true;
        for &value in activation {
            ok &= !M::is_bad(value) & (value >= lo) & (value <= hi);
        }
        if ok {
            return;
        }
        for (index, &value) in activation.iter().enumerate() {
            if M::is_bad(value) {
                events.push(M::bad_event(layer, index));
                return;
            }
            if value < lo || value > hi {
                events.push(HealthEvent::ActivationOutOfRange {
                    layer,
                    index,
                    value: M::to_f32(value),
                    lo: M::to_f32(lo),
                    hi: M::to_f32(hi),
                });
                return;
            }
        }
    }
}

/// Detection settings for a [`HardenedEngine`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HardenConfig {
    /// Re-verify every parametric layer's checksum, before the layer
    /// pass, when `decision_index % crc_cadence == 0` (0 disables
    /// checksum verification). Default 1: every decision.
    pub crc_cadence: u64,
    /// Envelope widening used by [`HardenedEngine::calibrate`]: each
    /// calibrated layer range grows by `slack × span` on both sides.
    /// Default 0.5.
    pub guard_slack: f32,
    /// Detect-*and-correct*: when set, the engine encodes an ECC sidecar
    /// ([`EccCode`]) over every checksummed layer at construction and, on
    /// a scheduled CRC mismatch, corrects a localised single-bit flip in
    /// place (re-verified against the golden CRC) instead of escalating —
    /// raising [`HealthEvent::CorrectedFault`] rather than
    /// [`HealthEvent::ChecksumMismatch`]. `None` (the default) keeps the
    /// detect-only behavior bit-for-bit.
    pub repair: Option<EccConfig>,
}

impl Default for HardenConfig {
    fn default() -> Self {
        HardenConfig {
            crc_cadence: 1,
            guard_slack: 0.5,
            repair: None,
        }
    }
}

impl HardenConfig {
    pub(crate) fn validate(&self) -> Result<(), NnError> {
        if !self.guard_slack.is_finite() || self.guard_slack < 0.0 {
            return Err(NnError::Fault(format!(
                "guard slack must be finite and non-negative, got {}",
                self.guard_slack
            )));
        }
        if let Some(ecc) = &self.repair {
            ecc.validate()?;
        }
        Ok(())
    }

    /// Worst-case decisions between a parameter corruption and the check
    /// that would detect it, for a model with `parametric_layers`
    /// checksummed layers: the cadence, since every scheduled check
    /// verifies every layer. `None` when checksum verification is
    /// disabled (`crc_cadence == 0`) or there is nothing to checksum.
    pub fn staleness_bound(&self, parametric_layers: usize) -> Option<u64> {
        (self.crc_cadence > 0 && parametric_layers > 0).then_some(self.crc_cadence)
    }
}

/// An [`Engine`](crate::Engine)-shaped executor with built-in fault
/// injection and detection, over an f32 [`Model`] (the default) or a
/// Q16.16 [`crate::QModel`].
///
/// Per decision it (1) applies the attached [`FaultPlan`] (f32 only),
/// (2) verifies weight checksums on the configured cadence, and (3) runs
/// the activation guard. Detections land in
/// [`HardenedEngine::last_events`] and, when attached, a shared
/// [`HealthSink`]; injections land in [`HardenedEngine::last_injections`]
/// (campaign ground truth).
///
/// Everything per-decision is keyed by a monotonically increasing decision
/// index (or an explicit one via the `*_indexed` methods), making runs a
/// pure function of `(model, plan, index, input)`.
///
/// Decisions run as batch-major *chunks* (the per-item API is a chunk of
/// one; [`HardenedPool`] hands each replica its whole chunk). Each
/// decision, in index order, draws its input fault, checks its input and
/// runs its own scheduled CRC check(s); then the chunk runs one layer
/// pass through the same batch-major arena as
/// [`Engine::infer_batch`](crate::Engine::infer_batch), with every item's
/// activation-fault draws and guard checks after each layer. A check
/// about to repair weights first flushes the earlier decisions' layer
/// pass, so they compute on the pre-repair weights exactly as a per-item
/// loop would.
#[derive(Debug, Clone)]
pub struct HardenedEngine<M: HardenDomain = Model> {
    model: M,
    /// Batch-major ping-pong arenas, `chunk × max_activation_len` each,
    /// grown on demand and reused across chunks.
    arena_a: Vec<M::Elem>,
    arena_b: Vec<M::Elem>,
    /// Per-decision state of the most recent chunk; only the first
    /// `live` entries belong to it (the rest keep their allocations).
    chunk: Vec<Decision>,
    live: usize,
    /// Decisions `flushed..staged` of the chunk in flight have passed
    /// their checks and wait for the layer pass.
    flushed: usize,
    staged: usize,
    golden: Vec<(usize, u32)>,
    sidecars: Vec<EccCode>,
    config: HardenConfig,
    pub(crate) guard: Option<ActivationGuard<M>>,
    plan: Option<FaultPlan>,
    sink: Option<HealthSink>,
    decisions: u64,
    events_seen: u64,
    /// Decisions `< synced_to` have had their scheduled repairs applied to
    /// *this* replica's weights. Only meaningful when repair is enabled;
    /// lets a pooled replica serving a non-contiguous index stream replay
    /// the silent repairs the sequential reference performed in between.
    synced_to: u64,
}

/// One decision of a chunk: its fault stream and what it observed.
#[derive(Debug, Clone, Default)]
struct Decision {
    rng: Option<DetRng>,
    events: Vec<HealthEvent>,
    injections: Vec<Injection>,
}

impl HardenedEngine<Model> {
    /// Attaches a per-decision fault plan (validated). Plans drive the
    /// f32 front end only; a Q16.16 engine's strike surface is its weight
    /// store.
    ///
    /// # Errors
    ///
    /// See [`FaultPlan::validate`].
    pub fn set_plan(&mut self, plan: FaultPlan) -> Result<(), NnError> {
        plan.validate()?;
        self.plan = Some(plan);
        Ok(())
    }
}

impl<M: HardenDomain> HardenedEngine<M> {
    /// Creates a hardened engine, capturing golden checksums from the
    /// (presumed pristine) model.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::Fault`] on an invalid config.
    pub fn new(model: M, config: HardenConfig) -> Result<Self, NnError> {
        config.validate()?;
        let golden = checksums(&model);
        let sidecars = match config.repair {
            Some(ecc) => encode_sidecars(&model, &golden, ecc)?,
            None => Vec::new(),
        };
        Ok(HardenedEngine {
            model,
            arena_a: Vec::new(),
            arena_b: Vec::new(),
            chunk: Vec::new(),
            live: 0,
            flushed: 0,
            staged: 0,
            golden,
            sidecars,
            config,
            guard: None,
            plan: None,
            sink: None,
            decisions: 0,
            events_seen: 0,
            synced_to: 0,
        })
    }

    /// Worst-case decisions between a parameter corruption and detection:
    /// the configured cadence (`None` when checksums are disabled).
    pub fn staleness_bound(&self) -> Option<u64> {
        self.config.staleness_bound(self.golden.len())
    }

    /// Learns activation envelopes from clean calibration inputs using the
    /// configured slack.
    ///
    /// # Errors
    ///
    /// See [`ActivationGuard::calibrate`].
    pub fn calibrate<I: AsRef<[M::Elem]>>(&mut self, inputs: &[I]) -> Result<(), NnError> {
        self.guard = Some(ActivationGuard::calibrate(
            &self.model,
            inputs,
            self.config.guard_slack,
        )?);
        Ok(())
    }

    /// [`HardenedEngine::calibrate`] over `f32` calibration data (a
    /// Q16.16 engine quantises each input as
    /// [`Engine::infer_f32`](crate::Engine::infer_f32) would).
    ///
    /// # Errors
    ///
    /// See [`ActivationGuard::calibrate`].
    pub fn calibrate_f32<I: AsRef<[f32]>>(&mut self, inputs: &[I]) -> Result<(), NnError> {
        let inputs: Vec<Vec<M::Elem>> = inputs.iter().map(|x| to_domain::<M>(x.as_ref())).collect();
        self.calibrate(&inputs)
    }

    /// Attaches a shared sink that receives every [`HealthEvent`].
    pub fn attach_sink(&mut self, sink: HealthSink) {
        self.sink = Some(sink);
    }

    /// Drops the shared sink (pool replicas report per-result instead).
    pub fn detach_observers(&mut self) {
        self.sink = None;
    }

    /// The wrapped model.
    pub fn model(&self) -> &M {
        &self.model
    }

    /// Mutable model access — the fault-injection hook. Golden checksums
    /// deliberately do *not* follow: a mutation here is exactly what the
    /// checksum verification exists to catch. After a legitimate model
    /// update call [`HardenedEngine::rebaseline`].
    pub fn model_mut(&mut self) -> &mut M {
        &mut self.model
    }

    /// Re-captures golden checksums (and, when repair is enabled, ECC
    /// sidecars) from the current parameters.
    pub fn rebaseline(&mut self) {
        self.golden = checksums(&self.model);
        if let Some(ecc) = self.config.repair {
            self.sidecars = encode_sidecars(&self.model, &self.golden, ecc)
                .expect("ecc config was validated at construction");
        }
    }

    /// ECC sidecar memory as a fraction of the protected parameter bits
    /// (e.g. `0.0625` ≈ 6.25 %). `None` when repair is disabled or there
    /// is nothing to protect.
    pub fn sidecar_overhead(&self) -> Option<f64> {
        if self.sidecars.is_empty() {
            return None;
        }
        let sidecar: u64 = self.sidecars.iter().map(EccCode::sidecar_bits).sum();
        let data: u64 = self
            .sidecars
            .iter()
            .map(|c| c.protected_words() as u64 * 32)
            .sum();
        if data == 0 {
            return None;
        }
        Some(sidecar as f64 / data as f64)
    }

    /// Declares that every scheduled repair before `index` is already
    /// reflected in this replica's weights (pool dispatch calls this with
    /// the batch base: replicas are re-synchronised at batch boundaries,
    /// which is also the only point strikes can legally land).
    pub(crate) fn sync_to(&mut self, index: u64) {
        self.synced_to = self.synced_to.max(index);
    }

    /// Replays, before decision `index`, the silent repairs of every
    /// scheduled check this replica skipped, so its weights match the
    /// sequential reference. Pool dispatch calls this at the end of a
    /// batch in which some replica repaired a fault: a replica that ran
    /// none of that batch's checks would otherwise carry the repaired
    /// fault past the next [`HardenedEngine::sync_to`].
    pub(crate) fn settle(&mut self, index: u64) -> Result<(), NnError> {
        if self.config.repair.is_some() && self.config.crc_cadence > 0 && !self.golden.is_empty() {
            self.catch_up(index)?;
            self.sync_to(index);
        }
        Ok(())
    }

    /// Replays the silent repairs a sequential engine would have applied
    /// on the scheduled checks in `[synced_to, index)` — the catch-up that
    /// keeps a pooled replica's weights byte-identical to the sequential
    /// reference before it executes decision `index`.
    fn catch_up(&mut self, index: u64) -> Result<(), NnError> {
        let cadence = self.config.crc_cadence;
        let t0 = self.synced_to.div_ceil(cadence);
        let t1 = index.div_ceil(cadence);
        if t0 >= t1 {
            return Ok(());
        }
        for gi in 0..self.golden.len() {
            self.silent_repair(gi)?;
        }
        Ok(())
    }

    /// CRC-32 of golden slot `gi`'s parameters as they are now.
    fn slot_checksum(&self, gi: usize) -> u32 {
        params_crc::<M>(golden_params(&self.model, self.golden[gi].0))
    }

    /// Repairs golden slot `gi` if its CRC mismatches, without reporting:
    /// the replica that owns the scheduled check emits the event; this is
    /// only weight-state reconciliation.
    fn silent_repair(&mut self, gi: usize) -> Result<(), NnError> {
        if self.slot_checksum(gi) != self.golden[gi].1 {
            self.attempt_repair(gi)?;
        }
        Ok(())
    }

    /// Runs one scheduled CRC check over golden slot `gi`, attempting an
    /// in-place ECC repair before escalating when repair is enabled.
    /// Returns the event the check raises, if any. Every layer is
    /// verified on each tick, so a corruption is at most one cadence old:
    /// that is the event's staleness.
    fn check_slot(&mut self, gi: usize) -> Result<Option<HealthEvent>, NnError> {
        let (layer, expected) = self.golden[gi];
        let staleness = self.config.crc_cadence;
        let actual = self.slot_checksum(gi);
        if expected == actual {
            return Ok(None);
        }
        if self.config.repair.is_some() {
            if let Some((word, bit)) = self.attempt_repair(gi)? {
                return Ok(Some(HealthEvent::CorrectedFault {
                    layer,
                    word,
                    bit,
                    staleness,
                }));
            }
        }
        Ok(Some(HealthEvent::ChecksumMismatch {
            layer,
            expected,
            actual,
            staleness,
        }))
    }

    /// Tries to ECC-correct golden slot `gi`'s parameters. Writes back
    /// exactly one word — and only after the corrected stream re-verifies
    /// against the golden CRC — returning the `(word, bit)` that was
    /// restored. `None` leaves the model untouched (uncorrectable damage,
    /// or ≥ 3 flips forging a single-flip signature that the CRC
    /// re-verification rejects).
    ///
    /// The write is the only weight change inside a chunk, so it first
    /// flushes the layer pass of the chunk's decisions staged so far:
    /// they run on the pre-repair weights, exactly as the sequential
    /// loop ran them before this check.
    fn attempt_repair(&mut self, gi: usize) -> Result<Option<(usize, u32)>, NnError> {
        let (layer, expected) = self.golden[gi];
        let mut words = golden_words(&self.model, layer);
        let RepairOutcome::Corrected { word, bit } = self.sidecars[gi].repair(&mut words) else {
            return Ok(None);
        };
        let mut crc = CrcAccumulator::new();
        crc.update_words(&words);
        if crc.finish() != expected {
            return Ok(None);
        }
        self.flush()?;
        let repaired = M::from_word(words[word]);
        if let Some((weights, bias)) = M::params_mut(&mut self.model.layers_mut()[layer]) {
            let n_weights = weights.len();
            if word < n_weights {
                weights[word] = repaired;
            } else {
                bias[word - n_weights] = repaired;
            }
        }
        Ok(Some((word, bit)))
    }

    /// Golden `(layer, crc)` pairs currently enforced.
    pub fn golden_checksums(&self) -> &[(usize, u32)] {
        &self.golden
    }

    /// Verifies the current parameters against the golden baseline as a
    /// pure read: every protected layer's CRC-32 must match its golden
    /// checksum and, when repair is enabled, every ECC sidecar's parities
    /// must describe the layer's words ([`EccCode::check`]). This is the
    /// hot-swap gate — run after [`HardenedEngine::rebaseline`] on
    /// incoming weights it confirms the re-golden is self-consistent
    /// (e.g. no non-finite encoding surprise); run at any other time it
    /// detects corruption that landed between scheduled checks. Nothing
    /// is repaired or escalated.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::Fault`] naming the first layer whose CRC or
    /// sidecar parity disagrees.
    pub fn verify_weights(&self) -> Result<(), NnError> {
        for (gi, &(layer, expected)) in self.golden.iter().enumerate() {
            let actual = self.slot_checksum(gi);
            if actual != expected {
                return Err(NnError::Fault(format!(
                    "layer {layer} crc mismatch: golden {expected:#010x}, actual {actual:#010x}"
                )));
            }
            if self.config.repair.is_some()
                && !self.sidecars[gi].check(&golden_words(&self.model, layer))
            {
                return Err(NnError::Fault(format!(
                    "layer {layer} ecc sidecar parity disagrees with weights"
                )));
            }
        }
        Ok(())
    }

    /// Decisions completed via [`HardenedEngine::infer`] /
    /// [`HardenedEngine::classify`].
    pub fn decision_count(&self) -> u64 {
        self.decisions
    }

    /// Total health events raised since construction.
    pub fn event_count(&self) -> u64 {
        self.events_seen
    }

    /// Events raised by the most recent decision.
    pub fn last_events(&self) -> &[HealthEvent] {
        self.chunk[..self.live].last().map_or(&[], |d| &d.events)
    }

    /// Injections performed by the most recent decision.
    pub fn last_injections(&self) -> &[Injection] {
        self.chunk[..self.live]
            .last()
            .map_or(&[], |d| &d.injections)
    }

    /// Runs one decision at the engine's own monotone index.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InputShape`] on a wrong-sized input.
    pub fn infer(&mut self, input: &[M::Elem]) -> Result<&[M::Elem], NnError> {
        self.decide(input, <[M::Elem]>::copy_from_slice)
    }

    /// One decision at the engine's own monotone index; `write` puts the
    /// input into its arena slot (a copy, or a conversion from `f32`).
    fn decide<T>(
        &mut self,
        input: &[T],
        write: impl Fn(&mut [M::Elem], &[T]),
    ) -> Result<&[M::Elem], NnError> {
        let index = self.decisions;
        self.run_chunk(index, &[input], write)?;
        self.decisions += 1;
        Ok(self.output(0))
    }

    /// Runs one decision at an explicit global index (pool path).
    ///
    /// Does not advance the engine's own counter.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InputShape`] on a wrong-sized input.
    pub fn infer_indexed(&mut self, index: u64, input: &[M::Elem]) -> Result<&[M::Elem], NnError> {
        self.run_chunk(index, &[input], <[M::Elem]>::copy_from_slice)?;
        Ok(self.output(0))
    }

    /// Classification convenience over [`HardenedEngine::infer`].
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InputShape`] on a wrong-sized input.
    pub fn classify(&mut self, input: &[M::Elem]) -> Result<Classification, NnError> {
        Ok(M::argmax(self.infer(input)?))
    }

    /// [`HardenedEngine::classify`] of an `f32` input — the front door
    /// decision channels use (a Q16.16 engine quantises it straight into
    /// its input arena, so this allocates nothing either).
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InputShape`] on a wrong-sized input.
    pub fn classify_f32(&mut self, input: &[f32]) -> Result<Classification, NnError> {
        Ok(M::argmax(self.decide(input, M::copy_from_f32)?))
    }

    /// Classification at an explicit global index (pool path).
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InputShape`] on a wrong-sized input.
    pub fn classify_indexed(
        &mut self,
        index: u64,
        input: &[M::Elem],
    ) -> Result<Classification, NnError> {
        Ok(M::argmax(self.infer_indexed(index, input)?))
    }

    /// Classifies decisions `start..start + inputs.len()` as one chunk,
    /// pushing one [`CheckedClassification`] per item in order; equal to
    /// a [`HardenedEngine::classify_indexed`] loop over the same indices.
    fn classify_chunk<I: AsRef<[M::Elem]>>(
        &mut self,
        start: u64,
        inputs: &[I],
        out: &mut Vec<CheckedClassification>,
    ) -> Result<(), NnError> {
        self.run_chunk(start, inputs, <[M::Elem]>::copy_from_slice)?;
        for (item, decision) in self.chunk[..self.live].iter().enumerate() {
            out.push(CheckedClassification {
                classification: M::argmax(self.output(item)),
                events: decision.events.clone(),
                injections: decision.injections.clone(),
            });
        }
        Ok(())
    }

    /// Final activation of item `item` of the most recent chunk.
    fn output(&self, item: usize) -> &[M::Elem] {
        let stride = self.model.max_activation_len();
        let slab = if self.model.layers().len().is_multiple_of(2) {
            &self.arena_a
        } else {
            &self.arena_b
        };
        &slab[item * stride..][..self.model.output_shape().len()]
    }

    /// The core: every decision of the chunk is staged (inject → check)
    /// in index order, then the chunk runs its layer pass (execute →
    /// detect), then each decision's events and injections are reported.
    /// A wrong-sized input fails the chunk before any decision runs;
    /// `write` puts each input into its arena slot.
    fn run_chunk<T, I: AsRef<[T]>>(
        &mut self,
        start: u64,
        inputs: &[I],
        write: impl Fn(&mut [M::Elem], &[T]),
    ) -> Result<(), NnError> {
        let expected = self.model.input_shape();
        if let Some(bad) = inputs.iter().find(|x| x.as_ref().len() != expected.len()) {
            return Err(NnError::InputShape {
                expected,
                actual: bad.as_ref().len(),
            });
        }
        let n = inputs.len();
        reserve_arenas(
            &mut self.arena_a,
            &mut self.arena_b,
            n * self.model.max_activation_len(),
        );
        if self.chunk.len() < n {
            self.chunk.resize_with(n, Decision::default);
        }
        self.live = n;
        self.flushed = 0;
        self.staged = 0;
        for (item, (index, input)) in (start..).zip(inputs).enumerate() {
            self.stage(item, index, input.as_ref(), &write)?;
            self.staged = item + 1;
        }
        self.flush()?;

        for item in 0..n {
            // Without a guard, still refuse to stay silent on a bad
            // (non-finite or saturated) final activation.
            if self.guard.is_none() {
                if let Some(index) = self.output(item).iter().position(|&v| M::is_bad(v)) {
                    let layer = self.model.layers().len() - 1;
                    self.chunk[item].events.push(M::bad_event(layer, index));
                }
            }
            let decision = &self.chunk[item];
            self.events_seen += decision.events.len() as u64;
            if let Some(sink) = &self.sink {
                sink.extend(&decision.events);
            }
        }
        Ok(())
    }

    /// Stages decision `index` as item `item` of the chunk: writes its
    /// input into the arena, applies the input fault, checks the input,
    /// and runs its catch-up and scheduled CRC check(s) — everything the
    /// layer pass must come after.
    fn stage<T>(
        &mut self,
        item: usize,
        index: u64,
        input: &[T],
        write: impl Fn(&mut [M::Elem], &[T]),
    ) -> Result<(), NnError> {
        let stride = self.model.max_activation_len();
        let x = &mut self.arena_a[item * stride..item * stride + input.len()];
        write(x, input);
        let decision = &mut self.chunk[item];
        decision.events.clear();
        decision.injections.clear();

        // One fault stream per decision, derived from (plan seed, index):
        // the sequence of draws is fixed, so pooled and sequential
        // replays of the same decision are identical.
        decision.rng = self.plan.map(|p| p.decision_rng(index));
        if let (Some(fault), Some(rng)) = (self.plan.and_then(|p| p.input), decision.rng.as_mut()) {
            M::apply_input_fault(fault, x, rng, &mut decision.injections);
        }
        // Branch-free input reduction: the all-usable common case
        // auto-vectorizes; the offending index is located only once a
        // fault is known to exist.
        let mut all_ok = true;
        for &v in x.iter() {
            all_ok &= M::input_ok(v);
        }
        if !all_ok {
            if let Some(i) = x.iter().position(|&v| !M::input_ok(v)) {
                decision
                    .events
                    .push(HealthEvent::NonFiniteInput { index: i });
            }
        }

        if self.config.crc_cadence > 0 && !self.golden.is_empty() {
            // With repair enabled, first replay the silent repairs any
            // scheduled checks in `[synced_to, index)` would have applied
            // — a pooled replica may be served a non-contiguous index
            // stream, and its weights must match the sequential reference
            // *before* the layer pass reads them. Within a chunk,
            // `synced_to == index` and this is a no-op.
            if self.config.repair.is_some() {
                self.catch_up(index)?;
            }
            if index.is_multiple_of(self.config.crc_cadence) {
                for gi in 0..self.golden.len() {
                    if let Some(event) = self.check_slot(gi)? {
                        self.chunk[item].events.push(event);
                    }
                }
            }
            self.synced_to = self.synced_to.max(index + 1);
        }
        Ok(())
    }

    /// Runs the layer pass for the staged decisions not yet through it,
    /// injecting each one's activation faults and running its guard after
    /// every layer.
    fn flush(&mut self) -> Result<(), NnError> {
        let (from, to) = (self.flushed, self.staged);
        if from == to {
            return Ok(());
        }
        let stride = self.model.max_activation_len();
        let activation_fault = self.plan.and_then(|p| p.activation);
        let guard = self.guard.as_ref();
        let decisions = &mut self.chunk[from..to];
        run_layers(
            &self.model,
            &mut self.arena_a[from * stride..to * stride],
            &mut self.arena_b[from * stride..to * stride],
            to - from,
            |layer, item, activation| {
                let decision = &mut decisions[item];
                if let (Some(fault), Some(rng)) = (activation_fault, decision.rng.as_mut()) {
                    if rng.chance(fault.p) {
                        let element = rng.below_usize(activation.len());
                        let mut bits = M::to_word(activation[element]);
                        for b in rng.sample_indices(32, fault.bits as usize) {
                            bits ^= 1u32 << b;
                        }
                        activation[element] = M::from_word(bits);
                        decision.injections.push(Injection::ActivationFlip {
                            layer,
                            index: element,
                        });
                    }
                }
                if let Some(guard) = guard {
                    guard.check(layer, activation, &mut decision.events);
                }
            },
        )?;
        self.flushed = to;
        Ok(())
    }
}

/// One pooled result: the classification plus everything the hardening
/// observed while producing it.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckedClassification {
    /// The (possibly fault-affected) classification.
    pub classification: Classification,
    /// Health events raised on this decision.
    pub events: Vec<HealthEvent>,
    /// Faults actually injected on this decision (ground truth; always
    /// empty for Q16.16, which takes no fault plan).
    pub injections: Vec<Injection>,
}

/// A pool of [`HardenedEngine`] replicas for parallel campaign batches.
///
/// Replicas drop the shared sink (its push order would depend
/// on scheduling); instead every result carries its own events and
/// injections, so batch output is bit-identical for any worker count and
/// equal to a sequential [`HardenedEngine::classify_indexed`] loop over
/// the same global indices.
#[derive(Debug, Clone)]
pub struct HardenedPool<M: HardenDomain = Model> {
    workers: Lanes<HardenedEngine<M>>,
    dispatched: u64,
}

impl<M: HardenDomain> HardenedPool<M> {
    /// Creates a pool of `workers` replicas of `engine`.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::Pool`] when `workers` is zero.
    pub fn new(engine: &HardenedEngine<M>, workers: usize) -> Result<Self, NnError> {
        let workers = Lanes::new(workers, || {
            let mut replica = engine.clone();
            replica.detach_observers();
            replica
        })?;
        Ok(HardenedPool {
            workers,
            dispatched: 0,
        })
    }

    /// Number of worker replicas.
    pub fn workers(&self) -> usize {
        self.workers.replicas().len()
    }

    /// Mutable access to every replica, e.g. to apply the same recorded
    /// weight corruption ([`crate::fault::apply_weight_flips`]) to all of
    /// them — replicas must stay byte-identical or batch output would
    /// depend on which replica serves which item.
    pub fn engines_mut(&mut self) -> &mut [HardenedEngine<M>] {
        self.workers.replicas_mut()
    }

    /// Decisions dispatched so far (the next batch starts at this global
    /// index).
    pub fn dispatched(&self) -> u64 {
        self.dispatched
    }

    /// Read-only access to every replica (e.g. to inspect golden
    /// checksums without the mutable-borrow commitments of
    /// [`HardenedPool::engines_mut`]).
    pub fn engines(&self) -> &[HardenedEngine<M>] {
        self.workers.replicas()
    }

    /// Restores the pool's dispatch clock after a snapshot restore: sets
    /// the global decision index and declares every replica synchronised
    /// up to it. All scheduled-check and fault-plan state is keyed off
    /// the global index, so a pool with clean (golden-matching) weights
    /// resynced to the snapshot's `dispatched` continues bit-identically
    /// to the uninterrupted pool.
    pub fn resync(&mut self, dispatched: u64) {
        self.dispatched = dispatched;
        for worker in self.workers.replicas_mut() {
            worker.sync_to(dispatched);
        }
    }

    /// Re-goldens every replica on its current weights and verifies the
    /// result: each replica re-captures CRC-32 checksums and rebuilds its
    /// ECC sidecars ([`HardenedEngine::rebaseline`]), then must pass
    /// [`HardenedEngine::verify_weights`] and agree bit-for-bit with
    /// replica 0's golden set — divergent replicas would make batch
    /// output depend on worker assignment, which is exactly the silent
    /// corruption a hot swap must not introduce.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::Fault`] (per-replica verify failure) or
    /// [`NnError::Pool`] (cross-replica golden divergence). The pool is
    /// left re-goldened but the caller must treat any error as a failed
    /// swap and discard the pool.
    pub fn regolden(&mut self) -> Result<(), NnError> {
        for worker in self.workers.replicas_mut() {
            worker.rebaseline();
        }
        let replicas = self.workers.replicas();
        let reference: Vec<(usize, u32)> = replicas[0].golden_checksums().to_vec();
        for (i, worker) in replicas.iter().enumerate() {
            worker.verify_weights().map_err(|e| {
                NnError::Fault(format!("replica {i} failed post-regolden verify: {e}"))
            })?;
            if worker.golden_checksums() != reference.as_slice() {
                return Err(NnError::Pool(format!(
                    "replica {i} golden checksums diverge from replica 0 after regolden"
                )));
            }
        }
        Ok(())
    }

    /// Classifies a batch in parallel, preserving input order; global
    /// decision indices continue across batches.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InputShape`] if any input has the wrong element
    /// count; the whole batch fails (no partial results).
    pub fn classify_batch<I: AsRef<[M::Elem]>>(
        &mut self,
        inputs: &[I],
    ) -> Result<Vec<CheckedClassification>, NnError> {
        let base = self.dispatched;
        // Weight strikes (via `engines_mut`) can only land between
        // batches, where they hit every replica identically; advancing
        // every replica's sync point to the batch base keeps the repair
        // catch-up from replaying pre-strike scheduled checks — which the
        // sequential reference saw as clean — against post-strike
        // weights.
        for worker in self.workers.replicas_mut() {
            worker.sync_to(base);
        }
        let out = self
            .workers
            .dispatch(base, inputs, |engine, start, chunk, out| {
                engine.classify_chunk(start, chunk, out)
            })?;
        self.dispatched = base + inputs.len() as u64;
        let repaired = out
            .iter()
            .flat_map(|c| &c.events)
            .any(|e| matches!(e, HealthEvent::CorrectedFault { .. }));
        if repaired {
            for worker in self.workers.replicas_mut() {
                worker.settle(self.dispatched)?;
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::engine::Engine;
    use crate::fault::{ActivationFault, FaultInjector, InputFault};
    use crate::model::ModelBuilder;
    use crate::quant::QModel;
    use safex_tensor::{DetRng, Shape};

    fn model(seed: u64) -> Model {
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

    fn calibration() -> Vec<Vec<f32>> {
        let mut rng = DetRng::new(99);
        (0..16)
            .map(|_| (0..4).map(|_| rng.next_f32() * 2.0 - 1.0).collect())
            .collect()
    }

    #[test]
    fn crc32_known_vector() {
        // IEEE CRC-32 of "123456789" is 0xCBF43926.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(&[]), 0);
    }

    #[test]
    fn crc32_words_matches_bytewise() {
        // The sliced word path must agree with the byte-at-a-time
        // reference for even word counts (slicing-by-8), odd word counts
        // (slicing-by-4 tail), single words, and empty streams.
        for n in [0usize, 1, 2, 3, 7, 8, 64, 129] {
            let words: Vec<u32> = (0..n as u32).map(|i| i.wrapping_mul(0x9E37_79B9)).collect();
            let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
            assert_eq!(
                crc32_words(words.iter().copied()),
                crc32(&bytes),
                "word/byte CRC disagree at {n} words"
            );
        }
        // Known vector through the word path: "123456789" is not
        // word-aligned, so check a word-aligned known case instead
        // ("12345678" = two LE words).
        let expected = crc32(b"12345678");
        assert_eq!(
            crc32_words([0x3433_3231, 0x3837_3635].into_iter()),
            expected
        );
    }

    #[test]
    fn staleness_bound_formula() {
        let every = HardenConfig::default();
        assert_eq!(every.staleness_bound(3), Some(1));
        let cadence4 = HardenConfig {
            crc_cadence: 4,
            ..HardenConfig::default()
        };
        assert_eq!(cadence4.staleness_bound(3), Some(4));
        assert_eq!(cadence4.staleness_bound(0), None);
        let disabled = HardenConfig {
            crc_cadence: 0,
            ..HardenConfig::default()
        };
        assert_eq!(disabled.staleness_bound(3), None);

        // The engine reports its own bound from its golden layer count
        // (the demo model has two parametric layers).
        let engine = HardenedEngine::new(model(20), cadence4).unwrap();
        assert_eq!(engine.golden_checksums().len(), 2);
        assert_eq!(engine.staleness_bound(), Some(4));
    }

    #[test]
    fn full_respects_cadence_and_staleness() {
        let config = HardenConfig {
            crc_cadence: 4,
            ..HardenConfig::default()
        };
        let mut hardened = HardenedEngine::new(model(35), config).unwrap();
        assert_eq!(hardened.staleness_bound(), Some(4), "Full bound = cadence");
        let input = [0.0; 4];
        hardened.infer(&input).unwrap(); // index 0: verified, clean
        flip(hardened.model_mut(), 2, 0, 3);
        for index in 1..4 {
            hardened.infer(&input).unwrap();
            assert!(
                hardened.last_events().is_empty(),
                "index {index} is off-cadence"
            );
        }
        hardened.infer(&input).unwrap(); // index 4: verified
        assert!(matches!(
            hardened.last_events(),
            [HealthEvent::ChecksumMismatch { staleness: 4, .. }]
        ));
        // Rebaseline accepts the current weights and refreshes the
        // cached staleness bound.
        hardened.rebaseline();
        assert_eq!(hardened.staleness_bound(), Some(4));
        hardened.infer(&input).unwrap();
        assert!(hardened.last_events().is_empty());
    }

    #[test]
    fn checksum_respects_cadence() {
        let config = HardenConfig {
            crc_cadence: 4,
            ..HardenConfig::default()
        };
        let mut hardened = HardenedEngine::new(model(3), config).unwrap();
        let input = [0.0; 4];
        hardened.infer(&input).unwrap(); // index 0: checked, clean
        FaultInjector::new(1)
            .flip_weight_bits(hardened.model_mut(), 1, 1)
            .unwrap();
        for index in 1..4 {
            hardened.infer(&input).unwrap();
            assert!(
                hardened.last_events().is_empty(),
                "index {index} is off-cadence"
            );
        }
        hardened.infer(&input).unwrap(); // index 4: checked
        assert!(matches!(
            hardened.last_events(),
            [HealthEvent::ChecksumMismatch { .. }]
        ));
    }

    #[test]
    fn guard_flags_out_of_envelope_activations() {
        let mut hardened = HardenedEngine::new(model(4), HardenConfig::default()).unwrap();
        hardened.calibrate(&calibration()).unwrap();
        // Calibration inputs live in [-1, 1]; an input 100x outside drives
        // the first dense layer far beyond its widened envelope.
        hardened.infer(&[100.0, -100.0, 100.0, -100.0]).unwrap();
        assert!(
            hardened
                .last_events()
                .iter()
                .any(|e| matches!(e, HealthEvent::ActivationOutOfRange { layer: 0, .. })),
            "events: {:?}",
            hardened.last_events()
        );
    }

    #[test]
    fn non_finite_input_flagged() {
        let mut hardened = HardenedEngine::new(model(5), HardenConfig::default()).unwrap();
        hardened.infer(&[0.0, f32::NAN, 0.0, 0.0]).unwrap();
        assert!(hardened
            .last_events()
            .iter()
            .any(|e| matches!(e, HealthEvent::NonFiniteInput { index: 1 })));
    }

    #[test]
    fn input_faults_are_decision_keyed() {
        let plan = FaultPlan::input(77, InputFault::Noise { sigma: 0.1, p: 1.0 });
        let make = || {
            let mut h = HardenedEngine::new(model(6), HardenConfig::default()).unwrap();
            h.set_plan(plan).unwrap();
            h
        };
        let input = [0.5, -0.5, 0.25, -0.25];
        let mut a = make();
        let mut b = make();
        let out_a0 = a.infer(&input).unwrap().to_vec();
        let out_b0 = b.infer(&input).unwrap().to_vec();
        assert_eq!(out_a0, out_b0, "same decision index, same perturbation");
        assert_eq!(a.last_injections(), &[Injection::InputNoise]);
        let out_a1 = a.infer(&input).unwrap().to_vec();
        assert_ne!(out_a0, out_a1, "different index, different perturbation");
        // Explicit index reproduces the pooled view of the same decision.
        let mut c = make();
        assert_eq!(c.infer_indexed(1, &input).unwrap(), out_a1.as_slice());
    }

    #[test]
    fn stuck_and_dropout_faults_apply() {
        let input = [0.5, -0.5, 0.25, -0.25];
        let mut h = HardenedEngine::new(model(7), HardenConfig::default()).unwrap();
        h.set_plan(FaultPlan::input(
            3,
            InputFault::Stuck {
                index: 2,
                level: 9.0,
                p: 1.0,
            },
        ))
        .unwrap();
        let mut clean = Engine::new(model(7));
        let mut stuck_input = input;
        stuck_input[2] = 9.0;
        let expected = clean.infer(&stuck_input).unwrap().to_vec();
        assert_eq!(h.infer(&input).unwrap(), expected.as_slice());
        assert_eq!(h.last_injections(), &[Injection::InputStuck { index: 2 }]);

        let mut d = HardenedEngine::new(model(7), HardenConfig::default()).unwrap();
        d.set_plan(FaultPlan::input(
            4,
            InputFault::Dropout { drop: 1.0, p: 1.0 },
        ))
        .unwrap();
        let expected = clean.infer(&[0.0; 4]).unwrap().to_vec();
        assert_eq!(d.infer(&input).unwrap(), expected.as_slice());
        assert_eq!(
            d.last_injections(),
            &[Injection::InputDropout { zeroed: 4 }]
        );
    }

    #[test]
    fn activation_faults_logged_and_deterministic() {
        let plan = FaultPlan::activation(21, ActivationFault { p: 0.5, bits: 2 });
        let run = |n: u64| {
            let mut h = HardenedEngine::new(model(8), HardenConfig::default()).unwrap();
            h.set_plan(plan).unwrap();
            let input = [0.1, 0.2, 0.3, 0.4];
            let mut injections = Vec::new();
            let outs: Vec<Vec<f32>> = (0..n)
                .map(|_| {
                    let out = h.infer(&input).unwrap().to_vec();
                    injections.extend_from_slice(h.last_injections());
                    out
                })
                .collect();
            (outs, injections)
        };
        let (outs_a, log_a) = run(20);
        let (outs_b, log_b) = run(20);
        assert_eq!(outs_a, outs_b);
        assert_eq!(log_a, log_b);
        assert!(
            !log_a.is_empty(),
            "p=0.5 over 20x3 layer boundaries must hit"
        );
    }

    #[test]
    fn pool_indices_continue_across_batches() {
        let mut engine = HardenedEngine::new(model(10), HardenConfig::default()).unwrap();
        engine
            .set_plan(FaultPlan::input(
                5,
                InputFault::Noise { sigma: 0.5, p: 0.5 },
            ))
            .unwrap();
        let inputs = calibration();
        let whole = HardenedPool::new(&engine, 2)
            .unwrap()
            .classify_batch(&inputs)
            .unwrap();
        let mut pool = HardenedPool::new(&engine, 2).unwrap();
        let mut split = pool.classify_batch(&inputs[..7]).unwrap();
        assert_eq!(pool.dispatched(), 7);
        split.extend(pool.classify_batch(&inputs[7..]).unwrap());
        assert_eq!(split, whole, "split batches must see the same indices");
    }

    #[test]
    fn verify_weights_is_a_pure_corruption_probe() {
        let config = HardenConfig {
            repair: Some(EccConfig::default()),
            ..HardenConfig::default()
        };
        let mut hardened = HardenedEngine::new(model(40), config).unwrap();
        assert!(hardened.verify_weights().is_ok());
        let layer = hardened.golden_checksums()[0].0;
        flip(hardened.model_mut(), layer, 0, 0);
        let err = hardened.verify_weights().unwrap_err();
        assert!(
            err.to_string().contains("crc mismatch"),
            "unexpected error: {err}"
        );
        // The probe must not have repaired or escalated anything: the
        // flip is still there and a second probe still fails.
        assert!(hardened.verify_weights().is_err());
        // rebaseline accepts the current weights as the new golden state
        // (the hot-swap path), after which verify passes again.
        hardened.rebaseline();
        assert!(hardened.verify_weights().is_ok());
    }

    #[test]
    fn pool_resync_continues_bit_identically() {
        let config = HardenConfig {
            crc_cadence: 2,
            repair: Some(EccConfig::default()),
            ..HardenConfig::default()
        };
        let engine = HardenedEngine::new(model(41), config).unwrap();
        let inputs = calibration();
        let mut continuous = HardenedPool::new(&engine, 3).unwrap();
        continuous.classify_batch(&inputs[..7]).unwrap();
        let expected = continuous.classify_batch(&inputs[7..]).unwrap();
        // A fresh pool resynced to the old dispatch clock — the restore
        // path — must produce the same tail batch.
        let mut restored = HardenedPool::new(&engine, 3).unwrap();
        restored.resync(7);
        assert_eq!(restored.dispatched(), 7);
        let got = restored.classify_batch(&inputs[7..]).unwrap();
        assert_eq!(got, expected, "resynced pool diverged from continuous run");
    }

    #[test]
    fn pool_regolden_accepts_uniform_and_rejects_divergent_replicas() {
        let config = HardenConfig {
            repair: Some(EccConfig::default()),
            ..HardenConfig::default()
        };
        let engine = HardenedEngine::new(model(42), config).unwrap();
        let mut pool = HardenedPool::new(&engine, 3).unwrap();
        let before: Vec<(usize, u32)> = pool.engines()[0].golden_checksums().to_vec();
        let layer = before[0].0;
        // A uniform weight change across every replica (the swap path:
        // incoming weights land on all of them) re-goldens cleanly.
        for replica in pool.engines_mut() {
            flip(replica.model_mut(), layer, 0, 0);
        }
        pool.regolden().unwrap();
        let after: Vec<(usize, u32)> = pool.engines()[0].golden_checksums().to_vec();
        assert_ne!(before, after, "regolden must track the new weights");
        for replica in pool.engines() {
            assert!(replica.verify_weights().is_ok());
        }
        // A change on only one replica is exactly the divergence the
        // verify step exists to catch.
        flip(pool.engines_mut()[1].model_mut(), layer, 0, 0);
        match pool.regolden() {
            Err(NnError::Pool(msg)) => assert!(msg.contains("diverge"), "msg: {msg}"),
            other => panic!("divergent replicas must fail regolden, got {other:?}"),
        }
    }

    #[test]
    fn repair_mid_chunk_flushes_earlier_items() {
        // Cadence 2: decisions 7 and 9 are off-cadence, so a strike that
        // lands at the batch boundary before decision 7 is seen and
        // repaired by decision 8's check. For every worker count that
        // check sits at item k > 0 of its chunk ({7..16}, {7..12},
        // {7, 8, 9}), so decision 7 must still run on the struck weights
        // — the layer pass it shares with decision 8 has to be flushed
        // before the repair.
        let config = HardenConfig {
            crc_cadence: 2,
            repair: Some(EccConfig::default()),
            ..HardenConfig::default()
        };
        let mut engine = HardenedEngine::new(model(33), config).unwrap();
        engine.calibrate(&calibration()).unwrap();
        engine
            .set_plan(FaultPlan {
                seed: 17,
                input: Some(InputFault::Noise { sigma: 0.2, p: 0.5 }),
                activation: Some(ActivationFault { p: 0.3, bits: 1 }),
            })
            .unwrap();
        let inputs = calibration();
        let strike_layer = engine.golden_checksums()[1].0;

        let mut reference = Vec::new();
        let mut seq = engine.clone();
        for (i, input) in inputs.iter().enumerate() {
            if i == 7 {
                // An exponent bit, so decision 7's output visibly moves.
                flip(seq.model_mut(), strike_layer, 1, 30);
            }
            let classification = seq.classify_indexed(i as u64, input).unwrap();
            reference.push(CheckedClassification {
                classification,
                events: seq.last_events().to_vec(),
                injections: seq.last_injections().to_vec(),
            });
        }
        assert!(
            matches!(
                reference[8].events[..],
                [HealthEvent::CorrectedFault { .. }, ..]
            ),
            "decision 8 repairs: {:?}",
            reference[8].events
        );
        let pristine = engine.clone().classify_indexed(7, &inputs[7]).unwrap();
        assert_ne!(
            reference[7].classification, pristine,
            "decision 7 must see the struck weights"
        );

        for workers in [1, 2, 4] {
            let mut pool = HardenedPool::new(&engine, workers).unwrap();
            let mut got = pool.classify_batch(&inputs[..7]).unwrap();
            for replica in pool.engines_mut() {
                flip(replica.model_mut(), strike_layer, 1, 30);
            }
            got.extend(pool.classify_batch(&inputs[7..]).unwrap());
            assert_eq!(got, reference, "{workers} workers diverged");
        }
    }

    /// Per-model-type test scaffolding: the shared 4→8→3 demo model in
    /// the domain, and the unhardened engine its outputs must match.
    pub(crate) trait Fixture: HardenDomain {
        fn build(model: Model) -> Self;
        fn plain_infer(&self, input: &[Self::Elem]) -> Vec<Self::Elem> {
            Engine::new(self.clone()).infer(input).unwrap().to_vec()
        }
    }

    impl Fixture for Model {
        fn build(model: Model) -> Self {
            model
        }
    }

    impl Fixture for QModel {
        fn build(model: Model) -> Self {
            QModel::quantize(&model).unwrap()
        }
    }

    fn domain_model<M: Fixture>(seed: u64) -> M {
        M::build(model(seed))
    }

    /// [`calibration`] in the model's domain (Q16.16 quantises).
    pub(crate) fn domain_inputs<M: Fixture>(n: usize) -> Vec<Vec<M::Elem>> {
        let mut rng = DetRng::new(99);
        (0..n)
            .map(|_| {
                let x: Vec<f32> = (0..4).map(|_| rng.next_f32() * 2.0 - 1.0).collect();
                to_domain::<M>(&x)
            })
            .collect()
    }

    /// Flips `bit` of weight `word` of parametric layer `layer`.
    pub(crate) fn flip<M: HardenDomain>(model: &mut M, layer: usize, word: usize, bit: u32) {
        let (weights, _) = M::params_mut(&mut model.layers_mut()[layer]).expect("parametric layer");
        weights[word] = M::from_word(M::to_word(weights[word]) ^ (1 << bit));
    }

    /// A sequential `classify_indexed` loop over `inputs`, applying
    /// `strike` just before decision `at`.
    fn sequential<M: HardenDomain>(
        engine: &HardenedEngine<M>,
        inputs: &[Vec<M::Elem>],
        at: usize,
        strike: impl Fn(&mut M),
    ) -> Vec<CheckedClassification> {
        let mut seq = engine.clone();
        let mut out = Vec::new();
        for (i, input) in inputs.iter().enumerate() {
            if i == at {
                strike(seq.model_mut());
            }
            let classification = seq.classify_indexed(i as u64, input).unwrap();
            out.push(CheckedClassification {
                classification,
                events: seq.last_events().to_vec(),
                injections: seq.last_injections().to_vec(),
            });
        }
        out
    }

    pub(crate) fn clean_run_matches_plain_engine<M: Fixture>(seed: u64) {
        let m: M = domain_model(seed);
        let mut hardened = HardenedEngine::new(m.clone(), HardenConfig::default()).unwrap();
        let inputs = domain_inputs::<M>(16);
        hardened.calibrate(&inputs).unwrap();
        for input in &inputs {
            let expected = m.plain_infer(input);
            let got = hardened.infer(input).unwrap();
            assert_eq!(
                got,
                expected.as_slice(),
                "hardening must not perturb output"
            );
            assert!(hardened.last_events().is_empty());
        }
        assert_eq!(hardened.event_count(), 0);
        assert_eq!(hardened.decision_count(), 16);
    }

    pub(crate) fn checksum_catches_weight_flip_in<M: Fixture>(seed: u64) {
        let mut hardened =
            HardenedEngine::new(domain_model::<M>(seed), HardenConfig::default()).unwrap();
        let input = &domain_inputs::<M>(1)[0];
        hardened.infer(input).unwrap();
        assert!(hardened.last_events().is_empty());
        let layer = hardened.golden_checksums()[1].0;
        flip(hardened.model_mut(), layer, 0, 5);
        hardened.infer(input).unwrap();
        assert!(
            matches!(
                hardened.last_events(),
                [HealthEvent::ChecksumMismatch { layer: l, .. }] if *l == layer
            ),
            "CRC on cadence 1 must flag the strike: {:?}",
            hardened.last_events()
        );
        // Rebaselining accepts the current (corrupted) weights as golden.
        hardened.rebaseline();
        hardened.infer(input).unwrap();
        assert!(hardened.last_events().is_empty());
    }

    /// A single flip of `bit` in the last layer is repaired at the
    /// scheduled check, *before* the layer pass reads the weights: the
    /// corrected decision already matches the pristine engine, and the
    /// fault is gone afterwards.
    pub(crate) fn repair_restores_pristine<M: Fixture>(seed: u64, bit: u32) {
        let config = HardenConfig {
            repair: Some(EccConfig::default()),
            ..HardenConfig::default()
        };
        let m: M = domain_model(seed);
        let mut hardened = HardenedEngine::new(m.clone(), config).unwrap();
        assert_eq!(hardened.staleness_bound(), Some(1), "Full bound = cadence");
        let input = &domain_inputs::<M>(1)[0];
        hardened.infer(input).unwrap();
        assert!(hardened.last_events().is_empty());

        let last_layer = hardened.golden_checksums().last().unwrap().0;
        flip(hardened.model_mut(), last_layer, 0, bit);
        let expected = m.plain_infer(input);
        let got = hardened.infer(input).unwrap().to_vec();
        assert_eq!(got, expected, "corrected decision must match pristine");
        assert!(
            matches!(
                hardened.last_events(),
                [HealthEvent::CorrectedFault { layer, word: 0, bit: b, staleness: 1 }]
                    if *layer == last_layer && *b == bit
            ),
            "events: {:?}",
            hardened.last_events()
        );
        hardened.infer(input).unwrap();
        assert!(hardened.last_events().is_empty(), "the fault is gone");
        // Interleaved parity at block 32 ≈ 6.25 % sidecar overhead.
        let overhead = hardened.sidecar_overhead().unwrap();
        assert!(
            (0.05..0.10).contains(&overhead),
            "unexpected overhead {overhead}"
        );
    }

    /// Two flips in distinct words of one layer: no single-flip signature
    /// exists, so ECC must refuse and the checksum path escalates exactly
    /// as without repair, leaving the damage untouched.
    pub(crate) fn double_flip_escalates<M: Fixture>(seed: u64) {
        let config = HardenConfig {
            repair: Some(EccConfig::default()),
            ..HardenConfig::default()
        };
        let mut hardened = HardenedEngine::new(domain_model::<M>(seed), config).unwrap();
        let input = &domain_inputs::<M>(1)[0];
        hardened.infer(input).unwrap();
        let layer = hardened.golden_checksums()[0].0;
        flip(hardened.model_mut(), layer, 0, 0);
        flip(hardened.model_mut(), layer, 1, 7);
        let damaged = golden_words(hardened.model(), layer);
        hardened.infer(input).unwrap();
        assert!(
            matches!(
                hardened.last_events(),
                [HealthEvent::ChecksumMismatch { layer: l, .. }] if *l == layer
            ),
            "double flip must escalate: {:?}",
            hardened.last_events()
        );
        assert_eq!(
            golden_words(hardened.model(), layer),
            damaged,
            "uncorrectable damage must never be miscorrected"
        );
    }

    /// Pools of every listed worker count equal the sequential loop.
    pub(crate) fn assert_pool_matches_sequential<M: HardenDomain>(
        engine: &HardenedEngine<M>,
        inputs: &[Vec<M::Elem>],
        workers: &[usize],
    ) {
        let reference = sequential(engine, inputs, usize::MAX, |_| {});
        for &workers in workers {
            let mut pool = HardenedPool::new(engine, workers).unwrap();
            let got = pool.classify_batch(inputs).unwrap();
            assert_eq!(got, reference, "{workers} workers diverged");
            assert_eq!(pool.dispatched(), inputs.len() as u64);
        }
    }

    /// Repair mutates replica weight state mid-stream; the catch-up
    /// machinery must keep pooled output byte-identical to sequential for
    /// any worker count, for a strike already in
    /// the engine the replicas are cloned from and for one landing on
    /// every replica at a batch boundary.
    pub(crate) fn repair_pool_matches_sequential<M: Fixture>(seed: u64, bit: u32) {
        let config = HardenConfig {
            crc_cadence: 2,
            repair: Some(EccConfig { block_words: 8 }),
            ..HardenConfig::default()
        };
        let mut engine = HardenedEngine::new(domain_model::<M>(seed), config).unwrap();
        let inputs = domain_inputs::<M>(16);
        engine.calibrate(&inputs).unwrap();
        let layer = engine.golden_checksums().last().unwrap().0;
        let strike = |m: &mut M| flip(m, layer, 0, bit);
        let corrected = |r: &[CheckedClassification]| {
            r.iter()
                .flat_map(|c| &c.events)
                .any(|e| matches!(e, HealthEvent::CorrectedFault { .. }))
        };

        let mut struck = engine.clone();
        strike(struck.model_mut());
        let reference = sequential(&struck, &inputs, usize::MAX, |_| {});
        assert!(corrected(&reference), "the strike must be corrected");
        for workers in [1, 2, 4, 8] {
            let mut pool = HardenedPool::new(&struck, workers).unwrap();
            let got = pool.classify_batch(&inputs).unwrap();
            assert_eq!(got, reference, "{workers} workers, pre-clone strike");
        }

        let reference = sequential(&engine, &inputs, 8, strike);
        assert!(corrected(&reference), "the strike must be corrected");
        for workers in [1, 2, 4, 8] {
            let mut pool = HardenedPool::new(&engine, workers).unwrap();
            let mut got = pool.classify_batch(&inputs[..8]).unwrap();
            for replica in pool.engines_mut() {
                strike(replica.model_mut());
            }
            got.extend(pool.classify_batch(&inputs[8..]).unwrap());
            assert_eq!(got, reference, "{workers} workers, boundary strike");
        }
    }

    pub(crate) fn bad_configs_rejected_in<M: Fixture>() {
        let bad_slack = HardenConfig {
            guard_slack: -1.0,
            ..HardenConfig::default()
        };
        assert!(HardenedEngine::new(domain_model::<M>(11), bad_slack).is_err());
        let mut h = HardenedEngine::new(domain_model::<M>(11), HardenConfig::default()).unwrap();
        assert!(h.calibrate(&Vec::<Vec<M::Elem>>::new()).is_err());
        assert!(HardenedPool::new(&h, 0).is_err());
        let zero_block = HardenConfig {
            repair: Some(EccConfig { block_words: 0 }),
            ..HardenConfig::default()
        };
        assert!(
            HardenedEngine::new(domain_model::<M>(11), zero_block).is_err(),
            "zero ecc block size"
        );
    }

    #[test]
    fn clean_run_matches_engine_and_raises_nothing() {
        clean_run_matches_plain_engine::<Model>(1);
    }

    #[test]
    fn checksum_catches_weight_flip() {
        checksum_catches_weight_flip_in::<Model>(2);
    }

    #[test]
    fn full_repair_restores_pristine_output() {
        // An exponent-bit flip moves the output, so matching the pristine
        // engine proves the repair ran before the layer loop.
        repair_restores_pristine::<Model>(34, 30);
    }

    #[test]
    fn ecc_repairs_single_bit_flip_and_keeps_serving() {
        repair_restores_pristine::<Model>(30, 0);
    }

    #[test]
    fn ecc_leaves_double_flips_on_the_escalation_path() {
        double_flip_escalates::<Model>(31);
    }

    #[test]
    fn pool_matches_sequential_for_any_worker_count() {
        let mut engine = HardenedEngine::new(model(9), HardenConfig::default()).unwrap();
        engine.calibrate(&calibration()).unwrap();
        engine
            .set_plan(FaultPlan {
                seed: 13,
                input: Some(InputFault::Noise { sigma: 0.2, p: 0.3 }),
                activation: Some(ActivationFault { p: 0.2, bits: 2 }),
            })
            .unwrap();
        assert_pool_matches_sequential(&engine, &calibration(), &[1, 2, 4]);
    }

    /// At cadence 2 the checked decisions rotate against the chunk
    /// boundaries as the worker count changes; every split must still
    /// equal the sequential loop.
    #[test]
    fn rotating_pool_matches_sequential_for_any_worker_count() {
        let config = HardenConfig {
            crc_cadence: 2,
            ..HardenConfig::default()
        };
        let mut engine = HardenedEngine::new(model(23), config).unwrap();
        engine.calibrate(&calibration()).unwrap();
        engine
            .set_plan(FaultPlan {
                seed: 31,
                input: Some(InputFault::Noise { sigma: 0.2, p: 0.3 }),
                activation: Some(ActivationFault { p: 0.2, bits: 2 }),
            })
            .unwrap();
        assert_pool_matches_sequential(&engine, &calibration(), &[1, 2, 4, 8]);
    }

    #[test]
    fn repair_pool_matches_sequential_under_boundary_strikes() {
        repair_pool_matches_sequential::<Model>(32, 0);
    }

    #[test]
    fn bad_configs_rejected() {
        bad_configs_rejected_in::<Model>();
    }
}
