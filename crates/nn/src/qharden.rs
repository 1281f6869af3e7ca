//! Runtime hardening for the quantised (Q16.16) inference path.
//!
//! Mirrors [`crate::harden`] for [`QEngine`]: golden CRC-32 checksums over
//! the Q16.16 parameter words re-verified on a cadence (with the same
//! [`CrcStrategy`] rotation discipline), plus calibrated activation range
//! guards in raw fixed-point space. Detections surface as the same typed
//! [`HealthEvent`]s through the same [`HealthSink`], so a
//! `HealthMonitor` upstream cannot tell — and does not care — which
//! implementation raised the alarm.
//!
//! The point is *diverse redundancy*: a 2-out-of-3 pattern can now pair a
//! hardened `f32` channel with a hardened Q16.16 channel, and a fault
//! campaign can strike **both** implementations
//! ([`crate::fault::FaultInjector::flip_qweight_bits`] via
//! [`HardenedQEngine::model_mut`]) while each side's own diagnostics stay
//! armed. Fixed point has no NaN to catch, so the non-finite checks of the
//! float path become *saturation* checks here: a value railed at
//! [`Q16_16::MAX`]/[`Q16_16::MIN`] is the fixed-point analogue of an
//! overflowed float and is reported as
//! [`HealthEvent::SaturatedActivation`].
//!
//! Unlike [`crate::harden::HardenedEngine`] there is no attached
//! [`FaultPlan`](crate::fault::FaultPlan): input- and activation-stage
//! injection stays on the `f32` front-end engine, while the quantised
//! engine's SEU strike surface is its weight store. Per-decision work is
//! keyed by a global decision index exactly like the float path, so
//! [`HardenedQPool`] is bit-identical to a sequential
//! [`HardenedQEngine::classify_indexed`] loop for any worker count.

use safex_tensor::fixed::Q16_16;
use safex_tensor::CrcAccumulator;

use crate::ecc::{EccCode, EccConfig, RepairOutcome};
use crate::engine::Classification;
use crate::error::NnError;
use crate::harden::{
    crc32_words, CheckedClassification, CrcStrategy, HardenConfig, HealthEvent, HealthSink,
};
use crate::pool::Lanes;
use crate::quant::{run_qlayer, QLayer, QModel};

/// The parametric buffers checksums cover, if the layer has any.
fn q_parametric_buffers(layer: &QLayer) -> Option<(&[Q16_16], &[Q16_16])> {
    match layer {
        QLayer::Dense { weights, bias, .. } | QLayer::Conv2d { weights, bias, .. } => {
            Some((weights, bias))
        }
        _ => None,
    }
}

/// Mutable view of the buffers [`q_parametric_buffers`] covers (repair
/// write-back path).
fn q_parametric_buffers_mut(layer: &mut QLayer) -> Option<(&mut [Q16_16], &mut [Q16_16])> {
    match layer {
        QLayer::Dense { weights, bias, .. } | QLayer::Conv2d { weights, bias, .. } => {
            Some((weights, bias))
        }
        _ => None,
    }
}

/// Encodes one ECC sidecar per golden (checksummed) quantised layer, over
/// the same raw Q16.16 word stream the CRC covers.
fn encode_q_sidecars(
    model: &QModel,
    golden: &[(usize, u32)],
    config: EccConfig,
) -> Result<Vec<EccCode>, NnError> {
    golden
        .iter()
        .map(|&(layer, _)| {
            let (weights, bias) = q_parametric_buffers(&model.layers()[layer])
                .expect("golden entries index parametric layers");
            let words: Vec<u32> = weights
                .iter()
                .chain(bias)
                .map(|q| q.to_bits() as u32)
                .collect();
            EccCode::encode(&words, config)
        })
        .collect()
}

/// CRC-32 of one quantised layer's parameters (`None` for non-parametric
/// layers). Runs over the raw Q16.16 bit words, so it is exactly as cheap
/// as the float path's [`crate::harden::layer_checksum`].
pub fn qlayer_checksum(layer: &QLayer) -> Option<u32> {
    q_parametric_buffers(layer).map(|(weights, bias)| {
        let mut acc = CrcAccumulator::new();
        acc.update_q16(weights);
        acc.update_q16(bias);
        acc.finish()
    })
}

/// CRC-32 of every parametric quantised layer: `(layer index, crc)` pairs.
///
/// Covers dense and convolution weights and biases — the buffers
/// [`crate::fault::FaultInjector::flip_qweight_bits`] can hit. Frozen
/// batch-norm scale/shift is excluded, matching the float path.
pub fn qlayer_checksums(model: &QModel) -> Vec<(usize, u32)> {
    model
        .layers()
        .iter()
        .enumerate()
        .filter_map(|(i, layer)| qlayer_checksum(layer).map(|crc| (i, crc)))
        .collect()
}

/// Per-layer Q16.16 activation envelopes learned from calibration data.
///
/// The fixed-point counterpart of
/// [`crate::harden::ActivationGuard`]: envelopes live in raw Q16.16 bit
/// space, widening is integer arithmetic on the raw span, and the
/// non-finite check becomes a saturation check.
#[derive(Debug, Clone, PartialEq)]
pub struct QActivationGuard {
    /// `(lo, hi)` per layer in raw Q16.16 bits, already slack-widened.
    ranges: Vec<(i32, i32)>,
}

impl QActivationGuard {
    /// Learns envelopes by tracing the *clean* quantised model over
    /// calibration inputs and widening each layer's observed `[min, max]`
    /// by `slack × span` on both sides (computed on the raw bit span,
    /// saturating at the format limits).
    ///
    /// # Errors
    ///
    /// Returns [`NnError::Fault`] for an empty calibration set, an invalid
    /// slack, or a calibration run that saturates (a model whose *clean*
    /// activations rail the format cannot be guarded meaningfully), and
    /// propagates inference errors on bad inputs.
    pub fn calibrate<I: AsRef<[Q16_16]>>(
        model: &QModel,
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
        let mut tracer = Tracer::new(model.clone());
        let mut ranges = vec![(i32::MAX, i32::MIN); model.layers().len()];
        for input in inputs {
            tracer.trace(input.as_ref(), |layer, activation| {
                let range = &mut ranges[layer];
                for &v in activation {
                    if v.is_saturated() {
                        return Err(NnError::Fault(
                            "calibration produced a saturated activation".into(),
                        ));
                    }
                    range.0 = range.0.min(v.to_bits());
                    range.1 = range.1.max(v.to_bits());
                }
                Ok(())
            })?;
        }
        for range in &mut ranges {
            let span = (i64::from(range.1) - i64::from(range.0)).max(1);
            let pad = ((span as f64) * f64::from(slack)).ceil() as i64;
            range.0 =
                (i64::from(range.0) - pad).clamp(i64::from(i32::MIN), i64::from(i32::MAX)) as i32;
            range.1 =
                (i64::from(range.1) + pad).clamp(i64::from(i32::MIN), i64::from(i32::MAX)) as i32;
        }
        Ok(QActivationGuard { ranges })
    }

    /// The widened `(lo, hi)` envelope per layer, in raw Q16.16 bits.
    pub fn ranges(&self) -> &[(i32, i32)] {
        &self.ranges
    }

    /// Checks one layer's activation, reporting at most one event (the
    /// first offending element) to bound per-decision event volume.
    fn check(&self, layer: usize, activation: &[Q16_16], events: &mut Vec<HealthEvent>) {
        let (lo, hi) = self.ranges[layer];
        for (index, &value) in activation.iter().enumerate() {
            if value.is_saturated() {
                events.push(HealthEvent::SaturatedActivation { layer, index });
                return;
            }
            let bits = value.to_bits();
            if bits < lo || bits > hi {
                events.push(HealthEvent::ActivationOutOfRange {
                    layer,
                    index,
                    value: value.to_f32(),
                    lo: Q16_16::from_bits(lo).to_f32(),
                    hi: Q16_16::from_bits(hi).to_f32(),
                });
                return;
            }
        }
    }
}

/// Minimal per-layer tracer over the quantised layer kernels (calibration
/// only; the hot path never allocates through this).
struct Tracer {
    model: QModel,
    buf_a: Vec<Q16_16>,
    buf_b: Vec<Q16_16>,
}

impl Tracer {
    fn new(model: QModel) -> Self {
        let cap = model.max_activation_len();
        Tracer {
            model,
            buf_a: vec![Q16_16::ZERO; cap],
            buf_b: vec![Q16_16::ZERO; cap],
        }
    }

    fn trace(
        &mut self,
        input: &[Q16_16],
        mut visit: impl FnMut(usize, &[Q16_16]) -> Result<(), NnError>,
    ) -> Result<(), NnError> {
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
            let dst = &mut dst[..out_shape.len()];
            run_qlayer(layer, &src[..cur_shape.len()], dst, &cur_shape)?;
            visit(i, dst)?;
            cur_shape = out_shape;
            cur_in_a = !cur_in_a;
        }
        Ok(())
    }
}

/// A [`QEngine`]-shaped executor with built-in fault detection — the
/// quantised mirror of [`crate::harden::HardenedEngine`].
///
/// Per decision it verifies weight checksums on the configured cadence
/// (same [`HardenConfig`], same [`CrcStrategy`] rotation keyed by the
/// global decision index) and runs the fixed-point activation guard.
/// Detections land in [`HardenedQEngine::last_events`] and, when attached,
/// a shared [`HealthSink`].
#[derive(Debug, Clone)]
pub struct HardenedQEngine {
    model: QModel,
    buf_a: Vec<Q16_16>,
    buf_b: Vec<Q16_16>,
    golden: Vec<(usize, u32)>,
    sidecars: Vec<EccCode>,
    config: HardenConfig,
    guard: Option<QActivationGuard>,
    sink: Option<HealthSink>,
    events: Vec<HealthEvent>,
    decisions: u64,
    events_seen: u64,
    /// Decisions `< synced_to` have had their scheduled repairs applied to
    /// *this* replica's weights (see the float twin in `harden.rs`).
    synced_to: u64,
    /// [`HardenConfig::staleness_bound`] evaluated once at construction
    /// (and on rebaseline); the hot path reads it on every emission.
    staleness_cached: Option<u64>,
}

impl HardenedQEngine {
    /// Creates a hardened quantised engine, capturing golden checksums
    /// from the (presumed pristine) model.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::Fault`] on an invalid config.
    pub fn new(model: QModel, config: HardenConfig) -> Result<Self, NnError> {
        config.validate()?;
        let cap = model.max_activation_len();
        let golden = qlayer_checksums(&model);
        let sidecars = match config.repair {
            Some(ecc) => encode_q_sidecars(&model, &golden, ecc)?,
            None => Vec::new(),
        };
        let staleness_cached = config.staleness_bound(golden.len());
        Ok(HardenedQEngine {
            model,
            buf_a: vec![Q16_16::ZERO; cap],
            buf_b: vec![Q16_16::ZERO; cap],
            golden,
            sidecars,
            config,
            guard: None,
            sink: None,
            events: Vec::new(),
            decisions: 0,
            events_seen: 0,
            synced_to: 0,
            staleness_cached,
        })
    }

    /// Worst-case decisions between a parameter corruption and detection
    /// under the configured cadence and [`CrcStrategy`] (`None` when
    /// checksums are disabled). Cached at construction; both inputs
    /// (config, golden layer count) only change on rebaseline.
    pub fn staleness_bound(&self) -> Option<u64> {
        self.staleness_cached
    }

    /// Learns activation envelopes from clean fixed-point calibration
    /// inputs using the configured slack.
    ///
    /// # Errors
    ///
    /// See [`QActivationGuard::calibrate`].
    pub fn calibrate<I: AsRef<[Q16_16]>>(&mut self, inputs: &[I]) -> Result<(), NnError> {
        self.guard = Some(QActivationGuard::calibrate(
            &self.model,
            inputs,
            self.config.guard_slack,
        )?);
        Ok(())
    }

    /// [`HardenedQEngine::calibrate`] over `f32` calibration data,
    /// quantising each input the same way [`QEngine::infer_f32`] would.
    ///
    /// # Errors
    ///
    /// See [`QActivationGuard::calibrate`].
    pub fn calibrate_f32<I: AsRef<[f32]>>(&mut self, inputs: &[I]) -> Result<(), NnError> {
        let q: Vec<Vec<Q16_16>> = inputs
            .iter()
            .map(|x| x.as_ref().iter().map(|&v| Q16_16::from_f32(v)).collect())
            .collect();
        self.calibrate(&q)
    }

    /// Installs a pre-calibrated guard.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::Fault`] if the guard's layer count does not
    /// match the model.
    pub fn set_guard(&mut self, guard: QActivationGuard) -> Result<(), NnError> {
        if guard.ranges.len() != self.model.layers().len() {
            return Err(NnError::Fault(format!(
                "guard covers {} layers but model has {}",
                guard.ranges.len(),
                self.model.layers().len()
            )));
        }
        self.guard = Some(guard);
        Ok(())
    }

    /// Attaches a shared sink that receives every [`HealthEvent`].
    pub fn attach_sink(&mut self, sink: HealthSink) {
        self.sink = Some(sink);
    }

    /// Drops the shared sink (pool replicas report per-result instead).
    pub fn detach_observers(&mut self) {
        self.sink = None;
    }

    /// The wrapped quantised model.
    pub fn model(&self) -> &QModel {
        &self.model
    }

    /// Mutable model access — the fault-injection hook. Golden checksums
    /// deliberately do *not* follow; after a legitimate model update call
    /// [`HardenedQEngine::rebaseline`].
    pub fn model_mut(&mut self) -> &mut QModel {
        &mut self.model
    }

    /// Re-captures golden checksums (and, when repair is enabled, ECC
    /// sidecars) from the current parameters.
    pub fn rebaseline(&mut self) {
        self.golden = qlayer_checksums(&self.model);
        if let Some(ecc) = self.config.repair {
            self.sidecars = encode_q_sidecars(&self.model, &self.golden, ecc)
                .expect("ecc config was validated at construction");
        }
        self.staleness_cached = self.config.staleness_bound(self.golden.len());
    }

    /// ECC sidecar memory as a fraction of the protected parameter bits.
    /// `None` when repair is disabled or there is nothing to protect.
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
    /// reflected in this replica's weights (pool dispatch path; see the
    /// float twin in `harden.rs`).
    pub(crate) fn sync_to(&mut self, index: u64) {
        self.synced_to = self.synced_to.max(index);
    }

    /// Replays the silent repairs a sequential engine would have applied
    /// on the scheduled checks in `[synced_to, index)`.
    fn catch_up(&mut self, index: u64) {
        let cadence = self.config.crc_cadence;
        let t0 = self.synced_to.div_ceil(cadence);
        let t1 = index.div_ceil(cadence);
        if t0 >= t1 {
            return;
        }
        match self.config.crc_strategy {
            CrcStrategy::Full => {
                for gi in 0..self.golden.len() {
                    self.silent_repair(gi);
                }
            }
            CrcStrategy::Rotating => {
                let len = self.golden.len() as u64;
                if t1 - t0 >= len {
                    for gi in 0..self.golden.len() {
                        self.silent_repair(gi);
                    }
                } else {
                    for t in t0..t1 {
                        self.silent_repair((t % len) as usize);
                    }
                }
            }
        }
    }

    /// Repairs golden slot `gi` if its CRC mismatches, without reporting.
    fn silent_repair(&mut self, gi: usize) {
        let (layer, expected) = self.golden[gi];
        let actual = qlayer_checksum(&self.model.layers()[layer])
            .expect("golden entries index parametric layers");
        if expected != actual {
            self.attempt_repair(gi);
        }
    }

    /// Runs one scheduled CRC check over golden slot `gi`, attempting an
    /// in-place ECC repair before escalating when repair is enabled.
    fn check_slot(&mut self, gi: usize, staleness: u64) {
        let (layer, expected) = self.golden[gi];
        let actual = qlayer_checksum(&self.model.layers()[layer])
            .expect("golden entries index parametric layers");
        if expected == actual {
            return;
        }
        if self.config.repair.is_some() {
            if let Some((word, bit)) = self.attempt_repair(gi) {
                self.events.push(HealthEvent::CorrectedFault {
                    layer,
                    word,
                    bit,
                    staleness,
                });
                return;
            }
        }
        self.events.push(HealthEvent::ChecksumMismatch {
            layer,
            expected,
            actual,
            staleness,
        });
    }

    /// Tries to ECC-correct golden slot `gi`'s parameters; writes back
    /// exactly one word only after the corrected stream re-verifies
    /// against the golden CRC.
    fn attempt_repair(&mut self, gi: usize) -> Option<(usize, u32)> {
        let (layer, expected) = self.golden[gi];
        let sidecar = &self.sidecars[gi];
        let (weights, bias) = q_parametric_buffers(&self.model.layers()[layer])
            .expect("golden entries index parametric layers");
        let n_weights = weights.len();
        let mut words: Vec<u32> = weights
            .iter()
            .chain(bias)
            .map(|q| q.to_bits() as u32)
            .collect();
        match sidecar.repair(&mut words) {
            RepairOutcome::Corrected { word, bit } => {
                if crc32_words(words.iter().copied()) != expected {
                    return None;
                }
                let repaired = Q16_16::from_bits(words[word] as i32);
                let (weights, bias) = q_parametric_buffers_mut(&mut self.model.layers_mut()[layer])
                    .expect("golden entries index parametric layers");
                if word < n_weights {
                    weights[word] = repaired;
                } else {
                    bias[word - n_weights] = repaired;
                }
                Some((word, bit))
            }
            RepairOutcome::Clean | RepairOutcome::Uncorrectable => None,
        }
    }

    /// Golden `(layer, crc)` pairs currently enforced.
    pub fn golden_checksums(&self) -> &[(usize, u32)] {
        &self.golden
    }

    /// Decisions completed via [`HardenedQEngine::infer`] /
    /// [`HardenedQEngine::classify`].
    pub fn decision_count(&self) -> u64 {
        self.decisions
    }

    /// Total health events raised since construction.
    pub fn event_count(&self) -> u64 {
        self.events_seen
    }

    /// Events raised by the most recent decision.
    pub fn last_events(&self) -> &[HealthEvent] {
        &self.events
    }

    /// Runs one decision at the engine's own monotone index.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InputShape`] on a wrong-sized input.
    pub fn infer(&mut self, input: &[Q16_16]) -> Result<&[Q16_16], NnError> {
        let index = self.decisions;
        let (len, in_a) = self.run(index, input)?;
        self.decisions += 1;
        let buf = if in_a { &self.buf_a } else { &self.buf_b };
        Ok(&buf[..len])
    }

    /// Runs one decision at an explicit global index (pool path). Does not
    /// advance the engine's own counter.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InputShape`] on a wrong-sized input.
    pub fn infer_indexed(&mut self, index: u64, input: &[Q16_16]) -> Result<&[Q16_16], NnError> {
        let (len, in_a) = self.run(index, input)?;
        let buf = if in_a { &self.buf_a } else { &self.buf_b };
        Ok(&buf[..len])
    }

    /// Classification convenience over [`HardenedQEngine::infer`].
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InputShape`] on a wrong-sized input.
    pub fn classify(&mut self, input: &[Q16_16]) -> Result<Classification, NnError> {
        let index = self.decisions;
        let c = self.classify_indexed(index, input)?;
        self.decisions += 1;
        Ok(c)
    }

    /// Classification at an explicit global index (pool path).
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InputShape`] on a wrong-sized input.
    pub fn classify_indexed(
        &mut self,
        index: u64,
        input: &[Q16_16],
    ) -> Result<Classification, NnError> {
        let out = self.infer_indexed(index, input)?;
        let mut best = (0usize, Q16_16::MIN);
        for (i, &v) in out.iter().enumerate() {
            if v > best.1 {
                best = (i, v);
            }
        }
        Ok(Classification {
            class: best.0,
            confidence: best.1.to_f32(),
        })
    }

    /// Quantises an `f32` input and classifies at the engine's own index —
    /// the front door diverse-redundancy channels use.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InputShape`] on a wrong-sized input.
    pub fn classify_f32(&mut self, input: &[f32]) -> Result<Classification, NnError> {
        let q: Vec<Q16_16> = input.iter().map(|&v| Q16_16::from_f32(v)).collect();
        self.classify(&q)
    }

    /// The core decision: verify checksums → execute → guard.
    fn run(&mut self, index: u64, input: &[Q16_16]) -> Result<(usize, bool), NnError> {
        if input.len() != self.model.input_shape().len() {
            return Err(NnError::InputShape {
                expected: self.model.input_shape(),
                actual: input.len(),
            });
        }
        self.events.clear();
        self.buf_a[..input.len()].copy_from_slice(input);

        if self.config.crc_cadence > 0 && !self.golden.is_empty() {
            // See the float twin in `harden.rs`: pooled replicas first
            // replay the silent repairs of skipped scheduled checks so
            // their weights match the sequential reference before the
            // layer loop reads them.
            if self.config.repair.is_some() {
                self.catch_up(index);
            }
            if index.is_multiple_of(self.config.crc_cadence) {
                let staleness = self.staleness_bound().unwrap_or(0);
                match self.config.crc_strategy {
                    CrcStrategy::Full => {
                        for gi in 0..self.golden.len() {
                            self.check_slot(gi, staleness);
                        }
                    }
                    CrcStrategy::Rotating => {
                        // Cursor derived from the global decision index,
                        // never from engine-local state: pooled replicas
                        // replaying the same decision verify the same
                        // layer.
                        let tick = index / self.config.crc_cadence;
                        let slot = (tick % self.golden.len() as u64) as usize;
                        self.check_slot(slot, staleness);
                    }
                }
            }
            self.synced_to = self.synced_to.max(index + 1);
        }

        let mut cur_shape = self.model.input_shape();
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
            run_qlayer(layer, &src[..cur_shape.len()], dst, &cur_shape)?;
            if let Some(guard) = &self.guard {
                guard.check(i, dst, &mut self.events);
            }
            cur_shape = out_shape;
            cur_in_a = !cur_in_a;
        }

        // Without a guard, still refuse to stay silent on a saturated
        // final activation (the fixed-point "non-finite").
        if self.guard.is_none() {
            let out = if cur_in_a { &self.buf_a } else { &self.buf_b };
            if let Some((index, _)) = out[..cur_shape.len()]
                .iter()
                .enumerate()
                .find(|(_, v)| v.is_saturated())
            {
                self.events.push(HealthEvent::SaturatedActivation {
                    layer: self.model.layers().len() - 1,
                    index,
                });
            }
        }

        self.events_seen += self.events.len() as u64;
        if let Some(sink) = &self.sink {
            sink.extend(&self.events);
        }
        Ok((cur_shape.len(), cur_in_a))
    }
}

/// A pool of [`HardenedQEngine`] replicas for parallel batches.
///
/// Replicas drop the shared sink (push order would depend on scheduling);
/// every result carries its own events instead, so batch output is
/// bit-identical for any worker count and equal to a sequential
/// [`HardenedQEngine::classify_indexed`] loop over the same global
/// indices. Results reuse [`CheckedClassification`]; the quantised engine
/// performs no plan-driven injections, so that field is always empty.
#[derive(Debug, Clone)]
pub struct HardenedQPool {
    workers: Lanes<HardenedQEngine>,
    dispatched: u64,
}

impl HardenedQPool {
    /// Creates a pool of `workers` replicas of `engine`.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::Pool`] when `workers` is zero.
    pub fn new(engine: &HardenedQEngine, workers: usize) -> Result<Self, NnError> {
        let workers = Lanes::new(workers, || {
            let mut replica = engine.clone();
            replica.detach_observers();
            replica
        })?;
        Ok(HardenedQPool {
            workers,
            dispatched: 0,
        })
    }

    /// Number of worker replicas.
    pub fn workers(&self) -> usize {
        self.workers.replicas().len()
    }

    /// Decisions dispatched so far (the next batch starts at this global
    /// index).
    pub fn dispatched(&self) -> u64 {
        self.dispatched
    }

    /// Classifies a batch in parallel, preserving input order; global
    /// decision indices continue across batches.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InputShape`] if any input has the wrong element
    /// count; the whole batch fails (no partial results).
    pub fn classify_batch<I: AsRef<[Q16_16]>>(
        &mut self,
        inputs: &[I],
    ) -> Result<Vec<CheckedClassification>, NnError> {
        let base = self.dispatched;
        // Strikes land between batches and hit every replica identically;
        // re-sync so repair catch-up never replays pre-strike checks (see
        // `HardenedPool::classify_batch`).
        for worker in self.workers.replicas_mut() {
            worker.sync_to(base);
        }
        let out = self
            .workers
            .dispatch(base, inputs, |engine, start, chunk, out| {
                for (index, input) in (start..).zip(chunk) {
                    let classification = engine.classify_indexed(index, input)?;
                    out.push(CheckedClassification {
                        classification,
                        events: engine.last_events().to_vec(),
                        injections: Vec::new(),
                    });
                }
                Ok(())
            })?;
        self.dispatched = base + inputs.len() as u64;
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultInjector;
    use crate::model::ModelBuilder;
    use crate::quant::QEngine;
    use safex_tensor::{DetRng, Shape};

    fn qmodel(seed: u64) -> QModel {
        let mut rng = DetRng::new(seed);
        let model = ModelBuilder::new(Shape::vector(4))
            .dense(8, &mut rng)
            .unwrap()
            .relu()
            .dense(3, &mut rng)
            .unwrap()
            .softmax()
            .build()
            .unwrap();
        QModel::quantize(&model).unwrap()
    }

    fn qinputs(n: usize) -> Vec<Vec<Q16_16>> {
        let mut rng = DetRng::new(99);
        (0..n)
            .map(|_| {
                (0..4)
                    .map(|_| Q16_16::from_f32(rng.next_f32() * 2.0 - 1.0))
                    .collect()
            })
            .collect()
    }

    #[test]
    fn qlayer_checksums_cover_parametric_layers() {
        let q = qmodel(1);
        let sums = qlayer_checksums(&q);
        assert_eq!(sums.len(), 2, "two dense layers");
        assert_eq!(sums[0].0, 0);
        assert_eq!(sums[1].0, 2);
    }

    #[test]
    fn clean_decisions_raise_no_events_and_match_qengine() {
        let q = qmodel(2);
        let mut hardened = HardenedQEngine::new(q.clone(), HardenConfig::default()).unwrap();
        let inputs = qinputs(16);
        hardened.calibrate(&inputs).unwrap();
        let mut reference = QEngine::new(q);
        for input in &inputs {
            let h = hardened.classify(input).unwrap();
            let r = reference.classify(input).unwrap();
            assert_eq!(h, r, "hardened output must equal the plain engine");
            assert!(hardened.last_events().is_empty());
        }
        assert_eq!(hardened.event_count(), 0);
        assert_eq!(hardened.decision_count(), 16);
    }

    #[test]
    fn qweight_flip_is_caught_by_checksum() {
        let q = qmodel(3);
        let mut hardened = HardenedQEngine::new(q, HardenConfig::default()).unwrap();
        let input = &qinputs(1)[0];
        hardened.infer(input).unwrap();
        assert!(hardened.last_events().is_empty());
        let mut injector = FaultInjector::new(7);
        injector
            .flip_qweight_bits(hardened.model_mut(), 1, 1)
            .unwrap();
        hardened.infer(input).unwrap();
        assert!(
            hardened
                .last_events()
                .iter()
                .any(|e| matches!(e, HealthEvent::ChecksumMismatch { .. })),
            "CRC on cadence 1 must flag the strike: {:?}",
            hardened.last_events()
        );
        // Rebaselining accepts the current (corrupted) weights as golden.
        hardened.rebaseline();
        hardened.infer(input).unwrap();
        assert!(hardened.last_events().is_empty());
    }

    #[test]
    fn guard_catches_high_bit_corruption() {
        // Flipping a high bit of a Q16.16 weight turns it into a huge
        // magnitude; even with CRC disabled the activation guard (or the
        // saturation check) must notice downstream.
        let q = qmodel(4);
        let config = HardenConfig {
            crc_cadence: 0,
            ..HardenConfig::default()
        };
        let mut hardened = HardenedQEngine::new(q, config).unwrap();
        let inputs = qinputs(16);
        hardened.calibrate(&inputs).unwrap();
        if let QLayer::Dense { weights, .. } = &mut hardened.model_mut().layers_mut()[0] {
            weights[0] = Q16_16::from_bits(weights[0].to_bits() ^ (1 << 30));
        }
        let mut flagged = 0;
        for input in &inputs {
            hardened.classify(input).unwrap();
            if hardened.last_events().iter().any(|e| {
                matches!(
                    e,
                    HealthEvent::ActivationOutOfRange { .. }
                        | HealthEvent::SaturatedActivation { .. }
                )
            }) {
                flagged += 1;
            }
        }
        assert!(flagged > 0, "range guard must catch a 2^14-sized weight");
    }

    #[test]
    fn rotating_crc_detects_within_staleness_bound() {
        let config = HardenConfig {
            crc_cadence: 2,
            crc_strategy: CrcStrategy::Rotating,
            ..HardenConfig::default()
        };
        let mut hardened = HardenedQEngine::new(qmodel(5), config).unwrap();
        let bound = hardened.staleness_bound().unwrap();
        assert_eq!(bound, 4, "2 parametric layers × cadence 2");
        let last_layer = hardened.golden_checksums().last().unwrap().0;
        let input = &qinputs(1)[0];
        for _ in 0..3 {
            hardened.infer(input).unwrap();
            assert!(hardened.last_events().is_empty());
        }
        let flip_at = hardened.decision_count();
        if let QLayer::Dense { weights, .. } = &mut hardened.model_mut().layers_mut()[last_layer] {
            weights[0] = Q16_16::from_bits(weights[0].to_bits() ^ 1);
        }
        let mut detected_at = None;
        for _ in 0..2 * bound {
            hardened.infer(input).unwrap();
            if hardened
                .last_events()
                .iter()
                .any(|e| matches!(e, HealthEvent::ChecksumMismatch { layer, .. } if *layer == last_layer))
            {
                detected_at = Some(hardened.decision_count() - 1);
                break;
            }
        }
        let detected_at = detected_at.expect("one rotation must reach the corrupted layer");
        assert!(
            detected_at - flip_at < bound,
            "flip at {flip_at} detected at {detected_at}, bound {bound}"
        );
    }

    #[test]
    fn pool_is_bit_identical_to_sequential_for_any_worker_count() {
        let q = qmodel(6);
        let mut engine = HardenedQEngine::new(q, HardenConfig::default()).unwrap();
        let inputs = qinputs(32);
        engine.calibrate(&inputs).unwrap();

        let mut sequential = Vec::new();
        let mut seq_engine = engine.clone();
        for (k, input) in inputs.iter().enumerate() {
            let classification = seq_engine.classify_indexed(k as u64, input).unwrap();
            sequential.push(CheckedClassification {
                classification,
                events: seq_engine.last_events().to_vec(),
                injections: Vec::new(),
            });
        }
        for workers in [1usize, 2, 4, 8] {
            let mut pool = HardenedQPool::new(&engine, workers).unwrap();
            let batched = pool.classify_batch(&inputs).unwrap();
            assert_eq!(batched, sequential, "{workers} workers diverged");
            assert_eq!(pool.dispatched(), inputs.len() as u64);
        }
    }

    #[test]
    fn calibrate_f32_matches_quantised_calibration() {
        let q = qmodel(7);
        let f32_inputs: Vec<Vec<f32>> = {
            let mut rng = DetRng::new(99);
            (0..16)
                .map(|_| (0..4).map(|_| rng.next_f32() * 2.0 - 1.0).collect())
                .collect()
        };
        let mut a = HardenedQEngine::new(q.clone(), HardenConfig::default()).unwrap();
        a.calibrate_f32(&f32_inputs).unwrap();
        let mut b = HardenedQEngine::new(q, HardenConfig::default()).unwrap();
        b.calibrate(&qinputs(16)).unwrap();
        assert_eq!(a.guard, b.guard, "same data, same envelopes");
    }

    #[test]
    fn ecc_repairs_single_qweight_flip_and_keeps_serving() {
        let q = qmodel(9);
        let config = HardenConfig {
            repair: Some(EccConfig::default()),
            ..HardenConfig::default()
        };
        let mut hardened = HardenedQEngine::new(q.clone(), config).unwrap();
        let mut reference = QEngine::new(q);
        let input = &qinputs(1)[0];
        hardened.infer(input).unwrap();
        assert!(hardened.last_events().is_empty());

        let last_layer = hardened.golden_checksums().last().unwrap().0;
        if let QLayer::Dense { weights, .. } = &mut hardened.model_mut().layers_mut()[last_layer] {
            weights[0] = Q16_16::from_bits(weights[0].to_bits() ^ (1 << 30));
        }
        let expected = reference.classify(input).unwrap();
        let got = hardened.classify(input).unwrap();
        assert_eq!(got, expected, "corrected decision must match pristine");
        assert!(
            matches!(
                hardened.last_events(),
                [HealthEvent::CorrectedFault { layer, word: 0, bit: 30, .. }]
                    if *layer == last_layer
            ),
            "events: {:?}",
            hardened.last_events()
        );
        hardened.infer(input).unwrap();
        assert!(hardened.last_events().is_empty(), "the fault is gone");
        let overhead = hardened.sidecar_overhead().unwrap();
        assert!(
            (0.05..0.10).contains(&overhead),
            "unexpected overhead {overhead}"
        );
    }

    #[test]
    fn ecc_leaves_double_qflips_on_the_escalation_path() {
        let config = HardenConfig {
            repair: Some(EccConfig::default()),
            ..HardenConfig::default()
        };
        let mut hardened = HardenedQEngine::new(qmodel(10), config).unwrap();
        let input = &qinputs(1)[0];
        hardened.infer(input).unwrap();
        let layer = hardened.golden_checksums()[0].0;
        if let QLayer::Dense { weights, .. } = &mut hardened.model_mut().layers_mut()[layer] {
            weights[0] = Q16_16::from_bits(weights[0].to_bits() ^ 1);
            weights[1] = Q16_16::from_bits(weights[1].to_bits() ^ (1 << 7));
        }
        hardened.infer(input).unwrap();
        assert!(
            hardened.last_events().iter().any(
                |e| matches!(e, HealthEvent::ChecksumMismatch { layer: l, .. } if *l == layer)
            ),
            "double flip must escalate: {:?}",
            hardened.last_events()
        );
        assert!(
            !hardened
                .last_events()
                .iter()
                .any(|e| matches!(e, HealthEvent::CorrectedFault { .. })),
            "double flip must never be miscorrected"
        );
    }

    fn qflip_weight(engine: &mut HardenedQEngine, layer: usize, word: usize, bit: u32) {
        if let QLayer::Dense { weights, .. } = &mut engine.model_mut().layers_mut()[layer] {
            weights[word] = Q16_16::from_bits(weights[word].to_bits() ^ (1 << bit));
        } else {
            panic!("layer {layer} is not dense");
        }
    }

    #[test]
    fn qfull_repair_restores_pristine_and_reports_staleness() {
        let config = HardenConfig {
            repair: Some(EccConfig::default()),
            ..HardenConfig::default()
        };
        let q = qmodel(16);
        let mut reference = QEngine::new(q.clone());
        let mut hardened = HardenedQEngine::new(q, config).unwrap();
        assert_eq!(hardened.staleness_bound(), Some(1), "Full bound = cadence");
        let input = &qinputs(1)[0];
        hardened.infer(input).unwrap();
        assert!(hardened.last_events().is_empty());
        let last_layer = hardened.golden_checksums().last().unwrap().0;
        qflip_weight(&mut hardened, last_layer, 0, 30);
        let expected = reference.classify(input).unwrap();
        let got = hardened.classify(input).unwrap();
        assert_eq!(got, expected, "corrected decision must match pristine");
        assert!(
            matches!(
                hardened.last_events(),
                [HealthEvent::CorrectedFault { layer, word: 0, bit: 30, staleness: 1 }]
                    if *layer == last_layer
            ),
            "events: {:?}",
            hardened.last_events()
        );
        hardened.infer(input).unwrap();
        assert!(hardened.last_events().is_empty(), "the fault is gone");
    }

    #[test]
    fn repair_pool_matches_sequential_for_any_worker_count() {
        // Replicas cloned from a struck engine all carry the corruption;
        // the scheduled repair mutates their weight state mid-stream, and
        // catch-up must keep pooled output byte-identical to sequential.
        for strategy in [CrcStrategy::Full, CrcStrategy::Rotating] {
            let config = HardenConfig {
                crc_cadence: 2,
                crc_strategy: strategy,
                repair: Some(EccConfig { block_words: 8 }),
                ..HardenConfig::default()
            };
            let mut engine = HardenedQEngine::new(qmodel(11), config).unwrap();
            let inputs = qinputs(16);
            engine.calibrate(&inputs).unwrap();
            let last_layer = engine.golden_checksums().last().unwrap().0;
            if let QLayer::Dense { weights, .. } = &mut engine.model_mut().layers_mut()[last_layer]
            {
                weights[0] = Q16_16::from_bits(weights[0].to_bits() ^ (1 << 12));
            }

            let mut sequential = Vec::new();
            let mut seq = engine.clone();
            for (k, input) in inputs.iter().enumerate() {
                let classification = seq.classify_indexed(k as u64, input).unwrap();
                sequential.push(CheckedClassification {
                    classification,
                    events: seq.last_events().to_vec(),
                    injections: Vec::new(),
                });
            }
            assert!(
                sequential
                    .iter()
                    .flat_map(|r| &r.events)
                    .any(|e| matches!(e, HealthEvent::CorrectedFault { .. })),
                "{strategy:?}: the strike must be corrected somewhere"
            );
            for workers in [1usize, 2, 4, 8] {
                let mut pool = HardenedQPool::new(&engine, workers).unwrap();
                let batched = pool.classify_batch(&inputs).unwrap();
                assert_eq!(batched, sequential, "{strategy:?}, {workers} workers");
            }
        }
    }

    #[test]
    fn invalid_configurations_are_rejected() {
        let q = qmodel(8);
        let bad = HardenConfig {
            guard_slack: -1.0,
            ..HardenConfig::default()
        };
        assert!(HardenedQEngine::new(q.clone(), bad).is_err());
        let engine = HardenedQEngine::new(q.clone(), HardenConfig::default()).unwrap();
        assert!(HardenedQPool::new(&engine, 0).is_err());
        let mut engine = engine;
        assert!(engine.calibrate(&Vec::<Vec<Q16_16>>::new()).is_err());
        let other = QActivationGuard {
            ranges: vec![(0, 1)],
        };
        assert!(engine.set_guard(other).is_err());
    }
}
