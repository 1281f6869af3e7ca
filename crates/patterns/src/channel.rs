//! Decision channels: the building blocks patterns compose.

use std::sync::{Arc, Mutex};

use safex_nn::{Classification, Engine, HardenDomain, HardenedEngine, Model, QModel};

use crate::error::PatternError;

/// One channel's output for one input.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChannelVerdict {
    /// Predicted class.
    pub class: usize,
    /// Confidence/score in the prediction (softmax probability for
    /// classifier channels; 1.0 for rule channels).
    pub confidence: f32,
}

/// A decision-producing component a safety pattern can compose.
///
/// Channels validate their own output: a NaN confidence or an
/// out-of-range class is a *channel fault* ([`PatternError::ChannelFault`])
/// that patterns translate into fallback behaviour rather than propagate
/// as a crash.
///
/// `Send` is a supertrait so a pattern, and the pipeline that owns it,
/// can move to a worker thread (campaign cells run on a worker pool);
/// channels hold their own engines and buffers, so they have no shared
/// mutable state.
pub trait Channel: Send {
    /// Stable channel name for evidence records.
    fn name(&self) -> &str;

    /// Produces a verdict for one input.
    ///
    /// # Errors
    ///
    /// Returns [`PatternError::ChannelFault`] when the channel detects its
    /// own output is invalid, or other variants for infrastructure
    /// failures.
    fn decide(&mut self, input: &[f32]) -> Result<ChannelVerdict, PatternError>;
}

/// A DL channel wrapping an inference [`Engine`].
///
/// Generic over the engine's model type: `ModelChannel` (f32, the
/// default) or [`QuantChannel`] (Q16.16, which quantises each `f32`
/// input first).
#[derive(Debug)]
pub struct ModelChannel<M: HardenDomain = Model> {
    name: String,
    engine: Engine<M>,
}

/// A DL channel wrapping the quantised (Q16.16) inference engine —
/// a *diverse implementation* of the same model, which is exactly what
/// 2-out-of-3 patterns want as a second opinion.
pub type QuantChannel = ModelChannel<QModel>;

impl<M: HardenDomain> ModelChannel<M> {
    /// Wraps an engine as a channel.
    pub fn new(name: impl Into<String>, engine: Engine<M>) -> Self {
        ModelChannel {
            name: name.into(),
            engine,
        }
    }

    /// Immutable access to the wrapped engine.
    pub fn engine(&self) -> &Engine<M> {
        &self.engine
    }
}

impl<M: HardenDomain> Channel for ModelChannel<M> {
    fn name(&self) -> &str {
        &self.name
    }

    fn decide(&mut self, input: &[f32]) -> Result<ChannelVerdict, PatternError> {
        verdict(&self.name, self.engine.classify_f32(input)?)
    }
}

/// A DL channel's verdict from its engine's classification; a
/// non-finite confidence (a poisoned f32 model — Q16.16 scores are always
/// finite) is a [`PatternError::ChannelFault`].
fn verdict(name: &str, c: Classification) -> Result<ChannelVerdict, PatternError> {
    if !c.confidence.is_finite() {
        return Err(PatternError::ChannelFault(format!(
            "channel {name} produced non-finite confidence"
        )));
    }
    Ok(ChannelVerdict {
        class: c.class,
        confidence: c.confidence,
    })
}

/// A DL channel wrapping a [`HardenedEngine`]: inference plus runtime
/// fault detection (weight checksums, activation guards) and, in campaign
/// use, fault injection via an attached
/// [`FaultPlan`](safex_nn::FaultPlan).
///
/// Generic over the engine's model type: `HardenedChannel` (f32, the
/// default) or [`HardenedQuantChannel`] (Q16.16, which quantises each
/// `f32` input first). The engine sits behind an `Arc<Mutex<_>>` so the
/// campaign driver that built the channel can keep a
/// [`HardenedChannel::handle`] — e.g. to flip weights mid-run or
/// rebaseline checksums — while the pattern owns the channel. Health
/// events flow through whatever [`HealthSink`](safex_nn::HealthSink) was
/// attached to the engine before wrapping.
#[derive(Debug)]
pub struct HardenedChannel<M: HardenDomain = Model> {
    name: String,
    engine: Arc<Mutex<HardenedEngine<M>>>,
}

/// The hardened Q16.16 channel: the diverse second opinion of
/// [`QuantChannel`] with its own armed diagnostics (Q16.16 weight
/// checksums and fixed-point range guards).
///
/// Pairing it with an f32 [`HardenedChannel`] in a 2-out-of-3 pattern
/// gives diverse redundancy where *both* implementations can be struck by
/// a fault campaign and both raise typed health events — the
/// configuration the diverse-redundancy campaign cells
/// (`safex_core::campaign::CampaignPattern::DiverseTwoOutOfThree`)
/// deploy.
pub type HardenedQuantChannel = HardenedChannel<QModel>;

impl<M: HardenDomain> HardenedChannel<M> {
    /// Wraps a hardened engine as a channel.
    pub fn new(name: impl Into<String>, engine: HardenedEngine<M>) -> Self {
        HardenedChannel {
            name: name.into(),
            engine: Arc::new(Mutex::new(engine)),
        }
    }

    /// A shared handle to the wrapped engine (for mid-run weight
    /// injection, rebaselining, or reading counters).
    pub fn handle(&self) -> Arc<Mutex<HardenedEngine<M>>> {
        Arc::clone(&self.engine)
    }

    /// Worst-case decisions between a corrupting weight write and its
    /// detection under the wrapped engine's CRC configuration; `None`
    /// when checksum verification is disabled. Mirrors
    /// [`HardenedEngine::staleness_bound`].
    pub fn staleness_bound(&self) -> Option<u64> {
        self.engine
            .lock()
            .expect("hardened engine poisoned")
            .staleness_bound()
    }

    /// ECC sidecar memory as a fraction of the protected parameter bits;
    /// `None` when repair is disabled. Mirrors
    /// [`HardenedEngine::sidecar_overhead`].
    pub fn sidecar_overhead(&self) -> Option<f64> {
        self.engine
            .lock()
            .expect("hardened engine poisoned")
            .sidecar_overhead()
    }
}

impl<M: HardenDomain> Channel for HardenedChannel<M> {
    fn name(&self) -> &str {
        &self.name
    }

    fn decide(&mut self, input: &[f32]) -> Result<ChannelVerdict, PatternError> {
        let c = self
            .engine
            .lock()
            .expect("hardened engine poisoned")
            .classify_f32(input)?;
        verdict(&self.name, c)
    }
}

/// A deterministic rule-based channel (conservative heuristics, lookup
/// tables, classical CV) — the kind of independently-developed component
/// FUSA standards accept as a fallback or checker.
pub struct RuleChannel<F> {
    name: String,
    rule: F,
}

impl<F: FnMut(&[f32]) -> usize + Send> RuleChannel<F> {
    /// Creates a rule channel from a closure mapping input to class.
    pub fn new(name: impl Into<String>, rule: F) -> Self {
        RuleChannel {
            name: name.into(),
            rule,
        }
    }
}

impl<F> std::fmt::Debug for RuleChannel<F> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RuleChannel")
            .field("name", &self.name)
            .finish()
    }
}

impl<F: FnMut(&[f32]) -> usize + Send> Channel for RuleChannel<F> {
    fn name(&self) -> &str {
        &self.name
    }

    fn decide(&mut self, input: &[f32]) -> Result<ChannelVerdict, PatternError> {
        Ok(ChannelVerdict {
            class: (self.rule)(input),
            confidence: 1.0,
        })
    }
}

/// A channel that always returns a fixed class — the canonical "safe
/// action" fallback (e.g. *brake*, *stop*, *abort landing*).
#[derive(Debug, Clone)]
pub struct ConstantChannel {
    name: String,
    class: usize,
}

impl ConstantChannel {
    /// Creates a constant channel.
    pub fn new(name: impl Into<String>, class: usize) -> Self {
        ConstantChannel {
            name: name.into(),
            class,
        }
    }
}

impl Channel for ConstantChannel {
    fn name(&self) -> &str {
        &self.name
    }

    fn decide(&mut self, _input: &[f32]) -> Result<ChannelVerdict, PatternError> {
        Ok(ChannelVerdict {
            class: self.class,
            confidence: 1.0,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use safex_nn::model::ModelBuilder;
    use safex_nn::{HardenedQEngine, QEngine};
    use safex_tensor::{DetRng, Shape};

    fn engine(seed: u64) -> Engine {
        let mut rng = DetRng::new(seed);
        Engine::new(
            ModelBuilder::new(Shape::vector(3))
                .dense(4, &mut rng)
                .unwrap()
                .relu()
                .dense(2, &mut rng)
                .unwrap()
                .softmax()
                .build()
                .unwrap(),
        )
    }

    #[test]
    fn model_channel_decides() {
        let mut ch = ModelChannel::new("primary", engine(1));
        let v = ch.decide(&[0.1, 0.2, 0.3]).unwrap();
        assert!(v.class < 2);
        assert!((0.0..=1.0).contains(&v.confidence));
        assert_eq!(ch.name(), "primary");
    }

    #[test]
    fn model_channel_propagates_input_errors() {
        let mut ch = ModelChannel::new("primary", engine(1));
        assert!(matches!(ch.decide(&[0.1]), Err(PatternError::Nn(_))));
    }

    #[test]
    fn quant_channel_agrees_with_float() {
        let e = engine(2);
        let model = e.model().clone();
        let mut fc = ModelChannel::new("float", e);
        let mut qc = QuantChannel::new("quant", QEngine::new(QModel::quantize(&model).unwrap()));
        for i in 0..10 {
            let x = [i as f32 * 0.1, 0.5 - i as f32 * 0.05, 0.2];
            let fv = fc.decide(&x).unwrap();
            let qv = qc.decide(&x).unwrap();
            assert_eq!(fv.class, qv.class, "diverse channels should agree on {x:?}");
        }
    }

    #[test]
    fn hardened_quant_channel_agrees_with_quant_and_flags_strikes() {
        let e = engine(4);
        let model = e.model().clone();
        let qmodel = QModel::quantize(&model).unwrap();
        let mut qc = QuantChannel::new("quant", QEngine::new(qmodel.clone()));
        let mut hq = HardenedQuantChannel::new(
            "hardened_q16",
            HardenedQEngine::new(qmodel, safex_nn::HardenConfig::default()).unwrap(),
        );
        assert_eq!(hq.name(), "hardened_q16");
        assert_eq!(hq.staleness_bound(), Some(1));
        for i in 0..10 {
            let x = [i as f32 * 0.1, 0.5 - i as f32 * 0.05, 0.2];
            let qv = qc.decide(&x).unwrap();
            let hv = hq.decide(&x).unwrap();
            assert_eq!(qv.class, hv.class, "hardening must not change verdicts");
            assert_eq!(qv.confidence, hv.confidence);
        }
        // A weight strike through the shared handle raises a health event
        // on the very next decision (CRC cadence 1).
        let handle = hq.handle();
        {
            let mut engine = handle.lock().unwrap();
            let mut injector = safex_nn::FaultInjector::new(0xC0FFEE);
            injector
                .flip_qweight_bits(engine.model_mut(), 1, 1)
                .unwrap();
        }
        hq.decide(&[0.1, 0.2, 0.3]).unwrap();
        let engine = handle.lock().unwrap();
        assert!(
            engine
                .last_events()
                .iter()
                .any(|e| e.kind() == "checksum_mismatch"),
            "strike through the handle should be caught by the CRC"
        );
    }

    #[test]
    fn rule_and_constant_channels() {
        let mut rule = RuleChannel::new("bright", |x: &[f32]| usize::from(x[0] > 0.5));
        assert_eq!(rule.decide(&[0.9]).unwrap().class, 1);
        assert_eq!(rule.decide(&[0.1]).unwrap().class, 0);
        let mut safe = ConstantChannel::new("brake", 3);
        assert_eq!(safe.decide(&[0.0]).unwrap().class, 3);
        assert_eq!(safe.decide(&[9.9]).unwrap().class, 3);
        assert!(format!("{rule:?}").contains("bright"));
    }

    #[test]
    fn nan_weights_surface_as_channel_fault() {
        let mut e = engine(3);
        // Poison the final dense layer so the softmax output goes NaN
        // (an earlier layer's NaN could be masked by ReLU).
        if let safex_nn::layer::Layer::Dense(d) = &mut e.model_mut().layers_mut()[2] {
            d.bias_mut()[0] = f32::NAN;
        }
        let mut ch = ModelChannel::new("poisoned", e);
        assert!(matches!(
            ch.decide(&[1.0, 1.0, 1.0]),
            Err(PatternError::ChannelFault(_))
        ));
    }
}
