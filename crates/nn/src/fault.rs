//! Deterministic fault injection for the DL stack (SEU model).
//!
//! `safex-patterns` can already fault a channel's *verdict*; this module
//! faults the stack underneath the verdict so hardening mechanisms
//! ([`crate::harden`]) have something real to detect:
//!
//! * **Weights** — [`FaultInjector`] flips bits in parameter buffers, the
//!   classic single-event-upset (SEU) model, for both the `f32` model and
//!   the Q16.16 quantised model.
//! * **Activations** — an [`ActivationFault`] in a [`FaultPlan`] flips bits
//!   in intermediate activations between layers (applied by
//!   [`crate::harden::HardenedEngine`]).
//! * **Inputs** — an [`InputFault`] models sensor-level trouble: a sensor
//!   stuck at a level, additive gaussian noise, or element dropout.
//!
//! Everything draws from [`DetRng`] streams derived from explicit seeds,
//! and per-decision faults are keyed by the *decision index*, so a
//! campaign's fault sequence is a pure function of `(model, inputs, seed)`
//! — identical for sequential and pooled execution at any worker count.

use safex_tensor::fixed::Q16_16;
use safex_tensor::DetRng;

use crate::error::NnError;
use crate::layer::Layer;
use crate::model::Model;
use crate::quant::{QLayer, QModel};

/// One recorded weight bit-flip (ground truth for coverage accounting).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WeightFlip {
    /// Index of the layer whose parameters were hit.
    pub layer: usize,
    /// Flat parameter index within the layer (weights then bias).
    pub param: usize,
    /// Bit position flipped (0 = LSB).
    pub bit: u32,
    /// Raw bits before the flip.
    pub before: u32,
    /// Raw bits after the flip.
    pub after: u32,
}

/// Seeded injector for weight-level SEU faults.
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), safex_nn::NnError> {
/// use safex_nn::fault::FaultInjector;
/// use safex_nn::model::ModelBuilder;
/// use safex_tensor::{DetRng, Shape};
///
/// let mut rng = DetRng::new(1);
/// let mut model = ModelBuilder::new(Shape::vector(4))
///     .dense(8, &mut rng)?
///     .relu()
///     .dense(2, &mut rng)?
///     .build()?;
/// let before = model.digest();
/// let mut injector = FaultInjector::new(7);
/// let flips = injector.flip_weight_bits(&mut model, 1, 1)?;
/// assert_eq!(flips.len(), 1);
/// assert_ne!(model.digest(), before);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct FaultInjector {
    rng: DetRng,
}

impl FaultInjector {
    /// Creates an injector with its own deterministic stream.
    pub fn new(seed: u64) -> Self {
        FaultInjector {
            rng: DetRng::new(seed),
        }
    }

    /// Performs `events` SEU events on the float model, each flipping
    /// `bits_per_event` distinct bits of one uniformly chosen parameter
    /// (dense/conv weights and biases; frozen batch-norm statistics are
    /// excluded because execution reads their precomputed scale/shift).
    ///
    /// # Errors
    ///
    /// Returns [`NnError::Fault`] if `bits_per_event` is not in `1..=32`
    /// or the model has no injectable parameters.
    pub fn flip_weight_bits(
        &mut self,
        model: &mut Model,
        events: usize,
        bits_per_event: u32,
    ) -> Result<Vec<WeightFlip>, NnError> {
        validate_bits(bits_per_event)?;
        let mut buffers: Vec<(usize, &mut [f32])> = Vec::new();
        for (i, layer) in model.layers_mut().iter_mut().enumerate() {
            match layer {
                Layer::Dense(d) => {
                    buffers.push((i, d.weights.as_mut_slice()));
                    buffers.push((i, d.bias.as_mut_slice()));
                }
                Layer::Conv2d(c) => {
                    buffers.push((i, c.weights.as_mut_slice()));
                    buffers.push((i, c.bias.as_mut_slice()));
                }
                _ => {}
            }
        }
        let total: usize = buffers.iter().map(|(_, b)| b.len()).sum();
        if total == 0 {
            return Err(NnError::Fault("model has no injectable parameters".into()));
        }
        let mut out = Vec::with_capacity(events * bits_per_event as usize);
        for _ in 0..events {
            let target = self.rng.below_usize(total);
            let (layer, buf, offset) = locate_mut(&mut buffers, target);
            for bit in self.rng.sample_indices(32, bits_per_event as usize) {
                let before = buf[offset].to_bits();
                let after = before ^ (1u32 << bit);
                buf[offset] = f32::from_bits(after);
                out.push(WeightFlip {
                    layer,
                    param: target,
                    bit: bit as u32,
                    before,
                    after,
                });
            }
        }
        Ok(out)
    }

    /// Performs `events` SEU events on the quantised model, flipping bits
    /// of the 32-bit Q16.16 raw representation.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::Fault`] under the same conditions as
    /// [`FaultInjector::flip_weight_bits`].
    pub fn flip_qweight_bits(
        &mut self,
        model: &mut QModel,
        events: usize,
        bits_per_event: u32,
    ) -> Result<Vec<WeightFlip>, NnError> {
        validate_bits(bits_per_event)?;
        let mut buffers: Vec<(usize, &mut [Q16_16])> = Vec::new();
        for (i, layer) in model.layers_mut().iter_mut().enumerate() {
            match layer {
                QLayer::Dense { weights, bias, .. } | QLayer::Conv2d { weights, bias, .. } => {
                    buffers.push((i, weights.as_mut_slice()));
                    buffers.push((i, bias.as_mut_slice()));
                }
                _ => {}
            }
        }
        let total: usize = buffers.iter().map(|(_, b)| b.len()).sum();
        if total == 0 {
            return Err(NnError::Fault(
                "quantised model has no injectable parameters".into(),
            ));
        }
        let mut out = Vec::with_capacity(events * bits_per_event as usize);
        for _ in 0..events {
            let target = self.rng.below_usize(total);
            let (layer, buf, offset) = locate_mut(&mut buffers, target);
            for bit in self.rng.sample_indices(32, bits_per_event as usize) {
                let before = buf[offset].to_bits() as u32;
                let after = before ^ (1u32 << bit);
                buf[offset] = Q16_16::from_bits(after as i32);
                out.push(WeightFlip {
                    layer,
                    param: target,
                    bit: bit as u32,
                    before,
                    after,
                });
            }
        }
        Ok(out)
    }
}

/// Re-applies recorded weight flips to `model` — the replica-
/// synchronisation hook: generate flips once on one replica with
/// [`FaultInjector::flip_weight_bits`], then stamp the identical
/// corruption onto every other replica so a pooled engine observes one
/// coherent fault rather than per-replica divergence.
///
/// Each flip's `after` bits are written directly, so applying the same
/// list twice is idempotent.
///
/// # Errors
///
/// Returns [`NnError::Fault`] when a flip's flat parameter index does not
/// fit this model (the flips were recorded against a different
/// architecture).
pub fn apply_weight_flips(model: &mut Model, flips: &[WeightFlip]) -> Result<(), NnError> {
    let mut buffers: Vec<(usize, &mut [f32])> = Vec::new();
    for (i, layer) in model.layers_mut().iter_mut().enumerate() {
        match layer {
            Layer::Dense(d) => {
                buffers.push((i, d.weights.as_mut_slice()));
                buffers.push((i, d.bias.as_mut_slice()));
            }
            Layer::Conv2d(c) => {
                buffers.push((i, c.weights.as_mut_slice()));
                buffers.push((i, c.bias.as_mut_slice()));
            }
            _ => {}
        }
    }
    let total: usize = buffers.iter().map(|(_, b)| b.len()).sum();
    for flip in flips {
        if flip.param >= total {
            return Err(NnError::Fault(format!(
                "weight flip targets parameter {} but model has {total}",
                flip.param
            )));
        }
        let (_, buf, offset) = locate_mut(&mut buffers, flip.param);
        buf[offset] = f32::from_bits(flip.after);
    }
    Ok(())
}

fn validate_bits(bits: u32) -> Result<(), NnError> {
    if !(1..=32).contains(&bits) {
        return Err(NnError::Fault(format!(
            "bits_per_event must be in 1..=32, got {bits}"
        )));
    }
    Ok(())
}

/// Resolves a flat parameter index into `(layer, buffer, offset)`.
fn locate_mut<'a, 'b, T>(
    buffers: &'a mut [(usize, &'b mut [T])],
    mut index: usize,
) -> (usize, &'a mut &'b mut [T], usize) {
    for (layer, buf) in buffers.iter_mut() {
        if index < buf.len() {
            return (*layer, buf, index);
        }
        index -= buf.len();
    }
    unreachable!("index validated against total parameter count");
}

/// A sensor/input-level fault class.
///
/// All variants fire independently per decision with probability `p`, so a
/// decision's perturbation depends only on the decision index and the plan
/// seed — never on execution order.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum InputFault {
    /// One sensor element frozen at a fixed level (a dead or railed
    /// sensor). Stateless by design: the stuck *level* is configured, not
    /// remembered, so pooled and sequential replays agree.
    Stuck {
        /// Input element index to freeze.
        index: usize,
        /// The level the element is stuck at.
        level: f32,
        /// Per-decision probability the fault is active.
        p: f64,
    },
    /// Additive gaussian noise on every element.
    Noise {
        /// Noise standard deviation.
        sigma: f64,
        /// Per-decision probability the fault is active.
        p: f64,
    },
    /// Each element independently zeroed (packet loss / occlusion).
    Dropout {
        /// Per-element drop probability when the fault is active.
        drop: f64,
        /// Per-decision probability the fault is active.
        p: f64,
    },
}

/// Bit-flip corruption of intermediate activations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ActivationFault {
    /// Per-layer-boundary probability that one element is corrupted.
    pub p: f64,
    /// Distinct bits flipped in the chosen element.
    pub bits: u32,
}

/// A full per-decision injection plan executed by
/// [`crate::harden::HardenedEngine`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// Seed for the per-decision fault streams.
    pub seed: u64,
    /// Optional input-level fault.
    pub input: Option<InputFault>,
    /// Optional activation-level fault.
    pub activation: Option<ActivationFault>,
}

impl FaultPlan {
    /// A plan that injects nothing (useful as a campaign control cell).
    pub fn none(seed: u64) -> Self {
        FaultPlan {
            seed,
            input: None,
            activation: None,
        }
    }

    /// A plan with only an input fault.
    pub fn input(seed: u64, fault: InputFault) -> Self {
        FaultPlan {
            seed,
            input: Some(fault),
            activation: None,
        }
    }

    /// A plan with only an activation fault.
    pub fn activation(seed: u64, fault: ActivationFault) -> Self {
        FaultPlan {
            seed,
            input: None,
            activation: Some(fault),
        }
    }

    /// Validates probabilities and bit counts.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::Fault`] for probabilities outside `[0, 1]`, a
    /// non-finite sigma, or a bit count outside `1..=32`.
    pub fn validate(&self) -> Result<(), NnError> {
        let check_p = |p: f64, what: &str| -> Result<(), NnError> {
            if !p.is_finite() || !(0.0..=1.0).contains(&p) {
                return Err(NnError::Fault(format!(
                    "{what} probability {p} outside [0, 1]"
                )));
            }
            Ok(())
        };
        match self.input {
            Some(InputFault::Stuck { p, level, .. }) => {
                check_p(p, "stuck")?;
                if !level.is_finite() {
                    return Err(NnError::Fault("stuck level must be finite".into()));
                }
            }
            Some(InputFault::Noise { sigma, p }) => {
                check_p(p, "noise")?;
                if !sigma.is_finite() || sigma < 0.0 {
                    return Err(NnError::Fault("noise sigma must be non-negative".into()));
                }
            }
            Some(InputFault::Dropout { drop, p }) => {
                check_p(p, "dropout")?;
                check_p(drop, "per-element drop")?;
            }
            None => {}
        }
        if let Some(a) = self.activation {
            check_p(a.p, "activation")?;
            validate_bits(a.bits)?;
        }
        Ok(())
    }

    /// The deterministic per-decision fault stream for `decision`.
    pub(crate) fn decision_rng(&self, decision: u64) -> DetRng {
        // Mix the decision index into the seed with a splitmix-style odd
        // constant; DetRng::new then decorrelates neighbouring seeds.
        DetRng::new(self.seed ^ decision.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// Replays the *input stage* of this plan for one decision without an
    /// engine: returns the input exactly as the hardened engine will see
    /// it on that decision.
    ///
    /// Sound because the input fault is the first draw from the
    /// per-decision stream, so the preview consumes precisely the prefix
    /// the engine consumes. This is the hook external (pillar-1)
    /// supervisors use to check the *faulted* sensor frame before the
    /// decision runs — the campaign loop feeds the preview to an ODD
    /// envelope and reports a rejection as a health event.
    pub fn preview_input(&self, decision: u64, input: &[f32]) -> Vec<f32> {
        let mut out = input.to_vec();
        if let Some(fault) = self.input {
            let mut rng = self.decision_rng(decision);
            let mut scratch = Vec::new();
            apply_input_fault(fault, &mut out, &mut rng, &mut scratch);
        }
        out
    }
}

/// Applies one input fault in place, recording what actually fired.
///
/// Shared by [`crate::harden::HardenedEngine`] (inside a decision) and
/// [`FaultPlan::preview_input`] (outside one); both must consume the same
/// draws from `rng` for the preview guarantee to hold.
pub(crate) fn apply_input_fault(
    fault: InputFault,
    input: &mut [f32],
    rng: &mut DetRng,
    injections: &mut Vec<Injection>,
) {
    match fault {
        InputFault::Stuck { index, level, p } => {
            if rng.chance(p) && index < input.len() {
                input[index] = level;
                injections.push(Injection::InputStuck { index });
            }
        }
        InputFault::Noise { sigma, p } => {
            if rng.chance(p) {
                for v in input.iter_mut() {
                    *v += (rng.next_gaussian() * sigma) as f32;
                }
                injections.push(Injection::InputNoise);
            }
        }
        InputFault::Dropout { drop, p } => {
            if rng.chance(p) {
                let mut zeroed = 0u32;
                for v in input.iter_mut() {
                    if rng.chance(drop) {
                        *v = 0.0;
                        zeroed += 1;
                    }
                }
                if zeroed > 0 {
                    injections.push(Injection::InputDropout { zeroed });
                }
            }
        }
    }
}

/// Ground truth: what a plan actually injected on one decision.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Injection {
    /// An input element was forced to its stuck level.
    InputStuck {
        /// Element index.
        index: usize,
    },
    /// Gaussian noise was added to the input.
    InputNoise,
    /// Input elements were dropped.
    InputDropout {
        /// How many elements were zeroed.
        zeroed: u32,
    },
    /// Bits were flipped in an intermediate activation.
    ActivationFlip {
        /// Layer whose output was corrupted.
        layer: usize,
        /// Element index within the activation.
        index: usize,
    },
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::ModelBuilder;
    use safex_tensor::Shape;

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

    #[test]
    fn weight_flips_are_deterministic() {
        let run = |seed: u64| {
            let mut m = model(1);
            let mut inj = FaultInjector::new(seed);
            let flips = inj.flip_weight_bits(&mut m, 5, 1).unwrap();
            (flips, m.digest())
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7).1, run(8).1);
    }

    #[test]
    fn weight_flip_changes_exactly_the_recorded_bit() {
        let mut m = model(2);
        let before_digest = m.digest();
        let mut inj = FaultInjector::new(3);
        let flips = inj.flip_weight_bits(&mut m, 1, 1).unwrap();
        assert_eq!(flips.len(), 1);
        let f = flips[0];
        assert_eq!(f.before ^ f.after, 1u32 << f.bit);
        assert_ne!(m.digest(), before_digest);
        // Flipping the same bit back restores the digest.
        let mut restore = FaultInjector::new(3);
        restore.flip_weight_bits(&mut m, 1, 1).unwrap();
        assert_eq!(m.digest(), before_digest);
    }

    #[test]
    fn multi_bit_events_flip_distinct_bits() {
        let mut m = model(4);
        let mut inj = FaultInjector::new(9);
        let flips = inj.flip_weight_bits(&mut m, 1, 3).unwrap();
        assert_eq!(flips.len(), 3);
        let mut bits: Vec<u32> = flips.iter().map(|f| f.bit).collect();
        bits.sort_unstable();
        bits.dedup();
        assert_eq!(bits.len(), 3, "bits within one event must be distinct");
        assert!(flips.iter().all(|f| f.param == flips[0].param));
    }

    #[test]
    fn qweight_flips_change_quantised_params() {
        let m = model(5);
        let mut q = QModel::quantize(&m).unwrap();
        let pristine = QModel::quantize(&m).unwrap();
        let mut inj = FaultInjector::new(11);
        let flips = inj.flip_qweight_bits(&mut q, 4, 1).unwrap();
        assert_eq!(flips.len(), 4);
        assert_ne!(q, pristine);
    }

    #[test]
    fn validation_rejects_bad_bit_counts() {
        let mut m = model(6);
        let mut inj = FaultInjector::new(0);
        assert!(matches!(
            inj.flip_weight_bits(&mut m, 1, 0),
            Err(NnError::Fault(_))
        ));
        assert!(matches!(
            inj.flip_weight_bits(&mut m, 1, 33),
            Err(NnError::Fault(_))
        ));
    }

    #[test]
    fn plan_validation() {
        assert!(FaultPlan::none(0).validate().is_ok());
        assert!(FaultPlan::input(
            0,
            InputFault::Noise {
                sigma: -1.0,
                p: 0.5
            }
        )
        .validate()
        .is_err());
        assert!(FaultPlan::input(
            0,
            InputFault::Stuck {
                index: 0,
                level: f32::NAN,
                p: 0.5
            }
        )
        .validate()
        .is_err());
        assert!(
            FaultPlan::input(0, InputFault::Dropout { drop: 1.5, p: 0.1 })
                .validate()
                .is_err()
        );
        assert!(
            FaultPlan::activation(0, ActivationFault { p: 2.0, bits: 1 })
                .validate()
                .is_err()
        );
        assert!(
            FaultPlan::activation(0, ActivationFault { p: 0.2, bits: 0 })
                .validate()
                .is_err()
        );
        assert!(
            FaultPlan::activation(0, ActivationFault { p: 0.2, bits: 2 })
                .validate()
                .is_ok()
        );
    }

    #[test]
    fn decision_rng_is_index_keyed() {
        let plan = FaultPlan::none(42);
        let a = plan.decision_rng(3).next_u64();
        let b = plan.decision_rng(3).next_u64();
        let c = plan.decision_rng(4).next_u64();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn apply_weight_flips_reproduces_the_recorded_corruption() {
        let mut struck = model(8);
        let mut replica = struck.clone();
        let mut inj = FaultInjector::new(13);
        let flips = inj.flip_weight_bits(&mut struck, 3, 2).unwrap();
        apply_weight_flips(&mut replica, &flips).unwrap();
        assert_eq!(
            struck.digest(),
            replica.digest(),
            "replaying recorded flips must reproduce the corrupted model"
        );
        // Idempotent: applying the same list again changes nothing.
        apply_weight_flips(&mut replica, &flips).unwrap();
        assert_eq!(struck.digest(), replica.digest());
        // Out-of-range params are rejected, not silently skipped.
        let bogus = WeightFlip {
            layer: 0,
            param: usize::MAX,
            bit: 0,
            before: 0,
            after: 0,
        };
        assert!(apply_weight_flips(&mut replica, &[bogus]).is_err());
    }

    #[test]
    fn preview_input_matches_hardened_engine_view() {
        use crate::harden::{HardenConfig, HardenedEngine};
        use crate::Engine;
        let m = model(7);
        let plan = FaultPlan::input(5, InputFault::Dropout { drop: 0.5, p: 0.8 });
        let config = HardenConfig {
            crc_cadence: 0,
            ..HardenConfig::default()
        };
        let mut hardened = HardenedEngine::new(m.clone(), config).unwrap();
        hardened.set_plan(plan).unwrap();
        let mut reference = Engine::new(m);
        let input = [0.3f32, -0.4, 0.9, 0.2];
        let mut perturbed = 0;
        for k in 0..12u64 {
            let faulted = plan.preview_input(k, &input);
            if faulted != input {
                perturbed += 1;
            }
            let expected = reference.infer(&faulted).unwrap().to_vec();
            let actual = hardened.infer_indexed(k, &input).unwrap().to_vec();
            assert_eq!(actual, expected, "decision {k}: preview diverged");
        }
        assert!(perturbed > 0, "the 80% dropout fault must fire in 12 tries");
    }

    #[test]
    fn preview_input_without_input_fault_is_identity() {
        let plan = FaultPlan::activation(3, ActivationFault { p: 0.5, bits: 1 });
        let input = [1.0f32, 2.0, 3.0];
        assert_eq!(plan.preview_input(0, &input), input.to_vec());
    }
}
