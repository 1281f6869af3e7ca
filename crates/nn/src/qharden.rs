//! The Q16.16 instance of the hardening state machine in
//! [`crate::harden`].
//!
//! [`HardenedQEngine`], [`HardenedQPool`] and [`QActivationGuard`] are
//! [`HardenedEngine`], [`HardenedPool`] and [`ActivationGuard`] over a
//! [`QModel`]: golden CRC-32 checksums over the raw Q16.16 parameter
//! words (with the same CRC cadence and ECC repair),
//! plus calibrated activation range guards in fixed-point space.
//! Detections surface as the same typed [`HealthEvent`]s through the same
//! [`crate::HealthSink`], so a `HealthMonitor` upstream cannot tell — and
//! does not care — which implementation raised the alarm.
//!
//! The point is *diverse redundancy*: a 2-out-of-3 pattern can pair a
//! hardened `f32` channel with a hardened Q16.16 channel, and a fault
//! campaign can strike **both** implementations
//! ([`crate::fault::FaultInjector::flip_qweight_bits`] via
//! [`HardenedEngine::model_mut`]) while each side's own diagnostics stay
//! armed. Fixed point has no NaN to catch, so the non-finite checks of the
//! float path become *saturation* checks here: a value railed at
//! [`Q16_16::MAX`]/[`Q16_16::MIN`] is the fixed-point analogue of an
//! overflowed float and is reported as
//! [`HealthEvent::SaturatedActivation`]. There is no input check and no
//! [`crate::FaultPlan`]: input- and activation-stage injection stays on
//! the `f32` front end, while the quantised engine's SEU strike surface is
//! its weight store.
//!
//! This file holds only what is Q16.16-specific: the model-type
//! operations the shared engine needs, and the public names.

use safex_tensor::fixed::Q16_16;
use safex_tensor::{ops, CrcAccumulator, DetRng, Shape};

use crate::engine::Classification;
use crate::error::NnError;
use crate::fault::{Injection, InputFault};
use crate::harden::domain::Domain;
use crate::harden::{
    checksum, checksums, ActivationGuard, HardenDomain, HardenedEngine, HardenedPool, HealthEvent,
};
use crate::quant::{qargmax, run_qlayer, QLayer, QModel};

/// [`HardenedEngine`] over a Q16.16 [`QModel`].
pub type HardenedQEngine = HardenedEngine<QModel>;

/// [`HardenedPool`] of Q16.16 replicas; results carry no injections.
pub type HardenedQPool = HardenedPool<QModel>;

/// Per-layer Q16.16 activation envelopes: widening is integer arithmetic
/// on the raw bit span, saturating at the format limits.
pub type QActivationGuard = ActivationGuard<QModel>;

/// CRC-32 of one quantised layer's parameters (`None` for non-parametric
/// layers). Runs over the raw Q16.16 bit words, so it is exactly as cheap
/// as the float path's [`crate::harden::layer_checksum`].
pub fn qlayer_checksum(layer: &QLayer) -> Option<u32> {
    checksum::<QModel>(layer)
}

/// CRC-32 of every parametric quantised layer: `(layer index, crc)` pairs.
///
/// Covers dense and convolution weights and biases — the buffers
/// [`crate::fault::FaultInjector::flip_qweight_bits`] can hit. Frozen
/// batch-norm scale/shift is excluded, matching the float path.
pub fn qlayer_checksums(model: &QModel) -> Vec<(usize, u32)> {
    checksums(model)
}

impl HardenDomain for QModel {}

impl Domain for QModel {
    type Elem = Q16_16;
    type Layer = QLayer;
    const BAD: &'static str = "saturated";
    const EMPTY_RANGE: (Q16_16, Q16_16) = (Q16_16::MAX, Q16_16::MIN);

    fn layers(&self) -> &[QLayer] {
        QModel::layers(self)
    }
    fn layers_mut(&mut self) -> &mut [QLayer] {
        QModel::layers_mut(self)
    }
    fn input_shape(&self) -> Shape {
        QModel::input_shape(self)
    }
    fn output_shape(&self) -> Shape {
        QModel::output_shape(self)
    }
    fn layer_output_shape(&self, index: usize) -> Option<Shape> {
        QModel::layer_output_shape(self, index)
    }
    fn max_activation_len(&self) -> usize {
        QModel::max_activation_len(self)
    }

    fn params(layer: &QLayer) -> Option<(&[Q16_16], &[Q16_16])> {
        match layer {
            QLayer::Dense { weights, bias, .. } | QLayer::Conv2d { weights, bias, .. } => {
                Some((weights, bias))
            }
            _ => None,
        }
    }
    fn params_mut(layer: &mut QLayer) -> Option<(&mut [Q16_16], &mut [Q16_16])> {
        match layer {
            QLayer::Dense { weights, bias, .. } | QLayer::Conv2d { weights, bias, .. } => {
                Some((weights, bias))
            }
            _ => None,
        }
    }
    fn to_word(value: Q16_16) -> u32 {
        value.to_bits() as u32
    }
    fn from_word(word: u32) -> Q16_16 {
        Q16_16::from_bits(word as i32)
    }
    fn crc_update(acc: &mut CrcAccumulator, values: &[Q16_16]) {
        acc.update_q16(values);
    }

    fn run_layer(
        layer: &QLayer,
        src: &[Q16_16],
        dst: &mut [Q16_16],
        in_shape: &Shape,
    ) -> Result<(), NnError> {
        run_qlayer(layer, src, dst, in_shape)
    }
    fn run_layer_batch(
        layer: &QLayer,
        src: &[Q16_16],
        dst: &mut [Q16_16],
        n: usize,
        stride: usize,
    ) -> Result<bool, NnError> {
        let QLayer::Dense {
            weights,
            bias,
            inputs,
            outputs,
        } = layer
        else {
            return Ok(false);
        };
        ops::dense_q16_batch_into(
            weights, bias, src, dst, *inputs, *outputs, n, stride, stride,
        )?;
        Ok(true)
    }

    fn input_ok(_: Q16_16) -> bool {
        true
    }
    fn is_bad(value: Q16_16) -> bool {
        value.is_saturated()
    }
    fn bad_event(layer: usize, index: usize) -> HealthEvent {
        HealthEvent::SaturatedActivation { layer, index }
    }
    fn observe(range: &mut (Q16_16, Q16_16), value: Q16_16) {
        range.0 = range.0.min(value);
        range.1 = range.1.max(value);
    }
    fn widen((lo, hi): (Q16_16, Q16_16), slack: f32) -> (Q16_16, Q16_16) {
        let (lo, hi) = (i64::from(lo.to_bits()), i64::from(hi.to_bits()));
        let pad = (((hi - lo).max(1) as f64) * f64::from(slack)).ceil() as i64;
        let clamp =
            |v: i64| Q16_16::from_bits(v.clamp(i64::from(i32::MIN), i64::from(i32::MAX)) as i32);
        (clamp(lo - pad), clamp(hi + pad))
    }
    fn to_f32(value: Q16_16) -> f32 {
        value.to_f32()
    }
    fn copy_from_f32(dst: &mut [Q16_16], src: &[f32]) {
        for (d, &v) in dst.iter_mut().zip(src) {
            *d = Q16_16::from_f32(v);
        }
    }
    fn argmax(out: &[Q16_16]) -> Classification {
        qargmax(out)
    }
    /// Never called: plans attach only to f32 engines.
    fn apply_input_fault(_: InputFault, _: &mut [Q16_16], _: &mut DetRng, _: &mut Vec<Injection>) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harden::tests::{
        assert_pool_matches_sequential, bad_configs_rejected_in, checksum_catches_weight_flip_in,
        clean_run_matches_plain_engine, domain_inputs, double_flip_escalates, flip,
        repair_pool_matches_sequential, repair_restores_pristine,
    };
    use crate::harden::HardenConfig;
    use crate::model::ModelBuilder;
    use safex_tensor::DetRng;

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
        clean_run_matches_plain_engine::<QModel>(2);
    }

    #[test]
    fn qweight_flip_is_caught_by_checksum() {
        checksum_catches_weight_flip_in::<QModel>(3);
    }

    #[test]
    fn guard_catches_high_bit_corruption() {
        // Flipping a high bit of a Q16.16 weight turns it into a huge
        // magnitude; even with CRC disabled the activation guard (or the
        // saturation check) must notice downstream.
        let config = HardenConfig {
            crc_cadence: 0,
            ..HardenConfig::default()
        };
        let mut hardened = HardenedQEngine::new(qmodel(4), config).unwrap();
        let inputs = domain_inputs::<QModel>(16);
        hardened.calibrate(&inputs).unwrap();
        flip(hardened.model_mut(), 0, 0, 30);
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
    fn pool_is_bit_identical_to_sequential_for_any_worker_count() {
        let mut engine = HardenedQEngine::new(qmodel(6), HardenConfig::default()).unwrap();
        let inputs = domain_inputs::<QModel>(32);
        engine.calibrate(&inputs).unwrap();
        assert_pool_matches_sequential(&engine, &inputs, &[1, 2, 4, 8]);
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
        b.calibrate(&domain_inputs::<QModel>(16)).unwrap();
        assert_eq!(a.guard, b.guard, "same data, same envelopes");
        assert!(a.guard.is_some());
    }

    #[test]
    fn ecc_repairs_single_qweight_flip_and_keeps_serving() {
        repair_restores_pristine::<QModel>(9, 30);
    }

    #[test]
    fn ecc_leaves_double_qflips_on_the_escalation_path() {
        double_flip_escalates::<QModel>(10);
    }

    #[test]
    fn qfull_repair_restores_pristine_and_reports_staleness() {
        repair_restores_pristine::<QModel>(16, 30);
    }

    #[test]
    fn repair_pool_matches_sequential_for_any_worker_count() {
        repair_pool_matches_sequential::<QModel>(11, 12);
    }

    #[test]
    fn invalid_configurations_are_rejected() {
        bad_configs_rejected_in::<QModel>();
    }
}
