//! The "flexible approach": assemble the recommended architecture for a
//! target SIL from trained models and calibration data.
//!
//! This is the paper's headline promise made executable: hand the factory
//! a criticality level, the trained model(s), and held-out calibration
//! data, and it returns a [`SafePipeline`] running the pattern the level
//! calls for, with its monitors fitted and its provenance recorded.

use safex_nn::{Engine, Model, QEngine, QModel};
use safex_patterns::channel::{ConstantChannel, ModelChannel, QuantChannel};
use safex_patterns::pattern::{MonitorActuator, SafetyBag, Simplex, TwoOutOfThree};
use safex_patterns::Sil;
use safex_supervision::supervisor::{Mahalanobis, Supervisor};
use safex_supervision::{observe, CalibratedMonitor};
use safex_trace::record::{RecordKind, Value};

use crate::error::CoreError;
use crate::pipeline::{PipelineBuilder, SafePipeline};

/// Assembly parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AssemblySpec {
    /// Target integrity level; selects the pattern.
    pub sil: Sil,
    /// The conservative class the fallback channel commands (e.g.
    /// "obstacle" / "stop").
    pub fallback_class: usize,
    /// Target false-positive rate for supervisor calibration.
    pub target_fpr: f64,
    /// Confidence floor for the monitor-actuator pattern.
    pub confidence_floor: f32,
    /// Plausible input range for the safety-bag envelope.
    pub input_range: (f32, f32),
}

impl Default for AssemblySpec {
    fn default() -> Self {
        AssemblySpec {
            sil: Sil::Sil2,
            fallback_class: 0,
            target_fpr: 0.05,
            confidence_floor: 0.5,
            input_range: (-4.0, 4.0),
        }
    }
}

impl AssemblySpec {
    /// Validates the parameters.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::BadAssembly`] on out-of-range values.
    pub fn validate(&self) -> Result<(), CoreError> {
        if !(self.target_fpr > 0.0 && self.target_fpr < 1.0) {
            return Err(CoreError::BadAssembly(format!(
                "target FPR {} outside (0, 1)",
                self.target_fpr
            )));
        }
        if !(0.0..=1.0).contains(&self.confidence_floor) {
            return Err(CoreError::BadAssembly(format!(
                "confidence floor {} outside [0, 1]",
                self.confidence_floor
            )));
        }
        if !(self.input_range.0.is_finite()
            && self.input_range.1.is_finite()
            && self.input_range.0 < self.input_range.1)
        {
            return Err(CoreError::BadAssembly("invalid input range".into()));
        }
        Ok(())
    }
}

/// Assembles the recommended pipeline for `spec.sil`.
///
/// * SIL 1 → monitor-actuator over the first model.
/// * SIL 2 → simplex: Mahalanobis supervisor fitted on `calibration`,
///   threshold at `spec.target_fpr`, constant fallback channel.
/// * SIL 3 → safety bag: the first model proposes; an input-plausibility
///   envelope (finite, inside `spec.input_range`) can veto.
/// * SIL 4 → 2-out-of-3 diverse redundancy: float and quantised builds of
///   the first model plus a float build of the second (**requires two
///   models**).
///
/// Evidence recording is enabled under the pipeline name; model digests
/// and monitor calibration are recorded before the first decision.
///
/// # Errors
///
/// Returns [`CoreError::BadAssembly`] for an invalid spec, missing
/// models, a fallback class outside the model's label space, or empty
/// calibration data where a monitor must be fitted, and propagates
/// fitting/inference failures.
pub fn for_sil(
    name: &str,
    spec: &AssemblySpec,
    models: &[Model],
    calibration_inputs: &[Vec<f32>],
    calibration_labels: &[usize],
) -> Result<SafePipeline, CoreError> {
    spec.validate()?;
    let first = models
        .first()
        .ok_or_else(|| CoreError::BadAssembly("at least one model required".into()))?;
    let classes = first.output_shape().len();
    if spec.fallback_class >= classes {
        return Err(CoreError::BadAssembly(format!(
            "fallback class {} outside the model's {classes} classes",
            spec.fallback_class
        )));
    }

    let mut builder = PipelineBuilder::new(name, spec.sil).evidence(name);
    let mut calibration_record: Vec<(String, Value)> = Vec::new();

    let pattern: Box<dyn safex_patterns::pattern::SafetyPattern> = match spec.sil {
        Sil::Sil1 => {
            let engine = Engine::new(first.clone());
            Box::new(
                MonitorActuator::new(
                    ModelChannel::new("primary", engine),
                    spec.confidence_floor,
                    0,
                )
                .map_err(CoreError::Pattern)?,
            )
        }
        Sil::Sil2 => {
            if calibration_inputs.is_empty() || calibration_inputs.len() != calibration_labels.len()
            {
                return Err(CoreError::BadAssembly(
                    "simplex assembly needs non-empty, consistent calibration data".into(),
                ));
            }
            let mut engine = Engine::new(first.clone());
            // Fit the supervisor on calibration observations.
            let mut observations = Vec::with_capacity(calibration_inputs.len());
            for input in calibration_inputs {
                observations.push(observe(&mut engine, input)?);
            }
            let mut supervisor = Mahalanobis::new();
            supervisor.fit(&observations, calibration_labels)?;
            let scores: Result<Vec<f64>, _> =
                observations.iter().map(|o| supervisor.score(o)).collect();
            let scores = scores?;
            let monitor = CalibratedMonitor::fit(Box::new(supervisor), &scores, spec.target_fpr)?;
            calibration_record.push(("monitor_threshold".into(), Value::F64(monitor.threshold())));
            calibration_record.push((
                "monitor_supervisor".into(),
                Value::Str(monitor.supervisor_name().into()),
            ));
            Box::new(Simplex::new(
                engine,
                monitor,
                ConstantChannel::new("fallback", spec.fallback_class),
            ))
        }
        Sil::Sil3 => {
            let engine = Engine::new(first.clone());
            let (lo, hi) = spec.input_range;
            Box::new(SafetyBag::new(
                ModelChannel::new("proposer", engine),
                move |input: &[f32], _class| {
                    input.iter().all(|v| v.is_finite() && *v >= lo && *v <= hi)
                },
            ))
        }
        Sil::Sil4 => {
            let second = models.get(1).ok_or_else(|| {
                CoreError::BadAssembly(
                    "SIL4 two-out-of-three assembly requires two diverse models".into(),
                )
            })?;
            if second.output_shape() != first.output_shape() {
                return Err(CoreError::BadAssembly(
                    "diverse models must share an output shape".into(),
                ));
            }
            let qmodel = QModel::quantize(first)?;
            Box::new(
                TwoOutOfThree::new(
                    ModelChannel::new("float_a", Engine::new(first.clone())),
                    QuantChannel::new("quant_a", QEngine::new(qmodel)),
                    ModelChannel::new("float_b", Engine::new(second.clone())),
                )
                .map_err(CoreError::Pattern)?,
            )
        }
    };

    builder = builder.pattern_boxed(pattern);
    let mut pipeline = builder.build()?;

    // Provenance: model digests + monitor calibration.
    if let Some(chain) = pipeline.evidence_mut() {
        for (i, m) in models.iter().enumerate() {
            chain.append(
                RecordKind::ModelTrained,
                vec![
                    ("slot".into(), Value::U64(i as u64)),
                    ("digest".into(), Value::U64(m.digest())),
                    ("params".into(), Value::U64(m.param_count() as u64)),
                ],
            );
        }
        if !calibration_record.is_empty() {
            chain.append(RecordKind::MonitorCalibrated, calibration_record);
        }
    }
    Ok(pipeline)
}

#[cfg(test)]
mod tests {
    use super::*;
    use safex_nn::model::ModelBuilder;
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

    fn calibration(n: usize) -> (Vec<Vec<f32>>, Vec<usize>) {
        let mut rng = DetRng::new(99);
        let inputs: Vec<Vec<f32>> = (0..n)
            .map(|_| (0..4).map(|_| rng.next_f32()).collect())
            .collect();
        let labels: Vec<usize> = (0..n).map(|i| i % 3).collect();
        (inputs, labels)
    }

    #[test]
    fn sil1_monitor_actuator() {
        let (inputs, labels) = calibration(10);
        let spec = AssemblySpec {
            sil: Sil::Sil1,
            confidence_floor: 0.0,
            ..Default::default()
        };
        let mut p = for_sil("f", &spec, &[model(1)], &inputs, &labels).unwrap();
        assert_eq!(p.pattern_name(), "monitor_actuator");
        let d = p.decide(&inputs[0]).unwrap();
        assert!(d.action.is_proceed());
        // Evidence: one ModelTrained record.
        assert_eq!(
            p.evidence()
                .unwrap()
                .records_of_kind(RecordKind::ModelTrained)
                .len(),
            1
        );
    }

    #[test]
    fn sil2_simplex_with_fitted_monitor() {
        let (inputs, labels) = calibration(40);
        let spec = AssemblySpec {
            sil: Sil::Sil2,
            ..Default::default()
        };
        let mut p = for_sil("f", &spec, &[model(2)], &inputs, &labels).unwrap();
        assert_eq!(p.pattern_name(), "simplex");
        // In-distribution input mostly accepted.
        let d = p.decide(&inputs[0]).unwrap();
        assert!(d.action.class().is_some());
        // Far-out-of-distribution input rejected to the fallback.
        let d = p.decide(&[100.0, -100.0, 50.0, -50.0]).unwrap();
        assert!(d.action.is_conservative());
        assert_eq!(d.action.class(), Some(spec.fallback_class));
        // Calibration evidence present.
        assert_eq!(
            p.evidence()
                .unwrap()
                .records_of_kind(RecordKind::MonitorCalibrated)
                .len(),
            1
        );
        p.verify_evidence().unwrap();
    }

    #[test]
    fn sil3_safety_bag_envelope() {
        let (inputs, labels) = calibration(10);
        let spec = AssemblySpec {
            sil: Sil::Sil3,
            input_range: (-1.0, 1.0),
            ..Default::default()
        };
        let mut p = for_sil("f", &spec, &[model(3)], &inputs, &labels).unwrap();
        assert_eq!(p.pattern_name(), "safety_bag");
        assert!(p.decide(&[0.1, 0.2, 0.3, 0.4]).unwrap().action.is_proceed());
        let d = p.decide(&[5.0, 0.0, 0.0, 0.0]).unwrap();
        assert!(d.action.is_conservative(), "out-of-envelope input vetoed");
    }

    #[test]
    fn sil4_requires_two_models() {
        let (inputs, labels) = calibration(10);
        let spec = AssemblySpec {
            sil: Sil::Sil4,
            ..Default::default()
        };
        assert!(matches!(
            for_sil("f", &spec, &[model(4)], &inputs, &labels),
            Err(CoreError::BadAssembly(_))
        ));
        let mut p = for_sil("f", &spec, &[model(4), model(5)], &inputs, &labels).unwrap();
        assert_eq!(p.pattern_name(), "two_out_of_three");
        // Float and quant builds of model A agree, so a majority exists
        // even when model B dissents.
        let d = p.decide(&inputs[0]).unwrap();
        assert!(d.action.class().is_some());
        // Two ModelTrained records.
        assert_eq!(
            p.evidence()
                .unwrap()
                .records_of_kind(RecordKind::ModelTrained)
                .len(),
            2
        );
    }

    #[test]
    fn spec_validation() {
        let (inputs, labels) = calibration(4);
        let bad = AssemblySpec {
            target_fpr: 0.0,
            ..Default::default()
        };
        assert!(for_sil("f", &bad, &[model(6)], &inputs, &labels).is_err());
        let bad = AssemblySpec {
            confidence_floor: 2.0,
            ..Default::default()
        };
        assert!(for_sil("f", &bad, &[model(6)], &inputs, &labels).is_err());
        let bad = AssemblySpec {
            input_range: (1.0, -1.0),
            ..Default::default()
        };
        assert!(for_sil("f", &bad, &[model(6)], &inputs, &labels).is_err());
        let bad = AssemblySpec {
            fallback_class: 9,
            ..Default::default()
        };
        assert!(for_sil("f", &bad, &[model(6)], &inputs, &labels).is_err());
        assert!(for_sil("f", &AssemblySpec::default(), &[], &inputs, &labels).is_err());
        // SIL2 with no calibration data.
        assert!(for_sil("f", &AssemblySpec::default(), &[model(6)], &[], &[]).is_err());
    }
}
