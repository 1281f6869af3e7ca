//! Fault-injection campaigns: sweep fault classes × rates × patterns and
//! report IEC 61508-style hardening metrics.
//!
//! A campaign answers the certification question the hardened runtime
//! exists for: *of the faults we inject, how many does the runtime
//! detect, and how often does an undetected fault silently corrupt a
//! decision?* Each cell of the sweep builds a fresh [`HardenedEngine`]
//! behind a [`HardenedChannel`], wires it into a
//! [`SafePipeline`](crate::SafePipeline) with a [`HealthMonitor`],
//! replays a fixed input stream under one fault class at one rate, and
//! scores every decision against a pristine reference engine.
//!
//! Everything is keyed off [`CampaignConfig::seed`]: the same config over
//! the same model and inputs reproduces the report bit for bit —
//! campaigns are certification evidence, not demos.
//!
//! Cells are *independent* — each builds its own engines, pipeline, and
//! derived RNG streams from its cell seed — so the sweep parallelises
//! trivially: [`CampaignConfig::workers`] partitions the cell list into
//! contiguous chunks on scoped threads (the same static partitioning the
//! engine pools use) and stitches results back in sweep order. The report
//! is byte-identical for any worker count.

use safex_nn::pool::chunk_lens;
use safex_nn::{
    layer_checksums, ActivationFault, Engine, FaultInjector, FaultPlan, HardenConfig,
    HardenedEngine, HardenedQEngine, HealthEvent, HealthSink, InputFault, Model, QModel,
};
use safex_patterns::channel::{HardenedChannel, HardenedQuantChannel, ModelChannel};
use safex_patterns::pattern::{Bare, MonitorActuator, SafetyPattern, TwoOutOfThree};
use safex_patterns::Sil;
use safex_supervision::odd::OddEnvelope;
use safex_tensor::DetRng;

use crate::error::CoreError;
use crate::health::{HealthConfig, HealthMonitor, HealthState};
use crate::pipeline::PipelineBuilder;

/// The fault classes a campaign can inject.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultClass {
    /// A single-bit SEU in one model weight, persisting for one decision.
    WeightBitFlip,
    /// A 3-bit burst upset in one model weight (one decision).
    WeightMultiBitFlip,
    /// A single-bit flip in one intermediate activation element.
    ActivationBitFlip,
    /// Additive gaussian sensor noise (σ = 0.5).
    InputNoise,
    /// One sensor element railed high (stuck at 1.0).
    InputStuck,
    /// Random element blackout (50% of elements zeroed).
    InputDropout,
}

impl FaultClass {
    /// Stable tag for reports and evidence.
    pub fn tag(&self) -> &'static str {
        match self {
            FaultClass::WeightBitFlip => "weight_bit_flip",
            FaultClass::WeightMultiBitFlip => "weight_multi_bit_flip",
            FaultClass::ActivationBitFlip => "activation_bit_flip",
            FaultClass::InputNoise => "input_noise",
            FaultClass::InputStuck => "input_stuck",
            FaultClass::InputDropout => "input_dropout",
        }
    }

    /// All classes, for exhaustive sweeps.
    pub fn all() -> [FaultClass; 6] {
        [
            FaultClass::WeightBitFlip,
            FaultClass::WeightMultiBitFlip,
            FaultClass::ActivationBitFlip,
            FaultClass::InputNoise,
            FaultClass::InputStuck,
            FaultClass::InputDropout,
        ]
    }

    fn is_weight(self) -> bool {
        matches!(
            self,
            FaultClass::WeightBitFlip | FaultClass::WeightMultiBitFlip
        )
    }
}

impl std::fmt::Display for FaultClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.tag())
    }
}

/// The safety pattern a campaign cell deploys around the hardened channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CampaignPattern {
    /// The hardened channel alone.
    Bare,
    /// Monitor-actuator with a 0.4 confidence floor.
    MonitorActuator,
    /// Diverse 2-out-of-3: the hardened f32 channel votes against a
    /// hardened Q16.16 channel and an unhardened f32 reference. Weight
    /// strikes hit *both* hardened implementations (independent SEU
    /// streams), so the cell measures whether diverse redundancy masks
    /// what a single implementation cannot.
    DiverseTwoOutOfThree,
}

impl CampaignPattern {
    /// Stable tag for reports.
    pub fn tag(&self) -> &'static str {
        match self {
            CampaignPattern::Bare => "bare",
            CampaignPattern::MonitorActuator => "monitor_actuator",
            CampaignPattern::DiverseTwoOutOfThree => "diverse_2oo3",
        }
    }
}

/// Optional pillar-1 input supervision for a campaign: fits an
/// [`OddEnvelope`] on the calibration inputs and screens every decision's
/// *faulted* input view (via [`FaultPlan::preview_input`]) before the
/// pipeline acts. A rejection lands in the health sink as
/// [`HealthEvent::SupervisorReject`] and counts as a detection — closing
/// the in-range input-fault gap the hardened engine's guards cannot see.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InputSupervision {
    /// Relative widening of the fitted per-dimension and statistic bands
    /// (e.g. `0.1` = 10% of the observed spread).
    pub margin: f64,
    /// Fraction of per-dimension range violations tolerated before the
    /// envelope rejects (in `[0, 1)`).
    pub violation_budget: f64,
}

impl Default for InputSupervision {
    fn default() -> Self {
        InputSupervision {
            margin: 0.1,
            violation_budget: 0.0,
        }
    }
}

/// Sweep definition: every combination of pattern × class × rate becomes
/// one [`CellReport`].
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Master seed; every cell derives its own streams from it.
    pub seed: u64,
    /// Decisions per cell (the input stream is cycled).
    pub decisions: u64,
    /// Fault classes to sweep.
    pub classes: Vec<FaultClass>,
    /// Per-decision fault rates to sweep (each in `[0, 1]`).
    pub rates: Vec<f64>,
    /// Safety patterns to sweep.
    pub patterns: Vec<CampaignPattern>,
    /// Detection settings for the hardened engines.
    pub harden: HardenConfig,
    /// Degradation-ladder thresholds for the pipelines.
    pub health: HealthConfig,
    /// Pillar-1 input supervision; `None` (the default) runs the
    /// campaign without an input-stage detector, matching the pre-PR-4
    /// measurements.
    pub supervision: Option<InputSupervision>,
    /// Worker threads for cell execution; `1` (the default) runs the
    /// sweep sequentially. Cells are independent, so the report is
    /// byte-identical for any worker count.
    pub workers: usize,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            seed: 0xC0FFEE,
            decisions: 200,
            classes: FaultClass::all().to_vec(),
            rates: vec![0.05],
            patterns: vec![CampaignPattern::MonitorActuator],
            harden: HardenConfig::default(),
            health: HealthConfig {
                // Campaigns want the full ladder exercised, so allow
                // resuming out of safe stop after a clean stretch.
                resume_after: 8,
                ..HealthConfig::default()
            },
            supervision: None,
            workers: 1,
        }
    }
}

impl CampaignConfig {
    /// Validates the sweep definition.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::BadAssembly`] for an empty sweep axis, zero
    /// decisions, or a rate outside `[0, 1]`.
    pub fn validate(&self) -> Result<(), CoreError> {
        let bad = |msg: String| Err(CoreError::BadAssembly(msg));
        if self.decisions == 0 {
            return bad("campaign needs at least one decision per cell".into());
        }
        if self.classes.is_empty() || self.rates.is_empty() || self.patterns.is_empty() {
            return bad("campaign sweep axes must all be non-empty".into());
        }
        for &r in &self.rates {
            if !(0.0..=1.0).contains(&r) || !r.is_finite() {
                return bad(format!("fault rate {r} outside [0, 1]"));
            }
        }
        if self.workers == 0 {
            return bad("campaign needs at least one worker".into());
        }
        if let Some(s) = &self.supervision {
            if !s.margin.is_finite() || s.margin < 0.0 {
                return bad(format!(
                    "supervision margin must be finite and non-negative, got {}",
                    s.margin
                ));
            }
            if !(0.0..1.0).contains(&s.violation_budget) {
                return bad(format!(
                    "supervision violation budget {} outside [0, 1)",
                    s.violation_budget
                ));
            }
        }
        self.health.validate()
    }
}

/// Metrics for one campaign cell (pattern × class × rate).
#[derive(Debug, Clone, PartialEq)]
pub struct CellReport {
    /// Pattern tag.
    pub pattern: &'static str,
    /// Injected fault class.
    pub class: FaultClass,
    /// Configured per-decision fault rate.
    pub rate: f64,
    /// Decisions executed.
    pub decisions: u64,
    /// Decisions with at least one fault actually active.
    pub faulted: u64,
    /// Faulted decisions on which the runtime raised a health event.
    pub detected: u64,
    /// Decisions on which the ECC sidecar corrected a weight fault in
    /// place (`HealthEvent::CorrectedFault`); always 0 when
    /// [`HardenConfig::repair`] is `None`.
    pub corrected: u64,
    /// Faulted decisions whose acted-on class differed from the pristine
    /// reference (the fault mattered).
    pub corrupted: u64,
    /// Corrupted decisions that proceeded *undetected* — silent data
    /// corruption, the number certification cares most about.
    pub silent: u64,
    /// Health events raised on clean decisions (false alarms).
    pub false_alarms: u64,
    /// Decisions from the first active fault to the first detection
    /// (`None` when nothing was detected or nothing was injected).
    pub detection_latency: Option<u64>,
    /// Ladder transitions observed.
    pub transitions: usize,
    /// Decisions spent degraded.
    pub time_degraded: u64,
    /// Decisions spent in safe stop.
    pub time_stopped: u64,
    /// Worst-case decisions between a corrupting weight write and its
    /// detection under the cell's CRC configuration (`None` when checksum
    /// verification is disabled) — the bound a certification argument
    /// quotes against the detection-latency measurement.
    pub crc_staleness_bound: Option<u64>,
    /// Decisions from the first active fault to the first in-place ECC
    /// correction (`None` when nothing was corrected) — the repair
    /// counterpart of `detection_latency`.
    pub repair_latency: Option<u64>,
    /// ECC sidecar memory as a percentage of the protected parameter bits
    /// (0.0 when repair is disabled) — the cost column the repair benefit
    /// is weighed against.
    pub sidecar_overhead_pct: f64,
}

impl CellReport {
    /// Diagnostic coverage: detected / faulted (1.0 when nothing faulted,
    /// matching the IEC 61508 convention that an idle diagnostic has no
    /// dangerous undetected share to answer for).
    pub fn diagnostic_coverage(&self) -> f64 {
        if self.faulted == 0 {
            return 1.0;
        }
        self.detected as f64 / self.faulted as f64
    }

    /// Silent-data-corruption rate over all decisions.
    pub fn sdc_rate(&self) -> f64 {
        if self.decisions == 0 {
            return 0.0;
        }
        self.silent as f64 / self.decisions as f64
    }
}

/// The full sweep result.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignReport {
    /// The master seed the report was produced under.
    pub seed: u64,
    /// One report per sweep cell, in sweep order
    /// (patterns → classes → rates).
    pub cells: Vec<CellReport>,
}

impl CampaignReport {
    /// The worst silent-data-corruption rate across cells.
    pub fn worst_sdc(&self) -> f64 {
        self.cells
            .iter()
            .map(CellReport::sdc_rate)
            .fold(0.0, f64::max)
    }

    /// The lowest diagnostic coverage across cells that saw faults.
    pub fn worst_coverage(&self) -> f64 {
        self.cells
            .iter()
            .filter(|c| c.faulted > 0)
            .map(CellReport::diagnostic_coverage)
            .fold(1.0, f64::min)
    }

    /// Looks up a cell by its sweep coordinates.
    pub fn cell(
        &self,
        pattern: CampaignPattern,
        class: FaultClass,
        rate: f64,
    ) -> Option<&CellReport> {
        self.cells
            .iter()
            .find(|c| c.pattern == pattern.tag() && c.class == class && c.rate == rate)
    }
}

/// Runs the sweep over `model`, cycling `inputs` as both the calibration
/// set and the decision stream.
///
/// # Errors
///
/// Returns [`CoreError::BadAssembly`] for an invalid config or empty
/// inputs, and propagates engine/pattern failures.
pub fn run(
    config: &CampaignConfig,
    model: &Model,
    inputs: &[Vec<f32>],
) -> Result<CampaignReport, CoreError> {
    config.validate()?;
    if inputs.is_empty() {
        return Err(CoreError::BadAssembly("campaign needs inputs".into()));
    }
    let mut specs = Vec::new();
    let mut cell_index = 0u64;
    for &pattern in &config.patterns {
        for &class in &config.classes {
            for &rate in &config.rates {
                cell_index += 1;
                let cell_seed = config
                    .seed
                    .wrapping_add(cell_index.wrapping_mul(0x9E37_79B9_7F4A_7C15));
                specs.push(CellSpec {
                    pattern,
                    class,
                    rate,
                    cell_seed,
                });
            }
        }
    }
    let workers = config.workers.min(specs.len());
    let cells = if workers <= 1 {
        let mut cells = Vec::with_capacity(specs.len());
        for spec in &specs {
            cells.push(run_cell(config, model, inputs, spec)?);
        }
        cells
    } else {
        run_cells_partitioned(config, model, inputs, &specs, workers)?
    };
    Ok(CampaignReport {
        seed: config.seed,
        cells,
    })
}

/// Sweep coordinates plus the derived seed for one cell — everything a
/// worker needs; the cell seed is fixed before partitioning, so the chunk
/// layout cannot influence any RNG stream.
#[derive(Debug, Clone, Copy)]
struct CellSpec {
    pattern: CampaignPattern,
    class: FaultClass,
    rate: f64,
    cell_seed: u64,
}

/// Runs the cell list on `workers` scoped threads and stitches results
/// back in sweep order.
///
/// Determinism argument: every cell is a pure function of
/// `(config, model, inputs, spec)` — engines, pipelines, and RNG streams
/// are all built per cell from the pre-assigned cell seed — so the chunk
/// a cell lands in cannot change its report. Chunks are contiguous and
/// joined in chunk order, which *is* sweep order; on failure the first
/// error in sweep order wins (each worker stops at its first error, and
/// earlier chunks hold earlier cells), matching the sequential path.
fn run_cells_partitioned(
    config: &CampaignConfig,
    model: &Model,
    inputs: &[Vec<f32>],
    specs: &[CellSpec],
    workers: usize,
) -> Result<Vec<CellReport>, CoreError> {
    let lens = chunk_lens(specs.len(), workers);
    let results: Vec<Result<Vec<CellReport>, CoreError>> = std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(lens.len());
        let mut rest = specs;
        for &len in &lens {
            let (chunk, tail) = rest.split_at(len);
            rest = tail;
            handles.push(scope.spawn(move || {
                chunk
                    .iter()
                    .map(|spec| run_cell(config, model, inputs, spec))
                    .collect::<Result<Vec<_>, _>>()
            }));
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("campaign worker panicked"))
            .collect()
    });
    let mut cells = Vec::with_capacity(specs.len());
    for chunk in results {
        cells.extend(chunk?);
    }
    Ok(cells)
}

/// The fault plan a non-weight class hands to the hardened engine.
fn plan_for(class: FaultClass, rate: f64, seed: u64) -> Option<FaultPlan> {
    match class {
        FaultClass::WeightBitFlip | FaultClass::WeightMultiBitFlip => None,
        FaultClass::ActivationBitFlip => Some(FaultPlan::activation(
            seed,
            ActivationFault { p: rate, bits: 1 },
        )),
        FaultClass::InputNoise => Some(FaultPlan::input(
            seed,
            InputFault::Noise {
                sigma: 0.5,
                p: rate,
            },
        )),
        FaultClass::InputStuck => Some(FaultPlan::input(
            seed,
            InputFault::Stuck {
                index: 0,
                level: 1.0,
                p: rate,
            },
        )),
        FaultClass::InputDropout => Some(FaultPlan::input(
            seed,
            InputFault::Dropout { drop: 0.5, p: rate },
        )),
    }
}

fn run_cell(
    config: &CampaignConfig,
    model: &Model,
    inputs: &[Vec<f32>],
    spec: &CellSpec,
) -> Result<CellReport, CoreError> {
    let CellSpec {
        pattern,
        class,
        rate,
        cell_seed,
    } = *spec;
    let mut engine = HardenedEngine::new(model.clone(), config.harden)?;
    engine.calibrate(inputs)?;
    let sidecar_overhead_pct = engine.sidecar_overhead().map_or(0.0, |f| f * 100.0);
    let sink = HealthSink::new();
    engine.attach_sink(sink.clone());
    let plan = plan_for(class, rate, cell_seed);
    if let Some(plan) = plan {
        engine.set_plan(plan)?;
    }
    let channel = HardenedChannel::new("hardened", engine);
    let handle = channel.handle();

    // The diverse cell adds a hardened Q16.16 replica (same health sink,
    // independently calibrated) so weight strikes can hit both
    // implementations; `qhandle`/`pristine_q` stay `None` otherwise.
    let mut qhandle = None;
    let mut pristine_q = None;
    let boxed: Box<dyn SafetyPattern> = match pattern {
        CampaignPattern::Bare => Box::new(Bare::new(channel)),
        CampaignPattern::MonitorActuator => Box::new(MonitorActuator::new(channel, 0.4, 0)?),
        CampaignPattern::DiverseTwoOutOfThree => {
            let qmodel = QModel::quantize(model)?;
            let mut qengine = HardenedQEngine::new(qmodel.clone(), config.harden)?;
            qengine.calibrate_f32(inputs)?;
            qengine.attach_sink(sink.clone());
            let qchannel = HardenedQuantChannel::new("hardened_q16", qengine);
            qhandle = Some(qchannel.handle());
            pristine_q = Some(qmodel);
            let reference = ModelChannel::new("reference_f32", Engine::new(model.clone()));
            Box::new(TwoOutOfThree::new(channel, qchannel, reference)?)
        }
    };
    let monitor = HealthMonitor::new(config.health)?;
    let mut pipeline = PipelineBuilder::new(
        format!("campaign/{}/{}/{rate}", pattern.tag(), class.tag()),
        Sil::Sil2,
    )
    .pattern_boxed(boxed)
    .allow_under_provisioned()
    .health(monitor, sink)
    .build()?;

    // Pristine reference for silent-corruption ground truth, and the
    // pristine weights restored after each weight strike (strikes persist
    // for exactly one decision so coverage is measured per strike, not
    // per exposure window).
    let mut reference = Engine::new(model.clone());
    let pristine = model.clone();
    let mut strike_rng = DetRng::new(cell_seed ^ 0x57_41_4B_45);
    let mut injector = FaultInjector::new(cell_seed ^ 0x46_4C_49_50);
    let mut qinjector = FaultInjector::new(cell_seed ^ 0x51_46_4C_50);
    let envelope = match &config.supervision {
        Some(s) => Some(OddEnvelope::fit(inputs, s.margin, s.violation_budget)?),
        None => None,
    };

    let mut report = CellReport {
        pattern: pattern.tag(),
        class,
        rate,
        decisions: config.decisions,
        faulted: 0,
        detected: 0,
        corrected: 0,
        corrupted: 0,
        silent: 0,
        false_alarms: 0,
        detection_latency: None,
        transitions: 0,
        time_degraded: 0,
        time_stopped: 0,
        crc_staleness_bound: config.harden.staleness_bound(layer_checksums(model).len()),
        repair_latency: None,
        sidecar_overhead_pct,
    };
    let mut first_fault_at: Option<u64> = None;

    for k in 0..config.decisions {
        let input = &inputs[(k % inputs.len() as u64) as usize];
        let clean_class = reference.classify(input)?.class;

        let mut struck = false;
        if class.is_weight() && strike_rng.chance(rate) {
            let bits = if class == FaultClass::WeightMultiBitFlip {
                3
            } else {
                1
            };
            let mut e = handle.lock().expect("campaign engine");
            injector.flip_weight_bits(e.model_mut(), 1, bits)?;
            if let Some(qh) = &qhandle {
                // The diverse replica takes its own independent SEU
                // stream — shared strikes would be a common-cause fault
                // diverse redundancy is not meant to mask.
                let mut qe = qh.lock().expect("campaign quantised engine");
                qinjector.flip_qweight_bits(qe.model_mut(), 1, bits)?;
            }
            struck = true;
        }

        // Pillar-1 input supervision screens the same faulted input view
        // the hardened engine will see; a rejection is pushed to the sink
        // *before* the decision so `decide` drains it as this decision's
        // health evidence.
        if let (Some(envelope), Some(plan)) = (&envelope, &plan) {
            let preview = plan.preview_input(k, input);
            if !envelope.contains(&preview)? {
                pipeline.report_health(HealthEvent::SupervisorReject {
                    monitor: "odd_envelope",
                });
            }
        }

        let decision = pipeline.decide(input)?;

        let injected = struck || {
            let e = handle.lock().expect("campaign engine");
            !e.last_injections().is_empty()
        };
        let detected = !pipeline.last_health_events().is_empty();
        let corrected = pipeline
            .last_health_events()
            .iter()
            .any(|e| matches!(e, HealthEvent::CorrectedFault { .. }));

        if struck {
            // Restore pristine weights; the golden checksums were never
            // rebaselined, so the next decision starts clean.
            let mut e = handle.lock().expect("campaign engine");
            *e.model_mut() = pristine.clone();
            drop(e);
            if let (Some(qh), Some(pq)) = (&qhandle, &pristine_q) {
                let mut qe = qh.lock().expect("campaign quantised engine");
                *qe.model_mut() = pq.clone();
            }
        }

        if injected {
            report.faulted += 1;
            first_fault_at.get_or_insert(k);
            if detected {
                report.detected += 1;
            }
            let acted = decision.action.class();
            let wrong = acted.is_some_and(|c| c != clean_class);
            if wrong {
                report.corrupted += 1;
                if !detected && decision.action.is_proceed() {
                    report.silent += 1;
                }
            }
        } else if detected {
            report.false_alarms += 1;
        }
        if detected && report.detection_latency.is_none() {
            if let Some(first) = first_fault_at {
                report.detection_latency = Some(k - first);
            }
        }
        if corrected {
            report.corrected += 1;
            if report.repair_latency.is_none() {
                if let Some(first) = first_fault_at {
                    report.repair_latency = Some(k - first);
                }
            }
        }
    }

    let health = pipeline.health().expect("campaign pipeline has health");
    report.transitions = health.transitions().len();
    report.time_degraded = health.time_in(HealthState::Degraded);
    report.time_stopped = health.time_in(HealthState::SafeStop);
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use safex_nn::model::ModelBuilder;
    use safex_tensor::{DetRng, Shape};

    /// A small MLP plus an input stream covering its nominal range.
    fn fixture() -> (Model, Vec<Vec<f32>>) {
        let mut rng = DetRng::new(77);
        let model = ModelBuilder::new(Shape::vector(8))
            .dense(12, &mut rng)
            .unwrap()
            .relu()
            .dense(4, &mut rng)
            .unwrap()
            .softmax()
            .build()
            .unwrap();
        let inputs: Vec<Vec<f32>> = (0..32)
            .map(|_| (0..8).map(|_| rng.next_f32()).collect())
            .collect();
        (model, inputs)
    }

    fn quick_config() -> CampaignConfig {
        CampaignConfig {
            seed: 9,
            decisions: 120,
            classes: vec![FaultClass::WeightBitFlip, FaultClass::InputNoise],
            rates: vec![0.1],
            patterns: vec![CampaignPattern::MonitorActuator],
            ..CampaignConfig::default()
        }
    }

    #[test]
    fn config_validation() {
        assert!(CampaignConfig::default().validate().is_ok());
        for bad in [
            CampaignConfig {
                decisions: 0,
                ..CampaignConfig::default()
            },
            CampaignConfig {
                classes: vec![],
                ..CampaignConfig::default()
            },
            CampaignConfig {
                rates: vec![1.5],
                ..CampaignConfig::default()
            },
            CampaignConfig {
                patterns: vec![],
                ..CampaignConfig::default()
            },
            CampaignConfig {
                workers: 0,
                ..CampaignConfig::default()
            },
        ] {
            assert!(bad.validate().is_err());
        }
    }

    #[test]
    fn parallel_campaign_is_byte_identical_for_any_worker_count() {
        // The tentpole guarantee: partitioning cells across threads must
        // not change a single byte of the report, including when workers
        // exceed cells (8 workers, 2×2×2 = 8 cells here, also try a
        // non-dividing 3).
        let (model, inputs) = fixture();
        let config = CampaignConfig {
            decisions: 60,
            classes: vec![FaultClass::WeightBitFlip, FaultClass::InputNoise],
            rates: vec![0.0, 0.2],
            patterns: vec![CampaignPattern::Bare, CampaignPattern::MonitorActuator],
            ..quick_config()
        };
        let sequential = run(&config, &model, &inputs).unwrap();
        for workers in [2usize, 3, 4, 8] {
            let parallel = run(
                &CampaignConfig {
                    workers,
                    ..config.clone()
                },
                &model,
                &inputs,
            )
            .unwrap();
            assert_eq!(
                parallel, sequential,
                "{workers} workers diverged from sequential"
            );
        }
    }

    #[test]
    fn cells_report_the_crc_staleness_bound() {
        let (model, inputs) = fixture();
        // Full strategy on cadence 1: bound is 1 decision.
        let report = run(&quick_config(), &model, &inputs).unwrap();
        assert!(report
            .cells
            .iter()
            .all(|c| c.crc_staleness_bound == Some(1)));
        // Rotating over this model's 2 parametric layers on cadence 2:
        // bound is 4 decisions.
        let rotating = CampaignConfig {
            harden: HardenConfig {
                crc_cadence: 2,
                crc_strategy: safex_nn::CrcStrategy::Rotating,
                ..HardenConfig::default()
            },
            ..quick_config()
        };
        let report = run(&rotating, &model, &inputs).unwrap();
        assert!(report
            .cells
            .iter()
            .all(|c| c.crc_staleness_bound == Some(4)));
        // CRC disabled: no bound.
        let disabled = CampaignConfig {
            harden: HardenConfig {
                crc_cadence: 0,
                ..HardenConfig::default()
            },
            ..quick_config()
        };
        let report = run(&disabled, &model, &inputs).unwrap();
        assert!(report.cells.iter().all(|c| c.crc_staleness_bound.is_none()));
    }

    #[test]
    fn rotating_campaign_is_byte_identical_for_any_worker_count() {
        // The rotation cursor is a pure function of the global decision
        // index, so it must survive parallel cell execution too.
        let (model, inputs) = fixture();
        let config = CampaignConfig {
            decisions: 60,
            classes: vec![FaultClass::WeightBitFlip],
            rates: vec![0.2],
            patterns: vec![CampaignPattern::Bare, CampaignPattern::MonitorActuator],
            harden: HardenConfig {
                crc_cadence: 1,
                crc_strategy: safex_nn::CrcStrategy::Rotating,
                ..HardenConfig::default()
            },
            ..quick_config()
        };
        let sequential = run(&config, &model, &inputs).unwrap();
        for workers in [2usize, 4] {
            let parallel = run(
                &CampaignConfig {
                    workers,
                    ..config.clone()
                },
                &model,
                &inputs,
            )
            .unwrap();
            assert_eq!(parallel, sequential, "{workers} workers diverged");
        }
    }

    #[test]
    fn campaign_is_reproducible_by_seed() {
        let (model, inputs) = fixture();
        let config = quick_config();
        let a = run(&config, &model, &inputs).unwrap();
        let b = run(&config, &model, &inputs).unwrap();
        assert_eq!(a, b, "same seed must reproduce the full report");
        let other = run(
            &CampaignConfig {
                seed: 10,
                ..quick_config()
            },
            &model,
            &inputs,
        )
        .unwrap();
        assert_ne!(a, other, "a different seed must change the campaign");
    }

    #[test]
    fn weight_bit_flips_are_caught_by_checksums() {
        // Acceptance criterion: diagnostic coverage > 0.9 for weight
        // bit-flips at default detection settings (CRC every decision
        // catches every strike).
        let (model, inputs) = fixture();
        let config = CampaignConfig {
            decisions: 300,
            classes: vec![FaultClass::WeightBitFlip],
            ..quick_config()
        };
        let report = run(&config, &model, &inputs).unwrap();
        let cell = &report.cells[0];
        assert!(
            cell.faulted >= 10,
            "the 10% rate must actually strike: {cell:?}"
        );
        assert!(
            cell.diagnostic_coverage() > 0.9,
            "weight-flip coverage {:.3} below 0.9: {cell:?}",
            cell.diagnostic_coverage()
        );
        assert_eq!(cell.silent, 0, "detected strikes cannot be silent");
        assert_eq!(
            cell.detection_latency,
            Some(0),
            "CRC on cadence 1 detects on the strike decision"
        );
    }

    #[test]
    fn zero_rate_cell_is_a_clean_control() {
        let (model, inputs) = fixture();
        let config = CampaignConfig {
            decisions: 80,
            classes: vec![FaultClass::InputNoise],
            rates: vec![0.0],
            ..quick_config()
        };
        let report = run(&config, &model, &inputs).unwrap();
        let cell = &report.cells[0];
        assert_eq!(cell.faulted, 0);
        assert_eq!(
            cell.false_alarms, 0,
            "calibrated guards must not trip clean"
        );
        assert_eq!(cell.diagnostic_coverage(), 1.0);
        assert_eq!(cell.sdc_rate(), 0.0);
        assert_eq!(cell.transitions, 0);
    }

    #[test]
    fn sweep_produces_one_cell_per_combination() {
        let (model, inputs) = fixture();
        let config = CampaignConfig {
            decisions: 40,
            classes: vec![FaultClass::WeightBitFlip, FaultClass::InputStuck],
            rates: vec![0.0, 0.2],
            patterns: vec![CampaignPattern::Bare, CampaignPattern::MonitorActuator],
            ..quick_config()
        };
        let report = run(&config, &model, &inputs).unwrap();
        assert_eq!(report.cells.len(), 8);
        assert!(report
            .cell(CampaignPattern::Bare, FaultClass::InputStuck, 0.2)
            .is_some());
        assert!(report.worst_coverage() <= 1.0);
        assert!(report.worst_sdc() >= 0.0);
    }

    #[test]
    fn input_supervision_closes_the_in_range_dropout_gap() {
        // Dropout zeroes half the (in-range) elements, so the hardened
        // engine's non-finite and guard checks mostly miss it — the gap
        // E11 measured. The ODD envelope's statistic bands catch the
        // collapsed mean/std, so supervised coverage must strictly beat
        // unsupervised coverage on the same seed.
        let (model, inputs) = fixture();
        let base = CampaignConfig {
            decisions: 200,
            classes: vec![FaultClass::InputDropout],
            rates: vec![0.2],
            ..quick_config()
        };
        let unsupervised = run(&base, &model, &inputs).unwrap();
        let supervised = run(
            &CampaignConfig {
                supervision: Some(InputSupervision::default()),
                ..base.clone()
            },
            &model,
            &inputs,
        )
        .unwrap();
        let without = unsupervised.cells[0].diagnostic_coverage();
        let with = supervised.cells[0].diagnostic_coverage();
        assert!(supervised.cells[0].faulted >= 10, "dropout must strike");
        assert!(
            with > without + 0.25,
            "supervision must add substantial coverage: {with:.3} vs {without:.3}"
        );
        // Not every burst moves the input statistics out of band — a
        // 1-element drop out of 8 is statistically invisible — so the
        // bar is "most of the gap closed", not perfection.
        assert!(
            with > 0.6,
            "envelope should catch most dropout bursts ({with:.3} vs {without:.3} unsupervised)"
        );
        assert_eq!(
            supervised.cells[0].false_alarms, 0,
            "training inputs sit inside the fitted envelope by construction"
        );
    }

    #[test]
    fn supervision_config_is_validated() {
        for bad in [
            InputSupervision {
                margin: f64::NAN,
                ..InputSupervision::default()
            },
            InputSupervision {
                margin: -0.1,
                ..InputSupervision::default()
            },
            InputSupervision {
                violation_budget: 1.0,
                ..InputSupervision::default()
            },
        ] {
            let config = CampaignConfig {
                supervision: Some(bad),
                ..CampaignConfig::default()
            };
            assert!(config.validate().is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn diverse_2oo3_strikes_both_implementations_and_masks() {
        // The diverse cell injects independent SEU streams into the f32
        // and Q16.16 replicas. Both hardened engines checksum their own
        // weights, so coverage stays high — and the 2oo3 voter masks
        // single-channel corruption, so nothing silent gets through.
        let (model, inputs) = fixture();
        let config = CampaignConfig {
            decisions: 200,
            classes: vec![FaultClass::WeightBitFlip],
            rates: vec![0.15],
            patterns: vec![CampaignPattern::DiverseTwoOutOfThree],
            ..quick_config()
        };
        let report = run(&config, &model, &inputs).unwrap();
        let cell = &report.cells[0];
        assert_eq!(cell.pattern, "diverse_2oo3");
        assert!(cell.faulted >= 10, "strikes must land: {cell:?}");
        assert!(
            cell.diagnostic_coverage() > 0.9,
            "dual-implementation CRC coverage {:.3} below 0.9: {cell:?}",
            cell.diagnostic_coverage()
        );
        assert_eq!(cell.silent, 0, "2oo3 must not pass silent corruption");
    }

    #[test]
    fn diverse_and_supervised_cells_are_deterministic_across_workers() {
        let (model, inputs) = fixture();
        let config = CampaignConfig {
            decisions: 80,
            classes: vec![FaultClass::WeightBitFlip, FaultClass::InputDropout],
            rates: vec![0.1, 0.3],
            patterns: vec![
                CampaignPattern::MonitorActuator,
                CampaignPattern::DiverseTwoOutOfThree,
            ],
            supervision: Some(InputSupervision::default()),
            ..quick_config()
        };
        let sequential = run(&config, &model, &inputs).unwrap();
        for workers in [2usize, 4, 8] {
            let parallel = run(
                &CampaignConfig {
                    workers,
                    ..config.clone()
                },
                &model,
                &inputs,
            )
            .unwrap();
            assert_eq!(parallel, sequential, "{workers} workers diverged");
        }
        let again = run(&config, &model, &inputs).unwrap();
        assert_eq!(again, sequential, "rerun must reproduce byte-for-byte");
    }

    #[test]
    fn repair_converts_weight_seu_from_degrade_to_keep_serving() {
        use safex_nn::EccConfig;
        // E13's core claim: with the ECC sidecar enabled (and a warning
        // budget that tolerates corrected faults), every single-bit
        // weight SEU is corrected in place — zero silent corruption,
        // zero wrong decisions, zero time outside Nominal — at a
        // measured ~6 % memory overhead. Without repair the very same
        // strike stream walks the degradation ladder.
        let (model, inputs) = fixture();
        let base = CampaignConfig {
            decisions: 200,
            classes: vec![FaultClass::WeightBitFlip],
            rates: vec![0.15],
            ..quick_config()
        };
        let without = run(&base, &model, &inputs).unwrap();
        let with = run(
            &CampaignConfig {
                harden: HardenConfig {
                    repair: Some(EccConfig::default()),
                    ..HardenConfig::default()
                },
                health: HealthConfig {
                    warn_budget: 8,
                    resume_after: 8,
                    ..HealthConfig::default()
                },
                ..base.clone()
            },
            &model,
            &inputs,
        )
        .unwrap();
        let cell = &with.cells[0];
        assert!(cell.faulted >= 10, "strikes must land: {cell:?}");
        assert_eq!(
            cell.corrected, cell.faulted,
            "every single-bit strike is corrected: {cell:?}"
        );
        assert!(
            cell.diagnostic_coverage() > 0.99,
            "corrections still count as detections: {cell:?}"
        );
        assert_eq!(cell.corrupted, 0, "repair lands before the layer loop");
        assert_eq!(cell.silent, 0, "{cell:?}");
        assert_eq!(
            cell.repair_latency,
            Some(0),
            "CRC cadence 1 repairs on the strike decision"
        );
        assert_eq!(cell.time_degraded, 0, "budgeted warnings never degrade");
        assert_eq!(cell.time_stopped, 0, "budgeted warnings never stop");
        assert!(
            (5.0..10.0).contains(&cell.sidecar_overhead_pct),
            "interleaved parity ≈ 6.25 %: {cell:?}"
        );
        // The detect-only baseline pays for the same strikes on the
        // ladder instead.
        let baseline = &without.cells[0];
        assert_eq!(baseline.corrected, 0);
        assert_eq!(baseline.sidecar_overhead_pct, 0.0);
        assert_eq!(baseline.repair_latency, None);
        assert!(
            baseline.time_degraded > 0 || baseline.time_stopped > 0,
            "without repair the ladder must move: {baseline:?}"
        );
    }

    #[test]
    fn sustained_faults_drive_the_degradation_ladder() {
        // A high weight-strike rate must walk the pipeline down the
        // ladder: transitions recorded, time spent outside nominal.
        let (model, inputs) = fixture();
        let config = CampaignConfig {
            decisions: 150,
            classes: vec![FaultClass::WeightBitFlip],
            rates: vec![0.5],
            ..quick_config()
        };
        let report = run(&config, &model, &inputs).unwrap();
        let cell = &report.cells[0];
        assert!(cell.transitions >= 2, "ladder must move: {cell:?}");
        assert!(cell.time_degraded > 0, "{cell:?}");
        assert!(cell.time_stopped > 0, "{cell:?}");
    }
}
