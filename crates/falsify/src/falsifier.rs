//! The deterministic falsification search driver.
//!
//! Search proceeds in two phases, both pure functions of the
//! configuration:
//!
//! 1. **Grid seeding.** The space's coarse lattice
//!    ([`ScenarioSpace::grid`](crate::ScenarioSpace::grid)) is evaluated exhaustively, so no corner
//!    of the space is unexplored at the resolution the grid affords.
//! 2. **Cross-entropy refinement.** Each round ranks every evaluation so
//!    far by its worst specification margin and resamples around the
//!    incumbent best point, with the per-dimension step size taken from
//!    the elite (lowest-margin) set's spread — clamped to the domain,
//!    discrete dimensions biased toward the best level with an
//!    exploration floor. Margins grade distance to the violation
//!    boundary even on the safe side, so refinement walks toward
//!    violations instead of plateauing.
//!
//! **Determinism argument.** Every evaluation's RNG seed is derived from
//! `(config.seed, global evaluation index)` *before* work is partitioned
//! across threads, the partitioning is the same contiguous
//! [`chunk_lens`] split campaigns use, and results are stitched back in
//! index order. Elite selection sorts by `(margin, evaluation index)` —
//! a total order with no float ties left to thread timing — and each
//! round's resampling RNG is seeded from `(config.seed, round)` alone.
//! The report is therefore byte-identical for any worker count.

use safex_core::chunk_lens;
use safex_tensor::DetRng;

use crate::error::FalsifyError;
use crate::runner::ScenarioRunner;
use crate::space::{ParamDomain, ParamRange, ScenarioPoint};
use crate::spec::{Specification, ViolationKind};

/// Multiplier decorrelating per-evaluation seeds (the same constant the
/// campaign driver uses for cell seeds).
const EVAL_SEED_STRIDE: u64 = 0x9E37_79B9_7F4A_7C15;
/// Multiplier decorrelating per-round resampling streams.
const ROUND_SEED_STRIDE: u64 = 0xA24B_AED4_963E_E407;
/// Fraction of the domain width the refinement standard deviation never
/// drops below, so the search cannot collapse onto a single point.
const STD_FLOOR_FRAC: f64 = 0.08;
/// Probability a discrete dimension explores a uniform level.
const DISCRETE_EXPLORE: f64 = 0.15;
/// Probability a discrete dimension repeats the incumbent best level
/// (the remainder resamples among the elite levels).
const DISCRETE_EXPLOIT: f64 = 0.5;

/// Search budget and partitioning for [`Falsifier`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FalsifyConfig {
    /// Master seed; every evaluation and resampling stream derives from
    /// it.
    pub seed: u64,
    /// Seeding-lattice resolution per continuous dimension.
    pub grid: usize,
    /// Cross-entropy refinement rounds after seeding.
    pub rounds: usize,
    /// Points sampled per refinement round.
    pub samples_per_round: usize,
    /// Size of the elite set the refinement fits.
    pub elite: usize,
    /// Worker threads for scenario evaluation (byte-identical results
    /// for any value).
    pub workers: usize,
}

impl Default for FalsifyConfig {
    fn default() -> Self {
        FalsifyConfig {
            seed: 0xFA15,
            grid: 3,
            rounds: 3,
            samples_per_round: 16,
            elite: 5,
            workers: 1,
        }
    }
}

impl FalsifyConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`FalsifyError::BadConfig`] for a zero grid, worker count,
    /// or elite size, or a positive round count with no samples.
    pub fn validate(&self) -> Result<(), FalsifyError> {
        if self.grid == 0 {
            return Err(FalsifyError::BadConfig(
                "grid must be at least 1 point per dimension".into(),
            ));
        }
        if self.workers == 0 {
            return Err(FalsifyError::BadConfig("workers must be at least 1".into()));
        }
        if self.elite == 0 {
            return Err(FalsifyError::BadConfig(
                "elite set must be non-empty".into(),
            ));
        }
        if self.rounds > 0 && self.samples_per_round == 0 {
            return Err(FalsifyError::BadConfig(
                "refinement rounds need samples_per_round >= 1".into(),
            ));
        }
        Ok(())
    }

    /// The RNG seed evaluation `eval` ran under — fixed before any work
    /// is partitioned. Public so a witness evaluation (via
    /// [`CounterexampleCell::witness_eval`]) can be replayed exactly,
    /// e.g. as shaped soak traffic.
    pub fn eval_seed(&self, eval: u64) -> u64 {
        self.seed.wrapping_add(eval.wrapping_mul(EVAL_SEED_STRIDE))
    }
}

/// One violating parameter region found by the search.
#[derive(Debug, Clone, PartialEq)]
pub struct CounterexampleCell {
    /// Name of the violated specification.
    pub spec: String,
    /// What kind of violation this cell reports.
    pub kind: ViolationKind,
    /// Per-dimension bounding box of every violating point.
    pub region: Vec<ParamRange>,
    /// The worst violating point.
    pub witness: ScenarioPoint,
    /// Global index of the witness evaluation; feed it to
    /// [`FalsifyConfig::eval_seed`] to replay the run exactly.
    pub witness_eval: u64,
    /// FNV digest of the inputs the witness evaluation consumed.
    pub witness_digest: u64,
    /// The witness's margin (the most negative seen for this spec).
    pub margin: f64,
    /// How many evaluations violated this spec.
    pub violations: u64,
}

/// Best margin and violation count for one specification (present even
/// when the spec was never violated).
#[derive(Debug, Clone, PartialEq)]
pub struct SpecSummary {
    /// Specification name.
    pub spec: String,
    /// Violation kind the spec reports.
    pub kind: ViolationKind,
    /// The lowest margin any evaluation reached.
    pub best_margin: f64,
    /// How many evaluations violated the spec.
    pub violations: u64,
}

/// The full result of one falsification search.
#[derive(Debug, Clone, PartialEq)]
pub struct FalsifyReport {
    /// The master seed the search ran under.
    pub seed: u64,
    /// Total scenario evaluations performed.
    pub evaluations: u64,
    /// Global index of the first evaluation that violated any spec.
    pub first_violation_eval: Option<u64>,
    /// Per-spec best margins, in the order the specs were passed.
    pub specs: Vec<SpecSummary>,
    /// One cell per violated spec, in the order the specs were passed.
    pub cells: Vec<CounterexampleCell>,
}

impl FalsifyReport {
    /// Whether any specification was violated.
    pub fn falsified(&self) -> bool {
        !self.cells.is_empty()
    }

    /// The cell for a named spec, if that spec was violated.
    pub fn cell(&self, spec: &str) -> Option<&CounterexampleCell> {
        self.cells.iter().find(|c| c.spec == spec)
    }
}

/// One completed evaluation, as the driver tracks it.
#[derive(Debug, Clone)]
struct EvalRecord {
    eval: u64,
    point: ScenarioPoint,
    /// Margin per spec, in spec order.
    margins: Vec<f64>,
    /// The search score: the worst margin across specs.
    score: f64,
    witness_digest: u64,
}

/// The search driver: grid seeding plus cross-entropy refinement over a
/// [`ScenarioRunner`]'s parameter space.
#[derive(Debug, Clone)]
pub struct Falsifier {
    config: FalsifyConfig,
}

impl Falsifier {
    /// Creates a driver with a validated configuration.
    ///
    /// # Errors
    ///
    /// Returns [`FalsifyError::BadConfig`] if the configuration fails
    /// [`FalsifyConfig::validate`].
    pub fn new(config: FalsifyConfig) -> Result<Self, FalsifyError> {
        config.validate()?;
        Ok(Falsifier { config })
    }

    /// The configuration this driver runs under.
    pub fn config(&self) -> &FalsifyConfig {
        &self.config
    }

    /// Runs the search: seeds the grid, refines for the configured
    /// rounds, and reports every violated specification as a
    /// counterexample cell.
    ///
    /// # Errors
    ///
    /// Returns [`FalsifyError::BadConfig`] for an empty spec list and
    /// propagates runner failures (first in evaluation order).
    pub fn falsify(
        &self,
        runner: &dyn ScenarioRunner,
        specs: &[Box<dyn Specification>],
    ) -> Result<FalsifyReport, FalsifyError> {
        if specs.is_empty() {
            return Err(FalsifyError::BadConfig(
                "falsification needs at least one specification".into(),
            ));
        }
        let space = runner.space();
        let seed_points = space.grid(self.config.grid)?;
        let mut all = self.evaluate_batch(runner, specs, 0, &seed_points)?;

        for round in 0..self.config.rounds {
            let elite = self.elite_of(&all);
            let mut rng = DetRng::new(
                self.config
                    .seed
                    .wrapping_add((round as u64 + 1).wrapping_mul(ROUND_SEED_STRIDE)),
            );
            let mut next = Vec::with_capacity(self.config.samples_per_round);
            for _ in 0..self.config.samples_per_round {
                next.push(self.resample(space.params(), &elite, &mut rng));
            }
            let base = all.len() as u64;
            all.extend(self.evaluate_batch(runner, specs, base, &next)?);
        }

        let names: Vec<String> = space.params().iter().map(|p| p.name.clone()).collect();
        Ok(self.report(specs, all, &names))
    }

    /// The elite set: the `elite` lowest-scoring records, ties broken by
    /// evaluation index — a total, thread-independent order.
    fn elite_of<'a>(&self, all: &'a [EvalRecord]) -> Vec<&'a EvalRecord> {
        let mut order: Vec<&EvalRecord> = all.iter().collect();
        order.sort_by(|a, b| a.score.total_cmp(&b.score).then(a.eval.cmp(&b.eval)));
        order.truncate(self.config.elite.min(order.len()));
        order
    }

    /// Draws one refined point: a Gaussian around the incumbent best
    /// (`elite[0]`) whose per-dimension step size is the elite set's
    /// spread — wide while the elite is diverse, tight once it has
    /// converged, never below the exploration floor.
    fn resample(
        &self,
        params: &[crate::space::ParamSpec],
        elite: &[&EvalRecord],
        rng: &mut DetRng,
    ) -> ScenarioPoint {
        let values = params
            .iter()
            .enumerate()
            .map(|(d, p)| {
                let vals: Vec<f64> = elite.iter().map(|e| e.point.values[d]).collect();
                let best = vals[0];
                match p.domain {
                    ParamDomain::Continuous { lo, hi } => {
                        let mean = vals.iter().sum::<f64>() / vals.len() as f64;
                        let var = vals.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>()
                            / vals.len() as f64;
                        let std = var.sqrt().max(STD_FLOOR_FRAC * (hi - lo));
                        p.domain.clamp(rng.gaussian(best, std))
                    }
                    ParamDomain::Discrete { levels } => {
                        if rng.chance(DISCRETE_EXPLORE) {
                            rng.below_usize(levels) as f64
                        } else if rng.chance(DISCRETE_EXPLOIT) {
                            best
                        } else {
                            vals[rng.below_usize(vals.len())]
                        }
                    }
                }
            })
            .collect();
        ScenarioPoint { values }
    }

    /// Evaluates a batch of points on `workers` scoped threads.
    ///
    /// Every point's global evaluation index — and hence its RNG seed —
    /// is assigned *before* partitioning; chunks are contiguous and
    /// stitched in index order; on failure the first error in index
    /// order wins. This mirrors the campaign driver exactly.
    fn evaluate_batch(
        &self,
        runner: &dyn ScenarioRunner,
        specs: &[Box<dyn Specification>],
        base_eval: u64,
        points: &[ScenarioPoint],
    ) -> Result<Vec<EvalRecord>, FalsifyError> {
        if points.is_empty() {
            return Ok(Vec::new());
        }
        let evaluate = |offset: usize, point: &ScenarioPoint| -> Result<EvalRecord, FalsifyError> {
            let eval = base_eval + offset as u64;
            let seed = self.config.eval_seed(eval);
            let outcome = runner.run(point, seed)?;
            let margins: Vec<f64> = specs.iter().map(|s| s.judge(&outcome).margin).collect();
            let score = margins.iter().copied().fold(f64::INFINITY, f64::min);
            Ok(EvalRecord {
                eval,
                point: point.clone(),
                margins,
                score,
                witness_digest: outcome.witness_digest,
            })
        };
        let workers = self.config.workers.min(points.len());
        if workers == 1 {
            return points
                .iter()
                .enumerate()
                .map(|(i, p)| evaluate(i, p))
                .collect();
        }
        let lens = chunk_lens(points.len(), workers);
        let results: Vec<Result<Vec<EvalRecord>, FalsifyError>> = std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(lens.len());
            let mut rest = points;
            let mut start = 0usize;
            for &len in &lens {
                let (chunk, tail) = rest.split_at(len);
                rest = tail;
                let chunk_start = start;
                start += len;
                handles.push(scope.spawn(move || {
                    chunk
                        .iter()
                        .enumerate()
                        .map(|(i, p)| evaluate(chunk_start + i, p))
                        .collect::<Result<Vec<_>, _>>()
                }));
            }
            handles
                .into_iter()
                .map(|h| h.join().expect("falsify worker panicked"))
                .collect()
        });
        let mut records = Vec::with_capacity(points.len());
        for chunk in results {
            records.extend(chunk?);
        }
        Ok(records)
    }

    /// Folds the evaluation log into the final report.
    fn report(
        &self,
        specs: &[Box<dyn Specification>],
        all: Vec<EvalRecord>,
        dim_names: &[String],
    ) -> FalsifyReport {
        let first_violation_eval = all
            .iter()
            .filter(|e| e.margins.iter().any(|&m| m <= 0.0))
            .map(|e| e.eval)
            .min();
        let mut summaries = Vec::with_capacity(specs.len());
        let mut cells = Vec::new();
        for (si, spec) in specs.iter().enumerate() {
            let best_margin = all
                .iter()
                .map(|e| e.margins[si])
                .fold(f64::INFINITY, f64::min);
            let violating: Vec<&EvalRecord> = all.iter().filter(|e| e.margins[si] <= 0.0).collect();
            summaries.push(SpecSummary {
                spec: spec.name().to_string(),
                kind: spec.kind(),
                best_margin,
                violations: violating.len() as u64,
            });
            if violating.is_empty() {
                continue;
            }
            let region = (0..dim_names.len())
                .map(|d| {
                    let lo = violating
                        .iter()
                        .map(|e| e.point.values[d])
                        .fold(f64::INFINITY, f64::min);
                    let hi = violating
                        .iter()
                        .map(|e| e.point.values[d])
                        .fold(f64::NEG_INFINITY, f64::max);
                    ParamRange {
                        name: dim_names[d].clone(),
                        lo,
                        hi,
                    }
                })
                .collect::<Vec<_>>();
            let witness = violating
                .iter()
                .min_by(|a, b| {
                    a.margins[si]
                        .total_cmp(&b.margins[si])
                        .then(a.eval.cmp(&b.eval))
                })
                .expect("non-empty violating set");
            cells.push(CounterexampleCell {
                spec: spec.name().to_string(),
                kind: spec.kind(),
                region,
                witness: witness.point.clone(),
                witness_eval: witness.eval,
                witness_digest: witness.witness_digest,
                margin: witness.margins[si],
                violations: violating.len() as u64,
            });
        }
        FalsifyReport {
            seed: self.config.seed,
            evaluations: all.len() as u64,
            first_violation_eval,
            specs: summaries,
            cells,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::{ParamSpec, ScenarioSpace};
    use crate::spec::{RunOutcome, StepRecord, Verdict};

    /// A synthetic runner whose "violation" region is `x > 0.7, y level 2`:
    /// the step is a silent wrong proceed iff the point is inside.
    struct Synthetic {
        space: ScenarioSpace,
    }

    impl Synthetic {
        fn new() -> Self {
            Synthetic {
                space: ScenarioSpace::new(vec![
                    ParamSpec::continuous("x", 0.0, 1.0),
                    ParamSpec::discrete("y", 3),
                ])
                .unwrap(),
            }
        }
    }

    impl ScenarioRunner for Synthetic {
        fn space(&self) -> &ScenarioSpace {
            &self.space
        }

        fn run(&self, point: &ScenarioPoint, seed: u64) -> Result<RunOutcome, FalsifyError> {
            let inside = point.values[0] > 0.7 && point.values[1] == 2.0;
            Ok(RunOutcome {
                steps: vec![StepRecord {
                    true_label: 0,
                    class: Some(usize::from(inside)),
                    confidence: if inside { 0.95 } else { 0.9 },
                    proceeded: true,
                    health_events: 0,
                    disagreement: false,
                    cte: None,
                }],
                witness_digest: seed,
            })
        }
    }

    /// Distance-to-region spec: negative inside the seeded region.
    struct SeededSpec;

    impl Specification for SeededSpec {
        fn name(&self) -> &'static str {
            "seeded"
        }

        fn kind(&self) -> ViolationKind {
            ViolationKind::ConfidentMisclass
        }

        fn judge(&self, run: &RunOutcome) -> Verdict {
            let wrong = run.steps[0].class != Some(0);
            Verdict {
                kind: self.kind(),
                margin: if wrong { -0.5 } else { 0.5 },
            }
        }
    }

    fn specs() -> Vec<Box<dyn Specification>> {
        vec![Box::new(SeededSpec)]
    }

    #[test]
    fn config_validation() {
        assert!(Falsifier::new(FalsifyConfig::default()).is_ok());
        for bad in [
            FalsifyConfig {
                grid: 0,
                ..Default::default()
            },
            FalsifyConfig {
                workers: 0,
                ..Default::default()
            },
            FalsifyConfig {
                elite: 0,
                ..Default::default()
            },
            FalsifyConfig {
                rounds: 1,
                samples_per_round: 0,
                ..Default::default()
            },
        ] {
            assert!(Falsifier::new(bad).is_err(), "{bad:?} should be rejected");
        }
    }

    #[test]
    fn finds_the_seeded_region() {
        let driver = Falsifier::new(FalsifyConfig::default()).unwrap();
        let report = driver.falsify(&Synthetic::new(), &specs()).unwrap();
        assert!(report.falsified());
        let cell = report.cell("seeded").unwrap();
        assert!(cell.witness.values[0] > 0.7);
        assert_eq!(cell.witness.values[1], 2.0);
        assert!(cell.margin <= -0.5);
        assert!(cell.violations > 0);
        assert!(report.first_violation_eval.is_some());
        // The region's x interval sits inside the seeded violation band,
        // and carries the dimension's name.
        assert!(cell.region[0].lo > 0.7);
        assert_eq!(cell.region[0].name, "x");
        // The synthetic runner echoes its seed as the digest, so the
        // witness replay contract (eval index -> seed) is checkable.
        assert_eq!(
            cell.witness_digest,
            FalsifyConfig::default().eval_seed(cell.witness_eval)
        );
    }

    #[test]
    fn reports_are_identical_for_any_worker_count() {
        let reference = Falsifier::new(FalsifyConfig::default())
            .unwrap()
            .falsify(&Synthetic::new(), &specs())
            .unwrap();
        for workers in [2usize, 4, 8] {
            let parallel = Falsifier::new(FalsifyConfig {
                workers,
                ..Default::default()
            })
            .unwrap()
            .falsify(&Synthetic::new(), &specs())
            .unwrap();
            assert_eq!(parallel, reference, "{workers}-worker report diverged");
        }
    }

    #[test]
    fn refinement_concentrates_evaluations_near_the_violation() {
        // With rounds, the share of violating evaluations must beat the
        // region's uniform volume (0.3 * 1/3 = 10%) by a wide factor —
        // the whole point of the cross-entropy step.
        let report = Falsifier::new(FalsifyConfig {
            rounds: 4,
            samples_per_round: 24,
            ..Default::default()
        })
        .unwrap()
        .falsify(&Synthetic::new(), &specs())
        .unwrap();
        let cell = report.cell("seeded").unwrap();
        let share = cell.violations as f64 / report.evaluations as f64;
        assert!(
            share > 0.3,
            "refinement should concentrate on the region, got {share:.2}"
        );
    }

    #[test]
    fn empty_spec_list_is_rejected() {
        let driver = Falsifier::new(FalsifyConfig::default()).unwrap();
        assert!(driver.falsify(&Synthetic::new(), &[]).is_err());
    }
}
