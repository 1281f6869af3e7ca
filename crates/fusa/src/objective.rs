//! Verification objectives: the pass/fail evidence ledger.
//!
//! FUSA practice verifies every requirement through one or more
//! *objectives*, each discharged by a method (test, analysis, simulation,
//! review) and backed by evidence. This module tracks objective status
//! and answers the coverage questions an assessor asks ("are all SIL-4
//! requirements fully verified?").

use crate::error::FusaError;
use crate::requirement::{Registry, RequirementId};

/// How an objective is discharged.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum VerificationMethod {
    /// Requirement-based testing.
    Test,
    /// Static/mathematical analysis (e.g. the MBPTA pWCET bound).
    Analysis,
    /// Simulation campaign (e.g. fault injection).
    Simulation,
    /// Manual review/inspection.
    Review,
}

/// Objective status.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ObjectiveStatus {
    /// Not yet attempted.
    Pending,
    /// Discharged; the string references the evidence (e.g. an evidence
    /// chain record index or report id).
    Passed(String),
    /// Attempted and failed; the string explains.
    Failed(String),
}

/// A stable handle to an objective.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ObjectiveId(usize);

/// One verification objective.
#[derive(Debug, Clone, PartialEq)]
pub struct Objective {
    /// External identifier.
    pub tag: String,
    /// The requirement this objective verifies.
    pub requirement: RequirementId,
    /// Discharge method.
    pub method: VerificationMethod,
    /// Description of what must be shown.
    pub description: String,
    /// Current status.
    pub status: ObjectiveStatus,
}

/// The objective ledger for one requirement registry.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ObjectiveLedger {
    objectives: Vec<Objective>,
}

impl ObjectiveLedger {
    /// Creates an empty ledger.
    pub fn new() -> Self {
        ObjectiveLedger::default()
    }

    /// Adds a pending objective.
    ///
    /// # Errors
    ///
    /// Returns [`FusaError::DuplicateId`] for a reused tag or
    /// [`FusaError::UnknownId`] if the requirement does not exist in
    /// `registry`.
    pub fn add(
        &mut self,
        registry: &Registry,
        tag: impl Into<String>,
        requirement: RequirementId,
        method: VerificationMethod,
        description: impl Into<String>,
    ) -> Result<ObjectiveId, FusaError> {
        let tag = tag.into();
        if self.objectives.iter().any(|o| o.tag == tag) {
            return Err(FusaError::DuplicateId(tag));
        }
        if registry.get(requirement).is_none() {
            return Err(FusaError::UnknownId("requirement".into()));
        }
        self.objectives.push(Objective {
            tag,
            requirement,
            method,
            description: description.into(),
            status: ObjectiveStatus::Pending,
        });
        Ok(ObjectiveId(self.objectives.len() - 1))
    }

    /// Marks an objective passed with an evidence reference.
    ///
    /// # Errors
    ///
    /// Returns [`FusaError::UnknownId`] for a bad id.
    pub fn pass(&mut self, id: ObjectiveId, evidence: impl Into<String>) -> Result<(), FusaError> {
        let o = self
            .objectives
            .get_mut(id.0)
            .ok_or_else(|| FusaError::UnknownId(format!("objective #{}", id.0)))?;
        o.status = ObjectiveStatus::Passed(evidence.into());
        Ok(())
    }

    /// Marks an objective failed with a reason.
    ///
    /// # Errors
    ///
    /// Returns [`FusaError::UnknownId`] for a bad id.
    pub fn fail(&mut self, id: ObjectiveId, reason: impl Into<String>) -> Result<(), FusaError> {
        let o = self
            .objectives
            .get_mut(id.0)
            .ok_or_else(|| FusaError::UnknownId(format!("objective #{}", id.0)))?;
        o.status = ObjectiveStatus::Failed(reason.into());
        Ok(())
    }

    /// Looks up an objective.
    pub fn get(&self, id: ObjectiveId) -> Option<&Objective> {
        self.objectives.get(id.0)
    }

    /// All objectives.
    pub fn iter(&self) -> impl Iterator<Item = (ObjectiveId, &Objective)> {
        self.objectives
            .iter()
            .enumerate()
            .map(|(i, o)| (ObjectiveId(i), o))
    }

    /// Number of objectives.
    pub fn len(&self) -> usize {
        self.objectives.len()
    }

    /// Whether the ledger is empty.
    pub fn is_empty(&self) -> bool {
        self.objectives.is_empty()
    }

    /// Objectives attached to a requirement.
    pub fn for_requirement(&self, req: RequirementId) -> Vec<&Objective> {
        self.objectives
            .iter()
            .filter(|o| o.requirement == req)
            .collect()
    }

    /// Whether a requirement is fully verified: it has at least one
    /// objective and every attached objective passed.
    pub fn requirement_verified(&self, req: RequirementId) -> bool {
        let objs = self.for_requirement(req);
        !objs.is_empty()
            && objs
                .iter()
                .all(|o| matches!(o.status, ObjectiveStatus::Passed(_)))
    }

    /// Fraction of requirements in the registry that are fully verified
    /// (0 for an empty registry).
    pub fn coverage(&self, registry: &Registry) -> f64 {
        if registry.is_empty() {
            return 0.0;
        }
        let verified = registry
            .iter()
            .filter(|(id, _)| self.requirement_verified(*id))
            .count();
        verified as f64 / registry.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::requirement::RequirementKind;
    use safex_patterns::Sil;

    fn setup() -> (Registry, RequirementId, RequirementId) {
        let mut reg = Registry::new();
        let a = reg
            .add("R1", "detect", Sil::Sil3, RequirementKind::Functional, None)
            .unwrap();
        let b = reg
            .add("R2", "deadline", Sil::Sil3, RequirementKind::Timing, None)
            .unwrap();
        (reg, a, b)
    }

    #[test]
    fn lifecycle_and_coverage() {
        let (reg, a, b) = setup();
        let mut ledger = ObjectiveLedger::new();
        let o1 = ledger
            .add(&reg, "O1", a, VerificationMethod::Test, "accuracy >= 90%")
            .unwrap();
        let o2 = ledger
            .add(
                &reg,
                "O2",
                a,
                VerificationMethod::Simulation,
                "fault coverage",
            )
            .unwrap();
        let o3 = ledger
            .add(
                &reg,
                "O3",
                b,
                VerificationMethod::Analysis,
                "pWCET <= budget",
            )
            .unwrap();
        assert_eq!(ledger.coverage(&reg), 0.0);
        assert!(!ledger.requirement_verified(a));

        ledger.pass(o1, "record-12").unwrap();
        assert!(!ledger.requirement_verified(a), "one of two passed");
        ledger.pass(o2, "record-13").unwrap();
        assert!(ledger.requirement_verified(a));
        assert_eq!(ledger.coverage(&reg), 0.5);

        ledger.fail(o3, "bound exceeded").unwrap();
        assert!(!ledger.requirement_verified(b));
    }

    #[test]
    fn requirement_without_objectives_not_verified() {
        let (reg, a, _) = setup();
        let ledger = ObjectiveLedger::new();
        assert!(!ledger.requirement_verified(a));
        assert_eq!(ledger.coverage(&reg), 0.0);
        assert!(ledger.is_empty());
    }

    #[test]
    fn validation() {
        let (reg, a, _) = setup();
        let mut ledger = ObjectiveLedger::new();
        ledger
            .add(&reg, "O1", a, VerificationMethod::Test, "x")
            .unwrap();
        assert!(matches!(
            ledger.add(&reg, "O1", a, VerificationMethod::Test, "y"),
            Err(FusaError::DuplicateId(_))
        ));
        assert!(ledger.pass(ObjectiveId(9), "e").is_err());
        assert!(ledger.fail(ObjectiveId(9), "e").is_err());
        // Requirement from another registry (out of range id).
        let empty = Registry::new();
        assert!(ledger
            .add(&empty, "O2", a, VerificationMethod::Review, "z")
            .is_err());
    }

    #[test]
    fn per_requirement_query() {
        let (reg, a, b) = setup();
        let mut ledger = ObjectiveLedger::new();
        ledger
            .add(&reg, "O1", a, VerificationMethod::Test, "")
            .unwrap();
        ledger
            .add(&reg, "O2", b, VerificationMethod::Test, "")
            .unwrap();
        ledger
            .add(&reg, "O3", a, VerificationMethod::Review, "")
            .unwrap();
        assert_eq!(ledger.for_requirement(a).len(), 2);
        assert_eq!(ledger.for_requirement(b).len(), 1);
        assert_eq!(ledger.len(), 3);
    }

    #[test]
    fn empty_registry_coverage_zero() {
        let ledger = ObjectiveLedger::new();
        assert_eq!(ledger.coverage(&Registry::new()), 0.0);
    }
}
