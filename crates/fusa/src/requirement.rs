//! Safety requirements with SIL allocation and decomposition.

use safex_patterns::Sil;

use crate::error::FusaError;

/// The nature of a requirement.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum RequirementKind {
    /// What the function must do.
    Functional,
    /// Integrity/robustness constraint (fault tolerance, monitoring).
    Integrity,
    /// Timing constraint (deadline, pWCET budget).
    Timing,
    /// Runtime monitoring obligation.
    Monitoring,
}

/// A stable handle to a requirement inside a [`Registry`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RequirementId(usize);

/// One safety requirement.
#[derive(Debug, Clone, PartialEq)]
pub struct Requirement {
    /// External identifier (e.g. "REQ-PER-012").
    pub tag: String,
    /// Requirement text.
    pub text: String,
    /// Allocated integrity level.
    pub sil: Sil,
    /// Kind.
    pub kind: RequirementKind,
    /// Parent requirement, if this one refines/decomposes another.
    pub parent: Option<RequirementId>,
}

/// A registry of requirements forming a decomposition forest.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Registry {
    requirements: Vec<Requirement>,
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Adds a requirement.
    ///
    /// # Errors
    ///
    /// Returns [`FusaError::DuplicateId`] for a reused tag or
    /// [`FusaError::UnknownId`] for a dangling parent.
    pub fn add(
        &mut self,
        tag: impl Into<String>,
        text: impl Into<String>,
        sil: Sil,
        kind: RequirementKind,
        parent: Option<RequirementId>,
    ) -> Result<RequirementId, FusaError> {
        let tag = tag.into();
        if self.requirements.iter().any(|r| r.tag == tag) {
            return Err(FusaError::DuplicateId(tag));
        }
        if let Some(p) = parent {
            if p.0 >= self.requirements.len() {
                return Err(FusaError::UnknownId(format!("parent #{}", p.0)));
            }
        }
        self.requirements.push(Requirement {
            tag,
            text: text.into(),
            sil,
            kind,
            parent,
        });
        Ok(RequirementId(self.requirements.len() - 1))
    }

    /// Looks up a requirement.
    pub fn get(&self, id: RequirementId) -> Option<&Requirement> {
        self.requirements.get(id.0)
    }

    /// All requirements with their ids.
    pub fn iter(&self) -> impl Iterator<Item = (RequirementId, &Requirement)> {
        self.requirements
            .iter()
            .enumerate()
            .map(|(i, r)| (RequirementId(i), r))
    }

    /// Number of requirements.
    pub fn len(&self) -> usize {
        self.requirements.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.requirements.is_empty()
    }

    /// Direct children of a requirement.
    pub fn children(&self, id: RequirementId) -> Vec<RequirementId> {
        self.requirements
            .iter()
            .enumerate()
            .filter(|(_, r)| r.parent == Some(id))
            .map(|(i, _)| RequirementId(i))
            .collect()
    }

    /// Validates a requirement's decomposition per the integrity algebra.
    ///
    /// Rule (modelled on ISO 26262-9 ASIL decomposition): the children's
    /// levels must *sum* to at least the parent's level (SIL treated as
    /// 1-4 additive with independence assumed), and a parent with
    /// children must have at least two of them (decomposing into one
    /// part is just refinement and keeps the full SIL — flagged as an
    /// error here to force the distinction).
    ///
    /// Requirements without children validate trivially.
    ///
    /// # Errors
    ///
    /// Returns [`FusaError::UnknownId`] for a bad id or
    /// [`FusaError::BadDecomposition`] when the rule is violated.
    pub fn validate_decomposition(&self, id: RequirementId) -> Result<(), FusaError> {
        let parent = self
            .get(id)
            .ok_or_else(|| FusaError::UnknownId(format!("#{}", id.0)))?;
        let children = self.children(id);
        if children.is_empty() {
            return Ok(());
        }
        if children.len() == 1 {
            let child = self.get(children[0]).expect("child exists");
            if child.sil < parent.sil {
                return Err(FusaError::BadDecomposition(format!(
                    "single refinement {} may not lower SIL ({} -> {})",
                    child.tag, parent.sil, child.sil
                )));
            }
            return Ok(());
        }
        let sum: u8 = children
            .iter()
            .map(|&c| self.get(c).expect("child exists").sil.level())
            .sum();
        if sum < parent.sil.level() {
            return Err(FusaError::BadDecomposition(format!(
                "children of {} sum to SIL {sum} < parent {}",
                parent.tag,
                parent.sil.level()
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_lookup() {
        let mut reg = Registry::new();
        let id = reg
            .add(
                "R1",
                "do the thing",
                Sil::Sil2,
                RequirementKind::Functional,
                None,
            )
            .unwrap();
        assert_eq!(reg.get(id).unwrap().tag, "R1");
        assert_eq!(reg.len(), 1);
    }

    #[test]
    fn duplicate_tag_rejected() {
        let mut reg = Registry::new();
        reg.add("R1", "a", Sil::Sil1, RequirementKind::Functional, None)
            .unwrap();
        assert_eq!(
            reg.add("R1", "b", Sil::Sil1, RequirementKind::Functional, None),
            Err(FusaError::DuplicateId("R1".into()))
        );
    }

    #[test]
    fn dangling_parent_rejected() {
        let mut reg = Registry::new();
        assert!(matches!(
            reg.add(
                "R1",
                "a",
                Sil::Sil1,
                RequirementKind::Functional,
                Some(RequirementId(5))
            ),
            Err(FusaError::UnknownId(_))
        ));
    }

    #[test]
    fn valid_decomposition_passes() {
        let mut reg = Registry::new();
        let top = reg
            .add("R1", "top", Sil::Sil4, RequirementKind::Functional, None)
            .unwrap();
        reg.add(
            "R1.1",
            "dl",
            Sil::Sil2,
            RequirementKind::Functional,
            Some(top),
        )
        .unwrap();
        reg.add(
            "R1.2",
            "monitor",
            Sil::Sil2,
            RequirementKind::Monitoring,
            Some(top),
        )
        .unwrap();
        reg.validate_decomposition(top).unwrap();
    }

    #[test]
    fn weak_decomposition_rejected() {
        let mut reg = Registry::new();
        let top = reg
            .add("R1", "top", Sil::Sil4, RequirementKind::Functional, None)
            .unwrap();
        reg.add(
            "R1.1",
            "a",
            Sil::Sil1,
            RequirementKind::Functional,
            Some(top),
        )
        .unwrap();
        reg.add(
            "R1.2",
            "b",
            Sil::Sil1,
            RequirementKind::Functional,
            Some(top),
        )
        .unwrap();
        assert!(matches!(
            reg.validate_decomposition(top),
            Err(FusaError::BadDecomposition(_))
        ));
    }

    #[test]
    fn single_child_refinement_keeps_sil() {
        let mut reg = Registry::new();
        let top = reg
            .add("R1", "top", Sil::Sil3, RequirementKind::Functional, None)
            .unwrap();
        reg.add(
            "R1.1",
            "refined",
            Sil::Sil3,
            RequirementKind::Functional,
            Some(top),
        )
        .unwrap();
        reg.validate_decomposition(top).unwrap();

        let mut reg2 = Registry::new();
        let top2 = reg2
            .add("R1", "top", Sil::Sil3, RequirementKind::Functional, None)
            .unwrap();
        reg2.add(
            "R1.1",
            "weak",
            Sil::Sil1,
            RequirementKind::Functional,
            Some(top2),
        )
        .unwrap();
        assert!(reg2.validate_decomposition(top2).is_err());
    }

    #[test]
    fn leaf_validates_trivially() {
        let mut reg = Registry::new();
        let id = reg
            .add("R1", "leaf", Sil::Sil4, RequirementKind::Timing, None)
            .unwrap();
        reg.validate_decomposition(id).unwrap();
        assert!(reg.validate_decomposition(RequirementId(9)).is_err());
    }

    #[test]
    fn children_query() {
        let mut reg = Registry::new();
        let top = reg
            .add("R1", "", Sil::Sil2, RequirementKind::Functional, None)
            .unwrap();
        let c1 = reg
            .add(
                "R1.1",
                "",
                Sil::Sil1,
                RequirementKind::Functional,
                Some(top),
            )
            .unwrap();
        let c2 = reg
            .add(
                "R1.2",
                "",
                Sil::Sil1,
                RequirementKind::Functional,
                Some(top),
            )
            .unwrap();
        assert_eq!(reg.children(top), vec![c1, c2]);
        assert!(reg.children(c1).is_empty());
    }
}
