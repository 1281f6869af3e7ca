//! The fleet: a registry of named, independently hardened backends.
//!
//! One [`Fleet`] member = one model deployment: a hardened backend plus
//! (once assembled into a [`crate::server::Server`]) its *own*
//! [`safex_core::health::HealthMonitor`] ladder. Keeping the ladders
//! per-member is the point of fleet serving: a struck model walks its
//! own Nominal → Degraded → SafeStop and sheds its own tiers, while the
//! rest of the fleet keeps serving — the fleet as a whole only fails
//! when every member has.
//!
//! The registry is deliberately dumb: names and backends, dense
//! [`ModelId`]s in registration order. Health, load, routing, and
//! metrics state all live in the server, which owns the simulation
//! clock those states are a function of.

use crate::backend::Backend;
use crate::error::ServeError;
use crate::request::ModelId;

/// One registered model deployment.
#[derive(Debug, Clone)]
pub struct FleetMember<B> {
    name: String,
    backend: B,
}

impl<B> FleetMember<B> {
    /// The member's human-readable name (unique within the fleet).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The member's backend.
    pub fn backend(&self) -> &B {
        &self.backend
    }

    /// The member's backend, mutably (fault-injection harnesses strike
    /// through this).
    pub fn backend_mut(&mut self) -> &mut B {
        &mut self.backend
    }
}

/// A non-empty, ordered registry of model deployments.
#[derive(Debug, Clone)]
pub struct Fleet<B: Backend> {
    members: Vec<FleetMember<B>>,
}

impl<B: Backend> Fleet<B> {
    /// Starts an empty registration.
    pub fn builder() -> FleetBuilder<B> {
        FleetBuilder {
            members: Vec::new(),
        }
    }

    /// A one-member fleet named `"primary"` — the single-model
    /// deployment shape, passed to [`crate::server::Server::new`].
    pub fn single(backend: B) -> Self {
        Fleet {
            members: vec![FleetMember {
                name: "primary".into(),
                backend,
            }],
        }
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Fleets are never empty (the builder enforces it), but clippy
    /// wants the pair.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// All member ids, in registration order.
    pub fn ids(&self) -> impl Iterator<Item = ModelId> + '_ {
        (0..self.members.len()).map(|i| ModelId::new(i as u16))
    }

    /// The members, in registration order.
    pub fn members(&self) -> &[FleetMember<B>] {
        &self.members
    }

    /// One member by id.
    pub fn member(&self, id: ModelId) -> Option<&FleetMember<B>> {
        self.members.get(id.index())
    }

    /// One member's backend, mutably — the deterministic strike surface
    /// for fault-injection hooks (`run_trace_with` hands the hook
    /// `&mut Fleet<B>` so it can corrupt exactly one model mid-traffic).
    pub fn backend_mut(&mut self, id: ModelId) -> Option<&mut B> {
        self.members.get_mut(id.index()).map(|m| &mut m.backend)
    }

    /// Atomically replaces one member's backend, returning the old one.
    /// This is the commit step of a hot model swap: the member keeps its
    /// name and id, only the serving weights change.
    pub fn replace_backend(&mut self, id: ModelId, backend: B) -> Option<B> {
        self.members
            .get_mut(id.index())
            .map(|m| std::mem::replace(&mut m.backend, backend))
    }
}

/// Builds a [`Fleet`] member by member.
#[derive(Debug)]
pub struct FleetBuilder<B> {
    members: Vec<FleetMember<B>>,
}

impl<B: Backend> FleetBuilder<B> {
    /// Registers a named member; ids are assigned densely in
    /// registration order.
    #[must_use]
    pub fn register(mut self, name: impl Into<String>, backend: B) -> Self {
        self.members.push(FleetMember {
            name: name.into(),
            backend,
        });
        self
    }

    /// Finishes registration.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::BadConfig`] for an empty fleet or more
    /// members than [`ModelId`] can index, and
    /// [`ServeError::DuplicateMember`] when two members claim the same
    /// name — duplicates would alias one [`ModelId`] across two
    /// deployments, so they are rejected rather than last-write-wins.
    pub fn build(self) -> Result<Fleet<B>, ServeError> {
        if self.members.is_empty() {
            return Err(ServeError::BadConfig(
                "a fleet needs at least one member".into(),
            ));
        }
        if self.members.len() > u16::MAX as usize {
            return Err(ServeError::BadConfig(format!(
                "fleet of {} members exceeds the ModelId index space",
                self.members.len()
            )));
        }
        for (i, m) in self.members.iter().enumerate() {
            if self.members[..i].iter().any(|p| p.name == m.name) {
                return Err(ServeError::DuplicateMember(m.name.clone()));
            }
        }
        Ok(Fleet {
            members: self.members,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::BatchVerdict;

    /// A trivial test backend.
    #[derive(Debug)]
    struct Fixed;

    impl Backend for Fixed {
        fn name(&self) -> &'static str {
            "fixed"
        }

        fn serve(&mut self, inputs: &[&[f32]]) -> Result<Vec<BatchVerdict>, ServeError> {
            Ok(inputs
                .iter()
                .map(|_| BatchVerdict::Ok {
                    class: 0,
                    confidence: 1.0,
                    flagged: false,
                    corrected: false,
                })
                .collect())
        }
    }

    #[test]
    fn registration_assigns_dense_ids() {
        let fleet = Fleet::builder()
            .register("alpha", Fixed)
            .register("beta", Fixed)
            .register("gamma", Fixed)
            .build()
            .unwrap();
        assert_eq!(fleet.len(), 3);
        assert!(!fleet.is_empty());
        let ids: Vec<ModelId> = fleet.ids().collect();
        assert_eq!(ids, vec![ModelId::new(0), ModelId::new(1), ModelId::new(2)]);
        assert_eq!(fleet.member(ModelId::new(1)).unwrap().name(), "beta");
        assert!(fleet.member(ModelId::new(3)).is_none());
    }

    #[test]
    fn empty_and_duplicate_fleets_are_rejected() {
        assert!(Fleet::<Fixed>::builder().build().is_err());
        let dup = Fleet::builder()
            .register("alpha", Fixed)
            .register("alpha", Fixed)
            .build();
        assert!(
            matches!(dup, Err(ServeError::DuplicateMember(ref name)) if name == "alpha"),
            "duplicate names must fail with the typed error, got {dup:?}"
        );
    }

    #[test]
    fn replace_backend_swaps_in_place() {
        let mut fleet = Fleet::builder()
            .register("alpha", Fixed)
            .register("beta", Fixed)
            .build()
            .unwrap();
        assert!(fleet.replace_backend(ModelId::new(1), Fixed).is_some());
        assert!(fleet.replace_backend(ModelId::new(9), Fixed).is_none());
        assert_eq!(fleet.len(), 2);
        assert_eq!(fleet.members()[1].name(), "beta");
    }

    #[test]
    fn single_wraps_one_primary_member() {
        let mut fleet = Fleet::single(Fixed);
        assert_eq!(fleet.len(), 1);
        assert_eq!(fleet.members()[0].name(), "primary");
        assert!(fleet.backend_mut(ModelId::new(0)).is_some());
        assert!(fleet.backend_mut(ModelId::new(1)).is_none());
    }
}
