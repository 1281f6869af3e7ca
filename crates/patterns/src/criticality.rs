//! Criticality levels and pattern recommendations.
//!
//! The paper's pillar 2 promises patterns "*with varying criticality and
//! fault tolerance requirements*". This module encodes the mapping: a
//! generic four-level safety-integrity scale (covering ASIL A-D, SIL 1-4,
//! DAL terminology differences) and, per level, the minimum pattern
//! sophistication the architecture should deploy.

use std::fmt;

/// A generic safety-integrity level (1 = lowest, 4 = highest).
///
/// Maps onto ISO 26262 ASIL A-D, IEC 61508 SIL 1-4, and (roughly) DO-178C
/// DAL D-A.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Sil {
    /// Lowest integrity (ASIL A / SIL 1).
    Sil1,
    /// ASIL B / SIL 2.
    Sil2,
    /// ASIL C / SIL 3.
    Sil3,
    /// Highest integrity (ASIL D / SIL 4).
    Sil4,
}

impl Sil {
    /// All levels in ascending order.
    pub const ALL: [Sil; 4] = [Sil::Sil1, Sil::Sil2, Sil::Sil3, Sil::Sil4];

    /// Numeric level, 1-4.
    pub fn level(self) -> u8 {
        match self {
            Sil::Sil1 => 1,
            Sil::Sil2 => 2,
            Sil::Sil3 => 3,
            Sil::Sil4 => 4,
        }
    }

    /// Parses a numeric level.
    ///
    /// Returns `None` outside 1-4.
    pub fn from_level(level: u8) -> Option<Sil> {
        match level {
            1 => Some(Sil::Sil1),
            2 => Some(Sil::Sil2),
            3 => Some(Sil::Sil3),
            4 => Some(Sil::Sil4),
            _ => None,
        }
    }

    /// The minimum pattern sophistication recommended at this level.
    pub fn recommended_pattern(self) -> PatternKind {
        match self {
            Sil::Sil1 => PatternKind::MonitorActuator,
            Sil::Sil2 => PatternKind::Simplex,
            Sil::Sil3 => PatternKind::SafetyBag,
            Sil::Sil4 => PatternKind::TwoOutOfThree,
        }
    }
}

impl fmt::Display for Sil {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SIL{}", self.level())
    }
}

/// The pattern families this crate provides, in ascending sophistication.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[non_exhaustive]
pub enum PatternKind {
    /// No protection.
    Bare,
    /// Output-envelope monitor.
    MonitorActuator,
    /// Supervisor-gated channel with fallback.
    Simplex,
    /// Rule-based veto over DL proposals.
    SafetyBag,
    /// Primary + acceptance test + diverse alternate (Randell).
    RecoveryBlock,
    /// Triple diverse redundancy.
    TwoOutOfThree,
    /// Degraded-mode ladder.
    Cascade,
}

impl PatternKind {
    /// Stable name matching `SafetyPattern::name` of the corresponding
    /// implementation.
    pub fn name(self) -> &'static str {
        match self {
            PatternKind::Bare => "bare",
            PatternKind::MonitorActuator => "monitor_actuator",
            PatternKind::Simplex => "simplex",
            PatternKind::SafetyBag => "safety_bag",
            PatternKind::RecoveryBlock => "recovery_block",
            PatternKind::TwoOutOfThree => "two_out_of_three",
            PatternKind::Cascade => "cascade",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_round_trip() {
        for sil in Sil::ALL {
            assert_eq!(Sil::from_level(sil.level()), Some(sil));
        }
        assert_eq!(Sil::from_level(0), None);
        assert_eq!(Sil::from_level(5), None);
    }

    #[test]
    fn ordering_and_display() {
        assert!(Sil::Sil1 < Sil::Sil4);
        assert_eq!(Sil::Sil3.to_string(), "SIL3");
    }

    #[test]
    fn recommendations_escalate() {
        let kinds: Vec<PatternKind> = Sil::ALL.iter().map(|s| s.recommended_pattern()).collect();
        for pair in kinds.windows(2) {
            assert!(pair[0] <= pair[1], "recommendations must not de-escalate");
        }
        assert_eq!(Sil::Sil4.recommended_pattern(), PatternKind::TwoOutOfThree);
    }

    #[test]
    fn kind_names_and_costs() {
        assert_eq!(PatternKind::Simplex.name(), "simplex");
    }
}
