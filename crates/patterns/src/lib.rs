#![forbid(unsafe_code)]
//! # safex-patterns
//!
//! Safety design patterns for DL inference: pillar 2 of the SAFEXPLAIN
//! paper — *"alternative and increasingly sophisticated design safety
//! patterns for DL with varying criticality and fault tolerance
//! requirements"*.
//!
//! The crate provides a ladder of architectures, each trading more
//! redundancy/latency for more hazard coverage:
//!
//! | pattern | mechanism | typical criticality |
//! |---------|-----------|---------------------|
//! | [`pattern::Bare`] | DL channel alone | QM / SIL 0 (baseline) |
//! | [`pattern::MonitorActuator`] | output-envelope monitor + safe state | SIL 1 |
//! | [`pattern::Simplex`] | OOD supervisor gates DL; fallback channel on reject | SIL 2 |
//! | [`pattern::SafetyBag`] | independent rule-based checker can veto any action | SIL 3 |
//! | [`pattern::RecoveryBlock`] | acceptance test + diverse alternate channel | SIL 3 |
//! | [`pattern::TwoOutOfThree`] | 3 diverse channels, majority vote | SIL 3-4 |
//! | [`pattern::Cascade`] | degraded-mode ladder with hysteresis | system level |
//!
//! All patterns implement [`pattern::SafetyPattern`] and produce a
//! [`decision::Decision`] that records the action, the reason for any
//! fallback, and the channel-evaluation cost (consumed by experiments E3
//! and E6). [`fault::FaultyChannel`] injects controlled channel faults for
//! coverage measurements.
//!
//! ## Example
//!
//! ```
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! use safex_patterns::channel::{Channel, RuleChannel};
//! use safex_patterns::pattern::{SafetyPattern, TwoOutOfThree};
//!
//! // Three diverse "channels" (here: trivial rules for illustration).
//! let c1 = RuleChannel::new("a", |x: &[f32]| usize::from(x[0] > 0.5));
//! let c2 = RuleChannel::new("b", |x: &[f32]| usize::from(x[0] > 0.4));
//! let c3 = RuleChannel::new("c", |x: &[f32]| usize::from(x[0] > 0.6));
//! let mut voter = TwoOutOfThree::new(c1, c2, c3)?;
//! let decision = voter.decide(&[0.55])?;
//! assert!(decision.action.is_proceed());
//! # Ok(())
//! # }
//! ```

pub mod channel;
pub mod criticality;
pub mod decision;
pub mod error;
pub mod fault;
pub mod pattern;

pub use criticality::Sil;
pub use decision::{Action, Decision, FallbackReason};
pub use error::PatternError;
