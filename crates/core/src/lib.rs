#![forbid(unsafe_code)]
//! # safex-core
//!
//! The SAFEXPLAIN contribution proper: *"a flexible approach to allow the
//! certification — hence adoption — of DL-based solutions in CAIS"*. This
//! crate composes the four pillars into one deployable, certifiable
//! inference pipeline:
//!
//! * a DL model from `safex-nn` (float or quantised),
//! * runtime supervisors from `safex-supervision`,
//! * a safety pattern from `safex-patterns` matched to the target SIL,
//! * evidence recording into a `safex-trace` chain,
//! * and a certification report that binds model digests, monitor
//!   calibration, pattern behaviour statistics, timing bounds, and
//!   verification-objective coverage (`safex-fusa`) into one artefact.
//!
//! [`assemble`] provides the "flexible approach" entry point: given a
//! target SIL, trained model(s), and calibration data, it assembles the
//! recommended architecture ([`safex_patterns::Sil::recommended_pattern`])
//! with fitted monitors.
//!
//! ## Example
//!
//! ```
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! use safex_core::pipeline::PipelineBuilder;
//! use safex_patterns::channel::ConstantChannel;
//! use safex_patterns::pattern::Bare;
//! use safex_patterns::Sil;
//!
//! let pattern = Bare::new(ConstantChannel::new("stub", 0));
//! let mut pipeline = PipelineBuilder::new("demo", Sil::Sil1)
//!     .pattern(pattern)
//!     .allow_under_provisioned()
//!     .evidence("demo-campaign")
//!     .build()?;
//! let outcome = pipeline.decide(&[0.0, 1.0])?;
//! assert!(outcome.action.is_proceed());
//! assert!(pipeline.verify_evidence().is_ok());
//! # Ok(())
//! # }
//! ```

pub mod assemble;
pub mod campaign;
pub mod error;
pub mod health;
pub mod pipeline;
pub mod report;

pub use campaign::{
    CampaignConfig, CampaignPattern, CampaignReport, CellReport, FaultClass, InputSupervision,
};
pub use error::CoreError;
pub use health::{
    HealthConfig, HealthMonitor, HealthState, HealthVerdict, LadderState, Transition,
};
pub use pipeline::{PipelineBuilder, SafePipeline};
pub use safex_nn::pool::chunk_lens;
