#![forbid(unsafe_code)]
//! # safex-nn
//!
//! A FUSA-oriented deep learning library: the implementation of pillar 3 of
//! the SAFEXPLAIN paper, *"DL library implementations that adhere to safety
//! requirements"*.
//!
//! The library deliberately inverts the priorities of mainstream DL
//! frameworks. Instead of training throughput it optimises for properties a
//! safety assessor cares about:
//!
//! * **Deterministic inference.** The [`engine::Engine`] executes a frozen
//!   [`model::Model`] with a fixed operation order and `f64`-accumulated
//!   kernels from [`safex_tensor::ops`]; repeated runs produce bit-identical
//!   outputs. The same engine over a quantised [`quant::QModel`]
//!   ([`QEngine`], `Engine<QModel>`) goes further: Q16.16 fixed-point
//!   arithmetic is bit-exact across *platforms*, not just runs. One
//!   generic engine, pool ([`EnginePool`]) and hardened engine
//!   ([`HardenedEngine`]) serve both formats through one layer loop.
//! * **Static allocation.** Engines pre-allocate every activation buffer at
//!   construction; a steady-state `infer` or `classify` performs no heap
//!   allocation, pinned at exactly zero by `tests/alloc_budget.rs` for
//!   every engine in both formats.
//! * **Explicit validation.** Model construction validates every layer's
//!   shape against its predecessor and returns [`NnError`] on mismatch;
//!   nothing panics on user data.
//! * **Auditability.** Models expose parameter counts, layer inventories
//!   and a stable content digest for the traceability chain (`safex-trace`).
//!
//! A small reference trainer ([`train`]) exists so the experiment suite can
//! produce non-trivial models without importing an external framework; it
//! is *not* part of the deployable surface.
//!
//! ## Quick start
//!
//! ```
//! # fn main() -> Result<(), safex_nn::NnError> {
//! use safex_nn::model::ModelBuilder;
//! use safex_nn::engine::Engine;
//! use safex_tensor::{DetRng, Shape};
//!
//! let mut rng = DetRng::new(1);
//! let model = ModelBuilder::new(Shape::vector(4))
//!     .dense(8, &mut rng)?
//!     .relu()
//!     .dense(3, &mut rng)?
//!     .softmax()
//!     .build()?;
//! let mut engine = Engine::new(model);
//! let probs = engine.infer(&[0.1, 0.2, 0.3, 0.4])?.to_vec();
//! assert_eq!(probs.len(), 3);
//! assert!((probs.iter().sum::<f32>() - 1.0).abs() < 1e-5);
//! # Ok(())
//! # }
//! ```

pub mod ecc;
pub mod engine;
pub mod error;
pub mod fault;
pub mod harden;
pub mod init;
pub mod io;
pub mod layer;
pub mod metrics;
pub mod model;
pub mod pool;
pub mod qharden;
pub mod quant;
pub mod train;

pub use ecc::{EccCode, EccConfig, RepairOutcome};
pub use engine::{Classification, Engine};
pub use error::NnError;
pub use fault::{
    apply_weight_flips, ActivationFault, FaultInjector, FaultPlan, Injection, InjectionLog,
    InputFault, WeightFlip,
};
pub use harden::{
    crc32, crc32_words, layer_checksum, layer_checksums, ActivationGuard, CheckedClassification,
    CrcStrategy, HardenConfig, HardenDomain, HardenedEngine, HardenedPool, HealthEvent, HealthSink,
};
pub use model::{Model, ModelBuilder};
pub use pool::{EnginePool, QEnginePool};
pub use qharden::{
    qlayer_checksum, qlayer_checksums, HardenedQEngine, HardenedQPool, QActivationGuard,
};
pub use quant::{QEngine, QModel};
