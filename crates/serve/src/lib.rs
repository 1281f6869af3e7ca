#![forbid(unsafe_code)]
//! # safex-serve
//!
//! A deterministic, deadline-aware, multi-model fleet inference server
//! for the SAFEXPLAIN runtime: the deployment shell around the hardened
//! engines (`safex-nn`) and safe pipelines (`safex-core`).
//!
//! Mainstream inference servers optimise tail latency under a best-effort
//! contract: under overload they drop, under faults they serve whatever
//! the accelerator returns. A safety-critical deployment inverts both
//! defaults:
//!
//! * **No silent drops.** Admission is a bounded queue with typed
//!   rejection ([`ShedReason`]): every request that enters the system
//!   leaves it with exactly one [`Response`], and anything short of a
//!   completed in-deadline result says *why* — and, since the fleet
//!   redesign, names the [`ModelId`] it happened on.
//! * **Criticality-ordered sacrifice, bounded starvation.** Overload
//!   displaces strictly lower-[`Tier`] work first, but batch selection
//!   adds [`FairnessPolicy`] aging and reserved per-tier slots so a
//!   high-tier flood cannot starve best-effort work forever.
//! * **No stale results.** A result that misses its deadline is
//!   discarded and reported as [`Outcome::Timeout`] — late answers are
//!   wrong answers in a control loop.
//! * **Per-model health ladders.** A [`Fleet`] registers independently
//!   hardened backends; each member owns its own
//!   [`safex_core::health::HealthMonitor`]. A struck member walks
//!   Nominal → Degraded → SafeStop and sheds its own tiers while the
//!   rest of the fleet keeps serving; a [`RoutingPolicy`] (pure in the
//!   decision index) places each request on an eligible member.
//! * **Verified-result cache, on evidence.** Repeated inputs can be
//!   answered from a [`CacheConfig`]-bounded cache of *verified* results
//!   (unflagged, uncorrected, released at Nominal), each hit emitting a
//!   `cache_hit` evidence record — a cached answer is as auditable as a
//!   fresh one.
//! * **Bit-reproducible replay.** The clock is simulated and driven by
//!   recorded [`ArrivalTrace`]s, so batch formation, routing, and
//!   therefore the entire [`ServeReport`] is a pure function of
//!   `(trace, config, models)`, byte-identical for any pool worker
//!   count. Load tests double as certification evidence.
//!
//! ## Quick start (single model)
//!
//! ```
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! use safex_nn::model::ModelBuilder;
//! use safex_nn::{HardenConfig, HardenedEngine};
//! use safex_serve::{Fleet, PoolBackend, Server, ServerConfig, TrafficConfig};
//! use safex_tensor::{DetRng, Shape};
//!
//! let mut rng = DetRng::new(7);
//! let model = ModelBuilder::new(Shape::vector(4))
//!     .dense(8, &mut rng)?
//!     .relu()
//!     .dense(3, &mut rng)?
//!     .softmax()
//!     .build()?;
//! let inputs: Vec<Vec<f32>> = (0..16)
//!     .map(|_| (0..4).map(|_| rng.next_f32()).collect())
//!     .collect();
//! let mut engine = HardenedEngine::new(model, HardenConfig::default())?;
//! engine.calibrate(&inputs)?;
//!
//! let trace = TrafficConfig::default().synthesize(&inputs)?;
//! let backend = PoolBackend::new(&engine, 2)?;
//! let mut server = Server::new(ServerConfig::default(), Fleet::single(backend))?;
//! let report = server.run_trace(&trace)?;
//! assert_eq!(report.responses.len(), trace.len());
//! # Ok(())
//! # }
//! ```
//!
//! ## Fleet serving
//!
//! ```
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! use safex_nn::model::ModelBuilder;
//! use safex_nn::{HardenConfig, HardenedEngine};
//! use safex_serve::{CacheConfig, Fleet, PoolBackend, Server, ServerConfig, TrafficConfig};
//! use safex_tensor::{DetRng, Shape};
//!
//! let mut rng = DetRng::new(7);
//! let model = ModelBuilder::new(Shape::vector(4))
//!     .dense(8, &mut rng)?
//!     .relu()
//!     .dense(3, &mut rng)?
//!     .softmax()
//!     .build()?;
//! let inputs: Vec<Vec<f32>> = (0..16)
//!     .map(|_| (0..4).map(|_| rng.next_f32()).collect())
//!     .collect();
//! let mut engine = HardenedEngine::new(model, HardenConfig::default())?;
//! engine.calibrate(&inputs)?;
//!
//! let fleet = Fleet::builder()
//!     .register("alpha", PoolBackend::new(&engine, 2)?)
//!     .register("beta", PoolBackend::new(&engine, 2)?)
//!     .build()?;
//! let config = ServerConfig::default().with_cache(CacheConfig::enabled(256));
//! let mut server = Server::new(config, fleet)?;
//! let trace = TrafficConfig::default().synthesize(&inputs)?;
//! let report = server.run_trace(&trace)?;
//! assert_eq!(report.models.len(), 2);
//! assert!(report.snapshot.cache_lookups > 0);
//! # Ok(())
//! # }
//! ```

pub mod backend;
pub mod batcher;
pub mod cache;
pub mod clock;
pub mod config;
pub mod error;
pub mod fleet;
pub mod metrics;
pub mod queue;
pub mod request;
pub mod route;
pub mod server;
pub mod snapshot;
pub mod soak;
pub mod traffic;

pub use backend::{Backend, BatchVerdict, PipelineBackend, PoolBackend};
pub use batcher::{BatchPolicy, ServiceModel};
pub use cache::{CacheConfig, CachedResult, ResultCache};
pub use clock::{ClockSource, SimClock, WallClock};
pub use config::ServerConfig;
pub use error::ServeError;
pub use fleet::{Fleet, FleetBuilder, FleetMember};
pub use metrics::{LatencyStats, Metrics, MetricsSnapshot, ModelUsage};
pub use queue::{Admission, AdmissionQueue, FairnessPolicy, Pending};
pub use request::{ModelId, Outcome, Request, Response, ShedReason, Tier};
pub use route::{
    CandidateView, RoundRobin, RouteView, RoutingKind, RoutingPolicy, TierLeastLoaded,
};
pub use server::{InFlightBatch, ModelSummary, ServeReport, Server, ServiceTransition};
pub use snapshot::{trace_digest, CacheEntrySnapshot, ChainEntry, RunSnapshot, ServerSnapshot};
pub use soak::{
    OpsPlan, SoakOutcome, SoakStats, StallOp, SwapEvent, SwapOp, WatchStage, WatchdogConfig,
    WatchdogState,
};
pub use traffic::{Arrival, ArrivalTrace, TrafficConfig, TrafficShape};
