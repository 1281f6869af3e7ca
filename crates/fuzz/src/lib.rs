#![forbid(unsafe_code)]
//! # safex-fuzz
//!
//! Deterministic, structure-aware fuzzing and differential testing for
//! the workspace's untrusted boundary — no external fuzzer, no network,
//! every case derived from one printed seed.
//!
//! Certification arguments about "fail closed on invalid input" are
//! only as strong as the invalid inputs that were actually tried. This
//! crate makes that set systematic, across five surfaces:
//!
//! * **Byte decoders** ([`surface`]) — [`safex_serve::ServerSnapshot`],
//!   model blobs (`safex_nn::io`), and falsifier witness files
//!   ([`safex_falsify::WitnessFile`]), each probed with typed mutations
//!   ([`mutate`]) over grammar-aware valid bases ([`gen`]): bit flips,
//!   torn writes, truncation, length-field lies, CRC-preserving
//!   corruption, splices of two valid containers. Contract: typed error
//!   or round-trip-stable acceptance — never a panic, never fail-open.
//! * **State machines** ([`state`]) — arbitrary command interleavings
//!   against the admission queue + batcher + fairness stack (checked
//!   against an independent reference model plus conservation and
//!   ordering invariants) and the health ladder (time accounting,
//!   latched SafeStop, export/restore lockstep, tampered restores).
//! * **Differential oracles** ([`diff`]) — pinned implementation pairs
//!   (pool worker counts, detect-only vs ECC-repaired, f32 vs Q16.16)
//!   that must agree case by case.
//!
//! Findings are auto-minimised ([`mutate::minimize`]) and land in
//! `crates/fuzz/corpus/` as named regression artefacts ([`corpus`]),
//! replayed by both the smoke tier ([`runner`]) and `cargo test`.

pub mod corpus;
pub mod diff;
pub mod gen;
pub mod mutate;
pub mod runner;
pub mod state;
pub mod surface;

pub use corpus::{load_corpus, CorpusEntry};
pub use diff::{fuzz_diff, DiffFinding};
pub use mutate::{minimize, mutate, ContainerLayout, Mutation};
pub use runner::{run_smoke, Finding, SmokeConfig, SmokeReport};
pub use state::{fuzz_ladder, fuzz_queue, StateFinding};
pub use surface::{probe_model, probe_snapshot, probe_witness, ProbeOutcome};
