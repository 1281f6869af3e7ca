#![forbid(unsafe_code)]
//! # safex-trace
//!
//! End-to-end traceability: the evidence backbone of pillar 1 of the
//! SAFEXPLAIN paper — *"DL solutions that provide end-to-end
//! traceability ... in accordance to certification standards"*.
//!
//! Certification of a DL component requires binding every artefact to its
//! provenance: which dataset trained which model, which model produced
//! which prediction, which monitor verdict gated which actuation. This
//! crate provides:
//!
//! * [`record::EvidenceRecord`] — one typed, key-value provenance record
//!   with a logical timestamp.
//! * [`chain::EvidenceChain`] — an append-only, hash-chained log of
//!   records. Each record's hash covers its content *and* the previous
//!   record's hash, so any retroactive modification invalidates the chain
//!   from that point on ([`chain::EvidenceChain::verify`] detects it —
//!   experiment E9 measures the detection rate). The 64-bit chain hash is
//!   non-cryptographic (FNV-1a): it detects accidental and random
//!   corruption, which is the FUSA threat model; swap in a cryptographic
//!   hash for an adversarial setting.
//! * [`json`] — a small dependency-free JSON writer used to export chains
//!   and experiment reports.
//!
//! ## Example
//!
//! ```
//! use safex_trace::chain::EvidenceChain;
//! use safex_trace::record::{RecordKind, Value};
//!
//! let mut chain = EvidenceChain::new("demo-campaign");
//! chain.append(RecordKind::ModelTrained, vec![
//!     ("model_digest".into(), Value::U64(0xabcd)),
//!     ("epochs".into(), Value::U64(20)),
//! ]);
//! chain.append(RecordKind::InferencePerformed, vec![
//!     ("class".into(), Value::U64(2)),
//! ]);
//! assert!(chain.verify().is_ok());
//! ```

pub mod chain;
pub mod json;
pub mod record;

pub use chain::EvidenceChain;
pub use record::{input_digest, word_digest, EvidenceRecord, Fnv64, RecordKind, Value, WordHash};
