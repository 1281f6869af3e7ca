//! Named regression tests over the checked-in crash corpus.
//!
//! Every file in `crates/fuzz/corpus/` is a minimised reproducer for a
//! finding the harness once made. Each named test below pins the exact
//! bug; the catch-all sweep guarantees no corpus entry — present or
//! future — can decode into a panic or a fail-open acceptance again.

use safex_fuzz::{load_corpus, probe_model, probe_snapshot, probe_witness, ProbeOutcome};
use safex_nn::io::load_model;
use safex_nn::NnError;
use safex_serve::snapshot::SNAPSHOT_VERSION;
use safex_serve::{ServeError, ServerSnapshot};

fn entry(name: &str) -> Vec<u8> {
    load_corpus()
        .into_iter()
        .find(|e| e.name == name)
        .unwrap_or_else(|| panic!("corpus entry {name} missing"))
        .bytes
}

/// Finding #1 (fuzz-smoke, length_lie operator): a declared payload
/// length of `u64::MAX` overflowed `16 + len + 4` in the snapshot frame
/// check and panicked under debug assertions instead of returning the
/// typed `BadSnapshot` error. Fixed by validating the declared length
/// against the actual remainder. The seed carries the current version,
/// so decoding reaches the length check instead of stopping earlier.
#[test]
fn snapshot_length_overflow_is_a_typed_error() {
    let bytes = entry("snapshot__length_overflow");
    match ServerSnapshot::decode(&bytes) {
        Err(ServeError::BadSnapshot(msg)) => assert!(
            msg.contains("does not match declared payload"),
            "should be the length mismatch: {msg}"
        ),
        other => panic!("want BadSnapshot, got {other:?}"),
    }
}

/// A snapshot seed at a stale version stops at the version check and no
/// longer exercises the defect it pins, so every `snapshot__*` seed must
/// carry the current `SNAPSHOT_VERSION` (re-encode seeds on a bump).
#[test]
fn snapshot_seeds_carry_the_current_version() {
    let seeds: Vec<_> = load_corpus()
        .into_iter()
        .filter(|e| e.surface == "snapshot")
        .collect();
    assert!(!seeds.is_empty());
    for e in seeds {
        assert_eq!(
            e.bytes.get(6..8),
            Some(&SNAPSHOT_VERSION.to_le_bytes()[..]),
            "{} carries a stale snapshot version",
            e.name
        );
    }
}

/// Finding #2 (fuzz-smoke, full-budget run): a conv layer whose padding
/// field claims 1e8 inflates the reconstructed activation shape to
/// ~4e16 elements; the *next* dense layer then sized its weight buffer
/// from that shape and aborted the process on a ~27 PB allocation —
/// an uncatchable OOM, not an unwind. Fixed by bounding spatial extents
/// and binding each layer's declared fan-in to the reconstructed shape
/// before anything is allocated.
#[test]
fn model_conv_padding_alloc_bomb_is_a_typed_error() {
    let bytes = entry("model__conv_padding_alloc_bomb");
    match load_model(&bytes[..]) {
        Err(NnError::Serialization(msg)) => {
            assert!(msg.contains("padding"), "should name the field: {msg}")
        }
        other => panic!("want Serialization error, got {other:?}"),
    }
}

/// Finding #3 (same class): three 1e8 input dims individually pass the
/// per-field plausibility cap, but their product overflows `Shape::len`
/// — a panic under debug assertions, a silently wrapped size in
/// release. Fixed by bounding the input element count with checked
/// arithmetic right after the shape is read.
#[test]
fn model_shape_product_overflow_is_a_typed_error() {
    let bytes = entry("model__shape_overflow");
    match load_model(&bytes[..]) {
        Err(NnError::Serialization(msg)) => {
            assert!(msg.contains("implausible"), "should flag the shape: {msg}")
        }
        other => panic!("want Serialization error, got {other:?}"),
    }
}

/// Every corpus entry, replayed through its surface's probe: the typed
/// outcome must never be a finding (panic or fail-open decode).
#[test]
fn full_corpus_replays_clean() {
    let corpus = load_corpus();
    assert!(!corpus.is_empty(), "corpus directory should not be empty");
    for e in corpus {
        let outcome = match e.surface.as_str() {
            "snapshot" => probe_snapshot(&e.bytes),
            "model" => probe_model(&e.bytes),
            "witness" => probe_witness(&e.bytes),
            other => panic!("unknown surface {other} in {}", e.name),
        };
        assert!(!outcome.is_finding(), "{} regressed: {outcome:?}", e.name);
        assert_ne!(
            outcome,
            ProbeOutcome::Accepted,
            "{} should not decode",
            e.name
        );
    }
}
