//! Evidence records: typed provenance entries.

use std::fmt;

/// The artefact/event category a record documents.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum RecordKind {
    /// A dataset was generated (config + seed).
    DatasetGenerated,
    /// A model finished training.
    ModelTrained,
    /// A model was quantised for deployment.
    ModelQuantized,
    /// A supervisor/monitor was fitted or calibrated.
    MonitorCalibrated,
    /// One inference was performed.
    InferencePerformed,
    /// A monitor rendered a verdict.
    MonitorVerdict,
    /// A safety pattern rendered a decision.
    PatternDecision,
    /// An explanation was produced.
    ExplanationProduced,
    /// A timing analysis completed.
    TimingAnalysis,
    /// A verification objective changed status.
    VerificationOutcome,
    /// The runtime health monitor changed state (degradation ladder).
    HealthTransition,
    /// A weight-memory fault was detected and corrected in place (ECC).
    FaultCorrected,
    /// A serving request was answered from the result cache: the record
    /// binds the hit to the input digest and the model that computed the
    /// original (verified) result, keeping cached answers on the
    /// evidence chain.
    CacheHit,
    /// A runtime resumed from a verified state snapshot: the record
    /// binds the restored ladder/queue/metrics state to the snapshot's
    /// checksum, so a restart is itself audit evidence rather than a
    /// silent reset to Nominal.
    RuntimeRestored,
    /// A fleet member's model was hot-swapped: the old backend was
    /// quiesced and the incoming weights were re-goldened (CRC-32),
    /// ECC-sidecar rebuilt, and verified before commit.
    ModelSwapped,
    /// A hot swap was aborted because the incoming weights failed
    /// verification; the old model kept serving untouched.
    SwapAborted,
    /// A watchdog stage missed its liveness deadline (the dog barked):
    /// warning rung of the escalation ladder.
    WatchdogAlarm,
    /// A watchdog escalation fired: repeated missed heartbeats forced a
    /// member Degraded or the fleet to SafeStop.
    WatchdogEscalation,
    /// A periodic watchdog liveness proof: per-stage heartbeat ages at a
    /// configured cadence, recording that every stage was recently alive.
    WatchdogProof,
}

impl RecordKind {
    /// Stable string tag used in hashing and JSON export.
    pub fn tag(&self) -> &'static str {
        match self {
            RecordKind::DatasetGenerated => "dataset_generated",
            RecordKind::ModelTrained => "model_trained",
            RecordKind::ModelQuantized => "model_quantized",
            RecordKind::MonitorCalibrated => "monitor_calibrated",
            RecordKind::InferencePerformed => "inference_performed",
            RecordKind::MonitorVerdict => "monitor_verdict",
            RecordKind::PatternDecision => "pattern_decision",
            RecordKind::ExplanationProduced => "explanation_produced",
            RecordKind::TimingAnalysis => "timing_analysis",
            RecordKind::VerificationOutcome => "verification_outcome",
            RecordKind::HealthTransition => "health_transition",
            RecordKind::FaultCorrected => "fault_corrected",
            RecordKind::CacheHit => "cache_hit",
            RecordKind::RuntimeRestored => "runtime_restored",
            RecordKind::ModelSwapped => "model_swapped",
            RecordKind::SwapAborted => "swap_aborted",
            RecordKind::WatchdogAlarm => "watchdog_alarm",
            RecordKind::WatchdogEscalation => "watchdog_escalation",
            RecordKind::WatchdogProof => "watchdog_proof",
        }
    }
}

impl fmt::Display for RecordKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.tag())
    }
}

/// A field value in an evidence record.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Value {
    /// A string.
    Str(String),
    /// An unsigned integer (ids, digests, counts).
    U64(u64),
    /// A float (scores, bounds).
    F64(f64),
    /// A boolean (verdicts).
    Bool(bool),
}

impl Value {
    /// Stable byte encoding for hashing.
    pub(crate) fn hash_into(&self, h: &mut Fnv64) {
        match self {
            Value::Str(s) => {
                h.write_bytes(b"s");
                h.write_bytes(s.as_bytes());
            }
            Value::U64(v) => {
                h.write_bytes(b"u");
                h.write_u64(*v);
            }
            Value::F64(v) => {
                h.write_bytes(b"f");
                h.write_u64(v.to_bits());
            }
            Value::Bool(v) => {
                h.write_bytes(b"b");
                h.write_u64(*v as u64);
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Str(s) => write!(f, "{s}"),
            Value::U64(v) => write!(f, "{v}"),
            Value::F64(v) => write!(f, "{v}"),
            Value::Bool(v) => write!(f, "{v}"),
        }
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Str(s.to_string())
    }
}

impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::U64(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::F64(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

/// One hash-chained provenance record.
///
/// Construct via [`crate::chain::EvidenceChain::append`]; records are
/// immutable once appended (the chain exposes a deliberate tamper hook for
/// integrity experiments only).
#[derive(Debug, Clone, PartialEq)]
pub struct EvidenceRecord {
    /// Position in the chain (0-based).
    pub index: u64,
    /// Logical timestamp (the chain's monotone counter; no wall clock).
    pub logical_time: u64,
    /// Record category.
    pub kind: RecordKind,
    /// Ordered key-value payload.
    pub fields: Vec<(String, Value)>,
    /// Hash of the previous record (0 for the genesis record).
    pub prev_hash: u64,
    /// Hash over `index || time || kind || fields || prev_hash`.
    pub hash: u64,
}

impl EvidenceRecord {
    /// Recomputes what this record's hash *should* be.
    pub fn computed_hash(&self) -> u64 {
        let mut h = Fnv64::new();
        h.write_u64(self.index);
        h.write_u64(self.logical_time);
        h.write_bytes(self.kind.tag().as_bytes());
        for (k, v) in &self.fields {
            h.write_bytes(k.as_bytes());
            v.hash_into(&mut h);
        }
        h.write_u64(self.prev_hash);
        h.finish()
    }

    /// Looks up a field by key (first match).
    pub fn field(&self, key: &str) -> Option<&Value> {
        self.fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }
}

/// FNV-1a 64-bit hasher: the stable, dependency-free digest every
/// evidence artefact in the workspace hashes with.
///
/// Public so the layers above (result caches, golden-report tests) key
/// their artefacts through the *same* hash that chains the evidence —
/// one digest convention, one place to swap it for a cryptographic hash.
#[derive(Debug, Clone)]
pub struct Fnv64(u64);

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64::new()
    }
}

impl Fnv64 {
    /// A fresh hasher at the FNV-1a offset basis.
    pub fn new() -> Self {
        Fnv64(0xcbf2_9ce4_8422_2325)
    }

    /// Absorbs raw bytes.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    /// Absorbs a `u64` in little-endian byte order.
    pub fn write_u64(&mut self, v: u64) {
        self.write_bytes(&v.to_le_bytes());
    }

    /// The digest so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

// xxHash64's five primes: odd 64-bit constants with well-spread bits.
const P1: u64 = 0x9E37_79B1_85EB_CA87;
const P2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const P3: u64 = 0x1656_67B1_9E37_79F9;
const P4: u64 = 0x85EB_CA77_C2B2_AE63;
const P5: u64 = 0x27D4_EB2F_1656_67C5;

/// Word-wide 64-bit hasher: the digest for bulk `f32` buffers on the
/// serve path (result-cache index keys, snapshot trace digests).
///
/// [`Fnv64`] takes one dependent multiply per *byte*, so a 256-float
/// input costs 1 032 serial steps. `WordHash` takes 64-bit words,
/// through xxHash64's round function and primes:
/// [`write_f32s`](Self::write_f32s) packs the float bit patterns two to
/// a word and runs 32-byte stripes through four independent lanes, so
/// one stripe's multiplies overlap in the pipeline, then folds the lanes
/// into the running state. It uses xxHash64's building blocks, not its
/// byte-stream framing, so values differ from reference XXH64.
///
/// Non-cryptographic and platform-stable, like `Fnv64`. Snapshots store
/// its output, so known-answer tests pin it: changing a value is a
/// snapshot format change.
#[derive(Debug, Clone)]
pub struct WordHash(u64);

impl Default for WordHash {
    fn default() -> Self {
        WordHash::new()
    }
}

impl WordHash {
    /// A fresh hasher.
    pub fn new() -> Self {
        WordHash(P5)
    }

    /// Absorbs one 64-bit word (xxHash64's 8-byte tail step).
    pub fn write_u64(&mut self, v: u64) {
        self.0 = (self.0 ^ round(0, v))
            .rotate_left(27)
            .wrapping_mul(P1)
            .wrapping_add(P4);
    }

    /// Absorbs the length and the exact bit patterns of `values` (no
    /// float rounding: `-0.0` and `0.0` differ, NaNs hash by payload).
    pub fn write_f32s(&mut self, values: &[f32]) {
        self.write_u64(values.len() as u64);
        let (stripes, tail) = values.as_chunks::<8>();
        if !stripes.is_empty() {
            let mut lanes = [P1.wrapping_add(P2), P2, 0, P1.wrapping_neg()];
            for s in stripes {
                lanes[0] = round(lanes[0], pack(s[0], s[1]));
                lanes[1] = round(lanes[1], pack(s[2], s[3]));
                lanes[2] = round(lanes[2], pack(s[4], s[5]));
                lanes[3] = round(lanes[3], pack(s[6], s[7]));
            }
            let mut acc = lanes[0]
                .rotate_left(1)
                .wrapping_add(lanes[1].rotate_left(7))
                .wrapping_add(lanes[2].rotate_left(12))
                .wrapping_add(lanes[3].rotate_left(18));
            for lane in lanes {
                acc = (acc ^ round(0, lane)).wrapping_mul(P1).wrapping_add(P4);
            }
            self.write_u64(acc);
        }
        let (pairs, odd) = tail.as_chunks::<2>();
        for &[lo, hi] in pairs {
            self.write_u64(pack(lo, hi));
        }
        if let [last] = odd {
            self.write_u64(u64::from(last.to_bits()));
        }
    }

    /// The digest so far, through xxHash64's final avalanche.
    pub fn finish(&self) -> u64 {
        let mut h = self.0;
        h ^= h >> 33;
        h = h.wrapping_mul(P2);
        h ^= h >> 29;
        h = h.wrapping_mul(P3);
        h ^ (h >> 32)
    }
}

/// xxHash64's lane round.
#[inline]
fn round(acc: u64, word: u64) -> u64 {
    acc.wrapping_add(word.wrapping_mul(P2))
        .rotate_left(31)
        .wrapping_mul(P1)
}

/// Two float bit patterns as one little-endian word.
#[inline]
fn pack(lo: f32, hi: f32) -> u64 {
    u64::from(lo.to_bits()) | u64::from(hi.to_bits()) << 32
}

/// [`WordHash`] of one input buffer: the result cache's index key.
pub fn word_digest(input: &[f32]) -> u64 {
    let mut h = WordHash::new();
    h.write_f32s(input);
    h.finish()
}

/// Canonical digest of an inference input: FNV-1a over the exact bit
/// patterns of the values (no float rounding, `-0.0 != 0.0`, NaNs by
/// payload). Two inputs share a digest key only if they would produce
/// bit-identical inference — which is what makes the digest safe to key
/// a cross-request result cache with.
pub fn input_digest(input: &[f32]) -> u64 {
    let mut h = Fnv64::new();
    h.write_u64(input.len() as u64);
    for v in input {
        h.write_bytes(&v.to_bits().to_le_bytes());
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record() -> EvidenceRecord {
        let mut r = EvidenceRecord {
            index: 3,
            logical_time: 3,
            kind: RecordKind::InferencePerformed,
            fields: vec![
                ("class".into(), Value::U64(2)),
                ("conf".into(), Value::F64(0.9)),
            ],
            prev_hash: 0xdead,
            hash: 0,
        };
        r.hash = r.computed_hash();
        r
    }

    #[test]
    fn hash_is_content_sensitive() {
        let base = record();
        assert_eq!(base.hash, base.computed_hash());
        let mut tampered = base.clone();
        tampered.fields[0].1 = Value::U64(3);
        assert_ne!(tampered.computed_hash(), base.hash);
        let mut tampered = base.clone();
        tampered.prev_hash = 0xbeef;
        assert_ne!(tampered.computed_hash(), base.hash);
        let mut tampered = base.clone();
        tampered.kind = RecordKind::MonitorVerdict;
        assert_ne!(tampered.computed_hash(), base.hash);
    }

    #[test]
    fn field_lookup() {
        let r = record();
        assert_eq!(r.field("class"), Some(&Value::U64(2)));
        assert_eq!(r.field("missing"), None);
    }

    #[test]
    fn value_conversions_and_display() {
        assert_eq!(Value::from("x"), Value::Str("x".into()));
        assert_eq!(Value::from(5u64).to_string(), "5");
        assert_eq!(Value::from(true).to_string(), "true");
        assert_eq!(Value::from(1.5f64).to_string(), "1.5");
    }

    #[test]
    fn kind_tags_stable() {
        assert_eq!(RecordKind::TimingAnalysis.tag(), "timing_analysis");
        assert_eq!(RecordKind::PatternDecision.to_string(), "pattern_decision");
        assert_eq!(RecordKind::CacheHit.tag(), "cache_hit");
    }

    #[test]
    fn input_digest_is_exact_and_length_aware() {
        let a = input_digest(&[0.5, -1.25]);
        assert_eq!(a, input_digest(&[0.5, -1.25]), "digest must be stable");
        assert_ne!(a, input_digest(&[0.5, -1.25, 0.0]));
        // Bit-exact: +0.0 and -0.0 are different inputs.
        assert_ne!(input_digest(&[0.0]), input_digest(&[-0.0]));
        // Length is part of the key: [0.0] vs [] vs [0.0, 0.0] all differ.
        assert_ne!(input_digest(&[0.0]), input_digest(&[]));
        assert_ne!(input_digest(&[0.0]), input_digest(&[0.0, 0.0]));
    }

    #[test]
    fn word_digest_is_exact_and_length_aware() {
        // Lengths around the 8-float stripe and the pair/odd tails.
        let base: Vec<f32> = (0..21).map(|i| i as f32 * 0.5 - 3.0).collect();
        let mut seen = std::collections::BTreeSet::new();
        for n in 0..=base.len() {
            assert!(seen.insert(word_digest(&base[..n])), "length {n}");
        }
        // Every single-value change moves the digest, in every lane and
        // in the tail.
        for i in 0..base.len() {
            let mut v = base.clone();
            v[i] = f32::from_bits(v[i].to_bits() ^ 1);
            assert_ne!(word_digest(&v), word_digest(&base), "index {i}");
        }
        assert_ne!(word_digest(&[0.0]), word_digest(&[-0.0]));
        assert_ne!(word_digest(&[0.0]), word_digest(&[0.0, 0.0]));
    }

    #[test]
    fn word_hash_known_answers() {
        // Pinned values: snapshots store `WordHash` output (the trace
        // digest), so a change here needs a snapshot version bump.
        let input: Vec<f32> = (0..19).map(|i| i as f32 * 0.25 - 2.0).collect();
        assert_eq!(word_digest(&[]), 0xb992_b056_e7d8_a844);
        assert_eq!(word_digest(&input), 0x3c7c_55d4_5f6f_de2d);
        let mut h = WordHash::new();
        h.write_u64(7);
        h.write_f32s(&input[..9]);
        assert_eq!(h.finish(), 0x9924_32ca_a20a_59cd);
    }

    #[test]
    fn distinct_value_types_hash_differently() {
        // Value::U64(1) vs Value::Bool(true) must not collide trivially.
        let mut a = Fnv64::new();
        Value::U64(1).hash_into(&mut a);
        let mut b = Fnv64::new();
        Value::Bool(true).hash_into(&mut b);
        assert_ne!(a.finish(), b.finish());
    }
}
