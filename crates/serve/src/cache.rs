//! The cross-request result cache: verified answers, keyed by input
//! digest, on the evidence chain.
//!
//! Fleet traffic repeats itself (sensor frames re-sampled, retries,
//! shared telemetry), and every repeated execution re-spends the
//! hardening tax — CRC sweeps, guard checks — to recompute a result the
//! fleet already produced and *verified*. The cache closes that loop
//! under three safety rules:
//!
//! 1. **Only verified results enter.** An entry is inserted only from a
//!    completed decision that was unflagged, uncorrected, and released
//!    at `Nominal` — a result the full diagnostic battery passed.
//! 2. **Exactness over the digest.** An entry is identified by the
//!    [`safex_trace::input_digest`] (FNV-1a) of the input bits, computed
//!    once at insert. A lookup never computes it: it finds candidates
//!    through an index keyed by the word-wide
//!    [`safex_trace::word_digest`], and a hit requires a bit-exact match
//!    with the stored input — a shared key or a digest collision
//!    degrades to a miss, never to a wrong answer.
//! 3. **Hits stay on the evidence chain.** Every hit emits a
//!    [`safex_trace::RecordKind::CacheHit`] record naming the request,
//!    the digest, and the model that computed the original entry, so a
//!    cached answer is as auditable as a fresh one.
//!
//! Capacity is bounded with deterministic insertion-order (FIFO)
//! eviction, so cache state — like everything else in the server — is a
//! pure function of the replayed trace.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::collections::VecDeque;

use safex_trace::{input_digest, word_digest};

use crate::error::ServeError;
use crate::request::ModelId;

/// Result-cache knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub struct CacheConfig {
    /// Whether the cache serves and stores at all. Off by default: the
    /// cache is an optimisation, and a deployment opts in after
    /// reviewing the evidence story above.
    pub enabled: bool,
    /// Maximum entries retained (`>= 1` when enabled); oldest-inserted
    /// evicted first.
    pub capacity: usize,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            enabled: false,
            capacity: 1024,
        }
    }
}

impl CacheConfig {
    /// An enabled cache with the given capacity.
    pub fn enabled(capacity: usize) -> Self {
        CacheConfig {
            enabled: true,
            capacity,
        }
    }

    /// Validates the knobs.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::BadConfig`] for an enabled cache with zero
    /// capacity.
    pub fn validate(&self) -> Result<(), ServeError> {
        if self.enabled && self.capacity == 0 {
            return Err(ServeError::BadConfig(
                "an enabled result cache needs capacity >= 1".into(),
            ));
        }
        Ok(())
    }
}

/// One cached, verified classification.
#[derive(Debug, Clone, PartialEq)]
pub struct CachedResult {
    /// Predicted class.
    pub class: usize,
    /// Winning confidence.
    pub confidence: f32,
    /// The model that computed (and verified) the entry.
    pub model: ModelId,
    /// The input digest the entry is keyed under.
    pub digest: u64,
}

#[derive(Debug, Clone)]
struct Entry {
    input: Vec<f32>,
    result: CachedResult,
}

/// Bounded, deterministic digest-keyed result store.
#[derive(Debug, Clone, Default)]
pub struct ResultCache {
    /// Entries bucketed by the word-wide index key of their input. Two
    /// inputs may share a key, so a bucket holds a list (nearly always
    /// of one).
    buckets: BTreeMap<u64, Vec<Entry>>,
    /// The index key of every entry, by FNV input digest: first write
    /// wins on this digest, and eviction and purges find entries by it.
    keys: BTreeMap<u64, u64>,
    /// Insertion order (FNV digests) for FIFO eviction.
    order: VecDeque<u64>,
    capacity: usize,
    enabled: bool,
    /// Test-only replacement for the index key, to force shared keys.
    #[cfg(test)]
    key_of: Option<fn(&[f32]) -> u64>,
}

impl ResultCache {
    /// An empty cache per `config`.
    pub fn new(config: CacheConfig) -> Self {
        ResultCache {
            capacity: config.capacity,
            enabled: config.enabled,
            ..ResultCache::default()
        }
    }

    /// Whether lookups and inserts do anything.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Entries currently held.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// `true` when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// The index key of `input`.
    fn key(&self, input: &[f32]) -> u64 {
        #[cfg(test)]
        if let Some(key_of) = self.key_of {
            return key_of(input);
        }
        word_digest(input)
    }

    /// Looks `input` up by its word-wide index key; a candidate whose
    /// bits differ (a shared key) is a miss, never a wrong answer.
    pub fn lookup(&self, input: &[f32]) -> Option<&CachedResult> {
        if !self.enabled {
            return None;
        }
        self.buckets
            .get(&self.key(input))?
            .iter()
            .find(|entry| same_input(&entry.input, input))
            .map(|entry| &entry.result)
    }

    /// Inserts a verified result. First write wins on a digest already
    /// present (whether the same input or a colliding one): entries are
    /// immutable once verified, and a collision must not overwrite a
    /// good entry.
    pub fn insert(&mut self, input: &[f32], class: usize, confidence: f32, model: ModelId) {
        self.store(Cow::Borrowed(input), class, confidence, model);
    }

    /// [`ResultCache::insert`] for an input the caller owns: a restore
    /// moves each decoded input in instead of copying it.
    pub(crate) fn insert_owned(
        &mut self,
        input: Vec<f32>,
        class: usize,
        confidence: f32,
        model: ModelId,
    ) {
        self.store(Cow::Owned(input), class, confidence, model);
    }

    fn store(&mut self, input: Cow<'_, [f32]>, class: usize, confidence: f32, model: ModelId) {
        if !self.enabled || self.capacity == 0 {
            return;
        }
        let digest = input_digest(&input);
        if self.keys.contains_key(&digest) {
            return;
        }
        while self.keys.len() >= self.capacity {
            let Some(oldest) = self.order.pop_front() else {
                break;
            };
            self.remove(oldest);
        }
        let key = self.key(&input);
        self.keys.insert(digest, key);
        self.buckets.entry(key).or_default().push(Entry {
            input: input.into_owned(),
            result: CachedResult {
                class,
                confidence,
                model,
                digest,
            },
        });
        self.order.push_back(digest);
    }

    /// Removes the entry with FNV digest `digest` from its bucket.
    fn remove(&mut self, digest: u64) {
        let Some(key) = self.keys.remove(&digest) else {
            return;
        };
        if let Some(bucket) = self.buckets.get_mut(&key) {
            bucket.retain(|entry| entry.result.digest != digest);
            if bucket.is_empty() {
                self.buckets.remove(&key);
            }
        }
    }

    /// Drops every entry computed by `model`, returning how many were
    /// purged. Called when a member's model is hot-swapped or its ladder
    /// reaches SafeStop: entries verified against the *old* weights (or by
    /// a member the ladder no longer trusts) must not serve further hits.
    pub fn purge_model(&mut self, model: ModelId) -> usize {
        let before = self.keys.len();
        let keys = &mut self.keys;
        self.buckets.retain(|_, bucket| {
            bucket.retain(|entry| {
                let keep = entry.result.model != model;
                if !keep {
                    keys.remove(&entry.result.digest);
                }
                keep
            });
            !bucket.is_empty()
        });
        self.order.retain(|digest| self.keys.contains_key(digest));
        before - self.keys.len()
    }

    /// Entries in insertion (eviction) order, for snapshotting.
    pub(crate) fn entries_in_order(&self) -> Vec<(&[f32], &CachedResult)> {
        self.order
            .iter()
            .filter_map(|digest| {
                self.buckets
                    .get(self.keys.get(digest)?)?
                    .iter()
                    .find(|entry| entry.result.digest == *digest)
            })
            .map(|entry| (entry.input.as_slice(), &entry.result))
            .collect()
    }
}

/// The hit test: identical bit patterns, so `0.0` and `-0.0` stay apart
/// when two inputs share an index key. An input holding a NaN never
/// hits (NaN != NaN), as under float `==`.
fn same_input(stored: &[f32], input: &[f32]) -> bool {
    // A fold without early exit, so the compare vectorises: candidates
    // are nearly always hits, which read the whole input anyway.
    stored.len() == input.len()
        && stored.iter().zip(input).fold(true, |same, (a, b)| {
            same & (a.to_bits() == b.to_bits()) & !a.is_nan()
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache(capacity: usize) -> ResultCache {
        ResultCache::new(CacheConfig::enabled(capacity))
    }

    #[test]
    fn disabled_cache_never_hits_or_stores() {
        let mut c = ResultCache::new(CacheConfig::default());
        assert!(!c.is_enabled());
        c.insert(&[1.0], 2, 0.9, ModelId::new(0));
        assert!(c.is_empty());
        assert!(c.lookup(&[1.0]).is_none());
    }

    #[test]
    fn hit_requires_bit_exact_input() {
        let mut c = cache(8);
        c.insert(&[1.0, 2.0], 3, 0.8, ModelId::new(1));
        let hit = c.lookup(&[1.0, 2.0]).unwrap();
        assert_eq!((hit.class, hit.model), (3, ModelId::new(1)));
        assert_eq!(hit.digest, input_digest(&[1.0, 2.0]));
        assert!(c.lookup(&[1.0, 2.5]).is_none());
        assert!(c.lookup(&[1.0]).is_none());
    }

    #[test]
    fn first_write_wins_and_eviction_is_fifo() {
        let mut c = cache(2);
        c.insert(&[1.0], 0, 0.5, ModelId::new(0));
        c.insert(&[1.0], 9, 0.9, ModelId::new(1));
        assert_eq!(c.lookup(&[1.0]).unwrap().class, 0, "first write wins");
        c.insert(&[2.0], 1, 0.5, ModelId::new(0));
        c.insert(&[3.0], 2, 0.5, ModelId::new(0));
        assert_eq!(c.len(), 2);
        assert!(c.lookup(&[1.0]).is_none(), "oldest entry evicted first");
        assert!(c.lookup(&[2.0]).is_some());
        assert!(c.lookup(&[3.0]).is_some());
    }

    #[test]
    fn purge_model_removes_only_that_members_entries() {
        let mut c = cache(8);
        c.insert(&[1.0], 0, 0.5, ModelId::new(0));
        c.insert(&[2.0], 1, 0.5, ModelId::new(1));
        c.insert(&[3.0], 2, 0.5, ModelId::new(0));
        assert_eq!(c.purge_model(ModelId::new(0)), 2);
        assert!(c.lookup(&[1.0]).is_none());
        assert!(c.lookup(&[3.0]).is_none());
        assert_eq!(c.lookup(&[2.0]).unwrap().class, 1);
        // Insertion order stays consistent after a purge.
        assert_eq!(c.entries_in_order().len(), 1);
        assert_eq!(c.purge_model(ModelId::new(0)), 0);
    }

    #[test]
    fn entries_sharing_an_index_key_stay_apart() {
        let mut c = cache(4);
        c.key_of = Some(|_| 0);
        c.insert(&[0.0], 1, 0.5, ModelId::new(0));
        c.insert(&[-0.0], 2, 0.5, ModelId::new(1));
        c.insert(&[f32::NAN], 3, 0.5, ModelId::new(0));
        assert_eq!(c.buckets.len(), 1, "all three share one key");
        assert_eq!(c.lookup(&[0.0]).unwrap().class, 1);
        assert_eq!(c.lookup(&[-0.0]).unwrap().class, 2);
        assert!(c.lookup(&[f32::NAN]).is_none(), "a NaN input never hits");
        assert!(c.lookup(&[1.0]).is_none());
        assert_eq!(c.purge_model(ModelId::new(0)), 2);
        assert_eq!(c.lookup(&[-0.0]).unwrap().class, 2);
        assert_eq!(c.len(), 1);
    }

    /// The cache before the word-wide index, kept verbatim as the
    /// differential reference: one map keyed by the FNV input digest.
    mod reference {
        use std::collections::{BTreeMap, VecDeque};

        use safex_trace::input_digest;

        use super::super::CachedResult;
        use crate::request::ModelId;

        pub struct Entry {
            pub input: Vec<f32>,
            pub result: CachedResult,
        }

        pub struct ResultCache {
            pub entries: BTreeMap<u64, Entry>,
            pub order: VecDeque<u64>,
            pub capacity: usize,
        }

        impl ResultCache {
            pub fn lookup(&self, input: &[f32]) -> Option<&CachedResult> {
                let digest = input_digest(input);
                let entry = self.entries.get(&digest)?;
                (entry.input == input).then_some(&entry.result)
            }

            pub fn insert(&mut self, input: &[f32], class: usize, confidence: f32, model: ModelId) {
                if self.capacity == 0 {
                    return;
                }
                let digest = input_digest(input);
                if self.entries.contains_key(&digest) {
                    return;
                }
                while self.entries.len() >= self.capacity {
                    let Some(oldest) = self.order.pop_front() else {
                        break;
                    };
                    self.entries.remove(&oldest);
                }
                self.entries.insert(
                    digest,
                    Entry {
                        input: input.to_vec(),
                        result: CachedResult {
                            class,
                            confidence,
                            model,
                            digest,
                        },
                    },
                );
                self.order.push_back(digest);
            }

            pub fn purge_model(&mut self, model: ModelId) -> usize {
                let before = self.entries.len();
                self.entries.retain(|_, entry| entry.result.model != model);
                self.order
                    .retain(|digest| self.entries.contains_key(digest));
                before - self.entries.len()
            }

            pub fn entries_in_order(&self) -> Vec<(&[f32], &CachedResult)> {
                self.order
                    .iter()
                    .filter_map(|digest| self.entries.get(digest))
                    .map(|entry| (entry.input.as_slice(), &entry.result))
                    .collect()
            }
        }
    }

    /// Inputs the differential test draws from: signed zeros, a NaN,
    /// lengths on both sides of the hash's 8-float stripe, and pairs
    /// that differ in one bit.
    fn input_pool() -> Vec<Vec<f32>> {
        let wide: Vec<f32> = (0..19).map(|i| i as f32 * 0.5 - 4.0).collect();
        let mut wide_flip = wide.clone();
        wide_flip[13] = f32::from_bits(wide_flip[13].to_bits() ^ 1);
        vec![
            vec![],
            vec![0.0],
            vec![-0.0],
            vec![f32::NAN],
            vec![1.0, 2.0],
            vec![2.0, 1.0],
            vec![1.0, f32::NAN],
            vec![0.0; 8],
            vec![-0.0; 8],
            wide,
            wide_flip,
        ]
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(256))]
        #[test]
        fn matches_the_fnv_keyed_reference(
            capacity in 1usize..6,
            key_mode in 0u8..3,
            ops in proptest::prop::collection::vec((0u8..8, 0usize..11, 0u16..3, 0usize..5), 1..120),
        ) {
            let pool = input_pool();
            let mut c = cache(capacity);
            // Index keys: the real word-wide digest, one key shared by
            // every input, or one key per input length.
            c.key_of = match key_mode {
                0 => None,
                1 => Some(|_| 7),
                _ => Some(|x| x.len() as u64),
            };
            let mut r = reference::ResultCache {
                entries: Default::default(),
                order: Default::default(),
                capacity,
            };
            for (op, which, model, class) in ops {
                let input = &pool[which];
                let model = ModelId::new(model);
                match op {
                    0..=3 => proptest::prop_assert_eq!(c.lookup(input), r.lookup(input)),
                    4..=6 => {
                        c.insert(input, class, class as f32 * 0.25, model);
                        r.insert(input, class, class as f32 * 0.25, model);
                    }
                    _ => proptest::prop_assert_eq!(c.purge_model(model), r.purge_model(model)),
                }
                proptest::prop_assert_eq!(c.len(), r.entries.len());
                proptest::prop_assert_eq!(c.keys.len(), c.order.len());
                let ours = c.entries_in_order();
                let theirs = r.entries_in_order();
                proptest::prop_assert_eq!(ours.len(), theirs.len());
                for ((ci, cr), (ri, rr)) in ours.iter().zip(&theirs) {
                    let bits = |x: &[f32]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                    proptest::prop_assert_eq!(bits(ci), bits(ri));
                    proptest::prop_assert_eq!(cr, rr);
                }
            }
        }
    }

    #[test]
    fn config_validation() {
        assert!(CacheConfig::default().validate().is_ok());
        assert!(CacheConfig::enabled(16).validate().is_ok());
        assert!(CacheConfig::enabled(0).validate().is_err());
    }
}
