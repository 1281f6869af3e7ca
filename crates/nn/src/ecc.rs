//! ECC sidecar codec: detect-*and-correct* for parameter words.
//!
//! [`crate::harden`] can tell that a weight buffer changed (CRC golden
//! checksums) but not *where*, so every single-bit SEU — the dominant
//! fault class in every campaign we run — escalates the health ladder
//! even though the corruption is trivially reversible. This module adds
//! the missing half: an interleaved-parity sidecar computed per layer at
//! harden time that localises a single flipped bit to its exact word and
//! bit position and corrects it in place.
//!
//! ## Code construction
//!
//! The layer's parameters are treated as a stream of 32-bit words split
//! into blocks of [`EccConfig::block_words`] words. Per block the sidecar
//! stores one 32-bit *column parity* (the XOR of every word in the
//! block); per word it stores one *row parity* bit (the word's overall
//! parity, packed 64 to a `u64`). A single bit flip then produces two
//! independent syndromes:
//!
//! * the block's column parity differs from golden in exactly one bit —
//!   the flipped **bit position**;
//! * exactly one word's row parity differs — the flipped **word**.
//!
//! Crossing the two recovers the flip exactly. Any double flip breaks at
//! least one of the signatures (two column bits, zero or two flagged
//! rows, or damage in two blocks) and is reported
//! [`RepairOutcome::Uncorrectable`] — never miscorrected — so it keeps
//! the detect-and-escalate path. Rarer aliasing patterns (≥ 3 flips
//! forging a single-flip signature) are caught one level up: the
//! hardened engines re-verify the layer CRC after every repair and fall
//! back to [`crate::harden::HealthEvent::ChecksumMismatch`] when it
//! still disagrees.
//!
//! ## Overhead
//!
//! For `n` words in blocks of `B`: `⌈n/B⌉ × 32` column bits plus `n` row
//! bits against `32 n` data bits — at the default `B = 32` that is
//! ≈ 6.25 % of the protected parameters, reported per engine via
//! [`crate::harden::HardenedEngine::sidecar_overhead`] and per campaign
//! cell as `sidecar_overhead_pct`.

use crate::error::NnError;

/// Sidecar construction parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EccConfig {
    /// Words per parity block (≥ 1). Smaller blocks localise faster and
    /// tolerate more distributed multi-bit damage; larger blocks shrink
    /// the column-parity share of the sidecar. Default 32.
    pub block_words: usize,
}

impl Default for EccConfig {
    fn default() -> Self {
        EccConfig { block_words: 32 }
    }
}

impl EccConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::Fault`] when `block_words` is zero.
    pub fn validate(&self) -> Result<(), NnError> {
        if self.block_words == 0 {
            return Err(NnError::Fault(
                "ecc block size must be at least one word".into(),
            ));
        }
        Ok(())
    }
}

/// What a repair pass concluded about a word buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RepairOutcome {
    /// No parity signature differs: the buffer matches the encoded state.
    Clean,
    /// Exactly one bit was flipped and has been restored in place.
    Corrected {
        /// Index of the repaired word in the buffer.
        word: usize,
        /// Bit position (0..32) that was flipped back.
        bit: u32,
    },
    /// The damage does not match a single-bit signature; the buffer was
    /// left untouched.
    Uncorrectable,
}

/// The encoded sidecar for one word buffer (one parametric layer).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EccCode {
    block_words: usize,
    /// Per-block XOR of all words in the block.
    columns: Vec<u32>,
    /// Per-word parity bits, packed 64 per limb, word `i` in
    /// `rows[i / 64]` bit `i % 64`.
    rows: Vec<u64>,
    /// Number of protected words.
    words: usize,
}

impl EccCode {
    /// Encodes a sidecar over `words` using `block_words`-word blocks.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::Fault`] for a zero block size.
    pub fn encode(words: &[u32], config: EccConfig) -> Result<Self, NnError> {
        config.validate()?;
        let block_words = config.block_words;
        let columns = words
            .chunks(block_words)
            .map(|block| block.iter().fold(0u32, |acc, &w| acc ^ w))
            .collect();
        let mut rows = vec![0u64; words.len().div_ceil(64)];
        for (i, &w) in words.iter().enumerate() {
            rows[i / 64] |= u64::from(w.count_ones() & 1) << (i % 64);
        }
        Ok(EccCode {
            block_words,
            columns,
            rows,
            words: words.len(),
        })
    }

    /// Number of words the sidecar protects.
    pub fn protected_words(&self) -> usize {
        self.words
    }

    /// Total sidecar size in bits (column parities + row parity bits).
    pub fn sidecar_bits(&self) -> u64 {
        self.columns.len() as u64 * 32 + self.words as u64
    }

    fn row_parity(&self, word: usize) -> u32 {
        ((self.rows[word / 64] >> (word % 64)) & 1) as u32
    }

    /// Checks `words` against the encoded state and corrects a single
    /// flipped bit in place.
    ///
    /// The correction rule is deliberately conservative: exactly one
    /// block may differ, its column syndrome must have exactly one bit
    /// set, and exactly one word in that block may have a flipped row
    /// parity. Every other signature — which covers *every* possible
    /// double flip — returns [`RepairOutcome::Uncorrectable`] with the
    /// buffer unmodified.
    ///
    /// # Panics
    ///
    /// Panics if `words` has a different length than the encoded buffer
    /// (sidecars are layer-shaped; mixing them up is a programming
    /// error, not a fault).
    pub fn repair(&self, words: &mut [u32]) -> RepairOutcome {
        assert_eq!(
            words.len(),
            self.words,
            "sidecar encodes {} words, got {}",
            self.words,
            words.len()
        );
        // Locate damaged blocks and flagged rows in one pass.
        let mut damaged_block: Option<(usize, u32)> = None;
        let mut damaged_blocks = 0usize;
        for (b, block) in words.chunks(self.block_words).enumerate() {
            let syndrome = block.iter().fold(self.columns[b], |acc, &w| acc ^ w);
            if syndrome != 0 {
                damaged_blocks += 1;
                damaged_block = Some((b, syndrome));
            }
        }
        let mut flagged_word: Option<usize> = None;
        let mut flagged_words = 0usize;
        for (i, &w) in words.iter().enumerate() {
            if (w.count_ones() & 1) != self.row_parity(i) {
                flagged_words += 1;
                flagged_word = Some(i);
            }
        }
        if damaged_blocks == 0 && flagged_words == 0 {
            return RepairOutcome::Clean;
        }
        // Single-flip signature: one damaged block with a one-bit column
        // syndrome, one flagged row, and the row lives in that block.
        if let (1, Some((block, syndrome)), 1, Some(word)) =
            (damaged_blocks, damaged_block, flagged_words, flagged_word)
        {
            if syndrome.count_ones() == 1 && word / self.block_words == block {
                let bit = syndrome.trailing_zeros();
                words[word] ^= 1u32 << bit;
                return RepairOutcome::Corrected { word, bit };
            }
        }
        RepairOutcome::Uncorrectable
    }

    /// Fault-injection aid: XORs `mask` into block `block`'s stored
    /// column parity, simulating an SEU landing in the sidecar itself
    /// rather than the protected data. The adversarial property suite
    /// uses this to prove the decoder never *miscorrects* when its own
    /// redundancy is damaged.
    ///
    /// # Panics
    ///
    /// Panics when `block` is out of range — sidecar tampering targets a
    /// stored parity that must exist.
    pub fn corrupt_column(&mut self, block: usize, mask: u32) {
        self.columns[block] ^= mask;
    }

    /// Fault-injection aid: flips word `word`'s stored row-parity bit
    /// (the companion of [`EccCode::corrupt_column`] for the row half of
    /// the sidecar).
    ///
    /// # Panics
    ///
    /// Panics when `word` is at or beyond [`EccCode::protected_words`].
    pub fn corrupt_row(&mut self, word: usize) {
        assert!(word < self.words, "row {word} beyond {} words", self.words);
        self.rows[word / 64] ^= 1u64 << (word % 64);
    }

    /// Number of column-parity blocks in the sidecar.
    pub fn blocks(&self) -> usize {
        self.columns.len()
    }

    /// Non-mutating parity check: `true` when every column and row parity
    /// matches the encoded state. The hot-swap verify path uses this to
    /// confirm a freshly rebuilt sidecar actually describes the incoming
    /// weights before the swap commits — a pure read, never a repair.
    ///
    /// # Panics
    ///
    /// Panics if `words` has a different length than the encoded buffer,
    /// matching [`EccCode::repair`].
    pub fn check(&self, words: &[u32]) -> bool {
        assert_eq!(
            words.len(),
            self.words,
            "sidecar encodes {} words, got {}",
            self.words,
            words.len()
        );
        for (b, block) in words.chunks(self.block_words).enumerate() {
            if block.iter().fold(self.columns[b], |acc, &w| acc ^ w) != 0 {
                return false;
            }
        }
        words
            .iter()
            .enumerate()
            .all(|(i, &w)| (w.count_ones() & 1) == self.row_parity(i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn buffer(n: usize) -> Vec<u32> {
        (0..n as u32).map(|i| i.wrapping_mul(0x9E37_79B9)).collect()
    }

    #[test]
    fn config_validation() {
        assert!(EccConfig::default().validate().is_ok());
        assert!(EccConfig { block_words: 0 }.validate().is_err());
        assert!(EccCode::encode(&[1, 2], EccConfig { block_words: 0 }).is_err());
    }

    #[test]
    fn clean_buffer_reports_clean() {
        let words = buffer(70);
        let code = EccCode::encode(&words, EccConfig::default()).unwrap();
        let mut probe = words.clone();
        assert_eq!(code.repair(&mut probe), RepairOutcome::Clean);
        assert_eq!(probe, words);
        assert_eq!(code.protected_words(), 70);
    }

    #[test]
    fn single_flip_corrected_at_every_position() {
        // Exhaustive over a buffer spanning multiple blocks and a ragged
        // tail block, every word × every bit.
        let words = buffer(11);
        let code = EccCode::encode(&words, EccConfig { block_words: 4 }).unwrap();
        for word in 0..words.len() {
            for bit in 0..32u32 {
                let mut corrupt = words.clone();
                corrupt[word] ^= 1 << bit;
                assert_eq!(
                    code.repair(&mut corrupt),
                    RepairOutcome::Corrected { word, bit: { bit } },
                    "word {word} bit {bit}"
                );
                assert_eq!(corrupt, words, "repair must restore golden words");
            }
        }
    }

    #[test]
    fn double_flips_never_miscorrect() {
        // Same word, same block, different blocks: all uncorrectable and
        // the buffer is left exactly as damaged.
        let words = buffer(9);
        let code = EccCode::encode(&words, EccConfig { block_words: 4 }).unwrap();
        let cases = [
            ((0usize, 3u32), (0usize, 17u32)), // same word
            ((0, 5), (2, 5)),                  // same block, same bit position
            ((1, 9), (3, 22)),                 // same block, different bits
            ((0, 7), (5, 7)),                  // different blocks, same bit
            ((2, 1), (8, 30)),                 // different blocks entirely
        ];
        for ((w1, b1), (w2, b2)) in cases {
            let mut corrupt = words.clone();
            corrupt[w1] ^= 1 << b1;
            corrupt[w2] ^= 1 << b2;
            let damaged = corrupt.clone();
            assert_eq!(
                code.repair(&mut corrupt),
                RepairOutcome::Uncorrectable,
                "flips ({w1},{b1})+({w2},{b2})"
            );
            assert_eq!(corrupt, damaged, "uncorrectable must not touch words");
        }
    }

    #[test]
    fn block_size_one_still_works() {
        let words = buffer(5);
        let code = EccCode::encode(&words, EccConfig { block_words: 1 }).unwrap();
        let mut corrupt = words.clone();
        corrupt[3] ^= 1 << 31;
        assert_eq!(
            code.repair(&mut corrupt),
            RepairOutcome::Corrected { word: 3, bit: 31 }
        );
        assert_eq!(corrupt, words);
    }

    #[test]
    fn sidecar_bits_accounting() {
        // 70 words in blocks of 32: 3 columns × 32 bits + 70 row bits.
        let code = EccCode::encode(&buffer(70), EccConfig::default()).unwrap();
        assert_eq!(code.sidecar_bits(), 3 * 32 + 70);
        // Empty buffer: nothing stored.
        let empty = EccCode::encode(&[], EccConfig::default()).unwrap();
        assert_eq!(empty.sidecar_bits(), 0);
        assert_eq!(empty.repair(&mut []), RepairOutcome::Clean);
    }

    #[test]
    fn check_is_pure_and_agrees_with_repair() {
        let words = buffer(11);
        let code = EccCode::encode(&words, EccConfig { block_words: 4 }).unwrap();
        assert!(code.check(&words));
        for word in 0..words.len() {
            let mut corrupt = words.clone();
            corrupt[word] ^= 1 << (word % 32);
            let damaged = corrupt.clone();
            assert!(!code.check(&corrupt), "word {word}");
            assert_eq!(corrupt, damaged, "check must never modify the buffer");
        }
        // Double flip: still detected (unlike repair, check only answers
        // clean / not-clean).
        let mut corrupt = words.clone();
        corrupt[0] ^= 1 << 3;
        corrupt[5] ^= 1 << 3;
        assert!(!code.check(&corrupt));
    }

    #[test]
    #[should_panic(expected = "sidecar encodes")]
    fn length_mismatch_panics() {
        let code = EccCode::encode(&buffer(4), EccConfig::default()).unwrap();
        let mut wrong = buffer(5);
        code.repair(&mut wrong);
    }
}
