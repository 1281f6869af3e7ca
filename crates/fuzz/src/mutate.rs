//! Typed byte-level mutators over serialized containers.
//!
//! A mutation is *typed* — the harness records which operator produced a
//! failing input, so a finding reads "length-field lie at offset 8", not
//! "bytes differed". All operators are pure functions of
//! `(input, DetRng state)`: replaying the same seed reproduces the same
//! mutated byte string, which is what lets a finding be named by its
//! `(surface, seed, case)` coordinates alone.
//!
//! The operator palette follows the grammar of the formats under test
//! (length-prefixed little-endian fields behind a CRC/digest footer):
//!
//! * [`Mutation::BitFlip`] — classic SEU-style single-bit damage.
//! * [`Mutation::ByteSplat`] — overwrite a run of bytes with one value
//!   (simulates a torn write / zero page).
//! * [`Mutation::Truncate`] — cut the container short.
//! * [`Mutation::Extend`] — append trailing garbage.
//! * [`Mutation::LengthLie`] — rewrite 8 consecutive bytes as a huge
//!   little-endian u64, aimed at length/count fields.
//! * [`Mutation::CrcFixup`] — corrupt the payload *and* recompute the
//!   container CRC so the damage reaches the structural validators
//!   behind the checksum (snapshot surface only; formats whose integrity
//!   field is a semantic digest cannot be fixed up from bytes alone).
//! * [`Mutation::Splice`] — head of one valid container glued to the
//!   tail of another.

use safex_tensor::crc::crc32;
use safex_tensor::DetRng;

/// One applied mutation, in reproducible coordinates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mutation {
    /// Flipped bit `bit` of byte `offset`.
    BitFlip {
        /// Byte offset.
        offset: usize,
        /// Bit index 0..8.
        bit: u8,
    },
    /// Overwrote `len` bytes at `offset` with `value`.
    ByteSplat {
        /// Start offset.
        offset: usize,
        /// Run length.
        len: usize,
        /// Splat value.
        value: u8,
    },
    /// Truncated the container to `len` bytes.
    Truncate {
        /// Retained prefix length.
        len: usize,
    },
    /// Appended `extra` garbage bytes.
    Extend {
        /// Appended byte count.
        extra: usize,
    },
    /// Rewrote 8 bytes at `offset` as the little-endian u64 `value`.
    LengthLie {
        /// Field offset.
        offset: usize,
        /// The lie.
        value: u64,
    },
    /// Flipped bit `bit` of payload byte `offset`, then rewrote the
    /// trailing CRC-32 so the container checksum still verifies.
    CrcFixup {
        /// Payload byte offset (absolute, within the container).
        offset: usize,
        /// Bit index 0..8.
        bit: u8,
    },
    /// Glued `head` bytes of input A onto the tail of input B starting
    /// at `tail`.
    Splice {
        /// Prefix length taken from the first input.
        head: usize,
        /// Suffix start in the second input.
        tail: usize,
    },
}

impl Mutation {
    /// Short stable tag for finding reports.
    pub fn tag(&self) -> &'static str {
        match self {
            Mutation::BitFlip { .. } => "bit_flip",
            Mutation::ByteSplat { .. } => "byte_splat",
            Mutation::Truncate { .. } => "truncate",
            Mutation::Extend { .. } => "extend",
            Mutation::LengthLie { .. } => "length_lie",
            Mutation::CrcFixup { .. } => "crc_fixup",
            Mutation::Splice { .. } => "splice",
        }
    }
}

/// Layout facts a mutator needs to aim structure-aware operators.
#[derive(Debug, Clone, Copy)]
pub struct ContainerLayout {
    /// First byte of the length-prefixed payload (after magic/version/
    /// length header), when the format has one.
    pub payload_start: usize,
    /// Offset of the container's u64 length field, when the format has
    /// one ([`Mutation::LengthLie`] prefers it).
    pub length_field: Option<usize>,
    /// `true` when the container ends in a CRC-32 over the payload that
    /// [`Mutation::CrcFixup`] can recompute from bytes alone.
    pub crc_trailer: bool,
}

impl ContainerLayout {
    /// A format with no known structure: aim everywhere, fix up nothing.
    pub fn opaque() -> Self {
        ContainerLayout {
            payload_start: 0,
            length_field: None,
            crc_trailer: false,
        }
    }
}

/// Applies one seeded mutation to `input` (with `other` as the splice
/// partner), returning the mutated bytes and the typed record of what
/// was done. Deterministic in `rng`'s state.
pub fn mutate(
    input: &[u8],
    other: &[u8],
    layout: ContainerLayout,
    rng: &mut DetRng,
) -> (Vec<u8>, Mutation) {
    // Weighted operator draw: cheap, always-applicable operators carry
    // the bulk; structure-aware ones fire when the layout allows.
    loop {
        match rng.below_usize(8) {
            0 | 1 => {
                if input.is_empty() {
                    continue;
                }
                let offset = rng.below_usize(input.len());
                let bit = (rng.next_u64() % 8) as u8;
                let mut out = input.to_vec();
                out[offset] ^= 1 << bit;
                return (out, Mutation::BitFlip { offset, bit });
            }
            2 => {
                if input.is_empty() {
                    continue;
                }
                let offset = rng.below_usize(input.len());
                let len = 1 + rng.below_usize((input.len() - offset).min(16));
                let value = [0x00, 0xFF, 0x7F, 0x80][rng.below_usize(4)];
                let mut out = input.to_vec();
                out[offset..offset + len].fill(value);
                return (out, Mutation::ByteSplat { offset, len, value });
            }
            3 => {
                let len = rng.below_usize(input.len() + 1);
                return (input[..len].to_vec(), Mutation::Truncate { len });
            }
            4 => {
                let extra = 1 + rng.below_usize(24);
                let mut out = input.to_vec();
                for _ in 0..extra {
                    out.push(rng.next_u64() as u8);
                }
                return (out, Mutation::Extend { extra });
            }
            5 => {
                if input.len() < 8 {
                    continue;
                }
                // Aim the declared length field when known, otherwise any
                // 8-byte window — most fields in these formats are u64
                // counts, so random windows still hit counts often.
                let offset = match (layout.length_field, rng.below_usize(3)) {
                    (Some(f), 0 | 1) if f + 8 <= input.len() => f,
                    _ => rng.below_usize(input.len() - 7),
                };
                let value = match rng.below_usize(4) {
                    0 => u64::MAX,
                    1 => u64::MAX - rng.next_u64() % 32,
                    2 => 1u64 << (32 + rng.next_u64() % 32),
                    _ => input.len() as u64 + 1 + rng.next_u64() % 1024,
                };
                let mut out = input.to_vec();
                out[offset..offset + 8].copy_from_slice(&value.to_le_bytes());
                return (out, Mutation::LengthLie { offset, value });
            }
            6 => {
                // CRC-preserving corruption: only meaningful when the
                // trailer is a recomputable CRC and a payload exists.
                if !layout.crc_trailer || input.len() < layout.payload_start + 5 {
                    continue;
                }
                let payload_end = input.len() - 4;
                if payload_end <= layout.payload_start {
                    continue;
                }
                let offset =
                    layout.payload_start + rng.below_usize(payload_end - layout.payload_start);
                let bit = (rng.next_u64() % 8) as u8;
                let mut out = input.to_vec();
                out[offset] ^= 1 << bit;
                let crc = crc32(&out[layout.payload_start..payload_end]);
                out[payload_end..].copy_from_slice(&crc.to_le_bytes());
                return (out, Mutation::CrcFixup { offset, bit });
            }
            _ => {
                if input.is_empty() || other.is_empty() {
                    continue;
                }
                let head = rng.below_usize(input.len() + 1);
                let tail = rng.below_usize(other.len());
                let mut out = input[..head].to_vec();
                out.extend_from_slice(&other[tail..]);
                return (out, Mutation::Splice { head, tail });
            }
        }
    }
}

/// Greedy corpus minimiser: shrinks `input` while `still_fails` holds.
///
/// Three passes run to a fixed point: remove exponentially shrinking
/// chunks, then truncate from the tail, then zero bytes (so the surviving
/// non-zero bytes are exactly the ones the failure needs). The result is
/// the corpus artefact checked in as a named regression test — small
/// enough to read, byte-reproducible forever.
pub fn minimize(input: &[u8], still_fails: impl Fn(&[u8]) -> bool) -> Vec<u8> {
    let mut best = input.to_vec();
    debug_assert!(still_fails(&best), "minimize needs a failing input");
    loop {
        let before = best.clone();
        // Pass 1: chunk removal, halving chunk sizes.
        let mut chunk = (best.len() / 2).max(1);
        while chunk >= 1 {
            let mut start = 0;
            while start < best.len() {
                let end = (start + chunk).min(best.len());
                let mut candidate = best[..start].to_vec();
                candidate.extend_from_slice(&best[end..]);
                if !candidate.is_empty() && still_fails(&candidate) {
                    best = candidate;
                } else {
                    start = end;
                }
            }
            if chunk == 1 {
                break;
            }
            chunk /= 2;
        }
        // Pass 2: tail truncation.
        while best.len() > 1 && still_fails(&best[..best.len() - 1]) {
            best.pop();
        }
        // Pass 3: byte zeroing.
        for i in 0..best.len() {
            if best[i] != 0 {
                let mut candidate = best.clone();
                candidate[i] = 0;
                if still_fails(&candidate) {
                    best = candidate;
                }
            }
        }
        if best == before {
            return best;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mutations_are_seed_reproducible() {
        let input: Vec<u8> = (0..64u8).collect();
        let other: Vec<u8> = (64..128u8).collect();
        let layout = ContainerLayout {
            payload_start: 16,
            length_field: Some(8),
            crc_trailer: true,
        };
        let mut a = DetRng::new(7);
        let mut b = DetRng::new(7);
        for _ in 0..200 {
            let (ba, ma) = mutate(&input, &other, layout, &mut a);
            let (bb, mb) = mutate(&input, &other, layout, &mut b);
            assert_eq!(ba, bb);
            assert_eq!(ma, mb);
        }
    }

    #[test]
    fn every_operator_fires() {
        let input: Vec<u8> = (0..64u8).collect();
        let other: Vec<u8> = (64..128u8).collect();
        let layout = ContainerLayout {
            payload_start: 16,
            length_field: Some(8),
            crc_trailer: true,
        };
        let mut rng = DetRng::new(3);
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..500 {
            let (_, m) = mutate(&input, &other, layout, &mut rng);
            seen.insert(m.tag());
        }
        for tag in [
            "bit_flip",
            "byte_splat",
            "truncate",
            "extend",
            "length_lie",
            "crc_fixup",
            "splice",
        ] {
            assert!(seen.contains(tag), "operator {tag} never fired");
        }
    }

    #[test]
    fn crc_fixup_keeps_the_container_checksum_valid() {
        // Build a miniature "container": 16-byte header, payload, CRC.
        let payload: Vec<u8> = (0..32u8).collect();
        let mut container = vec![0u8; 16];
        container.extend_from_slice(&payload);
        let crc = crc32(&payload);
        container.extend_from_slice(&crc.to_le_bytes());
        let layout = ContainerLayout {
            payload_start: 16,
            length_field: None,
            crc_trailer: true,
        };
        let mut rng = DetRng::new(11);
        let mut fixed = 0;
        for _ in 0..300 {
            let (out, m) = mutate(&container, &container, layout, &mut rng);
            if let Mutation::CrcFixup { .. } = m {
                fixed += 1;
                let end = out.len() - 4;
                let actual = crc32(&out[16..end]);
                let stored = u32::from_le_bytes(out[end..].try_into().unwrap());
                assert_eq!(actual, stored, "fixup must recompute the CRC");
                assert_ne!(out[16..end], container[16..container.len() - 4]);
            }
        }
        assert!(fixed > 0);
    }

    #[test]
    fn minimizer_reaches_a_small_reproducer() {
        // Failure condition: contains the byte 0xAB somewhere.
        let mut input = vec![0u8; 500];
        input[321] = 0xAB;
        input[400] = 0x55;
        let minimal = minimize(&input, |bytes| bytes.contains(&0xAB));
        assert_eq!(minimal, vec![0xAB]);
    }
}
