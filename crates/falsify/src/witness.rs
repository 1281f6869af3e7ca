//! On-disk counterexample witnesses.
//!
//! A falsification campaign's most valuable output is its worst witness:
//! the exact scenario point, evaluation index, and margin that violated
//! a specification. [`WitnessFile`] freezes one
//! [`CounterexampleCell`] — plus the search seed needed to replay it via
//! [`FalsifyConfig::eval_seed`](crate::FalsifyConfig::eval_seed) — into
//! a versioned, checksummed container so a finding can cross a process
//! boundary (CI artifact, bug report, regression corpus) without losing
//! its replay coordinates.
//!
//! ## Wire format (version 1)
//!
//! ```text
//! "SXWITN"   | 6 bytes | magic
//! version    | u16 LE  | currently 1
//! length     | u64 LE  | payload byte count
//! payload    | ...     | fields below, little-endian
//! checksum   | u32 LE  | CRC-32 of the payload
//! ```
//!
//! Payload: search seed (u64), spec name (u64 length + UTF-8), violation
//! kind tag (u8), witness evaluation index (u64), witness input digest
//! (u64), margin (f64 bits), violation count (u64), dimension count
//! (u64), then per dimension: name (u64 length + UTF-8), region lo
//! (f64), region hi (f64), witness value (f64).
//!
//! Decoding fails **closed** — [`FalsifyError::BadWitness`] on a bad
//! magic, unknown version or kind tag, length or checksum mismatch,
//! short read, trailing garbage, non-UTF-8 or oversized name, non-finite
//! or positive margin, zero violation count, an inverted region
//! interval, or a witness value outside its region. No partially decoded
//! witness escapes. Decoding is also panic-free: the non-test code of
//! this module denies `unwrap` and `expect`.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use safex_tensor::crc::crc32;

use crate::error::FalsifyError;
use crate::falsifier::CounterexampleCell;
use crate::space::{ParamRange, ScenarioPoint};
use crate::spec::ViolationKind;

/// Witness container magic.
pub const WITNESS_MAGIC: &[u8; 6] = b"SXWITN";
/// Current witness format version.
pub const WITNESS_VERSION: u16 = 1;
/// Longest accepted spec or dimension name, in bytes.
const MAX_NAME: usize = 256;
/// Most dimensions a witness point may carry.
const MAX_DIMS: usize = 64;

/// One counterexample witness plus the campaign seed that replays it.
#[derive(Debug, Clone, PartialEq)]
pub struct WitnessFile {
    /// Master search seed of the campaign that found the witness; with
    /// [`CounterexampleCell::witness_eval`] it reproduces the exact
    /// evaluation stream.
    pub seed: u64,
    /// The frozen counterexample.
    pub cell: CounterexampleCell,
}

impl WitnessFile {
    /// Wraps a cell with its campaign seed.
    pub fn new(seed: u64, cell: CounterexampleCell) -> Self {
        WitnessFile { seed, cell }
    }

    /// Encodes to the versioned, checksummed wire format.
    pub fn encode(&self) -> Vec<u8> {
        let mut p = Vec::new();
        put_u64(&mut p, self.seed);
        put_str(&mut p, &self.cell.spec);
        p.push(kind_tag(self.cell.kind));
        put_u64(&mut p, self.cell.witness_eval);
        put_u64(&mut p, self.cell.witness_digest);
        put_u64(&mut p, self.cell.margin.to_bits());
        put_u64(&mut p, self.cell.violations);
        put_u64(&mut p, self.cell.region.len() as u64);
        for (range, &value) in self.cell.region.iter().zip(&self.cell.witness.values) {
            put_str(&mut p, &range.name);
            put_u64(&mut p, range.lo.to_bits());
            put_u64(&mut p, range.hi.to_bits());
            put_u64(&mut p, value.to_bits());
        }
        let mut out = Vec::with_capacity(p.len() + 20);
        out.extend_from_slice(WITNESS_MAGIC);
        out.extend_from_slice(&WITNESS_VERSION.to_le_bytes());
        out.extend_from_slice(&(p.len() as u64).to_le_bytes());
        let checksum = crc32(&p);
        out.extend_from_slice(&p);
        out.extend_from_slice(&checksum.to_le_bytes());
        out
    }

    /// Decodes and fully validates a witness container.
    ///
    /// # Errors
    ///
    /// Returns [`FalsifyError::BadWitness`] on any structural or
    /// semantic defect (see the module docs for the full list); no
    /// partial state escapes.
    pub fn decode(bytes: &[u8]) -> Result<Self, FalsifyError> {
        let Some((header, rest)) = bytes.split_first_chunk::<16>() else {
            return Err(bad("container shorter than the fixed header"));
        };
        let Some((payload, trailer)) = rest.split_last_chunk::<4>() else {
            return Err(bad("container shorter than the fixed header"));
        };
        if !header.starts_with(WITNESS_MAGIC) {
            return Err(bad("bad magic"));
        }
        let [_, _, _, _, _, _, v0, v1, declared @ ..] = *header;
        let version = u16::from_le_bytes([v0, v1]);
        if version != WITNESS_VERSION {
            return Err(FalsifyError::BadWitness(format!(
                "unsupported witness version {version} (expected {WITNESS_VERSION})"
            )));
        }
        let declared = u64::from_le_bytes(declared);
        // Compare against the actual remainder (header and trailer already
        // split off) instead of computing `16 + len + 4` from the
        // attacker-controlled field, which would overflow on a lie.
        if declared != payload.len() as u64 {
            return Err(FalsifyError::BadWitness(format!(
                "container length {} does not match declared payload of {declared} bytes",
                bytes.len()
            )));
        }
        let stored = u32::from_le_bytes(*trailer);
        let actual = crc32(payload);
        if stored != actual {
            return Err(FalsifyError::BadWitness(format!(
                "checksum mismatch: stored {stored:#010x}, computed {actual:#010x}"
            )));
        }

        let mut r = Reader {
            buf: payload,
            pos: 0,
        };
        let seed = r.u64()?;
        let spec = r.str("spec name")?;
        if spec.is_empty() {
            return Err(bad("empty spec name"));
        }
        let kind = kind_from_tag(r.u8()?)?;
        let witness_eval = r.u64()?;
        let witness_digest = r.u64()?;
        let margin = f64::from_bits(r.u64()?);
        if !margin.is_finite() || margin > 0.0 {
            return Err(FalsifyError::BadWitness(format!(
                "witness margin {margin} is not a finite violation (must be <= 0)"
            )));
        }
        let violations = r.u64()?;
        if violations == 0 {
            return Err(bad("witness with zero violations"));
        }
        let dims = r.u64()? as usize;
        if dims == 0 || dims > MAX_DIMS {
            return Err(FalsifyError::BadWitness(format!(
                "implausible dimension count {dims}"
            )));
        }
        let mut region = Vec::with_capacity(dims);
        let mut values = Vec::with_capacity(dims);
        for d in 0..dims {
            let name = r.str("dimension name")?;
            if name.is_empty() {
                return Err(bad("empty dimension name"));
            }
            let lo = f64::from_bits(r.u64()?);
            let hi = f64::from_bits(r.u64()?);
            let value = f64::from_bits(r.u64()?);
            if !lo.is_finite() || !hi.is_finite() || !value.is_finite() {
                return Err(FalsifyError::BadWitness(format!(
                    "non-finite bound or value in dimension {d}"
                )));
            }
            if lo > hi {
                return Err(FalsifyError::BadWitness(format!(
                    "inverted region [{lo}, {hi}] in dimension {d}"
                )));
            }
            if value < lo || value > hi {
                return Err(FalsifyError::BadWitness(format!(
                    "witness value {value} outside its region [{lo}, {hi}] in dimension {d}"
                )));
            }
            region.push(ParamRange { name, lo, hi });
            values.push(value);
        }
        r.finish()?;

        Ok(WitnessFile {
            seed,
            cell: CounterexampleCell {
                spec,
                kind,
                region,
                witness: ScenarioPoint { values },
                witness_eval,
                witness_digest,
                margin,
                violations,
            },
        })
    }
}

fn bad(msg: &str) -> FalsifyError {
    FalsifyError::BadWitness(msg.into())
}

fn kind_tag(kind: ViolationKind) -> u8 {
    match kind {
        ViolationKind::SupervisorMisGate => 0,
        ViolationKind::PatternDisagreement => 1,
        ViolationKind::ConfidentMisclass => 2,
        ViolationKind::TemporalErrorBound => 3,
    }
}

fn kind_from_tag(tag: u8) -> Result<ViolationKind, FalsifyError> {
    Ok(match tag {
        0 => ViolationKind::SupervisorMisGate,
        1 => ViolationKind::PatternDisagreement,
        2 => ViolationKind::ConfidentMisclass,
        3 => ViolationKind::TemporalErrorBound,
        _ => {
            return Err(FalsifyError::BadWitness(format!(
                "unknown violation kind tag {tag}"
            )))
        }
    })
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u64(buf, s.len() as u64);
    buf.extend_from_slice(s.as_bytes());
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl Reader<'_> {
    fn take(&mut self, n: usize) -> Result<&[u8], FalsifyError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| bad("payload truncated"))?;
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    /// The next `N` bytes as an array.
    fn array<const N: usize>(&mut self) -> Result<[u8; N], FalsifyError> {
        let (head, _) = self
            .buf
            .get(self.pos..)
            .and_then(<[u8]>::split_first_chunk::<N>)
            .ok_or_else(|| bad("payload truncated"))?;
        self.pos += N;
        Ok(*head)
    }

    fn u8(&mut self) -> Result<u8, FalsifyError> {
        let [b] = self.array()?;
        Ok(b)
    }

    fn u64(&mut self) -> Result<u64, FalsifyError> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    fn str(&mut self, what: &str) -> Result<String, FalsifyError> {
        let len = self.u64()? as usize;
        if len > MAX_NAME {
            return Err(FalsifyError::BadWitness(format!(
                "{what} of {len} bytes exceeds the {MAX_NAME}-byte bound"
            )));
        }
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| FalsifyError::BadWitness(format!("{what} is not valid UTF-8")))
    }

    fn finish(&self) -> Result<(), FalsifyError> {
        if self.pos != self.buf.len() {
            return Err(FalsifyError::BadWitness(format!(
                "{} bytes of trailing garbage after the payload",
                self.buf.len() - self.pos
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    fn cell() -> CounterexampleCell {
        CounterexampleCell {
            spec: "confident_misclass".into(),
            kind: ViolationKind::ConfidentMisclass,
            region: vec![
                ParamRange {
                    name: "noise_std".into(),
                    lo: 0.4,
                    hi: 0.9,
                },
                ParamRange {
                    name: "shift".into(),
                    lo: 2.0,
                    hi: 2.0,
                },
            ],
            witness: ScenarioPoint {
                values: vec![0.7125, 2.0],
            },
            witness_eval: 137,
            witness_digest: 0xD16E57,
            margin: -0.25,
            violations: 12,
        }
    }

    #[test]
    fn round_trip() {
        let file = WitnessFile::new(0xFA15, cell());
        let bytes = file.encode();
        let decoded = WitnessFile::decode(&bytes).expect("decode");
        assert_eq!(decoded, file);
    }

    #[test]
    fn every_truncation_fails_closed() {
        let bytes = WitnessFile::new(7, cell()).encode();
        for len in 0..bytes.len() {
            assert!(
                WitnessFile::decode(&bytes[..len]).is_err(),
                "truncation to {len} bytes must fail"
            );
        }
        let mut extended = bytes.clone();
        extended.push(0);
        assert!(WitnessFile::decode(&extended).is_err(), "trailing garbage");
    }

    #[test]
    fn any_flipped_byte_fails_closed() {
        let bytes = WitnessFile::new(7, cell()).encode();
        for i in 0..bytes.len() {
            let mut corrupt = bytes.clone();
            corrupt[i] ^= 0x40;
            assert!(
                WitnessFile::decode(&corrupt).is_err(),
                "flip at byte {i} must fail"
            );
        }
    }

    #[test]
    fn semantic_lies_behind_a_valid_checksum_fail_closed() {
        // Rebuild the container around a tampered payload with a correct
        // CRC: the structural validators must still refuse it.
        let reject = |tamper: fn(&mut CounterexampleCell)| {
            let mut c = cell();
            tamper(&mut c);
            WitnessFile::decode(&WitnessFile::new(7, c).encode())
        };
        assert!(reject(|c| c.margin = 0.5).is_err(), "positive margin");
        assert!(reject(|c| c.margin = f64::NAN).is_err(), "NaN margin");
        assert!(reject(|c| c.violations = 0).is_err(), "zero violations");
        assert!(
            reject(|c| c.region[0].lo = 1.5).is_err(),
            "inverted interval"
        );
        assert!(
            reject(|c| c.witness.values[0] = 99.0).is_err(),
            "witness outside region"
        );
        assert!(reject(|c| c.spec = String::new()).is_err(), "empty spec");
    }

    #[test]
    fn length_lie_is_a_typed_error_not_a_panic() {
        let mut bytes = WitnessFile::new(7, cell()).encode();
        bytes[8..16].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(matches!(
            WitnessFile::decode(&bytes),
            Err(FalsifyError::BadWitness(_))
        ));
    }
}
