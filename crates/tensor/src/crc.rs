//! CRC-32 primitives for the golden-checksum verification.
//!
//! The hardened engines in `safex-nn` pin every parametric layer to a
//! CRC-32 golden checksum over its weights-then-bias word stream and
//! re-verify it before the layer loop on each cadence tick:
//!
//! * [`crc32`] / [`crc32_words`] — the one-shot checksums (`safex-nn`
//!   re-exports them unchanged). [`crc32`] covers byte containers
//!   (snapshots, witnesses): it runs the 4-byte body through
//!   [`CrcAccumulator`] and only the 0–3 tail bytes bytewise.
//! * [`CrcAccumulator`] — a streaming accumulator over whole slices,
//!   bit-identical to [`crc32_words`] for *any* chunking of the word
//!   stream, with a carry-less-multiply fold for the bulk of each slice.
//!   It is the fast path behind the per-layer checksums.
//!
//! The bulk of a slice takes the widest rung of a runtime-detected
//! ladder: slicing-by-8 tables on every CPU, a 128-bit PCLMULQDQ fold
//! (64 bytes per step) on x86-64, and a 512-bit VPCLMULQDQ fold (256
//! bytes per step) where AVX-512 is present. Every rung computes the
//! same remainder; the tests pin all three against each other.

use std::sync::OnceLock;

use crate::fixed::Q16_16;

/// Carry-less-multiply CRC-32 folding for the bulk interior of large
/// buffers (reflected polynomial `0xEDB8_8320`), after the Intel
/// PCLMULQDQ white paper as deployed in zlib: fold 64-byte blocks across
/// four 128-bit lanes, reduce to one lane, then Barrett-reduce back to
/// the 32-bit running register. On CPUs with AVX-512 VPCLMULQDQ the bulk
/// runs 256 bytes per step across four 512-bit accumulators first.
///
/// Bit-identical to the slicing tables for any input — it computes the
/// same polynomial remainder, just ~an order of magnitude faster — so a
/// layer checksum over an entire weight matrix costs a small fraction of
/// the inference pass. Heads, tails, and machines without the
/// instructions stay on the table path.
#[cfg(all(target_arch = "x86_64", target_endian = "little"))]
mod clmul {
    use std::arch::x86_64::{
        __m128i, __m512i, _mm512_clmulepi64_epi128, _mm512_extracti32x4_epi32, _mm512_set_epi64,
        _mm512_xor_si512, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi32_si128,
        _mm_extract_epi32, _mm_set_epi64x, _mm_setr_epi32, _mm_srli_si128, _mm_xor_si128,
    };

    // Folding constants for the reflected CRC-32 polynomial, each
    // `reflect32(x^(T-32) mod P) << 1` for a fold distance of T bits:
    // T = 4*128+64, 4*128 (K1, K2: 64 bytes), 128+64, 128 (K3, K4:
    // 16 bytes), 64 (K5), plus the Barrett pair (P', mu). K1-K5 are the
    // published zlib/Intel constants; `fold_constants_follow_from_the_polynomial`
    // re-derives every fold constant from the polynomial.
    pub(super) const K1: i64 = 0x0000_0001_5444_2bd4;
    pub(super) const K2: i64 = 0x0000_0001_c6e4_1596;
    pub(super) const K3: i64 = 0x0000_0001_7519_97d0;
    pub(super) const K4: i64 = 0x0000_0000_ccaa_009e;
    const K5: i64 = 0x0000_0001_63cd_6124;
    const P_PRIME: i64 = 0x0000_0001_db71_0641;
    const MU: i64 = 0x0000_0001_f701_1641;
    /// The 256-byte fold pair of the 512-bit path: T = 2048+64, 2048.
    pub(super) const K2048_LO: i64 = 0x0000_0001_1542_778a;
    pub(super) const K2048_HI: i64 = 0x0000_0001_322d_1430;

    /// Runtime check for the 128-bit fold: `pclmulqdq` + `sse4.1`.
    pub fn available() -> bool {
        std::arch::is_x86_feature_detected!("pclmulqdq")
            && std::arch::is_x86_feature_detected!("sse4.1")
    }

    /// Runtime check for the 512-bit fold: `avx512f` + `vpclmulqdq` on
    /// top of the 128-bit fold, whose tail it reuses.
    pub fn wide_available() -> bool {
        available()
            && std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("vpclmulqdq")
    }

    /// Packs four words (via `to_bits`) into one 128-bit lane in stream
    /// order. LLVM fuses the shift/or assembly into plain vector loads,
    /// so no raw-pointer access is needed anywhere in the fold.
    #[target_feature(enable = "pclmulqdq", enable = "sse4.1")]
    #[inline]
    fn lane<T: Copy>(quad: &[T], to_bits: &impl Fn(T) -> u32) -> __m128i {
        let lo = to_bits(quad[0]) as u64 | (to_bits(quad[1]) as u64) << 32;
        let hi = to_bits(quad[2]) as u64 | (to_bits(quad[3]) as u64) << 32;
        _mm_set_epi64x(hi as i64, lo as i64)
    }

    /// [`lane`] for sixteen words: one 512-bit accumulator's worth.
    #[target_feature(enable = "avx512f", enable = "vpclmulqdq")]
    #[inline]
    fn zlane<T: Copy>(block: &[T], to_bits: &impl Fn(T) -> u32) -> __m512i {
        let q = |i: usize| {
            (to_bits(block[2 * i]) as u64 | (to_bits(block[2 * i + 1]) as u64) << 32) as i64
        };
        _mm512_set_epi64(q(7), q(6), q(5), q(4), q(3), q(2), q(1), q(0))
    }

    /// Advances the (non-inverted) CRC register over `values`, whose
    /// length must be a multiple of 4 words no smaller than 16; `wide`
    /// (only when [`wide_available`]) takes the 512-bit fold for inputs
    /// of at least 64 words.
    ///
    /// This is the only dispatch into `#[target_feature]` code in the
    /// workspace: the intrinsics themselves are safe to call inside the
    /// annotated functions (the features are statically enabled there),
    /// and [`available`] / [`wide_available`] have proven at runtime that
    /// the CPU executes them, so the single `unsafe` block below carries
    /// exactly that obligation and nothing else — no raw pointers, no
    /// transmutes, no aliasing.
    pub fn fold_words<T: Copy>(
        crc: u32,
        values: &[T],
        to_bits: impl Fn(T) -> u32,
        wide: bool,
    ) -> u32 {
        debug_assert!(if wide { wide_available() } else { available() });
        debug_assert!(values.len() >= 16 && values.len().is_multiple_of(4));
        #[allow(unsafe_code)]
        // SAFETY: `available()` confirmed pclmulqdq + sse4.1 on this CPU,
        // and `wide_available()` avx512f + vpclmulqdq when `wide` is set.
        unsafe {
            if wide && values.len() >= 64 {
                fold_wide(crc, values, &to_bits)
            } else {
                fold_impl(crc, values, &to_bits)
            }
        }
    }

    /// The 512-bit fold: four zmm accumulators (sixteen 128-bit lanes)
    /// fold 256 bytes per step, then collapse into the four 128-bit
    /// lanes [`fold_lanes`] continues from.
    #[target_feature(
        enable = "avx512f",
        enable = "vpclmulqdq",
        enable = "pclmulqdq",
        enable = "sse4.1"
    )]
    fn fold_wide<T: Copy>(crc: u32, values: &[T], to_bits: &impl Fn(T) -> u32) -> u32 {
        let mut rest = values;
        let mut z1 = zlane(&rest[0..16], to_bits);
        let mut z2 = zlane(&rest[16..32], to_bits);
        let mut z3 = zlane(&rest[32..48], to_bits);
        let mut z4 = zlane(&rest[48..64], to_bits);
        z1 = _mm512_xor_si512(z1, _mm512_set_epi64(0, 0, 0, 0, 0, 0, 0, crc as i64));
        rest = &rest[64..];

        let k = _mm512_set_epi64(
            K2048_HI, K2048_LO, K2048_HI, K2048_LO, K2048_HI, K2048_LO, K2048_HI, K2048_LO,
        );
        let fold = |z: __m512i, k: __m512i, next: __m512i| {
            let lo = _mm512_clmulepi64_epi128(z, k, 0x00);
            let hi = _mm512_clmulepi64_epi128(z, k, 0x11);
            _mm512_xor_si512(_mm512_xor_si512(lo, hi), next)
        };
        while rest.len() >= 64 {
            z1 = fold(z1, k, zlane(&rest[0..16], to_bits));
            z2 = fold(z2, k, zlane(&rest[16..32], to_bits));
            z3 = fold(z3, k, zlane(&rest[32..48], to_bits));
            z4 = fold(z4, k, zlane(&rest[48..64], to_bits));
            rest = &rest[64..];
        }

        // 256 -> 64 bytes: each accumulator folds 64 bytes forward into
        // the next with the 128-bit path's K1/K2 pair, lane by lane.
        let k1k2 = _mm512_set_epi64(K2, K1, K2, K1, K2, K1, K2, K1);
        let z = fold(fold(fold(z1, k1k2, z2), k1k2, z3), k1k2, z4);
        fold_lanes(
            [
                _mm512_extracti32x4_epi32::<0>(z),
                _mm512_extracti32x4_epi32::<1>(z),
                _mm512_extracti32x4_epi32::<2>(z),
                _mm512_extracti32x4_epi32::<3>(z),
            ],
            rest,
            to_bits,
        )
    }

    #[target_feature(enable = "pclmulqdq", enable = "sse4.1")]
    fn fold_impl<T: Copy>(crc: u32, values: &[T], to_bits: &impl Fn(T) -> u32) -> u32 {
        // Seed four lanes from the first 64-byte block; the running
        // register XORs into the low dword of the stream, exactly as the
        // table recurrence would consume it.
        let x1 = _mm_xor_si128(lane(&values[0..4], to_bits), _mm_cvtsi32_si128(crc as i32));
        let lanes = [
            x1,
            lane(&values[4..8], to_bits),
            lane(&values[8..12], to_bits),
            lane(&values[12..16], to_bits),
        ];
        fold_lanes(lanes, &values[16..], to_bits)
    }

    /// Folds `values` into four 128-bit lanes 64 bytes per step, reduces
    /// the lanes to one, folds the remaining 16-byte blocks, and reduces
    /// to the 32-bit register: the tail both fold widths share.
    #[target_feature(enable = "pclmulqdq", enable = "sse4.1")]
    fn fold_lanes<T: Copy>(lanes: [__m128i; 4], values: &[T], to_bits: &impl Fn(T) -> u32) -> u32 {
        let [mut x1, mut x2, mut x3, mut x4] = lanes;
        let mut rest = values;
        let k1k2 = _mm_set_epi64x(K2, K1);

        // Fold 64 bytes per iteration, four independent lanes.
        while rest.len() >= 16 {
            let x5 = _mm_clmulepi64_si128(x1, k1k2, 0x00);
            let x6 = _mm_clmulepi64_si128(x2, k1k2, 0x00);
            let x7 = _mm_clmulepi64_si128(x3, k1k2, 0x00);
            let x8 = _mm_clmulepi64_si128(x4, k1k2, 0x00);
            x1 = _mm_clmulepi64_si128(x1, k1k2, 0x11);
            x2 = _mm_clmulepi64_si128(x2, k1k2, 0x11);
            x3 = _mm_clmulepi64_si128(x3, k1k2, 0x11);
            x4 = _mm_clmulepi64_si128(x4, k1k2, 0x11);
            x1 = _mm_xor_si128(_mm_xor_si128(x1, x5), lane(&rest[0..4], to_bits));
            x2 = _mm_xor_si128(_mm_xor_si128(x2, x6), lane(&rest[4..8], to_bits));
            x3 = _mm_xor_si128(_mm_xor_si128(x3, x7), lane(&rest[8..12], to_bits));
            x4 = _mm_xor_si128(_mm_xor_si128(x4, x8), lane(&rest[12..16], to_bits));
            rest = &rest[16..];
        }

        // Reduce the four lanes to one, then fold any remaining 16-byte
        // blocks into it.
        let k3k4 = _mm_set_epi64x(K4, K3);
        for extra in [x2, x3, x4] {
            let x5 = _mm_clmulepi64_si128(x1, k3k4, 0x00);
            x1 = _mm_clmulepi64_si128(x1, k3k4, 0x11);
            x1 = _mm_xor_si128(_mm_xor_si128(x1, x5), extra);
        }
        while rest.len() >= 4 {
            let x5 = _mm_clmulepi64_si128(x1, k3k4, 0x00);
            x1 = _mm_clmulepi64_si128(x1, k3k4, 0x11);
            x1 = _mm_xor_si128(_mm_xor_si128(x1, x5), lane(&rest[0..4], to_bits));
            rest = &rest[4..];
        }

        // 128 -> 64 bits.
        let mask32 = _mm_setr_epi32(-1, 0, -1, 0);
        let upper = _mm_clmulepi64_si128(x1, k3k4, 0x10);
        x1 = _mm_xor_si128(_mm_srli_si128(x1, 8), upper);
        let k5 = _mm_set_epi64x(0, K5);
        let high = _mm_srli_si128(x1, 4);
        x1 = _mm_and_si128(x1, mask32);
        x1 = _mm_clmulepi64_si128(x1, k5, 0x00);
        x1 = _mm_xor_si128(x1, high);

        // Barrett reduction 64 -> 32 bits.
        let poly = _mm_set_epi64x(MU, P_PRIME);
        let mut t = _mm_and_si128(x1, mask32);
        t = _mm_clmulepi64_si128(t, poly, 0x10);
        t = _mm_and_si128(t, mask32);
        t = _mm_clmulepi64_si128(t, poly, 0x00);
        x1 = _mm_xor_si128(x1, t);
        _mm_extract_epi32(x1, 1) as u32
    }
}

/// Slicing tables for CRC-32 (IEEE 802.3, reflected), computed at compile
/// time: no lazy initialization, no per-call table rebuild, and the
/// constants land in read-only data.
///
/// `CRC_TABLES[0]` is the classic byte-at-a-time table; `CRC_TABLES[k]`
/// advances a byte through `k` additional zero bytes, which is what the
/// slicing-by-4/8 steps in [`crc32_words`] consume.
const CRC_TABLES: [[u32; 256]; 8] = make_crc_tables();

const fn make_crc_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0usize;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (0xEDB8_8320 & (crc & 1).wrapping_neg());
            bit += 1;
        }
        t[0][i] = crc;
        i += 1;
    }
    let mut k = 1usize;
    while k < 8 {
        let mut i = 0usize;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

/// CRC-32 (IEEE 802.3, reflected) over a byte slice.
///
/// The body, read as little-endian 32-bit words, runs through
/// [`CrcAccumulator`] (carry-less-multiply fold where the CPU has one,
/// slicing-by-8 elsewhere); the 0–3 tail bytes take the byte-at-a-time
/// table step. Any start alignment
/// works: words are assembled from bytes, never loaded through a cast.
pub fn crc32(bytes: &[u8]) -> u32 {
    crc32_with(bytes, CrcPath::detected())
}

/// [`crc32`] on a chosen [`CrcPath`], so tests can pin every path
/// against each other.
fn crc32_with(bytes: &[u8], path: CrcPath) -> u32 {
    let (body, tail) = bytes.as_chunks::<4>();
    let mut acc = CrcAccumulator::new();
    acc.update_with(body, u32::from_le_bytes, path);
    let mut crc = acc.register();
    for &b in tail {
        crc = (crc >> 8) ^ CRC_TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

/// How the bulk of a slice is checksummed: the rungs of the CRC path
/// ladder, each bit-identical to the one below it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum CrcPath {
    /// Slicing-by-8 tables only; every CPU.
    Table,
    /// PCLMULQDQ fold, 64 bytes per step (x86-64 with `pclmulqdq` +
    /// `sse4.1`).
    Fold128,
    /// VPCLMULQDQ fold, 256 bytes per step (additionally `avx512f` +
    /// `vpclmulqdq`); slices under 256 bytes take the 128-bit fold.
    Fold512,
}

impl CrcPath {
    /// The widest path this CPU runs, detected once.
    fn detected() -> CrcPath {
        static DETECTED: OnceLock<CrcPath> = OnceLock::new();
        *DETECTED.get_or_init(|| {
            #[cfg(all(target_arch = "x86_64", target_endian = "little"))]
            {
                if clmul::wide_available() {
                    return CrcPath::Fold512;
                }
                if clmul::available() {
                    return CrcPath::Fold128;
                }
            }
            CrcPath::Table
        })
    }
}

/// CRC-32 over a stream of 32-bit words taken as little-endian bytes —
/// bit-identical to [`crc32`] over the equivalent byte stream, but
/// processed 8 bytes per step (slicing-by-8 over word pairs, slicing-by-4
/// on an odd tail word).
///
/// This is the checksum the hardened hot path runs: model parameters are
/// `f32`/`Q16.16` buffers, i.e. natural 32-bit word streams, and the wide
/// step is what makes per-decision verification affordable (see the E11
/// overhead table).
pub fn crc32_words(words: impl IntoIterator<Item = u32>) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = 0xFFFF_FFFFu32;
    let mut it = words.into_iter();
    while let Some(w0) = it.next() {
        let a = crc ^ w0;
        match it.next() {
            Some(w1) => {
                crc = t[7][(a & 0xFF) as usize]
                    ^ t[6][((a >> 8) & 0xFF) as usize]
                    ^ t[5][((a >> 16) & 0xFF) as usize]
                    ^ t[4][(a >> 24) as usize]
                    ^ t[3][(w1 & 0xFF) as usize]
                    ^ t[2][((w1 >> 8) & 0xFF) as usize]
                    ^ t[1][((w1 >> 16) & 0xFF) as usize]
                    ^ t[0][(w1 >> 24) as usize];
            }
            None => {
                crc = t[3][(a & 0xFF) as usize]
                    ^ t[2][((a >> 8) & 0xFF) as usize]
                    ^ t[1][((a >> 16) & 0xFF) as usize]
                    ^ t[0][(a >> 24) as usize];
                break;
            }
        }
    }
    !crc
}

/// Streaming CRC-32 accumulator.
///
/// Feeding it any sequence of slices whose concatenation is the word
/// stream produces the same CRC as a single [`crc32_words`] pass — chunk
/// boundaries are invisible because an odd trailing word is held back
/// (`pending`) and paired with the first word of the next slice,
/// preserving the slicing-by-8 pair alignment. A layer checksum needs
/// exactly that: it feeds the weights and then the bias as two slices,
/// and the weights may hold an odd number of words.
#[derive(Debug, Clone)]
pub struct CrcAccumulator {
    crc: u32,
    pending: Option<u32>,
}

impl Default for CrcAccumulator {
    fn default() -> Self {
        Self::new()
    }
}

impl CrcAccumulator {
    /// Starts a fresh checksum (CRC preconditioned).
    pub fn new() -> Self {
        CrcAccumulator {
            crc: 0xFFFF_FFFF,
            pending: None,
        }
    }

    /// One slicing-by-8 step over an aligned word pair.
    #[inline]
    fn pair_step(&mut self, w0: u32, w1: u32) {
        let t = &CRC_TABLES;
        let a = self.crc ^ w0;
        self.crc = t[7][(a & 0xFF) as usize]
            ^ t[6][((a >> 8) & 0xFF) as usize]
            ^ t[5][((a >> 16) & 0xFF) as usize]
            ^ t[4][(a >> 24) as usize]
            ^ t[3][(w1 & 0xFF) as usize]
            ^ t[2][((w1 >> 8) & 0xFF) as usize]
            ^ t[1][((w1 >> 16) & 0xFF) as usize]
            ^ t[0][(w1 >> 24) as usize];
    }

    /// Slice fast path shared by the typed `update_*` entry points and
    /// [`crc32`].
    ///
    /// A held odd word is flushed first to keep chunk boundaries
    /// invisible; then, on a fold `path` (callers pass
    /// [`CrcPath::detected`]), the bulk interior is folded 64 or 256
    /// bytes at a time by [`clmul::fold_words`]; the remainder runs
    /// through the slicing-by-8 pair step. Every path computes the
    /// identical CRC — the fold is an algebraic shortcut, not a different
    /// checksum.
    #[inline]
    fn update_with<T: Copy>(&mut self, values: &[T], to_bits: impl Fn(T) -> u32, path: CrcPath) {
        let mut rest = values;
        if let Some(held) = self.pending {
            let Some((&first, tail)) = rest.split_first() else {
                return;
            };
            self.pair_step(held, to_bits(first));
            self.pending = None;
            rest = tail;
        }
        #[cfg(all(target_arch = "x86_64", target_endian = "little"))]
        {
            // 16-byte granules, at least one 64-byte block.
            let fold_len = rest.len() & !3;
            if path != CrcPath::Table && fold_len >= 16 {
                let (head, tail) = rest.split_at(fold_len);
                let wide = path == CrcPath::Fold512;
                self.crc = clmul::fold_words(self.crc, head, &to_bits, wide);
                rest = tail;
            }
        }
        #[cfg(not(all(target_arch = "x86_64", target_endian = "little")))]
        let _ = path;
        let mut pairs = rest.chunks_exact(2);
        for pair in &mut pairs {
            self.pair_step(to_bits(pair[0]), to_bits(pair[1]));
        }
        if let Some(&last) = pairs.remainder().first() {
            self.pending = Some(to_bits(last));
        }
    }

    /// Checksums a slice of raw 32-bit words.
    pub fn update_words(&mut self, words: &[u32]) {
        self.update_with(words, |w| w, CrcPath::detected());
    }

    /// Checksums an `f32` buffer as its IEEE-754 bit words.
    pub fn update_f32(&mut self, values: &[f32]) {
        self.update_with(values, f32::to_bits, CrcPath::detected());
    }

    /// Checksums a Q16.16 buffer as its raw bit words.
    pub fn update_q16(&mut self, values: &[Q16_16]) {
        self.update_with(values, |q| q.to_bits() as u32, CrcPath::detected());
    }

    /// Finalises the checksum: flushes a held odd word and applies the
    /// CRC final inversion.
    pub fn finish(self) -> u32 {
        !self.register()
    }

    /// The running (non-inverted) register after flushing a held odd
    /// word through the slicing-by-4 tail step.
    fn register(self) -> u32 {
        let t = &CRC_TABLES;
        let mut crc = self.crc;
        if let Some(w0) = self.pending {
            let a = crc ^ w0;
            crc = t[3][(a & 0xFF) as usize]
                ^ t[2][((a >> 8) & 0xFF) as usize]
                ^ t[1][((a >> 16) & 0xFF) as usize]
                ^ t[0][(a >> 24) as usize];
        }
        crc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn words(n: usize) -> Vec<u32> {
        (0..n as u32).map(|i| i.wrapping_mul(0x9E37_79B9)).collect()
    }

    /// The byte-at-a-time table recurrence: the reference every fast
    /// path must reproduce.
    fn bytewise(bytes: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in bytes {
            crc = (crc >> 8) ^ CRC_TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
        }
        !crc
    }

    #[test]
    fn crc32_known_vector() {
        // The classic CRC-32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(&[]), 0);
    }

    #[test]
    fn crc32_words_matches_bytewise() {
        for n in [0usize, 1, 2, 3, 7, 8, 64, 129] {
            let ws = words(n);
            let bytes: Vec<u8> = ws.iter().flat_map(|w| w.to_le_bytes()).collect();
            assert_eq!(crc32_words(ws.iter().copied()), crc32(&bytes), "n = {n}");
        }
    }

    #[test]
    fn crc32_matches_bytewise_at_every_length_offset_and_path() {
        // Every word length 0..=600 with every 0–3 byte tail crosses the
        // 128-bit fold's 16-word entry and 4-word granules and the 512-bit
        // fold's 64-word entry, 64-word steps and hand-off to the 128-bit
        // tail, several times over; the start offsets 0..=3 cover every
        // alignment of the slice against the word grid.
        let buf: Vec<u8> = (0..2406u32)
            .map(|i| (i.wrapping_mul(0x9E37_79B9) >> 24) as u8)
            .collect();
        let paths = runnable_paths();
        for offset in 0..=3 {
            for len in 0..=2403 {
                let bytes = &buf[offset..offset + len];
                let expected = bytewise(bytes);
                for &path in &paths {
                    assert_eq!(
                        crc32_with(bytes, path),
                        expected,
                        "len {len}, offset {offset}, {path:?}"
                    );
                }
                assert_eq!(crc32(bytes), expected);
            }
        }
    }

    /// Every [`CrcPath`] this CPU runs, table first; prints a note for
    /// each rung it has to skip.
    fn runnable_paths() -> Vec<CrcPath> {
        let detected = CrcPath::detected();
        let mut paths = vec![CrcPath::Table];
        for path in [CrcPath::Fold128, CrcPath::Fold512] {
            if path <= detected {
                paths.push(path);
            } else {
                println!("note: this CPU lacks {path:?}; that path is not exercised");
            }
        }
        paths
    }

    #[test]
    fn fold_paths_agree_on_a_layer_sized_stream() {
        // A layer-sized stream (256 x 48 weights plus 48 biases) fed as
        // weights then bias, the way `layer_checksum` feeds it.
        let layer: Vec<u32> = (0..12_336u32)
            .map(|i| i.wrapping_mul(0x85EB_CA6B) ^ 0x5AFE)
            .collect();
        let expected = crc32_words(layer.iter().copied());
        for &path in &runnable_paths() {
            let mut acc = CrcAccumulator::new();
            acc.update_with(&layer[..12_288], |w| w, path);
            acc.update_with(&layer[12_288..], |w| w, path);
            assert_eq!(acc.finish(), expected, "layer stream, {path:?}");
        }
    }

    #[test]
    fn fold_constants_follow_from_the_polynomial() {
        // x^n mod P over GF(2), P = 0x1_04C1_1DB7 in normal bit order.
        fn x_pow_mod(n: u32) -> u32 {
            let mut r: u64 = 1;
            for _ in 0..n {
                r <<= 1;
                if r & (1 << 32) != 0 {
                    r ^= 0x1_04C1_1DB7;
                }
            }
            r as u32
        }
        // The fold constant for a distance of T bits.
        let k = |t: u32| (x_pow_mod(t - 32).reverse_bits() as i64) << 1;
        #[cfg(all(target_arch = "x86_64", target_endian = "little"))]
        {
            use clmul::{K1, K2, K2048_HI, K2048_LO, K3, K4};
            assert_eq!(k(4 * 128 + 64), K1);
            assert_eq!(k(4 * 128), K2);
            assert_eq!(k(128 + 64), K3);
            assert_eq!(k(128), K4);
            assert_eq!(k(2048 + 64), K2048_LO);
            assert_eq!(k(2048), K2048_HI);
        }
        assert_eq!(k(2048 + 64), 0x1_1542_778a);
        assert_eq!(k(2048), 0x1_322d_1430);
    }

    #[test]
    fn accumulator_is_chunking_independent() {
        let ws = words(129);
        let expected = crc32_words(ws.iter().copied());
        // Every split point, including ones that leave an odd word
        // pending across the boundary.
        for split in 0..=ws.len() {
            let mut acc = CrcAccumulator::new();
            acc.update_words(&ws[..split]);
            acc.update_words(&ws[split..]);
            assert_eq!(acc.finish(), expected, "split at {split}");
        }
        // Many tiny odd-sized chunks.
        let mut acc = CrcAccumulator::new();
        for chunk in ws.chunks(3) {
            acc.update_words(chunk);
        }
        assert_eq!(acc.finish(), expected);
    }

    #[test]
    fn accumulator_matches_tables_across_fold_thresholds() {
        // Sweep every length around the clmul entry thresholds (16-word
        // granules, 64-byte minimum) plus large buffers, so the folded
        // fast path, the table path, and every head/tail split agree
        // with the reference slicing implementation bit for bit.
        let lengths: Vec<usize> = (0..=68).chain([127, 128, 129, 1000, 4096, 16387]).collect();
        for n in lengths {
            let ws = words(n);
            let expected = crc32_words(ws.iter().copied());
            let mut acc = CrcAccumulator::new();
            acc.update_words(&ws);
            assert_eq!(acc.finish(), expected, "n = {n}");
        }
    }

    #[test]
    fn accumulator_fold_survives_odd_chunk_boundaries() {
        // An odd head chunk leaves a word pending; the following large
        // slice must flush it and still take the folded bulk path.
        let ws = words(1025);
        let expected = crc32_words(ws.iter().copied());
        for head in [1usize, 3, 5, 17, 63] {
            let mut acc = CrcAccumulator::new();
            acc.update_words(&ws[..head]);
            acc.update_words(&ws[head..]);
            assert_eq!(acc.finish(), expected, "head = {head}");
        }
    }

    #[test]
    fn empty_digest_matches_empty_crc() {
        assert_eq!(
            CrcAccumulator::new().finish(),
            crc32_words(std::iter::empty())
        );
    }

    #[test]
    fn typed_updates_match_bit_streams() {
        let fs: Vec<f32> = (0..11).map(|i| i as f32 * 0.37 - 1.5).collect();
        let expected = crc32_words(fs.iter().map(|v| v.to_bits()));
        let mut acc = CrcAccumulator::new();
        acc.update_f32(&fs);
        assert_eq!(acc.finish(), expected);

        let qs: Vec<Q16_16> = (0..11).map(|i| Q16_16::from_f32(i as f32 * 0.25)).collect();
        let expected_q = crc32_words(qs.iter().map(|q| q.to_bits() as u32));
        let mut acc = CrcAccumulator::new();
        acc.update_q16(&qs);
        assert_eq!(acc.finish(), expected_q);
    }

    #[test]
    fn weights_then_bias_matches_chained_stream() {
        let w: Vec<f32> = (0..7).map(|i| i as f32 + 0.5).collect();
        let b: Vec<f32> = (0..3).map(|i| i as f32 - 0.25).collect();
        let expected = crc32_words(w.iter().chain(&b).map(|v| v.to_bits()));
        let mut acc = CrcAccumulator::new();
        acc.update_f32(&w);
        acc.update_f32(&b);
        assert_eq!(acc.finish(), expected);
    }
}
