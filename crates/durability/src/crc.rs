//! CRC-32 (IEEE 802.3, reflected polynomial `0xEDB8_8320`) — the checksum
//! guarding WAL records and snapshot files. Implemented here because the
//! workspace builds offline (see CONTRIBUTING.md); the tables are generated
//! at first use and the result matches the ubiquitous zlib `crc32`.
//!
//! ## The fold
//!
//! On x86_64 with `PCLMULQDQ` and SSE4.1 (detected at run time), an input of
//! 64 bytes or more has its longest whole-16-byte prefix folded with
//! carry-less multiplies: four 128-bit lanes, each advanced 512 bits a step,
//! are folded into one, that one takes the remaining 16-byte blocks, and the
//! 128 bits left are reduced to 64, then to 32 by Barrett reduction. The
//! method and the reflected constants (`x^n mod P` for the folds, `P` and
//! `⌊x^64 / P⌋` for Barrett) are those of Gopal et al., *Fast CRC
//! Computation for Generic Polynomials Using PCLMULQDQ Instruction* (Intel,
//! 2009), as zlib's SIMD CRC uses them.
//!
//! The tail of fewer than 16 bytes, every input shorter than 64 bytes, and
//! everything on another CPU go through the portable loop, which consumes
//! **eight bytes a step** (slice-by-8): eight 256-entry tables,
//! `TABLES[k][b]` being the CRC of byte `b` followed by `k` zero bytes, so
//! the eight lookups of a step are independent of each other and only their
//! XOR feeds the next step; its last `len % 8` bytes go through table 0 one
//! at a time.
//!
//! Either way the value is the same function of the bytes, so nothing on
//! disk changed: files written before the fold verify, and the other way.
//!
//! [`Crc32`] is the running form — feed a stream in pieces, in order — and
//! [`crc32`] is one `update` and `finish`.

use std::sync::OnceLock;

/// Bytes consumed per step of the main loop.
const STEP: usize = 8;

fn tables() -> &'static [[u32; 256]; STEP] {
    static TABLES: OnceLock<[[u32; 256]; STEP]> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut t = [[0u32; 256]; STEP];
        for (i, slot) in t[0].iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            }
            *slot = c;
        }
        for k in 1..STEP {
            for i in 0..256 {
                let prev = t[k - 1][i];
                t[k][i] = t[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            }
        }
        t
    })
}

/// A CRC-32 over bytes fed in pieces: any split of a buffer across
/// [`Crc32::update`] calls finishes on the checksum of the whole.
#[derive(Clone, Copy, Debug)]
pub struct Crc32(u32);

impl Default for Crc32 {
    /// The checksum of no bytes yet.
    fn default() -> Self {
        Crc32(0xFFFF_FFFF)
    }
}

impl Crc32 {
    /// Folds `bytes` in, after everything fed before.
    pub fn update(&mut self, bytes: &[u8]) {
        #[cfg(target_arch = "x86_64")]
        if bytes.len() >= clmul::MIN_LEN && clmul::available() {
            // SAFETY: `available` has just seen `pclmulqdq` and `sse4.1` on
            // this CPU, the target features `fold` is compiled for.
            let (c, rest) = unsafe { clmul::fold(self.0, bytes) };
            self.0 = portable(c, rest);
            return;
        }
        self.0 = portable(self.0, bytes);
    }

    /// The CRC-32 of everything fed.
    pub fn finish(self) -> u32 {
        self.0 ^ 0xFFFF_FFFF
    }
}

/// The CRC-32 of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = Crc32::default();
    crc.update(bytes);
    crc.finish()
}

/// Advances the raw register `c` over `bytes` eight bytes a step: the loop
/// off x86_64, on a CPU without the fold, and for what the fold leaves.
fn portable(mut c: u32, bytes: &[u8]) -> u32 {
    let t = tables();
    let mut steps = bytes.chunks_exact(STEP);
    for s in &mut steps {
        let lo = c ^ u32::from_le_bytes([s[0], s[1], s[2], s[3]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][s[4] as usize]
            ^ t[2][s[5] as usize]
            ^ t[1][s[6] as usize]
            ^ t[0][s[7] as usize];
    }
    for &b in steps.remainder() {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c
}

/// The carry-less-multiply fold (module doc, "The fold").
#[cfg(target_arch = "x86_64")]
mod clmul {
    use std::arch::x86_64::{
        __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi32_si128, _mm_extract_epi32,
        _mm_set_epi64x, _mm_setr_epi32, _mm_srli_si128, _mm_xor_si128,
    };

    /// The shortest input `fold` takes: one 512-bit step.
    pub(super) const MIN_LEN: usize = 64;

    /// `x^(4·128+32) mod P` and `x^(4·128−32) mod P`, bit-reflected: fold a
    /// lane 512 bits on.
    const K1: i64 = 0x1_5444_2bd4;
    const K2: i64 = 0x1_c6e4_1596;
    /// The same for 128 bits: fold one block onto the next.
    const K3: i64 = 0x1_7519_97d0;
    const K4: i64 = 0x0_ccaa_009e;
    /// `x^64 mod P`: 96 bits down to 64.
    const K5: i64 = 0x1_63cd_6124;
    /// The polynomial `P` and `⌊x^64 / P⌋`, reflected, for Barrett reduction.
    const P_X: i64 = 0x1_DB71_0641;
    const U_PRIME: i64 = 0x1_F701_1641;

    /// Whether this CPU has what [`fold`] is compiled for.
    pub(super) fn available() -> bool {
        is_x86_feature_detected!("pclmulqdq") && is_x86_feature_detected!("sse4.1")
    }

    /// Advances the raw register `crc` over the longest whole-16-byte prefix
    /// of `bytes` and returns the register with the rest (< 16 bytes).
    ///
    /// # Safety
    ///
    /// The CPU must have `pclmulqdq` and `sse4.1` ([`available`]).
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    pub(super) unsafe fn fold(crc: u32, bytes: &[u8]) -> (u32, &[u8]) {
        // A block is two little-endian words, as `_mm_loadu_si128` reads it.
        let load = |b: &[u8]| {
            let word = |at: usize| i64::from_le_bytes(b[at..at + 8].try_into().expect("8 bytes"));
            _mm_set_epi64x(word(8), word(0))
        };
        // `x` times the two halves of `k`, plus `next`: `x` carried one
        // fold distance onto `next`.
        macro_rules! fold_onto {
            ($x:expr, $k:expr, $next:expr) => {
                _mm_xor_si128(
                    _mm_xor_si128(
                        _mm_clmulepi64_si128::<0x00>($x, $k),
                        _mm_clmulepi64_si128::<0x11>($x, $k),
                    ),
                    $next,
                )
            };
        }
        let mut steps = bytes.chunks_exact(MIN_LEN);
        let first = steps.next().expect("the fold starts from four whole blocks");
        let mut lanes: [__m128i; 4] = [
            _mm_xor_si128(load(&first[..16]), _mm_cvtsi32_si128(crc as i32)),
            load(&first[16..32]),
            load(&first[32..48]),
            load(&first[48..]),
        ];
        let k1k2 = _mm_set_epi64x(K2, K1);
        for step in &mut steps {
            for (lane, block) in lanes.iter_mut().zip(step.chunks_exact(16)) {
                *lane = fold_onto!(*lane, k1k2, load(block));
            }
        }
        let k3k4 = _mm_set_epi64x(K4, K3);
        let mut x = fold_onto!(lanes[0], k3k4, lanes[1]);
        x = fold_onto!(x, k3k4, lanes[2]);
        x = fold_onto!(x, k3k4, lanes[3]);
        let mut blocks = steps.remainder().chunks_exact(16);
        for block in &mut blocks {
            x = fold_onto!(x, k3k4, load(block));
        }

        // 128 bits to 64, to 32 (Barrett), read from lane 1.
        let low32 = _mm_setr_epi32(-1, 0, -1, 0);
        x = _mm_xor_si128(_mm_srli_si128::<8>(x), _mm_clmulepi64_si128::<0x10>(x, k3k4));
        let k5 = _mm_set_epi64x(0, K5);
        x = _mm_xor_si128(
            _mm_clmulepi64_si128::<0x00>(_mm_and_si128(x, low32), k5),
            _mm_srli_si128::<4>(x),
        );
        let poly = _mm_set_epi64x(U_PRIME, P_X);
        let mut q = _mm_clmulepi64_si128::<0x10>(_mm_and_si128(x, low32), poly);
        q = _mm_clmulepi64_si128::<0x00>(_mm_and_si128(q, low32), poly);
        x = _mm_xor_si128(x, q);
        (_mm_extract_epi32::<1>(x) as u32, blocks.remainder())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The classic one-table, one-byte-per-step loop: the reference both
    /// kernels are checked against.
    fn bytewise(bytes: &[u8]) -> u32 {
        let t = &tables()[0];
        let mut c = 0xFFFF_FFFFu32;
        for &b in bytes {
            c = t[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        c ^ 0xFFFF_FFFF
    }

    /// `len` bytes of a SplitMix64 stream.
    fn seeded(seed: u64, len: usize) -> Vec<u8> {
        let mut x = seed;
        let mut word = move || {
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        std::iter::repeat_with(|| word().to_le_bytes()).flatten().take(len).collect()
    }

    #[test]
    fn known_vectors() {
        // Standard zlib test vectors.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
    }

    #[test]
    fn sensitive_to_single_bit_flips() {
        let base = crc32(b"hello, durability");
        let mut corrupted = b"hello, durability".to_vec();
        for i in 0..corrupted.len() * 8 {
            corrupted[i / 8] ^= 1 << (i % 8);
            assert_ne!(crc32(&corrupted), base, "bit {i} flip must change the checksum");
            corrupted[i / 8] ^= 1 << (i % 8);
        }
    }

    /// Both kernels agree with the bytewise loop on `bytes`: `crc32`, which
    /// folds where the CPU can, and the portable loop alone.
    fn assert_both_kernels(bytes: &[u8], what: &str) {
        let want = bytewise(bytes);
        assert_eq!(crc32(bytes), want, "crc32, {what}");
        assert_eq!(portable(0xFFFF_FFFF, bytes) ^ 0xFFFF_FFFF, want, "portable, {what}");
    }

    #[test]
    fn wide_steps_match_the_bytewise_loop() {
        // Every length through the fold's 64-byte start, its 16-byte blocks
        // and its tail, at every alignment of the start within a block.
        let buf = seeded(24, 300 + 16);
        for start in 0..16 {
            for len in 0..=300 {
                assert_both_kernels(&buf[start..start + len], &format!("start {start}, len {len}"));
            }
        }
        let big = seeded(1 << 20, 1 << 20);
        assert_both_kernels(&big, "1 MiB");
        // The value the slice-by-8 loop alone gave before the fold existed.
        assert_eq!(crc32(&big), 0x307F_0F9F);
    }

    #[test]
    fn random_pieces_finish_on_the_whole() {
        // A 4 MiB stream fed in pieces of 1 B to 70 KiB, the sizes drawn from
        // a second seeded stream: every piece boundary lands somewhere else
        // in the fold's blocks.
        let stream = seeded(46, 4 << 20);
        let sizes = seeded(47, 8 << 10);
        let mut crc = Crc32::default();
        let mut raw = 0xFFFF_FFFF;
        let (mut at, mut pieces) = (0, 0);
        for pair in sizes.chunks_exact(4) {
            if at == stream.len() {
                break;
            }
            let size = 1 + u32::from_le_bytes(pair.try_into().unwrap()) as usize % (70 << 10);
            let piece = &stream[at..(at + size).min(stream.len())];
            crc.update(piece);
            raw = portable(raw, piece);
            at += piece.len();
            pieces += 1;
        }
        assert_eq!(at, stream.len(), "the sizes cover the stream");
        let whole = bytewise(&stream);
        assert_eq!(crc.finish(), whole, "crc32 over {pieces} pieces");
        assert_eq!(raw ^ 0xFFFF_FFFF, whole, "portable over {pieces} pieces");
    }

    #[test]
    fn any_split_finishes_on_the_whole() {
        let buf = seeded(100, 100);
        let whole = bytewise(&buf);
        for at in 0..=buf.len() {
            let (a, b) = buf.split_at(at);
            let mut crc = Crc32::default();
            crc.update(a);
            crc.update(b);
            assert_eq!(crc.finish(), whole, "split at {at}");
        }
    }
}
