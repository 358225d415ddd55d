//! CRC-32 (IEEE 802.3, reflected polynomial `0xEDB8_8320`) — the checksum
//! guarding WAL records and snapshot files. Implemented here because the
//! workspace builds offline (see CONTRIBUTING.md); the tables are generated
//! at first use and the result matches the ubiquitous zlib `crc32`.
//!
//! ## Step width
//!
//! The loop consumes **eight bytes a step** (slice-by-8): eight 256-entry
//! tables, `TABLES[k][b]` being the CRC of byte `b` followed by `k` zero
//! bytes, so the eight lookups of a step are independent of each other and
//! only their XOR feeds the next step. The classic one-table loop has a
//! dependent table load per *byte* (≈ 2.3 ns/B here), and a group-commit
//! frame is 6 400 bytes, a snapshot megabytes. The last `len % 8` bytes go
//! through table 0 one at a time, which is that classic loop. The value is
//! the same function of the bytes whatever the step, so nothing on disk
//! changes: files written before this loop existed verify, and the other way.
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
        let t = tables();
        let mut c = self.0;
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
        self.0 = c;
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

#[cfg(test)]
mod tests {
    use super::*;

    /// The classic one-table, one-byte-per-step loop: the reference the wide
    /// loop is checked against.
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

    #[test]
    fn wide_steps_match_the_bytewise_loop() {
        // Every length around the step width, at every alignment of the start.
        let buf = seeded(24, 64 + STEP);
        for start in 0..STEP {
            for len in 0..=64 {
                let bytes = &buf[start..start + len];
                assert_eq!(crc32(bytes), bytewise(bytes), "start {start}, len {len}");
            }
        }
        let big = seeded(1 << 20, 1 << 20);
        assert_eq!(crc32(&big), bytewise(&big));
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
