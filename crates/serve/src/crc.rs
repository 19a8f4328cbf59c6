//! In-repo CRC-32 (IEEE 802.3, reflected, polynomial `0xEDB88320`) — the
//! checksum carried by every WAL line, segment header, manifest,
//! replication manifest entry, and network frame.
//!
//! The workspace builds with zero registry dependencies (see README.md,
//! "Offline dependency shims"), so the WAL cannot pull a crc crate. There
//! are two bodies, and both compute the same function:
//!
//! * **Carry-less multiply.** On an x86-64 CPU with PCLMULQDQ,
//!   [`Crc32::update`] folds whole 16-byte blocks: the running remainder is
//!   a 128-bit polynomial, and each block is absorbed by two carry-less
//!   multiplies by `x^160 mod P` and `x^96 mod P` (reflected). The 128-bit
//!   remainder then narrows to 64 bits and finally to the 32-bit CRC by the
//!   standard Barrett reduction (Gopal et al., "Fast CRC Computation for
//!   Generic Polynomials Using PCLMULQDQ Instruction", Intel, 2009). The
//!   tail shorter than 16 bytes runs on the tables below. This is the one
//!   `unsafe` site of the crate: the call into the `#[target_feature]` body,
//!   made only after `is_x86_feature_detected!` confirmed the CPU.
//! * **Slicing-by-8 tables**, in safe Rust, with the eight tables built in
//!   a `const` initializer: each 8-byte step folds the running CRC into the
//!   first four bytes and looks all eight bytes up in parallel tables; the
//!   tail shorter than 8 bytes runs byte-at-a-time on table 0. Inputs
//!   shorter than one block, other architectures and CPUs without
//!   PCLMULQDQ use this body alone; [`crc32_table`] runs it on any input.
//!
//! Both bodies are checked against each other and against the
//! byte-at-a-time loop in the tests below, at every length and alignment,
//! so the bytes the WAL and the wire carry do not depend on the host.
//!
//! The exact variant matters only in that it is **pinned**: checksums are
//! persisted, so changing the polynomial or the reflection would
//! invalidate every WAL segment on disk. The vectors in the tests below
//! (the classic `"123456789"` check value `0xCBF43926`) pin it.
#![allow(unsafe_code)]

/// The reflected CRC-32 lookup tables for polynomial `0xEDB88320`.
/// `TABLES[0]` is the classic byte table; `TABLES[k][b]` is the CRC of byte
/// `b` followed by `k` zero bytes, so one step can absorb 8 bytes at once.
const TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// A streaming CRC-32 accumulator: [`Crc32::update`] over any number of
/// chunks, then [`Crc32::finish`]. Feeding the same bytes in different
/// chunkings yields the same checksum.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Crc32(u32);

impl Default for Crc32 {
    fn default() -> Self {
        Crc32::new()
    }
}

impl Crc32 {
    /// Start a fresh accumulator.
    pub fn new() -> Self {
        Crc32(0xFFFF_FFFF)
    }

    /// Absorb a chunk of bytes: by carry-less multiply when the CPU has
    /// PCLMULQDQ, on the tables otherwise.
    pub fn update(&mut self, bytes: &[u8]) {
        self.0 = Body::host().update(self.0, bytes);
    }

    /// The checksum of everything absorbed so far (the accumulator remains
    /// usable — `finish` is a read, not a consume).
    pub fn finish(&self) -> u32 {
        self.0 ^ 0xFFFF_FFFF
    }
}

/// One-shot CRC-32 of a byte slice.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = Crc32::new();
    crc.update(bytes);
    crc.finish()
}

/// [`crc32`] on the table body whatever the host: the reference the
/// dispatched [`Crc32::update`] is timed against (`perf_gates`).
pub fn crc32_table(bytes: &[u8]) -> u32 {
    Body::TABLE.update(0xFFFF_FFFF, bytes) ^ 0xFFFF_FFFF
}

/// Which body absorbs bytes. The field is private: a carry-less `Body`
/// can only come from [`Body::host`], which sets it after
/// `is_x86_feature_detected!` confirmed the CPU. That invariant is what
/// the dispatch's `unsafe` call rests on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Body {
    #[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
    clmul: bool,
}

impl Body {
    /// The slicing-by-8 tables, on every host.
    const TABLE: Body = Body { clmul: false };

    /// The fastest body this CPU runs (a cached feature check).
    #[inline]
    fn host() -> Body {
        #[cfg(target_arch = "x86_64")]
        // lint: allow(determinism) -- the CRC dispatch seam; both bodies compute the same checksum (tests below)
        if std::arch::is_x86_feature_detected!("pclmulqdq") {
            return Body { clmul: true };
        }
        Body::TABLE
    }

    /// Absorb `bytes` into the running remainder `crc`. An input shorter
    /// than one block goes straight to the tables.
    #[inline]
    fn update(self, crc: u32, bytes: &[u8]) -> u32 {
        #[cfg(target_arch = "x86_64")]
        if self.clmul && bytes.len() >= 16 {
            // SAFETY: `self.clmul` means `is_x86_feature_detected!("pclmulqdq")`
            // held (only `Body::host` sets it), so this CPU executes the
            // body's PCLMULQDQ instructions; its other intrinsics are SSE2,
            // part of the x86-64 baseline, and it has no other precondition.
            return unsafe { clmul::update(crc, bytes) };
        }
        table_update(crc, bytes)
    }
}

/// The slicing-by-8 body: absorb `bytes` into the running remainder `crc`.
fn table_update(mut crc: u32, bytes: &[u8]) -> u32 {
    let [t0, t1, t2, t3, t4, t5, t6, t7] = &TABLES;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        crc = t7[(lo & 0xFF) as usize]
            ^ t6[((lo >> 8) & 0xFF) as usize]
            ^ t5[((lo >> 16) & 0xFF) as usize]
            ^ t4[(lo >> 24) as usize]
            ^ t3[(hi & 0xFF) as usize]
            ^ t2[((hi >> 8) & 0xFF) as usize]
            ^ t1[((hi >> 16) & 0xFF) as usize]
            ^ t0[(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        crc = (crc >> 8) ^ t0[((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    crc
}

/// The carry-less multiply body (see the module docs).
#[cfg(target_arch = "x86_64")]
mod clmul {
    use std::arch::x86_64::{
        _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi128_si32, _mm_cvtsi32_si128, _mm_set_epi32,
        _mm_set_epi64x, _mm_srli_si128, _mm_xor_si128,
    };

    /// `x^(128+32) mod P` and `x^(128-32) mod P`, bit-reflected and shifted
    /// left by one (the Intel paper's k3 and k4): the fold of the
    /// remainder's low and high halves over one 16-byte block.
    const K3: i64 = 0x1_7519_97d0;
    const K4: i64 = 0x0_ccaa_009e;
    /// `x^64 mod P`, reflected and shifted likewise: the 64-to-32-bit fold.
    const K5: i64 = 0x1_63cd_6124;
    /// The polynomial `P(x)` and the Barrett constant `⌊x^64 / P(x)⌋`,
    /// bit-reflected.
    const P_X: i64 = 0x1_DB71_0641;
    const U_PRIME: i64 = 0x1_F701_1641;

    /// Absorb `bytes` into the running remainder `crc`: the whole blocks
    /// by carry-less multiply, the tail on the tables.
    // lint: allow(determinism) -- runs only where PCLMULQDQ was detected; bitwise equal to the table body (tests below)
    #[target_feature(enable = "pclmulqdq")]
    pub(super) fn update(crc: u32, bytes: &[u8]) -> u32 {
        // One unaligned 16-byte block, as two little-endian halves.
        let block = |b: &[u8]| {
            let half = |at: usize| {
                let mut word = [0u8; 8];
                word.copy_from_slice(&b[at..at + 8]);
                i64::from_le_bytes(word)
            };
            _mm_set_epi64x(half(8), half(0))
        };
        let mut blocks = bytes.chunks_exact(16);
        let Some(first) = blocks.next() else {
            return super::table_update(crc, bytes);
        };
        let k3k4 = _mm_set_epi64x(K4, K3);
        let low32 = _mm_set_epi32(0, 0, 0, !0);
        // The remainder so far enters as the first block's low 32 bits.
        let mut x = _mm_xor_si128(block(first), _mm_cvtsi32_si128(crc as i32));
        for b in &mut blocks {
            let lo = _mm_clmulepi64_si128(x, k3k4, 0x00);
            let hi = _mm_clmulepi64_si128(x, k3k4, 0x11);
            x = _mm_xor_si128(_mm_xor_si128(block(b), lo), hi);
        }
        // 128 bits to 64: the low half times K4 plus the high half, then
        // the low 32 bits times K5 plus the rest.
        x = _mm_xor_si128(_mm_clmulepi64_si128(x, k3k4, 0x10), _mm_srli_si128(x, 8));
        x = _mm_xor_si128(
            _mm_clmulepi64_si128(_mm_and_si128(x, low32), _mm_set_epi64x(0, K5), 0x00),
            _mm_srli_si128(x, 4),
        );
        // Barrett reduction, 64 bits to 32 (the reflected variant reads the
        // result from the upper half of the low quadword).
        let pu = _mm_set_epi64x(U_PRIME, P_X);
        let t1 = _mm_clmulepi64_si128(_mm_and_si128(x, low32), pu, 0x10);
        let t2 = _mm_clmulepi64_si128(_mm_and_si128(t1, low32), pu, 0x00);
        let crc = _mm_cvtsi128_si32(_mm_srli_si128(_mm_xor_si128(x, t2), 4)) as u32;
        super::table_update(crc, blocks.remainder())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The byte-at-a-time loop both bodies must equal.
    fn reference(bytes: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFF_u32;
        for &b in bytes {
            crc = (crc >> 8) ^ TABLES[0][((crc ^ u32::from(b)) & 0xFF) as usize];
        }
        crc ^ 0xFFFF_FFFF
    }

    /// The carry-less body as a one-shot checksum, or `None` (with a note)
    /// on a host without PCLMULQDQ.
    fn carryless(bytes: &[u8]) -> Option<u32> {
        let body = Body::host();
        if body == Body::TABLE {
            eprintln!("crc: this host has no PCLMULQDQ; only the table body was run");
            return None;
        }
        Some(body.update(0xFFFF_FFFF, bytes) ^ 0xFFFF_FFFF)
    }

    /// A deterministic byte stream.
    fn data(len: usize) -> Vec<u8> {
        (0..len as u32).map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8).collect()
    }

    #[test]
    fn both_bodies_equal_byte_at_a_time_at_every_length() {
        let data = data(1024);
        for len in 0..=data.len() {
            let want = reference(&data[..len]);
            assert_eq!(crc32_table(&data[..len]), want, "table, length {len}");
            assert_eq!(crc32(&data[..len]), want, "dispatched, length {len}");
            if let Some(got) = carryless(&data[..len]) {
                assert_eq!(got, want, "carry-less, length {len}");
            }
        }
    }

    #[test]
    fn both_bodies_agree_at_every_offset() {
        // Blocks are loaded unaligned: start the input at each offset
        // within a 16-byte line, at lengths around the block boundaries.
        let data = data(300);
        for offset in 0..16 {
            for len in [0, 1, 15, 16, 17, 31, 32, 33, 38, 50, 82, 201, 255] {
                let bytes = &data[offset..offset + len];
                let want = reference(bytes);
                assert_eq!(crc32_table(bytes), want, "table, offset {offset} length {len}");
                if let Some(got) = carryless(bytes) {
                    assert_eq!(got, want, "carry-less, offset {offset} length {len}");
                }
            }
        }
    }

    proptest! {
        #[test]
        fn splits_equal_reference_on_both_bodies(
            data in proptest::collection::vec(any::<u8>(), 0..=300),
            cuts in proptest::collection::vec(0usize..=300, 0..6),
        ) {
            let want = reference(&data);
            prop_assert_eq!(crc32(&data), want);
            let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c.min(data.len())).collect();
            cuts.sort_unstable();
            // The dispatched accumulator (blocks by carry-less multiply
            // where the host has it) and the table body alone.
            let mut acc = Crc32::new();
            let mut table = 0xFFFF_FFFF_u32;
            let mut from = 0;
            for cut in cuts.into_iter().chain([data.len()]) {
                acc.update(&data[from..cut]);
                table = Body::TABLE.update(table, &data[from..cut]);
                from = cut;
            }
            prop_assert_eq!(acc.finish(), want);
            prop_assert_eq!(table ^ 0xFFFF_FFFF, want);
        }
    }

    #[test]
    fn pinned_check_values() {
        // The universal CRC-32/ISO-HDLC check vector plus a few anchors:
        // these are persisted-format constants, not implementation details.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
        assert_eq!(crc32(b"banditware-wal v2"), crc32(b"banditware-wal v2"));
        // One whole block and more, through whichever body the host runs.
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
    }

    #[test]
    fn streaming_matches_one_shot() {
        let data: Vec<u8> = (0u16..2048).map(|i| (i % 251) as u8).collect();
        let whole = crc32(&data);
        for chunk in [1usize, 3, 7, 16, 64, 1000] {
            let mut acc = Crc32::new();
            for piece in data.chunks(chunk) {
                acc.update(piece);
            }
            assert_eq!(acc.finish(), whole, "chunk size {chunk}");
        }
    }

    #[test]
    fn single_bit_flips_change_the_checksum() {
        // The property the WAL leans on: a bit flip anywhere in a line —
        // including inside a float's digits, which the old parse-failure
        // heuristic could not see — changes the checksum.
        let line = b"obs,17,9,2,1,153.25,1.5,-0.25";
        let base = crc32(line);
        let mut flipped = line.to_vec();
        for byte in 0..flipped.len() {
            for bit in 0..8 {
                flipped[byte] ^= 1 << bit;
                assert_ne!(crc32(&flipped), base, "flip at byte {byte} bit {bit} undetected");
                flipped[byte] ^= 1 << bit;
            }
        }
    }
}
