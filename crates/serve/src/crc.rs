//! In-repo CRC-32 (IEEE 802.3, reflected, polynomial `0xEDB88320`) — the
//! checksum carried by every WAL line, segment header, manifest,
//! replication manifest entry, and network frame.
//!
//! The workspace builds with zero registry dependencies (see README.md,
//! "Offline dependency shims"), so the WAL cannot pull a crc crate; this is
//! the standard slicing-by-8 table implementation, in safe Rust, with its
//! eight tables built in a `const` initializer. Each 8-byte step folds the
//! running CRC into the first four bytes and looks all eight bytes up in
//! parallel tables, instead of eight dependent byte-at-a-time lookups; the
//! tail shorter than 8 bytes runs byte-at-a-time on table 0. It computes
//! the same function as the byte-at-a-time loop, which the tests keep as a
//! reference and check it against.
//!
//! The exact variant matters only in that it is **pinned**: checksums are
//! persisted, so changing the polynomial or the reflection would
//! invalidate every WAL segment on disk. The vectors in the tests below
//! (the classic `"123456789"` check value `0xCBF43926`) pin it.

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

    /// Absorb a chunk of bytes.
    pub fn update(&mut self, bytes: &[u8]) {
        let [t0, t1, t2, t3, t4, t5, t6, t7] = &TABLES;
        let mut crc = self.0;
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
        self.0 = crc;
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

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The byte-at-a-time loop: the reference slicing-by-8 must equal.
    fn reference(bytes: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFF_u32;
        for &b in bytes {
            crc = (crc >> 8) ^ TABLES[0][((crc ^ u32::from(b)) & 0xFF) as usize];
        }
        crc ^ 0xFFFF_FFFF
    }

    #[test]
    fn slicing_by_8_equals_byte_at_a_time_at_every_length() {
        let data: Vec<u8> =
            (0u32..300).map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8).collect();
        for len in 0..=data.len() {
            assert_eq!(crc32(&data[..len]), reference(&data[..len]), "length {len}");
        }
    }

    proptest! {
        #[test]
        fn slicing_by_8_equals_reference_under_random_splits(
            data in proptest::collection::vec(any::<u8>(), 0..=300),
            cuts in proptest::collection::vec(0usize..=300, 0..6),
        ) {
            let want = reference(&data);
            prop_assert_eq!(crc32(&data), want);
            let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c.min(data.len())).collect();
            cuts.sort_unstable();
            let mut acc = Crc32::new();
            let mut from = 0;
            for cut in cuts.into_iter().chain([data.len()]) {
                acc.update(&data[from..cut]);
                from = cut;
            }
            prop_assert_eq!(acc.finish(), want);
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
    }

    #[test]
    fn streaming_matches_one_shot() {
        let data: Vec<u8> = (0u16..2048).map(|i| (i % 251) as u8).collect();
        let whole = crc32(&data);
        for chunk in [1usize, 3, 7, 64, 1000] {
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
