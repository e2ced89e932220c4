//! CRC32 (IEEE 802.3, the zlib/gzip polynomial): the one implementation
//! behind every checksum the workspace persists — block indexes and run
//! frames here, the urn metadata of `motivo-core`, and the journal,
//! manifest and replication frames of `motivo-store` (re-exported as
//! `motivo_core::checksum`). Table-driven with the table built at compile
//! time: a block index holds one entry per 1 KiB block, so the bitwise
//! loop would cost milliseconds per level.

const TABLE: [u32; 256] = {
    let mut t = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            bit += 1;
        }
        t[i] = c;
        i += 1;
    }
    t
};

/// An incremental CRC32 accumulator.
#[derive(Clone, Debug)]
pub struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Crc32 {
        Crc32::new()
    }
}

impl Crc32 {
    pub fn new() -> Crc32 {
        Crc32 { state: 0xFFFF_FFFF }
    }

    /// Folds `data` into the running checksum.
    pub fn update(&mut self, data: &[u8]) {
        for &b in data {
            self.state = TABLE[((self.state ^ b as u32) & 0xFF) as usize] ^ (self.state >> 8);
        }
    }

    /// The final checksum value.
    pub fn finish(&self) -> u32 {
        self.state ^ 0xFFFF_FFFF
    }
}

/// One-shot CRC32 of a byte slice.
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(data);
    c.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // Standard CRC32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn incremental_equals_one_shot() {
        let mut c = Crc32::new();
        c.update(b"The quick brown fox ");
        c.update(b"jumps over the lazy dog");
        assert_eq!(c.finish(), 0x414F_A339);
    }

    #[test]
    fn detects_single_bit_flips() {
        let base = b"motivo urn metadata".to_vec();
        let want = crc32(&base);
        for byte in 0..base.len() {
            for bit in 0..8 {
                let mut flipped = base.clone();
                flipped[byte] ^= 1 << bit;
                assert_ne!(crc32(&flipped), want);
            }
        }
    }
}
