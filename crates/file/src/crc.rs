//! CRC-32 (IEEE 802.3 polynomial), implemented from scratch so the file
//! format has end-to-end corruption detection without external
//! dependencies.

/// The reflected IEEE polynomial.
const POLY: u32 = 0xEDB8_8320;

/// A 256-entry lookup table computed at compile time.
#[expect(
    clippy::indexing_slicing,
    reason = "i < 256 by the loop bound; const eval rejects any OOB"
)]
const TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                crc >> 1 ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

/// An incremental CRC-32 hasher.
#[derive(Debug, Clone)]
pub struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc32 {
    /// A fresh hasher.
    pub fn new() -> Self {
        Crc32 { state: 0xFFFF_FFFF }
    }

    /// Feeds bytes into the hash.
    #[expect(
        clippy::indexing_slicing,
        reason = "index is masked to 8 bits and TABLE has 256 entries"
    )]
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state = self.state >> 8 ^ TABLE[((self.state ^ b as u32) & 0xFF) as usize];
        }
    }

    /// Finishes and returns the checksum.
    pub fn finish(&self) -> u32 {
        !self.state
    }
}

/// One-shot CRC-32 of a byte slice.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut h = Crc32::new();
    h.update(bytes);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // Standard test vectors for CRC-32/ISO-HDLC.
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
        assert_eq!(crc32(&[0u8; 32]), 0x190A_55AD);
        assert_eq!(crc32(&[0xFFu8; 32]), 0xFF6C_AB0B);
    }

    #[test]
    fn incremental_equals_oneshot() {
        let data = b"hello, augmented vector quantization";
        let mut h = Crc32::new();
        h.update(&data[..10]);
        h.update(&data[10..]);
        assert_eq!(h.finish(), crc32(data));
    }

    #[test]
    fn detects_single_bit_flip() {
        let data = vec![7u8; 100];
        let base = crc32(&data);
        for i in 0..data.len() {
            for bit in 0..8 {
                let mut bad = data.clone();
                bad[i] ^= 1 << bit;
                assert_ne!(crc32(&bad), base, "flip at {i}.{bit} undetected");
            }
        }
    }
}
