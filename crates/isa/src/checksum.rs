//! Small hashing helpers used for state validation.

/// The FNV-1a 64-bit offset basis.
const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// The FNV 64-bit prime.
const PRIME: u64 = 0x0000_0100_0000_01b3;
/// The step over eight zero bytes: XOR with zero is the identity, so each
/// zero byte only multiplies by [`PRIME`].
const PRIME_8: u64 = PRIME.wrapping_pow(8);

/// FNV-1a over a byte slice.
///
/// Memory images are mostly zero, so an all-zero 8-byte chunk takes one
/// multiplication by [`PRIME_8`]; the result equals the byte-serial hash.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = OFFSET;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let word: [u8; 8] = chunk.try_into().expect("an exact chunk");
        if u64::from_ne_bytes(word) == 0 {
            h = h.wrapping_mul(PRIME_8);
        } else {
            h = bytewise(h, chunk);
        }
    }
    bytewise(h, chunks.remainder())
}

/// FNV-1a steps over `bytes` from state `h`, one byte at a time.
fn bytewise(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(PRIME);
    }
    h
}

/// FNV-1a over a slice of `u64` values (little-endian byte order).
pub fn fnv1a_u64(values: &[u64]) -> u64 {
    values.iter().fold(OFFSET, |h, v| bytewise(h, &v.to_le_bytes()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vector() {
        // FNV-1a of the empty string is the offset basis.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        // FNV-1a of "a".
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    /// FNV-1a as defined: one XOR and one multiplication per byte.
    fn byte_serial(bytes: &[u8]) -> u64 {
        bytes
            .iter()
            .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3))
    }

    #[test]
    fn zero_words_hash_like_the_byte_serial_reference() {
        // A 64-bit xorshift keeps this crate free of dependencies.
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for case in 0..200 {
            // Runs of zeros (some long, some shorter than a word) between
            // runs of random bytes, as in a mostly empty memory image.
            let mut image = Vec::new();
            while image.len() < 600 {
                let run = (next() % 40) as usize;
                if next() % 3 == 0 {
                    image.extend((0..run).map(|_| next() as u8));
                } else {
                    image.resize(image.len() + run, 0);
                }
            }
            for start in 0..8 {
                for len in (0..=80).chain([255, 256, 257, 511]) {
                    let bytes = &image[start..start + len];
                    assert_eq!(fnv1a(bytes), byte_serial(bytes), "case {case} [{start}; {len}]");
                }
            }
        }
        assert_eq!(fnv1a(&[0; 4096]), byte_serial(&[0; 4096]));
    }

    #[test]
    fn u64_matches_bytes() {
        assert_eq!(fnv1a_u64(&[0x0102_0304_0506_0708]), fnv1a(&[8, 7, 6, 5, 4, 3, 2, 1]));
    }
}
