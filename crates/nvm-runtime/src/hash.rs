//! The one FNV-1a hash the crash engine keys its state on: crash-image
//! content hashes, equivalence-class keys, and the sweep journal's config
//! fingerprint. Values are stable across runs and platforms.

const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const PRIME: u64 = 0x0000_0100_0000_01b3;

/// Incremental FNV-1a state.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(OFFSET)
    }
}

impl Fnv {
    /// Fold in bytes one at a time (classic FNV-1a).
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.word(b as u64);
        }
    }

    /// Fold in a whole 64-bit word as a single step: eight times cheaper
    /// than [`Fnv::bytes`] on its little-endian bytes, with different
    /// values.
    pub fn word(&mut self, w: u64) {
        self.0 ^= w;
        self.0 = self.0.wrapping_mul(PRIME);
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// FNV-1a over `bytes`.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv::default();
    h.bytes(bytes);
    h.finish()
}

/// FNV-1a over the little-endian bytes of `words` — the key of a tuple
/// of hashes and counters.
pub fn fnv1a_words(words: &[u64]) -> u64 {
    let mut h = Fnv::default();
    for w in words {
        h.bytes(&w.to_le_bytes());
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_fnv1a_reference_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn words_hash_as_their_little_endian_bytes() {
        let words = [1u64, 0xdead_beef, u64::MAX];
        let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
        assert_eq!(fnv1a_words(&words), fnv1a(&bytes));
    }
}
