//! A minimal Fx-style hasher (the rustc/Firefox multiply-rotate hash) for
//! the workspace's hot maps.
//!
//! The analysis trace collector keys its abstract heap on small
//! fixed-width tuples, and the runtime's shadow memory keys its lines on
//! a line index; both touch those maps on every store/load. The standard
//! library's SipHash — keyed and DoS-resistant, neither of which matters
//! for process-local integer keys — costs more than the rest of the step
//! combined. This is the classic word-at-a-time Fx mix, written out here
//! (in the crate every other crate already depends on) because the
//! workspace vendors no external hasher crate.
//!
//! Not for anything attacker-influenced or anything whose iteration order
//! leaks into output: the checker's determinism comes from sorting at the
//! edges, never from map order.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// `HashMap` keyed by [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// `HashSet` keyed by [`FxHasher`].
pub type FxHashSet<T> = HashSet<T, BuildHasherDefault<FxHasher>>;

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// Word-at-a-time multiply-rotate hasher.
#[derive(Debug, Default, Clone)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add(u64::from_le_bytes(c.try_into().unwrap()));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.add(v as u64);
    }

    #[inline]
    fn write_u16(&mut self, v: u16) {
        self.add(v as u64);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add(v as u64);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }

    #[inline]
    fn write_u128(&mut self, v: u128) {
        self.add(v as u64);
        self.add((v >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add(v as u64);
    }

    #[inline]
    fn write_i64(&mut self, v: i64) {
        self.add(v as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::Hash;

    fn hash_of<T: Hash>(v: T) -> u64 {
        let mut h = FxHasher::default();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn equal_keys_hash_equal() {
        let a = (7u32, 3u32, Some(11i64));
        let b = (7u32, 3u32, Some(11i64));
        assert_eq!(hash_of(a), hash_of(b));
    }

    #[test]
    fn nearby_keys_spread() {
        // Not a statistical test — just that the mix isn't the identity on
        // the low bits the hash-map actually indexes with.
        let h1 = hash_of((1u32, 0u32, None::<i64>)) as usize % 64;
        let h2 = hash_of((2u32, 0u32, None::<i64>)) as usize % 64;
        let h3 = hash_of((1u32, 1u32, None::<i64>)) as usize % 64;
        assert!(h1 != h2 || h1 != h3, "consecutive keys must not all collide");
    }

    #[test]
    fn byte_slices_hash_by_content() {
        assert_eq!(hash_of("hello world"), hash_of(String::from("hello world").as_str()));
        assert_ne!(hash_of("hello world"), hash_of("hello worle"));
    }

    #[test]
    fn map_roundtrip() {
        let mut m: FxHashMap<(u32, u32, Option<i64>), u32> = FxHashMap::default();
        for i in 0..1000u32 {
            m.insert((i, i % 7, (i % 3 == 0).then_some(i as i64)), i);
        }
        for i in 0..1000u32 {
            assert_eq!(m.get(&(i, i % 7, (i % 3 == 0).then_some(i as i64))), Some(&i));
        }
    }
}
