//! A multiply-rotate hasher for the per-run memo tables keyed by small
//! integers (endpoint pairs, flow ids).
//!
//! `std`'s default SipHash is keyed against crafted collisions; these
//! tables hash ids the program generated itself, once per flow, so they
//! pay for a protection they cannot use. Nothing may depend on the
//! iteration order of an [`IntMap`] — as with any `HashMap`, sort or
//! `retain` instead.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// The FxHash recipe: per word, rotate, xor, multiply by an odd constant.
/// The multiply leaves its entropy in the high bits and hash tables index
/// by the low ones, so `finish` rotates the high bits down.
#[derive(Clone, Copy, Debug, Default)]
pub struct IntHasher(u64);

impl IntHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl Hasher for IntHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.add(b as u64);
        }
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(i as u64);
    }
}

/// A `HashMap` over `u32` or `u32`-tuple keys hashed with [`IntHasher`]
/// (any other key still hashes correctly, one round per byte).
pub type IntMap<K, V> = HashMap<K, V, BuildHasherDefault<IntHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::Hash;

    fn hash_of<T: Hash>(v: T) -> u64 {
        let mut h = IntHasher::default();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn dense_pairs_do_not_collide_and_order_matters() {
        let mut seen = std::collections::HashSet::new();
        for a in 0..256u32 {
            for b in 0..256u32 {
                assert!(seen.insert(hash_of((a, b))), "({a}, {b}) collided");
            }
        }
        assert_ne!(hash_of((1u32, 2u32)), hash_of((2u32, 1u32)));
    }

    #[test]
    fn int_map_behaves_like_a_map() {
        let mut m: IntMap<(u32, u32), u32> = IntMap::default();
        for i in 0..1000u32 {
            m.insert((i, i ^ 1), i);
        }
        assert_eq!(m.len(), 1000);
        assert_eq!(m.get(&(7, 6)), Some(&7));
        m.retain(|_, v| *v % 2 == 0);
        assert_eq!(m.len(), 500);
        assert_eq!(m.get(&(7, 6)), None);
    }
}
