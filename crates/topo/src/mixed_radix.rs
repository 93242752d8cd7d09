//! Mixed-radix coordinate arithmetic shared by the torus and the
//! generalised hypercube.
//!
//! A [`MixedRadix`] maps between linear indices and coordinate vectors for a
//! grid with per-dimension sizes `dims`. Dimension 0 is the fastest-varying
//! (least significant) digit, so linear index
//! `i = c0 + c1*dims[0] + c2*dims[0]*dims[1] + …`.

use serde::{Deserialize, Serialize};

/// Mixed-radix index ↔ coordinate mapping.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct MixedRadix {
    dims: Vec<u32>,
    /// `strides[i]` = product of dims below i.
    strides: Vec<u64>,
    total: u64,
}

impl MixedRadix {
    /// Create a mapping for the given per-dimension sizes.
    ///
    /// Panics if any dimension is zero or if the total size overflows `u64`.
    pub fn new(dims: &[u32]) -> Self {
        assert!(!dims.is_empty(), "at least one dimension required");
        let mut strides = Vec::with_capacity(dims.len());
        let mut acc: u64 = 1;
        for &d in dims {
            assert!(d > 0, "zero-sized dimension");
            strides.push(acc);
            acc = acc.checked_mul(d as u64).expect("grid size overflow");
        }
        MixedRadix {
            dims: dims.to_vec(),
            strides,
            total: acc,
        }
    }

    /// Per-dimension sizes.
    #[inline]
    pub fn dims(&self) -> &[u32] {
        &self.dims
    }

    /// Number of dimensions.
    #[inline]
    pub fn ndims(&self) -> usize {
        self.dims.len()
    }

    /// Total number of grid points.
    #[inline]
    pub fn len(&self) -> u64 {
        self.total
    }

    /// Whether the grid is empty (never true: dims are positive).
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Linear-index step of one unit in dimension `dim`: the product of
    /// the sizes below it.
    #[inline]
    pub fn stride(&self, dim: usize) -> u64 {
        self.strides[dim]
    }

    /// Decode linear index `i` into `coords` (which is resized to fit).
    #[inline]
    pub fn decode_into(&self, i: u64, coords: &mut Vec<u32>) {
        debug_assert!(i < self.total, "index {i} out of range {}", self.total);
        coords.clear();
        let mut rest = i;
        for &d in &self.dims {
            coords.push((rest % d as u64) as u32);
            rest /= d as u64;
        }
    }

    /// Decode linear index `i` into a fresh vector.
    pub fn decode(&self, i: u64) -> Vec<u32> {
        let mut c = Vec::with_capacity(self.dims.len());
        self.decode_into(i, &mut c);
        c
    }

    /// Coordinate of `i` in dimension `dim` without materialising the vector.
    #[inline]
    pub fn coord(&self, i: u64, dim: usize) -> u32 {
        ((i / self.strides[dim]) % self.dims[dim] as u64) as u32
    }

    /// Encode coordinates into a linear index.
    #[inline]
    pub fn encode(&self, coords: &[u32]) -> u64 {
        debug_assert_eq!(coords.len(), self.dims.len());
        let mut i = 0u64;
        for (d, (&c, &s)) in coords.iter().zip(&self.strides).enumerate() {
            debug_assert!(c < self.dims[d], "coord {c} out of range in dim {d}");
            i += c as u64 * s;
        }
        i
    }

    /// Linear index of the neighbour of `i` whose coordinate in `dim` is
    /// replaced by `new_coord`.
    #[inline]
    pub fn with_coord(&self, i: u64, dim: usize, new_coord: u32) -> u64 {
        debug_assert!(new_coord < self.dims[dim]);
        let old = self.coord(i, dim);
        i.wrapping_add(
            (new_coord as u64)
                .wrapping_sub(old as u64)
                .wrapping_mul(self.strides[dim]),
        )
    }

    /// Minimal signed hop count from `a` to `b` along `dim` on a ring:
    /// positive = increasing direction. Ties (exactly half way) resolve to
    /// the positive direction, making DOR deterministic.
    #[inline]
    pub fn ring_delta(&self, a: u32, b: u32, dim: usize) -> i32 {
        let n = self.dims[dim] as i32;
        let fwd = (b as i32 - a as i32).rem_euclid(n);
        if fwd * 2 <= n {
            fwd
        } else {
            fwd - n
        }
    }

    /// Minimal (unsigned) ring distance between coordinates in `dim`.
    #[inline]
    pub fn ring_distance(&self, a: u32, b: u32, dim: usize) -> u32 {
        self.ring_delta(a, b, dim).unsigned_abs()
    }
}

/// Factor `n` into `ndims` near-equal factors (largest first), for sizing
/// generalised hypercubes. The product of the returned dims is ≥ `n` and is
/// the smallest such product achievable with this greedy scheme.
pub fn near_equal_dims(n: u64, ndims: usize) -> Vec<u32> {
    assert!(ndims > 0 && n > 0);
    let mut dims = vec![1u32; ndims];
    let mut product = 1u64;
    // Greedily grow the smallest dimension until the grid is large enough.
    while product < n {
        let (idx, _) = dims
            .iter()
            .enumerate()
            .min_by_key(|&(_, &d)| d)
            .expect("ndims > 0");
        product = product / dims[idx] as u64 * (dims[idx] as u64 + 1);
        dims[idx] += 1;
    }
    dims.sort_unstable_by(|a, b| b.cmp(a));
    dims
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_roundtrip() {
        let m = MixedRadix::new(&[4, 3, 2]);
        assert_eq!(m.len(), 24);
        for i in 0..m.len() {
            let c = m.decode(i);
            assert_eq!(m.encode(&c), i);
        }
    }

    #[test]
    fn dim0_is_fastest() {
        let m = MixedRadix::new(&[4, 3]);
        assert_eq!(m.decode(0), vec![0, 0]);
        assert_eq!(m.decode(1), vec![1, 0]);
        assert_eq!(m.decode(4), vec![0, 1]);
    }

    #[test]
    fn coord_matches_decode() {
        let m = MixedRadix::new(&[5, 7, 3]);
        for i in (0..m.len()).step_by(11) {
            let c = m.decode(i);
            for (d, &expect) in c.iter().enumerate() {
                assert_eq!(m.coord(i, d), expect);
            }
        }
    }

    #[test]
    fn with_coord_replaces_single_dimension() {
        let m = MixedRadix::new(&[4, 4, 4]);
        let i = m.encode(&[1, 2, 3]);
        let j = m.with_coord(i, 1, 0);
        assert_eq!(m.decode(j), vec![1, 0, 3]);
        // Replacing with the same coordinate is the identity.
        assert_eq!(m.with_coord(i, 2, 3), i);
    }

    #[test]
    fn ring_delta_shortest_and_tiebreak() {
        let m = MixedRadix::new(&[8]);
        assert_eq!(m.ring_delta(0, 3, 0), 3);
        assert_eq!(m.ring_delta(0, 5, 0), -3);
        // Exactly halfway: tie resolves positive.
        assert_eq!(m.ring_delta(0, 4, 0), 4);
        assert_eq!(m.ring_delta(6, 2, 0), 4);
        assert_eq!(m.ring_distance(0, 5, 0), 3);
    }

    #[test]
    fn ring_delta_size_two() {
        let m = MixedRadix::new(&[2]);
        assert_eq!(m.ring_delta(0, 1, 0), 1);
        assert_eq!(m.ring_delta(1, 0, 0), 1);
        assert_eq!(m.ring_distance(1, 0, 0), 1);
    }

    #[test]
    fn ring_delta_size_one() {
        let m = MixedRadix::new(&[1]);
        assert_eq!(m.ring_delta(0, 0, 0), 0);
    }

    #[test]
    #[should_panic(expected = "zero-sized")]
    fn zero_dim_panics() {
        MixedRadix::new(&[4, 0]);
    }

    #[test]
    fn near_equal_dims_covers() {
        assert_eq!(near_equal_dims(256, 4), vec![4, 4, 4, 4]);
        let d = near_equal_dims(8192, 4);
        let product: u64 = d.iter().map(|&x| x as u64).product();
        assert!(product >= 8192);
        assert!(d.iter().all(|&x| (9..=10).contains(&x)));
        let d1 = near_equal_dims(17, 1);
        assert_eq!(d1, vec![17]);
        let d2 = near_equal_dims(1, 3);
        assert_eq!(d2, vec![1, 1, 1]);
    }

    #[test]
    fn near_equal_dims_is_tight_for_powers() {
        let d = near_equal_dims(65536, 4);
        let product: u64 = d.iter().map(|&x| x as u64).product();
        assert_eq!(product, 65536);
        assert_eq!(d, vec![16, 16, 16, 16]);
    }
}
