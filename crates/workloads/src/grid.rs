//! 3-D virtual task grid shared by Sweep3D, Flood and Near-Neighbours.

/// A `gx × gy × gz` grid of tasks, task id = `x + gx*(y + gy*z)`.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Grid3 {
    /// Tasks along X.
    pub gx: u32,
    /// Tasks along Y.
    pub gy: u32,
    /// Tasks along Z.
    pub gz: u32,
}

impl Grid3 {
    /// Create a grid; all dimensions must be positive.
    pub fn new(gx: u32, gy: u32, gz: u32) -> Self {
        assert!(gx > 0 && gy > 0 && gz > 0, "grid dims must be positive");
        Grid3 { gx, gy, gz }
    }

    /// A near-cubic grid with exactly `n` tasks when `n` has a suitable
    /// factorisation: chooses `gx >= gy >= gz` with `gx*gy*gz <= n` as
    /// close to the cube root as possible (never exceeds `n` tasks). Only
    /// the tests size grids this way.
    #[cfg(test)]
    pub fn fitting(n: usize) -> Self {
        assert!(n >= 1);
        let c = (n as f64).cbrt().floor() as u32;
        let gz = c.max(1);
        let rest = n as u32 / gz;
        let c2 = (rest as f64).sqrt().floor() as u32;
        let gy = c2.max(1);
        let gx = (rest / gy).max(1);
        Grid3::new(gx.max(gy), gy.min(gx).max(1), gz)
    }

    /// Total number of tasks.
    pub fn len(&self) -> usize {
        (self.gx * self.gy * self.gz) as usize
    }

    /// Task id of `(x, y, z)`.
    #[inline]
    pub fn id(&self, x: u32, y: u32, z: u32) -> usize {
        debug_assert!(x < self.gx && y < self.gy && z < self.gz);
        (x + self.gx * (y + self.gy * z)) as usize
    }

    /// Coordinates of a task id.
    #[inline]
    pub fn coords(&self, id: usize) -> (u32, u32, u32) {
        let id = id as u32;
        (
            id % self.gx,
            (id / self.gx) % self.gy,
            id / (self.gx * self.gy),
        )
    }

    /// Iterate all task coordinates in id order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, u32, u32)> + '_ {
        (0..self.len()).map(|i| self.coords(i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn id_coords_roundtrip() {
        let g = Grid3::new(4, 3, 2);
        assert_eq!(g.len(), 24);
        for i in 0..g.len() {
            let (x, y, z) = g.coords(i);
            assert_eq!(g.id(x, y, z), i);
        }
    }

    #[test]
    fn fitting_never_exceeds() {
        for n in [1usize, 7, 8, 27, 60, 64, 100, 512, 1000, 4096] {
            let g = Grid3::fitting(n);
            assert!(g.len() <= n, "n={n} got {:?}", g);
            assert!(g.len() >= n / 4, "n={n} too small: {:?}", g);
        }
    }

    #[test]
    fn fitting_exact_cubes() {
        let g = Grid3::fitting(64);
        assert_eq!(g.len(), 64);
        let g = Grid3::fitting(512);
        assert_eq!(g.len(), 512);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_dim_panics() {
        Grid3::new(0, 1, 1);
    }
}
