//! Simulation boxes.

/// An axis-aligned simulation box with per-axis periodicity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Box3 {
    /// Lower corner.
    pub lo: [f64; 3],
    /// Upper corner.
    pub hi: [f64; 3],
    /// Periodic flags per axis.
    pub periodic: [bool; 3],
}

impl Box3 {
    /// Create a box; `hi` must exceed `lo` on every axis.
    pub fn new(lo: [f64; 3], hi: [f64; 3], periodic: [bool; 3]) -> Self {
        for d in 0..3 {
            assert!(hi[d] > lo[d], "degenerate box on axis {d}");
        }
        Self { lo, hi, periodic }
    }

    /// Edge lengths.
    pub fn lengths(&self) -> [f64; 3] {
        [
            self.hi[0] - self.lo[0],
            self.hi[1] - self.lo[1],
            self.hi[2] - self.lo[2],
        ]
    }

    /// Volume.
    pub fn volume(&self) -> f64 {
        let l = self.lengths();
        l[0] * l[1] * l[2]
    }

    /// Minimum-image displacement `a − b` respecting periodicity.
    pub fn min_image(&self, a: [f64; 3], b: [f64; 3]) -> [f64; 3] {
        let l = self.lengths();
        let mut d = [a[0] - b[0], a[1] - b[1], a[2] - b[2]];
        for k in 0..3 {
            if self.periodic[k] {
                if d[k] > 0.5 * l[k] {
                    d[k] -= l[k];
                } else if d[k] < -0.5 * l[k] {
                    d[k] += l[k];
                }
            }
        }
        d
    }

    /// Wrap a position into the box along periodic axes (non-periodic axes
    /// are left untouched — walls/inflow handle those).
    pub fn wrap(&self, p: &mut [f64; 3]) {
        for k in 0..3 {
            p[k] = self.wrap_axis(k, p[k]);
        }
    }

    /// [`Box3::wrap`] for one coordinate along axis `k`.
    #[inline]
    pub fn wrap_axis(&self, k: usize, mut x: f64) -> f64 {
        if self.periodic[k] {
            let l = self.hi[k] - self.lo[k];
            while x >= self.hi[k] {
                x -= l;
            }
            while x < self.lo[k] {
                x += l;
            }
        }
        x
    }

    /// Whether the point is inside (non-strict upper bound).
    pub fn contains(&self, p: [f64; 3]) -> bool {
        (0..3).all(|k| p[k] >= self.lo[k] && p[k] <= self.hi[k])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b() -> Box3 {
        Box3::new([0.0; 3], [10.0, 5.0, 4.0], [true, false, true])
    }

    #[test]
    fn geometry() {
        let bx = b();
        assert_eq!(bx.lengths(), [10.0, 5.0, 4.0]);
        assert_eq!(bx.volume(), 200.0);
    }

    #[test]
    fn min_image_wraps_periodic_axes() {
        let bx = b();
        let d = bx.min_image([9.5, 0.0, 0.0], [0.5, 0.0, 0.0]);
        assert!((d[0] + 1.0).abs() < 1e-12, "{d:?}");
        // Non-periodic axis keeps the raw distance.
        let d = bx.min_image([0.0, 4.5, 0.0], [0.0, 0.5, 0.0]);
        assert_eq!(d[1], 4.0);
    }

    #[test]
    fn wrap_moves_into_box() {
        let bx = b();
        let mut p = [12.5, 6.0, -1.0];
        bx.wrap(&mut p);
        assert_eq!(p[0], 2.5);
        assert_eq!(p[1], 6.0); // y not periodic: untouched
        assert_eq!(p[2], 3.0);
    }

    #[test]
    #[should_panic(expected = "degenerate")]
    fn degenerate_rejected() {
        Box3::new([0.0; 3], [1.0, 0.0, 1.0], [true; 3]);
    }
}
