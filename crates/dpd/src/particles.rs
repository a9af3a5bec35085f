//! Structure-of-arrays particle storage.
//!
//! Every per-particle scalar lives in its own `Vec<f64>` component array
//! (`x/y/z`, `vx/vy/vz`, `fx/fy/fz`), the layout the paper's Table-1
//! SIMDization assumes: the per-particle passes of a step stream each
//! component contiguously, and the force sweep copies the components it
//! reads into cell order ([`crate::force`]). The loops take slices and
//! use unaligned vector loads, so the arrays need no special alignment.

/// Aggregation state of a platelet particle (solvent particles stay
/// [`PlateletState::NotPlatelet`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlateletState {
    /// Not a platelet (solvent / cell species).
    NotPlatelet,
    /// Passive platelet, advected with the flow.
    Passive,
    /// Triggered at the stored simulation step; becomes active after the
    /// activation delay.
    Triggered(u64),
    /// Active: feels adhesive interactions.
    Active,
    /// Bonded to a wall adhesion site (index stored).
    Adhered(u32),
}

/// SoA particle container: nine component arrays plus species and
/// platelet state. Removal is O(1) swap-remove (order is not preserved).
#[derive(Debug, Clone, Default)]
pub struct Particles {
    /// Position components.
    pub x: Vec<f64>,
    /// Position components.
    pub y: Vec<f64>,
    /// Position components.
    pub z: Vec<f64>,
    /// Velocity components.
    pub vx: Vec<f64>,
    /// Velocity components.
    pub vy: Vec<f64>,
    /// Velocity components.
    pub vz: Vec<f64>,
    /// Accumulated force components.
    pub fx: Vec<f64>,
    /// Accumulated force components.
    pub fy: Vec<f64>,
    /// Accumulated force components.
    pub fz: Vec<f64>,
    /// Species index (row into the interaction matrix).
    pub species: Vec<u8>,
    /// Platelet state.
    pub state: Vec<PlateletState>,
}

impl Particles {
    /// Empty container.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of particles.
    pub fn len(&self) -> usize {
        self.x.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.x.is_empty()
    }

    /// Position of particle `i`.
    #[inline]
    pub fn pos(&self, i: usize) -> [f64; 3] {
        [self.x[i], self.y[i], self.z[i]]
    }

    /// Velocity of particle `i`.
    #[inline]
    pub fn vel(&self, i: usize) -> [f64; 3] {
        [self.vx[i], self.vy[i], self.vz[i]]
    }

    /// Accumulated force on particle `i`.
    #[inline]
    pub fn force(&self, i: usize) -> [f64; 3] {
        [self.fx[i], self.fy[i], self.fz[i]]
    }

    /// Overwrite the position of particle `i`.
    #[inline]
    pub fn set_pos(&mut self, i: usize, p: [f64; 3]) {
        self.x[i] = p[0];
        self.y[i] = p[1];
        self.z[i] = p[2];
    }

    /// Overwrite the velocity of particle `i`.
    #[inline]
    pub fn set_vel(&mut self, i: usize, v: [f64; 3]) {
        self.vx[i] = v[0];
        self.vy[i] = v[1];
        self.vz[i] = v[2];
    }

    /// Accumulate `f` onto the force of particle `i`.
    #[inline]
    pub fn add_force(&mut self, i: usize, f: [f64; 3]) {
        self.fx[i] += f[0];
        self.fy[i] += f[1];
        self.fz[i] += f[2];
    }

    /// Positions interleaved back to AoS (checkpoint encode / interop).
    pub fn pos_aos(&self) -> Vec<[f64; 3]> {
        (0..self.len()).map(|i| self.pos(i)).collect()
    }

    /// Velocities interleaved back to AoS.
    pub fn vel_aos(&self) -> Vec<[f64; 3]> {
        (0..self.len()).map(|i| self.vel(i)).collect()
    }

    /// Forces interleaved back to AoS.
    pub fn force_aos(&self) -> Vec<[f64; 3]> {
        (0..self.len()).map(|i| self.force(i)).collect()
    }

    /// Rebuild SoA storage from AoS arrays (checkpoint restore).
    pub fn from_aos(
        pos: &[[f64; 3]],
        vel: &[[f64; 3]],
        force: &[[f64; 3]],
        species: Vec<u8>,
        state: Vec<PlateletState>,
    ) -> Self {
        let n = pos.len();
        assert!(vel.len() == n && force.len() == n && species.len() == n && state.len() == n);
        let comp = |src: &[[f64; 3]], k: usize| -> Vec<f64> { src.iter().map(|v| v[k]).collect() };
        Self {
            x: comp(pos, 0),
            y: comp(pos, 1),
            z: comp(pos, 2),
            vx: comp(vel, 0),
            vy: comp(vel, 1),
            vz: comp(vel, 2),
            fx: comp(force, 0),
            fy: comp(force, 1),
            fz: comp(force, 2),
            species,
            state,
        }
    }

    /// Append a particle; returns its index.
    pub fn push(&mut self, pos: [f64; 3], vel: [f64; 3], species: u8) -> usize {
        self.x.push(pos[0]);
        self.y.push(pos[1]);
        self.z.push(pos[2]);
        self.vx.push(vel[0]);
        self.vy.push(vel[1]);
        self.vz.push(vel[2]);
        self.fx.push(0.0);
        self.fy.push(0.0);
        self.fz.push(0.0);
        self.species.push(species);
        self.state.push(PlateletState::NotPlatelet);
        self.x.len() - 1
    }

    /// Append `n` particles of `species`, particle `len() + k` at
    /// `init(k) = (position, velocity)`, writing the component arrays in
    /// place over the rayon pool. Each array is sized once; `init` sees
    /// only `k`, so the result is the same at every pool width, and the
    /// same as pushing the particles one by one.
    pub(crate) fn extend_par(
        &mut self,
        n: usize,
        species: u8,
        init: impl Fn(usize) -> ([f64; 3], [f64; 3]) + Sync,
    ) {
        use rayon::prelude::*;
        let base = self.len();
        let len = base + n;
        for v in [
            &mut self.x,
            &mut self.y,
            &mut self.z,
            &mut self.vx,
            &mut self.vy,
            &mut self.vz,
            &mut self.fx,
            &mut self.fy,
            &mut self.fz,
        ] {
            v.resize(len, 0.0);
        }
        self.species.resize(len, species);
        self.state.resize(len, PlateletState::NotPlatelet);
        self.x[base..]
            .par_iter_mut()
            .zip(self.y[base..].par_iter_mut())
            .zip(self.z[base..].par_iter_mut())
            .zip(self.vx[base..].par_iter_mut())
            .zip(self.vy[base..].par_iter_mut())
            .zip(self.vz[base..].par_iter_mut())
            .enumerate()
            .for_each(|(k, (((((x, y), z), vx), vy), vz))| {
                let (p, v) = init(k);
                [*x, *y, *z] = p;
                [*vx, *vy, *vz] = v;
            });
    }

    /// Append a platelet in the passive state.
    pub fn push_platelet(&mut self, pos: [f64; 3], vel: [f64; 3], species: u8) -> usize {
        let i = self.push(pos, vel, species);
        self.state[i] = PlateletState::Passive;
        i
    }

    /// Remove by swap; the last particle takes index `i`.
    pub fn swap_remove(&mut self, i: usize) {
        self.x.swap_remove(i);
        self.y.swap_remove(i);
        self.z.swap_remove(i);
        self.vx.swap_remove(i);
        self.vy.swap_remove(i);
        self.vz.swap_remove(i);
        self.fx.swap_remove(i);
        self.fy.swap_remove(i);
        self.fz.swap_remove(i);
        self.species.swap_remove(i);
        self.state.swap_remove(i);
    }

    /// Zero all force accumulators.
    pub fn clear_forces(&mut self) {
        self.fx.fill(0.0);
        self.fy.fill(0.0);
        self.fz.fill(0.0);
    }

    /// Total momentum (unit mass).
    pub fn momentum(&self) -> [f64; 3] {
        // Per-component accumulator chains match the pre-SoA loop order
        // (each component was already an independent accumulator).
        let mut p = [0.0; 3];
        for &v in self.vx.iter() {
            p[0] += v;
        }
        for &v in self.vy.iter() {
            p[1] += v;
        }
        for &v in self.vz.iter() {
            p[2] += v;
        }
        p
    }

    /// Instantaneous kinetic temperature `2/(3N) Σ ½|v − v̄|²` (unit mass,
    /// k_B = 1, measured in the mean-velocity frame).
    pub fn temperature(&self) -> f64 {
        let n = self.len();
        if n < 2 {
            return 0.0;
        }
        let p = self.momentum();
        let vbar = [p[0] / n as f64, p[1] / n as f64, p[2] / n as f64];
        let mut ke = 0.0;
        for i in 0..n {
            for (k, &vk) in [self.vx[i], self.vy[i], self.vz[i]].iter().enumerate() {
                let dv = vk - vbar[k];
                ke += 0.5 * dv * dv;
            }
        }
        2.0 * ke / (3.0 * n as f64)
    }

    /// Count of particles in a given species.
    pub fn count_species(&self, species: u8) -> usize {
        self.species.iter().filter(|&&s| s == species).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_remove() {
        let mut p = Particles::new();
        p.push([0.0; 3], [1.0, 0.0, 0.0], 0);
        p.push([1.0; 3], [0.0, 2.0, 0.0], 1);
        p.push([2.0; 3], [0.0, 0.0, 3.0], 0);
        assert_eq!(p.len(), 3);
        p.swap_remove(0);
        assert_eq!(p.len(), 2);
        // Last particle moved into slot 0.
        assert_eq!(p.pos(0), [2.0; 3]);
        assert_eq!(p.count_species(0), 1);
    }

    #[test]
    fn momentum_sums() {
        let mut p = Particles::new();
        p.push([0.0; 3], [1.0, -2.0, 0.5], 0);
        p.push([0.0; 3], [-1.0, 2.0, 0.5], 0);
        assert_eq!(p.momentum(), [0.0, 0.0, 1.0]);
    }

    #[test]
    fn temperature_in_com_frame() {
        let mut p = Particles::new();
        // Two particles moving together: zero thermal motion.
        p.push([0.0; 3], [5.0, 0.0, 0.0], 0);
        p.push([1.0; 3], [5.0, 0.0, 0.0], 0);
        assert_eq!(p.temperature(), 0.0);
        // Opposing velocities: T = 2/(3*2) * (0.5+0.5) = 1/3.
        let mut q = Particles::new();
        q.push([0.0; 3], [1.0, 0.0, 0.0], 0);
        q.push([1.0; 3], [-1.0, 0.0, 0.0], 0);
        assert!((q.temperature() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn platelet_state_defaults() {
        let mut p = Particles::new();
        let a = p.push([0.0; 3], [0.0; 3], 0);
        let b = p.push_platelet([0.0; 3], [0.0; 3], 1);
        assert_eq!(p.state[a], PlateletState::NotPlatelet);
        assert_eq!(p.state[b], PlateletState::Passive);
    }

    #[test]
    fn aos_round_trip_preserves_everything() {
        let mut p = Particles::new();
        p.push([1.0, 2.0, 3.0], [0.1, 0.2, 0.3], 0);
        p.push_platelet([4.0, 5.0, 6.0], [0.4, 0.5, 0.6], 1);
        p.add_force(0, [7.0, 8.0, 9.0]);
        let q = Particles::from_aos(
            &p.pos_aos(),
            &p.vel_aos(),
            &p.force_aos(),
            p.species.clone(),
            p.state.clone(),
        );
        assert_eq!(q.len(), 2);
        assert_eq!(q.pos(0), [1.0, 2.0, 3.0]);
        assert_eq!(q.vel(1), [0.4, 0.5, 0.6]);
        assert_eq!(q.force(0), [7.0, 8.0, 9.0]);
        assert_eq!(q.species, p.species);
        assert_eq!(q.state, p.state);
    }
}
