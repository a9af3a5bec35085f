//! A steady-state `DpdSim::step` allocates a bounded number of times,
//! independent of the particle count: the step's `f(t)`/`v(t)` copies and
//! the sweeps' cell-ordered copy, hit, chunk and spill buffers are owned by
//! the simulation and reused. Measured: 0 per step under `Serial`; under
//! `Parallel`, 1 at N = 5 184 (the chunk ranges) and up to 5 at N = 648,
//! whose per-chunk spill lists are still growing after the ten warm-up
//! steps (1 after 200); the bound of 8 leaves no room for a per-particle
//! buffer to come back.
//! Alone in its test binary because the counting allocator is
//! process-global.

use nkg_dpd::sim::{DpdConfig, DpdSim, ForceBackend, WallGeometry};
use nkg_dpd::Box3;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

struct Counting;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: defers to `System` unchanged; the counter is a statistic.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn steady_state_step_allocations_do_not_scale_with_n() {
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .unwrap();
    for backend in [ForceBackend::Serial, ForceBackend::Parallel] {
        for side in [6.0, 12.0] {
            let cfg = DpdConfig {
                seed: 3,
                ..Default::default()
            };
            let bx = Box3::new([0.0; 3], [side; 3], [true; 3]);
            let mut sim = DpdSim::new(cfg, bx, WallGeometry::None);
            sim.force_backend = backend;
            sim.fill_solvent();
            assert_eq!(sim.particles.len(), if side == 6.0 { 648 } else { 5184 });
            let worst = pool.install(|| {
                for _ in 0..10 {
                    sim.step(); // grow the buffers
                }
                (0..10)
                    .map(|_| {
                        let before = ALLOCATIONS.load(Ordering::Relaxed);
                        sim.step();
                        ALLOCATIONS.load(Ordering::Relaxed) - before
                    })
                    .max()
                    .unwrap()
            });
            assert!(
                worst <= 8,
                "{backend:?}, N = {}: {worst} allocations in one step",
                sim.particles.len()
            );
        }
    }
}
