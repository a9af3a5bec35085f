//! A steady-state `Multipatch2d::step` allocates nothing: the interface
//! exchange writes donor values into per-link buffers and the solvers'
//! override slots (no per-step maps), an NS step runs in its workspace,
//! the elliptic engines own their CG, lifting and projection buffers.
//! Measured at one pool thread, where the per-patch fan-out stays on the
//! calling thread; the warm-up covers the
//! viscous engine's rebuild on the order ramp and the projection bases
//! filling to their depth. Alone in its test binary because the counting
//! allocator is process-global.

use nkg_coupling::multipatch::poiseuille_multipatch;
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
fn steady_state_multipatch_step_allocates_nothing() {
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .unwrap();
    let mut mp = poiseuille_multipatch(6.0, 1.0, 12, 2, 3, 4, 0.5, 0.4, 5e-3);
    let mut per_step = [usize::MAX; 10];
    pool.install(|| {
        for _ in 0..30 {
            mp.step();
        }
        for count in &mut per_step {
            let before = ALLOCATIONS.load(Ordering::Relaxed);
            mp.step();
            *count = ALLOCATIONS.load(Ordering::Relaxed) - before;
        }
    });
    assert_eq!(per_step, [0; 10], "allocations per step");
}
