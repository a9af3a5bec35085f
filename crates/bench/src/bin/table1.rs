//! Table 1: SIMD speed-up factors for the three basic kernels.
//!
//! Paper (Cray XT5 / BG-P): `z=x*y` 2.00/3.40, `sum x*y*z` 2.53/1.60,
//! `sum x*y*y` 4.00/2.25. We measure the same kernels on this host:
//! scalar baseline vs the vectorised tier — and, next to them, the rate of
//! `vecmat` at the two shapes the SEM layer calls it with: one row of a
//! tensor contraction and one condensed symmetric product.

use nkg_bench::{header, time_median};
use nkg_simd::kernels::*;

fn main() {
    let n = 65_536;
    let reps = 200;
    let fill = |f: fn(f64) -> f64| (0..n).map(|i| f(i as f64)).collect::<Vec<f64>>();
    let x = fill(|i| (i * 0.001).sin());
    let y = fill(|i| (i * 0.002).cos() + 1.5);
    let zv = fill(|i| 1.0 / (1.0 + i));
    let mut out = vec![0.0; n];

    header("Table 1: SIMD performance tuning speed-up factors");
    println!("kernel                      paper XT5  paper BG/P  this host (vectorised)");
    let row = |kernel: &str, xt5: f64, bgp: f64, t_scalar: f64, t_vec: f64| {
        println!(
            "{kernel:<26}  {xt5:>9}  {bgp:>10}  {:>22.2}",
            t_scalar / t_vec
        );
    };

    let t_scalar = time_median(reps, || mul_scalar(&mut out, &x, &y));
    let t_vec = time_median(reps, || mul_vec(&mut out, &x, &y));
    row("z[i] = x[i]*y[i]", 2.00, 3.40, t_scalar, t_vec);

    let mut sink = 0.0;
    let t_scalar = time_median(reps, || sink += triple_dot_scalar(&x, &y, &zv));
    let t_vec = time_median(reps, || sink += triple_dot_vec(&x, &y, &zv));
    row("a = sum x[i]*y[i]*z[i]", 2.53, 1.60, t_scalar, t_vec);

    let t_scalar = time_median(reps, || sink += wdot_scalar(&x, &y));
    let t_vec = time_median(reps, || sink += wdot_vec(&x, &y));
    row("a = sum x[i]*y[i]*y[i]", 4.00, 2.25, t_scalar, t_vec);

    // The two shapes the SEM layer calls `vecmat` with, in cache: no scalar
    // tier exists to divide by, so the rate itself.
    let mut sweep = |kernel: &str, rows: usize, cols: usize, calls: usize| {
        let b = &x.as_slice()[..rows * cols];
        let (xs, ys) = (&y.as_slice()[..rows], &mut out.as_mut_slice()[..cols]);
        let t = time_median(reps, || {
            for _ in 0..calls {
                vecmat(std::hint::black_box(xs), b, ys);
            }
        });
        let gflops = (2 * rows * cols * calls) as f64 / t / 1e9;
        println!("{kernel:<26}  {:>9}  {:>10}  {gflops:>17.2} GF/s", "-", "-");
    };
    sweep("y = B'x, 9x9 (P=8 row)", 9, 9, 4096);
    sweep("y = S x, 32x32 (P=8 S_e)", 32, 32, 512);

    std::hint::black_box(sink);
    println!("\n(shape check: the vectorised tier should beat the scalar baseline by >1x,");
    println!(" matching the paper's 1.5-4x band on its 2011 hardware)");
}
