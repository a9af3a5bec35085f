//! Shared helpers for the table/figure harness binaries.
//!
//! Each binary under `src/bin/` regenerates one table or figure of the
//! paper's evaluation section and prints the same rows/series the paper
//! reports, side by side with the paper's published values where they
//! exist. Run them with `cargo run --release -p nkg-bench --bin <name>`:
//!
//! | binary            | reproduces                                        |
//! |-------------------|---------------------------------------------------|
//! | `table1`          | SIMD kernel speed-ups                             |
//! | `table2`          | partitioning strategies (face vs full adjacency)  |
//! | `table3`          | weak scaling, BG/P + XT5                          |
//! | `table4`          | strong scaling, BG/P                              |
//! | `table5`          | coupled NS+DPD strong scaling (super-linear)      |
//! | `fig7`            | WPOD vs standard averaging; fluctuation PDF       |
//! | `fig8`            | POD eigenspectra of pulsatile pipe flow           |
//! | `fig9`            | interface continuity of the coupled solution      |
//! | `fig10`           | platelet aggregation on the aneurysm wall         |
//! | `torus_ablation`  | §3.5 six-direction message scheduling             |
//! | `ablation_exchange` | three-step vs all-pairs interface exchange      |
//! | `ablation_precon` | CG preconditioner choices                         |

use std::time::Instant;

/// Median wall time of `reps` invocations of `f`, in seconds.
pub fn time_median(reps: usize, mut f: impl FnMut()) -> f64 {
    assert!(reps >= 1);
    let mut samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64()
        })
        .collect();
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
    samples[reps / 2]
}

/// On-CPU seconds of this process, summed over its live threads
/// (`/proc/self/task/*/schedstat`, nanosecond resolution; 0 where the
/// kernel does not expose it). Divide a difference by the wall time of
/// the same interval to see how many cores a parallel section really got.
pub fn cpu_seconds() -> f64 {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return 0.0;
    };
    let ns: u64 = tasks
        .flatten()
        .filter_map(|t| std::fs::read_to_string(t.path().join("schedstat")).ok())
        .filter_map(|s| s.split_whitespace().next()?.parse::<u64>().ok())
        .sum();
    ns as f64 * 1e-9
}

/// Number of logical cores on this host (1 if undeterminable).
pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Effective worker count of the current rayon pool — what the element
/// loops and particle sweeps actually ran on, after `RAYON_NUM_THREADS`
/// / `NKG_POOL_WIDTH` placement took effect.
pub fn effective_threads() -> usize {
    rayon::current_num_threads()
}

/// `git describe --always --dirty` of the checkout the benchmark ran in
/// (`"unknown"` outside a git checkout), looked up once.
pub fn commit() -> &'static str {
    static COMMIT: std::sync::OnceLock<String> = std::sync::OnceLock::new();
    COMMIT.get_or_init(|| {
        std::process::Command::new("git")
            .args(["describe", "--always", "--dirty"])
            .output()
            .ok()
            .filter(|o| o.status.success())
            .and_then(|o| String::from_utf8(o.stdout).ok())
            .map(|s| s.trim().to_string())
            .filter(|s| {
                !s.is_empty()
                    && s.chars()
                        .all(|c| c.is_ascii_alphanumeric() || "-._".contains(c))
            })
            .unwrap_or_else(|| "unknown".to_string())
    })
}

/// Prefix a single-object JSON record with the facts every benchmark row
/// must carry: logical core count, effective thread count and commit.
/// Records not shaped like a JSON object pass through unchanged.
fn stamp_host(record: &str) -> String {
    match record.strip_prefix('{') {
        Some(rest) => {
            let sep = if rest.trim_start().starts_with('}') {
                ""
            } else {
                ","
            };
            format!(
                "{{\"host_cores\":{},\"threads\":{},\"commit\":\"{}\"{sep}{rest}",
                host_cores(),
                effective_threads(),
                commit()
            )
        }
        None => record.to_string(),
    }
}

/// Overwrite `path` with `records`, one JSON line each, stamped with
/// `host_cores`, `threads` and `commit` so every row says where it ran. Use for
/// benchmarks that emit several rows per run of which only the latest run
/// matters (e.g. `BENCH_sem.json`): rerunning replaces, never duplicates.
pub fn write_jsonl(path: &str, records: &[String]) {
    let body: String = records.iter().map(|r| stamp_host(r) + "\n").collect();
    std::fs::write(path, body).unwrap_or_else(|e| panic!("write {path}: {e}"));
}

/// Overwrite `path` with a single consolidated JSON document, stamped
/// like [`write_jsonl`] rows. Use for benchmarks whose output is one
/// self-contained record per run (the latest run is the only one that
/// matters, e.g. `BENCH_dpd.json`).
pub fn write_json(path: &str, document: &str) {
    let document = stamp_host(document);
    std::fs::write(path, format!("{document}\n")).unwrap_or_else(|e| panic!("write {path}: {e}"));
}

/// Print a ruled section header.
pub fn header(title: &str) {
    println!("\n=== {title} ===");
}

/// Format an efficiency as a percentage string.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_median_positive() {
        let t = time_median(3, || {
            std::hint::black_box((0..1000).sum::<u64>());
        });
        assert!(t >= 0.0);
    }

    #[test]
    fn pct_formats() {
        assert_eq!(pct(0.923), "92.3%");
    }

    #[test]
    fn stamp_injects_host_facts() {
        let s = stamp_host("{\"bench\":\"x\",\"secs\":1.0}");
        assert!(s.starts_with("{\"host_cores\":"), "{s}");
        assert!(s.contains("\"threads\":"), "{s}");
        assert!(s.ends_with(",\"bench\":\"x\",\"secs\":1.0}"), "{s}");
        // Empty object gets no trailing comma; non-objects pass through.
        let empty = stamp_host("{}");
        assert!(empty.ends_with("}") && !empty.contains(",}"), "{empty}");
        assert_eq!(stamp_host("[1,2]"), "[1,2]");
    }
}
