//! Shared helpers for the harness binaries under `src/bin/`.
//!
//! One binary per table or figure of the paper's evaluation section,
//! printing the rows/series the paper reports side by side with its
//! published values where they exist, and one `BENCH_*.json` emitter per
//! layer. Run them with `cargo run --release -p nkg-bench --bin <name>`:
//!
//! | binary            | reproduces / measures                             |
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
//! | `bench_sem`       | preconditioner ladder, NS solve telemetry → `BENCH_sem.json` |
//! | `bench_dpd`       | pair sweep, step, pool sweep → `BENCH_dpd.json`   |
//! | `bench_ckpt`      | CRC, encode/seal/commit/restore → `BENCH_ckpt.json` |
//! | `bench_mci`       | exchange, allreduce, failover → `BENCH_mci.json`  |
//! | `bench_serve`     | cache tiers, scheduler → `BENCH_serve.json`       |
//!
//! Every emitter takes one flag, `--smoke` (toy sizes, same rows, written
//! under `target/`), and writes [`Row`]s through [`write_jsonl`] only.

#![forbid(unsafe_code)]

use std::fmt::{Display, Write as _};
use std::time::Instant;

/// Median of `samples` (the upper one of an even count).
pub fn median(mut samples: Vec<f64>) -> f64 {
    assert!(!samples.is_empty());
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// Median wall time of `reps` invocations of `f`, in seconds.
pub fn time_median(reps: usize, mut f: impl FnMut()) -> f64 {
    median(
        (0..reps)
            .map(|_| {
                let t0 = Instant::now();
                f();
                t0.elapsed().as_secs_f64()
            })
            .collect(),
    )
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

/// One benchmark row: a flat JSON object (scalar values only) that opens
/// with the facts every row must carry — logical core count, the rayon
/// pool's thread count after `RAYON_NUM_THREADS` / `NKG_POOL_WIDTH` took
/// effect, commit — and the `bench` it belongs to. The only thing
/// [`write_jsonl`] accepts, so a nested or unstamped row cannot be written.
pub struct Row(String);

impl Row {
    /// A row of `bench`, stamped with where it ran.
    pub fn new(bench: &str) -> Self {
        let stamp = format!(
            "{{\"host_cores\":{},\"threads\":{},\"commit\":\"{}\"",
            host_cores(),
            rayon::current_num_threads(),
            commit()
        );
        Row(stamp).text("bench", bench)
    }

    /// Add a number: an integer, or a float formatted by the caller
    /// (`format_args!("{x:.6}")`). Non-finite values become `null`.
    pub fn num(mut self, key: &str, value: impl Display) -> Self {
        let v = value.to_string();
        let x: f64 = v
            .parse()
            .unwrap_or_else(|_| panic!("{key}: {v:?} is no number"));
        let v = if x.is_finite() { v.as_str() } else { "null" };
        write!(self.0, ",\"{key}\":{v}").unwrap();
        self
    }

    /// Add a string (plain: no quotes, backslashes or control characters).
    pub fn text(mut self, key: &str, value: &str) -> Self {
        let plain = |c: char| !c.is_control() && c != '"' && c != '\\';
        assert!(value.chars().all(plain), "{key}: {value:?}");
        write!(self.0, ",\"{key}\":\"{value}\"").unwrap();
        self
    }

    /// Add a boolean.
    pub fn flag(mut self, key: &str, value: bool) -> Self {
        write!(self.0, ",\"{key}\":{value}").unwrap();
        self
    }
}

/// Where an emitter writes: `BENCH_<layer>.json` in the current directory,
/// or `target/BENCH_<layer>.smoke.json` for a `--smoke` run, so the gate
/// never touches the committed rows.
pub fn bench_path(layer: &str, smoke: bool) -> String {
    if smoke {
        std::fs::create_dir_all("target").expect("create target/");
        format!("target/BENCH_{layer}.smoke.json")
    } else {
        format!("BENCH_{layer}.json")
    }
}

/// Overwrite `path` with `rows`, one JSON line each: only the latest run
/// matters, so rerunning replaces, never duplicates.
pub fn write_jsonl(path: &str, rows: &[Row]) {
    let body: String = rows.iter().map(|r| format!("{}}}\n", r.0)).collect();
    std::fs::write(path, body).unwrap_or_else(|e| panic!("write {path}: {e}"));
    println!("\nwrote {} rows to {path}", rows.len());
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
        let s = Row::new("x").num("secs", 1.0).0;
        assert!(s.starts_with("{\"host_cores\":"), "{s}");
        assert!(s.contains("\"threads\":"), "{s}");
        assert!(s.contains("\"commit\":\""), "{s}");
        assert!(s.ends_with(",\"bench\":\"x\",\"secs\":1"), "{s}");
    }

    /// The contract of every `BENCH_*.json` line, checked once: the five
    /// emitters write through `write_jsonl` alone, `write_jsonl` takes
    /// `Row`s alone, and whatever a `Row` is given it stays one flat,
    /// stamped JSON object.
    #[test]
    fn every_emitter_row_is_flat_and_stamped() {
        for src in [
            include_str!("bin/bench_ckpt.rs"),
            include_str!("bin/bench_dpd.rs"),
            include_str!("bin/bench_mci.rs"),
            include_str!("bin/bench_sem.rs"),
            include_str!("bin/bench_serve.rs"),
        ] {
            assert!(src.contains("write_jsonl(&bench_path("));
            assert!(!src.contains("fs::write") && !src.contains("File::create"));
        }
        let row = Row::new("shape")
            .num("count", 3usize)
            .num("secs", format_args!("{:.3}", 0.25))
            .num("nan", f64::NAN)
            .num("exp", format_args!("{:.3e}", 1.5e-7))
            .text("transport", "uds")
            .flag("ok", true);
        let path = std::env::temp_dir().join(format!("nkg-bench-row-{}", std::process::id()));
        write_jsonl(path.to_str().unwrap(), &[row]);
        let line = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        let body = line
            .strip_suffix("}\n")
            .and_then(|l| l.strip_prefix('{'))
            .expect("one object per line");
        // Flat: no nested object or array, and with plain strings every
        // comma separates two members.
        assert!(!body.contains(['{', '}', '[', ']', '\n']), "{body}");
        let keys: Vec<&str> = body
            .split(',')
            .map(|m| m.split_once(':').expect("key:value").0.trim_matches('"'))
            .collect();
        assert_eq!(keys[..4], ["host_cores", "threads", "commit", "bench"]);
        assert_eq!(
            keys[4..],
            ["count", "secs", "nan", "exp", "transport", "ok"]
        );
        assert!(body.contains(&format!("\"host_cores\":{},", host_cores())));
        assert!(body.ends_with(
            "\"count\":3,\"secs\":0.250,\"nan\":null,\"exp\":1.500e-7,\"transport\":\"uds\",\"ok\":true"
        ));
    }
}
