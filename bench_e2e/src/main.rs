//! `bench_e2e`: the end-to-end benchmark of the coupled solver stack.
//!
//! ```text
//! bench_e2e --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--out FILE]
//! bench_e2e compare <a.jsonl> <b.jsonl>
//! ```
//!
//! One process runs one workload for `--seconds`. Without tracing it
//! times cold set-ups and repetitions of the workload's fixed-size run and
//! reports the end-to-end metrics; with `--trace 1` it alternates a traced
//! pass with the untraced passes it is compared with, and reports the
//! per-layer metrics. The
//! last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`; `--out` appends the same numbers,
//! one flat JSON object per line, for `compare`.

mod check;
mod compare;
mod probes;
mod trace;
mod workloads;

use std::io::Write;
use std::path::PathBuf;
use workloads::{Ctx, Outcome};

/// `BENCHMARK.json` is the one place where metric names, units and bounds
/// are written down; the binary carries a copy of it.
const SPEC: &str = include_str!("../../BENCHMARK.json");

/// One row of a metric list in [`SPEC`]: name, unit and, for an
/// end-to-end metric, the share of the baseline's median by which a later
/// median may be worse.
pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub bound: Option<f64>,
}

/// The metrics of the list `key` (`end_to_end` or `per_layer`) in [`SPEC`].
pub fn spec(key: &str) -> Vec<MetricSpec> {
    let from = SPEC
        .find(&format!("\"{key}\""))
        .expect("BENCHMARK.json has the list");
    let list = &SPEC[from..];
    let list = &list[..list.find(']').expect("the list closes")];
    list.split_inclusive('}')
        .filter_map(|s| s.find('{').map(|at| &s[at..]))
        .map(|object| {
            let row = compare::parse_row(object).expect("a flat object per metric");
            MetricSpec {
                name: row["name"],
                unit: row["unit"],
                bound: row
                    .get("bound")
                    .map(|b| b.parse().expect("a bound is a number")),
            }
        })
        .collect()
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    out: Option<PathBuf>,
}

fn usage() -> ! {
    eprintln!(
        "usage: bench_e2e --workload <{}> [--seed N] [--seconds S] [--trace 0|1] [--smoke] \
         [--out FILE]\n       bench_e2e compare <a.jsonl> <b.jsonl>",
        workloads::NAMES.join("|")
    );
    std::process::exit(2);
}

fn parse_args(argv: &[String]) -> Args {
    let mut a = Args {
        workload: String::new(),
        seed: 31,
        seconds: 20.0,
        trace: false,
        smoke: false,
        out: None,
    };
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().cloned().unwrap_or_else(|| usage());
        match arg.as_str() {
            "--workload" => a.workload = value(),
            "--seed" => a.seed = value().parse().unwrap_or_else(|_| usage()),
            "--seconds" => a.seconds = value().parse().unwrap_or_else(|_| usage()),
            "--out" => a.out = Some(PathBuf::from(value())),
            "--smoke" => a.smoke = true,
            "--trace" => {
                a.trace = match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            _ => usage(),
        }
    }
    if !workloads::NAMES.contains(&a.workload.as_str()) || a.seconds.is_nan() || a.seconds < 0.0 {
        usage();
    }
    a
}

/// Per-process scratch directory under the build directory (the only
/// place the benchmark writes), removed when the workload ends.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// `<target dir>/bench_e2e`, next to the `release/` directory this
/// executable runs from.
fn output_dir() -> PathBuf {
    let exe = std::env::current_exe().expect("path of this executable");
    let target = exe
        .parent()
        .and_then(|p| p.parent())
        .expect("executable sits in <target>/<profile>/");
    target.join("bench_e2e")
}

fn commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".into(), |s| s.trim().to_string())
}

/// What is reported for one metric: the median of its samples (a timing
/// has one sample per repetition, anything else one sample).
struct Metric {
    name: &'static str,
    unit: &'static str,
    value: f64,
    min: f64,
    max: f64,
    samples: usize,
}

fn summarize(name: &'static str, unit: &'static str, xs: &[f64]) -> Metric {
    Metric {
        name,
        unit,
        value: trace::median(xs),
        min: xs.iter().copied().fold(f64::INFINITY, f64::min),
        max: xs.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        samples: xs.len(),
    }
}

/// Every metric `BENCHMARK.json` lists for this mode, in its order. A
/// traced workload reports 0 for a layer it bypasses.
fn metrics_of(args: &Args, out: &Outcome) -> Vec<Metric> {
    if args.trace {
        let listed = spec("per_layer");
        for name in out.layers.keys() {
            assert!(
                listed.iter().any(|m| m.name == *name),
                "{name} is missing from per_layer in BENCHMARK.json"
            );
        }
        return listed
            .iter()
            .map(|m| {
                let v = out.layers.get(m.name).copied().unwrap_or(0.0);
                summarize(m.name, m.unit, &[v])
            })
            .collect();
    }
    spec("end_to_end")
        .iter()
        .map(|m| match m.name {
            "setup_s" => summarize(m.name, m.unit, &out.setup_s),
            "wall_s" => summarize(m.name, m.unit, &out.wall_s),
            "peak_rss_mib" => summarize(m.name, m.unit, &[out.peak_rss_mib]),
            other => panic!("BENCHMARK.json lists an end-to-end metric {other} nobody measures"),
        })
        .collect()
}

/// JSON number: finite values with all their digits, anything else 0 (a
/// failed pass has no time; the ledger already says so).
fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "0".into()
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("compare") {
        let [_, a, b] = argv.as_slice() else { usage() };
        std::process::exit(compare::main(a.as_ref(), b.as_ref()));
    }
    let args = parse_args(&argv);
    let host_cores = probes::host_cores();
    let threads = host_cores.min(2);
    // Before any thread exists and before rayon first reads it: every
    // pool in this process — rank threads and serve workers included —
    // gets the same width.
    std::env::set_var("RAYON_NUM_THREADS", threads.to_string());

    let dir = output_dir();
    let scratch = Scratch(dir.join(format!("tmp-{}", std::process::id())));
    std::fs::create_dir_all(&scratch.0).expect("create the scratch directory");
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        smoke: args.smoke,
        threads,
        scratch: scratch.0.clone(),
        trace_dir: dir,
    };
    let commit = commit();
    println!(
        "bench_e2e {} seed={} seconds={} trace={} smoke={} host_cores={host_cores} \
         threads={threads} commit={commit}",
        args.workload, args.seed, args.seconds, args.trace as u8, args.smoke
    );

    let t0 = std::time::Instant::now();
    let outcome = std::panic::catch_unwind(|| {
        if args.trace {
            workloads::trace(&args.workload, &ctx)
        } else {
            workloads::run(&args.workload, &ctx)
        }
    });
    drop(scratch);
    let mut out = outcome.unwrap_or_else(|_| {
        let mut out = Outcome::default();
        out.ledger.ops(1);
        out.ledger.fail(1, "the workload panicked".into());
        out
    });
    if out.ledger.attempted == 0 {
        out.ledger.ops(1);
        out.ledger.fail(1, "nothing was attempted".into());
    }
    let metrics = metrics_of(&args, &out);

    for note in &out.notes {
        println!("{note}");
    }
    // For the reader: what this workload measured. The JSON line below
    // carries every listed metric.
    for m in &metrics {
        if m.samples > 1 {
            println!(
                "{:<36} {:>14.6} {:<8} (median of {}: min {:.6}, max {:.6})",
                m.name, m.value, m.unit, m.samples, m.min, m.max
            );
        } else if !args.trace || out.layers.contains_key(m.name) {
            // Residuals and error norms need their exponent.
            if m.value != 0.0 && m.value.abs() < 1e-4 {
                println!("{:<36} {:>14.3e} {}", m.name, m.value, m.unit);
            } else {
                println!("{:<36} {:>14.6} {}", m.name, m.value, m.unit);
            }
        }
    }
    println!("{:<36} {:>14}", "attempted", out.ledger.attempted);
    println!("{:<36} {:>14}", "failed", out.ledger.failed);
    println!(
        "{:<36} {:>14}",
        "state_hash",
        format!("{:016x}", out.state_hash)
    );
    println!(
        "{:<36} {:>14.3} s",
        "process wall",
        t0.elapsed().as_secs_f64()
    );
    for p in &out.ledger.problems {
        println!("FAILED: {p}");
    }
    if let Some(path) = &args.out {
        let stamp = format!(
            "\"workload\":\"{}\",\"seed\":{},\"trace\":{},\"smoke\":{},\"host_cores\":{host_cores},\
             \"threads\":{threads},\"commit\":\"{commit}\"",
            args.workload, args.seed, args.trace as u8, args.smoke as u8
        );
        let mut lines = String::new();
        for m in &metrics {
            lines.push_str(&format!(
                "{{\"row\":\"metric\",{stamp},\"name\":\"{}\",\"unit\":\"{}\",\"value\":{},\
                 \"min\":{},\"max\":{},\"samples\":{}}}\n",
                m.name,
                m.unit,
                num(m.value),
                num(m.min),
                num(m.max),
                m.samples
            ));
        }
        lines.push_str(&format!(
            "{{\"row\":\"ops\",{stamp},\"attempted\":{},\"failed\":{},\"state_hash\":\"{:016x}\"}}\n",
            out.ledger.attempted, out.ledger.failed, out.state_hash
        ));
        let appended = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut f| f.write_all(lines.as_bytes()));
        if let Err(e) = appended {
            eprintln!("cannot append to {}: {e}", path.display());
            std::process::exit(2);
        }
    }

    let correct = out.ledger.failed == 0;
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                m.name,
                num(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        out.ledger.attempted,
        out.ledger.failed,
        body.join(",")
    );
    std::process::exit(if correct { 0 } else { 1 });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_lists_parse() {
        let e2e = spec("end_to_end");
        let names: Vec<&str> = e2e.iter().map(|m| m.name).collect();
        assert_eq!(names, ["setup_s", "wall_s", "peak_rss_mib"]);
        assert!(e2e
            .iter()
            .all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        let layers = spec("per_layer");
        assert!(layers.len() > 80 && layers.iter().all(|m| m.bound.is_none()));
        assert!(layers
            .iter()
            .any(|m| m.name == "net.bytes" && m.unit == "B"));
        for w in workloads::NAMES {
            assert!(SPEC.contains(&format!("{{\"name\": \"{w}\", \"why\": ")));
        }
    }

    #[test]
    fn trace_flag_takes_zero_or_one() {
        let args = |s: &str| -> Vec<String> { s.split_whitespace().map(String::from).collect() };
        let a = parse_args(&args(
            "--workload ranks_uds --trace 1 --seed 4 --seconds 2.5",
        ));
        assert!(a.trace && a.seed == 4 && a.seconds == 2.5);
        assert!(!parse_args(&args("--workload ranks_uds --trace 0 --smoke")).trace);
        assert!(!parse_args(&args("--workload ranks_uds")).trace);
    }
}
