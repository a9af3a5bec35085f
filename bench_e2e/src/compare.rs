//! `bench_e2e compare <a.jsonl> <b.jsonl>`: the regression gate. Both
//! files are what `--out` appends: one flat JSON object per line, one
//! value per run and metric (the median of that run's repetitions). `a` is
//! the baseline and holds at least [`MIN_BASELINE_RUNS`] runs of every
//! workload, `b` the candidate; each side is reduced to the median of its
//! runs, and the baseline's spread is the distance between the quartiles
//! of its runs.

use crate::trace::median;
use std::collections::BTreeMap;
use std::path::Path;

/// Fewest runs a baseline may hold per workload: quartiles of fewer say
/// nothing about its spread.
const MIN_BASELINE_RUNS: usize = 4;

/// Per-layer counts that must be identical for the same workload and seed.
const EXACT_COUNTS: [&str; 11] = [
    "net.messages",
    "net.bytes",
    "core.exchanges",
    "core.ns_steps",
    "core.dist_solves",
    "core.jobs",
    "core.job_slices",
    "mci.exchanges",
    "dpd.particle_steps",
    "ckpt.snapshots",
    "ckpt.resumes",
];

/// One flat JSON object: string and number values only, borrowed from
/// the text they were parsed from.
pub type Row<'a> = BTreeMap<&'a str, &'a str>;

/// Parse one flat JSON object of string and number values. `None` for
/// anything else.
pub fn parse_row(line: &str) -> Option<Row<'_>> {
    let body = line.trim().strip_prefix('{')?.strip_suffix('}')?;
    let mut row = Row::new();
    let mut rest = body.trim_start();
    while !rest.is_empty() {
        let (key, after) = rest.strip_prefix('"')?.split_once('"')?;
        let after = after.trim_start().strip_prefix(':')?.trim_start();
        let (value, after) = match after.strip_prefix('"') {
            Some(s) => s.split_once('"')?,
            None => after.split_at(after.find(',').unwrap_or(after.len())),
        };
        row.insert(key, value.trim_end());
        let after = after.trim_start();
        rest = after.strip_prefix(',').unwrap_or(after).trim_start();
    }
    Some(row)
}

#[derive(Default)]
struct Runs {
    /// (workload, metric) → one value per run.
    metrics: BTreeMap<(String, String), Vec<f64>>,
    /// (workload, seed, count name) → value.
    counts: BTreeMap<(String, String, String), f64>,
    /// workload → (attempted, failed) summed over runs.
    ops: BTreeMap<String, (f64, f64)>,
}

fn load(text: &str) -> Result<Runs, String> {
    let mut runs = Runs::default();
    for (i, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let row =
            parse_row(line).ok_or_else(|| format!("line {}: not a flat JSON object", i + 1))?;
        let text = |k: &str| {
            row.get(k)
                .map(|v| v.to_string())
                .ok_or_else(|| format!("line {}: no {k}", i + 1))
        };
        let number = |k: &str| {
            text(k)?
                .parse::<f64>()
                .map_err(|_| format!("line {}: {k} is not a number", i + 1))
        };
        let workload = text("workload")?;
        match text("row")?.as_str() {
            "metric" => {
                let name = text("name")?;
                if EXACT_COUNTS.contains(&name.as_str()) {
                    runs.counts.insert(
                        (workload.clone(), text("seed")?, name.clone()),
                        number("value")?,
                    );
                }
                runs.metrics
                    .entry((workload, name))
                    .or_default()
                    .push(number("value")?);
            }
            "ops" => {
                let e = runs.ops.entry(workload).or_default();
                e.0 += number("attempted")?;
                e.1 += number("failed")?;
            }
            other => return Err(format!("line {}: unknown row kind {other}", i + 1)),
        }
    }
    Ok(runs)
}

#[derive(Debug, PartialEq, Clone, Copy)]
pub enum Verdict {
    Improved,
    Unchanged,
    /// The baseline's own spread is wider than the bound: the pair cannot
    /// show "no regression".
    Unresolved,
    Regressed,
}

/// All metrics here are lower-is-better. `a_spread` is the baseline's
/// own spread as a share of its median.
pub fn verdict(a_median: f64, a_spread: f64, b_median: f64, bound: f64) -> Verdict {
    let change = b_median / a_median - 1.0;
    if change > bound {
        Verdict::Regressed
    } else if a_spread > bound {
        Verdict::Unresolved
    } else if change < -bound {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

/// First and third quartile as Python's `statistics.quantiles(xs, n=4)`
/// gives them (exclusive method); `xs` holds at least two values.
fn quartiles(xs: &[f64]) -> (f64, f64) {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let at = |quarter: usize| {
        let j = (quarter * (n + 1) / 4).clamp(1, n - 1);
        let g = (quarter * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + g * (v[j] - v[j - 1])
    };
    (at(1), at(3))
}

/// Compare two loaded files; returns the report lines and whether the
/// gate fails.
fn gate(a: &Runs, b: &Runs) -> (Vec<String>, bool) {
    let mut lines = Vec::new();
    let mut fail = false;
    lines.push(format!(
        "{:<14} {:<14} {:>12} {:>12} {:>8} {:>7} {:>8}  verdict",
        "workload", "metric", "a median", "b median", "change", "bound", "a IQR"
    ));
    let bounds = crate::spec("end_to_end");
    for ((workload, name), a_runs) in &a.metrics {
        let Some(bound) = bounds.iter().find(|m| m.name == name).and_then(|m| m.bound) else {
            continue;
        };
        let Some(b_runs) = b.metrics.get(&(workload.clone(), name.clone())) else {
            lines.push(format!("{workload:<14} {name:<14} missing from b"));
            fail = true;
            continue;
        };
        if a_runs.len() < MIN_BASELINE_RUNS {
            lines.push(format!(
                "{workload:<14} {name:<14} the baseline holds {} run(s), needs {MIN_BASELINE_RUNS}",
                a_runs.len()
            ));
            fail = true;
            continue;
        }
        let (am, bm) = (median(a_runs), median(b_runs));
        let (q1, q3) = quartiles(a_runs);
        let spread = (q3 - q1) / am;
        let v = verdict(am, spread, bm, bound);
        fail |= v == Verdict::Regressed;
        lines.push(format!(
            "{workload:<14} {name:<14} {am:>12.5} {bm:>12.5} {:>+7.1}% {:>6.0}% {:>7.1}%  {}",
            (bm / am - 1.0) * 100.0,
            bound * 100.0,
            spread * 100.0,
            format!("{v:?}").to_lowercase()
        ));
    }
    for (workload, &(a_att, a_failed)) in &a.ops {
        let Some(&(b_att, b_failed)) = b.ops.get(workload) else {
            continue;
        };
        if b_failed / b_att > a_failed / a_att {
            lines.push(format!(
                "{workload}: failed/attempted rose from {a_failed}/{a_att} to {b_failed}/{b_att}"
            ));
            fail = true;
        }
    }
    for (key, a_value) in &a.counts {
        if let Some(b_value) = b.counts.get(key) {
            if a_value != b_value {
                let (workload, seed, name) = key;
                lines.push(format!(
                    "{workload} seed {seed}: exact count {name} differs, {a_value} vs {b_value}"
                ));
                fail = true;
            }
        }
    }
    (lines, fail)
}

pub fn main(a: &Path, b: &Path) -> i32 {
    let read = |p: &Path| {
        std::fs::read_to_string(p)
            .map_err(|e| e.to_string())
            .and_then(|t| load(&t))
            .map_err(|e| format!("{}: {e}", p.display()))
    };
    let (a, b) = match (read(a), read(b)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("{e}");
            return 2;
        }
    };
    let (lines, fail) = gate(&a, &b);
    for l in lines {
        println!("{l}");
    }
    println!("{}", if fail { "FAIL" } else { "PASS" });
    i32::from(fail)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts() {
        assert_eq!(verdict(1.0, 0.02, 1.05, 0.10), Verdict::Unchanged);
        assert_eq!(verdict(1.0, 0.02, 1.11, 0.10), Verdict::Regressed);
        assert_eq!(verdict(1.0, 0.02, 0.85, 0.10), Verdict::Improved);
        // A noisy baseline cannot show "unchanged" or "improved"...
        assert_eq!(verdict(1.0, 0.15, 1.05, 0.10), Verdict::Unresolved);
        assert_eq!(verdict(1.0, 0.15, 0.85, 0.10), Verdict::Unresolved);
        // ...but a regression beyond the bound is still a regression.
        assert_eq!(verdict(1.0, 0.15, 1.2, 0.10), Verdict::Regressed);
    }

    #[test]
    fn rows_parse_flat_objects_only() {
        let row =
            parse_row(r#"{"row":"metric","name":"wall_s","value":1.25e-3,"seed":31}"#).unwrap();
        assert_eq!(row["row"], "metric");
        assert_eq!(row["value"], "1.25e-3");
        assert_eq!(row["seed"], "31");
        let spaced = parse_row(r#" { "name": "setup_s", "unit": "s", "bound": 0.25 } "#).unwrap();
        assert_eq!(
            (spaced["name"], spaced["unit"], spaced["bound"]),
            ("setup_s", "s", "0.25")
        );
        assert!(parse_row("[1,2]").is_none());
        assert!(parse_row(r#"{"a":{"b":1}}"#).is_some_and(|r| r["a"] != "1"));
        assert!(parse_row(r#"{"a"}"#).is_none());
    }

    fn file(wall: &[f64], failed: u32, messages: u64) -> Runs {
        let mut text = String::new();
        for w in wall {
            text.push_str(&format!(
                "{{\"row\":\"metric\",\"workload\":\"ranks_uds\",\"seed\":31,\"name\":\"wall_s\",\
                 \"unit\":\"s\",\"value\":{w},\"min\":{w},\"max\":{w},\"samples\":5}}\n"
            ));
        }
        text.push_str(&format!(
            "{{\"row\":\"metric\",\"workload\":\"ranks_uds\",\"seed\":31,\"name\":\"net.messages\",\
             \"unit\":\"count\",\"value\":{messages},\"min\":{messages},\"max\":{messages},\"samples\":1}}\n\
             {{\"row\":\"ops\",\"workload\":\"ranks_uds\",\"seed\":31,\"attempted\":100,\"failed\":{failed},\
             \"state_hash\":\"00\"}}\n"
        ));
        load(&text).unwrap()
    }

    #[test]
    fn gate_fails_on_regression_failures_and_counts() {
        let bound = crate::spec("end_to_end")
            .iter()
            .find(|m| m.name == "wall_s")
            .and_then(|m| m.bound)
            .unwrap();
        let base = file(&[1.0, 1.01, 0.99, 1.0], 0, 500);
        assert!(!gate(&base, &file(&[1.0 + 0.5 * bound], 0, 500)).1);
        assert!(gate(&base, &file(&[1.0 + 1.5 * bound], 0, 500)).1);
        assert!(gate(&base, &file(&[1.0], 1, 500)).1, "failures rose");
        assert!(gate(&base, &file(&[1.0], 0, 501)).1, "exact count moved");
        let noisy = file(
            &[1.0, 1.0 + 2.0 * bound, 1.0 - bound, 1.0 + bound, 1.0],
            0,
            500,
        );
        let (lines, fail) = gate(&noisy, &file(&[1.0], 0, 500));
        assert!(!fail);
        assert!(lines.iter().any(|l| l.ends_with("unresolved")));
        let short = file(&[1.0, 1.0, 1.0], 0, 500);
        assert!(gate(&short, &file(&[1.0], 0, 500)).1, "three baseline runs");
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
        // == [3.5, 13.5, 31.0]
        let xs = [46.0, 1.0, 2.0, 4.0, 7.0, 11.0, 16.0, 22.0, 29.0, 37.0];
        assert_eq!(quartiles(&xs), (3.5, 31.0));
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[1.0, 2.0, 3.0, 4.0]), (1.25, 3.75));
    }
}
