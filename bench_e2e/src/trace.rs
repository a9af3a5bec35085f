//! Spans recorded from outside the solvers: one around each call into a
//! layer, pushed into a preallocated vector and written out as a
//! chrome-trace file when the workload ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Parent index of a root span.
pub const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same tracer, or [`NO_PARENT`].
    pub parent: u32,
    pub rank: u32,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// One thread's span recorder. `enter`/`exit` nest through an explicit
/// stack, so the caller keeps `&mut` access to the solver between them.
pub struct Tracer {
    t0: Instant,
    rank: u32,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    /// `t0` is shared by every rank of a workload so their spans land on
    /// one timeline; `cap` spans are preallocated so recording never
    /// reallocates inside a timed region.
    pub fn new(t0: Instant, rank: u32, cap: usize) -> Self {
        Self {
            t0,
            rank,
            spans: Vec::with_capacity(cap),
            open: Vec::with_capacity(8),
        }
    }

    fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    pub fn enter(&mut self, name: &'static str) -> u32 {
        let id = self.spans.len() as u32;
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied().unwrap_or(NO_PARENT),
            rank: self.rank,
        });
        self.open.push(id);
        id
    }

    pub fn exit(&mut self, id: u32) {
        let end_ns = self.now();
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans must close innermost first");
        self.spans[id as usize].end_ns = end_ns;
    }

    /// Rename a span after the fact (a `WindowPod::push` only tells the
    /// caller on return whether it completed a window).
    pub fn rename(&mut self, id: u32, name: &'static str) {
        self.spans[id as usize].name = name;
    }

    pub fn finish(self) -> Vec<Span> {
        assert!(self.open.is_empty(), "span left open");
        self.spans
    }

    /// [`span_cost_seconds`] of an `enter`/`exit` pair.
    pub fn span_cost_seconds() -> f64 {
        let mut tr = Tracer::new(Instant::now(), 0, 0);
        span_cost_seconds(|| {
            let s = tr.enter("calibration");
            tr.exit(s);
        })
    }
}

/// Append `more` (one rank's spans) to `all`, rebasing parent indices.
pub fn merge(all: &mut Vec<Span>, more: Vec<Span>) {
    let base = all.len() as u32;
    all.extend(more.into_iter().map(|mut s| {
        if s.parent != NO_PARENT {
            s.parent += base;
        }
        s
    }));
}

/// Self time of every span: its duration minus the part of that interval
/// its direct children cover (overlapping children are merged first).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut kids: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if s.parent != NO_PARENT {
            kids[s.parent as usize].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(kids.iter_mut())
        .map(|(s, k)| {
            k.sort_unstable();
            let (mut covered, mut hi) = (0u64, s.start_ns);
            for &(a, b) in k.iter() {
                let (a, b) = (a.max(hi), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    hi = b;
                }
            }
            s.dur_ns() - covered
        })
        .collect()
}

/// Durations in seconds grouped by span name.
pub fn by_name(spans: &[Span]) -> BTreeMap<&'static str, Vec<f64>> {
    let mut m: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for s in spans {
        m.entry(s.name).or_default().push(s.dur_ns() as f64 * 1e-9);
    }
    m
}

/// Σ self time of spans without children, in seconds — what the layer
/// budget attributes; the rest of the wall is `unattributed`.
pub fn leaf_self_seconds(spans: &[Span]) -> f64 {
    let mut has_child = vec![false; spans.len()];
    for s in spans {
        if s.parent != NO_PARENT {
            has_child[s.parent as usize] = true;
        }
    }
    let selfs = self_times(spans);
    let ns: u64 = (0..spans.len())
        .filter(|&i| !has_child[i])
        .map(|i| selfs[i])
        .sum();
    ns as f64 * 1e-9
}

/// The highest of p99/p95/p90 that still has at least ten samples beyond
/// it, else the median: a tail read off fewer samples is one outlier.
pub fn tail_percentile(n: usize) -> u32 {
    [99u32, 95, 90]
        .into_iter()
        .find(|&p| n * (100 - p as usize) >= 1000)
        .unwrap_or(50)
}

/// Nearest-rank percentile of an unsorted series (0 for an empty one).
pub fn percentile(xs: &[f64], pct: u32) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (v.len() * pct as usize).div_ceil(100).max(1);
    v[rank - 1]
}

/// The middle value, or the mean of the two middle values (0 for an
/// empty series).
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Seconds one span costs to record on this host, now: the median over
/// batches of `one_span` calls, each of which records one empty span.
/// Times the number of spans this is what tracing adds to a traced pass.
pub fn span_cost_seconds(mut one_span: impl FnMut()) -> f64 {
    const BATCH: usize = 1000;
    let per_span: Vec<f64> = (0..21)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..BATCH {
                one_span();
            }
            t.elapsed().as_secs_f64() / BATCH as f64
        })
        .collect();
    median(&per_span)
}

/// Write `spans` as chrome-trace JSON ("X" complete events, µs).
pub fn write_chrome_trace(path: &Path, workload: &str, spans: &[Span]) -> std::io::Result<()> {
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "[")?;
    for (i, s) in spans.iter().enumerate() {
        let sep = if i + 1 == spans.len() { "" } else { "," };
        let parent = if s.parent == NO_PARENT {
            -1
        } else {
            i64::from(s.parent)
        };
        writeln!(
            w,
            "{{\"name\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":0,\"tid\":{},\
             \"args\":{{\"id\":{i},\"parent\":{parent},\"workload\":\"{workload}\"}}}}{sep}",
            s.name,
            s.start_ns as f64 / 1e3,
            s.dur_ns() as f64 / 1e3,
            s.rank,
        )?;
    }
    writeln!(w, "]")?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: u32) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            rank: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = vec![
            span("run", 0, 100, NO_PARENT),
            span("a", 10, 40, 0),
            // Overlaps `a` by 10 ns: the union [10, 60) covers 50 ns.
            span("b", 30, 60, 0),
            span("a.child", 15, 20, 1),
            // A child that overruns its parent only counts inside it.
            span("c", 90, 120, 0),
        ];
        assert_eq!(self_times(&spans), vec![40, 25, 30, 5, 30]);
        // Leaves: b (30) + a.child (5) + c (30).
        assert!((leaf_self_seconds(&spans) - 65e-9).abs() < 1e-15);
    }

    #[test]
    fn tracer_nests_and_merges_ranks() {
        let t0 = Instant::now();
        let mut tr = Tracer::new(t0, 0, 4);
        let run = tr.enter("run");
        let step = tr.enter("step");
        tr.exit(step);
        tr.exit(run);
        let mut all = tr.finish();
        let mut tr1 = Tracer::new(t0, 1, 4);
        let run1 = tr1.enter("run");
        let x = tr1.enter("x");
        tr1.rename(x, "y");
        tr1.exit(x);
        tr1.exit(run1);
        merge(&mut all, tr1.finish());
        let parents: Vec<u32> = all.iter().map(|s| s.parent).collect();
        assert_eq!(parents, vec![NO_PARENT, 0, NO_PARENT, 2]);
        assert_eq!(all[3].name, "y");
        assert_eq!(all[3].rank, 1);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(tail_percentile(0), 50);
        assert_eq!(tail_percentile(99), 50);
        assert_eq!(tail_percentile(100), 90);
        assert_eq!(tail_percentile(199), 90);
        assert_eq!(tail_percentile(200), 95);
        assert_eq!(tail_percentile(999), 95);
        assert_eq!(tail_percentile(1000), 99);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let xs: Vec<f64> = (1..=10).rev().map(f64::from).collect();
        assert_eq!(percentile(&xs, 50), 5.0);
        assert_eq!(percentile(&xs, 90), 9.0);
        assert_eq!(percentile(&xs, 99), 10.0);
        assert_eq!(percentile(&[3.0], 99), 3.0);
        assert_eq!(percentile(&[], 50), 0.0);
        assert_eq!(median(&xs), 5.5);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[]), 0.0);
    }
}
