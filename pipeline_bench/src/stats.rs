//! Sample statistics and the benchmark's span tracer.
//!
//! Spans are recorded only by the benchmark's own code, around each call
//! it makes into a layer's public function; nothing inside the program is
//! instrumented.

use std::collections::BTreeMap;
use std::time::Instant;

/// The `p`-th percentile (0–100) of `values`, by linear interpolation
/// between the two closest ranks (NumPy's default, and Python's
/// `statistics.quantiles(method="inclusive")`). `None` when empty.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p / 100.0).clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let low = rank.floor() as usize;
    let high = rank.ceil() as usize;
    let weight = rank - low as f64;
    Some(sorted[low] + (sorted[high] - sorted[low]) * weight)
}

/// The median of `values` (`None` when empty).
pub fn median(values: &[f64]) -> Option<f64> {
    percentile(values, 50.0)
}

/// The geometric mean of strictly positive `values` (`None` when empty
/// or when any value is not positive).
pub fn geomean(values: &[f64]) -> Option<f64> {
    if values.is_empty() || values.iter().any(|&v| v <= 0.0 || !v.is_finite()) {
        return None;
    }
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    Some((log_sum / values.len() as f64).exp())
}

/// One recorded span: a call into a layer, with the span that caused it.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `compile.hybrid_ruleset`.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

impl Span {
    /// Wall time the span covers.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An in-memory span recorder. When disabled, `enter`/`exit` record
/// nothing, so the untraced run pays only a branch per call.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Handle for an entered span (ignored by a disabled tracer).
#[derive(Clone, Copy, Debug)]
#[must_use = "a span must be closed with Tracer::exit"]
pub struct SpanId(usize);

impl Tracer {
    /// A tracer that records spans only when `enabled`.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span whose parent is the innermost open span.
    pub fn enter(&mut self, name: &'static str) -> SpanId {
        if !self.enabled {
            return SpanId(usize::MAX);
        }
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
        });
        self.open.push(index);
        SpanId(index)
    }

    /// Closes a span opened by [`enter`](Self::enter).
    pub fn exit(&mut self, id: SpanId) {
        if !self.enabled {
            return;
        }
        let end = self.now_ns();
        self.spans[id.0].end_ns = end;
        let popped = self.open.pop();
        debug_assert_eq!(popped, Some(id.0), "spans must close innermost first");
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    /// Every recorded span, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Per-name totals: `(calls, total ns, self ns)`. A span's self time is
/// its duration minus the part of its interval its child spans cover
/// (overlapping children are merged, and children are clipped to the
/// parent's interval).
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64, u64)> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            children[parent].push((span.start_ns, span.end_ns));
        }
    }
    let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for (span, kids) in spans.iter().zip(children.iter_mut()) {
        kids.sort_unstable();
        let mut covered = 0u64;
        let mut cursor = span.start_ns;
        for &(start, end) in kids.iter() {
            let start = start.max(cursor);
            let end = end.min(span.end_ns);
            if end > start {
                covered += end - start;
                cursor = end;
            }
        }
        let entry = out.entry(span.name).or_insert((0, 0, 0));
        entry.0 += 1;
        entry.1 += span.duration_ns();
        entry.2 += span.duration_ns() - covered.min(span.duration_ns());
    }
    out
}

/// Peak resident set size of this process in MB (`VmHWM`), if the
/// platform exposes it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let values = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&values, 0.0), Some(1.0));
        assert_eq!(percentile(&values, 100.0), Some(4.0));
        assert_eq!(median(&values), Some(2.5));
        // rank 0.9 × 3 = 2.7 → 3 + 0.7 × (4 − 3)
        let p90 = percentile(&values, 90.0).unwrap();
        assert!((p90 - 3.7).abs() < 1e-12);
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(median(&[7.0]), Some(7.0));
    }

    #[test]
    fn percentile_matches_python_inclusive_quartiles() {
        // statistics.quantiles([1..10], n=4, method="inclusive")
        // == [3.25, 5.5, 7.75]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&values, 25.0), Some(3.25));
        assert_eq!(percentile(&values, 50.0), Some(5.5));
        assert_eq!(percentile(&values, 75.0), Some(7.75));
    }

    #[test]
    fn geomean_of_ratios() {
        assert!((geomean(&[2.0, 8.0]).unwrap() - 4.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), None);
        assert_eq!(geomean(&[1.0, 0.0]), None);
    }

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_covered_child_intervals() {
        let spans = vec![
            span("update", 0, 100, None),
            span("compile", 10, 40, Some(0)),
            span("swap", 50, 70, Some(0)),
            span("inner", 15, 25, Some(1)),
        ];
        let times = self_times(&spans);
        assert_eq!(times["update"], (1, 100, 50));
        assert_eq!(times["compile"], (1, 30, 20));
        assert_eq!(times["swap"], (1, 20, 20));
        assert_eq!(times["inner"], (1, 10, 10));
    }

    #[test]
    fn self_time_merges_overlaps_and_clips_children() {
        let spans = vec![
            span("root", 100, 200, None),
            span("a", 90, 130, Some(0)),  // clipped to 100..130
            span("a", 120, 150, Some(0)), // overlaps the first child
            span("b", 190, 250, Some(0)), // clipped to 190..200
        ];
        let times = self_times(&spans);
        // Covered: 100..150 and 190..200 = 60 ns.
        assert_eq!(times["root"], (1, 100, 40));
        assert_eq!(times["a"], (2, 70, 70));
    }

    #[test]
    fn tracer_records_nesting_only_when_enabled() {
        let mut tracer = Tracer::new(true);
        let outer = tracer.enter("outer");
        let value = tracer.span("inner", || 7);
        tracer.exit(outer);
        assert_eq!(value, 7);
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);

        let mut off = Tracer::new(false);
        let id = off.enter("outer");
        off.exit(id);
        assert!(off.spans().is_empty());
    }
}
