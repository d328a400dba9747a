//! Offline stand-in for the `criterion` benchmark harness.
//!
//! The workspace builds with no registry access, so bench targets link
//! against this small crate instead. It keeps the same API shape
//! (`Criterion`, benchmark groups, `Throughput`, `BenchmarkId`, the
//! `criterion_group!`/`criterion_main!` macros) and measures with plain
//! wall-clock sampling: a warm-up, then enough iterations to fill a
//! measurement window, reporting the mean time per iteration and, when
//! a throughput was declared, bytes or elements per second. Swap the
//! `[workspace.dependencies]` entry for the real `criterion` for
//! statistically rigorous runs.
//!
//! Two CLI flags shrink the sampling for CI (`cargo bench -- <flag>`,
//! mirroring real criterion's behavior closely enough for smoke jobs):
//!
//! * `--test` — run every benchmark exactly once, with no warm-up or
//!   measurement window (a correctness smoke pass);
//! * `--quick` — short warm-up and window, so a full sweep still
//!   produces a comparable timing table in seconds rather than minutes.

#![forbid(unsafe_code)]

use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// How aggressively the harness samples, selected by CLI flag.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Mode {
    /// Default: 300 ms warm-up, 1 s measurement window.
    Full,
    /// `--quick`: 30 ms warm-up, 150 ms window.
    Quick,
    /// `--test`: one iteration, no timing windows.
    Test,
}

fn mode() -> Mode {
    static MODE: OnceLock<Mode> = OnceLock::new();
    *MODE.get_or_init(|| {
        let mut mode = Mode::Full;
        for arg in std::env::args() {
            match arg.as_str() {
                "--test" => mode = Mode::Test,
                "--quick" => mode = Mode::Quick,
                _ => {}
            }
        }
        mode
    })
}

fn windows() -> (Duration, Duration) {
    match mode() {
        Mode::Full => (WARMUP, MEASURE),
        Mode::Quick => (Duration::from_millis(30), Duration::from_millis(150)),
        Mode::Test => (Duration::ZERO, Duration::ZERO),
    }
}

/// Declared work per iteration, for throughput reporting.
#[derive(Clone, Copy, Debug)]
pub enum Throughput {
    /// Bytes processed per iteration.
    Bytes(u64),
    /// Abstract elements processed per iteration.
    Elements(u64),
}

/// A benchmark identifier: a function name plus a parameter.
#[derive(Clone, Debug)]
pub struct BenchmarkId {
    name: String,
}

impl BenchmarkId {
    /// Creates an id like `name/parameter`.
    pub fn new(name: impl Into<String>, parameter: impl std::fmt::Display) -> Self {
        BenchmarkId {
            name: format!("{}/{}", name.into(), parameter),
        }
    }
}

/// Timing loop handed to each benchmark closure.
#[derive(Debug, Default)]
pub struct Bencher {
    total: Duration,
    iterations: u64,
}

impl Bencher {
    /// Runs `f` repeatedly: a short warm-up, then a measured window
    /// (both shrink under `--quick`, and collapse to a single call
    /// under `--test`).
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        let (warmup, measure) = windows();
        let warmup_deadline = Instant::now() + warmup;
        while Instant::now() < warmup_deadline {
            std::hint::black_box(f());
        }
        let start = Instant::now();
        let deadline = start + measure;
        let mut iterations = 0u64;
        while Instant::now() < deadline || iterations == 0 {
            std::hint::black_box(f());
            iterations += 1;
        }
        self.total = start.elapsed();
        self.iterations = iterations;
    }
}

const WARMUP: Duration = Duration::from_millis(300);
const MEASURE: Duration = Duration::from_millis(1000);

/// The top-level harness handle.
#[derive(Debug, Default)]
pub struct Criterion {}

impl Criterion {
    /// Runs one benchmark.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, name: &str, f: F) -> &mut Self {
        run_one(name, None, f);
        self
    }

    /// Opens a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            _criterion: self,
            name: name.into(),
            throughput: None,
        }
    }
}

/// A group of benchmarks sharing a name prefix and a throughput.
#[derive(Debug)]
pub struct BenchmarkGroup<'a> {
    _criterion: &'a mut Criterion,
    name: String,
    throughput: Option<Throughput>,
}

impl BenchmarkGroup<'_> {
    /// Declares the per-iteration work for throughput reporting.
    pub fn throughput(&mut self, throughput: Throughput) -> &mut Self {
        self.throughput = Some(throughput);
        self
    }

    /// Runs one benchmark inside the group.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, name: &str, f: F) -> &mut Self {
        run_one(&format!("{}/{}", self.name, name), self.throughput, f);
        self
    }

    /// Runs one parameterized benchmark inside the group.
    pub fn bench_with_input<I: ?Sized, F: FnMut(&mut Bencher, &I)>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: F,
    ) -> &mut Self {
        run_one(
            &format!("{}/{}", self.name, id.name),
            self.throughput,
            |b| f(b, input),
        );
        self
    }

    /// Ends the group (formatting no-op, kept for API parity).
    pub fn finish(&mut self) {}
}

fn run_one<F: FnMut(&mut Bencher)>(label: &str, throughput: Option<Throughput>, mut f: F) {
    let mut bencher = Bencher::default();
    f(&mut bencher);
    if bencher.iterations == 0 {
        println!("{label:<48} (no measurement: closure never called iter)");
        return;
    }
    let per_iter = bencher.total.as_secs_f64() / bencher.iterations as f64;
    let mut line = format!("{label:<48} {:>12}/iter", format_time(per_iter));
    if let Some(t) = throughput {
        let rate = match t {
            Throughput::Bytes(n) => format!("{}/s", format_bytes(n as f64 / per_iter)),
            Throughput::Elements(n) => format!("{:.3e} elem/s", n as f64 / per_iter),
        };
        line.push_str(&format!("  {rate:>14}"));
    }
    println!("{line}");
}

fn format_time(seconds: f64) -> String {
    if seconds < 1e-6 {
        format!("{:.1} ns", seconds * 1e9)
    } else if seconds < 1e-3 {
        format!("{:.2} µs", seconds * 1e6)
    } else if seconds < 1.0 {
        format!("{:.2} ms", seconds * 1e3)
    } else {
        format!("{seconds:.3} s")
    }
}

fn format_bytes(bytes_per_sec: f64) -> String {
    const KIB: f64 = 1024.0;
    if bytes_per_sec >= KIB * KIB * KIB {
        format!("{:.2} GiB", bytes_per_sec / (KIB * KIB * KIB))
    } else if bytes_per_sec >= KIB * KIB {
        format!("{:.2} MiB", bytes_per_sec / (KIB * KIB))
    } else if bytes_per_sec >= KIB {
        format!("{:.2} KiB", bytes_per_sec / KIB)
    } else {
        format!("{bytes_per_sec:.0} B")
    }
}

/// Collects benchmark functions into a runnable group, mirroring
/// `criterion::criterion_group!`.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $crate::Criterion::default();
            $( $target(&mut criterion); )+
        }
    };
}

/// Entry point running every group, mirroring `criterion::criterion_main!`.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bencher_counts_iterations() {
        let mut b = Bencher::default();
        b.iter(|| 1 + 1);
        assert!(b.iterations > 0);
        assert!(b.total > Duration::ZERO);
    }

    #[test]
    fn formatting() {
        assert!(format_time(5e-9).ends_with("ns"));
        assert!(format_time(5e-5).contains("µs"));
        assert!(format_time(5e-2).contains("ms"));
        assert!(format_bytes(10.0 * 1024.0 * 1024.0).contains("MiB"));
        let id = BenchmarkId::new("sel", 16);
        assert_eq!(id.name, "sel/16");
    }
}
