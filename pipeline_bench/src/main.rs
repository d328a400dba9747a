//! The CAMA pipeline benchmark.
//!
//! ```console
//! $ cargo run --release --manifest-path pipeline_bench/Cargo.toml -- \
//!       --workload ids_serve --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Runs one workload through the workspace's public entry points,
//! checks every output against a reference, and prints the full record
//! as one JSON line followed by the result line: `correct`, `attempted`,
//! `failed`, and the end-to-end metrics (`--trace 0`) or the per-layer
//! metrics (`--trace 1`). See `README.md` for the workloads and the
//! metric → layer → end-to-end table.

mod ids_serve;
mod model;
mod paper_eval;
mod plant;
mod record;
mod rule_churn;
mod stats;

use cama_core::json::JsonValue;
use cama_sim::{Report, RunResult};
use record::Record;
use stats::Tracer;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// End-to-end metrics every workload prints with `--trace 0`, in the
/// order `BENCHMARK.json` lists them.
const END_TO_END: [&str; 5] = [
    "setup_s",
    "scan_mb_s",
    "peak_rss_mb",
    "model_nj_per_byte",
    "model_2s_nj_per_byte",
];

/// Per-layer metrics every workload prints with `--trace 1`, in the
/// order `BENCHMARK.json` lists them. The full record carries the rest
/// of the per-layer table for the workloads that exercise each layer.
const PER_LAYER: [&str; 16] = [
    "op_ms_p50",
    "op_ms_p90",
    "trace.overhead_ratio",
    "exec.ns_per_byte",
    "flat.ns_per_byte",
    "encoding.plan_ms",
    "stride.from_nfa_ms",
    "stride.states",
    "exec.cycles",
    "exec.active_per_cycle",
    "exec.dynamic_enabled_per_cycle",
    "exec.reports_per_kib",
    "energy.state_match_pj_per_byte",
    "energy.switch_wire_pj_per_byte",
    "energy.encoder_pj_per_byte",
    "model.eval_ns_per_byte",
];

/// Every metric of the benchmark's full table (README.md). A run lists
/// the ones its workload does not produce under `absent`.
const TABLE: [&str; 77] = [
    "feed_us_p50",
    "feed_us_p99",
    "update_ms_p50",
    "update_ms_p90",
    "eval_mb_s",
    "regex.compile_ms_p50",
    "regex.states",
    "compile.cold_s",
    "compile.warm_ms_p50",
    "compile.components",
    "compile.cache_hits",
    "compile.cache_misses",
    "compile.cache_hit_ratio",
    "compile.dfa_shards",
    "compile.dfa_ratio",
    "compile.dfa_table_bytes",
    "compile.remap_ms_p50",
    "compile.remap_append_ms_p50",
    "sharded.feed_us_p50",
    "sharded.visited_shard_cycles",
    "sharded.skipped_shard_cycles",
    "sharded.skip_ratio",
    "sharded.dfa_shard_cycles",
    "sharded.nfa_shard_cycles",
    "sharded.words_visited",
    "sharded.ns_per_shard_cycle",
    "sharded.cross_activations",
    "batch.feed_us_p50",
    "batch.close_us_p50",
    "control.overhead_ratio",
    "control.admitted_bytes",
    "control.deferred_bytes",
    "control.rejected_bytes",
    "control.parked_peak",
    "control.resume_feed_us_p50",
    "swap.ms_p50",
    "swap.migrated",
    "swap.deferred",
    "swap.idle",
    "swap.displaced",
    "swap.states_kept",
    "swap.states_dropped",
    "swap.pending_remaps_peak",
    "encoding.plan_ms",
    "encoding.compile_ms",
    "encoding.entries",
    "stride.from_nfa_ms",
    "stride.states",
    "mapping.map_ms",
    "mapping.partitions",
    "engine.encoded_ns_per_byte.snort",
    "engine.encoded_ns_per_byte.spm",
    "engine.encoded_ns_per_byte.blockrings",
    "engine.strided_ns_per_byte.snort",
    "engine.strided_ns_per_byte.spm",
    "engine.strided_ns_per_byte.blockrings",
    "energy.observer_ratio.snort",
    "energy.observer_ratio.spm",
    "energy.observer_ratio.blockrings",
    "energy.state_match_pj_per_byte",
    "energy.switch_wire_pj_per_byte",
    "energy.encoder_pj_per_byte",
    "model.eval_ns_per_byte",
    "exec.ns_per_byte",
    "flat.ns_per_byte",
    "exec.cycles",
    "exec.active_per_cycle",
    "exec.dynamic_enabled_per_cycle",
    "exec.reports_per_kib",
    "op_ms_p50",
    "op_ms_p90",
    "trace.overhead_ratio",
    "setup_s",
    "scan_mb_s",
    "peak_rss_mb",
    "model_nj_per_byte",
    "model_2s_nj_per_byte",
];

/// A seed no tuning run uses: later claims are re-checked on it.
const HELD_OUT_SEED: u64 = 90_017;

/// Environment variables that change what the program executes. A run
/// with any of them set would not be comparable, so it is refused.
const PINNED_ENV: [&str; 4] = ["CAMA_KERNEL", "CAMA_DFA", "CAMA_WORKERS", "CAMA_SCALE"];

/// Worker count passed to every compile call: one thread, so compile
/// time does not depend on how busy the host's other core is.
pub const COMPILE_WORKERS: usize = 1;

/// Each workload repeats its set-up at least this many times and for at
/// least `SETUP_SECONDS`; `setup_s` is the median.
pub const SETUP_REPEATS: usize = 3;
/// See `SETUP_REPEATS`.
pub const SETUP_SECONDS: Duration = Duration::from_secs(2);

/// Why the per-operation latency percentiles are per-layer rows rather
/// than end-to-end metrics.
pub const OP_DEMOTED: &str = "demoted from end to end: between seeds at 30 s its spread \
                              (quartile distance over median) reached 0.12-0.28, above 0.1, \
                              because host memory-latency phases move it";

/// Records the per-operation latency percentiles (milliseconds).
pub fn op_rows(record: &mut Record, op_ms: &[f64], what: &str) {
    let base = format!("{what}; {OP_DEMOTED}");
    for (name, p) in [("op_ms_p50", 50.0), ("op_ms_p90", 90.0)] {
        record.layer(
            name,
            record::host(stats::percentile(op_ms, p).unwrap_or(f64::NAN), "ms")
                .over(op_ms.len())
                .per(&base),
        );
    }
}

/// One run's settings.
pub struct Run {
    /// Input seed.
    pub seed: u64,
    /// Measured time budget.
    pub budget: Duration,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
}

impl Run {
    /// The budget of one measured loop: the traced run splits its
    /// budget between an untraced and a traced loop so the tracing
    /// overhead is measured on the same inputs.
    pub fn loop_budget(&self) -> Duration {
        if self.trace {
            self.budget / 2
        } else {
            self.budget
        }
    }
}

/// Seconds as `f64`.
pub fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Times `f`, returning its output and the elapsed wall time.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

/// A stable 64-bit mix of a seed and a stream of indices, so every
/// generated input has its own reproducible seed.
pub fn derive_seed(seed: u64, parts: &[u64]) -> u64 {
    let mut h = seed ^ 0x9E37_79B9_7F4A_7C15;
    for &part in parts {
        h = (h ^ part).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        h ^= h >> 31;
    }
    h
}

/// `Ok` when two report lists are identical, otherwise the first
/// difference.
pub fn same_reports(what: &str, got: &[Report], want: &[Report]) -> Result<(), String> {
    if got == want {
        return Ok(());
    }
    let first = got.iter().zip(want).position(|(a, b)| a != b);
    Err(format!(
        "{what}: {} reports, reference has {}; first difference at index {}",
        got.len(),
        want.len(),
        first.unwrap_or(got.len().min(want.len()))
    ))
}

/// Runs the workload's set-up at least `SETUP_REPEATS` times and for at
/// least `SETUP_SECONDS`, records the median as `setup_s`, and returns
/// the last set-up's product.
pub fn setup_median<T>(
    record: &mut Record,
    tracer: &mut Tracer,
    mut setup: impl FnMut() -> T,
) -> T {
    let mut times = Vec::new();
    let mut product = None;
    let start = Instant::now();
    while times.len() < SETUP_REPEATS || start.elapsed() < SETUP_SECONDS {
        drop(product.take());
        let (out, took) = timed(|| tracer.span("setup", &mut setup));
        times.push(secs(took));
        product = Some(out);
    }
    record.e2e(
        "setup_s",
        record::host(stats::median(&times).expect("repeats > 0"), "s").over(times.len()),
    );
    product.expect("repeats > 0")
}

/// Writes each traced layer call's count and self time (its span's
/// duration minus its child spans), per span name.
pub fn record_spans(record: &mut Record, tracer: &Tracer) {
    for (name, (calls, _, self_ns)) in stats::self_times(tracer.spans()) {
        record.layer(
            &format!("span.{name}.self_ms"),
            record::host(self_ns as f64 / 1e6, "ms").over(calls as usize),
        );
    }
}

/// Activity totals over many runs, for the `exec.*` metrics.
#[derive(Clone, Copy, Debug, Default)]
pub struct Activity {
    /// Input bytes.
    pub bytes: u64,
    /// Engine cycles.
    pub cycles: u64,
    /// Sum over cycles of active states.
    pub active: u64,
    /// Sum over cycles of dynamically enabled states.
    pub dynamic: u64,
    /// Reports emitted.
    pub reports: u64,
}

impl Activity {
    /// Folds one run's result over `bytes` input bytes.
    pub fn add(&mut self, bytes: usize, result: &RunResult) {
        self.bytes += bytes as u64;
        self.cycles += result.activity.cycles as u64;
        self.active += result.activity.total_active as u64;
        self.dynamic += result.activity.total_dynamic_enabled as u64;
        self.reports += result.reports.len() as u64;
    }

    /// Writes the `exec.*` rows.
    pub fn record(&self, record: &mut Record) {
        use record::count;
        let cycles = self.cycles.max(1) as f64;
        record.layer("exec.cycles", count(self.cycles as f64, "count"));
        record.layer(
            "exec.active_per_cycle",
            count(self.active as f64 / cycles, "states").per("exec.cycles"),
        );
        record.layer(
            "exec.dynamic_enabled_per_cycle",
            count(self.dynamic as f64 / cycles, "states").per("exec.cycles"),
        );
        record.layer(
            "exec.reports_per_kib",
            count(
                self.reports as f64 * 1024.0 / self.bytes.max(1) as f64,
                "reports",
            )
            .per("input KiB"),
        );
    }
}

fn usage() -> String {
    "usage: pipeline_bench --workload <ids_serve|rule_churn|paper_eval> --seed <n> \
     --seconds <n> --trace <0|1>"
        .to_string()
}

fn parse_args() -> Result<(String, Run), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        let value = iter
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{}", usage()))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<u64>()
                        .ok()
                        .filter(|&s| s > 0)
                        .ok_or_else(|| "--seconds must be a positive integer".to_string())?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".to_string()),
                })
            }
            _ => return Err(format!("unknown flag {flag}\n{}", usage())),
        }
    }
    let missing = |name: &str| format!("missing {name}\n{}", usage());
    Ok((
        workload.ok_or_else(|| missing("--workload"))?,
        Run {
            seed: seed.ok_or_else(|| missing("--seed"))?,
            budget: Duration::from_secs(seconds.ok_or_else(|| missing("--seconds"))?),
            trace: trace.ok_or_else(|| missing("--trace"))?,
        },
    ))
}

fn main() -> ExitCode {
    let (workload, run) = match parse_args() {
        Ok(parsed) => parsed,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::from(2);
        }
    };
    if let Some(var) = PINNED_ENV.iter().find(|v| std::env::var_os(v).is_some()) {
        eprintln!("refusing to run: {var} is set; unset every one of {PINNED_ENV:?}");
        return ExitCode::from(2);
    }
    let (why, body): (&str, fn(&Run, &mut Record)) = match workload.as_str() {
        "ids_serve" => (ids_serve::WHY, ids_serve::run),
        "rule_churn" => (rule_churn::WHY, rule_churn::run),
        "paper_eval" => (paper_eval::WHY, paper_eval::run),
        other => {
            eprintln!("unknown workload {other}\n{}", usage());
            return ExitCode::from(2);
        }
    };

    let mut record = Record::default();
    let env = &mut record.env;
    env.insert("workload".into(), JsonValue::from(workload.as_str()));
    env.insert("why".into(), JsonValue::from(why));
    env.insert("seed".into(), JsonValue::Number(run.seed as f64));
    env.insert(
        "held_out_seed".into(),
        JsonValue::Number(HELD_OUT_SEED as f64),
    );
    env.insert("seconds".into(), JsonValue::Number(secs(run.budget)));
    env.insert("trace".into(), JsonValue::Bool(run.trace));
    env.insert(
        "kernel".into(),
        JsonValue::from(cama_core::kernel::describe().as_str()),
    );
    env.insert(
        "dfa_enabled".into(),
        JsonValue::Bool(cama_core::compile::dfa_enabled()),
    );
    env.insert(
        "nproc".into(),
        JsonValue::Number(std::thread::available_parallelism().map_or(1, usize::from) as f64),
    );
    env.insert(
        "compile_workers".into(),
        JsonValue::Number(COMPILE_WORKERS as f64),
    );

    let wall = Instant::now();
    let outcome =
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| body(&run, &mut record)));
    if let Err(panic) = outcome {
        let message = panic
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| panic.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic".to_string());
        record.attempted += 1;
        record.fail(format!("panic: {message}"));
    }
    record
        .env
        .insert("wall_s".into(), JsonValue::Number(secs(wall.elapsed())));
    if let Some(rss) = stats::peak_rss_mb() {
        record.e2e("peak_rss_mb", record::host(rss, "MB"));
    }

    for name in TABLE {
        if !record.end_to_end.contains_key(name) && !record.per_layer.contains_key(name) {
            let trace = u8::from(run.trace);
            record.absent(
                name,
                &format!("not produced by {workload} with --trace {trace}: it does not call the layer, or the row needs the traced run"),
            );
        }
    }
    for cause in &record.failures {
        eprintln!("failure: {cause}");
    }
    println!("{}", record.to_json().to_json());
    let names: &[&str] = if run.trace { &PER_LAYER } else { &END_TO_END };
    match record.result_line(run.trace, names) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(message) => {
            eprintln!("no result: {message}");
            ExitCode::from(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cama_core::json;

    fn names(doc: &JsonValue, key: &str) -> Vec<String> {
        doc.get(key)
            .and_then(JsonValue::as_array)
            .expect("metric list")
            .iter()
            .map(|m| {
                m.get("name")
                    .and_then(JsonValue::as_str)
                    .expect("name")
                    .to_string()
            })
            .collect()
    }

    #[test]
    fn metric_lists_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the package");
        let doc = json::parse(&text).expect("BENCHMARK.json is valid JSON");
        assert_eq!(names(&doc, "end_to_end"), END_TO_END);
        assert_eq!(names(&doc, "per_layer"), PER_LAYER);
        for name in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(TABLE.contains(name), "{name} missing from the full table");
        }
    }
}
