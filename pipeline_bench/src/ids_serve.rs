//! `ids_serve`: the Snort-statistics NFA served as a hybrid DFA/NFA plan
//! through an uncapped `ControlledBatch`, one client, closed loop.
//!
//! Sparse activity spread over hundreds of shards: per-shard stepping is
//! nearly all of the time. Compilation runs only in set-up.

use crate::plant::{self, Planter};
use crate::record::{count, host, Record};
use crate::stats::{median, percentile, Tracer};
use crate::{
    derive_seed, model, paper_eval, same_reports, secs, setup_median, timed, Activity, Run,
    COMPILE_WORKERS,
};
use cama_core::compile::{compile_hybrid_ruleset, CompileReport, DfaPolicy, PlanCache};
use cama_core::compiled::ShardedAutomaton;
use cama_core::Nfa;
use cama_sim::control::{ControlConfig, ControlledBatch, FlowSpec};
use cama_sim::{BatchSimulator, Report, Session, ShardStats, ShardedSession, Simulator, StreamId};
use cama_workloads::Benchmark;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Duration;

/// Why this workload exists (recorded in every run).
pub const WHY: &str = "sparse Snort NFA over ~517 shards, hybrid DFA/NFA plan behind an uncapped \
                       ControlledBatch: per-shard stepping dominates, compile only in set-up";

const SCALE: f64 = 0.1;
const FLOWS: usize = 16;
const TENANTS: u32 = 4;
const FLOW_BYTES: usize = 16 * 1024;
const CHUNK: usize = 1024;
/// One planted match per KiB.
const PLANT_SPACING: usize = 1024;
const MAX_PATH: usize = 64;
const MAX_PATHS: usize = 4096;

/// One pass's traffic: 16 flows, their planted matches and the flat
/// reference's reports.
struct Pass {
    flows: Vec<Vec<u8>>,
    planted: Vec<Vec<plant::Planted>>,
    want: Vec<Vec<Report>>,
}

fn make_pass(nfa: &Nfa, planter: &Planter, seed: u64, pass: u64) -> Pass {
    let mut flows = Vec::with_capacity(FLOWS);
    let mut planted = Vec::with_capacity(FLOWS);
    for flow in 0..FLOWS as u64 {
        let flow_seed = derive_seed(seed, &[pass, flow]);
        let mut bytes = Benchmark::Snort.input(nfa, FLOW_BYTES, flow_seed);
        let mut rng = StdRng::seed_from_u64(flow_seed ^ 1);
        planted.push(planter.plant(nfa, &mut bytes, PLANT_SPACING, &mut rng));
        flows.push(bytes);
    }
    Pass {
        flows,
        planted,
        want: Vec::new(),
    }
}

/// What one measured loop did.
#[derive(Default)]
struct Served {
    bytes: u64,
    /// Wall time inside feed and close calls.
    busy: Duration,
    feed_ms: Vec<f64>,
    /// Each pass's flow bytes ÷ its feed+close wall time, MB/s.
    pass_mb_s: Vec<f64>,
    activity: Activity,
    admitted: u64,
    deferred: u64,
    rejected: u64,
    parked_peak: usize,
    flat_ns_per_byte: Vec<f64>,
    last_pass: Option<Pass>,
}

/// Feeds passes of 16 flows round-robin in 1 KiB chunks through the
/// control plane, closes them, and checks each flow against the flat
/// reference and its planted matches, for the loop's time budget.
fn serve(
    run: &Run,
    nfa: &Nfa,
    plan: &ShardedAutomaton,
    planter: &Planter,
    tracer: &mut Tracer,
    record: &mut Record,
) -> Served {
    let mut out = Served::default();
    let mut reference = Simulator::new(nfa);
    let mut batch = ControlledBatch::new(plan, ControlConfig::new());
    let mut pass = 0u64;
    let start = std::time::Instant::now();
    while start.elapsed() < run.loop_budget() {
        let mut traffic = make_pass(nfa, planter, run.seed, pass);
        let busy_before = out.busy;
        let base = (pass * FLOWS as u64) as StreamId;
        for flow in 0..FLOWS {
            let spec = FlowSpec::new(flow as u32 % TENANTS);
            let stream = base + flow as StreamId;
            let admission = tracer.span("control.open", || batch.open(stream, spec));
            record.check(if admission.is_admitted() {
                Ok(())
            } else {
                Err(format!(
                    "pass {pass} flow {flow}: open refused ({admission:?})"
                ))
            });
        }
        for offset in (0..FLOW_BYTES).step_by(CHUNK) {
            for (flow, bytes) in traffic.flows.iter().enumerate() {
                let chunk = &bytes[offset..offset + CHUNK];
                let stream = base + flow as StreamId;
                let (verdict, took) =
                    timed(|| tracer.span("control.feed", || batch.feed(stream, chunk)));
                out.busy += took;
                out.feed_ms.push(secs(took) * 1e3);
                out.admitted += verdict.admitted as u64;
                out.deferred += verdict.deferred as u64;
                out.rejected += verdict.rejected as u64;
                out.parked_peak = out.parked_peak.max(batch.parked_count());
                record.check(if verdict.admitted == chunk.len() {
                    Ok(())
                } else {
                    Err(format!("pass {pass} flow {flow}: feed verdict {verdict:?}"))
                });
            }
        }
        for (flow, bytes) in traffic.flows.iter().enumerate() {
            let stream = base + flow as StreamId;
            let (result, took) = timed(|| tracer.span("control.close", || batch.close(stream)));
            out.busy += took;
            out.bytes += bytes.len() as u64;
            out.activity.add(bytes.len(), &result);

            let (want, flat) = timed(|| reference.run(bytes));
            out.flat_ns_per_byte
                .push(flat.as_nanos() as f64 / bytes.len() as f64);
            record.check(same_reports(
                &format!("pass {pass} flow {flow}"),
                &result.reports,
                &want.reports,
            ));
            let seen: Vec<_> = result.reports.iter().map(|r| (r.offset, r.ste)).collect();
            record.attempted += traffic.planted[flow].len() as u64;
            for lost in plant::missing(&traffic.planted[flow], &seen) {
                record.fail(format!(
                    "pass {pass} flow {flow}: planted match of state {} ending at {} not reported",
                    lost.ste.0, lost.end
                ));
            }
            traffic.want.push(want.reports);
        }
        out.pass_mb_s
            .push((FLOWS * FLOW_BYTES) as f64 / 1e6 / secs(out.busy - busy_before));
        out.last_pass = Some(traffic);
        pass += 1;
    }
    out
}

/// Per-chunk latencies of replaying one pass through the layers beneath
/// the control plane.
struct Replay {
    sharded_us: Vec<f64>,
    batch_us: Vec<f64>,
    close_us: Vec<f64>,
    stats: ShardStats,
}

/// Replays one pass's chunks, round-robin as served, through
/// `ShardedSession::feed` (the engine) and `BatchSimulator::feed` (the
/// stream table), checking both against the reference.
fn replay(plan: &ShardedAutomaton, traffic: &Pass, record: &mut Record) -> Replay {
    let mut out = Replay {
        sharded_us: Vec::new(),
        batch_us: Vec::new(),
        close_us: Vec::new(),
        stats: ShardStats::default(),
    };
    let mut sessions: Vec<ShardedSession<'_>> =
        (0..FLOWS).map(|_| ShardedSession::new(plan)).collect();
    for offset in (0..FLOW_BYTES).step_by(CHUNK) {
        for (session, bytes) in sessions.iter_mut().zip(&traffic.flows) {
            let ((), took) = timed(|| session.feed(&bytes[offset..offset + CHUNK]));
            out.sharded_us.push(secs(took) * 1e6);
        }
    }
    for (flow, session) in sessions.iter_mut().enumerate() {
        let result = session.finish();
        out.stats.merge(&session.take_stats());
        record.check(same_reports(
            &format!("sharded replay flow {flow}"),
            &result.reports,
            &traffic.want[flow],
        ));
    }

    let mut table = BatchSimulator::new(plan);
    for offset in (0..FLOW_BYTES).step_by(CHUNK) {
        for (flow, bytes) in traffic.flows.iter().enumerate() {
            let ((), took) = timed(|| table.feed(flow as StreamId, &bytes[offset..offset + CHUNK]));
            out.batch_us.push(secs(took) * 1e6);
        }
    }
    for flow in 0..FLOWS {
        let (result, took) = timed(|| table.close(flow as StreamId));
        out.close_us.push(secs(took) * 1e6);
        record.check(same_reports(
            &format!("batch replay flow {flow}"),
            &result.reports,
            &traffic.want[flow],
        ));
    }
    out
}

/// Runs the workload and fills `record`.
pub fn run(run: &Run, record: &mut Record) {
    // Input generation: the automaton is this workload's ruleset.
    let nfa = Benchmark::Snort.generate(SCALE);
    let planter = Planter::new(&nfa, MAX_PATH, MAX_PATHS);
    record
        .env
        .insert("states".into(), (nfa.len() as f64).into());
    record
        .env
        .insert("plant_paths".into(), (planter.len() as f64).into());

    let mut tracer = Tracer::new(run.trace);
    let (plan, report) = setup_median(record, &mut tracer, || {
        let mut cache = PlanCache::default();
        compile_hybrid_ruleset(&nfa, COMPILE_WORKERS, &mut cache, &DfaPolicy::default())
    });
    compile_rows(record, &plan, &report);

    let (served, traced) = if run.trace {
        let untraced = serve(run, &nfa, &plan, &planter, &mut Tracer::new(false), record);
        let traced = serve(run, &nfa, &plan, &planter, &mut tracer, record);
        (untraced, Some(traced))
    } else {
        let served = serve(run, &nfa, &plan, &planter, &mut tracer, record);
        (served, None)
    };

    record.e2e(
        "scan_mb_s",
        host(median(&served.pass_mb_s).unwrap_or(f64::NAN), "MB/s")
            .over(served.pass_mb_s.len())
            .per("median over passes of 16 flows x 16 KiB"),
    );
    crate::op_rows(
        record,
        &served.feed_ms,
        "per ControlledBatch::feed of 1 KiB",
    );
    record.e2e(
        "feed_us_p50",
        host(median(&served.feed_ms).unwrap_or(f64::NAN) * 1e3, "us").over(served.feed_ms.len()),
    );
    record.e2e(
        "feed_us_p99",
        host(
            percentile(&served.feed_ms, 99.0).unwrap_or(f64::NAN) * 1e3,
            "us",
        )
        .over(served.feed_ms.len()),
    );

    // Modeled energy of the first pass's traffic (fixed per seed).
    let first = make_pass(&nfa, &planter, run.seed, 0);
    let prepared = model::record_serving(record, &mut tracer, &nfa, &first.flows);

    record.layer(
        "flat.ns_per_byte",
        host(median(&served.flat_ns_per_byte).unwrap_or(f64::NAN), "ns")
            .over(served.flat_ns_per_byte.len()),
    );
    served.activity.record(record);
    record.layer(
        "control.admitted_bytes",
        count(served.admitted as f64, "bytes"),
    );
    record.layer(
        "control.deferred_bytes",
        count(served.deferred as f64, "bytes"),
    );
    record.layer(
        "control.rejected_bytes",
        count(served.rejected as f64, "bytes"),
    );
    record.layer(
        "control.parked_peak",
        count(served.parked_peak as f64, "flows"),
    );

    if let Some(traced) = traced {
        let overhead =
            (secs(traced.busy) / traced.bytes as f64) / (secs(served.busy) / served.bytes as f64);
        record.layer(
            "trace.overhead_ratio",
            host(overhead, "ratio").per("untraced feed+close ns per byte, same process"),
        );
        let traffic = served.last_pass.as_ref().expect("at least one pass ran");
        let replay = replay(&plan, traffic, record);
        layer_rows(record, &plan, &served, &replay);
        // The paper-engine probes on this workload's automaton and traffic.
        let probe = paper_eval::engine_probe(record, "snort", &nfa, &prepared, &first.flows[0]);
        paper_eval::probe_rows(record, &[probe]);
        crate::record_spans(record, &tracer);
    }
}

/// The compile-layer rows shared with `rule_churn`.
pub fn compile_rows(record: &mut Record, plan: &ShardedAutomaton, report: &CompileReport) {
    let dfa_bytes: usize = plan
        .shards()
        .iter()
        .filter_map(|s| s.dfa().map(|d| d.table_bytes()))
        .sum();
    record.layer(
        "compile.components",
        count(report.components as f64, "count"),
    );
    record.layer(
        "compile.cache_hits",
        count(report.cache_hits as f64, "count"),
    );
    record.layer(
        "compile.cache_misses",
        count(report.cache_misses as f64, "count"),
    );
    record.layer(
        "compile.cache_hit_ratio",
        count(
            report.cache_hits as f64 / report.components.max(1) as f64,
            "ratio",
        )
        .per("compile.components"),
    );
    record.layer(
        "compile.dfa_shards",
        count(plan.num_dfa_shards() as f64, "count"),
    );
    record.layer(
        "compile.dfa_ratio",
        count(
            plan.num_dfa_shards() as f64 / plan.num_shards().max(1) as f64,
            "ratio",
        )
        .per("plan shards"),
    );
    record.layer("compile.dfa_table_bytes", count(dfa_bytes as f64, "bytes"));
}

/// The sharded/batch/control rows from the traced replays.
fn layer_rows(record: &mut Record, plan: &ShardedAutomaton, served: &Served, replay: &Replay) {
    sharded_rows(record, plan, &replay.sharded_us, CHUNK, &replay.stats);
    let batch_p50 = median(&replay.batch_us).unwrap_or(f64::NAN);
    record.layer(
        "batch.feed_us_p50",
        host(batch_p50, "us").over(replay.batch_us.len()),
    );
    record.layer(
        "batch.close_us_p50",
        host(median(&replay.close_us).unwrap_or(f64::NAN), "us").over(replay.close_us.len()),
    );
    let controlled_p50 = median(&served.feed_ms).unwrap_or(f64::NAN) * 1e3;
    record.layer(
        "control.overhead_ratio",
        host(controlled_p50 / batch_p50, "ratio").per("batch.feed_us_p50 (same chunk size)"),
    );
}

/// The sharded-engine rows: replay latency and the shard counters, with
/// DFA and NFA shard-cycles apart (a DFA shard-cycle counts one word).
pub fn sharded_rows(
    record: &mut Record,
    plan: &ShardedAutomaton,
    feed_us: &[f64],
    chunk: usize,
    stats: &ShardStats,
) {
    let visited = stats.visited_shard_cycles();
    let skipped = stats.skipped_shard_cycles;
    let (mut dfa, mut nfa) = (0u64, 0u64);
    for (shard, &cycles) in stats.shard_cycles.iter().enumerate() {
        if plan.shard(shard).dfa().is_some() {
            dfa += cycles;
        } else {
            nfa += cycles;
        }
    }
    let total_us: f64 = feed_us.iter().sum();
    record.layer(
        "sharded.feed_us_p50",
        host(median(feed_us).unwrap_or(f64::NAN), "us").over(feed_us.len()),
    );
    record.layer(
        "exec.ns_per_byte",
        host(
            median(feed_us).unwrap_or(f64::NAN) * 1e3 / chunk as f64,
            "ns",
        )
        .over(feed_us.len()),
    );
    record.layer(
        "sharded.visited_shard_cycles",
        count(visited as f64, "count"),
    );
    record.layer(
        "sharded.skipped_shard_cycles",
        count(skipped as f64, "count"),
    );
    record.layer(
        "sharded.skip_ratio",
        count(skipped as f64 / (visited + skipped).max(1) as f64, "ratio")
            .per("visited + skipped shard-cycles"),
    );
    record.layer("sharded.dfa_shard_cycles", count(dfa as f64, "count"));
    record.layer("sharded.nfa_shard_cycles", count(nfa as f64, "count"));
    record.layer(
        "sharded.words_visited",
        count(stats.words_visited as f64, "words").per("a DFA shard-cycle counts one word"),
    );
    record.layer(
        "sharded.ns_per_shard_cycle",
        host(total_us * 1e3 / visited.max(1) as f64, "ns").per("sharded.visited_shard_cycles"),
    );
    record.layer(
        "sharded.cross_activations",
        count(stats.cross_activations as f64, "count"),
    );
}
