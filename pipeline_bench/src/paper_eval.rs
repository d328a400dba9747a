//! `paper_eval`: the paper's figure entry points, `evaluate_with_plan`
//! (CAMA-E, Figs 11–12) and `evaluate_strided` (2s-CAMA-E, Fig 13), on
//! Snort (sparse), SPM (dense, report-heavy) and BlockRings (dense, no
//! reports) at scale 0.1.
//!
//! Runs the flat encoded engine, the strided engine, encoding, mapping
//! and the energy observer: activity opposite to `ids_serve`'s. Its
//! modeled columns catch any simulator change that moves the paper's
//! numbers.

use crate::model::{self, Prepared};
use crate::plant::{self, Planter};
use crate::record::{count, host, Record};
use crate::stats::{geomean, median, Tracer};
use crate::{derive_seed, secs, setup_median, timed, Activity, Run};
use cama_arch::energy::{EnergyBreakdown, EnergyObserver};
use cama_arch::mapping::map_design;
use cama_arch::DesignKind;
use cama_core::Nfa;
use cama_encoding::EncodingPlan;
use cama_mem::models::CircuitLibrary;
use cama_sim::{EncodedSession, EncodedStridedSession, Session, Simulator};
use cama_workloads::Benchmark;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Why this workload exists (recorded in every run).
pub const WHY: &str = "the paper's figure entry points (CAMA-E, 2s-CAMA-E) on sparse Snort, dense \
                       report-heavy SPM and dense silent BlockRings: encoded/strided engines, \
                       encoding, mapping and the energy observer";

const SCALE: f64 = 0.1;
const BENCHES: [(Benchmark, &str); 3] = [
    (Benchmark::Snort, "snort"),
    (Benchmark::Spm, "spm"),
    (Benchmark::BlockRings, "blockrings"),
];
const INPUT_BYTES: usize = 8 * 1024;
const PLANT_SPACING: usize = 1024;

fn input(
    bench: Benchmark,
    nfa: &Nfa,
    planter: &Planter,
    seed: u64,
    sweep: u64,
    index: u64,
) -> (Vec<u8>, Vec<plant::Planted>) {
    let input_seed = derive_seed(seed, &[sweep, index]);
    let mut bytes = bench.input(nfa, INPUT_BYTES, input_seed);
    let mut rng = StdRng::seed_from_u64(input_seed ^ 1);
    let planted = planter.plant(nfa, &mut bytes, PLANT_SPACING, &mut rng);
    (bytes, planted)
}

/// Per-benchmark products and samples.
struct Bench {
    name: &'static str,
    kind: Benchmark,
    nfa: Nfa,
    planter: Planter,
    /// Host seconds per call, CAMA-E then 2s-CAMA-E.
    call_s: [Vec<f64>; 2],
    flat_ns_per_byte: Vec<f64>,
    /// Modeled energy of sweep 0 (fixed per seed), CAMA-E then 2s-CAMA-E.
    energy: [EnergyBreakdown; 2],
}

/// Runs the workload and fills `record`.
pub fn run(run: &Run, record: &mut Record) {
    // Input generation: the benchmark automata.
    let mut benches: Vec<Bench> = BENCHES
        .iter()
        .map(|&(kind, name)| {
            let nfa = kind.generate(SCALE);
            let planter = Planter::new(&nfa, 64, 4096);
            Bench {
                name,
                kind,
                nfa,
                planter,
                call_s: [Vec::new(), Vec::new()],
                flat_ns_per_byte: Vec::new(),
                energy: [EnergyBreakdown::default(); 2],
            }
        })
        .collect();

    let mut tracer = Tracer::new(run.trace);
    let prepared: Vec<Prepared> = setup_median(record, &mut tracer, || {
        benches
            .iter()
            .map(|b| model::prepare(&b.nfa, &mut Tracer::new(false)))
            .collect()
    });

    let mut sweep_ms = Vec::new();
    let mut activity = Activity::default();
    let mut sweeps_traced = Vec::new();
    let mut sweep = 0u64;
    for traced in [false, true] {
        if traced && !run.trace {
            break;
        }
        let mut untraced = Tracer::new(false);
        let loop_tracer = if traced { &mut tracer } else { &mut untraced };
        let loop_start = std::time::Instant::now();
        let mut times = Vec::new();
        while loop_start.elapsed() < run.loop_budget() {
            let mut sweep_s = 0.0;
            for (index, (bench, prep)) in benches.iter_mut().zip(&prepared).enumerate() {
                let (bytes, planted) = input(
                    bench.kind,
                    &bench.nfa,
                    &bench.planter,
                    run.seed,
                    sweep,
                    index as u64,
                );
                let [(one, one_t), (two, two_t)] =
                    model::evaluate(prep, &bench.nfa, &bytes, loop_tracer);
                sweep_s += secs(one_t) + secs(two_t);
                bench.call_s[0].push(secs(one_t));
                bench.call_s[1].push(secs(two_t));
                if sweep == 0 {
                    bench.energy = [one.energy, two.energy];
                }

                let (want, flat) = timed(|| Simulator::new(&bench.nfa).run(&bytes));
                bench
                    .flat_ns_per_byte
                    .push(flat.as_nanos() as f64 / bytes.len() as f64);
                activity.add(bytes.len(), &want);
                // 2-stride reports match the byte engine by offset, not by
                // count (one byte state can map to two pair states); the
                // traced run checks offsets on the strided engine.
                record.check(if one.reports == want.reports.len() {
                    Ok(())
                } else {
                    Err(format!(
                        "sweep {sweep} {}: CAMA-E reported {}, flat reference {}",
                        bench.name,
                        one.reports,
                        want.reports.len()
                    ))
                });
                let seen: Vec<_> = want.reports.iter().map(|r| (r.offset, r.ste)).collect();
                record.attempted += planted.len() as u64;
                for lost in plant::missing(&planted, &seen) {
                    record.fail(format!(
                        "sweep {sweep} {}: planted match of state {} ending at {} not reported",
                        bench.name, lost.ste.0, lost.end
                    ));
                }
            }
            times.push(sweep_s);
            sweep += 1;
        }
        if traced {
            sweeps_traced = times;
        } else {
            sweep_ms = times.iter().map(|s| s * 1e3).collect();
        }
    }

    // End to end: per-call throughput, geomean over benchmark × design.
    let mut per_call = Vec::new();
    for bench in &benches {
        for (design, calls) in ["cama_e", "cama_2e"].iter().zip(&bench.call_s) {
            let mb_s = INPUT_BYTES as f64 / 1e6 / median(calls).unwrap_or(f64::NAN);
            record.layer(
                &format!("eval.mb_s.{}.{design}", bench.name),
                host(mb_s, "MB/s").over(calls.len()),
            );
            per_call.push(mb_s);
        }
    }
    let eval = geomean(&per_call).unwrap_or(f64::NAN);

    let cama_e_ns: Vec<f64> = benches
        .iter()
        .map(|b| median(&b.call_s[0]).unwrap_or(f64::NAN) * 1e9 / INPUT_BYTES as f64)
        .collect();
    record.layer(
        "model.eval_ns_per_byte",
        host(geomean(&cama_e_ns).unwrap_or(f64::NAN), "ns")
            .per("evaluate_with_plan(CAMA-E) host time per input byte, geomean over 3 benchmarks"),
    );
    let calls = benches.iter().map(|b| b.call_s[0].len()).sum::<usize>() * 2;
    record.e2e(
        "eval_mb_s",
        host(eval, "MB/s")
            .over(calls)
            .per("geomean over 3 benchmarks x 2 designs"),
    );
    record.e2e("scan_mb_s", host(eval, "MB/s").over(calls).per("eval_mb_s"));
    crate::op_rows(record, &sweep_ms, "per sweep of all six evaluate calls");

    // Model columns: geomean over benchmarks of sweep 0's energy per byte.
    let per_design = |design: usize| {
        geomean(
            &benches
                .iter()
                .map(|b| model::nj_per_byte(&b.energy[design], INPUT_BYTES))
                .collect::<Vec<_>>(),
        )
        .unwrap_or(f64::NAN)
    };
    record.e2e(
        "model_nj_per_byte",
        crate::record::model(per_design(0), "nJ/B").per("geomean over 3 benchmarks"),
    );
    record.e2e(
        "model_2s_nj_per_byte",
        crate::record::model(per_design(1), "nJ/B").per("geomean over 3 benchmarks"),
    );
    let mut total = EnergyBreakdown::default();
    for bench in &benches {
        total.accumulate(&bench.energy[0]);
    }
    model::split_rows(record, &total, INPUT_BYTES * benches.len());

    let plan_ms: f64 = prepared.iter().map(|p| secs(p.plan_time) * 1e3).sum();
    let stride_ms: f64 = prepared.iter().map(|p| secs(p.stride_time) * 1e3).sum();
    record.layer(
        "encoding.plan_ms",
        host(plan_ms, "ms").per("sum over 3 benchmarks"),
    );
    record.layer(
        "stride.from_nfa_ms",
        host(stride_ms, "ms").per("sum over 3 benchmarks"),
    );
    record.layer(
        "stride.states",
        count(
            prepared.iter().map(|p| p.strided.len()).sum::<usize>() as f64,
            "count",
        ),
    );
    let flat: Vec<f64> = benches
        .iter()
        .map(|b| median(&b.flat_ns_per_byte).unwrap_or(f64::NAN))
        .collect();
    record.layer(
        "flat.ns_per_byte",
        host(geomean(&flat).unwrap_or(f64::NAN), "ns").per("geomean over 3 benchmarks"),
    );
    activity.record(record);

    if run.trace {
        let untraced = sweep_ms.iter().sum::<f64>() / sweep_ms.len().max(1) as f64;
        let traced = sweeps_traced.iter().sum::<f64>() * 1e3 / sweeps_traced.len().max(1) as f64;
        record.layer(
            "trace.overhead_ratio",
            host(traced / untraced, "ratio").per("untraced sweep time, same process"),
        );
        let probes: Vec<Probe> = benches
            .iter()
            .zip(&prepared)
            .map(|(bench, prep)| {
                let (bytes, _) = input(bench.kind, &bench.nfa, &bench.planter, run.seed, 0, 0);
                engine_probe(record, bench.name, &bench.nfa, prep, &bytes)
            })
            .collect();
        probe_rows(record, &probes);
        let encoded: Vec<f64> = probes.iter().map(|p| p.encoded_ns).collect();
        record.layer(
            "exec.ns_per_byte",
            host(geomean(&encoded).unwrap_or(f64::NAN), "ns")
                .per("encoded engine, geomean over 3 benchmarks"),
        );
        crate::record_spans(record, &tracer);
    }
}

/// What one benchmark's engine probe measured, for the summed rows.
pub struct Probe {
    map_ms: f64,
    partitions: usize,
    compile_ms: f64,
    entries: usize,
    /// Encoded engine ns per byte with no observer.
    pub encoded_ns: f64,
}

/// Probes beneath one benchmark's evaluate calls: mapping, encoded-plan
/// compile, and the engines fed with and without the energy observer,
/// checking the strided engine's report offsets against the flat run.
pub fn engine_probe(
    record: &mut Record,
    name: &str,
    nfa: &Nfa,
    prep: &Prepared,
    bytes: &[u8],
) -> Probe {
    const REPEATS: usize = 5;
    let lib = CircuitLibrary::tsmc28();
    let (mapping, map_t) = timed(|| map_design(DesignKind::CamaE, nfa, Some(&prep.encoding)));
    let (plan, compile_t) = timed(|| prep.encoding.compile(nfa));
    let per_byte = |t: std::time::Duration| t.as_nanos() as f64 / bytes.len() as f64;
    let mut bare = Vec::new();
    let mut observed = Vec::new();
    for _ in 0..REPEATS {
        let mut session = EncodedSession::new(&plan);
        let ((), took) = timed(|| session.feed(bytes));
        bare.push(per_byte(took));
        let mut observer = EnergyObserver::for_encoded(
            DesignKind::CamaE,
            &mapping,
            &lib,
            nfa,
            plan.entry_weights(),
        );
        let mut session = EncodedSession::new(&plan);
        let ((), took) = timed(|| session.feed_with(bytes, &mut observer));
        observed.push(per_byte(took));
    }
    let strided_plan = EncodingPlan::compile_strided(&prep.strided);
    let mut strided = Vec::new();
    let want = Simulator::new(nfa).run(bytes).report_offsets();
    for _ in 0..REPEATS {
        let mut session = EncodedStridedSession::new(&strided_plan);
        let ((), took) = timed(|| session.feed(bytes));
        strided.push(per_byte(took));
        let got = session.finish().report_offsets();
        record.check(if got == want {
            Ok(())
        } else {
            Err(format!(
                "{name}: strided engine reported {} distinct offsets, flat reference {}",
                got.len(),
                want.len()
            ))
        });
    }
    let encoded_ns = median(&bare).unwrap_or(f64::NAN);
    record.layer(
        &format!("engine.encoded_ns_per_byte.{name}"),
        host(encoded_ns, "ns").over(REPEATS),
    );
    record.layer(
        &format!("engine.strided_ns_per_byte.{name}"),
        host(median(&strided).unwrap_or(f64::NAN), "ns").over(REPEATS),
    );
    record.layer(
        &format!("energy.observer_ratio.{name}"),
        host(median(&observed).unwrap_or(f64::NAN) / encoded_ns, "ratio")
            .per(&format!("engine.encoded_ns_per_byte.{name}")),
    );
    Probe {
        map_ms: secs(map_t) * 1e3,
        partitions: mapping.partitions.len(),
        compile_ms: secs(compile_t) * 1e3,
        entries: plan.total_entries(),
        encoded_ns,
    }
}

/// The mapping and encoded-compile rows, summed over the probed
/// benchmarks.
pub fn probe_rows(record: &mut Record, probes: &[Probe]) {
    let base = format!("sum over {} benchmark(s)", probes.len());
    record.layer(
        "mapping.map_ms",
        host(probes.iter().map(|p| p.map_ms).sum(), "ms").per(&base),
    );
    record.layer(
        "mapping.partitions",
        count(
            probes.iter().map(|p| p.partitions).sum::<usize>() as f64,
            "count",
        ),
    );
    record.layer(
        "encoding.compile_ms",
        host(probes.iter().map(|p| p.compile_ms).sum(), "ms").per(&base),
    );
    record.layer(
        "encoding.entries",
        count(
            probes.iter().map(|p| p.entries).sum::<usize>() as f64,
            "count",
        ),
    );
}
