//! `rule_churn`: about 2 000 seeded IDS-style patterns, updated one rule
//! at a time under live traffic, through a `ControlledBatch` holding many
//! more open flows than its residency cap.
//!
//! Every update takes new ruleset text through `regex::compile_set`, then
//! `compile_hybrid_ruleset` against a warm `PlanCache`, then a
//! `PlanRemap` (`between` for a replaced rule, `extend_append` for an
//! appended one), then `swap_plan`. Compile, cache, remap, swap and
//! park/resume do most of the work; execution does little.

use crate::ids_serve::{compile_rows, sharded_rows};
use crate::plant::Planter;
use crate::record::{count, host, Record};
use crate::stats::{median, percentile, Tracer};
use crate::{
    derive_seed, model, same_reports, secs, setup_median, timed, Activity, Run, COMPILE_WORKERS,
};
use cama_core::compile::{compile_hybrid_ruleset, CompileReport, DfaPolicy, PlanCache, PlanRemap};
use cama_core::compiled::ShardedAutomaton;
use cama_core::{regex, Nfa};
use cama_sim::control::{ControlConfig, ControlledBatch, FlowSpec};
use cama_sim::{BatchSimulator, Session, ShardStats, ShardedSession, Simulator, StreamId};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::cell::OnceCell;
use std::time::Duration;

/// Why this workload exists (recorded in every run).
pub const WHY: &str =
    "~2000 IDS-style rules updated one at a time under live traffic: compile, plan \
                       cache, remap, hot swap and park/resume dominate; execution does little";

const RULES: usize = 2000;
const OPEN_FLOWS: usize = 256;
const RESIDENT_CAP: usize = 64;
const TENANTS: u32 = 4;
/// Flows fed after each update, rotating through the open table.
const FEEDS_PER_UPDATE: usize = 16;
const CHUNK: usize = 64;
/// Updates per plan epoch. A `ControlledBatch` borrows every plan it
/// was ever swapped to, so plans are freed only when the table closes;
/// each epoch closes its table, which bounds memory.
const EPOCH_UPDATES: usize = 8;
/// Flows opened after an epoch's last swap and checked against a fresh
/// flat run of the final ruleset.
const FRESH_FLOWS: usize = 2;
const FRESH_BYTES: usize = 2048;
const PLANT_SPACING: usize = 512;
/// Traffic sample the model columns are evaluated on.
const MODEL_BYTES: usize = 128 * 1024;

/// Rule shapes the generator draws from.
const SHAPES: u32 = 5;

/// Seeded IDS-flavoured pattern text of one of `SHAPES` shapes; one
/// connected component each.
fn rule(rng: &mut StdRng, shape: u32) -> String {
    const SYLLABLES: [&str; 16] = [
        "ad", "min", "cgi", "bin", "exe", "php", "sh", "cmd", "root", "pass", "wd", "etc", "log",
        "tmp", "upd", "ate",
    ];
    let word = |rng: &mut StdRng| -> String {
        (0..rng.random_range(2..=3))
            .map(|_| SYLLABLES[rng.random_range(0..SYLLABLES.len())])
            .collect()
    };
    match shape % SHAPES {
        0 => format!(
            "GET /{}/[a-z]{{2,4}}\\.php\\?{}=[0-9]+&",
            word(rng),
            word(rng)
        ),
        1 => format!("{}[0-9]{{2,3}}{}", word(rng), word(rng)),
        // A binary marker: its bytes never occur in the text traffic
        // except where planted, so its start states stay quiet.
        2 => format!(
            "\\x{:02x}\\x{:02x}[^\\x00]{}\\x00",
            rng.random_range(0x80..=0xFFu32),
            rng.random_range(0x80..=0xFFu32),
            word(rng)
        ),
        3 => format!("User-Agent: {}[ /]+[A-Z][a-z]+;", word(rng)),
        _ => format!("{}(\\.exe|\\.dll|\\.sys)[^a-z]", word(rng)),
    }
}

fn compile_text(rules: &[String], tracer: &mut Tracer) -> Nfa {
    let refs: Vec<&str> = rules.iter().map(String::as_str).collect();
    tracer.span("regex.compile_set", || {
        regex::compile_set(&refs).expect("generated rules are valid")
    })
}

/// Text-like traffic with paths of the initial ruleset planted in it, so
/// flows carry live match state across swaps.
fn traffic(nfa: &Nfa, planter: &Planter, len: usize, seed: u64) -> Vec<u8> {
    const TEXT: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789 /.?=&:;-ADEGHTU";
    let mut rng = StdRng::seed_from_u64(seed);
    let mut bytes: Vec<u8> = (0..len)
        .map(|_| TEXT[rng.random_range(0..TEXT.len())])
        .collect();
    planter.plant(nfa, &mut bytes, PLANT_SPACING.min(len), &mut rng);
    bytes
}

/// What one churn loop measured: per-update latencies split by layer
/// (ms), per-feed latencies (µs), and the control-plane and swap counts.
#[derive(Default)]
struct Churned {
    updates: u64,
    update_ms: Vec<f64>,
    regex_ms: Vec<f64>,
    compile_ms: Vec<f64>,
    remap_ms: Vec<f64>,
    remap_append_ms: Vec<f64>,
    swap_ms: Vec<f64>,
    /// Every `ControlledBatch::feed`, and the ones that resumed a parked
    /// flow, in microseconds.
    feed_us: Vec<f64>,
    resume_feed_us: Vec<f64>,
    fed_bytes: u64,
    feed_time: Duration,
    busy: Duration,
    admitted: u64,
    deferred: u64,
    rejected: u64,
    parked_peak: usize,
    pending_remaps_peak: usize,
    swap: SwapTotals,
    last_warm: CompileReport,
    activity: Activity,
    flat_ns_per_byte: Vec<f64>,
    /// The final epoch's feeds, for the traced replays.
    last_feeds: Vec<(StreamId, Vec<u8>)>,
}

#[derive(Default)]
struct SwapTotals {
    migrated: usize,
    deferred: usize,
    idle: usize,
    displaced: usize,
    states_kept: usize,
    states_dropped: usize,
}

/// The churn state that outlives epochs.
struct Ruleset {
    rules: Vec<String>,
    nfa: Nfa,
    /// The current plan; taken by an epoch's table while it runs.
    plan: Option<ShardedAutomaton>,
    cache: PlanCache,
    rng: StdRng,
    next_stream: StreamId,
}

/// Runs epochs of `EPOCH_UPDATES` updates for the loop's time budget.
fn churn(
    run: &Run,
    set: &mut Ruleset,
    planter: &Planter,
    planted_nfa: &Nfa,
    tracer: &mut Tracer,
    record: &mut Record,
) -> Churned {
    let mut out = Churned::default();
    let mut epoch = 0u64;
    let start = std::time::Instant::now();
    while start.elapsed() < run.loop_budget() {
        churn_epoch(
            run,
            set,
            planter,
            planted_nfa,
            epoch,
            tracer,
            record,
            &mut out,
        );
        epoch += 1;
    }
    out
}

#[allow(clippy::too_many_arguments)]
fn churn_epoch(
    run: &Run,
    set: &mut Ruleset,
    planter: &Planter,
    planted_nfa: &Nfa,
    epoch: u64,
    tracer: &mut Tracer,
    record: &mut Record,
    out: &mut Churned,
) {
    let slots: Vec<OnceCell<ShardedAutomaton>> =
        (0..=EPOCH_UPDATES).map(|_| OnceCell::new()).collect();
    let first = set
        .plan
        .take()
        .expect("the current plan is set between epochs");
    let config = ControlConfig::new().max_resident(RESIDENT_CAP);
    let mut batch = ControlledBatch::new(slots[0].get_or_init(|| first), config);

    let base = set.next_stream;
    set.next_stream += OPEN_FLOWS as StreamId;
    let mut fed = vec![0usize; OPEN_FLOWS];
    for flow in 0..OPEN_FLOWS {
        let admission = batch.open(
            base + flow as StreamId,
            FlowSpec::new(flow as u32 % TENANTS),
        );
        record.check(if admission.is_admitted() {
            Ok(())
        } else {
            Err(format!(
                "epoch {epoch} flow {flow}: open refused ({admission:?})"
            ))
        });
    }
    out.last_feeds.clear();
    let mut cursor = 0usize;
    for update in 0..EPOCH_UPDATES {
        // New ruleset text: alternately replace one rule and append one.
        let append = update % 2 == 1;
        let mut rules = set.rules.clone();
        if append {
            let shape = set.rng.random_range(0..SHAPES);
            rules.push(rule(&mut set.rng, shape));
        } else {
            let at = set.rng.random_range(0..rules.len());
            let shape = set.rng.random_range(0..SHAPES);
            rules[at] = rule(&mut set.rng, shape);
        }

        let span = tracer.enter("update");
        let ((new_nfa, report, swap), took) = timed(|| {
            let (new_nfa, regex_t) = timed(|| compile_text(&rules, tracer));
            let ((new_plan, report), compile_t) = timed(|| {
                tracer.span("compile.hybrid_ruleset", || {
                    compile_hybrid_ruleset(
                        &new_nfa,
                        COMPILE_WORKERS,
                        &mut set.cache,
                        &DfaPolicy::default(),
                    )
                })
            });
            let (remap, remap_t) = timed(|| {
                if append {
                    tracer.span("compile.remap_extend_append", || {
                        PlanRemap::extend_append(&set.nfa, &new_nfa)
                    })
                } else {
                    tracer.span("compile.remap_between", || {
                        PlanRemap::between(&set.nfa, &new_nfa)
                    })
                }
            });
            let new_plan: &ShardedAutomaton = slots[update + 1].get_or_init(|| new_plan);
            let (swap, swap_t) =
                timed(|| tracer.span("control.swap_plan", || batch.swap_plan(new_plan, &remap)));
            out.regex_ms.push(secs(regex_t) * 1e3);
            out.compile_ms.push(secs(compile_t) * 1e3);
            if append {
                out.remap_append_ms.push(secs(remap_t) * 1e3);
            } else {
                out.remap_ms.push(secs(remap_t) * 1e3);
            }
            out.swap_ms.push(secs(swap_t) * 1e3);
            (new_nfa, report, swap)
        });
        tracer.exit(span);
        out.busy += took;
        out.updates += 1;
        out.update_ms.push(secs(took) * 1e3);
        out.last_warm = report;
        record.check(if swap.flows == OPEN_FLOWS {
            Ok(())
        } else {
            Err(format!(
                "epoch {epoch} update {update}: swap carried {} of {OPEN_FLOWS} flows",
                swap.flows
            ))
        });
        out.swap.migrated += swap.migrated;
        out.swap.deferred += swap.deferred;
        out.swap.idle += swap.idle;
        out.swap.displaced += swap.displaced;
        out.swap.states_kept += swap.states_kept;
        out.swap.states_dropped += swap.states_dropped;
        out.pending_remaps_peak = out.pending_remaps_peak.max(batch.pending_remap_count());
        set.rules = rules;
        set.nfa = new_nfa;

        // A rotating set of flows gets one chunk each; most were parked.
        for _ in 0..FEEDS_PER_UPDATE {
            let flow = cursor % OPEN_FLOWS;
            cursor += 7;
            let stream = base + flow as StreamId;
            let chunk_seed = derive_seed(run.seed, &[epoch, flow as u64, fed[flow] as u64]);
            let chunk = traffic(planted_nfa, planter, CHUNK, chunk_seed);
            let parked = !batch.batch().is_resident(stream);
            let (verdict, took) =
                timed(|| tracer.span("control.feed", || batch.feed(stream, &chunk)));
            out.busy += took;
            out.feed_time += took;
            out.fed_bytes += chunk.len() as u64;
            out.feed_us.push(secs(took) * 1e6);
            if parked {
                out.resume_feed_us.push(secs(took) * 1e6);
            }
            out.admitted += verdict.admitted as u64;
            out.deferred += verdict.deferred as u64;
            out.rejected += verdict.rejected as u64;
            fed[flow] += chunk.len();
            record.check(
                if verdict.admitted + verdict.deferred + verdict.rejected == chunk.len()
                    && verdict.rejected == 0
                {
                    Ok(())
                } else {
                    Err(format!(
                        "epoch {epoch} flow {flow}: verdict {verdict:?} for {} bytes",
                        chunk.len()
                    ))
                },
            );
            out.parked_peak = out.parked_peak.max(batch.parked_count());
            out.last_feeds.push((stream, chunk));
        }
    }

    // Flows opened after the last swap must match a fresh flat run of
    // the final ruleset.
    let mut reference = Simulator::new(&set.nfa);
    for fresh in 0..FRESH_FLOWS {
        let stream = set.next_stream;
        set.next_stream += 1;
        let input = traffic(
            planted_nfa,
            planter,
            FRESH_BYTES,
            derive_seed(run.seed, &[epoch, 1 << 32, fresh as u64]),
        );
        let admission = batch.open(stream, FlowSpec::new(fresh as u32 % TENANTS));
        record.check(if admission.is_admitted() {
            Ok(())
        } else {
            Err(format!(
                "epoch {epoch} fresh flow {fresh}: open refused ({admission:?})"
            ))
        });
        for chunk in input.chunks(CHUNK) {
            let verdict = batch.feed(stream, chunk);
            record.check(if verdict.admitted == chunk.len() {
                Ok(())
            } else {
                Err(format!(
                    "epoch {epoch} fresh flow {fresh}: verdict {verdict:?}"
                ))
            });
        }
        let result = batch.close(stream);
        let (want, flat) = timed(|| reference.run(&input));
        out.flat_ns_per_byte
            .push(flat.as_nanos() as f64 / input.len() as f64);
        out.activity.add(input.len(), &result);
        record.check(same_reports(
            &format!("epoch {epoch} fresh flow {fresh}"),
            &result.reports,
            &want.reports,
        ));
    }
    for (flow, &bytes) in fed.iter().enumerate() {
        let result = batch.close(base + flow as StreamId);
        record.check(if result.activity.cycles == bytes {
            Ok(())
        } else {
            Err(format!(
                "epoch {epoch} flow {flow}: {} cycles for {bytes} bytes fed",
                result.activity.cycles
            ))
        });
    }
    drop(batch);
    set.plan = slots.into_iter().rev().find_map(OnceCell::into_inner);
}

/// Runs the workload and fills `record`.
pub fn run(run: &Run, record: &mut Record) {
    // Input generation: the seeded ruleset text.
    let mut rng = StdRng::seed_from_u64(derive_seed(run.seed, &[0x5u64]));
    // Every shape equally often, so the ruleset's make-up (and with it the
    // modeled energy) does not drift with the seed.
    let rules: Vec<String> = (0..RULES).map(|i| rule(&mut rng, i as u32)).collect();

    let mut tracer = Tracer::new(run.trace);
    let (nfa, plan, cache) = setup_median(record, &mut tracer, || {
        let nfa = compile_text(&rules, &mut Tracer::new(false));
        let mut cache = PlanCache::default();
        let (plan, _) =
            compile_hybrid_ruleset(&nfa, COMPILE_WORKERS, &mut cache, &DfaPolicy::default());
        (nfa, plan, cache)
    });
    record.env.insert("rules".into(), (RULES as f64).into());
    record.layer("regex.states", count(nfa.len() as f64, "count"));
    let cold_s = record.end_to_end["setup_s"].value;
    record.layer(
        "compile.cold_s",
        host(cold_s, "s").per("setup_s: regex + cold hybrid compile"),
    );
    let planter = Planter::new(&nfa, 32, 4096);
    let planted_nfa = nfa.clone();
    let mut set = Ruleset {
        rules,
        nfa,
        plan: Some(plan),
        cache,
        rng,
        next_stream: 0,
    };

    let (churned, traced) = if run.trace {
        let untraced = churn(
            run,
            &mut set,
            &planter,
            &planted_nfa,
            &mut Tracer::new(false),
            record,
        );
        let traced = churn(run, &mut set, &planter, &planted_nfa, &mut tracer, record);
        (untraced, Some(traced))
    } else {
        (
            churn(run, &mut set, &planter, &planted_nfa, &mut tracer, record),
            None,
        )
    };

    let n = churned.update_ms.len();
    record.e2e(
        "scan_mb_s",
        host(
            churned.fed_bytes as f64 / 1e6 / secs(churned.feed_time),
            "MB/s",
        )
        .over(churned.feed_us.len()),
    );
    crate::op_rows(
        record,
        &churned.update_ms,
        "per update, rule text until swap_plan returns",
    );
    record.e2e(
        "update_ms_p50",
        host(median(&churned.update_ms).unwrap_or(f64::NAN), "ms").over(n),
    );
    record.e2e(
        "update_ms_p90",
        host(
            percentile(&churned.update_ms, 90.0).unwrap_or(f64::NAN),
            "ms",
        )
        .over(n),
    );
    record.e2e(
        "feed_us_p50",
        host(median(&churned.feed_us).unwrap_or(f64::NAN), "us").over(churned.feed_us.len()),
    );
    record.e2e(
        "feed_us_p99",
        host(percentile(&churned.feed_us, 99.0).unwrap_or(f64::NAN), "us")
            .over(churned.feed_us.len()),
    );

    // Modeled energy of the initial ruleset (the final one depends on
    // how many updates the run fitted) on a fixed-per-seed sample.
    let sample = traffic(
        &planted_nfa,
        &planter,
        MODEL_BYTES,
        derive_seed(run.seed, &[0x30DE1]),
    );
    model::record_serving(record, &mut tracer, &planted_nfa, &[sample]);

    // Cache figures of the last warm (one-rule) recompile.
    compile_rows(
        record,
        set.plan.as_ref().expect("an epoch leaves its last plan"),
        &churned.last_warm,
    );
    record.layer(
        "compile.warm_ms_p50",
        host(median(&churned.compile_ms).unwrap_or(f64::NAN), "ms").over(churned.compile_ms.len()),
    );
    record.layer(
        "regex.compile_ms_p50",
        host(median(&churned.regex_ms).unwrap_or(f64::NAN), "ms").over(churned.regex_ms.len()),
    );
    record.layer(
        "compile.remap_ms_p50",
        host(median(&churned.remap_ms).unwrap_or(f64::NAN), "ms").over(churned.remap_ms.len()),
    );
    record.layer(
        "compile.remap_append_ms_p50",
        host(median(&churned.remap_append_ms).unwrap_or(f64::NAN), "ms")
            .over(churned.remap_append_ms.len()),
    );
    record.layer(
        "swap.ms_p50",
        host(median(&churned.swap_ms).unwrap_or(f64::NAN), "ms").over(churned.swap_ms.len()),
    );
    let s = &churned.swap;
    record.layer("swap.migrated", count(s.migrated as f64, "flows"));
    record.layer("swap.deferred", count(s.deferred as f64, "flows"));
    record.layer("swap.idle", count(s.idle as f64, "flows"));
    record.layer("swap.displaced", count(s.displaced as f64, "flows"));
    record.layer("swap.states_kept", count(s.states_kept as f64, "states"));
    record.layer(
        "swap.states_dropped",
        count(s.states_dropped as f64, "states"),
    );
    record.layer(
        "swap.pending_remaps_peak",
        count(churned.pending_remaps_peak as f64, "remaps"),
    );
    record.layer(
        "control.admitted_bytes",
        count(churned.admitted as f64, "bytes"),
    );
    record.layer(
        "control.deferred_bytes",
        count(churned.deferred as f64, "bytes"),
    );
    record.layer(
        "control.rejected_bytes",
        count(churned.rejected as f64, "bytes"),
    );
    record.layer(
        "control.parked_peak",
        count(churned.parked_peak as f64, "flows"),
    );
    record.layer(
        "control.resume_feed_us_p50",
        host(median(&churned.resume_feed_us).unwrap_or(f64::NAN), "us")
            .over(churned.resume_feed_us.len()),
    );
    record.layer(
        "flat.ns_per_byte",
        host(median(&churned.flat_ns_per_byte).unwrap_or(f64::NAN), "ns")
            .over(churned.flat_ns_per_byte.len()),
    );
    churned.activity.record(record);

    if let Some(traced) = traced {
        let per_update = |c: &Churned| secs(c.busy) / c.updates.max(1) as f64;
        record.layer(
            "trace.overhead_ratio",
            host(per_update(&traced) / per_update(&churned), "ratio")
                .per("untraced update+feed time per update, same process"),
        );
        // Replay the final epoch's feeds on the final plan beneath the
        // control plane: the raw stream table (same cap) and the engine.
        let mut table =
            BatchSimulator::new(set.plan.as_ref().expect("an epoch leaves its last plan"))
                .max_resident(RESIDENT_CAP);
        let mut raw_us = Vec::new();
        for (stream, chunk) in &traced.last_feeds {
            let ((), took) = timed(|| table.feed(*stream, chunk));
            raw_us.push(secs(took) * 1e6);
        }
        let raw_p50 = median(&raw_us).unwrap_or(f64::NAN);
        record.layer("batch.feed_us_p50", host(raw_p50, "us").over(raw_us.len()));
        record.layer(
            "control.overhead_ratio",
            host(
                median(&traced.feed_us).unwrap_or(f64::NAN) / raw_p50,
                "ratio",
            )
            .per("batch.feed_us_p50 (final epoch's feeds replayed on the final plan)"),
        );
        let mut sharded_us = Vec::new();
        let mut stats = ShardStats::default();
        let mut reference = Simulator::new(&set.nfa);
        for (index, (_, chunk)) in traced.last_feeds.iter().enumerate() {
            let mut session =
                ShardedSession::new(set.plan.as_ref().expect("an epoch leaves its last plan"));
            let ((), took) = timed(|| session.feed(chunk));
            sharded_us.push(secs(took) * 1e6);
            let result = session.finish();
            stats.merge(&session.take_stats());
            record.check(same_reports(
                &format!("sharded replay chunk {index}"),
                &result.reports,
                &reference.run(chunk).reports,
            ));
        }
        sharded_rows(
            record,
            set.plan.as_ref().expect("an epoch leaves its last plan"),
            &sharded_us,
            CHUNK,
            &stats,
        );
        crate::record_spans(record, &tracer);
    }
}
