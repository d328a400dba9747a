//! Criterion benchmarks for the parallel path: the work-stealing
//! multi-stream dispatcher (`BatchSimulator::run_parallel`, one stream
//! per thread, claimed off an atomic cursor) swept over thread counts
//! against the sequential batch loop. After the timed runs, an
//! instrumented pass prints the merged visited-word and shard-cycle
//! counters.

use cama_core::compiled::ShardedAutomaton;
use cama_sim::BatchSimulator;
use cama_workloads::Benchmark;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

const INPUT_LEN: usize = 4096;
const THREADS: [usize; 4] = [1, 2, 4, 8];

/// 16 Snort-like streams over one shared 16-way sharded plan: the
/// sequential batch loop vs work stealing at 1/2/4/8 threads. The
/// 1-thread point runs on the caller's thread, so its delta over the
/// sequential loop is the dispatch overhead alone.
fn bench_work_stealing_batch(c: &mut Criterion) {
    const STREAMS: usize = 16;
    let nfa = Benchmark::Snort.generate(0.02);
    let plan = ShardedAutomaton::compile(&nfa, 16);
    let streams: Vec<Vec<u8>> = (0..STREAMS)
        .map(|i| Benchmark::Snort.input(&nfa, INPUT_LEN, i as u64 + 1))
        .collect();
    let refs: Vec<&[u8]> = streams.iter().map(Vec::as_slice).collect();
    let batch = BatchSimulator::new(&plan);

    let mut group = c.benchmark_group("parallel");
    group.throughput(Throughput::Bytes((INPUT_LEN * STREAMS) as u64));
    group.bench_function("snort_batch_sequential", |b| {
        b.iter(|| black_box(batch.run_all(refs.iter().copied())))
    });
    for threads in THREADS {
        group.bench_with_input(
            BenchmarkId::new("snort_batch_stealing", threads),
            &threads,
            |b, &threads| b.iter(|| black_box(batch.run_parallel(&refs, threads))),
        );
    }
    group.finish();

    let (_, stats) = batch.run_parallel_stats(&refs, 4);
    println!(
        "work-stealing batch ({STREAMS} streams x {INPUT_LEN}B, 16 shards): \
         {} words visited, {} shard-cycles run ({} skipped)",
        stats.words_visited,
        stats.visited_shard_cycles(),
        stats.skipped_shard_cycles,
    );
}

criterion_group!(benches, bench_work_stealing_batch);
criterion_main!(benches);
