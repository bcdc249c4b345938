//! The closed-loop batch workloads (`scattered`, `clustered`): passes
//! over fixed query chunks through `engine.batch(..).threads(2)`.

use crate::gen::{class_of, Database, Indexes};
use crate::stats::{self, Fnv};
use obstacle_core::{Answer, BatchStats, Query, QueryEngine, Schedule};
use obstacle_rtree::sync::Stopwatch;
use obstacle_rtree::Backend;

/// Worker threads of every batch run (the container has 2 cores).
pub const THREADS: usize = 2;
/// Every n-th answer is re-executed on a fresh scene.
const RECHECK_EVERY: usize = 16;
/// Answers compared against the other storage backend.
const CROSS_BACKEND_SAMPLE: usize = 64;

/// One timed pass over the query set.
pub struct Pass {
    /// Wall time of the pass in seconds.
    pub wall: f64,
    /// Per-query time to answer in ms, input order (see [`run_pass`]).
    pub tta_ms: Vec<f64>,
    /// Answers in input order.
    pub answers: Vec<Answer>,
    pub stats: BatchStats,
}

/// Runs `queries` once as a batch of `threads` workers, timing from
/// outside: the consumer stamps every delivery, and a query's time to
/// answer follows the closed-loop model the batch engine implements —
/// `threads` clients, the j-th query of the schedule issued the moment
/// the (j − threads)-th answer is delivered. No in-program clock is
/// read.
pub fn run_pass(
    engine: &QueryEngine<'_>,
    queries: &[Query],
    schedule: Schedule,
    threads: usize,
) -> Pass {
    let order = engine.schedule_order(queries, schedule);
    let mut delivered_at = vec![0.0f64; queries.len()];
    let mut deliveries = Vec::with_capacity(queries.len());
    let mut slots: Vec<Option<Answer>> = Vec::new();
    slots.resize_with(queries.len(), || None);
    let clock = Stopwatch::start();
    let stats = engine
        .batch(queries)
        .threads(threads)
        .schedule(schedule)
        .each(|i, answer| {
            let t = stats::ms(clock.elapsed());
            delivered_at[i] = t;
            deliveries.push(t);
            slots[i] = Some(answer);
        });
    let wall = clock.elapsed().as_secs_f64();
    let mut tta_ms = vec![0.0f64; queries.len()];
    for (slot, &i) in order.iter().enumerate() {
        let issued = if slot < threads {
            0.0
        } else {
            deliveries[slot - threads]
        };
        // Two workers finishing within microseconds may claim in the
        // opposite order of their deliveries; the error is that gap.
        tta_ms[i] = (delivered_at[i] - issued).max(0.0);
    }
    let answers = slots
        .into_iter()
        .map(|a| a.expect("the batch delivers every query exactly once"))
        .collect();
    Pass {
        wall,
        tta_ms,
        answers,
        stats,
    }
}

/// What the timed passes of a batch workload measured.
pub struct BatchOutcome {
    /// Queries per second of each pass.
    pub qps: Vec<f64>,
    /// Per-query time to answer in ms, pooled over the passes.
    pub tta_ms: Vec<f64>,
    /// Share of the summed time to answer spent in each query class.
    pub class_share: [f64; 3],
    /// Median result count of the range queries.
    pub median_range_hits: f64,
    /// Queries answered on a reused scene / queries, over all passes.
    pub reuse_frac: f64,
    pub attempted: usize,
    pub failed: usize,
    pub checksum: u64,
}

/// Runs one pass per chunk, cycling, until `seconds` have been measured
/// (every chunk at least once: distinct queries, not repetitions, are
/// what steadies the percentiles across seeds), then checks the last
/// pass's answers: every 16th against a fresh scene, a 64-query sample
/// against the other backend.
pub fn run(
    db: &Database,
    ix: &Indexes,
    chunks: &[Vec<Query>],
    schedule: Schedule,
    seconds: f64,
) -> BatchOutcome {
    let engine = QueryEngine::new(&ix.entities, &ix.obstacles);
    let mut qps = Vec::new();
    let mut tta_ms = Vec::new();
    let mut class_ms = [0.0f64; 3];
    let mut range_hits = Vec::new();
    let mut reuses = 0;
    let mut attempted = 0;
    let mut measured = 0.0;
    let mut last;
    let mut queries;
    loop {
        queries = &chunks[qps.len() % chunks.len()];
        let pass = run_pass(&engine, queries, schedule, THREADS);
        measured += pass.wall;
        qps.push(queries.len() as f64 / pass.wall);
        for (q, t) in queries.iter().zip(&pass.tta_ms) {
            class_ms[class_of(q)] += t;
        }
        tta_ms.extend_from_slice(&pass.tta_ms);
        range_hits.extend(
            pass.answers
                .iter()
                .filter(|a| matches!(a, Answer::Range(_)))
                .map(|a| a.result_count() as f64),
        );
        reuses += pass.stats.scene_reuses;
        attempted += queries.len();
        last = pass;
        // Stop where the measured time lands closest to `seconds`.
        let done = measured + 0.5 * measured / qps.len() as f64 >= seconds;
        if done && qps.len() >= chunks.len() {
            break;
        }
    }

    let mut failed = 0;
    let mut checksum = Fnv::default();
    for a in &last.answers {
        checksum.answer(a);
    }
    for i in (0..queries.len()).step_by(RECHECK_EVERY) {
        if !engine.execute(&queries[i]).same_results(&last.answers[i]) {
            eprintln!("MISMATCH: query {i} differs from its fresh-scene re-execution");
            failed += 1;
        }
    }
    let other = Indexes::build(db, Backend::Packed);
    let other_engine = QueryEngine::new(&other.entities, &other.obstacles);
    let stride = (queries.len() / CROSS_BACKEND_SAMPLE).max(1);
    for i in (0..queries.len())
        .step_by(stride)
        .take(CROSS_BACKEND_SAMPLE)
    {
        if !other_engine
            .execute(&queries[i])
            .same_results(&last.answers[i])
        {
            eprintln!("MISMATCH: query {i} differs on the packed backend");
            failed += 1;
        }
    }

    let total_ms: f64 = class_ms.iter().sum();
    BatchOutcome {
        attempted,
        qps,
        tta_ms,
        class_share: class_ms.map(|c| c / total_ms),
        median_range_hits: stats::median(&range_hits),
        reuse_frac: reuses as f64 / attempted as f64,
        failed,
        checksum: checksum.0,
    }
}
