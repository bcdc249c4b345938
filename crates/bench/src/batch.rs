//! Batch-throughput measurement: workload conversion and the
//! thread-sweep runner behind `obstacle_cli batch`.

use obstacle_core::{Query, QueryEngine, SemiJoinStrategy};
use obstacle_datagen::BatchQuery;
use std::time::{Duration, Instant};

/// Converts a datagen workload spec into an executable core query
/// (`datagen` stays independent of the query processors, so the mapping
/// lives here).
pub fn to_core_query(spec: &BatchQuery) -> Query {
    match *spec {
        BatchQuery::Range { q, e } => Query::Range { q, e },
        BatchQuery::Nearest { q, k } => Query::Nearest { q, k },
        BatchQuery::DistanceJoin { e } => Query::DistanceJoin { e },
        BatchQuery::SemiJoin => Query::SemiJoin {
            strategy: SemiJoinStrategy::PerObjectNn,
        },
        BatchQuery::ClosestPairs { k } => Query::ClosestPairs { k },
        BatchQuery::Path { from, to } => Query::Path { from, to },
    }
}

/// One measured point of a thread-scaling sweep.
#[derive(Clone, Copy, Debug)]
pub struct ThroughputPoint {
    /// Worker threads used.
    pub threads: usize,
    /// Wall-clock time for the whole batch.
    pub elapsed: Duration,
    /// Queries per second.
    pub qps: f64,
}

impl ThroughputPoint {
    /// Speedup of this point over a baseline (usually the 1-thread run).
    pub fn speedup_over(&self, baseline: &ThroughputPoint) -> f64 {
        baseline.elapsed.as_secs_f64() / self.elapsed.as_secs_f64()
    }
}

/// Runs `queries` once per thread count and reports throughput, plus the
/// answers of the **last** run (so callers can inspect or aggregate them
/// without paying for an extra batch execution).
///
/// When `verify` is set, every later run is checked result-for-result
/// against the first run — the determinism guarantee of
/// [`BatchRequest::collect`](obstacle_core::BatchRequest::collect) made
/// observable; a mismatch panics.
pub fn thread_sweep(
    engine: &QueryEngine<'_>,
    queries: &[Query],
    thread_counts: &[usize],
    verify: bool,
) -> (Vec<ThroughputPoint>, Vec<obstacle_core::Answer>) {
    let mut baseline: Option<Vec<obstacle_core::Answer>> = None;
    let mut last = Vec::new();
    let mut out = Vec::with_capacity(thread_counts.len());
    for &threads in thread_counts {
        let t0 = Instant::now();
        let (answers, _) = engine.batch(queries).threads(threads).collect();
        let elapsed = t0.elapsed();
        if verify {
            match &baseline {
                None => baseline = Some(answers.clone()),
                Some(base) => {
                    for (i, (a, b)) in answers.iter().zip(base.iter()).enumerate() {
                        assert!(a.same_results(b), "query {i} diverged at {threads} threads");
                    }
                }
            }
        }
        last = answers;
        out.push(ThroughputPoint {
            threads,
            elapsed,
            qps: queries.len() as f64 / elapsed.as_secs_f64(),
        });
    }
    (out, last)
}

#[cfg(test)]
mod tests {
    use super::*;
    use obstacle_datagen::{batch_workload, BatchMix, City, CityConfig};

    #[test]
    fn conversion_covers_every_operator() {
        let city = City::generate(CityConfig::new(60, 5));
        let specs = batch_workload(&city, 300, 11, BatchMix::default());
        let queries: Vec<Query> = specs.iter().map(to_core_query).collect();
        assert_eq!(queries.len(), specs.len());
        // Spot-check the mapping keeps parameters intact.
        for (s, q) in specs.iter().zip(queries.iter()) {
            match (s, q) {
                (BatchQuery::Range { q: a, e: x }, Query::Range { q: b, e: y }) => {
                    assert_eq!(a, b);
                    assert_eq!(x, y);
                }
                (BatchQuery::Nearest { q: a, k: x }, Query::Nearest { q: b, k: y }) => {
                    assert_eq!(a, b);
                    assert_eq!(x, y);
                }
                (BatchQuery::DistanceJoin { e: x }, Query::DistanceJoin { e: y }) => {
                    assert_eq!(x, y)
                }
                (BatchQuery::SemiJoin, Query::SemiJoin { .. }) => {}
                (BatchQuery::ClosestPairs { k: x }, Query::ClosestPairs { k: y }) => {
                    assert_eq!(x, y)
                }
                (BatchQuery::Path { from, to }, Query::Path { from: f, to: t }) => {
                    assert_eq!(from, f);
                    assert_eq!(to, t);
                }
                other => panic!("mismatched mapping {other:?}"),
            }
        }
    }
}
