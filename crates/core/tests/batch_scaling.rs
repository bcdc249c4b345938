//! Wall-clock smoke gate for the concurrent batch engine.
//!
//! An 8-thread `engine.batch(..)` over a mixed point-query workload must beat
//! the 1-thread run by ≥ 2× on the benchmark city — *when the hardware
//! can express it*. CI containers are frequently pinned to a single core
//! (`available_parallelism() == 1`); there the speedup assertion is
//! physically unsatisfiable, so the gate degrades to what is still
//! checkable: results stay identical at every thread count and the pool
//! adds no pathological overhead. The measured numbers are printed either
//! way so logs stay interpretable.
//!
//! The join gate holds direct `distance_join` / `semi_join` calls, which
//! fan out over one worker per core, to the rows of the inline run a batch
//! worker makes, and to a ≥ 1.3× speed-up over it wherever ≥ 2 cores are
//! available.
//!
//! Wall-clock assertions are meaningless in debug builds, so the tests are
//! `#[ignore]`d by default and run in release mode, one at a time, by
//! `ci.sh`:
//!
//! ```sh
//! cargo test --release -p obstacle-core --test batch_scaling -- --ignored --nocapture --test-threads=1
//! ```

use obstacle_core::{
    distance_join, semi_join, Answer, EngineOptions, EntityIndex, ObstacleIndex, Query,
    QueryEngine, SemiJoinStrategy,
};
use obstacle_datagen::{query_workload, sample_entities, City, CityConfig};
use obstacle_rtree::sync::Stopwatch;
use obstacle_rtree::RTreeConfig;
use std::time::Duration;

#[test]
#[ignore = "wall-clock gate; run in release mode via ci.sh"]
fn eight_thread_batch_beats_one_thread() {
    let city = City::generate(CityConfig::new(2048, 0xC17));
    let obstacles = ObstacleIndex::bulk_load(RTreeConfig::paper(), city.obstacles.clone());
    let entities =
        EntityIndex::bulk_load(RTreeConfig::paper(), sample_entities(&city, 1024, 0xC18));
    let engine = QueryEngine::new(&entities, &obstacles);

    let side = city.universe.width().max(city.universe.height());
    let mut queries = Vec::new();
    for (i, q) in query_workload(&city, 48, 0xC19).into_iter().enumerate() {
        queries.push(match i % 3 {
            0 => Query::Range {
                q,
                e: 0.002 * side * (1.0 + (i % 5) as f64),
            },
            1 => Query::Nearest { q, k: 4 + i % 13 },
            _ => Query::Path {
                from: q,
                to: obstacle_geom::Point::new(
                    (q.x + 0.03 * side).min(city.universe.max.x),
                    (q.y + 0.02 * side).min(city.universe.max.y),
                ),
            },
        });
    }

    // Warm-up (buffers), then measure.
    let _ = engine.batch(&queries[..8]).threads(1).collect();
    let t0 = Stopwatch::start();
    let (sequential, _) = engine.batch(&queries).threads(1).collect();
    let one = t0.elapsed();
    let t0 = Stopwatch::start();
    let (parallel, _) = engine.batch(&queries).threads(8).collect();
    let eight = t0.elapsed();

    // Always: determinism across thread counts.
    for (i, (p, s)) in parallel.iter().zip(sequential.iter()).enumerate() {
        assert!(p.same_results(s), "query {i} diverged at 8 threads");
    }

    let speedup = one.as_secs_f64() / eight.as_secs_f64();
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "batch gate: 1 thread {one:.2?}, 8 threads {eight:.2?} \
         (speedup {speedup:.2}x on {cores} core(s))"
    );

    if cores >= 4 {
        assert!(
            speedup >= 2.0,
            "8-thread batch must beat 1-thread by ≥2x on {cores} cores, got {speedup:.2}x"
        );
    } else if cores >= 2 {
        assert!(
            speedup >= 1.3,
            "8-thread batch must beat 1-thread by ≥1.3x on {cores} cores, got {speedup:.2}x"
        );
    } else {
        // Single core: no parallelism to measure; the pool must still not
        // cost more than scheduling noise.
        println!("batch gate: single core — speedup assertion skipped");
        assert!(
            speedup >= 0.5,
            "8-thread batch pathologically slower than sequential: {speedup:.2}x"
        );
    }
}

#[test]
#[ignore = "wall-clock gate; run in release mode via ci.sh"]
fn direct_joins_beat_the_inline_run() {
    // A direct `distance_join` / `semi_join` fans its seeds or probes out
    // over one worker per core; `engine.execute` (a batch or service
    // worker's path) runs the same operator inline on one thread. `Query`
    // joins are self-joins over the engine's entity dataset, so the direct
    // calls are too.
    let city = City::generate(CityConfig::new(2048, 0xC17));
    let obstacles = ObstacleIndex::bulk_load(RTreeConfig::paper(), city.obstacles.clone());
    let entities =
        EntityIndex::bulk_load(RTreeConfig::paper(), sample_entities(&city, 1024, 0xC18));
    let engine = QueryEngine::new(&entities, &obstacles);
    let options = EngineOptions::default();
    let side = city.universe.width().max(city.universe.height());
    let strategy = SemiJoinStrategy::PerObjectNn;
    let queries = [
        Query::DistanceJoin { e: 0.004 * side },
        Query::SemiJoin { strategy },
    ];
    let direct = |query: &Query| match *query {
        Query::DistanceJoin { e } => {
            Answer::DistanceJoin(distance_join(&entities, &entities, &obstacles, e, options))
        }
        _ => Answer::SemiJoin(semi_join(
            &entities, &entities, &obstacles, strategy, options,
        )),
    };

    // Warm up for 2 s: a freshly started process on a virtualised host
    // can run on one core for its first second, which would read as no
    // speed-up at all.
    let warm = Stopwatch::start();
    while warm.elapsed() < Duration::from_secs(2) {
        let _ = queries.iter().map(direct).count();
    }
    let (mut fanned, mut inline) = (Duration::ZERO, Duration::ZERO);
    for query in &queries {
        let (mut a_time, mut b_time) = (Duration::ZERO, Duration::ZERO);
        for _ in 0..5 {
            let t0 = Stopwatch::start();
            let a = direct(query);
            a_time += t0.elapsed();
            let t0 = Stopwatch::start();
            let b = engine.execute(query);
            b_time += t0.elapsed();
            // Always: the fan-out never changes a row or its order.
            assert!(
                a.same_results(&b),
                "{query:?}: direct rows differ from the inline run"
            );
        }
        println!("join gate: {query:?} inline {b_time:.2?}, direct {a_time:.2?} (5 runs each)");
        fanned += a_time;
        inline += b_time;
    }

    let speedup = inline.as_secs_f64() / fanned.as_secs_f64();
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "join gate: inline {inline:.2?}, direct {fanned:.2?} \
         (speedup {speedup:.2}x on {cores} core(s))"
    );
    if cores >= 2 {
        assert!(
            speedup >= 1.3,
            "direct joins must beat the inline run by ≥1.3x on {cores} cores, got {speedup:.2}x"
        );
    } else {
        println!("join gate: single core — speedup assertion skipped");
    }
}
