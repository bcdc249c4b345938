//! Hilbert-schedule property suite: spatially-aware scheduling permutes
//! only *execution order* — answers and per-query `IoSnapshot`
//! attribution are invariant — and on a clustered workload it recovers
//! the locality the input order scattered (the aggregate `SceneCache`
//! hit count under `Hilbert` is at least the `InputOrder` count).

use obstacle_core::{Answer, Query, QueryEngine, Schedule, SemiJoinStrategy};
use obstacle_core::{EntityIndex, ObstacleIndex};
use obstacle_datagen::{
    clustered_batch_workload, sample_entities, BatchMix, BatchQuery, City, CityConfig, ClusterSpec,
};
use obstacle_rtree::{RTreeConfig, TreeBackend};

fn world() -> (EntityIndex, ObstacleIndex, City) {
    // Kept deliberately small: debug-mode obstructed queries get steep
    // with city density, and the scheduling properties under test are
    // about *order*, not dataset scale (the bench trajectory measures
    // the big clustered city in release mode).
    let city = City::generate(CityConfig::new(64, 0x5C3D));
    let entities = EntityIndex::build(RTreeConfig::tiny(8), sample_entities(&city, 48, 0x5C3E));
    let obstacles = ObstacleIndex::build(RTreeConfig::tiny(8), city.obstacles.clone());
    (entities, obstacles, city)
}

/// The datagen→core query mapping (duplicated from the bench crate so
/// this suite stays a core-only dependency).
fn to_query(spec: &BatchQuery) -> Query {
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

fn clustered_queries(city: &City, count: usize, seed: u64) -> Vec<Query> {
    clustered_batch_workload(
        city,
        count,
        seed,
        BatchMix::point_queries(),
        ClusterSpec {
            clusters: 6,
            spread: 0.004,
        },
    )
    .iter()
    .map(to_query)
    // The paper grid draws k up to 256 — a full-dataset obstructed scan
    // per query, which swamps a debug-mode suite without changing what
    // scheduling is being tested on. Cap it.
    .map(|q| match q {
        Query::Nearest { q, k } => Query::Nearest { q, k: k.min(6) },
        other => other,
    })
    .collect()
}

#[test]
fn scheduling_permutes_only_execution_order_never_answers() {
    let (entities, obstacles, city) = world();
    let engine = QueryEngine::new(&entities, &obstacles);
    let queries = clustered_queries(&city, 36, 0x5C3F);
    let sequential: Vec<Answer> = queries.iter().map(|q| engine.execute(q)).collect();
    assert!(sequential.iter().any(|a| a.result_count() > 0));

    for threads in [1usize, 4] {
        for schedule in [Schedule::InputOrder, Schedule::Hilbert] {
            let (answers, stats) = engine
                .batch(&queries)
                .threads(threads)
                .schedule(schedule)
                .collect();
            assert_eq!(stats.workers, threads);
            for (i, (p, s)) in answers.iter().zip(sequential.iter()).enumerate() {
                assert!(
                    p.same_results(s),
                    "query {i} diverged at {threads} threads under {schedule:?}"
                );
            }
        }
    }
}

#[test]
fn scheduling_preserves_per_query_io_attribution() {
    // Each stats-bearing query's page accesses land in its own
    // thread-local attribution window regardless of execution order, so
    // the per-answer windows must sum to the tree-global deltas exactly
    // under both schedules. (Path queries carry no stats; exclude them.)
    let (entities, obstacles, city) = world();
    let engine = QueryEngine::new(&entities, &obstacles);
    let queries: Vec<Query> = clustered_queries(&city, 36, 0x5C40)
        .into_iter()
        .filter(|q| !matches!(q, Query::Path { .. }))
        .collect();

    for schedule in [Schedule::InputOrder, Schedule::Hilbert] {
        for threads in [4usize] {
            entities.tree().reset_io_stats();
            obstacles.tree().reset_io_stats();
            let (answers, _) = engine
                .batch(&queries)
                .threads(threads)
                .schedule(schedule)
                .collect();
            let (mut entity_fetches, mut obstacle_fetches) = (0u64, 0u64);
            for a in &answers {
                let s = a.stats().expect("point-query workload carries stats");
                entity_fetches += s.entity_fetches;
                obstacle_fetches += s.obstacle_fetches;
            }
            assert_eq!(
                entity_fetches,
                entities.tree().io_stats().fetches(),
                "{schedule:?} at {threads} threads: entity windows vs global"
            );
            assert_eq!(
                obstacle_fetches,
                obstacles.tree().io_stats().fetches(),
                "{schedule:?} at {threads} threads: obstacle windows vs global"
            );
        }
    }
}

#[test]
fn hilbert_recovers_the_locality_input_order_scattered() {
    // The clustered workload cycles its hotspots round-robin, so input
    // order hops clusters on almost every claim and the scene cache
    // keeps retiring; Hilbert order re-groups each hotspot's queries
    // into consecutive claims. The aggregate SceneCache hit count under
    // Hilbert must therefore be at least the InputOrder count — and
    // strictly better sequentially, where one worker sees every jump.
    let (entities, obstacles, city) = world();
    let engine = QueryEngine::new(&entities, &obstacles);
    let queries = clustered_queries(&city, 48, 0x5C41);

    let mut hilbert_at_one = 0usize;
    for threads in [1usize, 2] {
        let (a_input, s_input) = engine
            .batch(&queries)
            .threads(threads)
            .schedule(Schedule::InputOrder)
            .collect();
        let (a_hilbert, s_hilbert) = engine
            .batch(&queries)
            .threads(threads)
            .schedule(Schedule::Hilbert)
            .collect();
        for (i, (p, s)) in a_hilbert.iter().zip(a_input.iter()).enumerate() {
            assert!(p.same_results(s), "query {i} at {threads} threads");
        }
        assert!(
            s_hilbert.scene_reuses >= s_input.scene_reuses,
            "{threads} threads: Hilbert reuses {} < InputOrder reuses {}",
            s_hilbert.scene_reuses,
            s_input.scene_reuses
        );
        if threads == 1 {
            hilbert_at_one = s_hilbert.scene_reuses;
            assert!(
                s_hilbert.scene_reuses > s_input.scene_reuses,
                "sequential Hilbert must strictly beat input order on a \
                 round-robin-scattered clustered workload ({} vs {})",
                s_hilbert.scene_reuses,
                s_input.scene_reuses
            );
        }
    }
    assert!(hilbert_at_one > 0, "clustered workload must warm the cache");
}
