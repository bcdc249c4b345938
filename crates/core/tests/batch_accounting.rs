//! Batch determinism and I/O-accounting exactness under concurrency:
//! workers of `engine.batch(..)` share both R-trees' buffer pools and keep
//! per-worker cross-query scene caches, and direct dataset-wide joins fan
//! their seeds and probes out over one worker per core.

use obstacle_core::{
    distance_join, semi_join, Answer, EngineOptions, EntityIndex, JoinResult, ObstacleIndex, Query,
    QueryEngine, SemiJoinStrategy,
};
use obstacle_datagen::{query_workload, sample_entities, City, CityConfig};
use obstacle_rtree::{RTreeConfig, TreeBackend};

fn world() -> (EntityIndex, ObstacleIndex, City) {
    let city = City::generate(CityConfig::new(160, 0x5744));
    let entities = EntityIndex::build(RTreeConfig::tiny(8), sample_entities(&city, 96, 0x5745));
    let obstacles = ObstacleIndex::build(RTreeConfig::tiny(8), city.obstacles.clone());
    (entities, obstacles, city)
}

fn point_queries(city: &City) -> Vec<Query> {
    let mut queries = Vec::new();
    for (i, q) in query_workload(city, 24, 0x5746).into_iter().enumerate() {
        match i % 3 {
            0 => queries.push(Query::Range {
                q,
                e: 0.05 + 0.01 * (i % 7) as f64,
            }),
            1 => queries.push(Query::Nearest { q, k: 1 + i % 5 }),
            _ => {}
        }
    }
    for pair in query_workload(city, 8, 0x5747).chunks(2) {
        if let [a, b] = pair {
            queries.push(Query::Path { from: *a, to: *b });
        }
    }
    queries
}

#[test]
fn shared_buffers_and_scene_reuse_are_result_identical_at_every_thread_count() {
    let (entities, obstacles, city) = world();
    let engine = QueryEngine::new(&entities, &obstacles);
    let queries = point_queries(&city);

    // Reference: plain sequential execution, fresh scene per query.
    let sequential: Vec<Answer> = queries.iter().map(|q| engine.execute(q)).collect();
    assert!(sequential.iter().any(|a| a.result_count() > 0));

    for threads in [1usize, 2, 4, 8] {
        let (parallel, _) = engine.batch(&queries).threads(threads).collect();
        for (i, (p, s)) in parallel.iter().zip(sequential.iter()).enumerate() {
            assert!(
                p.same_results(s),
                "query {i} diverged at {threads} threads: {p:?} vs {s:?}"
            );
        }
    }
}

#[test]
fn per_query_io_windows_cover_the_global_aggregate_exactly() {
    // Every page access of a stats-bearing query happens inside its
    // thread-local attribution window, so summing the per-answer windows
    // must reproduce the tree-global deltas exactly — lost updates in
    // either the store counters or the recorder windows would break the
    // equality. (Path queries carry no stats and are excluded.)
    let (entities, obstacles, city) = world();
    let engine = QueryEngine::new(&entities, &obstacles);
    let queries: Vec<Query> = point_queries(&city)
        .into_iter()
        .filter(|q| !matches!(q, Query::Path { .. }))
        .collect();

    for threads in [2usize, 8] {
        entities.tree().reset_io_stats();
        obstacles.tree().reset_io_stats();
        let (answers, _) = engine.batch(&queries).threads(threads).collect();
        let (mut entity_fetches, mut obstacle_fetches) = (0u64, 0u64);
        for a in &answers {
            let s = a.stats().expect("workload carries stats");
            entity_fetches += s.entity_fetches;
            obstacle_fetches += s.obstacle_fetches;
        }
        let eg = entities.tree().io_stats();
        let og = obstacles.tree().io_stats();
        assert_eq!(
            entity_fetches,
            eg.fetches(),
            "{threads} threads: entity windows vs global"
        );
        assert_eq!(
            obstacle_fetches,
            og.fetches(),
            "{threads} threads: obstacle windows vs global"
        );
    }
}

#[test]
fn direct_joins_fan_out_with_exact_io_and_inline_rows() {
    // A direct `distance_join` / `semi_join` spreads its seeds or probes
    // over one worker per core, each attributing its own page accesses:
    // the operator's summed windows must equal the trees' global deltas
    // (nothing counted twice, nothing missed), and its rows must equal
    // the inline run a batch worker makes through `engine.execute`.
    let (entities, obstacles, city) = world();
    let others = EntityIndex::build(RTreeConfig::tiny(8), sample_entities(&city, 64, 0x5748));
    let options = EngineOptions::default();
    let odj = || distance_join(&entities, &others, &obstacles, 0.08, options);
    let semi = || {
        let strategy = SemiJoinStrategy::PerObjectNn;
        semi_join(&entities, &others, &obstacles, strategy, options)
    };
    let operators: [(&str, &dyn Fn() -> JoinResult); 2] = [("odj", &odj), ("semi", &semi)];
    for (name, run) in operators {
        for tree in [entities.tree(), others.tree(), obstacles.tree()] {
            tree.reset_io_stats();
        }
        let r = run();
        assert!(!r.pairs.is_empty(), "{name}: no rows");
        assert_eq!(
            r.stats.entity_fetches,
            entities.tree().io_stats().fetches() + others.tree().io_stats().fetches(),
            "{name}: entity windows vs global"
        );
        assert_eq!(
            r.stats.obstacle_fetches,
            obstacles.tree().io_stats().fetches(),
            "{name}: obstacle windows vs global"
        );
        assert!(r.stats.obstacle_fetches > 0, "{name}: no obstacle accesses");
    }

    // `Query` joins are self-joins over the engine's entity dataset.
    let engine = QueryEngine::new(&entities, &obstacles);
    let e = 0.08;
    let strategy = SemiJoinStrategy::PerObjectNn;
    let direct = distance_join(&entities, &entities, &obstacles, e, options);
    assert!(Answer::DistanceJoin(direct).same_results(&engine.execute(&Query::DistanceJoin { e })));
    let direct = semi_join(&entities, &entities, &obstacles, strategy, options);
    assert!(Answer::SemiJoin(direct).same_results(&engine.execute(&Query::SemiJoin { strategy })));
}
