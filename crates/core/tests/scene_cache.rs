//! `SceneCache` budget and boundary edge cases: retirement budgets and
//! the universe-slack reuse threshold only decide *when* a scene is
//! rebuilt — answers match fresh-scene execution under every setting.

use obstacle_core::{
    EngineOptions, EntityIndex, ObstacleIndex, Query, QueryEngine, SceneBudget, SceneCache,
};
use obstacle_datagen::{sample_entities, City, CityConfig};
use obstacle_geom::{Point, Rect};
use obstacle_rtree::RTreeConfig;

fn world() -> (EntityIndex, ObstacleIndex, City) {
    let city = City::generate(CityConfig::new(80, 0xCAC4E));
    let entities = EntityIndex::build(RTreeConfig::tiny(8), sample_entities(&city, 48, 0xCAC4F));
    let obstacles = ObstacleIndex::build(RTreeConfig::tiny(8), city.obstacles.clone());
    (entities, obstacles, city)
}

fn probe_queries(city: &City) -> Vec<Query> {
    // Clustered NN/range probes that would reuse the scene under default
    // budgets (all within a hair of each other).
    let c = city.universe.center();
    (0..8)
        .map(|i| {
            let p = Point::new(c.x + 1e-4 * i as f64, c.y);
            if i % 2 == 0 {
                Query::Nearest { q: p, k: 2 }
            } else {
                Query::Range { q: p, e: 0.03 }
            }
        })
        .collect()
}

/// Runs `queries` through one cache and asserts every answer matches
/// fresh-scene execution; returns the cache for budget assertions.
fn run_through_cache(
    engine: &QueryEngine<'_>,
    queries: &[Query],
    budget: SceneBudget,
) -> SceneCache {
    let mut cache = SceneCache::with_budget(engine.options, budget);
    for (i, q) in queries.iter().enumerate() {
        let cached = engine.execute_with(q, &mut cache);
        let fresh = engine.execute(q);
        assert!(
            cached.same_results(&fresh),
            "budget {budget:?}: query {i} diverged from fresh execution"
        );
    }
    cache
}

#[test]
fn zero_slot_budget_retires_aggressively_but_never_changes_answers() {
    let (entities, obstacles, city) = world();
    let engine = QueryEngine::new(&entities, &obstacles);
    let queries = probe_queries(&city);

    let default_cache = run_through_cache(&engine, &queries, SceneBudget::default());
    let strict = SceneBudget {
        slot_slack: 0,
        ..SceneBudget::default()
    };
    let strict_cache = run_through_cache(&engine, &queries, strict);
    // The strict budget can only retire more often, never less.
    assert!(strict_cache.resets() >= default_cache.resets());
    assert!(strict_cache.reuses() <= default_cache.reuses());
}

#[test]
fn zero_slot_budget_retires_a_scene_that_only_held_waypoints() {
    // Probes in an obstacle-free corner absorb nothing: the scene's node
    // slots are pure waypoint churn, so a zero slot slack retires it on
    // every subsequent query.
    let entities = EntityIndex::build(
        RTreeConfig::tiny(4),
        vec![Point::new(0.5, 0.0), Point::new(1.0, 0.5)],
    );
    let obstacles = ObstacleIndex::build(
        RTreeConfig::tiny(4),
        vec![obstacle_geom::Polygon::from_rect(Rect::from_coords(
            90.0, 90.0, 91.0, 91.0,
        ))],
    );
    let engine = QueryEngine::new(&entities, &obstacles);
    let queries: Vec<Query> = (0..4)
        .map(|i| Query::Nearest {
            q: Point::new(0.01 * i as f64, 0.0),
            k: 1,
        })
        .collect();
    let cache = run_through_cache(
        &engine,
        &queries,
        SceneBudget {
            slot_slack: 0,
            ..SceneBudget::default()
        },
    );
    assert_eq!(cache.reuses(), 0, "zero slack must forbid waypoint churn");
    assert_eq!(cache.resets(), queries.len() - 1);
}

#[test]
fn obstacle_budget_smaller_than_one_scene_rebuilds_every_query() {
    let (entities, obstacles, city) = world();
    let engine = QueryEngine::new(&entities, &obstacles);
    let queries = probe_queries(&city);

    // A budget of zero obstacles is smaller than any scene that absorbed
    // anything: the moment a query pulls one obstacle in, the next
    // `scene_for` retires the scene. Answers must not move.
    let cache = run_through_cache(
        &engine,
        &queries,
        SceneBudget {
            max_obstacles: 0,
            ..SceneBudget::default()
        },
    );
    // The central probes absorb obstacles (the city is dense), so the
    // cache must have been retired at least once — and the default
    // budget's reuse economics are gone.
    assert!(
        cache.resets() > 0,
        "absorbing any obstacle must blow a zero obstacle budget"
    );
}

#[test]
fn reuse_boundary_is_inclusive_at_exactly_the_slack_distance() {
    let mut cache = SceneCache::new(EngineOptions::default());
    let slack = 0.5;
    let r1 = Rect::from_coords(0.0, 0.0, 1.0, 1.0);
    cache.scene_for(r1, slack);
    assert_eq!(
        (cache.reuses(), cache.resets()),
        (0, 0),
        "first scene is fresh"
    );

    // mindist(coverage, r2) == slack exactly (clean binary floats).
    let r2 = Rect::from_coords(1.5, 0.0, 2.0, 1.0);
    cache.scene_for(r2, slack);
    assert_eq!(
        (cache.reuses(), cache.resets()),
        (1, 0),
        "a region exactly at the slack boundary must reuse the scene"
    );

    // One ulp-scale step beyond the boundary retires it. Coverage is now
    // the union [0,2]×[0,1].
    let r3 = Rect::from_coords(2.5 + 1e-9, 0.0, 3.0, 1.0);
    cache.scene_for(r3, slack);
    assert_eq!(
        (cache.reuses(), cache.resets()),
        (1, 1),
        "a region beyond the slack boundary must retire the scene"
    );
}

#[test]
fn slack_for_is_two_percent_of_the_universe_diagonal() {
    let u = Rect::from_coords(0.0, 0.0, 3.0, 4.0);
    assert!((SceneCache::slack_for(&u) - 0.02 * 5.0).abs() < 1e-12);
}

#[test]
fn region_jump_mid_batch_retires_the_cache_and_answers_hold() {
    let (entities, obstacles, city) = world();
    let engine = QueryEngine::new(&entities, &obstacles);
    let u = city.universe;
    // Two tight clusters in opposite corners, far beyond the 2 % slack,
    // visited A A A B B B by input order: the jump must retire the scene
    // exactly once and both clusters must still reuse internally.
    let corner = |cx: f64, cy: f64, i: usize| {
        Point::new(
            u.min.x + cx * u.width() + 1e-4 * i as f64,
            u.min.y + cy * u.height(),
        )
    };
    let mut queries = Vec::new();
    for i in 0..3 {
        queries.push(Query::Nearest {
            q: corner(0.05, 0.05, i),
            k: 2,
        });
    }
    for i in 0..3 {
        queries.push(Query::Nearest {
            q: corner(0.95, 0.95, i),
            k: 2,
        });
    }

    let sequential: Vec<_> = queries.iter().map(|q| engine.execute(q)).collect();
    let mut streamed = vec![None; queries.len()];
    let stats = engine.batch(&queries).threads(1).each(|i, a| {
        streamed[i] = Some(a);
    });
    for (i, (s, f)) in streamed.iter().zip(sequential.iter()).enumerate() {
        assert!(
            s.as_ref().expect("delivered").same_results(f),
            "query {i} diverged across the region jump"
        );
    }
    assert_eq!(stats.scene_resets, 1, "exactly the A→B jump retires");
    assert_eq!(stats.scene_reuses, 4, "both clusters reuse internally");
}
