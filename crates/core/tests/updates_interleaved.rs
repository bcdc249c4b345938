//! PR 7 oracle suite: interleaved updates and queries.
//!
//! Interleaves insert/delete edit batches with all six operators (and
//! the concurrent batch engine) and requires answers **bit-identical**
//! to an engine freshly built from the live datasets after every edit
//! batch — on both storage backends, at 1 and 4 worker threads, under
//! both schedules, and through one scene cache that survives every edit.
//! Also pins the PR 7 fixes individually: the would-have-been-stale
//! scene repro, exact retire/reuse counts, the universe fallback for
//! emptied obstacle sets, no id resurrection, and one re-pack per batch
//! on the packed backend.
//!
//! Fresh-built indexes assign ids `0..n` in live order, so fresh answers
//! are remapped to original ids before comparison; distances compare by
//! `f64::to_bits` (no epsilon) after the canonical sorting the
//! backend-equivalence suite already uses.

use obstacle_core::{
    Answer, EngineOptions, EntityIndex, ObstacleIndex, Query, QueryEngine, SceneCache, Schedule,
    SemiJoinStrategy, Update,
};
use obstacle_datagen::{sample_entities, City, CityConfig};
use obstacle_geom::{hilbert_index_unit, Point, Polygon, Rect};
use obstacle_rtree::{Backend, RTreeConfig};

fn square(x0: f64, y0: f64, x1: f64, y1: f64) -> Polygon {
    Polygon::from_rect(Rect::from_coords(x0, y0, x1, y1))
}

/// Indexes freshly bulk-built from the live contents of edited indexes,
/// plus the id map: fresh entity `i` is original entity `map[i]`.
fn fresh_world(
    entities: &EntityIndex,
    obstacles: &ObstacleIndex,
    config: RTreeConfig,
) -> (EntityIndex, ObstacleIndex, Vec<u64>) {
    let (map, pts): (Vec<u64>, Vec<Point>) = entities.live_points().unzip();
    let polys: Vec<Polygon> = obstacles.live_polygons().map(|(_, p)| p.clone()).collect();
    (
        EntityIndex::build(config, pts),
        ObstacleIndex::build(config, polys),
        map,
    )
}

/// Canonical payload of an answer: rows of `(id, id, distance bits)`
/// sorted, entity ids remapped through `map` when given (for answers
/// from a fresh-built engine). Paths have no ids and canonicalise to
/// their exact polyline bits.
fn canon(a: &Answer, map: Option<&[u64]>) -> Vec<(u64, u64, u64)> {
    let m = |id: u64| map.map_or(id, |map| map[id as usize]);
    let mut rows = match a {
        Answer::Range(r) => r
            .hits
            .iter()
            .map(|&(id, d)| (m(id), 0, d.to_bits()))
            .collect(),
        Answer::Nearest(r) => r
            .neighbors
            .iter()
            .map(|&(id, d)| (m(id), 0, d.to_bits()))
            .collect(),
        Answer::DistanceJoin(r) | Answer::SemiJoin(r) => r
            .pairs
            .iter()
            .map(|&(a, b, d)| (m(a), m(b), d.to_bits()))
            .collect(),
        Answer::ClosestPairs(r) => r
            .pairs
            .iter()
            .map(|&(a, b, d)| (m(a), m(b), d.to_bits()))
            .collect(),
        Answer::Path(None) => vec![(u64::MAX, u64::MAX, 0)],
        Answer::Path(Some(p)) => {
            let mut v = vec![(0, 0, p.distance.to_bits())];
            v.extend(
                p.points
                    .iter()
                    .enumerate()
                    .map(|(i, c)| (i as u64 + 1, c.x.to_bits(), c.y.to_bits())),
            );
            return v; // polyline order is part of the answer: no sort
        }
    };
    rows.sort_unstable();
    rows
}

fn nearest_id(a: &Answer) -> u64 {
    match a {
        Answer::Nearest(r) => r.neighbors[0].0,
        _ => panic!("expected a Nearest answer"),
    }
}

/// Three rounds of mixed edits, each followed by the full operator mix
/// compared against a fresh-built engine: sequentially through one
/// long-lived [`SceneCache`], then via the batch engine at 1 and 4
/// workers under both schedules. Returns the canonical payloads so the
/// caller can also compare the two backends against each other.
fn run_interleaved(backend: Backend) -> Vec<Vec<Vec<(u64, u64, u64)>>> {
    let config = RTreeConfig::tiny(8).with_backend(backend);
    let city = City::generate(CityConfig::new(32, 9));
    let pts = sample_entities(&city, 24, 1);
    let extra = sample_entities(&city, 4, 2);
    let mut entities = EntityIndex::build(config, pts);
    let mut obstacles = ObstacleIndex::build(config, city.obstacles.clone());
    let mut cache = SceneCache::new(EngineOptions::default());

    let queries = [
        Query::Nearest {
            q: Point::new(0.2, 0.3),
            k: 5,
        },
        Query::Range {
            q: Point::new(0.6, 0.5),
            e: 0.2,
        },
        Query::Nearest {
            q: Point::new(0.8, 0.75),
            k: 3,
        },
        Query::Range {
            q: Point::new(0.35, 0.7),
            e: 0.15,
        },
        Query::Path {
            from: Point::new(0.05, 0.05),
            to: Point::new(0.95, 0.9),
        },
        Query::SemiJoin {
            strategy: SemiJoinStrategy::PerObjectNn,
        },
        // Self-join closest pairs: the 24 closest pairs of 24 live
        // entities are exactly the zero-distance self-pairs, one per live
        // id — a deterministic set (any k < n would truncate inside the
        // zero-distance tie, where the pick is id-numbering dependent and
        // legitimately differs from a freshly numbered engine). Every
        // round deletes one entity and inserts one, so the live count
        // stays 24 — and a resurrected id would change this answer.
        Query::ClosestPairs { k: 24 },
        Query::DistanceJoin { e: 0.1 },
    ];

    // Polygons retired by earlier rounds; re-inserting one of these is
    // guaranteed disjoint from every live obstacle (the city's polygons
    // are mutually disjoint), so the dataset stays a valid obstacle set.
    let mut retired: Vec<Polygon> = Vec::new();
    let mut per_round = Vec::new();
    for round in 0..3 {
        let live_obs: Vec<u64> = obstacles.live_polygons().map(|(id, _)| id).collect();
        let live_ent: Vec<u64> = entities.live_points().map(|(id, _)| id).collect();
        let dead = [live_obs[round * 3], live_obs[round * 3 + 4]];
        retired.extend(dead.iter().map(|&id| obstacles.polygon(id).clone()));
        let mut edits = vec![
            Update::DeleteObstacle(dead[0]),
            Update::DeleteObstacle(dead[1]),
            Update::DeleteEntity(live_ent[round * 4]),
            Update::InsertEntity(extra[round]),
        ];
        if round > 0 {
            edits.push(Update::InsertObstacle(retired.remove(0)));
        }
        let stats = QueryEngine::apply_updates(&mut entities, &mut obstacles, edits);
        assert_eq!(stats.missed_deletes, 0, "round {round}");

        let (f_ent, f_obs, map) = fresh_world(&entities, &obstacles, config);
        let engine = QueryEngine::new(&entities, &obstacles);
        let oracle = QueryEngine::new(&f_ent, &f_obs);
        let expected: Vec<_> = queries
            .iter()
            .map(|q| canon(&oracle.execute(q), Some(&map)))
            .collect();

        // Sequential, through the scene cache that has seen every edit.
        let mut round_payload = Vec::new();
        for (q, want) in queries.iter().zip(&expected) {
            let got = canon(&engine.execute_with(q, &mut cache), None);
            assert_eq!(&got, want, "cached sequential, round {round}, {q:?}");
            round_payload.push(got);
        }

        // The batch engine, all thread/schedule combinations.
        for threads in [1, 4] {
            for schedule in [Schedule::InputOrder, Schedule::Hilbert] {
                let (answers, _) = engine
                    .batch(&queries)
                    .threads(threads)
                    .schedule(schedule)
                    .collect();
                for ((a, want), q) in answers.iter().zip(&expected).zip(&queries) {
                    assert_eq!(
                        &canon(a, None),
                        want,
                        "{threads} thread(s), {schedule:?}, round {round}, {q:?}"
                    );
                }
            }
        }
        per_round.push(round_payload);
    }
    per_round
}

#[test]
fn interleaved_edits_match_fresh_engine_paged() {
    run_interleaved(Backend::Paged);
}

#[test]
fn interleaved_edits_match_fresh_engine_packed_and_backends_agree() {
    let packed = run_interleaved(Backend::Packed);
    let paged = run_interleaved(Backend::Paged);
    assert_eq!(paged, packed, "backends must agree after every edit batch");
}

/// The PR 7 bug, pinned: a warm scene that kept serving a deleted wall
/// would leave the nearest neighbour rerouted long after the obstacle is
/// gone. Every scene reuse is validated against the obstacle-set epoch,
/// so the scene is retired (exactly once) and the answer is live data.
#[test]
fn stale_scene_repro_retires_the_warm_scene() {
    let config = RTreeConfig::tiny(4);
    let pts = vec![Point::new(2.0, 0.0), Point::new(0.0, 2.2)];
    let wall = square(1.0, -2.0, 1.2, 2.0);
    let q = Query::Nearest {
        q: Point::new(0.0, 0.0),
        k: 1,
    };

    let mut entities = EntityIndex::build(config, pts);
    let mut obstacles = ObstacleIndex::build(config, vec![wall]);
    let mut cache = SceneCache::new(EngineOptions::default());
    {
        let engine = QueryEngine::new(&entities, &obstacles);
        let warm = engine.execute_with(&q, &mut cache);
        assert_eq!(nearest_id(&warm), 1, "the wall reroutes the NN");
    }
    QueryEngine::apply_updates(
        &mut entities,
        &mut obstacles,
        vec![Update::DeleteObstacle(0)],
    );
    let engine = QueryEngine::new(&entities, &obstacles);
    let after = engine.execute_with(&q, &mut cache);
    assert_eq!(nearest_id(&after), 0, "scene retired, live answer");
    assert_eq!(cache.invalidations(), 1, "exactly one retirement");
}

/// Scenes are retired **only** when an edit's dirty rect intersects the
/// scene's slack-inflated certified region: a far-away edit bumps the
/// epoch but leaves the scene warm (and its answer identical); an edit
/// inside the region retires it. Counts are asserted exactly.
#[test]
fn scenes_retire_only_when_dirty_rect_hits_their_region() {
    let config = RTreeConfig::tiny(8);
    let mut entities = EntityIndex::build(config, vec![Point::new(7.0, 5.0), Point::new(5.0, 8.0)]);
    // A long wall east of q plus a 10×10 grid of blocks far from the
    // query corner. The grid matters: the absorption driver prefetches
    // ~2·sqrt(universe area / obstacle count) beyond the certified
    // region, so a near-empty 100×100 universe would legitimately note a
    // region covering most of the map (and the far edit below would then
    // *correctly* retire the scene). A realistic density keeps the noted
    // region local to q.
    let mut polys = vec![square(6.0, 2.0, 6.2, 8.0)]; // id 0
    for i in 0..10 {
        for j in 0..10 {
            let (x, y) = (20.0 + 8.0 * i as f64, 20.0 + 8.0 * j as f64);
            polys.push(square(x, y, x + 1.0, y + 1.0));
        }
    }
    let mut obstacles = ObstacleIndex::build(config, polys);
    let q = Query::Nearest {
        q: Point::new(5.0, 5.0),
        k: 1,
    };
    let mut cache = SceneCache::new(EngineOptions::default());

    let warm = {
        let engine = QueryEngine::new(&entities, &obstacles);
        engine.execute_with(&q, &mut cache)
    };
    assert_eq!(nearest_id(&warm), 1, "the wall makes the detour longer");
    assert_eq!((cache.invalidations(), cache.reuses()), (0, 0));

    // Far edit: dirty rect around (80, 80), ~100 units from the scene's
    // region — epoch advances, scene stays warm, answer is unchanged.
    QueryEngine::apply_updates(
        &mut entities,
        &mut obstacles,
        vec![Update::InsertObstacle(square(80.0, 80.0, 81.0, 81.0))],
    );
    let reused = {
        let engine = QueryEngine::new(&entities, &obstacles);
        engine.execute_with(&q, &mut cache)
    };
    assert_eq!((cache.invalidations(), cache.reuses()), (0, 1));
    assert_eq!(canon(&reused, None), canon(&warm, None));

    // Near edit: deleting the wall dirties a rect inside the region —
    // the scene is retired and the answer changes to the live dataset's.
    QueryEngine::apply_updates(
        &mut entities,
        &mut obstacles,
        vec![Update::DeleteObstacle(0)],
    );
    let retired = {
        let engine = QueryEngine::new(&entities, &obstacles);
        engine.execute_with(&q, &mut cache)
    };
    assert_eq!(nearest_id(&retired), 0, "wall gone: direct 2.0 wins");
    assert_eq!((cache.invalidations(), cache.reuses()), (1, 1));
    assert_eq!(cache.resets(), 0, "economics never retired anything here");
}

/// The satellite-1 regression: with an empty (or emptied-by-deletes)
/// obstacle set the engine universe falls back to the entity extent, so
/// Hilbert scheduling still orders queries by locality instead of
/// clamping every key to one unit-square corner (which degenerates the
/// schedule to input order).
#[test]
fn emptied_obstacle_universe_falls_back_to_entity_extent() {
    let config = RTreeConfig::tiny(4);
    // Entities far outside the unit square, listed in a scrambled order.
    let pts = vec![
        Point::new(1009.0, 1009.0),
        Point::new(1000.0, 1000.0),
        Point::new(1009.0, 1000.0),
        Point::new(1004.0, 1004.0),
        Point::new(1000.0, 1009.0),
    ];
    let mut entities = EntityIndex::build(config, pts.clone());
    let mut obstacles = ObstacleIndex::build(config, vec![square(1003.0, 1003.0, 1003.5, 1003.5)]);
    QueryEngine::apply_updates(
        &mut entities,
        &mut obstacles,
        vec![Update::DeleteObstacle(0)],
    );
    assert!(obstacles.is_empty());
    assert_eq!(obstacles.extent(), None, "emptied tree has no extent");

    let engine = QueryEngine::new(&entities, &obstacles);
    let extent = entities.extent().unwrap();
    assert_eq!(engine.universe(), extent);

    let queries: Vec<Query> = pts.iter().map(|&p| Query::Nearest { q: p, k: 1 }).collect();
    let order = engine.schedule_order(&queries, Schedule::Hilbert);
    let mut expect: Vec<usize> = (0..pts.len()).collect();
    expect.sort_by_key(|&i| (hilbert_index_unit(pts[i], &extent), i));
    assert_eq!(order, expect, "Hilbert keys over the entity extent");
    assert_ne!(
        order,
        (0..pts.len()).collect::<Vec<usize>>(),
        "order must not degenerate to input order (all keys clamped)"
    );

    // No data at all: the documented unit-square last resort.
    let no_ent = EntityIndex::build(config, vec![]);
    let empty_engine = QueryEngine::new(&no_ent, &obstacles);
    assert_eq!(
        empty_engine.universe(),
        Rect::from_coords(0.0, 0.0, 1.0, 1.0)
    );
}

/// Deleted ids must never resurface through any public read path, and
/// fresh inserts must get fresh ids (no tombstone reuse).
#[test]
fn deleted_ids_never_resurface() {
    let config = RTreeConfig::tiny(4);
    let mut entities = EntityIndex::build(config, vec![Point::new(2.0, 0.0), Point::new(0.0, 2.2)]);
    let mut obstacles = ObstacleIndex::build(config, vec![square(1.0, -2.0, 1.2, 2.0)]);
    let q = Point::new(0.0, 0.0);
    assert_eq!(
        QueryEngine::new(&entities, &obstacles)
            .nearest(q, 1)
            .neighbors[0]
            .0,
        1
    );

    let stats = QueryEngine::apply_updates(
        &mut entities,
        &mut obstacles,
        vec![Update::DeleteObstacle(0), Update::DeleteEntity(1)],
    );
    assert_eq!((stats.deleted_obstacles, stats.deleted_entities), (1, 1));

    // Index read paths: live iterators, liveness, len.
    assert!(obstacles.live_polygons().next().is_none());
    assert!(!obstacles.is_live(0));
    assert_eq!(obstacles.len(), 0);
    assert!(entities.live_points().all(|(id, _)| id != 1));
    assert!(!entities.is_live(1));
    assert_eq!(entities.len(), 1);
    // Positions of retired ids still answer (old query results stay
    // interpretable), without implying liveness.
    assert_eq!(entities.position(1), Point::new(0.0, 2.2));

    // Query paths: the wall no longer reroutes, entity 1 never returned.
    let engine = QueryEngine::new(&entities, &obstacles);
    let nn = engine.nearest(q, 10);
    assert_eq!(nn.neighbors, vec![(0, 2.0)], "direct Euclidean line");
    assert!(engine.range(q, 100.0).hits.iter().all(|&(id, _)| id != 1));
    let sj = obstacle_core::semi_join(
        &entities,
        &entities,
        &obstacles,
        SemiJoinStrategy::PerObjectNn,
        EngineOptions::default(),
    );
    assert!(sj.pairs.iter().all(|&(s, t, _)| s != 1 && t != 1));

    // Fresh inserts get fresh ids; re-deleting a tombstone is a miss.
    assert_eq!(entities.insert(Point::new(5.0, 5.0)), 2);
    assert_eq!(obstacles.insert(square(8.0, 8.0, 9.0, 9.0)), 1);
    assert!(!entities.delete(1), "double delete reports absence");
    let stats = QueryEngine::apply_updates(
        &mut entities,
        &mut obstacles,
        vec![Update::DeleteObstacle(0)],
    );
    assert_eq!(stats.missed_deletes, 1);
}

/// The satellite-3 contract at engine level: one [`QueryEngine::apply_updates`]
/// batch re-packs each touched packed tree exactly once, however many
/// edits it carries — while the same edits one call at a time pay one
/// re-pack each. No-op batches (empty, or all deletes missing) must not
/// re-pack or advance epochs at all.
#[test]
fn packed_backend_repacks_once_per_update_batch() {
    let config = RTreeConfig::tiny(8).with_backend(Backend::Packed);
    let pts: Vec<Point> = (0..6).map(|i| Point::new(i as f64, 0.5)).collect();
    let polys: Vec<Polygon> = (0..4)
        .map(|i| square(2.0 * i as f64, 2.0, 2.0 * i as f64 + 1.0, 3.0))
        .collect();
    let mut entities = EntityIndex::build(config, pts);
    let mut obstacles = ObstacleIndex::build(config, polys);
    let egen = |e: &EntityIndex| e.tree().as_packed().unwrap().generation();
    let ogen = |o: &ObstacleIndex| o.tree().as_packed().unwrap().generation();
    assert_eq!((egen(&entities), ogen(&obstacles)), (0, 0));

    QueryEngine::apply_updates(
        &mut entities,
        &mut obstacles,
        vec![
            Update::DeleteEntity(0),
            Update::InsertEntity(Point::new(7.0, 0.5)),
            Update::InsertEntity(Point::new(8.0, 0.5)),
            Update::DeleteObstacle(1),
            Update::InsertObstacle(square(10.0, 2.0, 11.0, 3.0)),
        ],
    );
    assert_eq!(
        (egen(&entities), ogen(&obstacles)),
        (1, 1),
        "five edits, one re-pack per touched tree"
    );

    QueryEngine::apply_updates(
        &mut entities,
        &mut obstacles,
        vec![Update::DeleteObstacle(0)],
    );
    assert_eq!(
        (egen(&entities), ogen(&obstacles)),
        (1, 2),
        "untouched tree must not re-pack"
    );

    // No-op batches: empty, and a delete that matches nothing.
    QueryEngine::apply_updates(&mut entities, &mut obstacles, Vec::new());
    let stats = QueryEngine::apply_updates(
        &mut entities,
        &mut obstacles,
        vec![Update::DeleteEntity(0), Update::DeleteObstacle(99)],
    );
    assert_eq!(stats.missed_deletes, 2);
    assert_eq!((egen(&entities), ogen(&obstacles)), (1, 2));
    assert_eq!((entities.epoch(), obstacles.epoch()), (1, 2));

    // The per-call path the batch API exists to avoid: one re-pack each.
    entities.insert(Point::new(9.0, 0.5));
    entities.insert(Point::new(10.0, 0.5));
    entities.delete(1);
    assert_eq!(egen(&entities), 4, "three calls, three re-packs");
}
