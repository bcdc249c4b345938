//! Edge cases and degenerate inputs for the query processors.

use obstacle_core::{
    closest_pairs, distance_join, EngineOptions, EntityIndex, ObstacleIndex, QueryEngine,
};
use obstacle_geom::{Point, Polygon, Rect};
use obstacle_rtree::RTreeConfig;

fn no_obstacles() -> ObstacleIndex {
    ObstacleIndex::build(RTreeConfig::tiny(4), vec![])
}

fn square(x0: f64, y0: f64, x1: f64, y1: f64) -> Polygon {
    Polygon::from_rect(Rect::from_coords(x0, y0, x1, y1))
}

#[test]
fn without_obstacles_everything_is_euclidean() {
    let pts = vec![
        Point::new(0.1, 0.1),
        Point::new(0.9, 0.9),
        Point::new(0.5, 0.2),
        Point::new(0.3, 0.7),
    ];
    let entities = EntityIndex::build(RTreeConfig::tiny(4), pts.clone());
    let obstacles = no_obstacles();
    let engine = QueryEngine::new(&entities, &obstacles);
    let q = Point::new(0.4, 0.4);

    let nn = engine.nearest(q, 4);
    let mut expect: Vec<(u64, f64)> = pts
        .iter()
        .enumerate()
        .map(|(i, p)| (i as u64, p.dist(q)))
        .collect();
    expect.sort_by(|a, b| obstacle_geom::total_cmp(a.1, b.1));
    for (g, x) in nn.neighbors.iter().zip(expect.iter()) {
        assert!((g.1 - x.1).abs() < 1e-12);
    }
    assert_eq!(nn.stats.false_hits, 0, "no obstacles ⇒ no false hits");

    let r = engine.range(q, 0.35);
    for (id, d) in &r.hits {
        assert!((entities.position(*id).dist(q) - d).abs() < 1e-12);
    }
}

#[test]
fn empty_entity_dataset() {
    let entities = EntityIndex::build(RTreeConfig::tiny(4), vec![]);
    let obstacles = ObstacleIndex::build(RTreeConfig::tiny(4), vec![square(0.4, 0.4, 0.6, 0.6)]);
    let engine = QueryEngine::new(&entities, &obstacles);
    let q = Point::new(0.1, 0.1);
    assert!(engine.nearest(q, 5).neighbors.is_empty());
    assert!(engine.range(q, 1.0).hits.is_empty());
    assert!(engine.nearest_incremental(q).next().is_none());
}

#[test]
fn zero_range_and_zero_k() {
    let pts = vec![Point::new(0.2, 0.2), Point::new(0.8, 0.8)];
    let entities = EntityIndex::build(RTreeConfig::tiny(4), pts);
    let obstacles = no_obstacles();
    let engine = QueryEngine::new(&entities, &obstacles);
    assert!(engine.nearest(Point::new(0.5, 0.5), 0).neighbors.is_empty());
    // Zero range still reports entities at the exact query position.
    let on_entity = engine.range(Point::new(0.2, 0.2), 0.0);
    assert_eq!(on_entity.hits.len(), 1);
    assert_eq!(on_entity.hits[0], (0, 0.0));
    let off_entity = engine.range(Point::new(0.5, 0.5), 0.0);
    assert!(off_entity.hits.is_empty());
}

#[test]
fn query_point_coincides_with_entity() {
    let pts = vec![Point::new(0.5, 0.5), Point::new(0.6, 0.5)];
    let entities = EntityIndex::build(RTreeConfig::tiny(4), pts);
    let obstacles = ObstacleIndex::build(RTreeConfig::tiny(4), vec![square(0.52, 0.4, 0.58, 0.6)]);
    let engine = QueryEngine::new(&entities, &obstacles);
    let nn = engine.nearest(Point::new(0.5, 0.5), 2);
    assert_eq!(nn.neighbors[0], (0, 0.0));
    // The second entity is behind the small wall: detour required.
    assert!(nn.neighbors[1].1 > 0.1 - 1e-9);
}

#[test]
fn duplicate_entities_all_reported() {
    let p = Point::new(0.3, 0.3);
    let pts = vec![p; 5];
    let entities = EntityIndex::build(RTreeConfig::tiny(4), pts);
    let obstacles = no_obstacles();
    let engine = QueryEngine::new(&entities, &obstacles);
    let r = engine.range(Point::new(0.3, 0.3), 0.1);
    assert_eq!(r.hits.len(), 5);
    let nn = engine.nearest(Point::new(0.0, 0.0), 5);
    assert_eq!(nn.neighbors.len(), 5);
    let d = nn.neighbors[0].1;
    assert!(nn.neighbors.iter().all(|(_, x)| (x - d).abs() < 1e-12));
}

#[test]
fn join_with_itself_and_binary_symmetric_stats() {
    let pts = vec![
        Point::new(0.1, 0.1),
        Point::new(0.2, 0.1),
        Point::new(0.9, 0.9),
    ];
    let s = EntityIndex::build(RTreeConfig::tiny(4), pts);
    let obstacles = no_obstacles();
    let r = distance_join(&s, &s, &obstacles, 0.15, EngineOptions::default());
    // Pairs: all self pairs (3) plus (0,1) and (1,0).
    assert_eq!(r.pairs.len(), 5);
    assert_eq!(r.stats.false_hits, 0);
}

#[test]
fn closest_pairs_with_k_exceeding_pair_count() {
    let s = EntityIndex::build(RTreeConfig::tiny(4), vec![Point::new(0.1, 0.1)]);
    let t = EntityIndex::build(
        RTreeConfig::tiny(4),
        vec![Point::new(0.2, 0.2), Point::new(0.3, 0.3)],
    );
    let obstacles = no_obstacles();
    // `usize::MAX` is what a hostile `k` saturates to: it must be a
    // large k like any other, not a capacity-overflow panic.
    for k in [10, usize::MAX] {
        let r = closest_pairs(&s, &t, &obstacles, k, EngineOptions::default());
        assert_eq!(r.pairs.len(), 2);
        assert!(r.pairs[0].2 <= r.pairs[1].2);
    }
}

#[test]
fn closest_pairs_over_every_pair_counts_false_hits() {
    // k = |S|·|T|: every Euclidean pair is in the Euclidean top k, and the
    // false hits are exactly the pairs with an endpoint trapped inside an
    // obstacle (unreachable, so never in the answer).
    let grid =
        |i: usize, dx: f64| Point::new((i % 8) as f64 / 8.0 + dx, (i / 8) as f64 / 8.0 + 0.03);
    let s: Vec<Point> = (0..60).map(|i| grid(i, 0.02)).collect();
    let t: Vec<Point> = (0..60).map(|i| grid(i, 0.07)).collect();
    let polygons = vec![square(0.1, 0.1, 0.16, 0.17), square(0.55, 0.55, 0.6, 0.67)];
    let trapped = |p: &Point| {
        polygons
            .iter()
            .any(|poly| poly.locate(*p) == obstacle_geom::PointLocation::Inside)
    };
    let (ts, tt) = (
        s.iter().filter(|p| trapped(p)).count(),
        t.iter().filter(|p| trapped(p)).count(),
    );
    assert!(ts > 0 && tt > 0, "the scene traps points on both sides");
    let brute_false_hits = 60 * 60 - (60 - ts) * (60 - tt);
    let obstacles = ObstacleIndex::build(RTreeConfig::tiny(4), polygons);
    let (si, ti) = (
        EntityIndex::build(RTreeConfig::tiny(4), s),
        EntityIndex::build(RTreeConfig::tiny(4), t),
    );
    let r = closest_pairs(&si, &ti, &obstacles, 60 * 60, EngineOptions::default());
    assert_eq!(r.pairs.len(), (60 - ts) * (60 - tt));
    assert_eq!(r.stats.false_hits, brute_false_hits);
}

#[test]
fn entity_wedged_between_touching_obstacles() {
    // Two obstacles touching at a point; an entity exactly at the touch
    // point is reachable (boundaries are walkable).
    let a = square(0.2, 0.2, 0.5, 0.5);
    let b = square(0.5, 0.5, 0.8, 0.8);
    let pts = vec![Point::new(0.5, 0.5)];
    let entities = EntityIndex::build(RTreeConfig::tiny(4), pts);
    let obstacles = ObstacleIndex::build(RTreeConfig::tiny(4), vec![a, b]);
    let engine = QueryEngine::new(&entities, &obstacles);
    let nn = engine.nearest(Point::new(0.1, 0.5), 1);
    assert_eq!(nn.neighbors.len(), 1);
    assert!(nn.neighbors[0].1.is_finite());
}

#[test]
fn very_large_k_on_obstructed_scene_is_complete() {
    let pts: Vec<Point> = (0..30)
        .map(|i| Point::new(0.03 * i as f64 + 0.05, ((i * 7) % 13) as f64 / 13.0))
        .collect();
    let entities = EntityIndex::build(RTreeConfig::tiny(4), pts.clone());
    let obstacles = ObstacleIndex::build(
        RTreeConfig::tiny(4),
        vec![square(0.3, 0.3, 0.45, 0.7), square(0.6, 0.1, 0.7, 0.5)],
    );
    let engine = QueryEngine::new(&entities, &obstacles);
    // Entities that fall strictly inside an obstacle are unreachable and
    // must be skipped; every other entity must be reported.
    let reachable = pts
        .iter()
        .filter(|p| {
            obstacles
                .live_polygons()
                .all(|(_, poly)| poly.locate(**p) != obstacle_geom::PointLocation::Inside)
        })
        .count();
    assert!(reachable < 30, "test scene should trap a few entities");
    // `usize::MAX` (what a hostile `k` saturates to) is a large k like
    // any other, not a `k + 1` overflow.
    for k in [30, usize::MAX] {
        let nn = engine.nearest(Point::new(0.5, 0.5), k);
        assert_eq!(nn.neighbors.len(), reachable);
        for w in nn.neighbors.windows(2) {
            assert!(w[0].1 <= w[1].1 + 1e-12);
        }
    }
}
