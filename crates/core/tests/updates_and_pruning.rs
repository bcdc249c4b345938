//! Dynamic dataset updates.

use obstacle_core::{BruteForce, EntityIndex, ObstacleIndex, QueryEngine};
use obstacle_datagen::{sample_entities, City, CityConfig};
use obstacle_geom::{Point, Polygon, Rect};
use obstacle_rtree::{RTreeConfig, TreeBackend};

fn square(x0: f64, y0: f64, x1: f64, y1: f64) -> Polygon {
    Polygon::from_rect(Rect::from_coords(x0, y0, x1, y1))
}

#[test]
fn inserting_an_obstacle_changes_subsequent_queries() {
    let mut obstacles = ObstacleIndex::build(RTreeConfig::tiny(4), vec![]);
    let entities = EntityIndex::build(
        RTreeConfig::tiny(4),
        vec![Point::new(2.0, 0.0), Point::new(0.0, 2.2)],
    );
    let q = Point::new(0.0, 0.0);
    {
        let engine = QueryEngine::new(&entities, &obstacles);
        assert_eq!(engine.nearest(q, 1).neighbors[0].0, 0, "no wall yet");
    }
    let wall = obstacles.insert(square(1.0, -2.0, 1.2, 2.0));
    {
        let engine = QueryEngine::new(&entities, &obstacles);
        assert_eq!(
            engine.nearest(q, 1).neighbors[0].0,
            1,
            "the wall reroutes the NN"
        );
    }
    assert!(obstacles.delete(wall));
    {
        let engine = QueryEngine::new(&entities, &obstacles);
        assert_eq!(engine.nearest(q, 1).neighbors[0].0, 0, "wall removed");
    }
    assert!(!obstacles.delete(wall), "double delete reports absence");
}

#[test]
fn entity_updates_are_visible_to_queries() {
    let mut entities = EntityIndex::build(RTreeConfig::tiny(4), vec![Point::new(0.9, 0.9)]);
    let obstacles = ObstacleIndex::build(RTreeConfig::tiny(4), vec![square(0.4, 0.4, 0.6, 0.6)]);
    let q = Point::new(0.1, 0.1);
    {
        let engine = QueryEngine::new(&entities, &obstacles);
        assert_eq!(engine.nearest(q, 1).neighbors[0].0, 0);
    }
    let near = entities.insert(Point::new(0.2, 0.2));
    {
        let engine = QueryEngine::new(&entities, &obstacles);
        let r = engine.nearest(q, 2);
        assert_eq!(r.neighbors[0].0, near);
        assert_eq!(r.neighbors.len(), 2);
    }
    assert!(entities.delete(near));
    {
        let engine = QueryEngine::new(&entities, &obstacles);
        let r = engine.nearest(q, 2);
        assert_eq!(r.neighbors.len(), 1);
        assert_eq!(r.neighbors[0].0, 0);
    }
}

#[test]
fn updates_match_rebuilt_indexes_on_random_city() {
    let city = City::generate(CityConfig::new(30, 9));
    let pts = sample_entities(&city, 40, 1);
    // Build with the first 30 points, then insert the remaining 10.
    let mut updated = EntityIndex::build(RTreeConfig::tiny(8), pts[..30].to_vec());
    for &p in &pts[30..] {
        updated.insert(p);
    }
    // Delete every 5th of the original 30.
    let mut live: Vec<Point> = Vec::new();
    for (i, &p) in pts.iter().enumerate() {
        if i < 30 && i % 5 == 0 {
            assert!(updated.delete(i as u64));
        } else {
            live.push(p);
        }
    }
    updated.tree().reset_buffer();

    let obstacles = ObstacleIndex::build(RTreeConfig::tiny(8), city.obstacles.clone());
    let oracle = BruteForce::new(city.obstacles.clone());
    let engine = QueryEngine::new(&updated, &obstacles);
    let q = Point::new(0.5, 0.5);
    let got = engine.nearest(q, 10);
    let expect = oracle.nearest(&live, q, 10);
    assert_eq!(got.neighbors.len(), expect.len());
    for (g, x) in got.neighbors.iter().zip(expect.iter()) {
        assert!((g.1 - x.1).abs() < 1e-9);
    }
}
