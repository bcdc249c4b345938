//! Oracle equivalence for the lazy A* path engine.
//!
//! On seeded random city scenes, every distance and polyline produced by
//! the lazy engine (`compute_obstructed_path`, both edge builders) must
//! match a brute-force Dijkstra over the **full** visibility graph of the complete obstacle set — including
//! unreachable endpoints (strictly inside an obstacle) and endpoints on
//! obstacle boundaries.

use obstacle_core::{
    close_rel, compute_obstructed_path, shortest_obstructed_path, LocalGraph, ObstacleIndex,
};
use obstacle_datagen::{City, CityConfig, ObstacleShape};
use obstacle_geom::rng::{Rng, SeedableRng, SmallRng};
use obstacle_geom::Point;
use obstacle_rtree::RTreeConfig;
use obstacle_visibility::{dijkstra_distance, shortest_path, EdgeBuilder, VisibilityGraph};

const QUERY_TAG: u64 = u64::MAX;

/// Query pair kinds exercised against every scene: interior (unreachable)
/// points, boundary points sampled by arc length on **any** edge —
/// slanted included — obstacle corners, and free points.
///
/// `boundary_point` guarantees its result is never strictly interior
/// (breakpoints snap to exact vertices; slanted-edge lerps that rounding
/// pushed an ulp inside are clamped back across the edge line), so the
/// exact-predicate classification and `blocks_segment` agree on every
/// sampled endpoint and slanted boundaries are safe to exercise here.
fn query_pairs(city: &City, rng: &mut SmallRng, count: usize) -> Vec<(Point, Point)> {
    let u = city.universe;
    let pick_free = |rng: &mut SmallRng| {
        Point::new(
            u.min.x + rng.gen::<f64>() * u.width(),
            u.min.y + rng.gen::<f64>() * u.height(),
        )
    };
    let mut pairs = Vec::new();
    for k in 0..count {
        let a = match k % 4 {
            // Point strictly inside an obstacle: unreachable from
            // outside (convex hulls may not contain their bbox centre;
            // then it is just another free point, equally valid).
            0 => {
                let poly = &city.obstacles[k % city.obstacles.len()];
                poly.bbox().center()
            }
            // Point on the walkable boundary, sampled by arc length over
            // the whole perimeter — axis-parallel and slanted edges alike.
            1 => {
                let poly = &city.obstacles[(k * 7) % city.obstacles.len()];
                poly.boundary_point(rng.gen::<f64>())
            }
            // An obstacle corner itself.
            2 => {
                let poly = &city.obstacles[(k * 13) % city.obstacles.len()];
                poly.vertices()[k % poly.len()]
            }
            _ => pick_free(rng),
        };
        let b = pick_free(rng);
        pairs.push((a, b));
    }
    pairs
}

fn check_scene(shape: ObstacleShape, scene_seed: u64, obstacles: usize, queries: usize) {
    let city = City::generate(CityConfig {
        obstacle_count: obstacles,
        seed: scene_seed,
        shape,
        ..CityConfig::default()
    });
    let index = ObstacleIndex::bulk_load(RTreeConfig::tiny(16), city.obstacles.clone());
    // One full-scene visibility graph per query pair would be O(n²) per
    // pair; instead build it once with no waypoints and re-derive per
    // pair via the (cheaper) dynamic add/remove path.
    let (mut full, _) = VisibilityGraph::build(
        city.obstacles
            .iter()
            .enumerate()
            .map(|(i, p)| (p.clone(), i as u64)),
        std::iter::empty::<(Point, u64)>(),
    );

    let mut rng = SmallRng::seed_from_u64(scene_seed ^ 0x9E3779B97F4A7C15);
    for (qi, (a, b)) in query_pairs(&city, &mut rng, queries)
        .into_iter()
        .enumerate()
    {
        let na = full.add_waypoint(a, 0);
        let nb = full.add_waypoint(b, 1);
        let oracle = shortest_path(&full, na, nb);
        let oracle_d = dijkstra_distance(&full, na, nb);
        assert_eq!(
            oracle.as_ref().map(|p| p.distance),
            oracle_d,
            "oracle self-consistency, query {qi}"
        );

        for builder in [EdgeBuilder::RotationalSweep, EdgeBuilder::Naive] {
            let mut g = LocalGraph::new(builder);
            let pa = g.add_waypoint(a, 0);
            let pb = g.add_waypoint(b, QUERY_TAG);
            let lazy = compute_obstructed_path(&mut g, pa, pb, &index);
            match (&oracle, &lazy) {
                (None, None) => {}
                (Some(o), Some(l)) => {
                    assert!(
                        close_rel(o.distance, l.distance),
                        "distance mismatch on query {qi} ({builder:?}): \
                         oracle {} vs lazy {}",
                        o.distance,
                        l.distance
                    );
                    let poly_len: f64 = l.points.windows(2).map(|w| w[0].dist(w[1])).sum();
                    assert!(
                        close_rel(poly_len, l.distance),
                        "polyline length {poly_len} vs distance {} on query {qi}",
                        l.distance
                    );
                    assert_eq!(l.points.first(), Some(&a), "query {qi} start");
                    assert_eq!(l.points.last(), Some(&b), "query {qi} end");
                }
                (o, l) => panic!(
                    "reachability mismatch on query {qi} ({builder:?}): \
                     oracle {:?} vs lazy {:?}",
                    o.as_ref().map(|p| p.distance),
                    l.as_ref().map(|p| p.distance)
                ),
            }
        }
        full.remove_waypoint(na);
        full.remove_waypoint(nb);
    }
}

#[test]
fn street_city_matches_full_graph_dijkstra() {
    check_scene(ObstacleShape::StreetRect, 0xC17, 120, 16);
}

#[test]
fn street_city_second_seed() {
    check_scene(ObstacleShape::StreetRect, 0xBEEF, 100, 12);
}

#[test]
fn convex_polygon_city_matches_full_graph_dijkstra() {
    check_scene(
        ObstacleShape::ConvexPolygon { max_vertices: 7 },
        0xFEED,
        100,
        14,
    );
}

#[test]
fn engine_reuse_across_queries_stays_exact() {
    // One LocalGraph reused for many pairs (the ONN pattern): cached
    // sweeps revalidated across absorption batches must stay exact.
    let city = City::generate(CityConfig {
        obstacle_count: 120,
        seed: 0xAB,
        ..CityConfig::default()
    });
    let index = ObstacleIndex::bulk_load(RTreeConfig::tiny(16), city.obstacles.clone());
    let (mut full, _) = VisibilityGraph::build(
        city.obstacles
            .iter()
            .enumerate()
            .map(|(i, p)| (p.clone(), i as u64)),
        std::iter::empty::<(Point, u64)>(),
    );
    let mut g = LocalGraph::new(EdgeBuilder::RotationalSweep);
    let q = Point::new(0.31, 0.47);
    let nq = g.add_waypoint(q, QUERY_TAG);

    let mut rng = SmallRng::seed_from_u64(0xAB12);
    for _ in 0..16 {
        let p = Point::new(rng.gen::<f64>(), rng.gen::<f64>());
        let np = g.add_waypoint(p, 1);
        let lazy = compute_obstructed_path(&mut g, np, nq, &index);
        g.remove_waypoint(np);

        let fa = full.add_waypoint(p, 0);
        let fb = full.add_waypoint(q, 1);
        let oracle = dijkstra_distance(&full, fa, fb);
        full.remove_waypoint(fa);
        full.remove_waypoint(fb);

        match (oracle, lazy) {
            (None, None) => {}
            (Some(o), Some(l)) => assert!(
                close_rel(o, l.distance),
                "reused engine diverged: oracle {o} vs lazy {}",
                l.distance
            ),
            (o, l) => panic!(
                "reachability mismatch under reuse: {o:?} vs {:?}",
                l.map(|p| p.distance)
            ),
        }
    }
    assert!(g.scene.validate(false).is_ok());
}

#[test]
fn public_path_api_agrees_with_oracle() {
    let city = City::generate(CityConfig {
        obstacle_count: 120,
        seed: 0x51,
        ..CityConfig::default()
    });
    let index = ObstacleIndex::bulk_load(RTreeConfig::tiny(16), city.obstacles.clone());
    let brute = obstacle_core::BruteForce::new(city.obstacles.clone());
    let mut rng = SmallRng::seed_from_u64(0x5151);
    for _ in 0..12 {
        let a = Point::new(rng.gen::<f64>(), rng.gen::<f64>());
        let b = Point::new(rng.gen::<f64>(), rng.gen::<f64>());
        let lazy = shortest_obstructed_path(a, b, &index, EdgeBuilder::RotationalSweep);
        let oracle = brute.obstructed_distance(a, b);
        match (oracle, lazy) {
            (None, None) => {}
            (Some(o), Some(l)) => assert!(close_rel(o, l.distance), "{o} vs {}", l.distance),
            (o, l) => panic!("mismatch: {o:?} vs {:?}", l.map(|p| p.distance)),
        }
    }
}
