//! Obstructed shortest *paths* (not just distances).
//!
//! The paper's algorithms only need distances, but applications
//! (navigation, the pedestrian of Fig. 1) want the actual route. This
//! module exposes exact shortest obstructed paths via the lazy A\*
//! engine of [`compute_obstructed_path`] — the same iterative region
//! growth as Fig. 8, but exploring the visibility graph on demand, so
//! city-scale corner-to-corner routes stay tractable (see the
//! `path_scaling` test, `ci.sh path`).

use crate::distance::{compute_obstructed_path, LocalGraph};
use crate::engine::{universe_of, ObstacleIndex, QueryEngine};
use crate::QUERY_TAG;
use obstacle_geom::Point;
use obstacle_visibility::{EdgeBuilder, PathResult};

/// Relative-tolerance comparison (1e-9) for cross-checking a path length
/// against an independently computed distance. Long paths sum thousands
/// of edge weights, so the comparison must scale with the magnitude — an
/// absolute 1e-9 trips on legitimate rounding once paths span enough
/// corners (the regression is pinned by `long_path_tolerance_is_relative`).
/// Exported so the oracle/property test suites and examples pin the same
/// tolerance the engine asserts internally.
pub fn close_rel(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0)
}

/// Exact shortest obstructed path between two free points, or `None` when
/// unreachable (a point strictly inside an obstacle).
///
/// The lazy scene is grown until the distance fixpoint of Fig. 8
/// certifies optimality; the polyline comes straight out of the final
/// A\* search.
pub fn shortest_obstructed_path(
    a: Point,
    b: Point,
    obstacles: &ObstacleIndex,
    builder: EdgeBuilder,
) -> Option<PathResult> {
    let mut g = LocalGraph::new(builder);
    shortest_obstructed_path_in(&mut g, a, b, obstacles)
}

/// [`shortest_obstructed_path`] over a caller-provided scene: absorbed
/// obstacles and cached sweeps are reused, what the query absorbs stays
/// for the next caller, and the endpoint waypoints are removed again
/// before returning (see [`SceneCache`](crate::SceneCache)). The path is
/// identical to a fresh-scene run — exact ties between equal-length
/// shortest paths resolve positionally, not by scene numbering.
///
/// The reused scene is synchronized with the obstacle-set epoch first
/// ([`LocalGraph::sync`], before the endpoint waypoints are added), so
/// a free-function caller never sees a stale path either.
pub fn shortest_obstructed_path_in(
    g: &mut LocalGraph,
    a: Point,
    b: Point,
    obstacles: &ObstacleIndex,
) -> Option<PathResult> {
    let slack = crate::batch::SceneCache::slack_for(&universe_of(obstacles, &[]));
    g.sync(obstacles, slack);
    let na = g.add_waypoint(a, 0);
    let nb = g.add_waypoint(b, QUERY_TAG);
    let path = compute_obstructed_path(g, na, nb, obstacles);
    g.remove_waypoint(na);
    g.remove_waypoint(nb);
    path
}

impl QueryEngine<'_> {
    /// The `k` obstructed nearest neighbours of `q` together with their
    /// shortest paths (ascending by distance).
    pub fn nearest_with_paths(&self, q: Point, k: usize) -> Vec<(u64, PathResult)> {
        self.nearest(q, k)
            .neighbors
            .into_iter()
            .filter_map(|(id, d)| {
                let path = shortest_obstructed_path(
                    q,
                    self.entities.position(id),
                    self.obstacles,
                    self.options.builder,
                )?;
                debug_assert!(
                    close_rel(path.distance, d),
                    "path length {} vs distance {}",
                    path.distance,
                    d
                );
                Some((id, path))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EntityIndex;
    use obstacle_geom::{Polygon, Rect};
    use obstacle_rtree::RTreeConfig;

    fn wall_scene() -> ObstacleIndex {
        ObstacleIndex::build(
            RTreeConfig::tiny(4),
            vec![Polygon::from_rect(Rect::from_coords(1.0, -1.0, 1.2, 1.0))],
        )
    }

    #[test]
    fn path_length_equals_distance_and_corners_are_obstacle_vertices() {
        let obstacles = wall_scene();
        let a = Point::new(0.0, 0.0);
        let b = Point::new(2.0, 0.0);
        let p = shortest_obstructed_path(a, b, &obstacles, EdgeBuilder::RotationalSweep).unwrap();
        let seg_sum: f64 = p.points.windows(2).map(|w| w[0].dist(w[1])).sum();
        assert!((seg_sum - p.distance).abs() < 1e-9);
        assert_eq!(p.points.first(), Some(&a));
        assert_eq!(p.points.last(), Some(&b));
        // Interior waypoints are wall corners.
        for w in &p.points[1..p.points.len() - 1] {
            assert!(
                [
                    Point::new(1.0, 1.0),
                    Point::new(1.2, 1.0),
                    Point::new(1.0, -1.0),
                    Point::new(1.2, -1.0)
                ]
                .contains(w),
                "unexpected corner {w}"
            );
        }
    }

    #[test]
    fn straight_path_when_unobstructed() {
        let obstacles = wall_scene();
        let a = Point::new(0.0, 2.0);
        let b = Point::new(2.0, 2.0);
        let p = shortest_obstructed_path(a, b, &obstacles, EdgeBuilder::RotationalSweep).unwrap();
        assert_eq!(p.points.len(), 2);
        assert!((p.distance - 2.0).abs() < 1e-12);
    }

    #[test]
    fn unreachable_target_yields_none() {
        let obstacles = ObstacleIndex::build(
            RTreeConfig::tiny(4),
            vec![Polygon::from_rect(Rect::from_coords(0.0, 0.0, 1.0, 1.0))],
        );
        assert!(shortest_obstructed_path(
            Point::new(-1.0, 0.5),
            Point::new(0.5, 0.5),
            &obstacles,
            EdgeBuilder::RotationalSweep
        )
        .is_none());
    }

    #[test]
    fn nearest_with_paths_is_consistent() {
        let obstacles = wall_scene();
        let entities = EntityIndex::build(
            RTreeConfig::tiny(4),
            vec![Point::new(2.0, 0.0), Point::new(0.0, 0.5)],
        );
        let engine = QueryEngine::new(&entities, &obstacles);
        let with_paths = engine.nearest_with_paths(Point::new(0.0, 0.0), 2);
        let plain = engine.nearest(Point::new(0.0, 0.0), 2);
        assert_eq!(with_paths.len(), plain.neighbors.len());
        for ((id_a, path), (id_b, d)) in with_paths.iter().zip(plain.neighbors.iter()) {
            assert_eq!(id_a, id_b);
            assert!(close_rel(path.distance, *d));
        }
    }

    #[test]
    fn long_path_tolerance_is_relative() {
        // A staircase of thin walls far from the origin: the shortest
        // path threads hundreds of corners at coordinates around 1e5, so
        // its length accumulates rounding well beyond an absolute 1e-9
        // while staying far inside the relative tolerance. The seed's
        // absolute `(path.distance - d).abs() < 1e-9` assertion tripped
        // on exactly this shape.
        let base = 1.0e5;
        let mut walls = Vec::new();
        for i in 0..120 {
            let x = base + 7.0 * i as f64;
            let (lo, hi) = if i % 2 == 0 {
                (base - 900.0, base + 3.0)
            } else {
                (base - 3.0, base + 900.0)
            };
            walls.push(Polygon::from_rect(Rect::from_coords(x, lo, x + 2.0, hi)));
        }
        let obstacles = ObstacleIndex::build(RTreeConfig::tiny(16), walls);
        let a = Point::new(base - 50.0, base);
        let b = Point::new(base + 7.0 * 120.0 + 50.0, base);

        let path = shortest_obstructed_path(a, b, &obstacles, EdgeBuilder::RotationalSweep)
            .expect("staircase is traversable");
        let seg_sum: f64 = path.points.windows(2).map(|w| w[0].dist(w[1])).sum();
        assert!(path.points.len() > 100, "path must thread the staircase");
        assert!(
            close_rel(seg_sum, path.distance),
            "polyline length {seg_sum} vs reported {})",
            path.distance
        );

        // Distance recomputed independently (disk regions, fresh scene)
        // agrees relatively; an absolute 1e-9 comparison would be far too
        // strict at this magnitude if the two engines associate the
        // additions differently.
        let mut g = LocalGraph::new(EdgeBuilder::RotationalSweep);
        let na = g.add_waypoint(a, 0);
        let nb = g.add_waypoint(b, QUERY_TAG);
        let d = crate::distance::compute_obstructed_distance(&mut g, na, nb, &obstacles).unwrap();
        assert!(
            close_rel(path.distance, d),
            "lazy path {} vs distance {d}",
            path.distance
        );
    }
}
