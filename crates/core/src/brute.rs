//! Brute-force reference implementations.
//!
//! Ground truth for the integration tests and the correctness gates of
//! the benchmark harness: every query is answered by building **one
//! global visibility graph** over the complete obstacle dataset (naive
//! edge construction) and running plain Dijkstra — no R-trees, no
//! Euclidean pruning, no local graphs. Costs are O(n²·m) per distance,
//! so keep datasets small.

use obstacle_geom::{Point, Polygon};
use obstacle_visibility::{dijkstra_distance, NodeId, VisibilityGraph};

/// Brute-force oracle over a fixed obstacle set.
pub struct BruteForce {
    obstacles: Vec<Polygon>,
}

impl BruteForce {
    /// Creates an oracle for the given obstacles.
    pub fn new(obstacles: Vec<Polygon>) -> Self {
        BruteForce { obstacles }
    }

    /// Exact obstructed distance between two points (`None` if
    /// unreachable, e.g. a point strictly inside an obstacle).
    pub fn obstructed_distance(&self, a: Point, b: Point) -> Option<f64> {
        let (graph, wps) = self.graph_with(&[a, b]);
        dijkstra_distance(&graph, wps[0], wps[1])
    }

    /// Obstructed range query: ids (indices into `entities`) and
    /// distances of all entities within obstructed distance `e` of `q`,
    /// ascending.
    pub fn range(&self, entities: &[Point], q: Point, e: f64) -> Vec<(u64, f64)> {
        let mut pts = vec![q];
        pts.extend_from_slice(entities);
        let (graph, wps) = self.graph_with(&pts);
        let mut out: Vec<(u64, f64)> = entities
            .iter()
            .enumerate()
            .filter_map(|(i, _)| {
                dijkstra_distance(&graph, wps[0], wps[i + 1])
                    .filter(|d| *d <= e)
                    .map(|d| (i as u64, d))
            })
            .collect();
        out.sort_by(|a, b| obstacle_geom::total_cmp(a.1, b.1).then(a.0.cmp(&b.0)));
        out
    }

    /// Obstructed k-nearest neighbours of `q`, ascending.
    pub fn nearest(&self, entities: &[Point], q: Point, k: usize) -> Vec<(u64, f64)> {
        let mut all = self.range(entities, q, f64::INFINITY);
        all.truncate(k);
        all
    }

    /// Obstructed e-distance join between `s` and `t` (ids are indices).
    pub fn join(&self, s: &[Point], t: &[Point], e: f64) -> Vec<(u64, u64, f64)> {
        let mut out = Vec::new();
        for (i, &a) in s.iter().enumerate() {
            for (j, &b) in t.iter().enumerate() {
                if a.dist(b) <= e {
                    if let Some(d) = self.obstructed_distance(a, b) {
                        if d <= e {
                            out.push((i as u64, j as u64, d));
                        }
                    }
                }
            }
        }
        out.sort_by(|x, y| obstacle_geom::total_cmp(x.2, y.2));
        out
    }

    /// The `k` obstructed-closest pairs between `s` and `t`, ascending.
    pub fn closest_pairs(&self, s: &[Point], t: &[Point], k: usize) -> Vec<(u64, u64, f64)> {
        let mut out = Vec::new();
        for (i, &a) in s.iter().enumerate() {
            for (j, &b) in t.iter().enumerate() {
                if let Some(d) = self.obstructed_distance(a, b) {
                    out.push((i as u64, j as u64, d));
                }
            }
        }
        out.sort_by(|x, y| obstacle_geom::total_cmp(x.2, y.2));
        out.truncate(k);
        out
    }

    fn graph_with(&self, points: &[Point]) -> (VisibilityGraph, Vec<NodeId>) {
        VisibilityGraph::build(
            self.obstacles
                .iter()
                .enumerate()
                .map(|(i, p)| (p.clone(), i as u64)),
            points.iter().enumerate().map(|(i, &p)| (p, i as u64)),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use obstacle_geom::Rect;

    #[test]
    fn oracle_detour_matches_hand_computation() {
        let oracle = BruteForce::new(vec![Polygon::from_rect(Rect::from_coords(
            1.0, -1.0, 2.0, 1.0,
        ))]);
        let d = oracle
            .obstructed_distance(Point::new(0.0, 0.0), Point::new(3.0, 0.0))
            .unwrap();
        assert!((d - (2.0 * 2.0f64.sqrt() + 1.0)).abs() < 1e-9);
    }

    #[test]
    fn oracle_range_and_nearest_are_consistent() {
        let oracle = BruteForce::new(vec![Polygon::from_rect(Rect::from_coords(
            0.4, 0.0, 0.6, 0.8,
        ))]);
        let entities = vec![
            Point::new(0.2, 0.4),
            Point::new(0.8, 0.4),
            Point::new(0.5, 0.9),
        ];
        let q = Point::new(0.0, 0.4);
        let nn = oracle.nearest(&entities, q, 3);
        assert_eq!(nn.len(), 3);
        let within = oracle.range(&entities, q, nn[1].1);
        assert_eq!(within.len(), 2);
        assert_eq!(within[0].0, nn[0].0);
    }
}
