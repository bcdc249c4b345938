//! Shortest paths on visibility graphs \[D59\].
//!
//! Three flavours, matching the needs of the paper's query processors:
//!
//! * [`dijkstra_distance`] — point-to-point distance with early
//!   termination at the target (obstructed-distance computation, Fig. 8);
//! * [`bounded_expansion`] — all nodes within a radius, reported in
//!   ascending distance order: the single expansion of the OR algorithm
//!   (Fig. 5) over a materialized graph, kept as the oracle of the lazy
//!   [`LazyScene::bounded_expansion`](crate::LazyScene::bounded_expansion).
//!   That one reports only the targets it is given and searches toward
//!   them (multi-target A\*); with every node a target it is this
//!   Dijkstra;
//! * [`shortest_path`] — distance plus the actual polyline (useful for
//!   applications; the paper only needs distances).

use crate::graph::{NodeId, VisibilityGraph};
use obstacle_geom::{OrdF64, Point};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A shortest path: total length and the polyline from source to target.
#[derive(Clone, Debug, PartialEq)]
pub struct PathResult {
    /// Total path length (the obstructed distance).
    pub distance: f64,
    /// Waypoints from source to target inclusive.
    pub points: Vec<Point>,
}

/// Shortest-path distance from `from` to `to`; `None` when unreachable in
/// the graph. Terminates as soon as the target is settled.
pub fn dijkstra_distance(graph: &VisibilityGraph, from: NodeId, to: NodeId) -> Option<f64> {
    if from == to {
        return Some(0.0);
    }
    let n = graph.node_slots();
    let mut dist = vec![f64::INFINITY; n];
    let mut heap: BinaryHeap<Reverse<(OrdF64, u32)>> = BinaryHeap::new();
    dist[from.0 as usize] = 0.0;
    heap.push(Reverse((OrdF64(0.0), from.0)));
    while let Some(Reverse((OrdF64(d), u))) = heap.pop() {
        if d > dist[u as usize] {
            continue; // stale entry
        }
        if u == to.0 {
            return Some(d);
        }
        for &(v, w) in graph.neighbors(NodeId(u)) {
            let nd = d + w;
            if nd < dist[v.0 as usize] {
                dist[v.0 as usize] = nd;
                heap.push(Reverse((OrdF64(nd), v.0)));
            }
        }
    }
    None
}

/// All nodes within distance `radius` of `from`, in ascending distance
/// order (including `from` itself at distance 0).
///
/// This is the paper's OR algorithm (Fig. 5) as written: one Dijkstra
/// expansion from the query point, pruned at the range `e`, reporting
/// entities as they are settled. The engine runs the lazy, goal-directed
/// [`LazyScene::bounded_expansion`](crate::LazyScene::bounded_expansion);
/// this materialized form is its test oracle.
pub fn bounded_expansion(graph: &VisibilityGraph, from: NodeId, radius: f64) -> Vec<(NodeId, f64)> {
    let n = graph.node_slots();
    let mut dist = vec![f64::INFINITY; n];
    let mut settled = Vec::new();
    let mut heap: BinaryHeap<Reverse<(OrdF64, u32)>> = BinaryHeap::new();
    dist[from.0 as usize] = 0.0;
    heap.push(Reverse((OrdF64(0.0), from.0)));
    while let Some(Reverse((OrdF64(d), u))) = heap.pop() {
        if d > dist[u as usize] {
            continue;
        }
        settled.push((NodeId(u), d));
        for &(v, w) in graph.neighbors(NodeId(u)) {
            let nd = d + w;
            if nd <= radius && nd < dist[v.0 as usize] {
                dist[v.0 as usize] = nd;
                heap.push(Reverse((OrdF64(nd), v.0)));
            }
        }
    }
    settled
}

/// Shortest path (distance and polyline) from `from` to `to`.
pub fn shortest_path(graph: &VisibilityGraph, from: NodeId, to: NodeId) -> Option<PathResult> {
    let n = graph.node_slots();
    let mut dist = vec![f64::INFINITY; n];
    let mut pred: Vec<u32> = vec![u32::MAX; n];
    let mut heap: BinaryHeap<Reverse<(OrdF64, u32)>> = BinaryHeap::new();
    dist[from.0 as usize] = 0.0;
    heap.push(Reverse((OrdF64(0.0), from.0)));
    while let Some(Reverse((OrdF64(d), u))) = heap.pop() {
        if d > dist[u as usize] {
            continue;
        }
        if u == to.0 {
            break;
        }
        for &(v, w) in graph.neighbors(NodeId(u)) {
            let nd = d + w;
            if nd < dist[v.0 as usize] {
                dist[v.0 as usize] = nd;
                pred[v.0 as usize] = u;
                heap.push(Reverse((OrdF64(nd), v.0)));
            }
        }
    }
    if dist[to.0 as usize].is_infinite() {
        return None;
    }
    let mut points = vec![graph.position(to)];
    let mut cur = to.0;
    while cur != from.0 {
        cur = pred[cur as usize];
        debug_assert_ne!(cur, u32::MAX);
        points.push(graph.position(NodeId(cur)));
    }
    points.reverse();
    Some(PathResult {
        distance: dist[to.0 as usize],
        points,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::VisibilityGraph;
    use obstacle_geom::{Polygon, Rect};

    /// One square obstacle between two waypoints.
    fn blocked_scene() -> (VisibilityGraph, NodeId, NodeId) {
        let square = Polygon::from_rect(Rect::from_coords(1.0, -1.0, 2.0, 1.0));
        let (g, wps) = VisibilityGraph::build(
            [(square, 0u64)],
            [(Point::new(0.0, 0.0), 1), (Point::new(3.0, 0.0), 2)],
        );
        (g, wps[0], wps[1])
    }

    #[test]
    fn detour_around_square() {
        let (g, s, t) = blocked_scene();
        // Direct distance is 3; the detour passes a corner of the square:
        // from (0,0) to (1,1) to (2,1) to (3,0):  √2 + 1 + √2.
        let d = dijkstra_distance(&g, s, t).unwrap();
        let expect = 2.0f64.sqrt() + 1.0 + 2.0f64.sqrt();
        assert!((d - expect).abs() < 1e-9, "{d} vs {expect}");
        assert!(d > g.position(s).dist(g.position(t)));
    }

    #[test]
    fn path_polyline_matches_distance() {
        let (g, s, t) = blocked_scene();
        let p = shortest_path(&g, s, t).unwrap();
        let total: f64 = p.points.windows(2).map(|w| w[0].dist(w[1])).sum();
        assert!((total - p.distance).abs() < 1e-9);
        assert_eq!(p.points.first().copied(), Some(g.position(s)));
        assert_eq!(p.points.last().copied(), Some(g.position(t)));
        assert_eq!(p.points.len(), 4); // source, two corners, target
    }

    #[test]
    fn self_distance_is_zero() {
        let (g, s, _) = blocked_scene();
        assert_eq!(dijkstra_distance(&g, s, s), Some(0.0));
    }

    #[test]
    fn walled_chamber_escapes_along_boundaries() {
        // Four walls with touching (but non-overlapping) interiors form a
        // chamber around (1.5, 1.5). Obstacle *boundaries* are walkable,
        // so a path escapes through the touching corner at (1,1) and
        // slides along the shared wall line — the chamber is not sealed,
        // but the distance is far longer than the Euclidean one.
        let walls = [
            Rect::from_coords(0.0, 0.0, 3.0, 1.0),
            Rect::from_coords(0.0, 2.0, 3.0, 3.0),
            Rect::from_coords(0.0, 1.0, 1.0, 2.0),
            Rect::from_coords(2.0, 1.0, 3.0, 2.0),
        ];
        let (g, wps) = VisibilityGraph::build(
            walls
                .iter()
                .enumerate()
                .map(|(i, r)| (Polygon::from_rect(*r), i as u64)),
            [(Point::new(1.5, 1.5), 0), (Point::new(5.0, 5.0), 1)],
        );
        let d = dijkstra_distance(&g, wps[0], wps[1]).unwrap();
        let euclid = Point::new(1.5, 1.5).dist(Point::new(5.0, 5.0));
        assert!(d > euclid + 0.2, "obstructed {d} vs euclid {euclid}");
    }

    #[test]
    fn entity_inside_an_obstacle_is_unreachable() {
        // An entity strictly inside an obstacle interior gets no edges at
        // all: every sight line to it crosses the interior.
        let square = Polygon::from_rect(Rect::from_coords(1.0, 1.0, 2.0, 2.0));
        let (g, wps) = VisibilityGraph::build(
            [(square, 0u64)],
            [(Point::new(0.0, 0.0), 0), (Point::new(1.5, 1.5), 1)],
        );
        assert_eq!(dijkstra_distance(&g, wps[0], wps[1]), None);
        assert!(shortest_path(&g, wps[0], wps[1]).is_none());
        assert!(g.neighbors(wps[1]).is_empty());
    }

    #[test]
    fn bounded_expansion_is_sorted_and_bounded() {
        let (g, s, _) = blocked_scene();
        let within = bounded_expansion(&g, s, 2.0);
        assert_eq!(within[0], (s, 0.0));
        for w in within.windows(2) {
            assert!(w[0].1 <= w[1].1 + 1e-12);
        }
        for (_, d) in &within {
            assert!(*d <= 2.0 + 1e-12);
        }
        // The far waypoint at obstructed distance ≈ 3.83 is not included.
        assert!(within.iter().all(|(n, _)| g.position(*n).x < 3.0));
    }

    #[test]
    fn bounded_expansion_radius_zero_only_source() {
        let (g, s, _) = blocked_scene();
        let within = bounded_expansion(&g, s, 0.0);
        assert_eq!(within.len(), 1);
        assert_eq!(within[0], (s, 0.0));
    }

    #[test]
    fn dijkstra_equals_euclidean_when_unobstructed() {
        let (g, wps) = VisibilityGraph::build(
            std::iter::empty::<(Polygon, u64)>(),
            [(Point::new(0.0, 0.0), 0), (Point::new(3.0, 4.0), 1)],
        );
        assert_eq!(dijkstra_distance(&g, wps[0], wps[1]), Some(5.0));
    }

    #[test]
    fn heap_key_tolerates_nan_without_panicking() {
        // Regression for the NaN burn-down: a NaN distance key must order
        // deterministically (totalOrder) instead of aborting the search.
        let mut h = std::collections::BinaryHeap::new();
        for v in [f64::NAN, 1.0, 0.5] {
            h.push(std::cmp::Reverse(OrdF64(v)));
        }
        assert_eq!(h.pop().unwrap().0 .0, 0.5);
        assert_eq!(h.pop().unwrap().0 .0, 1.0);
        assert!(h.pop().unwrap().0 .0.is_nan());
    }
}
