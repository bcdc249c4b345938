//! The rotational plane sweep production runs (`LazyScene` with
//! `EdgeBuilder::RotationalSweep`, i.e. `visible_set_windowed` behind the
//! successor caches) must see exactly what the naive oracle graph sees,
//! including on adversarial configurations (collinear vertices, diagonals
//! through corners, entities on walls). A scene lists only the edges
//! tangent at both ends (`tangent_at`), so waypoint distances are held to
//! the naive graph itself and obstacle vertices to the naive graph
//! filtered by the same predicate.

use obstacle_geom::check;
use obstacle_geom::{OrdF64, Point, Polygon, Rect};
use obstacle_visibility::{
    bounded_expansion, tangent_at, EdgeBuilder, LazyScene, NodeId, NodeKind, VisibilityGraph,
};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// The waypoint (`waypoints`) or obstacle-vertex nodes of an expansion, as
/// sorted `(x bits, y bits, distance)` — node ids differ between the two
/// structures.
fn reach(
    nodes: &[(NodeId, f64)],
    position: impl Fn(NodeId) -> Point,
    kind: impl Fn(NodeId) -> NodeKind,
    waypoints: bool,
) -> Vec<(u64, u64, f64)> {
    let mut out: Vec<_> = nodes
        .iter()
        .filter(|&&(n, _)| matches!(kind(n), NodeKind::Waypoint { .. }) == waypoints)
        .map(|&(n, d)| (position(n).x.to_bits(), position(n).y.to_bits(), d))
        .collect();
    out.sort_by(|a, b| (a.0, a.1).cmp(&(b.0, b.1)).then(a.2.total_cmp(&b.2)));
    out
}

/// Unbounded Dijkstra from `from` over the naive graph's edges that are
/// tangent at both ends, with waypoints other than `from` as sinks: the
/// tangent visibility graph a `LazyScene` expands over.
fn tangent_expansion(graph: &VisibilityGraph, from: NodeId) -> Vec<(NodeId, f64)> {
    let polys: Vec<&Polygon> = graph.obstacles().map(|(_, _, p)| p).collect();
    let at = |id: NodeId, x: Point| match graph.kind(id) {
        NodeKind::ObstacleVertex { obstacle, vertex } => {
            tangent_at(polys[obstacle.0 as usize], vertex as usize, x)
        }
        NodeKind::Waypoint { .. } => true,
    };
    let mut dist = vec![f64::INFINITY; graph.node_slots()];
    let mut settled = Vec::new();
    let mut heap = BinaryHeap::new();
    dist[from.0 as usize] = 0.0;
    heap.push(Reverse((OrdF64(0.0), from.0)));
    while let Some(Reverse((OrdF64(d), u))) = heap.pop() {
        if d > dist[u as usize] {
            continue;
        }
        settled.push((NodeId(u), d));
        if u != from.0 && matches!(graph.kind(NodeId(u)), NodeKind::Waypoint { .. }) {
            continue;
        }
        let pu = graph.position(NodeId(u));
        for &(v, w) in graph.neighbors(NodeId(u)) {
            let nd = d + w;
            if at(NodeId(u), graph.position(v)) && at(v, pu) && nd < dist[v.0 as usize] {
                dist[v.0 as usize] = nd;
                heap.push(Reverse((OrdF64(nd), v.0)));
            }
        }
    }
    settled
}

/// Asserts two sorted reach lists name the same positions at distances
/// within 1e-9.
fn assert_same_reach(got: &[(u64, u64, f64)], want: &[(u64, u64, f64)], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}");
    for (g, w) in got.iter().zip(want) {
        assert!(
            (g.0, g.1) == (w.0, w.1) && (g.2 - w.2).abs() <= 1e-9,
            "{g:?} vs oracle {w:?}: {what}"
        );
    }
}

/// Grows a sweep-driven scene one obstacle at a time under a standing set
/// of waypoints (so classifications are maintained incrementally and
/// successor caches are revalidated, as in production). After every
/// insertion an unbounded expansion from every waypoint sweeps every
/// reachable node. Then (i) every waypoint distance must equal the naive
/// graph's over the same obstacles, (ii) the obstacle vertices settled,
/// and their distances, must equal a Dijkstra over the naive graph's
/// tangent edges, and (iii) each fresh successor list must equal naive
/// tangent visibility (`validate(true)`).
fn assert_equivalent(obstacles: &[Rect], waypoints: &[Point]) {
    let polys: Vec<Polygon> = obstacles.iter().map(|r| Polygon::from_rect(*r)).collect();
    let tagged = || waypoints.iter().copied().zip(0u64..);
    let context = |n: usize| format!("obstacles: {:?}\nwaypoints: {waypoints:?}", &obstacles[..n]);

    let mut scene = LazyScene::new(EdgeBuilder::RotationalSweep);
    let ids: Vec<NodeId> = tagged()
        .map(|(p, tag)| scene.add_waypoint(p, tag))
        .collect();
    for n in 0..=polys.len() {
        if n > 0 {
            scene.add_obstacle(polys[n - 1].clone(), n as u64 - 1);
        }
        let (naive, naive_ids) =
            VisibilityGraph::build(polys[..n].iter().cloned().zip(0u64..), tagged());
        naive.validate(true).expect("naive graph is its own oracle");
        for (&from, &naive_from) in ids.iter().zip(&naive_ids) {
            let swept = scene.bounded_expansion(from, f64::INFINITY, &ids);
            let got = |wps| reach(&swept, |n| scene.position(n), |n| scene.kind(n), wps);
            let want =
                |e: &[(NodeId, f64)], wps| reach(e, |n| naive.position(n), |n| naive.kind(n), wps);
            let exact = bounded_expansion(&naive, naive_from, f64::INFINITY);
            let what = |part| format!("{part} from {from:?}\n{}", context(n));
            assert_same_reach(&got(true), &want(&exact, true), &what("waypoints"));
            let tangent = tangent_expansion(&naive, naive_from);
            assert_same_reach(&got(false), &want(&tangent, false), &what("vertices"));
        }
        scene
            .validate(true)
            .unwrap_or_else(|e| panic!("sweep disagrees with oracle: {e}\n{}", context(n)));
    }

    // Deleting every waypoint leaves a pure obstacle scene whose vertex
    // caches still validate.
    for id in ids {
        scene.remove_waypoint(id);
    }
    scene
        .validate(true)
        .unwrap_or_else(|e| panic!("after waypoint removal: {e}\n{}", context(polys.len())));
}

/// Disjoint rectangles on a jittered grid: deterministic, parameterised by
/// seed, never overlapping (cell-confined).
fn grid_rects(seed: u64, cells: usize, keep: usize) -> Vec<Rect> {
    let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    let mut out = Vec::new();
    for cy in 0..cells {
        for cx in 0..cells {
            if out.len() >= keep {
                return out;
            }
            let cell = 1.0 / cells as f64;
            let x0 = cx as f64 * cell;
            let y0 = cy as f64 * cell;
            // Inset rectangle strictly inside the cell.
            let w = cell * (0.2 + 0.55 * next());
            let h = cell * (0.2 + 0.55 * next());
            let ox = cell * 0.1 * (1.0 + next());
            let oy = cell * 0.1 * (1.0 + next());
            out.push(Rect::from_coords(
                x0 + ox,
                y0 + oy,
                x0 + ox + w,
                y0 + oy + h,
            ));
        }
    }
    out
}

#[test]
fn empty_scene_connects_all_waypoints() {
    let wps = [
        Point::new(0.1, 0.1),
        Point::new(0.9, 0.2),
        Point::new(0.5, 0.8),
    ];
    assert_equivalent(&[], &wps);
}

#[test]
fn single_square_basic() {
    assert_equivalent(
        &[Rect::from_coords(0.4, 0.4, 0.6, 0.6)],
        &[
            Point::new(0.1, 0.5),
            Point::new(0.9, 0.5),
            Point::new(0.5, 0.1),
        ],
    );
}

#[test]
fn two_squares_aligned_corners() {
    // Diagonally aligned corners: the segment between the inner corners
    // grazes both squares — visible (boundary contact only).
    assert_equivalent(
        &[
            Rect::from_coords(0.1, 0.1, 0.3, 0.3),
            Rect::from_coords(0.3, 0.3, 0.5, 0.5),
        ],
        &[Point::new(0.05, 0.05), Point::new(0.6, 0.6)],
    );
}

#[test]
fn collinear_corners_on_one_ray() {
    // Three rectangles whose corners are exactly collinear with the
    // waypoint at the origin: the classic same-ray event chain.
    assert_equivalent(
        &[
            Rect::from_coords(0.1, 0.1, 0.2, 0.2),
            Rect::from_coords(0.3, 0.3, 0.4, 0.4),
            Rect::from_coords(0.5, 0.5, 0.6, 0.6),
        ],
        &[
            Point::new(0.0, 0.0),
            Point::new(0.75, 0.75),
            Point::new(0.25, 0.25),
        ],
    );
}

#[test]
fn waypoint_horizontally_aligned_with_corners() {
    // Events exactly on the initial (+x) ray of the sweep.
    assert_equivalent(
        &[Rect::from_coords(0.4, 0.2, 0.6, 0.5)],
        &[
            Point::new(0.1, 0.5), // same y as the top edge
            Point::new(0.9, 0.5),
            Point::new(0.1, 0.2), // same y as the bottom edge
            Point::new(0.9, 0.2),
        ],
    );
}

#[test]
fn aligned_rectangle_walls() {
    // Rectangles sharing wall lines (same x extents): edges collinear
    // with sight lines along the walls.
    assert_equivalent(
        &[
            Rect::from_coords(0.2, 0.1, 0.4, 0.3),
            Rect::from_coords(0.2, 0.5, 0.4, 0.7),
            Rect::from_coords(0.2, 0.8, 0.4, 0.9),
        ],
        &[
            Point::new(0.2, 0.0), // on the shared wall line x = 0.2
            Point::new(0.2, 0.95),
            Point::new(0.3, 0.4),
        ],
    );
}

#[test]
fn dense_random_scenes() {
    for seed in 0..20u64 {
        let rects = grid_rects(seed, 4, 12);
        let wps = [
            Point::new(0.01, 0.01),
            Point::new(0.99, 0.99),
            Point::new(0.5, 0.02),
            Point::new(0.02, 0.55),
        ];
        assert_equivalent(&rects, &wps);
    }
}

#[test]
fn waypoints_on_obstacle_boundaries() {
    // Entities placed exactly on obstacle walls (the paper allows
    // entities on boundaries).
    let r = Rect::from_coords(0.3, 0.3, 0.7, 0.7);
    assert_equivalent(
        &[r, Rect::from_coords(0.1, 0.1, 0.2, 0.2)],
        &[
            Point::new(0.5, 0.3), // mid bottom wall
            Point::new(0.7, 0.5), // mid right wall
            Point::new(0.3, 0.3), // exactly at a corner
            Point::new(0.9, 0.9),
        ],
    );
}

#[test]
fn sweep_equals_naive_on_random_scenes() {
    check::cases(48, |g| {
        let seed = g.u64(0, 10_000);
        let cells = g.usize(2, 5);
        let keep = g.usize(1, 14);
        let wps = g.vec(1, 6, |g| Point::new(g.f64(0.0, 1.0), g.f64(0.0, 1.0)));
        let rects = grid_rects(seed, cells, keep);
        // Waypoints that fall strictly inside an obstacle are allowed but
        // make the check trivial (no edges either way).
        assert_equivalent(&rects, &wps);
    });
}
