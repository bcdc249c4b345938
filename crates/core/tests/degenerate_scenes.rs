//! Degenerate obstacle layouts against the unfiltered oracles.
//!
//! A `LazyScene` lists only visibility edges tangent to the obstacles at
//! both ends. The argument that no shortest path needs another edge is
//! made for obstacles that may touch or overlap, while the classic result
//! assumes disjoint ones. These scenes hold that argument to the full
//! naive `VisibilityGraph` and to `BruteForce`: corners touching at a
//! pinch a path must bend through, a shared edge, overlapping obstacles
//! whose union has a convex corner built from both, collinear corner runs
//! (axis-aligned, slanted, and one whose directions round apart), an
//! L-shaped polygon with a reflex vertex, and waypoints on walls and
//! exactly at vertices.

use obstacle_core::{Answer, BruteForce, EntityIndex, ObstacleIndex, Query, QueryEngine};
use obstacle_geom::{Point, Polygon, Rect};
use obstacle_rtree::RTreeConfig;
use obstacle_visibility::{
    bounded_expansion, dijkstra_distance, EdgeBuilder, LazyScene, NodeId, NodeKind, VisibilityGraph,
};

const TOL: f64 = 1e-9;

fn rect(x0: f64, y0: f64, x1: f64, y1: f64) -> Polygon {
    Polygon::from_rect(Rect::from_coords(x0, y0, x1, y1))
}

fn poly(points: &[(f64, f64)]) -> Polygon {
    Polygon::new(points.iter().map(|&(x, y)| Point::new(x, y)).collect()).expect("simple polygon")
}

fn pts(points: &[(f64, f64)]) -> Vec<Point> {
    points.iter().map(|&(x, y)| Point::new(x, y)).collect()
}

fn close(a: Option<f64>, b: Option<f64>) -> bool {
    match (a, b) {
        (Some(a), Some(b)) => (a - b).abs() <= TOL,
        (None, None) => true,
        _ => false,
    }
}

/// `LazyScene` against the unfiltered naive graph: A\* between every pair
/// of waypoints, and the waypoint distances of an unbounded expansion
/// from each.
fn assert_scene_matches_graph(obstacles: &[Polygon], waypoints: &[Point]) {
    let (graph, gids) = VisibilityGraph::build(
        obstacles.iter().cloned().zip(0u64..),
        waypoints.iter().copied().zip(0u64..),
    );
    let mut scene = LazyScene::new(EdgeBuilder::RotationalSweep);
    for (i, p) in obstacles.iter().enumerate() {
        scene.add_obstacle(p.clone(), i as u64);
    }
    let ids: Vec<NodeId> = waypoints
        .iter()
        .zip(0u64..)
        .map(|(&p, tag)| scene.add_waypoint(p, tag))
        .collect();
    for (i, (&a, &ga)) in ids.iter().zip(&gids).enumerate() {
        for (j, (&b, &gb)) in ids.iter().zip(&gids).enumerate() {
            let lazy = scene.astar(a, b);
            let want = dijkstra_distance(&graph, ga, gb);
            assert!(
                close(lazy.as_ref().map(|p| p.distance), want),
                "astar {:?} → {:?}: {:?} vs graph {want:?}",
                waypoints[i],
                waypoints[j],
                lazy.map(|p| p.distance)
            );
        }
        let mut got: Vec<(u64, f64)> = scene
            .bounded_expansion(a, f64::INFINITY, &ids)
            .into_iter()
            .filter_map(|(n, d)| match scene.kind(n) {
                NodeKind::Waypoint { tag } => Some((tag, d)),
                NodeKind::ObstacleVertex { .. } => None,
            })
            .collect();
        let mut want: Vec<(u64, f64)> = bounded_expansion(&graph, ga, f64::INFINITY)
            .into_iter()
            .filter_map(|(n, d)| match graph.kind(n) {
                NodeKind::Waypoint { tag } => Some((tag, d)),
                NodeKind::ObstacleVertex { .. } => None,
            })
            .collect();
        got.sort_by_key(|&(tag, _)| tag);
        want.sort_by_key(|&(tag, _)| tag);
        assert_eq!(got.len(), want.len(), "expansion from {:?}", waypoints[i]);
        for (g, w) in got.iter().zip(&want) {
            assert!(
                g.0 == w.0 && (g.1 - w.1).abs() <= TOL,
                "expansion from {:?}: {g:?} vs graph {w:?}",
                waypoints[i]
            );
        }
    }
    scene.validate(true).expect("successor lists");
}

/// Sorted by id, then compared with distances within `TOL`.
fn assert_same_rows<K: Ord + Copy + std::fmt::Debug>(
    mut got: Vec<(K, f64)>,
    mut want: Vec<(K, f64)>,
    what: &str,
) {
    got.sort_by_key(|&(k, _)| k);
    want.sort_by_key(|&(k, _)| k);
    assert_eq!(
        got.iter().map(|r| r.0).collect::<Vec<_>>(),
        want.iter().map(|r| r.0).collect::<Vec<_>>(),
        "{what}"
    );
    for (g, w) in got.iter().zip(&want) {
        assert!((g.1 - w.1).abs() <= TOL, "{what}: {g:?} vs brute {w:?}");
    }
}

/// `QueryEngine::execute` against `BruteForce`, with the waypoints as the
/// entity dataset: range and NN from every waypoint, a path between every
/// pair, and the distance self-join.
fn assert_engine_matches_brute(obstacles: &[Polygon], entities: &[Point]) {
    let ents = EntityIndex::build(RTreeConfig::tiny(4), entities.to_vec());
    let obs = ObstacleIndex::build(RTreeConfig::tiny(4), obstacles.to_vec());
    let engine = QueryEngine::new(&ents, &obs);
    let brute = BruteForce::new(obstacles.to_vec());
    for &q in entities {
        for e in [0.7, 1.9, 4.3] {
            let Answer::Range(got) = engine.execute(&Query::Range { q, e }) else {
                unreachable!()
            };
            let want = brute.range(entities, q, e);
            assert_same_rows(got.hits, want, &format!("range at {q:?}, e {e}"));
        }
        let k = entities.len();
        let Answer::Nearest(got) = engine.execute(&Query::Nearest { q, k }) else {
            unreachable!()
        };
        let want = brute.nearest(entities, q, k);
        assert_same_rows(got.neighbors, want, &format!("nearest at {q:?}"));
        for &to in entities {
            let Answer::Path(got) = engine.execute(&Query::Path { from: q, to }) else {
                unreachable!()
            };
            let want = brute.obstructed_distance(q, to);
            let got = got.map(|p| p.distance);
            assert!(close(got, want), "path {q:?} → {to:?}: {got:?} vs {want:?}");
        }
    }
    let e = 2.5;
    let Answer::DistanceJoin(got) = engine.execute(&Query::DistanceJoin { e }) else {
        unreachable!()
    };
    let rows = |pairs: Vec<(u64, u64, f64)>| pairs.into_iter().map(|(a, b, d)| ((a, b), d));
    let want = brute.join(entities, entities, e);
    assert_same_rows(rows(got.pairs).collect(), rows(want).collect(), "join");
}

fn assert_degenerate_scene(obstacles: &[Polygon], waypoints: &[Point]) {
    assert_scene_matches_graph(obstacles, waypoints);
    assert_engine_matches_brute(obstacles, waypoints);
}

#[test]
fn squares_touching_at_a_pinch() {
    let obstacles = [rect(0.0, 0.0, 1.0, 1.0), rect(1.0, -1.0, 2.0, 0.0)];
    // (0.5, -1) → (2, 0.5) bends through the pinch around the lower
    // square, (-0.5, -0.1) → (1.1, 0.5) around the upper one.
    let wps = pts(&[
        (0.5, -1.0),
        (2.0, 0.5),
        (-0.5, -0.1),
        (1.1, 0.5),
        (1.0, 0.0), // the pinch itself
        (3.0, 2.0),
    ]);
    let brute = BruteForce::new(obstacles.to_vec());
    let bend = brute.obstructed_distance(wps[0], wps[1]).unwrap();
    assert!((bend - 2.0 * 1.25f64.sqrt()).abs() <= TOL, "{bend}");
    let bend = brute.obstructed_distance(wps[2], wps[3]).unwrap();
    assert!(
        (bend - 2.26f64.sqrt() - 0.26f64.sqrt()).abs() <= TOL,
        "{bend}"
    );
    assert_degenerate_scene(&obstacles, &wps);
}

#[test]
fn squares_sharing_an_edge() {
    let obstacles = [rect(0.0, 0.0, 1.0, 1.0), rect(1.0, 0.0, 2.0, 1.0)];
    let wps = pts(&[
        (-0.5, 0.5),
        (2.5, 0.5),
        (1.0, 1.5),
        (1.0, -0.5),
        (1.0, 0.5), // on the shared edge: it can only walk along it
        (0.5, 1.0),
    ]);
    assert_degenerate_scene(&obstacles, &wps);
}

#[test]
fn overlapping_obstacles_whose_union_has_a_convex_corner_from_both() {
    // Both rectangles have their corner at (2, 0); so do both triangles at
    // the origin, where their interior wedges (0°–56° and 27°–90°)
    // overlap and join into one convex corner.
    let rects = [rect(0.0, 0.0, 2.0, 1.0), rect(1.0, 0.0, 2.0, 3.0)];
    let wps = pts(&[(0.5, -0.5), (3.0, 1.5), (-0.5, 2.0), (2.5, 0.0), (1.5, 3.5)]);
    assert_degenerate_scene(&rects, &wps);

    let triangles = [
        poly(&[(0.0, 0.0), (2.0, 0.0), (1.0, 1.5)]),
        poly(&[(0.0, 0.0), (1.0, 0.5), (0.0, 2.0)]),
    ];
    let wps = pts(&[(2.0, -0.5), (-0.5, 2.0), (1.5, 1.5), (-1.0, -1.0)]);
    assert_degenerate_scene(&triangles, &wps);
}

#[test]
fn collinear_corner_runs() {
    // Bottom edges on y = 0: the path walks the run.
    let squares = [
        rect(0.0, 0.0, 1.0, 1.0),
        rect(2.0, 0.0, 3.0, 1.0),
        rect(4.0, 0.0, 5.0, 1.0),
    ];
    let wps = pts(&[(-1.0, 0.4), (6.0, 0.4), (2.5, -0.5), (1.5, 1.5)]);
    assert_degenerate_scene(&squares, &wps);

    // Parallelograms with bottom edges on the slanted line y = x / 3.
    let slanted: Vec<Polygon> = (0..3)
        .map(|k| {
            let (x, y) = (6.0 * k as f64, 2.0 * k as f64);
            poly(&[
                (x, y),
                (x + 3.0, y + 1.0),
                (x + 2.0, y + 3.0),
                (x - 1.0, y + 2.0),
            ])
        })
        .collect();
    let wps = pts(&[(-3.0, -0.5), (18.0, 5.5), (7.0, 1.0), (4.5, 4.0)]);
    assert_degenerate_scene(&slanted, &wps);
}

#[test]
fn a_wall_continues_to_a_collinear_corner_whose_direction_rounds_apart() {
    // (0.2, 0.3), (0.8, 0.5) and (1.4, 0.7) are exactly collinear, but
    // the pseudo-angle of the wall (0.2, 0.3) → (0.8, 0.5) rounds to just
    // below 0.25 and that of (1.4, 0.7) to 0.25 itself: the far corner
    // lies on the edge of the wall corner's tangent cone, which only its
    // padding keeps in the sweep.
    let obstacles = [
        poly(&[(0.2, 0.3), (0.8, 0.5), (0.2, 0.9)]),
        poly(&[(1.4, 0.7), (2.0, 1.0), (1.5, 1.2)]),
    ];
    let wps = pts(&[(0.0, 0.6), (2.2, 0.9), (1.0, 1.3), (0.6, 0.0)]);
    assert_degenerate_scene(&obstacles, &wps);
}

#[test]
fn l_shape_with_a_reflex_vertex() {
    let l = poly(&[
        (0.0, 0.0),
        (2.0, 0.0),
        (2.0, 1.0),
        (1.0, 1.0),
        (1.0, 2.0),
        (0.0, 2.0),
    ]);
    let wps = pts(&[
        (1.5, 1.5), // in the notch
        (3.0, 0.5),
        (-1.0, 1.0),
        (0.5, 3.0),
        (3.0, 3.0),
        (1.0, 1.0), // at the reflex vertex
    ]);
    assert_degenerate_scene(&[l], &wps);
}

#[test]
fn waypoints_on_walls_and_at_vertices() {
    let obstacles = [rect(0.0, 0.0, 1.0, 1.0), rect(2.0, 0.0, 3.0, 1.0)];
    let wps = pts(&[
        (0.5, 0.0), // mid bottom wall
        (1.0, 0.5), // mid right wall
        (0.0, 0.0), // at a vertex
        (2.0, 1.0), // at a vertex of the other square
        (1.5, 0.5),
        (3.0, 1.0),
        (2.5, 1.0), // mid top wall
    ]);
    assert_degenerate_scene(&obstacles, &wps);
}
