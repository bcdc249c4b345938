//! Dynamic local visibility graphs and obstructed shortest paths.
//!
//! The paper computes obstructed distances on **local visibility graphs**
//! built on-line from the obstacles (and entities) relevant to a query
//! (§2.4): maintaining the full visibility graph of a real obstacle dataset
//! in memory is infeasible and pre-materialisation breaks under updates.
//!
//! This crate provides:
//!
//! * [`LazyScene`] — what every query runs on. Nodes are obstacle
//!   vertices plus free *waypoints* (query points and entities); no edge
//!   is ever materialized: A\* guided by the Euclidean lower bound (or a
//!   bounded Dijkstra expansion, for range queries) runs one **rotational
//!   plane sweep** of Sharir & Schorr \[SS84\], O(n log n), per *settled*
//!   node, on demand. Supports the paper's three dynamic operations
//!   (`add_obstacle`, `add_waypoint` a.k.a. *add entity*,
//!   `remove_waypoint` a.k.a. *delete entity*) without rebuilding (§4).
//! * [`VisibilityGraph`] — the **naive oracle**: every edge materialized
//!   by a pairwise `blocks_segment` test against every obstacle. It
//!   shares no code with the sweep, and exists so tests can hold the
//!   sweep to it.
//! * [`dijkstra`] — shortest-path computation on the materialized graph
//!   \[D59\]: point to point, bounded-radius expansion and path
//!   reconstruction.
//!
//! Scenes are **storage-agnostic**: obstacles arrive as polygons, so the
//! same scene (and every cached sweep) serves candidates selected by the
//! paged R*-tree or the packed static tree — the `TreeBackend` choice
//! upstream never changes what a scene computes, only how the candidate
//! set was found (the `backend_equivalence` suite in `obstacle-core`
//! pins the two bit-identical).
//!
//! # Production scene vs. naive oracle
//!
//! The two representations answer the same queries with the same results;
//! only one of them is meant to be fast:
//!
//! * **[`LazyScene`] (production)** registers obstacles with only O(n)
//!   classification bookkeeping and defers every visibility computation
//!   until a search actually pops the node. Settled nodes are confined to
//!   the ellipse `|x−p| + |x−q| ≤ d_O(p, q)`, so long point-to-point
//!   paths touch a corridor, not the scene — this is what makes
//!   corner-to-corner shortest paths over 10⁴⁺ obstacles feasible (see
//!   `obstacle_core::compute_obstructed_path`). Each sweep is bounded by
//!   the *reach* the search can still use, so its cost follows the
//!   query, not the extent of a scene earlier queries grew. Successor
//!   caches are revalidated geometrically on obstacle insertion and
//!   extended, not recomputed, when a later search needs more reach.
//!   [`EdgeBuilder::Naive`] swaps the sweep for a pairwise scan — the
//!   ablation arm, and the second opinion `LazyScene::validate` checks
//!   every successor list against, over the reach the list certifies.
//! * **[`VisibilityGraph`] (oracle)** pays O(n·m) per node up front, for
//!   a fixed obstacle set, and then answers any number of
//!   [`dijkstra`] searches. `obstacle_core::brute` and the oracle suites
//!   build it; `tests/sweep_vs_naive.rs` drives the sweep over
//!   adversarial scenes (collinear corners, diagonals through touching
//!   corners, waypoints on walls) and requires waypoint distances equal
//!   to this graph's, and obstacle-vertex distances equal to this graph
//!   filtered by [`tangent_at`]: a scene builds the *tangent* visibility
//!   graph, which keeps every shortest path between waypoints.
//!
//! Visibility semantics: obstacle **interiors** block sight; boundaries do
//! not. Paths may slide along obstacle edges and pass through touching
//! corners — matching the obstructed-distance definition of the paper.
//!
//! # Example
//!
//! ```
//! use obstacle_geom::{Point, Polygon, Rect};
//! use obstacle_visibility::{dijkstra_distance, EdgeBuilder, LazyScene, VisibilityGraph};
//!
//! // A square blocks the direct line between two waypoints.
//! let square = Polygon::from_rect(Rect::from_coords(1.0, -1.0, 2.0, 1.0));
//! let (a, b) = (Point::new(0.0, 0.0), Point::new(3.0, 0.0));
//!
//! let mut scene = LazyScene::new(EdgeBuilder::RotationalSweep);
//! scene.add_obstacle(square.clone(), 0);
//! let (na, nb) = (scene.add_waypoint(a, 1), scene.add_waypoint(b, 2));
//! let d = scene.astar_distance(na, nb).unwrap();
//! assert!(d > 3.0); // forced around a corner: 2·√2 + 1 ≈ 3.83
//! assert!((d - (2.0 * 2.0f64.sqrt() + 1.0)).abs() < 1e-9);
//!
//! // The naive oracle agrees.
//! let (graph, wps) = VisibilityGraph::build([(square, 0u64)], [(a, 1), (b, 2)]);
//! assert_eq!(dijkstra_distance(&graph, wps[0], wps[1]), Some(d));
//! ```

#![warn(missing_docs)]

pub mod astar;
pub mod dijkstra;
mod graph;
mod sweep;

pub use astar::{tangent_at, EdgeBuilder, LazyScene};
pub use dijkstra::{bounded_expansion, dijkstra_distance, shortest_path, PathResult};
pub use graph::{NodeId, NodeKind, ObstacleId, VisibilityGraph};
