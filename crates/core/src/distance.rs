//! Obstructed distance computation (Fig. 8 of the paper), driven by lazy
//! A\* instead of a materialized local visibility graph.
//!
//! The paper's Fig. 8 grows a local visibility graph until a fixpoint:
//! any path of length ≤ `d` stays inside a known region, so once every
//! obstacle intersecting that region is in the graph, the provisional
//! distance is exact. The seed implementation materialized every
//! visibility edge of that local graph, which made long paths
//! superlinearly expensive — each absorbed obstacle re-checked all
//! existing edges and swept from all of its vertices, even though the
//! eventual shortest path only touches a thin corridor.
//!
//! This module keeps the same fixpoint argument but runs it over a
//! [`LazyScene`]: obstacles are *registered* (classification bookkeeping
//! only) and visibility is computed on demand, one rotational sweep per
//! node that A\* actually settles. The search region is the ellipse
//! `|x−p| + |x−q| ≤ d` rather than the paper's disk around `q` — the one
//! documented deviation from Fig. 8 (see [`compute_obstructed_path`]).

use crate::engine::{universe_of, ObstacleIndex};
use crate::QUERY_TAG;
use obstacle_geom::{Point, Rect};
use obstacle_rtree::TreeBackend;
use obstacle_visibility::{EdgeBuilder, LazyScene, NodeId, NodeKind, PathResult};
use std::collections::HashSet;

/// A lazy visibility scene plus the set of obstacle ids it contains.
///
/// Wraps [`LazyScene`] with O(1) membership tests so the iterative
/// range-expansion of [`compute_obstructed_distance`] can detect its
/// fixpoint ("no new obstacles in the last range") cheaply. The scene —
/// absorbed obstacles, their classifications, and all cached visibility
/// sweeps — is reusable across consecutive distance computations (the
/// ONN algorithm's add/delete-entity reuse, §4).
///
/// # Validity under obstacle updates
///
/// The graph stamps the obstacle-set **epoch** it is synchronized with
/// and the union **region** its absorption drivers certified. Obstacle
/// *inserts* are absorbed naturally (every driver re-ranges the live
/// tree), but a *deleted* obstacle resident in the scene would keep
/// blocking paths — so before reuse, [`LocalGraph::sync`] retires the
/// scene iff some edit committed after its stamp has a dirty rect
/// intersecting its (slack-inflated) region. Every resident obstacle
/// intersects the stamped region (the drivers absorb only obstacles
/// whose MBR bound fits the certified disk), so a non-intersecting edit
/// provably cannot involve a resident obstacle and reuse stays legal.
#[derive(Debug)]
pub struct LocalGraph {
    /// The underlying lazy scene.
    pub scene: LazyScene,
    present: HashSet<u64>,
    /// Obstacle-set epoch this graph is synchronized with.
    epoch: u64,
    /// Union of the regions certified by absorption drivers (empty until
    /// the first absorption).
    region: Rect,
}

impl LocalGraph {
    /// Creates an empty local scene.
    pub fn new(builder: EdgeBuilder) -> Self {
        LocalGraph {
            scene: LazyScene::new(builder),
            present: HashSet::new(),
            epoch: 0,
            region: Rect::empty(),
        }
    }

    /// Number of obstacles currently in the scene.
    pub fn obstacle_count(&self) -> usize {
        self.present.len()
    }

    /// The obstacle-set epoch this graph was last synchronized with.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Union region certified by the absorption drivers so far (empty
    /// rect for a fresh or just-reset graph).
    pub fn region(&self) -> Rect {
        self.region
    }

    /// Whether reusing this graph against the current `obstacles` would
    /// be unsound: some edit after the stamped epoch dirtied a rect
    /// intersecting the stamped region inflated by `slack` (the same
    /// slack the scene-reuse cache coalesces regions with).
    pub fn is_stale(&self, obstacles: &ObstacleIndex, slack: f64) -> bool {
        obstacles.epoch() > self.epoch
            && !self.region.is_empty()
            && obstacles.dirty_intersects(self.epoch, &self.region.expanded(slack))
    }

    /// Synchronizes the graph with the current obstacle set: resets it if
    /// [`LocalGraph::is_stale`], then advances the epoch stamp. Returns
    /// whether a reset happened (the scene was retired by invalidation).
    /// Callers reusing a graph across queries must sync before adding
    /// waypoints — a reset invalidates outstanding [`NodeId`]s.
    pub fn sync(&mut self, obstacles: &ObstacleIndex, slack: f64) -> bool {
        let stale = self.is_stale(obstacles, slack);
        if stale {
            self.reset();
        }
        self.epoch = obstacles.epoch();
        stale
    }

    /// Discards all scene state (obstacles, waypoints, cached sweeps,
    /// certified region), keeping only the edge builder.
    pub fn reset(&mut self) {
        self.scene = LazyScene::new(self.scene.builder());
        self.present.clear();
        self.region = Rect::empty();
    }

    /// Extends the certified region (called by the absorption drivers
    /// with a rect covering every obstacle their range could absorb).
    fn note_region(&mut self, r: Rect) {
        self.region = self.region.union(&r);
    }

    /// Registers every not-yet-present obstacle of `items` with the
    /// scene; returns how many were new. The search region itself (the
    /// ellipse MBR bound) lives in [`compute_obstructed_path`], the only
    /// fixpoint absorption driver.
    fn absorb(
        &mut self,
        obstacles: &ObstacleIndex,
        items: impl IntoIterator<Item = obstacle_rtree::Item>,
    ) -> usize {
        let mut added = 0;
        for item in items {
            if self.present.insert(item.id) {
                self.scene
                    .add_obstacle(obstacles.polygon(item.id).clone(), item.id);
                added += 1;
            }
        }
        added
    }

    /// Adds a waypoint (entity or query point); see
    /// [`LazyScene::add_waypoint`].
    pub fn add_waypoint(&mut self, pos: Point, tag: u64) -> NodeId {
        self.scene.add_waypoint(pos, tag)
    }

    /// Removes a waypoint; see [`LazyScene::remove_waypoint`].
    pub fn remove_waypoint(&mut self, id: NodeId) {
        self.scene.remove_waypoint(id)
    }
}

/// Computes the exact obstructed distance `d_O(p, q)` (Fig. 8).
///
/// `graph` must already contain the waypoints `p` and `q`; any obstacles
/// (and cached visibility) already present are reused. See
/// [`compute_obstructed_path`] for the algorithm.
pub fn compute_obstructed_distance(
    graph: &mut LocalGraph,
    p: NodeId,
    q: NodeId,
    obstacles: &ObstacleIndex,
) -> Option<f64> {
    compute_obstructed_path(graph, p, q, obstacles).map(|path| path.distance)
}

/// The lazy A\* engine behind every obstructed distance and path:
///
/// 1. absorb the obstacles whose MBR bound lies within the initial
///    region (`d = d_E(p, q)` — any obstacle touching the straight
///    segment qualifies, as do all obstacles containing or touching an
///    endpoint);
/// 2. run A\* on the lazy scene (one visibility sweep per settled node,
///    reusing sweeps cached by earlier iterations or earlier queries);
/// 3. the provisional distance `d` is exact for the *current* scene but
///    obstacles outside it may still obstruct: re-range with `d` and
///    repeat until a range adds no obstacle the scene lacks. Because any
///    path of length ≤ `d` stays inside the region of size `d`, the
///    fixpoint distance is exact.
///
/// The region of size `d` is the ellipse with foci `p` and `q` and major
/// axis `d`, not the paper's disk of radius `d` around `q`: a `p`→`q`
/// path of length ≤ `d` through `x` has `d_E(p,x) + d_E(x,q) ≤ d_O(p,x) +
/// d_O(x,q) ≤ d`, so the same fixpoint argument holds on the tighter
/// region and fewer obstacles qualify.
///
/// Each absorption round invalidates cached sweeps (the scene changed),
/// so the loop *prefetches* a slightly larger region than it certifies —
/// regions grow geometrically past the observed detour overhead, keeping
/// the number of cache-cold A\* reruns logarithmic rather than linear in
/// the number of obstacles the path must weave around. Prefetched
/// obstacles are only absorbed on rounds that also absorb a certifying
/// obstacle, so a converged query leaves the scene untouched (important
/// for ONN's scene reuse across candidates).
///
/// If A\* fails on the current scene, `None` is returned immediately:
/// by \[LW79\], the visibility graph over a scene connects two free
/// points exactly when the scene's free space does, and absorbing more
/// obstacles only removes free space — so unreachability over a partial
/// scene is definitive (in particular, an endpoint strictly inside an
/// absorbed obstacle). There is no radius-doubling rescue phase; the
/// seed implementation needed one only because its materialized graph
/// could be legitimately disconnected mid-growth.
pub fn compute_obstructed_path(
    graph: &mut LocalGraph,
    p: NodeId,
    q: NodeId,
    obstacles: &ObstacleIndex,
) -> Option<PathResult> {
    // A sweep's A* expansion is unbounded and re-enters the buffer pool:
    // entering one while holding the buffer lock is a deadlock waiting for
    // contention. Debug builds enforce that invariant here.
    obstacle_rtree::sync::assert_unlocked("LazyScene sweep (obstructed path)");
    let p_pos = graph.scene.position(p);
    let q_pos = graph.scene.position(q);
    let euclid = p_pos.dist(q_pos);
    if euclid == 0.0 {
        return Some(PathResult {
            distance: 0.0,
            points: vec![p_pos, q_pos],
        });
    }

    // MBR lower bound on `|x−p| + |x−q|` over an obstacle's rectangle:
    // the R-tree absorption predicate. A bound ≤ d is necessary for the
    // obstacle to intersect the ellipse of size d, so absorbing every
    // such obstacle certifies the region.
    let bound = |r: &Rect| r.mindist_point(p_pos) + r.mindist_point(q_pos);
    // Prefetch margin beyond the certified region, seeded at a couple of
    // typical obstacle diameters — the detour overhead a dense scene
    // imposes — and doubled (or raised to the observed overhead)
    // whenever certification fails, so the region overshoots the true
    // distance after one or two rounds in practice and O(log) rounds in
    // the worst case. Absorbing a modestly larger region is cheap (pure
    // classification bookkeeping, no edges); a cache-cold A* rerun is
    // not.
    let universe = universe_of(obstacles, &[]);
    let typical_diag = (universe.area() / obstacles.len().max(1) as f64).sqrt();
    let mut prefetch = (2.0 * typical_diag).max(1e-3 * euclid);
    // Every absorbed obstacle has MBR bound ≤ t, hence `mindist(MBR, q)
    // ≤ t` (the ellipse bound dominates the disk bound) — so the disk
    // around `q` of radius t, boxed, certifies the round for epoch
    // validation.
    graph.note_region(Rect::from_point(q_pos).expanded(euclid + prefetch));
    graph.absorb(
        obstacles,
        obstacles
            .tree()
            .range_by_bound(&bound, euclid + prefetch)
            .into_iter()
            .map(|(item, _)| item),
    );
    loop {
        let path = graph.scene.astar(p, q)?;
        let d = path.distance;
        debug_assert!(d >= euclid - 1e-9 * euclid);

        // `range_by_bound` returns each item's bound score, computed once
        // during the tree descent — the certification test below reuses it
        // instead of re-evaluating the closure per obstacle.
        let fresh: Vec<(obstacle_rtree::Item, f64)> = obstacles
            .tree()
            .range_by_bound(&bound, d + prefetch)
            .into_iter()
            .filter(|(item, _)| !graph.present.contains(&item.id))
            .collect();
        if fresh.iter().all(|&(_, b)| b > d) {
            // Every obstacle inside the certified region of size `d` is
            // already in the scene: `d` is exact. The prefetched
            // leftovers (bound in (d, d+prefetch]) are deliberately not
            // absorbed — the scene stays cache-warm for the next query.
            return Some(path);
        }
        graph.note_region(Rect::from_point(q_pos).expanded(d + prefetch));
        graph.absorb(obstacles, fresh.into_iter().map(|(item, _)| item));
        prefetch = (d - euclid).max(prefetch * 2.0);
    }
}

/// The OR step of Fig. 5, shared by the range query and every ODJ seed
/// (§5, Fig. 10): the `targets` within obstructed distance `e` of `q`.
///
/// `q` and the targets are added to `graph` as waypoints. Unlike the
/// point-to-point fixpoint of [`compute_obstructed_path`], the certified
/// region is known up front: any path of length ≤ `e` from `q` stays
/// inside the disk of radius `e`, so a single R-tree range absorbs every
/// obstacle that can influence the result. One bounded Dijkstra
/// expansion then settles nodes in ascending obstructed distance,
/// sweeping only from nodes it actually pops (see
/// [`LazyScene::bounded_expansion`]).
///
/// Returns the settled targets as `(tag, distance)`, ascending
/// (unreachable and out-of-range targets are omitted), and the scene's
/// node count while the waypoints are present: the query's
/// `peak_graph_nodes`. The waypoints are removed again before returning,
/// so a reused `graph` keeps only obstacles and cached sweeps.
pub fn compute_obstructed_range(
    graph: &mut LocalGraph,
    q: Point,
    targets: impl IntoIterator<Item = (Point, u64)>,
    obstacles: &ObstacleIndex,
    e: f64,
) -> (Vec<(u64, f64)>, usize) {
    obstacle_rtree::sync::assert_unlocked("LazyScene sweep (obstructed range)");
    let q_node = graph.add_waypoint(q, QUERY_TAG);
    let targets: Vec<NodeId> = targets
        .into_iter()
        .map(|(p, tag)| graph.add_waypoint(p, tag))
        .collect();
    let items = obstacles.tree().range_circle(q, e);
    graph.note_region(Rect::from_point(q).expanded(e));
    graph.absorb(obstacles, items);
    // A fresh vector, not an in-place collect of `settled`: the two
    // element types share a layout, so collecting in place would keep
    // every settled node's capacity alive in the caller's result.
    let mut hits = Vec::new();
    for (node, d) in graph.scene.bounded_expansion(q_node, e, &targets) {
        match graph.scene.kind(node) {
            NodeKind::Waypoint { tag } if node != q_node => hits.push((tag, d)),
            _ => {}
        }
    }
    let nodes = graph.scene.node_count();
    for t in targets {
        graph.remove_waypoint(t);
    }
    graph.remove_waypoint(q_node);
    (hits, nodes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use obstacle_geom::Polygon;
    use obstacle_rtree::RTreeConfig;

    fn square(x0: f64, y0: f64, x1: f64, y1: f64) -> Polygon {
        Polygon::from_rect(Rect::from_coords(x0, y0, x1, y1))
    }

    fn dist_through(obstacles: Vec<Polygon>, a: Point, b: Point) -> Option<f64> {
        let idx = ObstacleIndex::build(RTreeConfig::tiny(8), obstacles);
        let mut g = LocalGraph::new(EdgeBuilder::RotationalSweep);
        let pa = g.add_waypoint(a, 0);
        let pb = g.add_waypoint(b, QUERY_TAG);
        compute_obstructed_distance(&mut g, pa, pb, &idx)
    }

    #[test]
    fn no_obstacles_gives_euclidean() {
        let d = dist_through(vec![], Point::new(0.0, 0.0), Point::new(3.0, 4.0));
        assert_eq!(d, Some(5.0));
    }

    #[test]
    fn detour_around_one_square() {
        let d = dist_through(
            vec![square(1.0, -1.0, 2.0, 1.0)],
            Point::new(0.0, 0.0),
            Point::new(3.0, 0.0),
        )
        .unwrap();
        let expect = 2.0 * 2.0f64.sqrt() + 1.0;
        assert!((d - expect).abs() < 1e-9);
    }

    #[test]
    fn far_obstacle_discovered_by_second_range() {
        // The initial range (of size the Euclidean distance) does not
        // include the big wall that blocks the direct path near p; the
        // iterative re-ranging must find it.
        //
        // q at origin, p at (2, 0); a tall wall crosses the segment at
        // x ∈ (1.4, 1.6) but extends far in y so the detour is long.
        let wall = square(1.4, -5.0, 1.6, 5.0);
        let d = dist_through(vec![wall], Point::new(2.0, 0.0), Point::new(0.0, 0.0)).unwrap();
        // Detour via (1.4, 5) / (1.6, 5) corners (or the -5 twins).
        let via_top = Point::new(0.0, 0.0).dist(Point::new(1.4, 5.0))
            + 0.2
            + Point::new(1.6, 5.0).dist(Point::new(2.0, 0.0));
        assert!((d - via_top).abs() < 1e-9, "{d} vs {via_top}");
        assert!(d > 2.0); // strictly longer than Euclidean
    }

    #[test]
    fn chain_of_walls_requires_multiple_iterations() {
        // Each detour reveals the next wall: forces ≥ 2 expansion rounds.
        let walls = vec![
            square(1.0, -2.0, 1.2, 2.0),
            square(2.0, -3.0, 2.2, 3.0),
            square(3.0, -4.5, 3.2, 4.5),
        ];
        let a = Point::new(0.0, 0.0);
        let b = Point::new(4.0, 0.0);
        let d = dist_through(walls.clone(), a, b).unwrap();
        // Verify against the full (global) graph distance.
        let (full, wps) = obstacle_visibility::VisibilityGraph::build(
            walls.into_iter().enumerate().map(|(i, p)| (p, i as u64)),
            [(a, 0), (b, 1)],
        );
        let expect = obstacle_visibility::dijkstra_distance(&full, wps[0], wps[1]).unwrap();
        assert!((d - expect).abs() < 1e-9, "{d} vs {expect}");
    }

    #[test]
    fn unreachable_inside_obstacle() {
        let d = dist_through(
            vec![square(0.0, 0.0, 1.0, 1.0)],
            Point::new(0.5, 0.5), // strictly inside
            Point::new(2.0, 2.0),
        );
        assert_eq!(d, None);
    }

    #[test]
    fn unreachable_target_inside_far_obstacle() {
        // The obstacle containing the *target* is absorbed by the very
        // first range (its MBR contains a focus), so the failure is
        // detected without any rescue phase.
        let d = dist_through(
            vec![square(10.0, 10.0, 11.0, 11.0)],
            Point::new(0.0, 0.0),
            Point::new(10.5, 10.5),
        );
        assert_eq!(d, None);
    }

    #[test]
    fn distance_is_at_least_euclidean_and_zero_on_self() {
        let obs = vec![square(0.2, 0.2, 0.4, 0.3), square(0.6, 0.5, 0.7, 0.9)];
        let a = Point::new(0.1, 0.1);
        let b = Point::new(0.9, 0.9);
        let d = dist_through(obs.clone(), a, b).unwrap();
        assert!(d >= a.dist(b) - 1e-12);
        assert_eq!(dist_through(obs, a, a), Some(0.0));
    }

    #[test]
    fn graph_reuse_across_computations() {
        let idx = ObstacleIndex::build(
            RTreeConfig::tiny(8),
            vec![square(1.0, -1.0, 2.0, 1.0), square(4.0, -1.0, 5.0, 1.0)],
        );
        let mut g = LocalGraph::new(EdgeBuilder::RotationalSweep);
        let q = g.add_waypoint(Point::new(0.0, 0.0), QUERY_TAG);

        let p1 = g.add_waypoint(Point::new(3.0, 0.0), 1);
        let d1 = compute_obstructed_distance(&mut g, p1, q, &idx).unwrap();
        g.remove_waypoint(p1);
        let obstacles_after_first = g.obstacle_count();
        let sweeps_after_first = g.scene.sweep_count();

        let p2 = g.add_waypoint(Point::new(3.0, 0.0), 2);
        let d2 = compute_obstructed_distance(&mut g, p2, q, &idx).unwrap();
        g.remove_waypoint(p2);

        assert!((d1 - d2).abs() < 1e-12, "reuse must not change results");
        assert_eq!(
            g.obstacle_count(),
            obstacles_after_first,
            "second identical computation adds no obstacles"
        );
        assert!(
            g.scene.sweep_count() <= sweeps_after_first + 2,
            "cached sweeps must be reused: {} then {}",
            sweeps_after_first,
            g.scene.sweep_count()
        );
        assert!(g.scene.validate(true).is_ok());
    }
}
