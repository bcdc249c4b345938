//! Lazy A*-guided visibility search.
//!
//! Materializing every visibility edge of a local graph of `n` obstacles
//! costs Θ(n² log n) even when the query only ever walks a thin corridor
//! of it: for *point-to-point* distances most of those edges are never
//! relaxed.
//!
//! In a [`LazyScene`] obstacles are registered **without any edge
//! computation** (only the pivot-independent point classifications of
//! `sweep::classify` are maintained), and successor edges come into
//! existence on demand — when A\* pops a node from its frontier, *then*
//! one rotational sweep from that node computes its visible set. Guided
//! by the Euclidean heuristic (admissible and consistent, since
//! `d_E ≤ d_O` and edge weights are Euclidean lengths),
//! A\* settles only nodes whose `g + h` does not exceed the obstructed
//! distance — the nodes inside the ellipse with foci at the endpoints and
//! major axis `d_O(p, q)` — so the number of sweeps is proportional to the
//! corridor the path actually explores, not to the scene.
//!
//! Four further refinements keep each sweep *local*:
//!
//! * sweeps are **windowed and wedge-refined**: a base sweep covers only
//!   the obstacles within a few mean obstacle diameters of the pivot and
//!   reports the *horizon arcs* it could not certify as blocked; each
//!   open arc is then re-swept independently over just the obstacles in
//!   its angular wedge at geometrically growing radius, until it closes
//!   or provably faces no farther scene obstacle (sight lines from a
//!   pivot are radial, so wedge-local blockers are sufficient). A street
//!   canyon costs a few thin wedge sweeps instead of a scene-wide one;
//! * successor lists are cached per node and revalidated geometrically
//!   when the scene grows: a list survives unless a new obstacle entered
//!   its base window or a refined horizon arc. Repeated searches — the
//!   fixpoint iterations of Fig. 8, or consecutive candidates of an ONN
//!   query — therefore pay each sweep once;
//! * successor generation has a **reach**, which is what makes the other
//!   two local: a list is certified only as far as the search can still
//!   use (the paper's "a path of length ≤ `e` never leaves the disk of
//!   radius `e`", applied to edges and not just to which obstacles are
//!   registered). The base window shrinks to the reach, arcs certified
//!   that far stay *pending*, and a later search that needs more resumes
//!   exactly those. A sweep's cost follows the remaining budget
//!   ([`LazyScene::bounded_expansion`]) or heuristic distance
//!   ([`LazyScene::astar`]), not the extent of a resident scene;
//! * the graph is the **tangent visibility graph** (Wang, *Shortest
//!   Paths Among Obstacles in the Plane Revisited*): an edge between two
//!   obstacle vertices is listed only if its line is [`tangent_at`] both
//!   ends, and a convex vertex sweeps only its **tangent cone** (2 × 90°
//!   of 360° at a rectangle corner), so its horizon arcs and pending
//!   refinements cover cone arcs only. Distances and paths between
//!   waypoints are those of the full visibility graph.

use crate::dijkstra::PathResult;
use crate::graph::{NodeId, NodeKind, ObstacleId};
use crate::sweep::{self, PointClass};
use obstacle_geom::{
    orient2d, pseudo_angle, OrdF64, Orientation, PackedIndex, Point, Polygon, Rect, Segment,
};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Which algorithm computes a [`LazyScene`] node's successors.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum EdgeBuilder {
    /// Pairwise checks against every obstacle: O(n·m) per node, where m is
    /// the total number of obstacle edges, keeping the same tangent edges
    /// as the sweep. The ablation / oracle arm.
    Naive,
    /// Rotational plane sweep \[SS84\]: O(n log n) per node. The builder
    /// used by the paper (and by default here).
    #[default]
    RotationalSweep,
}

/// Deterministic total order on node *positions*, used as the frontier
/// tie-break ahead of the node id. Exact key ties (two equal-length
/// shortest paths on a symmetric scene) then resolve by geometry rather
/// than by insertion order, so search results are identical between a
/// fresh scene and a reused one whose node numbering differs — the
/// invariant the cross-query scene cache of `obstacle_core::batch`
/// relies on. (Raw bit patterns are not a geometric order; they are just
/// a stable one, which is all a tie-break needs.)
fn pos_key(p: Point) -> (u64, u64) {
    (p.x.to_bits(), p.y.to_bits())
}

/// Min-frontier over `(key, position tie-break, node id)` used by both
/// search loops.
type Frontier = BinaryHeap<Reverse<(OrdF64, (u64, u64), u32)>>;

/// Frontier tag of an A\* *continuation* entry (see
/// [`LazyScene::astar`]). Node ids share the frontier's `u32` with it,
/// so a scene holds fewer than `CONTINUATION` node slots.
const CONTINUATION: u32 = 1 << 31;

/// A scene has no id for the node slot asked for (the field): it would
/// collide with the frontier's continuation tag, or not fit a `u32`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SceneFull(pub usize);

impl std::fmt::Display for SceneFull {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "scene full: node slot {} is past the last id", self.0)
    }
}

impl std::error::Error for SceneFull {}

/// The id of node slot `slot`, or [`SceneFull`] beyond the untagged range.
fn node_id(slot: usize) -> Result<NodeId, SceneFull> {
    match u32::try_from(slot) {
        Ok(id) if id & CONTINUATION == 0 => Ok(NodeId(id)),
        _ => Err(SceneFull(slot)),
    }
}

#[derive(Clone, Debug)]
struct LazyNode {
    pos: Point,
    kind: NodeKind,
    alive: bool,
    /// Pivot-independent classification; maintained for waypoints only
    /// (obstacle-vertex classifications live in `vertex_class` so sweeps
    /// can borrow them as slices).
    class: PointClass,
}

/// Trust metadata for one horizon arc the base sweep left open: within
/// the CCW arc `(a0, a1)` (pseudo-angle units) refinement has looked at
/// most `r` far, so an obstacle added nearer than that invalidates the
/// list. Beyond `r`, each part of the arc is either *closed* (a wedge
/// sweep certified a blocking edge: nothing farther is visible, whatever
/// is added), *pending* (refinement stopped at the reach asked for: the
/// list claims nothing farther), or faces no scene obstacle at all — then
/// the arc is `open`, and *any* new obstacle in it invalidates the list.
#[derive(Clone, Copy, Debug)]
struct ArcTrust {
    a0: f64,
    a1: f64,
    r: f64,
    open: bool,
}

/// One unit of wedge refinement: the CCW arc `(a0, a1)` (never wrapping
/// past the +x axis, so the ranged sweep can use plain angular order),
/// certified but not closed out to `r`, part of horizon arc `root`.
type WedgeItem = (f64, f64, f64, usize);

/// Queues the arc `(a0, a1)` for refinement, split at the +x axis if it
/// wraps. A zero-width arc (collapsed by clamping) has nothing to refine;
/// full-circle arcs arrive normalized to `(0, 4)`.
fn push_split(work: &mut Vec<WedgeItem>, a0: f64, a1: f64, r: f64, root: usize) {
    if a0 < a1 {
        work.push((a0, a1, r, root));
    } else if a0 > a1 {
        work.push((a0, 4.0, r, root));
        work.push((0.0, a1, r, root));
    }
}

/// The open arcs of a sweep (one per pair of consecutive event rays)
/// with runs of adjacent ones joined: one wedge, one sweep, instead of
/// one per ray. All of them open joins up to the full circle `(a, a)`.
fn joined(open: &[(f64, f64)]) -> Vec<(f64, f64)> {
    let mut arcs: Vec<(f64, f64)> = Vec::with_capacity(open.len());
    for &(a0, a1) in open {
        match arcs.last_mut() {
            Some(last) if last.1 == a0 && last.0 != last.1 => last.1 = a1,
            _ => arcs.push((a0, a1)),
        }
    }
    arcs
}

/// Cached successor list of one node: obstacle vertices visible from it,
/// with Euclidean edge weights; *complete* out to [`CacheSlot::reach`].
#[derive(Clone, Debug, Default)]
struct CacheSlot {
    /// Obstacle count of the scene the list was last valid for (`None` =
    /// never computed). A list computed against fewer obstacles can
    /// survive scene growth: it stays valid as long as no later obstacle
    /// enters the base window or a refined horizon arc.
    n_obs: Option<usize>,
    /// Base window radius, certified in every direction: a few mean
    /// diagonals or the reach first asked for; `f64::INFINITY` = the
    /// window held the whole scene.
    radius: f64,
    /// The horizon arcs the base sweep left open, as refined so far.
    arcs: Vec<ArcTrust>,
    /// Wedge refinements not done because their arc was already certified
    /// to the reach asked for; a search that needs more resumes them.
    pending: Vec<WedgeItem>,
    succ: Vec<(NodeId, f64)>,
}

impl CacheSlot {
    /// What the list certifies: every scene vertex visible from the node
    /// within this distance is in `succ`.
    fn reach(&self) -> f64 {
        self.pending
            .iter()
            .fold(f64::INFINITY, |r, item| r.min(item.2))
    }
}

/// Angular padding (pseudo-angle units) for conservative wedge overlap
/// tests: a false overlap only grows a window, never breaks soundness.
const ARC_PAD: f64 = 1e-7;

/// CCW length of an arc, treating a degenerate `(a, a)` arc as the full
/// circle (a single event group's wrap-around arc spans the whole
/// rotation).
fn arc_len(arc: (f64, f64)) -> f64 {
    let l = (arc.1 - arc.0).rem_euclid(4.0);
    if l == 0.0 {
        4.0
    } else {
        l
    }
}

/// Whether the CCW arc and the CCW span (both in pseudo-angle units)
/// overlap on the circle (conservatively padded).
fn arc_overlap(arc: (f64, f64), span: (f64, f64)) -> bool {
    let len = arc_len(arc);
    let span_len = span.1 - span.0; // ≥ 0, < 2 by construction
    let off = (span.0 - arc.0).rem_euclid(4.0);
    off <= len + ARC_PAD || off + span_len >= 4.0 - ARC_PAD
}

/// Angular span of `rect` as seen from `pivot`, as a CCW pseudo-angle
/// interval; `None` means "treat as the full circle" (pivot inside or
/// touching the rectangle, or a span too wide to bound reliably).
fn rect_span(pivot: Point, rect: &Rect) -> Option<(f64, f64)> {
    if rect.contains_point(pivot) {
        return None;
    }
    let corners = rect.corners();
    let base = pseudo_angle(corners[0].x - pivot.x, corners[0].y - pivot.y);
    let mut lo = 0.0f64;
    let mut hi = 0.0f64;
    for c in &corners[1..] {
        let a = pseudo_angle(c.x - pivot.x, c.y - pivot.y);
        let mut d = (a - base).rem_euclid(4.0);
        if d > 2.0 {
            d -= 4.0;
        }
        lo = lo.min(d);
        hi = hi.max(d);
    }
    if hi - lo >= 2.0 {
        return None; // ≥ half a turn: pivot effectively enclosed
    }
    Some((base + lo, base + hi))
}

/// Whether `rect`, seen from `pivot`, may overlap the CCW pseudo-angle
/// interval `range` (conservative: true when its span is unbounded).
fn in_wedge(pivot: Point, rect: &Rect, range: (f64, f64)) -> bool {
    rect_span(pivot, rect).is_none_or(|span| arc_overlap(range, span))
}

/// Whether the line through `x` and vertex `vertex` of `poly` is tangent
/// to `poly` there: the vertex's two neighbours are not strictly on
/// opposite sides of it. Collinear counts (a line along a wall or through
/// collinear corners, or `x` at the vertex). A [`LazyScene`] lists an
/// edge between obstacle vertices only if it is tangent at both ends; a
/// [`VisibilityGraph`](crate::VisibilityGraph) filtered by the same rule
/// is its oracle.
///
/// No shortest path between waypoints needs another edge, touching or
/// overlapping obstacles included. A path bends at `p` only if some
/// obstacle interior lies in its inner wedge (under 180°) arbitrarily
/// close to `p`. That obstacle meets neither segment, so its interior
/// wedge at `p` lies inside the inner wedge: `p` is one of its convex
/// vertices, both segment lines are tangent there, and its node at `p`
/// survives the filter, whatever other nodes at `p` do. An obstacle that
/// meets `p` mid-edge has a half-plane there, which cannot fit the inner
/// wedge. A straight run through a vertex is tangent there, or blocked.
pub fn tangent_at(poly: &Polygon, vertex: usize, x: Point) -> bool {
    let vs = poly.vertices();
    let n = vs.len();
    let v = vs[vertex];
    let prev = orient2d(x, v, vs[(vertex + n - 1) % n]);
    let next = orient2d(x, v, vs[(vertex + 1) % n]);
    !matches!(
        (prev, next),
        (Orientation::CounterClockwise, Orientation::Clockwise)
            | (Orientation::Clockwise, Orientation::CounterClockwise)
    )
}

/// The directions a tangent edge can leave vertex `vertex` of `poly` by,
/// as disjoint non-wrapping pseudo-angle ranges in ascending order, each
/// padded outward by [`ARC_PAD`]; empty means the full circle.
///
/// At a strictly convex vertex `v` with `e1 = next − v` and `e2 = prev −
/// v`, the interior wedge runs CCW from `e1` to `e2` (angle `α`). The
/// tangent directions are the CCW arcs `e2 → −e1` and `−e2 → e1`, each
/// `180° − α` wide: 2 × 90° of 360° at a rectangle corner. The interior
/// wedge and its opposite hold no tangent direction. A reflex or exactly
/// collinear vertex (`α ≥ 180°`) gets the full circle.
fn tangent_cone(poly: &Polygon, vertex: usize) -> Vec<(f64, f64)> {
    let vs = poly.vertices();
    let n = vs.len();
    let (v, prev, next) = (vs[vertex], vs[(vertex + n - 1) % n], vs[(vertex + 1) % n]);
    if orient2d(prev, v, next) != Orientation::CounterClockwise {
        return Vec::new();
    }
    let key = |d: Point| pseudo_angle(d.x, d.y);
    let mut cone = Vec::with_capacity(4);
    // (e2 → −e1) and (−e2 → e1); −e1 = v − next, −e2 = v − prev.
    for (from, to) in [(prev - v, v - next), (v - prev, next - v)] {
        let a0 = (key(from) - ARC_PAD).rem_euclid(4.0);
        let a1 = (key(to) + ARC_PAD).rem_euclid(4.0);
        if a0 <= a1 {
            cone.push((a0, a1));
        } else {
            cone.extend([(a0, 4.0), (0.0, a1)]);
        }
    }
    cone.sort_by(|a, b| a.0.total_cmp(&b.0));
    // Padding overlaps the arcs of a needle-thin vertex: merge them.
    cone.dedup_by(|next, kept| {
        let overlap = next.0 <= kept.1;
        kept.1 = if overlap { kept.1.max(next.1) } else { kept.1 };
        overlap
    });
    cone
}

/// Fan-out of a scene's obstacle index.
const GRID_FAN: usize = 8;

/// A scene of obstacles and waypoints supporting lazy A\* shortest-path
/// queries (see the module docs).
///
/// Obstacle vertices are permanent, waypoints support add/remove. There
/// is no adjacency structure to maintain — `add_obstacle` is O(|scene|)
/// for the classification updates and nothing else.
#[derive(Clone, Debug, Default)]
pub struct LazyScene {
    builder: EdgeBuilder,
    polys: Vec<Polygon>,
    tags: Vec<u64>,
    /// Obstacle bounding boxes (parallel to `polys`): the window
    /// selection and cache-invalidation geometry.
    rects: Vec<Rect>,
    /// Sum of bbox diagonals — `sum_diag / len` seeds window radii.
    sum_diag: f64,
    /// Per-obstacle, per-vertex classifications (parallel to `polys`).
    vertex_class: Vec<Vec<PointClass>>,
    /// Node ids of each obstacle's vertices, in polygon order.
    vertex_nodes: Vec<Vec<NodeId>>,
    nodes: Vec<LazyNode>,
    /// Number of `nodes` that are alive.
    live: usize,
    /// Successor list per node slot (parallel to `nodes`).
    cache: Vec<CacheSlot>,
    sweeps: usize,
    /// Static packed index over `rects` (ids = obstacle index), repacked
    /// by `ensure_grid` once the scene has grown: window and wedge
    /// candidates and indexed visibility without scanning the scene.
    grid: PackedIndex,
}

impl LazyScene {
    /// Creates an empty scene computing successors with `builder`.
    pub fn new(builder: EdgeBuilder) -> Self {
        LazyScene {
            builder,
            ..Default::default()
        }
    }

    /// The successor builder in use.
    pub fn builder(&self) -> EdgeBuilder {
        self.builder
    }

    /// Number of live nodes (obstacle vertices plus live waypoints).
    pub fn node_count(&self) -> usize {
        self.live
    }

    /// Total node slots ever allocated, dead waypoints included. Search
    /// working arrays are sized by this, so a long-lived scene with heavy
    /// waypoint churn (a cross-query scene cache) should be retired once
    /// slots dwarf [`LazyScene::node_count`].
    pub fn node_slots(&self) -> usize {
        self.nodes.len()
    }

    /// Number of obstacles.
    pub fn obstacle_count(&self) -> usize {
        self.polys.len()
    }

    /// Position of a node.
    pub fn position(&self, id: NodeId) -> Point {
        self.nodes[id.0 as usize].pos
    }

    /// Kind of a node.
    pub fn kind(&self, id: NodeId) -> NodeKind {
        self.nodes[id.0 as usize].kind
    }

    /// Total visibility computations (sweeps or naive scans) performed so
    /// far — the dominant cost of lazy search; exposed for benchmarks and
    /// the laziness regression tests.
    pub fn sweep_count(&self) -> usize {
        self.sweeps
    }

    /// Iterator over obstacles as `(id, tag, polygon)`.
    pub fn obstacles(&self) -> impl Iterator<Item = (ObstacleId, u64, &Polygon)> {
        self.polys
            .iter()
            .enumerate()
            .map(|(i, p)| (ObstacleId(i as u32), self.tags[i], p))
    }

    /// Registers an obstacle. O(|scene|) classification bookkeeping, no
    /// edge computation. Panics with [`SceneFull`]'s message, before
    /// changing anything, if its vertices do not fit the node-id range.
    pub fn add_obstacle(&mut self, poly: Polygon, tag: u64) -> ObstacleId {
        if let Err(full) = node_id((self.nodes.len() + poly.len()).saturating_sub(1)) {
            panic!("{full}");
        }
        let new_idx = self.polys.len();

        // The newcomer may add boundary attachments (or interior
        // containment) to every existing classification.
        for (slot, poly_slot) in self.vertex_class.iter_mut().zip(&self.polys) {
            for (vi, class) in slot.iter_mut().enumerate() {
                sweep::classify_incremental(class, new_idx, &poly, poly_slot.vertices()[vi]);
            }
        }
        for node in &mut self.nodes {
            if node.alive && matches!(node.kind, NodeKind::Waypoint { .. }) {
                sweep::classify_incremental(&mut node.class, new_idx, &poly, node.pos);
            }
        }

        // Classify the new vertices against the complete scene (itself
        // included) and register their nodes.
        let ob_id = ObstacleId(new_idx as u32);
        let scene: Vec<&Polygon> = self.polys.iter().collect();
        let vertex_class: Vec<PointClass> = poly
            .vertices()
            .iter()
            .map(|&v| {
                let mut c = sweep::classify(&scene, v);
                sweep::classify_incremental(&mut c, new_idx, &poly, v);
                c
            })
            .collect();
        drop(scene);
        let mut node_ids = Vec::with_capacity(poly.len());
        for (vi, &v) in poly.vertices().iter().enumerate() {
            node_ids.push(self.push_raw_node(
                v,
                NodeKind::ObstacleVertex {
                    obstacle: ob_id,
                    vertex: vi as u32,
                },
                PointClass::default(),
            ));
        }
        self.vertex_class.push(vertex_class);
        self.vertex_nodes.push(node_ids);
        let bbox = poly.bbox();
        self.sum_diag += bbox.min.dist(bbox.max);
        self.rects.push(bbox);
        self.polys.push(poly);
        self.tags.push(tag);
        ob_id
    }

    /// Adds a free waypoint (query point or entity) and returns its node
    /// id. O(|scene|) for the classification; no edges are computed.
    /// Panics with [`SceneFull`]'s message if the scene is full.
    pub fn add_waypoint(&mut self, pos: Point, tag: u64) -> NodeId {
        let scene: Vec<&Polygon> = self.polys.iter().collect();
        let class = sweep::classify(&scene, pos);
        drop(scene);
        self.push_raw_node(pos, NodeKind::Waypoint { tag }, class)
    }

    /// Removes a waypoint. Panics if `id` is an obstacle vertex. Cached
    /// successor lists of other nodes are unaffected (they never contain
    /// waypoints).
    pub fn remove_waypoint(&mut self, id: NodeId) {
        let node = &mut self.nodes[id.0 as usize];
        assert!(
            matches!(node.kind, NodeKind::Waypoint { .. }),
            "remove_waypoint on an obstacle vertex"
        );
        self.live -= usize::from(node.alive);
        node.alive = false;
        self.cache[id.0 as usize] = CacheSlot::default();
    }

    /// Whether the straight segment `a`–`b` crosses no obstacle interior
    /// (the authoritative pairwise test, identical to
    /// [`VisibilityGraph::visible_naive`](crate::VisibilityGraph::visible_naive)).
    pub fn visible(&self, a: Point, b: Point) -> bool {
        if a == b {
            return true;
        }
        let s = Segment::new(a, b);
        !self.polys.iter().any(|p| p.blocks_segment(s))
    }

    /// [`LazyScene::visible`] through the obstacle index: only obstacles whose
    /// MBR meets the segment's bounding box are tested exactly, so the
    /// cost tracks the segment's neighbourhood rather than the scene —
    /// the difference matters once a long-lived scene (a cross-query
    /// cache) has absorbed far more obstacles than any one query touches.
    fn visible_indexed(&mut self, a: Point, b: Point) -> bool {
        if a == b {
            return true;
        }
        self.ensure_grid();
        let s = Segment::new(a, b);
        let sb = Rect::new(a, b);
        let mut blocked = false;
        self.grid.search(
            |mbr| mbr.intersects(&sb).then_some(()),
            |oi, _, ()| {
                blocked = self.polys[oi as usize].blocks_segment(s);
                blocked
            },
        );
        !blocked
    }

    /// A\* shortest path from `from` to `to` over the current scene, or
    /// `None` when unreachable.
    ///
    /// Unreachability over a *partial* scene is definitive for every
    /// superset: by \[LW79\] the visibility graph over a scene (all of its
    /// obstacle vertices present) connects two free points exactly when
    /// the scene's free space does, and adding obstacles only removes
    /// free space. Callers growing a scene to the Fig. 8 fixpoint may
    /// therefore stop at the first failed search.
    ///
    /// The search is *partial-expansion* A\*. A popped node `u` is
    /// expanded only to a reach `ρ` a little past `h(u)`; while its list
    /// is incomplete it re-enters the frontier as a *continuation*, keyed
    /// by a lower bound on the `f` of every successor not generated yet:
    /// such a `v` has `|uv| > ρ` and `h(v) ≥ |uv| − h(u)`, so `f(v) ≥
    /// g(u) + max(h(u), 2ρ − h(u))`. A continuation that pops doubles its
    /// node's reach; most never do, because the target closes first. The
    /// bound is strict (rounded down), so nodes close in exactly the
    /// order full expansion closes them; only the order their edges are
    /// *generated* in differs, so an equal-length tie goes to the
    /// predecessor that closed first — the one full expansion keeps.
    ///
    /// No path of finite length reaches a point at ±∞ or NaN, so an
    /// endpoint with a non-finite coordinate is unreachable.
    pub fn astar(&mut self, from: NodeId, to: NodeId) -> Option<PathResult> {
        let fp = self.nodes[from.0 as usize].pos;
        let tp = self.nodes[to.0 as usize].pos;
        if from == to {
            return Some(PathResult {
                distance: 0.0,
                points: vec![fp],
            });
        }
        if !(fp.is_finite() && tp.is_finite()) {
            return None;
        }

        // Edges *into* the target. Vertex successor lists only contain
        // obstacle vertices, so a waypoint target needs its own (cached)
        // sweep: visibility is symmetric, so the nodes that see `to` are
        // those `to` sees — out to the farthest `h(u)` asked about so
        // far. A vertex target is already covered.
        let n = self.nodes.len();
        let ti = to.0 as usize;
        let target_is_waypoint = matches!(self.nodes[ti].kind, NodeKind::Waypoint { .. });
        let mut to_target = vec![false; n];
        let mut target_reach = f64::NEG_INFINITY;
        if target_is_waypoint
            && matches!(self.nodes[from.0 as usize].kind, NodeKind::Waypoint { .. })
        {
            // Waypoint-to-waypoint: the one edge no sweep reports.
            to_target[from.0 as usize] = self.visible_indexed(fp, tp);
        }
        let min_reach = 2.0 * self.mean_diag();

        let mut g = vec![f64::INFINITY; n];
        let mut pred = vec![u32::MAX; n];
        // Position in the closing order (`u32::MAX` = still open).
        let mut closed_at = vec![u32::MAX; n];
        let mut closings = 0u32;
        let mut heap: Frontier = BinaryHeap::new();
        g[from.0 as usize] = 0.0;
        pred[from.0 as usize] = from.0; // closes first: no tie replaces it
        heap.push(Reverse((OrdF64(fp.dist(tp)), pos_key(fp), from.0)));

        while let Some(Reverse((_, _, entry))) = heap.pop() {
            let u = entry & !CONTINUATION;
            let ui = u as usize;
            let resumed = entry != u;
            if !resumed {
                if closed_at[ui] != u32::MAX {
                    continue; // stale frontier entry
                }
                closed_at[ui] = closings;
                closings += 1;
                if u == to.0 {
                    break;
                }
            }
            let up = self.nodes[ui].pos;
            let h = up.dist(tp);
            if target_is_waypoint && target_reach < h {
                self.ensure_successors(to, h);
                for &(v, _) in &self.cache[ti].succ {
                    to_target[v.0 as usize] = true;
                }
                target_reach = self.cache[ti].reach();
            }
            // A little past h(u): at h(u) exactly the continuation's bound
            // would be f(u) itself, and it would pop at once.
            let reach = if resumed {
                2.0 * self.cache[ui].reach()
            } else {
                (1.1 * h).max(min_reach)
            };
            self.ensure_successors(NodeId(u), reach);

            let gu = g[ui];
            let nodes = &self.nodes;
            let mut relax = |v: u32, nd: f64, key: f64| {
                let vi = v as usize;
                if nd < g[vi] {
                    g[vi] = nd;
                    pred[vi] = u;
                    heap.push(Reverse((OrdF64(key), pos_key(nodes[vi].pos), v)));
                } else if nd == g[vi] && closed_at[ui] < closed_at[pred[vi] as usize] {
                    pred[vi] = u; // generated late, closed first
                }
            };
            for &(v, w) in &self.cache[ui].succ {
                let nd = gu + w;
                relax(v.0, nd, nd + nodes[v.0 as usize].pos.dist(tp));
            }
            if to_target[ui] {
                let nd = gu + h;
                relax(to.0, nd, nd);
            }

            let rho = self.cache[ui].reach();
            if rho.is_finite() {
                // Rounded down: the key must not exceed any computed
                // `f(v)` it stands in for.
                let bound = (gu + h.max(2.0 * rho - h)) * (1.0 - 1e-12);
                heap.push(Reverse((OrdF64(bound), pos_key(up), u | CONTINUATION)));
            }
        }

        if g[ti].is_infinite() {
            return None;
        }
        let mut points = vec![tp];
        let mut cur = to.0;
        while cur != from.0 {
            cur = pred[cur as usize];
            debug_assert_ne!(cur, u32::MAX);
            points.push(self.nodes[cur as usize].pos);
        }
        points.reverse();
        Some(PathResult {
            distance: g[ti],
            points,
        })
    }

    /// A\* distance only (see [`LazyScene::astar`]).
    pub fn astar_distance(&mut self, from: NodeId, to: NodeId) -> Option<f64> {
        self.astar(from, to).map(|p| p.distance)
    }

    /// All of `targets` (plus any obstacle vertices settled on the way)
    /// within obstructed distance `radius` of `from`, reported as
    /// `(node, distance)` in ascending distance order — the lazy
    /// counterpart of [`bounded_expansion`](crate::bounded_expansion)
    /// over a materialized graph, and the engine of the OR range query.
    ///
    /// Waypoint distances are exact obstructed distances. An obstacle
    /// vertex is reported at its distance over the *tangent* visibility
    /// graph (module docs): one reached only through non-tangent edges
    /// settles later, or not at all. OR and ODJ read only waypoints.
    ///
    /// The caller must have absorbed every obstacle intersecting the disk
    /// of radius `radius` around `from` (a single R-tree range does it:
    /// the region is known up front, unlike the point-to-point fixpoint).
    /// One Dijkstra expansion then settles nodes in ascending obstructed
    /// distance, sweeping visibility only from nodes it actually pops —
    /// nodes outside the radius are never swept.
    ///
    /// Waypoint targets never appear in vertex successor lists, so each
    /// target contributes its own (cached) sweep: visibility is
    /// symmetric, hence the set of nodes a target sees is the set that
    /// sees it. Shortest obstructed paths only turn at obstacle vertices,
    /// so targets never need to relay to each other.
    ///
    /// Every sweep is bounded by what the expansion can still use: a node
    /// settled at `d` generates successors out to its remaining budget
    /// `radius − d` (a longer edge fails `d + w ≤ radius`), a target out
    /// to `radius`. A NaN or negative `radius` holds only the source;
    /// `+∞` is the unbounded expansion.
    pub fn bounded_expansion(
        &mut self,
        from: NodeId,
        radius: f64,
        targets: &[NodeId],
    ) -> Vec<(NodeId, f64)> {
        if radius.is_nan() || radius < 0.0 {
            return vec![(from, 0.0)];
        }
        // `d + w ≤ radius` is tested on rounded sums: pad the budget so it
        // covers every `w` that passes.
        let slack = 4.0 * f64::EPSILON * radius;
        let fp = self.nodes[from.0 as usize].pos;
        let n = self.nodes.len();
        // Incoming edges into each waypoint target, keyed by source node.
        let mut into: Vec<Vec<(u32, f64)>> = vec![Vec::new(); n];
        for &t in targets {
            if t == from || !matches!(self.nodes[t.0 as usize].kind, NodeKind::Waypoint { .. }) {
                continue; // vertex targets are reached by normal expansion
            }
            let tp = self.nodes[t.0 as usize].pos;
            self.ensure_successors(t, radius);
            for &(v, w) in &self.cache[t.0 as usize].succ {
                into[v.0 as usize].push((t.0, w));
            }
            // The one edge no sweep reports: straight from the source.
            let d = fp.dist(tp);
            if d <= radius && self.visible_indexed(fp, tp) {
                into[from.0 as usize].push((t.0, d));
            }
        }

        let mut dist = vec![f64::INFINITY; n];
        let mut settled = Vec::new();
        let mut heap: Frontier = BinaryHeap::new();
        dist[from.0 as usize] = 0.0;
        heap.push(Reverse((OrdF64(0.0), pos_key(fp), from.0)));
        while let Some(Reverse((OrdF64(d), _, u))) = heap.pop() {
            if d > dist[u as usize] {
                continue; // stale frontier entry
            }
            settled.push((NodeId(u), d));
            // Settled waypoints other than the source never relay: a
            // shortest path never needs to turn at a free point, and
            // sweeping from them would waste one sweep per target.
            let relays =
                u == from.0 || !matches!(self.nodes[u as usize].kind, NodeKind::Waypoint { .. });
            if relays {
                self.ensure_successors(NodeId(u), radius - d + slack);
                for &(v, w) in &self.cache[u as usize].succ {
                    let nd = d + w;
                    if nd <= radius && nd < dist[v.0 as usize] {
                        dist[v.0 as usize] = nd;
                        heap.push(Reverse((
                            OrdF64(nd),
                            pos_key(self.nodes[v.0 as usize].pos),
                            v.0,
                        )));
                    }
                }
            }
            for &(v, w) in &into[u as usize] {
                let nd = d + w;
                if nd <= radius && nd < dist[v as usize] {
                    dist[v as usize] = nd;
                    heap.push(Reverse((
                        OrdF64(nd),
                        pos_key(self.nodes[v as usize].pos),
                        v,
                    )));
                }
            }
        }
        settled
    }

    // -----------------------------------------------------------------
    // Internals
    // -----------------------------------------------------------------

    fn push_raw_node(&mut self, pos: Point, kind: NodeKind, class: PointClass) -> NodeId {
        let id = node_id(self.nodes.len()).unwrap_or_else(|full| panic!("{full}"));
        self.nodes.push(LazyNode {
            pos,
            kind,
            alive: true,
            class,
        });
        self.live += 1;
        self.cache.push(CacheSlot::default());
        id
    }

    /// Makes the successor cache of `id` complete out to `reach`: on
    /// return every scene vertex visible from `id` within `reach` is in
    /// its list (which may hold farther ones too).
    ///
    /// A cache that is not `cache_usable` starts afresh from `base_sweep`;
    /// a valid one certified short of `reach` is extended by `refine`: the
    /// base window and every closed arc are not swept again.
    fn ensure_successors(&mut self, id: NodeId, reach: f64) {
        let i = id.0 as usize;
        if !self.cache_usable(i) {
            self.cache[i] = match self.builder {
                EdgeBuilder::Naive => {
                    self.sweeps += 1;
                    CacheSlot {
                        radius: f64::INFINITY,
                        succ: self.visible_vertices_naive(id),
                        ..CacheSlot::default()
                    }
                }
                EdgeBuilder::RotationalSweep => self.base_sweep(id, reach),
            };
        }
        self.cache[i].n_obs = Some(self.polys.len());
        if self.cache[i].reach() < reach {
            self.refine(id, reach);
        }
    }

    /// Whether the successor list of node `i` can be used as it stands:
    /// computed, and no obstacle added since entered the node's base
    /// window (it could block or extend a trusted edge) or, inside a
    /// horizon arc, came nearer than the arc was refined to (it could
    /// host a newly visible far vertex). A pending arc claims nothing
    /// beyond its `r` (at most its root's), so like a closed one it only
    /// minds nearer newcomers; `refine` sees the rest when it resumes.
    fn cache_usable(&self, i: usize) -> bool {
        let slot = &self.cache[i];
        let Some(since) = slot.n_obs else {
            return false;
        };
        let pos = self.nodes[i].pos;
        let pad = slot.radius * (1.0 + 1e-12);
        self.rects[since..].iter().all(|rect| {
            if rect.mindist_point(pos) <= pad {
                return false; // entered the base window (always, if infinite)
            }
            let span = rect_span(pos, rect);
            slot.arcs.iter().all(|arc| {
                let hit = match span {
                    Some(span) => arc_overlap((arc.a0, arc.a1), span),
                    None => true,
                };
                !hit || (!arc.open && rect.mindist_point(pos) > arc.r)
            })
        })
    }

    /// One [`sweep::visible_set_windowed`] from `id` over `active`, within
    /// `ranges` (empty = the full circle).
    fn sweep(
        &mut self,
        id: NodeId,
        active: &[usize],
        radius: f64,
        ranges: &[(f64, f64)],
    ) -> sweep::WindowedVisibility {
        self.sweeps += 1;
        let node = &self.nodes[id.0 as usize];
        let pivot_vertex = match node.kind {
            NodeKind::ObstacleVertex { obstacle, vertex } => {
                Some((obstacle.0 as usize, vertex as usize))
            }
            NodeKind::Waypoint { .. } => None,
        };
        sweep::visible_set_windowed(
            &self.polys,
            &self.vertex_class,
            active,
            node.pos,
            self.pivot_class(id),
            pivot_vertex,
            radius,
            ranges,
        )
    }

    /// A fresh successor list from one sweep over the base window: the
    /// obstacles within a few mean diagonals of the node, or within
    /// `reach` if that is nearer, that meet the node's tangent cone. Near
    /// successors are final; the horizon arcs the window could not close
    /// are left pending for `refine`. They lie in the cone, so refinement
    /// never leaves it either.
    fn base_sweep(&mut self, id: NodeId, reach: f64) -> CacheSlot {
        let n = self.polys.len();
        let pos = self.nodes[id.0 as usize].pos;
        let cone = match self.nodes[id.0 as usize].kind {
            NodeKind::ObstacleVertex { obstacle, vertex } => {
                tangent_cone(&self.polys[obstacle.0 as usize], vertex as usize)
            }
            NodeKind::Waypoint { .. } => Vec::new(),
        };
        let mut slot = CacheSlot {
            radius: f64::INFINITY,
            ..CacheSlot::default()
        };
        if n == 0 {
            return slot;
        }
        self.ensure_grid();
        let horizon = self.grid.bounds().maxdist_point(pos).min(reach);

        // Grow the disk only until it contains some obstacle.
        let mut r = (6.0 * self.mean_diag()).min(horizon).max(1e-12);
        let mut active = self.candidates(pos, r, &cone);
        while active.is_empty() && r < horizon {
            r *= 4.0;
            active = self.candidates(pos, r, &cone);
        }
        let full = active.len() == n;
        let window = if full { f64::INFINITY } else { r };
        let wv = self.sweep(id, &active, window, &cone);
        self.collect_successors(id, &active, &wv.vertices, 0.0, window, &mut slot.succ);
        if full {
            return slot;
        }
        slot.radius = r;
        for (a0, a1) in joined(&wv.open) {
            // A full-circle horizon (a single event group, or every arc
            // open) comes as the degenerate wrap arc (a, a); a coned one
            // never wraps, so there (a, a) is empty, as in `refine`.
            if a0 == a1 && !cone.is_empty() {
                continue;
            }
            let (a0, a1) = if a0 == a1 { (0.0, 4.0) } else { (a0, a1) };
            push_split(&mut slot.pending, a0, a1, r, slot.arcs.len());
            slot.arcs.push(ArcTrust {
                a0,
                a1,
                r,
                open: false,
            });
        }
        slot
    }

    /// Wedge refinement of the pending horizon arcs of `id` not yet
    /// certified out to `reach`.
    ///
    /// Sight lines from the pivot are radial, so a wedge's visibility
    /// only depends on the obstacles inside it: each arc is re-swept
    /// (range-restricted) at tripling radius over just those until it
    /// closes, provably faces no farther scene obstacle, or is certified
    /// to `reach` — then it stays pending. Street canyons thus cost a few
    /// thin wedge sweeps instead of inflating the whole disk.
    fn refine(&mut self, id: NodeId, reach: f64) {
        let i = id.0 as usize;
        self.ensure_grid();
        let pos = self.nodes[i].pos;
        let extent = self.grid.bounds().maxdist_point(pos);
        // No step stops short of the window a base sweep would use: a
        // list first cut to a tiny reach catches up in one.
        let min_step = reach.min(6.0 * self.mean_diag());
        let mut slot = std::mem::take(&mut self.cache[i]);
        let mut work = std::mem::take(&mut slot.pending);
        while let Some((a0, a1, r_arc, root)) = work.pop() {
            if r_arc >= reach {
                slot.pending.push((a0, a1, r_arc, root));
                continue;
            }
            // Does any scene obstacle reach beyond r_arc inside the arc?
            let r_next = (r_arc * 3.0).max(min_step).min(extent * 1.0001);
            let pad = ARC_PAD * (1.0 + a1 - a0);
            let range = ((a0 - pad).max(0.0), (a1 + pad).min(4.0));
            let mut beyond = false;
            self.grid.search(
                |mbr| (mbr.maxdist_point(pos) > r_arc && in_wedge(pos, mbr, range)).then_some(()),
                |_, _, ()| {
                    beyond = true;
                    true
                },
            );
            if !beyond {
                // Nothing farther in this wedge: trusted as-is, but any
                // new obstacle appearing here invalidates the cache.
                slot.arcs[root].open = true;
                continue;
            }
            let wedge = self.candidates(pos, r_next, &[range]);
            let wv = self.sweep(id, &wedge, r_next, &[range]);
            // Trust band (r_arc, r_next]: nearer in-wedge vertices were
            // already reported by the parent sweep.
            self.collect_successors(id, &wedge, &wv.vertices, r_arc, r_next, &mut slot.succ);
            slot.arcs[root].r = slot.arcs[root].r.max(r_next);
            for (b0, b1) in joined(&wv.open) {
                if r_next >= extent {
                    // The wedge already covers the whole scene: an open
                    // sub-arc faces empty space.
                    slot.arcs[root].open = true;
                } else {
                    push_split(&mut work, b0.max(range.0), b1.min(range.1), r_next, root);
                }
            }
        }

        // Duplicate successors can arise where padded wedges overlap.
        slot.succ.sort_unstable_by_key(|(nid, _)| nid.0);
        slot.succ.dedup_by_key(|(nid, _)| nid.0);
        self.cache[i] = slot;
    }

    /// Appends the visible vertices of `active` obstacles whose distance
    /// falls in `(lo, hi]` (with `lo = 0.0` meaning inclusive of zero) to
    /// `succ`.
    #[allow(clippy::too_many_arguments)]
    fn collect_successors(
        &self,
        id: NodeId,
        active: &[usize],
        flags: &[Vec<bool>],
        lo: f64,
        hi: f64,
        succ: &mut Vec<(NodeId, f64)>,
    ) {
        let pos = self.nodes[id.0 as usize].pos;
        for (ai, flags) in flags.iter().enumerate() {
            let nodes = &self.vertex_nodes[active[ai]];
            for (vi, &visible) in flags.iter().enumerate() {
                if !visible {
                    continue;
                }
                let nid = nodes[vi];
                if nid == id {
                    continue;
                }
                let d = pos.dist(self.nodes[nid.0 as usize].pos);
                if d <= hi && (d > lo || lo == 0.0) && self.tangent_edge(id, nid) {
                    succ.push((nid, d));
                }
            }
        }
    }

    /// Mean obstacle bbox diagonal — the scene's natural length scale.
    fn mean_diag(&self) -> f64 {
        if self.polys.is_empty() {
            0.0
        } else {
            self.sum_diag / self.polys.len() as f64
        }
    }

    /// Repacks `grid` over the obstacle MBRs when obstacles were added
    /// since the last pack (the index is static). Obstacles are absorbed
    /// in batches between searches, so this runs a handful of times per
    /// query — O(n log n) each, amortized negligible.
    fn ensure_grid(&mut self) {
        if self.grid.len() != self.rects.len() {
            self.grid = PackedIndex::pack(GRID_FAN, self.rects.iter().copied().zip(0..));
        }
    }

    /// Obstacles whose MBR lies within distance `r` of `pos` and may
    /// overlap one of the angular intervals `ranges` (as in [`in_wedge`];
    /// empty = the full circle).
    fn candidates(&self, pos: Point, r: f64, ranges: &[(f64, f64)]) -> Vec<usize> {
        let in_ranges = |mbr: &Rect| {
            ranges.is_empty()
                || rect_span(pos, mbr)
                    .is_none_or(|span| ranges.iter().any(|&range| arc_overlap(range, span)))
        };
        let mut out = Vec::new();
        self.grid.search(
            |mbr| (mbr.mindist_point_sq(pos) <= r * r && in_ranges(mbr)).then_some(()),
            |oi, _, ()| {
                out.push(oi as usize);
                false
            },
        );
        out
    }

    fn pivot_class(&self, id: NodeId) -> &PointClass {
        match self.nodes[id.0 as usize].kind {
            NodeKind::ObstacleVertex { obstacle, vertex } => {
                &self.vertex_class[obstacle.0 as usize][vertex as usize]
            }
            NodeKind::Waypoint { .. } => &self.nodes[id.0 as usize].class,
        }
    }

    /// Whether the edge `u → w` is in the tangent visibility graph: its
    /// line is [`tangent_at`] every obstacle-vertex end.
    fn tangent_edge(&self, u: NodeId, w: NodeId) -> bool {
        let (pu, pw) = (self.position(u), self.position(w));
        let at = |id: NodeId, x: Point| match self.kind(id) {
            NodeKind::ObstacleVertex { obstacle, vertex } => {
                tangent_at(&self.polys[obstacle.0 as usize], vertex as usize, x)
            }
            NodeKind::Waypoint { .. } => true,
        };
        at(u, pw) && at(w, pu)
    }

    /// The tangent obstacle vertices visible from `id`, by a pairwise scan:
    /// the `Naive` builder, and the oracle of `validate`.
    fn visible_vertices_naive(&self, id: NodeId) -> Vec<(NodeId, f64)> {
        let pivot = self.nodes[id.0 as usize].pos;
        let mut out = Vec::new();
        for nodes in &self.vertex_nodes {
            for &nid in nodes {
                if nid == id {
                    continue;
                }
                let pos = self.nodes[nid.0 as usize].pos;
                if self.tangent_edge(id, nid) && self.visible(pivot, pos) {
                    out.push((nid, pivot.dist(pos)));
                }
            }
        }
        out
    }

    /// Structural (and, with `check_semantics`, semantic) consistency
    /// check for tests: classifications match a from-scratch recompute,
    /// and every successor cache a search would use as it stands (fresh,
    /// or stale but passing revalidation) agrees with the naive
    /// visibility oracle, restricted to tangent edges, over what it
    /// certifies: every listed vertex is oracle-visible, and every
    /// oracle-visible vertex within the list's reach is listed.
    pub fn validate(&self, check_semantics: bool) -> Result<(), String> {
        let scene: Vec<&Polygon> = self.polys.iter().collect();
        for (oi, slot) in self.vertex_class.iter().enumerate() {
            for (vi, class) in slot.iter().enumerate() {
                let expect = sweep::classify(&scene, self.polys[oi].vertices()[vi]);
                if *class != expect {
                    return Err(format!("stale classification for vertex {vi} of {oi}"));
                }
            }
        }
        for (i, node) in self.nodes.iter().enumerate() {
            if node.alive && matches!(node.kind, NodeKind::Waypoint { .. }) {
                let expect = sweep::classify(&scene, node.pos);
                if node.class != expect {
                    return Err(format!("stale classification for waypoint node {i}"));
                }
            }
        }
        if self.live != self.nodes.iter().filter(|n| n.alive).count() {
            return Err(format!("live-node counter {} is off", self.live));
        }
        if check_semantics {
            for (i, slot) in self.cache.iter().enumerate() {
                if !self.cache_usable(i) {
                    continue; // never computed, or due for a fresh sweep
                }
                let reach = slot.reach();
                let mut oracle = self.visible_vertices_naive(NodeId(i as u32));
                oracle.sort_by_key(|(n, _)| n.0);
                for &(n, w) in &slot.succ {
                    let seen = oracle.binary_search_by_key(&n.0, |(m, _)| m.0);
                    let seen = seen.map(|k| oracle[k].1);
                    if !seen.is_ok_and(|we| (w - we).abs() <= 1e-9) {
                        return Err(format!(
                            "successor cache of node {i} lists node {} at {w}; the naive oracle \
                             sees it at {seen:?}",
                            n.0
                        ));
                    }
                }
                for &(n, we) in &oracle {
                    if we <= reach && !slot.succ.iter().any(|&(m, _)| m == n) {
                        return Err(format!(
                            "successor cache of node {i} (reach {reach}) misses node {} at {we}",
                            n.0
                        ));
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::VisibilityGraph;
    use crate::{dijkstra_distance, shortest_path};
    use obstacle_geom::{Polygon, Rect};

    fn square(x0: f64, y0: f64, x1: f64, y1: f64) -> Polygon {
        Polygon::from_rect(Rect::from_coords(x0, y0, x1, y1))
    }

    fn lazy_with(
        builder: EdgeBuilder,
        obstacles: &[Polygon],
        a: Point,
        b: Point,
    ) -> (LazyScene, NodeId, NodeId) {
        let mut s = LazyScene::new(builder);
        for (i, p) in obstacles.iter().enumerate() {
            s.add_obstacle(p.clone(), i as u64);
        }
        let na = s.add_waypoint(a, 0);
        let nb = s.add_waypoint(b, 1);
        (s, na, nb)
    }

    #[test]
    fn empty_scene_is_euclidean() {
        let (mut s, a, b) = lazy_with(
            EdgeBuilder::RotationalSweep,
            &[],
            Point::new(0.0, 0.0),
            Point::new(3.0, 4.0),
        );
        let p = s.astar(a, b).unwrap();
        assert_eq!(p.distance, 5.0);
        assert_eq!(p.points.len(), 2);
    }

    #[test]
    fn detour_matches_materialized_graph() {
        let obstacles = vec![square(1.0, -1.0, 2.0, 1.0), square(4.0, -2.0, 5.0, 0.5)];
        let a = Point::new(0.0, 0.0);
        let b = Point::new(6.0, 0.0);
        for builder in [EdgeBuilder::RotationalSweep, EdgeBuilder::Naive] {
            let (mut s, na, nb) = lazy_with(builder, &obstacles, a, b);
            let lazy = s.astar(na, nb).unwrap();
            let (full, wps) =
                VisibilityGraph::build(obstacles.iter().cloned().zip(0u64..), [(a, 0), (b, 1)]);
            let exact = shortest_path(&full, wps[0], wps[1]).unwrap();
            assert!(
                (lazy.distance - exact.distance).abs() < 1e-12,
                "{} vs {}",
                lazy.distance,
                exact.distance
            );
            assert_eq!(lazy.points, exact.points);
            assert!(s.validate(true).is_ok());
        }
    }

    #[test]
    fn waypoint_inside_obstacle_is_unreachable() {
        let (mut s, a, b) = lazy_with(
            EdgeBuilder::RotationalSweep,
            &[square(0.0, 0.0, 1.0, 1.0)],
            Point::new(0.5, 0.5),
            Point::new(2.0, 2.0),
        );
        assert!(s.astar(a, b).is_none());
        assert!(s.astar(b, a).is_none());
    }

    #[test]
    fn waypoint_churn_keeps_vertex_caches_valid() {
        let obstacles = [square(1.0, -1.0, 2.0, 1.0)];
        let mut s = LazyScene::new(EdgeBuilder::RotationalSweep);
        s.add_obstacle(obstacles[0].clone(), 0);
        let q = s.add_waypoint(Point::new(0.0, 0.0), 0);

        let p1 = s.add_waypoint(Point::new(3.0, 0.0), 1);
        let d1 = s.astar_distance(p1, q).unwrap();
        let sweeps_after_first = s.sweep_count();
        s.remove_waypoint(p1);

        let p2 = s.add_waypoint(Point::new(3.0, 0.0), 2);
        let d2 = s.astar_distance(p2, q).unwrap();
        s.remove_waypoint(p2);

        assert!((d1 - d2).abs() < 1e-12);
        // Second run re-sweeps only the fresh waypoint p2: vertex and
        // target caches survive waypoint churn.
        assert_eq!(s.sweep_count(), sweeps_after_first + 1);
        assert!(s.validate(true).is_ok());
    }

    #[test]
    fn obstacle_insertion_invalidates_caches() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(6.0, 0.0);
        let mut s = LazyScene::new(EdgeBuilder::RotationalSweep);
        s.add_obstacle(square(1.0, -1.0, 2.0, 1.0), 0);
        let na = s.add_waypoint(a, 0);
        let nb = s.add_waypoint(b, 1);
        let d1 = s.astar_distance(na, nb).unwrap();

        s.add_obstacle(square(4.0, -2.0, 5.0, 2.0), 1);
        let d2 = s.astar_distance(na, nb).unwrap();
        assert!(d2 > d1, "new wall must lengthen the path: {d1} vs {d2}");

        let (full, wps) = VisibilityGraph::build(
            [
                (square(1.0, -1.0, 2.0, 1.0), 0u64),
                (square(4.0, -2.0, 5.0, 2.0), 1),
            ],
            [(a, 0), (b, 1)],
        );
        let exact = dijkstra_distance(&full, wps[0], wps[1]).unwrap();
        assert!((d2 - exact).abs() < 1e-12);
        assert!(s.validate(true).is_ok());
    }

    #[test]
    fn vertex_endpoints_are_supported() {
        // Source and target as obstacle vertices (not waypoints).
        let mut s = LazyScene::new(EdgeBuilder::RotationalSweep);
        s.add_obstacle(square(0.0, 0.0, 1.0, 1.0), 0);
        s.add_obstacle(square(3.0, 0.0, 4.0, 1.0), 1);
        let from = s.vertex_nodes[0][0]; // (0, 0) corner? polygon order
        let to = s.vertex_nodes[1][2];
        let p = s.astar(from, to).unwrap();
        let (full, _) = VisibilityGraph::build(
            [
                (square(0.0, 0.0, 1.0, 1.0), 0u64),
                (square(3.0, 0.0, 4.0, 1.0), 1),
            ],
            std::iter::empty::<(Point, u64)>(),
        );
        // Locate the same positions in the full graph by brute force.
        let mut ids = (None, None);
        for i in 0..full.node_slots() {
            let pos = full.position(NodeId(i as u32));
            if pos == s.position(from) {
                ids.0 = Some(NodeId(i as u32));
            }
            if pos == s.position(to) {
                ids.1 = Some(NodeId(i as u32));
            }
        }
        let exact = dijkstra_distance(&full, ids.0.unwrap(), ids.1.unwrap()).unwrap();
        assert!((p.distance - exact).abs() < 1e-12);
    }

    /// Shortest distances from `from` over the edges of `graph` that are
    /// [`tangent_at`] both ends, out to `radius`, with waypoints other
    /// than `from` as sinks: the tangent visibility graph a `LazyScene`
    /// expands over.
    fn tangent_dijkstra(graph: &VisibilityGraph, from: NodeId, radius: f64) -> Vec<(NodeId, f64)> {
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
                let tangent = at(NodeId(u), graph.position(v)) && at(v, pu);
                if tangent && nd <= radius && nd < dist[v.0 as usize] {
                    dist[v.0 as usize] = nd;
                    heap.push(Reverse((OrdF64(nd), v.0)));
                }
            }
        }
        settled
    }

    /// The waypoint (`waypoints`) or obstacle-vertex entries of an
    /// expansion as sorted `(x bits, y bits, distance to 1e-12)`: node ids
    /// differ between structures.
    fn keyed(
        expansion: &[(NodeId, f64)],
        position: impl Fn(NodeId) -> Point,
        kind: impl Fn(NodeId) -> NodeKind,
        waypoints: bool,
    ) -> Vec<(u64, u64, i64)> {
        let mut out: Vec<_> = expansion
            .iter()
            .filter(|&&(n, _)| matches!(kind(n), NodeKind::Waypoint { .. }) == waypoints)
            .map(|&(n, d)| {
                let p = position(n);
                (p.x.to_bits(), p.y.to_bits(), (d * 1e12).round() as i64)
            })
            .collect();
        out.sort_unstable();
        out
    }

    /// A lazy expansion from `q` against the oracles: (i) waypoint
    /// distances equal the unfiltered graph's, (ii) obstacle vertices
    /// settle exactly as over the tangent-filtered graph, (iii) every
    /// successor list validates.
    fn assert_expansion_matches(
        s: &LazyScene,
        lazy: &[(NodeId, f64)],
        full: &VisibilityGraph,
        q: NodeId,
        radius: f64,
    ) {
        let at_lazy = |wps| keyed(lazy, |n| s.position(n), |n| s.kind(n), wps);
        let exact = crate::bounded_expansion(full, q, radius);
        let at_full =
            |e: &[(NodeId, f64)], wps| keyed(e, |n| full.position(n), |n| full.kind(n), wps);
        assert_eq!(
            at_lazy(true),
            at_full(&exact, true),
            "waypoints, radius {radius}"
        );
        let tangent = tangent_dijkstra(full, q, radius);
        assert_eq!(
            at_lazy(false),
            at_full(&tangent, false),
            "vertices, radius {radius}"
        );
        s.validate(true).unwrap();
    }

    #[test]
    fn bounded_expansion_matches_materialized_graph() {
        let obstacles = [
            square(1.0, -1.0, 2.0, 1.0),
            square(4.0, -2.0, 5.0, 0.5),
            square(2.5, 1.5, 3.5, 2.5),
        ];
        let q = Point::new(0.0, 0.0);
        let waypoints = [
            Point::new(3.0, 0.0),
            Point::new(6.0, 0.0),
            Point::new(0.5, 2.0),
            Point::new(4.5, -0.75), // strictly inside an obstacle
        ];
        for radius in [2.0, 5.0, 9.0] {
            let mut s = LazyScene::new(EdgeBuilder::RotationalSweep);
            for (i, p) in obstacles.iter().enumerate() {
                s.add_obstacle(p.clone(), i as u64);
            }
            let nq = s.add_waypoint(q, 1000);
            let targets: Vec<NodeId> = waypoints
                .iter()
                .enumerate()
                .map(|(i, &p)| s.add_waypoint(p, i as u64))
                .collect();
            let lazy = s.bounded_expansion(nq, radius, &targets);

            let (full, wps) = VisibilityGraph::build(
                obstacles.iter().cloned().zip(0u64..),
                std::iter::once((q, 1000))
                    .chain(waypoints.iter().enumerate().map(|(i, &p)| (p, i as u64))),
            );
            assert_expansion_matches(&s, &lazy, &full, wps[0], radius);
            // Ascending settle order.
            for w in lazy.windows(2) {
                assert!(w[0].1 <= w[1].1);
            }
        }
    }

    /// Two blocks, a source and three targets; `radius` decides who is in.
    fn expand_at(radius: f64) -> (Vec<(NodeId, f64)>, NodeId, usize) {
        let mut s = LazyScene::new(EdgeBuilder::RotationalSweep);
        s.add_obstacle(square(1.0, -1.0, 2.0, 1.0), 0);
        s.add_obstacle(square(4.0, -2.0, 5.0, 0.5), 1);
        let q = s.add_waypoint(Point::new(0.0, 0.0), 9);
        let targets: Vec<NodeId> = [(3.0, 0.0), (6.0, 0.0), (0.0, 0.0)]
            .iter()
            .map(|&(x, y)| s.add_waypoint(Point::new(x, y), 1))
            .collect();
        let first = s.bounded_expansion(q, radius, &targets);
        let sweeps = s.sweep_count();
        // Asking again is answered from the cache: no slot is left in a
        // state that recomputes on every call.
        assert_eq!(s.bounded_expansion(q, radius, &targets), first);
        assert_eq!(s.sweep_count(), sweeps);
        assert!(s.validate(true).is_ok());
        (first, q, sweeps)
    }

    #[test]
    fn bounded_expansion_nan_radius_holds_the_source_only() {
        let (settled, q, sweeps) = expand_at(f64::NAN);
        assert_eq!(settled, vec![(q, 0.0)]);
        assert_eq!(sweeps, 0);
    }

    #[test]
    fn bounded_expansion_negative_radius_holds_the_source_only() {
        let (settled, q, sweeps) = expand_at(-1.0);
        assert_eq!(settled, vec![(q, 0.0)]);
        assert_eq!(sweeps, 0);
    }

    #[test]
    fn bounded_expansion_zero_radius_holds_what_coincides_with_the_source() {
        let (settled, q, _) = expand_at(0.0);
        // The source and the target standing on it, nothing else.
        assert_eq!(settled.len(), 2);
        assert_eq!(settled[0], (q, 0.0));
        assert_eq!(settled[1].1, 0.0);
    }

    #[test]
    fn bounded_expansion_infinite_radius_is_the_unbounded_expansion() {
        let (all, _, _) = expand_at(f64::INFINITY);
        let (most, _, _) = expand_at(1e6);
        // 8 vertices, the source and 3 targets.
        assert_eq!(all.len(), 12);
        assert_eq!(all, most);
    }

    #[test]
    fn tangent_cone_holds_exactly_the_tangent_directions() {
        // The corner (0, 0) of a CCW square: walls along +x (next) and +y
        // (prev). Tangent arcs +y → −x and −y → +x: 2 × 90° of 360°.
        let sq = square(0.0, 0.0, 1.0, 1.0);
        assert_eq!(
            tangent_cone(&sq, 0),
            vec![
                (0.0, ARC_PAD),
                (1.0 - ARC_PAD, 2.0 + ARC_PAD),
                (3.0 - ARC_PAD, 4.0)
            ]
        );
        // A reflex corner sweeps the full circle.
        let l = Polygon::new(
            [
                (0.0, 0.0),
                (2.0, 0.0),
                (2.0, 1.0),
                (1.0, 1.0),
                (1.0, 2.0),
                (0.0, 2.0),
            ]
            .map(|(x, y)| Point::new(x, y))
            .to_vec(),
        )
        .unwrap();
        assert!(tangent_cone(&l, 3).is_empty());
        // Around convex vertices of a skewed polygon, a direction more
        // than the padding inside the cone is tangent, and one outside it
        // is not.
        let kite = Polygon::new(
            [(0.0, 0.0), (3.0, 0.4), (3.5, 2.0), (0.7, 1.1)]
                .map(|(x, y)| Point::new(x, y))
                .to_vec(),
        )
        .unwrap();
        for vi in 0..kite.len() {
            let v = kite.vertices()[vi];
            let cone = tangent_cone(&kite, vi);
            assert!(!cone.is_empty());
            for step in 0..4000 {
                let a = step as f64 * std::f64::consts::TAU / 4000.0;
                let dir = Point::new(a.cos(), a.sin());
                let key = pseudo_angle(dir.x, dir.y);
                let near_edge = cone.iter().any(|&(a0, a1)| {
                    (key - a0).abs() <= 2.0 * ARC_PAD || (key - a1).abs() <= 2.0 * ARC_PAD
                });
                if near_edge {
                    continue;
                }
                let inside = cone.iter().any(|&(a0, a1)| a0 <= key && key <= a1);
                let x = Point::new(v.x + dir.x, v.y + dir.y);
                assert_eq!(inside, tangent_at(&kite, vi, x), "vertex {vi}, key {key}");
            }
        }
    }

    #[test]
    fn node_ids_stop_short_of_the_continuation_tag() {
        let last = CONTINUATION as usize - 1;
        assert_eq!(node_id(0), Ok(NodeId(0)));
        assert_eq!(node_id(last), Ok(NodeId(last as u32)));
        for slot in [last + 1, u32::MAX as usize, usize::MAX] {
            assert_eq!(node_id(slot), Err(SceneFull(slot)));
        }
        assert!(SceneFull(last + 1).to_string().contains("scene full"));
    }

    /// The unit-test scenes above fit one base window, so their lists are
    /// complete after one sweep. A generated city is large enough to
    /// leave pending arcs: bounded lists are cached by one search,
    /// revalidated when the scene grows and resumed by the next, and
    /// `validate(true)` holds each to the oracle over its reach.
    #[test]
    fn bounded_lists_on_a_city_scene_agree_with_the_oracle() {
        use obstacle_datagen::{sample_entities, City, CityConfig};
        let city = City::generate(CityConfig::new(160, 5));
        let entities = sample_entities(&city, 40, 6);
        let (early, late) = city.obstacles.split_at(120);
        let mut s = LazyScene::new(EdgeBuilder::RotationalSweep);
        for (i, poly) in early.iter().enumerate() {
            s.add_obstacle(poly.clone(), i as u64);
        }
        let diag = s.mean_diag();
        let q = s.add_waypoint(entities[0], 0);
        let targets: Vec<NodeId> = entities[1..]
            .iter()
            .map(|&p| s.add_waypoint(p, 1))
            .collect();
        let pending = |s: &LazyScene| s.cache.iter().filter(|c| !c.pending.is_empty()).count();

        // The query's nearest tangent corners are 1.55 and 1.94 mean
        // diagonals away.
        let graph = |obstacles: &[Polygon]| {
            VisibilityGraph::build(
                obstacles.iter().cloned().zip(0u64..),
                entities.iter().map(|&p| (p, 0)),
            )
        };
        let near = s.bounded_expansion(q, 2.0 * diag, &targets);
        assert!(near.len() > 1);
        assert!(pending(&s) > 0, "a city scene leaves pending arcs");
        let (full, wps) = graph(early);
        assert_expansion_matches(&s, &near, &full, wps[0], 2.0 * diag);

        // A* across town and back resumes some of those lists.
        let across = s.astar(targets[7], q).expect("free points");
        s.validate(true).unwrap();
        assert_eq!(
            s.astar(q, targets[7]).map(|p| p.distance),
            Some(across.distance)
        );
        s.validate(true).unwrap();

        // The scene grows under the cached lists, a few obstacles at a
        // time, searches in between.
        for (i, poly) in late.iter().enumerate() {
            s.add_obstacle(poly.clone(), 1000 + i as u64);
            if i % 8 == 7 {
                s.astar(targets[i % targets.len()], q);
                s.validate(true).unwrap();
            }
        }

        // The same expansion with more reach resumes what the first left
        // pending; with all of it, nothing stays pending at its nodes.
        let sweeps = s.sweep_count();
        let far = s.bounded_expansion(q, 6.0 * diag, &targets);
        assert!(far.len() > near.len());
        assert!(s.sweep_count() > sweeps);
        let (full, wps) = graph(&city.obstacles);
        assert_expansion_matches(&s, &far, &full, wps[0], 6.0 * diag);
        let all = s.bounded_expansion(q, f64::INFINITY, &targets);
        assert!(all.len() >= far.len());
        assert!(s.cache[q.0 as usize].pending.is_empty());
        assert_expansion_matches(&s, &all, &full, wps[0], f64::INFINITY);
    }

    /// `visible_indexed` stops at the first blocking obstacle the index
    /// yields; on a city it must agree with the linear scan everywhere,
    /// degenerate segments included.
    #[test]
    fn indexed_visibility_agrees_with_the_linear_scan_on_a_city() {
        use obstacle_datagen::{City, CityConfig};
        use obstacle_geom::rng::{Rng, SeedableRng, SmallRng};
        let city = City::generate(CityConfig::new(160, 7));
        let mut s = LazyScene::new(EdgeBuilder::RotationalSweep);
        for (i, poly) in city.obstacles.iter().enumerate() {
            s.add_obstacle(poly.clone(), i as u64);
        }
        let u = city.universe;
        let mut rng = SmallRng::seed_from_u64(0x5E6_0001);
        let free = |rng: &mut SmallRng| {
            Point::new(
                u.min.x + rng.gen::<f64>() * u.width(),
                u.min.y + rng.gen::<f64>() * u.height(),
            )
        };
        let mut segments = Vec::new();
        for _ in 0..1200 {
            let (a, b) = (free(&mut rng), free(&mut rng));
            segments.extend([(a, b), (a, a.lerp(b, 0.05)), (a, a)]);
        }
        for poly in &city.obstacles {
            let v = poly.vertices();
            let (p, q) = (v[0], v[1]);
            let normal = Point::new(p.y - q.y, q.x - p.x);
            let c = poly.bbox().center();
            segments.extend([
                (p, p),                            // zero length, on a vertex
                (c, c),                            // zero length, inside
                (p, q),                            // an edge
                (p.lerp(q, -1.0), p.lerp(q, 2.0)), // collinear with it, past both ends
                (p - normal, p + normal),          // through a vertex, across
                (p, v[2]),                         // a diagonal
                (p, p.lerp(v[2], 2.0)),            // ... on through the far corner
            ]);
        }
        assert!(segments.len() >= 2000);
        let mut blocked = 0;
        for &(a, b) in &segments {
            let linear = s.visible(a, b);
            assert_eq!(s.visible_indexed(a, b), linear, "segment {a:?} → {b:?}");
            blocked += usize::from(!linear);
        }
        assert!(blocked > 0 && blocked < segments.len(), "{blocked} blocked");
    }

    #[test]
    fn laziness_settles_a_corridor_not_the_scene() {
        // A long row of separated blocks: the shortest path hugs the row,
        // and A* must not sweep from the far side of every block.
        let mut obstacles = Vec::new();
        for i in 0..40 {
            let x = i as f64;
            obstacles.push(square(x + 0.2, 0.2, x + 0.8, 5.0));
        }
        let (mut s, a, b) = lazy_with(
            EdgeBuilder::RotationalSweep,
            &obstacles,
            Point::new(0.0, 0.0),
            Point::new(40.0, 0.0),
        );
        let p = s.astar(a, b).unwrap();
        assert!(p.distance >= 40.0);
        // 160 vertices in the scene; the corridor along y≈0 touches the
        // two bottom corners of each block plus the endpoints.
        assert!(
            s.sweep_count() <= 110,
            "expected lazy exploration, swept {} times",
            s.sweep_count()
        );
    }
}
