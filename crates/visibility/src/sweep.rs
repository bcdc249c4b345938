//! Rotational plane-sweep visibility \[SS84\].
//!
//! [`visible_set_windowed`] computes, for one *pivot* point, which
//! obstacle vertices of a window of the scene are visible, in O(n log n)
//! for points in general position: the vertices are processed in angular
//! order around the pivot while a *status* structure maintains the
//! obstacle edges currently crossed by the sweep ray, ordered by crossing
//! distance. It is the only sweep in the workspace: `LazyScene` calls it
//! for every successor list, and `tests/sweep_vs_naive.rs` holds it to
//! the naive `blocks_segment` oracle on adversarial scenes.
//!
//! Point *classifications* (strictly-inside flags and boundary
//! attachments, the inputs of the interior-cone blocking tests) are
//! independent of the pivot, so the scene computes them once
//! ([`classify`], [`classify_incremental`] as it grows) and every sweep
//! borrows them.
//!
//! Correctness notes (matching [`Polygon::blocks_segment`] semantics —
//! obstacle interiors block, boundaries do not):
//!
//! * Edges only enter the status when *properly* crossed by the ray; edges
//!   collinear with the ray never block (walking along a wall is free).
//! * Interior passage through a polygon **vertex** or through a boundary
//!   point (e.g. the diagonal of a rectangle between opposite corners, or
//!   an entity standing on a wall) is not a proper edge crossing; it is
//!   caught by *interior-cone* tests derived from the point's boundary
//!   attachments — at the pivot, at the target, and, for chains of
//!   collinear events, at intermediate points.
//! * Points strictly inside an obstacle are never visible (and block the
//!   rest of their ray).
//! * Events on a common ray are processed near-to-far; once a point of
//!   the ray is blocked, every farther point is blocked too.

use obstacle_geom::{
    angular_cmp, orient2d, pseudo_angle, BoundaryAttachment, Orientation, Point, PointLocation,
    Polygon,
};

/// Pivot-independent classification of a point against a scene: whether
/// it lies strictly inside some obstacle, and the boundary attachments
/// (obstacle index + vertex/edge location) it participates in.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PointClass {
    /// Strictly inside some obstacle: never visible, blocks its ray.
    pub inside: bool,
    /// Obstacles whose boundary passes through this point.
    pub attachments: Vec<(usize, BoundaryAttachment)>,
}

/// Classifies `p` against every obstacle (bbox-prefiltered scan).
pub fn classify(obstacles: &[&Polygon], p: Point) -> PointClass {
    let mut class = PointClass::default();
    for (oi, poly) in obstacles.iter().enumerate() {
        if !poly.bbox().contains_point(p) {
            continue;
        }
        if let Some(at) = poly.boundary_attachment(p) {
            class.attachments.push((oi, at));
        } else if poly.locate(p) == PointLocation::Inside {
            class.inside = true;
            return class;
        }
    }
    class
}

/// Updates an existing classification for one newly added obstacle
/// (`oi` = its index in the scene).
pub fn classify_incremental(class: &mut PointClass, oi: usize, poly: &Polygon, p: Point) {
    if class.inside || !poly.bbox().contains_point(p) {
        return;
    }
    if let Some(at) = poly.boundary_attachment(p) {
        class.attachments.push((oi, at));
    } else if poly.locate(p) == PointLocation::Inside {
        class.inside = true;
    }
}

/// "No edge" marker of the per-vertex incident-edge table.
const NO_EDGE: u32 = u32::MAX;

#[derive(Clone, Copy, Debug)]
struct Edge {
    a: Point,
    b: Point,
}

/// One sweep event: vertex `vertex` of the `obstacle`-th active obstacle,
/// in direction `key` (pseudo-angle) from the pivot.
#[derive(Clone, Copy, Debug)]
struct Event {
    pos: Point,
    key: f64,
    obstacle: usize,
    vertex: usize,
}

/// Whether `a` and `b` lie on the same ray from `pivot` (same direction).
fn same_ray(pivot: Point, a: Point, b: Point) -> bool {
    if orient2d(pivot, a, b) != Orientation::Collinear {
        return false;
    }
    // Same side: the dot product of the two directions is positive.
    (a - pivot).dot(b - pivot) > 0.0
}

fn other_endpoint(e: &Edge, p: Point) -> Point {
    if e.a == p {
        e.b
    } else {
        e.a
    }
}

/// Euclidean distance from `pivot` to the crossing of the ray
/// `pivot → through` with `e`; +inf when the edge is parallel to the ray.
fn ray_t(pivot: Point, through: Point, e: &Edge) -> f64 {
    let d = through - pivot;
    let s = e.b - e.a;
    let denom = d.cross(s);
    if denom == 0.0 {
        return f64::INFINITY;
    }
    let t = (e.a - pivot).cross(s) / denom; // parameter along d
    t * d.norm()
}

/// Result of a [`visible_set_windowed`] sweep over the *active* subset of
/// a scene.
#[derive(Clone, Debug)]
pub struct WindowedVisibility {
    /// `vertices[i][v]` — whether vertex `v` of obstacle `active[i]` is
    /// visible **w.r.t. the active subset**. Trustworthy for targets
    /// within `radius` of the pivot (see the function docs); farther
    /// flags may ignore blockers outside the window.
    pub vertices: Vec<Vec<bool>>,
    /// Angular arcs (CCW, in [`pseudo_angle`] units modulo 4) where the
    /// sweep could **not** certify a blocking edge within `radius`: a
    /// point farther than `radius` from the pivot may only be visible if
    /// its direction falls inside one of these arcs. Empty means the
    /// pivot's horizon is closed — nothing beyond `radius` is visible.
    /// `(a, a)` (or `(0.0, 4.0)`) denotes the full circle.
    pub open: Vec<(f64, f64)>,
}

/// Rotational sweep restricted to a *window*: only the obstacles listed
/// in `active` (indices into `polys`) contribute events and blocking
/// edges, and openness is judged against `radius`.
///
/// `ranges` restricts the sweep to angular wedges. Each `(a0, a1)` is a
/// CCW pseudo-angle interval with `0 <= a0 <= a1 <= 4`, i.e. not wrapping
/// past the +x axis; the ranges of one call are disjoint. Each range is
/// swept on its own: only events whose direction falls inside it (both
/// ends included) are processed, the status is re-initialised on the ray
/// at its `a0`, and its last open arc ends at its `a1`. The ranges share
/// one edge table, so a cone of several ranges costs one call. An empty
/// slice is the full circle, swept from the +x axis, whose last open arc
/// may wrap around to the first. A vertex outside every range keeps the
/// flag `false`: the sweep says nothing about it.
///
/// Soundness contract (the lazy A\* successor oracle relies on it):
///
/// * if every obstacle of the scene whose MBR lies within Euclidean
///   distance `radius` of `pivot` — intersecting one of the ranges, when
///   ranged — is in `active`, then the visibility flag of every vertex
///   within `radius` (and inside a range) is **exact for the full
///   scene**: sight lines from the pivot are radial, so any blocker of a
///   segment of length ≤ `radius` lies inside the disk of that radius and
///   on the target's own ray, hence inside the target's range;
/// * any point farther than `radius` whose direction falls inside a range
///   but in no `open` arc is **invisible for the full scene** — some
///   active edge properly crosses its ray nearer than `radius`, and
///   active edges block regardless of what the window misses.
///
/// Openness is evaluated at event-group boundaries only: between two
/// consecutive groups the status is constant and the front edge's
/// crossing distance is unimodal along the rotating ray, so its maximum
/// over the arc is attained at the endpoints. A ray through a vertex
/// (no *proper* crossing) yields an infinite front distance and
/// therefore marks its arcs open — conservative, never unsound.
///
/// Classifications (`vertex_class`) are indexed by the **full** scene, so
/// boundary attachments may reference non-active obstacles; their
/// interior-cone tests then use the full polygon list, which only makes
/// blocking more accurate.
#[allow(clippy::too_many_arguments)]
pub fn visible_set_windowed(
    polys: &[Polygon],
    vertex_class: &[Vec<PointClass>],
    active: &[usize],
    pivot: Point,
    pivot_class: &PointClass,
    pivot_vertex: Option<(usize, usize)>,
    radius: f64,
    ranges: &[(f64, f64)],
) -> WindowedVisibility {
    let mut result = WindowedVisibility {
        vertices: active
            .iter()
            .map(|&oi| vec![false; polys[oi].len()])
            .collect(),
        open: Vec::new(),
    };
    let enters = |attachments: &[(usize, BoundaryAttachment)], toward: Point| -> bool {
        attachments
            .iter()
            .any(|&(oi, at)| polys[oi].enters_interior_at_boundary(at, toward))
    };
    let in_range =
        |key: f64, range: Option<(f64, f64)>| range.is_none_or(|(a0, a1)| a0 <= key && key <= a1);
    // The full circle is the one "range" without a start ray.
    let arcs: Vec<Option<(f64, f64)>> = if ranges.is_empty() {
        vec![None]
    } else {
        ranges.iter().copied().map(Some).collect()
    };

    // ---- Events (active obstacle vertices inside a range).
    let mut events: Vec<Event> = Vec::new();
    for (ai, &oi) in active.iter().enumerate() {
        for (vi, &v) in polys[oi].vertices().iter().enumerate() {
            if Some((oi, vi)) == pivot_vertex {
                continue; // the pivot itself
            }
            if v == pivot {
                result.vertices[ai][vi] = true;
                continue;
            }
            let key = pseudo_angle(v.x - pivot.x, v.y - pivot.y);
            if arcs.iter().any(|&range| in_range(key, range)) {
                events.push(Event {
                    pos: v,
                    key,
                    obstacle: ai,
                    vertex: vi,
                });
            }
        }
    }
    if pivot_class.inside {
        // A pivot strictly inside an obstacle sees nothing and its rays
        // are all blocked at the surrounding boundary: horizon closed.
        return result;
    }
    if events.is_empty() {
        result
            .open
            .extend(arcs.iter().map(|range| range.unwrap_or((0.0, 4.0))));
        return result;
    }
    // Near-sort by the cheap pseudo-angle key, then restore the *exact*
    // order (angular, near-to-far on a ray) with one insertion pass —
    // the float key can only misorder near-identical directions, so the
    // pass is O(n) amortized while the result matches `angular_cmp`
    // everywhere (within a non-wrapping range, absolute angular order is
    // the sweep order).
    events.sort_by_cached_key(|e| e.key.to_bits());
    for i in 1..events.len() {
        let mut j = i;
        while j > 0
            && angular_cmp(pivot, events[j - 1].pos, events[j].pos) == std::cmp::Ordering::Greater
        {
            events.swap(j - 1, j);
            j -= 1;
        }
    }

    // ---- Edge table from active obstacles (skip edges incident to the
    // pivot: they only touch sight lines at the pivot and cannot block;
    // the pivot's interior cones handle blocking there).
    let mut edges: Vec<Edge> = Vec::new();
    // A vertex has at most two incident edges: one `[u32; 2]` per active
    // vertex (filled in edge order), obstacle `ai`'s at `first_vertex[ai]`.
    let mut first_vertex: Vec<usize> = Vec::with_capacity(active.len());
    let mut total = 0usize;
    for &oi in active {
        first_vertex.push(total);
        total += polys[oi].len();
    }
    let mut incident: Vec<[u32; 2]> = vec![[NO_EDGE; 2]; total];
    for (ai, &oi) in active.iter().enumerate() {
        let poly = &polys[oi];
        let n = poly.len();
        for vi in 0..n {
            let s = poly.edge(vi);
            if s.a == pivot || s.b == pivot {
                continue;
            }
            let idx = edges.len() as u32;
            edges.push(Edge { a: s.a, b: s.b });
            for v in [vi, (vi + 1) % n] {
                let slot = &mut incident[first_vertex[ai] + v];
                slot[usize::from(slot[0] != NO_EDGE)] = idx;
            }
        }
    }
    let incident_edges = |ev: &Event| {
        incident[first_vertex[ev.obstacle] + ev.vertex]
            .into_iter()
            .filter(|&ei| ei != NO_EDGE)
            .map(|ei| ei as usize)
    };
    // Openness test: is the nearest properly-crossing edge along the ray
    // through `target` certifiably within the window radius?
    let edges_ref = &edges;
    let front_open = |status: &[usize], target: Point| -> bool {
        match status.first() {
            Some(&front) => {
                ray_t(pivot, target, &edges_ref[front]) >= radius - 1e-9 * (1.0 + radius)
            }
            None => true,
        }
    };

    let mut in_arc: Vec<Event> = Vec::new();
    for range in arcs {
        let events = match range {
            None => &events,
            Some(_) => {
                in_arc.clear();
                in_arc.extend(events.iter().filter(|ev| in_range(ev.key, range)));
                &in_arc
            }
        };
        if events.is_empty() {
            // Only a range can be empty here; nothing in it to sweep.
            result.open.extend(range);
            continue;
        }

        // ---- Initial status: edges properly crossing the sweep's start
        // ray (the +x axis, or the ray at `a0` when ranged).
        let init_dir = match range {
            None => Point::new(pivot.x + 1.0, pivot.y),
            Some((a0, _)) => {
                let d = pseudo_dir(a0);
                Point::new(pivot.x + d.x, pivot.y + d.y)
            }
        };
        let mut status: Vec<usize> = Vec::new();
        match range {
            None => {
                // Exact horizontal-line sidedness (pure comparisons).
                for (ei, e) in edges.iter().enumerate() {
                    let sa = e.a.y - pivot.y;
                    let sb = e.b.y - pivot.y;
                    if (sa > 0.0 && sb < 0.0) || (sa < 0.0 && sb > 0.0) {
                        let t =
                            e.a.x + (pivot.y - e.a.y) * (e.b.x - e.a.x) / (e.b.y - e.a.y) - pivot.x;
                        if t > 0.0 {
                            status.push(ei);
                        }
                    }
                }
            }
            Some(_) => {
                // Robust sidedness against an arbitrary start ray.
                for (ei, e) in edges.iter().enumerate() {
                    let oa = orient2d(pivot, init_dir, e.a);
                    let ob = orient2d(pivot, init_dir, e.b);
                    let proper = matches!(
                        (oa, ob),
                        (Orientation::CounterClockwise, Orientation::Clockwise)
                            | (Orientation::Clockwise, Orientation::CounterClockwise)
                    );
                    if proper {
                        let t = ray_t(pivot, init_dir, e);
                        if t > 0.0 && t.is_finite() {
                            status.push(ei);
                        }
                    }
                }
            }
        }
        status.sort_by(|&x, &y| {
            obstacle_geom::total_cmp(
                ray_t(pivot, init_dir, &edges[x]),
                ray_t(pivot, init_dir, &edges[y]),
            )
        });

        // ---- Sweep.
        let mut first_boundary: Option<(f64, bool)> = None; // (pseudo-angle, arrive-open)
        let mut prev_boundary: Option<(f64, bool)> = None; // (pseudo-angle, leave-open)
        if let Some((a0, _)) = range {
            // The range start is a boundary of the first arc.
            let open = front_open(&status, init_dir);
            prev_boundary = Some((a0, open));
        }
        let mut gi = 0usize;
        while gi < events.len() {
            let mut gj = gi + 1;
            while gj < events.len() && same_ray(pivot, events[gi].pos, events[gj].pos) {
                gj += 1;
            }
            let group = &events[gi..gj];
            let ray_target = group[0].pos;
            let theta = pseudo_angle(ray_target.x - pivot.x, ray_target.y - pivot.y);

            // Openness of the arc ending at this ray.
            let arrive_open = front_open(&status, ray_target);
            match prev_boundary {
                Some((prev_theta, leave_open)) => {
                    if leave_open || arrive_open {
                        result.open.push((prev_theta, theta));
                    }
                }
                None => first_boundary = Some((theta, arrive_open)),
            }

            // Phase A: remove edges ending at this ray.
            for ev in group {
                for ei in incident_edges(ev) {
                    let other = other_endpoint(&edges[ei], ev.pos);
                    if orient2d(pivot, ev.pos, other) == Orientation::Clockwise {
                        if let Some(p) = status.iter().position(|&s| s == ei) {
                            status.remove(p);
                        }
                    }
                }
            }

            // Phase B: visibility, near to far along the ray.
            let mut chain_blocked = false;
            let mut prev_pos = pivot;
            let mut prev_visible = true;
            let mut prev_attachments: &[(usize, BoundaryAttachment)] = &[];
            for ev in group {
                let dw = pivot.dist(ev.pos);
                let class = &vertex_class[active[ev.obstacle]][ev.vertex];
                let visible;
                if ev.pos == prev_pos {
                    visible = prev_visible;
                } else {
                    if !chain_blocked && enters(prev_attachments, ev.pos) {
                        chain_blocked = true;
                    }
                    let mut blocked = chain_blocked || class.inside;
                    if !blocked {
                        if let Some(&front) = status.first() {
                            let t = ray_t(pivot, ray_target, &edges[front]);
                            if t < dw - 1e-9 * (1.0 + dw) {
                                blocked = true;
                            }
                        }
                    }
                    if !blocked && enters(&pivot_class.attachments, ev.pos) {
                        blocked = true;
                    }
                    if !blocked && enters(&class.attachments, pivot) {
                        blocked = true;
                    }
                    visible = !blocked;
                    if blocked {
                        chain_blocked = true;
                    }
                    prev_pos = ev.pos;
                    prev_visible = visible;
                    prev_attachments = &class.attachments;
                }
                result.vertices[ev.obstacle][ev.vertex] = visible;
            }

            // Phase C: insert edges beginning at this ray.
            for ev in group {
                for ei in incident_edges(ev) {
                    let other = other_endpoint(&edges[ei], ev.pos);
                    if orient2d(pivot, ev.pos, other) == Orientation::CounterClockwise {
                        insert_into_status(&mut status, &edges, pivot, ray_target, ei, ev.pos);
                    }
                }
            }

            prev_boundary = Some((theta, front_open(&status, ray_target)));
            gi = gj;
        }

        match range {
            None => {
                // Wrap-around arc from the last group back to the first.
                if let (Some((last_theta, leave_open)), Some((first_theta, arrive_open))) =
                    (prev_boundary, first_boundary)
                {
                    if leave_open || arrive_open {
                        result.open.push((last_theta, first_theta));
                    }
                }
            }
            Some((_, a1)) => {
                // The range end is the final arc boundary.
                let d = pseudo_dir(a1);
                let end_dir = Point::new(pivot.x + d.x, pivot.y + d.y);
                let end_open = front_open(&status, end_dir);
                if let Some((last_theta, leave_open)) = prev_boundary {
                    if leave_open || end_open {
                        result.open.push((last_theta, a1));
                    }
                }
            }
        }
    }
    result
}

/// Direction (L1-unit vector) for a [`pseudo_angle`] key in `[0, 4]` —
/// the exact inverse of `pseudo_angle` up to scale.
fn pseudo_dir(key: f64) -> Point {
    if key < 2.0 {
        let p = 1.0 - key;
        Point::new(p, 1.0 - p.abs())
    } else {
        let p = key - 3.0;
        Point::new(p, -(1.0 - p.abs()))
    }
}

/// Inserts edge `ei` (incident to the event point `w` on the current ray)
/// into the status, keeping it sorted by crossing distance. Ties at the
/// same crossing point (sibling edges fanning out of `w`) are broken by
/// which edge the rotating ray will cross closer *after* leaving the
/// current angle: the edge making the larger CCW angle with the ray dives
/// toward the pivot faster.
fn insert_into_status(
    status: &mut Vec<usize>,
    edges: &[Edge],
    pivot: Point,
    through: Point,
    ei: usize,
    w: Point,
) {
    let dw = pivot.dist(w);
    let eps = 1e-9 * (1.0 + dw);
    let mut lo = status.partition_point(|&s| ray_t(pivot, through, &edges[s]) < dw - eps);
    // Walk over near-ties and order by the rotation rule.
    while lo < status.len() {
        let t = ray_t(pivot, through, &edges[status[lo]]);
        if t > dw + eps {
            break;
        }
        let sib = &edges[status[lo]];
        // Only meaningful when the tied edge also emanates from w.
        if sib.a == w || sib.b == w {
            let x_new = other_endpoint(&edges[ei], w);
            let x_sib = other_endpoint(sib, w);
            // New edge goes first iff its far end is clockwise of the
            // sibling's (larger CCW angle from the ray ⇒ crosses closer
            // after rotation).
            if orient2d(w, x_new, x_sib) == Orientation::Clockwise {
                break;
            }
        }
        lo += 1;
    }
    status.insert(lo, ei);
}
