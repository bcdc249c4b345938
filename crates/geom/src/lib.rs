//! Computational-geometry kernel for the obstacle spatial-query reproduction
//! (Zhang et al., *Spatial Queries in the Presence of Obstacles*, EDBT 2004).
//!
//! This crate provides the primitives every other crate in the workspace is
//! built on:
//!
//! * [`Point`], [`Segment`], [`Rect`] and simple [`Polygon`]s,
//! * robust orientation predicates ([`orient2d`]) with an adaptive
//!   floating-point filter and an exact expansion-arithmetic fallback,
//! * segment/segment and segment/polygon-interior intersection tests — the
//!   latter is the exact notion of "a sight line is blocked by an obstacle"
//!   used by visibility graphs,
//! * angular comparison around a pivot (used by the rotational plane sweep
//!   of Sharir & Schorr \[SS84\]),
//! * a Hilbert space-filling curve (used by the ODJ algorithm of the paper
//!   to order join seeds for obstacle R-tree locality),
//! * [`PackedIndex`], the one static packed R-tree layout: Hilbert pack,
//!   stack descent and structural validation behind both the packed tree
//!   backend and the lazy visibility scene's obstacle index.
//!
//! Obstacles in the paper are polygons whose *interior* is impassable;
//! their boundary is walkable. All blocking tests in this crate therefore
//! test for intersection with the **open interior** of a polygon.

#![warn(missing_docs)]

pub mod check;
pub mod rng;

mod angle;
mod hilbert;
mod hull;
pub mod order;
mod packed;
mod point;
mod polygon;
mod predicates;
mod rect;
mod segment;

pub use angle::{angular_cmp, pseudo_angle, AngularOrder};
pub use hilbert::{hilbert_index, hilbert_index_unit, HILBERT_ORDER};
pub use hull::convex_hull;
pub use order::{sort_by_f64_key, total_cmp, OrdF64};
pub use packed::PackedIndex;
pub use point::Point;
pub use polygon::{BoundaryAttachment, PointLocation, Polygon, PolygonError};
pub use predicates::{orient2d, orient2d_exact, Orientation};
pub use rect::Rect;
pub use segment::{
    intersection_params, proper_crossing, segment_point_distance, segments_intersect, Segment,
    SmallParams,
};

/// Tolerance used for non-critical comparisons (e.g. deduplicating
/// parameters along a segment). Critical sidedness decisions always go
/// through the robust [`orient2d`] predicate instead.
pub const EPS: f64 = 1e-12;
