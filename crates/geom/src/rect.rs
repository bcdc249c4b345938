//! Axis-aligned rectangles (minimum bounding rectangles).
//!
//! `Rect` is the MBR type used by the R*-tree: entries, node regions and the
//! `mindist` pruning metrics of the query algorithms (best-first NN search
//! [HS99], R-tree join [BKS93], incremental closest pairs [CMTV00]) are all
//! defined on it.

use crate::Point;

/// An axis-aligned rectangle, stored as its min / max corners.
///
/// Degenerate rectangles (zero width and/or height) are valid and are used
/// to index points.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Rect {
    /// Lower-left corner.
    pub min: Point,
    /// Upper-right corner.
    pub max: Point,
}

impl Rect {
    /// Creates a rectangle from two corners; the corners are normalised so
    /// `min ≤ max` per coordinate.
    pub fn new(a: Point, b: Point) -> Self {
        Rect {
            min: Point::new(a.x.min(b.x), a.y.min(b.y)),
            max: Point::new(a.x.max(b.x), a.y.max(b.y)),
        }
    }

    /// Creates the rectangle `[x0, x1] × [y0, y1]`.
    pub fn from_coords(x0: f64, y0: f64, x1: f64, y1: f64) -> Self {
        Rect::new(Point::new(x0, y0), Point::new(x1, y1))
    }

    /// The degenerate rectangle covering exactly one point.
    #[inline]
    pub fn from_point(p: Point) -> Self {
        Rect { min: p, max: p }
    }

    /// An "empty" rectangle that acts as the identity for [`Rect::union`].
    pub fn empty() -> Self {
        Rect {
            min: Point::new(f64::INFINITY, f64::INFINITY),
            max: Point::new(f64::NEG_INFINITY, f64::NEG_INFINITY),
        }
    }

    /// Whether this is the identity rectangle produced by [`Rect::empty`].
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.min.x > self.max.x || self.min.y > self.max.y
    }

    /// Width along the x axis.
    #[inline]
    pub fn width(&self) -> f64 {
        (self.max.x - self.min.x).max(0.0)
    }

    /// Height along the y axis.
    #[inline]
    pub fn height(&self) -> f64 {
        (self.max.y - self.min.y).max(0.0)
    }

    /// Area of the rectangle (zero for degenerate rectangles).
    #[inline]
    pub fn area(&self) -> f64 {
        if self.is_empty() {
            0.0
        } else {
            self.width() * self.height()
        }
    }

    /// Half-perimeter (the *margin* used by the R* split algorithm).
    #[inline]
    pub fn margin(&self) -> f64 {
        if self.is_empty() {
            0.0
        } else {
            self.width() + self.height()
        }
    }

    /// Center point.
    #[inline]
    pub fn center(&self) -> Point {
        Point::new(
            (self.min.x + self.max.x) * 0.5,
            (self.min.y + self.max.y) * 0.5,
        )
    }

    /// Smallest rectangle containing both `self` and `other`.
    pub fn union(&self, other: &Rect) -> Rect {
        Rect {
            min: Point::new(self.min.x.min(other.min.x), self.min.y.min(other.min.y)),
            max: Point::new(self.max.x.max(other.max.x), self.max.y.max(other.max.y)),
        }
    }

    /// Whether the closed rectangles share at least one point.
    #[inline]
    pub fn intersects(&self, other: &Rect) -> bool {
        self.min.x <= other.max.x
            && other.min.x <= self.max.x
            && self.min.y <= other.max.y
            && other.min.y <= self.max.y
    }

    /// Area of the intersection of the two rectangles.
    pub fn intersection_area(&self, other: &Rect) -> f64 {
        let w = (self.max.x.min(other.max.x) - self.min.x.max(other.min.x)).max(0.0);
        let h = (self.max.y.min(other.max.y) - self.min.y.max(other.min.y)).max(0.0);
        w * h
    }

    /// Whether `p` lies inside the closed rectangle.
    #[inline]
    pub fn contains_point(&self, p: Point) -> bool {
        p.x >= self.min.x && p.x <= self.max.x && p.y >= self.min.y && p.y <= self.max.y
    }

    /// Whether `other` lies fully inside `self` (closed containment).
    #[inline]
    pub fn contains_rect(&self, other: &Rect) -> bool {
        self.min.x <= other.min.x
            && self.min.y <= other.min.y
            && self.max.x >= other.max.x
            && self.max.y >= other.max.y
    }

    /// Area increase required to enlarge `self` to also cover `other` —
    /// the R-tree `ChooseSubtree` metric.
    pub fn enlargement(&self, other: &Rect) -> f64 {
        self.union(other).area() - self.area()
    }

    /// `mindist(p, R)`: the smallest Euclidean distance from `p` to any
    /// point of the rectangle. Zero when `p` is inside. This is the
    /// lower-bound metric driving best-first NN search \[HS99\].
    pub fn mindist_point(&self, p: Point) -> f64 {
        self.mindist_point_sq(p).sqrt()
    }

    /// Squared version of [`Rect::mindist_point`].
    pub fn mindist_point_sq(&self, p: Point) -> f64 {
        let dx = (self.min.x - p.x).max(0.0).max(p.x - self.max.x);
        let dy = (self.min.y - p.y).max(0.0).max(p.y - self.max.y);
        dx * dx + dy * dy
    }

    /// `mindist(R1, R2)`: smallest Euclidean distance between any two
    /// points of the rectangles; zero when they intersect. Drives the
    /// R-tree join and closest-pair pruning [BKS93, CMTV00].
    pub fn mindist_rect(&self, other: &Rect) -> f64 {
        self.mindist_rect_sq(other).sqrt()
    }

    /// Squared version of [`Rect::mindist_rect`].
    pub fn mindist_rect_sq(&self, other: &Rect) -> f64 {
        let dx = (other.min.x - self.max.x)
            .max(0.0)
            .max(self.min.x - other.max.x);
        let dy = (other.min.y - self.max.y)
            .max(0.0)
            .max(self.min.y - other.max.y);
        dx * dx + dy * dy
    }

    /// Largest possible distance from `p` to a point of the rectangle.
    pub fn maxdist_point(&self, p: Point) -> f64 {
        let dx = (p.x - self.min.x).abs().max((p.x - self.max.x).abs());
        let dy = (p.y - self.min.y).abs().max((p.y - self.max.y).abs());
        (dx * dx + dy * dy).sqrt()
    }

    /// The four corners in counter-clockwise order starting at `min`.
    pub fn corners(&self) -> [Point; 4] {
        [
            self.min,
            Point::new(self.max.x, self.min.y),
            self.max,
            Point::new(self.min.x, self.max.y),
        ]
    }

    /// Expands the rectangle by `r` on every side (an `e`-range query disk
    /// centred at `q` is conservatively approximated by
    /// `Rect::from_point(q).expanded(e)` before the exact disk test).
    pub fn expanded(&self, r: f64) -> Rect {
        Rect {
            min: Point::new(self.min.x - r, self.min.y - r),
            max: Point::new(self.max.x + r, self.max.y + r),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(x0: f64, y0: f64, x1: f64, y1: f64) -> Rect {
        Rect::from_coords(x0, y0, x1, y1)
    }

    #[test]
    fn construction_normalises_corners() {
        let a = Rect::new(Point::new(2.0, 3.0), Point::new(0.0, 1.0));
        assert_eq!(a, r(0.0, 1.0, 2.0, 3.0));
    }

    #[test]
    fn area_margin_center() {
        let a = r(0.0, 0.0, 4.0, 2.0);
        assert_eq!(a.area(), 8.0);
        assert_eq!(a.margin(), 6.0);
        assert_eq!(a.center(), Point::new(2.0, 1.0));
    }

    #[test]
    fn empty_rect_is_union_identity() {
        let e = Rect::empty();
        let a = r(1.0, 1.0, 2.0, 2.0);
        assert!(e.is_empty());
        assert_eq!(e.area(), 0.0);
        assert_eq!(e.union(&a), a);
        assert_eq!(a.union(&e), a);
    }

    #[test]
    fn union_covers_both() {
        let a = r(0.0, 0.0, 1.0, 1.0);
        let b = r(2.0, -1.0, 3.0, 0.5);
        let u = a.union(&b);
        assert!(u.contains_rect(&a));
        assert!(u.contains_rect(&b));
        assert_eq!(u, r(0.0, -1.0, 3.0, 1.0));
    }

    #[test]
    fn intersection_tests() {
        let a = r(0.0, 0.0, 2.0, 2.0);
        assert!(a.intersects(&r(1.0, 1.0, 3.0, 3.0)));
        assert!(a.intersects(&r(2.0, 2.0, 3.0, 3.0))); // corner touch
        assert!(!a.intersects(&r(2.1, 2.1, 3.0, 3.0)));
        assert_eq!(a.intersection_area(&r(1.0, 1.0, 3.0, 3.0)), 1.0);
        assert_eq!(a.intersection_area(&r(5.0, 5.0, 6.0, 6.0)), 0.0);
    }

    #[test]
    fn point_containment() {
        let a = r(0.0, 0.0, 1.0, 1.0);
        assert!(a.contains_point(Point::new(0.5, 0.5)));
        assert!(a.contains_point(Point::new(0.0, 1.0))); // boundary
        assert!(!a.contains_point(Point::new(1.5, 0.5)));
    }

    #[test]
    fn mindist_point_cases() {
        let a = r(0.0, 0.0, 2.0, 2.0);
        assert_eq!(a.mindist_point(Point::new(1.0, 1.0)), 0.0); // inside
        assert_eq!(a.mindist_point(Point::new(3.0, 1.0)), 1.0); // right
        assert_eq!(a.mindist_point(Point::new(-3.0, 1.0)), 3.0); // left
        assert_eq!(a.mindist_point(Point::new(3.0, 3.0)), 2f64.sqrt()); // corner
    }

    #[test]
    fn mindist_rect_cases() {
        let a = r(0.0, 0.0, 1.0, 1.0);
        assert_eq!(a.mindist_rect(&r(0.5, 0.5, 2.0, 2.0)), 0.0); // overlap
        assert_eq!(a.mindist_rect(&r(3.0, 0.0, 4.0, 1.0)), 2.0); // beside
        assert_eq!(a.mindist_rect(&r(2.0, 2.0, 3.0, 3.0)), 2f64.sqrt()); // diagonal
    }

    #[test]
    fn maxdist_point_is_farthest_corner() {
        let a = r(0.0, 0.0, 2.0, 2.0);
        assert_eq!(a.maxdist_point(Point::new(0.0, 0.0)), 8f64.sqrt());
        assert_eq!(a.maxdist_point(Point::new(1.0, 1.0)), 2f64.sqrt());
    }

    #[test]
    fn enlargement_metric() {
        let a = r(0.0, 0.0, 1.0, 1.0);
        assert_eq!(a.enlargement(&r(0.2, 0.2, 0.8, 0.8)), 0.0);
        assert_eq!(a.enlargement(&r(0.0, 0.0, 2.0, 1.0)), 1.0);
    }

    #[test]
    fn corners_are_ccw() {
        let a = r(0.0, 0.0, 1.0, 2.0);
        let c = a.corners();
        assert_eq!(c[0], Point::new(0.0, 0.0));
        assert_eq!(c[1], Point::new(1.0, 0.0));
        assert_eq!(c[2], Point::new(1.0, 2.0));
        assert_eq!(c[3], Point::new(0.0, 2.0));
    }

    #[test]
    fn expanded_grows_all_sides() {
        let a = Rect::from_point(Point::new(1.0, 1.0)).expanded(0.5);
        assert_eq!(a, r(0.5, 0.5, 1.5, 1.5));
    }

    #[test]
    fn degenerate_point_rect() {
        let a = Rect::from_point(Point::new(1.0, 2.0));
        assert_eq!(a.area(), 0.0);
        assert!(!a.is_empty());
        assert!(a.contains_point(Point::new(1.0, 2.0)));
        assert_eq!(a.mindist_point(Point::new(1.0, 5.0)), 3.0);
    }
}
