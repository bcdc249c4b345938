//! Incremental closest-pair search over two R-trees \[HS98, CMTV00\].
//!
//! A best-first traversal over *pairs*: the priority queue holds
//! node/node, node/item and item/item pairs keyed by the `mindist` of
//! their rectangles. Popping an item/item pair yields it; popping a pair
//! containing a node expands that node (one side at a time, choosing the
//! node with the larger MBR area, per Hjaltason & Samet's unbalanced
//! expansion). The iterator therefore reports object pairs in
//! non-decreasing distance order and can be consumed lazily — exactly what
//! the paper's OCP and iOCP algorithms require. The two sides are
//! independently generic over [`TreeBackend`] (defaulting to the paged
//! [`RTree`]), so the same traversal serves both storage backends.

use crate::backend::{NodeRef, TreeBackend};
use crate::entry::{Entry, Item};
use crate::tree::RTree;
use obstacle_geom::OrdF64;
use obstacle_geom::Rect;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Side {
    Node(NodeRef),
    Object(u64),
}

/// Level of a node side on backend `B` (expansion heuristic helper);
/// objects rank below every node.
fn side_level<B: TreeBackend>(tree: &B, side: Side) -> u32 {
    match side {
        Side::Node(n) => tree.node_level(n),
        Side::Object(_) => 0,
    }
}

#[derive(Debug, Clone, Copy)]
struct PairEntry {
    dist: Reverse<OrdF64>,
    // Tie-break: resolved pairs (two objects) surface before unresolved
    // ones at the same distance, guaranteeing progress.
    resolved: bool,
    left: Side,
    right: Side,
    lmbr: Rect,
    rmbr: Rect,
}

impl PartialEq for PairEntry {
    fn eq(&self, other: &Self) -> bool {
        self.dist == other.dist && self.resolved == other.resolved
    }
}
impl Eq for PairEntry {}
impl PartialOrd for PairEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for PairEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.dist
            .cmp(&other.dist)
            .then_with(|| self.resolved.cmp(&other.resolved))
    }
}

/// Incremental closest-pairs iterator; yields `(left_item, right_item,
/// distance)` in non-decreasing distance order.
pub struct ClosestPairs<'a, L: TreeBackend = RTree, R: TreeBackend = RTree> {
    left: &'a L,
    right: &'a R,
    heap: BinaryHeap<PairEntry>,
    scratch: Vec<Entry>,
}

impl<'a, L: TreeBackend, R: TreeBackend> ClosestPairs<'a, L, R> {
    /// Starts an incremental closest-pair computation between two trees.
    pub fn new(left: &'a L, right: &'a R) -> Self {
        let mut heap = BinaryHeap::new();
        if let (Some(lroot), Some(rroot)) = (left.root_node(), right.root_node()) {
            let lmbr = left.root_mbr();
            let rmbr = right.root_mbr();
            heap.push(PairEntry {
                dist: Reverse(OrdF64::new(lmbr.mindist_rect(&rmbr))),
                resolved: false,
                left: Side::Node(lroot),
                right: Side::Node(rroot),
                lmbr,
                rmbr,
            });
        }
        ClosestPairs {
            left,
            right,
            heap,
            scratch: Vec::new(),
        }
    }

    /// Lower bound on the distance of every pair yet to be produced.
    pub fn peek_dist(&self) -> Option<f64> {
        self.heap.peek().map(|e| e.dist.0 .0)
    }

    /// Expands `entry` by opening one of its node sides.
    fn expand(&mut self, entry: PairEntry) {
        // Choose which side to open: prefer the side that is a node when
        // the other is an object; otherwise open the larger-area node.
        let open_left = match (entry.left, entry.right) {
            (Side::Node(_), Side::Object(_)) => true,
            (Side::Object(_), Side::Node(_)) => false,
            (Side::Node(_), Side::Node(_)) => {
                let (ln, rn) = (
                    side_level(self.left, entry.left),
                    side_level(self.right, entry.right),
                );
                match ln.cmp(&rn) {
                    std::cmp::Ordering::Greater => true,
                    std::cmp::Ordering::Less => false,
                    std::cmp::Ordering::Equal => entry.lmbr.area() >= entry.rmbr.area(),
                }
            }
            (Side::Object(_), Side::Object(_)) => unreachable!("resolved pairs are yielded"),
        };

        if open_left {
            let Side::Node(node) = entry.left else {
                unreachable!()
            };
            let mut entries = std::mem::take(&mut self.scratch);
            let leaf = self.left.read_node_into(node, &mut entries) == 0;
            for e in &entries {
                let (side, mbr) = if leaf {
                    (Side::Object(e.ptr), e.mbr)
                } else {
                    (Side::Node(e.ptr), e.mbr)
                };
                let resolved =
                    matches!(side, Side::Object(_)) && matches!(entry.right, Side::Object(_));
                self.heap.push(PairEntry {
                    dist: Reverse(OrdF64::new(mbr.mindist_rect(&entry.rmbr))),
                    resolved,
                    left: side,
                    right: entry.right,
                    lmbr: mbr,
                    rmbr: entry.rmbr,
                });
            }
            self.scratch = entries;
        } else {
            let Side::Node(node) = entry.right else {
                unreachable!()
            };
            let mut entries = std::mem::take(&mut self.scratch);
            let leaf = self.right.read_node_into(node, &mut entries) == 0;
            for e in &entries {
                let (side, mbr) = if leaf {
                    (Side::Object(e.ptr), e.mbr)
                } else {
                    (Side::Node(e.ptr), e.mbr)
                };
                let resolved =
                    matches!(side, Side::Object(_)) && matches!(entry.left, Side::Object(_));
                self.heap.push(PairEntry {
                    dist: Reverse(OrdF64::new(entry.lmbr.mindist_rect(&mbr))),
                    resolved,
                    left: entry.left,
                    right: side,
                    lmbr: entry.lmbr,
                    rmbr: mbr,
                });
            }
            self.scratch = entries;
        }
    }
}

impl<L: TreeBackend, R: TreeBackend> Iterator for ClosestPairs<'_, L, R> {
    type Item = (Item, Item, f64);

    fn next(&mut self) -> Option<(Item, Item, f64)> {
        while let Some(entry) = self.heap.pop() {
            match (entry.left, entry.right) {
                (Side::Object(l), Side::Object(r)) => {
                    return Some((
                        Item::new(entry.lmbr, l),
                        Item::new(entry.rmbr, r),
                        entry.dist.0 .0,
                    ));
                }
                _ => self.expand(entry),
            }
        }
        None
    }
}

impl RTree {
    /// Incremental closest pairs between `self` (left) and `other`
    /// (right); see [`ClosestPairs`].
    pub fn closest_pairs<'a>(&'a self, other: &'a RTree) -> ClosestPairs<'a> {
        ClosestPairs::new(self, other)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RTreeConfig;
    use obstacle_geom::Point;

    fn points_tree(pts: &[(f64, f64)], cap: usize) -> RTree {
        RTree::build(
            RTreeConfig::tiny(cap),
            pts.iter()
                .enumerate()
                .map(|(i, &(x, y))| Item::point(Point::new(x, y), i as u64)),
        )
    }

    fn brute_pairs(a: &[(f64, f64)], b: &[(f64, f64)]) -> Vec<f64> {
        let mut d = Vec::new();
        for &(ax, ay) in a {
            for &(bx, by) in b {
                d.push(Point::new(ax, ay).dist(Point::new(bx, by)));
            }
        }
        d.sort_by(|x, y| obstacle_geom::total_cmp(*x, *y));
        d
    }

    #[test]
    fn first_pair_is_global_minimum() {
        let a = vec![(0.0, 0.0), (4.0, 4.0), (9.0, 1.0)];
        let b = vec![(5.0, 5.0), (0.5, 0.0), (2.0, 8.0)];
        let ta = points_tree(&a, 4);
        let tb = points_tree(&b, 4);
        let (s, t, d) = ta.closest_pairs(&tb).next().unwrap();
        assert_eq!((s.id, t.id), (0, 1));
        assert!((d - 0.5).abs() < 1e-12);
    }

    #[test]
    fn full_enumeration_matches_brute_force() {
        let a: Vec<(f64, f64)> = (0..25)
            .map(|i| ((i % 5) as f64 * 1.3, (i / 5) as f64 * 0.7))
            .collect();
        let b: Vec<(f64, f64)> = (0..20)
            .map(|i| ((i % 4) as f64 * 0.9 + 0.2, (i / 4) as f64 * 1.1 + 0.1))
            .collect();
        let ta = points_tree(&a, 3);
        let tb = points_tree(&b, 4);
        let got: Vec<f64> = ta.closest_pairs(&tb).map(|(_, _, d)| d).collect();
        let expect = brute_pairs(&a, &b);
        assert_eq!(got.len(), expect.len());
        for (g, e) in got.iter().zip(expect.iter()) {
            assert!((g - e).abs() < 1e-9, "{g} vs {e}");
        }
    }

    #[test]
    fn non_decreasing_distances() {
        let a: Vec<(f64, f64)> = (0..50)
            .map(|i| (i as f64 * 0.37 % 7.0, i as f64 * 0.71 % 5.0))
            .collect();
        let b: Vec<(f64, f64)> = (0..50)
            .map(|i| (i as f64 * 0.53 % 6.0, i as f64 * 0.29 % 4.0))
            .collect();
        let ta = points_tree(&a, 4);
        let tb = points_tree(&b, 4);
        let mut prev = -1.0;
        for (_, _, d) in ta.closest_pairs(&tb).take(500) {
            assert!(d + 1e-12 >= prev);
            prev = d;
        }
    }

    #[test]
    fn peek_dist_bounds_next() {
        let a = vec![(0.0, 0.0), (1.0, 1.0)];
        let b = vec![(3.0, 3.0), (0.2, 0.0)];
        let ta = points_tree(&a, 4);
        let tb = points_tree(&b, 4);
        let mut it = ta.closest_pairs(&tb);
        let bound = it.peek_dist().unwrap();
        let (_, _, d) = it.next().unwrap();
        assert!(d >= bound - 1e-12);
    }

    #[test]
    fn empty_side_yields_nothing() {
        let empty = RTree::new(RTreeConfig::tiny(4));
        let t = points_tree(&[(0.0, 0.0)], 4);
        assert!(t.closest_pairs(&empty).next().is_none());
        assert!(empty.closest_pairs(&t).next().is_none());
    }
}
