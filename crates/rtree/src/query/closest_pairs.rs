//! Incremental closest-pair search over two R-trees \[HS98, CMTV00\].
//!
//! A best-first traversal over *pairs*: the priority queue holds
//! node/node, object/node and object/object pairs, each keyed by a lower
//! bound on the distance of every object pair beneath it. Popping an
//! object/object pair yields it; popping a pair containing a node expands
//! that node (one side at a time: the higher node, or the one with the
//! larger MBR area at equal levels, per Hjaltason & Samet's unbalanced
//! expansion). The iterator therefore reports object pairs in
//! non-decreasing distance order and can be consumed lazily — exactly what
//! the paper's OCP and iOCP algorithms require. The two sides are
//! independently generic over [`TreeBackend`] (defaulting to the paged
//! [`RTree`]), so the same traversal serves both storage backends.
//!
//! **Exact leaf keys.** A node pair is keyed by the `mindist` of the two
//! MBRs. An object paired with a *leaf* is not: when a leaf is opened
//! against another leaf, that other leaf is read once and each object is
//! keyed by its exact minimum distance to the leaf's entries. The key is
//! still a lower bound on every pair beneath it — it *equals* the
//! smallest one — so yields stay non-decreasing. It matters because two
//! trees over the same region overlap everywhere: keyed by `mindist` to
//! the leaf MBR, every object lying inside the other tree's leaf would
//! get key 0, and all of them would be opened (one leaf read and a full
//! leaf of pushes each) before the first pair at a positive distance
//! could be returned.

use crate::backend::{NodeRef, TreeBackend};
use crate::entry::{Entry, Item};
use crate::tree::RTree;
use obstacle_geom::{total_cmp, OrdF64, Rect};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Side {
    /// A node and its level (0 = leaf).
    Node(NodeRef, u32),
    Object(u64),
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
    partner: Vec<Entry>,
    keys: Vec<f64>,
}

/// Reads `node` of `tree` into `entries` and returns its level, with
/// `keys[i]` the key of pairing `entries[i]` with the side `other` (MBR
/// `other_mbr`) of `other_tree`. A leaf opened against a leaf reads that
/// leaf into `partner` once and keys each object by its exact distance
/// to the nearest partner entry (see the module docs).
#[allow(clippy::too_many_arguments)]
fn open_node<T: TreeBackend, U: TreeBackend>(
    tree: &T,
    node: NodeRef,
    other_tree: &U,
    other: Side,
    other_mbr: &Rect,
    entries: &mut Vec<Entry>,
    partner: &mut Vec<Entry>,
    keys: &mut Vec<f64>,
) -> u32 {
    let level = tree.read_node_into(node, entries);
    keys.clear();
    if let (0, Side::Node(leaf, 0)) = (level, other) {
        other_tree.read_node_into(leaf, partner);
        partner.sort_unstable_by(|a, b| total_cmp(a.mbr.min.x, b.mbr.min.x));
        let width = partner
            .iter()
            .fold(0.0, |w: f64, p| w.max(p.mbr.max.x - p.mbr.min.x));
        keys.extend(
            entries
                .iter()
                .map(|e| nearest_sq(&e.mbr, partner, width).sqrt()),
        );
    } else {
        keys.extend(entries.iter().map(|e| e.mbr.mindist_rect(other_mbr)));
    }
    level
}

/// Smallest `mindist_rect_sq` from `r` to an entry of `partner`, which
/// is sorted by `min.x` and holds entries at most `width` wide. Scans
/// outwards from `r` and stops on each side once the x gap alone is no
/// smaller than the best distance so far.
fn nearest_sq(r: &Rect, partner: &[Entry], width: f64) -> f64 {
    let mid = partner.partition_point(|p| p.mbr.min.x < r.min.x);
    let mut best = f64::INFINITY;
    for p in &partner[mid..] {
        let gap = p.mbr.min.x - r.max.x;
        if gap > 0.0 && gap * gap >= best {
            break;
        }
        best = best.min(r.mindist_rect_sq(&p.mbr));
    }
    for p in partner[..mid].iter().rev() {
        let gap = r.min.x - (p.mbr.min.x + width);
        if gap > 0.0 && gap * gap >= best {
            break;
        }
        best = best.min(r.mindist_rect_sq(&p.mbr));
    }
    best
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
                left: Side::Node(lroot, left.node_level(lroot)),
                right: Side::Node(rroot, right.node_level(rroot)),
                lmbr,
                rmbr,
            });
        }
        ClosestPairs {
            left,
            right,
            heap,
            scratch: Vec::new(),
            partner: Vec::new(),
            keys: Vec::new(),
        }
    }

    /// Lower bound on the distance of every pair yet to be produced.
    pub fn peek_dist(&self) -> Option<f64> {
        self.heap.peek().map(|e| e.dist.0 .0)
    }

    /// Expands `entry` by opening one of its node sides.
    fn expand(&mut self, entry: PairEntry) {
        // Choose which side to open: prefer the side that is a node when
        // the other is an object; otherwise the higher node, and at equal
        // levels the larger-area one.
        let open_left = match (entry.left, entry.right) {
            (Side::Node(..), Side::Object(_)) => true,
            (Side::Object(_), Side::Node(..)) => false,
            (Side::Node(_, ln), Side::Node(_, rn)) => match ln.cmp(&rn) {
                std::cmp::Ordering::Greater => true,
                std::cmp::Ordering::Less => false,
                std::cmp::Ordering::Equal => entry.lmbr.area() >= entry.rmbr.area(),
            },
            (Side::Object(_), Side::Object(_)) => unreachable!("resolved pairs are yielded"),
        };
        let (opened, other, other_mbr) = if open_left {
            (entry.left, entry.right, entry.rmbr)
        } else {
            (entry.right, entry.left, entry.lmbr)
        };
        let Side::Node(node, _) = opened else {
            unreachable!()
        };

        let (entries, partner, keys) = (&mut self.scratch, &mut self.partner, &mut self.keys);
        let level = if open_left {
            open_node(
                self.left, node, self.right, other, &other_mbr, entries, partner, keys,
            )
        } else {
            open_node(
                self.right, node, self.left, other, &other_mbr, entries, partner, keys,
            )
        };
        let resolved = level == 0 && matches!(other, Side::Object(_));
        for (e, &key) in entries.iter().zip(keys.iter()) {
            let child = if level > 0 {
                Side::Node(e.ptr, level - 1)
            } else {
                Side::Object(e.ptr)
            };
            let ((left, lmbr), (right, rmbr)) = if open_left {
                ((child, e.mbr), (other, other_mbr))
            } else {
                ((other, other_mbr), (child, e.mbr))
            };
            self.heap.push(PairEntry {
                dist: Reverse(OrdF64::new(key)),
                resolved,
                left,
                right,
                lmbr,
                rmbr,
            });
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
    use crate::packed::PackedRTree;
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

    fn uniform_items(seed: u64, n: usize) -> Vec<Item> {
        use obstacle_geom::rng::{Rng, SeedableRng, SmallRng};
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..n)
            .map(|i| Item::point(Point::new(rng.gen(), rng.gen()), i as u64))
            .collect()
    }

    /// `S` is a 45 × 45 lattice (so its leaf MBRs have lattice borders);
    /// `T` mixes uniform points, copies of `S` points (distance 0) and
    /// points on `S`'s lattice lines, i.e. on shared leaf borders.
    fn paper_scene() -> (Vec<Item>, Vec<Item>) {
        let step = 1.0 / 44.0;
        let lattice = |i: usize| Point::new((i % 45) as f64 * step, (i / 45) as f64 * step);
        let s: Vec<Item> = (0..2025)
            .map(|i| Item::point(lattice(i), i as u64))
            .collect();
        let mut t = uniform_items(7, 1500);
        for i in 0..600 {
            let p = if i < 300 {
                lattice(i * 7)
            } else {
                Point::new(lattice(i * 3).x, t[i].mbr.min.y)
            };
            t.push(Item::point(p, t.len() as u64));
        }
        (s, t)
    }

    /// The `n` smallest pair distances of `a × b`, ascending.
    fn brute_smallest(a: &[Item], b: &[Item], n: usize) -> Vec<f64> {
        let mut d: Vec<f64> = a
            .iter()
            .flat_map(|x| b.iter().map(move |y| x.mbr.mindist_rect(&y.mbr)))
            .collect();
        d.select_nth_unstable_by(n, |x, y| obstacle_geom::total_cmp(*x, *y));
        d.truncate(n);
        d.sort_by(|x, y| obstacle_geom::total_cmp(*x, *y));
        d
    }

    /// Pairs up to distance `limit`, checking `peek_dist` before each
    /// yield; equal-distance runs are put in id order, the only freedom a
    /// non-decreasing enumeration has.
    fn pairs_up_to<L: TreeBackend, R: TreeBackend>(
        mut it: ClosestPairs<'_, L, R>,
        limit: f64,
    ) -> Vec<(u64, u64, f64)> {
        let mut out = Vec::new();
        while let Some(bound) = it.peek_dist() {
            let (l, r, d) = it.next().unwrap();
            assert!(bound <= d, "peek_dist {bound} exceeds the next yield {d}");
            if d > limit {
                break;
            }
            out.push((l.id, r.id, d));
        }
        out.sort_by(|a, b| obstacle_geom::total_cmp(a.2, b.2).then((a.0, a.1).cmp(&(b.0, b.1))));
        out
    }

    #[test]
    fn paper_capacity_prefix_matches_brute_force_on_both_backends() {
        let (s, t) = paper_scene();
        let expect = brute_smallest(&s, &t, 5000);
        assert_eq!(expect[0], 0.0, "the scene has coincident points");
        let (ps, pt) = (
            RTree::bulk_load_str(RTreeConfig::paper(), s.clone()),
            RTree::bulk_load_str(RTreeConfig::paper(), t.clone()),
        );
        let got: Vec<f64> = ps
            .closest_pairs(&pt)
            .take(5000)
            .map(|(_, _, d)| d)
            .collect();
        assert_eq!(got, expect);

        let (ks, kt) = (
            PackedRTree::build(RTreeConfig::paper(), s),
            PackedRTree::build(RTreeConfig::paper(), t),
        );
        let limit = expect[4999];
        let paged = pairs_up_to(ClosestPairs::new(&ps, &pt), limit);
        let packed = pairs_up_to(ClosestPairs::new(&ks, &kt), limit);
        assert!(paged.len() >= 5000);
        assert_eq!(paged, packed);
    }

    #[test]
    fn first_pairs_touch_few_pages() {
        let cfg = RTreeConfig::paper();
        let a = RTree::bulk_load_str(cfg, uniform_items(1, 3276));
        let b = RTree::bulk_load_str(cfg, uniform_items(2, 3276));
        a.reset_io_stats();
        b.reset_io_stats();
        assert_eq!(a.closest_pairs(&b).take(16).count(), 16);
        let fetches = a.io_stats().fetches() + b.io_stats().fetches();
        // Opening an object costs a leaf read; objects keyed 0 by a leaf
        // MBR they lie in would all be opened first (> 3 000 fetches).
        assert!(fetches <= 300, "{fetches} data-tree fetches");
    }

    #[test]
    fn empty_side_yields_nothing() {
        let empty = RTree::new(RTreeConfig::tiny(4));
        let t = points_tree(&[(0.0, 0.0)], 4);
        assert!(t.closest_pairs(&empty).next().is_none());
        assert!(empty.closest_pairs(&t).next().is_none());
    }
}
