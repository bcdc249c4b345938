//! Incremental best-first nearest-neighbour search \[HS99\].
//!
//! The ONN algorithm of the paper needs Euclidean neighbours *one at a
//! time*: it keeps pulling the next Euclidean NN while the candidate's
//! Euclidean distance is below the shrinking obstructed-distance threshold
//! `d_Emax`. [`Nearest`] is exactly the distance-browsing iterator of
//! Hjaltason & Samet: a priority queue over nodes and objects keyed by
//! `mindist` to the query point. It is optimal (visits only pages whose
//! region is closer than the k-th neighbour) and resumable. The iterator
//! is generic over the storage backend — the same traversal browses the
//! paged tree's buffered pages or the packed tree's slots.

use crate::backend::{NodeRef, TreeBackend};
use crate::entry::{Entry, Item};
use crate::tree::RTree;
use obstacle_geom::OrdF64;
use obstacle_geom::Point;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct HeapEntry {
    dist: Reverse<OrdF64>,
    kind: CandidateKind,
}

/// Discriminates nodes from objects so that, at equal distance, objects are
/// reported before nodes are expanded (guarantees progress and stable
/// output order).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CandidateKind {
    Object { id: u64, mbr_idx: u32 },
    Node(NodeRef),
}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // BinaryHeap is a max-heap; `dist` is reversed so smaller distances
        // surface first. Prefer objects over nodes on ties.
        self.dist.cmp(&other.dist).then_with(|| {
            let rank = |k: &CandidateKind| match k {
                CandidateKind::Object { .. } => 1,
                CandidateKind::Node(_) => 0,
            };
            rank(&self.kind).cmp(&rank(&other.kind))
        })
    }
}

/// Incremental nearest-neighbour iterator over any [`TreeBackend`]
/// (defaults to the paged [`RTree`]).
///
/// Yields `(item, distance)` pairs in non-decreasing distance order from
/// the query point; for point items the distance is the exact Euclidean
/// distance, for rectangle items it is `mindist` to the MBR.
pub struct Nearest<'a, B: TreeBackend = RTree> {
    tree: &'a B,
    query: Point,
    heap: BinaryHeap<HeapEntry>,
    // Object MBRs are kept out of the heap entry to keep it `Copy`-small;
    // indexed storage of pending object rectangles.
    object_mbrs: Vec<obstacle_geom::Rect>,
    // Node entries are read into this scratch buffer, one allocation for
    // the whole iteration.
    scratch: Vec<Entry>,
}

impl<'a, B: TreeBackend> Nearest<'a, B> {
    pub(crate) fn new(tree: &'a B, query: Point) -> Self {
        let mut heap = BinaryHeap::new();
        if let Some(root) = tree.root_node() {
            heap.push(HeapEntry {
                dist: Reverse(OrdF64::new(0.0)),
                kind: CandidateKind::Node(root),
            });
        }
        Nearest {
            tree,
            query,
            heap,
            object_mbrs: Vec::new(),
            scratch: Vec::new(),
        }
    }

    /// Distance of the next candidate without consuming it (a lower bound
    /// on every distance this iterator will ever yield again).
    pub fn peek_dist(&self) -> Option<f64> {
        self.heap.peek().map(|e| e.dist.0 .0)
    }

    fn push_object(&mut self, item: Item, dist: f64) {
        let idx = self.object_mbrs.len() as u32;
        self.object_mbrs.push(item.mbr);
        self.heap.push(HeapEntry {
            dist: Reverse(OrdF64::new(dist)),
            kind: CandidateKind::Object {
                id: item.id,
                mbr_idx: idx,
            },
        });
    }
}

impl<B: TreeBackend> Iterator for Nearest<'_, B> {
    type Item = (Item, f64);

    fn next(&mut self) -> Option<(Item, f64)> {
        while let Some(HeapEntry { dist, kind }) = self.heap.pop() {
            match kind {
                CandidateKind::Object { id, mbr_idx } => {
                    let mbr = self.object_mbrs[mbr_idx as usize];
                    return Some((Item::new(mbr, id), dist.0 .0));
                }
                CandidateKind::Node(node) => {
                    let mut entries = std::mem::take(&mut self.scratch);
                    let level = self.tree.read_node_into(node, &mut entries);
                    if level == 0 {
                        for e in &entries {
                            let d = e.mbr.mindist_point(self.query);
                            self.push_object(Item::from(*e), d);
                        }
                    } else {
                        for e in &entries {
                            self.heap.push(HeapEntry {
                                dist: Reverse(OrdF64::new(e.mbr.mindist_point(self.query))),
                                kind: CandidateKind::Node(e.ptr),
                            });
                        }
                    }
                    self.scratch = entries;
                }
            }
        }
        None
    }
}

impl RTree {
    /// Incremental nearest-neighbour iterator from `query` \[HS99\].
    pub fn nearest(&self, query: Point) -> Nearest<'_> {
        Nearest::new(self, query)
    }

    /// The `k` nearest items to `query` (convenience over [`RTree::nearest`]).
    pub fn k_nearest(&self, query: Point, k: usize) -> Vec<(Item, f64)> {
        self.nearest(query).take(k).collect()
    }
}

impl crate::packed::PackedRTree {
    /// Incremental nearest-neighbour iterator from `query` \[HS99\].
    pub fn nearest(&self, query: Point) -> Nearest<'_, crate::packed::PackedRTree> {
        Nearest::new(self, query)
    }

    /// The `k` nearest items to `query`.
    pub fn k_nearest(&self, query: Point, k: usize) -> Vec<(Item, f64)> {
        self.nearest(query).take(k).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RTreeConfig;

    fn grid_tree(cap: usize) -> RTree {
        // 10×10 grid of points with ids y*10+x.
        let items =
            (0..100u64).map(|i| Item::point(Point::new((i % 10) as f64, (i / 10) as f64), i));
        RTree::build(RTreeConfig::tiny(cap), items)
    }

    #[test]
    fn first_neighbour_is_exact() {
        let t = grid_tree(4);
        let (item, d) = t.nearest(Point::new(3.2, 4.1)).next().unwrap();
        assert_eq!(item.id, 43); // (3,4)
        assert!((d - (0.2f64 * 0.2 + 0.1 * 0.1).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn distances_are_non_decreasing_and_complete() {
        let t = grid_tree(4);
        let all: Vec<(Item, f64)> = t.nearest(Point::new(0.5, 0.5)).collect();
        assert_eq!(all.len(), 100);
        for w in all.windows(2) {
            assert!(w[0].1 <= w[1].1 + 1e-12);
        }
        let mut ids: Vec<u64> = all.iter().map(|(i, _)| i.id).collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn matches_linear_scan() {
        let t = grid_tree(5);
        let q = Point::new(7.3, 2.9);
        let got = t.k_nearest(q, 12);
        let mut expect: Vec<(u64, f64)> = (0..100u64)
            .map(|i| {
                let p = Point::new((i % 10) as f64, (i / 10) as f64);
                (i, p.dist(q))
            })
            .collect();
        expect.sort_by(|a, b| obstacle_geom::total_cmp(a.1, b.1));
        for (g, e) in got.iter().zip(expect.iter()) {
            assert!((g.1 - e.1).abs() < 1e-12);
        }
    }

    #[test]
    fn peek_lower_bounds_future_results() {
        let t = grid_tree(4);
        let mut it = t.nearest(Point::new(5.0, 5.0));
        let _ = it.next();
        let bound = it.peek_dist().unwrap();
        for (_, d) in it {
            assert!(d + 1e-12 >= bound);
        }
    }

    #[test]
    fn empty_tree_yields_nothing() {
        let t = RTree::new(RTreeConfig::tiny(4));
        assert!(t.nearest(Point::new(0.0, 0.0)).next().is_none());
    }
}
