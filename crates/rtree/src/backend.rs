//! The read-side storage abstraction shared by both tree backends.
//!
//! The query operators of the paper (range, NN, e-distance join, closest
//! pairs) and the obstructed-distance machinery built on them only ever
//! *read* a tree: descend from the root, fetch a node, scan its entries.
//! [`TreeBackend`] captures exactly that surface, so the operators run
//! unchanged over either implementation:
//!
//! * [`RTree`](crate::RTree) — the paper's R*-tree over a paged store with
//!   a 10 %-rule LRU buffer. Every node fetch crosses the page buffer and
//!   is accounted as a page access (hit or miss).
//! * [`PackedRTree`](crate::PackedRTree) — a flatbush-style packed static
//!   tree in one contiguous buffer. Node fetches are plain slice reads
//!   (no buffer, no locks) and are accounted as *node visits*.
//!
//! [`AnyTree`] is the enum-dispatch wrapper the engine layer stores, so a
//! `QueryEngine` stays a plain `Copy` borrow regardless of backend.

use crate::config::{Backend, RTreeConfig};
use crate::entry::{Entry, Item};
use crate::packed::PackedRTree;
use crate::persist::PersistError;
use crate::stats::TreeStats;
use crate::store::{IoSnapshot, IoStats};
use crate::tree::RTree;
use obstacle_geom::{Point, Rect};

/// Opaque node handle of a [`TreeBackend`].
///
/// For the paged backend this is the page id; for the packed backend the
/// node's slot index. Handles are only meaningful on the tree that issued
/// them (from [`TreeBackend::root_node`] or a [`TreeBackend::read_node_into`]
/// entry's `ptr`).
pub type NodeRef = u64;

/// Read-side API of an obstacle/entity tree, as consumed by the query
/// operators, `LazyScene` candidate selection and the batch engine.
///
/// Implementations must answer queries over the same item set identically
/// (the backend-equivalence suite pins this); they may differ in *cost
/// model* — see the `io_stats` docs of each backend.
pub trait TreeBackend {
    /// Number of items in the tree.
    fn len(&self) -> usize;

    /// Whether the tree holds no items.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// MBR of the whole tree (empty rect for an empty tree).
    fn root_mbr(&self) -> Rect;

    /// Handle of the root node, or `None` for an empty tree.
    fn root_node(&self) -> Option<NodeRef>;

    /// Level of the node `node` (0 = leaf). On the paged backend this
    /// fetches the page (a counted access, as on disk); on the packed
    /// backend the level is derived from the slot index for free.
    fn node_level(&self, node: NodeRef) -> u32;

    /// Reads node `node`: clears `out`, appends the node's entries and
    /// returns the node's level (0 = leaf, whose entries are items; the
    /// `ptr` of an internal entry is a child [`NodeRef`]). Counts one
    /// accounted access/visit. The scratch vector lets generic traversals
    /// reuse one allocation across the whole descent.
    fn read_node_into(&self, node: NodeRef, out: &mut Vec<Entry>) -> u32;

    /// All items whose MBR intersects `window`.
    fn range_rect(&self, window: &Rect) -> Vec<Item>;

    /// All items whose MBR lies within Euclidean distance `radius` of
    /// `center` (`mindist(MBR, center) ≤ radius`).
    fn range_circle(&self, center: Point, radius: f64) -> Vec<Item>;

    /// Generic pruned range search: all items with `bound(mbr) ≤
    /// threshold`, each paired with its bound value (computed exactly
    /// once per entry). `bound` must be monotone under containment; see
    /// [`RTree::range_by_bound`].
    fn range_by_bound(&self, bound: &dyn Fn(&Rect) -> f64, threshold: f64) -> Vec<(Item, f64)>;

    /// Every item in the tree, in storage order (full counted scan).
    fn items(&self) -> Vec<Item>;

    /// Cumulative access counters of this tree. Paged: page accesses
    /// (`reads` = buffer misses). Packed: node visits (`buffer_hits` =
    /// visits, `reads` = 0 — there is no page IO to miss).
    fn io_stats(&self) -> IoStats;

    /// Zeroes the access counters.
    fn reset_io_stats(&self);

    /// Opens a per-query attribution window over this tree's accesses
    /// (see [`IoSnapshot`]). Works identically on both backends; the
    /// counters carry the backend's cost model.
    fn io_snapshot(&self) -> IoSnapshot<'_>;

    /// Cold-starts any cache state (paged: empties the LRU buffer;
    /// packed: no-op — there is nothing cached).
    fn reset_buffer(&self);

    /// `"paged"` or `"packed"` — the tag used by benches and artifacts.
    fn backend_name(&self) -> &'static str;
}

impl TreeBackend for RTree {
    fn len(&self) -> usize {
        RTree::len(self)
    }

    fn root_mbr(&self) -> Rect {
        RTree::root_mbr(self)
    }

    fn root_node(&self) -> Option<NodeRef> {
        (!RTree::is_empty(self)).then(|| NodeRef::from(self.root_page()))
    }

    fn node_level(&self, node: NodeRef) -> u32 {
        self.read_page(node as u32).level
    }

    fn read_node_into(&self, node: NodeRef, out: &mut Vec<Entry>) -> u32 {
        out.clear();
        let page = self.read_page(node as u32);
        out.extend_from_slice(&page.entries);
        page.level
    }

    fn range_rect(&self, window: &Rect) -> Vec<Item> {
        RTree::range_rect(self, window)
    }

    fn range_circle(&self, center: Point, radius: f64) -> Vec<Item> {
        RTree::range_circle(self, center, radius)
    }

    fn range_by_bound(&self, bound: &dyn Fn(&Rect) -> f64, threshold: f64) -> Vec<(Item, f64)> {
        RTree::range_by_bound(self, bound, threshold)
    }

    fn items(&self) -> Vec<Item> {
        RTree::items(self)
    }

    fn io_stats(&self) -> IoStats {
        RTree::io_stats(self)
    }

    fn reset_io_stats(&self) {
        RTree::reset_io_stats(self)
    }

    fn io_snapshot(&self) -> IoSnapshot<'_> {
        RTree::io_snapshot(self)
    }

    fn reset_buffer(&self) {
        RTree::reset_buffer(self)
    }

    fn backend_name(&self) -> &'static str {
        "paged"
    }
}

/// Enum dispatch over the two backends.
///
/// The engine layer stores an `AnyTree` per index so one `QueryEngine`
/// type serves both backends (chosen by [`RTreeConfig::backend`]), without
/// making every operator and the batch engine generic in the public API.
/// The paged variant keeps full update support; the packed variant is
/// static — [`AnyTree::insert`] / [`AnyTree::delete`] re-pack the whole
/// tree per call (O(n log n) *each*), so batched edits must go through
/// [`AnyTree::apply_edits`], which rebuilds exactly once per batch.
#[derive(Debug)]
pub enum AnyTree {
    /// The paper's paged, buffered R*-tree.
    Paged(RTree),
    /// The packed static backend.
    Packed(PackedRTree),
}

macro_rules! dispatch {
    ($self:expr, $t:ident => $body:expr) => {
        match $self {
            AnyTree::Paged($t) => $body,
            AnyTree::Packed($t) => $body,
        }
    };
}

impl AnyTree {
    /// Builds a tree for `config.backend` by repeated insertion (paged)
    /// or a Hilbert pack (packed — a static backend has exactly one build
    /// path, so `build` and `bulk_load` coincide there).
    pub fn build(config: RTreeConfig, items: impl IntoIterator<Item = Item>) -> Self {
        match config.backend {
            Backend::Paged => AnyTree::Paged(RTree::build(config, items)),
            Backend::Packed => AnyTree::Packed(PackedRTree::build(config, items)),
        }
    }

    /// Bulk-loads a tree for `config.backend` (paged: STR; packed:
    /// Hilbert pack).
    pub fn bulk_load(config: RTreeConfig, items: Vec<Item>) -> Self {
        match config.backend {
            Backend::Paged => AnyTree::Paged(RTree::bulk_load_str(config, items)),
            Backend::Packed => AnyTree::Packed(PackedRTree::build(config, items)),
        }
    }

    /// The paged tree, if this is the paged backend.
    pub fn as_paged(&self) -> Option<&RTree> {
        match self {
            AnyTree::Paged(t) => Some(t),
            AnyTree::Packed(_) => None,
        }
    }

    /// The packed tree, if this is the packed backend.
    pub fn as_packed(&self) -> Option<&PackedRTree> {
        match self {
            AnyTree::Paged(_) => None,
            AnyTree::Packed(t) => Some(t),
        }
    }

    /// Which backend this tree uses.
    pub fn backend(&self) -> Backend {
        match self {
            AnyTree::Paged(_) => Backend::Paged,
            AnyTree::Packed(_) => Backend::Packed,
        }
    }

    /// The configuration the tree was built with.
    pub fn config(&self) -> &RTreeConfig {
        match self {
            AnyTree::Paged(t) => t.config(),
            AnyTree::Packed(t) => t.config(),
        }
    }

    /// Height of the tree (1 = a single leaf).
    pub fn height(&self) -> u32 {
        match self {
            AnyTree::Paged(t) => t.height(),
            AnyTree::Packed(t) => t.height(),
        }
    }

    /// Number of nodes (paged: live pages; packed: packed node slots).
    pub fn pages(&self) -> usize {
        match self {
            AnyTree::Paged(t) => t.pages(),
            AnyTree::Packed(t) => t.num_nodes(),
        }
    }

    /// Total buffer capacity in pages (packed: 0 — no buffer exists).
    pub fn buffer_capacity(&self) -> usize {
        match self {
            AnyTree::Paged(t) => t.buffer_capacity(),
            AnyTree::Packed(_) => 0,
        }
    }

    /// Per-level structure statistics.
    pub fn stats(&self) -> TreeStats {
        match self {
            AnyTree::Paged(t) => t.stats(),
            AnyTree::Packed(t) => t.stats(),
        }
    }

    /// Inserts an item. Paged: the R* insertion of the paper, O(log n).
    /// Packed: the backend is static, so **every call re-packs the whole
    /// tree** over the old items plus `item` — a full O(n log n) Hilbert
    /// sort and bottom-up build, *per call*. A k-edit sequence therefore
    /// costs k rebuilds through this entry point; batch callers must use
    /// [`AnyTree::apply_edits`], which collects the edits first and
    /// rebuilds exactly once.
    pub fn insert(&mut self, item: Item) {
        match self {
            AnyTree::Paged(t) => t.insert(item),
            AnyTree::Packed(t) => {
                let mut items = t.items_uncounted();
                items.push(item);
                Self::repack(t, items);
            }
        }
    }

    /// Deletes the item with matching `mbr` and `id`; returns whether it
    /// was present. Packed: re-packs without the item — the same full
    /// O(n log n) per-call cost as [`AnyTree::insert`]; batch callers
    /// must use [`AnyTree::apply_edits`].
    pub fn delete(&mut self, item: Item) -> bool {
        match self {
            AnyTree::Paged(t) => t.delete(&item),
            AnyTree::Packed(t) => {
                let mut items = t.items_uncounted();
                let before = items.len();
                items.retain(|i| !(i.id == item.id && i.mbr == item.mbr));
                let found = items.len() < before;
                if found {
                    Self::repack(t, items);
                }
                found
            }
        }
    }

    /// Applies a batch of edits: removes every item matching a `deletes`
    /// entry (by `id` + `mbr`, as in [`AnyTree::delete`]), then inserts
    /// all of `inserts`. Returns how many deletes matched.
    ///
    /// Paged: per-item R* insert/delete (each O(log n) — there is no
    /// cheaper batch path on the paged backend). Packed: **one** re-pack
    /// for the whole batch, amortising the static backend's O(n log n)
    /// rebuild over k edits instead of paying it k times; the pack's
    /// [`generation`](PackedRTree::generation) counter advances by
    /// exactly 1 per non-empty batch.
    pub fn apply_edits(&mut self, inserts: Vec<Item>, deletes: &[Item]) -> usize {
        match self {
            AnyTree::Paged(t) => {
                let mut removed = 0;
                for d in deletes {
                    if t.delete(d) {
                        removed += 1;
                    }
                }
                for item in inserts {
                    t.insert(item);
                }
                removed
            }
            AnyTree::Packed(t) => {
                let mut items = t.items_uncounted();
                let mut removed = 0;
                if !deletes.is_empty() {
                    // `Rect` is not hashable, so match deletes by id and
                    // confirm the MBR (ids are unique per engine contract).
                    let dead: std::collections::HashMap<u64, Rect> =
                        deletes.iter().map(|d| (d.id, d.mbr)).collect();
                    let before = items.len();
                    items.retain(|i| dead.get(&i.id).is_none_or(|mbr| *mbr != i.mbr));
                    removed = before - items.len();
                }
                if removed > 0 || !inserts.is_empty() {
                    items.extend(inserts);
                    Self::repack(t, items);
                }
                removed
            }
        }
    }

    /// Rebuilds a pack over `items`, carrying the rebuild counter forward
    /// (+1) — the observable that lets tests assert "one rebuild per
    /// batch" for [`AnyTree::apply_edits`].
    fn repack(t: &mut PackedRTree, items: Vec<Item>) {
        let generation = t.generation + 1;
        *t = PackedRTree::build(*t.config(), items);
        t.generation = generation;
        debug_assert_eq!(
            t.validate(),
            Ok(()),
            "apply_edits re-pack produced an invalid tree"
        );
    }

    /// Incremental nearest-neighbour iterator from `query` (\[HS99\] on
    /// either backend).
    pub fn nearest(&self, query: Point) -> crate::Nearest<'_, AnyTree> {
        crate::Nearest::new(self, query)
    }

    /// The `k` nearest items to `query`.
    pub fn k_nearest(&self, query: Point, k: usize) -> Vec<(Item, f64)> {
        self.nearest(query).take(k).collect()
    }

    /// Serializes the tree (backend-tagged: the magic distinguishes the
    /// two image formats, so [`AnyTree::from_bytes`] round-trips either).
    pub fn to_bytes(&self) -> crate::codec::Bytes {
        match self {
            AnyTree::Paged(t) => t.to_bytes(),
            AnyTree::Packed(t) => t.to_bytes(),
        }
    }

    /// Decodes a tree image produced by [`AnyTree::to_bytes`] (or by
    /// either backend's own `to_bytes`), sniffing the backend from the
    /// magic.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, PersistError> {
        if bytes.starts_with(crate::packed::PACKED_MAGIC) {
            PackedRTree::from_bytes(bytes).map(AnyTree::Packed)
        } else {
            RTree::from_bytes(bytes).map(AnyTree::Paged)
        }
    }
}

impl TreeBackend for AnyTree {
    fn len(&self) -> usize {
        dispatch!(self, t => TreeBackend::len(t))
    }

    fn root_mbr(&self) -> Rect {
        dispatch!(self, t => TreeBackend::root_mbr(t))
    }

    fn root_node(&self) -> Option<NodeRef> {
        dispatch!(self, t => t.root_node())
    }

    fn node_level(&self, node: NodeRef) -> u32 {
        dispatch!(self, t => t.node_level(node))
    }

    fn read_node_into(&self, node: NodeRef, out: &mut Vec<Entry>) -> u32 {
        dispatch!(self, t => t.read_node_into(node, out))
    }

    fn range_rect(&self, window: &Rect) -> Vec<Item> {
        dispatch!(self, t => t.range_rect(window))
    }

    fn range_circle(&self, center: Point, radius: f64) -> Vec<Item> {
        dispatch!(self, t => t.range_circle(center, radius))
    }

    fn range_by_bound(&self, bound: &dyn Fn(&Rect) -> f64, threshold: f64) -> Vec<(Item, f64)> {
        dispatch!(self, t => TreeBackend::range_by_bound(t, bound, threshold))
    }

    fn items(&self) -> Vec<Item> {
        dispatch!(self, t => TreeBackend::items(t))
    }

    fn io_stats(&self) -> IoStats {
        dispatch!(self, t => TreeBackend::io_stats(t))
    }

    fn reset_io_stats(&self) {
        dispatch!(self, t => TreeBackend::reset_io_stats(t))
    }

    fn io_snapshot(&self) -> IoSnapshot<'_> {
        dispatch!(self, t => TreeBackend::io_snapshot(t))
    }

    fn reset_buffer(&self) {
        dispatch!(self, t => TreeBackend::reset_buffer(t))
    }

    fn backend_name(&self) -> &'static str {
        dispatch!(self, t => t.backend_name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn packed_config() -> RTreeConfig {
        RTreeConfig {
            backend: Backend::Packed,
            packed_node_size: 4,
            ..RTreeConfig::paper()
        }
    }

    fn items(n: usize) -> Vec<Item> {
        (0..n as u64)
            .map(|i| Item::point(Point::new((i % 13) as f64 * 0.31, (i % 7) as f64 * 0.53), i))
            .collect()
    }

    fn ids(t: &AnyTree) -> Vec<u64> {
        let mut ids: Vec<u64> = TreeBackend::items(t).into_iter().map(|i| i.id).collect();
        ids.sort_unstable();
        ids
    }

    #[test]
    fn packed_batch_edits_rebuild_once() {
        let mut t = AnyTree::bulk_load(packed_config(), items(20));
        assert_eq!(t.as_packed().unwrap().generation(), 0);

        // One batch of 5 inserts + 3 deletes: exactly one rebuild.
        let inserts: Vec<Item> = (0..5)
            .map(|i| Item::point(Point::new(9.0 + i as f64, 9.0), 100 + i as u64))
            .collect();
        let deletes: Vec<Item> = items(20).into_iter().filter(|i| i.id < 3).collect();
        let removed = t.apply_edits(inserts, &deletes);
        assert_eq!(removed, 3);
        assert_eq!(t.as_packed().unwrap().generation(), 1);
        assert_eq!(TreeBackend::len(&t), 22);
        assert_eq!(ids(&t), (3..20).chain(100..105).collect::<Vec<u64>>());

        // The same edits applied one call at a time cost one rebuild each.
        let mut s = AnyTree::bulk_load(packed_config(), items(20));
        for i in 0..5u64 {
            s.insert(Item::point(Point::new(9.0 + i as f64, 9.0), 100 + i));
        }
        for d in items(20).into_iter().filter(|i| i.id < 3) {
            assert!(s.delete(d));
        }
        assert_eq!(s.as_packed().unwrap().generation(), 8);
        assert_eq!(ids(&s), ids(&t));

        // An empty batch rebuilds nothing.
        assert_eq!(t.apply_edits(Vec::new(), &[]), 0);
        assert_eq!(t.as_packed().unwrap().generation(), 1);
        // A batch of misses (wrong id) rebuilds nothing either.
        let miss = [Item::point(Point::new(0.0, 0.0), 999)];
        assert_eq!(t.apply_edits(Vec::new(), &miss), 0);
        assert_eq!(t.as_packed().unwrap().generation(), 1);
    }

    #[test]
    fn paged_batch_edits_match_per_call_path() {
        let mut t = AnyTree::bulk_load(RTreeConfig::tiny(4), items(20));
        let deletes: Vec<Item> = items(20).into_iter().filter(|i| i.id % 4 == 0).collect();
        let inserts: Vec<Item> = (0..2)
            .map(|i| Item::point(Point::new(5.0, 5.0 + i as f64), 200 + i as u64))
            .collect();
        let removed = t.apply_edits(inserts, &deletes);
        assert_eq!(removed, 5);
        assert_eq!(
            ids(&t),
            (0..20)
                .filter(|i| i % 4 != 0)
                .chain(200..202)
                .collect::<Vec<u64>>()
        );
    }
}
