//! Indexed datasets and the query engine facade.
//!
//! Entities and obstacles are one [`Dataset`] type over two [`Shape`]s.
//! Both are **dynamic**: `insert`/`delete`/[`Dataset::apply_edits`]
//! mutate the tree in place, retire id slots by tombstone (ids are never
//! reused), and advance a per-index **update epoch**. Every epoch window
//! records the union bounding box of its edits (the *dirty rect*), which
//! is what lets cached visibility scenes stay legal across updates: a
//! scene built at epoch `e` over region `R` remains valid iff no dirty
//! rect recorded after `e` intersects `R` (inflated by the scene-reuse
//! slack). See `LocalGraph::sync` in `distance.rs` and
//! `SceneCache::validate` in `batch.rs` for the consumers.

use obstacle_geom::{Point, Polygon, Rect};
use obstacle_rtree::{AnyTree, Item, RTreeConfig, TreeBackend};
use obstacle_visibility::EdgeBuilder;

/// Dirty-rect log entries kept per index before the oldest window is
/// merged. Merging unions old rects under the newest merged epoch — a
/// purely conservative compaction (it can only over-invalidate scenes
/// stamped inside the merged range, never under-invalidate).
const DIRTY_LOG_CAP: usize = 1024;

/// A geometry a [`Dataset`] stores: the tree indexes its MBR.
pub trait Shape {
    /// The rectangle the tree indexes (degenerate for a point).
    fn mbr(&self) -> Rect;
}

impl Shape for Point {
    fn mbr(&self) -> Rect {
        Rect::from_point(*self)
    }
}

impl Shape for Polygon {
    fn mbr(&self) -> Rect {
        self.bbox()
    }
}

/// An indexed, editable dataset: the shapes, a tree over their MBRs,
/// tombstones and the epoch / dirty-rect log. Entities
/// ([`EntityIndex`]) and obstacles ([`ObstacleIndex`]) are its two
/// instantiations, as the paper indexes both with the same R*-tree.
///
/// The storage backend (the paper's paged R*-tree or the packed static
/// tree) is chosen by `config.backend` at build time; every operator runs
/// on either. Obstacle edits additionally matter to every cached
/// visibility scene, which is why the epoch / dirty-rect log exists (see
/// the module docs).
#[derive(Debug)]
pub struct Dataset<T> {
    tree: AnyTree,
    items: Vec<T>,
    /// Tombstones: `live[id]` is false once `id` has been deleted. The
    /// shape stays in `items` so `position` / `polygon` keep answering
    /// for retired ids, but no public iterator or query ever returns
    /// them.
    live: Vec<bool>,
    live_count: usize,
    epoch: u64,
    /// The per-epoch dirty-rect log, ascending by epoch.
    dirty: Vec<(u64, Rect)>,
}

/// An entity dataset (points of interest) with its tree index.
pub type EntityIndex = Dataset<Point>;

/// The obstacle dataset (simple polygons) with its tree index over MBRs.
pub type ObstacleIndex = Dataset<Polygon>;

impl<T: Shape> Dataset<T> {
    /// Indexes `items` by one-by-one R* insertion (the paper's setup).
    /// On the packed backend this is the same Hilbert pack as
    /// [`Dataset::bulk_load`] — a static structure has one build path.
    pub fn build(config: RTreeConfig, items: Vec<T>) -> Self {
        let tree = AnyTree::build(config, Self::tree_items(&items));
        Self::fresh(tree, items)
    }

    /// Indexes `items` by bulk loading (paged: STR; packed: Hilbert pack;
    /// used by large-scale benchmarks).
    pub fn bulk_load(config: RTreeConfig, items: Vec<T>) -> Self {
        let tree = AnyTree::bulk_load(config, Self::tree_items(&items).collect());
        Self::fresh(tree, items)
    }

    fn tree_items(items: &[T]) -> impl Iterator<Item = Item> + '_ {
        (0u64..).zip(items).map(|(id, t)| Item::new(t.mbr(), id))
    }

    fn fresh(tree: AnyTree, items: Vec<T>) -> Self {
        Dataset {
            tree,
            live: vec![true; items.len()],
            live_count: items.len(),
            items,
            epoch: 0,
            dirty: Vec::new(),
        }
    }

    /// The underlying tree index.
    pub fn tree(&self) -> &AnyTree {
        &self.tree
    }

    /// Whether `id` exists and has not been deleted.
    pub fn is_live(&self, id: u64) -> bool {
        self.live.get(id as usize).copied().unwrap_or(false)
    }

    /// Live `(id, shape)` pairs in id order: the one tombstone filter
    /// behind `live_points` / `live_polygons`.
    fn live_items(&self) -> impl Iterator<Item = (u64, &T)> + '_ {
        (0u64..)
            .zip(&self.items)
            .filter(|&(id, _)| self.live[id as usize])
    }

    /// Number of live items (deletes decrement this).
    pub fn len(&self) -> usize {
        self.live_count
    }

    /// Whether the dataset holds no live items.
    pub fn is_empty(&self) -> bool {
        self.live_count == 0
    }

    /// Bounding rectangle of the live items, or `None` when the set is
    /// (or has become, via deletes) empty.
    pub fn extent(&self) -> Option<Rect> {
        (!self.tree.is_empty()).then(|| self.tree.root_mbr())
    }

    /// Current update epoch (0 for a freshly built index; each committed
    /// edit batch advances it by exactly 1).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Whether any edit committed after epoch `since` touched `region`.
    /// For obstacles this is the scene-invalidation predicate: a cached
    /// scene stamped `(since, region)` must be retired iff this returns
    /// true for its slack-inflated region.
    pub fn dirty_intersects(&self, since: u64, region: &Rect) -> bool {
        self.dirty
            .iter()
            .rev()
            .take_while(|(e, _)| *e > since)
            .any(|(_, r)| r.intersects(region))
    }

    /// Inserts one item and returns its id. Updates are the reason the
    /// paper builds visibility graphs on-line instead of materialising
    /// them (§2.4): the R-tree absorbs the insert and every later query
    /// sees it with no rebuild. On the packed backend a single insert
    /// re-packs the tree (O(n log n) — batch edits through
    /// [`Dataset::apply_edits`]).
    pub fn insert(&mut self, item: T) -> u64 {
        self.apply_edits(vec![item], &[]).0[0]
    }

    /// Deletes an item by id. Returns whether it was present and live.
    /// The id slot is retired (never reused).
    pub fn delete(&mut self, id: u64) -> bool {
        self.apply_edits(Vec::new(), &[id]).1 == 1
    }

    /// Applies a batch of edits in one epoch: tombstones every live id in
    /// `deletes`, then inserts all of `inserts` (fresh ids, returned in
    /// order). The tree absorbs the whole batch at once — one re-pack on
    /// the packed backend — and the epoch advances by exactly 1 when the
    /// batch changed anything, with the union of the deleted and inserted
    /// MBRs as the dirty rect. Returns `(inserted ids, live deletes
    /// performed)`.
    pub fn apply_edits(&mut self, inserts: Vec<T>, deletes: &[u64]) -> (Vec<u64>, usize) {
        let mut dirty = Rect::empty();
        let mut del_items = Vec::new();
        for &id in deletes {
            if self.is_live(id) {
                self.live[id as usize] = false;
                self.live_count -= 1;
                let mbr = self.items[id as usize].mbr();
                del_items.push(Item::new(mbr, id));
                dirty = dirty.union(&mbr);
            }
        }
        let mut ids = Vec::with_capacity(inserts.len());
        let mut ins_items = Vec::with_capacity(inserts.len());
        for item in inserts {
            let id = self.items.len() as u64;
            let mbr = item.mbr();
            self.items.push(item);
            self.live.push(true);
            self.live_count += 1;
            ids.push(id);
            ins_items.push(Item::new(mbr, id));
            dirty = dirty.union(&mbr);
        }
        let removed = del_items.len();
        if removed > 0 || !ins_items.is_empty() {
            self.tree.apply_edits(ins_items, &del_items);
            self.epoch += 1;
            self.dirty.push((self.epoch, dirty));
            if self.dirty.len() > DIRTY_LOG_CAP {
                let half = self.dirty.len() / 2;
                let merged_epoch = self.dirty[half - 1].0;
                let merged = self.dirty[..half]
                    .iter()
                    .fold(Rect::empty(), |u, (_, r)| u.union(r));
                self.dirty.splice(..half, [(merged_epoch, merged)]);
            }
        }
        (ids, removed)
    }
}

impl EntityIndex {
    /// Position of entity `id` (answers for retired ids too — deleted
    /// slots keep their last position).
    pub fn position(&self, id: u64) -> Point {
        self.items[id as usize]
    }

    /// All live entities as `(id, position)`, in id order. Deleted slots
    /// are skipped — this is the only sanctioned way to enumerate the
    /// dataset (a raw slice would resurrect tombstoned ids).
    pub fn live_points(&self) -> impl Iterator<Item = (u64, Point)> + '_ {
        self.live_items().map(|(id, &p)| (id, p))
    }
}

impl ObstacleIndex {
    /// The polygon of obstacle `id` (answers for retired ids too).
    pub fn polygon(&self, id: u64) -> &Polygon {
        &self.items[id as usize]
    }

    /// All live obstacles as `(id, polygon)`, in id order. Deleted slots
    /// are skipped — the only sanctioned enumeration of the dataset.
    pub fn live_polygons(&self) -> impl Iterator<Item = (u64, &Polygon)> + '_ {
        self.live_items()
    }
}

/// The one algorithm option. ONN's shrinking threshold and graph reuse
/// across candidates (§4) and ODJ's seed-side rule and Hilbert seed order
/// (§5) are unconditional: each beat its off-arm when measured
/// (`CHANGES.md`, PR 22).
#[derive(Clone, Copy, Debug)]
pub struct EngineOptions {
    /// Visibility-edge builder (paper: rotational plane sweep \[SS84\]).
    /// `EdgeBuilder::Naive` is the oracle the equivalence suites compare
    /// the sweep against.
    pub builder: EdgeBuilder,
}

impl Default for EngineOptions {
    fn default() -> Self {
        EngineOptions {
            builder: EdgeBuilder::RotationalSweep,
        }
    }
}

/// Facade bundling an entity dataset and the obstacle dataset for the
/// unary query types (range, k-NN and their incremental variants).
///
/// Binary queries (joins, closest pairs) take their two entity indexes
/// explicitly — see [`distance_join`](crate::distance_join) and
/// [`closest_pairs`](crate::closest_pairs).
#[derive(Clone, Copy, Debug)]
pub struct QueryEngine<'a> {
    /// The entity dataset `P`.
    pub entities: &'a EntityIndex,
    /// The obstacle dataset `O`.
    pub obstacles: &'a ObstacleIndex,
    /// Algorithm options.
    pub options: EngineOptions,
}

impl<'a> QueryEngine<'a> {
    /// Engine with paper-default options.
    pub fn new(entities: &'a EntityIndex, obstacles: &'a ObstacleIndex) -> Self {
        QueryEngine {
            entities,
            obstacles,
            options: EngineOptions::default(),
        }
    }

    /// Engine with a chosen edge builder (the naive oracle).
    pub fn with_options(
        entities: &'a EntityIndex,
        obstacles: &'a ObstacleIndex,
        options: EngineOptions,
    ) -> Self {
        QueryEngine {
            entities,
            obstacles,
            options,
        }
    }

    /// The working universe: the obstacle extent, else the entity
    /// extent, else the unit square.
    pub fn universe(&self) -> Rect {
        universe_of(self.obstacles, &[self.entities])
    }
}

/// The one working-universe fallback chain: the obstacle extent, else the
/// union of the `entities` extents, else the unit square. Hilbert orders
/// (the batch and service schedules, ODJ's seeds), the scene-reuse slack
/// and Fig. 8's prefetch sizing are computed over this rect. Falling back
/// to the unit square while the data carry real coordinates would clamp
/// every Hilbert key to one corner cell. [`QueryEngine::universe`] passes
/// its entity dataset, ODJ both of its inputs, and the path functions
/// none.
pub(crate) fn universe_of(obstacles: &ObstacleIndex, entities: &[&EntityIndex]) -> Rect {
    obstacles
        .extent()
        .or_else(|| {
            entities
                .iter()
                .filter_map(|d| d.extent())
                .reduce(|a, b| a.union(&b))
        })
        .unwrap_or_else(|| Rect::from_coords(0.0, 0.0, 1.0, 1.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entity_index_roundtrip() {
        let pts = vec![Point::new(0.1, 0.2), Point::new(0.9, 0.8)];
        let idx = EntityIndex::build(RTreeConfig::tiny(4), pts.clone());
        assert_eq!(idx.len(), 2);
        assert_eq!(idx.position(1), pts[1]);
        assert_eq!(idx.tree().len(), 2);
        assert_eq!(idx.epoch(), 0);
        assert_eq!(
            idx.live_points().collect::<Vec<_>>(),
            vec![(0, pts[0]), (1, pts[1])]
        );
    }

    #[test]
    fn obstacle_index_roundtrip() {
        let polys = vec![
            Polygon::from_rect(Rect::from_coords(0.0, 0.0, 0.2, 0.1)),
            Polygon::from_rect(Rect::from_coords(0.5, 0.5, 0.6, 0.9)),
        ];
        let idx = ObstacleIndex::build(RTreeConfig::tiny(4), polys.clone());
        assert_eq!(idx.len(), 2);
        assert_eq!(idx.polygon(0), &polys[0]);
        assert_eq!(
            universe_of(&idx, &[]),
            Rect::from_coords(0.0, 0.0, 0.6, 0.9)
        );
        assert_eq!(idx.epoch(), 0);
    }

    #[test]
    fn default_options_are_paper_faithful() {
        assert_eq!(
            EngineOptions::default().builder,
            EdgeBuilder::RotationalSweep
        );
    }

    /// The edit contract of [`Dataset`], run on both instantiations:
    /// `shape(r)` makes an item whose MBR lies inside `r`.
    fn edits_advance_epoch_and_record_dirty_rects_on<T: Shape>(shape: fn(Rect) -> T) {
        let first = shape(Rect::from_coords(0.0, 0.0, 0.2, 0.1));
        let mut idx = Dataset::build(RTreeConfig::tiny(4), vec![first]);
        let far = Rect::from_coords(5.0, 5.0, 5.2, 5.2);
        let id = idx.insert(shape(far));
        assert_eq!(idx.epoch(), 1);
        assert!(idx.dirty_intersects(0, &far));
        assert!(!idx.dirty_intersects(1, &far), "nothing after epoch 1");
        assert!(!idx.dirty_intersects(0, &Rect::from_coords(2.0, 2.0, 3.0, 3.0)));

        assert!(idx.delete(id));
        assert_eq!(idx.epoch(), 2);
        assert!(idx.dirty_intersects(1, &far), "delete dirties its bbox");
        assert!(!idx.delete(id), "double delete reports absence");
        assert_eq!(idx.epoch(), 2, "a no-op batch does not open an epoch");
    }

    #[test]
    fn edits_advance_epoch_and_record_dirty_rects() {
        edits_advance_epoch_and_record_dirty_rects_on(|r| r.min);
        edits_advance_epoch_and_record_dirty_rects_on(Polygon::from_rect);
    }

    fn batched_edits_commit_one_epoch_on<T: Shape>(shape: fn(Rect) -> T) {
        let at = |x: f64| shape(Rect::from_coords(x, x, x + 0.5, x + 0.5));
        let mut idx = Dataset::build(RTreeConfig::tiny(4), vec![at(0.0)]);
        let (ids, removed) = idx.apply_edits(vec![at(1.0), at(2.0)], &[0]);
        assert_eq!(ids, vec![1, 2]);
        assert_eq!(removed, 1);
        assert_eq!(idx.epoch(), 1, "one epoch for the whole batch");
        assert_eq!(idx.len(), 2);
        assert!(!idx.is_live(0));
        assert!(idx.is_live(2));
        assert_eq!(
            idx.live_items().map(|(id, _)| id).collect::<Vec<_>>(),
            vec![1, 2]
        );
    }

    #[test]
    fn batched_edits_commit_one_epoch() {
        batched_edits_commit_one_epoch_on(|r| r.min);
        batched_edits_commit_one_epoch_on(Polygon::from_rect);
    }

    #[test]
    fn dirty_log_compaction_stays_conservative() {
        let mut idx = EntityIndex::build(RTreeConfig::tiny(4), Vec::new());
        // Blow past the cap; each edit dirties its own location.
        for i in 0..(DIRTY_LOG_CAP + 200) {
            idx.insert(Point::new(i as f64, 0.0));
        }
        assert!(idx.dirty.len() <= DIRTY_LOG_CAP + 1);
        // Every early edit is still visible to a stale observer (merged,
        // not dropped).
        assert!(idx.dirty_intersects(0, &Rect::from_coords(-0.5, -0.5, 0.5, 0.5)));
        // A fully up-to-date observer sees nothing.
        let all = Rect::from_coords(-1.0, -1.0, 1e6, 1.0);
        assert!(!idx.dirty_intersects(idx.epoch(), &all));
    }
}
