//! Indexed datasets and the query engine facade.
//!
//! Both indexes are **dynamic**: `insert`/`delete`/[`EntityIndex::apply_edits`]
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

/// Shared bookkeeping of a dynamic index: the update epoch and the
/// per-epoch dirty-rect log (ascending by epoch).
#[derive(Debug, Default)]
struct EpochLog {
    epoch: u64,
    dirty: Vec<(u64, Rect)>,
}

impl EpochLog {
    /// Opens a new epoch window covering `dirty` and returns the new
    /// epoch number.
    fn commit(&mut self, dirty: Rect) -> u64 {
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
        self.epoch
    }

    /// Whether any edit recorded after epoch `since` touched `region`.
    fn intersects_since(&self, since: u64, region: &Rect) -> bool {
        self.dirty
            .iter()
            .rev()
            .take_while(|(e, _)| *e > since)
            .any(|(_, r)| r.intersects(region))
    }
}

/// An entity dataset (points of interest) with its tree index.
///
/// The storage backend (the paper's paged R*-tree or the packed static
/// tree) is chosen by `config.backend` at build time; every operator runs
/// on either.
#[derive(Debug)]
pub struct EntityIndex {
    tree: AnyTree,
    points: Vec<Point>,
    /// Tombstones: `live[id]` is false once `id` has been deleted. The
    /// point stays in `points` so `position` keeps answering for retired
    /// ids, but no public iterator or query ever returns them.
    live: Vec<bool>,
    live_count: usize,
    log: EpochLog,
}

impl EntityIndex {
    /// Indexes `points` by one-by-one R* insertion (the paper's setup).
    /// On the packed backend this is the same Hilbert pack as
    /// [`EntityIndex::bulk_load`] — a static structure has one build path.
    pub fn build(config: RTreeConfig, points: Vec<Point>) -> Self {
        let tree = AnyTree::build(
            config,
            points
                .iter()
                .enumerate()
                .map(|(i, &p)| Item::point(p, i as u64)),
        );
        Self::fresh(tree, points)
    }

    /// Indexes `points` by bulk loading (paged: STR; packed: Hilbert
    /// pack; used by large-scale benchmarks).
    pub fn bulk_load(config: RTreeConfig, points: Vec<Point>) -> Self {
        let tree = AnyTree::bulk_load(
            config,
            points
                .iter()
                .enumerate()
                .map(|(i, &p)| Item::point(p, i as u64))
                .collect(),
        );
        Self::fresh(tree, points)
    }

    fn fresh(tree: AnyTree, points: Vec<Point>) -> Self {
        let live = vec![true; points.len()];
        let live_count = points.len();
        EntityIndex {
            tree,
            points,
            live,
            live_count,
            log: EpochLog::default(),
        }
    }

    /// The underlying tree index.
    pub fn tree(&self) -> &AnyTree {
        &self.tree
    }

    /// Position of entity `id` (answers for retired ids too — deleted
    /// slots keep their last position).
    pub fn position(&self, id: u64) -> Point {
        self.points[id as usize]
    }

    /// Whether entity `id` exists and has not been deleted.
    pub fn is_live(&self, id: u64) -> bool {
        self.live.get(id as usize).copied().unwrap_or(false)
    }

    /// All live entities as `(id, position)`, in id order. Deleted slots
    /// are skipped — this is the only sanctioned way to enumerate the
    /// dataset (a raw slice would resurrect tombstoned ids).
    pub fn live_points(&self) -> impl Iterator<Item = (u64, Point)> + '_ {
        self.points
            .iter()
            .enumerate()
            .filter(|(i, _)| self.live[*i])
            .map(|(i, &p)| (i as u64, p))
    }

    /// Number of live entities (deletes decrement this).
    pub fn len(&self) -> usize {
        self.live_count
    }

    /// Whether the dataset holds no live entities.
    pub fn is_empty(&self) -> bool {
        self.live_count == 0
    }

    /// Bounding rectangle of the live entities, or `None` when empty.
    pub fn extent(&self) -> Option<Rect> {
        (!self.tree.is_empty()).then(|| self.tree.root_mbr())
    }

    /// Current update epoch (0 for a freshly built index; each committed
    /// edit batch advances it by exactly 1).
    pub fn epoch(&self) -> u64 {
        self.log.epoch
    }

    /// Whether any edit committed after epoch `since` touched `region`.
    pub fn dirty_intersects(&self, since: u64, region: &Rect) -> bool {
        self.log.intersects_since(since, region)
    }

    /// Inserts a new entity and returns its id. Updates are the reason
    /// the paper builds visibility graphs on-line instead of
    /// materialising them (§2.4) — the R-tree absorbs the insert and
    /// every subsequent query sees the new entity with no rebuild.
    /// On the packed backend a single insert re-packs the tree
    /// (O(n log n) — batch edits through [`EntityIndex::apply_edits`]).
    pub fn insert(&mut self, p: Point) -> u64 {
        let (ids, _) = self.apply_edits(&[p], &[]);
        ids[0]
    }

    /// Deletes an entity by id. Returns whether it was present and live.
    /// The id slot is retired (never reused); `position` keeps answering
    /// for retired ids but no query will return them.
    pub fn delete(&mut self, id: u64) -> bool {
        self.apply_edits(&[], &[id]).1 == 1
    }

    /// Applies a batch of edits in one epoch: tombstones every live id in
    /// `deletes`, then inserts all of `inserts` (fresh ids, returned in
    /// order). The tree absorbs the whole batch at once — one re-pack on
    /// the packed backend — and the epoch advances by exactly 1 when the
    /// batch changed anything, with the batch's union bbox as the dirty
    /// rect. Returns `(inserted ids, live deletes performed)`.
    pub fn apply_edits(&mut self, inserts: &[Point], deletes: &[u64]) -> (Vec<u64>, usize) {
        let mut dirty = Rect::empty();
        let mut del_items = Vec::new();
        for &id in deletes {
            let i = id as usize;
            if i < self.points.len() && self.live[i] {
                self.live[i] = false;
                self.live_count -= 1;
                let p = self.points[i];
                del_items.push(Item::point(p, id));
                dirty = dirty.union(&Rect::from_point(p));
            }
        }
        let mut ids = Vec::with_capacity(inserts.len());
        let mut ins_items = Vec::with_capacity(inserts.len());
        for &p in inserts {
            let id = self.points.len() as u64;
            self.points.push(p);
            self.live.push(true);
            self.live_count += 1;
            ids.push(id);
            ins_items.push(Item::point(p, id));
            dirty = dirty.union(&Rect::from_point(p));
        }
        let removed = del_items.len();
        if removed > 0 || !ins_items.is_empty() {
            self.tree.apply_edits(ins_items, &del_items);
            self.log.commit(dirty);
        }
        (ids, removed)
    }
}

/// The obstacle dataset (simple polygons) with its tree index over MBRs.
///
/// Dynamic like [`EntityIndex`]; obstacle edits additionally matter to
/// every cached visibility scene, which is why the epoch/dirty-rect log
/// exists (see the module docs).
#[derive(Debug)]
pub struct ObstacleIndex {
    tree: AnyTree,
    polygons: Vec<Polygon>,
    /// Tombstones — see [`EntityIndex`].
    live: Vec<bool>,
    live_count: usize,
    log: EpochLog,
}

impl ObstacleIndex {
    /// Indexes `polygons` by one-by-one R* insertion (packed backend:
    /// Hilbert pack, see [`EntityIndex::build`]).
    pub fn build(config: RTreeConfig, polygons: Vec<Polygon>) -> Self {
        let tree = AnyTree::build(
            config,
            polygons
                .iter()
                .enumerate()
                .map(|(i, p)| Item::new(p.bbox(), i as u64)),
        );
        Self::fresh(tree, polygons)
    }

    /// Indexes `polygons` by bulk loading (paged: STR; packed: Hilbert
    /// pack).
    pub fn bulk_load(config: RTreeConfig, polygons: Vec<Polygon>) -> Self {
        let tree = AnyTree::bulk_load(
            config,
            polygons
                .iter()
                .enumerate()
                .map(|(i, p)| Item::new(p.bbox(), i as u64))
                .collect(),
        );
        Self::fresh(tree, polygons)
    }

    fn fresh(tree: AnyTree, polygons: Vec<Polygon>) -> Self {
        let live = vec![true; polygons.len()];
        let live_count = polygons.len();
        ObstacleIndex {
            tree,
            polygons,
            live,
            live_count,
            log: EpochLog::default(),
        }
    }

    /// The underlying tree index (indexes obstacle MBRs).
    pub fn tree(&self) -> &AnyTree {
        &self.tree
    }

    /// The polygon of obstacle `id` (answers for retired ids too).
    pub fn polygon(&self, id: u64) -> &Polygon {
        &self.polygons[id as usize]
    }

    /// Whether obstacle `id` exists and has not been deleted.
    pub fn is_live(&self, id: u64) -> bool {
        self.live.get(id as usize).copied().unwrap_or(false)
    }

    /// All live obstacles as `(id, polygon)`, in id order. Deleted slots
    /// are skipped — the only sanctioned enumeration of the dataset.
    pub fn live_polygons(&self) -> impl Iterator<Item = (u64, &Polygon)> + '_ {
        self.polygons
            .iter()
            .enumerate()
            .filter(|(i, _)| self.live[*i])
            .map(|(i, p)| (i as u64, p))
    }

    /// Number of live obstacles (deletes decrement this).
    pub fn len(&self) -> usize {
        self.live_count
    }

    /// Whether the dataset holds no live obstacles.
    pub fn is_empty(&self) -> bool {
        self.live_count == 0
    }

    /// Bounding rectangle of the live obstacles, or `None` when the set
    /// is (or has become, via deletes) empty.
    pub fn extent(&self) -> Option<Rect> {
        (!self.tree.is_empty()).then(|| self.tree.root_mbr())
    }

    /// A rectangle covering the whole obstacle dataset, with a unit-square
    /// fallback when empty. Prefer [`QueryEngine::universe`], which falls
    /// back to the *entity* extent first — Hilbert scheduling over this
    /// unit square would clamp every real-coordinate query to one corner
    /// cell.
    pub fn universe(&self) -> Rect {
        self.extent()
            .unwrap_or_else(|| Rect::from_coords(0.0, 0.0, 1.0, 1.0))
    }

    /// Current update epoch (see [`EntityIndex::epoch`]).
    pub fn epoch(&self) -> u64 {
        self.log.epoch
    }

    /// Whether any edit committed after epoch `since` touched `region`.
    /// This is the scene-invalidation predicate: a cached scene stamped
    /// `(since, region)` must be retired iff this returns true for its
    /// slack-inflated region.
    pub fn dirty_intersects(&self, since: u64, region: &Rect) -> bool {
        self.log.intersects_since(since, region)
    }

    /// Inserts a new obstacle and returns its id. Queries issued after
    /// the insert immediately respect the new obstacle — the paper's
    /// argument for on-line local visibility graphs (§2.4). On the packed
    /// backend a single insert re-packs the tree (batch edits through
    /// [`ObstacleIndex::apply_edits`]).
    pub fn insert(&mut self, polygon: Polygon) -> u64 {
        let (ids, _) = self.apply_edits(vec![polygon], &[]);
        ids[0]
    }

    /// Deletes an obstacle by id. Returns whether it was present and
    /// live. The id slot is retired (never reused).
    pub fn delete(&mut self, id: u64) -> bool {
        self.apply_edits(Vec::new(), &[id]).1 == 1
    }

    /// Applies a batch of edits in one epoch — the obstacle-side analogue
    /// of [`EntityIndex::apply_edits`]. Dirty rect: union of deleted and
    /// inserted polygon bboxes. Returns `(inserted ids, live deletes)`.
    pub fn apply_edits(&mut self, inserts: Vec<Polygon>, deletes: &[u64]) -> (Vec<u64>, usize) {
        let mut dirty = Rect::empty();
        let mut del_items = Vec::new();
        for &id in deletes {
            let i = id as usize;
            if i < self.polygons.len() && self.live[i] {
                self.live[i] = false;
                self.live_count -= 1;
                let bbox = self.polygons[i].bbox();
                del_items.push(Item::new(bbox, id));
                dirty = dirty.union(&bbox);
            }
        }
        let mut ids = Vec::with_capacity(inserts.len());
        let mut ins_items = Vec::with_capacity(inserts.len());
        for polygon in inserts {
            let id = self.polygons.len() as u64;
            let bbox = polygon.bbox();
            self.polygons.push(polygon);
            self.live.push(true);
            self.live_count += 1;
            ids.push(id);
            ins_items.push(Item::new(bbox, id));
            dirty = dirty.union(&bbox);
        }
        let removed = del_items.len();
        if removed > 0 || !ins_items.is_empty() {
            self.tree.apply_edits(ins_items, &del_items);
            self.log.commit(dirty);
        }
        (ids, removed)
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

    /// The working universe: obstacle extent, falling back to the entity
    /// extent, then to the unit square. Hilbert scheduling and the
    /// scene-reuse slack are computed over this rect — falling back to
    /// the unit square while queries carry real coordinates would clamp
    /// every Hilbert key to one corner cell.
    pub fn universe(&self) -> Rect {
        universe_of(self.obstacles, Some(self.entities))
    }
}

/// [`QueryEngine::universe`] for callers that may have no entity dataset
/// (the free path functions): the one definition of the fallback chain.
pub(crate) fn universe_of(obstacles: &ObstacleIndex, entities: Option<&EntityIndex>) -> Rect {
    obstacles
        .extent()
        .or_else(|| entities.and_then(EntityIndex::extent))
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
        assert_eq!(idx.universe(), Rect::from_coords(0.0, 0.0, 0.6, 0.9));
        assert_eq!(idx.epoch(), 0);
    }

    #[test]
    fn default_options_are_paper_faithful() {
        assert_eq!(
            EngineOptions::default().builder,
            EdgeBuilder::RotationalSweep
        );
    }

    #[test]
    fn edits_advance_epoch_and_record_dirty_rects() {
        let polys = vec![Polygon::from_rect(Rect::from_coords(0.0, 0.0, 0.2, 0.1))];
        let mut idx = ObstacleIndex::build(RTreeConfig::tiny(4), polys);
        let far = Rect::from_coords(5.0, 5.0, 5.2, 5.2);
        let id = idx.insert(Polygon::from_rect(far));
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
    fn batched_edits_commit_one_epoch() {
        let mut idx = EntityIndex::build(RTreeConfig::tiny(4), vec![Point::new(0.0, 0.0)]);
        let (ids, removed) = idx.apply_edits(&[Point::new(1.0, 1.0), Point::new(2.0, 2.0)], &[0]);
        assert_eq!(ids, vec![1, 2]);
        assert_eq!(removed, 1);
        assert_eq!(idx.epoch(), 1, "one epoch for the whole batch");
        assert_eq!(idx.len(), 2);
        assert!(!idx.is_live(0));
        assert!(idx.is_live(2));
        assert_eq!(
            idx.live_points().map(|(id, _)| id).collect::<Vec<_>>(),
            vec![1, 2]
        );
    }

    #[test]
    fn dirty_log_compaction_stays_conservative() {
        let mut idx = EntityIndex::build(RTreeConfig::tiny(4), Vec::new());
        // Blow past the cap; each edit dirties its own location.
        for i in 0..(DIRTY_LOG_CAP + 200) {
            idx.insert(Point::new(i as f64, 0.0));
        }
        assert!(idx.log.dirty.len() <= DIRTY_LOG_CAP + 1);
        // Every early edit is still visible to a stale observer (merged,
        // not dropped).
        assert!(idx.dirty_intersects(0, &Rect::from_coords(-0.5, -0.5, 0.5, 0.5)));
        // A fully up-to-date observer sees nothing.
        let all = Rect::from_coords(-1.0, -1.0, 1e6, 1.0);
        assert!(!idx.dirty_intersects(idx.epoch(), &all));
    }
}
