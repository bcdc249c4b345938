//! First-class dataset updates.
//!
//! [`QueryEngine::apply_updates`] is the batch entry point for live map
//! edits (the production scenario: road closures and construction under
//! query traffic). It splits a heterogeneous edit list per index and
//! commits each side as **one** [`Dataset::apply_edits`](crate::Dataset::apply_edits)
//! batch: one epoch bump and — on the packed backend — one tree re-pack
//! per index, instead of one per edit.
//!
//! Edits are applied deletes-first within each index (so a batch may
//! delete an id and insert a replacement polygon at a fresh id), and the
//! two indexes are independent: entity edits never invalidate cached
//! visibility scenes (scenes are built from obstacles only; waypoints are
//! re-added per query from live data), while obstacle edits advance the
//! obstacle epoch that [`LocalGraph::sync`](crate::LocalGraph::sync) and
//! [`SceneCache`](crate::SceneCache) validate against.

use crate::engine::{EntityIndex, ObstacleIndex, QueryEngine};
use obstacle_geom::{Point, Polygon};

/// One dataset edit, for [`QueryEngine::apply_updates`].
#[derive(Clone, Debug)]
pub enum Update {
    /// Insert an obstacle polygon (id assigned by the index).
    InsertObstacle(Polygon),
    /// Delete the obstacle with this id (a miss is counted, not an error).
    DeleteObstacle(u64),
    /// Insert an entity point (id assigned by the index).
    InsertEntity(Point),
    /// Delete the entity with this id (a miss is counted, not an error).
    DeleteEntity(u64),
}

/// What a batch of updates did.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct UpdateStats {
    /// Ids assigned to inserted obstacles, in edit order.
    pub inserted_obstacles: Vec<u64>,
    /// Ids assigned to inserted entities, in edit order.
    pub inserted_entities: Vec<u64>,
    /// Live obstacles tombstoned by this batch.
    pub deleted_obstacles: usize,
    /// Live entities tombstoned by this batch.
    pub deleted_entities: usize,
    /// Requested deletes that matched no live id (already deleted or
    /// never existed).
    pub missed_deletes: usize,
    /// Obstacle epoch after the batch.
    pub obstacle_epoch: u64,
    /// Entity epoch after the batch.
    pub entity_epoch: u64,
}

impl QueryEngine<'_> {
    /// Applies a batch of edits to both indexes, one epoch bump per
    /// touched index.
    ///
    /// An associated function rather than a method: `QueryEngine` is a
    /// `Copy` bundle of shared borrows, so updating requires the caller
    /// to hold the indexes mutably (no engine — and no cached borrow of
    /// the trees — can exist across the edit, which is exactly the
    /// reader/writer discipline that keeps mid-query invalidation
    /// impossible).
    pub fn apply_updates(
        entities: &mut EntityIndex,
        obstacles: &mut ObstacleIndex,
        edits: Vec<Update>,
    ) -> UpdateStats {
        let mut poly_ins = Vec::new();
        let mut poly_del = Vec::new();
        let mut pt_ins = Vec::new();
        let mut pt_del = Vec::new();
        for edit in edits {
            match edit {
                Update::InsertObstacle(p) => poly_ins.push(p),
                Update::DeleteObstacle(id) => poly_del.push(id),
                Update::InsertEntity(p) => pt_ins.push(p),
                Update::DeleteEntity(id) => pt_del.push(id),
            }
        }
        let requested = poly_del.len() + pt_del.len();
        let (inserted_obstacles, deleted_obstacles) = obstacles.apply_edits(poly_ins, &poly_del);
        let (inserted_entities, deleted_entities) = entities.apply_edits(pt_ins, &pt_del);
        UpdateStats {
            inserted_obstacles,
            inserted_entities,
            deleted_obstacles,
            deleted_entities,
            missed_deletes: requested - deleted_obstacles - deleted_entities,
            obstacle_epoch: obstacles.epoch(),
            entity_epoch: entities.epoch(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use obstacle_geom::Rect;
    use obstacle_rtree::RTreeConfig;

    #[test]
    fn mixed_batch_bumps_each_epoch_once() {
        let mut entities = EntityIndex::build(RTreeConfig::tiny(4), vec![Point::new(0.1, 0.1)]);
        let mut obstacles = ObstacleIndex::build(
            RTreeConfig::tiny(4),
            vec![Polygon::from_rect(Rect::from_coords(0.4, 0.4, 0.5, 0.5))],
        );
        let stats = QueryEngine::apply_updates(
            &mut entities,
            &mut obstacles,
            vec![
                Update::DeleteObstacle(0),
                Update::InsertObstacle(Polygon::from_rect(Rect::from_coords(0.6, 0.6, 0.7, 0.7))),
                Update::InsertObstacle(Polygon::from_rect(Rect::from_coords(0.8, 0.8, 0.9, 0.9))),
                Update::InsertEntity(Point::new(0.2, 0.2)),
                Update::DeleteEntity(7),
            ],
        );
        assert_eq!(stats.inserted_obstacles, vec![1, 2]);
        assert_eq!(stats.inserted_entities, vec![1]);
        assert_eq!(stats.deleted_obstacles, 1);
        assert_eq!(stats.deleted_entities, 0);
        assert_eq!(stats.missed_deletes, 1, "entity 7 never existed");
        assert_eq!(stats.obstacle_epoch, 1, "3 obstacle edits, one epoch");
        assert_eq!(stats.entity_epoch, 1);
        assert_eq!(obstacles.len(), 2);
        assert_eq!(entities.len(), 2);
    }

    #[test]
    fn empty_and_one_sided_batches() {
        let mut entities = EntityIndex::build(RTreeConfig::tiny(4), Vec::new());
        let mut obstacles = ObstacleIndex::build(RTreeConfig::tiny(4), Vec::new());
        let stats = QueryEngine::apply_updates(&mut entities, &mut obstacles, Vec::new());
        assert_eq!(stats, UpdateStats::default());

        let stats = QueryEngine::apply_updates(
            &mut entities,
            &mut obstacles,
            vec![Update::InsertEntity(Point::new(1.0, 1.0))],
        );
        assert_eq!(stats.entity_epoch, 1);
        assert_eq!(stats.obstacle_epoch, 0, "untouched index keeps its epoch");
    }
}
