//! Obstacle range query (OR — §3, Fig. 5).

use crate::batch::SceneCache;
use crate::distance::{compute_obstructed_range, LocalGraph};
use crate::engine::QueryEngine;
use crate::stats::{QueryStats, RangeResult};
use obstacle_geom::Point;
use obstacle_rtree::sync::Stopwatch;
use obstacle_rtree::TreeBackend;

impl QueryEngine<'_> {
    /// All entities within **obstructed** distance `e` of `q`, with their
    /// obstructed distances, in ascending distance order.
    ///
    /// Implements the OR algorithm of Fig. 5 over the lazy scene (the
    /// same engine ONN already uses, instead of the seed's materialized
    /// local visibility graph):
    ///
    /// 1. Euclidean range queries retrieve the candidate entities `P'`
    ///    and the relevant obstacles `O'` (by the Euclidean lower bound,
    ///    no entity or obstacle outside the disk can participate);
    /// 2. the obstacles are *registered* with a lazy scene (no edges);
    /// 3. one multi-target Dijkstra expansion from `q`, pruned at radius
    ///    `e`, settles nodes in ascending obstructed distance, computing
    ///    visibility only at the nodes it actually pops
    ///    ([`compute_obstructed_range`]); settled entities are reported,
    ///    the rest of `P'` are false hits.
    pub fn range(&self, q: Point, e: f64) -> RangeResult {
        let mut graph = LocalGraph::new(self.options.builder);
        self.range_in(&mut graph, q, e)
    }

    /// [`QueryEngine::range`] over a caller-provided scene.
    ///
    /// Obstacles (and cached sweeps) already present in `graph` are
    /// reused; obstacles the query's disk needs are absorbed and stay for
    /// the next caller — the cross-query amortization of
    /// [`SceneCache`](crate::SceneCache). The query's waypoints are
    /// removed again before returning, and the hits are identical to a
    /// fresh-scene [`QueryEngine::range`]: extra resident obstacles are
    /// real obstacles of the same dataset, and any path of length ≤ `e`
    /// is certified by the disk absorption alone.
    ///
    /// A reused graph is first synchronized with the obstacle-set epoch
    /// ([`LocalGraph::sync`], before any waypoint is added): if an edit
    /// since its last sync dirtied a rect intersecting its region, the
    /// scene is retired, so answers always reflect the live obstacle set.
    pub fn range_in(&self, graph: &mut LocalGraph, q: Point, e: f64) -> RangeResult {
        graph.sync(self.obstacles, SceneCache::slack_for(&self.universe()));
        let t0 = Stopwatch::start();
        let entity_io = self.entities.tree().io_snapshot();
        let obstacle_io = self.obstacles.tree().io_snapshot();

        // Step 1: candidate entities by the Euclidean lower bound.
        let candidates = self.entities.tree().range_circle(q, e);

        // Steps 2-3: lazy multi-target expansion from q at radius e.
        let (hits, peak_graph_nodes) = if candidates.is_empty() {
            (Vec::new(), 0)
        } else {
            let targets = candidates.iter().map(|item| (item.mbr.min, item.id));
            compute_obstructed_range(graph, q, targets, self.obstacles, e)
        };

        let entity_io = entity_io.finish();
        let obstacle_io = obstacle_io.finish();
        let stats = QueryStats {
            entity_reads: entity_io.reads,
            obstacle_reads: obstacle_io.reads,
            entity_fetches: entity_io.fetches(),
            obstacle_fetches: obstacle_io.fetches(),
            cpu: t0.elapsed(),
            candidates: candidates.len(),
            results: hits.len(),
            false_hits: candidates.len() - hits.len(),
            distance_computations: 1,
            peak_graph_nodes,
        };
        RangeResult { hits, stats }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{EntityIndex, ObstacleIndex};
    use obstacle_geom::{Polygon, Rect};
    use obstacle_rtree::RTreeConfig;

    fn scene() -> (EntityIndex, ObstacleIndex) {
        // A wall between q and the east entities.
        //
        //   q=(0,0)   wall x∈[1,1.2], y∈[-1,1]   a=(2,0)  b=(1.5,2)  c=(-1,0)
        let entities = EntityIndex::build(
            RTreeConfig::tiny(4),
            vec![
                Point::new(2.0, 0.0),  // 0: behind the wall
                Point::new(1.5, 2.0),  // 1: above the wall
                Point::new(-1.0, 0.0), // 2: free line of sight
            ],
        );
        let obstacles = ObstacleIndex::build(
            RTreeConfig::tiny(4),
            vec![Polygon::from_rect(Rect::from_coords(1.0, -1.0, 1.2, 1.0))],
        );
        (entities, obstacles)
    }

    #[test]
    fn wall_pushes_entity_out_of_range() {
        let (entities, obstacles) = scene();
        let engine = QueryEngine::new(&entities, &obstacles);
        let q = Point::new(0.0, 0.0);

        // Euclidean distance to entity 0 is 2.0, but the obstructed path
        // must round a wall corner: d_O = |q→(1,1)| + |(1,1)→(1.2,1)| +
        // |(1.2,1)→(2,0)| ≈ 2.897. A range of 2.2 keeps it out.
        let r = engine.range(q, 2.2);
        let ids: Vec<u64> = r.hits.iter().map(|(id, _)| *id).collect();
        assert_eq!(ids, vec![2]); // only the unobstructed west entity
        assert_eq!(r.stats.candidates, 2); // entities 0 and 2
        assert_eq!(r.stats.false_hits, 1); // entity 0 eliminated
        assert!((r.stats.false_hit_ratio() - 1.0).abs() < 1e-12);

        // A range of 3.0 admits it (and entity 1 at Euclidean 2.5).
        let r = engine.range(q, 3.0);
        let ids: Vec<u64> = r.hits.iter().map(|(id, _)| *id).collect();
        assert_eq!(ids.len(), 3);
        // Ascending obstructed distance: c (1.0) first.
        assert_eq!(r.hits[0].0, 2);
        for w in r.hits.windows(2) {
            assert!(w[0].1 <= w[1].1);
        }
    }

    #[test]
    fn exact_distance_of_detour() {
        let (entities, obstacles) = scene();
        let engine = QueryEngine::new(&entities, &obstacles);
        let r = engine.range(Point::new(0.0, 0.0), 3.0);
        let d0 = r.hits.iter().find(|(id, _)| *id == 0).unwrap().1;
        let expect = Point::new(0.0, 0.0).dist(Point::new(1.0, 1.0))
            + 0.2
            + Point::new(1.2, 1.0).dist(Point::new(2.0, 0.0));
        assert!((d0 - expect).abs() < 1e-9, "{d0} vs {expect}");
    }

    /// `e` is caller input and, as the expansion's radius, becomes the
    /// sweep budget `e − d` of every settled node: the edge values must
    /// terminate with the answers they always had.
    #[test]
    fn edge_radii_through_execute() {
        use crate::{Answer, Query};
        let (entities, obstacles) = scene();
        let engine = QueryEngine::new(&entities, &obstacles);
        let hits = |q: Point, e: f64| match engine.execute(&Query::Range { q, e }) {
            Answer::Range(r) => r.hits,
            other => panic!("range query answered {other:?}"),
        };
        let origin = Point::new(0.0, 0.0);
        assert!(hits(origin, f64::NAN).is_empty());
        assert!(hits(origin, -1.0).is_empty());
        assert!(hits(origin, 0.0).is_empty());
        // e = 0 still finds an entity standing on the query point.
        assert_eq!(hits(Point::new(-1.0, 0.0), 0.0), vec![(2, 0.0)]);
        // e = +inf is the unbounded expansion: everything reachable.
        let all = hits(origin, f64::INFINITY);
        assert_eq!(all, hits(origin, 1e9));
        assert_eq!(all.len(), 3);
    }

    #[test]
    fn empty_range_yields_nothing() {
        let (entities, obstacles) = scene();
        let engine = QueryEngine::new(&entities, &obstacles);
        let r = engine.range(Point::new(10.0, 10.0), 0.5);
        assert!(r.hits.is_empty());
        assert_eq!(r.stats.candidates, 0);
        assert_eq!(r.stats.false_hits, 0);
    }

    #[test]
    fn distances_respect_euclidean_lower_bound() {
        let (entities, obstacles) = scene();
        let engine = QueryEngine::new(&entities, &obstacles);
        let q = Point::new(0.3, 0.4);
        let r = engine.range(q, 5.0);
        for (id, d) in &r.hits {
            let euclid = entities.position(*id).dist(q);
            assert!(*d >= euclid - 1e-12);
            assert!(*d <= 5.0 + 1e-12);
        }
        assert_eq!(r.hits.len(), 3);
    }
}
