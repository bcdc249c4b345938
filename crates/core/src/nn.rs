//! Obstacle nearest-neighbour query (ONN — §4, Fig. 9) and its
//! incremental variant (iONN, per the §6 remark).

use crate::distance::{compute_obstructed_distance, LocalGraph};
use crate::engine::QueryEngine;
use crate::stats::{NearestResult, QueryStats};
use crate::QUERY_TAG;
use obstacle_geom::Point;
use obstacle_rtree::sync::Stopwatch;
use obstacle_rtree::{AnyTree, Nearest, OrdF64, TreeBackend};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

impl<'a> QueryEngine<'a> {
    /// The `k` entities with the smallest obstructed distance from `q`,
    /// ascending (fewer if the dataset is smaller than `k` or neighbours
    /// are unreachable).
    ///
    /// Implements ONN (Fig. 9): Euclidean neighbours are retrieved
    /// incrementally \[HS99\]; each candidate's obstructed distance is
    /// evaluated on a visibility graph grown on demand (Fig. 8) and
    /// *reused* across candidates via add/delete-entity; retrieval stops
    /// once the next Euclidean distance exceeds `d_Emax`, the obstructed
    /// distance of the current k-th neighbour (which only shrinks).
    pub fn nearest(&self, q: Point, k: usize) -> NearestResult {
        let mut graph = LocalGraph::new(self.options.builder);
        self.nearest_in(&mut graph, q, k)
    }

    /// [`QueryEngine::nearest`] over a caller-provided scene.
    ///
    /// The scene's absorbed obstacles and cached sweeps are reused and
    /// any the query absorbs stay behind for the next caller (the
    /// cross-query extension of the candidate-to-candidate reuse ONN
    /// already does *within* one query). The query's
    /// waypoints are removed before returning; neighbours are identical
    /// to a fresh-scene run because extra resident obstacles are real
    /// obstacles and every Fig. 8 fixpoint still certifies its region.
    ///
    /// A reused graph is first synchronized with the obstacle-set epoch
    /// ([`LocalGraph::sync`], before any waypoint is added) — see
    /// [`QueryEngine::range_in`].
    pub fn nearest_in(&self, graph: &mut LocalGraph, q: Point, k: usize) -> NearestResult {
        let slack = crate::batch::SceneCache::slack_for(&self.universe());
        graph.sync(self.obstacles, slack);
        let t0 = Stopwatch::start();
        let entity_io = self.entities.tree().io_snapshot();
        let obstacle_io = self.obstacles.tree().io_snapshot();

        // `k` arrives from outside (a `serve` socket line): reserve for
        // what the dataset can return, so `k = usize::MAX` neither
        // overflows `k + 1` nor aborts on the reservation.
        let reserve = k.min(self.entities.len());
        let mut result: Vec<(u64, f64)> = Vec::with_capacity(reserve + 1);
        let mut euclid_top_k: Vec<u64> = Vec::with_capacity(reserve);
        let mut candidates = 0usize;
        let mut distance_computations = 0usize;
        let mut peak_graph_nodes = 0usize;

        if k > 0 && !self.entities.is_empty() {
            let q_node = graph.add_waypoint(q, QUERY_TAG);

            for (item, d_e) in self.entities.tree().nearest(q) {
                if euclid_top_k.len() < k {
                    euclid_top_k.push(item.id);
                }
                if result.len() == k && d_e > result[k - 1].1 {
                    break;
                }
                candidates += 1;
                distance_computations += 1;
                let p_node = graph.add_waypoint(item.mbr.min, item.id);
                let d_o = compute_obstructed_distance(graph, p_node, q_node, self.obstacles);
                graph.remove_waypoint(p_node);
                peak_graph_nodes = peak_graph_nodes.max(graph.scene.node_count());
                if let Some(d_o) = d_o {
                    let at = result.partition_point(|&(_, d)| d <= d_o);
                    result.insert(at, (item.id, d_o));
                    result.truncate(k);
                }
            }
            graph.remove_waypoint(q_node);
        }

        let false_hits = euclid_top_k
            .iter()
            .filter(|id| !result.iter().any(|(rid, _)| rid == *id))
            .count();

        let entity_io = entity_io.finish();
        let obstacle_io = obstacle_io.finish();
        let stats = QueryStats {
            entity_reads: entity_io.reads,
            obstacle_reads: obstacle_io.reads,
            entity_fetches: entity_io.fetches(),
            obstacle_fetches: obstacle_io.fetches(),
            cpu: t0.elapsed(),
            candidates,
            results: result.len(),
            false_hits,
            distance_computations,
            peak_graph_nodes,
        };
        NearestResult {
            neighbors: result,
            stats,
        }
    }

    /// Incremental obstructed nearest neighbours: yields `(entity id,
    /// obstructed distance)` in ascending obstructed-distance order,
    /// without a predefined `k` (the iONN variant sketched in §6: a
    /// result can be emitted as soon as its obstructed distance is below
    /// the Euclidean distance of the current candidate, since later
    /// candidates can only be farther).
    pub fn nearest_incremental(&self, q: Point) -> IncrementalNearest<'a> {
        let mut graph = LocalGraph::new(self.options.builder);
        let q_node = graph.add_waypoint(q, QUERY_TAG);
        IncrementalNearest {
            engine: *self,
            euclid: self.entities.tree().nearest(q),
            graph,
            q_node,
            pending: BinaryHeap::new(),
            last_euclid: 0.0,
            exhausted: self.entities.is_empty(),
        }
    }
}

/// Iterator over obstructed nearest neighbours in ascending distance
/// order; see [`QueryEngine::nearest_incremental`].
pub struct IncrementalNearest<'a> {
    engine: QueryEngine<'a>,
    euclid: Nearest<'a, AnyTree>,
    graph: LocalGraph,
    q_node: obstacle_visibility::NodeId,
    /// Candidates whose obstructed distance is known but not yet safe to
    /// emit (min-heap by obstructed distance).
    pending: BinaryHeap<Reverse<(OrdF64, u64)>>,
    last_euclid: f64,
    exhausted: bool,
}

impl Iterator for IncrementalNearest<'_> {
    type Item = (u64, f64);

    fn next(&mut self) -> Option<(u64, f64)> {
        loop {
            if let Some(&Reverse((OrdF64(d), id))) = self.pending.peek() {
                if self.exhausted || d <= self.last_euclid {
                    self.pending.pop();
                    return Some((id, d));
                }
            } else if self.exhausted {
                return None;
            }
            match self.euclid.next() {
                Some((item, d_e)) => {
                    self.last_euclid = d_e;
                    let p_node = self.graph.add_waypoint(item.mbr.min, item.id);
                    let d_o = compute_obstructed_distance(
                        &mut self.graph,
                        p_node,
                        self.q_node,
                        self.engine.obstacles,
                    );
                    self.graph.remove_waypoint(p_node);
                    if let Some(d_o) = d_o {
                        self.pending.push(Reverse((OrdF64::new(d_o), item.id)));
                    }
                }
                None => self.exhausted = true,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{EntityIndex, ObstacleIndex};
    use obstacle_geom::{Polygon, Rect};
    use obstacle_rtree::RTreeConfig;

    /// The paper's Fig. 1 scenario: `a` is the Euclidean NN but `b` is the
    /// obstructed NN because a wall blocks the direct path to `a`.
    fn fig1_scene() -> (EntityIndex, ObstacleIndex) {
        let entities = EntityIndex::build(
            RTreeConfig::tiny(4),
            vec![
                Point::new(2.0, 0.0), // 0 = a: Euclidean NN, behind a wall
                Point::new(0.0, 2.2), // 1 = b: farther in Euclidean, unobstructed
            ],
        );
        let obstacles = ObstacleIndex::build(
            RTreeConfig::tiny(4),
            vec![Polygon::from_rect(Rect::from_coords(1.0, -2.0, 1.2, 2.0))],
        );
        (entities, obstacles)
    }

    #[test]
    fn obstructed_nn_differs_from_euclidean_nn() {
        let (entities, obstacles) = fig1_scene();
        let engine = QueryEngine::new(&entities, &obstacles);
        let q = Point::new(0.0, 0.0);
        let r = engine.nearest(q, 1);
        assert_eq!(r.neighbors.len(), 1);
        assert_eq!(r.neighbors[0].0, 1, "b must win under d_O");
        assert!((r.neighbors[0].1 - 2.2).abs() < 1e-12);
        assert_eq!(r.stats.false_hits, 1, "a is a false hit");
    }

    #[test]
    fn k2_returns_both_sorted_by_obstructed_distance() {
        let (entities, obstacles) = fig1_scene();
        let engine = QueryEngine::new(&entities, &obstacles);
        let r = engine.nearest(Point::new(0.0, 0.0), 2);
        assert_eq!(r.neighbors.len(), 2);
        assert_eq!(r.neighbors[0].0, 1);
        assert_eq!(r.neighbors[1].0, 0);
        let d_a = r.neighbors[1].1;
        let detour = Point::new(0.0, 0.0).dist(Point::new(1.0, 2.0))
            + 0.2
            + Point::new(1.2, 2.0).dist(Point::new(2.0, 0.0));
        assert!((d_a - detour).abs() < 1e-9);
    }

    #[test]
    fn k_larger_than_dataset() {
        let (entities, obstacles) = fig1_scene();
        let engine = QueryEngine::new(&entities, &obstacles);
        let r = engine.nearest(Point::new(0.0, 0.0), 10);
        assert_eq!(r.neighbors.len(), 2);
        assert_eq!(engine.nearest(Point::new(0.0, 0.0), 0).neighbors.len(), 0);
    }

    #[test]
    fn incremental_matches_batch() {
        let (entities, obstacles) = fig1_scene();
        let engine = QueryEngine::new(&entities, &obstacles);
        let q = Point::new(0.0, 0.0);
        let batch = engine.nearest(q, 2).neighbors;
        let inc: Vec<(u64, f64)> = engine.nearest_incremental(q).collect();
        assert_eq!(batch.len(), inc.len());
        for (b, i) in batch.iter().zip(inc.iter()) {
            assert_eq!(b.0, i.0);
            assert!((b.1 - i.1).abs() < 1e-12);
        }
    }
}
